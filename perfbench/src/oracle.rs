//! The plain-integer reference every answer is checked against.
//!
//! Nothing here touches the spin-wave engine: a gate is the
//! width-masked bitwise `logic` of its inputs (the golden-gates `Gate`
//! model), and the circuit is integer `a + b` plus an 8-input parity,
//! computed channel by channel.

use magnon_core::word::Word;

/// Bit mask of a `width`-channel word.
pub fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Width-masked bitwise 3-input majority.
pub fn maj3(a: u64, b: u64, c: u64, width: usize) -> u64 {
    ((a & b) | (a & c) | (b & c)) & mask(width)
}

/// Width-masked bitwise 2-input XOR.
pub fn xor2(a: u64, b: u64, width: usize) -> u64 {
    (a ^ b) & mask(width)
}

/// Expected outputs of the two-subgraph circuit for one operand set:
/// inputs are `a[0..bits]`, `b[0..bits]`, then `parity` words; outputs
/// are the `bits` sum words, the carry word and the parity word. Word
/// `i` carries bit `i` of every channel's integer operand.
pub fn adder_parity(inputs: &[Word], bits: usize, width: usize) -> Vec<u64> {
    let mut sums = vec![0u64; bits];
    let mut carry = 0u64;
    let mut parity = 0u64;
    for channel in 0..width {
        let bit = |w: &Word| (w.bits() >> channel) & 1;
        let a: u64 = (0..bits).map(|i| bit(&inputs[i]) << i).sum();
        let b: u64 = (0..bits).map(|i| bit(&inputs[bits + i]) << i).sum();
        let s = a + b;
        for (i, word) in sums.iter_mut().enumerate() {
            *word |= ((s >> i) & 1) << channel;
        }
        carry |= ((s >> bits) & 1) << channel;
        let p = inputs[2 * bits..].iter().fold(0, |acc, w| acc ^ bit(w));
        parity |= p << channel;
    }
    sums.push(carry);
    sums.push(parity);
    sums
}

/// Answers counted against the number attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checker {
    /// Operand sets sent.
    pub attempted: u64,
    /// Sets that came back with an error, timed out or were refused.
    pub failed: u64,
    /// Sets answered with a word that differs from the reference.
    pub wrong: u64,
}

impl Checker {
    /// Records one answered set; returns whether it was right.
    pub fn answer(&mut self, got: &[Word], expected: &[u64]) -> bool {
        self.attempted += 1;
        let ok =
            got.len() == expected.len() && got.iter().zip(expected).all(|(w, &e)| w.bits() == e);
        if !ok {
            self.wrong += 1;
        }
        ok
    }

    /// Records `sets` sets that never got an answer.
    pub fn fail(&mut self, sets: u64) {
        self.attempted += sets;
        self.failed += sets;
    }

    /// Sets answered correctly.
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed - self.wrong
    }

    /// Failed plus wrong sets.
    pub fn bad(&self) -> u64 {
        self.failed + self.wrong
    }

    /// `(failed + wrong) / attempted`.
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.bad() as f64 / self.attempted as f64
        }
    }

    /// Adds another checker's counts.
    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Plants one wrong answer (a copy of `good` with one bit flipped)
    /// into a copy of this checker and confirms the check catches it:
    /// the copy's error ratio must rise. Returns whether it did.
    pub fn catches_planted_error(&self, good: &[Word], expected: &[u64]) -> bool {
        let mut planted = *self;
        let mut corrupt = good.to_vec();
        let Some(first) = corrupt.first_mut() else {
            return false;
        };
        let Ok(flipped) = Word::from_bits(first.bits() ^ 1, first.width()) else {
            return false;
        };
        *first = flipped;
        let caught = !planted.answer(&corrupt, expected);
        caught && planted.error_ratio() > self.error_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_and_xor_mask_to_width() {
        assert_eq!(maj3(0b1100, 0b1010, 0b0110, 4), 0b1110);
        assert_eq!(xor2(0xFFF, 0x0F0, 8), 0x0F);
    }

    #[test]
    fn adder_parity_matches_integer_sum() {
        let bits = 8;
        // Channel c adds c + 2c; the parity inputs carry c's bits.
        let mut inputs = vec![Word::zeros(8).unwrap(); 3 * bits];
        for c in 0..8usize {
            for i in 0..bits {
                let set = |w: &mut Word, v: usize| {
                    *w = w.with_bit(c, (v >> i) & 1 == 1).unwrap();
                };
                set(&mut inputs[i], c);
                set(&mut inputs[bits + i], 2 * c);
                set(&mut inputs[2 * bits + i], c);
            }
        }
        let out = adder_parity(&inputs, bits, 8);
        for c in 0..8usize {
            let sum: usize = (0..=bits)
                .map(|i| (((out[i] >> c) & 1) as usize) << i)
                .sum();
            assert_eq!(sum, 3 * c);
            assert_eq!((out[bits + 1] >> c) & 1, u64::from(c.count_ones() % 2));
        }
    }

    #[test]
    fn planted_error_raises_the_ratio() {
        let mut checker = Checker::default();
        let good = [Word::from_u8(0x5A)];
        assert!(checker.answer(&good, &[0x5A]));
        assert!(checker.catches_planted_error(&good, &[0x5A]));
        assert_eq!(checker.error_ratio(), 0.0);
    }
}
