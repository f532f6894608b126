//! Data-parallel adders.
//!
//! The canonical majority-logic construction: per bit position,
//! `carry = MAJ(a, b, c_in)` and `sum = (a ⊕ b) ⊕ c_in`. Every wire
//! carries an `n`-channel word, so one W-bit adder adds `n` independent
//! pairs of numbers simultaneously.

use crate::netlist::Circuit;
use magnon_core::word::Word;
use magnon_core::GateError;

/// Builds a full adder inside `circuit`; returns `(sum, carry_out)`.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn full_adder(
    circuit: &mut Circuit,
    a: crate::netlist::NodeId,
    b: crate::netlist::NodeId,
    carry_in: crate::netlist::NodeId,
) -> Result<(crate::netlist::NodeId, crate::netlist::NodeId), GateError> {
    let axb = circuit.xor2(a, b)?;
    let sum = circuit.xor2(axb, carry_in)?;
    let carry = circuit.maj3(a, b, carry_in)?;
    Ok((sum, carry))
}

/// A W-bit ripple-carry adder over `n`-channel words.
///
/// # Examples
///
/// ```
/// use magnon_circuits::adder::RippleCarryAdder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 8-bit adder over byte-wide (8-channel) words: 8 additions at once.
/// let adder = RippleCarryAdder::new(8, 8)?;
/// let sums = adder.add_many(&[100, 200, 15, 0, 255, 1, 77, 128],
///                           &[27, 55, 240, 0, 1, 255, 23, 127])?;
/// assert_eq!(sums[0], 127);
/// assert_eq!(sums[4], 256); // carry-out preserved
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RippleCarryAdder {
    circuit: Circuit,
    bit_width: usize,
    word_width: usize,
}

impl RippleCarryAdder {
    /// Builds a `bit_width`-bit adder over `word_width`-channel words.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for a zero bit width or
    /// an invalid word width.
    pub fn new(bit_width: usize, word_width: usize) -> Result<Self, GateError> {
        if bit_width == 0 || bit_width > 63 {
            return Err(GateError::InvalidParameter {
                parameter: "bit_width",
                value: bit_width as f64,
            });
        }
        let mut circuit = Circuit::new(word_width)?;
        let a_bits: Vec<_> = (0..bit_width).map(|_| circuit.input()).collect();
        let b_bits: Vec<_> = (0..bit_width).map(|_| circuit.input()).collect();
        let mut carry = circuit.constant(Word::zeros(word_width)?)?;
        for i in 0..bit_width {
            let (sum, carry_out) = full_adder(&mut circuit, a_bits[i], b_bits[i], carry)?;
            circuit.mark_output(sum)?;
            carry = carry_out;
        }
        circuit.mark_output(carry)?;
        Ok(RippleCarryAdder {
            circuit,
            bit_width,
            word_width,
        })
    }

    /// Adder bit width W.
    pub fn bit_width(&self) -> usize {
        self.bit_width
    }

    /// Channels per wire (parallel additions per evaluation).
    pub fn word_width(&self) -> usize {
        self.word_width
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Adds bit-transposed operands: `a_bits[i]` carries bit `i` of all
    /// `n` numbers. Returns `bit_width + 1` output words (sums plus
    /// carry).
    ///
    /// # Errors
    ///
    /// Propagates operand validation from the netlist.
    pub fn add_words(&self, a_bits: &[Word], b_bits: &[Word]) -> Result<Vec<Word>, GateError> {
        let inputs = self.gather_operands(a_bits, b_bits)?;
        self.circuit.evaluate(&inputs)
    }

    /// [`RippleCarryAdder::add_words`] with every gate evaluated on a
    /// physical spin-wave backend from `bank`.
    ///
    /// # Errors
    ///
    /// Operand validation plus gate/backend errors from the bank.
    pub fn add_words_with(
        &self,
        bank: &mut crate::netlist::GateBank,
        a_bits: &[Word],
        b_bits: &[Word],
    ) -> Result<Vec<Word>, GateError> {
        let inputs = self.gather_operands(a_bits, b_bits)?;
        self.circuit.evaluate_with(bank, &inputs)
    }

    fn gather_operands(&self, a_bits: &[Word], b_bits: &[Word]) -> Result<Vec<Word>, GateError> {
        if a_bits.len() != self.bit_width || b_bits.len() != self.bit_width {
            return Err(GateError::InputCountMismatch {
                expected: self.bit_width,
                actual: a_bits.len().min(b_bits.len()),
            });
        }
        Ok(a_bits.iter().chain(b_bits.iter()).copied().collect())
    }

    /// Adds `n = word_width` pairs of numbers, transposing to channel
    /// form and back internally.
    ///
    /// # Errors
    ///
    /// * [`GateError::InputCountMismatch`] when the slices do not hold
    ///   exactly `word_width` numbers.
    /// * [`GateError::InvalidParameter`] when an operand does not fit in
    ///   `bit_width` bits.
    pub fn add_many(&self, a: &[u64], b: &[u64]) -> Result<Vec<u64>, GateError> {
        let (a_bits, b_bits) = self.transpose_operands(a, b)?;
        let outputs = self.add_words(&a_bits, &b_bits)?;
        Ok(transpose_from_words(&outputs, self.word_width))
    }

    /// [`RippleCarryAdder::add_many`] with every gate evaluated on a
    /// physical spin-wave backend from `bank`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RippleCarryAdder::add_many`], plus
    /// gate/backend errors from the bank.
    pub fn add_many_with(
        &self,
        bank: &mut crate::netlist::GateBank,
        a: &[u64],
        b: &[u64],
    ) -> Result<Vec<u64>, GateError> {
        let (a_bits, b_bits) = self.transpose_operands(a, b)?;
        let outputs = self.add_words_with(bank, &a_bits, &b_bits)?;
        Ok(transpose_from_words(&outputs, self.word_width))
    }

    fn transpose_operands(
        &self,
        a: &[u64],
        b: &[u64],
    ) -> Result<(Vec<Word>, Vec<Word>), GateError> {
        if a.len() != self.word_width || b.len() != self.word_width {
            return Err(GateError::InputCountMismatch {
                expected: self.word_width,
                actual: a.len().min(b.len()),
            });
        }
        let limit = 1u64 << self.bit_width;
        for &v in a.iter().chain(b.iter()) {
            if v >= limit {
                return Err(GateError::InvalidParameter {
                    parameter: "operand",
                    value: v as f64,
                });
            }
        }
        Ok((
            transpose_to_words(a, self.bit_width, self.word_width)?,
            transpose_to_words(b, self.bit_width, self.word_width)?,
        ))
    }
}

/// Transposes `numbers[c]` (one per channel) into bit-plane words:
/// result `[i]` holds bit `i` of every number, channel-aligned.
///
/// # Errors
///
/// Returns [`GateError::InputCountMismatch`] when `numbers.len()` is not
/// `word_width`.
pub fn transpose_to_words(
    numbers: &[u64],
    bit_width: usize,
    word_width: usize,
) -> Result<Vec<Word>, GateError> {
    if numbers.len() != word_width {
        return Err(GateError::InputCountMismatch {
            expected: word_width,
            actual: numbers.len(),
        });
    }
    let mut words = Vec::with_capacity(bit_width);
    for i in 0..bit_width {
        let mut w = Word::zeros(word_width)?;
        for (c, &v) in numbers.iter().enumerate() {
            w = w.with_bit(c, (v >> i) & 1 == 1)?;
        }
        words.push(w);
    }
    Ok(words)
}

/// Inverse of [`transpose_to_words`]: collects bit-plane words back into
/// one number per channel.
pub fn transpose_from_words(words: &[Word], word_width: usize) -> Vec<u64> {
    let mut numbers = vec![0u64; word_width];
    for (i, w) in words.iter().enumerate() {
        for (c, number) in numbers.iter_mut().enumerate() {
            if w.bit(c).unwrap_or(false) {
                *number |= 1 << i;
            }
        }
    }
    numbers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_full_adder_truth_table() {
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let cin = c.input();
        let (s, cout) = full_adder(&mut c, a, b, cin).unwrap();
        c.mark_output(s).unwrap();
        c.mark_output(cout).unwrap();
        // Drive all 8 combinations, one per channel.
        let a_w = Word::from_u8(0b10101010);
        let b_w = Word::from_u8(0b11001100);
        let c_w = Word::from_u8(0b11110000);
        let out = c.evaluate(&[a_w, b_w, c_w]).unwrap();
        for i in 0..8 {
            let (ai, bi, ci) = ((i >> 1) & 1, (i >> 2) & 1, (i >> 3 != 0) as usize);
            let _ = (ai, bi, ci);
            let a_bit = a_w.bit(i).unwrap() as usize;
            let b_bit = b_w.bit(i).unwrap() as usize;
            let c_bit = c_w.bit(i).unwrap() as usize;
            let total = a_bit + b_bit + c_bit;
            assert_eq!(out[0].bit(i).unwrap(), total % 2 == 1, "sum at {i}");
            assert_eq!(out[1].bit(i).unwrap(), total >= 2, "carry at {i}");
        }
    }

    #[test]
    fn adder_matches_u64_arithmetic() {
        let adder = RippleCarryAdder::new(8, 8).unwrap();
        let a = [0u64, 255, 17, 100, 200, 1, 128, 64];
        let b = [0u64, 255, 42, 55, 56, 254, 128, 191];
        let sums = adder.add_many(&a, &b).unwrap();
        for c in 0..8 {
            assert_eq!(sums[c], a[c] + b[c], "channel {c}");
        }
    }

    #[test]
    fn adder_randomised_against_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let adder = RippleCarryAdder::new(12, 8).unwrap();
        for _ in 0..50 {
            let a: Vec<u64> = (0..8).map(|_| rng.gen_range(0..4096)).collect();
            let b: Vec<u64> = (0..8).map(|_| rng.gen_range(0..4096)).collect();
            let sums = adder.add_many(&a, &b).unwrap();
            for c in 0..8 {
                assert_eq!(sums[c], a[c] + b[c]);
            }
        }
    }

    #[test]
    fn gate_counts_match_construction() {
        // W-bit ripple-carry: W MAJ + 2W XOR.
        let adder = RippleCarryAdder::new(8, 8).unwrap();
        let counts = adder.circuit().gate_counts();
        assert_eq!(counts.maj3, 8);
        assert_eq!(counts.xor2, 16);
    }

    #[test]
    fn operand_validation() {
        let adder = RippleCarryAdder::new(4, 8).unwrap();
        assert!(adder.add_many(&[0; 7], &[0; 8]).is_err());
        // 16 does not fit in 4 bits.
        assert!(adder.add_many(&[16, 0, 0, 0, 0, 0, 0, 0], &[0; 8]).is_err());
        assert!(RippleCarryAdder::new(0, 8).is_err());
        assert!(RippleCarryAdder::new(64, 8).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let numbers = [5u64, 9, 0, 15, 3, 8, 1, 2];
        let words = transpose_to_words(&numbers, 4, 8).unwrap();
        assert_eq!(words.len(), 4);
        let back = transpose_from_words(&words, 8);
        assert_eq!(back, numbers.to_vec());
    }

    #[test]
    fn physical_adder_matches_boolean_adder() {
        use magnon_core::backend::BackendChoice;
        use magnon_physics::waveguide::Waveguide;
        let adder = RippleCarryAdder::new(6, 8).unwrap();
        let mut bank = crate::netlist::GateBank::new(
            Waveguide::paper_default().unwrap(),
            8,
            BackendChoice::Cached,
        );
        let a = [63u64, 0, 17, 42, 5, 60, 33, 1];
        let b = [1u64, 63, 8, 21, 58, 3, 30, 62];
        let physical = adder.add_many_with(&mut bank, &a, &b).unwrap();
        let boolean = adder.add_many(&a, &b).unwrap();
        assert_eq!(physical, boolean);
        for c in 0..8 {
            assert_eq!(physical[c], a[c] + b[c], "channel {c}");
        }
        // 6 full adders x 3 gates each, all batched once per node.
        assert!(bank.sets_evaluated() >= 18);
    }

    #[test]
    fn carry_out_is_preserved() {
        let adder = RippleCarryAdder::new(4, 2).unwrap();
        let sums = adder.add_many(&[15, 1], &[1, 1]).unwrap();
        assert_eq!(sums[0], 16);
        assert_eq!(sums[1], 2);
    }
}
