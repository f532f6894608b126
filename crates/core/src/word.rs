//! Fixed-width data words.
//!
//! A [`Word`] is one operand of a data-parallel gate: bit `i` of the
//! word rides on frequency channel `i`. The paper's byte-wide gate
//! processes [`Word`]s of width 8.

use crate::error::GateError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An `n`-bit data word (`1 ≤ n ≤ 64`).
///
/// # Examples
///
/// ```
/// use magnon_core::word::Word;
///
/// # fn main() -> Result<(), magnon_core::GateError> {
/// let w = Word::from_u8(0b1010_0001);
/// assert_eq!(w.width(), 8);
/// assert!(w.bit(0)?);
/// assert!(!w.bit(1)?);
/// assert!(w.bit(7)?);
/// assert_eq!(w.count_ones(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Word {
    bits: u64,
    width: usize,
}

impl Word {
    /// Creates an all-zeros word of `width` bits.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for widths outside
    /// `1..=64`.
    pub fn zeros(width: usize) -> Result<Self, GateError> {
        if width == 0 || width > 64 {
            return Err(GateError::InvalidParameter {
                parameter: "word_width",
                value: width as f64,
            });
        }
        Ok(Word { bits: 0, width })
    }

    /// Creates an all-ones word of `width` bits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Word::zeros`].
    pub fn ones(width: usize) -> Result<Self, GateError> {
        let w = Word::zeros(width)?;
        Ok(Word {
            bits: mask(width),
            ..w
        })
    }

    /// Creates a word from raw bits, truncating to `width`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Word::zeros`].
    pub fn from_bits(bits: u64, width: usize) -> Result<Self, GateError> {
        let w = Word::zeros(width)?;
        Ok(Word {
            bits: bits & mask(width),
            ..w
        })
    }

    /// A word of this word's width holding `bits`, truncated to it.
    /// Infallible: the width was validated when `self` was made.
    pub(crate) fn with_bits(self, bits: u64) -> Self {
        Word {
            bits: bits & mask(self.width),
            ..self
        }
    }

    /// An 8-bit word from a byte — the paper's byte-wide operand.
    pub fn from_u8(byte: u8) -> Self {
        Word {
            bits: byte as u64,
            width: 8,
        }
    }

    /// The word as a byte (low 8 bits).
    pub fn to_u8(self) -> u8 {
        (self.bits & 0xFF) as u8
    }

    /// The raw bits.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Width in bits.
    pub fn width(self) -> usize {
        self.width
    }

    /// Reads bit `index` (0 = least significant = first channel).
    ///
    /// # Errors
    ///
    /// Returns [`GateError::BitIndexOutOfRange`] for `index >= width`.
    pub fn bit(self, index: usize) -> Result<bool, GateError> {
        if index >= self.width {
            return Err(GateError::BitIndexOutOfRange {
                index,
                width: self.width,
            });
        }
        Ok((self.bits >> index) & 1 == 1)
    }

    /// Returns a copy with bit `index` set to `value`.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::BitIndexOutOfRange`] for `index >= width`.
    pub fn with_bit(self, index: usize, value: bool) -> Result<Self, GateError> {
        if index >= self.width {
            return Err(GateError::BitIndexOutOfRange {
                index,
                width: self.width,
            });
        }
        let bits = if value {
            self.bits | (1 << index)
        } else {
            self.bits & !(1 << index)
        };
        Ok(Word { bits, ..self })
    }

    /// Number of set bits.
    pub fn count_ones(self) -> u32 {
        self.bits.count_ones()
    }

    /// Bitwise NOT within the word width (also available through
    /// [`std::ops::Not`]).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Word {
            bits: !self.bits & mask(self.width),
            ..self
        }
    }

    /// Iterates over the bits from index 0 upward.
    pub fn iter_bits(self) -> impl Iterator<Item = bool> {
        (0..self.width).map(move |i| (self.bits >> i) & 1 == 1)
    }
}

impl std::ops::Not for Word {
    type Output = Word;

    fn not(self) -> Word {
        Word::not(self)
    }
}

impl fmt::Display for Word {
    /// Formats the word as binary, most significant bit first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width).rev() {
            write!(f, "{}", (self.bits >> i) & 1)?;
        }
        Ok(())
    }
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_validation() {
        assert!(Word::zeros(0).is_err());
        assert!(Word::zeros(65).is_err());
        assert!(Word::zeros(1).is_ok());
        assert!(Word::zeros(64).is_ok());
    }

    #[test]
    fn construction_and_truncation() {
        let w = Word::from_bits(0b1_1111, 4).unwrap();
        assert_eq!(w.bits(), 0b1111);
        assert_eq!(Word::ones(3).unwrap().bits(), 0b111);
        assert_eq!(Word::ones(64).unwrap().bits(), u64::MAX);
    }

    #[test]
    fn byte_roundtrip() {
        for b in [0u8, 1, 0x55, 0xAA, 0xFF] {
            assert_eq!(Word::from_u8(b).to_u8(), b);
            assert_eq!(Word::from_u8(b).width(), 8);
        }
    }

    #[test]
    fn bit_access() {
        let w = Word::from_u8(0b0100_0010);
        assert!(!w.bit(0).unwrap());
        assert!(w.bit(1).unwrap());
        assert!(w.bit(6).unwrap());
        assert!(w.bit(8).is_err());
    }

    #[test]
    fn with_bit_sets_and_clears() {
        let w = Word::zeros(8).unwrap();
        let w = w.with_bit(3, true).unwrap();
        assert_eq!(w.bits(), 0b1000);
        let w = w.with_bit(3, false).unwrap();
        assert_eq!(w.bits(), 0);
        assert!(w.with_bit(8, true).is_err());
    }

    #[test]
    fn not_respects_width() {
        let w = Word::from_bits(0b0101, 4).unwrap();
        assert_eq!(w.not().bits(), 0b1010);
        assert_eq!(w.not().not(), w);
        // The operator form goes through the same masked complement.
        assert_eq!(!w, w.not());
    }

    #[test]
    fn count_and_iter() {
        let w = Word::from_u8(0b1011_0001);
        assert_eq!(w.count_ones(), 4);
        let bits: Vec<bool> = w.iter_bits().collect();
        assert_eq!(bits.len(), 8);
        assert!(bits[0] && !bits[1] && bits[4] && bits[7]);
    }

    #[test]
    fn display_msb_first() {
        assert_eq!(Word::from_u8(0b1010_0001).to_string(), "10100001");
        assert_eq!(Word::from_bits(0b101, 3).unwrap().to_string(), "101");
    }

    #[test]
    fn sixty_four_bit_words() {
        let w = Word::from_bits(u64::MAX, 64).unwrap();
        assert_eq!(w.count_ones(), 64);
        assert!(w.bit(63).unwrap());
        assert_eq!(w.not().count_ones(), 0);
    }
}
