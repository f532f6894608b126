//! A small data-parallel arithmetic-logic unit.
//!
//! Demonstrates the paradigm at its most CMOS-like: one ALU built from
//! data-parallel MAJ/XOR gates executes the same operation on `n`
//! independent operand pairs per evaluation. Subtraction exploits the
//! paper's free inversion (§III: complemented outputs via detector
//! placement): `a − b = a + !b + 1` costs no extra gates beyond the
//! adder, only inverted readouts on the `b` operand and a constant-one
//! carry-in.

use crate::adder::{full_adder, transpose_from_words, transpose_to_words};
use crate::netlist::{Circuit, NodeId};
use magnon_core::word::Word;
use magnon_core::GateError;

/// The operations the ALU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `a + b` (carry-out preserved in the extra output bit).
    Add,
    /// `a − b` in two's complement (result truncated to the bit width;
    /// the extra output bit is the borrow-free flag).
    Sub,
    /// Bitwise AND via `MAJ(a, b, 0)`.
    And,
    /// Bitwise OR via `MAJ(a, b, 1)`.
    Or,
    /// Bitwise XOR.
    Xor,
}

/// A fixed-width, word-parallel ALU.
///
/// # Examples
///
/// ```
/// use magnon_circuits::alu::{Alu, AluOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let alu = Alu::new(8, 8)?;
/// let a = [200u64, 15, 255, 0, 77, 128, 33, 1];
/// let b = [55u64, 15, 1, 0, 12, 127, 3, 254];
/// let sums = alu.execute(AluOp::Add, &a, &b)?;
/// assert_eq!(sums[0], 255);
/// let diffs = alu.execute(AluOp::Sub, &a, &b)?;
/// assert_eq!(diffs[0], 145);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Alu {
    add_circuit: Circuit,
    sub_circuit: Circuit,
    logic_circuit: Circuit,
    bit_width: usize,
    word_width: usize,
}

fn build_adder_circuit(
    bit_width: usize,
    word_width: usize,
    invert_b: bool,
) -> Result<Circuit, GateError> {
    let mut circuit = Circuit::new(word_width)?;
    let a_bits: Vec<NodeId> = (0..bit_width).map(|_| circuit.input()).collect();
    let b_raw: Vec<NodeId> = (0..bit_width).map(|_| circuit.input()).collect();
    let b_bits: Vec<NodeId> = if invert_b {
        b_raw
            .iter()
            .map(|&b| circuit.not(b))
            .collect::<Result<_, _>>()?
    } else {
        b_raw
    };
    let mut carry = if invert_b {
        circuit.constant(Word::ones(word_width)?)? // +1 for two's complement
    } else {
        circuit.constant(Word::zeros(word_width)?)?
    };
    for i in 0..bit_width {
        let (sum, carry_out) = full_adder(&mut circuit, a_bits[i], b_bits[i], carry)?;
        circuit.mark_output(sum)?;
        carry = carry_out;
    }
    circuit.mark_output(carry)?;
    Ok(circuit)
}

fn build_logic_circuit(bit_width: usize, word_width: usize) -> Result<Circuit, GateError> {
    // One circuit computing AND, OR, XOR per bit; outputs grouped by op.
    let mut circuit = Circuit::new(word_width)?;
    let a_bits: Vec<NodeId> = (0..bit_width).map(|_| circuit.input()).collect();
    let b_bits: Vec<NodeId> = (0..bit_width).map(|_| circuit.input()).collect();
    let mut ands = Vec::with_capacity(bit_width);
    let mut ors = Vec::with_capacity(bit_width);
    let mut xors = Vec::with_capacity(bit_width);
    for i in 0..bit_width {
        ands.push(circuit.and2(a_bits[i], b_bits[i])?);
        ors.push(circuit.or2(a_bits[i], b_bits[i])?);
        xors.push(circuit.xor2(a_bits[i], b_bits[i])?);
    }
    for id in ands.into_iter().chain(ors).chain(xors) {
        circuit.mark_output(id)?;
    }
    Ok(circuit)
}

impl Alu {
    /// Builds a `bit_width`-bit ALU over `word_width`-channel words.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for unsupported widths.
    pub fn new(bit_width: usize, word_width: usize) -> Result<Self, GateError> {
        if bit_width == 0 || bit_width > 63 {
            return Err(GateError::InvalidParameter {
                parameter: "bit_width",
                value: bit_width as f64,
            });
        }
        Ok(Alu {
            add_circuit: build_adder_circuit(bit_width, word_width, false)?,
            sub_circuit: build_adder_circuit(bit_width, word_width, true)?,
            logic_circuit: build_logic_circuit(bit_width, word_width)?,
            bit_width,
            word_width,
        })
    }

    /// ALU bit width.
    pub fn bit_width(&self) -> usize {
        self.bit_width
    }

    /// Parallel operand pairs per evaluation.
    pub fn word_width(&self) -> usize {
        self.word_width
    }

    /// Total gate counts across the three internal circuits.
    pub fn gate_counts(&self) -> crate::netlist::GateCounts {
        let a = self.add_circuit.gate_counts();
        let s = self.sub_circuit.gate_counts();
        let l = self.logic_circuit.gate_counts();
        crate::netlist::GateCounts {
            maj3: a.maj3 + s.maj3 + l.maj3,
            xor2: a.xor2 + s.xor2 + l.xor2,
            not: a.not + s.not + l.not,
        }
    }

    fn check_operands(&self, a: &[u64], b: &[u64]) -> Result<(), GateError> {
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
        Ok(())
    }

    /// Executes `op` on `word_width` operand pairs at once.
    ///
    /// For `Add` the result may use `bit_width + 1` bits (carry-out);
    /// `Sub` truncates to `bit_width` bits (two's complement wrap).
    ///
    /// # Errors
    ///
    /// * [`GateError::InputCountMismatch`] for wrong operand counts.
    /// * [`GateError::InvalidParameter`] for out-of-range operands.
    pub fn execute(&self, op: AluOp, a: &[u64], b: &[u64]) -> Result<Vec<u64>, GateError> {
        self.execute_inner(op, a, b, None)
    }

    /// [`Alu::execute`] with every gate evaluated on a physical
    /// spin-wave backend from `bank`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Alu::execute`], plus gate/backend errors
    /// from the bank.
    pub fn execute_with(
        &self,
        bank: &mut crate::netlist::GateBank,
        op: AluOp,
        a: &[u64],
        b: &[u64],
    ) -> Result<Vec<u64>, GateError> {
        self.execute_inner(op, a, b, Some(bank))
    }

    fn execute_inner(
        &self,
        op: AluOp,
        a: &[u64],
        b: &[u64],
        mut bank: Option<&mut crate::netlist::GateBank>,
    ) -> Result<Vec<u64>, GateError> {
        self.check_operands(a, b)?;
        let a_words = transpose_to_words(a, self.bit_width, self.word_width)?;
        let b_words = transpose_to_words(b, self.bit_width, self.word_width)?;
        let inputs: Vec<Word> = a_words.iter().chain(b_words.iter()).copied().collect();
        let mut run = |circuit: &Circuit| -> Result<Vec<Word>, GateError> {
            match bank.as_deref_mut() {
                Some(bank) => circuit.evaluate_with(bank, &inputs),
                None => circuit.evaluate(&inputs),
            }
        };
        let mask = (1u64 << self.bit_width) - 1;
        match op {
            AluOp::Add => {
                let out = run(&self.add_circuit)?;
                Ok(transpose_from_words(&out, self.word_width))
            }
            AluOp::Sub => {
                let out = run(&self.sub_circuit)?;
                // Drop the final carry (borrow-free flag), truncate.
                let sums = transpose_from_words(&out[..self.bit_width], self.word_width);
                Ok(sums.into_iter().map(|v| v & mask).collect())
            }
            AluOp::And | AluOp::Or | AluOp::Xor => {
                let out = run(&self.logic_circuit)?;
                let offset = match op {
                    AluOp::And => 0,
                    AluOp::Or => self.bit_width,
                    _ => 2 * self.bit_width,
                };
                Ok(transpose_from_words(
                    &out[offset..offset + self.bit_width],
                    self.word_width,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn alu() -> Alu {
        Alu::new(8, 8).unwrap()
    }

    #[test]
    fn add_matches_reference() {
        let a = [1u64, 2, 3, 250, 255, 0, 128, 127];
        let b = [1u64, 3, 5, 10, 255, 0, 128, 129];
        let out = alu().execute(AluOp::Add, &a, &b).unwrap();
        for c in 0..8 {
            assert_eq!(out[c], a[c] + b[c]);
        }
    }

    #[test]
    fn sub_matches_wrapping_reference() {
        let a = [10u64, 0, 255, 100, 1, 200, 50, 128];
        let b = [3u64, 1, 255, 150, 2, 100, 50, 127];
        let out = alu().execute(AluOp::Sub, &a, &b).unwrap();
        for c in 0..8 {
            assert_eq!(out[c], (a[c].wrapping_sub(b[c])) & 0xFF, "channel {c}");
        }
    }

    #[test]
    fn logic_ops_match_reference() {
        let a = [0xF0u64, 0x0F, 0xAA, 0x55, 0xFF, 0x00, 0x3C, 0xC3];
        let b = [0xFFu64, 0xFF, 0x55, 0x55, 0x0F, 0x00, 0xC3, 0xC3];
        let and = alu().execute(AluOp::And, &a, &b).unwrap();
        let or = alu().execute(AluOp::Or, &a, &b).unwrap();
        let xor = alu().execute(AluOp::Xor, &a, &b).unwrap();
        for c in 0..8 {
            assert_eq!(and[c], a[c] & b[c], "AND channel {c}");
            assert_eq!(or[c], a[c] | b[c], "OR channel {c}");
            assert_eq!(xor[c], a[c] ^ b[c], "XOR channel {c}");
        }
    }

    #[test]
    fn randomised_against_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(314);
        let alu = Alu::new(12, 8).unwrap();
        for _ in 0..25 {
            let a: Vec<u64> = (0..8).map(|_| rng.gen_range(0..4096)).collect();
            let b: Vec<u64> = (0..8).map(|_| rng.gen_range(0..4096)).collect();
            let add = alu.execute(AluOp::Add, &a, &b).unwrap();
            let sub = alu.execute(AluOp::Sub, &a, &b).unwrap();
            for c in 0..8 {
                assert_eq!(add[c], a[c] + b[c]);
                assert_eq!(sub[c], a[c].wrapping_sub(b[c]) & 0xFFF);
            }
        }
    }

    #[test]
    fn inversions_are_free() {
        // Subtraction adds only NOT nodes (inverted readout) over the
        // adder: MAJ/XOR counts identical between add and sub circuits.
        let alu = alu();
        let add_counts = alu.add_circuit.gate_counts();
        let sub_counts = alu.sub_circuit.gate_counts();
        assert_eq!(add_counts.maj3, sub_counts.maj3);
        assert_eq!(add_counts.xor2, sub_counts.xor2);
        assert_eq!(add_counts.not, 0);
        assert_eq!(sub_counts.not, 8);
        assert_eq!(add_counts.transducers(), sub_counts.transducers());
    }

    #[test]
    fn physical_alu_matches_boolean_alu() {
        use magnon_core::backend::BackendChoice;
        use magnon_physics::waveguide::Waveguide;
        let alu = Alu::new(4, 8).unwrap();
        let mut bank = crate::netlist::GateBank::new(
            Waveguide::paper_default().unwrap(),
            8,
            BackendChoice::Cached,
        );
        let a = [7u64, 0, 15, 4, 9, 12, 3, 1];
        let b = [1u64, 15, 15, 11, 6, 2, 3, 14];
        for op in [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor] {
            let physical = alu.execute_with(&mut bank, op, &a, &b).unwrap();
            let boolean = alu.execute(op, &a, &b).unwrap();
            assert_eq!(physical, boolean, "{op:?}");
        }
    }

    #[test]
    fn operand_validation() {
        let alu = alu();
        assert!(alu.execute(AluOp::Add, &[0; 7], &[0; 8]).is_err());
        assert!(alu
            .execute(AluOp::Add, &[256, 0, 0, 0, 0, 0, 0, 0], &[0; 8])
            .is_err());
        assert!(Alu::new(0, 8).is_err());
        assert!(Alu::new(64, 8).is_err());
    }

    #[test]
    fn narrow_and_wide_words() {
        let alu2 = Alu::new(4, 2).unwrap();
        let out = alu2.execute(AluOp::Add, &[7, 8], &[8, 7]).unwrap();
        assert_eq!(out, vec![15, 15]);
        let alu16 = Alu::new(4, 16).unwrap();
        let a = vec![5u64; 16];
        let b = vec![9u64; 16];
        assert!(alu16
            .execute(AluOp::Add, &a, &b)
            .unwrap()
            .iter()
            .all(|&v| v == 14));
    }
}
