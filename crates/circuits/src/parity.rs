//! XOR reduction trees (parity generators).

use crate::netlist::{Circuit, NodeId};
use magnon_core::GateError;

/// Builds a balanced XOR tree over `leaves` inside `circuit` and
/// returns the root node.
///
/// # Errors
///
/// Returns [`GateError::InvalidParameter`] for an empty leaf list, and
/// propagates netlist errors.
pub fn xor_tree(circuit: &mut Circuit, leaves: &[NodeId]) -> Result<NodeId, GateError> {
    if leaves.is_empty() {
        return Err(GateError::InvalidParameter {
            parameter: "leaves",
            value: 0.0,
        });
    }
    let mut layer: Vec<NodeId> = leaves.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(circuit.xor2(pair[0], pair[1])?);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    Ok(layer[0])
}

/// A `k`-input parity generator over `n`-channel words.
///
/// # Examples
///
/// ```
/// use magnon_circuits::parity::ParityTree;
/// use magnon_core::word::Word;
///
/// # fn main() -> Result<(), magnon_core::GateError> {
/// let parity = ParityTree::new(4, 8)?;
/// let out = parity.evaluate(&[
///     Word::from_u8(0b1111_0000),
///     Word::from_u8(0b1100_1100),
///     Word::from_u8(0b1010_1010),
///     Word::from_u8(0b0000_0000),
/// ])?;
/// assert_eq!(out.to_u8(), 0b1001_0110);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParityTree {
    circuit: Circuit,
    leaf_count: usize,
}

impl ParityTree {
    /// Builds a parity tree with `leaf_count` inputs over
    /// `word_width`-channel words.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for zero leaves.
    pub fn new(leaf_count: usize, word_width: usize) -> Result<Self, GateError> {
        if leaf_count == 0 {
            return Err(GateError::InvalidParameter {
                parameter: "leaf_count",
                value: 0.0,
            });
        }
        let mut circuit = Circuit::new(word_width)?;
        let leaves: Vec<NodeId> = (0..leaf_count).map(|_| circuit.input()).collect();
        let root = xor_tree(&mut circuit, &leaves)?;
        circuit.mark_output(root)?;
        Ok(ParityTree {
            circuit,
            leaf_count,
        })
    }

    /// Number of inputs.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Computes the channel-wise parity of the input words.
    ///
    /// # Errors
    ///
    /// Propagates operand validation from the netlist.
    pub fn evaluate(
        &self,
        inputs: &[magnon_core::word::Word],
    ) -> Result<magnon_core::word::Word, GateError> {
        Ok(self.circuit.evaluate(inputs)?[0])
    }

    /// [`ParityTree::evaluate`] with every XOR evaluated on a physical
    /// spin-wave backend from `bank`.
    ///
    /// # Errors
    ///
    /// Operand validation plus gate/backend errors from the bank.
    pub fn evaluate_with(
        &self,
        bank: &mut crate::netlist::GateBank,
        inputs: &[magnon_core::word::Word],
    ) -> Result<magnon_core::word::Word, GateError> {
        Ok(self.circuit.evaluate_with(bank, inputs)?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnon_core::word::Word;

    #[test]
    fn parity_of_one_is_identity() {
        let p = ParityTree::new(1, 8).unwrap();
        let w = Word::from_u8(0xA5);
        assert_eq!(p.evaluate(&[w]).unwrap(), w);
        assert_eq!(p.circuit().gate_counts().xor2, 0);
    }

    #[test]
    fn parity_matches_xor_fold() {
        let p = ParityTree::new(5, 8).unwrap();
        let ws = [0x11u8, 0x22, 0x44, 0x88, 0xFF];
        let words: Vec<Word> = ws.iter().map(|&b| Word::from_u8(b)).collect();
        let expected = ws.iter().fold(0u8, |acc, &b| acc ^ b);
        assert_eq!(p.evaluate(&words).unwrap().to_u8(), expected);
    }

    #[test]
    fn tree_gate_count_is_k_minus_one() {
        for k in [2, 3, 4, 7, 8, 16] {
            let p = ParityTree::new(k, 4).unwrap();
            assert_eq!(p.circuit().gate_counts().xor2, k - 1, "k = {k}");
        }
    }

    #[test]
    fn physical_parity_matches_boolean_parity() {
        use magnon_core::backend::BackendChoice;
        use magnon_physics::waveguide::Waveguide;
        let p = ParityTree::new(4, 8).unwrap();
        let mut bank = crate::netlist::GateBank::new(
            Waveguide::paper_default().unwrap(),
            8,
            BackendChoice::Analytic,
        );
        let ws = [0xF0u8, 0xCC, 0xAA, 0x01];
        let words: Vec<Word> = ws.iter().map(|&b| Word::from_u8(b)).collect();
        let physical = p.evaluate_with(&mut bank, &words).unwrap();
        assert_eq!(physical, p.evaluate(&words).unwrap());
        assert_eq!(physical.to_u8(), ws.iter().fold(0u8, |acc, &b| acc ^ b));
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        // A balanced 8-leaf tree evaluates identically to a fold.
        let p = ParityTree::new(8, 8).unwrap();
        let words: Vec<Word> = (0..8).map(|i| Word::from_u8(1 << i)).collect();
        assert_eq!(p.evaluate(&words).unwrap().to_u8(), 0xFF);
    }

    #[test]
    fn validation() {
        assert!(ParityTree::new(0, 8).is_err());
        let p = ParityTree::new(3, 8).unwrap();
        assert!(p.evaluate(&[Word::from_u8(0)]).is_err());
    }
}
