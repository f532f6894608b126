//! Word-level netlists of data-parallel gates.
//!
//! Circuits evaluate on two levels:
//!
//! * [`Circuit::evaluate`] — the boolean reference semantics (bitwise
//!   MAJ/XOR), used as the specification;
//! * [`Circuit::evaluate_with`] / [`Circuit::evaluate_batch_with`] —
//!   every MAJ/XOR node routed through a *physical* data-parallel
//!   spin-wave gate via a [`GateBank`]. The bank holds one
//!   [`GateSession`] per gate shape, so switching a whole circuit from
//!   analytic to cached to micromagnetic evaluation is the one-line
//!   change of its [`BackendChoice`].
//!
//! To serve a circuit through the sharded scheduler instead, compile
//! it (`magnon-compiler`) and run the plan on the `magnon-serve`
//! crate's `CircuitExecutor`, which submits each gate node as a
//! scheduler request the moment its operands complete.

use magnon_core::backend::{BackendChoice, GateSession, OperandSet};
use magnon_core::gate::ParallelGateBuilder;
use magnon_core::truth::LogicFunction;
use magnon_core::word::Word;
use magnon_core::GateError;
use magnon_physics::waveguide::Waveguide;

/// The two physical gate shapes a netlist lowers to: 3-input majority
/// and 2-input XOR (inversions are free detector placements, constants
/// and inputs pass through).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateShape {
    /// 3-input majority.
    Maj3,
    /// 2-input XOR.
    Xor2,
}

impl GateShape {
    /// The logic function of the shape.
    pub fn function(self) -> LogicFunction {
        match self {
            GateShape::Maj3 => LogicFunction::Majority,
            GateShape::Xor2 => LogicFunction::Xor,
        }
    }

    /// Operand count `m` of the shape.
    pub fn input_count(self) -> usize {
        match self {
            GateShape::Maj3 => 3,
            GateShape::Xor2 => 2,
        }
    }
}

/// Channel spacing that keeps `width` channels inside the paper's
/// 10–80 GHz style window (10 GHz spacing up to 8 channels, then packed
/// tighter).
pub fn packed_frequency_step(width: usize) -> f64 {
    let ghz = 1.0e9;
    match width {
        0..=8 => 10.0 * ghz,
        9..=16 => 5.0 * ghz,
        _ => 2.5 * ghz,
    }
}

/// Base frequency of FDM lane `lane` for `width`-channel gates built on
/// the [`packed_frequency_step`] grid.
///
/// Lane 0 keeps the paper's 10 GHz base; each further lane shifts up by
/// the full occupied band plus one extra channel step, so adjacent
/// lanes stay disjoint with a two-step guard band between the last
/// channel of one lane and the first channel of the next — the
/// frequency-division multiplexing layout of the companion paper
/// (arXiv:2008.12220) that lets several circuits' gates share one
/// physical waveguide.
pub fn fdm_lane_base(lane: u16, width: usize) -> f64 {
    10.0e9 + f64::from(lane) * (width as f64 + 1.0) * packed_frequency_step(width)
}

/// Guard band the [`fdm_lane_base`] grid guarantees between the last
/// occupied channel of one lane and the first channel of the next.
///
/// Lane `l` occupies `base(l) .. base(l) + (width-1)·step` and lane
/// `l+1` starts at `base(l) + (width+1)·step`, so exactly two channel
/// steps of clear spectrum separate consecutive lanes — derived from
/// [`packed_frequency_step`], never from a fixed 10 GHz/100 GHz
/// constant, so the guarantee holds at every width the packed grid
/// supports. Placers packing gates onto FDM lanes may rely on this
/// spacing (and should still verify built [`ChannelPlan`]s with
/// [`ChannelPlan::overlaps`] / [`ChannelPlan::guard_band_to`]).
///
/// [`ChannelPlan`]: magnon_core::channel::ChannelPlan
/// [`ChannelPlan::overlaps`]: magnon_core::channel::ChannelPlan::overlaps
/// [`ChannelPlan::guard_band_to`]:
///     magnon_core::channel::ChannelPlan::guard_band_to
pub fn fdm_lane_guard_band(width: usize) -> f64 {
    2.0 * packed_frequency_step(width)
}

/// Handle to a node in a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Position of the node in its circuit's topological node order
    /// (nodes only reference strictly smaller indices).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A circuit node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    /// External input with its operand index.
    Input(usize),
    /// A constant word.
    Constant(Word),
    /// 3-input majority (one data-parallel MAJ gate).
    Maj3(NodeId, NodeId, NodeId),
    /// 2-input XOR (one data-parallel XOR gate).
    Xor2(NodeId, NodeId),
    /// Complement — free in hardware via inverted readout (paper §III),
    /// so it is not counted as a gate.
    Not(NodeId),
}

/// Public view of one circuit node — the IR surface compilers walk
/// (via [`Circuit::node_kind`] / [`Circuit::node_kinds`]) to levelize,
/// place and schedule a netlist without re-deriving its structure from
/// evaluation traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// External input with its operand index.
    Input {
        /// Position in the evaluation operand list.
        index: usize,
    },
    /// A constant word.
    Constant(Word),
    /// 3-input majority gate over three earlier nodes.
    Maj3(NodeId, NodeId, NodeId),
    /// 2-input XOR gate over two earlier nodes.
    Xor2(NodeId, NodeId),
    /// Free inversion (inverted readout) of an earlier node.
    Not(NodeId),
}

impl NodeKind {
    /// The physical gate shape this node lowers to, or `None` for the
    /// free node kinds (inputs, constants, inverted readouts).
    pub fn gate_shape(&self) -> Option<GateShape> {
        match self {
            NodeKind::Maj3(..) => Some(GateShape::Maj3),
            NodeKind::Xor2(..) => Some(GateShape::Xor2),
            _ => None,
        }
    }

    /// The earlier nodes this node reads, in operand order (duplicates
    /// preserved — `MAJ(a, a, b)` lists `a` twice).
    pub fn operands(&self) -> Vec<NodeId> {
        match *self {
            NodeKind::Input { .. } | NodeKind::Constant(_) => Vec::new(),
            NodeKind::Maj3(a, b, c) => vec![a, b, c],
            NodeKind::Xor2(a, b) => vec![a, b],
            NodeKind::Not(a) => vec![a],
        }
    }
}

/// Gate-type counts of a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounts {
    /// Number of 3-input majority gates.
    pub maj3: usize,
    /// Number of 2-input XOR gates.
    pub xor2: usize,
    /// Number of inversions (free: realised by detector placement).
    pub not: usize,
}

impl GateCounts {
    /// Total transducer count: `4` per MAJ-3 (3 sources + 1 detector),
    /// `3` per XOR-2; inversions reuse their gate's detector.
    pub fn transducers(&self) -> usize {
        4 * self.maj3 + 3 * self.xor2
    }
}

/// Physical gate sessions backing a circuit's node types.
///
/// Each distinct gate shape (3-input majority, 2-input XOR) is built
/// lazily as one data-parallel [`magnon_core::gate::ParallelGate`] and
/// wrapped in a [`GateSession`] on the bank's backend. Inversions stay
/// free (inverted readout), constants and inputs pass through.
///
/// # Examples
///
/// ```
/// use magnon_circuits::netlist::{Circuit, GateBank};
/// use magnon_core::backend::BackendChoice;
/// use magnon_core::word::Word;
/// use magnon_physics::waveguide::Waveguide;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Circuit::new(8)?;
/// let a = c.input();
/// let b = c.input();
/// let x = c.xor2(a, b)?;
/// c.mark_output(x)?;
///
/// // The one line that selects the evaluation engine:
/// let mut bank = GateBank::new(Waveguide::paper_default()?, 8, BackendChoice::Cached);
/// let out = c.evaluate_with(&mut bank, &[Word::from_u8(0xF0), Word::from_u8(0xAA)])?;
/// assert_eq!(out[0].to_u8(), 0x5A);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GateBank {
    waveguide: Waveguide,
    width: usize,
    choice: BackendChoice,
    maj3: Option<GateSession>,
    xor2: Option<GateSession>,
}

impl GateBank {
    /// Creates a bank of `width`-channel gates on `waveguide`,
    /// evaluating through `choice`'s backend.
    ///
    /// Gates use the paper's default frequency plan (10 GHz base) with
    /// the channel spacing packed automatically for widths beyond 8;
    /// build [`GateBank::with_sessions`] for full control.
    pub fn new(waveguide: Waveguide, width: usize, choice: BackendChoice) -> Self {
        GateBank {
            waveguide,
            width,
            choice,
            maj3: None,
            xor2: None,
        }
    }

    /// Assembles a bank from pre-built sessions (custom frequency plans,
    /// layouts or backends). Either session may be omitted if the
    /// circuit never uses that gate shape; a slot the circuit *does*
    /// reach but was not provided is built lazily on `choice`'s
    /// backend, like [`GateBank::new`] would.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::WordWidthMismatch`] when the sessions'
    /// word widths disagree, and [`GateError::UnsupportedFunction`]
    /// when a session's gate computes the wrong function or operand
    /// count for its slot.
    pub fn with_sessions(
        waveguide: Waveguide,
        choice: BackendChoice,
        maj3: Option<GateSession>,
        xor2: Option<GateSession>,
    ) -> Result<Self, GateError> {
        let widths: Vec<usize> = maj3
            .iter()
            .chain(xor2.iter())
            .map(|s| s.gate().word_width())
            .collect();
        let Some(&width) = widths.first() else {
            return Err(GateError::UnsupportedFunction {
                reason: "a gate bank needs at least one session",
            });
        };
        if widths.iter().any(|&w| w != width) {
            return Err(GateError::WordWidthMismatch {
                expected: width,
                actual: widths[1],
            });
        }
        if let Some(s) = &maj3 {
            if s.gate().function() != LogicFunction::Majority || s.gate().input_count() != 3 {
                return Err(GateError::UnsupportedFunction {
                    reason: "maj3 slot requires a 3-input majority gate",
                });
            }
        }
        if let Some(s) = &xor2 {
            if s.gate().function() != LogicFunction::Xor || s.gate().input_count() != 2 {
                return Err(GateError::UnsupportedFunction {
                    reason: "xor2 slot requires a 2-input XOR gate",
                });
            }
        }
        Ok(GateBank {
            waveguide,
            width,
            choice,
            maj3,
            xor2,
        })
    }

    /// Word width of every gate in the bank.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The backend lazily-built gates will use.
    pub fn backend_choice(&self) -> BackendChoice {
        self.choice
    }

    /// Total operand sets evaluated across both sessions.
    pub fn sets_evaluated(&self) -> u64 {
        self.maj3
            .iter()
            .chain(self.xor2.iter())
            .map(GateSession::sets_evaluated)
            .sum()
    }

    fn maj3_session(&mut self) -> Result<&mut GateSession, GateError> {
        if self.maj3.is_none() {
            let gate = ParallelGateBuilder::new(self.waveguide)
                .channels(self.width)
                .inputs(3)
                .function(LogicFunction::Majority)
                .frequency_step(packed_frequency_step(self.width))
                .build()?;
            self.maj3 = Some(GateSession::new(gate, self.choice)?);
        }
        Ok(self.maj3.as_mut().expect("just built"))
    }

    fn xor2_session(&mut self) -> Result<&mut GateSession, GateError> {
        if self.xor2.is_none() {
            let gate = ParallelGateBuilder::new(self.waveguide)
                .channels(self.width)
                .inputs(2)
                .function(LogicFunction::Xor)
                .frequency_step(packed_frequency_step(self.width))
                .build()?;
            self.xor2 = Some(GateSession::new(gate, self.choice)?);
        }
        Ok(self.xor2.as_mut().expect("just built"))
    }

    /// Evaluates `batch` on the session of `shape` through its
    /// logic-only path, preserving order.
    fn dispatch(&mut self, shape: GateShape, batch: &[OperandSet]) -> Result<Vec<Word>, GateError> {
        let session = match shape {
            GateShape::Maj3 => self.maj3_session()?,
            GateShape::Xor2 => self.xor2_session()?,
        };
        session.evaluate_batch_logic(batch)
    }
}

/// A feed-forward circuit over `n`-bit words.
///
/// Nodes may only reference earlier nodes, so evaluation is a single
/// forward pass.
///
/// # Examples
///
/// ```
/// use magnon_circuits::netlist::Circuit;
/// use magnon_core::word::Word;
///
/// # fn main() -> Result<(), magnon_core::GateError> {
/// let mut c = Circuit::new(8)?;
/// let a = c.input();
/// let b = c.input();
/// let x = c.xor2(a, b)?;
/// c.mark_output(x)?;
/// let out = c.evaluate(&[Word::from_u8(0xF0), Word::from_u8(0xAA)])?;
/// assert_eq!(out[0].to_u8(), 0x5A);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    width: usize,
    nodes: Vec<Node>,
    input_count: usize,
    outputs: Vec<NodeId>,
}

impl Circuit {
    /// Creates an empty circuit over words of `width` bits.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for widths outside
    /// `1..=64`.
    pub fn new(width: usize) -> Result<Self, GateError> {
        Word::zeros(width)?; // reuse word-width validation
        Ok(Circuit {
            width,
            nodes: Vec::new(),
            input_count: 0,
            outputs: Vec::new(),
        })
    }

    /// Word width carried by every wire.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of external inputs.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The output nodes in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Total node count (inputs, constants, gates and inversions).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The kind of node `id`, or `None` for a foreign handle.
    pub fn node_kind(&self, id: NodeId) -> Option<NodeKind> {
        self.nodes.get(id.0).map(|node| match *node {
            Node::Input(index) => NodeKind::Input { index },
            Node::Constant(w) => NodeKind::Constant(w),
            Node::Maj3(a, b, c) => NodeKind::Maj3(a, b, c),
            Node::Xor2(a, b) => NodeKind::Xor2(a, b),
            Node::Not(a) => NodeKind::Not(a),
        })
    }

    /// Every node's kind in topological order (a node's operands always
    /// precede it) — the walk order compiler passes levelize over.
    pub fn node_kinds(&self) -> Vec<NodeKind> {
        self.node_ids()
            .map(|id| self.node_kind(id).expect("id enumerated from this circuit"))
            .collect()
    }

    /// Every node id in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Adds an external input and returns its node.
    pub fn input(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::Input(self.input_count));
        self.input_count += 1;
        id
    }

    /// Adds a constant word.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::WordWidthMismatch`] when the constant's
    /// width differs from the circuit's.
    pub fn constant(&mut self, word: Word) -> Result<NodeId, GateError> {
        if word.width() != self.width {
            return Err(GateError::WordWidthMismatch {
                expected: self.width,
                actual: word.width(),
            });
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::Constant(word));
        Ok(id)
    }

    fn check(&self, id: NodeId) -> Result<(), GateError> {
        if id.0 >= self.nodes.len() {
            return Err(GateError::InvalidParameter {
                parameter: "node_id",
                value: id.0 as f64,
            });
        }
        Ok(())
    }

    /// Adds a 3-input majority gate.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for dangling operands.
    pub fn maj3(&mut self, a: NodeId, b: NodeId, c: NodeId) -> Result<NodeId, GateError> {
        self.check(a)?;
        self.check(b)?;
        self.check(c)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::Maj3(a, b, c));
        Ok(id)
    }

    /// Adds a 2-input XOR gate.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for dangling operands.
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GateError> {
        self.check(a)?;
        self.check(b)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::Xor2(a, b));
        Ok(id)
    }

    /// Adds an inversion (free: inverted readout).
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for a dangling operand.
    pub fn not(&mut self, a: NodeId) -> Result<NodeId, GateError> {
        self.check(a)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::Not(a));
        Ok(id)
    }

    /// AND via majority with a constant-0 input: `AND(a,b) = MAJ(a,b,0)`
    /// — the standard majority-logic construction (paper §I cites
    /// (N)AND/(N)OR gates built this way).
    ///
    /// # Errors
    ///
    /// Propagates operand validation.
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GateError> {
        let zero = self.constant(Word::zeros(self.width)?)?;
        self.maj3(a, b, zero)
    }

    /// OR via majority with a constant-1 input: `OR(a,b) = MAJ(a,b,1)`.
    ///
    /// # Errors
    ///
    /// Propagates operand validation.
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GateError> {
        let one = self.constant(Word::ones(self.width)?)?;
        self.maj3(a, b, one)
    }

    /// Marks a node as a circuit output.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::InvalidParameter`] for a dangling node.
    pub fn mark_output(&mut self, id: NodeId) -> Result<(), GateError> {
        self.check(id)?;
        self.outputs.push(id);
        Ok(())
    }

    /// Counts gates by type.
    pub fn gate_counts(&self) -> GateCounts {
        let mut counts = GateCounts::default();
        for node in &self.nodes {
            match node {
                Node::Maj3(..) => counts.maj3 += 1,
                Node::Xor2(..) => counts.xor2 += 1,
                Node::Not(..) => counts.not += 1,
                _ => {}
            }
        }
        counts
    }

    fn check_inputs(&self, inputs: &[Word]) -> Result<(), GateError> {
        if inputs.len() != self.input_count {
            return Err(GateError::InputCountMismatch {
                expected: self.input_count,
                actual: inputs.len(),
            });
        }
        for w in inputs {
            if w.width() != self.width {
                return Err(GateError::WordWidthMismatch {
                    expected: self.width,
                    actual: w.width(),
                });
            }
        }
        Ok(())
    }

    /// Evaluates the circuit on `input_count` words, returning one word
    /// per marked output — the boolean reference semantics.
    ///
    /// # Errors
    ///
    /// * [`GateError::InputCountMismatch`] for the wrong operand count.
    /// * [`GateError::WordWidthMismatch`] for mis-sized operands.
    pub fn evaluate(&self, inputs: &[Word]) -> Result<Vec<Word>, GateError> {
        let sets = [inputs.to_vec()];
        let mut outputs = self.evaluate_batch(&sets)?;
        Ok(outputs.pop().expect("one set in, one set out"))
    }

    /// Evaluates the circuit in the boolean reference semantics for
    /// many operand sets, returning one output vector per set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::evaluate`], per set.
    pub fn evaluate_batch(&self, sets: &[Vec<Word>]) -> Result<Vec<Vec<Word>>, GateError> {
        let width = self.width;
        self.run_engine(sets, |shape, batch| {
            batch
                .iter()
                .map(|set| {
                    let w = set.words();
                    match shape {
                        GateShape::Maj3 => Word::from_bits(
                            (w[0].bits() & w[1].bits())
                                | (w[0].bits() & w[2].bits())
                                | (w[1].bits() & w[2].bits()),
                            width,
                        ),
                        GateShape::Xor2 => Word::from_bits(w[0].bits() ^ w[1].bits(), width),
                    }
                })
                .collect()
        })
    }

    /// Evaluates the circuit with every MAJ/XOR node routed through a
    /// physical spin-wave gate from `bank`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::evaluate_batch_with`].
    pub fn evaluate_with(
        &self,
        bank: &mut GateBank,
        inputs: &[Word],
    ) -> Result<Vec<Word>, GateError> {
        let sets = [inputs.to_vec()];
        let mut outputs = self.evaluate_batch_with(bank, &sets)?;
        Ok(outputs.pop().expect("one set in, one set out"))
    }

    /// Evaluates many operand sets through `bank`'s physical gates.
    ///
    /// The walk is node-major: each MAJ/XOR node sends *all* sets to
    /// the bank's session as one batch, so the per-node gate work is
    /// batched exactly where the paper's data parallelism lives.
    ///
    /// # Errors
    ///
    /// * Operand shape errors as in [`Circuit::evaluate`], per set.
    /// * [`GateError::WordWidthMismatch`] when the bank's gates carry a
    ///   different word width than the circuit.
    /// * Gate-construction and backend errors from the bank.
    pub fn evaluate_batch_with(
        &self,
        bank: &mut GateBank,
        sets: &[Vec<Word>],
    ) -> Result<Vec<Vec<Word>>, GateError> {
        if bank.width() != self.width {
            return Err(GateError::WordWidthMismatch {
                expected: self.width,
                actual: bank.width(),
            });
        }
        self.run_engine(sets, |shape, batch| bank.dispatch(shape, batch))
    }

    /// The one circuit-walk engine every `evaluate_*` entry point
    /// shares, parameterized by how a per-node batch of gate operands
    /// turns into output words: the boolean reference semantics
    /// computes them bitwise, the physical path hands them to a
    /// [`GateBank`] session.
    ///
    /// The walk is node-major: each MAJ/XOR node evaluates *all* sets
    /// as one batch, free nodes (inputs, constants, inversions) resolve
    /// in place.
    fn run_engine<F>(&self, sets: &[Vec<Word>], mut eval: F) -> Result<Vec<Vec<Word>>, GateError>
    where
        F: FnMut(GateShape, &[OperandSet]) -> Result<Vec<Word>, GateError>,
    {
        for set in sets {
            self.check_inputs(set)?;
        }
        // values[set][node] — grown one node (for every set) at a time.
        let mut values: Vec<Vec<Word>> = vec![Vec::with_capacity(self.nodes.len()); sets.len()];
        let mut batch: Vec<OperandSet> = Vec::with_capacity(sets.len());
        for node in &self.nodes {
            match *node {
                Node::Input(k) => {
                    for (per_set, set) in values.iter_mut().zip(sets) {
                        per_set.push(set[k]);
                    }
                }
                Node::Constant(w) => {
                    for per_set in &mut values {
                        per_set.push(w);
                    }
                }
                Node::Not(a) => {
                    for per_set in &mut values {
                        let v = per_set[a.0].not();
                        per_set.push(v);
                    }
                }
                Node::Maj3(a, b, c) => {
                    batch.clear();
                    batch.extend(values.iter().map(|per_set| {
                        OperandSet::new(vec![per_set[a.0], per_set[b.0], per_set[c.0]])
                    }));
                    let outs = eval(GateShape::Maj3, &batch)?;
                    for (per_set, out) in values.iter_mut().zip(outs) {
                        per_set.push(out);
                    }
                }
                Node::Xor2(a, b) => {
                    batch.clear();
                    batch.extend(
                        values
                            .iter()
                            .map(|per_set| OperandSet::new(vec![per_set[a.0], per_set[b.0]])),
                    );
                    let outs = eval(GateShape::Xor2, &batch)?;
                    for (per_set, out) in values.iter_mut().zip(outs) {
                        per_set.push(out);
                    }
                }
            }
        }
        Ok(values
            .into_iter()
            .map(|per_set| self.outputs.iter().map(|id| per_set[id.0]).collect())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_circuit_evaluates_to_nothing() {
        let c = Circuit::new(8).unwrap();
        assert!(c.evaluate(&[]).unwrap().is_empty());
        assert!(Circuit::new(0).is_err());
    }

    #[test]
    fn maj_gate_identity() {
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let d = c.input();
        let m = c.maj3(a, b, d).unwrap();
        c.mark_output(m).unwrap();
        let out = c
            .evaluate(&[
                Word::from_u8(0x0F),
                Word::from_u8(0x33),
                Word::from_u8(0x55),
            ])
            .unwrap();
        assert_eq!(out[0].to_u8(), 0x17);
    }

    #[test]
    fn and_or_via_majority() {
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let and = c.and2(a, b).unwrap();
        let or = c.or2(a, b).unwrap();
        c.mark_output(and).unwrap();
        c.mark_output(or).unwrap();
        let out = c
            .evaluate(&[Word::from_u8(0b1100), Word::from_u8(0b1010)])
            .unwrap();
        assert_eq!(out[0].to_u8(), 0b1000);
        assert_eq!(out[1].to_u8(), 0b1110);
    }

    #[test]
    fn not_is_free_and_correct() {
        let mut c = Circuit::new(4).unwrap();
        let a = c.input();
        let n = c.not(a).unwrap();
        c.mark_output(n).unwrap();
        let out = c.evaluate(&[Word::from_bits(0b0110, 4).unwrap()]).unwrap();
        assert_eq!(out[0].bits(), 0b1001);
        assert_eq!(c.gate_counts().not, 1);
        assert_eq!(c.gate_counts().transducers(), 0);
    }

    #[test]
    fn gate_counts_and_transducers() {
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let x = c.xor2(a, b).unwrap();
        let m = c.maj3(a, b, x).unwrap();
        let _ = c.not(m).unwrap();
        let counts = c.gate_counts();
        assert_eq!(counts.maj3, 1);
        assert_eq!(counts.xor2, 1);
        assert_eq!(counts.not, 1);
        assert_eq!(counts.transducers(), 7);
    }

    #[test]
    fn dangling_references_rejected() {
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let bogus = NodeId(99);
        assert!(c.maj3(a, a, bogus).is_err());
        assert!(c.xor2(bogus, a).is_err());
        assert!(c.not(bogus).is_err());
        assert!(c.mark_output(bogus).is_err());
    }

    #[test]
    fn operand_validation() {
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        c.mark_output(a).unwrap();
        assert!(matches!(
            c.evaluate(&[]),
            Err(GateError::InputCountMismatch { .. })
        ));
        let narrow = Word::zeros(4).unwrap();
        assert!(matches!(
            c.evaluate(&[narrow]),
            Err(GateError::WordWidthMismatch { .. })
        ));
        assert!(c.constant(narrow).is_err());
    }

    fn full_adder_circuit() -> Circuit {
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let cin = c.input();
        let axb = c.xor2(a, b).unwrap();
        let sum = c.xor2(axb, cin).unwrap();
        let carry = c.maj3(a, b, cin).unwrap();
        c.mark_output(sum).unwrap();
        c.mark_output(carry).unwrap();
        c
    }

    fn sample_sets(count: usize) -> Vec<Vec<Word>> {
        (0..count as u64)
            .map(|i| {
                let seed = 0x9E37u64.wrapping_mul(i + 1);
                vec![
                    Word::from_u8(seed as u8),
                    Word::from_u8((seed >> 8) as u8),
                    Word::from_u8((seed >> 16) as u8),
                ]
            })
            .collect()
    }

    #[test]
    fn physical_gates_match_boolean_semantics() {
        use magnon_core::backend::BackendChoice;
        use magnon_physics::waveguide::Waveguide;
        let circuit = full_adder_circuit();
        let guide = Waveguide::paper_default().unwrap();
        let sets = sample_sets(6);
        let reference = circuit.evaluate_batch(&sets).unwrap();
        for choice in [BackendChoice::Analytic, BackendChoice::Cached] {
            let mut bank = GateBank::new(guide, 8, choice);
            let physical = circuit.evaluate_batch_with(&mut bank, &sets).unwrap();
            assert_eq!(physical, reference, "backend {choice:?}");
            assert!(bank.sets_evaluated() >= 3 * sets.len() as u64);
        }
    }

    #[test]
    fn evaluate_with_single_set_matches_batch() {
        use magnon_core::backend::BackendChoice;
        use magnon_physics::waveguide::Waveguide;
        let circuit = full_adder_circuit();
        let mut bank = GateBank::new(
            Waveguide::paper_default().unwrap(),
            8,
            BackendChoice::Cached,
        );
        let set = sample_sets(1).pop().unwrap();
        let single = circuit.evaluate_with(&mut bank, &set).unwrap();
        assert_eq!(single, circuit.evaluate(&set).unwrap());
    }

    #[test]
    fn bank_rejects_width_mismatch_and_bad_sessions() {
        use magnon_core::backend::BackendChoice;
        use magnon_physics::waveguide::Waveguide;
        let circuit = full_adder_circuit();
        let guide = Waveguide::paper_default().unwrap();
        let mut bank = GateBank::new(guide, 4, BackendChoice::Analytic);
        assert!(matches!(
            circuit.evaluate_with(&mut bank, &sample_sets(1)[0]),
            Err(GateError::WordWidthMismatch { .. })
        ));
        assert!(GateBank::with_sessions(guide, BackendChoice::Analytic, None, None).is_err());
    }

    #[test]
    fn with_sessions_lazily_fills_missing_slots_on_the_given_choice() {
        use magnon_core::backend::{BackendChoice, GateSession};
        use magnon_core::gate::ParallelGateBuilder;
        use magnon_physics::waveguide::Waveguide;
        let guide = Waveguide::paper_default().unwrap();
        let maj_gate = ParallelGateBuilder::new(guide)
            .channels(8)
            .inputs(3)
            .function(LogicFunction::Majority)
            .build()
            .unwrap();
        let maj3 = GateSession::new(maj_gate, BackendChoice::Cached).unwrap();
        // No XOR session provided: the full adder forces a lazy build,
        // which must use the bank's choice, not a silent default.
        let mut bank =
            GateBank::with_sessions(guide, BackendChoice::Cached, Some(maj3), None).unwrap();
        assert_eq!(bank.backend_choice(), BackendChoice::Cached);
        let circuit = full_adder_circuit();
        let set = sample_sets(1).pop().unwrap();
        let physical = circuit.evaluate_with(&mut bank, &set).unwrap();
        assert_eq!(physical, circuit.evaluate(&set).unwrap());
        // A wrong-shape XOR slot is rejected up front.
        let bad_xor = GateSession::new(
            ParallelGateBuilder::new(guide)
                .channels(8)
                .inputs(3)
                .function(LogicFunction::Majority)
                .build()
                .unwrap(),
            BackendChoice::Analytic,
        )
        .unwrap();
        assert!(matches!(
            GateBank::with_sessions(guide, BackendChoice::Analytic, None, Some(bad_xor)),
            Err(GateError::UnsupportedFunction { .. })
        ));
    }

    #[test]
    fn free_inversion_composes_with_physical_gates() {
        use magnon_core::backend::BackendChoice;
        use magnon_physics::waveguide::Waveguide;
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let d = c.input();
        let m = c.maj3(a, b, d).unwrap();
        let n = c.not(m).unwrap();
        c.mark_output(n).unwrap();
        let mut bank = GateBank::new(
            Waveguide::paper_default().unwrap(),
            8,
            BackendChoice::Analytic,
        );
        let inputs = vec![
            Word::from_u8(0x0F),
            Word::from_u8(0x33),
            Word::from_u8(0x55),
        ];
        let out = c.evaluate_with(&mut bank, &inputs).unwrap();
        assert_eq!(out[0].to_u8(), !0x17u8);
    }

    #[test]
    fn bank_dispatches_shapes_through_the_trait() {
        use magnon_core::backend::BackendChoice;
        use magnon_physics::waveguide::Waveguide;
        let mut bank = GateBank::new(
            Waveguide::paper_default().unwrap(),
            8,
            BackendChoice::Cached,
        );
        assert_eq!(bank.width(), 8);
        let batch = vec![OperandSet::new(vec![
            Word::from_u8(0x0F),
            Word::from_u8(0x33),
            Word::from_u8(0x55),
        ])];
        let outs = bank.dispatch(GateShape::Maj3, &batch).unwrap();
        assert_eq!(outs[0].to_u8(), 0x17);
        let batch = vec![OperandSet::new(vec![
            Word::from_u8(0xF0),
            Word::from_u8(0xAA),
        ])];
        let outs = bank.dispatch(GateShape::Xor2, &batch).unwrap();
        assert_eq!(outs[0].to_u8(), 0x5A);
        assert_eq!(GateShape::Maj3.function(), LogicFunction::Majority);
        assert_eq!(GateShape::Xor2.input_count(), 2);
    }

    #[test]
    fn packed_step_keeps_wide_plans_buildable() {
        assert_eq!(packed_frequency_step(8), 10.0e9);
        assert_eq!(packed_frequency_step(16), 5.0e9);
        assert_eq!(packed_frequency_step(32), 2.5e9);
    }

    #[test]
    fn fdm_lane_bands_are_disjoint_with_guard_bands() {
        for width in [4usize, 8, 16] {
            let step = packed_frequency_step(width);
            for lane in 0u16..3 {
                let base = fdm_lane_base(lane, width);
                let band_high = base + (width as f64 - 1.0) * step;
                let next_base = fdm_lane_base(lane + 1, width);
                assert!(
                    next_base - band_high >= fdm_lane_guard_band(width) - 1.0,
                    "lane {lane} (w{width}) must keep a two-step guard band"
                );
            }
        }
        assert_eq!(fdm_lane_base(0, 8), 10.0e9);
        assert_eq!(fdm_lane_base(1, 8), 100.0e9);
        assert_eq!(fdm_lane_guard_band(8), 20.0e9);
    }

    #[test]
    fn fdm_lane_grid_survives_real_channel_plans() {
        // The arithmetic above is what the grid promises; what a placer
        // actually packs are built ChannelPlans — verify the promise
        // survives construction (band edges, overlap predicate, guard
        // band) for every width class of the packed grid.
        use magnon_core::channel::{ChannelPlan, DispersionModel};
        use magnon_physics::waveguide::Waveguide;
        let guide = Waveguide::paper_default().unwrap();
        for width in [4usize, 8, 12] {
            let step = packed_frequency_step(width);
            let plans: Vec<ChannelPlan> = (0u16..3)
                .map(|lane| {
                    ChannelPlan::uniform(
                        &guide,
                        DispersionModel::Exchange,
                        width,
                        fdm_lane_base(lane, width),
                        step,
                    )
                    .unwrap()
                })
                .collect();
            for (i, a) in plans.iter().enumerate() {
                for b in &plans[i + 1..] {
                    assert!(!a.overlaps(b), "w{width}: lane bands must stay disjoint");
                    assert!(
                        a.guard_band_to(b) >= fdm_lane_guard_band(width) - 1.0,
                        "w{width}: built plans must keep the two-step guard band"
                    );
                }
            }
        }
    }

    #[test]
    fn node_accessors_expose_the_ir() {
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let x = c.xor2(a, b).unwrap();
        let m = c.maj3(a, b, x).unwrap();
        let n = c.not(m).unwrap();
        c.mark_output(n).unwrap();
        assert_eq!(c.node_count(), 5);
        assert_eq!(a.index(), 0);
        assert_eq!(n.index(), 4);
        let kinds = c.node_kinds();
        assert_eq!(kinds.len(), 5);
        assert_eq!(kinds[0], NodeKind::Input { index: 0 });
        assert_eq!(kinds[2], NodeKind::Xor2(a, b));
        assert_eq!(kinds[2].gate_shape(), Some(GateShape::Xor2));
        assert_eq!(kinds[3].operands(), vec![a, b, x]);
        assert_eq!(kinds[4].gate_shape(), None);
        assert_eq!(kinds[4].operands(), vec![m]);
        assert!(c.node_kind(NodeId(99)).is_none());
        // Operands always precede their consumers in node_ids order.
        for (i, kind) in kinds.iter().enumerate() {
            for op in kind.operands() {
                assert!(op.index() < i);
            }
        }
    }

    #[test]
    fn parallelism_is_bitwise_independent() {
        // Each channel (bit position) computes independently: evaluating
        // all 8 MAJ combos at once matches per-bit evaluation.
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let d = c.input();
        let m = c.maj3(a, b, d).unwrap();
        c.mark_output(m).unwrap();
        // Channel i carries combination i.
        let a_w = Word::from_u8(0b10101010);
        let b_w = Word::from_u8(0b11001100);
        let d_w = Word::from_u8(0b11110000);
        let out = c.evaluate(&[a_w, b_w, d_w]).unwrap()[0];
        for i in 0..8 {
            let expected = [false, false, false, true, false, true, true, true][i];
            assert_eq!(out.bit(i).unwrap(), expected, "combo {i}");
        }
    }
}
