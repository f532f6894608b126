//! Pipelined execution of compiled circuit plans — the one way to
//! serve a whole circuit through the scheduler.
//!
//! A [`magnon_compiler::CompiledCircuit`] carries ASAP wavefronts and a
//! `(waveguide, lane)` slot table; this module runs such plans
//! *through* the [`Scheduler`]: [`CircuitExecutor::run_batch`] is
//! **pipelined**, dependency-aware submission. Each gate node's request
//! goes out the moment its operand values complete (polled via
//! [`Ticket::try_wait`], parked briefly on [`Ticket::wait_timeout`]
//! when nothing moves). No level barriers: independent subgraphs, and
//! different operand sets of the *same* subgraph, interleave freely
//! across shards and lanes, so worker drains stay deep and multi-lane
//! FDM passes form by construction.
//!
//! [`register_compiled`] maps a plan's slot table onto scheduler
//! registrations (one MAJ-3/XOR-2 pair per slot, on the slot's
//! frequency lane), rebased onto a caller-chosen first waveguide id so
//! several plans can share one scheduler.
//! [`CircuitExecutor::dispatch_stats`] reports the traffic a plan's
//! runs generated as [`DispatchStats`].

use crate::error::ServeError;
use crate::request::{GateId, Ticket};
use crate::scheduler::{Scheduler, SchedulerBuilder};
use magnon_circuits::netlist::{GateShape, NodeKind};
use magnon_compiler::CompiledCircuit;
use magnon_core::backend::{BackendChoice, OperandSet};
use magnon_core::gate::WaveguideId;
use magnon_core::sync::time::Duration;
use magnon_core::word::Word;
use magnon_core::GateError;
use magnon_physics::waveguide::Waveguide;
use std::collections::VecDeque;

/// How long the pipelined loop parks on its oldest in-flight ticket
/// per harvest round — long enough that the client thread sleeps
/// through a typical drain cycle instead of busy-polling (which would
/// starve workers on small machines), short enough that an
/// out-of-order completion burst behind a slow oldest ticket is picked
/// up promptly.
const PARK: Duration = Duration::from_micros(100);

/// Scheduler registrations backing one compiled plan: a MAJ-3/XOR-2
/// gate pair per plan slot. Built by [`register_compiled`].
#[derive(Debug, Clone)]
pub struct CompiledGates {
    slots: Vec<(GateId, GateId)>,
    width: usize,
}

impl CompiledGates {
    /// The `(maj3, xor2)` registration per plan slot, in slot order.
    pub fn slots(&self) -> &[(GateId, GateId)] {
        &self.slots
    }

    /// Word width of every registered gate.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// Registers `compiled`'s slot table with `builder`: one 3-input
/// majority and one 2-input XOR gate per slot, on the slot's frequency
/// lane of waveguide `first_waveguide + slot.waveguide` (plans number
/// their waveguides from zero; rebasing lets several compiled circuits
/// share a scheduler without id or name collisions — give each plan
/// a disjoint waveguide-id block).
///
/// `choice` is kept only because the `perfbench` benchmark still
/// passes it; it goes when that call does (see
/// [`SchedulerBuilder::register`]).
///
/// # Errors
///
/// Gate construction failures and duplicate registrations
/// (overlapping waveguide-id blocks).
pub fn register_compiled(
    builder: &mut SchedulerBuilder,
    compiled: &CompiledCircuit,
    waveguide: Waveguide,
    first_waveguide: WaveguideId,
    choice: BackendChoice,
) -> Result<CompiledGates, ServeError> {
    let width = compiled.circuit().width();
    let mut slots = Vec::with_capacity(compiled.slots().len());
    for spec in compiled.slots() {
        let pair = builder.register_circuit_gates_on_lane(
            waveguide,
            WaveguideId(first_waveguide.0 + spec.waveguide.0),
            spec.lane,
            width,
            choice,
        )?;
        slots.push(pair);
    }
    Ok(CompiledGates { slots, width })
}

/// Traffic a [`CircuitExecutor`] has submitted — the circuit-side view
/// of how much physical gate work its runs generated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Gate-node batches issued: one per gate node per
    /// [`CircuitExecutor::run_batch`] call.
    pub dispatch_calls: u64,
    /// Scheduler requests across those batches: one per
    /// `(gate node, operand set)`.
    pub sets_dispatched: u64,
}

/// Per-run value/dependency state: `values[set][node]`, unresolved
/// operand-slot counts, and the gate nodes whose operands are complete.
struct RunState {
    values: Vec<Vec<Option<Word>>>,
    missing: Vec<Vec<usize>>,
    ready: VecDeque<(usize, usize)>,
}

/// Executes one compiled plan against a running [`Scheduler`].
///
/// Cheap to keep around: holds the node table (kinds, dependents) and
/// the slot registrations, plus traffic counters surfaced through
/// [`CircuitExecutor::dispatch_stats`].
#[derive(Debug)]
pub struct CircuitExecutor<'a> {
    scheduler: &'a Scheduler,
    compiled: &'a CompiledCircuit,
    slots: Vec<(GateId, GateId)>,
    kinds: Vec<NodeKind>,
    /// node → consumer node indices, one entry per operand occurrence
    /// (so `MAJ(a, a, b)` lists the consumer twice under `a`).
    dependents: Vec<Vec<usize>>,
    width: usize,
    dispatch_calls: u64,
    sets_dispatched: u64,
    peak_in_flight: u64,
}

impl<'a> CircuitExecutor<'a> {
    /// Binds `compiled` to its registrations on `scheduler`.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownGate`] for ids foreign to `scheduler`.
    /// * [`ServeError::Gate`] when a slot's gates carry the wrong
    ///   shape or width for the plan, or the registration count does
    ///   not match the slot table.
    pub fn new(
        scheduler: &'a Scheduler,
        compiled: &'a CompiledCircuit,
        gates: &CompiledGates,
    ) -> Result<Self, ServeError> {
        let width = compiled.circuit().width();
        if gates.width != width || gates.slots.len() != compiled.slots().len() {
            return Err(ServeError::Gate(GateError::WordWidthMismatch {
                expected: width,
                actual: gates.width,
            }));
        }
        for &(maj, xor) in &gates.slots {
            for (id, shape) in [(maj, GateShape::Maj3), (xor, GateShape::Xor2)] {
                let gate = scheduler
                    .gate(id)
                    .ok_or(ServeError::UnknownGate { index: id.index() })?;
                if gate.function() != shape.function() || gate.input_count() != shape.input_count()
                {
                    return Err(ServeError::Gate(GateError::UnsupportedFunction {
                        reason: "compiled slots need a 3-input majority and a 2-input XOR gate",
                    }));
                }
                if gate.word_width() != width {
                    return Err(ServeError::Gate(GateError::WordWidthMismatch {
                        expected: width,
                        actual: gate.word_width(),
                    }));
                }
            }
        }
        let kinds = compiled.circuit().node_kinds();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); kinds.len()];
        for (i, kind) in kinds.iter().enumerate() {
            for op in kind.operands() {
                dependents[op.index()].push(i);
            }
        }
        Ok(CircuitExecutor {
            scheduler,
            compiled,
            slots: gates.slots.clone(),
            kinds,
            dependents,
            width,
            dispatch_calls: 0,
            sets_dispatched: 0,
            peak_in_flight: 0,
        })
    }

    /// Traffic counters across every run so far: one dispatch call per
    /// gate node per run, one dispatched set per
    /// `(gate node, operand set)` submission.
    pub fn dispatch_stats(&self) -> DispatchStats {
        DispatchStats {
            dispatch_calls: self.dispatch_calls,
            sets_dispatched: self.sets_dispatched,
        }
    }

    /// Most requests the pipelined loop had in flight at once across
    /// every run so far — the depth dependency-aware submission keeps
    /// the scheduler's queues at.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Runs one operand set through the plan, pipelined.
    ///
    /// # Errors
    ///
    /// The conditions of [`CircuitExecutor::run_batch`].
    pub fn run(&mut self, inputs: &[Word]) -> Result<Vec<Word>, ServeError> {
        let sets = [inputs.to_vec()];
        let mut outputs = self.run_batch(&sets)?;
        Ok(outputs.pop().expect("one set in, one set out"))
    }

    /// Runs many operand sets through the plan with dependency-aware
    /// pipelined submission: every gate node of every set is submitted
    /// the moment its operands complete, and completions are polled
    /// with [`Ticket::try_wait`] while further work queues behind them.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Gate`] for operand shape mismatches or gate
    ///   evaluation failures.
    /// * [`ServeError::Shutdown`] when the scheduler goes away
    ///   mid-run.
    pub fn run_batch(&mut self, sets: &[Vec<Word>]) -> Result<Vec<Vec<Word>>, ServeError> {
        let mut state = self.init(sets)?;
        self.note_traffic(sets.len());
        let mut in_flight: VecDeque<(usize, usize, Ticket)> = VecDeque::new();
        while !state.ready.is_empty() || !in_flight.is_empty() {
            // Submit everything ready. Non-blocking while completions
            // are pending (a full queue just defers to the harvest
            // phase); blocking when nothing is in flight, as
            // backpressure then cannot deadlock us. The burst's
            // operands are gathered before the first submission, so
            // its requests land back to back and a worker woken by the
            // first finds more of the burst queued behind it.
            let burst: Vec<_> = state
                .ready
                .iter()
                .map(|&(set, node)| {
                    let operands = self.operands_of(&state, set, node);
                    (set, node, self.gate_for(node), operands)
                })
                .collect();
            for (set, node, id, operands) in burst {
                let ticket = if in_flight.is_empty() {
                    Some(self.scheduler.submit(id, operands)?)
                } else {
                    match self.scheduler.try_submit(id, operands) {
                        Ok(t) => Some(t),
                        Err(ServeError::QueueFull { .. }) => None,
                        Err(e) => return Err(e),
                    }
                };
                let Some(ticket) = ticket else { break };
                state.ready.pop_front();
                in_flight.push_back((set, node, ticket));
            }
            self.peak_in_flight = self.peak_in_flight.max(in_flight.len() as u64);

            // Harvest: park on the oldest ticket (keeping this thread
            // off the workers' cores — completions flow out of drain
            // cycles in near-submission order, so the oldest usually
            // lands first), then sweep EVERY in-flight ticket without
            // blocking. The sweep must not stop at the first pending
            // ticket: per-gate groups and FDM passes complete requests
            // out of submission order, so a slow head can hide finished
            // tickets behind it — and the dependents those completions
            // would unlock sit unsubmitted for a full park per round.
            // (The model checker's executor-pipeline scenario caught
            // the prefix-only variant of this loop doing exactly that.)
            // A timed-out head stays redeemable on a later round.
            if let Some(head) = in_flight.front() {
                match head.2.wait_timeout(PARK) {
                    Ok(out) => {
                        let (set, node, _t) = in_flight.pop_front().expect("head exists");
                        self.complete(&mut state, set, node, out.word());
                    }
                    Err(ServeError::Timeout) => {}
                    Err(e) => return Err(e),
                }
                let mut i = 0;
                while i < in_flight.len() {
                    match in_flight[i].2.try_wait()? {
                        Some(out) => {
                            let (set, node, _t) =
                                in_flight.remove(i).expect("index checked against len");
                            self.complete(&mut state, set, node, out.word());
                        }
                        None => i += 1,
                    }
                }
            }
        }
        self.gather(state, sets.len())
    }

    /// Validates `sets` and resolves every node reachable without gate
    /// work (inputs, constants, inversions of resolved nodes), seeding
    /// the ready queue with gates whose operands are all free.
    fn init(&self, sets: &[Vec<Word>]) -> Result<RunState, ServeError> {
        let circuit = self.compiled.circuit();
        for set in sets {
            if set.len() != circuit.input_count() {
                return Err(ServeError::Gate(GateError::InputCountMismatch {
                    expected: circuit.input_count(),
                    actual: set.len(),
                }));
            }
            for w in set {
                if w.width() != self.width {
                    return Err(ServeError::Gate(GateError::WordWidthMismatch {
                        expected: self.width,
                        actual: w.width(),
                    }));
                }
            }
        }
        let n = self.kinds.len();
        let mut state = RunState {
            values: vec![vec![None; n]; sets.len()],
            missing: vec![vec![0; n]; sets.len()],
            ready: VecDeque::new(),
        };
        for (set_idx, set) in sets.iter().enumerate() {
            for (i, kind) in self.kinds.iter().enumerate() {
                match kind {
                    NodeKind::Input { index } => state.values[set_idx][i] = Some(set[*index]),
                    NodeKind::Constant(w) => state.values[set_idx][i] = Some(*w),
                    NodeKind::Not(a) => {
                        // Operands precede consumers: a resolved
                        // operand is already in `values`.
                        match state.values[set_idx][a.index()] {
                            Some(v) => state.values[set_idx][i] = Some(v.not()),
                            None => state.missing[set_idx][i] = 1,
                        }
                    }
                    _ => {
                        let unresolved = kind
                            .operands()
                            .iter()
                            .filter(|op| state.values[set_idx][op.index()].is_none())
                            .count();
                        state.missing[set_idx][i] = unresolved;
                        if unresolved == 0 {
                            state.ready.push_back((set_idx, i));
                        }
                    }
                }
            }
        }
        Ok(state)
    }

    /// Records `word` as `(set, node)`'s value and cascades: free
    /// inversions resolve in place, gates whose last operand arrived
    /// join the ready queue.
    fn complete(&self, state: &mut RunState, set: usize, node: usize, word: Word) {
        let mut stack = vec![(node, word)];
        while let Some((node, word)) = stack.pop() {
            state.values[set][node] = Some(word);
            for &consumer in &self.dependents[node] {
                state.missing[set][consumer] -= 1;
                if state.missing[set][consumer] == 0 {
                    match self.kinds[consumer] {
                        NodeKind::Not(_) => stack.push((consumer, word.not())),
                        _ => state.ready.push_back((set, consumer)),
                    }
                }
            }
        }
    }

    /// Collects the per-set output words once every node resolved.
    fn gather(&self, state: RunState, sets: usize) -> Result<Vec<Vec<Word>>, ServeError> {
        let circuit = self.compiled.circuit();
        Ok((0..sets)
            .map(|set| {
                circuit
                    .outputs()
                    .iter()
                    .map(|id| {
                        state.values[set][id.index()].expect("all nodes resolved at gather time")
                    })
                    .collect()
            })
            .collect())
    }

    fn operands_of(&self, state: &RunState, set: usize, node: usize) -> OperandSet {
        let words = self.kinds[node]
            .operands()
            .iter()
            .map(|op| state.values[set][op.index()].expect("operands resolved before submission"))
            .collect();
        OperandSet::new(words)
    }

    fn gate_for(&self, node: usize) -> GateId {
        let circuit = self.compiled.circuit();
        let id = circuit
            .node_ids()
            .nth(node)
            .expect("node index within the circuit");
        let slot = self
            .compiled
            .slot_of(id)
            .expect("gate nodes always carry a slot");
        let (maj, xor) = self.slots[slot];
        match self.kinds[node].gate_shape().expect("only gates submit") {
            GateShape::Maj3 => maj,
            GateShape::Xor2 => xor,
        }
    }

    fn note_traffic(&mut self, sets: usize) {
        let gates = self
            .kinds
            .iter()
            .filter(|k| k.gate_shape().is_some())
            .count() as u64;
        self.dispatch_calls += gates;
        self.sets_dispatched += gates * sets as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ServeConfig;
    use magnon_circuits::netlist::Circuit;
    use magnon_compiler::{compile, CompilerConfig};

    fn quick_config(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            max_batch: 64,
            linger: Duration::from_micros(50),
            queue_depth: 256,
        }
    }

    /// A full adder plus an independent parity pair — two subgraphs.
    fn two_subgraph_circuit() -> Circuit {
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let cin = c.input();
        let axb = c.xor2(a, b).unwrap();
        let sum = c.xor2(axb, cin).unwrap();
        let carry = c.maj3(a, b, cin).unwrap();
        let x = c.input();
        let y = c.input();
        let par = c.xor2(x, y).unwrap();
        let npar = c.not(par).unwrap();
        c.mark_output(sum).unwrap();
        c.mark_output(carry).unwrap();
        c.mark_output(par).unwrap();
        c.mark_output(npar).unwrap();
        c
    }

    fn sample_sets(inputs: usize, count: usize) -> Vec<Vec<Word>> {
        (0..count as u64)
            .map(|i| {
                (0..inputs as u64)
                    .map(|j| {
                        Word::from_u8(
                            (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .rotate_left(j as u32 * 7)
                                >> 13) as u8,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pipelined_runs_match_the_reference() {
        let guide = Waveguide::paper_default().unwrap();
        let circuit = two_subgraph_circuit();
        let compiled = compile(&circuit, &guide, &CompilerConfig::default()).unwrap();
        let mut builder = SchedulerBuilder::new(quick_config(2));
        let gates = register_compiled(
            &mut builder,
            &compiled,
            guide,
            WaveguideId(0),
            BackendChoice::Cached,
        )
        .unwrap();
        let scheduler = builder.build().unwrap();
        let mut executor = CircuitExecutor::new(&scheduler, &compiled, &gates).unwrap();
        let sets = sample_sets(circuit.input_count(), 12);
        let reference = circuit.evaluate_batch(&sets).unwrap();
        assert_eq!(executor.run_batch(&sets).unwrap(), reference);
        let single = executor.run(&sets[0]).unwrap();
        assert_eq!(single, reference[0]);
        // 4 gate nodes, 12+1 sets.
        let stats = executor.dispatch_stats();
        assert_eq!(stats.dispatch_calls, 8);
        assert_eq!(stats.sets_dispatched, 4 * 13);
        assert!(
            executor.peak_in_flight() >= 2,
            "independent subgraphs must overlap"
        );
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn gateless_plans_run_without_submissions() {
        let guide = Waveguide::paper_default().unwrap();
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let n = c.not(a).unwrap();
        c.mark_output(n).unwrap();
        let compiled = compile(&c, &guide, &CompilerConfig::default()).unwrap();
        let mut builder = SchedulerBuilder::new(quick_config(1));
        let gates = register_compiled(
            &mut builder,
            &compiled,
            guide,
            WaveguideId(0),
            BackendChoice::Analytic,
        )
        .unwrap();
        let scheduler = builder.build().unwrap();
        let mut executor = CircuitExecutor::new(&scheduler, &compiled, &gates).unwrap();
        let out = executor.run(&[Word::from_u8(0x0F)]).unwrap();
        assert_eq!(out[0].to_u8(), 0xF0);
        assert_eq!(scheduler.stats().submitted, 0);
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn executor_rejects_mismatched_registrations() {
        let guide = Waveguide::paper_default().unwrap();
        let circuit = two_subgraph_circuit();
        let compiled = compile(&circuit, &guide, &CompilerConfig::default()).unwrap();
        let mut narrow = Circuit::new(4).unwrap();
        let a = narrow.input();
        let b = narrow.input();
        let x = narrow.xor2(a, b).unwrap();
        narrow.mark_output(x).unwrap();
        let narrow_compiled = compile(&narrow, &guide, &CompilerConfig::default()).unwrap();
        let mut builder = SchedulerBuilder::new(quick_config(1));
        let gates = register_compiled(
            &mut builder,
            &narrow_compiled,
            guide,
            WaveguideId(0),
            BackendChoice::Analytic,
        )
        .unwrap();
        let scheduler = builder.build().unwrap();
        // A 4-bit registration cannot back an 8-bit plan.
        assert!(matches!(
            CircuitExecutor::new(&scheduler, &compiled, &gates),
            Err(ServeError::Gate(GateError::WordWidthMismatch { .. }))
        ));
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn executor_validates_operand_sets() {
        let guide = Waveguide::paper_default().unwrap();
        let circuit = two_subgraph_circuit();
        let compiled = compile(&circuit, &guide, &CompilerConfig::default()).unwrap();
        let mut builder = SchedulerBuilder::new(quick_config(1));
        let gates = register_compiled(
            &mut builder,
            &compiled,
            guide,
            WaveguideId(0),
            BackendChoice::Analytic,
        )
        .unwrap();
        let scheduler = builder.build().unwrap();
        let mut executor = CircuitExecutor::new(&scheduler, &compiled, &gates).unwrap();
        assert!(matches!(
            executor.run(&[]),
            Err(ServeError::Gate(GateError::InputCountMismatch { .. }))
        ));
        let narrow = vec![Word::zeros(4).unwrap(); circuit.input_count()];
        assert!(matches!(
            executor.run(&narrow),
            Err(ServeError::Gate(GateError::WordWidthMismatch { .. }))
        ));
        scheduler.shutdown().unwrap();
    }
}
