//! What the workloads serve: the gate directory and the circuit, the
//! seeded inputs, and set-up (build, bind, connect, warm-up) and
//! teardown of the serving stack as shipped.

use crate::oracle::{self, Checker};
use crate::trace::Tracer;
use crate::Res;
use magnon_circuits::adder::full_adder;
use magnon_circuits::netlist::{fdm_lane_base, packed_frequency_step, Circuit, NodeKind};
use magnon_compiler::{compile, CompiledCircuit, CompilerConfig};
use magnon_core::backend::{BackendChoice, OperandSet};
use magnon_core::gate::{LaneId, ParallelGate, ParallelGateBuilder, WaveguideId};
use magnon_core::truth::LogicFunction;
use magnon_core::word::Word;
use magnon_net::{NetClient, NetServer, NetServerConfig, RemoteGateId};
use magnon_physics::waveguide::Waveguide;
use magnon_serve::{
    register_compiled, CompiledGates, GateId, Scheduler, SchedulerBuilder, ServeConfig,
};
use std::sync::Arc;

/// Channels per gate: the paper's byte-wide gate.
pub const WIDTH: usize = 8;
/// Adder operand bits of the circuit workload.
pub const ADDER_BITS: usize = 8;
/// Parity-tree inputs of the circuit workload.
pub const PARITY_INPUTS: usize = 8;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A random `WIDTH`-channel word.
    pub fn word(&mut self) -> Word {
        Word::from_bits(self.next_u64() & oracle::mask(WIDTH), WIDTH).expect("masked to width")
    }
}

/// The two gate shapes served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 3-input majority.
    Maj3,
    /// 2-input XOR.
    Xor2,
}

impl Shape {
    /// Operand words per request.
    pub fn inputs(self) -> usize {
        match self {
            Shape::Maj3 => 3,
            Shape::Xor2 => 2,
        }
    }

    /// The reference answer for `words`.
    pub fn expected(self, words: &[Word]) -> u64 {
        let b = |i: usize| words[i].bits();
        match self {
            Shape::Maj3 => oracle::maj3(b(0), b(1), b(2), WIDTH),
            Shape::Xor2 => oracle::xor2(b(0), b(1), WIDTH),
        }
    }
}

/// One entry of the gate directory.
#[derive(Debug, Clone)]
pub struct GateSpec {
    /// Registration name.
    pub name: String,
    /// Gate function.
    pub shape: Shape,
    /// Physical waveguide.
    pub waveguide: u64,
    /// FDM lane on that waveguide.
    pub lane: u16,
}

/// The 8-gate directory: four MAJ3 gates on four FDM lanes of
/// waveguide 0, then two MAJ3 and two XOR2 gates each on a waveguide
/// of its own. Registration order is the wire id.
pub fn directory() -> Vec<GateSpec> {
    let lanes = (0..4u16).map(|lane| GateSpec {
        name: format!("maj3_wg0_lane{lane}"),
        shape: Shape::Maj3,
        waveguide: 0,
        lane,
    });
    let own = [
        (Shape::Maj3, 1),
        (Shape::Maj3, 2),
        (Shape::Xor2, 3),
        (Shape::Xor2, 4),
    ]
    .map(|(shape, waveguide)| GateSpec {
        name: format!(
            "{}_wg{waveguide}",
            if shape == Shape::Maj3 { "maj3" } else { "xor2" }
        ),
        shape,
        waveguide,
        lane: 0,
    });
    lanes.chain(own).collect()
}

/// Builds the physical gate of `spec` on the lane grid of
/// `fdm_lane_base` / `packed_frequency_step`.
pub fn build_gate(spec: &GateSpec) -> Res<ParallelGate> {
    let function = match spec.shape {
        Shape::Maj3 => LogicFunction::Majority,
        Shape::Xor2 => LogicFunction::Xor,
    };
    Ok(ParallelGateBuilder::new(Waveguide::paper_default()?)
        .channels(WIDTH)
        .inputs(spec.shape.inputs())
        .function(function)
        .base_frequency(fdm_lane_base(spec.lane, WIDTH))
        .frequency_step(packed_frequency_step(WIDTH))
        .on_waveguide(WaveguideId(spec.waveguide))
        .on_lane(LaneId(spec.lane))
        .build()?)
}

/// One gate request and its reference answer. `gate` is the
/// registration index, which is also the wire id.
#[derive(Debug, Clone)]
pub struct Req {
    /// Registration index of the target gate.
    pub gate: usize,
    /// The operand words.
    pub set: OperandSet,
    /// The reference output word.
    pub expected: u64,
}

/// `count` requests, each on a uniformly chosen directory gate with
/// random operand bits.
pub fn directory_requests(rng: &mut Rng, dir: &[GateSpec], count: usize) -> Vec<Req> {
    (0..count)
        .map(|_| {
            let gate = rng.below(dir.len());
            let shape = dir[gate].shape;
            let words: Vec<Word> = (0..shape.inputs()).map(|_| rng.word()).collect();
            Req {
                gate,
                expected: shape.expected(&words),
                set: OperandSet::new(words),
            }
        })
        .collect()
}

/// `reqs` as the wire client takes them.
pub fn remote_requests(reqs: &[Req]) -> Vec<(RemoteGateId, Vec<Word>)> {
    reqs.iter()
        .map(|r| (RemoteGateId(r.gate as u32), r.set.words().to_vec()))
        .collect()
}

/// Warm-up sweeps. Every sweep sends each gate the same number of
/// requests, as the uniform workloads do, so the rebalancer (one
/// placement review per 64 submits) settles during set-up instead of
/// moving a lane, onto a cold session, in the timed phase.
const WARM_SWEEPS: usize = 8;
/// Requests per gate per sweep: every combination of a 3-input gate
/// once, of a 2-input gate twice.
const WARM_PER_GATE: usize = 8;

/// Every input combination of an `m`-input gate, each applied on every
/// channel, cycled to [`WARM_PER_GATE`] requests: serving these fills
/// and densifies every LUT row.
fn all_combinations(gate: usize, shape: Shape) -> Vec<Req> {
    let m = shape.inputs();
    (0..WARM_PER_GATE)
        .map(|i| i % (1usize << m))
        .map(|combo| {
            let words: Vec<Word> = (0..m)
                .map(|j| {
                    Word::from_bits(
                        if (combo >> j) & 1 == 1 {
                            oracle::mask(WIDTH)
                        } else {
                            0
                        },
                        WIDTH,
                    )
                })
                .collect::<Result<_, _>>()
                .expect("masked to width");
            Req {
                gate,
                expected: shape.expected(&words),
                set: OperandSet::new(words),
            }
        })
        .collect()
}

/// A running server and one connected client.
pub struct Wire {
    /// The loopback front-end.
    pub server: NetServer,
    /// The benchmark's single connection.
    pub client: NetClient,
}

/// The serving stack one workload runs against.
pub struct Stack {
    /// The scheduler, shared with the server.
    pub scheduler: Arc<Scheduler>,
    /// Registration ids in registration order.
    pub ids: Vec<GateId>,
    /// The loopback front-end, when the workload uses one.
    pub wire: Option<Wire>,
}

impl Stack {
    /// Builds and starts the scheduler (`ServeConfig::default()`,
    /// cached backends) over `gates`, and optionally a loopback server
    /// (`NetServerConfig::default()`) with one connected client.
    pub fn start(
        builder: SchedulerBuilder,
        ids: Vec<GateId>,
        wire: bool,
        tr: &mut Tracer,
    ) -> Res<Stack> {
        let scheduler =
            Arc::new(tr.span("serve.build", crate::trace::ROOT, 0, || builder.build())?);
        let wire = if wire {
            Some(Self::connect(&scheduler, tr)?)
        } else {
            None
        };
        Ok(Stack {
            scheduler,
            ids,
            wire,
        })
    }

    fn connect(scheduler: &Arc<Scheduler>, tr: &mut Tracer) -> Res<Wire> {
        let server = tr.span("net.bind", crate::trace::ROOT, 0, || {
            NetServer::bind(
                "127.0.0.1:0",
                Arc::clone(scheduler),
                NetServerConfig::default(),
            )
        })?;
        let client = tr.span("net.connect", crate::trace::ROOT, 0, || {
            NetClient::connect(server.local_addr())
        })?;
        Ok(Wire { server, client })
    }

    /// Adds a loopback front-end to a stack started without one.
    pub fn add_wire(&mut self, tr: &mut Tracer) -> Res<()> {
        if self.wire.is_none() {
            self.wire = Some(Self::connect(&self.scheduler, tr)?);
        }
        Ok(())
    }

    /// Serves every input combination on every gate of `shapes`
    /// (indexed by registration), [`WARM_SWEEPS`] times in one call,
    /// over the wire when there is one. Any wrong answer is an error:
    /// the timed phase must start from a stack that works.
    pub fn warm(&mut self, shapes: &[Shape]) -> Res<()> {
        let sweep: Vec<Req> = shapes
            .iter()
            .enumerate()
            .flat_map(|(gate, &shape)| all_combinations(gate, shape))
            .collect();
        let reqs: Vec<Req> = (0..WARM_SWEEPS)
            .flat_map(|_| sweep.iter().cloned())
            .collect();
        let words: Vec<Word> = match &mut self.wire {
            Some(wire) => wire.client.eval_many(&remote_requests(&reqs))?,
            None => {
                let local: Vec<(GateId, OperandSet)> = reqs
                    .iter()
                    .map(|r| (self.ids[r.gate], r.set.clone()))
                    .collect();
                self.scheduler
                    .evaluate_many(&local)?
                    .iter()
                    .map(|o| o.word())
                    .collect()
            }
        };
        let mut checker = Checker::default();
        for (req, word) in reqs.iter().zip(&words) {
            checker.answer(&[*word], &[req.expected]);
        }
        if checker.bad() > 0 || words.len() != reqs.len() {
            return Err(format!(
                "warm-up answered {} of {} combinations wrong",
                checker.bad(),
                reqs.len()
            )
            .into());
        }
        Ok(())
    }

    /// Stops the client, the server and the scheduler, in that order.
    pub fn shutdown(self) -> Res<()> {
        if let Some(Wire { server, client }) = self.wire {
            drop(client);
            server.shutdown();
        }
        Arc::try_unwrap(self.scheduler)
            .map_err(|_| "scheduler still shared at shutdown")?
            .shutdown()?;
        Ok(())
    }
}

/// Registers the gate directory on a default-configured builder.
pub fn directory_builder(
    dir: &[GateSpec],
    tr: &mut Tracer,
) -> Res<(SchedulerBuilder, Vec<GateId>)> {
    let mut builder = SchedulerBuilder::new(ServeConfig::default());
    let mut ids = Vec::with_capacity(dir.len());
    for spec in dir {
        let gate = tr.span("core.gate_build", crate::trace::ROOT, 0, || {
            build_gate(spec)
        })?;
        ids.push(builder.register(spec.name.clone(), gate, BackendChoice::Cached)?);
    }
    Ok((builder, ids))
}

/// The two-subgraph netlist: an 8-bit ripple-carry adder and an
/// 8-input XOR parity tree sharing no wires (31 gates over 8 levels).
pub fn two_subgraph_circuit() -> Res<Circuit> {
    let mut c = Circuit::new(WIDTH)?;
    let a: Vec<_> = (0..ADDER_BITS).map(|_| c.input()).collect();
    let b: Vec<_> = (0..ADDER_BITS).map(|_| c.input()).collect();
    let mut carry = c.constant(Word::zeros(WIDTH)?)?;
    for i in 0..ADDER_BITS {
        let (sum, carry_out) = full_adder(&mut c, a[i], b[i], carry)?;
        c.mark_output(sum)?;
        carry = carry_out;
    }
    c.mark_output(carry)?;
    let mut layer: Vec<_> = (0..PARITY_INPUTS).map(|_| c.input()).collect();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            next.push(if pair.len() == 2 {
                c.xor2(pair[0], pair[1])?
            } else {
                pair[0]
            });
        }
        layer = next;
    }
    c.mark_output(layer[0])?;
    Ok(c)
}

/// The compiled circuit plan and its registrations.
pub struct CircuitPlan {
    /// The compiled plan (`CompilerConfig::default()`).
    pub compiled: CompiledCircuit,
    /// Scheduler registrations per plan slot.
    pub gates: CompiledGates,
}

/// Compiles the circuit and registers its slot table on a
/// default-configured builder.
pub fn circuit_builder(
    circuit: &Circuit,
    tr: &mut Tracer,
) -> Res<(SchedulerBuilder, CircuitPlan, Vec<Shape>)> {
    let guide = Waveguide::paper_default()?;
    let compiled = tr.span("compiler.compile", crate::trace::ROOT, 0, || {
        compile(circuit, &guide, &CompilerConfig::default())
    })?;
    let mut builder = SchedulerBuilder::new(ServeConfig::default());
    let gates = register_compiled(
        &mut builder,
        &compiled,
        guide,
        WaveguideId(0),
        BackendChoice::Cached,
    )?;
    let shapes = gates
        .slots()
        .iter()
        .flat_map(|_| [Shape::Maj3, Shape::Xor2])
        .collect();
    Ok((builder, CircuitPlan { compiled, gates }, shapes))
}

/// `batches` batches of `sets` random circuit operand sets.
pub fn circuit_batches(
    rng: &mut Rng,
    inputs: usize,
    batches: usize,
    sets: usize,
) -> Vec<Vec<Vec<Word>>> {
    (0..batches)
        .map(|_| {
            (0..sets)
                .map(|_| (0..inputs).map(|_| rng.word()).collect())
                .collect()
        })
        .collect()
}

/// The gate-level requests a batch generates on `plan`: every MAJ/XOR
/// node of every set, with the operands the node sees, in node order.
/// Node values come from a bitwise walk of the netlist.
pub fn circuit_gate_requests(plan: &CircuitPlan, batch: &[Vec<Word>]) -> Vec<Req> {
    let circuit = plan.compiled.circuit();
    let kinds = circuit.node_kinds();
    let ids: Vec<_> = circuit.node_ids().collect();
    let mut reqs = Vec::new();
    for set in batch {
        let mut values: Vec<Word> = Vec::with_capacity(kinds.len());
        for (node, kind) in kinds.iter().enumerate() {
            let operands: Vec<Word> = kind
                .operands()
                .iter()
                .map(|op| values[op.index()])
                .collect();
            let value = match kind {
                NodeKind::Input { index } => set[*index],
                NodeKind::Constant(w) => *w,
                NodeKind::Not(_) => operands[0].not(),
                NodeKind::Maj3(..) | NodeKind::Xor2(..) => {
                    let shape = if matches!(kind, NodeKind::Maj3(..)) {
                        Shape::Maj3
                    } else {
                        Shape::Xor2
                    };
                    let expected = shape.expected(&operands);
                    let slot = plan
                        .compiled
                        .slot_of(ids[node])
                        .expect("gate nodes carry a slot");
                    let (maj, xor) = plan.gates.slots()[slot];
                    let gate = if shape == Shape::Maj3 { maj } else { xor };
                    reqs.push(Req {
                        gate: gate.index(),
                        set: OperandSet::new(operands),
                        expected,
                    });
                    Word::from_bits(expected, WIDTH).expect("masked to width")
                }
            };
            values.push(value);
        }
    }
    reqs
}
