//! # spinwave-parallel
//!
//! A comprehensive Rust reproduction of *"n-bit Data Parallel Spin Wave
//! Logic Gate"* (Mahmoud, Vanderveken, Ciubotaru, Adelmann, Cotofana,
//! Hamdioui — DATE 2020, arXiv:2109.05229).
//!
//! Spin waves of different frequencies coexist in one waveguide and only
//! interfere with their own frequency. This umbrella crate re-exports
//! the whole workspace:
//!
//! * [`math`] — FFT, Goertzel, ODE integrators, root finding,
//! * [`physics`] — materials, demagnetizing factors, dispersion, damping,
//! * [`micromag`] — finite-difference LLG simulator (the OOMMF-class
//!   substrate used for validation),
//! * [`core`] — the paper's contribution: `n`-bit data-parallel
//!   multi-frequency in-line logic gates (majority, XOR) behind
//!   pluggable evaluation backends (analytic superposition, precompiled
//!   truth-table cache, full LLG micromagnetics),
//! * [`cost`] — area/delay/energy models and the scalar-vs-parallel
//!   comparison of the paper's §V.B,
//! * [`circuits`] — word-level circuits (full adders, parity trees)
//!   composed from data-parallel gates, evaluable on any backend,
//! * [`serve`] — the sharded serving runtime: a waveguide-aware
//!   scheduler that coalesces requests within and across gates and
//!   answers every gate from one truth table built at registration,
//! * [`net`] — the TCP front-end over the scheduler: a versioned
//!   checksummed binary wire protocol, a threaded server, and a
//!   blocking pipelined client, so remote request streams join the
//!   same waveguide batches.
//!
//! # Quickstart
//!
//! Build a byte-wide (8-channel) 3-input majority gate and evaluate all
//! eight data sets at once:
//!
//! ```
//! use spinwave_parallel::core::prelude::*;
//! use spinwave_parallel::physics::waveguide::Waveguide;
//! use spinwave_parallel::physics::material::Material;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let guide = Waveguide::paper_default()?;
//! let gate = ParallelGateBuilder::new(guide)
//!     .channels(8)
//!     .inputs(3)
//!     .function(LogicFunction::Majority)
//!     .build()?;
//!
//! let a = Word::from_u8(0b1010_1010);
//! let b = Word::from_u8(0b1100_1100);
//! let c = Word::from_u8(0b1111_0000);
//! let out = gate.evaluate(&[a, b, c])?;
//! assert_eq!(out.word().to_u8(), (0b1010_1010u8 & 0b1100_1100)
//!     | (0b1010_1010u8 & 0b1111_0000)
//!     | (0b1100_1100u8 & 0b1111_0000));
//! # let _ = Material::fe_co_b();
//! # Ok(())
//! # }
//! ```
//!
//! # Batched serving through backends
//!
//! For throughput, open a [`core::backend::GateSession`]: the channel
//! plan, layout, constructive references and equalised drive amplitudes
//! are compiled **once**, then any number of operand sets stream
//! through the chosen [`core::backend::SpinWaveBackend`] —
//!
//! * [`BackendChoice::Analytic`] — exact wave superposition,
//! * [`BackendChoice::Cached`] — the gate's per-channel truth table,
//!   built once, answered by a bit-sliced kernel,
//! * [`BackendChoice::Micromag`] — the full LLG simulator behind the
//!   same interface (the paper's OOMMF methodology).
//!
//! [`BackendChoice::Analytic`]: core::backend::BackendChoice::Analytic
//! [`BackendChoice::Cached`]: core::backend::BackendChoice::Cached
//! [`BackendChoice::Micromag`]: core::backend::BackendChoice::Micromag
//!
//! ```
//! use spinwave_parallel::core::prelude::*;
//! use spinwave_parallel::physics::waveguide::Waveguide;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gate = ParallelGateBuilder::new(Waveguide::paper_default()?)
//!     .channels(8)
//!     .inputs(3)
//!     .build()?;
//! let mut session = gate.session(BackendChoice::Cached)?;
//! let batch: Vec<OperandSet> = (0u8..64)
//!     .map(|i| OperandSet::new(vec![
//!         Word::from_u8(i.wrapping_mul(37)),
//!         Word::from_u8(i.wrapping_mul(59)),
//!         Word::from_u8(i.wrapping_mul(83)),
//!     ]))
//!     .collect();
//! let outputs = session.evaluate_batch(&batch)?;
//! assert_eq!(outputs.len(), 64);
//! # Ok(())
//! # }
//! ```
//!
//! Whole circuits switch engines the same way: a
//! [`circuits::netlist::GateBank`] holds one session per gate shape, so
//! `circuit.evaluate_with(&mut bank, …)` runs every MAJ/XOR node on the
//! bank's backend — analytic, cached, or micromagnetic — with one line
//! changed.
//!
//! # Serving at scale
//!
//! For sustained traffic, hand the gates to the
//! [`serve::Scheduler`]: each waveguide's gates live on one worker
//! shard, fixed at build time; requests queue on bounded per-shard
//! channels and coalesce under a batch-size/linger policy (within a
//! gate *and* across gates sharing a [`core::gate::WaveguideId`], whose
//! frequency lanes stack into one FDM pass); every worker answers from
//! the same per-gate truth tables, built once at
//! [`serve::SchedulerBuilder::build`].
//!
//! Whole circuits are served one way: compile the netlist to a
//! scheduler-ready plan with [`compiler::compile`] (ASAP wavefronts,
//! spectrum-aware FDM placement onto `(waveguide, lane)` slots) and
//! run it through [`serve::CircuitExecutor`] with dependency-aware
//! pipelined submission. See `examples/serve_compiled.rs` and
//! `examples/serve_pipeline.rs`.

pub use magnon_circuits as circuits;
pub use magnon_compiler as compiler;
pub use magnon_core as core;
pub use magnon_cost as cost;
pub use magnon_math as math;
pub use magnon_micromag as micromag;
pub use magnon_net as net;
pub use magnon_physics as physics;
pub use magnon_serve as serve;
