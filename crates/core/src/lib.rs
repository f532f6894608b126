//! n-bit data-parallel spin-wave logic gates — the primary contribution
//! of *"n-bit Data Parallel Spin Wave Logic Gate"* (DATE 2020).
//!
//! Spin waves with different frequencies coexist in one waveguide and
//! interfere only with their own frequency. This crate turns that
//! property into a computing primitive:
//!
//! 1. [`channel`] allocates `n` frequency channels above the waveguide's
//!    FMR (the paper uses 10–80 GHz),
//! 2. [`inline`] places `m × n` excitation transducers and `n` detectors
//!    along a single waveguide, spacing same-frequency sources by integer
//!    multiples of their channel wavelength (Fig. 2 of the paper),
//! 3. [`gate`] wraps this into a [`gate::ParallelGate`] evaluating the
//!    same `m`-input logic function ([`truth::LogicFunction::Majority`]
//!    or [`truth::LogicFunction::Xor`]) on `n` independent data sets
//!    *simultaneously*,
//! 4. [`backend`] evaluates gates through pluggable
//!    [`backend::SpinWaveBackend`]s — the analytic superposition
//!    [`engine`], a per-gate truth table ([`backend::GateTable`]), or
//! 5. [`micromag_bridge`], the full LLG simulator reproducing the
//!    paper's OOMMF methodology, all behind the same interface,
//! 6. [`scalability`] computes the graded input-energy schedules of the
//!    paper's §V scalability discussion, and [`crosstalk`] quantifies
//!    inter-channel isolation.
//!
//! # Quickstart
//!
//! Single-shot evaluation stays one call:
//!
//! ```
//! use magnon_core::prelude::*;
//! use magnon_physics::waveguide::Waveguide;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gate = ParallelGateBuilder::new(Waveguide::paper_default()?)
//!     .channels(8)
//!     .inputs(3)
//!     .function(LogicFunction::Majority)
//!     .build()?;
//!
//! // Eight 3-input majority votes in one waveguide:
//! let a = Word::from_u8(0b1010_1010);
//! let b = Word::from_u8(0b1100_1100);
//! let c = Word::from_u8(0b1111_0000);
//! let out = gate.evaluate(&[a, b, c])?;
//! assert_eq!(out.word().to_u8(), 0b1110_1000);
//! # Ok(())
//! # }
//! ```
//!
//! For throughput, open a [`backend::GateSession`]: the channel plan,
//! layout, constructive references and equalised amplitudes are
//! compiled once, then batches stream through the chosen backend —
//! analytic, cached (truth table) or micromagnetic, switchable with
//! one argument:
//!
//! ```
//! use magnon_core::prelude::*;
//! use magnon_physics::waveguide::Waveguide;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gate = ParallelGateBuilder::new(Waveguide::paper_default()?)
//!     .channels(8)
//!     .inputs(3)
//!     .build()?;
//!
//! // One argument picks the engine: Analytic | Cached | Micromag(_).
//! let mut session = gate.session(BackendChoice::Cached)?;
//! let batch: Vec<OperandSet> = (0u8..32)
//!     .map(|i| OperandSet::new(vec![
//!         Word::from_u8(i.wrapping_mul(37)),
//!         Word::from_u8(i.wrapping_mul(59)),
//!         Word::from_u8(i.wrapping_mul(83)),
//!     ]))
//!     .collect();
//! let outputs = session.evaluate_batch(&batch)?;
//! assert_eq!(outputs.len(), 32);
//! // Batched results are identical to single-shot evaluation:
//! for (set, out) in batch.iter().zip(&outputs) {
//!     assert_eq!(out.word(), gate.evaluate(set.words())?.word());
//! }
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod cascade;
pub mod channel;
pub mod crosstalk;
pub mod encoding;
pub mod engine;
pub mod error;
pub mod gate;
pub mod inline;
pub mod layout_report;
pub mod micromag_bridge;
pub mod robustness;
pub mod scalability;
pub mod sync;
pub mod truth;
pub mod word;

pub use error::GateError;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::backend::{
        AnalyticBackend, BackendChoice, CachedBackend, GateSession, GateTable, LutStats,
        MicromagBackend, OperandSet, SpinWaveBackend,
    };
    pub use crate::channel::{ChannelPlan, FrequencyChannel};
    pub use crate::encoding::ReadoutMode;
    pub use crate::gate::{
        FrequencyLane, GateOutput, LaneId, ParallelGate, ParallelGateBuilder, WaveguideId,
    };
    pub use crate::truth::LogicFunction;
    pub use crate::word::Word;
    pub use crate::GateError;
}
