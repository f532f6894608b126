//! Circuit compiler for data-parallel spin-wave netlists.
//!
//! [`magnon_circuits::netlist::Circuit`] gives the IR — typed MAJ/XOR/
//! NOT nodes over `n`-bit words — but its evaluation entry points walk
//! nodes in declaration order and leave every physical decision (which
//! waveguide, which frequency lane, what runs concurrently) to the
//! caller. This crate turns a netlist into a *plan* through four
//! distinct passes:
//!
//! 1. **validate** ([`validate::validate`]) — the circuit has outputs,
//!    its width fits a buildable channel plan on the target waveguide,
//!    the FDM lane grid the placer will pack into keeps its guard
//!    bands, and the deepest majority chain survives analytic
//!    cascading ([`magnon_core::cascade`]) with usable amplitude;
//! 2. **levelize** ([`levelize::levelize`]) — topological wavefronts
//!    with as-soon-as-possible scheduling, so gates of *independent*
//!    subgraphs land in the same level and can run concurrently;
//! 3. **place** ([`place::place`]) — bin-pack gate nodes onto
//!    `(waveguide, lane)` slots. Lanes stack onto one waveguide as
//!    long as their [`magnon_core::channel::ChannelPlan`]s stay
//!    disjoint with the grid's guard band and the
//!    [`magnon_core::crosstalk::LaneIsolationReport`] stays clean; the
//!    per-slot crosstalk penalty is the placement cost function, so
//!    FDM stacking and deep drains happen by construction;
//! 4. **emit** — a [`plan::CompiledCircuit`] bundling the circuit, its
//!    wavefronts, the slot table and a [`plan::CompileReport`].
//!
//! The `magnon-serve` crate executes compiled plans through its
//! scheduler with dependency-aware submission (each node's request
//! goes out the moment its inputs complete), which is where the
//! levelized/placed structure pays off: independent subgraphs
//! interleave across shards and lanes instead of the caller
//! serializing levels.
//!
//! # Examples
//!
//! ```
//! use magnon_circuits::netlist::Circuit;
//! use magnon_compiler::{compile, CompilerConfig};
//! use magnon_physics::waveguide::Waveguide;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut c = Circuit::new(8)?;
//! let a = c.input();
//! let b = c.input();
//! let cin = c.input();
//! let axb = c.xor2(a, b)?;
//! let sum = c.xor2(axb, cin)?;
//! let carry = c.maj3(a, b, cin)?;
//! c.mark_output(sum)?;
//! c.mark_output(carry)?;
//!
//! let compiled = compile(&c, &Waveguide::paper_default()?, &CompilerConfig::default())?;
//! assert_eq!(compiled.report().depth, 2); // xor2+maj3 share level 0
//! assert_eq!(compiled.report().max_level_width, 2);
//! # Ok(())
//! # }
//! ```

pub mod levelize;
pub mod place;
pub mod plan;
pub mod validate;

pub use levelize::{levelize, Levelized};
pub use place::{place, Placement, SlotSpec};
pub use plan::{CompileReport, CompiledCircuit};
pub use validate::{validate, ValidationReport};

use magnon_circuits::netlist::Circuit;
use magnon_core::GateError;
use magnon_physics::waveguide::Waveguide;
use std::fmt;

/// Tuning knobs of the compilation pipeline.
#[derive(Debug, Clone)]
pub struct CompilerConfig {
    /// Most physical waveguides the placer may claim.
    pub max_waveguides: usize,
    /// Most FDM lanes the placer may stack on one waveguide (the
    /// isolation threshold below may stop it earlier).
    pub max_lanes_per_waveguide: u16,
    /// Minimum inter-lane isolation (dB, Lorentzian leakage model) a
    /// stacked lane set must keep to be accepted — the crosstalk side
    /// of the placement cost function.
    pub min_isolation_db: f64,
    /// Lorentzian half-width (Hz) of an excited channel's line, set by
    /// Gilbert damping; feeds the leakage estimate.
    pub linewidth: f64,
    /// Smallest per-channel output amplitude (units of one nominal
    /// source wave) the worst-case majority cascade may decay to over
    /// the circuit's deepest MAJ chain before validation rejects the
    /// circuit.
    pub min_cascade_amplitude: f64,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            max_waveguides: 8,
            max_lanes_per_waveguide: 4,
            min_isolation_db: 20.0,
            linewidth: 0.5e9,
            min_cascade_amplitude: 1.0e-3,
        }
    }
}

/// Errors surfaced by the compilation passes.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The circuit failed the validation pass.
    Validation {
        /// What the validator rejected.
        reason: String,
    },
    /// The placer could not produce a legal slot assignment.
    Placement {
        /// What the placer ran out of.
        reason: String,
    },
    /// An underlying gate/channel-plan construction failed.
    Gate(GateError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Validation { reason } => write!(f, "circuit validation failed: {reason}"),
            CompileError::Placement { reason } => write!(f, "placement failed: {reason}"),
            CompileError::Gate(e) => write!(f, "gate model error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Gate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GateError> for CompileError {
    fn from(e: GateError) -> Self {
        CompileError::Gate(e)
    }
}

/// Runs the full pipeline — validate, levelize, place, emit — and
/// returns the executable plan.
///
/// # Errors
///
/// * [`CompileError::Validation`] for a circuit the validator rejects
///   (no outputs, infeasible cascade depth, broken lane grid).
/// * [`CompileError::Placement`] when no legal slot assignment exists
///   under `config`'s spectrum budget.
/// * [`CompileError::Gate`] for gate/plan construction failures on
///   `waveguide`.
pub fn compile(
    circuit: &Circuit,
    waveguide: &Waveguide,
    config: &CompilerConfig,
) -> Result<CompiledCircuit, CompileError> {
    let validation = validate(circuit, waveguide, config)?;
    let levelized = levelize(circuit);
    let placement = place(circuit, &levelized, waveguide, config)?;
    Ok(CompiledCircuit::emit(
        circuit.clone(),
        validation,
        levelized,
        placement,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnon_core::word::Word;

    fn full_adder() -> Circuit {
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

    #[test]
    fn compiles_a_full_adder() {
        let guide = Waveguide::paper_default().unwrap();
        let compiled = compile(&full_adder(), &guide, &CompilerConfig::default()).unwrap();
        let report = compiled.report();
        assert_eq!(report.width, 8);
        assert_eq!(report.gate_counts.maj3, 1);
        assert_eq!(report.gate_counts.xor2, 2);
        // ASAP: xor2(a,b) and maj3(a,b,cin) share level 0.
        assert_eq!(report.depth, 2);
        assert_eq!(report.max_level_width, 2);
        assert_eq!(compiled.levels().len(), 2);
        // Every gate node got a slot; free nodes did not.
        for id in compiled.circuit().node_ids() {
            let is_gate = compiled
                .circuit()
                .node_kind(id)
                .unwrap()
                .gate_shape()
                .is_some();
            assert_eq!(compiled.slot_of(id).is_some(), is_gate, "node {id:?}");
        }
    }

    #[test]
    fn rejects_output_free_circuits() {
        let guide = Waveguide::paper_default().unwrap();
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        c.xor2(a, b).unwrap();
        assert!(matches!(
            compile(&c, &guide, &CompilerConfig::default()),
            Err(CompileError::Validation { .. })
        ));
    }

    #[test]
    fn rejects_infeasible_cascade_depth() {
        let guide = Waveguide::paper_default().unwrap();
        let mut c = Circuit::new(8).unwrap();
        let a = c.input();
        let b = c.input();
        let d = c.input();
        let mut m = c.maj3(a, b, d).unwrap();
        m = c.maj3(m, a, b).unwrap();
        c.mark_output(m).unwrap();
        // An absurd amplitude floor makes any ≥2-deep MAJ chain fail.
        let config = CompilerConfig {
            min_cascade_amplitude: 10.0,
            ..CompilerConfig::default()
        };
        match compile(&c, &guide, &config) {
            Err(CompileError::Validation { reason }) => {
                assert!(reason.contains("cascade"), "{reason}");
            }
            other => panic!("expected a cascade validation error, got {other:?}"),
        }
    }

    #[test]
    fn constant_only_circuits_compile_to_zero_slots() {
        let guide = Waveguide::paper_default().unwrap();
        let mut c = Circuit::new(8).unwrap();
        let k = c.constant(Word::from_u8(0x5A)).unwrap();
        let n = c.not(k).unwrap();
        c.mark_output(n).unwrap();
        let compiled = compile(&c, &guide, &CompilerConfig::default()).unwrap();
        assert_eq!(compiled.report().depth, 0);
        assert!(compiled.slots().is_empty());
        assert_eq!(compiled.report().waveguides_used, 0);
    }
}
