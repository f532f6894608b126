//! Error type for gate design and evaluation.

use magnon_math::MathError;
use magnon_micromag::SimError;
use magnon_physics::PhysicsError;
use std::fmt;

/// Errors produced while designing or evaluating data-parallel spin-wave
/// gates.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// A design parameter was out of range.
    InvalidParameter {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Rejected value.
        value: f64,
    },
    /// The channel count or input count is unsupported by the requested
    /// logic function (e.g. even-input majority, non-2-input XOR).
    UnsupportedFunction {
        /// Description of the constraint that was violated.
        reason: &'static str,
    },
    /// A requested channel frequency is unusable (below FMR, duplicate,
    /// or above the mesh Nyquist during validation).
    BadChannelFrequency {
        /// The frequency in Hz.
        frequency: f64,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// The layout solver could not place all transducers without
    /// overlap.
    LayoutCollision {
        /// Number of repair iterations attempted.
        attempts: usize,
    },
    /// A layout handed to the evaluation engine is internally
    /// inconsistent (e.g. a channel without its detector). Surfaced as
    /// an error by the backend API instead of panicking.
    MalformedLayout {
        /// The offending channel index.
        channel: usize,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// Word width does not match the gate's channel count.
    WordWidthMismatch {
        /// Expected width (channel count).
        expected: usize,
        /// Provided word width.
        actual: usize,
    },
    /// Wrong number of input words for this gate.
    InputCountMismatch {
        /// Expected input count `m`.
        expected: usize,
        /// Provided input count.
        actual: usize,
    },
    /// A word operation addressed a bit outside the word.
    BitIndexOutOfRange {
        /// Requested bit index.
        index: usize,
        /// Word width.
        width: usize,
    },
    /// A serving-runtime failure outside the gate model itself (e.g. a
    /// scheduler worker that went away mid-request).
    Runtime {
        /// What went wrong.
        reason: String,
    },
    /// An underlying physics computation failed.
    Physics(PhysicsError),
    /// An underlying micromagnetic simulation failed.
    Simulation(SimError),
    /// An underlying numerical routine failed.
    Math(MathError),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::InvalidParameter { parameter, value } => {
                write!(f, "parameter `{parameter}` is invalid: {value}")
            }
            GateError::UnsupportedFunction { reason } => {
                write!(f, "unsupported logic configuration: {reason}")
            }
            GateError::BadChannelFrequency { frequency, reason } => {
                write!(f, "channel frequency {frequency:.3e} Hz rejected: {reason}")
            }
            GateError::LayoutCollision { attempts } => {
                write!(
                    f,
                    "layout collision unresolved after {attempts} repair iterations"
                )
            }
            GateError::MalformedLayout { channel, reason } => {
                write!(f, "malformed layout at channel {channel}: {reason}")
            }
            GateError::WordWidthMismatch { expected, actual } => {
                write!(
                    f,
                    "word width {actual} does not match the gate's {expected} channels"
                )
            }
            GateError::InputCountMismatch { expected, actual } => {
                write!(f, "gate expects {expected} input words, got {actual}")
            }
            GateError::BitIndexOutOfRange { index, width } => {
                write!(f, "bit index {index} out of range for a {width}-bit word")
            }
            GateError::Runtime { reason } => {
                write!(f, "runtime error: {reason}")
            }
            GateError::Physics(e) => write!(f, "physics error: {e}"),
            GateError::Simulation(e) => write!(f, "simulation error: {e}"),
            GateError::Math(e) => write!(f, "numerical error: {e}"),
        }
    }
}

impl std::error::Error for GateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GateError::Physics(e) => Some(e),
            GateError::Simulation(e) => Some(e),
            GateError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PhysicsError> for GateError {
    fn from(e: PhysicsError) -> Self {
        GateError::Physics(e)
    }
}

impl From<SimError> for GateError {
    fn from(e: SimError) -> Self {
        GateError::Simulation(e)
    }
}

impl From<MathError> for GateError {
    fn from(e: MathError) -> Self {
        GateError::Math(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = GateError::WordWidthMismatch {
            expected: 8,
            actual: 4,
        };
        assert!(e.to_string().contains('8'));
        let e = GateError::LayoutCollision { attempts: 100 };
        assert!(e.to_string().contains("100"));
        let e = GateError::MalformedLayout {
            channel: 3,
            reason: "missing detector",
        };
        assert!(e.to_string().contains("channel 3"));
        assert!(e.to_string().contains("missing detector"));
        let e = GateError::Runtime {
            reason: "worker gone".into(),
        };
        assert!(e.to_string().contains("worker gone"));
    }

    #[test]
    fn conversions_and_sources() {
        use std::error::Error;
        let e: GateError = PhysicsError::NotPerpendicular {
            internal_field: -1.0,
        }
        .into();
        assert!(e.source().is_some());
        let e: GateError = SimError::NothingToDo.into();
        assert!(matches!(e, GateError::Simulation(_)));
        let e: GateError = MathError::EmptyInput.into();
        assert!(matches!(e, GateError::Math(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GateError>();
    }
}
