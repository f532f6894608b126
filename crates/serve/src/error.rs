//! Error type for the serving runtime.

use crate::scheduler::ShutdownReport;
use magnon_core::GateError;
use std::fmt;

/// Errors surfaced by the scheduler and its client handles.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The gate model itself failed (operand shape, table size, backend
    /// error).
    Gate(GateError),
    /// A [`crate::ServeConfig`] or registration that cannot produce a
    /// working runtime (e.g. `max_batch == 0`, which would silently
    /// disable batching, a duplicate gate name, or a gate whose truth
    /// table exceeds the size cap).
    Config {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// A [`crate::GateId`] that was never registered with this
    /// scheduler.
    UnknownGate {
        /// The unregistered index.
        index: usize,
    },
    /// The target shard's bounded queue is full (only from
    /// [`crate::Scheduler::try_submit`]; blocking submission applies
    /// backpressure instead).
    QueueFull {
        /// The shard whose queue rejected the request.
        shard: usize,
    },
    /// A wait deadline elapsed before the completion arrived (only from
    /// [`crate::Ticket::wait_timeout`]; the request may still complete
    /// later and can be waited on again).
    Timeout,
    /// One or more workers panicked during [`crate::Scheduler::shutdown`].
    /// The surviving shards were still joined — the enclosed report
    /// carries the final counters.
    WorkerPanicked {
        /// Shards whose worker threads panicked.
        shards: Vec<usize>,
        /// The shutdown report assembled from the surviving workers.
        report: Box<ShutdownReport>,
    },
    /// The runtime (or the worker owning the request) has shut down.
    Shutdown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Gate(e) => write!(f, "gate error: {e}"),
            ServeError::Config { reason } => {
                write!(f, "invalid serving configuration: {reason}")
            }
            ServeError::UnknownGate { index } => {
                write!(f, "gate id {index} was not registered with this scheduler")
            }
            ServeError::QueueFull { shard } => {
                write!(f, "shard {shard}'s request queue is full")
            }
            ServeError::Timeout => {
                write!(f, "the wait deadline elapsed before the completion arrived")
            }
            ServeError::WorkerPanicked { shards, report } => {
                write!(
                    f,
                    "worker shard(s) {shards:?} panicked during shutdown ({} requests \
                     completed)",
                    report.stats.completed
                )
            }
            ServeError::Shutdown => write!(f, "the serving runtime has shut down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Gate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GateError> for ServeError {
    fn from(e: GateError) -> Self {
        ServeError::Gate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: ServeError = GateError::InputCountMismatch {
            expected: 3,
            actual: 1,
        }
        .into();
        assert!(e.to_string().contains("gate error"));
        assert!(matches!(
            e,
            ServeError::Gate(GateError::InputCountMismatch { .. })
        ));
        let e = ServeError::QueueFull { shard: 2 };
        assert!(e.to_string().contains("shard 2"));
        assert!(ServeError::Shutdown.to_string().contains("shut down"));
        assert!(ServeError::Timeout.to_string().contains("deadline"));
        let e = ServeError::Config {
            reason: "max_batch must be at least 1".into(),
        };
        assert!(e.to_string().contains("invalid serving configuration"));
        assert!(ServeError::UnknownGate { index: 9 }
            .to_string()
            .contains('9'));
    }
}
