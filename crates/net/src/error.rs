//! Error type for the network front-end.

use std::fmt;

/// Error codes a server puts on the wire (the `code` byte of an error
/// frame). Kept separate from [`NetError`] so the wire representation
/// stays a stable one-byte enum while the client-side error can carry
/// context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireErrorCode {
    /// The submitted gate index was never registered.
    UnknownGate = 1,
    /// The scheduler refused the request's operands (wrong count or
    /// word width).
    Gate = 2,
    /// The server's completion deadline elapsed (the writer pump never
    /// blocks forever on a lost completion).
    Timeout = 3,
    /// The serving runtime behind the server has shut down.
    Shutdown = 4,
    /// The peer broke the framing or handshake rules.
    Protocol = 5,
    /// The submit pinned a frequency lane that does not match the
    /// target gate's advertised lane (protocol v2).
    LaneMismatch = 6,
}

impl WireErrorCode {
    /// Decodes the wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(WireErrorCode::UnknownGate),
            2 => Some(WireErrorCode::Gate),
            3 => Some(WireErrorCode::Timeout),
            4 => Some(WireErrorCode::Shutdown),
            5 => Some(WireErrorCode::Protocol),
            6 => Some(WireErrorCode::LaneMismatch),
            _ => None,
        }
    }
}

/// Errors surfaced by the protocol codec, server and client.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io {
        /// What was being attempted.
        action: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The peer sent bytes that do not decode as a valid frame
    /// (bad magic, bad checksum, truncation, out-of-range fields).
    Protocol {
        /// What was malformed.
        reason: String,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version this side speaks.
        ours: u16,
        /// Version the peer announced.
        theirs: u16,
    },
    /// The server answered a request with an error frame.
    Remote {
        /// The wire error code.
        code: WireErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// A client-side wait deadline elapsed.
    Timeout,
    /// The submitted gate index is not in the server's directory, or
    /// the operands do not match its advertised shape (caught
    /// client-side, before any bytes move).
    BadRequest {
        /// What was wrong with the request.
        reason: String,
    },
    /// Backpressure retries were exhausted: the server kept answering
    /// retry-after past the client's configured budget.
    RetriesExhausted {
        /// Retries attempted before giving up.
        attempts: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { action, source } => write!(f, "failed to {action}: {source}"),
            NetError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            NetError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak {ours}, the peer announced {theirs}"
            ),
            NetError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            NetError::Timeout => write!(f, "the wait deadline elapsed"),
            NetError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            NetError::RetriesExhausted { attempts } => write!(
                f,
                "gave up after {attempts} backpressure retries (server queue stayed full)"
            ),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl NetError {
    /// Wraps an I/O error with the action that failed.
    pub(crate) fn io(action: &'static str, source: std::io::Error) -> Self {
        NetError::Io { action, source }
    }

    /// Convenience constructor for malformed-input errors.
    pub(crate) fn protocol(reason: impl Into<String>) -> Self {
        NetError::Protocol {
            reason: reason.into(),
        }
    }

    /// `true` for errors that poison the connection (framing is lost or
    /// the socket is dead), as opposed to per-request failures.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            NetError::Io { .. } | NetError::Protocol { .. } | NetError::VersionMismatch { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        assert!(NetError::io("connect", std::io::Error::other("boom"))
            .to_string()
            .contains("connect"));
        assert!(NetError::protocol("bad magic")
            .to_string()
            .contains("bad magic"));
        let v = NetError::VersionMismatch { ours: 1, theirs: 9 };
        assert!(v.to_string().contains('9') && v.is_fatal());
        let r = NetError::Remote {
            code: WireErrorCode::Timeout,
            message: "deadline".into(),
        };
        assert!(r.to_string().contains("Timeout") && !r.is_fatal());
        assert!(NetError::Timeout.to_string().contains("deadline"));
        assert!(NetError::BadRequest {
            reason: "3 operands".into()
        }
        .to_string()
        .contains("3 operands"));
        assert!(NetError::RetriesExhausted { attempts: 64 }
            .to_string()
            .contains("64"));
    }

    #[test]
    fn wire_codes_roundtrip() {
        for code in [
            WireErrorCode::UnknownGate,
            WireErrorCode::Gate,
            WireErrorCode::Timeout,
            WireErrorCode::Shutdown,
            WireErrorCode::Protocol,
            WireErrorCode::LaneMismatch,
        ] {
            assert_eq!(WireErrorCode::from_byte(code as u8), Some(code));
        }
        assert_eq!(WireErrorCode::from_byte(0), None);
        assert_eq!(WireErrorCode::from_byte(99), None);
    }
}
