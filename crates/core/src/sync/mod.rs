//! Synchronization façade for the serving stack.
//!
//! Concurrent code in this workspace (`magnon-serve`, `magnon-net`)
//! imports its sync primitives, threads, and monotonic clocks from
//! here instead of `std` directly:
//!
//! ```ignore
//! use magnon_core::sync::atomic::{AtomicU64, Ordering};
//! use magnon_core::sync::mpsc;
//! use magnon_core::sync::thread;
//! use magnon_core::sync::time::{Duration, Instant};
//! use magnon_core::sync::{Arc, Mutex};
//! ```
//!
//! In a normal build this module is a zero-cost pile of `pub use
//! std::…` re-exports — same types, same codegen, nothing to audit.
//! Compiled with `RUSTFLAGS="--cfg mcheck"` the same paths resolve to
//! instrumented shims: every atomic access, lock transition, channel
//! op, park/unpark, spawn/join, and clock read routes through a
//! deterministic execution controller that records a replayable trace
//! and lets a schedule policy choose the interleaving. The
//! `magnon-check` crate drives it; see `crates/check`.
//!
//! `mcheck` is a *custom cfg*, not a cargo feature, on purpose:
//! feature unification would let one crate's dev-dependency switch the
//! shims on for every build in the graph. A cfg only exists when the
//! person running the build asks for it.

#[cfg(mcheck)]
mod exec;
#[cfg(mcheck)]
mod shim;

/// The model-check controller API (`cfg(mcheck)` only): execution
/// driving, policies, traces. `magnon-check` is the intended consumer.
#[cfg(mcheck)]
pub mod mcheck {
    pub use super::exec::{
        op, run_execution, Choice, ChoicePoint, Event, FailureKind, ObjectId, Policy, RunOutcome,
        TaskId, Trace,
    };
}

#[cfg(mcheck)]
pub use shim::{atomic, mpsc, thread, time, LockResult, Mutex, MutexGuard, PoisonError};

/// `Arc` needs no instrumentation: it is reference counting, not
/// scheduling — shared either way.
pub use std::sync::{Arc, Weak};

#[cfg(not(mcheck))]
pub use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock};

/// Atomics: `std::sync::atomic` re-exported (instrumented under
/// `mcheck`).
#[cfg(not(mcheck))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

/// Channels: `std::sync::mpsc` re-exported (instrumented under
/// `mcheck`).
#[cfg(not(mcheck))]
pub mod mpsc {
    pub use std::sync::mpsc::*;
}

/// Threads: `std::thread` re-exported (instrumented under `mcheck`).
#[cfg(not(mcheck))]
pub mod thread {
    pub use std::thread::*;
}

/// Monotonic time: `std::time` re-exported (`Instant` is virtualized
/// under `mcheck` so traces are deterministic).
#[cfg(not(mcheck))]
pub mod time {
    pub use std::time::{Duration, Instant};
}
