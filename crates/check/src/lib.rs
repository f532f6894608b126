//! Deterministic concurrency model checker for the serving stack.
//!
//! This crate only does something useful when the workspace is built
//! with `RUSTFLAGS="--cfg mcheck"`: that switches the
//! [`magnon_core::sync`] façade from plain `std` re-exports to
//! instrumented shims, and every atomic access, lock transition,
//! channel op, spawn/join, park/unpark, and clock read in
//! `magnon-serve` / `magnon-net` becomes a *yield point* where a
//! schedule policy decides which thread runs next. On top of that this
//! crate provides:
//!
//! * `policy` — schedule policies: seeded random interleaving search
//!   (`RandomPolicy`) and bounded-preemption exhaustive enumeration
//!   (`BoundedExplorer`);
//! * `harness` — the exploration driver: run a closure under many
//!   schedules, dedupe interleavings by trace hash, and surface the
//!   first invariant violation with a replay token that reproduces the
//!   failing run byte-for-byte;
//! * `scenarios` — the serving-stack invariant suite (every ticket
//!   completes exactly once, the queue gauge never goes negative and
//!   drains to zero, shutdown joins all workers under an injected
//!   panic, timed-out tickets stay redeemable, the executor's harvest
//!   park loop never loses a wakeup, and connection reaping joins
//!   every handle outside the registry lock).
//!
//! Run it:
//!
//! ```text
//! RUSTFLAGS="--cfg mcheck" cargo run -p magnon-check --release -- --seeds 2000
//! RUSTFLAGS="--cfg mcheck" cargo test -p magnon-check --release
//! ```
//!
//! A failure prints its scenario, its replay token (a seed, or a
//! decision path in exhaustive mode), and the recorded trace; feed the
//! token back (`--replay-seed N --scenario S`) to reproduce the exact
//! interleaving. In a normal build (no `mcheck` cfg) the façade is
//! `std` and this crate compiles down to [`enabled`] returning
//! `false`.

/// Whether this build carries the model-check instrumentation
/// (`RUSTFLAGS="--cfg mcheck"`).
pub fn enabled() -> bool {
    cfg!(mcheck)
}

#[cfg(mcheck)]
pub mod harness;
#[cfg(mcheck)]
pub mod policy;
#[cfg(mcheck)]
pub mod scenarios;

#[cfg(mcheck)]
pub use harness::{
    explore, explore_bounded, replay, ExploreConfig, ExploreReport, Failure, ReplayToken,
};
#[cfg(mcheck)]
pub use policy::{BoundedExplorer, GuidedPolicy, RandomPolicy};
