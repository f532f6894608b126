//! The exploration driver: runs a body under many schedules, dedupes
//! interleavings, and reports the first invariant violation with a
//! replay token.
//!
//! Executions are process-global (the controller serializes one at a
//! time), so every entry point here takes a global lock — concurrent
//! `cargo test` threads queue up instead of tripping the controller's
//! single-execution assert.

use crate::policy::{BoundedExplorer, GuidedPolicy, RandomPolicy};
use magnon_core::sync::mcheck::{run_execution, RunOutcome};
use std::collections::HashSet;
// analyze: allow(std-sync-import) — the controller's own lock cannot ride the
// façade it instruments: a modeled mutex would add yield points to every run.
use std::sync::{Arc, Mutex, MutexGuard};

static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    EXPLORE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Knobs for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Seeds to try, in order.
    pub seeds: std::ops::Range<u64>,
    /// Preemption probability per yield point (percent).
    pub preempt_percent: u8,
    /// Yield-point budget per run before the controller reports a
    /// livelock.
    pub step_limit: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seeds: 0..500,
            preempt_percent: 25,
            step_limit: 200_000,
        }
    }
}

/// How to reproduce one specific run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayToken {
    /// A [`RandomPolicy`] run: seed plus preemption percent.
    Seed {
        /// The failing seed.
        seed: u64,
        /// The preemption percent the exploration used.
        preempt_percent: u8,
    },
    /// A [`GuidedPolicy`] run from bounded-exhaustive mode: the
    /// decision path.
    Path(Vec<usize>),
}

impl std::fmt::Display for ReplayToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayToken::Seed {
                seed,
                preempt_percent,
            } => write!(f, "seed {seed} (preempt {preempt_percent}%)"),
            ReplayToken::Path(path) => write!(f, "path {path:?}"),
        }
    }
}

/// One invariant violation, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// How to rerun this exact interleaving.
    pub token: ReplayToken,
    /// The panic message or controller failure (deadlock/step limit).
    pub message: String,
    /// The rendered event trace of the failing run.
    pub trace: String,
    /// The schedule hash of the failing run (replays must match it).
    pub schedule_hash: u64,
}

/// What an exploration covered.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Runs executed.
    pub runs: u64,
    /// Distinct interleavings seen (by schedule hash).
    pub distinct_schedules: u64,
    /// The first failure, if any (exploration stops at it).
    pub failure: Option<Failure>,
}

impl ExploreReport {
    /// Panics with a replay-ready message when the exploration found a
    /// violation — the one-liner for tests.
    pub fn assert_clean(&self, scenario: &str) {
        if let Some(f) = &self.failure {
            panic!(
                "model check failed: scenario `{scenario}`, replay with {}\n\
                 failure: {}\ntrace ({} bytes):\n{}",
                f.token,
                f.message,
                f.trace.len(),
                tail(&f.trace, 40),
            );
        }
    }
}

/// The last `n` lines of a rendered trace (failing traces run long;
/// the tail holds the crime scene).
fn tail(trace: &str, n: usize) -> String {
    let lines: Vec<&str> = trace.lines().collect();
    let start = lines.len().saturating_sub(n);
    lines[start..].join("\n")
}

fn failure_of(outcome: &RunOutcome, token: ReplayToken) -> Option<Failure> {
    let message = match (&outcome.failure, &outcome.root_panic) {
        (Some(fail), Some(panic)) => format!("{fail}; root panic: {panic}"),
        (Some(fail), None) => fail.to_string(),
        (None, Some(panic)) => format!("root panic: {panic}"),
        (None, None) => return None,
    };
    Some(Failure {
        token,
        message,
        trace: outcome.trace.render(),
        schedule_hash: outcome.trace.schedule_hash(),
    })
}

/// Runs `body` once under a seeded random schedule. Returns the raw
/// outcome (trace included) — [`replay`]'s workhorse.
pub fn run_seed<F>(body: F, seed: u64, preempt_percent: u8, step_limit: u64) -> RunOutcome
where
    F: Fn() + Send + Sync + Clone + 'static,
{
    let _g = lock();
    run_seed_locked(body, seed, preempt_percent, step_limit)
}

fn run_seed_locked<F>(body: F, seed: u64, preempt_percent: u8, step_limit: u64) -> RunOutcome
where
    F: Fn() + Send + Sync + Clone + 'static,
{
    run_execution(
        Box::new(RandomPolicy::new(seed, preempt_percent)),
        step_limit,
        body,
    )
}

/// Reruns one specific schedule from its token. The returned outcome's
/// trace is byte-identical to the original run's (same body, same
/// token ⇒ same interleaving).
pub fn replay<F>(body: F, token: &ReplayToken, step_limit: u64) -> RunOutcome
where
    F: Fn() + Send + Sync + Clone + 'static,
{
    let _g = lock();
    match token {
        ReplayToken::Seed {
            seed,
            preempt_percent,
        } => run_seed_locked(body, *seed, *preempt_percent, step_limit),
        ReplayToken::Path(path) => {
            let counts = Arc::new(Mutex::new(Vec::new()));
            run_execution(
                Box::new(GuidedPolicy::new(path.clone(), counts)),
                step_limit,
                body,
            )
        }
    }
}

/// Seeded random interleaving search: runs `body` once per seed,
/// stopping at the first violation.
pub fn explore<F>(body: F, config: &ExploreConfig) -> ExploreReport
where
    F: Fn() + Send + Sync + Clone + 'static,
{
    let _g = lock();
    let mut hashes = HashSet::new();
    let mut runs = 0u64;
    for seed in config.seeds.clone() {
        let outcome = run_seed_locked(
            body.clone(),
            seed,
            config.preempt_percent,
            config.step_limit,
        );
        runs += 1;
        hashes.insert(outcome.trace.schedule_hash());
        let token = ReplayToken::Seed {
            seed,
            preempt_percent: config.preempt_percent,
        };
        if let Some(failure) = failure_of(&outcome, token) {
            return ExploreReport {
                runs,
                distinct_schedules: hashes.len() as u64,
                failure: Some(failure),
            };
        }
    }
    ExploreReport {
        runs,
        distinct_schedules: hashes.len() as u64,
        failure: None,
    }
}

/// Bounded-preemption exhaustive mode: enumerates every schedule with
/// at most `max_preemptions` non-default decisions (complete for small
/// configs), capped at `max_runs`.
pub fn explore_bounded<F>(
    body: F,
    max_preemptions: usize,
    step_limit: u64,
    max_runs: u64,
) -> ExploreReport
where
    F: Fn() + Send + Sync + Clone + 'static,
{
    let _g = lock();
    let mut explorer = BoundedExplorer::new(max_preemptions);
    let mut hashes = HashSet::new();
    let mut runs = 0u64;
    while let Some(path) = explorer.next_path() {
        if runs >= max_runs {
            break;
        }
        let counts = Arc::new(Mutex::new(Vec::new()));
        let outcome = run_execution(
            Box::new(GuidedPolicy::new(path.clone(), Arc::clone(&counts))),
            step_limit,
            {
                let body = body.clone();
                move || body()
            },
        );
        runs += 1;
        hashes.insert(outcome.trace.schedule_hash());
        if let Some(failure) = failure_of(&outcome, ReplayToken::Path(path.clone())) {
            return ExploreReport {
                runs,
                distinct_schedules: hashes.len() as u64,
                failure: Some(failure),
            };
        }
        let counts = counts.lock().unwrap_or_else(|e| e.into_inner());
        explorer.advance(&path, &counts);
    }
    ExploreReport {
        runs,
        distinct_schedules: hashes.len() as u64,
        failure: None,
    }
}
