//! Schedule policies: how the controller picks the next task at every
//! yield point.
//!
//! Both policies are deterministic functions of their constructor
//! arguments, which is what makes failures replayable: rerunning the
//! same policy over the same body takes the same interleaving and
//! records a byte-identical trace.

use magnon_core::sync::mcheck::{Choice, ChoicePoint, Policy};
// analyze: allow(std-sync-import) — the decision-count channel is checker
// bookkeeping, not modeled state; the façade would perturb the schedules.
use std::sync::{Arc, Mutex};

/// Seeded random interleaving search.
///
/// The workhorse: by default the current task keeps running
/// (run-to-block, like a real uncontended scheduler), and with
/// `preempt_percent` probability per yield point the policy instead
/// picks uniformly among every schedulable option — other runnable
/// tasks *and* pending timeouts (firing a timeout models the timed
/// wait returning late, which real timed waits are allowed to do).
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    state: u64,
    preempt_percent: u8,
}

impl RandomPolicy {
    /// A policy for `seed`, preempting at `preempt_percent`% of yield
    /// points (clamped to 100).
    pub fn new(seed: u64, preempt_percent: u8) -> Self {
        RandomPolicy {
            // splitmix64 pre-scramble so nearby seeds diverge at once.
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            preempt_percent: preempt_percent.min(100),
        }
    }

    /// splitmix64 — tiny, seedable, good enough for schedule sampling.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Policy for RandomPolicy {
    fn choose(&mut self, point: &ChoicePoint<'_>) -> Choice {
        let total = point.runnable.len() + point.timeoutable.len();
        debug_assert!(
            total > 0,
            "controller consulted policy with nothing schedulable"
        );
        let current_runnable = point.runnable.contains(&point.current);
        if current_runnable && total > 1 && (self.next_u64() % 100) as u8 >= self.preempt_percent {
            return Choice::Run(point.current);
        }
        let idx = (self.next_u64() % total as u64) as usize;
        if idx < point.runnable.len() {
            Choice::Run(point.runnable[idx])
        } else {
            Choice::FireTimeout(point.timeoutable[idx - point.runnable.len()])
        }
    }
}

/// The canonical option order at one choice point: continue the
/// current task first (the no-preemption default), then the other
/// runnable tasks, then pending timeouts. [`GuidedPolicy`] indexes
/// into this; option 0 is always "don't preempt" when that is
/// possible.
fn options(point: &ChoicePoint<'_>) -> Vec<Choice> {
    let mut opts = Vec::with_capacity(point.runnable.len() + point.timeoutable.len());
    if point.runnable.contains(&point.current) {
        opts.push(Choice::Run(point.current));
    }
    for &t in point.runnable {
        if t != point.current {
            opts.push(Choice::Run(t));
        }
    }
    for &t in point.timeoutable {
        opts.push(Choice::FireTimeout(t));
    }
    opts
}

/// Replays a decision path: at choice point `d` the policy takes
/// option `path[d]` (0 beyond the path's end — i.e. run to block).
/// Records how many options each choice point offered into a shared
/// vector so [`BoundedExplorer`] can branch.
#[derive(Debug)]
pub struct GuidedPolicy {
    path: Vec<usize>,
    depth: usize,
    counts: Arc<Mutex<Vec<usize>>>,
}

impl GuidedPolicy {
    /// A policy following `path`, reporting option counts through
    /// `counts`.
    pub fn new(path: Vec<usize>, counts: Arc<Mutex<Vec<usize>>>) -> Self {
        GuidedPolicy {
            path,
            depth: 0,
            counts,
        }
    }
}

impl Policy for GuidedPolicy {
    fn choose(&mut self, point: &ChoicePoint<'_>) -> Choice {
        let opts = options(point);
        self.counts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(opts.len());
        let pick = self.path.get(self.depth).copied().unwrap_or(0);
        self.depth += 1;
        opts[pick.min(opts.len() - 1)]
    }
}

/// Bounded-preemption exhaustive exploration (stateless model
/// checking, as in CHESS): enumerates every schedule whose decision
/// path diverges from the run-to-block default in at most
/// `max_preemptions` places. For small configs that is a *complete*
/// search of the low-preemption schedule space — where the vast
/// majority of real concurrency bugs live.
#[derive(Debug)]
pub struct BoundedExplorer {
    next_path: Option<Vec<usize>>,
    max_preemptions: usize,
}

impl BoundedExplorer {
    /// An explorer allowing `max_preemptions` non-default choices per
    /// schedule.
    pub fn new(max_preemptions: usize) -> Self {
        BoundedExplorer {
            next_path: Some(Vec::new()),
            max_preemptions,
        }
    }

    /// The next decision path to run, or `None` when the bounded space
    /// is exhausted.
    pub fn next_path(&self) -> Option<Vec<usize>> {
        self.next_path.clone()
    }

    /// Advances depth-first given the just-finished run: `path` is the
    /// path it followed, `counts` the option count at each of its
    /// choice points.
    pub fn advance(&mut self, path: &[usize], counts: &[usize]) {
        for d in (0..counts.len()).rev() {
            let val = path.get(d).copied().unwrap_or(0);
            if val + 1 >= counts[d] {
                continue;
            }
            let preemptions = path[..d.min(path.len())].iter().filter(|&&v| v > 0).count() + 1;
            if preemptions > self.max_preemptions {
                continue;
            }
            let mut next = path[..d.min(path.len())].to_vec();
            next.resize(d, 0);
            next.push(val + 1);
            self.next_path = Some(next);
            return;
        }
        self.next_path = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let mut a = RandomPolicy::new(42, 30);
        let mut b = RandomPolicy::new(42, 30);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = RandomPolicy::new(43, 30);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn bounded_explorer_enumerates_binary_tree() {
        // Three choice points, two options each, budget 1: the default
        // path plus one single-preemption path per depth = 4 schedules.
        let mut ex = BoundedExplorer::new(1);
        let mut seen = Vec::new();
        while let Some(path) = ex.next_path() {
            seen.push(path.clone());
            ex.advance(&path, &[2, 2, 2]);
        }
        assert_eq!(seen, vec![vec![], vec![0, 0, 1], vec![0, 1], vec![1]]);
    }

    #[test]
    fn bounded_explorer_budget_two_covers_pairs() {
        let mut ex = BoundedExplorer::new(2);
        let mut n = 0;
        while let Some(path) = ex.next_path() {
            n += 1;
            ex.advance(&path, &[2, 2, 2]);
        }
        // paths with ≤2 nonzero entries over 3 binary choice points:
        // C(3,0) + C(3,1) + C(3,2) = 1 + 3 + 3 = 7.
        assert_eq!(n, 7);
    }
}
