//! Lock-free serving telemetry and the adaptive placement table.
//!
//! Every hot-path touch point is a relaxed atomic: submitters bump a
//! per-lane request counter and read the placement table, workers
//! publish drain sizes and queue depths. Nothing here takes a lock on
//! the request path; the only coordination is a compare-and-swap guard
//! around the (rare, submission-driven) placement review.
//!
//! Two adaptive policies consume the counters (both tunable through
//! [`AdaptiveConfig`], each individually switchable):
//!
//! * **hot-waveguide rebalancing** — every
//!   [`AdaptiveConfig::rebalance_interval`] submissions, the placement
//!   of waveguides over shards is reviewed: when the busiest shard
//!   carries more than [`AdaptiveConfig::rebalance_ratio`] times the
//!   load of the idlest one, a co-tenant waveguide is moved off the hot
//!   shard, so a hot waveguide ends up with a shard (mostly) to itself;
//! * **cross-waveguide fusion** — consumed by the worker drain loop
//!   (see `scheduler.rs`): when a drain is deeper than
//!   [`AdaptiveConfig::fusion_threshold`], requests for
//!   design-compatible gates on *different* waveguides merge into one
//!   `evaluate_batch` call.
//!
//! [`Scheduler::telemetry`](crate::Scheduler::telemetry) exposes a
//! consistent-enough point-in-time [`TelemetrySnapshot`] for dashboards
//! and tests. Request counters decay (halve) at every placement review,
//! so placement follows *recent* traffic, not all-time totals.
//!
//! # Lanes
//!
//! Since the FDM extension (arXiv:2008.12220's multi-frequency
//! parallelism), the placement/counter unit is one *frequency lane* —
//! a `(`[`WaveguideId`]`, `[`LaneId`]`)` pair. Lanes of one waveguide
//! start co-resident (so their drains coalesce into multi-lane FDM
//! passes) but are independently movable by the rebalancer when load
//! skews; per-lane request and served counters plus per-shard FDM pass
//! counters surface in the snapshot.

use magnon_core::gate::{LaneId, WaveguideId};
use magnon_core::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use magnon_core::sync::time::Duration;

/// Tuning knobs for the two adaptive serving policies.
///
/// [`Default`] enables both with conservative thresholds;
/// [`AdaptiveConfig::off`] reproduces the static runtime (fixed
/// placement, per-gate batches) for baselines and comparisons.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Move waveguides between shards when load skews.
    pub rebalance: bool,
    /// Submissions between placement reviews (clamped to ≥ 1).
    pub rebalance_interval: u64,
    /// Review trigger: busiest shard load > `ratio` × idlest shard
    /// load.
    pub rebalance_ratio: f64,
    /// Fuse compatible same-design requests across waveguides into one
    /// batch.
    pub fusion: bool,
    /// Minimum drain depth before fusion kicks in (clamped to ≥ 2).
    pub fusion_threshold: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            rebalance: true,
            rebalance_interval: 64,
            rebalance_ratio: 2.0,
            fusion: true,
            fusion_threshold: 16,
        }
    }
}

impl AdaptiveConfig {
    /// Every adaptive policy disabled: static placement, per-gate
    /// batches.
    pub fn off() -> Self {
        AdaptiveConfig {
            rebalance: false,
            fusion: false,
            ..AdaptiveConfig::default()
        }
    }
}

/// Per-shard counters (all relaxed atomics).
#[derive(Debug, Default)]
struct ShardCounters {
    /// Requests enqueued but not yet drained. The increment leads the
    /// `send` (and rolls back on a failed one): were it to land after,
    /// a worker could drain the job and decrement before the increment,
    /// dipping the gauge negative — the model checker's
    /// gauge-never-negative invariant caught exactly that. Kept signed
    /// so `queued_raw` can surface a regression instead of wrapping;
    /// the public snapshot clamps at 0.
    queued: AtomicI64,
    /// Requests the worker has pulled off the queue, ever.
    drained: AtomicU64,
    /// Drain cycles completed.
    drain_cycles: AtomicU64,
    /// Drain cycles that filled to the batch cap (linger utilization:
    /// `full_drains / drain_cycles` ≈ how often the window saturates).
    full_drains: AtomicU64,
    /// LUT lookups answered from memory, summed over the shard's live
    /// cached sessions (a gauge the worker republishes after each
    /// drain).
    lut_hits: AtomicU64,
    /// LUT entries computed on demand by those sessions.
    lut_misses: AtomicU64,
    /// Channel rows in the dense bit-sliced form across those sessions.
    lut_dense_rows: AtomicU64,
}

/// Per-lane routing state: where traffic for one `(waveguide, lane)`
/// channel goes and how much of it there recently was.
#[derive(Debug)]
struct LaneState {
    id: WaveguideId,
    lane: LaneId,
    /// The shard currently serving this lane (the placement table).
    shard: AtomicUsize,
    /// Decayed request counter (halved at every placement review).
    requests: AtomicU64,
    /// Requests successfully answered on this lane, ever (success
    /// paths only, not decayed).
    served: AtomicU64,
}

/// Lock-free telemetry shared between client handles and workers.
#[derive(Debug)]
pub(crate) struct Telemetry {
    shards: Vec<ShardCounters>,
    /// Indexed by lane *slot* (registration order of first appearance
    /// of each `(waveguide, lane)` pair), not raw id.
    lanes: Vec<LaneState>,
    /// Every worker's fixed linger window ([`crate::ServeConfig::linger`]),
    /// reported per shard in the snapshot.
    linger: Duration,
    submits: AtomicU64,
    rebalances: AtomicU64,
    /// CAS guard: one placement review at a time, submitters never
    /// block on it.
    reviewing: AtomicBool,
}

impl Telemetry {
    /// `placements[slot]` gives each lane's waveguide id, lane id and
    /// initial shard. Lanes of one waveguide should start on the same
    /// shard so their drains FDM-coalesce (the builder places by
    /// waveguide id alone). `linger` is the workers' fixed window.
    pub fn new(
        workers: usize,
        linger: Duration,
        placements: Vec<(WaveguideId, LaneId, usize)>,
    ) -> Self {
        Telemetry {
            shards: (0..workers).map(|_| ShardCounters::default()).collect(),
            linger,
            lanes: placements
                .into_iter()
                .map(|(id, lane, shard)| LaneState {
                    id,
                    lane,
                    shard: AtomicUsize::new(shard),
                    requests: AtomicU64::new(0),
                    served: AtomicU64::new(0),
                })
                .collect(),
            submits: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            reviewing: AtomicBool::new(false),
        }
    }

    /// The shard currently serving lane `slot`. An unregistered slot
    /// routes to shard 0 — the submit path must stay panic-free, and
    /// the worker's drain assert owns corruption.
    pub fn shard_of_slot(&self, slot: usize) -> usize {
        // ordering: Acquire — pairs with the Release store in
        // `review_placement` so a submitter that observes a move also
        // observes the counter decay that preceded it.
        self.lanes
            .get(slot)
            .map_or(0, |lane| lane.shard.load(Ordering::Acquire))
    }

    /// Routes one submission: bumps the lane's request counter,
    /// possibly reviews placement, and returns the target shard. The
    /// queue gauge is NOT touched here — routing can be speculative
    /// (`try_submit` may still refuse); call
    /// [`Telemetry::note_enqueued`] immediately *before* the send and
    /// [`Telemetry::note_send_failed`] if the send then fails.
    pub fn route_submit(&self, slot: usize, policy: &AdaptiveConfig) -> usize {
        // An unregistered slot routes to shard 0 instead of panicking
        // on the caller's thread (see `shard_of_slot`).
        let Some(lane) = self.lanes.get(slot) else {
            return 0;
        };
        // ordering: Relaxed — approximate load counters; the rebalancer
        // reads them as a heuristic and tolerates stragglers, nothing
        // synchronizes through them.
        lane.requests.fetch_add(1, Ordering::Relaxed);
        let n = self.submits.fetch_add(1, Ordering::Relaxed) + 1;
        if policy.rebalance && n.is_multiple_of(policy.rebalance_interval.max(1)) {
            self.review_placement(policy);
        }
        // ordering: Acquire — pairs with the Release placement store in
        // `review_placement` (see `shard_of_slot`).
        lane.shard.load(Ordering::Acquire)
    }

    /// Accounts one request bound for `shard`'s queue. Call *before*
    /// the send (and [`Telemetry::note_send_failed`] if the send then
    /// fails): counting after the send races the worker's drain
    /// decrement and can take the gauge negative.
    pub fn note_enqueued(&self, shard: usize) {
        // ordering: Relaxed — advisory depth gauge; the queue send
        // itself is the synchronizing handoff, the gauge only needs the
        // running sum to be exact, not ordered against the payload.
        // (`get`, not an index: the submit path is proven panic-free,
        // and an out-of-range shard has no gauge to bump.)
        if let Some(counters) = self.shards.get(shard) {
            counters.queued.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rolls back [`Telemetry::note_enqueued`] for a send that did not
    /// land (queue full on `try_send`, or the runtime shut down).
    pub fn note_send_failed(&self, shard: usize) {
        // ordering: Relaxed — rollback of the advisory gauge bump; same
        // reasoning as `note_enqueued`.
        if let Some(counters) = self.shards.get(shard) {
            counters.queued.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The raw, unclamped queue gauge — model-check invariants assert
    /// on this (never negative once drains settle, zero at shutdown),
    /// where the public snapshot would clamp the evidence away.
    #[cfg(mcheck)]
    #[doc(hidden)]
    pub fn queued_raw(&self, shard: usize) -> i64 {
        // ordering: Relaxed — model-check probe; the serialized
        // scheduler makes every interleaving sequentially consistent
        // anyway.
        self.shards[shard].queued.load(Ordering::Relaxed)
    }

    /// Accounts one worker drain of `requests` jobs.
    pub fn record_drain(&self, shard: usize, requests: u64, hit_cap: bool) {
        // `get`, not an index: the drain path is proven panic-free, and
        // a worker always reports its own (registered) shard anyway.
        let Some(counters) = self.shards.get(shard) else {
            return;
        };
        // ordering: Relaxed — monotonic stat counters plus the advisory
        // queue gauge; the channel recv that delivered the jobs is the
        // synchronizing edge, the counters only feed dashboards.
        counters
            .queued
            .fetch_sub(requests as i64, Ordering::Relaxed);
        counters.drained.fetch_add(requests, Ordering::Relaxed);
        counters.drain_cycles.fetch_add(1, Ordering::Relaxed);
        if hit_cap {
            // ordering: Relaxed — monotonic stat counter.
            counters.full_drains.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes a shard's LUT effectiveness gauge: the sums of
    /// hit/miss/dense-row counters over the shard's live cached
    /// sessions. Stored, not accumulated — each session's counters are
    /// already cumulative, and sessions stay resident on their shard
    /// once split, so the summed gauge never goes backwards. (A
    /// rebalanced gate splits a *fresh-countered* session on its new
    /// shard while the old shard keeps its session and its counts; see
    /// `LutStats` in `magnon-core` for the split semantics.)
    pub fn publish_lut(&self, shard: usize, hits: u64, misses: u64, dense_rows: u64) {
        // `get`, not an index: workers republish on the drain path,
        // which is proven panic-free.
        let Some(counters) = self.shards.get(shard) else {
            return;
        };
        // ordering: Relaxed — single-writer gauges republished by the
        // shard's own worker after each drain; no reader synchronizes
        // through them.
        counters.lut_hits.store(hits, Ordering::Relaxed);
        counters.lut_misses.store(misses, Ordering::Relaxed);
        counters.lut_dense_rows.store(dense_rows, Ordering::Relaxed);
    }

    /// Accounts `requests` successfully answered on lane `slot`
    /// (workers call this on success paths only, so the per-lane
    /// `served` counters sum to the scheduler's `completed` total).
    pub fn record_lane_served(&self, slot: usize, requests: u64) {
        // ordering: Relaxed — monotonic stat counter; the reply channel
        // orders the result delivery.
        if let Some(lane) = self.lanes.get(slot) {
            lane.served.fetch_add(requests, Ordering::Relaxed);
        }
    }

    /// Reviews the placement table: when shard load (sum of resident
    /// lanes' recent requests) is skewed past the policy ratio, moves
    /// the co-tenant lane that best narrows the gap from the hottest
    /// shard to the idlest. A lane that *is* the whole hot load stays
    /// put — one lane cannot be split across shards without breaking
    /// same-shard coalescing. (Moving a lane off its waveguide's shard
    /// trades FDM coalescing for load balance; the mover returns only
    /// when traffic re-skews the other way.)
    fn review_placement(&self, policy: &AdaptiveConfig) {
        // ordering: AcqRel — the CAS-style guard both acquires the
        // previous reviewer's writes and publishes ours to the next
        // one; losers just return, they never block.
        if self.reviewing.swap(true, Ordering::AcqRel) {
            return; // someone else is reviewing
        }
        if self.shards.len() > 1 && self.lanes.len() > 1 {
            let mut loads = vec![0u64; self.shards.len()];
            let residents: Vec<(usize, u64)> = self
                .lanes
                .iter()
                .map(|wg| {
                    // ordering: Acquire pairs with the Release
                    // placement store below; Relaxed for the load
                    // counter — the review is a heuristic over an
                    // inherently racy figure.
                    let shard = wg.shard.load(Ordering::Acquire);
                    let recent = wg.requests.load(Ordering::Relaxed);
                    // `get`, not an index: the review runs on the
                    // submit path, which is proven panic-free; a
                    // placement pointing past the shard table simply
                    // does not participate in the load tally.
                    if let Some(load) = loads.get_mut(shard) {
                        *load += recent;
                    }
                    (shard, recent)
                })
                .collect();
            let hottest = loads.iter().copied().enumerate().max_by_key(|&(_, l)| l);
            let coldest = loads.iter().copied().enumerate().min_by_key(|&(_, l)| l);
            let (Some((hot, hot_load)), Some((cold, cold_load))) = (hottest, coldest) else {
                // Unreachable (the topology guard above ensures at
                // least two shards), but the submit path must not
                // panic over it.
                // ordering: Release — hands the review guard back, as
                // at the normal exit below.
                self.reviewing.store(false, Ordering::Release);
                return;
            };
            if hot != cold && hot_load as f64 > policy.rebalance_ratio * cold_load.max(1) as f64 {
                let gap = hot_load - cold_load;
                // The move changes the gap to |gap - 2w|; pick the
                // resident minimizing it, and only move if that
                // actually narrows the skew.
                let candidate = residents
                    .iter()
                    .enumerate()
                    .filter(|(_, &(shard, w))| shard == hot && w > 0 && w < hot_load)
                    .min_by_key(|(_, &(_, w))| {
                        // Ties go to the lighter mover: the hot
                        // waveguide keeps its warm shard and the
                        // smaller co-tenant migrates.
                        ((gap as i128 - 2 * w as i128).unsigned_abs(), w)
                    })
                    .map(|(slot, &(_, w))| (slot, w));
                if let Some((slot, w)) = candidate {
                    if (gap as i128 - 2 * w as i128).unsigned_abs() < gap as u128 {
                        if let Some(lane) = self.lanes.get(slot) {
                            // ordering: Release publishes the move to
                            // the Acquire loads in `route_submit`;
                            // Relaxed for the monotonic rebalance stat.
                            lane.shard.store(cold, Ordering::Release);
                            self.rebalances.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        // Decay the window (on every review, whatever the topology) so
        // the counters track recent traffic. `fetch_sub` of the halved
        // value, not a load/store pair: submissions landing mid-review
        // must not be erased.
        // ordering: Relaxed for the decay (heuristic counters); the
        // closing Release store pairs with the guard's AcqRel swap so
        // the next reviewer sees the decayed values.
        for wg in &self.lanes {
            let v = wg.requests.load(Ordering::Relaxed);
            wg.requests.fetch_sub(v / 2, Ordering::Relaxed);
        }
        self.reviewing.store(false, Ordering::Release);
    }

    /// A point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            shards: self
                .shards
                .iter()
                .map(|s| ShardTelemetry {
                    // ordering: Relaxed throughout — the snapshot is
                    // advertised as consistent-enough, not atomic; each
                    // gauge is read independently.
                    queued: s.queued.load(Ordering::Relaxed).max(0) as u64,
                    drained: s.drained.load(Ordering::Relaxed),
                    drain_cycles: s.drain_cycles.load(Ordering::Relaxed),
                    full_drains: s.full_drains.load(Ordering::Relaxed),
                    linger: self.linger,
                    // ordering: Relaxed — same consistent-enough
                    // snapshot contract as the counters above.
                    lut_hits: s.lut_hits.load(Ordering::Relaxed),
                    lut_misses: s.lut_misses.load(Ordering::Relaxed),
                    lut_dense_rows: s.lut_dense_rows.load(Ordering::Relaxed),
                })
                .collect(),
            lanes: self
                .lanes
                .iter()
                .map(|wg| LaneTelemetry {
                    id: wg.id,
                    lane: wg.lane,
                    // ordering: Acquire pairs with the rebalancer's
                    // Release store; Relaxed for the plain counters
                    // (consistent-enough snapshot, see above).
                    shard: wg.shard.load(Ordering::Acquire),
                    recent_requests: wg.requests.load(Ordering::Relaxed),
                    served: wg.served.load(Ordering::Relaxed),
                })
                .collect(),
            // ordering: Relaxed — monotonic stat counter.
            rebalances: self.rebalances.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of the runtime's load counters (see
/// [`crate::Scheduler::telemetry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// One entry per worker shard.
    pub shards: Vec<ShardTelemetry>,
    /// One entry per distinct registered `(waveguide, lane)` channel,
    /// including its *current* shard assignment. Pre-FDM gates all sit
    /// on lane 0, where this is exactly the old per-waveguide view.
    pub lanes: Vec<LaneTelemetry>,
    /// Placement moves performed since the runtime started.
    pub rebalances: u64,
}

impl TelemetrySnapshot {
    /// Largest per-shard `drained` divided by the smallest (∞ when a
    /// shard never drained anything): 1.0 is a perfectly even split.
    pub fn drain_skew(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.drained).max().unwrap_or(0);
        let min = self.shards.iter().map(|s| s.drained).min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }

    /// Fraction of LUT lookups answered from memory across all shards
    /// (1.0 when every lookup hit; `None` before any cached session
    /// reported).
    pub fn lut_hit_rate(&self) -> Option<f64> {
        let hits: u64 = self.shards.iter().map(|s| s.lut_hits).sum();
        let misses: u64 = self.shards.iter().map(|s| s.lut_misses).sum();
        if hits + misses == 0 {
            None
        } else {
            Some(hits as f64 / (hits + misses) as f64)
        }
    }
}

/// One shard's counters inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardTelemetry {
    /// Requests sitting in the queue at snapshot time.
    pub queued: u64,
    /// Requests drained since start.
    pub drained: u64,
    /// Drain cycles since start.
    pub drain_cycles: u64,
    /// Drain cycles that filled to `max_batch` (the linger-utilization
    /// numerator).
    pub full_drains: u64,
    /// The worker's fixed linger window ([`crate::ServeConfig::linger`]).
    pub linger: Duration,
    /// LUT lookups answered from memory, summed over the shard's live
    /// cached sessions (republished after every drain). Cumulative
    /// across rebalances: a moved gate splits a fresh-countered session
    /// on its new shard while the old shard keeps its own, so neither
    /// gauge resets nor double-counts.
    pub lut_hits: u64,
    /// LUT entries computed on demand by those sessions.
    pub lut_misses: u64,
    /// Channel rows flattened to the dense bit-sliced form across those
    /// sessions — `n · live cached sessions` once fully warm.
    pub lut_dense_rows: u64,
}

/// One frequency lane's routing state inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneTelemetry {
    /// The waveguide the lane rides on.
    pub id: WaveguideId,
    /// The lane within that waveguide.
    pub lane: LaneId,
    /// The shard currently serving it.
    pub shard: usize,
    /// Requests in the current decay window (halved at every placement
    /// review).
    pub recent_requests: u64,
    /// Requests successfully answered on this lane since start
    /// (successes only, not decayed — sums to `completed` across lanes).
    pub served: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_policy() -> AdaptiveConfig {
        AdaptiveConfig {
            rebalance_interval: 8,
            rebalance_ratio: 1.5,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn route_follows_the_placement_table() {
        let telemetry = Telemetry::new(
            2,
            Duration::ZERO,
            vec![
                (WaveguideId(0), LaneId(0), 0),
                (WaveguideId(0), LaneId(4), 0),
            ],
        );
        let policy = AdaptiveConfig::off();
        let s0 = telemetry.route_submit(0, &policy);
        let s1 = telemetry.route_submit(1, &policy);
        assert_eq!((s0, s1), (0, 0));
        // Routing alone leaves the gauge untouched; enqueueing bumps it.
        assert_eq!(telemetry.snapshot().shards[0].queued, 0);
        telemetry.note_enqueued(s0);
        telemetry.note_enqueued(s1);
        let snap = telemetry.snapshot();
        assert_eq!(snap.shards[0].queued, 2);
        assert_eq!(snap.lanes[0].recent_requests, 1);
        assert_eq!(snap.rebalances, 0);
    }

    #[test]
    fn gauge_leads_the_send_and_rolls_back_refusals() {
        // Submitters bump the gauge immediately before the send and
        // roll back a refused one, so routing alone never registers as
        // depth and a failed try_send leaves the gauge where it was.
        let telemetry = Telemetry::new(1, Duration::ZERO, vec![(WaveguideId(0), LaneId(0), 0)]);
        let policy = AdaptiveConfig::off();
        for _ in 0..2 {
            let shard = telemetry.route_submit(0, &policy);
            telemetry.note_enqueued(shard);
        }
        let shard = telemetry.route_submit(0, &policy);
        assert_eq!(telemetry.snapshot().shards[0].queued, 2);
        telemetry.note_enqueued(shard); // try_send about to run...
        telemetry.note_send_failed(shard); // ...queue full, rolled back
        assert_eq!(telemetry.snapshot().shards[0].queued, 2);
        telemetry.record_drain(0, 2, false);
        assert_eq!(telemetry.snapshot().shards[0].queued, 0);
    }

    #[test]
    fn gauge_clamps_transient_negatives() {
        // The scheduler's increment-leads-send discipline keeps the
        // raw gauge non-negative; the snapshot still clamps so a
        // regression shows up as a wrong count, never a wrapped one
        // (queued_raw carries the signed evidence for the checker).
        let telemetry = Telemetry::new(1, Duration::ZERO, vec![(WaveguideId(0), LaneId(0), 0)]);
        telemetry.record_drain(0, 3, false);
        assert_eq!(telemetry.snapshot().shards[0].queued, 0);
        for _ in 0..3 {
            telemetry.note_enqueued(0);
        }
        // The running sum stays exact once the increments land.
        assert_eq!(telemetry.snapshot().shards[0].queued, 0);
        telemetry.note_enqueued(0);
        assert_eq!(telemetry.snapshot().shards[0].queued, 1);
    }

    #[test]
    fn skewed_load_moves_the_cotenant_off_the_hot_shard() {
        // Both waveguides start on shard 0; waveguide 0 is hot.
        let telemetry = Telemetry::new(
            2,
            Duration::ZERO,
            vec![
                (WaveguideId(0), LaneId(0), 0),
                (WaveguideId(0), LaneId(4), 0),
            ],
        );
        let policy = hot_policy();
        for i in 0..64u64 {
            let slot = usize::from(i % 8 == 7); // 7/8 of traffic on slot 0
            telemetry.route_submit(slot, &policy);
        }
        let snap = telemetry.snapshot();
        assert!(snap.rebalances >= 1, "skew must trigger a move: {snap:?}");
        assert_eq!(snap.lanes[0].shard, 0, "the hot waveguide stays");
        assert_eq!(snap.lanes[1].shard, 1, "the co-tenant moves");
    }

    #[test]
    fn a_lone_hot_waveguide_stays_put() {
        let telemetry = Telemetry::new(
            2,
            Duration::ZERO,
            vec![
                (WaveguideId(0), LaneId(0), 0),
                (WaveguideId(1), LaneId(0), 1),
            ],
        );
        let policy = hot_policy();
        for _ in 0..64 {
            telemetry.route_submit(0, &policy); // all load on slot 0, alone on shard 0
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.rebalances, 0, "nothing useful to move: {snap:?}");
        assert_eq!(snap.lanes[0].shard, 0);
    }

    #[test]
    fn drain_accounting_balances_the_queue_gauge() {
        let linger = Duration::from_micros(40);
        let telemetry = Telemetry::new(1, linger, vec![(WaveguideId(0), LaneId(0), 0)]);
        let policy = AdaptiveConfig::off();
        for _ in 0..5 {
            let shard = telemetry.route_submit(0, &policy);
            telemetry.note_enqueued(shard);
        }
        telemetry.record_drain(0, 5, true);
        let snap = telemetry.snapshot();
        assert_eq!(snap.shards[0].queued, 0);
        assert_eq!(snap.shards[0].drained, 5);
        assert_eq!(snap.shards[0].drain_cycles, 1);
        assert_eq!(snap.shards[0].full_drains, 1);
        assert_eq!(snap.shards[0].linger, linger);
        assert_eq!(snap.drain_skew(), 1.0);
    }

    #[test]
    fn request_counters_decay_even_with_one_shard() {
        let telemetry = Telemetry::new(1, Duration::ZERO, vec![(WaveguideId(0), LaneId(0), 0)]);
        let policy = AdaptiveConfig {
            rebalance: true,
            rebalance_interval: 8,
            ..AdaptiveConfig::default()
        };
        for _ in 0..16 {
            telemetry.route_submit(0, &policy);
        }
        let snap = telemetry.snapshot();
        assert!(
            snap.lanes[0].recent_requests < 16,
            "reviews must decay the window regardless of topology: {snap:?}"
        );
        assert_eq!(snap.rebalances, 0);
    }

    #[test]
    fn lane_served_counters_surface_in_the_snapshot() {
        // Two lanes of waveguide 0 co-resident on shard 0: a multi-lane
        // pass serving 3 + 2 requests across both lanes.
        let telemetry = Telemetry::new(
            1,
            Duration::ZERO,
            vec![
                (WaveguideId(0), LaneId(0), 0),
                (WaveguideId(0), LaneId(1), 0),
            ],
        );
        telemetry.record_lane_served(0, 3);
        telemetry.record_lane_served(1, 2);
        let snap = telemetry.snapshot();
        assert_eq!(snap.lanes[0].lane, LaneId(0));
        assert_eq!(snap.lanes[1].lane, LaneId(1));
        assert_eq!(snap.lanes[0].served, 3);
        assert_eq!(snap.lanes[1].served, 2);
        assert_eq!(snap.lanes[0].id, snap.lanes[1].id, "one waveguide");
    }

    #[test]
    fn lut_gauges_are_republished_not_accumulated() {
        let telemetry = Telemetry::new(2, Duration::ZERO, vec![(WaveguideId(0), LaneId(0), 0)]);
        assert_eq!(telemetry.snapshot().lut_hit_rate(), None);
        telemetry.publish_lut(0, 96, 32, 8);
        telemetry.publish_lut(0, 224, 32, 8); // next drain republishes the new sums
        telemetry.publish_lut(1, 64, 0, 8);
        let snap = telemetry.snapshot();
        assert_eq!(snap.shards[0].lut_hits, 224);
        assert_eq!(snap.shards[0].lut_misses, 32);
        assert_eq!(snap.shards[0].lut_dense_rows, 8);
        assert_eq!(snap.shards[1].lut_hits, 64);
        assert_eq!(snap.lut_hit_rate(), Some(288.0 / 320.0));
    }

    #[test]
    fn refused_submissions_never_touch_the_gauge() {
        // try_submit routing a request to a full queue simply never
        // calls note_enqueued — no bump to undo.
        let telemetry = Telemetry::new(1, Duration::ZERO, vec![(WaveguideId(0), LaneId(0), 0)]);
        let _shard = telemetry.route_submit(0, &AdaptiveConfig::off());
        assert_eq!(telemetry.snapshot().shards[0].queued, 0);
    }
}
