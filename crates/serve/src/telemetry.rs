//! Lock-free serving telemetry.
//!
//! Every hot-path touch point is a relaxed atomic: submitters bump their
//! shard's queue gauge, workers publish drain sizes and per-lane served
//! counts. Nothing here takes a lock on the request
//! path.
//!
//! [`Scheduler::telemetry`](crate::Scheduler::telemetry) exposes a
//! consistent-enough point-in-time [`TelemetrySnapshot`] for dashboards
//! and tests.
//!
//! # Lanes
//!
//! Since the FDM extension (arXiv:2008.12220's multi-frequency
//! parallelism), the per-channel unit is one *frequency lane* — a
//! `(`[`WaveguideId`]`, `[`LaneId`]`)` pair. Every lane of a waveguide
//! sits on the waveguide's build-time shard, so their drains coalesce
//! into multi-lane FDM passes; per-lane served counters plus per-shard
//! FDM pass counters surface in the snapshot.

use magnon_core::gate::{LaneId, WaveguideId};
use magnon_core::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use magnon_core::sync::time::Duration;

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
    /// Drain cycles that filled to the `max_batch` cap
    /// (`full_drains / drain_cycles` ≈ how often backlog outruns the
    /// cap).
    full_drains: AtomicU64,
}

/// Per-lane state: where one `(waveguide, lane)` channel is served and
/// how much of it was.
#[derive(Debug)]
struct LaneState {
    id: WaveguideId,
    lane: LaneId,
    /// The shard serving this lane, fixed at build time.
    shard: usize,
    /// Requests successfully answered on this lane, ever (success
    /// paths only).
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
}

impl Telemetry {
    /// `placements[slot]` gives each lane's waveguide id, lane id and
    /// shard. The builder places by waveguide id alone, so lanes of one
    /// waveguide share a shard and their drains FDM-coalesce. `linger`
    /// is the workers' fixed window.
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
                    shard,
                    served: AtomicU64::new(0),
                })
                .collect(),
        }
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
                    lut_misses: 0,
                })
                .collect(),
            lanes: self
                .lanes
                .iter()
                .map(|wg| LaneTelemetry {
                    id: wg.id,
                    lane: wg.lane,
                    shard: wg.shard,
                    // ordering: Relaxed — same consistent-enough
                    // snapshot contract as the counters above.
                    served: wg.served.load(Ordering::Relaxed),
                })
                .collect(),
            rebalances: 0,
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
    /// including its shard. Pre-FDM gates all sit on lane 0, where this
    /// is exactly the old per-waveguide view.
    pub lanes: Vec<LaneTelemetry>,
    /// Always 0: placement is static, so no lane ever moves. Kept only
    /// because the `perfbench` benchmark still reads it; it goes when
    /// that read does.
    pub rebalances: u64,
}

impl TelemetrySnapshot {
    /// Always `Some(1.0)`: every gate is answered from a table built
    /// whole at build time. Kept only because the `perfbench` benchmark
    /// still reads it; it goes when that read does.
    pub fn lut_hit_rate(&self) -> Option<f64> {
        Some(1.0)
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
    /// Drain cycles that filled to the `max_batch` cap.
    pub full_drains: u64,
    /// The worker's fixed linger window ([`crate::ServeConfig::linger`]).
    pub linger: Duration,
    /// Always 0: every table is built whole before serving. Kept only
    /// because the `perfbench` benchmark still reads it; it goes when
    /// that read does.
    pub lut_misses: u64,
}

/// One frequency lane's routing state inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneTelemetry {
    /// The waveguide the lane rides on.
    pub id: WaveguideId,
    /// The lane within that waveguide.
    pub lane: LaneId,
    /// The shard serving it, fixed at build time.
    pub shard: usize,
    /// Requests successfully answered on this lane since start
    /// (successes only — sums to `completed` across lanes).
    pub served: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_follows_the_placement_table() {
        // Both lanes of waveguide 0 sit on shard 1, as built; the
        // snapshot reports that placement and the gauge of the shard
        // the requests went to.
        let telemetry = Telemetry::new(
            2,
            Duration::ZERO,
            vec![
                (WaveguideId(0), LaneId(0), 1),
                (WaveguideId(0), LaneId(4), 1),
            ],
        );
        telemetry.note_enqueued(1);
        telemetry.note_enqueued(1);
        let snap = telemetry.snapshot();
        assert_eq!((snap.lanes[0].shard, snap.lanes[1].shard), (1, 1));
        assert_eq!(snap.shards[0].queued, 0);
        assert_eq!(snap.shards[1].queued, 2);
        assert_eq!(snap.rebalances, 0);
    }

    #[test]
    fn gauge_leads_the_send_and_rolls_back_refusals() {
        // Submitters bump the gauge immediately before the send and
        // roll back a refused one, so a failed try_send leaves the
        // gauge where it was.
        let telemetry = Telemetry::new(1, Duration::ZERO, vec![(WaveguideId(0), LaneId(0), 0)]);
        for _ in 0..2 {
            telemetry.note_enqueued(0);
        }
        assert_eq!(telemetry.snapshot().shards[0].queued, 2);
        telemetry.note_enqueued(0); // try_send about to run...
        telemetry.note_send_failed(0); // ...queue full, rolled back
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
    fn drain_accounting_balances_the_queue_gauge() {
        let linger = Duration::from_micros(40);
        let telemetry = Telemetry::new(1, linger, vec![(WaveguideId(0), LaneId(0), 0)]);
        for _ in 0..5 {
            telemetry.note_enqueued(0);
        }
        telemetry.record_drain(0, 5, true);
        let snap = telemetry.snapshot();
        assert_eq!(snap.shards[0].queued, 0);
        assert_eq!(snap.shards[0].drained, 5);
        assert_eq!(snap.shards[0].drain_cycles, 1);
        assert_eq!(snap.shards[0].full_drains, 1);
        assert_eq!(snap.shards[0].linger, linger);
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
    fn refused_submissions_never_touch_the_gauge() {
        // A refused submission's bump-and-rollback nets to zero, and a
        // shard past the table has no gauge to touch: the submit path
        // stays panic-free.
        let telemetry = Telemetry::new(1, Duration::ZERO, vec![(WaveguideId(0), LaneId(0), 0)]);
        telemetry.note_enqueued(0);
        telemetry.note_send_failed(0);
        telemetry.note_enqueued(7);
        telemetry.note_send_failed(7);
        assert_eq!(telemetry.snapshot().shards[0].queued, 0);
    }
}
