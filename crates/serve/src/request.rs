//! Request handles and runtime statistics.

use crate::error::ServeError;
use magnon_core::backend::{OperandSet, RequestTag};
use magnon_core::gate::GateOutput;
use magnon_core::sync::atomic::{AtomicU64, Ordering};
use magnon_core::sync::mpsc;
use magnon_core::GateError;

/// Handle to a gate registered with a [`crate::Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(pub(crate) usize);

impl GateId {
    /// The registration index (stable for the scheduler's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One request travelling to a worker shard.
pub(crate) struct EvalJob {
    /// Registration index of the target gate.
    pub gate: usize,
    /// Scheduler-assigned tag echoed on the completion.
    pub tag: RequestTag,
    /// The operand words.
    pub set: OperandSet,
    /// One-slot completion channel back to the submitting [`Ticket`]
    /// (the worker answers with `try_send`, so it never blocks here).
    pub reply: mpsc::SyncSender<(RequestTag, Result<GateOutput, GateError>)>,
}

/// A pending evaluation: redeem with [`Ticket::wait`].
///
/// Tickets are independent — they can be awaited in any order, from any
/// thread, regardless of how the scheduler batched the underlying
/// requests (each completion carries its request tag).
#[derive(Debug)]
pub struct Ticket {
    pub(crate) tag: RequestTag,
    pub(crate) rx: mpsc::Receiver<(RequestTag, Result<GateOutput, GateError>)>,
}

impl Ticket {
    /// The tag the scheduler stamped on this request.
    pub fn tag(&self) -> RequestTag {
        self.tag
    }

    /// Blocks until the evaluation completes.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Gate`] when the evaluation itself failed.
    /// * [`ServeError::Shutdown`] when the owning worker went away
    ///   before answering.
    pub fn wait(self) -> Result<GateOutput, ServeError> {
        match self.rx.recv() {
            Ok((tag, result)) => {
                debug_assert_eq!(tag, self.tag, "completion routed to the wrong ticket");
                result.map_err(ServeError::Gate)
            }
            Err(mpsc::RecvError) => Err(ServeError::Shutdown),
        }
    }

    /// Blocks until the evaluation completes or `timeout` elapses.
    ///
    /// Takes `&self`, so a timed-out ticket is not lost: the request is
    /// still in flight and the ticket can be waited on again (remote
    /// clients retry with fresh deadlines; the network writer pump must
    /// never park forever on a completion that will not come). A ticket
    /// redeems exactly once — after a successful wait, further calls
    /// report [`ServeError::Shutdown`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::Timeout`] when `timeout` elapses first.
    /// * The conditions of [`Ticket::wait`].
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Result<GateOutput, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok((tag, result)) => {
                debug_assert_eq!(tag, self.tag, "completion routed to the wrong ticket");
                result.map_err(ServeError::Gate)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Shutdown),
        }
    }

    /// Polls for the completion without blocking: `Ok(None)` while the
    /// evaluation is still in flight. Like [`Ticket::wait_timeout`],
    /// this redeems the ticket on the first `Ok(Some(_))` — poll loops
    /// (e.g. a writer pump multiplexing many tickets) should drop the
    /// ticket once it yields.
    ///
    /// # Errors
    ///
    /// The conditions of [`Ticket::wait`].
    pub fn try_wait(&self) -> Result<Option<GateOutput>, ServeError> {
        match self.rx.try_recv() {
            Ok((tag, result)) => {
                debug_assert_eq!(tag, self.tag, "completion routed to the wrong ticket");
                result.map(Some).map_err(ServeError::Gate)
            }
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(ServeError::Shutdown),
        }
    }
}

/// Lock-free counters shared between client handles and worker shards.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub drain_passes: AtomicU64,
    pub batches: AtomicU64,
    pub coalesced_requests: AtomicU64,
    pub cross_gate_passes: AtomicU64,
    pub max_drain: AtomicU64,
    pub fdm_batches: AtomicU64,
    pub fdm_lanes: AtomicU64,
    pub fdm_requests: AtomicU64,
}

impl SharedStats {
    /// Records one drain cycle: `requests` served through `batches`
    /// `evaluate_batch` calls spanning `gates_touched` distinct gates
    /// (an FDM pass can make `batches < gates_touched`).
    pub fn record_drain(&self, requests: u64, batches: u64, gates_touched: u64) {
        // ordering: Relaxed — monotonic stat counters; the reply
        // channel orders the result delivery, nothing synchronizes
        // through these.
        self.drain_passes.fetch_add(1, Ordering::Relaxed);
        self.batches.fetch_add(batches, Ordering::Relaxed);
        if requests > 1 {
            self.coalesced_requests
                .fetch_add(requests, Ordering::Relaxed);
        }
        if gates_touched > 1 {
            // ordering: Relaxed — monotonic stat counter.
            self.cross_gate_passes.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: Relaxed — monotonic high-water mark, stat only.
        self.max_drain.fetch_max(requests, Ordering::Relaxed);
    }

    /// Records one multi-lane FDM pass: `requests` jobs across `lanes`
    /// frequency lanes of one waveguide, stacked into a single
    /// whole-waveguide excitation.
    pub fn record_fdm_pass(&self, lanes: u64, requests: u64) {
        // ordering: Relaxed — monotonic stat counters, dashboards only.
        self.fdm_batches.fetch_add(1, Ordering::Relaxed);
        self.fdm_lanes.fetch_add(lanes, Ordering::Relaxed);
        self.fdm_requests.fetch_add(requests, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> SchedulerStats {
        SchedulerStats {
            // ordering: Relaxed throughout — a point-in-time stats
            // snapshot; each counter is read independently and no
            // reader synchronizes through them.
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            drain_passes: self.drain_passes.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            // ordering: Relaxed — same snapshot contract as above.
            cross_gate_passes: self.cross_gate_passes.load(Ordering::Relaxed),
            max_drain: self.max_drain.load(Ordering::Relaxed),
            fused_requests: 0,
            fdm_batches: self.fdm_batches.load(Ordering::Relaxed),
            fdm_lanes: self.fdm_lanes.load(Ordering::Relaxed),
            fdm_requests: self.fdm_requests.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of the runtime's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Requests accepted by [`crate::Scheduler::submit`] /
    /// [`crate::Scheduler::try_submit`].
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Worker drain cycles (each serves everything queued at that
    /// moment, up to the batch cap).
    pub drain_passes: u64,
    /// Evaluation calls issued: one per gate touched per drain, except
    /// that an FDM pass serves several lanes' gates in one call.
    pub batches: u64,
    /// Requests that shared their drain cycle with at least one other
    /// request — the coalescing win.
    pub coalesced_requests: u64,
    /// Drain cycles that batched across *different* gates sharing a
    /// waveguide shard.
    pub cross_gate_passes: u64,
    /// Largest single drain observed.
    pub max_drain: u64,
    /// Always 0: requests for different gates never share one session's
    /// batch (FDM stacking is how gates coalesce). Kept only because the
    /// `perfbench` benchmark still reads it; it goes when that read
    /// does.
    pub fused_requests: u64,
    /// Multi-lane FDM passes issued: one stacked evaluation carrying
    /// two or more frequency lanes of a single waveguide
    /// (frequency-division multiplexing, arXiv:2008.12220).
    pub fdm_batches: u64,
    /// Lanes coalesced across those FDM passes.
    pub fdm_lanes: u64,
    /// Requests that rode an FDM pass.
    pub fdm_requests: u64,
}

impl SchedulerStats {
    /// Mean requests per drain cycle (1.0 = no coalescing happening).
    pub fn mean_drain(&self) -> f64 {
        if self.drain_passes == 0 {
            0.0
        } else {
            (self.completed + self.failed) as f64 / self.drain_passes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_record_coalescing() {
        let stats = SharedStats::default();
        stats.record_drain(1, 1, 1);
        stats.record_drain(7, 2, 2);
        // An FDM drain: 5 requests for 3 lanes' gates served as 1 batch.
        stats.record_drain(5, 1, 3);
        let snap = stats.snapshot();
        assert_eq!(snap.drain_passes, 3);
        assert_eq!(snap.batches, 4);
        assert_eq!(snap.coalesced_requests, 12);
        assert_eq!(snap.cross_gate_passes, 2);
        assert_eq!(snap.max_drain, 7);
        assert_eq!(snap.fused_requests, 0);
    }

    #[test]
    fn mean_drain_handles_empty() {
        assert_eq!(SchedulerStats::default().mean_drain(), 0.0);
    }

    #[test]
    fn ticket_deadlines_and_polling() {
        use magnon_core::gate::ParallelGateBuilder;
        use magnon_core::word::Word;
        use magnon_physics::waveguide::Waveguide;
        use std::time::Duration;

        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(3)
            .build()
            .unwrap();
        let output = gate
            .evaluate(&[
                Word::from_u8(0x0F),
                Word::from_u8(0x33),
                Word::from_u8(0x55),
            ])
            .unwrap();

        // In flight: polling sees nothing, a deadline elapses without
        // consuming the ticket.
        let (tx, rx) = mpsc::sync_channel(1);
        let ticket = Ticket { tag: 7, rx };
        assert!(matches!(ticket.try_wait(), Ok(None)));
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(5)),
            Err(ServeError::Timeout)
        ));
        // The completion arrives late: the same ticket still redeems.
        tx.send((7, Ok(output.clone()))).unwrap();
        match ticket.try_wait() {
            Ok(Some(out)) => assert_eq!(out.word(), output.word()),
            other => panic!("expected the completion, got {other:?}"),
        }

        // A gate error lands as ServeError::Gate through wait_timeout.
        let (tx, rx) = mpsc::sync_channel(1);
        let ticket = Ticket { tag: 8, rx };
        tx.send((
            8,
            Err(GateError::InputCountMismatch {
                expected: 3,
                actual: 1,
            }),
        ))
        .unwrap();
        assert!(matches!(
            ticket.wait_timeout(Duration::from_secs(1)),
            Err(ServeError::Gate(_))
        ));

        // A vanished worker is Shutdown on every path.
        let (tx, rx) = mpsc::sync_channel::<(RequestTag, Result<GateOutput, GateError>)>(1);
        let ticket = Ticket { tag: 9, rx };
        drop(tx);
        assert!(matches!(ticket.try_wait(), Err(ServeError::Shutdown)));
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(1)),
            Err(ServeError::Shutdown)
        ));
    }
}
