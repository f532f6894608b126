//! The sharded, waveguide-aware scheduler.
//!
//! # Architecture
//!
//! ```text
//!  clients ── submit(GateId, OperandSet) ──► Ticket
//!      │     (operand shapes checked here)
//!      ▼  route to the gate's shard, fixed at build time by its
//!      │  WaveguideId (every lane of one waveguide shares a shard)
//!  ┌───────────────┐   ┌───────────────┐
//!  │ shard 0 queue │   │ shard 1 queue │   … bounded MPSC
//!  └──────┬────────┘   └──────┬────────┘
//!         ▼                   ▼
//!   worker thread        worker thread     every worker reads the
//!   drain → group        drain → group     same per-gate truth
//!   by gate → stack      by gate → stack   tables, built once at
//!   lanes of a           lanes of a        build()
//!   waveguide → FDM      waveguide → FDM
//!   pass                 pass
//! ```
//!
//! A worker drains its queue in cycles: it blocks on the first request,
//! sweeps whatever is already queued (up to the batch cap), groups what
//! it got, and answers each request of a group from its own operand
//! words with the gate's table kernel ([`GateTable::word`]). With the
//! default zero [`ServeConfig::linger`] there is no timed wait: a lone
//! request is served on arrival, and a backlog that built up while the
//! worker was busy forms the next batch. Because routing is by
//! [`WaveguideId`], a drain cycle naturally coalesces requests across
//! *different* gates sharing a waveguide — the cross-gate data
//! parallelism of the companion paper (arXiv:2008.12220) — while
//! requests for the same gate ride one batch, the in-waveguide
//! parallelism of the source paper.
//!
//! # Truth tables
//!
//! In the paper's gate each frequency channel decodes only the `m`
//! input bits it carries, so a served gate is fully described by its
//! `n · 2^m` channel readouts, which a [`GateTable`] holds as `2^m`
//! channel masks. [`SchedulerBuilder::build`] builds one per registered
//! gate, from the analytic device model and the gate's own frequency
//! plan, and shares them read-only with every worker.
//! [`Scheduler::submit`] checks each set's operand count and width
//! against the gate, so a table lookup in the drain cannot fail.
//!
//! # Placement
//!
//! Placement is static: [`SchedulerBuilder::build`] puts each waveguide
//! on `static_shard(waveguide, workers)`, a bit-mixed hash of its id. A
//! gate's requests go to exactly one shard for the scheduler's
//! lifetime.
//!
//! # Frequency-division multiplexing
//!
//! Gates carrying the same [`WaveguideId`] but distinct [`LaneId`]s
//! occupy disjoint frequency bands of one physical medium, so their
//! groups do not stay separate batches: the drain stacks one group per
//! lane of a waveguide into one multi-lane FDM pass, each lane read
//! from its own gate's table. Per-shard FDM pass counters and per-lane
//! served counters surface through [`Scheduler::telemetry`]; register
//! lane-shifted circuit gates with
//! [`SchedulerBuilder::register_circuit_gates_on_lane`].
//!
//! Completions carry the scheduler-assigned request tag, so they are
//! safe to deliver out of order; each [`Ticket`] simply receives its
//! own through a one-slot reply channel. A worker answers with
//! `try_send`, so it never blocks on a reply: each channel carries
//! exactly one answer, and a dropped ticket just discards it.

use crate::error::ServeError;
use crate::request::{EvalJob, GateId, SchedulerStats, SharedStats, Ticket};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use magnon_circuits::netlist::{fdm_lane_base, packed_frequency_step};
use magnon_core::backend::{BackendChoice, GateTable, OperandSet, MAX_TABLE_ENTRIES};
use magnon_core::gate::{GateOutput, LaneId, ParallelGate, ParallelGateBuilder, WaveguideId};
use magnon_core::sync::atomic::{AtomicU64, Ordering};
use magnon_core::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use magnon_core::sync::thread::{self, JoinHandle};
use magnon_core::sync::time::{Duration, Instant};
use magnon_core::sync::Arc;
use magnon_core::truth::LogicFunction;
use magnon_core::GateError;
use magnon_physics::waveguide::Waveguide;
use std::collections::BTreeMap;

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shard count (clamped to ≥ 1). Placement is static: each
    /// distinct waveguide, with every lane on it, is served by shard
    /// `(mix64(waveguide_id) >> 32) % workers` (the high half of a
    /// multiplicative bit-mix, so ids sharing factors with the worker
    /// count still spread) for the scheduler's lifetime.
    pub workers: usize,
    /// Largest number of requests one drain cycle serves. Zero is
    /// rejected by [`SchedulerBuilder::build`] — it would silently
    /// degenerate every drain to a batch of one.
    pub max_batch: usize,
    /// Linger: how long a worker keeps collecting after the first
    /// request of a drain cycle, trading latency for batch size.
    /// Requests already queued when it closes still join the drain. The
    /// default, zero, serves what is queued with no timed wait. A
    /// nonzero window is a timed park, which overshoots by the thread's
    /// timer slack (50 µs by default on Linux).
    pub linger: Duration,
    /// Bound of each shard's request queue; blocking submission applies
    /// backpressure when full.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 256,
            linger: Duration::ZERO,
            queue_depth: 1024,
        }
    }
}

/// One registered gate's bookkeeping.
struct GateEntry {
    name: String,
    /// The gate, for shape checks at submit and introspection.
    gate: ParallelGate,
    /// The shard serving this gate, fixed at build time.
    shard: usize,
}

/// What every worker knows about one registered gate (read-only after
/// build).
struct ServedGate {
    /// Index into the per-`(waveguide, lane)` telemetry table.
    lane_slot: usize,
    /// The gate's waveguide — FDM passes only stack lanes of one
    /// physical medium.
    waveguide: WaveguideId,
    /// The gate's frequency lane on that waveguide.
    lane: LaneId,
    /// The gate's truth table; every request for the gate is answered
    /// from it.
    table: GateTable,
}

/// Registers gates, then builds the runtime.
///
/// # Examples
///
/// ```
/// use magnon_core::backend::{BackendChoice, OperandSet};
/// use magnon_core::prelude::*;
/// use magnon_physics::waveguide::Waveguide;
/// use magnon_serve::{SchedulerBuilder, ServeConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gate = ParallelGateBuilder::new(Waveguide::paper_default()?)
///     .channels(8)
///     .inputs(3)
///     .build()?;
/// let mut builder = SchedulerBuilder::new(ServeConfig::default());
/// let maj = builder.register("maj3", gate.clone(), BackendChoice::Cached)?;
/// let scheduler = builder.build()?;
///
/// let set = OperandSet::new(vec![
///     Word::from_u8(0x0F), Word::from_u8(0x33), Word::from_u8(0x55),
/// ]);
/// let ticket = scheduler.submit(maj, set.clone())?;
/// assert_eq!(ticket.wait()?.word(), gate.evaluate(set.words())?.word());
/// scheduler.shutdown()?;
/// # Ok(())
/// # }
/// ```
pub struct SchedulerBuilder {
    config: ServeConfig,
    registrations: Vec<(String, ParallelGate)>,
}

impl SchedulerBuilder {
    /// Starts a builder with `config`.
    pub fn new(config: ServeConfig) -> Self {
        SchedulerBuilder {
            config,
            registrations: Vec::new(),
        }
    }

    /// Registers `gate` under `name`; every request for it is answered
    /// from its truth table, built at [`SchedulerBuilder::build`].
    ///
    /// `choice` is kept only because the `perfbench` benchmark still
    /// passes it; it goes when that call does. [`BackendChoice::Analytic`]
    /// and [`BackendChoice::Cached`] both serve the analytic device
    /// model's table. [`BackendChoice::Micromag`] is refused: no serving
    /// caller uses it, and it stays for offline validation through a
    /// [`magnon_core::backend::GateSession`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a duplicate name, for
    /// [`BackendChoice::Micromag`], and for a gate whose table would
    /// hold more than [`MAX_TABLE_ENTRIES`] readouts (`n · 2^m`).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        gate: ParallelGate,
        choice: BackendChoice,
    ) -> Result<GateId, ServeError> {
        let name = name.into();
        if self.registrations.iter().any(|(n, _)| *n == name) {
            return Err(ServeError::Config {
                reason: format!("gate name `{name}` is already registered"),
            });
        }
        if matches!(choice, BackendChoice::Micromag(_)) {
            return Err(ServeError::Config {
                reason: format!(
                    "gate `{name}`: the scheduler serves truth tables of the analytic model; \
                     evaluate micromagnetic backends through a GateSession"
                ),
            });
        }
        let entries = GateTable::entries_for(&gate);
        if entries > MAX_TABLE_ENTRIES {
            return Err(ServeError::Config {
                reason: format!(
                    "gate `{name}` needs a {}-channel × 2^{} = {entries}-readout truth table, \
                     over the {MAX_TABLE_ENTRIES}-readout cap",
                    gate.word_width(),
                    gate.input_count(),
                ),
            });
        }
        let id = GateId(self.registrations.len());
        self.registrations.push((name, gate));
        Ok(id)
    }

    /// Registers the two gate shapes circuits lower to (3-input
    /// majority, 2-input XOR) at `width` channels on `waveguide`,
    /// mirroring what an inline
    /// [`magnon_circuits::netlist::GateBank`] would lazily build. Both
    /// gates carry `waveguide_id` (on frequency lane 0), so their
    /// traffic shares a shard and coalesces.
    ///
    /// `choice` is kept only because the `perfbench` benchmark still
    /// passes it; it goes when that call does (see
    /// [`SchedulerBuilder::register`]).
    ///
    /// # Errors
    ///
    /// Gate construction failures and [`SchedulerBuilder::register`]'s
    /// conditions.
    pub fn register_circuit_gates(
        &mut self,
        waveguide: Waveguide,
        waveguide_id: WaveguideId,
        width: usize,
        choice: BackendChoice,
    ) -> Result<(GateId, GateId), ServeError> {
        self.register_circuit_gates_on_lane(waveguide, waveguide_id, LaneId(0), width, choice)
    }

    /// Like [`SchedulerBuilder::register_circuit_gates`], but on
    /// frequency lane `lane` of the waveguide: the gates' channel band
    /// shifts to lane `lane`'s slice of the spectrum
    /// ([`fdm_lane_base`]), so several circuits can ride one physical
    /// waveguide concurrently — the FDM serving axis of the companion
    /// paper (arXiv:2008.12220). A whole-waveguide drain then coalesces
    /// the lanes into one multi-lane pass.
    ///
    /// `choice` is kept only because the `perfbench` benchmark still
    /// passes it; it goes when that call does.
    ///
    /// # Errors
    ///
    /// Gate construction failures (e.g. a lane band beyond what the
    /// dispersion branch supports) and [`SchedulerBuilder::register`]'s
    /// conditions.
    pub fn register_circuit_gates_on_lane(
        &mut self,
        waveguide: Waveguide,
        waveguide_id: WaveguideId,
        lane: LaneId,
        width: usize,
        choice: BackendChoice,
    ) -> Result<(GateId, GateId), ServeError> {
        let step = packed_frequency_step(width);
        let base = fdm_lane_base(lane.0, width);
        let maj3 = ParallelGateBuilder::new(waveguide)
            .channels(width)
            .inputs(3)
            .function(LogicFunction::Majority)
            .base_frequency(base)
            .frequency_step(step)
            .on_waveguide(waveguide_id)
            .on_lane(lane)
            .build()
            .map_err(ServeError::Gate)?;
        let xor2 = ParallelGateBuilder::new(waveguide)
            .channels(width)
            .inputs(2)
            .function(LogicFunction::Xor)
            .base_frequency(base)
            .frequency_step(step)
            .on_waveguide(waveguide_id)
            .on_lane(lane)
            .build()
            .map_err(ServeError::Gate)?;
        // Lane 0 keeps the pre-FDM names, so existing registrations and
        // wire directories stay valid.
        let suffix = if lane.0 == 0 {
            String::new()
        } else {
            format!("_{lane}")
        };
        let maj_id = self.register(
            format!("maj3_w{width}_{waveguide_id}{suffix}"),
            maj3,
            choice,
        )?;
        let xor_id = self.register(
            format!("xor2_w{width}_{waveguide_id}{suffix}"),
            xor2,
            choice,
        )?;
        Ok((maj_id, xor_id))
    }

    /// Builds the runtime: validates the configuration, builds every
    /// gate's truth table, places each waveguide's gates on one shard
    /// and spawns the workers.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Config`] for an unusable configuration
    ///   (`max_batch == 0`, overlapping lanes of one waveguide).
    /// * [`ServeError::Gate`] when a table cannot be built or a worker
    ///   thread cannot be spawned.
    pub fn build(self) -> Result<Scheduler, ServeError> {
        let mut config = self.config;
        if config.max_batch == 0 {
            return Err(ServeError::Config {
                reason: "max_batch must be at least 1 — a zero cap would make the linger loop \
                         unreachable and silently serve every request as a batch of one"
                    .into(),
            });
        }
        config.workers = config.workers.max(1);
        config.queue_depth = config.queue_depth.max(1);

        // Distinct lanes of one waveguide must occupy disjoint bands —
        // the drain stacks them into one physical excitation, which is
        // only real when their spectra cannot interfere. (Same-lane
        // gates may share a band: they serve as separate passes, the
        // pre-FDM behaviour.)
        for (i, (name_a, gate_a)) in self.registrations.iter().enumerate() {
            for (name_b, gate_b) in self.registrations.iter().skip(i + 1) {
                if gate_a.waveguide_id() == gate_b.waveguide_id()
                    && gate_a.lane_id() != gate_b.lane_id()
                    && gate_a.frequency_lane().overlaps(gate_b.frequency_lane())
                {
                    return Err(ServeError::Config {
                        reason: format!(
                            "gates `{name_a}` ({}) and `{name_b}` ({}) claim distinct frequency \
                             lanes of {} but their bands overlap ({:.1}-{:.1} GHz vs {:.1}-{:.1} \
                             GHz) — stacked FDM passes need disjoint spectra (shift one with \
                             base_frequency/fdm_lane_base, or put them on the same lane)",
                            gate_a.lane_id(),
                            gate_b.lane_id(),
                            gate_a.waveguide_id(),
                            gate_a.frequency_lane().band_low / 1e9,
                            gate_a.frequency_lane().band_high / 1e9,
                            gate_b.frequency_lane().band_low / 1e9,
                            gate_b.frequency_lane().band_high / 1e9,
                        ),
                    });
                }
            }
        }

        let gate_count = self.registrations.len();
        let mut lane_slots: BTreeMap<(u64, u16), usize> = BTreeMap::new();
        let mut placements: Vec<(WaveguideId, LaneId, usize)> = Vec::new();
        let mut entries = Vec::with_capacity(gate_count);
        let mut served = Vec::with_capacity(gate_count);
        for (name, gate) in self.registrations {
            let waveguide = gate.waveguide_id();
            let lane = gate.lane_id();
            // The shard comes from the waveguide alone, so every lane of
            // one medium is co-resident and FDM-coalesces.
            let shard = static_shard(waveguide, config.workers);
            let lane_slot = *lane_slots.entry((waveguide.0, lane.0)).or_insert_with(|| {
                placements.push((waveguide, lane, shard));
                placements.len() - 1
            });
            served.push(ServedGate {
                lane_slot,
                waveguide,
                lane,
                table: GateTable::new(&gate)?,
            });
            entries.push(GateEntry { name, gate, shard });
        }
        let gates: Arc<[ServedGate]> = served.into();

        let telemetry = Arc::new(Telemetry::new(config.workers, config.linger, placements));
        let stats = Arc::new(SharedStats::default());
        let mut senders = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for shard in 0..config.workers {
            let (tx, rx) = mpsc::sync_channel(config.queue_depth);
            let worker = Worker {
                shard,
                rx,
                gates: Arc::clone(&gates),
                linger: config.linger,
                max_batch: config.max_batch,
                stats: Arc::clone(&stats),
                telemetry: Arc::clone(&telemetry),
                scratch: DrainScratch::default(),
            };
            senders.push(tx);
            handles.push(
                thread::Builder::new()
                    .name(format!("magnon-serve-{shard}"))
                    .spawn(move || worker.run())
                    .map_err(|e| {
                        ServeError::Gate(GateError::Runtime {
                            reason: format!("failed to spawn worker thread: {e}"),
                        })
                    })?,
            );
        }
        Ok(Scheduler {
            entries,
            senders,
            handles,
            stats,
            telemetry,
            next_tag: AtomicU64::new(0),
        })
    }
}

/// Splitmix64 finalizer: an invertible multiplicative bit-mix.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Static placement: mix the id bits, then fold the well-mixed *high*
/// half. A raw `waveguide_id % workers` systematically collides ids
/// sharing a factor with the worker count (all-even ids on 2 workers
/// load only the even shards); the mix spreads them uniformly.
fn static_shard(waveguide: WaveguideId, workers: usize) -> usize {
    ((mix64(waveguide.0) >> 32) % workers.max(1) as u64) as usize
}

/// Drain-cycle scratch owned by the worker. Every buffer keeps its
/// capacity between drains, so steady-state serving stops allocating
/// once the buffers reach their high-water mark — the workspace
/// call-graph analyzer proves the drain path allocation-free modulo
/// the waived amortized-growth sites that fill these.
#[derive(Default)]
struct DrainScratch {
    /// Association list, gate index → jobs. Replaces a per-drain
    /// `BTreeMap`: linear scans win at drain-sized group counts, and
    /// the entries reuse pooled job vectors instead of allocating a
    /// node per job. Sorted by waveguide before serving, so each
    /// waveguide's groups form one contiguous run.
    groups: Vec<(usize, Vec<EvalJob>)>,
    /// Emptied job vectors handed back by the serve paths.
    pool: Vec<Vec<EvalJob>>,
    /// Per-waveguide lane election: `(lane, run offset, depth)`.
    lanes: Vec<(u16, usize, usize)>,
    /// Groups elected into one stacked FDM pass.
    stacked: Vec<Vec<EvalJob>>,
}

/// One worker shard: a bounded queue over the shared gate tables.
struct Worker {
    shard: usize,
    rx: Receiver<EvalJob>,
    /// `gates[gate index]` — every registered gate's routing facts and
    /// table, shared by all workers.
    gates: Arc<[ServedGate]>,
    /// Fixed linger window (see [`ServeConfig::linger`]).
    linger: Duration,
    max_batch: usize,
    stats: Arc<SharedStats>,
    telemetry: Arc<Telemetry>,
    /// Reusable drain-cycle buffers (see [`DrainScratch`]).
    scratch: DrainScratch,
}

impl Worker {
    fn run(mut self) {
        let mut pending: Vec<EvalJob> = Vec::with_capacity(self.max_batch);
        loop {
            // Block for the cycle's first request; a closed queue is
            // the shutdown signal.
            match self.rx.recv() {
                Ok(job) => pending.push(job),
                Err(_) => break,
            }
            // Linger (zero by default): keep collecting so concurrent
            // submitters coalesce.
            let deadline = Instant::now() + self.linger;
            while pending.len() < self.max_batch {
                let now = Instant::now();
                if now >= deadline {
                    // The window closed; sweep whatever is already
                    // queued without waiting further.
                    match self.rx.try_recv() {
                        Ok(job) => pending.push(job),
                        Err(_) => break,
                    }
                    continue;
                }
                match self.rx.recv_timeout(deadline - now) {
                    Ok(job) => pending.push(job),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            self.serve_drain(&mut pending);
        }
        self.drain_stragglers(&mut pending);
    }

    /// Serves everything still queued (or mid-collection in `pending`)
    /// once the last sender has dropped: every straggler must be
    /// answered, in batches capped at `max_batch` — a deep backlog
    /// flushes mid-drain instead of growing one oversized batch.
    fn drain_stragglers(&mut self, pending: &mut Vec<EvalJob>) {
        while let Ok(job) = self.rx.try_recv() {
            pending.push(job);
            if pending.len() >= self.max_batch {
                self.serve_drain(pending);
            }
        }
        if !pending.is_empty() {
            self.serve_drain(pending);
        }
    }

    /// `(waveguide id, lane id)` of `gate`. Every caller runs behind
    /// [`Worker::serve_drain`]'s index assert, so the fallback (a
    /// waveguide and lane of its own) is dead code that exists only to
    /// keep the drain path free of panicking lookups.
    fn placement_of(&self, gate: usize) -> (u64, u16) {
        self.gates
            .get(gate)
            .map_or((u64::MAX, u16::MAX), |g| (g.waveguide.0, g.lane.0))
    }

    /// Serves one drain cycle: group by gate, then stack groups riding
    /// distinct frequency lanes of one waveguide into a single
    /// multi-lane FDM pass. One batch per surviving group, tags routed
    /// back to their tickets.
    fn serve_drain(&mut self, pending: &mut Vec<EvalJob>) {
        let drained = pending.len() as u64;
        let hit_cap = pending.len() >= self.max_batch;
        // Account the dequeue *before* serving: a client that observes
        // its completion must never still see its request in the queue
        // gauge.
        self.telemetry.record_drain(self.shard, drained, hit_cap);
        // A gate index past the registry is memory corruption or an
        // injected poison job: crash this worker loudly here, at the
        // drain's entry, rather than serve a wrong answer. This is the
        // drain path's ONE deliberate panic site (the shutdown path
        // joins and reports the panicked shard; the model checker's
        // shutdown-under-panic scenario drives exactly this).
        for job in pending.iter() {
            // analyze: allow(can-panic) — deliberate corruption trap, see above
            assert!(
                job.gate < self.gates.len(),
                "job targets unregistered gate index {}",
                job.gate
            );
        }
        // The scratch moves out of `self` for the cycle (the serve
        // calls below need `&self`) and moves back at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        for job in pending.drain(..) {
            let gate = job.gate;
            if let Some((_, group)) = scratch.groups.iter_mut().find(|(g, _)| *g == gate) {
                // analyze: allow(can-alloc) — amortized: pooled group
                // vector keeps its capacity across drains.
                group.push(job);
            } else {
                let mut group = scratch.pool.pop().unwrap_or_default();
                // analyze: allow(can-alloc) — amortized: pooled vector reuse
                group.push(job);
                // analyze: allow(can-alloc) — amortized: association list reuse
                scratch.groups.push((gate, group));
            }
        }
        let gates_touched = scratch.groups.len() as u64;
        scratch
            .groups
            .sort_unstable_by_key(|(gate, _)| self.placement_of(*gate).0);
        let mut batches = 0u64;
        // Serve each waveguide run. At most ONE channel group per lane
        // may ride the stacked pass — groups sharing a lane occupy the
        // same band, so only disjoint-band representatives form one
        // physical excitation. Pick the deepest group per lane
        // (densest stack, first wins ties); same-lane leftovers serve
        // as their own batches, exactly like pre-FDM cross-gate
        // coalescing.
        let mut start = 0;
        while let Some(&(first, _)) = scratch.groups.get(start) {
            let waveguide = self.placement_of(first).0;
            let mut end = start + 1;
            while scratch
                .groups
                .get(end)
                .is_some_and(|(gate, _)| self.placement_of(*gate).0 == waveguide)
            {
                end += 1;
            }
            scratch.lanes.clear();
            for (offset, (gate, group)) in scratch.groups.iter().enumerate().take(end).skip(start) {
                let lane = self.placement_of(*gate).1;
                if let Some(entry) = scratch.lanes.iter_mut().find(|(l, _, _)| *l == lane) {
                    if entry.2 < group.len() {
                        *entry = (lane, offset, group.len());
                    }
                } else {
                    // analyze: allow(can-alloc) — amortized: scratch
                    // election list keeps its capacity across drains.
                    scratch.lanes.push((lane, offset, group.len()));
                }
            }
            let stack = scratch.lanes.len() >= 2;
            scratch.stacked.clear();
            for offset in start..end {
                let Some((_, group)) = scratch.groups.get_mut(offset) else {
                    continue;
                };
                let group = std::mem::take(group);
                let elected = stack && scratch.lanes.iter().any(|&(_, index, _)| index == offset);
                if elected {
                    // analyze: allow(can-alloc) — amortized: scratch
                    // stack keeps its capacity across drains.
                    scratch.stacked.push(group);
                } else {
                    batches += 1;
                    let spent = self.serve_group(group);
                    // analyze: allow(can-alloc) — amortized: the pool
                    // grows to the drain's high-water group count.
                    scratch.pool.push(spent);
                }
            }
            if stack {
                batches += 1;
                self.serve_fdm(
                    &mut scratch.stacked,
                    &mut scratch.pool,
                    scratch.lanes.len() as u64,
                );
            }
            start = end;
        }
        scratch.groups.clear();
        self.scratch = scratch;
        self.stats.record_drain(drained, batches, gates_touched);
    }

    /// Serves one whole-waveguide multi-lane pass: each group is one
    /// channel group (a gate design's queued jobs) riding its own
    /// frequency lane, each answered from its own gate's table — the
    /// companion paper's multi-frequency parallelism as a drain-path
    /// operation.
    fn serve_fdm(&self, stacked: &mut Vec<Vec<EvalJob>>, pool: &mut Vec<Vec<EvalJob>>, lanes: u64) {
        // Recorded before any reply goes out, so a client that sees
        // its completion also sees the pass.
        let requests = stacked.iter().map(Vec::len).sum::<usize>() as u64;
        self.stats.record_fdm_pass(lanes, requests);
        for group in stacked.drain(..) {
            let spent = self.serve_group(group);
            // analyze: allow(can-alloc) — amortized: the pool grows to
            // the drain's high-water group count.
            pool.push(spent);
        }
    }

    /// Serves one group (every job targets the same gate): each job is
    /// answered from its own operand words by the gate's table kernel.
    /// Returns the emptied job vector so the caller can pool it for the
    /// next drain.
    fn serve_group(&self, mut group: Vec<EvalJob>) -> Vec<EvalJob> {
        let Some(gate) = group.first().and_then(|job| self.gates.get(job.gate)) else {
            // Empty, or unreachable behind `serve_drain`'s index
            // assert: dropped jobs answer their tickets with
            // `ServeError::Shutdown`.
            group.clear();
            return group;
        };
        // Accounted before the replies: a client that sees its
        // completion also sees it served on its lane.
        self.telemetry
            .record_lane_served(gate.lane_slot, group.len() as u64);
        for job in group.drain(..) {
            let word = gate.table.word(job.set.words());
            // ordering: Relaxed — monotonic stat counter; the reply
            // channel orders the result delivery.
            self.stats.completed.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.try_send((job.tag, GateOutput::logic_only(word)));
        }
        group
    }
}

/// What [`Scheduler::shutdown`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutdownReport {
    /// Final counter snapshot.
    pub stats: SchedulerStats,
}

/// The running sharded runtime. See the [module docs](self) for the
/// architecture.
pub struct Scheduler {
    entries: Vec<GateEntry>,
    senders: Vec<SyncSender<EvalJob>>,
    handles: Vec<JoinHandle<()>>,
    stats: Arc<SharedStats>,
    telemetry: Arc<Telemetry>,
    next_tag: AtomicU64,
}

impl Scheduler {
    /// The gate behind `id`, when registered.
    pub fn gate(&self, id: GateId) -> Option<&ParallelGate> {
        self.entries.get(id.0).map(|e| &e.gate)
    }

    /// The registration name of `id`.
    pub fn gate_name(&self, id: GateId) -> Option<&str> {
        self.entries.get(id.0).map(|e| e.name.as_str())
    }

    /// The [`GateId`] for registration index `index`, when it exists —
    /// how front-ends that carry gate indices over a wire (e.g.
    /// `magnon-net`) get back a validated handle.
    pub fn gate_id(&self, index: usize) -> Option<GateId> {
        (index < self.entries.len()).then_some(GateId(index))
    }

    /// Number of registered gates.
    pub fn gate_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of worker shards.
    pub fn worker_count(&self) -> usize {
        self.senders.len()
    }

    /// The shard serving `id`'s waveguide. Placement is static, so
    /// this is fixed at build time.
    pub fn shard_of(&self, id: GateId) -> Option<usize> {
        self.entries.get(id.0).map(|e| e.shard)
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        self.stats.snapshot()
    }

    /// Current load-telemetry snapshot: per-shard queue depths, drain
    /// counters and linger windows, and per-lane placement
    /// and served counts.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    fn job_for(&self, id: GateId, set: OperandSet) -> Result<(usize, EvalJob, Ticket), ServeError> {
        let entry = self
            .entries
            .get(id.0)
            .ok_or(ServeError::UnknownGate { index: id.0 })?;
        // A lookup in the drain cannot fail: malformed sets stop here.
        entry.gate.check_inputs(set.words())?;
        let shard = entry.shard;
        // ordering: Relaxed — tags only need uniqueness; submission
        // order is established by the queue send, not the counter.
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = mpsc::sync_channel(1);
        Ok((
            shard,
            EvalJob {
                gate: id.0,
                tag,
                set,
                reply,
            },
            Ticket { tag, rx },
        ))
    }

    /// Submits one evaluation, blocking while the target shard's queue
    /// is full (backpressure).
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownGate`] for a foreign [`GateId`].
    /// * [`ServeError::Gate`] wrapping [`GateError::InputCountMismatch`]
    ///   or [`GateError::WordWidthMismatch`] when `set` does not fit the
    ///   gate; nothing is queued.
    /// * [`ServeError::Shutdown`] when the runtime is gone.
    pub fn submit(&self, id: GateId, set: OperandSet) -> Result<Ticket, ServeError> {
        let (shard, job, ticket) = self.job_for(id, set)?;
        // Gauge accounting happens BEFORE the send: a worker can drain
        // the job the instant it lands, and counting afterwards opens a
        // window where the drain's decrement beats our increment and
        // the gauge dips negative (found by the model checker's
        // gauge-never-negative invariant). The cost is that a submitter
        // parked on a full queue counts as depth a little early — it
        // will land (or the failed send rolls the count back), so the
        // gauge stays an upper bound that still drains to zero.
        self.telemetry.note_enqueued(shard);
        let sender = self.senders.get(shard).ok_or(ServeError::Shutdown)?;
        if sender.send(job).is_err() {
            self.telemetry.note_send_failed(shard);
            return Err(ServeError::Shutdown);
        }
        // ordering: Relaxed — monotonic stat counter; the channel send
        // above is the synchronizing handoff.
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Submits without blocking; a full queue is an error instead of
    /// backpressure.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] plus the conditions of
    /// [`Scheduler::submit`].
    pub fn try_submit(&self, id: GateId, set: OperandSet) -> Result<Ticket, ServeError> {
        let (shard, job, ticket) = self.job_for(id, set)?;
        // Increment-then-rollback, as in `submit`: the gauge must lead
        // the send so a racing drain can never take it negative.
        self.telemetry.note_enqueued(shard);
        let Some(sender) = self.senders.get(shard) else {
            self.telemetry.note_send_failed(shard);
            return Err(ServeError::Shutdown);
        };
        match sender.try_send(job) {
            Ok(()) => {
                // ordering: Relaxed — monotonic stat counter; the
                // channel send is the synchronizing handoff.
                self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            Err(TrySendError::Full(_)) => {
                self.telemetry.note_send_failed(shard);
                Err(ServeError::QueueFull { shard })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.telemetry.note_send_failed(shard);
                Err(ServeError::Shutdown)
            }
        }
    }

    /// The raw, unclamped queue-depth gauge of `shard` — model-check
    /// invariants assert on this (never negative once drains settle,
    /// zero at shutdown), where [`Scheduler::telemetry`]'s snapshot
    /// would clamp the evidence away.
    #[cfg(mcheck)]
    #[doc(hidden)]
    pub fn queued_raw(&self, shard: usize) -> i64 {
        self.telemetry.queued_raw(shard)
    }

    /// Sends a deliberately malformed job straight into `shard`'s
    /// queue so its worker panics mid-drain — the model checker's hook
    /// for the shutdown-joins-all-workers-under-panic invariant.
    /// Returns whether the poison landed.
    #[cfg(mcheck)]
    #[doc(hidden)]
    pub fn inject_poison(&self, shard: usize) -> bool {
        let Some(sender) = self.senders.get(shard) else {
            return false;
        };
        let (reply, _rx) = mpsc::sync_channel(1);
        // The poison rides the gauge like any job: the worker's drain
        // decrement must see a matching increment.
        self.telemetry.note_enqueued(shard);
        let landed = sender
            .send(EvalJob {
                gate: usize::MAX,
                tag: u64::MAX,
                set: OperandSet::new(Vec::new()),
                reply,
            })
            .is_ok();
        if !landed {
            self.telemetry.note_send_failed(shard);
        }
        landed
    }

    /// Submits a whole request list up front, then waits for every
    /// completion — the batchable-load entry point. Results come back
    /// in request order regardless of how the shards batched or
    /// reordered the work.
    ///
    /// # Errors
    ///
    /// The first failing request aborts with its error.
    pub fn evaluate_many(
        &self,
        requests: &[(GateId, OperandSet)],
    ) -> Result<Vec<GateOutput>, ServeError> {
        let mut tickets = Vec::with_capacity(requests.len());
        for (id, set) in requests {
            tickets.push(self.submit(*id, set.clone())?);
        }
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Stops accepting work and joins every worker.
    ///
    /// Every worker is joined before any outcome is reported: a single
    /// panicked shard must not detach the surviving workers.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanicked`] when one or more workers panicked
    /// (carrying the report of the final counters).
    pub fn shutdown(mut self) -> Result<ShutdownReport, ServeError> {
        self.senders.clear();
        let mut panicked = Vec::new();
        for (shard, handle) in std::mem::take(&mut self.handles).into_iter().enumerate() {
            if handle.join().is_err() {
                panicked.push(shard);
            }
        }
        let report = ShutdownReport {
            stats: self.stats.snapshot(),
        };
        if panicked.is_empty() {
            Ok(report)
        } else {
            Err(ServeError::WorkerPanicked {
                shards: panicked,
                report: Box::new(report),
            })
        }
    }
}

impl Drop for Scheduler {
    /// Dropping without [`Scheduler::shutdown`] still joins the
    /// workers.
    fn drop(&mut self) {
        self.senders.clear();
        for handle in std::mem::take(&mut self.handles) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("gates", &self.entries.len())
            .field("workers", &self.senders.len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnon_core::word::Word;
    use std::collections::BTreeSet;

    fn sample_set(seed: u64) -> OperandSet {
        OperandSet::new(
            (0..3u64)
                .map(|j| Word::from_u8((seed.wrapping_mul(0x9E37_79B9) >> (8 * j)) as u8))
                .collect(),
        )
    }

    /// A worker wired to a hand-held queue, for driving the drain paths
    /// directly. It serves two gates on lanes 0 and 1 of waveguide 0, so
    /// a drain touching both stacks them into one FDM pass: gate 0 is a
    /// 3-input majority, gate 1 a 2-input XOR on lane 1's band.
    fn test_worker(
        max_batch: usize,
        queue_depth: usize,
        linger: Duration,
    ) -> (SyncSender<EvalJob>, Worker) {
        let maj = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(3)
            .build()
            .unwrap();
        let xor = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(2)
            .function(LogicFunction::Xor)
            .base_frequency(fdm_lane_base(1, 8))
            .frequency_step(packed_frequency_step(8))
            .on_lane(LaneId(1))
            .build()
            .unwrap();
        let gates: Vec<ServedGate> = [maj, xor]
            .iter()
            .zip(0u16..)
            .map(|(gate, lane)| ServedGate {
                lane_slot: usize::from(lane),
                waveguide: WaveguideId(0),
                lane: LaneId(lane),
                table: GateTable::new(gate).unwrap(),
            })
            .collect();
        let (tx, rx) = mpsc::sync_channel(queue_depth);
        let worker = Worker {
            shard: 0,
            rx,
            gates: gates.into(),
            linger,
            max_batch,
            stats: Arc::new(SharedStats::default()),
            telemetry: Arc::new(Telemetry::new(
                1,
                linger,
                vec![
                    (WaveguideId(0), LaneId(0), 0),
                    (WaveguideId(0), LaneId(1), 0),
                ],
            )),
            scratch: DrainScratch::default(),
        };
        (tx, worker)
    }

    #[test]
    fn stragglers_flush_in_capped_batches_when_the_sender_is_gone() {
        // Ten jobs sit in the queue with no sender left: the straggler
        // sweep must answer all of them, flushing mid-drain every time
        // the collection reaches max_batch instead of growing one
        // oversized batch.
        let (tx, mut worker) = test_worker(4, 16, Duration::from_micros(50));
        // One reply sender shared by every job: it needs a slot per
        // answer, since the worker's `try_send` never waits for room.
        let (reply, completions) = mpsc::sync_channel(16);
        for tag in 0..10u64 {
            tx.send(EvalJob {
                gate: 0,
                tag,
                set: sample_set(tag),
                reply: reply.clone(),
            })
            .unwrap();
        }
        drop(tx);
        drop(reply);
        let mut pending = Vec::new();
        worker.drain_stragglers(&mut pending);
        assert!(pending.is_empty());
        // Every straggler is answered, none dropped.
        let mut tags: Vec<u64> = completions.iter().map(|(tag, _)| tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
        let stats = worker.stats.snapshot();
        // 10 jobs at cap 4: two full mid-drain flushes plus the tail.
        assert_eq!(stats.drain_passes, 3);
        assert_eq!(stats.max_drain, 4);
        assert_eq!(stats.completed, 10);
    }

    #[test]
    fn run_serves_jobs_queued_before_the_last_sender_dropped() {
        // The whole worker loop: jobs buffered at spawn time with the
        // sender already gone must all be answered.
        let (tx, worker) = test_worker(4, 16, Duration::from_micros(50));
        // Shared reply sender: one slot per answer (see above).
        let (reply, completions) = mpsc::sync_channel(16);
        for tag in 0..7u64 {
            tx.send(EvalJob {
                gate: 0,
                tag,
                set: sample_set(tag),
                reply: reply.clone(),
            })
            .unwrap();
        }
        drop(tx);
        drop(reply);
        worker.run();
        assert_eq!(completions.iter().count(), 7, "a queued job was dropped");
    }

    #[test]
    fn zero_linger_serves_a_queued_backlog_in_one_drain_and_waits_for_more() {
        // The default path: with no linger window, the worker blocks for
        // the first job, sweeps the three already queued behind it and
        // serves all four in one drain. The sender stays open, so it
        // must then block for more rather than exit.
        let (tx, worker) = test_worker(8, 8, Duration::ZERO);
        let stats = Arc::clone(&worker.stats);
        let (reply, completions) = mpsc::sync_channel(4);
        for tag in 0..4u64 {
            tx.send(EvalJob {
                gate: 0,
                tag,
                set: sample_set(tag),
                reply: reply.clone(),
            })
            .unwrap();
        }
        drop(reply);
        let handle = thread::spawn(move || worker.run());
        let mut tags: Vec<u64> = (0..4)
            .map(|_| completions.recv().expect("queued job must be served").0)
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..4).collect::<Vec<_>>());
        assert!(!handle.is_finished(), "an open sender must keep the worker");
        drop(tx);
        handle.join().unwrap();
        // Read after the join: the drain records its stats after it
        // answers.
        let snapshot = stats.snapshot();
        assert_eq!(snapshot.drain_passes, 1, "one sweep, one drain");
        assert_eq!(snapshot.completed, 4);
    }

    #[test]
    fn shutdown_joins_all_workers_when_one_panics() {
        // One poisoned worker must not detach the others: shutdown has
        // to join every shard and only then report the panic. (The
        // poisoned worker prints a panic message to stderr — expected
        // noise for this test.)
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let make = |wg: u64| {
            ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
                .channels(8)
                .inputs(3)
                .on_waveguide(WaveguideId(wg))
                .build()
                .unwrap()
        };
        // Waveguides 0 and 1 statically land on different shards of 2.
        let survivor = builder
            .register("maj_survivor", make(0), BackendChoice::Cached)
            .unwrap();
        let victim = builder
            .register("maj_victim", make(1), BackendChoice::Cached)
            .unwrap();
        let scheduler = builder.build().unwrap();
        assert_ne!(
            scheduler.shard_of(survivor),
            scheduler.shard_of(victim),
            "precondition: the gates must live on different shards"
        );
        for (id, seed) in [(survivor, 1), (victim, 2)] {
            scheduler
                .submit(id, sample_set(seed))
                .unwrap()
                .wait()
                .unwrap();
        }
        // Poison the victim's shard: a job whose gate index is out of
        // range trips the drain's corruption assert.
        let victim_shard = scheduler.shard_of(victim).unwrap();
        let (reply, _completions) = mpsc::sync_channel(1);
        scheduler.senders[victim_shard]
            .send(EvalJob {
                gate: usize::MAX,
                tag: u64::MAX,
                set: sample_set(3),
                reply,
            })
            .unwrap();
        match scheduler.shutdown() {
            Err(ServeError::WorkerPanicked { shards, report }) => {
                assert_eq!(shards, vec![victim_shard]);
                assert_eq!(report.stats.completed, 2, "survivors' work is reported");
            }
            other => panic!("a panicked worker must surface as WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn scheduler_is_send_and_sync() {
        // The network front-end shares one scheduler across its accept
        // loop and per-connection threads through an Arc.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Scheduler>();
    }

    #[test]
    fn mixed_static_placement_spreads_shared_factor_ids() {
        // Raw modulo would put every even id on shard 0 of 2. The mixed
        // fold must touch both shards for all-even ids.
        let shards: BTreeSet<usize> = (0..16u64)
            .map(|i| static_shard(WaveguideId(i * 2), 2))
            .collect();
        assert_eq!(shards.len(), 2, "all-even ids must reach both shards");
        // And for a handful of worker counts, nothing maps out of
        // range.
        for workers in 1..=5 {
            for id in 0..64u64 {
                assert!(static_shard(WaveguideId(id), workers) < workers);
            }
        }
    }
}
