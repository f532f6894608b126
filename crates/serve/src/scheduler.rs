//! The sharded, waveguide-aware scheduler.
//!
//! # Architecture
//!
//! ```text
//!  clients ── submit(GateId, OperandSet) ──► Ticket
//!      │
//!      ▼  route to the gate's shard, fixed at build time by its
//!      │  WaveguideId (every lane of one waveguide shares a shard)
//!  ┌───────────────┐   ┌───────────────┐
//!  │ shard 0 queue │   │ shard 1 queue │   … bounded MPSC
//!  └──────┬────────┘   └──────┬────────┘
//!         ▼                   ▼
//!   worker thread        worker thread     each owns the backend
//!   drain → group        drain → group     sessions of the gates
//!   by gate → stack      by gate → stack   placed on it
//!   lanes of a           lanes of a
//!   waveguide → FDM      waveguide → FDM
//!   evaluate pass        evaluate pass
//! ```
//!
//! A worker drains its queue in cycles: it blocks on the first request,
//! sweeps whatever is already queued (up to the batch cap), groups what
//! it got, and issues one [`GateSession::evaluate_batch`] per group.
//! With the default zero [`ServeConfig::linger`] there is no timed
//! wait: a lone request is served on arrival, and a backlog that built
//! up while the worker was busy forms the next batch. Because routing
//! is by [`WaveguideId`], a drain cycle naturally coalesces requests
//! across *different* gates sharing a waveguide — the cross-gate data
//! parallelism of the companion paper (arXiv:2008.12220) — while
//! requests for the same gate ride one batch, the in-waveguide
//! parallelism of the source paper.
//!
//! # Placement
//!
//! Placement is static: [`SchedulerBuilder::build`] puts each waveguide
//! on `static_shard(waveguide, workers)`, a bit-mixed hash of its id,
//! and moves every gate's warm session onto that shard. A gate lives on
//! exactly one shard for the scheduler's lifetime, so a worker never
//! builds a session on demand.
//!
//! # Frequency-division multiplexing
//!
//! Gates carrying the same [`WaveguideId`] but distinct [`LaneId`]s
//! occupy disjoint frequency bands of one physical medium, so their
//! groups do not stay separate batches: the drain stacks every lane of
//! a waveguide into one multi-lane [`evaluate_fdm_batch_logic`]
//! pass (micromagnetic backends are excluded: their time-domain
//! simulation is per-gate). Per-shard FDM pass counters and per-lane
//! served counters surface through [`Scheduler::telemetry`]; register
//! lane-shifted circuit gates with
//! [`SchedulerBuilder::register_circuit_gates_on_lane`].
//!
//! Completions carry the scheduler-assigned request tag, so they are
//! safe to deliver out of order; each [`Ticket`] simply receives its
//! own through a one-slot reply channel. A worker answers with
//! `try_send`, so it never blocks on a reply: each channel carries
//! exactly one answer, and a dropped ticket just discards it.
//!
//! # LUT persistence
//!
//! With [`ServeConfig::lut_dir`] set, [`SchedulerBuilder::build`] loads
//! each gate's persisted truth-table LUT (if present and valid) into
//! the gate's session before handing it to its shard, and
//! [`Scheduler::shutdown`] merges every shard's LUT and writes it back
//! (atomically — a crash mid-write never corrupts the previous file).
//! A warm restart therefore serves from the first request without
//! recomputing any channel readout.

use crate::error::ServeError;
use crate::request::{EvalJob, GateId, SchedulerStats, SharedStats, Ticket};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use magnon_circuits::netlist::{fdm_lane_base, packed_frequency_step};
use magnon_core::backend::{
    evaluate_fdm_batch_logic, BackendChoice, GateSession, LaneBatch, OperandSet, RequestTag,
};
use magnon_core::gate::{GateOutput, LaneId, ParallelGate, ParallelGateBuilder, WaveguideId};
use magnon_core::lut_store::{load_lut, save_lut, LutSnapshot};
use magnon_core::sync::atomic::{AtomicU64, Ordering};
use magnon_core::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use magnon_core::sync::thread::{self, JoinHandle};
use magnon_core::sync::time::{Duration, Instant};
use magnon_core::sync::Arc;
use magnon_core::truth::LogicFunction;
use magnon_core::GateError;
use magnon_physics::waveguide::Waveguide;
use std::collections::BTreeMap;
use std::path::PathBuf;

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
    /// Directory for persisted LUT files (`<gate name>.mglut`). `None`
    /// disables persistence.
    pub lut_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 256,
            linger: Duration::ZERO,
            queue_depth: 1024,
            lut_dir: None,
        }
    }
}

/// One registered gate's bookkeeping.
struct GateEntry {
    name: String,
    /// Introspection clone (the serving session lives on its shard).
    gate: ParallelGate,
    /// The shard serving this gate, fixed at build time.
    shard: usize,
    lut_loaded: usize,
}

/// Per-gate routing facts shared with every worker (read-only after
/// build).
#[derive(Debug, Clone, Copy)]
struct GateMeta {
    /// Index into the per-`(waveguide, lane)` telemetry table.
    lane_slot: usize,
    /// The gate's waveguide — FDM passes only stack lanes of one
    /// physical medium.
    waveguide: WaveguideId,
    /// The gate's frequency lane on that waveguide.
    lane: LaneId,
    /// Whether this gate's backend may join a multi-lane FDM pass
    /// (micromag never does: its time-domain simulation is per-gate).
    fdm_ok: bool,
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
    registrations: Vec<(String, ParallelGate, BackendChoice)>,
}

impl SchedulerBuilder {
    /// Starts a builder with `config`.
    pub fn new(config: ServeConfig) -> Self {
        SchedulerBuilder {
            config,
            registrations: Vec::new(),
        }
    }

    /// Registers `gate` under `name` (also the LUT file stem when
    /// persistence is on), serving through `choice`'s backend on the
    /// gate's shard.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Gate`] for a duplicate name — compared on
    /// the sanitized LUT file stem, so two names that would persist to
    /// the same `.mglut` file (e.g. `maj3/a` and `maj3_a`) cannot
    /// coexist and silently overwrite each other's tables.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        gate: ParallelGate,
        choice: BackendChoice,
    ) -> Result<GateId, ServeError> {
        let name = name.into();
        let stem = lut_stem(&name);
        if self
            .registrations
            .iter()
            .any(|(n, _, _)| lut_stem(n) == stem)
        {
            return Err(ServeError::Gate(GateError::Persistence {
                reason: format!("gate name `{name}` collides with an earlier registration (LUT file stem `{stem}`)"),
            }));
        }
        let id = GateId(self.registrations.len());
        self.registrations.push((name, gate, choice));
        Ok(id)
    }

    /// Registers the two gate shapes circuits lower to (3-input
    /// majority, 2-input XOR) at `width` channels on `waveguide`,
    /// mirroring what an inline
    /// [`magnon_circuits::netlist::GateBank`] would lazily build. Both
    /// gates carry `waveguide_id` (on frequency lane 0), so their
    /// traffic shares a shard and coalesces.
    ///
    /// # Errors
    ///
    /// Gate construction failures and duplicate names.
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
    /// # Errors
    ///
    /// Gate construction failures (e.g. a lane band beyond what the
    /// dispersion branch supports) and duplicate names.
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
        // Lane 0 keeps the pre-FDM names, so existing LUT files and
        // registrations stay valid.
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

    /// Builds the runtime: validates the configuration, loads persisted
    /// LUTs, places each waveguide's gates on one shard and spawns the
    /// workers.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Config`] for an unusable configuration
    ///   (`max_batch == 0`).
    /// * [`ServeError::Gate`] for backend construction failures.
    /// * [`ServeError::Gate`] wrapping [`GateError::Persistence`] when
    ///   a persisted LUT file exists but is corrupted or belongs to a
    ///   different gate design (delete the stale file to proceed).
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
        for (i, (name_a, gate_a, _)) in self.registrations.iter().enumerate() {
            for (name_b, gate_b, _) in self.registrations.iter().skip(i + 1) {
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
        let mut meta: Vec<GateMeta> = Vec::with_capacity(gate_count);
        // `shard_sessions[shard][gate]`: each gate's one session, on the
        // shard its waveguide hashes to.
        let mut shard_sessions: Vec<Vec<Option<GateSession>>> = (0..config.workers)
            .map(|_| (0..gate_count).map(|_| None).collect())
            .collect();
        for (index, (name, gate, choice)) in self.registrations.into_iter().enumerate() {
            let mut session = GateSession::new(gate.clone(), choice)?;
            let mut lut_loaded = 0;
            if let Some(dir) = &config.lut_dir {
                let path = lut_path(dir, &name);
                if path.exists() {
                    let snapshot = load_lut(&path)?;
                    lut_loaded = session.import_lut(&snapshot)?;
                }
            }
            let waveguide = gate.waveguide_id();
            let lane = gate.lane_id();
            // The shard comes from the waveguide alone, so every lane of
            // one medium is co-resident and FDM-coalesces.
            let shard = static_shard(waveguide, config.workers);
            let lane_slot = *lane_slots.entry((waveguide.0, lane.0)).or_insert_with(|| {
                placements.push((waveguide, lane, shard));
                placements.len() - 1
            });
            meta.push(GateMeta {
                lane_slot,
                waveguide,
                lane,
                fdm_ok: !matches!(choice, BackendChoice::Micromag(_)),
            });
            if let Some(slot) = shard_sessions
                .get_mut(shard)
                .and_then(|sessions| sessions.get_mut(index))
            {
                *slot = Some(session);
            }
            entries.push(GateEntry {
                name,
                gate,
                shard,
                lut_loaded,
            });
        }

        let telemetry = Arc::new(Telemetry::new(config.workers, config.linger, placements));
        let stats = Arc::new(SharedStats::default());
        let meta = Arc::new(meta);
        let mut senders = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for (shard, sessions) in shard_sessions.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel(config.queue_depth);
            let worker = Worker {
                shard,
                rx,
                sessions,
                meta: Arc::clone(&meta),
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
            config,
        })
    }
}

/// Gate name → tame file stem; `register` enforces uniqueness on this,
/// not on the raw name, so no two gates persist to the same file.
fn lut_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn lut_path(dir: &std::path::Path, name: &str) -> PathBuf {
    dir.join(format!("{}.mglut", lut_stem(name)))
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
    /// Level-1 association list, gate index → jobs. Replaces a
    /// per-drain `BTreeMap`: linear scans win at drain-sized group
    /// counts, and the entries reuse pooled job vectors instead of
    /// allocating a node per job.
    groups: Vec<(usize, Vec<EvalJob>)>,
    /// FDM-capable groups peeled out of `groups`, re-keyed by
    /// waveguide id and sorted so each waveguide's candidates form one
    /// contiguous run.
    fdm: Vec<(u64, Vec<EvalJob>)>,
    /// Emptied job vectors handed back by the serve paths.
    pool: Vec<Vec<EvalJob>>,
    /// Per-waveguide lane election: `(lane, run offset, depth)`.
    lanes: Vec<(u16, usize, usize)>,
    /// Groups elected into one stacked FDM pass.
    stacked: Vec<Vec<EvalJob>>,
    /// Per-batch staging shared by the serve paths.
    stage: GroupStage,
}

/// Per-batch staging reused by [`Worker::serve_group`]: operand sets
/// and reply routes move out of the jobs into these buffers, which
/// keep their capacity from batch to batch.
#[derive(Default)]
struct GroupStage {
    sets: Vec<OperandSet>,
    replies: Vec<(usize, RequestTag, ReplySender)>,
    /// Per-lane served tally for [`Worker::note_lanes_served`].
    tally: Vec<(usize, u64)>,
}

/// The one-slot completion channel carried by every [`EvalJob`].
type ReplySender = SyncSender<(RequestTag, Result<GateOutput, GateError>)>;

/// One worker shard: a bounded queue and its own backend instances.
struct Worker {
    shard: usize,
    rx: Receiver<EvalJob>,
    /// `sessions[gate index]` — filled at build for the gates placed
    /// here, `None` for every other gate.
    sessions: Vec<Option<GateSession>>,
    /// `meta[gate index]` — lane slot, waveguide, lane and FDM
    /// eligibility.
    meta: Arc<Vec<GateMeta>>,
    /// Fixed linger window (see [`ServeConfig::linger`]).
    linger: Duration,
    max_batch: usize,
    stats: Arc<SharedStats>,
    telemetry: Arc<Telemetry>,
    /// Reusable drain-cycle buffers (see [`DrainScratch`]).
    scratch: DrainScratch,
}

/// What a worker hands back when its queue closes.
struct WorkerReport {
    /// `(gate index, LUT contents)` for every session that kept one.
    luts: Vec<(usize, LutSnapshot)>,
}

impl Worker {
    fn run(mut self) -> WorkerReport {
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
        WorkerReport {
            luts: self
                .sessions
                .iter()
                .enumerate()
                .filter_map(|(idx, s)| Some((idx, s.as_ref()?.lut_snapshot()?)))
                .collect(),
        }
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

    /// The serving session for `gate`. A gate with no session here is
    /// an error, not a panic — the drain path must keep serving the
    /// other requests of the batch.
    fn session_for(&mut self, gate: usize) -> Result<&mut GateSession, GateError> {
        let shard = self.shard;
        self.sessions
            .get_mut(gate)
            .and_then(Option::as_mut)
            .ok_or_else(|| GateError::Runtime {
                reason: format!("gate index {gate} has no session on shard {shard}"),
            })
    }

    /// Routing facts for `gate`. Every caller runs behind
    /// [`Worker::serve_drain`]'s index assert, so the fallback (a
    /// solitary non-FDM meta) is dead code that exists only to keep the
    /// drain path free of panicking lookups.
    fn meta_of(&self, gate: usize) -> GateMeta {
        self.meta.get(gate).copied().unwrap_or(GateMeta {
            lane_slot: 0,
            waveguide: WaveguideId(u64::MAX),
            lane: LaneId(u16::MAX),
            fdm_ok: false,
        })
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
                job.gate < self.meta.len(),
                "job targets unregistered gate index {}",
                job.gate
            );
        }
        // The scratch moves out of `self` for the cycle (the serve
        // calls below need `&mut self`) and moves back at the end.
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
        // Second level: peel the groups of FDM-capable gates out into
        // `fdm`, re-keyed by waveguide. The rest (micromag) stay behind
        // in `groups` and serve unstacked.
        scratch.fdm.clear();
        let fdm = &mut scratch.fdm;
        scratch.groups.retain_mut(|(gate, group)| {
            let meta = self.meta_of(*gate);
            if meta.fdm_ok {
                // analyze: allow(can-alloc) — amortized: scratch list
                // keeps its capacity across drains.
                fdm.push((meta.waveguide.0, std::mem::take(group)));
            }
            !meta.fdm_ok
        });
        scratch.fdm.sort_unstable_by_key(|entry| entry.0);
        let mut batches = 0u64;
        // Serve each waveguide run. At most ONE channel group per lane
        // may ride the stacked pass — groups sharing a lane occupy the
        // same band, so only disjoint-band representatives form one
        // physical excitation. Pick the deepest group per lane
        // (densest stack, first wins ties); same-lane leftovers serve
        // as their own batches, exactly like pre-FDM cross-gate
        // coalescing.
        let mut start = 0;
        while let Some(&(waveguide, _)) = scratch.fdm.get(start) {
            let mut end = start + 1;
            while scratch.fdm.get(end).is_some_and(|e| e.0 == waveguide) {
                end += 1;
            }
            scratch.lanes.clear();
            for (offset, (_, group)) in scratch.fdm.iter().enumerate().take(end).skip(start) {
                let Some(first) = group.first() else {
                    continue;
                };
                let lane = self.meta_of(first.gate).lane.0;
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
                let Some((_, group)) = scratch.fdm.get_mut(offset) else {
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
                    let spent = self.serve_group(group, &mut scratch.stage);
                    // analyze: allow(can-alloc) — amortized: the pool
                    // grows to the drain's high-water group count.
                    scratch.pool.push(spent);
                }
            }
            if stack {
                batches += self.serve_fdm(
                    &mut scratch.stacked,
                    &mut scratch.pool,
                    scratch.lanes.len() as u64,
                    &mut scratch.stage,
                );
            }
            start = end;
        }
        // The leftovers FDM cannot stack.
        while let Some((_, group)) = scratch.groups.pop() {
            batches += 1;
            let spent = self.serve_group(group, &mut scratch.stage);
            // analyze: allow(can-alloc) — amortized: the pool grows to
            // the drain's high-water group count.
            scratch.pool.push(spent);
        }
        self.scratch = scratch;
        self.stats.record_drain(drained, batches, gates_touched);
        self.publish_lut_stats();
    }

    /// Republishes this shard's LUT effectiveness gauge: the summed
    /// hit/miss/dense-row counters of every live cached session. Runs
    /// once per drain, off the per-request path.
    fn publish_lut_stats(&self) {
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut dense_rows = 0u64;
        let mut any = false;
        for session in self.sessions.iter().flatten() {
            if let Some(stats) = session.lut_stats() {
                hits += stats.hits;
                misses += stats.misses;
                dense_rows += stats.dense_rows as u64;
                any = true;
            }
        }
        if any {
            self.telemetry
                .publish_lut(self.shard, hits, misses, dense_rows);
        }
    }

    /// Serves one whole-waveguide multi-lane pass: each group is one
    /// channel group (a gate design's queued jobs) riding its own
    /// frequency lane, and all of them evaluate through a single
    /// stacked [`evaluate_fdm_batch_logic`] call — the companion paper's
    /// multi-frequency parallelism as a drain-path operation. Falls
    /// back to per-request evaluation when the stacked pass fails as a
    /// whole, so errors land only on the requests that earned them.
    /// Returns the number of batches actually issued (1 for the
    /// stacked pass; one per group when a missing session devolves the
    /// stack into per-group serving).
    fn serve_fdm(
        &mut self,
        stacked: &mut Vec<Vec<EvalJob>>,
        pool: &mut Vec<Vec<EvalJob>>,
        lanes: u64,
        stage: &mut GroupStage,
    ) -> u64 {
        // Per-pass staging in this function is allocated fresh rather
        // than pooled: an FDM stack carries at most one group per
        // frequency lane of one waveguide, so every vector here is
        // bounded by the waveguide's lane count, not by queue depth.
        // Each group is one gate, so each lead's session can be taken
        // out of the table exactly once.
        let leads: Vec<usize> = stacked
            .iter()
            .filter_map(|group| group.first().map(|job| job.gate))
            .collect(); // analyze: allow(can-alloc) — per-pass, bounded by stacked lanes

        // Borrow every lead session at once by lifting them out of the
        // slot table for the duration of the stacked call. Every gate
        // routed here has its session on this shard, so a missing slot
        // means the table is inconsistent — restore what was taken and
        // serve per group (failing only that gate's requests) rather
        // than panic mid-drain.
        let mut sessions: Vec<GateSession> = Vec::with_capacity(leads.len()); // analyze: allow(can-alloc) — per-pass, bounded by stacked lanes
        for &lead in &leads {
            match self.sessions.get_mut(lead).and_then(Option::take) {
                Some(session) => sessions.push(session), // analyze: allow(can-alloc) — within the capacity above
                None => {
                    for (&taken, session) in leads.iter().zip(sessions) {
                        if let Some(slot) = self.sessions.get_mut(taken) {
                            *slot = Some(session);
                        }
                    }
                    let devolved = stacked.len() as u64;
                    for group in stacked.drain(..) {
                        let spent = self.serve_group(group, stage);
                        pool.push(spent); // analyze: allow(can-alloc) — amortized pool growth
                    }
                    return devolved;
                }
            }
        }
        let mut sets: Vec<Vec<OperandSet>> = Vec::with_capacity(stacked.len()); // analyze: allow(can-alloc) — per-pass, bounded by stacked lanes
        let mut replies = Vec::with_capacity(stacked.len()); // analyze: allow(can-alloc) — per-pass, bounded by stacked lanes
        let mut total_requests = 0u64;
        for mut group in stacked.drain(..) {
            let mut group_sets = Vec::with_capacity(group.len()); // analyze: allow(can-alloc) — per-lane staging, sized to its group
            let mut group_replies = Vec::with_capacity(group.len()); // analyze: allow(can-alloc) — per-lane staging, sized to its group
            total_requests += group.len() as u64;
            for job in group.drain(..) {
                group_sets.push(job.set); // analyze: allow(can-alloc) — within the capacity above
                group_replies.push((job.gate, job.tag, job.reply)); // analyze: allow(can-alloc) — within the capacity above
            }
            pool.push(group); // analyze: allow(can-alloc) — amortized pool growth
            sets.push(group_sets); // analyze: allow(can-alloc) — within the capacity above
            replies.push(group_replies); // analyze: allow(can-alloc) — within the capacity above
        }
        let mut lane_batches: Vec<LaneBatch<'_>> = sessions
            .iter_mut()
            .zip(&sets)
            .map(|(session, lane_sets)| LaneBatch {
                session,
                sets: lane_sets,
            })
            .collect(); // analyze: allow(can-alloc) — per-pass, bounded by stacked lanes
        let attempt: Result<Vec<Vec<GateOutput>>, GateError> =
            evaluate_fdm_batch_logic(&mut lane_batches).map(|lanes| {
                lanes
                    .into_iter()
                    .map(|words| words.into_iter().map(GateOutput::logic_only).collect()) // analyze: allow(can-alloc) — per-pass output repack
                    .collect() // analyze: allow(can-alloc) — per-pass output repack
            });
        drop(lane_batches);
        for (&lead, session) in leads.iter().zip(sessions) {
            if let Some(slot) = self.sessions.get_mut(lead) {
                *slot = Some(session);
            }
        }
        match attempt {
            Ok(outputs) => {
                self.stats.record_fdm_pass(lanes, total_requests);
                for (lane_replies, lane_outputs) in replies.into_iter().zip(outputs) {
                    self.note_lanes_served(
                        lane_replies.iter().map(|(gate, _, _)| *gate),
                        &mut stage.tally,
                    );
                    for ((_, tag, reply), output) in lane_replies.into_iter().zip(lane_outputs) {
                        // ordering: Relaxed — monotonic stat counter;
                        // the reply channel orders the result delivery.
                        self.stats.completed.fetch_add(1, Ordering::Relaxed);
                        let _ = reply.try_send((tag, Ok(output)));
                    }
                }
            }
            Err(_) => {
                // The stacked pass failed as a whole (e.g. one lane
                // carried a malformed operand); retry each request on
                // its own gate so only the offenders see the error.
                for (lane_replies, lane_sets) in replies.into_iter().zip(&sets) {
                    for ((gate, tag, reply), set) in lane_replies.into_iter().zip(lane_sets) {
                        let result = match self.session_for(gate) {
                            Ok(session) => session.evaluate(set.words()),
                            Err(e) => Err(e),
                        };
                        // ordering: Relaxed — monotonic stat counters;
                        // the reply channel orders the result delivery.
                        match &result {
                            Ok(_) => {
                                self.stats.completed.fetch_add(1, Ordering::Relaxed);
                                self.telemetry
                                    .record_lane_served(self.meta_of(gate).lane_slot, 1);
                            }
                            Err(_) => {
                                // ordering: Relaxed — stat counter.
                                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                            }
                        };
                        let _ = reply.try_send((tag, result));
                    }
                }
            }
        }
        1
    }

    /// Accounts successfully answered requests on their lanes' `served`
    /// telemetry counters. Success paths only — a request that failed
    /// was not served, so the per-lane counters always sum to the
    /// scheduler's `completed` total.
    fn note_lanes_served(&self, gates: impl Iterator<Item = usize>, tally: &mut Vec<(usize, u64)>) {
        tally.clear();
        for gate in gates {
            let slot = self.meta_of(gate).lane_slot;
            if let Some(entry) = tally.iter_mut().find(|(s, _)| *s == slot) {
                entry.1 += 1;
            } else {
                // analyze: allow(can-alloc) — amortized: the tally
                // keeps its capacity across batches (see `GroupStage`).
                tally.push((slot, 1));
            }
        }
        for &(slot, count) in tally.iter() {
            self.telemetry.record_lane_served(slot, count);
        }
    }

    /// Serves one group (every job targets the same gate): one
    /// `evaluate_batch` on that gate's session, with a per-request
    /// fallback so errors land only on the requests that earned them.
    /// Returns the emptied job vector so the caller can pool it for the
    /// next drain.
    fn serve_group(&mut self, mut group: Vec<EvalJob>, stage: &mut GroupStage) -> Vec<EvalJob> {
        let Some(first) = group.first() else {
            return group;
        };
        let lead = first.gate;
        // Move the operand sets out of the jobs — the batch path must
        // not copy request payloads. The staging buffers keep their
        // capacity from batch to batch (see `GroupStage`).
        stage.sets.clear();
        stage.replies.clear();
        for job in group.drain(..) {
            // analyze: allow(can-alloc) — amortized: staging retains
            // capacity across batches (see `GroupStage`).
            stage.sets.push(job.set);
            // analyze: allow(can-alloc) — amortized (staging, as above)
            stage.replies.push((job.gate, job.tag, job.reply));
        }
        let attempt: Result<Vec<GateOutput>, GateError> = match self.session_for(lead) {
            Ok(session) => session
                .evaluate_batch_logic(&stage.sets)
                // analyze: allow(can-alloc) — per-batch output repack
                .map(|words| words.into_iter().map(GateOutput::logic_only).collect()),
            Err(e) => Err(e),
        };
        match attempt {
            Ok(outputs) => {
                self.note_lanes_served(
                    stage.replies.iter().map(|(gate, _, _)| *gate),
                    &mut stage.tally,
                );
                for ((_, tag, reply), output) in stage.replies.drain(..).zip(outputs) {
                    // ordering: Relaxed — monotonic stat counter; the
                    // reply channel orders the result delivery.
                    self.stats.completed.fetch_add(1, Ordering::Relaxed);
                    let _ = reply.try_send((tag, Ok(output)));
                }
            }
            Err(_) => {
                // The batch failed as a whole; fall back to per-request
                // evaluation.
                for ((gate, tag, reply), set) in stage.replies.drain(..).zip(stage.sets.iter()) {
                    let result = match self.session_for(gate) {
                        Ok(session) => session.evaluate(set.words()),
                        Err(e) => Err(e),
                    };
                    // ordering: Relaxed — monotonic stat counters; the
                    // reply channel orders the result delivery.
                    match &result {
                        Ok(_) => {
                            self.stats.completed.fetch_add(1, Ordering::Relaxed);
                            self.telemetry
                                .record_lane_served(self.meta_of(gate).lane_slot, 1);
                        }
                        Err(_) => {
                            // ordering: Relaxed — stat counter.
                            self.stats.failed.fetch_add(1, Ordering::Relaxed);
                        }
                    };
                    let _ = reply.try_send((tag, result));
                }
            }
        }
        stage.sets.clear();
        group
    }
}

/// What [`Scheduler::shutdown`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutdownReport {
    /// Final counter snapshot.
    pub stats: SchedulerStats,
    /// LUT files written (empty without persistence).
    pub lut_files: Vec<PathBuf>,
    /// Total LUT entries persisted across those files.
    pub lut_entries_saved: usize,
}

/// The running sharded runtime. See the [module docs](self) for the
/// architecture.
pub struct Scheduler {
    entries: Vec<GateEntry>,
    senders: Vec<SyncSender<EvalJob>>,
    handles: Vec<JoinHandle<WorkerReport>>,
    stats: Arc<SharedStats>,
    telemetry: Arc<Telemetry>,
    next_tag: AtomicU64,
    config: ServeConfig,
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

    /// LUT entries adopted from disk at build time (0 without
    /// persistence or on a cold start).
    pub fn lut_entries_loaded(&self) -> usize {
        self.entries.iter().map(|e| e.lut_loaded).sum()
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        self.stats.snapshot()
    }

    /// Current load-telemetry snapshot: per-shard queue depths, drain
    /// counters, linger windows and LUT gauges, and per-lane placement
    /// and served counts.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    fn job_for(&self, id: GateId, set: OperandSet) -> Result<(usize, EvalJob, Ticket), ServeError> {
        let entry = self
            .entries
            .get(id.0)
            .ok_or(ServeError::UnknownGate { index: id.0 })?;
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

    /// Stops accepting work, joins every worker and — with persistence
    /// configured — merges all shards' LUTs per gate and writes them to
    /// disk, so the next [`SchedulerBuilder::build`] starts warm.
    ///
    /// Every worker is joined before any outcome is reported: a single
    /// panicked shard must not detach the surviving workers or discard
    /// their LUT snapshots. Survivors' LUTs are persisted first, then
    /// the panic is reported through [`ServeError::WorkerPanicked`]
    /// (carrying the salvaged report).
    ///
    /// # Errors
    ///
    /// * [`ServeError::WorkerPanicked`] when one or more workers
    ///   panicked (after every survivor LUT was attempted; this takes
    ///   precedence over persistence failures).
    /// * [`ServeError::Gate`] wrapping [`GateError::Persistence`] when
    ///   a LUT file could not be merged or written. Persistence is
    ///   attempted for *every* gate before the first such error is
    ///   reported — one full disk must not discard the other gates'
    ///   tables.
    pub fn shutdown(mut self) -> Result<ShutdownReport, ServeError> {
        self.senders.clear();
        let mut reports = Vec::new();
        let mut panicked = Vec::new();
        for (shard, handle) in std::mem::take(&mut self.handles).into_iter().enumerate() {
            match handle.join() {
                Ok(report) => reports.push(report),
                Err(_) => panicked.push(shard),
            }
        }
        let stats = self.stats.snapshot();
        let mut lut_files = Vec::new();
        let mut lut_entries_saved = 0;
        let mut first_persist_error: Option<ServeError> = None;
        if let Some(dir) = self.config.lut_dir.clone() {
            'gates: for (idx, entry) in self.entries.iter().enumerate() {
                let mut merged: Option<LutSnapshot> = None;
                for report in &reports {
                    for (gate_idx, snapshot) in &report.luts {
                        if *gate_idx != idx {
                            continue;
                        }
                        match &mut merged {
                            None => merged = Some(snapshot.clone()),
                            Some(m) => {
                                if let Err(e) = m.merge(snapshot) {
                                    first_persist_error.get_or_insert(ServeError::Gate(e));
                                    continue 'gates;
                                }
                            }
                        }
                    }
                }
                if let Some(snapshot) = merged {
                    if snapshot.entry_count() > 0 {
                        let path = lut_path(&dir, &entry.name);
                        match save_lut(&path, &snapshot) {
                            Ok(()) => {
                                lut_entries_saved += snapshot.entry_count();
                                lut_files.push(path);
                            }
                            Err(e) => {
                                first_persist_error.get_or_insert(ServeError::Gate(e));
                            }
                        }
                    }
                }
            }
        }
        let report = ShutdownReport {
            stats,
            lut_files,
            lut_entries_saved,
        };
        if !panicked.is_empty() {
            Err(ServeError::WorkerPanicked {
                shards: panicked,
                report: Box::new(report),
            })
        } else if let Some(error) = first_persist_error {
            Err(error)
        } else {
            Ok(report)
        }
    }
}

impl Drop for Scheduler {
    /// Dropping without [`Scheduler::shutdown`] still joins the
    /// workers, but skips LUT persistence.
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
        let sessions = [maj, xor]
            .into_iter()
            .map(|gate| Some(GateSession::new(gate, BackendChoice::Cached).unwrap()))
            .collect();
        let meta = |lane: u16| GateMeta {
            lane_slot: usize::from(lane),
            waveguide: WaveguideId(0),
            lane: LaneId(lane),
            fdm_ok: true,
        };
        let (tx, rx) = mpsc::sync_channel(queue_depth);
        let worker = Worker {
            shard: 0,
            rx,
            sessions,
            meta: Arc::new(vec![meta(0), meta(1)]),
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
    fn a_malformed_lane_request_fails_alone_when_the_stacked_pass_falls_back() {
        // Both lanes of waveguide 0 stack into one FDM pass. One lane-1
        // request carries a third operand for its 2-input gate, so the
        // stacked validation rejects the whole pass and every request
        // is retried on its own gate: only the offender may fail.
        let (_tx, mut worker) = test_worker(64, 4, Duration::from_micros(50));
        let (reply, completions) = mpsc::sync_channel(16);
        let malformed = 9u64;
        let mut pending = Vec::new();
        for tag in 0..12u64 {
            let gate = usize::from(tag >= 6);
            let mut words = sample_set(tag).words().to_vec();
            if gate == 1 && tag != malformed {
                words.truncate(2);
            }
            pending.push(EvalJob {
                gate,
                tag,
                set: OperandSet::new(words),
                reply: reply.clone(),
            });
        }
        let requests: Vec<(usize, OperandSet)> =
            pending.iter().map(|j| (j.gate, j.set.clone())).collect();
        drop(reply);
        worker.serve_drain(&mut pending);
        assert!(pending.is_empty());
        let mut answered = 0;
        for (tag, result) in completions.iter() {
            let (gate, set) = &requests[tag as usize];
            if tag == malformed {
                assert!(
                    matches!(result, Err(GateError::InputCountMismatch { .. })),
                    "the malformed request must fail: {result:?}"
                );
            } else {
                let reference = worker.sessions[*gate]
                    .as_ref()
                    .unwrap()
                    .gate()
                    .evaluate(set.words())
                    .unwrap();
                assert_eq!(result.unwrap().word(), reference.word(), "tag {tag}");
            }
            answered += 1;
        }
        assert_eq!(answered, 12, "every request gets exactly one answer");
        let stats = worker.stats.snapshot();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 11);
        // One batch (the stacked attempt, not two per-lane groups) and
        // no recorded FDM pass: the drain took the stack's `Err` branch.
        assert_eq!(stats.batches, 1, "both lanes must ride one stacked attempt");
        assert_eq!(stats.fdm_batches, 0, "a rejected stack is not an FDM pass");
        let lanes = worker.telemetry.snapshot().lanes;
        assert_eq!(
            lanes.iter().map(|l| l.served).sum::<u64>(),
            stats.completed,
            "per-lane served counters must sum to completed: {lanes:?}"
        );
        assert_eq!((lanes[0].served, lanes[1].served), (6, 5));
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
        let mut tags: Vec<u64> = completions
            .iter()
            .map(|(tag, result)| {
                result.expect("straggler must be served, not dropped");
                tag
            })
            .collect();
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
        // sender already gone must all be answered and the session's
        // LUT must survive into the worker report.
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
        let report = worker.run();
        let mut served = 0;
        for (_, result) in completions.iter() {
            result.expect("queued job dropped");
            served += 1;
        }
        assert_eq!(served, 7);
        assert!(
            report
                .luts
                .iter()
                .any(|(idx, snap)| *idx == 0 && snap.entry_count() > 0),
            "the cached session's LUT must reach the worker report"
        );
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
            .map(|_| {
                let (tag, result) = completions.recv().unwrap();
                result.expect("queued job must be served");
                tag
            })
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
    fn shutdown_joins_all_workers_and_persists_survivor_luts_on_panic() {
        // One poisoned worker must not detach the others: shutdown has
        // to join every shard, write the survivors' LUTs, and only then
        // report the panic. (The poisoned worker prints a panic message
        // to stderr — expected noise for this test.)
        let dir =
            std::env::temp_dir().join(format!("magnon_panic_shutdown_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers: 2,
            lut_dir: Some(dir.clone()),
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
        // Warm both shards' LUTs with real traffic.
        scheduler
            .submit(survivor, sample_set(1))
            .unwrap()
            .wait()
            .unwrap();
        scheduler
            .submit(victim, sample_set(2))
            .unwrap()
            .wait()
            .unwrap();
        // Poison the victim's shard: a job whose gate index is out of
        // range panics the worker when it indexes its session table.
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
                assert!(
                    report.lut_entries_saved > 0,
                    "survivor LUTs must persist: {report:?}"
                );
                assert!(
                    report
                        .lut_files
                        .iter()
                        .any(|p| p.file_name().is_some_and(|n| n == "maj_survivor.mglut")),
                    "the surviving shard's LUT must reach disk: {report:?}"
                );
            }
            other => panic!("a panicked worker must surface as WorkerPanicked, got {other:?}"),
        }
        // And the file on disk is a valid, loadable LUT.
        load_lut(&dir.join("maj_survivor.mglut")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
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
