//! The four workloads, their timed phases and, in the traced run, the
//! rung ladder: the same seeded inputs through warmed direct sessions
//! (core), the in-process scheduler (serve) and the loopback wire
//! (net). Differences between adjacent rungs attribute the time.

use crate::oracle::{self, Checker};
use crate::stack::{self, CircuitPlan, Req, Rng, Shape, Stack};
use crate::trace::{median, percentile, Tracer, ROOT};
use crate::Res;
use magnon_circuits::netlist::GateBank;
use magnon_core::backend::{BackendChoice, GateSession, OperandSet};
use magnon_core::word::Word;
use magnon_net::{Frame, NetClient, NetServerStats, RemoteGateId};
use magnon_physics::waveguide::Waveguide;
use magnon_serve::{
    CircuitExecutor, GateId, Scheduler, SchedulerStats, ServeError, TelemetrySnapshot, Ticket,
};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests per `wire_burst` unit.
pub const BURST: usize = 256;
/// Operand sets per `circuit` unit.
pub const CIRCUIT_SETS: usize = 32;
/// Offered load of `open_inproc`, requests per second.
pub const OPEN_RATE: f64 = 10_000.0;
/// Episodes of the untraced run, each with its own set-up; `setup_s`
/// is the median set-up.
pub const EPISODES: usize = 21;
/// Untimed load after each set-up, as a share of the timed load that
/// follows: it lets the adaptive linger window walk from where the
/// warm-up left it to where the workload's own traffic keeps it.
const SETTLE_SHARE: f64 = 0.25;
/// How long `open_inproc` waits for one ticket before counting it
/// timed out.
const WAIT_LIMIT: Duration = Duration::from_secs(5);
/// Latency charged to a unit with a failed request: a failure misses
/// any latency limit.
const MISS_US: f64 = 5e6;
/// Distinct requests cycled through by the single-request workloads.
const REQUEST_POOL: usize = 4096;
/// Distinct 256-request bursts.
const BURST_POOL: usize = 16;
/// Distinct 32-set circuit batches.
const CIRCUIT_POOL: usize = 16;
/// Spans one traced phase may record before it ends early, which
/// bounds the traced run's memory whatever `--seconds` is.
const PHASE_SPANS: usize = 150_000;
/// Frames per codec pass of the traced run.
const CODEC_FRAMES: usize = 1024;
/// Salt separating the open-loop arrival stream from the inputs.
const SCHEDULE_SALT: u64 = 0x0FA4_417A_5EED_0001;

/// The workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one loopback `eval` in flight.
    WireSync,
    /// Closed loop, 256 pipelined requests per `eval_many`.
    WireBurst,
    /// Open loop, Poisson arrivals straight into `Scheduler::submit`.
    OpenInproc,
    /// Closed loop, a compiled 31-gate circuit per 32-set batch.
    Circuit,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "wire_sync" => Workload::WireSync,
            "wire_burst" => Workload::WireBurst,
            "open_inproc" => Workload::OpenInproc,
            "circuit" => Workload::Circuit,
            _ => return None,
        })
    }

    /// Operand sets per unit of work.
    pub fn sets_per_unit(self) -> usize {
        match self {
            Workload::WireBurst => BURST,
            Workload::Circuit => CIRCUIT_SETS,
            Workload::WireSync | Workload::OpenInproc => 1,
        }
    }

    fn uses_wire(self) -> bool {
        matches!(self, Workload::WireSync | Workload::WireBurst)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Each set-up's duration (s).
    pub setups_s: Vec<f64>,
    /// Unit latencies (µs) of the untraced timed phase, per episode.
    pub episodes: Vec<Vec<f64>>,
    /// Correct sets per second of the untraced timed phase.
    pub sets_per_s: f64,
    /// Generator lateness (µs), open loop only.
    pub lag_us: Vec<f64>,
    /// Every answer checked in the run.
    pub checker: Checker,
    /// Whether a planted wrong answer raised the error ratio.
    pub planted_caught: bool,
    /// Per-layer metrics (traced run): name, value, unit.
    pub layer: Vec<(&'static str, f64, &'static str)>,
    /// Extra run-record lines.
    pub notes: Vec<String>,
    /// The recorded spans (traced run).
    pub tracer: Option<Tracer>,
}

/// Runs one workload.
pub fn run(cfg: &RunCfg) -> Res<Outcome> {
    match cfg.workload {
        Workload::Circuit => run_circuit(cfg),
        _ => run_directory(cfg),
    }
}

// ---------------------------------------------------------------------
// Units of work shared by the rungs.
// ---------------------------------------------------------------------

fn answer_word(checker: &mut Checker, got: Result<Word, impl Sized>, expected: u64) -> bool {
    match got {
        Ok(word) => checker.answer(&[word], &[expected]),
        Err(_) => {
            checker.fail(1);
            false
        }
    }
}

/// One unit over the wire. Untraced it makes the public one-call
/// requests (`eval`, `eval_many`); traced it makes the same calls in
/// their submit and wait halves, each inside a span, and runs `probe`
/// once the first answer is in (while the rest are still queued).
#[allow(clippy::too_many_arguments)]
fn wire_unit(
    client: &mut NetClient,
    reqs: &[Req],
    remote: &[(RemoteGateId, Vec<Word>)],
    tr: &mut Tracer,
    parent: u32,
    unit: u64,
    checker: &mut Checker,
    probe: &mut dyn FnMut(),
) -> bool {
    if !tr.enabled() {
        if let [(gate, words)] = remote {
            return answer_word(checker, client.eval(*gate, words), reqs[0].expected);
        }
        return match client.eval_many(remote) {
            Ok(words) if words.len() == reqs.len() => {
                let mut ok = true;
                for (word, req) in words.iter().zip(reqs) {
                    ok &= checker.answer(&[*word], &[req.expected]);
                }
                ok
            }
            _ => {
                checker.fail(reqs.len() as u64);
                false
            }
        };
    }
    let tags: Vec<_> = remote
        .iter()
        .map(|(gate, words)| tr.span("net.submit", parent, unit, || client.submit(*gate, words)))
        .collect();
    let mut ok = true;
    for (k, (req, tag)) in reqs.iter().zip(tags).enumerate() {
        let got = tag.and_then(|tag| tr.span("net.wait", parent, unit, || client.wait(tag)));
        ok &= answer_word(checker, got, req.expected);
        if k == 0 {
            probe();
        }
    }
    ok
}

/// One unit through the in-process scheduler: submit every request,
/// then wait on every ticket (what `evaluate_many` does).
fn serve_unit(
    scheduler: &Scheduler,
    ids: &[GateId],
    reqs: &[Req],
    tr: &mut Tracer,
    parent: u32,
    unit: u64,
    checker: &mut Checker,
) -> bool {
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| {
            tr.span("serve.submit", parent, unit, || {
                scheduler.submit(ids[r.gate], r.set.clone())
            })
        })
        .collect();
    let mut ok = true;
    for (req, ticket) in reqs.iter().zip(tickets) {
        let got = ticket.and_then(|t| tr.span("serve.wait", parent, unit, || t.wait()));
        ok &= answer_word(checker, got.map(|out| out.word()), req.expected);
    }
    ok
}

/// A unit's requests grouped per gate, in first-appearance order: the
/// batches a drain would hand each gate's session.
struct CoreUnit {
    groups: Vec<(usize, Vec<OperandSet>, Vec<u64>)>,
}

fn core_unit_of(reqs: &[Req]) -> CoreUnit {
    let mut groups: Vec<(usize, Vec<OperandSet>, Vec<u64>)> = Vec::new();
    for r in reqs {
        match groups.iter_mut().find(|g| g.0 == r.gate) {
            Some(g) => {
                g.1.push(r.set.clone());
                g.2.push(r.expected);
            }
            None => groups.push((r.gate, vec![r.set.clone()], vec![r.expected])),
        }
    }
    CoreUnit { groups }
}

/// One unit through warmed direct sessions, no scheduler.
fn core_unit(
    sessions: &mut [GateSession],
    unit: &CoreUnit,
    tr: &mut Tracer,
    parent: u32,
    index: u64,
    checker: &mut Checker,
) -> bool {
    let mut ok = true;
    for (gate, sets, expected) in &unit.groups {
        let session = &mut sessions[*gate];
        match tr.span("core.evaluate_batch_logic", parent, index, || {
            session.evaluate_batch_logic(sets)
        }) {
            Ok(words) if words.len() == expected.len() => {
                for (word, e) in words.iter().zip(expected) {
                    ok &= checker.answer(&[*word], &[*e]);
                }
            }
            _ => {
                checker.fail(sets.len() as u64);
                ok = false;
            }
        }
    }
    ok
}

/// Checks one circuit batch's outputs against the integer reference.
fn check_circuit(
    checker: &mut Checker,
    batch: &[Vec<Word>],
    got: Result<Vec<Vec<Word>>, impl Sized>,
) -> bool {
    match got {
        Ok(outputs) if outputs.len() == batch.len() => {
            let mut ok = true;
            for (set, out) in batch.iter().zip(&outputs) {
                let expected = oracle::adder_parity(set, stack::ADDER_BITS, stack::WIDTH);
                ok &= checker.answer(out, &expected);
            }
            ok
        }
        _ => {
            checker.fail(batch.len() as u64);
            false
        }
    }
}

/// Runs units back to back for `budget`; returns each unit's latency
/// (µs) and the phase's wall time (s). Unit `i` gets pool index
/// `i % units`, so every phase replays the same inputs from the start.
/// A traced phase also ends once it has recorded [`PHASE_SPANS`].
fn closed_loop(
    tr: &mut Tracer,
    name: &'static str,
    budget: Duration,
    units: usize,
    mut run: impl FnMut(&mut Tracer, u32, usize) -> bool,
) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let span_limit = tr.spans().len() + PHASE_SPANS;
    let mut lat = Vec::new();
    let mut i = 0usize;
    while start.elapsed() < budget && tr.spans().len() < span_limit {
        let id = tr.open(name, ROOT, i as u64);
        let t0 = Instant::now();
        let ok = run(tr, id, i % units);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tr.close(id);
        lat.push(if ok { us } else { us.max(MISS_US) });
        i += 1;
    }
    (lat, start.elapsed().as_secs_f64())
}

/// What one open-loop phase measured.
struct OpenPhase {
    lat_us: Vec<f64>,
    lag_us: Vec<f64>,
    wall_s: f64,
    queue_max: u64,
}

fn queued(scheduler: &Scheduler) -> u64 {
    scheduler.telemetry().shards.iter().map(|s| s.queued).sum()
}

/// Open loop: a generator thread submits the pool's requests on a
/// seeded Poisson schedule at [`OPEN_RATE`] for `budget`; this thread
/// collects the tickets in order. Latency runs from each request's due
/// time, so generator stalls count against the requests behind them.
fn open_loop(
    scheduler: &Scheduler,
    ids: &[GateId],
    pool: &[Req],
    seed: u64,
    budget: Duration,
    tr: &mut Tracer,
    checker: &mut Checker,
) -> OpenPhase {
    type Submitted = (usize, Instant, Result<Ticket, ServeError>);
    let (tx, rx) = mpsc::channel::<Submitted>();
    let mut gen_tr = tr.fork();
    let mut lag_us = Vec::new();
    let mut lat_us = Vec::new();
    let mut queue_max = 0;
    let start = Instant::now();
    let mut last_done = start;
    std::thread::scope(|s| {
        let (gtr, lags) = (&mut gen_tr, &mut lag_us);
        let generator = s.spawn(move || {
            let mut rng = Rng::new(seed ^ SCHEDULE_SALT);
            let mut t = 0.0;
            for i in 0.. {
                t += -rng.unit_open().ln() / OPEN_RATE;
                if t >= budget.as_secs_f64() {
                    break;
                }
                let due = start + Duration::from_secs_f64(t);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                let req = &pool[i % pool.len()];
                let ticket = gtr.span("serve.submit", ROOT, i as u64, || {
                    scheduler.submit(ids[req.gate], req.set.clone())
                });
                if tx.send((i, due, ticket)).is_err() {
                    break;
                }
            }
        });
        for (i, due, ticket) in rx.iter() {
            let req = &pool[i % pool.len()];
            let got = ticket
                .and_then(|t| tr.span("serve.wait", ROOT, i as u64, || t.wait_timeout(WAIT_LIMIT)));
            let done = Instant::now();
            let ok = answer_word(checker, got.map(|out| out.word()), req.expected);
            let us = done.saturating_duration_since(due).as_secs_f64() * 1e6;
            lat_us.push(if ok { us } else { us.max(MISS_US) });
            tr.record("unit.main", ROOT, i as u64, due, done);
            if tr.enabled() && i % 16 == 0 {
                queue_max = queue_max.max(queued(scheduler));
            }
            last_done = done;
        }
        generator.join().expect("generator thread panicked");
    });
    tr.absorb(gen_tr);
    OpenPhase {
        lat_us,
        lag_us,
        wall_s: last_done.duration_since(start).as_secs_f64(),
        queue_max,
    }
}

// ---------------------------------------------------------------------
// Counters read across the timed phase.
// ---------------------------------------------------------------------

struct Counters {
    stats: SchedulerStats,
    tel: TelemetrySnapshot,
}

impl Counters {
    fn of(scheduler: &Scheduler) -> Counters {
        Counters {
            stats: scheduler.stats(),
            tel: scheduler.telemetry(),
        }
    }

    fn shard_sum(&self, f: impl Fn(&magnon_serve::ShardTelemetry) -> u64) -> u64 {
        self.tel.shards.iter().map(f).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics read from scheduler counters across the timed
/// phase (`before` → `after`).
fn serve_counters(
    before: &Counters,
    after: &Counters,
    queue_max: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let (s0, s1) = (&before.stats, &after.stats);
    let d = |f: fn(&SchedulerStats) -> u64| (f(s1) - f(s0)) as f64;
    let completed = d(|s| s.completed);
    let lut_misses =
        after.shard_sum(|s| s.lut_misses) as f64 - before.shard_sum(|s| s.lut_misses) as f64;
    let cycles =
        (after.shard_sum(|s| s.drain_cycles) - before.shard_sum(|s| s.drain_cycles)) as f64;
    let full = (after.shard_sum(|s| s.full_drains) - before.shard_sum(|s| s.full_drains)) as f64;
    let shards = after.tel.shards.len().max(1) as f64;
    let linger_us = after
        .tel
        .shards
        .iter()
        .map(|s| s.linger.as_secs_f64() * 1e6)
        .sum::<f64>()
        / shards;
    vec![
        ("core.lut_misses_timed", lut_misses, "count"),
        (
            "core.lut_hit_rate",
            after.tel.lut_hit_rate().unwrap_or(0.0),
            "ratio",
        ),
        (
            "serve.mean_drain",
            ratio(completed, d(|s| s.drain_passes)),
            "requests",
        ),
        ("serve.full_drain_ratio", ratio(full, cycles), "ratio"),
        (
            "serve.fdm_lanes_per_pass",
            ratio(d(|s| s.fdm_lanes), d(|s| s.fdm_batches)),
            "lanes",
        ),
        (
            "serve.fdm_request_ratio",
            ratio(d(|s| s.fdm_requests), completed),
            "ratio",
        ),
        (
            "serve.fused_request_ratio",
            ratio(d(|s| s.fused_requests), completed),
            "ratio",
        ),
        ("serve.queue_max", queue_max as f64, "requests"),
        ("serve.linger_us_end", linger_us, "us"),
        (
            "serve.rebalances",
            (after.tel.rebalances - before.tel.rebalances) as f64,
            "count",
        ),
    ]
}

/// Times `Frame::encode` and `Frame::decode` over the submit and
/// response frames of `reqs`, checking every round trip. Returns
/// (encode ns/frame, decode ns/frame, bytes per request).
fn codec(reqs: &[Req], tr: &mut Tracer, budget: Duration) -> Res<(f64, f64, f64)> {
    let frames: Vec<Frame> = reqs
        .iter()
        .take(CODEC_FRAMES)
        .enumerate()
        .flat_map(|(i, r)| {
            let tag = i as u64 + 1;
            [
                Frame::Submit {
                    tag,
                    gate: r.gate as u32,
                    lane: None,
                    operands: r.set.words().to_vec(),
                },
                Frame::Response {
                    tag,
                    word: Word::from_bits(r.expected, stack::WIDTH).expect("masked to width"),
                },
            ]
        })
        .collect();
    let bytes: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    for (frame, encoded) in frames.iter().zip(&bytes) {
        if Frame::decode(&encoded[4..])? != *frame {
            return Err("a frame did not survive encode/decode".into());
        }
    }
    let per_request = bytes.iter().map(Vec::len).sum::<usize>() as f64 / (frames.len() / 2) as f64;
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < 3 || start.elapsed() < budget {
        tr.span("net.encode", ROOT, pass, || {
            for f in &frames {
                black_box(black_box(f).encode());
            }
        });
        tr.span("net.decode", ROOT, pass, || {
            for b in &bytes {
                let _ = black_box(Frame::decode(black_box(&b[4..])));
            }
        });
        pass += 1;
    }
    let per_frame = |name| median(&tr.durations_us(name)) * 1e3 / frames.len() as f64;
    Ok((
        per_frame("net.encode"),
        per_frame("net.decode"),
        per_request,
    ))
}

/// Per-layer metrics of a layer that is not on this workload's path:
/// reported as 0 so every traced run prints every name.
fn absent(names: &[(&'static str, &'static str)]) -> Vec<(&'static str, f64, &'static str)> {
    names.iter().map(|&(n, u)| (n, 0.0, u)).collect()
}

/// The untraced timed phase: [`EPISODES`] episodes, each a fresh
/// set-up (timed into `setup_s`), an untimed settle, an equal share of
/// `seconds` of timed load, then teardown. The adaptive policies
/// (linger walk, rebalanced placement) hold a state for seconds at a
/// time; fresh stacks make each episode an independent draw of it,
/// where one long phase would sample it once. Set-ups spread over the
/// run likewise sample the host's state more than once. Settle answers
/// are checked too.
fn episodes<S>(
    seconds: f64,
    out: &mut Outcome,
    checker: &mut Checker,
    mut setup: impl FnMut() -> Res<S>,
    mut phase: impl FnMut(&mut S, &mut Checker, Duration) -> (Vec<f64>, f64, Vec<f64>),
    mut teardown: impl FnMut(S) -> Res<()>,
) -> Res<()> {
    let share = seconds / EPISODES as f64;
    let mut settled = Checker::default();
    let mut wall = 0.0;
    for _ in 0..EPISODES {
        let t0 = Instant::now();
        let mut built = setup()?;
        out.setups_s.push(t0.elapsed().as_secs_f64());
        phase(&mut built, &mut settled, budget(share, SETTLE_SHARE));
        let (lat, secs, lag) = phase(&mut built, checker, budget(share, 1.0));
        out.episodes.push(lat);
        out.lag_us.extend(lag);
        wall += secs;
        teardown(built)?;
    }
    out.sets_per_s = checker.correct() as f64 / wall;
    checker.merge(settled);
    out.checker = *checker;
    Ok(())
}

/// Phase budgets of the traced run, as shares of `--seconds`: an
/// untraced replay of the timed phase (for the tracing overhead), the
/// traced timed phase, then the core, serve and wire rungs. A settle of
/// [`SETTLE_SHARE`] of the first share precedes them.
const TRACE_SHARES: [f64; 5] = [0.2, 0.3, 0.15, 0.2, 0.15];

fn budget(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share)
}

// ---------------------------------------------------------------------
// Gate-directory workloads: wire_sync, wire_burst, open_inproc.
// ---------------------------------------------------------------------

fn run_directory(cfg: &RunCfg) -> Res<Outcome> {
    let w = cfg.workload;
    let dir = stack::directory();
    let shapes: Vec<Shape> = dir.iter().map(|g| g.shape).collect();
    let unit_size = w.sets_per_unit();
    let pool_len = if w == Workload::WireBurst {
        BURST_POOL * BURST
    } else {
        REQUEST_POOL
    };
    let pool = stack::directory_requests(&mut Rng::new(cfg.seed), &dir, pool_len);
    let remote = stack::remote_requests(&pool);
    let units = pool_len / unit_size;
    let slice = |u: usize| u * unit_size..(u + 1) * unit_size;

    let mut tr = Tracer::new(Instant::now(), cfg.trace);
    let setup = |tr: &mut Tracer| -> Res<Stack> {
        let (builder, ids) = stack::directory_builder(&dir, tr)?;
        let mut s = Stack::start(builder, ids, w.uses_wire(), tr)?;
        s.warm(&shapes)?;
        Ok(s)
    };

    let mut out = Outcome::default();
    out.notes.push(format!(
        "gates: {}",
        dir.iter()
            .map(|g| format!("{} (wg{} lane{})", g.name, g.waveguide, g.lane))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // The timed phase; in the traced run, once untraced and once traced.
    let main_phase =
        |stack: &mut Stack, tr: &mut Tracer, checker: &mut Checker, secs: Duration| match w {
            Workload::OpenInproc => {
                let p = open_loop(
                    &stack.scheduler,
                    &stack.ids,
                    &pool,
                    cfg.seed,
                    secs,
                    tr,
                    checker,
                );
                (p.lat_us, p.wall_s, p.lag_us, p.queue_max)
            }
            _ => {
                let client = &mut stack.wire.as_mut().expect("wire workloads connect").client;
                let mut queue_max = 0;
                let scheduler = &stack.scheduler;
                let mut probe = || queue_max = queue_max.max(queued(scheduler));
                let (lat, wall) = closed_loop(tr, "unit.wire", secs, units, |tr, id, u| {
                    wire_unit(
                        client,
                        &pool[slice(u)],
                        &remote[slice(u)],
                        tr,
                        id,
                        u as u64,
                        checker,
                        &mut probe,
                    )
                });
                (lat, wall, Vec::new(), queue_max)
            }
        };

    let mut checker = Checker::default();
    let settle = budget(cfg.seconds, TRACE_SHARES[0] * SETTLE_SHARE);
    if !cfg.trace {
        let mut quiet = tr.fork_disabled();
        episodes(
            cfg.seconds,
            &mut out,
            &mut checker,
            || setup(&mut tr),
            |s, checker, secs| {
                let (lat, wall, lag, _) = main_phase(s, &mut quiet, checker, secs);
                (lat, wall, lag)
            },
            Stack::shutdown,
        )?;
        out.planted_caught = planted(&checker, &pool[0]);
        return Ok(out);
    }

    let t0 = Instant::now();
    let mut stack = setup(&mut tr)?;
    out.setups_s.push(t0.elapsed().as_secs_f64());
    let mut quiet = tr.fork_disabled();
    main_phase(&mut stack, &mut quiet, &mut checker, settle);
    let settled = checker.correct();
    let before = Counters::of(&stack.scheduler);
    let net_before = stack
        .wire
        .as_ref()
        .map(|w| w.server.stats())
        .unwrap_or_default();
    let (lat, wall, lag, _) = main_phase(
        &mut stack,
        &mut quiet,
        &mut checker,
        budget(cfg.seconds, TRACE_SHARES[0]),
    );
    out.sets_per_s = (checker.correct() - settled) as f64 / wall;
    let (traced_lat, _, _, queue_max) = main_phase(
        &mut stack,
        &mut tr,
        &mut checker,
        budget(cfg.seconds, TRACE_SHARES[1]),
    );
    let after = Counters::of(&stack.scheduler);

    // Core rung: warmed direct sessions, the workload's batch shape.
    let mut sessions = dir
        .iter()
        .map(|spec| {
            let mut s = stack::build_gate(spec)?.session(BackendChoice::Cached)?;
            tr.span("core.warm_all", ROOT, 0, || s.warm_all());
            Ok(s)
        })
        .collect::<Res<Vec<GateSession>>>()?;
    let core_units: Vec<CoreUnit> = (0..units).map(|u| core_unit_of(&pool[slice(u)])).collect();
    let misses = |sessions: &[GateSession]| -> u64 {
        sessions
            .iter()
            .filter_map(|s| s.lut_stats())
            .map(|s| s.misses)
            .sum()
    };
    let warm_misses = misses(&sessions);
    closed_loop(
        &mut tr,
        "unit.core",
        budget(cfg.seconds, TRACE_SHARES[2]),
        units,
        |tr, id, u| {
            core_unit(
                &mut sessions,
                &core_units[u],
                tr,
                id,
                u as u64,
                &mut checker,
            )
        },
    );
    out.notes.push(format!(
        "core rung: {} LUT misses after warm_all",
        misses(&sessions) - warm_misses
    ));

    // Serve rung: the same inputs through in-process submit + wait.
    let (scheduler, ids) = (&stack.scheduler, &stack.ids);
    closed_loop(
        &mut tr,
        "unit.serve",
        budget(cfg.seconds, TRACE_SHARES[3]),
        units,
        |tr, id, u| {
            serve_unit(
                scheduler,
                ids,
                &pool[slice(u)],
                tr,
                id,
                u as u64,
                &mut checker,
            )
        },
    );

    // Wire rung: the traced timed phase already is one for the wire
    // workloads; the in-process workload replays its inputs over a
    // loopback connection.
    if !w.uses_wire() {
        stack.add_wire(&mut tr)?;
        let client = &mut stack.wire.as_mut().expect("just connected").client;
        closed_loop(
            &mut tr,
            "unit.wire",
            budget(cfg.seconds, TRACE_SHARES[4]),
            units,
            |tr, id, u| {
                wire_unit(
                    client,
                    &pool[slice(u)],
                    &remote[slice(u)],
                    tr,
                    id,
                    u as u64,
                    &mut checker,
                    &mut || {},
                )
            },
        );
    }
    let wire = stack
        .wire
        .as_ref()
        .expect("every traced run has a wire rung");
    let (net_after, client_stats) = (wire.server.stats(), wire.client.stats());

    let (encode_ns, decode_ns, bytes) = codec(&pool, &mut tr, Duration::from_millis(50))?;
    let main_name = if w.uses_wire() {
        "unit.wire"
    } else {
        "unit.main"
    };
    let traced_p50 = median(&tr.durations_us(main_name));
    let untraced_p50 = median(&lat);
    let rung = |name: &str| median(&tr.durations_us(name));
    let (core, serve, wire_rung) = (rung("unit.core"), rung("unit.serve"), rung("unit.wire"));
    out.notes.push(format!(
        "traced wire rung p50 {wire_rung:.1} us vs untraced timed-phase p50 {untraced_p50:.1} us (traced timed phase p50 {traced_p50:.1} us, n={})",
        traced_lat.len()
    ));

    let mut layer = vec![("core.kernel_us", core, "us")];
    layer.extend(serve_counters(&before, &after, queue_max));
    layer.extend(span_metrics(&tr));
    layer.extend([
        ("serve.rung_us_p50", serve, "us"),
        ("serve.overhead_us", serve - core, "us"),
        ("net.rung_us_p50", wire_rung, "us"),
        ("net.wire_overhead_us", wire_rung - serve, "us"),
        ("net.encode_ns", encode_ns, "ns"),
        ("net.decode_ns", decode_ns, "ns"),
        ("net.bytes_per_request", bytes, "bytes"),
        (
            "trace.overhead_ratio",
            ratio(traced_p50, untraced_p50),
            "ratio",
        ),
        (
            "loadgen.lag_p99_us",
            if w == Workload::OpenInproc {
                percentile(&lag, 99.0).0
            } else {
                0.0
            },
            "us",
        ),
    ]);
    layer.extend(net_counters(
        &net_before,
        &net_after,
        client_stats.retries,
        client_stats.submitted,
    ));
    layer.extend(absent(&[
        ("pipeline.overhead_us", "us"),
        ("pipeline.drains_per_batch", "count"),
        ("pipeline.dispatch_per_set", "ratio"),
        ("pipeline.peak_in_flight", "requests"),
        ("compiler.compile_ms", "ms"),
    ]));
    out.layer = layer;
    out.episodes = vec![lat];
    out.lag_us = lag;
    out.checker = checker;
    out.planted_caught = planted(&checker, &pool[0]);
    stack.shutdown()?;
    out.tracer = Some(tr);
    Ok(out)
}

/// Per-layer metrics read straight off the call spans.
fn span_metrics(tr: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let p = |name: &str, q: f64| percentile(&tr.durations_us(name), q).0;
    vec![
        ("serve.submit_us_p50", p("serve.submit", 50.0), "us"),
        ("serve.submit_us_p99", p("serve.submit", 99.0), "us"),
        ("serve.wait_us_p50", p("serve.wait", 50.0), "us"),
        ("serve.wait_us_p99", p("serve.wait", 99.0), "us"),
        ("net.client_submit_us_p50", p("net.submit", 50.0), "us"),
        ("net.client_wait_us_p50", p("net.wait", 50.0), "us"),
        ("net.client_wait_us_p99", p("net.wait", 99.0), "us"),
    ]
}

/// Server and client counters across the run.
fn net_counters(
    before: &NetServerStats,
    after: &NetServerStats,
    retries: u64,
    submitted: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let rejected = (after.request_errors + after.connections_rejected)
        - (before.request_errors + before.connections_rejected);
    vec![
        (
            "net.retry_ratio",
            ratio(retries as f64, submitted as f64),
            "ratio",
        ),
        (
            "net.retry_afters",
            (after.retry_afters - before.retry_afters) as f64,
            "count",
        ),
        (
            "net.timeouts",
            (after.timeouts - before.timeouts) as f64,
            "count",
        ),
        ("net.rejected", rejected as f64, "count"),
    ]
}

/// Plants one wrong answer on `req` and confirms the check catches it.
fn planted(checker: &Checker, req: &Req) -> bool {
    let good = Word::from_bits(req.expected, stack::WIDTH).expect("masked to width");
    checker.catches_planted_error(&[good], &[req.expected])
}

// ---------------------------------------------------------------------
// The circuit workload.
// ---------------------------------------------------------------------

fn run_circuit(cfg: &RunCfg) -> Res<Outcome> {
    let circuit = stack::two_subgraph_circuit()?;
    let batches = stack::circuit_batches(
        &mut Rng::new(cfg.seed),
        circuit.input_count(),
        CIRCUIT_POOL,
        CIRCUIT_SETS,
    );

    let mut tr = Tracer::new(Instant::now(), cfg.trace);
    let mut note = String::new();
    let mut setup = |tr: &mut Tracer| -> Res<(Stack, CircuitPlan)> {
        let (builder, plan, shapes) = stack::circuit_builder(&circuit, tr)?;
        let report = plan.compiled.report();
        note = format!(
            "circuit: {} gates over {} levels, {} slots on {} waveguides x {} lanes",
            report.gate_counts.maj3 + report.gate_counts.xor2,
            report.depth,
            report.slot_count,
            report.waveguides_used,
            report.lanes_per_waveguide
        );
        let ids = plan
            .gates
            .slots()
            .iter()
            .flat_map(|&(m, x)| [m, x])
            .collect();
        let mut s = Stack::start(builder, ids, false, tr)?;
        s.warm(&shapes)?;
        let mut exec = CircuitExecutor::new(&s.scheduler, &plan.compiled, &plan.gates)?;
        if !check_circuit(
            &mut Checker::default(),
            &batches[0],
            exec.run_batch(&batches[0]),
        ) {
            return Err("circuit warm-up batch answered wrong".into());
        }
        drop(exec);
        Ok((s, plan))
    };
    let main_phase =
        |exec: &mut CircuitExecutor, tr: &mut Tracer, checker: &mut Checker, secs: Duration| {
            closed_loop(tr, "unit.main", secs, CIRCUIT_POOL, |tr, id, u| {
                let got = tr.span("pipeline.run_batch", id, u as u64, || {
                    exec.run_batch(&batches[u])
                });
                check_circuit(checker, &batches[u], got)
            })
        };
    let first_set = {
        let expected = oracle::adder_parity(&batches[0][0], stack::ADDER_BITS, stack::WIDTH);
        let words: Vec<Word> = expected
            .iter()
            .map(|&e| Word::from_bits(e, stack::WIDTH).expect("masked to width"))
            .collect();
        (words, expected)
    };

    let mut out = Outcome::default();
    let mut checker = Checker::default();
    let settle = budget(cfg.seconds, TRACE_SHARES[0] * SETTLE_SHARE);
    if !cfg.trace {
        let mut quiet = tr.fork_disabled();
        episodes(
            cfg.seconds,
            &mut out,
            &mut checker,
            || setup(&mut tr),
            |(s, plan), checker, secs| match CircuitExecutor::new(
                &s.scheduler,
                &plan.compiled,
                &plan.gates,
            ) {
                Ok(mut exec) => {
                    let (lat, wall) = main_phase(&mut exec, &mut quiet, checker, secs);
                    (lat, wall, Vec::new())
                }
                Err(_) => {
                    checker.fail(CIRCUIT_SETS as u64);
                    (vec![MISS_US], secs.as_secs_f64(), Vec::new())
                }
            },
            |(s, _)| s.shutdown(),
        )?;
        out.planted_caught = checker.catches_planted_error(&first_set.0, &first_set.1);
        out.notes.push(note);
        return Ok(out);
    }

    let t0 = Instant::now();
    let (mut stack, plan) = setup(&mut tr)?;
    out.setups_s.push(t0.elapsed().as_secs_f64());
    out.notes.push(note);

    let mut exec = CircuitExecutor::new(&stack.scheduler, &plan.compiled, &plan.gates)?;
    let mut quiet = tr.fork_disabled();
    main_phase(&mut exec, &mut quiet, &mut checker, settle);
    let settled = checker.correct();
    let before = Counters::of(&stack.scheduler);
    let dispatch_before = exec.dispatch_stats();
    let (lat, wall) = main_phase(
        &mut exec,
        &mut quiet,
        &mut checker,
        budget(cfg.seconds, TRACE_SHARES[0]),
    );
    out.sets_per_s = (checker.correct() - settled) as f64 / wall;
    let (traced_lat, _) = main_phase(
        &mut exec,
        &mut tr,
        &mut checker,
        budget(cfg.seconds, TRACE_SHARES[1]),
    );
    let after = Counters::of(&stack.scheduler);
    let dispatch = exec.dispatch_stats();
    let batches_run = (lat.len() + traced_lat.len()) as f64;
    let drains_per_batch = ratio(
        (after.stats.drain_passes - before.stats.drain_passes) as f64,
        batches_run,
    );
    let dispatch_per_set = ratio(
        (dispatch.dispatch_calls - dispatch_before.dispatch_calls) as f64,
        (dispatch.sets_dispatched - dispatch_before.sets_dispatched) as f64,
    );
    let peak_in_flight = exec.peak_in_flight();
    drop(exec);

    // Core rung: the same batches through an inline gate bank.
    let mut bank = GateBank::new(
        Waveguide::paper_default()?,
        stack::WIDTH,
        BackendChoice::Cached,
    );
    for batch in &batches {
        check_circuit(
            &mut Checker::default(),
            batch,
            circuit.evaluate_batch_with(&mut bank, batch),
        );
    }
    closed_loop(
        &mut tr,
        "unit.core",
        budget(cfg.seconds, TRACE_SHARES[2]),
        CIRCUIT_POOL,
        |tr, id, u| {
            let got = tr.span("core.gate_bank", id, u as u64, || {
                circuit.evaluate_batch_with(&mut bank, &batches[u])
            });
            check_circuit(&mut checker, &batches[u], got)
        },
    );

    // Serve and wire rungs: each batch's gate requests, flat, with the
    // operands their nodes see (no dependency waits).
    let gate_reqs: Vec<Vec<Req>> = batches
        .iter()
        .map(|b| stack::circuit_gate_requests(&plan, b))
        .collect();
    let (scheduler, ids) = (&stack.scheduler, &stack.ids);
    closed_loop(
        &mut tr,
        "unit.serve",
        budget(cfg.seconds, TRACE_SHARES[3]),
        CIRCUIT_POOL,
        |tr, id, u| {
            serve_unit(
                scheduler,
                ids,
                &gate_reqs[u],
                tr,
                id,
                u as u64,
                &mut checker,
            )
        },
    );
    stack.add_wire(&mut tr)?;
    let remote: Vec<_> = gate_reqs
        .iter()
        .map(|r| stack::remote_requests(r))
        .collect();
    let client = &mut stack.wire.as_mut().expect("just connected").client;
    closed_loop(
        &mut tr,
        "unit.wire",
        budget(cfg.seconds, TRACE_SHARES[4]),
        CIRCUIT_POOL,
        |tr, id, u| {
            wire_unit(
                client,
                &gate_reqs[u],
                &remote[u],
                tr,
                id,
                u as u64,
                &mut checker,
                &mut || {},
            )
        },
    );
    let wire = stack.wire.as_ref().expect("just connected");
    let (net_after, client_stats) = (wire.server.stats(), wire.client.stats());

    let (encode_ns, decode_ns, bytes) = codec(&gate_reqs[0], &mut tr, Duration::from_millis(50))?;
    let rung = |name: &str| median(&tr.durations_us(name));
    let (main, core, serve, wire_rung) = (
        rung("unit.main"),
        rung("unit.core"),
        rung("unit.serve"),
        rung("unit.wire"),
    );
    let compile_ms = median(&tr.durations_us("compiler.compile")) / 1e3;

    let mut layer = vec![("core.kernel_us", core, "us")];
    layer.extend(serve_counters(&before, &after, 0));
    layer.extend(span_metrics(&tr));
    layer.extend([
        ("serve.rung_us_p50", serve, "us"),
        ("serve.overhead_us", serve - core, "us"),
        ("net.rung_us_p50", wire_rung, "us"),
        ("net.wire_overhead_us", wire_rung - serve, "us"),
        ("net.encode_ns", encode_ns, "ns"),
        ("net.decode_ns", decode_ns, "ns"),
        ("net.bytes_per_request", bytes, "bytes"),
        ("trace.overhead_ratio", ratio(main, median(&lat)), "ratio"),
        ("loadgen.lag_p99_us", 0.0, "us"),
        ("pipeline.overhead_us", main - core, "us"),
        ("pipeline.drains_per_batch", drains_per_batch, "count"),
        ("pipeline.dispatch_per_set", dispatch_per_set, "ratio"),
        ("pipeline.peak_in_flight", peak_in_flight as f64, "requests"),
        ("compiler.compile_ms", compile_ms, "ms"),
    ]);
    layer.extend(net_counters(
        &NetServerStats::default(),
        &net_after,
        client_stats.retries,
        client_stats.submitted,
    ));
    out.layer = layer;
    out.episodes = vec![lat];
    out.checker = checker;
    out.planted_caught = checker.catches_planted_error(&first_set.0, &first_set.1);
    stack.shutdown()?;
    out.tracer = Some(tr);
    Ok(out)
}
