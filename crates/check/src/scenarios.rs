//! The serving-stack invariant suite.
//!
//! Every scenario is a plain `fn()` that builds its world from scratch,
//! drives it through façade-instrumented primitives (so every sync op
//! is a yield point), asserts its invariants inline, and tears down.
//! A panic anywhere — an `assert!`, a worker that never joins
//! (deadlock), a lost completion (the waiting task blocks forever) —
//! is a violation the harness reports with a replay token.
//!
//! The scenarios cover the checker's contract for the serving stack:
//!
//! * [`serve_exactly_once`] — every submitted ticket redeems exactly
//!   once with the right word; the queue-depth gauge never reads
//!   negative and drains to zero; shutdown is clean. This is the CI
//!   smoke scenario (2 shards × 2 waveguides × small batch).
//! * [`shutdown_joins_despite_worker_panic`] — an injected shard panic
//!   must not detach the surviving workers or hang `shutdown`.
//! * [`timed_out_ticket_redeems`] — a ticket whose timed wait expires
//!   is not lost; the completion is still redeemable.
//! * [`executor_pipeline_completes`] — the pipelined circuit executor's
//!   park/harvest loop completes every plan against the reference even
//!   when completions land out of order behind a slow head ticket.
//! * [`net_reap_outside_lock`] — the connection-reap discipline the
//!   lock-order pass enforces in `magnon_net`: handles reaped under the
//!   registry guard, joined outside it, none lost or double-joined.
//! * [`racy_counter`] — a deliberately broken load-then-store counter;
//!   the checker's self-test (it must FIND this bug).

use magnon_core::backend::{BackendChoice, OperandSet};
use magnon_core::gate::{ParallelGate, ParallelGateBuilder, WaveguideId};
use magnon_core::sync::time::Duration;
use magnon_core::sync::{thread, Arc};
use magnon_core::word::Word;
use magnon_physics::waveguide::Waveguide;
use magnon_serve::{register_compiled, CircuitExecutor, SchedulerBuilder, ServeConfig, ServeError};

/// Scenario registry: `(name, body)`, the CLI's `--scenario` namespace.
/// [`racy_counter`] is deliberately absent — it is the broken self-test
/// body, exercised by `--self-test` and the test suite, never part of
/// a clean sweep.
pub fn all() -> &'static [(&'static str, fn())] {
    &[
        ("serve-exactly-once", serve_exactly_once as fn()),
        (
            "shutdown-worker-panic",
            shutdown_joins_despite_worker_panic as fn(),
        ),
        ("ticket-timeout-redeem", timed_out_ticket_redeems as fn()),
        ("executor-pipeline", executor_pipeline_completes as fn()),
        ("net-reap-outside-lock", net_reap_outside_lock as fn()),
    ]
}

/// Looks a scenario up by its registry name.
pub fn by_name(name: &str) -> Option<fn()> {
    all()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, body)| body)
}

/// Runs `f` with panic messages suppressed, restoring the previous
/// hook after. Scenarios that *expect* a worker panic (the injected
/// shard poison) would otherwise print a backtrace per explored
/// schedule — thousands of them per test run.
pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(prev);
    result
}

/// A byte-wide 3-input majority gate on `waveguide_id`. Same design per
/// call, so reference evaluation is interchangeable across instances.
fn maj_gate(waveguide_id: u64) -> ParallelGate {
    ParallelGateBuilder::new(Waveguide::paper_default().expect("paper waveguide"))
        .channels(8)
        .inputs(3)
        .on_waveguide(WaveguideId(waveguide_id))
        .build()
        .expect("byte majority gate")
}

/// Small-config serving: short linger, shallow queues.
fn small_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch: 4,
        linger: Duration::from_micros(50),
        queue_depth: 4,
    }
}

fn operand_set(seed: u64) -> OperandSet {
    let bytes = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    OperandSet::new(
        (0..3)
            .map(|j| Word::from_u8((bytes >> (8 * j)) as u8))
            .collect(),
    )
}

/// Bitwise 3-way majority — the paper gate's logic function, computed
/// independently so the invariant does not trust the serving path.
fn maj3_reference(set: &OperandSet) -> u8 {
    let w = set.words();
    let (a, b, c) = (w[0].to_u8(), w[1].to_u8(), w[2].to_u8());
    (a & b) | (b & c) | (a & c)
}

/// The CI smoke scenario: 2 shards × 2 waveguides, two concurrent
/// submitters, a handful of requests.
///
/// Invariants: every ticket redeems exactly once with the bitwise-
/// majority word; the raw queue gauge never reads negative at any
/// sampled point; it drains to zero once all completions are redeemed;
/// submitted == completed at shutdown; shutdown returns cleanly (a
/// hang is a deadlock the controller reports).
pub fn serve_exactly_once() {
    let mut builder = SchedulerBuilder::new(small_config(2));
    let gate_a = builder
        .register("maj_wg0", maj_gate(0), BackendChoice::Analytic)
        .expect("register wg0");
    let gate_b = builder
        .register("maj_wg1", maj_gate(1), BackendChoice::Analytic)
        .expect("register wg1");
    let scheduler = Arc::new(builder.build().expect("build scheduler"));

    let mut submitters = Vec::new();
    for (lane, gate) in [(0u64, gate_a), (1, gate_b)] {
        let scheduler = Arc::clone(&scheduler);
        submitters.push(thread::spawn(move || {
            for i in 0..2u64 {
                let set = operand_set(lane * 16 + i + 1);
                let expected = maj3_reference(&set);
                let ticket = scheduler.submit(gate, set).expect("submit");
                let out = ticket.wait().expect("ticket must redeem");
                assert_eq!(
                    out.word().to_u8(),
                    expected,
                    "completion carried the wrong word"
                );
            }
        }));
    }
    // Sample the gauge while traffic is in flight: the raw (unclamped)
    // value must never be negative, under any interleaving.
    for _ in 0..4 {
        for shard in 0..2 {
            let queued = scheduler.queued_raw(shard);
            assert!(queued >= 0, "queue gauge went negative: {queued}");
        }
        thread::yield_now();
    }
    for handle in submitters {
        handle.join().expect("submitter must not panic");
    }
    let stats = scheduler.stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4, "every ticket completes exactly once");
    assert_eq!(stats.failed, 0);
    // All completions redeemed ⇒ every drain's decrement has landed ⇒
    // the gauge is exactly zero before shutdown.
    for shard in 0..2 {
        assert_eq!(
            scheduler.queued_raw(shard),
            0,
            "gauge must drain to zero at quiescence"
        );
    }
    let scheduler = Arc::into_inner(scheduler).expect("submitters dropped their handles");
    scheduler.shutdown().expect("clean shutdown");
}

/// An injected shard panic mid-drain: `shutdown` must still join every
/// worker (returning at all proves it — a stuck join is a deadlock the
/// controller reports), report the poisoned shard, and the surviving
/// shard must keep serving until the end.
pub fn shutdown_joins_despite_worker_panic() {
    let mut builder = SchedulerBuilder::new(small_config(2));
    let gate_a = builder
        .register("maj_wg0", maj_gate(0), BackendChoice::Analytic)
        .expect("register wg0");
    let gate_b = builder
        .register("maj_wg1", maj_gate(1), BackendChoice::Analytic)
        .expect("register wg1");
    let scheduler = builder.build().expect("build scheduler");
    let poisoned = scheduler.shard_of(gate_a).expect("wg0 placed");
    let survivor_shard = scheduler.shard_of(gate_b).expect("wg1 placed");
    assert_ne!(
        poisoned, survivor_shard,
        "waveguides 0/1 split over 2 shards"
    );
    assert!(scheduler.inject_poison(poisoned), "poison must land");
    // The surviving shard still answers while its sibling is dying.
    let set = operand_set(7);
    let expected = maj3_reference(&set);
    let ticket = scheduler.submit(gate_b, set).expect("survivor submit");
    assert_eq!(
        ticket.wait().expect("survivor completion").word().to_u8(),
        expected
    );
    match scheduler.shutdown() {
        Err(ServeError::WorkerPanicked { shards, .. }) => {
            assert_eq!(shards, vec![poisoned], "exactly the poisoned shard panics");
        }
        other => panic!("poisoned worker must surface as WorkerPanicked, got {other:?}"),
    }
}

/// A timed wait that expires must not consume the completion: the same
/// ticket redeems on the next wait, with the right word.
pub fn timed_out_ticket_redeems() {
    let mut builder = SchedulerBuilder::new(small_config(1));
    let gate = builder
        .register("maj_wg0", maj_gate(0), BackendChoice::Analytic)
        .expect("register");
    let scheduler = builder.build().expect("build scheduler");
    let set = operand_set(3);
    let expected = maj3_reference(&set);
    let ticket = scheduler.submit(gate, set).expect("submit");
    // A deadline this short usually fires before the drain answers —
    // but the schedule policy decides, so both orders get explored.
    match ticket.wait_timeout(Duration::from_nanos(200)) {
        Ok(out) => assert_eq!(out.word().to_u8(), expected),
        Err(ServeError::Timeout) => {
            let out = ticket
                .wait()
                .expect("timed-out ticket must stay redeemable");
            assert_eq!(out.word().to_u8(), expected);
        }
        Err(e) => panic!("unexpected ticket error: {e}"),
    }
    scheduler.shutdown().expect("clean shutdown");
}

/// The pipelined executor against a full adder, with queues shallow
/// enough to force `try_submit` deferrals: the park/harvest loop must
/// redeem out-of-order completions (a slow head ticket must not hide a
/// finished one behind it — the defect this checker caught in the
/// prefix-only harvest) and finish the plan with reference-identical
/// outputs.
pub fn executor_pipeline_completes() {
    use magnon_circuits::netlist::Circuit;
    use magnon_compiler::{compile, CompilerConfig};

    let mut circuit = Circuit::new(8).expect("circuit width");
    let a = circuit.input();
    let b = circuit.input();
    let cin = circuit.input();
    let axb = circuit.xor2(a, b).expect("xor");
    let sum = circuit.xor2(axb, cin).expect("xor");
    let carry = circuit.maj3(a, b, cin).expect("maj");
    circuit.mark_output(sum).expect("output");
    circuit.mark_output(carry).expect("output");

    let guide = Waveguide::paper_default().expect("paper waveguide");
    let compiled = compile(&circuit, &guide, &CompilerConfig::default()).expect("compile");
    let mut builder = SchedulerBuilder::new(ServeConfig {
        queue_depth: 1,
        max_batch: 2,
        ..small_config(2)
    });
    let gates = register_compiled(
        &mut builder,
        &compiled,
        guide,
        WaveguideId(0),
        BackendChoice::Analytic,
    )
    .expect("register compiled");
    let scheduler = builder.build().expect("build scheduler");
    let mut executor = CircuitExecutor::new(&scheduler, &compiled, &gates).expect("bind executor");
    let sets: Vec<Vec<Word>> = (0..2u64)
        .map(|i| operand_set(40 + i).words().to_vec())
        .collect();
    let reference = circuit.evaluate_batch(&sets).expect("reference");
    let served = executor.run_batch(&sets).expect("pipelined run");
    assert_eq!(
        served, reference,
        "pipelined outputs diverged from the circuit"
    );
    scheduler.shutdown().expect("clean shutdown");
}

/// Regression scenario for the connection-reap discipline the lock
/// pass surfaced in `magnon_net`'s accept loop: finished handles used
/// to be `join()`ed *while holding* the connection-registry lock, so a
/// connection mid-teardown could stall every new accept (and
/// shutdown's final take) behind it. The fixed shape —
/// [`magnon_net::server::reap_finished`] collects under the guard, the
/// caller joins after dropping it — must neither lose nor double-join
/// a handle under any interleaving, and the registry must drain to
/// empty at shutdown.
pub fn net_reap_outside_lock() {
    use magnon_core::sync::mpsc;
    use magnon_core::sync::Mutex;
    use magnon_net::server::reap_finished;

    let registry: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let (release_tx, release_rx) = mpsc::channel::<()>();

    // Three connection stand-ins, spawned before the registry guard is
    // taken (the accept loop's shape): two finish on their own, one is
    // mid-teardown and only exits once released — exactly the thread
    // the old shape would have joined under the lock.
    let fast_a = thread::spawn(|| {});
    let fast_b = thread::spawn(|| {});
    let slow = thread::spawn(move || {
        release_rx.recv().expect("release message");
    });
    {
        let mut registry = registry.lock().unwrap_or_else(|e| e.into_inner());
        registry.push(fast_a);
        registry.push(fast_b);
        registry.push(slow);
    }

    // Accept-churn loop: reap under the guard, join outside it.
    let mut joined = 0usize;
    for _ in 0..8 {
        let finished = {
            let mut registry = registry.lock().unwrap_or_else(|e| e.into_inner());
            reap_finished(&mut registry)
        };
        for handle in finished {
            handle.join().expect("connection stand-in");
            joined += 1;
        }
        if joined == 2 {
            break;
        }
        thread::yield_now();
    }
    {
        let registry = registry.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(
            registry.len() + joined,
            3,
            "a reaped handle left the registry exactly once ({} still registered, {joined} joined)",
            registry.len()
        );
    }

    // Shutdown: release the slow connection, take the registry under
    // the guard, join after dropping it — stop_and_join's shape.
    release_tx.send(()).expect("release the slow connection");
    let rest = {
        let mut registry = registry.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *registry)
    };
    for handle in rest {
        handle.join().expect("connection stand-in");
        joined += 1;
    }
    assert_eq!(joined, 3, "every connection joins exactly once");
    let registry = registry.lock().unwrap_or_else(|e| e.into_inner());
    assert!(registry.is_empty(), "registry drains to empty at shutdown");
}

/// The deliberately broken self-test body: two threads doing a
/// load-then-store increment through the instrumented atomics. The
/// run-to-block default schedule passes; a preemption between the load
/// and the store loses an update. The checker MUST find this — it is
/// how the test suite proves the instrumentation actually explores.
pub fn racy_counter() {
    use magnon_core::sync::atomic::{AtomicU64, Ordering};
    let counter = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let counter = Arc::clone(&counter);
            thread::spawn(move || {
                // Deliberate bug: non-atomic read-modify-write.
                let v = counter.load(Ordering::SeqCst);
                counter.store(v + 1, Ordering::SeqCst);
            })
        })
        .collect();
    for handle in workers {
        handle.join().expect("incrementer must not panic");
    }
    assert_eq!(
        counter.load(magnon_core::sync::atomic::Ordering::SeqCst),
        2,
        "lost update"
    );
}
