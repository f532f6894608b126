//! Equivalence and persistence tests for the bit-sliced batch kernel:
//! the word-parallel sliced path must agree bit-for-bit with scalar
//! cached evaluation and with the analytic superposition engine on
//! randomized batches (including ragged tails and cold-combo misses
//! mid-batch), dense LUT rows must survive a `lut_store` round-trip and
//! `split()`, and the scheduler's logic-only drain must stay
//! output-equivalent with adaptive rebalancing enabled.

use proptest::prelude::*;
use spinwave_parallel::core::backend::{BackendChoice, OperandSet};
use spinwave_parallel::core::lut_store::{load_lut, save_lut};
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::core::truth::LogicFunction;
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{AdaptiveConfig, SchedulerBuilder, ServeConfig, Ticket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn build_gate(width: usize, inputs: usize, function: LogicFunction) -> ParallelGate {
    ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
        .channels(width)
        .inputs(inputs)
        .function(function)
        .build()
        .unwrap()
}

/// SplitMix64 — deterministic word material from a seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn batch_from_seed(seed: u64, len: usize, width: usize, inputs: usize) -> Vec<OperandSet> {
    (0..len)
        .map(|s| {
            let words = (0..inputs)
                .map(|j| {
                    let bits = mix(seed ^ ((s as u64) << 20) ^ (j as u64));
                    Word::from_bits(bits & lane_mask_bits(width), width).unwrap()
                })
                .collect();
            OperandSet::new(words)
        })
        .collect()
}

fn lane_mask_bits(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// A directory unique to this test invocation under the system temp
/// dir.
fn scratch_dir(label: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "magnon_sliced_test_{}_{label}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sliced ≡ scalar cached ≡ analytic on randomized batches.
    ///
    /// Three evaluations of the same batch must agree word-for-word:
    /// a *cold* cached session (every block hits the cold-combo
    /// fallback mid-batch before rows densify), a *warm* cached
    /// session (`warm_all` → pure dense SOP/gather lanes), and the
    /// analytic engine. Batch lengths are drawn so that `len % 64 != 0`
    /// is common — the ragged scalar tail is exercised, not just full
    /// 64-lane blocks.
    #[test]
    fn sliced_matches_scalar_and_analytic(
        seed in 0u64..u64::MAX,
        len in 1usize..200,
        width_sel in 0usize..3,
        design_sel in 0usize..3,
    ) {
        let width = [8, 16, 32][width_sel];
        let (inputs, function) = [
            (3, LogicFunction::Majority),
            (5, LogicFunction::Majority),
            (2, LogicFunction::Xor),
        ][design_sel];
        let gate = build_gate(width, inputs, function);
        let batch = batch_from_seed(seed, len, width, inputs);

        let mut analytic = gate.session(BackendChoice::Analytic).unwrap();
        let reference: Vec<Word> = analytic
            .evaluate_batch(&batch)
            .unwrap()
            .iter()
            .map(|out| out.word())
            .collect();

        // Cold cached session: the first sliced pass resolves every
        // fresh combo through the analytic fallback mid-batch.
        let mut cold = gate.session(BackendChoice::Cached).unwrap();
        let cold_words = cold.evaluate_batch_logic(&batch).unwrap();
        prop_assert_eq!(&cold_words, &reference);

        // Warm cached session: every row dense before the batch, so
        // the kernel never leaves the word-parallel path.
        let mut warm = gate.session(BackendChoice::Cached).unwrap();
        warm.warm_all();
        let stats = warm.lut_stats().unwrap();
        prop_assert_eq!(stats.dense_rows, width);
        let warm_words = warm.evaluate_batch_logic(&batch).unwrap();
        prop_assert_eq!(&warm_words, &reference);
        let after = warm.lut_stats().unwrap();
        prop_assert_eq!(after.misses, stats.misses, "warm batch must not miss");

        // Full-output batches report the same words, and re-running the
        // now-warm cold session agrees too (all rows densified).
        let full: Vec<Word> = warm
            .evaluate_batch(&batch)
            .unwrap()
            .iter()
            .map(|out| out.word())
            .collect();
        prop_assert_eq!(&full, &reference);
        let rerun = cold.evaluate_batch_logic(&batch).unwrap();
        prop_assert_eq!(&rerun, &reference);
    }
}

/// Dense LUT rows round-trip through `lut_store`: a snapshot of a
/// fully warmed gate, saved and re-loaded from disk, re-enters the
/// dense form on `import_lut` and serves without a single miss.
#[test]
fn dense_rows_round_trip_through_lut_store() {
    let gate = build_gate(8, 3, LogicFunction::Majority);
    let mut warm = gate.session(BackendChoice::Cached).unwrap();
    warm.warm_all();
    assert_eq!(warm.lut_stats().unwrap().dense_rows, 8);

    let snapshot = warm.lut_snapshot().expect("cached backend snapshots");
    let dir = scratch_dir("roundtrip");
    let path = dir.join("maj3.lut");
    save_lut(&path, &snapshot).unwrap();
    let restored = load_lut(&path).unwrap();

    let mut fresh = gate.session(BackendChoice::Cached).unwrap();
    let imported = fresh.import_lut(&restored).unwrap();
    assert!(imported > 0, "snapshot entries imported");
    let stats = fresh.lut_stats().unwrap();
    assert_eq!(stats.dense_rows, 8, "import re-establishes dense rows");
    assert_eq!(stats.total_rows, 8);

    let batch = batch_from_seed(7, 100, 8, 3);
    let words = fresh.evaluate_batch_logic(&batch).unwrap();
    let mut analytic = gate.session(BackendChoice::Analytic).unwrap();
    let reference: Vec<Word> = analytic
        .evaluate_batch(&batch)
        .unwrap()
        .iter()
        .map(|out| out.word())
        .collect();
    assert_eq!(words, reference);
    let after = fresh.lut_stats().unwrap();
    assert_eq!(after.misses, 0, "imported dense rows serve without misses");
    assert!(after.hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `split()` clones the dense rows but zeroes the per-session
/// counters: the clone serves warm from its first batch.
#[test]
fn split_preserves_dense_rows_and_resets_counters() {
    let gate = build_gate(16, 3, LogicFunction::Majority);
    let mut warm = gate.session(BackendChoice::Cached).unwrap();
    warm.warm_all();
    let _ = warm
        .evaluate_batch_logic(&batch_from_seed(1, 64, 16, 3))
        .unwrap();
    assert!(warm.lut_stats().unwrap().hits > 0);

    let mut clone = warm.split_session().unwrap();
    let stats = clone.lut_stats().unwrap();
    assert_eq!(stats.hits, 0, "split resets hit counter");
    assert_eq!(stats.misses, 0, "split resets miss counter");
    assert_eq!(stats.dense_rows, 16, "split keeps dense rows");

    let _ = clone
        .evaluate_batch_logic(&batch_from_seed(2, 80, 16, 3))
        .unwrap();
    let after = clone.lut_stats().unwrap();
    assert_eq!(after.misses, 0, "clone serves warm");
    assert!(after.hits > 0);
}

/// The scheduler's logic-only drain stays output-equivalent to
/// sequential evaluation with adaptive rebalancing on, and tickets
/// carry no per-channel readouts.
#[test]
fn scheduler_logic_only_equivalence_with_rebalancing() {
    let gate = build_gate(8, 3, LogicFunction::Majority);
    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 2,
        max_batch: 32,
        linger: Duration::from_micros(50),
        queue_depth: 256,
        lut_dir: None,
        adaptive: AdaptiveConfig {
            rebalance: true,
            rebalance_interval: 8,
            ..AdaptiveConfig::default()
        },
    });
    let id = builder
        .register("maj3", gate.clone(), BackendChoice::Cached)
        .unwrap();
    let scheduler = builder.build().unwrap();

    let batch = batch_from_seed(11, 96, 8, 3);
    let tickets: Vec<Ticket> = batch
        .iter()
        .map(|set| scheduler.submit(id, set.clone()).unwrap())
        .collect();
    for (ticket, set) in tickets.into_iter().zip(batch.iter()) {
        let served = ticket.wait().unwrap();
        let reference = gate.evaluate(set.words()).unwrap();
        assert_eq!(served.word(), reference.word());
        assert!(
            served.readouts().is_empty(),
            "logic-only drain strips readouts"
        );
    }
    scheduler.shutdown().unwrap();
}
