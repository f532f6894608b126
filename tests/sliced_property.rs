//! Equivalence tests for the bit-sliced truth-table kernel: the
//! word-parallel sliced path must agree bit-for-bit with per-set table
//! gathers and with the analytic superposition engine on randomized
//! batches (including ragged tails), and the scheduler's logic-only
//! drain must stay output-equivalent over two shards.

use proptest::prelude::*;
use spinwave_parallel::core::backend::{BackendChoice, OperandSet};
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::core::truth::LogicFunction;
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{SchedulerBuilder, ServeConfig, Ticket};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sliced ≡ table gather ≡ analytic on randomized batches.
    ///
    /// Three evaluations of the same batch must agree word-for-word:
    /// the bit-sliced kernel (`evaluate_batch_logic`), the per-set
    /// readout gather of full outputs (`evaluate_batch`), and the
    /// analytic engine. Batch lengths are drawn so that `len % 64 != 0`
    /// is common — the ragged final block is exercised, not just full
    /// 64-lane blocks — and the designs cover both kernel strategies
    /// (sum-of-products and gather are chosen by input count).
    #[test]
    fn sliced_matches_scalar_and_analytic(
        seed in 0u64..u64::MAX,
        len in 1usize..200,
        width_sel in 0usize..3,
        design_sel in 0usize..4,
    ) {
        let width = [8, 16, 32][width_sel];
        let (inputs, function) = [
            (3, LogicFunction::Majority),
            (5, LogicFunction::Majority),
            (7, LogicFunction::Majority),
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

        let mut cached = gate.session(BackendChoice::Cached).unwrap();
        let sliced = cached.evaluate_batch_logic(&batch).unwrap();
        prop_assert_eq!(&sliced, &reference);
        let full: Vec<Word> = cached
            .evaluate_batch(&batch)
            .unwrap()
            .iter()
            .map(|out| out.word())
            .collect();
        prop_assert_eq!(&full, &reference);
    }
}

/// The scheduler's logic-only drain stays output-equivalent to
/// sequential evaluation on two shards, and tickets carry no
/// per-channel readouts.
#[test]
fn scheduler_logic_only_equivalence_over_two_shards() {
    let gate = build_gate(8, 3, LogicFunction::Majority);
    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 2,
        max_batch: 32,
        linger: Duration::from_micros(50),
        queue_depth: 256,
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
