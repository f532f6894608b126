//! Integration and property tests for the sharded serving runtime:
//! scheduler output must equal sequential evaluation for randomized
//! interleaved multi-gate request streams.

use proptest::prelude::*;
use spinwave_parallel::core::backend::{BackendChoice, OperandSet};
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::core::truth::LogicFunction;
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{
    register_compiled, CircuitExecutor, SchedulerBuilder, ServeConfig, Ticket,
};
use std::time::Duration;

fn quick_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch: 64,
        linger: Duration::from_micros(50),
        queue_depth: 256,
    }
}

/// The three gate designs the interleaved streams mix: byte-wide MAJ-3
/// and XOR-2 sharing waveguide 0, and a 5-input majority alone on
/// waveguide 1.
fn stream_gates() -> Vec<ParallelGate> {
    let guide = Waveguide::paper_default().unwrap();
    vec![
        ParallelGateBuilder::new(guide)
            .channels(8)
            .inputs(3)
            .on_waveguide(WaveguideId(0))
            .build()
            .unwrap(),
        ParallelGateBuilder::new(guide)
            .channels(8)
            .inputs(2)
            .function(LogicFunction::Xor)
            .on_waveguide(WaveguideId(0))
            .build()
            .unwrap(),
        ParallelGateBuilder::new(guide)
            .channels(8)
            .inputs(5)
            .on_waveguide(WaveguideId(1))
            .build()
            .unwrap(),
    ]
}

/// Derives one request from a stream seed: which gate, and its operand
/// words.
fn request_from_seed(gates: &[ParallelGate], seed: u64) -> (usize, OperandSet) {
    let which = (seed % gates.len() as u64) as usize;
    let gate = &gates[which];
    let words: Vec<Word> = (0..gate.input_count() as u64)
        .map(|j| {
            Word::from_u8(
                (seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(j as u32 * 9)
                    >> 16) as u8,
            )
        })
        .collect();
    (which, OperandSet::new(words))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Scheduler-served answers equal sequential `ParallelGate::evaluate`
    /// for randomized interleaved multi-gate streams, with every tag
    /// preserved and completions redeemable in any order, both on the
    /// default zero linger and with a 50 µs window.
    #[test]
    fn scheduler_matches_sequential_for_interleaved_streams(
        seeds in proptest::collection::vec(0u64..u64::MAX, 4..48),
        workers in 1usize..5,
        lingers in any::<bool>(),
    ) {
        let gates = stream_gates();
        let linger = if lingers { Duration::from_micros(50) } else { Duration::ZERO };
        let mut builder = SchedulerBuilder::new(ServeConfig {
            linger,
            ..quick_config(workers)
        });
        let ids = [
            builder.register("maj3", gates[0].clone(), BackendChoice::Cached).unwrap(),
            builder.register("xor2", gates[1].clone(), BackendChoice::Analytic).unwrap(),
            builder.register("maj5", gates[2].clone(), BackendChoice::Cached).unwrap(),
        ];
        let scheduler = builder.build().unwrap();

        let requests: Vec<(usize, OperandSet)> = seeds
            .iter()
            .map(|&s| request_from_seed(&gates, s))
            .collect();
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|(which, set)| scheduler.submit(ids[*which], set.clone()).unwrap())
            .collect();

        // Tags are unique across the stream.
        let mut tags: Vec<u64> = tickets.iter().map(Ticket::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        prop_assert_eq!(tags.len(), tickets.len());

        // Redeem out of submission order (reversed): each completion
        // must still match ITS request's sequential evaluation.
        for (ticket, (which, set)) in
            tickets.into_iter().rev().zip(requests.iter().rev())
        {
            let served = ticket.wait().unwrap();
            let reference = gates[*which].evaluate(set.words()).unwrap();
            prop_assert_eq!(served.word(), reference.word());
        }

        let stats = scheduler.stats();
        prop_assert_eq!(stats.completed, seeds.len() as u64);
        prop_assert_eq!(stats.completed, stats.submitted);
        scheduler.shutdown().unwrap();
    }

    /// With a fixed 50 µs linger on 1–4 workers, a hot-waveguide
    /// skewed stream — ~80 % of requests hammering waveguide 0, the
    /// rest spread over three co-registered waveguides of the same gate
    /// design plus an XOR sharing the hot waveguide — must stay
    /// output-equivalent to sequential `ParallelGate::evaluate`, and
    /// every lane must stay on its build-time shard.
    #[test]
    fn scheduler_matches_sequential_under_hot_waveguide_skew(
        seeds in proptest::collection::vec(0u64..u64::MAX, 16..96),
        workers in 1usize..5,
    ) {
        let guide = Waveguide::paper_default().unwrap();
        let mut gates: Vec<ParallelGate> = (0..4u64)
            .map(|wg| {
                ParallelGateBuilder::new(guide)
                    .channels(8)
                    .inputs(3)
                    .on_waveguide(WaveguideId(wg))
                    .build()
                    .unwrap()
            })
            .collect();
        gates.push(
            ParallelGateBuilder::new(guide)
                .channels(8)
                .inputs(2)
                .function(LogicFunction::Xor)
                .on_waveguide(WaveguideId(0))
                .build()
                .unwrap(),
        );
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers,
            max_batch: 32,
            linger: Duration::from_micros(50),
            queue_depth: 512,
        });
        let ids: Vec<_> = gates
            .iter()
            .enumerate()
            .map(|(k, gate)| {
                builder
                    .register(format!("gate{k}"), gate.clone(), BackendChoice::Cached)
                    .unwrap()
            })
            .collect();
        let scheduler = builder.build().unwrap();
        let built = scheduler.telemetry().lanes;

        // Skew: seeds ending 0..=7 hit the hot waveguide-0 gates
        // (majority or XOR), 8..=9 land on waveguides 1..=2; the
        // waveguide-3 gate stays registered but idle.
        let requests: Vec<(usize, OperandSet)> = seeds
            .iter()
            .map(|&seed| {
                let which = match seed % 10 {
                    0..=6 => 0,            // hot maj3 on waveguide 0
                    7 => 4,                // hot xor2 on waveguide 0
                    d => (d - 7) as usize, // cold maj3 on waveguides 1..=2
                };
                let gate = &gates[which];
                let words: Vec<Word> = (0..gate.input_count() as u64)
                    .map(|j| {
                        Word::from_u8(
                            (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(j as u32 * 9)
                                >> 16) as u8,
                        )
                    })
                    .collect();
                (which, OperandSet::new(words))
            })
            .collect();
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|(which, set)| scheduler.submit(ids[*which], set.clone()).unwrap())
            .collect();
        // Redeem out of submission order: completions are tag-routed.
        for (ticket, (which, set)) in tickets.into_iter().rev().zip(requests.iter().rev()) {
            let served = ticket.wait().unwrap();
            let reference = gates[*which].evaluate(set.words()).unwrap();
            prop_assert_eq!(served.word(), reference.word());
        }

        let stats = scheduler.stats();
        prop_assert_eq!(stats.completed, seeds.len() as u64);
        prop_assert_eq!(stats.completed, stats.submitted);
        let telemetry = scheduler.telemetry();
        prop_assert_eq!(telemetry.shards.len(), workers);
        // Placement is static and inside the shard range.
        prop_assert_eq!(telemetry.rebalances, 0);
        for (lane, at_build) in telemetry.lanes.iter().zip(&built) {
            prop_assert!(lane.shard < workers);
            prop_assert_eq!(lane.shard, at_build.shard);
        }
        let queued: u64 = telemetry.shards.iter().map(|s| s.queued).sum();
        prop_assert_eq!(queued, 0, "all queues drained after completion");
        scheduler.shutdown().unwrap();
    }

    /// FDM scheduling is output-equivalent to sequential per-lane
    /// evaluation: randomized interleaved streams across three
    /// frequency lanes of ONE waveguide (distinct designs on disjoint
    /// bands) plus a second waveguide must decode exactly as each
    /// gate's own `ParallelGate::evaluate`, however the drains stacked
    /// the lanes into multi-lane passes underneath.
    #[test]
    fn fdm_scheduler_matches_sequential_per_lane_evaluation(
        seeds in proptest::collection::vec(0u64..u64::MAX, 8..64),
        workers in 1usize..4,
    ) {
        let guide = Waveguide::paper_default().unwrap();
        // Three lanes of waveguide 0 on the disjoint bands probed by
        // the core lane tests, plus a lane-0 gate alone on waveguide 1.
        let gates: Vec<ParallelGate> = vec![
            ParallelGateBuilder::new(guide)
                .channels(8)
                .inputs(3)
                .on_waveguide(WaveguideId(0))
                .on_lane(LaneId(0))
                .build()
                .unwrap(),
            ParallelGateBuilder::new(guide)
                .channels(8)
                .inputs(2)
                .function(LogicFunction::Xor)
                .base_frequency(100e9)
                .on_waveguide(WaveguideId(0))
                .on_lane(LaneId(1))
                .build()
                .unwrap(),
            ParallelGateBuilder::new(guide)
                .channels(8)
                .inputs(5)
                .base_frequency(190e9)
                .on_waveguide(WaveguideId(0))
                .on_lane(LaneId(2))
                .build()
                .unwrap(),
            ParallelGateBuilder::new(guide)
                .channels(8)
                .inputs(3)
                .on_waveguide(WaveguideId(1))
                .build()
                .unwrap(),
        ];
        // Every lane pair on waveguide 0 stays disjoint — the property
        // stream is a physically valid FDM assignment.
        for i in 0..3 {
            for j in i + 1..3 {
                prop_assert!(!gates[i]
                    .frequency_lane()
                    .overlaps(gates[j].frequency_lane()));
            }
        }
        let mut builder = SchedulerBuilder::new(ServeConfig {
            linger: Duration::from_micros(200),
            ..quick_config(workers)
        });
        let ids: Vec<_> = gates
            .iter()
            .enumerate()
            .map(|(k, gate)| {
                // Mixed backends: cached and analytic lanes may share a
                // stacked pass.
                let choice = if k % 2 == 0 {
                    BackendChoice::Cached
                } else {
                    BackendChoice::Analytic
                };
                builder
                    .register(format!("lane_gate{k}"), gate.clone(), choice)
                    .unwrap()
            })
            .collect();
        let scheduler = builder.build().unwrap();

        let requests: Vec<(usize, OperandSet)> = seeds
            .iter()
            .map(|&s| request_from_seed(&gates, s))
            .collect();
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|(which, set)| scheduler.submit(ids[*which], set.clone()).unwrap())
            .collect();
        // Redeem out of submission order: FDM stacking must not break
        // tag routing.
        for (ticket, (which, set)) in tickets.into_iter().rev().zip(requests.iter().rev()) {
            let served = ticket.wait().unwrap();
            let reference = gates[*which].evaluate(set.words()).unwrap();
            prop_assert_eq!(served.word(), reference.word());
        }

        let stats = scheduler.stats();
        prop_assert_eq!(stats.completed, seeds.len() as u64);
        prop_assert_eq!(stats.completed, stats.submitted);
        // FDM bookkeeping stays consistent whatever actually stacked:
        // every stacked pass carries ≥ 2 lanes and its requests are a
        // subset of the total.
        prop_assert!(stats.fdm_requests <= stats.completed);
        prop_assert!(stats.fdm_lanes >= 2 * stats.fdm_batches);
        let telemetry = scheduler.telemetry();
        let served: u64 = telemetry.lanes.iter().map(|l| l.served).sum();
        prop_assert_eq!(served, seeds.len() as u64, "per-lane served counters must cover the stream");
        scheduler.shutdown().unwrap();
    }

    /// `evaluate_many` preserves request order regardless of how shards
    /// batched the work.
    #[test]
    fn evaluate_many_is_order_preserving(
        seeds in proptest::collection::vec(0u64..u64::MAX, 2..32),
    ) {
        let gates = stream_gates();
        let mut builder = SchedulerBuilder::new(quick_config(2));
        let ids = [
            builder.register("maj3", gates[0].clone(), BackendChoice::Cached).unwrap(),
            builder.register("xor2", gates[1].clone(), BackendChoice::Cached).unwrap(),
            builder.register("maj5", gates[2].clone(), BackendChoice::Cached).unwrap(),
        ];
        let scheduler = builder.build().unwrap();
        let requests: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let (which, set) = request_from_seed(&gates, s);
                (ids[which], set)
            })
            .collect();
        let outputs = scheduler.evaluate_many(&requests).unwrap();
        prop_assert_eq!(outputs.len(), seeds.len());
        for (output, &seed) in outputs.iter().zip(&seeds) {
            let (which, set) = request_from_seed(&gates, seed);
            prop_assert_eq!(
                output.word(),
                gates[which].evaluate(set.words()).unwrap().word()
            );
        }
        scheduler.shutdown().unwrap();
    }

    /// A compiled adder served through the scheduler agrees with its
    /// boolean reference, whatever the operands.
    #[test]
    fn scheduled_adder_matches_reference(
        a in proptest::collection::vec(0u64..256, 8),
        b in proptest::collection::vec(0u64..256, 8),
    ) {
        use spinwave_parallel::circuits::adder::{
            transpose_from_words, transpose_to_words, RippleCarryAdder,
        };
        use spinwave_parallel::compiler::{compile, CompilerConfig};
        let guide = Waveguide::paper_default().unwrap();
        let adder = RippleCarryAdder::new(8, 8).unwrap();
        let plan = compile(adder.circuit(), &guide, &CompilerConfig::default()).unwrap();
        let mut builder = SchedulerBuilder::new(quick_config(2));
        let gates = register_compiled(
            &mut builder,
            &plan,
            guide,
            WaveguideId(0),
            BackendChoice::Cached,
        )
        .unwrap();
        let scheduler = builder.build().unwrap();
        let inputs: Vec<Word> = transpose_to_words(&a, 8, 8)
            .unwrap()
            .into_iter()
            .chain(transpose_to_words(&b, 8, 8).unwrap())
            .collect();
        let mut executor = CircuitExecutor::new(&scheduler, &plan, &gates).unwrap();
        let served = transpose_from_words(&executor.run_batch(&[inputs]).unwrap()[0], 8);
        prop_assert_eq!(served, adder.add_many(&a, &b).unwrap());
        scheduler.shutdown().unwrap();
    }
}
