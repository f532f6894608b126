//! Sharded serving runtime for data-parallel spin-wave gates.
//!
//! The source paper evaluates `n` operand sets per pass inside one
//! waveguide; its companion (*Multi-frequency Data Parallel Spin Wave
//! Logic Gates*, arXiv:2008.12220) extends the idea across gates
//! sharing a medium. This crate turns both into a serving runtime on
//! top of [`magnon_core::backend::GateSession`]:
//!
//! * [`Scheduler`] — accepts tagged evaluation requests on bounded
//!   per-shard queues, coalesces them under a batch-size/linger policy
//!   and answers through [`Ticket`]s;
//! * **static waveguide-aware sharding** — each gate lives on the one
//!   shard its [`magnon_core::gate::WaveguideId`] hashes to at build
//!   time, so gates sharing a waveguide batch *across gates* in a
//!   single drain cycle, and the frequency lanes of one waveguide stack
//!   into one multi-lane FDM pass;
//! * **one truth table per gate** — [`SchedulerBuilder::build`] builds
//!   each registered gate's `n · 2^m`
//!   [`magnon_core::backend::GateTable`] once and shares it with every
//!   worker; [`Scheduler::submit`] checks operand shapes, so a drain
//!   answers every request it holds;
//! * **lock-free [`telemetry`]** — per-shard queue and drain gauges and
//!   per-lane served counters, read as one snapshot;
//! * [`CircuitExecutor`] — the one way to serve a whole circuit: it
//!   runs a compiled plan ([`magnon_compiler::CompiledCircuit`],
//!   registered with [`register_compiled`]) through the scheduler with
//!   dependency-aware pipelined submission. Each gate node's request
//!   goes out the moment its operands complete, so independent
//!   subgraphs (and different operand sets) interleave across shards
//!   and frequency lanes instead of marching level by level.
//!
//! # Example
//!
//! ```
//! use magnon_circuits::adder::{transpose_from_words, transpose_to_words, RippleCarryAdder};
//! use magnon_compiler::{compile, CompilerConfig};
//! use magnon_core::backend::{BackendChoice, OperandSet};
//! use magnon_core::prelude::*;
//! use magnon_physics::waveguide::Waveguide;
//! use magnon_serve::{register_compiled, CircuitExecutor, SchedulerBuilder, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let guide = Waveguide::paper_default()?;
//! let adder = RippleCarryAdder::new(8, 8)?;
//! let plan = compile(adder.circuit(), &guide, &CompilerConfig::default())?;
//!
//! let mut builder = SchedulerBuilder::new(ServeConfig::default());
//! // A raw MAJ-3/XOR-2 pair on waveguide 0, the adder's plan above it.
//! let (maj3, _xor2) =
//!     builder.register_circuit_gates(guide, WaveguideId(0), 8, BackendChoice::Cached)?;
//! let gates = register_compiled(&mut builder, &plan, guide, WaveguideId(1), BackendChoice::Cached)?;
//! let scheduler = builder.build()?;
//!
//! // Raw gate traffic…
//! let ticket = scheduler.submit(maj3, OperandSet::new(vec![
//!     Word::from_u8(0x0F), Word::from_u8(0x33), Word::from_u8(0x55),
//! ]))?;
//! assert_eq!(ticket.wait()?.word().to_u8(), 0x17);
//!
//! // …and a whole compiled circuit on the same shards: eight 8-bit
//! // additions, one per frequency channel of every wire.
//! let a = [100, 200, 15, 0, 255, 1, 77, 128];
//! let b = [27, 55, 240, 0, 1, 255, 23, 127];
//! let inputs: Vec<Word> = transpose_to_words(&a, 8, 8)?
//!     .into_iter()
//!     .chain(transpose_to_words(&b, 8, 8)?)
//!     .collect();
//! let mut executor = CircuitExecutor::new(&scheduler, &plan, &gates)?;
//! let sums = transpose_from_words(&executor.run(&inputs)?, 8);
//! assert_eq!(sums, adder.add_many(&a, &b)?);
//! assert_eq!(sums[0], 127);
//! scheduler.shutdown()?;
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod pipeline;
pub mod request;
pub mod scheduler;
pub mod telemetry;

pub use error::ServeError;
pub use pipeline::{register_compiled, CircuitExecutor, CompiledGates, DispatchStats};
pub use request::{GateId, SchedulerStats, Ticket};
pub use scheduler::{Scheduler, SchedulerBuilder, ServeConfig, ShutdownReport};
pub use telemetry::{LaneTelemetry, ShardTelemetry, TelemetrySnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use magnon_core::backend::{BackendChoice, OperandSet};
    use magnon_core::gate::{ParallelGateBuilder, WaveguideId};
    use magnon_core::micromag_bridge::ValidationSettings;
    use magnon_core::truth::LogicFunction;
    use magnon_core::word::Word;
    use magnon_core::GateError;
    use magnon_physics::waveguide::Waveguide;
    use std::time::Duration;

    fn quick_config(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            max_batch: 64,
            linger: Duration::from_micros(100),
            queue_depth: 256,
        }
    }

    fn byte_majority() -> magnon_core::gate::ParallelGate {
        ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(3)
            .build()
            .unwrap()
    }

    fn sample_sets(count: usize, inputs: usize) -> Vec<OperandSet> {
        (0..count as u64)
            .map(|i| {
                let seed = 0x9E37_79B9u64.wrapping_mul(i + 1);
                OperandSet::new(
                    (0..inputs as u64)
                        .map(|j| Word::from_u8((seed >> (8 * j)) as u8))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn scheduler_answers_match_direct_evaluation() {
        let gate = byte_majority();
        let mut builder = SchedulerBuilder::new(quick_config(2));
        let id = builder
            .register("maj3", gate.clone(), BackendChoice::Cached)
            .unwrap();
        let scheduler = builder.build().unwrap();
        let sets = sample_sets(32, 3);
        let tickets: Vec<Ticket> = sets
            .iter()
            .map(|set| scheduler.submit(id, set.clone()).unwrap())
            .collect();
        // Redeem in reverse: completions are tag-routed, not positional.
        for (ticket, set) in tickets.into_iter().rev().zip(sets.iter().rev()) {
            assert_eq!(
                ticket.wait().unwrap().word(),
                gate.evaluate(set.words()).unwrap().word()
            );
        }
        let stats = scheduler.stats();
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.completed, 32);
        assert_eq!(stats.failed, 0);
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn gates_sharing_a_waveguide_share_a_shard() {
        let guide = Waveguide::paper_default().unwrap();
        let mut builder = SchedulerBuilder::new(quick_config(4));
        let shared_a = builder
            .register(
                "maj_wg1",
                ParallelGateBuilder::new(guide)
                    .channels(8)
                    .inputs(3)
                    .on_waveguide(WaveguideId(1))
                    .build()
                    .unwrap(),
                BackendChoice::Analytic,
            )
            .unwrap();
        let shared_b = builder
            .register(
                "xor_wg1",
                ParallelGateBuilder::new(guide)
                    .channels(8)
                    .inputs(2)
                    .function(LogicFunction::Xor)
                    .on_waveguide(WaveguideId(1))
                    .build()
                    .unwrap(),
                BackendChoice::Analytic,
            )
            .unwrap();
        let elsewhere = builder
            .register(
                "maj_wg2",
                ParallelGateBuilder::new(guide)
                    .channels(8)
                    .inputs(3)
                    .on_waveguide(WaveguideId(2))
                    .build()
                    .unwrap(),
                BackendChoice::Analytic,
            )
            .unwrap();
        let scheduler = builder.build().unwrap();
        assert_eq!(scheduler.shard_of(shared_a), scheduler.shard_of(shared_b));
        assert_ne!(scheduler.shard_of(shared_a), scheduler.shard_of(elsewhere));
        assert_eq!(scheduler.worker_count(), 4);
        assert_eq!(scheduler.gate_count(), 3);
        assert_eq!(scheduler.gate_name(shared_a), Some("maj_wg1"));

        // Mixed traffic across both co-located gates stays correct.
        let maj_sets = sample_sets(8, 3);
        let xor_sets = sample_sets(8, 2);
        let mut requests = Vec::new();
        for (m, x) in maj_sets.iter().zip(&xor_sets) {
            requests.push((shared_a, m.clone()));
            requests.push((shared_b, x.clone()));
        }
        let outputs = scheduler.evaluate_many(&requests).unwrap();
        let maj_gate = scheduler.gate(shared_a).unwrap().clone();
        let xor_gate = scheduler.gate(shared_b).unwrap().clone();
        for (k, output) in outputs.iter().enumerate() {
            let (gate, set) = if k % 2 == 0 {
                (&maj_gate, &maj_sets[k / 2])
            } else {
                (&xor_gate, &xor_sets[k / 2])
            };
            assert_eq!(output.word(), gate.evaluate(set.words()).unwrap().word());
        }
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn errors_land_on_the_offending_request_only() {
        let gate = byte_majority();
        let mut builder = SchedulerBuilder::new(quick_config(1));
        let id = builder
            .register("maj3", gate.clone(), BackendChoice::Analytic)
            .unwrap();
        let scheduler = builder.build().unwrap();
        let good = OperandSet::new(vec![Word::from_u8(1), Word::from_u8(2), Word::from_u8(3)]);
        let bad = OperandSet::new(vec![Word::from_u8(1)]);
        let t_good = scheduler.submit(id, good.clone()).unwrap();
        assert!(matches!(
            scheduler.submit(id, bad),
            Err(ServeError::Gate(_))
        ));
        let t_good2 = scheduler.submit(id, good.clone()).unwrap();
        assert!(t_good.wait().is_ok());
        assert!(t_good2.wait().is_ok());
        let stats = scheduler.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn malformed_sets_are_refused_at_submit() {
        // A set with the wrong operand count or word width fails at
        // submit and try_submit alike, before anything is queued.
        let gate = byte_majority();
        let mut builder = SchedulerBuilder::new(quick_config(1));
        let id = builder
            .register("maj3", gate, BackendChoice::Cached)
            .unwrap();
        let scheduler = builder.build().unwrap();
        let short = OperandSet::new(vec![Word::from_u8(1), Word::from_u8(2)]);
        let narrow = OperandSet::new(vec![Word::zeros(4).unwrap(); 3]);
        for submit in [Scheduler::submit, Scheduler::try_submit] {
            assert!(matches!(
                submit(&scheduler, id, short.clone()),
                Err(ServeError::Gate(GateError::InputCountMismatch {
                    expected: 3,
                    actual: 2
                }))
            ));
            assert!(matches!(
                submit(&scheduler, id, narrow.clone()),
                Err(ServeError::Gate(GateError::WordWidthMismatch {
                    expected: 8,
                    actual: 4
                }))
            ));
        }
        let stats = scheduler.stats();
        assert_eq!(stats.submitted, 0, "a refused set is never queued");
        assert_eq!(scheduler.telemetry().shards[0].queued, 0);
        // The scheduler keeps serving well-formed sets.
        let ok = sample_sets(1, 3).pop().unwrap();
        scheduler.submit(id, ok).unwrap().wait().unwrap();
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn unknown_gate_and_duplicate_names_rejected() {
        let gate = byte_majority();
        let mut builder = SchedulerBuilder::new(quick_config(1));
        builder
            .register("maj3", gate.clone(), BackendChoice::Analytic)
            .unwrap();
        assert!(matches!(
            builder.register("maj3", gate.clone(), BackendChoice::Analytic),
            Err(ServeError::Config { .. })
        ));
        // Names compare raw: one that differs only in a character a
        // file name could not carry is a different gate.
        builder
            .register("maj3/a", gate.clone(), BackendChoice::Analytic)
            .unwrap();
        builder
            .register("maj3_a", gate.clone(), BackendChoice::Analytic)
            .unwrap();
        let scheduler = builder.build().unwrap();
        let bogus = GateId(7);
        assert!(matches!(
            scheduler.submit(bogus, sample_sets(1, 3).pop().unwrap()),
            Err(ServeError::UnknownGate { index: 7 })
        ));
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn micromag_and_oversized_tables_are_refused_at_registration() {
        let mut builder = SchedulerBuilder::new(quick_config(1));
        let micromag = BackendChoice::Micromag(ValidationSettings::default());
        assert!(matches!(
            builder.register("maj3", byte_majority(), micromag),
            Err(ServeError::Config { .. })
        ));
        // 16 channels x 2^17 combos = 2^21 readouts, twice the cap.
        let huge = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(16)
            .inputs(17)
            .build()
            .unwrap();
        match builder.register("maj17", huge, BackendChoice::Cached) {
            Err(ServeError::Config { reason }) => {
                assert!(reason.contains("2097152-readout"), "{reason}");
            }
            other => panic!("an oversized table must be refused, got {other:?}"),
        }
        let scheduler = builder.build().unwrap();
        assert_eq!(
            scheduler.gate_count(),
            0,
            "refused gates are not registered"
        );
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn coalescing_shows_up_in_stats_under_batched_load() {
        let gate = byte_majority();
        let mut builder = SchedulerBuilder::new(ServeConfig {
            linger: Duration::from_millis(2),
            ..quick_config(1)
        });
        let id = builder
            .register("maj3", gate, BackendChoice::Cached)
            .unwrap();
        let scheduler = builder.build().unwrap();
        let requests: Vec<(GateId, OperandSet)> = sample_sets(48, 3)
            .into_iter()
            .map(|set| (id, set))
            .collect();
        scheduler.evaluate_many(&requests).unwrap();
        let stats = scheduler.stats();
        assert_eq!(stats.completed, 48);
        assert!(
            stats.drain_passes < 48,
            "48 requests should not need 48 drain cycles (got {})",
            stats.drain_passes
        );
        assert!(stats.coalesced_requests > 0);
        assert!(stats.max_drain > 1);
        assert!(stats.mean_drain() > 1.0);
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn try_submit_reports_a_full_queue() {
        let gate = byte_majority();
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers: 1,
            max_batch: 4,
            linger: Duration::from_millis(50),
            queue_depth: 1,
        });
        let id = builder
            .register("maj3", gate, BackendChoice::Analytic)
            .unwrap();
        let scheduler = builder.build().unwrap();
        // Flood a depth-1 queue; at least one try_submit must bounce.
        let mut bounced = false;
        let mut tickets = Vec::new();
        for set in sample_sets(64, 3) {
            match scheduler.try_submit(id, set) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull { shard: 0 }) => bounced = true,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(bounced, "a depth-1 queue under flood must report QueueFull");
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn queue_gauge_stays_bounded_under_blocking_backpressure() {
        // The gauge counts a submission from just before its `send`
        // (never after: counting post-send races the worker's drain
        // decrement and can dip the gauge negative — the model
        // checker's gauge invariant pinned that down). The bound under
        // backpressure is therefore "everything submitted and not yet
        // drained": queue_depth in the channel, plus max_batch
        // mid-collection, plus at most one parked submitter per
        // submitting thread (here: one). The gauge must also never
        // read negative and must return to zero once traffic drains.
        let gate = byte_majority();
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers: 1,
            max_batch: 1,
            linger: Duration::ZERO,
            queue_depth: 1,
        });
        let id = builder
            .register("maj3", gate, BackendChoice::Cached)
            .unwrap();
        let scheduler = builder.build().unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut max_seen = 0u64;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Flood through the blocking path: with queue_depth 1
                // and serial drains, most of these submissions park.
                let tickets: Vec<Ticket> = sample_sets(64, 3)
                    .into_iter()
                    .map(|set| scheduler.submit(id, set).unwrap())
                    .collect();
                for ticket in tickets {
                    ticket.wait().unwrap();
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                max_seen = max_seen.max(scheduler.telemetry().shards[0].queued);
                std::thread::yield_now();
            }
        });
        assert!(
            max_seen <= 3,
            "queued gauge must stay within depth 1 + one mid-collection job \
             + one parked submitter = 3, saw {max_seen}"
        );
        let stats = scheduler.stats();
        assert_eq!(stats.completed, 64);
        assert_eq!(scheduler.telemetry().shards[0].queued, 0);
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn zero_max_batch_is_rejected_at_build() {
        let gate = byte_majority();
        let mut builder = SchedulerBuilder::new(ServeConfig {
            max_batch: 0,
            ..quick_config(1)
        });
        builder
            .register("maj3", gate, BackendChoice::Analytic)
            .unwrap();
        match builder.build() {
            Err(ServeError::Config { reason }) => {
                assert!(reason.contains("max_batch"), "got: {reason}")
            }
            other => panic!("max_batch: 0 must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn static_placement_spreads_even_waveguide_ids_over_two_shards() {
        let guide = Waveguide::paper_default().unwrap();
        let mut builder = SchedulerBuilder::new(quick_config(2));
        let ids: Vec<GateId> = [0u64, 2, 4, 6]
            .iter()
            .map(|&wg| {
                builder
                    .register(
                        format!("maj_wg{wg}"),
                        ParallelGateBuilder::new(guide)
                            .channels(8)
                            .inputs(3)
                            .on_waveguide(WaveguideId(wg))
                            .build()
                            .unwrap(),
                        BackendChoice::Analytic,
                    )
                    .unwrap()
            })
            .collect();
        let scheduler = builder.build().unwrap();
        let shards: std::collections::BTreeSet<usize> = ids
            .iter()
            .map(|&id| scheduler.shard_of(id).unwrap())
            .collect();
        assert_eq!(
            shards.len(),
            2,
            "all-even waveguide ids must use both shards (raw modulo would pin shard 0)"
        );
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn placement_stays_static_under_skewed_traffic() {
        let guide = Waveguide::paper_default().unwrap();
        // Waveguides 0 and 4 hash to the same shard of 2.
        let mut builder = SchedulerBuilder::new(quick_config(2));
        let make = |wg: u64| {
            ParallelGateBuilder::new(guide)
                .channels(8)
                .inputs(3)
                .on_waveguide(WaveguideId(wg))
                .build()
                .unwrap()
        };
        let hot = builder
            .register("maj_hot", make(0), BackendChoice::Cached)
            .unwrap();
        let cold = builder
            .register("maj_cold", make(4), BackendChoice::Cached)
            .unwrap();
        let scheduler = builder.build().unwrap();
        let built = scheduler.telemetry().lanes;
        assert_eq!(
            scheduler.shard_of(hot),
            scheduler.shard_of(cold),
            "precondition: both waveguides are co-tenant"
        );
        // 7/8 of the traffic hammers the hot waveguide.
        let sets = sample_sets(64, 3);
        let requests: Vec<(GateId, OperandSet)> = sets
            .iter()
            .enumerate()
            .map(|(i, set)| (if i % 8 == 7 { cold } else { hot }, set.clone()))
            .collect();
        let outputs = scheduler.evaluate_many(&requests).unwrap();
        for ((id, set), output) in requests.iter().zip(&outputs) {
            let reference = scheduler.gate(*id).unwrap().evaluate(set.words()).unwrap();
            assert_eq!(output.word(), reference.word());
        }
        let telemetry = scheduler.telemetry();
        assert_eq!(
            scheduler.shard_of(hot),
            scheduler.shard_of(cold),
            "skewed traffic must not split the co-tenants: {telemetry:?}"
        );
        assert_eq!(telemetry.rebalances, 0, "{telemetry:?}");
        for (lane, at_build) in telemetry.lanes.iter().zip(&built) {
            assert_eq!(lane.shard, at_build.shard, "lane moved: {telemetry:?}");
        }
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn distinct_designs_on_separate_lanes_coalesce_into_one_multi_lane_drain() {
        use magnon_core::gate::LaneId;
        // The FDM acceptance shape: a majority gate on waveguide 0 lane
        // 0 (the paper's 10–80 GHz band) and an XOR on the SAME
        // waveguide, lane 1 (100 GHz band). Any coalescing across the
        // two gates can only come from multi-lane FDM stacking.
        let guide = Waveguide::paper_default().unwrap();
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers: 1,
            max_batch: 64,
            linger: Duration::from_millis(2),
            queue_depth: 256,
        });
        let maj = builder
            .register("maj_lane0", byte_majority(), BackendChoice::Cached)
            .unwrap();
        let xor = builder
            .register(
                "xor_lane1",
                ParallelGateBuilder::new(guide)
                    .channels(8)
                    .inputs(2)
                    .function(LogicFunction::Xor)
                    .base_frequency(100e9)
                    .on_waveguide(WaveguideId(0))
                    .on_lane(LaneId(1))
                    .build()
                    .unwrap(),
                BackendChoice::Cached,
            )
            .unwrap();
        let scheduler = builder.build().unwrap();
        // Both lanes of waveguide 0 start co-resident on the one shard.
        assert_eq!(scheduler.shard_of(maj), scheduler.shard_of(xor));
        let maj_sets = sample_sets(16, 3);
        let xor_sets = sample_sets(16, 2);
        let mut requests = Vec::new();
        for (m, x) in maj_sets.iter().zip(&xor_sets) {
            requests.push((maj, m.clone()));
            requests.push((xor, x.clone()));
        }
        let outputs = scheduler.evaluate_many(&requests).unwrap();
        for ((id, set), output) in requests.iter().zip(&outputs) {
            let reference = scheduler.gate(*id).unwrap().evaluate(set.words()).unwrap();
            assert_eq!(output.word(), reference.word());
        }
        let stats = scheduler.stats();
        assert_eq!(stats.completed, 32);
        assert_eq!(stats.failed, 0);
        assert!(
            stats.fdm_batches >= 1 && stats.fdm_lanes >= 2 && stats.fdm_requests > 0,
            "two lanes of one waveguide must stack into a multi-lane drain: {stats:?}"
        );
        let telemetry = scheduler.telemetry();
        let lane0 = telemetry
            .lanes
            .iter()
            .find(|l| l.lane == LaneId(0))
            .expect("lane 0 slot");
        let lane1 = telemetry
            .lanes
            .iter()
            .find(|l| l.lane == LaneId(1))
            .expect("lane 1 slot");
        assert_eq!(lane0.id, lane1.id, "one waveguide, two lanes");
        assert_eq!(lane0.served, 16, "per-lane served counters: {telemetry:?}");
        assert_eq!(lane1.served, 16, "per-lane served counters: {telemetry:?}");
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn overlapping_bands_on_distinct_lanes_are_rejected_at_build() {
        use magnon_core::gate::LaneId;
        // Two gates claim distinct lanes of waveguide 0 but both sit on
        // the default 10–80 GHz band: a stacked "single excitation"
        // over colliding spectra is physically impossible, so the
        // builder must refuse instead of serving it silently.
        let mut builder = SchedulerBuilder::new(quick_config(1));
        builder
            .register("lane0", byte_majority(), BackendChoice::Cached)
            .unwrap();
        builder
            .register(
                "lane1_same_band",
                ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
                    .channels(8)
                    .inputs(3)
                    .on_lane(LaneId(1))
                    .build()
                    .unwrap(),
                BackendChoice::Cached,
            )
            .unwrap();
        match builder.build() {
            Err(ServeError::Config { reason }) => {
                assert!(reason.contains("overlap"), "got: {reason}")
            }
            other => panic!("colliding lane bands must be rejected, got {other:?}"),
        }
        // Same band on the SAME lane stays legal (pre-FDM cross-gate
        // serving), as does the same design on another waveguide.
        let mut builder = SchedulerBuilder::new(quick_config(1));
        builder
            .register("a", byte_majority(), BackendChoice::Cached)
            .unwrap();
        builder
            .register(
                "b",
                ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
                    .channels(8)
                    .inputs(2)
                    .function(LogicFunction::Xor)
                    .build()
                    .unwrap(),
                BackendChoice::Cached,
            )
            .unwrap();
        builder
            .register(
                "c",
                ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
                    .channels(8)
                    .inputs(3)
                    .on_waveguide(WaveguideId(1))
                    .on_lane(LaneId(1))
                    .build()
                    .unwrap(),
                BackendChoice::Cached,
            )
            .unwrap();
        builder.build().unwrap().shutdown().unwrap();
    }

    #[test]
    fn single_lane_traffic_never_reports_fdm_passes() {
        // Pre-FDM shape: two designs sharing waveguide 0 on the SAME
        // lane must keep the old per-gate batches (no stacked pass).
        let guide = Waveguide::paper_default().unwrap();
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers: 1,
            linger: Duration::from_millis(2),
            ..quick_config(1)
        });
        let maj = builder
            .register("maj", byte_majority(), BackendChoice::Cached)
            .unwrap();
        let xor = builder
            .register(
                "xor",
                ParallelGateBuilder::new(guide)
                    .channels(8)
                    .inputs(2)
                    .function(LogicFunction::Xor)
                    .build()
                    .unwrap(),
                BackendChoice::Cached,
            )
            .unwrap();
        let scheduler = builder.build().unwrap();
        let mut requests = Vec::new();
        for (m, x) in sample_sets(8, 3).iter().zip(&sample_sets(8, 2)) {
            requests.push((maj, m.clone()));
            requests.push((xor, x.clone()));
        }
        scheduler.evaluate_many(&requests).unwrap();
        let stats = scheduler.stats();
        assert_eq!(stats.completed, 16);
        assert_eq!(
            stats.fdm_batches, 0,
            "same-lane gates must not stack: {stats:?}"
        );
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn same_design_gates_on_different_waveguides_serve_as_separate_batches() {
        // Two identical designs on waveguides 0 and 1, one worker, a
        // long linger: drains mix both gates, and each gate's requests
        // ride their own batch — never one shared session's batch.
        let guide = Waveguide::paper_default().unwrap();
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers: 1,
            max_batch: 64,
            linger: Duration::from_millis(2),
            queue_depth: 256,
        });
        let make = |wg: u64| {
            ParallelGateBuilder::new(guide)
                .channels(8)
                .inputs(3)
                .on_waveguide(WaveguideId(wg))
                .build()
                .unwrap()
        };
        let a = builder
            .register("maj_wg0", make(0), BackendChoice::Cached)
            .unwrap();
        let b = builder
            .register("maj_wg1", make(1), BackendChoice::Cached)
            .unwrap();
        let scheduler = builder.build().unwrap();
        let sets = sample_sets(32, 3);
        let requests: Vec<(GateId, OperandSet)> = sets
            .iter()
            .enumerate()
            .map(|(i, set)| (if i % 2 == 0 { a } else { b }, set.clone()))
            .collect();
        let outputs = scheduler.evaluate_many(&requests).unwrap();
        for ((id, set), output) in requests.iter().zip(&outputs) {
            let reference = scheduler.gate(*id).unwrap().evaluate(set.words()).unwrap();
            assert_eq!(output.word(), reference.word());
        }
        let stats = scheduler.stats();
        assert_eq!(stats.completed, 32);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.fused_requests, 0, "{stats:?}");
        assert!(
            stats.cross_gate_passes >= 1 && stats.batches >= 2,
            "a drain must serve both gates as separate batches: {stats:?}"
        );
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn incompatible_gates_never_fuse() {
        let guide = Waveguide::paper_default().unwrap();
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers: 1,
            max_batch: 64,
            linger: Duration::from_millis(2),
            queue_depth: 256,
        });
        let maj = builder
            .register("maj3", byte_majority(), BackendChoice::Cached)
            .unwrap();
        let xor = builder
            .register(
                "xor2",
                ParallelGateBuilder::new(guide)
                    .channels(8)
                    .inputs(2)
                    .function(LogicFunction::Xor)
                    .build()
                    .unwrap(),
                BackendChoice::Cached,
            )
            .unwrap();
        let scheduler = builder.build().unwrap();
        let maj_sets = sample_sets(16, 3);
        let xor_sets = sample_sets(16, 2);
        let mut requests = Vec::new();
        for (m, x) in maj_sets.iter().zip(&xor_sets) {
            requests.push((maj, m.clone()));
            requests.push((xor, x.clone()));
        }
        let outputs = scheduler.evaluate_many(&requests).unwrap();
        for ((id, set), output) in requests.iter().zip(&outputs) {
            let reference = scheduler.gate(*id).unwrap().evaluate(set.words()).unwrap();
            assert_eq!(output.word(), reference.word());
        }
        let stats = scheduler.stats();
        assert_eq!(
            stats.fused_requests, 0,
            "MAJ and XOR must not fuse: {stats:?}"
        );
        assert_eq!(stats.completed, 32);
        assert_eq!(stats.failed, 0);
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn default_linger_is_zero_and_a_backlog_still_fills_max_batch() {
        assert_eq!(ServeConfig::default().linger, Duration::ZERO);
        let mut builder = SchedulerBuilder::new(ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        });
        let id = builder
            .register("maj3", byte_majority(), BackendChoice::Cached)
            .unwrap();
        let scheduler = builder.build().unwrap();
        for shard in &scheduler.telemetry().shards {
            assert_eq!(shard.linger, Duration::ZERO);
        }
        // No window collects a batch: the requests that queue up while
        // the worker serves the first drain form the next one. Burst
        // until one fills `max_batch`.
        let requests: Vec<(GateId, OperandSet)> = sample_sets(64, 3)
            .into_iter()
            .map(|set| (id, set))
            .collect();
        let filled = || {
            scheduler
                .telemetry()
                .shards
                .iter()
                .any(|s| s.full_drains > 0)
        };
        for _ in 0..100 {
            if filled() {
                break;
            }
            scheduler.evaluate_many(&requests).unwrap();
        }
        assert!(filled(), "no burst ever filled max_batch");
        scheduler.shutdown().unwrap();
    }

    #[test]
    fn a_dropped_ticket_does_not_cost_its_drain_mates_their_answers() {
        let gate = byte_majority();
        // A long linger and a cap equal to the burst: all eight
        // requests ride one drain.
        let mut builder = SchedulerBuilder::new(ServeConfig {
            workers: 1,
            max_batch: 8,
            linger: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        let id = builder
            .register("maj3", gate.clone(), BackendChoice::Cached)
            .unwrap();
        let scheduler = builder.build().unwrap();
        let sets = sample_sets(8, 3);
        let mut tickets: Vec<Ticket> = sets
            .iter()
            .map(|set| scheduler.submit(id, set.clone()).unwrap())
            .collect();
        drop(tickets.remove(3));
        let kept = sets.iter().enumerate().filter(|&(i, _)| i != 3);
        for (ticket, (_, set)) in tickets.into_iter().zip(kept) {
            assert_eq!(
                ticket.wait().unwrap().word(),
                gate.evaluate(set.words()).unwrap().word()
            );
        }
        let report = scheduler.shutdown().unwrap();
        assert_eq!(report.stats.drain_passes, 1, "{:?}", report.stats);
        assert_eq!(report.stats.completed, 8, "{:?}", report.stats);
        assert_eq!(report.stats.failed, 0);
    }
}
