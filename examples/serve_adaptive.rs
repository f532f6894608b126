//! Adaptive serving under hot-waveguide skew: watch the placement
//! table and fusion counters react to load.
//!
//! Four majority gates of identical design sit on four waveguides that
//! all statically hash onto ONE shard of two — then 80 % of the
//! traffic hammers the first one. The adaptive runtime notices the
//! skew, migrates the co-tenant waveguides to the idle shard and fuses
//! the background requests across waveguides:
//!
//! ```text
//! cargo run --release --example serve_adaptive
//! ```

use spinwave_parallel::core::backend::{BackendChoice, OperandSet};
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{AdaptiveConfig, GateId, SchedulerBuilder, ServeConfig};
use std::time::{Duration, Instant};

/// All four ids statically hash to the same shard of 2 — the worst
/// case the rebalancer exists for.
const WAVEGUIDES: [u64; 4] = [1, 2, 3, 6];
const ROUNDS: usize = 4;
const BURST: usize = 256;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 2,
        max_batch: 128,
        linger: Duration::from_micros(100),
        queue_depth: 1024,
        lut_dir: None,
        adaptive: AdaptiveConfig {
            rebalance_interval: 32,
            rebalance_ratio: 1.5,
            fusion_threshold: 8,
            ..AdaptiveConfig::default()
        },
    });
    let guide = Waveguide::paper_default()?;
    let mut ids: Vec<GateId> = Vec::new();
    for &wg in &WAVEGUIDES {
        ids.push(
            builder.register(
                format!("maj3_wg{wg}"),
                ParallelGateBuilder::new(guide)
                    .channels(8)
                    .inputs(3)
                    .on_waveguide(WaveguideId(wg))
                    .build()?,
                BackendChoice::Cached,
            )?,
        );
    }
    let scheduler = builder.build()?;

    println!("initial placement (all four waveguides statically co-tenant):");
    for &id in &ids {
        println!(
            "  {} -> shard {}",
            scheduler.gate_name(id).unwrap_or("?"),
            scheduler.shard_of(id).unwrap_or(usize::MAX),
        );
    }

    // Skewed bursts: 80 % of requests on the hot waveguide.
    let start = Instant::now();
    for round in 0..ROUNDS {
        let burst: Vec<(GateId, OperandSet)> = (0..BURST)
            .map(|i| {
                let id = if i % 5 != 4 {
                    ids[0]
                } else {
                    ids[1 + (i / 5) % (ids.len() - 1)]
                };
                let seed = (round * BURST + i) as u64;
                (
                    id,
                    OperandSet::new(vec![
                        Word::from_u8((seed * 37) as u8),
                        Word::from_u8((seed * 59) as u8),
                        Word::from_u8((seed * 83) as u8),
                    ]),
                )
            })
            .collect();
        let outputs = scheduler.evaluate_many(&burst)?;

        // Spot-check a request against its sequential reference.
        let (check_id, check_set) = &burst[7];
        let reference = scheduler
            .gate(*check_id)
            .expect("registered")
            .evaluate(check_set.words())?;
        assert_eq!(outputs[7].word(), reference.word());

        let telemetry = scheduler.telemetry();
        println!(
            "round {round}: {} served, {} rebalance move(s) so far, per-shard drain cycles {:?}",
            outputs.len(),
            telemetry.rebalances,
            telemetry
                .shards
                .iter()
                .map(|s| s.drain_cycles)
                .collect::<Vec<_>>(),
        );
    }
    let elapsed = start.elapsed();

    let stats = scheduler.stats();
    let telemetry = scheduler.telemetry();
    println!(
        "served {} skewed requests in {elapsed:?} ({:.0} req/s)",
        stats.completed,
        stats.completed as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "coalescing: {} drains, mean {:.1} req/drain, max {}, {} requests fused across waveguides",
        stats.drain_passes,
        stats.mean_drain(),
        stats.max_drain,
        stats.fused_requests,
    );
    println!("final placement and per-lane load:");
    for lane in &telemetry.lanes {
        println!(
            "  {} {} -> shard {} ({} recent requests, {} served)",
            lane.id, lane.lane, lane.shard, lane.recent_requests, lane.served,
        );
    }
    println!(
        "per-shard drained: {:?} (static placement would leave one shard at 0)",
        telemetry
            .shards
            .iter()
            .map(|s| s.drained)
            .collect::<Vec<_>>(),
    );
    assert_eq!(stats.failed, 0);
    scheduler.shutdown()?;
    Ok(())
}
