//! Frequency-division multiplexed serving: an adder and an ALU share
//! ONE physical waveguide on two frequency lanes.
//!
//! The companion paper (*Multi-frequency Data Parallel Spin Wave Logic
//! Gates*, arXiv:2008.12220) shows spin waves at different frequencies
//! coexist on one waveguide, so gates patterned on disjoint bands
//! compute simultaneously on the same medium. Here lane 0 carries the
//! adder's MAJ/XOR pair (10–80 GHz) and lane 1 the ALU's (100–170
//! GHz); two client threads drive both circuits concurrently and the
//! scheduler stacks each whole-waveguide drain into a single
//! multi-lane pass — serving density doubles with zero extra hardware:
//!
//! ```text
//! cargo run --release --example serve_fdm
//! ```

use spinwave_parallel::circuits::adder::RippleCarryAdder;
use spinwave_parallel::circuits::alu::{Alu, AluOp};
use spinwave_parallel::core::backend::BackendChoice;
use spinwave_parallel::core::crosstalk::LaneIsolationReport;
use spinwave_parallel::core::layout_report::render_lane_spectrum;
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::core::robustness::{monte_carlo_error_rate, NoiseModel};
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{AdaptiveConfig, ScheduledBank, SchedulerBuilder, ServeConfig};
use std::time::{Duration, Instant};

const WIDTH: usize = 8;
const OPS: [AluOp; 5] = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let guide = Waveguide::paper_default()?;
    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 1, // one waveguide — all lanes live on one shard
        max_batch: 256,
        linger: Duration::from_micros(150),
        queue_depth: 1024,
        lut_dir: None,
        adaptive: AdaptiveConfig::off(), // FDM stacking is not a policy knob
    });
    let (adder_maj, adder_xor) = builder.register_circuit_gates_on_lane(
        guide,
        WaveguideId(0),
        LaneId(0),
        WIDTH,
        BackendChoice::Cached,
    )?;
    let (alu_maj, alu_xor) = builder.register_circuit_gates_on_lane(
        guide,
        WaveguideId(0),
        LaneId(1),
        WIDTH,
        BackendChoice::Cached,
    )?;
    let scheduler = builder.build()?;

    // The FDM assignment: two lanes, disjoint bands, one waveguide.
    let lane0 = scheduler.gate(adder_maj).unwrap().channel_plan().clone();
    let lane1 = scheduler.gate(alu_maj).unwrap().channel_plan().clone();
    println!("lane spectrum of waveguide 0:");
    print!(
        "{}",
        render_lane_spectrum(&[(LaneId(0), &lane0), (LaneId(1), &lane1)], 64)
    );
    let isolation = LaneIsolationReport::analyze(&[&lane0, &lane1], 0.5e9)?;
    println!(
        "inter-lane isolation: {:.1} dB (guard band {:.0} GHz, {} overlapping pairs)",
        isolation.isolation_db,
        isolation.min_guard_band / 1e9,
        isolation.overlapping_pairs,
    );
    // Fold the crosstalk penalty into a robustness run: the stacked
    // lanes must not cost the majority vote its noise margin.
    let noise = NoiseModel::new(0.1, 0.02)?.with_lane_leakage(isolation.amplitude_leakage())?;
    let robustness = monte_carlo_error_rate(scheduler.gate(adder_maj).unwrap(), noise, 25, 11)?;
    println!(
        "crosstalk-penalized robustness: {} failures in {} checks",
        robustness.failures, robustness.checks,
    );
    assert_eq!(robustness.failures, 0, "the FDM penalty must stay absorbed");

    // Two circuits, one waveguide, driven concurrently.
    let a: Vec<u64> = (0..WIDTH as u64).map(|i| (37 * i + 11) % 256).collect();
    let b: Vec<u64> = (0..WIDTH as u64).map(|i| (91 * i + 170) % 256).collect();
    let adder = RippleCarryAdder::new(WIDTH, WIDTH)?;
    let alu = Alu::new(WIDTH, WIDTH)?;
    let start = Instant::now();
    let (sums, alu_results) = std::thread::scope(|scope| {
        let adder_lane = scope.spawn(|| {
            let mut bank = ScheduledBank::new(&scheduler, adder_maj, adder_xor)?;
            let mut sums = Vec::new();
            for _ in 0..OPS.len() {
                sums = adder.add_many_on(&mut bank, &a, &b)?;
            }
            Ok::<_, Box<dyn std::error::Error + Send + Sync>>(sums)
        });
        let alu_lane = scope.spawn(|| {
            let mut bank = ScheduledBank::new(&scheduler, alu_maj, alu_xor)?;
            let mut results = Vec::new();
            for op in OPS {
                results.push(alu.execute_on(&mut bank, op, &a, &b)?);
            }
            Ok::<_, Box<dyn std::error::Error + Send + Sync>>(results)
        });
        (
            adder_lane.join().expect("adder thread"),
            alu_lane.join().expect("alu thread"),
        )
    });
    let sums = sums.expect("adder lane");
    let alu_results = alu_results.expect("alu lane");
    let elapsed = start.elapsed();

    // Both circuits computed correctly through the shared medium.
    assert_eq!(sums, adder.add_many(&a, &b)?);
    for (op, result) in OPS.iter().zip(&alu_results) {
        assert_eq!(result, &alu.execute(*op, &a, &b)?, "{op:?}");
    }
    println!(
        "\nadder + ALU on one waveguide in {elapsed:?}: sums[0]={}, alu add[0]={}",
        sums[0], alu_results[0][0],
    );

    // A deterministic co-queued burst: submit everything before waiting,
    // so both lanes are pending together whatever the thread timing
    // above did — this is what the stacked-pass assertion below pins.
    use spinwave_parallel::core::backend::OperandSet;
    let burst: Vec<_> = (0..32u64)
        .map(|i| {
            let gate = if i % 2 == 0 { adder_maj } else { alu_maj };
            let words = (0..3)
                .map(|j| Word::from_u8((i.wrapping_mul(0x9E37_79B9) >> (8 * j)) as u8))
                .collect();
            (gate, OperandSet::new(words))
        })
        .collect();
    let outputs = scheduler.evaluate_many(&burst)?;
    for ((gate, set), output) in burst.iter().zip(&outputs) {
        let reference = scheduler.gate(*gate).unwrap().evaluate(set.words())?;
        assert_eq!(output.word(), reference.word());
    }

    let stats = scheduler.stats();
    println!(
        "drains: {} passes, mean {:.1} req/drain; FDM: {} stacked passes x {:.1} lanes, {} of {} requests stacked",
        stats.drain_passes,
        stats.mean_drain(),
        stats.fdm_batches,
        if stats.fdm_batches == 0 {
            0.0
        } else {
            stats.fdm_lanes as f64 / stats.fdm_batches as f64
        },
        stats.fdm_requests,
        stats.completed,
    );
    let telemetry = scheduler.telemetry();
    println!("per-lane counters:");
    for lane in &telemetry.lanes {
        println!(
            "  {} {} -> shard {}: {} served",
            lane.id, lane.lane, lane.shard, lane.served,
        );
    }
    assert!(
        stats.fdm_batches > 0,
        "co-queued two-lane traffic must stack into multi-lane passes: {stats:?}"
    );
    let lane_served: u64 = telemetry.lanes.iter().map(|l| l.served).sum();
    assert_eq!(lane_served, stats.completed);
    scheduler.shutdown()?;
    println!("OK: two circuits served concurrently by one waveguide over FDM lanes");
    Ok(())
}
