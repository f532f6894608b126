//! Frequency-division multiplexed serving: a compiled adder's gates
//! share ONE physical waveguide on several frequency lanes.
//!
//! The companion paper (*Multi-frequency Data Parallel Spin Wave Logic
//! Gates*, arXiv:2008.12220) shows spin waves at different frequencies
//! coexist on one waveguide, so gates patterned on disjoint bands
//! compute simultaneously on the same medium. Here the compiler may
//! claim a single waveguide, so it places the 8-bit ripple-carry
//! adder's MAJ/XOR nodes on disjoint lanes of it (lane 0 at 10–80 GHz,
//! lane 1 at 100–170 GHz, …). The plan runs pipelined through the
//! scheduler, and drains that hold requests for several lanes serve
//! them as one multi-lane pass — serving density grows with zero extra
//! hardware:
//!
//! ```text
//! cargo run --release --example serve_fdm
//! ```

use spinwave_parallel::circuits::adder::{
    transpose_from_words, transpose_to_words, RippleCarryAdder,
};
use spinwave_parallel::compiler::{compile, CompilerConfig};
use spinwave_parallel::core::backend::{BackendChoice, OperandSet};
use spinwave_parallel::core::crosstalk::LaneIsolationReport;
use spinwave_parallel::core::layout_report::render_lane_spectrum;
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::core::robustness::{monte_carlo_error_rate, NoiseModel};
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{register_compiled, CircuitExecutor, SchedulerBuilder, ServeConfig};
use std::time::{Duration, Instant};

const WIDTH: usize = 8;
const BATCHES: u64 = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let guide = Waveguide::paper_default()?;
    let adder = RippleCarryAdder::new(WIDTH, WIDTH)?;
    let plan = compile(
        adder.circuit(),
        &guide,
        &CompilerConfig {
            max_waveguides: 1,
            ..Default::default()
        },
    )?;
    let report = plan.report();
    println!(
        "adder: {} gates placed on {} lanes of {} waveguide",
        report.gate_counts.maj3 + report.gate_counts.xor2,
        report.slot_count,
        report.waveguides_used,
    );
    assert_eq!(report.waveguides_used, 1);
    assert!(report.slot_count >= 2, "the adder must span several lanes");

    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 1, // one waveguide — all lanes live on one shard
        max_batch: 256,
        linger: Duration::from_micros(150),
        queue_depth: 1024,
        lut_dir: None,
    });
    let gates = register_compiled(
        &mut builder,
        &plan,
        guide,
        WaveguideId(0),
        BackendChoice::Cached,
    )?;
    let scheduler = builder.build()?;

    // The FDM assignment: one slot per lane, disjoint bands, one
    // waveguide.
    let plans: Vec<(LaneId, ChannelPlan)> = plan
        .slots()
        .iter()
        .zip(gates.slots())
        .map(|(spec, &(maj, _))| {
            (
                spec.lane,
                scheduler.gate(maj).unwrap().channel_plan().clone(),
            )
        })
        .collect();
    let lanes: Vec<(LaneId, &ChannelPlan)> = plans.iter().map(|(l, p)| (*l, p)).collect();
    println!("lane spectrum of waveguide 0:");
    print!("{}", render_lane_spectrum(&lanes, 64));
    let isolation =
        LaneIsolationReport::analyze(&plans.iter().map(|(_, p)| p).collect::<Vec<_>>(), 0.5e9)?;
    println!(
        "inter-lane isolation: {:.1} dB (guard band {:.0} GHz, {} overlapping pairs)",
        isolation.isolation_db,
        isolation.min_guard_band / 1e9,
        isolation.overlapping_pairs,
    );
    // Fold the crosstalk penalty into a robustness run: the stacked
    // lanes must not cost the majority vote its noise margin.
    let (lane0_maj, _) = gates.slots()[0];
    let noise = NoiseModel::new(0.1, 0.02)?.with_lane_leakage(isolation.amplitude_leakage())?;
    let robustness = monte_carlo_error_rate(scheduler.gate(lane0_maj).unwrap(), noise, 25, 11)?;
    println!(
        "crosstalk-penalized robustness: {} failures in {} checks",
        robustness.failures, robustness.checks,
    );
    assert_eq!(robustness.failures, 0, "the FDM penalty must stay absorbed");

    // The adder's lanes, driven pipelined: every node request goes out
    // the moment its operands complete, so nodes on different lanes
    // queue together.
    let operands: Vec<(Vec<u64>, Vec<u64>)> = (0..BATCHES)
        .map(|k| {
            let a = (0..WIDTH as u64).map(|i| (37 * i + 11 * k) % 256).collect();
            let b = (0..WIDTH as u64)
                .map(|i| (91 * i + 170 + k) % 256)
                .collect();
            (a, b)
        })
        .collect();
    let sets = operands
        .iter()
        .map(|(a, b)| {
            Ok(transpose_to_words(a, WIDTH, WIDTH)?
                .into_iter()
                .chain(transpose_to_words(b, WIDTH, WIDTH)?)
                .collect())
        })
        .collect::<Result<Vec<Vec<Word>>, GateError>>()?;
    let mut executor = CircuitExecutor::new(&scheduler, &plan, &gates)?;
    let start = Instant::now();
    let outputs = executor.run_batch(&sets)?;
    let elapsed = start.elapsed();

    // The circuit computed correctly through the shared medium.
    for ((a, b), out) in operands.iter().zip(&outputs) {
        assert_eq!(
            transpose_from_words(out, WIDTH),
            adder.add_many(a, b)?,
            "a={a:?} b={b:?}"
        );
    }
    println!(
        "\n{BATCHES} adder batches on one waveguide in {elapsed:?}, peak {} requests in flight",
        executor.peak_in_flight(),
    );

    // A deterministic co-queued burst: submit everything before waiting,
    // so two lanes are pending together whatever the pipelined timing
    // above did — this is what the stacked-pass assertion below pins.
    let (lane1_maj, _) = gates.slots()[1];
    let burst: Vec<_> = (0..32u64)
        .map(|i| {
            let gate = if i % 2 == 0 { lane0_maj } else { lane1_maj };
            let words = (0..3)
                .map(|j| Word::from_u8((i.wrapping_mul(0x9E37_79B9) >> (8 * j)) as u8))
                .collect();
            (gate, OperandSet::new(words))
        })
        .collect();
    let burst_out = scheduler.evaluate_many(&burst)?;
    for ((gate, set), output) in burst.iter().zip(&burst_out) {
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
        "co-queued multi-lane traffic must stack into multi-lane passes: {stats:?}"
    );
    let lane_served: u64 = telemetry.lanes.iter().map(|l| l.served).sum();
    assert_eq!(lane_served, stats.completed);
    scheduler.shutdown()?;
    println!("OK: one compiled circuit served by one waveguide over FDM lanes");
    Ok(())
}
