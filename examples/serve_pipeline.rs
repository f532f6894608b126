//! End-to-end serving pipeline: persisted LUTs, two shards, and a mixed
//! stream of compiled adder and parity-tree runs plus raw gate requests
//! through one scheduler.
//!
//! Run twice to see the warm restart:
//!
//! ```text
//! cargo run --release --example serve_pipeline
//! cargo run --release --example serve_pipeline   # starts warm from disk
//! ```

use spinwave_parallel::circuits::adder::{
    transpose_from_words, transpose_to_words, RippleCarryAdder,
};
use spinwave_parallel::circuits::parity::ParityTree;
use spinwave_parallel::compiler::{compile, CompilerConfig};
use spinwave_parallel::core::backend::{BackendChoice, OperandSet};
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{register_compiled, CircuitExecutor, SchedulerBuilder, ServeConfig};
use std::time::{Duration, Instant};

const WIDTH: usize = 8;
const ROUNDS: usize = 32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let guide = Waveguide::paper_default()?;
    let config = CompilerConfig::default();
    // The circuits of the mixed workload, compiled onto FDM-placed
    // `(waveguide, lane)` slots.
    let adder = RippleCarryAdder::new(WIDTH, WIDTH)?;
    let parity = ParityTree::new(4, WIDTH)?;
    let adder_plan = compile(adder.circuit(), &guide, &config)?;
    let parity_plan = compile(parity.circuit(), &guide, &config)?;

    let lut_dir = std::path::PathBuf::from("results/luts");
    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 2,
        max_batch: 256,
        linger: Duration::from_micros(100),
        queue_depth: 1024,
        lut_dir: Some(lut_dir.clone()),
    });
    // Disjoint waveguide-id blocks: the adder's slots from waveguide 0,
    // the parity tree's directly above them. Each waveguide lands on
    // one of the two shards; the lanes *within* a waveguide share it
    // and stack into multi-lane passes.
    let adder_gates = register_compiled(
        &mut builder,
        &adder_plan,
        guide,
        WaveguideId(0),
        BackendChoice::Cached,
    )?;
    let parity_first = WaveguideId(adder_plan.report().waveguides_used as u64);
    let parity_gates = register_compiled(
        &mut builder,
        &parity_plan,
        guide,
        parity_first,
        BackendChoice::Cached,
    )?;
    let scheduler = builder.build()?;
    println!(
        "scheduler up: {} gates on {} shards, {} LUT entries loaded from {}",
        scheduler.gate_count(),
        scheduler.worker_count(),
        scheduler.lut_entries_loaded(),
        lut_dir.display(),
    );
    // Raw traffic targets the first slot of each plan.
    let (maj3, xor2) = adder_gates.slots()[0];
    let (maj3_b, xor2_b) = parity_gates.slots()[0];
    for id in [maj3, xor2, maj3_b, xor2_b] {
        println!(
            "  {} ({}) -> shard {}",
            scheduler.gate_name(id).unwrap_or("?"),
            scheduler
                .gate(id)
                .map(|g| g.waveguide_id())
                .unwrap_or_default(),
            scheduler.shard_of(id).unwrap_or(usize::MAX),
        );
    }
    if scheduler.lut_entries_loaded() > 0 {
        println!("warm restart: serving begins without recomputing any channel readout");
    } else {
        println!("cold start: LUTs fill on demand and persist at shutdown");
    }

    let mut adder_exec = CircuitExecutor::new(&scheduler, &adder_plan, &adder_gates)?;
    let mut parity_exec = CircuitExecutor::new(&scheduler, &parity_plan, &parity_gates)?;
    let start = Instant::now();
    for round in 0..ROUNDS as u64 {
        let a: Vec<u64> = (0..WIDTH as u64)
            .map(|i| (round * 37 + i * 11) % 256)
            .collect();
        let b: Vec<u64> = (0..WIDTH as u64)
            .map(|i| (round * 59 + i * 23) % 256)
            .collect();

        // Whole compiled circuits ride the scheduler pipelined…
        let adder_inputs: Vec<Word> = transpose_to_words(&a, WIDTH, WIDTH)?
            .into_iter()
            .chain(transpose_to_words(&b, WIDTH, WIDTH)?)
            .collect();
        let sums = transpose_from_words(&adder_exec.run(&adder_inputs)?, WIDTH);
        let words: Vec<Word> = (0..4u64)
            .map(|j| Word::from_u8((round * 97 + j * 13) as u8))
            .collect();
        let par = parity_exec.run(&words)?[0];

        // …interleaved with raw single-gate traffic on the same shards.
        let raw_set = OperandSet::new(vec![
            Word::from_u8(round as u8),
            Word::from_u8((round * 3) as u8),
            Word::from_u8((round * 7) as u8),
        ]);
        let raw_out = scheduler.submit(maj3, raw_set.clone())?.wait()?;

        // Spot-check against the boolean reference.
        assert_eq!(sums, adder.add_many(&a, &b)?);
        assert_eq!(par, parity.evaluate(&words)?);
        let reference = scheduler.gate(maj3).unwrap().evaluate(raw_set.words())?;
        assert_eq!(raw_out.word(), reference.word());
    }
    let elapsed = start.elapsed();
    let circuit_stats = scheduler.stats();
    println!(
        "circuit phase: served {} requests in {elapsed:?} ({:.0} req/s; ripple-carry \
         dependencies keep these drains small), peak in flight adder {} / parity {}",
        circuit_stats.completed,
        circuit_stats.completed as f64 / elapsed.as_secs_f64(),
        adder_exec.peak_in_flight(),
        parity_exec.peak_in_flight(),
    );

    // Batchable load: a burst of independent requests across all four
    // raw-traffic gates — both gates of each plan's first slot, on two
    // waveguides — submitted up front. This is where coalescing pays.
    let burst: Vec<_> = (0..512u64)
        .map(|i| {
            if i % 2 == 0 {
                (
                    if i % 4 == 0 { maj3 } else { maj3_b },
                    OperandSet::new(vec![
                        Word::from_u8((i * 37) as u8),
                        Word::from_u8((i * 59) as u8),
                        Word::from_u8((i * 83) as u8),
                    ]),
                )
            } else {
                (
                    if i % 4 == 1 { xor2 } else { xor2_b },
                    OperandSet::new(vec![
                        Word::from_u8((i * 41) as u8),
                        Word::from_u8((i * 67) as u8),
                    ]),
                )
            }
        })
        .collect();
    let start = Instant::now();
    let outputs = scheduler.evaluate_many(&burst)?;
    let elapsed = start.elapsed();
    let stats = scheduler.stats();
    println!(
        "burst phase: {} mixed maj3/xor2 requests in {elapsed:?} ({:.0} req/s)",
        outputs.len(),
        outputs.len() as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "coalescing since start: {} drain cycles, mean {:.1} requests/drain, max {}, \
         {} cross-gate passes",
        stats.drain_passes,
        stats.mean_drain(),
        stats.max_drain,
        stats.cross_gate_passes,
    );
    let telemetry = scheduler.telemetry();
    println!(
        "telemetry: per-shard drained {:?}, linger windows {:?}",
        telemetry
            .shards
            .iter()
            .map(|s| s.drained)
            .collect::<Vec<_>>(),
        telemetry
            .shards
            .iter()
            .map(|s| s.linger)
            .collect::<Vec<_>>(),
    );

    let report = scheduler.shutdown()?;
    println!(
        "shutdown: persisted {} LUT entries into {} file(s)",
        report.lut_entries_saved,
        report.lut_files.len(),
    );
    for path in &report.lut_files {
        println!("  {}", path.display());
    }
    Ok(())
}
