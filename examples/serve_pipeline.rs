//! End-to-end serving pipeline: persisted LUTs, two shards, and a mixed
//! adder/ALU/parity request stream through one scheduler.
//!
//! Run twice to see the warm restart:
//!
//! ```text
//! cargo run --release --example serve_pipeline
//! cargo run --release --example serve_pipeline   # starts warm from disk
//! ```

use spinwave_parallel::circuits::adder::RippleCarryAdder;
use spinwave_parallel::circuits::alu::{Alu, AluOp};
use spinwave_parallel::circuits::parity::ParityTree;
use spinwave_parallel::core::backend::{BackendChoice, OperandSet};
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{ScheduledBank, SchedulerBuilder, ServeConfig};
use std::time::{Duration, Instant};

const WIDTH: usize = 8;
const ROUNDS: usize = 32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lut_dir = std::path::PathBuf::from("results/luts");
    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 2,
        max_batch: 256,
        linger: Duration::from_micros(100),
        queue_depth: 1024,
        lut_dir: Some(lut_dir.clone()),
    });
    // Two waveguides, each carrying a MAJ-3 + XOR-2 pair. With two
    // workers, each waveguide gets its own shard; the gates *within* a
    // waveguide share one and cross-gate coalesce.
    let (maj3, xor2) = builder.register_circuit_gates(
        Waveguide::paper_default()?,
        WaveguideId(0),
        WIDTH,
        BackendChoice::Cached,
    )?;
    let (maj3_b, xor2_b) = builder.register_circuit_gates(
        Waveguide::paper_default()?,
        WaveguideId(1),
        WIDTH,
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

    // The circuits of the mixed workload.
    let adder = RippleCarryAdder::new(WIDTH, WIDTH)?;
    let alu = Alu::new(WIDTH, WIDTH)?;
    let parity = ParityTree::new(4, WIDTH)?;

    let start = Instant::now();
    let mut evaluations = 0u64;
    for round in 0..ROUNDS as u64 {
        let a: Vec<u64> = (0..WIDTH as u64)
            .map(|i| (round * 37 + i * 11) % 256)
            .collect();
        let b: Vec<u64> = (0..WIDTH as u64)
            .map(|i| (round * 59 + i * 23) % 256)
            .collect();

        // Whole circuits ride the scheduler through a ScheduledBank…
        let mut bank = ScheduledBank::new(&scheduler, maj3, xor2)?;
        let sums = adder.add_many_on(&mut bank, &a, &b)?;
        let mut bank = ScheduledBank::new(&scheduler, maj3, xor2)?;
        let diffs = alu.execute_on(&mut bank, AluOp::Sub, &a, &b)?;
        let words: Vec<Word> = (0..4u64)
            .map(|j| Word::from_u8((round * 97 + j * 13) as u8))
            .collect();
        let mut bank = ScheduledBank::new(&scheduler, maj3, xor2)?;
        let par = parity.evaluate_on(&mut bank, &words)?;

        // …interleaved with raw single-gate traffic on the same shards.
        let raw = scheduler.submit(
            maj3,
            OperandSet::new(vec![
                Word::from_u8(round as u8),
                Word::from_u8((round * 3) as u8),
                Word::from_u8((round * 7) as u8),
            ]),
        )?;
        let raw_out = raw.wait()?;

        // Spot-check against the boolean reference.
        assert_eq!(sums, adder.add_many(&a, &b)?);
        assert_eq!(diffs, alu.execute(AluOp::Sub, &a, &b)?);
        assert_eq!(par, parity.evaluate(&words)?);
        evaluations += raw_out.word().width() as u64;
    }
    let elapsed = start.elapsed();
    let circuit_stats = scheduler.stats();
    println!(
        "circuit phase: served {} requests in {elapsed:?} ({:.0} req/s; ripple-carry \
         dependencies keep these drains small)",
        circuit_stats.completed,
        circuit_stats.completed as f64 / elapsed.as_secs_f64(),
    );
    let _ = evaluations;

    // Batchable load: a burst of independent requests across all four
    // gates — both gates of each waveguide, both waveguides (= both
    // shards) — submitted up front. This is where coalescing pays.
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
