//! Batched serving through evaluation backends: compile the gate once,
//! stream thousands of operand sets through a session, and compare the
//! analytic and cached (truth-table LUT) backends against single-shot
//! calls.
//!
//! Run with: `cargo run --release --example batch_throughput`

use spinwave_parallel::core::prelude::*;
use spinwave_parallel::physics::waveguide::Waveguide;
use std::time::Instant;

const SETS: usize = 4096;

fn operand_sets(gate: &ParallelGate) -> Result<Vec<OperandSet>, GateError> {
    let n = gate.word_width();
    let m = gate.input_count();
    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    (0..SETS as u64)
        .map(|i| {
            let words = (0..m as u64)
                .map(|j| {
                    let bits = 0x9E37_79B9_7F4A_7C15u64
                        .wrapping_mul(i + 1)
                        .rotate_left(j as u32 * 17)
                        & mask;
                    Word::from_bits(bits, n)
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(OperandSet::new(words))
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gate = ParallelGateBuilder::new(Waveguide::paper_default()?)
        .channels(8)
        .inputs(3)
        .function(LogicFunction::Majority)
        .build()?;
    let sets = operand_sets(&gate)?;
    println!(
        "byte-wide 3-input majority gate, {} operand sets x {} channels\n",
        SETS,
        gate.word_width()
    );

    // Baseline: N public single-shot calls.
    let start = Instant::now();
    let mut single_words = Vec::with_capacity(SETS);
    for set in &sets {
        single_words.push(gate.evaluate(set.words())?.word());
    }
    let t_single = start.elapsed();
    println!("single-shot x{SETS:<6} {t_single:>12.2?}");

    // One batched call per backend; results must be identical.
    for choice in [BackendChoice::Analytic, BackendChoice::Cached] {
        let mut session = gate.session(choice)?;
        let start = Instant::now();
        let outputs = session.evaluate_batch(&sets)?;
        let elapsed = start.elapsed();
        let rate = SETS as f64 * gate.word_width() as f64 / elapsed.as_secs_f64();
        println!(
            "{:<9} batch x{SETS:<5} {elapsed:>12.2?}  ({rate:.3e} gate results/s)",
            session.backend_name()
        );
        for (got, want) in outputs.iter().zip(&single_words) {
            assert_eq!(got.word(), *want, "backends must agree with single-shot");
        }
    }

    println!("\nall backends agree with single-shot evaluation");
    Ok(())
}
