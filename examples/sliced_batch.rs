//! Truth-table kernel smoke: a batch and a lone set through the
//! channel-mask kernel, checked against the analytic engine set-for-set.
//!
//! A `Cached` session folds the byte majority's whole truth table
//! (8 channels × 2^3 combinations) into channel masks when it opens,
//! then answers every set with one sum of products over its own operand
//! words: a 256-set batch, then a single set. Any word mismatch panics:
//!
//! ```text
//! cargo run --release --example sliced_batch
//! ```

use spinwave_parallel::core::backend::{BackendChoice, GateTable, OperandSet};
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::physics::waveguide::Waveguide;

fn batch(len: usize) -> Vec<OperandSet> {
    (0..len as u64)
        .map(|s| {
            OperandSet::new(vec![
                Word::from_u8((s.wrapping_mul(37) ^ (s >> 3)) as u8),
                Word::from_u8((s.wrapping_mul(59) ^ (s >> 5)) as u8),
                Word::from_u8((s.wrapping_mul(83) ^ (s >> 2)) as u8),
            ])
        })
        .collect()
}

fn check(label: &str, session: &mut GateSession, gate: &ParallelGate, sets: &[OperandSet]) {
    let words = session.evaluate_batch_logic(sets).expect("kernel batch");
    for (set, word) in sets.iter().zip(&words) {
        let reference = gate.evaluate(set.words()).expect("analytic").word();
        assert_eq!(*word, reference, "{label}: kernel output diverged");
    }
    println!("{label:>8}: {} sets ok", sets.len());
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gate = ParallelGateBuilder::new(Waveguide::paper_default()?)
        .channels(8)
        .inputs(3)
        .function(LogicFunction::Majority)
        .build()?;
    println!(
        "truth table: {} channel readouts",
        GateTable::entries_for(&gate)
    );

    let mut session = gate.session(BackendChoice::Cached)?;
    check("batch", &mut session, &gate, &batch(256));
    check("lone", &mut session, &gate, &batch(1));

    println!("truth-table kernel smoke passed");
    Ok(())
}
