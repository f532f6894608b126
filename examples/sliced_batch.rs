//! Bit-sliced batch kernel smoke: full and ragged batches through the
//! word-parallel truth-table path, checked against the analytic engine
//! set-for-set.
//!
//! A `Cached` session builds the byte majority's whole truth table
//! (8 channels × 2^3 combinations) when it opens, then answers a
//! 256-set batch with pure table lane ops; a 199-set batch exercises
//! the ragged final block (199 % 64 = 7 lanes). Any word mismatch
//! panics:
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
    let words = session.evaluate_batch_logic(sets).expect("sliced batch");
    for (set, word) in sets.iter().zip(&words) {
        let reference = gate.evaluate(set.words()).expect("analytic").word();
        assert_eq!(*word, reference, "{label}: sliced output diverged");
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
    check("full", &mut session, &gate, &batch(256));
    // Ragged tail: the final block carries 7 live lanes of 64.
    check("ragged", &mut session, &gate, &batch(199));

    println!("sliced batch kernel smoke passed");
    Ok(())
}
