//! Property tests for the circuit compiler and its pipelined executor:
//! compiled plans run through the serving scheduler — pipelined or
//! level-by-level, over several shards — must equal
//! sequential [`Circuit::evaluate_batch`] on randomized DAGs, and
//! every placement must keep its lane bands disjoint.

use proptest::prelude::*;
use spinwave_parallel::circuits::netlist::{fdm_lane_guard_band, Circuit};
use spinwave_parallel::compiler::{compile, CompilerConfig};
use spinwave_parallel::core::backend::BackendChoice;
use spinwave_parallel::core::gate::WaveguideId;
use spinwave_parallel::core::word::Word;
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{register_compiled, CircuitExecutor, SchedulerBuilder, ServeConfig};
use std::time::Duration;

const WIDTH: usize = 8;

fn quick_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch: 64,
        linger: Duration::from_micros(50),
        queue_depth: 256,
    }
}

/// Splitmix-style step: decorrelates consecutive draws from one seed.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a randomized DAG: mixed MAJ-3 / XOR-2 / NOT / AND-2 / OR-2
/// nodes over earlier nodes (shared fan-out falls out naturally from
/// re-drawing operands), with several marked outputs.
fn random_circuit(mut seed: u64, inputs: usize, gates: usize, outputs: usize) -> Circuit {
    let mut c = Circuit::new(WIDTH).unwrap();
    let mut nodes = Vec::new();
    for _ in 0..inputs {
        nodes.push(c.input());
    }
    for _ in 0..gates {
        let pick = |s: &mut u64, nodes: &[_]| nodes[(next(s) % nodes.len() as u64) as usize];
        let a = pick(&mut seed, &nodes);
        let b = pick(&mut seed, &nodes);
        let id = match next(&mut seed) % 5 {
            0 => c.maj3(a, b, pick(&mut seed, &nodes)).unwrap(),
            1 => c.xor2(a, b).unwrap(),
            2 => c.not(a).unwrap(),
            3 => c.and2(a, b).unwrap(),
            _ => c.or2(a, b).unwrap(),
        };
        nodes.push(id);
    }
    // The newest node is always an output (so the DAG's deepest work is
    // live); further outputs land on random nodes, duplicates allowed.
    c.mark_output(*nodes.last().unwrap()).unwrap();
    for _ in 1..outputs {
        let id = nodes[(next(&mut seed) % nodes.len() as u64) as usize];
        c.mark_output(id).unwrap();
    }
    c
}

fn random_sets(mut seed: u64, inputs: usize, count: usize) -> Vec<Vec<Word>> {
    (0..count)
        .map(|_| {
            (0..inputs)
                .map(|_| Word::from_u8(next(&mut seed) as u8))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Compiled + pipelined execution ≡ sequential reference, on
    /// randomized DAGs with shared fan-out and multiple outputs, with
    /// live pipelining. Every plan's lane grid must honour
    /// the guard band the packed frequency grid promises.
    #[test]
    fn compiled_pipelined_execution_matches_sequential_reference(
        seed in 0u64..u64::MAX,
        inputs in 2usize..6,
        gates in 1usize..14,
        outputs in 1usize..4,
        workers in 1usize..4,
        set_seed in 0u64..u64::MAX,
    ) {
        let circuit = random_circuit(seed, inputs, gates, outputs);
        let guide = Waveguide::paper_default().unwrap();
        // Random chains can nest majorities arbitrarily deep; the
        // equivalence property is about execution, not cascade
        // feasibility, so the amplitude floor is disabled.
        let config = CompilerConfig {
            min_cascade_amplitude: 0.0,
            ..CompilerConfig::default()
        };
        let compiled = compile(&circuit, &guide, &config).unwrap();

        // The placement invariant: co-resident lanes keep at least the
        // guard band the grid derivation promises.
        let report = compiled.report();
        if report.lanes_per_waveguide > 1 && report.slot_count > 1 {
            prop_assert!(
                report.min_guard_band >= fdm_lane_guard_band(WIDTH) - 1.0,
                "lane grid under-spaced: {report:?}"
            );
        }

        let mut builder = SchedulerBuilder::new(quick_config(workers));
        let gate_ids = register_compiled(
            &mut builder,
            &compiled,
            guide,
            WaveguideId(0),
            BackendChoice::Cached,
        )
        .unwrap();
        let scheduler = builder.build().unwrap();
        let mut executor = CircuitExecutor::new(&scheduler, &compiled, &gate_ids).unwrap();

        let sets = random_sets(set_seed, circuit.input_count(), 8);
        let reference = circuit.evaluate_batch(&sets).unwrap();
        let pipelined = executor.run_batch(&sets).unwrap();
        prop_assert_eq!(&pipelined, &reference);

        let stats = scheduler.stats();
        prop_assert_eq!(stats.completed, stats.submitted);
        scheduler.shutdown().unwrap();
    }
}

/// One deterministic deep case: a ripple-style majority chain plus an
/// independent XOR tree, executed pipelined over two shards.
#[test]
fn deep_mixed_circuit_matches_reference_pipelined() {
    let mut c = Circuit::new(WIDTH).unwrap();
    let a = c.input();
    let b = c.input();
    let cin = c.input();
    // 4-stage carry chain.
    let mut carry = cin;
    for _ in 0..4 {
        carry = c.maj3(a, b, carry).unwrap();
    }
    // Independent parity tree on separate inputs.
    let x = c.input();
    let y = c.input();
    let z = c.input();
    let p0 = c.xor2(x, y).unwrap();
    let p1 = c.xor2(p0, z).unwrap();
    let np = c.not(p1).unwrap();
    c.mark_output(carry).unwrap();
    c.mark_output(p1).unwrap();
    c.mark_output(np).unwrap();

    let guide = Waveguide::paper_default().unwrap();
    let compiled = compile(&c, &guide, &CompilerConfig::default()).unwrap();
    let mut builder = SchedulerBuilder::new(quick_config(2));
    let gates = register_compiled(
        &mut builder,
        &compiled,
        guide,
        WaveguideId(0),
        BackendChoice::Cached,
    )
    .unwrap();
    let scheduler = builder.build().unwrap();
    let mut executor = CircuitExecutor::new(&scheduler, &compiled, &gates).unwrap();
    let sets = random_sets(7, c.input_count(), 32);
    let reference = c.evaluate_batch(&sets).unwrap();
    assert_eq!(executor.run_batch(&sets).unwrap(), reference);
    assert!(
        executor.peak_in_flight() >= 2,
        "independent subgraphs should overlap in flight"
    );
    scheduler.shutdown().unwrap();
}
