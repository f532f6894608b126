//! SERVE-CIRCUIT bench: compiled-plan execution through the scheduler
//! with dependency-aware pipelined submission.
//!
//! The workload is one netlist with two **independent subgraphs** of
//! opposite shape — a 8-bit ripple-carry adder (deep, narrow: the
//! carry serializes its majorities) and a wide XOR parity tree over
//! eight extra inputs (shallow, wide) — compiled once and served over
//! 2 worker shards. `pipelined_x{N}` times [`CircuitExecutor::run_batch`]:
//! each node's request goes out the moment its operands complete, so
//! the two subgraphs (and all N operand sets) interleave across shards
//! and drain cycles with no global synchronization.
//!
//! The serving policy is fixed (`max_batch: 48`, `linger: 300µs`, the
//! adaptive knobs off), so the row measures submission and drain
//! overlap rather than a policy walk.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use magnon_circuits::adder::full_adder;
use magnon_circuits::netlist::Circuit;
use magnon_compiler::{compile, CompilerConfig};
use magnon_core::backend::BackendChoice;
use magnon_core::gate::WaveguideId;
use magnon_core::word::Word;
use magnon_physics::waveguide::Waveguide;
use magnon_serve::{
    register_compiled, AdaptiveConfig, CircuitExecutor, SchedulerBuilder, ServeConfig,
};
use std::hint::black_box;
use std::time::Duration;

const WIDTH: usize = 8;
const ADDER_BITS: usize = 8;
const PARITY_INPUTS: usize = 8;
const SETS: usize = 32;

/// Adder + parity tree in one netlist, sharing no wires.
fn two_subgraph_circuit() -> Circuit {
    let mut c = Circuit::new(WIDTH).expect("circuit");
    let a: Vec<_> = (0..ADDER_BITS).map(|_| c.input()).collect();
    let b: Vec<_> = (0..ADDER_BITS).map(|_| c.input()).collect();
    let mut carry = c
        .constant(Word::zeros(WIDTH).expect("zeros"))
        .expect("constant");
    for i in 0..ADDER_BITS {
        let (sum, carry_out) = full_adder(&mut c, a[i], b[i], carry).expect("full adder");
        c.mark_output(sum).expect("output");
        carry = carry_out;
    }
    c.mark_output(carry).expect("output");
    // The independent subgraph: a balanced XOR reduction.
    let mut layer: Vec<_> = (0..PARITY_INPUTS).map(|_| c.input()).collect();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    c.xor2(pair[0], pair[1]).expect("xor")
                } else {
                    pair[0]
                }
            })
            .collect();
    }
    c.mark_output(layer[0]).expect("output");
    c
}

fn random_sets(inputs: usize, count: usize) -> Vec<Vec<Word>> {
    (0..count as u64)
        .map(|i| {
            (0..inputs as u64)
                .map(|j| {
                    Word::from_u8(
                        (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .rotate_left(j as u32 * 13)
                            >> 19) as u8,
                    )
                })
                .collect()
        })
        .collect()
}

fn bench_serve_circuit(c: &mut Criterion) {
    let guide = Waveguide::paper_default().expect("waveguide");
    let circuit = two_subgraph_circuit();
    let compiled = compile(&circuit, &guide, &CompilerConfig::default()).expect("compile");
    let report = compiled.report();
    let gate_count = report.gate_counts.maj3 + report.gate_counts.xor2;
    println!(
        "plan: {gate_count} gates, {} levels (widest {}), {} slots on {} waveguides x {} lanes \
         ({:.1} dB isolation)",
        report.depth,
        report.max_level_width,
        report.slot_count,
        report.waveguides_used,
        report.lanes_per_waveguide,
        report.isolation_db,
    );
    assert!(
        report.waveguides_used < gate_count,
        "placement must pack denser than one waveguide per gate: {report:?}"
    );

    let mut builder = SchedulerBuilder::new(ServeConfig {
        keep_readouts: false,
        workers: 2,
        max_batch: 48,
        linger: Duration::from_micros(300),
        queue_depth: 1024,
        lut_dir: None,
        adaptive: AdaptiveConfig::off(),
    });
    let gates = register_compiled(
        &mut builder,
        &compiled,
        guide,
        WaveguideId(0),
        BackendChoice::Cached,
    )
    .expect("register");
    let scheduler = builder.build().expect("scheduler");
    let mut executor = CircuitExecutor::new(&scheduler, &compiled, &gates).expect("executor");

    let sets = random_sets(circuit.input_count(), SETS);
    let reference = circuit.evaluate_batch(&sets).expect("reference");
    // Warm every slot's LUT (and check the answers) before timing.
    assert_eq!(executor.run_batch(&sets).expect("pipelined"), reference);

    let mut group = c.benchmark_group("serve_circuit");
    group.sample_size(20);
    group.throughput(Throughput::Elements((SETS * WIDTH) as u64));
    group.bench_function(format!("pipelined_x{SETS}"), |b| {
        b.iter(|| black_box(executor.run_batch(black_box(&sets)).expect("pipelined")))
    });
    group.finish();

    println!(
        "peak in flight (pipelined): {} requests across {} slots",
        executor.peak_in_flight(),
        compiled.slots().len(),
    );
    scheduler.shutdown().expect("shutdown");
}

criterion_group!(benches, bench_serve_circuit);
criterion_main!(benches);
