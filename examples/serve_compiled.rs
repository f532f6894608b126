//! Compiled circuit serving: whole netlists compile to levelized,
//! FDM-placed plans and run through the scheduler pipelined.
//!
//! The compiler's four passes (validate → levelize → place → emit) turn
//! an 8-bit ripple-carry adder and a hand-built logic unit into
//! [`CompiledCircuit`] plans whose gate nodes are packed onto
//! `(waveguide, lane)` slots — fewer waveguides than gates, with lane
//! bands proven disjoint at compile time. Two client threads then run
//! both plans concurrently over two shards with dependency-aware
//! pipelined submission: every gate request goes out the moment its
//! operands complete, so independent subgraphs interleave inside the
//! scheduler's drain cycles instead of marching level by level:
//!
//! ```text
//! cargo run --release --example serve_compiled
//! ```
//!
//! [`CompiledCircuit`]: spinwave_parallel::compiler::CompiledCircuit

use spinwave_parallel::circuits::adder::RippleCarryAdder;
use spinwave_parallel::circuits::netlist::Circuit;
use spinwave_parallel::compiler::{compile, CompileReport, CompiledCircuit, CompilerConfig};
use spinwave_parallel::core::backend::BackendChoice;
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::core::word::Word;
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{register_compiled, CircuitExecutor, SchedulerBuilder, ServeConfig};
use std::time::{Duration, Instant};

const WIDTH: usize = 8; // channels per wire: 8 independent data sets
const BITS: usize = 8; // adder operand width

/// A small logic unit: AND, OR, XOR, NAND and a majority-mix output
/// over two word inputs — wide (parallel-friendly) and shallow, the
/// opposite shape of the adder's serial carry chain.
fn logic_unit() -> Result<Circuit, Box<dyn std::error::Error>> {
    let mut c = Circuit::new(WIDTH)?;
    let a = c.input();
    let b = c.input();
    let and = c.and2(a, b)?;
    let or = c.or2(a, b)?;
    let xor = c.xor2(a, b)?;
    let nand = c.not(and)?;
    let mix = c.maj3(and, or, xor)?;
    for out in [and, or, xor, nand, mix] {
        c.mark_output(out)?;
    }
    Ok(c)
}

fn print_report(name: &str, report: &CompileReport) {
    println!(
        "{name}: {} gates in {} levels (widest {}), placed on {} slots = {} waveguides x {} lanes",
        (report.gate_counts.maj3 + report.gate_counts.xor2),
        report.depth,
        report.max_level_width,
        report.slot_count,
        report.waveguides_used,
        report.lanes_per_waveguide,
    );
    println!(
        "  spectrum: guard band {:.0} GHz, isolation {:.1} dB; cascade depth {} at min amplitude {:.2e}",
        report.min_guard_band / 1e9,
        report.isolation_db,
        report.maj_chain_depth,
        report.cascade_min_amplitude,
    );
}

fn random_sets(count: usize, inputs: usize, salt: u64) -> Vec<Vec<Word>> {
    (0..count as u64)
        .map(|i| {
            (0..inputs as u64)
                .map(|j| {
                    Word::from_u8(
                        (i.wrapping_add(salt)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .rotate_left((j as u32) * 11)
                            >> 17) as u8,
                    )
                })
                .collect()
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let guide = Waveguide::paper_default()?;
    let config = CompilerConfig::default();

    // Compile both netlists. The adder is deep and narrow (the carry
    // ripples); the logic unit is shallow and wide — together they give
    // the scheduler two independent request streams of opposite shape.
    let adder = RippleCarryAdder::new(BITS, WIDTH)?;
    let compiled_adder: CompiledCircuit = compile(adder.circuit(), &guide, &config)?;
    let logic = logic_unit()?;
    let compiled_logic = compile(&logic, &guide, &config)?;
    print_report("adder", compiled_adder.report());
    print_report("logic", compiled_logic.report());

    // Placement density: the whole point of FDM placement is needing
    // fewer waveguides than the naive one-gate-per-waveguide layout.
    for (name, compiled) in [("adder", &compiled_adder), ("logic", &compiled_logic)] {
        let report = compiled.report();
        assert!(
            report.waveguides_used < (report.gate_counts.maj3 + report.gate_counts.xor2),
            "{name}: placement must beat one waveguide per gate: {report:?}"
        );
    }

    // One scheduler serves both plans: the adder's slots start at
    // waveguide 0, the logic unit's directly above them.
    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 2,
        max_batch: 256,
        linger: Duration::from_micros(100),
        queue_depth: 1024,
    });
    let adder_gates = register_compiled(
        &mut builder,
        &compiled_adder,
        guide,
        WaveguideId(0),
        BackendChoice::Cached,
    )?;
    let logic_first = WaveguideId(compiled_adder.report().waveguides_used as u64);
    let logic_gates = register_compiled(
        &mut builder,
        &compiled_logic,
        guide,
        logic_first,
        BackendChoice::Cached,
    )?;
    let scheduler = builder.build()?;

    // Two plans, two client threads, pipelined execution on both.
    let adder_sets = random_sets(24, adder.circuit().input_count(), 3);
    let logic_sets = random_sets(24, logic.input_count(), 7);
    let start = Instant::now();
    let (adder_run, logic_run) = std::thread::scope(|scope| {
        let adder_client = scope.spawn(|| {
            let mut exec = CircuitExecutor::new(&scheduler, &compiled_adder, &adder_gates)?;
            let out = exec.run_batch(&adder_sets)?;
            Ok::<_, Box<dyn std::error::Error + Send + Sync>>((out, exec.peak_in_flight()))
        });
        let logic_client = scope.spawn(|| {
            let mut exec = CircuitExecutor::new(&scheduler, &compiled_logic, &logic_gates)?;
            let out = exec.run_batch(&logic_sets)?;
            Ok::<_, Box<dyn std::error::Error + Send + Sync>>((out, exec.peak_in_flight()))
        });
        (
            adder_client.join().expect("adder thread"),
            logic_client.join().expect("logic thread"),
        )
    });
    let (adder_out, adder_peak) = adder_run.expect("adder plan");
    let (logic_out, logic_peak) = logic_run.expect("logic plan");
    let elapsed = start.elapsed();

    // Both plans computed exactly what the sequential interpreter does.
    assert_eq!(adder_out, adder.circuit().evaluate_batch(&adder_sets)?);
    assert_eq!(logic_out, logic.evaluate_batch(&logic_sets)?);

    let stats = scheduler.stats();
    println!(
        "\nserved both plans in {elapsed:?}: {} requests, {} drains (mean {:.1} req/drain), \
         peak in flight adder {adder_peak} / logic {logic_peak}",
        stats.completed,
        stats.drain_passes,
        stats.mean_drain(),
    );
    assert_eq!(stats.failed, 0);
    assert!(
        adder_peak >= 2 && logic_peak >= 2,
        "pipelined submission must keep multiple requests in flight"
    );
    scheduler.shutdown()?;
    println!("OK: two compiled circuits served pipelined over shared shards");
    Ok(())
}
