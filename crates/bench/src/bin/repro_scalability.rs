//! SCALE — reproduces the paper's §V scalability discussion: as the
//! channel count grows the gate lengthens, damping losses grow, and
//! sources must be driven at graded energies
//! `E(I_1) > E(I_2) > … > E(I_m)` to keep the vote balanced.
//!
//! Prints gate span, worst-case arrival decay and the required
//! drive-amplitude spread per channel count, and verifies that every
//! configuration still decodes its full truth table with the equalising
//! schedule. Writes `results/scalability.csv`.
//!
//! Usage: `cargo run --release -p magnon-bench --bin repro_scalability`

use magnon_bench::{combo_operand_sets, fmt_sci, results_dir, write_csv};
use magnon_core::backend::BackendChoice;
use magnon_core::gate::ParallelGateBuilder;
use magnon_core::scalability::scalability_sweep;
use magnon_core::truth::LogicFunction;
use magnon_math::constants::GHZ;
use magnon_physics::waveguide::Waveguide;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let guide = Waveguide::paper_default()?;
    let counts = [2usize, 3, 4, 6, 8, 10, 12, 14, 16];
    // 16 channels at 10 GHz spacing would reach 170 GHz; keep the
    // paper's 10 GHz start but pack at 5 GHz beyond n=8 feasibility.
    let points = scalability_sweep(&guide, 3, &counts, 10.0 * GHZ, 5.0 * GHZ)?;

    println!("SCALE: channel-count sweep (3-input majority, 10 GHz start, 5 GHz spacing)");
    println!(
        "\n{:>9} {:>10} {:>14} {:>18} {:>12} {:>10}",
        "channels", "span(nm)", "worst decay", "amplitude spread", "truth table", "backends"
    );
    let mut rows = Vec::new();
    let mut all_pass = true;
    for p in &points {
        let gate = ParallelGateBuilder::new(guide)
            .channels(p.channels)
            .inputs(3)
            .function(LogicFunction::Majority)
            .base_frequency(10.0 * GHZ)
            .frequency_step(5.0 * GHZ)
            .build()?;
        let report = gate.verify_truth_table()?;
        all_pass &= report.all_passed();
        // Every gate in the sweep must also decode identically through
        // the cached (truth-table) backend — one batch covers all
        // combinations.
        let sets = combo_operand_sets(3, p.channels)?;
        let mut cached = gate.session(BackendChoice::Cached)?;
        let batch = cached.evaluate_batch(&sets)?;
        let mut backends_agree = true;
        for (set, out) in sets.iter().zip(&batch) {
            backends_agree &= out.word() == gate.evaluate(set.words())?.word();
        }
        all_pass &= backends_agree;
        println!(
            "{:>9} {:>10.0} {:>14.4} {:>18.4} {:>12} {:>10}",
            p.channels,
            p.span * 1e9,
            p.worst_decay,
            p.amplitude_spread,
            if report.all_passed() { "PASS" } else { "FAIL" },
            if backends_agree { "AGREE" } else { "DIVERGE" }
        );
        rows.push(vec![
            p.channels.to_string(),
            fmt_sci(p.span),
            fmt_sci(p.worst_decay),
            fmt_sci(p.amplitude_spread),
            report.all_passed().to_string(),
            backends_agree.to_string(),
        ]);
    }

    // The paper's qualitative claims, checked quantitatively.
    let spans_grow = points.windows(2).all(|w| w[1].span >= w[0].span);
    let spread_grows = points
        .windows(2)
        .all(|w| w[1].amplitude_spread >= w[0].amplitude_spread - 1e-9);

    let dir = results_dir();
    write_csv(
        &dir.join("scalability.csv"),
        &[
            "channels",
            "span_m",
            "worst_decay",
            "amplitude_spread",
            "truth_table_pass",
            "backends_agree",
        ],
        &rows,
    )?;
    println!("\nwrote {}/scalability.csv", dir.display());
    println!(
        "SCALE {}",
        if all_pass && spans_grow && spread_grows {
            "PASS: span and required input-energy grading grow monotonically; all gates decode correctly"
        } else {
            "FAIL"
        }
    );
    if !(all_pass && spans_grow && spread_grows) {
        std::process::exit(1);
    }
    Ok(())
}
