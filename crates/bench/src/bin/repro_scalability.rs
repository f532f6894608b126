//! SCALE — reproduces the paper's §V scalability discussion: as the
//! channel count grows the gate lengthens, damping losses grow, and
//! sources must be driven at graded energies
//! `E(I_1) > E(I_2) > … > E(I_m)` to keep the vote balanced.
//!
//! Prints gate span, worst-case arrival decay and the required
//! drive-amplitude spread per channel count, and verifies that every
//! configuration still decodes its full truth table with the equalising
//! schedule (the [`magnon_bench::claims::scalability`] report). Writes
//! `results/scalability.csv`.
//!
//! Usage: `cargo run --release -p magnon-bench --bin repro_scalability`

use magnon_bench::claims::scalability;
use magnon_bench::{fmt_sci, verdict, write_csv};
use magnon_physics::waveguide::Waveguide;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let report = scalability(&Waveguide::paper_default()?)?;

    println!("SCALE: channel-count sweep (3-input majority, 10 GHz start, 5 GHz spacing)");
    println!(
        "\n{:>9} {:>10} {:>14} {:>18} {:>12} {:>10}",
        "channels", "span(nm)", "worst decay", "amplitude spread", "truth table", "backends"
    );
    let mut rows = Vec::new();
    for r in &report.rows {
        let p = &r.point;
        println!(
            "{:>9} {:>10.0} {:>14.4} {:>18.4} {:>12} {:>10}",
            p.channels,
            p.span * 1e9,
            p.worst_decay,
            p.amplitude_spread,
            if r.truth_table { "PASS" } else { "FAIL" },
            if r.backends_agree { "AGREE" } else { "DIVERGE" }
        );
        rows.push(vec![
            p.channels.to_string(),
            fmt_sci(p.span),
            fmt_sci(p.worst_decay),
            fmt_sci(p.amplitude_spread),
            r.truth_table.to_string(),
            r.backends_agree.to_string(),
        ]);
    }

    write_csv(
        "scalability.csv",
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
    verdict(
        "SCALE",
        report.passed(),
        "span and required input-energy grading grow monotonically; all gates decode correctly",
    );
    Ok(())
}
