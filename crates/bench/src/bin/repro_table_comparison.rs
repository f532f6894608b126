//! TAB-AREA — reproduces the paper's §V.B comparison: the byte-wide
//! 3-input majority gate vs eight scalar gates vs one serialized gate.
//!
//! The paper reports 0.116 µm² (scalar ×8) vs 0.0279 µm² (parallel):
//! a 4.16x area reduction at equal delay and energy. Absolute areas
//! depend on the dispersion model (see DESIGN.md §2); the ratio and the
//! delay/energy parity are the reproduction targets (the
//! [`magnon_bench::claims::table_comparison`] report).
//!
//! Usage: `cargo run --release -p magnon-bench --bin repro_table_comparison`

use magnon_bench::claims::table_comparison;
use magnon_bench::{fmt_sci, paper_majority_gate, verdict, write_csv};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let gate = paper_majority_gate(8)?;
    let report = table_comparison(&gate)?;
    let cmp = report.comparison;

    println!("TAB-AREA: 8-bit 3-input majority — implementation comparison");
    println!(
        "(paper: scalar 0.116 um^2, parallel 0.0279 um^2, ratio 4.16x, delay/energy parity)\n"
    );
    println!("{cmp}");

    let d = gate.layout().spacings();
    println!("\nsame-frequency source spacings d_1..d_8 (nm), cf. paper's 166/100/117/165/174/130/168/176:");
    let spacings: Vec<String> = d.iter().map(|x| format!("{:.0}", x * 1e9)).collect();
    println!("  [{}]", spacings.join(", "));

    let mut rows: Vec<Vec<String>> = [
        ("parallel", cmp.parallel),
        ("scalar_x8", cmp.scalar),
        ("serialized", cmp.serialized),
    ]
    .iter()
    .map(|(name, r)| {
        let cells = [r.area_um2(), r.delay_ns(), r.energy_aj()].map(fmt_sci);
        [name.to_string()]
            .into_iter()
            .chain(cells)
            .chain([r.transducers.to_string()])
            .collect()
    })
    .collect();
    rows.push(vec![
        "ratio_scalar_over_parallel".to_string(),
        fmt_sci(cmp.area_ratio()),
        fmt_sci(cmp.delay_ratio()),
        fmt_sci(cmp.energy_ratio()),
        String::new(),
    ]);
    write_csv(
        "table_comparison.csv",
        &[
            "implementation",
            "area_um2",
            "delay_ns",
            "energy_aj",
            "transducers",
        ],
        &rows,
    )?;

    verdict(
        "TAB-AREA",
        report.passed(),
        "multi-x area reduction at delay/energy parity (paper shape preserved)",
    );
    Ok(())
}
