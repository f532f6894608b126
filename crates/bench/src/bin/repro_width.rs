//! WIDTH — reproduces the paper's §V "Waveguide Width Variation" study:
//! widths up to 500 nm keep the gate functional with no crosstalk, and
//! the ferromagnetic resonance frequency decreases as the width grows.
//!
//! Per width: demagnetizing factor, FMR, first-channel wavelength, the
//! analytic truth-table verdict, and (full mode) a micromagnetic
//! isolation measurement on a reduced 2-channel gate. Writes
//! `results/width_sweep.csv`.
//!
//! The verdict is the analytic [`magnon_bench::claims::width`] report's.
//!
//! Usage: `cargo run --release -p magnon-bench --bin repro_width`
//! (set `REPRO_FAST=1` to skip the micromagnetic isolation runs).

use magnon_bench::claims::width;
use magnon_bench::{fast_mode, fmt_sci, majority, verdict, write_csv};
use magnon_core::crosstalk::CrosstalkReport;
use magnon_core::micromag_bridge::{MicromagValidator, ValidationSettings};
use magnon_core::word::Word;
use magnon_math::constants::{GHZ, NM};
use magnon_math::window::Window;
use magnon_physics::dispersion::DispersionRelation;
use magnon_physics::waveguide::Waveguide;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let report = width(&Waveguide::paper_default()?)?;
    let micromag_widths = [50.0, 250.0, 500.0];

    println!(
        "WIDTH: waveguide width scaling, 50..500 nm (paper: gate keeps working, FMR decreases)"
    );
    println!(
        "\n{:>9} {:>8} {:>10} {:>12} {:>12} {:>14}",
        "width(nm)", "N_z", "FMR(GHz)", "lambda1(nm)", "truth table", "isolation(dB)"
    );

    let mut rows = Vec::new();
    for r in &report.rows {
        let w = (r.guide.width() / NM).round();
        let nz = r.guide.demag_factor()?;
        let lambda1 = r.guide.exchange_dispersion()?.wavelength(10.0 * GHZ)?;
        // Micromagnetic isolation at selected widths (full mode only);
        // informational, the verdict is the analytic report's.
        let isolation = if !fast_mode() && micromag_widths.contains(&w) {
            Some(measure_isolation(&r.guide)?)
        } else {
            None
        };

        println!(
            "{:>9.0} {:>8.4} {:>10.3} {:>12.1} {:>12} {:>14}",
            w,
            nz,
            r.fmr / 1e9,
            lambda1 * 1e9,
            if r.truth_table { "PASS" } else { "FAIL" },
            isolation
                .map(|db| format!("{db:.1}"))
                .unwrap_or_else(|| "-".into()),
        );
        rows.push(vec![
            format!("{w:.0}"),
            fmt_sci(nz),
            fmt_sci(r.fmr),
            fmt_sci(lambda1),
            r.truth_table.to_string(),
            isolation.map(fmt_sci).unwrap_or_default(),
        ]);
    }

    write_csv(
        "width_sweep.csv",
        &[
            "width_nm",
            "nz",
            "fmr_hz",
            "lambda1_m",
            "truth_table_pass",
            "isolation_db",
        ],
        &rows,
    )?;
    verdict(
        "WIDTH",
        report.passed(),
        "FMR decreases monotonically with width; gate functional at every width",
    );
    Ok(())
}

/// Runs a reduced 2-channel majority gate micromagnetically and reports
/// inter-channel isolation at the output detector.
fn measure_isolation(guide: &Waveguide) -> Result<f64, Box<dyn Error>> {
    let gate = majority(*guide, 2).build()?;
    let settings = ValidationSettings {
        duration: Some(2.5e-9),
        ..ValidationSettings::default()
    };
    let mut validator = MicromagValidator::with_settings(&gate, settings);
    let zeros = Word::zeros(2)?;
    let ones = Word::ones(2)?;
    let reading = validator.evaluate(&[zeros, ones, zeros])?;
    let trace = reading.series.last().expect("detector trace");
    let steady = trace.after(trace.duration() * 0.5)?;
    let spectrum = steady.spectrum(Window::Hann)?;
    let report = CrosstalkReport::analyze(&spectrum, &gate.channel_plan().frequencies(), 2.0e9)?;
    Ok(report.isolation_db)
}
