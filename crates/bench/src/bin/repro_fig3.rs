//! FIG3 — reproduces Figure 3 of the paper: the byte-wide 3-input
//! majority gate's detector response in time and frequency for all
//! eight input combinations, validated micromagnetically.
//!
//! Prints, per combination: the decoded output word, the expected
//! majority value, per-channel tone amplitudes, and the spectral
//! isolation (peaks only at the excitation frequencies). The verdict is
//! the [`magnon_bench::claims::micromag_majority_sweep`] report's.
//! Writes `results/fig3_spectrum.csv` and `results/fig3_time.csv`.
//!
//! Usage: `cargo run --release -p magnon-bench --bin repro_fig3`
//! (set `REPRO_FAST=1` for a reduced 3-channel smoke run).

use magnon_bench::claims::micromag_majority_sweep;
use magnon_bench::{experiment, fmt_sci, verdict, write_csv};
use magnon_core::crosstalk::CrosstalkReport;
use magnon_math::window::Window;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let (gate, settings) = experiment()?;
    let n = gate.word_width();
    let m = gate.input_count();
    let freqs = gate.channel_plan().frequencies();

    println!(
        "FIG3: byte-wide {}-input majority — micromagnetic validation",
        m
    );
    println!(
        "gate: {} channels at {:?} GHz, span {:.0} nm, {} sources + {} detectors",
        n,
        freqs.iter().map(|f| f / 1e9).collect::<Vec<_>>(),
        gate.layout().span() * 1e9,
        gate.layout().sources().len(),
        gate.layout().detectors().len(),
    );
    let sweep = micromag_majority_sweep(&gate, settings)?;

    let mut spectrum_rows: Vec<Vec<String>> = Vec::new();
    let mut time_rows: Vec<Vec<String>> = Vec::new();
    let mut worst_isolation = f64::INFINITY;

    println!(
        "\n{:<10} {:>9} {:>10} {:>14}  per-channel decoded bits",
        "combo", "expected", "decoded", "isolation(dB)"
    );
    for (combo, reading) in sweep.readings.iter().enumerate() {
        // Spectrum at the last detector (all channels pass it).
        let trace = reading.series.last().expect("at least one detector");
        let steady = trace.after(trace.duration() * 0.5)?;
        let spectrum = steady.spectrum(Window::Hann)?;
        let report = CrosstalkReport::analyze(&spectrum, &freqs, 2.0e9)?;
        worst_isolation = worst_isolation.min(report.isolation_db);

        println!(
            "{:<10} {:>9} {:>10} {:>14.1}  {}",
            format!("{combo:0m$b}"),
            sweep.expected[combo] as u8,
            format!("{}", reading.word),
            report.isolation_db,
            if sweep.combo_passed(combo) {
                "PASS"
            } else {
                "FAIL"
            },
        );

        for (k, &a) in spectrum.amplitudes().iter().enumerate() {
            let f = spectrum.frequency_at(k);
            if f <= freqs.last().copied().unwrap_or(0.0) * 1.25 {
                spectrum_rows.push(vec![combo.to_string(), fmt_sci(f), fmt_sci(a)]);
            }
        }
        // Decimated time trace (every 8th sample).
        for (i, &v) in trace.samples().iter().enumerate().step_by(8) {
            time_rows.push(vec![
                combo.to_string(),
                fmt_sci(trace.time_at(i)),
                fmt_sci(v),
            ]);
        }
    }

    write_csv(
        "fig3_spectrum.csv",
        &["combo", "frequency_hz", "amplitude"],
        &spectrum_rows,
    )?;
    write_csv(
        "fig3_time.csv",
        &["combo", "time_s", "mx_over_ms"],
        &time_rows,
    )?;
    println!("\nworst inter-channel isolation: {worst_isolation:.1} dB (paper: no visible off-channel peaks)");
    verdict(
        "FIG3",
        sweep.passed(),
        "all combinations decoded correctly on every channel",
    );
    Ok(())
}
