//! FIG4 — reproduces Figure 4 of the paper: per-frequency detector
//! output traces of the byte-wide 3-input majority gate for all eight
//! input combinations.
//!
//! Each channel's detector trace is band-pass reconstructed around its
//! carrier (the paper's Matlab post-processing). The decoded phase
//! flips by π exactly when the majority of the three inputs is 1; the
//! verdict is the [`magnon_bench::claims::micromag_majority_sweep`]
//! report's. Writes `results/fig4_outputs.csv` with decimated traces.
//!
//! Usage: `cargo run --release -p magnon-bench --bin repro_fig4`
//! (set `REPRO_FAST=1` for a reduced 3-channel smoke run).

use magnon_bench::claims::micromag_majority_sweep;
use magnon_bench::{experiment, fmt_sci, verdict, write_csv};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let (gate, settings) = experiment()?;
    let n = gate.word_width();
    let m = gate.input_count();
    let freqs = gate.channel_plan().frequencies();

    println!(
        "FIG4: per-channel output traces of the {}-channel majority gate",
        n
    );
    let sweep = micromag_majority_sweep(&gate, settings)?;

    let mut rows: Vec<Vec<String>> = Vec::new();
    println!(
        "\n{:<8} {:<10} {:>12} {:>12} {:>9} {:>9}",
        "channel", "combo", "amplitude", "phase(rad)", "decoded", "expected"
    );
    for (combo, reading) in sweep.readings.iter().enumerate() {
        for (c, &freq) in freqs.iter().enumerate().take(n) {
            println!(
                "f{}={:>2}GHz {:<10} {:>12.4e} {:>12.3} {:>9} {:>9}{}",
                c + 1,
                (freq / 1e9).round() as u64,
                format!("{combo:0m$b}"),
                reading.amplitudes[c],
                reading.phase_deltas[c],
                reading.word.bit(c)? as u8,
                sweep.expected[combo] as u8,
                if sweep.channel_passed(combo, c) {
                    ""
                } else {
                    "  << FAIL"
                },
            );
            // Band-pass reconstructed per-channel trace (Fig. 4 panels).
            let band = reading.series[c].band_pass(freq, 4.0e9)?;
            for (i, &v) in band.samples().iter().enumerate().step_by(16) {
                rows.push(vec![
                    c.to_string(),
                    combo.to_string(),
                    fmt_sci(band.time_at(i)),
                    fmt_sci(v),
                ]);
            }
        }
    }

    write_csv(
        "fig4_outputs.csv",
        &["channel", "combo", "time_s", "mx_over_ms_bandpassed"],
        &rows,
    )?;
    verdict(
        "FIG4",
        sweep.passed(),
        "every channel's phase flips exactly when >=2 inputs are 1",
    );
    Ok(())
}
