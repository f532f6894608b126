//! Shared harness for the experiment-reproduction binaries, and the
//! paper's claims as reports ([`claims`]).
//!
//! Every table and figure of the paper has a `repro_*` binary here (see
//! `src/bin/`) that prints the paper-style rows of its report, writes CSV
//! into `results/` and exits non-zero when the claim fails.
//! `tests/paper_claims.rs` asserts the same reports without writing
//! anything:
//!
//! | Experiment | Binary | Report | Paper artifact |
//! |-----------|--------|--------|----------------|
//! | FIG3 | `repro_fig3` | [`claims::micromag_majority_sweep`] | Fig. 3 — detector spectrum + time response |
//! | FIG4 | `repro_fig4` | [`claims::micromag_majority_sweep`] | Fig. 4 — per-channel output traces |
//! | TAB-AREA | `repro_table_comparison` | [`claims::table_comparison`] | §V.B area/delay/energy |
//! | SCALE | `repro_scalability` | [`claims::scalability`] | §V scalability discussion |
//! | WIDTH | `repro_width` | [`claims::width`] | §V waveguide width variation |
//! | ABLATION | `repro_ablation` | [`claims::ablation`] | design choices (equalisation, noise, window) |
//!
//! Run the binaries with `REPRO_FAST=1` to shrink the micromagnetic
//! workloads (fewer channels, shorter runs) for smoke testing.

pub mod claims;

use magnon_core::gate::{ParallelGate, ParallelGateBuilder};
use magnon_core::micromag_bridge::ValidationSettings;
use magnon_core::truth::LogicFunction;
use magnon_core::word::Word;
use magnon_core::GateError;
use magnon_physics::waveguide::Waveguide;
use std::fs;
use std::path::Path;

/// A 3-input majority gate with `channels` channels on `guide`, at
/// 10, 20, … GHz unless the caller sets another plan.
pub fn majority(guide: Waveguide, channels: usize) -> ParallelGateBuilder {
    ParallelGateBuilder::new(guide)
        .channels(channels)
        .inputs(3)
        .function(LogicFunction::Majority)
}

/// The 3-input majority gate with `channels` channels on the paper's
/// 50 nm × 1 nm FeCoB waveguide (8 for the paper's byte-wide gate).
///
/// # Errors
///
/// Propagates gate construction errors.
pub fn paper_majority_gate(channels: usize) -> Result<ParallelGate, GateError> {
    majority(Waveguide::paper_default()?, channels).build()
}

/// The micromagnetic settings of a `REPRO_FAST` run: 2 ns of simulated
/// time instead of the transit-time default.
pub fn fast_settings() -> ValidationSettings {
    ValidationSettings {
        duration: Some(2.0e-9),
        ..ValidationSettings::default()
    }
}

/// `true` when `REPRO_FAST` is set (and not `0`) in the environment.
pub fn fast_mode() -> bool {
    std::env::var("REPRO_FAST").is_ok_and(|v| v != "0")
}

/// The micromagnetic experiment for the current mode: the byte-wide
/// gate with default settings, or under `REPRO_FAST` a 3-channel gate
/// with [`fast_settings`].
///
/// # Errors
///
/// Propagates gate construction errors.
pub fn experiment() -> Result<(ParallelGate, ValidationSettings), GateError> {
    if fast_mode() {
        Ok((paper_majority_gate(3)?, fast_settings()))
    } else {
        Ok((paper_majority_gate(8)?, ValidationSettings::default()))
    }
}

/// Input words that apply the 3-input combination `combo` (bit `j` =
/// input `j`) identically on every channel — the paper's Fig. 3/4 runs.
///
/// # Errors
///
/// Propagates word construction errors.
pub fn combo_words(combo: usize, input_count: usize, width: usize) -> Result<Vec<Word>, GateError> {
    let (zeros, ones) = (Word::zeros(width)?, Word::ones(width)?);
    let bit = |j: usize| (combo >> j) & 1 == 1;
    Ok((0..input_count)
        .map(|j| if bit(j) { ones } else { zeros })
        .collect())
}

/// Writes `name` (a header row, then `rows`) into the workspace's
/// `results/` directory, creating it on demand, and prints its path.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir)?;
    let path = dir.canonicalize()?.join(name);
    fs::write(&path, csv_text(header, rows))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Prints the `label`ed verdict on `claim` and exits with status 1 when
/// it failed.
pub fn verdict(label: &str, passed: bool, claim: &str) {
    if passed {
        println!("{label} PASS: {claim}");
    } else {
        println!("{label} FAIL");
        std::process::exit(1);
    }
}

/// The CSV text of a header row and data rows, one line each.
pub fn csv_text(header: &[&str], rows: &[Vec<String>]) -> String {
    std::iter::once(header.join(","))
        .chain(rows.iter().map(|row| row.join(",")))
        .map(|line| line + "\n")
        .collect()
}

/// Formats a floating-point value for CSV output.
pub fn fmt_sci(v: f64) -> String {
    format!("{v:.6e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_gate_builds() {
        let gate = paper_majority_gate(8).unwrap();
        assert_eq!(gate.word_width(), 8);
        assert_eq!(gate.input_count(), 3);
    }

    #[test]
    fn combo_words_encode_combination() {
        let words = combo_words(0b101, 3, 8).unwrap();
        assert_eq!(words.len(), 3);
        assert_eq!(words[0], Word::ones(8).unwrap());
        assert_eq!(words[1], Word::zeros(8).unwrap());
        assert_eq!(words[2], Word::ones(8).unwrap());
    }

    #[test]
    fn batched_evaluation_matches_per_combo() {
        let gate = paper_majority_gate(3).unwrap();
        let n = gate.word_width();
        // Channel c carries combination c mod 8.
        let mut batched = vec![Word::zeros(n).unwrap(); 3];
        for c in 0..n {
            for (j, w) in batched.iter_mut().enumerate() {
                *w = w.with_bit(c, ((c % 8) >> j) & 1 == 1).unwrap();
            }
        }
        let out = gate.evaluate(&batched).unwrap();
        for c in 0..n {
            let combo = c % 8;
            let per = combo_words(combo, 3, n).unwrap();
            let single = gate.evaluate(&per).unwrap();
            assert_eq!(out.word().bit(c).unwrap(), single.word().bit(c).unwrap());
        }
    }

    #[test]
    fn csv_text_is_header_then_rows() {
        let text = csv_text(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(text, "a,b\n1,2\n");
    }
}
