//! The paper's claims, asserted through the same reports whose
//! `passed()` decides each `repro_*` binary's verdict.
//!
//! The micromagnetic sweep runs the `REPRO_FAST` shape (3 channels,
//! 2 ns, as `magnon_bench::experiment` picks it); the workspace's dev profile builds `magnon-micromag` with
//! optimizations so that it stays a few seconds in a debug build.

use magnon_bench::claims::{ablation, micromag_majority_sweep, scalability};
use magnon_bench::claims::{table_comparison, width};
use magnon_bench::{fast_settings, paper_majority_gate};
use magnon_physics::waveguide::Waveguide;

#[test]
fn span_and_input_energy_grading_grow_and_every_gate_decodes() {
    let report = scalability(&Waveguide::paper_default().unwrap()).unwrap();
    assert!(report.passed(), "{report:#?}");
}

#[test]
fn byte_gate_cuts_area_at_delay_and_energy_parity() {
    let report = table_comparison(&paper_majority_gate(8).unwrap()).unwrap();
    assert!(report.passed(), "{report:#?}");
}

#[test]
fn equalisation_noise_margin_and_window_choice_hold() {
    let report = ablation(&Waveguide::paper_default().unwrap()).unwrap();
    assert!(report.passed(), "{report:#?}");
}

#[test]
fn fmr_falls_with_width_and_the_gate_works_at_every_width() {
    let report = width(&Waveguide::paper_default().unwrap()).unwrap();
    assert!(report.passed(), "{report:#?}");
}

#[test]
fn micromagnetic_majority_decodes_every_combination_on_every_channel() {
    let gate = paper_majority_gate(3).unwrap();
    let sweep = micromag_majority_sweep(&gate, fast_settings()).unwrap();
    assert_eq!(sweep.readings.len(), 8);
    let words: Vec<_> = sweep.readings.iter().map(|r| r.word).collect();
    assert!(sweep.passed(), "decoded words per combination: {words:?}");
}
