//! The paper's claims, one report each.
//!
//! Every `repro_*` binary prints one of these reports and exits non-zero
//! when its `passed()` is false; `tests/paper_claims.rs` asserts the same
//! `passed()`, so the binaries and the test suite judge each claim by one
//! predicate. Nothing here does I/O or reads the environment: the caller
//! picks the gate and the simulation settings.

use crate::{combo_words, majority};
use magnon_core::backend::{BackendChoice, OperandSet};
use magnon_core::crosstalk::CrosstalkReport;
use magnon_core::gate::ParallelGate;
use magnon_core::micromag_bridge::{MicromagReading, MicromagValidator, ValidationSettings};
use magnon_core::robustness::{monte_carlo_error_rate, phase_noise_sweep};
use magnon_core::robustness::{NoiseModel, RobustnessReport};
use magnon_core::scalability::{scalability_sweep, ScalabilityPoint};
use magnon_core::GateError;
use magnon_cost::{Comparison, CostModel, Transducer};
use magnon_math::constants::{GHZ, NM};
use magnon_math::spectrum::TimeSeries;
use magnon_math::window::Window;
use magnon_physics::waveguide::Waveguide;
use std::f64::consts::PI;

/// One channel count of the scalability sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalabilityRow {
    /// Span, decay and drive spread at this channel count.
    pub point: ScalabilityPoint,
    /// The analytic engine decodes the full truth table.
    pub truth_table: bool,
    /// The cached backend agrees with the analytic engine.
    pub backends_agree: bool,
}

/// SCALE (§V): as channels are added the gate lengthens and its sources
/// need graded energies `E(I_1) > … > E(I_m)`, yet every gate decodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityReport {
    /// One row per channel count, in increasing order.
    pub rows: Vec<ScalabilityRow>,
}

impl ScalabilityReport {
    /// Span and drive spread never shrink as channels are added, and
    /// every gate decodes on both backends.
    pub fn passed(&self) -> bool {
        self.rows.windows(2).all(|w| {
            let (a, b) = (w[0].point, w[1].point);
            b.span >= a.span && b.amplitude_spread >= a.amplitude_spread - 1e-9
        }) && self.rows.iter().all(|r| r.truth_table && r.backends_agree)
    }
}

/// Sweeps the 3-input majority gate on `guide` over 2–16 channels
/// (10 GHz start; 5 GHz spacing keeps 16 channels below 90 GHz).
///
/// # Errors
///
/// Propagates gate construction and evaluation errors.
pub fn scalability(guide: &Waveguide) -> Result<ScalabilityReport, GateError> {
    let counts = [2, 3, 4, 6, 8, 10, 12, 14, 16];
    let mut rows = Vec::with_capacity(counts.len());
    for point in scalability_sweep(guide, 3, &counts, 10.0 * GHZ, 5.0 * GHZ)? {
        let n = point.channels;
        let gate = majority(*guide, n).frequency_step(5.0 * GHZ).build()?;
        // One cached batch covers every combination.
        let sets: Vec<OperandSet> = (0..8)
            .map(|combo| Ok(OperandSet::new(combo_words(combo, 3, n)?)))
            .collect::<Result<_, GateError>>()?;
        let batch = gate.session(BackendChoice::Cached)?.evaluate_batch(&sets)?;
        let mut backends_agree = true;
        for (set, out) in sets.iter().zip(&batch) {
            backends_agree &= out.word() == gate.evaluate(set.words())?.word();
        }
        let truth_table = gate.verify_truth_table()?.all_passed();
        rows.push(ScalabilityRow {
            point,
            truth_table,
            backends_agree,
        });
    }
    Ok(ScalabilityReport { rows })
}

/// TAB-AREA (§V.B): the data-parallel gate against `n` scalar gates and
/// one serialized gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableReport {
    /// Area, delay and energy of the three implementations.
    pub comparison: Comparison,
}

impl TableReport {
    /// A multi-× area reduction at delay and energy parity. Absolute
    /// areas depend on the dispersion model; the paper's 4.16× ratio
    /// and the parity are the targets.
    pub fn passed(&self) -> bool {
        let cmp = &self.comparison;
        cmp.area_ratio() > 2.0
            && (cmp.energy_ratio() - 1.0).abs() < 1e-9
            && (cmp.delay_ratio() - 1.0).abs() < 0.3
    }
}

/// Costs `gate` with the paper's transducer.
///
/// # Errors
///
/// Propagates cost-model errors.
pub fn table_comparison(gate: &ParallelGate) -> Result<TableReport, GateError> {
    let comparison = CostModel::new(Transducer::paper_default()).compare(gate)?;
    Ok(TableReport { comparison })
}

/// ABLATION: amplitude equalisation, the noise margin of the majority
/// vote, and the window of the Fig. 3 spectral analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationReport {
    /// `(channels, equalised verdict, flat-drive verdict)` per gate size.
    pub equalisation: Vec<(usize, bool, bool)>,
    /// Byte-gate error rates under growing per-source phase jitter.
    pub phase_noise: Vec<RobustnessReport>,
    /// Byte-gate error rate under 10 % amplitude jitter alone.
    pub amplitude_jitter: RobustnessReport,
    /// Isolation (dB) of an ideal 8-tone record under each window.
    pub isolation_db: Vec<(Window, f64)>,
}

impl AblationReport {
    /// The equalised gate decodes at every size; noiseless decoding is
    /// perfect, the error rate never drops by more than 0.03 as jitter
    /// grows and the strongest jitter breaks more than 5 % of decodes;
    /// the Hann window leaks less than the rectangular one.
    pub fn passed(&self) -> bool {
        let rates: Vec<f64> = self.phase_noise.iter().map(|r| r.error_rate()).collect();
        let isolation = |window| self.isolation_db.iter().find(|(w, _)| *w == window);
        self.equalisation.iter().all(|&(_, equalised, _)| equalised)
            && rates.first() == Some(&0.0)
            && rates.windows(2).all(|w| w[1] + 0.03 >= w[0])
            && rates.last().is_some_and(|&r| r > 0.05)
            && matches!(
                (isolation(Window::Hann), isolation(Window::Rectangular)),
                (Some((_, hann)), Some((_, rect))) if hann > rect
            )
    }
}

/// Runs the three ablations on `guide`.
///
/// # Errors
///
/// Propagates gate construction, evaluation and spectrum errors.
pub fn ablation(guide: &Waveguide) -> Result<AblationReport, GateError> {
    let mut equalisation = Vec::new();
    for channels in [4, 8, 12, 16] {
        let verdict = |equalize| -> Result<bool, GateError> {
            let builder = majority(*guide, channels).frequency_step(5.0 * GHZ);
            let gate = builder.equalize_amplitudes(equalize).build()?;
            Ok(gate.verify_truth_table()?.all_passed())
        };
        equalisation.push((channels, verdict(true)?, verdict(false)?));
    }

    let gate = majority(*guide, 8).build()?;
    let sigmas = [0.0, 0.2, 0.4, 0.6, 0.9, 1.2, 1.6, 2.0];
    let phase_noise = phase_noise_sweep(&gate, &sigmas, 200, 99)?;
    let amplitude_jitter = monte_carlo_error_rate(&gate, NoiseModel::new(0.0, 0.1)?, 200, 7)?;

    // An ideal 8-tone record whose length is deliberately not a whole
    // number of periods of every tone — the case where windows matter.
    let dt = 1.0e-12;
    let freqs: Vec<f64> = (1..=8).map(|i| i as f64 * 10.0 * GHZ).collect();
    let tones = |t: f64| freqs.iter().map(|&f| (2.0 * PI * f * t).sin()).sum();
    let record = TimeSeries::new(dt, (0..10_000).map(|i| tones(i as f64 * dt)).collect())?;
    let isolation_db = [Window::Rectangular, Window::Hann, Window::Blackman]
        .into_iter()
        .map(|window| {
            let spectrum = record.spectrum(window)?;
            let report = CrosstalkReport::analyze(&spectrum, &freqs, 2.0 * GHZ)?;
            Ok((window, report.isolation_db))
        })
        .collect::<Result<_, GateError>>()?;

    Ok(AblationReport {
        equalisation,
        phase_noise,
        amplitude_jitter,
        isolation_db,
    })
}

/// One width of the width study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidthRow {
    /// The waveguide at this width.
    pub guide: Waveguide,
    /// Ferromagnetic resonance frequency in Hz.
    pub fmr: f64,
    /// The byte-wide majority gate decodes its full truth table.
    pub truth_table: bool,
}

/// WIDTH (§V, analytic part): widths up to 500 nm keep the gate
/// functional, and the FMR frequency falls as the width grows.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthReport {
    /// One row per width, 50–500 nm in 50 nm steps.
    pub rows: Vec<WidthRow>,
}

impl WidthReport {
    /// FMR strictly decreases with width and the gate works at every
    /// width.
    pub fn passed(&self) -> bool {
        self.rows.windows(2).all(|w| w[1].fmr < w[0].fmr) && self.rows.iter().all(|r| r.truth_table)
    }
}

/// Sweeps `base` over widths 50–500 nm, building the byte-wide majority
/// gate at each.
///
/// # Errors
///
/// Propagates waveguide, dispersion and gate errors.
pub fn width(base: &Waveguide) -> Result<WidthReport, GateError> {
    let mut rows = Vec::new();
    for step in 1..=10 {
        let guide = base.with_width(f64::from(step) * 50.0 * NM)?;
        let truth_table = majority(guide, 8)
            .build()?
            .verify_truth_table()?
            .all_passed();
        let fmr = guide.fmr_frequency()?;
        rows.push(WidthRow {
            guide,
            fmr,
            truth_table,
        });
    }
    Ok(WidthReport { rows })
}

/// FIG3/FIG4: every input combination of a gate, applied identically on
/// every channel and simulated once under LLG dynamics. Fig. 3 reads the
/// detector spectra, Fig. 4 the per-channel phases; both check the same
/// decoded words.
#[derive(Debug, Clone)]
pub struct MajoritySweep {
    /// The gate function's value per combination (bit `j` = input `j`).
    pub expected: Vec<bool>,
    /// The simulated reading per combination.
    pub readings: Vec<MicromagReading>,
}

impl MajoritySweep {
    /// Whether channel `c` decoded `combo` correctly.
    pub fn channel_passed(&self, combo: usize, c: usize) -> bool {
        self.readings[combo].word.bit(c).ok() == Some(self.expected[combo])
    }

    /// Whether every channel decoded `combo` correctly.
    pub fn combo_passed(&self, combo: usize) -> bool {
        (0..self.readings[combo].word.width()).all(|c| self.channel_passed(combo, c))
    }

    /// Every combination decoded correctly on every channel.
    pub fn passed(&self) -> bool {
        (0..self.readings.len()).all(|combo| self.combo_passed(combo))
    }
}

/// Simulates every input combination of `gate` with `settings`, sharing
/// one calibration run.
///
/// # Errors
///
/// Propagates simulation and decoding errors.
pub fn micromag_majority_sweep(
    gate: &ParallelGate,
    settings: ValidationSettings,
) -> Result<MajoritySweep, GateError> {
    let (n, m) = (gate.word_width(), gate.input_count());
    let expected = gate.function().truth_table(m)?;
    let mut validator = MicromagValidator::with_settings(gate, settings);
    let readings = (0..expected.len())
        .map(|combo| validator.evaluate(&combo_words(combo, m, n)?))
        .collect::<Result<_, _>>()?;
    Ok(MajoritySweep { expected, readings })
}
