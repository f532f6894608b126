//! Analytic wave-superposition engine.
//!
//! Evaluates a gate in O(sources) by summing complex wave amplitudes per
//! channel at the detector:
//!
//! ```text
//! z_c = Σ_j  A_{c,j} · e^{−Δx_{c,j}/L_c} · e^{i (k_c Δx_{c,j} + φ_j)}
//! ```
//!
//! with `Δx` the source→detector distance, `L_c` the attenuation length
//! and `φ_j ∈ {0, π}` the encoded input bit. Because the layout places
//! same-channel sources an integer number of wavelengths apart, the
//! geometric phases collapse and the interference is governed by the
//! encoded bits exactly as in the paper's §II. The engine keeps the full
//! `k_c Δx` term, so layout errors surface as wrong logic — the same
//! failure mode a real device would show.
//!
//! Two entry levels exist:
//!
//! * the free functions ([`superpose_channel`] etc.) recompute geometry
//!   on every call — used by diagnostics and tests;
//! * `EnginePrep` (crate-private) folds the per-source geometry, damping
//!   decay and excitation schedule into one complex factor per
//!   `(channel, input)` **once**, after which an evaluation is `m` fused
//!   multiply-adds per channel. [`crate::gate::ParallelGate`] compiles
//!   its prep at build time and every backend in [`crate::backend`]
//!   evaluates through it.

use crate::channel::ChannelPlan;
use crate::encoding::{phase_of, ReadoutMode};
use crate::error::GateError;
use crate::inline::InlineLayout;
use crate::scalability::EnergySchedule;
use crate::truth::LogicFunction;
use crate::word::Word;
use magnon_math::Complex64;

/// Per-channel readout produced by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelReadout {
    /// Channel index.
    pub channel: usize,
    /// Carrier frequency in Hz.
    pub frequency: f64,
    /// Interference amplitude at the detector (arbitrary units; 1.0 =
    /// one un-attenuated source).
    pub amplitude: f64,
    /// Interference phase at the detector in radians.
    pub phase: f64,
    /// The decoded logic value.
    pub logic: bool,
}

fn detector_index(layout: &InlineLayout, channel: usize) -> Result<usize, GateError> {
    layout
        .detectors()
        .iter()
        .position(|d| d.channel == channel)
        .ok_or(GateError::MalformedLayout {
            channel,
            reason: "layout carries no detector for this channel",
        })
}

/// Evaluates one channel: complex superposition of all of the channel's
/// sources observed at its detector.
///
/// `bits[j]` is input `j`'s logic value on this channel; `amplitudes[j]`
/// the excitation amplitude of source `j` (1.0 nominal).
///
/// # Errors
///
/// * [`GateError::MalformedLayout`] when the layout lacks the
///   channel's detector.
/// * [`GateError::InputCountMismatch`] when `bits`/`amplitudes` are
///   shorter than the layout's operand count.
pub fn superpose_channel(
    plan: &ChannelPlan,
    layout: &InlineLayout,
    channel: usize,
    bits: &[bool],
    amplitudes: &[f64],
) -> Result<Complex64, GateError> {
    let ch = plan.channel(channel)?;
    let detector = &layout.detectors()[detector_index(layout, channel)?];
    let mut z = Complex64::ZERO;
    for src in layout.sources().iter().filter(|s| s.channel == channel) {
        // A short operand slice is the caller's mistake, not the
        // layout's — report it as such.
        if src.input >= bits.len() || src.input >= amplitudes.len() {
            return Err(GateError::InputCountMismatch {
                expected: src.input + 1,
                actual: bits.len().min(amplitudes.len()),
            });
        }
        let dx = detector.position - src.position;
        let decay = (-dx / ch.attenuation_length).exp();
        let phase = ch.wavenumber * dx + phase_of(bits[src.input]);
        z += Complex64::from_polar(amplitudes[src.input] * decay, phase);
    }
    Ok(z)
}

/// Decodes the interference phasor of one channel into a logic value.
///
/// * Majority: the phase decides — `Re(z) < 0` means the π-phase camp
///   won. Inverted readout is realised geometrically (the detector
///   offset already flips the phase), so no software inversion happens
///   here.
/// * XOR: the amplitude decides — below half of the full constructive
///   amplitude `reference` means cancellation, i.e. logic 1; inverted
///   readout complements that decision (amplitude carries no geometric
///   phase flip).
pub(crate) fn decode_channel(
    function: LogicFunction,
    z: Complex64,
    reference: f64,
    inverted_amplitude_readout: bool,
) -> bool {
    match function {
        LogicFunction::Majority => z.re < 0.0,
        LogicFunction::Xor => {
            let bit = z.abs() < 0.5 * reference;
            if inverted_amplitude_readout {
                !bit
            } else {
                bit
            }
        }
    }
}

/// The full constructive-interference amplitude of a channel — all
/// sources in phase — used as the XOR decision reference.
///
/// # Errors
///
/// Same conditions as [`superpose_channel`].
pub fn constructive_reference(
    plan: &ChannelPlan,
    layout: &InlineLayout,
    channel: usize,
    amplitudes: &[f64],
) -> Result<f64, GateError> {
    let ch = plan.channel(channel)?;
    let detector = &layout.detectors()[detector_index(layout, channel)?];
    let mut reference = 0.0;
    for src in layout.sources().iter().filter(|s| s.channel == channel) {
        if src.input >= amplitudes.len() {
            return Err(GateError::InputCountMismatch {
                expected: src.input + 1,
                actual: amplitudes.len(),
            });
        }
        let dx = detector.position - src.position;
        reference += amplitudes[src.input] * (-dx / ch.attenuation_length).exp();
    }
    Ok(reference)
}

/// A gate compiled for evaluation: per-`(channel, input)` complex
/// factors with geometry, damping and drive amplitude folded in, plus
/// the per-channel XOR references and readout conventions.
///
/// An input bit only flips the sign of its factor (`φ ∈ {0, π}`), so an
/// evaluation is `m` multiply-adds per channel — no trigonometry on the
/// hot path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EnginePrep {
    function: LogicFunction,
    /// `factors[channel][input]` — the bit-0 phasor of that source at
    /// the detector.
    factors: Vec<Vec<Complex64>>,
    /// Full constructive amplitude per channel (XOR reference).
    references: Vec<f64>,
    /// Whether the channel uses inverted amplitude readout.
    inverted: Vec<bool>,
    /// Channel carrier frequencies in Hz.
    frequencies: Vec<f64>,
}

impl EnginePrep {
    /// Compiles the channel plan, layout, schedule and readout modes.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::MalformedLayout`] for layouts missing a
    /// detector or referencing out-of-range inputs — the error path
    /// that replaced the engine's former panic.
    pub(crate) fn compile(
        plan: &ChannelPlan,
        layout: &InlineLayout,
        schedule: &EnergySchedule,
        readout: &[ReadoutMode],
        function: LogicFunction,
    ) -> Result<Self, GateError> {
        let n = plan.len();
        let m = layout.input_count();
        if readout.len() != n {
            return Err(GateError::InputCountMismatch {
                expected: n,
                actual: readout.len(),
            });
        }
        if schedule.channel_count() != n {
            return Err(GateError::MalformedLayout {
                channel: schedule.channel_count(),
                reason: "energy schedule does not cover every channel",
            });
        }
        let mut factors = Vec::with_capacity(n);
        let mut references = Vec::with_capacity(n);
        for (c, ch) in plan.channels().iter().enumerate() {
            let amplitudes = schedule.amplitudes_for_channel(c);
            let detector = &layout.detectors()[detector_index(layout, c)?];
            let mut per_input = vec![Complex64::ZERO; m];
            let mut reference = 0.0;
            for src in layout.sources().iter().filter(|s| s.channel == c) {
                if src.input >= m {
                    return Err(GateError::MalformedLayout {
                        channel: c,
                        reason: "source references an input beyond the gate's operand count",
                    });
                }
                let dx = detector.position - src.position;
                let arrival = amplitudes[src.input] * (-dx / ch.attenuation_length).exp();
                per_input[src.input] += Complex64::from_polar(arrival, ch.wavenumber * dx);
                reference += arrival;
            }
            factors.push(per_input);
            references.push(reference);
        }
        Ok(EnginePrep {
            function,
            factors,
            references,
            inverted: readout
                .iter()
                .map(|r| *r == ReadoutMode::Inverted)
                .collect(),
            frequencies: plan.channels().iter().map(|c| c.frequency).collect(),
        })
    }

    /// Word width `n`.
    pub(crate) fn channel_count(&self) -> usize {
        self.factors.len()
    }

    /// Operand count `m`.
    pub(crate) fn input_count(&self) -> usize {
        self.factors.first().map_or(0, Vec::len)
    }

    /// Evaluates one channel for the input combination `combo`
    /// (bit `j` of `combo` = input `j`'s logic value).
    ///
    /// Hot path: callers guarantee `channel < channel_count()` and
    /// `combo < 2^m` (gate construction validates both), so this stays
    /// a debug assertion rather than a `Result`.
    pub(crate) fn channel_readout(&self, channel: usize, combo: usize) -> ChannelReadout {
        debug_assert!(
            channel < self.factors.len(),
            "channel {channel} outside the compiled prep"
        );
        debug_assert!(
            combo < 1usize << self.input_count(),
            "combo {combo} outside the gate's 2^m input combinations"
        );
        let factors = &self.factors[channel];
        let mut z = Complex64::ZERO;
        for (j, factor) in factors.iter().enumerate() {
            // Logic 1 drives at phase π: the factor's sign flips.
            if (combo >> j) & 1 == 1 {
                z -= *factor;
            } else {
                z += *factor;
            }
        }
        let logic = decode_channel(
            self.function,
            z,
            self.references[channel],
            self.inverted[channel],
        );
        ChannelReadout {
            channel,
            frequency: self.frequencies[channel],
            amplitude: z.abs(),
            phase: z.arg(),
            logic,
        }
    }

    /// The input combination channel `c` carries for `inputs`.
    ///
    /// # Errors
    ///
    /// Propagates bit-index errors for out-of-range channels.
    pub(crate) fn channel_combo(inputs: &[Word], channel: usize) -> Result<usize, GateError> {
        let mut combo = 0usize;
        for (j, word) in inputs.iter().enumerate() {
            combo |= (word.bit(channel)? as usize) << j;
        }
        Ok(combo)
    }

    /// Evaluates every channel for one operand set, returning only the
    /// decoded word — the logic-only hot path skips the readout
    /// allocation entirely. Operand shape must already be validated
    /// against the gate.
    ///
    /// # Errors
    ///
    /// Propagates word construction errors (cannot occur for validated
    /// operands).
    pub(crate) fn evaluate_word(&self, inputs: &[Word]) -> Result<Word, GateError> {
        let n = self.channel_count();
        let mut bits = 0u64;
        for c in 0..n {
            let readout = self.channel_readout(c, Self::channel_combo(inputs, c)?);
            bits |= (readout.logic as u64) << c;
        }
        Word::from_bits(bits, n)
    }

    /// Evaluates every channel for one operand set. Operand shape must
    /// already be validated against the gate.
    ///
    /// # Errors
    ///
    /// Propagates word construction errors (cannot occur for validated
    /// operands).
    pub(crate) fn evaluate_set(
        &self,
        inputs: &[Word],
    ) -> Result<(Word, Vec<ChannelReadout>), GateError> {
        let n = self.channel_count();
        let mut word = Word::zeros(n)?;
        let mut readouts = Vec::with_capacity(n);
        for c in 0..n {
            let readout = self.channel_readout(c, Self::channel_combo(inputs, c)?);
            word = word.with_bit(c, readout.logic)?;
            readouts.push(readout);
        }
        Ok((word, readouts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::DispersionModel;
    use crate::encoding::ReadoutMode;
    use crate::inline::LayoutSpec;
    use magnon_math::constants::GHZ;
    use magnon_physics::waveguide::Waveguide;

    fn setup(n: usize, m: usize, readout: ReadoutMode) -> (ChannelPlan, InlineLayout) {
        let guide = Waveguide::paper_default().unwrap();
        let plan =
            ChannelPlan::uniform(&guide, DispersionModel::Exchange, n, 10.0 * GHZ, 10.0 * GHZ)
                .unwrap();
        let layout =
            InlineLayout::solve(&plan, m, LayoutSpec::default(), &vec![readout; n]).unwrap();
        (plan, layout)
    }

    #[test]
    fn all_zeros_interferes_constructively_near_zero_phase() {
        let (plan, layout) = setup(3, 3, ReadoutMode::Direct);
        for c in 0..3 {
            let z = superpose_channel(&plan, &layout, c, &[false; 3], &[1.0; 3]).unwrap();
            assert!(z.re > 0.0, "channel {c}: phase should be ~0");
            // Almost all the amplitude survives (sub-micron propagation,
            // micron-scale attenuation).
            assert!(z.abs() > 2.0, "channel {c}: |z| = {}", z.abs());
            assert!(z.arg().abs() < 1e-3, "channel {c}: arg = {}", z.arg());
        }
    }

    #[test]
    fn all_ones_interferes_constructively_at_pi() {
        let (plan, layout) = setup(3, 3, ReadoutMode::Direct);
        for c in 0..3 {
            let z = superpose_channel(&plan, &layout, c, &[true; 3], &[1.0; 3]).unwrap();
            assert!(z.re < 0.0);
            assert!(z.abs() > 2.0);
        }
    }

    #[test]
    fn majority_phase_wins_in_two_vs_one() {
        let (plan, layout) = setup(2, 3, ReadoutMode::Direct);
        for c in 0..2 {
            // Two zeros, one one: phase ≈ 0, amplitude ≈ 1 source.
            let z = superpose_channel(&plan, &layout, c, &[false, true, false], &[1.0; 3]).unwrap();
            assert!(z.re > 0.0);
            assert!(z.abs() < 1.5 && z.abs() > 0.5);
            // Two ones, one zero: phase ≈ π.
            let z = superpose_channel(&plan, &layout, c, &[true, false, true], &[1.0; 3]).unwrap();
            assert!(z.re < 0.0);
        }
    }

    #[test]
    fn inverted_detector_flips_phase_geometrically() {
        let (plan, layout) = setup(2, 3, ReadoutMode::Inverted);
        for c in 0..2 {
            let z = superpose_channel(&plan, &layout, c, &[false; 3], &[1.0; 3]).unwrap();
            // All-zeros at a half-wavelength-offset detector: phase π.
            assert!(z.re < 0.0, "inverted channel {c} should read π for zeros");
        }
    }

    #[test]
    fn xor_cancellation() {
        let (plan, layout) = setup(2, 2, ReadoutMode::Direct);
        for c in 0..2 {
            let equal = superpose_channel(&plan, &layout, c, &[false, false], &[1.0; 2]).unwrap();
            let differ = superpose_channel(&plan, &layout, c, &[false, true], &[1.0; 2]).unwrap();
            let reference = constructive_reference(&plan, &layout, c, &[1.0; 2]).unwrap();
            assert!(equal.abs() > 0.9 * reference);
            assert!(
                differ.abs() < 0.2 * reference,
                "cancellation failed: {}",
                differ.abs()
            );
            assert!(!decode_channel(LogicFunction::Xor, equal, reference, false));
            assert!(decode_channel(LogicFunction::Xor, differ, reference, false));
        }
    }

    #[test]
    fn xor_inverted_readout_complements() {
        let z_small = Complex64::new(0.05, 0.0);
        let z_big = Complex64::new(1.9, 0.0);
        assert!(decode_channel(LogicFunction::Xor, z_small, 2.0, false));
        assert!(!decode_channel(LogicFunction::Xor, z_small, 2.0, true));
        assert!(!decode_channel(LogicFunction::Xor, z_big, 2.0, false));
        assert!(decode_channel(LogicFunction::Xor, z_big, 2.0, true));
    }

    #[test]
    fn majority_decode_sign_convention() {
        assert!(!decode_channel(
            LogicFunction::Majority,
            Complex64::new(0.8, 0.1),
            0.0,
            false
        ));
        assert!(decode_channel(
            LogicFunction::Majority,
            Complex64::new(-0.3, 0.2),
            0.0,
            false
        ));
    }

    #[test]
    fn unequal_amplitudes_shift_the_balance() {
        // The scalability hazard: if the far source is much weaker, a
        // 2-vs-1 majority can flip. With equalised amplitudes it cannot.
        let (plan, layout) = setup(2, 3, ReadoutMode::Direct);
        let z_eq = superpose_channel(&plan, &layout, 0, &[true, false, false], &[1.0; 3]).unwrap();
        assert!(z_eq.re > 0.0, "balanced amplitudes: majority of zeros wins");
        // Give the two logic-0 sources only a tenth of the amplitude.
        let z_skew =
            superpose_channel(&plan, &layout, 0, &[true, false, false], &[1.0, 0.05, 0.05])
                .unwrap();
        assert!(z_skew.re < 0.0, "skewed amplitudes flip the vote");
    }

    #[test]
    fn decay_reduces_far_source_contribution() {
        let (plan, layout) = setup(2, 3, ReadoutMode::Direct);
        // Drive only input 0 (farthest) vs only input 2 (nearest).
        let far = superpose_channel(&plan, &layout, 0, &[false; 3], &[1.0, 0.0, 0.0]).unwrap();
        let near = superpose_channel(&plan, &layout, 0, &[false; 3], &[0.0, 0.0, 1.0]).unwrap();
        assert!(far.abs() < near.abs(), "farther source must arrive weaker");
        assert!(far.abs() > 0.5 * near.abs(), "but not catastrophically so");
    }

    #[test]
    fn short_operand_slice_is_an_error_not_a_panic() {
        let (plan, layout) = setup(2, 3, ReadoutMode::Direct);
        assert!(matches!(
            superpose_channel(&plan, &layout, 0, &[false; 2], &[1.0; 2]),
            Err(GateError::InputCountMismatch { actual: 2, .. })
        ));
        assert!(matches!(
            constructive_reference(&plan, &layout, 0, &[1.0; 1]),
            Err(GateError::InputCountMismatch { actual: 1, .. })
        ));
    }

    #[test]
    fn prep_matches_free_function_evaluation() {
        let (plan, layout) = setup(4, 3, ReadoutMode::Direct);
        let schedule = EnergySchedule::equalizing(&plan, &layout).unwrap();
        let readout = vec![ReadoutMode::Direct; 4];
        let prep =
            EnginePrep::compile(&plan, &layout, &schedule, &readout, LogicFunction::Majority)
                .unwrap();
        assert_eq!(prep.channel_count(), 4);
        assert_eq!(prep.input_count(), 3);
        for c in 0..4 {
            for combo in 0..8usize {
                let bits: Vec<bool> = (0..3).map(|j| (combo >> j) & 1 == 1).collect();
                let z =
                    superpose_channel(&plan, &layout, c, &bits, schedule.amplitudes_for_channel(c))
                        .unwrap();
                let r = prep.channel_readout(c, combo);
                assert!(
                    (z.abs() - r.amplitude).abs() < 1e-9,
                    "channel {c} combo {combo}"
                );
                assert_eq!(
                    decode_channel(LogicFunction::Majority, z, 0.0, false),
                    r.logic,
                    "channel {c} combo {combo}"
                );
            }
        }
    }

    #[test]
    fn prep_evaluates_whole_words() {
        let (plan, layout) = setup(8, 3, ReadoutMode::Direct);
        let schedule = EnergySchedule::equalizing(&plan, &layout).unwrap();
        let prep = EnginePrep::compile(
            &plan,
            &layout,
            &schedule,
            &[ReadoutMode::Direct; 8],
            LogicFunction::Majority,
        )
        .unwrap();
        let a = Word::from_u8(0xAA);
        let b = Word::from_u8(0xCC);
        let c = Word::from_u8(0xF0);
        let (word, readouts) = prep.evaluate_set(&[a, b, c]).unwrap();
        assert_eq!(word.to_u8(), (0xAA & 0xCC) | (0xAA & 0xF0) | (0xCC & 0xF0));
        assert_eq!(readouts.len(), 8);
    }
}
