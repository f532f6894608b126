//! The data-parallel gate: builder, evaluation and verification.

use crate::backend::{BackendChoice, GateSession};
use crate::channel::{ChannelPlan, DispersionModel};
use crate::encoding::ReadoutMode;
use crate::engine::{ChannelReadout, EnginePrep};
use crate::error::GateError;
use crate::inline::{InlineLayout, LayoutSpec};
use crate::scalability::EnergySchedule;
use crate::truth::LogicFunction;
use crate::word::Word;
use magnon_math::constants::GHZ;
use magnon_physics::dispersion::DispersionRelation;
use magnon_physics::waveguide::Waveguide;

/// Identifies the physical waveguide a gate is patterned on.
///
/// The paper's companion work (*Multi-frequency Data Parallel Spin Wave
/// Logic Gates*, arXiv:2008.12220) extends frequency-division data
/// parallelism across **gates sharing one magnetic medium**: requests
/// for different gates on the same waveguide can ride one excitation
/// pass. Schedulers use this id to keep such gates on the same shard
/// and coalesce their work (see the `magnon-serve` crate).
///
/// Gates default to waveguide `0`, so every gate built without an
/// explicit id is considered co-located and cross-gate batchable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct WaveguideId(pub u64);

impl std::fmt::Display for WaveguideId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wg{}", self.0)
    }
}

/// Identifies a frequency lane on a waveguide.
///
/// The companion paper (*Multi-frequency Data Parallel Spin Wave Logic
/// Gates*, arXiv:2008.12220) shows that spin waves at different
/// frequencies coexist on one waveguide without interfering, so several
/// *different* gates can compute simultaneously on the same physical
/// channel as long as their frequency bands stay disjoint. A lane id
/// names one such band: gates sharing a [`WaveguideId`] but carrying
/// distinct lane ids are independent compute channels of one medium,
/// and the serving runtime coalesces their drains into a single
/// multi-lane excitation pass (see `magnon-serve`).
///
/// Gates default to lane `0`, so every pre-FDM gate keeps its old
/// single-lane behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LaneId(pub u16);

impl std::fmt::Display for LaneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lane{}", self.0)
    }
}

/// A gate's resolved frequency lane: which band it occupies on its
/// waveguide and the carrier's dispersion solution.
///
/// Built by [`ParallelGateBuilder::build`] from the gate's
/// [`ChannelPlan`]: the carrier is the spectral centre of the channel
/// band, and its wavenumber comes from the same
/// [`magnon_physics::dispersion`] branch the channels were resolved on.
/// Two gates on one waveguide may compute concurrently exactly when
/// their lanes' bands do not overlap (check with
/// [`ChannelPlan::guard_band_to`] or
/// [`crate::crosstalk::LaneIsolationReport`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyLane {
    /// The lane id (scheduling key next to [`WaveguideId`]).
    pub lane: LaneId,
    /// Carrier frequency in Hz (centre of the occupied band).
    pub carrier_frequency: f64,
    /// Carrier wavenumber in rad/m on the gate's dispersion branch.
    pub wavenumber: f64,
    /// Lowest channel frequency in Hz.
    pub band_low: f64,
    /// Highest channel frequency in Hz.
    pub band_high: f64,
}

impl FrequencyLane {
    /// Occupied bandwidth in Hz (zero for a single-channel gate).
    pub fn bandwidth(&self) -> f64 {
        self.band_high - self.band_low
    }

    /// `true` when this lane's band overlaps `other`'s — such gates
    /// must not share a waveguide.
    pub fn overlaps(&self, other: &FrequencyLane) -> bool {
        self.band_low <= other.band_high && other.band_low <= self.band_high
    }
}

/// Builder for [`ParallelGate`]s.
///
/// Defaults reproduce the paper's byte-wide 3-input majority gate:
/// 8 channels at 10–80 GHz, 3 inputs, direct readout, 10 nm × 50 nm
/// transducers with 1 nm clearance, amplitude equalisation on.
///
/// # Examples
///
/// ```
/// use magnon_core::prelude::*;
/// use magnon_physics::waveguide::Waveguide;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gate = ParallelGateBuilder::new(Waveguide::paper_default()?)
///     .channels(4)
///     .inputs(3)
///     .function(LogicFunction::Majority)
///     .build()?;
/// assert_eq!(gate.word_width(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParallelGateBuilder {
    waveguide: Waveguide,
    channel_count: usize,
    input_count: usize,
    function: LogicFunction,
    dispersion_model: DispersionModel,
    base_frequency: f64,
    frequency_step: f64,
    explicit_frequencies: Option<Vec<f64>>,
    readout: ReadoutChoice,
    layout_spec: LayoutSpec,
    equalize: bool,
    waveguide_id: WaveguideId,
    lane_id: LaneId,
}

#[derive(Debug, Clone)]
enum ReadoutChoice {
    Uniform(ReadoutMode),
    PerChannel(Vec<ReadoutMode>),
}

impl ParallelGateBuilder {
    /// Starts a builder for gates on `waveguide`.
    pub fn new(waveguide: Waveguide) -> Self {
        ParallelGateBuilder {
            waveguide,
            channel_count: 8,
            input_count: 3,
            function: LogicFunction::Majority,
            dispersion_model: DispersionModel::Exchange,
            base_frequency: 10.0 * GHZ,
            frequency_step: 10.0 * GHZ,
            explicit_frequencies: None,
            readout: ReadoutChoice::Uniform(ReadoutMode::Direct),
            layout_spec: LayoutSpec::default(),
            equalize: true,
            waveguide_id: WaveguideId::default(),
            lane_id: LaneId::default(),
        }
    }

    /// Sets the number of parallel channels `n` (word width).
    pub fn channels(mut self, n: usize) -> Self {
        self.channel_count = n;
        self
    }

    /// Sets the number of logic inputs `m`.
    pub fn inputs(mut self, m: usize) -> Self {
        self.input_count = m;
        self
    }

    /// Sets the logic function.
    pub fn function(mut self, function: LogicFunction) -> Self {
        self.function = function;
        self
    }

    /// Selects the dispersion branch (default
    /// [`DispersionModel::Exchange`], which the micromagnetic validator
    /// realises exactly).
    pub fn dispersion_model(mut self, model: DispersionModel) -> Self {
        self.dispersion_model = model;
        self
    }

    /// Sets the first channel frequency (default 10 GHz).
    pub fn base_frequency(mut self, f: f64) -> Self {
        self.base_frequency = f;
        self
    }

    /// Sets the channel frequency spacing (default 10 GHz).
    pub fn frequency_step(mut self, step: f64) -> Self {
        self.frequency_step = step;
        self
    }

    /// Uses explicit channel frequencies instead of the uniform grid.
    pub fn frequencies(mut self, freqs: Vec<f64>) -> Self {
        self.explicit_frequencies = Some(freqs);
        self
    }

    /// Applies one readout mode to every channel (default
    /// [`ReadoutMode::Direct`]).
    pub fn readout(mut self, mode: ReadoutMode) -> Self {
        self.readout = ReadoutChoice::Uniform(mode);
        self
    }

    /// Sets readout modes per channel (the paper's §III mixed
    /// direct/complemented outputs).
    pub fn readout_per_channel(mut self, modes: Vec<ReadoutMode>) -> Self {
        self.readout = ReadoutChoice::PerChannel(modes);
        self
    }

    /// Overrides transducer geometry.
    pub fn layout_spec(mut self, spec: LayoutSpec) -> Self {
        self.layout_spec = spec;
        self
    }

    /// Enables or disables the damping-compensating input-energy
    /// schedule (paper §V "Scalability"; default on). With equalisation
    /// off, far sources arrive weaker and large gates may misvote.
    pub fn equalize_amplitudes(mut self, on: bool) -> Self {
        self.equalize = on;
        self
    }

    /// Tags the gate with the physical waveguide it shares with other
    /// gates (default [`WaveguideId`] `0`). Schedulers coalesce
    /// requests across gates carrying the same id.
    pub fn on_waveguide(mut self, id: WaveguideId) -> Self {
        self.waveguide_id = id;
        self
    }

    /// Tags the gate with the frequency lane it occupies on its
    /// waveguide (default [`LaneId`] `0`). Gates on the same waveguide
    /// but different lanes are independent compute channels: schedulers
    /// coalesce their drains into one multi-lane pass. The lane id is a
    /// *name* for the band — the band itself is whatever frequencies
    /// the builder allocates, so co-located lanes should also use
    /// disjoint frequency plans (e.g. via
    /// [`ParallelGateBuilder::base_frequency`] /
    /// [`ParallelGateBuilder::frequencies`]).
    pub fn on_lane(mut self, lane: LaneId) -> Self {
        self.lane_id = lane;
        self
    }

    /// Builds the gate: allocates channels, solves the in-line layout
    /// and computes the excitation schedule.
    ///
    /// # Errors
    ///
    /// * [`GateError::UnsupportedFunction`] for invalid
    ///   function/input-count combinations.
    /// * [`GateError::BadChannelFrequency`] for unusable frequencies.
    /// * [`GateError::LayoutCollision`] when transducers cannot be
    ///   placed.
    /// * [`GateError::InputCountMismatch`] when per-channel readout
    ///   lists have the wrong length.
    pub fn build(self) -> Result<ParallelGate, GateError> {
        self.function.check_input_count(self.input_count)?;
        let plan = match &self.explicit_frequencies {
            Some(freqs) => {
                ChannelPlan::from_frequencies(&self.waveguide, self.dispersion_model, freqs)?
            }
            None => ChannelPlan::uniform(
                &self.waveguide,
                self.dispersion_model,
                self.channel_count,
                self.base_frequency,
                self.frequency_step,
            )?,
        };
        let readout = match self.readout {
            ReadoutChoice::Uniform(mode) => vec![mode; plan.len()],
            ReadoutChoice::PerChannel(modes) => {
                if modes.len() != plan.len() {
                    return Err(GateError::InputCountMismatch {
                        expected: plan.len(),
                        actual: modes.len(),
                    });
                }
                modes
            }
        };
        let layout = InlineLayout::solve(&plan, self.input_count, self.layout_spec, &readout)?;
        let schedule = if self.equalize {
            EnergySchedule::equalizing(&plan, &layout)?
        } else {
            EnergySchedule::flat(&plan, &layout)?
        };
        let prep = EnginePrep::compile(&plan, &layout, &schedule, &readout, self.function)?;
        let (band_low, band_high) = plan.band();
        let carrier = plan.carrier_frequency();
        let lane = FrequencyLane {
            lane: self.lane_id,
            carrier_frequency: carrier,
            wavenumber: plan.dispersion().wavenumber(carrier)?,
            band_low,
            band_high,
        };
        Ok(ParallelGate {
            waveguide: self.waveguide,
            plan,
            layout,
            function: self.function,
            readout,
            schedule,
            prep,
            waveguide_id: self.waveguide_id,
            lane,
        })
    }
}

/// An `n`-bit data-parallel, `m`-input spin-wave logic gate.
///
/// Built by [`ParallelGateBuilder`]. The builder compiles the channel
/// plan, in-line layout, equalised excitation schedule and readout
/// conventions into an evaluation prep **once**; afterwards the gate
/// can be evaluated
///
/// * single-shot with [`ParallelGate::evaluate`] (a thin wrapper over
///   the compiled prep),
/// * in batches through a [`GateSession`] obtained from
///   [`ParallelGate::session`], which streams many operand sets through
///   any [`crate::backend::SpinWaveBackend`] — analytic, precompiled
///   LUT, or the full LLG simulator.
#[derive(Debug, Clone)]
pub struct ParallelGate {
    waveguide: Waveguide,
    plan: ChannelPlan,
    layout: InlineLayout,
    function: LogicFunction,
    readout: Vec<ReadoutMode>,
    schedule: EnergySchedule,
    prep: EnginePrep,
    waveguide_id: WaveguideId,
    lane: FrequencyLane,
}

impl ParallelGate {
    /// The waveguide hosting the gate.
    pub fn waveguide(&self) -> &Waveguide {
        &self.waveguide
    }

    /// The shared-medium tag used for cross-gate scheduling.
    pub fn waveguide_id(&self) -> WaveguideId {
        self.waveguide_id
    }

    /// The frequency-lane tag: together with [`ParallelGate::waveguide_id`]
    /// this is the scheduling key — `(waveguide, lane)` names one
    /// independent compute channel of the shared medium.
    pub fn lane_id(&self) -> LaneId {
        self.lane.lane
    }

    /// The resolved frequency lane (carrier, wavenumber and occupied
    /// band) computed from the channel plan at build time.
    pub fn frequency_lane(&self) -> &FrequencyLane {
        &self.lane
    }

    /// The channel plan.
    pub fn channel_plan(&self) -> &ChannelPlan {
        &self.plan
    }

    /// The solved in-line layout.
    pub fn layout(&self) -> &InlineLayout {
        &self.layout
    }

    /// The logic function.
    pub fn function(&self) -> LogicFunction {
        self.function
    }

    /// Per-channel readout modes.
    pub fn readout(&self) -> &[ReadoutMode] {
        &self.readout
    }

    /// The excitation schedule (per input, per channel amplitudes).
    pub fn schedule(&self) -> &EnergySchedule {
        &self.schedule
    }

    /// Word width `n` (channel count).
    pub fn word_width(&self) -> usize {
        self.plan.len()
    }

    /// Input operand count `m`.
    pub fn input_count(&self) -> usize {
        self.prep.input_count()
    }

    /// The compiled evaluation prep shared by every backend.
    pub(crate) fn prep(&self) -> &EnginePrep {
        &self.prep
    }

    /// Fingerprint of what this gate *computes*: a hash over the
    /// compiled evaluation state (function, per-channel phasor
    /// factors, constructive references, readout inversions, carrier
    /// frequencies). Two gates with equal fingerprints produce
    /// bitwise-identical outputs for identical operands, whatever
    /// builder parameters they came from — the serving runtime uses
    /// this to decide which gates' requests may fuse into one batch.
    /// The [`WaveguideId`] deliberately does not participate.
    pub fn design_fingerprint(&self) -> u64 {
        self.prep.fingerprint()
    }

    /// Validates operand shape against the gate.
    ///
    /// # Errors
    ///
    /// * [`GateError::InputCountMismatch`] /
    ///   [`GateError::WordWidthMismatch`] for malformed operands.
    pub(crate) fn check_inputs(&self, inputs: &[Word]) -> Result<(), GateError> {
        if inputs.len() != self.input_count() {
            return Err(GateError::InputCountMismatch {
                expected: self.input_count(),
                actual: inputs.len(),
            });
        }
        for w in inputs {
            if w.width() != self.word_width() {
                return Err(GateError::WordWidthMismatch {
                    expected: self.word_width(),
                    actual: w.width(),
                });
            }
        }
        Ok(())
    }

    /// Evaluates the gate on `m` input words of width `n` using the
    /// analytic superposition engine.
    ///
    /// # Errors
    ///
    /// * [`GateError::InputCountMismatch`] /
    ///   [`GateError::WordWidthMismatch`] for malformed operands.
    ///
    /// # Examples
    ///
    /// ```
    /// use magnon_core::prelude::*;
    /// use magnon_physics::waveguide::Waveguide;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let gate = ParallelGateBuilder::new(Waveguide::paper_default()?)
    ///     .channels(8).inputs(3).build()?;
    /// let out = gate.evaluate(&[
    ///     Word::from_u8(0x0F),
    ///     Word::from_u8(0x33),
    ///     Word::from_u8(0x55),
    /// ])?;
    /// // MAJ(a,b,c) = ab | ac | bc = 0x17
    /// assert_eq!(out.word().to_u8(), 0x17);
    /// # Ok(())
    /// # }
    /// ```
    pub fn evaluate(&self, inputs: &[Word]) -> Result<GateOutput, GateError> {
        self.check_inputs(inputs)?;
        let (word, readouts) = self.prep.evaluate_set(inputs)?;
        Ok(GateOutput { word, readouts })
    }

    /// Opens an evaluation session on `choice`'s backend — the batch
    /// entry point. The session owns a clone of the gate, so it can
    /// outlive it.
    ///
    /// # Errors
    ///
    /// Propagates backend construction errors (e.g. a LUT over too many
    /// inputs for [`BackendChoice::Cached`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use magnon_core::backend::{BackendChoice, OperandSet};
    /// use magnon_core::prelude::*;
    /// use magnon_physics::waveguide::Waveguide;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let gate = ParallelGateBuilder::new(Waveguide::paper_default()?)
    ///     .channels(8).inputs(3).build()?;
    /// let mut session = gate.session(BackendChoice::Cached)?;
    /// let batch: Vec<OperandSet> = (0..4u8)
    ///     .map(|i| OperandSet::new(vec![
    ///         Word::from_u8(i), Word::from_u8(0x33), Word::from_u8(0x55),
    ///     ]))
    ///     .collect();
    /// let outputs = session.evaluate_batch(&batch)?;
    /// assert_eq!(outputs.len(), 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn session(&self, choice: BackendChoice) -> Result<GateSession, GateError> {
        GateSession::new(self.clone(), choice)
    }

    /// Exhaustively verifies the gate against the logic truth table by
    /// driving every input combination on every channel (combinations
    /// are batched across channels, the paper's Fig. 3 trick: with
    /// `n = 2^m` every combination runs in a single evaluation).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn verify_truth_table(&self) -> Result<TruthReport, GateError> {
        let n = self.word_width();
        let m = self.input_count();
        let combos = 1usize << m;
        let expected_table = self.function.truth_table(m)?;
        let mut failures = Vec::new();
        let mut checked = 0usize;

        let mut combo = 0usize;
        while combo < combos {
            // Assign combination (combo + c) mod combos to channel c.
            let mut inputs = vec![Word::zeros(n)?; m];
            for c in 0..n {
                let assigned = (combo + c) % combos;
                for (j, word) in inputs.iter_mut().enumerate() {
                    *word = word.with_bit(c, (assigned >> j) & 1 == 1)?;
                }
            }
            let out = self.evaluate(&inputs)?;
            for c in 0..n {
                let assigned = (combo + c) % combos;
                // Each batch covers `n` consecutive combos; only count
                // each combo once.
                if assigned >= combo && assigned < combo + n.min(combos - combo) {
                    let expected = self.readout[c].apply(expected_table[assigned]);
                    let got = out.word().bit(c)?;
                    checked += 1;
                    if got != expected {
                        failures.push(TruthFailure {
                            combination: assigned,
                            channel: c,
                            expected,
                            got,
                        });
                    }
                }
            }
            combo += n.max(1).min(combos);
        }
        Ok(TruthReport {
            combinations: combos,
            checked,
            failures,
        })
    }
}

/// Result of one gate evaluation.
#[derive(Debug, Clone)]
pub struct GateOutput {
    word: Word,
    readouts: Vec<ChannelReadout>,
}

impl GateOutput {
    /// Assembles an output from a decoded word and its diagnostics.
    pub(crate) fn new(word: Word, readouts: Vec<ChannelReadout>) -> Self {
        GateOutput { word, readouts }
    }

    /// Wraps a bare decoded word as a logic-only output: `readouts()`
    /// answers an empty slice. `magnon-serve`'s drains reply with
    /// these, since wire responses carry only logic words, skipping the
    /// per-channel diagnostics allocation.
    pub fn logic_only(word: Word) -> Self {
        GateOutput {
            word,
            readouts: Vec::new(),
        }
    }

    /// The decoded output word.
    pub fn word(&self) -> Word {
        self.word
    }

    /// Per-channel amplitude/phase diagnostics.
    pub fn readouts(&self) -> &[ChannelReadout] {
        &self.readouts
    }
}

/// One truth-table mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruthFailure {
    /// The input combination (bit `j` = input `j`).
    pub combination: usize,
    /// The channel on which it was evaluated.
    pub channel: usize,
    /// Expected output bit.
    pub expected: bool,
    /// Observed output bit.
    pub got: bool,
}

/// Outcome of [`ParallelGate::verify_truth_table`].
#[derive(Debug, Clone)]
pub struct TruthReport {
    /// Total input combinations (2^m).
    pub combinations: usize,
    /// Number of (combination, channel) checks performed.
    pub checked: usize,
    /// All mismatches (empty for a correct gate).
    pub failures: Vec<TruthFailure>,
}

impl TruthReport {
    /// `true` when every combination decoded correctly.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn byte_majority() -> ParallelGate {
        ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(3)
            .function(LogicFunction::Majority)
            .build()
            .unwrap()
    }

    #[test]
    fn defaults_match_paper() {
        let gate = byte_majority();
        assert_eq!(gate.word_width(), 8);
        assert_eq!(gate.input_count(), 3);
        assert_eq!(gate.function(), LogicFunction::Majority);
        assert_eq!(gate.channel_plan().frequencies()[0], 10.0 * GHZ);
        assert_eq!(gate.channel_plan().frequencies()[7], 80.0 * GHZ);
        assert_eq!(gate.waveguide_id(), WaveguideId::default());
    }

    #[test]
    fn waveguide_id_tags_gates_for_cross_gate_scheduling() {
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(4)
            .inputs(3)
            .on_waveguide(WaveguideId(7))
            .build()
            .unwrap();
        assert_eq!(gate.waveguide_id(), WaveguideId(7));
        assert_eq!(gate.waveguide_id().to_string(), "wg7");
        assert!(WaveguideId(7) > WaveguideId(0));
    }

    #[test]
    fn frequency_lanes_resolve_carrier_band_and_wavenumber() {
        use magnon_physics::dispersion::DispersionRelation;
        // Default gates sit on lane 0 with the 10–80 GHz paper band.
        let gate = byte_majority();
        let lane = gate.frequency_lane();
        assert_eq!(gate.lane_id(), LaneId(0));
        assert_eq!(lane.band_low, 10.0 * GHZ);
        assert_eq!(lane.band_high, 80.0 * GHZ);
        assert_eq!(lane.carrier_frequency, 45.0 * GHZ);
        assert_eq!(lane.bandwidth(), 70.0 * GHZ);
        // The carrier wavenumber solves the same dispersion branch the
        // channels were resolved on.
        let k = lane.wavenumber;
        assert!(k > 0.0);
        let back = gate.channel_plan().dispersion().frequency(k);
        assert!((back - lane.carrier_frequency).abs() < 1e6);

        // A second lane on a 100 GHz band does not overlap lane 0.
        let upper = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(3)
            .base_frequency(100.0 * GHZ)
            .on_lane(LaneId(1))
            .build()
            .unwrap();
        assert_eq!(upper.lane_id(), LaneId(1));
        assert_eq!(upper.lane_id().to_string(), "lane1");
        assert!(!upper.frequency_lane().overlaps(lane));
        assert!(upper.frequency_lane().wavenumber > lane.wavenumber);
        // And the shifted-band gate still votes correctly.
        assert!(upper.verify_truth_table().unwrap().all_passed());

        // Overlapping bands are detected whatever the lane ids say.
        let shifted = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(3)
            .base_frequency(50.0 * GHZ)
            .on_lane(LaneId(2))
            .build()
            .unwrap();
        assert!(shifted.frequency_lane().overlaps(lane));
    }

    #[test]
    fn byte_majority_matches_boolean_identity() {
        let gate = byte_majority();
        for (a, b, c) in [
            (0x00u8, 0x00u8, 0x00u8),
            (0xFF, 0xFF, 0xFF),
            (0xAA, 0xCC, 0xF0),
            (0x01, 0x80, 0xFF),
            (0x37, 0x91, 0x5E),
            (0x13, 0x57, 0x9B),
        ] {
            let out = gate
                .evaluate(&[Word::from_u8(a), Word::from_u8(b), Word::from_u8(c)])
                .unwrap();
            let expected = (a & b) | (a & c) | (b & c);
            assert_eq!(out.word().to_u8(), expected, "MAJ({a:#x},{b:#x},{c:#x})");
        }
    }

    #[test]
    fn truth_table_verification_passes() {
        let gate = byte_majority();
        let report = gate.verify_truth_table().unwrap();
        assert!(report.all_passed(), "failures: {:?}", report.failures);
        assert_eq!(report.combinations, 8);
        assert!(report.checked >= 8);
    }

    #[test]
    fn xor_gate_works() {
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(4)
            .inputs(2)
            .function(LogicFunction::Xor)
            .build()
            .unwrap();
        let a = Word::from_bits(0b0011, 4).unwrap();
        let b = Word::from_bits(0b0101, 4).unwrap();
        let out = gate.evaluate(&[a, b]).unwrap();
        assert_eq!(out.word().bits(), 0b0110);
        assert!(gate.verify_truth_table().unwrap().all_passed());
    }

    #[test]
    fn inverted_readout_complements_majority() {
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(4)
            .inputs(3)
            .readout(ReadoutMode::Inverted)
            .build()
            .unwrap();
        let a = Word::from_bits(0b1111, 4).unwrap();
        let b = Word::from_bits(0b0011, 4).unwrap();
        let c = Word::from_bits(0b0101, 4).unwrap();
        let out = gate.evaluate(&[a, b, c]).unwrap();
        let maj = 0b0001u64 | 0b0101 & 0b0011 | 0b1111 & (0b0011 | 0b0101);
        let expected = !((0b1111 & 0b0011) | (0b1111 & 0b0101) | (0b0011 & 0b0101)) & 0b1111;
        let _ = maj;
        assert_eq!(out.word().bits(), expected);
        assert!(gate.verify_truth_table().unwrap().all_passed());
    }

    #[test]
    fn mixed_readout_modes() {
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(4)
            .inputs(3)
            .readout_per_channel(vec![
                ReadoutMode::Direct,
                ReadoutMode::Inverted,
                ReadoutMode::Direct,
                ReadoutMode::Inverted,
            ])
            .build()
            .unwrap();
        assert!(gate.verify_truth_table().unwrap().all_passed());
    }

    #[test]
    fn input_validation() {
        let gate = byte_majority();
        // Wrong operand count.
        assert!(matches!(
            gate.evaluate(&[Word::from_u8(0), Word::from_u8(0)]),
            Err(GateError::InputCountMismatch { .. })
        ));
        // Wrong width.
        let narrow = Word::zeros(4).unwrap();
        assert!(matches!(
            gate.evaluate(&[narrow, narrow, narrow]),
            Err(GateError::WordWidthMismatch { .. })
        ));
    }

    #[test]
    fn builder_rejects_bad_configs() {
        let g = Waveguide::paper_default().unwrap();
        // Even-input majority.
        assert!(ParallelGateBuilder::new(g).inputs(4).build().is_err());
        // 3-input XOR.
        assert!(ParallelGateBuilder::new(g)
            .function(LogicFunction::Xor)
            .inputs(3)
            .build()
            .is_err());
        // Below-FMR base frequency.
        assert!(ParallelGateBuilder::new(g)
            .base_frequency(1.0 * GHZ)
            .build()
            .is_err());
        // Mismatched per-channel readout list.
        assert!(ParallelGateBuilder::new(g)
            .channels(4)
            .readout_per_channel(vec![ReadoutMode::Direct; 3])
            .build()
            .is_err());
    }

    #[test]
    fn explicit_frequencies() {
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .frequencies(vec![12.0 * GHZ, 31.0 * GHZ, 64.0 * GHZ])
            .inputs(3)
            .build()
            .unwrap();
        assert_eq!(gate.word_width(), 3);
        assert!(gate.verify_truth_table().unwrap().all_passed());
    }

    #[test]
    fn five_input_majority_gate() {
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(4)
            .inputs(5)
            .build()
            .unwrap();
        assert!(gate.verify_truth_table().unwrap().all_passed());
    }

    #[test]
    fn unequalized_gate_still_correct_at_paper_scale() {
        // At the byte-gate's sub-micron span, damping skew is small
        // enough that even a flat excitation schedule votes correctly —
        // consistent with the paper needing no graded energies for m=3.
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(3)
            .equalize_amplitudes(false)
            .build()
            .unwrap();
        assert!(gate.verify_truth_table().unwrap().all_passed());
    }

    #[test]
    fn readouts_expose_amplitude_and_phase() {
        let gate = byte_majority();
        let out = gate
            .evaluate(&[Word::from_u8(0), Word::from_u8(0), Word::from_u8(0)])
            .unwrap();
        assert_eq!(out.readouts().len(), 8);
        for r in out.readouts() {
            assert!(r.amplitude > 0.0);
            assert!(!r.logic);
            assert!(r.phase.abs() < 0.1, "all-zeros phase should be ~0");
        }
    }
}
