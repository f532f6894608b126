//! Pluggable evaluation backends and the batched session API.
//!
//! The paper's core claim is data parallelism: one waveguide evaluates
//! `n` logic results per pass. This module extends that parallelism
//! across *operand sets* and across *evaluation engines*:
//!
//! * [`SpinWaveBackend`] — the evaluation contract. A backend is bound
//!   to one [`ParallelGate`] and turns operand words into a
//!   [`GateOutput`], one set at a time or in batches.
//! * [`AnalyticBackend`] — the wave-superposition engine
//!   ([`crate::engine`]), with rayon data-parallelism across the sets
//!   of a batch.
//! * [`CachedBackend`] — a truth-table backend: every logic word comes
//!   from the gate's [`GateTable`], channel masks folded once from the
//!   `n · 2^m` per-channel analytic readouts, and each set is answered
//!   by one sum of products over its operand words. Full outputs
//!   recompute their analog readouts from the analytic prep. Serving
//!   runtimes share one table per gate across their worker threads.
//! * [`MicromagBackend`] — adapts
//!   [`crate::micromag_bridge::MicromagValidator`] so full LLG
//!   validation runs through the *same* interface (the calibration run
//!   is cached across the whole session).
//! * [`GateSession`] — owns one backend and precomputes everything an
//!   evaluation needs exactly once; [`GateSession::evaluate_batch`]
//!   then streams any number of [`OperandSet`]s through it.
//!
//! Pick a backend with [`BackendChoice`]; switching a whole circuit
//! from analytic to cached to micromagnetic evaluation is a one-line
//! change (see `magnon_circuits::netlist`).

use crate::engine::ChannelReadout;
use crate::error::GateError;
use crate::gate::{GateOutput, ParallelGate};
use crate::micromag_bridge::{MicromagValidator, ValidationSettings};
use crate::word::Word;
use rayon::prelude::*;

/// Caller-chosen tag carried with each served request, so completions
/// can be matched out of order: the serving scheduler echoes it on
/// every reply.
pub type RequestTag = u64;

/// One gate invocation's operand words (`m` words of width `n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandSet {
    words: Vec<Word>,
}

impl OperandSet {
    /// Wraps `words` as one operand set.
    pub fn new(words: Vec<Word>) -> Self {
        OperandSet { words }
    }

    /// The operand words.
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// Unwraps into the operand words.
    pub fn into_words(self) -> Vec<Word> {
        self.words
    }
}

impl From<Vec<Word>> for OperandSet {
    fn from(words: Vec<Word>) -> Self {
        OperandSet::new(words)
    }
}

impl From<&[Word]> for OperandSet {
    fn from(words: &[Word]) -> Self {
        OperandSet::new(words.to_vec())
    }
}

/// LUT-effectiveness counters, kept only because the `perfbench`
/// benchmark still reads them (see [`GateSession::lut_stats`]); they go
/// when that read does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LutStats {
    /// Entries computed on demand. Always 0: a [`GateTable`] is built
    /// whole before its first lookup.
    pub misses: u64,
}

/// The evaluation contract every engine implements.
///
/// A backend is constructed around one gate; `evaluate` answers a
/// single operand set, `evaluate_batch` any number of them. The default
/// batch implementation maps `evaluate` — backends override it when
/// they can do better (the analytic backend parallelises across sets,
/// the cached backend serves from its [`GateTable`]).
///
/// Backends are `Send + Sync` so sessions can move between threads.
pub trait SpinWaveBackend: Send + Sync {
    /// Stable identifier for reports and logs.
    fn name(&self) -> &'static str;

    /// The gate this backend evaluates.
    fn gate(&self) -> &ParallelGate;

    /// Evaluates one operand set.
    ///
    /// # Errors
    ///
    /// * [`GateError::InputCountMismatch`] /
    ///   [`GateError::WordWidthMismatch`] for malformed operands.
    /// * Backend-specific failures (e.g. simulation errors).
    fn evaluate(&mut self, inputs: &[Word]) -> Result<GateOutput, GateError>;

    /// Evaluates many operand sets, preserving order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpinWaveBackend::evaluate`]; the first
    /// failing set aborts the batch.
    fn evaluate_batch(&mut self, sets: &[OperandSet]) -> Result<Vec<GateOutput>, GateError> {
        sets.iter().map(|set| self.evaluate(set.words())).collect()
    }

    /// Evaluates many operand sets, returning only the decoded logic
    /// words — no per-channel readout diagnostics. The default maps
    /// [`SpinWaveBackend::evaluate_batch`] and discards the readouts;
    /// backends with a faster logic-only path override it (the cached
    /// backend answers straight from its table's kernel).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpinWaveBackend::evaluate_batch`].
    fn evaluate_batch_logic(&mut self, sets: &[OperandSet]) -> Result<Vec<Word>, GateError> {
        Ok(self
            .evaluate_batch(sets)?
            .into_iter()
            .map(|output| output.word())
            .collect())
    }
}

/// Selects and constructs a backend; [`Default`] is the analytic
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendChoice {
    /// Complex wave superposition (exact analytic model).
    #[default]
    Analytic,
    /// Lookups in the gate's [`GateTable`], built once from the analytic
    /// engine.
    Cached,
    /// Full LLG micromagnetic simulation with the given settings.
    Micromag(ValidationSettings),
}

impl BackendChoice {
    /// Instantiates the chosen backend around `gate`.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures
    /// ([`CachedBackend::new`]'s table-size cap).
    pub fn instantiate(self, gate: ParallelGate) -> Result<Box<dyn SpinWaveBackend>, GateError> {
        Ok(match self {
            BackendChoice::Analytic => Box::new(AnalyticBackend::new(gate)),
            BackendChoice::Cached => Box::new(CachedBackend::new(gate)?),
            BackendChoice::Micromag(settings) => {
                Box::new(MicromagBackend::with_settings(gate, settings))
            }
        })
    }
}

/// The analytic wave-superposition engine as a backend.
///
/// All geometry, damping and drive amplitudes were folded into the
/// gate's compiled prep at build time; a batch fans operand sets out
/// across rayon workers.
#[derive(Debug, Clone)]
pub struct AnalyticBackend {
    gate: ParallelGate,
}

impl AnalyticBackend {
    /// Wraps `gate` in the analytic engine.
    pub fn new(gate: ParallelGate) -> Self {
        AnalyticBackend { gate }
    }
}

impl SpinWaveBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn gate(&self) -> &ParallelGate {
        &self.gate
    }

    fn evaluate(&mut self, inputs: &[Word]) -> Result<GateOutput, GateError> {
        self.gate.evaluate(inputs)
    }

    fn evaluate_batch(&mut self, sets: &[OperandSet]) -> Result<Vec<GateOutput>, GateError> {
        // Validate the whole batch up front so workers run the pure
        // hot path.
        for set in sets {
            self.gate.check_inputs(set.words())?;
        }
        let prep = self.gate.prep();
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        if workers > 1 && sets.len() > 1 {
            return sets
                .par_iter()
                .map(|set| {
                    let (word, readouts) = prep.evaluate_set(set.words())?;
                    Ok(GateOutput::new(word, readouts))
                })
                .collect();
        }
        // Single worker: a direct loop skips the fan-out/collect
        // machinery.
        let mut outputs = Vec::with_capacity(sets.len());
        for set in sets {
            let (word, readouts) = prep.evaluate_set(set.words())?;
            outputs.push(GateOutput::new(word, readouts));
        }
        Ok(outputs)
    }

    fn evaluate_batch_logic(&mut self, sets: &[OperandSet]) -> Result<Vec<Word>, GateError> {
        for set in sets {
            self.gate.check_inputs(set.words())?;
        }
        let prep = self.gate.prep();
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        if workers > 1 && sets.len() > 1 {
            return sets
                .par_iter()
                .map(|set| prep.evaluate_word(set.words()))
                .collect();
        }
        sets.iter()
            .map(|set| prep.evaluate_word(set.words()))
            .collect()
    }
}

/// Largest [`GateTable`], in channel readouts (`n · 2^m`), that
/// [`GateTable::new`] builds: at ~0.12 µs per readout a table this size
/// takes ~0.1 s, and the 16-input × 64-channel extreme (2^22 readouts)
/// would stall its builder for ~0.5 s.
pub const MAX_TABLE_ENTRIES: usize = 1 << 20;

/// The input combination channel `channel` carries for validated
/// operands: bit `j` = input `j`'s bit on that channel.
fn combo_of(inputs: &[Word], channel: usize) -> usize {
    let mut combo = 0usize;
    for (j, word) in inputs.iter().enumerate() {
        combo |= (((word.bits() >> channel) & 1) as usize) << j;
    }
    combo
}

/// A gate's complete truth table as channel masks, built once and
/// read-only after.
///
/// Each channel's decode depends only on the `m` input bits it carries,
/// so a gate is fully described by `n · 2^m` channel readouts from its
/// analytic device model. The table folds them into `2^m` channel
/// masks: bit `c` of `mask[k]` is channel `c`'s decoded bit for input
/// combination `k`. It keeps only the non-zero masks of the sparser
/// polarity: the ones, or the zeros with the kernel's answer
/// complemented. It is built from the gate's own frequency plan, so FDM
/// lanes with different plans get different masks (arXiv:2008.12220).
///
/// The kernel, [`GateTable::word`], reads through `&self`, so one table
/// can be shared by any number of threads.
#[derive(Debug, Clone)]
pub struct GateTable {
    inputs: usize,
    /// An all-zeros word of the gate's width: the kernel's outputs are
    /// built from it, so they need no fallible width check.
    zero: Word,
    /// `(combo, mask)` for every combination whose mask is non-zero in
    /// the kept polarity.
    terms: Vec<(usize, u64)>,
    /// Whether `terms` hold the zeros' masks.
    invert: bool,
}

impl GateTable {
    /// The readout count (`n · 2^m`) a table for `gate` would hold,
    /// saturating at `usize::MAX`.
    pub fn entries_for(gate: &ParallelGate) -> usize {
        u32::try_from(gate.input_count())
            .ok()
            .and_then(|m| 1usize.checked_shl(m))
            .and_then(|combos| combos.checked_mul(gate.word_width()))
            .unwrap_or(usize::MAX)
    }

    /// Builds `gate`'s table from `n · 2^m` channel readouts of the
    /// analytic device model.
    ///
    /// # Errors
    ///
    /// * [`GateError::UnsupportedFunction`] when the table would fold
    ///   more than [`MAX_TABLE_ENTRIES`] readouts.
    /// * [`GateError::InvalidParameter`] for a gate whose word width is
    ///   outside `1..=64`.
    pub fn new(gate: &ParallelGate) -> Result<Self, GateError> {
        if Self::entries_for(gate) > MAX_TABLE_ENTRIES {
            return Err(GateError::UnsupportedFunction {
                reason: "truth table exceeds 2^20 channel readouts (n · 2^m)",
            });
        }
        let zero = Word::zeros(gate.word_width())?;
        let full = zero.not().bits();
        let prep = gate.prep();
        let masks: Vec<u64> = (0..1usize << gate.input_count())
            .map(|combo| {
                (0..gate.word_width()).fold(0u64, |mask, c| {
                    mask | u64::from(prep.channel_readout(c, combo).logic) << c
                })
            })
            .collect();
        let ones = masks.iter().filter(|&&mask| mask != 0).count();
        let zeros = masks.iter().filter(|&&mask| mask != full).count();
        let invert = zeros < ones;
        let mut terms = Vec::with_capacity(ones.min(zeros));
        terms.extend(
            masks
                .into_iter()
                .map(|mask| if invert { !mask & full } else { mask })
                .enumerate()
                .filter(|&(_, mask)| mask != 0),
        );
        Ok(GateTable {
            inputs: gate.input_count(),
            zero,
            terms,
            invert,
        })
    }

    /// Channel readouts folded into the table (`n · 2^m`).
    pub fn entries(&self) -> usize {
        self.zero.width() << self.inputs
    }

    /// The kernel: one operand set's output word.
    ///
    /// Channels are the bits of a word, so the operand words are already
    /// the layout a sum of products needs. Each kept term ANDs its mask
    /// with its combination's minterm over the words (`w_j` where the
    /// combination's bit `j` is 1, `!w_j` where it is 0), and the terms
    /// OR together; the sum is complemented when the table keeps the
    /// zeros. Every channel answers at once.
    ///
    /// Callers validate operand shapes first
    /// ([`ParallelGate::check_inputs`]). A malformed set is answered
    /// rather than rejected: a missing operand reads as zeros, and bits
    /// past the word width are ignored.
    pub fn word(&self, inputs: &[Word]) -> Word {
        let mut sum = 0u64;
        for &(combo, mask) in &self.terms {
            let mut term = mask;
            for j in 0..self.inputs {
                let bits = inputs.get(j).map_or(0, |word| word.bits());
                term &= if (combo >> j) & 1 == 1 { bits } else { !bits };
            }
            sum |= term;
        }
        self.zero.with_bits(if self.invert { !sum } else { sum })
    }
}

/// The truth-table backend: every evaluation is a lookup in the gate's
/// [`GateTable`], built whole at construction.
#[derive(Debug, Clone)]
pub struct CachedBackend {
    gate: ParallelGate,
    table: GateTable,
}

impl CachedBackend {
    /// Wraps `gate` in a table backend, building its whole table.
    ///
    /// # Errors
    ///
    /// [`GateTable::new`]'s conditions (a table over
    /// [`MAX_TABLE_ENTRIES`] readouts).
    pub fn new(gate: ParallelGate) -> Result<Self, GateError> {
        let table = GateTable::new(&gate)?;
        Ok(CachedBackend { gate, table })
    }

    /// The full output for validated operands: the kernel's word, and
    /// each channel's analog readout recomputed from the analytic prep
    /// (the table keeps none).
    fn output(&self, inputs: &[Word]) -> GateOutput {
        let prep = self.gate.prep();
        let readouts = (0..self.gate.word_width())
            .map(|c| prep.channel_readout(c, combo_of(inputs, c)))
            .collect();
        GateOutput::new(self.table.word(inputs), readouts)
    }
}

impl SpinWaveBackend for CachedBackend {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn gate(&self) -> &ParallelGate {
        &self.gate
    }

    fn evaluate(&mut self, inputs: &[Word]) -> Result<GateOutput, GateError> {
        self.gate.check_inputs(inputs)?;
        Ok(self.output(inputs))
    }

    fn evaluate_batch(&mut self, sets: &[OperandSet]) -> Result<Vec<GateOutput>, GateError> {
        for set in sets {
            self.gate.check_inputs(set.words())?;
        }
        Ok(sets.iter().map(|set| self.output(set.words())).collect())
    }

    fn evaluate_batch_logic(&mut self, sets: &[OperandSet]) -> Result<Vec<Word>, GateError> {
        for set in sets {
            self.gate.check_inputs(set.words())?;
        }
        Ok(sets
            .iter()
            .map(|set| self.table.word(set.words()))
            .collect())
    }
}

/// The full LLG micromagnetic simulator as a backend — the paper's
/// OOMMF methodology behind the same trait as the analytic engine.
///
/// The all-zeros calibration run happens once per backend and is reused
/// for every subsequent set (including across batches).
#[derive(Debug, Clone)]
pub struct MicromagBackend {
    gate: ParallelGate,
    settings: ValidationSettings,
    calibration: Option<Vec<(f64, f64)>>,
}

impl MicromagBackend {
    /// Wraps `gate` with default validation settings.
    pub fn new(gate: ParallelGate) -> Self {
        Self::with_settings(gate, ValidationSettings::default())
    }

    /// Wraps `gate` with custom validation settings.
    pub fn with_settings(gate: ParallelGate, settings: ValidationSettings) -> Self {
        MicromagBackend {
            gate,
            settings,
            calibration: None,
        }
    }

    /// The simulation settings in effect.
    pub fn settings(&self) -> &ValidationSettings {
        &self.settings
    }

    /// Whether the calibration run has already happened.
    pub fn is_calibrated(&self) -> bool {
        self.calibration.is_some()
    }
}

impl SpinWaveBackend for MicromagBackend {
    fn name(&self) -> &'static str {
        "micromag"
    }

    fn gate(&self) -> &ParallelGate {
        &self.gate
    }

    fn evaluate(&mut self, inputs: &[Word]) -> Result<GateOutput, GateError> {
        let mut validator = MicromagValidator::with_settings(&self.gate, self.settings);
        if let Some(calibration) = self.calibration.clone() {
            validator.import_calibration(calibration)?;
        }
        let reading = validator.evaluate(inputs)?;
        self.calibration = validator.export_calibration();

        let n = self.gate.word_width();
        let mut readouts = Vec::with_capacity(n);
        for c in 0..n {
            readouts.push(ChannelReadout {
                channel: c,
                frequency: self.gate.channel_plan().channels()[c].frequency,
                amplitude: reading.amplitudes[c],
                phase: reading.phase_deltas[c],
                logic: reading.word.bit(c)?,
            });
        }
        Ok(GateOutput::new(reading.word, readouts))
    }
}

/// An open evaluation session: one gate, one backend, everything
/// precomputed once up front.
///
/// Obtained from [`ParallelGate::session`] or assembled directly with
/// [`GateSession::with_backend`] around any [`SpinWaveBackend`].
pub struct GateSession {
    backend: Box<dyn SpinWaveBackend>,
    sets_evaluated: u64,
}

impl GateSession {
    /// Opens a session evaluating `gate` on `choice`'s backend.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures.
    pub fn new(gate: ParallelGate, choice: BackendChoice) -> Result<Self, GateError> {
        Ok(GateSession {
            backend: choice.instantiate(gate)?,
            sets_evaluated: 0,
        })
    }

    /// Opens a session around an existing backend (e.g. a custom
    /// implementation of [`SpinWaveBackend`]).
    pub fn with_backend(backend: Box<dyn SpinWaveBackend>) -> Self {
        GateSession {
            backend,
            sets_evaluated: 0,
        }
    }

    /// The gate under evaluation.
    pub fn gate(&self) -> &ParallelGate {
        self.backend.gate()
    }

    /// The active backend's name (`"analytic"`, `"cached"`,
    /// `"micromag"`, …).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Operand sets evaluated through this session so far.
    pub fn sets_evaluated(&self) -> u64 {
        self.sets_evaluated
    }

    /// Evaluates one operand set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpinWaveBackend::evaluate`].
    pub fn evaluate(&mut self, inputs: &[Word]) -> Result<GateOutput, GateError> {
        let output = self.backend.evaluate(inputs)?;
        self.sets_evaluated += 1;
        Ok(output)
    }

    /// Streams a batch of operand sets through the backend, preserving
    /// order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpinWaveBackend::evaluate_batch`].
    pub fn evaluate_batch(&mut self, sets: &[OperandSet]) -> Result<Vec<GateOutput>, GateError> {
        let outputs = self.backend.evaluate_batch(sets)?;
        self.sets_evaluated += outputs.len() as u64;
        Ok(outputs)
    }

    /// Streams a batch through the backend's logic-only path: bare
    /// output words, no per-channel readout diagnostics (see
    /// [`SpinWaveBackend::evaluate_batch_logic`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpinWaveBackend::evaluate_batch`].
    pub fn evaluate_batch_logic(&mut self, sets: &[OperandSet]) -> Result<Vec<Word>, GateError> {
        let words = self.backend.evaluate_batch_logic(sets)?;
        self.sets_evaluated += words.len() as u64;
        Ok(words)
    }

    /// A no-op: a cached session's table is built whole when the
    /// session opens. Kept only because the `perfbench` benchmark still
    /// calls it; it goes when that call does.
    pub fn warm_all(&mut self) {}

    /// Always [`LutStats::default`] (zero misses). Kept only because the
    /// `perfbench` benchmark still reads it; it goes when that read
    /// does.
    pub fn lut_stats(&self) -> Option<LutStats> {
        Some(LutStats::default())
    }
}

impl std::fmt::Debug for GateSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateSession")
            .field("backend", &self.backend.name())
            .field("sets_evaluated", &self.sets_evaluated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::ParallelGateBuilder;
    use crate::truth::LogicFunction;
    use magnon_physics::waveguide::Waveguide;

    fn byte_majority() -> ParallelGate {
        ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(3)
            .function(LogicFunction::Majority)
            .build()
            .unwrap()
    }

    fn sample_sets(count: usize) -> Vec<OperandSet> {
        (0..count)
            .map(|i| {
                let seed = 0x9E37u64.wrapping_mul(i as u64 + 1);
                OperandSet::new(vec![
                    Word::from_u8(seed as u8),
                    Word::from_u8((seed >> 8) as u8),
                    Word::from_u8((seed >> 16) as u8),
                ])
            })
            .collect()
    }

    #[test]
    fn analytic_batch_matches_single_shot() {
        let gate = byte_majority();
        let mut backend = AnalyticBackend::new(gate.clone());
        let sets = sample_sets(16);
        let batch = backend.evaluate_batch(&sets).unwrap();
        assert_eq!(batch.len(), 16);
        for (set, output) in sets.iter().zip(&batch) {
            let single = gate.evaluate(set.words()).unwrap();
            assert_eq!(single.word(), output.word());
        }
    }

    #[test]
    fn cached_agrees_with_analytic() {
        let gate = byte_majority();
        let mut cached = CachedBackend::new(gate.clone()).unwrap();
        let sets = sample_sets(8);
        let full = cached.evaluate_batch(&sets).unwrap();
        let logic = cached.evaluate_batch_logic(&sets).unwrap();
        for ((out, word), set) in full.iter().zip(&logic).zip(&sets) {
            let reference = gate.evaluate(set.words()).unwrap();
            assert_eq!(out.word(), reference.word());
            assert_eq!(*word, reference.word());
            assert_eq!(out.readouts(), reference.readouts());
        }
    }

    #[test]
    fn the_table_holds_every_combination_of_every_channel() {
        let gate = byte_majority();
        let table = GateTable::new(&gate).unwrap();
        assert_eq!(table.entries(), 8 * 8); // n channels x 2^3 combos
        assert_eq!(GateTable::entries_for(&gate), 8 * 8);
    }

    #[test]
    fn a_table_at_the_cap_holds_masks_not_readouts() {
        // 8 channels x 2^17 combos = 2^20 readouts, exactly the cap.
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(17)
            .function(LogicFunction::Majority)
            .build()
            .unwrap();
        let table = GateTable::new(&gate).unwrap();
        assert_eq!(table.entries(), MAX_TABLE_ENTRIES);
        // At most one mask per combination, and no per-entry readouts:
        // the table's heap is its terms alone.
        assert!(table.terms.len() <= 1 << 17);
        assert!(table.terms.capacity() * std::mem::size_of::<(usize, u64)>() <= 1 << 20);
        let ones = Word::from_bits(0xFF, 8).unwrap();
        let mut inputs = vec![Word::from_u8(0); 17];
        assert_eq!(table.word(&inputs).bits(), 0);
        inputs[..9].fill(ones);
        assert_eq!(table.word(&inputs).bits(), 0xFF);
    }

    #[test]
    fn cached_rejects_oversized_luts() {
        // 16 channels x 2^17 combos = 2^21 readouts, twice the cap.
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(16)
            .inputs(17)
            .build()
            .unwrap();
        assert_eq!(GateTable::entries_for(&gate), 1 << 21);
        assert!(matches!(
            GateTable::new(&gate),
            Err(GateError::UnsupportedFunction { .. })
        ));
        assert!(matches!(
            CachedBackend::new(gate),
            Err(GateError::UnsupportedFunction { .. })
        ));
    }

    #[test]
    fn session_tracks_counts_and_dispatches() {
        let gate = byte_majority();
        let mut session = gate.session(BackendChoice::Cached).unwrap();
        assert_eq!(session.backend_name(), "cached");
        assert_eq!(session.gate().word_width(), 8);
        let sets = sample_sets(5);
        session.evaluate_batch(&sets).unwrap();
        session.evaluate(sets[0].words()).unwrap();
        assert_eq!(session.sets_evaluated(), 6);
    }

    #[test]
    fn each_fdm_lane_serves_from_its_own_table() {
        use crate::gate::LaneId;
        // The same majority design on two disjoint bands of one
        // waveguide: each lane's frequency plan gets its own table, and
        // both answer as the analytic engine does.
        let low = byte_majority();
        let high = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(3)
            .base_frequency(100e9)
            .on_lane(LaneId(1))
            .build()
            .unwrap();
        assert!(!low.frequency_lane().overlaps(high.frequency_lane()));
        let sets = sample_sets(70);
        for gate in [low, high] {
            let table = GateTable::new(&gate).unwrap();
            for set in &sets {
                let reference = gate.evaluate(set.words()).unwrap().word();
                assert_eq!(table.word(set.words()), reference);
            }
        }
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<GateSession>();
        assert_send::<Box<dyn SpinWaveBackend>>();
    }

    #[test]
    fn default_choice_is_analytic() {
        let gate = byte_majority();
        let session = gate.session(BackendChoice::default()).unwrap();
        assert_eq!(session.backend_name(), "analytic");
    }

    #[test]
    fn batch_propagates_operand_errors() {
        let gate = byte_majority();
        let mut session = gate.session(BackendChoice::Analytic).unwrap();
        let bad = OperandSet::new(vec![Word::from_u8(1)]);
        assert!(matches!(
            session.evaluate_batch(&[bad]),
            Err(GateError::InputCountMismatch { .. })
        ));
        let narrow = OperandSet::new(vec![Word::zeros(4).unwrap(); 3]);
        assert!(matches!(
            session.evaluate_batch(&[narrow]),
            Err(GateError::WordWidthMismatch { .. })
        ));
    }

    #[test]
    fn operand_set_conversions() {
        let words = vec![Word::from_u8(1), Word::from_u8(2)];
        let a: OperandSet = words.clone().into();
        let b: OperandSet = words.as_slice().into();
        assert_eq!(a, b);
        assert_eq!(a.words().len(), 2);
        assert_eq!(a.clone().into_words(), words);
    }

    #[test]
    fn xor_gates_work_through_every_analytic_backend() {
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(4)
            .inputs(2)
            .function(LogicFunction::Xor)
            .build()
            .unwrap();
        let a = Word::from_bits(0b0011, 4).unwrap();
        let b = Word::from_bits(0b0101, 4).unwrap();
        for choice in [BackendChoice::Analytic, BackendChoice::Cached] {
            let mut session = gate.session(choice).unwrap();
            let out = session.evaluate(&[a, b]).unwrap();
            assert_eq!(
                out.word().bits(),
                0b0110,
                "{} backend",
                session.backend_name()
            );
        }
    }
}
