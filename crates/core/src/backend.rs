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
//! * [`CachedBackend`] — a truth-table backend: every evaluation is a
//!   lookup in the gate's [`GateTable`], the `n · 2^m` per-channel
//!   readouts built once from the analytic engine. Serving runtimes
//!   share one table per gate across their worker threads.
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

use crate::bitslice::{lane_mask, transpose64};
use crate::engine::ChannelReadout;
use crate::error::GateError;
use crate::gate::{GateOutput, ParallelGate};
use crate::micromag_bridge::{MicromagValidator, ValidationSettings};
use crate::word::Word;
use rayon::prelude::*;

/// Caller-chosen tag carried through batched evaluation so completions
/// can be matched out of order (see
/// [`GateSession::evaluate_batch_tagged`]).
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
    /// backend answers straight from its bit-sliced kernel).
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
        // machinery, which benches ~25% slower than this loop on a
        // 1-core host (see benches/batch_throughput.rs).
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

/// Operand-count cutoff for the sum-of-products strategy in the sliced
/// kernel: up to `2^m` minterm word-ops per channel beat 64 per-lane
/// gathers while `m` stays small; past this the indexed gather loop
/// (which the compiler can unroll and vectorize) wins.
const SOP_MAX_INPUTS: usize = 6;

/// One channel's row of a [`GateTable`], flattened for the bit-sliced
/// hot path.
#[derive(Debug, Clone)]
struct TableRow {
    /// Packed decoded logic — bit `combo % 64` of word `combo / 64`.
    logic: Vec<u64>,
    /// Combos decoding to 1 (picks the sparser sum-of-products
    /// polarity).
    ones: usize,
    /// `readouts[combo]` — the analog side table full outputs gather
    /// from.
    readouts: Vec<ChannelReadout>,
}

/// The input combination channel `channel` carries for validated
/// operands: bit `j` = input `j`'s bit on that channel.
#[inline]
fn combo_of(inputs: &[Word], channel: usize) -> usize {
    let mut combo = 0usize;
    for (j, word) in inputs.iter().enumerate() {
        combo |= (((word.bits() >> channel) & 1) as usize) << j;
    }
    combo
}

/// All-lanes lookup for one channel by sum-of-products: OR together,
/// for every combo whose table bit is set, the AND across inputs of
/// that combo's (possibly complemented) operand bit-plane — one boolean
/// word-op chain answers all 64 lanes. The sparser polarity is
/// iterated: when more than half the combos decode to 1, the zeros are
/// summed and the result complemented.
fn sop_lookup(row: &TableRow, planes: &[[u64; 64]], channel: usize, mask: u64) -> u64 {
    let combos = row.readouts.len();
    let invert = 2 * row.ones > combos;
    let mut acc = 0u64;
    for combo in 0..combos {
        // analyze: allow(can-panic) — in-bounds: logic packs one bit per combo
        let lut_bit = (row.logic[combo >> 6] >> (combo & 63)) & 1 == 1;
        if lut_bit == invert {
            continue;
        }
        let mut term = mask;
        for (j, plane) in planes.iter().enumerate() {
            // analyze: allow(can-panic) — in-bounds: channel < word width ≤ 64
            let p = plane[channel];
            term &= if (combo >> j) & 1 == 1 { p } else { !p };
            if term == 0 {
                break;
            }
        }
        acc |= term;
    }
    if invert {
        !acc & mask
    } else {
        acc
    }
}

/// All-lanes lookup for one channel by per-lane gather — branch-free
/// indexed reads of the packed bitset.
fn gather_lookup(row: &TableRow, planes: &[[u64; 64]], channel: usize, lanes: usize) -> u64 {
    let mut out = 0u64;
    for s in 0..lanes {
        let mut combo = 0usize;
        for (j, plane) in planes.iter().enumerate() {
            // analyze: allow(can-panic) — in-bounds: channel < word width ≤ 64
            combo |= (((plane[channel] >> s) & 1) as usize) << j;
        }
        // analyze: allow(can-panic) — in-bounds: logic packs one bit per combo
        out |= ((row.logic[combo >> 6] >> (combo & 63)) & 1) << s;
    }
    out
}

/// A gate's complete per-channel truth table, built once and read-only
/// after.
///
/// Each channel's decode depends only on the `m` input bits it carries,
/// so a gate is fully described by `n · 2^m` channel readouts from its
/// analytic device model. The table holds them per channel as a packed
/// logic bitset (what the bit-sliced kernel reads) plus the analog
/// readouts (what full outputs gather). It is built from the gate's
/// own frequency plan, so FDM lanes with different plans get different
/// tables (arXiv:2008.12220).
///
/// The kernel, [`GateTable::sliced_words`], reads through `&self`, so
/// one table can be shared by any number of threads.
#[derive(Debug, Clone)]
pub struct GateTable {
    inputs: usize,
    /// An all-zeros word of the gate's width: the kernel's outputs are
    /// built from it, so they need no fallible width check.
    zero: Word,
    /// `rows[channel]`.
    rows: Vec<TableRow>,
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

    /// Builds `gate`'s table: `n · 2^m` channel readouts from the
    /// analytic device model.
    ///
    /// # Errors
    ///
    /// * [`GateError::UnsupportedFunction`] when the table would hold
    ///   more than [`MAX_TABLE_ENTRIES`] readouts.
    /// * [`GateError::InvalidParameter`] for a gate whose word width is
    ///   outside `1..=64`.
    pub fn new(gate: &ParallelGate) -> Result<Self, GateError> {
        if Self::entries_for(gate) > MAX_TABLE_ENTRIES {
            return Err(GateError::UnsupportedFunction {
                reason: "truth table exceeds 2^20 channel readouts (n · 2^m)",
            });
        }
        let combos = 1usize << gate.input_count();
        let prep = gate.prep();
        let rows = (0..gate.word_width())
            .map(|channel| {
                let mut logic = vec![0u64; combos.div_ceil(64)];
                let mut ones = 0;
                let readouts: Vec<ChannelReadout> = (0..combos)
                    .map(|combo| prep.channel_readout(channel, combo))
                    .collect();
                for (combo, readout) in readouts.iter().enumerate() {
                    if readout.logic {
                        logic[combo >> 6] |= 1u64 << (combo & 63);
                        ones += 1;
                    }
                }
                TableRow {
                    logic,
                    ones,
                    readouts,
                }
            })
            .collect();
        Ok(GateTable {
            inputs: gate.input_count(),
            zero: Word::zeros(gate.word_width())?,
            rows,
        })
    }

    /// Channel readouts held (`n · 2^m`).
    pub fn entries(&self) -> usize {
        self.rows.len() << self.inputs
    }

    /// The full output for validated operands: each channel's readout
    /// gathered from the table, and the word they decode to.
    fn output(&self, inputs: &[Word]) -> GateOutput {
        let readouts: Vec<ChannelReadout> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(c, row)| row.readouts.get(combo_of(inputs, c)).copied())
            .collect();
        let bits = readouts
            .iter()
            .enumerate()
            .fold(0u64, |bits, (c, r)| bits | (u64::from(r.logic) << c));
        GateOutput::new(self.zero.with_bits(bits), readouts)
    }

    /// The bit-sliced kernel: answers operand sets in blocks of up to
    /// 64 lanes.
    ///
    /// Per block: pack each operand's words set-major, transpose to
    /// lane-major bit-planes (`planes[j][c]` bit `s` = set `s`, input
    /// `j`, channel `c`), answer every channel with one word-parallel
    /// table lookup across all lanes, then transpose the output planes
    /// back into per-set words. A ragged tail is just a block with
    /// fewer lanes — unused lanes are zeroed and masked out.
    ///
    /// Callers validate operand shapes first
    /// ([`ParallelGate::check_inputs`]). A malformed set is answered
    /// rather than rejected: a missing operand reads as zeros, and bits
    /// past the word width are ignored.
    pub fn sliced_words(&self, sets: &[OperandSet]) -> Vec<Word> {
        let m = self.inputs;
        // analyze: allow(can-alloc) — per-batch output arena, sized
        // once to the request count; the hot loop below only fills it.
        let mut out = Vec::with_capacity(sets.len());
        // analyze: allow(can-alloc) — per-batch plane scratch:
        // input_count 64-lane bit-planes, reused across every block.
        let mut planes = vec![[0u64; 64]; m];
        for block in sets.chunks(64) {
            let lanes = block.len();
            let mask = lane_mask(lanes);
            for (j, plane) in planes.iter_mut().enumerate() {
                for (slot, set) in plane.iter_mut().zip(block) {
                    *slot = set.words().get(j).map_or(0, |word| word.bits());
                }
                if let Some(tail) = plane.get_mut(lanes..) {
                    tail.fill(0);
                }
                transpose64(plane);
            }
            let mut out_planes = [0u64; 64];
            for (c, (out_plane, row)) in out_planes.iter_mut().zip(&self.rows).enumerate() {
                *out_plane = if m <= SOP_MAX_INPUTS {
                    sop_lookup(row, &planes, c, mask)
                } else {
                    gather_lookup(row, &planes, c, lanes)
                };
            }
            transpose64(&mut out_planes);
            if let Some(block_out) = out_planes.get(..lanes) {
                // analyze: allow(can-alloc) — fills the arena
                // preallocated above; a block never outgrows it.
                out.extend(block_out.iter().map(|&bits| self.zero.with_bits(bits)));
            }
        }
        out
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
        Ok(self.table.output(inputs))
    }

    fn evaluate_batch(&mut self, sets: &[OperandSet]) -> Result<Vec<GateOutput>, GateError> {
        for set in sets {
            self.gate.check_inputs(set.words())?;
        }
        Ok(sets
            .iter()
            .map(|set| self.table.output(set.words()))
            .collect())
    }

    fn evaluate_batch_logic(&mut self, sets: &[OperandSet]) -> Result<Vec<Word>, GateError> {
        for set in sets {
            self.gate.check_inputs(set.words())?;
        }
        Ok(self.table.sliced_words(sets))
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

    /// Evaluates a batch of tagged requests, echoing each caller tag on
    /// its result.
    ///
    /// Outputs come back in request order, but the tags make them safe
    /// to complete out of order — a coalescing scheduler that merged
    /// requests from many clients can route every `(tag, output)` back
    /// to its originator without positional bookkeeping.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpinWaveBackend::evaluate_batch`].
    pub fn evaluate_batch_tagged(
        &mut self,
        requests: &[(RequestTag, OperandSet)],
    ) -> Result<Vec<(RequestTag, GateOutput)>, GateError> {
        let sets: Vec<OperandSet> = requests.iter().map(|(_, set)| set.clone()).collect();
        let outputs = self.evaluate_batch(&sets)?;
        Ok(requests.iter().map(|(tag, _)| *tag).zip(outputs).collect())
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
    fn tagged_batches_echo_tags_in_request_order() {
        let gate = byte_majority();
        let mut session = gate.session(BackendChoice::Analytic).unwrap();
        let requests: Vec<(RequestTag, OperandSet)> = sample_sets(6)
            .into_iter()
            .enumerate()
            .map(|(i, set)| (0xF00D_0000 + i as RequestTag * 3, set))
            .collect();
        let tagged = session.evaluate_batch_tagged(&requests).unwrap();
        assert_eq!(tagged.len(), 6);
        for ((tag, output), (expected_tag, set)) in tagged.iter().zip(&requests) {
            assert_eq!(tag, expected_tag);
            assert_eq!(output.word(), gate.evaluate(set.words()).unwrap().word());
        }
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
            for (word, set) in table.sliced_words(&sets).iter().zip(&sets) {
                assert_eq!(*word, gate.evaluate(set.words()).unwrap().word());
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
