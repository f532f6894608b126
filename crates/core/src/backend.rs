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
//! * [`CachedBackend`] — a precompiled truth-table backend: per-channel
//!   decode results are memoized keyed on the channel's input bits, so
//!   hot-path serving of repeated combinations is a table lookup.
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
use crate::lut_store::LutSnapshot;
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

/// Cache-effectiveness counters of a LUT-keeping backend (see
/// [`SpinWaveBackend::lut_stats`]).
///
/// Counters are per backend instance: [`SpinWaveBackend::split`] hands
/// the shard a warm LUT (including its dense rows) but zeroed
/// `hits`/`misses`, so a sum over live shard sessions never
/// double-counts warm-up work already reported by the template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LutStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Entries computed (and memoized) on demand.
    pub misses: u64,
    /// Channel rows flattened to the dense bit-sliced form.
    pub dense_rows: usize,
    /// Total channel rows (the gate's word width).
    pub total_rows: usize,
}

/// The evaluation contract every engine implements.
///
/// A backend is constructed around one gate; `evaluate` answers a
/// single operand set, `evaluate_batch` any number of them. The default
/// batch implementation maps `evaluate` — backends override it when
/// they can do better (the analytic backend parallelises across sets,
/// the cached backend serves from its LUT).
///
/// Backends are `Send + Sync` so serving runtimes can move them onto
/// worker shards; [`SpinWaveBackend::split`] mints the per-shard
/// instances (see `magnon-serve`).
pub trait SpinWaveBackend: Send + Sync {
    /// Stable identifier for reports and logs.
    fn name(&self) -> &'static str;

    /// The gate this backend evaluates.
    fn gate(&self) -> &ParallelGate;

    /// Creates an independent instance of this backend for another
    /// worker shard. State worth carrying over travels with the split —
    /// a cached backend hands each shard a copy of its warm LUT, the
    /// micromagnetic backend its calibration run.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures.
    fn split(&self) -> Result<Box<dyn SpinWaveBackend>, GateError>;

    /// The backend's current truth-table LUT, when it maintains one
    /// (`None` for engines that compute every request).
    fn lut_snapshot(&self) -> Option<LutSnapshot> {
        None
    }

    /// Adopts previously exported LUT entries, returning how many were
    /// imported. Backends without a LUT accept and ignore the snapshot
    /// (returning `0`), so persistence wiring stays backend-agnostic.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Persistence`] when the snapshot was
    /// computed for a different gate.
    fn import_lut(&mut self, snapshot: &LutSnapshot) -> Result<usize, GateError> {
        let _ = snapshot;
        Ok(0)
    }

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
    /// words — no per-channel readout diagnostics. Responses on the
    /// wire carry only logic words, so serving drains use this path to
    /// skip the dominant per-request allocation. The default maps
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

    /// Eagerly resolves everything this backend can precompute, so
    /// serving never computes on the hot path — the cached backend
    /// fills its whole LUT and flattens every row to the dense
    /// bit-sliced form. A no-op for backends with nothing to warm.
    fn warm_all(&mut self) {}

    /// Truth-table cache effectiveness counters, when the backend keeps
    /// a LUT (`None` for engines that compute every request).
    fn lut_stats(&self) -> Option<LutStats> {
        None
    }
}

/// Selects and constructs a backend; [`Default`] is the analytic
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendChoice {
    /// Complex wave superposition (exact analytic model).
    #[default]
    Analytic,
    /// Precompiled/memoized truth-table lookups on top of the analytic
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
    /// ([`CachedBackend::new`]'s input-count cap).
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

    fn split(&self) -> Result<Box<dyn SpinWaveBackend>, GateError> {
        Ok(Box::new(self.clone()))
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

/// Upper bound on the operand count a LUT backend will precompile
/// (`2^m` entries per channel).
const MAX_LUT_INPUTS: usize = 16;

/// Operand-count cutoff for the sum-of-products strategy in the sliced
/// kernel: up to `2^m` minterm word-ops per channel beat 64 per-lane
/// gathers while `m` stays small; past this the indexed gather loop
/// (which the compiler can unroll and vectorize) wins.
const SOP_MAX_INPUTS: usize = 6;

/// A fully resolved channel row flattened for the bit-sliced hot path:
/// no `Option` anywhere the kernel reads.
#[derive(Debug, Clone)]
struct DenseRow {
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

/// All-lanes LUT lookup for one dense channel by sum-of-products: OR
/// together, for every combo whose LUT bit is set, the AND across
/// inputs of that combo's (possibly complemented) operand bit-plane —
/// one boolean word-op chain answers all 64 lanes. The sparser polarity
/// is iterated: when more than half the combos decode to 1, the zeros
/// are summed and the result complemented.
fn sop_lookup(dense: &DenseRow, planes: &[[u64; 64]], channel: usize, mask: u64) -> u64 {
    let combos = dense.readouts.len();
    let invert = 2 * dense.ones > combos;
    let mut acc = 0u64;
    for combo in 0..combos {
        // analyze: allow(can-panic) — in-bounds: logic packs one bit per combo
        let lut_bit = (dense.logic[combo >> 6] >> (combo & 63)) & 1 == 1;
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

/// All-lanes LUT lookup for one dense channel by per-lane gather —
/// branch-free indexed reads of the packed bitset.
fn gather_lookup(dense: &DenseRow, planes: &[[u64; 64]], channel: usize, lanes: usize) -> u64 {
    let mut out = 0u64;
    for s in 0..lanes {
        let mut combo = 0usize;
        for (j, plane) in planes.iter().enumerate() {
            // analyze: allow(can-panic) — in-bounds: channel < word width ≤ 64
            combo |= (((plane[channel] >> s) & 1) as usize) << j;
        }
        // analyze: allow(can-panic) — in-bounds: logic packs one bit per combo
        out |= ((dense.logic[combo >> 6] >> (combo & 63)) & 1) << s;
    }
    out
}

/// A precompiled truth-table backend.
///
/// Each channel's decode depends only on the `m` input bits it carries,
/// so there are just `2^m` distinct readouts per channel. They are
/// memoized on first use — or all at once via
/// [`CachedBackend::precompile`] — after which evaluation is a pure
/// table lookup per channel.
///
/// The moment a channel's row is fully resolved it is *densified*:
/// flattened into a packed logic bitset plus a readout side table (see
/// `DenseRow`), and batches to dense channels run the bit-sliced kernel
/// — operand bits of up to 64 sets pack into `u64` lanes and every
/// boolean op answers all lanes at once (see [`crate::bitslice`]).
#[derive(Debug, Clone)]
pub struct CachedBackend {
    gate: ParallelGate,
    /// `lut[channel][combo]` — memoized readout for that input
    /// combination.
    lut: Vec<Vec<Option<ChannelReadout>>>,
    /// Resolved-entry count per channel row (densify trigger).
    filled: Vec<usize>,
    /// Dense form per channel, present once the row is fully resolved.
    dense: Vec<Option<DenseRow>>,
    hits: u64,
    misses: u64,
}

impl CachedBackend {
    /// Wraps `gate` in a LUT backend.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::UnsupportedFunction`] when the gate has more
    /// than 16 inputs (the LUT would need `2^m` entries per channel).
    pub fn new(gate: ParallelGate) -> Result<Self, GateError> {
        if gate.input_count() > MAX_LUT_INPUTS {
            return Err(GateError::UnsupportedFunction {
                reason: "cached backend supports at most 16 inputs (2^m LUT entries per channel)",
            });
        }
        // Rows are allocated lazily on first touch: construction stays
        // O(n) even at the 2^16-combination cap.
        let n = gate.word_width();
        Ok(CachedBackend {
            gate,
            lut: vec![Vec::new(); n],
            filled: vec![0; n],
            dense: vec![None; n],
            hits: 0,
            misses: 0,
        })
    }

    /// Fills the whole LUT eagerly (`n · 2^m` channel evaluations) and
    /// densifies every row, so serving never computes again and every
    /// batch runs the bit-sliced kernel.
    pub fn precompile(&mut self) {
        let combos = 1usize << self.gate.input_count();
        for c in 0..self.gate.word_width() {
            if self.dense[c].is_some() {
                continue;
            }
            let row = &mut self.lut[c];
            if row.is_empty() {
                row.resize(combos, None);
            }
            let mut filled = self.filled[c];
            for (combo, entry) in row.iter_mut().enumerate() {
                if entry.is_none() {
                    *entry = Some(self.gate.prep().channel_readout(c, combo));
                    self.misses += 1;
                    filled += 1;
                }
            }
            self.filled[c] = filled;
            self.densify(c);
        }
    }

    /// LUT lookups answered from memory so far.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// LUT entries computed so far.
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    /// Channel rows currently in the dense bit-sliced form.
    pub fn dense_rows(&self) -> usize {
        self.dense.iter().filter(|d| d.is_some()).count()
    }

    /// Flattens a fully resolved row into its dense form: the packed
    /// logic bitset the sliced kernel reads, the analog side table full
    /// outputs gather from, and the one-bit population count that picks
    /// the sum-of-products polarity.
    fn densify(&mut self, channel: usize) {
        debug_assert!(self.dense[channel].is_none());
        let row = &self.lut[channel];
        let combos = row.len();
        let mut logic = vec![0u64; combos.div_ceil(64)];
        let mut readouts = Vec::with_capacity(combos);
        let mut ones = 0usize;
        for (combo, entry) in row.iter().enumerate() {
            let readout = entry.expect("densify requires a fully resolved row");
            if readout.logic {
                logic[combo >> 6] |= 1u64 << (combo & 63);
                ones += 1;
            }
            readouts.push(readout);
        }
        self.dense[channel] = Some(DenseRow {
            logic,
            ones,
            readouts,
        });
    }

    fn channel_readout(&mut self, channel: usize, combo: usize) -> ChannelReadout {
        if let Some(dense) = &self.dense[channel] {
            let readout = dense.readouts[combo];
            self.hits += 1;
            return readout;
        }
        let combos = 1usize << self.gate.prep().input_count();
        if self.lut[channel].is_empty() {
            self.lut[channel].resize(combos, None);
        }
        if let Some(readout) = self.lut[channel][combo] {
            self.hits += 1;
            return readout;
        }
        let readout = self.gate.prep().channel_readout(channel, combo);
        self.lut[channel][combo] = Some(readout);
        self.misses += 1;
        self.filled[channel] += 1;
        if self.filled[channel] == combos {
            self.densify(channel);
        }
        readout
    }

    fn evaluate_prepared(&mut self, inputs: &[Word]) -> Result<GateOutput, GateError> {
        let n = self.gate.word_width();
        let mut bits = 0u64;
        let mut readouts = Vec::with_capacity(n);
        for c in 0..n {
            let readout = self.channel_readout(c, combo_of(inputs, c));
            bits |= (readout.logic as u64) << c;
            readouts.push(readout);
        }
        Ok(GateOutput::new(Word::from_bits(bits, n)?, readouts))
    }

    /// Scalar fallback for a channel without a dense row yet: each
    /// lane's combo resolves through the memoizing analytic path,
    /// filling the LUT — and densifying the row the moment its last
    /// combo lands, so later blocks of the same batch re-enter the
    /// sliced loop.
    fn resolve_cold_channel(&mut self, channel: usize, planes: &[[u64; 64]], lanes: usize) -> u64 {
        let mut out = 0u64;
        for s in 0..lanes {
            let mut combo = 0usize;
            for (j, plane) in planes.iter().enumerate() {
                combo |= (((plane[channel] >> s) & 1) as usize) << j;
            }
            out |= (self.channel_readout(channel, combo).logic as u64) << s;
        }
        out
    }

    /// The bit-sliced kernel: evaluates validated operand sets in
    /// blocks of up to 64 lanes and returns each set's output bit
    /// pattern.
    ///
    /// Per block: pack each operand's words set-major, transpose to
    /// lane-major bit-planes (`planes[j][c]` bit `s` = set `s`, input
    /// `j`, channel `c`), answer every dense channel with one
    /// word-parallel LUT lookup across all lanes, scalar-resolve cold
    /// channels (memoizing as it goes), then transpose the output
    /// planes back into per-set words. A ragged tail is just a block
    /// with fewer lanes — unused lanes are zeroed and masked out.
    fn sliced_words(&mut self, sets: &[OperandSet]) -> Vec<u64> {
        let n = self.gate.word_width();
        let m = self.gate.input_count();
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
                    // Operand sets are validated to input_count words
                    // before the kernel is entered; a short set reads
                    // as zeros rather than panicking the batch.
                    *slot = set.words().get(j).map_or(0, |word| word.bits());
                }
                if let Some(tail) = plane.get_mut(lanes..) {
                    tail.fill(0);
                }
                transpose64(plane);
            }
            let mut out_planes = [0u64; 64];
            let mut dense_lookups = 0u64;
            // Channels without a dense row are deferred to a second
            // pass: the memoizing cold resolver needs `&mut self`,
            // which the dense-row borrow here precludes. Channel count
            // is the word width, so a u64 bitmask covers them all.
            let mut cold_channels = 0u64;
            for (c, out_plane) in out_planes.iter_mut().take(n).enumerate() {
                if let Some(Some(dense)) = self.dense.get(c) {
                    dense_lookups += lanes as u64;
                    *out_plane = if m <= SOP_MAX_INPUTS {
                        sop_lookup(dense, &planes, c, mask)
                    } else {
                        gather_lookup(dense, &planes, c, lanes)
                    };
                } else {
                    cold_channels |= 1 << c;
                }
            }
            while cold_channels != 0 {
                let c = cold_channels.trailing_zeros() as usize;
                cold_channels &= cold_channels - 1;
                let resolved = self.resolve_cold_channel(c, &planes, lanes);
                if let Some(out_plane) = out_planes.get_mut(c) {
                    *out_plane = resolved;
                }
            }
            self.hits += dense_lookups;
            transpose64(&mut out_planes);
            if let Some(block_out) = out_planes.get(..lanes) {
                // analyze: allow(can-alloc) — fills the arena
                // preallocated above; a block never outgrows it.
                out.extend_from_slice(block_out);
            }
        }
        out
    }
}

impl SpinWaveBackend for CachedBackend {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn gate(&self) -> &ParallelGate {
        &self.gate
    }

    /// The split shard starts with a copy of the warm LUT — dense rows
    /// included — and fresh hit/miss counters.
    fn split(&self) -> Result<Box<dyn SpinWaveBackend>, GateError> {
        Ok(Box::new(CachedBackend {
            gate: self.gate.clone(),
            lut: self.lut.clone(),
            filled: self.filled.clone(),
            dense: self.dense.clone(),
            hits: 0,
            misses: 0,
        }))
    }

    fn lut_snapshot(&self) -> Option<LutSnapshot> {
        Some(LutSnapshot::from_gate(&self.gate, self.lut.clone()))
    }

    fn import_lut(&mut self, snapshot: &LutSnapshot) -> Result<usize, GateError> {
        snapshot.matches_gate(&self.gate)?;
        let combos = 1usize << self.gate.input_count();
        let mut imported = 0usize;
        let channels = self.lut.len();
        for (c, snap_row) in snapshot.rows().iter().enumerate().take(channels) {
            if snap_row.is_empty() || self.dense[c].is_some() {
                continue;
            }
            let row = &mut self.lut[c];
            if row.is_empty() {
                row.resize(combos, None);
            }
            let mut filled = self.filled[c];
            for (entry, snap_entry) in row.iter_mut().zip(snap_row) {
                if entry.is_none() && snap_entry.is_some() {
                    *entry = *snap_entry;
                    imported += 1;
                    filled += 1;
                }
            }
            self.filled[c] = filled;
            // A snapshot of a fully warmed gate re-enters the dense
            // form immediately: dense rows persist across restarts.
            if filled == combos {
                self.densify(c);
            }
        }
        Ok(imported)
    }

    fn evaluate(&mut self, inputs: &[Word]) -> Result<GateOutput, GateError> {
        self.gate.check_inputs(inputs)?;
        self.evaluate_prepared(inputs)
    }

    fn evaluate_batch(&mut self, sets: &[OperandSet]) -> Result<Vec<GateOutput>, GateError> {
        // Validate once up front; everything after runs infallible
        // prepared paths.
        for set in sets {
            self.gate.check_inputs(set.words())?;
        }
        let n = self.gate.word_width();
        let words = self.sliced_words(sets);
        // The sliced pass resolved every combo it met, so gathering the
        // readout side tables below is pure table reads (not counted
        // again — the kernel already accounted each lookup once).
        let mut outputs = Vec::with_capacity(sets.len());
        for (set, bits) in sets.iter().zip(words) {
            let mut readouts = Vec::with_capacity(n);
            for c in 0..n {
                let combo = combo_of(set.words(), c);
                let readout = match &self.dense[c] {
                    Some(dense) => dense.readouts[combo],
                    None => self.lut[c][combo].expect("combo resolved by the sliced pass"),
                };
                readouts.push(readout);
            }
            outputs.push(GateOutput::new(Word::from_bits(bits, n)?, readouts));
        }
        Ok(outputs)
    }

    fn evaluate_batch_logic(&mut self, sets: &[OperandSet]) -> Result<Vec<Word>, GateError> {
        for set in sets {
            self.gate.check_inputs(set.words())?;
        }
        let n = self.gate.word_width();
        self.sliced_words(sets)
            .into_iter()
            .map(|bits| Word::from_bits(bits, n))
            .collect()
    }

    fn warm_all(&mut self) {
        self.precompile();
    }

    fn lut_stats(&self) -> Option<LutStats> {
        Some(LutStats {
            hits: self.hits,
            misses: self.misses,
            dense_rows: self.dense_rows(),
            total_rows: self.gate.word_width(),
        })
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

    /// The split shard reuses the calibration run when one exists.
    fn split(&self) -> Result<Box<dyn SpinWaveBackend>, GateError> {
        Ok(Box::new(self.clone()))
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
    /// [`SpinWaveBackend::evaluate_batch_logic`]). This is the serving
    /// drain's hot path — responses on the wire only carry logic words.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpinWaveBackend::evaluate_batch`].
    pub fn evaluate_batch_logic(&mut self, sets: &[OperandSet]) -> Result<Vec<Word>, GateError> {
        let words = self.backend.evaluate_batch_logic(sets)?;
        self.sets_evaluated += words.len() as u64;
        Ok(words)
    }

    /// Eagerly warms the backend — the cached backend fills and
    /// densifies its whole LUT (see [`SpinWaveBackend::warm_all`]).
    pub fn warm_all(&mut self) {
        self.backend.warm_all();
    }

    /// The backend's LUT effectiveness counters, when it keeps one (see
    /// [`SpinWaveBackend::lut_stats`]).
    pub fn lut_stats(&self) -> Option<LutStats> {
        self.backend.lut_stats()
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

    /// Opens an independent session over a split of this backend — the
    /// per-shard constructor serving runtimes use. The split carries
    /// warm state (LUT contents, micromagnetic calibration) but starts
    /// its own counters.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures.
    pub fn split_session(&self) -> Result<GateSession, GateError> {
        Ok(GateSession {
            backend: self.backend.split()?,
            sets_evaluated: 0,
        })
    }

    /// The backend's LUT contents, when it maintains one (see
    /// [`SpinWaveBackend::lut_snapshot`]).
    pub fn lut_snapshot(&self) -> Option<LutSnapshot> {
        self.backend.lut_snapshot()
    }

    /// Adopts previously exported LUT entries (see
    /// [`SpinWaveBackend::import_lut`]).
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Persistence`] for a snapshot of a different
    /// gate.
    pub fn import_lut(&mut self, snapshot: &LutSnapshot) -> Result<usize, GateError> {
        self.backend.import_lut(snapshot)
    }

    /// Mutable access to the backend for implementation-specific calls
    /// (e.g. warming a cache).
    pub fn backend_mut(&mut self) -> &mut dyn SpinWaveBackend {
        self.backend.as_mut()
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

/// One frequency lane's slice of a multi-lane FDM batch: the lane's
/// session (its gate defines the channel group) and the operand sets
/// queued for it.
pub struct LaneBatch<'a> {
    /// The session serving this lane's gate.
    pub session: &'a mut GateSession,
    /// The lane's queued operand sets.
    pub sets: &'a [OperandSet],
}

/// Evaluates several frequency lanes of one waveguide as a single
/// multi-lane pass (frequency-division multiplexing, arXiv:2008.12220),
/// answering bare output words (no readout diagnostics).
///
/// Physically all lanes ride one excitation of the shared medium —
/// their frequency bands are disjoint, so each gate's detectors see
/// only their own channels. Computationally the pass stacks the lanes'
/// channel groups: every lane's shapes are validated up front so a
/// malformed operand in *any* lane fails the whole batch before any
/// lane evaluates, then each lane's channel group decodes through its
/// own compiled prep via [`GateSession::evaluate_batch_logic`] (the
/// bit-sliced kernel when the lane's backend is cached). Returns one
/// output vector per lane, in lane order.
///
/// The all-or-nothing guarantee covers operand-*shape* errors only: a
/// backend failure mid-pass (possible for engines that can fail at
/// evaluation time, e.g. micromagnetics) aborts at the failing lane
/// with earlier lanes already evaluated — callers that need exact
/// once-only semantics must re-drive per request on error, which is
/// what the serving runtime's fallback does. That runtime also never
/// stacks micromagnetic lanes in the first place (their time-domain
/// simulation is per-gate); this function leaves that exclusion to the
/// caller.
///
/// # Errors
///
/// * [`GateError::InputCountMismatch`] / [`GateError::WordWidthMismatch`]
///   when any lane's operands are malformed (no lane evaluates).
/// * Backend failures from the first failing lane (earlier lanes have
///   evaluated).
pub fn evaluate_fdm_batch_logic(lanes: &mut [LaneBatch<'_>]) -> Result<Vec<Vec<Word>>, GateError> {
    for lane in lanes.iter() {
        for set in lane.sets {
            lane.session.gate().check_inputs(set.words())?;
        }
    }
    lanes
        .iter_mut()
        .map(|lane| lane.session.evaluate_batch_logic(lane.sets))
        .collect()
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
    fn cached_agrees_with_analytic_and_counts_hits() {
        let gate = byte_majority();
        let mut cached = CachedBackend::new(gate.clone()).unwrap();
        let sets = sample_sets(8);
        let first = cached.evaluate_batch(&sets).unwrap();
        assert!(cached.cache_misses() > 0);
        let miss_count = cached.cache_misses();
        // Second pass over the same sets: pure hits.
        let second = cached.evaluate_batch(&sets).unwrap();
        assert_eq!(cached.cache_misses(), miss_count);
        assert!(cached.cache_hits() >= 64);
        for ((a, b), set) in first.iter().zip(&second).zip(&sets) {
            assert_eq!(a.word(), b.word());
            assert_eq!(a.word(), gate.evaluate(set.words()).unwrap().word());
        }
    }

    #[test]
    fn precompile_fills_the_whole_lut() {
        let gate = byte_majority();
        let mut cached = CachedBackend::new(gate).unwrap();
        cached.precompile();
        assert_eq!(cached.cache_misses(), 8 * 8); // n channels x 2^3 combos
        let sets = sample_sets(4);
        cached.evaluate_batch(&sets).unwrap();
        assert_eq!(cached.cache_misses(), 8 * 8, "serving must not recompute");
    }

    #[test]
    fn cached_rejects_oversized_luts() {
        let gate = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(2)
            .inputs(17)
            .build();
        // 17-input majority may not even build a layout; if it does, the
        // cached backend must refuse it.
        if let Ok(gate) = gate {
            assert!(matches!(
                CachedBackend::new(gate),
                Err(GateError::UnsupportedFunction { .. })
            ));
        }
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
    fn split_sessions_are_independent_but_warm() {
        let gate = byte_majority();
        let mut session = gate.session(BackendChoice::Cached).unwrap();
        let sets = sample_sets(8);
        session.evaluate_batch(&sets).unwrap();
        let warm_entries = session.lut_snapshot().unwrap().entry_count();
        assert!(warm_entries > 0);

        let mut shard = session.split_session().unwrap();
        assert_eq!(shard.backend_name(), "cached");
        assert_eq!(shard.sets_evaluated(), 0, "split starts fresh counters");
        // The shard inherited the warm LUT: replaying the same sets
        // computes nothing new.
        let replay = shard.evaluate_batch(&sets).unwrap();
        assert_eq!(
            shard.lut_snapshot().unwrap().entry_count(),
            warm_entries,
            "no new entries on a warm shard"
        );
        for (a, b) in session.evaluate_batch(&sets).unwrap().iter().zip(&replay) {
            assert_eq!(a.word(), b.word());
        }
        // Work on the shard does not leak back into the parent.
        assert_eq!(session.sets_evaluated(), 16);
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
    fn lut_import_skips_recomputation() {
        let gate = byte_majority();
        let mut warm = CachedBackend::new(gate.clone()).unwrap();
        warm.precompile();
        let snapshot = warm.lut_snapshot().unwrap();

        let mut cold = CachedBackend::new(gate.clone()).unwrap();
        let imported = cold.import_lut(&snapshot).unwrap();
        assert_eq!(imported, 8 * 8);
        cold.evaluate_batch(&sample_sets(8)).unwrap();
        assert_eq!(cold.cache_misses(), 0, "imported LUT serves everything");

        // Importing into a mismatched gate is rejected.
        let other = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(4)
            .inputs(3)
            .build()
            .unwrap();
        let mut mismatched = CachedBackend::new(other).unwrap();
        assert!(matches!(
            mismatched.import_lut(&snapshot),
            Err(GateError::Persistence { .. })
        ));

        // Non-LUT backends ignore imports and report none.
        let mut analytic = AnalyticBackend::new(gate);
        assert!(analytic.lut_snapshot().is_none());
        assert_eq!(analytic.import_lut(&snapshot).unwrap(), 0);
    }

    #[test]
    fn fdm_batch_matches_per_lane_evaluation_and_fails_whole() {
        use crate::gate::LaneId;
        // Two distinct designs on disjoint bands: the paper-default
        // 10–80 GHz majority and a 100 GHz-based XOR lane.
        let maj = byte_majority();
        let xor = ParallelGateBuilder::new(Waveguide::paper_default().unwrap())
            .channels(8)
            .inputs(2)
            .function(LogicFunction::Xor)
            .base_frequency(100e9)
            .on_lane(LaneId(1))
            .build()
            .unwrap();
        assert!(!maj.frequency_lane().overlaps(xor.frequency_lane()));
        let mut maj_session = maj.session(BackendChoice::Cached).unwrap();
        let mut xor_session = xor.session(BackendChoice::Analytic).unwrap();
        let maj_sets = sample_sets(5);
        let xor_sets: Vec<OperandSet> = sample_sets(3)
            .into_iter()
            .map(|s| OperandSet::new(s.words()[..2].to_vec()))
            .collect();
        let outputs = evaluate_fdm_batch_logic(&mut [
            LaneBatch {
                session: &mut maj_session,
                sets: &maj_sets,
            },
            LaneBatch {
                session: &mut xor_session,
                sets: &xor_sets,
            },
        ])
        .unwrap();
        assert_eq!(outputs.len(), 2);
        for (out, set) in outputs[0].iter().zip(&maj_sets) {
            assert_eq!(*out, maj.evaluate(set.words()).unwrap().word());
        }
        for (out, set) in outputs[1].iter().zip(&xor_sets) {
            assert_eq!(*out, xor.evaluate(set.words()).unwrap().word());
        }
        assert_eq!(maj_session.sets_evaluated(), 5);
        assert_eq!(xor_session.sets_evaluated(), 3);

        // A malformed operand in the SECOND lane fails the whole pass
        // before the first lane evaluates anything.
        let bad = vec![OperandSet::new(vec![Word::from_u8(1)])];
        let err = evaluate_fdm_batch_logic(&mut [
            LaneBatch {
                session: &mut maj_session,
                sets: &maj_sets,
            },
            LaneBatch {
                session: &mut xor_session,
                sets: &bad,
            },
        ]);
        assert!(matches!(err, Err(GateError::InputCountMismatch { .. })));
        assert_eq!(
            maj_session.sets_evaluated(),
            5,
            "the all-or-nothing pass must not half-evaluate"
        );
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
