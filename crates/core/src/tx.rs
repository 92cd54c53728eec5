//! The reconfigurable transmitter engine.
//!
//! [`MotherModel`] is one fixed piece of code whose behavior is entirely
//! determined by its [`OfdmParams`]: the same engine produces 802.11a
//! packets, DVB-T symbol streams and real-valued ADSL DMT frames. This is
//! the paper's thesis made executable — a standard is a parameter file.
//!
//! A frame goes through two passes, both table-driven:
//!
//! * **Encode** ([`MotherModel::begin_stream`]): the payload is copied and
//!   checked in one pass, then scrambled in place against the shared PRBS
//!   period, Reed–Solomon coded from the shared generator-product table
//!   (packing and unpacking a byte at a time), convolutionally coded from
//!   the encoder's output table and interleaved through its permutation.
//!   The stages work in place or ping-pong between the [`StreamState`]'s
//!   coded buffer and the previous frame's, so a frame allocates its
//!   payload copy (and the Reed–Solomon byte stages), not a buffer per
//!   stage, and a state keeps one frame-sized bit buffer.
//! * **Modulate** ([`MotherModel::stream_into`]): each symbol's cells come
//!   from a precomputed `SymbolPlan` per pilot phase, every data cell
//!   one word read from the packed coded bits and two lookups in its
//!   constellation's I/Q axis tables. Cells are sorted only for the
//!   ground-truth log: the IFFT grid does not depend on their order.
//!   Symbols overlap-add into a carry window drained from a read offset;
//!   the window is compacted once per produced section, so emitting a
//!   frame in chunks costs O(chunk) per chunk whatever the chunk size.

use crate::constellation::{AxisTables, Modulation};
use crate::error::{ConfigError, TxError};
use crate::fec::{ConvCode, ReedSolomon};
use crate::framing::{render_element, PreambleElement};
use crate::interleave::Interleaver;
use crate::params::{ModulationPlan, OfdmParams};
use crate::pilots::PilotGenerator;
use crate::scramble::Scrambler;
use crate::symbol::{ShapedSymbol, SymbolModulator, SymbolScratch};
use ofdm_dsp::bits::{pack_msb_first_into, unpack_msb_first_into};
use ofdm_dsp::Complex64;
use rfsim::Signal;
use std::time::Instant;

/// Wall-time decomposition of streamed symbol production, in nanoseconds
/// (see [`StreamState::set_stage_timing`]).
///
/// This is the per-stage telemetry the paper's C3 claim needs to be
/// *decomposable*: not just "the behavioral source is cheap" but where its
/// cycles actually go — pilot generation, constellation mapping, the IFFT,
/// or guard/overlap assembly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Pilot cell generation and data-carrier displacement.
    pub pilot: u64,
    /// Bit→constellation mapping, including differential encoding.
    pub map: u64,
    /// IFFT plus guard-interval/taper shaping of the symbol.
    pub ifft: u64,
    /// Cyclic-prefix/overlap-add assembly into the carry window.
    pub cp: u64,
    /// Number of data symbols the timings cover.
    pub symbols: u64,
}

impl StageNanos {
    /// Total nanoseconds across all four stages.
    pub fn total(&self) -> u64 {
        self.pilot + self.map + self.ifft + self.cp
    }
}

/// One transmitted frame: the waveform plus per-symbol frequency-domain
/// ground truth (C-INTERMEDIATE: receivers, EVM meters and tests all want
/// the cells the transmitter actually sent).
#[derive(Debug, Clone)]
pub struct Frame {
    signal: Signal,
    symbol_cells: Vec<Vec<(i32, Complex64)>>,
    payload_bits: usize,
    coded_bits: usize,
}

impl Frame {
    /// The complex-baseband waveform.
    pub fn signal(&self) -> &Signal {
        &self.signal
    }

    /// Consumes the frame, returning the waveform.
    pub fn into_signal(self) -> Signal {
        self.signal
    }

    /// The raw samples, interleaved from the signal's split storage.
    pub fn samples(&self) -> Vec<Complex64> {
        self.signal.samples()
    }

    /// Per-data-symbol `(carrier, cell)` ground truth, pilots included,
    /// after differential encoding (i.e. exactly what went into the IFFT).
    pub fn symbol_cells(&self) -> &[Vec<(i32, Complex64)>] {
        &self.symbol_cells
    }

    /// Number of OFDM data symbols in the frame.
    pub fn symbol_count(&self) -> usize {
        self.symbol_cells.len()
    }

    /// Payload bits accepted.
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// Bits after scrambling/coding/padding actually mapped to carriers.
    pub fn coded_bits(&self) -> usize {
        self.coded_bits
    }
}

/// Resumable state for streaming frame emission
/// ([`MotherModel::begin_stream`] / [`MotherModel::stream_into`]).
///
/// Owns every buffer the per-symbol hot path touches — coded bits, cell
/// list, IFFT grid and scratch, shaped-symbol buffer and the overlap-add
/// carry window — so a long-lived `StreamState` makes frame emission
/// allocation-free after warm-up, with peak memory O(symbol), not O(frame).
#[derive(Debug, Clone, Default)]
pub struct StreamState {
    /// Coded bit stream for the current frame.
    coded: Vec<u8>,
    /// `coded` packed MSB-first into bytes, plus 8 zero bytes, so the
    /// mapper reads a cell's bits with one 8-byte load and two shifts
    /// (zeros past the end).
    packed: Vec<u8>,
    /// Read position in `coded`.
    cursor: usize,
    /// Next preamble element to render.
    preamble_idx: usize,
    /// Overlap-add carry window: `buf[read..]` is produced but not yet
    /// emitted.
    buf: Vec<Complex64>,
    /// Samples of `buf` already emitted; dropped before the next section.
    read: usize,
    /// Leading samples of `buf` that no future section can change.
    finalized: usize,
    /// No more sections will be produced for this frame.
    done: bool,
    /// Per-symbol modulation scratch (grid + FFT work buffer).
    scratch: SymbolScratch,
    /// Reused shaped-symbol buffer.
    symbol: ShapedSymbol,
    /// Reused `(carrier, cell)` list.
    cells: Vec<(i32, Complex64)>,
    /// Ground-truth log of emitted symbol cells (only if enabled).
    cells_log: Vec<Vec<(i32, Complex64)>>,
    /// Whether to record `cells_log`.
    log_cells: bool,
    /// Payload bits accepted by the active frame.
    payload_bits: usize,
    /// Whether to accumulate per-stage wall times in `stages`.
    stage_timing: bool,
    /// Accumulated stage timings (across frames, until taken).
    stages: StageNanos,
}

impl StreamState {
    /// Fresh state; buffers are grown on first use and reused across frames.
    pub fn new() -> Self {
        StreamState::default()
    }

    /// Enables/disables per-symbol cell logging (disabled by default: the
    /// log grows with the frame, which streaming callers usually avoid).
    pub fn set_cell_logging(&mut self, enabled: bool) {
        self.log_cells = enabled;
    }

    /// Takes the logged ground-truth cells accumulated so far.
    pub fn take_symbol_cells(&mut self) -> Vec<Vec<(i32, Complex64)>> {
        std::mem::take(&mut self.cells_log)
    }

    /// Enables/disables per-stage wall-time accumulation (disabled by
    /// default — the two `Instant` reads per stage are only paid when
    /// enabled, keeping the ordinary hot path untouched).
    pub fn set_stage_timing(&mut self, enabled: bool) {
        self.stage_timing = enabled;
    }

    /// Whether per-stage timing is currently enabled.
    pub fn stage_timing_enabled(&self) -> bool {
        self.stage_timing
    }

    /// The stage timings accumulated since construction or the last
    /// [`StreamState::take_stage_nanos`].
    pub fn stage_nanos(&self) -> StageNanos {
        self.stages
    }

    /// Takes (and zeroes) the accumulated stage timings.
    pub fn take_stage_nanos(&mut self) -> StageNanos {
        std::mem::take(&mut self.stages)
    }

    /// Coded bits mapped (or being mapped) for the current frame.
    pub fn coded_bits(&self) -> usize {
        self.coded.len()
    }

    /// Payload bits accepted for the current frame.
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// `true` once every sample of the current frame has been emitted.
    pub fn is_finished(&self) -> bool {
        self.done && self.read == self.buf.len()
    }

    /// Returns the state to what [`StreamState::new`] holds — no frame, no
    /// logged cells, zeroed stage timings — while keeping every buffer's
    /// capacity and the stage-timing and cell-logging flags, so a reset
    /// stream re-allocates nothing on its next frame.
    pub fn reset(&mut self) {
        self.coded.clear();
        self.packed.clear();
        self.cursor = 0;
        self.preamble_idx = 0;
        self.buf.clear();
        self.read = 0;
        self.finalized = 0;
        self.done = false;
        self.cells.clear();
        self.cells_log.clear();
        self.payload_bits = 0;
        self.stages = StageNanos::default();
    }
}

/// Overlap-adds one shaped section into the carry window. The section
/// starts at `finalized` (where the previous section's net duration ended),
/// and everything before `finalized + net_len` becomes final: later
/// sections start strictly after it. Identical addition order to batch
/// assembly, so streamed output is bit-exact with `symbol::assemble`.
fn push_overlap_add(
    buf: &mut Vec<Complex64>,
    finalized: &mut usize,
    samples: &[Complex64],
    net_len: usize,
) {
    let start = *finalized;
    let needed = start + samples.len();
    if buf.len() < needed {
        buf.resize(needed, Complex64::ZERO);
    }
    for (i, &z) in samples.iter().enumerate() {
        buf[start + i] += z;
    }
    *finalized = start + net_len;
}

/// A borrowed handle streaming one frame in caller-sized sample chunks.
///
/// Obtained from [`MotherModel::stream`]. For buffer reuse across frames,
/// hold a [`StreamState`] yourself and use [`MotherModel::begin_stream`] /
/// [`MotherModel::stream_into`] directly.
///
/// # Example
///
/// ```
/// use ofdm_core::params::presets;
/// use ofdm_core::MotherModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tx = MotherModel::new(presets::minimal_test_params())?;
/// let mut stream = tx.stream(&[1, 0, 1, 1])?;
/// let mut chunk = Vec::new();
/// let mut total = 0;
/// while stream.next_chunk(32, &mut chunk) > 0 {
///     total += chunk.len();
///     chunk.clear();
/// }
/// assert_eq!(total, 80); // one 64+16 symbol
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FrameStream<'a> {
    model: &'a mut MotherModel,
    state: StreamState,
}

impl FrameStream<'_> {
    /// Appends up to `max_samples` of the frame to `out`; returns the
    /// number appended, `0` once the frame is complete.
    pub fn next_chunk(&mut self, max_samples: usize, out: &mut Vec<Complex64>) -> usize {
        self.model.stream_into(&mut self.state, max_samples, out)
    }

    /// `true` once the whole frame has been emitted.
    pub fn is_finished(&self) -> bool {
        self.state.is_finished()
    }

    /// The underlying stream state (e.g. for [`StreamState::coded_bits`]).
    pub fn state(&self) -> &StreamState {
        &self.state
    }
}

/// The reconfigurable OFDM transmitter (the Mother Model).
///
/// # Example
///
/// ```
/// use ofdm_core::params::presets;
/// use ofdm_core::MotherModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tx = MotherModel::new(presets::minimal_test_params())?;
/// let frame = tx.transmit(&[1, 0, 1, 1, 0, 0, 1, 0])?;
/// assert!(frame.symbol_count() >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MotherModel {
    params: OfdmParams,
    modulator: SymbolModulator,
    pilots: PilotGenerator,
    scrambler: Option<Scrambler>,
    conv: Option<ConvCode>,
    rs: Option<ReedSolomon>,
    interleaver: Interleaver,
    /// Precomputed per-phase symbol plans (pilot-displaced data carriers
    /// with their modulations), indexed by
    /// `symbol_index % pilots.position_period()`. Built once in `new`, so
    /// the per-symbol mapper never searches the carrier map.
    plans: Vec<SymbolPlan>,
    /// Differential phase memory, dense over FFT bins (index = carrier
    /// folded into `0..fft_size`); `Complex64::ONE` when unreferenced.
    diff_ref: Vec<Complex64>,
    /// Whether any differential reference has been recorded yet.
    diff_primed: bool,
    /// Running symbol index (pilot sequences span frames).
    symbol_index: usize,
}

/// The precomputed mapping table for one pilot-position phase: every data
/// carrier that survives pilot displacement, ascending, with its
/// constellation's axis tables — the per-symbol mapper just walks this
/// list and consumes bits.
#[derive(Debug, Clone)]
struct SymbolPlan {
    data: Vec<(i32, &'static AxisTables)>,
}

impl MotherModel {
    /// Builds (and validates) a transmitter from a parameter set.
    ///
    /// # Errors
    ///
    /// Any [`ConfigError`] from [`OfdmParams::validate`], the symbol
    /// modulator, the convolutional code or the interleaver.
    pub fn new(params: OfdmParams) -> Result<Self, ConfigError> {
        params.validate()?;
        let modulator = SymbolModulator::new(
            params.map.fft_size(),
            params.guard,
            params.taper_len,
            params.map.is_hermitian(),
        )?;
        let pilots = PilotGenerator::new(params.pilots.clone());
        let scrambler = params.scrambler.clone().map(Scrambler::new);
        let conv = params.conv_code.clone().map(ConvCode::new).transpose()?;
        let rs = params.rs_outer.map(|spec| ReedSolomon::new(spec.n, spec.k));
        let interleaver = Interleaver::new(params.interleaver.clone())?;
        // Precompute one mapping table per pilot-position phase: which data
        // carriers survive displacement and what each one carries. The
        // per-symbol hot path then never re-derives the carrier layout.
        let plans = (0..pilots.position_period())
            .map(|phase| {
                let pilot_carriers = pilots.carriers(phase);
                let data = params
                    .map
                    .data_excluding(&pilot_carriers)
                    .into_iter()
                    .map(|k| {
                        // Bit loading is indexed by the carrier's position in
                        // the full (un-displaced) data list so DMT tables
                        // stay aligned.
                        let idx = params
                            .map
                            .data_carriers()
                            .binary_search(&k)
                            .expect("data carrier comes from the map");
                        (k, params.modulation.modulation_at(idx).axes())
                    })
                    .collect();
                SymbolPlan { data }
            })
            .collect();
        let fft_size = params.map.fft_size();
        Ok(MotherModel {
            params,
            modulator,
            pilots,
            scrambler,
            conv,
            rs,
            interleaver,
            plans,
            diff_ref: vec![Complex64::ONE; fft_size],
            diff_primed: false,
            symbol_index: 0,
        })
    }

    /// Folds a signed carrier index into its dense `diff_ref` slot.
    fn diff_bin(&self, k: i32) -> usize {
        let n = self.params.map.fft_size() as i32;
        if k >= 0 {
            k as usize
        } else {
            (n + k) as usize
        }
    }

    /// The active parameter set.
    pub fn params(&self) -> &OfdmParams {
        &self.params
    }

    /// **The reconfiguration entry point**: swaps the parameter set,
    /// rebuilding all stage state. This is the paper's "changeover from a
    /// standard to another … simply by changing the parameters of one
    /// Mother Model".
    ///
    /// # Errors
    ///
    /// Same as [`MotherModel::new`]; on error the old configuration is
    /// left untouched.
    pub fn reconfigure(&mut self, params: OfdmParams) -> Result<(), ConfigError> {
        *self = MotherModel::new(params)?;
        Ok(())
    }

    /// Runs the full bit-processing chain (scramble → RS → convolutional →
    /// interleave) without modulating. Exposed for the E5 equivalence
    /// experiment and the RT-level cross-check.
    pub fn encode_payload(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut bits: Vec<u8> = payload.iter().map(|&b| b & 1).collect();
        self.encode_bits(&mut bits, Vec::new());
        bits
    }

    /// The bit chain of [`MotherModel::encode_payload`] in place: `bits`
    /// holds payload bits (0/1) on entry and the coded stream on return.
    /// `spare` is the second buffer of the stages that cannot work in
    /// place; it is dropped on return, so a stream state keeps one
    /// frame-sized bit buffer, not two.
    fn encode_bits(&mut self, bits: &mut Vec<u8>, mut spare: Vec<u8>) {
        if let Some(s) = self.scrambler.as_mut() {
            s.reset();
            s.scramble_in_place(bits);
        }
        if let Some(rs) = &self.rs {
            let mut bytes = Vec::with_capacity(bits.len().div_ceil(8));
            pack_msb_first_into(bits, &mut bytes);
            let k = rs.k();
            let pad = (k - bytes.len() % k) % k;
            bytes.resize(bytes.len() + pad, 0);
            let mut codewords = Vec::with_capacity(bytes.len() / k * rs.n());
            for block in bytes.chunks_exact(k) {
                rs.encode_into(block, &mut codewords);
            }
            bits.clear();
            unpack_msb_first_into(&codewords, bits);
        }
        if let Some(c) = self.conv.as_mut() {
            c.reset();
            spare.clear();
            c.encode_terminated_into(bits, &mut spare);
            std::mem::swap(bits, &mut spare);
        }
        if let Some(block) = self.interleaver.spec().block_len() {
            let pad = (block - bits.len() % block) % block;
            bits.resize(bits.len() + pad, 0);
            spare.clear();
            self.interleaver.interleave_into(bits, &mut spare);
            std::mem::swap(bits, &mut spare);
        }
    }

    /// Transmits one frame carrying `payload` bits (values 0/1).
    ///
    /// The coded stream is padded with zeros to fill the last OFDM symbol.
    /// Pilot sequences and differential references continue across calls;
    /// use [`MotherModel::reset`] for an independent frame.
    ///
    /// # Errors
    ///
    /// [`TxError::EmptyPayload`] if `payload` is empty;
    /// [`TxError::InvalidBit`] if any payload byte is not 0 or 1.
    pub fn transmit(&mut self, payload: &[u8]) -> Result<Frame, TxError> {
        let mut state = StreamState::new();
        state.set_cell_logging(true);
        self.begin_stream(payload, &mut state)?;
        let mut samples = Vec::new();
        while self.stream_into(&mut state, usize::MAX, &mut samples) > 0 {}
        Ok(Frame {
            signal: Signal::new(samples, self.params.sample_rate),
            symbol_cells: state.take_symbol_cells(),
            payload_bits: state.payload_bits(),
            coded_bits: state.coded_bits(),
        })
    }

    /// Starts streaming one frame: encodes the payload and arms `state`.
    ///
    /// The frame is then pulled with [`MotherModel::stream_into`]. Reusing
    /// one `state` across frames reuses all per-symbol buffers. Pilot
    /// sequences and differential references continue across frames exactly
    /// as with [`MotherModel::transmit`].
    ///
    /// # Errors
    ///
    /// [`TxError::EmptyPayload`] if `payload` is empty;
    /// [`TxError::InvalidBit`] if any payload byte is not 0 or 1 — the bit
    /// pipeline assumes unpacked bits, and anything else would be silently
    /// masked into a wrong constellation point.
    pub fn begin_stream(&mut self, payload: &[u8], state: &mut StreamState) -> Result<(), TxError> {
        if payload.is_empty() {
            return Err(TxError::EmptyPayload);
        }
        // One pass copies the payload and ORs its bytes together: the OR
        // exceeds 1 exactly when some byte does. A rejected payload leaves
        // the state as it was.
        let mut loaded = Vec::with_capacity(payload.len());
        let mut any = 0u8;
        loaded.extend(payload.iter().map(|&b| {
            any |= b;
            b
        }));
        if any > 1 {
            if let Some(index) = payload.iter().position(|&b| b > 1) {
                return Err(TxError::InvalidBit {
                    index,
                    value: payload[index],
                });
            }
        }
        // The previous frame's buffer becomes the chain's spare.
        let spare = std::mem::replace(&mut state.coded, loaded);
        self.encode_bits(&mut state.coded, spare);
        state.packed.clear();
        pack_msb_first_into(&state.coded, &mut state.packed);
        state.packed.extend_from_slice(&[0; 8]);
        state.cursor = 0;
        state.preamble_idx = 0;
        state.buf.clear();
        state.read = 0;
        state.finalized = 0;
        state.done = false;
        state.cells_log.clear();
        state.payload_bits = payload.len();

        // Initialize differential references from the preamble.
        if self.params.differential && !self.diff_primed {
            self.init_diff_reference();
        }
        Ok(())
    }

    /// Appends up to `max_samples` of the active frame to `out`, returning
    /// the number appended; `0` means the frame is complete.
    ///
    /// Sections (preamble elements, then data symbols) are produced lazily,
    /// one at a time, and drained through the overlap-add carry window —
    /// the concatenation of all chunks is bit-exact with the waveform
    /// [`MotherModel::transmit`] builds in one piece, for any chunking.
    pub fn stream_into(
        &mut self,
        state: &mut StreamState,
        max_samples: usize,
        out: &mut Vec<Complex64>,
    ) -> usize {
        let mut emitted = 0usize;
        while emitted < max_samples {
            if state.read == state.finalized {
                if state.done {
                    break;
                }
                // Everything final is out: drop it, keeping the overlap
                // tail the next section adds into.
                state.buf.drain(..state.read);
                state.finalized = 0;
                state.read = 0;
                if !self.produce_section(state) {
                    state.done = true;
                    // No further sections: the pending tail is final.
                    state.finalized = state.buf.len();
                    if state.finalized == 0 {
                        break;
                    }
                }
                continue;
            }
            let take = (state.finalized - state.read).min(max_samples - emitted);
            out.extend_from_slice(&state.buf[state.read..state.read + take]);
            state.read += take;
            emitted += take;
        }
        emitted
    }

    /// Streams one frame through a borrowed [`FrameStream`] handle (fresh
    /// internal state; see [`MotherModel::begin_stream`] to reuse one).
    ///
    /// # Errors
    ///
    /// [`TxError::EmptyPayload`] if `payload` is empty;
    /// [`TxError::InvalidBit`] if any payload byte is not 0 or 1.
    pub fn stream(&mut self, payload: &[u8]) -> Result<FrameStream<'_>, TxError> {
        let mut state = StreamState::new();
        self.begin_stream(payload, &mut state)?;
        Ok(FrameStream { model: self, state })
    }

    /// Produces the next section (preamble element or data symbol) into the
    /// carry window. Returns `false` when the frame has no more sections.
    fn produce_section(&mut self, state: &mut StreamState) -> bool {
        if let Some(element) = self.params.preamble.get(state.preamble_idx) {
            state.preamble_idx += 1;
            // A frequency-domain element is a symbol like any other: it is
            // modulated into the stream's reused buffers.
            let rendered;
            let section = match element {
                PreambleElement::FreqDomain { cells } => {
                    self.modulator
                        .modulate_into(cells, &mut state.scratch, &mut state.symbol);
                    &state.symbol
                }
                other => {
                    rendered = render_element(other, &self.modulator);
                    &rendered
                }
            };
            push_overlap_add(
                &mut state.buf,
                &mut state.finalized,
                &section.samples,
                section.net_len(),
            );
            return true;
        }
        if state.cursor >= state.coded.len() {
            return false;
        }
        let consumed = {
            let StreamState {
                coded,
                packed,
                cells,
                cursor,
                stage_timing,
                stages,
                ..
            } = state;
            let bits = *cursor..coded.len();
            self.build_symbol_into(packed, bits, cells, stage_timing.then_some(stages))
        };
        state.cursor += consumed;
        let started = state.stage_timing.then(Instant::now);
        self.modulator
            .modulate_into(&state.cells, &mut state.scratch, &mut state.symbol);
        if let Some(t0) = started {
            state.stages.ifft += t0.elapsed().as_nanos() as u64;
        }
        if state.log_cells {
            // Pilots then data, each ascending: merge into carrier order.
            state.cells.sort_by_key(|c| c.0);
            state.cells_log.push(state.cells.clone());
        }
        self.symbol_index += 1;
        if consumed == 0 {
            // No data capacity (all carriers displaced): avoid livelock by
            // ending the frame after this symbol.
            state.cursor = state.coded.len();
        }
        let net = state.symbol.net_len();
        let started = state.stage_timing.then(Instant::now);
        push_overlap_add(
            &mut state.buf,
            &mut state.finalized,
            &state.symbol.samples,
            net,
        );
        if let Some(t0) = started {
            state.stages.cp += t0.elapsed().as_nanos() as u64;
            state.stages.symbols += 1;
        }
        true
    }

    /// Builds the cell list of the next OFDM symbol from the head of the
    /// packed stream's `bits` range into `cells` (cleared first), returning
    /// how many bits were consumed. Bits past the range read as 0.
    ///
    /// This is the precomputed-table mapper: pilot cells come from the
    /// generator's phase template, data carriers and their modulations from
    /// the matching [`SymbolPlan`], each point from its axis tables — no
    /// per-symbol carrier filtering, searching, or per-cell allocation.
    /// The cells are left unsorted (pilots, then data).
    fn build_symbol_into(
        &mut self,
        packed: &[u8],
        bits: std::ops::Range<usize>,
        cells: &mut Vec<(i32, Complex64)>,
        mut timing: Option<&mut StageNanos>,
    ) -> usize {
        let started = timing.as_ref().map(|_| Instant::now());
        cells.clear();
        self.pilots.cells_into(self.symbol_index, cells);
        let plan = &self.plans[self.symbol_index % self.plans.len()];
        if let (Some(t), Some(t0)) = (timing.as_deref_mut(), started) {
            t.pilot += t0.elapsed().as_nanos() as u64;
        }

        let started = timing.as_ref().map(|_| Instant::now());
        let mut pos = bits.start;
        let pilots = cells.len();
        cells.resize(pilots + plan.data.len(), (0, Complex64::ZERO));
        for (cell, &(k, axes)) in cells[pilots..].iter_mut().zip(&plan.data) {
            // The cell's bits (at most 15) from the 64-bit window at byte
            // `pos / 8`, the first in the MSB; the zero padding covers the
            // end.
            let mut window = [0u8; 8];
            window.copy_from_slice(&packed[pos / 8..pos / 8 + 8]);
            let window = u64::from_be_bytes(window) << (pos % 8);
            pos = (pos + axes.bits as usize).min(bits.end);
            let mut point = axes.point((window >> (64 - axes.bits)) as usize);
            if self.params.differential {
                let bin = self.diff_bin(k);
                point = self.diff_ref[bin] * point;
                self.diff_ref[bin] = point;
            }
            *cell = (k, point);
        }
        if let (Some(t), Some(t0)) = (timing, started) {
            t.map += t0.elapsed().as_nanos() as u64;
        }
        pos - bits.start
    }

    fn init_diff_reference(&mut self) {
        for element in &self.params.preamble {
            if let Some(cells) = element.reference_cells() {
                for &(k, v) in cells {
                    let bin = self.diff_bin(k);
                    self.diff_ref[bin] = v;
                }
            }
        }
        self.diff_primed = true;
    }

    /// Resets all running state (scrambler, coder, pilot index,
    /// differential memory) to the configured initial conditions.
    pub fn reset(&mut self) {
        if let Some(s) = self.scrambler.as_mut() {
            s.reset();
        }
        if let Some(c) = self.conv.as_mut() {
            c.reset();
        }
        self.diff_ref.fill(Complex64::ONE);
        self.diff_primed = false;
        self.symbol_index = 0;
    }

    /// The per-symbol data capacity in bits for symbol `symbol_index`
    /// (accounts for scattered pilots displacing data carriers).
    pub fn symbol_capacity(&self, symbol_index: usize) -> usize {
        self.plans[symbol_index % self.plans.len()]
            .data
            .iter()
            .map(|&(_, axes)| axes.bits as usize)
            .sum()
    }

    /// Convenience: the uniform modulation if the plan is uniform.
    pub fn uniform_modulation(&self) -> Option<Modulation> {
        match &self.params.modulation {
            ModulationPlan::Uniform(m) => Some(*m),
            ModulationPlan::PerCarrier(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::Modulation;
    use crate::map::SubcarrierMap;
    use crate::params::presets::minimal_test_params;
    use crate::pilots::{ieee80211a_pilots, PilotSpec};
    use crate::scramble::ScramblerSpec;
    use crate::symbol::GuardInterval;
    use ofdm_dsp::stats::mean_power;

    fn bits(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 5 + 1) % 3 == 0) as u8).collect()
    }

    #[test]
    fn minimal_transmit_produces_waveform() {
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        // 12 QPSK carriers → 24 bits/symbol; 48 bits → 2 symbols.
        let frame = tx.transmit(&bits(48)).unwrap();
        assert_eq!(frame.symbol_count(), 2);
        assert_eq!(frame.payload_bits(), 48);
        assert_eq!(frame.coded_bits(), 48);
        // 64 FFT + 16 CP per symbol.
        assert_eq!(frame.samples().len(), 2 * 80);
        // Body power is exactly 1 by Parseval; the short CP section adds a
        // statistical fluctuation around it.
        assert!((frame.signal().power() - 1.0).abs() < 0.15);
    }

    #[test]
    fn partial_symbol_zero_padded() {
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        let frame = tx.transmit(&bits(25)).unwrap(); // 1 bit into second symbol
        assert_eq!(frame.symbol_count(), 2);
    }

    #[test]
    fn empty_payload_rejected() {
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        assert_eq!(tx.transmit(&[]).unwrap_err(), TxError::EmptyPayload);
    }

    #[test]
    fn non_bit_payload_rejected_with_location() {
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        let mut payload = bits(24);
        payload[5] = 0xFF;
        assert_eq!(
            tx.transmit(&payload).unwrap_err(),
            TxError::InvalidBit {
                index: 5,
                value: 0xFF
            }
        );
        // The model is still usable after the rejection.
        payload[5] = 1;
        assert!(tx.transmit(&payload).is_ok());
        // Streaming entry rejects identically.
        payload[0] = 2;
        let mut state = StreamState::new();
        assert_eq!(
            tx.begin_stream(&payload, &mut state).unwrap_err(),
            TxError::InvalidBit { index: 0, value: 2 }
        );
    }

    #[test]
    fn symbol_cells_match_demodulation() {
        // FFT of the guard-stripped symbol must recover the logged cells.
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        let frame = tx.transmit(&bits(24)).unwrap();
        let cells = &frame.symbol_cells()[0];
        let fft = ofdm_dsp::fft::Fft::new(64);
        let body = &frame.samples()[16..80];
        let mut freq = body.to_vec();
        fft.forward(&mut freq);
        // Normalization: modulate scaled by N/√occupied; forward FFT gives
        // N·(that scale)⁻¹... check proportionality instead.
        let n_cells = cells.len() as f64;
        for &(k, v) in cells {
            let bin = if k >= 0 {
                k as usize
            } else {
                (64 + k) as usize
            };
            let measured = freq[bin].scale(n_cells.sqrt() / 64.0);
            assert!((measured - v).abs() < 1e-9, "carrier {k}");
        }
    }

    #[test]
    fn scrambler_changes_cells_not_power() {
        let p_plain = minimal_test_params();
        let mut p_scr = minimal_test_params();
        p_scr.scrambler = Some(ScramblerSpec::ieee80211());
        let mut tx1 = MotherModel::new(p_plain).unwrap();
        let mut tx2 = MotherModel::new(p_scr).unwrap();
        let f1 = tx1.transmit(&bits(48)).unwrap();
        let f2 = tx2.transmit(&bits(48)).unwrap();
        assert_ne!(f1.samples()[0], f2.samples()[0]);
        assert!((mean_power(&f1.samples()) - mean_power(&f2.samples())).abs() < 0.25);
    }

    #[test]
    fn coding_expands_bits() {
        let mut p = minimal_test_params();
        p.conv_code = Some(crate::fec::ConvSpec::k7_rate_half());
        let mut tx = MotherModel::new(p).unwrap();
        let frame = tx.transmit(&bits(50)).unwrap();
        // 50 payload + 6 tail bits at rate 1/2 → 112 coded bits.
        assert_eq!(frame.coded_bits(), 112);
    }

    #[test]
    fn rs_outer_expands_bytes() {
        let mut p = minimal_test_params();
        p.rs_outer = Some(crate::params::RsOuterSpec { n: 20, k: 12 });
        let mut tx = MotherModel::new(p).unwrap();
        let frame = tx.transmit(&bits(96)).unwrap(); // 12 bytes exactly
        assert_eq!(frame.coded_bits(), 160); // one RS(20,12) block
    }

    #[test]
    fn pilots_present_in_cells() {
        let p = OfdmParams::builder("wlan-like")
            .sample_rate(20e6)
            .map(
                SubcarrierMap::new(
                    64,
                    (-26..=26)
                        .filter(|&k| k != 0 && ![7, 21, -7, -21].contains(&k))
                        .collect(),
                    false,
                )
                .unwrap(),
            )
            .guard(GuardInterval::Fraction(1, 4))
            .modulation(Modulation::Qpsk)
            .pilots(ieee80211a_pilots())
            .build()
            .unwrap();
        let mut tx = MotherModel::new(p).unwrap();
        let frame = tx.transmit(&bits(96)).unwrap();
        let cells = &frame.symbol_cells()[0];
        assert_eq!(cells.len(), 52);
        let pilot_cell = cells.iter().find(|c| c.0 == -21).unwrap();
        assert_eq!(pilot_cell.1, Complex64::ONE); // p₀ = +1
    }

    #[test]
    fn pilot_sequence_advances_across_frames() {
        let p = OfdmParams::builder("wlan-like")
            .sample_rate(20e6)
            .map(
                SubcarrierMap::new(
                    64,
                    (-26..=26)
                        .filter(|&k| k != 0 && ![7, 21, -7, -21].contains(&k))
                        .collect(),
                    false,
                )
                .unwrap(),
            )
            .modulation(Modulation::Qpsk)
            .pilots(ieee80211a_pilots())
            .build()
            .unwrap();
        let mut tx = MotherModel::new(p).unwrap();
        // Consume 4 symbols; the 5th (index 4) has polarity −1.
        tx.transmit(&bits(96 * 4)).unwrap();
        let frame = tx.transmit(&bits(96)).unwrap();
        let pilot = frame.symbol_cells()[0].iter().find(|c| c.0 == -21).unwrap();
        assert_eq!(pilot.1.re, -1.0);
        // Reset rewinds to p₀.
        tx.reset();
        let frame = tx.transmit(&bits(96)).unwrap();
        let pilot = frame.symbol_cells()[0].iter().find(|c| c.0 == -21).unwrap();
        assert_eq!(pilot.1.re, 1.0);
    }

    #[test]
    fn differential_encoding_chains_phases() {
        let p = OfdmParams::builder("dqpsk")
            .sample_rate(2.048e6)
            .map(SubcarrierMap::contiguous(64, -8, 8, false).unwrap())
            .modulation(Modulation::Qpsk)
            .differential(true)
            .preamble_element(PreambleElement::FreqDomain {
                cells: (-8..=8)
                    .filter(|&k| k != 0)
                    .map(|k| (k, Complex64::ONE))
                    .collect(),
            })
            .build()
            .unwrap();
        let mut tx = MotherModel::new(p).unwrap();
        let frame = tx.transmit(&bits(64)).unwrap();
        // All differential cells have unit magnitude (QPSK is PSK).
        for cells in frame.symbol_cells() {
            for &(_, v) in cells {
                assert!((v.abs() - 1.0).abs() < 1e-9);
            }
        }
        // Successive symbols on one carrier differ by a QPSK phasor.
        let c0 = frame.symbol_cells()[0].iter().find(|c| c.0 == 1).unwrap().1;
        let c1 = frame.symbol_cells()[1].iter().find(|c| c.0 == 1).unwrap().1;
        let ratio = c1 * c0.inv();
        let qpsk_phases = [0.25, 0.75, -0.75, -0.25].map(|x: f64| x * std::f64::consts::PI);
        assert!(qpsk_phases
            .iter()
            .any(|&ph| (ratio.arg() - ph).abs() < 1e-6));
    }

    #[test]
    fn hermitian_mode_emits_real_waveform() {
        let p = OfdmParams::builder("dmt")
            .sample_rate(2.208e6)
            .map(SubcarrierMap::new(512, (33..=255).collect(), true).unwrap())
            .guard(GuardInterval::Samples(32))
            .bit_loading(
                (33..=255)
                    .map(|k| Modulation::from_bits(2 + (k % 6) as u8))
                    .collect(),
            )
            .build()
            .unwrap();
        let mut tx = MotherModel::new(p).unwrap();
        let frame = tx.transmit(&bits(1000)).unwrap();
        // Half-length synthesis writes a real body: the imaginary part is
        // exactly +0.0, not merely small.
        for z in frame.samples() {
            assert_eq!(z.im.to_bits(), 0, "imag leak {}", z.im);
        }
    }

    #[test]
    fn reconfigure_swaps_standard() {
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        assert_eq!(tx.params().map.fft_size(), 64);
        let p2 = OfdmParams::builder("bigger")
            .sample_rate(8e6)
            .map(SubcarrierMap::contiguous(256, -100, 100, false).unwrap())
            .modulation(Modulation::Qam(4))
            .build()
            .unwrap();
        tx.reconfigure(p2).unwrap();
        assert_eq!(tx.params().map.fft_size(), 256);
        let frame = tx.transmit(&bits(800)).unwrap();
        assert_eq!(frame.symbol_count(), 1);
    }

    #[test]
    fn reconfigure_failure_keeps_old_config() {
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        let mut bad = minimal_test_params();
        bad.sample_rate = -5.0;
        assert!(tx.reconfigure(bad).is_err());
        // Old config still works... (reconfigure replaced nothing).
        assert_eq!(tx.params().name, "minimal-test");
        assert!(tx.transmit(&bits(24)).is_ok());
    }

    #[test]
    fn preamble_prepended() {
        let mut p = minimal_test_params();
        p.preamble = vec![PreambleElement::Null { len: 50 }];
        let mut tx = MotherModel::new(p).unwrap();
        let frame = tx.transmit(&bits(24)).unwrap();
        assert_eq!(frame.samples().len(), 50 + 80);
        for z in &frame.samples()[..50] {
            assert_eq!(z.abs(), 0.0);
        }
    }

    #[test]
    fn capacity_accounts_for_scattered_pilots() {
        use crate::pilots::LfsrSpec;
        let p = OfdmParams::builder("scattered")
            .sample_rate(1e6)
            .map(SubcarrierMap::contiguous(128, -48, 48, false).unwrap())
            .modulation(Modulation::Qpsk)
            .pilots(PilotSpec::ScatteredGrid {
                used_min: -48,
                used_max: 48,
                spacing: 12,
                shift: 3,
                period: 4,
                continual: vec![],
                boost: 4.0 / 3.0,
                carrier_lfsr: LfsrSpec::dvb_wk(),
            })
            .build()
            .unwrap();
        let tx = MotherModel::new(p).unwrap();
        // Symbol 0 pilots: -48, -36, …, 48 → 9 pilots, one of them at DC
        // position 0 which is not a data carrier anyway → 8 displaced.
        let cap0 = tx.symbol_capacity(0);
        assert_eq!(cap0, (96 - 8) * 2);
        // Symbol 1 pilots at -45, -33, …, 39 → 8 pilots, none at DC.
        let cap1 = tx.symbol_capacity(1);
        assert_eq!(cap1, (96 - 8) * 2);
    }

    #[test]
    fn streaming_matches_transmit_exactly() {
        // Chunked emission must be bit-exact with the batch waveform for
        // chunk sizes that do and do not divide the section lengths.
        let mut p = minimal_test_params();
        p.taper_len = 4;
        p.preamble = vec![PreambleElement::Null { len: 23 }];
        for chunk in [1usize, 7, 64, 80, 1000] {
            let mut tx_a = MotherModel::new(p.clone()).unwrap();
            let mut tx_b = MotherModel::new(p.clone()).unwrap();
            let payload = bits(3 * 24 + 5);
            let frame = tx_a.transmit(&payload).unwrap();
            let mut streamed = Vec::new();
            let mut state = StreamState::new();
            tx_b.begin_stream(&payload, &mut state).unwrap();
            while tx_b.stream_into(&mut state, chunk, &mut streamed) > 0 {}
            assert!(state.is_finished());
            assert_eq!(frame.samples(), &streamed[..], "chunk={chunk}");
            assert_eq!(state.coded_bits(), frame.coded_bits());
        }
    }

    #[test]
    fn stream_state_reuse_across_frames_matches_sequential_transmits() {
        // Pilot/differential continuity: two streamed frames from one
        // reused state equal two batch transmits from a twin transmitter.
        let mut tx_a = MotherModel::new(minimal_test_params()).unwrap();
        let mut tx_b = MotherModel::new(minimal_test_params()).unwrap();
        let mut state = StreamState::new();
        for frame_no in 0..2 {
            let payload = bits(48 + frame_no);
            let frame = tx_a.transmit(&payload).unwrap();
            let mut streamed = Vec::new();
            tx_b.begin_stream(&payload, &mut state).unwrap();
            while tx_b.stream_into(&mut state, 13, &mut streamed) > 0 {}
            assert_eq!(frame.samples(), &streamed[..], "frame={frame_no}");
        }
    }

    #[test]
    fn reset_stream_state_keeps_buffers_and_flags() {
        let mut p = minimal_test_params();
        p.taper_len = 4;
        p.preamble = vec![PreambleElement::Null { len: 23 }];
        let payload = bits(3 * 24 + 5);
        let mut tx = MotherModel::new(p).unwrap();
        let mut state = StreamState::new();
        state.set_stage_timing(true);
        state.set_cell_logging(true);
        let mut first = Vec::new();
        tx.begin_stream(&payload, &mut state).unwrap();
        while tx.stream_into(&mut state, 37, &mut first) > 0 {}
        let capacities = |s: &StreamState| {
            (
                s.packed.capacity(),
                s.buf.capacity(),
                s.cells.capacity(),
                s.symbol.samples.capacity(),
            )
        };
        let warm = capacities(&state);
        state.reset();
        assert_eq!(capacities(&state), warm);
        assert_eq!((state.coded_bits(), state.payload_bits()), (0, 0));
        assert!(!state.is_finished());
        assert_eq!(state.stage_nanos(), StageNanos::default());
        assert!(state.take_symbol_cells().is_empty());
        assert!(state.stage_timing_enabled());
        // A reset model on the reset state repeats the frame, logging and
        // timing it again.
        tx.reset();
        let mut again = Vec::new();
        tx.begin_stream(&payload, &mut state).unwrap();
        while tx.stream_into(&mut state, 37, &mut again) > 0 {}
        assert_eq!(first, again);
        assert_eq!(capacities(&state), warm);
        assert_eq!(state.stage_nanos().symbols, 4);
        assert_eq!(state.take_symbol_cells().len(), 4);
    }

    #[test]
    fn frame_stream_handle_emits_whole_frame() {
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        let reference = {
            let mut twin = MotherModel::new(minimal_test_params()).unwrap();
            twin.transmit(&bits(48)).unwrap()
        };
        let mut stream = tx.stream(&bits(48)).unwrap();
        assert!(!stream.is_finished());
        let mut out = Vec::new();
        while stream.next_chunk(11, &mut out) > 0 {}
        assert!(stream.is_finished());
        assert_eq!(reference.samples(), &out[..]);
    }

    #[test]
    fn stage_timing_decomposes_streamed_symbols() {
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        let mut state = StreamState::new();
        state.set_stage_timing(true);
        let payload = bits(4 * 24);
        tx.begin_stream(&payload, &mut state).unwrap();
        let mut out = Vec::new();
        while tx.stream_into(&mut state, 64, &mut out) > 0 {}
        let stages = state.stage_nanos();
        assert_eq!(stages.symbols, 4);
        // Every stage actually ran and was measured.
        assert!(stages.map > 0, "{stages:?}");
        assert!(stages.ifft > 0, "{stages:?}");
        assert!(stages.cp > 0, "{stages:?}");
        assert_eq!(
            stages.total(),
            stages.pilot + stages.map + stages.ifft + stages.cp
        );
        // take zeroes the accumulator.
        let taken = state.take_stage_nanos();
        assert_eq!(taken, stages);
        assert_eq!(state.stage_nanos(), StageNanos::default());
    }

    #[test]
    fn stage_timing_does_not_change_the_waveform() {
        let payload = bits(2 * 24 + 3);
        let reference = MotherModel::new(minimal_test_params())
            .unwrap()
            .transmit(&payload)
            .unwrap();
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        let mut state = StreamState::new();
        state.set_stage_timing(true);
        tx.begin_stream(&payload, &mut state).unwrap();
        let mut out = Vec::new();
        while tx.stream_into(&mut state, 7, &mut out) > 0 {}
        assert_eq!(reference.samples(), &out[..]);
    }

    #[test]
    fn encode_payload_without_stages_is_identity() {
        let mut tx = MotherModel::new(minimal_test_params()).unwrap();
        let b = bits(40);
        assert_eq!(tx.encode_payload(&b), b);
        assert_eq!(tx.uniform_modulation(), Some(Modulation::Qpsk));
    }
}
