//! The full reference receiver: waveform → payload bits.
//!
//! Inverts the Mother Model chain stage by stage — preamble skip, guard
//! strip, FFT, (optional) equalization, differential decode, hard
//! demapping, deinterleaving, Viterbi, Reed–Solomon, descrambling — for
//! any parameter set the transmitter accepts. Used by E1 (reconfiguration
//! proof: BER = 0 loopback over all ten standards) and E6 (impairment
//! sweeps).
//!
//! Like the transmitter's `SymbolPlan`s, the carrier layout is worked out
//! once: [`ReferenceReceiver::new`] builds one receive plan per pilot
//! position phase (each data carrier's FFT bin, modulation and dense
//! slot, plus the pilot bins), and [`ReferenceReceiver::set_channel_estimate`]
//! turns the estimate into one equalizer tap per slot. A symbol is then
//! one gather and FFT into held buffers, followed by a walk over the
//! planned bins — no per-symbol carrier filtering, searching or
//! allocation.

use crate::demod::{OfdmDemodulator, Spectrum};
use crate::eq::ChannelEstimate;
use crate::fec::ViterbiDecoder;
use ofdm_core::constellation::Modulation;
use ofdm_core::fec::rs::RsError;
use ofdm_core::fec::ReedSolomon;
use ofdm_core::framing::{preamble_len, PreambleElement};
use ofdm_core::interleave::Interleaver;
use ofdm_core::params::OfdmParams;
use ofdm_core::scramble::Scrambler;
use ofdm_core::symbol::SymbolModulator;
use ofdm_dsp::bits::{pack_msb_first, unpack_msb_first};
use ofdm_dsp::Complex64;
use rfsim::Signal;
use std::error::Error;
use std::fmt;

/// Receiver failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RxError {
    /// The waveform is shorter than preamble + required data symbols.
    SignalTooShort {
        /// Samples available.
        got: usize,
        /// Samples needed.
        needed: usize,
    },
    /// The outer Reed–Solomon code could not correct a block.
    Uncorrectable(RsError),
    /// The parameter set failed validation.
    BadConfig(String),
}

impl fmt::Display for RxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RxError::SignalTooShort { got, needed } => {
                write!(f, "waveform has {got} samples but {needed} are needed")
            }
            RxError::Uncorrectable(e) => write!(f, "outer code failed: {e}"),
            RxError::BadConfig(msg) => write!(f, "invalid receiver configuration: {msg}"),
        }
    }
}

impl Error for RxError {}

impl From<RsError> for RxError {
    fn from(e: RsError) -> Self {
        RxError::Uncorrectable(e)
    }
}

/// A matched receiver for one Mother Model parameter set.
pub struct ReferenceReceiver {
    params: OfdmParams,
    demod: OfdmDemodulator,
    preamble_samples: usize,
    viterbi: Option<ViterbiDecoder>,
    rs: Option<ReedSolomon>,
    interleaver: Interleaver,
    /// Per-phase receive plans, indexed by
    /// `symbol_index % pilots.position_period()`.
    plans: Vec<ReceivePlan>,
    /// The carrier behind each dense slot: every data carrier of the map
    /// and every pilot carrier of any phase, ascending.
    slot_carriers: Vec<i32>,
    /// One-tap equalizer per slot, `1/H(k)`, when a channel estimate is
    /// installed; `None` in a slot whose gain is too small to invert
    /// (the cell is left unequalized).
    equalizer: Option<Vec<Option<Complex64>>>,
    /// Differential reference per slot (differential standards only).
    diff_ref: Vec<Complex64>,
    /// The FFT window and scratch reused by every symbol.
    spectrum: Spectrum,
    /// The current symbol's expected pilot cells (pilot tracking).
    pilot_cells: Vec<(i32, Complex64)>,
    /// Pilot-based common-phase-error correction per symbol.
    pilot_tracking: bool,
    /// Carrier-frequency-offset estimate in Hz, derotated before demod.
    cfo_hz: f64,
}

/// The receive-side twin of the transmitter's `SymbolPlan`: what one
/// pilot-position phase's symbols carry, precomputed.
#[derive(Debug)]
struct ReceivePlan {
    /// Undoes the transmitter normalization and the FFT gain for this
    /// phase's occupied-carrier count (pilots + data).
    scale: f64,
    /// `(bin, slot)` of each pilot, in the generator's (carrier) order.
    pilots: Vec<(usize, usize)>,
    /// The data carriers that survive pilot displacement, ascending.
    data: Vec<PlannedCell>,
    /// Coded bits one symbol of this phase carries.
    bits: usize,
}

/// One data carrier of a [`ReceivePlan`].
#[derive(Debug, Clone, Copy)]
struct PlannedCell {
    bin: usize,
    slot: usize,
    modulation: Modulation,
}

impl ReferenceReceiver {
    /// Builds a receiver matched to `params`.
    ///
    /// # Errors
    ///
    /// [`RxError::BadConfig`] if the parameter set is invalid.
    pub fn new(params: OfdmParams) -> Result<Self, RxError> {
        params
            .validate()
            .map_err(|e| RxError::BadConfig(e.to_string()))?;
        let modulator = SymbolModulator::new(
            params.map.fft_size(),
            params.guard,
            params.taper_len,
            params.map.is_hermitian(),
        )
        .map_err(|e| RxError::BadConfig(e.to_string()))?;
        let preamble_samples = preamble_len(&params.preamble, &modulator);
        let viterbi = params.conv_code.clone().map(ViterbiDecoder::new);
        let rs = params.rs_outer.map(|spec| ReedSolomon::new(spec.n, spec.k));
        let interleaver = Interleaver::new(params.interleaver.clone())
            .map_err(|e| RxError::BadConfig(e.to_string()))?;
        let demod = OfdmDemodulator::new(params.clone());
        let pilots = demod.pilots();
        let phase_pilots: Vec<Vec<i32>> = (0..pilots.position_period())
            .map(|phase| pilots.carriers(phase))
            .collect();
        let all_data = params.map.data_carriers();
        let mut slot_carriers: Vec<i32> = all_data.to_vec();
        slot_carriers.extend(phase_pilots.iter().flatten());
        slot_carriers.sort_unstable();
        slot_carriers.dedup();
        let slot = |k: i32| {
            slot_carriers
                .binary_search(&k)
                .expect("every planned carrier has a slot")
        };
        let plans = phase_pilots
            .iter()
            .map(|pilot_carriers| {
                let data: Vec<PlannedCell> = params
                    .map
                    .data_excluding(pilot_carriers)
                    .into_iter()
                    .map(|k| {
                        // Bit loading is indexed by the carrier's position
                        // in the full (un-displaced) data list, as on the
                        // transmit side.
                        let idx = all_data.binary_search(&k).expect("carrier from map");
                        PlannedCell {
                            bin: demod.bin(k),
                            slot: slot(k),
                            modulation: params.modulation.modulation_at(idx),
                        }
                    })
                    .collect();
                ReceivePlan {
                    scale: demod.cell_scale(pilot_carriers.len() + data.len()),
                    bits: data.iter().map(|c| c.modulation.bits_per_symbol()).sum(),
                    pilots: pilot_carriers
                        .iter()
                        .map(|&k| (demod.bin(k), slot(k)))
                        .collect(),
                    data,
                }
            })
            .collect();
        let diff_ref = if params.differential {
            vec![Complex64::ONE; slot_carriers.len()]
        } else {
            Vec::new()
        };
        Ok(ReferenceReceiver {
            demod,
            params,
            preamble_samples,
            viterbi,
            rs,
            interleaver,
            plans,
            slot_carriers,
            equalizer: None,
            diff_ref,
            spectrum: Spectrum::default(),
            pilot_cells: Vec::new(),
            pilot_tracking: false,
            cfo_hz: 0.0,
        })
    }

    /// Builder: enables per-symbol common-phase-error correction from the
    /// pilot cells (essential under residual CFO or LO phase noise; a
    /// no-op for pilotless configurations).
    pub fn with_pilot_tracking(mut self, on: bool) -> Self {
        self.pilot_tracking = on;
        self
    }

    /// Builder: installs a carrier-frequency-offset estimate (Hz). The
    /// whole waveform is derotated by `e^{-j2πΔf·n/fs}` before
    /// demodulation, cancelling a [`rfsim::CfoChannel`] with the same
    /// offset (up to the pilot-tracked residual).
    pub fn with_cfo_compensation(mut self, freq_hz: f64) -> Self {
        self.cfo_hz = freq_hz;
        self
    }

    /// Installs or updates the CFO estimate (Hz); `0.0` disables the
    /// derotation pass.
    pub fn set_cfo_estimate(&mut self, freq_hz: f64) {
        self.cfo_hz = freq_hz;
    }

    /// The currently installed CFO estimate in Hz.
    pub fn cfo_estimate(&self) -> f64 {
        self.cfo_hz
    }

    /// Installs a channel estimate applied (one-tap) before demapping:
    /// each cell is multiplied by `1/H(k)`, except where `|H(k)| ≤ 1e-9`
    /// (a deep null, left unequalized rather than blown up).
    pub fn set_channel_estimate(&mut self, est: ChannelEstimate) {
        let taps = self
            .slot_carriers
            .iter()
            .map(|&k| {
                let h = est.gain_at(k);
                (h.abs() > 1e-9).then(|| h.inv())
            })
            .collect();
        self.equalizer = Some(taps);
    }

    /// Removes any installed channel estimate.
    pub fn clear_channel_estimate(&mut self) {
        self.equalizer = None;
    }

    /// Samples the frame's preamble occupies.
    pub fn preamble_samples(&self) -> usize {
        self.preamble_samples
    }

    /// The parameter set.
    pub fn params(&self) -> &OfdmParams {
        &self.params
    }

    /// Computes the coded-bit count the transmitter produces for a payload
    /// of `payload_bits` (mirror of `MotherModel::encode_payload` sizing).
    pub fn coded_len(&self, payload_bits: usize) -> usize {
        let mut bits = payload_bits;
        if let Some(rs) = &self.rs {
            let bytes = bits.div_ceil(8);
            let blocks = bytes.div_ceil(rs.k());
            bits = blocks * rs.n() * 8;
        }
        if let Some(v) = &self.viterbi {
            let spec = v.spec();
            let raw = (bits + spec.constraint as usize - 1) * spec.polynomials.len();
            bits = if spec.puncture.pattern.is_empty() {
                raw
            } else {
                let period = spec.puncture.pattern.len();
                let kept: usize = spec.puncture.pattern.iter().filter(|&&b| b).count();
                let full_periods = raw / period;
                let rem = raw % period;
                let rem_kept = spec.puncture.pattern[..rem].iter().filter(|&&b| b).count();
                full_periods * kept + rem_kept
            };
        }
        bits
    }

    /// Demodulates and decodes one frame back to `payload_bits` payload
    /// bits.
    ///
    /// # Errors
    ///
    /// * [`RxError::SignalTooShort`] when the waveform cannot hold the
    ///   required symbols.
    /// * [`RxError::Uncorrectable`] when the outer code fails.
    pub fn receive(&mut self, signal: &Signal, payload_bits: usize) -> Result<Vec<u8>, RxError> {
        let padded_len = self.padded_len(payload_bits);
        let mut bits = Vec::with_capacity(padded_len);
        self.demap_frame(signal, payload_bits, |m, z| m.demap_hard_into(z, &mut bits))?;
        bits.truncate(padded_len);
        // Undo interleaving, inner code, outer code, scrambling.
        let mut bits = self.interleaver.deinterleave(&bits);
        bits.truncate(self.coded_len(payload_bits));
        if let Some(v) = &self.viterbi {
            let pre_conv = self.pre_conv_len(payload_bits);
            bits = v.decode_terminated(&bits, pre_conv);
        }
        if let Some(rs) = &self.rs {
            let bytes = pack_msb_first(&bits);
            let mut decoded = Vec::with_capacity(bytes.len() / rs.n() * rs.k());
            for block in bytes.chunks(rs.n()) {
                if block.len() == rs.n() {
                    decoded.extend(rs.decode(block)?);
                }
            }
            bits = unpack_msb_first(&decoded);
        }
        if let Some(spec) = &self.params.scrambler {
            let mut scr = Scrambler::new(spec.clone());
            bits = scr.scramble(&bits);
        }
        bits.truncate(payload_bits);
        Ok(bits)
    }

    /// Coded bits after interleaver padding for a `payload_bits` payload.
    fn padded_len(&self, payload_bits: usize) -> usize {
        let coded_len = self.coded_len(payload_bits);
        match self.interleaver.spec().block_len() {
            Some(block) => coded_len.div_ceil(block) * block,
            None => coded_len,
        }
    }

    /// Demodulates the data symbols of a frame carrying `payload_bits`
    /// payload bits and hands `demap` each data cell with its modulation,
    /// in demapping order, once scaled, equalized, pilot-tracked and
    /// differentially decoded: the decision cells
    /// [`ReferenceReceiver::receive`] hard-demaps. Stops after the symbol
    /// that completes the coded, interleaver-padded bit count.
    ///
    /// # Errors
    ///
    /// [`RxError::SignalTooShort`] when the waveform cannot hold the
    /// required symbols.
    pub fn demap_frame(
        &mut self,
        signal: &Signal,
        payload_bits: usize,
        mut demap: impl FnMut(Modulation, Complex64),
    ) -> Result<(), RxError> {
        let padded_len = self.padded_len(payload_bits);
        // Hot path runs on the Signal's native split re/im layout — no
        // whole-frame Vec<Complex64> materialization. A CFO estimate is
        // the one case that still needs an owned copy: the derotation must
        // not mutate the caller's signal.
        let (sig_re, sig_im) = signal.parts();
        let derotated: Option<(Vec<f64>, Vec<f64>)> = if self.cfo_hz != 0.0 {
            let fs = signal.sample_rate();
            let mut re = sig_re.to_vec();
            let mut im = sig_im.to_vec();
            for (n, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
                let phase = -std::f64::consts::TAU * self.cfo_hz * n as f64 / fs;
                let (sin, cos) = phase.sin_cos();
                let (xr, xi) = (*r, *i);
                *r = xr * cos - xi * sin;
                *i = xr * sin + xi * cos;
            }
            Some((re, im))
        } else {
            None
        };
        let (re, im): (&[f64], &[f64]) = match &derotated {
            Some((r, i)) => (r, i),
            None => (sig_re, sig_im),
        };
        let total = signal.len();
        let sym_len = self.demod.symbol_len();
        let too_short = |offset: usize| RxError::SignalTooShort {
            got: total,
            needed: offset + sym_len,
        };

        // Differential reference: the *received* phase-reference preamble
        // cells. Dividing by received (not transmitted) cells makes any
        // static channel cancel in the differential ratio — the property
        // differential systems exist for.
        if self.params.differential {
            self.diff_ref.fill(Complex64::ONE);
            let mut element_offset = 0usize;
            for element in &self.params.preamble {
                match element {
                    PreambleElement::Null { len } => element_offset += len,
                    PreambleElement::TimeDomain(s) => element_offset += s.len(),
                    PreambleElement::FreqDomain { cells } => {
                        let freq = self
                            .demod
                            .spectrum(re, im, element_offset, &mut self.spectrum)
                            .ok_or_else(|| too_short(element_offset))?;
                        let scale = self.demod.cell_scale(cells.len());
                        for &(k, _) in cells {
                            if let Ok(slot) = self.slot_carriers.binary_search(&k) {
                                self.diff_ref[slot] = freq[self.demod.bin(k)].scale(scale);
                            }
                        }
                        element_offset += sym_len;
                    }
                }
            }
        }

        // Demap symbol by symbol. Every cell is scaled, equalized,
        // derotated by pilot tracking and differentially decoded in that
        // order, and the pilot sum runs in carrier order: the floating-point
        // order the pinned BER documents were produced with, which
        // tests/receiver_plans.rs holds bit for bit.
        let mut demapped = 0usize;
        let mut offset = self.preamble_samples;
        let mut symbol_index = 0usize;
        while demapped < padded_len {
            let freq = self
                .demod
                .spectrum(re, im, offset, &mut self.spectrum)
                .ok_or_else(|| too_short(offset))?;
            let plan = &self.plans[symbol_index % self.plans.len()];
            let equalizer = self.equalizer.as_deref();
            let cell = |bin: usize, slot: usize| {
                let y = freq[bin].scale(plan.scale);
                match equalizer.and_then(|taps| taps[slot]) {
                    Some(inv) => y * inv,
                    None => y,
                }
            };
            let mut derotate = None;
            if self.pilot_tracking {
                self.pilot_cells.clear();
                self.demod
                    .pilots()
                    .cells_into(symbol_index, &mut self.pilot_cells);
                let mut acc = Complex64::ZERO;
                for (&(bin, slot), &(_, want)) in plan.pilots.iter().zip(&self.pilot_cells) {
                    acc += cell(bin, slot) * want.conj();
                }
                if acc.abs() > 1e-12 {
                    derotate = Some(Complex64::cis(-acc.arg()));
                }
            }
            for c in &plan.data {
                let mut value = cell(c.bin, c.slot);
                if let Some(r) = derotate {
                    value *= r;
                }
                if self.params.differential {
                    let decided = value;
                    value *= self.diff_ref[c.slot].inv();
                    self.diff_ref[c.slot] = decided;
                }
                demap(c.modulation, value);
            }
            demapped += plan.bits;
            offset += sym_len;
            symbol_index += 1;
            if plan.data.is_empty() {
                break;
            }
        }
        Ok(())
    }

    /// Bit count entering the convolutional encoder (after scrambling and
    /// RS) for a given payload size.
    fn pre_conv_len(&self, payload_bits: usize) -> usize {
        let mut bits = payload_bits;
        if let Some(rs) = &self.rs {
            let bytes = bits.div_ceil(8);
            let blocks = bytes.div_ceil(rs.k());
            bits = blocks * rs.n() * 8;
        }
        bits
    }
}

impl fmt::Debug for ReferenceReceiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReferenceReceiver")
            .field("standard", &self.params.name)
            .field("preamble_samples", &self.preamble_samples)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::params::presets::minimal_test_params;
    use ofdm_core::MotherModel;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 11 + 2) % 7 < 3) as u8).collect()
    }

    fn loopback(params: OfdmParams, n_bits: usize) {
        let name = params.name.clone();
        let mut tx = MotherModel::new(params.clone()).unwrap();
        let mut rx = ReferenceReceiver::new(params).unwrap();
        let sent = payload(n_bits);
        let frame = tx.transmit(&sent).unwrap();
        let got = rx.receive(frame.signal(), sent.len()).unwrap();
        assert_eq!(got, sent, "{name}");
    }

    #[test]
    fn minimal_loopback() {
        loopback(minimal_test_params(), 100);
    }

    #[test]
    fn loopback_with_scrambler() {
        let mut p = minimal_test_params();
        p.scrambler = Some(ofdm_core::scramble::ScramblerSpec::ieee80211());
        loopback(p, 77);
    }

    #[test]
    fn loopback_with_conv_code() {
        let mut p = minimal_test_params();
        p.conv_code = Some(ofdm_core::fec::ConvSpec::k7_rate_half());
        loopback(p, 90);
    }

    #[test]
    fn loopback_with_punctured_code() {
        let mut p = minimal_test_params();
        p.conv_code = Some(ofdm_core::fec::ConvSpec::k7_rate_three_quarters());
        loopback(p, 120);
    }

    #[test]
    fn loopback_with_rs() {
        let mut p = minimal_test_params();
        p.rs_outer = Some(ofdm_core::params::RsOuterSpec { n: 20, k: 12 });
        loopback(p, 96);
    }

    #[test]
    fn loopback_full_chain() {
        let mut p = minimal_test_params();
        p.scrambler = Some(ofdm_core::scramble::ScramblerSpec::dvb());
        p.rs_outer = Some(ofdm_core::params::RsOuterSpec { n: 20, k: 12 });
        p.conv_code = Some(ofdm_core::fec::ConvSpec::k7_rate_two_thirds());
        p.interleaver = ofdm_core::interleave::InterleaverSpec::BlockRowCol { rows: 4, cols: 6 };
        loopback(p, 96);
    }

    #[test]
    fn coded_len_matches_tx() {
        for (rs, cc) in [
            (None, None),
            (Some(ofdm_core::params::RsOuterSpec { n: 20, k: 12 }), None),
            (
                None,
                Some(ofdm_core::fec::ConvSpec::k7_rate_three_quarters()),
            ),
            (
                Some(ofdm_core::params::RsOuterSpec { n: 20, k: 12 }),
                Some(ofdm_core::fec::ConvSpec::k7_rate_half()),
            ),
        ] {
            let mut p = minimal_test_params();
            p.rs_outer = rs;
            p.conv_code = cc;
            let mut tx = MotherModel::new(p.clone()).unwrap();
            let rx = ReferenceReceiver::new(p).unwrap();
            for n in [8usize, 33, 96, 200] {
                let sent = payload(n);
                let coded = tx.encode_payload(&sent);
                // encode_payload includes interleaver padding; coded_len is
                // the pre-padding size.
                assert!(coded.len() >= rx.coded_len(n), "n={n}");
                let unpadded = rx.coded_len(n);
                assert_eq!(
                    unpadded,
                    coded.len(), // no interleaver in these configs
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn too_short_signal_detected() {
        let p = minimal_test_params();
        let mut rx = ReferenceReceiver::new(p).unwrap();
        let sig = Signal::new(vec![Complex64::ZERO; 10], 1e6);
        let err = rx.receive(&sig, 48).unwrap_err();
        assert!(matches!(err, RxError::SignalTooShort { .. }));
    }

    #[test]
    fn error_display() {
        let e = RxError::SignalTooShort { got: 1, needed: 2 };
        assert!(!e.to_string().is_empty());
        let e2: RxError = RsError::TooManyErrors.into();
        assert!(matches!(e2, RxError::Uncorrectable(_)));
        assert!(!RxError::BadConfig("x".into()).to_string().is_empty());
    }

    #[test]
    fn cfo_compensation_cancels_cfo_channel() {
        use rfsim::{Block, CfoChannel};
        let p = minimal_test_params();
        let mut tx = MotherModel::new(p.clone()).unwrap();
        let sent = payload(100);
        let frame = tx.transmit(&sent).unwrap();
        // A CFO large enough to scramble the constellation uncompensated:
        // 20% of the subcarrier spacing walks the common phase ~72°/symbol.
        let df = 0.2 * p.sample_rate / 64.0;
        let mut ch = CfoChannel::new(df);
        let impaired = ch.process(std::slice::from_ref(frame.signal())).unwrap();
        let mut rx = ReferenceReceiver::new(p.clone())
            .unwrap()
            .with_cfo_compensation(df);
        assert_eq!(rx.cfo_estimate(), df);
        let got = rx.receive(&impaired, sent.len()).unwrap();
        assert_eq!(got, sent, "exact CFO estimate must cancel the channel");
        // Without compensation the same waveform decodes wrong.
        let mut bare = ReferenceReceiver::new(p).unwrap();
        let bad = bare.receive(&impaired, sent.len()).unwrap();
        assert_ne!(bad, sent, "uncompensated CFO should corrupt the payload");
        // set_cfo_estimate(0.0) turns the pass back off.
        rx.set_cfo_estimate(0.0);
        let clean = rx.receive(frame.signal(), sent.len()).unwrap();
        assert_eq!(clean, sent);
    }

    #[test]
    fn survives_small_noise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut p = minimal_test_params();
        p.conv_code = Some(ofdm_core::fec::ConvSpec::k7_rate_half());
        let mut tx = MotherModel::new(p.clone()).unwrap();
        let mut rx = ReferenceReceiver::new(p).unwrap();
        let sent = payload(100);
        let frame = tx.transmit(&sent).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // Perturb on the split layout directly — no interleaved copy.
        let mut noisy = frame.signal().clone();
        let (re, im) = noisy.parts_mut();
        for n in 0..re.len() {
            re[n] += rng.gen_range(-0.05..0.05);
            im[n] += rng.gen_range(-0.05..0.05);
        }
        let got = rx.receive(&noisy, sent.len()).unwrap();
        assert_eq!(got, sent);
    }
}
