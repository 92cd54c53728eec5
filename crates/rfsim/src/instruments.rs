//! Measurement instruments.
//!
//! Instruments are pass-through blocks that retain a measurement from the
//! signal flowing through them; after [`crate::Graph::execute`], fetch the
//! block back with [`crate::Graph::block`] and read the result — like
//! placing a probe on an RF schematic node.

use crate::block::{Block, SimError};
use crate::signal::Signal;
use crate::supervise::BlockRole;
use ofdm_dsp::spectrum::{band_power, WelchPsd};
use ofdm_dsp::stats;
use ofdm_dsp::window::Window;
use ofdm_dsp::Complex64;

/// Measures mean power (linear and dB) of the signal passing through.
///
/// In a streaming run the meter accumulates `Σ|x|²` chunk by chunk in the
/// same left-to-right order as [`ofdm_dsp::stats::mean_power`], so the
/// finalized reading is bit-identical to the batch one.
#[derive(Debug, Clone, Default)]
pub struct PowerMeter {
    last_power: Option<f64>,
    stream_sum: f64,
    stream_count: usize,
}

impl PowerMeter {
    /// Creates a power meter.
    pub fn new() -> Self {
        PowerMeter::default()
    }

    /// Mean power of the last pass, if the meter has run.
    pub fn power(&self) -> Option<f64> {
        self.last_power
    }

    /// Mean power of the last pass in dB.
    pub fn power_db(&self) -> Option<f64> {
        self.last_power.map(stats::ratio_to_db)
    }
}

impl Block for PowerMeter {
    fn role(&self) -> BlockRole {
        BlockRole::Instrument
    }

    fn name(&self) -> &str {
        "power-meter"
    }

    fn begin_stream(&mut self) {
        self.stream_sum = 0.0;
        self.stream_count = 0;
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let (re, im) = inputs[0].parts();
        for (r, i) in re.iter().zip(im.iter()) {
            self.stream_sum += r * r + i * i;
        }
        self.stream_count += inputs[0].len();
        Ok(())
    }

    fn end_stream(&mut self) -> Result<(), SimError> {
        self.last_power = Some(if self.stream_count == 0 {
            0.0
        } else {
            self.stream_sum / self.stream_count as f64
        });
        Ok(())
    }

    fn reset(&mut self) {
        self.last_power = None;
        self.stream_sum = 0.0;
        self.stream_count = 0;
    }
}

/// A Welch-method spectrum analyzer.
///
/// A PSD estimate needs the whole pass, so in a streaming run the analyzer
/// buffers every chunk and estimates once in [`Block::end_stream`] — memory
/// is O(pass length), not O(chunk), for this instrument (probe sparingly on
/// long runs). The finalized estimate is bit-identical to the batch one.
#[derive(Debug, Clone)]
pub struct SpectrumAnalyzer {
    psd: WelchPsd,
    last: Option<(Vec<f64>, f64)>, // (DC-first PSD, sample rate)
    /// The pass so far, split re/im.
    stream_re: Vec<f64>,
    stream_im: Vec<f64>,
    stream_rate: f64, // 0.0 = no streaming pass in flight
}

impl SpectrumAnalyzer {
    /// Creates an analyzer with the given FFT segment length (resolution
    /// bandwidth = sample_rate / segment_len) and a Blackman window.
    pub fn new(segment_len: usize) -> Self {
        SpectrumAnalyzer {
            psd: WelchPsd::new(segment_len, Window::Blackman),
            last: None,
            stream_re: Vec::new(),
            stream_im: Vec::new(),
            stream_rate: 0.0,
        }
    }

    /// Arms the streaming accumulator (also used by the instruments that
    /// wrap an analyzer: ACPR meter, mask checker).
    fn stream_begin(&mut self) {
        self.stream_re.clear();
        self.stream_im.clear();
        self.stream_rate = 0.0;
    }

    /// Buffers one chunk of the streaming pass.
    fn stream_accumulate(&mut self, chunk: &Signal) {
        let (re, im) = chunk.parts();
        self.stream_re.extend_from_slice(re);
        self.stream_im.extend_from_slice(im);
        self.stream_rate = chunk.sample_rate();
    }

    /// Estimates the PSD over the buffered pass. Returns `true` if an
    /// estimate was produced (at least one chunk was seen).
    fn stream_finalize(&mut self) -> bool {
        if self.stream_rate <= 0.0 {
            return false;
        }
        let psd = self.psd.estimate(&self.stream_re, &self.stream_im);
        self.last = Some((psd, self.stream_rate));
        self.stream_begin();
        true
    }

    /// The last PSD estimate, DC-first ordering, linear power per bin.
    pub fn psd(&self) -> Option<&[f64]> {
        self.last.as_ref().map(|(p, _)| p.as_slice())
    }

    /// The last PSD in dB with frequencies shifted to `[-fs/2, fs/2)`,
    /// as `(freq_hz, power_db)` pairs.
    pub fn psd_shifted_db(&self) -> Option<Vec<(f64, f64)>> {
        let (psd, fs) = self.last.as_ref()?;
        let shifted = ofdm_dsp::spectrum::fft_shift(psd);
        let axis = ofdm_dsp::spectrum::shifted_freq_axis(psd.len(), *fs);
        Some(
            axis.into_iter()
                .zip(shifted.into_iter().map(|p| 10.0 * p.max(1e-20).log10()))
                .collect(),
        )
    }

    /// Integrated power between `f_lo` and `f_hi` Hz (signed frequencies)
    /// from the last estimate.
    pub fn band_power(&self, f_lo: f64, f_hi: f64) -> Option<f64> {
        let (psd, fs) = self.last.as_ref()?;
        Some(band_power(psd, *fs, f_lo, f_hi))
    }

    /// Occupied bandwidth: the smallest symmetric band around DC containing
    /// `fraction` (e.g. 0.99) of the total power, in Hz.
    pub fn occupied_bandwidth(&self, fraction: f64) -> Option<f64> {
        let (psd, fs) = self.last.as_ref()?;
        let total: f64 = psd.iter().sum();
        if total <= 0.0 {
            return Some(0.0);
        }
        let n = psd.len();
        let df = fs / n as f64;
        let mut bw = df;
        while bw < *fs {
            if band_power(psd, *fs, -bw / 2.0, bw / 2.0) >= fraction * total {
                return Some(bw);
            }
            bw += df;
        }
        Some(*fs)
    }
}

impl Block for SpectrumAnalyzer {
    fn role(&self) -> BlockRole {
        BlockRole::Instrument
    }

    fn name(&self) -> &str {
        "spectrum-analyzer"
    }

    fn begin_stream(&mut self) {
        self.stream_begin();
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        self.stream_accumulate(inputs[0]);
        Ok(())
    }

    fn end_stream(&mut self) -> Result<(), SimError> {
        self.stream_finalize();
        Ok(())
    }

    fn reset(&mut self) {
        self.last = None;
        self.stream_begin();
    }
}

/// Adjacent-channel power ratio meter.
///
/// Measures power in the main channel `[-bw/2, bw/2]` versus the adjacent
/// channels centered at `±spacing` with the same bandwidth.
#[derive(Debug, Clone)]
pub struct AcprMeter {
    analyzer: SpectrumAnalyzer,
    channel_bw: f64,
    spacing: f64,
    last: Option<(f64, f64)>, // (lower ACPR dB, upper ACPR dB)
}

impl AcprMeter {
    /// Creates an ACPR meter for a `channel_bw`-wide channel with adjacent
    /// channels offset by `spacing` Hz.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth or spacing is not positive.
    pub fn new(channel_bw: f64, spacing: f64, segment_len: usize) -> Self {
        assert!(channel_bw > 0.0, "channel bandwidth must be positive");
        assert!(spacing > 0.0, "spacing must be positive");
        AcprMeter {
            analyzer: SpectrumAnalyzer::new(segment_len),
            channel_bw,
            spacing,
            last: None,
        }
    }

    /// `(lower, upper)` adjacent-channel power relative to the main channel,
    /// in dB (negative values mean the adjacent channel is quieter).
    pub fn acpr_db(&self) -> Option<(f64, f64)> {
        self.last
    }

    /// The worst (largest) of the two ACPR values in dB.
    pub fn worst_acpr_db(&self) -> Option<f64> {
        self.last.map(|(l, u)| l.max(u))
    }

    /// Derives the ACPR figures from the analyzer's current PSD estimate.
    fn update_from_analyzer(&mut self) {
        let half = self.channel_bw / 2.0;
        let main = self.analyzer.band_power(-half, half).unwrap_or(0.0);
        let lower = self
            .analyzer
            .band_power(-self.spacing - half, -self.spacing + half)
            .unwrap_or(0.0);
        let upper = self
            .analyzer
            .band_power(self.spacing - half, self.spacing + half)
            .unwrap_or(0.0);
        let to_db = |p: f64| {
            if main <= 0.0 {
                f64::NEG_INFINITY
            } else {
                stats::ratio_to_db((p / main).max(1e-20))
            }
        };
        self.last = Some((to_db(lower), to_db(upper)));
    }
}

impl Block for AcprMeter {
    fn role(&self) -> BlockRole {
        BlockRole::Instrument
    }

    fn name(&self) -> &str {
        "acpr-meter"
    }

    fn begin_stream(&mut self) {
        self.analyzer.stream_begin();
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        self.analyzer.stream_accumulate(inputs[0]);
        Ok(())
    }

    fn end_stream(&mut self) -> Result<(), SimError> {
        if self.analyzer.stream_finalize() {
            self.update_from_analyzer();
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.analyzer.reset();
        self.last = None;
    }
}

/// Records the CCDF of instantaneous power (the PAPR distribution probe).
///
/// The thresholds are relative to the pass's mean power, so a streaming run
/// buffers the whole pass and evaluates in [`Block::end_stream`] — O(pass)
/// memory, like the spectrum analyzer.
#[derive(Debug, Clone)]
pub struct CcdfProbe {
    thresholds_db: Vec<f64>,
    last: Option<Vec<f64>>,
    last_papr_db: Option<f64>,
    stream_buf: Vec<Complex64>,
    stream_active: bool,
}

impl CcdfProbe {
    /// Probes the CCDF at thresholds 0..=12 dB above average power in 1 dB
    /// steps.
    pub fn new() -> Self {
        CcdfProbe::with_thresholds((0..=12).map(|i| i as f64).collect())
    }

    /// Probes at caller-specified thresholds (dB above average power).
    pub fn with_thresholds(thresholds_db: Vec<f64>) -> Self {
        CcdfProbe {
            thresholds_db,
            last: None,
            last_papr_db: None,
            stream_buf: Vec::new(),
            stream_active: false,
        }
    }

    /// `(threshold_db, probability)` pairs from the last pass.
    pub fn ccdf(&self) -> Option<Vec<(f64, f64)>> {
        self.last.as_ref().map(|p| {
            self.thresholds_db
                .iter()
                .copied()
                .zip(p.iter().copied())
                .collect()
        })
    }

    /// PAPR of the last pass in dB.
    pub fn papr_db(&self) -> Option<f64> {
        self.last_papr_db
    }
}

impl Default for CcdfProbe {
    fn default() -> Self {
        CcdfProbe::new()
    }
}

impl Block for CcdfProbe {
    fn role(&self) -> BlockRole {
        BlockRole::Instrument
    }

    fn name(&self) -> &str {
        "ccdf-probe"
    }

    fn begin_stream(&mut self) {
        self.stream_buf.clear();
        self.stream_active = true;
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        self.stream_buf.extend(inputs[0].iter());
        Ok(())
    }

    fn end_stream(&mut self) -> Result<(), SimError> {
        if self.stream_active {
            self.last = Some(stats::power_ccdf(&self.stream_buf, &self.thresholds_db));
            self.last_papr_db = Some(stats::papr_db(&self.stream_buf));
            self.stream_buf.clear();
            self.stream_active = false;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.last = None;
        self.last_papr_db = None;
        self.stream_buf.clear();
        self.stream_active = false;
    }
}

/// One corner point of a transmit spectral mask: at offsets ≥ `offset_hz`
/// from the carrier, the PSD must be at least `limit_dbr` below the in-band
/// reference density (piecewise-constant between points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskPoint {
    /// Frequency offset from the carrier in Hz.
    pub offset_hz: f64,
    /// Required attenuation in dB relative to the in-band PSD (negative).
    pub limit_dbr: f64,
}

/// Checks a transmit signal against a spectral mask.
///
/// The reference level is the peak in-band PSD within `±ref_bw/2` (transmit
/// masks such as 802.11a's are specified relative to the maximum spectral
/// density); each bin beyond the first mask point must sit below the
/// stepwise limit.
#[derive(Debug, Clone)]
pub struct MaskChecker {
    analyzer: SpectrumAnalyzer,
    mask: Vec<MaskPoint>,
    ref_bw: f64,
    last_margin_db: Option<f64>,
}

impl MaskChecker {
    /// Creates a checker from mask corner points (sorted by offset) and the
    /// in-band reference bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty or unsorted.
    pub fn new(mask: Vec<MaskPoint>, ref_bw: f64, segment_len: usize) -> Self {
        assert!(!mask.is_empty(), "mask must be nonempty");
        assert!(
            mask.windows(2).all(|w| w[0].offset_hz < w[1].offset_hz),
            "mask points must be sorted by increasing offset"
        );
        MaskChecker {
            analyzer: SpectrumAnalyzer::new(segment_len),
            mask,
            ref_bw,
            last_margin_db: None,
        }
    }

    /// Worst-case margin to the mask in dB from the last pass: positive
    /// means the signal complies everywhere.
    pub fn margin_db(&self) -> Option<f64> {
        self.last_margin_db
    }

    /// Returns `true` if the last pass met the mask.
    pub fn passed(&self) -> Option<bool> {
        self.last_margin_db.map(|m| m >= 0.0)
    }

    fn limit_at(&self, offset: f64) -> Option<f64> {
        if offset < self.mask[0].offset_hz {
            return None; // in-band / transition region not checked
        }
        let mut lim = self.mask[0].limit_dbr;
        for p in &self.mask {
            if offset >= p.offset_hz {
                lim = p.limit_dbr;
            }
        }
        Some(lim)
    }

    /// Checks the analyzer's current PSD estimate against the mask.
    fn evaluate(&mut self) -> Result<(), SimError> {
        let shifted = self
            .analyzer
            .psd_shifted_db()
            .expect("analyzer ran in the same pass");
        // Reference: peak PSD within the in-band region.
        let ref_db = shifted
            .iter()
            .filter(|(f, _)| f.abs() <= self.ref_bw / 2.0)
            .map(|(_, p)| *p)
            .fold(f64::NEG_INFINITY, f64::max);
        if ref_db == f64::NEG_INFINITY {
            return Err(SimError::BlockFailure {
                block: "mask-checker".into(),
                message: "no PSD bins fall inside the reference bandwidth".into(),
            });
        }
        let mut margin = f64::INFINITY;
        for (f, p) in &shifted {
            if let Some(limit) = self.limit_at(f.abs()) {
                margin = margin.min(ref_db + limit - p);
            }
        }
        self.last_margin_db = Some(margin);
        Ok(())
    }
}

impl Block for MaskChecker {
    fn role(&self) -> BlockRole {
        BlockRole::Instrument
    }

    fn name(&self) -> &str {
        "mask-checker"
    }

    fn begin_stream(&mut self) {
        self.analyzer.stream_begin();
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        self.analyzer.stream_accumulate(inputs[0]);
        Ok(())
    }

    fn end_stream(&mut self) -> Result<(), SimError> {
        if self.analyzer.stream_finalize() {
            self.evaluate()?;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.analyzer.reset();
        self.last_margin_db = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_dsp::Complex64;
    use std::f64::consts::TAU;

    fn tone(f: f64, fs: f64, n: usize) -> Signal {
        Signal::new(
            (0..n)
                .map(|i| Complex64::cis(TAU * f * i as f64 / fs))
                .collect(),
            fs,
        )
    }

    /// Streams `signal` through `block` in `chunk_len`-sized chunks,
    /// bracketing with the stream hooks, and returns the concatenated
    /// output.
    fn run_chunked(block: &mut dyn Block, signal: &Signal, chunk_len: usize) -> Signal {
        block.begin_stream();
        let mut out = Signal::empty(signal.sample_rate());
        let mut chunk_out = Signal::default();
        let mut pos = 0;
        while pos < signal.len() {
            let take = chunk_len.min(signal.len() - pos);
            let chunk = Signal::new(
                signal.samples()[pos..pos + take].to_vec(),
                signal.sample_rate(),
            );
            block.process_chunk(&[&chunk], &mut chunk_out).unwrap();
            out.extend_from(&chunk_out);
            pos += take;
        }
        block.end_stream().unwrap();
        out
    }

    #[test]
    fn power_meter_streaming_matches_batch_exactly() {
        let s = tone(0.03e6, 1e6, 1000);
        let mut batch = PowerMeter::new();
        batch.process(std::slice::from_ref(&s)).unwrap();
        let want = batch.power().unwrap();
        for chunk_len in [1usize, 7, 128, 2048] {
            let mut m = PowerMeter::new();
            let out = run_chunked(&mut m, &s, chunk_len);
            assert_eq!(out, s, "pass-through");
            assert_eq!(m.power().unwrap(), want, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn analyzer_streaming_matches_batch_exactly() {
        let s = tone(0.125e6, 1e6, 2048);
        let mut batch = SpectrumAnalyzer::new(256);
        batch.process(std::slice::from_ref(&s)).unwrap();
        let want = batch.psd().unwrap().to_vec();
        for chunk_len in [33usize, 256, 5000] {
            let mut sa = SpectrumAnalyzer::new(256);
            let out = run_chunked(&mut sa, &s, chunk_len);
            assert_eq!(out, s);
            assert_eq!(sa.psd().unwrap(), &want[..], "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn acpr_and_ccdf_and_mask_streaming_match_batch() {
        let fs = 2e6;
        let n = 1 << 13;
        let mut samples = tone(0.0, fs, n).into_samples();
        for (i, z) in samples.iter_mut().enumerate() {
            *z += Complex64::cis(TAU * 400e3 * i as f64 / fs).scale(0.1);
        }
        let s = Signal::new(samples, fs);

        let mut acpr_b = AcprMeter::new(200e3, 400e3, 512);
        acpr_b.process(std::slice::from_ref(&s)).unwrap();
        let mut acpr_s = AcprMeter::new(200e3, 400e3, 512);
        run_chunked(&mut acpr_s, &s, 777);
        assert_eq!(acpr_s.acpr_db(), acpr_b.acpr_db());

        let mut ccdf_b = CcdfProbe::new();
        ccdf_b.process(std::slice::from_ref(&s)).unwrap();
        let mut ccdf_s = CcdfProbe::new();
        run_chunked(&mut ccdf_s, &s, 100);
        assert_eq!(ccdf_s.ccdf(), ccdf_b.ccdf());
        assert_eq!(ccdf_s.papr_db(), ccdf_b.papr_db());

        let mask = vec![
            MaskPoint {
                offset_hz: 150e3,
                limit_dbr: -30.0,
            },
            MaskPoint {
                offset_hz: 300e3,
                limit_dbr: -50.0,
            },
        ];
        let mut chk_b = MaskChecker::new(mask.clone(), 100e3, 512);
        chk_b.process(std::slice::from_ref(&s)).unwrap();
        let mut chk_s = MaskChecker::new(mask, 100e3, 512);
        run_chunked(&mut chk_s, &s, 999);
        assert_eq!(chk_s.margin_db(), chk_b.margin_db());
    }

    #[test]
    fn power_meter_reads_power() {
        let mut m = PowerMeter::new();
        assert!(m.power().is_none());
        m.process(&[Signal::new(vec![Complex64::new(2.0, 0.0); 8], 1.0)])
            .unwrap();
        assert!((m.power().unwrap() - 4.0).abs() < 1e-12);
        assert!((m.power_db().unwrap() - 6.0206).abs() < 1e-3);
        m.reset();
        assert!(m.power().is_none());
    }

    #[test]
    fn analyzer_finds_tone_and_bandwidth() {
        let mut sa = SpectrumAnalyzer::new(256);
        let s = tone(0.125e6, 1e6, 8192);
        sa.process(&[s]).unwrap();
        // Band power localized around +125 kHz.
        let in_band = sa.band_power(100e3, 150e3).unwrap();
        let total = sa.band_power(-0.5e6, 0.5e6).unwrap();
        assert!(in_band / total > 0.95);
        // Occupied bandwidth of a pure tone offset from DC: must reach out
        // to ≈ 2×125 kHz for a symmetric band.
        let obw = sa.occupied_bandwidth(0.99).unwrap();
        assert!((240e3..=300e3).contains(&obw), "obw {obw}");
    }

    #[test]
    fn analyzer_shifted_axis_is_monotone() {
        let mut sa = SpectrumAnalyzer::new(128);
        sa.process(&[tone(0.0, 1.0, 1024)]).unwrap();
        let psd = sa.psd_shifted_db().unwrap();
        for w in psd.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        assert!(sa.psd().is_some());
    }

    #[test]
    fn acpr_of_clean_tone_is_low() {
        let mut acpr = AcprMeter::new(200e3, 400e3, 512);
        acpr.process(&[tone(0.0, 2e6, 1 << 14)]).unwrap();
        let (lo, up) = acpr.acpr_db().unwrap();
        assert!(lo < -40.0 && up < -40.0, "acpr ({lo}, {up})");
        assert!(acpr.worst_acpr_db().unwrap() < -40.0);
    }

    #[test]
    fn acpr_detects_adjacent_leakage() {
        // Main tone + a -20 dB tone in the upper adjacent channel.
        let fs = 2e6;
        let n = 1 << 14;
        let main = tone(0.0, fs, n);
        let mut samples = main.into_samples();
        for (i, z) in samples.iter_mut().enumerate() {
            *z += Complex64::cis(TAU * 400e3 * i as f64 / fs).scale(0.1);
        }
        let mut acpr = AcprMeter::new(200e3, 400e3, 512);
        acpr.process(&[Signal::new(samples, fs)]).unwrap();
        let (_, up) = acpr.acpr_db().unwrap();
        assert!((up + 20.0).abs() < 1.5, "upper acpr {up}");
    }

    #[test]
    fn ccdf_probe_on_constant_envelope() {
        let mut probe = CcdfProbe::new();
        probe.process(&[tone(0.1, 1.0, 4096)]).unwrap();
        let ccdf = probe.ccdf().unwrap();
        // Constant envelope: no sample exceeds even the 1 dB threshold.
        assert_eq!(ccdf[1].1, 0.0);
        assert!(probe.papr_db().unwrap() < 0.1);
    }

    #[test]
    fn mask_checker_passes_narrowband_and_fails_wideband() {
        let mask = vec![
            MaskPoint {
                offset_hz: 150e3,
                limit_dbr: -30.0,
            },
            MaskPoint {
                offset_hz: 300e3,
                limit_dbr: -50.0,
            },
        ];
        // Narrowband tone at DC: complies.
        let mut chk = MaskChecker::new(mask.clone(), 100e3, 512);
        chk.process(&[tone(0.0, 2e6, 1 << 14)]).unwrap();
        assert_eq!(chk.passed(), Some(true));

        // Strong tone right at 400 kHz: violates the -50 dBr segment.
        let mut chk2 = MaskChecker::new(mask, 100e3, 512);
        let fs = 2e6;
        let n = 1 << 14;
        let mut samples = tone(0.0, fs, n).into_samples();
        for (i, z) in samples.iter_mut().enumerate() {
            *z += Complex64::cis(TAU * 400e3 * i as f64 / fs);
        }
        chk2.process(&[Signal::new(samples, fs)]).unwrap();
        assert_eq!(chk2.passed(), Some(false));
        assert!(chk2.margin_db().unwrap() < 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_mask_panics() {
        let _ = MaskChecker::new(
            vec![
                MaskPoint {
                    offset_hz: 2.0,
                    limit_dbr: -10.0,
                },
                MaskPoint {
                    offset_hz: 1.0,
                    limit_dbr: -20.0,
                },
            ],
            1.0,
            64,
        );
    }
}
