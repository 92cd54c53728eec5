//! Filter blocks: FIR wrapper and a Butterworth IIR lowpass.
//!
//! [`ButterworthLowpass`] models the analog reconstruction / channel-select
//! filters of the RF lineup as a cascade of bilinear-transformed biquads;
//! [`FirBlock`] adapts any [`ofdm_dsp::fir`] design into the graph.

use crate::block::{Block, SimError};
use crate::signal::Signal;
use ofdm_dsp::fir::FirFilter;
use ofdm_dsp::Complex64;
use std::f64::consts::PI;

/// A graph block wrapping a streaming FIR filter.
#[derive(Debug, Clone)]
pub struct FirBlock {
    filter: FirFilter,
}

impl FirBlock {
    /// Wraps designed coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty (via [`FirFilter::new`]).
    pub fn new(coeffs: Vec<f64>) -> Self {
        FirBlock {
            filter: FirFilter::new(coeffs),
        }
    }
}

impl Block for FirBlock {
    fn name(&self) -> &str {
        "fir"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        // The delay line carries across chunks exactly as it does across
        // passes, so chunk-sequential output equals one batch call.
        let (re, im) = inputs[0].parts();
        let (out_re, out_im) = out.parts_vec_mut();
        self.filter.process_split(re, im, out_re, out_im);
        out.set_sample_rate(inputs[0].sample_rate());
        Ok(())
    }

    fn reset(&mut self) {
        self.filter.reset();
    }
}

/// One direct-form-I biquad section with complex state.
#[derive(Debug, Clone)]
struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    x1: Complex64,
    x2: Complex64,
    y1: Complex64,
    y2: Complex64,
}

impl Biquad {
    fn process(&mut self, x: Complex64) -> Complex64 {
        let y = x.scale(self.b0) + self.x1.scale(self.b1) + self.x2.scale(self.b2)
            - self.y1.scale(self.a1)
            - self.y2.scale(self.a2);
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    fn reset(&mut self) {
        self.x1 = Complex64::ZERO;
        self.x2 = Complex64::ZERO;
        self.y1 = Complex64::ZERO;
        self.y2 = Complex64::ZERO;
    }
}

/// An N-th order Butterworth lowpass as cascaded biquads (bilinear
/// transform with frequency pre-warping).
///
/// The cutoff is specified in Hz; the digital design is performed lazily per
/// input sample rate, so the same block can be reused at different rates.
///
/// # Example
///
/// ```
/// use rfsim::prelude::*;
/// use ofdm_dsp::Complex64;
///
/// let mut lp = ButterworthLowpass::new(4, 1.0e6);
/// let s = Signal::new(vec![Complex64::ONE; 4096], 10.0e6);
/// let out = lp.process(&[s]).unwrap();
/// // DC passes with unit gain after the transient.
/// assert!((out.samples()[4000].re - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct ButterworthLowpass {
    order: usize,
    cutoff_hz: f64,
    sections: Vec<Biquad>,
    designed_rate: f64,
}

impl ButterworthLowpass {
    /// Creates an `order`-pole Butterworth lowpass with the given cutoff.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or odd orders above 8, or `cutoff_hz` is
    /// not positive. (Odd orders are rounded up to the next even order —
    /// the cascade is built from two-pole sections.)
    pub fn new(order: usize, cutoff_hz: f64) -> Self {
        assert!(order >= 1, "order must be nonzero");
        assert!(cutoff_hz > 0.0, "cutoff must be positive");
        let order = if order % 2 == 1 { order + 1 } else { order };
        ButterworthLowpass {
            order,
            cutoff_hz,
            sections: Vec::new(),
            designed_rate: 0.0,
        }
    }

    /// Effective (even) filter order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Cutoff frequency in Hz.
    pub fn cutoff_hz(&self) -> f64 {
        self.cutoff_hz
    }

    fn design(&mut self, sample_rate: f64) {
        // Pre-warped analog cutoff.
        let wc = 2.0 * sample_rate * (PI * self.cutoff_hz / sample_rate).tan();
        let k = wc / (2.0 * sample_rate);
        let pairs = self.order / 2;
        self.sections = (0..pairs)
            .map(|i| {
                // Butterworth pole-pair quality factor.
                let theta = PI * (2.0 * i as f64 + 1.0) / (2.0 * self.order as f64);
                let q = 1.0 / (2.0 * theta.sin());
                // Bilinear transform of H(s) = 1 / (s²/wc² + s/(Q·wc) + 1).
                let k2 = k * k;
                let norm = 1.0 + k / q + k2;
                Biquad {
                    b0: k2 / norm,
                    b1: 2.0 * k2 / norm,
                    b2: k2 / norm,
                    a1: 2.0 * (k2 - 1.0) / norm,
                    a2: (1.0 - k / q + k2) / norm,
                    x1: Complex64::ZERO,
                    x2: Complex64::ZERO,
                    y1: Complex64::ZERO,
                    y2: Complex64::ZERO,
                }
            })
            .collect();
        self.designed_rate = sample_rate;
    }
}

impl Block for ButterworthLowpass {
    fn name(&self) -> &str {
        "butterworth-lowpass"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        let fs = inputs[0].sample_rate();
        if self.cutoff_hz >= fs / 2.0 {
            return Err(SimError::BlockFailure {
                block: "butterworth-lowpass".into(),
                message: format!(
                    "cutoff {} Hz is not below Nyquist for {} Hz sampling",
                    self.cutoff_hz, fs
                ),
            });
        }
        if (self.designed_rate - fs).abs() > 1e-9 {
            self.design(fs);
        }
        out.clear();
        out.set_sample_rate(fs);
        for x in inputs[0].iter() {
            let mut y = x;
            for s in self.sections.iter_mut() {
                y = s.process(y);
            }
            out.push(y);
        }
        Ok(())
    }

    fn reset(&mut self) {
        for s in self.sections.iter_mut() {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_dsp::stats::mean_power;
    use std::f64::consts::TAU;

    fn tone(f: f64, fs: f64, n: usize) -> Signal {
        Signal::new(
            (0..n)
                .map(|i| Complex64::cis(TAU * f * i as f64 / fs))
                .collect(),
            fs,
        )
    }

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
    fn fir_block_chunked_matches_batch() {
        let coeffs = ofdm_dsp::fir::lowpass(21, 0.2, ofdm_dsp::window::Window::Hamming);
        let s = tone(0.05e6, 1e6, 311);
        let mut batch = FirBlock::new(coeffs.clone());
        let want = batch.process(std::slice::from_ref(&s)).unwrap();
        for chunk_len in [1usize, 13, 64, 500] {
            let mut b = FirBlock::new(coeffs.clone());
            let got = run_chunked(&mut b, &s, chunk_len);
            assert_eq!(got, want, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn butterworth_chunked_matches_batch() {
        let s = tone(0.2e6, 10e6, 257);
        let mut batch = ButterworthLowpass::new(4, 1.0e6);
        let want = batch.process(std::slice::from_ref(&s)).unwrap();
        for chunk_len in [1usize, 17, 256, 1000] {
            let mut b = ButterworthLowpass::new(4, 1.0e6);
            let got = run_chunked(&mut b, &s, chunk_len);
            assert_eq!(got, want, "chunk_len {chunk_len}");
        }
        // The Nyquist guard also fires on the chunk path.
        let mut bad = ButterworthLowpass::new(2, 1.0e6);
        let narrow = tone(0.1, 1.0, 8);
        let mut out = Signal::default();
        assert!(matches!(
            bad.process_chunk(&[&narrow], &mut out),
            Err(SimError::BlockFailure { .. })
        ));
    }

    #[test]
    fn fir_block_passes_dc() {
        let coeffs = ofdm_dsp::fir::lowpass(21, 0.2, ofdm_dsp::window::Window::Hamming);
        let mut b = FirBlock::new(coeffs);
        let out = b
            .process(&[Signal::new(vec![Complex64::ONE; 100], 1.0)])
            .unwrap();
        assert!((out.samples()[99].re - 1.0).abs() < 1e-9);
        b.reset();
        let out2 = b
            .process(&[Signal::new(vec![Complex64::ZERO; 4], 1.0)])
            .unwrap();
        assert!(out2.samples()[0].abs() < 1e-15);
    }

    #[test]
    fn butterworth_passband_gain() {
        let mut lp = ButterworthLowpass::new(4, 1.0e6);
        let s = tone(0.1e6, 10e6, 8192); // deep in the passband
        let out = lp.process(&[s]).unwrap();
        let p = mean_power(&out.samples()[4096..]);
        assert!((p - 1.0).abs() < 0.01, "passband power {p}");
    }

    #[test]
    fn butterworth_stopband_rejection() {
        let mut lp = ButterworthLowpass::new(6, 0.5e6);
        let s = tone(4.0e6, 10e6, 8192); // 8× cutoff → ≈ 6·20·log10(8) dB down
        let out = lp.process(&[s]).unwrap();
        let p = mean_power(&out.samples()[4096..]);
        assert!(p < 1e-9, "stopband power {p}");
    }

    #[test]
    fn butterworth_3db_at_cutoff() {
        let mut lp = ButterworthLowpass::new(4, 1.0e6);
        let s = tone(1.0e6, 10e6, 16384);
        let out = lp.process(&[s]).unwrap();
        let p = mean_power(&out.samples()[8192..]);
        assert!((p - 0.5).abs() < 0.02, "cutoff power {p}");
    }

    #[test]
    fn butterworth_redesigns_on_rate_change() {
        let mut lp = ButterworthLowpass::new(2, 1.0e6);
        lp.process(&[tone(0.1e6, 10e6, 64)]).unwrap();
        // Different rate: must not error, redesigns internally.
        let out = lp.process(&[tone(0.1e6, 20e6, 64)]).unwrap();
        assert_eq!(out.sample_rate(), 20e6);
    }

    #[test]
    fn butterworth_rejects_cutoff_above_nyquist() {
        let mut lp = ButterworthLowpass::new(2, 6.0e6);
        let err = lp.process(&[tone(0.1e6, 10e6, 16)]).unwrap_err();
        assert!(matches!(err, SimError::BlockFailure { .. }));
    }

    #[test]
    fn odd_order_rounds_up() {
        let lp = ButterworthLowpass::new(3, 1.0);
        assert_eq!(lp.order(), 4);
        assert_eq!(lp.cutoff_hz(), 1.0);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn zero_order_panics() {
        let _ = ButterworthLowpass::new(0, 1.0);
    }
}
