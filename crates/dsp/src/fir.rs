//! FIR filter design and streaming filtering.
//!
//! Provides windowed-sinc lowpass design (Kaiser or fixed windows) and a
//! streaming [`FirFilter`] over split `re`/`im` samples. Used by the RF
//! simulator's baseband/channel filters and by the rational resampler.

use crate::complex::Complex64;
use crate::window::Window;
use std::f64::consts::PI;

/// Designs a linear-phase lowpass FIR via the windowed-sinc method.
///
/// `cutoff` is the -6 dB edge as a fraction of the sample rate (0 < cutoff
/// < 0.5). `taps` is the filter length; odd lengths give a type-I
/// (symmetric, integer group delay) filter. Coefficients are normalized to
/// unit DC gain.
///
/// # Panics
///
/// Panics if `taps == 0` or `cutoff` is outside `(0, 0.5)`.
///
/// # Example
///
/// ```
/// use ofdm_dsp::{fir, window::Window};
///
/// let h = fir::lowpass(63, 0.25, Window::Hamming);
/// let dc: f64 = h.iter().sum();
/// assert!((dc - 1.0).abs() < 1e-12);
/// ```
pub fn lowpass(taps: usize, cutoff: f64, window: Window) -> Vec<f64> {
    assert!(taps > 0, "taps must be nonzero");
    assert!(
        cutoff > 0.0 && cutoff < 0.5,
        "cutoff must be in (0, 0.5) of the sample rate"
    );
    let w = window.coefficients(taps);
    let mid = (taps - 1) as f64 / 2.0;
    let mut h: Vec<f64> = (0..taps)
        .map(|i| {
            let t = i as f64 - mid;
            let sinc = if t.abs() < 1e-12 {
                2.0 * cutoff
            } else {
                (2.0 * PI * cutoff * t).sin() / (PI * t)
            };
            sinc * w[i]
        })
        .collect();
    let dc: f64 = h.iter().sum();
    for c in h.iter_mut() {
        *c /= dc;
    }
    h
}

/// Designs a Kaiser-window lowpass from an attenuation spec.
///
/// `atten_db` is the desired stopband attenuation; `transition` is the
/// transition bandwidth as a fraction of the sample rate. Tap count and β
/// follow Kaiser's empirical formulas.
///
/// # Panics
///
/// Panics if `transition` is outside `(0, 0.5)` or `cutoff` is outside
/// `(0, 0.5)`.
pub fn kaiser_lowpass(cutoff: f64, transition: f64, atten_db: f64) -> Vec<f64> {
    assert!(
        transition > 0.0 && transition < 0.5,
        "transition must be in (0, 0.5)"
    );
    let beta = if atten_db > 50.0 {
        0.1102 * (atten_db - 8.7)
    } else if atten_db >= 21.0 {
        0.5842 * (atten_db - 21.0).powf(0.4) + 0.07886 * (atten_db - 21.0)
    } else {
        0.0
    };
    let taps = (((atten_db - 7.95) / (2.285 * 2.0 * PI * transition)).ceil() as usize).max(3);
    let taps = if taps.is_multiple_of(2) {
        taps + 1
    } else {
        taps
    };
    lowpass(taps, cutoff, Window::Kaiser(beta))
}

/// A split `re`/`im` delay line for block filtering: the history of
/// [`FirFilter`], the resampler and the RF simulator's multipath channel.
///
/// Between blocks it holds the last `keep` input samples, oldest first
/// (zeros before the first block). [`DelayLine::load`] appends a block
/// behind them, so the `keep + 1`-sample window ending at each new sample
/// is one contiguous slice per component; [`DelayLine::carry`] then keeps
/// the block's tail for the next one. A block shorter than `keep` carries
/// part of the old history along.
#[derive(Debug, Clone)]
pub struct DelayLine {
    re: Vec<f64>,
    im: Vec<f64>,
    keep: usize,
}

impl DelayLine {
    /// A zeroed delay line carrying `keep` samples between blocks.
    pub fn new(keep: usize) -> Self {
        DelayLine {
            re: vec![0.0; keep],
            im: vec![0.0; keep],
            keep,
        }
    }

    /// Appends a block behind the carried samples.
    ///
    /// # Panics
    ///
    /// Panics if the component lengths differ.
    pub fn load(&mut self, re: &[f64], im: &[f64]) {
        assert_eq!(re.len(), im.len(), "component length mismatch");
        self.re.extend_from_slice(re);
        self.im.extend_from_slice(im);
    }

    /// One window per loaded sample: the `keep + 1` samples ending at it,
    /// oldest first.
    pub fn windows(&self) -> impl Iterator<Item = (&[f64], &[f64])> {
        self.re
            .windows(self.keep + 1)
            .zip(self.im.windows(self.keep + 1))
    }

    /// Drops all but the last `keep` samples: the carry into the next
    /// block.
    pub fn carry(&mut self) {
        let spent = self.re.len() - self.keep;
        self.re.drain(..spent);
        self.im.drain(..spent);
    }

    /// Zeroes the carried samples.
    pub fn reset(&mut self) {
        for v in [&mut self.re, &mut self.im] {
            v.clear();
            v.resize(self.keep, 0.0);
        }
    }
}

/// `Σ_k c[k]·x[newest − k]` per component over one window (oldest first),
/// accumulated from zero in tap order.
#[inline]
pub(crate) fn dot(coeffs: &[f64], re: &[f64], im: &[f64]) -> (f64, f64) {
    let (mut acc_re, mut acc_im) = (0.0, 0.0);
    for ((&c, &r), &i) in coeffs.iter().zip(re.iter().rev()).zip(im.iter().rev()) {
        acc_re += r * c;
        acc_im += i * c;
    }
    (acc_re, acc_im)
}

/// A streaming FIR filter over split `re`/`im` samples with real
/// coefficients.
///
/// Holds its own delay line, so blocks can be fed incrementally; the filter
/// is causal with group delay `(taps-1)/2` samples for symmetric designs.
#[derive(Debug, Clone)]
pub struct FirFilter {
    coeffs: Vec<f64>,
    delay: DelayLine,
}

impl FirFilter {
    /// Creates a filter from designed coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty.
    pub fn new(coeffs: Vec<f64>) -> Self {
        assert!(!coeffs.is_empty(), "coefficients must be nonempty");
        let keep = coeffs.len() - 1;
        FirFilter {
            coeffs,
            delay: DelayLine::new(keep),
        }
    }

    /// The filter length in taps.
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Returns `true` if the filter has no taps (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Filter coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// Group delay in samples for a symmetric (linear-phase) design.
    pub fn group_delay(&self) -> usize {
        (self.coeffs.len() - 1) / 2
    }

    /// Filters the block `(re, im)` into `(out_re, out_im)` (cleared
    /// first); the delay line carries over to the next block.
    ///
    /// # Panics
    ///
    /// Panics if the input component lengths differ.
    pub fn process_split(
        &mut self,
        re: &[f64],
        im: &[f64],
        out_re: &mut Vec<f64>,
        out_im: &mut Vec<f64>,
    ) {
        self.delay.load(re, im);
        out_re.clear();
        out_im.clear();
        for (wr, wi) in self.delay.windows() {
            let (y_re, y_im) = dot(&self.coeffs, wr, wi);
            out_re.push(y_re);
            out_im.push(y_im);
        }
        self.delay.carry();
    }

    /// Clears the internal delay line.
    pub fn reset(&mut self) {
        self.delay.reset();
    }
}

/// Evaluates the frequency response `H(e^{j2πf})` of real coefficients at a
/// normalized frequency `f` (fraction of the sample rate).
pub fn freq_response(coeffs: &[f64], f: f64) -> Complex64 {
    coeffs
        .iter()
        .enumerate()
        .map(|(n, &c)| Complex64::cis(-2.0 * PI * f * n as f64).scale(c))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::amplitude_to_db;

    #[test]
    fn lowpass_unit_dc_gain() {
        let h = lowpass(41, 0.2, Window::Hamming);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((freq_response(&h, 0.0).abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowpass_symmetric() {
        let h = lowpass(33, 0.1, Window::Blackman);
        for i in 0..h.len() {
            assert!((h[i] - h[h.len() - 1 - i]).abs() < 1e-15);
        }
    }

    #[test]
    fn passband_and_stopband() {
        let h = kaiser_lowpass(0.2, 0.05, 60.0);
        // Passband: near-unity.
        let pass = freq_response(&h, 0.1).abs();
        assert!((pass - 1.0).abs() < 0.01, "passband gain {pass}");
        // Stopband: at least ~55 dB down (design margin).
        let stop = freq_response(&h, 0.3).abs();
        assert!(
            amplitude_to_db(stop) < -55.0,
            "stopband {}",
            amplitude_to_db(stop)
        );
    }

    #[test]
    fn kaiser_length_odd() {
        let h = kaiser_lowpass(0.25, 0.1, 40.0);
        assert_eq!(h.len() % 2, 1);
    }

    #[test]
    fn filter_impulse_reproduces_coeffs() {
        let h = vec![0.25, 0.5, 0.25];
        let mut f = FirFilter::new(h.clone());
        let mut input = vec![0.0; 5];
        input[0] = 1.0;
        let (mut out, mut out_im) = (Vec::new(), Vec::new());
        f.process_split(&input, &[0.0; 5], &mut out, &mut out_im);
        for (i, &c) in h.iter().enumerate() {
            assert!((out[i] - c).abs() < 1e-15);
        }
        assert!(out[3].hypot(out_im[3]) < 1e-15);
    }

    #[test]
    fn filter_dc_passthrough() {
        let h = lowpass(21, 0.25, Window::Hamming);
        let mut f = FirFilter::new(h);
        let (mut out, mut out_im) = (Vec::new(), Vec::new());
        f.process_split(&[1.0; 100], &[0.0; 100], &mut out, &mut out_im);
        // After the transient, a DC input passes with unit gain.
        assert!((out[99] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = FirFilter::new(vec![1.0, 1.0]);
        let (mut re, mut im) = (Vec::new(), Vec::new());
        f.process_split(&[1.0], &[1.0], &mut re, &mut im);
        f.reset();
        f.process_split(&[0.0], &[0.0], &mut re, &mut im);
        assert!(re[0].hypot(im[0]) < 1e-15);
    }

    #[test]
    fn group_delay_reported() {
        let f = FirFilter::new(vec![0.0; 31]);
        assert_eq!(f.group_delay(), 15);
        assert_eq!(f.len(), 31);
        assert!(!f.is_empty());
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn bad_cutoff_panics() {
        let _ = lowpass(11, 0.6, Window::Hann);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_coeffs_panic() {
        let _ = FirFilter::new(Vec::new());
    }
}
