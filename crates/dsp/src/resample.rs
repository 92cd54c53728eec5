//! Rational-rate polyphase resampling.
//!
//! The RF simulator runs at an oversampled rate relative to the OFDM
//! baseband (e.g. 4× for spectral headroom before the DAC/mixer models);
//! [`Resampler`] changes the rate by any rational factor L/M using a
//! polyphase windowed-sinc interpolator.

use crate::fir::{self, DelayLine};
use crate::window::Window;

/// Greatest common divisor (Euclid).
pub fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A rational L/M resampler over split `re`/`im` samples.
///
/// Internally upsamples by `L`, filters with an anti-imaging/anti-aliasing
/// lowpass, and decimates by `M`, implemented in polyphase form so only the
/// needed output samples are computed.
///
/// # Example
///
/// ```
/// use ofdm_dsp::resample::Resampler;
///
/// let mut rs = Resampler::new(4, 1, 8); // 4x interpolation
/// let (mut re, mut im) = (Vec::new(), Vec::new());
/// rs.process_split(&[1.0; 64], &[0.0; 64], &mut re, &mut im);
/// assert_eq!(re.len(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct Resampler {
    up: usize,
    down: usize,
    /// Polyphase branches: `branch[p][k] = h[k*L + p] * L`.
    branches: Vec<Vec<f64>>,
    /// The last `taps_per_branch - 1` input samples.
    history: DelayLine,
    /// Upsampled-domain phase accumulator (0..up*len granularity).
    phase: usize,
}

impl Resampler {
    /// Creates an L/M resampler. `taps_per_branch` controls the prototype
    /// filter quality (length = `taps_per_branch * L`, Kaiser-ish Blackman
    /// window).
    ///
    /// # Panics
    ///
    /// Panics if `up`, `down` or `taps_per_branch` is zero.
    pub fn new(up: usize, down: usize, taps_per_branch: usize) -> Self {
        assert!(up > 0 && down > 0, "rates must be nonzero");
        assert!(taps_per_branch > 0, "taps_per_branch must be nonzero");
        let g = gcd(up, down);
        let (up, down) = (up / g, down / g);
        if up == 1 && down == 1 {
            // Identity: single pass-through branch.
            return Resampler {
                up,
                down,
                branches: vec![vec![1.0]],
                history: DelayLine::new(0),
                phase: 0,
            };
        }
        let len = taps_per_branch * up;
        // Cutoff at the tighter of the two Nyquist limits in the upsampled
        // domain, with a small guard factor.
        let cutoff = 0.5 / up.max(down) as f64 * 0.92;
        let proto = fir::lowpass(len, cutoff, Window::Blackman);
        let mut branches = vec![Vec::with_capacity(taps_per_branch); up];
        for (k, &c) in proto.iter().enumerate() {
            branches[k % up].push(c * up as f64);
        }
        Resampler {
            up,
            down,
            branches,
            history: DelayLine::new(taps_per_branch - 1),
            phase: 0,
        }
    }

    /// Interpolation factor (after reduction).
    pub fn up(&self) -> usize {
        self.up
    }

    /// Decimation factor (after reduction).
    pub fn down(&self) -> usize {
        self.down
    }

    /// Resamples the block `(re, im)` into `(out_re, out_im)` (cleared
    /// first): roughly `re.len() * L / M` samples. The delay line and the
    /// phase carry over to the next block.
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
        self.history.load(re, im);
        out_re.clear();
        out_im.clear();
        for (wr, wi) in self.history.windows() {
            // Emit every output whose upsampled-domain index falls within
            // this input sample's span of `up` positions.
            while self.phase < self.up {
                let (y_re, y_im) = fir::dot(&self.branches[self.phase], wr, wi);
                out_re.push(y_re);
                out_im.push(y_im);
                self.phase += self.down;
            }
            self.phase -= self.up;
        }
        self.history.carry();
    }

    /// Clears the delay line and phase.
    pub fn reset(&mut self) {
        self.history.reset();
        self.phase = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::stats::mean_power;
    use std::f64::consts::PI;

    /// Runs `x` through `rs` in split form and interleaves the output.
    fn run(rs: &mut Resampler, x: &[Complex64]) -> Vec<Complex64> {
        let re: Vec<f64> = x.iter().map(|z| z.re).collect();
        let im: Vec<f64> = x.iter().map(|z| z.im).collect();
        let (mut out_re, mut out_im) = (Vec::new(), Vec::new());
        rs.process_split(&re, &im, &mut out_re, &mut out_im);
        out_re
            .iter()
            .zip(&out_im)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect()
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn identity_resampler_passthrough() {
        let mut rs = Resampler::new(3, 3, 8);
        assert_eq!(rs.up(), 1);
        assert_eq!(rs.down(), 1);
        let x: Vec<Complex64> = (0..10).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let y = run(&mut rs, &x);
        assert_eq!(y.len(), x.len());
        for (a, b) in y.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn upsample_output_count() {
        let mut rs = Resampler::new(4, 1, 8);
        let y = run(&mut rs, &vec![Complex64::ONE; 100]);
        assert_eq!(y.len(), 400);
    }

    #[test]
    fn downsample_output_count() {
        let mut rs = Resampler::new(1, 4, 8);
        let y = run(&mut rs, &vec![Complex64::ONE; 100]);
        assert_eq!(y.len(), 25);
    }

    #[test]
    fn rational_output_count() {
        let mut rs = Resampler::new(3, 2, 8);
        let y = run(&mut rs, &vec![Complex64::ONE; 200]);
        assert_eq!(y.len(), 300);
    }

    #[test]
    fn dc_gain_preserved() {
        let mut rs = Resampler::new(4, 1, 16);
        let y = run(&mut rs, &vec![Complex64::ONE; 256]);
        // After the filter transient, DC level is 1.
        let tail = &y[y.len() - 64..];
        for z in tail {
            assert!((z.re - 1.0).abs() < 0.01, "dc level {}", z.re);
        }
    }

    #[test]
    fn tone_survives_interpolation() {
        // A tone at 0.05 fs must appear at 0.0125 fs' after 4x interpolation
        // with (approximately) the same power.
        let n = 1024;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * 0.05 * i as f64))
            .collect();
        let mut rs = Resampler::new(4, 1, 16);
        let y = run(&mut rs, &x);
        let steady = &y[512..];
        let p = mean_power(steady);
        assert!((p - 1.0).abs() < 0.05, "tone power {p}");
        // Instantaneous frequency ≈ 2π·0.0125.
        let dphi = (steady[101].arg() - steady[100].arg()).rem_euclid(2.0 * PI);
        assert!((dphi - 2.0 * PI * 0.0125).abs() < 1e-3, "dphi {dphi}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut rs = Resampler::new(2, 1, 8);
        let a = run(&mut rs, &vec![Complex64::ONE; 16]);
        rs.reset();
        let b = run(&mut rs, &vec![Complex64::ONE; 16]);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "rates")]
    fn zero_rate_panics() {
        let _ = Resampler::new(0, 1, 4);
    }
}
