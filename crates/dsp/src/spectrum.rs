//! Power spectral density estimation (periodogram / Welch).
//!
//! Backs the RF simulator's spectrum analyzer instrument and the
//! spectral-mask checks in the co-simulation experiments.

use crate::fft::{self, Fft, FftScratch};
use crate::window::Window;
use std::sync::Arc;

/// A Welch PSD estimator configuration.
///
/// Splits the input into `segment_len`-sample windows with 50 % overlap,
/// windows each segment, and averages the periodograms.
#[derive(Debug, Clone)]
pub struct WelchPsd {
    /// The process-wide cached plan for the segment length.
    fft: Arc<Fft>,
    win_coeffs: Vec<f64>,
    win_power: f64,
    /// One windowed segment, split, and its transform's scratch: reused
    /// across segments and calls.
    seg_re: Vec<f64>,
    seg_im: Vec<f64>,
    scratch: FftScratch,
}

impl WelchPsd {
    /// Creates an estimator with the given segment length and window.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len` is zero.
    pub fn new(segment_len: usize, window: Window) -> Self {
        assert!(segment_len > 0, "segment length must be nonzero");
        let win_coeffs = window.coefficients(segment_len);
        let win_power = win_coeffs.iter().map(|w| w * w).sum::<f64>() / segment_len as f64;
        WelchPsd {
            fft: fft::plan(segment_len),
            win_coeffs,
            win_power,
            seg_re: vec![0.0; segment_len],
            seg_im: vec![0.0; segment_len],
            scratch: FftScratch::new(),
        }
    }

    /// Estimates the PSD of the signal held as split `re`/`im` slices in
    /// linear power per bin, bins ordered from DC upward (bin k corresponds
    /// to normalized frequency k/N; the upper half is the
    /// negative-frequency side).
    ///
    /// Normalization: for a unit-power white input the bins sum to the
    /// signal power (window-compensated). Returns all-zero bins if the
    /// signal is shorter than one segment.
    pub fn estimate(&mut self, re: &[f64], im: &[f64]) -> Vec<f64> {
        let n = self.win_coeffs.len();
        let len = re.len().min(im.len());
        let mut acc = vec![0.0f64; n];
        if len < n {
            return acc;
        }
        let hop = (n / 2).max(1);
        let mut segments = 0usize;
        let mut start = 0usize;
        while start + n <= len {
            for (seg, x) in [(&mut self.seg_re, re), (&mut self.seg_im, im)] {
                for ((s, &v), w) in seg.iter_mut().zip(&x[start..]).zip(&self.win_coeffs) {
                    *s = v * w;
                }
            }
            self.fft
                .forward_split_in(&mut self.seg_re, &mut self.seg_im, &mut self.scratch);
            for ((a, r), i) in acc.iter_mut().zip(&self.seg_re).zip(&self.seg_im) {
                *a += r * r + i * i;
            }
            segments += 1;
            start += hop;
        }
        let norm = 1.0 / (segments as f64 * n as f64 * n as f64 * self.win_power);
        for a in acc.iter_mut() {
            *a *= norm;
        }
        acc
    }
}

/// Reorders a DC-first PSD so that bins run from the most negative frequency
/// to the most positive (fftshift).
pub fn fft_shift<T: Copy>(bins: &[T]) -> Vec<T> {
    let n = bins.len();
    let half = n.div_ceil(2);
    bins[half..]
        .iter()
        .chain(bins[..half].iter())
        .copied()
        .collect()
}

/// The normalized frequency axis (cycles/sample, in `[-0.5, 0.5)`) matching
/// [`fft_shift`] ordering for `n` bins.
pub fn shifted_freq_axis(n: usize, sample_rate: f64) -> Vec<f64> {
    let half = n.div_ceil(2);
    (0..n)
        .map(|i| {
            let k = i as isize - (n - half) as isize;
            k as f64 * sample_rate / n as f64
        })
        .collect()
}

/// Integrates band power from a DC-first PSD between two frequencies (Hz),
/// where `sample_rate` maps bins to frequency. Frequencies may be negative.
pub fn band_power(psd: &[f64], sample_rate: f64, f_lo: f64, f_hi: f64) -> f64 {
    let n = psd.len();
    let df = sample_rate / n as f64;
    let mut acc = 0.0;
    for (k, &p) in psd.iter().enumerate() {
        // Map bin to signed frequency.
        let f = if k < n.div_ceil(2) {
            k as f64 * df
        } else {
            (k as f64 - n as f64) * df
        };
        if f >= f_lo && f < f_hi {
            acc += p;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::fft::dft_naive;
    use crate::fft::tests::naive_tolerance;
    use std::f64::consts::PI;

    /// `x`'s Welch estimate through the split entry point.
    fn estimate(psd: &mut WelchPsd, x: &[Complex64]) -> Vec<f64> {
        let re: Vec<f64> = x.iter().map(|z| z.re).collect();
        let im: Vec<f64> = x.iter().map(|z| z.im).collect();
        psd.estimate(&re, &im)
    }

    #[test]
    fn white_signal_total_power() {
        // Deterministic pseudo-white signal with unit power.
        let n = 8192;
        let x: Vec<Complex64> = (0..n)
            .map(|i| {
                let a = ((i * 2654435761usize) % 65536) as f64 / 65536.0;
                Complex64::cis(2.0 * PI * a)
            })
            .collect();
        let psd = estimate(&mut WelchPsd::new(256, Window::Hann), &x);
        let total: f64 = psd.iter().sum();
        assert!((total - 1.0).abs() < 0.15, "total {total}");
    }

    #[test]
    fn tone_concentrates_in_bin() {
        let n = 4096;
        let seg = 256;
        let bin = 32; // exactly on-bin for seg=256
        let f = bin as f64 / seg as f64;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * f * i as f64))
            .collect();
        let psd = estimate(&mut WelchPsd::new(seg, Window::Hann), &x);
        let peak_bin = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak_bin, bin);
        // Nearly all power within ±2 bins of the peak.
        let local: f64 = (bin - 2..=bin + 2).map(|k| psd[k]).sum();
        let total: f64 = psd.iter().sum();
        assert!(local / total > 0.99);
        assert!((total - 1.0).abs() < 0.05, "tone power {total}");
    }

    /// Welch's estimate by definition: 50 % overlapped, windowed segments
    /// through `dft_naive`, periodograms averaged and normalized.
    fn welch_naive(x: &[Complex64], seg: usize, window: Window) -> Vec<f64> {
        let w = window.coefficients(seg);
        let win_power = w.iter().map(|c| c * c).sum::<f64>() / seg as f64;
        let starts: Vec<usize> = (0..=x.len() - seg).step_by(seg / 2).collect();
        let mut acc = vec![0.0; seg];
        for &s in &starts {
            let windowed: Vec<Complex64> = (0..seg).map(|i| x[s + i].scale(w[i])).collect();
            for (a, z) in acc.iter_mut().zip(dft_naive(&windowed)) {
                *a += z.norm_sqr();
            }
        }
        let norm = starts.len() as f64 * (seg * seg) as f64 * win_power;
        acc.iter().map(|a| a / norm).collect()
    }

    #[test]
    fn estimate_matches_a_naive_dft_welch() {
        // A tone plus a chirp (|x| ≤ 1), at power-of-two and
        // DRM-like segment lengths. A spectrum error δ ≤ naive_tolerance(n)
        // moves |X|² by at most 2|X|δ + δ², under 3δ of the peak bin
        // whenever the peak |X| ≥ 1.
        for (seg, window) in [
            (64, Window::Hann),
            (256, Window::Blackman),
            (288, Window::Hann),
        ] {
            let x: Vec<Complex64> = (0..5 * seg)
                .map(|i| {
                    let t = i as f64;
                    Complex64::cis(2.0 * PI * (0.13 * t + 1e-4 * t * t)).scale(0.5)
                        + Complex64::cis(-2.0 * PI * 0.31 * t).scale(0.5)
                })
                .collect();
            let want = welch_naive(&x, seg, window);
            let mut psd = WelchPsd::new(seg, window);
            let got = estimate(&mut psd, &x);
            // The held segment buffers carry nothing between calls.
            assert_eq!(estimate(&mut psd, &x), got, "seg {seg}: second call");
            let peak = want.iter().copied().fold(0.0, f64::max);
            let tol = 3.0 * naive_tolerance(seg) * peak;
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() <= tol, "seg {seg} bin {k}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn short_signal_gives_zeros() {
        let psd = WelchPsd::new(128, Window::Hann).estimate(&[1.0; 10], &[0.0; 10]);
        assert!(psd.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn fft_shift_even_odd() {
        assert_eq!(fft_shift(&[0, 1, 2, 3]), vec![2, 3, 0, 1]);
        assert_eq!(fft_shift(&[0, 1, 2, 3, 4]), vec![3, 4, 0, 1, 2]);
    }

    #[test]
    fn freq_axis_monotone_and_centered() {
        let ax = shifted_freq_axis(8, 8000.0);
        assert_eq!(ax.len(), 8);
        for w in ax.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!((ax[4] - 0.0).abs() < 1e-9); // DC at index n/2 for even n
        assert!((ax[0] + 4000.0).abs() < 1e-9);
    }

    #[test]
    fn band_power_partition() {
        let n = 2048;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * 0.1 * i as f64))
            .collect();
        let psd = estimate(&mut WelchPsd::new(256, Window::Hann), &x);
        let fs = 1.0;
        let total = band_power(&psd, fs, -0.5, 0.5);
        let lower = band_power(&psd, fs, -0.5, 0.05);
        let upper = band_power(&psd, fs, 0.05, 0.5);
        assert!((lower + upper - total).abs() < 1e-12);
        // The 0.1 fs tone is in the upper band.
        assert!(upper / total > 0.99);
    }

    #[test]
    #[should_panic(expected = "segment length")]
    fn zero_segment_panics() {
        let _ = WelchPsd::new(0, Window::Hann);
    }
}
