//! Synchronization: Schmidl–Cox timing metric and CP/periodicity-based
//! carrier-frequency-offset estimation.
//!
//! Used by the impairment experiments, where the receiver must find the
//! frame start and undo the LO offset that `rfsim`'s front-end models
//! introduce.

use ofdm_dsp::Complex64;
use std::f64::consts::TAU;

/// The Schmidl–Cox timing metric `M(d) = |P(d)|² / R(d)²` for a signal
/// containing a training symbol with two identical halves of length
/// `half_len` (the 802.11a LTF halves, or any repeated preamble).
///
/// Reads the signal from separate re/im slices (the `rfsim::Signal`
/// structure-of-arrays layout), so receivers never materialize a
/// `Vec<Complex64>` view of the whole waveform. Returns the metric for
/// every candidate offset `d` (length `len − 2·half_len`, empty if the
/// signal is shorter).
pub fn schmidl_cox_metric_parts(re: &[f64], im: &[f64], half_len: usize) -> Vec<f64> {
    let len = re.len().min(im.len());
    let at = |i: usize| Complex64::new(re[i], im[i]);
    if len < 2 * half_len || half_len == 0 {
        return Vec::new();
    }
    let n = len - 2 * half_len;
    let mut out = Vec::with_capacity(n);
    // Sliding correlation, updated incrementally for O(N) total cost.
    let mut p = Complex64::ZERO;
    let mut r = 0.0f64;
    for m in 0..half_len {
        p += at(m).conj() * at(m + half_len);
        r += at(m + half_len).norm_sqr();
    }
    for d in 0..n {
        out.push(if r > 1e-30 {
            p.norm_sqr() / (r * r)
        } else {
            0.0
        });
        // Slide the window by one.
        p -= at(d).conj() * at(d + half_len);
        p += at(d + half_len).conj() * at(d + 2 * half_len);
        r -= at(d + half_len).norm_sqr();
        r += at(d + 2 * half_len).norm_sqr();
    }
    out
}

/// Finds the offset maximizing the Schmidl–Cox metric; `None` for signals
/// shorter than one training symbol.
pub fn find_frame_start_parts(re: &[f64], im: &[f64], half_len: usize) -> Option<usize> {
    let metric = schmidl_cox_metric_parts(re, im, half_len);
    metric
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("metric is finite"))
        .map(|(d, _)| d)
}

/// Estimates a fractional carrier-frequency offset from a repeated
/// training region: two identical halves of `half_len` samples starting at
/// `offset`. Returns the CFO in Hz given the sample rate.
///
/// The unambiguous range is `±sample_rate / (2·half_len)`.
pub fn estimate_cfo_parts(
    re: &[f64],
    im: &[f64],
    offset: usize,
    half_len: usize,
    sample_rate: f64,
) -> Option<f64> {
    let len = re.len().min(im.len());
    if offset + 2 * half_len > len || half_len == 0 {
        return None;
    }
    let at = |i: usize| Complex64::new(re[i], im[i]);
    let mut p = Complex64::ZERO;
    for m in 0..half_len {
        p += at(offset + m).conj() * at(offset + m + half_len);
    }
    Some(p.arg() / (TAU * half_len as f64) * sample_rate)
}

/// Applies a frequency shift of `-cfo_hz` (i.e. corrects a measured CFO),
/// producing split re/im vectors.
pub fn correct_cfo_parts(
    re: &[f64],
    im: &[f64],
    cfo_hz: f64,
    sample_rate: f64,
) -> (Vec<f64>, Vec<f64>) {
    let len = re.len().min(im.len());
    let mut out_re = Vec::with_capacity(len);
    let mut out_im = Vec::with_capacity(len);
    for n in 0..len {
        let z =
            Complex64::new(re[n], im[n]) * Complex64::cis(-TAU * cfo_hz * n as f64 / sample_rate);
        out_re.push(z.re);
        out_im.push(z.im);
    }
    (out_re, out_im)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_dsp::Complex64;

    /// A noise-ish aperiodic run followed by a symbol with repeated
    /// halves, as split re/im.
    fn test_signal(start: usize, half: usize) -> (Vec<f64>, Vec<f64>) {
        let mut v: Vec<Complex64> = (0..start)
            .map(|i| Complex64::cis((i * i) as f64 * 0.13 + i as f64 * 1.7))
            .collect();
        let half_seq: Vec<Complex64> = (0..half)
            .map(|i| Complex64::cis(i as f64 * 0.9 + (i * i) as f64 * 0.05))
            .collect();
        v.extend_from_slice(&half_seq);
        v.extend_from_slice(&half_seq);
        // Aperiodic tail.
        v.extend((0..40).map(|i| Complex64::cis(i as f64 * 2.1 + (i * i) as f64 * 0.21)));
        split(&v)
    }

    fn split(v: &[Complex64]) -> (Vec<f64>, Vec<f64>) {
        (
            v.iter().map(|z| z.re).collect(),
            v.iter().map(|z| z.im).collect(),
        )
    }

    #[test]
    fn metric_peaks_at_training_symbol() {
        let (re, im) = test_signal(100, 32);
        let found = find_frame_start_parts(&re, &im, 32).unwrap();
        assert!(
            (found as i64 - 100).unsigned_abs() <= 2,
            "found {found}, expected ≈100"
        );
        let metric = schmidl_cox_metric_parts(&re, &im, 32);
        assert!(metric[found] > 0.9, "peak metric {}", metric[found]);
    }

    #[test]
    fn metric_empty_for_short_signal() {
        assert!(schmidl_cox_metric_parts(&[1.0; 10], &[0.0; 10], 8).is_empty());
        assert!(find_frame_start_parts(&[1.0; 10], &[0.0; 10], 8).is_none());
        assert!(schmidl_cox_metric_parts(&[], &[], 0).is_empty());
    }

    #[test]
    fn cfo_estimated_and_corrected() {
        let fs = 20e6;
        let cfo = 50e3; // within ±fs/(2·64) = ±156 kHz
        let (re, im) = test_signal(0, 64);
        // Applying a +cfo shift is correcting a −cfo one.
        let (sre, sim) = correct_cfo_parts(&re, &im, -cfo, fs);
        let est = estimate_cfo_parts(&sre, &sim, 0, 64, fs).unwrap();
        assert!((est - cfo).abs() < 100.0, "estimate {est}");
        let (fre, fim) = correct_cfo_parts(&sre, &sim, est, fs);
        // After correction the two halves match again.
        for m in 0..64 {
            let d = Complex64::new(fre[m] - fre[m + 64], fim[m] - fim[m + 64]);
            assert!(d.abs() < 1e-6);
        }
    }

    #[test]
    fn cfo_zero_for_clean_signal() {
        let (re, im) = test_signal(0, 48);
        let est = estimate_cfo_parts(&re, &im, 0, 48, 1e6).unwrap();
        assert!(est.abs() < 1.0, "estimate {est}");
    }

    #[test]
    fn cfo_out_of_bounds_none() {
        assert!(estimate_cfo_parts(&[1.0; 10], &[0.0; 10], 0, 8, 1.0).is_none());
        assert!(estimate_cfo_parts(&[1.0; 10], &[0.0; 10], 0, 0, 1.0).is_none());
    }

    #[test]
    fn works_on_80211a_ltf() {
        // Real 802.11a long training field: halves of 64 samples repeat.
        let (re, im) = split(&ofdm_standards::ieee80211a::long_training_field());
        // Skip the 32-sample CP: offset 32, halves 64.
        let est = estimate_cfo_parts(&re, &im, 32, 64, 20e6).unwrap();
        assert!(est.abs() < 1.0);
        let start = find_frame_start_parts(&re, &im, 64).unwrap();
        // Any offset within the CP keeps the two halves identical; the
        // metric plateaus there.
        assert!(start <= 32, "start {start}");
    }
}
