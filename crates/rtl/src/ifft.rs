//! Bit-true iterative radix-2 IFFT with quantized twiddle ROM.
//!
//! Implements the decimation-in-time structure a hardware IFFT uses: a
//! bit-reversal load pass followed by log₂N butterfly stages. Every
//! butterfly output is halved (with rounding) to prevent overflow, which
//! makes the overall gain exactly 1/N — the same convention as the
//! behavioral [`ofdm_dsp::fft::Fft::inverse_split_in`], so outputs are directly
//! comparable (experiment E5).

use crate::fixed::{FxComplex, FxFormat};
use std::f64::consts::PI;

/// A fixed-point IFFT engine for one power-of-two length and word format.
#[derive(Debug, Clone)]
pub struct FxIfft {
    n: usize,
    format: FxFormat,
    /// Twiddle ROM: e^{+i 2π k / N} for k in 0..N/2, quantized.
    twiddles: Vec<FxComplex>,
    rev: Vec<u32>,
}

impl FxIfft {
    /// Builds the engine (twiddle ROM quantized into `format`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 2.
    pub fn new(n: usize, format: FxFormat) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "length must be a power of two"
        );
        let bits = n.trailing_zeros();
        let twiddles = (0..n / 2)
            .map(|k| {
                let theta = 2.0 * PI * k as f64 / n as f64;
                FxComplex::from_f64(theta.cos(), theta.sin(), format)
            })
            .collect();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        FxIfft {
            n,
            format,
            twiddles,
            rev,
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for a zero-length engine (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The datapath word format.
    pub fn format(&self) -> FxFormat {
        self.format
    }

    /// Butterfly operations one transform performs (the cycle cost of the
    /// datapath, excluding the load pass): `(N/2)·log₂N`.
    pub fn butterfly_count(&self) -> u64 {
        (self.n as u64 / 2) * self.n.trailing_zeros() as u64
    }

    /// In-place bit-true IFFT with per-stage 1/2 scaling (total 1/N).
    ///
    /// Returns the number of butterfly operations performed.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the engine length.
    pub fn transform(&self, buf: &mut [FxComplex]) -> u64 {
        assert_eq!(buf.len(), self.n, "buffer length must match engine");
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let mut ops = 0u64;
        let mut len = 2;
        while len <= self.n {
            let half = len / 2;
            let stride = self.n / len;
            for start in (0..self.n).step_by(len) {
                for k in 0..half {
                    let tw = self.twiddles[k * stride];
                    let a = buf[start + k];
                    let b = buf[start + k + half].mul(tw);
                    // Halve both outputs: overflow-safe stage scaling.
                    buf[start + k] = a.add(b).half();
                    buf[start + k + half] = a.sub(b).half();
                    ops += 1;
                }
            }
            len <<= 1;
        }
        ops
    }
}

/// A cycle-steppable IFFT execution: one bit-reverse load or one butterfly
/// per [`IfftStepper::step`], the way the hardware datapath actually
/// spends its clock cycles.
#[derive(Debug, Clone)]
pub struct IfftStepper {
    engine: FxIfft,
    buf: Vec<FxComplex>,
    /// Remaining load (bit-reversal) micro-ops.
    load_pos: usize,
    /// Current stage span (2, 4, …, n); 0 once finished.
    len: usize,
    start: usize,
    k: usize,
}

impl IfftStepper {
    /// Begins a transform of `grid` (consumed into the stepper).
    ///
    /// # Panics
    ///
    /// Panics if `grid.len()` differs from the engine length.
    pub fn new(engine: FxIfft, grid: Vec<FxComplex>) -> Self {
        assert_eq!(grid.len(), engine.n, "grid length must match engine");
        IfftStepper {
            buf: grid,
            engine,
            load_pos: 0,
            len: 2,
            start: 0,
            k: 0,
        }
    }

    /// Total micro-ops (cycles) a full transform takes: N loads +
    /// (N/2)·log₂N butterflies.
    pub fn total_cycles(&self) -> u64 {
        self.engine.n as u64 + self.engine.butterfly_count()
    }

    /// Executes one micro-op; returns `true` if work was performed,
    /// `false` once the transform has already completed.
    pub fn step(&mut self) -> bool {
        let n = self.engine.n;
        if self.load_pos < n {
            // One bit-reversal load per cycle.
            let i = self.load_pos;
            let j = self.engine.rev[i] as usize;
            if i < j {
                self.buf.swap(i, j);
            }
            self.load_pos += 1;
            return true;
        }
        if self.len > n {
            return false;
        }
        // One butterfly.
        let half = self.len / 2;
        let stride = n / self.len;
        let tw = self.engine.twiddles[self.k * stride];
        let a = self.buf[self.start + self.k];
        let b = self.buf[self.start + self.k + half].mul(tw);
        self.buf[self.start + self.k] = a.add(b).half();
        self.buf[self.start + self.k + half] = a.sub(b).half();
        // Advance the (k, start, len) iteration.
        self.k += 1;
        if self.k == half {
            self.k = 0;
            self.start += self.len;
            if self.start >= n {
                self.start = 0;
                self.len <<= 1;
            }
        }
        true
    }

    /// Whether the transform has completed.
    pub fn is_done(&self) -> bool {
        self.load_pos >= self.engine.n && self.len > self.engine.n
    }

    /// Takes the finished (or in-progress) buffer out.
    pub fn into_result(self) -> Vec<FxComplex> {
        self.buf
    }

    /// Borrows the working buffer.
    pub fn result(&self) -> &[FxComplex] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_dsp::fft::{Fft, FftScratch};
    use ofdm_dsp::Complex64;

    fn max_err_vs_float(n: usize, format: FxFormat) -> f64 {
        // A deterministic multi-tone grid.
        let grid: Vec<Complex64> = (0..n)
            .map(|k| {
                if k % 5 == 1 {
                    Complex64::cis(k as f64 * 0.7).scale(0.5)
                } else {
                    Complex64::ZERO
                }
            })
            .collect();
        let (mut float_re, mut float_im): (Vec<f64>, Vec<f64>) =
            grid.iter().map(|z| (z.re, z.im)).unzip();
        Fft::new(n).inverse_split_in(&mut float_re, &mut float_im, &mut FftScratch::new());
        let mut fx: Vec<FxComplex> = grid
            .iter()
            .map(|z| FxComplex::from_f64(z.re, z.im, format))
            .collect();
        FxIfft::new(n, format).transform(&mut fx);
        fx.iter()
            .zip(float_re.iter().zip(&float_im))
            .map(|(q, (&f_re, &f_im))| {
                let (re, im) = q.to_f64();
                (Complex64::new(re, im) - Complex64::new(f_re, f_im)).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_float_ifft_at_16_bits() {
        let err = max_err_vs_float(64, FxFormat::new(16, 14));
        assert!(err < 1e-3, "err {err}");
    }

    #[test]
    fn error_shrinks_with_wordlength() {
        let e8 = max_err_vs_float(64, FxFormat::new(10, 8));
        let e16 = max_err_vs_float(64, FxFormat::new(18, 16));
        let e24 = max_err_vs_float(64, FxFormat::new(26, 24));
        assert!(e16 < e8 / 10.0, "e8 {e8} e16 {e16}");
        assert!(e24 < e16, "e16 {e16} e24 {e24}");
    }

    #[test]
    fn impulse_gives_flat_output() {
        let fmt = FxFormat::new(18, 16);
        let n = 32;
        let ifft = FxIfft::new(n, fmt);
        let mut buf = vec![FxComplex::zero(fmt); n];
        buf[0] = FxComplex::from_f64(0.5, 0.0, fmt);
        ifft.transform(&mut buf);
        // IFFT of an impulse = constant 0.5/32.
        for q in &buf {
            let (re, im) = q.to_f64();
            assert!((re - 0.5 / 32.0).abs() < 1e-3, "re {re}");
            assert!(im.abs() < 1e-3);
        }
    }

    #[test]
    fn butterfly_count_formula() {
        let ifft = FxIfft::new(64, FxFormat::new(16, 14));
        assert_eq!(ifft.butterfly_count(), 32 * 6);
        let mut buf = vec![FxComplex::zero(ifft.format()); 64];
        let ops = ifft.transform(&mut buf);
        assert_eq!(ops, ifft.butterfly_count());
        assert_eq!(ifft.len(), 64);
        assert!(!ifft.is_empty());
    }

    #[test]
    fn saturation_does_not_wrap() {
        // Full-scale inputs must saturate gracefully, never wrap sign.
        let fmt = FxFormat::new(12, 10);
        let n = 16;
        let ifft = FxIfft::new(n, fmt);
        let mut buf: Vec<FxComplex> = (0..n)
            .map(|_| FxComplex::from_f64(1.9, -1.9, fmt))
            .collect();
        ifft.transform(&mut buf);
        for q in &buf {
            let (re, im) = q.to_f64();
            assert!(re.abs() <= 2.0 && im.abs() <= 2.0);
        }
    }

    #[test]
    fn stepper_matches_batch_transform() {
        let fmt = FxFormat::new(18, 15);
        let n = 64;
        let grid: Vec<FxComplex> = (0..n)
            .map(|k| {
                FxComplex::from_f64(
                    (k as f64 * 0.3).sin() * 0.4,
                    (k as f64 * 0.9).cos() * 0.4,
                    fmt,
                )
            })
            .collect();
        let engine = FxIfft::new(n, fmt);
        let mut batch = grid.clone();
        engine.transform(&mut batch);

        let mut stepper = IfftStepper::new(engine, grid);
        let total = stepper.total_cycles();
        let mut cycles = 0u64;
        while stepper.step() {
            cycles += 1;
        }
        assert!(stepper.is_done());
        // All loads + all butterflies, one micro-op per step.
        assert_eq!(cycles, total, "one micro-op per cycle");
        assert_eq!(stepper.result(), &batch[..]);
        assert_eq!(stepper.into_result(), batch);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let _ = FxIfft::new(48, FxFormat::new(16, 14));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_rejected() {
        let ifft = FxIfft::new(16, FxFormat::new(16, 14));
        let mut buf = vec![FxComplex::zero(ifft.format()); 8];
        ifft.transform(&mut buf);
    }
}
