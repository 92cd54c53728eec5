//! Fast Fourier transforms.
//!
//! One planner type, [`Fft`], serves every length with one engine: a
//! recursive mixed-radix decimation-in-time FFT over split `re`/`im`
//! arrays, with precomputed twiddle factors. Its levels are radix 4, then
//! the odd prime factors (a dedicated radix-3 butterfly, a generic
//! butterfly for any other prime), then a radix-2 leaf. The power-of-two
//! standards (802.11a/g, DAB, DVB-T, HomePlug, ADSL, VDSL) run radix-4
//! levels only; DRM's non-power-of-two useful symbols (288 = 2⁵·3²,
//! 176 = 2⁴·11, 112 = 2⁴·7 samples at 12 kHz) add odd levels. A length
//! with a large prime factor `p` costs `O(n·p)`; no shipped standard has
//! a prime factor above 11.
//!
//! The split API ([`Fft::forward_split_in`]) calls the engine directly.
//! The interleaved complex API ([`Fft::forward`], [`Fft::forward_in`])
//! wraps it for non-power-of-two lengths; at powers of two it keeps an
//! iterative complex radix-2 engine, whose exact bits the spectrum
//! analyser, the receivers and their pinned outputs depend on.
//!
//! Plans are immutable after construction and `Send + Sync`, so one plan can
//! serve many worker threads.
//!
//! # Example
//!
//! ```
//! use ofdm_dsp::{Complex64, fft::Fft};
//!
//! // DRM mode A's 288-point symbol: radix 4·4·3·3·2.
//! let fft = Fft::new(288);
//! let mut v: Vec<Complex64> = (0..288)
//!     .map(|n| Complex64::cis(2.0 * std::f64::consts::PI * 7.0 * n as f64 / 288.0))
//!     .collect();
//! fft.forward(&mut v);
//! // All energy lands in bin 7.
//! assert!((v[7].abs() - 288.0).abs() < 1e-6);
//! ```

use crate::complex::Complex64;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// An FFT plan for a fixed transform length.
///
/// Construction factors the length and precomputes the twiddle factors.
/// [`Fft::forward`] computes the unnormalized DFT; [`Fft::inverse`]
/// includes the `1/N` factor so that `inverse(forward(x)) == x`.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// Complex-layout radix-2 engine, power-of-two lengths only: the
    /// interleaved API keeps it there, bit-compatible with every
    /// pre-existing caller. The split API, and the interleaved API at every
    /// other length, run `mixed`.
    radix2: Option<Radix2>,
    mixed: MixedRadix,
}

impl Fft {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be nonzero");
        Fft {
            n,
            radix2: n.is_power_of_two().then(|| Radix2::new(n)),
            mixed: MixedRadix::new(n),
        }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when the plan length is zero (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT: `X[k] = Σ_n x[n] e^{-i 2π k n / N}` (no scaling).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.forward_in(buf, &mut FftScratch::new());
    }

    /// In-place inverse DFT with `1/N` normalization:
    /// `x[n] = (1/N) Σ_k X[k] e^{+i 2π k n / N}`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.inverse_in(buf, &mut FftScratch::new());
    }

    /// In-place forward DFT reusing caller-provided scratch.
    ///
    /// Numerically identical to [`Fft::forward`]; the only difference is
    /// that the split working buffers of a non-power-of-two length come
    /// from `scratch` instead of a fresh allocation, so a long-lived scratch
    /// makes repeated transforms allocation-free after warm-up. The radix-2
    /// engine needs no scratch and ignores it.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn forward_in(&self, buf: &mut [Complex64], scratch: &mut FftScratch) {
        self.complex_transform(buf, scratch, Direction::Forward);
    }

    /// In-place inverse DFT (with `1/N` scaling) reusing caller-provided
    /// scratch. See [`Fft::forward_in`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn inverse_in(&self, buf: &mut [Complex64], scratch: &mut FftScratch) {
        self.complex_transform(buf, scratch, Direction::Inverse);
        let scale = 1.0 / self.n as f64;
        for z in buf.iter_mut() {
            *z = z.scale(scale);
        }
    }

    fn complex_transform(&self, buf: &mut [Complex64], scratch: &mut FftScratch, dir: Direction) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan length");
        if let Some(radix2) = &self.radix2 {
            radix2.transform(buf, dir);
            return;
        }
        // Every other length: deinterleave, run the split engine,
        // interleave — bit for bit what the split API computes.
        let FftScratch {
            src_re,
            src_im,
            out,
            odd,
        } = scratch;
        src_re.clear();
        src_re.extend(buf.iter().map(|z| z.re));
        src_im.clear();
        src_im.extend(buf.iter().map(|z| z.im));
        out.clear();
        out.resize(2 * self.n, 0.0);
        let (out_re, out_im) = out.split_at_mut(self.n);
        self.mixed
            .transform(src_re, src_im, out_re, out_im, odd, dir);
        for ((z, &re), &im) in buf.iter_mut().zip(out_re.iter()).zip(out_im.iter()) {
            *z = Complex64::new(re, im);
        }
    }

    /// In-place forward DFT over split `re`/`im` component slices.
    ///
    /// Runs the mixed-radix decimation-in-time engine directly on the flat
    /// `f64` arrays, for every length — the structure-of-arrays hot path.
    /// At power-of-two lengths it is numerically equivalent to the complex
    /// radix-2 engine to last-ulp reassociation, not bit-identical; at
    /// other lengths [`Fft::forward_in`] wraps this same engine and matches
    /// it bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if either component length differs from the plan length.
    pub fn forward_split_in(&self, re: &mut [f64], im: &mut [f64], scratch: &mut FftScratch) {
        self.split_transform(re, im, scratch, Direction::Forward);
    }

    /// In-place inverse DFT (with `1/N` scaling) over split `re`/`im`
    /// component slices. See [`Fft::forward_split_in`].
    ///
    /// # Panics
    ///
    /// Panics if either component length differs from the plan length.
    pub fn inverse_split_in(&self, re: &mut [f64], im: &mut [f64], scratch: &mut FftScratch) {
        self.split_transform(re, im, scratch, Direction::Inverse);
        let scale = 1.0 / self.n as f64;
        for r in re.iter_mut() {
            *r *= scale;
        }
        for i in im.iter_mut() {
            *i *= scale;
        }
    }

    fn split_transform(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        scratch: &mut FftScratch,
        dir: Direction,
    ) {
        assert_eq!(re.len(), self.n, "re length must match plan length");
        assert_eq!(im.len(), self.n, "im length must match plan length");
        if self.n == 1 {
            return; // identity transform
        }
        let FftScratch {
            src_re,
            src_im,
            odd,
            ..
        } = scratch;
        src_re.clear();
        src_re.extend_from_slice(re);
        src_im.clear();
        src_im.extend_from_slice(im);
        self.mixed.transform(src_re, src_im, re, im, odd, dir);
    }

    /// Convenience: forward transform of a borrowed slice into a new vector.
    pub fn forward_to_vec(&self, input: &[Complex64]) -> Vec<Complex64> {
        let mut v = input.to_vec();
        self.forward(&mut v);
        v
    }

    /// Convenience: inverse transform of a borrowed slice into a new vector.
    pub fn inverse_to_vec(&self, input: &[Complex64]) -> Vec<Complex64> {
        let mut v = input.to_vec();
        self.inverse(&mut v);
        v
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

/// Iterative radix-2 DIT engine.
#[derive(Debug, Clone)]
struct Radix2 {
    n: usize,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// Forward twiddles, e^{-i 2π k / N} for k in 0..N/2.
    twiddles: Vec<Complex64>,
}

impl Radix2 {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        let twiddles = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        Radix2 { n, rev, twiddles }
    }

    fn transform(&self, buf: &mut [Complex64], dir: Direction) {
        let n = self.n;
        if n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Butterflies.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let tw = self.twiddles[k * stride];
                    let tw = match dir {
                        Direction::Forward => tw,
                        Direction::Inverse => tw.conj(),
                    };
                    let a = buf[start + k];
                    let b = buf[start + k + half] * tw;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }
}

/// `sin(2π/3)`, the radix-3 butterfly's rotation.
const SIN_2PI_3: f64 = 0.866_025_403_784_438_6;

/// Recursive mixed-radix decimation-in-time engine over split `re`/`im`
/// arrays — the structure-of-arrays FFT path for every length.
///
/// Each recursion level splits its length `n = r·m` into `r` interleaved
/// length-`m` subsequences, transforms them into contiguous slices of the
/// output, and combines them with one radix-`r` butterfly level: a flat
/// loop over the `r` slices with twiddles read from one precomputed root
/// table, with no complex-struct shuffling to block the autovectorizer.
///
/// The levels, outermost first, are radix 4 while four divides the length,
/// then the odd prime factors in ascending order, then a radix-2 leaf when
/// the power of two is odd. A power of two therefore runs radix-4 levels
/// over length-2 (or length-1) leaves, and `2^k · 9` (DRM mode A's 288)
/// runs 4·4·3·3·2. Radix 4 needs ~25% fewer twiddle multiplies than
/// radix 2, and radix 3 has its own butterfly. Any other prime `p` runs a
/// generic butterfly that pairs conjugate-symmetric terms: `O(p)` work per
/// output, so a length with a large prime factor costs `O(n·p)` rather than
/// `O(n log n)`. No shipped standard has a prime factor above 11.
#[derive(Debug, Clone)]
struct MixedRadix {
    n: usize,
    /// The radix of each recursion level, outermost first.
    radices: Vec<usize>,
    /// Root twiddle table, `w[j] = e^{-i 2π j / N}` for `j in 0..N`:
    /// `W_n^k` at any recursion level `n` is `w[k·(N/n)]`.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl MixedRadix {
    fn new(n: usize) -> Self {
        let mut radices = Vec::new();
        let mut rest = n;
        while rest.is_multiple_of(4) {
            radices.push(4);
            rest /= 4;
        }
        let leaf2 = rest.is_multiple_of(2);
        if leaf2 {
            rest /= 2;
        }
        let mut f = 3;
        while rest > 1 {
            if f * f > rest {
                f = rest; // what is left is prime
            }
            while rest.is_multiple_of(f) {
                radices.push(f);
                rest /= f;
            }
            f += 2;
        }
        if leaf2 {
            radices.push(2);
        }
        let mut tw_re = Vec::with_capacity(n);
        let mut tw_im = Vec::with_capacity(n);
        for j in 0..n {
            let w = Complex64::cis(-2.0 * PI * j as f64 / n as f64);
            tw_re.push(w.re);
            tw_im.push(w.im);
        }
        MixedRadix {
            n,
            radices,
            tw_re,
            tw_im,
        }
    }

    /// Out-of-place transform: reads `(src_re, src_im)`, writes
    /// `(dst_re, dst_im)`. All four slices are `n` long; `odd` is grown to
    /// the generic butterfly's working size.
    fn transform(
        &self,
        src_re: &[f64],
        src_im: &[f64],
        dst_re: &mut [f64],
        dst_im: &mut [f64],
        odd: &mut Vec<f64>,
        dir: Direction,
    ) {
        let widest = self.radices.iter().copied().max().unwrap_or(1);
        odd.resize(2 * (widest - 1), 0.0);
        let mut pass = Pass {
            src_re,
            src_im,
            odd,
            dir,
        };
        self.rec(&mut pass, 0, 0, 1, dst_re, dst_im);
    }

    /// Transforms the `dst.len()`-point subsequence of the source starting
    /// at `base` with the given `stride` into `dst`, from recursion `level`
    /// on.
    fn rec(
        &self,
        pass: &mut Pass<'_>,
        level: usize,
        base: usize,
        stride: usize,
        dst_re: &mut [f64],
        dst_im: &mut [f64],
    ) {
        let n = dst_re.len();
        if n <= 2 {
            pass.leaf(base, stride, dst_re, dst_im);
            return;
        }
        let r = self.radices[level];
        let m = n / r;
        let sub = stride * r;
        for (j, (d_re, d_im)) in dst_re
            .chunks_exact_mut(m)
            .zip(dst_im.chunks_exact_mut(m))
            .enumerate()
        {
            let start = base + j * stride;
            // Leaves inline: they are most of the calls.
            if m <= 2 {
                pass.leaf(start, sub, d_re, d_im);
            } else {
                self.rec(pass, level + 1, start, sub, d_re, d_im);
            }
        }
        match r {
            4 => self.combine4(dst_re, dst_im, m, pass.dir),
            3 => self.combine3(dst_re, dst_im, m, pass.dir),
            _ => self.combine_odd(dst_re, dst_im, r, m, pass.odd, pass.dir),
        }
    }

    /// The radix-4 butterfly level: combines four length-`q` quarter
    /// transforms sitting contiguously in `dst` into one length-`4q`
    /// transform.
    fn combine4(&self, dst_re: &mut [f64], dst_im: &mut [f64], q: usize, dir: Direction) {
        // Twiddle index step for this level: W_n^k = w[k · (N/n)].
        let step = self.n / (4 * q);
        let (d01_re, d23_re) = dst_re.split_at_mut(2 * q);
        let (d0_re, d1_re) = d01_re.split_at_mut(q);
        let (d2_re, d3_re) = d23_re.split_at_mut(q);
        let (d01_im, d23_im) = dst_im.split_at_mut(2 * q);
        let (d0_im, d1_im) = d01_im.split_at_mut(q);
        let (d2_im, d3_im) = d23_im.split_at_mut(q);
        let inverse = dir == Direction::Inverse;
        for k in 0..q {
            let j = k * step;
            let (w1r, mut w1i) = (self.tw_re[j], self.tw_im[j]);
            let (w2r, mut w2i) = (self.tw_re[2 * j], self.tw_im[2 * j]);
            let (w3r, mut w3i) = (self.tw_re[3 * j], self.tw_im[3 * j]);
            if inverse {
                w1i = -w1i;
                w2i = -w2i;
                w3i = -w3i;
            }
            let (ar, ai) = (d0_re[k], d0_im[k]);
            let (br, bi) = (
                d1_re[k] * w1r - d1_im[k] * w1i,
                d1_re[k] * w1i + d1_im[k] * w1r,
            );
            let (cr, ci) = (
                d2_re[k] * w2r - d2_im[k] * w2i,
                d2_re[k] * w2i + d2_im[k] * w2r,
            );
            let (dr, di) = (
                d3_re[k] * w3r - d3_im[k] * w3i,
                d3_re[k] * w3i + d3_im[k] * w3r,
            );
            let (t0r, t0i) = (ar + cr, ai + ci);
            let (t1r, t1i) = (ar - cr, ai - ci);
            let (t2r, t2i) = (br + dr, bi + di);
            let (t3r, t3i) = (br - dr, bi - di);
            d0_re[k] = t0r + t2r;
            d0_im[k] = t0i + t2i;
            d2_re[k] = t0r - t2r;
            d2_im[k] = t0i - t2i;
            // Forward: X[k+q] = t1 − i·t3, X[k+3q] = t1 + i·t3 (swapped
            // for the inverse). ±i·(x+iy) = ∓y ± ix.
            if inverse {
                d1_re[k] = t1r - t3i;
                d1_im[k] = t1i + t3r;
                d3_re[k] = t1r + t3i;
                d3_im[k] = t1i - t3r;
            } else {
                d1_re[k] = t1r + t3i;
                d1_im[k] = t1i - t3r;
                d3_re[k] = t1r - t3i;
                d3_im[k] = t1i + t3r;
            }
        }
    }

    /// The radix-3 butterfly level: combines three length-`m` transforms
    /// sitting contiguously in `dst` into one length-`3m` transform.
    fn combine3(&self, dst_re: &mut [f64], dst_im: &mut [f64], m: usize, dir: Direction) {
        let step = self.n / (3 * m);
        let (d0_re, d12_re) = dst_re.split_at_mut(m);
        let (d1_re, d2_re) = d12_re.split_at_mut(m);
        let (d0_im, d12_im) = dst_im.split_at_mut(m);
        let (d1_im, d2_im) = d12_im.split_at_mut(m);
        let inverse = dir == Direction::Inverse;
        let sin = if inverse { -SIN_2PI_3 } else { SIN_2PI_3 };
        for k in 0..m {
            let j = k * step;
            let (w1r, mut w1i) = (self.tw_re[j], self.tw_im[j]);
            let (w2r, mut w2i) = (self.tw_re[2 * j], self.tw_im[2 * j]);
            if inverse {
                w1i = -w1i;
                w2i = -w2i;
            }
            let (ar, ai) = (d0_re[k], d0_im[k]);
            let (br, bi) = (
                d1_re[k] * w1r - d1_im[k] * w1i,
                d1_re[k] * w1i + d1_im[k] * w1r,
            );
            let (cr, ci) = (
                d2_re[k] * w2r - d2_im[k] * w2i,
                d2_re[k] * w2i + d2_im[k] * w2r,
            );
            let (sr, si) = (br + cr, bi + ci);
            let (mr, mi) = (ar - 0.5 * sr, ai - 0.5 * si);
            let (pr, pi) = (sin * (br - cr), sin * (bi - ci));
            // Forward: X[k+m] = mid − i·p, X[k+2m] = mid + i·p (the sign of
            // `sin` swaps them for the inverse).
            d0_re[k] = ar + sr;
            d0_im[k] = ai + si;
            d1_re[k] = mr + pi;
            d1_im[k] = mi - pr;
            d2_re[k] = mr - pi;
            d2_im[k] = mi + pr;
        }
    }

    /// The generic radix-`p` butterfly level for an odd prime `p`: combines
    /// `p` length-`m` transforms sitting contiguously in `dst` into one
    /// length-`p·m` transform.
    ///
    /// Terms `j` and `p − j` share a cosine and have opposite sines, so
    /// each pair enters as a sum `a_j` (weighted by cosines) and a
    /// difference `b_j` (by sines): `X[s] = t_0 + Σ a_j·cos θ_js ∓ i Σ
    /// b_j·sin θ_js`. `odd` holds the `a`/`b` pairs, `2·(p − 1)` words.
    fn combine_odd(
        &self,
        dst_re: &mut [f64],
        dst_im: &mut [f64],
        p: usize,
        m: usize,
        odd: &mut [f64],
        dir: Direction,
    ) {
        let step = self.n / (p * m);
        // W_p^e = w[e · (N/p)].
        let root = self.n / p;
        let h = p / 2;
        let (a_re, rest) = odd.split_at_mut(h);
        let (a_im, rest) = rest.split_at_mut(h);
        let (b_re, rest) = rest.split_at_mut(h);
        let b_im = &mut rest[..h];
        let inverse = dir == Direction::Inverse;
        let twiddled = |re: f64, im: f64, j: usize| {
            let (wr, mut wi) = (self.tw_re[j], self.tw_im[j]);
            if inverse {
                wi = -wi;
            }
            (re * wr - im * wi, re * wi + im * wr)
        };
        for k in 0..m {
            let (t0r, t0i) = (dst_re[k], dst_im[k]);
            let (mut x0r, mut x0i) = (t0r, t0i);
            for j in 1..=h {
                let (lo, hi) = (j * m + k, (p - j) * m + k);
                let (ur, ui) = twiddled(dst_re[lo], dst_im[lo], j * k * step);
                let (vr, vi) = twiddled(dst_re[hi], dst_im[hi], (p - j) * k * step);
                a_re[j - 1] = ur + vr;
                a_im[j - 1] = ui + vi;
                b_re[j - 1] = ur - vr;
                b_im[j - 1] = ui - vi;
                x0r += ur + vr;
                x0i += ui + vi;
            }
            dst_re[k] = x0r;
            dst_im[k] = x0i;
            for s in 1..=h {
                let (mut cr, mut ci) = (t0r, t0i);
                let (mut sr, mut si) = (0.0, 0.0);
                // e = j·s mod p, stepped without a division.
                let mut e = 0;
                for j in 0..h {
                    e += s;
                    if e >= p {
                        e -= p;
                    }
                    let (cos, sin) = (self.tw_re[e * root], -self.tw_im[e * root]);
                    cr += a_re[j] * cos;
                    ci += a_im[j] * cos;
                    sr += b_re[j] * sin;
                    si += b_im[j] * sin;
                }
                if inverse {
                    sr = -sr;
                    si = -si;
                }
                // Forward: X[s] = c − i·σ, X[p−s] = c + i·σ.
                let (lo, hi) = (s * m + k, (p - s) * m + k);
                dst_re[lo] = cr + si;
                dst_im[lo] = ci - sr;
                dst_re[hi] = cr - si;
                dst_im[hi] = ci + sr;
            }
        }
    }
}

/// What every recursion level of one [`MixedRadix`] transform shares.
struct Pass<'a> {
    src_re: &'a [f64],
    src_im: &'a [f64],
    /// Working space of the generic odd-prime butterfly.
    odd: &'a mut [f64],
    dir: Direction,
}

impl Pass<'_> {
    /// The recursion's leaves: a one- or two-point transform read straight
    /// from the source.
    #[inline(always)]
    fn leaf(&self, base: usize, stride: usize, dst_re: &mut [f64], dst_im: &mut [f64]) {
        let (ar, ai) = (self.src_re[base], self.src_im[base]);
        if dst_re.len() == 1 {
            dst_re[0] = ar;
            dst_im[0] = ai;
        } else {
            let (br, bi) = (self.src_re[base + stride], self.src_im[base + stride]);
            dst_re[0] = ar + br;
            dst_im[0] = ai + bi;
            dst_re[1] = ar - br;
            dst_im[1] = ai - bi;
        }
    }
}

/// Reusable scratch memory for the `*_in` transforms.
///
/// One scratch may serve plans of any length (its buffers grow to the
/// largest length they have seen and are reused thereafter). It is
/// intentionally opaque: the contents carry no state between calls.
#[derive(Debug, Clone, Default)]
pub struct FftScratch {
    /// Source copies for the out-of-place split recursion.
    src_re: Vec<f64>,
    src_im: Vec<f64>,
    /// Split output (`re` then `im`) of the complex API's wrapper around
    /// the split engine, for non-power-of-two lengths.
    out: Vec<f64>,
    /// Pair sums and differences of the generic odd-prime butterfly.
    odd: Vec<f64>,
}

impl FftScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        FftScratch::default()
    }

    /// Current scratch capacity in `f64` words over all buffers (diagnostic;
    /// lets tests assert that repeated transforms stop allocating after
    /// warm-up).
    pub fn capacity(&self) -> usize {
        self.src_re.capacity() + self.src_im.capacity() + self.out.capacity() + self.odd.capacity()
    }
}

/// A size-keyed cache of FFT plans.
///
/// Twiddle factors and factorizations are computed once per distinct
/// transform length and shared via [`Arc`], so symbol loops,
/// reconfigurations between standards, and parallel scenario workers all
/// reuse the same plan instead of re-planning.
///
/// Most callers want the process-wide cache behind [`plan`]; a local
/// `PlanCache` is useful when plan lifetime must be bounded (e.g. tests).
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<usize, Arc<Fft>>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Locks the plan map, recovering from poisoning.
    ///
    /// A thread panicking mid-access must not take the process-wide FFT
    /// cache down with it: the map only ever holds complete `Arc<Fft>`
    /// entries (insertion is a single `entry().or_insert_with()`), so a
    /// poisoned guard's data is still valid and the lock is safe to
    /// recover.
    fn lock_plans(&self) -> MutexGuard<'_, HashMap<usize, Arc<Fft>>> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan for length `n`, building it on first request.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn plan(&self, n: usize) -> Arc<Fft> {
        let mut plans = self.lock_plans();
        Arc::clone(plans.entry(n).or_insert_with(|| Arc::new(Fft::new(n))))
    }

    /// Number of distinct lengths currently cached.
    pub fn len(&self) -> usize {
        self.lock_plans().len()
    }

    /// Returns `true` if no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached plans (outstanding `Arc`s keep their plans alive).
    pub fn clear(&self) {
        self.lock_plans().clear();
    }
}

/// The process-wide FFT plan for length `n`, from a global [`PlanCache`].
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn plan(n: usize) -> Arc<Fft> {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(PlanCache::new).plan(n)
}

/// Computes the DFT by direct summation — O(N²), used as a test oracle.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|t| input[t] * Complex64::cis(-2.0 * PI * (k * t) as f64 / n as f64))
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn impulse_response_is_flat(n: usize) {
        let fft = Fft::new(n);
        let mut v = vec![Complex64::ZERO; n];
        v[0] = Complex64::ONE;
        fft.forward(&mut v);
        for z in &v {
            assert!((z.re - 1.0).abs() < 1e-9 && z.im.abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn impulse_pow2() {
        for n in [1, 2, 4, 8, 64, 256, 2048] {
            impulse_response_is_flat(n);
        }
    }

    #[test]
    fn impulse_arbitrary() {
        for n in [3, 5, 7, 12, 112, 176, 288, 1536] {
            impulse_response_is_flat(n);
        }
    }

    #[test]
    fn matches_naive_dft_pow2() {
        let n = 32;
        let fft = Fft::new(n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()))
            .collect();
        let expect = dft_naive(&input);
        let got = fft.forward_to_vec(&input);
        assert!(max_err(&got, &expect) < 1e-9);
    }

    /// Every FFT size the standards registry uses (DRM's 112, 176 and 288
    /// among them), composites that exercise each butterfly together
    /// (2310 = 2·3·5·7·11), and primes that run the generic butterfly
    /// alone.
    const CHECK_SIZES: [usize; 24] = [
        64, 112, 176, 256, 288, 512, 1024, 2048, 8192, 6, 9, 15, 36, 63, 96, 100, 1536, 2310, 11,
        13, 17, 1009, 1, 2,
    ];

    /// `dft_naive` evaluates `e^{-i 2π k t / N}` at arguments up to `2π·N`,
    /// so its own rounding grows as `N²` (3.4e-9 at 8192 points on these
    /// unit inputs, where the FFTs sit near 1e-16 relative); the
    /// cross-check tolerance follows it with a 2x margin.
    fn naive_tolerance(n: usize) -> f64 {
        2e-16 * (n * n) as f64 + 1e-12
    }

    #[test]
    fn matches_naive_dft_every_radix() {
        // Forward against the naive DFT; inverse by mapping the naive
        // spectrum back onto the input.
        for n in CHECK_SIZES {
            let fft = Fft::new(n);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.11).cos(), (i as f64 * 1.3).sin()))
                .collect();
            let expect = dft_naive(&input);
            let got = fft.forward_to_vec(&input);
            assert!(max_err(&got, &expect) < naive_tolerance(n), "forward n={n}");
            let back = fft.inverse_to_vec(&expect);
            assert!(max_err(&back, &input) < naive_tolerance(n), "inverse n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in CHECK_SIZES {
            let fft = Fft::new(n);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 2.0).cos()))
                .collect();
            let mut v = input.clone();
            fft.forward(&mut v);
            fft.inverse(&mut v);
            assert!(max_err(&v, &input) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let fft = Fft::new(n);
        for bin in [1usize, 7, 31, 63] {
            let mut v: Vec<Complex64> = (0..n)
                .map(|t| Complex64::cis(2.0 * PI * (bin * t) as f64 / n as f64))
                .collect();
            fft.forward(&mut v);
            for (k, z) in v.iter().enumerate() {
                let expect = if k == bin { n as f64 } else { 0.0 };
                assert!((z.abs() - expect).abs() < 1e-8, "bin={bin} k={k}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 128;
        let fft = Fft::new(n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.2).sin(), (i as f64 * 0.9).cos()))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let freq = fft.forward_to_vec(&input);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    fn linearity() {
        let n = 48; // mixed radix 4·4·3
        let fft = Fft::new(n);
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(0.0, -(i as f64))).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft.forward_to_vec(&a);
        let fb = fft.forward_to_vec(&b);
        let fsum = fft.forward_to_vec(&sum);
        let combined: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fsum, &combined) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_length_panics() {
        let fft = Fft::new(8);
        let mut v = vec![Complex64::ZERO; 4];
        fft.forward(&mut v);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_length_panics() {
        let _ = Fft::new(0);
    }

    #[test]
    fn plan_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fft>();
        assert_send_sync::<PlanCache>();
    }

    #[test]
    fn scratch_path_is_bit_identical() {
        // One scratch reused across both engines and both directions must
        // reproduce the allocating path exactly (not just approximately).
        let mut scratch = FftScratch::new();
        for n in [8usize, 64, 36, 112, 176, 288, 2310] {
            let fft = Fft::new(n);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
                .collect();
            let mut alloc = input.clone();
            let mut reuse = input.clone();
            fft.forward(&mut alloc);
            fft.forward_in(&mut reuse, &mut scratch);
            assert_eq!(alloc, reuse, "forward n={n}");
            fft.inverse(&mut alloc);
            fft.inverse_in(&mut reuse, &mut scratch);
            assert_eq!(alloc, reuse, "inverse n={n}");
        }
    }

    fn split_input(n: usize) -> (Vec<f64>, Vec<f64>) {
        let re = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let im = (0..n).map(|i| (i as f64 * 0.71).cos()).collect();
        (re, im)
    }

    fn joined(re: &[f64], im: &[f64]) -> Vec<Complex64> {
        re.iter()
            .zip(im)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect()
    }

    #[test]
    fn split_forward_matches_naive_dft() {
        // Covers even and odd log2 (radix-4 bottoms out in the length-2
        // base case for odd powers) and every odd radix; the inverse maps
        // the naive spectrum back onto the input.
        let mut scratch = FftScratch::new();
        let pow2 = [4usize, 8, 16, 32, 128];
        for n in pow2.into_iter().chain(CHECK_SIZES) {
            let fft = Fft::new(n);
            let (mut re, mut im) = split_input(n);
            let input = joined(&re, &im);
            let expect = dft_naive(&input);
            fft.forward_split_in(&mut re, &mut im, &mut scratch);
            assert!(
                max_err(&joined(&re, &im), &expect) < naive_tolerance(n),
                "forward n={n}"
            );
            let mut re: Vec<f64> = expect.iter().map(|z| z.re).collect();
            let mut im: Vec<f64> = expect.iter().map(|z| z.im).collect();
            fft.inverse_split_in(&mut re, &mut im, &mut scratch);
            assert!(
                max_err(&joined(&re, &im), &input) < naive_tolerance(n),
                "inverse n={n}"
            );
        }
    }

    #[test]
    fn split_non_pow2_is_bit_identical_to_complex_path() {
        // At non-power-of-two lengths (DRM's 288 among them) the complex
        // API wraps the split engine: exactly the same arithmetic, bit for
        // bit.
        let mut scratch = FftScratch::new();
        for n in [36usize, 112, 176, 288, 2310, 1009] {
            let fft = Fft::new(n);
            let (mut re, mut im) = split_input(n);
            let mut complex = joined(&re, &im);
            fft.forward_in(&mut complex, &mut scratch);
            fft.forward_split_in(&mut re, &mut im, &mut scratch);
            assert_eq!(joined(&re, &im), complex, "forward n={n}");
            fft.inverse_in(&mut complex, &mut scratch);
            fft.inverse_split_in(&mut re, &mut im, &mut scratch);
            assert_eq!(joined(&re, &im), complex, "inverse n={n}");
        }
    }

    #[test]
    fn split_pow2_stays_within_golden_tolerance_of_radix2() {
        // The radix-4 split engine reassociates relative to the radix-2
        // complex engine; drift must stay far under the 1e-12 golden-vector
        // tolerance for the paper standards' sizes (64, 512) and beyond.
        let mut scratch = FftScratch::new();
        for n in [64usize, 512, 2048] {
            let fft = Fft::new(n);
            let (mut re, mut im) = split_input(n);
            let mut complex = joined(&re, &im);
            fft.inverse_in(&mut complex, &mut scratch);
            fft.inverse_split_in(&mut re, &mut im, &mut scratch);
            assert!(max_err(&joined(&re, &im), &complex) < 1e-13, "n={n}");
        }
    }

    #[test]
    fn split_roundtrip_identity() {
        let mut scratch = FftScratch::new();
        for n in CHECK_SIZES {
            let fft = Fft::new(n);
            let (orig_re, orig_im) = split_input(n);
            let (mut re, mut im) = (orig_re.clone(), orig_im.clone());
            fft.forward_split_in(&mut re, &mut im, &mut scratch);
            fft.inverse_split_in(&mut re, &mut im, &mut scratch);
            assert!(
                max_err(&joined(&re, &im), &joined(&orig_re, &orig_im)) < 1e-9,
                "n={n}"
            );
        }
    }

    /// FNV-1a over the `f64::to_bits` words of `n`, then `re`, then `im`
    /// (the scheme of the root crate's `tests/block_golden.rs`).
    fn fnv_split(re: &[f64], im: &[f64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words =
            std::iter::once(re.len() as u64).chain(re.iter().chain(im).map(|x| x.to_bits()));
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn split_pow2_outputs_are_pinned() {
        // The exact bits of the power-of-two split engine, recorded before
        // the mixed-radix generalisation: every power-of-two caller (the
        // pow2 standards' transmit path, their goldens) sees the same ops in
        // the same order. (n, forward hash, inverse hash) on `split_input`.
        const PINS: [(usize, u64, u64); 13] = [
            (2, 0x962b_e88d_63ec_5b48, 0xe977_36d0_155e_cb48),
            (4, 0xb357_935a_12e7_102e, 0xcc09_cc7f_76c3_cffe),
            (8, 0xb84f_a940_10d5_6938, 0x5d2b_fd8c_45dc_e67b),
            (16, 0x83d4_5482_3555_2e49, 0xc6f8_a158_be8d_d8a9),
            (32, 0x77df_ef53_1ee5_2f31, 0xc591_e1c8_81ef_e4a8),
            (64, 0x5716_4ff6_aa73_1ae7, 0xfaec_c06e_419d_7ff7),
            (128, 0x60cc_d5c4_ea80_294d, 0xab6a_53c4_246c_4ca8),
            (256, 0xdafd_a83a_d243_7c66, 0x6e62_02a8_d8af_0aa4),
            (512, 0xc71e_fcde_a940_15b7, 0xcee4_e7f6_152c_60d0),
            (1024, 0x04fd_b022_584d_9e3a, 0x4613_528a_5663_42bc),
            (2048, 0x79c4_8883_c44d_01aa, 0xcac9_36a9_8b5a_56b1),
            (4096, 0x933b_edc6_6c6c_76f9, 0x8cbd_dba2_98ac_2888),
            (8192, 0x4de5_7d55_ba40_30bd, 0x0c0e_bd02_142b_c0e2),
        ];
        let mut scratch = FftScratch::new();
        let mut got = Vec::new();
        for log2 in 1..=13 {
            let n = 1usize << log2;
            let fft = Fft::new(n);
            let (mut fre, mut fim) = split_input(n);
            fft.forward_split_in(&mut fre, &mut fim, &mut scratch);
            let (mut ire, mut iim) = split_input(n);
            fft.inverse_split_in(&mut ire, &mut iim, &mut scratch);
            got.push((n, fnv_split(&fre, &fim), fnv_split(&ire, &iim)));
        }
        assert_eq!(got, PINS);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn split_wrong_length_panics() {
        let fft = Fft::new(8);
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 4];
        fft.forward_split_in(&mut re, &mut im, &mut FftScratch::new());
    }

    #[test]
    fn scratch_stops_allocating_after_warmup() {
        // One scratch serving several plans through both APIs grows on the
        // first pass (to the largest length and the widest odd radix) and
        // never again.
        let mut scratch = FftScratch::new();
        let plans: Vec<Fft> = [288, 2310, 176, 64].into_iter().map(Fft::new).collect();
        let pass = |scratch: &mut FftScratch| {
            for fft in &plans {
                let n = fft.len();
                let mut v = vec![Complex64::ONE; n];
                fft.forward_in(&mut v, scratch);
                fft.inverse_in(&mut v, scratch);
                let (mut re, mut im) = split_input(n);
                fft.forward_split_in(&mut re, &mut im, scratch);
                fft.inverse_split_in(&mut re, &mut im, scratch);
            }
        };
        pass(&mut scratch);
        let warm = scratch.capacity();
        assert!(warm >= 4 * 2310, "split sources and wrapper output");
        for _ in 0..4 {
            pass(&mut scratch);
        }
        assert_eq!(scratch.capacity(), warm);
    }

    #[test]
    fn cache_shares_plans_per_size() {
        let cache = PlanCache::new();
        let a = cache.plan(64);
        let b = cache.plan(64);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.plan(96);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        // Plans held by callers survive a cache clear.
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn cache_survives_a_poisoned_lock() {
        let cache = PlanCache::new();
        let first = cache.plan(16);
        // Poison the mutex: panic on another thread while holding the
        // guard. The cache must keep serving plans afterwards instead of
        // cascading the panic into every later FFT in the process.
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = cache.plans.lock().unwrap();
                panic!("poison the plan cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.plans.is_poisoned());
        let again = cache.plan(16);
        assert!(Arc::ptr_eq(&first, &again));
        let other = cache.plan(48);
        assert_eq!(other.len(), 48);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn global_plan_is_shared() {
        let a = plan(40);
        let b = plan(40);
        assert!(Arc::ptr_eq(&a, &b));
        let mut v = vec![Complex64::ZERO; 40];
        v[0] = Complex64::ONE;
        a.forward(&mut v);
        for z in &v {
            assert!((z.re - 1.0).abs() < 1e-9 && z.im.abs() < 1e-9);
        }
    }
}
