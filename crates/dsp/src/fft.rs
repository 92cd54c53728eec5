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
//! The transforms run in place over split `re`/`im` slices
//! ([`Fft::forward_split_in`], [`Fft::inverse_split_in`]), the sample
//! layout of every caller; [`dft_naive`] is the direct-summation oracle.
//!
//! Plans are immutable after construction and `Send + Sync`, so one plan can
//! serve many worker threads.
//!
//! # Example
//!
//! ```
//! use ofdm_dsp::fft::{Fft, FftScratch};
//!
//! // DRM mode A's 288-point symbol: radix 4·4·3·3·2.
//! let fft = Fft::new(288);
//! let phase = |n: usize| 2.0 * std::f64::consts::PI * 7.0 * n as f64 / 288.0;
//! let mut re: Vec<f64> = (0..288).map(|n| phase(n).cos()).collect();
//! let mut im: Vec<f64> = (0..288).map(|n| phase(n).sin()).collect();
//! fft.forward_split_in(&mut re, &mut im, &mut FftScratch::new());
//! // All energy lands in bin 7.
//! assert!((re[7].hypot(im[7]) - 288.0).abs() < 1e-6);
//! ```

use crate::complex::Complex64;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// An FFT plan for a fixed transform length.
///
/// Construction factors the length and precomputes the twiddle factors of
/// the one mixed-radix engine. [`Fft::forward_split_in`] computes the
/// unnormalized DFT `X[k] = Σ_n x[n] e^{-i 2π k n / N}`;
/// [`Fft::inverse_split_in`] includes the `1/N` factor so that the inverse
/// of the forward transform is the input.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    mixed: MixedRadix,
    /// [`Fft::real_twiddles`], built on first use.
    real_tw: OnceLock<Vec<f64>>,
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
            mixed: MixedRadix::new(n),
            real_tw: OnceLock::new(),
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

    /// The pre-twiddles that synthesise a real signal of twice this plan's
    /// length `n` with one `n`-point inverse: `e^{+iπk/n}` for
    /// `k in 0..=n/2`, as `(re, im)`.
    ///
    /// Built on the first call and kept with the plan, so through the
    /// process-wide [`plan`] cache a size builds them once per process, and
    /// plans that never synthesise a real signal never build them.
    pub fn real_twiddles(&self) -> (&[f64], &[f64]) {
        let h = self.n / 2 + 1;
        self.real_tw
            .get_or_init(|| {
                let w: Vec<Complex64> = (0..h)
                    .map(|k| Complex64::cis(PI * k as f64 / self.n as f64))
                    .collect();
                w.iter()
                    .map(|w| w.re)
                    .chain(w.iter().map(|w| w.im))
                    .collect()
            })
            .split_at(h)
    }

    /// In-place forward DFT over split `re`/`im` component slices.
    ///
    /// Runs the mixed-radix decimation-in-time engine directly on the flat
    /// `f64` arrays, for every length. The working copies come from
    /// `scratch`, so a long-lived scratch makes repeated transforms
    /// allocation-free after warm-up.
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
        } = scratch;
        src_re.clear();
        src_re.extend_from_slice(re);
        src_im.clear();
        src_im.extend_from_slice(im);
        self.mixed.transform(src_re, src_im, re, im, odd, dir);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

/// `sin(2π/3)`, the radix-3 butterfly's rotation.
const SIN_2PI_3: f64 = 0.866_025_403_784_438_6;

/// Recursive mixed-radix decimation-in-time engine over split `re`/`im`
/// arrays — the structure-of-arrays FFT path for every length.
///
/// Each recursion level splits its length `n = r·m` into `r` interleaved
/// length-`m` subsequences, transforms them into contiguous slices of the
/// output, and combines them with one radix-`r` butterfly level: a flat
/// loop over the `r` slices that walks the level's own twiddle table in
/// order, with no strided gathers or complex-struct shuffling to block the
/// autovectorizer.
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
///
/// Every twiddle is `W_N^j = e^{-i 2π j / N}`, evaluated at the index `j`
/// a single root table would be read at (`W_n^k = W_N^{k·N/n}`), so the
/// per-level tables fix where a value is read from, never its bits. A
/// power of two's tables hold `Σ 6q < 2N` words, less than the `2N` of
/// one root table. A radix-4 level over one-point leaves (the bottom of
/// `4^k`) reads its four inputs straight from the source.
#[derive(Debug, Clone)]
struct MixedRadix {
    /// The recursion levels, outermost first.
    levels: Vec<Level>,
}

/// One recursion level of a [`MixedRadix`] plan.
#[derive(Debug, Clone)]
struct Level {
    radix: usize,
    /// `W_n^{j·k}` (`n` the level's length, `m = n / radix`) for `j in
    /// 1..radix`, `k in 0..m`: per `j`, `m` real parts then `m` imaginary
    /// parts. The radix-2 leaf never reads its one entry.
    tw: Vec<f64>,
    /// Generic odd-prime levels only: `W_p^e` for `e in 0..p`, the `p` real
    /// parts then the `p` imaginary parts.
    rot: Vec<f64>,
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
        let root = |j: usize| Complex64::cis(-2.0 * PI * j as f64 / n as f64);
        let mut len = n;
        let levels = radices
            .into_iter()
            .map(|r| {
                let m = len / r;
                let step = n / len;
                len = m;
                let mut tw = vec![0.0; 2 * (r - 1) * m];
                for (j, row) in (1..r).zip(tw.chunks_exact_mut(2 * m)) {
                    let (re, im) = row.split_at_mut(m);
                    for k in 0..m {
                        let w = root(j * k * step);
                        re[k] = w.re;
                        im[k] = w.im;
                    }
                }
                let mut rot = Vec::new();
                if r > 4 {
                    let w: Vec<Complex64> = (0..r).map(|e| root(e * (n / r))).collect();
                    rot.extend(w.iter().map(|w| w.re));
                    rot.extend(w.iter().map(|w| w.im));
                }
                Level { radix: r, tw, rot }
            })
            .collect();
        MixedRadix { levels }
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
        let widest = self.levels.iter().map(|l| l.radix).max().unwrap_or(1);
        odd.resize(2 * (widest - 1), 0.0);
        let mut pass = Pass {
            src_re,
            src_im,
            odd,
        };
        match dir {
            Direction::Forward => self.rec::<false>(&mut pass, 0, 0, 1, dst_re, dst_im),
            Direction::Inverse => self.rec::<true>(&mut pass, 0, 0, 1, dst_re, dst_im),
        }
    }

    /// Transforms the `dst.len()`-point subsequence of the source starting
    /// at `base` with the given `stride` into `dst`, from recursion `level`
    /// on. `INV` selects the inverse (conjugated twiddles).
    fn rec<const INV: bool>(
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
        let Level { radix: r, tw, rot } = &self.levels[level];
        let (r, m) = (*r, n / r);
        if r == 4 && m == 1 {
            pass.bottom4::<INV>(tw, base, stride, dst_re, dst_im);
            return;
        }
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
                self.rec::<INV>(pass, level + 1, start, sub, d_re, d_im);
            }
        }
        match r {
            4 => combine4::<INV>(tw, dst_re, dst_im, m),
            3 => combine3::<INV>(tw, dst_re, dst_im, m),
            _ => combine_odd::<INV>(tw, rot, dst_re, dst_im, r, m, pass.odd),
        }
    }
}

/// `x·w`, with `w` conjugated for the inverse transform.
#[inline(always)]
fn twiddle<const INV: bool>((re, im): (f64, f64), (wr, wi): (f64, f64)) -> (f64, f64) {
    let wi = if INV { -wi } else { wi };
    (re * wr - im * wi, re * wi + im * wr)
}

/// One radix-4 butterfly: `x[0]` and the twiddled `x[1]·w[0]`, `x[2]·w[1]`,
/// `x[3]·w[2]` in, the four outputs (`k`, `k+q`, `k+2q`, `k+3q`) out.
#[inline(always)]
fn butterfly4<const INV: bool>(x: [(f64, f64); 4], w: [(f64, f64); 3]) -> [(f64, f64); 4] {
    let (ar, ai) = x[0];
    let (br, bi) = twiddle::<INV>(x[1], w[0]);
    let (cr, ci) = twiddle::<INV>(x[2], w[1]);
    let (dr, di) = twiddle::<INV>(x[3], w[2]);
    let (t0r, t0i) = (ar + cr, ai + ci);
    let (t1r, t1i) = (ar - cr, ai - ci);
    let (t2r, t2i) = (br + dr, bi + di);
    let (t3r, t3i) = (br - dr, bi - di);
    // Forward: X[k+q] = t1 − i·t3, X[k+3q] = t1 + i·t3 (swapped for the
    // inverse). ±i·(x+iy) = ∓y ± ix.
    let (minus, plus) = ((t1r + t3i, t1i - t3r), (t1r - t3i, t1i + t3r));
    let (y1, y3) = if INV { (plus, minus) } else { (minus, plus) };
    [(t0r + t2r, t0i + t2i), y1, (t0r - t2r, t0i - t2i), y3]
}

/// The radix-4 butterfly level: combines four length-`q` quarter
/// transforms sitting contiguously in `dst` into one length-`4q`
/// transform, walking the level's `w¹, w², w³` rows in step with `k`.
fn combine4<const INV: bool>(tw: &[f64], dst_re: &mut [f64], dst_im: &mut [f64], q: usize) {
    let (d01_re, d23_re) = dst_re.split_at_mut(2 * q);
    let (d0_re, d1_re) = d01_re.split_at_mut(q);
    let (d2_re, d3_re) = d23_re.split_at_mut(q);
    let (d01_im, d23_im) = dst_im.split_at_mut(2 * q);
    let (d0_im, d1_im) = d01_im.split_at_mut(q);
    let (d2_im, d3_im) = d23_im.split_at_mut(q);
    let (d3_re, d3_im) = (&mut d3_re[..q], &mut d3_im[..q]);
    let (w1r, rest) = tw.split_at(q);
    let (w1i, rest) = rest.split_at(q);
    let (w2r, rest) = rest.split_at(q);
    let (w2i, rest) = rest.split_at(q);
    let (w3r, rest) = rest.split_at(q);
    let w3i = &rest[..q];
    for k in 0..q {
        let [y0, y1, y2, y3] = butterfly4::<INV>(
            [
                (d0_re[k], d0_im[k]),
                (d1_re[k], d1_im[k]),
                (d2_re[k], d2_im[k]),
                (d3_re[k], d3_im[k]),
            ],
            [(w1r[k], w1i[k]), (w2r[k], w2i[k]), (w3r[k], w3i[k])],
        );
        (d0_re[k], d0_im[k]) = y0;
        (d1_re[k], d1_im[k]) = y1;
        (d2_re[k], d2_im[k]) = y2;
        (d3_re[k], d3_im[k]) = y3;
    }
}

/// The radix-3 butterfly level: combines three length-`m` transforms
/// sitting contiguously in `dst` into one length-`3m` transform.
fn combine3<const INV: bool>(tw: &[f64], dst_re: &mut [f64], dst_im: &mut [f64], m: usize) {
    let (d0_re, d12_re) = dst_re.split_at_mut(m);
    let (d1_re, d2_re) = d12_re.split_at_mut(m);
    let (d0_im, d12_im) = dst_im.split_at_mut(m);
    let (d1_im, d2_im) = d12_im.split_at_mut(m);
    let (d2_re, d2_im) = (&mut d2_re[..m], &mut d2_im[..m]);
    let (w1r, rest) = tw.split_at(m);
    let (w1i, rest) = rest.split_at(m);
    let (w2r, rest) = rest.split_at(m);
    let w2i = &rest[..m];
    let sin = if INV { -SIN_2PI_3 } else { SIN_2PI_3 };
    for k in 0..m {
        let (ar, ai) = (d0_re[k], d0_im[k]);
        let (br, bi) = twiddle::<INV>((d1_re[k], d1_im[k]), (w1r[k], w1i[k]));
        let (cr, ci) = twiddle::<INV>((d2_re[k], d2_im[k]), (w2r[k], w2i[k]));
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
/// b_j·sin θ_js`. `rot` holds the level's `W_p^e`; `odd` holds the
/// `a`/`b` pairs, `2·(p − 1)` words.
fn combine_odd<const INV: bool>(
    tw: &[f64],
    rot: &[f64],
    dst_re: &mut [f64],
    dst_im: &mut [f64],
    p: usize,
    m: usize,
    odd: &mut [f64],
) {
    let h = p / 2;
    let (a_re, rest) = odd.split_at_mut(h);
    let (a_im, rest) = rest.split_at_mut(h);
    let (b_re, rest) = rest.split_at_mut(h);
    let b_im = &mut rest[..h];
    // Row `j` of the table: W_n^{j·k} for k in 0..m.
    let w = |j: usize, k: usize| (tw[2 * (j - 1) * m + k], tw[(2 * j - 1) * m + k]);
    for k in 0..m {
        let (t0r, t0i) = (dst_re[k], dst_im[k]);
        let (mut x0r, mut x0i) = (t0r, t0i);
        for j in 1..=h {
            let (lo, hi) = (j * m + k, (p - j) * m + k);
            let (ur, ui) = twiddle::<INV>((dst_re[lo], dst_im[lo]), w(j, k));
            let (vr, vi) = twiddle::<INV>((dst_re[hi], dst_im[hi]), w(p - j, k));
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
                let (cos, sin) = (rot[e], -rot[p + e]);
                cr += a_re[j] * cos;
                ci += a_im[j] * cos;
                sr += b_re[j] * sin;
                si += b_im[j] * sin;
            }
            if INV {
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

/// What every recursion level of one [`MixedRadix`] transform shares.
struct Pass<'a> {
    src_re: &'a [f64],
    src_im: &'a [f64],
    /// Working space of the generic odd-prime butterfly.
    odd: &'a mut [f64],
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

    /// A radix-4 level over four one-point leaves, fused: the butterfly
    /// reads its inputs straight from the source. `tw` is the level's
    /// `q = 1` table, `w¹, w², w³` at `k = 0`.
    #[inline(always)]
    fn bottom4<const INV: bool>(
        &self,
        tw: &[f64],
        base: usize,
        stride: usize,
        dst_re: &mut [f64],
        dst_im: &mut [f64],
    ) {
        let x = |j: usize| {
            (
                self.src_re[base + j * stride],
                self.src_im[base + j * stride],
            )
        };
        let y = butterfly4::<INV>(
            [x(0), x(1), x(2), x(3)],
            [(tw[0], tw[1]), (tw[2], tw[3]), (tw[4], tw[5])],
        );
        for (k, (re, im)) in y.into_iter().enumerate() {
            dst_re[k] = re;
            dst_im[k] = im;
        }
    }
}

/// Reusable scratch memory for the `*_split_in` transforms.
///
/// One scratch may serve plans of any length (its buffers grow to the
/// largest length they have seen and are reused thereafter). It is
/// intentionally opaque: the contents carry no state between calls.
#[derive(Debug, Clone, Default)]
pub struct FftScratch {
    /// Source copies for the out-of-place split recursion.
    src_re: Vec<f64>,
    src_im: Vec<f64>,
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
        self.src_re.capacity() + self.src_im.capacity() + self.odd.capacity()
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
pub(crate) mod tests {
    use super::*;

    /// The spectrum of `x` through the split engine, interleaved for the
    /// [`dft_naive`] comparisons.
    fn forward(fft: &Fft, x: &[Complex64]) -> Vec<Complex64> {
        let (mut re, mut im) = parts(x);
        fft.forward_split_in(&mut re, &mut im, &mut FftScratch::new());
        joined(&re, &im)
    }

    /// The inverse of `x` through the split engine (see [`forward`]).
    fn inverse(fft: &Fft, x: &[Complex64]) -> Vec<Complex64> {
        let (mut re, mut im) = parts(x);
        fft.inverse_split_in(&mut re, &mut im, &mut FftScratch::new());
        joined(&re, &im)
    }

    fn parts(x: &[Complex64]) -> (Vec<f64>, Vec<f64>) {
        (
            x.iter().map(|z| z.re).collect(),
            x.iter().map(|z| z.im).collect(),
        )
    }

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
        for z in &forward(&fft, &v) {
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
        let got = forward(&fft, &input);
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
    pub(crate) fn naive_tolerance(n: usize) -> f64 {
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
            let got = forward(&fft, &input);
            assert!(max_err(&got, &expect) < naive_tolerance(n), "forward n={n}");
            let back = inverse(&fft, &expect);
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
            let v = inverse(&fft, &forward(&fft, &input));
            assert!(max_err(&v, &input) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let fft = Fft::new(n);
        for bin in [1usize, 7, 31, 63] {
            let v: Vec<Complex64> = (0..n)
                .map(|t| Complex64::cis(2.0 * PI * (bin * t) as f64 / n as f64))
                .collect();
            for (k, z) in forward(&fft, &v).iter().enumerate() {
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
        let freq = forward(&fft, &input);
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
        let fa = forward(&fft, &a);
        let fb = forward(&fft, &b);
        let fsum = forward(&fft, &sum);
        let combined: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fsum, &combined) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "re length must match")]
    fn wrong_length_panics() {
        let fft = Fft::new(8);
        let mut re = vec![0.0; 4];
        let mut im = vec![0.0; 4];
        fft.forward_split_in(&mut re, &mut im, &mut FftScratch::new());
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
        // One scratch reused across lengths and both directions must
        // reproduce a fresh scratch exactly (not just approximately).
        let mut scratch = FftScratch::new();
        for n in [8usize, 64, 36, 112, 176, 288, 2310] {
            let fft = Fft::new(n);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
                .collect();
            let alloc = forward(&fft, &input);
            let (mut re, mut im) = parts(&input);
            fft.forward_split_in(&mut re, &mut im, &mut scratch);
            assert_eq!(alloc, joined(&re, &im), "forward n={n}");
            let alloc = inverse(&fft, &alloc);
            fft.inverse_split_in(&mut re, &mut im, &mut scratch);
            assert_eq!(alloc, joined(&re, &im), "inverse n={n}");
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
    fn split_non_pow2_outputs_are_pinned() {
        // The exact bits of the radix-3, odd-prime and radix-2-leaf levels,
        // recorded on the root-table engine before the per-level twiddle
        // tables: DRM's 288, 176 and 112, then lengths reaching each odd
        // radix alone, together, over a radix-4 level and over the radix-2
        // leaf. (n, forward hash, inverse hash) on `split_input`.
        const PINS: [(usize, u64, u64); 16] = [
            (288, 0x48ed_819e_fd19_4752, 0xb81a_68ee_823b_b141),
            (176, 0x11ef_b6d7_e3a2_1b81, 0xad81_eaaa_479f_1690),
            (112, 0xbd69_05bc_af98_676f, 0x1f13_6b1a_a6eb_667a),
            (3, 0xd852_71e4_b0cf_f62e, 0x3c1e_2a7a_366a_1f1f),
            (5, 0x112f_975b_7521_ef01, 0xb9a8_5d16_e77f_3cd3),
            (7, 0x36d3_3dad_9298_650d, 0xe4d1_b5e0_c6b9_ad02),
            (11, 0x860c_1cdf_4eed_ad17, 0x5cf8_8431_51aa_8f0f),
            (6, 0xdc1b_0856_f6f4_36e6, 0x7000_3b9e_588e_46c5),
            (9, 0x927d_3505_61e2_d4d6, 0xd475_5a2f_fe8d_f1ff),
            (15, 0x88d7_cad7_0ecd_b18c, 0x2e43_de32_0078_1771),
            (45, 0x82df_8bb6_1c55_9e00, 0x5ec2_ecd5_d73c_7a45),
            (96, 0x80fb_896e_e8ed_6914, 0xf8c9_82e3_52d0_d716),
            (2310, 0x609f_a651_2389_3ad4, 0xc0b3_c03e_2808_1b7b),
            (13, 0x0667_31e0_8cf9_ad69, 0x6acf_6e81_991f_ea15),
            (1009, 0x16b8_691a_3cd4_865a, 0xd47b_c4c9_7f1e_a5b1),
            (24, 0x8712_5db9_447f_1940, 0x4a4e_0229_06fd_8984),
        ];
        const SIZES: [usize; 16] = [
            288, 176, 112, 3, 5, 7, 11, 6, 9, 15, 45, 96, 2310, 13, 1009, 24,
        ];
        let mut scratch = FftScratch::new();
        let mut got = Vec::new();
        for n in SIZES {
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
        // One scratch serving several plans in both directions grows on
        // the first pass (to the largest length and the widest odd radix)
        // and never again.
        let mut scratch = FftScratch::new();
        let plans: Vec<Fft> = [288, 2310, 176, 64].into_iter().map(Fft::new).collect();
        let pass = |scratch: &mut FftScratch| {
            for fft in &plans {
                let (mut re, mut im) = split_input(fft.len());
                fft.forward_split_in(&mut re, &mut im, scratch);
                fft.inverse_split_in(&mut re, &mut im, scratch);
            }
        };
        pass(&mut scratch);
        let warm = scratch.capacity();
        assert!(warm >= 2 * 2310, "split sources");
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
        for z in &forward(&a, &v) {
            assert!((z.re - 1.0).abs() < 1e-9 && z.im.abs() < 1e-9);
        }
    }
}
