//! OFDM symbol modulation: subcarrier grid → IFFT → cyclic extension →
//! edge shaping.
//!
//! The modulator normalizes output power to the number of occupied bins so
//! a Mother Model reconfiguration (48 carriers for 802.11a, 1536 for DAB,
//! 6817 for 8k DVB-T…) never changes the mean transmit power — the RF
//! lineup downstream keeps its operating point.

use crate::error::ConfigError;
use ofdm_dsp::fft::{self, Fft, FftScratch};
use ofdm_dsp::window::raised_cosine_edge;
use ofdm_dsp::Complex64;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Cyclic-extension length specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GuardInterval {
    /// Absolute length in samples.
    Samples(usize),
    /// A fraction `numerator / denominator` of the FFT length (e.g. 1/4,
    /// 1/8, 1/16, 1/32 in DVB-T).
    Fraction(u32, u32),
}

impl GuardInterval {
    /// Resolves the guard length for a given FFT size.
    ///
    /// # Panics
    ///
    /// Panics if a fraction has a zero denominator.
    pub fn samples(self, fft_size: usize) -> usize {
        match self {
            GuardInterval::Samples(n) => n,
            GuardInterval::Fraction(num, den) => {
                assert!(den != 0, "guard fraction denominator must be nonzero");
                fft_size * num as usize / den as usize
            }
        }
    }
}

/// One shaped OFDM symbol: `overlap` trailing samples are meant to
/// overlap-add with the next symbol's head.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShapedSymbol {
    /// Time-domain samples (length = cp + fft + overlap).
    pub samples: Vec<Complex64>,
    /// Raised-cosine overlap region length in samples.
    pub overlap: usize,
}

impl ShapedSymbol {
    /// Net symbol duration in samples once overlapped (total − overlap).
    pub fn net_len(&self) -> usize {
        self.samples.len() - self.overlap
    }
}

/// Reusable scratch for [`SymbolModulator::modulate_into`]: the split
/// subcarrier grid and the FFT work buffer, grown once and reused per
/// symbol. The grid is kept as separate re/im arrays so the IFFT runs on
/// [`ofdm_dsp::fft::Fft::inverse_split_in`] — the split mixed-radix
/// engine, at every size. A Hermitian map's grid is its half spectrum.
#[derive(Debug, Clone, Default)]
pub struct SymbolScratch {
    grid_re: Vec<f64>,
    grid_im: Vec<f64>,
    fft: FftScratch,
}

impl SymbolScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        SymbolScratch::default()
    }
}

/// The symbol-level modulator of the Mother Model.
///
/// The FFT plan comes from the process-wide [`ofdm_dsp::fft::plan`] cache,
/// so modulators for the same FFT size (across symbols, reconfigurations
/// and scenario threads) share one set of twiddles.
///
/// A Hermitian (DMT) map's body is real, so it is synthesised at half
/// length: the half spectrum `X[0..=N/2]` is pre-twiddled into `N/2`
/// complex points `Z[k] = E[k] + i·O[k]`, with `E` and `O` the spectra of
/// the even and odd samples (from `X[k+N/2] = conj X[N/2−k]`), and one
/// `N/2`-point inverse yields the even samples in `re` and the odd samples
/// in `im`. The mirrored half is never written, and the body's imaginary
/// part is exactly `+0.0`.
#[derive(Debug, Clone)]
pub struct SymbolModulator {
    /// The `fft_size`-point plan, or the `fft_size/2`-point plan of a
    /// Hermitian map.
    fft: Arc<Fft>,
    fft_size: usize,
    cp_len: usize,
    taper: Vec<f64>,
    hermitian: bool,
}

impl SymbolModulator {
    /// Creates a modulator.
    ///
    /// `taper_len` is the raised-cosine edge length in samples (0 disables
    /// shaping); in Hermitian mode the IFFT input is conjugate-symmetric so
    /// the output is real-valued (DMT).
    ///
    /// # Errors
    ///
    /// * [`ConfigError::BadFftSize`] for `fft_size < 4`, or an odd
    ///   `fft_size` in Hermitian mode.
    /// * [`ConfigError::BadCyclicPrefix`] if the guard is not shorter than
    ///   the symbol.
    /// * [`ConfigError::TaperTooLong`] if the taper exceeds the cyclic
    ///   prefix (the shaped region must stay inside the guard).
    pub fn new(
        fft_size: usize,
        guard: GuardInterval,
        taper_len: usize,
        hermitian: bool,
    ) -> Result<Self, ConfigError> {
        if fft_size < 4 || (hermitian && !fft_size.is_multiple_of(2)) {
            return Err(ConfigError::BadFftSize(fft_size));
        }
        let cp_len = guard.samples(fft_size);
        if cp_len >= fft_size {
            return Err(ConfigError::BadCyclicPrefix {
                cp: cp_len,
                fft_size,
            });
        }
        if taper_len > cp_len {
            return Err(ConfigError::TaperTooLong {
                taper: taper_len,
                cp: cp_len,
            });
        }
        Ok(SymbolModulator {
            fft: fft::plan(if hermitian { fft_size / 2 } else { fft_size }),
            fft_size,
            cp_len,
            taper: raised_cosine_edge(taper_len),
            hermitian,
        })
    }

    /// FFT length.
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// Cyclic prefix length in samples.
    pub fn cp_len(&self) -> usize {
        self.cp_len
    }

    /// Taper (overlap) length in samples.
    pub fn taper_len(&self) -> usize {
        self.taper.len()
    }

    /// Whether DMT Hermitian mirroring is active.
    pub fn is_hermitian(&self) -> bool {
        self.hermitian
    }

    /// Modulates one symbol from `(signed carrier, cell)` pairs.
    ///
    /// Unoccupied bins are zero. Output power is normalized to the cell
    /// count, so unit-energy constellations give (approximately) unit mean
    /// sample power regardless of how many carriers are active.
    ///
    /// # Panics
    ///
    /// Panics (debug) on carriers outside the grid — upstream validation in
    /// [`crate::params::OfdmParams`] prevents this.
    pub fn modulate(&self, cells: &[(i32, Complex64)]) -> ShapedSymbol {
        let mut out = ShapedSymbol::default();
        self.modulate_into(cells, &mut SymbolScratch::new(), &mut out);
        out
    }

    /// Modulates one symbol into a caller-provided buffer, reusing scratch.
    ///
    /// Sample-exact with [`SymbolModulator::modulate`]; after warm-up the
    /// per-symbol cost involves no heap allocation (grid, FFT work buffer
    /// and output are all reused). This is the hot path of the streaming
    /// transmitter.
    ///
    /// # Panics
    ///
    /// Panics (debug) on carriers outside the grid — upstream validation in
    /// [`crate::params::OfdmParams`] prevents this.
    pub fn modulate_into(
        &self,
        cells: &[(i32, Complex64)],
        scratch: &mut SymbolScratch,
        out: &mut ShapedSymbol,
    ) {
        let n = self.fft_size;
        // Renormalize to unit power for unit-energy cells: N / √occupied,
        // a Hermitian cell occupying its bin and the mirror bin.
        let occupied = if self.hermitian { 2 } else { 1 } * cells.len();
        let scale = if occupied > 0 {
            n as f64 / (occupied as f64).sqrt()
        } else {
            0.0
        };
        let SymbolScratch {
            grid_re,
            grid_im,
            fft,
        } = scratch;
        if self.hermitian {
            self.synthesise_real(cells, scale, grid_re, grid_im, fft);
            let (z_re, z_im) = (&grid_re[..n / 2], &grid_im[..n / 2]);
            // De-interleave: sample 2t is Re z[t], sample 2t+1 is Im z[t].
            self.shape_into(out, |body| {
                for ((pair, &even), &odd) in body.chunks_exact_mut(2).zip(z_re).zip(z_im) {
                    pair[0] = Complex64::new(even, 0.0);
                    pair[1] = Complex64::new(odd, 0.0);
                }
            });
            return;
        }
        grid_re.clear();
        grid_re.resize(n, 0.0);
        grid_im.clear();
        grid_im.resize(n, 0.0);
        for &(k, v) in cells {
            let bin = if k >= 0 {
                k as usize
            } else {
                (n as i32 + k) as usize
            };
            debug_assert!(bin < n, "carrier {k} outside the grid");
            grid_re[bin] = v.re;
            grid_im[bin] = v.im;
        }
        // The inverse scales by 1/N; `scale` restores unit power.
        self.fft.inverse_split_in(grid_re, grid_im, fft);
        self.shape_into(out, |body| {
            for ((z, &re), &im) in body.iter_mut().zip(grid_re.iter()).zip(grid_im.iter()) {
                *z = Complex64::new(re * scale, im * scale);
            }
        });
    }

    /// Leaves `z[t] = x[2t] + i·x[2t+1]` in `re[..N/2]`, `im[..N/2]`, where
    /// `x` is the real `N`-point inverse of the Hermitian spectrum `cells`
    /// (positive carriers only) times `scale`.
    fn synthesise_real(
        &self,
        cells: &[(i32, Complex64)],
        scale: f64,
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
        fft: &mut FftScratch,
    ) {
        let h = self.fft_size / 2;
        re.clear();
        re.resize(h + 1, 0.0);
        im.clear();
        im.resize(h + 1, 0.0);
        for &(k, v) in cells {
            debug_assert!(
                k > 0 && (k as usize) < h,
                "carrier {k} outside the half grid"
            );
            re[k as usize] = v.re;
            im[k as usize] = v.im;
        }
        // With A = X[k] and B = X[k+h] = conj X[h−k]: E = (A+B)/2 and
        // O = (A−B)/2 · e^{+iπk/h}, both times `scale`. The partner bin h−k
        // reads the same two values and gets Z[h−k] = conj E + i·conj O,
        // so each pair is rewritten in place.
        let (t_re, t_im) = self.fft.real_twiddles();
        let c = 0.5 * scale;
        for k in 0..=h / 2 {
            let (ar, ai) = (re[k], im[k]);
            let (br, bi) = (re[h - k], -im[h - k]);
            let (er, ei) = ((ar + br) * c, (ai + bi) * c);
            let (dr, di) = ((ar - br) * c, (ai - bi) * c);
            let (or, oi) = (dr * t_re[k] - di * t_im[k], dr * t_im[k] + di * t_re[k]);
            re[k] = er - oi;
            im[k] = ei + or;
            if h - k != k {
                re[h - k] = er + oi;
                im[h - k] = or - ei;
            }
        }
        // The inverse's 1/h is the 1/N of the full-length inverse with the
        // halves of E and O.
        self.fft.inverse_split_in(&mut re[..h], &mut im[..h], fft);
    }

    /// Lays down one shaped symbol in `out`: `fill` writes the
    /// `fft_size`-sample body, which is then extended by the cyclic prefix
    /// and the cyclic suffix (taper region) and given raised-cosine edges.
    fn shape_into(&self, out: &mut ShapedSymbol, fill: impl FnOnce(&mut [Complex64])) {
        let (w, n, cp) = (self.taper.len(), self.fft_size, self.cp_len);
        let samples = &mut out.samples;
        samples.clear();
        samples.resize(cp + n + w, Complex64::ZERO);
        fill(&mut samples[cp..cp + n]);
        // Cyclic prefix: the body's last `cp` samples.
        samples.copy_within(n..n + cp, 0);
        // Cyclic suffix: the body's first `w` samples, for the falling edge.
        samples.copy_within(cp..cp + w, cp + n);
        // Rising edge over the first w samples, falling over the last w.
        for i in 0..w {
            let rise = self.taper[i];
            samples[i] = samples[i].scale(rise);
            let fall = self.taper[w - 1 - i];
            let last = samples.len() - w + i;
            samples[last] = samples[last].scale(fall);
        }
        out.overlap = w;
    }
}

/// Overlap-adds shaped symbols into a contiguous waveform.
pub fn assemble(symbols: &[ShapedSymbol]) -> Vec<Complex64> {
    let total: usize = symbols.iter().map(|s| s.net_len()).sum();
    let tail = symbols.last().map_or(0, |s| s.overlap);
    let mut out = vec![Complex64::ZERO; total + tail];
    let mut pos = 0usize;
    for s in symbols {
        for (i, &z) in s.samples.iter().enumerate() {
            out[pos + i] += z;
        }
        pos += s.net_len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_dsp::stats::mean_power;

    fn cells_for(carriers: &[i32]) -> Vec<(i32, Complex64)> {
        carriers.iter().map(|&k| (k, Complex64::ONE)).collect()
    }

    #[test]
    fn guard_interval_resolution() {
        assert_eq!(GuardInterval::Samples(16).samples(64), 16);
        assert_eq!(GuardInterval::Fraction(1, 4).samples(64), 16);
        assert_eq!(GuardInterval::Fraction(1, 32).samples(8192), 256);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = GuardInterval::Fraction(1, 0).samples(64);
    }

    #[test]
    fn symbol_length_is_cp_plus_fft_plus_taper() {
        let m = SymbolModulator::new(64, GuardInterval::Samples(16), 4, false).unwrap();
        let s = m.modulate(&cells_for(&[1, 2, 3]));
        assert_eq!(s.samples.len(), 16 + 64 + 4);
        assert_eq!(s.overlap, 4);
        assert_eq!(s.net_len(), 80);
    }

    #[test]
    fn cyclic_prefix_is_cyclic() {
        let m = SymbolModulator::new(64, GuardInterval::Samples(16), 0, false).unwrap();
        let s = m.modulate(&cells_for(&[-7, 3, 12]));
        // CP copies the symbol tail: samples[0..16] == samples[64..80].
        for i in 0..16 {
            assert!((s.samples[i] - s.samples[64 + i]).abs() < 1e-12);
        }
    }

    #[test]
    fn single_carrier_is_complex_exponential() {
        let m = SymbolModulator::new(64, GuardInterval::Samples(0), 0, false).unwrap();
        let s = m.modulate(&[(3, Complex64::ONE)]);
        // x[n] = e^{j2π·3n/64} (unit power, single occupied bin).
        for (n, z) in s.samples.iter().enumerate() {
            let expect = Complex64::cis(2.0 * std::f64::consts::PI * 3.0 * n as f64 / 64.0);
            assert!((*z - expect).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn power_normalized_across_configurations() {
        // 4 carriers vs 48 carriers: same mean power.
        let m = SymbolModulator::new(64, GuardInterval::Samples(0), 0, false).unwrap();
        let few = m.modulate(&cells_for(&[1, 2, 3, 4]));
        let many: Vec<i32> = (-26..=26).filter(|&k| k != 0).collect();
        let lots = m.modulate(&cells_for(&many));
        let p_few = mean_power(&few.samples);
        let p_lots = mean_power(&lots.samples);
        assert!((p_few - 1.0).abs() < 1e-9, "p_few {p_few}");
        assert!((p_lots - 1.0).abs() < 1e-9, "p_lots {p_lots}");
    }

    #[test]
    fn hermitian_output_is_real() {
        let m = SymbolModulator::new(512, GuardInterval::Samples(32), 0, true).unwrap();
        let cells: Vec<(i32, Complex64)> = (1..=100)
            .map(|k| (k, Complex64::new(0.6, -0.8))) // unit-energy cells
            .collect();
        let s = m.modulate(&cells);
        for z in &s.samples {
            assert_eq!(z.im.to_bits(), 0, "imag leak {}", z.im);
        }
        // Body power is exactly 1 (200 occupied unit-energy bins after
        // mirroring); the CP section adds a small deviation.
        let body = &s.samples[32..32 + 512];
        assert!((mean_power(body) - 1.0).abs() < 1e-9);
        assert!(m.is_hermitian());
    }

    #[test]
    fn taper_scales_edges() {
        let m = SymbolModulator::new(64, GuardInterval::Samples(16), 8, false).unwrap();
        let s = m.modulate(&cells_for(&[5]));
        // First sample strongly attenuated, center untouched.
        assert!(s.samples[0].abs() < 0.2);
        assert!((s.samples[40].abs() - 1.0).abs() < 1e-9);
        // Last sample (falling edge end) strongly attenuated.
        assert!(s.samples.last().unwrap().abs() < 0.2);
    }

    #[test]
    fn overlap_add_preserves_envelope() {
        // Complementary raised-cosine edges: two overlapped constant
        // symbols sum to constant amplitude in the seam.
        let m = SymbolModulator::new(64, GuardInterval::Samples(16), 8, false).unwrap();
        let constant = || {
            let mut s = ShapedSymbol::default();
            m.shape_into(&mut s, |dst| dst.fill(Complex64::ONE));
            s
        };
        let (a, b) = (constant(), constant());
        let wave = assemble(&[a, b]);
        // Seam region: samples around the net_len boundary are 1.0.
        for (i, z) in wave.iter().enumerate().take(88).skip(72) {
            assert!((z.abs() - 1.0).abs() < 1e-9, "seam sample {i}");
        }
    }

    #[test]
    fn assemble_lengths() {
        let m = SymbolModulator::new(64, GuardInterval::Samples(16), 4, false).unwrap();
        let s1 = m.modulate(&cells_for(&[1]));
        let s2 = m.modulate(&cells_for(&[2]));
        let wave = assemble(&[s1, s2]);
        assert_eq!(wave.len(), 80 + 80 + 4);
        assert!(assemble(&[]).is_empty());
    }

    #[test]
    fn empty_cells_produce_silence() {
        let m = SymbolModulator::new(64, GuardInterval::Samples(16), 0, false).unwrap();
        let s = m.modulate(&[]);
        assert!(s.samples.iter().all(|z| z.abs() < 1e-15));
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            SymbolModulator::new(2, GuardInterval::Samples(0), 0, false).unwrap_err(),
            ConfigError::BadFftSize(2)
        ));
        assert!(matches!(
            SymbolModulator::new(64, GuardInterval::Samples(64), 0, false).unwrap_err(),
            ConfigError::BadCyclicPrefix { .. }
        ));
        assert!(matches!(
            SymbolModulator::new(64, GuardInterval::Samples(4), 8, false).unwrap_err(),
            ConfigError::TaperTooLong { taper: 8, cp: 4 }
        ));
    }

    #[test]
    fn modulate_into_matches_modulate_exactly() {
        // One scratch and one output buffer reused across configurations —
        // including Hermitian mirroring and a non-power-of-two (mixed-radix)
        // grid — must be sample-exact with the allocating path.
        let mut scratch = SymbolScratch::new();
        let mut out = ShapedSymbol::default();
        let configs = [
            SymbolModulator::new(64, GuardInterval::Samples(16), 4, false).unwrap(),
            SymbolModulator::new(96, GuardInterval::Samples(12), 6, false).unwrap(),
            SymbolModulator::new(512, GuardInterval::Samples(32), 0, true).unwrap(),
        ];
        for m in &configs {
            let cells: Vec<(i32, Complex64)> =
                (1..=20).map(|k| (k, Complex64::new(0.6, -0.8))).collect();
            let reference = m.modulate(&cells);
            m.modulate_into(&cells, &mut scratch, &mut out);
            assert_eq!(reference.samples, out.samples);
            assert_eq!(reference.overlap, out.overlap);
        }
    }
}
