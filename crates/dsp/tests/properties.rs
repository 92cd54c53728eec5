//! Property-based tests of the DSP substrate against mathematical
//! identities: these are the invariants every higher layer silently
//! assumes.

use ofdm_dsp::bits::{binary_to_gray, gray_to_binary, pack_msb_first, unpack_msb_first, Lfsr};
use ofdm_dsp::fft::{Fft, FftScratch};
use ofdm_dsp::fir::{freq_response, lowpass, FirFilter};
use ofdm_dsp::nco::Nco;
use ofdm_dsp::resample::Resampler;
use ofdm_dsp::stats;
use ofdm_dsp::window::Window;
use ofdm_dsp::Complex64;
use proptest::collection::vec;
use proptest::prelude::*;

fn signal_from_seed(n: usize, seed: u64) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(seed.wrapping_add(7))
                .wrapping_add(13);
            Complex64::cis((x % 10007) as f64 * 0.01).scale(0.2 + ((x % 71) as f64) / 100.0)
        })
        .collect()
}

/// `x` as split `(re, im)` vectors, the layout of the DSP entry points.
fn split(x: &[Complex64]) -> (Vec<f64>, Vec<f64>) {
    (
        x.iter().map(|z| z.re).collect(),
        x.iter().map(|z| z.im).collect(),
    )
}

/// The spectrum of `x` through the split FFT, interleaved.
fn spectrum(fft: &Fft, x: &[Complex64]) -> Vec<Complex64> {
    let (mut re, mut im) = split(x);
    fft.forward_split_in(&mut re, &mut im, &mut FftScratch::new());
    re.iter()
        .zip(&im)
        .map(|(&r, &i)| Complex64::new(r, i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Parseval: time-domain energy equals frequency-domain energy / N,
    /// for power-of-two and mixed-radix lengths alike.
    #[test]
    fn fft_parseval(n in 2usize..300, seed in any::<u64>()) {
        let x = signal_from_seed(n, seed);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq = spectrum(&Fft::new(n), &x);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
    }

    /// Circular time shift multiplies the spectrum by a phase ramp only:
    /// magnitudes are invariant.
    #[test]
    fn fft_shift_invariance(n in 4usize..128, shift in 0usize..64, seed in any::<u64>()) {
        let x = signal_from_seed(n, seed);
        let s = shift % n;
        let mut shifted = x.clone();
        shifted.rotate_left(s);
        let fft = Fft::new(n);
        let a = spectrum(&fft, &x);
        let b = spectrum(&fft, &shifted);
        for (za, zb) in a.iter().zip(&b) {
            prop_assert!((za.abs() - zb.abs()).abs() < 1e-7);
        }
    }

    /// The streaming FIR filter is linear and time-invariant: filtering a
    /// scaled input scales the output.
    #[test]
    fn fir_homogeneity(scale in -3.0f64..3.0, seed in any::<u64>()) {
        let h = lowpass(21, 0.2, Window::Hamming);
        let x = signal_from_seed(64, seed);
        let scaled: Vec<Complex64> = x.iter().map(|z| z.scale(scale)).collect();
        let mut f1 = FirFilter::new(h.clone());
        let mut f2 = FirFilter::new(h);
        let ((xr, xi), (sr, si)) = (split(&x), split(&scaled));
        let (mut y1r, mut y1i, mut y2r, mut y2i) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        f1.process_split(&xr, &xi, &mut y1r, &mut y1i);
        f2.process_split(&sr, &si, &mut y2r, &mut y2i);
        for k in 0..y1r.len() {
            let (a, b) = (Complex64::new(y1r[k], y1i[k]), Complex64::new(y2r[k], y2i[k]));
            prop_assert!((a.scale(scale) - b).abs() < 1e-9);
        }
    }

    /// Designed lowpass filters always have exactly unit DC gain and a
    /// symmetric (linear-phase) impulse response.
    #[test]
    fn lowpass_design_invariants(taps in 3usize..80, cutoff_pct in 5u32..45) {
        let cutoff = cutoff_pct as f64 / 100.0;
        let h = lowpass(taps, cutoff, Window::Blackman);
        prop_assert_eq!(h.len(), taps);
        prop_assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((freq_response(&h, 0.0).abs() - 1.0).abs() < 1e-9);
        for i in 0..taps {
            prop_assert!((h[i] - h[taps - 1 - i]).abs() < 1e-12);
        }
    }

    /// Rational resampling produces exactly ⌈len·L/M⌉-ish output counts
    /// and never loses rate bookkeeping.
    #[test]
    fn resampler_length_accounting(
        up in 1usize..8,
        down in 1usize..8,
        blocks in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rs = Resampler::new(up, down, 8);
        let mut total_in = 0usize;
        let mut total_out = 0usize;
        let (mut out_re, mut out_im) = (Vec::new(), Vec::new());
        for b in 0..blocks {
            let (re, im) = split(&signal_from_seed(50 + b * 13, seed ^ b as u64));
            total_in += re.len();
            rs.process_split(&re, &im, &mut out_re, &mut out_im);
            total_out += out_re.len();
        }
        // Streaming property: cumulative output within one sample of the
        // exact rational count.
        let exact = total_in * rs.up() / rs.down();
        prop_assert!(total_out.abs_diff(exact) <= 1, "{total_out} vs {exact}");
    }

    /// An NCO at frequency f then −f returns any signal to itself.
    #[test]
    fn nco_updown_identity(freq in -0.4f64..0.4, seed in any::<u64>()) {
        let x = signal_from_seed(128, seed);
        let mut up = Nco::new(freq, 1.0);
        let mut down = Nco::new(-freq, 1.0);
        let mut buf = x.clone();
        up.mix_in_place(&mut buf);
        down.mix_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// Bit packing round-trips for byte-aligned lengths.
    #[test]
    fn pack_unpack_roundtrip(bytes in vec(any::<u8>(), 0..64)) {
        let bits = unpack_msb_first(&bytes);
        prop_assert_eq!(bits.len(), bytes.len() * 8);
        prop_assert_eq!(pack_msb_first(&bits), bytes);
    }

    /// Gray coding is a bijection whose adjacent codes differ in one bit.
    #[test]
    fn gray_bijection(v in any::<u32>()) {
        prop_assert_eq!(gray_to_binary(binary_to_gray(v)), v);
        if v < u32::MAX {
            let d = binary_to_gray(v) ^ binary_to_gray(v + 1);
            prop_assert_eq!(d.count_ones(), 1);
        }
    }

    /// Every nonzero-seeded maximal-polynomial LFSR visits a cycle that
    /// returns to its start (period divides 2^order − 1 for these
    /// polynomials; for the maximal ones used in the presets it equals it).
    #[test]
    fn lfsr_returns_to_seed(seed in 1u32..127) {
        let mut reg = Lfsr::new(7, &[7, 4], seed);
        let start = reg.state();
        let mut period = 0usize;
        loop {
            reg.next_bit();
            period += 1;
            if reg.state() == start {
                break;
            }
            prop_assert!(period <= 127, "period bound exceeded");
        }
        prop_assert_eq!(period, 127, "x^7+x^4+1 is maximal");
    }

    /// The power CCDF is a proper survival function: within [0,1] and
    /// non-increasing in the threshold.
    #[test]
    fn ccdf_is_survival_function(n in 16usize..500, seed in any::<u64>()) {
        let (re, im) = split(&signal_from_seed(n, seed));
        let thresholds: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let ccdf = stats::power_ccdf(&re, &im, &thresholds);
        for w in ccdf.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
        for &p in &ccdf {
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    /// PAPR is nonnegative and zero exactly for constant-envelope signals.
    #[test]
    fn papr_bounds(seed in any::<u64>(), n in 8usize..200) {
        let (re, im) = split(&signal_from_seed(n, seed));
        prop_assert!(stats::papr_db_split(&re, &im) >= -1e-9);
        let constant: Vec<Complex64> = (0..n).map(|i| Complex64::cis(i as f64)).collect();
        let (re, im) = split(&constant);
        prop_assert!(stats::papr_db_split(&re, &im).abs() < 1e-9);
    }
}
