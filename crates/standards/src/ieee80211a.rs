//! IEEE 802.11a WLAN (5 GHz OFDM PHY) — one of the three standards the
//! paper demonstrated in the APLAC simulator.
//!
//! 20 MHz sampling, 64-point FFT, 800 ns guard (16 samples), 52 used
//! carriers (48 data + 4 pilots at ±7/±21), eight data rates from BPSK-1/2
//! to 64-QAM-3/4, the x⁷+x⁴+1 scrambler, the K=7 convolutional code and
//! the two-permutation interleaver — all expressed as Mother Model
//! parameters.

use ofdm_core::constellation::Modulation;
use ofdm_core::fec::ConvSpec;
use ofdm_core::framing::PreambleElement;
use ofdm_core::interleave::InterleaverSpec;
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::ieee80211a_pilots;
use ofdm_core::scramble::ScramblerSpec;
use ofdm_core::symbol::GuardInterval;
use ofdm_dsp::fft::{self, FftScratch};
use ofdm_dsp::Complex64;

/// Baseband sample rate (Hz): one 20 MHz channel.
pub const SAMPLE_RATE: f64 = 20.0e6;
/// FFT length.
pub const FFT_SIZE: usize = 64;
/// Guard interval in samples (800 ns at 20 MHz).
pub const GUARD_SAMPLES: usize = 16;
/// Data subcarriers per symbol.
pub const N_DATA: usize = 48;

/// The eight 802.11a data rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WlanRate {
    /// 6 Mbit/s: BPSK, rate 1/2.
    Mbps6,
    /// 9 Mbit/s: BPSK, rate 3/4.
    Mbps9,
    /// 12 Mbit/s: QPSK, rate 1/2.
    Mbps12,
    /// 18 Mbit/s: QPSK, rate 3/4.
    Mbps18,
    /// 24 Mbit/s: 16-QAM, rate 1/2.
    Mbps24,
    /// 36 Mbit/s: 16-QAM, rate 3/4.
    Mbps36,
    /// 48 Mbit/s: 64-QAM, rate 2/3.
    Mbps48,
    /// 54 Mbit/s: 64-QAM, rate 3/4.
    Mbps54,
}

impl WlanRate {
    /// All rates, slowest first.
    pub const ALL: [WlanRate; 8] = [
        WlanRate::Mbps6,
        WlanRate::Mbps9,
        WlanRate::Mbps12,
        WlanRate::Mbps18,
        WlanRate::Mbps24,
        WlanRate::Mbps36,
        WlanRate::Mbps48,
        WlanRate::Mbps54,
    ];

    /// The subcarrier constellation.
    pub fn modulation(self) -> Modulation {
        match self {
            WlanRate::Mbps6 | WlanRate::Mbps9 => Modulation::Bpsk,
            WlanRate::Mbps12 | WlanRate::Mbps18 => Modulation::Qpsk,
            WlanRate::Mbps24 | WlanRate::Mbps36 => Modulation::Qam(4),
            WlanRate::Mbps48 | WlanRate::Mbps54 => Modulation::Qam(6),
        }
    }

    /// The convolutional code (with puncturing) for this rate.
    pub fn conv_spec(self) -> ConvSpec {
        match self {
            WlanRate::Mbps6 | WlanRate::Mbps12 | WlanRate::Mbps24 => ConvSpec::k7_rate_half(),
            WlanRate::Mbps48 => ConvSpec::k7_rate_two_thirds(),
            _ => ConvSpec::k7_rate_three_quarters(),
        }
    }

    /// Nominal PHY bit rate in Mbit/s.
    pub fn mbps(self) -> f64 {
        match self {
            WlanRate::Mbps6 => 6.0,
            WlanRate::Mbps9 => 9.0,
            WlanRate::Mbps12 => 12.0,
            WlanRate::Mbps18 => 18.0,
            WlanRate::Mbps24 => 24.0,
            WlanRate::Mbps36 => 36.0,
            WlanRate::Mbps48 => 48.0,
            WlanRate::Mbps54 => 54.0,
        }
    }

    /// Coded bits per OFDM symbol (N_CBPS).
    pub fn n_cbps(self) -> usize {
        N_DATA * self.modulation().bits_per_symbol()
    }
}

/// The 52-carrier map with the four pilot positions excluded from data.
pub fn subcarrier_map() -> SubcarrierMap {
    let data: Vec<i32> = (-26..=26)
        .filter(|&k| k != 0 && ![7, 21, -7, -21].contains(&k))
        .collect();
    SubcarrierMap::new(FFT_SIZE, data, false).expect("static 802.11a map is valid")
}

/// The long-training-field frequency sequence L₋₂₆..₂₆ (IEEE 802.11-2007
/// Table 17-8), DC omitted.
pub fn ltf_sequence() -> Vec<(i32, Complex64)> {
    const L: [f64; 53] = [
        1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0,
        1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0,
        -1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0,
        1.0, 1.0, 1.0,
    ];
    (-26..=26)
        .zip(L.iter())
        .filter(|&(k, &v)| k != 0 && v != 0.0)
        .map(|(k, &v)| (k, Complex64::new(v, 0.0)))
        .collect()
}

/// The short-training-field frequency cells (±4, ±8, …, ±24), unit energy
/// per cell (the standard's √(13/6) overall factor is absorbed by the
/// Mother Model's power normalization).
pub fn stf_sequence() -> Vec<(i32, Complex64)> {
    let s = 1.0 / 2f64.sqrt();
    let entries: [(i32, f64, f64); 12] = [
        (-24, 1.0, 1.0),
        (-20, -1.0, -1.0),
        (-16, 1.0, 1.0),
        (-12, -1.0, -1.0),
        (-8, -1.0, -1.0),
        (-4, 1.0, 1.0),
        (4, -1.0, -1.0),
        (8, -1.0, -1.0),
        (12, 1.0, 1.0),
        (16, 1.0, 1.0),
        (20, 1.0, 1.0),
        (24, 1.0, 1.0),
    ];
    entries
        .iter()
        .map(|&(k, re, im)| (k, Complex64::new(re * s, im * s)))
        .collect()
}

/// One 64-sample training symbol: `cells` on a split grid through the
/// cached plan's inverse, scaled as the Mother Model scales its symbols.
fn render_training_body(cells: &[(i32, Complex64)]) -> Vec<Complex64> {
    let mut re = [0.0; FFT_SIZE];
    let mut im = [0.0; FFT_SIZE];
    for &(k, v) in cells {
        let bin = k.rem_euclid(FFT_SIZE as i32) as usize;
        re[bin] = v.re;
        im[bin] = v.im;
    }
    fft::plan(FFT_SIZE).inverse_split_in(&mut re, &mut im, &mut FftScratch::new());
    let scale = FFT_SIZE as f64 / (cells.len() as f64).sqrt();
    re.iter()
        .zip(&im)
        .map(|(&r, &i)| Complex64::new(r, i).scale(scale))
        .collect()
}

/// The 160-sample short training field (ten repetitions of the 16-sample
/// short symbol).
pub fn short_training_field() -> Vec<Complex64> {
    let body = render_training_body(&stf_sequence());
    let mut out = Vec::with_capacity(160);
    out.extend_from_slice(&body);
    out.extend_from_slice(&body);
    out.extend_from_slice(&body[..32]);
    out
}

/// The 160-sample long training field (32-sample cyclic prefix + two long
/// symbols).
pub fn long_training_field() -> Vec<Complex64> {
    let body = render_training_body(&ltf_sequence());
    let mut out = Vec::with_capacity(160);
    out.extend_from_slice(&body[32..]);
    out.extend_from_slice(&body);
    out.extend_from_slice(&body);
    out
}

/// The full 802.11a parameter set at a given data rate.
pub fn params(rate: WlanRate) -> OfdmParams {
    let n_bpsc = rate.modulation().bits_per_symbol();
    OfdmParams::builder(format!("IEEE 802.11a {} Mbit/s", rate.mbps()))
        .sample_rate(SAMPLE_RATE)
        .map(subcarrier_map())
        .guard(GuardInterval::Samples(GUARD_SAMPLES))
        .modulation(rate.modulation())
        .pilots(ieee80211a_pilots())
        .scrambler(ScramblerSpec::ieee80211())
        .conv_code(rate.conv_spec())
        .interleaver(InterleaverSpec::Ieee80211 {
            n_cbps: rate.n_cbps(),
            n_bpsc,
        })
        .preamble_element(PreambleElement::TimeDomain(short_training_field()))
        .preamble_element(PreambleElement::TimeDomain(long_training_field()))
        .build()
        .expect("802.11a preset is valid")
}

/// The default preset used by the registry: 54 Mbit/s (64-QAM, rate 3/4).
pub fn default_params() -> OfdmParams {
    params(WlanRate::Mbps54)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::MotherModel;
    use ofdm_dsp::stats::mean_power;

    #[test]
    fn map_structure() {
        let m = subcarrier_map();
        assert_eq!(m.data_count(), 48);
        assert_eq!(m.span(), 53);
        assert!(!m.data_carriers().contains(&7));
        assert!(!m.data_carriers().contains(&0));
    }

    #[test]
    fn rates_table() {
        assert_eq!(WlanRate::Mbps6.n_cbps(), 48);
        assert_eq!(WlanRate::Mbps54.n_cbps(), 288);
        assert_eq!(WlanRate::Mbps48.conv_spec().rate(), (2, 3));
        assert_eq!(WlanRate::ALL.len(), 8);
    }

    #[test]
    fn stf_is_periodic_16() {
        let stf = short_training_field();
        assert_eq!(stf.len(), 160);
        for i in 0..144 {
            assert!((stf[i] - stf[i + 16]).abs() < 1e-9, "i = {i}");
        }
        assert!((mean_power(&stf) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ltf_repeats_long_symbol() {
        let ltf = long_training_field();
        assert_eq!(ltf.len(), 160);
        for i in 32..96 {
            assert!((ltf[i] - ltf[i + 64]).abs() < 1e-9);
        }
        // The CP is a copy of the symbol tail.
        for i in 0..32 {
            assert!((ltf[i] - ltf[64 + i]).abs() < 1e-9);
        }
    }

    /// The training body by definition: `x[n] = (64/√cells)·(1/64)
    /// Σ_k X[k] e^{+i2πkn/64}`, the inverse DFT taken as
    /// `conj(dft_naive(conj(X)))/64`.
    fn naive_body(cells: &[(i32, Complex64)]) -> Vec<Complex64> {
        let mut grid = vec![Complex64::ZERO; FFT_SIZE];
        for &(k, v) in cells {
            grid[k.rem_euclid(FFT_SIZE as i32) as usize] = v.conj();
        }
        let scale = 1.0 / (cells.len() as f64).sqrt();
        ofdm_dsp::fft::dft_naive(&grid)
            .into_iter()
            .map(|z| z.conj().scale(scale))
            .collect()
    }

    #[test]
    fn training_bodies_match_a_naive_inverse_dft() {
        let stf = short_training_field();
        let ltf = long_training_field();
        for (label, got, cells) in [
            ("stf", &stf[..64], stf_sequence()),
            ("ltf", &ltf[32..96], ltf_sequence()),
        ] {
            let want = naive_body(&cells);
            let peak = want.iter().map(|z| z.abs()).fold(0.0, f64::max);
            for (n, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((*g - *w).abs() <= 1e-12 * peak, "{label} sample {n}");
            }
        }
    }

    #[test]
    fn ltf_sequence_has_52_cells() {
        assert_eq!(ltf_sequence().len(), 52);
    }

    #[test]
    fn all_rates_build_and_transmit() {
        for rate in WlanRate::ALL {
            let mut tx = MotherModel::new(params(rate)).unwrap();
            let frame = tx.transmit(&[1u8; 200]).unwrap();
            assert!(frame.symbol_count() >= 1, "{rate:?}");
            // Preamble 320 samples + 80 per data symbol.
            assert_eq!(
                frame.signal().len(),
                320 + frame.symbol_count() * 80,
                "{rate:?}"
            );
        }
    }

    #[test]
    fn symbol_duration_four_microseconds() {
        let p = default_params();
        assert!((p.symbol_duration() - 4.0e-6).abs() < 1e-12);
        assert!((p.subcarrier_spacing() - 312_500.0).abs() < 1e-9);
    }

    #[test]
    fn frame_occupies_52_carriers() {
        let mut tx = MotherModel::new(params(WlanRate::Mbps12)).unwrap();
        let frame = tx.transmit(&[0u8; 96]).unwrap();
        assert_eq!(frame.symbol_cells()[0].len(), 52);
    }
}
