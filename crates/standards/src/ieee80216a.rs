//! IEEE 802.16a WirelessMAN-OFDM (fixed broadband wireless access).
//!
//! The 256-carrier OFDM PHY: 200 used carriers (±1..±100), eight fixed
//! BPSK pilots at ±13/±38/±63/±88, 192 data carriers, RS+CC concatenated
//! coding, guard fractions 1/4 … 1/32. Modeled for a 10 MHz channel
//! (sampling factor 8/7 → 11.43 MHz).

use ofdm_core::constellation::Modulation;
use ofdm_core::fec::ConvSpec;
use ofdm_core::framing::PreambleElement;
use ofdm_core::interleave::InterleaverSpec;
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::{LfsrSpec, PilotSpec};
use ofdm_core::scramble::ScramblerSpec;
use ofdm_core::symbol::GuardInterval;

/// Baseband sample rate: 10 MHz channel × 8/7 sampling factor.
pub const SAMPLE_RATE: f64 = 10.0e6 * 8.0 / 7.0;
/// FFT length.
pub const FFT_SIZE: usize = 256;
/// The eight pilot carriers.
pub const PILOT_CARRIERS: [i32; 8] = [-88, -63, -38, -13, 13, 38, 63, 88];
/// Data carriers per symbol.
pub const N_DATA: usize = 192;

/// The 192-data-carrier map: ±1..±100 minus the eight pilots.
pub fn subcarrier_map() -> SubcarrierMap {
    let data: Vec<i32> = (-100..=100)
        .filter(|&k| k != 0 && !PILOT_CARRIERS.contains(&k))
        .collect();
    SubcarrierMap::new(FFT_SIZE, data, false).expect("static 802.16a map is valid")
}

/// The pilot spec: fixed carriers, all-ones base signs, polarity from the
/// standard's x¹¹+x⁹+1 PRBS (all-ones seed).
pub fn pilot_spec() -> PilotSpec {
    PilotSpec::SymbolPolarity {
        carriers: PILOT_CARRIERS.to_vec(),
        signs: vec![1.0; 8],
        boost: 1.0,
        lfsr: LfsrSpec {
            order: 11,
            taps: vec![11, 9],
            seed: 0x7ff,
        },
    }
}

/// The downlink long-preamble cells: unit-energy QPSK values on the even
/// carriers only (odd carriers null), which makes the rendered symbol two
/// identical 128-sample halves — the repetition receivers use for
/// timing/CFO acquisition. Values come from the standard-family PRBS.
pub fn long_preamble_cells() -> Vec<(i32, ofdm_dsp::Complex64)> {
    let mut prbs = LfsrSpec {
        order: 11,
        taps: vec![11, 9],
        seed: 0x7ff,
    }
    .build();
    (-100..=100)
        .filter(|&k| k != 0 && k % 2 == 0)
        .map(|k| {
            let s = 1.0 / 2f64.sqrt();
            let re = if prbs.next_bit() == 0 { s } else { -s };
            let im = if prbs.next_bit() == 0 { s } else { -s };
            (k, ofdm_dsp::Complex64::new(re, im))
        })
        .collect()
}

/// The 802.16a parameter set (16-QAM, guard 1/8 — a common deployment
/// point), with the RS(120, 108) + rate-2/3 CC concatenation of the
/// standard's 16-QAM-1/2 burst profile... approximated with the shared K=7
/// code family.
pub fn params(modulation: Modulation, guard_fraction: u32) -> OfdmParams {
    let n_bpsc = modulation.bits_per_symbol();
    OfdmParams::builder(format!(
        "IEEE 802.16a OFDM-256 {modulation} Δ=1/{guard_fraction}"
    ))
    .sample_rate(SAMPLE_RATE)
    .map(subcarrier_map())
    .guard(GuardInterval::Fraction(1, guard_fraction))
    .modulation(modulation)
    .pilots(pilot_spec())
    .scrambler(ScramblerSpec::dvb())
    .rs_outer(120, 108)
    .conv_code(ConvSpec::k7_rate_two_thirds())
    .interleaver(InterleaverSpec::Ieee80211 {
        n_cbps: N_DATA * n_bpsc,
        n_bpsc,
    })
    .preamble_element(PreambleElement::FreqDomain {
        cells: long_preamble_cells(),
    })
    .build()
    .expect("802.16a preset is valid")
}

/// The registry default: 16-QAM, guard 1/8.
pub fn default_params() -> OfdmParams {
    params(Modulation::Qam(4), 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::MotherModel;

    #[test]
    fn map_structure() {
        let m = subcarrier_map();
        assert_eq!(m.data_count(), 192);
        assert_eq!(m.span(), 201);
        for p in PILOT_CARRIERS {
            assert!(!m.data_carriers().contains(&p));
        }
    }

    #[test]
    fn long_preamble_has_two_identical_halves() {
        // Even-carrier-only cells → 128-sample periodicity in the body.
        let mut tx = MotherModel::new(default_params()).unwrap();
        let frame = tx.transmit(&[1u8; 100]).unwrap();
        let guard = 256 / 8;
        let body = &frame.signal().samples()[guard..guard + 256];
        for i in 0..128 {
            assert!((body[i] - body[i + 128]).abs() < 1e-9, "i = {i}");
        }
        // Preamble power ≈ data power (unit, by normalization).
        let p = ofdm_dsp::stats::mean_power(body);
        assert!((p - 1.0).abs() < 0.05, "preamble power {p}");
    }

    #[test]
    fn two_hundred_used_carriers() {
        let mut tx = MotherModel::new(default_params()).unwrap();
        let frame = tx.transmit(&vec![1u8; 500]).unwrap();
        assert_eq!(frame.symbol_cells()[0].len(), 200);
    }

    #[test]
    fn pilot_polarity_changes_over_symbols() {
        let mut tx = MotherModel::new(default_params()).unwrap();
        let frame = tx.transmit(&vec![1u8; 5000]).unwrap();
        assert!(frame.symbol_count() >= 4);
        let pilot_at = |s: usize| {
            frame.symbol_cells()[s]
                .iter()
                .find(|c| c.0 == 13)
                .expect("pilot present")
                .1
                .re
        };
        let signs: Vec<f64> = (0..frame.symbol_count()).map(pilot_at).collect();
        assert!(signs.iter().any(|&s| s > 0.0));
        assert!(
            signs.iter().any(|&s| s < 0.0),
            "polarity must vary: {signs:?}"
        );
    }

    #[test]
    fn concatenated_coding_expands() {
        let mut tx = MotherModel::new(default_params()).unwrap();
        // 108 bytes = 864 bits → RS(120,108) → 960 bits → CC 2/3 → 1449 → pad.
        let frame = tx.transmit(&vec![0u8; 864]).unwrap();
        assert!(frame.coded_bits() > 1400);
    }

    #[test]
    fn guard_and_duration() {
        let p = params(Modulation::Qpsk, 4);
        // Useful period 256/11.43 MHz = 22.4 µs; +1/4 guard = 28 µs.
        assert!((p.symbol_duration() - 28e-6).abs() < 1e-9);
    }
}
