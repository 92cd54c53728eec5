//! ADSL (ITU-T G.992.1) discrete multitone downstream — one of the three
//! standards the paper demonstrated in the APLAC simulator.
//!
//! DMT is OFDM with Hermitian symmetry: 512-point IFFT over 256 tones at
//! 4.3125 kHz spacing (2.208 MHz sampling) producing a *real-valued* line
//! signal. Downstream data rides tones 33–255 (below 33 is reserved for
//! POTS and the upstream band), tone 64 is the pilot, and each tone
//! carries a water-filling dependent bit load of 2–15 bits.

use ofdm_core::constellation::Modulation;
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::PilotSpec;
use ofdm_core::scramble::ScramblerSpec;
use ofdm_core::symbol::GuardInterval;
use ofdm_dsp::Complex64;

/// Line sample rate: 512 × 4.3125 kHz.
pub const SAMPLE_RATE: f64 = 2.208e6;
/// IFFT length.
pub const FFT_SIZE: usize = 512;
/// Cyclic prefix in samples (G.992.1 downstream).
pub const GUARD_SAMPLES: usize = 32;
/// First downstream data tone.
pub const FIRST_TONE: i32 = 33;
/// Last downstream data tone.
pub const LAST_TONE: i32 = 255;
/// The pilot tone (C-PILOT1).
pub const PILOT_TONE: i32 = 64;

/// Downstream tone set: 33..=255 excluding the pilot.
pub fn subcarrier_map() -> SubcarrierMap {
    let tones: Vec<i32> = (FIRST_TONE..=LAST_TONE)
        .filter(|&t| t != PILOT_TONE)
        .collect();
    SubcarrierMap::new(FFT_SIZE, tones, true).expect("static ADSL map is valid")
}

/// A synthetic but shape-realistic bit-loading table: high loads (up to 14
/// bits) on low tones where the copper loop attenuates least, tapering to
/// 2 bits at the band edge — the signature DMT water-filling profile.
pub fn bit_loading() -> Vec<Modulation> {
    subcarrier_map()
        .data_carriers()
        .iter()
        .map(|&t| {
            // Linear taper from 14 bits at tone 33 to 2 bits at tone 255.
            let span = (LAST_TONE - FIRST_TONE) as f64;
            let frac = (t - FIRST_TONE) as f64 / span;
            let bits = (14.0 - 12.0 * frac).round().clamp(2.0, 14.0) as u8;
            Modulation::from_bits(bits)
        })
        .collect()
}

/// Total bits per DMT symbol under [`bit_loading`].
pub fn bits_per_symbol() -> usize {
    bit_loading().iter().map(|m| m.bits_per_symbol()).sum()
}

/// The ADSL downstream parameter set.
pub fn default_params() -> OfdmParams {
    OfdmParams::builder("ADSL (G.992.1) downstream")
        .sample_rate(SAMPLE_RATE)
        .map(subcarrier_map())
        .guard(GuardInterval::Samples(GUARD_SAMPLES))
        .bit_loading(bit_loading())
        .pilots(PilotSpec::Fixed(vec![(
            PILOT_TONE,
            // The pilot is the {+,+} 4-QAM point.
            Complex64::new(1.0 / 2f64.sqrt(), 1.0 / 2f64.sqrt()),
        )]))
        .scrambler(ScramblerSpec::dvb())
        .build()
        .expect("ADSL preset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::MotherModel;

    #[test]
    fn map_is_hermitian_dmt() {
        let m = subcarrier_map();
        assert!(m.is_hermitian());
        assert_eq!(m.data_count(), (255 - 33 + 1) - 1); // minus pilot
        assert!(!m.data_carriers().contains(&PILOT_TONE));
    }

    #[test]
    fn loading_profile_tapers() {
        let load = bit_loading();
        assert_eq!(load.len(), 222);
        assert_eq!(load[0].bits_per_symbol(), 14);
        assert_eq!(load.last().unwrap().bits_per_symbol(), 2);
        // Monotone non-increasing.
        for w in load.windows(2) {
            assert!(w[0].bits_per_symbol() >= w[1].bits_per_symbol());
        }
        assert!(bits_per_symbol() > 1000, "ADSL symbol carries kilobits");
    }

    #[test]
    fn line_signal_is_real() {
        let mut tx = MotherModel::new(default_params()).unwrap();
        let frame = tx.transmit(&vec![1u8; 2000]).unwrap();
        for z in frame.signal().samples() {
            assert!(z.im.abs() < 1e-9);
        }
    }

    #[test]
    fn symbol_rate_is_4k() {
        // 4000 DMT symbols/s before CP ≈ (512+32)/2.208e6 ≈ 246 µs ≈ 4.06 kHz.
        let p = default_params();
        let sym_rate = 1.0 / p.symbol_duration();
        assert!((sym_rate - 4059.0).abs() < 5.0, "rate {sym_rate}");
    }

    #[test]
    fn pilot_rides_tone_64() {
        let mut tx = MotherModel::new(default_params()).unwrap();
        let frame = tx.transmit(&[0u8; 100]).unwrap();
        let pilot = frame.symbol_cells()[0]
            .iter()
            .find(|c| c.0 == PILOT_TONE)
            .expect("pilot cell present");
        assert!((pilot.1.re - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }
}
