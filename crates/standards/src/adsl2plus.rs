//! ADSL2+ (ITU-T G.992.5) — the paper's "ADSL++": doubled downstream
//! spectrum.
//!
//! Relative to ADSL, the downstream band extends to 2.208 MHz: a 1024-point
//! IFFT over 512 tones at the same 4.3125 kHz spacing (4.416 MHz
//! sampling). Everything else — Hermitian DMT, pilot tone, per-tone bit
//! loading — is the same mechanism with bigger numbers, which is precisely
//! why it reconfigures from the same Mother Model.

use ofdm_core::constellation::Modulation;
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::PilotSpec;
use ofdm_core::scramble::ScramblerSpec;
use ofdm_core::symbol::GuardInterval;
use ofdm_dsp::Complex64;

/// Line sample rate: 1024 × 4.3125 kHz.
pub const SAMPLE_RATE: f64 = 4.416e6;
/// IFFT length.
pub const FFT_SIZE: usize = 1024;
/// Cyclic prefix in samples (scaled with the IFFT).
pub const GUARD_SAMPLES: usize = 64;
/// First downstream data tone.
pub const FIRST_TONE: i32 = 33;
/// Last downstream data tone (G.992.5 extends to tone 511).
pub const LAST_TONE: i32 = 511;
/// The pilot tone.
pub const PILOT_TONE: i32 = 64;

/// Downstream tone set: 33..=511 excluding the pilot.
pub fn subcarrier_map() -> SubcarrierMap {
    let tones: Vec<i32> = (FIRST_TONE..=LAST_TONE)
        .filter(|&t| t != PILOT_TONE)
        .collect();
    SubcarrierMap::new(FFT_SIZE, tones, true).expect("static ADSL2+ map is valid")
}

/// Water-filling-shaped bit loading: 14 bits at the bottom of the band
/// falling to 2 bits at tone 511 (the extended band is reachable only on
/// short loops, hence the aggressive taper).
pub fn bit_loading() -> Vec<Modulation> {
    subcarrier_map()
        .data_carriers()
        .iter()
        .map(|&t| {
            let span = (LAST_TONE - FIRST_TONE) as f64;
            let frac = (t - FIRST_TONE) as f64 / span;
            let bits = (14.0 - 12.0 * frac * frac.sqrt().max(0.5))
                .round()
                .clamp(2.0, 14.0) as u8;
            Modulation::from_bits(bits)
        })
        .collect()
}

/// The ADSL2+ downstream parameter set.
pub fn default_params() -> OfdmParams {
    OfdmParams::builder("ADSL2+ (G.992.5) downstream")
        .sample_rate(SAMPLE_RATE)
        .map(subcarrier_map())
        .guard(GuardInterval::Samples(GUARD_SAMPLES))
        .bit_loading(bit_loading())
        .pilots(PilotSpec::Fixed(vec![(
            PILOT_TONE,
            Complex64::new(1.0 / 2f64.sqrt(), 1.0 / 2f64.sqrt()),
        )]))
        .scrambler(ScramblerSpec::dvb())
        .build()
        .expect("ADSL2+ preset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::MotherModel;

    #[test]
    fn doubled_band_relative_to_adsl() {
        let m = subcarrier_map();
        assert!(m.is_hermitian());
        assert_eq!(FFT_SIZE, 2 * crate::adsl::FFT_SIZE);
        assert!((SAMPLE_RATE - 2.0 * crate::adsl::SAMPLE_RATE).abs() < 1e-6);
        assert!(m.data_count() > 2 * crate::adsl::subcarrier_map().data_count());
    }

    #[test]
    fn same_subcarrier_spacing_as_adsl() {
        let p = default_params();
        let adsl = crate::adsl::default_params();
        assert!((p.subcarrier_spacing() - adsl.subcarrier_spacing()).abs() < 1e-9);
    }

    #[test]
    fn real_line_signal_and_valid_loading() {
        let load = bit_loading();
        assert_eq!(load.len(), subcarrier_map().data_count());
        assert!(load.iter().all(|m| m.is_valid()));
        let mut tx = MotherModel::new(default_params()).unwrap();
        let frame = tx.transmit(&vec![1u8; 500]).unwrap();
        for z in frame.signal().samples() {
            assert!(z.im.abs() < 1e-9);
        }
    }
}
