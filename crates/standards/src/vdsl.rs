//! VDSL DMT (ITU-T G.993.1-style) — very-high-rate DSL.
//!
//! The same DMT mechanism as ADSL again, scaled another 8×: a 8192-point
//! IFFT over 4096 tones at 4.3125 kHz spacing (35.328 MHz line rate).
//! The band plan interleaves downstream and upstream bands; this preset
//! models the first downstream band (tones 33–1971, ≈0.14–8.5 MHz) —
//! the per-band structure is a parameter, not a new model.

use ofdm_core::constellation::Modulation;
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::PilotSpec;
use ofdm_core::scramble::ScramblerSpec;
use ofdm_core::symbol::GuardInterval;
use ofdm_dsp::Complex64;

/// Line sample rate: 8192 × 4.3125 kHz.
pub const SAMPLE_RATE: f64 = 35.328e6;
/// IFFT length.
pub const FFT_SIZE: usize = 8192;
/// Cyclic extension in samples.
pub const GUARD_SAMPLES: usize = 640;
/// First tone of the modeled downstream band (DS1).
pub const FIRST_TONE: i32 = 33;
/// Last tone of the modeled downstream band (DS1 edge ≈ 8.5 MHz).
pub const LAST_TONE: i32 = 1971;
/// The pilot tone.
pub const PILOT_TONE: i32 = 64;

/// The DS1 downstream tone set.
pub fn subcarrier_map() -> SubcarrierMap {
    let tones: Vec<i32> = (FIRST_TONE..=LAST_TONE)
        .filter(|&t| t != PILOT_TONE)
        .collect();
    SubcarrierMap::new(FFT_SIZE, tones, true).expect("static VDSL map is valid")
}

/// Bit loading tapering from 14 to 2 bits across DS1.
pub fn bit_loading() -> Vec<Modulation> {
    subcarrier_map()
        .data_carriers()
        .iter()
        .map(|&t| {
            let span = (LAST_TONE - FIRST_TONE) as f64;
            let frac = (t - FIRST_TONE) as f64 / span;
            let bits = (14.0 - 12.0 * frac).round().clamp(2.0, 14.0) as u8;
            Modulation::from_bits(bits)
        })
        .collect()
}

/// The VDSL downstream parameter set.
pub fn default_params() -> OfdmParams {
    OfdmParams::builder("VDSL (G.993.1) downstream DS1")
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
        .expect("VDSL preset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::MotherModel;

    #[test]
    fn same_tone_spacing_as_the_adsl_family() {
        let p = default_params();
        assert!((p.subcarrier_spacing() - 4312.5).abs() < 1e-6);
    }

    #[test]
    fn large_fft_structure() {
        let m = subcarrier_map();
        assert_eq!(m.fft_size(), 8192);
        assert!(m.is_hermitian());
        assert_eq!(m.data_count(), (1971 - 33 + 1) - 1);
    }

    #[test]
    fn transmits_real_wideband_frame() {
        let mut tx = MotherModel::new(default_params()).unwrap();
        let frame = tx.transmit(&vec![1u8; 1000]).unwrap();
        assert_eq!(frame.symbol_count(), 1); // thousands of bits fit one symbol
        assert_eq!(frame.signal().len(), FFT_SIZE + GUARD_SAMPLES);
        for z in frame.signal().samples().iter().step_by(97) {
            assert!(z.im.abs() < 1e-9);
        }
    }
}
