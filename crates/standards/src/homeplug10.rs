//! HomePlug 1.0 powerline communication.
//!
//! OFDM over the mains: 256-point real-output IFFT at 50 MHz sampling,
//! 84 used carriers between ≈4.5 and 21 MHz (tones 23–106 minus notches
//! for the amateur-radio bands), differential QPSK so no pilots or channel
//! estimation are needed on the hostile powerline channel.
//!
//! Behavioral approximations: HomePlug differentially encodes along the
//! *frequency* axis within a symbol; the Mother Model chains phases along
//! *time* per carrier (the paper's behavioral level does not distinguish
//! them — both yield non-coherent QPSK with identical spectral
//! statistics). The frame-control/preamble section is modeled as a
//! phase-reference symbol. The bit interleaver spans four OFDM symbols
//! (14×44 = 616 bits) so a powerline impulse that wipes one symbol turns
//! into scattered single errors the K=7 code corrects — HomePlug's
//! burst-protection role, at behavioral scale.

use ofdm_core::constellation::Modulation;
use ofdm_core::fec::ConvSpec;
use ofdm_core::framing::PreambleElement;
use ofdm_core::interleave::InterleaverSpec;
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::PilotSpec;
use ofdm_core::symbol::GuardInterval;
use ofdm_dsp::Complex64;

/// ADC/DAC sample rate.
pub const SAMPLE_RATE: f64 = 50.0e6;
/// IFFT length.
pub const FFT_SIZE: usize = 256;
/// Guard interval in samples (the long HomePlug GI).
pub const GUARD_SAMPLES: usize = 84;
/// First used tone (≈4.5 MHz).
pub const FIRST_TONE: i32 = 23;
/// Last used tone (≈20.9 MHz).
pub const LAST_TONE: i32 = 106;

/// Amateur-band notches (tone indices left unused).
pub const NOTCHED_TONES: [i32; 7] = [36, 51, 52, 71, 72, 91, 92];

/// The 77-tone used map (84-tone band minus notches), Hermitian for a
/// real line signal.
pub fn subcarrier_map() -> SubcarrierMap {
    let tones: Vec<i32> = (FIRST_TONE..=LAST_TONE)
        .filter(|t| !NOTCHED_TONES.contains(t))
        .collect();
    SubcarrierMap::new(FFT_SIZE, tones, true).expect("static HomePlug map is valid")
}

/// Phase-reference cells seeding the differential chain (all-ones).
pub fn phase_reference() -> Vec<(i32, Complex64)> {
    subcarrier_map()
        .data_carriers()
        .iter()
        .map(|&t| (t, Complex64::ONE))
        .collect()
}

/// The HomePlug 1.0 parameter set (DQPSK payload mode).
pub fn default_params() -> OfdmParams {
    OfdmParams::builder("HomePlug 1.0 (DQPSK)")
        .sample_rate(SAMPLE_RATE)
        .map(subcarrier_map())
        .guard(GuardInterval::Samples(GUARD_SAMPLES))
        .modulation(Modulation::Qpsk)
        .differential(true)
        .pilots(PilotSpec::None)
        .conv_code(ConvSpec::k7_rate_three_quarters())
        .interleaver(InterleaverSpec::BlockRowCol { rows: 14, cols: 44 })
        .preamble_element(PreambleElement::FreqDomain {
            cells: phase_reference(),
        })
        .build()
        .expect("HomePlug preset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::MotherModel;

    #[test]
    fn band_structure() {
        let m = subcarrier_map();
        assert_eq!(m.data_count(), 84 - 7);
        assert!(m.is_hermitian());
        // Tone 23 at 50 MHz / 256 × 23 ≈ 4.49 MHz.
        let spacing = SAMPLE_RATE / FFT_SIZE as f64;
        assert!((spacing * FIRST_TONE as f64 - 4.49e6).abs() < 0.05e6);
        assert!((spacing * LAST_TONE as f64 - 20.7e6).abs() < 0.2e6);
    }

    #[test]
    fn notches_are_skipped() {
        let m = subcarrier_map();
        for t in NOTCHED_TONES {
            assert!(!m.data_carriers().contains(&t), "tone {t}");
        }
    }

    #[test]
    fn line_signal_real_and_differential() {
        let mut tx = MotherModel::new(default_params()).unwrap();
        let frame = tx.transmit(&vec![1u8; 300]).unwrap();
        for z in frame.signal().samples() {
            assert!(z.im.abs() < 1e-9);
        }
        // DQPSK cells stay unit-modulus.
        for cells in frame.symbol_cells() {
            for &(_, v) in cells {
                assert!((v.abs() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn frame_layout() {
        let mut tx = MotherModel::new(default_params()).unwrap();
        let frame = tx.transmit(&[0u8; 154]).unwrap();
        // Preamble symbol + data symbols, each 256+84 samples.
        assert_eq!(frame.signal().len() % (256 + 84), 0);
    }
}
