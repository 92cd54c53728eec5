//! DAB / Eureka-147 digital audio broadcasting (ETSI EN 300 401).
//!
//! DAB is the family's differential member: π/4-shifted DQPSK on up to
//! 1536 carriers, no pilots at all — the receiver derives phase from the
//! previous symbol. Each transmission frame opens with a *null symbol*
//! (transmitted silence, used for coarse sync and transmitter
//! identification) followed by the *phase reference symbol* that seeds the
//! differential chain.
//!
//! Behavioral approximation: the phase-reference cells use a quadratic
//! (CAZAC-style) phase profile rather than the standard's h-parameter
//! tables, and data symbols use plain DQPSK (the π/4 rotation is a
//! constant phase offset invisible to system-level RF metrics).

use ofdm_core::constellation::Modulation;
use ofdm_core::fec::ConvSpec;
use ofdm_core::framing::PreambleElement;
use ofdm_core::interleave::InterleaverSpec;
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::PilotSpec;
use ofdm_core::symbol::GuardInterval;
use ofdm_dsp::Complex64;

/// Baseband sample rate: 2.048 MHz for all transmission modes.
pub const SAMPLE_RATE: f64 = 2.048e6;

/// DAB transmission modes (ETSI EN 300 401 Table 38).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxMode {
    /// Mode I: 2048-FFT, 1536 carriers — terrestrial SFN (VHF).
    I,
    /// Mode II: 512-FFT, 384 carriers — local radio (L-band).
    II,
    /// Mode III: 256-FFT, 192 carriers — satellite/cable below 3 GHz.
    III,
    /// Mode IV: 1024-FFT, 768 carriers — L-band terrestrial.
    IV,
}

impl TxMode {
    /// All four transmission modes.
    pub const ALL: [TxMode; 4] = [TxMode::I, TxMode::II, TxMode::III, TxMode::IV];

    /// FFT length.
    pub fn fft_size(self) -> usize {
        match self {
            TxMode::I => 2048,
            TxMode::II => 512,
            TxMode::III => 256,
            TxMode::IV => 1024,
        }
    }

    /// Guard interval in samples.
    pub fn guard_samples(self) -> usize {
        match self {
            TxMode::I => 504,
            TxMode::II => 126,
            TxMode::III => 63,
            TxMode::IV => 252,
        }
    }

    /// Number of used carriers (±K/2 around DC).
    pub fn carriers(self) -> usize {
        match self {
            TxMode::I => 1536,
            TxMode::II => 384,
            TxMode::III => 192,
            TxMode::IV => 768,
        }
    }

    /// Null-symbol duration in samples.
    pub fn null_samples(self) -> usize {
        match self {
            TxMode::I => 2656,
            TxMode::II => 664,
            TxMode::III => 345,
            TxMode::IV => 1328,
        }
    }
}

/// The used-carrier map: ±carriers/2 around (and excluding) DC.
pub fn subcarrier_map(mode: TxMode) -> SubcarrierMap {
    let half = (mode.carriers() / 2) as i32;
    SubcarrierMap::contiguous(mode.fft_size(), -half, half, false).expect("static DAB map is valid")
}

/// The phase-reference cells: unit-magnitude quadratic-phase (CAZAC-like)
/// values on every used carrier.
pub fn phase_reference(mode: TxMode) -> Vec<(i32, Complex64)> {
    let half = (mode.carriers() / 2) as i32;
    (-half..=half)
        .filter(|&k| k != 0)
        .map(|k| {
            let phase = std::f64::consts::PI * (k as f64) * (k as f64) / mode.carriers() as f64;
            (k, Complex64::cis(phase))
        })
        .collect()
}

/// The DAB parameter set for a transmission mode.
pub fn params(mode: TxMode) -> OfdmParams {
    OfdmParams::builder(format!("DAB transmission mode {mode:?}"))
        .sample_rate(SAMPLE_RATE)
        .map(subcarrier_map(mode))
        .guard(GuardInterval::Samples(mode.guard_samples()))
        .modulation(Modulation::Qpsk)
        .differential(true)
        .pilots(PilotSpec::None)
        .conv_code(ConvSpec::k7_rate_half())
        .interleaver(InterleaverSpec::BlockRowCol { rows: 16, cols: 24 })
        .preamble_element(PreambleElement::Null {
            len: mode.null_samples(),
        })
        .preamble_element(PreambleElement::FreqDomain {
            cells: phase_reference(mode),
        })
        .build()
        .expect("DAB preset is valid")
}

/// The registry default: transmission mode I.
pub fn default_params() -> OfdmParams {
    params(TxMode::I)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::MotherModel;
    use ofdm_dsp::stats::mean_power;

    #[test]
    fn mode_tables() {
        assert_eq!(TxMode::I.fft_size(), 2048);
        assert_eq!(TxMode::I.carriers(), 1536);
        assert_eq!(TxMode::III.null_samples(), 345);
        assert_eq!(TxMode::ALL.len(), 4);
    }

    #[test]
    fn mode_i_symbol_duration_1246us() {
        let p = params(TxMode::I);
        // Ts = (2048 + 504)/2.048 MHz = 1.24609375 ms (≈1.246 ms).
        assert!((p.symbol_duration() - 2552.0 / 2.048e6).abs() < 1e-12);
        // 1 kHz carrier spacing.
        assert!((p.subcarrier_spacing() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn phase_reference_is_cazac_like() {
        let cells = phase_reference(TxMode::II);
        assert_eq!(cells.len(), 384);
        for (_, v) in &cells {
            assert!((v.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn frame_opens_with_null_symbol() {
        let mut tx = MotherModel::new(params(TxMode::III)).unwrap();
        let frame = tx.transmit(&[1u8; 200]).unwrap();
        let null = &frame.signal().samples()[..345];
        assert_eq!(mean_power(null), 0.0);
        // Followed by the (non-silent) phase reference symbol.
        let reference = &frame.signal().samples()[345..345 + 256 + 63];
        assert!(mean_power(reference) > 0.5);
    }

    #[test]
    fn data_cells_are_unit_modulus_dqpsk() {
        let mut tx = MotherModel::new(params(TxMode::II)).unwrap();
        let frame = tx.transmit(&vec![1u8; 1000]).unwrap();
        for cells in frame.symbol_cells() {
            assert_eq!(cells.len(), 384);
            for &(_, v) in cells {
                assert!((v.abs() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn all_modes_transmit() {
        for mode in TxMode::ALL {
            let mut tx = MotherModel::new(params(mode)).unwrap();
            let frame = tx.transmit(&vec![0u8; 300]).unwrap();
            assert!(frame.symbol_count() >= 1, "{mode:?}");
        }
    }
}
