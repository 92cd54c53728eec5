//! Digital Radio Mondiale (ETSI ES 201 980) — one of the three standards
//! the paper demonstrated in the APLAC simulator.
//!
//! DRM broadcasts digital audio in the AM bands below 30 MHz with a 12 kHz
//! baseband sample rate and four *robustness modes* trading guard length
//! against carrier count. Mode A's 288-sample useful symbol is **not a
//! power of two**: its 288 = 2⁵·3², 176 = 2⁴·11 and 112 = 2⁴·7 points are
//! why the Mother Model's FFT engine has odd-radix levels.
//!
//! Behavioral approximations (documented per DESIGN.md §2): the
//! gain/frequency/time reference cells are modeled as a boosted scattered
//! pilot grid with DRM's frequency spacing and 3-symbol time stagger;
//! exact per-cell phases from the standard's tables are not reproduced.

use ofdm_core::constellation::Modulation;
use ofdm_core::fec::ConvSpec;
use ofdm_core::interleave::InterleaverSpec;
use ofdm_core::map::SubcarrierMap;
use ofdm_core::params::OfdmParams;
use ofdm_core::pilots::{LfsrSpec, PilotSpec};
use ofdm_core::scramble::ScramblerSpec;
use ofdm_core::symbol::GuardInterval;

/// Baseband sample rate common to all robustness modes.
pub const SAMPLE_RATE: f64 = 12.0e3;

/// DRM robustness modes (ETSI ES 201 980 Table 82, 10 kHz channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RobustnessMode {
    /// Mode A: Tu = 24 ms (288 samples), Tg = 32 samples — ground-wave.
    A,
    /// Mode B: Tu = 21.33 ms (256 samples), Tg = 64 samples — sky-wave.
    B,
    /// Mode C: Tu = 14.66 ms (176 samples), Tg = 64 samples.
    C,
    /// Mode D: Tu = 9.33 ms (112 samples), Tg = 88 samples.
    D,
}

impl RobustnessMode {
    /// All four modes.
    pub const ALL: [RobustnessMode; 4] = [
        RobustnessMode::A,
        RobustnessMode::B,
        RobustnessMode::C,
        RobustnessMode::D,
    ];

    /// Useful symbol length in samples at 12 kHz.
    pub fn fft_size(self) -> usize {
        match self {
            RobustnessMode::A => 288,
            RobustnessMode::B => 256,
            RobustnessMode::C => 176,
            RobustnessMode::D => 112,
        }
    }

    /// Guard length in samples.
    pub fn guard_samples(self) -> usize {
        match self {
            RobustnessMode::A => 32,
            RobustnessMode::B => 64,
            RobustnessMode::C => 64,
            RobustnessMode::D => 88,
        }
    }

    /// Highest used carrier index for a 10 kHz channel (carriers run
    /// −kmax..kmax).
    pub fn k_max(self) -> i32 {
        match self {
            RobustnessMode::A => 102,
            RobustnessMode::B => 91,
            RobustnessMode::C => 69,
            RobustnessMode::D => 43,
        }
    }

    /// Gain-reference frequency spacing in carriers.
    pub fn pilot_spacing(self) -> u32 {
        match self {
            RobustnessMode::A => 4,
            RobustnessMode::B => 2,
            RobustnessMode::C => 2,
            RobustnessMode::D => 1,
        }
    }
}

/// The used-carrier map of a mode (DC excluded).
pub fn subcarrier_map(mode: RobustnessMode) -> SubcarrierMap {
    let k = mode.k_max();
    SubcarrierMap::contiguous(mode.fft_size(), -k, k, false).expect("static DRM map is valid")
}

/// The DRM parameter set for a robustness mode with 64-QAM MSC cells.
pub fn params(mode: RobustnessMode) -> OfdmParams {
    let k = mode.k_max();
    let spacing = mode.pilot_spacing().max(2); // ≥2 keeps data cells around
    OfdmParams::builder(format!("DRM robustness mode {mode:?} (10 kHz)"))
        .sample_rate(SAMPLE_RATE)
        .map(subcarrier_map(mode))
        .guard(GuardInterval::Samples(mode.guard_samples()))
        .modulation(Modulation::Qam(6))
        .pilots(PilotSpec::ScatteredGrid {
            used_min: -k,
            used_max: k,
            spacing: spacing * 3, // per-symbol grid; stagger fills in time
            shift: spacing,
            period: 3,
            continual: vec![],
            boost: 2f64.sqrt(), // DRM gain references are √2-boosted
            carrier_lfsr: LfsrSpec {
                order: 9,
                taps: vec![9, 5],
                seed: 0x1ff,
            },
        })
        .scrambler(ScramblerSpec::drm())
        .conv_code(ConvSpec::k7_rate_half())
        .interleaver(InterleaverSpec::BlockRowCol { rows: 10, cols: 36 })
        .build()
        .expect("DRM preset is valid")
}

/// The registry default: robustness mode A (whose 288-point transform
/// exercises the non-power-of-two FFT path).
pub fn default_params() -> OfdmParams {
    params(RobustnessMode::A)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_core::MotherModel;

    #[test]
    fn mode_table() {
        assert_eq!(RobustnessMode::A.fft_size(), 288);
        assert_eq!(RobustnessMode::D.guard_samples(), 88);
        assert_eq!(RobustnessMode::ALL.len(), 4);
        // Mode A is the non-power-of-two one.
        assert!(!288usize.is_power_of_two());
    }

    #[test]
    fn mode_a_symbol_duration() {
        let p = params(RobustnessMode::A);
        // Ts = (288 + 32)/12000 = 26.66 ms.
        assert!((p.symbol_duration() - 320.0 / 12000.0).abs() < 1e-12);
        // Carrier spacing 41.66 Hz.
        assert!((p.subcarrier_spacing() - 12000.0 / 288.0).abs() < 1e-9);
    }

    #[test]
    fn all_modes_transmit() {
        for mode in RobustnessMode::ALL {
            let mut tx = MotherModel::new(params(mode)).unwrap();
            let frame = tx.transmit(&vec![1u8; 400]).unwrap();
            assert!(frame.symbol_count() >= 1, "{mode:?}");
            let expected = frame.symbol_count() * (mode.fft_size() + mode.guard_samples());
            assert_eq!(frame.signal().len(), expected, "{mode:?}");
        }
    }

    #[test]
    fn pilots_are_boosted_and_staggered() {
        let mut tx = MotherModel::new(params(RobustnessMode::B)).unwrap();
        let frame = tx.transmit(&vec![0u8; 2000]).unwrap();
        assert!(frame.symbol_count() >= 3);
        // Boosted cells exist in every symbol and move between symbols.
        let pilot_carriers = |s: usize| -> Vec<i32> {
            frame.symbol_cells()[s]
                .iter()
                .filter(|c| (c.1.abs() - 2f64.sqrt()).abs() < 1e-9)
                .map(|c| c.0)
                .collect()
        };
        let p0 = pilot_carriers(0);
        let p1 = pilot_carriers(1);
        let p3 = pilot_carriers(3);
        assert!(!p0.is_empty());
        assert_ne!(p0, p1, "stagger moves the grid");
        assert_eq!(p0, p3, "period-3 stagger repeats");
    }

    #[test]
    fn mode_a_transmits_on_a_288_point_grid() {
        // The engine must handle the 288-point transform transparently.
        let mut tx = MotherModel::new(params(RobustnessMode::A)).unwrap();
        let frame = tx.transmit(&[1u8; 100]).unwrap();
        assert_eq!(frame.signal().len() % (288 + 32), 0);
    }
}
