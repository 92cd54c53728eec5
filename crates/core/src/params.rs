//! The Mother Model parameter set.
//!
//! [`OfdmParams`] is the paper's central artifact: *the* description of a
//! standard. Reconfiguring the transmitter from 802.11a to DRM to ADSL is
//! nothing but swapping this (serializable) value — the engine code in
//! [`crate::tx`] never changes.

use crate::constellation::Modulation;
use crate::error::ConfigError;
use crate::fec::ConvSpec;
use crate::framing::PreambleElement;
use crate::interleave::InterleaverSpec;
use crate::map::SubcarrierMap;
use crate::pilots::PilotSpec;
use crate::scramble::ScramblerSpec;
use crate::symbol::GuardInterval;
use serde::{Deserialize, Serialize};

/// How data carriers are modulated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModulationPlan {
    /// Every data carrier uses the same constellation (wireless standards).
    Uniform(Modulation),
    /// Per-carrier bit loading, aligned with the sorted data-carrier list
    /// (the DMT family: ADSL/ADSL2+/VDSL water-filling tables).
    PerCarrier(Vec<Modulation>),
}

impl ModulationPlan {
    /// The constellation for the data carrier at position `idx` in the
    /// sorted carrier list.
    pub fn modulation_at(&self, idx: usize) -> Modulation {
        match self {
            ModulationPlan::Uniform(m) => *m,
            ModulationPlan::PerCarrier(v) => v[idx % v.len().max(1)],
        }
    }

    /// Total bits per fully loaded OFDM symbol given `n_data` carriers.
    pub fn bits_per_symbol(&self, n_data: usize) -> usize {
        match self {
            ModulationPlan::Uniform(m) => n_data * m.bits_per_symbol(),
            ModulationPlan::PerCarrier(v) => {
                v.iter().take(n_data).map(|m| m.bits_per_symbol()).sum()
            }
        }
    }
}

/// Outer Reed–Solomon code dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RsOuterSpec {
    /// Codeword length in bytes (≤ 255).
    pub n: usize,
    /// Message length in bytes.
    pub k: usize,
}

/// The complete reconfiguration parameter set of the Mother Model.
///
/// Use [`OfdmParamsBuilder`] (via [`OfdmParams::builder`]) to construct
/// one; `MotherModel::new` validates it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OfdmParams {
    /// Human-readable configuration name ("IEEE 802.11a", …).
    pub name: String,
    /// Baseband sample rate in Hz at the IFFT output.
    pub sample_rate: f64,
    /// Subcarrier allocation.
    pub map: SubcarrierMap,
    /// Guard-interval (cyclic prefix) length.
    pub guard: GuardInterval,
    /// Raised-cosine edge taper length in samples (0 = rectangular).
    pub taper_len: usize,
    /// Data-carrier constellation plan.
    pub modulation: ModulationPlan,
    /// Differential encoding across symbols per carrier (DAB, HomePlug).
    pub differential: bool,
    /// Pilot configuration.
    pub pilots: PilotSpec,
    /// Payload scrambler / energy dispersal.
    pub scrambler: Option<ScramblerSpec>,
    /// Outer Reed–Solomon code (DVB-T, 802.16a).
    pub rs_outer: Option<RsOuterSpec>,
    /// Inner convolutional code with puncturing.
    pub conv_code: Option<ConvSpec>,
    /// Bit interleaver.
    pub interleaver: InterleaverSpec,
    /// Frame preamble elements, transmitted in order before data symbols.
    pub preamble: Vec<PreambleElement>,
}

impl OfdmParams {
    /// Starts a builder.
    pub fn builder(name: impl Into<String>) -> OfdmParamsBuilder {
        OfdmParamsBuilder::new(name)
    }

    /// Validates cross-parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found; see [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.sample_rate > 0.0 && self.sample_rate.is_finite()) {
            return Err(ConfigError::BadSampleRate(self.sample_rate));
        }
        let n = self.map.fft_size();
        let half = (n / 2) as i32;
        // Pilot carriers must fit the grid (and the Hermitian half-grid).
        let pilot_carriers: Vec<i32> = match &self.pilots {
            PilotSpec::None => Vec::new(),
            PilotSpec::Fixed(cells) => cells.iter().map(|c| c.0).collect(),
            PilotSpec::SymbolPolarity {
                carriers,
                signs,
                lfsr,
                ..
            } => {
                if carriers.len() != signs.len() {
                    return Err(ConfigError::Invalid(
                        "pilot carriers and signs must have equal length".into(),
                    ));
                }
                lfsr.validate()?;
                carriers.clone()
            }
            PilotSpec::ScatteredGrid {
                used_min,
                used_max,
                spacing,
                carrier_lfsr,
                ..
            } => {
                if *spacing == 0 {
                    return Err(ConfigError::Invalid("pilot spacing must be nonzero".into()));
                }
                carrier_lfsr.validate()?;
                vec![*used_min, *used_max]
            }
        };
        if let Some(scrambler) = &self.scrambler {
            scrambler.lfsr.validate()?;
        }
        for &k in &pilot_carriers {
            if self.map.is_hermitian() {
                if k < 1 || k >= half {
                    return Err(ConfigError::HermitianCarrierInvalid { carrier: k });
                }
            } else if k < -half || k >= half {
                return Err(ConfigError::CarrierOutOfRange {
                    carrier: k,
                    fft_size: n,
                });
            }
        }
        // Per-carrier tables must match the data-carrier count.
        if let ModulationPlan::PerCarrier(table) = &self.modulation {
            if table.len() != self.map.data_count() {
                return Err(ConfigError::ModulationTableMismatch {
                    got: table.len(),
                    expected: self.map.data_count(),
                });
            }
            if let Some(bad) = table.iter().find(|m| !m.is_valid()) {
                return Err(ConfigError::Invalid(format!("invalid modulation {bad:?}")));
            }
        }
        if let ModulationPlan::Uniform(m) = &self.modulation {
            if !m.is_valid() {
                return Err(ConfigError::Invalid(format!("invalid modulation {m:?}")));
            }
        }
        // Differential modulation needs a phase reference in the preamble.
        if self.differential && !self.preamble.iter().any(|e| e.reference_cells().is_some()) {
            return Err(ConfigError::DifferentialNeedsReference);
        }
        // RS dimensions.
        if let Some(rs) = &self.rs_outer {
            if !(rs.k > 0 && rs.k < rs.n && rs.n <= 255 && (rs.n - rs.k) % 2 == 0) {
                return Err(ConfigError::Invalid(format!(
                    "invalid RS({}, {}) outer code",
                    rs.n, rs.k
                )));
            }
        }
        Ok(())
    }

    /// Bits carried by one fully loaded data symbol **ignoring** scattered
    /// pilots displacing data carriers (exact per-symbol capacity comes
    /// from the transmitter, which knows each symbol's pilot set).
    pub fn nominal_bits_per_symbol(&self) -> usize {
        self.modulation.bits_per_symbol(self.map.data_count())
    }

    /// OFDM symbol duration in seconds (guard + useful part, ignoring the
    /// shared taper overlap).
    pub fn symbol_duration(&self) -> f64 {
        let n = self.map.fft_size();
        (n + self.guard.samples(n)) as f64 / self.sample_rate
    }

    /// Subcarrier spacing in Hz.
    pub fn subcarrier_spacing(&self) -> f64 {
        self.sample_rate / self.map.fft_size() as f64
    }
}

/// Builder for [`OfdmParams`] (C-BUILDER): defaults give an uncoded QPSK
/// system with no pilots, no preamble and a rectangular 1/4 guard.
#[derive(Debug, Clone)]
pub struct OfdmParamsBuilder {
    name: String,
    sample_rate: f64,
    map: Option<SubcarrierMap>,
    guard: GuardInterval,
    taper_len: usize,
    modulation: ModulationPlan,
    differential: bool,
    pilots: PilotSpec,
    scrambler: Option<ScramblerSpec>,
    rs_outer: Option<RsOuterSpec>,
    conv_code: Option<ConvSpec>,
    interleaver: InterleaverSpec,
    preamble: Vec<PreambleElement>,
}

impl OfdmParamsBuilder {
    fn new(name: impl Into<String>) -> Self {
        OfdmParamsBuilder {
            name: name.into(),
            sample_rate: 1.0,
            map: None,
            guard: GuardInterval::Fraction(1, 4),
            taper_len: 0,
            modulation: ModulationPlan::Uniform(Modulation::Qpsk),
            differential: false,
            pilots: PilotSpec::None,
            scrambler: None,
            rs_outer: None,
            conv_code: None,
            interleaver: InterleaverSpec::None,
            preamble: Vec::new(),
        }
    }

    /// Sets the baseband sample rate in Hz.
    pub fn sample_rate(mut self, hz: f64) -> Self {
        self.sample_rate = hz;
        self
    }

    /// Sets the subcarrier map (required).
    pub fn map(mut self, map: SubcarrierMap) -> Self {
        self.map = Some(map);
        self
    }

    /// Sets the guard interval.
    pub fn guard(mut self, guard: GuardInterval) -> Self {
        self.guard = guard;
        self
    }

    /// Sets the raised-cosine taper length in samples.
    pub fn taper(mut self, len: usize) -> Self {
        self.taper_len = len;
        self
    }

    /// Uses one constellation on every data carrier.
    pub fn modulation(mut self, m: Modulation) -> Self {
        self.modulation = ModulationPlan::Uniform(m);
        self
    }

    /// Uses a per-carrier bit-loading table.
    pub fn bit_loading(mut self, table: Vec<Modulation>) -> Self {
        self.modulation = ModulationPlan::PerCarrier(table);
        self
    }

    /// Enables differential encoding across symbols.
    pub fn differential(mut self, on: bool) -> Self {
        self.differential = on;
        self
    }

    /// Sets the pilot configuration.
    pub fn pilots(mut self, pilots: PilotSpec) -> Self {
        self.pilots = pilots;
        self
    }

    /// Enables the payload scrambler.
    pub fn scrambler(mut self, spec: ScramblerSpec) -> Self {
        self.scrambler = Some(spec);
        self
    }

    /// Enables an outer Reed–Solomon code.
    pub fn rs_outer(mut self, n: usize, k: usize) -> Self {
        self.rs_outer = Some(RsOuterSpec { n, k });
        self
    }

    /// Enables the inner convolutional code.
    pub fn conv_code(mut self, spec: ConvSpec) -> Self {
        self.conv_code = Some(spec);
        self
    }

    /// Sets the bit interleaver.
    pub fn interleaver(mut self, spec: InterleaverSpec) -> Self {
        self.interleaver = spec;
        self
    }

    /// Appends a preamble element.
    pub fn preamble_element(mut self, element: PreambleElement) -> Self {
        self.preamble.push(element);
        self
    }

    /// Finalizes and validates the parameter set.
    ///
    /// # Errors
    ///
    /// Anything [`OfdmParams::validate`] reports, plus
    /// [`ConfigError::Invalid`] if no subcarrier map was supplied.
    pub fn build(self) -> Result<OfdmParams, ConfigError> {
        let map = self
            .map
            .ok_or_else(|| ConfigError::Invalid("a subcarrier map is required".into()))?;
        let params = OfdmParams {
            name: self.name,
            sample_rate: self.sample_rate,
            map,
            guard: self.guard,
            taper_len: self.taper_len,
            modulation: self.modulation,
            differential: self.differential,
            pilots: self.pilots,
            scrambler: self.scrambler,
            rs_outer: self.rs_outer,
            conv_code: self.conv_code,
            interleaver: self.interleaver,
            preamble: self.preamble,
        };
        params.validate()?;
        Ok(params)
    }
}

/// Ready-made small configurations for tests and documentation examples.
pub mod presets {
    use super::*;

    /// A small, fast configuration: 64-point FFT, 12 QPSK carriers, 1/4
    /// guard, no coding — handy for unit tests and doc examples.
    pub fn minimal_test_params() -> OfdmParams {
        OfdmParams::builder("minimal-test")
            .sample_rate(1.0e6)
            .map(SubcarrierMap::contiguous(64, -6, 6, false).expect("valid static map"))
            .guard(GuardInterval::Fraction(1, 4))
            .modulation(Modulation::Qpsk)
            .build()
            .expect("preset is valid by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pilots::{ieee80211a_pilots, LfsrSpec};

    fn base_builder() -> OfdmParamsBuilder {
        OfdmParams::builder("test")
            .sample_rate(20e6)
            .map(SubcarrierMap::contiguous(64, -26, 26, false).unwrap())
    }

    #[test]
    fn minimal_preset_is_valid() {
        let p = presets::minimal_test_params();
        assert!(p.validate().is_ok());
        assert_eq!(p.map.data_count(), 12);
        assert_eq!(p.nominal_bits_per_symbol(), 24);
    }

    #[test]
    fn builder_round_trips_fields() {
        let p = base_builder()
            .guard(GuardInterval::Samples(16))
            .taper(4)
            .modulation(Modulation::Qam(4))
            .pilots(ieee80211a_pilots())
            .scrambler(ScramblerSpec::ieee80211())
            .conv_code(ConvSpec::k7_rate_half())
            .interleaver(InterleaverSpec::Ieee80211 {
                n_cbps: 96,
                n_bpsc: 2,
            })
            .build()
            .unwrap();
        assert_eq!(p.name, "test");
        assert_eq!(p.taper_len, 4);
        assert!(p.conv_code.is_some());
        assert!((p.symbol_duration() - 4e-6).abs() < 1e-12);
        assert!((p.subcarrier_spacing() - 312_500.0).abs() < 1e-9);
    }

    #[test]
    fn missing_map_rejected() {
        let err = OfdmParams::builder("x").build().unwrap_err();
        assert!(matches!(err, ConfigError::Invalid(_)));
    }

    #[test]
    fn bad_sample_rate_rejected() {
        let err = base_builder().sample_rate(0.0).build().unwrap_err();
        assert_eq!(err, ConfigError::BadSampleRate(0.0));
    }

    #[test]
    fn pilot_out_of_grid_rejected() {
        let spec = PilotSpec::Fixed(vec![(40, ofdm_dsp::Complex64::ONE)]);
        let err = base_builder().pilots(spec).build().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::CarrierOutOfRange { carrier: 40, .. }
        ));
    }

    #[test]
    fn pilot_sign_length_mismatch_rejected() {
        let spec = PilotSpec::SymbolPolarity {
            carriers: vec![-7, 7],
            signs: vec![1.0],
            boost: 1.0,
            lfsr: LfsrSpec::ieee80211_polarity(),
        };
        assert!(base_builder().pilots(spec).build().is_err());
    }

    #[test]
    fn per_carrier_table_must_match() {
        let err = base_builder()
            .bit_loading(vec![Modulation::Qpsk; 5])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ModulationTableMismatch {
                got: 5,
                expected: 52
            }
        );
    }

    #[test]
    fn differential_requires_reference() {
        let err = base_builder().differential(true).build().unwrap_err();
        assert_eq!(err, ConfigError::DifferentialNeedsReference);

        let ok = base_builder()
            .differential(true)
            .preamble_element(PreambleElement::FreqDomain {
                cells: vec![(1, ofdm_dsp::Complex64::ONE)],
            })
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn invalid_rs_rejected() {
        assert!(base_builder().rs_outer(204, 205).build().is_err());
        assert!(base_builder().rs_outer(300, 100).build().is_err());
        assert!(base_builder().rs_outer(204, 187).build().is_err());
        assert!(base_builder().rs_outer(204, 188).build().is_ok());
    }

    #[test]
    fn invalid_modulation_rejected() {
        assert!(base_builder()
            .modulation(Modulation::Qam(20))
            .build()
            .is_err());
        let table = vec![Modulation::Qam(0); 52];
        assert!(base_builder().bit_loading(table).build().is_err());
    }

    #[test]
    fn modulation_plan_bit_accounting() {
        let uni = ModulationPlan::Uniform(Modulation::Qam(6));
        assert_eq!(uni.bits_per_symbol(48), 288);
        assert_eq!(uni.modulation_at(11), Modulation::Qam(6));
        let table = vec![Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam(4)];
        let per = ModulationPlan::PerCarrier(table);
        assert_eq!(per.bits_per_symbol(3), 7);
        assert_eq!(per.modulation_at(2), Modulation::Qam(4));
    }

    #[test]
    fn scattered_pilot_spacing_zero_rejected() {
        let spec = PilotSpec::ScatteredGrid {
            used_min: -10,
            used_max: 10,
            spacing: 0,
            shift: 1,
            period: 1,
            continual: vec![],
            boost: 1.0,
            carrier_lfsr: LfsrSpec::dvb_wk(),
        };
        assert!(base_builder().pilots(spec).build().is_err());
    }

    #[test]
    fn malformed_lfsr_specs_are_rejected_by_validate() {
        let bad = LfsrSpec {
            order: 40,
            taps: vec![40, 3],
            seed: 1,
        };
        let no_order_tap = LfsrSpec {
            order: 7,
            taps: vec![4],
            seed: 1,
        };
        for lfsr in [bad, no_order_tap] {
            let scrambled = base_builder()
                .scrambler(ScramblerSpec { lfsr: lfsr.clone() })
                .build();
            assert!(
                matches!(scrambled, Err(ConfigError::Invalid(_))),
                "{lfsr:?}"
            );
            let polarity = PilotSpec::SymbolPolarity {
                carriers: vec![-21, 21],
                signs: vec![1.0, -1.0],
                boost: 1.0,
                lfsr: lfsr.clone(),
            };
            let piloted = base_builder().pilots(polarity).build();
            assert!(matches!(piloted, Err(ConfigError::Invalid(_))), "{lfsr:?}");
            let scattered = PilotSpec::ScatteredGrid {
                used_min: -10,
                used_max: 10,
                spacing: 3,
                shift: 1,
                period: 3,
                continual: vec![],
                boost: 1.0,
                carrier_lfsr: lfsr.clone(),
            };
            assert!(matches!(
                base_builder().pilots(scattered).build(),
                Err(ConfigError::Invalid(_))
            ));
            // The transmitter reports it as a configuration error too,
            // where it used to panic building the register.
            let mut p = presets::minimal_test_params();
            p.scrambler = Some(ScramblerSpec { lfsr: lfsr.clone() });
            assert!(matches!(
                crate::MotherModel::new(p),
                Err(ConfigError::Invalid(_))
            ));
        }
    }
}
