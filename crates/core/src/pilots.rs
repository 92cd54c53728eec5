//! Pilot-cell generation.
//!
//! Pilots are the known reference cells OFDM receivers use for channel
//! estimation and phase tracking. Across the standard family they come in
//! three mechanically different flavours, all expressible as Mother Model
//! parameters:
//!
//! * **fixed** cells — the same carriers and values every symbol (ADSL's
//!   pilot tone, 802.16a's eight fixed pilots);
//! * **symbol-polarity** pilots — fixed carriers whose common sign flips
//!   per OFDM symbol following an LFSR sequence (802.11a's `p_n`);
//! * **scattered grids** — pilot positions that sweep across the band with
//!   a per-symbol stagger and per-carrier PRBS polarity, optionally with
//!   continual (fixed-position) pilots on top (DVB-T, and a behavioral
//!   approximation of DRM's gain references).

use crate::error::ConfigError;
use ofdm_dsp::bits::Lfsr;
use ofdm_dsp::Complex64;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A serializable LFSR definition (generator polynomial taps + seed).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LfsrSpec {
    /// Register length in bits.
    pub order: u32,
    /// 1-based polynomial tap exponents.
    pub taps: Vec<u32>,
    /// Initial register contents.
    pub seed: u32,
}

impl LfsrSpec {
    /// The 802.11a scrambler generator x⁷+x⁴+1 with the all-ones seed,
    /// whose output doubles as the standard's pilot polarity sequence.
    pub fn ieee80211_polarity() -> Self {
        LfsrSpec {
            order: 7,
            taps: vec![7, 4],
            seed: 0x7f,
        }
    }

    /// The DVB-T reference PRBS x¹¹+x²+1, all-ones seed.
    pub fn dvb_wk() -> Self {
        LfsrSpec {
            order: 11,
            taps: vec![11, 2],
            seed: 0x7ff,
        }
    }

    /// The longest register a spec may describe. It bounds one period of
    /// the output at 2²⁰ − 1 bits, so a shared PRBS period table stays
    /// under 1 MiB.
    pub const MAX_ORDER: u32 = 20;

    /// Checks that the register is buildable and that its output is purely
    /// periodic.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Invalid`] if `order` is outside
    /// `1..=`[`LfsrSpec::MAX_ORDER`], if a tap is outside `1..=order` or
    /// repeated, or if the taps leave out `order` itself. Without the
    /// `order` tap the step is not invertible, the seed need not recur and
    /// the sequence has no period to tabulate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let invalid = |why: String| Err(ConfigError::Invalid(format!("LFSR {self:?}: {why}")));
        if self.order == 0 || self.order > Self::MAX_ORDER {
            return invalid(format!("order is outside 1..={}", Self::MAX_ORDER));
        }
        if let Some(t) = self.taps.iter().find(|&&t| t == 0 || t > self.order) {
            return invalid(format!("tap {t} is outside 1..=order"));
        }
        let mut taps = self.taps.clone();
        taps.sort_unstable();
        taps.dedup();
        if taps.len() != self.taps.len() {
            return invalid("a tap is repeated".into());
        }
        if !taps.contains(&self.order) {
            return invalid("the taps must include the order, or the seed never recurs".into());
        }
        Ok(())
    }

    /// Instantiates the register.
    ///
    /// # Panics
    ///
    /// Panics if `order` is 0 or above 31, or a tap is out of range.
    pub fn build(&self) -> Lfsr {
        Lfsr::new(self.order, &self.taps, self.seed)
    }

    /// One period of the register's output sequence, one bit per byte,
    /// starting from the seed: bit `i` of the endless sequence is
    /// `prbs[i % prbs.len()]`.
    ///
    /// The table is built once per spec (seed taken modulo `2^order`) and
    /// shared process-wide, like `ofdm_dsp::fft::plan`: every scrambler,
    /// transmitter and receiver on the same spec reads the same one.
    ///
    /// # Panics
    ///
    /// Panics if [`LfsrSpec::validate`] rejects the spec.
    pub(crate) fn prbs(&self) -> Arc<[u8]> {
        static TABLES: OnceLock<Mutex<HashMap<LfsrSpec, Arc<[u8]>>>> = OnceLock::new();
        self.validate()
            .expect("a PRBS table needs a valid LFSR spec");
        let key = LfsrSpec {
            seed: self.seed & ((1 << self.order) - 1),
            ..self.clone()
        };
        // Entries are inserted whole, so a poisoned map is still valid.
        let mut tables = TABLES
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(tables.entry(key).or_insert_with_key(|spec| {
            // `validate` made the step a bijection on the register's
            // states, so the seed recurs within 2^order steps.
            let mut reg = spec.build();
            let mut bits = Vec::new();
            loop {
                bits.push(reg.next_bit());
                if reg.state() == spec.seed {
                    break;
                }
            }
            bits.into()
        }))
    }
}

/// Pilot configuration of a Mother Model instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PilotSpec {
    /// No pilots (differential systems: DAB, HomePlug).
    None,
    /// The same cells every symbol: `(carrier, value)` pairs.
    Fixed(Vec<(i32, Complex64)>),
    /// Fixed `carriers` with per-carrier base `signs`; every symbol the
    /// whole set is multiplied by ±1 from the LFSR sequence (0 → +1,
    /// 1 → −1) and scaled by `boost`.
    SymbolPolarity {
        /// Pilot carriers (signed indices).
        carriers: Vec<i32>,
        /// Per-carrier base signs (±1.0), same length as `carriers`.
        signs: Vec<f64>,
        /// Amplitude boost relative to data cells.
        boost: f64,
        /// Per-symbol polarity sequence generator.
        lfsr: LfsrSpec,
    },
    /// A scattered pilot grid over `used_min..=used_max`: in symbol `s`,
    /// carriers where `(k - used_min) mod spacing == shift·(s mod period)`
    /// carry pilots, plus the `continual` carriers in every symbol. Each
    /// pilot's polarity comes from a per-carrier PRBS (DVB-T's `w_k`),
    /// amplitude scaled by `boost`.
    ScatteredGrid {
        /// Lowest used carrier.
        used_min: i32,
        /// Highest used carrier.
        used_max: i32,
        /// Distance between pilots within one symbol.
        spacing: u32,
        /// Per-symbol stagger step.
        shift: u32,
        /// Stagger period in symbols.
        period: u32,
        /// Continual pilot carriers (present every symbol).
        continual: Vec<i32>,
        /// Amplitude boost relative to data cells (DVB-T uses 4/3).
        boost: f64,
        /// Per-carrier polarity PRBS.
        carrier_lfsr: LfsrSpec,
    },
}

impl PilotSpec {
    /// Returns `true` if the configuration defines no pilot cells at all.
    pub fn is_none(&self) -> bool {
        matches!(self, PilotSpec::None)
    }
}

/// Generates the pilot cells of each OFDM symbol from a [`PilotSpec`].
///
/// All position-dependent work is done once at construction: the generator
/// precomputes a sorted cell template per position phase (the symbol index
/// modulo [`PilotGenerator::position_period`]), so the per-symbol
/// [`PilotGenerator::cells_into`] is a memcpy plus, for symbol-polarity
/// pilots, one sign flip — no filtering, sorting or allocation on the
/// streaming transmitter's hot path.
#[derive(Debug, Clone)]
pub struct PilotGenerator {
    spec: PilotSpec,
    /// For `SymbolPolarity`: the polarity register's shared PRBS period
    /// (127 bits for the 802.11a generator; empty otherwise).
    polarity: Arc<[u8]>,
    /// For `SymbolPolarity`: `2^order − 1`, the period symbol indices are
    /// taken modulo before they index `polarity`.
    polarity_period: usize,
    /// Sorted per-phase cell templates, indexed by
    /// `symbol_index % position_period`. For `SymbolPolarity` the template
    /// holds the base cells (sign × boost) before the per-symbol polarity.
    templates: Vec<Vec<(i32, Complex64)>>,
}

impl PilotGenerator {
    /// Builds a generator, precomputing PRBS-derived sequences and the
    /// per-phase cell templates.
    ///
    /// # Panics
    ///
    /// Panics if a symbol-polarity LFSR fails [`LfsrSpec::validate`]
    /// (which [`crate::params::OfdmParams::validate`] checks).
    pub fn new(spec: PilotSpec) -> Self {
        let (polarity, polarity_period) = match &spec {
            PilotSpec::SymbolPolarity { lfsr, .. } => (lfsr.prbs(), (1usize << lfsr.order) - 1),
            _ => (Arc::from([]), 1),
        };
        let templates = match &spec {
            PilotSpec::None => vec![Vec::new()],
            PilotSpec::Fixed(cells) => {
                let mut t = cells.clone();
                t.sort_by_key(|c| c.0);
                vec![t]
            }
            PilotSpec::SymbolPolarity {
                carriers,
                signs,
                boost,
                ..
            } => {
                let mut t: Vec<(i32, Complex64)> = carriers
                    .iter()
                    .zip(signs)
                    .map(|(&k, &s)| (k, Complex64::new(s * boost, 0.0)))
                    .collect();
                t.sort_by_key(|c| c.0);
                vec![t]
            }
            PilotSpec::ScatteredGrid {
                used_min,
                used_max,
                spacing,
                shift,
                period,
                continual,
                boost,
                carrier_lfsr,
            } => {
                let span = (used_max - used_min + 1) as usize;
                let mut reg = carrier_lfsr.build();
                let carrier_polarity: Vec<f64> = (0..span)
                    .map(|_| if reg.next_bit() == 0 { 1.0 } else { -1.0 })
                    .collect();
                (0..*period)
                    .map(|phase| {
                        let offset = (shift * phase) % spacing;
                        let mut cells: Vec<(i32, Complex64)> = (*used_min..=*used_max)
                            .filter(|&k| {
                                let rel = (k - used_min) as u32;
                                rel % spacing == offset || continual.contains(&k)
                            })
                            .map(|k| {
                                let rel = (k - used_min) as usize;
                                let w = carrier_polarity[rel];
                                (k, Complex64::new(w * boost, 0.0))
                            })
                            .collect();
                        cells.dedup_by_key(|c| c.0);
                        cells.sort_by_key(|c| c.0);
                        cells
                    })
                    .collect()
            }
        };
        PilotGenerator {
            spec,
            polarity,
            polarity_period,
            templates,
        }
    }

    /// The configured spec.
    pub fn spec(&self) -> &PilotSpec {
        &self.spec
    }

    /// The number of symbols after which pilot *positions* repeat (1 for
    /// fixed-position flavours, the stagger period for scattered grids).
    pub fn position_period(&self) -> usize {
        self.templates.len()
    }

    /// Appends the pilot cells of OFDM symbol `symbol_index` to `out`
    /// (sorted by carrier), without allocating: the precomputed phase
    /// template is copied, with the per-symbol polarity applied for
    /// symbol-polarity pilots.
    pub fn cells_into(&self, symbol_index: usize, out: &mut Vec<(i32, Complex64)>) {
        let template = &self.templates[symbol_index % self.templates.len()];
        match &self.spec {
            PilotSpec::SymbolPolarity { .. } => {
                // Symbol `s` takes bit `s mod (2^order − 1)` of the endless
                // register output, which the period table holds at that
                // index modulo its own (possibly shorter) length.
                let bit = (symbol_index % self.polarity_period) % self.polarity.len();
                let p = if self.polarity[bit] == 0 { 1.0 } else { -1.0 };
                // `p` is exactly ±1, so this reproduces `p·s·boost` bit for
                // bit from the template's `s·boost`.
                out.extend(
                    template
                        .iter()
                        .map(|&(k, v)| (k, Complex64::new(v.re * p, 0.0))),
                );
            }
            _ => out.extend_from_slice(template),
        }
    }

    /// The pilot cells of OFDM symbol `symbol_index`, sorted by carrier.
    pub fn cells(&self, symbol_index: usize) -> Vec<(i32, Complex64)> {
        let mut out = Vec::new();
        self.cells_into(symbol_index, &mut out);
        out
    }

    /// Just the pilot carriers of symbol `symbol_index`, sorted ascending.
    pub fn carriers(&self, symbol_index: usize) -> Vec<i32> {
        self.cells(symbol_index).into_iter().map(|c| c.0).collect()
    }
}

/// The 802.11a pilot configuration: carriers ±7, ±21 with base signs
/// (+1, +1, +1, −1) modulated by the 127-bit polarity sequence.
pub fn ieee80211a_pilots() -> PilotSpec {
    PilotSpec::SymbolPolarity {
        carriers: vec![-21, -7, 7, 21],
        signs: vec![1.0, 1.0, 1.0, -1.0],
        boost: 1.0,
        lfsr: LfsrSpec::ieee80211_polarity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prbs_is_one_period_of_the_register() {
        let specs = [
            (LfsrSpec::ieee80211_polarity(), 127),
            (LfsrSpec::dvb_wk(), 2047),
            // x⁴+x²+1 is not primitive: its cycles are shorter than 15.
            (
                LfsrSpec {
                    order: 4,
                    taps: vec![4, 2],
                    seed: 0b0001,
                },
                6,
            ),
            // The all-zero state is its own cycle.
            (
                LfsrSpec {
                    order: 9,
                    taps: vec![9, 5],
                    seed: 0x200,
                },
                1,
            ),
        ];
        for (spec, period) in specs {
            let prbs = spec.prbs();
            assert_eq!(prbs.len(), period, "{spec:?}");
            let mut reg = spec.build();
            for i in 0..3 * period + 5 {
                assert_eq!(prbs[i % period], reg.next_bit(), "{spec:?} bit {i}");
            }
            // Shared: a second request hands out the same table.
            assert!(Arc::ptr_eq(&prbs, &spec.prbs()));
        }
    }

    #[test]
    fn malformed_lfsr_specs_are_config_errors() {
        let spec = |order: u32, taps: &[u32]| LfsrSpec {
            order,
            taps: taps.to_vec(),
            seed: 1,
        };
        for bad in [
            spec(0, &[]),
            spec(40, &[40, 3]),
            spec(LfsrSpec::MAX_ORDER + 1, &[LfsrSpec::MAX_ORDER + 1, 1]),
            spec(7, &[8, 7]),
            spec(7, &[0, 7]),
            spec(7, &[4]),
            spec(7, &[7, 4, 4]),
            spec(7, &[7, 7]),
            spec(7, &[]),
        ] {
            assert!(
                matches!(bad.validate(), Err(ConfigError::Invalid(_))),
                "{bad:?}"
            );
        }
        assert_eq!(spec(LfsrSpec::MAX_ORDER, &[20, 17]).validate(), Ok(()));
        assert_eq!(spec(1, &[1]).validate(), Ok(()));
    }

    #[test]
    fn none_produces_no_cells() {
        let g = PilotGenerator::new(PilotSpec::None);
        assert!(g.cells(0).is_empty());
        assert!(g.spec().is_none());
    }

    #[test]
    fn fixed_cells_constant_over_symbols() {
        let spec = PilotSpec::Fixed(vec![(64, Complex64::new(1.0, 1.0))]);
        let g = PilotGenerator::new(spec);
        assert_eq!(g.cells(0), g.cells(17));
        assert_eq!(g.carriers(3), vec![64]);
    }

    #[test]
    fn wlan_pilot_polarity_first_symbols() {
        // 802.11a polarity sequence starts 0,0,0,0,1,1,1,0 → +,+,+,+,−,−,−,+.
        let g = PilotGenerator::new(ieee80211a_pilots());
        let signs: Vec<f64> = (0..8).map(|s| g.cells(s)[0].1.re).collect();
        // Carrier −21 has base sign +1, so cell = p_s.
        assert_eq!(signs, vec![1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0]);
        // Carrier +21 has base sign −1.
        let c21: Vec<f64> = (0..4).map(|s| g.cells(s)[3].1.re).collect();
        assert_eq!(c21, vec![-1.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn wlan_polarity_period_127() {
        let g = PilotGenerator::new(ieee80211a_pilots());
        assert_eq!(g.cells(0), g.cells(127));
        assert_ne!(g.cells(3), g.cells(4));
    }

    #[test]
    fn polarity_indexing_keeps_the_register_period_for_short_cycles() {
        // x⁴+x²+1 from seed 1 cycles every 6 bits, not 2⁴ − 1 = 15: symbol
        // `s` still takes bit `s mod 15` of the register's output, as when
        // the generator stepped the register 15 times into its own table.
        let lfsr = LfsrSpec {
            order: 4,
            taps: vec![4, 2],
            seed: 0b0001,
        };
        let g = PilotGenerator::new(PilotSpec::SymbolPolarity {
            carriers: vec![-3, 5],
            signs: vec![1.0, -1.0],
            boost: 2.0,
            lfsr: lfsr.clone(),
        });
        let mut reg = lfsr.build();
        let stepped: Vec<f64> = (0..15)
            .map(|_| if reg.next_bit() == 0 { 1.0 } else { -1.0 })
            .collect();
        for s in 0..50 {
            let p = stepped[s % 15];
            let want = vec![
                (-3, Complex64::new(2.0 * p, 0.0)),
                (5, Complex64::new(-2.0 * p, 0.0)),
            ];
            assert_eq!(g.cells(s), want, "symbol {s}");
        }
        // The wrap at 15 shows: symbol 16 takes bit 1, not bit 16 mod 6.
        assert_ne!(stepped[16 % 15], stepped[16 % 6]);
    }

    #[test]
    fn wlan_pilot_carriers_sorted() {
        let g = PilotGenerator::new(ieee80211a_pilots());
        assert_eq!(g.carriers(0), vec![-21, -7, 7, 21]);
    }

    #[test]
    fn scattered_grid_staggers_like_dvb() {
        // A miniature DVB-like grid: spacing 12, shift 3, period 4.
        let spec = PilotSpec::ScatteredGrid {
            used_min: -24,
            used_max: 24,
            spacing: 12,
            shift: 3,
            period: 4,
            continual: vec![],
            boost: 4.0 / 3.0,
            carrier_lfsr: LfsrSpec::dvb_wk(),
        };
        let g = PilotGenerator::new(spec);
        let s0 = g.carriers(0);
        let s1 = g.carriers(1);
        // Symbol 0: offset 0 → −24, −12, 0, 12, 24.
        assert_eq!(s0, vec![-24, -12, 0, 12, 24]);
        // Symbol 1: offset 3 → −21, −9, 3, 15.
        assert_eq!(s1, vec![-21, -9, 3, 15]);
        // Period 4: symbol 4 repeats symbol 0 positions.
        assert_eq!(g.carriers(4), s0);
    }

    #[test]
    fn scattered_pilots_boosted() {
        let spec = PilotSpec::ScatteredGrid {
            used_min: -12,
            used_max: 12,
            spacing: 6,
            shift: 2,
            period: 3,
            continual: vec![],
            boost: 4.0 / 3.0,
            carrier_lfsr: LfsrSpec::dvb_wk(),
        };
        let g = PilotGenerator::new(spec);
        for (_, v) in g.cells(0) {
            assert!((v.abs() - 4.0 / 3.0).abs() < 1e-12);
            assert_eq!(v.im, 0.0);
        }
    }

    #[test]
    fn continual_pilots_always_present() {
        let spec = PilotSpec::ScatteredGrid {
            used_min: -10,
            used_max: 10,
            spacing: 7,
            shift: 1,
            period: 7,
            continual: vec![5],
            boost: 1.0,
            carrier_lfsr: LfsrSpec::dvb_wk(),
        };
        let g = PilotGenerator::new(spec);
        for s in 0..14 {
            assert!(g.carriers(s).contains(&5), "symbol {s}");
        }
    }

    #[test]
    fn carrier_polarity_is_deterministic() {
        let spec = PilotSpec::ScatteredGrid {
            used_min: 0,
            used_max: 30,
            spacing: 3,
            shift: 0,
            period: 1,
            continual: vec![],
            boost: 1.0,
            carrier_lfsr: LfsrSpec::dvb_wk(),
        };
        let a = PilotGenerator::new(spec.clone());
        let b = PilotGenerator::new(spec);
        assert_eq!(a.cells(0), b.cells(0));
        // Polarity varies across carriers (the PRBS is not constant).
        let values: Vec<f64> = a.cells(0).iter().map(|c| c.1.re).collect();
        assert!(values.iter().any(|&v| v > 0.0) && values.iter().any(|&v| v < 0.0));
    }

    #[test]
    fn lfsr_spec_builders() {
        let mut r = LfsrSpec::ieee80211_polarity().build();
        assert_eq!(r.take_bits(4), vec![0, 0, 0, 0]);
        let mut d = LfsrSpec::dvb_wk().build();
        let bits = d.take_bits(2047 * 2);
        assert_eq!(&bits[..2047], &bits[2047..], "wk PRBS period 2047");
    }
}
