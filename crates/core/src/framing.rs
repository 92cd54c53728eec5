//! Frame structure: preambles and frame assembly.
//!
//! Standards open their frames differently — 802.11a with short/long
//! training fields, DAB with a null symbol followed by a phase-reference
//! symbol, DRM with pilot-bearing first symbols, the DSL family with no
//! preamble at all in showtime. The Mother Model expresses all of them as a
//! list of [`PreambleElement`]s.

use crate::symbol::{ShapedSymbol, SymbolModulator};
use ofdm_dsp::Complex64;
use serde::{Deserialize, Serialize};

/// One element of a frame preamble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PreambleElement {
    /// Transmitted silence (the DAB null symbol).
    Null {
        /// Length in samples.
        len: usize,
    },
    /// Pre-rendered time-domain samples inserted verbatim (802.11a STF/LTF,
    /// arbitrary vendor preambles).
    TimeDomain(Vec<Complex64>),
    /// A frequency-domain symbol rendered through the configured modulator
    /// with the normal guard interval and shaping (DAB phase reference,
    /// DRM reference cells). Doubles as the phase reference for
    /// differential modulation.
    FreqDomain {
        /// `(signed carrier, cell value)` pairs.
        cells: Vec<(i32, Complex64)>,
    },
}

impl PreambleElement {
    /// Returns the frequency-domain cells if this element can serve as a
    /// differential phase reference.
    pub fn reference_cells(&self) -> Option<&[(i32, Complex64)]> {
        match self {
            PreambleElement::FreqDomain { cells } => Some(cells),
            _ => None,
        }
    }
}

/// Renders a preamble element into a shaped section ready for overlap-add
/// assembly (raw sections carry zero overlap).
pub fn render_element(element: &PreambleElement, modulator: &SymbolModulator) -> ShapedSymbol {
    match element {
        PreambleElement::Null { len } => ShapedSymbol {
            samples: vec![Complex64::ZERO; *len],
            overlap: 0,
        },
        PreambleElement::TimeDomain(samples) => ShapedSymbol {
            samples: samples.clone(),
            overlap: 0,
        },
        PreambleElement::FreqDomain { cells } => modulator.modulate(cells),
    }
}

/// Total net sample count a preamble contributes to a frame, counted
/// without rendering: a frequency-domain symbol's cyclic prefix plus body,
/// a raw section's length.
pub fn preamble_len(elements: &[PreambleElement], modulator: &SymbolModulator) -> usize {
    elements
        .iter()
        .map(|e| match e {
            PreambleElement::Null { len } => *len,
            PreambleElement::TimeDomain(samples) => samples.len(),
            PreambleElement::FreqDomain { .. } => modulator.cp_len() + modulator.fft_size(),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::GuardInterval;

    fn modulator() -> SymbolModulator {
        SymbolModulator::new(64, GuardInterval::Samples(16), 0, false).unwrap()
    }

    #[test]
    fn null_renders_silence() {
        let m = modulator();
        let s = render_element(&PreambleElement::Null { len: 100 }, &m);
        assert_eq!(s.samples.len(), 100);
        assert_eq!(s.overlap, 0);
        assert!(s.samples.iter().all(|z| z.abs() == 0.0));
    }

    #[test]
    fn time_domain_verbatim() {
        let m = modulator();
        let body = vec![Complex64::new(0.5, -0.5); 7];
        let s = render_element(&PreambleElement::TimeDomain(body.clone()), &m);
        assert_eq!(s.samples, body);
    }

    #[test]
    fn freq_domain_uses_modulator() {
        let m = modulator();
        let s = render_element(
            &PreambleElement::FreqDomain {
                cells: vec![(1, Complex64::ONE)],
            },
            &m,
        );
        assert_eq!(s.samples.len(), 80); // CP 16 + FFT 64
    }

    #[test]
    fn reference_cells_only_for_freq_domain() {
        let fd = PreambleElement::FreqDomain {
            cells: vec![(2, Complex64::I)],
        };
        assert_eq!(fd.reference_cells().unwrap().len(), 1);
        assert!(PreambleElement::Null { len: 1 }.reference_cells().is_none());
        assert!(PreambleElement::TimeDomain(vec![])
            .reference_cells()
            .is_none());
    }

    #[test]
    fn preamble_length_sums_sections() {
        let m = modulator();
        let elements = vec![
            PreambleElement::Null { len: 10 },
            PreambleElement::TimeDomain(vec![Complex64::ONE; 20]),
            PreambleElement::FreqDomain {
                cells: vec![(1, Complex64::ONE)],
            },
        ];
        assert_eq!(preamble_len(&elements, &m), 10 + 20 + 80);
        // The count is the rendered sections' net length, tapered or not.
        for taper in [0, 4] {
            let m = SymbolModulator::new(64, GuardInterval::Samples(16), taper, false).unwrap();
            let rendered: usize = elements
                .iter()
                .map(|e| render_element(e, &m).net_len())
                .sum();
            assert_eq!(preamble_len(&elements, &m), rendered, "taper {taper}");
        }
    }
}
