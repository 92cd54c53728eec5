//! Channel estimation and one-tap equalization.
//!
//! OFDM's defining property: after the FFT, a dispersive channel (shorter
//! than the guard) is a single complex gain per subcarrier. Least-squares
//! estimates at known cells (pilots or a reference symbol) plus linear
//! interpolation across carriers give the classic frequency-domain
//! equalizer.

use ofdm_dsp::Complex64;
use std::collections::BTreeMap;

/// A per-carrier channel estimate.
#[derive(Debug, Clone, Default)]
pub struct ChannelEstimate {
    /// Carrier → complex channel gain.
    gains: BTreeMap<i32, Complex64>,
}

impl ChannelEstimate {
    /// An empty (identity) estimate.
    pub fn new() -> Self {
        ChannelEstimate::default()
    }

    /// Least-squares estimation: `H(k) = received(k) / reference(k)` at
    /// each known cell. Reference cells with (near-)zero magnitude are
    /// skipped.
    pub fn from_reference(received: &[(i32, Complex64)], reference: &[(i32, Complex64)]) -> Self {
        // Reference cells sorted by carrier; reversing first makes the
        // stable sort put a repeated carrier's last cell first, which is
        // the one the dedup keeps.
        let mut cells = reference.to_vec();
        cells.reverse();
        cells.sort_by_key(|&(k, _)| k);
        cells.dedup_by_key(|&mut (k, _)| k);
        // Collected in one bulk build; a repeated carrier keeps its last
        // estimate, as repeated inserts would.
        let gains = received
            .iter()
            .filter_map(|&(k, r)| {
                let x = cells[cells.binary_search_by_key(&k, |&(k, _)| k).ok()?].1;
                (x.abs() > 1e-12).then(|| (k, r * x.inv()))
            })
            .collect();
        ChannelEstimate { gains }
    }

    /// Number of carriers with direct estimates.
    pub fn len(&self) -> usize {
        self.gains.len()
    }

    /// Returns `true` if no estimates exist (identity channel assumed).
    pub fn is_empty(&self) -> bool {
        self.gains.is_empty()
    }

    /// The estimated gain at carrier `k`: exact where known, linearly
    /// interpolated between the nearest known carriers, nearest-neighbour
    /// extrapolated at the band edges, identity if empty.
    pub fn gain_at(&self, k: i32) -> Complex64 {
        if let Some(&g) = self.gains.get(&k) {
            return g;
        }
        let below = self.gains.range(..k).next_back();
        let above = self.gains.range(k..).next();
        match (below, above) {
            (Some((&ka, &ga)), Some((&kb, &gb))) => {
                let t = (k - ka) as f64 / (kb - ka) as f64;
                ga.scale(1.0 - t) + gb.scale(t)
            }
            (Some((_, &g)), None) | (None, Some((_, &g))) => g,
            (None, None) => Complex64::ONE,
        }
    }

    /// Merges in newer estimates (e.g. accumulating scattered pilots over
    /// several symbols), overwriting duplicates.
    pub fn merge(&mut self, other: &ChannelEstimate) {
        for (&k, &g) in &other.gains {
            self.gains.insert(k, g);
        }
    }
}

/// Accumulates least-squares channel observations over many symbols —
/// `H(k) = Σ Y(k)·X*(k) / Σ |X(k)|²` — driving estimation noise down by
/// the number of observations (training uses tens of symbols; a
/// single-symbol estimate caps post-equalization SNR at the per-symbol
/// SNR).
#[derive(Debug, Clone, Default)]
pub struct ChannelEstimator {
    num: BTreeMap<i32, Complex64>,
    den: BTreeMap<i32, f64>,
}

impl ChannelEstimator {
    /// An empty accumulator.
    pub fn new() -> Self {
        ChannelEstimator::default()
    }

    /// Adds one symbol's received cells against its known reference.
    pub fn accumulate(&mut self, received: &[(i32, Complex64)], reference: &[(i32, Complex64)]) {
        let ref_map: BTreeMap<i32, Complex64> = reference.iter().copied().collect();
        for &(k, r) in received {
            if let Some(&x) = ref_map.get(&k) {
                *self.num.entry(k).or_insert(Complex64::ZERO) += r * x.conj();
                *self.den.entry(k).or_insert(0.0) += x.norm_sqr();
            }
        }
    }

    /// Number of carriers with observations.
    pub fn len(&self) -> usize {
        self.num.len()
    }

    /// Returns `true` if nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.num.is_empty()
    }

    /// Finalizes the averaged estimate.
    pub fn estimate(&self) -> ChannelEstimate {
        let mut gains = BTreeMap::new();
        for (&k, &n) in &self.num {
            let d = self.den[&k];
            if d > 1e-12 {
                gains.insert(k, n / d);
            }
        }
        ChannelEstimate { gains }
    }
}

/// Equalizes received cells with a channel estimate: `X̂(k) = Y(k)/H(k)`.
///
/// Gains below `1e-9` in magnitude are left unequalized (deep-null
/// carriers would otherwise blow up).
pub fn equalize(cells: &[(i32, Complex64)], est: &ChannelEstimate) -> Vec<(i32, Complex64)> {
    cells
        .iter()
        .map(|&(k, y)| {
            let h = est.gain_at(k);
            if h.abs() > 1e-9 {
                (k, y * h.inv())
            } else {
                (k, y)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(pairs: &[(i32, f64, f64)]) -> Vec<(i32, Complex64)> {
        pairs
            .iter()
            .map(|&(k, re, im)| (k, Complex64::new(re, im)))
            .collect()
    }

    #[test]
    fn ls_estimate_exact_on_known_cells() {
        let reference = cells(&[(1, 1.0, 0.0), (5, 0.0, 1.0)]);
        let h = Complex64::new(0.5, 0.5);
        let received: Vec<(i32, Complex64)> = reference.iter().map(|&(k, x)| (k, x * h)).collect();
        let est = ChannelEstimate::from_reference(&received, &reference);
        assert_eq!(est.len(), 2);
        assert!((est.gain_at(1) - h).abs() < 1e-12);
        assert!((est.gain_at(5) - h).abs() < 1e-12);
    }

    #[test]
    fn unsorted_and_repeated_cells_keep_the_last() {
        // A repeated carrier uses its last reference cell and its last
        // received cell, whatever the order; unmatched carriers are dropped.
        let reference = cells(&[(7, 1.0, 0.0), (2, 4.0, 0.0), (7, 2.0, 0.0), (2, 0.5, 0.0)]);
        let received = cells(&[(2, 1.0, 0.0), (9, 1.0, 0.0), (7, 6.0, 0.0), (2, 3.0, 0.0)]);
        let est = ChannelEstimate::from_reference(&received, &reference);
        assert_eq!(est.len(), 2);
        assert_eq!(est.gain_at(2), Complex64::new(6.0, 0.0));
        assert_eq!(est.gain_at(7), Complex64::new(3.0, 0.0));
    }

    #[test]
    fn interpolation_between_pilots() {
        let reference = cells(&[(0, 1.0, 0.0), (10, 1.0, 0.0)]);
        let received = cells(&[(0, 1.0, 0.0), (10, 3.0, 0.0)]);
        let est = ChannelEstimate::from_reference(&received, &reference);
        // Halfway: gain 2.0.
        assert!((est.gain_at(5) - Complex64::new(2.0, 0.0)).abs() < 1e-12);
        // Edge extrapolation: nearest neighbour.
        assert!((est.gain_at(-5) - Complex64::ONE).abs() < 1e-12);
        assert!((est.gain_at(15) - Complex64::new(3.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_estimate_is_identity() {
        let est = ChannelEstimate::new();
        assert!(est.is_empty());
        assert_eq!(est.gain_at(7), Complex64::ONE);
    }

    #[test]
    fn zero_reference_cells_skipped() {
        let reference = cells(&[(1, 0.0, 0.0), (2, 1.0, 0.0)]);
        let received = cells(&[(1, 5.0, 0.0), (2, 2.0, 0.0)]);
        let est = ChannelEstimate::from_reference(&received, &reference);
        assert_eq!(est.len(), 1);
    }

    #[test]
    fn equalization_inverts_channel() {
        let reference = cells(&[(1, 1.0, 0.0), (2, 0.0, 1.0), (3, -1.0, 0.0)]);
        let h = Complex64::from_polar(2.0, 0.7);
        let received: Vec<(i32, Complex64)> = reference.iter().map(|&(k, x)| (k, x * h)).collect();
        let est = ChannelEstimate::from_reference(&received, &reference);
        let eq = equalize(&received, &est);
        for (e, r) in eq.iter().zip(&reference) {
            assert!((e.1 - r.1).abs() < 1e-12);
        }
    }

    #[test]
    fn deep_null_left_alone() {
        let mut est = ChannelEstimate::new();
        est.merge(&ChannelEstimate::from_reference(
            &cells(&[(1, 0.0, 0.0)]),
            &cells(&[(1, 1.0, 0.0)]),
        ));
        let y = cells(&[(1, 0.3, 0.0)]);
        let eq = equalize(&y, &est);
        assert_eq!(eq[0].1, y[0].1);
    }

    #[test]
    fn estimator_averages_down_noise() {
        // A fixed channel observed under alternating ± noise: averaging
        // two observations cancels it exactly; a single one would not.
        let h = Complex64::new(0.8, -0.3);
        let reference = cells(&[(4, 1.0, 0.0)]);
        let noisy =
            |sign: f64| -> Vec<(i32, Complex64)> { vec![(4, h + Complex64::new(sign * 0.2, 0.0))] };
        let mut est = ChannelEstimator::new();
        assert!(est.is_empty());
        est.accumulate(&noisy(1.0), &reference);
        est.accumulate(&noisy(-1.0), &reference);
        assert_eq!(est.len(), 1);
        let e = est.estimate();
        assert!((e.gain_at(4) - h).abs() < 1e-12);
    }

    #[test]
    fn estimator_weights_by_reference_energy() {
        // LS weighting: a strong reference cell dominates the average.
        let mut est = ChannelEstimator::new();
        est.accumulate(
            &cells(&[(1, 2.0, 0.0)]),
            &cells(&[(1, 2.0, 0.0)]), // H = 1, weight 4
        );
        est.accumulate(
            &cells(&[(1, 3.0, 0.0)]),
            &cells(&[(1, 1.0, 0.0)]), // H = 3, weight 1
        );
        let e = est.estimate();
        // (2·2 + 3·1)/(4 + 1) = 1.4.
        assert!((e.gain_at(1).re - 1.4).abs() < 1e-12);
    }

    #[test]
    fn merge_overwrites_and_extends() {
        let mut a =
            ChannelEstimate::from_reference(&cells(&[(1, 2.0, 0.0)]), &cells(&[(1, 1.0, 0.0)]));
        let b = ChannelEstimate::from_reference(
            &cells(&[(1, 4.0, 0.0), (3, 6.0, 0.0)]),
            &cells(&[(1, 1.0, 0.0), (3, 1.0, 0.0)]),
        );
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!((a.gain_at(1) - Complex64::new(4.0, 0.0)).abs() < 1e-12);
    }
}
