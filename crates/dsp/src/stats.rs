//! Signal statistics: power, dB conversions, PAPR and CCDF.

use crate::complex::Complex64;

/// Mean power of a complex sample block, `(1/N) Σ |x[n]|²`.
///
/// Returns 0.0 for an empty slice.
pub fn mean_power(x: &[Complex64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64
}

/// [`mean_power`] over split `re`/`im` component slices (structure-of-arrays
/// layout). Accumulates left to right in sample order, so it is bit-identical
/// to the interleaved version on equal data.
///
/// # Panics
///
/// Panics if the component slices have different lengths.
pub fn mean_power_split(re: &[f64], im: &[f64]) -> f64 {
    assert_eq!(re.len(), im.len(), "component length mismatch");
    if re.is_empty() {
        return 0.0;
    }
    crate::kernels::sum_power_split(re, im) / re.len() as f64
}

/// Peak instantaneous power, `max |x[n]|²`, over split `re`/`im`
/// component slices.
///
/// # Panics
///
/// Panics if the component slices have different lengths.
pub fn peak_power_split(re: &[f64], im: &[f64]) -> f64 {
    assert_eq!(re.len(), im.len(), "component length mismatch");
    re.iter()
        .zip(im)
        .map(|(&r, &i)| r * r + i * i)
        .fold(0.0, f64::max)
}

/// Peak-to-average power ratio in dB over split `re`/`im` component
/// slices.
///
/// Returns `f64::NEG_INFINITY` for an empty or all-zero block.
///
/// # Panics
///
/// Panics if the component slices have different lengths.
pub fn papr_db_split(re: &[f64], im: &[f64]) -> f64 {
    let avg = mean_power_split(re, im);
    if avg == 0.0 {
        return f64::NEG_INFINITY;
    }
    ratio_to_db(peak_power_split(re, im) / avg)
}

/// Converts a power ratio to decibels, `10 log10(r)`.
#[inline]
pub fn ratio_to_db(r: f64) -> f64 {
    10.0 * r.log10()
}

/// Converts decibels to a power ratio, `10^(db/10)`.
#[inline]
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts an amplitude ratio to decibels, `20 log10(r)`.
#[inline]
pub fn amplitude_to_db(r: f64) -> f64 {
    20.0 * r.log10()
}

/// Complementary cumulative distribution of instantaneous-to-average power.
///
/// For each threshold (in dB above average power) returns the fraction of
/// samples whose instantaneous power exceeds it — the standard OFDM PAPR
/// CCDF curve. The samples are split `re`/`im` component slices.
///
/// # Panics
///
/// Panics if the component slices have different lengths.
pub fn power_ccdf(re: &[f64], im: &[f64], thresholds_db: &[f64]) -> Vec<f64> {
    let avg = mean_power_split(re, im);
    if avg == 0.0 || re.is_empty() {
        return vec![0.0; thresholds_db.len()];
    }
    thresholds_db
        .iter()
        .map(|&t| {
            let lim = avg * db_to_ratio(t);
            let above = re.iter().zip(im).filter(|&(&r, &i)| r * r + i * i > lim);
            above.count() as f64 / re.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_unit_circle() {
        let x: Vec<Complex64> = (0..100).map(|i| Complex64::cis(i as f64 * 0.1)).collect();
        let re: Vec<f64> = x.iter().map(|z| z.re).collect();
        let im: Vec<f64> = x.iter().map(|z| z.im).collect();
        assert!((mean_power(&x) - 1.0).abs() < 1e-12);
        assert!((peak_power_split(&re, &im) - 1.0).abs() < 1e-12);
        assert!(papr_db_split(&re, &im).abs() < 1e-9);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean_power(&[]), 0.0);
        assert_eq!(mean_power_split(&[], &[]), 0.0);
        assert_eq!(papr_db_split(&[], &[]), f64::NEG_INFINITY);
    }

    #[test]
    fn split_stats_bit_identical_to_interleaved() {
        let x: Vec<Complex64> = (0..257)
            .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.41).cos()) * 1.7)
            .collect();
        let re: Vec<f64> = x.iter().map(|z| z.re).collect();
        let im: Vec<f64> = x.iter().map(|z| z.im).collect();
        assert_eq!(mean_power_split(&re, &im), mean_power(&x));
    }

    #[test]
    #[should_panic(expected = "component length mismatch")]
    fn split_stats_length_mismatch_panics() {
        let _ = mean_power_split(&[1.0], &[]);
    }

    #[test]
    fn papr_two_level() {
        // One sample at amplitude 2, three at amplitude 0 → peak 4, avg 1 → 6.02 dB.
        let re = [2.0, 0.0, 0.0, 0.0];
        assert!((papr_db_split(&re, &[0.0; 4]) - ratio_to_db(4.0)).abs() < 1e-12);
    }

    #[test]
    fn db_roundtrip() {
        for db in [-30.0, -3.0, 0.0, 10.0, 33.3] {
            assert!((ratio_to_db(db_to_ratio(db)) - db).abs() < 1e-12);
        }
        assert!((amplitude_to_db(10.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn ccdf_monotone_nonincreasing() {
        let re: Vec<f64> = (0..1000)
            .map(|i| ((i * 37) % 101) as f64 / 50.0 - 1.0)
            .collect();
        let th: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ccdf = power_ccdf(&re, &[0.0; 1000], &th);
        for w in ccdf.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(ccdf[0] <= 1.0 && *ccdf.last().unwrap() >= 0.0);
    }
}
