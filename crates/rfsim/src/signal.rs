//! Sampled complex-baseband signals in structure-of-arrays layout.
//!
//! [`Signal`] stores its real and imaginary components in two flat `f64`
//! vectors rather than one `Vec<Complex64>`. Whole-buffer kernels
//! ([`ofdm_dsp::kernels`]) operate on the split slices directly — plain
//! unit-stride `f64` loops the autovectorizer handles — while per-sample
//! callers use [`Signal::iter`] / [`Signal::get`]. Tests and inspection
//! code may read the allocating interleaved view [`Signal::samples`];
//! library code may not (see [`Signal::samples`]).

use crate::block::SimError;
use ofdm_dsp::{kernels, stats, Complex64};

/// A block of complex baseband samples tagged with its sample rate.
///
/// Signals are the only currency exchanged between simulator blocks; the
/// sample-rate tag lets the engine detect rate mismatches at connection
/// boundaries instead of silently producing wrong spectra.
///
/// # Layout
///
/// Samples live as split `re`/`im` component vectors (structure of
/// arrays). Hot-path blocks borrow them with [`Signal::parts`] /
/// [`Signal::parts_mut`] and hand them to batched kernels;
/// [`Signal::samples`] materializes an interleaved `Vec<Complex64>` copy
/// for tests and inspection.
///
/// # Example
///
/// ```
/// use rfsim::Signal;
/// use ofdm_dsp::Complex64;
///
/// let s = Signal::new(vec![Complex64::ONE; 100], 20.0e6);
/// assert_eq!(s.len(), 100);
/// assert!((s.duration() - 5.0e-6).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    re: Vec<f64>,
    im: Vec<f64>,
    sample_rate: f64,
}

fn check_rate(sample_rate: f64) -> Result<(), SimError> {
    if sample_rate > 0.0 && sample_rate.is_finite() {
        Ok(())
    } else {
        Err(SimError::InvalidSampleRate { rate: sample_rate })
    }
}

impl Signal {
    /// Creates a signal from interleaved samples and a sample rate in Hz.
    ///
    /// This is the panicking convenience over [`Signal::try_new`] for
    /// callers with statically-known-good rates (tests, literals).
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not positive and finite.
    pub fn new(samples: Vec<Complex64>, sample_rate: f64) -> Self {
        assert!(
            sample_rate > 0.0 && sample_rate.is_finite(),
            "sample rate must be positive and finite"
        );
        let mut re = Vec::with_capacity(samples.len());
        let mut im = Vec::with_capacity(samples.len());
        kernels::deinterleave(&samples, &mut re, &mut im);
        Signal {
            re,
            im,
            sample_rate,
        }
    }

    /// Creates a signal from interleaved samples, rejecting a sample rate
    /// that is not positive and finite.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSampleRate`] if the rate is zero, negative, NaN
    /// or infinite.
    pub fn try_new(samples: Vec<Complex64>, sample_rate: f64) -> Result<Self, SimError> {
        check_rate(sample_rate)?;
        Ok(Signal::new(samples, sample_rate))
    }

    /// Creates a signal directly from split component vectors — the
    /// allocation-free constructor for producers that already work in
    /// structure-of-arrays layout.
    ///
    /// # Panics
    ///
    /// Panics if the component lengths differ or `sample_rate` is not
    /// positive and finite.
    pub fn from_parts(re: Vec<f64>, im: Vec<f64>, sample_rate: f64) -> Self {
        assert!(
            sample_rate > 0.0 && sample_rate.is_finite(),
            "sample rate must be positive and finite"
        );
        assert!(
            re.len() == im.len(),
            "component length mismatch: {} re vs {} im",
            re.len(),
            im.len()
        );
        Signal {
            re,
            im,
            sample_rate,
        }
    }

    /// Checked [`Signal::from_parts`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSampleRate`] for a bad rate;
    /// [`SimError::BlockFailure`] if the component lengths differ.
    pub fn try_from_parts(re: Vec<f64>, im: Vec<f64>, sample_rate: f64) -> Result<Self, SimError> {
        check_rate(sample_rate)?;
        if re.len() != im.len() {
            return Err(SimError::BlockFailure {
                block: "signal".into(),
                message: format!(
                    "component length mismatch: {} re vs {} im",
                    re.len(),
                    im.len()
                ),
            });
        }
        Ok(Signal {
            re,
            im,
            sample_rate,
        })
    }

    /// An empty signal at the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not positive and finite.
    pub fn empty(sample_rate: f64) -> Self {
        Signal::new(Vec::new(), sample_rate)
    }

    /// Sample rate in Hz.
    #[inline]
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Returns `true` if the signal holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Signal duration in seconds.
    pub fn duration(&self) -> f64 {
        self.re.len() as f64 / self.sample_rate
    }

    /// Test and inspection view: the samples as a freshly interleaved
    /// `Vec<Complex64>`.
    ///
    /// This **allocates and copies** on every call. Library code reads
    /// [`Signal::parts`] / [`Signal::iter`] instead: the workspace's
    /// `clippy.toml` lists this method (and [`Signal::into_samples`]) as
    /// disallowed, and `ci.sh` denies that lint on library targets.
    pub fn samples(&self) -> Vec<Complex64> {
        let mut out = Vec::new();
        kernels::interleave(&self.re, &self.im, &mut out);
        out
    }

    /// Consumes the signal, returning interleaved samples (the owning
    /// [`Signal::samples`]; test and inspection code only).
    pub fn into_samples(self) -> Vec<Complex64> {
        let mut out = Vec::new();
        kernels::interleave(&self.re, &self.im, &mut out);
        out
    }

    /// Borrows the real component.
    #[inline]
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// Borrows the imaginary component.
    #[inline]
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// Borrows both components: `(re, im)`.
    #[inline]
    pub fn parts(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Mutably borrows both components (lengths and rate stay fixed).
    #[inline]
    pub fn parts_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Mutable access to the component vectors for producers that write
    /// variable-length chunks in place (lengths may change but must stay
    /// equal; rate stays).
    #[inline]
    pub fn parts_vec_mut(&mut self) -> (&mut Vec<f64>, &mut Vec<f64>) {
        (&mut self.re, &mut self.im)
    }

    /// Iterates the samples as [`Complex64`] values without allocating.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Complex64> + '_ {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| Complex64::new(r, i))
    }

    /// The sample at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Complex64 {
        Complex64::new(self.re[i], self.im[i])
    }

    /// Overwrites the sample at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, z: Complex64) {
        self.re[i] = z.re;
        self.im[i] = z.im;
    }

    /// Appends one sample (rate unchanged).
    #[inline]
    pub fn push(&mut self, z: Complex64) {
        self.re.push(z.re);
        self.im.push(z.im);
    }

    /// Applies `f` to every sample in place — the per-sample escape hatch
    /// for transforms without a batched kernel.
    pub fn map_in_place(&mut self, mut f: impl FnMut(Complex64) -> Complex64) {
        for (r, i) in self.re.iter_mut().zip(self.im.iter_mut()) {
            let z = f(Complex64::new(*r, *i));
            *r = z.re;
            *i = z.im;
        }
    }

    /// Mean power `(1/N) Σ |x|²`.
    pub fn power(&self) -> f64 {
        stats::mean_power_split(&self.re, &self.im)
    }

    /// Mean power in dB (relative to unit power); `-inf` for silence.
    pub fn power_db(&self) -> f64 {
        let p = self.power();
        if p == 0.0 {
            f64::NEG_INFINITY
        } else {
            stats::ratio_to_db(p)
        }
    }

    /// Peak-to-average power ratio in dB.
    pub fn papr_db(&self) -> f64 {
        stats::papr_db_split(&self.re, &self.im)
    }

    /// Returns a copy scaled so that mean power equals `target` (linear).
    /// A silent signal is returned unchanged.
    pub fn to_power(&self, target: f64) -> Signal {
        let p = self.power();
        if p == 0.0 {
            return self.clone();
        }
        let k = (target / p).sqrt();
        let mut out = self.clone();
        kernels::scale_split(&mut out.re, &mut out.im, k);
        out
    }

    /// Clears the samples, keeping the allocations (rate unchanged).
    pub fn clear(&mut self) {
        self.re.clear();
        self.im.clear();
    }

    /// Current heap capacity in samples (diagnostic; lets tests assert a
    /// reused buffer stops allocating after warm-up).
    pub fn capacity(&self) -> usize {
        self.re.capacity().min(self.im.capacity())
    }

    /// Replaces the contents with a copy of `samples` at `sample_rate`,
    /// reusing the existing allocations.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not positive and finite.
    pub fn assign(&mut self, samples: &[Complex64], sample_rate: f64) {
        assert!(
            sample_rate > 0.0 && sample_rate.is_finite(),
            "sample rate must be positive and finite"
        );
        kernels::deinterleave(samples, &mut self.re, &mut self.im);
        self.sample_rate = sample_rate;
    }

    /// Replaces the contents with copies of split component slices at
    /// `sample_rate`, reusing the existing allocations.
    ///
    /// # Panics
    ///
    /// Panics if the component lengths differ or `sample_rate` is not
    /// positive and finite.
    pub fn assign_parts(&mut self, re: &[f64], im: &[f64], sample_rate: f64) {
        assert!(
            sample_rate > 0.0 && sample_rate.is_finite(),
            "sample rate must be positive and finite"
        );
        assert_eq!(re.len(), im.len(), "component length mismatch");
        self.re.clear();
        self.re.extend_from_slice(re);
        self.im.clear();
        self.im.extend_from_slice(im);
        self.sample_rate = sample_rate;
    }

    /// Replaces the contents with `len` samples of `other` starting at
    /// `start`, adopting its rate — the streaming scheduler's slice move,
    /// done without interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds `other.len()`.
    pub fn assign_range(&mut self, other: &Signal, start: usize, len: usize) {
        self.re.clear();
        self.re.extend_from_slice(&other.re[start..start + len]);
        self.im.clear();
        self.im.extend_from_slice(&other.im[start..start + len]);
        self.sample_rate = other.sample_rate;
    }

    /// Copies another signal's contents into this one, reusing the
    /// existing allocations (the streaming scheduler's per-edge move).
    pub fn copy_from(&mut self, other: &Signal) {
        self.re.clone_from(&other.re);
        self.im.clone_from(&other.im);
        self.sample_rate = other.sample_rate;
    }

    /// Re-tags the sample rate without touching the samples.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not positive and finite.
    pub fn set_sample_rate(&mut self, sample_rate: f64) {
        assert!(
            sample_rate > 0.0 && sample_rate.is_finite(),
            "sample rate must be positive and finite"
        );
        self.sample_rate = sample_rate;
    }

    /// Appends split component slices (rate unchanged).
    ///
    /// # Panics
    ///
    /// Panics if the component lengths differ.
    pub fn extend_from_parts(&mut self, re: &[f64], im: &[f64]) {
        assert_eq!(re.len(), im.len(), "component length mismatch");
        self.re.extend_from_slice(re);
        self.im.extend_from_slice(im);
    }

    /// Index of the first sample whose real or imaginary part is NaN or
    /// infinite, if any — the scan the scheduler's non-finite guard
    /// ([`crate::ExecPlan::guard_non_finite`]) runs on block outputs.
    pub fn first_non_finite(&self) -> Option<usize> {
        self.re
            .iter()
            .zip(&self.im)
            .position(|(r, i)| !r.is_finite() || !i.is_finite())
    }

    /// Appends another signal's samples.
    ///
    /// # Panics
    ///
    /// Panics if sample rates differ.
    pub fn extend_from(&mut self, other: &Signal) {
        assert!(
            (self.sample_rate - other.sample_rate).abs() < 1e-9 * self.sample_rate,
            "cannot concatenate signals with different sample rates"
        );
        self.re.extend_from_slice(&other.re);
        self.im.extend_from_slice(&other.im);
    }
}

/// An empty signal at 1 Hz — the placeholder the streaming scheduler uses
/// for not-yet-filled edge buffers.
impl Default for Signal {
    fn default() -> Self {
        Signal::empty(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = Signal::new(vec![Complex64::ONE; 10], 1000.0);
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.sample_rate(), 1000.0);
        assert!((s.duration() - 0.01).abs() < 1e-15);
        assert_eq!(s.samples().len(), 10);
        assert_eq!(s.re().len(), 10);
        assert_eq!(s.im().len(), 10);
    }

    #[test]
    fn empty_signal() {
        let s = Signal::empty(8000.0);
        assert!(s.is_empty());
        assert_eq!(s.power(), 0.0);
        assert_eq!(s.power_db(), f64::NEG_INFINITY);
    }

    #[test]
    fn try_new_rejects_bad_rates() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match Signal::try_new(vec![], rate) {
                Err(SimError::InvalidSampleRate { rate: r }) => {
                    assert!(r.is_nan() || r == rate);
                }
                other => panic!("expected InvalidSampleRate for {rate}, got {other:?}"),
            }
        }
        assert!(Signal::try_new(vec![Complex64::ONE], 1.0e6).is_ok());
    }

    #[test]
    fn parts_roundtrip() {
        let z = vec![Complex64::new(1.0, -2.0), Complex64::new(3.5, 0.25)];
        let s = Signal::new(z.clone(), 10.0);
        assert_eq!(s.re(), &[1.0, 3.5]);
        assert_eq!(s.im(), &[-2.0, 0.25]);
        assert_eq!(s.samples(), z);
        assert_eq!(s.iter().collect::<Vec<_>>(), z);
        assert_eq!(s.get(1), z[1]);
        let back = Signal::from_parts(s.re().to_vec(), s.im().to_vec(), 10.0);
        assert_eq!(back, s);
        assert_eq!(back.clone().into_samples(), z);
    }

    #[test]
    fn try_from_parts_checks_lengths() {
        assert!(matches!(
            Signal::try_from_parts(vec![1.0], vec![], 1.0),
            Err(SimError::BlockFailure { .. })
        ));
        assert!(matches!(
            Signal::try_from_parts(vec![1.0], vec![0.0], 0.0),
            Err(SimError::InvalidSampleRate { .. })
        ));
    }

    #[test]
    fn power_and_scaling() {
        let s = Signal::new(vec![Complex64::new(2.0, 0.0); 4], 1.0);
        assert!((s.power() - 4.0).abs() < 1e-12);
        let scaled = s.to_power(1.0);
        assert!((scaled.power() - 1.0).abs() < 1e-12);
        assert!((scaled.samples()[0].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn to_power_of_silence_is_noop() {
        let s = Signal::new(vec![Complex64::ZERO; 4], 1.0);
        assert_eq!(s.to_power(1.0), s);
    }

    #[test]
    fn mutation_through_set_and_map() {
        let mut s = Signal::new(vec![Complex64::ZERO; 2], 1.0);
        s.set(0, Complex64::ONE);
        assert_eq!(s.get(0), Complex64::ONE);
        s.map_in_place(|z| z.scale(3.0));
        assert_eq!(s.get(0), Complex64::new(3.0, 0.0));
        let v = s.into_samples();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn reuse_helpers_keep_allocation() {
        let mut s = Signal::new(vec![Complex64::ONE; 64], 1.0e6);
        let cap = s.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), cap);
        s.assign(&[Complex64::ZERO; 32], 2.0e6);
        assert_eq!(s.len(), 32);
        assert_eq!(s.sample_rate(), 2.0e6);
        assert_eq!(s.capacity(), cap);
        let other = Signal::new(vec![Complex64::ONE; 10], 3.0e6);
        s.copy_from(&other);
        assert_eq!(s.len(), 10);
        assert_eq!(s.sample_rate(), 3.0e6);
        assert_eq!(s.capacity(), cap);
        s.assign_range(&other, 2, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.sample_rate(), 3.0e6);
        assert_eq!(s.capacity(), cap);
        s.extend_from_parts(&[0.0; 2], &[0.0; 2]);
        assert_eq!(s.len(), 7);
        s.extend_from_parts(&[1.0], &[0.5]);
        assert_eq!(s.len(), 8);
        assert_eq!(s.get(7), Complex64::new(1.0, 0.5));
        s.set_sample_rate(5.0);
        assert_eq!(s.sample_rate(), 5.0);
        s.push(Complex64::ONE);
        assert_eq!(s.len(), 9);
        let (re, im) = s.parts_vec_mut();
        re.push(0.0);
        im.push(0.0);
        assert_eq!(s.len(), 10);
        assert_eq!(Signal::default().sample_rate(), 1.0);
    }

    #[test]
    fn assign_parts_replaces_contents() {
        let mut s = Signal::default();
        s.assign_parts(&[1.0, 2.0], &[3.0, 4.0], 48.0e3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.sample_rate(), 48.0e3);
        assert_eq!(s.get(1), Complex64::new(2.0, 4.0));
    }

    #[test]
    fn first_non_finite_scans_both_parts() {
        let mut s = Signal::new(vec![Complex64::ONE; 4], 1.0);
        assert_eq!(s.first_non_finite(), None);
        s.set(2, Complex64::new(0.0, f64::NAN));
        assert_eq!(s.first_non_finite(), Some(2));
        s.set(1, Complex64::new(f64::INFINITY, 0.0));
        assert_eq!(s.first_non_finite(), Some(1));
        assert_eq!(Signal::empty(1.0).first_non_finite(), None);
    }

    #[test]
    fn concatenation() {
        let mut a = Signal::new(vec![Complex64::ONE; 3], 100.0);
        let b = Signal::new(vec![Complex64::ZERO; 2], 100.0);
        a.extend_from(&b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    #[should_panic(expected = "different sample rates")]
    fn concatenation_rate_mismatch_panics() {
        let mut a = Signal::new(vec![], 100.0);
        let b = Signal::new(vec![], 200.0);
        a.extend_from(&b);
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn bad_rate_panics() {
        let _ = Signal::new(vec![], -1.0);
    }

    #[test]
    #[should_panic(expected = "component length mismatch")]
    fn from_parts_length_mismatch_panics() {
        let _ = Signal::from_parts(vec![1.0], vec![], 1.0);
    }
}
