//! Analog front-end behavioral models: DAC, local oscillator, mixer and IQ
//! imbalance.
//!
//! These are the blocks a transmitter's baseband signal traverses between
//! the digital IP and the antenna in the co-simulation experiments. All
//! models operate on the complex-baseband equivalent representation: an
//! "upconversion" by `f` Hz is a rotation by `e^{j2πft}` within the sampled
//! bandwidth, which preserves every impairment effect (spectral regrowth,
//! phase-noise skirts, image tones) that matters at system level.

use crate::block::{Block, SimError};
use crate::signal::Signal;
use ofdm_dsp::{nco::Nco, Complex64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A digital-to-analog converter model: mid-tread uniform quantization of I
/// and Q plus optional full-scale clipping.
///
/// The behavioral DAC quantizes to `bits` of resolution over a ±`full_scale`
/// range. (Reconstruction filtering is modeled separately via
/// [`crate::filter`] blocks, as in a real lineup.)
#[derive(Debug, Clone)]
pub struct Dac {
    bits: u32,
    full_scale: f64,
}

impl Dac {
    /// Creates a DAC with the given resolution and full-scale amplitude.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 24, or `full_scale` is not positive.
    pub fn new(bits: u32, full_scale: f64) -> Self {
        assert!((1..=24).contains(&bits), "bits must be in 1..=24");
        assert!(full_scale > 0.0, "full scale must be positive");
        Dac { bits, full_scale }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    fn quantize(&self, x: f64) -> f64 {
        let levels = (1u64 << self.bits) as f64;
        let step = 2.0 * self.full_scale / levels;
        let clipped = x.clamp(-self.full_scale, self.full_scale - step);
        (clipped / step).round() * step
    }
}

impl Block for Dac {
    fn name(&self) -> &str {
        "dac"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        // Quantization is per-component, so the split layout turns it into
        // two flat f64 passes.
        out.copy_from(inputs[0]);
        let (re, im) = out.parts_mut();
        for r in re.iter_mut() {
            *r = self.quantize(*r);
        }
        for i in im.iter_mut() {
            *i = self.quantize(*i);
        }
        Ok(())
    }
}

/// A local oscillator with Gaussian phase-noise (random-walk model) and a
/// deterministic frequency offset.
///
/// The phase noise is a Wiener process whose per-sample increment standard
/// deviation is derived from a specified linewidth: for a Lorentzian
/// oscillator of 3-dB linewidth `Δf`, the phase increment variance is
/// `2πΔf/fs` rad².
#[derive(Debug, Clone)]
pub struct LocalOscillator {
    freq_offset_hz: f64,
    linewidth_hz: f64,
    seed: u64,
    rng: StdRng,
    nco: Option<Nco>,
    phase_noise: f64,
}

impl LocalOscillator {
    /// An ideal LO at exactly the carrier (zero offset, zero linewidth).
    pub fn ideal() -> Self {
        LocalOscillator::new(0.0, 0.0, 0)
    }

    /// Creates an LO with a static frequency offset (models TX/RX carrier
    /// mismatch) and a phase-noise linewidth, using `seed` for
    /// reproducibility.
    pub fn new(freq_offset_hz: f64, linewidth_hz: f64, seed: u64) -> Self {
        assert!(linewidth_hz >= 0.0, "linewidth must be nonnegative");
        LocalOscillator {
            freq_offset_hz,
            linewidth_hz,
            seed,
            rng: StdRng::seed_from_u64(seed),
            nco: None,
            phase_noise: 0.0,
        }
    }

    /// The configured frequency offset in Hz.
    pub fn freq_offset_hz(&self) -> f64 {
        self.freq_offset_hz
    }

    /// The configured phase-noise linewidth in Hz.
    pub fn linewidth_hz(&self) -> f64 {
        self.linewidth_hz
    }
}

impl Block for LocalOscillator {
    fn name(&self) -> &str {
        "local-oscillator"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let fs = out.sample_rate();
        let nco = match &mut self.nco {
            Some(n) if (n.freq_hz() - self.freq_offset_hz).abs() < f64::EPSILON => n,
            _ => {
                self.nco = Some(Nco::new(self.freq_offset_hz, fs));
                self.nco.as_mut().expect("just set")
            }
        };
        let sigma = (std::f64::consts::TAU * self.linewidth_hz / fs).sqrt();
        // Sequential per-sample loop: the phase random walk and the NCO are
        // stateful, so sample order (and RNG draw order) must be preserved.
        let (re, im) = out.parts_mut();
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            if sigma > 0.0 {
                // Box–Muller Gaussian increment for the phase random walk.
                let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = self.rng.gen();
                let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                self.phase_noise += sigma * g;
            }
            let z = Complex64::new(*r, *i) * nco.next_sample() * Complex64::cis(self.phase_noise);
            *r = z.re;
            *i = z.im;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.nco = None;
        self.phase_noise = 0.0;
    }
}

/// An ideal multiplier mixer: output = input0 × input1, sample by sample.
///
/// Both inputs must share a sample rate and length.
#[derive(Debug, Clone, Default)]
pub struct Mixer;

impl Mixer {
    /// Creates a mixer.
    pub fn new() -> Self {
        Mixer
    }
}

impl Block for Mixer {
    fn name(&self) -> &str {
        "mixer"
    }

    fn input_count(&self) -> usize {
        2
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        let (a, b) = (inputs[0], inputs[1]);
        if (a.sample_rate() - b.sample_rate()).abs() > 1e-9 * a.sample_rate() {
            return Err(SimError::RateMismatch {
                block: "mixer".into(),
                expected: a.sample_rate(),
                got: b.sample_rate(),
            });
        }
        if a.len() != b.len() {
            return Err(SimError::BlockFailure {
                block: "mixer".into(),
                message: format!("input lengths differ ({} vs {})", a.len(), b.len()),
            });
        }
        out.clear();
        out.set_sample_rate(a.sample_rate());
        for (x, y) in a.iter().zip(b.iter()) {
            out.push(x * y);
        }
        Ok(())
    }
}

/// Sums two signals sample-by-sample — the block that puts an interferer
/// on top of a desired signal (adjacent-channel studies) or combines
/// diversity branches.
///
/// Inputs must share a sample rate; the shorter input is zero-extended.
#[derive(Debug, Clone, Default)]
pub struct Combiner;

impl Combiner {
    /// Creates a combiner.
    pub fn new() -> Self {
        Combiner
    }
}

impl Block for Combiner {
    fn name(&self) -> &str {
        "combiner"
    }

    fn input_count(&self) -> usize {
        2
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        let (a, b) = (inputs[0], inputs[1]);
        if (a.sample_rate() - b.sample_rate()).abs() > 1e-9 * a.sample_rate() {
            return Err(SimError::RateMismatch {
                block: "combiner".into(),
                expected: a.sample_rate(),
                got: b.sample_rate(),
            });
        }
        let n = a.len().max(b.len());
        let zero = Complex64::ZERO;
        let at = |s: &Signal, i: usize| if i < s.len() { s.get(i) } else { zero };
        out.clear();
        out.set_sample_rate(a.sample_rate());
        for i in 0..n {
            out.push(at(a, i) + at(b, i));
        }
        Ok(())
    }
}

/// Transmit IQ imbalance: gain mismatch `g` (linear, applied to Q) and phase
/// skew `φ` between the I and Q mixers.
///
/// Implements `y = x·(1 + g·e^{-jφ})/2 + x*·(1 − g·e^{+jφ})/2`, the
/// standard image-producing model: an imbalance of `g=1, φ=0` is
/// transparent; any mismatch leaks a conjugate image at level
/// `IRR ≈ |1−g·e^{jφ}|²/|1+g·e^{jφ}|²`.
#[derive(Debug, Clone)]
pub struct IqImbalance {
    gain: f64,
    phase_rad: f64,
}

impl IqImbalance {
    /// Creates an IQ-imbalance block with gain mismatch in dB and phase skew
    /// in degrees — the units RF datasheets quote.
    pub fn new(gain_mismatch_db: f64, phase_skew_deg: f64) -> Self {
        IqImbalance {
            gain: 10f64.powf(gain_mismatch_db / 20.0),
            phase_rad: phase_skew_deg.to_radians(),
        }
    }

    /// Image-rejection ratio in dB implied by this imbalance (∞ for ideal).
    pub fn image_rejection_db(&self) -> f64 {
        let ge = Complex64::from_polar(self.gain, self.phase_rad);
        let num = (Complex64::ONE - ge).norm_sqr();
        let den = (Complex64::ONE + ge).norm_sqr();
        if num == 0.0 {
            f64::INFINITY
        } else {
            -10.0 * (num / den).log10()
        }
    }
}

impl Block for IqImbalance {
    fn name(&self) -> &str {
        "iq-imbalance"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let ge_m = Complex64::from_polar(self.gain, -self.phase_rad);
        let ge_p = Complex64::from_polar(self.gain, self.phase_rad);
        let k1 = (Complex64::ONE + ge_m).scale(0.5);
        let k2 = (Complex64::ONE - ge_p).scale(0.5);
        out.map_in_place(|z| k1 * z + k2 * z.conj());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ToneSource;
    use ofdm_dsp::spectrum::WelchPsd;
    use ofdm_dsp::window::Window;

    fn tone(freq: f64, fs: f64, n: usize) -> Signal {
        ToneSource::new(freq, fs, n).process(&[]).unwrap()
    }

    #[test]
    fn dac_high_resolution_is_nearly_transparent() {
        let mut dac = Dac::new(16, 1.0);
        let s = tone(0.1, 1.0, 256);
        let out = dac.process(std::slice::from_ref(&s)).unwrap();
        for (a, b) in out.iter().zip(s.iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn dac_one_bit_produces_two_levels() {
        let mut dac = Dac::new(1, 1.0);
        let s = tone(0.07, 1.0, 128);
        let out = dac.process(&[s]).unwrap();
        for z in out.samples() {
            assert!((z.re.abs() - 1.0).abs() < 1e-12 || z.re.abs() < 1e-12);
        }
        assert_eq!(dac.bits(), 1);
    }

    #[test]
    fn dac_clips_overrange() {
        let mut dac = Dac::new(8, 1.0);
        let s = Signal::new(vec![Complex64::new(5.0, -5.0); 4], 1.0);
        let out = dac.process(&[s]).unwrap();
        for z in out.samples() {
            assert!(z.re <= 1.0 && z.im >= -1.0 - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn dac_zero_bits_panics() {
        let _ = Dac::new(0, 1.0);
    }

    #[test]
    fn ideal_lo_is_transparent() {
        let mut lo = LocalOscillator::ideal();
        let s = tone(0.05, 1.0, 512);
        let out = lo.process(std::slice::from_ref(&s)).unwrap();
        for (a, b) in out.iter().zip(s.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn lo_offset_shifts_tone() {
        // DC input + 0.125 fs offset LO → tone at 0.125 fs.
        let mut lo = LocalOscillator::new(0.125, 0.0, 0);
        let s = Signal::new(vec![Complex64::ONE; 1024], 1.0);
        let out = lo.process(&[s]).unwrap();
        let (re, im) = out.parts();
        let psd = WelchPsd::new(256, Window::Hann).estimate(re, im);
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 32); // 0.125 × 256
    }

    #[test]
    fn lo_phase_noise_spreads_tone_but_conserves_power() {
        let mut lo = LocalOscillator::new(0.0, 1e-3, 42);
        let s = Signal::new(vec![Complex64::ONE; 8192], 1.0);
        let out = lo.process(&[s]).unwrap();
        assert!((out.power() - 1.0).abs() < 1e-9); // pure phase modulation
        assert!((lo.linewidth_hz() - 1e-3).abs() < 1e-18);
        // Reproducible with same seed after reset.
        lo.reset();
        let s2 = Signal::new(vec![Complex64::ONE; 8192], 1.0);
        let out2 = lo.process(&[s2]).unwrap();
        assert_eq!(out.samples()[100], out2.samples()[100]);
    }

    #[test]
    fn mixer_multiplies() {
        let mut m = Mixer::new();
        let a = Signal::new(vec![Complex64::new(2.0, 0.0); 4], 1.0);
        let b = Signal::new(vec![Complex64::I; 4], 1.0);
        let out = m.process(&[a, b]).unwrap();
        assert_eq!(out.samples()[0], Complex64::new(0.0, 2.0));
    }

    #[test]
    fn mixer_rejects_rate_mismatch() {
        let mut m = Mixer::new();
        let a = Signal::new(vec![Complex64::ONE; 4], 1.0);
        let b = Signal::new(vec![Complex64::ONE; 4], 2.0);
        assert!(matches!(
            m.process(&[a, b]).unwrap_err(),
            SimError::RateMismatch { .. }
        ));
    }

    #[test]
    fn mixer_rejects_length_mismatch() {
        let mut m = Mixer::new();
        let a = Signal::new(vec![Complex64::ONE; 4], 1.0);
        let b = Signal::new(vec![Complex64::ONE; 5], 1.0);
        assert!(matches!(
            m.process(&[a, b]).unwrap_err(),
            SimError::BlockFailure { .. }
        ));
    }

    #[test]
    fn combiner_sums_and_zero_extends() {
        let mut c = Combiner::new();
        let a = Signal::new(vec![Complex64::ONE; 4], 1.0);
        let b = Signal::new(vec![Complex64::I; 2], 1.0);
        let out = c.process(&[a, b]).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out.samples()[0], Complex64::new(1.0, 1.0));
        assert_eq!(out.samples()[3], Complex64::ONE);
        assert_eq!(c.input_count(), 2);
    }

    #[test]
    fn combiner_rejects_rate_mismatch() {
        let mut c = Combiner::new();
        let a = Signal::new(vec![Complex64::ONE; 2], 1.0);
        let b = Signal::new(vec![Complex64::ONE; 2], 2.0);
        assert!(matches!(
            c.process(&[a, b]).unwrap_err(),
            SimError::RateMismatch { .. }
        ));
    }

    #[test]
    fn iq_ideal_is_transparent() {
        let mut iq = IqImbalance::new(0.0, 0.0);
        let s = tone(0.1, 1.0, 64);
        let out = iq.process(std::slice::from_ref(&s)).unwrap();
        for (a, b) in out.iter().zip(s.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(iq.image_rejection_db() > 100.0);
    }

    #[test]
    fn iq_imbalance_creates_image_at_predicted_level() {
        let mut iq = IqImbalance::new(1.0, 2.0); // 1 dB gain, 2° phase
        let irr = iq.image_rejection_db();
        assert!(irr > 10.0 && irr < 40.0, "irr {irr}");
        let n = 8192;
        let s = tone(0.125, 1.0, n);
        let out = iq.process(&[s]).unwrap();
        let (re, im) = out.parts();
        let psd = WelchPsd::new(256, Window::Blackman).estimate(re, im);
        let sig = psd[32]; // +0.125 fs
        let img = psd[256 - 32]; // −0.125 fs
        let measured_irr = 10.0 * (sig / img).log10();
        assert!(
            (measured_irr - irr).abs() < 1.5,
            "measured {measured_irr}, predicted {irr}"
        );
    }
}
