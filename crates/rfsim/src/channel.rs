//! Transmission-channel models: AWGN, static multipath, tapped-delay-line
//! Rayleigh/Rician fading, carrier frequency offset, oscillator phase noise
//! and a DSL twisted-pair line.
//!
//! The paper's point C2 is that the digital TX, the RF parts *and the
//! transmission channel* can be verified in one simulator — these blocks are
//! that channel. The fading/CFO/phase-noise trio closes the TX→channel→RX
//! loop for the BER waterfall sweeps (EXPERIMENTS.md E11): every block here
//! is chunking-invariant (chunked streaming output is bit-identical to one
//! batch pass) and seed-deterministic, so million-point sweeps shard across
//! workers and resume from checkpoints without changing a single sample.

use crate::block::{Block, SimError};
use crate::signal::Signal;
use crate::supervise::BlockRole;
use ofdm_dsp::fir::FirFilter;
use ofdm_dsp::Complex64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{PI, TAU};

fn gaussian_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    (r * (TAU * u2).cos(), r * (TAU * u2).sin())
}

/// Additive white Gaussian noise at a specified SNR relative to the input's
/// measured power.
///
/// # Example
///
/// ```
/// use rfsim::prelude::*;
/// use ofdm_dsp::Complex64;
///
/// let mut ch = AwgnChannel::from_snr_db(10.0, 7);
/// let s = Signal::new(vec![Complex64::ONE; 10_000], 1.0);
/// let out = ch.process(&[s]).unwrap();
/// // Output power ≈ signal + 10 dB-down noise.
/// assert!((out.power() - 1.1).abs() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct AwgnChannel {
    snr_db: f64,
    seed: u64,
    reference_power: Option<f64>,
    rng: StdRng,
}

impl AwgnChannel {
    /// Creates a channel adding noise `snr_db` below the measured input
    /// power. Use the same `seed` for reproducible runs.
    pub fn from_snr_db(snr_db: f64, seed: u64) -> Self {
        AwgnChannel {
            snr_db,
            seed,
            reference_power: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Builder: derive the noise variance from a fixed reference power
    /// instead of measuring each pass (or each chunk).
    ///
    /// Measuring the input power inside `process` makes the noise level
    /// depend on how the pass is split: a chunked streaming run would
    /// measure each chunk separately and diverge from the batch run. With a
    /// fixed reference the noise σ is constant, the RNG sequence continues
    /// across chunks, and chunked output is bit-identical to batch.
    ///
    /// # Panics
    ///
    /// Panics if `power` is not positive and finite.
    pub fn with_reference_power(mut self, power: f64) -> Self {
        assert!(
            power > 0.0 && power.is_finite(),
            "reference power must be positive and finite"
        );
        self.reference_power = Some(power);
        self
    }

    /// The configured SNR in dB.
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }

    /// The fixed reference power, if one was configured.
    pub fn reference_power(&self) -> Option<f64> {
        self.reference_power
    }

    /// Per-dimension noise σ for a given signal power.
    fn sigma(&self, sig_pow: f64) -> f64 {
        let noise_pow = sig_pow * 10f64.powf(-self.snr_db / 10.0);
        (noise_pow / 2.0).sqrt()
    }
}

impl Block for AwgnChannel {
    fn name(&self) -> &str {
        "awgn-channel"
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let mut s = inputs[0].clone();
        let sig_pow = match self.reference_power {
            Some(p) => p,
            None => {
                let p = s.power();
                if p == 0.0 {
                    return Ok(s);
                }
                p
            }
        };
        let sigma = self.sigma(sig_pow); // per real dimension

        // Sequential loop: the RNG draw order defines the noise sequence.
        let (re, im) = s.parts_mut();
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            let (gr, gi) = gaussian_pair(&mut self.rng);
            *r += sigma * gr;
            *i += sigma * gi;
        }
        Ok(s)
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let sig_pow = match self.reference_power {
            Some(p) => p,
            None => {
                // No reference: fall back to per-chunk measurement (same
                // behavior as the default clone adapter, without the alloc).
                let p = out.power();
                if p == 0.0 {
                    return Ok(());
                }
                p
            }
        };
        let sigma = self.sigma(sig_pow);
        let (re, im) = out.parts_mut();
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            let (gr, gi) = gaussian_pair(&mut self.rng);
            *r += sigma * gr;
            *i += sigma * gi;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// A static multipath channel: a fixed complex FIR (tapped delay line).
#[derive(Debug, Clone)]
pub struct MultipathChannel {
    taps: Vec<Complex64>,
    /// Last `taps.len() - 1` input samples of the streaming pass so far
    /// (zero-filled at pass start); carries echo memory across chunks.
    history: Vec<Complex64>,
}

impl MultipathChannel {
    /// Creates the channel from complex tap gains (tap 0 is the direct
    /// path; spacing is one sample).
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<Complex64>) -> Self {
        assert!(!taps.is_empty(), "taps must be nonempty");
        MultipathChannel {
            taps,
            history: Vec::new(),
        }
    }

    /// A two-ray channel with an echo `delay` samples later at relative
    /// amplitude `echo_gain`.
    pub fn two_ray(delay: usize, echo_gain: f64) -> Self {
        let mut taps = vec![Complex64::ZERO; delay + 1];
        taps[0] = Complex64::ONE;
        taps[delay] = Complex64::new(echo_gain, 0.0);
        MultipathChannel::new(taps)
    }

    /// The channel impulse response.
    pub fn taps(&self) -> &[Complex64] {
        &self.taps
    }

    /// The channel frequency response at normalized frequency `f` (fraction
    /// of the sample rate).
    pub fn freq_response(&self, f: f64) -> Complex64 {
        self.taps
            .iter()
            .enumerate()
            .map(|(n, &h)| h * Complex64::cis(-2.0 * PI * f * n as f64))
            .sum()
    }
}

impl Block for MultipathChannel {
    fn name(&self) -> &str {
        "multipath-channel"
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let x = inputs[0].samples();
        let mut y = vec![Complex64::ZERO; x.len()];
        for (n, out) in y.iter_mut().enumerate() {
            for (k, &h) in self.taps.iter().enumerate() {
                if n >= k {
                    *out += h * x[n - k];
                }
            }
        }
        Ok(Signal::new(y, inputs[0].sample_rate()))
    }

    fn begin_stream(&mut self) {
        self.history.clear();
        self.history.resize(self.taps.len() - 1, Complex64::ZERO);
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        if self.history.len() + 1 != self.taps.len() {
            // Direct use without begin_stream: arm the delay line now.
            self.history.clear();
            self.history.resize(self.taps.len() - 1, Complex64::ZERO);
        }
        let x = inputs[0].samples();
        out.clear();
        out.set_sample_rate(inputs[0].sample_rate());
        let hist = self.history.len();
        for n in 0..x.len() {
            let mut acc = Complex64::ZERO;
            for (k, &h) in self.taps.iter().enumerate() {
                // Samples before the chunk start come from the carried
                // history; at pass start those are exact zeros, so the sum
                // matches the batch convolution term for term.
                let s = if n >= k {
                    x[n - k]
                } else {
                    self.history[hist - (k - n)]
                };
                acc += h * s;
            }
            out.push(acc);
        }
        if hist > 0 {
            if x.len() >= hist {
                self.history.copy_from_slice(&x[x.len() - hist..]);
            } else {
                self.history.rotate_left(x.len());
                let keep = hist - x.len();
                self.history[keep..].copy_from_slice(&x);
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

/// One path of a [`FadingChannel`] power-delay profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingTap {
    /// Excess delay of the path in samples (tap 0 is the direct path).
    pub delay: usize,
    /// Average linear power of the path (diffuse + line-of-sight).
    pub power: f64,
    /// Rician K-factor: ratio of line-of-sight to diffuse power.
    /// `0.0` makes the tap pure Rayleigh.
    pub k_factor: f64,
}

/// A tapped-delay-line frequency-selective fading channel with seeded
/// Rayleigh or Rician tap processes (Jakes sum-of-sinusoids synthesis).
///
/// Each tap's diffuse component is a sum of [`Self::N_OSC`] seeded
/// oscillators with Doppler-distributed frequencies; a nonzero K-factor
/// adds a deterministic line-of-sight ray at the maximum Doppler shift.
/// All tap gains are *functions of the absolute sample index*, not of
/// per-sample random draws — which is what makes the block chunking
/// invariant: the streaming path only has to carry the absolute time
/// counter and the delay-line history across chunks to reproduce the
/// batch convolution bit for bit.
///
/// # Example
///
/// ```
/// use rfsim::prelude::*;
/// use ofdm_dsp::Complex64;
///
/// // Two-path Rayleigh profile, 50 Hz Doppler.
/// let mut ch = FadingChannel::rayleigh(vec![(0, 0.8), (4, 0.2)], 50.0, 7);
/// let s = Signal::new(vec![Complex64::ONE; 256], 1.0e6);
/// let out = ch.process(&[s]).unwrap();
/// assert_eq!(out.len(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct FadingChannel {
    taps: Vec<FadingTap>,
    doppler_hz: f64,
    seed: u64,
    /// Per tap: diffuse oscillator parameters `(cosθ, φ_i, φ_q)`.
    oscillators: Vec<Vec<(f64, f64, f64)>>,
    /// Per tap: line-of-sight ray phase (drawn once from the seed).
    los_phase: Vec<f64>,
    /// Per tap: the gain at zero Doppler, where it does not depend on
    /// time; `None` when the taps move.
    frozen: Option<Vec<Complex64>>,
    /// Absolute sample index of the next input sample.
    t: u64,
    /// Split delay-line history: the last `max_delay` input samples of the
    /// streaming pass so far (zero-filled at pass start).
    hist_re: Vec<f64>,
    hist_im: Vec<f64>,
}

impl FadingChannel {
    /// Oscillators per tap in the Jakes synthesis.
    pub const N_OSC: usize = 16;

    /// Creates the channel from an explicit tap list.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty, any tap power or K-factor is negative,
    /// or `doppler_hz` is negative.
    pub fn new(taps: Vec<FadingTap>, doppler_hz: f64, seed: u64) -> Self {
        assert!(!taps.is_empty(), "taps must be nonempty");
        assert!(doppler_hz >= 0.0, "doppler must be nonnegative");
        for tap in &taps {
            assert!(tap.power >= 0.0, "tap power must be nonnegative");
            assert!(tap.k_factor >= 0.0, "K-factor must be nonnegative");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let oscillators: Vec<Vec<(f64, f64, f64)>> = taps
            .iter()
            .map(|_| {
                (0..Self::N_OSC)
                    .map(|_| {
                        let theta: f64 = rng.gen_range(0.0..TAU);
                        (
                            theta.cos(),
                            rng.gen_range(0.0..TAU),
                            rng.gen_range(0.0..TAU),
                        )
                    })
                    .collect()
            })
            .collect();
        let los_phase: Vec<f64> = taps.iter().map(|_| rng.gen_range(0.0..TAU)).collect();
        // At zero Doppler every oscillator's phase ramp `w` is ±0.0 for any
        // finite t and positive sample rate, and `±0.0 + φ == φ` exactly,
        // so the t = 0 gain is bit-identical to the gain at every sample.
        let frozen = (doppler_hz == 0.0).then(|| {
            (0..taps.len())
                .map(|p| Self::tap_gain(&taps[p], &oscillators[p], los_phase[p], 0.0, 0, 1.0))
                .collect()
        });
        FadingChannel {
            taps,
            doppler_hz,
            seed,
            oscillators,
            los_phase,
            frozen,
            t: 0,
            hist_re: Vec::new(),
            hist_im: Vec::new(),
        }
    }

    /// A pure-Rayleigh profile `[(delay_samples, avg_power)]`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`FadingChannel::new`].
    pub fn rayleigh(paths: Vec<(usize, f64)>, doppler_hz: f64, seed: u64) -> Self {
        let taps = paths
            .into_iter()
            .map(|(delay, power)| FadingTap {
                delay,
                power,
                k_factor: 0.0,
            })
            .collect();
        FadingChannel::new(taps, doppler_hz, seed)
    }

    /// A Rician profile: every path carries the same K-factor.
    ///
    /// # Panics
    ///
    /// Same conditions as [`FadingChannel::new`].
    pub fn rician(paths: Vec<(usize, f64)>, k_factor: f64, doppler_hz: f64, seed: u64) -> Self {
        let taps = paths
            .into_iter()
            .map(|(delay, power)| FadingTap {
                delay,
                power,
                k_factor,
            })
            .collect();
        FadingChannel::new(taps, doppler_hz, seed)
    }

    /// The power-delay profile.
    pub fn taps(&self) -> &[FadingTap] {
        &self.taps
    }

    /// The maximum Doppler shift in Hz.
    pub fn doppler_hz(&self) -> f64 {
        self.doppler_hz
    }

    /// The seed the tap processes were drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The longest path delay in samples (the delay-line length).
    pub fn max_delay(&self) -> usize {
        self.taps.iter().map(|t| t.delay).max().unwrap_or(0)
    }

    /// The instantaneous complex gain of tap `p` at absolute sample `t`.
    ///
    /// A sweep runner with quasi-static fading (zero Doppler) uses this —
    /// together with [`FadingChannel::freq_response_at`] — to hand the
    /// receiver perfect channel state information. At zero Doppler it
    /// returns the gain frozen at construction, whatever `t` and
    /// `sample_rate` are.
    pub fn gain_at(&self, p: usize, t: u64, sample_rate: f64) -> Complex64 {
        if let Some(gains) = &self.frozen {
            return gains[p];
        }
        Self::tap_gain(
            &self.taps[p],
            &self.oscillators[p],
            self.los_phase[p],
            self.doppler_hz,
            t,
            sample_rate,
        )
    }

    fn tap_gain(
        tap: &FadingTap,
        oscillators: &[(f64, f64, f64)],
        los_phase: f64,
        doppler_hz: f64,
        t: u64,
        sample_rate: f64,
    ) -> Complex64 {
        // Split the tap power between the diffuse and LOS components:
        // diffuse = power/(K+1), LOS = power·K/(K+1).
        let diffuse_pow = tap.power / (tap.k_factor + 1.0);
        let norm = (diffuse_pow / Self::N_OSC as f64).sqrt();
        let mut g = Complex64::ZERO;
        for &(cos_theta, phi_i, phi_q) in oscillators {
            let w = TAU * doppler_hz * cos_theta * t as f64 / sample_rate;
            g += Complex64::new((w + phi_i).cos(), (w + phi_q).cos());
        }
        g = g.scale(norm);
        if tap.k_factor > 0.0 {
            let los_amp = (tap.power * tap.k_factor / (tap.k_factor + 1.0)).sqrt();
            let w = TAU * doppler_hz * t as f64 / sample_rate;
            g += Complex64::from_polar(los_amp, w + los_phase);
        }
        g
    }

    /// The channel frequency response at normalized frequency `f`
    /// (fraction of the sample rate), frozen at absolute sample `t`.
    pub fn freq_response_at(&self, f: f64, t: u64, sample_rate: f64) -> Complex64 {
        self.taps
            .iter()
            .enumerate()
            .map(|(p, tap)| {
                self.gain_at(p, t, sample_rate) * Complex64::cis(-TAU * f * tap.delay as f64)
            })
            .sum()
    }

    fn arm_history(&mut self) {
        let hist = self.max_delay();
        self.hist_re.clear();
        self.hist_im.clear();
        self.hist_re.resize(hist, 0.0);
        self.hist_im.resize(hist, 0.0);
    }

    /// The shared per-sample core of the batch and chunked paths: applies
    /// the time-varying tapped delay line to `(x_re, x_im)` starting at
    /// absolute sample `t0`, reading pre-chunk samples from
    /// `(hist_re, hist_im)`, appending into `out`, and rolling the history
    /// forward. Both entry points run exactly this code, so chunked output
    /// is bit-identical to batch by construction.
    #[allow(clippy::too_many_arguments)]
    fn apply(
        taps: &[FadingTap],
        gain_of: impl Fn(usize, u64) -> Complex64,
        t0: u64,
        x_re: &[f64],
        x_im: &[f64],
        hist_re: &mut [f64],
        hist_im: &mut [f64],
        out: &mut Signal,
    ) {
        let hist = hist_re.len();
        for n in 0..x_re.len() {
            let t = t0 + n as u64;
            let mut acc_re = 0.0;
            let mut acc_im = 0.0;
            for (p, tap) in taps.iter().enumerate() {
                let g = gain_of(p, t);
                let (sr, si) = if n >= tap.delay {
                    (x_re[n - tap.delay], x_im[n - tap.delay])
                } else {
                    let idx = hist - (tap.delay - n);
                    (hist_re[idx], hist_im[idx])
                };
                acc_re += g.re * sr - g.im * si;
                acc_im += g.re * si + g.im * sr;
            }
            out.push(Complex64::new(acc_re, acc_im));
        }
        // Roll the delay line forward over this chunk's input.
        if hist > 0 {
            if x_re.len() >= hist {
                hist_re.copy_from_slice(&x_re[x_re.len() - hist..]);
                hist_im.copy_from_slice(&x_im[x_im.len() - hist..]);
            } else {
                hist_re.rotate_left(x_re.len());
                hist_im.rotate_left(x_im.len());
                let keep = hist - x_re.len();
                hist_re[keep..].copy_from_slice(x_re);
                hist_im[keep..].copy_from_slice(x_im);
            }
        }
    }
}

impl Block for FadingChannel {
    fn name(&self) -> &str {
        "fading-channel"
    }

    fn role(&self) -> BlockRole {
        BlockRole::Impairment
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        // Batch is one maximal chunk over a freshly zeroed delay line —
        // literally the chunked path, so the two agree bit for bit.
        self.arm_history();
        let mut out = Signal::empty(inputs[0].sample_rate());
        self.process_chunk(&[&inputs[0]], &mut out)?;
        Ok(out)
    }

    fn begin_stream(&mut self) {
        self.arm_history();
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        if self.hist_re.len() != self.max_delay() {
            // Direct use without begin_stream: arm the delay line now.
            self.arm_history();
        }
        let (x_re, x_im) = inputs[0].parts();
        let fs = inputs[0].sample_rate();
        out.clear();
        out.set_sample_rate(fs);
        let taps = &self.taps;
        let oscillators = &self.oscillators;
        let los_phase = &self.los_phase;
        let frozen = &self.frozen;
        let doppler_hz = self.doppler_hz;
        Self::apply(
            taps,
            |p, t| match frozen {
                Some(gains) => gains[p],
                None => Self::tap_gain(&taps[p], &oscillators[p], los_phase[p], doppler_hz, t, fs),
            },
            self.t,
            x_re,
            x_im,
            &mut self.hist_re,
            &mut self.hist_im,
            out,
        );
        self.t += x_re.len() as u64;
        Ok(())
    }

    fn reset(&mut self) {
        self.t = 0;
        self.hist_re.clear();
        self.hist_im.clear();
    }
}

/// A carrier frequency offset: the deterministic rotation
/// `y[n] = x[n]·e^{j(2πΔf·n/fs + φ₀)}` a TX/RX oscillator mismatch leaves
/// on the baseband signal.
///
/// The rotation is keyed on the *absolute* sample index carried across
/// chunks, so streaming output is bit-identical to batch.
#[derive(Debug, Clone)]
pub struct CfoChannel {
    freq_hz: f64,
    phase_rad: f64,
    /// Absolute sample index of the next input sample.
    t: u64,
}

impl CfoChannel {
    /// Creates an offset of `freq_hz` with zero initial phase.
    pub fn new(freq_hz: f64) -> Self {
        CfoChannel {
            freq_hz,
            phase_rad: 0.0,
            t: 0,
        }
    }

    /// Builder: sets the static phase offset `φ₀` in radians.
    pub fn with_phase(mut self, phase_rad: f64) -> Self {
        self.phase_rad = phase_rad;
        self
    }

    /// The configured frequency offset in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    fn rotate(&self, re: &mut [f64], im: &mut [f64], fs: f64) {
        for (n, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let t = self.t + n as u64;
            let phase = TAU * self.freq_hz * t as f64 / fs + self.phase_rad;
            let (sin, cos) = phase.sin_cos();
            let (xr, xi) = (*r, *i);
            *r = xr * cos - xi * sin;
            *i = xr * sin + xi * cos;
        }
    }
}

impl Block for CfoChannel {
    fn name(&self) -> &str {
        "cfo-channel"
    }

    fn role(&self) -> BlockRole {
        BlockRole::Impairment
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let mut s = inputs[0].clone();
        let fs = s.sample_rate();
        let (re, im) = s.parts_mut();
        self.rotate(re, im, fs);
        self.t += s.len() as u64;
        Ok(s)
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let fs = out.sample_rate();
        let n = out.len();
        let (re, im) = out.parts_mut();
        self.rotate(re, im, fs);
        self.t += n as u64;
        Ok(())
    }

    fn reset(&mut self) {
        self.t = 0;
    }
}

/// Oscillator phase noise as a standalone channel impairment: a seeded
/// Wiener phase random walk whose per-sample increment variance is
/// `2πΔf/fs` rad² for a Lorentzian linewidth `Δf` (the same model as
/// [`crate::analog::LocalOscillator`], without the frequency offset —
/// combine with [`CfoChannel`] for both).
///
/// The RNG draws one Gaussian per sample in order, and the walk state plus
/// the RNG stream carry across chunks, so streaming output is
/// bit-identical to batch.
#[derive(Debug, Clone)]
pub struct PhaseNoiseChannel {
    linewidth_hz: f64,
    seed: u64,
    rng: StdRng,
    phase: f64,
}

impl PhaseNoiseChannel {
    /// Creates phase noise of 3-dB linewidth `linewidth_hz`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `linewidth_hz` is negative.
    pub fn new(linewidth_hz: f64, seed: u64) -> Self {
        assert!(linewidth_hz >= 0.0, "linewidth must be nonnegative");
        PhaseNoiseChannel {
            linewidth_hz,
            seed,
            rng: StdRng::seed_from_u64(seed),
            phase: 0.0,
        }
    }

    /// The configured linewidth in Hz.
    pub fn linewidth_hz(&self) -> f64 {
        self.linewidth_hz
    }

    fn walk(&mut self, re: &mut [f64], im: &mut [f64], fs: f64) {
        let sigma = (TAU * self.linewidth_hz / fs).sqrt();
        // Sequential loop: the RNG draw order defines the phase trajectory.
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            if sigma > 0.0 {
                let (g, _) = gaussian_pair(&mut self.rng);
                self.phase += sigma * g;
            }
            let (sin, cos) = self.phase.sin_cos();
            let (xr, xi) = (*r, *i);
            *r = xr * cos - xi * sin;
            *i = xr * sin + xi * cos;
        }
    }
}

impl Block for PhaseNoiseChannel {
    fn name(&self) -> &str {
        "phase-noise-channel"
    }

    fn role(&self) -> BlockRole {
        BlockRole::Impairment
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let mut s = inputs[0].clone();
        let fs = s.sample_rate();
        let (re, im) = s.parts_mut();
        self.walk(re, im, fs);
        Ok(s)
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let fs = out.sample_rate();
        let (re, im) = out.parts_mut();
        self.walk(re, im, fs);
        Ok(())
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.phase = 0.0;
    }
}

/// A behavioral twisted-pair (DSL) line: √f attenuation law implemented as a
/// designed FIR, the standard cable model at system level.
///
/// The insertion loss at frequency `f` is `loss_at_ref_db · √(f/f_ref)` dB,
/// matching the skin-effect-dominated attenuation of a copper loop.
#[derive(Debug, Clone)]
pub struct DslLineChannel {
    loss_at_ref_db: f64,
    f_ref_hz: f64,
    fir_len: usize,
}

impl DslLineChannel {
    /// Creates a line with `loss_at_ref_db` of attenuation at `f_ref_hz`.
    /// A 3 km 0.4 mm loop is roughly 13.8 dB at 300 kHz.
    ///
    /// # Panics
    ///
    /// Panics if the loss is negative or the reference frequency is not
    /// positive.
    pub fn new(loss_at_ref_db: f64, f_ref_hz: f64) -> Self {
        assert!(loss_at_ref_db >= 0.0, "loss must be nonnegative");
        assert!(f_ref_hz > 0.0, "reference frequency must be positive");
        DslLineChannel {
            loss_at_ref_db,
            f_ref_hz,
            // Default keeps the delay spread comfortably inside a 32-sample
            // DMT cyclic prefix; real loops are longer and need a TEQ —
            // model that by raising the length via `with_fir_len`.
            fir_len: 33,
        }
    }

    /// Builder: sets the FIR model length (odd; delay spread ≈ half of
    /// it). Longer filters model loops whose impulse response exceeds the
    /// DMT cyclic prefix.
    ///
    /// # Panics
    ///
    /// Panics if `len` is even or zero.
    pub fn with_fir_len(mut self, len: usize) -> Self {
        assert!(
            len % 2 == 1,
            "FIR length must be odd for integer group delay"
        );
        self.fir_len = len;
        self
    }

    /// The filter's group delay in samples (the linear-phase FIR centers
    /// its response here) — receivers must advance their symbol timing by
    /// this amount, exactly as a modem's timing recovery would.
    pub fn group_delay(&self) -> usize {
        (self.fir_len - 1) / 2
    }

    /// The line's amplitude response at `f` Hz (linear).
    pub fn amplitude_at(&self, f_hz: f64) -> f64 {
        let loss_db = self.loss_at_ref_db * (f_hz.abs() / self.f_ref_hz).sqrt();
        10f64.powf(-loss_db / 20.0)
    }

    /// Designs the equivalent FIR for a given sample rate via
    /// frequency sampling.
    fn design(&self, sample_rate: f64) -> Vec<f64> {
        let n = self.fir_len;
        // Sample the desired (real, even) amplitude response on n points and
        // inverse-DFT to a linear-phase impulse response.
        let mut h = vec![0.0f64; n];
        for (k, hk) in h.iter_mut().enumerate() {
            let mut acc = 0.0;
            for m in 0..n {
                let f = if m <= n / 2 {
                    m as f64
                } else {
                    m as f64 - n as f64
                };
                let f_hz = f * sample_rate / n as f64;
                let mag = self.amplitude_at(f_hz);
                // Linear phase centered at (n-1)/2.
                let phase = -2.0 * PI * f * (n - 1) as f64 / (2.0 * n as f64);
                acc += mag * (2.0 * PI * f * k as f64 / n as f64 + phase).cos();
            }
            *hk = acc / n as f64;
        }
        h
    }
}

impl Block for DslLineChannel {
    fn name(&self) -> &str {
        "dsl-line"
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let coeffs = self.design(inputs[0].sample_rate());
        let mut fir = FirFilter::new(coeffs);
        Ok(Signal::new(
            fir.process(&inputs[0].samples()),
            inputs[0].sample_rate(),
        ))
    }
}

/// Bernoulli–Gaussian impulsive noise: the bursty interference of
/// powerline and subscriber-loop environments (HomePlug's and DSL's
/// dominant impairment besides attenuation).
///
/// Each sample independently receives, with probability `impulse_prob`, a
/// Gaussian impulse whose power is `impulse_to_background_db` above the
/// ever-present background AWGN floor — the two-component special case of
/// Middleton's Class A model.
#[derive(Debug, Clone)]
pub struct ImpulsiveNoiseChannel {
    background_snr_db: f64,
    impulse_prob: f64,
    impulse_to_background_db: f64,
    seed: u64,
    rng: StdRng,
}

impl ImpulsiveNoiseChannel {
    /// Creates the channel: background AWGN at `background_snr_db` below
    /// the signal, impulses of probability `impulse_prob` per sample at
    /// `impulse_to_background_db` above the background floor.
    ///
    /// # Panics
    ///
    /// Panics if `impulse_prob` is outside `[0, 1]`.
    pub fn new(
        background_snr_db: f64,
        impulse_prob: f64,
        impulse_to_background_db: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&impulse_prob),
            "impulse probability must be in [0, 1]"
        );
        ImpulsiveNoiseChannel {
            background_snr_db,
            impulse_prob,
            impulse_to_background_db,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The impulse probability per sample.
    pub fn impulse_prob(&self) -> f64 {
        self.impulse_prob
    }
}

impl Block for ImpulsiveNoiseChannel {
    fn name(&self) -> &str {
        "impulsive-noise-channel"
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let mut s = inputs[0].clone();
        let sig_pow = s.power();
        if sig_pow == 0.0 {
            return Ok(s);
        }
        let bg_pow = sig_pow * 10f64.powf(-self.background_snr_db / 10.0);
        let bg_sigma = (bg_pow / 2.0).sqrt();
        let imp_sigma = bg_sigma * 10f64.powf(self.impulse_to_background_db / 20.0);
        // Sequential loop: the RNG draw order defines the noise sequence.
        let (re, im) = s.parts_mut();
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            let (gr, gi) = gaussian_pair(&mut self.rng);
            *r += bg_sigma * gr;
            *i += bg_sigma * gi;
            if self.rng.gen::<f64>() < self.impulse_prob {
                let (ir, ii) = gaussian_pair(&mut self.rng);
                *r += imp_sigma * ir;
                *i += imp_sigma * ii;
            }
        }
        Ok(s)
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(n: usize) -> Signal {
        Signal::new(vec![Complex64::ONE; n], 1.0)
    }

    #[test]
    fn awgn_snr_calibrated() {
        let mut ch = AwgnChannel::from_snr_db(0.0, 3);
        let out = ch.process(&[ones(50_000)]).unwrap();
        // At 0 dB SNR output power ≈ 2× signal power.
        assert!((out.power() - 2.0).abs() < 0.05, "power {}", out.power());
        assert_eq!(ch.snr_db(), 0.0);
    }

    #[test]
    fn awgn_reproducible_after_reset() {
        let mut ch = AwgnChannel::from_snr_db(10.0, 99);
        let a = ch.process(&[ones(64)]).unwrap();
        ch.reset();
        let b = ch.process(&[ones(64)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn awgn_passes_silence() {
        let mut ch = AwgnChannel::from_snr_db(10.0, 1);
        let out = ch
            .process(&[Signal::new(vec![Complex64::ZERO; 8], 1.0)])
            .unwrap();
        assert_eq!(out.power(), 0.0);
    }

    /// Runs `block` over `signal` in `chunk_len`-sized chunks through the
    /// streaming API and concatenates the output.
    fn run_chunked(block: &mut dyn Block, signal: &Signal, chunk_len: usize) -> Signal {
        block.begin_stream();
        let mut out = Signal::empty(signal.sample_rate());
        let mut chunk_out = Signal::default();
        let mut pos = 0;
        while pos < signal.len() {
            let take = chunk_len.min(signal.len() - pos);
            let chunk = Signal::new(
                signal.samples()[pos..pos + take].to_vec(),
                signal.sample_rate(),
            );
            block.process_chunk(&[&chunk], &mut chunk_out).unwrap();
            out.extend_from(&chunk_out);
            pos += take;
        }
        block.end_stream().unwrap();
        out
    }

    #[test]
    fn awgn_with_reference_power_chunked_matches_batch() {
        let sig = Signal::new(
            (0..257)
                .map(|i| Complex64::cis(0.01 * i as f64))
                .collect::<Vec<_>>(),
            1.0e6,
        );
        let mut batch = AwgnChannel::from_snr_db(12.0, 42).with_reference_power(1.0);
        assert_eq!(batch.reference_power(), Some(1.0));
        let want = batch.process(std::slice::from_ref(&sig)).unwrap();
        for chunk_len in [1usize, 7, 64, 1000] {
            let mut ch = AwgnChannel::from_snr_db(12.0, 42).with_reference_power(1.0);
            let got = run_chunked(&mut ch, &sig, chunk_len);
            assert_eq!(got, want, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn awgn_reference_power_fixes_sigma_even_for_quiet_input() {
        // Without a reference, AWGN scales noise to the (tiny) input power;
        // with one, σ is absolute.
        let quiet = Signal::new(vec![Complex64::ZERO; 4096], 1.0);
        let mut ch = AwgnChannel::from_snr_db(0.0, 8).with_reference_power(1.0);
        let out = ch.process(&[quiet]).unwrap();
        assert!((out.power() - 1.0).abs() < 0.1, "power {}", out.power());
    }

    #[test]
    #[should_panic(expected = "reference power")]
    fn awgn_bad_reference_power_panics() {
        let _ = AwgnChannel::from_snr_db(10.0, 0).with_reference_power(0.0);
    }

    #[test]
    fn multipath_chunked_matches_batch() {
        let taps = vec![
            Complex64::new(1.0, 0.0),
            Complex64::new(0.3, -0.2),
            Complex64::ZERO,
            Complex64::new(-0.1, 0.05),
        ];
        let sig = Signal::new(
            (0..131)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect::<Vec<_>>(),
            1.0,
        );
        let mut batch = MultipathChannel::new(taps.clone());
        let want = batch.process(std::slice::from_ref(&sig)).unwrap();
        for chunk_len in [1usize, 2, 5, 64, 1000] {
            let mut ch = MultipathChannel::new(taps.clone());
            let got = run_chunked(&mut ch, &sig, chunk_len);
            assert_eq!(got, want, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn multipath_stream_state_clears_between_passes() {
        let mut ch = MultipathChannel::two_ray(2, 0.5);
        let sig = Signal::new(vec![Complex64::ONE; 16], 1.0);
        let a = run_chunked(&mut ch, &sig, 3);
        let b = run_chunked(&mut ch, &sig, 16);
        assert_eq!(a, b, "begin_stream must re-zero the echo history");
        ch.reset();
        let c = run_chunked(&mut ch, &sig, 5);
        assert_eq!(a, c);
    }

    #[test]
    fn multipath_impulse_reproduces_taps() {
        let taps = vec![Complex64::ONE, Complex64::ZERO, Complex64::new(0.5, 0.0)];
        let mut ch = MultipathChannel::new(taps.clone());
        let mut x = vec![Complex64::ZERO; 6];
        x[0] = Complex64::ONE;
        let out = ch.process(&[Signal::new(x, 1.0)]).unwrap();
        for (k, &t) in taps.iter().enumerate() {
            assert_eq!(out.samples()[k], t);
        }
        assert_eq!(out.samples()[4], Complex64::ZERO);
        assert_eq!(ch.taps().len(), 3);
    }

    #[test]
    fn two_ray_frequency_response_nulls() {
        // Equal-amplitude echo at delay D puts nulls at odd multiples of
        // 1/(2D).
        let ch = MultipathChannel::two_ray(4, 1.0);
        let null = ch.freq_response(1.0 / 8.0);
        assert!(null.abs() < 1e-12);
        let peak = ch.freq_response(0.0);
        assert!((peak.abs() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn multipath_empty_taps_panics() {
        let _ = MultipathChannel::new(vec![]);
    }

    #[test]
    fn rayleigh_static_when_doppler_zero() {
        let mut ch = FadingChannel::rayleigh(vec![(0, 1.0)], 0.0, 5);
        let out = ch.process(&[ones(100)]).unwrap();
        let g0 = out.get(0);
        for z in out.iter() {
            assert!((z - g0).abs() < 1e-12);
        }
    }

    #[test]
    fn rayleigh_varies_with_doppler() {
        let mut ch = FadingChannel::rayleigh(vec![(0, 1.0)], 0.05, 5);
        let out = ch.process(&[ones(1000)]).unwrap();
        let g0 = out.samples()[0];
        let g999 = out.samples()[999];
        assert!((g0 - g999).abs() > 1e-3, "channel must evolve");
    }

    #[test]
    fn impulsive_noise_total_power_matches_model() {
        // Expected noise power = bg + p·impulse = bg·(1 + p·10^{I/10}).
        let mut ch = ImpulsiveNoiseChannel::new(20.0, 0.01, 30.0, 5);
        assert!((ch.impulse_prob() - 0.01).abs() < 1e-12);
        let out = ch.process(&[ones(200_000)]).unwrap();
        let noise_pow = out.power() - 1.0;
        let expected = 0.01 * (1.0 + 0.01 * 1000.0);
        assert!(
            (noise_pow - expected).abs() / expected < 0.15,
            "noise {noise_pow} vs expected {expected}"
        );
    }

    #[test]
    fn impulsive_noise_is_heavy_tailed() {
        // With the same *total* noise power, the impulsive channel has far
        // more extreme samples than pure AWGN.
        let total_db = -10.0 * (0.01f64 * (1.0 + 0.01 * 1000.0)).log10();
        let mut imp = ImpulsiveNoiseChannel::new(20.0, 0.01, 30.0, 6);
        let mut awgn = AwgnChannel::from_snr_db(total_db, 6);
        let big = |s: &Signal| {
            s.samples()
                .iter()
                .filter(|z| (**z - Complex64::ONE).abs() > 1.0)
                .count()
        };
        let imp_big = big(&imp.process(&[ones(100_000)]).unwrap());
        let awgn_big = big(&awgn.process(&[ones(100_000)]).unwrap());
        assert!(
            imp_big > 10 * awgn_big.max(1),
            "impulsive {imp_big} vs awgn {awgn_big}"
        );
    }

    #[test]
    fn impulsive_noise_reproducible_and_degenerate_cases() {
        let mut ch = ImpulsiveNoiseChannel::new(15.0, 0.05, 20.0, 9);
        let a = ch.process(&[ones(128)]).unwrap();
        ch.reset();
        let b = ch.process(&[ones(128)]).unwrap();
        assert_eq!(a, b);
        // p = 0 reduces to plain AWGN statistics; silence passes through.
        let mut quiet = ImpulsiveNoiseChannel::new(15.0, 0.0, 20.0, 9);
        let out = quiet
            .process(&[Signal::new(vec![Complex64::ZERO; 16], 1.0)])
            .unwrap();
        assert_eq!(out.power(), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn impulse_prob_out_of_range_panics() {
        let _ = ImpulsiveNoiseChannel::new(10.0, 1.5, 10.0, 0);
    }

    #[test]
    fn dsl_attenuation_follows_sqrt_f() {
        let line = DslLineChannel::new(12.0, 300e3);
        assert!((line.amplitude_at(300e3) - 10f64.powf(-12.0 / 20.0)).abs() < 1e-12);
        // 4× frequency → 2× dB loss.
        let a4 = line.amplitude_at(1200e3);
        assert!((a4 - 10f64.powf(-24.0 / 20.0)).abs() < 1e-12);
        assert_eq!(line.amplitude_at(0.0), 1.0);
    }

    #[test]
    fn dsl_filters_high_frequencies_harder() {
        let mut line = DslLineChannel::new(20.0, 100e3);
        let fs = 2.0e6;
        let n = 4096;
        // Low tone at 50 kHz vs high tone at 800 kHz.
        let lo: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(TAU * 50e3 * i as f64 / fs))
            .collect();
        let hi: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(TAU * 800e3 * i as f64 / fs))
            .collect();
        let ylo = line.process(&[Signal::new(lo, fs)]).unwrap();
        let yhi = line.process(&[Signal::new(hi, fs)]).unwrap();
        let plo = ofdm_dsp::stats::mean_power(&ylo.samples()[1024..]);
        let phi = ofdm_dsp::stats::mean_power(&yhi.samples()[1024..]);
        assert!(plo > 4.0 * phi, "low {plo} vs high {phi}");
    }

    fn wave(n: usize, fs: f64) -> Signal {
        Signal::new(
            (0..n)
                .map(|i| Complex64::new((i as f64 * 0.29).sin(), (i as f64 * 0.13).cos()))
                .collect::<Vec<_>>(),
            fs,
        )
    }

    #[test]
    fn fading_chunked_matches_batch() {
        // Moving taps, and frozen zero-Doppler taps.
        let sig = wave(263, 1.0e6);
        let paths = vec![(0, 0.7), (3, 0.2), (9, 0.1)];
        for doppler in [120.0, 0.0] {
            let mut batch = FadingChannel::rayleigh(paths.clone(), doppler, 11);
            let want = batch.process(std::slice::from_ref(&sig)).unwrap();
            for chunk_len in [1usize, 2, 7, 64, 1000] {
                let mut ch = FadingChannel::rayleigh(paths.clone(), doppler, 11);
                let got = run_chunked(&mut ch, &sig, chunk_len);
                assert_eq!(got, want, "doppler {doppler} chunk_len {chunk_len}");
            }
        }
    }

    fn bits(z: Complex64) -> (u64, u64) {
        (z.re.to_bits(), z.im.to_bits())
    }

    #[test]
    fn zero_doppler_gains_are_frozen_bit_for_bit() {
        let profiles = [
            FadingChannel::rayleigh(vec![(0, 0.6), (3, 0.3), (7, 0.1)], 0.0, 21),
            FadingChannel::rician(vec![(0, 0.8), (2, 0.2)], 4.0, 0.0, 21),
        ];
        for ch in &profiles {
            for p in 0..ch.taps().len() {
                let frozen = ch.gain_at(p, 0, 1.0);
                for t in [0u64, 1, 1_000_000, 1 << 40] {
                    for fs in [1.0, 20e6] {
                        // The per-sample formula the frozen gain stands in for.
                        let per_sample = FadingChannel::tap_gain(
                            &ch.taps[p],
                            &ch.oscillators[p],
                            ch.los_phase[p],
                            0.0,
                            t,
                            fs,
                        );
                        assert_eq!(bits(per_sample), bits(frozen), "tap {p} t {t} fs {fs}");
                        assert_eq!(bits(ch.gain_at(p, t, fs)), bits(frozen));
                    }
                }
            }
        }
    }

    #[test]
    fn doppler_output_is_the_per_sample_gain_convolution() {
        let fs = 1.0e6;
        let sig = wave(300, fs);
        let mut ch = FadingChannel::rician(vec![(0, 0.7), (3, 0.2), (9, 0.1)], 2.0, 50.0, 13);
        let got = ch.process(std::slice::from_ref(&sig)).unwrap();
        assert_ne!(
            ch.gain_at(0, 0, fs),
            ch.gain_at(0, 299, fs),
            "the taps move"
        );
        let x = sig.samples();
        for (n, y) in got.iter().enumerate() {
            let (mut re, mut im) = (0.0, 0.0);
            for (p, tap) in ch.taps().iter().enumerate() {
                let g = ch.gain_at(p, n as u64, fs);
                let s = if n >= tap.delay {
                    x[n - tap.delay]
                } else {
                    Complex64::ZERO
                };
                re += g.re * s.re - g.im * s.im;
                im += g.re * s.im + g.im * s.re;
            }
            assert_eq!(bits(y), bits(Complex64::new(re, im)), "sample {n}");
        }
    }

    #[test]
    fn fading_seed_deterministic_and_reset_rewinds() {
        let sig = wave(100, 1.0e6);
        let mut a = FadingChannel::rician(vec![(0, 1.0)], 5.0, 40.0, 7);
        let mut b = FadingChannel::rician(vec![(0, 1.0)], 5.0, 40.0, 7);
        let ya = a.process(std::slice::from_ref(&sig)).unwrap();
        let yb = b.process(std::slice::from_ref(&sig)).unwrap();
        assert_eq!(ya, yb);
        // A second pass advances time; reset rewinds to t = 0.
        let y2 = a.process(std::slice::from_ref(&sig)).unwrap();
        assert_ne!(ya, y2);
        a.reset();
        let y3 = a.process(std::slice::from_ref(&sig)).unwrap();
        assert_eq!(ya, y3);
        // Different seeds give different realizations.
        let mut c = FadingChannel::rician(vec![(0, 1.0)], 5.0, 40.0, 8);
        assert_ne!(c.process(std::slice::from_ref(&sig)).unwrap(), ya);
    }

    #[test]
    fn fading_average_power_matches_profile() {
        // Average |h|² over many realizations ≈ Σ tap powers.
        let sig = ones(64);
        let mut acc = 0.0;
        const REALIZATIONS: u64 = 400;
        for seed in 0..REALIZATIONS {
            let mut ch = FadingChannel::rayleigh(vec![(0, 0.6), (2, 0.4)], 0.0, seed);
            // Static fading: measure the flat gain on the steady-state tail.
            let out = ch.process(std::slice::from_ref(&sig)).unwrap();
            acc += ofdm_dsp::stats::mean_power(&out.samples()[8..]);
        }
        let avg = acc / REALIZATIONS as f64;
        assert!((avg - 1.0).abs() < 0.15, "avg power {avg}");
    }

    #[test]
    fn fading_rician_high_k_approaches_los() {
        // K → ∞ collapses the tap onto the deterministic LOS ray of power 1.
        let sig = ones(32);
        for seed in 0..10 {
            let mut ch = FadingChannel::rician(vec![(0, 1.0)], 1.0e6, 0.0, seed);
            let out = ch.process(std::slice::from_ref(&sig)).unwrap();
            let p = out.power();
            assert!((p - 1.0).abs() < 0.01, "seed {seed}: power {p}");
        }
    }

    #[test]
    fn fading_freq_response_matches_static_gain() {
        let ch = FadingChannel::rayleigh(vec![(0, 0.8), (4, 0.2)], 0.0, 3);
        // At f = 0 the response is the plain tap sum.
        let want = ch.gain_at(0, 0, 1.0) + ch.gain_at(1, 0, 1.0);
        let got = ch.freq_response_at(0.0, 0, 1.0);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn cfo_chunked_matches_batch_and_is_pure_rotation() {
        let sig = wave(199, 1.0e6);
        let mut batch = CfoChannel::new(1234.5).with_phase(0.4);
        let want = batch.process(std::slice::from_ref(&sig)).unwrap();
        // A rotation never changes sample magnitudes.
        for (a, b) in sig.iter().zip(want.iter()) {
            assert!((a.abs() - b.abs()).abs() < 1e-12);
        }
        for chunk_len in [1usize, 3, 17, 64, 1000] {
            let mut ch = CfoChannel::new(1234.5).with_phase(0.4);
            ch.begin_stream();
            let got = run_chunked(&mut ch, &sig, chunk_len);
            assert_eq!(got, want, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn cfo_rotates_at_configured_rate() {
        let fs = 1.0e6;
        let df = 10_000.0;
        let mut ch = CfoChannel::new(df);
        assert_eq!(ch.freq_hz(), df);
        let out = ch.process(&[ones(101)]).unwrap();
        // After n samples the phase is 2π·df·n/fs.
        let z = out.get(100);
        let want = Complex64::cis(TAU * df * 100.0 / fs);
        assert!((z - want).abs() < 1e-9, "got {z:?} want {want:?}");
    }

    #[test]
    fn cfo_reset_rewinds_phase_ramp() {
        let sig = wave(64, 1.0e6);
        let mut ch = CfoChannel::new(777.0);
        let a = ch.process(std::slice::from_ref(&sig)).unwrap();
        let b = ch.process(std::slice::from_ref(&sig)).unwrap();
        assert_ne!(a, b, "the ramp must continue across calls");
        ch.reset();
        let c = ch.process(std::slice::from_ref(&sig)).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn phase_noise_chunked_matches_batch() {
        let sig = wave(211, 1.0e6);
        let mut batch = PhaseNoiseChannel::new(500.0, 21);
        let want = batch.process(std::slice::from_ref(&sig)).unwrap();
        for chunk_len in [1usize, 5, 32, 1000] {
            let mut ch = PhaseNoiseChannel::new(500.0, 21);
            ch.begin_stream();
            let got = run_chunked(&mut ch, &sig, chunk_len);
            assert_eq!(got, want, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn phase_noise_preserves_magnitude_and_resets() {
        let sig = wave(128, 1.0e6);
        let mut ch = PhaseNoiseChannel::new(1_000.0, 5);
        assert_eq!(ch.linewidth_hz(), 1_000.0);
        let a = ch.process(std::slice::from_ref(&sig)).unwrap();
        for (x, y) in sig.iter().zip(a.iter()) {
            assert!((x.abs() - y.abs()).abs() < 1e-12);
        }
        ch.reset();
        let b = ch.process(std::slice::from_ref(&sig)).unwrap();
        assert_eq!(a, b, "reset must reseed the walk");
        // Zero linewidth is the identity.
        let mut ident = PhaseNoiseChannel::new(0.0, 5);
        let c = ident.process(std::slice::from_ref(&sig)).unwrap();
        assert_eq!(c, sig);
    }

    #[test]
    fn new_impairments_report_impairment_role() {
        use crate::supervise::BlockRole;
        let fading = FadingChannel::rayleigh(vec![(0, 1.0)], 10.0, 0);
        let cfo = CfoChannel::new(100.0);
        let pn = PhaseNoiseChannel::new(100.0, 0);
        assert_eq!(fading.role(), BlockRole::Impairment);
        assert_eq!(cfo.role(), BlockRole::Impairment);
        assert_eq!(pn.role(), BlockRole::Impairment);
    }
}
