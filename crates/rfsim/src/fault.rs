//! Fault injection and graceful degradation.
//!
//! Long unattended RF sweeps — the paper's C2 use case, a signal source
//! living inside a system simulator for thousands of analog scenarios —
//! survive only if faults are *data*, not process aborts. This module
//! supplies the impairments and the machinery:
//!
//! * standalone impairment blocks ([`SampleDropper`], [`NanInjector`],
//!   [`ClockDriftJitter`]) that model degraded sample transport, usable in
//!   any graph and chunk-exact under streaming
//!   [`crate::Graph::execute`];
//! * a seeded, deterministic [`FaultPlan`] whose [`FaultPlan::wrap`] turns
//!   *any* existing block into a [`FaultInjector`] that drops samples,
//!   injects NaNs, returns typed [`SimError::BlockFault`] errors or panics
//!   at configured rates — the adversarial workload for the
//!   panic-isolated scenario runner
//!   ([`crate::scenario::SweepPlan::run`]);
//! * [`FaultStats`], the per-injector account of what actually fired, so
//!   sweeps can assert their observed outcomes against injected faults.
//!
//! Everything is driven by the same seeded RNG family as the channels:
//! equal seeds give equal fault patterns, sequentially or in parallel.
//!
//! # Example
//!
//! ```
//! use rfsim::prelude::*;
//!
//! # fn main() -> Result<(), SimError> {
//! let mut g = Graph::new();
//! let src = g.add(ToneSource::new(1.0e3, 1.0e6, 512));
//! // A PA that refuses to work 100% of the time.
//! let pa = g.add(FaultPlan::new().with_error_rate(1.0).wrap(7, SoftClipPa::new(1.0)));
//! g.connect(src, pa, 0)?;
//! assert!(matches!(
//!     g.execute(&ExecPlan::batch()),
//!     Err(SimError::BlockFault { .. })
//! ));
//! # Ok(())
//! # }
//! ```

use crate::block::{Block, SimError};
use crate::signal::Signal;
use crate::supervise::BlockRole;
use ofdm_dsp::Complex64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// One zero-mean unit-variance Gaussian draw (Box–Muller, cosine leg).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// Clamps a probability into `[0, 1]` (NaN becomes 0).
fn clamp_rate(rate: f64) -> f64 {
    if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else if rate > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Erases samples to zero at a configured per-sample rate — the behavioral
/// model of a lossy sample link (DMA underrun, dropped bus beats).
///
/// Erasure keeps the sample count and timing intact, so downstream
/// frame-aligned processing still lines up; the lost energy shows up as
/// degraded EVM, exactly like a real erasure channel.
#[derive(Debug, Clone)]
pub struct SampleDropper {
    rate: f64,
    seed: u64,
    rng: StdRng,
    dropped: u64,
}

impl SampleDropper {
    /// Drops (zeroes) each sample independently with probability `rate`
    /// (clamped into `[0, 1]`). Equal seeds give equal drop patterns.
    pub fn new(rate: f64, seed: u64) -> Self {
        SampleDropper {
            rate: clamp_rate(rate),
            seed,
            rng: StdRng::seed_from_u64(seed),
            dropped: 0,
        }
    }

    /// The configured per-sample drop probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Samples zeroed since construction or the last reset.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn corrupt(&mut self, s: &mut Signal) {
        if self.rate == 0.0 {
            return;
        }
        // One RNG draw per sample in order — the drop pattern must not
        // depend on chunking or on the split layout.
        let (re, im) = s.parts_mut();
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            if self.rng.gen_bool(self.rate) {
                *r = 0.0;
                *i = 0.0;
                self.dropped += 1;
            }
        }
    }
}

impl Block for SampleDropper {
    fn role(&self) -> BlockRole {
        BlockRole::Impairment
    }

    fn name(&self) -> &str {
        "sample-dropper"
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let mut s = inputs[0].clone();
        self.corrupt(&mut s);
        Ok(s)
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        self.corrupt(out);
        Ok(())
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.dropped = 0;
    }
}

/// Replaces samples with NaN at a configured per-sample rate — the
/// impairment that exercises the scheduler's non-finite guard
/// ([`crate::ExecPlan::guard_non_finite`]) and any downstream numerical
/// robustness.
#[derive(Debug, Clone)]
pub struct NanInjector {
    rate: f64,
    seed: u64,
    rng: StdRng,
    injected: u64,
}

impl NanInjector {
    /// Corrupts each sample independently with probability `rate` (clamped
    /// into `[0, 1]`). Equal seeds give equal corruption patterns.
    pub fn new(rate: f64, seed: u64) -> Self {
        NanInjector {
            rate: clamp_rate(rate),
            seed,
            rng: StdRng::seed_from_u64(seed),
            injected: 0,
        }
    }

    /// The configured per-sample corruption probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Samples replaced with NaN since construction or the last reset.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    fn corrupt(&mut self, s: &mut Signal) {
        if self.rate == 0.0 {
            return;
        }
        let (re, im) = s.parts_mut();
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            if self.rng.gen_bool(self.rate) {
                *r = f64::NAN;
                *i = f64::NAN;
                self.injected += 1;
            }
        }
    }
}

impl Block for NanInjector {
    fn role(&self) -> BlockRole {
        BlockRole::Impairment
    }

    fn name(&self) -> &str {
        "nan-injector"
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let mut s = inputs[0].clone();
        self.corrupt(&mut s);
        Ok(s)
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        self.corrupt(out);
        Ok(())
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.injected = 0;
    }
}

/// A sampling-clock impairment: constant frequency drift (ppm of the
/// sample rate) plus white phase jitter, applied as a per-sample phase
/// rotation.
///
/// The behavioral abstraction: a clock running `ppm` parts-per-million
/// fast rotates baseband by `2π · ppm·10⁻⁶` radians per sample, and
/// cycle-to-cycle jitter adds a zero-mean Gaussian phase error of
/// `jitter_std_rad` per sample. The phase accumulator continues across
/// chunks and passes (like an oscillator), so streaming output is
/// bit-identical to batch for the same seed.
#[derive(Debug, Clone)]
pub struct ClockDriftJitter {
    drift_ppm: f64,
    jitter_std_rad: f64,
    seed: u64,
    rng: StdRng,
    /// Global sample index — the drift phase ramp's time base.
    n: u64,
}

impl ClockDriftJitter {
    /// A clock drifting `drift_ppm` parts-per-million with per-sample
    /// Gaussian phase jitter of standard deviation `jitter_std_rad`
    /// radians. Equal seeds give equal jitter streams.
    pub fn new(drift_ppm: f64, jitter_std_rad: f64, seed: u64) -> Self {
        ClockDriftJitter {
            drift_ppm,
            jitter_std_rad: jitter_std_rad.abs(),
            seed,
            rng: StdRng::seed_from_u64(seed),
            n: 0,
        }
    }

    /// The configured drift in ppm.
    pub fn drift_ppm(&self) -> f64 {
        self.drift_ppm
    }

    /// The configured per-sample phase-jitter standard deviation (rad).
    pub fn jitter_std_rad(&self) -> f64 {
        self.jitter_std_rad
    }

    fn corrupt(&mut self, s: &mut Signal) {
        let dphi = TAU * self.drift_ppm * 1e-6;
        let (re, im) = s.parts_mut();
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            let mut phi = dphi * self.n as f64;
            if self.jitter_std_rad > 0.0 {
                phi += self.jitter_std_rad * gaussian(&mut self.rng);
            }
            let z = Complex64::new(*r, *i) * Complex64::cis(phi);
            *r = z.re;
            *i = z.im;
            self.n += 1;
        }
    }
}

impl Block for ClockDriftJitter {
    fn role(&self) -> BlockRole {
        BlockRole::Impairment
    }

    fn name(&self) -> &str {
        "clock-drift-jitter"
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let mut s = inputs[0].clone();
        self.corrupt(&mut s);
        Ok(s)
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        self.corrupt(out);
        Ok(())
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.n = 0;
    }
}

/// A declarative, seeded fault profile: what to inject and how often.
///
/// Per-*sample* rates (`drop_rate`, `nan_rate`) corrupt the wrapped
/// block's output; per-*invocation* rates (`error_rate`, `panic_rate`)
/// fire before the wrapped block runs, as a typed
/// [`SimError::BlockFault`] or a real `panic!` unwind. All rates are
/// clamped into `[0, 1]`. [`FaultPlan::wrap`] binds the plan to a block
/// and a seed; equal `(plan, seed)` pairs produce identical fault
/// sequences.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    drop_rate: f64,
    nan_rate: f64,
    error_rate: f64,
    panic_rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (wrapping with it is a pass-through).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder: per-sample probability of zeroing an output sample.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = clamp_rate(rate);
        self
    }

    /// Builder: per-sample probability of replacing an output sample with
    /// NaN.
    pub fn with_nan_rate(mut self, rate: f64) -> Self {
        self.nan_rate = clamp_rate(rate);
        self
    }

    /// Builder: per-invocation probability of failing with
    /// [`SimError::BlockFault`] instead of running the wrapped block.
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = clamp_rate(rate);
        self
    }

    /// Builder: per-invocation probability of panicking instead of running
    /// the wrapped block — the adversarial input for panic-isolated sweeps
    /// ([`crate::scenario::SweepPlan::run`]).
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = clamp_rate(rate);
        self
    }

    /// The per-sample drop probability.
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }

    /// The per-sample NaN probability.
    pub fn nan_rate(&self) -> f64 {
        self.nan_rate
    }

    /// The per-invocation typed-error probability.
    pub fn error_rate(&self) -> f64 {
        self.error_rate
    }

    /// The per-invocation panic probability.
    pub fn panic_rate(&self) -> f64 {
        self.panic_rate
    }

    /// Returns `true` if the plan injects nothing.
    pub fn is_noop(&self) -> bool {
        self.drop_rate == 0.0
            && self.nan_rate == 0.0
            && self.error_rate == 0.0
            && self.panic_rate == 0.0
    }

    /// Binds the plan to a block: the result behaves like `inner` with
    /// this plan's faults injected, deterministically under `seed`.
    pub fn wrap<B: Block + 'static>(self, seed: u64, inner: B) -> FaultInjector {
        let name = format!("fault({})", inner.name());
        FaultInjector {
            inner: Box::new(inner),
            plan: self,
            seed,
            rng: StdRng::seed_from_u64(seed),
            name,
            stats: FaultStats::default(),
        }
    }
}

/// What a [`FaultInjector`] actually did, for asserting sweep outcomes
/// against injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Output samples zeroed.
    pub dropped_samples: u64,
    /// Output samples replaced with NaN.
    pub nan_samples: u64,
    /// Invocations failed with [`SimError::BlockFault`].
    pub injected_errors: u64,
    /// Invocations that panicked.
    pub injected_panics: u64,
}

impl FaultStats {
    /// Total faults of any kind.
    pub fn total(&self) -> u64 {
        self.dropped_samples + self.nan_samples + self.injected_errors + self.injected_panics
    }
}

/// Any [`Block`] wrapped with a [`FaultPlan`] — see [`FaultPlan::wrap`].
///
/// The wrapper is transparent: name becomes `fault(<inner>)`, ports,
/// streaming capability and state hooks all delegate to the wrapped
/// block. Fault draws consume a dedicated RNG, so the wrapped block's own
/// randomness (e.g. a channel's noise) is untouched and the composition
/// stays reproducible.
pub struct FaultInjector {
    inner: Box<dyn Block>,
    plan: FaultPlan,
    seed: u64,
    rng: StdRng,
    name: String,
    stats: FaultStats,
}

impl FaultInjector {
    /// The bound fault profile.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Faults fired since construction or the last reset.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Per-invocation faults: typed error or panic, before the wrapped
    /// block runs.
    fn pre_invoke(&mut self) -> Result<(), SimError> {
        if self.plan.panic_rate > 0.0 && self.rng.gen_bool(self.plan.panic_rate) {
            self.stats.injected_panics += 1;
            // Deliberate: this is the fault-injection layer's whole job —
            // produce a real unwind for the panic-isolated sweep runner to
            // catch. The clippy gate forbids *accidental* panics.
            #[allow(clippy::panic)]
            {
                panic!("injected panic in `{}`", self.name);
            }
        }
        if self.plan.error_rate > 0.0 && self.rng.gen_bool(self.plan.error_rate) {
            self.stats.injected_errors += 1;
            return Err(SimError::BlockFault {
                block: self.name.clone(),
                fault: "injected fault".into(),
            });
        }
        Ok(())
    }

    /// Per-sample faults on the wrapped block's output.
    fn corrupt(&mut self, s: &mut Signal) {
        let (drop, nan) = (self.plan.drop_rate, self.plan.nan_rate);
        if drop == 0.0 && nan == 0.0 {
            return;
        }
        let (re, im) = s.parts_mut();
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            // One uniform draw per sample partitioned across fault kinds
            // keeps the RNG stream identical for any chunking.
            let u: f64 = self.rng.gen();
            if u < drop {
                *r = 0.0;
                *i = 0.0;
                self.stats.dropped_samples += 1;
            } else if u < drop + nan {
                *r = f64::NAN;
                *i = f64::NAN;
                self.stats.nan_samples += 1;
            }
        }
    }
}

impl Block for FaultInjector {
    fn role(&self) -> BlockRole {
        self.inner.role()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn input_count(&self) -> usize {
        self.inner.input_count()
    }

    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        self.pre_invoke()?;
        let mut out = self.inner.process(inputs)?;
        self.corrupt(&mut out);
        Ok(out)
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        self.pre_invoke()?;
        self.inner.process_chunk(inputs, out)?;
        self.corrupt(out);
        Ok(())
    }

    fn supports_streaming(&self) -> bool {
        self.inner.supports_streaming()
    }

    fn begin_stream(&mut self) {
        self.inner.begin_stream();
    }

    fn stream_chunk(&mut self, max_samples: usize, out: &mut Signal) -> Result<usize, SimError> {
        self.pre_invoke()?;
        let n = self.inner.stream_chunk(max_samples, out)?;
        self.corrupt(out);
        Ok(n)
    }

    fn end_stream(&mut self) -> Result<(), SimError> {
        self.inner.end_stream()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.rng = StdRng::seed_from_u64(self.seed);
        self.stats = FaultStats::default();
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("name", &self.name)
            .field("plan", &self.plan)
            .field("stats", &self.stats)
            .finish()
    }
}

/// A hung upstream dependency: a streaming source that dawdles for a
/// configured stall per chunk and **never exhausts**, so an unsupervised
/// streaming pass over it runs forever.
///
/// This is the adversarial workload for the supervision layer
/// ([`crate::ExecPlan::with_budget`], [`crate::supervise::CancelToken`], the
/// sweep watchdog): the stall sits *between* chunks, so every chunk
/// boundary is a cooperative cancellation point and a supervised graph
/// kills the pass promptly. A batch pass has no such boundary and is
/// refused outright with [`SimError::BlockFailure`].
#[derive(Debug, Clone)]
pub struct StalledSource {
    sample_rate: f64,
    stall: std::time::Duration,
    chunks: u64,
}

impl StalledSource {
    /// A source at `sample_rate` Hz that sleeps `stall` before every
    /// chunk it emits.
    pub fn new(sample_rate: f64, stall: std::time::Duration) -> Self {
        StalledSource {
            sample_rate,
            stall,
            chunks: 0,
        }
    }

    /// Chunks emitted since construction or the last reset.
    pub fn chunks_emitted(&self) -> u64 {
        self.chunks
    }
}

impl Block for StalledSource {
    fn name(&self) -> &str {
        "stalled-source"
    }

    fn input_count(&self) -> usize {
        0
    }

    fn process(&mut self, _inputs: &[Signal]) -> Result<Signal, SimError> {
        Err(SimError::BlockFailure {
            block: self.name().to_owned(),
            message: "stalled source never completes a batch pass".into(),
        })
    }

    fn supports_streaming(&self) -> bool {
        true
    }

    fn stream_chunk(&mut self, max_samples: usize, out: &mut Signal) -> Result<usize, SimError> {
        std::thread::sleep(self.stall);
        let samples = vec![Complex64::ONE; max_samples];
        out.assign(&samples, self.sample_rate);
        self.chunks += 1;
        Ok(max_samples)
    }

    fn reset(&mut self) {
        self.chunks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecPlan;
    use crate::graph::Graph;
    use crate::pa::SoftClipPa;
    use crate::source::ToneSource;

    fn ones(n: usize) -> Signal {
        Signal::new(vec![Complex64::ONE; n], 1.0e6)
    }

    #[test]
    fn dropper_zeroes_at_roughly_the_rate_and_is_deterministic() {
        let mut d = SampleDropper::new(0.25, 42);
        let out = d.process(&[ones(20_000)]).unwrap();
        let zeros = out.samples().iter().filter(|z| z.abs() == 0.0).count();
        assert_eq!(zeros as u64, d.dropped());
        assert!((3_000..7_000).contains(&zeros), "dropped {zeros}");
        // Same seed, same pattern.
        let mut d2 = SampleDropper::new(0.25, 42);
        assert_eq!(d2.process(&[ones(20_000)]).unwrap(), out);
        // Reset replays the stream.
        d.reset();
        assert_eq!(d.dropped(), 0);
        assert_eq!(d.process(&[ones(20_000)]).unwrap(), out);
        assert_eq!(d.rate(), 0.25);
    }

    #[test]
    fn dropper_chunked_matches_batch() {
        let mut batch = SampleDropper::new(0.1, 7);
        let want = batch.process(&[ones(1000)]).unwrap();
        let mut chunked = SampleDropper::new(0.1, 7);
        chunked.begin_stream();
        let mut got = Signal::empty(1.0e6);
        let sig = ones(1000);
        for start in (0..1000).step_by(33) {
            let end = (start + 33).min(1000);
            let chunk = Signal::new(sig.samples()[start..end].to_vec(), 1.0e6);
            let mut out = Signal::default();
            chunked.process_chunk(&[&chunk], &mut out).unwrap();
            got.extend_from(&out);
        }
        chunked.end_stream().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn nan_injector_corrupts_and_counts() {
        let mut inj = NanInjector::new(0.05, 3);
        let out = inj.process(&[ones(10_000)]).unwrap();
        let nans = out.samples().iter().filter(|z| z.re.is_nan()).count();
        assert_eq!(nans as u64, inj.injected());
        assert!(nans > 100, "injected {nans}");
        assert_eq!(out.first_non_finite().is_some(), nans > 0);
        inj.reset();
        assert_eq!(inj.injected(), 0);
        // Rate 0 is a pass-through.
        let mut clean = NanInjector::new(0.0, 3);
        assert_eq!(clean.process(&[ones(100)]).unwrap(), ones(100));
        assert_eq!(clean.rate(), 0.0);
    }

    #[test]
    fn clock_drift_is_a_phase_ramp_and_chunk_exact() {
        // Pure drift, no jitter: sample n rotated by 2π·ppm·1e-6·n.
        let ppm = 50.0;
        let mut clk = ClockDriftJitter::new(ppm, 0.0, 1);
        let out = clk.process(&[ones(100)]).unwrap();
        let expect = |n: usize| Complex64::cis(TAU * ppm * 1e-6 * n as f64);
        assert!((out.samples()[0] - expect(0)).abs() < 1e-12);
        assert!((out.samples()[99] - expect(99)).abs() < 1e-12);
        assert_eq!(clk.drift_ppm(), ppm);
        assert_eq!(clk.jitter_std_rad(), 0.0);
        // With jitter, chunked equals batch for equal seeds.
        let mut batch = ClockDriftJitter::new(20.0, 0.01, 9);
        let want = batch.process(&[ones(300)]).unwrap();
        let mut chunked = ClockDriftJitter::new(20.0, 0.01, 9);
        let sig = ones(300);
        let mut got = Signal::empty(1.0e6);
        for start in (0..300).step_by(77) {
            let end = (start + 77).min(300);
            let chunk = Signal::new(sig.samples()[start..end].to_vec(), 1.0e6);
            let mut out = Signal::default();
            chunked.process_chunk(&[&chunk], &mut out).unwrap();
            got.extend_from(&out);
        }
        assert_eq!(got, want);
        // Reset restarts the ramp.
        batch.reset();
        assert_eq!(batch.process(&[ones(300)]).unwrap(), want);
    }

    #[test]
    fn plan_clamps_rates_and_reports_noop() {
        let plan = FaultPlan::new();
        assert!(plan.is_noop());
        let plan = plan
            .with_drop_rate(2.0)
            .with_nan_rate(-1.0)
            .with_error_rate(f64::NAN)
            .with_panic_rate(0.5);
        assert_eq!(plan.drop_rate(), 1.0);
        assert_eq!(plan.nan_rate(), 0.0);
        assert_eq!(plan.error_rate(), 0.0);
        assert_eq!(plan.panic_rate(), 0.5);
        assert!(!plan.is_noop());
        assert_eq!(clamp_rate(f64::INFINITY), 1.0);
        assert_eq!(clamp_rate(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn injector_is_transparent_when_noop() {
        let mut g = Graph::new();
        let src = g.add(ToneSource::new(1.0e3, 1.0e6, 256));
        let pa = g.add(FaultPlan::new().wrap(1, SoftClipPa::new(1.0)));
        g.chain(&[src, pa]).unwrap();
        g.execute(&ExecPlan::batch()).unwrap();
        let wrapped = g.output(pa).unwrap().clone();
        assert_eq!(g.block::<FaultInjector>(pa).unwrap().stats().total(), 0);
        let mut plain = Graph::new();
        let src2 = plain.add(ToneSource::new(1.0e3, 1.0e6, 256));
        let pa2 = plain.add(SoftClipPa::new(1.0));
        plain.chain(&[src2, pa2]).unwrap();
        plain.execute(&ExecPlan::batch()).unwrap();
        assert_eq!(&wrapped, plain.output(pa2).unwrap());
        let inj = g.block::<FaultInjector>(pa).unwrap();
        assert_eq!(inj.name(), "fault(softclip-pa)");
        assert!(inj.plan().is_noop());
    }

    #[test]
    fn injector_error_is_typed_and_counted() {
        let mut g = Graph::new();
        let src = g.add(ToneSource::new(1.0e3, 1.0e6, 64));
        let pa = g.add(
            FaultPlan::new()
                .with_error_rate(1.0)
                .wrap(5, SoftClipPa::new(1.0)),
        );
        g.chain(&[src, pa]).unwrap();
        let err = g.execute(&ExecPlan::batch()).unwrap_err();
        assert!(
            matches!(err, SimError::BlockFault { ref block, .. } if block == "fault(softclip-pa)"),
            "{err}"
        );
        assert_eq!(
            g.block::<FaultInjector>(pa)
                .unwrap()
                .stats()
                .injected_errors,
            1
        );
        // Reset clears the account and the RNG.
        g.reset();
        assert_eq!(g.block::<FaultInjector>(pa).unwrap().stats().total(), 0);
    }

    #[test]
    fn injector_panic_fires_and_is_catchable() {
        let result = std::panic::catch_unwind(|| {
            let mut inj = FaultPlan::new()
                .with_panic_rate(1.0)
                .wrap(11, SoftClipPa::new(1.0));
            let _ = inj.process(&[Signal::new(vec![Complex64::ONE; 8], 1.0)]);
        });
        assert!(result.is_err(), "panic must unwind");
    }

    #[test]
    fn injector_corruption_is_deterministic_and_chunking_invariant() {
        let run = |chunk: Option<usize>| -> (Signal, FaultStats) {
            let mut g = Graph::new();
            let src = g.add(ToneSource::new(1.0e3, 1.0e6, 600));
            let pa = g.add(
                FaultPlan::new()
                    .with_drop_rate(0.1)
                    .with_nan_rate(0.05)
                    .wrap(21, SoftClipPa::new(1.0)),
            );
            g.chain(&[src, pa]).unwrap();
            match chunk {
                Some(c) => {
                    g.probe(pa).unwrap();
                    g.execute(&ExecPlan::streaming(c)).unwrap();
                }
                None => {
                    g.execute(&ExecPlan::batch()).unwrap();
                }
            }
            (
                g.output(pa).unwrap().clone(),
                g.block::<FaultInjector>(pa).unwrap().stats(),
            )
        };
        let (batch, stats) = run(None);
        assert!(stats.dropped_samples > 20, "{stats:?}");
        assert!(stats.nan_samples > 5, "{stats:?}");
        // NaN != NaN, so compare bit patterns via debug formatting of the
        // finite mask plus counts.
        for c in [64usize, 600] {
            let (streamed, s_stats) = run(Some(c));
            assert_eq!(s_stats, stats, "chunk={c}");
            assert_eq!(streamed.len(), batch.len());
            for (a, b) in batch.iter().zip(streamed.iter()) {
                assert!(
                    (a.re.is_nan() && b.re.is_nan()) || a == b,
                    "chunk={c}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn injector_wraps_streaming_sources() {
        // Wrapping a source keeps its streaming capability.
        let mut inj = FaultPlan::new()
            .with_drop_rate(0.5)
            .wrap(2, ToneSource::new(0.0, 1.0e6, 128));
        assert_eq!(inj.input_count(), 0);
        assert!(!inj.supports_streaming()); // ToneSource is batch-only
        let out = inj.process(&[]).unwrap();
        let zeros = out.samples().iter().filter(|z| z.abs() == 0.0).count();
        assert!(zeros > 20, "{zeros}");
        assert_eq!(inj.stats().dropped_samples as usize, zeros);
    }
}
