//! Per-block regression: every interior block shipped with `rfsim`, run on
//! one seeded input, pinned by the exact bits of its output.
//!
//! For each block the golden records an FNV-1a hash over `f64::to_bits` of
//! the output of a batch `process` call, of a second call on the same
//! instance (state carried from call to call is part of the contract), of
//! the output streamed in 37-sample chunks through a fresh instance, and of
//! the instrument readings or fault counters left after each. Where
//! `batch` equals `streamed_37` the block is chunk-invariant on this input.
//! A changed bit in any block shows up here under the block's name. After
//! an *intentional* change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test block_golden
//! ```

use ofdm_dsp::Complex64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::*;
use std::path::PathBuf;

const FS: f64 = 20.0e6;
const LEN: usize = 1000;
/// The chunk length of the recorded `streamed_37` hashes.
const CHUNK: usize = 37;
/// Chunk lengths shorter than the longest block history (the FIR's 30
/// samples, the DSL line's 32), so every delay line carries across
/// chunks that do not refill it.
const SHORT_CHUNKS: [usize; 2] = [1, 7];

/// FNV-1a over 64-bit words.
struct Hash(u64);

impl Hash {
    fn new() -> Self {
        Hash(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn signal(&mut self, s: &Signal) {
        self.word(s.len() as u64);
        self.word(s.sample_rate().to_bits());
        self.f64s(s.re().iter().copied());
        self.f64s(s.im().iter().copied());
    }
}

/// Seeded complex Gaussian input with a slow amplitude ramp, so
/// power-dependent blocks see a pass whose chunks differ in power.
fn input(seed: u64) -> Signal {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = (0..LEN)
        .map(|n| {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt() * (0.2 + n as f64 / LEN as f64);
            Complex64::from_polar(r, std::f64::consts::TAU * u2)
        })
        .collect();
    Signal::new(samples, FS)
}

/// Whatever a block exposes after a pass besides its output signal.
type Readings = fn(&dyn std::any::Any, &mut Hash);

fn no_readings(_: &dyn std::any::Any, _: &mut Hash) {}

fn read<B: 'static>(b: &dyn std::any::Any) -> &B {
    b.downcast_ref::<B>()
        .expect("reading matches the block type")
}

fn power_meter(b: &dyn std::any::Any, h: &mut Hash) {
    h.f64s(read::<PowerMeter>(b).power());
}

fn spectrum(b: &dyn std::any::Any, h: &mut Hash) {
    h.f64s(
        read::<SpectrumAnalyzer>(b)
            .psd()
            .unwrap_or(&[])
            .iter()
            .copied(),
    );
}

fn acpr(b: &dyn std::any::Any, h: &mut Hash) {
    if let Some((lo, hi)) = read::<AcprMeter>(b).acpr_db() {
        h.f64s([lo, hi]);
    }
}

fn ccdf(b: &dyn std::any::Any, h: &mut Hash) {
    let probe = read::<CcdfProbe>(b);
    for (t, p) in probe.ccdf().unwrap_or_default() {
        h.f64s([t, p]);
    }
    h.f64s(probe.papr_db());
}

fn mask(b: &dyn std::any::Any, h: &mut Hash) {
    h.f64s(read::<MaskChecker>(b).margin_db());
}

fn dropper(b: &dyn std::any::Any, h: &mut Hash) {
    h.word(read::<SampleDropper>(b).dropped());
}

fn nan_injector(b: &dyn std::any::Any, h: &mut Hash) {
    h.word(read::<NanInjector>(b).injected());
}

fn fault_injector(b: &dyn std::any::Any, h: &mut Hash) {
    let s = read::<FaultInjector>(b).stats();
    for w in [
        s.dropped_samples,
        s.nan_samples,
        s.injected_errors,
        s.injected_panics,
    ] {
        h.word(w);
    }
}

struct Case {
    name: &'static str,
    make: fn() -> Box<dyn Block>,
    readings: Readings,
}

fn case(name: &'static str, make: fn() -> Box<dyn Block>, readings: Readings) -> Case {
    Case {
        name,
        make,
        readings,
    }
}

fn cases() -> Vec<Case> {
    vec![
        case("dac", || Box::new(Dac::new(6, 2.0)), no_readings),
        case(
            "local-oscillator",
            || Box::new(LocalOscillator::new(150.0e3, 2.0e3, 11)),
            no_readings,
        ),
        case("mixer", || Box::new(Mixer::new()), no_readings),
        case("combiner", || Box::new(Combiner::new()), no_readings),
        case(
            "iq-imbalance",
            || Box::new(IqImbalance::new(0.8, 3.0)),
            no_readings,
        ),
        case(
            "awgn",
            || Box::new(AwgnChannel::from_snr_db(12.0, 21)),
            no_readings,
        ),
        case(
            "awgn-reference-power",
            || Box::new(AwgnChannel::from_snr_db(12.0, 21).with_reference_power(1.3)),
            no_readings,
        ),
        case(
            "multipath",
            || {
                Box::new(MultipathChannel::new(vec![
                    Complex64::new(0.9, 0.1),
                    Complex64::ZERO,
                    Complex64::new(-0.3, 0.2),
                    Complex64::new(0.05, -0.1),
                ]))
            },
            no_readings,
        ),
        case(
            "fading-rayleigh-doppler",
            || {
                Box::new(FadingChannel::rayleigh(
                    vec![(0, 0.6), (3, 0.3), (7, 0.1)],
                    300.0,
                    5,
                ))
            },
            no_readings,
        ),
        case(
            "fading-rician-static",
            || Box::new(FadingChannel::rician(vec![(0, 0.7), (5, 0.3)], 4.0, 0.0, 6)),
            no_readings,
        ),
        case(
            "cfo",
            || Box::new(CfoChannel::new(37.0e3).with_phase(0.4)),
            no_readings,
        ),
        case(
            "phase-noise",
            || Box::new(PhaseNoiseChannel::new(5.0e3, 8)),
            no_readings,
        ),
        case(
            "dsl-line",
            || Box::new(DslLineChannel::new(13.8, 300.0e3)),
            no_readings,
        ),
        case(
            "impulsive-noise",
            || Box::new(ImpulsiveNoiseChannel::new(20.0, 0.02, 15.0, 9)),
            no_readings,
        ),
        case(
            "sample-dropper",
            || Box::new(SampleDropper::new(0.05, 12)),
            dropper,
        ),
        case(
            "nan-injector",
            || Box::new(NanInjector::new(0.01, 13)),
            nan_injector,
        ),
        case(
            "clock-drift-jitter",
            || Box::new(ClockDriftJitter::new(40.0, 0.01, 14)),
            no_readings,
        ),
        case(
            "fault-injector",
            || {
                Box::new(
                    FaultPlan::new()
                        .with_drop_rate(0.02)
                        .with_nan_rate(0.01)
                        .wrap(15, SoftClipPa::new(1.2)),
                )
            },
            fault_injector,
        ),
        case(
            "fir",
            || {
                Box::new(FirBlock::new(ofdm_dsp::fir::lowpass(
                    31,
                    0.2,
                    ofdm_dsp::window::Window::Hamming,
                )))
            },
            no_readings,
        ),
        case(
            "butterworth",
            || Box::new(ButterworthLowpass::new(5, 4.0e6)),
            no_readings,
        ),
        case("power-meter", || Box::new(PowerMeter::new()), power_meter),
        case(
            "spectrum-analyzer",
            || Box::new(SpectrumAnalyzer::new(64)),
            spectrum,
        ),
        case(
            "acpr-meter",
            || Box::new(AcprMeter::new(5.0e6, 6.0e6, 64)),
            acpr,
        ),
        case("ccdf-probe", || Box::new(CcdfProbe::new()), ccdf),
        case(
            "mask-checker",
            || {
                Box::new(MaskChecker::new(
                    vec![
                        MaskPoint {
                            offset_hz: 3.0e6,
                            limit_dbr: -20.0,
                        },
                        MaskPoint {
                            offset_hz: 6.0e6,
                            limit_dbr: -28.0,
                        },
                    ],
                    4.0e6,
                    64,
                ))
            },
            mask,
        ),
        case(
            "rapp-pa",
            || Box::new(RappPa::new(1.0, 2.0).with_gain_db(1.5)),
            no_readings,
        ),
        case("saleh-pa", || Box::new(SalehPa::classic()), no_readings),
        case(
            "softclip-pa",
            || Box::new(SoftClipPa::new(1.1).with_gain_db(-0.5)),
            no_readings,
        ),
        case("upsampler", || Box::new(Upsampler::new(3)), no_readings),
        case("downsampler", || Box::new(Downsampler::new(2)), no_readings),
        case("gain", || Box::new(GainBlock::from_db(-3.5)), no_readings),
    ]
}

fn inputs_for(block: &dyn Block) -> Vec<Signal> {
    (0..block.input_count() as u64)
        .map(|p| input(0xB10C + p))
        .collect()
}

/// Two consecutive batch calls on one instance, then its readings.
fn batch(c: &Case) -> [u64; 3] {
    let mut block = (c.make)();
    let inputs = inputs_for(block.as_ref());
    let [first, again] = [(); 2].map(|()| {
        let mut h = Hash::new();
        h.signal(&block.process(&inputs).expect("batch pass"));
        h.0
    });
    let mut readings = Hash::new();
    (c.readings)(block.as_ref() as &dyn std::any::Any, &mut readings);
    [first, again, readings.0]
}

/// One streamed pass in `chunk`-sample chunks on a fresh instance, then
/// its readings.
fn streamed(c: &Case, chunk: usize) -> (u64, u64) {
    let mut block = (c.make)();
    let inputs = inputs_for(block.as_ref());
    block.begin_stream();
    let mut acc: Option<Signal> = None;
    let mut chunk_out = Signal::default();
    for start in (0..LEN).step_by(chunk) {
        let take = chunk.min(LEN - start);
        let chunks: Vec<Signal> = inputs
            .iter()
            .map(|s| {
                let mut c = Signal::default();
                c.assign_range(s, start, take);
                c
            })
            .collect();
        let refs: Vec<&Signal> = chunks.iter().collect();
        block
            .process_chunk(&refs, &mut chunk_out)
            .expect("chunk pass");
        match &mut acc {
            Some(a) => a.extend_from(&chunk_out),
            None => acc = Some(chunk_out.clone()),
        }
    }
    block.end_stream().expect("end of stream");
    let mut out = Hash::new();
    out.signal(&acc.expect("at least one chunk"));
    let mut readings = Hash::new();
    (c.readings)(block.as_ref() as &dyn std::any::Any, &mut readings);
    (out.0, readings.0)
}

fn document() -> String {
    let mut doc = String::from("{\"schema\":\"block-golden/v1\",\"blocks\":{\n");
    let cases = cases();
    for (k, c) in cases.iter().enumerate() {
        let [b, again, br] = batch(c);
        let (s, sr) = streamed(c, CHUNK);
        doc.push_str(&format!(
            "\"{}\":{{\"batch\":\"{b:016x}\",\"batch_again\":\"{again:016x}\",\
             \"batch_readings\":\"{br:016x}\",\
             \"streamed_37\":\"{s:016x}\",\"streamed_readings\":\"{sr:016x}\"}}{}\n",
            c.name,
            if k + 1 < cases.len() { "," } else { "" }
        ));
    }
    doc.push_str("}}\n");
    doc
}

#[test]
fn every_block_matches_its_golden_hashes() {
    let got = document();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/blocks.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} — generate it with UPDATE_GOLDEN=1 cargo test --test block_golden",
            path.display()
        )
    });
    // Line by line, so a failure names the block that drifted.
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g, w,
            "block output drifted from tests/golden/blocks.json \
             (intentional change? regenerate with UPDATE_GOLDEN=1)"
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "block set changed"
    );
    // Every block recorded as chunk-invariant at 37 samples must also be
    // at chunks shorter than its history.
    for c in cases() {
        let key = format!("\"{}\":{{", c.name);
        let line = want
            .lines()
            .find(|l| l.starts_with(&key))
            .unwrap_or_else(|| panic!("{} has no golden line", c.name));
        let batch = recorded(line, "batch");
        if batch != recorded(line, "streamed_37") {
            continue;
        }
        for chunk in SHORT_CHUNKS {
            let (s, _) = streamed(&c, chunk);
            assert_eq!(
                format!("{s:016x}"),
                batch,
                "{} streamed in {chunk}-sample chunks differs from its batch output",
                c.name
            );
        }
    }
}

/// The hash recorded under `field` in one golden line.
fn recorded<'a>(line: &'a str, field: &str) -> &'a str {
    let key = format!("\"{field}\":\"");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("no `{field}` in {line}"))
        + key.len();
    &line[start..start + 16]
}
