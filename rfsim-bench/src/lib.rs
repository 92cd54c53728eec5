//! The repository's benchmark: four closed-loop workloads over the
//! Mother Model, the RF simulator, the BER sweep and the simulation
//! service, each run in its own process (see `README.md`).
//!
//! Every layer is timed from outside, through its public functions. A
//! run sets up (several times, reporting the median), warms up, runs a
//! timed phase, checks its outputs and reports either the end-to-end
//! metrics or, with tracing on, the per-layer metrics taken from spans
//! (see [`trace`]). Percentiles use [`rfsim::Percentiles`], so a number
//! here means what the same number means in the program's own reports.

mod ber;
mod service;
pub mod trace;
mod tx;

use ofdm_core::params::OfdmParams;
use ofdm_core::{count_bit_errors, BitSource, MotherModel};
use ofdm_rx::ReferenceReceiver;
use rfsim::Percentiles;
use serde::json::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One frame of each power-of-two standard through source → PA → meter.
    TxPow2,
    /// The same chain over the four DRM robustness modes.
    TxDrm,
    /// Repeated Rayleigh BER grids through the sweep pool.
    BerGrid,
    /// Small AWGN jobs against `rfsim-server` over TCP.
    ServiceGrid,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TxPow2,
        Workload::TxDrm,
        Workload::BerGrid,
        Workload::ServiceGrid,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TxPow2 => "tx_pow2",
            Workload::TxDrm => "tx_drm",
            Workload::BerGrid => "ber_grid",
            Workload::ServiceGrid => "service_grid",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Generates the inputs: payload bits, grid seeds, job seeds.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for `summary.json`, `ops.jsonl` and `trace.jsonl`.
    pub out: PathBuf,
}

/// End-to-end metrics (tracing off), with their units. Every workload
/// reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput", "items/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (tracing on), with their units. A workload reports
/// 0 for a layer it never calls.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("trace_overhead", "ratio"),
    // tx_pow2 / tx_drm, per pass over the standard set.
    ("core.encode_us", "us"),
    ("core.source_us", "us"),
    ("core.stage.pilot_us", "us"),
    ("core.stage.map_us", "us"),
    ("core.stage.ifft_us", "us"),
    ("core.stage.cp_us", "us"),
    ("core.residual_share", "ratio"),
    ("dsp.ifft_us", "us"),
    ("rfsim.pa_us", "us"),
    ("rfsim.graph_us", "us"),
    ("rfsim.residual_share", "ratio"),
    ("core.source_us.802.11a", "us"),
    ("core.source_us.802.11g", "us"),
    ("core.source_us.adsl", "us"),
    ("core.source_us.vdsl", "us"),
    ("core.source_us.dab", "us"),
    ("core.source_us.dvb-t", "us"),
    ("core.source_us.802.16a", "us"),
    ("core.source_us.homeplug", "us"),
    ("core.source_us.adsl2plus", "us"),
    ("core.source_us.drm-a", "us"),
    ("core.source_us.drm-b", "us"),
    ("core.source_us.drm-c", "us"),
    ("core.source_us.drm-d", "us"),
    // ber_grid, per grid point.
    ("ber.point_ms_p50", "ms"),
    ("ber.point_ms_p95", "ms"),
    ("core.transmit_ms", "ms"),
    ("rfsim.fading_ms", "ms"),
    ("rfsim.awgn_ms", "ms"),
    ("rx.receive_ms", "ms"),
    ("rx.demod_ms", "ms"),
    ("rx.viterbi_ms", "ms"),
    ("rx.rest_ms", "ms"),
    ("ber.residual_share", "ratio"),
    ("rx.receive_ms.802.11a", "ms"),
    ("rx.receive_ms.dab", "ms"),
    ("rx.receive_ms.dvb-t", "ms"),
    ("rx.receive_ms.drm", "ms"),
    ("rx.receive_ms.homeplug", "ms"),
    ("rx.receive_ms.802.16a", "ms"),
    ("sweep.utilization", "ratio"),
    ("ber.bit_errors", "count"),
    // service_grid, per job.
    ("service.submit_rtt_ms_p50", "ms"),
    ("service.tail_ms_p50", "ms"),
    ("service.compute_ms", "ms"),
    ("service.overhead_ms_p50", "ms"),
    ("service.rejected", "count"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// One output check; a failed check fails the run.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The evidence, for the summary.
    pub detail: String,
}

impl Check {
    pub(crate) fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// Run phase an operation belonged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed: caches fill and lazy set-up finishes.
    Warmup,
    /// Timed.
    Timed,
}

/// One operation in the raw per-operation log.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Phase it started in.
    pub phase: Phase,
    /// Operation number within the run.
    pub op: u64,
    /// `frame`, `grid` or `job`.
    pub kind: &'static str,
    /// Standard the frame was for; empty otherwise.
    pub tag: &'static str,
    /// Whether the operation ran with spans on.
    pub traced: bool,
    /// Wall time.
    pub ns: u64,
    /// Whether it completed.
    pub ok: bool,
}

impl OpRecord {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "phase".into(),
                Value::from(match self.phase {
                    Phase::Warmup => "warmup",
                    Phase::Timed => "timed",
                }),
            ),
            ("op".into(), Value::from(self.op)),
            ("kind".into(), Value::from(self.kind)),
            ("tag".into(), Value::from(self.tag)),
            ("traced".into(), Value::from(self.traced)),
            ("ns".into(), Value::from(self.ns)),
            ("ok".into(), Value::from(self.ok)),
        ])
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, or per-layer ones when traced.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Every operation, warm-up included.
    pub ops: Vec<OpRecord>,
    /// Spans of the traced operations.
    pub spans: Vec<trace::Span>,
    /// Latency of each timed untraced operation, in milliseconds.
    pub op_ms: Vec<f64>,
}

impl Outcome {
    /// Operations and checks attempted.
    pub fn attempted(&self) -> u64 {
        (self.ops.len() + self.checks.len()) as u64
    }

    /// Operations that did not complete plus checks that failed.
    pub fn failed(&self) -> u64 {
        (self.ops.iter().filter(|o| !o.ok).count()
            + self.checks.iter().filter(|c| !c.passed).count()) as u64
    }

    pub(crate) fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Whether every operation completed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// The one-line result: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::from(m.value)),
                        ("unit".into(), Value::from(m.unit)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::from(self.correct())),
            ("attempted".into(), Value::from(self.attempted())),
            ("failed".into(), Value::from(self.failed())),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// The summary document written to `summary.json`: the result plus
    /// the run's settings and every check.
    pub fn summary_json(&self, cfg: &Config) -> Value {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("name".into(), Value::from(c.name.as_str())),
                    ("passed".into(), Value::from(c.passed)),
                    ("detail".into(), Value::from(c.detail.as_str())),
                ])
            })
            .collect();
        let mut members = vec![
            ("schema".into(), Value::from("rfsim-bench/v1")),
            ("workload".into(), Value::from(cfg.workload.name())),
            ("seed".into(), Value::from(cfg.seed)),
            ("seconds".into(), Value::from(cfg.seconds)),
            ("trace".into(), Value::from(cfg.trace)),
            (
                "threads_available".into(),
                Value::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
            ),
        ];
        if let Value::Object(result) = self.result_json() {
            members.extend(result);
        }
        if let Some(ops) = Percentiles::from_samples(&self.op_ms) {
            members.push(("op_ms".into(), ops.to_json_value()));
        }
        members.push(("checks".into(), Value::Array(checks)));
        Value::Object(members)
    }

    /// The raw per-operation log, one JSON line per operation.
    pub fn ops_jsonl(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A message when the workload cannot run at all (e.g. the server binary
/// is missing or a layer call fails); failed output checks are reported
/// in the [`Outcome`] instead.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut outcome = match cfg.workload {
        Workload::TxPow2 | Workload::TxDrm => tx::run(cfg)?,
        Workload::BerGrid => ber::run(cfg)?,
        Workload::ServiceGrid => service::run(cfg)?,
    };
    if cfg.trace {
        let spans = trace::reconcile(&outcome.spans);
        outcome.checks.push(Check::new(
            "span self times add up to each operation's time",
            spans.is_ok(),
            spans.err().unwrap_or_default(),
        ));
        // Layers this workload never calls read 0.
        for (name, unit) in PER_LAYER {
            if !outcome.metrics.iter().any(|m| m.name == name) {
                outcome.metric(name, 0.0, unit);
            }
        }
    }
    let expected: Vec<&str> = if cfg.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    if reported.len() != expected.len() || expected.iter().any(|n| !reported.contains(n)) {
        return Err(format!(
            "{} reported {reported:?}, expected {expected:?}",
            cfg.workload.name()
        ));
    }
    Ok(outcome)
}

/// Warm-up length for a timed phase of `timed`: a fifth of it, at most
/// three seconds.
fn warmup_for(timed: Duration) -> Duration {
    (timed / 5).min(Duration::from_secs(3))
}

/// Operations each phase runs at least: traced runs alternate untraced
/// and traced operations and need one of each.
pub(crate) fn min_ops(cfg: &Config) -> u64 {
    if cfg.trace {
        2
    } else {
        1
    }
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: u32 = 9;

/// Times one `setup`; what it built is dropped outside the timing.
fn time_setup<T>(setup: &mut impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let t = Instant::now();
    let built = setup()?;
    let seconds = t.elapsed().as_secs_f64();
    drop(built);
    Ok(seconds)
}

/// The median of [`SETUP_SAMPLES`] set-ups run back to back, in seconds.
pub(crate) fn time_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let times = (0..SETUP_SAMPLES)
        .map(|_| time_setup(&mut setup))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(p50(&times))
}

/// What [`closed_loop`] measured besides the operations.
pub(crate) struct LoopStats {
    /// This process's peak resident set when warm-up ended, in MiB: by
    /// then every buffer the workload needs exists, while the benchmark's
    /// own per-operation records, which grow with throughput, are still
    /// few.
    pub peak_rss_mb: f64,
    /// Median of the set-ups timed during an untraced timed phase.
    pub setup_s: f64,
}

/// Drives `op` closed loop: warm-up, then the timed phase, each running
/// at least [`min_ops`] operations. The timed phase starts when warm-up
/// ends.
///
/// Untraced runs also time `setup` [`SETUP_SAMPLES`] times, spread evenly
/// over the timed phase between operations: the host's speed drifts for
/// seconds at a time, and set-ups bunched into one moment would see one
/// state of it where the operations see many.
pub(crate) fn closed_loop<T>(
    cfg: &Config,
    mut setup: impl FnMut() -> Result<T, String>,
    mut op: impl FnMut(Phase, u64) -> Result<(), String>,
) -> Result<LoopStats, String> {
    let timed = Duration::from_secs_f64(cfg.seconds);
    let mut k = 0u64;
    let mut rss = f64::NAN;
    let mut setups = Vec::new();
    for (phase, len) in [(Phase::Warmup, warmup_for(timed)), (Phase::Timed, timed)] {
        if phase == Phase::Timed {
            rss = peak_rss_mb(std::process::id())?;
        }
        let start = Instant::now();
        let mut done = 0;
        while done < min_ops(cfg) || start.elapsed() < len {
            let due = len * setups.len() as u32 / SETUP_SAMPLES;
            if phase == Phase::Timed
                && !cfg.trace
                && setups.len() < SETUP_SAMPLES as usize
                && start.elapsed() >= due
            {
                setups.push(time_setup(&mut setup)?);
            }
            op(phase, k)?;
            k += 1;
            done += 1;
        }
    }
    Ok(LoopStats {
        peak_rss_mb: rss,
        setup_s: p50(&setups),
    })
}

/// Median by [`Percentiles`]; NaN for no samples.
pub(crate) fn p50(xs: &[f64]) -> f64 {
    Percentiles::from_samples(xs).map_or(f64::NAN, |p| p.p50)
}

/// 95th percentile by [`Percentiles`]; NaN for no samples.
pub(crate) fn p95(xs: &[f64]) -> f64 {
    Percentiles::from_samples(xs).map_or(f64::NAN, |p| p.p95)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
///
/// # Errors
///
/// When `/proc/<pid>/status` is unreadable or has no `VmHWM` line.
pub(crate) fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Transmits `bits` seeded payload bits with `params` and decodes them
/// with the reference receiver; the check passes on zero bit errors.
///
/// # Errors
///
/// When the parameter set builds no transmitter or receiver.
pub(crate) fn loopback_check(
    tag: &str,
    params: &OfdmParams,
    bits: usize,
    seed: u64,
) -> Result<Check, String> {
    let sent = BitSource::new(seed).take(bits);
    let mut tx = MotherModel::new(params.clone()).map_err(|e| format!("{tag} tx: {e}"))?;
    let frame = tx
        .transmit(&sent)
        .map_err(|e| format!("{tag} transmit: {e}"))?;
    let mut rx = ReferenceReceiver::new(params.clone()).map_err(|e| format!("{tag} rx: {e}"))?;
    let (passed, detail) = match rx.receive(frame.signal(), sent.len()) {
        Ok(got) => {
            let errors = count_bit_errors(&sent, &got);
            (errors == 0, format!("{errors} bit errors in {bits}"))
        }
        Err(e) => (false, format!("receive failed: {e}")),
    };
    Ok(Check::new(
        format!("{tag} loopback decodes"),
        passed,
        detail,
    ))
}

/// Converts a duration to nanoseconds, saturating.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
