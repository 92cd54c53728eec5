//! Run instrumentation: per-block timing, sample counters and per-edge
//! buffer high-water marks for graph passes, plus sweep-level aggregates
//! for the parallel scenario runner.
//!
//! The paper's C3 claim — the behavioral OFDM source has negligible cost
//! inside a full TX chain — is only honest if it can be *measured per
//! block*. A plan with telemetry on
//! ([`crate::ExecPlan::with_telemetry`]) makes [`crate::Graph::execute`]
//! thread a recorder through the scheduler and return a [`RunReport`];
//! a plan with telemetry off pays no recording cost.
//!
//! Reports render as a markdown table ([`RunReport::summary`]) or as a
//! machine-readable JSON document ([`RunReport::to_json`]) for the
//! `BENCH_*.json` perf trajectory.

use crate::supervise::{Health, SupervisionReport};
use serde::json::Value;
use std::time::Instant;

/// Accumulated measurements for one block over one instrumented pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockStats {
    /// The block's [`crate::Block::name`].
    pub name: String,
    /// How many times the block's process/chunk hook ran.
    pub invocations: u64,
    /// Total wall time spent inside the block, in nanoseconds.
    pub nanos: u64,
    /// Total samples consumed across all input ports.
    pub samples_in: u64,
    /// Total samples produced.
    pub samples_out: u64,
    /// Peak number of samples held in this block's output edge buffer at
    /// any point of the pass (for batch runs: the pass output length).
    pub buffer_high_water: usize,
    /// How many invocations the circuit breaker replaced with a
    /// pass-through bypass ([`crate::ExecPlan::with_breaker_policy`]).
    pub bypassed: u64,
}

impl BlockStats {
    /// Mean nanoseconds per invocation (0 when the block never ran).
    pub fn nanos_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.nanos as f64 / self.invocations as f64
        }
    }

    /// Output throughput in megasamples per second (0 for zero time).
    pub fn throughput_msps(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.samples_out as f64 * 1e3 / self.nanos as f64
        }
    }
}

/// Which scheduler produced a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// A [`crate::ExecMode::Batch`] pass — whole-pass evaluation.
    Batch,
    /// A [`crate::ExecMode::Streaming`] pass with this chunk length.
    Streaming {
        /// The chunk length the pass used.
        chunk_len: usize,
    },
}

/// The result of one instrumented graph pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scheduler that produced the report.
    pub mode: RunMode,
    /// End-to-end wall time of the pass in nanoseconds (includes scheduler
    /// overhead, not just block time).
    pub total_nanos: u64,
    /// Scheduler rounds: 1 for batch, the number of chunk rounds for
    /// streaming.
    pub rounds: u64,
    /// Supervision verdict of the pass: `Degraded` when any breaker
    /// bypassed a block, `Failed` when the pass errored.
    pub health: Health,
    /// Circuit-breaker trips (Closed → Open transitions) during the pass.
    pub breaker_trips: u64,
    /// Block invocations replaced by pass-through bypass during the pass.
    pub bypassed_invocations: u64,
    /// Per-block measurements, in block insertion order.
    pub blocks: Vec<BlockStats>,
}

impl RunReport {
    /// Looks a block's stats up by name (first match).
    pub fn block(&self, name: &str) -> Option<&BlockStats> {
        self.blocks.iter().find(|b| b.name == name)
    }

    /// Samples emitted by source blocks (`samples_in == 0`), i.e. the
    /// pass length the graph processed.
    pub fn source_samples(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|b| b.samples_in == 0)
            .map(|b| b.samples_out)
            .sum()
    }

    /// End-to-end throughput in megasamples per second: source samples
    /// over total wall time.
    pub fn throughput_msps(&self) -> f64 {
        if self.total_nanos == 0 {
            0.0
        } else {
            self.source_samples() as f64 * 1e3 / self.total_nanos as f64
        }
    }

    /// Wall time spent inside blocks, in nanoseconds (the remainder of
    /// [`RunReport::total_nanos`] is scheduler overhead).
    pub fn block_nanos(&self) -> u64 {
        self.blocks.iter().map(|b| b.nanos).sum()
    }

    /// Renders the report as a markdown table, heaviest block first.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut order: Vec<&BlockStats> = self.blocks.iter().collect();
        order.sort_by_key(|b| std::cmp::Reverse(b.nanos));
        let mut out = String::new();
        let mode = match self.mode {
            RunMode::Batch => "batch".to_owned(),
            RunMode::Streaming { chunk_len } => format!("streaming(chunk={chunk_len})"),
        };
        let _ = writeln!(
            out,
            "run: {mode}, {} rounds, {:.3} ms total, {:.2} Msamples/s, health {}",
            self.rounds,
            self.total_nanos as f64 / 1e6,
            self.throughput_msps(),
            self.health,
        );
        if self.breaker_trips > 0 || self.bypassed_invocations > 0 {
            let _ = writeln!(
                out,
                "supervision: {} breaker trip(s), {} invocation(s) bypassed",
                self.breaker_trips, self.bypassed_invocations,
            );
        }
        let _ = writeln!(
            out,
            "| block | calls | time (µs) | share | in | out | buf HWM | bypassed |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        let block_total = self.block_nanos().max(1);
        for b in order {
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} | {:.0}% | {} | {} | {} | {} |",
                b.name,
                b.invocations,
                b.nanos as f64 / 1e3,
                b.nanos as f64 * 100.0 / block_total as f64,
                b.samples_in,
                b.samples_out,
                b.buffer_high_water,
                b.bypassed,
            );
        }
        out
    }

    /// The report as a JSON document (see the serde shim's `json` module).
    pub fn to_json_value(&self) -> Value {
        let mode = match self.mode {
            RunMode::Batch => Value::from("batch"),
            RunMode::Streaming { chunk_len } => Value::Object(vec![
                ("streaming".into(), Value::from(true)),
                ("chunk_len".into(), Value::from(chunk_len)),
            ]),
        };
        Value::Object(vec![
            ("mode".into(), mode),
            ("total_ns".into(), Value::from(self.total_nanos)),
            ("rounds".into(), Value::from(self.rounds)),
            ("health".into(), Value::from(self.health.as_str())),
            ("breaker_trips".into(), Value::from(self.breaker_trips)),
            (
                "bypassed_invocations".into(),
                Value::from(self.bypassed_invocations),
            ),
            (
                "throughput_msps".into(),
                Value::from(self.throughput_msps()),
            ),
            (
                "blocks".into(),
                Value::Array(
                    self.blocks
                        .iter()
                        .map(|b| {
                            Value::Object(vec![
                                ("name".into(), Value::from(b.name.as_str())),
                                ("invocations".into(), Value::from(b.invocations)),
                                ("ns".into(), Value::from(b.nanos)),
                                ("samples_in".into(), Value::from(b.samples_in)),
                                ("samples_out".into(), Value::from(b.samples_out)),
                                ("buffer_high_water".into(), Value::from(b.buffer_high_water)),
                                ("bypassed".into(), Value::from(b.bypassed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The report serialized as a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

/// The in-flight recorder the instrumented schedulers write into.
///
/// One slot per graph node; built fresh at the start of every instrumented
/// pass, so back-to-back instrumented runs never accumulate into each
/// other (see the `Graph::reset` regression tests).
#[derive(Debug)]
pub(crate) struct Recorder {
    started: Instant,
    pub(crate) rounds: u64,
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, Default)]
struct Slot {
    invocations: u64,
    nanos: u64,
    samples_in: u64,
    samples_out: u64,
    buffer_high_water: usize,
    bypassed: u64,
}

impl Recorder {
    /// A recorder for a graph of `n` nodes; starts the wall clock.
    pub(crate) fn new(n: usize) -> Self {
        Recorder {
            started: Instant::now(),
            rounds: 0,
            slots: vec![Slot::default(); n],
        }
    }

    /// Starts one timed block invocation; pass the result to
    /// [`Recorder::record`].
    pub(crate) fn begin(&self) -> Instant {
        Instant::now()
    }

    /// Records one block invocation: elapsed time since `begin` plus
    /// sample counts.
    pub(crate) fn record(
        &mut self,
        node: usize,
        begin: Instant,
        samples_in: usize,
        samples_out: usize,
    ) {
        let slot = &mut self.slots[node];
        slot.invocations += 1;
        slot.nanos += begin.elapsed().as_nanos() as u64;
        slot.samples_in += samples_in as u64;
        slot.samples_out += samples_out as u64;
    }

    /// Notes the current fill level of a node's output edge buffer.
    pub(crate) fn note_buffer(&mut self, node: usize, held: usize) {
        let slot = &mut self.slots[node];
        slot.buffer_high_water = slot.buffer_high_water.max(held);
    }

    /// Notes one breaker-bypassed invocation of a node.
    pub(crate) fn note_bypass(&mut self, node: usize) {
        self.slots[node].bypassed += 1;
    }

    /// Finalizes into a [`RunReport`], attaching block names. Supervision
    /// fields start at their healthy defaults; the graph stamps its own
    /// counters afterwards.
    pub(crate) fn finish(self, mode: RunMode, names: impl Iterator<Item = String>) -> RunReport {
        let total_nanos = self.started.elapsed().as_nanos() as u64;
        RunReport {
            mode,
            total_nanos,
            rounds: self.rounds.max(1),
            health: Health::Healthy,
            breaker_trips: 0,
            bypassed_invocations: 0,
            blocks: names
                .zip(self.slots)
                .map(|(name, s)| BlockStats {
                    name,
                    invocations: s.invocations,
                    nanos: s.nanos,
                    samples_in: s.samples_in,
                    samples_out: s.samples_out,
                    buffer_high_water: s.buffer_high_water,
                    bypassed: s.bypassed,
                })
                .collect(),
        }
    }
}

/// Clamps a ratio to a finite value for JSON emission: NaN becomes 0,
/// infinities saturate to `±f64::MAX`. The `BENCH_*.json` trajectory is
/// diffed across commits by tooling that treats non-finite numerics as
/// corruption, so reports must never emit them.
pub(crate) fn finite_or_zero(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(f64::MIN, f64::MAX)
    }
}

/// Order statistics over a sample set: min/max/mean plus the p50, p95
/// and p99 percentiles.
///
/// Tails are where a service lives or dies — a mean hides the one
/// scenario in a hundred that blew its budget. Sweep runners attach
/// these over per-scenario durations ([`SweepReport::duration_percentiles`]),
/// and the experiment lab reuses the same aggregation over per-repeat
/// metric values, so "p95 BER over 20 realizations" and "p99 scenario
/// latency" are the same code path.
///
/// Percentiles use linear interpolation between order statistics
/// (rank `q·(n−1)`), which is deterministic: the same samples always
/// produce bit-identical statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples aggregated.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Aggregates a sample set; `None` when it is empty.
    ///
    /// Non-finite samples are not filtered — they propagate into the
    /// statistics (and serialize as `null`), so a corrupted input is
    /// visible downstream instead of silently dropped.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(Percentiles {
            count: sorted.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean,
            p50: quantile(&sorted, 0.50),
            p95: quantile(&sorted, 0.95),
            p99: quantile(&sorted, 0.99),
        })
    }

    /// Aggregates integer nanosecond durations.
    pub fn from_nanos(nanos: &[u64]) -> Option<Self> {
        let samples: Vec<f64> = nanos.iter().map(|&n| n as f64).collect();
        Self::from_samples(&samples)
    }

    /// Looks a statistic up by name (`"min"`, `"max"`, `"mean"`,
    /// `"p50"`, `"p95"`, `"p99"`); `None` for anything else.
    pub fn stat(&self, name: &str) -> Option<f64> {
        match name {
            "min" => Some(self.min),
            "max" => Some(self.max),
            "mean" => Some(self.mean),
            "p50" => Some(self.p50),
            "p95" => Some(self.p95),
            "p99" => Some(self.p99),
            _ => None,
        }
    }

    /// The statistics as a JSON object (insertion-ordered, so emission
    /// is deterministic).
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), Value::from(self.count)),
            ("min".into(), Value::from(self.min)),
            ("max".into(), Value::from(self.max)),
            ("mean".into(), Value::from(self.mean)),
            ("p50".into(), Value::from(self.p50)),
            ("p95".into(), Value::from(self.p95)),
            ("p99".into(), Value::from(self.p99)),
        ])
    }
}

/// Quantile `q` of an ascending-sorted slice by linear interpolation at
/// rank `q·(n−1)`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

/// Outcome counts of a fault-tolerant scenario sweep
/// ([`crate::scenario::SweepPlan::run`]): how the sweep degraded
/// instead of whether it survived — it always survives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Scenarios that succeeded on their first attempt.
    pub succeeded: usize,
    /// Scenarios that succeeded only after one or more retries.
    pub retried: usize,
    /// Scenarios that exhausted all attempts and produced no result.
    pub faulted: usize,
    /// Worker panics caught (across all attempts of all scenarios).
    pub panics_caught: usize,
    /// Typed scenario errors caught (across all attempts).
    pub errors_caught: usize,
}

impl FaultReport {
    /// Total scenarios the sweep attempted.
    pub fn scenarios(&self) -> usize {
        self.succeeded + self.retried + self.faulted
    }

    /// Scenarios that produced a result (first try or after retry).
    pub fn completed(&self) -> usize {
        self.succeeded + self.retried
    }

    /// Fraction of scenarios that produced a result, in `[0, 1]`.
    /// An empty sweep counts as fully survived.
    pub fn survival_rate(&self) -> f64 {
        let total = self.scenarios();
        if total == 0 {
            1.0
        } else {
            self.completed() as f64 / total as f64
        }
    }

    /// One-line human-readable digest.
    pub fn summary(&self) -> String {
        format!(
            "{} scenarios: {} clean, {} retried, {} faulted ({:.0}% survival; caught {} panics, {} errors)",
            self.scenarios(),
            self.succeeded,
            self.retried,
            self.faulted,
            self.survival_rate() * 100.0,
            self.panics_caught,
            self.errors_caught,
        )
    }

    /// The fault counts as a JSON document.
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("succeeded".into(), Value::from(self.succeeded)),
            ("retried".into(), Value::from(self.retried)),
            ("faulted".into(), Value::from(self.faulted)),
            ("panics_caught".into(), Value::from(self.panics_caught)),
            ("errors_caught".into(), Value::from(self.errors_caught)),
            (
                "survival_rate".into(),
                Value::from(finite_or_zero(self.survival_rate())),
            ),
        ])
    }
}

/// Aggregates for one scenario sweep
/// ([`crate::scenario::SweepPlan::run_fail_fast`] with telemetry enabled,
/// or any fault-tolerant run).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Wall time of the whole sweep in nanoseconds.
    pub total_nanos: u64,
    /// Worker threads the sweep ran on.
    pub workers: usize,
    /// Per-scenario duration in nanoseconds, in scenario order.
    pub scenario_nanos: Vec<u64>,
    /// Fault-tolerance outcome counts, present when the sweep ran through
    /// a fault-tolerant contract ([`crate::scenario::SweepPlan::run`]).
    pub faults: Option<FaultReport>,
    /// Watchdog/checkpoint accounting, present when the sweep ran under a
    /// [`crate::supervise::SweepSupervisor`]
    /// ([`crate::scenario::SweepPlan::run`] or
    /// [`crate::scenario::SweepPlan::run_checkpointed`]).
    pub supervision: Option<SupervisionReport>,
}

impl SweepReport {
    /// Total busy time across all scenarios (the sequential-equivalent
    /// cost), in nanoseconds.
    pub fn busy_nanos(&self) -> u64 {
        self.scenario_nanos.iter().sum()
    }

    /// Worker utilization in `[0, 1]`: busy time over `workers × wall`.
    /// 1.0 means every worker was saturated for the whole sweep.
    pub fn utilization(&self) -> f64 {
        if self.total_nanos == 0 || self.workers == 0 {
            0.0
        } else {
            (self.busy_nanos() as f64 / (self.workers as u64 * self.total_nanos) as f64).min(1.0)
        }
    }

    /// Parallel speedup over the sequential-equivalent cost.
    pub fn speedup(&self) -> f64 {
        if self.total_nanos == 0 {
            0.0
        } else {
            self.busy_nanos() as f64 / self.total_nanos as f64
        }
    }

    /// Percentiles (p50/p95/p99) over the per-scenario durations —
    /// the tail-latency view of the sweep. `None` when the sweep ran
    /// without telemetry (every duration is zero) or had no scenarios.
    pub fn duration_percentiles(&self) -> Option<Percentiles> {
        if self.scenario_nanos.iter().all(|&n| n == 0) {
            return None;
        }
        Percentiles::from_nanos(&self.scenario_nanos)
    }

    /// One-line human-readable digest.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} scenarios on {} workers: {:.3} ms wall, {:.3} ms busy, {:.2}× speedup, {:.0}% utilization",
            self.scenario_nanos.len(),
            self.workers,
            self.total_nanos as f64 / 1e6,
            self.busy_nanos() as f64 / 1e6,
            self.speedup(),
            self.utilization() * 100.0,
        );
        if let Some(p) = self.duration_percentiles() {
            line.push_str(&format!(
                ", p50/p95/p99 {:.3}/{:.3}/{:.3} ms",
                p.p50 / 1e6,
                p.p95 / 1e6,
                p.p99 / 1e6,
            ));
        }
        if let Some(f) = &self.faults {
            line.push_str(" — ");
            line.push_str(&f.summary());
        }
        if let Some(s) = &self.supervision {
            line.push_str(" — ");
            line.push_str(&s.summary());
        }
        line
    }

    /// The sweep aggregates as a JSON document.
    pub fn to_json_value(&self) -> Value {
        let mut fields = vec![
            ("total_ns".into(), Value::from(self.total_nanos)),
            ("workers".into(), Value::from(self.workers)),
            ("busy_ns".into(), Value::from(self.busy_nanos())),
            (
                "utilization".into(),
                Value::from(finite_or_zero(self.utilization())),
            ),
            (
                "speedup".into(),
                Value::from(finite_or_zero(self.speedup())),
            ),
            (
                "scenario_ns".into(),
                Value::Array(
                    self.scenario_nanos
                        .iter()
                        .map(|&n| Value::from(n))
                        .collect(),
                ),
            ),
        ];
        if let Some(p) = self.duration_percentiles() {
            fields.push(("scenario_ns_percentiles".into(), p.to_json_value()));
        }
        if let Some(f) = &self.faults {
            fields.push(("faults".into(), f.to_json_value()));
        }
        if let Some(s) = &self.supervision {
            fields.push(("supervision".into(), s.to_json_value()));
        }
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            mode: RunMode::Streaming { chunk_len: 80 },
            total_nanos: 2_000_000,
            rounds: 10,
            health: Health::Healthy,
            breaker_trips: 0,
            bypassed_invocations: 0,
            blocks: vec![
                BlockStats {
                    name: "src".into(),
                    invocations: 10,
                    nanos: 1_200_000,
                    samples_in: 0,
                    samples_out: 800,
                    buffer_high_water: 80,
                    bypassed: 0,
                },
                BlockStats {
                    name: "pa".into(),
                    invocations: 10,
                    nanos: 300_000,
                    samples_in: 800,
                    samples_out: 800,
                    buffer_high_water: 80,
                    bypassed: 0,
                },
            ],
        }
    }

    #[test]
    fn report_arithmetic() {
        let r = report();
        assert_eq!(r.source_samples(), 800);
        assert_eq!(r.block_nanos(), 1_500_000);
        assert!((r.throughput_msps() - 0.4).abs() < 1e-12);
        let src = r.block("src").expect("present");
        assert!((src.nanos_per_invocation() - 120_000.0).abs() < 1e-9);
        assert!((src.throughput_msps() - 800.0 * 1e3 / 1.2e6).abs() < 1e-9);
        assert!(r.block("missing").is_none());
    }

    #[test]
    fn summary_lists_heaviest_block_first() {
        let s = report().summary();
        let src_at = s.find("| src |").expect("src row");
        let pa_at = s.find("| pa |").expect("pa row");
        assert!(src_at < pa_at, "heavier block first:\n{s}");
        assert!(s.contains("streaming(chunk=80)"));
    }

    #[test]
    fn json_roundtrips_through_the_shim_parser() {
        let r = report();
        let doc = serde::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(doc.get("rounds").and_then(Value::as_f64), Some(10.0));
        let blocks = doc.get("blocks").and_then(Value::as_array).expect("array");
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].get("name").and_then(Value::as_str), Some("src"));
        assert_eq!(blocks[0].get("ns").and_then(Value::as_f64), Some(1.2e6));
    }

    #[test]
    fn zero_division_guards() {
        let empty = BlockStats::default();
        assert_eq!(empty.nanos_per_invocation(), 0.0);
        assert_eq!(empty.throughput_msps(), 0.0);
        let r = RunReport {
            mode: RunMode::Batch,
            total_nanos: 0,
            rounds: 1,
            health: Health::Healthy,
            breaker_trips: 0,
            bypassed_invocations: 0,
            blocks: vec![],
        };
        assert_eq!(r.throughput_msps(), 0.0);
    }

    #[test]
    fn sweep_report_aggregates() {
        let s = SweepReport {
            total_nanos: 1_000_000,
            workers: 2,
            scenario_nanos: vec![600_000, 800_000],
            faults: None,
            supervision: None,
        };
        assert_eq!(s.busy_nanos(), 1_400_000);
        assert!((s.utilization() - 0.7).abs() < 1e-12);
        assert!((s.speedup() - 1.4).abs() < 1e-12);
        assert!(s.summary().contains("2 workers"));
        let doc = serde::json::parse(&s.to_json_value().to_string()).expect("valid");
        assert_eq!(doc.get("workers").and_then(Value::as_f64), Some(2.0));
        assert!(doc.get("faults").is_none());
        let degenerate = SweepReport {
            total_nanos: 0,
            workers: 0,
            scenario_nanos: vec![],
            faults: None,
            supervision: None,
        };
        assert_eq!(degenerate.utilization(), 0.0);
        assert_eq!(degenerate.speedup(), 0.0);
    }

    #[test]
    fn fault_report_counts_and_rates() {
        let f = FaultReport {
            succeeded: 5,
            retried: 2,
            faulted: 1,
            panics_caught: 3,
            errors_caught: 2,
        };
        assert_eq!(f.scenarios(), 8);
        assert_eq!(f.completed(), 7);
        assert!((f.survival_rate() - 7.0 / 8.0).abs() < 1e-12);
        let s = f.summary();
        assert!(s.contains("5 clean"), "{s}");
        assert!(s.contains("2 retried"), "{s}");
        assert!(s.contains("1 faulted"), "{s}");
        // Empty sweep counts as fully survived.
        assert_eq!(FaultReport::default().survival_rate(), 1.0);
    }

    #[test]
    fn fault_report_threads_through_sweep_json_and_summary() {
        let s = SweepReport {
            total_nanos: 1_000,
            workers: 1,
            scenario_nanos: vec![500],
            faults: Some(FaultReport {
                succeeded: 0,
                retried: 0,
                faulted: 1,
                panics_caught: 2,
                errors_caught: 0,
            }),
            supervision: None,
        };
        assert!(s.summary().contains("caught 2 panics"), "{}", s.summary());
        let doc = serde::json::parse(&s.to_json_value().to_string()).expect("valid");
        let faults = doc.get("faults").expect("faults object");
        assert_eq!(faults.get("faulted").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            faults.get("panics_caught").and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            faults.get("survival_rate").and_then(Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn supervision_threads_through_run_report_summary_and_json() {
        let mut r = report();
        r.health = Health::Degraded;
        r.breaker_trips = 1;
        r.bypassed_invocations = 10;
        r.blocks[1].bypassed = 10;
        let s = r.summary();
        assert!(s.contains("health degraded"), "{s}");
        assert!(
            s.contains("1 breaker trip(s), 10 invocation(s) bypassed"),
            "{s}"
        );
        let doc = serde::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(doc.get("health").and_then(Value::as_str), Some("degraded"));
        assert_eq!(doc.get("breaker_trips").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            doc.get("bypassed_invocations").and_then(Value::as_f64),
            Some(10.0)
        );
        let blocks = doc.get("blocks").and_then(Value::as_array).expect("array");
        assert_eq!(
            blocks[1].get("bypassed").and_then(Value::as_f64),
            Some(10.0)
        );
    }

    #[test]
    fn supervision_threads_through_sweep_json_and_summary() {
        let s = SweepReport {
            total_nanos: 1_000,
            workers: 1,
            scenario_nanos: vec![500],
            faults: None,
            supervision: Some(SupervisionReport {
                deadline_kills: 3,
                resumed: 2,
            }),
        };
        assert!(s.summary().contains("3 deadline kills"), "{}", s.summary());
        let doc = serde::json::parse(&s.to_json_value().to_string()).expect("valid");
        let sup = doc.get("supervision").expect("supervision object");
        assert_eq!(sup.get("deadline_kills").and_then(Value::as_f64), Some(3.0));
        assert_eq!(sup.get("resumed").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn percentiles_over_known_samples() {
        let p = Percentiles::from_samples(&[4.0, 1.0, 3.0, 2.0]).expect("nonempty");
        assert_eq!(p.count, 4);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.max, 4.0);
        assert!((p.mean - 2.5).abs() < 1e-12);
        // rank 0.5·3 = 1.5 → halfway between 2 and 3.
        assert!((p.p50 - 2.5).abs() < 1e-12);
        // rank 0.95·3 = 2.85 → between 3 and 4.
        assert!((p.p95 - 3.85).abs() < 1e-12);
        assert!((p.p99 - 3.97).abs() < 1e-12);
        assert!(Percentiles::from_samples(&[]).is_none());
        let single = Percentiles::from_samples(&[7.0]).expect("nonempty");
        assert_eq!(single.p50, 7.0);
        assert_eq!(single.p99, 7.0);
    }

    #[test]
    fn percentiles_are_deterministic_and_named() {
        let samples = [9.0, 1.0, 5.0, 5.0, 2.0, 8.0];
        let a = Percentiles::from_samples(&samples).expect("nonempty");
        let b = Percentiles::from_samples(&samples).expect("nonempty");
        assert_eq!(a, b);
        assert_eq!(a.to_json_value().to_string(), b.to_json_value().to_string());
        assert_eq!(a.stat("p50"), Some(a.p50));
        assert_eq!(a.stat("mean"), Some(a.mean));
        assert_eq!(a.stat("p37"), None);
    }

    #[test]
    fn sweep_report_threads_duration_percentiles() {
        let s = SweepReport {
            total_nanos: 10_000_000,
            workers: 2,
            scenario_nanos: vec![1_000_000, 2_000_000, 3_000_000, 10_000_000],
            faults: None,
            supervision: None,
        };
        let p = s.duration_percentiles().expect("telemetry on");
        assert_eq!(p.count, 4);
        assert!((p.p50 - 2_500_000.0).abs() < 1.0);
        assert!(s.summary().contains("p50/p95/p99"), "{}", s.summary());
        let doc = serde::json::parse(&s.to_json_value().to_string()).expect("valid");
        let pct = doc
            .get("scenario_ns_percentiles")
            .expect("percentiles object");
        assert_eq!(pct.get("count").and_then(Value::as_f64), Some(4.0));
        assert_eq!(pct.get("max").and_then(Value::as_f64), Some(10_000_000.0));
        // Telemetry off (all-zero durations) → no percentiles emitted.
        let off = SweepReport {
            total_nanos: 0,
            workers: 2,
            scenario_nanos: vec![0, 0],
            faults: None,
            supervision: None,
        };
        assert!(off.duration_percentiles().is_none());
        let doc = serde::json::parse(&off.to_json_value().to_string()).expect("valid");
        assert!(doc.get("scenario_ns_percentiles").is_none());
    }

    #[test]
    fn finite_clamp_never_emits_non_finite() {
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
        assert_eq!(finite_or_zero(f64::INFINITY), f64::MAX);
        assert_eq!(finite_or_zero(f64::NEG_INFINITY), f64::MIN);
        assert_eq!(finite_or_zero(1.25), 1.25);
    }
}
