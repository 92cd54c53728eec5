//! A parallel scenario runner: N independent graph simulations over a
//! thread pool.
//!
//! RF system exploration is embarrassingly parallel across *scenarios* —
//! back-off sweeps, SNR sweeps, Monte-Carlo seeds — while each individual
//! graph pass is sequential. A [`SweepPlan`] exploits exactly that
//! structure: each scenario builds its own [`crate::Graph`] (blocks are not
//! `Sync`, so nothing is shared), runs it, and returns a result; a fixed
//! pool of `std::thread` workers pulls scenario indices off an atomic
//! counter. One pool implementation (`run_pool`) drives every sweep
//! flavor; the plan's toggles (worker count, retry policy, supervisor,
//! telemetry) select the wiring, mirroring how [`crate::exec::ExecPlan`]
//! configures single-graph execution.
//!
//! Two contracts are offered:
//!
//! * [`SweepPlan::run_fail_fast`] — the first typed error aborts the sweep
//!   and is returned; panics propagate.
//! * [`SweepPlan::run`] — fault-tolerant: panics are caught, attempts are
//!   retried under the plan's [`RetryPolicy`] and optionally watched over
//!   by a [`SweepSupervisor`] watchdog; every scenario lands as a
//!   [`ScenarioOutcome`]. [`SweepPlan::run_checkpointed`] adds durable
//!   resume on top.
//!
//! Determinism: results are returned in scenario order regardless of which
//! worker ran them, and [`scenario_seed`] derives a stable per-scenario RNG
//! seed from a base seed, so a parallel sweep reproduces the sequential one
//! bit for bit.
//!
//! # Example
//!
//! ```
//! use rfsim::prelude::*;
//!
//! // Mean output power of a tone through a soft limiter, for three drive
//! // levels, computed on up to 3 threads.
//! let drives = [0.5, 1.0, 2.0];
//! let (powers, _report) = SweepPlan::new(drives.len())
//!     .threads(3)
//!     .run_fail_fast(|i| -> Result<f64, SimError> {
//!         let mut g = Graph::new();
//!         let src = g.add(ToneSource::new(1.0e3, 1.0e6, 512).with_amplitude(drives[i]));
//!         let pa = g.add(SoftClipPa::new(1.0));
//!         let meter = g.add(PowerMeter::new());
//!         g.connect(src, pa, 0)?;
//!         g.connect(pa, meter, 0)?;
//!         g.execute(&ExecPlan::batch())?;
//!         Ok(g.block::<PowerMeter>(meter).unwrap().power().unwrap())
//!     })
//!     .unwrap();
//! assert_eq!(powers.len(), 3);
//! assert!(powers[0] < powers[2]);
//! ```

use crate::exec::ExecPlan;
use crate::supervise::{
    CancelToken, CheckpointEntry, CheckpointPayload, SupervisionReport, SweepCheckpoint,
    SweepSupervisor,
};
use crate::telemetry::{FaultReport, SweepReport};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A deterministic per-scenario seed: SplitMix64 of `base_seed ⊕ index`.
///
/// Gives well-separated RNG streams for Monte-Carlo scenarios while staying
/// reproducible — the same `(base_seed, index)` pair always yields the same
/// seed, whether the sweep runs sequentially or in parallel.
pub fn scenario_seed(base_seed: u64, index: usize) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One registration slot per worker — the in-flight attempt's start
/// instant and cancel token — plus the budget and scan interval for the
/// watchdog thread [`run_pool`] spawns alongside its workers.
struct Watchdog<'a> {
    watch: &'a [Mutex<Option<(Instant, CancelToken)>>],
    budget: Duration,
    poll: Duration,
}

/// The one sweep loop every runner flavor shares: `job(worker, index)`
/// runs for `index in 0..count` across `workers` threads pulling indices
/// off an atomic counter, and payloads land in scenario order. A job
/// returning `abort = true` stops further indices from being claimed
/// (in-flight jobs finish; unclaimed slots stay `None`). With one worker
/// and no watchdog the loop runs inline on the calling thread.
fn run_pool<T, F>(
    count: usize,
    workers: usize,
    watchdog: Option<Watchdog<'_>>,
    job: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, usize) -> (Option<T>, bool) + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    if workers <= 1 && watchdog.is_none() {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
        for i in 0..count {
            let (payload, abort) = job(0, i);
            slots.push(payload);
            if abort {
                break;
            }
        }
        slots.resize_with(count, || None);
        return slots;
    }

    let next = AtomicUsize::new(0);
    let aborted = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    let results = Mutex::new(slots);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let job = &job;
            let next = &next;
            let aborted = &aborted;
            let finished = &finished;
            let results = &results;
            scope.spawn(move || {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count || aborted.load(Ordering::Relaxed) != 0 {
                        break;
                    }
                    let (payload, abort) = job(w, i);
                    if abort {
                        aborted.store(1, Ordering::Relaxed);
                    }
                    // A sibling worker panicking while holding the lock
                    // must not poison the whole sweep — recover the
                    // guard; the slot data stays index-disjoint.
                    results
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .as_mut_slice()[i] = payload;
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        if let Some(dog) = &watchdog {
            let finished = &finished;
            scope.spawn(move || {
                while finished.load(Ordering::Relaxed) < workers {
                    for slot in dog.watch {
                        let guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
                        if let Some((started, token)) = guard.as_ref() {
                            // The worker attributes the resulting failure
                            // to the deadline (see note_kill), so the
                            // watchdog only has to cancel.
                            if started.elapsed() > dog.budget {
                                token.cancel();
                            }
                        }
                        drop(guard);
                    }
                    std::thread::sleep(dog.poll);
                }
            });
        }
    });

    results.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// One plan for the whole sweep family: scenario count, worker-pool
/// shape, retry policy, watchdog supervisor and telemetry toggle.
///
/// The sweep-level analogue of [`crate::exec::ExecPlan`]: build the plan
/// once, then pick a contract —
///
/// * [`SweepPlan::run_fail_fast`] aborts on the first typed error;
/// * [`SweepPlan::run`] degrades gracefully under the plan's
///   [`RetryPolicy`] and [`SweepSupervisor`];
/// * [`SweepPlan::run_checkpointed`] adds durable resume on top.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    count: usize,
    threads: usize,
    retry: RetryPolicy,
    supervisor: SweepSupervisor,
    telemetry: bool,
}

impl SweepPlan {
    /// A plan for `count` scenarios on a default worker pool
    /// (`std::thread::available_parallelism`, capped at the scenario
    /// count), no retries, no watchdog, telemetry off.
    pub fn new(count: usize) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SweepPlan {
            count,
            threads,
            retry: RetryPolicy::none(),
            supervisor: SweepSupervisor::new(),
            telemetry: false,
        }
    }

    /// Builder: use exactly `threads` workers (`1` forces a fully
    /// sequential run on the calling thread).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be nonzero");
        self.threads = threads;
        self
    }

    /// Builder: retry policy for [`SweepPlan::run`] and
    /// [`SweepPlan::run_checkpointed`] ([`RetryPolicy::none`] by
    /// default). [`SweepPlan::run_fail_fast`] never retries.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder: watchdog supervisor for [`SweepPlan::run`] and
    /// [`SweepPlan::run_checkpointed`] (no budget by default).
    /// [`SweepPlan::run_fail_fast`] is never supervised.
    pub fn with_supervisor(mut self, supervisor: SweepSupervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Builder: when `true`, [`SweepPlan::run_fail_fast`] measures
    /// per-scenario wall time and sweep duration; when `false` (the
    /// default) it reads no clocks at all. The fault-tolerant contracts
    /// always time scenarios — their fault accounting needs the clock.
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of scenarios.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Effective worker count (never more than the scenario count, never
    /// zero).
    pub fn workers(&self) -> usize {
        self.threads.min(self.count).max(1)
    }

    /// The plan's retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// The plan's watchdog supervisor.
    pub fn supervisor(&self) -> SweepSupervisor {
        self.supervisor
    }

    /// Whether the fail-fast contract times scenarios.
    pub fn telemetry(&self) -> bool {
        self.telemetry
    }

    /// Runs `scenario(0..count)` across the plan's worker pool and
    /// returns the results in scenario order, aborting on the first
    /// typed error.
    ///
    /// `scenario` is called once per index; each call should build, run
    /// and measure its own graph. The first error (from the
    /// lowest-indexed failing scenario, so parallel runs fail
    /// deterministically) aborts the sweep — workers finish their
    /// current scenario, pending ones are skipped — and is returned.
    /// Panics propagate; for fault tolerance use [`SweepPlan::run`].
    ///
    /// The returned [`SweepReport`] carries per-scenario wall times and
    /// worker utilization when the plan enables telemetry
    /// ([`SweepPlan::with_telemetry`]); without it no clocks are read
    /// and every timing field is zero.
    ///
    /// # Errors
    ///
    /// The first scenario error, if any scenario fails.
    pub fn run_fail_fast<R, E, F>(&self, scenario: F) -> Result<(Vec<R>, SweepReport), E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
    {
        let workers = self.workers();
        let telemetry = self.telemetry;
        let sweep_started = telemetry.then(Instant::now);
        let error: Mutex<Option<(usize, E)>> = Mutex::new(None);
        let slots = run_pool(self.count, workers, None, |_w, i| {
            let started = telemetry.then(Instant::now);
            match scenario(i) {
                Ok(r) => {
                    let nanos = started.map_or(0, |s| s.elapsed().as_nanos() as u64);
                    (Some((r, nanos)), false)
                }
                Err(e) => {
                    // Keep the error from the lowest-indexed failing
                    // scenario so parallel runs fail deterministically.
                    let mut guard = error.lock().unwrap_or_else(PoisonError::into_inner);
                    if guard.as_ref().is_none_or(|(j, _)| i < *j) {
                        *guard = Some((i, e));
                    }
                    (None, true)
                }
            }
        });
        if let Some((_, e)) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        let total_nanos = sweep_started.map_or(0, |s| s.elapsed().as_nanos() as u64);
        let mut results = Vec::with_capacity(slots.len());
        let mut scenario_nanos = Vec::with_capacity(slots.len());
        for slot in slots {
            let (result, nanos) = slot.expect("every scenario ran");
            results.push(result);
            scenario_nanos.push(nanos);
        }
        Ok((
            results,
            SweepReport {
                total_nanos,
                workers,
                scenario_nanos,
                faults: None,
                supervision: None,
            },
        ))
    }

    /// Runs a fault-tolerant sweep: panics are caught per attempt,
    /// failed attempts are retried under the plan's [`RetryPolicy`] (the
    /// closure receives the attempt number so it can reseed), and
    /// scenarios that exhaust their attempts land as
    /// [`ScenarioOutcome::Faulted`] while the rest of the sweep
    /// completes.
    ///
    /// Every attempt receives a [`ScenarioCtx`]; when the plan's
    /// [`SweepSupervisor`] sets a per-scenario budget, a watchdog thread
    /// polls in-flight attempts at the supervisor's interval and cancels
    /// overrunning ones cooperatively (counted in
    /// [`SupervisionReport::deadline_kills`]), after which they are
    /// retried or faulted like any other failure. Without a budget no
    /// watchdog is spawned.
    ///
    /// The return is infallible by design — graceful degradation means
    /// partial results plus an honest account, not an `Err`. The account
    /// is the [`SweepReport`] with [`SweepReport::faults`] and
    /// [`SweepReport::supervision`] populated; outcomes are in scenario
    /// order, and scenarios are always timed (fault accounting needs the
    /// clock regardless of the telemetry toggle).
    ///
    /// The closure must be `RefUnwindSafe`-in-spirit: each attempt
    /// should build its own graph from scratch, so a caught panic cannot
    /// leave shared state half-updated.
    pub fn run<R, E, F>(&self, scenario: F) -> (Vec<ScenarioOutcome<R>>, SweepReport)
    where
        R: Send,
        E: Send + Display,
        F: Fn(usize, u32, &ScenarioCtx) -> Result<R, E> + Sync,
    {
        let workers = self.workers();
        let policy = self.retry;
        let supervisor = self.supervisor;
        let counters = FaultCounters::default();
        let kills = AtomicUsize::new(0);
        let sweep_started = Instant::now();

        // One registration slot per worker: which attempt it is running
        // (start instant + token), for the watchdog to scan.
        let watch: Vec<Mutex<Option<(Instant, CancelToken)>>> =
            (0..workers).map(|_| Mutex::new(None)).collect();
        let watchdog = supervisor.scenario_budget().map(|budget| Watchdog {
            watch: &watch,
            budget,
            poll: supervisor.poll_interval(),
        });

        let slots = run_pool(self.count, workers, watchdog, |w, i| {
            let started = Instant::now();
            let mut last_error = String::new();
            let mut attempts = 0;
            // One kill per scenario, however many of its attempts the
            // watchdog cancelled: a scenario killed on the first attempt
            // *and* on its final retry is still one killed scenario.
            let mut killed = false;
            while attempts < policy.max_attempts() {
                attempts += 1;
                let ctx = ScenarioCtx::new(supervisor.scenario_budget());
                *watch[w].lock().unwrap_or_else(PoisonError::into_inner) =
                    Some((ctx.started, ctx.cancel_token()));
                // AssertUnwindSafe: the closure builds per-scenario state
                // from scratch each attempt, so an unwound attempt leaves
                // nothing torn for the next one to observe.
                let outcome = catch_unwind(AssertUnwindSafe(|| scenario(i, attempts - 1, &ctx)));
                *watch[w].lock().unwrap_or_else(PoisonError::into_inner) = None;
                match outcome {
                    Ok(Ok(result)) => {
                        if killed {
                            kills.fetch_add(1, Ordering::Relaxed);
                        }
                        let nanos = started.elapsed().as_nanos() as u64;
                        let outcome = if attempts == 1 {
                            ScenarioOutcome::Succeeded(result)
                        } else {
                            ScenarioOutcome::Retried { result, attempts }
                        };
                        return (Some((outcome, nanos)), false);
                    }
                    Ok(Err(e)) => {
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                        last_error = e.to_string();
                        killed = killed || attempt_killed(&ctx);
                    }
                    Err(payload) => {
                        counters.panics.fetch_add(1, Ordering::Relaxed);
                        last_error = format!("panic: {}", panic_message(payload));
                        killed = killed || attempt_killed(&ctx);
                    }
                }
            }
            if killed {
                kills.fetch_add(1, Ordering::Relaxed);
            }
            let nanos = started.elapsed().as_nanos() as u64;
            (
                Some((
                    ScenarioOutcome::Faulted {
                        attempts,
                        error: last_error,
                    },
                    nanos,
                )),
                false,
            )
        });

        let total_nanos = sweep_started.elapsed().as_nanos() as u64;
        let mut outcomes = Vec::with_capacity(slots.len());
        let mut scenario_nanos = Vec::with_capacity(slots.len());
        let mut faults = FaultReport {
            panics_caught: counters.panics.load(Ordering::Relaxed),
            errors_caught: counters.errors.load(Ordering::Relaxed),
            ..FaultReport::default()
        };
        for slot in slots {
            let (outcome, nanos) = slot.expect("every scenario ran");
            match &outcome {
                ScenarioOutcome::Succeeded(_) => faults.succeeded += 1,
                ScenarioOutcome::Retried { .. } => faults.retried += 1,
                ScenarioOutcome::Faulted { .. } => faults.faulted += 1,
            }
            outcomes.push(outcome);
            scenario_nanos.push(nanos);
        }
        (
            outcomes,
            SweepReport {
                total_nanos,
                workers,
                scenario_nanos,
                faults: Some(faults),
                supervision: Some(SupervisionReport {
                    deadline_kills: kills.load(Ordering::Relaxed),
                    resumed: 0,
                }),
            },
        )
    }

    /// Runs a fault-tolerant sweep like [`SweepPlan::run`] with durable
    /// progress: scenarios already recorded in `checkpoint` are restored
    /// instead of re-run, fresh successes are recorded (and persisted
    /// batch-wise) as they land, and the merged outcomes cover the full
    /// sweep in scenario order.
    ///
    /// Restored and fresh results merge into one [`SweepReport`]:
    /// succeeded/retried/faulted counts span the whole sweep, while
    /// `panics_caught`/`errors_caught` and
    /// [`SupervisionReport::deadline_kills`] only cover work done in
    /// *this* process (a restored scenario's past failures were already
    /// accounted by the run that recorded it).
    /// [`SupervisionReport::resumed`] reports how many scenarios were
    /// restored.
    ///
    /// Results must round-trip through the checkpoint encoding
    /// ([`CheckpointPayload`]); finite `f64` payloads restore bit for
    /// bit, so an interrupted sweep resumed with the same seed equals
    /// the uninterrupted one. Faulted scenarios are never recorded —
    /// they are re-attempted on resume.
    pub fn run_checkpointed<R, E, F>(
        &self,
        checkpoint: &mut SweepCheckpoint,
        scenario: F,
    ) -> (Vec<ScenarioOutcome<R>>, SweepReport)
    where
        R: Send + Clone + CheckpointPayload,
        E: Send + Display,
        F: Fn(usize, u32, &ScenarioCtx) -> Result<R, E> + Sync,
    {
        let count = self.count;
        let workers = self.workers();

        // Restore completed scenarios; undecodable entries force a re-run.
        let mut restored: Vec<Option<(ScenarioOutcome<R>, u64)>> = Vec::with_capacity(count);
        restored.resize_with(count, || None);
        for entry in checkpoint.entries() {
            if entry.index >= count {
                continue;
            }
            if let Some(result) = R::from_checkpoint_value(&entry.result) {
                let outcome = if entry.attempts <= 1 {
                    ScenarioOutcome::Succeeded(result)
                } else {
                    ScenarioOutcome::Retried {
                        result,
                        attempts: entry.attempts,
                    }
                };
                restored[entry.index] = Some((outcome, entry.nanos));
            }
        }
        let resumed = restored.iter().filter(|r| r.is_some()).count();
        let pending: Vec<usize> = (0..count).filter(|&i| restored[i].is_none()).collect();

        let shared = Mutex::new(&mut *checkpoint);
        let sub_plan = SweepPlan {
            count: pending.len(),
            threads: workers,
            ..self.clone()
        };
        let (fresh, fresh_report) = sub_plan.run(|j, attempt, ctx| -> Result<R, E> {
            let index = pending[j];
            let started = Instant::now();
            let result = scenario(index, attempt, ctx)?;
            shared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(CheckpointEntry {
                    index,
                    attempts: attempt + 1,
                    nanos: started.elapsed().as_nanos() as u64,
                    result: result.to_checkpoint_value(),
                });
            Ok(result)
        });

        // Merge: pending indices are ascending, so fresh results line up
        // with the restored gaps in order.
        let mut fresh_iter = fresh
            .into_iter()
            .zip(fresh_report.scenario_nanos.iter().copied());
        let mut outcomes = Vec::with_capacity(count);
        let mut scenario_nanos = Vec::with_capacity(count);
        let fresh_faults = fresh_report.faults.unwrap_or_default();
        let mut faults = FaultReport {
            panics_caught: fresh_faults.panics_caught,
            errors_caught: fresh_faults.errors_caught,
            ..FaultReport::default()
        };
        for slot in restored {
            let (outcome, nanos) = match slot {
                Some(pair) => pair,
                None => fresh_iter
                    .next()
                    .expect("one fresh result per pending scenario"),
            };
            match &outcome {
                ScenarioOutcome::Succeeded(_) => faults.succeeded += 1,
                ScenarioOutcome::Retried { .. } => faults.retried += 1,
                ScenarioOutcome::Faulted { .. } => faults.faulted += 1,
            }
            outcomes.push(outcome);
            scenario_nanos.push(nanos);
        }
        let _ = checkpoint.persist();
        (
            outcomes,
            SweepReport {
                total_nanos: fresh_report.total_nanos,
                workers,
                scenario_nanos,
                faults: Some(faults),
                supervision: Some(SupervisionReport {
                    deadline_kills: fresh_report.supervision.map_or(0, |s| s.deadline_kills),
                    resumed,
                }),
            },
        )
    }
}

/// How many times a fault-tolerant sweep ([`SweepPlan::run`]) re-attempts
/// a scenario whose attempt panicked or returned an error.
///
/// Every retry passes a fresh attempt number to the scenario closure, so
/// deterministic scenarios can reseed (`scenario_seed(base ^ attempt, i)`)
/// and flaky ones get a genuinely different run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    max_retries: u32,
}

impl RetryPolicy {
    /// Fail a scenario on its first panic/error (one attempt, no retries).
    pub fn none() -> Self {
        RetryPolicy::default()
    }

    /// Allow up to `max_retries` re-attempts after the first failure.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy { max_retries }
    }

    /// Total attempts a scenario may consume (`1 + max_retries`).
    pub fn max_attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }
}

/// What one scenario of a fault-tolerant sweep produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioOutcome<R> {
    /// The first attempt returned a result.
    Succeeded(R),
    /// A retry returned a result after earlier attempts failed.
    Retried {
        /// The successful attempt's result.
        result: R,
        /// Attempts consumed, including the successful one (≥ 2).
        attempts: u32,
    },
    /// Every allowed attempt panicked or errored; the sweep carried on
    /// without this scenario.
    Faulted {
        /// Attempts consumed.
        attempts: u32,
        /// The last attempt's panic message or error rendering.
        error: String,
    },
}

impl<R> ScenarioOutcome<R> {
    /// The scenario's result, if any attempt produced one.
    pub fn result(&self) -> Option<&R> {
        match self {
            ScenarioOutcome::Succeeded(r) | ScenarioOutcome::Retried { result: r, .. } => Some(r),
            ScenarioOutcome::Faulted { .. } => None,
        }
    }

    /// Returns `true` if no attempt produced a result.
    pub fn is_faulted(&self) -> bool {
        matches!(self, ScenarioOutcome::Faulted { .. })
    }

    /// Attempts consumed by this scenario.
    pub fn attempts(&self) -> u32 {
        match self {
            ScenarioOutcome::Succeeded(_) => 1,
            ScenarioOutcome::Retried { attempts, .. }
            | ScenarioOutcome::Faulted { attempts, .. } => *attempts,
        }
    }
}

/// Renders a caught panic payload (`&str` or `String` payloads; anything
/// else gets a generic tag).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Per-attempt bookkeeping shared by the resilient sweep's workers.
#[derive(Default)]
struct FaultCounters {
    panics: AtomicUsize,
    errors: AtomicUsize,
}

/// Per-attempt supervision handle the fault-tolerant runners pass to each
/// scenario closure.
///
/// Carries the attempt's cooperative [`CancelToken`] (the sweep watchdog
/// cancels it when the attempt overruns its budget) and the per-attempt
/// wall-clock budget. Scenarios wire both into their execution plan with
/// [`ScenarioCtx::supervise`]; the pass then aborts at the next block or
/// chunk boundary once the watchdog fires. Cancellation is cooperative —
/// an attempt that never polls its token (no graph pass, a busy loop)
/// cannot be killed.
#[derive(Debug)]
pub struct ScenarioCtx {
    cancel: CancelToken,
    budget: Option<Duration>,
    started: Instant,
}

impl ScenarioCtx {
    fn new(budget: Option<Duration>) -> Self {
        ScenarioCtx {
            cancel: CancelToken::new(),
            budget,
            started: Instant::now(),
        }
    }

    /// A clone of this attempt's cancellation token (all clones share one
    /// flag).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether the watchdog has cancelled this attempt.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The per-attempt wall-clock budget, if the supervisor set one.
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// Wall time since this attempt started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Wires this attempt's supervision into `plan`: the cancellation
    /// token (polled at block/chunk boundaries) and, when the supervisor
    /// budgets attempts, a matching pass deadline as a second line of
    /// defense.
    pub fn supervise(&self, plan: ExecPlan) -> ExecPlan {
        plan.with_cancel_token(Some(self.cancel_token()))
            .with_budget(self.budget)
    }
}

/// Whether a failed attempt was killed by supervision — cancelled or past
/// its budget. Deciding here (rather than in the watchdog) makes
/// [`SupervisionReport::deadline_kills`] deterministic: a hung attempt is
/// seen as killed whether the watchdog's cancel or the graph's own
/// deadline fires first. The caller counts at most one kill per
/// *scenario*, so a scenario whose retry is killed again does not inflate
/// the tally — `deadline_kills` partitions against clean successes and
/// non-deadline faults instead of double-counting attempts.
fn attempt_killed(ctx: &ScenarioCtx) -> bool {
    let overran = ctx.budget().is_some_and(|budget| ctx.elapsed() > budget);
    ctx.is_cancelled() || overran
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::AwgnChannel;
    use crate::instruments::PowerMeter;
    use crate::source::ToneSource;
    use crate::supervise::{SweepCheckpoint, SweepSupervisor};
    use crate::{Graph, SimError};

    /// Scenario `i`: noise power of a tone through AWGN at `5 + i` dB SNR.
    fn noisy_tone_power(i: usize) -> Result<f64, SimError> {
        let mut g = Graph::new();
        let src = g.add(ToneSource::new(1.0e3, 1.0e6, 256));
        let ch = g.add(AwgnChannel::from_snr_db(
            5.0 + i as f64,
            scenario_seed(42, i),
        ));
        let meter = g.add(PowerMeter::new());
        g.connect(src, ch, 0)?;
        g.connect(ch, meter, 0)?;
        g.execute(&ExecPlan::batch())?;
        Ok(g.block::<PowerMeter>(meter).unwrap().power().unwrap())
    }

    fn sweep(threads: usize) -> Vec<f64> {
        SweepPlan::new(8)
            .threads(threads)
            .run_fail_fast(noisy_tone_power)
            .unwrap()
            .0
    }

    /// A fault-tolerant plan of `count` scenarios on `threads` workers.
    fn resilient(count: usize, threads: usize, retry: RetryPolicy) -> SweepPlan {
        SweepPlan::new(count).threads(threads).with_retry(retry)
    }

    #[test]
    fn parallel_reproduces_sequential() {
        let seq = sweep(1);
        let par = sweep(4);
        assert_eq!(seq, par);
        // Sanity: higher SNR scenarios carry less noise power.
        assert!(seq[0] > seq[7]);
    }

    #[test]
    fn results_are_in_scenario_order() {
        let (out, _) = SweepPlan::new(100)
            .threads(8)
            .run_fail_fast(|i| -> Result<usize, SimError> { Ok(i * i) })
            .unwrap();
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let (out, _) = SweepPlan::new(0)
            .run_fail_fast(|_| -> Result<(), SimError> { Ok(()) })
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn error_propagates() {
        let res = SweepPlan::new(16)
            .threads(4)
            .run_fail_fast(|i| -> Result<usize, String> {
                if i == 5 {
                    Err("scenario 5 exploded".into())
                } else {
                    Ok(i)
                }
            });
        assert_eq!(res.unwrap_err(), "scenario 5 exploded");
    }

    #[test]
    fn scenario_seed_is_stable_and_spread() {
        assert_eq!(scenario_seed(1, 0), scenario_seed(1, 0));
        assert_ne!(scenario_seed(1, 0), scenario_seed(1, 1));
        assert_ne!(scenario_seed(1, 0), scenario_seed(2, 0));
        let plan = SweepPlan::new(4).threads(16);
        assert_eq!(plan.workers(), 4);
        assert_eq!(plan.count(), 4);
        // Every other toggle starts at its default.
        assert!(!plan.telemetry());
        assert_eq!(plan.retry(), RetryPolicy::none());
        assert_eq!(plan.supervisor().scenario_budget(), None);
    }

    #[test]
    fn instrumented_sweep_reproduces_results_and_times_scenarios() {
        let plain = sweep(4);
        let (instrumented, report) = SweepPlan::new(8)
            .threads(4)
            .with_telemetry(true)
            .run_fail_fast(noisy_tone_power)
            .unwrap();
        assert_eq!(plain, instrumented);
        assert_eq!(report.workers, 4);
        assert_eq!(report.scenario_nanos.len(), 8);
        assert!(report.total_nanos > 0);
        assert!(report.busy_nanos() > 0);
        let u = report.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn instrumented_sweep_propagates_errors() {
        let res = SweepPlan::new(4)
            .threads(2)
            .with_telemetry(true)
            .run_fail_fast(|i| if i == 2 { Err("boom") } else { Ok(i) });
        assert_eq!(res.unwrap_err(), "boom");
    }

    #[test]
    fn resilient_sweep_survives_panics_and_errors() {
        // Scenario kinds by index: 0 mod 3 clean, 1 mod 3 panics always,
        // 2 mod 3 errors always. No retries: one attempt each.
        let (outcomes, report) = resilient(9, 3, RetryPolicy::none()).run(
            |i, _attempt, _ctx| -> Result<usize, SimError> {
                match i % 3 {
                    0 => Ok(i),
                    1 => panic!("scenario {i} exploded"),
                    _ => Err(SimError::InvalidChunkLen),
                }
            },
        );
        assert_eq!(outcomes.len(), 9);
        let faults = report.faults.expect("resilient sweep reports faults");
        assert_eq!(faults.succeeded, 3);
        assert_eq!(faults.retried, 0);
        assert_eq!(faults.faulted, 6);
        assert_eq!(faults.panics_caught, 3);
        assert_eq!(faults.errors_caught, 3);
        assert!((faults.survival_rate() - 1.0 / 3.0).abs() < 1e-12);
        // Outcomes stay in scenario order with faithful payloads.
        for (i, o) in outcomes.iter().enumerate() {
            match i % 3 {
                0 => assert_eq!(o.result(), Some(&i)),
                1 => {
                    assert!(o.is_faulted());
                    match o {
                        ScenarioOutcome::Faulted { error, attempts } => {
                            assert_eq!(*attempts, 1);
                            assert!(error.contains("panic"), "{error}");
                            assert!(error.contains("exploded"), "{error}");
                        }
                        other => panic!("expected fault, got {other:?}"),
                    }
                }
                _ => match o {
                    ScenarioOutcome::Faulted { error, .. } => {
                        assert!(error.contains("chunk length"), "{error}");
                    }
                    other => panic!("expected fault, got {other:?}"),
                },
            }
        }
        assert_eq!(report.scenario_nanos.len(), 9);
        assert!(
            report.summary().contains("survival"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn resilient_sweep_retries_with_fresh_attempt_numbers() {
        // Fails on attempt 0, succeeds on attempt 1 — a retry-with-reseed
        // scenario. One retry allowed.
        let (outcomes, report) = resilient(4, 2, RetryPolicy::retries(1)).run(
            |i, attempt, _ctx| -> Result<u32, String> {
                if attempt == 0 {
                    if i % 2 == 0 {
                        panic!("first attempt panics");
                    }
                    return Err("first attempt errors".into());
                }
                Ok(attempt)
            },
        );
        let faults = report.faults.expect("faults present");
        assert_eq!(faults.succeeded, 0);
        assert_eq!(faults.retried, 4);
        assert_eq!(faults.faulted, 0);
        assert_eq!(faults.panics_caught, 2);
        assert_eq!(faults.errors_caught, 2);
        assert_eq!(faults.survival_rate(), 1.0);
        for o in &outcomes {
            assert_eq!(o.result(), Some(&1));
            assert_eq!(o.attempts(), 2);
            assert!(matches!(o, ScenarioOutcome::Retried { attempts: 2, .. }));
        }
    }

    #[test]
    fn resilient_sweep_exhausts_retries_then_faults() {
        let calls = AtomicUsize::new(0);
        let (outcomes, report) =
            resilient(1, 1, RetryPolicy::retries(2)).run(|_, _, _| -> Result<(), String> {
                calls.fetch_add(1, Ordering::Relaxed);
                Err("always down".into())
            });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert!(outcomes[0].is_faulted());
        assert_eq!(outcomes[0].attempts(), 3);
        let faults = report.faults.expect("faults present");
        assert_eq!(faults.faulted, 1);
        assert_eq!(faults.errors_caught, 3);
        assert_eq!(RetryPolicy::retries(2).max_attempts(), 3);
        assert_eq!(RetryPolicy::none().max_attempts(), 1);
    }

    #[test]
    fn fault_on_final_retry_counts_once_and_outcomes_sum_to_total() {
        // Regression: a scenario that fails on its final permitted retry
        // must land in `faulted` only — never also in `retried` — so the
        // outcome counts always partition the sweep.
        let (outcomes, report) = resilient(1, 1, RetryPolicy::retries(1))
            .run(|_, _, _| -> Result<(), String> { Err("down on every attempt".into()) });
        let faults = report.faults.expect("present");
        assert_eq!(faults.faulted, 1);
        assert_eq!(
            faults.retried, 0,
            "final-retry fault must not count as retried"
        );
        assert_eq!(faults.succeeded, 0);
        assert_eq!(outcomes[0].attempts(), 2);

        // Mixed sweep: clean, retried and faulted scenarios partition it.
        let (outcomes, report) = resilient(12, 4, RetryPolicy::retries(1)).run(
            |i, attempt, _ctx| -> Result<usize, String> {
                match i % 3 {
                    0 => Ok(i),
                    1 if attempt == 0 => Err("flaky first attempt".into()),
                    1 => Ok(i),
                    _ => Err("always down".into()),
                }
            },
        );
        let faults = report.faults.expect("present");
        assert_eq!(faults.succeeded, 4);
        assert_eq!(faults.retried, 4);
        assert_eq!(faults.faulted, 4);
        assert_eq!(
            faults.succeeded + faults.retried + faults.faulted,
            outcomes.len(),
            "outcome counts must partition the sweep"
        );
        assert_eq!(faults.scenarios(), outcomes.len());
    }

    #[test]
    fn supervised_watchdog_kills_overrunning_attempts() {
        // Odd scenarios spin until cancelled; even ones finish instantly.
        let supervisor = SweepSupervisor::new()
            .with_scenario_budget(Duration::from_millis(40))
            .with_poll_interval(Duration::from_millis(1));
        let (outcomes, report) = resilient(6, 3, RetryPolicy::none())
            .with_supervisor(supervisor)
            .run(|i, _attempt, ctx| -> Result<usize, String> {
                if i % 2 == 0 {
                    return Ok(i);
                }
                loop {
                    if ctx.is_cancelled() {
                        return Err(format!("scenario {i} cancelled by watchdog"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        let faults = report.faults.expect("present");
        assert_eq!(faults.succeeded, 3);
        assert_eq!(faults.faulted, 3);
        let sup = report.supervision.expect("supervised sweep reports");
        assert_eq!(sup.deadline_kills, 3);
        assert_eq!(sup.resumed, 0);
        for (i, o) in outcomes.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(o.result(), Some(&i));
            } else {
                assert!(o.is_faulted());
            }
        }
    }

    #[test]
    fn unbudgeted_sweep_hands_out_unsupervised_contexts() {
        let (outcomes, report) = resilient(5, 2, RetryPolicy::none()).run(
            |i, _attempt, ctx| -> Result<usize, SimError> {
                assert!(!ctx.is_cancelled());
                assert!(ctx.budget().is_none());
                Ok(i * 2)
            },
        );
        assert_eq!(report.supervision.expect("present").deadline_kills, 0);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.result(), Some(&(i * 2)));
        }
    }

    #[test]
    fn supervise_adds_the_attempts_token_and_budget_to_the_plan() {
        let ctx = ScenarioCtx::new(Some(Duration::from_millis(7)));
        let plan = ctx.supervise(ExecPlan::streaming(32).guard_non_finite(true));
        assert_eq!(plan.budget(), Some(Duration::from_millis(7)));
        assert!(plan.guards_non_finite(), "existing toggles are kept");
        assert_eq!(plan.mode(), ExecPlan::streaming(32).mode());
        let token = plan.cancel_token().expect("token wired in");
        assert!(!token.is_cancelled());
        ctx.cancel_token().cancel();
        assert!(token.is_cancelled(), "the plan shares the attempt's flag");
    }

    #[test]
    fn checkpointed_sweep_resumes_and_merges() {
        let path =
            std::env::temp_dir().join(format!("rfsim-scenario-ckpt-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = resilient(8, 2, RetryPolicy::none());

        // First run: scenarios ≥ 4 fail, so only 0..4 land in the
        // checkpoint.
        let mut ckpt = SweepCheckpoint::load_or_new(&path, "unit", 8).with_batch(1);
        let (outcomes, report) =
            plan.run_checkpointed(&mut ckpt, |i, _attempt, _ctx| -> Result<f64, String> {
                if i < 4 {
                    Ok(i as f64 * 1.5)
                } else {
                    Err("not yet".into())
                }
            });
        assert_eq!(report.faults.expect("present").faulted, 4);
        assert_eq!(report.supervision.expect("present").resumed, 0);
        assert_eq!(outcomes[0].result(), Some(&0.0));

        // Second run: everything works; the first four restore from disk.
        let ran = AtomicUsize::new(0);
        let mut ckpt = SweepCheckpoint::load_or_new(&path, "unit", 8);
        assert_eq!(ckpt.len(), 4);
        let (outcomes, report) =
            plan.run_checkpointed(&mut ckpt, |i, _attempt, _ctx| -> Result<f64, String> {
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(i as f64 * 1.5)
            });
        assert_eq!(
            ran.load(Ordering::Relaxed),
            4,
            "restored scenarios must not re-run"
        );
        let faults = report.faults.expect("present");
        assert_eq!(faults.succeeded, 8);
        assert_eq!(faults.faulted, 0);
        assert_eq!(report.supervision.expect("present").resumed, 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.result(), Some(&(i as f64 * 1.5)));
        }
        ckpt.discard().expect("cleanup");
    }

    #[test]
    fn resilient_sweep_handles_empty_and_clean_sweeps() {
        let (outcomes, report) = resilient(0, 1, RetryPolicy::none())
            .run(|i, _, _| -> Result<usize, SimError> { Ok(i) });
        assert!(outcomes.is_empty());
        assert_eq!(report.faults.expect("present").survival_rate(), 1.0);
        let (outcomes, report) = resilient(6, 2, RetryPolicy::retries(3))
            .run(|i, _, _| -> Result<usize, SimError> { Ok(i * 10) });
        let faults = report.faults.expect("present");
        assert_eq!(faults.succeeded, 6);
        assert_eq!(faults.panics_caught + faults.errors_caught, 0);
        for (i, o) in outcomes.iter().enumerate() {
            assert!(matches!(o, ScenarioOutcome::Succeeded(v) if *v == i * 10));
        }
    }

    #[test]
    fn fail_fast_without_telemetry_reads_no_clocks() {
        let (results, report) = SweepPlan::new(8)
            .threads(4)
            .run_fail_fast(noisy_tone_power)
            .unwrap();
        assert_eq!(results, sweep(1));
        // Telemetry off: the fail-fast contract reads no clocks.
        assert_eq!(report.total_nanos, 0);
        assert!(report.scenario_nanos.iter().all(|&n| n == 0));
        assert!(report.faults.is_none() && report.supervision.is_none());
    }

    #[test]
    fn sweep_plan_telemetry_toggle_times_the_sweep() {
        let (results, report) = SweepPlan::new(6)
            .threads(3)
            .with_telemetry(true)
            .run_fail_fast(|i| -> Result<usize, SimError> {
                std::thread::sleep(Duration::from_millis(1));
                Ok(i)
            })
            .unwrap();
        assert_eq!(results, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(report.workers, 3);
        assert_eq!(report.scenario_nanos.len(), 6);
        assert!(report.total_nanos > 0);
        assert!(report.scenario_nanos.iter().all(|&n| n > 0));
    }

    #[test]
    fn sweep_plan_sequential_error_is_the_lowest_failing_index() {
        let err = SweepPlan::new(16)
            .threads(1)
            .run_fail_fast(|i| -> Result<usize, String> {
                if i >= 5 {
                    Err(format!("scenario {i} failed"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(err, "scenario 5 failed");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn sweep_plan_zero_threads_panics() {
        let _ = SweepPlan::new(1).threads(0);
    }
}
