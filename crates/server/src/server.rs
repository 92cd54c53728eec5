//! The simulation server: session management, fair scheduling, and the
//! worker pool.
//!
//! # Architecture
//!
//! One thread per connected client reads and dispatches its frames; a
//! fixed pool of worker threads executes waterfall grid points. All
//! coordination happens through one mutex-guarded scheduler state plus a
//! condvar — no async runtime.
//!
//! - **Fairness** — workers pick work one *grid point* at a time,
//!   round-robin across sessions (`SchedState::pick`), so a session
//!   with a thousand-point job cannot starve a session with a ten-point
//!   job: their points interleave.
//! - **Backpressure** — each session may hold at most
//!   [`ServerConfig::queue_capacity`] unfinished jobs; further submits
//!   are refused with [`ServerMsg::Rejected`] and a retry hint instead
//!   of queueing unboundedly.
//! - **Cancellation** — the server owns a root [`CancelToken`]; every
//!   session gets a child scope and every job a grandchild, so a lost
//!   connection cancels exactly that session's jobs and a server
//!   shutdown cancels everything.
//! - **Supervision** — jobs may carry a wall-clock [`Deadline`]; a
//!   session whose jobs keep failing trips a circuit breaker
//!   ([`BreakerState`]) and has new submits refused until probation.
//! - **Checkpoints** — with a checkpoint directory configured, each
//!   job's completed points persist through [`SweepCheckpoint`]; a
//!   resubmitted identical grid restores them instead of recomputing,
//!   and a corrupt checkpoint file refuses the submit loudly.
//!
//! Per job, results stream strictly in grid-index order: workers finish
//! points out of order into a reorder buffer and the contiguous prefix
//! is flushed as [`ServerMsg::Result`] frames.

use crate::wire::{self, JobSpec, ServerMsg, WireError};
use ofdm_bench::waterfall::{
    checkpoint_label, waterfall_point, WaterfallCurve, WaterfallReport, WaterfallSpec,
};
use ofdm_core::ber::BerCounter;
use rfsim::supervise::CHECKPOINT_SCHEMA;
use rfsim::{
    BreakerPolicy, BreakerState, CancelToken, CheckpointEntry, CheckpointPayload, Deadline, Lease,
    LeaseReaper, SweepCheckpoint,
};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads computing grid points (`0` = one per CPU).
    pub workers: usize,
    /// Unfinished jobs a session may hold before submits are rejected.
    pub queue_capacity: usize,
    /// The retry hint attached to backpressure rejections.
    pub retry_after_ms: u64,
    /// Where to persist per-job sweep checkpoints (`None` = in-memory
    /// only).
    pub checkpoint_dir: Option<PathBuf>,
    /// Circuit-breaker policy for sessions whose jobs keep failing.
    pub breaker: BreakerPolicy,
    /// Emit a [`ServerMsg::Telemetry`] frame every this many completed
    /// points of a job.
    pub telemetry_every: usize,
    /// Session lease TTL: a session whose client sends nothing (not even
    /// a heartbeat) for this long is reaped — its jobs cancelled and its
    /// queue capacity reclaimed. `None` disables the reaper.
    pub lease_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 4,
            retry_after_ms: 250,
            checkpoint_dir: None,
            breaker: BreakerPolicy::new(),
            telemetry_every: 8,
            lease_ms: None,
        }
    }
}

/// What a crash-recovery scan of the checkpoint directory found at
/// startup (see [`Server::recovery`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Persisted checkpoints with a valid schema tag: an identical
    /// resubmit restores this many grids' prior progress.
    pub resumable: usize,
    /// Files that exist but do not carry the checkpoint schema — left in
    /// place so the damage surfaces as a loud submit-time rejection.
    pub corrupt: usize,
    /// Orphaned `*.tmp` files from writes interrupted by the crash,
    /// removed during the scan.
    pub cleaned_tmp: usize,
}

/// Scans a checkpoint directory after a(n un)clean shutdown: removes
/// orphaned atomic-write temp files and classifies every persisted
/// document. Restoration itself stays lazy — submits find their progress
/// through the label-derived path — so the scan only reports and cleans.
fn recovery_scan(dir: &Path) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return report;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            if std::fs::remove_file(&path).is_ok() {
                report.cleaned_tmp += 1;
            }
            continue;
        }
        if path.extension().is_some_and(|e| e == "json") {
            let tagged = std::fs::read_to_string(&path).is_ok_and(|text| {
                serde::json::parse(&text).is_ok_and(|doc| {
                    doc.get("schema").and_then(|v| v.as_str()) == Some(CHECKPOINT_SCHEMA)
                })
            });
            if tagged {
                report.resumable += 1;
            } else {
                report.corrupt += 1;
            }
        }
    }
    report
}

/// Re-aggregates a job's streamed per-point tallies into the same
/// [`WaterfallReport`] an in-process [`run_waterfall`] call yields —
/// feeding it to [`waterfall_json`] therefore reproduces the local
/// document byte for byte.
///
/// `results[i]` is grid point `i`'s `(errors, bits)` tally.
///
/// # Errors
///
/// A message if `results` does not cover the spec's full grid.
///
/// [`run_waterfall`]: ofdm_bench::waterfall::run_waterfall
/// [`waterfall_json`]: ofdm_bench::waterfall::waterfall_json
pub fn assemble_report(
    spec: &WaterfallSpec,
    results: &[(u64, u64)],
) -> Result<WaterfallReport, String> {
    if results.len() != spec.point_count() {
        return Err(format!(
            "got {} point results for a {}-point grid",
            results.len(),
            spec.point_count()
        ));
    }
    let mut curves = Vec::with_capacity(spec.standards.len());
    for (s, &standard) in spec.standards.iter().enumerate() {
        let mut points = vec![BerCounter::new(); spec.snr_db.len()];
        for (g, point) in points.iter_mut().enumerate() {
            for r in 0..spec.realizations {
                let index = (s * spec.snr_db.len() + g) * spec.realizations + r;
                let (errors, bits) = results[index];
                point.add(errors, bits);
            }
        }
        curves.push(WaterfallCurve { standard, points });
    }
    Ok(WaterfallReport { curves, resumed: 0 })
}

/// A session's outbound stream, shared between its reader thread and the
/// workers delivering its results.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn write_msg(writer: &SharedWriter, msg: &ServerMsg) {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    // A dead client's writes fail; its reader thread notices the
    // disconnect and tears the session down, so failures here are moot.
    let _ = wire::send(&mut *w, &msg.to_value());
}

/// Mutable per-job progress, behind the job's own mutex.
struct JobProgress {
    /// Out-of-order results awaiting their turn.
    buffer: BTreeMap<usize, (u64, u64)>,
    /// Next grid index to stream — everything below is already emitted.
    emit_cursor: usize,
    /// Points actually computed this run (excludes checkpoint restores).
    computed: usize,
    /// Terminal flag; set exactly once.
    finished: bool,
    /// On-disk progress, when the server checkpoints.
    checkpoint: Option<SweepCheckpoint>,
}

/// One submitted job.
struct JobState {
    id: u64,
    session: u64,
    spec: WaterfallSpec,
    /// The grid's identity ([`checkpoint_label`]) — the idempotency key
    /// held in [`Shared::active_labels`] while this job is live.
    label: String,
    total: usize,
    restored: HashSet<usize>,
    /// Next grid index to hand a worker (skipping restored points).
    next_dispatch: AtomicUsize,
    /// Mirror of `JobProgress::finished` readable without the job mutex,
    /// so the scheduler can skip dead jobs under the state lock alone.
    terminal: AtomicBool,
    cancel: CancelToken,
    deadline: Option<Deadline>,
    progress: Mutex<JobProgress>,
}

impl JobState {
    /// Claims the next undispatched, non-restored grid index.
    fn take_next_index(&self) -> Option<usize> {
        loop {
            let n = self.next_dispatch.fetch_add(1, Ordering::SeqCst);
            if n >= self.total {
                // Park the cursor so repeated polls don't overflow.
                self.next_dispatch.store(self.total, Ordering::SeqCst);
                return None;
            }
            if !self.restored.contains(&n) {
                return Some(n);
            }
        }
    }
}

/// One connected session.
struct SessionSlot {
    id: u64,
    queue: VecDeque<Arc<JobState>>,
    writer: SharedWriter,
    cancel: CancelToken,
    breaker: BreakerState,
    /// The session's socket, for the reaper to sever: cancelling the
    /// token alone would leave the reader thread blocked in `recv`.
    stream: Option<TcpStream>,
}

/// What a worker got out of the scheduler.
enum Picked {
    /// Compute this grid point.
    Compute(Arc<JobState>, usize),
    /// Drive this job to the given terminal status.
    Finish(Arc<JobState>, &'static str),
}

/// The scheduler state, guarded by [`Shared::state`].
struct SchedState {
    sessions: Vec<SessionSlot>,
    rr_cursor: usize,
    next_session: u64,
    next_job: u64,
}

impl SchedState {
    /// Round-robin point pick: starting at the cursor, the first session
    /// with dispatchable work wins one point and the cursor moves past
    /// it, so heavy sessions cannot starve light ones.
    fn pick(&mut self) -> Option<Picked> {
        let n = self.sessions.len();
        for k in 0..n {
            let si = (self.rr_cursor + k) % n;
            for job in &self.sessions[si].queue {
                if job.terminal.load(Ordering::SeqCst) {
                    continue;
                }
                if job.cancel.is_cancelled() {
                    self.rr_cursor = (si + 1) % n;
                    return Some(Picked::Finish(Arc::clone(job), "cancelled"));
                }
                if job.deadline.as_ref().is_some_and(Deadline::expired) {
                    self.rr_cursor = (si + 1) % n;
                    return Some(Picked::Finish(Arc::clone(job), "deadline"));
                }
                if let Some(index) = job.take_next_index() {
                    self.rr_cursor = (si + 1) % n;
                    return Some(Picked::Compute(Arc::clone(job), index));
                }
            }
        }
        None
    }

    fn slot_mut(&mut self, session: u64) -> Option<&mut SessionSlot> {
        self.sessions.iter_mut().find(|s| s.id == session)
    }
}

/// State shared by the accept loop, session readers, and workers.
struct Shared {
    config: ServerConfig,
    state: Mutex<SchedState>,
    work_ready: Condvar,
    /// Root cancellation scope; sessions and jobs are descendants.
    shutdown: CancelToken,
    /// Streams of every live connection, for unblocking readers at
    /// shutdown.
    conns: Mutex<Vec<TcpStream>>,
    /// Set once by a `drain` frame; refuses new submits while in-flight
    /// jobs run (or checkpoint) to completion.
    draining: AtomicBool,
    /// Checkpoint labels of live jobs — the idempotency registry that
    /// makes retried submits safe: a grid can never run twice at once.
    active_labels: Mutex<HashSet<String>>,
    /// Session-liveness reaper, swept periodically when leases are on.
    reaper: LeaseReaper,
    /// Where a throwaway connect wakes the accept loop out of its
    /// blocking `accept()` (the listener's address, loopback for an
    /// unspecified IP); `None` when there is no listener.
    wake: Option<SocketAddr>,
}

impl Shared {
    fn new(config: ServerConfig) -> Self {
        Shared {
            config,
            state: Mutex::new(SchedState {
                sessions: Vec::new(),
                rr_cursor: 0,
                next_session: 1,
                next_job: 1,
            }),
            work_ready: Condvar::new(),
            shutdown: CancelToken::new(),
            conns: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            active_labels: Mutex::new(HashSet::new()),
            reaper: LeaseReaper::new(),
            wake: None,
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_labels(&self) -> std::sync::MutexGuard<'_, HashSet<String>> {
        self.active_labels
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The session lease TTL, when leases are configured.
    fn lease_ttl(&self) -> Option<Duration> {
        self.config.lease_ms.map(Duration::from_millis)
    }

    /// Registers a session around an outbound writer (plus its socket,
    /// when it has one, so the reaper can sever it); returns the id and
    /// the session's lease for the reader to touch.
    fn register_session(
        &self,
        writer: SharedWriter,
        stream: Option<TcpStream>,
    ) -> (u64, Arc<Lease>) {
        let lease = Arc::new(Lease::new(self.lease_ttl().unwrap_or(Duration::MAX)));
        let cancel = self.shutdown.child();
        if self.lease_ttl().is_some() {
            self.reaper.register(Arc::clone(&lease), cancel.clone());
        }
        let mut state = self.lock_state();
        let id = state.next_session;
        state.next_session += 1;
        state.sessions.push(SessionSlot {
            id,
            queue: VecDeque::new(),
            writer,
            cancel,
            breaker: BreakerState::default(),
            stream,
        });
        (id, lease)
    }

    /// Begins a graceful drain exactly once: new submits are refused,
    /// every session hears a typed [`ServerMsg::Draining`] frame, and
    /// [`Server::run`] exits once the last in-flight job retires.
    fn begin_drain(&self, detail: &str) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        let writers: Vec<SharedWriter> = {
            let state = self.lock_state();
            state
                .sessions
                .iter()
                .map(|s| Arc::clone(&s.writer))
                .collect()
        };
        let msg = ServerMsg::Draining {
            detail: detail.to_owned(),
        };
        for writer in writers {
            write_msg(&writer, &msg);
        }
        self.work_ready.notify_all();
        if self.drained() {
            self.wake_acceptor();
        }
    }

    /// Unblocks [`Server::run`]'s `accept()` with a connection it drops
    /// after re-checking shutdown and drain. Call after every change that
    /// may end the server, so no such change waits for a real client.
    fn wake_acceptor(&self) {
        if let Some(addr) = self.wake {
            let _ = TcpStream::connect(addr);
        }
    }

    /// True once a drain was requested and no session holds unfinished
    /// jobs — the moment the accept loop may exit cleanly.
    fn drained(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
            && self
                .lock_state()
                .sessions
                .iter()
                .all(|s| s.queue.is_empty())
    }

    /// One reaper tick: cancels sessions whose lease expired, then
    /// severs their sockets so blocked readers wake and run the normal
    /// teardown path (jobs cancelled, queue slots and labels freed).
    fn reap_expired_sessions(&self) -> usize {
        let reaped = self.reaper.sweep();
        let streams: Vec<TcpStream> = {
            let mut state = self.lock_state();
            state
                .sessions
                .iter_mut()
                .filter(|s| s.cancel.is_cancelled())
                .filter_map(|s| s.stream.take())
                .collect()
        };
        for stream in &streams {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if reaped > 0 {
            self.work_ready.notify_all();
        }
        reaped
    }

    /// The deterministic checkpoint path for a grid, when checkpointing
    /// is configured — derived from the label so an identical resubmit
    /// (even after a server restart) finds its previous progress.
    fn checkpoint_path(&self, label: &str) -> Option<PathBuf> {
        let dir = self.config.checkpoint_dir.as_ref()?;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Some(dir.join(format!("wf-{hash:016x}.json")))
    }

    /// Validates and queues a submit, streaming `Accepted` (plus any
    /// checkpoint-restored results) or `Rejected` on the session.
    fn submit(&self, session: u64, job: &JobSpec) {
        let total = job.spec.point_count();
        let label = checkpoint_label(&job.spec);

        if self.draining.load(Ordering::SeqCst) {
            // Permanent for this server instance: a resilient client
            // should fail over, not spin against a draining endpoint.
            self.reply(
                session,
                &ServerMsg::Rejected {
                    reason: "draining: no new jobs accepted".to_owned(),
                    retry_after_ms: 0,
                },
            );
            return;
        }

        // Reserve the grid's identity before anything else: a retried
        // submit of a job that is still running (e.g. the client's ack
        // was lost in transit) must bounce instead of double-running.
        if !self.lock_labels().insert(label.clone()) {
            self.reply(
                session,
                &ServerMsg::Rejected {
                    reason: format!("duplicate job: grid '{label}' is already active"),
                    retry_after_ms: self.config.retry_after_ms,
                },
            );
            return;
        }

        // Load prior progress before taking the state lock — file IO
        // must not stall the scheduler.
        let mut checkpoint = None;
        let mut restored_entries: Vec<(usize, (u64, u64))> = Vec::new();
        let ckpt_path = self.checkpoint_path(&label);
        if let (Some(path), true) = (ckpt_path, total > 0) {
            match SweepCheckpoint::load(path, &label, total) {
                Ok(ckpt) => {
                    for entry in ckpt.entries() {
                        if let Some(r) = <(u64, u64)>::from_checkpoint_value(&entry.result) {
                            restored_entries.push((entry.index, r));
                        }
                    }
                    checkpoint = Some(ckpt);
                }
                Err(e) => {
                    // A damaged checkpoint refuses the submit loudly
                    // instead of silently recomputing (or worse, merging
                    // garbage). `retry_after_ms: 0` marks it permanent.
                    self.lock_labels().remove(&label);
                    self.reply(
                        session,
                        &ServerMsg::Rejected {
                            reason: format!("checkpoint: {e}"),
                            retry_after_ms: 0,
                        },
                    );
                    return;
                }
            }
        }

        let mut state = self.lock_state();
        let id = state.next_job;
        let (writer, session_cancel) = {
            let Some(slot) = state.slot_mut(session) else {
                drop(state);
                self.lock_labels().remove(&label);
                return;
            };
            let rejection = if total == 0 {
                Some(ServerMsg::Rejected {
                    reason: "invalid job: empty waterfall grid".to_owned(),
                    retry_after_ms: 0,
                })
            } else if slot.breaker.is_open() {
                Some(ServerMsg::Rejected {
                    reason: "circuit open: this session's jobs keep failing".to_owned(),
                    retry_after_ms: self.config.retry_after_ms,
                })
            } else if slot.queue.len() >= self.config.queue_capacity {
                Some(ServerMsg::Rejected {
                    reason: format!(
                        "queue full: {} jobs already pending",
                        self.config.queue_capacity
                    ),
                    retry_after_ms: self.config.retry_after_ms,
                })
            } else {
                None
            };
            if let Some(msg) = rejection {
                let writer = Arc::clone(&slot.writer);
                drop(state);
                self.lock_labels().remove(&label);
                write_msg(&writer, &msg);
                return;
            }
            (Arc::clone(&slot.writer), slot.cancel.clone())
        };

        state.next_job += 1;
        let restored: HashSet<usize> = restored_entries.iter().map(|&(i, _)| i).collect();
        let job_state = Arc::new(JobState {
            id,
            session,
            spec: job.spec.clone(),
            label,
            total,
            restored,
            next_dispatch: AtomicUsize::new(0),
            terminal: AtomicBool::new(false),
            cancel: session_cancel.child(),
            deadline: job
                .deadline_ms
                .map(|ms| Deadline::starting_now(Duration::from_millis(ms))),
            progress: Mutex::new(JobProgress {
                buffer: restored_entries.into_iter().collect(),
                emit_cursor: 0,
                computed: 0,
                finished: false,
                checkpoint,
            }),
        });
        if let Some(slot) = state.slot_mut(session) {
            slot.queue.push_back(Arc::clone(&job_state));
        }
        drop(state);

        write_msg(
            &writer,
            &ServerMsg::Accepted {
                job: id,
                points: total,
            },
        );
        // Stream whatever prefix the checkpoint already covers; a fully
        // restored job completes without touching the worker pool.
        self.flush_progress(&job_state, &writer);
        self.work_ready.notify_all();
    }

    /// Sends a message on a session's stream, if it still exists.
    fn reply(&self, session: u64, msg: &ServerMsg) {
        let writer = {
            let mut state = self.lock_state();
            state.slot_mut(session).map(|s| Arc::clone(&s.writer))
        };
        if let Some(writer) = writer {
            write_msg(&writer, msg);
        }
    }

    /// Delivers one computed point and streams the newly contiguous
    /// prefix; drives the job terminal when it completes or fails.
    fn deliver(&self, job: &Arc<JobState>, index: usize, result: Result<(u64, u64), String>) {
        let tally = match result {
            Ok(t) => t,
            Err(detail) => {
                self.finish_job(job, "failed", &detail);
                return;
            }
        };
        let writer = {
            let mut state = self.lock_state();
            match state.slot_mut(job.session) {
                Some(slot) => Arc::clone(&slot.writer),
                None => return, // session already torn down
            }
        };
        {
            let mut p = job.progress.lock().unwrap_or_else(PoisonError::into_inner);
            if p.finished {
                return; // late result for a cancelled/expired job
            }
            p.buffer.insert(index, tally);
            p.computed += 1;
            if let Some(ckpt) = &mut p.checkpoint {
                ckpt.record(CheckpointEntry {
                    index,
                    attempts: 1,
                    nanos: 0,
                    result: tally.to_checkpoint_value(),
                });
                if ckpt.len().is_multiple_of(8) {
                    let _ = ckpt.persist();
                }
            }
        }
        self.flush_progress(job, &writer);
    }

    /// Streams the contiguous prefix of a job's reorder buffer, emits
    /// telemetry, and completes the job when the last point lands.
    fn flush_progress(&self, job: &Arc<JobState>, writer: &SharedWriter) {
        let mut complete = false;
        {
            let mut p = job.progress.lock().unwrap_or_else(PoisonError::into_inner);
            if p.finished {
                return;
            }
            let mut emitted = false;
            loop {
                let cursor = p.emit_cursor;
                let Some(tally) = p.buffer.remove(&cursor) else {
                    break;
                };
                write_msg(
                    writer,
                    &ServerMsg::Result {
                        job: job.id,
                        index: p.emit_cursor,
                        errors: tally.0,
                        bits: tally.1,
                    },
                );
                p.emit_cursor += 1;
                emitted = true;
            }
            let every = self.config.telemetry_every.max(1);
            if emitted && p.emit_cursor < job.total && p.emit_cursor.is_multiple_of(every) {
                write_msg(
                    writer,
                    &ServerMsg::Telemetry {
                        job: job.id,
                        done: p.emit_cursor,
                        total: job.total,
                    },
                );
            }
            if p.emit_cursor == job.total {
                p.finished = true;
                job.terminal.store(true, Ordering::SeqCst);
                if let Some(ckpt) = &p.checkpoint {
                    let _ = ckpt.discard();
                }
                write_msg(
                    writer,
                    &ServerMsg::Done {
                        job: job.id,
                        status: "complete".to_owned(),
                        computed: p.computed,
                        detail: String::new(),
                    },
                );
                complete = true;
            }
        }
        if complete {
            self.retire(job, true);
        }
    }

    /// Drives a job to a non-complete terminal status exactly once.
    fn finish_job(&self, job: &Arc<JobState>, status: &str, detail: &str) {
        job.cancel.cancel();
        {
            let mut p = job.progress.lock().unwrap_or_else(PoisonError::into_inner);
            if p.finished {
                return;
            }
            p.finished = true;
            job.terminal.store(true, Ordering::SeqCst);
            // Keep the checkpoint: a cancelled or expired job's progress
            // is exactly what a resubmit wants to restore.
            if let Some(ckpt) = &p.checkpoint {
                let _ = ckpt.persist();
            }
            let writer = {
                let mut state = self.lock_state();
                state.slot_mut(job.session).map(|s| Arc::clone(&s.writer))
            };
            if let Some(writer) = writer {
                write_msg(
                    &writer,
                    &ServerMsg::Done {
                        job: job.id,
                        status: status.to_owned(),
                        computed: p.computed,
                        detail: detail.to_owned(),
                    },
                );
            }
        }
        self.retire(job, false);
    }

    /// Removes a terminal job from its session queue, feeds the breaker,
    /// and frees both its capacity slot and its idempotency label.
    fn retire(&self, job: &Arc<JobState>, succeeded: bool) {
        let mut state = self.lock_state();
        if let Some(slot) = state.slot_mut(job.session) {
            slot.queue.retain(|j| j.id != job.id);
            if succeeded {
                slot.breaker.record_success();
            } else {
                slot.breaker.record_failure(&self.config.breaker);
            }
        }
        drop(state);
        self.lock_labels().remove(&job.label);
        self.work_ready.notify_all();
        if self.drained() {
            self.wake_acceptor();
        }
    }

    /// Cancels one of a session's jobs by id.
    fn cancel_job(&self, session: u64, job_id: u64) {
        let job = {
            let mut state = self.lock_state();
            state
                .slot_mut(session)
                .and_then(|slot| slot.queue.iter().find(|j| j.id == job_id).map(Arc::clone))
        };
        match job {
            Some(job) => self.finish_job(&job, "cancelled", ""),
            None => self.reply(
                session,
                &ServerMsg::Error {
                    detail: format!("no such job {job_id}"),
                },
            ),
        }
    }

    /// Tears a session down: cancels its scope, finishes its jobs, and
    /// unregisters it.
    fn cleanup_session(&self, session: u64) {
        let (jobs, cancel) = {
            let mut state = self.lock_state();
            let Some(pos) = state.sessions.iter().position(|s| s.id == session) else {
                return;
            };
            let slot = state.sessions.remove(pos);
            if state.rr_cursor >= state.sessions.len() {
                state.rr_cursor = 0;
            }
            (slot.queue, slot.cancel)
        };
        cancel.cancel();
        for job in &jobs {
            self.finish_job(job, "cancelled", "session closed");
        }
        self.work_ready.notify_all();
    }

    /// The worker loop: pick, compute, deliver, until shutdown.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let picked = {
                let mut state = self.lock_state();
                loop {
                    if self.shutdown.is_cancelled() {
                        return;
                    }
                    if let Some(p) = state.pick() {
                        break p;
                    }
                    let (guard, _timeout) = self
                        .work_ready
                        .wait_timeout(state, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner);
                    state = guard;
                }
            };
            match picked {
                Picked::Finish(job, status) => self.finish_job(&job, status, ""),
                Picked::Compute(job, index) => {
                    let result = waterfall_point(&job.spec, index);
                    self.deliver(&job, index, result);
                }
            }
        }
    }
}

/// A bound simulation server. [`Server::bind`] starts the worker pool;
/// [`Server::run`] serves connections until a client sends `Shutdown`
/// (or a drain retires its last job), then joins every thread — no
/// orphan threads or sockets survive a clean return.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    reaper_thread: Option<std::thread::JoinHandle<()>>,
    recovery: RecoveryReport,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the worker pool. With a checkpoint directory configured,
    /// first runs the crash-recovery scan ([`Server::recovery`]); with
    /// [`ServerConfig::lease_ms`] set, also starts the lease reaper.
    ///
    /// # Errors
    ///
    /// Socket errors from binding, or filesystem errors creating the
    /// checkpoint directory.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let mut recovery = RecoveryReport::default();
        if let Some(dir) = &config.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
            recovery = recovery_scan(dir);
        }
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, usize::from)
        } else {
            config.workers
        };
        let lease_ms = config.lease_ms;
        let shared = Arc::new(Shared {
            wake: Some(wake),
            ..Shared::new(config)
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        let reaper_thread = lease_ms.map(|ttl_ms| {
            // Sweep a few times per TTL so expiry latency stays a small
            // fraction of the lease itself.
            let tick = Duration::from_millis((ttl_ms / 4).clamp(10, 500));
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.shutdown.is_cancelled() {
                    std::thread::sleep(tick);
                    shared.reap_expired_sessions();
                }
            })
        });
        Ok(Server {
            listener,
            shared,
            workers,
            reaper_thread,
            recovery,
        })
    }

    /// What the startup crash-recovery scan of the checkpoint directory
    /// found (all zeros when no directory is configured).
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Socket errors from the OS.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until shutdown, then joins every
    /// session and worker thread.
    ///
    /// # Errors
    ///
    /// Socket errors from the accept loop.
    pub fn run(self) -> std::io::Result<()> {
        let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.shutdown.is_cancelled() {
            if self.shared.drained() {
                // Graceful drain completed: every in-flight job retired
                // (its checkpoints persisted on the way), so winding the
                // server down loses nothing.
                self.shared.shutdown.cancel();
                break;
            }
            // Blocks until a client connects or `Shared::wake_acceptor`
            // does; either way the loop-top checks run before a session.
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shared.shutdown.is_cancelled() || self.shared.drained() {
                continue;
            }
            // Frames are written whole (`wire::write_frame`), so Nagle
            // would only add the peer's delayed-ACK wait to each reply.
            // Best effort: without the option the session is just slower.
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                self.shared
                    .conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(clone);
            }
            let shared = Arc::clone(&self.shared);
            readers.push(std::thread::spawn(move || session_main(&shared, stream)));
        }
        // Unblock every session reader, then join the house down.
        for conn in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        self.shared.work_ready.notify_all();
        for handle in readers {
            let _ = handle.join();
        }
        for handle in self.workers {
            let _ = handle.join();
        }
        if let Some(handle) = self.reaper_thread {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// One session's reader: handshake, then frame dispatch until the client
/// leaves or the connection dies.
fn session_main(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let reap_handle = stream.try_clone().ok();
    let mut read_half = stream;
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));

    // The first frame must be Hello.
    let (session, lease) = match recv_client(&mut read_half) {
        Ok(wire::ClientMsg::Hello { client: _ }) => {
            let (id, lease) = shared.register_session(Arc::clone(&writer), reap_handle);
            write_msg(
                &writer,
                &ServerMsg::Welcome {
                    session: id,
                    queue_capacity: shared.config.queue_capacity,
                    lease_ms: shared.config.lease_ms,
                },
            );
            (id, lease)
        }
        Ok(_) => {
            write_msg(
                &writer,
                &ServerMsg::Error {
                    detail: "expected hello".to_owned(),
                },
            );
            return;
        }
        Err(_) => return,
    };

    loop {
        let msg = recv_client(&mut read_half);
        if msg.is_ok() {
            // Any frame proves the client is alive — heartbeats carry no
            // payload precisely because arrival alone is the signal.
            lease.touch();
        }
        match msg {
            Ok(wire::ClientMsg::Submit { job }) => shared.submit(session, &job),
            Ok(wire::ClientMsg::Cancel { job }) => shared.cancel_job(session, job),
            Ok(wire::ClientMsg::Heartbeat) => {}
            Ok(wire::ClientMsg::Drain) => shared.begin_drain("drain requested"),
            Ok(wire::ClientMsg::Bye) => break,
            Ok(wire::ClientMsg::Shutdown) => {
                shared.shutdown.cancel();
                shared.wake_acceptor();
                break;
            }
            Ok(wire::ClientMsg::Hello { .. }) => {
                write_msg(
                    &writer,
                    &ServerMsg::Error {
                        detail: "session already open".to_owned(),
                    },
                );
            }
            Err(WireError::Malformed(detail)) => {
                write_msg(&writer, &ServerMsg::Error { detail });
            }
            Err(_) => break, // closed, truncated, oversized, or IO: drop
        }
    }
    shared.cleanup_session(session);
}

fn recv_client(stream: &mut TcpStream) -> Result<wire::ClientMsg, WireError> {
    wire::ClientMsg::from_value(&wire::recv(stream)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofdm_standards::StandardId;

    /// An in-memory writer standing in for a client socket.
    #[derive(Clone, Default)]
    struct MemWriter(Arc<Mutex<Vec<u8>>>);
    impl Write for MemWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn tiny_spec(points: usize) -> WaterfallSpec {
        WaterfallSpec {
            standards: vec![StandardId::Ieee80211a],
            snr_db: vec![10.0],
            realizations: points,
            payload_bits: 64,
            base_seed: 7,
            profile: ofdm_bench::waterfall::ChannelProfile::Awgn,
            threads: 1,
        }
    }

    fn shared_with_sessions(n: usize) -> (Arc<Shared>, Vec<u64>) {
        let shared = Arc::new(Shared::new(ServerConfig {
            queue_capacity: 8,
            ..ServerConfig::default()
        }));
        let ids = (0..n)
            .map(|_| {
                shared
                    .register_session(Arc::new(Mutex::new(Box::new(MemWriter::default()))), None)
                    .0
            })
            .collect();
        (shared, ids)
    }

    fn open_session(shared: &Arc<Shared>, sink: &MemWriter) -> u64 {
        shared
            .register_session(Arc::new(Mutex::new(Box::new(sink.clone()))), None)
            .0
    }

    fn decode_all(sink: &MemWriter) -> Vec<ServerMsg> {
        let bytes = sink
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut cursor = bytes.as_slice();
        let mut msgs = Vec::new();
        while let Ok(v) = wire::recv(&mut cursor) {
            msgs.push(ServerMsg::from_value(&v).expect("msg"));
        }
        msgs
    }

    #[test]
    fn round_robin_pick_interleaves_sessions_point_by_point() {
        // Three sessions with jobs of very different sizes: the pick
        // order must cycle A, B, C, A, B, C... regardless of how much
        // work each session holds, and once the small jobs drain the big
        // one gets every remaining slot.
        let (shared, ids) = shared_with_sessions(3);
        let sizes = [6usize, 2, 3];
        for (sid, &points) in ids.iter().zip(&sizes) {
            shared.submit(
                *sid,
                &JobSpec {
                    spec: tiny_spec(points),
                    deadline_ms: None,
                },
            );
        }
        let mut order = Vec::new();
        loop {
            let picked = { shared.lock_state().pick() };
            match picked {
                Some(Picked::Compute(job, _index)) => order.push(job.session),
                Some(Picked::Finish(..)) => panic!("nothing should finish during dispatch"),
                None => break,
            }
        }
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        assert_eq!(
            order,
            // 3-way alternation while everyone has work (2 full rounds),
            // then A/C alternate, then A drains its surplus alone.
            vec![a, b, c, a, b, c, a, c, a, a, a],
            "fair round-robin at point granularity"
        );
    }

    #[test]
    fn queue_capacity_rejects_with_retry_hint() {
        let shared = Arc::new(Shared::new(ServerConfig {
            queue_capacity: 1,
            retry_after_ms: 123,
            ..ServerConfig::default()
        }));
        let sink = MemWriter::default();
        let sid = open_session(&shared, &sink);
        shared.submit(
            sid,
            &JobSpec {
                spec: tiny_spec(4),
                deadline_ms: None,
            },
        ); // fills the queue
        shared.submit(
            sid,
            &JobSpec {
                spec: tiny_spec(6),
                deadline_ms: None,
            },
        ); // must bounce (a distinct grid, so the label registry is not what rejects it)
        let bytes = sink
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut cursor = bytes.as_slice();
        let first = ServerMsg::from_value(&wire::recv(&mut cursor).expect("frame")).expect("msg");
        assert!(
            matches!(first, ServerMsg::Accepted { points: 4, .. }),
            "{first:?}"
        );
        let second = ServerMsg::from_value(&wire::recv(&mut cursor).expect("frame")).expect("msg");
        match second {
            ServerMsg::Rejected {
                reason,
                retry_after_ms,
            } => {
                assert!(reason.contains("queue full"), "{reason}");
                assert_eq!(retry_after_ms, 123, "backpressure carries the hint");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn empty_grid_is_rejected_permanently() {
        let shared = Arc::new(Shared::new(ServerConfig::default()));
        let sink = MemWriter::default();
        let sid = open_session(&shared, &sink);
        shared.submit(
            sid,
            &JobSpec {
                spec: tiny_spec(0),
                deadline_ms: None,
            },
        );
        let bytes = sink
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let msg =
            ServerMsg::from_value(&wire::recv(&mut bytes.as_slice()).expect("frame")).expect("msg");
        match msg {
            ServerMsg::Rejected { retry_after_ms, .. } => {
                assert_eq!(retry_after_ms, 0, "permanent rejections hint no retry")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn cancelling_a_job_emits_done_and_frees_the_slot() {
        let shared = Arc::new(Shared::new(ServerConfig {
            queue_capacity: 1,
            ..ServerConfig::default()
        }));
        let sink = MemWriter::default();
        let sid = open_session(&shared, &sink);
        shared.submit(
            sid,
            &JobSpec {
                spec: tiny_spec(4),
                deadline_ms: None,
            },
        );
        shared.cancel_job(sid, 1);
        // The slot is free again: a new submit is accepted.
        shared.submit(
            sid,
            &JobSpec {
                spec: tiny_spec(2),
                deadline_ms: None,
            },
        );
        let bytes = sink
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut cursor = bytes.as_slice();
        let mut kinds = Vec::new();
        while let Ok(v) = wire::recv(&mut cursor) {
            kinds.push(ServerMsg::from_value(&v).expect("msg"));
        }
        assert!(matches!(kinds[0], ServerMsg::Accepted { job: 1, .. }));
        assert!(
            matches!(&kinds[1], ServerMsg::Done { job: 1, status, .. } if status == "cancelled")
        );
        assert!(matches!(kinds[2], ServerMsg::Accepted { job: 2, .. }));
    }

    #[test]
    fn assemble_report_matches_in_process_aggregation() {
        let spec = WaterfallSpec {
            standards: vec![StandardId::Ieee80211a, StandardId::Dab],
            snr_db: vec![4.0, 12.0],
            realizations: 2,
            payload_bits: 128,
            base_seed: 99,
            profile: ofdm_bench::waterfall::ChannelProfile::Awgn,
            threads: 2,
        };
        let local = ofdm_bench::waterfall::run_waterfall(&spec, None).expect("local run");
        let results: Vec<(u64, u64)> = (0..spec.point_count())
            .map(|i| waterfall_point(&spec, i).expect("point"))
            .collect();
        let assembled = assemble_report(&spec, &results).expect("full grid");
        assert_eq!(
            ofdm_bench::waterfall::waterfall_json(&spec, &assembled).to_string(),
            ofdm_bench::waterfall::waterfall_json(&spec, &local).to_string(),
            "streamed-and-reassembled results are byte-identical to a local run"
        );
        assert!(assemble_report(&spec, &results[1..]).is_err(), "short grid");
    }

    #[test]
    fn duplicate_label_is_rejected_while_active_and_freed_on_retire() {
        let (shared, ids) = shared_with_sessions(1);
        let other = MemWriter::default();
        let other_sid = open_session(&shared, &other);
        let job = JobSpec {
            spec: tiny_spec(4),
            deadline_ms: None,
        };
        shared.submit(ids[0], &job);
        // The same grid from another session must bounce with a retry
        // hint — the first submission is still running it.
        shared.submit(other_sid, &job);
        let msgs = decode_all(&other);
        match &msgs[0] {
            ServerMsg::Rejected {
                reason,
                retry_after_ms,
            } => {
                assert!(reason.contains("duplicate job"), "{reason}");
                assert!(*retry_after_ms > 0, "duplicates are retryable, not fatal");
            }
            other => panic!("expected duplicate rejection, got {other:?}"),
        }
        // Cancelling the original frees the label; the retry then lands.
        shared.cancel_job(ids[0], 1);
        shared.submit(other_sid, &job);
        let msgs = decode_all(&other);
        assert!(
            matches!(msgs[1], ServerMsg::Accepted { .. }),
            "label freed on retire: {msgs:?}"
        );
    }

    #[test]
    fn draining_refuses_submits_and_reports_drained_when_queues_empty() {
        let (shared, _ids) = shared_with_sessions(1);
        let sink = MemWriter::default();
        let sid = open_session(&shared, &sink);
        assert!(!shared.drained(), "not draining yet");
        shared.begin_drain("test");
        shared.begin_drain("test"); // idempotent
        assert!(shared.drained(), "draining with empty queues is drained");
        shared.submit(
            sid,
            &JobSpec {
                spec: tiny_spec(4),
                deadline_ms: None,
            },
        );
        let msgs = decode_all(&sink);
        // Draining broadcast first, then the permanent rejection.
        assert!(
            matches!(&msgs[0], ServerMsg::Draining { .. }),
            "sessions hear a typed draining frame: {msgs:?}"
        );
        match &msgs[1] {
            ServerMsg::Rejected {
                reason,
                retry_after_ms,
            } => {
                assert!(reason.contains("draining"), "{reason}");
                assert_eq!(*retry_after_ms, 0, "draining rejections are permanent");
            }
            other => panic!("expected draining rejection, got {other:?}"),
        }
    }

    #[test]
    fn drain_waits_for_inflight_jobs_before_reporting_drained() {
        let (shared, ids) = shared_with_sessions(1);
        shared.submit(
            ids[0],
            &JobSpec {
                spec: tiny_spec(2),
                deadline_ms: None,
            },
        );
        shared.begin_drain("test");
        assert!(!shared.drained(), "in-flight job holds the drain open");
        // Drive the job to completion by hand (no worker pool here).
        let job = {
            let state = shared.lock_state();
            Arc::clone(&state.sessions.last().expect("session").queue[0])
        };
        while let Some(i) = job.take_next_index() {
            let r = waterfall_point(&job.spec, i).expect("point");
            shared.deliver(&job, i, Ok(r));
        }
        assert!(shared.drained(), "drain completes once the queue empties");
    }

    #[test]
    fn recovery_scan_classifies_checkpoints_and_cleans_tmp_orphans() {
        let dir = std::env::temp_dir().join(format!("rfsim-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // One real checkpoint, one corrupt file, one orphaned tmp.
        let label = "test-grid";
        let ckpt_path = dir.join("wf-0000000000000001.json");
        let mut ckpt = SweepCheckpoint::load(&ckpt_path, label, 4).expect("fresh");
        ckpt.record(CheckpointEntry {
            index: 0,
            attempts: 1,
            nanos: 0,
            result: (3u64, 64u64).to_checkpoint_value(),
        });
        ckpt.persist().expect("persist");
        std::fs::write(dir.join("wf-bad.json"), "{\"schema\":\"other/v9\"}").expect("write");
        std::fs::write(dir.join("wf-cut.json.tmp"), "{\"sch").expect("write");
        let report = recovery_scan(&dir);
        assert_eq!(
            report,
            RecoveryReport {
                resumable: 1,
                corrupt: 1,
                cleaned_tmp: 1
            },
            "scan classifies every file"
        );
        assert!(
            !dir.join("wf-cut.json.tmp").exists(),
            "tmp orphans are removed"
        );
        assert!(
            dir.join("wf-bad.json").exists(),
            "corrupt checkpoints stay for loud submit-time failure"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reaper_severs_expired_sessions_and_frees_their_labels() {
        let shared = Arc::new(Shared::new(ServerConfig {
            queue_capacity: 8,
            lease_ms: Some(30),
            ..ServerConfig::default()
        }));
        let sink = MemWriter::default();
        let sid = open_session(&shared, &sink);
        shared.submit(
            sid,
            &JobSpec {
                spec: tiny_spec(4),
                deadline_ms: None,
            },
        );
        assert_eq!(shared.reap_expired_sessions(), 0, "fresh lease survives");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(shared.reap_expired_sessions(), 1, "expired lease reaped");
        // The session scope is cancelled, which cancels its job's token;
        // the normal teardown path then retires it. Here (no reader
        // thread) drive it via the scheduler like a worker would.
        let picked = shared.lock_state().pick();
        match picked {
            Some(Picked::Finish(job, status)) => {
                assert_eq!(status, "cancelled");
                shared.finish_job(&job, status, "lease expired");
            }
            other => panic!(
                "expected the reaped session's job to surface as Finish, got {:?}",
                other.is_some()
            ),
        }
        assert!(
            shared.lock_labels().is_empty(),
            "reaped session's labels are reclaimed"
        );
    }

    #[test]
    fn accepted_sockets_are_no_delay_and_shutdown_wakes_the_accept() {
        // An unspecified bind address still yields a connectable wake-up.
        let server = Server::bind(
            "0.0.0.0:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let port = server.local_addr().expect("addr").port();
        let wake = server.shared.wake.expect("a listener has a wake address");
        assert_eq!(wake, SocketAddr::from((Ipv4Addr::LOCALHOST, port)));
        let shared = Arc::clone(&server.shared);
        let handle = std::thread::spawn(move || server.run());

        let client = crate::Client::connect(&wake.to_string(), "nodelay").expect("connect");
        {
            // Welcome arrived, so the session's socket is registered.
            let conns = shared.conns.lock().expect("conns");
            assert_eq!(conns.len(), 1);
            assert!(conns[0].nodelay().expect("nodelay"));
        }
        client.shutdown_server().expect("shutdown");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "run() stayed asleep in accept() after shutdown"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join().expect("server thread").expect("clean");
    }
}
