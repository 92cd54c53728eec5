//! A blocking client for the simulation server: submits jobs, rides out
//! backpressure and transport faults, and tails streamed results back
//! into a [`WaterfallReport`].
//!
//! Two layers of resilience live here:
//!
//! - **Leases** — when the server's `Welcome` carries a lease TTL, the
//!   client arms a read timeout at a third of it and lets the stateful
//!   [`wire::FrameReader`] ride the timeouts: every time a read comes up
//!   empty it sends a [`ClientMsg::Heartbeat`] and resumes decoding
//!   exactly where it left off, so long waits for results never let the
//!   lease lapse.
//! - **Recovery** — [`run_job_with_recovery`] reconnects and resubmits
//!   through transport faults under [`BackoffPolicy`]'s capped
//!   exponential backoff with deterministic jitter. Resubmits are safe
//!   because the grid's `checkpoint_label` is an idempotency key on the
//!   server: a still-running duplicate is bounced with a retry hint and
//!   a checkpointed one restores instead of recomputing — a retry can
//!   never double-run a grid.

use crate::chaos::splitmix64;
use crate::server::assemble_report;
use crate::wire::{self, ClientMsg, FrameReader, JobSpec, ServerMsg, WireError};
use ofdm_bench::waterfall::{WaterfallReport, WaterfallSpec};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::Duration;

/// The server's answer to a submit.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Queued; results will stream under this job id.
    Accepted {
        /// Server-assigned job id.
        job: u64,
        /// Grid points the job decomposes into.
        points: usize,
    },
    /// Refused. A zero `retry_after_ms` marks the refusal permanent
    /// (invalid grid, corrupt checkpoint); nonzero is backpressure.
    Rejected {
        /// Why.
        reason: String,
        /// Backpressure hint in milliseconds (0 = don't retry).
        retry_after_ms: u64,
    },
}

/// Everything a finished (or abandoned) job streamed back.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job id.
    pub job: u64,
    /// Terminal status: `"complete"`, `"cancelled"`, `"deadline"`, or
    /// `"failed"`.
    pub status: String,
    /// Points the server actually computed (excludes checkpoint
    /// restores).
    pub computed: usize,
    /// Failure detail when status is `"failed"`, else empty.
    pub detail: String,
    /// Per-point `(errors, bits)` tallies, in grid-index order. The
    /// protocol streams each job's results as a strictly contiguous
    /// prefix, so `results[i]` is grid point `i`; the vector covers the
    /// whole grid exactly when the status is `"complete"`.
    pub results: Vec<(u64, u64)>,
}

impl JobOutcome {
    /// Re-aggregates the streamed tallies into the report an in-process
    /// run would produce.
    ///
    /// # Errors
    ///
    /// A message if the job did not complete (partial grids have no
    /// honest report).
    pub fn report(&self, spec: &WaterfallSpec) -> Result<WaterfallReport, String> {
        if self.status != "complete" {
            return Err(format!("job {} ended {}", self.job, self.status));
        }
        assemble_report(spec, &self.results)
    }
}

/// A connected session.
pub struct Client {
    stream: TcpStream,
    session: u64,
    /// The session lease TTL granted by the server's `Welcome`, if any.
    lease_ms: Option<u64>,
    /// When the client last sent a heartbeat; beats are due every third
    /// of the TTL regardless of how busy the inbound stream is (inbound
    /// results prove the *server* alive, not this client).
    last_beat: std::time::Instant,
    /// Stateful frame decoder, so heartbeat ticks (read timeouts) never
    /// lose partially received frames.
    reader: FrameReader,
    /// Frames read while looking for something else, served first by
    /// [`Client::next_msg`].
    pending: VecDeque<ServerMsg>,
}

impl Client {
    /// Connects and performs the hello handshake. A `Welcome` carrying a
    /// lease TTL arms the heartbeat machinery: reads time out at a third
    /// of the TTL and each timeout sends a heartbeat frame.
    ///
    /// # Errors
    ///
    /// Socket errors, or a protocol error if the server's first frame is
    /// not `Welcome`.
    pub fn connect(addr: &str, name: &str) -> Result<Client, WireError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        wire::send(
            &mut stream,
            &ClientMsg::Hello {
                client: name.to_owned(),
            }
            .to_value(),
        )?;
        match ServerMsg::from_value(&wire::recv(&mut stream)?)? {
            ServerMsg::Welcome {
                session, lease_ms, ..
            } => {
                if let Some(ttl) = lease_ms {
                    stream
                        .set_read_timeout(Some(Duration::from_millis((ttl / 3).max(5))))
                        .map_err(WireError::Io)?;
                }
                Ok(Client {
                    stream,
                    session,
                    lease_ms,
                    last_beat: std::time::Instant::now(),
                    reader: FrameReader::new(),
                    pending: VecDeque::new(),
                })
            }
            other => Err(WireError::Malformed(format!(
                "expected welcome, got {other:?}"
            ))),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The lease TTL the server granted, if leases are on.
    pub fn lease_ms(&self) -> Option<u64> {
        self.lease_ms
    }

    /// Sends a standalone heartbeat frame, refreshing the lease.
    ///
    /// # Errors
    ///
    /// Transport errors from sending the frame.
    pub fn heartbeat(&mut self) -> Result<(), WireError> {
        self.last_beat = std::time::Instant::now();
        wire::send(&mut self.stream, &ClientMsg::Heartbeat.to_value())
    }

    /// The heartbeat cadence: a third of the lease TTL.
    fn beat_every(&self) -> Option<Duration> {
        self.lease_ms
            .map(|ttl| Duration::from_millis((ttl / 3).max(5)))
    }

    /// Sends a heartbeat if one is due under the lease cadence.
    fn beat_if_due(&mut self) -> Result<(), WireError> {
        if let Some(every) = self.beat_every() {
            if self.last_beat.elapsed() >= every {
                self.heartbeat()?;
            }
        }
        Ok(())
    }

    /// Sleeps `ms` milliseconds without letting the lease lapse: with a
    /// lease, the sleep is chunked and heartbeats are sent between
    /// chunks. Used while riding out backpressure hints.
    fn sleep_keeping_lease(&mut self, ms: u64) {
        match self.beat_every() {
            None => std::thread::sleep(Duration::from_millis(ms)),
            Some(every) => {
                let chunk = u64::try_from(every.as_millis()).unwrap_or(u64::MAX).max(1);
                let mut left = ms;
                while left > 0 {
                    let step = left.min(chunk);
                    std::thread::sleep(Duration::from_millis(step));
                    let _ = self.beat_if_due();
                    left -= step;
                }
            }
        }
    }

    /// Reads the next frame off the socket, heartbeating on the lease
    /// cadence whether the stream is idle (read timeouts) or busy (a
    /// flood of inbound results proves nothing about *this* end).
    fn recv_fresh(&mut self) -> Result<ServerMsg, WireError> {
        loop {
            self.beat_if_due()?;
            match self.reader.poll(&mut self.stream)? {
                Some(payload) => return ServerMsg::from_value(&wire::parse_payload(&payload)?),
                // Read timed out mid-wait; the partial frame is retained
                // and the next iteration's beat check covers liveness.
                // Without a lease there is no cadence to wait for, so
                // beat once per tick to keep the old behavior visible.
                None => {
                    if self.lease_ms.is_none() {
                        self.heartbeat()?;
                    }
                }
            }
        }
    }

    /// The next server frame — buffered frames first, then the socket.
    ///
    /// # Errors
    ///
    /// Transport errors from the wire codec.
    pub fn next_msg(&mut self) -> Result<ServerMsg, WireError> {
        if let Some(msg) = self.pending.pop_front() {
            return Ok(msg);
        }
        self.recv_fresh()
    }

    /// Submits a job and waits for the server's verdict. Result frames
    /// of other in-flight jobs seen along the way are buffered, not
    /// dropped.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Malformed`] if the server
    /// complains about the frame.
    pub fn submit(&mut self, job: &JobSpec) -> Result<SubmitOutcome, WireError> {
        wire::send(
            &mut self.stream,
            &ClientMsg::Submit { job: job.clone() }.to_value(),
        )?;
        loop {
            // Read from the socket directly: the verdict is always a
            // fresh frame, never an already-buffered one.
            match self.recv_fresh()? {
                ServerMsg::Accepted { job, points } => {
                    return Ok(SubmitOutcome::Accepted { job, points })
                }
                ServerMsg::Rejected {
                    reason,
                    retry_after_ms,
                } => {
                    return Ok(SubmitOutcome::Rejected {
                        reason,
                        retry_after_ms,
                    })
                }
                ServerMsg::Error { detail } => return Err(WireError::Malformed(detail)),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Submits, sleeping through up to `max_attempts` backpressure
    /// rejections (honoring each `retry_after_ms` hint).
    ///
    /// # Errors
    ///
    /// Transport errors; [`WireError::Malformed`] carrying the reason
    /// for permanent rejections or exhausted retries.
    pub fn submit_with_retry(
        &mut self,
        job: &JobSpec,
        max_attempts: usize,
    ) -> Result<(u64, usize), WireError> {
        let mut last_reason = String::new();
        for _ in 0..max_attempts.max(1) {
            match self.submit(job)? {
                SubmitOutcome::Accepted { job, points } => return Ok((job, points)),
                SubmitOutcome::Rejected {
                    reason,
                    retry_after_ms,
                } => {
                    if retry_after_ms == 0 {
                        return Err(WireError::Malformed(format!("rejected: {reason}")));
                    }
                    last_reason = reason;
                    self.sleep_keeping_lease(retry_after_ms);
                }
            }
        }
        Err(WireError::Malformed(format!(
            "rejected after retries: {last_reason}"
        )))
    }

    /// Tails one job's stream until its `Done` frame. Frames belonging
    /// to other jobs are re-buffered in arrival order.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`WireError::Malformed`] if the server
    /// violates the in-order streaming contract.
    pub fn tail_job(&mut self, job_id: u64) -> Result<JobOutcome, WireError> {
        let mut results: Vec<(u64, u64)> = Vec::new();
        let mut stash: VecDeque<ServerMsg> = VecDeque::new();
        let outcome = loop {
            let msg = self.next_msg()?;
            match msg {
                ServerMsg::Result {
                    job,
                    index,
                    errors,
                    bits,
                } if job == job_id => {
                    if index != results.len() {
                        return Err(WireError::Malformed(format!(
                            "job {job_id}: result {index} arrived, expected {}",
                            results.len()
                        )));
                    }
                    results.push((errors, bits));
                }
                ServerMsg::Telemetry { job, .. } if job == job_id => {}
                ServerMsg::Done {
                    job,
                    status,
                    computed,
                    detail,
                } if job == job_id => {
                    break JobOutcome {
                        job: job_id,
                        status,
                        computed,
                        detail,
                        results,
                    };
                }
                other => stash.push_back(other),
            }
        };
        // Everything that wasn't ours goes back, order preserved.
        while let Some(msg) = stash.pop_back() {
            self.pending.push_front(msg);
        }
        Ok(outcome)
    }

    /// Submits (riding out backpressure) and tails the job to its end.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::submit_with_retry`] and
    /// [`Client::tail_job`] failures.
    pub fn run_job(&mut self, job: &JobSpec) -> Result<JobOutcome, WireError> {
        let (id, _points) = self.submit_with_retry(job, 100)?;
        self.tail_job(id)
    }

    /// Asks the server to cancel one of this session's jobs.
    ///
    /// # Errors
    ///
    /// Transport errors from sending the frame.
    pub fn cancel(&mut self, job: u64) -> Result<(), WireError> {
        wire::send(&mut self.stream, &ClientMsg::Cancel { job }.to_value())
    }

    /// Asks the server to drain gracefully and waits for the typed
    /// `Draining` acknowledgement; returns its detail line. Frames of
    /// in-flight jobs seen along the way are buffered, not dropped.
    ///
    /// # Errors
    ///
    /// Transport errors from the wire codec.
    pub fn drain(&mut self) -> Result<String, WireError> {
        wire::send(&mut self.stream, &ClientMsg::Drain.to_value())?;
        loop {
            match self.recv_fresh()? {
                ServerMsg::Draining { detail } => return Ok(detail),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Ends the session cleanly.
    ///
    /// # Errors
    ///
    /// Transport errors from sending the frame.
    pub fn bye(mut self) -> Result<(), WireError> {
        wire::send(&mut self.stream, &ClientMsg::Bye.to_value())
    }

    /// Asks the server to shut down entirely.
    ///
    /// # Errors
    ///
    /// Transport errors from sending the frame.
    pub fn shutdown_server(mut self) -> Result<(), WireError> {
        wire::send(&mut self.stream, &ClientMsg::Shutdown.to_value())
    }
}

/// Capped exponential backoff with deterministic jitter for
/// [`run_job_with_recovery`]. Attempt `n` sleeps between half and all of
/// `min(base_ms << n, cap_ms)`; the jittered half comes from
/// [`splitmix64`] over `(seed, n)`, so a given policy replays the exact
/// same schedule — chaos tests stay reproducible end to end.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// First retry's nominal delay in milliseconds.
    pub base_ms: u64,
    /// Ceiling on the nominal delay.
    pub cap_ms: u64,
    /// Connection/submission attempts before giving up (minimum 1).
    pub max_attempts: u32,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 25,
            cap_ms: 1_000,
            max_attempts: 8,
            seed: 1,
        }
    }
}

impl BackoffPolicy {
    /// The delay before retry attempt `attempt` (0-based), in ms.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let nominal = self
            .base_ms
            .max(1)
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap_ms.max(1));
        let jitter = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let half = nominal / 2;
        half + jitter % (nominal - half + 1)
    }
}

/// True for errors worth a reconnect: the transport died (or timed out)
/// without the server ruling on the job. Protocol-level rulings —
/// permanent rejections, malformed traffic — are final.
fn is_transient(e: &WireError) -> bool {
    matches!(
        e,
        WireError::Closed
            | WireError::Truncated { .. }
            | WireError::Io(_)
            | WireError::Oversized { .. }
    )
}

/// Runs a job to completion through transport faults: connect, submit,
/// tail; on a transport error, back off per `policy` and start over with
/// a fresh connection. Safe to retry because submits are idempotent on
/// the server (keyed by the grid's `checkpoint_label`): an accepted
/// duplicate is impossible and checkpointed progress restores rather
/// than recomputing, so the merged result is byte-identical to an
/// uninterrupted run.
///
/// # Errors
///
/// The last transport error once attempts are exhausted, or the first
/// non-transient error (permanent rejection, protocol violation).
pub fn run_job_with_recovery(
    addr: &str,
    name: &str,
    job: &JobSpec,
    policy: &BackoffPolicy,
) -> Result<JobOutcome, WireError> {
    let mut last = WireError::Closed;
    for attempt in 0..policy.max_attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(policy.delay_ms(attempt - 1)));
        }
        let mut client = match Client::connect(addr, name) {
            Ok(c) => c,
            Err(e) if is_transient(&e) => {
                last = e;
                continue;
            }
            Err(e) => return Err(e),
        };
        match client.run_job(job) {
            Ok(outcome) => {
                let _ = client.bye();
                return Ok(outcome);
            }
            Err(e) if is_transient(&e) => {
                last = e;
            }
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_at_least_half_nominal() {
        let policy = BackoffPolicy {
            base_ms: 10,
            cap_ms: 80,
            max_attempts: 8,
            seed: 99,
        };
        let a: Vec<u64> = (0..8).map(|n| policy.delay_ms(n)).collect();
        let b: Vec<u64> = (0..8).map(|n| policy.delay_ms(n)).collect();
        assert_eq!(a, b, "same policy, same schedule");
        for (n, &d) in a.iter().enumerate() {
            let nominal = (10u64 << n).min(80);
            assert!(
                d >= nominal / 2 && d <= nominal,
                "attempt {n}: {d} outside [{}, {nominal}]",
                nominal / 2
            );
        }
        let other = BackoffPolicy {
            seed: 100,
            ..policy
        };
        let c: Vec<u64> = (0..8).map(|n| other.delay_ms(n)).collect();
        assert_ne!(a, c, "different seeds jitter differently");
    }

    #[test]
    fn connected_socket_is_no_delay() {
        let server = crate::Server::bind(
            "127.0.0.1:0",
            crate::ServerConfig {
                workers: 1,
                ..crate::ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || server.run());
        let client = Client::connect(&addr, "nodelay").expect("connect");
        assert!(client.stream.nodelay().expect("nodelay"));
        client.shutdown_server().expect("shutdown");
        handle.join().expect("server thread").expect("clean");
    }

    #[test]
    fn transient_errors_are_exactly_the_transport_ones() {
        assert!(is_transient(&WireError::Closed));
        assert!(is_transient(&WireError::Truncated { read: 3 }));
        assert!(is_transient(&WireError::Oversized { len: 9, cap: 4 }));
        assert!(is_transient(&WireError::Io(std::io::Error::other("x"))));
        assert!(
            !is_transient(&WireError::Malformed("rejected: bad grid".into())),
            "protocol rulings are final"
        );
    }
}
