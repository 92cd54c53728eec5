//! `service_grid`: the service use over real sockets. Spawns the release
//! `rfsim-server` with two workers; two client threads, one connection
//! each, loop closed: submit a small AWGN job, tail it to completion.
//! Points are small, so the wire and the scheduling layers dominate.

use crate::trace::{append, Span, Tracer};
use crate::{
    loopback_check, min_ops, nanos, p50, peak_rss_mb, time_setups, warmup_for, Check, Config,
    OpRecord, Outcome, Phase,
};
use ofdm_bench::lab::workloads::sibling_binary;
use ofdm_bench::waterfall::{
    run_waterfall, waterfall_json, waterfall_point, ChannelProfile, WaterfallSpec,
};
use ofdm_server::{Client, JobOutcome, JobSpec, SubmitOutcome, WireError};
use ofdm_standards::{default_params, StandardId};
use rfsim::scenario_seed;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const STANDARDS: [StandardId; 2] = [StandardId::Ieee80211a, StandardId::Ieee80216a];
const SNR_DB: [f64; 3] = [2.0, 8.0, 14.0];
const REALIZATIONS: usize = 4;
const PAYLOAD_BITS: usize = 256;
/// Client threads, one connection each.
const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// In-process recomputations of one job for `service.compute_ms`.
const COMPUTE_REPEATS: usize = 5;

fn job(base_seed: u64) -> JobSpec {
    JobSpec {
        spec: WaterfallSpec {
            standards: STANDARDS.to_vec(),
            snr_db: SNR_DB.to_vec(),
            realizations: REALIZATIONS,
            payload_bits: PAYLOAD_BITS,
            base_seed,
            profile: ChannelProfile::Awgn,
            threads: 0,
        },
        deadline_ms: None,
    }
}

/// The spawned server and the benchmark's connections to it. Dropping
/// it stops the server and waits for the process to end.
struct Session {
    child: Child,
    exited: bool,
    clients: Vec<Client>,
}

impl Session {
    fn start(bin: &Path, port_file: &Path) -> Result<Session, String> {
        let _ = std::fs::remove_file(port_file);
        let child = Command::new(bin)
            .args(["--workers", &WORKERS.to_string(), "--addr", "127.0.0.1:0"])
            .arg("--port-file")
            .arg(port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut session = Session {
            child,
            exited: false,
            clients: Vec::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if !text.trim().is_empty() {
                    break text.trim().to_owned();
                }
            }
            if Instant::now() > deadline {
                return Err("rfsim-server never wrote its port file".to_owned());
            }
            if let Ok(Some(status)) = session.child.try_wait() {
                session.exited = true;
                return Err(format!("rfsim-server exited early: {status}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        for c in 0..CLIENTS {
            let client = Client::connect(&addr, &format!("rfsim-bench-{c}"))
                .map_err(|e| format!("connect {addr}: {e}"))?;
            session.clients.push(client);
        }
        Ok(session)
    }

    /// Ends every session, asks the server to shut down and waits up to
    /// 30 s for it to exit, killing it after that.
    fn stop(&mut self) -> Result<ExitStatus, String> {
        let mut clients = std::mem::take(&mut self.clients);
        let last = clients.pop();
        for client in clients {
            let _ = client.bye();
        }
        if let Some(client) = last {
            let _ = client.shutdown_server();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.exited = true;
                    return Ok(status);
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("rfsim-server did not exit within 30 s".to_owned()),
                Err(e) => return Err(format!("wait on rfsim-server: {e}")),
            }
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.exited && self.stop().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One completed job of the timed phase; times are nanoseconds since
/// the run origin.
struct TimedJob {
    op: u64,
    traced: bool,
    start_ns: u64,
    end_ns: u64,
}

/// What one client thread saw.
struct ClientLog {
    ops: Vec<OpRecord>,
    timed: Vec<TimedJob>,
    first: Option<(JobSpec, JobOutcome)>,
    last: Option<(JobSpec, JobOutcome)>,
    rejected: u64,
    spans: Vec<Span>,
}

/// Submits `job` and tails it to its end; `Ok(Err(retry_after_ms))` is a
/// refusal.
fn run_job(
    client: &mut Client,
    job: &JobSpec,
    tracer: Option<&mut Tracer>,
) -> Result<Result<JobOutcome, u64>, WireError> {
    let Some(t) = tracer else {
        return match client.submit(job)? {
            SubmitOutcome::Accepted { job: id, .. } => client.tail_job(id).map(Ok),
            SubmitOutcome::Rejected { retry_after_ms, .. } => Ok(Err(retry_after_ms)),
        };
    };
    t.span("service.job", "", |t| {
        match t.span("service.submit", "", |_| client.submit(job))? {
            SubmitOutcome::Accepted { job: id, .. } => {
                t.span("service.tail", "", |_| client.tail_job(id)).map(Ok)
            }
            SubmitOutcome::Rejected { retry_after_ms, .. } => Ok(Err(retry_after_ms)),
        }
    })
}

struct Schedule {
    origin: Instant,
    warmup_end: Instant,
    end: Instant,
}

fn client_loop(
    c: usize,
    client: &mut Client,
    cfg: &Config,
    schedule: &Schedule,
    next_job: &AtomicU64,
) -> Result<ClientLog, String> {
    let mut log = ClientLog {
        ops: Vec::new(),
        timed: Vec::new(),
        first: None,
        last: None,
        rejected: 0,
        spans: Vec::new(),
    };
    let mut tracer = Tracer::new(schedule.origin);
    let (mut warm, mut timed) = (0u64, 0u64);
    loop {
        let now = Instant::now();
        let phase = if now < schedule.warmup_end || warm < min_ops(cfg) {
            Phase::Warmup
        } else if now < schedule.end || timed < min_ops(cfg) {
            Phase::Timed
        } else {
            break;
        };
        // Jobs are numbered across both clients; with tracing on, each
        // client alternates untraced and traced jobs.
        let k = next_job.fetch_add(1, Ordering::Relaxed);
        let spec = job(scenario_seed(cfg.seed, k as usize));
        let traced = cfg.trace && (warm + timed) % 2 == 1;
        tracer.set_op(k);
        let start = nanos(schedule.origin.elapsed());
        let result = run_job(client, &spec, traced.then_some(&mut tracer))
            .map_err(|e| format!("client {c} job {k}: {e}"))?;
        let end = nanos(schedule.origin.elapsed());
        let ok = match result {
            Ok(outcome) => {
                let complete = outcome.status == "complete"
                    && outcome.results.len() == spec.spec.point_count();
                if log.first.is_none() {
                    log.first = Some((spec.clone(), outcome.clone()));
                }
                log.last = Some((spec, outcome));
                complete
            }
            Err(retry_after_ms) => {
                log.rejected += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                false
            }
        };
        match phase {
            Phase::Warmup => warm += 1,
            Phase::Timed => {
                timed += 1;
                if ok {
                    log.timed.push(TimedJob {
                        op: k,
                        traced,
                        start_ns: start,
                        end_ns: end,
                    });
                }
            }
        }
        log.ops.push(OpRecord {
            phase,
            op: k,
            kind: "job",
            tag: "",
            traced,
            ns: end - start,
            ok,
        });
    }
    tracer.drain_into(&mut log.spans);
    Ok(log)
}

/// The streamed job's `waterfall/v1` document against an in-process run.
fn matches_local(spec: &JobSpec, outcome: &JobOutcome) -> Result<bool, String> {
    let streamed = waterfall_json(&spec.spec, &outcome.report(&spec.spec)?).to_string();
    let local = waterfall_json(&spec.spec, &run_waterfall(&spec.spec, None)?).to_string();
    Ok(streamed == local)
}

/// Set-up: the server up and both clients connected, and a loopback
/// check per standard of the job.
fn setup(cfg: &Config) -> Result<(Session, Vec<Check>), String> {
    let bin = sibling_binary("rfsim-server")?;
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let session = Session::start(&bin, &cfg.out.join("port"))?;
    let checks = STANDARDS
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            loopback_check(
                id.key(),
                &default_params(id),
                PAYLOAD_BITS,
                scenario_seed(cfg.seed, 1000 + i),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((session, checks))
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    // The clients' loops own the main thread's time here, so the set-ups
    // are timed back to back before them.
    let setup_s = if cfg.trace {
        f64::NAN
    } else {
        time_setups(|| setup(cfg))?
    };
    let (mut session, checks) = setup(cfg)?;
    let mut out = Outcome {
        checks,
        ..Outcome::default()
    };

    let timed_len = Duration::from_secs_f64(cfg.seconds);
    let origin = Instant::now();
    let schedule = Schedule {
        origin,
        warmup_end: origin + warmup_for(timed_len),
        end: origin + warmup_for(timed_len) + timed_len,
    };
    let next_job = AtomicU64::new(0);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (schedule, next_job) = (&schedule, &next_job);
                scope.spawn(move || client_loop(c, client, cfg, schedule, next_job))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_owned())?
            })
            .collect()
    });
    let peak_rss = peak_rss_mb(session.child.id())?;

    let mut jobs: Vec<TimedJob> = Vec::new();
    let mut rejected = 0u64;
    for (c, log) in logs.into_iter().enumerate() {
        let mut log = log?;
        for (which, entry) in [("first", &log.first), ("last", &log.last)] {
            if let Some((spec, outcome)) = entry {
                out.checks.push(Check::new(
                    format!("client {c} {which} job matches the in-process run"),
                    matches_local(spec, outcome)?,
                    format!("job {} {}", outcome.job, outcome.status),
                ));
            }
        }
        out.ops.append(&mut log.ops);
        jobs.append(&mut log.timed);
        rejected += log.rejected;
        append(&mut out.spans, log.spans);
    }
    let status = session.stop()?;
    out.checks.push(Check::new(
        "rfsim-server shuts down cleanly",
        status.success(),
        status.to_string(),
    ));

    let job_ms = |traced: bool| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.traced == traced)
            .map(|j| (j.end_ns - j.start_ns) as f64 / 1e6)
            .collect()
    };
    let untraced = job_ms(false);
    if cfg.trace {
        let traced = job_ms(true);
        let timed_ops: BTreeSet<u64> = jobs.iter().map(|j| j.op).collect();
        let span_ms = |name: &str| -> Vec<f64> {
            out.spans
                .iter()
                .filter(|s| s.name == name && timed_ops.contains(&s.op))
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect()
        };
        let (submit, tail) = (span_ms("service.submit"), span_ms("service.tail"));
        let mut compute = Vec::with_capacity(COMPUTE_REPEATS);
        for r in 0..COMPUTE_REPEATS {
            let spec = job(scenario_seed(cfg.seed, 1_000_000 + r)).spec;
            let started = Instant::now();
            for i in 0..spec.point_count() {
                std::hint::black_box(waterfall_point(&spec, i)?);
            }
            compute.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let compute_ms = p50(&compute);
        let all: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
        out.metric("trace_overhead", p50(&untraced) / p50(&traced), "ratio");
        out.metric("service.submit_rtt_ms_p50", p50(&submit), "ms");
        out.metric("service.tail_ms_p50", p50(&tail), "ms");
        out.metric("service.compute_ms", compute_ms, "ms");
        out.metric(
            "service.overhead_ms_p50",
            p50(&all) - compute_ms / WORKERS as f64,
            "ms",
        );
        out.metric("service.rejected", rejected as f64, "count");
    } else {
        let points = job(0).spec.point_count() as f64;
        let start = jobs.iter().map(|j| j.start_ns).min().unwrap_or(0);
        let end = jobs.iter().map(|j| j.end_ns).max().unwrap_or(0);
        out.metric(
            "throughput",
            points * jobs.len() as f64 / ((end - start) as f64 / 1e9),
            "items/s",
        );
        out.metric("op_ms_p50", p50(&untraced), "ms");
        out.op_ms = untraced;
        out.metric("peak_rss_mb", peak_rss, "MiB");
        out.metric("setup_s", setup_s, "s");
    }
    Ok(out)
}
