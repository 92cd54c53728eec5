//! Chaos coverage for the rfsim service: crash recovery across a real
//! `kill -9`, every fault kind of the wire-level chaos proxy, session
//! lease reaping, and graceful drain.
//!
//! The contract under test is the acceptance bar of the chaos layer:
//! every injected fault ends in either a *completed, byte-identical*
//! `waterfall.json` or a *typed client error* — never a hang, a panic,
//! or a silently wrong document.

use ofdm_bench::waterfall::{run_waterfall, waterfall_json, ChannelProfile, WaterfallSpec};
use ofdm_server::chaos::{ChaosConfig, ChaosProxy};
use ofdm_server::client::{run_job_with_recovery, BackoffPolicy};
use ofdm_server::wire::{self, ClientMsg, JobSpec, ServerMsg};
use ofdm_server::{assemble_report, Client, Server, ServerConfig, SubmitOutcome};
use ofdm_standards::StandardId;
use std::net::TcpStream;
use std::time::Duration;

fn spec(standard: StandardId, realizations: usize, payload_bits: usize) -> WaterfallSpec {
    WaterfallSpec {
        standards: vec![standard],
        snr_db: vec![4.0, 10.0],
        realizations,
        payload_bits,
        base_seed: 0xC0A5 ^ standard as u64,
        profile: ChannelProfile::Awgn,
        threads: 1,
    }
}

fn job(spec: WaterfallSpec) -> JobSpec {
    JobSpec {
        spec,
        deadline_ms: None,
    }
}

fn local_doc(spec: &WaterfallSpec) -> String {
    let local = run_waterfall(spec, None).expect("local run");
    waterfall_json(spec, &local).to_string()
}

/// Binds a server on an ephemeral port and runs it on a background
/// thread; returns the address and the join handle.
fn start(config: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Joins the server thread, failing instead of hanging if it has not
/// exited within `limit` (a missed accept wake-up shows up here).
fn join_within(
    server: std::thread::JoinHandle<std::io::Result<()>>,
    limit: Duration,
) -> std::io::Result<()> {
    let deadline = std::time::Instant::now() + limit;
    while !server.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "server still running {limit:?} after it was told to stop"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.join().expect("server thread")
}

/// Runs `job` through a chaos proxy under `config` with the resilient
/// client and asserts the result is byte-identical to a local run.
/// Returns the proxy's final stats.
fn run_through_chaos(config: ChaosConfig, sweep: &JobSpec) -> ofdm_server::ChaosStats {
    let (addr, server) = start(ServerConfig::default());
    let proxy = ChaosProxy::start(&addr, config).expect("proxy");
    let policy = BackoffPolicy {
        base_ms: 5,
        cap_ms: 50,
        max_attempts: 24,
        seed: 7,
    };
    let outcome = run_job_with_recovery(&proxy.addr().to_string(), "chaos-client", sweep, &policy)
        .expect("the fault budget guarantees an eventually-clean run");
    assert_eq!(outcome.status, "complete");
    let served =
        waterfall_json(&sweep.spec, &outcome.report(&sweep.spec).expect("report")).to_string();
    assert_eq!(
        served,
        local_doc(&sweep.spec),
        "results that crossed a faulty wire must be byte-identical to a local run"
    );
    let stats = proxy.stop();
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    join_within(server, Duration::from_secs(10)).expect("clean");
    stats
}

#[test]
fn torn_frames_end_in_byte_identical_completion() {
    let stats = run_through_chaos(
        ChaosConfig {
            seed: 11,
            tear_rate: 1.0,
            max_faults: 3,
            ..ChaosConfig::default()
        },
        &job(spec(StandardId::Dab, 3, 192)),
    );
    assert_eq!(stats.torn, 3, "every budgeted tear fired: {stats:?}");
}

#[test]
fn connection_resets_end_in_byte_identical_completion() {
    let stats = run_through_chaos(
        ChaosConfig {
            seed: 12,
            reset_rate: 1.0,
            max_faults: 3,
            ..ChaosConfig::default()
        },
        &job(spec(StandardId::Ieee80211a, 3, 192)),
    );
    assert_eq!(stats.reset, 3, "every budgeted reset fired: {stats:?}");
}

#[test]
fn delays_and_partial_writes_never_corrupt_the_stream() {
    // Delays and one-byte writes are non-fatal: a single connection
    // survives the whole job, just slowly and in fragments.
    let stats = run_through_chaos(
        ChaosConfig {
            seed: 13,
            delay_rate: 0.5,
            delay: Duration::from_millis(2),
            shred_rate: 0.5,
            ..ChaosConfig::default()
        },
        &job(spec(StandardId::HomePlug10, 3, 192)),
    );
    assert!(
        stats.delayed > 0 && stats.shredded > 0,
        "both fault kinds exercised: {stats:?}"
    );
}

#[test]
fn mixed_fault_soup_still_converges_byte_identically() {
    let stats = run_through_chaos(
        ChaosConfig {
            seed: 14,
            tear_rate: 0.2,
            reset_rate: 0.2,
            delay_rate: 0.2,
            delay: Duration::from_millis(2),
            shred_rate: 0.2,
            max_faults: 12,
        },
        &job(spec(StandardId::Drm, 3, 192)),
    );
    assert!(stats.faults() > 0, "the soup injected something: {stats:?}");
}

#[test]
fn a_plain_client_sees_typed_errors_not_hangs_under_chaos() {
    // Without the resilient wrapper, a lethal proxy must surface as a
    // typed transport error from connect/submit/tail — never a hang or
    // a silently wrong document.
    let (addr, server) = start(ServerConfig::default());
    let proxy = ChaosProxy::start(
        &addr,
        ChaosConfig {
            seed: 15,
            reset_rate: 1.0,
            ..ChaosConfig::default()
        },
    )
    .expect("proxy");
    let sweep = job(spec(StandardId::Dab, 2, 128));
    let err = Client::connect(&proxy.addr().to_string(), "fragile")
        .and_then(|mut c| c.run_job(&sweep))
        .expect_err("an always-reset wire cannot complete a job");
    assert!(
        matches!(
            err,
            wire::WireError::Closed | wire::WireError::Truncated { .. } | wire::WireError::Io(_)
        ),
        "typed transport error, got: {err}"
    );
    proxy.stop();
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    join_within(server, Duration::from_secs(10)).expect("clean");
}

#[test]
fn heartbeats_keep_a_leased_session_alive_through_a_long_tail() {
    let (addr, server) = start(ServerConfig {
        lease_ms: Some(120),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr, "steady").expect("connect");
    assert_eq!(client.lease_ms(), Some(120), "welcome carries the lease");
    // The tail outlives several lease windows; only the client's
    // timeout-driven heartbeats keep the session from being reaped.
    let sweep = job(spec(StandardId::Ieee80211a, 8, 1024));
    let outcome = client.run_job(&sweep).expect("job survives its lease");
    // Bye before the (slow, silent) local reference run: an idle leased
    // session that stops beating is reaped, by design.
    client.bye().expect("bye");
    assert_eq!(outcome.status, "complete");
    assert_eq!(
        waterfall_json(&sweep.spec, &outcome.report(&sweep.spec).expect("report")).to_string(),
        local_doc(&sweep.spec),
        "heartbeat traffic must not perturb results"
    );
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    join_within(server, Duration::from_secs(10)).expect("clean");
}

#[test]
fn a_dead_clients_session_is_reaped_and_its_grid_becomes_submittable() {
    let (addr, server) = start(ServerConfig {
        lease_ms: Some(150),
        ..ServerConfig::default()
    });
    let sweep = job(spec(StandardId::Vdsl, 16, 2048));

    // A "client" that dies without closing its socket: raw hello +
    // submit, then eternal silence — no heartbeats, no close.
    let mut zombie = TcpStream::connect(&addr).expect("connect");
    wire::send(
        &mut zombie,
        &ClientMsg::Hello {
            client: "zombie".to_owned(),
        }
        .to_value(),
    )
    .expect("hello");
    let welcome = ServerMsg::from_value(&wire::recv(&mut zombie).expect("frame")).expect("msg");
    assert!(
        matches!(
            welcome,
            ServerMsg::Welcome {
                lease_ms: Some(150),
                ..
            }
        ),
        "leases are advertised: {welcome:?}"
    );
    wire::send(
        &mut zombie,
        &ClientMsg::Submit { job: sweep.clone() }.to_value(),
    )
    .expect("submit");

    // While the zombie holds the grid, an identical submit elsewhere is
    // a duplicate (idempotency: the grid cannot run twice at once).
    let mut live = Client::connect(&addr, "live").expect("connect");
    match live.submit(&sweep).expect("verdict") {
        SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert!(reason.contains("duplicate job"), "{reason}");
            assert!(retry_after_ms > 0, "duplicates are retryable");
        }
        other => panic!("the zombie still owns the grid, got {other:?}"),
    }

    // The reaper cancels the silent session after its TTL; retrying
    // eventually claims the freed grid and completes byte-identically —
    // queue capacity and idempotency slot both reclaimed.
    let (id, _points) = live
        .submit_with_retry(&sweep, 200)
        .expect("grid freed by the reaper");

    // The zombie's socket was severed server-side: draining whatever
    // frames were in flight ends in EOF/reset, not a read timeout.
    // (Probed before the tail — the probe itself sends nothing, and the
    // live session's own lease must not lapse while we wait.)
    zombie
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("probe timeout");
    let err = loop {
        match wire::recv(&mut zombie) {
            Ok(_) => {} // accepted/result/done frames already in flight
            Err(e) => break e,
        }
    };
    let timed_out = matches!(
        &err,
        wire::WireError::Io(e) if e.kind() == std::io::ErrorKind::WouldBlock
            || e.kind() == std::io::ErrorKind::TimedOut
    );
    assert!(
        !timed_out,
        "the reaped session's socket must be shut down, got: {err}"
    );

    // Bye promptly: a leased session is reaped if it goes silent, and
    // the local reference run below takes longer than the TTL.
    let outcome = live.tail_job(id).expect("tail");
    live.bye().expect("bye");
    assert_eq!(outcome.status, "complete");
    assert_eq!(
        waterfall_json(&sweep.spec, &outcome.report(&sweep.spec).expect("report")).to_string(),
        local_doc(&sweep.spec),
        "the reclaimed grid's results are byte-identical to a local run"
    );
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    join_within(server, Duration::from_secs(10)).expect("clean");
}

#[test]
fn drain_finishes_inflight_jobs_notifies_sessions_and_exits_cleanly() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // A bystander session, open before the drain, must hear it too.
    let mut bystander = Client::connect(&addr, "bystander").expect("connect");

    // The submit, the drain request and the rejection probe leave in one
    // write over one raw session, so the session reader handles all
    // three before the single worker can finish even one grid point of
    // the heavy job: the job is in flight when the drain lands, on any
    // host speed.
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    wire::send(
        &mut raw,
        &ClientMsg::Hello {
            client: "drainer".into(),
        }
        .to_value(),
    )
    .expect("hello");
    let welcome = ServerMsg::from_value(&wire::recv(&mut raw).expect("welcome")).expect("typed");
    assert!(matches!(welcome, ServerMsg::Welcome { .. }), "{welcome:?}");
    let sweep = job(spec(StandardId::Vdsl, 16, 4096));
    let mut batch = Vec::new();
    for msg in [
        ClientMsg::Submit { job: sweep.clone() },
        ClientMsg::Drain,
        ClientMsg::Submit {
            job: job(spec(StandardId::Dab, 2, 128)),
        },
    ] {
        wire::send(&mut batch, &msg.to_value()).expect("encode");
    }
    std::io::Write::write_all(&mut raw, &batch).expect("one write");

    let mut next = || ServerMsg::from_value(&wire::recv(&mut raw).expect("frame")).expect("typed");
    // Frames from the session reader keep their order, and results only
    // follow an accept: the first reply is the heavy submit's verdict.
    let id = match next() {
        ServerMsg::Accepted { job, points } => {
            assert_eq!(points, sweep.spec.point_count());
            job
        }
        other => panic!("the heavy job must be accepted, got {other:?}"),
    };
    let mut drain_detail = None;
    let mut probe = None;
    let mut results = Vec::new();
    let status = loop {
        match next() {
            ServerMsg::Draining { detail } => drain_detail = Some(detail),
            ServerMsg::Rejected {
                reason,
                retry_after_ms,
            } => probe = Some((reason, retry_after_ms)),
            ServerMsg::Result {
                job,
                index,
                errors,
                bits,
            } => {
                assert_eq!(job, id, "results belong to the accepted job");
                assert_eq!(index, results.len(), "results stream in grid order");
                results.push((errors, bits));
            }
            ServerMsg::Telemetry { .. } => {}
            ServerMsg::Done { job, status, .. } => {
                assert_eq!(job, id, "only the accepted job finishes");
                break status;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    };

    // The drain ack is typed.
    let detail = drain_detail.expect("the drainer hears its own drain");
    assert!(!detail.is_empty(), "draining frame carries a detail line");

    // New work is refused permanently while draining.
    let (reason, retry_after_ms) = probe.expect("draining server must refuse submits");
    assert!(reason.contains("draining"), "{reason}");
    assert_eq!(retry_after_ms, 0, "draining rejections are permanent");

    // The in-flight job still runs to a byte-identical completion.
    assert_eq!(status, "complete", "drain finishes in-flight work");
    assert_eq!(
        waterfall_json(
            &sweep.spec,
            &assemble_report(&sweep.spec, &results).expect("report")
        )
        .to_string(),
        local_doc(&sweep.spec),
        "a drain must not perturb in-flight results"
    );
    // The other session heard the typed draining broadcast too.
    let heard = bystander.next_msg().expect("buffered frame");
    assert!(
        matches!(heard, ServerMsg::Draining { .. }),
        "every session hears the broadcast, got {heard:?}"
    );

    drop(bystander);
    drop(raw);
    // No shutdown frame is ever sent: the drain alone winds the server
    // down once the last job retires.
    join_within(server, Duration::from_secs(10)).expect("drain exits cleanly");
}

/// Kill -9 the server mid-grid, restart it over the same checkpoint
/// directory, resubmit, and demand a byte-identical document with a
/// restored (not recomputed) prefix — tentpole part 1, end to end
/// against the real binary.
#[test]
fn kill_dash_nine_restart_resubmit_is_byte_identical() {
    let scratch = std::env::temp_dir().join(format!("rfsim-chaos-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("mkdir");
    let ckpt_dir = scratch.join("checkpoints");

    let spawn_server = |port_file: &std::path::Path| -> std::process::Child {
        std::process::Command::new(env!("CARGO_BIN_EXE_rfsim-server"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--checkpoint-dir",
                ckpt_dir.to_str().expect("utf8"),
                "--port-file",
                port_file.to_str().expect("utf8"),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn rfsim-server")
    };
    let wait_for_port = |port_file: &std::path::Path| -> String {
        for _ in 0..400 {
            if let Ok(addr) = std::fs::read_to_string(port_file) {
                if !addr.is_empty() {
                    return addr;
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("server never wrote its port file");
    };

    let port_a = scratch.join("port-a");
    let mut child = spawn_server(&port_a);
    let addr = wait_for_port(&port_a);

    let sweep = job(spec(StandardId::Ieee80211a, 24, 1024));
    let total = sweep.spec.point_count();

    // Submit and let enough points land that at least one checkpoint
    // batch (8 records) has been persisted, then SIGKILL mid-grid.
    let mut client = Client::connect(&addr, "doomed").expect("connect");
    let (_id, points) = client.submit_with_retry(&sweep, 10).expect("accepted");
    assert_eq!(points, total);
    let mut seen = 0;
    while seen < 10 {
        if let ServerMsg::Result { .. } = client.next_msg().expect("stream") {
            seen += 1;
        }
    }
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // The half-dead connection surfaces as a typed transport error.
    let err = loop {
        match client.next_msg() {
            Ok(_) => {} // frames already in flight may still drain
            Err(e) => break e,
        }
    };
    assert!(
        matches!(
            err,
            wire::WireError::Closed | wire::WireError::Truncated { .. } | wire::WireError::Io(_)
        ),
        "typed transport error after the kill, got: {err}"
    );

    // Restart over the same checkpoint directory and resubmit the
    // identical grid: the persisted prefix restores, the tail computes,
    // and the document is byte-identical to an uninterrupted local run.
    let port_b = scratch.join("port-b");
    let mut child = spawn_server(&port_b);
    let addr = wait_for_port(&port_b);
    let mut client = Client::connect(&addr, "resumer").expect("reconnect");
    let outcome = client.run_job(&sweep).expect("resubmit completes");
    assert_eq!(outcome.status, "complete");
    assert_eq!(outcome.results.len(), total);
    assert!(
        outcome.computed < total,
        "the checkpointed prefix ({} of {total} points missing) must restore, not recompute",
        total - outcome.computed
    );
    assert_eq!(
        waterfall_json(&sweep.spec, &outcome.report(&sweep.spec).expect("report")).to_string(),
        local_doc(&sweep.spec),
        "kill -9 + restart + resubmit must be byte-identical to an uninterrupted run"
    );
    client.bye().expect("bye");
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    child.wait().expect("server exits");
    let _ = std::fs::remove_dir_all(&scratch);
}
