//! A wire-level fault-injection proxy for chaos-testing the service.
//!
//! [`ChaosProxy`] sits between a client and `rfsim-server`, forwarding
//! frames while injecting *seeded, deterministic* transport faults — the
//! transport-layer sibling of [`rfsim::fault`]'s seeded impairment
//! injectors. It is frame-aware (it reassembles each length-prefixed
//! frame before deciding its fate) so every fault lands at a precise,
//! reproducible point:
//!
//! - **Reset** — both sockets are torn down before the frame is
//!   forwarded: the peer sees a cut at a frame boundary.
//! - **Torn frame** — the length prefix and *half* the payload are
//!   forwarded, then both sockets are torn down: the peer sees
//!   [`WireError::Truncated`] mid-payload.
//! - **Delay** — the frame is held for a configured duration before
//!   forwarding (tail-latency and heartbeat-pressure testing).
//! - **Shredded writes** — the frame is forwarded one byte per `write`
//!   call with a flush after each, the worst legal TCP fragmentation.
//!
//! Each pump direction of each connection derives its own RNG from
//! [`ChaosConfig::seed`], so equal seeds produce equal fault schedules
//! against equal traffic. [`ChaosConfig::max_faults`] caps the total
//! faults injected across the proxy's lifetime, guaranteeing that a
//! retrying client eventually gets a clean connection — which is what
//! lets chaos tests demand byte-identical completion rather than mere
//! survival.
//!
//! [`WireError::Truncated`]: crate::wire::WireError::Truncated

use crate::wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// SplitMix64 — the seed-spreading permutation used to derive
/// per-connection RNG streams and deterministic backoff jitter.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What the proxy injects and how often. Rates are per-frame
/// probabilities in `[0, 1]`, rolled in a fixed order (reset, tear,
/// delay, shred) so the RNG stream — and therefore the fault schedule —
/// is identical for identical seeds and traffic.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the per-connection fault RNGs.
    pub seed: u64,
    /// Per-frame probability of a connection reset before forwarding.
    pub reset_rate: f64,
    /// Per-frame probability of forwarding a torn (half) frame and then
    /// resetting.
    pub tear_rate: f64,
    /// Per-frame probability of delaying the frame by [`ChaosConfig::delay`].
    pub delay_rate: f64,
    /// How long a delayed frame is held.
    pub delay: Duration,
    /// Per-frame probability of forwarding in one-byte writes.
    pub shred_rate: f64,
    /// Total faults the proxy may inject over its lifetime; once spent,
    /// every frame is forwarded cleanly. `u32::MAX` = unbounded.
    pub max_faults: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            reset_rate: 0.0,
            tear_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(5),
            shred_rate: 0.0,
            max_faults: u32::MAX,
        }
    }
}

/// A snapshot of what the proxy has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Client connections accepted and bridged upstream.
    pub connections: u64,
    /// Frames read off either side (whether forwarded cleanly or not).
    pub frames: u64,
    /// Connections reset before a frame was forwarded.
    pub reset: u64,
    /// Frames forwarded half-way and then cut.
    pub torn: u64,
    /// Frames held for the configured delay.
    pub delayed: u64,
    /// Frames forwarded one byte per write.
    pub shredded: u64,
}

impl ChaosStats {
    /// Total faults injected (resets + tears + delays + shreds).
    pub fn faults(&self) -> u64 {
        self.reset + self.torn + self.delayed + self.shredded
    }
}

struct ProxyInner {
    stop: AtomicBool,
    faults_left: AtomicU32,
    connections: AtomicU64,
    frames: AtomicU64,
    reset: AtomicU64,
    torn: AtomicU64,
    delayed: AtomicU64,
    shredded: AtomicU64,
    /// Clones of every bridged socket, for teardown at [`ChaosProxy::stop`].
    socks: Mutex<Vec<TcpStream>>,
    pumps: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ProxyInner {
    /// Consumes one unit of fault budget; `false` once exhausted.
    fn take_fault(&self) -> bool {
        self.faults_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// A running fault-injection proxy. Listens on an ephemeral local port
/// and bridges every accepted connection to the configured upstream.
pub struct ChaosProxy {
    addr: SocketAddr,
    inner: Arc<ProxyInner>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:0` and starts bridging connections to `upstream`
    /// under `config`'s fault regime.
    ///
    /// # Errors
    ///
    /// Socket errors from binding the listen address.
    pub fn start(upstream: &str, config: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ProxyInner {
            stop: AtomicBool::new(false),
            faults_left: AtomicU32::new(config.max_faults),
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            reset: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            shredded: AtomicU64::new(0),
            socks: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            let upstream = upstream.to_owned();
            std::thread::spawn(move || accept_loop(&listener, &upstream, &config, &inner))
        };
        Ok(ChaosProxy {
            addr,
            inner,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address — point the client here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What the proxy has injected so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.inner.connections.load(Ordering::SeqCst),
            frames: self.inner.frames.load(Ordering::SeqCst),
            reset: self.inner.reset.load(Ordering::SeqCst),
            torn: self.inner.torn.load(Ordering::SeqCst),
            delayed: self.inner.delayed.load(Ordering::SeqCst),
            shredded: self.inner.shredded.load(Ordering::SeqCst),
        }
    }

    /// Stops accepting, tears down every bridged connection, and joins
    /// all pump threads. Returns the final stats.
    pub fn stop(mut self) -> ChaosStats {
        self.wind_down();
        self.stats()
    }

    fn wind_down(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for sock in self
            .inner
            .socks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let _ = sock.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let pumps = std::mem::take(
            &mut *self
                .inner
                .pumps
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for handle in pumps {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.wind_down();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: &str,
    config: &ChaosConfig,
    inner: &Arc<ProxyInner>,
) {
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _peer)) => {
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue; // upstream down: drop the client on the floor
                };
                // The proxy forwards whole frames; on either leg, Nagle
                // would hold each one for the peer's delayed ACK.
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let conn = inner.connections.fetch_add(1, Ordering::SeqCst);
                {
                    let mut socks = inner.socks.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Ok(c) = client.try_clone() {
                        socks.push(c);
                    }
                    if let Ok(s) = server.try_clone() {
                        socks.push(s);
                    }
                }
                let mut handles = Vec::with_capacity(2);
                for dir in 0..2u64 {
                    let (Ok(src), Ok(dst)) = (client.try_clone(), server.try_clone()) else {
                        continue;
                    };
                    // dir 0: client → server; dir 1: server → client.
                    let (src, dst) = if dir == 0 { (src, dst) } else { (dst, src) };
                    let rng = StdRng::seed_from_u64(splitmix64(
                        config.seed ^ (conn << 1 | dir).wrapping_mul(0xA24B_AED4_963E_E407),
                    ));
                    let config = config.clone();
                    let inner = Arc::clone(inner);
                    handles.push(std::thread::spawn(move || {
                        pump(src, dst, rng, &config, &inner);
                    }));
                }
                inner
                    .pumps
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(handles);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Forwards frames from `src` to `dst`, rolling the fault dice once per
/// frame per fault kind (fixed order keeps the RNG stream stable). Ends
/// by shutting both sockets so the sibling pump unblocks too.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    mut rng: StdRng,
    cfg: &ChaosConfig,
    inner: &ProxyInner,
) {
    while let Ok(payload) = wire::read_frame(&mut src) {
        inner.frames.fetch_add(1, Ordering::SeqCst);
        // Roll every fault kind unconditionally: the draw sequence must
        // not depend on which faults have budget left.
        let roll_reset = rng.gen_range(0.0..1.0);
        let roll_tear = rng.gen_range(0.0..1.0);
        let roll_delay = rng.gen_range(0.0..1.0);
        let roll_shred = rng.gen_range(0.0..1.0);
        if roll_reset < cfg.reset_rate && inner.take_fault() {
            inner.reset.fetch_add(1, Ordering::SeqCst);
            break;
        }
        // read_frame already enforced MAX_FRAME, so this cannot fail.
        let Ok(frame) = wire::encode_frame(&payload) else {
            break;
        };
        if roll_tear < cfg.tear_rate && inner.take_fault() {
            inner.torn.fetch_add(1, Ordering::SeqCst);
            let _ = dst.write_all(&frame[..4 + payload.len() / 2]);
            let _ = dst.flush();
            break;
        }
        if roll_delay < cfg.delay_rate && inner.take_fault() {
            inner.delayed.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(cfg.delay);
        }
        let forwarded = if roll_shred < cfg.shred_rate && inner.take_fault() {
            inner.shredded.fetch_add(1, Ordering::SeqCst);
            shred(&mut dst, &frame)
        } else {
            dst.write_all(&frame).and_then(|()| dst.flush()).is_ok()
        };
        if !forwarded {
            break;
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// Writes a frame one byte at a time, flushing after each byte.
fn shred(dst: &mut TcpStream, frame: &[u8]) -> bool {
    for &b in frame {
        if dst.write_all(&[b]).and_then(|()| dst.flush()).is_err() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// An echo server good enough to pump frames through: reads frames
    /// and writes each one back unchanged.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            // Serve a bounded number of connections so the thread ends.
            for _ in 0..8 {
                let Ok((mut conn, _)) = listener.accept() else {
                    return;
                };
                while let Ok(frame) = wire::read_frame(&mut conn) {
                    if wire::write_frame(&mut conn, &frame).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn roundtrip(addr: SocketAddr, payload: &[u8]) -> Result<Vec<u8>, wire::WireError> {
        let mut conn = TcpStream::connect(addr).map_err(wire::WireError::Io)?;
        wire::write_frame(&mut conn, payload)?;
        wire::read_frame(&mut conn)
    }

    #[test]
    fn clean_proxy_is_transparent() {
        let (upstream, _server) = echo_server();
        let proxy =
            ChaosProxy::start(&upstream.to_string(), ChaosConfig::default()).expect("start");
        let addr = proxy.addr();
        for n in 0..3u8 {
            let msg = vec![n; 64 + usize::from(n)];
            assert_eq!(roundtrip(addr, &msg).expect("echo"), msg);
        }
        let stats = proxy.stop();
        assert_eq!(stats.connections, 3);
        assert_eq!(stats.faults(), 0, "no faults configured, none injected");
        assert!(stats.frames >= 6, "both directions counted: {stats:?}");
    }

    #[test]
    fn both_proxy_legs_are_no_delay() {
        let (upstream, _server) = echo_server();
        let proxy =
            ChaosProxy::start(&upstream.to_string(), ChaosConfig::default()).expect("start");
        assert_eq!(roundtrip(proxy.addr(), b"ping").expect("echo"), b"ping");
        {
            let socks = proxy.inner.socks.lock().expect("socks");
            assert_eq!(socks.len(), 2, "client leg and upstream leg");
            for sock in socks.iter() {
                assert!(sock.nodelay().expect("nodelay"), "{sock:?}");
            }
        }
        proxy.stop();
    }

    #[test]
    fn reset_faults_cut_connections_then_budget_exhausts() {
        let (upstream, _server) = echo_server();
        let proxy = ChaosProxy::start(
            &upstream.to_string(),
            ChaosConfig {
                reset_rate: 1.0,
                max_faults: 2,
                ..ChaosConfig::default()
            },
        )
        .expect("start");
        let addr = proxy.addr();
        // First two connections die mid-exchange (typed errors, never a
        // hang); once the budget is spent, traffic flows cleanly.
        let mut failures = 0;
        let mut clean = 0;
        for _ in 0..4 {
            match roundtrip(addr, b"ping") {
                Ok(echo) => {
                    assert_eq!(echo, b"ping");
                    clean += 1;
                }
                Err(
                    wire::WireError::Closed
                    | wire::WireError::Truncated { .. }
                    | wire::WireError::Io(_),
                ) => failures += 1,
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
        assert_eq!(failures, 2, "exactly the budgeted faults fired");
        assert_eq!(clean, 2, "post-budget traffic is clean");
        let stats = proxy.stop();
        assert_eq!(stats.reset, 2);
    }

    #[test]
    fn torn_frames_truncate_mid_payload() {
        let (upstream, _server) = echo_server();
        let proxy = ChaosProxy::start(
            &upstream.to_string(),
            ChaosConfig {
                tear_rate: 1.0,
                max_faults: 1,
                ..ChaosConfig::default()
            },
        )
        .expect("start");
        let addr = proxy.addr();
        // The client's outbound frame is torn on its way to the echo
        // server: the server sees Truncated mid-payload and hangs up, so
        // the client's read ends with a typed transport error.
        let mut conn = TcpStream::connect(addr).expect("connect");
        wire::write_frame(&mut conn, &[7u8; 100]).expect("send");
        let mut sink = Vec::new();
        let n = conn.read_to_end(&mut sink);
        assert!(
            n.map(|bytes| bytes < 104).unwrap_or(true),
            "the echo never arrives whole"
        );
        let stats = proxy.stop();
        assert_eq!(stats.torn, 1);
    }

    #[test]
    fn shredded_and_delayed_frames_still_arrive_intact() {
        let (upstream, _server) = echo_server();
        let proxy = ChaosProxy::start(
            &upstream.to_string(),
            ChaosConfig {
                shred_rate: 1.0,
                delay_rate: 1.0,
                delay: Duration::from_millis(2),
                ..ChaosConfig::default()
            },
        )
        .expect("start");
        let addr = proxy.addr();
        let msg = vec![0xAB; 257];
        assert_eq!(
            roundtrip(addr, &msg).expect("reassembles"),
            msg,
            "shredding and delaying corrupt nothing"
        );
        let stats = proxy.stop();
        assert!(stats.shredded >= 1 && stats.delayed >= 1, "{stats:?}");
    }

    #[test]
    fn equal_seeds_produce_equal_fault_schedules() {
        let run = |seed: u64| -> Vec<bool> {
            let (upstream, _server) = echo_server();
            let proxy = ChaosProxy::start(
                &upstream.to_string(),
                ChaosConfig {
                    seed,
                    reset_rate: 0.5,
                    ..ChaosConfig::default()
                },
            )
            .expect("start");
            let addr = proxy.addr();
            let outcomes = (0..6)
                .map(|_| roundtrip(addr, b"deterministic?").is_ok())
                .collect();
            proxy.stop();
            outcomes
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(
            run(42),
            run(43),
            "different seeds explore different schedules (with 2^-12 flake odds)"
        );
    }

    #[test]
    fn splitmix_spreads_and_is_pure() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
        let spread: std::collections::HashSet<u64> = (0..64).map(splitmix64).collect();
        assert_eq!(spread.len(), 64, "no collisions on small inputs");
    }
}
