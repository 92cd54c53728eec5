//! The wire protocol: length-prefixed JSON frames and the typed message
//! vocabulary spoken between `rfsim-cli` and `rfsim-server`.
//!
//! # Framing
//!
//! Every message is one frame: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Frames longer than
//! [`MAX_FRAME`] are rejected before allocation — a malformed or
//! malicious peer cannot make the receiver reserve gigabytes. A clean
//! close at a frame boundary reads as [`WireError::Closed`]; EOF inside
//! a frame is [`WireError::Truncated`].
//!
//! # Messages
//!
//! JSON objects tagged by a `"type"` member. Numbers ride as JSON
//! numbers (shortest-roundtrip `f64` rendering, parsed back exactly);
//! the one 64-bit field that may exceed `f64`'s 53-bit integer range —
//! the sweep's `base_seed` — rides as a decimal string.

use ofdm_bench::waterfall::{ChannelProfile, WaterfallSpec};
use ofdm_standards::StandardId;
use serde::json::{self, Value};
use std::io::{Read, Write};

/// Hard ceiling on a frame's payload length in bytes (1 MiB). Far above
/// any real message — a submit for a thousand-point grid is under 1 KiB
/// — and far below anything that could pressure the receiver.
pub const MAX_FRAME: u32 = 1 << 20;

/// A transport- or protocol-level failure.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// The connection died mid-frame; `read` counts the bytes of the
    /// partial frame (length prefix included) consumed before EOF, so a
    /// log line tells a header cut from a torn payload.
    Truncated {
        /// Bytes of the unfinished frame read before the stream ended.
        read: usize,
    },
    /// A frame declared a payload longer than the cap.
    Oversized {
        /// The declared payload length.
        len: u32,
        /// The enforced ceiling ([`MAX_FRAME`]).
        cap: u32,
    },
    /// An underlying socket error.
    Io(std::io::Error),
    /// The frame's payload was not a message we understand.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { read } => {
                write!(f, "connection died mid-frame after {read} bytes")
            }
            WireError::Oversized { len, cap } => {
                write!(f, "frame of {len} bytes exceeds the {cap}-byte limit")
            }
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Malformed(detail) => write!(f, "malformed message: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Encodes one frame into a single buffer: 4-byte big-endian length,
/// then the payload.
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload exceeds [`MAX_FRAME`].
pub(crate) fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::Oversized {
        len: u32::MAX,
        cap: MAX_FRAME,
    })?;
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            cap: MAX_FRAME,
        });
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one frame: 4-byte big-endian length, then the payload, in a
/// single `write_all`. Writing prefix and payload separately would hand
/// the kernel two small segments per frame, and on a socket without
/// `TCP_NODELAY` the second waits out the peer's delayed ACK.
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload exceeds [`MAX_FRAME`];
/// otherwise socket errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    w.write_all(&encode_frame(payload)?)?;
    w.flush()?;
    Ok(())
}

/// An incremental frame decoder that survives read timeouts.
///
/// [`FrameReader::poll`] pulls bytes until a whole frame is assembled,
/// retaining partial state across calls: a `WouldBlock`/`TimedOut` read
/// error returns `Ok(None)` *without losing the bytes already consumed*,
/// so a client may use a socket read timeout as a heartbeat tick and keep
/// decoding afterwards. The blocking [`read_frame`] is a thin wrapper.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_filled: usize,
    payload: Vec<u8>,
    payload_filled: usize,
    in_payload: bool,
}

impl FrameReader {
    /// A reader positioned at a frame boundary.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Bytes of the current partial frame consumed so far (length prefix
    /// included); zero at a frame boundary.
    pub fn partial_bytes(&self) -> usize {
        if self.in_payload {
            4 + self.payload_filled
        } else {
            self.header_filled
        }
    }

    /// Pulls bytes from `r` until a frame completes (`Ok(Some(payload))`)
    /// or the read would block (`Ok(None)`, state retained).
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] on clean EOF at a frame boundary,
    /// [`WireError::Truncated`] (with the partial byte count) on EOF
    /// inside a frame, [`WireError::Oversized`] on a length prefix beyond
    /// [`MAX_FRAME`], and [`WireError::Io`] for other socket errors.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
        while !self.in_payload {
            if self.header_filled == 4 {
                let len = u32::from_be_bytes(self.header);
                if len > MAX_FRAME {
                    return Err(WireError::Oversized {
                        len,
                        cap: MAX_FRAME,
                    });
                }
                self.payload = vec![0u8; len as usize];
                self.payload_filled = 0;
                self.in_payload = true;
                break;
            }
            match r.read(&mut self.header[self.header_filled..]) {
                Ok(0) => {
                    return Err(if self.header_filled == 0 {
                        WireError::Closed
                    } else {
                        WireError::Truncated {
                            read: self.header_filled,
                        }
                    })
                }
                Ok(n) => self.header_filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if would_block(&e) => return Ok(None),
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        while self.payload_filled < self.payload.len() {
            match r.read(&mut self.payload[self.payload_filled..]) {
                Ok(0) => {
                    return Err(WireError::Truncated {
                        read: 4 + self.payload_filled,
                    })
                }
                Ok(n) => self.payload_filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if would_block(&e) => return Ok(None),
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        self.header_filled = 0;
        self.payload_filled = 0;
        self.in_payload = false;
        Ok(Some(std::mem::take(&mut self.payload)))
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one frame's payload, reassembling across however many partial
/// reads the transport delivers.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF at a frame boundary,
/// [`WireError::Truncated`] (carrying the partial byte count) on EOF
/// inside a frame, [`WireError::Oversized`] on a length prefix beyond
/// [`MAX_FRAME`]. A read timeout surfaces as [`WireError::Io`] — use a
/// [`FrameReader`] directly to resume across timeouts.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    match FrameReader::new().poll(r)? {
        Some(payload) => Ok(payload),
        None => Err(WireError::Io(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "read timed out mid-frame",
        ))),
    }
}

/// Serializes a message value and writes it as one frame.
///
/// # Errors
///
/// Propagates [`write_frame`] failures.
pub fn send(w: &mut impl Write, msg: &Value) -> Result<(), WireError> {
    write_frame(w, msg.to_string().as_bytes())
}

/// Parses a frame payload as a JSON message value.
///
/// # Errors
///
/// [`WireError::Malformed`] for payloads that are not UTF-8 JSON.
pub fn parse_payload(payload: &[u8]) -> Result<Value, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| WireError::Malformed("payload is not UTF-8".to_owned()))?;
    json::parse(text).map_err(WireError::Malformed)
}

/// Reads one frame and parses its JSON payload.
///
/// # Errors
///
/// Framing errors from [`read_frame`], or [`WireError::Malformed`] for
/// payloads that are not UTF-8 JSON.
pub fn recv(r: &mut impl Read) -> Result<Value, WireError> {
    parse_payload(&read_frame(r)?)
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::Malformed(format!("missing `{key}`")))
}

fn str_field(v: &Value, key: &str) -> Result<String, WireError> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| WireError::Malformed(format!("`{key}` must be a string")))?
        .to_owned())
}

fn f64_field(v: &Value, key: &str) -> Result<f64, WireError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| WireError::Malformed(format!("`{key}` must be a number")))
}

/// Integers ride as JSON numbers; anything negative, fractional, or past
/// `f64`'s exact-integer range is rejected rather than rounded.
fn u64_field(v: &Value, key: &str) -> Result<u64, WireError> {
    let x = f64_field(v, key)?;
    if x < 0.0 || x.fract() != 0.0 || x >= 9.0e15 {
        return Err(WireError::Malformed(format!(
            "`{key}` must be a non-negative integer, got {x}"
        )));
    }
    Ok(x as u64)
}

fn usize_field(v: &Value, key: &str) -> Result<usize, WireError> {
    usize::try_from(u64_field(v, key)?)
        .map_err(|_| WireError::Malformed(format!("`{key}` out of range")))
}

fn profile_to_value(profile: &ChannelProfile) -> Value {
    match profile {
        ChannelProfile::Awgn => Value::Object(vec![("type".into(), Value::from("awgn"))]),
        ChannelProfile::Rayleigh { paths } => {
            let paths: Vec<Value> = paths
                .iter()
                .map(|&(d, p)| Value::Array(vec![Value::from(d), Value::from(p)]))
                .collect();
            Value::Object(vec![
                ("type".into(), Value::from("rayleigh")),
                ("paths".into(), Value::Array(paths)),
            ])
        }
    }
}

fn profile_from_value(v: &Value) -> Result<ChannelProfile, WireError> {
    match str_field(v, "type")?.as_str() {
        "awgn" => Ok(ChannelProfile::Awgn),
        "rayleigh" => {
            let raw = field(v, "paths")?
                .as_array()
                .ok_or_else(|| WireError::Malformed("`paths` must be an array".to_owned()))?;
            let mut paths = Vec::with_capacity(raw.len());
            for pair in raw {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| WireError::Malformed("each path is `[delay, power]`".into()))?;
                let delay = pair[0]
                    .as_f64()
                    .filter(|d| *d >= 0.0 && d.fract() == 0.0)
                    .ok_or_else(|| WireError::Malformed("path delay must be an integer".into()))?;
                let power = pair[1]
                    .as_f64()
                    .ok_or_else(|| WireError::Malformed("path power must be a number".into()))?;
                paths.push((delay as usize, power));
            }
            Ok(ChannelProfile::Rayleigh { paths })
        }
        other => Err(WireError::Malformed(format!("unknown profile `{other}`"))),
    }
}

/// Encodes a sweep grid for the wire (member order is fixed, so equal
/// specs encode to identical bytes).
pub fn spec_to_value(spec: &WaterfallSpec) -> Value {
    let standards: Vec<Value> = spec
        .standards
        .iter()
        .map(|s| Value::from(s.key()))
        .collect();
    let snr: Vec<Value> = spec.snr_db.iter().map(|&s| Value::from(s)).collect();
    Value::Object(vec![
        ("standards".into(), Value::Array(standards)),
        ("snr_db".into(), Value::Array(snr)),
        ("realizations".into(), Value::from(spec.realizations)),
        ("payload_bits".into(), Value::from(spec.payload_bits)),
        ("base_seed".into(), Value::from(spec.base_seed.to_string())),
        ("profile".into(), profile_to_value(&spec.profile)),
        ("threads".into(), Value::from(spec.threads)),
    ])
}

/// Decodes a sweep grid from its wire form.
///
/// # Errors
///
/// [`WireError::Malformed`] naming the offending member.
pub fn spec_from_value(v: &Value) -> Result<WaterfallSpec, WireError> {
    let raw_standards = field(v, "standards")?
        .as_array()
        .ok_or_else(|| WireError::Malformed("`standards` must be an array".to_owned()))?;
    let mut standards = Vec::with_capacity(raw_standards.len());
    for s in raw_standards {
        let key = s
            .as_str()
            .ok_or_else(|| WireError::Malformed("standard keys are strings".to_owned()))?;
        standards.push(
            StandardId::from_key(key)
                .ok_or_else(|| WireError::Malformed(format!("unknown standard `{key}`")))?,
        );
    }
    let snr_db = field(v, "snr_db")?
        .as_array()
        .ok_or_else(|| WireError::Malformed("`snr_db` must be an array".to_owned()))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| WireError::Malformed("SNR entries are numbers".to_owned()))
        })
        .collect::<Result<Vec<f64>, WireError>>()?;
    let base_seed = str_field(v, "base_seed")?
        .parse::<u64>()
        .map_err(|e| WireError::Malformed(format!("`base_seed`: {e}")))?;
    Ok(WaterfallSpec {
        standards,
        snr_db,
        realizations: usize_field(v, "realizations")?,
        payload_bits: usize_field(v, "payload_bits")?,
        base_seed,
        profile: profile_from_value(field(v, "profile")?)?,
        threads: usize_field(v, "threads")?,
    })
}

/// A unit of work a client submits: the sweep grid plus per-job
/// supervision knobs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The waterfall grid to run.
    pub spec: WaterfallSpec,
    /// Wall-clock budget for the whole job; the server abandons the job
    /// with status `"deadline"` once it expires. `None` = unbounded.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// Encodes the job for the wire.
    pub fn to_value(&self) -> Value {
        let mut members = vec![("spec".into(), spec_to_value(&self.spec))];
        if let Some(ms) = self.deadline_ms {
            members.push(("deadline_ms".into(), Value::from(ms)));
        }
        Value::Object(members)
    }

    /// Decodes a job from its wire form.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] naming the offending member.
    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(_) => Some(u64_field(v, "deadline_ms")?),
        };
        Ok(JobSpec {
            spec: spec_from_value(field(v, "spec")?)?,
            deadline_ms,
        })
    }
}

/// Messages a client sends to the server.
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// Opens the session; `client` is a display name for logs.
    Hello {
        /// Client display name.
        client: String,
    },
    /// Submits a job to this session's queue.
    Submit {
        /// The job to run.
        job: JobSpec,
    },
    /// Cancels one of this session's jobs by server-assigned id.
    Cancel {
        /// The job id from [`ServerMsg::Accepted`].
        job: u64,
    },
    /// Proof of liveness: refreshes this session's lease. Carries no
    /// payload and elicits no reply.
    Heartbeat,
    /// Asks the server to drain: refuse new submits, finish (or
    /// checkpoint) in-flight jobs, then exit cleanly.
    Drain,
    /// Ends the session cleanly (running jobs are cancelled).
    Bye,
    /// Asks the server to shut down entirely.
    Shutdown,
}

impl ClientMsg {
    /// Encodes the message for the wire.
    pub fn to_value(&self) -> Value {
        match self {
            ClientMsg::Hello { client } => Value::Object(vec![
                ("type".into(), Value::from("hello")),
                ("client".into(), Value::from(client.as_str())),
            ]),
            ClientMsg::Submit { job } => Value::Object(vec![
                ("type".into(), Value::from("submit")),
                ("job".into(), job.to_value()),
            ]),
            ClientMsg::Cancel { job } => Value::Object(vec![
                ("type".into(), Value::from("cancel")),
                ("job".into(), Value::from(*job)),
            ]),
            ClientMsg::Heartbeat => Value::Object(vec![("type".into(), Value::from("heartbeat"))]),
            ClientMsg::Drain => Value::Object(vec![("type".into(), Value::from("drain"))]),
            ClientMsg::Bye => Value::Object(vec![("type".into(), Value::from("bye"))]),
            ClientMsg::Shutdown => Value::Object(vec![("type".into(), Value::from("shutdown"))]),
        }
    }

    /// Decodes a message from its wire form.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for unknown tags or bad members.
    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        match str_field(v, "type")?.as_str() {
            "hello" => Ok(ClientMsg::Hello {
                client: str_field(v, "client")?,
            }),
            "submit" => Ok(ClientMsg::Submit {
                job: JobSpec::from_value(field(v, "job")?)?,
            }),
            "cancel" => Ok(ClientMsg::Cancel {
                job: u64_field(v, "job")?,
            }),
            "heartbeat" => Ok(ClientMsg::Heartbeat),
            "drain" => Ok(ClientMsg::Drain),
            "bye" => Ok(ClientMsg::Bye),
            "shutdown" => Ok(ClientMsg::Shutdown),
            other => Err(WireError::Malformed(format!("unknown message `{other}`"))),
        }
    }
}

/// Messages the server streams back to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Session opened.
    Welcome {
        /// Server-assigned session id.
        session: u64,
        /// How many jobs this session may have queued or running at once.
        queue_capacity: usize,
        /// When set, the session lease TTL in milliseconds: the client
        /// must send *some* frame (a [`ClientMsg::Heartbeat`] suffices)
        /// at least this often or be reaped. `None` = no lease.
        lease_ms: Option<u64>,
    },
    /// A submit was queued.
    Accepted {
        /// Server-assigned job id (unique per server run).
        job: u64,
        /// Grid points the job decomposes into.
        points: usize,
    },
    /// A submit was refused; retry after the hinted delay.
    Rejected {
        /// Why (queue full, circuit open, invalid grid).
        reason: String,
        /// Backpressure hint in milliseconds.
        retry_after_ms: u64,
    },
    /// One grid point's tally. Streamed strictly in index order per job.
    Result {
        /// The job this point belongs to.
        job: u64,
        /// Flat grid index (see `WaterfallSpec::decompose`).
        index: usize,
        /// Bit errors at this point.
        errors: u64,
        /// Bits measured at this point.
        bits: u64,
    },
    /// Periodic progress for a running job.
    Telemetry {
        /// The job being reported.
        job: u64,
        /// Points finished so far.
        done: usize,
        /// Total points in the job.
        total: usize,
    },
    /// The job reached a terminal state; no further frames mention it.
    Done {
        /// The finished job.
        job: u64,
        /// `"complete"`, `"cancelled"`, `"deadline"`, or `"failed"`.
        status: String,
        /// Points actually computed (excludes checkpoint restores).
        computed: usize,
        /// Failure detail when status is `"failed"`, else empty.
        detail: String,
    },
    /// The server is draining: it will finish (or checkpoint) in-flight
    /// jobs, refuse new submits, and then exit. Broadcast once to every
    /// live session when a drain begins.
    Draining {
        /// Human-readable drain context.
        detail: String,
    },
    /// A protocol-level complaint about the last client frame.
    Error {
        /// What was wrong.
        detail: String,
    },
}

impl ServerMsg {
    /// Encodes the message for the wire.
    pub fn to_value(&self) -> Value {
        match self {
            ServerMsg::Welcome {
                session,
                queue_capacity,
                lease_ms,
            } => {
                let mut members = vec![
                    ("type".into(), Value::from("welcome")),
                    ("session".into(), Value::from(*session)),
                    ("queue_capacity".into(), Value::from(*queue_capacity)),
                ];
                if let Some(ms) = lease_ms {
                    members.push(("lease_ms".into(), Value::from(*ms)));
                }
                Value::Object(members)
            }
            ServerMsg::Accepted { job, points } => Value::Object(vec![
                ("type".into(), Value::from("accepted")),
                ("job".into(), Value::from(*job)),
                ("points".into(), Value::from(*points)),
            ]),
            ServerMsg::Rejected {
                reason,
                retry_after_ms,
            } => Value::Object(vec![
                ("type".into(), Value::from("rejected")),
                ("reason".into(), Value::from(reason.as_str())),
                ("retry_after_ms".into(), Value::from(*retry_after_ms)),
            ]),
            ServerMsg::Result {
                job,
                index,
                errors,
                bits,
            } => Value::Object(vec![
                ("type".into(), Value::from("result")),
                ("job".into(), Value::from(*job)),
                ("index".into(), Value::from(*index)),
                ("errors".into(), Value::from(*errors)),
                ("bits".into(), Value::from(*bits)),
            ]),
            ServerMsg::Telemetry { job, done, total } => Value::Object(vec![
                ("type".into(), Value::from("telemetry")),
                ("job".into(), Value::from(*job)),
                ("done".into(), Value::from(*done)),
                ("total".into(), Value::from(*total)),
            ]),
            ServerMsg::Done {
                job,
                status,
                computed,
                detail,
            } => Value::Object(vec![
                ("type".into(), Value::from("done")),
                ("job".into(), Value::from(*job)),
                ("status".into(), Value::from(status.as_str())),
                ("computed".into(), Value::from(*computed)),
                ("detail".into(), Value::from(detail.as_str())),
            ]),
            ServerMsg::Draining { detail } => Value::Object(vec![
                ("type".into(), Value::from("draining")),
                ("detail".into(), Value::from(detail.as_str())),
            ]),
            ServerMsg::Error { detail } => Value::Object(vec![
                ("type".into(), Value::from("error")),
                ("detail".into(), Value::from(detail.as_str())),
            ]),
        }
    }

    /// Decodes a message from its wire form.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for unknown tags or bad members.
    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        match str_field(v, "type")?.as_str() {
            "welcome" => Ok(ServerMsg::Welcome {
                session: u64_field(v, "session")?,
                queue_capacity: usize_field(v, "queue_capacity")?,
                lease_ms: match v.get("lease_ms") {
                    None | Some(Value::Null) => None,
                    Some(_) => Some(u64_field(v, "lease_ms")?),
                },
            }),
            "accepted" => Ok(ServerMsg::Accepted {
                job: u64_field(v, "job")?,
                points: usize_field(v, "points")?,
            }),
            "rejected" => Ok(ServerMsg::Rejected {
                reason: str_field(v, "reason")?,
                retry_after_ms: u64_field(v, "retry_after_ms")?,
            }),
            "result" => Ok(ServerMsg::Result {
                job: u64_field(v, "job")?,
                index: usize_field(v, "index")?,
                errors: u64_field(v, "errors")?,
                bits: u64_field(v, "bits")?,
            }),
            "telemetry" => Ok(ServerMsg::Telemetry {
                job: u64_field(v, "job")?,
                done: usize_field(v, "done")?,
                total: usize_field(v, "total")?,
            }),
            "done" => Ok(ServerMsg::Done {
                job: u64_field(v, "job")?,
                status: str_field(v, "status")?,
                computed: usize_field(v, "computed")?,
                detail: str_field(v, "detail")?,
            }),
            "draining" => Ok(ServerMsg::Draining {
                detail: str_field(v, "detail")?,
            }),
            "error" => Ok(ServerMsg::Error {
                detail: str_field(v, "detail")?,
            }),
            other => Err(WireError::Malformed(format!("unknown message `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> WaterfallSpec {
        WaterfallSpec {
            standards: vec![StandardId::Ieee80211a, StandardId::Dab],
            snr_db: vec![2.0, 8.5, 14.25],
            realizations: 2,
            payload_bits: 256,
            base_seed: u64::MAX - 7,
            profile: ChannelProfile::Rayleigh {
                paths: vec![(0, 0.75), (3, 0.25)],
            },
            threads: 0,
        }
    }

    #[test]
    fn spec_roundtrips_including_full_range_seed() {
        let spec = sample_spec();
        let back = spec_from_value(&spec_to_value(&spec)).expect("decodes");
        assert_eq!(back.standards, spec.standards);
        assert_eq!(back.snr_db, spec.snr_db);
        assert_eq!(back.realizations, spec.realizations);
        assert_eq!(back.payload_bits, spec.payload_bits);
        assert_eq!(back.base_seed, spec.base_seed, "64-bit seed survives");
        assert_eq!(back.profile, spec.profile);
        // Re-encoding is byte-stable.
        assert_eq!(
            spec_to_value(&back).to_string(),
            spec_to_value(&spec).to_string()
        );
    }

    #[test]
    fn every_message_roundtrips_through_the_codec() {
        let client_msgs = [
            ClientMsg::Hello {
                client: "bench-1".into(),
            },
            ClientMsg::Submit {
                job: JobSpec {
                    spec: sample_spec(),
                    deadline_ms: Some(30_000),
                },
            },
            ClientMsg::Cancel { job: 17 },
            ClientMsg::Heartbeat,
            ClientMsg::Drain,
            ClientMsg::Bye,
            ClientMsg::Shutdown,
        ];
        for msg in client_msgs {
            let mut buf = Vec::new();
            send(&mut buf, &msg.to_value()).expect("encodes");
            let back =
                ClientMsg::from_value(&recv(&mut buf.as_slice()).expect("frames")).expect("typed");
            assert_eq!(back.to_value().to_string(), msg.to_value().to_string());
        }
        let server_msgs = [
            ServerMsg::Welcome {
                session: 3,
                queue_capacity: 4,
                lease_ms: None,
            },
            ServerMsg::Welcome {
                session: 5,
                queue_capacity: 2,
                lease_ms: Some(1500),
            },
            ServerMsg::Accepted { job: 9, points: 12 },
            ServerMsg::Rejected {
                reason: "queue full".into(),
                retry_after_ms: 250,
            },
            ServerMsg::Result {
                job: 9,
                index: 4,
                errors: 31,
                bits: 512,
            },
            ServerMsg::Telemetry {
                job: 9,
                done: 5,
                total: 12,
            },
            ServerMsg::Done {
                job: 9,
                status: "complete".into(),
                computed: 12,
                detail: String::new(),
            },
            ServerMsg::Draining {
                detail: "server draining".into(),
            },
            ServerMsg::Error {
                detail: "unknown message `nope`".into(),
            },
        ];
        for msg in server_msgs {
            let mut buf = Vec::new();
            send(&mut buf, &msg.to_value()).expect("encodes");
            let back =
                ServerMsg::from_value(&recv(&mut buf.as_slice()).expect("frames")).expect("typed");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn oversized_frames_are_rejected_both_ways_with_observed_length() {
        // Writing: a payload over the cap never touches the stream, and
        // the error names the offending length next to the cap.
        let mut sink = Vec::new();
        let big = vec![b'x'; MAX_FRAME as usize + 1];
        match write_frame(&mut sink, &big) {
            Err(WireError::Oversized { len, cap }) => {
                assert_eq!(len, MAX_FRAME + 1);
                assert_eq!(cap, MAX_FRAME);
            }
            other => panic!("expected oversize, got {other:?}"),
        }
        assert!(sink.is_empty(), "nothing written before the length check");

        // Reading: a hostile length prefix is rejected before allocating,
        // reporting the declared length so logs are actionable.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&(MAX_FRAME + 7).to_be_bytes());
        hostile.extend_from_slice(b"whatever");
        match read_frame(&mut hostile.as_slice()) {
            Err(WireError::Oversized { len, cap }) => {
                assert_eq!(len, MAX_FRAME + 7);
                assert_eq!(cap, MAX_FRAME);
                let text = WireError::Oversized { len, cap }.to_string();
                assert!(
                    text.contains(&len.to_string()) && text.contains(&cap.to_string()),
                    "{text}"
                );
            }
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    /// A reader that delivers one byte per `read` call — the worst
    /// fragmentation TCP can legally produce.
    struct OneByte<R>(R);
    impl<R: Read> Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let take = buf.len().min(1);
            self.0.read(&mut buf[..take])
        }
    }

    #[test]
    fn partial_reads_reassemble_and_truncation_is_distinguished() {
        let msg = ServerMsg::Result {
            job: 1,
            index: 2,
            errors: 3,
            bits: 4,
        };
        let mut buf = Vec::new();
        send(&mut buf, &msg.to_value()).expect("encodes");
        send(
            &mut buf,
            &ServerMsg::Error { detail: "x".into() }.to_value(),
        )
        .expect("encodes");

        // Byte-at-a-time delivery reassembles both frames, then reports a
        // clean close at the boundary.
        let mut slow = OneByte(buf.as_slice());
        let a = ServerMsg::from_value(&recv(&mut slow).expect("first frame")).expect("typed");
        assert_eq!(a, msg);
        assert!(matches!(
            ServerMsg::from_value(&recv(&mut slow).expect("second frame")),
            Ok(ServerMsg::Error { .. })
        ));
        assert!(matches!(recv(&mut slow), Err(WireError::Closed)));

        // A stream cut inside a frame is Truncated, not Closed, and the
        // error counts every byte consumed (4-byte prefix + partial
        // payload) so the cut point is recoverable from logs.
        let cut = &buf[..buf.len() - 3];
        let mut slow = OneByte(cut);
        let first = read_frame(&mut slow).expect("first frame is whole");
        let second_len = buf.len() - (4 + first.len()) - 4; // second frame's payload
        match read_frame(&mut slow) {
            Err(WireError::Truncated { read }) => {
                assert_eq!(read, 4 + (second_len - 3), "prefix + partial payload")
            }
            other => panic!("expected truncation, got {other:?}"),
        }

        // A stream cut inside the *length prefix* is Truncated too, with
        // a sub-header byte count — today's most common torn-frame shape.
        for cut_at in 1..4usize {
            let mut header_cut = &buf[..cut_at];
            match read_frame(&mut header_cut) {
                Err(WireError::Truncated { read }) => assert_eq!(read, cut_at),
                other => panic!("cut at {cut_at}: expected truncation, got {other:?}"),
            }
        }
    }

    /// A reader that yields one byte, then a `WouldBlock` timeout, then
    /// the next byte — the worst interleaving a heartbeat-timeout socket
    /// can produce.
    struct TimeoutEveryOther<R> {
        inner: R,
        block_next: bool,
    }
    impl<R: Read> Read for TimeoutEveryOther<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.block_next = !self.block_next;
            if self.block_next {
                let take = buf.len().min(1);
                self.inner.read(&mut buf[..take])
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "simulated timeout",
                ))
            }
        }
    }

    #[test]
    fn frame_reader_resumes_across_timeouts_without_losing_bytes() {
        let msg = ServerMsg::Telemetry {
            job: 3,
            done: 7,
            total: 9,
        };
        let mut buf = Vec::new();
        send(&mut buf, &msg.to_value()).expect("encodes");
        let total = buf.len();
        let mut src = TimeoutEveryOther {
            inner: buf.as_slice(),
            block_next: false,
        };
        let mut reader = FrameReader::new();
        let mut timeouts = 0usize;
        let payload = loop {
            match reader.poll(&mut src).expect("no transport error") {
                Some(payload) => break payload,
                None => timeouts += 1,
            }
        };
        assert_eq!(
            timeouts,
            total - 1,
            "a timeout between every pair of delivered bytes"
        );
        assert_eq!(
            ServerMsg::from_value(&parse_payload(&payload).expect("json")).expect("typed"),
            msg,
            "frame reassembled byte-for-byte across timeouts and 1-byte reads"
        );
        assert_eq!(reader.partial_bytes(), 0, "reader back at a boundary");

        // Mid-prefix progress is visible while a frame is in flight.
        let mut two = &buf[..2];
        let mut partial = FrameReader::new();
        assert!(matches!(
            partial.poll(&mut two),
            Err(WireError::Truncated { read: 2 })
        ));
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }
    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        let payload = ServerMsg::Result {
            job: 1,
            index: 2,
            errors: 3,
            bits: 4,
        }
        .to_value()
        .to_string();
        let mut w = CountingWriter::default();
        write_frame(&mut w, payload.as_bytes()).expect("writes");
        assert_eq!(w.writes.len(), 1, "prefix and payload in one write");
        let mut expected = (payload.len() as u32).to_be_bytes().to_vec();
        expected.extend_from_slice(payload.as_bytes());
        assert_eq!(w.writes[0], expected, "the same bytes on the wire");
        assert_eq!(
            read_frame(&mut w.writes[0].as_slice()).expect("reads back"),
            payload.as_bytes()
        );
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{not json").expect("frames fine");
        assert!(matches!(
            recv(&mut buf.as_slice()),
            Err(WireError::Malformed(_))
        ));

        let v = json::parse("{\"type\":\"no-such-message\"}").expect("valid json");
        assert!(ClientMsg::from_value(&v).is_err());
        assert!(ServerMsg::from_value(&v).is_err());
    }
}
