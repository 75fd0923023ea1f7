//! A minimal length-prefixed binary protocol over [`std::net`], fronting a
//! [`SearchEngine`] with a thread-per-core accept/serve loop — no async
//! runtime, just blocking sockets and OS threads.
//!
//! ## Framing
//!
//! Every message — request or response — is one frame:
//!
//! | bytes | field |
//! |---|---|
//! | 4 | payload length `n`, `u32` little-endian (≤ 1 MiB) |
//! | `n` | payload |
//!
//! A connection carries a strict request/response sequence: the client
//! writes a request frame, reads one response frame, repeats. All integers
//! are little-endian; a *session id* is 12 bytes (`engine: u32`,
//! `index: u32`, `generation: u32`) and is opaque to the client.
//!
//! ## Requests
//!
//! The payload starts with an opcode byte:
//!
//! | op | name | body |
//! |---|---|---|
//! | `0x01` | OPEN | plan engine `u32`, plan index `u32`, kind tag `u8`, kind seed `u64` |
//! | `0x02` | NEXT_QUESTION | session id (12 bytes) |
//! | `0x03` | ANSWER | session id, verdict `u8` (0 = no, 1 = yes) |
//! | `0x04` | FINISH | session id |
//! | `0x05` | CANCEL | session id |
//! | `0x06` | STATS | *(empty)* |
//! | `0x07` | METRICS | mode `u8` (0 = full, 1 = delta since this connection's last snapshot) |
//! | `0x08` | SHARD_STATS | *(empty)* |
//! | `0x09` | SLOW_OPS | *(empty)* |
//!
//! Kind tag/seed use the same stable code table as the WAL
//! ([`crate::PolicyKind`] ↔ tag 0–8, seed meaningful only for
//! `Random`).
//!
//! ## Responses
//!
//! The payload starts with a status byte; `0x00` (OK) is followed by an
//! op-specific body, every other status maps a [`ServiceError`] variant:
//!
//! | status | meaning | body |
//! |---|---|---|
//! | `0x00` | OK | op-specific (below) |
//! | `0x01` | AT_CAPACITY | live `u64`, limit `u64`, retryable `u8`, has-oldest `u8`, oldest-idle `u64` |
//! | `0x02` | UNKNOWN_PLAN | *(empty)* |
//! | `0x03` | UNKNOWN_SESSION | *(empty)* |
//! | `0x04` | CORE | UTF-8 rendering of the [`aigs_core::CoreError`] |
//! | `0x05` | POLICY_PANICKED | *(empty)* |
//! | `0x06` | DURABILITY | UTF-8 detail |
//! | `0x07` | DEGRADED | *(empty)* |
//! | `0x08` | BAD_REQUEST | UTF-8 detail (malformed frame, unknown opcode/kind) |
//!
//! OK bodies: OPEN → session id; NEXT_QUESTION → step tag `u8` (0 = ask,
//! 1 = resolved) + node `u32`; ANSWER/CANCEL → empty; FINISH → target
//! `u32`, queries `u32`, price `f64`; STATS → live `u64`, peak-live `u64`,
//! shards `u32`, then `u64` counters (opened, finished, cancelled,
//! evicted, errored, panicked, steps, pool-hits, compiled-hits,
//! compiled-fallbacks, wal-records), degraded `u8`, degraded-since `u64`
//! (logical clock, 0 when healthy), then the rest of the body is the
//! UTF-8 degraded reason (empty when healthy); SHARD_STATS → shard count
//! `u32`, then per shard: shard `u32` + 12 `u64` counters (live, opened,
//! finished, cancelled, evicted, errored, panicked, steps, pool-hits,
//! compiled-hits, compiled-fallbacks, wal-records); SLOW_OPS → entry
//! count `u32`, then per entry: shard `u32`, op index `u8`
//! ([`crate::telemetry::OPS`] order), tier index `u8`
//! ([`crate::telemetry::TIERS`] order), kind tag `u8` + kind seed `u64`
//! (same code table as OPEN), duration `u64` (ns), at `u64` (logical
//! clock) — the read *drains* the per-shard rings, so concurrent
//! SLOW_OPS readers partition the records rather than duplicating them;
//! METRICS → an encoded
//! [`TelemetrySnapshot`] (see [`WireClient::metrics`]); in delta mode the
//! server diffs against the previous snapshot taken *on this connection*
//! (histograms and counters are since-last-call, predicted costs stay
//! absolute).
//!
//! A BAD_REQUEST is answered before the connection is closed; an
//! oversized or unparsable *length prefix* closes the connection without
//! a response (the stream can no longer be framed).
//!
//! ## HTTP escape hatch
//!
//! A connection whose first four bytes are `GET ` is served as one
//! plain-text HTTP exchange instead of a framed one: `GET /metrics`
//! returns the engine's Prometheus exposition
//! ([`SearchEngine::prometheus_text`]) with status 200, any other path
//! returns 404, and the connection closes. This lets a stock Prometheus
//! scraper (or `curl`) read the same port the binary protocol runs on.
//! A request whose `Accept` header names `application/openmetrics-text`
//! is answered with that media type (version 1.0.0) and the OpenMetrics
//! `# EOF` terminator appended; all other requests get
//! `text/plain; version=0.0.4`.
//!
//! ## Server shape
//!
//! [`WireServer::bind`] spawns N accept/serve threads over clones of one
//! listener (N defaults to the engine's shard count — thread-per-core).
//! Each thread serves its accepted connection to EOF, then accepts again:
//! total concurrent connections are unbounded only by the OS, but at most
//! N are *served* at once, so clients wanting parallelism should pipeline
//! over ≤ N connections. Shutdown sets a stop flag and nudges every
//! thread loose with self-connects; in-flight connections notice within
//! one read-timeout tick (1 s).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aigs_core::{SearchOutcome, SessionStep};
use aigs_data::wal::KindCode;
use aigs_graph::NodeId;

use crate::durability::{kind_code, kind_from_code};
use crate::engine::ShardStats;
use crate::telemetry::{
    HistSnapshot, PlanCostSnapshot, PlanKindCost, PredictedCost, SlowOp, TelemetrySnapshot,
    WalMetrics, HIST_BUCKETS, OPS, TIERS,
};
use crate::{EngineStats, PlanId, PolicyKind, SearchEngine, ServiceError, SessionId};

/// Hard ceiling on a frame's payload, both directions. Every legitimate
/// message is tiny; the cap stops a stray byte stream (someone pointing
/// HTTP at the port) from provoking a giant allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// How long a serving thread blocks in one read before rechecking the
/// stop flag.
const READ_TICK: Duration = Duration::from_secs(1);

// Opcodes.
const OP_OPEN: u8 = 0x01;
const OP_NEXT: u8 = 0x02;
const OP_ANSWER: u8 = 0x03;
const OP_FINISH: u8 = 0x04;
const OP_CANCEL: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_METRICS: u8 = 0x07;
const OP_SHARD_STATS: u8 = 0x08;
const OP_SLOW_OPS: u8 = 0x09;

// Status codes.
const ST_OK: u8 = 0x00;
const ST_AT_CAPACITY: u8 = 0x01;
const ST_UNKNOWN_PLAN: u8 = 0x02;
const ST_UNKNOWN_SESSION: u8 = 0x03;
const ST_CORE: u8 = 0x04;
const ST_POLICY_PANICKED: u8 = 0x05;
const ST_DURABILITY: u8 = 0x06;
const ST_DEGRADED: u8 = 0x07;
const ST_BAD_REQUEST: u8 = 0x08;

/// A service-level fault returned over the wire — the remote engine
/// refused or failed the operation (as opposed to a transport or framing
/// problem). Mirrors the [`ServiceError`] variants a server can emit.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFault {
    /// The engine is at its admission limit (status `0x01`).
    AtCapacity {
        /// Live sessions at refusal time.
        live: usize,
        /// The configured admission limit.
        limit: usize,
        /// Whether backing off and retrying can plausibly succeed.
        retryable: bool,
        /// Age of the engine's oldest live session, if one was seen.
        oldest_idle: Option<u64>,
    },
    /// The plan id names no registered plan (status `0x02`).
    UnknownPlan,
    /// The session id names no live session (status `0x03`).
    UnknownSession,
    /// The underlying search errored; carries the rendered
    /// [`aigs_core::CoreError`] (status `0x04`).
    Core(String),
    /// The session's policy panicked and was quarantined (status `0x05`).
    PolicyPanicked,
    /// A WAL append failed; the operation was not acknowledged (status
    /// `0x06`).
    Durability(String),
    /// The engine is degraded (read-mostly) after a WAL failure (status
    /// `0x07`).
    Degraded,
    /// The server rejected the request as malformed (status `0x08`).
    BadRequest(String),
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFault::AtCapacity {
                live,
                limit,
                retryable,
                oldest_idle,
            } => write!(
                f,
                "at capacity: {live}/{limit} live (retryable: {retryable}, \
                 oldest idle: {oldest_idle:?})"
            ),
            WireFault::UnknownPlan => write!(f, "unknown plan"),
            WireFault::UnknownSession => write!(f, "unknown session"),
            WireFault::Core(msg) => write!(f, "search error: {msg}"),
            WireFault::PolicyPanicked => write!(f, "policy panicked; session quarantined"),
            WireFault::Durability(msg) => write!(f, "durability failure: {msg}"),
            WireFault::Degraded => write!(f, "engine degraded; read-only"),
            WireFault::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

/// A client-side wire-protocol error.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed (connect, read, write, or unexpected EOF).
    Io(io::Error),
    /// The peer sent bytes that do not parse as the protocol (bad status
    /// code, truncated body, oversized frame).
    Protocol(String),
    /// The engine itself refused or failed the operation.
    Fault(WireFault),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Protocol(msg) => write!(f, "wire protocol violation: {msg}"),
            WireError::Fault(fault) => write!(f, "engine fault: {fault}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Little-endian reader over a received payload, with bounds checking.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.buf.len()
            )),
        }
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn session_id(&mut self) -> Result<SessionId, String> {
        let (e, i, g) = (self.u32()?, self.u32()?, self.u32()?);
        Ok(SessionId::from_parts(e, i, g))
    }

    fn rest_utf8(&mut self) -> String {
        let s = String::from_utf8_lossy(&self.buf[self.at..]).into_owned();
        self.at = self.buf.len();
        s
    }

    fn done(&self) -> Result<(), String> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.buf.len() - self.at))
        }
    }
}

fn put_session_id(out: &mut Vec<u8>, id: SessionId) {
    let (e, i, g) = id.parts();
    out.extend_from_slice(&e.to_le_bytes());
    out.extend_from_slice(&i.to_le_bytes());
    out.extend_from_slice(&g.to_le_bytes());
}

// ---- telemetry snapshot encoding ---------------------------------------
//
// Histograms are sparse on the wire: a `u8` count of non-zero buckets,
// then (`u8` bucket index, `u64` count) pairs, then the `u64` sum of
// recorded values. A fresh engine's snapshot is therefore a few hundred
// bytes, not 21 × 64 × 8.

fn put_hist(out: &mut Vec<u8>, h: &HistSnapshot) {
    let nonzero = h.buckets.iter().filter(|&&b| b != 0).count() as u8;
    out.push(nonzero);
    for (i, &count) in h.buckets.iter().enumerate() {
        if count != 0 {
            out.push(i as u8);
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    out.extend_from_slice(&h.sum.to_le_bytes());
}

fn read_hist(c: &mut Cursor<'_>) -> Result<HistSnapshot, String> {
    let mut h = HistSnapshot::default();
    let nonzero = c.u8()?;
    for _ in 0..nonzero {
        let i = c.u8()? as usize;
        if i >= HIST_BUCKETS {
            return Err(format!("histogram bucket index {i} out of range"));
        }
        h.buckets[i] = c.u64()?;
    }
    h.sum = c.u64()?;
    Ok(h)
}

fn put_utf8(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u8::MAX as usize);
    out.push(s.len().min(u8::MAX as usize) as u8);
    out.extend_from_slice(&s.as_bytes()[..s.len().min(u8::MAX as usize)]);
}

fn read_utf8(c: &mut Cursor<'_>) -> Result<String, String> {
    let len = c.u8()? as usize;
    let bytes = c.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
}

fn encode_snapshot(snap: &TelemetrySnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.push(snap.enabled as u8);
    out.extend_from_slice(&snap.clock.to_le_bytes());
    out.extend_from_slice(&snap.shards.to_le_bytes());
    // Dimensions up front so decoders survive new ops/tiers/kinds.
    out.push(snap.op_tier_ns.len() as u8);
    out.push(snap.op_tier_ns.first().map_or(0, Vec::len) as u8);
    out.push(snap.op_kind.first().map_or(0, Vec::len) as u8);
    for per_tier in &snap.op_tier_count {
        for &count in per_tier {
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    for per_tier in &snap.op_tier_ns {
        for h in per_tier {
            put_hist(&mut out, h);
        }
    }
    for per_kind in &snap.op_kind {
        for &count in per_kind {
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    for v in [
        snap.wal.append_bytes,
        snap.wal.flush_signals,
        snap.wal.compactions,
        snap.wal.degraded_transitions,
        snap.wal.snapshot_bytes,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    put_hist(&mut out, &snap.wal.fsync_batch);
    put_hist(&mut out, &snap.wal.fsync_ns);
    put_hist(&mut out, &snap.wal.compaction_ns);
    out.extend_from_slice(&(snap.plans.len() as u32).to_le_bytes());
    for plan in &snap.plans {
        out.extend_from_slice(&plan.plan.to_le_bytes());
        out.push(plan.kinds.len() as u8);
        for row in &plan.kinds {
            put_utf8(&mut out, &row.kind);
            put_hist(&mut out, &row.queries);
            out.extend_from_slice(&row.price_sum.to_bits().to_le_bytes());
            match &row.predicted {
                Some(p) => {
                    out.push(1);
                    out.extend_from_slice(&p.expected_queries.to_bits().to_le_bytes());
                    out.extend_from_slice(&p.expected_price.to_bits().to_le_bytes());
                }
                None => out.push(0),
            }
        }
    }
    out.extend_from_slice(&snap.slow_dropped.to_le_bytes());
    out
}

fn decode_snapshot(c: &mut Cursor<'_>) -> Result<TelemetrySnapshot, String> {
    let enabled = c.u8()? != 0;
    let clock = c.u64()?;
    let shards = c.u32()?;
    let mut snap = TelemetrySnapshot::empty(enabled, shards);
    snap.clock = clock;
    let (ops, tiers, kinds) = (c.u8()? as usize, c.u8()? as usize, c.u8()? as usize);
    snap.op_tier_count = (0..ops)
        .map(|_| (0..tiers).map(|_| c.u64()).collect())
        .collect::<Result<_, _>>()?;
    snap.op_tier_ns = (0..ops)
        .map(|_| (0..tiers).map(|_| read_hist(c)).collect())
        .collect::<Result<_, _>>()?;
    snap.op_kind = (0..ops)
        .map(|_| (0..kinds).map(|_| c.u64()).collect())
        .collect::<Result<_, _>>()?;
    snap.wal = WalMetrics {
        append_bytes: c.u64()?,
        flush_signals: c.u64()?,
        compactions: c.u64()?,
        degraded_transitions: c.u64()?,
        snapshot_bytes: c.u64()?,
        fsync_batch: read_hist(c)?,
        fsync_ns: read_hist(c)?,
        compaction_ns: read_hist(c)?,
    };
    let plan_count = c.u32()?;
    snap.plans = (0..plan_count)
        .map(|_| {
            let plan = c.u32()?;
            let kind_count = c.u8()?;
            let kinds = (0..kind_count)
                .map(|_| {
                    Ok(PlanKindCost {
                        kind: read_utf8(c)?,
                        queries: read_hist(c)?,
                        price_sum: c.f64()?,
                        predicted: match c.u8()? {
                            0 => None,
                            _ => Some(PredictedCost {
                                expected_queries: c.f64()?,
                                expected_price: c.f64()?,
                            }),
                        },
                    })
                })
                .collect::<Result<_, String>>()?;
            Ok(PlanCostSnapshot { plan, kinds })
        })
        .collect::<Result<_, String>>()?;
    snap.slow_dropped = c.u64()?;
    Ok(snap)
}

/// Writes one frame: length prefix + payload.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME as usize);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)
}

/// Reads one frame payload (blocking, no timeout handling — client side).
fn read_frame(stream: &mut TcpStream) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME {
        return Err(WireError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

// ---- client ------------------------------------------------------------

/// A blocking client for one wire connection: strict request/response,
/// mirroring the [`crate::SessionHandle`] surface. Errors split three
/// ways — [`WireError::Io`] (transport), [`WireError::Protocol`] (framing)
/// and [`WireError::Fault`] (the engine refused, e.g.
/// [`WireFault::AtCapacity`] with its backoff hint).
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
}

impl WireClient {
    /// Connects to a [`WireServer`] (Nagle off — frames are latency-bound).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient { stream })
    }

    fn roundtrip(&mut self, request: &[u8]) -> Result<Vec<u8>, WireError> {
        write_frame(&mut self.stream, request)?;
        read_frame(&mut self.stream)
    }

    /// Dispatches `request` and peels the status byte, converting non-OK
    /// statuses into [`WireError::Fault`]; returns the OK body.
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>, WireError> {
        let response = self.roundtrip(request)?;
        let mut c = Cursor::new(&response);
        let status = c.u8().map_err(WireError::Protocol)?;
        let fault = match status {
            ST_OK => return Ok(response[1..].to_vec()),
            ST_AT_CAPACITY => {
                let live = c.u64().map_err(WireError::Protocol)? as usize;
                let limit = c.u64().map_err(WireError::Protocol)? as usize;
                let retryable = c.u8().map_err(WireError::Protocol)? != 0;
                let has_oldest = c.u8().map_err(WireError::Protocol)? != 0;
                let oldest = c.u64().map_err(WireError::Protocol)?;
                WireFault::AtCapacity {
                    live,
                    limit,
                    retryable,
                    oldest_idle: has_oldest.then_some(oldest),
                }
            }
            ST_UNKNOWN_PLAN => WireFault::UnknownPlan,
            ST_UNKNOWN_SESSION => WireFault::UnknownSession,
            ST_CORE => WireFault::Core(c.rest_utf8()),
            ST_POLICY_PANICKED => WireFault::PolicyPanicked,
            ST_DURABILITY => WireFault::Durability(c.rest_utf8()),
            ST_DEGRADED => WireFault::Degraded,
            ST_BAD_REQUEST => WireFault::BadRequest(c.rest_utf8()),
            other => return Err(WireError::Protocol(format!("unknown status {other:#04x}"))),
        };
        Err(WireError::Fault(fault))
    }

    /// Opens a session for `kind` on `plan`; the returned [`SessionId`] is
    /// valid on this connection, any other connection to the same server,
    /// and the engine's in-process API alike.
    pub fn open(&mut self, plan: PlanId, kind: PolicyKind) -> Result<SessionId, WireError> {
        let KindCode { tag, seed } = kind_code(kind);
        let mut req = vec![OP_OPEN];
        req.extend_from_slice(&plan.engine.to_le_bytes());
        req.extend_from_slice(&plan.index.to_le_bytes());
        req.push(tag);
        req.extend_from_slice(&seed.to_le_bytes());
        let body = self.call(&req)?;
        let mut c = Cursor::new(&body);
        let id = c.session_id().map_err(WireError::Protocol)?;
        c.done().map_err(WireError::Protocol)?;
        Ok(id)
    }

    fn session_op(&mut self, op: u8, id: SessionId) -> Result<Vec<u8>, WireError> {
        let mut req = vec![op];
        put_session_id(&mut req, id);
        self.call(&req)
    }

    /// What session `id` needs next: a question to put to the oracle, or
    /// its resolved target.
    pub fn next_question(&mut self, id: SessionId) -> Result<SessionStep, WireError> {
        let body = self.session_op(OP_NEXT, id)?;
        let mut c = Cursor::new(&body);
        let tag = c.u8().map_err(WireError::Protocol)?;
        let node = NodeId(c.u32().map_err(WireError::Protocol)?);
        c.done().map_err(WireError::Protocol)?;
        match tag {
            0 => Ok(SessionStep::Ask(node)),
            1 => Ok(SessionStep::Resolved(node)),
            other => Err(WireError::Protocol(format!("unknown step tag {other}"))),
        }
    }

    /// Feeds the oracle's verdict for the pending question of `id`.
    pub fn answer(&mut self, id: SessionId, yes: bool) -> Result<(), WireError> {
        let mut req = vec![OP_ANSWER];
        put_session_id(&mut req, id);
        req.push(yes as u8);
        let body = self.call(&req)?;
        Cursor::new(&body).done().map_err(WireError::Protocol)
    }

    /// Completes a resolved session, returning its outcome.
    pub fn finish(&mut self, id: SessionId) -> Result<SearchOutcome, WireError> {
        let body = self.session_op(OP_FINISH, id)?;
        let mut c = Cursor::new(&body);
        let target = NodeId(c.u32().map_err(WireError::Protocol)?);
        let queries = c.u32().map_err(WireError::Protocol)?;
        let price = c.f64().map_err(WireError::Protocol)?;
        c.done().map_err(WireError::Protocol)?;
        Ok(SearchOutcome {
            target,
            queries,
            price,
        })
    }

    /// Discards session `id` regardless of progress.
    pub fn cancel(&mut self, id: SessionId) -> Result<(), WireError> {
        let body = self.session_op(OP_CANCEL, id)?;
        Cursor::new(&body).done().map_err(WireError::Protocol)
    }

    /// The engine's aggregated activity counters.
    pub fn stats(&mut self) -> Result<EngineStats, WireError> {
        let body = self.call(&[OP_STATS])?;
        let mut c = Cursor::new(&body);
        let p = |r: Result<u64, String>| r.map_err(WireError::Protocol);
        let stats = EngineStats {
            live: p(c.u64())? as usize,
            peak_live: p(c.u64())? as usize,
            shards: c.u32().map_err(WireError::Protocol)? as usize,
            opened: p(c.u64())?,
            finished: p(c.u64())?,
            cancelled: p(c.u64())?,
            evicted: p(c.u64())?,
            errored: p(c.u64())?,
            panicked: p(c.u64())?,
            steps: p(c.u64())?,
            pool_hits: p(c.u64())?,
            compiled_hits: p(c.u64())?,
            compiled_fallbacks: p(c.u64())?,
            wal_records: p(c.u64())?,
            degraded: c.u8().map_err(WireError::Protocol)? != 0,
            degraded_since: None,
            degraded_reason: None,
        };
        let since = p(c.u64())?;
        let reason = c.rest_utf8();
        c.done().map_err(WireError::Protocol)?;
        Ok(EngineStats {
            degraded_since: stats.degraded.then_some(since),
            degraded_reason: stats.degraded.then_some(reason),
            ..stats
        })
    }

    /// Per-shard activity counters, for spotting shard imbalance (one hot
    /// shard, uneven eviction) that the aggregated [`stats`](Self::stats)
    /// hides.
    pub fn stats_per_shard(&mut self) -> Result<Vec<ShardStats>, WireError> {
        let body = self.call(&[OP_SHARD_STATS])?;
        let mut c = Cursor::new(&body);
        let p = |r: Result<u64, String>| r.map_err(WireError::Protocol);
        let count = c.u32().map_err(WireError::Protocol)?;
        let mut shards = Vec::with_capacity(count as usize);
        for _ in 0..count {
            shards.push(ShardStats {
                shard: c.u32().map_err(WireError::Protocol)?,
                live: p(c.u64())?,
                opened: p(c.u64())?,
                finished: p(c.u64())?,
                cancelled: p(c.u64())?,
                evicted: p(c.u64())?,
                errored: p(c.u64())?,
                panicked: p(c.u64())?,
                steps: p(c.u64())?,
                pool_hits: p(c.u64())?,
                compiled_hits: p(c.u64())?,
                compiled_fallbacks: p(c.u64())?,
                wal_records: p(c.u64())?,
            });
        }
        c.done().map_err(WireError::Protocol)?;
        Ok(shards)
    }

    /// Drains the engine's per-shard slow-op journals: operations whose
    /// wall time crossed [`crate::EngineConfig::slow_op_ns`], oldest first
    /// per shard (the same records
    /// [`SearchEngine::drain_slow_ops`](crate::SearchEngine::drain_slow_ops)
    /// returns in-process). Draining is destructive — records read here
    /// are gone from the rings, so point exactly one collector at this
    /// op.
    pub fn slow_ops(&mut self) -> Result<Vec<SlowOp>, WireError> {
        let body = self.call(&[OP_SLOW_OPS])?;
        let mut c = Cursor::new(&body);
        let p = |r: Result<u64, String>| r.map_err(WireError::Protocol);
        let count = c.u32().map_err(WireError::Protocol)?;
        let mut ops = Vec::with_capacity(count.min(4096) as usize);
        for _ in 0..count {
            let shard = c.u32().map_err(WireError::Protocol)?;
            let op_ix = c.u8().map_err(WireError::Protocol)? as usize;
            let tier_ix = c.u8().map_err(WireError::Protocol)? as usize;
            let code = KindCode {
                tag: c.u8().map_err(WireError::Protocol)?,
                seed: p(c.u64())?,
            };
            let duration_ns = p(c.u64())?;
            let at = p(c.u64())?;
            ops.push(SlowOp {
                shard,
                op: *OPS
                    .get(op_ix)
                    .ok_or_else(|| WireError::Protocol(format!("bad op index {op_ix}")))?,
                tier: *TIERS
                    .get(tier_ix)
                    .ok_or_else(|| WireError::Protocol(format!("bad tier index {tier_ix}")))?,
                kind: kind_from_code(code).ok_or_else(|| {
                    WireError::Protocol(format!("unknown policy kind tag {}", code.tag))
                })?,
                duration_ns,
                at,
            });
        }
        c.done().map_err(WireError::Protocol)?;
        Ok(ops)
    }

    /// Fetches the engine's [`TelemetrySnapshot`]. With `delta = false`
    /// the snapshot is absolute (totals since engine start / recovery);
    /// with `delta = true` the server subtracts the previous snapshot
    /// taken *on this connection*, so histograms and counters cover only
    /// the interval since the last `metrics` call here (the first delta
    /// call on a connection returns totals). Predicted plan costs are
    /// gauges and stay absolute in both modes.
    pub fn metrics(&mut self, delta: bool) -> Result<TelemetrySnapshot, WireError> {
        let body = self.call(&[OP_METRICS, delta as u8])?;
        let mut c = Cursor::new(&body);
        let snap = decode_snapshot(&mut c).map_err(WireError::Protocol)?;
        c.done().map_err(WireError::Protocol)?;
        Ok(snap)
    }
}

// ---- server ------------------------------------------------------------

/// The wire front-end: N accept/serve threads over one TCP listener (see
/// the module docs for the threading model). Dropping the server shuts it
/// down and joins every thread.
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` and spawns the serve threads. `threads == 0` means one
    /// per engine shard (thread-per-core when the shard count is auto).
    /// Bind to port 0 to let the OS pick; read it back with
    /// [`local_addr`](Self::local_addr).
    pub fn bind(
        engine: Arc<SearchEngine>,
        addr: impl ToSocketAddrs,
        threads: usize,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let threads = if threads == 0 {
            engine.stats().shards
        } else {
            threads
        };
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..threads)
            .map(|i| {
                let listener = listener.try_clone()?;
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("aigs-wire-{i}"))
                    .spawn(move || accept_loop(listener, engine, stop))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(WireServer {
            addr,
            stop,
            handles,
        })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks every serve thread, and joins them.
    /// In-flight connections are dropped at their next read tick; sessions
    /// they opened stay live on the engine (reattachable by id).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Accept loops block in `accept` with no timeout: nudge each one
        // loose with a throwaway connection. Threads that are mid-serve
        // instead notice the flag at their next read tick, and the extra
        // wakeups pair off with the remaining accepts harmlessly.
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, engine: Arc<SearchEngine>, stop: Arc<AtomicBool>) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // Per-connection failures (the peer reset mid-handshake, a
            // transient out-of-resources blip) are retried, but with a
            // short pause: a *persistent* error such as EMFILE or a
            // closed listener returns immediately, and an unthrottled
            // retry would pin every serve thread at 100% CPU.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return; // the stream was a shutdown nudge
        }
        let _ = serve_connection(stream, &engine, &stop);
    }
}

/// Reads exactly `buf.len()` bytes, rechecking `stop` on every timeout
/// tick. `Ok(false)` means the peer closed cleanly before the first byte
/// (or a stop was requested); mid-message EOF is an error.
fn read_exact_idle(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Per-connection server state: the last [`TelemetrySnapshot`] taken on
/// this connection, the baseline for METRICS delta mode.
#[derive(Default)]
struct ConnState {
    last_metrics: Option<TelemetrySnapshot>,
}

fn serve_connection(
    mut stream: TcpStream,
    engine: &SearchEngine,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut conn = ConnState::default();
    let mut header = [0u8; 4];
    let mut first = true;
    loop {
        if !read_exact_idle(&mut stream, &mut header, stop)? {
            return Ok(());
        }
        if first && header == *b"GET " {
            // Someone pointed an HTTP client at the port: serve one
            // plain-text exchange (the /metrics exposition) and close.
            return serve_http(&mut stream, engine, stop);
        }
        first = false;
        let len = u32::from_le_bytes(header);
        if len > MAX_FRAME {
            // The stream can no longer be framed; no response is possible.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized request frame",
            ));
        }
        let mut payload = vec![0u8; len as usize];
        if !read_exact_idle(&mut stream, &mut payload, stop)? {
            return Ok(());
        }
        let response = handle_request(engine, &mut conn, &payload);
        write_frame(&mut stream, &response)?;
    }
}

/// Serves one HTTP exchange on a connection whose first four bytes were
/// `GET ` (already consumed): reads the rest of the request head, answers
/// `/metrics` with the Prometheus exposition (negotiated to OpenMetrics
/// when the `Accept` header asks for it), everything else with 404.
fn serve_http(stream: &mut TcpStream, engine: &SearchEngine, stop: &AtomicBool) -> io::Result<()> {
    // Read until the end of the request head (bare GETs carry no body).
    // Cap the head at 8 KiB — more than any scraper sends.
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && head.len() < 8192 {
        if !read_exact_idle(stream, &mut byte, stop)? {
            break; // EOF or stop: serve what we have
        }
        head.push(byte[0]);
    }
    // The request target is the bytes up to the next space ("GET " was
    // already consumed by the framing reader).
    let head = String::from_utf8_lossy(&head);
    let path = head.split_whitespace().next().unwrap_or("");
    const PROM_TYPE: &str = "text/plain; version=0.0.4";
    const OPENMETRICS_TYPE: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";
    let (status, ctype, body) = if path == "/metrics" {
        // Content negotiation: a scraper advertising OpenMetrics support
        // (Prometheus sends `Accept: application/openmetrics-text` when
        // configured for it) gets the exposition under the OpenMetrics
        // media type with the spec's mandatory `# EOF` terminator;
        // everyone else gets the classic 0.0.4 text format unchanged.
        let openmetrics = head.lines().any(|line| {
            line.split_once(':').is_some_and(|(name, value)| {
                name.trim().eq_ignore_ascii_case("accept")
                    && value
                        .to_ascii_lowercase()
                        .contains("application/openmetrics-text")
            })
        });
        let mut body = engine.prometheus_text();
        if openmetrics {
            body.push_str("# EOF\n");
            ("200 OK", OPENMETRICS_TYPE, body)
        } else {
            ("200 OK", PROM_TYPE, body)
        }
    } else {
        ("404 Not Found", PROM_TYPE, String::from("not found\n"))
    };
    let response = format!(
        "HTTP/1.1 {status}\r\ncontent-type: {ctype}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Decodes one request, runs it against the engine, encodes the response.
fn handle_request(engine: &SearchEngine, conn: &mut ConnState, payload: &[u8]) -> Vec<u8> {
    match decode_and_run(engine, conn, payload) {
        Ok(ok_body) => ok_body,
        Err(RequestError::Malformed(msg)) => {
            let mut out = vec![ST_BAD_REQUEST];
            out.extend_from_slice(msg.as_bytes());
            out
        }
        Err(RequestError::Service(e)) => encode_service_error(&e),
    }
}

enum RequestError {
    Malformed(String),
    Service(ServiceError),
}

impl From<ServiceError> for RequestError {
    fn from(e: ServiceError) -> Self {
        RequestError::Service(e)
    }
}

impl From<String> for RequestError {
    fn from(msg: String) -> Self {
        RequestError::Malformed(msg)
    }
}

fn decode_and_run(
    engine: &SearchEngine,
    conn: &mut ConnState,
    payload: &[u8],
) -> Result<Vec<u8>, RequestError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let mut out = vec![ST_OK];
    match op {
        OP_OPEN => {
            let plan = PlanId {
                engine: c.u32()?,
                index: c.u32()?,
            };
            let code = KindCode {
                tag: c.u8()?,
                seed: c.u64()?,
            };
            c.done()?;
            let kind = kind_from_code(code)
                .ok_or_else(|| format!("unknown policy kind tag {}", code.tag))?;
            let handle = engine.open_session(plan, kind)?;
            put_session_id(&mut out, handle.id());
        }
        OP_NEXT => {
            let id = c.session_id()?;
            c.done()?;
            let (tag, node) = match engine.next_question(id)? {
                SessionStep::Ask(n) => (0u8, n),
                SessionStep::Resolved(n) => (1u8, n),
            };
            out.push(tag);
            out.extend_from_slice(&node.0.to_le_bytes());
        }
        OP_ANSWER => {
            let id = c.session_id()?;
            let yes = c.u8()?;
            c.done()?;
            if yes > 1 {
                return Err(format!("verdict byte must be 0 or 1, got {yes}").into());
            }
            engine.answer(id, yes == 1)?;
        }
        OP_FINISH => {
            let id = c.session_id()?;
            c.done()?;
            let outcome = engine.finish(id)?;
            out.extend_from_slice(&outcome.target.0.to_le_bytes());
            out.extend_from_slice(&outcome.queries.to_le_bytes());
            out.extend_from_slice(&outcome.price.to_bits().to_le_bytes());
        }
        OP_CANCEL => {
            let id = c.session_id()?;
            c.done()?;
            engine.cancel(id)?;
        }
        OP_STATS => {
            c.done()?;
            let s = engine.stats();
            for v in [s.live as u64, s.peak_live as u64] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(s.shards as u32).to_le_bytes());
            for v in [
                s.opened,
                s.finished,
                s.cancelled,
                s.evicted,
                s.errored,
                s.panicked,
                s.steps,
                s.pool_hits,
                s.compiled_hits,
                s.compiled_fallbacks,
                s.wal_records,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.push(s.degraded as u8);
            out.extend_from_slice(&s.degraded_since.unwrap_or(0).to_le_bytes());
            if let Some(reason) = &s.degraded_reason {
                out.extend_from_slice(reason.as_bytes());
            }
        }
        OP_SHARD_STATS => {
            c.done()?;
            let shards = engine.stats_per_shard();
            out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
            for s in shards {
                out.extend_from_slice(&s.shard.to_le_bytes());
                for v in [
                    s.live,
                    s.opened,
                    s.finished,
                    s.cancelled,
                    s.evicted,
                    s.errored,
                    s.panicked,
                    s.steps,
                    s.pool_hits,
                    s.compiled_hits,
                    s.compiled_fallbacks,
                    s.wal_records,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        OP_SLOW_OPS => {
            c.done()?;
            let ops = engine.drain_slow_ops();
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for s in ops {
                let code = kind_code(s.kind);
                out.extend_from_slice(&s.shard.to_le_bytes());
                out.push(s.op.index() as u8);
                out.push(s.tier.index() as u8);
                out.push(code.tag);
                out.extend_from_slice(&code.seed.to_le_bytes());
                out.extend_from_slice(&s.duration_ns.to_le_bytes());
                out.extend_from_slice(&s.at.to_le_bytes());
            }
        }
        OP_METRICS => {
            let mode = c.u8()?;
            c.done()?;
            if mode > 1 {
                return Err(format!("metrics mode byte must be 0 or 1, got {mode}").into());
            }
            let current = engine.telemetry();
            let reply = match (mode, conn.last_metrics.as_ref()) {
                (1, Some(prev)) => current.minus(prev),
                _ => current.clone(),
            };
            conn.last_metrics = Some(current);
            out.extend_from_slice(&encode_snapshot(&reply));
        }
        other => return Err(format!("unknown opcode {other:#04x}").into()),
    }
    Ok(out)
}

fn encode_service_error(e: &ServiceError) -> Vec<u8> {
    match e {
        ServiceError::AtCapacity {
            live,
            limit,
            retryable,
            oldest_idle,
        } => {
            let mut out = vec![ST_AT_CAPACITY];
            out.extend_from_slice(&(*live as u64).to_le_bytes());
            out.extend_from_slice(&(*limit as u64).to_le_bytes());
            out.push(*retryable as u8);
            out.push(oldest_idle.is_some() as u8);
            out.extend_from_slice(&oldest_idle.unwrap_or(0).to_le_bytes());
            out
        }
        ServiceError::UnknownPlan(_) => vec![ST_UNKNOWN_PLAN],
        ServiceError::UnknownSession(_) => vec![ST_UNKNOWN_SESSION],
        ServiceError::Core(core) => {
            let mut out = vec![ST_CORE];
            out.extend_from_slice(core.to_string().as_bytes());
            out
        }
        ServiceError::PolicyPanicked => vec![ST_POLICY_PANICKED],
        ServiceError::Durability(detail) => {
            let mut out = vec![ST_DURABILITY];
            out.extend_from_slice(detail.as_bytes());
            out
        }
        ServiceError::Degraded => vec![ST_DEGRADED],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_rejects_truncation_and_trailers() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert_eq!(c.u8().unwrap(), 1);
        assert!(c.u32().is_err());
        assert!(c.done().is_err());
        let mut c = Cursor::new(&[0x2a, 0, 0, 0]);
        assert_eq!(c.u32().unwrap(), 42);
        c.done().unwrap();
    }

    #[test]
    fn metrics_snapshot_roundtrips_every_wal_field() {
        // Distinct values per field, so a swapped or dropped field shows.
        let hist = |v: u64| {
            let h = crate::telemetry::Histogram::new();
            h.record(v);
            h.record(3 * v);
            h.snapshot()
        };
        let mut snap = TelemetrySnapshot::empty(true, 2);
        snap.wal = WalMetrics {
            append_bytes: 11,
            fsync_batch: hist(5),
            fsync_ns: hist(700),
            flush_signals: 13,
            compactions: 2,
            compaction_ns: hist(9_000_000),
            snapshot_bytes: 460_000,
            degraded_transitions: 1,
        };
        let bytes = encode_snapshot(&snap);
        let mut c = Cursor::new(&bytes);
        assert_eq!(decode_snapshot(&mut c).unwrap(), snap);
        c.done().unwrap();
    }

    #[test]
    fn at_capacity_roundtrips_through_status_encoding() {
        let e = ServiceError::AtCapacity {
            live: 7,
            limit: 7,
            retryable: true,
            oldest_idle: Some(13),
        };
        let body = encode_service_error(&e);
        assert_eq!(body[0], ST_AT_CAPACITY);
        let mut c = Cursor::new(&body[1..]);
        assert_eq!(c.u64().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), 7);
        assert_eq!(c.u8().unwrap(), 1);
        assert_eq!(c.u8().unwrap(), 1);
        assert_eq!(c.u64().unwrap(), 13);
        c.done().unwrap();
    }
}
