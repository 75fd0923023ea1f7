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
//! A BAD_REQUEST leaves the connection open: the request was framed, so
//! the next frame starts where it ended. Only an oversized *length
//! prefix* closes the connection, without a response (the stream can no
//! longer be framed).
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
//! over ≤ N connections.
//!
//! Both ends read through a per-connection frame buffer: one `read` pulls
//! in the length prefix, the payload and whatever bytes follow, so frames
//! that arrive together are served from the buffer without further reads.
//! Frames are encoded in place into a reused output buffer whose 4-byte
//! length prefix is patched once the payload is written, then sent with
//! one `write`. A round trip is usually one `write` and one `read` on
//! each side, and in steady state neither side allocates per frame.
//!
//! Shutdown sets a stop flag, shuts down every connection being served
//! (the server keeps a clone of each served stream, so a thread blocked
//! reading an idle client wakes at once) and nudges threads blocked in
//! `accept` loose with self-connects.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

/// Bytes in a frame's length prefix.
const FRAME_HEADER: usize = 4;

/// Initial size of a connection's input and output buffers: every frame
/// but a large METRICS or SLOW_OPS body fits, and a larger frame grows
/// the buffer to its size (at most `FRAME_HEADER + MAX_FRAME`).
const FRAME_BUF: usize = 4096;

/// An HTTP request head is read up to this many bytes (more than any
/// scraper sends); a longer head is served truncated.
const HTTP_HEAD_MAX: usize = 8192;

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

fn encode_snapshot(snap: &TelemetrySnapshot, out: &mut Vec<u8>) {
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
            put_hist(out, h);
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
    put_hist(out, &snap.wal.fsync_batch);
    put_hist(out, &snap.wal.fsync_ns);
    put_hist(out, &snap.wal.compaction_ns);
    out.extend_from_slice(&(snap.plans.len() as u32).to_le_bytes());
    for plan in &snap.plans {
        out.extend_from_slice(&plan.plan.to_le_bytes());
        out.push(plan.kinds.len() as u8);
        for row in &plan.kinds {
            put_utf8(out, &row.kind);
            put_hist(out, &row.queries);
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

/// Clears `out` and reserves its length prefix; the payload is appended
/// after it and [`end_frame`] patches the prefix.
fn begin_frame(out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0; FRAME_HEADER]);
}

/// Writes the payload length of a frame begun by [`begin_frame`] into its
/// prefix; `out` then holds the whole frame.
fn end_frame(out: &mut [u8]) {
    let len = u32::try_from(out.len() - FRAME_HEADER).expect("frame payload fits a u32");
    debug_assert!(len <= MAX_FRAME);
    out[..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
}

/// Buffered frame input for one connection: an owned buffer whose
/// `start..end` holds received bytes not yet consumed. A read asks for as
/// much as the buffer holds, so the length prefix, the payload and any
/// following frames arrive together when the peer sent them together.
struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: vec![0; FRAME_BUF],
            start: 0,
            end: 0,
        }
    }

    /// The received bytes not yet consumed.
    fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.end - self.start);
        self.start += n;
    }

    /// Reads until at least `want` bytes are buffered. `Ok(false)` means
    /// the peer closed first; what did arrive stays buffered.
    fn fill(&mut self, want: usize) -> io::Result<bool> {
        while self.end - self.start < want {
            if self.start > 0 {
                // Move the unconsumed tail (less than `want` bytes) to the
                // front so the read gets the rest of the buffer.
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// The next frame's payload, borrowed from the buffer until the next
    /// call. `Ok(None)` means the peer closed cleanly between frames; a
    /// close mid-frame is an I/O error and a length over [`MAX_FRAME`] a
    /// protocol error.
    fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        if !self.fill(FRAME_HEADER)? {
            return match self.end - self.start {
                0 => Ok(None),
                _ => Err(closed_mid_frame()),
            };
        }
        let header = &self.buf[self.start..self.start + FRAME_HEADER];
        let len = u32::from_le_bytes(header.try_into().expect("4-byte prefix"));
        if len > MAX_FRAME {
            return Err(WireError::Protocol(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        let total = FRAME_HEADER + len as usize;
        if !self.fill(total)? {
            return Err(closed_mid_frame());
        }
        let payload = self.start + FRAME_HEADER..self.start + total;
        self.start += total;
        Ok(Some(&self.buf[payload]))
    }
}

fn closed_mid_frame() -> WireError {
    WireError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "peer closed mid-frame",
    ))
}

// ---- client ------------------------------------------------------------

/// A blocking client for one wire connection: strict request/response,
/// mirroring the [`crate::SessionHandle`] surface. Errors split three
/// ways — [`WireError::Io`] (transport), [`WireError::Protocol`] (framing)
/// and [`WireError::Fault`] (the engine refused, e.g.
/// [`WireFault::AtCapacity`] with its backoff hint).
pub struct WireClient {
    frames: FrameReader<TcpStream>,
    /// The request being built, reused across calls.
    out: Vec<u8>,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("stream", &self.frames.inner)
            .finish_non_exhaustive()
    }
}

impl WireClient {
    /// Connects to a [`WireServer`] (Nagle off — frames are latency-bound).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            frames: FrameReader::new(stream),
            out: Vec::with_capacity(FRAME_BUF),
        })
    }

    /// Starts a request for `op` in the output buffer; the caller appends
    /// the body and sends it with [`call`](Self::call).
    fn request(&mut self, op: u8) -> &mut Vec<u8> {
        begin_frame(&mut self.out);
        self.out.push(op);
        &mut self.out
    }

    /// Sends the request built since [`request`](Self::request) and
    /// returns the response payload, borrowed from the frame buffer.
    fn roundtrip(&mut self) -> Result<&[u8], WireError> {
        end_frame(&mut self.out);
        self.frames.inner.write_all(&self.out)?;
        self.frames.next_frame()?.ok_or_else(|| {
            WireError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })
    }

    /// Sends the built request and peels the status byte, converting
    /// non-OK statuses into [`WireError::Fault`]; returns the OK body.
    fn call(&mut self) -> Result<&[u8], WireError> {
        let response = self.roundtrip()?;
        let mut c = Cursor::new(response);
        let status = c.u8().map_err(WireError::Protocol)?;
        let fault = match status {
            ST_OK => return Ok(&response[1..]),
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
        let req = self.request(OP_OPEN);
        req.extend_from_slice(&plan.engine.to_le_bytes());
        req.extend_from_slice(&plan.index.to_le_bytes());
        req.push(tag);
        req.extend_from_slice(&seed.to_le_bytes());
        let mut c = Cursor::new(self.call()?);
        let id = c.session_id().map_err(WireError::Protocol)?;
        c.done().map_err(WireError::Protocol)?;
        Ok(id)
    }

    fn session_op(&mut self, op: u8, id: SessionId) -> Result<&[u8], WireError> {
        put_session_id(self.request(op), id);
        self.call()
    }

    /// What session `id` needs next: a question to put to the oracle, or
    /// its resolved target.
    pub fn next_question(&mut self, id: SessionId) -> Result<SessionStep, WireError> {
        let mut c = Cursor::new(self.session_op(OP_NEXT, id)?);
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
        let req = self.request(OP_ANSWER);
        put_session_id(req, id);
        req.push(yes as u8);
        Cursor::new(self.call()?)
            .done()
            .map_err(WireError::Protocol)
    }

    /// Completes a resolved session, returning its outcome.
    pub fn finish(&mut self, id: SessionId) -> Result<SearchOutcome, WireError> {
        let mut c = Cursor::new(self.session_op(OP_FINISH, id)?);
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
        Cursor::new(self.session_op(OP_CANCEL, id)?)
            .done()
            .map_err(WireError::Protocol)
    }

    /// The engine's aggregated activity counters.
    pub fn stats(&mut self) -> Result<EngineStats, WireError> {
        self.request(OP_STATS);
        let mut c = Cursor::new(self.call()?);
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
        self.request(OP_SHARD_STATS);
        let mut c = Cursor::new(self.call()?);
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
        self.request(OP_SLOW_OPS);
        let mut c = Cursor::new(self.call()?);
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
        self.request(OP_METRICS).push(delta as u8);
        let mut c = Cursor::new(self.call()?);
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
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// State the serve threads share with [`WireServer`].
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    /// Per serve thread, a clone of the stream it is serving, so a stop
    /// can shut the connection down under a thread blocked reading it.
    served: Vec<Mutex<Option<TcpStream>>>,
}

/// Locks a serve thread's slot. A poisoned lock is taken as is: the slot
/// holds a plain `Option`, valid whatever panicked.
fn lock_served(slot: &Mutex<Option<TcpStream>>) -> MutexGuard<'_, Option<TcpStream>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
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
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            served: (0..threads).map(|_| Mutex::new(None)).collect(),
        });
        let handles = (0..threads)
            .map(|i| {
                let listener = listener.try_clone()?;
                let engine = Arc::clone(&engine);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aigs-wire-{i}"))
                    .spawn(move || accept_loop(listener, engine, &shared, i))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(WireServer {
            addr,
            shared,
            handles,
        })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every served connection, and joins the
    /// serve threads. Sessions opened over those connections stay live on
    /// the engine (reattachable by id).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // A thread serving a connection blocks in `read` with no timeout:
        // shutting the socket down wakes it with EOF. A thread registers
        // its stream under the slot lock after checking the flag, so every
        // connection is either shut down here or never served.
        for slot in &self.shared.served {
            if let Some(stream) = lock_served(slot).as_ref() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // Accept loops block in `accept` with no timeout: nudge each one
        // loose with a throwaway connection. The extra wakeups pair off
        // with the remaining accepts harmlessly.
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

fn accept_loop(listener: TcpListener, engine: Arc<SearchEngine>, shared: &Shared, i: usize) {
    let slot = &shared.served[i];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
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
        {
            let mut served = lock_served(slot);
            if shared.stop.load(Ordering::SeqCst) {
                return; // the stream was a shutdown nudge
            }
            // A connection the server could not shut down would hold
            // `shutdown` hostage to its client: refuse it instead.
            let Ok(clone) = stream.try_clone() else {
                continue;
            };
            *served = Some(clone);
        }
        let _ = serve_connection(&stream, &engine);
        *lock_served(slot) = None;
    }
}

/// Per-connection server state: the last [`TelemetrySnapshot`] taken on
/// this connection, the baseline for METRICS delta mode.
#[derive(Default)]
struct ConnState {
    last_metrics: Option<TelemetrySnapshot>,
}

fn serve_connection(mut stream: &TcpStream, engine: &SearchEngine) -> Result<(), WireError> {
    stream.set_nodelay(true)?;
    let mut frames = FrameReader::new(stream);
    if !frames.fill(FRAME_HEADER)? {
        return Ok(());
    }
    if frames.buffered().starts_with(b"GET ") {
        // Someone pointed an HTTP client at the port: serve one
        // plain-text exchange (the /metrics exposition) and close.
        frames.consume(4);
        return Ok(serve_http(&mut frames, engine)?);
    }
    let mut conn = ConnState::default();
    let mut out = Vec::with_capacity(FRAME_BUF);
    while let Some(payload) = frames.next_frame()? {
        handle_request(engine, &mut conn, payload, &mut out);
        stream.write_all(&out)?;
    }
    Ok(())
}

/// Serves one HTTP exchange on a connection whose first four bytes were
/// `GET ` (already consumed): reads the rest of the request head, answers
/// `/metrics` with the Prometheus exposition (negotiated to OpenMetrics
/// when the `Accept` header asks for it), everything else with 404.
fn serve_http(frames: &mut FrameReader<&TcpStream>, engine: &SearchEngine) -> io::Result<()> {
    // Read until the end of the request head (bare GETs carry no body),
    // starting from what the framing read already buffered.
    let head_len = loop {
        let buffered = frames.buffered();
        if let Some(at) = buffered.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        let have = buffered.len();
        if have >= HTTP_HEAD_MAX || !frames.fill(have + 1)? {
            break have.min(HTTP_HEAD_MAX); // EOF or cap: serve what we have
        }
    };
    // The request target is the bytes up to the next space ("GET " was
    // already consumed by the framing reader).
    let head = String::from_utf8_lossy(&frames.buffered()[..head_len]);
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
    frames.inner.write_all(response.as_bytes())
}

/// Decodes one request, runs it against the engine, and encodes the
/// response frame into `out`.
fn handle_request(engine: &SearchEngine, conn: &mut ConnState, payload: &[u8], out: &mut Vec<u8>) {
    begin_frame(out);
    if let Err(e) = decode_and_run(engine, conn, payload, out) {
        out.truncate(FRAME_HEADER); // drop a partly written OK body
        match e {
            RequestError::Malformed(msg) => {
                out.push(ST_BAD_REQUEST);
                out.extend_from_slice(msg.as_bytes());
            }
            RequestError::Service(e) => encode_service_error(&e, out),
        }
    }
    end_frame(out);
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
    out: &mut Vec<u8>,
) -> Result<(), RequestError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    out.push(ST_OK);
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
            put_session_id(out, handle.id());
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
            encode_snapshot(&reply, out);
        }
        other => return Err(format!("unknown opcode {other:#04x}").into()),
    }
    Ok(())
}

fn encode_service_error(e: &ServiceError, out: &mut Vec<u8>) {
    match e {
        ServiceError::AtCapacity {
            live,
            limit,
            retryable,
            oldest_idle,
        } => {
            out.push(ST_AT_CAPACITY);
            out.extend_from_slice(&(*live as u64).to_le_bytes());
            out.extend_from_slice(&(*limit as u64).to_le_bytes());
            out.push(*retryable as u8);
            out.push(oldest_idle.is_some() as u8);
            out.extend_from_slice(&oldest_idle.unwrap_or(0).to_le_bytes());
        }
        ServiceError::UnknownPlan(_) => out.push(ST_UNKNOWN_PLAN),
        ServiceError::UnknownSession(_) => out.push(ST_UNKNOWN_SESSION),
        ServiceError::Core(core) => {
            out.push(ST_CORE);
            out.extend_from_slice(core.to_string().as_bytes());
        }
        ServiceError::PolicyPanicked => out.push(ST_POLICY_PANICKED),
        ServiceError::Durability(detail) => {
            out.push(ST_DURABILITY);
            out.extend_from_slice(detail.as_bytes());
        }
        ServiceError::Degraded => out.push(ST_DEGRADED),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A reader that hands out one chunk (or as much of it as fits) per
    /// `read` call, then EOF, counting the calls.
    struct Chunks {
        chunks: VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Chunks {
        fn new(chunks: impl IntoIterator<Item = Vec<u8>>) -> Chunks {
            Chunks {
                chunks: chunks.into_iter().collect(),
                reads: 0,
            }
        }
    }

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(chunk) = self.chunks.front_mut() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.chunks.pop_front();
            }
            Ok(n)
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        begin_frame(&mut out);
        out.extend_from_slice(payload);
        end_frame(&mut out);
        out
    }

    fn payloads() -> Vec<Vec<u8>> {
        (0..5u8).map(|i| vec![i; 3 + 40 * i as usize]).collect()
    }

    /// Reads every frame, checking each payload, and returns the read
    /// calls it took; the stream must then end cleanly.
    fn read_all(frames: &mut FrameReader<Chunks>, want: &[Vec<u8>]) -> usize {
        for payload in want {
            assert_eq!(frames.next_frame().unwrap(), Some(&payload[..]));
        }
        let reads = frames.inner.reads;
        assert_eq!(frames.next_frame().unwrap(), None);
        reads
    }

    #[test]
    fn frame_reader_takes_one_read_per_frame_at_most() {
        let want = payloads();
        let mut one_per_read = FrameReader::new(Chunks::new(want.iter().map(|p| frame(p))));
        assert_eq!(read_all(&mut one_per_read, &want), want.len());
        let together: Vec<u8> = want.iter().flat_map(|p| frame(p)).collect();
        let mut together = FrameReader::new(Chunks::new([together]));
        assert_eq!(read_all(&mut together, &want), 1);
    }

    #[test]
    fn frame_reader_rebuilds_a_frame_fed_a_byte_at_a_time() {
        let payload: Vec<u8> = (0..=255).collect();
        let bytes = frame(&payload);
        let mut frames = FrameReader::new(Chunks::new(bytes.iter().map(|&b| vec![b])));
        assert_eq!(read_all(&mut frames, &[payload]), bytes.len());
    }

    #[test]
    fn frame_reader_grows_for_a_large_frame_and_keeps_what_follows() {
        let want = vec![vec![7; 3 * FRAME_BUF], vec![9; 5]];
        let bytes: Vec<u8> = want.iter().flat_map(|p| frame(p)).collect();
        let mut frames = FrameReader::new(Chunks::new([bytes]));
        read_all(&mut frames, &want);
        assert_eq!(frames.buf.len(), FRAME_HEADER + 3 * FRAME_BUF);
    }

    #[test]
    fn frame_reader_rejects_oversized_and_truncated_frames() {
        let oversized = (MAX_FRAME + 1).to_le_bytes().to_vec();
        match FrameReader::new(Chunks::new([oversized])).next_frame() {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        let truncated = frame(&[1, 2, 3])[..5].to_vec();
        match FrameReader::new(Chunks::new([truncated])).next_frame() {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected an EOF error, got {other:?}"),
        }
    }

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
        let mut bytes = Vec::new();
        encode_snapshot(&snap, &mut bytes);
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
        let mut body = Vec::new();
        encode_service_error(&e, &mut body);
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
