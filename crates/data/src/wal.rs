//! A crash-safe session write-ahead log.
//!
//! The serving tier's durable state is an append-only event log: plans
//! registered, sessions opened, answers acknowledged, sessions retired.
//! This module owns the **file format** — a service-agnostic event codec —
//! while `aigs-service` owns the semantics (what gets appended when, and
//! how a log replays into a live engine).
//!
//! ## Format
//!
//! A WAL file is a flat sequence of records:
//!
//! ```text
//! ┌────────────┬────────────┬───────────────────┐
//! │ len: u32 LE│ crc32: u32 │ payload (len B)   │   repeated
//! └────────────┴────────────┴───────────────────┘
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. The payload's first byte is
//! an event tag; all integers are little-endian; f64s travel as raw bits so
//! round-trips are **bit-exact** (recovery replays must reproduce the
//! original search transcripts bit-for-bit).
//!
//! ## Torn-write tolerance
//!
//! Appends are a single `write_all` of the encoded record, so a crash can
//! leave at most one torn record at the file tail. [`read_wal`] stops
//! cleanly at the first record whose length runs past EOF, whose CRC does
//! not match, or whose payload does not decode — returning every intact
//! record before it as a **strict prefix** plus a typed
//! [`WalCorruption`] describing the tail. It never panics and never
//! fabricates events (property-tested against truncation and bit flips at
//! every byte offset).
//!
//! The writer never fsyncs on its own: an append hands the record to the
//! OS, and [`SessionWal::sync`] forces it to stable storage. When to sync
//! is the caller's policy.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// One durable engine event.
///
/// Sessions are addressed by their engine slab coordinates
/// `(index, generation)` — the same pair a service bakes into its session
/// ids — so recovery can restore ids verbatim and pre-crash handles keep
/// working. Answer records carry a per-session sequence number, which makes
/// replay idempotent: a snapshot plus an overlapping tail (the compaction
/// crash windows) re-applies each answer at most once.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// File header: the engine identity this log belongs to. Written as the
    /// first record of every WAL/snapshot file; duplicates (snapshot + tail
    /// both carry one) are benign.
    EngineMeta {
        /// Format version (currently [`WAL_VERSION`]).
        version: u16,
        /// The engine nonce baked into every id the engine issued.
        engine_id: u32,
    },
    /// Shard placement header: which shard of how many this log file
    /// belongs to. Written right after [`WalEvent::EngineMeta`] in every
    /// per-shard WAL/snapshot file, so recovery can reject a log that was
    /// copied into the wrong `shard-<k>/` directory (slot indices are
    /// shard-relative — replaying them under the wrong shard would
    /// resurrect sessions at aliased ids) and can tell a deliberately
    /// smaller deployment from a missing shard directory.
    ShardMeta {
        /// This file's shard index (0-based).
        shard: u32,
        /// Total shard count of the engine that wrote it.
        shards: u32,
    },
    /// A plan was registered, with everything needed to rebuild it.
    PlanRegistered {
        /// The plan's registration index.
        plan: u32,
        /// The full plan artifacts (hierarchy, weights, prices, backend).
        payload: PlanPayload,
    },
    /// A session was opened.
    SessionOpened {
        /// Slab slot index.
        index: u32,
        /// Slot generation at open.
        generation: u32,
        /// Registration index of the session's plan.
        plan: u32,
        /// Policy-kind code (service-defined tag + seed).
        kind: KindCode,
    },
    /// An oracle answer was acknowledged.
    Answered {
        /// Slab slot index.
        index: u32,
        /// Slot generation at open.
        generation: u32,
        /// 0-based position of this answer in the session's history.
        seq: u32,
        /// The oracle's verdict.
        yes: bool,
    },
    /// A live session's whole durable state in one record, written by
    /// snapshot compaction: the open plus its answer history, bit-packed on
    /// disk as a `u32` count and `ceil(count / 8)` bytes, least significant
    /// bit first, zero padding. Replay folds it exactly as
    /// [`WalEvent::SessionOpened`] followed by [`WalEvent::Answered`] for
    /// `seq` `0..answers.len()`, so a tail that repeats some of these
    /// answers skips them by sequence number as before.
    SessionSnapshot {
        /// Slab slot index.
        index: u32,
        /// Slot generation at open.
        generation: u32,
        /// Registration index of the session's plan.
        plan: u32,
        /// Policy-kind code (service-defined tag + seed).
        kind: KindCode,
        /// The acknowledged answers, in order (`answers[seq]`).
        answers: Vec<bool>,
    },
    /// The session finished with an outcome.
    Finished {
        /// Slab slot index.
        index: u32,
        /// Slot generation at open.
        generation: u32,
    },
    /// The session was cancelled (or torn down by a search error).
    Cancelled {
        /// Slab slot index.
        index: u32,
        /// Slot generation at open.
        generation: u32,
    },
    /// The session was evicted as idle.
    Evicted {
        /// Slab slot index.
        index: u32,
        /// Slot generation at open.
        generation: u32,
    },
    /// Generation watermark for an **empty** slot, written by snapshot
    /// compaction: every generation below `generation` at this slot has
    /// been retired, and the next session opened there uses `generation`
    /// or later. Without it, compacting away a retired session's history
    /// would let recovery re-issue its `(index, generation)` pair — and a
    /// stale pre-crash id would alias a stranger's session.
    SlotRetired {
        /// Slab slot index.
        index: u32,
        /// The slot's next generation to issue (exclusive retirement
        /// upper bound).
        generation: u32,
    },
}

/// Current WAL format version. Version 2 added [`WalEvent::ShardMeta`]
/// alongside the per-shard log-directory layout; version 3 added
/// [`WalEvent::SessionSnapshot`], which snapshots write in place of a
/// `SessionOpened` + `Answered…` run per live session. Every version-1
/// and version-2 record still decodes, and readers fold all three.
pub const WAL_VERSION: u16 = 3;

/// A service-defined policy selector: a tag plus a seed (zero for unseeded
/// kinds). The WAL does not interpret it; it only round-trips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindCode {
    /// Which policy kind (service-defined enumeration).
    pub tag: u8,
    /// Seed for randomised kinds; 0 otherwise.
    pub seed: u64,
}

/// Everything needed to rebuild a plan's artifacts bit-identically:
/// hierarchy edges in child-list order, the **normalised** weight vector as
/// raw f64 bits, optional per-node prices, and the reachability-backend
/// choice. Node labels are not preserved (they never influence searches).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPayload {
    /// Node count of the hierarchy.
    pub nodes: u32,
    /// Directed edges `(parent, child)` in per-parent child-list order, so
    /// the rebuilt CSR has identical adjacency ordering.
    pub edges: Vec<(u32, u32)>,
    /// The normalised target distribution (adopt verbatim, do not rescale).
    pub weights: Vec<f64>,
    /// Per-node query prices; `None` = uniform.
    pub costs: Option<Vec<f64>>,
    /// Reachability-backend choice tag (service-defined enumeration).
    pub reach_tag: u8,
    /// Interval-backend labeling count (0 unless `reach_tag` says so).
    pub reach_labelings: u32,
    /// Interval-backend seed (0 unless `reach_tag` says so).
    pub reach_seed: u64,
    /// Compiled-tier configuration, if the plan opted in. Encoded as
    /// optional trailing bytes after `reach_seed`, so version-2 logs
    /// written before the compiled tier existed decode to `None`.
    pub compiled: Option<CompiledPayload>,
}

/// Compiled-tier knobs a plan was registered with, exactly as the service
/// resolved them. The WAL does not interpret them; recovery hands them
/// back so the rebuilt plan compiles the identical truncated tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledPayload {
    /// Depth truncation bound; `u32::MAX` encodes "unbounded".
    pub max_depth: u32,
    /// Weight-mass truncation floor (raw f64 bits round-trip exactly).
    pub min_mass: f64,
    /// Flat-node budget; `u64::MAX` encodes "use the compiler default".
    pub max_nodes: u64,
}

/// Why the tail of a WAL could not be read further.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalCorruption {
    /// Byte offset of the first unreadable record.
    pub offset: u64,
    /// Human-readable reason (torn length, CRC mismatch, bad payload…).
    pub reason: String,
}

impl std::fmt::Display for WalCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal corrupt at byte {}: {}", self.offset, self.reason)
    }
}

/// Errors from WAL I/O.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The log is structurally unusable beyond tail truncation (reserved
    /// for callers that treat any corruption as fatal; [`read_wal`] itself
    /// reports tail corruption in-band via [`WalRead::corruption`]).
    Corrupt(WalCorruption),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::Corrupt(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The result of reading a WAL file: every intact event in order, plus the
/// corruption that stopped the read early, if any.
#[derive(Debug)]
pub struct WalRead {
    /// The decoded strict prefix of events.
    pub events: Vec<WalEvent>,
    /// `Some` when the file has a torn or corrupt tail; the events above
    /// are everything before it.
    pub corruption: Option<WalCorruption>,
}

/// An append-only WAL writer.
///
/// Each append encodes the record into a buffer and hands it to the OS in
/// one `write_all`; durability is [`Self::sync`]'s job. Fail-point sites
/// (`wal.append`, `wal.fsync`) let the chaos suite inject torn writes and
/// I/O errors into the *real* append path.
#[derive(Debug)]
pub struct SessionWal {
    file: File,
    path: PathBuf,
    buf: Vec<u8>,
    /// Records accumulated by [`Self::append_buffered`], not yet handed to
    /// the OS.
    batch: Vec<u8>,
}

/// Flush threshold for [`SessionWal::append_buffered`].
const BATCH_FLUSH_BYTES: usize = 256 * 1024;

impl SessionWal {
    /// Creates (truncating) a WAL at `path`.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(SessionWal {
            file,
            path,
            buf: Vec::with_capacity(64),
            batch: Vec::new(),
        })
    }

    /// The file this writer appends to (diagnostics, artifact upload).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and returns the encoded record's byte length. On
    /// error the file may hold a torn record at its tail; the writer must
    /// be considered poisoned (readers stop cleanly at the tear).
    pub fn append(&mut self, event: &WalEvent) -> io::Result<usize> {
        self.buf.clear();
        encode_record(event, &mut self.buf);
        match aigs_testutil::failpoints::hit("wal.append") {
            None => {}
            Some(aigs_testutil::failpoints::FaultAction::IoError) => {
                return Err(io::Error::other("injected wal append failure"));
            }
            Some(aigs_testutil::failpoints::FaultAction::ShortWrite) => {
                // A torn write: persist a strict prefix of the record, then
                // fail as the (simulated) crash would.
                let cut = (self.buf.len() / 2).max(1);
                self.file.write_all(&self.buf[..cut])?;
                return Err(io::Error::other("injected torn wal append"));
            }
            Some(aigs_testutil::failpoints::FaultAction::Panic) => {
                panic!("injected wal append panic");
            }
        }
        self.flush_batch()?; // preserve record order if batched appends mixed in
        self.file.write_all(&self.buf)?;
        Ok(self.buf.len())
    }

    /// Appends one record into an in-memory batch, handing accumulated
    /// bytes to the OS only at the flush threshold and on [`Self::sync`].
    /// Returns the encoded record's byte length. For bulk rewrites
    /// (snapshot compaction) whose files are published atomically *after*
    /// a final sync — unlike [`Self::append`], a crash can lose buffered
    /// records, so never use this for acknowledged per-operation appends.
    pub fn append_buffered(&mut self, event: &WalEvent) -> io::Result<usize> {
        match aigs_testutil::failpoints::hit("wal.append") {
            None => {}
            Some(aigs_testutil::failpoints::FaultAction::IoError) => {
                return Err(io::Error::other("injected wal append failure"));
            }
            Some(aigs_testutil::failpoints::FaultAction::ShortWrite) => {
                let cut = (self.batch.len() / 2).max(1).min(self.batch.len());
                self.file.write_all(&self.batch[..cut])?;
                self.batch.clear();
                return Err(io::Error::other("injected torn wal append"));
            }
            Some(aigs_testutil::failpoints::FaultAction::Panic) => {
                panic!("injected wal append panic");
            }
        }
        let before = self.batch.len();
        encode_record(event, &mut self.batch);
        let encoded = self.batch.len() - before;
        if self.batch.len() >= BATCH_FLUSH_BYTES {
            self.flush_batch()?;
        }
        Ok(encoded)
    }

    fn flush_batch(&mut self) -> io::Result<()> {
        if !self.batch.is_empty() {
            self.file.write_all(&self.batch)?;
            self.batch.clear();
        }
        Ok(())
    }

    /// A cloned handle on the underlying file for callers that fsync off
    /// the append path (group commit): syncing the clone flushes the same
    /// inode's data.
    pub fn sync_handle(&self) -> io::Result<File> {
        self.file.try_clone()
    }

    /// Forces everything appended so far (including buffered batch
    /// records) to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if aigs_testutil::failpoints::hit("wal.fsync").is_some() {
            return Err(io::Error::other("injected wal fsync failure"));
        }
        self.flush_batch()?;
        self.file.sync_data()
    }
}

/// Reads a WAL file, returning the strict prefix of intact events and the
/// tail corruption (if any) in-band. A missing file is an [`WalError::Io`].
pub fn read_wal(path: &Path) -> Result<WalRead, WalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(decode_wal(&bytes))
}

/// Decodes an in-memory WAL image (the core of [`read_wal`], exposed for
/// property tests that corrupt images without touching disk).
pub fn decode_wal(bytes: &[u8]) -> WalRead {
    let mut events = Vec::new();
    let mut off: usize = 0;
    let corrupt = |off: usize, reason: &str| {
        Some(WalCorruption {
            offset: off as u64,
            reason: reason.to_owned(),
        })
    };
    loop {
        if off == bytes.len() {
            return WalRead {
                events,
                corruption: None,
            };
        }
        if bytes.len() - off < 8 {
            return WalRead {
                events,
                corruption: corrupt(off, "torn record header"),
            };
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let want_crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_PAYLOAD {
            return WalRead {
                events,
                corruption: corrupt(off, "record length exceeds format maximum"),
            };
        }
        if bytes.len() - off - 8 < len {
            return WalRead {
                events,
                corruption: corrupt(off, "torn record payload"),
            };
        }
        let payload = &bytes[off + 8..off + 8 + len];
        if crc32(payload) != want_crc {
            return WalRead {
                events,
                corruption: corrupt(off, "record checksum mismatch"),
            };
        }
        match decode_event(payload) {
            Ok(ev) => events.push(ev),
            Err(reason) => {
                return WalRead {
                    events,
                    corruption: corrupt(off, &reason),
                }
            }
        }
        off += 8 + len;
    }
}

/// Hard cap on a single record's payload (64 MiB) so a corrupt length
/// field cannot provoke a pathological allocation.
const MAX_RECORD_PAYLOAD: usize = 64 << 20;

// ---- codec ------------------------------------------------------------

const TAG_META: u8 = 0x01;
const TAG_PLAN: u8 = 0x02;
const TAG_OPENED: u8 = 0x03;
const TAG_ANSWERED: u8 = 0x04;
const TAG_FINISHED: u8 = 0x05;
const TAG_CANCELLED: u8 = 0x06;
const TAG_EVICTED: u8 = 0x07;
const TAG_SLOT_RETIRED: u8 = 0x08;
const TAG_SHARD_META: u8 = 0x09;
const TAG_SESSION_SNAPSHOT: u8 = 0x0A;

fn encode_record(event: &WalEvent, out: &mut Vec<u8>) {
    let base = out.len(); // records may accumulate in one batch buffer
    out.extend_from_slice(&[0; 8]); // len + crc backpatched below
    encode_event(event, out);
    let len = (out.len() - base - 8) as u32;
    let crc = crc32(&out[base + 8..]);
    out[base..base + 4].copy_from_slice(&len.to_le_bytes());
    out[base + 4..base + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes `event` as one framed record appended to `out` (the exact bytes
/// [`SessionWal::append`] writes).
pub fn encode_record_bytes(event: &WalEvent) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(event, &mut out);
    out
}

fn encode_event(event: &WalEvent, out: &mut Vec<u8>) {
    match event {
        WalEvent::EngineMeta { version, engine_id } => {
            out.push(TAG_META);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&engine_id.to_le_bytes());
        }
        WalEvent::ShardMeta { shard, shards } => {
            out.push(TAG_SHARD_META);
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&shards.to_le_bytes());
        }
        WalEvent::PlanRegistered { plan, payload } => {
            out.push(TAG_PLAN);
            out.extend_from_slice(&plan.to_le_bytes());
            out.extend_from_slice(&payload.nodes.to_le_bytes());
            out.extend_from_slice(&(payload.edges.len() as u32).to_le_bytes());
            for &(p, c) in &payload.edges {
                out.extend_from_slice(&p.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
            debug_assert_eq!(payload.weights.len(), payload.nodes as usize);
            for &w in &payload.weights {
                out.extend_from_slice(&w.to_bits().to_le_bytes());
            }
            match &payload.costs {
                None => out.push(0),
                Some(c) => {
                    debug_assert_eq!(c.len(), payload.nodes as usize);
                    out.push(1);
                    for &x in c {
                        out.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
            }
            out.push(payload.reach_tag);
            out.extend_from_slice(&payload.reach_labelings.to_le_bytes());
            out.extend_from_slice(&payload.reach_seed.to_le_bytes());
            // Optional trailing extension: plans without a compiled tier
            // encode byte-identically to pre-compiled-tier logs.
            if let Some(cc) = &payload.compiled {
                out.extend_from_slice(&cc.max_depth.to_le_bytes());
                out.extend_from_slice(&cc.min_mass.to_bits().to_le_bytes());
                out.extend_from_slice(&cc.max_nodes.to_le_bytes());
            }
        }
        WalEvent::SessionOpened {
            index,
            generation,
            plan,
            kind,
        } => {
            out.push(TAG_OPENED);
            encode_open(*index, *generation, *plan, *kind, out);
        }
        WalEvent::SessionSnapshot {
            index,
            generation,
            plan,
            kind,
            answers,
        } => {
            out.push(TAG_SESSION_SNAPSHOT);
            encode_open(*index, *generation, *plan, *kind, out);
            // A history longer than the decoder accepts would make the
            // whole snapshot unreadable; sessions stop far below it (the
            // engine's per-session query cap).
            assert!(
                answers.len() <= MAX_RECORD_PAYLOAD,
                "answer history of {} exceeds the record format",
                answers.len()
            );
            out.extend_from_slice(&(answers.len() as u32).to_le_bytes());
            for chunk in answers.chunks(8) {
                let byte = chunk
                    .iter()
                    .enumerate()
                    .fold(0u8, |b, (i, &yes)| b | (u8::from(yes) << i));
                out.push(byte);
            }
        }
        WalEvent::Answered {
            index,
            generation,
            seq,
            yes,
        } => {
            out.push(TAG_ANSWERED);
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&generation.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.push(u8::from(*yes));
        }
        WalEvent::Finished { index, generation }
        | WalEvent::Cancelled { index, generation }
        | WalEvent::Evicted { index, generation }
        | WalEvent::SlotRetired { index, generation } => {
            out.push(match event {
                WalEvent::Finished { .. } => TAG_FINISHED,
                WalEvent::Cancelled { .. } => TAG_CANCELLED,
                WalEvent::Evicted { .. } => TAG_EVICTED,
                _ => TAG_SLOT_RETIRED,
            });
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&generation.to_le_bytes());
        }
    }
}

fn encode_open(index: u32, generation: u32, plan: u32, kind: KindCode, out: &mut Vec<u8>) {
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&plan.to_le_bytes());
    out.push(kind.tag);
    out.extend_from_slice(&kind.seed.to_le_bytes());
}

/// Decodes a [`WalEvent::SessionSnapshot`]'s bit-packed history: a count
/// above [`MAX_RECORD_PAYLOAD`], a bitmap shorter than the count needs, or
/// a set padding bit in the last byte is corruption.
fn decode_answer_bits(c: &mut Cur<'_>) -> Result<Vec<bool>, String> {
    let count = c.u32()? as usize;
    if count > MAX_RECORD_PAYLOAD {
        return Err("answer count exceeds format maximum".to_owned());
    }
    let bytes = c.take(count.div_ceil(8))?;
    let last_bits = count % 8;
    if last_bits != 0 && bytes[bytes.len() - 1] >> last_bits != 0 {
        return Err("non-zero padding bits in answer bitmap".to_owned());
    }
    Ok((0..count)
        .map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1)
        .collect())
}

/// A cursor over a payload that fails (with a reason) instead of panicking
/// when the payload is shorter than its tag promises.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.b.len() - self.i < n {
            return Err("payload shorter than its event encoding".to_owned());
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn has_more(&self) -> bool {
        self.i < self.b.len()
    }
    fn done(&self) -> Result<(), String> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err("payload longer than its event encoding".to_owned())
        }
    }
}

fn decode_event(payload: &[u8]) -> Result<WalEvent, String> {
    let mut c = Cur { b: payload, i: 0 };
    let tag = c.u8()?;
    let ev = match tag {
        TAG_META => WalEvent::EngineMeta {
            version: c.u16()?,
            engine_id: c.u32()?,
        },
        TAG_SHARD_META => WalEvent::ShardMeta {
            shard: c.u32()?,
            shards: c.u32()?,
        },
        TAG_PLAN => {
            let plan = c.u32()?;
            let nodes = c.u32()?;
            let edge_count = c.u32()? as usize;
            // Cheap structural sanity before allocating.
            if nodes as usize > MAX_RECORD_PAYLOAD / 8 || edge_count > MAX_RECORD_PAYLOAD / 8 {
                return Err("plan payload declares implausible sizes".to_owned());
            }
            let mut edges = Vec::with_capacity(edge_count);
            for _ in 0..edge_count {
                edges.push((c.u32()?, c.u32()?));
            }
            let mut weights = Vec::with_capacity(nodes as usize);
            for _ in 0..nodes {
                weights.push(c.f64()?);
            }
            let costs = match c.u8()? {
                0 => None,
                1 => {
                    let mut v = Vec::with_capacity(nodes as usize);
                    for _ in 0..nodes {
                        v.push(c.f64()?);
                    }
                    Some(v)
                }
                other => return Err(format!("unknown cost tag {other}")),
            };
            let reach_tag = c.u8()?;
            let reach_labelings = c.u32()?;
            let reach_seed = c.u64()?;
            let compiled = if c.has_more() {
                Some(CompiledPayload {
                    max_depth: c.u32()?,
                    min_mass: c.f64()?,
                    max_nodes: c.u64()?,
                })
            } else {
                None
            };
            WalEvent::PlanRegistered {
                plan,
                payload: PlanPayload {
                    nodes,
                    edges,
                    weights,
                    costs,
                    reach_tag,
                    reach_labelings,
                    reach_seed,
                    compiled,
                },
            }
        }
        TAG_OPENED => WalEvent::SessionOpened {
            index: c.u32()?,
            generation: c.u32()?,
            plan: c.u32()?,
            kind: KindCode {
                tag: c.u8()?,
                seed: c.u64()?,
            },
        },
        TAG_SESSION_SNAPSHOT => WalEvent::SessionSnapshot {
            index: c.u32()?,
            generation: c.u32()?,
            plan: c.u32()?,
            kind: KindCode {
                tag: c.u8()?,
                seed: c.u64()?,
            },
            answers: decode_answer_bits(&mut c)?,
        },
        TAG_ANSWERED => WalEvent::Answered {
            index: c.u32()?,
            generation: c.u32()?,
            seq: c.u32()?,
            yes: match c.u8()? {
                0 => false,
                1 => true,
                other => return Err(format!("non-boolean answer byte {other}")),
            },
        },
        TAG_FINISHED => WalEvent::Finished {
            index: c.u32()?,
            generation: c.u32()?,
        },
        TAG_CANCELLED => WalEvent::Cancelled {
            index: c.u32()?,
            generation: c.u32()?,
        },
        TAG_EVICTED => WalEvent::Evicted {
            index: c.u32()?,
            generation: c.u32()?,
        },
        TAG_SLOT_RETIRED => WalEvent::SlotRetired {
            index: c.u32()?,
            generation: c.u32()?,
        },
        other => return Err(format!("unknown event tag {other}")),
    };
    c.done()?;
    Ok(ev)
}

// ---- CRC-32 (IEEE 802.3) ----------------------------------------------

/// Slice-by-8 tables for the reflected IEEE polynomial, built in const
/// context (no dependency, no runtime init): `CRC_TABLES[0]` is the classic
/// byte table, and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// The IEEE CRC-32 of `bytes` (the checksum in every record header).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<WalEvent> {
        vec![
            WalEvent::EngineMeta {
                version: WAL_VERSION,
                engine_id: 42,
            },
            WalEvent::ShardMeta {
                shard: 1,
                shards: 4,
            },
            WalEvent::PlanRegistered {
                plan: 0,
                payload: PlanPayload {
                    nodes: 3,
                    edges: vec![(0, 1), (0, 2)],
                    weights: vec![0.2, 0.3, 0.5],
                    costs: Some(vec![1.0, 2.5, 0.5]),
                    reach_tag: 2,
                    reach_labelings: 2,
                    reach_seed: 0xbeef,
                    compiled: None,
                },
            },
            WalEvent::PlanRegistered {
                plan: 1,
                payload: PlanPayload {
                    nodes: 2,
                    edges: vec![(0, 1)],
                    weights: vec![0.5, 0.5],
                    costs: None,
                    reach_tag: 0,
                    reach_labelings: 0,
                    reach_seed: 0,
                    compiled: Some(CompiledPayload {
                        max_depth: 12,
                        min_mass: 1e-6,
                        max_nodes: u64::MAX,
                    }),
                },
            },
            WalEvent::SessionOpened {
                index: 0,
                generation: 7,
                plan: 0,
                kind: KindCode { tag: 4, seed: 0 },
            },
            WalEvent::Answered {
                index: 0,
                generation: 7,
                seq: 0,
                yes: true,
            },
            WalEvent::Answered {
                index: 0,
                generation: 7,
                seq: 1,
                yes: false,
            },
            WalEvent::Finished {
                index: 0,
                generation: 7,
            },
            WalEvent::SessionSnapshot {
                index: 3,
                generation: 1,
                plan: 1,
                kind: KindCode {
                    tag: 0x88,
                    seed: 0xfeed,
                },
                answers: vec![
                    true, false, false, true, true, false, true, true, false, true,
                ],
            },
            WalEvent::Cancelled {
                index: 1,
                generation: 0,
            },
            WalEvent::Evicted {
                index: 2,
                generation: 3,
            },
            WalEvent::SlotRetired {
                index: 0,
                generation: 8,
            },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bit-at-a-time reflected CRC-32, as the reference the
    /// table-driven [`crc32`] must match bit for bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bitwise_reference() {
        // Lengths 0..=64 pair every remainder after the 8-byte chunks
        // with 0 to 8 whole chunks.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
        // One buffer past 1 MiB, from a xorshift stream.
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let big: Vec<u8> = (0..(1 << 20) + 13)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    #[test]
    fn roundtrip_through_disk() {
        let dir = std::env::temp_dir().join("aigs-wal-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let events = sample_events();
        let mut wal = SessionWal::create(&path).unwrap();
        for e in &events {
            wal.append(e).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let read = read_wal(&path).unwrap();
        assert_eq!(read.events, events);
        assert!(read.corruption.is_none());
        // Weight bits survive exactly.
        let WalEvent::PlanRegistered { payload, .. } = &read.events[2] else {
            panic!("plan event expected");
        };
        assert_eq!(payload.weights[1].to_bits(), 0.3f64.to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compiled_config_is_optional_trailing_bytes() {
        // A plan without a compiled tier must encode byte-identically to
        // logs written before the extension existed, and a plan with one
        // must append exactly the 20-byte trailer.
        let mut payload = PlanPayload {
            nodes: 2,
            edges: vec![(0, 1)],
            weights: vec![0.25, 0.75],
            costs: None,
            reach_tag: 1,
            reach_labelings: 0,
            reach_seed: 0,
            compiled: None,
        };
        let plain = encode_record_bytes(&WalEvent::PlanRegistered {
            plan: 3,
            payload: payload.clone(),
        });
        payload.compiled = Some(CompiledPayload {
            max_depth: u32::MAX,
            min_mass: 0.125,
            max_nodes: 4096,
        });
        let extended = encode_record_bytes(&WalEvent::PlanRegistered {
            plan: 3,
            payload: payload.clone(),
        });
        assert_eq!(extended.len(), plain.len() + 20);

        let read = decode_wal(&extended);
        assert!(read.corruption.is_none());
        let WalEvent::PlanRegistered { payload: got, .. } = &read.events[0] else {
            panic!("plan event expected");
        };
        let cc = got.compiled.expect("compiled trailer decoded");
        assert_eq!(cc.max_depth, u32::MAX);
        assert_eq!(cc.min_mass.to_bits(), 0.125f64.to_bits());
        assert_eq!(cc.max_nodes, 4096);

        let legacy = decode_wal(&plain);
        assert!(legacy.corruption.is_none());
        let WalEvent::PlanRegistered { payload: got, .. } = &legacy.events[0] else {
            panic!("plan event expected");
        };
        assert_eq!(got.compiled, None);
    }

    #[test]
    fn empty_and_missing_files() {
        assert!(matches!(
            read_wal(Path::new("/nonexistent/aigs-wal")),
            Err(WalError::Io(_))
        ));
        let read = decode_wal(&[]);
        assert!(read.events.is_empty() && read.corruption.is_none());
    }

    #[test]
    fn torn_tail_reports_offset() {
        let mut bytes = Vec::new();
        for e in sample_events() {
            bytes.extend_from_slice(&encode_record_bytes(&e));
        }
        let full = decode_wal(&bytes);
        let last = sample_events().last().cloned().expect("non-empty");
        let tail_start = bytes.len() - encode_record_bytes(&last).len();
        let read = decode_wal(&bytes[..bytes.len() - 3]);
        assert_eq!(read.events.len(), full.events.len() - 1);
        let c = read.corruption.expect("torn tail detected");
        assert_eq!(c.offset, tail_start as u64);
        assert!(c.reason.contains("torn"));
    }

    #[test]
    fn implausible_length_is_corruption_not_allocation() {
        let mut bytes = vec![0xFF, 0xFF, 0xFF, 0x7F]; // len = ~2 GiB
        bytes.extend_from_slice(&[0; 12]);
        let read = decode_wal(&bytes);
        assert!(read.events.is_empty());
        assert!(read.corruption.unwrap().reason.contains("maximum"));
    }

    #[test]
    fn valid_crc_bad_payload_is_typed() {
        // A record whose payload decodes to an unknown tag must stop the
        // read with a reason, not panic or fabricate an event.
        let read = decode_wal(&frame(&[0x7F, 1, 2, 3]));
        assert!(read.events.is_empty());
        assert!(read
            .corruption
            .unwrap()
            .reason
            .contains("unknown event tag"));
    }

    fn snapshot_with(answers: Vec<bool>) -> WalEvent {
        WalEvent::SessionSnapshot {
            index: 5,
            generation: 2,
            plan: 0,
            kind: KindCode { tag: 0, seed: 0 },
            answers,
        }
    }

    /// A framed record around a hand-made payload (valid length and CRC).
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn session_snapshot_roundtrips_bit_packed() {
        // 4·n + 64 is the engine's per-session safety cap on a 3 000-node
        // plan, the longest history a snapshot can hold for it.
        for count in [0usize, 1, 7, 8, 9, 155, 4 * 3000 + 64] {
            let answers: Vec<bool> = (0..count).map(|i| (i * 7 + i / 3) % 5 < 2).collect();
            let event = snapshot_with(answers);
            let bytes = encode_record_bytes(&event);
            // Header 8 + tag 1 + open 21 + count 4 + bitmap.
            assert_eq!(
                bytes.len(),
                8 + 1 + 21 + 4 + count.div_ceil(8),
                "count {count}"
            );
            let read = decode_wal(&bytes);
            assert!(read.corruption.is_none(), "count {count}");
            assert_eq!(read.events, vec![event], "count {count}");
        }
        // LSB first: answers [yes, no, yes] pack to 0b101.
        let bytes = encode_record_bytes(&snapshot_with(vec![true, false, true]));
        assert_eq!(bytes[bytes.len() - 5..], [3, 0, 0, 0, 0b101]);
    }

    #[test]
    fn session_snapshot_decoder_rejects_malformed_bitmaps() {
        let good = encode_record_bytes(&snapshot_with(vec![true; 10]));
        let payload = &good[8..];
        let count_at = payload.len() - 2 - 4;
        let reason = |payload: &[u8]| {
            let read = decode_wal(&frame(payload));
            assert!(read.events.is_empty());
            read.corruption.expect("typed corruption").reason
        };
        // Truncated bitmap: the count promises two bytes, one is present.
        assert!(reason(&payload[..payload.len() - 1]).contains("shorter"));
        // A set padding bit past answer 10.
        let mut padded = payload.to_vec();
        *padded.last_mut().unwrap() |= 0x80;
        assert!(reason(&padded).contains("padding"));
        // A count above the record maximum is refused before allocating.
        let mut huge = payload.to_vec();
        huge[count_at..count_at + 4]
            .copy_from_slice(&(MAX_RECORD_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(reason(&huge).contains("maximum"));
        // A bitmap longer than the count needs.
        let mut long = payload.to_vec();
        long.push(0);
        assert!(reason(&long).contains("longer"));
    }
}
