//! Durability wiring: WAL state, event mapping, replay folding, recovery
//! reporting.
//!
//! The [`aigs_data::wal`] crate owns the *file format*; this module owns
//! the *semantics* — which engine operations append which events, how a
//! directory of log files folds back into engine state, and the
//! snapshot-rotation protocol that keeps compaction crash-safe.
//!
//! ## Files
//!
//! A durability directory holds one subdirectory per engine shard —
//! `shard-0/ … shard-<K−1>/` — and each shard directory holds up to three
//! log files, replayed in order:
//!
//! 1. `snapshot.log` — a compacted WAL: engine + shard metadata, the plan
//!    payloads (shard 0 only — plans are global), and one
//!    [`WalEvent::SessionSnapshot`] per live session of that shard (its
//!    open and its bit-packed answer history), capturing the state at the
//!    last compaction. A compaction therefore writes one record per live
//!    session, not one per live answer. Snapshots from format version 2
//!    hold a `SessionOpened` + `Answered…` run per session instead; they
//!    fold to the same state.
//! 2. `wal.log` — the append tail.
//! 3. `wal.new.log` — the rotated tail a compaction switched the writer to
//!    before collecting its snapshot (present only mid-compaction or after
//!    a crash inside one).
//!
//! Slot indices inside a shard's log are **shard-local**; the engine bakes
//! `global = local · K + k` into the ids it issues. Every file opens with
//! [`WalEvent::EngineMeta`] + [`WalEvent::ShardMeta`], so recovery rejects
//! a log copied into the wrong `shard-<k>/` directory instead of
//! resurrecting sessions at aliased ids. Shards compact independently;
//! the rotate→snapshot→publish protocol below runs per shard.
//!
//! Compaction proceeds: rotate the writer to `wal.new.log` → write
//! `snapshot.new.log` from live state → atomically rename it over
//! `snapshot.log` → **fsync the directory** → delete `wal.log` → rename
//! `wal.new.log` to `wal.log` → fsync the directory again. A crash between
//! any two steps leaves a file set whose in-order replay reproduces the
//! same state, because replay is **idempotent**: answers carry per-session
//! sequence numbers (duplicates skip; a `SessionSnapshot`'s answers are
//! sequence numbers `0..len`), re-opens of a live generation skip,
//! and events for stale generations skip. The directory fsyncs order the
//! metadata operations across power loss: the old tail's removal can never
//! outlive the snapshot rename that supersedes it (file-content fsyncs
//! alone do not persist directory entries).
//!
//! Snapshots record every **empty** slot's generation as a
//! [`WalEvent::SlotRetired`] watermark. Compaction trims retired sessions'
//! `Finished`/`Cancelled`/`Evicted` tombstones out of the log, and without
//! the watermark recovery would rebuild those slots at generation 0 —
//! letting a fresh open re-issue a retired `(index, generation)` pair, so
//! a stale pre-crash [`crate::SessionId`] would silently alias a
//! stranger's session.

use std::collections::HashSet;
use std::fmt;
use std::fs::File;
use std::path::Path;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use aigs_core::{AnswerBits, CompiledConfig, NodeWeights, QueryCosts};
use aigs_data::wal::{
    read_wal, CompiledPayload, KindCode, PlanPayload, SessionWal, WalEvent, WAL_VERSION,
};
use aigs_graph::{dag_from_edges, Dag};

use crate::plan::ReachChoice;
use crate::telemetry::ShardTelemetry;
use crate::{PlanSpec, PolicyKind, ServiceError};

pub(crate) const SNAPSHOT_FILE: &str = "snapshot.log";
pub(crate) const TAIL_FILE: &str = "wal.log";
pub(crate) const ROTATED_FILE: &str = "wal.new.log";
pub(crate) const SNAPSHOT_TMP_FILE: &str = "snapshot.new.log";

/// Prefix of per-shard subdirectories inside a durability directory.
pub(crate) const SHARD_DIR_PREFIX: &str = "shard-";

/// The log directory of shard `k` under durability base `dir`.
pub(crate) fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("{SHARD_DIR_PREFIX}{shard}"))
}

/// Enumerates the shard directories present under `dir`: `Ok(k)` when the
/// set is exactly `shard-0 … shard-(k−1)` (k ≥ 1), an error naming the gap
/// or stray entry otherwise — a missing shard means acknowledged sessions
/// are gone, which recovery must refuse to paper over.
pub(crate) fn discover_shards(dir: &Path) -> Result<usize, ServiceError> {
    let entries = std::fs::read_dir(dir).map_err(durability_err)?;
    let mut seen = Vec::new();
    for entry in entries {
        let entry = entry.map_err(durability_err)?;
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix(SHARD_DIR_PREFIX)) else {
            continue; // foreign files are ignored, like before sharding
        };
        let k: usize = rest.parse().map_err(|_| {
            durability_err(format!(
                "unparsable shard directory {:?}",
                entry.file_name()
            ))
        })?;
        seen.push(k);
    }
    if seen.is_empty() {
        return Err(durability_err(format!(
            "no shard-<k> WAL directories found in {}",
            dir.display()
        )));
    }
    seen.sort_unstable();
    for (want, &got) in seen.iter().enumerate() {
        if want != got {
            return Err(durability_err(format!(
                "shard directories are not contiguous in {}: expected shard-{want}, found shard-{got}",
                dir.display()
            )));
        }
    }
    Ok(seen.len())
}

/// When a shard's tail writer calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every record: an acknowledged record survives power loss.
    Always,
    /// Group commit: a background thread syncs once per `n` appends (see
    /// [`DurabilityConfig::fsync`] for the exposure window).
    EveryN(u32),
    /// Never sync explicitly; the OS flushes on its own schedule.
    Never,
}

impl Default for FsyncPolicy {
    /// The measured sweet spot for the 10k-live-session serving bench.
    fn default() -> Self {
        FsyncPolicy::EveryN(256)
    }
}

/// Durability knobs for [`crate::SearchEngine`].
///
/// With a `DurabilityConfig` in [`crate::EngineConfig::durability`], every
/// acknowledged mutating operation (plan registration, session open,
/// answer, finish, cancel, idle eviction) appends an event to a write-ahead
/// log before the caller sees success, and
/// [`crate::SearchEngine::recover`] rebuilds an equivalent engine from the
/// log after a crash — recovered sessions continue with **bit-identical**
/// transcripts, because policies are deterministic functions of (plan,
/// answer history).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the log files (created if missing).
    pub dir: PathBuf,
    /// Fsync batching for the tail writer. With the default
    /// ([`FsyncPolicy::EveryN`]`(256)`) every acknowledged append reaches
    /// the OS inline, and a background group-commit thread forces batches
    /// to stable storage at batch boundaries (signals closer than ~5 ms
    /// coalesce into one flush) and at least every 100 ms when idle — the
    /// serving path never blocks on an fsync. Power-loss exposure is
    /// therefore time-bounded: ~5 ms of acknowledged records under
    /// sustained load, one flush interval when idle. A *process* crash
    /// alone loses nothing the OS accepted. [`FsyncPolicy::Always`] syncs
    /// inline on every append instead.
    pub fsync: FsyncPolicy,
    /// Auto-compaction threshold: when the tail exceeds this many records,
    /// the next mutating operation triggers a snapshot compaction. `None`
    /// leaves compaction to explicit [`crate::SearchEngine::compact`] calls.
    pub snapshot_every: Option<u64>,
}

impl DurabilityConfig {
    /// Durability in `dir` with default fsync batching and auto-compaction
    /// every 65 536 tail records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            snapshot_every: Some(1 << 16),
        }
    }

    /// Overrides the fsync batching policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Overrides (or disables, with `None`) the auto-compaction threshold.
    pub fn with_snapshot_every(mut self, every: Option<u64>) -> Self {
        self.snapshot_every = every;
        self
    }
}

/// What [`crate::SearchEngine::recover`] found and rebuilt.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Shards discovered from the `shard-<k>/` directory layout. Recovery
    /// always rebuilds the engine with this shard count — sessions' ids
    /// bake the routing in, so the count is a property of the log, not of
    /// the recovering process's configuration.
    pub shards: usize,
    /// Plans rebuilt from the log.
    pub plans: usize,
    /// Live sessions restored (steppers replayed to their pre-crash state).
    pub sessions: usize,
    /// Total intact events replayed across all log files.
    pub events: usize,
    /// Sessions present in the log that could not be restored (unknown
    /// policy code, missing plan, or a policy that panicked during replay —
    /// each is retired rather than poisoning the engine).
    pub sessions_failed: usize,
    /// Torn/corrupt log tails encountered (rendered `file: detail`). A
    /// single torn tail on the last file is the expected signature of a
    /// mid-append crash; anything else is listed for the operator.
    pub corruptions: Vec<String>,
    /// Events the replay fold skipped as inconsistent (sequence gaps,
    /// version mismatches). Always empty for logs this crate wrote.
    pub anomalies: Vec<String>,
}

pub(crate) fn durability_err(e: impl fmt::Display) -> ServiceError {
    ServiceError::Durability(e.to_string())
}

/// Fsyncs a directory so the create/rename/remove operations before it
/// survive power loss — fsyncing a file persists its *contents*, but the
/// directory entry pointing at it lives in the directory's own metadata.
/// Called after creating a log file whose appends will be acknowledged,
/// and between ordered publish steps (snapshot rename before tail
/// removal).
pub(crate) fn sync_dir(dir: &Path) -> Result<(), ServiceError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| durability_err(format!("fsync {}: {e}", dir.display())))
}

/// The engine-wide degraded-mode latch, shared across every shard's
/// [`WalState`] and group-commit thread. Beyond the boolean the previous
/// revision kept, it records *when* (engine logical clock) and *why* (the
/// triggering WAL error, verbatim) the engine degraded — surfaced through
/// [`crate::EngineStats::degraded_since`] /
/// [`crate::EngineStats::degraded_reason`] so operators do not have to
/// infer the transition from refused mutators.
pub(crate) struct DegradedState {
    /// Set on the first WAL failure; never cleared.
    flag: AtomicBool,
    /// The engine's logical clock (shared with the engine), read at trip
    /// time to stamp `entered_at`.
    clock: Arc<AtomicU64>,
    entered_at: AtomicU64,
    reason: Mutex<Option<String>>,
}

impl DegradedState {
    pub(crate) fn new(clock: Arc<AtomicU64>) -> Arc<DegradedState> {
        Arc::new(DegradedState {
            flag: AtomicBool::new(false),
            clock,
            entered_at: AtomicU64::new(0),
            reason: Mutex::new(None),
        })
    }

    /// Whether the engine is degraded.
    #[inline]
    pub(crate) fn is(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Latches degraded mode with the triggering error. First caller
    /// wins (the recorded reason is the *original* failure); returns
    /// whether this call performed the transition. Cold path — taken only
    /// on WAL failure.
    pub(crate) fn trip(&self, reason: &str) -> bool {
        let mut guard = self.reason.lock().expect("degraded reason poisoned");
        if self.flag.load(Ordering::Relaxed) {
            return false;
        }
        *guard = Some(reason.to_string());
        self.entered_at
            .store(self.clock.load(Ordering::Relaxed), Ordering::Relaxed);
        self.flag.store(true, Ordering::SeqCst);
        true
    }

    /// `(entered-at clock, triggering error)` when degraded.
    pub(crate) fn entered(&self) -> Option<(u64, String)> {
        if !self.is() {
            return None;
        }
        let reason = self
            .reason
            .lock()
            .expect("degraded reason poisoned")
            .clone()
            .unwrap_or_default();
        Some((self.entered_at.load(Ordering::Relaxed), reason))
    }
}

impl fmt::Debug for DegradedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DegradedState")
            .field("degraded", &self.is())
            .finish_non_exhaustive()
    }
}

/// Idle flush cadence for the group-commit thread: an acknowledged record
/// waits at most this long for stable storage even when the batch never
/// fills.
const FLUSH_INTERVAL: Duration = Duration::from_millis(100);

/// Minimum spacing between group-commit fsyncs. Batch-boundary signals
/// arriving faster than this coalesce into one flush, so the fsync rate —
/// and its interference with foreground appends through the filesystem
/// journal — stays bounded no matter the append throughput. Power-loss
/// exposure under sustained load is therefore ~this interval (plus one
/// fsync), not the batch count.
const MIN_SYNC_SPACING: Duration = Duration::from_millis(5);

/// Background group-commit thread for [`FsyncPolicy::EveryN`]: appends
/// mark the log dirty and signal at batch boundaries; the thread fsyncs a
/// cloned file handle off the serving path. An fsync failure degrades the
/// engine exactly like an inline one.
struct GroupSyncer {
    shared: Arc<SyncShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

struct SyncShared {
    /// Set by every append, cleared by the thread before each fsync.
    dirty: AtomicBool,
    state: Mutex<SyncTarget>,
    cv: Condvar,
}

struct SyncTarget {
    /// The current tail file; follows compaction rotation.
    file: Option<Arc<File>>,
    shutdown: bool,
}

impl GroupSyncer {
    fn spawn(
        file: File,
        degraded: Arc<DegradedState>,
        telemetry: Arc<ShardTelemetry>,
    ) -> GroupSyncer {
        let shared = Arc::new(SyncShared {
            dirty: AtomicBool::new(false),
            state: Mutex::new(SyncTarget {
                file: Some(Arc::new(file)),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("aigs-wal-sync".into())
            .spawn(move || loop {
                let (file, shutdown) = {
                    let guard = worker.state.lock().expect("sync state poisoned");
                    (guard.file.clone(), guard.shutdown)
                };
                if worker.dirty.swap(false, Ordering::AcqRel) {
                    if let Some(file) = file {
                        // Mirrors `SessionWal::sync`, including the chaos
                        // injection site.
                        let timer = telemetry.enabled().then(std::time::Instant::now);
                        let res = if aigs_testutil::failpoints::hit("wal.fsync").is_some() {
                            Err(std::io::Error::other("injected wal fsync failure"))
                        } else {
                            file.sync_data()
                        };
                        match res {
                            Ok(()) => {
                                if let Some(t) = timer {
                                    telemetry.wal_fsync(t.elapsed().as_nanos() as u64);
                                }
                            }
                            Err(e) => {
                                if degraded.trip(&format!("group-commit fsync: {e}")) {
                                    telemetry.wal_degraded();
                                }
                            }
                        }
                    }
                    if shutdown {
                        return;
                    }
                    // Coalesce: batch signals arriving within the spacing
                    // window fold into the next flush, capping the fsync
                    // rate (and its journal interference with foreground
                    // appends) independent of append throughput.
                    std::thread::sleep(MIN_SYNC_SPACING);
                    continue;
                }
                if shutdown {
                    return;
                }
                let guard = worker.state.lock().expect("sync state poisoned");
                if !guard.shutdown {
                    drop(
                        worker
                            .cv
                            .wait_timeout(guard, FLUSH_INTERVAL)
                            .expect("sync state poisoned"),
                    );
                }
            })
            .expect("spawn wal sync thread");
        GroupSyncer {
            shared,
            handle: Some(handle),
        }
    }

    fn mark_dirty(&self) {
        self.shared.dirty.store(true, Ordering::Release);
    }

    fn request_flush(&self) {
        self.shared.cv.notify_one();
    }

    fn retarget(&self, file: File) {
        self.shared.state.lock().expect("sync state poisoned").file = Some(Arc::new(file));
    }
}

impl Drop for GroupSyncer {
    /// Flushes any dirty tail and joins the thread (bounded by one flush
    /// interval plus one fsync).
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .expect("sync state poisoned")
            .shutdown = true;
        self.shared.cv.notify_one();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One shard's handle on its write-ahead log: the tail writer for
/// `shard-<k>/wal.log` plus the compaction flags. `config.dir` IS the
/// shard directory. The degraded flag is shared engine-wide across every
/// shard's `WalState` — a single shard losing its log means *some*
/// acknowledged state can no longer be made durable, so the whole engine
/// refuses further mutations rather than serving a torn view.
///
/// Lock order: slot/plans locks are taken **before** the writer mutex,
/// never after — the writer mutex is a leaf lock. Snapshot collection
/// writes to a private file and never touches the shared writer.
pub(crate) struct WalState {
    pub(crate) config: DurabilityConfig,
    /// Identity baked into every file header this shard writes.
    engine_id: u32,
    shard: u32,
    shards: u32,
    writer: Mutex<SessionWal>,
    /// Records in the current tail since the last rotation (the
    /// auto-compaction trigger).
    pub(crate) tail_records: AtomicU64,
    /// Records appended over the engine's lifetime (surfaced in stats).
    pub(crate) total_records: AtomicU64,
    /// Set on the first append/sync failure (inline or on the group-commit
    /// thread); never cleared. A degraded engine refuses mutating
    /// operations and serves reads only.
    pub(crate) degraded: Arc<DegradedState>,
    /// This shard's metric cell (shared with the engine and the
    /// group-commit thread); records append bytes, fsync batches and
    /// latencies, and degraded transitions.
    telemetry: Arc<ShardTelemetry>,
    /// Guards against concurrent compactions.
    pub(crate) compacting: AtomicBool,
    /// Whether the writer currently sits on `wal.new.log` because a prior
    /// compaction rotated it and then failed before publishing. Rotating
    /// *again* in that state would truncate the live tail and lose
    /// acknowledged records, so [`Self::rotate`] becomes a no-op until
    /// [`Self::publish_snapshot`] folds the file set back.
    rotated: AtomicBool,
    /// Appends since the last group-commit signal (the batch counter for
    /// [`FsyncPolicy::EveryN`]).
    unsynced: AtomicU64,
    /// Present only under [`FsyncPolicy::EveryN`]; joins (after a final
    /// flush) when the `WalState` drops.
    syncer: Option<GroupSyncer>,
}

/// Writes the two-event identity header every per-shard log file opens
/// with. Shared by tail creation, rotation, and the engine's snapshot
/// writer so no file can exist without its placement stamp.
pub(crate) fn write_header(
    wal: &mut SessionWal,
    engine_id: u32,
    shard: u32,
    shards: u32,
) -> std::io::Result<()> {
    wal.append(&WalEvent::EngineMeta {
        version: WAL_VERSION,
        engine_id,
    })?;
    wal.append(&WalEvent::ShardMeta { shard, shards })?;
    Ok(())
}

/// Number of events [`write_header`] emits (the headers count toward the
/// record counters but not toward the auto-compaction payload).
pub(crate) const HEADER_EVENTS: u64 = 2;

impl WalState {
    /// Opens a fresh tail writer in `config.dir` (the shard's directory),
    /// writing the engine+shard identity header. The `degraded` flag is
    /// the engine-wide one, shared across shards. When `wipe` is set (a
    /// brand-new engine, not a recovery), leftover snapshot/rotation files
    /// from any previous tenant of the directory are removed first so
    /// later recoveries cannot splice two engines' histories together.
    pub(crate) fn create(
        config: DurabilityConfig,
        engine_id: u32,
        shard: u32,
        shards: u32,
        degraded: Arc<DegradedState>,
        telemetry: Arc<ShardTelemetry>,
        wipe: bool,
    ) -> Result<Self, ServiceError> {
        std::fs::create_dir_all(&config.dir).map_err(durability_err)?;
        if wipe {
            for stale in [SNAPSHOT_FILE, ROTATED_FILE, SNAPSHOT_TMP_FILE] {
                let _ = std::fs::remove_file(config.dir.join(stale));
            }
        }
        let mut writer = SessionWal::create(config.dir.join(TAIL_FILE)).map_err(durability_err)?;
        write_header(&mut writer, engine_id, shard, shards)
            .and_then(|()| writer.sync())
            .map_err(durability_err)?;
        // Persist the tail's directory entry (and any wipe removals) before
        // acknowledging appends into it.
        sync_dir(&config.dir)?;
        let syncer = match config.fsync {
            FsyncPolicy::EveryN(_) => Some(GroupSyncer::spawn(
                writer.sync_handle().map_err(durability_err)?,
                Arc::clone(&degraded),
                Arc::clone(&telemetry),
            )),
            _ => None,
        };
        Ok(WalState {
            config,
            engine_id,
            shard,
            shards,
            writer: Mutex::new(writer),
            tail_records: AtomicU64::new(HEADER_EVENTS),
            total_records: AtomicU64::new(HEADER_EVENTS),
            degraded,
            telemetry,
            compacting: AtomicBool::new(false),
            rotated: AtomicBool::new(false),
            unsynced: AtomicU64::new(0),
            syncer,
        })
    }

    /// Appends one acknowledged event. Fails with
    /// [`ServiceError::Degraded`] when already degraded, and with
    /// [`ServiceError::Durability`] on the append that *causes* degradation
    /// — in both cases the caller must not acknowledge the operation as
    /// durable.
    pub(crate) fn append(&self, event: &WalEvent) -> Result<(), ServiceError> {
        let mut writer = self.writer.lock().expect("wal writer poisoned");
        if self.degraded.is() {
            return Err(ServiceError::Degraded);
        }
        // Under `Always` the record is acknowledged only once synced; the
        // sync is untimed (telemetry times the group-commit thread's).
        let appended = writer.append(event).and_then(|bytes| {
            if self.config.fsync == FsyncPolicy::Always {
                writer.sync()?;
            }
            Ok(bytes)
        });
        match appended {
            Ok(bytes) => {
                self.tail_records.fetch_add(1, Ordering::Relaxed);
                self.total_records.fetch_add(1, Ordering::Relaxed);
                self.telemetry.wal_append(bytes as u64);
                if let Some(syncer) = &self.syncer {
                    syncer.mark_dirty();
                    if let FsyncPolicy::EveryN(n) = self.config.fsync {
                        if self.unsynced.fetch_add(1, Ordering::Relaxed) + 1 >= u64::from(n.max(1))
                        {
                            self.unsynced.store(0, Ordering::Relaxed);
                            self.telemetry.wal_flush_signal();
                            syncer.request_flush();
                        }
                    }
                }
                Ok(())
            }
            Err(e) => {
                if self
                    .degraded
                    .trip(&format!("wal append (shard {}): {e}", self.shard))
                {
                    self.telemetry.wal_degraded();
                }
                Err(durability_err(e))
            }
        }
    }

    /// Best-effort append for internal teardowns (divergence, panic
    /// quarantine, eviction): degrades on failure but never surfaces an
    /// error — the teardown itself must proceed regardless.
    pub(crate) fn append_best_effort(&self, event: &WalEvent) {
        if self.degraded.is() {
            return;
        }
        let _ = self.append(event);
    }

    /// Compaction step 1: switch the shared writer to `wal.new.log`. On
    /// failure the old writer keeps running — durability is unaffected, the
    /// compaction is simply abandoned.
    pub(crate) fn rotate(&self) -> Result<(), ServiceError> {
        let mut writer = self.writer.lock().expect("wal writer poisoned");
        if self.degraded.is() {
            return Err(ServiceError::Degraded);
        }
        if self.rotated.load(Ordering::Relaxed) {
            // An earlier compaction rotated the writer and then failed
            // before publishing: the live tail IS `wal.new.log`. Re-creating
            // that file would truncate acknowledged records, so keep the
            // current writer; the retried snapshot simply supersedes a
            // slightly larger window (replay is idempotent).
            return Ok(());
        }
        // Flush the outgoing tail before abandoning it: until the snapshot
        // publishes, that file is still part of the replayed history.
        writer.sync().map_err(|e| {
            if self
                .degraded
                .trip(&format!("pre-rotation sync (shard {}): {e}", self.shard))
            {
                self.telemetry.wal_degraded();
            }
            durability_err(e)
        })?;
        let mut rotated =
            SessionWal::create(self.config.dir.join(ROTATED_FILE)).map_err(durability_err)?;
        write_header(&mut rotated, self.engine_id, self.shard, self.shards)
            .and_then(|()| rotated.sync())
            .map_err(durability_err)?;
        // The rotated file's directory entry must be durable before any
        // acknowledged record lands in it; on failure the old writer keeps
        // running and the compaction is abandoned.
        sync_dir(&self.config.dir)?;
        let handle = match &self.syncer {
            Some(_) => Some(rotated.sync_handle().map_err(durability_err)?),
            None => None,
        };
        *writer = rotated;
        if let (Some(syncer), Some(handle)) = (&self.syncer, handle) {
            syncer.retarget(handle);
        }
        self.unsynced.store(0, Ordering::Relaxed);
        self.rotated.store(true, Ordering::Relaxed);
        self.tail_records.store(HEADER_EVENTS, Ordering::Relaxed);
        self.total_records
            .fetch_add(HEADER_EVENTS, Ordering::Relaxed);
        Ok(())
    }

    /// Compaction step 3: publish the completed `snapshot.new.log` and fold
    /// the rotated tail back to the canonical name. Replay stays correct if
    /// a crash interleaves: every intermediate file set replays to the same
    /// state (see the module docs).
    pub(crate) fn publish_snapshot(&self) -> Result<(), ServiceError> {
        // Hold the writer lock so a concurrent rotation cannot interleave
        // with the renames (the writer's fd follows its renamed file).
        let _writer = self.writer.lock().expect("wal writer poisoned");
        let dir = &self.config.dir;
        std::fs::rename(dir.join(SNAPSHOT_TMP_FILE), dir.join(SNAPSHOT_FILE))
            .map_err(durability_err)?;
        // Order across power loss: the snapshot rename must be durable
        // BEFORE the old tail's removal can be — otherwise a crash could
        // persist the removal alone and drop acknowledged records.
        sync_dir(dir)?;
        match std::fs::remove_file(dir.join(TAIL_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(durability_err(e)),
        }
        std::fs::rename(dir.join(ROTATED_FILE), dir.join(TAIL_FILE)).map_err(durability_err)?;
        sync_dir(dir)?;
        self.rotated.store(false, Ordering::Relaxed);
        Ok(())
    }

    /// Forces buffered tail records to stable storage (degrades on
    /// failure, like an append).
    pub(crate) fn sync(&self) -> Result<(), ServiceError> {
        let mut writer = self.writer.lock().expect("wal writer poisoned");
        if self.degraded.is() {
            return Err(ServiceError::Degraded);
        }
        self.unsynced.store(0, Ordering::Relaxed);
        if let Some(syncer) = &self.syncer {
            syncer.shared.dirty.store(false, Ordering::Release);
        }
        let timer = self.telemetry.enabled().then(std::time::Instant::now);
        match writer.sync() {
            Ok(()) => {
                if let Some(t) = timer {
                    self.telemetry.wal_fsync(t.elapsed().as_nanos() as u64);
                }
                Ok(())
            }
            Err(e) => {
                if self
                    .degraded
                    .trip(&format!("wal fsync (shard {}): {e}", self.shard))
                {
                    self.telemetry.wal_degraded();
                }
                Err(durability_err(e))
            }
        }
    }
}

// ---- event mapping -----------------------------------------------------

/// High bit of [`KindCode::tag`]: the session was serving from the
/// compiled tier when the event was written. Recovery restores such
/// sessions by walking the plan's flat array instead of replaying the
/// live policy — same transcript, no policy state. The bit is advisory:
/// a recovering engine whose compiled tier is off (or whose plan no
/// longer compiles) masks it away and replays live, bit-identically.
pub(crate) const COMPILED_MODE_BIT: u8 = 0x80;

/// The kind code for a session in its *current* serving mode. Snapshots
/// re-emit sessions with this, so a session that fell back to the live
/// tier mid-flight is snapshotted as plain live.
pub(crate) fn session_kind_code(kind: PolicyKind, compiled: bool) -> KindCode {
    let mut code = kind_code(kind);
    if compiled {
        code.tag |= COMPILED_MODE_BIT;
    }
    code
}

/// Whether a logged kind code carries the compiled-mode tag.
pub(crate) fn code_is_compiled(code: KindCode) -> bool {
    code.tag & COMPILED_MODE_BIT != 0
}

/// [`PolicyKind`] ↔ wire code. The codes are part of the on-disk format:
/// never renumber, only extend.
pub(crate) fn kind_code(kind: PolicyKind) -> KindCode {
    let (tag, seed) = match kind {
        PolicyKind::TopDown => (0, 0),
        PolicyKind::Migs => (1, 0),
        PolicyKind::Wigs => (2, 0),
        PolicyKind::GreedyTree => (3, 0),
        PolicyKind::GreedyDag => (4, 0),
        PolicyKind::GreedyNaive => (5, 0),
        PolicyKind::CostSensitive => (6, 0),
        PolicyKind::Optimal => (7, 0),
        PolicyKind::Random { seed } => (8, seed),
    };
    KindCode { tag, seed }
}

pub(crate) fn kind_from_code(code: KindCode) -> Option<PolicyKind> {
    Some(match code.tag & !COMPILED_MODE_BIT {
        0 => PolicyKind::TopDown,
        1 => PolicyKind::Migs,
        2 => PolicyKind::Wigs,
        3 => PolicyKind::GreedyTree,
        4 => PolicyKind::GreedyDag,
        5 => PolicyKind::GreedyNaive,
        6 => PolicyKind::CostSensitive,
        7 => PolicyKind::Optimal,
        8 => PolicyKind::Random { seed: code.seed },
        _ => return None,
    })
}

/// [`ReachChoice`] ↔ wire tag (same never-renumber rule).
fn reach_to_wire(reach: ReachChoice) -> (u8, u32, u64) {
    match reach {
        ReachChoice::Auto => (0, 0, 0),
        ReachChoice::Closure => (1, 0, 0),
        ReachChoice::Interval { labelings, seed } => (
            2,
            u32::try_from(labelings).expect("labelings fits u32"),
            seed,
        ),
        ReachChoice::Bfs => (3, 0, 0),
        ReachChoice::None => (4, 0, 0),
    }
}

fn reach_from_wire(tag: u8, labelings: u32, seed: u64) -> Option<ReachChoice> {
    Some(match tag {
        0 => ReachChoice::Auto,
        1 => ReachChoice::Closure,
        2 => ReachChoice::Interval {
            labelings: labelings as usize,
            seed,
        },
        3 => ReachChoice::Bfs,
        4 => ReachChoice::None,
        _ => return None,
    })
}

/// Serialises a plan's artifacts into a self-contained payload. Edges are
/// emitted in per-parent child-list order, which the CSR builder's stable
/// counting sort preserves — so the rebuilt hierarchy has bit-identical
/// adjacency ordering and policies re-derive identical questions.
pub(crate) fn plan_payload(
    dag: &Dag,
    weights: &NodeWeights,
    costs: &QueryCosts,
    reach: ReachChoice,
    compiled: Option<&CompiledConfig>,
) -> PlanPayload {
    let mut edges = Vec::with_capacity(dag.edge_count());
    for u in dag.nodes() {
        for &c in dag.children(u) {
            edges.push((u.0, c.0));
        }
    }
    let (reach_tag, reach_labelings, reach_seed) = reach_to_wire(reach);
    PlanPayload {
        nodes: u32::try_from(dag.node_count()).expect("node count fits u32"),
        edges,
        weights: weights.as_slice().to_vec(),
        costs: match costs {
            QueryCosts::Uniform => None,
            QueryCosts::PerNode(v) => Some(v.clone()),
        },
        reach_tag,
        reach_labelings,
        reach_seed,
        compiled: compiled.map(compiled_to_wire),
    }
}

/// [`CompiledConfig`] → WAL trailer. Sentinels (`u32::MAX` depth,
/// `u64::MAX` nodes) encode the unbounded/default `None`s; the mass floor
/// round-trips as raw bits so recompilation truncates at the identical
/// frontier.
fn compiled_to_wire(cfg: &CompiledConfig) -> CompiledPayload {
    CompiledPayload {
        max_depth: cfg.max_depth.unwrap_or(u32::MAX),
        min_mass: cfg.min_mass,
        max_nodes: cfg
            .max_nodes
            .map_or(u64::MAX, |n| u64::try_from(n).expect("budget fits u64")),
    }
}

fn compiled_from_wire(p: &CompiledPayload) -> CompiledConfig {
    let mut cfg = CompiledConfig::new().with_min_mass(p.min_mass);
    if p.max_depth != u32::MAX {
        cfg = cfg.with_max_depth(p.max_depth);
    }
    if p.max_nodes != u64::MAX {
        cfg = cfg.with_max_nodes(usize::try_from(p.max_nodes).unwrap_or(usize::MAX));
    }
    cfg
}

/// Rebuilds a [`PlanSpec`] from its payload. The weight vector is adopted
/// verbatim ([`NodeWeights::from_normalized`]) — re-normalising would
/// perturb mantissa bits and break transcript-identical recovery.
pub(crate) fn plan_spec_from_payload(p: &PlanPayload) -> Result<PlanSpec, ServiceError> {
    let dag = dag_from_edges(p.nodes as usize, &p.edges)
        .map_err(|e| durability_err(format!("logged plan rejected: {e}")))?;
    let weights = NodeWeights::from_normalized(p.weights.clone())
        .map_err(|e| durability_err(format!("logged weights rejected: {e}")))?;
    let costs = match &p.costs {
        None => QueryCosts::Uniform,
        Some(v) => QueryCosts::PerNode(v.clone()),
    };
    let reach = reach_from_wire(p.reach_tag, p.reach_labelings, p.reach_seed)
        .ok_or_else(|| durability_err(format!("unknown reach tag {}", p.reach_tag)))?;
    Ok(PlanSpec {
        dag: Arc::new(dag),
        weights: Arc::new(weights),
        costs: Arc::new(costs),
        reach,
        compiled: p.compiled.as_ref().map(compiled_from_wire),
    })
}

// ---- reading + replay folding -----------------------------------------

/// All intact events from a durability directory, in replay order, plus
/// per-file tail corruptions.
pub(crate) struct LoggedEvents {
    pub(crate) events: Vec<WalEvent>,
    pub(crate) corruptions: Vec<String>,
}

/// Reads `snapshot.log` → `wal.log` → `wal.new.log`, tolerating missing
/// files and torn tails. Errs only when no log file exists at all.
pub(crate) fn read_dir_logs(dir: &Path) -> Result<LoggedEvents, ServiceError> {
    let mut out = LoggedEvents {
        events: Vec::new(),
        corruptions: Vec::new(),
    };
    let mut found = false;
    for name in [SNAPSHOT_FILE, TAIL_FILE, ROTATED_FILE] {
        let path = dir.join(name);
        if !path.exists() {
            continue;
        }
        found = true;
        let read = read_wal(&path).map_err(durability_err)?;
        out.events.extend(read.events);
        if let Some(c) = read.corruption {
            out.corruptions.push(format!("{name}: {c}"));
        }
    }
    if !found {
        return Err(durability_err(format!("no WAL found in {}", dir.display())));
    }
    Ok(out)
}

/// A session reconstructed by the replay fold, pending policy replay.
pub(crate) struct ReplaySession {
    pub(crate) generation: u32,
    pub(crate) plan: u32,
    pub(crate) kind: KindCode,
    pub(crate) answers: AnswerBits,
}

/// Durable lifecycle counters recovered from the log.
#[derive(Default)]
pub(crate) struct ReplayCounters {
    pub(crate) opened: u64,
    pub(crate) finished: u64,
    pub(crate) cancelled: u64,
    pub(crate) evicted: u64,
}

/// The idempotent event fold: applies a WAL event stream (snapshot + tails,
/// including the duplicated windows a mid-compaction crash leaves) and
/// converges to the engine's acknowledged state.
#[derive(Default)]
pub(crate) struct ReplayState {
    pub(crate) engine_id: Option<u32>,
    /// `(shard, shards)` from the first [`WalEvent::ShardMeta`] seen.
    /// Recovery checks it against the directory the file came from.
    pub(crate) shard_meta: Option<(u32, u32)>,
    /// Plan payloads by registration index (`None` = gap, only possible
    /// with a corrupt snapshot).
    pub(crate) plans: Vec<Option<PlanPayload>>,
    /// Live sessions by slot index.
    pub(crate) sessions: Vec<Option<ReplaySession>>,
    /// Highest generation ever seen per slot index, so recovery can set
    /// empty slots past it and stale pre-crash ids stay rejected.
    pub(crate) max_gen: Vec<Option<u32>>,
    /// Per-slot generation floor from snapshot [`WalEvent::SlotRetired`]
    /// watermarks: every generation below the floor is retired, even when
    /// compaction trimmed the individual tombstones out of the log.
    pub(crate) floors: Vec<u32>,
    retired: HashSet<(u32, u32)>,
    pub(crate) counters: ReplayCounters,
    pub(crate) anomalies: Vec<String>,
    /// First WAL format version seen that this build cannot read.
    /// Recovery fails fast on it — folding on would misattribute the
    /// failure to whatever record happens to be missing downstream.
    pub(crate) unsupported_version: Option<u16>,
}

impl ReplayState {
    /// Sizes the per-slot vectors to cover `index`.
    fn note_slot(&mut self, index: u32) {
        let i = index as usize;
        if self.max_gen.len() <= i {
            self.max_gen.resize(i + 1, None);
        }
        if self.sessions.len() <= i {
            self.sessions.resize_with(i + 1, || None);
        }
        if self.floors.len() <= i {
            self.floors.resize(i + 1, 0);
        }
    }

    fn note_gen(&mut self, index: u32, generation: u32) {
        self.note_slot(index);
        let i = index as usize;
        self.max_gen[i] = Some(self.max_gen[i].map_or(generation, |g| g.max(generation)));
    }

    fn retire(
        &mut self,
        index: u32,
        generation: u32,
        counter: fn(&mut ReplayCounters) -> &mut u64,
    ) {
        self.note_gen(index, generation);
        self.retired.insert((index, generation));
        let slot = &mut self.sessions[index as usize];
        if slot.as_ref().is_some_and(|s| s.generation == generation) {
            *slot = None;
            *counter(&mut self.counters) += 1;
        }
    }

    fn open(&mut self, index: u32, generation: u32, plan: u32, kind: KindCode) {
        self.note_gen(index, generation);
        if self.retired.contains(&(index, generation)) || generation < self.floors[index as usize] {
            return;
        }
        let fresh = ReplaySession {
            generation,
            plan,
            kind,
            answers: AnswerBits::new(),
        };
        let slot = &mut self.sessions[index as usize];
        match slot {
            Some(existing) if existing.generation >= generation => {} // dup/stale
            Some(existing) => {
                // A newer tenant without a logged retire of the old one:
                // cannot happen with this crate's append ordering, but
                // converge on the newer state.
                self.anomalies.push(format!(
                    "slot {index}: generation {} superseded by {generation} \
                     without a retire event",
                    existing.generation
                ));
                *slot = Some(fresh);
            }
            None => {
                *slot = Some(fresh);
                self.counters.opened += 1;
            }
        }
    }

    /// Folds the answers of `run`, numbered from `first_seq`, into one
    /// session exactly as one [`WalEvent::Answered`] per answer in order
    /// would: positions already held are duplicates from an overlap window
    /// and skip, and a run starting past the held history is a gap.
    fn answer_run(
        &mut self,
        index: u32,
        generation: u32,
        first_seq: usize,
        run: impl IntoIterator<Item = bool>,
    ) {
        self.note_gen(index, generation);
        let Some(session) = self.sessions[index as usize]
            .as_mut()
            .filter(|s| s.generation == generation)
        else {
            return; // stale generation or unknown session
        };
        let held = session.answers.len();
        if first_seq > held {
            self.anomalies.push(format!(
                "slot {index} gen {generation}: answer seq {first_seq} skips ahead of {held}"
            ));
        } else {
            session
                .answers
                .extend(run.into_iter().skip(held - first_seq));
        }
    }

    pub(crate) fn apply(&mut self, event: &WalEvent) {
        match event {
            WalEvent::EngineMeta { version, engine_id } => {
                // Version 1 (the pre-shard format) lacks ShardMeta and the
                // shard-<k>/ layout, and version 2 lacks SessionSnapshot:
                // each writes a subset of today's events, so replay accepts
                // both. Anything else is unreadable.
                if !(1..=WAL_VERSION).contains(version) {
                    self.unsupported_version.get_or_insert(*version);
                    self.anomalies
                        .push(format!("unsupported WAL version {version}"));
                    return;
                }
                match self.engine_id {
                    None => self.engine_id = Some(*engine_id),
                    Some(known) if known != *engine_id => self.anomalies.push(format!(
                        "log mixes engines {known} and {engine_id}; keeping {known}"
                    )),
                    Some(_) => {}
                }
            }
            WalEvent::ShardMeta { shard, shards } => match self.shard_meta {
                None => self.shard_meta = Some((*shard, *shards)),
                Some((s, k)) if (s, k) != (*shard, *shards) => self.anomalies.push(format!(
                    "log mixes shard placements {s}/{k} and {shard}/{shards}; keeping {s}/{k}"
                )),
                Some(_) => {}
            },
            WalEvent::PlanRegistered { plan, payload } => {
                let i = *plan as usize;
                if self.plans.len() <= i {
                    self.plans.resize_with(i + 1, || None);
                }
                // Duplicates (snapshot + stale tail) keep the first copy.
                if self.plans[i].is_none() {
                    self.plans[i] = Some(payload.clone());
                }
            }
            WalEvent::SessionOpened {
                index,
                generation,
                plan,
                kind,
            } => self.open(*index, *generation, *plan, *kind),
            WalEvent::SessionSnapshot {
                index,
                generation,
                plan,
                kind,
                answers,
            } => {
                self.open(*index, *generation, *plan, *kind);
                self.answer_run(*index, *generation, 0, answers.iter());
            }
            WalEvent::Answered {
                index,
                generation,
                seq,
                yes,
            } => self.answer_run(*index, *generation, *seq as usize, [*yes]),
            WalEvent::Finished { index, generation } => {
                self.retire(*index, *generation, |c| &mut c.finished);
            }
            WalEvent::Cancelled { index, generation } => {
                self.retire(*index, *generation, |c| &mut c.cancelled);
            }
            WalEvent::Evicted { index, generation } => {
                self.retire(*index, *generation, |c| &mut c.evicted);
            }
            WalEvent::SlotRetired { index, generation } => {
                self.note_slot(*index);
                let i = *index as usize;
                self.floors[i] = self.floors[i].max(*generation);
                // Snapshots emit watermarks only for empty slots and replay
                // first, so a live below-floor session here means a
                // malformed log; converge by dropping it.
                let slot = &mut self.sessions[i];
                if let Some(s) = slot.as_ref() {
                    if s.generation < *generation {
                        self.anomalies.push(format!(
                            "slot {index}: generation {} below retirement watermark {generation}",
                            s.generation
                        ));
                        *slot = None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kind_codes_roundtrip() {
        let kinds = [
            PolicyKind::TopDown,
            PolicyKind::Migs,
            PolicyKind::Wigs,
            PolicyKind::GreedyTree,
            PolicyKind::GreedyDag,
            PolicyKind::GreedyNaive,
            PolicyKind::CostSensitive,
            PolicyKind::Optimal,
            PolicyKind::Random { seed: 0xfeed },
        ];
        for k in kinds {
            assert_eq!(kind_from_code(kind_code(k)), Some(k));
            // The compiled-mode bit is orthogonal to the kind: it decodes
            // to the same kind, and only `code_is_compiled` sees it.
            let tagged = session_kind_code(k, true);
            assert!(code_is_compiled(tagged));
            assert!(!code_is_compiled(session_kind_code(k, false)));
            assert_eq!(kind_from_code(tagged), Some(k));
        }
        assert_eq!(kind_from_code(KindCode { tag: 99, seed: 0 }), None);
    }

    #[test]
    fn reach_wire_roundtrips() {
        for r in [
            ReachChoice::Auto,
            ReachChoice::Closure,
            ReachChoice::Interval {
                labelings: 3,
                seed: 77,
            },
            ReachChoice::Bfs,
            ReachChoice::None,
        ] {
            let (t, l, s) = reach_to_wire(r);
            assert_eq!(reach_from_wire(t, l, s), Some(r));
        }
        assert_eq!(reach_from_wire(200, 0, 0), None);
    }

    #[test]
    fn plan_payload_roundtrips_bit_exactly() {
        let dag = dag_from_edges(5, &[(0, 2), (0, 1), (1, 3), (2, 3), (3, 4)]).unwrap();
        let weights = NodeWeights::from_masses(vec![0.13, 0.27, 0.11, 0.4, 0.09]).unwrap();
        let costs = QueryCosts::PerNode(vec![1.0, 2.0, 0.5, 3.0, 1.5]);
        let reach = ReachChoice::Interval {
            labelings: 2,
            seed: 42,
        };
        let compiled = CompiledConfig::new().with_max_depth(9).with_min_mass(1e-4);
        let payload = plan_payload(&dag, &weights, &costs, reach, Some(&compiled));
        let spec = plan_spec_from_payload(&payload).unwrap();
        assert_eq!(spec.dag.node_count(), 5);
        let cc = spec.compiled.expect("compiled config recovered");
        assert_eq!(cc.max_depth, Some(9));
        assert_eq!(cc.min_mass.to_bits(), 1e-4f64.to_bits());
        assert_eq!(cc.max_nodes, None);
        let plain = plan_payload(&dag, &weights, &costs, reach, None);
        assert_eq!(plan_spec_from_payload(&plain).unwrap().compiled, None);
        // Child-list order preserved (0 → [2, 1] in insertion order).
        assert_eq!(
            spec.dag.children(aigs_graph::NodeId::new(0)),
            dag.children(aigs_graph::NodeId::new(0))
        );
        for (a, b) in weights.as_slice().iter().zip(spec.weights.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(spec.reach, reach);
        assert!(matches!(&*spec.costs, QueryCosts::PerNode(v) if v[3] == 3.0));
    }

    #[test]
    fn replay_fold_is_idempotent_over_overlap_windows() {
        let open = WalEvent::SessionOpened {
            index: 0,
            generation: 2,
            plan: 0,
            kind: kind_code(PolicyKind::GreedyDag),
        };
        let a0 = WalEvent::Answered {
            index: 0,
            generation: 2,
            seq: 0,
            yes: true,
        };
        let a1 = WalEvent::Answered {
            index: 0,
            generation: 2,
            seq: 1,
            yes: false,
        };
        // Snapshot (open + a0 + a1) followed by a stale tail replaying the
        // same open and answers, then fresh progress.
        let a2 = WalEvent::Answered {
            index: 0,
            generation: 2,
            seq: 2,
            yes: true,
        };
        let mut rs = ReplayState::default();
        for ev in [&open, &a0, &a1, &open, &a0, &a1, &a2] {
            rs.apply(ev);
        }
        let s = rs.sessions[0].as_ref().unwrap();
        assert_eq!(s.answers.iter().collect::<Vec<_>>(), [true, false, true]);
        assert_eq!(rs.counters.opened, 1);
        assert!(rs.anomalies.is_empty());

        // Retire, then replay stale events for the dead generation: no
        // resurrection, and a reopened slot at a newer generation is kept.
        rs.apply(&WalEvent::Finished {
            index: 0,
            generation: 2,
        });
        assert!(rs.sessions[0].is_none());
        assert_eq!(rs.counters.finished, 1);
        rs.apply(&open);
        rs.apply(&a0);
        assert!(rs.sessions[0].is_none(), "retired generation resurrected");
        rs.apply(&WalEvent::SessionOpened {
            index: 0,
            generation: 3,
            plan: 0,
            kind: kind_code(PolicyKind::TopDown),
        });
        assert_eq!(rs.sessions[0].as_ref().unwrap().generation, 3);
        assert_eq!(rs.max_gen[0], Some(3));
    }

    #[test]
    fn replay_fold_honours_retirement_watermarks() {
        let mut rs = ReplayState::default();
        rs.apply(&WalEvent::SlotRetired {
            index: 2,
            generation: 4,
        });
        assert_eq!(rs.floors[2], 4);
        // An open below the watermark is stale history — skipped…
        rs.apply(&WalEvent::SessionOpened {
            index: 2,
            generation: 3,
            plan: 0,
            kind: kind_code(PolicyKind::Migs),
        });
        assert!(rs.sessions[2].is_none(), "below-floor open resurrected");
        assert_eq!(rs.counters.opened, 0);
        // …while an open at the watermark (the slot's next generation to
        // issue at snapshot time) lands normally.
        rs.apply(&WalEvent::SessionOpened {
            index: 2,
            generation: 4,
            plan: 0,
            kind: kind_code(PolicyKind::Migs),
        });
        assert_eq!(rs.sessions[2].as_ref().unwrap().generation, 4);
        // A later watermark never regresses an earlier, higher one.
        rs.apply(&WalEvent::SlotRetired {
            index: 2,
            generation: 1,
        });
        assert_eq!(rs.floors[2], 4);
        assert!(rs.sessions[2].is_some(), "at-floor session dropped");
    }

    #[test]
    fn replay_fold_flags_gaps_and_version_skew() {
        let mut rs = ReplayState::default();
        rs.apply(&WalEvent::EngineMeta {
            version: WAL_VERSION + 1,
            engine_id: 9,
        });
        assert_eq!(rs.engine_id, None);
        assert_eq!(rs.unsupported_version, Some(WAL_VERSION + 1));
        rs.apply(&WalEvent::SessionOpened {
            index: 1,
            generation: 0,
            plan: 0,
            kind: kind_code(PolicyKind::Wigs),
        });
        rs.apply(&WalEvent::Answered {
            index: 1,
            generation: 0,
            seq: 5,
            yes: true,
        });
        assert_eq!(rs.anomalies.len(), 2);
        assert!(rs.sessions[1].as_ref().unwrap().answers.is_empty());
    }

    #[test]
    fn replay_fold_accepts_format_v1() {
        // v1 (the pre-shard format) only lacked ShardMeta and the
        // shard-<k>/ layout; its events must replay without anomaly.
        let mut rs = ReplayState::default();
        rs.apply(&WalEvent::EngineMeta {
            version: 1,
            engine_id: 7,
        });
        assert_eq!(rs.engine_id, Some(7));
        assert_eq!(rs.unsupported_version, None);
        assert!(rs.anomalies.is_empty());
    }

    /// Slot 3's session as `(generation, plan, kind, answers)`.
    type FoldedSlot = Option<(u32, u32, KindCode, Vec<bool>)>;

    /// Everything the fold produces for slot 3, comparable.
    fn folded(events: &[WalEvent]) -> (FoldedSlot, u64, Vec<String>) {
        let mut rs = ReplayState::default();
        for ev in events {
            rs.apply(ev);
        }
        let session = rs.sessions[3]
            .as_ref()
            .map(|s| (s.generation, s.plan, s.kind, s.answers.iter().collect()));
        assert_eq!(rs.max_gen[3], Some(5));
        (session, rs.counters.opened, rs.anomalies)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A `SessionSnapshot` folds like the `SessionOpened` + `Answered…`
        /// stream it replaces, whatever surrounds it: a lead of already
        /// logged answers, and a tail that repeats some of its answers
        /// (the overlap a mid-compaction crash leaves) or skips ahead.
        #[test]
        fn session_snapshot_folds_like_open_plus_answers(
            history in prop::collection::vec(prop::bool::ANY, 0..40),
            lead in 0usize..48,
            tail_from in 0usize..48,
            extra in prop::collection::vec(prop::bool::ANY, 0..6),
            reopen in proptest::prelude::prop::bool::ANY,
        ) {
            let (index, generation, plan) = (3, 5, 1);
            let kind = kind_code(PolicyKind::TopDown);
            let open = WalEvent::SessionOpened { index, generation, plan, kind };
            let full: Vec<bool> = history.iter().chain(&extra).copied().collect();
            let answers = |seqs: std::ops::Range<usize>| -> Vec<WalEvent> {
                seqs.map(|seq| WalEvent::Answered {
                    index,
                    generation,
                    seq: seq as u32,
                    yes: full[seq],
                })
                .collect()
            };
            let lead = lead.min(full.len());
            let tail_from = tail_from.min(full.len());
            let mut before = vec![open.clone()];
            before.extend(answers(0..lead));
            let mut tail = Vec::new();
            if reopen {
                tail.push(open.clone());
            }
            tail.extend(answers(tail_from..full.len()));

            let mut snapshot = before.clone();
            snapshot.push(WalEvent::SessionSnapshot {
                index,
                generation,
                plan,
                kind,
                answers: history.iter().copied().collect(),
            });
            snapshot.extend(tail.iter().cloned());
            let mut legacy = before;
            legacy.push(open);
            legacy.extend(answers(0..history.len()));
            legacy.extend(tail);
            let got = folded(&snapshot);
            prop_assert_eq!(&got, &folded(&legacy));
            // Held answers are always a prefix of `full`: the lead, then
            // the snapshot, then the tail when it starts within them.
            let mut held = lead.max(history.len());
            if tail_from <= held {
                held = full.len();
            }
            prop_assert_eq!(got.0.map(|s| s.3), Some(full[..held].to_vec()));
        }
    }
}
