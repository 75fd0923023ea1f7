//! The multi-tenant session engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use aigs_core::{
    AnswerBits, CompiledConfig, CompiledCursor, CompiledPlan, CoreError, SearchOutcome,
    SessionStep, SessionStepper,
};
use aigs_data::wal::{SessionWal, WalEvent, WAL_VERSION};
use aigs_testutil::failpoints::{self, FaultAction};

use crate::durability::{
    code_is_compiled, discover_shards, durability_err, kind_from_code, plan_payload,
    plan_spec_from_payload, read_dir_logs, session_kind_code, shard_dir, sync_dir, DegradedState,
    DurabilityConfig, RecoveryReport, ReplaySession, ReplayState, WalState, ROTATED_FILE,
    SHARD_DIR_PREFIX, SNAPSHOT_FILE, SNAPSHOT_TMP_FILE,
};
use crate::plan::PlanEntry;
use crate::telemetry::{
    self, render_histogram, PredictedCost, ShardTelemetry, SlowOp, TelemetrySnapshot,
};
use crate::{PlanId, PlanSpec, PolicyKind, ServiceError};

/// Default admission limit of [`EngineConfig`].
pub const DEFAULT_MAX_SESSIONS: usize = 65_536;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Admission limit on concurrently live sessions, engine-wide (shards
    /// share one budget). Opening past it fails with
    /// [`ServiceError::AtCapacity`] unless idle eviction frees a slot.
    pub max_sessions: usize,
    /// Idle-eviction threshold on the engine's logical clock (every engine
    /// operation is one tick). A session untouched for this many ticks is
    /// evictable by [`SearchEngine::sweep_idle`] — which also runs when
    /// admission is full. `None` disables eviction: abandoned sessions
    /// then hold their slots until cancelled.
    pub idle_ticks: Option<u64>,
    /// Per-session query cap forwarded to [`SessionStepper::start`] (the
    /// `4·n + 64` safety cap always applies on top).
    pub max_queries: Option<u32>,
    /// How many slab shards the engine runs. Each shard owns its slots,
    /// free list, stats counters, idle list and (with durability on) WAL
    /// tail, so sessions on different shards never contend on a shared
    /// mutator lock. `0` means [`std::thread::available_parallelism`];
    /// the engine writes the resolved count back into its
    /// [`config`](SearchEngine::config). [`SearchEngine::recover`] ignores
    /// this and rebuilds with the shard count the log directory was
    /// written with.
    pub shards: usize,
    /// Optional write-ahead durability: with `Some`, every acknowledged
    /// mutating operation is logged before success is returned, and
    /// [`SearchEngine::recover`] rebuilds the engine after a crash.
    pub durability: Option<DurabilityConfig>,
    /// Which plans serve from the compiled tier (flat decision-tree arrays
    /// instead of live policy steps). See [`CompiledTier`].
    pub compiled: CompiledTier,
    /// Whether the [`crate::telemetry`] hooks record. `None` means on:
    /// the hooks are cheap enough (two relaxed atomic adds per histogram
    /// record) that on is the default.
    pub telemetry: Option<bool>,
    /// Slow-op journal threshold in nanoseconds: a timed operation at
    /// least this slow is kept in its shard's [`crate::telemetry::SlowOp`]
    /// ring. Default [`telemetry::DEFAULT_SLOW_OP_NS`]; `0` journals
    /// every timed operation.
    pub slow_op_ns: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_sessions: DEFAULT_MAX_SESSIONS,
            idle_ticks: None,
            max_queries: None,
            shards: 0,
            durability: None,
            compiled: CompiledTier::PerPlan,
            telemetry: None,
            slow_op_ns: telemetry::DEFAULT_SLOW_OP_NS,
        }
    }
}

/// Engine-wide compiled-tier policy: which plans get their decision trees
/// flattened into serving arrays ([`aigs_core::CompiledPlan`]).
///
/// Compiled sessions step through the flat array — no policy instance, no
/// pool traffic, nanosecond steps — and fall back to the live tier when
/// they cross a truncated tree's frontier. Transcripts are bit-identical
/// either way (differentially tested), so the tier is purely a
/// performance/memory trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompiledTier {
    /// Never compile; every session serves live (plan opt-ins ignored).
    Off,
    /// Compile exactly the plans registered with
    /// [`crate::PlanSpec::with_compiled`]. The production default.
    #[default]
    PerPlan,
    /// Compile every plan (with its own config, or
    /// [`CompiledConfig::default`] when it has none). Meant for test
    /// matrices that want compiled coverage across existing suites.
    All,
}

/// The config [`CompiledTier::All`] compiles non-opted-in plans with.
const DEFAULT_COMPILED: CompiledConfig = CompiledConfig {
    max_depth: None,
    min_mass: 0.0,
    max_nodes: None,
};

/// Resolves [`EngineConfig::shards`]: `0` means the host's parallelism.
fn resolve_shards(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiled tree (if any) that `tier` serves `kind` sessions of `plan`
/// with; `None` means the session serves live. Shared by `open_session`
/// and recovery so both resolve the tier identically.
fn compiled_tree_for(
    tier: CompiledTier,
    plan: &PlanEntry,
    kind: PolicyKind,
) -> Option<Arc<CompiledPlan>> {
    match tier {
        CompiledTier::Off => None,
        CompiledTier::All => plan.compiled_for(kind, Some(&DEFAULT_COMPILED)),
        CompiledTier::PerPlan => plan.compiled_for(kind, None),
    }
}

/// Generational handle to one live session. Stale ids (finished, cancelled
/// or evicted sessions, even after slot reuse) are rejected with
/// [`ServiceError::UnknownSession`], never silently routed to a stranger's
/// search. Like [`crate::PlanId`], the id is scoped to the issuing engine,
/// so it cannot alias a session on a sibling engine either — and
/// [`SearchEngine::recover`] restores the engine's identity, so ids issued
/// before a crash remain valid on the recovered engine.
///
/// The id also encodes its shard: global slot index `i` lives on shard
/// `i mod K` at local slot `i div K`, so routing a session to its shard is
/// arithmetic, not a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    engine: u32,
    index: u32,
    generation: u32,
}

impl SessionId {
    /// Wire decomposition: `(engine, index, generation)`.
    pub(crate) fn parts(self) -> (u32, u32, u32) {
        (self.engine, self.index, self.generation)
    }

    /// Rebuilds an id from its wire decomposition. Forged ids are safe:
    /// every operation validates engine nonce, bounds and generation.
    pub(crate) fn from_parts(engine: u32, index: u32, generation: u32) -> SessionId {
        SessionId {
            engine,
            index,
            generation,
        }
    }
}

/// A point-in-time snapshot of engine activity, aggregated across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Currently live (suspended or mid-step) sessions.
    pub live: usize,
    /// High-water mark of `live`.
    pub peak_live: usize,
    /// Slab shards the engine is running.
    pub shards: usize,
    /// Sessions successfully opened.
    pub opened: u64,
    /// Sessions finished with an outcome.
    pub finished: u64,
    /// Sessions cancelled by their caller.
    pub cancelled: u64,
    /// Sessions evicted as idle.
    pub evicted: u64,
    /// Sessions torn down by a search error (divergence) plus opens refused
    /// by a policy construction error.
    pub errored: u64,
    /// Sessions quarantined because their policy panicked (the panicking
    /// instance is discarded, never re-pooled).
    pub panicked: u64,
    /// `next_question`/`answer` operations served.
    pub steps: u64,
    /// Session opens served by a warm pooled policy instance (the O(Δ)
    /// journal-reset path) rather than a fresh build.
    pub pool_hits: u64,
    /// Steps (`next_question` + `answer`) served from the compiled tier's
    /// flat array, with no policy involvement.
    pub compiled_hits: u64,
    /// Sessions that left the compiled tier for the live one: opened on a
    /// root-truncated tree, or crossed the truncation frontier mid-flight
    /// (the live policy is materialised by replaying the answer history).
    pub compiled_fallbacks: u64,
    /// WAL records appended over the engine's lifetime, summed across
    /// shard logs (0 with durability off).
    pub wal_records: u64,
    /// Whether the engine is in degraded (read-mostly) mode after a WAL
    /// failure on any shard.
    pub degraded: bool,
    /// The engine's logical clock when it degraded (`None` while
    /// healthy).
    pub degraded_since: Option<u64>,
    /// The WAL error that triggered degradation, verbatim (`None` while
    /// healthy).
    pub degraded_reason: Option<String>,
}

/// One shard's slice of [`EngineStats`]: the per-shard counters before
/// they are summed, so shard imbalance (skewed live counts, one shard
/// absorbing the evictions, a single hot log) is observable. Returned by
/// [`SearchEngine::stats_per_shard`] and the wire protocol's shard-stats
/// opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Which shard (0-based).
    pub shard: u32,
    /// Sessions currently live on this shard.
    pub live: u64,
    /// Sessions opened on this shard.
    pub opened: u64,
    /// Sessions finished with an outcome.
    pub finished: u64,
    /// Sessions cancelled by their caller.
    pub cancelled: u64,
    /// Sessions evicted as idle.
    pub evicted: u64,
    /// Sessions torn down by search errors.
    pub errored: u64,
    /// Sessions quarantined by policy panics.
    pub panicked: u64,
    /// `next_question`/`answer` operations served.
    pub steps: u64,
    /// Opens served by a warm pooled instance.
    pub pool_hits: u64,
    /// Steps served from the compiled tier.
    pub compiled_hits: u64,
    /// Sessions that left the compiled tier for the live one.
    pub compiled_fallbacks: u64,
    /// WAL records appended to this shard's log (0 with durability off).
    pub wal_records: u64,
}

/// The stepping state behind one live session: which serving tier it is
/// on. Both tiers produce bit-identical transcripts (differentially
/// tested); they differ only in what state they carry.
enum SessionCore {
    /// Live tier: a (usually pooled) policy instance plus the stepper
    /// driving it.
    Live {
        policy: Box<dyn aigs_core::Policy + Send>,
        stepper: SessionStepper,
    },
    /// Compiled tier: a cursor into the plan's shared flat decision-tree
    /// array. No policy state at all — the cursor is two integers and the
    /// price accumulator, and recovery rebuilds it by walking the array
    /// along the answer history.
    Compiled {
        tree: Arc<CompiledPlan>,
        cursor: CompiledCursor,
    },
}

impl SessionCore {
    fn is_compiled(&self) -> bool {
        matches!(self, SessionCore::Compiled { .. })
    }
}

struct LiveSession {
    plan: Arc<PlanEntry>,
    /// The plan's registration index (what WAL events reference).
    plan_index: u32,
    kind: PolicyKind,
    core: SessionCore,
    /// The acknowledged answer history, one bit per answer — with the plan
    /// and kind, the session's complete durable state (questions re-derive
    /// deterministically on replay).
    answers: AnswerBits,
}

impl LiveSession {
    /// Returns the session's policy instance to its plan's pool (compiled
    /// sessions hold none). Called on every teardown path.
    fn release_policy(self) {
        if let SessionCore::Live { policy, .. } = self.core {
            self.plan.release(self.kind, policy);
        }
    }
}

struct Slot {
    generation: u32,
    session: Option<LiveSession>,
}

/// Slots in a [`SlotTable`]'s first segment; segment `s` holds
/// `FIRST_SEGMENT << s` slots.
const FIRST_SEGMENT: u32 = 64;

/// Segments needed to cover every `u32` local index:
/// `FIRST_SEGMENT · (2^26 − 1) < 2^32 ≤ FIRST_SEGMENT · (2^27 − 1)`.
const SEGMENTS: usize = 27;

/// The segment and offset of local slot `local`. Segment `s` starts at
/// `FIRST_SEGMENT · (2^s − 1)`, so `local + FIRST_SEGMENT` has its highest
/// set bit at `s + log₂ FIRST_SEGMENT`.
fn segment_of(local: u32) -> (usize, usize) {
    let k = u64::from(local) + u64::from(FIRST_SEGMENT);
    let seg = (63 - k.leading_zeros() - FIRST_SEGMENT.trailing_zeros()) as usize;
    (seg, (k - (u64::from(FIRST_SEGMENT) << seg)) as usize)
}

/// A shard's append-only slot slab and its free list.
///
/// Slots live in segments of doubling size (64, 128, 256, …) that are
/// allocated once and never move or shrink, so [`get`](Self::get) hands out
/// a plain `&Mutex<Slot>` after one `Acquire` load and index arithmetic —
/// no table lock and no refcount on the step path.
///
/// Publication ordering: only [`allocate`](Self::allocate) grows the
/// table, under the free-list mutex, so `len` has one writer at a time.
/// It initialises the new slot's segment (`OnceLock`, itself a release)
/// *before* storing the new `len` with `Release`. A reader that sees
/// `local < len` through its `Acquire` load therefore also sees the
/// segment, fully built. An index reaches another thread only after
/// `allocate` returned it (inside a session id, the idle list, or a
/// snapshot's scan up to `len`), so no reader races a slot's creation.
/// Segment slots past `len` stay empty and unreachable until allocated.
struct SlotTable {
    segments: [OnceLock<Box<[Mutex<Slot>]>>; SEGMENTS],
    len: AtomicU32,
    /// Released local indices, reused before the table grows. Its mutex
    /// also serializes growth.
    free: Mutex<Vec<u32>>,
}

impl SlotTable {
    fn new() -> SlotTable {
        SlotTable {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicU32::new(0),
            free: Mutex::new(Vec::new()),
        }
    }

    /// A table holding `slots` at local indices `0..slots.len()`, with
    /// `free` as its free list (recovery's rebuild).
    fn from_slots(slots: Vec<Slot>, free: Vec<u32>) -> SlotTable {
        let table = SlotTable::new();
        for slot in slots {
            let local = table.allocate();
            *table.lock(local) = slot;
        }
        *table.free.lock().expect("free list poisoned") = free;
        table
    }

    /// The number of slots ever allocated (the valid local indices).
    fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }

    /// Slot `local`, or `None` if it was never allocated.
    fn get(&self, local: u32) -> Option<&Mutex<Slot>> {
        if local >= self.len() {
            return None;
        }
        let (seg, off) = segment_of(local);
        let segment = self.segments[seg]
            .get()
            .expect("a published slot's segment exists");
        Some(&segment[off])
    }

    /// Locks slot `local`, which must have been allocated.
    fn lock(&self, local: u32) -> std::sync::MutexGuard<'_, Slot> {
        self.get(local)
            .expect("slot index was allocated")
            .lock()
            .expect("slot lock poisoned")
    }

    /// A free slot's local index: a released one if any, else a new empty
    /// slot at the end (generation 0), allocating its segment on first use.
    fn allocate(&self) -> u32 {
        let mut free = self.free.lock().expect("free list poisoned");
        if let Some(local) = free.pop() {
            return local;
        }
        // The free-list lock held here makes this the only writer of `len`.
        let local = self.len.load(Ordering::Relaxed);
        let next = local.checked_add(1).expect("slot count fits u32");
        let (seg, _) = segment_of(local);
        self.segments[seg].get_or_init(|| {
            (0..FIRST_SEGMENT << seg)
                .map(|_| {
                    Mutex::new(Slot {
                        generation: 0,
                        session: None,
                    })
                })
                .collect()
        });
        self.len.store(next, Ordering::Release);
        local
    }

    /// Returns `local` (emptied by its caller) to the free list.
    fn release(&self, local: u32) {
        self.free.lock().expect("free list poisoned").push(local);
    }
}

/// One node of an [`IdleList`].
#[derive(Clone, Copy)]
struct IdleLink {
    prev: u32,
    next: u32,
    /// The clock value of the session's last touch.
    touched: u64,
}

/// `prev` of a node that is not in its list.
const NIL: u32 = u32::MAX;
const UNLINKED: IdleLink = IdleLink {
    prev: NIL,
    next: NIL,
    touched: 0,
};

/// A shard's live sessions in touch order, linked through per-slot
/// `prev`/`next` indices: touch, unlink and evict are O(1), and there is no
/// stale entry to skip. Local slot `l` is node `l + 1`; node 0 is a
/// sentinel whose `next` is the head (least recently touched) and whose
/// `prev` is the tail.
///
/// Invariants, relied on by [`SearchEngine::evict_expired`]:
/// - a slot is linked exactly while it holds a live session;
/// - every link, move and unlink happens under that slot's lock, so the
///   only lock order is slot → list;
/// - touch values are clock readings taken under the list lock, so list
///   order is touch order and the head is the oldest.
struct IdleList {
    links: Vec<IdleLink>,
}

impl IdleList {
    fn new() -> IdleList {
        let sentinel = IdleLink {
            prev: 0,
            next: 0,
            touched: 0,
        };
        IdleList {
            links: vec![sentinel],
        }
    }

    fn is_linked(&self, local: u32) -> bool {
        let node = local as usize + 1;
        self.links.get(node).is_some_and(|l| l.prev != NIL)
    }

    /// Links `local` as the most recently touched session.
    fn push_tail(&mut self, local: u32, touched: u64) {
        debug_assert!(!self.is_linked(local), "slot {local} linked twice");
        let node = local as usize + 1;
        if node >= self.links.len() {
            self.links.resize(node + 1, UNLINKED);
        }
        let tail = self.links[0].prev;
        self.links[node] = IdleLink {
            prev: tail,
            next: 0,
            touched,
        };
        self.links[tail as usize].next = node as u32;
        self.links[0].prev = node as u32;
    }

    fn unlink(&mut self, local: u32) {
        debug_assert!(self.is_linked(local), "slot {local} is not linked");
        let IdleLink { prev, next, .. } =
            std::mem::replace(&mut self.links[local as usize + 1], UNLINKED);
        self.links[prev as usize].next = next;
        self.links[next as usize].prev = prev;
    }

    /// Moves the linked `local` to the tail, stamped `touched`.
    fn touch(&mut self, local: u32, touched: u64) {
        self.unlink(local);
        self.push_tail(local, touched);
    }

    /// The least recently touched slot and its touch value.
    fn oldest(&self) -> Option<(u32, u64)> {
        let head = self.links[0].next;
        (head != 0).then(|| (head - 1, self.links[head as usize].touched))
    }
}

#[derive(Default)]
struct Counters {
    opened: AtomicU64,
    finished: AtomicU64,
    cancelled: AtomicU64,
    evicted: AtomicU64,
    errored: AtomicU64,
    panicked: AtomicU64,
    pool_hits: AtomicU64,
}

/// One slab shard: slot table (with its free list), idle list, stats and
/// WAL tail, each owned exclusively so mutators on different shards share
/// no locks. A step locks only its session's slot and the idle list: the
/// [`SlotTable`] resolves an index without a lock. The
/// logical clock, live count and degraded flag stay engine-global: the
/// clock so idle ages are comparable across shards (a per-shard clock
/// would let sessions on a quiet shard never age), the live count so
/// `max_sessions` keeps its exact engine-wide meaning.
struct Shard {
    slots: SlotTable,
    /// This shard's live sessions in touch order; `None` when idle
    /// eviction is off. See [`IdleList`] for the invariants.
    idle: Option<Mutex<IdleList>>,
    counters: Counters,
    /// Sessions currently live on this shard (the engine-global `live`
    /// stays the admission budget; this one exists so shard skew is
    /// observable). Incremented by slot allocation, decremented by slot
    /// release — exactly paired on every teardown path.
    live: AtomicU64,
    /// This shard's telemetry cell, shared (`Arc`) with its `WalState` and
    /// group-commit thread.
    telemetry: Arc<ShardTelemetry>,
    wal: Option<WalState>,
}

impl Shard {
    fn empty(telemetry_enabled: bool, track_idle: bool) -> Shard {
        Shard {
            slots: SlotTable::new(),
            idle: track_idle.then(|| Mutex::new(IdleList::new())),
            counters: Counters::default(),
            live: AtomicU64::new(0),
            telemetry: Arc::new(ShardTelemetry::new(telemetry_enabled)),
            wal: None,
        }
    }
}

enum Removal {
    Cancelled,
    Errored,
}

/// A concurrent, suspendable multi-tenant search engine, sharded per core.
///
/// The engine is `Sync`: share it behind an `Arc` (or plain reference) and
/// drive different sessions from as many threads as you like. Session
/// storage is split across [`EngineConfig::shards`] shards, each owning
/// its slots, free list, counters, idle list and WAL tail — so per-session
/// operations lock only that session's slot, admission bookkeeping on
/// different shards never contends, and (with durability on) appends to
/// different shards' logs proceed in parallel instead of serializing on
/// one writer mutex. Plan artifacts are shared engine-wide via `Arc`.
///
/// ### Lifecycle
///
/// [`open_session`](Self::open_session) →
/// ([`next_question`](SessionHandle::next_question) → *ship to oracle,
/// suspend* → [`answer`](SessionHandle::answer))\* →
/// [`finish`](SessionHandle::finish). Sessions that stop answering are
/// reclaimed by idle eviction; sessions whose search errors are torn down
/// individually, returning the [`CoreError`] to their caller only; sessions
/// whose policy *panics* are quarantined the same way (instance discarded,
/// [`ServiceError::PolicyPanicked`] to their caller, everyone else
/// untouched).
///
/// ### Durability
///
/// With [`EngineConfig::durability`] set, acknowledged mutations append to
/// a checksummed write-ahead log (one `shard-<k>/` directory per shard)
/// before returning, periodic snapshots compact each shard's log, and
/// [`recover`](Self::recover) rebuilds the engine from the logs, replaying
/// shards in parallel — recovered sessions continue with transcripts
/// **bit-identical** to an uncrashed run. If any shard's log fails (disk
/// full, I/O error), the whole engine degrades to read-mostly: the failing
/// call gets [`ServiceError::Durability`], later mutating calls get
/// [`ServiceError::Degraded`], while `next_question`,
/// [`stats`](Self::stats) and existing reads keep working. A session whose
/// *applied* answer could not be logged is torn down (never served in a
/// state the log does not acknowledge); recovery restores it at its
/// acknowledged history.
pub struct SearchEngine {
    config: EngineConfig,
    /// Process-unique nonce baked into every id this engine issues, so a
    /// [`PlanId`]/[`SessionId`] presented to a *different* engine is
    /// rejected instead of aliasing that engine's slot at the same index.
    engine_id: u32,
    plans: RwLock<Vec<Arc<PlanEntry>>>,
    shards: Vec<Shard>,
    /// Engine-wide live count (the admission budget) — exact, unlike a
    /// sum of per-shard counts sampled at different instants.
    live: AtomicUsize,
    peak_live: AtomicUsize,
    /// Engine-wide logical clock; see [`Shard`] for why it is not sharded.
    /// Shared (`Arc`) with the degraded latch so WAL failure sites can
    /// stamp their entry time.
    clock: Arc<AtomicU64>,
    /// Round-robin shard placement for new sessions.
    placement: AtomicUsize,
    /// Engine-wide degraded latch (flag + entered-at clock + triggering
    /// error), shared with every shard's [`WalState`].
    degraded: Arc<DegradedState>,
    /// Whether telemetry records (`config.telemetry` resolved once at
    /// construction); gates the hot paths' `Instant::now()` reads.
    telemetry_enabled: bool,
}

/// Issues [`SearchEngine::engine_id`] nonces (process-wide, never zero).
/// [`SearchEngine::recover`] bumps it past recovered ids so later engines
/// cannot collide with a pre-crash engine's identity.
static NEXT_ENGINE_ID: AtomicU32 = AtomicU32::new(1);

impl Default for SearchEngine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl SearchEngine {
    /// An empty engine with the given limits.
    ///
    /// # Panics
    /// Panics when [`EngineConfig::durability`] is set and the log
    /// directory cannot be initialised; use [`try_new`](Self::try_new) to
    /// handle that fallibly.
    pub fn new(config: EngineConfig) -> Self {
        Self::try_new(config).expect("durability init failed; use SearchEngine::try_new")
    }

    /// An empty engine with the given limits, surfacing durability-setup
    /// failures as [`ServiceError::Durability`].
    ///
    /// A fresh engine **owns** its log directory: stale `shard-<k>/`
    /// subdirectories from a previous tenant are removed so a later
    /// recovery cannot splice two engines' histories. To resume from an
    /// existing log, use [`recover`](Self::recover) instead.
    pub fn try_new(mut config: EngineConfig) -> Result<Self, ServiceError> {
        let engine_id = NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed);
        let shard_count = resolve_shards(config.shards);
        config.shards = shard_count;
        let telemetry_enabled = config.telemetry != Some(false);
        let clock = Arc::new(AtomicU64::new(0));
        let degraded = DegradedState::new(Arc::clone(&clock));
        let mut shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard::empty(telemetry_enabled, config.idle_ticks.is_some()))
            .collect();
        if let Some(d) = &config.durability {
            std::fs::create_dir_all(&d.dir).map_err(durability_err)?;
            // Wipe every stale shard directory — including those past the
            // new shard count, which no shard's own wipe would visit.
            for entry in std::fs::read_dir(&d.dir).map_err(durability_err)? {
                let entry = entry.map_err(durability_err)?;
                if entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with(SHARD_DIR_PREFIX))
                {
                    std::fs::remove_dir_all(entry.path()).map_err(durability_err)?;
                }
            }
            for (k, shard) in shards.iter_mut().enumerate() {
                let cfg = DurabilityConfig {
                    dir: shard_dir(&d.dir, k),
                    ..d.clone()
                };
                shard.wal = Some(WalState::create(
                    cfg,
                    engine_id,
                    k as u32,
                    shard_count as u32,
                    Arc::clone(&degraded),
                    Arc::clone(&shard.telemetry),
                    true,
                )?);
            }
            // The shard directories' own entries live in the base dir.
            sync_dir(&d.dir)?;
        }
        Ok(SearchEngine {
            config,
            engine_id,
            plans: RwLock::new(Vec::new()),
            shards,
            live: AtomicUsize::new(0),
            peak_live: AtomicUsize::new(0),
            clock,
            placement: AtomicUsize::new(0),
            degraded,
            telemetry_enabled,
        })
    }

    /// Rebuilds an engine from the write-ahead logs in `dir` with default
    /// limits. See [`recover_with`](Self::recover_with).
    pub fn recover(dir: impl Into<PathBuf>) -> Result<(Self, RecoveryReport), ServiceError> {
        let config = EngineConfig {
            durability: Some(DurabilityConfig::new(dir)),
            ..EngineConfig::default()
        };
        Self::recover_with(config)
    }

    /// Rebuilds an engine from the write-ahead logs named by
    /// `config.durability` (required). The shard count comes from the
    /// `shard-<k>/` directory layout, overriding [`EngineConfig::shards`]
    /// — live ids bake the routing in, so it is a property of the log.
    ///
    /// Shard 0's log is folded first (it alone carries the plan payloads,
    /// rebuilt bit-identically); then every shard's sessions are restored
    /// **in parallel**, one thread per shard, each replaying its
    /// acknowledged answer histories through fresh [`SessionStepper`]s:
    /// because policies are deterministic, a recovered session's
    /// continuation transcript is **bit-identical** to the uncrashed
    /// run's. The engine's identity is restored too, so
    /// [`SessionId`]s/[`PlanId`]s issued before the crash keep working.
    ///
    /// Torn log tails (the signature of a mid-append crash) are tolerated
    /// and reported in the [`RecoveryReport`]; individually unrestorable
    /// sessions (e.g. a policy that deterministically panics mid-replay)
    /// are retired and counted rather than poisoning the engine. A log
    /// whose recorded shard placement contradicts the directory it sits in
    /// is rejected outright — replaying shard-local indices under the
    /// wrong shard would resurrect sessions at aliased ids. After a
    /// successful recovery every shard directory is compacted to a fresh
    /// snapshot + empty tail.
    pub fn recover_with(mut config: EngineConfig) -> Result<(Self, RecoveryReport), ServiceError> {
        let Some(durability) = config.durability.clone() else {
            return Err(durability_err(
                "recover_with requires EngineConfig::durability",
            ));
        };
        let shard_count = discover_shards(&durability.dir)?;
        config.shards = shard_count;
        let mut report = RecoveryReport {
            shards: shard_count,
            ..RecoveryReport::default()
        };

        // Phase A: fold shard 0 — the only log carrying engine identity
        // authority and the plan payloads sessions on every shard need.
        let (rs0, events0, corruptions0) = fold_shard_logs(&durability.dir, 0, shard_count)?;
        report.events += events0;
        report.corruptions.extend(corruptions0);
        let engine_id = rs0
            .engine_id
            .ok_or_else(|| durability_err("log contains no engine metadata"))?;
        // Keep later same-process engines from colliding with this identity.
        NEXT_ENGINE_ID.fetch_max(engine_id.wrapping_add(1), Ordering::Relaxed);

        // Plans must be gap-free: sessions reference them by index.
        let mut plans = Vec::with_capacity(rs0.plans.len());
        for (i, payload) in rs0.plans.iter().enumerate() {
            let Some(payload) = payload else {
                return Err(durability_err(format!(
                    "plan {i} is missing from the log (corrupt snapshot?)"
                )));
            };
            let spec = plan_spec_from_payload(payload)?;
            plans.push(Arc::new(PlanEntry::build(spec)?));
        }
        report.plans = plans.len();

        // Phase B: restore every shard's sessions in parallel — policy
        // replay dominates recovery time and shards share nothing here.
        let track_idle = config.idle_ticks.is_some();
        let max_queries = config.max_queries;
        let tier = config.compiled;
        let parts: Vec<Result<ShardParts, ServiceError>> = std::thread::scope(|scope| {
            let plans = &plans;
            let dir = &durability.dir;
            let handles: Vec<_> = (1..shard_count)
                .map(|k| {
                    scope.spawn(move || {
                        let (rs, events, corruptions) = fold_shard_logs(dir, k, shard_count)?;
                        if rs.engine_id.is_some_and(|id| id != engine_id) {
                            return Err(durability_err(format!(
                                "shard-{k} log belongs to engine {}, expected {engine_id}",
                                rs.engine_id.unwrap_or(0)
                            )));
                        }
                        Ok(restore_shard(
                            rs,
                            events,
                            corruptions,
                            plans,
                            max_queries,
                            tier,
                            track_idle,
                        ))
                    })
                })
                .collect();
            let mut parts = vec![Ok(restore_shard(
                rs0,
                0,
                Vec::new(),
                plans,
                max_queries,
                tier,
                track_idle,
            ))];
            for handle in handles {
                parts.push(handle.join().expect("shard recovery thread panicked"));
            }
            parts
        });

        let telemetry_enabled = config.telemetry != Some(false);
        let clock = Arc::new(AtomicU64::new(0));
        let degraded = DegradedState::new(Arc::clone(&clock));
        let recover_timer = telemetry_enabled.then(std::time::Instant::now);
        let mut shards = Vec::with_capacity(shard_count);
        let mut live = 0usize;
        for (k, part) in parts.into_iter().enumerate() {
            let part = part?;
            live += part.live;
            report.sessions += part.restored;
            report.sessions_failed += part.failed;
            report.events += part.events;
            report.corruptions.extend(
                part.corruptions
                    .into_iter()
                    .map(|c| format!("shard-{k}/{c}")),
            );
            report.anomalies.extend(
                part.anomalies
                    .into_iter()
                    .map(|a| format!("shard-{k}: {a}")),
            );
            let counters = Counters::default();
            counters.opened.store(part.opened, Ordering::Relaxed);
            counters.finished.store(part.finished, Ordering::Relaxed);
            counters.cancelled.store(part.cancelled, Ordering::Relaxed);
            counters.evicted.store(part.evicted, Ordering::Relaxed);
            shards.push(Shard {
                slots: SlotTable::from_slots(part.slots, part.free),
                idle: part.idle.map(Mutex::new),
                counters,
                live: AtomicU64::new(part.live as u64),
                telemetry: Arc::new(ShardTelemetry::new(telemetry_enabled)),
                wal: None,
            });
        }

        let mut engine = SearchEngine {
            config,
            engine_id,
            plans: RwLock::new(plans),
            shards,
            live: AtomicUsize::new(live),
            peak_live: AtomicUsize::new(live),
            clock,
            placement: AtomicUsize::new(0),
            degraded: Arc::clone(&degraded),
            telemetry_enabled,
        };

        // Re-establish durability deterministically, shard by shard:
        // snapshot the recovered state, publish it, then open a fresh tail
        // — whatever file set the crash left behind is superseded.
        for k in 0..shard_count {
            let sdir = shard_dir(&durability.dir, k);
            let tmp = sdir.join(SNAPSHOT_TMP_FILE);
            engine.write_shard_snapshot(&tmp, k)?;
            std::fs::rename(&tmp, sdir.join(SNAPSHOT_FILE)).map_err(durability_err)?;
            // The rename must be durable before the fresh tail below
            // truncates the old one: a crash persisting the truncation
            // without the rename would drop acknowledged records.
            sync_dir(&sdir)?;
            let _ = std::fs::remove_file(sdir.join(ROTATED_FILE));
            let cfg = DurabilityConfig {
                dir: sdir,
                ..durability.clone()
            };
            engine.shards[k].wal = Some(WalState::create(
                cfg,
                engine_id,
                k as u32,
                shard_count as u32,
                Arc::clone(&degraded),
                Arc::clone(&engine.shards[k].telemetry),
                false,
            )?);
        }
        // One count and one wall-clock observation for the whole recovery,
        // on shard 0's cell (it exists even for a 1-shard engine).
        engine.shards[0]
            .telemetry
            .count_op(telemetry::Op::Recover, telemetry::Tier::Live, None);
        if let Some(t) = recover_timer {
            engine.shards[0].telemetry.record_duration(
                telemetry::Op::Recover,
                telemetry::Tier::Live,
                t.elapsed().as_nanos() as u64,
            );
        }
        Ok((engine, report))
    }

    /// The engine's configuration (with [`EngineConfig::shards`] resolved
    /// to the actual shard count).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Registers a plan (hierarchy + distribution + prices + backend
    /// choice), building its shared reachability index once. Fails with
    /// [`ServiceError::Core`] when the spec is inconsistent (e.g. weight
    /// vector length mismatch). With durability on, the full plan payload
    /// is logged to **shard 0** (plans are global; one authoritative copy
    /// avoids cross-file ordering anomalies) and fsynced inline — plan
    /// registration is rare — before the id is returned, so recovery is
    /// self-contained.
    pub fn register_plan(&self, spec: PlanSpec) -> Result<PlanId, ServiceError> {
        self.check_active()?;
        let entry = Arc::new(PlanEntry::build(spec)?);
        let mut plans = self.plans.write().expect("plans lock poisoned");
        let index = u32::try_from(plans.len()).expect("plan count fits u32");
        if let Some(wal) = &self.shards[0].wal {
            let (dag, weights, costs, reach, compiled) = entry.artifacts();
            wal.append(&WalEvent::PlanRegistered {
                plan: index,
                payload: plan_payload(dag, weights, costs, reach, compiled),
            })?;
            wal.sync()?;
        }
        plans.push(entry);
        Ok(PlanId {
            engine: self.engine_id,
            index,
        })
    }

    /// Opens a suspended session for `kind` on `plan`, placing it on the
    /// next shard round-robin.
    ///
    /// Policy instances come from the plan's pool when warm (journal reset,
    /// O(Δ)); construction/reset failures — an oversized
    /// [`PolicyKind::Optimal`] instance, [`PolicyKind::GreedyTree`] on a
    /// DAG — surface as [`ServiceError::Core`] to this caller alone. At the
    /// admission limit every shard's idle list is drained of expired
    /// sessions first (O(1) per eviction); if nothing is reclaimable
    /// the open fails with [`ServiceError::AtCapacity`], whose
    /// `retryable`/`oldest_idle` fields tell the caller whether and when
    /// backing off can help.
    pub fn open_session(
        &self,
        plan: PlanId,
        kind: PolicyKind,
    ) -> Result<SessionHandle<'_>, ServiceError> {
        self.check_active()?;
        let timer = self.op_timer();
        self.tick();
        if plan.engine != self.engine_id {
            return Err(ServiceError::UnknownPlan(plan));
        }
        let plan_entry = {
            let plans = self.plans.read().expect("plans lock poisoned");
            plans
                .get(plan.index as usize)
                .cloned()
                .ok_or(ServiceError::UnknownPlan(plan))?
        };

        // Reserve a live slot, reclaiming expired sessions when full.
        if !self.reserve_live() {
            let mut oldest_idle = None;
            for shard in &self.shards {
                let (_, oldest) = self.evict_expired(shard);
                oldest_idle = oldest_idle.max(oldest);
            }
            if !self.reserve_live() {
                return Err(ServiceError::AtCapacity {
                    live: self.live.load(Ordering::Relaxed),
                    limit: self.config.max_sessions,
                    retryable: self.config.idle_ticks.is_some(),
                    oldest_idle,
                });
            }
        }

        let shard_k = self.placement.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[shard_k];
        // Compiled tier first: a hot plan serves from its flat array with no
        // policy instance and no pool traffic at all.
        let mut opened_tier = telemetry::Tier::Live;
        let compiled =
            compiled_tree_for(self.config.compiled, &plan_entry, kind).and_then(|tree| {
                let cursor = tree.cursor(&plan_entry.ctx(), self.config.max_queries);
                if cursor.needs_fallback() {
                    // Truncated at the root (e.g. `max_depth` 0): nothing
                    // compiled to serve, so this session opens live.
                    opened_tier = telemetry::Tier::Fallback;
                    None
                } else {
                    opened_tier = telemetry::Tier::Compiled;
                    Some(SessionCore::Compiled { tree, cursor })
                }
            });
        let core = match compiled {
            Some(core) => core,
            None => {
                let (mut policy, pool_hit) = plan_entry.acquire(kind);
                let started = catch_unwind(AssertUnwindSafe(|| {
                    if matches!(failpoints::hit("engine.policy"), Some(FaultAction::Panic)) {
                        panic!("injected policy panic");
                    }
                    SessionStepper::start(
                        policy.as_mut(),
                        &plan_entry.ctx(),
                        self.config.max_queries,
                    )
                }));
                let stepper = match started {
                    Ok(Ok(s)) => s,
                    Ok(Err(e)) => {
                        // A failed reset leaves the instance in an unknown
                        // state: drop it rather than re-pool it, release the
                        // reservation, and hand the error to this caller only.
                        self.live.fetch_sub(1, Ordering::Relaxed);
                        shard.counters.errored.fetch_add(1, Ordering::Relaxed);
                        return Err(e.into());
                    }
                    Err(_) => {
                        // Panic during construction: quarantine the instance.
                        self.live.fetch_sub(1, Ordering::Relaxed);
                        shard.counters.panicked.fetch_add(1, Ordering::Relaxed);
                        return Err(ServiceError::PolicyPanicked);
                    }
                };
                if pool_hit {
                    shard.counters.pool_hits.fetch_add(1, Ordering::Relaxed);
                }
                SessionCore::Live { policy, stepper }
            }
        };

        let session = LiveSession {
            plan: plan_entry,
            plan_index: plan.index,
            kind,
            core,
            answers: AnswerBits::new(),
        };
        let local = allocate_slot(shard);
        let generation = {
            let mut slot = shard.slots.lock(local);
            debug_assert!(slot.session.is_none(), "free list handed out a live slot");
            // Log before publishing: on failure the caller never saw an id,
            // so nothing durable or visible changed.
            if let Some(wal) = &shard.wal {
                if let Err(e) = wal.append(&WalEvent::SessionOpened {
                    index: local,
                    generation: slot.generation,
                    plan: plan.index,
                    kind: session_kind_code(kind, session.core.is_compiled()),
                }) {
                    drop(slot);
                    self.release_slot(shard, local);
                    shard.counters.errored.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            }
            slot.session = Some(session);
            if let Some(idle) = &shard.idle {
                // Stamped with a clock reading taken under the list lock
                // (this open ticked before admission), so list order stays
                // touch order.
                let mut list = idle.lock().expect("idle list poisoned");
                list.push_tail(local, self.clock.load(Ordering::Relaxed));
            }
            slot.generation
        };
        shard.counters.opened.fetch_add(1, Ordering::Relaxed);
        self.record_op(shard_k, telemetry::Op::Open, opened_tier, kind, timer);
        self.maybe_autocompact(shard_k);
        Ok(SessionHandle {
            engine: self,
            id: SessionId {
                engine: self.engine_id,
                index: local * self.shards.len() as u32 + shard_k as u32,
                generation,
            },
        })
    }

    /// Reattaches to a live session by id (e.g. after the id travelled
    /// through a task queue). The id is validated lazily by the next
    /// operation.
    pub fn session(&self, id: SessionId) -> SessionHandle<'_> {
        SessionHandle { engine: self, id }
    }

    /// What session `id` needs next — a question to forward to its oracle,
    /// or its resolved target. A session that exhausts its query cap is
    /// torn down (its policy instance returns to the pool) and
    /// [`CoreError::Diverged`] is returned to this caller; every other
    /// session is untouched. Works in degraded mode: question derivation is
    /// deterministic, so it never needs the log.
    pub fn next_question(&self, id: SessionId) -> Result<SessionStep, ServiceError> {
        let timer = self.op_timer();
        let (shard_k, step, kind) = self.step_session(
            id,
            |s| {
                let LiveSession { plan, core, .. } = s;
                match core {
                    SessionCore::Live { policy, stepper } => stepper
                        .next_question(policy.as_mut(), &plan.ctx())
                        .map(|step| (step, false)),
                    SessionCore::Compiled { tree, cursor } => {
                        cursor.next_question(tree).map(|step| (step, true))
                    }
                }
            },
            |_, _| None,
        )?;
        let tier = match &step {
            Ok((_, true)) => telemetry::Tier::Compiled,
            _ => telemetry::Tier::Live,
        };
        self.record_op(shard_k, telemetry::Op::Next, tier, kind, timer);
        match step {
            Ok((step, _)) => Ok(step),
            Err(e @ CoreError::Diverged { .. }) => {
                // The search ran out of budget: reclaim the slot. The policy
                // itself is healthy (divergence is a budget condition), so it
                // may re-enter the pool.
                let _ = self.remove(id, Removal::Errored);
                Err(e.into())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Feeds the oracle's answer for the pending question of session `id`.
    /// Answering with no question outstanding is a recoverable protocol
    /// error ([`CoreError::SessionMisuse`]); the session stays live. With
    /// durability on, the answer is logged (under the session's lock, so
    /// log order matches apply order) before the call returns — a
    /// [`ServiceError::Durability`] return means the answer was **not**
    /// durably acknowledged: the engine has degraded and the session is
    /// torn down (its in-memory state already held the unlogged answer, so
    /// leaving it live would let degraded-mode reads diverge from what
    /// recovery replays). [`SearchEngine::recover`] resurrects it at its
    /// acknowledged answer history.
    pub fn answer(&self, id: SessionId, yes: bool) -> Result<(), ServiceError> {
        self.check_active()?;
        let timer = self.op_timer();
        let max_queries = self.config.max_queries;
        let (shard_k, fed, kind) = self.step_session(
            id,
            |s| {
                let LiveSession {
                    plan,
                    kind,
                    core,
                    answers,
                    ..
                } = s;
                let tier = match core {
                    SessionCore::Live { policy, stepper } => {
                        stepper.answer(policy.as_mut(), &plan.ctx(), yes)?;
                        answers.push(yes);
                        telemetry::Tier::Live
                    }
                    SessionCore::Compiled { tree, cursor } => {
                        cursor.answer(tree, &plan.ctx(), yes)?;
                        answers.push(yes);
                        if cursor.needs_fallback() {
                            // Crossed the truncation frontier: materialise
                            // the live policy by replaying the acknowledged
                            // answer history. Policies are deterministic, so
                            // the transcript continues bit-identically — the
                            // tier switch is invisible to the caller.
                            let (mut policy, _) = plan.acquire(*kind);
                            let stepper = SessionStepper::replay(
                                policy.as_mut(),
                                &plan.ctx(),
                                max_queries,
                                answers.iter(),
                            )?;
                            *core = SessionCore::Live { policy, stepper };
                            telemetry::Tier::Fallback
                        } else {
                            telemetry::Tier::Compiled
                        }
                    }
                };
                Ok((
                    u32::try_from(answers.len() - 1).expect("answer count fits u32"),
                    tier,
                ))
            },
            |(seq, _), local| {
                Some(WalEvent::Answered {
                    index: local,
                    generation: id.generation,
                    seq: *seq,
                    yes,
                })
            },
        )?;
        let tier = match &fed {
            Ok((_, tier)) => *tier,
            Err(_) => telemetry::Tier::Live,
        };
        self.record_op(shard_k, telemetry::Op::Answer, tier, kind, timer);
        fed.map_err(ServiceError::from)?;
        self.maybe_autocompact(shard_k);
        Ok(())
    }

    /// Completes a resolved session: returns its [`SearchOutcome`], frees
    /// the slot and returns the policy instance to the plan's pool. While
    /// unresolved this errs with [`CoreError::SessionMisuse`] and the
    /// session stays live — as it does if the completion cannot be durably
    /// logged ([`ServiceError::Durability`]).
    pub fn finish(&self, id: SessionId) -> Result<SearchOutcome, ServiceError> {
        self.check_active()?;
        let timer = self.op_timer();
        // Probe resolution and take the session under ONE slot-lock
        // acquisition: a probe-then-remove pair would let a concurrent
        // cancel/evict slip between the two and discard the outcome.
        let (shard_k, local, slot) = self.locate(id)?;
        let shard = &self.shards[shard_k];
        let (outcome, session) = {
            let mut slot = slot.lock().expect("slot lock poisoned");
            if slot.generation != id.generation {
                return Err(ServiceError::UnknownSession(id));
            }
            let session = slot
                .session
                .as_mut()
                .ok_or(ServiceError::UnknownSession(id))?;
            // A finish that fails leaves the session live, linked and
            // freshly touched.
            self.touch(shard, local);
            let finished = catch_unwind(AssertUnwindSafe(|| {
                if matches!(failpoints::hit("engine.policy"), Some(FaultAction::Panic)) {
                    panic!("injected policy panic");
                }
                match &session.core {
                    SessionCore::Live { policy, stepper } => stepper.finish(policy.as_ref()),
                    SessionCore::Compiled { cursor, .. } => cursor.finish(),
                }
            }));
            let outcome = match finished {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(e)) => return Err(e.into()),
                Err(_) => return self.quarantine(shard_k, local, slot),
            };
            if let Some(wal) = &shard.wal {
                // Ack durably before removing: on failure the session stays
                // live (and recoverable) while the error propagates.
                wal.append(&WalEvent::Finished {
                    index: local,
                    generation: id.generation,
                })?;
            }
            slot.generation = slot.generation.wrapping_add(1);
            self.unlink_idle(shard, local);
            (outcome, slot.session.take().expect("checked above"))
        };
        let kind = session.kind;
        let finish_tier = if session.core.is_compiled() {
            telemetry::Tier::Compiled
        } else {
            telemetry::Tier::Live
        };
        if self.telemetry_enabled {
            // Realized cost per finished session — the paper's objective,
            // recorded next to the predicted expected cost.
            session
                .plan
                .record_finish(kind, outcome.queries, outcome.price);
        }
        session.release_policy();
        self.release_slot(shard, local);
        shard.counters.finished.fetch_add(1, Ordering::Relaxed);
        self.record_op(shard_k, telemetry::Op::Finish, finish_tier, kind, timer);
        self.maybe_autocompact(shard_k);
        Ok(outcome)
    }

    /// Discards a session regardless of progress, reclaiming its slot.
    pub fn cancel(&self, id: SessionId) -> Result<(), ServiceError> {
        self.check_active()?;
        let timer = self.op_timer();
        let (shard_k, kind, tier) = self.remove(id, Removal::Cancelled)?;
        self.record_op(shard_k, telemetry::Op::Cancel, tier, kind, timer);
        Ok(())
    }

    /// Evicts every session idle for at least the configured
    /// [`EngineConfig::idle_ticks`], returning how many were reclaimed.
    /// No-op (returns 0) when eviction is disabled or the engine is
    /// degraded (a degraded engine must not silently drop recoverable
    /// sessions).
    ///
    /// Cost is O(1) per eviction, not O(`max_sessions`): each shard
    /// unlinks the head of its idle list only while that head has expired.
    pub fn sweep_idle(&self) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            evicted += self.evict_expired(shard).0;
        }
        evicted
    }

    /// Currently live sessions.
    pub fn live_sessions(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// A snapshot of the activity counters, aggregated across shards.
    /// After a recovery, the durable lifecycle counters
    /// (`opened`/`finished`/`cancelled`/`evicted`) are restored from the
    /// surviving log window — exact until a compaction trims retired
    /// sessions' history; the purely operational ones (`steps`,
    /// `pool_hits`, `errored`, `panicked`) restart from zero.
    pub fn stats(&self) -> EngineStats {
        let entered = self.degraded.entered();
        let mut stats = EngineStats {
            live: self.live.load(Ordering::Relaxed),
            peak_live: self.peak_live.load(Ordering::Relaxed),
            shards: self.shards.len(),
            opened: 0,
            finished: 0,
            cancelled: 0,
            evicted: 0,
            errored: 0,
            panicked: 0,
            steps: 0,
            pool_hits: 0,
            compiled_hits: 0,
            compiled_fallbacks: 0,
            wal_records: 0,
            degraded: entered.is_some(),
            degraded_since: entered.as_ref().map(|(at, _)| *at),
            degraded_reason: entered.map(|(_, reason)| reason),
        };
        for row in self.stats_per_shard() {
            stats.opened += row.opened;
            stats.finished += row.finished;
            stats.cancelled += row.cancelled;
            stats.evicted += row.evicted;
            stats.errored += row.errored;
            stats.panicked += row.panicked;
            stats.steps += row.steps;
            stats.pool_hits += row.pool_hits;
            stats.compiled_hits += row.compiled_hits;
            stats.compiled_fallbacks += row.compiled_fallbacks;
            stats.wal_records += row.wal_records;
        }
        stats
    }

    /// The per-shard slices of [`Self::stats`], *before* summation, so
    /// shard imbalance — skewed live counts, one shard absorbing the
    /// evictions — is observable. Counters on different shards are
    /// sampled at slightly different instants; each shard's own row is
    /// internally consistent the same way [`Self::stats`] is.
    pub fn stats_per_shard(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(k, shard)| {
                use telemetry::{Op, Tier};
                let c = &shard.counters;
                let count = |op, tier| shard.telemetry.op_count(op, tier);
                let step_tier = |tier| count(Op::Next, tier) + count(Op::Answer, tier);
                ShardStats {
                    shard: k as u32,
                    live: shard.live.load(Ordering::Relaxed),
                    opened: c.opened.load(Ordering::Relaxed),
                    finished: c.finished.load(Ordering::Relaxed),
                    cancelled: c.cancelled.load(Ordering::Relaxed),
                    evicted: c.evicted.load(Ordering::Relaxed),
                    errored: c.errored.load(Ordering::Relaxed),
                    panicked: c.panicked.load(Ordering::Relaxed),
                    steps: telemetry::TIERS.into_iter().map(step_tier).sum(),
                    pool_hits: c.pool_hits.load(Ordering::Relaxed),
                    compiled_hits: step_tier(Tier::Compiled),
                    compiled_fallbacks: count(Op::Open, Tier::Fallback)
                        + count(Op::Answer, Tier::Fallback),
                    wal_records: shard
                        .wal
                        .as_ref()
                        .map_or(0, |w| w.total_records.load(Ordering::Relaxed)),
                }
            })
            .collect()
    }

    /// A cross-shard aggregation of the telemetry cells: per-(op, tier)
    /// latency histograms, per-(op, kind) counts, WAL internals, and
    /// per-plan realized/predicted cost rows. Cumulative since
    /// construction; difference two snapshots with
    /// [`TelemetrySnapshot::minus`] for rates. With telemetry disabled
    /// the snapshot exists but is all-zero (`enabled` says which).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::empty(self.telemetry_enabled, self.shards.len() as u32);
        snap.clock = self.clock.load(Ordering::Relaxed);
        for shard in &self.shards {
            snap.absorb_shard(&shard.telemetry);
        }
        let plans = self.plans.read().expect("plans lock poisoned");
        snap.plans = plans
            .iter()
            .enumerate()
            .map(|(i, p)| p.cost_snapshot(i as u32))
            .filter(|p| !p.kinds.is_empty())
            .collect();
        snap
    }

    /// Drains every shard's slow-op journal: timed operations (a sample,
    /// see [`crate::telemetry`]) whose wall time crossed the
    /// [`EngineConfig::slow_op_ns`] threshold, oldest first per shard.
    /// Each ring holds the 64 most recent entries;
    /// [`TelemetrySnapshot::slow_dropped`] counts the older ones dropped.
    pub fn drain_slow_ops(&self) -> Vec<SlowOp> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.telemetry.drain_slow());
        }
        out
    }

    /// The predicted expected cost of serving `kind` on `plan` — the
    /// paper's objective (Definition 8), computed by evaluating the
    /// policy exhaustively over the plan's prior and cached on the plan.
    /// `Ok(None)` when the kind has no deterministic evaluation
    /// (`Random`) or the evaluation failed. The first call per (plan,
    /// kind) costs O(targets × session length); telemetry snapshots
    /// surface the cached value next to the realized distribution so
    /// predicted-vs-realized drift is directly readable.
    pub fn predict_expected_cost(
        &self,
        plan: PlanId,
        kind: PolicyKind,
    ) -> Result<Option<PredictedCost>, ServiceError> {
        if plan.engine != self.engine_id {
            return Err(ServiceError::UnknownPlan(plan));
        }
        let entry = {
            let plans = self.plans.read().expect("plans lock poisoned");
            plans
                .get(plan.index as usize)
                .cloned()
                .ok_or(ServiceError::UnknownPlan(plan))?
        };
        Ok(entry.predict(kind))
    }

    /// Renders the engine's stats and telemetry as Prometheus text
    /// exposition (version 0.0.4): `aigs_*` gauges, counters, and
    /// cumulative `le`-bucketed histograms. Served over HTTP by
    /// [`crate::wire::WireServer`] at `GET /metrics`.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write;
        let stats = self.stats();
        let telem = self.telemetry();
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# TYPE aigs_live_sessions gauge");
        let _ = writeln!(out, "aigs_live_sessions {}", stats.live);
        let _ = writeln!(out, "aigs_peak_live_sessions {}", stats.peak_live);
        let _ = writeln!(out, "aigs_shards {}", stats.shards);
        let _ = writeln!(out, "aigs_degraded {}", u8::from(stats.degraded));
        if let Some(since) = stats.degraded_since {
            let _ = writeln!(out, "aigs_degraded_since_clock {since}");
        }
        let _ = writeln!(out, "aigs_wal_records_total {}", stats.wal_records);

        let _ = writeln!(out, "# TYPE aigs_ops_total counter");
        for (o, op) in telemetry::OPS.iter().enumerate() {
            for (slot, &count) in telem.op_kind[o].iter().enumerate() {
                if count > 0 {
                    let _ = writeln!(
                        out,
                        "aigs_ops_total{{op=\"{}\",kind=\"{}\"}} {count}",
                        op.name(),
                        telemetry::kind_slot_name(slot)
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP aigs_op_duration_ns Sampled operation latency: about one op in {} per \
             thread is timed, so _count counts samples; aigs_ops_total is exact.",
            telemetry::SAMPLE_MEAN_GAP
        );
        let _ = writeln!(out, "# TYPE aigs_op_duration_ns histogram");
        for (o, op) in telemetry::OPS.iter().enumerate() {
            for (t, tier) in telemetry::TIERS.iter().enumerate() {
                let h = &telem.op_tier_ns[o][t];
                if h.count() > 0 {
                    render_histogram(
                        &mut out,
                        "aigs_op_duration_ns",
                        &format!("op=\"{}\",tier=\"{}\"", op.name(), tier.name()),
                        h,
                    );
                }
            }
        }

        let _ = writeln!(out, "# TYPE aigs_shard_live gauge");
        for row in self.stats_per_shard() {
            let _ = writeln!(
                out,
                "aigs_shard_live{{shard=\"{}\"}} {}",
                row.shard, row.live
            );
            let _ = writeln!(
                out,
                "aigs_shard_steps_total{{shard=\"{}\"}} {}",
                row.shard, row.steps
            );
            let _ = writeln!(
                out,
                "aigs_shard_evicted_total{{shard=\"{}\"}} {}",
                row.shard, row.evicted
            );
            let _ = writeln!(
                out,
                "aigs_shard_wal_records_total{{shard=\"{}\"}} {}",
                row.shard, row.wal_records
            );
        }

        let _ = writeln!(out, "# TYPE aigs_wal_append_bytes_total counter");
        let _ = writeln!(
            out,
            "aigs_wal_append_bytes_total {}",
            telem.wal.append_bytes
        );
        let _ = writeln!(
            out,
            "aigs_wal_flush_signals_total {}",
            telem.wal.flush_signals
        );
        let _ = writeln!(out, "aigs_wal_compactions_total {}", telem.wal.compactions);
        let _ = writeln!(
            out,
            "aigs_wal_degraded_transitions_total {}",
            telem.wal.degraded_transitions
        );
        if telem.wal.fsync_ns.count() > 0 {
            render_histogram(
                &mut out,
                "aigs_wal_fsync_duration_ns",
                "",
                &telem.wal.fsync_ns,
            );
            render_histogram(&mut out, "aigs_wal_fsync_batch", "", &telem.wal.fsync_batch);
        }
        let _ = writeln!(
            out,
            "aigs_wal_snapshot_bytes_total {}",
            telem.wal.snapshot_bytes
        );
        if telem.wal.compaction_ns.count() > 0 {
            let _ = writeln!(out, "# TYPE aigs_wal_compaction_duration_ns histogram");
            render_histogram(
                &mut out,
                "aigs_wal_compaction_duration_ns",
                "",
                &telem.wal.compaction_ns,
            );
        }

        let _ = writeln!(out, "# TYPE aigs_plan_realized_queries histogram");
        for plan in &telem.plans {
            for row in &plan.kinds {
                let labels = format!("plan=\"{}\",kind=\"{}\"", plan.plan, row.kind);
                if row.queries.count() > 0 {
                    render_histogram(
                        &mut out,
                        "aigs_plan_realized_queries",
                        &labels,
                        &row.queries,
                    );
                    let _ = writeln!(
                        out,
                        "aigs_plan_realized_price_total{{{labels}}} {}",
                        row.price_sum
                    );
                }
                if let Some(p) = row.predicted {
                    let _ = writeln!(
                        out,
                        "aigs_plan_predicted_queries{{{labels}}} {}",
                        p.expected_queries
                    );
                    let _ = writeln!(
                        out,
                        "aigs_plan_predicted_price{{{labels}}} {}",
                        p.expected_price
                    );
                }
            }
        }
        let _ = writeln!(out, "aigs_slow_ops_dropped_total {}", telem.slow_dropped);
        out
    }

    /// Compacts every shard's write-ahead log now: rotates the tail,
    /// snapshots the shard's live state, and atomically publishes the
    /// snapshot. No-op with durability off or for shards already
    /// compacting; fails with [`ServiceError::Degraded`] on a degraded
    /// engine. Runs automatically per shard when its tail exceeds
    /// [`DurabilityConfig::snapshot_every`] records.
    pub fn compact(&self) -> Result<(), ServiceError> {
        for k in 0..self.shards.len() {
            self.compact_shard(k)?;
        }
        Ok(())
    }

    /// Forces buffered WAL records on every shard to stable storage
    /// (useful before a graceful shutdown when fsync batching is on).
    /// No-op with durability off.
    pub fn sync_wal(&self) -> Result<(), ServiceError> {
        for shard in &self.shards {
            if let Some(wal) = &shard.wal {
                wal.sync()?;
            }
        }
        Ok(())
    }

    // ---- internals ----------------------------------------------------

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn is_degraded(&self) -> bool {
        self.degraded.is()
    }

    /// Starts an operation timer for a sampled operation (see
    /// [`crate::telemetry`]) — `None`, with no clock read, for the rest
    /// and whenever telemetry is disabled.
    #[inline]
    fn op_timer(&self) -> Option<std::time::Instant> {
        (self.telemetry_enabled && telemetry::sample_next_op()).then(std::time::Instant::now)
    }

    /// Counts one completed operation on `shard_k`'s telemetry cell and,
    /// when it was timed, records its duration and journals it if it
    /// crossed the slow-op threshold.
    #[inline]
    fn record_op(
        &self,
        shard_k: usize,
        op: telemetry::Op,
        tier: telemetry::Tier,
        kind: PolicyKind,
        timer: Option<std::time::Instant>,
    ) {
        self.shards[shard_k]
            .telemetry
            .count_op(op, tier, Some(kind));
        if let Some(t) = timer {
            self.record_timed(shard_k, op, tier, kind, t);
        }
    }

    /// The timed tail of [`Self::record_op`]: duration histogram and
    /// slow-op check. Out of line and marked cold, because only about one
    /// op in [`telemetry::SAMPLE_MEAN_GAP`] takes it.
    #[cold]
    #[inline(never)]
    fn record_timed(
        &self,
        shard_k: usize,
        op: telemetry::Op,
        tier: telemetry::Tier,
        kind: PolicyKind,
        t: std::time::Instant,
    ) {
        let ns = t.elapsed().as_nanos() as u64;
        let cell = &self.shards[shard_k].telemetry;
        cell.record_duration(op, tier, ns);
        cell.note_slow(
            self.config.slow_op_ns,
            SlowOp {
                shard: shard_k as u32,
                op,
                tier,
                kind,
                duration_ns: ns,
                at: self.clock.load(Ordering::Relaxed),
            },
        );
    }

    /// Gate for mutating operations: a degraded engine is read-mostly.
    fn check_active(&self) -> Result<(), ServiceError> {
        if self.is_degraded() {
            return Err(ServiceError::Degraded);
        }
        Ok(())
    }

    fn compact_shard(&self, shard_k: usize) -> Result<(), ServiceError> {
        let Some(wal) = &self.shards[shard_k].wal else {
            return Ok(());
        };
        if self.is_degraded() {
            return Err(ServiceError::Degraded);
        }
        if wal.compacting.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        let telemetry = &self.shards[shard_k].telemetry;
        let timer = telemetry.enabled().then(std::time::Instant::now);
        let result = (|| -> Result<u64, ServiceError> {
            wal.rotate()?;
            let tmp = wal.config.dir.join(SNAPSHOT_TMP_FILE);
            let bytes = self.write_shard_snapshot(&tmp, shard_k)?;
            wal.publish_snapshot()?;
            Ok(bytes)
        })();
        wal.compacting.store(false, Ordering::SeqCst);
        let bytes = result?;
        if let Some(t) = timer {
            telemetry.wal_compaction(t.elapsed().as_nanos() as u64, bytes);
        }
        Ok(())
    }

    fn maybe_autocompact(&self, shard_k: usize) {
        let Some(wal) = &self.shards[shard_k].wal else {
            return;
        };
        let Some(limit) = wal.config.snapshot_every else {
            return;
        };
        if !self.is_degraded() && wal.tail_records.load(Ordering::Relaxed) >= limit {
            // Failures surface on the next explicit compact/mutation; the
            // triggering operation itself already succeeded durably.
            let _ = self.compact_shard(shard_k);
        }
    }

    /// Writes one shard's compacted WAL (identity header + live sessions,
    /// plus the plan payloads on shard 0) to `path`, fsyncs it, and
    /// returns its size in bytes. Used by both compaction and
    /// post-recovery re-initialisation; never touches the shard's tail
    /// writer, so it needs no lock ordering against appends beyond the
    /// per-slot locks.
    fn write_shard_snapshot(&self, path: &Path, shard_k: usize) -> Result<u64, ServiceError> {
        let shard = &self.shards[shard_k];
        let mut snap = SessionWal::create(path).map_err(durability_err)?;
        let mut bytes = 0u64;
        let mut append = |event: &WalEvent| -> Result<(), ServiceError> {
            bytes += snap.append_buffered(event).map_err(durability_err)? as u64;
            Ok(())
        };
        append(&WalEvent::EngineMeta {
            version: WAL_VERSION,
            engine_id: self.engine_id,
        })?;
        append(&WalEvent::ShardMeta {
            shard: shard_k as u32,
            shards: self.shards.len() as u32,
        })?;
        if shard_k == 0 {
            let plans = self.plans.read().expect("plans lock poisoned");
            for (i, entry) in plans.iter().enumerate() {
                let (dag, weights, costs, reach, compiled) = entry.artifacts();
                append(&WalEvent::PlanRegistered {
                    plan: i as u32,
                    payload: plan_payload(dag, weights, costs, reach, compiled),
                })?;
            }
        }
        for local in 0..shard.slots.len() {
            // Capture each session atomically under its lock; concurrent
            // later events land in the rotated tail and replay idempotently
            // on top (duplicates skip by sequence number).
            let slot = shard.slots.lock(local);
            let Some(s) = slot.session.as_ref() else {
                // Empty slot: its retire tombstones are being compacted
                // away, so persist the generation as a watermark — recovery
                // must park the slot here, not rebuild it at generation 0
                // where a stale pre-crash id would alias the next tenant.
                if slot.generation > 0 {
                    append(&WalEvent::SlotRetired {
                        index: local,
                        generation: slot.generation,
                    })?;
                }
                continue;
            };
            // The mode bit records the session's CURRENT tier, not the one
            // it opened on: a fallen-back session snapshots as plain live.
            append(&WalEvent::SessionSnapshot {
                index: local,
                generation: slot.generation,
                plan: s.plan_index,
                kind: session_kind_code(s.kind, s.core.is_compiled()),
                answers: s.answers.clone(),
            })?;
        }
        snap.sync().map_err(durability_err)?;
        Ok(bytes)
    }

    /// Atomically claims one unit of live capacity; callers must release it
    /// (decrement) on every failure path.
    fn reserve_live(&self) -> bool {
        match self
            .live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                (l < self.config.max_sessions).then_some(l + 1)
            }) {
            Ok(prev) => {
                // Record the claimed value, not a re-load: a concurrent
                // release between the claim and a load would hide the peak.
                self.peak_live.fetch_max(prev + 1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Ticks the clock for an operation on the live session in `local`.
    /// With idle eviction on, the tick is taken under the shard's list lock
    /// and the session moves to the list's tail. Called under the slot lock.
    fn touch(&self, shard: &Shard, local: u32) {
        let Some(idle) = &shard.idle else {
            self.tick();
            return;
        };
        let mut list = idle.lock().expect("idle list poisoned");
        list.touch(local, self.tick());
    }

    /// Unlinks a session about to leave `local` from the shard's idle list
    /// (no-op with idle eviction off). Called under the slot lock, right
    /// before `slot.session.take()`.
    fn unlink_idle(&self, shard: &Shard, local: u32) {
        if let Some(idle) = &shard.idle {
            idle.lock().expect("idle list poisoned").unlink(local);
        }
    }

    /// Drains one shard's expired sessions off the head of its idle list:
    /// returns how many were evicted, plus the age of the shard's oldest
    /// still-live session (the caller's backoff hint). The list is in touch
    /// order, so the first head that has not expired ends the drain.
    fn evict_expired(&self, shard: &Shard) -> (usize, Option<u64>) {
        let (Some(max_idle), Some(idle)) = (self.config.idle_ticks, &shard.idle) else {
            return (0, None);
        };
        if self.is_degraded() {
            return (0, None);
        }
        // Drains are rare: time every one, not a sample.
        let timer = self.telemetry_enabled.then(std::time::Instant::now);
        let now = self.clock.load(Ordering::Relaxed);
        let mut evicted = 0;
        let oldest = loop {
            let Some((local, touched)) = idle.lock().expect("idle list poisoned").oldest() else {
                break None;
            };
            let age = now.saturating_sub(touched);
            if age < max_idle {
                break Some(age);
            }
            // The slot lock comes first (slot → list), so re-check the head
            // under both: a touch, finish or cancel may have moved or
            // unlinked it since the peek. A relinked slot carries a later
            // stamp, so an unchanged (head, stamp) pair is the same session.
            let mut slot = shard.slots.lock(local);
            {
                let mut list = idle.lock().expect("idle list poisoned");
                if list.oldest() != Some((local, touched)) {
                    continue;
                }
                list.unlink(local);
            }
            // Expired: evict under the slot lock. The eviction event is
            // logged best-effort (an unlogged eviction merely resurrects
            // the session on recovery).
            if let Some(wal) = &shard.wal {
                wal.append_best_effort(&WalEvent::Evicted {
                    index: local,
                    generation: slot.generation,
                });
            }
            slot.generation = slot.generation.wrapping_add(1);
            let s = slot.session.take().expect("a linked slot holds a session");
            drop(slot);
            // Per-kind eviction counts reconcile exactly with the `evicted`
            // counter; the drain's single latency observation is recorded
            // below.
            shard
                .telemetry
                .count_op(telemetry::Op::Evict, telemetry::Tier::Live, Some(s.kind));
            s.release_policy();
            self.release_slot(shard, local);
            shard.counters.evicted.fetch_add(1, Ordering::Relaxed);
            evicted += 1;
        };
        if evicted > 0 {
            if let Some(t) = timer {
                shard.telemetry.record_duration(
                    telemetry::Op::Evict,
                    telemetry::Tier::Live,
                    t.elapsed().as_nanos() as u64,
                );
            }
        }
        (evicted, oldest)
    }

    fn release_slot(&self, shard: &Shard, local: u32) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        shard.live.fetch_sub(1, Ordering::Relaxed);
        shard.slots.release(local);
    }

    /// Resolves `id` to its shard, local slot index and slot, rejecting
    /// ids issued by another engine.
    fn locate(&self, id: SessionId) -> Result<(usize, u32, &Mutex<Slot>), ServiceError> {
        if id.engine != self.engine_id {
            return Err(ServiceError::UnknownSession(id));
        }
        let shard_count = self.shards.len() as u32;
        let shard_k = (id.index % shard_count) as usize;
        let local = id.index / shard_count;
        self.shards[shard_k]
            .slots
            .get(local)
            .map(|slot| (shard_k, local, slot))
            .ok_or(ServiceError::UnknownSession(id))
    }

    /// Runs `f` — a step that calls into the session's policy — on the live
    /// session behind `id`, touching its idle clock; returns the owning
    /// shard's index alongside `f`'s outcome.
    ///
    /// The policy call is wrapped in `catch_unwind`: a panicking policy
    /// quarantines **only its own session** (see [`Self::quarantine`]) and
    /// surfaces [`ServiceError::PolicyPanicked`] to this caller; every
    /// other session, and the engine itself, keeps serving. On success,
    /// `event` may produce a WAL record (indices in events are
    /// shard-local, hence the `local` argument) which is appended to the
    /// owning shard's log while the slot lock is still held — guaranteeing
    /// the log's per-session order matches the in-memory apply order. If
    /// that append fails, the session is torn down rather than left
    /// holding a mutation the log never acknowledged (recovery restores it
    /// at its acked prefix).
    fn step_session<T>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut LiveSession) -> Result<T, CoreError>,
        event: impl FnOnce(&T, u32) -> Option<WalEvent>,
    ) -> Result<(usize, Result<T, CoreError>, PolicyKind), ServiceError> {
        let (shard_k, local, slot) = self.locate(id)?;
        let shard = &self.shards[shard_k];
        let mut slot = slot.lock().expect("slot lock poisoned");
        if slot.generation != id.generation {
            return Err(ServiceError::UnknownSession(id));
        }
        let session = slot
            .session
            .as_mut()
            .ok_or(ServiceError::UnknownSession(id))?;
        let kind = session.kind;
        self.touch(shard, local);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if matches!(failpoints::hit("engine.policy"), Some(FaultAction::Panic)) {
                panic!("injected policy panic");
            }
            f(slot.session.as_mut().expect("checked above"))
        }));
        match outcome {
            Ok(result) => {
                if let Ok(value) = &result {
                    if let Some(ev) = event(value, local) {
                        if let Some(wal) = &shard.wal {
                            if let Err(e) = wal.append(&ev) {
                                // The in-memory apply outran the log, and a
                                // degraded engine keeps serving
                                // next_question — so the unacknowledged
                                // mutation must not stay visible, or live
                                // reads would diverge from what recovery
                                // replays. Tear the session down (the
                                // mutated instance is discarded); recovery
                                // resurrects it at its acknowledged prefix.
                                slot.generation = slot.generation.wrapping_add(1);
                                self.unlink_idle(shard, local);
                                let torn = slot.session.take();
                                drop(slot);
                                drop(torn);
                                self.release_slot(shard, local);
                                shard.counters.errored.fetch_add(1, Ordering::Relaxed);
                                return Err(e);
                            }
                        }
                    }
                }
                Ok((shard_k, result, kind))
            }
            Err(_) => self.quarantine(shard_k, local, slot),
        }
    }

    /// Tears down the session in `slot` after its policy panicked: the
    /// instance is discarded (its internal state is unknowable — it must
    /// never re-enter the pool), the slot generation advances so the stale
    /// id is rejected, and the retirement is logged best-effort so recovery
    /// does not replay the session into the same deterministic panic.
    fn quarantine<T>(
        &self,
        shard_k: usize,
        local: u32,
        mut slot: std::sync::MutexGuard<'_, Slot>,
    ) -> Result<T, ServiceError> {
        let shard = &self.shards[shard_k];
        let generation = slot.generation;
        slot.generation = generation.wrapping_add(1);
        self.unlink_idle(shard, local);
        let quarantined = slot.session.take();
        drop(slot);
        if let Some(wal) = &shard.wal {
            wal.append_best_effort(&WalEvent::Cancelled {
                index: local,
                generation,
            });
        }
        drop(quarantined);
        self.release_slot(shard, local);
        shard.counters.panicked.fetch_add(1, Ordering::Relaxed);
        Err(ServiceError::PolicyPanicked)
    }

    /// Tears down the session behind `id`, returning its shard, kind and
    /// serving tier for the caller's telemetry record.
    fn remove(
        &self,
        id: SessionId,
        how: Removal,
    ) -> Result<(usize, PolicyKind, telemetry::Tier), ServiceError> {
        let (shard_k, local, slot) = self.locate(id)?;
        let shard = &self.shards[shard_k];
        let session = {
            let mut slot = slot.lock().expect("slot lock poisoned");
            if slot.generation != id.generation || slot.session.is_none() {
                return Err(ServiceError::UnknownSession(id));
            }
            if let Some(wal) = &shard.wal {
                let ev = WalEvent::Cancelled {
                    index: local,
                    generation: id.generation,
                };
                match how {
                    // An explicit cancel is an acknowledgement: it must be
                    // durable, or the session stays live and the caller
                    // sees the durability failure.
                    Removal::Cancelled => wal.append(&ev)?,
                    // Internal teardown (divergence): proceed regardless;
                    // at worst recovery resurrects a session that will
                    // diverge again on its next step.
                    Removal::Errored => wal.append_best_effort(&ev),
                }
            }
            slot.generation = slot.generation.wrapping_add(1);
            self.unlink_idle(shard, local);
            slot.session.take().expect("checked above")
        };
        let kind = session.kind;
        let tier = if session.core.is_compiled() {
            telemetry::Tier::Compiled
        } else {
            telemetry::Tier::Live
        };
        session.release_policy();
        self.release_slot(shard, local);
        let counter = match how {
            Removal::Cancelled => &shard.counters.cancelled,
            Removal::Errored => &shard.counters.errored,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok((shard_k, kind, tier))
    }
}

/// Allocates a local slot on `shard`, preferring its free list, and
/// claims one unit of the shard's live count (paired with
/// `release_slot` on every teardown path).
fn allocate_slot(shard: &Shard) -> u32 {
    shard.live.fetch_add(1, Ordering::Relaxed);
    shard.slots.allocate()
}

/// One shard's recovered state, produced off-thread during the parallel
/// phase of [`SearchEngine::recover_with`].
struct ShardParts {
    slots: Vec<Slot>,
    free: Vec<u32>,
    idle: Option<IdleList>,
    live: usize,
    restored: usize,
    failed: usize,
    opened: u64,
    finished: u64,
    cancelled: u64,
    evicted: u64,
    events: usize,
    corruptions: Vec<String>,
    anomalies: Vec<String>,
}

/// Reads and folds one shard's log files, verifying the recorded shard
/// placement against the directory the files actually sit in.
fn fold_shard_logs(
    base: &Path,
    shard_k: usize,
    shard_count: usize,
) -> Result<(ReplayState, usize, Vec<String>), ServiceError> {
    let logs = read_dir_logs(&shard_dir(base, shard_k))?;
    let events = logs.events.len();
    let mut rs = ReplayState::default();
    for event in &logs.events {
        rs.apply(event);
    }
    if let Some(v) = rs.unsupported_version {
        // Fail fast with the real cause: folding on would surface an
        // unrelated "no engine metadata" / missing-record error instead.
        return Err(durability_err(format!(
            "shard-{shard_k}: log is WAL format v{v}, which this build cannot read \
             (it reads v1–v{WAL_VERSION}); refusing to recover"
        )));
    }
    match rs.shard_meta {
        Some((s, k)) if (s as usize, k as usize) != (shard_k, shard_count) => {
            return Err(durability_err(format!(
                "shard-{shard_k}: log records placement shard {s} of {k}, but sits in a \
                 {shard_count}-shard directory — slot indices are shard-local, so replaying a \
                 misplaced log would alias sessions; refusing"
            )));
        }
        None => rs
            .anomalies
            .push("log carries no shard placement metadata".to_owned()),
        Some(_) => {}
    }
    Ok((rs, events, logs.corruptions))
}

/// Restores one shard's sessions from its fold: plan lookup, policy
/// construction, and a deterministic replay of each acknowledged answer
/// history (the expensive part recovery parallelises across shards).
fn restore_shard(
    mut rs: ReplayState,
    events: usize,
    corruptions: Vec<String>,
    plans: &[Arc<PlanEntry>],
    max_queries: Option<u32>,
    tier: CompiledTier,
    track_idle: bool,
) -> ShardParts {
    let mut parts = ShardParts {
        slots: Vec::with_capacity(rs.sessions.len()),
        free: Vec::new(),
        idle: track_idle.then(IdleList::new),
        live: 0,
        restored: 0,
        failed: 0,
        opened: rs.counters.opened,
        finished: rs.counters.finished,
        cancelled: rs.counters.cancelled,
        evicted: rs.counters.evicted,
        events,
        corruptions,
        anomalies: std::mem::take(&mut rs.anomalies),
    };
    for (local, replayed) in rs.sessions.iter_mut().enumerate() {
        let max_gen = rs.max_gen[local];
        match replayed.take() {
            None => {
                // Empty slot: park its generation past every id ever
                // issued here — the highest generation still in the log
                // window, or the snapshot's retirement watermark when
                // compaction trimmed the history — so stale pre-crash
                // handles stay rejected instead of aliasing a future
                // tenant of the slot.
                let parked = max_gen
                    .map_or(0, |g| g.wrapping_add(1))
                    .max(rs.floors[local]);
                parts.slots.push(Slot {
                    generation: parked,
                    session: None,
                });
                parts.free.push(local as u32);
            }
            Some(rsess) => match restore_session(plans, &rsess, max_queries, tier) {
                Ok(session) => {
                    parts.slots.push(Slot {
                        generation: rsess.generation,
                        session: Some(session),
                    });
                    if let Some(idle) = &mut parts.idle {
                        // Recovered sessions start at touch 0 (the clock
                        // restarts): idle-oldest until touched again.
                        idle.push_tail(local as u32, 0);
                    }
                    parts.live += 1;
                    parts.restored += 1;
                }
                Err(why) => {
                    parts.failed += 1;
                    parts.anomalies.push(format!("slot {local}: {why}"));
                    parts.slots.push(Slot {
                        generation: rsess.generation.wrapping_add(1),
                        session: None,
                    });
                    parts.free.push(local as u32);
                }
            },
        }
    }
    parts
}

/// Rebuilds one logged session: plan lookup, policy construction, and a
/// deterministic replay of its acknowledged answers.
fn restore_session(
    plans: &[Arc<PlanEntry>],
    rsess: &ReplaySession,
    max_queries: Option<u32>,
    tier: CompiledTier,
) -> Result<LiveSession, String> {
    let kind = kind_from_code(rsess.kind)
        .ok_or_else(|| format!("unknown policy code {}", rsess.kind.tag))?;
    let plan = plans
        .get(rsess.plan as usize)
        .cloned()
        .ok_or_else(|| format!("references unregistered plan {}", rsess.plan))?;
    // The logged mode bit is advisory: a session tagged compiled returns to
    // the compiled tier when the recovering engine still compiles its plan
    // and the answer history stays inside the flat array; otherwise it is
    // replayed live — the transcript is bit-identical either way.
    if code_is_compiled(rsess.kind) {
        if let Some(tree) = compiled_tree_for(tier, &plan, kind) {
            if let Ok(cursor) = tree.replay(&plan.ctx(), max_queries, rsess.answers.iter()) {
                if !cursor.needs_fallback() {
                    return Ok(LiveSession {
                        plan,
                        plan_index: rsess.plan,
                        kind,
                        core: SessionCore::Compiled { tree, cursor },
                        answers: rsess.answers.clone(),
                    });
                }
            }
        }
    }
    let (mut policy, _) = plan.acquire(kind);
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        SessionStepper::replay(
            policy.as_mut(),
            &plan.ctx(),
            max_queries,
            rsess.answers.iter(),
        )
    }));
    let stepper = match replayed {
        Ok(Ok(s)) => s,
        Ok(Err(e)) => return Err(format!("replay rejected: {e}")),
        Err(_) => return Err("policy panicked during replay; session retired".to_owned()),
    };
    Ok(LiveSession {
        plan,
        plan_index: rsess.plan,
        kind,
        core: SessionCore::Live { policy, stepper },
        answers: rsess.answers.clone(),
    })
}

impl std::fmt::Debug for SearchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchEngine")
            .field("live", &self.live_sessions())
            .field("max_sessions", &self.config.max_sessions)
            .field("shards", &self.shards.len())
            .field("durable", &self.shards[0].wal.is_some())
            .field("degraded", &self.is_degraded())
            .finish()
    }
}

/// The inverted-control surface of one session: ask, suspend, answer,
/// finish. A thin, copyable view over ([`SearchEngine`], [`SessionId`]) —
/// drop it freely and [`SearchEngine::session`] reattaches by id.
#[derive(Debug, Clone, Copy)]
pub struct SessionHandle<'e> {
    engine: &'e SearchEngine,
    id: SessionId,
}

impl SessionHandle<'_> {
    /// The durable id: serialise it into your task queue and reattach with
    /// [`SearchEngine::session`] — on the same engine, or on the one
    /// [`SearchEngine::recover`] rebuilt after a crash.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// See [`SearchEngine::next_question`].
    pub fn next_question(&mut self) -> Result<SessionStep, ServiceError> {
        self.engine.next_question(self.id)
    }

    /// See [`SearchEngine::answer`].
    pub fn answer(&mut self, yes: bool) -> Result<(), ServiceError> {
        self.engine.answer(self.id, yes)
    }

    /// See [`SearchEngine::finish`].
    pub fn finish(self) -> Result<SearchOutcome, ServiceError> {
        self.engine.finish(self.id)
    }

    /// See [`SearchEngine::cancel`].
    pub fn cancel(self) -> Result<(), ServiceError> {
        self.engine.cancel(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::{segment_of, IdleList, SlotTable, FIRST_SEGMENT, SEGMENTS};

    /// The list's slots head to tail, checking the back links on the way.
    fn order(list: &IdleList) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        let (mut prev, mut node) = (0, list.links[0].next);
        while node != 0 {
            let link = list.links[node as usize];
            assert_eq!(link.prev, prev);
            out.push((node - 1, link.touched));
            (prev, node) = (node, link.next);
        }
        assert_eq!(list.links[0].prev, prev);
        out
    }

    #[test]
    fn idle_list_keeps_touch_order() {
        let mut list = IdleList::new();
        assert_eq!(list.oldest(), None);
        for (local, t) in [(2, 1), (0, 2), (5, 3)] {
            list.push_tail(local, t);
        }
        assert_eq!(order(&list), [(2, 1), (0, 2), (5, 3)]);
        list.touch(0, 4); // middle to tail
        list.touch(0, 5); // tail stays, restamped
        list.touch(2, 6); // head to tail
        assert_eq!(order(&list), [(5, 3), (0, 5), (2, 6)]);
        assert_eq!(list.oldest(), Some((5, 3)));
        list.unlink(0);
        assert!(!list.is_linked(0));
        list.unlink(5);
        assert_eq!(order(&list), [(2, 6)]);
        list.unlink(2);
        assert_eq!(list.oldest(), None);
        list.push_tail(0, 7);
        assert_eq!(order(&list), [(0, 7)]);
    }

    #[test]
    fn slot_indices_map_to_doubling_segments() {
        assert_eq!(FIRST_SEGMENT, 64);
        assert_eq!(segment_of(0), (0, 0));
        assert_eq!(segment_of(63), (0, 63));
        assert_eq!(segment_of(64), (1, 0));
        assert_eq!(segment_of(191), (1, 127));
        assert_eq!(segment_of(192), (2, 0));
        // The last index sits in the last segment, inside its bounds.
        let (seg, off) = segment_of(u32::MAX);
        assert_eq!(seg, SEGMENTS - 1);
        assert!(off < (FIRST_SEGMENT as usize) << seg);
    }

    #[test]
    fn slot_table_grows_across_segments_and_reuses_freed_slots() {
        let table = SlotTable::new();
        assert!(table.get(0).is_none());
        for expect in 0..200 {
            assert_eq!(table.allocate(), expect);
            assert!(table.get(expect).is_some());
            assert!(table.get(table.len()).is_none(), "get(len) must be None");
        }
        assert_eq!(table.len(), 200);
        // Three segments (64 + 128 + 256 slots) back 200 slots.
        assert!(table.segments[..3].iter().all(|s| s.get().is_some()));
        assert!(table.segments[3..].iter().all(|s| s.get().is_none()));
        table.lock(150).generation = 7;
        table.release(150);
        assert_eq!(table.allocate(), 150, "a released slot is reused first");
        assert_eq!(table.lock(150).generation, 7);
        assert_eq!(table.allocate(), 200);
    }
}
