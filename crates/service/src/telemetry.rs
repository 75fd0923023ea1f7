//! First-class serving telemetry: cache-padded per-shard metric cells,
//! exact per-operation counts, sampled log-bucketed latency histograms,
//! WAL/fsync internals, per-plan realized-vs-predicted cost tracking, and
//! a slow-op journal.
//!
//! ## Design
//!
//! Every shard owns one `ShardTelemetry` cell, `#[repr(align(64))]` so
//! cells never share a cache line with a neighbour's hot counters. All
//! recording is allocation-free and lock-free on the hot path. Only the
//! slow-op journal takes a mutex, and only for timed operations that
//! already blew past the slowness threshold.
//!
//! **Counts are exact, durations are sampled.** Every operation bumps one
//! (op, tier, kind) counter — a single relaxed add, always, even with
//! telemetry disabled, because [`crate::EngineStats`]' `steps` /
//! `compiled_hits` / `compiled_fallbacks` are derived from those cells.
//! Snapshots project the cube onto exact (op, tier) and (op, kind)
//! counts. Reading the clock costs more than the whole compiled-tier
//! step, so only about one operation in
//! [`SAMPLE_MEAN_GAP`] (64) per thread is timed: a `thread_local!` countdown
//! (no atomics) draws the gap to the next timed operation uniformly from
//! `1..=2·SAMPLE_MEAN_GAP − 1` with a fixed-seed xorshift, so a thread's
//! sequence repeats exactly. The first operation of every thread is
//! timed. Gaps are random rather than a fixed stride because a stride
//! aliases with periodic traffic (a strict next/answer alternation under
//! an even stride times only one of the two). Un-timed operations skip
//! both clock reads, the histogram and the slow-op check. A histogram
//! therefore holds a uniform sample of its population: its `sum / count`
//! is an unbiased mean and its quantiles estimate the population's, but
//! its `count` is the number of *samples* — the exact count is the
//! (op, tier) projection. Rare operations (idle-eviction drains, recovery,
//! fsyncs) are timed every time.
//!
//! Latency histograms are **log₂-bucketed**: bucket 0 holds the value 0,
//! bucket `b` (1 ≤ b < 63) holds values in `[2^(b-1), 2^b)`, and bucket 63
//! absorbs everything from `2^62` up. Sixty-four fixed buckets cover the
//! full `u64` nanosecond range with ≤ 2× relative quantile error, snapshots
//! are plain `u64` arrays that **merge** (and subtract, for deltas) by
//! element-wise addition, and the bucket function is a `leading_zeros` —
//! no floats, no search.
//!
//! Recording is gated by [`crate::EngineConfig::telemetry`] (default on).
//! Disabled telemetry skips the clock reads and every cell except the
//! exact operation counts the engine's stats need; its snapshots are
//! all-zero, not absent.
//!
//! ## What is recorded
//!
//! * Per **operation × serving tier** exact counts and sampled latency
//!   histograms, and per **operation × policy kind** exact counts, for
//!   open / next-question / answer / finish / cancel / evict / recover.
//!   Count totals reconcile exactly with [`crate::EngineStats`] on an
//!   engine that has not been through recovery (recovery restores the
//!   durable lifecycle counters from the log; telemetry, like `steps`,
//!   restarts from zero).
//! * WAL internals: appended bytes, fsync batch sizes and latencies (the
//!   group-commit thread and explicit syncs; [`crate::FsyncPolicy::Always`]
//!   syncs inline on the append path and is not separately timed), group-commit
//!   flush signals (vs. actual fsyncs — the gap is coalescing), snapshot
//!   compactions (each one timed, with the bytes its snapshot wrote), and
//!   degraded-mode transitions.
//! * Per **plan × policy kind** realized cost: a histogram of oracle
//!   queries per finished session plus the summed price, next to the
//!   policy's *predicted* expected cost
//!   ([`crate::SearchEngine::predict_expected_cost`]) so drift between
//!   the paper's objective and production reality is a first-class metric.
//! * A bounded per-shard ring of [`SlowOp`] records for timed operations
//!   slower than [`crate::EngineConfig::slow_op_ns`] (default 1 ms), drained
//!   with [`crate::SearchEngine::drain_slow_ops`]. Like the histograms, the
//!   journal sees only the sampled operations: about one op in 64
//!   ([`SAMPLE_MEAN_GAP`]) per thread, so a rare slow op is caught with
//!   probability ~1/64 per occurrence.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::PolicyKind;

/// Number of log₂ buckets in a latency histogram ([`HistSnapshot::buckets`]).
pub const HIST_BUCKETS: usize = 64;

/// Slots per shard in the slow-op ring journal.
const SLOW_RING: usize = 64;

/// Default slow-op threshold (1 ms) of [`crate::EngineConfig::slow_op_ns`].
pub const DEFAULT_SLOW_OP_NS: u64 = 1_000_000;

/// Mean gap, in operations, between two timed operations on one thread.
/// Gaps are drawn uniformly from `1..=2·SAMPLE_MEAN_GAP − 1`.
pub const SAMPLE_MEAN_GAP: u32 = 64;

/// Fixed xorshift seed of every thread's sampler.
const SAMPLER_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

thread_local! {
    /// `(operations left to skip, xorshift state)` of this thread's
    /// duration sampler.
    static SAMPLER: Cell<(u32, u64)> = const { Cell::new((0, SAMPLER_SEED)) };
}

/// Whether the calling thread times its next operation: counts down the
/// current gap and, when it runs out, draws the next one.
#[inline]
pub(crate) fn sample_next_op() -> bool {
    SAMPLER.with(|s| {
        let (left, mut x) = s.get();
        if left > 0 {
            s.set((left - 1, x));
            return false;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // A gap of g times the g-th operation from here: skip g − 1.
        let skip = (x % u64::from(2 * SAMPLE_MEAN_GAP - 1)) as u32;
        s.set((skip, x));
        true
    })
}

/// The bucket index `value` lands in: 0 for 0, else
/// `min(64 − leading_zeros, 63)` — so bucket `b` covers `[2^(b-1), 2^b)`
/// and bucket 63 is the overflow bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize
}

/// Inclusive upper bound of bucket `b` for quantile estimation
/// (`u64::MAX` for the overflow bucket).
#[inline]
pub fn bucket_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A fixed-size, mergeable, lock-free log₂ histogram. Recording is two
/// relaxed atomic adds; reading produces a [`HistSnapshot`].
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation: one bucket `fetch_add` + one sum
    /// `fetch_add`, both relaxed.
    #[inline]
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one atomic histogram: plain numbers that merge and
/// subtract element-wise, so per-shard histograms aggregate — and
/// consecutive snapshots difference into deltas — without touching the
/// live cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Observation counts per log₂ bucket (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all recorded values (mean = `sum / count`).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Total observations across all buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Element-wise accumulation of `other` into `self`. Associative and
    /// commutative, so shard cells merge in any order.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// Element-wise saturating difference (`self − earlier`), the delta
    /// between two snapshots of one monotone histogram.
    pub fn minus(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the
    /// bound of the first bucket whose cumulative count reaches
    /// `q · count`. Returns 0 for an empty histogram. Log₂ buckets bound
    /// the overestimate at 2×.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bound(b);
            }
        }
        u64::MAX
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }
}

// ---- dimensions --------------------------------------------------------

/// The instrumented engine operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `open_session`.
    Open,
    /// `next_question`.
    Next,
    /// `answer`.
    Answer,
    /// `finish`.
    Finish,
    /// `cancel`.
    Cancel,
    /// One idle-eviction drain of a shard (the latency histogram times the
    /// whole drain; the per-kind counters count individual evictions).
    Evict,
    /// One full `recover_with` (recorded once, on shard 0).
    Recover,
}

/// All [`Op`] variants, in wire/index order.
pub const OPS: [Op; 7] = [
    Op::Open,
    Op::Next,
    Op::Answer,
    Op::Finish,
    Op::Cancel,
    Op::Evict,
    Op::Recover,
];

impl Op {
    pub(crate) fn index(self) -> usize {
        match self {
            Op::Open => 0,
            Op::Next => 1,
            Op::Answer => 2,
            Op::Finish => 3,
            Op::Cancel => 4,
            Op::Evict => 5,
            Op::Recover => 6,
        }
    }

    /// Stable lowercase label (Prometheus `op` label value).
    pub fn name(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Next => "next",
            Op::Answer => "answer",
            Op::Finish => "finish",
            Op::Cancel => "cancel",
            Op::Evict => "evict",
            Op::Recover => "recover",
        }
    }
}

/// The serving tier a recorded operation ran on. Operations that error
/// before the tier is known record as [`Tier::Live`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Live policy stepping.
    Live,
    /// Compiled flat-array stepping.
    Compiled,
    /// The answer that crossed a truncated tree's frontier and
    /// materialised the live policy, or an open that found its compiled
    /// tree truncated at the root and opened live.
    Fallback,
}

/// All [`Tier`] variants, in wire/index order.
pub const TIERS: [Tier; 3] = [Tier::Live, Tier::Compiled, Tier::Fallback];

impl Tier {
    pub(crate) fn index(self) -> usize {
        match self {
            Tier::Live => 0,
            Tier::Compiled => 1,
            Tier::Fallback => 2,
        }
    }

    /// Stable lowercase label (Prometheus `tier` label value).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Live => "live",
            Tier::Compiled => "compiled",
            Tier::Fallback => "fallback",
        }
    }
}

/// Policy-kind slots: the eight poolable kinds at their pool index, plus
/// `Random` (every seed) at slot 8.
pub(crate) const KIND_SLOTS: usize = 9;

/// The telemetry slot of `kind` (pool index, or 8 for `Random`).
pub(crate) fn kind_slot(kind: PolicyKind) -> usize {
    kind.pool_index().unwrap_or(KIND_SLOTS - 1)
}

/// Stable label of telemetry kind slot `i` (matches
/// [`PolicyKind::name`]).
pub(crate) fn kind_slot_name(i: usize) -> &'static str {
    match i {
        0 => "top-down",
        1 => "migs",
        2 => "wigs",
        3 => "greedy-tree",
        4 => "greedy-dag",
        5 => "greedy-naive",
        6 => "cost-sensitive-greedy",
        7 => "optimal-expected",
        _ => "random",
    }
}

// ---- per-shard cells ---------------------------------------------------

/// WAL-internals metrics for one shard's log.
#[derive(Debug)]
pub(crate) struct WalTelemetry {
    /// Bytes handed to the OS by acknowledged tail appends.
    pub(crate) append_bytes: AtomicU64,
    /// Records appended since the last observed fsync (swapped to zero by
    /// each fsync and recorded into `fsync_batch`).
    pub(crate) since_fsync: AtomicU64,
    /// Batch sizes (records per fsync) of group-commit and explicit syncs.
    pub(crate) fsync_batch: Histogram,
    /// Fsync latencies in nanoseconds (same population as `fsync_batch`).
    pub(crate) fsync_ns: Histogram,
    /// Group-commit flush signals raised at batch boundaries. The gap
    /// between this and `fsync_batch.count()` is coalescing: signals that
    /// folded into an already-pending flush.
    pub(crate) flush_signals: AtomicU64,
    /// Wall time of each completed compaction (rotate, snapshot write and
    /// fsync, publish) in nanoseconds; its count is the compactions
    /// completed on this shard. A compaction runs inline on the operation
    /// that crossed the auto-compaction threshold.
    pub(crate) compaction_ns: Histogram,
    /// Bytes written to published snapshots.
    pub(crate) snapshot_bytes: AtomicU64,
    /// Degraded-mode transitions attributed to this shard's log (at most
    /// one per engine lifetime today — the flag latches).
    pub(crate) degraded_transitions: AtomicU64,
}

impl WalTelemetry {
    fn new() -> WalTelemetry {
        WalTelemetry {
            append_bytes: AtomicU64::new(0),
            since_fsync: AtomicU64::new(0),
            fsync_batch: Histogram::new(),
            fsync_ns: Histogram::new(),
            flush_signals: AtomicU64::new(0),
            compaction_ns: Histogram::new(),
            snapshot_bytes: AtomicU64::new(0),
            degraded_transitions: AtomicU64::new(0),
        }
    }

    /// Records one observed fsync: its latency and the batch it made
    /// durable.
    pub(crate) fn record_fsync(&self, ns: u64) {
        let batch = self.since_fsync.swap(0, Ordering::Relaxed);
        self.fsync_batch.record(batch);
        self.fsync_ns.record(ns);
    }
}

/// One slow operation that crossed the threshold, captured for tail
/// diagnosis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowOp {
    /// Shard the operation ran on.
    pub shard: u32,
    /// Which operation.
    pub op: Op,
    /// Which serving tier.
    pub tier: Tier,
    /// The session's policy kind.
    pub kind: PolicyKind,
    /// Wall time of the operation in nanoseconds.
    pub duration_ns: u64,
    /// The engine's logical clock when the operation finished.
    pub at: u64,
}

/// Bounded ring of [`SlowOp`]s that drops its oldest entry when full. The
/// mutex is off the hot path: it is taken only for timed operations that
/// already exceeded the threshold.
#[derive(Debug)]
struct SlowJournal {
    ring: Mutex<VecDeque<SlowOp>>,
    /// Records dropped (oldest first) before being drained.
    dropped: AtomicU64,
}

impl SlowJournal {
    fn new() -> SlowJournal {
        SlowJournal {
            ring: Mutex::new(VecDeque::with_capacity(SLOW_RING)),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, entry: SlowOp) {
        let mut ring = self.ring.lock().expect("slow journal poisoned");
        if ring.len() >= SLOW_RING {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(entry);
    }

    /// Takes every journaled entry, oldest first.
    fn drain(&self) -> Vec<SlowOp> {
        std::mem::take(&mut *self.ring.lock().expect("slow journal poisoned")).into()
    }
}

/// One shard's metric cell. `#[repr(align(64))]` keeps each shard's hot
/// counters on their own cache lines, so concurrent recording on
/// different shards never false-shares.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct ShardTelemetry {
    /// Whether this cell records (resolved once at engine construction; a
    /// disabled cell keeps only the exact `ops` counts).
    enabled: bool,
    /// Exact operation counts per operation × serving tier × kind slot,
    /// the last slot holding operations with no kind ([`Op::Recover`]).
    /// One relaxed add per operation, recorded whether or not the cell is
    /// enabled: the per-tier and per-kind counts are its two projections,
    /// and the engine's step and tier counters derive from the first.
    ops: [[[AtomicU64; KIND_SLOTS + 1]; TIERS.len()]; OPS.len()],
    /// Sampled latency histograms (nanoseconds) per operation × serving
    /// tier.
    op_tier_ns: [[Histogram; TIERS.len()]; OPS.len()],
    wal: WalTelemetry,
    slow: SlowJournal,
}

impl ShardTelemetry {
    pub(crate) fn new(enabled: bool) -> ShardTelemetry {
        ShardTelemetry {
            enabled,
            ops: std::array::from_fn(|_| {
                std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            }),
            op_tier_ns: std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new())),
            wal: WalTelemetry::new(),
            slow: SlowJournal::new(),
        }
    }

    /// Whether this cell records (callers gate their `Instant::now()`
    /// reads on this so disabled telemetry costs nothing).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Counts one operation of `kind` (`None` for an operation with no
    /// kind) exactly — one relaxed add, recorded even when the cell is
    /// disabled.
    #[inline]
    pub(crate) fn count_op(&self, op: Op, tier: Tier, kind: Option<PolicyKind>) {
        let slot = kind.map_or(KIND_SLOTS, kind_slot);
        self.ops[op.index()][tier.index()][slot].fetch_add(1, Ordering::Relaxed);
    }

    /// The exact count of `op` served on `tier`, across kinds.
    pub(crate) fn op_count(&self, op: Op, tier: Tier) -> u64 {
        self.ops[op.index()][tier.index()]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Records one timed operation's latency into its (op, tier)
    /// histogram.
    #[inline]
    pub(crate) fn record_duration(&self, op: Op, tier: Tier, ns: u64) {
        if self.enabled {
            self.op_tier_ns[op.index()][tier.index()].record(ns);
        }
    }

    /// Journals `entry` if it crossed `threshold_ns`.
    #[inline]
    pub(crate) fn note_slow(&self, threshold_ns: u64, entry: SlowOp) {
        if self.enabled && entry.duration_ns >= threshold_ns {
            self.slow.push(entry);
        }
    }

    /// One acknowledged tail append of `bytes` encoded bytes.
    #[inline]
    pub(crate) fn wal_append(&self, bytes: u64) {
        if self.enabled {
            self.wal.append_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.wal.since_fsync.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One group-commit flush signal raised at a batch boundary.
    #[inline]
    pub(crate) fn wal_flush_signal(&self) {
        if self.enabled {
            self.wal.flush_signals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One observed fsync that took `ns`.
    #[inline]
    pub(crate) fn wal_fsync(&self, ns: u64) {
        if self.enabled {
            self.wal.record_fsync(ns);
        }
    }

    /// One completed snapshot compaction that took `ns` and wrote a
    /// snapshot of `bytes`.
    pub(crate) fn wal_compaction(&self, ns: u64, bytes: u64) {
        if self.enabled {
            self.wal.compaction_ns.record(ns);
            self.wal.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// One degraded-mode transition attributed to this shard's log.
    pub(crate) fn wal_degraded(&self) {
        if self.enabled {
            self.wal
                .degraded_transitions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn drain_slow(&self) -> Vec<SlowOp> {
        self.slow.drain()
    }

    pub(crate) fn slow_dropped(&self) -> u64 {
        self.slow.dropped.load(Ordering::Relaxed)
    }
}

// ---- plan cost cells ---------------------------------------------------

/// A policy's predicted expected cost on a plan, from an exhaustive
/// evaluation over the plan's prior
/// ([`aigs_core::evaluate_exhaustive`] — paper Definitions 7–8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedCost {
    /// Expected oracle queries per session.
    pub expected_queries: f64,
    /// Expected price per session (equals `expected_queries` under
    /// uniform costs).
    pub expected_price: f64,
}

/// Realized-cost accumulator for one (plan, kind): queries per finished
/// session as a histogram, price as a micro-unit sum (prices are `f64`;
/// the hot path stays a single integer `fetch_add`).
#[derive(Debug)]
pub(crate) struct RealizedCell {
    pub(crate) queries: Histogram,
    pub(crate) price_micros: AtomicU64,
}

/// Per-plan realized-cost cells, one per kind slot.
#[derive(Debug)]
pub(crate) struct PlanTelemetry {
    pub(crate) realized: [RealizedCell; KIND_SLOTS],
}

impl PlanTelemetry {
    pub(crate) fn new() -> PlanTelemetry {
        PlanTelemetry {
            realized: std::array::from_fn(|_| RealizedCell {
                queries: Histogram::new(),
                price_micros: AtomicU64::new(0),
            }),
        }
    }

    /// Records one finished session's realized cost.
    #[inline]
    pub(crate) fn record_finish(&self, kind: PolicyKind, queries: u32, price: f64) {
        let cell = &self.realized[kind_slot(kind)];
        cell.queries.record(u64::from(queries));
        cell.price_micros
            .fetch_add(price_to_micros(price), Ordering::Relaxed);
    }
}

/// Price → integer micro-units for the lock-free accumulator.
pub(crate) fn price_to_micros(price: f64) -> u64 {
    (price.max(0.0) * 1e6).round() as u64
}

/// Micro-units → price.
pub(crate) fn micros_to_price(micros: u64) -> f64 {
    micros as f64 / 1e6
}

// ---- snapshots ---------------------------------------------------------

/// Realized + predicted cost for one (plan, kind) pair with traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanKindCost {
    /// Telemetry kind slot (see [`PolicyKind::name`] labels).
    pub kind: String,
    /// Queries per finished session (count = finished sessions).
    pub queries: HistSnapshot,
    /// Total realized price across those sessions.
    pub price_sum: f64,
    /// The policy's predicted expected cost, when it has been computed
    /// (snapshots never force the exhaustive evaluation themselves).
    pub predicted: Option<PredictedCost>,
}

/// Realized-cost rows of one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCostSnapshot {
    /// The plan's registration index.
    pub plan: u32,
    /// One row per kind slot that finished at least one session (or has a
    /// computed prediction).
    pub kinds: Vec<PlanKindCost>,
}

/// Aggregated WAL metrics across shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalMetrics {
    /// Bytes appended to acknowledged tails.
    pub append_bytes: u64,
    /// Records per observed fsync.
    pub fsync_batch: HistSnapshot,
    /// Fsync latency (ns).
    pub fsync_ns: HistSnapshot,
    /// Group-commit flush signals (≥ `fsync_batch.count()`; the surplus
    /// coalesced).
    pub flush_signals: u64,
    /// Snapshot compactions completed.
    pub compactions: u64,
    /// Compaction wall time (ns), one sample per completed compaction.
    pub compaction_ns: HistSnapshot,
    /// Bytes written to published snapshots.
    pub snapshot_bytes: u64,
    /// Degraded-mode transitions recorded at WAL failure sites.
    pub degraded_transitions: u64,
}

impl WalMetrics {
    fn merge(&mut self, other: &WalMetrics) {
        self.append_bytes += other.append_bytes;
        self.fsync_batch.merge(&other.fsync_batch);
        self.fsync_ns.merge(&other.fsync_ns);
        self.flush_signals += other.flush_signals;
        self.compactions += other.compactions;
        self.compaction_ns.merge(&other.compaction_ns);
        self.snapshot_bytes += other.snapshot_bytes;
        self.degraded_transitions += other.degraded_transitions;
    }

    fn minus(&self, earlier: &WalMetrics) -> WalMetrics {
        WalMetrics {
            append_bytes: self.append_bytes.saturating_sub(earlier.append_bytes),
            fsync_batch: self.fsync_batch.minus(&earlier.fsync_batch),
            fsync_ns: self.fsync_ns.minus(&earlier.fsync_ns),
            flush_signals: self.flush_signals.saturating_sub(earlier.flush_signals),
            compactions: self.compactions.saturating_sub(earlier.compactions),
            compaction_ns: self.compaction_ns.minus(&earlier.compaction_ns),
            snapshot_bytes: self.snapshot_bytes.saturating_sub(earlier.snapshot_bytes),
            degraded_transitions: self
                .degraded_transitions
                .saturating_sub(earlier.degraded_transitions),
        }
    }
}

/// A point-in-time, cross-shard aggregation of the engine's telemetry —
/// the payload behind the `metrics` wire opcode and the Prometheus
/// exposition. All counters are cumulative since engine construction;
/// [`TelemetrySnapshot::minus`] differences two snapshots into a delta.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Whether recording was enabled (a disabled engine snapshots zeros).
    pub enabled: bool,
    /// The engine's logical clock at snapshot time.
    pub clock: u64,
    /// Shard count the cells were aggregated over.
    pub shards: u32,
    /// Exact operation counts, indexed `[op][tier]` in [`OPS`] ×
    /// [`TIERS`] order.
    pub op_tier_count: Vec<Vec<u64>>,
    /// Sampled latency histograms (ns), indexed like `op_tier_count`:
    /// each `count()` is the number of timed samples, at most the exact
    /// count.
    pub op_tier_ns: Vec<Vec<HistSnapshot>>,
    /// Operation counts, indexed `[op][kind slot]` ([`OPS`] order × the
    /// nine kind slots).
    pub op_kind: Vec<Vec<u64>>,
    /// WAL internals, summed across shards.
    pub wal: WalMetrics,
    /// Per-plan realized/predicted cost rows.
    pub plans: Vec<PlanCostSnapshot>,
    /// Slow-op journal records dropped, oldest first, before being drained.
    pub slow_dropped: u64,
}

impl TelemetrySnapshot {
    /// An all-zero snapshot (the shape deltas subtract against).
    pub fn empty(enabled: bool, shards: u32) -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled,
            clock: 0,
            shards,
            op_tier_count: vec![vec![0; TIERS.len()]; OPS.len()],
            op_tier_ns: vec![vec![HistSnapshot::default(); TIERS.len()]; OPS.len()],
            op_kind: vec![vec![0; KIND_SLOTS]; OPS.len()],
            wal: WalMetrics::default(),
            plans: Vec::new(),
            slow_dropped: 0,
        }
    }

    pub(crate) fn absorb_shard(&mut self, cell: &ShardTelemetry) {
        if !cell.enabled {
            // The exact `ops` cells still count for the engine's stats; a
            // disabled snapshot stays all-zero.
            return;
        }
        for (o, per_tier) in cell.ops.iter().enumerate() {
            for (t, per_slot) in per_tier.iter().enumerate() {
                for (k, count) in per_slot.iter().enumerate() {
                    let n = count.load(Ordering::Relaxed);
                    self.op_tier_count[o][t] += n;
                    if k < KIND_SLOTS {
                        self.op_kind[o][k] += n;
                    }
                }
            }
        }
        for (o, row) in self.op_tier_ns.iter_mut().enumerate() {
            for (t, h) in row.iter_mut().enumerate() {
                h.merge(&cell.op_tier_ns[o][t].snapshot());
            }
        }
        let compaction_ns = cell.wal.compaction_ns.snapshot();
        self.wal.merge(&WalMetrics {
            append_bytes: cell.wal.append_bytes.load(Ordering::Relaxed),
            fsync_batch: cell.wal.fsync_batch.snapshot(),
            fsync_ns: cell.wal.fsync_ns.snapshot(),
            flush_signals: cell.wal.flush_signals.load(Ordering::Relaxed),
            compactions: compaction_ns.count(),
            compaction_ns,
            snapshot_bytes: cell.wal.snapshot_bytes.load(Ordering::Relaxed),
            degraded_transitions: cell.wal.degraded_transitions.load(Ordering::Relaxed),
        });
        self.slow_dropped += cell.slow_dropped();
    }

    /// The sampled (op, tier) latency histogram, by dimension value.
    pub fn op_tier(&self, op: Op, tier: Tier) -> &HistSnapshot {
        &self.op_tier_ns[op.index()][tier.index()]
    }

    /// The exact count of `op` served on `tier`.
    pub fn op_count(&self, op: Op, tier: Tier) -> u64 {
        self.op_tier_count[op.index()][tier.index()]
    }

    /// Total recorded count of `op` across kinds (reconciles with the
    /// matching [`crate::EngineStats`] counter).
    pub fn op_total(&self, op: Op) -> u64 {
        self.op_kind[op.index()].iter().sum()
    }

    /// The delta `self − earlier` between two snapshots of one engine:
    /// element-wise saturating subtraction of every counter and bucket.
    /// Plan rows are differenced by plan index; `predicted` keeps the
    /// newer value (it is a gauge, not a counter).
    pub fn minus(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut out = self.clone();
        subtract_counts(&mut out.op_tier_count, &earlier.op_tier_count);
        subtract_counts(&mut out.op_kind, &earlier.op_kind);
        for (o, row) in out.op_tier_ns.iter_mut().enumerate() {
            for (t, h) in row.iter_mut().enumerate() {
                if let Some(e) = earlier.op_tier_ns.get(o).and_then(|r| r.get(t)) {
                    *h = h.minus(e);
                }
            }
        }
        out.wal = self.wal.minus(&earlier.wal);
        out.slow_dropped = self.slow_dropped.saturating_sub(earlier.slow_dropped);
        for plan in &mut out.plans {
            let Some(eplan) = earlier.plans.iter().find(|p| p.plan == plan.plan) else {
                continue;
            };
            for row in &mut plan.kinds {
                let Some(erow) = eplan.kinds.iter().find(|r| r.kind == row.kind) else {
                    continue;
                };
                row.queries = row.queries.minus(&erow.queries);
                row.price_sum = (row.price_sum - erow.price_sum).max(0.0);
            }
        }
        out
    }
}

/// Element-wise saturating `counts − earlier` over a `[op][column]` table
/// (cells missing from `earlier` stay as they are).
fn subtract_counts(counts: &mut [Vec<u64>], earlier: &[Vec<u64>]) {
    for (row, erow) in counts.iter_mut().zip(earlier) {
        for (c, e) in row.iter_mut().zip(erow) {
            *c = c.saturating_sub(*e);
        }
    }
}

// ---- Prometheus exposition ---------------------------------------------

/// Appends one histogram as Prometheus `_bucket`/`_sum`/`_count` series
/// with `labels` (e.g. `op="open",tier="live"`). Buckets are cumulative;
/// trailing empty buckets collapse into the mandatory `+Inf` line.
pub(crate) fn render_histogram(out: &mut String, name: &str, labels: &str, h: &HistSnapshot) {
    use std::fmt::Write;
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    let last = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .unwrap_or(0)
        .min(HIST_BUCKETS - 2);
    for (b, &c) in h.buckets.iter().enumerate().take(last + 1) {
        cum += c;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}",
            bucket_bound(b)
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for b in 1..HIST_BUCKETS - 1 {
            let lo = 1u64 << (b - 1);
            assert_eq!(bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_index((1u64 << b) - 1), b, "upper edge of bucket {b}");
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::new();
        for v in [0, 1, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1_001_101);
        assert!(s.quantile(0.5) >= 100);
        assert!(s.quantile(1.0) >= 1_000_000);
        assert_eq!(HistSnapshot::default().quantile(0.9), 0);
    }

    #[test]
    fn snapshot_merge_and_minus_roundtrip() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        a.record(900);
        b.record(7);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.minus(&sb), sa);
        assert_eq!(merged.minus(&sa), sb);
    }

    #[test]
    fn slow_journal_is_bounded() {
        let j = SlowJournal::new();
        let entry = SlowOp {
            shard: 0,
            op: Op::Answer,
            tier: Tier::Live,
            kind: PolicyKind::GreedyDag,
            duration_ns: 1,
            at: 0,
        };
        for i in 0..SLOW_RING as u64 + 10 {
            j.push(SlowOp {
                duration_ns: i,
                ..entry
            });
        }
        assert_eq!(j.dropped.load(Ordering::Relaxed), 10);
        let drained = j.drain();
        assert_eq!(drained.len(), SLOW_RING);
        // The ten oldest were dropped; the rest drain oldest first.
        assert_eq!(drained.first().unwrap().duration_ns, 10);
        assert_eq!(drained.last().unwrap().duration_ns, SLOW_RING as u64 + 9);
        assert!(j.drain().is_empty());
    }

    #[test]
    fn sampler_gaps_are_uniform_around_the_mean() {
        // A fresh thread: its first op is timed and its sequence is fixed.
        // 2 000 gaps: enough to draw both extremes and to pin the mean to
        // within 1/32 of itself.
        let ops = 2_000 * SAMPLE_MEAN_GAP as usize;
        let timed: Vec<usize> =
            std::thread::spawn(move || (0..ops).filter(|_| sample_next_op()).collect::<Vec<_>>())
                .join()
                .unwrap();
        assert_eq!(timed[0], 0, "the first op of a thread is timed");
        let gaps: Vec<usize> = timed.windows(2).map(|w| w[1] - w[0]).collect();
        let max_gap = 2 * SAMPLE_MEAN_GAP as usize - 1;
        assert!(gaps.iter().all(|&g| (1..=max_gap).contains(&g)));
        assert!(gaps.contains(&1) && gaps.contains(&max_gap));
        let mean = gaps.iter().sum::<usize>() as f64 / gaps.len() as f64;
        assert!(
            (mean - f64::from(SAMPLE_MEAN_GAP)).abs() < f64::from(SAMPLE_MEAN_GAP) / 32.0,
            "mean gap {mean}"
        );
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_inf() {
        let h = Histogram::new();
        h.record(1);
        h.record(3);
        let mut out = String::new();
        render_histogram(&mut out, "x", "op=\"a\"", &h.snapshot());
        assert!(out.contains("x_bucket{op=\"a\",le=\"+Inf\"} 2"));
        assert!(out.contains("x_count{op=\"a\"} 2"));
        assert!(out.contains("x_sum{op=\"a\"} 4"));
    }
}
