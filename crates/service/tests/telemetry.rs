//! Telemetry integration: histogram laws (property-tested), exact
//! reconciliation between [`TelemetrySnapshot`] and [`EngineStats`] under
//! mixed traffic, per-shard stats summing to the aggregate, the duration
//! sampler's coverage of alternating ops, the realized-vs-predicted cost
//! differential against [`aigs_core::evaluate_exhaustive`], and the
//! disabled-telemetry and slow-op-journal paths.

mod common;

use std::sync::Arc;

use aigs_core::{evaluate_exhaustive, NodeWeights, SearchContext};
use aigs_graph::NodeId;
use aigs_service::telemetry::{
    bucket_bound, bucket_index, HistSnapshot, Op, Tier, HIST_BUCKETS, OPS, SAMPLE_MEAN_GAP, TIERS,
};
use aigs_service::{EngineConfig, PlanSpec, PolicyKind, SearchEngine};
use aigs_testutil::{dag_from_seed, generic_weights};
use common::{drive_to_end, env_reach_choice, scratch_dir};
use proptest::prelude::*;

/// Builds a [`HistSnapshot`] the way the atomic histogram would, from a
/// list of recorded values.
fn hist_of(values: &[u64]) -> HistSnapshot {
    let mut h = HistSnapshot::default();
    for &v in values {
        h.buckets[bucket_index(v)] += 1;
        h.sum = h.sum.wrapping_add(v);
    }
    h
}

fn merged(a: &HistSnapshot, b: &HistSnapshot) -> HistSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in the bucket whose bounds contain it:
    /// `bound(b-1) < v <= bound(b)`.
    #[test]
    fn bucket_index_respects_bucket_bounds(v in 0u64..u64::MAX) {
        let b = bucket_index(v);
        prop_assert!(b < HIST_BUCKETS);
        prop_assert!(v <= bucket_bound(b), "v={v} above bound of bucket {b}");
        if b > 0 {
            prop_assert!(
                v > bucket_bound(b - 1),
                "v={v} not above bound of bucket {}",
                b - 1
            );
        }
    }

    /// Merge is associative and commutative, count/sum are additive, and
    /// `minus` inverts a merge — the laws per-shard aggregation and delta
    /// snapshots rely on.
    #[test]
    fn histogram_merge_laws(
        xs in prop::collection::vec(0u64..(1u64 << 48), 0..40),
        ys in prop::collection::vec(0u64..(1u64 << 48), 0..40),
        zs in prop::collection::vec(0u64..(1u64 << 48), 0..40),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(&left, &right, "merge is not associative");
        prop_assert_eq!(merged(&a, &b), merged(&b, &a), "merge is not commutative");
        prop_assert_eq!(left.count(), (xs.len() + ys.len() + zs.len()) as u64);
        prop_assert_eq!(
            merged(&a, &b).minus(&a),
            b.clone(),
            "minus does not invert merge"
        );
    }
}

/// Mixed traffic — finished, cancelled, errored, and evicted sessions on
/// live and compiled tiers across shards — reconciles *exactly* with the
/// engine's counters: telemetry is the same events, just richer.
#[test]
fn telemetry_reconciles_with_engine_stats() {
    let n = 18;
    let seed = 0x7e1e;
    let dag = Arc::new(dag_from_seed(n, 0.3, seed));
    let weights = Arc::new(generic_weights(n, seed));
    let engine = SearchEngine::new(EngineConfig {
        shards: 4,
        idle_ticks: Some(32),
        telemetry: Some(true),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(Arc::clone(&dag), weights).with_reach(env_reach_choice()))
        .unwrap();

    // Finished sessions, every target once (greedy-dag; compiled or live
    // depending on the plan's compiled tier — telemetry must agree either
    // way).
    for v in dag.nodes() {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        drive_to_end(&engine, id, &dag, v);
    }
    // A few seeded-random sessions, finished and cancelled.
    for s in 0..6u64 {
        let id = engine
            .open_session(plan, PolicyKind::Random { seed: s })
            .unwrap()
            .id();
        if s % 2 == 0 {
            drive_to_end(&engine, id, &dag, NodeId::new(((s as usize) * 3) % n));
        } else {
            engine.cancel(id).unwrap();
        }
    }
    // An errored session: GreedyTree on a DAG plan fails (at open or at
    // its first step, depending on where the policy validates shape).
    if let Ok(handle) = engine.open_session(plan, PolicyKind::GreedyTree) {
        assert!(engine.next_question(handle.id()).is_err());
    }
    // Idle-evicted sessions: abandon three, age them past the TTL by
    // stepping a fourth, then sweep.
    let _abandoned: Vec<_> = (0..3)
        .map(|_| engine.open_session(plan, PolicyKind::TopDown).unwrap().id())
        .collect();
    let active = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
    for _ in 0..40 {
        let _ = engine.next_question(active).unwrap();
    }
    let swept = engine.sweep_idle();
    assert!(swept >= 3, "expected the abandoned sessions to be evicted");

    let stats = engine.stats();
    let snap = engine.telemetry();
    assert!(snap.enabled);
    assert_eq!(snap.shards as usize, stats.shards);

    // Event-for-event reconciliation.
    assert_eq!(snap.op_total(Op::Open), stats.opened, "opens");
    assert_eq!(snap.op_total(Op::Finish), stats.finished, "finishes");
    assert_eq!(snap.op_total(Op::Cancel), stats.cancelled, "cancels");
    assert_eq!(snap.op_total(Op::Evict), stats.evicted, "evictions");
    assert_eq!(
        snap.op_total(Op::Next) + snap.op_total(Op::Answer),
        stats.steps,
        "steps"
    );
    // The exact (op, tier) counts are what the stats derive from.
    let on_tier = |op, tier| snap.op_count(op, tier);
    let steps_on = |tier| on_tier(Op::Next, tier) + on_tier(Op::Answer, tier);
    assert_eq!(
        TIERS.into_iter().map(steps_on).sum::<u64>(),
        stats.steps,
        "steps by tier"
    );
    assert_eq!(
        steps_on(Tier::Compiled),
        stats.compiled_hits,
        "compiled-tier hits"
    );
    assert_eq!(
        on_tier(Op::Open, Tier::Fallback) + on_tier(Op::Answer, Tier::Fallback),
        stats.compiled_fallbacks,
        "compiled-tier fallbacks"
    );
    // Both exact breakdowns count the same operations (Recover, the one
    // op without a kind, never fired here), and each sampled histogram
    // holds at most its exact count: durations are timed for a sample of
    // ops, while Evict records one drain duration per non-empty sweep.
    for op in OPS {
        let exact: u64 = TIERS.into_iter().map(|t| on_tier(op, t)).sum();
        assert_eq!(
            exact,
            snap.op_total(op),
            "tier/kind totals differ for {op:?}"
        );
        for tier in TIERS {
            assert!(
                snap.op_tier(op, tier).count() <= on_tier(op, tier),
                "more {op:?}/{tier:?} samples than ops"
            );
        }
    }

    // Per-shard stats sum to the aggregate, field by field.
    let shards = engine.stats_per_shard();
    assert_eq!(shards.len(), stats.shards);
    let sum = |f: fn(&aigs_service::ShardStats) -> u64| shards.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.live) as usize, stats.live);
    assert_eq!(sum(|s| s.opened), stats.opened);
    assert_eq!(sum(|s| s.finished), stats.finished);
    assert_eq!(sum(|s| s.cancelled), stats.cancelled);
    assert_eq!(sum(|s| s.evicted), stats.evicted);
    assert_eq!(sum(|s| s.errored), stats.errored);
    assert_eq!(sum(|s| s.panicked), stats.panicked);
    assert_eq!(sum(|s| s.steps), stats.steps);
    assert_eq!(sum(|s| s.pool_hits), stats.pool_hits);
    assert_eq!(sum(|s| s.compiled_hits), stats.compiled_hits);
    assert_eq!(sum(|s| s.compiled_fallbacks), stats.compiled_fallbacks);
    assert_eq!(sum(|s| s.wal_records), stats.wal_records);

    // The Prometheus rendering carries the same totals.
    let text = engine.prometheus_text();
    assert!(text.contains("aigs_live_sessions"), "{text}");
    assert!(
        text.contains("aigs_ops_total{op=\"finish\",kind=\"greedy-dag\"}"),
        "missing finish row:\n{text}"
    );
    assert!(text.contains("aigs_op_duration_ns_bucket"), "{text}");
}

/// With telemetry disabled the snapshot stays empty (and the hot path
/// records nothing), while the engine counters — steps included, which
/// derive from the always-on exact cells — still work.
#[test]
fn disabled_telemetry_records_nothing() {
    let n = 12;
    let dag = Arc::new(dag_from_seed(n, 0.3, 0xd15));
    let weights = Arc::new(generic_weights(n, 0xd15));
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        telemetry: Some(false),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(Arc::clone(&dag), weights))
        .unwrap();
    let mut driven = 0;
    for v in dag.nodes().take(4) {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        let (transcript, _) = drive_to_end(&engine, id, &dag, v);
        // One next + answer per question, plus the resolving next.
        driven += 2 * transcript.len() as u64 + 1;
    }
    let stats = engine.stats();
    assert_eq!(stats.opened, 4);
    assert_eq!(
        stats.steps, driven,
        "steps must stay exact with telemetry off"
    );
    let snap = engine.telemetry();
    assert!(!snap.enabled);
    for op in OPS {
        assert_eq!(snap.op_total(op), 0, "{op:?} recorded while disabled");
    }
    assert_eq!(snap.wal.append_bytes, 0);
    assert!(snap.plans.is_empty());
    assert!(engine.drain_slow_ops().is_empty());
}

/// Strict next/answer alternation must not alias with the duration
/// sampler: over ≥10 000 alternating ops each of the two histograms holds
/// between half and twice its expected share, `1 / SAMPLE_MEAN_GAP`, of
/// its exact count. A fixed even stride would time only one of the two.
#[test]
fn sampled_durations_cover_alternating_ops() {
    // A path: top-down asks one question per edge on the way to the
    // deepest node, so one session alternates 5 000 next/answer pairs.
    let n = 5_001;
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    let dag = Arc::new(aigs_graph::dag_from_edges(n, &edges).unwrap());
    let engine = SearchEngine::new(EngineConfig {
        shards: 1,
        telemetry: Some(true),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(
            Arc::clone(&dag),
            Arc::new(NodeWeights::uniform(n)),
        ))
        .unwrap();
    let id = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
    drive_to_end(&engine, id, &dag, NodeId::new(n - 1));
    let snap = engine.telemetry();
    for op in [Op::Next, Op::Answer] {
        let exact: u64 = TIERS.into_iter().map(|t| snap.op_count(op, t)).sum();
        let sampled: u64 = TIERS.into_iter().map(|t| snap.op_tier(op, t).count()).sum();
        assert!(exact >= 5_000, "{op:?}: only {exact} ops driven");
        // About 1 op in SAMPLE_MEAN_GAP is timed: accept half to twice that.
        let gap = u64::from(SAMPLE_MEAN_GAP);
        assert!(
            2 * gap * sampled >= exact && gap * sampled <= 2 * exact,
            "{op:?}: {sampled} samples of {exact} ops, outside 1/{}..1/{}",
            2 * gap,
            gap / 2
        );
    }
}

/// The realized-cost histogram matches the policy's *predicted* expected
/// cost on a uniform-prior roster: driving every target once makes the
/// empirical mean equal the paper's `Σ p(v)·cost(v)` exactly, and the
/// prediction itself is bit-compatible with [`evaluate_exhaustive`].
#[test]
fn realized_cost_matches_predicted_on_uniform_prior() {
    let n = 16;
    let seed = 0xc057;
    let dag = Arc::new(dag_from_seed(n, 0.3, seed));
    let weights = Arc::new(NodeWeights::uniform(n));
    let kind = PolicyKind::GreedyDag;
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        telemetry: Some(true),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(
            PlanSpec::new(Arc::clone(&dag), Arc::clone(&weights)).with_reach(env_reach_choice()),
        )
        .unwrap();

    let predicted = engine
        .predict_expected_cost(plan, kind)
        .unwrap()
        .expect("greedy-dag is predictable");

    // Differential reference: the same evaluation, run directly on core.
    let ctx = SearchContext::new(&dag, &weights);
    let report = evaluate_exhaustive(kind.build().as_mut(), &ctx).unwrap();
    assert!(
        (predicted.expected_queries - report.expected_cost).abs() < 1e-9,
        "predicted {} vs evaluate_exhaustive {}",
        predicted.expected_queries,
        report.expected_cost
    );
    assert!((predicted.expected_price - report.expected_price).abs() < 1e-9);

    // Drive every target once; under a uniform prior the realized mean is
    // the expected cost, with no sampling error.
    let mut total_queries = 0u64;
    let mut total_price = 0.0f64;
    for v in dag.nodes() {
        let id = engine.open_session(plan, kind).unwrap().id();
        let (_, outcome) = drive_to_end(&engine, id, &dag, v);
        total_queries += u64::from(outcome.queries);
        total_price += outcome.price;
    }

    let snap = engine.telemetry();
    let row = snap
        .plans
        .iter()
        .find(|p| p.plan == plan.index())
        .and_then(|p| p.kinds.iter().find(|k| k.kind == kind.name()))
        .expect("realized row for greedy-dag");
    assert_eq!(row.queries.count(), n as u64);
    assert_eq!(row.queries.sum, total_queries);
    // Price is accumulated in integer micros: exact to n µ-units.
    assert!((row.price_sum - total_price).abs() < n as f64 * 1e-6);
    let realized_mean = row.queries.sum as f64 / row.queries.count() as f64;
    assert!(
        (realized_mean - predicted.expected_queries).abs() < 1e-9,
        "realized mean {} vs predicted {}",
        realized_mean,
        predicted.expected_queries
    );
    let gauge = row.predicted.expect("snapshot carries the prediction");
    assert!((gauge.expected_queries - predicted.expected_queries).abs() < 1e-12);
}

/// Durable traffic populates the WAL metric family: appended bytes,
/// fsync batch/latency histograms, and zero degraded transitions on the
/// happy path.
#[test]
fn wal_metrics_populate_under_durability() {
    let dir = scratch_dir("telemetry-wal");
    let n = 12;
    let dag = Arc::new(dag_from_seed(n, 0.3, 0xa1));
    let weights = Arc::new(generic_weights(n, 0xa1));
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        telemetry: Some(true),
        durability: Some(
            aigs_service::DurabilityConfig::new(&dir).with_fsync(aigs_service::FsyncPolicy::Always),
        ),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(Arc::clone(&dag), weights))
        .unwrap();
    for v in dag.nodes().take(6) {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        drive_to_end(&engine, id, &dag, v);
    }
    let stats = engine.stats();
    assert!(stats.wal_records > 0);
    assert!(!stats.degraded);
    assert_eq!(stats.degraded_since, None);
    assert_eq!(stats.degraded_reason, None);
    let snap = engine.telemetry();
    assert!(snap.wal.append_bytes > 0, "no WAL bytes recorded");
    assert!(snap.wal.fsync_ns.count() > 0, "no fsyncs timed");
    assert_eq!(snap.wal.degraded_transitions, 0);
    // Each fsync batch drains at least one record; batch totals cannot
    // exceed appended records.
    assert!(snap.wal.fsync_batch.sum <= stats.wal_records);
    // Compaction cost is visible: one timed sample and the snapshot's
    // bytes per shard compacted.
    assert_eq!(snap.wal.compactions, 0);
    engine.compact().unwrap();
    let wal = engine.telemetry().wal;
    assert_eq!(wal.compactions, 2);
    assert_eq!(wal.compaction_ns.count(), 2);
    assert!(wal.compaction_ns.sum > 0);
    assert!(wal.snapshot_bytes > 0);
    let text = engine.prometheus_text();
    assert!(
        text.contains("aigs_wal_compaction_duration_ns_count{} 2"),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "aigs_wal_snapshot_bytes_total {}",
            wal.snapshot_bytes
        )),
        "{text}"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A threshold of 1 ns makes every timed operation "slow": the journal
/// fills, stays bounded, and drains destructively.
#[test]
fn slow_op_journal_captures_and_bounds() {
    let n = 12;
    let dag = Arc::new(dag_from_seed(n, 0.3, 0x510));
    let weights = Arc::new(generic_weights(n, 0x510));
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        telemetry: Some(true),
        slow_op_ns: 1,
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(Arc::clone(&dag), weights))
        .unwrap();
    for v in dag.nodes().take(5) {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        drive_to_end(&engine, id, &dag, v);
    }
    let slow = engine.drain_slow_ops();
    assert!(!slow.is_empty(), "1 ns threshold should flag everything");
    // Bounded: at most one ring per shard.
    assert!(slow.len() <= 2 * 64, "journal exceeded its ring bound");
    for entry in &slow {
        assert!(entry.duration_ns >= 1);
        assert!((entry.shard as usize) < 2);
    }
    // Draining is destructive; an idle engine has nothing new.
    assert!(engine.drain_slow_ops().is_empty());
}
