//! Shard-count invariance: the number of shards is a *placement* decision
//! and must never be observable in what a session asks, answers, or
//! charges. The invariance tests pin `EngineConfig::shards` explicitly
//! (the host's parallelism may be 1) and compare N-shard engines against
//! a 1-shard engine and the inline [`run_session`] loop.

mod common;

use std::sync::Arc;

use aigs_core::{
    run_session, SearchContext, SessionStep, TargetOracle, TranscriptOracle, MAX_EXACT_NODES,
};
use aigs_graph::NodeId;
use aigs_service::{
    DurabilityConfig, EngineConfig, FsyncPolicy, PlanSpec, PolicyKind, SearchEngine, ServiceError,
};
use aigs_testutil::{dag_from_seed, generic_prices, generic_weights};
use common::{drive_to_end, env_reach_choice, open_and_replay, scratch_dir};

const N: usize = 17;
const SEED: u64 = 0x517;

fn plan_spec() -> PlanSpec {
    let dag = Arc::new(dag_from_seed(N, 0.25, SEED));
    let weights = Arc::new(generic_weights(N, SEED));
    let costs = Arc::new(generic_prices(N, SEED));
    PlanSpec::new(dag, weights)
        .with_costs(costs)
        .with_reach(env_reach_choice())
}

fn roster() -> Vec<PolicyKind> {
    let mut kinds = vec![
        PolicyKind::TopDown,
        PolicyKind::Migs,
        PolicyKind::Wigs,
        PolicyKind::GreedyDag,
        PolicyKind::GreedyNaive,
        PolicyKind::CostSensitive,
        PolicyKind::Random { seed: 0xfeed },
    ];
    if N <= MAX_EXACT_NODES {
        kinds.push(PolicyKind::Optimal);
    }
    kinds
}

fn sharded_engine(shards: usize) -> (SearchEngine, aigs_service::PlanId) {
    let engine = SearchEngine::new(EngineConfig {
        shards,
        ..common::engine_config()
    });
    let plan = engine.register_plan(plan_spec()).unwrap();
    (engine, plan)
}

/// Every policy kind, stepped on a 5-shard engine, a 1-shard engine, and
/// the inline loop: bit-identical transcripts, query counts, and prices.
#[test]
fn transcripts_are_shard_count_invariant() {
    let spec = plan_spec();
    let dag = spec.dag.clone();
    let weights = spec.weights.clone();
    let costs = spec.costs.clone();
    let (many, plan_many) = sharded_engine(5);
    let (one, plan_one) = sharded_engine(1);
    assert_eq!(many.stats().shards, 5);
    assert_eq!(one.stats().shards, 1);

    for (i, kind) in roster().into_iter().enumerate() {
        for target in [NodeId::new(i % N), NodeId::new((i * 7 + 3) % N)] {
            // Inline reference over the same artifacts.
            let ctx = SearchContext::new(&dag, &weights).with_costs(&costs);
            let mut policy = kind.build();
            let mut oracle = TranscriptOracle::new(TargetOracle::new(&dag, target));
            let want = run_session(policy.as_mut(), &ctx, &mut oracle, None).unwrap();

            let id_many = many.open_session(plan_many, kind).unwrap().id();
            let (t_many, out_many) = drive_to_end(&many, id_many, &dag, target);
            let id_one = one.open_session(plan_one, kind).unwrap().id();
            let (t_one, out_one) = drive_to_end(&one, id_one, &dag, target);

            assert_eq!(t_many, oracle.transcript, "{kind:?}: 5-shard vs inline");
            assert_eq!(t_one, oracle.transcript, "{kind:?}: 1-shard vs inline");
            for out in [&out_many, &out_one] {
                assert_eq!(out.target, want.target, "{kind:?}");
                assert_eq!(out.queries, want.queries, "{kind:?}");
                assert_eq!(out.price.to_bits(), want.price.to_bits(), "{kind:?}");
            }
        }
    }
}

/// Interleaved sessions across shards stay isolated: ids are unique, each
/// routes to its own session, and stats aggregate across all shards.
#[test]
fn interleaved_sessions_stay_isolated_across_shards() {
    let spec = plan_spec();
    let dag = spec.dag.clone();
    let (engine, plan) = sharded_engine(4);

    // Open 16 sessions (4 placement round-robins), interleave one step
    // each, then drive each to completion in reverse open order.
    let mut rows = Vec::new();
    for i in 0..16 {
        let target = NodeId::new((i * 3 + 1) % N);
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        rows.push((id, target, Vec::new()));
    }
    let ids: Vec<_> = rows.iter().map(|r| r.0).collect();
    assert_eq!(
        ids.iter().collect::<std::collections::HashSet<_>>().len(),
        ids.len(),
        "session ids must be globally unique across shards"
    );
    for (id, target, prefix) in rows.iter_mut() {
        if let SessionStep::Ask(q) = engine.next_question(*id).unwrap() {
            let yes = dag.reaches(q, *target);
            prefix.push((q, yes));
            engine.answer(*id, yes).unwrap();
        }
    }
    assert_eq!(engine.live_sessions(), 16);

    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec).unwrap();
    for (id, target, prefix) in rows.into_iter().rev() {
        let (got_t, got_out) = drive_to_end(&engine, id, &dag, target);
        let cid = open_and_replay(&control, cplan, PolicyKind::GreedyDag, &prefix);
        let (want_t, want_out) = drive_to_end(&control, cid, &dag, target);
        assert_eq!(got_t, want_t);
        assert_eq!(got_out.price.to_bits(), want_out.price.to_bits());
    }
    let stats = engine.stats();
    assert_eq!(stats.live, 0);
    assert_eq!(stats.opened, 16);
    assert_eq!(stats.finished, 16);
    assert_eq!(stats.peak_live, 16);
    assert_eq!(stats.shards, 4);
}

/// Crash + recover on a multi-shard directory: recovery discovers the
/// shard count from the layout (ignoring the configured value), replays
/// every shard, and each surviving session continues bit-identically to
/// an uncrashed 1-shard control.
#[test]
fn crash_recovery_is_bit_identical_across_shard_counts() {
    let dir = scratch_dir("shard-recover");
    let spec = plan_spec();
    let dag = spec.dag.clone();
    let kinds = roster();

    let engine = SearchEngine::try_new(EngineConfig {
        shards: 3,
        durability: Some(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::EveryN(4))),
        ..common::engine_config()
    })
    .unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();
    let mut live = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let target = NodeId::new((i * 5 + 2) % N);
        let id = engine.open_session(plan, kind).unwrap().id();
        let mut prefix = Vec::new();
        for _ in 0..i % 4 {
            match engine.next_question(id).unwrap() {
                SessionStep::Resolved(_) => break,
                SessionStep::Ask(q) => {
                    let yes = dag.reaches(q, target);
                    prefix.push((q, yes));
                    engine.answer(id, yes).unwrap();
                }
            }
        }
        live.push((id, kind, target, prefix));
    }
    drop(engine); // crash

    for k in 0..3 {
        assert!(
            dir.join(format!("shard-{k}")).join("wal.log").exists(),
            "shard-{k} tail missing"
        );
    }

    // Recover with a *different* configured shard count: the directory
    // layout must win, or shard-local indices would alias.
    let (rec, report) = SearchEngine::recover_with(EngineConfig {
        shards: 8,
        durability: Some(DurabilityConfig::new(&dir)),
        ..common::engine_config()
    })
    .unwrap();
    assert_eq!(report.shards, 3);
    assert_eq!(rec.stats().shards, 3);
    assert_eq!(report.sessions, kinds.len());
    assert_eq!(report.sessions_failed, 0);
    assert!(report.corruptions.is_empty(), "{:?}", report.corruptions);
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);

    let control = SearchEngine::new(EngineConfig {
        shards: 1,
        ..common::engine_config()
    });
    let cplan = control.register_plan(spec).unwrap();
    for (id, kind, target, prefix) in live {
        let (got_t, got_out) = drive_to_end(&rec, id, &dag, target);
        let cid = open_and_replay(&control, cplan, kind, &prefix);
        let (want_t, want_out) = drive_to_end(&control, cid, &dag, target);
        assert_eq!(got_t, want_t, "{kind:?}: continuation diverged");
        assert_eq!(got_out.queries, want_out.queries, "{kind:?}");
        assert_eq!(
            got_out.price.to_bits(),
            want_out.price.to_bits(),
            "{kind:?}"
        );
    }
}

/// Panics on any error, naming a lost lookup (`UnknownSession` on a live
/// session) distinctly.
fn must<T>(r: Result<T, ServiceError>, op: &str) -> T {
    match r {
        Ok(v) => v,
        Err(ServiceError::UnknownSession(id)) => panic!("{op}: live session {id:?} not found"),
        Err(e) => panic!("{op}: {e}"),
    }
}

/// The slot table grows while other threads step. Two opener threads push
/// a shard across three segment boundaries (past 64 + 128 + 256 = 448
/// slots) while two stepper threads drive sessions of their own one step
/// at a time, finishing each and opening a replacement. A lookup racing a
/// growth must never lose a slot: every transcript matches the inline
/// reference and no operation fails with `UnknownSession`.
#[test]
fn slot_table_grows_under_concurrent_steps() {
    const SHARDS: usize = 2;
    const PER_OPENER: usize = 500;
    const STEPPER_LIVE: usize = 16;
    let spec = plan_spec();
    let dag = spec.dag.clone();
    let kinds = [PolicyKind::GreedyDag, PolicyKind::TopDown];
    let ctx = SearchContext::new(&spec.dag, &spec.weights).with_costs(&spec.costs);
    let reference: Vec<Vec<Vec<(NodeId, bool)>>> = kinds
        .iter()
        .map(|kind| {
            (0..N)
                .map(|t| {
                    let mut oracle = TranscriptOracle::new(TargetOracle::new(&dag, NodeId::new(t)));
                    run_session(kind.build().as_mut(), &ctx, &mut oracle, None).unwrap();
                    oracle.transcript
                })
                .collect()
        })
        .collect();
    // Session `i` runs kind `i % 2` toward target `(7i + 3) mod N`.
    let job = |i: usize| (i % kinds.len(), (i * 7 + 3) % N);

    let engine = SearchEngine::new(EngineConfig {
        shards: SHARDS,
        idle_ticks: Some(1 << 40), // link every session, evict none
        ..common::engine_config()
    });
    let plan = engine.register_plan(spec.clone()).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    // Openers and steppers start together, so growth overlaps stepping.
    let start = std::sync::Barrier::new(4);
    let open = |i: usize| {
        let (k, _) = job(i);
        must(engine.open_session(plan, kinds[k]), "open").id()
    };

    let held: Vec<(usize, aigs_service::SessionId)> = std::thread::scope(|scope| {
        let steppers: Vec<_> = (0..2)
            .map(|s| {
                let (engine, dag, reference, done, start) =
                    (&engine, &dag, &reference, &done, &start);
                scope.spawn(move || {
                    start.wait();
                    // (job number, id, transcript so far) per live session.
                    let mut next_job = 1_000_000 * (s + 1);
                    let mut live: Vec<(usize, _, Vec<(NodeId, bool)>)> = (0..STEPPER_LIVE)
                        .map(|_| {
                            next_job += 1;
                            (next_job, open(next_job), Vec::new())
                        })
                        .collect();
                    let mut finished = 0usize;
                    while !live.is_empty() {
                        let stop = done.load(std::sync::atomic::Ordering::Acquire);
                        let mut i = 0;
                        while i < live.len() {
                            let (n, id, transcript) = &mut live[i];
                            match must(engine.next_question(*id), "next_question") {
                                SessionStep::Ask(q) => {
                                    let yes = dag.reaches(q, NodeId::new(job(*n).1));
                                    transcript.push((q, yes));
                                    must(engine.answer(*id, yes), "answer");
                                    i += 1;
                                }
                                SessionStep::Resolved(_) => {
                                    must(engine.finish(*id), "finish");
                                    let (k, t) = job(*n);
                                    assert_eq!(*transcript, reference[k][t], "{:?}", kinds[k]);
                                    finished += 1;
                                    if stop {
                                        live.swap_remove(i);
                                    } else {
                                        next_job += 1;
                                        live[i] = (next_job, open(next_job), Vec::new());
                                        i += 1;
                                    }
                                }
                            }
                        }
                    }
                    finished
                })
            })
            .collect();
        let openers: Vec<_> = (0..2)
            .map(|o| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    (o * PER_OPENER..(o + 1) * PER_OPENER)
                        .map(|i| (i, open(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Join everything before asserting: a failed assertion must not
        // leave the steppers waiting for `done`.
        let opened: Vec<_> = openers.into_iter().map(|h| h.join()).collect();
        let fullest = engine.stats_per_shard().iter().map(|s| s.live).max();
        done.store(true, std::sync::atomic::Ordering::Release);
        for h in steppers {
            assert!(h.join().unwrap() >= STEPPER_LIVE);
        }
        let held: Vec<_> = opened.into_iter().flat_map(|r| r.unwrap()).collect();
        let fullest = fullest.unwrap();
        assert!(
            fullest > 448,
            "no shard crossed three segment boundaries: {fullest} live"
        );
        held
    });

    // Drive the held sessions, which span every segment, from two threads.
    std::thread::scope(|scope| {
        for half in held.chunks(held.len() / 2) {
            let (engine, dag, reference) = (&engine, &dag, &reference);
            scope.spawn(move || {
                for &(i, id) in half {
                    let (k, t) = job(i);
                    let (transcript, out) = drive_to_end(engine, id, dag, NodeId::new(t));
                    assert_eq!(transcript, reference[k][t], "{:?}", kinds[k]);
                    assert_eq!(out.target, NodeId::new(t));
                }
            });
        }
    });
    assert_eq!(engine.live_sessions(), 0);
    assert_eq!(engine.stats().errored, 0);
}

/// Admission control is global: a 4-shard engine with `max_sessions = 6`
/// refuses the 7th open with an exact live count, and idle eviction off
/// the per-shard idle lists frees the least-recently-touched sessions no
/// matter which shard holds them.
#[test]
fn admission_limit_and_idle_eviction_span_shards() {
    let spec = plan_spec();
    let dag = spec.dag.clone();
    let engine = SearchEngine::new(EngineConfig {
        shards: 4,
        max_sessions: 6,
        idle_ticks: Some(8),
        ..common::engine_config()
    });
    let plan = engine.register_plan(spec).unwrap();

    let mut ids = Vec::new();
    for _ in 0..6 {
        ids.push(engine.open_session(plan, PolicyKind::TopDown).unwrap().id());
    }
    match engine.open_session(plan, PolicyKind::TopDown) {
        Err(ServiceError::AtCapacity {
            live,
            limit,
            retryable,
            oldest_idle,
        }) => {
            assert_eq!(live, 6);
            assert_eq!(limit, 6);
            assert!(retryable);
            assert!(
                oldest_idle.is_some(),
                "idle-list heads must yield an age hint"
            );
        }
        other => panic!("expected AtCapacity, got {other:?}"),
    }

    // Touch all but the first two sessions until the untouched pair ages
    // past `idle_ticks`; the refusal path must evict exactly those two,
    // wherever placement put them.
    let target = NodeId::new(3);
    for _ in 0..12 {
        for id in &ids[2..] {
            if let Ok(SessionStep::Ask(q)) = engine.next_question(*id) {
                let yes = dag.reaches(q, target);
                let _ = engine.answer(*id, yes);
            }
        }
    }
    let reopened = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
    assert!(engine.live_sessions() <= 6);
    assert_eq!(engine.stats().evicted, 2, "eviction must cross shards");
    for stale in &ids[..2] {
        assert!(
            matches!(
                engine.next_question(*stale),
                Err(ServiceError::UnknownSession(_))
            ),
            "an evicted id must be dead, never alias a newer session"
        );
    }
    assert_ne!(reopened, ids[0]);
    assert_ne!(reopened, ids[1]);
}

/// A premature `finish()` (unresolved session → `SessionMisuse`) leaves
/// the session live — and it must stay idle-evictable. Regression test:
/// `finish` once refreshed the session's touch without re-entering it in
/// the idle index, so the abandoned session could never be evicted.
#[test]
fn failed_finish_keeps_session_evictable() {
    let spec = plan_spec();
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        idle_ticks: Some(4),
        ..common::engine_config()
    });
    let plan = engine.register_plan(spec).unwrap();
    let id = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
    assert!(matches!(engine.finish(id), Err(ServiceError::Core(_))));
    assert_eq!(engine.live_sessions(), 1);
    // Age the abandoned session past `idle_ticks` (every op is a tick),
    // then sweep: the failed finish must leave the session in the idle list.
    for _ in 0..8 {
        let probe = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
        engine.cancel(probe).unwrap();
    }
    assert_eq!(
        engine.sweep_idle(),
        1,
        "abandoned session must be evictable"
    );
    assert_eq!(engine.live_sessions(), 0);
}

/// The engine reads no environment: whatever the process was launched
/// with (the CI matrix sets `AIGS_SHARDS` and `AIGS_COMPILED`), a default
/// engine runs one shard per core and compiles only opted-in plans.
#[test]
fn default_engine_ignores_the_environment() {
    let engine = SearchEngine::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(engine.config().shards, cores);
    assert_eq!(engine.stats().shards, cores);
    assert_eq!(
        engine.config().compiled,
        aigs_service::CompiledTier::PerPlan
    );

    let dag = Arc::new(aigs_testutil::tree_from_seed(N, SEED));
    let plan = engine
        .register_plan(PlanSpec::new(
            Arc::clone(&dag),
            Arc::new(generic_weights(N, SEED)),
        ))
        .unwrap();
    for kind in [PolicyKind::TopDown, PolicyKind::GreedyTree] {
        let id = engine.open_session(plan, kind).unwrap().id();
        drive_to_end(&engine, id, &dag, NodeId::new(N - 1));
    }
    assert_eq!(engine.stats().compiled_hits, 0, "no plan opted in");
}
