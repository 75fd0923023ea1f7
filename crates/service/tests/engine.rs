//! Engine behaviour: lifecycle, admission, eviction, pooling, isolation,
//! and concurrent multi-threaded driving.

use std::sync::Arc;

use aigs_core::{CoreError, NodeWeights, SessionStep};
use aigs_graph::generate::{random_dag, random_tree, DagConfig, TreeConfig};
use aigs_graph::{Dag, NodeId};
use aigs_service::{EngineConfig, PlanSpec, PolicyKind, SearchEngine, ServiceError, SessionId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn tree_plan(n: usize, seed: u64) -> (Arc<Dag>, Arc<NodeWeights>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dag = Arc::new(random_tree(&TreeConfig::bushy(n), &mut rng));
    let weights = Arc::new(weights_for(n, seed ^ 0x5eed));
    (dag, weights)
}

fn dag_plan(n: usize, seed: u64) -> (Arc<Dag>, Arc<NodeWeights>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dag = Arc::new(random_dag(&DagConfig::bushy(n, 0.15), &mut rng));
    let nn = dag.node_count();
    let weights = Arc::new(weights_for(nn, seed ^ 0x5eed));
    (dag, weights)
}

fn weights_for(n: usize, seed: u64) -> NodeWeights {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    NodeWeights::from_masses((0..n).map(|_| rng.gen_range(0.01..1.0)).collect()).unwrap()
}

/// Drives session `id` to completion with truthful answers for `target`.
fn drive(engine: &SearchEngine, id: SessionId, dag: &Dag, target: NodeId) -> NodeId {
    let mut session = engine.session(id);
    loop {
        match session.next_question().unwrap() {
            SessionStep::Resolved(_) => return session.finish().unwrap().target,
            SessionStep::Ask(q) => session.answer(dag.reaches(q, target)).unwrap(),
        }
    }
}

#[test]
fn interleaved_sessions_resolve_their_own_targets() {
    let (dag, weights) = dag_plan(120, 7);
    let engine = SearchEngine::default();
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights))
        .unwrap();

    // Open one session per node, all suspended at once, then advance them
    // round-robin one question at a time — the serving pattern.
    let targets: Vec<NodeId> = dag.nodes().collect();
    let mut live: Vec<(SessionId, NodeId)> = targets
        .iter()
        .map(|&z| {
            let s = engine.open_session(plan, PolicyKind::GreedyDag).unwrap();
            (s.id(), z)
        })
        .collect();
    assert_eq!(engine.live_sessions(), targets.len());

    while !live.is_empty() {
        let mut still = Vec::with_capacity(live.len());
        for (id, z) in live {
            match engine.next_question(id).unwrap() {
                SessionStep::Resolved(got) => {
                    assert_eq!(got, z);
                    let out = engine.finish(id).unwrap();
                    assert_eq!(out.target, z);
                    assert_eq!(out.price, out.queries as f64);
                }
                SessionStep::Ask(q) => {
                    engine.answer(id, dag.reaches(q, z)).unwrap();
                    still.push((id, z));
                }
            }
        }
        live = still;
    }
    let stats = engine.stats();
    assert_eq!(engine.live_sessions(), 0);
    assert_eq!(stats.finished, targets.len() as u64);
    assert_eq!(stats.peak_live, targets.len());
}

#[test]
fn sequential_sessions_reuse_pooled_policies() {
    let (dag, weights) = dag_plan(80, 29);
    // The default tier serves a plan without a compiled opt-in live, so
    // every session goes through the pool this test inspects.
    let engine = SearchEngine::default();
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights))
        .unwrap();
    for z in dag.nodes() {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        assert_eq!(drive(&engine, id, &dag, z), z);
    }
    let stats = engine.stats();
    // Every open after the first found a warm instance: reset is the O(Δ)
    // journal unwind, not an O(n) rebuild.
    assert_eq!(stats.pool_hits, stats.opened - 1);
}

#[test]
fn stale_and_foreign_ids_are_rejected() {
    let (dag, weights) = tree_plan(30, 1);
    let engine = SearchEngine::default();
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights))
        .unwrap();
    let id = engine
        .open_session(plan, PolicyKind::GreedyTree)
        .unwrap()
        .id();
    drive(&engine, id, &dag, dag.root());
    // Finished: id is stale even though the slot will be reused.
    assert!(matches!(
        engine.next_question(id),
        Err(ServiceError::UnknownSession(_))
    ));
    let id2 = engine
        .open_session(plan, PolicyKind::GreedyTree)
        .unwrap()
        .id();
    // The recycled slot does not resurrect the old id.
    assert!(matches!(
        engine.answer(id, true),
        Err(ServiceError::UnknownSession(_))
    ));
    engine.cancel(id2).unwrap();
    assert!(matches!(
        engine.cancel(id2),
        Err(ServiceError::UnknownSession(_))
    ));

    // A sibling engine rejects this engine's session ids outright, even
    // when it holds a live session at the same slot index and generation.
    let (dag_b, weights_b) = tree_plan(30, 2);
    let sibling = SearchEngine::default();
    let plan_b = sibling
        .register_plan(PlanSpec::new(dag_b, weights_b))
        .unwrap();
    let live_b = sibling
        .open_session(plan_b, PolicyKind::GreedyTree)
        .unwrap()
        .id();
    let live_a = engine
        .open_session(plan, PolicyKind::GreedyTree)
        .unwrap()
        .id();
    assert!(matches!(
        sibling.next_question(live_a),
        Err(ServiceError::UnknownSession(_))
    ));
    assert!(matches!(
        engine.cancel(live_b),
        Err(ServiceError::UnknownSession(_))
    ));
}

#[test]
fn unknown_plan_is_rejected() {
    // The victim engine registers its own plan at index 0, so a foreign
    // PlanId would resolve by position — the engine scope must reject it.
    let (dag, weights) = tree_plan(20, 3);
    let engine = SearchEngine::default();
    engine.register_plan(PlanSpec::new(dag, weights)).unwrap();
    let foreign = aigs_service::SearchEngine::default()
        .register_plan(PlanSpec::new(
            Arc::new(aigs_graph::dag_from_edges(2, &[(0, 1)]).unwrap()),
            Arc::new(NodeWeights::uniform(2)),
        ))
        .unwrap();
    let err = engine
        .open_session(foreign, PolicyKind::TopDown)
        .unwrap_err();
    assert!(matches!(err, ServiceError::UnknownPlan(_)));
}

#[test]
fn oversized_optimal_is_isolated() {
    // An exact-DP session on a 40-node instance must fail its own open with
    // TooLargeForExact — and leave the engine fully serviceable.
    let (dag, weights) = tree_plan(40, 3);
    let engine = SearchEngine::default();
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights))
        .unwrap();

    let healthy = engine
        .open_session(plan, PolicyKind::GreedyTree)
        .unwrap()
        .id();

    let err = engine.open_session(plan, PolicyKind::Optimal).unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Core(CoreError::TooLargeForExact { nodes: 40, .. })
    ));
    assert_eq!(engine.stats().errored, 1);

    // The poisoned open reserved no capacity and broke nothing: the healthy
    // session still runs, and new sessions still open.
    assert_eq!(engine.live_sessions(), 1);
    let z = NodeId::new(17);
    assert_eq!(drive(&engine, healthy, &dag, z), z);
    let id = engine
        .open_session(plan, PolicyKind::GreedyTree)
        .unwrap()
        .id();
    assert_eq!(drive(&engine, id, &dag, dag.root()), dag.root());
}

#[test]
fn tree_policy_on_dag_plan_is_isolated() {
    let (dag, weights) = dag_plan(50, 9);
    assert!(!dag.is_tree());
    let engine = SearchEngine::default();
    let plan = engine.register_plan(PlanSpec::new(dag, weights)).unwrap();
    let err = engine
        .open_session(plan, PolicyKind::GreedyTree)
        .unwrap_err();
    assert!(matches!(err, ServiceError::Core(CoreError::NotATree)));
    // GreedyDag on the same plan is fine.
    engine.open_session(plan, PolicyKind::GreedyDag).unwrap();
}

#[test]
fn diverged_session_is_torn_down_alone() {
    let (dag, weights) = tree_plan(60, 5);
    let engine = SearchEngine::new(EngineConfig {
        max_queries: Some(1),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights))
        .unwrap();

    let sibling = engine
        .open_session(plan, PolicyKind::GreedyTree)
        .unwrap()
        .id();

    let mut doomed = engine.open_session(plan, PolicyKind::GreedyTree).unwrap();
    let doomed_id = doomed.id();
    // Burn the single allowed query on a deliberately unhelpful answer.
    let SessionStep::Ask(_) = doomed.next_question().unwrap() else {
        panic!("fresh session should ask");
    };
    doomed.answer(false).unwrap();
    // The next request exceeds the cap: Diverged, and the session is gone.
    let err = match doomed.next_question() {
        Ok(SessionStep::Ask(_)) => panic!("cap of 1 must not allow a second question"),
        Ok(SessionStep::Resolved(_)) => panic!("one `no` cannot resolve 60 nodes"),
        Err(e) => e,
    };
    assert!(matches!(
        err,
        ServiceError::Core(CoreError::Diverged { limit: 1, .. })
    ));
    assert!(matches!(
        engine.next_question(doomed_id),
        Err(ServiceError::UnknownSession(_))
    ));
    // The sibling session is untouched and still completes (within its own
    // cap: pick the root, resolvable only if the policy asks... instead just
    // verify it still answers protocol-correctly and can be cancelled).
    assert!(matches!(
        engine.next_question(sibling),
        Ok(SessionStep::Ask(_))
    ));
    engine.cancel(sibling).unwrap();
    assert_eq!(engine.live_sessions(), 0);
}

#[test]
fn misuse_is_recoverable() {
    let (dag, weights) = tree_plan(25, 11);
    let engine = SearchEngine::default();
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights))
        .unwrap();
    let mut s = engine.open_session(plan, PolicyKind::Wigs).unwrap();
    // Answer before any question: typed error, session survives.
    assert!(matches!(
        s.answer(true),
        Err(ServiceError::Core(CoreError::SessionMisuse(_)))
    ));
    // Premature finish: same.
    assert!(matches!(
        engine.finish(s.id()),
        Err(ServiceError::Core(CoreError::SessionMisuse(_)))
    ));
    // Asking twice without answering returns the same question.
    let SessionStep::Ask(q1) = s.next_question().unwrap() else {
        panic!("should ask");
    };
    let SessionStep::Ask(q2) = s.next_question().unwrap() else {
        panic!("should still ask");
    };
    assert_eq!(q1, q2);
    let z = NodeId::new(13);
    let id = s.id();
    s.answer(dag.reaches(q1, z)).unwrap();
    assert_eq!(drive(&engine, id, &dag, z), z);
}

#[test]
fn admission_limit_and_idle_eviction() {
    let (dag, weights) = tree_plan(30, 13);
    let engine = SearchEngine::new(EngineConfig {
        max_sessions: 4,
        idle_ticks: Some(64),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights))
        .unwrap();

    let abandoned: Vec<SessionId> = (0..4)
        .map(|_| {
            engine
                .open_session(plan, PolicyKind::GreedyTree)
                .unwrap()
                .id()
        })
        .collect();
    // Full, and nothing is idle yet: admission fails, but the refusal says
    // a retry can work (idle eviction is on) and reports how old the
    // oldest session is.
    match engine.open_session(plan, PolicyKind::GreedyTree) {
        Err(ServiceError::AtCapacity {
            live: 4,
            limit: 4,
            retryable: true,
            oldest_idle: Some(_),
        }) => {}
        other => panic!("expected a retryable AtCapacity refusal, got {other:?}"),
    }

    // Keep one session active while the clock advances past the idle
    // threshold for the other three.
    let active = abandoned[0];
    for _ in 0..70 {
        let _ = engine.next_question(active).unwrap();
    }
    // Admission now reclaims the idle three automatically.
    let fresh = engine.open_session(plan, PolicyKind::GreedyTree).unwrap();
    assert_eq!(engine.stats().evicted, 3);
    assert_eq!(engine.live_sessions(), 2);
    // Evicted ids are dead; the survivor and the newcomer work.
    for &id in &abandoned[1..] {
        assert!(matches!(
            engine.next_question(id),
            Err(ServiceError::UnknownSession(_))
        ));
    }
    let z = NodeId::new(7);
    assert_eq!(drive(&engine, active, &dag, z), z);
    let fresh_id = fresh.id();
    assert_eq!(drive(&engine, fresh_id, &dag, z), z);
}

/// Idle eviction racing every teardown path: four threads open, drive,
/// finish (prematurely too), cancel and abandon sessions on a 2-shard
/// engine while a fifth sweeps in a loop. Every step a driver sees is its
/// own session's next question (checked against an uncontended reference
/// transcript) or `UnknownSession` once evicted; afterwards every session
/// is accounted for exactly once and none is left eviction-proof.
#[test]
fn concurrent_eviction_races_every_teardown_path() {
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    const IDLE: u64 = 16;
    const THREADS: u64 = 4;
    const PER_THREAD: usize = 150;
    /// Sessions each driver keeps in flight, stepped in random order, so
    /// a session waits between its own touches and can expire mid-drive.
    const BATCH: usize = 4;

    /// One in-flight session: `fate` 0 drives it to a finish, 1 cancels it
    /// after `stop_after` answers, 2 abandons it there to the sweeper.
    struct Drive {
        id: SessionId,
        z: NodeId,
        expected: Vec<NodeId>,
        fate: u32,
        stop_after: usize,
        answered: usize,
    }
    enum Done {
        Finished,
        Cancelled,
        Gone,
    }
    impl Drive {
        /// Takes one step; `Some` once the session has left its driver.
        fn step(&mut self, engine: &SearchEngine, dag: &Dag, rng: &mut ChaCha8Rng) -> Option<Done> {
            let id = self.id;
            if self.fate != 0 && self.answered == self.stop_after {
                if self.fate == 2 {
                    return Some(Done::Gone);
                }
                return Some(match engine.cancel(id) {
                    Ok(()) => Done::Cancelled,
                    Err(ServiceError::UnknownSession(_)) => Done::Gone,
                    Err(e) => panic!("cancel: {e:?}"),
                });
            }
            if rng.gen_range(0..4u32) == 0 {
                // A finish attempt, premature unless the search resolved.
                return match engine.finish(id) {
                    Ok(out) => {
                        assert_eq!((self.answered, out.target), (self.expected.len(), self.z));
                        Some(Done::Finished)
                    }
                    Err(ServiceError::Core(CoreError::SessionMisuse(_))) => {
                        assert!(self.answered < self.expected.len());
                        None
                    }
                    Err(ServiceError::UnknownSession(_)) => Some(Done::Gone),
                    Err(e) => panic!("finish: {e:?}"),
                };
            }
            match engine.next_question(id) {
                Ok(SessionStep::Ask(q)) => {
                    assert_eq!(
                        Some(&q),
                        self.expected.get(self.answered),
                        "foreign question"
                    );
                    match engine.answer(id, dag.reaches(q, self.z)) {
                        Ok(()) => {
                            self.answered += 1;
                            None
                        }
                        Err(ServiceError::UnknownSession(_)) => Some(Done::Gone),
                        Err(e) => panic!("answer: {e:?}"),
                    }
                }
                Ok(SessionStep::Resolved(got)) => {
                    assert_eq!((self.answered, got), (self.expected.len(), self.z));
                    None
                }
                Err(ServiceError::UnknownSession(_)) => Some(Done::Gone),
                Err(e) => panic!("next_question: {e:?}"),
            }
        }
    }

    let kinds = [PolicyKind::TopDown, PolicyKind::GreedyDag];
    let (dag, weights) = dag_plan(40, 31);
    let spec = PlanSpec::new(dag.clone(), weights);

    // Reference question sequences per (kind, target), from a quiet engine.
    let control = SearchEngine::default();
    let cplan = control.register_plan(spec.clone()).unwrap();
    let reference: Vec<Vec<Vec<NodeId>>> = kinds
        .iter()
        .map(|&kind| {
            dag.nodes()
                .map(|z| {
                    let id = control.open_session(cplan, kind).unwrap().id();
                    let mut asked = Vec::new();
                    while let SessionStep::Ask(q) = control.next_question(id).unwrap() {
                        asked.push(q);
                        control.answer(id, dag.reaches(q, z)).unwrap();
                    }
                    control.finish(id).unwrap();
                    asked
                })
                .collect()
        })
        .collect();

    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        idle_ticks: Some(IDLE),
        ..EngineConfig::default()
    });
    let plan = engine.register_plan(spec).unwrap();
    let done = AtomicBool::new(false);
    let swept = AtomicUsize::new(0);
    let finished = AtomicU64::new(0);
    let cancelled = AtomicU64::new(0);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                swept.fetch_add(engine.sweep_idle(), Ordering::Relaxed);
                std::thread::yield_now();
            }
        });
        let drivers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, dag, reference) = (&engine, &dag, &reference);
                let (finished, cancelled) = (&finished, &cancelled);
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(0xe71c + t);
                    let mut batch: Vec<Drive> = Vec::new();
                    let mut opened = 0;
                    while opened < PER_THREAD || !batch.is_empty() {
                        while opened < PER_THREAD && batch.len() < BATCH {
                            let k = opened % kinds.len();
                            let z = NodeId::new(rng.gen_range(0..dag.node_count()));
                            let expected = reference[k][z.index()].clone();
                            batch.push(Drive {
                                id: engine.open_session(plan, kinds[k]).unwrap().id(),
                                z,
                                fate: rng.gen_range(0..3u32),
                                stop_after: rng.gen_range(0..expected.len() + 1),
                                expected,
                                answered: 0,
                            });
                            opened += 1;
                        }
                        let i = rng.gen_range(0..batch.len());
                        let Some(done) = batch[i].step(engine, dag, &mut rng) else {
                            continue;
                        };
                        batch.swap_remove(i);
                        match done {
                            Done::Finished => finished.fetch_add(1, Ordering::Relaxed),
                            Done::Cancelled => cancelled.fetch_add(1, Ordering::Relaxed),
                            Done::Gone => 0,
                        };
                    }
                })
            })
            .collect();
        for d in drivers {
            d.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });

    // Age whatever is left past the threshold, then sweep it all.
    for _ in 0..=IDLE {
        let probe = engine.open_session(plan, kinds[0]).unwrap().id();
        engine.cancel(probe).unwrap();
    }
    let last = engine.sweep_idle();
    assert_eq!(engine.live_sessions(), 0);
    let stats = engine.stats();
    assert_eq!(stats.errored + stats.panicked, 0);
    assert_eq!(
        stats.opened,
        stats.finished + stats.cancelled + stats.evicted
    );
    assert_eq!(stats.finished, finished.load(Ordering::Relaxed));
    assert_eq!(
        stats.cancelled,
        cancelled.load(Ordering::Relaxed) + IDLE + 1
    );
    assert_eq!(stats.evicted, (swept.load(Ordering::Relaxed) + last) as u64);
}

#[test]
fn random_policy_sessions_complete() {
    let (dag, weights) = dag_plan(40, 17);
    let engine = SearchEngine::default();
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights))
        .unwrap();
    for (i, z) in dag.nodes().enumerate() {
        let id = engine
            .open_session(plan, PolicyKind::Random { seed: i as u64 })
            .unwrap()
            .id();
        assert_eq!(drive(&engine, id, &dag, z), z);
    }
}

#[test]
fn concurrent_threads_share_one_engine() {
    let (dag, weights) = dag_plan(200, 23);
    let engine = SearchEngine::default();
    let plan = engine
        .register_plan(PlanSpec::new(dag.clone(), weights))
        .unwrap();
    let threads = 8;
    let per_thread = 64;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = &engine;
            let dag = &dag;
            scope.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(t as u64);
                let kinds = [
                    PolicyKind::TopDown,
                    PolicyKind::Wigs,
                    PolicyKind::GreedyDag,
                    PolicyKind::Migs,
                ];
                // Each thread interleaves a batch of its own sessions.
                let mut batch: Vec<(SessionId, NodeId)> = (0..per_thread)
                    .map(|i| {
                        let z = NodeId::new(rng.gen_range(0..dag.node_count()));
                        let kind = kinds[i % kinds.len()];
                        (engine.open_session(plan, kind).unwrap().id(), z)
                    })
                    .collect();
                while !batch.is_empty() {
                    let mut still = Vec::with_capacity(batch.len());
                    for (id, z) in batch {
                        match engine.next_question(id).unwrap() {
                            SessionStep::Resolved(got) => {
                                assert_eq!(got, z);
                                engine.finish(id).unwrap();
                            }
                            SessionStep::Ask(q) => {
                                engine.answer(id, dag.reaches(q, z)).unwrap();
                                still.push((id, z));
                            }
                        }
                    }
                    batch = still;
                }
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.live, 0);
    assert_eq!(stats.opened, (threads * per_thread) as u64);
    assert_eq!(stats.finished, stats.opened);
    assert!(stats.peak_live >= per_thread);
}
