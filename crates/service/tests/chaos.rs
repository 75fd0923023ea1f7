//! Fault-injection chaos suite: kill the engine at **every** injected
//! fault point under mixed traffic and prove acknowledged state survives
//! recovery.
//!
//! For each (site, action) pair the suite first runs the deterministic
//! workload fault-free with hit counting on, learning how many times the
//! site fires. It then replays the identical workload once per hit index
//! `n`, arming a one-shot fault at the n-th hit, killing the engine (drop,
//! no graceful shutdown) as soon as the fault surfaces — or at workload
//! end for faults the engine absorbs internally — and recovering from the
//! log directory. The invariant checked after every recovery:
//!
//! * every **acknowledged** session survives and continues bit-identically
//!   to an uncrashed control run (same questions, same outcome, same price
//!   bits), resuming at its acked answer count or at most one in-flight
//!   operation past it (a record can persist without its fsync — persisted
//!   but never acknowledged, which at-least-once semantics permit);
//! * every acknowledged finish/cancel stays retired — no resurrection;
//! * a session whose policy panicked, or whose teardown raced the fault,
//!   may be alive or retired — but if alive its state is exactly its acked
//!   state.
//!
//! Fail points are process-global, so every test here serialises on one
//! mutex; this binary must hold no unrelated parallel tests.
//!
//! `AIGS_FAULT_SEED` varies the workload (kinds, targets) per CI matrix
//! entry; `AIGS_CHAOS_MAX_POINTS` caps the per-site sweep for smoke runs.

mod common;

use std::path::Path;
use std::sync::Mutex;

use aigs_core::SessionStep;
use aigs_graph::{Dag, NodeId};
use aigs_service::{
    DurabilityConfig, EngineConfig, FsyncPolicy, PlanId, PlanSpec, PolicyKind, SearchEngine,
    ServiceError, SessionId,
};
use aigs_testutil::failpoints::{self, FaultAction};
use aigs_testutil::{dag_from_seed, generic_prices, generic_weights};
use common::{drive_to_end, env_reach_choice, open_and_replay, scratch_dir};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Serialises all fault-arming tests (the fail-point registry is global).
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const N: usize = 12;

fn plan_spec(seed: u64) -> PlanSpec {
    let dag = std::sync::Arc::new(dag_from_seed(N, 0.3, seed));
    let weights = std::sync::Arc::new(generic_weights(N, seed));
    let costs = std::sync::Arc::new(generic_prices(N, seed));
    PlanSpec::new(dag, weights)
        .with_costs(costs)
        .with_reach(env_reach_choice())
}

/// Aggressive knobs so the workload crosses every durability path: tight
/// fsync batching exercises `wal.fsync`, a tiny snapshot threshold makes
/// compaction (rotate → snapshot → publish) run mid-traffic. `shards > 1`
/// spreads the same workload over several WAL writers, so the sweep kills
/// each shard's writer in turn.
fn chaos_config(dir: &Path, shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        durability: Some(
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::EveryN(3))
                .with_snapshot_every(Some(20)),
        ),
        ..common::engine_config()
    }
}

/// One session's acknowledged state, as its caller observed it.
struct ShadowSession {
    id: SessionId,
    kind: PolicyKind,
    target: NodeId,
    acked: Vec<(NodeId, bool)>,
}

/// The acknowledged engine state at the moment of the kill.
#[derive(Default)]
struct Shadow {
    /// Sessions whose last acknowledged op left them live: recovery MUST
    /// restore them.
    live: Vec<ShadowSession>,
    /// Sessions whose last op faulted (quarantine or an unacknowledged
    /// finish/cancel/answer): recovery may restore or retire them, but a
    /// restored one must hold exactly its acked state.
    uncertain: Vec<ShadowSession>,
    /// Acknowledged finishes/cancels: recovery MUST NOT resurrect these.
    retired: Vec<SessionId>,
}

/// Errors that mean "the fault manifested — kill the engine here".
fn is_fault(e: &ServiceError) -> bool {
    matches!(
        e,
        ServiceError::Durability(_) | ServiceError::Degraded | ServiceError::PolicyPanicked
    )
}

/// Drives the deterministic mixed-traffic workload: six sessions of varied
/// policy kinds stepped round-robin, two parked early (stay live), one
/// cancelled mid-flight, the rest driven to finish. Every acknowledged op
/// is recorded in `shadow`; the first fault stops the workload (the caller
/// then kills the engine). Returns whether the workload completed.
fn run_workload(
    engine: &SearchEngine,
    plan: PlanId,
    dag: &Dag,
    seed: u64,
    shadow: &mut Shadow,
) -> bool {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let kinds = [
        PolicyKind::TopDown,
        PolicyKind::Migs,
        PolicyKind::Wigs,
        PolicyKind::GreedyDag,
        PolicyKind::GreedyNaive,
        PolicyKind::CostSensitive,
        PolicyKind::Random { seed: seed ^ 0xbad },
    ];
    let mut sessions: Vec<ShadowSession> = Vec::new();
    let mut retired = [false; 6];
    let mut parked = [false; 6];
    let mut fault_at: Option<usize> = None;

    'workload: {
        for _ in 0..6 {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let target = NodeId::new(rng.gen_range(0..dag.node_count()));
            match engine.open_session(plan, kind) {
                Ok(h) => sessions.push(ShadowSession {
                    id: h.id(),
                    kind,
                    target,
                    acked: Vec::new(),
                }),
                Err(e) if is_fault(&e) => break 'workload,
                Err(e) => panic!("unexpected open error: {e}"),
            }
        }
        let mut round = 0;
        while sessions
            .iter()
            .enumerate()
            .any(|(i, _)| !retired[i] && !parked[i])
        {
            round += 1;
            for i in 0..sessions.len() {
                if retired[i] || parked[i] {
                    continue;
                }
                // Park two sessions with partial progress: they must be
                // restored as-is.
                if (i == 0 || i == 5) && sessions[i].acked.len() >= 2 {
                    parked[i] = true;
                    continue;
                }
                // One scripted cancel mixes retirement into the traffic.
                if round == 2 && i == 3 {
                    match engine.cancel(sessions[i].id) {
                        Ok(()) => {
                            retired[i] = true;
                            continue;
                        }
                        Err(e) if is_fault(&e) => {
                            fault_at = Some(i);
                            break 'workload;
                        }
                        Err(e) => panic!("unexpected cancel error: {e}"),
                    }
                }
                match engine.next_question(sessions[i].id) {
                    Ok(SessionStep::Ask(q)) => {
                        let yes = dag.reaches(q, sessions[i].target);
                        match engine.answer(sessions[i].id, yes) {
                            Ok(()) => sessions[i].acked.push((q, yes)),
                            Err(e) if is_fault(&e) => {
                                fault_at = Some(i);
                                break 'workload;
                            }
                            Err(e) => panic!("unexpected answer error: {e}"),
                        }
                    }
                    Ok(SessionStep::Resolved(_)) => match engine.finish(sessions[i].id) {
                        Ok(_) => retired[i] = true,
                        Err(e) if is_fault(&e) => {
                            fault_at = Some(i);
                            break 'workload;
                        }
                        Err(e) => panic!("unexpected finish error: {e}"),
                    },
                    Err(e) if is_fault(&e) => {
                        fault_at = Some(i);
                        break 'workload;
                    }
                    Err(e) => panic!("unexpected step error: {e}"),
                }
            }
        }
    }

    for (i, s) in sessions.into_iter().enumerate() {
        if retired[i] {
            shadow.retired.push(s.id);
        } else if fault_at == Some(i) {
            shadow.uncertain.push(s);
        } else {
            shadow.live.push(s);
        }
    }
    fault_at.is_none()
}

/// Recovers `dir` and checks the durability invariant against `shadow`.
fn verify_recovery(dir: &Path, spec: &PlanSpec, dag: &Dag, shadow: &Shadow, label: &str) {
    let (rec, report) =
        common::recover(dir).unwrap_or_else(|e| panic!("{label}: recover failed: {e}"));
    assert_eq!(
        report.sessions_failed, 0,
        "{label}: unrestorable sessions: {:?}",
        report.anomalies
    );
    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec.clone()).unwrap();

    for id in &shadow.retired {
        assert!(
            matches!(rec.next_question(*id), Err(ServiceError::UnknownSession(_))),
            "{label}: acknowledged retirement resurrected"
        );
    }
    for ss in &shadow.live {
        check_continuation(&rec, &control, cplan, dag, ss, false, label);
    }
    for ss in &shadow.uncertain {
        check_continuation(&rec, &control, cplan, dag, ss, true, label);
    }
}

/// The recovered continuation of `ss` must splice into the uncrashed
/// control transcript: resume point within one op of the acked count, and
/// suffix + outcome bit-identical.
fn check_continuation(
    rec: &SearchEngine,
    control: &SearchEngine,
    cplan: PlanId,
    dag: &Dag,
    ss: &ShadowSession,
    may_be_dead: bool,
    label: &str,
) {
    let cid = control
        .open_session(cplan, ss.kind)
        .expect("control open")
        .id();
    let (full, want_out) = drive_to_end(control, cid, dag, ss.target);
    assert_eq!(
        &full[..ss.acked.len()],
        &ss.acked[..],
        "{label}: acked transcript diverged from the deterministic path"
    );
    match rec.next_question(ss.id) {
        Err(ServiceError::UnknownSession(_)) if may_be_dead => return,
        Err(e) => panic!("{label}: acknowledged session lost: {e}"),
        Ok(_) => {}
    }
    let (cont, got_out) = drive_to_end(rec, ss.id, dag, ss.target);
    let resumed_at = full
        .len()
        .checked_sub(cont.len())
        .unwrap_or_else(|| panic!("{label}: continuation longer than the full run"));
    assert!(
        resumed_at >= ss.acked.len() && resumed_at <= ss.acked.len() + 1,
        "{label}: resumed at answer {resumed_at}, but {} were acked",
        ss.acked.len()
    );
    assert_eq!(
        &full[resumed_at..],
        &cont[..],
        "{label}: continuation diverged"
    );
    assert_eq!(got_out.target, want_out.target, "{label}: wrong target");
    assert_eq!(got_out.queries, want_out.queries, "{label}: query count");
    assert_eq!(
        got_out.price.to_bits(),
        want_out.price.to_bits(),
        "{label}: price bits diverged"
    );
}

/// The kill-at-every-point sweep for one (site, action) pair, run on an
/// engine with `shards` WAL writers.
fn chaos_sweep(site: &'static str, action: FaultAction, shards: usize) {
    let _g = lock();
    let seed = failpoints::fault_seed().unwrap_or(1);
    let spec = plan_spec(seed);
    let dag = spec.dag.clone();

    // Fault-free counting pass: measure the site's hit schedule under the
    // exact workload (including engine + plan setup, which also appends).
    failpoints::disarm_all();
    failpoints::start_counting();
    let dir = scratch_dir(&format!("chaos-{site}-{action:?}-s{shards}-count"));
    let engine = SearchEngine::try_new(chaos_config(&dir, shards)).unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();
    let mut shadow = Shadow::default();
    let completed = run_workload(&engine, plan, &dag, seed, &mut shadow);
    assert!(completed, "fault-free pass must complete");
    let total = failpoints::hits(site);
    failpoints::disarm_all();
    drop(engine);
    verify_recovery(&dir, &spec, &dag, &shadow, "fault-free");
    assert!(
        total > 0,
        "site {site} never hit — dead chaos configuration"
    );
    eprintln!("chaos: {site}/{action:?} seed {seed}: sweeping {total} fault points");

    let cap: u64 = std::env::var("AIGS_CHAOS_MAX_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(u64::MAX);

    for n in 1..=total.min(cap) {
        let label = format!("{site}/{action:?} s{shards} hit {n}/{total} seed {seed}");
        let dir = scratch_dir(&format!("chaos-{site}-{action:?}-s{shards}-{n}"));
        failpoints::disarm_all();
        failpoints::arm(site, n, action);
        let mut shadow = Shadow::default();
        // Setup itself appends, so the fault can fire before the workload
        // starts; a refused engine/plan means nothing was acknowledged.
        let setup = SearchEngine::try_new(chaos_config(&dir, shards)).and_then(|engine| {
            let plan = engine.register_plan(spec.clone())?;
            Ok((engine, plan))
        });
        match setup {
            Ok((engine, plan)) => {
                let _ = run_workload(&engine, plan, &dag, seed, &mut shadow);
                failpoints::disarm_all();
                drop(engine); // kill: no sync, no graceful shutdown
                verify_recovery(&dir, &spec, &dag, &shadow, &label);
            }
            Err(e) => {
                assert!(is_fault(&e), "{label}: unexpected setup error: {e}");
                failpoints::disarm_all();
                // Nothing acknowledged; recovery may succeed on whatever
                // prefix persisted or report the log unusable — it must
                // just never panic or fabricate sessions.
                if let Ok((rec, _)) = common::recover(&dir) {
                    assert_eq!(rec.live_sessions(), 0, "{label}: phantom sessions");
                }
            }
        }
    }
    failpoints::disarm_all();
}

#[test]
fn kill_at_every_wal_append_io_error() {
    chaos_sweep("wal.append", FaultAction::IoError, 1);
}

#[test]
fn kill_at_every_wal_append_torn_write() {
    chaos_sweep("wal.append", FaultAction::ShortWrite, 1);
}

#[test]
fn kill_at_every_wal_fsync_io_error() {
    chaos_sweep("wal.fsync", FaultAction::IoError, 1);
}

#[test]
fn kill_at_every_policy_call_panic() {
    chaos_sweep("engine.policy", FaultAction::Panic, 1);
}

/// The same append-failure sweep over three shard WAL writers: each hit
/// index kills whichever shard's writer the workload reached, so every
/// writer dies at every point it can, and the other shards' acked state
/// must still recover bit-identically.
#[test]
fn kill_each_shard_wal_writer_in_turn() {
    chaos_sweep("wal.append", FaultAction::IoError, 3);
}

/// Targeted shard-blast-radius regression: when ONE shard's WAL writer
/// fails mid-answer, the engine degrades globally (one durability domain),
/// but only the session whose append failed is torn down — the other
/// shards' sessions hold exactly their acked state through recovery.
#[test]
fn shard_writer_failure_spares_other_shards() {
    let _g = lock();
    failpoints::disarm_all();
    let dir = scratch_dir("chaos-shard-writer");
    let spec = plan_spec(0x5A);
    let dag = spec.dag.clone();
    let engine = SearchEngine::try_new(chaos_config(&dir, 3)).unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();

    // Six sessions round-robin over three shards: two per shard, each with
    // two acked answers.
    let mut rows = Vec::new();
    for i in 0..6 {
        let kind = if i % 2 == 0 {
            PolicyKind::GreedyDag
        } else {
            PolicyKind::Wigs
        };
        let target = NodeId::new((i * 2 + 1) % N);
        let id = engine.open_session(plan, kind).unwrap().id();
        let mut acked = Vec::new();
        for _ in 0..2 {
            if let SessionStep::Ask(q) = engine.next_question(id).unwrap() {
                let yes = dag.reaches(q, target);
                engine.answer(id, yes).unwrap();
                acked.push((q, yes));
            }
        }
        rows.push(ShadowSession {
            id,
            kind,
            target,
            acked,
        });
    }

    // Kill the writer under the next answer: that session's shard is the
    // blast site.
    failpoints::arm("wal.append", 1, FaultAction::IoError);
    let victim = rows[0].id;
    if let SessionStep::Ask(_) = engine.next_question(victim).unwrap() {
        assert!(matches!(
            engine.answer(victim, true),
            Err(ServiceError::Durability(_))
        ));
    }
    failpoints::disarm_all();

    // One durability domain: the whole engine refuses mutations, even on
    // sessions whose own shard writer is healthy.
    assert!(engine.stats().degraded);
    assert!(matches!(
        engine.answer(rows[1].id, true),
        Err(ServiceError::Degraded)
    ));
    // But only the victim was torn down.
    assert_eq!(engine.live_sessions(), 5);
    drop(engine); // crash

    let (rec, report) = common::recover(&dir).unwrap();
    assert_eq!(report.shards, 3);
    assert_eq!(report.sessions_failed, 0, "{:?}", report.anomalies);
    assert!(!rec.stats().degraded);
    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec).unwrap();
    // Every session — victim included — recovers at exactly its acked
    // prefix (the refused answer was never logged) and continues
    // bit-identically.
    for ss in &rows {
        let cid = open_and_replay(&control, cplan, ss.kind, &ss.acked);
        let (want_t, want_out) = drive_to_end(&control, cid, &dag, ss.target);
        let (got_t, got_out) = drive_to_end(&rec, ss.id, &dag, ss.target);
        assert_eq!(got_t, want_t, "{:?}: continuation diverged", ss.kind);
        assert_eq!(got_out.price.to_bits(), want_out.price.to_bits());
    }
}

/// Satellite regression: a panicking policy quarantines ONLY its session.
/// The instance is discarded (never re-pooled), the engine counts the
/// panic, and every other session — plus future opens — keeps working.
#[test]
fn panicking_policy_quarantines_only_its_session() {
    let _g = lock();
    failpoints::disarm_all();
    let spec = plan_spec(0x77);
    let dag = spec.dag.clone();
    let engine = SearchEngine::new(common::engine_config());
    let plan = engine.register_plan(spec).unwrap();

    let s1 = engine
        .open_session(plan, PolicyKind::GreedyDag)
        .unwrap()
        .id();
    let s2 = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
    if let SessionStep::Ask(q) = engine.next_question(s1).unwrap() {
        engine.answer(s1, dag.reaches(q, NodeId::new(5))).unwrap();
    }

    failpoints::arm("engine.policy", 1, FaultAction::Panic);
    assert!(matches!(
        engine.next_question(s1),
        Err(ServiceError::PolicyPanicked)
    ));
    failpoints::disarm_all();

    // Only s1 died; its id is dead, the panic is counted.
    assert_eq!(engine.stats().panicked, 1);
    assert!(matches!(
        engine.next_question(s1),
        Err(ServiceError::UnknownSession(_))
    ));
    // s2 is untouched and completes normally.
    let (_, out) = drive_to_end(&engine, s2, &dag, NodeId::new(9));
    assert_eq!(out.target, NodeId::new(9));
    // The quarantined GreedyDag instance was NOT returned to the pool: a
    // fresh open builds cold (no pool hit).
    let hits_before = engine.stats().pool_hits;
    let s3 = engine
        .open_session(plan, PolicyKind::GreedyDag)
        .unwrap()
        .id();
    assert_eq!(engine.stats().pool_hits, hits_before);
    let (_, out) = drive_to_end(&engine, s3, &dag, NodeId::new(3));
    assert_eq!(out.target, NodeId::new(3));
}

/// Satellite regression: after a WAL failure the engine degrades to
/// read-mostly — mutators refused, unaffected reads served — the session
/// whose applied answer could not be logged is torn down (degraded-mode
/// reads must never expose state the log does not acknowledge), and
/// recovery restores every session at exactly its acknowledged prefix.
#[test]
fn degraded_mode_is_read_mostly_and_preserves_acks() {
    let _g = lock();
    failpoints::disarm_all();
    let dir = scratch_dir("chaos-degraded");
    let spec = plan_spec(0x99);
    let dag = spec.dag.clone();
    let config = EngineConfig {
        durability: Some(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Always)),
        ..common::engine_config()
    };
    let engine = SearchEngine::try_new(config).unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();
    let id = engine.open_session(plan, PolicyKind::Wigs).unwrap().id();
    let other = engine
        .open_session(plan, PolicyKind::GreedyDag)
        .unwrap()
        .id();
    let target = NodeId::new(6);
    let other_target = NodeId::new(2);
    let mut acked = Vec::new();
    let mut other_acked = Vec::new();
    for _ in 0..2 {
        if let SessionStep::Ask(q) = engine.next_question(id).unwrap() {
            let yes = dag.reaches(q, target);
            engine.answer(id, yes).unwrap();
            acked.push((q, yes));
        }
    }
    if let SessionStep::Ask(q) = engine.next_question(other).unwrap() {
        let yes = dag.reaches(q, other_target);
        engine.answer(other, yes).unwrap();
        other_acked.push((q, yes));
    }

    // The next append fails: the causing op reports Durability, the engine
    // flips to degraded, and the answering session — whose in-memory state
    // already holds the unacknowledged answer — is torn down rather than
    // served divergent from what recovery will replay.
    failpoints::arm("wal.append", 1, FaultAction::IoError);
    if let SessionStep::Ask(_) = engine.next_question(id).unwrap() {
        assert!(matches!(
            engine.answer(id, true),
            Err(ServiceError::Durability(_))
        ));
    }
    failpoints::disarm_all();
    assert!(engine.stats().degraded);
    assert_eq!(engine.stats().errored, 1);
    assert!(matches!(
        engine.next_question(id),
        Err(ServiceError::UnknownSession(_))
    ));
    assert_eq!(engine.live_sessions(), 1);

    // Mutators are refused…
    assert!(matches!(
        engine.answer(other, true),
        Err(ServiceError::Degraded)
    ));
    assert!(matches!(
        engine.open_session(plan, PolicyKind::TopDown),
        Err(ServiceError::Degraded)
    ));
    assert!(matches!(engine.cancel(other), Err(ServiceError::Degraded)));
    assert!(matches!(engine.compact(), Err(ServiceError::Degraded)));
    assert_eq!(engine.sweep_idle(), 0);
    // …while reads on unaffected sessions keep serving.
    assert!(engine.next_question(other).is_ok());
    drop(engine);

    // Recovery restores BOTH sessions at exactly their acked prefixes (the
    // refused answer was never written, and the in-memory teardown was not
    // a durable retirement) and the engine is fully operational again.
    let (rec, report) = common::recover(&dir).unwrap();
    assert_eq!(report.sessions, 2);
    assert!(!rec.stats().degraded);
    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec).unwrap();
    for (sid, kind, tgt, pre) in [
        (id, PolicyKind::Wigs, target, &acked),
        (other, PolicyKind::GreedyDag, other_target, &other_acked),
    ] {
        let cid = open_and_replay(&control, cplan, kind, pre);
        let (want_t, want_out) = drive_to_end(&control, cid, &dag, tgt);
        let (got_t, got_out) = drive_to_end(&rec, sid, &dag, tgt);
        assert_eq!(got_t, want_t, "{kind:?}: continuation diverged");
        assert_eq!(got_out.price.to_bits(), want_out.price.to_bits());
    }
}
