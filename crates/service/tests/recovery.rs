//! Crash-recovery integration tests (no fault injection — the injected
//! variants live in `chaos.rs`).
//!
//! The durability contract under test: dropping a durable engine at any
//! point and recovering from its log directory yields an engine whose
//! live sessions **continue bit-identically** to an uncrashed control —
//! same questions, same outcome, same price bits — while finished and
//! cancelled sessions stay dead and pre-crash ids keep working.

mod common;

use std::sync::Arc;

use aigs_core::{SessionStep, MAX_EXACT_NODES};
use aigs_data::wal::{read_wal, SessionWal, WalEvent};
use aigs_graph::NodeId;
use aigs_service::{
    DurabilityConfig, EngineConfig, FsyncPolicy, PlanSpec, PolicyKind, SearchEngine, ServiceError,
    SessionId,
};
use aigs_testutil::{dag_from_seed, generic_prices, generic_weights};
use common::{drive_to_end, env_reach_choice, open_and_replay, scratch_dir};

const N: usize = 13;
const SEED: u64 = 0xA5;

fn plan_spec() -> PlanSpec {
    let dag = Arc::new(dag_from_seed(N, 0.3, SEED));
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

fn durable_config(dir: &std::path::Path, fsync: FsyncPolicy) -> EngineConfig {
    EngineConfig {
        durability: Some(DurabilityConfig::new(dir).with_fsync(fsync)),
        ..common::engine_config()
    }
}

#[test]
fn recovered_sessions_continue_bit_identically() {
    let dir = scratch_dir("recover-basic");
    let spec = plan_spec();
    let dag = spec.dag.clone();
    let kinds = roster();

    // Build up mixed pre-crash state: one partially-progressed session per
    // policy kind, plus one finished and one cancelled session.
    let engine = SearchEngine::try_new(durable_config(&dir, FsyncPolicy::EveryN(4))).unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();
    type LiveRow = (SessionId, PolicyKind, NodeId, Vec<(NodeId, bool)>);
    let mut live: Vec<LiveRow> = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let target = NodeId::new((i * 5 + 1) % N);
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
    let fin_id = engine
        .open_session(plan, PolicyKind::GreedyDag)
        .unwrap()
        .id();
    let fin_target = NodeId::new(7);
    let (fin_transcript, fin_out) = drive_to_end(&engine, fin_id, &dag, fin_target);
    let can_id = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
    engine.cancel(can_id).unwrap();
    let pre_stats = engine.stats();
    assert!(pre_stats.wal_records > 0);
    assert!(!pre_stats.degraded);
    drop(engine); // crash: nothing flushed explicitly, no graceful shutdown

    let (rec, report) = common::recover(&dir).unwrap();
    assert_eq!(report.plans, 1);
    assert_eq!(report.sessions, kinds.len());
    assert_eq!(report.sessions_failed, 0);
    assert!(report.corruptions.is_empty(), "{:?}", report.corruptions);
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);

    // Retired sessions stay dead, even though their slots were logged.
    for dead in [fin_id, can_id] {
        assert!(matches!(
            rec.next_question(dead),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    // Durable lifecycle counters survive the crash.
    let stats = rec.stats();
    assert_eq!(stats.opened, pre_stats.opened);
    assert_eq!(stats.finished, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.live, kinds.len());

    // Uncrashed control: same plan on a fresh in-memory engine.
    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec).unwrap();
    let cfin = open_and_replay(&control, cplan, PolicyKind::GreedyDag, &[]);
    let (ct, cout) = drive_to_end(&control, cfin, &dag, fin_target);
    assert_eq!(ct, fin_transcript, "pre-crash finish diverged from control");
    assert_eq!(cout.price.to_bits(), fin_out.price.to_bits());

    for (id, kind, target, prefix) in live {
        // The recovered engine accepts the PRE-crash id and continues.
        let (got_t, got_out) = drive_to_end(&rec, id, &dag, target);
        // Control replays the acknowledged prefix, then continues.
        let cid = open_and_replay(&control, cplan, kind, &prefix);
        let (want_t, want_out) = drive_to_end(&control, cid, &dag, target);
        assert_eq!(got_t, want_t, "{kind:?}: continuation diverged");
        assert_eq!(got_out.target, want_out.target);
        assert_eq!(got_out.queries, want_out.queries, "{kind:?}: query count");
        assert_eq!(
            got_out.price.to_bits(),
            want_out.price.to_bits(),
            "{kind:?}: price bits diverged"
        );
    }
}

#[test]
fn compaction_is_crash_safe() {
    let dir = scratch_dir("recover-compact");
    let spec = plan_spec();
    let dag = spec.dag.clone();

    let config = EngineConfig {
        durability: Some(
            DurabilityConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every(Some(12)),
        ),
        ..common::engine_config()
    };
    let engine = SearchEngine::try_new(config).unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();

    // Plenty of full lifecycles so auto-compaction triggers repeatedly.
    for i in 0..8 {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        drive_to_end(&engine, id, &dag, NodeId::new(i % N));
    }
    // Two live sessions with partial progress, an explicit compaction, then
    // more progress that lands in the post-compaction tail.
    let a = engine.open_session(plan, PolicyKind::Wigs).unwrap().id();
    let b = engine
        .open_session(plan, PolicyKind::Random { seed: 9 })
        .unwrap()
        .id();
    let ta = NodeId::new(4);
    let tb = NodeId::new(11);
    let mut prefix_a = Vec::new();
    let mut prefix_b = Vec::new();
    for (id, target, prefix) in [(a, ta, &mut prefix_a), (b, tb, &mut prefix_b)] {
        if let SessionStep::Ask(q) = engine.next_question(id).unwrap() {
            let yes = dag.reaches(q, target);
            prefix.push((q, yes));
            engine.answer(id, yes).unwrap();
        }
    }
    engine.compact().unwrap();
    if let SessionStep::Ask(q) = engine.next_question(a).unwrap() {
        let yes = dag.reaches(q, ta);
        prefix_a.push((q, yes));
        engine.answer(a, yes).unwrap();
    }
    drop(engine); // crash

    // The compaction left the canonical two-file set in every shard dir.
    let shard_dirs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-"))
        })
        .collect();
    assert!(!shard_dirs.is_empty());
    for shard in &shard_dirs {
        assert!(shard.join("snapshot.log").exists(), "{shard:?}");
        assert!(shard.join("wal.log").exists(), "{shard:?}");
        assert!(!shard.join("wal.new.log").exists(), "{shard:?}");
        assert!(!shard.join("snapshot.new.log").exists(), "{shard:?}");
    }

    let (rec, report) = common::recover(&dir).unwrap();
    assert_eq!(report.sessions, 2);
    assert_eq!(report.sessions_failed, 0);
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
    // Compaction trims retired sessions' history, so the finished counter
    // only witnesses retirements still in the log window; the live set is
    // what must be exact.
    assert_eq!(rec.live_sessions(), 2);

    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec).unwrap();
    for (id, kind, target, prefix) in [
        (a, PolicyKind::Wigs, ta, prefix_a),
        (b, PolicyKind::Random { seed: 9 }, tb, prefix_b),
    ] {
        let (got_t, got_out) = drive_to_end(&rec, id, &dag, target);
        let cid = open_and_replay(&control, cplan, kind, &prefix);
        let (want_t, want_out) = drive_to_end(&control, cid, &dag, target);
        assert_eq!(got_t, want_t);
        assert_eq!(got_out.price.to_bits(), want_out.price.to_bits());
    }
}

#[test]
fn repeated_crash_recover_cycles_stay_exact() {
    let dir = scratch_dir("recover-repeat");
    let spec = plan_spec();
    let dag = spec.dag.clone();
    let kind = PolicyKind::CostSensitive;
    let target = NodeId::new(9);

    // Crash → recover → progress → crash → recover: the session's full
    // transcript across both incarnations must equal one uncrashed run.
    let engine = SearchEngine::try_new(durable_config(&dir, FsyncPolicy::EveryN(2))).unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();
    let id = engine.open_session(plan, kind).unwrap().id();
    let mut transcript = Vec::new();
    if let SessionStep::Ask(q) = engine.next_question(id).unwrap() {
        let yes = dag.reaches(q, target);
        transcript.push((q, yes));
        engine.answer(id, yes).unwrap();
    }
    drop(engine);

    let (rec1, _) = common::recover(&dir).unwrap();
    if let SessionStep::Ask(q) = rec1.next_question(id).unwrap() {
        let yes = dag.reaches(q, target);
        transcript.push((q, yes));
        rec1.answer(id, yes).unwrap();
    }
    drop(rec1);

    let (rec2, report) = common::recover(&dir).unwrap();
    assert_eq!(report.sessions, 1);
    let (tail, out) = drive_to_end(&rec2, id, &dag, target);
    transcript.extend(tail);

    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec).unwrap();
    let cid = open_and_replay(&control, cplan, kind, &[]);
    let (want_t, want_out) = drive_to_end(&control, cid, &dag, target);
    assert_eq!(transcript, want_t, "stitched transcript diverged");
    assert_eq!(out.price.to_bits(), want_out.price.to_bits());
}

/// A greedy-dag session killed after 1, 2 and 3 answers — inside the
/// policy's opening book (its first `BOOK_DEPTH` = 2 answers replay shared
/// deltas) and one step past it — recovers and finishes with the
/// transcript of an uncrashed run. A finished session on the plan runs
/// first, so the killed one starts on a pooled instance that holds the
/// warm prototype's book.
#[test]
fn greedy_dag_recovers_inside_and_past_the_opening_book() {
    const NODES: usize = 64;
    let dag = Arc::new(dag_from_seed(NODES, 0.3, SEED));
    let spec = PlanSpec::new(dag.clone(), Arc::new(generic_weights(NODES, SEED)))
        .with_costs(Arc::new(generic_prices(NODES, SEED)))
        .with_reach(env_reach_choice());
    let kind = PolicyKind::GreedyDag;
    let depth = aigs_core::policy::GreedyDagPolicy::BOOK_DEPTH;

    // Uncrashed control: the target with the longest transcript.
    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec.clone()).unwrap();
    let (target, want_t, want_out) = dag
        .nodes()
        .map(|z| {
            let id = open_and_replay(&control, cplan, kind, &[]);
            let (t, out) = drive_to_end(&control, id, &dag, z);
            (z, t, out)
        })
        .max_by_key(|(_, t, _)| t.len())
        .unwrap();
    assert!(want_t.len() > depth + 1, "the session outlasts the book");

    for kill_after in 1..=depth + 1 {
        let dir = scratch_dir(&format!("recover-book-{kill_after}"));
        let engine = SearchEngine::try_new(durable_config(&dir, FsyncPolicy::EveryN(4))).unwrap();
        let plan = engine.register_plan(spec.clone()).unwrap();
        let warm = engine.open_session(plan, kind).unwrap().id();
        drive_to_end(&engine, warm, &dag, target);
        let id = engine.open_session(plan, kind).unwrap().id();
        let mut transcript = Vec::new();
        for _ in 0..kill_after {
            match engine.next_question(id).unwrap() {
                SessionStep::Ask(q) => {
                    let yes = dag.reaches(q, target);
                    transcript.push((q, yes));
                    engine.answer(id, yes).unwrap();
                }
                SessionStep::Resolved(t) => panic!("resolved early at {t:?}"),
            }
        }
        drop(engine); // crash

        let (rec, report) = common::recover(&dir).unwrap();
        assert_eq!(report.sessions, 1);
        assert_eq!(report.sessions_failed, 0);
        let (tail, out) = drive_to_end(&rec, id, &dag, target);
        transcript.extend(tail);
        assert_eq!(transcript, want_t, "killed after {kill_after} answers");
        assert_eq!(out.queries, want_out.queries);
        assert_eq!(out.price.to_bits(), want_out.price.to_bits());
        drop(rec);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fresh_engine_wipes_the_previous_tenants_logs() {
    let dir = scratch_dir("recover-wipe");
    let spec = plan_spec();
    let dag = spec.dag.clone();

    // Tenant A leaves live state behind…
    let a = SearchEngine::try_new(durable_config(&dir, FsyncPolicy::Never)).unwrap();
    let plan_a = a.register_plan(spec.clone()).unwrap();
    let stale = a.open_session(plan_a, PolicyKind::TopDown).unwrap().id();
    a.compact().unwrap(); // A even has a snapshot file
    drop(a);

    // …then tenant B takes over the directory with a fresh engine.
    let b = SearchEngine::try_new(durable_config(&dir, FsyncPolicy::Never)).unwrap();
    let plan_b = b.register_plan(spec).unwrap();
    let target = NodeId::new(3);
    let id = b.open_session(plan_b, PolicyKind::GreedyDag).unwrap().id();
    let mut prefix = Vec::new();
    if let SessionStep::Ask(q) = b.next_question(id).unwrap() {
        let yes = dag.reaches(q, target);
        prefix.push((q, yes));
        b.answer(id, yes).unwrap();
    }
    drop(b);

    // Recovery sees only B: A's snapshot was wiped at B's creation, and
    // A's session id carries the wrong engine nonce.
    let (rec, report) = common::recover(&dir).unwrap();
    assert_eq!(report.plans, 1);
    assert_eq!(report.sessions, 1);
    assert!(matches!(
        rec.next_question(stale),
        Err(ServiceError::UnknownSession(_))
    ));
    let (_, out) = drive_to_end(&rec, id, &dag, target);
    assert_eq!(out.target, target);
}

/// Compaction trims retired sessions' tombstones out of the log, so the
/// snapshot must carry each empty slot's generation watermark — otherwise
/// recovery rebuilds the slot at generation 0 and a fresh open re-issues a
/// retired `(index, generation)` pair, silently routing a stale pre-crash
/// id to a stranger's session.
#[test]
fn compaction_preserves_retired_slot_generations() {
    let dir = scratch_dir("recover-stale-id");
    let spec = plan_spec();
    let dag = spec.dag.clone();

    let engine = SearchEngine::try_new(durable_config(&dir, FsyncPolicy::Never)).unwrap();
    let plan = engine.register_plan(spec).unwrap();
    let stale = engine
        .open_session(plan, PolicyKind::GreedyDag)
        .unwrap()
        .id();
    drive_to_end(&engine, stale, &dag, NodeId::new(5)); // finish retires slot 0
    engine.compact().unwrap(); // trims the open/answer/finish history
    drop(engine); // crash

    let (rec, _) = common::recover(&dir).unwrap();
    assert!(matches!(
        rec.next_question(stale),
        Err(ServiceError::UnknownSession(_))
    ));
    // Reopening reuses the slot on the restored engine identity, but must
    // never re-issue the retired pair…
    let fresh = rec.open_session(plan, PolicyKind::GreedyDag).unwrap().id();
    assert_ne!(
        fresh, stale,
        "retired id re-issued after compaction + recovery"
    );
    // …so the stale pre-crash id still routes nowhere.
    assert!(matches!(
        rec.next_question(stale),
        Err(ServiceError::UnknownSession(_))
    ));
    assert!(matches!(
        rec.answer(stale, true),
        Err(ServiceError::UnknownSession(_))
    ));

    // The snapshot recovery itself republishes must preserve watermarks
    // too: retire the new tenant, then crash → recover → crash with no
    // traffic in between, so the republished snapshot (plus its fresh
    // empty tail) is the only surviving history.
    drive_to_end(&rec, fresh, &dag, NodeId::new(3));
    drop(rec);
    let (rec2, _) = common::recover(&dir).unwrap();
    drop(rec2);
    let (rec3, _) = common::recover(&dir).unwrap();
    let third = rec3.open_session(plan, PolicyKind::TopDown).unwrap().id();
    assert_ne!(third, stale);
    assert_ne!(third, fresh);
    for dead in [stale, fresh] {
        assert!(matches!(
            rec3.next_question(dead),
            Err(ServiceError::UnknownSession(_))
        ));
    }
}

/// A recovered shard whose slots span three segments of the slot table
/// (200 slots: 64 + 128 + 8): live sessions in every segment continue
/// bit-identically, and slots retired before a compaction, in every
/// segment, keep their generation watermarks, so their stale ids stay dead
/// and reopening never re-issues one.
#[test]
fn recovery_spans_slot_segments_and_keeps_watermarks() {
    const SESSIONS: usize = 200;
    // Retired slots at the edges of segments 0, 1 and 2.
    const RETIRED: [usize; 6] = [5, 63, 64, 191, 192, 199];
    let dir = scratch_dir("recover-segments");
    let spec = plan_spec();
    let dag = spec.dag.clone();
    let kinds = [PolicyKind::GreedyDag, PolicyKind::TopDown];
    let job = |i: usize| (kinds[i % 2], NodeId::new((i * 5 + 1) % N));

    let engine = SearchEngine::try_new(EngineConfig {
        shards: 1,
        ..durable_config(&dir, FsyncPolicy::Never)
    })
    .unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();
    // A fresh 1-shard engine hands out local slots 0, 1, 2, … in order.
    let mut live = Vec::new();
    let mut stale = Vec::new();
    for i in 0..SESSIONS {
        let (kind, target) = job(i);
        let id = engine.open_session(plan, kind).unwrap().id();
        if RETIRED.contains(&i) {
            stale.push(id);
            continue;
        }
        let mut prefix = Vec::new();
        if let SessionStep::Ask(q) = engine.next_question(id).unwrap() {
            let yes = dag.reaches(q, target);
            prefix.push((q, yes));
            engine.answer(id, yes).unwrap();
        }
        live.push((id, i, prefix));
    }
    for (n, &id) in stale.iter().enumerate() {
        if n % 2 == 0 {
            drive_to_end(&engine, id, &dag, job(RETIRED[n]).1);
        } else {
            engine.cancel(id).unwrap();
        }
    }
    engine.compact().unwrap(); // the watermarks now live only in the snapshot
    drop(engine); // crash

    let (rec, report) = common::recover(&dir).unwrap();
    assert_eq!(report.shards, 1);
    assert_eq!(report.sessions, SESSIONS - RETIRED.len());
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
    let fresh: Vec<_> = RETIRED
        .iter()
        .map(|&i| rec.open_session(plan, job(i).0).unwrap().id())
        .collect();
    for id in &stale {
        assert!(!fresh.contains(id), "retired id {id:?} re-issued");
        assert!(matches!(
            rec.next_question(*id),
            Err(ServiceError::UnknownSession(_))
        ));
    }
    for id in fresh {
        rec.cancel(id).unwrap();
    }

    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec).unwrap();
    for (id, i, prefix) in live {
        let (kind, target) = job(i);
        let (got_t, got_out) = drive_to_end(&rec, id, &dag, target);
        let cid = open_and_replay(&control, cplan, kind, &prefix);
        let (want_t, want_out) = drive_to_end(&control, cid, &dag, target);
        assert_eq!(got_t, want_t, "session {i} ({kind:?}) diverged");
        assert_eq!(got_out.price.to_bits(), want_out.price.to_bits());
    }
    assert_eq!(rec.live_sessions(), 0);
}

#[test]
fn recovery_error_paths_are_typed() {
    // recover_with demands a durability config…
    let err = SearchEngine::recover_with(common::engine_config()).unwrap_err();
    assert!(matches!(err, ServiceError::Durability(_)));
    // …and an empty directory has nothing to recover from.
    let err = common::recover(scratch_dir("recover-empty")).unwrap_err();
    assert!(matches!(err, ServiceError::Durability(_)));
    // A flat pre-shard layout (a format-v1 `wal.log` directly under the
    // directory) is refused, not migrated, and left where it is.
    let flat = scratch_dir("recover-flat");
    std::fs::create_dir_all(&flat).unwrap();
    let mut wal = SessionWal::create(flat.join("wal.log")).unwrap();
    wal.append(&WalEvent::EngineMeta {
        version: 1,
        engine_id: 7,
    })
    .unwrap();
    drop(wal);
    let before = std::fs::read(flat.join("wal.log")).unwrap();
    let err = common::recover(&flat).unwrap_err();
    assert!(matches!(err, ServiceError::Durability(_)), "{err:?}");
    assert_eq!(std::fs::read(flat.join("wal.log")).unwrap(), before);
    assert!(!flat.join("shard-0").exists());
}

/// Copies every shard directory of `from` into `to`, rewriting each log as
/// a format-`version` writer would have: the header carries `version`, and
/// each `SessionSnapshot` becomes the `SessionOpened` + `Answered…` run
/// version-2 snapshots held. Returns how many snapshots it expanded.
fn rewrite_logs(from: &std::path::Path, to: &std::path::Path, version: u16) -> usize {
    let mut expanded = 0;
    for shard in std::fs::read_dir(from).unwrap() {
        let shard = shard.unwrap().path();
        let out_dir = to.join(shard.file_name().unwrap());
        std::fs::create_dir_all(&out_dir).unwrap();
        for file in std::fs::read_dir(&shard).unwrap() {
            let file = file.unwrap().path();
            let read = read_wal(&file).unwrap();
            assert!(read.corruption.is_none(), "{file:?}: {:?}", read.corruption);
            let out = out_dir.join(file.file_name().unwrap());
            let mut wal = SessionWal::create(out).unwrap();
            for event in read.events {
                match event {
                    WalEvent::EngineMeta { engine_id, .. } => {
                        wal.append(&WalEvent::EngineMeta { version, engine_id })
                    }
                    WalEvent::SessionSnapshot {
                        index,
                        generation,
                        plan,
                        kind,
                        answers,
                    } => {
                        expanded += 1;
                        wal.append(&WalEvent::SessionOpened {
                            index,
                            generation,
                            plan,
                            kind,
                        })
                        .unwrap();
                        for (seq, yes) in answers.iter().enumerate() {
                            wal.append(&WalEvent::Answered {
                                index,
                                generation,
                                seq: seq as u32,
                                yes,
                            })
                            .unwrap();
                        }
                        Ok(0)
                    }
                    other => wal.append(&other),
                }
                .unwrap();
            }
            wal.sync().unwrap();
        }
    }
    expanded
}

/// A shard directory written in format version 2 — a snapshot of
/// `SessionOpened` + `Answered` runs plus a tail — recovers under the
/// current build and continues bit-identically; a version this build does
/// not know fails typed.
#[test]
fn format_v2_logs_recover_and_continue_bit_identically() {
    let dir = scratch_dir("recover-v2-source");
    let spec = plan_spec();
    let dag = spec.dag.clone();
    let kinds = roster();

    let engine = SearchEngine::try_new(EngineConfig {
        durability: Some(
            DurabilityConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every(None),
        ),
        ..common::engine_config()
    })
    .unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();
    type LiveRow = (SessionId, PolicyKind, NodeId, Vec<(NodeId, bool)>);
    let mut live: Vec<LiveRow> = Vec::new();
    let step = |id: SessionId, target: NodeId, prefix: &mut Vec<(NodeId, bool)>| {
        if let SessionStep::Ask(q) = engine.next_question(id).unwrap() {
            let yes = dag.reaches(q, target);
            prefix.push((q, yes));
            engine.answer(id, yes).unwrap();
        }
    };
    for (i, &kind) in kinds.iter().enumerate() {
        let target = NodeId::new((i * 5 + 2) % N);
        let id = engine.open_session(plan, kind).unwrap().id();
        let mut prefix = Vec::new();
        for _ in 0..i % 3 {
            step(id, target, &mut prefix);
        }
        live.push((id, kind, target, prefix));
    }
    // Snapshot the sessions, then go on in the tail: one more answer each,
    // and a session opened after the compaction.
    engine.compact().unwrap();
    for (id, _, target, prefix) in &mut live {
        step(*id, *target, prefix);
    }
    let late_target = NodeId::new(6);
    let late = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
    let mut late_prefix = Vec::new();
    step(late, late_target, &mut late_prefix);
    live.push((late, PolicyKind::TopDown, late_target, late_prefix));
    drop(engine); // crash

    let v2 = scratch_dir("recover-v2");
    assert_eq!(rewrite_logs(&dir, &v2, 2), kinds.len());
    let (rec, report) = common::recover(&v2).unwrap();
    assert_eq!(report.sessions, live.len());
    assert_eq!(report.sessions_failed, 0);
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);

    let control = SearchEngine::new(common::engine_config());
    let cplan = control.register_plan(spec).unwrap();
    for (id, kind, target, prefix) in live {
        let (got_t, got_out) = drive_to_end(&rec, id, &dag, target);
        let cid = open_and_replay(&control, cplan, kind, &prefix);
        let (want_t, want_out) = drive_to_end(&control, cid, &dag, target);
        assert_eq!(got_t, want_t, "{kind:?}: continuation diverged");
        assert_eq!(
            got_out.price.to_bits(),
            want_out.price.to_bits(),
            "{kind:?}: price bits diverged"
        );
    }

    let v4 = scratch_dir("recover-v4");
    rewrite_logs(&dir, &v4, 4);
    let err = common::recover(&v4).unwrap_err();
    assert!(
        matches!(&err, ServiceError::Durability(m) if m.contains("format v4")),
        "{err:?}"
    );
    for d in [dir, v2, v4] {
        let _ = std::fs::remove_dir_all(d);
    }
}
