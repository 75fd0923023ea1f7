//! Differential tests for the compiled serving tier.
//!
//! The tier's contract: a session served from a [`CompiledPlan`] flat
//! array is **observably indistinguishable** from one served by the live
//! pooled policy — same questions in the same order, same outcome, same
//! price bits — for every policy kind, every reachability backend (the CI
//! matrix forces them via `AIGS_TEST_BACKEND`), every target, whether the
//! session stays inside the compiled frontier, crosses it mid-flight, or
//! crash-recovers through the sharded WAL onto either tier.

mod common;

use std::sync::Arc;

use aigs_core::{CompiledConfig, SessionStep, MAX_EXACT_NODES};
use aigs_graph::NodeId;
use aigs_service::{
    CompiledTier, DurabilityConfig, EngineConfig, FsyncPolicy, PlanSpec, PolicyKind, SearchEngine,
    SessionId,
};
use aigs_testutil::{dag_from_seed, generic_prices, generic_weights};
use common::{drive_to_end, env_reach_choice, scratch_dir};

const N: usize = 13;
const SEED: u64 = 0xC0DE;

fn plan_spec() -> PlanSpec {
    let dag = Arc::new(dag_from_seed(N, 0.3, SEED));
    let weights = Arc::new(generic_weights(N, SEED));
    let costs = Arc::new(generic_prices(N, SEED));
    PlanSpec::new(dag, weights)
        .with_costs(costs)
        .with_reach(env_reach_choice())
}

/// Every kind the compiled tier must be transcript-equivalent over.
/// `Random` rides along to prove it is *served live* (never compiled)
/// rather than silently miscompiled.
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

fn engine_with_tier(tier: CompiledTier) -> SearchEngine {
    SearchEngine::new(EngineConfig {
        compiled: tier,
        ..common::engine_config()
    })
}

/// Drives one session per (kind, target) on `probe` and `control`,
/// asserting bit-identical transcripts and outcomes.
fn assert_differential(probe: &SearchEngine, control: &SearchEngine, spec: &PlanSpec) {
    let dag = spec.dag.clone();
    let probe_plan = probe.register_plan(spec.clone()).unwrap();
    let control_plan = control.register_plan(spec.clone()).unwrap();
    for kind in roster() {
        for z in dag.nodes() {
            let a = probe.open_session(probe_plan, kind).unwrap().id();
            let b = control.open_session(control_plan, kind).unwrap().id();
            let (ta, oa) = drive_to_end(probe, a, &dag, z);
            let (tb, ob) = drive_to_end(control, b, &dag, z);
            assert_eq!(ta, tb, "{kind:?} target {z}: transcripts diverged");
            assert_eq!(oa.target, ob.target, "{kind:?} target {z}");
            assert_eq!(oa.queries, ob.queries, "{kind:?} target {z}");
            assert_eq!(
                oa.price.to_bits(),
                ob.price.to_bits(),
                "{kind:?} target {z}: price bits diverged"
            );
        }
    }
}

#[test]
fn compiled_transcripts_match_live_for_every_kind_and_target() {
    // All × untruncated trees: every pooled kind serves compiled end to
    // end; Random serves live under the same roof.
    let probe = engine_with_tier(CompiledTier::All);
    let control = engine_with_tier(CompiledTier::Off);
    assert_differential(&probe, &control, &plan_spec());

    let (ps, cs) = (probe.stats(), control.stats());
    assert!(ps.compiled_hits > 0, "no step used the compiled tier");
    assert_eq!(
        ps.compiled_fallbacks, 0,
        "untruncated trees cannot fall back"
    );
    assert_eq!(cs.compiled_hits, 0, "tier-off engine served compiled steps");
    // Random is the only pooled-instance consumer on the probe engine, so
    // live steps happened there too.
    assert!(ps.steps > ps.compiled_hits, "Random must have served live");
}

#[test]
fn frontier_crossing_mid_flight_is_invisible() {
    // A depth-2 truncation on a 13-node DAG guarantees some sessions start
    // compiled and cross into the live tier mid-flight; transcripts must
    // not show the seam. PerPlan + spec-level opt-in keeps the test
    // meaning fixed no matter what AIGS_COMPILED says.
    let spec = plan_spec().with_compiled(CompiledConfig::new().with_max_depth(2));
    let probe = engine_with_tier(CompiledTier::PerPlan);
    let control = engine_with_tier(CompiledTier::Off);
    assert_differential(&probe, &control, &spec);

    let ps = probe.stats();
    assert!(ps.compiled_hits > 0, "no step used the compiled tier");
    assert!(
        ps.compiled_fallbacks > 0,
        "a depth-2 frontier on {N} nodes must be crossed by some session"
    );
}

#[test]
fn root_truncated_plans_open_live() {
    // max_depth 0 compiles to an empty array: every open falls back
    // immediately, and the engine serves exactly as if the tier were off.
    let spec = plan_spec().with_compiled(CompiledConfig::new().with_max_depth(0));
    let probe = engine_with_tier(CompiledTier::PerPlan);
    let control = engine_with_tier(CompiledTier::Off);
    assert_differential(&probe, &control, &spec);

    let ps = probe.stats();
    assert_eq!(ps.compiled_hits, 0);
    // Every open except Random's (which never requests a tree) fell back.
    let random_opens = spec.dag.node_count() as u64;
    assert_eq!(ps.compiled_fallbacks, ps.opened - random_opens);
}

#[test]
fn interleaved_compiled_sessions_suspend_and_resume() {
    // Many concurrent sessions, stepped round-robin one question at a
    // time — every step reattaches by id, so compiled cursor state must
    // survive suspension just like live policy state does.
    let spec = plan_spec().with_compiled(CompiledConfig::new().with_max_depth(2));
    let probe = engine_with_tier(CompiledTier::PerPlan);
    let control = engine_with_tier(CompiledTier::Off);
    let dag = spec.dag.clone();
    let probe_plan = probe.register_plan(spec.clone()).unwrap();
    let control_plan = control.register_plan(spec).unwrap();

    type Row = (SessionId, SessionId, NodeId, bool);
    let mut live: Vec<Row> = roster()
        .into_iter()
        .flat_map(|kind| dag.nodes().map(move |z| (kind, z)).collect::<Vec<_>>())
        .map(|(kind, z)| {
            let a = probe.open_session(probe_plan, kind).unwrap().id();
            let b = control.open_session(control_plan, kind).unwrap().id();
            (a, b, z, false)
        })
        .collect();
    while !live.is_empty() {
        let mut still = Vec::new();
        for (a, b, z, _) in live {
            let sa = probe.next_question(a).unwrap();
            let sb = control.next_question(b).unwrap();
            match (sa, sb) {
                (SessionStep::Resolved(ra), SessionStep::Resolved(rb)) => {
                    assert_eq!(ra, rb);
                    let oa = probe.finish(a).unwrap();
                    let ob = control.finish(b).unwrap();
                    assert_eq!(oa.target, z);
                    assert_eq!(oa.queries, ob.queries);
                    assert_eq!(oa.price.to_bits(), ob.price.to_bits());
                }
                (SessionStep::Ask(qa), SessionStep::Ask(qb)) => {
                    assert_eq!(qa, qb, "interleaved sessions diverged");
                    let yes = dag.reaches(qa, z);
                    probe.answer(a, yes).unwrap();
                    control.answer(b, yes).unwrap();
                    still.push((a, b, z, false));
                }
                (sa, sb) => panic!("tier disagreement: probe {sa:?} vs control {sb:?}"),
            }
        }
        live = still;
    }
    assert!(probe.stats().compiled_hits > 0);
}

/// Crash/recover differential, parameterised by the tier the *recovering*
/// engine runs: sessions opened compiled must continue bit-identically
/// whether recovery puts them back on the compiled tier or (tier now off)
/// replays them onto the live one — the logged mode bit is advisory.
fn crash_recover_differential(tag: &str, recover_tier: CompiledTier) {
    let dir = scratch_dir(tag);
    let spec = plan_spec().with_compiled(CompiledConfig::new().with_max_depth(2));
    let dag = spec.dag.clone();

    // Pre-crash: a 4-shard durable engine, one mid-flight session per
    // (kind, target) advanced a varying number of steps.
    let engine = SearchEngine::try_new(EngineConfig {
        shards: 4,
        compiled: CompiledTier::PerPlan,
        durability: Some(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Always)),
        ..common::engine_config()
    })
    .unwrap();
    let plan = engine.register_plan(spec.clone()).unwrap();
    let control = engine_with_tier(CompiledTier::Off);
    let control_plan = control.register_plan(spec.clone()).unwrap();

    type Row = (SessionId, PolicyKind, NodeId);
    let mut rows: Vec<Row> = Vec::new();
    for (i, kind) in roster().into_iter().enumerate() {
        for z in dag.nodes() {
            let id = engine.open_session(plan, kind).unwrap().id();
            for _ in 0..(i + z.index()) % 4 {
                match engine.next_question(id).unwrap() {
                    SessionStep::Resolved(_) => break,
                    SessionStep::Ask(q) => engine.answer(id, dag.reaches(q, z)).unwrap(),
                }
            }
            rows.push((id, kind, z));
        }
    }
    assert!(
        engine.stats().compiled_hits > 0,
        "pre-crash state must exercise the compiled tier"
    );
    drop(engine); // crash

    let (recovered, report) = SearchEngine::recover_with(EngineConfig {
        compiled: recover_tier,
        durability: Some(DurabilityConfig::new(&dir)),
        ..common::engine_config()
    })
    .unwrap();
    assert_eq!(report.sessions_failed, 0, "{:?}", report.anomalies);
    assert_eq!(report.sessions, rows.len());

    // Every recovered session finishes bit-identically to an uncrashed
    // control replaying the same truthful oracle.
    for (id, kind, z) in rows {
        let (_, out) = drive_to_end(&recovered, id, &dag, z);
        let cid = control.open_session(control_plan, kind).unwrap().id();
        let (_, want) = drive_to_end(&control, cid, &dag, z);
        assert_eq!(out.target, want.target, "{kind:?} target {z}");
        assert_eq!(out.queries, want.queries, "{kind:?} target {z}");
        assert_eq!(
            out.price.to_bits(),
            want.price.to_bits(),
            "{kind:?} target {z}"
        );
    }
    let rs = recovered.stats();
    match recover_tier {
        CompiledTier::Off => assert_eq!(rs.compiled_hits, 0),
        _ => assert!(rs.compiled_hits > 0, "recovery abandoned the compiled tier"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compiled_sessions_crash_recover_through_sharded_wal() {
    crash_recover_differential("compiled-recover", CompiledTier::PerPlan);
}

#[test]
fn compiled_tagged_sessions_recover_live_when_tier_is_off() {
    crash_recover_differential("compiled-recover-off", CompiledTier::Off);
}
