//! Shared helpers for the service integration suites.

#![allow(dead_code)] // each test binary uses a subset

use std::path::PathBuf;

use aigs_core::{SearchOutcome, SessionStep};
use aigs_graph::{Dag, NodeId};
use aigs_service::{
    CompiledTier, DurabilityConfig, EngineConfig, PlanId, PolicyKind, ReachChoice, SearchEngine,
    SessionId,
};

/// A fresh (pre-cleaned) scratch directory under the system temp dir,
/// unique per process so parallel `cargo test` invocations do not collide.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aigs-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reachability backend the CI matrix forces via `AIGS_TEST_BACKEND`,
/// as a plan-level [`ReachChoice`]; `Auto` when unforced.
pub fn env_reach_choice() -> ReachChoice {
    match aigs_testutil::forced_backend() {
        None => ReachChoice::Auto,
        Some("closure") => ReachChoice::Closure,
        Some("interval") => ReachChoice::Interval {
            labelings: 2,
            seed: 0xbeef,
        },
        Some("bfs") => ReachChoice::Bfs,
        Some("none") => ReachChoice::None,
        Some(other) => panic!("unknown backend {other}"),
    }
}

/// The engine config the CI matrix forces: `AIGS_SHARDS` sets `shards`,
/// and `AIGS_COMPILED` sets `compiled` (`0` → `Off`, `1` → `All`). Unset
/// variables leave the defaults. Tests that pin a field override it.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: aigs_testutil::forced_shards().unwrap_or(0),
        compiled: match aigs_testutil::forced_compiled() {
            None => CompiledTier::PerPlan,
            Some(false) => CompiledTier::Off,
            Some(true) => CompiledTier::All,
        },
        ..EngineConfig::default()
    }
}

/// Recovers the engine logged in `dir` under [`engine_config`].
pub fn recover(
    dir: impl Into<PathBuf>,
) -> Result<(SearchEngine, aigs_service::RecoveryReport), aigs_service::ServiceError> {
    SearchEngine::recover_with(EngineConfig {
        durability: Some(DurabilityConfig::new(dir)),
        ..engine_config()
    })
}

/// Steps session `id` to completion with truthful answers for `target`,
/// returning the transcript of (question, answer) pairs plus the outcome.
pub fn drive_to_end(
    engine: &SearchEngine,
    id: SessionId,
    dag: &Dag,
    target: NodeId,
) -> (Vec<(NodeId, bool)>, SearchOutcome) {
    let mut transcript = Vec::new();
    loop {
        match engine.next_question(id).expect("next_question") {
            SessionStep::Resolved(_) => return (transcript, engine.finish(id).expect("finish")),
            SessionStep::Ask(q) => {
                let yes = dag.reaches(q, target);
                transcript.push((q, yes));
                engine.answer(id, yes).expect("answer");
            }
        }
    }
}

/// Opens a control session and replays a recorded (question, answer)
/// prefix, asserting the control asks exactly the recorded questions —
/// the determinism recovery relies on.
pub fn open_and_replay(
    engine: &SearchEngine,
    plan: PlanId,
    kind: PolicyKind,
    prefix: &[(NodeId, bool)],
) -> SessionId {
    let id = engine.open_session(plan, kind).expect("open").id();
    for (i, &(want_q, yes)) in prefix.iter().enumerate() {
        match engine.next_question(id).expect("next_question") {
            SessionStep::Ask(q) => {
                assert_eq!(q, want_q, "control diverged from the log at step {i}");
                engine.answer(id, yes).expect("answer");
            }
            SessionStep::Resolved(t) => panic!("control resolved early at step {i}: {t:?}"),
        }
    }
    id
}
