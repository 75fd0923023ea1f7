//! The service layer's core correctness property: a stepwise
//! [`SessionHandle`] produces the **bit-identical** query transcript, query
//! count and price as the inline [`run_session`] loop — for every policy
//! kind, every reachability backend, and every target, on random DAGs and
//! trees with heterogeneous prices.
//!
//! This is what licenses serving searches suspended: suspension changes
//! *when* answers arrive, never *what* is asked.

mod common;

use std::sync::Arc;

use aigs_core::{run_session, SearchContext, SessionStep, TargetOracle, TranscriptOracle};
use aigs_graph::{Dag, NodeId, ReachIndex};
use aigs_service::{PlanSpec, PolicyKind, ReachChoice, SearchEngine, SessionHandle};
use aigs_testutil::{dag_from_seed, generic_prices, generic_weights, tree_from_seed};
use proptest::prelude::*;

/// The policy kinds a service would offer for this hierarchy shape.
/// `Optimal` participates only within its exact-solver size cap; `Random`
/// checks that even the seeded baseline steps identically.
fn kinds(is_tree: bool, n: usize) -> Vec<PolicyKind> {
    let mut v = vec![
        PolicyKind::TopDown,
        PolicyKind::Migs,
        PolicyKind::Wigs,
        PolicyKind::GreedyDag,
        PolicyKind::GreedyNaive,
        PolicyKind::CostSensitive,
        PolicyKind::Random { seed: 0xfeed },
    ];
    if is_tree {
        v.push(PolicyKind::GreedyTree);
    }
    if n <= aigs_core::MAX_EXACT_NODES {
        v.push(PolicyKind::Optimal);
    }
    v
}

/// Every backend choice, with the reference [`ReachIndex`] built the exact
/// same way the plan builds it. Honours `AIGS_TEST_BACKEND` (the CI
/// backend matrix) by narrowing to the named choice; the `auto` tier runs
/// only in unforced runs.
fn backends(dag: &Dag, seed: u64) -> Vec<(&'static str, ReachChoice, Option<ReachIndex>)> {
    let all: Vec<(&'static str, ReachChoice, Option<ReachIndex>)> = vec![
        (
            "auto",
            ReachChoice::Auto,
            if dag.is_tree() {
                None
            } else {
                Some(ReachIndex::auto(dag))
            },
        ),
        (
            "closure",
            ReachChoice::Closure,
            Some(ReachIndex::closure_for(dag)),
        ),
        (
            "interval",
            ReachChoice::Interval {
                labelings: 2,
                seed: seed ^ 0xbeef,
            },
            Some(ReachIndex::interval_for(dag, 2, seed ^ 0xbeef)),
        ),
        ("bfs", ReachChoice::Bfs, Some(ReachIndex::Bfs)),
        ("none", ReachChoice::None, None),
    ];
    match aigs_testutil::forced_backend() {
        None => all,
        Some(want) => all
            .into_iter()
            .filter(|(name, _, _)| *name == want)
            .collect(),
    }
}

/// Steps `session` to completion with truthful answers for `target`,
/// recording the transcript.
fn drive_stepwise(
    mut session: SessionHandle<'_>,
    dag: &Dag,
    target: NodeId,
) -> Result<(Vec<(NodeId, bool)>, aigs_core::SearchOutcome), TestCaseError> {
    let mut transcript = Vec::new();
    loop {
        match session
            .next_question()
            .map_err(|e| TestCaseError::fail(format!("next_question failed: {e}")))?
        {
            SessionStep::Resolved(_) => {
                let out = session
                    .finish()
                    .map_err(|e| TestCaseError::fail(format!("finish failed: {e}")))?;
                return Ok((transcript, out));
            }
            SessionStep::Ask(q) => {
                let yes = dag.reaches(q, target);
                transcript.push((q, yes));
                session
                    .answer(yes)
                    .map_err(|e| TestCaseError::fail(format!("answer failed: {e}")))?;
            }
        }
    }
}

fn check_all(dag: Arc<Dag>, seed: u64) -> Result<(), TestCaseError> {
    let n = dag.node_count();
    let weights = Arc::new(generic_weights(n, seed));
    let costs = Arc::new(generic_prices(n, seed));

    for (_name, choice, reference_index) in backends(&dag, seed) {
        let engine = SearchEngine::new(common::engine_config());
        let plan = engine
            .register_plan(
                PlanSpec::new(dag.clone(), weights.clone())
                    .with_costs(costs.clone())
                    .with_reach(choice),
            )
            .unwrap();
        for kind in kinds(dag.is_tree(), n) {
            for z in dag.nodes() {
                // Inline reference: run_session over the same artifacts.
                let base = SearchContext::new(&dag, &weights).with_costs(&costs);
                let ctx = match &reference_index {
                    Some(ix) => base.with_reach(ix),
                    None => base,
                };
                let mut policy = kind.build();
                let mut oracle = TranscriptOracle::new(TargetOracle::new(&dag, z));
                let want = run_session(policy.as_mut(), &ctx, &mut oracle, None)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", kind.name())))?;

                // Stepwise via the engine (pooled policies, shared plan).
                let session = engine.open_session(plan, kind).unwrap();
                let (transcript, got) = drive_stepwise(session, &dag, z)?;

                prop_assert_eq!(
                    &transcript,
                    &oracle.transcript,
                    "{} under {:?}: transcript diverged (target {})",
                    kind.name(),
                    choice,
                    z
                );
                prop_assert_eq!(got.target, want.target);
                prop_assert_eq!(got.queries, want.queries);
                prop_assert_eq!(
                    got.price.to_bits(),
                    want.price.to_bits(),
                    "{} under {:?}: price diverged (target {})",
                    kind.name(),
                    choice,
                    z
                );
            }
        }
        // The matrix's compiled cell must actually serve from the tier.
        if aigs_testutil::forced_compiled() == Some(true) {
            prop_assert!(
                engine.stats().compiled_hits > 0,
                "AIGS_COMPILED=1 but no step was served compiled"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stepwise ≡ inline on random DAGs, every policy × backend × target.
    #[test]
    fn stepwise_equals_inline_on_dags(
        n in 2usize..20,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
    ) {
        let dag = Arc::new(dag_from_seed(n, frac, seed));
        check_all(dag, seed)?;
    }

    /// Stepwise ≡ inline on random trees (adds GreedyTree to the roster).
    #[test]
    fn stepwise_equals_inline_on_trees(n in 2usize..20, seed in 0u64..10_000) {
        let dag = Arc::new(tree_from_seed(n, seed));
        check_all(dag, seed)?;
    }
}
