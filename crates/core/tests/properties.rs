//! Property tests for the search policies: correctness on arbitrary
//! hierarchies, equivalence of the fast and naive greedy instantiations
//! (Theorem 5), and the paper's approximation guarantees checked against
//! the exact DP optimum (Theorems 1, 2 and 4), from both sides: no policy
//! beats the optimum, and none exceeds its proven factor of it.

use aigs_core::policy::{
    optimal_expected_cost, CostSensitivePolicy, GreedyDagPolicy, GreedyNaivePolicy,
    GreedyTreePolicy, MigsPolicy, TopDownPolicy, WigsPolicy,
};
use aigs_core::{
    evaluate_exhaustive, fresh_cache_token, DecisionTreeBuilder, Policy, QueryCosts, SearchContext,
};
use aigs_graph::{Dag, NodeId};
use aigs_testutil::{backends, dag_from_seed, generic_weights, tree_from_seed};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn golden_ratio() -> f64 {
    (1.0 + 5.0_f64.sqrt()) / 2.0
}

/// Every deterministic policy, for a given hierarchy shape.
fn deterministic_roster(is_tree: bool) -> Vec<Box<dyn Policy + Send>> {
    let mut v: Vec<Box<dyn Policy + Send>> = vec![
        Box::new(TopDownPolicy::new()),
        Box::new(MigsPolicy::new()),
        Box::new(WigsPolicy::new()),
        Box::new(GreedyNaivePolicy::new()),
        Box::new(GreedyDagPolicy::new()),
        Box::new(CostSensitivePolicy::new()),
    ];
    if is_tree {
        v.push(Box::new(GreedyTreePolicy::new()));
    }
    v
}

/// Shared delta-undo harness (the `undo_roundtrip_tree_and_dag` unit test
/// from `wigs.rs`, generalised to every policy and arbitrary interleaving):
/// drives `policy` through the `script` of (undo?, advance) ops with answers
/// truthful for `witness`, maintaining the surviving answer prefix, then
/// checks at every step that a fresh replay of the prefix reaches the same
/// resolution and the same next query — i.e. journal-based rollback
/// reproduces the exact pre-snapshot semantics.
fn assert_rollback_matches_replay(
    policy: &mut dyn Policy,
    ctx: &SearchContext<'_>,
    witness: NodeId,
    script: &[bool],
) -> Result<(), TestCaseError> {
    let g = ctx.dag;
    policy.reset(ctx);
    let mut prefix: Vec<(NodeId, bool)> = Vec::new();
    for &do_undo in script {
        if do_undo && !prefix.is_empty() {
            policy.unobserve(ctx);
            prefix.pop();
        } else if policy.resolved().is_none() {
            let q = policy.select(ctx);
            let ans = g.reaches(q, witness);
            policy.observe(ctx, q, ans);
            prefix.push((q, ans));
        }
        // Invariant after every op: a fresh policy replaying the prefix is
        // indistinguishable from the undone/advanced one.
        let mut fresh = policy.clone_box();
        fresh.reset(ctx);
        for &(q, ans) in &prefix {
            prop_assert_eq!(fresh.resolved(), None, "{}", policy.name());
            let fq = fresh.select(ctx);
            prop_assert_eq!(fq, q, "{}: replay diverged", policy.name());
            fresh.observe(ctx, fq, ans);
        }
        prop_assert_eq!(fresh.resolved(), policy.resolved(), "{}", policy.name());
        if policy.resolved().is_none() {
            prop_assert_eq!(
                policy.select(ctx),
                fresh.select(ctx),
                "{}: next query diverged",
                policy.name()
            );
        }
    }
    // Full unwind must land on the exact fresh-reset state.
    while !prefix.is_empty() {
        policy.unobserve(ctx);
        prefix.pop();
    }
    let mut fresh = policy.clone_box();
    fresh.reset(ctx);
    prop_assert_eq!(fresh.resolved(), policy.resolved(), "{}", policy.name());
    if policy.resolved().is_none() {
        prop_assert_eq!(
            policy.select(ctx),
            fresh.select(ctx),
            "{}: post-unwind query diverged",
            policy.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every policy identifies every target on random trees.
    #[test]
    fn all_policies_correct_on_trees(n in 2usize..40, seed in 0u64..10_000) {
        let g = tree_from_seed(n, seed);
        let w = generic_weights(n, seed);
        let ctx = SearchContext::new(&g, &w);
        let policies: Vec<Box<dyn Policy + Send>> = vec![
            Box::new(TopDownPolicy::new()),
            Box::new(MigsPolicy::new()),
            Box::new(WigsPolicy::new()),
            Box::new(GreedyNaivePolicy::new()),
            Box::new(GreedyTreePolicy::new()),
            Box::new(GreedyDagPolicy::new()),
            Box::new(CostSensitivePolicy::new()),
        ];
        for mut p in policies {
            let report = evaluate_exhaustive(p.as_mut(), &ctx).unwrap();
            prop_assert_eq!(report.targets, n, "{}", p.name());
        }
    }

    /// Every DAG-capable policy identifies every target on random DAGs.
    #[test]
    fn all_policies_correct_on_dags(
        n in 2usize..40,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
    ) {
        let g = dag_from_seed(n, frac, seed);
        let w = generic_weights(g.node_count(), seed);
        let ctx = SearchContext::new(&g, &w);
        let policies: Vec<Box<dyn Policy + Send>> = vec![
            Box::new(TopDownPolicy::new()),
            Box::new(MigsPolicy::new()),
            Box::new(WigsPolicy::new()),
            Box::new(GreedyNaivePolicy::new()),
            Box::new(GreedyDagPolicy::new()),
            Box::new(CostSensitivePolicy::new()),
        ];
        for mut p in policies {
            let report = evaluate_exhaustive(p.as_mut(), &ctx).unwrap();
            prop_assert_eq!(report.targets, g.node_count(), "{}", p.name());
        }
    }

    /// Theorem 5 in action: on trees with generic weights, `GreedyTree`
    /// (heavy-path descent) issues exactly the same queries as the
    /// exhaustive-scan `GreedyNaive`, for every target.
    #[test]
    fn greedy_tree_equals_greedy_naive(n in 2usize..35, seed in 0u64..10_000) {
        let g = tree_from_seed(n, seed);
        let w = generic_weights(n, seed);
        let ctx = SearchContext::new(&g, &w);
        for z in g.nodes() {
            let mut fast = GreedyTreePolicy::new();
            let mut naive = GreedyNaivePolicy::new();
            fast.reset(&ctx);
            naive.reset(&ctx);
            loop {
                match (fast.resolved(), naive.resolved()) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(a, z);
                        break;
                    }
                    (None, None) => {}
                    other => prop_assert!(false, "resolution diverged: {other:?}"),
                }
                let qf = fast.select(&ctx);
                let qn = naive.select(&ctx);
                prop_assert_eq!(qf, qn, "middle points diverged (target {})", z);
                let ans = g.reaches(qf, z);
                fast.observe(&ctx, qf, ans);
                naive.observe(&ctx, qn, ans);
            }
        }
    }

    /// Theorem 2: on trees the greedy policy is within (1+√5)/2 of the
    /// exact optimal expected cost.
    #[test]
    fn greedy_tree_within_golden_ratio_of_optimal(n in 2usize..13, seed in 0u64..10_000) {
        let g = tree_from_seed(n, seed);
        let w = generic_weights(n, seed);
        let ctx = SearchContext::new(&g, &w);
        let opt = optimal_expected_cost(&ctx).unwrap();
        // n ≥ 2: every target takes at least one unit-price query.
        prop_assert!(opt >= 1.0 - 1e-9, "optimal {opt} below one query");
        let mut greedy = GreedyTreePolicy::new();
        let cost = evaluate_exhaustive(&mut greedy, &ctx).unwrap().expected_cost;
        prop_assert!(cost >= opt - 1e-9, "greedy {cost} beats optimal {opt}");
        prop_assert!(
            cost <= golden_ratio() * opt + 1e-9,
            "greedy {cost} vs optimal {opt} exceeds (1+√5)/2"
        );
    }

    /// Theorem 1: on DAGs the rounded greedy is within 2(1 + 3 ln n) of the
    /// exact optimum.
    #[test]
    fn greedy_dag_within_log_factor_of_optimal(
        n in 2usize..13,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let w = generic_weights(nn, seed);
        let ctx = SearchContext::new(&g, &w);
        let opt = optimal_expected_cost(&ctx).unwrap();
        prop_assert!(opt >= 1.0 - 1e-9, "optimal {opt} below one query");
        let mut greedy = GreedyDagPolicy::new();
        let cost = evaluate_exhaustive(&mut greedy, &ctx).unwrap().expected_cost;
        prop_assert!(cost >= opt - 1e-9, "rounded greedy {cost} beats optimal {opt}");
        let bound = 2.0 * (1.0 + 3.0 * (nn as f64).ln());
        prop_assert!(
            cost <= bound * opt + 1e-9,
            "rounded greedy {cost} vs optimal {opt}: bound {bound} violated"
        );
    }

    /// The exact decision-tree cost equals the simulated expected cost for
    /// every policy on random DAGs — validating both the builder's
    /// undo-driven DFS and each policy's `unobserve`.
    #[test]
    fn decision_tree_cost_matches_simulation(
        n in 2usize..25,
        frac in 0.0f64..0.4,
        seed in 0u64..10_000,
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let w = generic_weights(nn, seed);
        let ctx = SearchContext::new(&g, &w);
        let mut policies: Vec<Box<dyn Policy + Send>> = vec![
            Box::new(TopDownPolicy::new()),
            Box::new(WigsPolicy::new()),
            Box::new(GreedyNaivePolicy::new()),
            Box::new(GreedyDagPolicy::new()),
        ];
        if g.is_tree() {
            policies.push(Box::new(GreedyTreePolicy::new()));
        }
        for mut p in policies {
            let dt = DecisionTreeBuilder::new().build(p.as_mut(), &ctx).unwrap();
            prop_assert_eq!(dt.leaf_count(), nn, "{}", p.name());
            let exact = dt.expected_cost(&w);
            let sim = evaluate_exhaustive(p.as_mut(), &ctx).unwrap().expected_cost;
            prop_assert!(
                (exact - sim).abs() < 1e-9,
                "{}: decision tree {exact} vs simulation {sim}",
                p.name()
            );
        }
    }

    /// The shared delta-undo harness over every deterministic policy on
    /// random trees: truthful answers for a random witness target explore
    /// both yes and no branches, interleaved with undos at every depth.
    #[test]
    fn journal_rollback_exact_on_trees(
        n in 2usize..25,
        seed in 0u64..10_000,
        witness_raw in 0u32..100,
        script in prop::collection::vec(prop::bool::ANY, 1..24),
    ) {
        let g = tree_from_seed(n, seed);
        let w = generic_weights(n, seed);
        let ctx = SearchContext::new(&g, &w);
        let witness = NodeId::new(witness_raw as usize % n);
        for mut p in deterministic_roster(true) {
            assert_rollback_matches_replay(p.as_mut(), &ctx, witness, &script)?;
        }
    }

    /// Same harness on random DAGs (shared-descendant candidate updates,
    /// closure-backed WIGS, rounded-greedy ancestor repairs).
    #[test]
    fn journal_rollback_exact_on_dags(
        n in 2usize..25,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
        witness_raw in 0u32..100,
        script in prop::collection::vec(prop::bool::ANY, 1..24),
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let w = generic_weights(nn, seed);
        let ctx = SearchContext::new(&g, &w);
        let witness = NodeId::new(witness_raw as usize % nn);
        for mut p in deterministic_roster(false) {
            assert_rollback_matches_replay(p.as_mut(), &ctx, witness, &script)?;
        }
    }

    /// Journal-unwind `reset` under a cache token is indistinguishable from
    /// a from-scratch policy: after an abandoned partial session, a token
    /// reset must produce the identical exhaustive report.
    #[test]
    fn cached_reset_equals_fresh_policy(
        n in 2usize..25,
        frac in 0.0f64..0.4,
        seed in 0u64..10_000,
        witness_raw in 0u32..100,
        abandon_after in 1usize..6,
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let w = generic_weights(nn, seed);
        let token = fresh_cache_token();
        let ctx = SearchContext::new(&g, &w).with_cache_token(token);
        let witness = NodeId::new(witness_raw as usize % nn);
        for mut p in deterministic_roster(g.is_tree()) {
            // Warm the caches, then abandon a session mid-flight.
            p.reset(&ctx);
            for _ in 0..abandon_after {
                if p.resolved().is_some() {
                    break;
                }
                let q = p.select(&ctx);
                p.observe(&ctx, q, g.reaches(q, witness));
            }
            // The next reset unwinds the journal; results must be identical
            // to a policy that never saw the abandoned session.
            let reused = evaluate_exhaustive(p.as_mut(), &ctx).unwrap();
            let mut virgin = p.clone_box();
            let ctx2 = SearchContext::new(&g, &w).with_cache_token(fresh_cache_token());
            virgin.reset(&ctx2); // force rebuild under a different token
            let fresh = evaluate_exhaustive(virgin.as_mut(), &ctx2).unwrap();
            prop_assert_eq!(&reused.per_target, &fresh.per_target, "{}", p.name());
            prop_assert_eq!(reused.expected_cost.to_bits(), fresh.expected_cost.to_bits(), "{}", p.name());
        }
    }

    /// Undo stress: interleaved observe/unobserve always leaves the policy
    /// in a state equivalent to replaying the surviving answer prefix.
    #[test]
    fn unobserve_is_exact_inverse(
        n in 3usize..20,
        frac in 0.0f64..0.3,
        seed in 0u64..10_000,
        script in prop::collection::vec((prop::bool::ANY, prop::bool::ANY), 1..16),
    ) {
        let g = dag_from_seed(n, frac, seed);
        let w = generic_weights(g.node_count(), seed);
        let ctx = SearchContext::new(&g, &w);

        let policies: Vec<Box<dyn Policy + Send>> = vec![
            Box::new(TopDownPolicy::new()),
            Box::new(WigsPolicy::new()),
            Box::new(GreedyNaivePolicy::new()),
            Box::new(GreedyDagPolicy::new()),
        ];
        for mut p in policies {
            p.reset(&ctx);
            // The surviving answer prefix.
            let mut prefix: Vec<(NodeId, bool)> = Vec::new();
            for &(do_undo, answer) in &script {
                if do_undo && !prefix.is_empty() {
                    p.unobserve(&ctx);
                    prefix.pop();
                } else if p.resolved().is_none() {
                    let q = p.select(&ctx);
                    // Keep the branch consistent with *some* target: answer
                    // `yes` iff a fixed witness target is reachable, else
                    // use the proposed answer only if it keeps ≥1 candidate.
                    let _ = answer;
                    let witness = NodeId::new(0);
                    let ans = g.reaches(q, witness) || {
                        // no-answers are always consistent with the witness
                        // when reach is false
                        false
                    };
                    p.observe(&ctx, q, ans);
                    prefix.push((q, ans));
                }
            }
            // Replay the prefix on a fresh clone and compare next queries.
            let mut fresh = p.clone_box();
            fresh.reset(&ctx);
            for &(q, ans) in &prefix {
                prop_assert_eq!(fresh.resolved(), None, "{}", p.name());
                let fq = fresh.select(&ctx);
                prop_assert_eq!(fq, q, "{} replay diverged", p.name());
                fresh.observe(&ctx, fq, ans);
            }
            prop_assert_eq!(fresh.resolved(), p.resolved(), "{}", p.name());
            if p.resolved().is_none() {
                prop_assert_eq!(p.select(&ctx), fresh.select(&ctx), "{}", p.name());
            }
        }
    }

    /// Backend interchangeability: every DAG policy issues the *identical*
    /// query transcript whether the shared `ReachIndex` is the transitive
    /// closure, the GRAIL interval tier, plain BFS, or absent entirely —
    /// for every target. (All backends are exact, and the policies derive
    /// the same candidate words from each; this is what licenses swapping
    /// the closure out at sizes where it cannot allocate.) The reference
    /// transcript is always produced by the index-free `GreedyNaive`-style
    /// context, so the property stays meaningful even when
    /// `AIGS_TEST_BACKEND` narrows [`backends`] to a single entry.
    #[test]
    fn dag_policy_transcripts_identical_across_backends(
        n in 2usize..30,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let w = generic_weights(nn, seed);
        let makers: [fn() -> Box<dyn Policy + Send>; 4] = [
            || Box::new(WigsPolicy::new()),
            || Box::new(GreedyDagPolicy::new()),
            || Box::new(GreedyNaivePolicy::new()),
            || {
                Box::new(TopDownPolicy::with_order(
                    aigs_core::policy::ChildOrder::SubtreeWeightDesc,
                ))
            },
        ];
        for make in makers {
            for z in g.nodes() {
                // Index-free reference transcript.
                let mut p = make();
                let name = p.name().to_owned();
                let ctx = SearchContext::new(&g, &w);
                let (reference, _) =
                    aigs_testutil::drive_transcript(p.as_mut(), &ctx, z, &name);
                for (backend_name, index) in backends(&g, seed) {
                    let base = SearchContext::new(&g, &w);
                    let ctx = match &index {
                        Some(ix) => base.with_reach(ix),
                        None => base,
                    };
                    let mut p = make();
                    let label = format!("{name} under {backend_name} (target {z})");
                    let (transcript, _) =
                        aigs_testutil::drive_transcript(p.as_mut(), &ctx, z, &label);
                    aigs_testutil::assert_transcripts_equal(&reference, &transcript, &label);
                }
            }
        }
    }

    /// MIGS tracks TopDown tightly: a successful unary-chain jump saves the
    /// chain length, a failed probe costs exactly one extra query, so the
    /// expected costs stay within one query of each other on any instance
    /// (and the savings dominate on leaf-heavy real distributions — the
    /// dataset-level pipeline tests assert `migs ≤ top-down` there).
    #[test]
    fn migs_tracks_top_down(n in 2usize..40, seed in 0u64..10_000) {
        let g = tree_from_seed(n, seed);
        let w = generic_weights(n, seed);
        let ctx = SearchContext::new(&g, &w);
        let mut migs = MigsPolicy::new();
        let mut td = TopDownPolicy::new();
        let rm = evaluate_exhaustive(&mut migs, &ctx).unwrap();
        let rt = evaluate_exhaustive(&mut td, &ctx).unwrap();
        prop_assert!(
            rm.expected_cost <= rt.expected_cost + 1.0,
            "migs {} vs top-down {}",
            rm.expected_cost,
            rt.expected_cost
        );
    }

    /// Batched tree search: correct for every k and target, never uses more
    /// rounds than queries, and never more queries than k·rounds.
    #[test]
    fn batched_invariants(
        n in 2usize..35,
        seed in 0u64..10_000,
        k in 1usize..6,
    ) {
        use aigs_core::{BatchedTreeSearch, TargetOracle};
        let g = tree_from_seed(n, seed);
        let w = generic_weights(n, seed);
        let ctx = SearchContext::new(&g, &w);
        let search = BatchedTreeSearch::new(k);
        for z in g.nodes() {
            let mut oracle = TargetOracle::new(&g, z);
            let out = search.run(&ctx, &mut oracle).unwrap();
            prop_assert_eq!(out.target, z);
            prop_assert!(out.rounds <= out.queries);
            prop_assert!(out.queries <= out.rounds * k as u32);
        }
    }

    /// Theorem 4 on trees: with heterogeneous prices the cost-sensitive
    /// greedy's expected price lies between the exact price optimum and
    /// 2(1 + 3 ln n) times it, and every target is identified.
    #[test]
    fn cost_sensitive_greedy_prices(n in 2usize..14, seed in 0u64..10_000) {
        let g = tree_from_seed(n, seed);
        check_cost_sensitive_bound(&g, seed)?;
    }

    /// Theorem 4 on DAGs, same bounds.
    #[test]
    fn cost_sensitive_greedy_prices_on_dags(
        n in 2usize..14,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
    ) {
        let g = dag_from_seed(n, frac, seed);
        check_cost_sensitive_bound(&g, seed)?;
    }
}

/// Theorem 4's two-sided bound for `CostSensitivePolicy` on `g`, with
/// generic weights and per-node prices drawn from [0.5, 5).
fn check_cost_sensitive_bound(g: &Dag, seed: u64) -> Result<(), TestCaseError> {
    let n = g.node_count();
    let w = generic_weights(n, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc057);
    let prices: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..5.0)).collect();
    let costs = QueryCosts::PerNode(prices);
    let ctx = SearchContext::new(g, &w).with_costs(&costs);

    let mut cs = CostSensitivePolicy::new();
    let r = evaluate_exhaustive(&mut cs, &ctx).unwrap();
    prop_assert_eq!(r.targets, n);

    let opt = optimal_expected_cost(&ctx).unwrap();
    // n ≥ 2: every target takes at least one query, priced at least 0.5.
    prop_assert!(opt >= 0.5 - 1e-9, "optimal {opt} below the cheapest query");
    prop_assert!(
        r.expected_price >= opt - 1e-9,
        "cost-sensitive {0} beats optimal {opt}",
        r.expected_price
    );
    let bound = 2.0 * (1.0 + 3.0 * (n as f64).ln());
    prop_assert!(
        r.expected_price <= bound * opt + 1e-9,
        "cost-sensitive {0} vs optimal {opt}: bound {bound} violated",
        r.expected_price
    );
    Ok(())
}
