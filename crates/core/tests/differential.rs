//! The differential harness for the incremental greedy-DAG frontier.
//!
//! `GreedyDagPolicy::new()` maintains its pruned-BFS frontier and balance
//! aggregates as persistent state updated in O(Δ) per answer;
//! [`GreedyDagPolicy::reference`] re-derives everything from scratch every
//! round (the paper's Alg. 6 executed naively) and is the retained oracle.
//! In the spirit of reference-vs-optimised differential testing, every
//! property here pits the two against each other — bit-identical question
//! sequences, query counts and prices — over random DAGs × every
//! reachability backend × every target, through rollback, cache-token
//! reuse, mid-session abandonment, and the `count_mode` fallback flip.
//!
//! Frontier *state* (not just behaviour) is verified against independent
//! test-side oracles: brute-force alive-subgraph aggregates and a
//! from-scratch pruned BFS over them.

use std::collections::VecDeque;

use aigs_core::policy::{GreedyDagPolicy, WigsPolicy};
use aigs_core::{fresh_cache_token, Policy, SearchContext, SessionStep, SessionStepper};
use aigs_graph::{dag_from_edges, Dag, NodeId};
use aigs_testutil::{
    assert_transcripts_equal, backends, dag_from_seed, drive_transcript, generic_prices,
    generic_weights, Transcript,
};
use proptest::prelude::*;

/// Brute-force `(w̃, ñ)` of every alive node: a BFS over the alive
/// subgraph per node, entirely independent of the policy's bookkeeping.
fn cold_aggregates(dag: &Dag, w: &[u64], alive: &[bool]) -> (Vec<u64>, Vec<u32>) {
    let n = dag.node_count();
    let mut wt = vec![0u64; n];
    let mut cnt = vec![0u32; n];
    for v in dag.nodes() {
        if !alive[v.index()] {
            continue;
        }
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[v.index()] = true;
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            wt[v.index()] += w[u.index()];
            cnt[v.index()] += 1;
            for &c in dag.children(u) {
                if alive[c.index()] && !seen[c.index()] {
                    seen[c.index()] = true;
                    queue.push_back(c);
                }
            }
        }
    }
    (wt, cnt)
}

/// From-scratch frontier of (root, alive, aggregates): the pruned BFS of
/// Alg. 6 re-run on test-side state, returning sorted (cone, boundary).
fn cold_frontier(
    dag: &Dag,
    root: NodeId,
    alive: &[bool],
    wt: &[u64],
    cnt: &[u32],
) -> (Vec<u32>, Vec<u32>) {
    let count_mode = wt[root.index()] == 0;
    let score = |v: NodeId| {
        if count_mode {
            cnt[v.index()] as u64
        } else {
            wt[v.index()]
        }
    };
    let total = score(root);
    let mut seen = vec![false; dag.node_count()];
    let mut queue = VecDeque::new();
    seen[root.index()] = true;
    queue.push_back(root);
    let (mut cone, mut boundary) = (Vec::new(), Vec::new());
    while let Some(u) = queue.pop_front() {
        for &c in dag.children(u) {
            if !alive[c.index()] || seen[c.index()] {
                continue;
            }
            seen[c.index()] = true;
            if 2 * score(c) > total {
                cone.push(c.0);
                queue.push_back(c);
            } else {
                boundary.push(c.0);
            }
        }
    }
    cone.sort_unstable();
    boundary.sort_unstable();
    (cone, boundary)
}

/// Asserts the incremental policy's aggregates and live frontier are
/// bit-equal to cold rebuilds from first principles. Runs `select` first
/// (idempotent) when unresolved so a frontier for the current root exists.
fn assert_state_matches_cold_rebuild(
    p: &mut GreedyDagPolicy,
    ctx: &SearchContext<'_>,
    label: &str,
) {
    let (alive_ids, wt, cnt) = p.aggregates_snapshot();
    let n = ctx.dag.node_count();
    let mut alive = vec![false; n];
    for &i in &alive_ids {
        alive[i as usize] = true;
    }
    let w = ctx.weights.rounded();
    let (cold_wt, cold_cnt) = cold_aggregates(ctx.dag, &w, &alive);
    assert_eq!(wt, cold_wt, "{label}: w̃ diverged from cold rebuild");
    assert_eq!(cnt, cold_cnt, "{label}: ñ diverged from cold rebuild");
    if p.resolved().is_none() {
        let root = p.debug_root();
        let _ = p.select(ctx);
        assert!(p.frontier_live(), "{label}: select leaves a live frontier");
        let (cone, boundary) = p.frontier_snapshot();
        let (cold_cone, cold_boundary) = cold_frontier(ctx.dag, root, &alive, &wt, &cnt);
        assert_eq!(cone, cold_cone, "{label}: cone diverged from cold BFS");
        assert_eq!(
            boundary, cold_boundary,
            "{label}: boundary diverged from cold BFS"
        );
    }
}

/// A heavy chain of `depth` levels with `fanout` light two-node stubs
/// hanging off every level. The chain child of level `i` carries a `ratio`
/// fraction of the level's subtree mass, so for `ratio ∈ (1/√2, ~0.85)` the
/// deepest heavy chain node is both the balance winner and a cone member —
/// every *yes* along the chain re-roots onto a cone member, the exact shape
/// the re-root reuse fast path serves.
fn yes_chain(depth: usize, fanout: usize, ratio: f64) -> (Dag, aigs_core::NodeWeights) {
    let n = depth + 1 + depth * fanout * 2;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut masses = vec![0.0f64; n];
    let mut next = depth + 1;
    let mut level_mass = 1.0f64;
    for i in 0..depth {
        edges.push((i as u32, (i + 1) as u32));
        let share = (1.0 - ratio) * level_mass / (fanout + 1) as f64;
        masses[i] = share;
        for _ in 0..fanout {
            let (l, m) = (next, next + 1);
            next += 2;
            edges.push((i as u32, l as u32));
            edges.push((l as u32, m as u32));
            masses[l] = share / 2.0;
            masses[m] = share / 2.0;
        }
        level_mass *= ratio;
    }
    masses[depth] = level_mass;
    let g = dag_from_edges(n, &edges).unwrap();
    let w = aigs_core::NodeWeights::from_masses(masses).unwrap();
    (g, w)
}

/// Test-side replay of an answer prefix: the surviving root and alive set,
/// computed by brute force, independent of any policy bookkeeping.
fn replay_alive(g: &Dag, prefix: &[(NodeId, bool)]) -> (NodeId, Vec<bool>) {
    let mut alive = vec![true; g.node_count()];
    let mut root = g.root();
    for &(q, ans) in prefix {
        if ans {
            root = q;
        } else if alive[q.index()] {
            alive[q.index()] = false;
            let mut stack = vec![q];
            while let Some(u) = stack.pop() {
                for &c in g.children(u) {
                    if alive[c.index()] {
                        alive[c.index()] = false;
                        stack.push(c);
                    }
                }
            }
        }
    }
    (root, alive)
}

/// |alive ∩ G_root| computed test-side — `resolved()` must say `Some(root)`
/// exactly when this is 1.
fn alive_cone_count(g: &Dag, root: NodeId, alive: &[bool]) -> usize {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![root];
    seen[root.index()] = true;
    let mut count = 0;
    while let Some(u) = stack.pop() {
        if alive[u.index()] {
            count += 1;
        }
        for &c in g.children(u) {
            if alive[c.index()] && !seen[c.index()] {
                seen[c.index()] = true;
                stack.push(c);
            }
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline differential: incremental vs from-scratch reference,
    /// bit-identical question sequences, query counts and prices, over
    /// random DAGs × {closure, interval, bfs, none} × every target, with
    /// heterogeneous prices in the ledger.
    #[test]
    fn incremental_equals_scratch_reference(
        n in 2usize..32,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let weights = generic_weights(nn, seed);
        let costs = generic_prices(nn, seed);
        for (backend_name, index) in backends(&g, seed) {
            let base = SearchContext::new(&g, &weights).with_costs(&costs);
            let ctx = match &index {
                Some(ix) => base.with_reach(ix),
                None => base,
            };
            let mut fast = GreedyDagPolicy::new();
            let mut oracle = GreedyDagPolicy::reference();
            for z in g.nodes() {
                let label = format!("backend {backend_name}, target {z}");
                let (want_t, want) =
                    drive_transcript(&mut oracle, &ctx, z, &format!("scratch: {label}"));
                let (got_t, got) =
                    drive_transcript(&mut fast, &ctx, z, &format!("incremental: {label}"));
                assert_transcripts_equal(&want_t, &got_t, &label);
                prop_assert_eq!(got.queries, want.queries, "{}", label);
                prop_assert_eq!(
                    got.price.to_bits(),
                    want.price.to_bits(),
                    "price diverged: {}",
                    label
                );
            }
        }
    }

    /// Journal-rollback fuzz: random interleavings of observe / unobserve /
    /// cache-token `reset` / mid-session abandonment leave the frontier
    /// aggregates and the live frontier bit-equal to cold rebuilds, and the
    /// next question bit-equal to the from-scratch reference replaying the
    /// surviving answer prefix.
    #[test]
    fn rollback_fuzz_frontier_state_bit_equal_cold_rebuild(
        n in 3usize..24,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
        witness_raw in 0u32..100,
        // op stream: 0-2 advance, 3 undo, 4 reset (abandon the session)
        script in prop::collection::vec(0u8..5, 1..28),
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let weights = generic_weights(nn, seed);
        let token = fresh_cache_token();
        let witness = NodeId::new(witness_raw as usize % nn);
        for (backend_name, index) in backends(&g, seed) {
            let base = SearchContext::new(&g, &weights).with_cache_token(token);
            let ctx = match &index {
                Some(ix) => base.with_reach(ix),
                None => base,
            };
            let mut p = GreedyDagPolicy::new();
            p.reset(&ctx);
            let mut prefix: Vec<(NodeId, bool)> = Vec::new();
            for (op_no, &op) in script.iter().enumerate() {
                let label = format!("backend {backend_name}, op {op_no}");
                match op {
                    3 if !prefix.is_empty() => {
                        p.unobserve(&ctx);
                        prefix.pop();
                    }
                    4 => {
                        // Abandon mid-session: token reset must land on the
                        // exact base state however deep we were.
                        p.reset(&ctx);
                        prefix.clear();
                    }
                    _ => {
                        if p.resolved().is_none() {
                            let q = p.select(&ctx);
                            let ans = g.reaches(q, witness);
                            p.observe(&ctx, q, ans);
                            prefix.push((q, ans));
                        }
                    }
                }
                assert_state_matches_cold_rebuild(&mut p, &ctx, &label);
                // The reference oracle replaying the surviving prefix must
                // agree on resolution and on the next question.
                let mut oracle = GreedyDagPolicy::reference();
                oracle.reset(&ctx);
                for &(q, ans) in &prefix {
                    prop_assert_eq!(oracle.resolved(), None, "{}", &label);
                    let oq = oracle.select(&ctx);
                    prop_assert_eq!(oq, q, "oracle replay diverged: {}", &label);
                    oracle.observe(&ctx, oq, ans);
                }
                prop_assert_eq!(oracle.resolved(), p.resolved(), "{}", &label);
                if p.resolved().is_none() {
                    prop_assert_eq!(
                        p.select(&ctx),
                        oracle.select(&ctx),
                        "next question diverged: {}",
                        &label
                    );
                }
            }
        }
    }

    /// Mid-session [`SessionStepper`] abandonment: sessions driven through
    /// the stepper, abandoned at arbitrary depths and restarted on the same
    /// (pooled) policy instance, still produce transcripts bit-identical to
    /// the from-scratch reference on a virgin instance.
    #[test]
    fn stepper_abandonment_keeps_transcripts_identical(
        n in 2usize..24,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
        depths in prop::collection::vec(0usize..6, 1..6),
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let weights = generic_weights(nn, seed);
        let token = fresh_cache_token();
        for (backend_name, index) in backends(&g, seed) {
            let base = SearchContext::new(&g, &weights).with_cache_token(token);
            let ctx = match &index {
                Some(ix) => base.with_reach(ix),
                None => base,
            };
            // One long-lived "pooled" instance, abandoned repeatedly.
            let mut pooled = GreedyDagPolicy::new();
            for (i, &depth) in depths.iter().enumerate() {
                let target = NodeId::new((seed as usize + i * 7) % nn);
                let mut stepper =
                    SessionStepper::start(&mut pooled, &ctx, None).unwrap();
                for _ in 0..depth {
                    match stepper.next_question(&mut pooled, &ctx).unwrap() {
                        SessionStep::Resolved(_) => break,
                        SessionStep::Ask(q) => stepper
                            .answer(&mut pooled, &ctx, g.reaches(q, target))
                            .unwrap(),
                    }
                }
                // Abandoned here: the stepper is dropped mid-flight.
            }
            // The abandoned instance now serves a full session; it must
            // match a virgin reference exactly.
            let target = NodeId::new(witnessed_target(seed, nn));
            let mut virgin = GreedyDagPolicy::reference();
            let label = format!("backend {backend_name}, target {target}");
            let (want_t, _) = drive_transcript(&mut virgin, &ctx, target, &label);
            let mut stepper = SessionStepper::start(&mut pooled, &ctx, None).unwrap();
            let mut got_t = Transcript::new();
            loop {
                match stepper.next_question(&mut pooled, &ctx).unwrap() {
                    SessionStep::Resolved(found) => {
                        prop_assert_eq!(found, target, "{}", &label);
                        break;
                    }
                    SessionStep::Ask(q) => {
                        let yes = g.reaches(q, target);
                        got_t.push((q, yes));
                        stepper.answer(&mut pooled, &ctx, yes).unwrap();
                    }
                }
            }
            assert_transcripts_equal(&want_t, &got_t, &label);
        }
    }

    /// Deep yes-chain differential: ≥32 consecutive re-roots down a heavy
    /// chain (the shape where PR 5's incremental select *lost* to the
    /// from-scratch oracle). Transcripts must stay bit-identical to
    /// `reference()` on every backend — the closure backend takes the
    /// re-root reuse fast path, the others the rebuild fallback — and the
    /// final aggregates must match a cold rebuild.
    #[test]
    fn deep_yes_chain_incremental_equals_scratch(
        depth in 32usize..44,
        fanout in 1usize..3,
        ratio_pct in 72u32..84,
        stub_salt in 0usize..1000,
    ) {
        let (g, weights) = yes_chain(depth, fanout, ratio_pct as f64 / 100.0);
        // Two targets: the deepest chain node (all-yes chain) and a stub
        // leaf partway down (yes-chain prefix, then a no and a sideways
        // resolution).
        let stub_leaf = NodeId::new(depth + 2 + 2 * (stub_salt % (depth * fanout)));
        for (backend_name, index) in backends(&g, depth as u64) {
            let base = SearchContext::new(&g, &weights);
            let ctx = match &index {
                Some(ix) => base.with_reach(ix),
                None => base,
            };
            let mut fast = GreedyDagPolicy::new();
            let mut oracle = GreedyDagPolicy::reference();
            for target in [NodeId::new(depth), stub_leaf] {
                let label = format!("backend {backend_name}, yes-chain target {target}");
                let (want_t, want) =
                    drive_transcript(&mut oracle, &ctx, target, &format!("scratch: {label}"));
                let (got_t, got) =
                    drive_transcript(&mut fast, &ctx, target, &format!("incremental: {label}"));
                assert_transcripts_equal(&want_t, &got_t, &label);
                prop_assert_eq!(got.queries, want.queries, "{}", &label);
                if target == NodeId::new(depth) {
                    let yes_count = want_t.iter().filter(|&&(_, a)| a).count();
                    prop_assert!(
                        yes_count >= depth / 4,
                        "chain target must exercise repeated re-roots, got {} yes answers: {}",
                        yes_count,
                        &label
                    );
                }
                assert_state_matches_cold_rebuild(&mut fast, &ctx, &label);
            }
        }
    }

    /// Blind-observe interleaving fuzz: observes with no `select` in
    /// between stack answers on top of possibly-invalid frontiers (a *no*
    /// right after a *yes* lands while the frontier still describes the
    /// old root), undos and token resets unwind across them, and
    /// `resolved()` must agree with a brute-force replay after every
    /// single op. Final state is bit-checked against cold rebuilds and the
    /// from-scratch reference.
    #[test]
    fn blind_observe_interleaving_fuzz(
        n in 3usize..20,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
        witness_raw in 0u32..100,
        // 0-1 advance, 2-3 blind observe (no select first), 4-5 undo,
        // 6 reset, 7 advance
        script in prop::collection::vec(0u8..8, 1..36),
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let weights = generic_weights(nn, seed);
        let token = fresh_cache_token();
        let witness = NodeId::new(witness_raw as usize % nn);
        for (backend_name, index) in backends(&g, seed) {
            let base = SearchContext::new(&g, &weights).with_cache_token(token);
            let ctx = match &index {
                Some(ix) => base.with_reach(ix),
                None => base,
            };
            let mut p = GreedyDagPolicy::new();
            p.reset(&ctx);
            let mut prefix: Vec<(NodeId, bool)> = Vec::new();
            for (op_no, &op) in script.iter().enumerate() {
                let label = format!("backend {backend_name}, op {op_no}");
                match op {
                    4 | 5 if !prefix.is_empty() => {
                        p.unobserve(&ctx);
                        prefix.pop();
                    }
                    6 => {
                        p.reset(&ctx);
                        prefix.clear();
                    }
                    2 | 3 => {
                        // Blind observe: an alive non-root node under the
                        // current root, answered honestly, *without* the
                        // `select` an ordinary advance performs.
                        let (root, alive) = replay_alive(&g, &prefix);
                        let pick = (0..nn)
                            .map(|k| NodeId::new((k + op_no + seed as usize) % nn))
                            .find(|&q| {
                                alive[q.index()] && q != root && g.reaches(root, q)
                            });
                        if let Some(q) = pick {
                            let ans = g.reaches(q, witness);
                            p.observe(&ctx, q, ans);
                            prefix.push((q, ans));
                        }
                    }
                    _ => {
                        if p.resolved().is_none() {
                            let q = p.select(&ctx);
                            let ans = g.reaches(q, witness);
                            p.observe(&ctx, q, ans);
                            prefix.push((q, ans));
                        }
                    }
                }
                let (root, alive) = replay_alive(&g, &prefix);
                let want_resolved =
                    (alive_cone_count(&g, root, &alive) == 1).then_some(root);
                prop_assert_eq!(p.resolved(), want_resolved, "{}", &label);
            }
            let label = format!("backend {backend_name}, final");
            assert_state_matches_cold_rebuild(&mut p, &ctx, &label);
            let mut oracle = GreedyDagPolicy::reference();
            oracle.reset(&ctx);
            for &(q, ans) in &prefix {
                oracle.observe(&ctx, q, ans);
            }
            prop_assert_eq!(oracle.resolved(), p.resolved(), "{}", &label);
            if p.resolved().is_none() {
                prop_assert_eq!(
                    p.select(&ctx),
                    oracle.select(&ctx),
                    "next question diverged: {}",
                    &label
                );
            }
        }
    }
}

/// The reference oracle's next question after replaying `prefix` from a
/// fresh reset (`None` once resolved).
fn reference_pick(ctx: &SearchContext<'_>, prefix: &[(NodeId, bool)]) -> Option<NodeId> {
    let mut oracle = GreedyDagPolicy::reference();
    oracle.reset(ctx);
    for &(q, ans) in prefix {
        oracle.observe(ctx, q, ans);
    }
    oracle.resolved().is_none().then(|| oracle.select(ctx))
}

/// Checks `p` against cold rebuilds and the reference oracle replaying
/// `prefix`: aggregates, frontier snapshot, resolution and next question.
fn assert_matches_reference(
    p: &mut GreedyDagPolicy,
    ctx: &SearchContext<'_>,
    prefix: &[(NodeId, bool)],
    label: &str,
) -> Result<(), TestCaseError> {
    assert_state_matches_cold_rebuild(p, ctx, label);
    let want = reference_pick(ctx, prefix);
    let got = p.resolved().is_none().then(|| p.select(ctx));
    prop_assert_eq!(got, want, "next question diverged: {}", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The opening book against the from-scratch reference and cold
    /// rebuilds. First a sweep: every answer pattern at the picks walked
    /// one step past the book's depth and undone back to the root,
    /// checked at every depth on the way down and up. Then a random
    /// script of observes at the pick and away from it (any alive node
    /// under the root), undos and token resets. Under every backend, on
    /// a fresh instance and on a clone that shares its book.
    #[test]
    fn opening_book_matches_reference_and_cold_rebuild(
        n in 3usize..28,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
        // op stream: 0-1 observe at the pick, 2 observe away from it,
        // 3 undo, 4 reset; the second value is the answer bit / node salt
        script in prop::collection::vec((0u8..5, 0usize..64), 1..32),
    ) {
        let g = dag_from_seed(n, frac, seed);
        let nn = g.node_count();
        let weights = generic_weights(nn, seed);
        let token = fresh_cache_token();
        let walk = GreedyDagPolicy::BOOK_DEPTH + 1;
        for (backend_name, index) in backends(&g, seed) {
            let base = SearchContext::new(&g, &weights).with_cache_token(token);
            let ctx = match &index {
                Some(ix) => base.with_reach(ix),
                None => base,
            };
            let mut writer = GreedyDagPolicy::new();
            writer.reset(&ctx);
            let _ = writer.select(&ctx);
            let mut p = writer.clone();
            prop_assert!(p.shares_opening_book(&writer));
            for pattern in 0u32..1 << walk {
                p.reset(&ctx);
                let mut prefix: Vec<(NodeId, bool)> = Vec::new();
                for depth in 0..walk {
                    if p.resolved().is_some() {
                        break;
                    }
                    let q = p.select(&ctx);
                    let ans = pattern >> depth & 1 == 1;
                    p.observe(&ctx, q, ans);
                    prefix.push((q, ans));
                    let label = format!("backend {backend_name}, walk {pattern:b} down {depth}");
                    assert_matches_reference(&mut p, &ctx, &prefix, &label)?;
                }
                while !prefix.is_empty() {
                    p.unobserve(&ctx);
                    prefix.pop();
                    let label = format!(
                        "backend {backend_name}, walk {pattern:b} up to {}",
                        prefix.len()
                    );
                    assert_matches_reference(&mut p, &ctx, &prefix, &label)?;
                }
            }
            let mut prefix: Vec<(NodeId, bool)> = Vec::new();
            p.reset(&ctx);
            for (op_no, &(op, salt)) in script.iter().enumerate() {
                let label = format!("backend {backend_name}, op {op_no}");
                match op {
                    3 if !prefix.is_empty() => {
                        p.unobserve(&ctx);
                        prefix.pop();
                    }
                    4 => {
                        p.reset(&ctx);
                        prefix.clear();
                    }
                    2 => {
                        let (root, alive) = replay_alive(&g, &prefix);
                        let pick = p.resolved().is_none().then(|| p.select(&ctx));
                        let away = (0..nn)
                            .map(|k| NodeId::new((k + salt) % nn))
                            .find(|&q| {
                                alive[q.index()]
                                    && q != root
                                    && Some(q) != pick
                                    && g.reaches(root, q)
                            });
                        if let Some(q) = away {
                            let ans = salt % 2 == 1;
                            p.observe(&ctx, q, ans);
                            prefix.push((q, ans));
                        }
                    }
                    _ => {
                        if p.resolved().is_none() {
                            let q = p.select(&ctx);
                            let ans = salt % 2 == 1;
                            p.observe(&ctx, q, ans);
                            prefix.push((q, ans));
                        }
                    }
                }
                assert_matches_reference(&mut p, &ctx, &prefix, &label)?;
            }
        }
    }
}

/// Deterministic split of the two *yes* re-root shapes: a cone member (the
/// closure backend serves it from the retained sub-frontier) and a light
/// boundary outsider (every backend falls back to the pruned-BFS rebuild).
/// Both must land bit-equal to cold rebuilds, and so must an undone *no*
/// right after them.
#[test]
fn reroot_cone_member_vs_non_member_is_differential_clean() {
    let (g, weights) = yes_chain(8, 2, 0.75);
    for (backend_name, index) in backends(&g, 5) {
        let base = SearchContext::new(&g, &weights);
        let ctx = match &index {
            Some(ix) => base.with_reach(ix),
            None => base,
        };
        let label = format!("re-root shapes under {backend_name}");
        let mut p = GreedyDagPolicy::new();
        p.reset(&ctx);
        let q = p.select(&ctx);
        let (cone, _) = p.frontier_snapshot();
        assert!(
            cone.contains(&q.0),
            "{label}: the chain balance winner sits in the heavy cone"
        );
        p.observe(&ctx, q, true);
        assert_state_matches_cold_rebuild(&mut p, &ctx, &format!("{label}, cone member"));
        // The helper left a live frontier for the new root; now re-root to
        // a light stub child — never a cone member.
        let stub = *g
            .children(q)
            .iter()
            .find(|c| c.index() > 8)
            .expect("chain levels carry stubs");
        let (cone, boundary) = p.frontier_snapshot();
        assert!(!cone.contains(&stub.0), "{label}: stub must not be heavy");
        assert!(
            boundary.contains(&stub.0),
            "{label}: stub sits on the boundary"
        );
        p.observe(&ctx, stub, true);
        assert_state_matches_cold_rebuild(&mut p, &ctx, &format!("{label}, outsider"));
        // And a *no* right after, undone at once.
        let q2 = p.select(&ctx);
        p.observe(&ctx, q2, false);
        p.unobserve(&ctx);
        assert_state_matches_cold_rebuild(&mut p, &ctx, &format!("{label}, undone no"));
    }
}

fn witnessed_target(seed: u64, n: usize) -> usize {
    (seed as usize).wrapping_mul(2654435761) % n
}

/// Regression: a session whose alive-set rounded weight drops to zero
/// mid-search (the `count_mode` fallback flips from weight balancing to
/// count balancing) produces identical transcripts incrementally and from
/// scratch, and rolls back across the flip bit-exactly.
#[test]
fn count_mode_flip_mid_session_is_differential_clean() {
    // Fig. 2(a) tree with all mass on node 3: after `yes(1)`, `no(2)`,
    // `no(3)` the alive set {1, 4} carries rounded weight zero while the
    // search is still unresolved — the fallback must flip mid-session.
    let g = aigs_testutil::fixtures::fig2a();
    let masses = vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
    let weights = aigs_core::NodeWeights::from_masses(masses).unwrap();
    let target = NodeId::new(4);
    for (backend_name, index) in backends(&g, 99) {
        let base = SearchContext::new(&g, &weights);
        let ctx = match &index {
            Some(ix) => base.with_reach(ix),
            None => base,
        };
        let label = format!("count-mode flip under {backend_name}");
        let mut fast = GreedyDagPolicy::new();
        let mut oracle = GreedyDagPolicy::reference();
        let (want_t, _) = drive_transcript(&mut oracle, &ctx, target, &label);
        let (got_t, _) = drive_transcript(&mut fast, &ctx, target, &label);
        assert_transcripts_equal(&want_t, &got_t, &label);

        // Verify the flip actually happens on this instance: replay and
        // find a step after which the root's alive weight is zero while
        // unresolved.
        let mut p = GreedyDagPolicy::new();
        p.reset(&ctx);
        let mut flipped_at = None;
        for (i, &(q, ans)) in want_t.iter().enumerate() {
            assert_eq!(p.select(&ctx), q, "{label}: replay diverged");
            p.observe(&ctx, q, ans);
            let (_, wt, _) = p.aggregates_snapshot();
            if p.resolved().is_none() && wt[p.debug_root().index()] == 0 {
                flipped_at = Some(i);
                break;
            }
        }
        let flipped_at =
            flipped_at.unwrap_or_else(|| panic!("{label}: instance never entered count mode"));
        assert!(
            flipped_at + 1 < want_t.len(),
            "{label}: flip must happen mid-session, not on the last query"
        );
        // Roll back across the flip and replay: selections must be
        // bit-identical the second time through (weight mode restored).
        let next = p.select(&ctx);
        p.unobserve(&ctx);
        let (_, wt, _) = p.aggregates_snapshot();
        assert_ne!(
            wt[p.debug_root().index()],
            0,
            "{label}: undo must restore weight mode"
        );
        assert_eq!(
            p.select(&ctx),
            want_t[flipped_at].0,
            "{label}: post-undo select diverged"
        );
        p.observe(&ctx, want_t[flipped_at].0, want_t[flipped_at].1);
        assert_eq!(p.select(&ctx), next, "{label}: re-advance diverged");
    }
}

/// Every truthful transcript on `g` for the policy `make` builds, one per
/// target, driven without a cache token on a thread of its own: a fresh
/// scratch arena and no other session interleaved.
fn transcripts_apart(
    g: &Dag,
    ctx: &SearchContext<'_>,
    make: fn() -> Box<dyn Policy>,
) -> Vec<Transcript> {
    std::thread::scope(|s| {
        s.spawn(|| {
            g.nodes()
                .map(|z| drive_transcript(make().as_mut(), ctx, z, "apart").0)
                .collect()
        })
        .join()
        .unwrap()
    })
}

/// One interleaved session: its policy, plan, target and answers so far.
struct Live<'a> {
    policy: Box<dyn Policy>,
    ctx: SearchContext<'a>,
    want: &'a [Transcript],
    target: usize,
    prefix: Transcript,
}

impl Live<'_> {
    fn reset(&mut self, target: usize) {
        self.target = target;
        self.policy.reset(&self.ctx);
        self.prefix.clear();
    }

    /// Checks resolution against the transcript run apart.
    fn check(&self, label: &str) -> Result<(), TestCaseError> {
        let want = &self.want[self.target];
        match self.policy.resolved() {
            Some(z) => {
                prop_assert_eq!(z.index(), self.target, "{}", label);
                prop_assert_eq!(self.prefix.len(), want.len(), "{}", label);
            }
            None => prop_assert!(self.prefix.len() < want.len(), "{}", label),
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The per-thread scratch arena under interleaving: greedy-dag and
    /// WIGS sessions on two random DAGs of different sizes advance step by
    /// step on one thread, with undos and token resets, so every traversal
    /// and repair borrows buffers the other plan's sessions last used.
    /// Every question must be the one the from-scratch reference
    /// (greedy-dag) or a fresh instance (WIGS) asks on a thread of its own,
    /// under every backend. The greedy-dag sessions run on clones of a warm
    /// prototype, sharing its rounded weights and opening book.
    #[test]
    fn interleaved_sessions_on_two_plans_match_sessions_run_apart(
        n_big in 24usize..64,
        n_small in 3usize..16,
        frac in 0.05f64..0.4,
        seed in 0u64..10_000,
        // (session, op, salt): op 0-1 step, 2 undo, 3 reset to target salt
        script in prop::collection::vec((0usize..4, 0u8..4, 0usize..64), 1..96),
    ) {
        let plans = [dag_from_seed(n_big, frac, seed), dag_from_seed(n_small, frac, seed ^ 1)];
        let weights = plans.each_ref().map(|g| generic_weights(g.node_count(), seed));
        let indexes = plans.each_ref().map(|g| backends(g, seed));
        for ((backend_name, big), (_, small)) in indexes[0].iter().zip(&indexes[1]) {
            let reach = [big, small];
            let ctx = [0, 1].map(|p| {
                let base = SearchContext::new(&plans[p], &weights[p]);
                match reach[p] {
                    Some(ix) => base.with_reach(ix),
                    None => base,
                }
            });
            let greedy: [Vec<Transcript>; 2] = [0, 1].map(|p| {
                transcripts_apart(&plans[p], &ctx[p], || Box::new(GreedyDagPolicy::reference()))
            });
            let wigs: [Vec<Transcript>; 2] = [0, 1].map(|p| {
                transcripts_apart(&plans[p], &ctx[p], || Box::new(WigsPolicy::new()))
            });
            let mut live: Vec<Live<'_>> = Vec::new();
            for p in 0..2 {
                let ctx = ctx[p].with_cache_token(fresh_cache_token());
                let mut proto = GreedyDagPolicy::new();
                proto.reset(&ctx);
                let _ = proto.select(&ctx);
                live.push(Live {
                    policy: Box::new(proto.clone()),
                    ctx,
                    want: &greedy[p],
                    target: 0,
                    prefix: Vec::new(),
                });
                live.push(Live {
                    policy: Box::new(WigsPolicy::new()),
                    ctx,
                    want: &wigs[p],
                    target: 0,
                    prefix: Vec::new(),
                });
            }
            for s in &mut live {
                let target = seed as usize % s.ctx.dag.node_count();
                s.reset(target);
            }
            for (op_no, &(i, op, salt)) in script.iter().enumerate() {
                let s = &mut live[i];
                let label = format!("backend {backend_name}, session {i}, op {op_no}");
                match op {
                    2 if !s.prefix.is_empty() => {
                        s.policy.unobserve(&s.ctx);
                        s.prefix.pop();
                    }
                    3 => s.reset(salt % s.ctx.dag.node_count()),
                    _ if s.policy.resolved().is_none() => {
                        let want = s.want[s.target][s.prefix.len()];
                        let q = s.policy.select(&s.ctx);
                        prop_assert_eq!(q, want.0, "{}", label);
                        s.policy.observe(&s.ctx, q, want.1);
                        s.prefix.push(want);
                    }
                    _ => {}
                }
                s.check(&label)?;
            }
        }
    }
}
