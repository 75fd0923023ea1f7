//! `GreedyTree` — the efficient greedy instantiation for tree hierarchies
//! (Alg. 4 + Alg. 5 of the paper, justified by Theorem 5).
//!
//! Theorem 5: the middle point of a tree always lies on the *weighted heavy
//! path* containing the root. So instead of scanning all candidates
//! (`GreedyNaive`, O(n·m) per round), the policy walks down the heavy path —
//! O(h·d) per round — and maintains subtree weights incrementally: a *no*
//! answer at `q` subtracts `p̃(q)` and `size(q)` from `q`'s ancestors up to
//! the current root; a *yes* answer just moves the root down to `q`.
//!
//! Two child-selection variants are provided (footnote 3 of the paper):
//! a linear scan over children (O(h·d) per query) and a lazy max-heap
//! variant (O(h·log d)); the benchmark harness ablates them.

use std::sync::Arc;

use aigs_graph::{NodeId, Tree};

use crate::policy::StepJournal;
use crate::{Policy, SearchContext};

/// Weight below which the candidate mass is treated as zero and the policy
/// falls back to size-balanced splitting (keeps Fig. 6-style forced
/// zero-probability targets terminating in O(log n) instead of degenerating).
const ZERO_MASS: f64 = 1e-12;

/// How the heaviest child is located during the heavy-path descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChildSelect {
    /// Linear scan over the children array (the paper's Alg. 4 body).
    #[default]
    Scan,
    /// Per-node lazy max-heaps keyed by current subtree weight
    /// (footnote 3: O(n·h·log d) total).
    Heap,
}

/// Per-step scalar payload for the delta journal.
#[derive(Debug, Clone, Copy)]
struct TreeStep {
    prev_root: NodeId,
}

/// Efficient greedy middle-point policy for trees.
///
/// Undo goes through a [`StepJournal`]: a *no* answer logs the old
/// `p̃`/`size` of each repaired ancestor (bit-exact, no float drift on
/// rollback) plus the detached flip; a *yes* answer is payload-only. Under
/// a stable [`SearchContext::cache_token`], `reset` unwinds the journal in
/// O(Δ) instead of re-deriving the tree base arrays in O(n). Clones share
/// the parent array, a plan constant.
#[derive(Debug, Clone)]
pub struct GreedyTreePolicy {
    select_mode: ChildSelect,
    /// Tree parent of every node, shared by every clone.
    parent: Arc<[NodeId]>,
    /// `p̃(v)` — probability mass of the alive subtree of `v`.
    wp: Vec<f64>,
    /// `size(v)` — alive node count of the subtree of `v`.
    size: Vec<u32>,
    /// Subtree roots eliminated by *no* answers.
    detached: Vec<bool>,
    root: NodeId,
    journal: StepJournal<TreeStep>,
    /// Token the base arrays were derived under.
    base_token: u64,
    /// Lazy heaps ([`ChildSelect::Heap`] only; empty in scan mode): per
    /// node, a max-heap of `(weight, child)` entries; entries are validated
    /// against current `wp` on pop.
    heaps: Vec<Vec<(f64, NodeId)>>,
}

impl GreedyTreePolicy {
    /// Scan-variant policy (the paper's default).
    pub fn new() -> Self {
        Self::with_child_select(ChildSelect::Scan)
    }

    /// Policy with an explicit child-selection variant.
    pub fn with_child_select(mode: ChildSelect) -> Self {
        GreedyTreePolicy {
            select_mode: mode,
            parent: Arc::from([]),
            wp: Vec::new(),
            size: Vec::new(),
            detached: Vec::new(),
            root: NodeId::SENTINEL,
            journal: StepJournal::new(),
            base_token: 0,
            heaps: Vec::new(),
        }
    }

    /// Whether this instance's base arrays were built under `ctx`'s cache
    /// token, i.e. `reset` will take the O(Δ) journal-unwind path. Shared
    /// by `try_reset` and `reset`: the two MUST agree, or a warm
    /// `try_reset` could skip the tree-shape validation while `reset`
    /// takes the cold `Tree::new` path and panics on a DAG.
    fn is_warm(&self, ctx: &SearchContext<'_>) -> bool {
        ctx.cache_token != 0
            && self.base_token == ctx.cache_token
            && self.wp.len() == ctx.dag.node_count()
    }

    /// Replays one journal step; returns `false` on an empty journal.
    fn unwind_one(&mut self) -> bool {
        let wp = &mut self.wp;
        let size = &mut self.size;
        let detached = &mut self.detached;
        let heaps = &mut self.heaps;
        let heap_mode = self.select_mode == ChildSelect::Heap;
        match self.journal.pop_with(
            |slot, old| {
                wp[slot] = f64::from_bits(old);
                // Weights *increase* on rollback, which invalidates the lazy
                // heaps' stale-entries-are-upper-bounds invariant along the
                // repaired path — force a rebuild there.
                if heap_mode {
                    heaps[slot].clear();
                }
            },
            |slot, old| size[slot] = old,
            |slot| detached[slot] = !detached[slot],
            |_, _| {},
            |_| {},
        ) {
            Some(step) => {
                self.root = step.prev_root;
                true
            }
            None => false,
        }
    }

    #[inline]
    fn weight_of(&self, v: NodeId, size_mode: bool) -> f64 {
        if size_mode {
            self.size[v.index()] as f64
        } else {
            self.wp[v.index()]
        }
    }

    /// The alive child of `v` maximising the current weight (ties towards
    /// the smallest id).
    fn heavy_child(
        &mut self,
        ctx: &SearchContext<'_>,
        v: NodeId,
        size_mode: bool,
    ) -> Option<NodeId> {
        match self.select_mode {
            ChildSelect::Scan => {
                let mut best: Option<(f64, NodeId)> = None;
                for &c in ctx.dag.children(v) {
                    if self.detached[c.index()] {
                        continue;
                    }
                    let w = self.weight_of(c, size_mode);
                    match best {
                        None => best = Some((w, c)),
                        Some((bw, bc)) => {
                            if w > bw || (w == bw && c < bc) {
                                best = Some((w, c));
                            }
                        }
                    }
                }
                best.map(|(_, c)| c)
            }
            ChildSelect::Heap => {
                // Lazy heap: rebuild when empty, discard stale entries whose
                // recorded weight no longer matches (weights only decrease,
                // so a matching top entry is the true maximum).
                loop {
                    if self.heaps[v.index()].is_empty() {
                        let mut entries: Vec<(f64, NodeId)> = ctx
                            .dag
                            .children(v)
                            .iter()
                            .filter(|c| !self.detached[c.index()])
                            .map(|&c| (self.weight_of(c, size_mode), c))
                            .collect();
                        if entries.is_empty() {
                            return None;
                        }
                        // Max at the end for cheap pop; ties prefer small id
                        // (placed last). `total_cmp` keeps the order total
                        // on degenerate weights (a NaN would panic the old
                        // `partial_cmp(..).unwrap()` mid-session).
                        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
                        self.heaps[v.index()] = entries;
                    }
                    let &(w, c) = self.heaps[v.index()].last().unwrap();
                    if self.detached[c.index()] || self.weight_of(c, size_mode) != w {
                        self.heaps[v.index()].pop();
                        // Re-insert with fresh weight unless detached.
                        if !self.detached[c.index()] {
                            let fresh = (self.weight_of(c, size_mode), c);
                            let heap = &mut self.heaps[v.index()];
                            let pos = heap
                                .binary_search_by(|probe| {
                                    probe.0.total_cmp(&fresh.0).then(fresh.1.cmp(&probe.1))
                                })
                                .unwrap_or_else(|p| p);
                            heap.insert(pos, fresh);
                        }
                        continue;
                    }
                    return Some(c);
                }
            }
        }
    }
}

impl Default for GreedyTreePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for GreedyTreePolicy {
    fn name(&self) -> &'static str {
        "greedy-tree"
    }

    fn try_reset(&mut self, ctx: &SearchContext<'_>) -> Result<(), crate::CoreError> {
        // A warm instance already passed the tree check; only cold resets
        // pay the O(n) shape validation.
        if !self.is_warm(ctx) && !ctx.dag.is_tree() {
            return Err(crate::CoreError::NotATree);
        }
        self.reset(ctx);
        Ok(())
    }

    fn reset(&mut self, ctx: &SearchContext<'_>) {
        let dag = ctx.dag;
        let n = dag.node_count();
        if self.is_warm(ctx) {
            // Same instance: unwind the last session's deltas (O(Δ)) instead
            // of rebuilding the Euler view and base arrays (O(n)).
            while self.unwind_one() {}
            self.root = dag.root();
            return;
        }
        let tree = Tree::new(dag)
            .expect("GreedyTreePolicy requires a tree hierarchy; use GreedyDagPolicy for DAGs");
        self.parent = (0..n).map(|i| tree.parent(NodeId::new(i))).collect();
        self.wp = tree.subtree_weights(ctx.weights.as_slice());
        self.size.clear();
        self.size
            .extend((0..n).map(|i| tree.subtree_size(NodeId::new(i))));
        self.detached.clear();
        self.detached.resize(n, false);
        self.root = dag.root();
        self.journal.clear();
        if self.select_mode == ChildSelect::Heap {
            self.heaps.truncate(n);
            for h in &mut self.heaps {
                h.clear();
            }
            self.heaps.resize(n, Vec::new());
        }
        self.base_token = ctx.cache_token;
    }

    fn resolved(&self) -> Option<NodeId> {
        if self.root.is_sentinel() {
            return None;
        }
        if self.size[self.root.index()] == 1 {
            Some(self.root)
        } else {
            None
        }
    }

    fn select(&mut self, ctx: &SearchContext<'_>) -> NodeId {
        debug_assert!(self.resolved().is_none());
        let r = self.root;
        let size_mode = self.wp[r.index()] <= ZERO_MASS;
        let wr = self.weight_of(r, size_mode);

        // Heavy-path descent (Alg. 4 lines 4–7).
        let mut u = r;
        let mut v = r;
        while 2.0 * self.weight_of(v, size_mode) > wr {
            match self.heavy_child(ctx, v, size_mode) {
                None => break, // alive leaf
                Some(c) => {
                    u = v;
                    v = c;
                }
            }
        }
        if v == r {
            // Descent never moved (only possible in degenerate zero-mass
            // corners); the heavy child is the best balanced query.
            return self
                .heavy_child(ctx, r, size_mode)
                .expect("unresolved root has an alive child");
        }
        // Alg. 4 lines 8–9, with the known-yes root excluded: querying the
        // root is information-free, so when the tie rule lands on it the
        // next path node wins.
        let du = (2.0 * self.weight_of(u, size_mode) - wr).abs();
        let dv = (2.0 * self.weight_of(v, size_mode) - wr).abs();
        let q = if du <= dv { u } else { v };
        if q == r {
            v
        } else {
            q
        }
    }

    fn observe(&mut self, _ctx: &SearchContext<'_>, q: NodeId, yes: bool) {
        self.journal.begin(TreeStep {
            prev_root: self.root,
        });
        if yes {
            self.root = q;
        } else {
            let dp = self.wp[q.index()];
            let dsize = self.size[q.index()];
            // Subtract the eliminated subtree from every ancestor up to the
            // current root (Alg. 4 lines 11–14), journalling each old value
            // so rollback is bit-exact.
            let mut x = self.parent[q.index()];
            loop {
                assert!(!x.is_sentinel(), "query must lie under the current root");
                self.journal.log_f64(x.index(), self.wp[x.index()]);
                self.journal.log_u32(x.index(), self.size[x.index()]);
                self.wp[x.index()] -= dp;
                self.size[x.index()] -= dsize;
                if x == self.root {
                    break;
                }
                x = self.parent[x.index()];
            }
            self.journal.log_flip(q.index());
            self.detached[q.index()] = true;
        }
    }

    fn unobserve(&mut self, _ctx: &SearchContext<'_>) {
        assert!(self.unwind_one(), "nothing to unobserve");
    }

    fn clone_box(&self) -> Box<dyn Policy + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeWeights, SearchContext};
    use aigs_graph::dag_from_edges;

    fn fig2a() -> aigs_graph::Dag {
        dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap()
    }

    fn drive(p: &mut dyn Policy, ctx: &SearchContext<'_>, z: NodeId) -> (NodeId, u32) {
        p.reset(ctx);
        let mut queries = 0;
        loop {
            if let Some(t) = p.resolved() {
                return (t, queries);
            }
            let q = p.select(ctx);
            p.observe(ctx, q, ctx.dag.reaches(q, z));
            queries += 1;
            assert!(queries < 200);
        }
    }

    #[test]
    fn finds_all_targets_both_variants() {
        let g = fig2a();
        let w = NodeWeights::from_masses(vec![0.04, 0.02, 0.04, 0.08, 0.02, 0.4, 0.4]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        for mode in [ChildSelect::Scan, ChildSelect::Heap] {
            let mut p = GreedyTreePolicy::with_child_select(mode);
            for z in g.nodes() {
                assert_eq!(drive(&mut p, &ctx, z).0, z, "{mode:?}");
            }
        }
    }

    #[test]
    fn first_query_matches_naive_middle_point() {
        let g = fig2a();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        p.reset(&ctx);
        // Unique middle point under equal weights is node 3 (see the
        // GreedyNaive test of the same name).
        assert_eq!(p.select(&ctx), NodeId::new(3));
    }

    #[test]
    fn vehicle_distribution_queries_maxima_first() {
        // Fig. 1 weights: vehicle 4%, car 2%, honda 4%, nissan 8%,
        // mercedes 2%, maxima 40%, sentra 40%. The balanced first query is
        // one of the two 40% leaves (smallest id wins the tie): maxima.
        let g = fig2a();
        let w = NodeWeights::from_masses(vec![0.04, 0.02, 0.04, 0.08, 0.02, 0.40, 0.40]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        p.reset(&ctx);
        let q = p.select(&ctx);
        assert!(
            q == NodeId::new(5) || q == NodeId::new(3),
            "expected a 0.48/0.40 split query, got {q}"
        );
    }

    #[test]
    fn incremental_weights_track_eliminations() {
        let g = fig2a();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        p.reset(&ctx);
        let before_root_size = p.size[0];
        p.observe(&ctx, NodeId::new(3), false); // eliminate subtree {3,5,6}
        assert_eq!(p.size[0], before_root_size - 3);
        assert!((p.wp[0] - 4.0 / 7.0).abs() < 1e-12);
        assert!(p.detached[3]);
        p.unobserve(&ctx);
        assert_eq!(p.size[0], before_root_size);
        assert!((p.wp[0] - 1.0).abs() < 1e-12);
        assert!(!p.detached[3]);
    }

    #[test]
    fn zero_mass_candidates_fall_back_to_size_splitting() {
        // All probability on the root: once *any* no-answer eliminates mass…
        // actually the root keeps all mass, so drive a zero-probability
        // target and check the search stays short (size-balanced).
        let g = fig2a();
        let w = NodeWeights::from_masses(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        for z in g.nodes() {
            let (found, queries) = drive(&mut p, &ctx, z);
            assert_eq!(found, z);
            assert!(queries <= 5, "target {z} took {queries} queries");
        }
    }

    #[test]
    #[should_panic(expected = "requires a tree")]
    fn rejects_dags() {
        let g = dag_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let w = NodeWeights::uniform(4);
        let ctx = SearchContext::new(&g, &w);
        GreedyTreePolicy::new().reset(&ctx);
    }

    #[test]
    fn degenerate_distributions_never_panic_the_heap_sort() {
        // Regression for the `partial_cmp(..).unwrap()` in the lazy-heap
        // child ordering: zero-mass regions produce walls of exact 0.0 ties
        // (the NaN-adjacent corner of `total_cmp`), and every select must
        // stay deterministic and panic-free in both variants — including
        // after undo traffic, which rebuilds heaps along the repaired path.
        let g = dag_from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 5),
                (2, 6),
                (5, 7),
                (5, 8),
            ],
        )
        .unwrap();
        let degenerate = [
            NodeWeights::from_masses(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap(),
            NodeWeights::from_masses(vec![0.0, 0.0, 0.0, 0.0, 1e-300, 0.0, 0.0, 0.0, 0.0]).unwrap(),
        ];
        for w in &degenerate {
            let ctx = SearchContext::new(&g, w);
            for z in g.nodes() {
                let mut scan = GreedyTreePolicy::with_child_select(ChildSelect::Scan);
                let mut heap = GreedyTreePolicy::with_child_select(ChildSelect::Heap);
                scan.reset(&ctx);
                heap.reset(&ctx);
                let mut steps = 0;
                while scan.resolved().is_none() {
                    let qs = scan.select(&ctx);
                    let qh = heap.select(&ctx);
                    assert_eq!(qs, qh, "target {z}");
                    let ans = g.reaches(qs, z);
                    scan.observe(&ctx, qs, ans);
                    heap.observe(&ctx, qh, ans);
                    // Exercise the undo → heap-rebuild path too.
                    heap.unobserve(&ctx);
                    heap.observe(&ctx, qh, ans);
                    steps += 1;
                    assert!(steps < 50);
                }
                assert_eq!(scan.resolved(), Some(z));
                assert_eq!(heap.resolved(), Some(z));
            }
        }
    }

    #[test]
    fn overflowing_masses_are_rejected_not_normalised_to_zero() {
        // Two finite masses whose sum overflows to +inf used to normalise
        // into an all-zero distribution (the degenerate-weights source the
        // NaN hardening guards against); construction now refuses.
        assert!(NodeWeights::from_masses(vec![1e308, 1e308, 1.0]).is_err());
    }

    #[test]
    fn heap_and_scan_agree_on_query_sequences() {
        let g = fig2a();
        let w = NodeWeights::from_masses(vec![0.1, 0.05, 0.2, 0.15, 0.1, 0.25, 0.15]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        for z in g.nodes() {
            let mut scan = GreedyTreePolicy::with_child_select(ChildSelect::Scan);
            let mut heap = GreedyTreePolicy::with_child_select(ChildSelect::Heap);
            scan.reset(&ctx);
            heap.reset(&ctx);
            loop {
                match (scan.resolved(), heap.resolved()) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a, b);
                        break;
                    }
                    (None, None) => {}
                    other => panic!("variants diverged: {other:?}"),
                }
                let qs = scan.select(&ctx);
                let qh = heap.select(&ctx);
                assert_eq!(qs, qh, "target {z}");
                let ans = g.reaches(qs, z);
                scan.observe(&ctx, qs, ans);
                heap.observe(&ctx, qh, ans);
            }
        }
    }
}
