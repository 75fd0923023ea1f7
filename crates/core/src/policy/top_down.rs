//! The `TopDown` baseline (Section I of the paper).
//!
//! Starting at the root, query the current node's children one by one until
//! a *yes* descends the search, or every child answered *no* — in which case
//! the current node is the target. The policy is distribution-agnostic
//! except for the optional child ordering.

use std::collections::HashMap;

use aigs_graph::{NodeId, Tree};

use crate::{Policy, SearchContext};

/// In which order a node's children are probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChildOrder {
    /// Hierarchy insertion order — the plain `TopDown` of the paper.
    #[default]
    Input,
    /// Decreasing subgraph size `|G_c|` — the static ordering `MIGS`
    /// presents its multiple-choice answers in.
    SubtreeSizeDesc,
    /// Decreasing subgraph probability `p(G_c)` — a distribution-aware
    /// variant used in ablations.
    SubtreeWeightDesc,
}

/// Top-down descent policy.
///
/// The default `Input` ordering reads children straight out of the
/// hierarchy's CSR arrays — no per-node map, no allocation at all. The
/// metric orderings cache their sorted child arrays across sessions under a
/// stable [`crate::SearchContext::cache_token`].
#[derive(Debug, Clone)]
pub struct TopDownPolicy {
    name: &'static str,
    order: ChildOrder,
    /// Current node of the descent.
    node: NodeId,
    /// Next child position to probe at `node`.
    idx: usize,
    /// Ordered children of each visited node, computed lazily (unused for
    /// `ChildOrder::Input`).
    ordered: HashMap<NodeId, Vec<NodeId>>,
    /// Subtree metric per node when the hierarchy is a tree (computed once
    /// per instance); on DAGs metrics are computed lazily per child.
    tree_metric: Option<Vec<f64>>,
    lazy_metric: HashMap<NodeId, f64>,
    /// Token the ordering caches were derived under.
    base_token: u64,
    /// The descent path: `(node, idx)` before each *yes*. A *no* only
    /// advances `idx`, so `unobserve` undoes it as `idx - 1`, and
    /// `idx == 0` means the last answer was a *yes* to pop. The log grows
    /// with the depth, not the answer count: 8 bytes a level. The longest
    /// `amazon_like` Small session (337 answers) holds 128 bytes of it,
    /// where an entry per answer held 4 096.
    undo: Vec<(NodeId, u32)>,
    resolved: Option<NodeId>,
    started: bool,
}

impl TopDownPolicy {
    /// Plain `TopDown` with insertion-order children.
    pub fn new() -> Self {
        Self::with_order(ChildOrder::Input)
    }

    /// `TopDown` with an explicit child ordering.
    pub fn with_order(order: ChildOrder) -> Self {
        TopDownPolicy {
            name: "top-down",
            order,
            node: NodeId::SENTINEL,
            idx: 0,
            ordered: HashMap::new(),
            tree_metric: None,
            lazy_metric: HashMap::new(),
            base_token: 0,
            undo: Vec::new(),
            resolved: None,
            started: false,
        }
    }

    fn metric(&mut self, ctx: &SearchContext<'_>, c: NodeId) -> f64 {
        if let Some(m) = &self.tree_metric {
            return m[c.index()];
        }
        if let Some(&m) = self.lazy_metric.get(&c) {
            return m;
        }
        let m = match self.order {
            ChildOrder::Input => 0.0,
            // `ctx.closure()` is the word-level fast path of a
            // closure-backed `ReachIndex`; other backends fall back to a
            // BFS. Counts are integers and the weight sum visits nodes in
            // ascending id order on both paths, so the metric — and the
            // resulting child order — is identical across backends.
            ChildOrder::SubtreeSizeDesc => match ctx.closure() {
                Some(cl) => cl.descendants(c).count() as f64,
                None => ctx.dag.descendants(c).len() as f64,
            },
            ChildOrder::SubtreeWeightDesc => {
                let w = ctx.weights.as_slice();
                match ctx.closure() {
                    Some(cl) => cl.descendants(c).iter().map(|u| w[u.index()]).sum(),
                    None => {
                        // Sum in ascending id order (the closure row's
                        // order): float addition is order-sensitive, and the
                        // metric must not depend on the backend.
                        let mut desc = ctx.dag.descendants(c);
                        desc.sort_unstable();
                        desc.iter().map(|u| w[u.index()]).sum()
                    }
                }
            }
        };
        self.lazy_metric.insert(c, m);
        m
    }

    fn ordered_children<'s>(&'s mut self, ctx: &SearchContext<'s>, u: NodeId) -> &'s [NodeId] {
        if self.order == ChildOrder::Input {
            // Plain TopDown probes in hierarchy order: read the CSR slice
            // directly, no map and no allocation.
            return ctx.dag.children(u);
        }
        if !self.ordered.contains_key(&u) {
            let mut keyed: Vec<(f64, NodeId)> = ctx
                .dag
                .children(u)
                .iter()
                .map(|&c| (self.metric(ctx, c), c))
                .collect();
            // Descending metric, ties towards smaller id for determinism.
            // `total_cmp` keeps the sort total even if a degenerate weight
            // vector ever produced a NaN metric (a NaN sorts as "heaviest"
            // instead of panicking mid-session).
            keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let kids: Vec<NodeId> = keyed.into_iter().map(|(_, c)| c).collect();
            self.ordered.insert(u, kids);
        }
        &self.ordered[&u]
    }

    fn refresh_resolution(&mut self, ctx: &SearchContext<'_>) {
        let kids = ctx.dag.children(self.node).len();
        self.resolved = if self.idx >= kids {
            Some(self.node)
        } else {
            None
        };
    }
}

impl Default for TopDownPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for TopDownPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&mut self, ctx: &SearchContext<'_>) {
        self.node = ctx.dag.root();
        self.idx = 0;
        self.undo.clear();
        self.started = true;
        // The ordering caches depend only on (dag, weights): keep them
        // across sessions when the cache token certifies the same instance.
        let cached = self.order != ChildOrder::Input
            && ctx.cache_token != 0
            && self.base_token == ctx.cache_token;
        if !cached {
            self.ordered.clear();
            self.lazy_metric.clear();
            self.tree_metric = match self.order {
                ChildOrder::Input => None,
                _ if ctx.dag.is_tree() => {
                    let tree = Tree::new(ctx.dag).expect("is_tree checked");
                    Some(match self.order {
                        ChildOrder::SubtreeSizeDesc => (0..ctx.dag.node_count())
                            .map(|i| tree.subtree_size(NodeId::new(i)) as f64)
                            .collect(),
                        ChildOrder::SubtreeWeightDesc => {
                            tree.subtree_weights(ctx.weights.as_slice())
                        }
                        ChildOrder::Input => unreachable!(),
                    })
                }
                _ => None,
            };
            self.base_token = ctx.cache_token;
        }
        self.refresh_resolution(ctx);
    }

    fn resolved(&self) -> Option<NodeId> {
        self.resolved
    }

    fn select(&mut self, ctx: &SearchContext<'_>) -> NodeId {
        debug_assert!(self.resolved.is_none(), "select() after resolution");
        let u = self.node;
        let idx = self.idx;
        self.ordered_children(ctx, u)[idx]
    }

    fn observe(&mut self, ctx: &SearchContext<'_>, q: NodeId, yes: bool) {
        let (node, idx) = (self.node, self.idx);
        debug_assert_eq!(
            q,
            self.ordered_children(ctx, node)[idx],
            "observe() must follow select()"
        );
        if yes {
            let idx = u32::try_from(idx).expect("child position fits u32");
            self.undo.push((node, idx));
            self.node = q;
            self.idx = 0;
        } else {
            self.idx += 1;
        }
        self.refresh_resolution(ctx);
    }

    fn unobserve(&mut self, ctx: &SearchContext<'_>) {
        if self.idx > 0 {
            self.idx -= 1;
        } else {
            let (node, idx) = self.undo.pop().expect("nothing to unobserve");
            self.node = node;
            self.idx = idx as usize;
        }
        self.refresh_resolution(ctx);
    }

    fn clone_box(&self) -> Box<dyn Policy + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeWeights, QueryCosts};
    use aigs_graph::dag_from_edges;

    fn vehicle() -> aigs_graph::Dag {
        // Fig. 2(a): 0 -> 1; 1 -> {2, 3, 4}; 3 -> {5, 6}
        dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap()
    }

    fn drive(policy: &mut dyn Policy, ctx: &SearchContext<'_>, target: NodeId) -> (NodeId, u32) {
        policy.reset(ctx);
        let mut queries = 0;
        loop {
            if let Some(t) = policy.resolved() {
                return (t, queries);
            }
            let q = policy.select(ctx);
            let yes = ctx.dag.reaches(q, target);
            queries += 1;
            policy.observe(ctx, q, yes);
            assert!(queries < 100, "runaway");
        }
    }

    #[test]
    fn finds_every_target() {
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let costs = QueryCosts::Uniform;
        let ctx = SearchContext::new(&g, &w).with_costs(&costs);
        let mut p = TopDownPolicy::new();
        for z in g.nodes() {
            let (found, _) = drive(&mut p, &ctx, z);
            assert_eq!(found, z);
        }
    }

    #[test]
    fn query_counts_match_paper_intro_example() {
        // Paper, Section I: with Sentra (node 6 here) as target, TopDown asks
        // car (yes), honda (no)… — in *input* order: car, honda, nissan,
        // maxima, sentra. Children of 1 in input order: 2 (honda), 3
        // (nissan), 4 (mercedes). Path: q(1)=yes, q(2)=no, q(3)=yes,
        // q(5)=no, q(6)=yes → 5 queries, then node 6's zero children resolve.
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = TopDownPolicy::new();
        let (found, queries) = drive(&mut p, &ctx, NodeId::new(6));
        assert_eq!(found, NodeId::new(6));
        assert_eq!(queries, 5);
    }

    #[test]
    fn root_target_costs_its_degree() {
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = TopDownPolicy::new();
        let (found, queries) = drive(&mut p, &ctx, g.root());
        assert_eq!(found, g.root());
        assert_eq!(queries, 1, "root has one child, answered no");
    }

    #[test]
    fn size_order_probes_heavy_child_first() {
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = TopDownPolicy::with_order(ChildOrder::SubtreeSizeDesc);
        p.reset(&ctx);
        // At root the only child is 1; descend.
        assert_eq!(p.select(&ctx), NodeId::new(1));
        p.observe(&ctx, NodeId::new(1), true);
        // Children of 1 ordered by size: 3 (size 3) before 2 and 4 (size 1).
        assert_eq!(p.select(&ctx), NodeId::new(3));
    }

    #[test]
    fn weight_order_probes_heavy_mass_first() {
        let g = vehicle();
        let w = NodeWeights::from_masses(vec![0.0, 0.0, 0.9, 0.05, 0.05, 0.0, 0.0]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut p = TopDownPolicy::with_order(ChildOrder::SubtreeWeightDesc);
        p.reset(&ctx);
        let q = p.select(&ctx); // descend to 1
        p.observe(&ctx, q, true);
        assert_eq!(p.select(&ctx), NodeId::new(2), "honda carries 0.9 mass");
    }

    #[test]
    fn works_on_dags() {
        let g = dag_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let w = NodeWeights::uniform(5);
        let ctx = SearchContext::new(&g, &w);
        for order in [
            ChildOrder::Input,
            ChildOrder::SubtreeSizeDesc,
            ChildOrder::SubtreeWeightDesc,
        ] {
            let mut p = TopDownPolicy::with_order(order);
            for z in g.nodes() {
                let (found, _) = drive(&mut p, &ctx, z);
                assert_eq!(found, z, "order {order:?}");
            }
        }
    }

    #[test]
    fn degenerate_distributions_keep_metric_orders_deterministic() {
        // Regression for the `partial_cmp(..).unwrap()` child sort: a
        // zero-mass-everywhere-but-one distribution makes every subtree
        // metric an exact 0.0 tie (the NaN-adjacent corner `total_cmp`
        // hardens), and the metric orderings must neither panic nor become
        // order-unstable — ties must resolve to ascending ids.
        let g = vehicle();
        let w = NodeWeights::from_masses(vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-300]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        for order in [ChildOrder::SubtreeSizeDesc, ChildOrder::SubtreeWeightDesc] {
            let mut p = TopDownPolicy::with_order(order);
            for z in g.nodes() {
                let (found, _) = drive(&mut p, &ctx, z);
                assert_eq!(found, z, "order {order:?}");
            }
            // All-tied children of node 1 under weight order: 2 then 3 then
            // 4 — except node 6's mass pulls subtree {3,5,6} first.
            p.reset(&ctx);
            let q = p.select(&ctx);
            p.observe(&ctx, q, true);
            if order == ChildOrder::SubtreeWeightDesc {
                assert_eq!(p.select(&ctx), NodeId::new(3), "mass-bearing subtree first");
                p.observe(&ctx, NodeId::new(3), false);
                assert_eq!(p.select(&ctx), NodeId::new(2), "0.0 ties in id order");
            }
        }
    }

    #[test]
    fn undo_holds_only_the_descent_path() {
        // A star: its last leaf costs one `no` per earlier child, then one
        // `yes`; only the `yes` is logged.
        let n = 1000;
        let edges: Vec<(u32, u32)> = (1..n).map(|c| (0, c)).collect();
        let g = dag_from_edges(n as usize, &edges).unwrap();
        let w = NodeWeights::uniform(n as usize);
        let ctx = SearchContext::new(&g, &w);
        let target = NodeId::new(n as usize - 1);
        let mut p = TopDownPolicy::new();
        p.reset(&ctx);
        while p.resolved().is_none() {
            let q = p.select(&ctx);
            p.observe(&ctx, q, q == target);
        }
        assert_eq!(p.resolved(), Some(target));
        assert_eq!(p.undo, vec![(g.root(), n - 2)]);
        // Undoing the `yes` pops the path; the `no`s before it unwind
        // through `idx` alone.
        p.unobserve(&ctx);
        assert!(p.undo.is_empty());
        assert_eq!(p.select(&ctx), target);
        for _ in 0..n - 2 {
            p.unobserve(&ctx);
        }
        assert_eq!((p.node, p.idx), (g.root(), 0));
    }

    #[test]
    fn unobserve_restores_state() {
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = TopDownPolicy::new();
        p.reset(&ctx);
        let q0 = p.select(&ctx);
        p.observe(&ctx, q0, true);
        let q1 = p.select(&ctx);
        p.observe(&ctx, q1, false);
        let q2_after_no = p.select(&ctx);
        p.unobserve(&ctx);
        assert_eq!(p.select(&ctx), q1, "undo returns to the same query");
        p.observe(&ctx, q1, false);
        assert_eq!(p.select(&ctx), q2_after_no);
    }
}
