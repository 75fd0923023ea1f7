//! `WIGS` — the worst-case interactive graph search baseline
//! (Tao et al., *Interactive graph search*, SIGMOD 2019).
//!
//! WIGS minimises the *maximum* number of queries over targets and is
//! distribution-agnostic. The technique is heavy-path binary search: extract
//! the (size-)heavy path from the current root, binary-search for the
//! deepest path node that still answers *yes* (reachability is monotone
//! along a downward chain), then recurse from that node with its heavy
//! child's subtree eliminated. Every iteration either eliminates the heavy
//! subtree or descends past it, so the candidate set shrinks geometrically
//! in the tree case.
//!
//! On DAGs the same chain/binary-search skeleton runs over exact candidate
//! bitsets: the chain steps to the child carrying the most alive candidates
//! (`|G_c ∩ alive|`), and answers intersect/subtract the descendant row
//! `G_q` so DAG semantics stay exact. Both operations go through the
//! pluggable [`ReachIndex`] backend: closure rows give the O(n/64) word
//! fast path, the GRAIL interval tier and plain BFS derive the *identical*
//! row by DFS — so the journalled candidate words (and hence the whole
//! query transcript) are bit-equal across backends, at sizes where the
//! quadratic closure cannot even allocate.

use std::sync::Arc;

use aigs_graph::{NodeBitSet, NodeId, ReachIndex, Tree};

use crate::policy::scratch::with_scratch;
use crate::policy::StepJournal;
use crate::{InstanceCache, Policy, SearchContext};

/// Heavy-path binary search policy (worst-case oriented baseline).
///
/// Undo is delta-journalled in both modes: tree mode logs only the repaired
/// ancestor sizes and the detached flip, DAG mode logs only the *words* of
/// the candidate bitset an answer actually changed
/// ([`NodeBitSet::set_word`]/[`NodeBitSet::restore_word`]) — no O(n) chain
/// or bitset clones per query. Chains are journalled at rebuild granularity:
/// a `select` that re-extracts the heavy chain stashes the old chain into
/// the *next* step's spill area, so the common binary-search steps carry no
/// chain copy at all.
#[derive(Debug, Clone, Default)]
pub struct WigsPolicy {
    mode: Mode,
    /// Reachability backend built by the policy itself when the context
    /// does not share one — [`ReachIndex::auto`] picks closure vs interval
    /// by size (kept across resets under a matching cache token, and
    /// shared by every clone).
    own_index: InstanceCache<Arc<ReachIndex>>,
    /// Token the current mode state was derived under (journal-unwind reset).
    base_token: u64,
}

#[derive(Debug, Clone, Default)]
enum Mode {
    #[default]
    Unset,
    Tree(TreeState),
    Dag(DagState),
}

/// Per-step scalar payload shared by both modes.
#[derive(Debug, Clone, Copy)]
struct WigsStep {
    prev_root: NodeId,
    prev_lo: u32,
    prev_hi: u32,
    prev_active: bool,
    /// DAG mode: candidate count before the step (unused in tree mode).
    prev_count: u32,
    /// Whether a `select` *after* this observe rebuilt the chain; the
    /// pre-rebuild chain then sits in this step's spill area and undo
    /// restores it (set post-hoc via [`StepJournal::last_payload_mut`]).
    chain_spilled: bool,
}

// ---------------------------------------------------------------- tree mode

#[derive(Debug, Clone)]
struct TreeState {
    parent: Vec<NodeId>,
    size: Vec<u32>,
    detached: Vec<bool>,
    root: NodeId,
    chain: Vec<NodeId>,
    lo: usize,
    hi: usize,
    active: bool,
    journal: StepJournal<WigsStep>,
}

impl TreeState {
    fn new(ctx: &SearchContext<'_>) -> Self {
        let tree = Tree::new(ctx.dag).expect("tree mode requires a tree");
        let n = ctx.dag.node_count();
        TreeState {
            parent: (0..n).map(|i| tree.parent(NodeId::new(i))).collect(),
            size: (0..n).map(|i| tree.subtree_size(NodeId::new(i))).collect(),
            detached: vec![false; n],
            root: ctx.dag.root(),
            chain: Vec::new(),
            lo: 0,
            hi: 0,
            active: false,
            journal: StepJournal::new(),
        }
    }

    fn heavy_child(&self, ctx: &SearchContext<'_>, v: NodeId) -> Option<NodeId> {
        let mut best: Option<(u32, NodeId)> = None;
        for &c in ctx.dag.children(v) {
            if self.detached[c.index()] {
                continue;
            }
            let s = self.size[c.index()];
            match best {
                None => best = Some((s, c)),
                Some((bs, bc)) => {
                    if s > bs || (s == bs && c < bc) {
                        best = Some((s, c));
                    }
                }
            }
        }
        best.map(|(_, c)| c)
    }

    fn ensure_chain(&mut self, ctx: &SearchContext<'_>) {
        if self.active {
            return;
        }
        // This rebuild clobbers the chain the *previous* observe's undo must
        // come back to, so spill it into that step (the journal top). After
        // a reset the journal is empty and nothing can unwind past here.
        if let Some(step) = self.journal.last_payload_mut() {
            debug_assert!(!step.chain_spilled, "at most one rebuild per step");
            step.chain_spilled = true;
            let chain = std::mem::take(&mut self.chain);
            self.journal.spill_nodes(&chain);
            self.chain = chain;
        }
        self.chain.clear();
        self.chain.push(self.root);
        let mut u = self.root;
        while let Some(c) = self.heavy_child(ctx, u) {
            self.chain.push(c);
            u = c;
        }
        debug_assert!(self.chain.len() >= 2, "unresolved root has a child");
        self.lo = 0;
        self.hi = self.chain.len() - 1;
        self.active = true;
    }

    fn mid(&self) -> usize {
        (self.lo + self.hi).div_ceil(2)
    }

    fn observe(&mut self, q: NodeId, yes: bool) {
        debug_assert!(self.active && q == self.chain[self.mid()]);
        let mid = self.mid();
        self.journal.begin(WigsStep {
            prev_root: self.root,
            prev_lo: self.lo as u32,
            prev_hi: self.hi as u32,
            prev_active: self.active,
            prev_count: 0,
            chain_spilled: false,
        });
        if yes {
            self.root = q;
            self.lo = mid;
        } else {
            let ds = self.size[q.index()];
            let mut x = self.parent[q.index()];
            loop {
                debug_assert!(!x.is_sentinel());
                self.journal.log_u32(x.index(), self.size[x.index()]);
                self.size[x.index()] -= ds;
                if x == self.root {
                    break;
                }
                x = self.parent[x.index()];
            }
            self.journal.log_flip(q.index());
            self.detached[q.index()] = true;
            self.hi = mid - 1;
        }
        if self.lo >= self.hi {
            self.active = false;
        }
    }

    /// Undoes one step; returns `false` on an empty journal.
    fn unwind_one(&mut self) -> bool {
        let size = &mut self.size;
        let detached = &mut self.detached;
        let chain = &mut self.chain;
        let Some(step) = self.journal.pop_with(
            |_, _| unreachable!("tree mode logs no u64 entries"),
            |slot, old| size[slot] = old,
            |slot| detached[slot] = !detached[slot],
            |_, _| unreachable!("tree mode logs no words"),
            |spill| {
                // Non-empty spill = a later select rebuilt the chain; put
                // the pre-rebuild chain back.
                if !spill.is_empty() {
                    chain.clear();
                    chain.extend(spill.iter().map(|&v| NodeId(v)));
                }
            },
        ) else {
            return false;
        };
        debug_assert!(!step.chain_spilled || !chain.is_empty());
        self.root = step.prev_root;
        self.lo = step.prev_lo as usize;
        self.hi = step.prev_hi as usize;
        self.active = step.prev_active;
        true
    }

    fn unobserve(&mut self) {
        assert!(self.unwind_one(), "nothing to unobserve");
    }
}

// ----------------------------------------------------------------- DAG mode

#[derive(Debug, Clone)]
struct DagState {
    alive: NodeBitSet,
    count: usize,
    root: NodeId,
    chain: Vec<NodeId>,
    lo: usize,
    hi: usize,
    active: bool,
    journal: StepJournal<WigsStep>,
}

impl DagState {
    fn new(ctx: &SearchContext<'_>) -> Self {
        let n = ctx.dag.node_count();
        DagState {
            alive: NodeBitSet::full(n),
            count: n,
            root: ctx.dag.root(),
            chain: Vec::new(),
            lo: 0,
            hi: 0,
            active: false,
            journal: StepJournal::new(),
        }
    }

    fn ensure_chain(&mut self, ctx: &SearchContext<'_>, index: &ReachIndex) {
        if self.active {
            return;
        }
        // See `TreeState::ensure_chain`: the clobbered chain belongs to the
        // journal's top step.
        if let Some(step) = self.journal.last_payload_mut() {
            debug_assert!(!step.chain_spilled, "at most one rebuild per step");
            step.chain_spilled = true;
            let chain = std::mem::take(&mut self.chain);
            self.journal.spill_nodes(&chain);
            self.chain = chain;
        }
        self.chain.clear();
        self.chain.push(self.root);
        let mut u = self.root;
        with_scratch(|s| loop {
            let mut best: Option<(usize, NodeId)> = None;
            for &c in ctx.dag.children(u) {
                let carried = index.intersection_count(ctx.dag, c, &self.alive, &mut s.reach);
                if carried == 0 {
                    continue;
                }
                match best {
                    None => best = Some((carried, c)),
                    Some((bs, bc)) => {
                        if carried > bs || (carried == bs && c < bc) {
                            best = Some((carried, c));
                        }
                    }
                }
            }
            match best {
                Some((_, c)) => {
                    self.chain.push(c);
                    u = c;
                }
                None => break,
            }
        });
        debug_assert!(
            self.chain.len() >= 2,
            "unresolved root carries candidates below"
        );
        self.lo = 0;
        self.hi = self.chain.len() - 1;
        self.active = true;
    }

    fn mid(&self) -> usize {
        (self.lo + self.hi).div_ceil(2)
    }

    fn observe(&mut self, dag: &aigs_graph::Dag, index: &ReachIndex, q: NodeId, yes: bool) {
        debug_assert!(self.active && q == self.chain[self.mid()]);
        let mid = self.mid();
        self.journal.begin(WigsStep {
            prev_root: self.root,
            prev_lo: self.lo as u32,
            prev_hi: self.hi as u32,
            prev_active: self.active,
            prev_count: self.count as u32,
            chain_spilled: false,
        });
        // Word-granular candidate update: journal only the blocks the answer
        // changes instead of cloning the whole bitset. The closure backend
        // hands out its stored row; interval/BFS backends derive the same
        // row by DFS into the thread's scratch — either way `gq` is
        // identical, so the journalled `(word, old)` deltas are bit-equal
        // across backends.
        let alive = &mut self.alive;
        let journal = &mut self.journal;
        let killed = with_scratch(|s| {
            let gq = index.descendants(dag, q, &mut s.reach);
            let mut killed = 0u32;
            for i in 0..alive.word_count() {
                let old = alive.word(i);
                let new = if yes {
                    old & gq.word(i) // keep G_q
                } else {
                    old & !gq.word(i) // drop G_q
                };
                if new != old {
                    journal.log_word(i, old);
                    alive.set_word(i, new);
                    killed += (old ^ new).count_ones();
                }
            }
            killed
        });
        self.count -= killed as usize;
        if yes {
            self.root = q;
            self.lo = mid;
        } else {
            self.hi = mid - 1;
        }
        if self.lo >= self.hi {
            self.active = false;
        }
    }

    /// Undoes one step; returns `false` on an empty journal.
    fn unwind_one(&mut self) -> bool {
        let alive = &mut self.alive;
        let chain = &mut self.chain;
        let Some(step) = self.journal.pop_with(
            |_, _| unreachable!("dag mode logs no u64 entries"),
            |_, _| unreachable!("dag mode logs no u32 entries"),
            |_| unreachable!("dag mode logs no flips"),
            |word, old| alive.restore_word(word, old),
            |spill| {
                if !spill.is_empty() {
                    chain.clear();
                    chain.extend(spill.iter().map(|&v| NodeId(v)));
                }
            },
        ) else {
            return false;
        };
        debug_assert!(!step.chain_spilled || !chain.is_empty());
        self.count = step.prev_count as usize;
        self.root = step.prev_root;
        self.lo = step.prev_lo as usize;
        self.hi = step.prev_hi as usize;
        self.active = step.prev_active;
        true
    }

    fn unobserve(&mut self) {
        assert!(self.unwind_one(), "nothing to unobserve");
    }

    fn resolved(&self) -> Option<NodeId> {
        if self.count == 1 {
            self.alive.sole_member()
        } else {
            None
        }
    }
}

// -------------------------------------------------------------- policy impl

impl WigsPolicy {
    /// New, un-reset policy.
    pub fn new() -> Self {
        WigsPolicy::default()
    }
}

/// Resolves the reachability backend to use: the context's shared one, or
/// the policy's own auto-selected index built at reset. Free function over
/// the `own_index` field so the borrow checker can split it from a
/// simultaneous `&mut mode` borrow.
fn pick_index<'s>(
    ctx_reach: Option<&'s ReachIndex>,
    own: &'s InstanceCache<Arc<ReachIndex>>,
) -> &'s ReachIndex {
    match ctx_reach {
        Some(c) => c,
        None => own
            .current()
            .expect("reset() builds a reach index when the context lacks one"),
    }
}

impl Policy for WigsPolicy {
    fn name(&self) -> &'static str {
        "wigs"
    }

    fn reset(&mut self, ctx: &SearchContext<'_>) {
        let n = ctx.dag.node_count();
        let reusable = ctx.cache_token != 0 && self.base_token == ctx.cache_token;
        if ctx.dag.is_tree() {
            if reusable {
                if let Mode::Tree(t) = &mut self.mode {
                    if t.size.len() == n {
                        // Unwind the previous session's deltas instead of
                        // rebuilding the Euler view: O(Δ) per reset. A full
                        // unwind lands on the exact pre-first-observe state.
                        while t.unwind_one() {}
                        return;
                    }
                }
            }
            self.mode = Mode::Tree(TreeState::new(ctx));
            self.base_token = ctx.cache_token;
            return;
        }
        if ctx.reach.is_none() {
            self.own_index
                .get_or_insert_with(ctx.cache_token, || Arc::new(ReachIndex::auto(ctx.dag)));
        }
        if reusable {
            if let Mode::Dag(d) = &mut self.mode {
                if d.alive.universe() == n {
                    while d.unwind_one() {}
                    return;
                }
            }
        }
        self.mode = Mode::Dag(DagState::new(ctx));
        self.base_token = ctx.cache_token;
    }

    fn resolved(&self) -> Option<NodeId> {
        match &self.mode {
            Mode::Unset => None,
            Mode::Tree(t) => {
                if t.size[t.root.index()] == 1 {
                    Some(t.root)
                } else {
                    None
                }
            }
            Mode::Dag(d) => d.resolved(),
        }
    }

    fn select(&mut self, ctx: &SearchContext<'_>) -> NodeId {
        debug_assert!(self.resolved().is_none());
        match &mut self.mode {
            Mode::Unset => panic!("select() before reset()"),
            Mode::Tree(t) => {
                t.ensure_chain(ctx);
                t.chain[t.mid()]
            }
            Mode::Dag(d) => {
                let index = pick_index(ctx.reach, &self.own_index);
                d.ensure_chain(ctx, index);
                d.chain[d.mid()]
            }
        }
    }

    fn observe(&mut self, ctx: &SearchContext<'_>, q: NodeId, yes: bool) {
        match &mut self.mode {
            Mode::Unset => panic!("observe() before reset()"),
            Mode::Tree(t) => t.observe(q, yes),
            Mode::Dag(d) => {
                let index = pick_index(ctx.reach, &self.own_index);
                d.observe(ctx.dag, index, q, yes);
            }
        }
    }

    fn unobserve(&mut self, _ctx: &SearchContext<'_>) {
        match &mut self.mode {
            Mode::Unset => panic!("unobserve() before reset()"),
            Mode::Tree(t) => t.unobserve(),
            Mode::Dag(d) => d.unobserve(),
        }
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
    use aigs_graph::generate::path_graph;

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
            assert!(queries < 500);
        }
    }

    #[test]
    fn binary_search_on_a_path_is_logarithmic() {
        let g = path_graph(64);
        let w = NodeWeights::uniform(64);
        let ctx = SearchContext::new(&g, &w);
        let mut p = WigsPolicy::new();
        for z in g.nodes() {
            let (found, queries) = drive(&mut p, &ctx, z);
            assert_eq!(found, z);
            assert!(queries <= 7, "path search took {queries} > log2(64)+1");
        }
    }

    #[test]
    fn finds_all_targets_on_tree() {
        let g = dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = WigsPolicy::new();
        for z in g.nodes() {
            assert_eq!(drive(&mut p, &ctx, z).0, z);
        }
    }

    #[test]
    fn finds_all_targets_on_dag_under_every_backend() {
        let g = dag_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)]).unwrap();
        let w = NodeWeights::uniform(6);
        let backends = [
            Some(aigs_graph::ReachIndex::closure_for(&g)),
            Some(aigs_graph::ReachIndex::interval_for(&g, 2, 3)),
            Some(aigs_graph::ReachIndex::Bfs),
            None, // policy builds its own auto index
        ];
        for backend in &backends {
            let base = SearchContext::new(&g, &w);
            let ctx = match backend {
                Some(ix) => base.with_reach(ix),
                None => base,
            };
            let mut p = WigsPolicy::new();
            for z in g.nodes() {
                assert_eq!(drive(&mut p, &ctx, z).0, z);
            }
        }
    }

    #[test]
    fn distribution_agnostic() {
        // WIGS ignores weights entirely: identical query sequences under
        // wildly different distributions.
        let g = dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap();
        let w1 = NodeWeights::uniform(7);
        let w2 = NodeWeights::from_masses(vec![0.9, 0.02, 0.02, 0.02, 0.02, 0.01, 0.01]).unwrap();
        for z in g.nodes() {
            let c1 = SearchContext::new(&g, &w1);
            let c2 = SearchContext::new(&g, &w2);
            let mut p1 = WigsPolicy::new();
            let mut p2 = WigsPolicy::new();
            assert_eq!(drive(&mut p1, &c1, z).1, drive(&mut p2, &c2, z).1);
        }
    }

    #[test]
    fn worst_case_is_chains_times_log_on_stars_of_chains() {
        // A root with 8 chains of length 8 (n = 65): the worst target (the
        // root) forces WIGS to refute every chain with a ⌈log₂ 9⌉-query
        // binary search — ~8·⌈log₂ 9⌉ ≈ 32 queries, far below the n − 1
        // a leaf-by-leaf policy would need on this shape.
        let mut edges = Vec::new();
        let mut next = 1u32;
        for _ in 0..8 {
            let mut prev = 0u32;
            for _ in 0..8 {
                edges.push((prev, next));
                prev = next;
                next += 1;
            }
        }
        let g = dag_from_edges(next as usize, &edges).unwrap();
        let w = NodeWeights::uniform(g.node_count());
        let ctx = SearchContext::new(&g, &w);
        let mut p = WigsPolicy::new();
        let mut worst = 0;
        for z in g.nodes() {
            let (found, q) = drive(&mut p, &ctx, z);
            assert_eq!(found, z);
            worst = worst.max(q);
        }
        assert!(worst <= 32, "worst case {worst} exceeds 8·⌈log₂ 9⌉");
        assert!(worst < g.node_count() as u32 / 2, "must beat linear scan");
    }

    #[test]
    fn undo_roundtrip_tree_and_dag() {
        for g in [
            dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap(),
            dag_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)]).unwrap(),
        ] {
            let w = NodeWeights::uniform(g.node_count());
            let ctx = SearchContext::new(&g, &w);
            let mut p = WigsPolicy::new();
            p.reset(&ctx);
            let q0 = p.select(&ctx);
            p.observe(&ctx, q0, false);
            let q1 = p.select(&ctx);
            p.unobserve(&ctx);
            assert_eq!(p.select(&ctx), q0);
            p.observe(&ctx, q0, false);
            assert_eq!(p.select(&ctx), q1);
        }
    }
}
