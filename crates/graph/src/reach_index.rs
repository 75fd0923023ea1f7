//! `ReachIndex` — the pluggable reachability backend behind DAG policies.
//!
//! The search policies need three reachability primitives over a [`Dag`]:
//! point queries `reach(u, v)`, the descendant row `G_u` as a bitset (the
//! candidate-set update of `FrameworkIGS`), and `|G_u ∩ S|` counts (heavy
//! chain extraction). Three backends cover the whole size spectrum:
//!
//! | backend | memory | `reach` | row / count |
//! |---|---|---|---|
//! | [`ReachClosure`] | n²/8 bytes | O(1) | O(n/64) row AND |
//! | [`IntervalIndex`] (GRAIL) | 2·k·4·n bytes | O(k) negative, pruned DFS positive | DFS over `G_u` |
//! | BFS (no index) | 0 | DFS | DFS over `G_u` |
//!
//! All three are **exact** — only the time/memory trade-off changes — so a
//! policy produces the *identical query transcript* under every backend
//! (the `u64` candidate words it derives are equal bit for bit; the
//! property-test suites assert this). The closure disqualifies itself
//! around 10⁵ nodes (~100 MB and growing quadratically), which is exactly
//! where the million-node scenarios live; [`ReachIndex::auto`] picks the
//! closure below [`AUTO_CLOSURE_MAX_NODES`] and the interval tier above.
//!
//! Set operations on the DFS backends need scratch buffers; callers hold a
//! [`ReachScratch`] (one per policy/session, reused across queries) so the
//! hot path stays allocation-free, matching the `StepJournal` discipline of
//! the policy layer.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Dag, IntervalIndex, NodeBitSet, NodeId, ReachClosure, VisitedSet};

/// Node-count threshold of [`ReachIndex::auto`]: at or below this size the
/// transitive closure is built (≤ n²/8 = 8 MiB of rows at the threshold),
/// above it the GRAIL interval index (O(k·n) memory) is used instead.
pub const AUTO_CLOSURE_MAX_NODES: usize = 8192;

/// Labelings `k` used by auto-built interval indexes: each extra labeling
/// refutes more negatives in O(1) at 8 bytes per node; 3 settles the vast
/// majority of non-reachable pairs on taxonomy-shaped DAGs.
pub const AUTO_INTERVAL_LABELINGS: usize = 3;

/// Seed for the randomised labelings of auto-built interval indexes, fixed
/// so that `auto` is deterministic for a given hierarchy.
const AUTO_INTERVAL_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// An exact reachability backend over a [`Dag`] (see the module docs for
/// the tier table). Policies receive one through
/// `SearchContext` and stay backend-agnostic; the closure variant is still
/// reachable via [`ReachIndex::as_closure`] for word-level fast paths.
#[derive(Debug, Clone)]
pub enum ReachIndex {
    /// Full transitive closure: O(1) queries, O(n/64) row ops, n²/8 bytes.
    Closure(ReachClosure),
    /// GRAIL interval labelings: O(k·n) memory, O(k) negative answers,
    /// pruned-DFS positives and set operations.
    Interval(IntervalIndex),
    /// No index at all: every operation traverses the graph.
    Bfs,
}

/// Reusable buffers for the DFS-based [`ReachIndex`] operations. One
/// instance per policy/session; every operation clears what it uses, so the
/// scratch carries no state between calls.
#[derive(Debug, Clone)]
pub struct ReachScratch {
    /// Descendant-row output (doubles as the DFS visited set when filling,
    /// and as the doomed-set mask in
    /// [`ReachIndex::doomed_contributions`]).
    row: NodeBitSet,
    /// Ancestors-of-the-query mask for the frontier repair's full-delta
    /// fast path.
    anc: NodeBitSet,
    /// Epoch-cleared visited set for counting traversals.
    visited: VisitedSet,
    /// DFS stack.
    stack: Vec<NodeId>,
    /// Affected-ancestor list of the most recent frontier repair.
    affected: Vec<NodeId>,
    /// Per-node weight accumulator for the traversal-backed frontier
    /// repair. Invariant: all-zero between calls (re-zeroed along
    /// `affected`, never by a full sweep).
    acc_weight: Vec<u64>,
    /// Per-node count accumulator; same all-zero invariant.
    acc_count: Vec<u32>,
}

impl ReachScratch {
    /// Scratch sized for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        ReachScratch {
            row: NodeBitSet::empty(n),
            anc: NodeBitSet::empty(n),
            visited: VisitedSet::new(n),
            stack: Vec::new(),
            affected: Vec::new(),
            acc_weight: vec![0; n],
            acc_count: vec![0; n],
        }
    }

    /// Number of node ids the buffers cover.
    pub fn universe(&self) -> usize {
        self.row.universe()
    }

    /// Re-sizes the buffers when the graph changed (no-op otherwise).
    fn ensure(&mut self, n: usize) {
        if self.row.universe() != n {
            self.row = NodeBitSet::empty(n);
            self.anc = NodeBitSet::empty(n);
            self.visited = VisitedSet::new(n);
            self.acc_weight = vec![0; n];
            self.acc_count = vec![0; n];
        }
    }
}

impl ReachIndex {
    /// Auto-selects a backend for `dag`: transitive closure at or below
    /// [`AUTO_CLOSURE_MAX_NODES`] nodes, GRAIL interval index above (with
    /// [`AUTO_INTERVAL_LABELINGS`] labelings and a fixed seed, so the choice
    /// is deterministic).
    pub fn auto(dag: &Dag) -> Self {
        if dag.node_count() <= AUTO_CLOSURE_MAX_NODES {
            Self::closure_for(dag)
        } else {
            Self::interval_for(dag, AUTO_INTERVAL_LABELINGS, AUTO_INTERVAL_SEED)
        }
    }

    /// Builds the closure backend for `dag`.
    pub fn closure_for(dag: &Dag) -> Self {
        ReachIndex::Closure(ReachClosure::build(dag))
    }

    /// Builds the interval backend for `dag` with `k` labelings randomised
    /// from `seed`.
    pub fn interval_for(dag: &Dag, k: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        ReachIndex::Interval(IntervalIndex::build(dag, k, &mut rng))
    }

    /// Stable backend identifier: `"closure"`, `"interval"` or `"bfs"`.
    pub fn backend_name(&self) -> &'static str {
        match self {
            ReachIndex::Closure(_) => "closure",
            ReachIndex::Interval(_) => "interval",
            ReachIndex::Bfs => "bfs",
        }
    }

    /// The closure rows, when this backend stores them — the O(n/64)
    /// word-level fast path some policies special-case.
    pub fn as_closure(&self) -> Option<&ReachClosure> {
        match self {
            ReachIndex::Closure(c) => Some(c),
            _ => None,
        }
    }

    /// The descendant mask `G_u` **when it is already materialised** —
    /// i.e. an O(1) handle to the closure backend's stored row, `None`
    /// otherwise. This is the gate for mask-filtered walks over candidate
    /// lists (e.g. the greedy-DAG re-root filter): with a stored row each
    /// membership test is one bit probe, so filtering an existing frontier
    /// is cheaper than re-running the pruned BFS that derived it; without
    /// one, materialising the mask would itself cost a DFS over `G_u`
    /// (often *larger* than the walk being skipped), so callers should fall
    /// back to their traversal path instead of calling
    /// [`ReachIndex::descendants`].
    pub fn stored_mask(&self, u: NodeId) -> Option<&NodeBitSet> {
        match self {
            ReachIndex::Closure(c) => Some(c.descendants(u)),
            _ => None,
        }
    }

    /// Index memory in bytes (0 for the BFS backend).
    pub fn memory_bytes(&self) -> usize {
        match self {
            ReachIndex::Closure(c) => c.memory_bytes(),
            ReachIndex::Interval(i) => i.memory_bytes(),
            ReachIndex::Bfs => 0,
        }
    }

    /// Exact `reach(u, v)`. Convenience form that allocates DFS scratch for
    /// the non-closure backends; hot paths should use
    /// [`ReachIndex::reaches_with`].
    pub fn reaches(&self, dag: &Dag, u: NodeId, v: NodeId) -> bool {
        match self {
            ReachIndex::Closure(c) => c.reaches(u, v),
            _ => {
                let mut scratch = ReachScratch::new(dag.node_count());
                self.reaches_with(dag, u, v, &mut scratch)
            }
        }
    }

    /// Exact `reach(u, v)` using caller-held scratch (allocation-free once
    /// warm): O(1) on the closure, O(k) on interval-refuted negatives,
    /// (pruned) DFS otherwise.
    pub fn reaches_with(
        &self,
        dag: &Dag,
        u: NodeId,
        v: NodeId,
        scratch: &mut ReachScratch,
    ) -> bool {
        match self {
            ReachIndex::Closure(c) => c.reaches(u, v),
            ReachIndex::Interval(i) => {
                scratch.ensure(dag.node_count());
                i.reaches_with(dag, u, v, &mut scratch.visited, &mut scratch.stack)
            }
            ReachIndex::Bfs => {
                if u == v {
                    return true;
                }
                scratch.ensure(dag.node_count());
                scratch.visited.clear();
                scratch.stack.clear();
                scratch.visited.insert(u);
                scratch.stack.push(u);
                while let Some(x) = scratch.stack.pop() {
                    for &c in dag.children(x) {
                        if c == v {
                            return true;
                        }
                        if scratch.visited.insert(c) {
                            scratch.stack.push(c);
                        }
                    }
                }
                false
            }
        }
    }

    /// The descendant row `G_u` (original-graph descendants of `u`,
    /// including `u`) as a bitset: the closure hands out its stored row,
    /// the DFS backends fill `scratch` with one traversal. Either way the
    /// returned set is identical, which is what keeps word-granular
    /// candidate journaling bit-exact across backends.
    pub fn descendants<'s>(
        &'s self,
        dag: &Dag,
        u: NodeId,
        scratch: &'s mut ReachScratch,
    ) -> &'s NodeBitSet {
        match self {
            ReachIndex::Closure(c) => c.descendants(u),
            _ => {
                scratch.ensure(dag.node_count());
                let row = &mut scratch.row;
                let stack = &mut scratch.stack;
                row.clear();
                stack.clear();
                row.insert(u);
                stack.push(u);
                while let Some(x) = stack.pop() {
                    for &c in dag.children(x) {
                        if !row.contains(c) {
                            row.insert(c);
                            stack.push(c);
                        }
                    }
                }
                row
            }
        }
    }

    /// `|G_u ∩ other|` without materialising the intersection: an O(n/64)
    /// row AND on the closure, a counting DFS over `G_u` otherwise.
    pub fn intersection_count(
        &self,
        dag: &Dag,
        u: NodeId,
        other: &NodeBitSet,
        scratch: &mut ReachScratch,
    ) -> usize {
        match self {
            ReachIndex::Closure(c) => c.descendants(u).intersection_count(other),
            _ => {
                scratch.ensure(dag.node_count());
                let visited = &mut scratch.visited;
                let stack = &mut scratch.stack;
                visited.clear();
                stack.clear();
                visited.insert(u);
                stack.push(u);
                let mut count = usize::from(other.contains(u));
                while let Some(x) = stack.pop() {
                    for &c in dag.children(x) {
                        if visited.insert(c) {
                            count += usize::from(other.contains(c));
                            stack.push(c);
                        }
                    }
                }
                count
            }
        }
    }

    /// The frontier-repair primitive of the incremental rounded greedy
    /// (Alg. 7 made aggregate): given the `doomed` subgraph `D` of a *no*
    /// answer to query `q = doomed[0]` (collected by the caller as
    /// `alive ∩ G_q` in BFS order from `q`; every member still marked in
    /// `alive`), invokes `emit(p, w, c, absolute)` exactly once for every
    /// alive non-doomed ancestor `p` of `D`. With `absolute == false` the
    /// pair is the delta `(Σ_{d ∈ D ∩ G_p} w(d), |D ∩ G_p|)` the ancestor's
    /// alive-subgraph aggregates shrink by; with `absolute == true` it is
    /// the ancestor's **new** aggregate `(Σ_{v ∈ alive∖D ∩ G_p} w(v),
    /// |alive∖D ∩ G_p|)` outright. Both forms land the caller on the
    /// bit-identical post-repair state (`old = Σ_doomed + Σ_survivors` is an
    /// exact `u64` partition), so each ancestor class uses whichever side of
    /// the partition is cheaper to aggregate:
    ///
    /// * **ancestors of `q`** (the bulk, on taxonomy-shaped DAGs): `G_p ⊇
    ///   G_q ⊇ D`, so each receives the full doomed total in O(1) — and
    ///   since an ancestor of an ancestor of `q` is again an ancestor of
    ///   `q`, no other walk ever needs to enter that region (walks prune at
    ///   the mask losslessly);
    /// * remaining *partial* ancestors (reaching some of `D` around `q`
    ///   through shared descendants), closure tier: one word-level
    ///   row ∩ doomed-mask walk each (delta form);
    /// * partial ancestors, interval/BFS tiers: the paper's per-doomed-node
    ///   reverse walks folded into per-ancestor accumulators (delta form)
    ///   while `D` is the minority, or one survivor-side forward walk per
    ///   ancestor (absolute form) when `D` is the majority — the expensive
    ///   early-round kills aggregate what remains instead of what died.
    ///
    /// Either way the caller journals `O(|ancestors|)` entries, never one
    /// per (ancestor, doomed) pair, and ancestors are emitted in the same
    /// deterministic order under every backend (ancestors of `q` in
    /// reverse-DFS order from `q`, then partial ancestors in discovery
    /// order of one pruned multi-source reverse DFS from `D`).
    pub fn doomed_contributions(
        &self,
        dag: &Dag,
        doomed: &[NodeId],
        alive: &NodeBitSet,
        weight: &[u64],
        scratch: &mut ReachScratch,
        mut emit: impl FnMut(NodeId, u64, u32, bool),
    ) {
        let n = dag.node_count();
        scratch.ensure(n);
        debug_assert!(!doomed.is_empty(), "a no-answer dooms at least q");
        debug_assert!(doomed.iter().all(|&d| alive.contains(d)));
        let q = doomed[0];

        // Mark D and total it once.
        scratch.row.clear();
        let mut total_w = 0u64;
        for &d in doomed {
            scratch.row.insert(d);
            total_w += weight[d.index()];
        }
        let total_c = doomed.len() as u32;

        // Full-delta fast path: every ancestor of q contains all of D
        // (G_p ⊇ G_q ⊇ D). A proper ancestor of q is alive (a dead node's
        // descendants are all dead) and never doomed (that would make a
        // cycle). Emitted in reverse-DFS order from q; the mask also lets
        // every later walk prune — no ancestor of an ancestor of q can be
        // a partial ancestor.
        scratch.anc.clear();
        scratch.stack.clear();
        scratch.anc.insert(q);
        scratch.stack.push(q);
        while let Some(u) = scratch.stack.pop() {
            for &p in dag.parents(u) {
                if !scratch.anc.contains(p) {
                    debug_assert!(alive.contains(p) && !scratch.row.contains(p));
                    scratch.anc.insert(p);
                    emit(p, total_w, total_c, false);
                    scratch.stack.push(p);
                }
            }
        }

        // Partial ancestors: alive, non-doomed, reach some of D around q.
        // One multi-source reverse DFS from D over alive nodes, pruned at
        // the ancestors-of-q mask (lossless: no partial ancestor sits above
        // an ancestor of q).
        scratch.visited.clear();
        scratch.stack.clear();
        scratch.affected.clear();
        for &d in doomed {
            scratch.visited.insert(d);
            scratch.stack.push(d);
        }
        while let Some(u) = scratch.stack.pop() {
            for &p in dag.parents(u) {
                if alive.contains(p) && !scratch.anc.contains(p) && scratch.visited.insert(p) {
                    if !scratch.row.contains(p) {
                        scratch.affected.push(p);
                    }
                    scratch.stack.push(p);
                }
            }
        }
        if scratch.affected.is_empty() {
            return;
        }

        match self {
            ReachIndex::Closure(c) => {
                for i in 0..scratch.affected.len() {
                    let p = scratch.affected[i];
                    let (dw, dc) = c
                        .descendants(p)
                        .intersection_weight_count(&scratch.row, weight);
                    emit(p, dw, dc, false);
                }
            }
            _ if doomed.len() * 2 > alive.count() => {
                // Doomed majority: aggregate the survivor side. One forward
                // walk per partial ancestor over `alive ∖ D`, emitting the
                // new aggregates outright — fewer (ancestor, node) pairs
                // than walking the doomed side.
                for i in 0..scratch.affected.len() {
                    let p = scratch.affected[i];
                    scratch.visited.clear();
                    scratch.visited.insert(p);
                    scratch.stack.push(p);
                    let mut new_w = weight[p.index()];
                    let mut new_c = 1u32;
                    while let Some(u) = scratch.stack.pop() {
                        for &c in dag.children(u) {
                            if alive.contains(c)
                                && !scratch.row.contains(c)
                                && scratch.visited.insert(c)
                            {
                                new_w += weight[c.index()];
                                new_c += 1;
                                scratch.stack.push(c);
                            }
                        }
                    }
                    emit(p, new_w, new_c, true);
                }
            }
            _ => {
                // Doomed minority: per-doomed-node reverse walks (Alg. 7),
                // pruned at the ancestors-of-q mask and accumulated per
                // ancestor instead of emitted per pair.
                for &d in doomed {
                    let dw = weight[d.index()];
                    scratch.visited.clear();
                    scratch.visited.insert(d);
                    scratch.stack.push(d);
                    while let Some(u) = scratch.stack.pop() {
                        for &p in dag.parents(u) {
                            if alive.contains(p)
                                && !scratch.anc.contains(p)
                                && scratch.visited.insert(p)
                            {
                                if !scratch.row.contains(p) {
                                    scratch.acc_weight[p.index()] += dw;
                                    scratch.acc_count[p.index()] += 1;
                                }
                                scratch.stack.push(p);
                            }
                        }
                    }
                }
                for i in 0..scratch.affected.len() {
                    let p = scratch.affected[i];
                    let dw = std::mem::take(&mut scratch.acc_weight[p.index()]);
                    let dc = std::mem::take(&mut scratch.acc_count[p.index()]);
                    emit(p, dw, dc, false);
                }
            }
        }
    }

    /// `(Σ weight[v], |G_u|)` over the full descendant set `G_u` — the base
    /// aggregation of the rounded greedy (`w̃`/`ñ` of Alg. 6). `u64` sums
    /// are order-independent, so the closure row walk and the DFS produce
    /// bit-identical results.
    pub fn descendant_weight_count(
        &self,
        dag: &Dag,
        u: NodeId,
        weight: &[u64],
        scratch: &mut ReachScratch,
    ) -> (u64, u32) {
        match self {
            ReachIndex::Closure(c) => {
                let row = c.descendants(u);
                (row.weight_sum_u64(weight), row.count() as u32)
            }
            _ => {
                scratch.ensure(dag.node_count());
                let visited = &mut scratch.visited;
                let stack = &mut scratch.stack;
                visited.clear();
                stack.clear();
                visited.insert(u);
                stack.push(u);
                let mut wsum = weight[u.index()];
                let mut count = 1u32;
                while let Some(x) = stack.pop() {
                    for &c in dag.children(x) {
                        if visited.insert(c) {
                            wsum += weight[c.index()];
                            count += 1;
                            stack.push(c);
                        }
                    }
                }
                (wsum, count)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::dag_from_edges;
    use crate::generate::{random_dag, DagConfig};

    fn diamond() -> Dag {
        dag_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)]).unwrap()
    }

    fn backends(dag: &Dag) -> Vec<ReachIndex> {
        vec![
            ReachIndex::closure_for(dag),
            ReachIndex::interval_for(dag, 2, 11),
            ReachIndex::Bfs,
        ]
    }

    #[test]
    fn all_backends_agree_on_reaches() {
        let g = diamond();
        let mut scratch = ReachScratch::new(g.node_count());
        for index in backends(&g) {
            for u in g.nodes() {
                for v in g.nodes() {
                    let truth = g.reaches(u, v);
                    assert_eq!(
                        index.reaches(&g, u, v),
                        truth,
                        "{} ({u},{v})",
                        index.backend_name()
                    );
                    assert_eq!(
                        index.reaches_with(&g, u, v, &mut scratch),
                        truth,
                        "{} ({u},{v}) scratch",
                        index.backend_name()
                    );
                }
            }
        }
    }

    #[test]
    fn all_backends_produce_identical_rows() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let g = random_dag(&DagConfig::bushy(150, 0.2), &mut rng);
        let closure = ReachIndex::closure_for(&g);
        let mut closure_scratch = ReachScratch::new(g.node_count());
        let mut scratch = ReachScratch::new(g.node_count());
        for index in [ReachIndex::interval_for(&g, 3, 5), ReachIndex::Bfs] {
            for u in g.nodes() {
                let want = closure.descendants(&g, u, &mut closure_scratch).clone();
                let got = index.descendants(&g, u, &mut scratch);
                assert_eq!(&want, got, "{} row {u}", index.backend_name());
            }
        }
    }

    #[test]
    fn intersection_count_and_weights_match_rows() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let g = random_dag(&DagConfig::bushy(120, 0.15), &mut rng);
        let n = g.node_count();
        let mut alive = NodeBitSet::full(n);
        for i in (0..n).step_by(3) {
            alive.remove(NodeId::new(i));
        }
        let weight: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
        let closure = ReachIndex::closure_for(&g);
        let mut s1 = ReachScratch::new(n);
        let mut s2 = ReachScratch::new(n);
        for index in [ReachIndex::interval_for(&g, 2, 1), ReachIndex::Bfs] {
            for u in g.nodes() {
                assert_eq!(
                    closure.intersection_count(&g, u, &alive, &mut s1),
                    index.intersection_count(&g, u, &alive, &mut s2),
                    "{} count {u}",
                    index.backend_name()
                );
                assert_eq!(
                    closure.descendant_weight_count(&g, u, &weight, &mut s1),
                    index.descendant_weight_count(&g, u, &weight, &mut s2),
                    "{} weight {u}",
                    index.backend_name()
                );
            }
        }
    }

    /// Applies `doomed_contributions` emissions to copies of the aggregates
    /// and returns the repaired `(wt, cnt)` plus the emission order.
    fn apply_contributions(
        index: &ReachIndex,
        dag: &Dag,
        doomed: &[NodeId],
        alive: &NodeBitSet,
        weight: &[u64],
        wt: &[u64],
        cnt: &[u32],
    ) -> (Vec<u64>, Vec<u32>, Vec<NodeId>) {
        let mut wt = wt.to_vec();
        let mut cnt = cnt.to_vec();
        let mut order = Vec::new();
        let mut scratch = ReachScratch::new(dag.node_count());
        index.doomed_contributions(
            dag,
            doomed,
            alive,
            weight,
            &mut scratch,
            |p, wv, cv, abs| {
                order.push(p);
                if abs {
                    wt[p.index()] = wv;
                    cnt[p.index()] = cv;
                } else {
                    wt[p.index()] -= wv;
                    cnt[p.index()] -= cv;
                }
            },
        );
        (wt, cnt, order)
    }

    #[test]
    fn doomed_contributions_identical_across_backends_and_strategies() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let g = random_dag(&DagConfig::bushy(140, 0.2), &mut rng);
        let n = g.node_count();
        let weight: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let mut scratch = ReachScratch::new(n);

        // A realistic mid-search state: kill G_a, then doom G_b — covering
        // both the doomed-minority (per-node walks) and doomed-majority
        // (survivor-side recompute) strategies depending on |G_b|.
        for (a_raw, b_raw) in [(3usize, 9usize), (9, 1), (50, 2), (2, 51)] {
            let a = NodeId::new(a_raw % n);
            let b0 = NodeId::new(b_raw % n);
            let mut alive = NodeBitSet::full(n);
            for d in g.descendants(a) {
                alive.remove(d);
            }
            let b = if alive.contains(b0) { b0 } else { g.root() };
            // Current aggregates over the alive set (brute force).
            let mut wt = vec![0u64; n];
            let mut cnt = vec![0u32; n];
            for v in g.nodes() {
                if !alive.contains(v) {
                    continue;
                }
                for d in g.descendants(v) {
                    if alive.contains(NodeId::new(d.index())) {
                        wt[v.index()] += weight[d.index()];
                        cnt[v.index()] += 1;
                    }
                }
            }
            // Doomed set: alive ∩ G_b.
            let doomed: Vec<NodeId> = g
                .descendants(b)
                .into_iter()
                .filter(|&d| alive.contains(d))
                .collect();
            // Expected post-repair aggregates (brute force over survivors).
            let mut survivor = alive.clone();
            for &d in &doomed {
                survivor.remove(d);
            }
            let mut want_wt = wt.clone();
            let mut want_cnt = cnt.clone();
            for v in g.nodes() {
                if !survivor.contains(v) {
                    continue;
                }
                let mut nw = 0u64;
                let mut nc = 0u32;
                let row = ReachIndex::Bfs.descendants(&g, v, &mut scratch).clone();
                for d in row.iter() {
                    if survivor.contains(d) {
                        nw += weight[d.index()];
                        nc += 1;
                    }
                }
                want_wt[v.index()] = nw;
                want_cnt[v.index()] = nc;
            }

            let mut reference: Option<(Vec<u64>, Vec<u32>, Vec<NodeId>)> = None;
            for index in backends(&g) {
                let got = apply_contributions(&index, &g, &doomed, &alive, &weight, &wt, &cnt);
                // Repaired aggregates match brute force on every survivor.
                for v in g.nodes() {
                    if survivor.contains(v) {
                        assert_eq!(
                            got.0[v.index()],
                            want_wt[v.index()],
                            "{} wt {v}",
                            index.backend_name()
                        );
                        assert_eq!(
                            got.1[v.index()],
                            want_cnt[v.index()],
                            "{} cnt {v}",
                            index.backend_name()
                        );
                    }
                }
                // Emission order and per-ancestor touches identical across
                // backends (what keeps journals deterministic).
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        assert_eq!(want.2, got.2, "{} order", index.backend_name());
                        assert_eq!(want.0, got.0, "{} wt array", index.backend_name());
                        assert_eq!(want.1, got.1, "{} cnt array", index.backend_name());
                    }
                }
            }
        }
    }

    #[test]
    fn doomed_contributions_touches_exactly_the_alive_ancestors() {
        let g = diamond();
        let n = g.node_count();
        let weight = vec![1u64; n];
        let alive = NodeBitSet::full(n);
        let wt: Vec<u64> = g.nodes().map(|v| g.descendants(v).len() as u64).collect();
        let cnt: Vec<u32> = wt.iter().map(|&x| x as u32).collect();
        for index in backends(&g) {
            // Doom G_3 = {3, 4}: alive ancestors are {0, 1, 2}.
            let doomed = vec![NodeId::new(3), NodeId::new(4)];
            let (_, _, order) =
                apply_contributions(&index, &g, &doomed, &alive, &weight, &wt, &cnt);
            let mut touched: Vec<usize> = order.iter().map(|p| p.index()).collect();
            touched.sort_unstable();
            assert_eq!(touched, vec![0, 1, 2], "{}", index.backend_name());
        }
    }

    #[test]
    fn auto_picks_by_size() {
        let g = diamond();
        assert_eq!(ReachIndex::auto(&g).backend_name(), "closure");
        assert!(ReachIndex::auto(&g).as_closure().is_some());
        assert_eq!(ReachIndex::Bfs.memory_bytes(), 0);
        assert!(ReachIndex::closure_for(&g).memory_bytes() > 0);

        // One node past the threshold, `auto` switches to the interval
        // tier, whose labels take a small fraction of the closure's
        // quadratic bit matrix.
        let n = AUTO_CLOSURE_MAX_NODES + 1;
        let big = random_dag(&DagConfig::bushy(n, 0.1), &mut ChaCha8Rng::seed_from_u64(9));
        let auto = ReachIndex::auto(&big);
        assert_eq!(auto.backend_name(), "interval");
        let closure = ReachIndex::closure_for(&big).memory_bytes();
        assert!(
            auto.memory_bytes() * 10 < closure,
            "interval {} B vs closure {closure} B",
            auto.memory_bytes()
        );
    }

    #[test]
    fn scratch_resizes_across_graphs() {
        let small = diamond();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let big = random_dag(&DagConfig::bushy(200, 0.1), &mut rng);
        let mut scratch = ReachScratch::new(small.node_count());
        let index = ReachIndex::Bfs;
        assert!(index.reaches_with(&small, NodeId::new(0), NodeId::new(4), &mut scratch));
        // Same scratch, bigger graph: must transparently regrow.
        let root = big.root();
        let deep = NodeId::new(big.node_count() - 1);
        assert_eq!(
            index.reaches_with(&big, root, deep, &mut scratch),
            big.reaches(root, deep)
        );
        assert_eq!(scratch.universe(), big.node_count());
    }
}
