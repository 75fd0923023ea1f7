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
//! [`ReachScratch`] (reused across queries and graphs; the policy layer
//! keeps one per thread) so the hot path stays allocation-free, matching
//! the `StepJournal` discipline of the policy layer.

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

/// Reusable buffers for the DFS-based [`ReachIndex`] operations. Every
/// operation clears what it uses, so the scratch carries no state between
/// calls and one instance can serve any number of policies and graphs in
/// turn. The buffers grow to the largest graph served and never shrink:
/// alternating between graphs allocates nothing once the largest has been
/// seen.
#[derive(Debug, Clone)]
pub struct ReachScratch {
    /// Descendant-row output (doubles as the DFS visited set when filling,
    /// and as the doomed-set mask `D` of
    /// [`ReachIndex::doomed_contributions`]).
    row: NodeBitSet,
    /// Indices of the non-zero words of the doomed mask, ascending.
    words: Vec<u32>,
    /// The doomed repair's fence: the ancestors of the query, plus the
    /// doomed nodes below the entry nodes when the repair walks them.
    fence: NodeBitSet,
    /// Epoch-cleared visited set for counting traversals.
    visited: VisitedSet,
    /// DFS stack.
    stack: Vec<NodeId>,
    /// Partial ancestors of the most recent doomed repair, in discovery
    /// order.
    affected: Vec<NodeId>,
    /// Per-node weight accumulator of the doomed walks, at least `row`'s
    /// universe long. Invariant: all-zero between calls (re-zeroed along
    /// `affected`, never by a full sweep, except by
    /// [`ReachScratch::scrub`]).
    acc_weight: Vec<u64>,
    /// Per-node count accumulator; same all-zero invariant.
    acc_count: Vec<u32>,
    /// Pricing strategy forced on every doomed repair, overriding the size
    /// rule.
    #[cfg(test)]
    pricing: Option<Pricing>,
    /// Nodes the partial-ancestor searches have pushed so far (entry seeds
    /// and partial ancestors).
    #[cfg(test)]
    searched: usize,
}

/// How [`ReachIndex::doomed_contributions`] prices the partial ancestors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pricing {
    /// Alg. 7's reverse walks, accumulated per ancestor: one per entry
    /// node, carrying the totals of the doomed nodes whose parents lead up
    /// to it.
    DoomedWalks,
    /// One `G_p ∩ D` aggregate per partial ancestor `p`: a stored-row AND
    /// on the closure, a forward walk elsewhere.
    AncestorRows,
}

impl ReachScratch {
    /// Scratch sized for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        ReachScratch {
            row: NodeBitSet::empty(n),
            words: Vec::new(),
            fence: NodeBitSet::empty(n),
            visited: VisitedSet::new(n),
            stack: Vec::new(),
            affected: Vec::new(),
            acc_weight: vec![0; n],
            acc_count: vec![0; n],
            #[cfg(test)]
            pricing: None,
            #[cfg(test)]
            searched: 0,
        }
    }

    /// Number of node ids the buffers cover.
    pub fn universe(&self) -> usize {
        self.row.universe()
    }

    /// The pricing strategy a test forces on every doomed repair, if any.
    #[cfg(test)]
    fn forced_pricing(&self) -> Option<Pricing> {
        self.pricing
    }

    /// Outside tests the size rule always decides.
    #[cfg(not(test))]
    fn forced_pricing(&self) -> Option<Pricing> {
        None
    }

    /// Restores the all-zero accumulators after an operation that did not
    /// return (an `emit` callback that panicked mid-repair). Every other
    /// buffer is cleared by the next operation that uses it.
    pub fn scrub(&mut self) {
        self.acc_weight.fill(0);
        self.acc_count.fill(0);
    }

    /// Re-targets the bitsets at a graph of `n` nodes when the graph
    /// changed (no-op otherwise), growing the per-node buffers only past
    /// the largest graph seen so far.
    fn ensure(&mut self, n: usize) {
        if self.row.universe() != n {
            self.row.reset_empty(n);
            self.fence.reset_empty(n);
            self.visited.grow(n);
            if self.acc_weight.len() < n {
                self.acc_weight.resize(n, 0);
                self.acc_count.resize(n, 0);
            }
        }
    }
}

/// The entry nodes of the doomed mask `doomed`, whose non-zero words are
/// `words`: its members of in-degree ≥ 2 other than `q`, ascending when
/// `words` is.
fn entry_nodes<'a>(
    words: &'a [u32],
    doomed: &'a NodeBitSet,
    multi: &'a NodeBitSet,
    q: NodeId,
) -> impl Iterator<Item = NodeId> + 'a {
    words.iter().flat_map(move |&i| {
        let i = i as usize;
        let mut bits = doomed.word(i) & multi.word(i);
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(NodeId::new((i << 6) | bit))
        })
        .filter(move |&e| e != q)
    })
}

/// The per-doom size rule of [`ReachIndex::doomed_contributions`]: whether
/// one `row(p) ∩ D` scan of `words` words for each of `ancestors` partial
/// ancestors beats one reverse walk per entry node, `entries` walks that
/// each climb through about `entries + ancestors` nodes (the doomed nodes
/// above an entry and below others, then the partial ancestors). Measured,
/// a visit cost about three row words and walks visited fewer nodes than
/// that estimate; with a factor of 6 the rule's total pricing time came
/// within 6% of the best per-doom choice on `imagenet_like` and on random
/// DAGs of 1 000–3 000 nodes with 5–50% extra parents (2 vCPUs, best of
/// five per doom).
fn rows_are_cheaper(ancestors: usize, entries: usize, words: usize) -> bool {
    entries * (entries + ancestors) > 6 * ancestors * words
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
    /// otherwise. This is the gate for word-level set operations such as
    /// [`ReachIndex::doomed_contributions`]'s row path: with a stored row
    /// each membership test is one bit probe; without one, materialising
    /// the mask would itself cost a DFS over `G_u`, so callers should fall
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
    /// (Alg. 7's AdjustWeight, aggregated): a *no* answer at `q` dooms
    /// `D = alive ∩ G_q`. Builds `D` as a word mask and invokes
    /// `emit(p, Σ_{d ∈ D ∩ G_p} w(d), |D ∩ G_p|)` exactly once for every
    /// alive non-doomed ancestor `p` of `D` — the delta its alive-subgraph
    /// aggregates shrink by. Returns the mask and the indices of its
    /// non-zero words, ascending, so the caller can clear `alive` one word
    /// at a time.
    ///
    /// `alive` must be ancestor-closed (a dead node's descendants are all
    /// dead — what a run of *no* answers leaves) and contain `q`; `total`
    /// is `D`'s own `(Σ w, |D|)`, i.e. `q`'s current alive-subgraph
    /// aggregates. The cost follows what changes:
    ///
    /// * **the mask**: `alive ∩ row(q)` one word at a time when the index
    ///   stores rows and `D` has more nodes than a row has words, an
    ///   alive-pruned DFS from `q` otherwise (no O(n/64) scan without a
    ///   stored row);
    /// * **ancestors of `q`** (the bulk, on taxonomy-shaped DAGs): `G_p ⊇
    ///   G_q ⊇ D`, so each receives `total` in O(1), in reverse-DFS order
    ///   from `q`;
    /// * **partial ancestors** (reaching some of `D` but not `q`): every
    ///   such path enters `D` at an *entry node*, a doomed node other than
    ///   `q` with in-degree ≥ 2 ([`Dag::multi_parent_mask`]), through a
    ///   parent outside `D` — so one reverse DFS seeded at the entries
    ///   (ascending ids) over non-doomed nodes, fenced at the ancestors of
    ///   `q`, finds them all, in discovery order. A doom without entry
    ///   nodes (any doom on a tree) has none and stops here. The partial
    ///   ancestors only reach `U`, the doomed nodes below the entries, and
    ///   are priced by one of two strategies with identical results:
    ///   Alg. 7's per-node reverse walks over `U` and the partial
    ///   ancestors, accumulated per ancestor — coalesced to one walk per
    ///   entry, since every other member of `U` has a single parent and
    ///   so the same partial ancestors as the entry its parents lead up
    ///   to; or, when the closure stores rows and a per-doom size rule
    ///   says so, one `row(p) ∩ D` word scan per partial ancestor `p`. The
    ///   rule weighs about `|E|·(|E| + |A|)` walk visits against
    ///   `|A|·n/64` row words (`E` the entries, `A` the partial
    ///   ancestors), both known before any pricing work.
    ///
    /// Either way the caller journals `O(|ancestors|)` entries, never one
    /// per (ancestor, doomed) pair, and the emission order is the same
    /// under every backend and strategy (ancestors of `q`, then partial
    /// ancestors in entry-seeded discovery order).
    #[allow(clippy::too_many_arguments)]
    pub fn doomed_contributions<'s>(
        &self,
        dag: &Dag,
        q: NodeId,
        total: (u64, u32),
        alive: &NodeBitSet,
        weight: &[u64],
        scratch: &'s mut ReachScratch,
        mut emit: impl FnMut(NodeId, u64, u32),
    ) -> (&'s NodeBitSet, &'s [u32]) {
        scratch.ensure(dag.node_count());
        debug_assert!(alive.contains(q));
        let s = scratch;

        // D = alive ∩ G_q, with its non-zero words listed. A stored row
        // costs a pass over all n/64 words (about 5 ns a word on
        // `imagenet_like`, whose rows are rarely cached), so it is read
        // only when D has more nodes than the row has words; a smaller D
        // is cheaper to walk.
        s.words.clear();
        let words = alive.word_count();
        if let Some(row) = self.stored_mask(q).filter(|_| total.1 as usize > words) {
            for i in 0..words {
                let d = alive.word(i) & row.word(i);
                s.row.set_word(i, d);
                if d != 0 {
                    s.words.push(i as u32);
                }
            }
        } else {
            s.row.clear();
            s.stack.clear();
            s.words.push((q.index() >> 6) as u32);
            s.row.insert(q);
            s.stack.push(q);
            while let Some(u) = s.stack.pop() {
                for &c in dag.children(u) {
                    if alive.contains(c) && !s.row.contains(c) {
                        if s.row.word(c.index() >> 6) == 0 {
                            s.words.push((c.index() >> 6) as u32);
                        }
                        s.row.insert(c);
                        s.stack.push(c);
                    }
                }
            }
            s.words.sort_unstable();
        }

        // Full deltas: every ancestor of q contains all of D. A proper
        // ancestor of q is alive (alive is ancestor-closed) and never
        // doomed (that would make a cycle). The fence also keeps every
        // later walk out of this region: nothing above an ancestor of q is
        // a partial ancestor.
        s.fence.clear();
        s.stack.clear();
        s.stack.push(q);
        while let Some(u) = s.stack.pop() {
            for &p in dag.parents(u) {
                if !s.fence.contains(p) {
                    debug_assert!(alive.contains(p) && !s.row.contains(p));
                    s.fence.insert(p);
                    emit(p, total.0, total.1);
                    s.stack.push(p);
                }
            }
        }

        // Partial ancestors, from the entry nodes only. Parents of alive
        // nodes are alive, so the search needs no alive test.
        let multi = dag.multi_parent_mask();
        s.affected.clear();
        s.visited.clear();
        s.stack.extend(entry_nodes(&s.words, &s.row, multi, q));
        let entries = s.stack.len();
        #[cfg(test)]
        {
            s.searched += entries;
        }
        while let Some(u) = s.stack.pop() {
            for &p in dag.parents(u) {
                if !s.row.contains(p) && !s.fence.contains(p) && s.visited.insert(p) {
                    #[cfg(test)]
                    {
                        s.searched += 1;
                    }
                    s.affected.push(p);
                    s.stack.push(p);
                }
            }
        }
        if s.affected.is_empty() {
            return (&s.row, &s.words);
        }

        let rows =
            self.as_closure().is_some() && rows_are_cheaper(s.affected.len(), entries, words);
        match s.forced_pricing().unwrap_or(if rows {
            Pricing::AncestorRows
        } else {
            Pricing::DoomedWalks
        }) {
            Pricing::DoomedWalks => {
                // U, the doomed nodes below the entries, joins the fence.
                // A member of U that is not an entry has one parent, also
                // in U, so its parents lead up to exactly one entry, and
                // its ancestors outside D are that entry's: the entry's
                // walk carries the totals of this *tail* of members,
                // parked in the entry's (doomed, hence unused)
                // accumulators.
                for e in entry_nodes(&s.words, &s.row, multi, q) {
                    s.fence.insert(e);
                    s.stack.push(e);
                    let (mut tw, mut tc) = (0u64, 0u32);
                    while let Some(u) = s.stack.pop() {
                        tw += weight[u.index()];
                        tc += 1;
                        for &c in dag.children(u) {
                            if s.row.contains(c) && !multi.contains(c) {
                                s.fence.insert(c);
                                s.stack.push(c);
                            }
                        }
                    }
                    s.acc_weight[e.index()] = tw;
                    s.acc_count[e.index()] = tc;
                }
                // Alg. 7's reverse walks, one per entry. Every parent of a
                // member of U or of a partial ancestor is doomed or fenced
                // or both or neither, and the walks move exactly to the
                // parents whose two bits agree (U: both set; partial
                // ancestors: both clear).
                for e in entry_nodes(&s.words, &s.row, multi, q) {
                    let dw = std::mem::take(&mut s.acc_weight[e.index()]);
                    let dc = std::mem::take(&mut s.acc_count[e.index()]);
                    s.visited.clear();
                    s.visited.insert(e);
                    s.stack.push(e);
                    while let Some(x) = s.stack.pop() {
                        for &p in dag.parents(x) {
                            let doomed = s.row.contains(p);
                            if doomed == s.fence.contains(p) && s.visited.insert(p) {
                                if !doomed {
                                    s.acc_weight[p.index()] += dw;
                                    s.acc_count[p.index()] += dc;
                                }
                                s.stack.push(p);
                            }
                        }
                    }
                }
                for &p in &s.affected {
                    let dw = std::mem::take(&mut s.acc_weight[p.index()]);
                    let dc = std::mem::take(&mut s.acc_count[p.index()]);
                    emit(p, dw, dc);
                }
            }
            Pricing::AncestorRows => {
                for i in 0..s.affected.len() {
                    let p = s.affected[i];
                    let (dw, dc) = match self {
                        ReachIndex::Closure(c) => {
                            c.descendants(p).intersection_weight_count(&s.row, weight)
                        }
                        // Forced by tests only: a forward walk over alive
                        // `G_p`, totalling its doomed members.
                        _ => {
                            s.visited.clear();
                            s.visited.insert(p);
                            s.stack.push(p);
                            let (mut dw, mut dc) = (0u64, 0u32);
                            while let Some(u) = s.stack.pop() {
                                for &c in dag.children(u) {
                                    if alive.contains(c) && s.visited.insert(c) {
                                        if s.row.contains(c) {
                                            dw += weight[c.index()];
                                            dc += 1;
                                        }
                                        s.stack.push(c);
                                    }
                                }
                            }
                            (dw, dc)
                        }
                    };
                    emit(p, dw, dc);
                }
            }
        }
        (&s.row, &s.words)
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

    /// `(w̃, ñ)` of every node of `alive` over `alive ∩ G_v`, by brute
    /// force; zero elsewhere.
    fn aggregates(dag: &Dag, alive: &NodeBitSet, weight: &[u64]) -> (Vec<u64>, Vec<u32>) {
        let n = dag.node_count();
        let mut wt = vec![0u64; n];
        let mut cnt = vec![0u32; n];
        for v in alive.iter() {
            for d in dag.descendants(v) {
                if alive.contains(d) {
                    wt[v.index()] += weight[d.index()];
                    cnt[v.index()] += 1;
                }
            }
        }
        (wt, cnt)
    }

    /// One doomed repair at `q` and what it produced.
    struct Doom {
        /// `(w̃, ñ)` with every emitted delta applied.
        wt: Vec<u64>,
        cnt: Vec<u32>,
        /// The emissions, in order.
        emitted: Vec<(NodeId, u64, u32)>,
        mask: NodeBitSet,
        words: Vec<u32>,
        /// The partial-ancestor search's work counter.
        searched: usize,
    }

    fn doom(
        index: &ReachIndex,
        dag: &Dag,
        q: NodeId,
        alive: &NodeBitSet,
        weight: &[u64],
        pricing: Option<Pricing>,
    ) -> Doom {
        let (mut wt, mut cnt) = aggregates(dag, alive, weight);
        let mut scratch = ReachScratch::new(dag.node_count());
        scratch.pricing = pricing;
        let mut emitted = Vec::new();
        let total = (wt[q.index()], cnt[q.index()]);
        let (mask, words) =
            index.doomed_contributions(dag, q, total, alive, weight, &mut scratch, |p, w, c| {
                emitted.push((p, w, c))
            });
        let (mask, words) = (mask.clone(), words.to_vec());
        for &(p, w, c) in &emitted {
            wt[p.index()] -= w;
            cnt[p.index()] -= c;
        }
        Doom {
            wt,
            cnt,
            emitted,
            mask,
            words,
            searched: scratch.searched,
        }
    }

    /// Dooms `q` under every backend, with the size rule and with each
    /// pricing strategy forced, asserting the mask, its word list and the
    /// repaired aggregates against brute force and the emissions and search
    /// counts against each other. Returns the repair.
    fn check_doom(dag: &Dag, alive: &NodeBitSet, q: NodeId, weight: &[u64]) -> Doom {
        let mut doomed = NodeBitSet::empty(dag.node_count());
        for d in dag.descendants(q) {
            if alive.contains(d) {
                doomed.insert(d);
            }
        }
        let want_words: Vec<u32> = (0..doomed.word_count())
            .filter(|&i| doomed.word(i) != 0)
            .map(|i| i as u32)
            .collect();
        let mut survivors = alive.clone();
        survivors.subtract(&doomed);
        let (want_wt, want_cnt) = aggregates(dag, &survivors, weight);
        let mut reference: Option<Doom> = None;
        for index in backends(dag) {
            for pricing in [
                None,
                Some(Pricing::DoomedWalks),
                Some(Pricing::AncestorRows),
            ] {
                let got = doom(&index, dag, q, alive, weight, pricing);
                let label = format!("{} {pricing:?} q={q}", index.backend_name());
                assert_eq!(got.mask, doomed, "{label} mask");
                assert_eq!(got.words, want_words, "{label} words");
                for v in survivors.iter() {
                    assert_eq!(got.wt[v.index()], want_wt[v.index()], "{label} wt {v}");
                    assert_eq!(got.cnt[v.index()], want_cnt[v.index()], "{label} cnt {v}");
                }
                // Emission order and deltas identical across backends and
                // strategies (what keeps journals deterministic), and so is
                // the search's work.
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        assert_eq!(want.emitted, got.emitted, "{label} emissions");
                        assert_eq!(want.searched, got.searched, "{label} searched");
                    }
                }
            }
        }
        reference.unwrap()
    }

    #[test]
    fn doomed_contributions_identical_across_backends_and_strategies() {
        for (seed, frac) in [(21, 0.2), (22, 0.02)] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let g = random_dag(&DagConfig::bushy(140, frac), &mut rng);
            let n = g.node_count();
            let weight: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            // A mid-search state: kill G_a, then doom G_b (or the root's
            // first alive child when b died with G_a).
            for (a, b) in [(3usize, 9usize), (9, 1), (50, 2), (2, 51), (70, 0)] {
                let mut alive = NodeBitSet::full(n);
                for d in g.descendants(NodeId::new(a)) {
                    alive.remove(d);
                }
                let b = Some(NodeId::new(b))
                    .filter(|&b| alive.contains(b) && b != g.root())
                    .or_else(|| {
                        g.children(g.root())
                            .iter()
                            .copied()
                            .find(|&c| alive.contains(c))
                    })
                    .unwrap();
                check_doom(&g, &alive, b, &weight);
            }
            if frac > 0.1 {
                continue;
            }
            // A doom with no entry nodes on the near-tree: the largest G_q
            // whose only multi-parent member, if any, is q itself.
            let multi = g.multi_parent_mask();
            assert!(multi.count() > 0, "the near-tree has cross edges");
            let q = g
                .nodes()
                .filter(|&q| q != g.root())
                .filter(|&q| {
                    g.descendants(q)
                        .iter()
                        .all(|&d| d == q || !multi.contains(d))
                })
                .max_by_key(|&q| (multi.contains(q), g.descendants(q).len()))
                .unwrap();
            assert!(g.descendants(q).len() > 2 && multi.contains(q), "q={q}");
            let alive = NodeBitSet::full(n);
            let got = check_doom(&g, &alive, q, &weight);
            assert_eq!(got.searched, 0);
            let mut touched: Vec<NodeId> = got.emitted.iter().map(|e| e.0).collect();
            touched.sort_unstable();
            let mut want = g.ancestors(q);
            want.retain(|&p| p != q);
            want.sort_unstable();
            assert_eq!(touched, want, "only the ancestors of q are repaired");
        }
    }

    #[test]
    fn doomed_contributions_touches_exactly_the_alive_ancestors() {
        let g = diamond();
        let weight = vec![1u64; g.node_count()];
        let alive = NodeBitSet::full(g.node_count());
        // Doom G_3 = {3, 4}: the alive ancestors are {0, 1, 2}, and 3 is an
        // entry node (parents 1 and 2) but q itself, so nothing is partial.
        let got = check_doom(&g, &alive, NodeId::new(3), &weight);
        let mut touched: Vec<usize> = got.emitted.iter().map(|e| e.0.index()).collect();
        touched.sort_unstable();
        assert_eq!(touched, vec![0, 1, 2]);
        // Doom G_2 = {2, 3, 4, 5}: 1 reaches 3 around q through the entry 3.
        let got = check_doom(&g, &alive, NodeId::new(2), &weight);
        let ids: Vec<usize> = got.emitted.iter().map(|e| e.0.index()).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(got.emitted[1], (NodeId::new(1), 2, 2));
    }

    /// The partial-ancestor search costs the entry nodes' chains, not the
    /// doomed set: seeding it from all of `D` would push every doomed node.
    #[test]
    fn partial_ancestor_search_visits_only_entry_chains() {
        let weight: Vec<u64> = (1..=17).collect();
        // G_4 = {4, 5..=14, 15, 16} holds no multi-parent node (3 has two
        // parents, outside it): the search pushes nothing.
        let mut edges = vec![(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (4, 15), (15, 16)];
        edges.extend((5..=14).map(|c| (4, c)));
        let g = dag_from_edges(17, &edges).unwrap();
        let alive = NodeBitSet::full(17);
        let got = check_doom(&g, &alive, NodeId::new(4), &weight);
        let ids: Vec<u32> = got.emitted.iter().map(|e| e.0 .0).collect();
        assert_eq!(ids, vec![2, 0]);
        assert_eq!(got.searched, 0);

        // G_2 = {2..=13}, entered once, by the cross edge 16 → 13 from the
        // chain 0 → 14 → 15 → 16: the search pushes the entry and the
        // three chain nodes, which receive 13's weight alone.
        let mut edges = vec![
            (0, 1),
            (1, 2),
            (3, 13),
            (0, 14),
            (14, 15),
            (15, 16),
            (16, 13),
        ];
        edges.extend((3..=12).map(|c| (2, c)));
        let g = dag_from_edges(17, &edges).unwrap();
        let got = check_doom(&g, &alive, NodeId::new(2), &weight);
        let total = ((3..=14).sum::<u64>(), 12);
        let w13 = (weight[13], 1);
        let want: Vec<(u32, (u64, u32))> =
            vec![(1, total), (0, total), (16, w13), (15, w13), (14, w13)];
        let got_emitted: Vec<(u32, (u64, u32))> =
            got.emitted.iter().map(|&(p, w, c)| (p.0, (w, c))).collect();
        assert_eq!(got_emitted, want);
        assert_eq!(got.searched, 4);
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
        // And back: the bitsets re-target the small graph in place.
        assert!(index.reaches_with(&small, NodeId::new(0), NodeId::new(4), &mut scratch));
        assert!(!index.reaches_with(&small, NodeId::new(5), NodeId::new(4), &mut scratch));
        assert_eq!(scratch.universe(), small.node_count());
    }
}
