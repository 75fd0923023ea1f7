//! `GreedyDAG` — the efficient rounded-greedy instantiation for DAG
//! hierarchies (Alg. 6 + Alg. 7 of the paper, guarantee from Theorem 1).
//!
//! Weights are first rounded to integers by Eq. (1), which both enables the
//! `2(1 + 3 ln n)` approximation bound and makes the incremental bookkeeping
//! exact (no floating drift). Per round, the policy needs the *middle
//! point*: the candidate minimising `|2·w̃(v) − w̃(r)|` over the frontier of
//! the current root `r` — a child `v` with `2·w̃(v) ≤ w̃(r)` dominates all
//! its descendants, so nothing below it is ever a better split.
//!
//! # Incremental frontier
//!
//! The pruned BFS that discovers the frontier is re-derivable from scratch
//! every round (that is [`GreedyDagPolicy::reference`], the differential
//! oracle), but its result changes only by O(Δ) per answer, so the policy
//! keeps it as **persistent state**: the *cone* (alive nodes under `r` with
//! `2·w̃ > w̃(r)`) and the *boundary* (their alive light children). Because
//! `w̃` is monotone along DAG edges, cone membership is a purely local
//! predicate — every alive path from `r` to a heavy node runs through heavy
//! nodes — which is what makes incremental maintenance exact:
//!
//! * a *no* answer dooms `D = alive ∩ G_q`: `observe` repairs every alive
//!   ancestor (the root included) via
//!   [`aigs_graph::ReachIndex::doomed_contributions`], whose cost follows
//!   what changes — the ancestors of `q` take `D`'s total (`q`'s own
//!   aggregates) in O(1) each, and only the ancestors that reach `D`
//!   around `q`, through its multi-parent *entry nodes*, are priced (a
//!   doom on a tree prices none). It then clears `D` from the alive set
//!   one mask word at a time and runs the frontier invalidation checks
//!   below;
//! * a shrinking total promotes boundary nodes into the cone; `select`
//!   re-scans the flat frontier lists, promoting and expanding where
//!   `2·w̃ > w̃(r)` now holds (each promotion scans its children once);
//! * a *yes* answer re-roots at `q`; when `q` was a member of the current
//!   heavy cone **and** the reach index stores `G_q` as a materialised row
//!   ([`aigs_graph::ReachIndex::stored_mask`]), the next `select`
//!   **re-roots onto the already-computed sub-frontier**: surviving cone
//!   members are exactly the old cone ∩ `G_q` (they stay heavy under the
//!   smaller total), surviving boundary members are the old boundary ∩
//!   `G_q` entries with a parent in the new cone, and the ordinary
//!   promotion cascade discovers everything the shrunken total newly
//!   uncovers — bit-identical to the pruned BFS from `q`, without
//!   re-walking the cone's edges. Without a stored row (trees and DAGs
//!   alike) the mask itself would cost a DFS over `G_q`, so the policy
//!   rebuilds from scratch instead;
//! * the rare non-local events — a cone member falling light (demotion) or
//!   the `count_mode` fallback flipping because the alive rounded weight
//!   hit zero — conservatively invalidate the frontier; the next `select`
//!   rebuilds it from scratch, which is always exact.
//!
//! Rollback restores the aggregates, the alive set and the root from the
//! journal and **invalidates** the frontier: the next `select` rebuilds
//! it. The frontiers worth keeping warm are the first rounds', which every
//! session on an instance repeats: the policy is deterministic in (DAG,
//! prior, answers), so all sessions ask the same first question and each
//! answer leads to the same next state. The rebuild that derives the base
//! frontier (empty journal) therefore writes an **opening book**: for
//! every answer prefix up to `BOOK_DEPTH` answers under a non-zero cache
//! token (only the empty prefix without one), a node holding the state's
//! post-`select` cone and boundary, its count mode and its pick, plus the
//! redo deltas of the answer that leads there — the `wt`/`cnt` slots and
//! alive words the step wrote, with their *new* values, read off the
//! journal's top step (`select` writes none of them). The book is
//! immutable and sits in an `Arc`, so every clone of a warm prototype
//! shares one. An `observe` at a book node whose query is the node's pick
//! replays the child's deltas through the journal (it logs each slot's
//! current value before writing the stored one, so undo, token reset and
//! crash recovery cannot tell it from a computed step) and moves the
//! book cursor; the next `select` returns the stored pick without a scan.
//! Any other `observe` first swaps the node's lists and tags in as the
//! live frontier, then takes the ordinary path. Each journal step records
//! the book node it started from, so a pop back onto a booked state —
//! including the one that empties the journal — lands on a warm frontier,
//! and a cache-token `reset` lands on the book's root.
//!
//! # Memory
//!
//! An instance owns only its session: the aggregates `w̃`/`ñ` (12 bytes
//! a node), the alive bitset, the frontier tags (a byte a node), the cone
//! and boundary lists and the journal — about 42 KB at n = 3 000. It
//! shares the plan's constants with every clone of the instance that
//! derived them: the rounded weights `w` (8 bytes a node) and the opening
//! book, each behind an `Arc`, computed on a cold `reset` and kept across
//! token resets. It borrows the per-call buffers (visited marks, BFS
//! queue, re-root and repair lists, the [`ReachScratch`]) from its
//! thread's scratch arena, only for the traversal or repair that needs
//! them.
//!
//! [`ReachScratch`]: aigs_graph::ReachScratch

use std::sync::Arc;

use aigs_graph::{NodeBitSet, NodeId, ReachIndex};

use crate::policy::scratch::with_scratch;
use crate::policy::StepJournal;
use crate::{Policy, SearchContext};

/// `fr_state` tag: not part of the frontier.
const FR_OUT: u8 = 0;
/// `fr_state` tag: light boundary candidate.
const FR_BOUNDARY: u8 = 1;
/// `fr_state` tag: heavy cone member.
const FR_CONE: u8 = 2;

/// The payload of one journal step.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The root before the step.
    root: NodeId,
    /// The book node the step started from, if the state was booked.
    book: Option<u32>,
}

/// One state of the opening book. Node 0 is the base state (empty
/// journal); every other node is the state one booked answer below its
/// parent.
#[derive(Debug)]
struct BookNode {
    /// The state's known-yes root.
    root: NodeId,
    /// The state's balancing mode (`w̃(root) == 0`).
    count_mode: bool,
    /// What `select` returns in this state.
    pick: NodeId,
    /// The post-`select` cone and boundary, with exact cached scores.
    cone: Vec<(NodeId, u64)>,
    boundary: Vec<(NodeId, u64)>,
    /// Redo deltas of the answer at the parent's pick that leads here:
    /// `(slot, new value)` for `wt`, `cnt` and the alive words.
    wt: Vec<(u32, u64)>,
    cnt: Vec<(u32, u32)>,
    words: Vec<(u32, u64)>,
    /// Child per answer (`[no, yes]`); 0 when that answer is not booked
    /// (node 0 is never a child).
    next: [u32; 2],
}

impl BookNode {
    /// Inline and heap bytes.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + (self.cone.capacity() + self.boundary.capacity()) * size_of::<(NodeId, u64)>()
            + (self.wt.capacity() + self.words.capacity()) * size_of::<(u32, u64)>()
            + self.cnt.capacity() * size_of::<(u32, u32)>()
    }
}

/// Efficient rounded-greedy policy for DAGs (also correct on trees).
///
/// Rollback state lives in a [`StepJournal`]: `observe` records only the
/// `(index, old value)` deltas it writes (one aggregated repair per alive
/// ancestor of the doomed subgraph, word-granular alive-bitset clears) plus
/// the previous root and book node. `unobserve` replays them — O(Δ) per
/// query, no allocation on the hot path — and invalidates the frontier
/// unless it lands on a booked state. Under a stable
/// [`SearchContext::cache_token`], `reset` unwinds the previous session's
/// journal instead of recomputing (or cloning) the O(n·m) base state, and
/// lands on the opening book's root; clones share the book and the rounded
/// weights.
#[derive(Debug, Clone)]
pub struct GreedyDagPolicy {
    /// Rounded node weights `w(v)` (Eq. 1), shared by every clone.
    w: Arc<[u64]>,
    /// `w̃(v)` — rounded weight of the *alive* subgraph of `v`. Entries of
    /// dead nodes are stale (their last alive value): nothing reads a dead
    /// node's aggregate, and revival always happens through the journal,
    /// which restores the exact pre-step values.
    wt: Vec<u64>,
    /// `ñ(v)` — alive node count of the subgraph of `v` (same staleness
    /// rule as `wt`).
    cnt: Vec<u32>,
    /// Alive set as a bitset: deletions journal whole 64-bit words.
    alive: NodeBitSet,
    root: NodeId,
    /// One step per `observe`.
    journal: StepJournal<Step>,
    /// Token the current base state (`w`/`wt`/`cnt`) was derived under.
    base_token: u64,
    /// From-scratch differential oracle: when set, `select` re-runs the
    /// pruned BFS every round and no frontier state is kept.
    reference: bool,

    /// The opening book, shared by every clone of the instance that wrote
    /// it; `None` until the base frontier is derived.
    book: Option<Arc<[BookNode]>>,
    /// The book node describing the current state, if any. While set, the
    /// node's lists are the frontier and the live lists below are stale
    /// (but still tag-consistent).
    at_book: Option<u32>,

    // Persistent frontier (valid when `fr_valid` and `fr_root`/
    // `fr_count_mode` match the current root and mode).
    fr_valid: bool,
    fr_root: NodeId,
    fr_count_mode: bool,
    /// Per-node frontier tag (`FR_OUT`/`FR_BOUNDARY`/`FR_CONE`). Tags of
    /// dead nodes are stale until revival; every reader checks `alive`
    /// first.
    fr_state: Vec<u8>,
    /// Heavy cone members with their cached scores, in discovery order.
    /// May contain dead entries until the next scan drops them. The inline
    /// score is the member's `w̃`/`ñ` under `fr_count_mode`, refreshed
    /// lazily (see `fr_rescore`) — it turns the steady-state scan into a
    /// sequential pass over `(id, score)` pairs instead of a random
    /// `wt`/`cnt` gather per entry.
    cone: Vec<(NodeId, u64)>,
    /// Boundary candidates with their cached scores, in discovery order.
    /// May contain dead or promoted entries (skipped via
    /// `alive`/`fr_state`); same score-caching contract as `cone`.
    boundary: Vec<(NodeId, u64)>,
    /// Set whenever cached list scores may have drifted from `wt`/`cnt`,
    /// i.e. after a *no* repair. The next incremental scan refreshes every
    /// kept entry (exactly the loads the scan performed unconditionally
    /// before caching) and clears this.
    fr_rescore: bool,

    /// Pruned-BFS runs so far (`rebuild_frontier` calls, in either mode)
    /// outside book writing: the exact work counter the re-root drill and
    /// warm-reset tests pin.
    #[cfg(test)]
    rebuilds: usize,
    /// `doomed_contributions` calls so far, outside book writing.
    #[cfg(test)]
    dooms: usize,
    /// Pruned-BFS runs spent writing opening books.
    #[cfg(test)]
    book_rebuilds: usize,
}

impl GreedyDagPolicy {
    /// Answers the opening book covers under a cache token: it serves the
    /// `select`s of rounds 0 to `BOOK_DEPTH` and the `observe`s of rounds 0
    /// to `BOOK_DEPTH - 1`. Depth 2 covers the rounds whose *no* repairs
    /// and frontier scans are costliest on `imagenet_like` (each about
    /// 2–4 µs in rounds 0 and 1 against at most ~1 µs from round 4 on);
    /// every extra level doubles the book for a saving that keeps halving.
    #[doc(hidden)]
    pub const BOOK_DEPTH: usize = 2;

    /// New, un-reset policy with the incremental frontier enabled.
    pub fn new() -> Self {
        Self::build(false)
    }

    /// The retained differential oracle: identical policy semantics, but
    /// `select` re-derives the frontier from scratch every round (the
    /// paper's Alg. 6 executed naively). Transcripts are bit-identical to
    /// [`GreedyDagPolicy::new`] on every hierarchy, backend and answer
    /// sequence — that equivalence is what the differential test harness
    /// asserts.
    pub fn reference() -> Self {
        Self::build(true)
    }

    fn build(reference: bool) -> Self {
        GreedyDagPolicy {
            w: Arc::from([]),
            wt: Vec::new(),
            cnt: Vec::new(),
            alive: NodeBitSet::empty(0),
            root: NodeId::SENTINEL,
            journal: StepJournal::new(),
            base_token: 0,
            reference,
            book: None,
            at_book: None,
            fr_valid: false,
            fr_root: NodeId::SENTINEL,
            fr_count_mode: false,
            fr_state: Vec::new(),
            cone: Vec::new(),
            boundary: Vec::new(),
            fr_rescore: false,
            #[cfg(test)]
            rebuilds: 0,
            #[cfg(test)]
            dooms: 0,
            #[cfg(test)]
            book_rebuilds: 0,
        }
    }

    /// True when this instance is the from-scratch differential oracle.
    pub fn is_reference(&self) -> bool {
        self.reference
    }

    /// The live frontier as sorted `(cone, boundary)` id lists — empty when
    /// no frontier is currently valid. Test-facing introspection for the
    /// differential harness; not part of the stable API.
    #[doc(hidden)]
    pub fn frontier_snapshot(&self) -> (Vec<u32>, Vec<u32>) {
        if let Some(node) = self.book_node() {
            let sorted = |list: &[(NodeId, u64)]| {
                let mut v: Vec<u32> = list.iter().map(|(x, _)| x.0).collect();
                v.sort_unstable();
                v
            };
            return (sorted(&node.cone), sorted(&node.boundary));
        }
        if !self.fr_valid {
            return (Vec::new(), Vec::new());
        }
        let live = |tag: u8| {
            let mut v: Vec<u32> = self
                .cone
                .iter()
                .chain(self.boundary.iter())
                .filter(|(x, _)| self.alive.contains(*x) && self.fr_state[x.index()] == tag)
                .map(|(x, _)| x.0)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        (live(FR_CONE), live(FR_BOUNDARY))
    }

    /// The alive-masked frontier aggregates as `(alive ids, w̃, ñ)`; dead
    /// nodes report zero (their stored entries are deliberately stale).
    /// Test-facing introspection: the journal-rollback fuzz compares these
    /// bit-for-bit against a cold `compute_base` rebuild.
    #[doc(hidden)]
    pub fn aggregates_snapshot(&self) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
        let n = self.wt.len();
        let mut ids = Vec::new();
        let mut wt = vec![0u64; n];
        let mut cnt = vec![0u32; n];
        for i in 0..n {
            if self.alive.contains(NodeId::new(i)) {
                ids.push(i as u32);
                wt[i] = self.wt[i];
                cnt[i] = self.cnt[i];
            }
        }
        (ids, wt, cnt)
    }

    /// The current known-yes root. Test-facing introspection.
    #[doc(hidden)]
    pub fn debug_root(&self) -> NodeId {
        self.root
    }

    /// Whether a frontier for the current root and mode is live (i.e. the
    /// next `select` takes the incremental path).
    #[doc(hidden)]
    pub fn frontier_live(&self) -> bool {
        !self.reference
            && !self.root.is_sentinel()
            && (self.at_book.is_some()
                || (self.fr_valid
                    && self.fr_root == self.root
                    && self.fr_count_mode == (self.wt[self.root.index()] == 0)))
    }

    /// Whether `self` and `other` share one opening book (both hold one,
    /// behind the same `Arc`). Test-facing introspection.
    #[doc(hidden)]
    pub fn shares_opening_book(&self, other: &Self) -> bool {
        matches!((&self.book, &other.book), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Whether `self` and `other` share one rounded-weight array (both were
    /// reset, and behind the same `Arc`). Test-facing introspection.
    #[doc(hidden)]
    pub fn shares_rounded_weights(&self, other: &Self) -> bool {
        !self.w.is_empty() && Arc::ptr_eq(&self.w, &other.w)
    }

    /// Heap and inline bytes of the opening book (0 without one).
    /// Test-facing introspection.
    #[doc(hidden)]
    pub fn opening_book_bytes(&self) -> usize {
        self.book
            .as_deref()
            .map_or(0, |book| book.iter().map(BookNode::bytes).sum())
    }

    /// The book node describing the current state, if any.
    fn book_node(&self) -> Option<&BookNode> {
        let at = self.at_book?;
        Some(&self.book.as_deref().expect("a book cursor implies a book")[at as usize])
    }

    #[inline]
    fn score(&self, count_mode: bool, v: NodeId) -> u64 {
        if count_mode {
            self.cnt[v.index()] as u64
        } else {
            self.wt[v.index()]
        }
    }

    /// Replays one journal step; returns `false` on an empty journal. The
    /// frontier is invalidated, unless the step started from a booked
    /// state, in which case the book node is the frontier again.
    fn unwind_one(&mut self) -> bool {
        let wt = &mut self.wt;
        let cnt = &mut self.cnt;
        let alive = &mut self.alive;
        let Some(step) = self.journal.pop_with(
            |slot, old| wt[slot] = old,
            |slot, old| cnt[slot] = old,
            |_| {},
            |word, old| alive.restore_word(word, old),
            |_| {},
        ) else {
            return false;
        };
        self.root = step.root;
        self.at_book = step.book;
        self.fr_valid = false;
        true
    }

    /// Moves from book node `at` to its child for the answer `yes` at `q`,
    /// journalling into the step `observe` just opened: every stored slot
    /// logs its current value before taking the stored one. Returns `false`
    /// (nothing written) when `q` is not the node's pick or the answer is
    /// not booked.
    fn follow_book(&mut self, at: u32, q: NodeId, yes: bool) -> bool {
        let book = self.book.as_deref().expect("a book cursor implies a book");
        let node = &book[at as usize];
        let next = node.next[yes as usize];
        if node.pick != q || next == 0 {
            return false;
        }
        let child = &book[next as usize];
        for &(slot, v) in &child.wt {
            let slot = slot as usize;
            self.journal.log_u64(slot, self.wt[slot]);
            self.wt[slot] = v;
        }
        for &(slot, v) in &child.cnt {
            let slot = slot as usize;
            self.journal.log_u32(slot, self.cnt[slot]);
            self.cnt[slot] = v;
        }
        for &(i, v) in &child.words {
            let i = i as usize;
            self.journal.log_word(i, self.alive.word(i));
            self.alive.set_word(i, v);
        }
        self.root = child.root;
        self.at_book = Some(next);
        true
    }

    /// Leaves the book: the current node's lists and tags become the live
    /// frontier. Every tagged node is a live list entry, so clearing the
    /// tags of the current entries clears them all; the node's cached
    /// scores were taken at this very state, so they are exact.
    fn leave_book(&mut self) {
        let Some(at) = self.at_book.take() else {
            return;
        };
        let node = &self.book.as_deref().expect("a book cursor implies a book")[at as usize];
        for (x, _) in self.cone.iter().chain(self.boundary.iter()) {
            self.fr_state[x.index()] = FR_OUT;
        }
        self.cone.clone_from(&node.cone);
        self.boundary.clone_from(&node.boundary);
        for (x, _) in &self.cone {
            self.fr_state[x.index()] = FR_CONE;
        }
        for (x, _) in &self.boundary {
            self.fr_state[x.index()] = FR_BOUNDARY;
        }
        self.fr_valid = true;
        self.fr_root = node.root;
        self.fr_count_mode = node.count_mode;
        self.fr_rescore = false;
    }

    /// Writes the opening book from the base state, whose frontier the
    /// rebuild that returned `pick` has just derived: the root node, then
    /// (under a cache token) every answer prefix up to `BOOK_DEPTH`,
    /// explored with ordinary observe/select/unobserve calls. Leaves the
    /// policy at the base state on the book's root.
    fn write_book(&mut self, ctx: &SearchContext<'_>, pick: NodeId) {
        #[cfg(test)]
        let work = (self.rebuilds, self.dooms);
        let mut nodes = vec![self.booked_state(pick)];
        if self.base_token != 0 {
            self.extend_book(ctx, &mut nodes, 0, Self::BOOK_DEPTH);
        }
        #[cfg(test)]
        {
            self.book_rebuilds += self.rebuilds - work.0;
            (self.rebuilds, self.dooms) = work;
        }
        self.book = Some(nodes.into());
        self.at_book = Some(0);
        self.fr_valid = false;
    }

    /// Books both answers at node `at`'s pick and, below each, the rest of
    /// the `depth` answers still to book along the path.
    fn extend_book(
        &mut self,
        ctx: &SearchContext<'_>,
        nodes: &mut Vec<BookNode>,
        at: usize,
        depth: usize,
    ) {
        let pick = nodes[at].pick;
        for yes in [false, true] {
            self.observe(ctx, pick, yes);
            if self.resolved().is_none() {
                let next = self.select(ctx);
                let mut node = self.booked_state(next);
                let logs = self.journal.top().expect("observe opened a step");
                node.wt = logs
                    .u64s
                    .iter()
                    .map(|&(s, _)| (s, self.wt[s as usize]))
                    .collect();
                node.cnt = logs
                    .u32s
                    .iter()
                    .map(|&(s, _)| (s, self.cnt[s as usize]))
                    .collect();
                node.words = logs
                    .words
                    .iter()
                    .map(|&(i, _)| (i, self.alive.word(i as usize)))
                    .collect();
                nodes.push(node);
                let child = nodes.len() - 1;
                nodes[at].next[yes as usize] = child as u32;
                if depth > 1 {
                    self.extend_book(ctx, nodes, child, depth - 1);
                }
            }
            self.unobserve(ctx);
        }
    }

    /// A book node for the current state, right after a `select` that
    /// returned `pick` on the live path (no redo deltas, no children).
    fn booked_state(&self, pick: NodeId) -> BookNode {
        debug_assert!(self.fr_valid && self.fr_root == self.root);
        BookNode {
            root: self.root,
            count_mode: self.fr_count_mode,
            pick,
            cone: self.cone.clone(),
            boundary: self.boundary.clone(),
            wt: Vec::new(),
            cnt: Vec::new(),
            words: Vec::new(),
            next: [0; 2],
        }
    }

    /// Initial `w̃` / `ñ`: the per-node descendant aggregation the paper
    /// prescribes (O(n·m) worst case), delegated to the shared
    /// [`aigs_graph::ReachIndex`] — a closure-backed index does one
    /// word-level row walk per node, interval/BFS backends (and an absent
    /// index) traverse. The sums are rounded `u64` weights, so every
    /// backend produces bit-identical base arrays (and hence identical
    /// transcripts). Writes into the policy's own arrays, reusing their
    /// capacity.
    fn compute_base(&mut self, ctx: &SearchContext<'_>) {
        let dag = ctx.dag;
        let n = dag.node_count();
        let w = &self.w;
        self.wt.clear();
        self.wt.resize(n, 0);
        self.cnt.clear();
        self.cnt.resize(n, 0);
        let index = ctx.reach.unwrap_or(&ReachIndex::Bfs);
        with_scratch(|s| {
            for v in dag.nodes() {
                let (wsum, csum) = index.descendant_weight_count(dag, v, w, &mut s.reach);
                self.wt[v.index()] = wsum;
                self.cnt[v.index()] = csum;
            }
        });
    }

    /// From-scratch frontier derivation: the pruned BFS of Alg. 6
    /// (lines 4–11), which doubles as the reference `select`. In
    /// incremental mode it additionally records the cone and boundary it
    /// discovers.
    fn rebuild_frontier(
        &mut self,
        ctx: &SearchContext<'_>,
        count_mode: bool,
        total: u64,
    ) -> NodeId {
        #[cfg(test)]
        {
            self.rebuilds += 1;
        }
        let r = self.root;
        let record = !self.reference;
        if record {
            for (x, _) in self.cone.iter().chain(self.boundary.iter()) {
                self.fr_state[x.index()] = FR_OUT;
            }
            self.cone.clear();
            self.boundary.clear();
        }
        let mut best: Option<(u64, NodeId)> = None;
        with_scratch(|s| {
            s.visited.grow(ctx.dag.node_count());
            s.visited.clear();
            s.queue.clear();
            s.visited.insert(r);
            s.queue.push_back(r);
            while let Some(u) = s.queue.pop_front() {
                for &c in ctx.dag.children(u) {
                    if !self.alive.contains(c) || !s.visited.insert(c) {
                        continue;
                    }
                    let sc = self.score(count_mode, c);
                    let balance = (2 * sc).abs_diff(total);
                    let better = match best {
                        None => true,
                        Some((bb, bc)) => balance < bb || (balance == bb && c < bc),
                    };
                    if better {
                        best = Some((balance, c));
                    }
                    // Children with 2·w̃ ≤ w̃(r) dominate their descendants:
                    // prune the subtree.
                    if 2 * sc > total {
                        s.queue.push_back(c);
                        if record {
                            self.fr_state[c.index()] = FR_CONE;
                            self.cone.push((c, sc));
                        }
                    } else if record {
                        self.fr_state[c.index()] = FR_BOUNDARY;
                        self.boundary.push((c, sc));
                    }
                }
            }
        });
        if record {
            self.fr_valid = true;
            self.fr_root = r;
            self.fr_count_mode = count_mode;
            self.fr_rescore = false;
        }
        best.expect("unresolved root has an alive child").1
    }

    /// Re-root reuse: after a *yes* at a node that was a member of the
    /// still-valid heavy cone, derive the new root's frontier from the
    /// existing one in **O(dropped region)** instead of re-running the
    /// pruned BFS over the whole surviving cone. The walk starts at the old
    /// root and descends only through cone members *outside* `G_root`
    /// (descendants of a survivor are survivors, so pruning at the `G_root`
    /// mask is exact), clearing their tags; boundary children met along the
    /// way are re-qualified against the surviving cone. List entries are
    /// not touched here — the dropped tags make them stale, and the next
    /// `select` scan compacts stale entries out as it passes (the lists are
    /// *consistent garbage*: every reader is tag-checked).
    ///
    /// Returns `false` (caller rebuilds) when the frontier is invalid, the
    /// new root was not a cone member, or the reach backend has no
    /// materialised row for it (without one the mask itself would cost a
    /// DFS over `G_root` — more than the rebuild it replaces).
    ///
    /// Exactness (every claim backed by `w̃`-monotonicity over the
    /// ancestor-closed alive set, and proven wholesale by the differential
    /// suite):
    /// * modes agree — a cone member's score is pinned strictly positive in
    ///   weight mode and zero-total in count mode, so `fr_count_mode` never
    ///   disagrees with the new root's mode;
    /// * the new total `w̃(root)` is ≤ the old one, so old cone members in
    ///   `G_root` are still heavy and cone membership stays the same local
    ///   predicate the BFS applies — old cone ∩ `G_root` minus the root is
    ///   exactly the surviving cone. The walk unreaches exactly its
    ///   complement: dead subtrees are skipped (dead tags are already
    ///   stale to every reader), and alive dropped members are all
    ///   reachable from the old root through alive dropped members (alive
    ///   is ancestor-closed; an alive path into `G_root` never leaves it);
    /// * an old boundary member survives iff the BFS from the new root
    ///   would discover it: some parent is the root or in the new cone (a
    ///   boundary node whose in-mask parents are all light sits below the
    ///   pruning line and must drop, even though it is in `G_root`). The
    ///   re-qualification tests this as `fr_state[p] == FR_CONE` after the
    ///   walk — exact because a qualifying parent not yet tagged (heavy
    ///   only under the new total) re-adds the dropped member when the
    ///   scan's promotion cascade reaches it;
    /// * nodes the old frontier never discovered (below the old pruning
    ///   line, heavy only under the new total) enter through the ordinary
    ///   promotion cascade of the incremental `select` scan, exactly as a
    ///   BFS would reach them — their ancestors in `G_root` are heavy too,
    ///   so the promotion chain never stalls.
    fn try_reroot(&mut self, ctx: &SearchContext<'_>, count_mode: bool) -> bool {
        let r = self.root;
        if !self.fr_valid || self.fr_root == r || self.fr_state[r.index()] != FR_CONE {
            return false;
        }
        let Some(mask) = ctx.reach.and_then(|ix| ix.stored_mask(r)) else {
            return false;
        };
        debug_assert!(self.alive.contains(r));
        debug_assert_eq!(
            self.fr_count_mode, count_mode,
            "cone membership pins the balancing mode"
        );
        // The new root stops being a member of its own frontier.
        self.fr_state[r.index()] = FR_OUT;
        // The FR_CONE → FR_OUT transition doubles as the visited marker (it
        // fires once per node), so the walk needs no `VisitedSet` and no
        // alive checks: dead cone-tagged regions are cleared like live ones
        // (their entries were already invisible to the scan, and undo
        // invalidates the frontier, so no undo relies on them), and a
        // boundary child pushed twice through diamond parents is merely
        // re-qualified idempotently.
        let fr_state = &mut self.fr_state;
        with_scratch(|s| {
            s.queue.clear();
            s.requal.clear();
            s.queue.push_back(self.fr_root);
            while let Some(u) = s.queue.pop_front() {
                for &c in ctx.dag.children(u) {
                    match fr_state[c.index()] {
                        FR_CONE if !mask.contains(c) => {
                            fr_state[c.index()] = FR_OUT;
                            s.queue.push_back(c);
                        }
                        FR_BOUNDARY => s.requal.push(c),
                        _ => {}
                    }
                }
            }
            for &b in &s.requal {
                let keep = mask.contains(b)
                    && ctx
                        .dag
                        .parents(b)
                        .iter()
                        .any(|&p| p == r || fr_state[p.index()] == FR_CONE);
                if !keep {
                    fr_state[b.index()] = FR_OUT;
                }
            }
        });
        self.fr_root = r;
        self.fr_count_mode = count_mode;
        true
    }

    /// Applies a *no* answer at `q`: repairs every alive ancestor of the
    /// doomed set `D = alive ∩ G_q`, clears `D` from the alive set one word
    /// at a time and runs the frontier invalidation checks, journalling
    /// into the step `observe` just opened.
    fn doom(&mut self, ctx: &SearchContext<'_>, q: NodeId) {
        // AdjustWeight (Alg. 7), aggregated: `doomed_contributions` builds
        // `D` as a word mask and calls back once per alive non-doomed
        // ancestor, which journals its old `w̃`/`ñ` before the single
        // subtraction. `D`'s own totals are `q`'s aggregates. Doomed
        // nodes keep their last alive aggregates (nothing reads a dead
        // node, and undo revives bit-exactly), so the journal carries
        // O(|ancestors|) entries instead of one per (ancestor, doomed) pair.
        #[cfg(test)]
        {
            self.dooms += 1;
        }
        let index = ctx.reach.unwrap_or(&ReachIndex::Bfs);
        let total = (self.wt[q.index()], self.cnt[q.index()]);
        let watch = self.fr_valid && self.fr_root == self.root;
        with_scratch(|s| {
            s.touched.clear();
            let journal = &mut self.journal;
            let wt = &mut self.wt;
            let cnt = &mut self.cnt;
            let fr_state = &self.fr_state;
            let touched = &mut s.touched;
            let (doomed, words) = index.doomed_contributions(
                ctx.dag,
                q,
                total,
                &self.alive,
                &self.w,
                &mut s.reach,
                |p, wv, cv| {
                    journal.log_u64(p.index(), wt[p.index()]);
                    journal.log_u32(p.index(), cnt[p.index()]);
                    wt[p.index()] -= wv;
                    cnt[p.index()] -= cv;
                    if watch && fr_state[p.index()] == FR_CONE {
                        touched.push(p);
                    }
                },
            );
            // The nodes die, one journalled alive word per non-zero mask
            // word. Frontier tags of dead nodes go stale on purpose: every
            // reader checks `alive` first.
            for &i in words {
                let i = i as usize;
                let old = self.alive.word(i);
                self.journal.log_word(i, old);
                self.alive.set_word(i, old & !doomed.word(i));
            }
            // Frontier bookkeeping: the two non-local events — the
            // count-mode fallback flipping (the alive rounded weight hit
            // zero) and a repaired cone member falling light — invalidate
            // the frontier; the next `select` rebuilds it from scratch. A
            // doom landing while the frontier still describes an *earlier*
            // root also invalidates: the retained member scores are now
            // stale, so re-root reuse would diverge from the pruned BFS.
            if self.fr_valid {
                if self.fr_root != self.root {
                    self.fr_valid = false;
                } else {
                    let new_mode = self.wt[self.root.index()] == 0;
                    if new_mode != self.fr_count_mode {
                        self.fr_valid = false;
                    } else {
                        let total = self.score(new_mode, self.root);
                        if s.touched
                            .iter()
                            .any(|&p| 2 * self.score(new_mode, p) <= total)
                        {
                            self.fr_valid = false;
                        }
                    }
                }
            }
        });
        // Repairs moved `wt`/`cnt` under surviving list members; their
        // cached scores refresh at the next scan.
        self.fr_rescore = true;
    }
}

impl Default for GreedyDagPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for GreedyDagPolicy {
    fn name(&self) -> &'static str {
        if self.reference {
            "greedy-dag-scratch"
        } else {
            "greedy-dag"
        }
    }

    fn reset(&mut self, ctx: &SearchContext<'_>) {
        let n = ctx.dag.node_count();
        if ctx.cache_token != 0 && self.base_token == ctx.cache_token && self.wt.len() == n {
            // Same instance as the previous session: unwinding the journal
            // restores the exact base state — landing on the opening book's
            // root, once written — in O(previous session's deltas) instead
            // of an O(n) clone (or O(n·m) recompute).
            while self.unwind_one() {}
            self.root = ctx.dag.root();
            return;
        }
        self.w = ctx.weights.rounded().into();
        self.compute_base(ctx);
        if self.alive.universe() != n {
            self.alive = NodeBitSet::full(n);
        } else {
            self.alive.fill();
        }
        self.root = ctx.dag.root();
        self.journal.clear();
        self.book = None;
        self.at_book = None;
        self.fr_rescore = false;
        self.base_token = ctx.cache_token;
        self.fr_valid = false;
        self.fr_root = NodeId::SENTINEL;
        self.fr_count_mode = false;
        self.fr_state.clear();
        self.fr_state.resize(n, FR_OUT);
        self.cone.clear();
        self.boundary.clear();
    }

    fn resolved(&self) -> Option<NodeId> {
        if self.root.is_sentinel() {
            return None;
        }
        if self.cnt[self.root.index()] == 1 {
            Some(self.root)
        } else {
            None
        }
    }

    fn select(&mut self, ctx: &SearchContext<'_>) -> NodeId {
        debug_assert!(self.resolved().is_none());
        if let Some(node) = self.book_node() {
            return node.pick;
        }
        let r = self.root;
        // When every alive candidate has zero rounded weight (forced
        // zero-probability targets), balance on counts instead so the
        // search stays logarithmic.
        let count_mode = self.wt[r.index()] == 0;
        let total = self.score(count_mode, r);
        if self.reference {
            return self.rebuild_frontier(ctx, count_mode, total);
        }
        let fr_exact = self.fr_valid && self.fr_root == r && self.fr_count_mode == count_mode;
        if !fr_exact && !self.try_reroot(ctx, count_mode) {
            let pick = self.rebuild_frontier(ctx, count_mode, total);
            // The base frontier (a book's root is always the base state, so
            // an empty journal here means there is no book yet).
            if self.journal.is_empty() {
                self.write_book(ctx, pick);
            }
            return pick;
        }

        // Incremental path: the persistent frontier is exact for (r, mode);
        // only the shrunken total can move nodes across the heavy boundary,
        // and only upwards (boundary → cone), because unrepaired scores are
        // unchanged and repaired cone members were demotion-checked in
        // `observe`. Scan the flat lists, promoting and expanding as the
        // pruned BFS would discover. Entries whose tag moved on (re-root
        // drops, promoted duplicates) are compacted out as the scan passes
        // — dropping an invisible entry is semantically free. Dead entries
        // are dropped too, with their tags cleared, so every tagged node
        // stays a list entry: undo never revives a list (it invalidates the
        // frontier).
        let mut best: Option<(u64, NodeId)> = None;
        let consider = |s: u64, c: NodeId, best: &mut Option<(u64, NodeId)>| {
            let balance = (2 * s).abs_diff(total);
            let better = match *best {
                None => true,
                Some((bb, bc)) => balance < bb || (balance == bb && c < bc),
            };
            if better {
                *best = Some((balance, c));
            }
        };
        // When `fr_rescore` is armed (a repair may have moved `wt`/`cnt`),
        // refresh each kept entry's cached score — that pass is exactly the
        // per-entry gather the scan always paid before caching. Otherwise
        // the cached pairs are exact and the scan is a sequential compare.
        let rescore = self.fr_rescore;
        let mut j = 0;
        for i in 0..self.cone.len() {
            let (v, mut s) = self.cone[i];
            if self.fr_state[v.index()] != FR_CONE {
                continue;
            }
            if !self.alive.contains(v) {
                self.fr_state[v.index()] = FR_OUT;
                continue;
            }
            if rescore {
                s = self.score(count_mode, v);
            }
            self.cone[j] = (v, s);
            j += 1;
            debug_assert_eq!(s, self.score(count_mode, v), "stale cached cone score");
            debug_assert!(2 * s > total, "cone member fell light without a rebuild");
            consider(s, v, &mut best);
        }
        self.cone.truncate(j);
        let mut j = 0;
        let mut i = 0;
        while i < self.boundary.len() {
            let (b, mut s) = self.boundary[i];
            i += 1;
            if self.fr_state[b.index()] != FR_BOUNDARY {
                continue;
            }
            if !self.alive.contains(b) {
                self.fr_state[b.index()] = FR_OUT;
                continue;
            }
            if rescore {
                s = self.score(count_mode, b);
            }
            debug_assert_eq!(s, self.score(count_mode, b), "stale cached boundary score");
            consider(s, b, &mut best);
            if 2 * s > total {
                // Promotion: b joins the cone; its alive children join the
                // boundary and are evaluated by this very loop, cascading
                // exactly like the pruned BFS expansion. (A member the
                // re-root walk dropped for want of a tagged parent
                // re-enters here once that parent is promoted.)
                self.fr_state[b.index()] = FR_CONE;
                self.cone.push((b, s));
                for &c in ctx.dag.children(b) {
                    if self.alive.contains(c) && self.fr_state[c.index()] == FR_OUT {
                        self.fr_state[c.index()] = FR_BOUNDARY;
                        self.boundary.push((c, self.score(count_mode, c)));
                    }
                }
            } else {
                self.boundary[j] = (b, s);
                j += 1;
            }
        }
        self.boundary.truncate(j);
        self.fr_rescore = false;
        best.expect("unresolved root has an alive child").1
    }

    fn observe(&mut self, ctx: &SearchContext<'_>, q: NodeId, yes: bool) {
        self.journal.begin(Step {
            root: self.root,
            book: self.at_book,
        });
        if let Some(at) = self.at_book {
            if self.follow_book(at, q, yes) {
                return;
            }
            self.leave_book();
        }
        if yes {
            // Re-root: the frontier arrays still describe the old root; the
            // next `select` re-roots onto the surviving sub-frontier (or
            // rebuilds when `q` was not a cone member).
            self.root = q;
            return;
        }
        debug_assert!(self.alive.contains(q));
        debug_assert!(q != self.root, "a *no* at the root empties the space");
        self.doom(ctx, q);
    }

    fn unobserve(&mut self, _ctx: &SearchContext<'_>) {
        assert!(self.unwind_one(), "nothing to unobserve");
    }

    fn clone_box(&self) -> Box<dyn Policy + Send> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fresh_cache_token, NodeWeights, SearchContext};
    use aigs_graph::dag_from_edges;
    // Shared fixture (aigs-testutil returns `aigs_graph` types, which unify
    // with this crate's own `aigs_graph` dependency even inside unit
    // tests; its `aigs_core`-typed helpers would not).
    use aigs_testutil::fixtures::diamond;

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
    fn finds_all_targets_on_dag() {
        let g = diamond();
        let w = NodeWeights::from_masses(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyDagPolicy::new();
        for z in g.nodes() {
            assert_eq!(drive(&mut p, &ctx, z).0, z);
        }
    }

    #[test]
    fn finds_all_targets_on_tree() {
        let g = dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyDagPolicy::new();
        for z in g.nodes() {
            assert_eq!(drive(&mut p, &ctx, z).0, z);
        }
    }

    #[test]
    fn reference_oracle_finds_all_targets() {
        let g = diamond();
        let w = NodeWeights::from_masses(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyDagPolicy::reference();
        assert!(p.is_reference());
        assert_eq!(p.name(), "greedy-dag-scratch");
        for z in g.nodes() {
            assert_eq!(drive(&mut p, &ctx, z).0, z);
            assert!(!p.frontier_live(), "reference keeps no frontier");
        }
    }

    #[test]
    fn initial_weights_count_shared_descendants_once() {
        let g = diamond();
        let w = NodeWeights::uniform(6);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyDagPolicy::new();
        p.reset(&ctx);
        // G_2 = {2, 3, 4, 5}; G_1 = {1, 3, 4}; G_0 = all six.
        assert_eq!(p.cnt[2], 4);
        assert_eq!(p.cnt[1], 3);
        assert_eq!(p.cnt[0], 6);
        // Rounded uniform weights: every node has the same w, so w̃ ∝ ñ.
        assert_eq!(p.wt[0] / p.w[0], 6);
    }

    #[test]
    fn no_answer_repairs_all_ancestors() {
        let g = diamond();
        let w = NodeWeights::uniform(6);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyDagPolicy::new();
        p.reset(&ctx);
        let wt0 = p.wt.clone();
        let cnt0 = p.cnt.clone();
        // Eliminate G_3 = {3, 4}: node 1 loses both, node 2 loses both,
        // root loses both.
        p.observe(&ctx, NodeId::new(3), false);
        assert_eq!(p.cnt[0], cnt0[0] - 2);
        assert_eq!(p.cnt[1], cnt0[1] - 2);
        assert_eq!(p.cnt[2], cnt0[2] - 2);
        assert_eq!(p.cnt[5], cnt0[5]);
        assert!(!p.alive.contains(NodeId::new(3)) && !p.alive.contains(NodeId::new(4)));
        p.unobserve(&ctx);
        assert_eq!(p.wt, wt0);
        assert_eq!(p.cnt, cnt0);
        assert!(p.alive.contains(NodeId::new(3)) && p.alive.contains(NodeId::new(4)));
    }

    #[test]
    fn cache_token_short_circuits_reinit() {
        let g = diamond();
        let w = NodeWeights::uniform(6);
        let token = fresh_cache_token();
        let ctx = SearchContext::new(&g, &w).with_cache_token(token);
        let mut p = GreedyDagPolicy::new();
        p.reset(&ctx);
        let wt_first = p.wt.clone();
        // Mutate, then reset: the cached base must be restored verbatim.
        p.observe(&ctx, NodeId::new(2), false);
        p.reset(&ctx);
        assert_eq!(p.wt, wt_first);
        assert_eq!(p.alive.count(), 6);
    }

    #[test]
    fn cached_reset_restores_base_frontier() {
        let g = diamond();
        let w = NodeWeights::from_masses(vec![0.05, 0.05, 0.1, 0.3, 0.3, 0.2]).unwrap();
        let token = fresh_cache_token();
        let ctx = SearchContext::new(&g, &w).with_cache_token(token);
        let mut p = GreedyDagPolicy::new();
        p.reset(&ctx);
        let first = p.select(&ctx);
        let base_frontier = p.frontier_snapshot();
        assert!(p.frontier_live());
        // Run a partial session, then a token reset: the base frontier of
        // the first round must come back bit-exactly (so the next session
        // skips the cold root BFS).
        p.observe(&ctx, first, false);
        let _ = p.select(&ctx);
        p.reset(&ctx);
        assert!(p.frontier_live(), "token reset lands on a warm frontier");
        assert_eq!(p.frontier_snapshot(), base_frontier);
        assert_eq!(p.select(&ctx), first);

        // A yes-first session: the re-root reuses the frontier through the
        // closure mask, and the token reset still lands on the base
        // snapshot, so the next session's first select runs no BFS.
        let reach = ReachIndex::closure_for(&g);
        let ctx = ctx.with_reach(&reach);
        let mut p = GreedyDagPolicy::new();
        p.reset(&ctx);
        let first = p.select(&ctx);
        p.observe(&ctx, first, true);
        let _ = p.select(&ctx);
        p.reset(&ctx);
        assert!(p.frontier_live(), "reset after a re-root lands warm");
        let rebuilds = p.rebuilds;
        assert_eq!(p.select(&ctx), first);
        assert_eq!(p.rebuilds, rebuilds, "warm reset must not rebuild");
    }

    #[test]
    fn zero_weight_region_uses_count_balancing() {
        // All mass on the root: every candidate below has rounded weight 0,
        // yet searches for deep targets must stay short.
        let g = diamond();
        let w = NodeWeights::from_masses(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyDagPolicy::new();
        for z in g.nodes() {
            let (found, queries) = drive(&mut p, &ctx, z);
            assert_eq!(found, z);
            assert!(queries <= 4);
        }
    }

    #[test]
    fn select_picks_rounded_middle_point() {
        let g = diamond();
        // Mass concentrated under node 2's subgraph.
        let w = NodeWeights::from_masses(vec![0.05, 0.05, 0.1, 0.3, 0.3, 0.2]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyDagPolicy::new();
        p.reset(&ctx);
        // p(G_3) = 0.6, p(G_1) = 0.65, p(G_2) = 0.9: node 3 splits best
        // (|2·0.6 − 1| = 0.2 vs 0.3 vs 0.8).
        assert_eq!(p.select(&ctx), NodeId::new(3));
        // Repeated select without an observe is idempotent on both the
        // frontier and the answer.
        let snap = p.frontier_snapshot();
        assert_eq!(p.select(&ctx), NodeId::new(3));
        assert_eq!(p.frontier_snapshot(), snap);
    }
}

#[cfg(test)]
mod drill_probe {
    use super::*;
    use crate::{fresh_cache_token, NodeWeights, SearchContext};

    /// `levels` ranks of `width` nodes under the root, each rank fully
    /// connected to the next, keeping `ratio` of the remaining mass below
    /// every rank: a dense DAG whose heavy cone spans several ranks.
    fn yes_lattice(levels: usize, width: usize, ratio: f64) -> (aigs_graph::Dag, NodeWeights) {
        let n = 1 + levels * width;
        let at = |lvl: usize, i: usize| {
            if lvl == 0 {
                0
            } else {
                (1 + (lvl - 1) * width + i) as u32
            }
        };
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut masses = vec![0.0f64; n];
        let mut level_mass = 1.0f64;
        for lvl in 1..=levels {
            for i in 0..width {
                if lvl == 1 {
                    edges.push((0, at(1, i)));
                } else {
                    for j in 0..width {
                        edges.push((at(lvl - 1, j), at(lvl, i)));
                    }
                }
            }
            let share = if lvl == levels {
                level_mass
            } else {
                (1.0 - ratio) * level_mass
            };
            for i in 0..width {
                masses[at(lvl, i) as usize] = share / width as f64;
            }
            level_mass *= ratio;
        }
        let g = aigs_graph::dag_from_edges(n, &edges).unwrap();
        let w = NodeWeights::from_masses(masses).unwrap();
        (g, w)
    }

    /// Resets `p`, then runs one drill round per entry of `yes_at`: a
    /// `select`, whose pick is recorded, then a *yes* at that entry.
    fn drill(p: &mut GreedyDagPolicy, ctx: &SearchContext<'_>, yes_at: &[NodeId]) -> Vec<NodeId> {
        p.reset(ctx);
        yes_at
            .iter()
            .map(|&q| {
                let pick = p.select(ctx);
                p.observe(ctx, q, true);
                pick
            })
            .collect()
    }

    /// The drill-down regression guard on a dense DAG, through the
    /// closure backend's reach-mask walk: a *yes* at the first node of each
    /// rank re-roots one rank down with a multi-rank cone surviving. The
    /// incremental policy must pick what the from-scratch oracle picks
    /// while running the pruned BFS once, where the oracle runs it every
    /// round. A rebuild also leaves a valid frontier, so only the rebuild
    /// count shows whether re-root reuse still fires.
    #[test]
    fn lattice_drill_uses_reroot() {
        let (levels, width) = (24, 16);
        let (g, w) = yes_lattice(levels, width, 0.9);
        let reach = aigs_graph::ReachIndex::closure_for(&g);
        let ctx = SearchContext::new(&g, &w)
            .with_reach(&reach)
            .with_cache_token(fresh_cache_token());
        let yes_at: Vec<NodeId> = (1..levels)
            .map(|lvl| NodeId::new(1 + (lvl - 1) * width))
            .collect();
        let mut fast = GreedyDagPolicy::new();
        let mut scratch = GreedyDagPolicy::reference();
        assert!(!g.is_tree(), "the lattice exercises the non-tree walk");
        assert_eq!(
            drill(&mut fast, &ctx, &yes_at),
            drill(&mut scratch, &ctx, &yes_at)
        );
        assert_eq!(scratch.rebuilds, yes_at.len());
        assert_eq!(fast.rebuilds, 1, "lattice re-root reuse stopped firing");
    }

    /// The opening book's work guard: once one session has written the
    /// book, every later session on the instance, or on a clone of it,
    /// serves its first `BOOK_DEPTH` rounds with no `doomed_contributions`
    /// call and no pruned-BFS rebuild, for every target, and still finds
    /// the target. Without the book each booked *no* runs a doom.
    #[test]
    fn booked_rounds_run_no_repair_or_rebuild() {
        let g = aigs_testutil::dag_from_seed(300, 0.2, 17);
        let n = g.node_count();
        let w = NodeWeights::from_masses((0..n).map(|i| ((i * 37) % 101 + 1) as f64).collect())
            .unwrap();
        for reach in [
            aigs_graph::ReachIndex::closure_for(&g),
            aigs_graph::ReachIndex::Bfs,
        ] {
            let ctx = SearchContext::new(&g, &w)
                .with_reach(&reach)
                .with_cache_token(fresh_cache_token());
            let mut first = GreedyDagPolicy::new();
            first.reset(&ctx);
            let _ = first.select(&ctx);
            assert!(first.book_rebuilds > 0, "writing the book explores answers");
            let written = first.book_rebuilds;
            let mut clone = first.clone();
            let mut booked_noes = 0;
            for p in [&mut first, &mut clone] {
                for z in g.nodes() {
                    p.reset(&ctx);
                    let (rebuilds, dooms) = (p.rebuilds, p.dooms);
                    for _ in 0..GreedyDagPolicy::BOOK_DEPTH {
                        if p.resolved().is_some() {
                            break;
                        }
                        let q = p.select(&ctx);
                        let yes = g.reaches(q, z);
                        booked_noes += usize::from(!yes);
                        p.observe(&ctx, q, yes);
                    }
                    if p.resolved().is_none() {
                        let _ = p.select(&ctx);
                    }
                    assert_eq!(p.rebuilds, rebuilds, "booked rounds rebuilt, target {z}");
                    assert_eq!(p.dooms, dooms, "booked rounds repaired, target {z}");
                    let mut queries = 0;
                    while p.resolved().is_none() {
                        let q = p.select(&ctx);
                        p.observe(&ctx, q, g.reaches(q, z));
                        queries += 1;
                        assert!(queries < 4 * n);
                    }
                    assert_eq!(p.resolved(), Some(z));
                }
                assert_eq!(p.book_rebuilds, written, "the book is written once");
            }
            assert!(first.shares_opening_book(&clone));
            assert!(booked_noes > 0, "some booked round answers no");
        }
    }
}
