//! Reachability indexes.
//!
//! Three tiers, chosen by cost profile:
//!
//! 1. [`crate::Tree::in_subtree`] — O(1) on trees via Euler intervals.
//! 2. [`AncestorSet`] — per-target reverse BFS; O(n + m) once per search
//!    session, then O(1) per oracle query. This is what simulated oracles use.
//! 3. [`ReachClosure`] — full transitive closure as bitset rows (u64 blocks),
//!    O(n·m/64) to build and n²/8 bytes of memory; gives O(n/64)
//!    candidate-set intersections for DAG policies (WIGS on DAGs) and O(1)
//!    reachability tests.

use crate::{Dag, NodeId};

/// The ancestor set of a fixed target node: answers `reach(q)` for that
/// target in O(1).
#[derive(Debug, Clone)]
pub struct AncestorSet {
    target: NodeId,
    is_ancestor: Vec<bool>,
}

impl AncestorSet {
    /// Builds the ancestor set of `target` with one reverse BFS.
    pub fn new(dag: &Dag, target: NodeId) -> Self {
        let mut is_ancestor = vec![false; dag.node_count()];
        let mut stack = vec![target];
        is_ancestor[target.index()] = true;
        while let Some(u) = stack.pop() {
            for &p in dag.parents(u) {
                if !is_ancestor[p.index()] {
                    is_ancestor[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        AncestorSet {
            target,
            is_ancestor,
        }
    }

    /// The target this set was built for.
    #[inline]
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// `reach(q)`: true iff the target is reachable from `q`.
    #[inline]
    pub fn reach(&self, q: NodeId) -> bool {
        self.is_ancestor[q.index()]
    }
}

/// Number of `u64` blocks needed for `n` bits.
#[inline]
fn blocks_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// A fixed-width bitset over node ids, the row type of [`ReachClosure`] and
/// the candidate-set representation used by DAG policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBitSet {
    bits: Vec<u64>,
    n: usize,
}

impl NodeBitSet {
    /// Empty set over `n` ids.
    pub fn empty(n: usize) -> Self {
        NodeBitSet {
            bits: vec![0; blocks_for(n)],
            n,
        }
    }

    /// Full set over `n` ids.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        s.fill();
        s
    }

    /// Resets to the empty set without reallocating.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Resets to the empty set over `n` ids, reusing the allocation: no
    /// allocation when the set has held a universe of `n` or more ids.
    pub fn reset_empty(&mut self, n: usize) {
        self.bits.clear();
        self.bits.resize(blocks_for(n), 0);
        self.n = n;
    }

    /// Resets to the full set without reallocating.
    pub fn fill(&mut self) {
        let n = self.n;
        self.bits.fill(u64::MAX);
        if !n.is_multiple_of(64) {
            if let Some(last) = self.bits.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
    }

    /// Number of ids the set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts `u`.
    #[inline]
    pub fn insert(&mut self, u: NodeId) {
        self.bits[u.index() >> 6] |= 1u64 << (u.index() & 63);
    }

    /// Removes `u`.
    #[inline]
    pub fn remove(&mut self, u: NodeId) {
        self.bits[u.index() >> 6] &= !(1u64 << (u.index() & 63));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, u: NodeId) -> bool {
        (self.bits[u.index() >> 6] >> (u.index() & 63)) & 1 == 1
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Number of `u64` blocks backing the set.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.bits.len()
    }

    /// The `i`-th block.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.bits[i]
    }

    /// Overwrites the `i`-th block, returning its previous value — the
    /// word-granular write used by delta-undo journals: policies record
    /// `(i, old)` pairs instead of cloning the whole set.
    #[inline]
    pub fn set_word(&mut self, i: usize, word: u64) -> u64 {
        std::mem::replace(&mut self.bits[i], word)
    }

    /// Writes a previously journalled block back (inverse of
    /// [`NodeBitSet::set_word`]).
    #[inline]
    pub fn restore_word(&mut self, i: usize, word: u64) {
        self.bits[i] = word;
    }

    /// `self ∩= other`.
    pub fn intersect_with(&mut self, other: &NodeBitSet) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= *b;
        }
    }

    /// `self ∖= other`.
    pub fn subtract(&mut self, other: &NodeBitSet) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !*b;
        }
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &NodeBitSet) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
    }

    /// |self ∩ other| without materialising the intersection.
    pub fn intersection_count(&self, other: &NodeBitSet) -> usize {
        debug_assert_eq!(self.n, other.n);
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Σ `weight[u]` over `u ∈ self ∩ other`. Weights are the rounded integer
    /// weights of Eq. (1).
    pub fn intersection_weight_u64(&self, other: &NodeBitSet, weight: &[u64]) -> u64 {
        debug_assert_eq!(self.n, other.n);
        let mut total = 0u64;
        for (block, (a, b)) in self.bits.iter().zip(&other.bits).enumerate() {
            let mut word = a & b;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                total += weight[(block << 6) | bit];
                word &= word - 1;
            }
        }
        total
    }

    /// `(Σ weight[u], |self ∩ other|)` over `u ∈ self ∩ other` in one word
    /// walk — the fused form of [`NodeBitSet::intersection_weight_u64`] and
    /// [`NodeBitSet::intersection_count`] used by the incremental greedy-DAG
    /// frontier repair, where both aggregates are needed per ancestor.
    pub fn intersection_weight_count(&self, other: &NodeBitSet, weight: &[u64]) -> (u64, u32) {
        debug_assert_eq!(self.n, other.n);
        let mut total = 0u64;
        let mut count = 0u32;
        for (block, (a, b)) in self.bits.iter().zip(&other.bits).enumerate() {
            let mut word = a & b;
            count += word.count_ones();
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                total += weight[(block << 6) | bit];
                word &= word - 1;
            }
        }
        (total, count)
    }

    /// Σ `weight[u]` over all members `u`. Weights are the rounded integer
    /// weights of Eq. (1); `u64` addition is exactly commutative, so the
    /// result is independent of iteration order (unlike an `f64` sum).
    pub fn weight_sum_u64(&self, weight: &[u64]) -> u64 {
        self.iter().map(|u| weight[u.index()]).sum()
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bits.iter().enumerate().flat_map(|(block, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(NodeId::new((block << 6) | bit))
            })
        })
    }

    /// The single member, if exactly one remains. Used for search
    /// termination: the candidate set collapsed to the target.
    pub fn sole_member(&self) -> Option<NodeId> {
        let mut found: Option<NodeId> = None;
        for (block, &word) in self.bits.iter().enumerate() {
            if word == 0 {
                continue;
            }
            if word.count_ones() > 1 || found.is_some() {
                return None;
            }
            found = Some(NodeId::new((block << 6) | word.trailing_zeros() as usize));
        }
        found
    }
}

/// Full transitive closure of a [`Dag`] stored as one bitset row per node:
/// row `u` holds exactly `G_u`, the descendant set of `u` (including `u`).
#[derive(Debug, Clone)]
pub struct ReachClosure {
    rows: Vec<NodeBitSet>,
}

impl ReachClosure {
    /// Builds the closure in reverse topological order:
    /// `row(u) = {u} ∪ ⋃_{c ∈ children(u)} row(c)`.
    pub fn build(dag: &Dag) -> Self {
        let n = dag.node_count();
        let mut rows: Vec<NodeBitSet> = (0..n).map(|_| NodeBitSet::empty(n)).collect();
        for &u in dag.topo_order().iter().rev() {
            // Split borrow: children rows are strictly later in topo order
            // but not in id order, so collect via unions on a scratch row.
            let mut row = std::mem::replace(&mut rows[u.index()], NodeBitSet::empty(0));
            row.insert(u);
            for &c in dag.children(u) {
                row.union_with(&rows[c.index()]);
            }
            rows[u.index()] = row;
        }
        ReachClosure { rows }
    }

    /// The descendant bitset `G_u`.
    #[inline]
    pub fn descendants(&self, u: NodeId) -> &NodeBitSet {
        &self.rows[u.index()]
    }

    /// `reach(q)` for target `z`: O(1).
    #[inline]
    pub fn reaches(&self, q: NodeId, z: NodeId) -> bool {
        self.rows[q.index()].contains(z)
    }

    /// Memory footprint in bytes (rows only), to let callers decide whether
    /// a closure is affordable for their `n`.
    pub fn memory_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.bits.len() * std::mem::size_of::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::dag_from_edges;

    fn diamond() -> Dag {
        dag_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)]).unwrap()
    }

    #[test]
    fn ancestor_set_matches_bfs() {
        let g = diamond();
        for z in g.nodes() {
            let a = AncestorSet::new(&g, z);
            assert_eq!(a.target(), z);
            for q in g.nodes() {
                assert_eq!(a.reach(q), g.reaches(q, z), "reach({q}) target {z}");
            }
        }
    }

    #[test]
    fn closure_matches_bfs() {
        let g = diamond();
        let c = ReachClosure::build(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(c.reaches(u, v), g.reaches(u, v), "({u},{v})");
            }
            assert_eq!(c.descendants(u).count(), g.descendants(u).len());
        }
        assert!(c.memory_bytes() > 0);
    }

    #[test]
    fn bitset_basic_ops() {
        let mut s = NodeBitSet::empty(130);
        assert_eq!(s.universe(), 130);
        s.insert(NodeId::new(0));
        s.insert(NodeId::new(64));
        s.insert(NodeId::new(129));
        assert_eq!(s.count(), 3);
        assert!(s.contains(NodeId::new(64)));
        s.remove(NodeId::new(64));
        assert!(!s.contains(NodeId::new(64)));
        assert_eq!(s.count(), 2);
        let members: Vec<usize> = s.iter().map(|u| u.index()).collect();
        assert_eq!(members, vec![0, 129]);
    }

    #[test]
    fn bitset_algebra() {
        let mut a = NodeBitSet::empty(70);
        let mut b = NodeBitSet::empty(70);
        for i in [0usize, 3, 65] {
            a.insert(NodeId::new(i));
        }
        for i in [3usize, 65, 69] {
            b.insert(NodeId::new(i));
        }
        assert_eq!(a.intersection_count(&b), 2);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.count(), 2);
        let mut d = a.clone();
        d.subtract(&b);
        let members: Vec<usize> = d.iter().map(|u| u.index()).collect();
        assert_eq!(members, vec![0]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 4);
    }

    #[test]
    fn bitset_weighted_intersection() {
        let mut a = NodeBitSet::empty(5);
        let mut b = NodeBitSet::empty(5);
        a.insert(NodeId::new(1));
        a.insert(NodeId::new(2));
        b.insert(NodeId::new(2));
        b.insert(NodeId::new(4));
        let w = vec![10u64, 20, 30, 40, 50];
        assert_eq!(a.intersection_weight_u64(&b, &w), 30);
        assert_eq!(a.intersection_weight_count(&b, &w), (30, 1));
        b.insert(NodeId::new(1));
        assert_eq!(a.intersection_weight_count(&b, &w), (50, 2));
    }

    #[test]
    fn sole_member_detection() {
        let mut s = NodeBitSet::empty(200);
        assert_eq!(s.sole_member(), None);
        s.insert(NodeId::new(150));
        assert_eq!(s.sole_member(), Some(NodeId::new(150)));
        s.insert(NodeId::new(3));
        assert_eq!(s.sole_member(), None);
    }

    #[test]
    fn full_set() {
        let s = NodeBitSet::full(67);
        assert_eq!(s.count(), 67);
        assert!(s.contains(NodeId::new(66)));
    }
}
