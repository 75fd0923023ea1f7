//! Reusable traversal primitives.
//!
//! Search policies run thousands of BFS passes per session; allocating and
//! clearing a `Vec<bool>` per pass would dominate. [`VisitedSet`] uses the
//! classic epoch trick: marking is a stamp write, clearing is an epoch bump.

use std::collections::VecDeque;

use crate::{Dag, NodeId};

/// An O(1)-clear visited set over node ids.
#[derive(Debug, Clone)]
pub struct VisitedSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl VisitedSet {
    /// Creates a set able to hold `n` node ids.
    pub fn new(n: usize) -> Self {
        VisitedSet {
            stamp: vec![0; n],
            epoch: 1,
        }
    }

    /// Number of ids the set can hold.
    pub fn capacity(&self) -> usize {
        self.stamp.len()
    }

    /// Makes room for at least `n` ids, keeping the marks; never shrinks,
    /// so a set shared by graphs of several sizes allocates only when the
    /// largest one grows.
    pub fn grow(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Clears the set in O(1) (amortised; a full rewrite happens once every
    /// `u32::MAX` clears to avoid stale stamps on wrap-around).
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Marks `u`; returns `true` when `u` was not yet marked this epoch.
    #[inline]
    pub fn insert(&mut self, u: NodeId) -> bool {
        let slot = &mut self.stamp[u.index()];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// True when `u` is marked in the current epoch.
    #[inline]
    pub fn contains(&self, u: NodeId) -> bool {
        self.stamp[u.index()] == self.epoch
    }

    /// Unmarks `u` (no-op when `u` is not marked). Stamps start at epoch 1,
    /// so writing 0 is always "absent".
    #[inline]
    pub fn remove(&mut self, u: NodeId) {
        self.stamp[u.index()] = 0;
    }
}

/// Scratch buffers for repeated BFS passes: a queue plus a [`VisitedSet`].
#[derive(Debug, Clone)]
pub struct BfsScratch {
    /// The visited set of the most recent traversal (readable afterwards).
    pub visited: VisitedSet,
    queue: VecDeque<NodeId>,
}

impl BfsScratch {
    /// Scratch sized for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        BfsScratch {
            visited: VisitedSet::new(n),
            queue: VecDeque::new(),
        }
    }

    /// Forward BFS from `start`, invoking `visit` on every reachable node
    /// (including `start`). `alive` filters which nodes participate:
    /// a node failing the predicate is neither visited nor expanded.
    ///
    /// Returns the number of visited nodes.
    pub fn bfs_forward(
        &mut self,
        dag: &Dag,
        start: NodeId,
        mut alive: impl FnMut(NodeId) -> bool,
        mut visit: impl FnMut(NodeId),
    ) -> usize {
        self.visited.clear();
        self.queue.clear();
        if !alive(start) {
            return 0;
        }
        self.visited.insert(start);
        self.queue.push_back(start);
        let mut count = 0;
        while let Some(u) = self.queue.pop_front() {
            visit(u);
            count += 1;
            for &c in dag.children(u) {
                if alive(c) && self.visited.insert(c) {
                    self.queue.push_back(c);
                }
            }
        }
        count
    }

    /// Reverse BFS from `start` over parent edges; same contract as
    /// [`BfsScratch::bfs_forward`].
    pub fn bfs_reverse(
        &mut self,
        dag: &Dag,
        start: NodeId,
        mut alive: impl FnMut(NodeId) -> bool,
        mut visit: impl FnMut(NodeId),
    ) -> usize {
        self.visited.clear();
        self.queue.clear();
        if !alive(start) {
            return 0;
        }
        self.visited.insert(start);
        self.queue.push_back(start);
        let mut count = 0;
        while let Some(u) = self.queue.pop_front() {
            visit(u);
            count += 1;
            for &p in dag.parents(u) {
                if alive(p) && self.visited.insert(p) {
                    self.queue.push_back(p);
                }
            }
        }
        count
    }
}

/// Iterative post-order DFS over a *tree-shaped* child relation, yielding
/// `(node, entering)` events: `entering == true` on first visit, `false`
/// after all children are done. Works on DAGs too but then re-enters shared
/// nodes once per distinct parent path — callers on DAGs must dedupe.
pub fn dfs_events(dag: &Dag, start: NodeId, mut on_event: impl FnMut(NodeId, bool)) {
    // Stack entries: (node, next child index).
    let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];
    on_event(start, true);
    while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
        let kids = dag.children(u);
        if *ci < kids.len() {
            let c = kids[*ci];
            *ci += 1;
            on_event(c, true);
            stack.push((c, 0));
        } else {
            on_event(u, false);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::dag_from_edges;

    fn diamond() -> Dag {
        // 0 -> {1,2}; 1 -> 3; 2 -> 3; 3 -> 4
        dag_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn visited_set_epochs() {
        let mut v = VisitedSet::new(4);
        assert!(v.insert(NodeId::new(1)));
        assert!(!v.insert(NodeId::new(1)));
        assert!(v.contains(NodeId::new(1)));
        v.clear();
        assert!(!v.contains(NodeId::new(1)));
        assert!(v.insert(NodeId::new(1)));
    }

    #[test]
    fn visited_set_epoch_wraparound() {
        let mut v = VisitedSet::new(2);
        v.epoch = u32::MAX - 1;
        v.insert(NodeId::new(0));
        v.clear(); // epoch == MAX now
        assert!(!v.contains(NodeId::new(0)));
        v.insert(NodeId::new(1));
        v.clear(); // wraps: full rewrite
        assert!(!v.contains(NodeId::new(1)));
        assert!(v.insert(NodeId::new(1)));
    }

    #[test]
    fn bfs_forward_visits_descendants_once() {
        let g = diamond();
        let mut scratch = BfsScratch::new(g.node_count());
        let mut seen = Vec::new();
        let count = scratch.bfs_forward(&g, NodeId::new(0), |_| true, |u| seen.push(u));
        assert_eq!(count, 5);
        seen.sort();
        assert_eq!(seen.len(), 5); // node 3 visited once despite two parents
    }

    #[test]
    fn bfs_respects_alive_filter() {
        let g = diamond();
        let mut scratch = BfsScratch::new(g.node_count());
        // Kill node 1: 3 is still reachable via 2.
        let mut seen = Vec::new();
        scratch.bfs_forward(
            &g,
            NodeId::new(0),
            |u| u != NodeId::new(1),
            |u| seen.push(u),
        );
        seen.sort();
        assert_eq!(
            seen,
            vec![
                NodeId::new(0),
                NodeId::new(2),
                NodeId::new(3),
                NodeId::new(4)
            ]
        );
        // Kill both 1 and 2: nothing below 0 remains reachable.
        let mut seen = Vec::new();
        scratch.bfs_forward(
            &g,
            NodeId::new(0),
            |u| u != NodeId::new(1) && u != NodeId::new(2),
            |u| seen.push(u),
        );
        assert_eq!(seen, vec![NodeId::new(0)]);
    }

    #[test]
    fn bfs_reverse_collects_ancestors() {
        let g = diamond();
        let mut scratch = BfsScratch::new(g.node_count());
        let mut seen = Vec::new();
        scratch.bfs_reverse(&g, NodeId::new(3), |_| true, |u| seen.push(u));
        seen.sort();
        assert_eq!(
            seen,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
    }

    #[test]
    fn bfs_dead_start_is_empty() {
        let g = diamond();
        let mut scratch = BfsScratch::new(g.node_count());
        let n = scratch.bfs_forward(&g, NodeId::new(0), |_| false, |_| panic!("no visits"));
        assert_eq!(n, 0);
    }

    #[test]
    fn dfs_events_bracket_properly() {
        // Chain 0 -> 1 -> 2.
        let g = dag_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut events = Vec::new();
        dfs_events(&g, NodeId::new(0), |u, enter| {
            events.push((u.index(), enter))
        });
        assert_eq!(
            events,
            vec![
                (0, true),
                (1, true),
                (2, true),
                (2, false),
                (1, false),
                (0, false)
            ]
        );
    }
}
