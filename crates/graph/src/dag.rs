//! The immutable hierarchy type used by every search policy.
//!
//! A [`Dag`] is a single-rooted directed acyclic graph stored in compressed
//! sparse row (CSR) form, in both edge directions. All policy code is written
//! against this type; trees are the special case recognised by
//! [`Dag::is_tree`] and given an accelerated view by [`crate::Tree`].

use crate::{GraphError, NodeBitSet, NodeId};

/// A single-rooted directed acyclic category hierarchy.
///
/// Construction goes through [`crate::HierarchyBuilder`], which validates
/// acyclicity and rootedness. Node ids are dense (`0..n`), and the root is
/// guaranteed to reach every node? — **no**: the paper only requires a single
/// root (a unique node of in-degree 0); disconnected descendants cannot exist
/// because every non-root node has a parent and parents chain up acyclically
/// to the root. Hence the root reaches every node, which the builder asserts.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Dag {
    /// CSR offsets into `children`; length `n + 1`.
    pub(crate) child_off: Vec<u32>,
    /// Concatenated child lists, in insertion order.
    pub(crate) children: Vec<NodeId>,
    /// CSR offsets into `parents`; length `n + 1`.
    pub(crate) parent_off: Vec<u32>,
    /// Concatenated parent lists.
    pub(crate) parents: Vec<NodeId>,
    /// Human-readable node labels (category names).
    pub(crate) labels: Vec<String>,
    /// The unique node with in-degree 0.
    pub(crate) root: NodeId,
    /// A topological order of all nodes (parents before children).
    pub(crate) topo: Vec<NodeId>,
    /// Nodes of in-degree ≥ 2.
    pub(crate) multi_parent: NodeBitSet,
}

impl Dag {
    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.children.len()
    }

    /// The unique root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The nodes of in-degree ≥ 2 as a bitset: besides `q`, the only nodes
    /// at which a path from outside a descendant set `G_q` can enter it
    /// (see [`crate::ReachIndex::doomed_contributions`]).
    #[inline]
    pub fn multi_parent_mask(&self) -> &NodeBitSet {
        &self.multi_parent
    }

    /// The children of `u`, in insertion order.
    #[inline]
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        let i = u.index();
        &self.children[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// The parents of `u`.
    #[inline]
    pub fn parents(&self, u: NodeId) -> &[NodeId] {
        let i = u.index();
        &self.parents[self.parent_off[i] as usize..self.parent_off[i + 1] as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.children(u).len()
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.parents(u).len()
    }

    /// True when `u` has no children.
    #[inline]
    pub fn is_leaf(&self, u: NodeId) -> bool {
        self.out_degree(u) == 0
    }

    /// The label of `u`.
    #[inline]
    pub fn label(&self, u: NodeId) -> &str {
        &self.labels[u.index()]
    }

    /// All labels, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Finds a node by exact label. Linear scan; intended for tests,
    /// examples and small fixtures, not hot paths.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels.iter().position(|l| l == label).map(NodeId::new)
    }

    /// A topological order (every parent precedes its children).
    #[inline]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// True when every non-root node has exactly one parent.
    pub fn is_tree(&self) -> bool {
        self.nodes()
            .all(|u| u == self.root || self.in_degree(u) == 1)
    }

    /// Depth of every node: length of the *longest* path from the root.
    ///
    /// On trees this is the unique root distance. On DAGs the longest path is
    /// the convention used by the paper's "Height" column (Table II) and by
    /// the per-depth running-time experiment (Fig. 6).
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.node_count()];
        for &u in &self.topo {
            for &c in self.children(u) {
                depth[c.index()] = depth[c.index()].max(depth[u.index()] + 1);
            }
        }
        depth
    }

    /// Height: the maximum depth over all nodes (length of the longest
    /// root-to-node path, in edges).
    pub fn height(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Maximum out-degree over all nodes.
    pub fn max_out_degree(&self) -> usize {
        self.nodes().map(|u| self.out_degree(u)).max().unwrap_or(0)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes().filter(|&u| self.is_leaf(u)).count()
    }

    /// Collects the descendant set `G_u` (including `u`) with a BFS.
    ///
    /// This is the subgraph the paper writes `G_u`; a fresh allocation per
    /// call, so use [`crate::traversal`] primitives with a reusable
    /// [`crate::VisitedSet`] in hot paths.
    pub fn descendants(&self, u: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        let mut out = Vec::new();
        seen[u.index()] = true;
        queue.push_back(u);
        while let Some(v) = queue.pop_front() {
            out.push(v);
            for &c in self.children(v) {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    queue.push_back(c);
                }
            }
        }
        out
    }

    /// Collects the ancestor set of `u` (including `u`) with a reverse BFS.
    pub fn ancestors(&self, u: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        let mut out = Vec::new();
        seen[u.index()] = true;
        queue.push_back(u);
        while let Some(v) = queue.pop_front() {
            out.push(v);
            for &p in self.parents(v) {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    queue.push_back(p);
                }
            }
        }
        out
    }

    /// True when `target` is reachable from `q` (the oracle predicate
    /// `reach(q)` of the paper). O(n + m) BFS; prefer a
    /// [`crate::ReachClosure`] or per-session ancestor sets in hot paths.
    pub fn reaches(&self, q: NodeId, target: NodeId) -> bool {
        if q == target {
            return true;
        }
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![q];
        seen[q.index()] = true;
        while let Some(v) = stack.pop() {
            for &c in self.children(v) {
                if c == target {
                    return true;
                }
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        false
    }

    /// Histogram of out-degrees: entry `d` counts nodes with `d` children
    /// (index capped at `cap`, larger degrees accumulate in the last slot).
    pub fn out_degree_histogram(&self, cap: usize) -> Vec<usize> {
        let mut hist = vec![0usize; cap + 1];
        for u in self.nodes() {
            hist[self.out_degree(u).min(cap)] += 1;
        }
        hist
    }

    /// Histogram of node depths (longest-path convention, like
    /// [`Dag::depths`]).
    pub fn depth_histogram(&self) -> Vec<usize> {
        let depths = self.depths();
        let mut hist = vec![0usize; self.height() as usize + 1];
        for d in depths {
            hist[d as usize] += 1;
        }
        hist
    }

    /// Mean depth over leaves — how deep the "specific" categories sit,
    /// a key driver of search cost.
    pub fn mean_leaf_depth(&self) -> f64 {
        let depths = self.depths();
        let mut total = 0u64;
        let mut leaves = 0u64;
        for u in self.nodes() {
            if self.is_leaf(u) {
                total += depths[u.index()] as u64;
                leaves += 1;
            }
        }
        if leaves == 0 {
            0.0
        } else {
            total as f64 / leaves as f64
        }
    }

    /// Summary statistics in the shape of the paper's Table II.
    pub fn stats(&self) -> DagStats {
        DagStats {
            nodes: self.node_count(),
            edges: self.edge_count(),
            height: self.height(),
            max_out_degree: self.max_out_degree(),
            leaves: self.leaf_count(),
            is_tree: self.is_tree(),
        }
    }

    /// Internal consistency check used by tests and `debug_assert`s:
    /// CSR arrays well-formed, parent/child lists mirror each other,
    /// topo order valid, single root.
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.node_count();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        if self.root.index() >= n {
            return Err(GraphError::UnknownNode(self.root));
        }
        // The root must be the unique zero-in-degree node.
        let mut roots = Vec::new();
        for u in self.nodes() {
            if self.in_degree(u) == 0 {
                roots.push(u);
            }
        }
        if roots.is_empty() {
            return Err(GraphError::NoRoot);
        }
        if roots.len() > 1 {
            return Err(GraphError::MultipleRoots(roots));
        }
        if roots[0] != self.root {
            return Err(GraphError::UnknownNode(self.root));
        }
        // Topological order covers all nodes and respects edges.
        if self.topo.len() != n {
            return Err(GraphError::CycleDetected(self.root));
        }
        let mut pos = vec![u32::MAX; n];
        for (i, &u) in self.topo.iter().enumerate() {
            pos[u.index()] = i as u32;
        }
        for u in self.nodes() {
            for &c in self.children(u) {
                if pos[u.index()] >= pos[c.index()] {
                    return Err(GraphError::CycleDetected(c));
                }
            }
        }
        Ok(())
    }
}

/// Dataset statistics, mirroring Table II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DagStats {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of edges `m`.
    pub edges: usize,
    /// Longest root-to-node path length, in edges.
    pub height: u32,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Whether the hierarchy is a tree.
    pub is_tree: bool,
}

impl std::fmt::Display for DagStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} height={} max_deg={} leaves={} type={}",
            self.nodes,
            self.edges,
            self.height,
            self.max_out_degree,
            self.leaves,
            if self.is_tree { "Tree" } else { "DAG" }
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::HierarchyBuilder;
    use crate::NodeId;

    /// The vehicle hierarchy of Fig. 1 / Fig. 2(a):
    /// 1 Vehicle → 2 Car; 2 → {3 Honda, 4 Nissan, 5 Mercedes}; 4 → {6, 7}.
    /// (0-based ids here.)
    fn vehicle() -> crate::Dag {
        let mut b = HierarchyBuilder::new();
        let v: Vec<NodeId> = [
            "vehicle", "car", "honda", "nissan", "mercedes", "maxima", "sentra",
        ]
        .iter()
        .map(|l| b.add_node(*l).unwrap())
        .collect();
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[1], v[2]).unwrap();
        b.add_edge(v[1], v[3]).unwrap();
        b.add_edge(v[1], v[4]).unwrap();
        b.add_edge(v[3], v[5]).unwrap();
        b.add_edge(v[3], v[6]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_topology() {
        let g = vehicle();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.root(), NodeId::new(0));
        assert!(g.is_tree());
        assert_eq!(g.height(), 3);
        assert_eq!(g.max_out_degree(), 3);
        assert_eq!(g.leaf_count(), 4);
        assert_eq!(g.children(NodeId::new(1)).len(), 3);
        assert_eq!(g.parents(NodeId::new(5)), &[NodeId::new(3)]);
        assert_eq!(g.multi_parent_mask().count(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn descendants_and_ancestors() {
        let g = vehicle();
        let mut d = g.descendants(NodeId::new(3));
        d.sort();
        assert_eq!(d, vec![NodeId::new(3), NodeId::new(5), NodeId::new(6)]);
        let mut a = g.ancestors(NodeId::new(6));
        a.sort();
        assert_eq!(
            a,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(3),
                NodeId::new(6)
            ]
        );
    }

    #[test]
    fn reaches_matches_descendants() {
        let g = vehicle();
        for u in g.nodes() {
            let desc = g.descendants(u);
            for v in g.nodes() {
                assert_eq!(g.reaches(u, v), desc.contains(&v), "reach({u},{v})");
            }
        }
    }

    #[test]
    fn label_lookup() {
        let g = vehicle();
        assert_eq!(g.node_by_label("sentra"), Some(NodeId::new(6)));
        assert_eq!(g.node_by_label("bicycle"), None);
        assert_eq!(g.label(NodeId::new(2)), "honda");
    }

    #[test]
    fn depths_on_tree() {
        let g = vehicle();
        let d = g.depths();
        assert_eq!(d, vec![0, 1, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn structural_profiles() {
        let g = vehicle();
        // Degrees: 0×4 (leaves), 1×1 (root), 2×1 (nissan), 3×1 (car).
        let hist = g.out_degree_histogram(5);
        assert_eq!(&hist[..4], &[4, 1, 1, 1]);
        // Capping folds the tail into the last slot.
        let capped = g.out_degree_histogram(1);
        assert_eq!(capped, vec![4, 3]);
        // Depths: 1 root, 1 at depth 1, 3 at depth 2, 2 at depth 3.
        assert_eq!(g.depth_histogram(), vec![1, 1, 3, 2]);
        // Leaves: honda(2), mercedes(2), maxima(3), sentra(3) -> mean 2.5.
        assert!((g.mean_leaf_depth() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn stats_display() {
        let g = vehicle();
        let s = g.stats();
        assert_eq!(s.nodes, 7);
        assert!(s.is_tree);
        let text = s.to_string();
        assert!(text.contains("n=7") && text.contains("Tree"));
    }

    #[test]
    fn dag_multi_parent_not_tree() {
        let mut b = HierarchyBuilder::new();
        let a = b.add_node("a").unwrap();
        let x = b.add_node("x").unwrap();
        let y = b.add_node("y").unwrap();
        let z = b.add_node("z").unwrap();
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        let g = b.build().unwrap();
        assert!(!g.is_tree());
        assert_eq!(g.in_degree(z), 2);
        assert_eq!(g.multi_parent_mask().iter().collect::<Vec<_>>(), vec![z]);
        // Longest-path depth of z is 2.
        assert_eq!(g.depths()[z.index()], 2);
        g.validate().unwrap();
    }
}
