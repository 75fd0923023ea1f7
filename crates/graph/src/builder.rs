//! Incremental construction and validation of hierarchies.

use std::collections::HashMap;

use crate::{Dag, GraphError, NodeBitSet, NodeId};

/// How to treat inputs with several in-degree-0 nodes.
///
/// The paper (Section II): *"We assume that there is only one root in G. If
/// there are multiple roots, we can simply add a dummy node to G with an
/// outgoing edge to every original root."*
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiRootPolicy {
    /// Reject with [`GraphError::MultipleRoots`].
    #[default]
    Reject,
    /// Add a dummy root labelled `"__root__"` pointing at every original root.
    AddVirtualRoot,
}

/// Builder for [`Dag`] values.
///
/// Nodes are declared first (each gets a dense [`NodeId`]), then edges.
/// [`HierarchyBuilder::build`] verifies acyclicity (Kahn's algorithm), the
/// single-root property and edge sanity, and produces the CSR representation.
///
/// ```
/// use aigs_graph::HierarchyBuilder;
/// let mut b = HierarchyBuilder::new();
/// let root = b.add_node("vehicle").unwrap();
/// let car = b.add_node("car").unwrap();
/// b.add_edge(root, car).unwrap();
/// let dag = b.build().unwrap();
/// assert_eq!(dag.root(), root);
/// ```
#[derive(Debug, Default, Clone)]
pub struct HierarchyBuilder {
    labels: Vec<String>,
    label_index: HashMap<String, NodeId>,
    edges: Vec<(NodeId, NodeId)>,
    multi_root: MultiRootPolicy,
    dedup_edges: bool,
}

impl HierarchyBuilder {
    /// New empty builder rejecting multiple roots and keeping duplicate edges.
    pub fn new() -> Self {
        Self::default()
    }

    /// Configures the multiple-root policy.
    pub fn multi_root(mut self, policy: MultiRootPolicy) -> Self {
        self.multi_root = policy;
        self
    }

    /// Silently drops duplicate parallel edges instead of keeping them.
    /// Duplicate edges are harmless for reachability but skew degree
    /// statistics, so dataset loaders enable this.
    pub fn dedup_edges(mut self, yes: bool) -> Self {
        self.dedup_edges = yes;
        self
    }

    /// Number of nodes declared so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Declares a node with a unique label.
    pub fn add_node(&mut self, label: impl Into<String>) -> Result<NodeId, GraphError> {
        let label = label.into();
        if self.label_index.contains_key(&label) {
            return Err(GraphError::DuplicateLabel(label));
        }
        let id = NodeId::new(self.labels.len());
        self.label_index.insert(label.clone(), id);
        self.labels.push(label);
        Ok(id)
    }

    /// Returns the node with `label`, declaring it if unseen.
    /// Used by path-based loaders ("a/b/c" category paths).
    pub fn intern(&mut self, label: &str) -> NodeId {
        if let Some(&id) = self.label_index.get(label) {
            return id;
        }
        let id = NodeId::new(self.labels.len());
        self.label_index.insert(label.to_owned(), id);
        self.labels.push(label.to_owned());
        id
    }

    /// Adds the directed edge `parent -> child`.
    pub fn add_edge(&mut self, parent: NodeId, child: NodeId) -> Result<(), GraphError> {
        let n = self.labels.len();
        if parent.index() >= n {
            return Err(GraphError::UnknownNode(parent));
        }
        if child.index() >= n {
            return Err(GraphError::UnknownNode(child));
        }
        if parent == child {
            return Err(GraphError::SelfLoop(parent));
        }
        self.edges.push((parent, child));
        Ok(())
    }

    /// Adds a root-to-leaf category path, interning labels and edges as
    /// needed. This mirrors how the paper builds the Amazon hierarchy from
    /// the `categories` field of product records.
    pub fn add_path<I, S>(&mut self, path: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut prev: Option<NodeId> = None;
        for seg in path {
            let id = self.intern(seg.as_ref());
            if let Some(p) = prev {
                if p != id {
                    self.edges.push((p, id));
                }
            }
            prev = Some(id);
        }
    }

    /// Validates and freezes the hierarchy.
    pub fn build(mut self) -> Result<Dag, GraphError> {
        if self.labels.is_empty() {
            return Err(GraphError::Empty);
        }
        if self.dedup_edges {
            // Order-preserving dedup: child-list order is semantically
            // meaningful (it is the presentation order TopDown/MIGS probe
            // in), so sorting here would silently bias those baselines.
            let mut seen = HashMap::with_capacity(self.edges.len());
            let mut kept = Vec::with_capacity(self.edges.len());
            for &e in &self.edges {
                if seen.insert(e, ()).is_none() {
                    kept.push(e);
                }
            }
            self.edges = kept;
        }

        let mut n = self.labels.len();
        let mut in_deg = vec![0u32; n];
        for &(_, c) in &self.edges {
            in_deg[c.index()] += 1;
        }
        let roots: Vec<NodeId> = (0..n)
            .filter(|&i| in_deg[i] == 0)
            .map(NodeId::new)
            .collect();
        let root = match (roots.len(), self.multi_root) {
            (0, _) => return Err(GraphError::NoRoot),
            (1, _) => roots[0],
            (_, MultiRootPolicy::Reject) => return Err(GraphError::MultipleRoots(roots)),
            (_, MultiRootPolicy::AddVirtualRoot) => {
                let dummy = NodeId::new(n);
                self.labels.push("__root__".to_owned());
                for r in roots {
                    self.edges.push((dummy, r));
                    in_deg[r.index()] += 1;
                }
                in_deg.push(0);
                n += 1;
                dummy
            }
        };

        // CSR for children.
        let mut child_off = vec![0u32; n + 1];
        for &(p, _) in &self.edges {
            child_off[p.index() + 1] += 1;
        }
        for i in 0..n {
            child_off[i + 1] += child_off[i];
        }
        let mut children = vec![NodeId::SENTINEL; self.edges.len()];
        let mut cursor = child_off.clone();
        for &(p, c) in &self.edges {
            let slot = cursor[p.index()];
            children[slot as usize] = c;
            cursor[p.index()] += 1;
        }

        // CSR for parents.
        let mut parent_off = vec![0u32; n + 1];
        for &(_, c) in &self.edges {
            parent_off[c.index() + 1] += 1;
        }
        for i in 0..n {
            parent_off[i + 1] += parent_off[i];
        }
        let mut parents = vec![NodeId::SENTINEL; self.edges.len()];
        let mut cursor = parent_off.clone();
        for &(p, c) in &self.edges {
            let slot = cursor[c.index()];
            parents[slot as usize] = p;
            cursor[c.index()] += 1;
        }
        // Canonicalise parent lists: unlike child order (the presentation
        // order policies probe in), parent order carries no meaning, and a
        // sorted form makes structural equality edge-insertion-order
        // independent (text round-trips compare equal).
        for i in 0..n {
            parents[parent_off[i] as usize..parent_off[i + 1] as usize].sort_unstable();
        }

        // Kahn's algorithm: topological order + cycle detection.
        let mut topo = Vec::with_capacity(n);
        let mut deg = in_deg.clone();
        let mut queue: std::collections::VecDeque<NodeId> =
            (0..n).filter(|&i| deg[i] == 0).map(NodeId::new).collect();
        while let Some(u) = queue.pop_front() {
            topo.push(u);
            let lo = child_off[u.index()] as usize;
            let hi = child_off[u.index() + 1] as usize;
            for &c in &children[lo..hi] {
                deg[c.index()] -= 1;
                if deg[c.index()] == 0 {
                    queue.push_back(c);
                }
            }
        }
        if topo.len() != n {
            // Some node never reached in-degree 0: it lies on a cycle.
            let culprit = (0..n)
                .find(|&i| deg[i] > 0)
                .map(NodeId::new)
                .unwrap_or(root);
            return Err(GraphError::CycleDetected(culprit));
        }

        let mut multi_parent = NodeBitSet::empty(n);
        for (i, w) in parent_off.windows(2).enumerate() {
            if w[1] - w[0] >= 2 {
                multi_parent.insert(NodeId::new(i));
            }
        }
        let dag = Dag {
            child_off,
            children,
            parent_off,
            parents,
            labels: self.labels,
            root,
            topo,
            multi_parent,
        };
        debug_assert!(dag.validate().is_ok());
        Ok(dag)
    }
}

/// Convenience constructor: builds a hierarchy from `(parent, child)` index
/// pairs with auto-generated labels `"v{i}"`. Handy in tests and generators.
pub fn dag_from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Dag, GraphError> {
    let mut b = HierarchyBuilder::new();
    for i in 0..n {
        b.add_node(format!("v{i}"))?;
    }
    for &(p, c) in edges {
        b.add_edge(NodeId(p), NodeId(c))?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_cycle() {
        let err = dag_from_edges(3, &[(0, 1), (1, 2), (2, 1)]).unwrap_err();
        assert!(matches!(err, GraphError::CycleDetected(_)));
    }

    #[test]
    fn rejects_two_node_cycle_without_root() {
        let err = dag_from_edges(2, &[(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::NoRoot);
    }

    #[test]
    fn rejects_multiple_roots_by_default() {
        let err = dag_from_edges(3, &[(0, 2), (1, 2)]).unwrap_err();
        assert!(matches!(err, GraphError::MultipleRoots(_)));
    }

    #[test]
    fn virtual_root_policy_links_all_roots() {
        let mut b = HierarchyBuilder::new().multi_root(MultiRootPolicy::AddVirtualRoot);
        let a = b.add_node("a").unwrap();
        let c = b.add_node("c").unwrap();
        let x = b.add_node("x").unwrap();
        b.add_edge(a, x).unwrap();
        b.add_edge(c, x).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.label(g.root()), "__root__");
        assert_eq!(g.children(g.root()), &[a, c]);
        g.validate().unwrap();
    }

    #[test]
    fn rejects_self_loop_and_unknown() {
        let mut b = HierarchyBuilder::new();
        let a = b.add_node("a").unwrap();
        assert_eq!(b.add_edge(a, a).unwrap_err(), GraphError::SelfLoop(a));
        assert!(matches!(
            b.add_edge(a, NodeId::new(9)),
            Err(GraphError::UnknownNode(_))
        ));
    }

    #[test]
    fn rejects_duplicate_label() {
        let mut b = HierarchyBuilder::new();
        b.add_node("a").unwrap();
        assert!(matches!(
            b.add_node("a"),
            Err(GraphError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            HierarchyBuilder::new().build().unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn intern_reuses_ids() {
        let mut b = HierarchyBuilder::new();
        let a1 = b.intern("a");
        let a2 = b.intern("a");
        assert_eq!(a1, a2);
        assert_eq!(b.node_count(), 1);
    }

    #[test]
    fn add_path_builds_chain_and_shares_prefixes() {
        let mut b = HierarchyBuilder::new();
        b.add_path(["root", "electronics", "camera"]);
        b.add_path(["root", "electronics", "phone"]);
        b.add_path(["root", "books"]);
        let g = b.dedup_edges(true).build().unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        let e = g.node_by_label("electronics").unwrap();
        assert_eq!(g.out_degree(e), 2);
        assert!(g.is_tree());
    }

    #[test]
    fn dedup_edges_removes_parallel() {
        let g = {
            let mut b = HierarchyBuilder::new().dedup_edges(true);
            let a = b.add_node("a").unwrap();
            let x = b.add_node("x").unwrap();
            b.add_edge(a, x).unwrap();
            b.add_edge(a, x).unwrap();
            b.build().unwrap()
        };
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn single_node_graph() {
        let mut b = HierarchyBuilder::new();
        b.add_node("only").unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.root(), NodeId::new(0));
        assert!(g.is_tree());
        assert_eq!(g.height(), 0);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = dag_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 5)]).unwrap();
        let topo = g.topo_order();
        let pos: std::collections::HashMap<_, _> =
            topo.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        for u in g.nodes() {
            for &c in g.children(u) {
                assert!(pos[&u] < pos[&c]);
            }
        }
    }
}
