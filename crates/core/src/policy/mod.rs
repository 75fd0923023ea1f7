//! Query policies: the paper's algorithms and every baseline it compares to.
//!
//! | Policy | Paper reference | Hierarchy | Complexity / round |
//! |---|---|---|---|
//! | [`TopDownPolicy`] | Section I | tree + DAG | O(1) |
//! | [`MigsPolicy`] | Li et al. \[31\], costed as choices read | tree + DAG | O(1) |
//! | [`WigsPolicy`] | Tao et al. \[46\] heavy-path binary search | tree + DAG | O(h·d) / O(n/64·d) |
//! | [`GreedyNaivePolicy`] | Alg. 2–3 | tree + DAG | O(n·m) |
//! | [`GreedyTreePolicy`] | Alg. 4–5, Theorem 5 | tree | O(h·d) |
//! | [`GreedyDagPolicy`] | Alg. 6–7, Eq. (1), incremental frontier | tree + DAG | O(Δ) amortised per answer |
//! | [`GreedyDagPolicy::reference`] | Alg. 6–7 from scratch (differential oracle) | tree + DAG | O(m) per round |
//! | [`CostSensitivePolicy`] | Definition 9, Theorem 4 | tree + DAG | O(n·m) |
//! | [`OptimalPolicy`] | exact DP (NP-hard in general) | small instances | exponential |
//! | [`RandomPolicy`] | sanity baseline | tree + DAG | O(1) |
//!
//! All policies implement [`Policy`]: an object-safe, resettable,
//! *undoable* interface. Undo (`unobserve`) is what lets
//! [`crate::decision_tree::DecisionTreeBuilder`] enumerate a policy's full
//! decision tree in a single DFS without cloning policy state at every
//! branch.

mod cost_sensitive;
mod greedy_dag;
mod greedy_naive;
mod greedy_tree;
pub mod journal;
mod migs;
mod optimal;
mod random;
mod scratch;
mod top_down;
mod wigs;

pub use cost_sensitive::CostSensitivePolicy;
pub use greedy_dag::GreedyDagPolicy;
pub use greedy_naive::GreedyNaivePolicy;
pub use greedy_tree::{ChildSelect, GreedyTreePolicy};
pub use journal::{StepJournal, StepLogs};
pub use migs::MigsPolicy;
pub use optimal::{
    optimal_expected_cost, optimal_worst_case_cost, OptimalObjective, OptimalPolicy,
    MAX_EXACT_NODES,
};
pub use random::RandomPolicy;
pub use top_down::{ChildOrder, TopDownPolicy};
pub use wigs::WigsPolicy;

use aigs_graph::NodeId;

use crate::{CoreError, SearchContext};

/// An interactive query policy (Definition 1's "query policy").
///
/// ### Contract
///
/// * [`Policy::reset`] starts a fresh search over the given context. It may
///   reuse cached precomputation when `ctx.cache_token` matches an earlier
///   reset (see [`SearchContext::cache_token`]).
/// * While [`Policy::resolved`] is `None`, [`Policy::select`] returns the
///   next query node — always an information-bearing query, never the
///   current known-yes root — and the driver must then call
///   [`Policy::observe`] with the oracle's answer for exactly that node.
/// * [`Policy::unobserve`] undoes the most recent *observe* (LIFO). Drivers
///   that never backtrack may ignore it; the decision-tree builder relies
///   on it.
/// * Policies are deterministic functions of (context, answer history)
///   unless explicitly randomised ([`RandomPolicy`]).
pub trait Policy {
    /// Short stable identifier, e.g. `"greedy-tree"`.
    fn name(&self) -> &'static str;

    /// Begins a new search.
    fn reset(&mut self, ctx: &SearchContext<'_>);

    /// Fallible [`Policy::reset`]: policies whose per-instance construction
    /// can fail (e.g. [`OptimalPolicy`]'s exact-solver size cap) override
    /// this to surface a [`CoreError`] instead of panicking, so evaluation
    /// sweeps report the error rather than aborting. The default simply
    /// delegates to `reset` and returns `Ok(())`. Drivers (sessions,
    /// evaluation helpers, the decision-tree builder) call this variant.
    fn try_reset(&mut self, ctx: &SearchContext<'_>) -> Result<(), CoreError> {
        self.reset(ctx);
        Ok(())
    }

    /// `Some(target)` once a single candidate remains.
    fn resolved(&self) -> Option<NodeId>;

    /// The next query node. Must not be called once resolved.
    fn select(&mut self, ctx: &SearchContext<'_>) -> NodeId;

    /// Incorporates the answer to the most recent [`Policy::select`].
    fn observe(&mut self, ctx: &SearchContext<'_>, q: NodeId, yes: bool);

    /// Reverts the most recent [`Policy::observe`].
    fn unobserve(&mut self, ctx: &SearchContext<'_>);

    /// Clones the policy behind the trait object (for parallel evaluation).
    fn clone_box(&self) -> Box<dyn Policy + Send>;

    /// The concrete policy behind the trait object, for tests that inspect
    /// policy-specific state. Not part of the stable API.
    #[doc(hidden)]
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Blanket helper so `Box<dyn Policy>` itself can be cloned.
impl Clone for Box<dyn Policy + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The full policy roster evaluated in the paper's experiments, in the
/// column order of Tables III–V. `GreedyTree` is included only when the
/// hierarchy is a tree (matching the paper: GreedyTree on Amazon,
/// GreedyDAG on ImageNet).
pub fn paper_roster(is_tree: bool) -> Vec<Box<dyn Policy + Send>> {
    let mut v: Vec<Box<dyn Policy + Send>> = vec![
        Box::new(TopDownPolicy::new()),
        Box::new(MigsPolicy::new()),
        Box::new(WigsPolicy::new()),
    ];
    if is_tree {
        v.push(Box::new(GreedyTreePolicy::new()));
    } else {
        v.push(Box::new(GreedyDagPolicy::new()));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_paper_columns() {
        let tree = paper_roster(true);
        let names: Vec<&str> = tree.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["top-down", "migs", "wigs", "greedy-tree"]);
        let dag = paper_roster(false);
        let names: Vec<&str> = dag.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["top-down", "migs", "wigs", "greedy-dag"]);
    }

    #[test]
    fn boxed_policies_clone() {
        let roster = paper_roster(true);
        let cloned = roster.clone();
        assert_eq!(cloned.len(), roster.len());
    }
}
