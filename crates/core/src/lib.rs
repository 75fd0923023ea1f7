//! # aigs-core — average-case interactive graph search
//!
//! Faithful implementation of *Cost-Effective Algorithms for Average-Case
//! Interactive Graph Search* (Cong, Tang, Huang, Chen, Chee — ICDE 2022).
//!
//! Given a single-rooted category hierarchy (a [`aigs_graph::Dag`]) and an
//! a-priori distribution over target nodes, the crate answers: *which
//! reachability questions should we ask a (crowd) oracle to identify the
//! target at minimum expected cost?*
//!
//! ## Quick start
//!
//! ```
//! use aigs_core::{run_session, NodeWeights, Policy, SearchContext, TargetOracle};
//! use aigs_core::policy::GreedyTreePolicy;
//! use aigs_graph::{dag_from_edges, NodeId};
//!
//! // Fig. 1 of the paper: the vehicle hierarchy.
//! let dag = dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap();
//! let weights =
//!     NodeWeights::from_masses(vec![0.04, 0.02, 0.04, 0.08, 0.02, 0.40, 0.40]).unwrap();
//! let ctx = SearchContext::new(&dag, &weights);
//!
//! let mut policy = GreedyTreePolicy::new();
//! let mut oracle = TargetOracle::new(&dag, NodeId::new(6)); // the "Sentra"
//! let outcome = run_session(&mut policy, &ctx, &mut oracle, None).unwrap();
//! assert_eq!(outcome.target, NodeId::new(6));
//! assert!(outcome.queries <= 3);
//! ```
//!
//! ## Layout
//!
//! * [`policy`] — the greedy policies (`GreedyNaive`, `GreedyTree`,
//!   `GreedyDAG`, cost-sensitive) and baselines (`TopDown`, `MIGS`, `WIGS`,
//!   exact optimal DP, random).
//! * [`session`](run_session) / [`evaluate_exhaustive`] — driving searches
//!   and measuring expected cost (Definition 7).
//! * [`decision_tree`] — exact decision-tree materialisation (Definitions
//!   6–8) with expected/worst-case cost and DOT export.
//! * [`compiled`] — decision trees flattened into cache-friendly serving
//!   arrays with depth/mass truncation (the hot tier of `aigs-service`).
//! * [`online`] — empirical-distribution learning (Fig. 4).
//! * [`batched`] — the k-queries-per-round tree extension (Section III-E).
//! * Oracles — truthful, noisy, majority-vote, transcript-recording.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batched;
pub mod compiled;
mod context;
mod cost;
pub mod decision_tree;
mod distribution;
mod error;
pub mod online;
mod oracle;
pub mod policy;
mod session;

pub use batched::{BatchedOutcome, BatchedTreeSearch};
pub use compiled::{CompiledConfig, CompiledCursor, CompiledPlan};
pub use context::{fresh_cache_token, InstanceCache, SearchContext};
pub use cost::QueryCosts;
pub use decision_tree::{DecisionTree, DecisionTreeBuilder, DtNode};
pub use distribution::NodeWeights;
pub use error::CoreError;
pub use online::{run_online_trace, OnlineEstimator, WindowPoint};
pub use oracle::{
    ClosureOracle, MajorityVoteOracle, NoisyOracle, Oracle, PersistentNoisyOracle,
    ReachIndexOracle, TargetOracle, TranscriptOracle,
};
pub use policy::Policy;
pub use policy::{paper_roster, MAX_EXACT_NODES};
pub use session::{
    evaluate_exhaustive, evaluate_exhaustive_parallel, evaluate_roster, evaluate_targets,
    run_session, AnswerBits, EvalReport, SearchOutcome, SessionStep, SessionStepper,
};
