//! # aigs-service — a multi-tenant engine for *suspended* interactive searches
//!
//! The paper's `FrameworkIGS` (Alg. 1) is a closed loop: the policy picks a
//! question and the oracle answers inline, which is exactly what
//! [`aigs_core::run_session`] does. In the paper's own motivating
//! deployments — crowdsourced image and product categorization — the
//! "oracle" is a human whose answer arrives seconds to minutes later, so a
//! production system never runs that loop to completion in one breath: it
//! holds thousands of *suspended* searches, resuming each one when its
//! answer lands.
//!
//! This crate is that serving layer:
//!
//! * [`SearchEngine`] — a slab of live sessions addressed by [`SessionId`],
//!   with admission limits, idle eviction on a logical clock, and
//!   per-session error isolation (one oversized or diverging session
//!   returns its error to its caller; the pool keeps serving).
//! * [`SessionHandle`] — the inverted-control surface:
//!   [`next_question`](SessionHandle::next_question) →
//!   [`answer`](SessionHandle::answer) → [`finish`](SessionHandle::finish),
//!   backed by [`aigs_core::SessionStepper`], the same state machine
//!   `run_session` loops over — so stepped transcripts are bit-identical to
//!   inline ones (property-tested per policy and reachability backend).
//! * [`PlanSpec`]/[`PlanId`] — shared plan artifacts: one `Arc`'d
//!   [`aigs_graph::Dag`] + [`aigs_core::NodeWeights`] +
//!   [`aigs_graph::ReachIndex`] per (hierarchy, distribution) roster entry,
//!   shared by every session on that plan, plus a per-plan pool of policy
//!   instances whose journal-based `reset` costs O(Δ of the last session)
//!   instead of an O(n) rebuild.
//! * [`telemetry`] — first-class observability: per-shard latency
//!   histograms by operation/tier/kind, WAL and fsync internals, per-plan
//!   realized-vs-predicted cost, a slow-op journal, and a Prometheus text
//!   exposition ([`SearchEngine::prometheus_text`], served by
//!   [`wire::WireServer`] at `GET /metrics`).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use aigs_core::{NodeWeights, QueryCosts, SessionStep};
//! use aigs_graph::dag_from_edges;
//! use aigs_service::{PlanSpec, PolicyKind, SearchEngine};
//!
//! let dag = Arc::new(
//!     dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap(),
//! );
//! let weights = Arc::new(NodeWeights::uniform(7));
//! let engine = SearchEngine::default();
//! let plan = engine.register_plan(PlanSpec::new(dag.clone(), weights)).unwrap();
//!
//! // Open a suspended session; answers can arrive much later.
//! let mut session = engine.open_session(plan, PolicyKind::GreedyTree).unwrap();
//! let target = aigs_graph::NodeId::new(6);
//! let found = loop {
//!     match session.next_question().unwrap() {
//!         SessionStep::Resolved(_) => break session.finish().unwrap(),
//!         SessionStep::Ask(q) => {
//!             // ... ship q to a crowd worker, suspend, resume on reply ...
//!             let yes = dag.reaches(q, target);
//!             session.answer(yes).unwrap();
//!         }
//!     }
//! };
//! assert_eq!(found.target, target);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durability;
mod engine;
mod error;
mod kind;
mod plan;
pub mod telemetry;
pub mod wire;

pub use durability::{DurabilityConfig, FsyncPolicy, RecoveryReport};
pub use engine::{
    CompiledTier, EngineConfig, EngineStats, SearchEngine, SessionHandle, SessionId, ShardStats,
    DEFAULT_MAX_SESSIONS,
};
pub use error::ServiceError;
pub use kind::PolicyKind;
pub use plan::{PlanId, PlanSpec, ReachChoice};
