//! Shared plan artifacts: the per-(hierarchy, distribution) state every
//! session on that plan reuses.

use std::sync::{Arc, Mutex, OnceLock};

use aigs_core::{
    fresh_cache_token, CompiledConfig, CompiledPlan, NodeWeights, Policy, QueryCosts, SearchContext,
};
use aigs_graph::{Dag, ReachIndex};

use crate::kind::{PolicyKind, POOLED_KINDS};
use crate::telemetry::{kind_slot_name, micros_to_price, PlanTelemetry, PredictedCost};
use crate::telemetry::{PlanCostSnapshot, PlanKindCost, KIND_SLOTS};
use crate::ServiceError;

/// Handle to a registered plan (a "roster entry"): one hierarchy + target
/// distribution + query-price schedule, with its shared reachability index
/// and policy-instance pool.
///
/// The id is scoped to the engine that issued it: presenting it to a
/// different [`crate::SearchEngine`] fails with
/// [`crate::ServiceError::UnknownPlan`] instead of silently resolving to
/// whatever plan that engine registered at the same position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId {
    pub(crate) engine: u32,
    pub(crate) index: u32,
}

impl PlanId {
    /// The plan's registration position on its engine — the value
    /// telemetry uses as the `plan` label
    /// ([`crate::telemetry::PlanCostSnapshot::plan`]).
    pub fn index(&self) -> u32 {
        self.index
    }
}

/// Which reachability backend a plan shares across its sessions.
///
/// Every backend is exact, so the choice changes time and memory, never
/// transcripts (property-tested). See the `ReachIndex` notes in ROADMAP.md
/// for measured trade-offs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReachChoice {
    /// No index on trees; [`ReachIndex::auto`] on DAGs (closure up to
    /// [`aigs_graph::AUTO_CLOSURE_MAX_NODES`] nodes, GRAIL intervals past
    /// it). The right default.
    #[default]
    Auto,
    /// Force the O(n²/8)-byte transitive closure (O(1) queries).
    Closure,
    /// Force GRAIL interval labelings: O(k·n) memory, O(k) negatives.
    Interval {
        /// Number of independent labelings `k` (2–5 is typical).
        labelings: usize,
        /// Seed for the randomised label orders.
        seed: u64,
    },
    /// Index-free traversal fallback.
    Bfs,
    /// No shared index at all; policies that need one build their own.
    None,
}

/// Everything needed to register a plan with
/// [`crate::SearchEngine::register_plan`].
///
/// The `Arc`s make sharing explicit: one dag / weight vector / price
/// schedule serves every session of every policy on this plan, however many
/// engines hold it.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// The category hierarchy.
    pub dag: Arc<Dag>,
    /// The a-priori target distribution.
    pub weights: Arc<NodeWeights>,
    /// Query prices (uniform by default).
    pub costs: Arc<QueryCosts>,
    /// Shared reachability backend choice.
    pub reach: ReachChoice,
    /// Per-plan compiled-tier opt-in: `Some(cfg)` compiles this plan's
    /// decision trees (lazily, per policy kind) with `cfg`'s truncation
    /// knobs, so sessions step through a flat array instead of the live
    /// policy. `None` serves live unless the engine-wide tier
    /// ([`crate::CompiledTier::All`]) supplies a default.
    pub compiled: Option<CompiledConfig>,
}

impl PlanSpec {
    /// Plan with uniform costs and the auto-selected reachability backend.
    pub fn new(dag: Arc<Dag>, weights: Arc<NodeWeights>) -> Self {
        PlanSpec {
            dag,
            weights,
            costs: Arc::new(QueryCosts::Uniform),
            reach: ReachChoice::Auto,
            compiled: None,
        }
    }

    /// Attaches per-node query prices.
    pub fn with_costs(mut self, costs: Arc<QueryCosts>) -> Self {
        self.costs = costs;
        self
    }

    /// Overrides the reachability backend choice.
    pub fn with_reach(mut self, reach: ReachChoice) -> Self {
        self.reach = reach;
        self
    }

    /// Opts the plan into the compiled serving tier with `cfg`.
    pub fn with_compiled(mut self, cfg: CompiledConfig) -> Self {
        self.compiled = Some(cfg);
        self
    }
}

/// A registered plan: the spec's artifacts plus the built index, the
/// plan-wide cache token, and the policy-instance pools.
///
/// `Arc<PlanEntry>` is held by every live session on the plan, so artifacts
/// stay alive exactly as long as something uses them.
/// State of one lazily built warm prototype: `None` = not yet attempted,
/// `Some(None)` = warm-up failed (cached), `Some(Some(p))` = ready.
type WarmSlot = Option<Option<Box<dyn Policy + Send>>>;

pub(crate) struct PlanEntry {
    dag: Arc<Dag>,
    weights: Arc<NodeWeights>,
    costs: Arc<QueryCosts>,
    reach: Option<ReachIndex>,
    /// The spec's backend *choice* (as opposed to the built index above),
    /// kept so the durability layer can re-encode the plan exactly as it
    /// was registered.
    reach_choice: ReachChoice,
    /// Non-zero token certifying the (dag, weights, costs) triple to policy
    /// instance caches: a pooled policy's `try_reset` under a matching
    /// token unwinds its journal in O(Δ of the last session) instead of
    /// rebuilding O(n) base state.
    cache_token: u64,
    /// One LIFO pool per poolable [`PolicyKind`]: warm instances keep their
    /// per-instance caches (closures, Euler views, base arrays).
    pools: [Mutex<Vec<Box<dyn Policy + Send>>>; POOLED_KINDS],
    pool_cap: usize,
    /// Lazily built warm *prototype* per poolable kind: an instance that
    /// was reset under the plan's context and pre-selected once, so its
    /// base candidate state (and, for frontier-caching policies, the base
    /// frontier) is already computed. Pool misses clone this instead of
    /// cold-building, turning an open-burst cold start from an O(n)
    /// rebuild into a memcpy of warm state. `None` = not yet attempted,
    /// `Some(None)` = the warm-up failed/panicked (cached — such kinds
    /// cold-build forever), `Some(Some(p))` = ready to clone.
    warm: [Mutex<WarmSlot>; POOLED_KINDS],
    /// The spec's compiled-tier opt-in, kept for WAL re-encoding and as
    /// the config the lazy compiles below use (falling back to the
    /// engine-wide default when `None`).
    compiled_cfg: Option<CompiledConfig>,
    /// Lazily compiled flat decision trees, one slot per poolable kind
    /// (deterministic kinds only — `Random` has no tree to compile).
    /// `Some(None)` caches a failed/oversized compile so every session
    /// after the first falls through to the live tier without retrying.
    compiled: [OnceLock<Option<Arc<CompiledPlan>>>; POOLED_KINDS],
    /// Realized-cost telemetry cells (queries/price per finished session,
    /// one cell per kind slot).
    telemetry: PlanTelemetry,
    /// Lazily computed predicted expected cost per poolable kind, from an
    /// exhaustive evaluation over the plan's prior (paper Definition 8).
    /// `Some(None)` caches an evaluation that failed or panicked.
    predicted: [OnceLock<Option<PredictedCost>>; POOLED_KINDS],
}

impl PlanEntry {
    pub(crate) fn build(spec: PlanSpec, pool_cap: usize) -> Result<Self, ServiceError> {
        let reach = match spec.reach {
            ReachChoice::Auto => {
                if spec.dag.is_tree() {
                    None
                } else {
                    Some(ReachIndex::auto(&spec.dag))
                }
            }
            ReachChoice::Closure => Some(ReachIndex::closure_for(&spec.dag)),
            ReachChoice::Interval { labelings, seed } => {
                Some(ReachIndex::interval_for(&spec.dag, labelings, seed))
            }
            ReachChoice::Bfs => Some(ReachIndex::Bfs),
            ReachChoice::None => None,
        };
        let entry = PlanEntry {
            dag: spec.dag,
            weights: spec.weights,
            costs: spec.costs,
            reach,
            reach_choice: spec.reach,
            cache_token: fresh_cache_token(),
            pools: std::array::from_fn(|_| Mutex::new(Vec::new())),
            pool_cap,
            warm: std::array::from_fn(|_| Mutex::new(None)),
            compiled_cfg: spec.compiled,
            compiled: std::array::from_fn(|_| OnceLock::new()),
            telemetry: PlanTelemetry::new(),
            predicted: std::array::from_fn(|_| OnceLock::new()),
        };
        entry.ctx().validate().map_err(ServiceError::Core)?;
        Ok(entry)
    }

    /// The registered artifacts, for WAL snapshot encoding.
    pub(crate) fn artifacts(
        &self,
    ) -> (
        &Dag,
        &NodeWeights,
        &QueryCosts,
        ReachChoice,
        Option<&CompiledConfig>,
    ) {
        (
            &self.dag,
            &self.weights,
            &self.costs,
            self.reach_choice,
            self.compiled_cfg.as_ref(),
        )
    }

    /// The compiled flat tree for `kind`, compiling it on first use with
    /// the plan's config (or `tier_default` when the plan did not opt in
    /// itself). `None` when the kind has no tree (`Random`), when neither
    /// the plan nor the engine tier supplies a config, or when the compile
    /// failed — the caller serves live in every such case. Failures are
    /// cached: a plan that cannot compile is decided once, not per open.
    pub(crate) fn compiled_for(
        &self,
        kind: PolicyKind,
        tier_default: Option<&CompiledConfig>,
    ) -> Option<Arc<CompiledPlan>> {
        let i = kind.pool_index()?;
        let cfg = *self.compiled_cfg.as_ref().or(tier_default)?;
        self.compiled[i]
            .get_or_init(|| {
                let (mut policy, _) = self.acquire(kind);
                let compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    CompiledPlan::compile(policy.as_mut(), &self.ctx(), &cfg)
                }));
                match compiled {
                    Ok(Ok(plan)) => {
                        // The compile DFS unwinds the policy back to its
                        // reset state, so the instance is safe to pool.
                        self.release(kind, policy);
                        Some(Arc::new(plan))
                    }
                    // Compile error or panic: drop the instance (its state
                    // is unknown) and serve this kind live forever.
                    _ => None,
                }
            })
            .clone()
    }

    /// The borrow-based view policies consume, rebuilt per call from the
    /// owned artifacts (all cheap references + the cached token).
    pub(crate) fn ctx(&self) -> SearchContext<'_> {
        let base = SearchContext::new(&self.dag, &self.weights)
            .with_costs(&self.costs)
            .with_cache_token(self.cache_token);
        match &self.reach {
            Some(r) => base.with_reach(r),
            None => base,
        }
    }

    /// A policy instance for `kind`: a warm pooled one when available
    /// (`true` = pool hit), else a clone of the plan's warm prototype,
    /// else a fresh cold build. Prototype clones report `false` — the
    /// `pool_hits` counter stays a measure of genuine instance reuse —
    /// but they still skip the O(n) base rebuild a cold start pays: the
    /// clone carries the prototype's reset state (under the plan's cache
    /// token, so the session's own reset is an O(1) token match) plus
    /// whatever the pre-select computed.
    pub(crate) fn acquire(&self, kind: PolicyKind) -> (Box<dyn Policy + Send>, bool) {
        if let Some(i) = kind.pool_index() {
            if let Some(p) = self.pools[i].lock().expect("pool poisoned").pop() {
                return (p, true);
            }
            if let Some(p) = self.warm_clone(kind, i) {
                return (p, false);
            }
        }
        (kind.build(), false)
    }

    /// Clones the warm prototype for pool slot `i`, building it on first
    /// use: `kind.build()` + reset under the plan context + one
    /// pre-`select` (skipped when the plan resolves immediately) so the
    /// instance's lazily-computed base state is materialised before it is
    /// ever cloned. A warm-up that errors or panics is cached as absent —
    /// the kind falls back to cold builds without retrying per open. The
    /// slot lock is held across `clone_box`, serialising concurrent
    /// cold-start bursts on the memcpy instead of letting each pay the
    /// full rebuild.
    fn warm_clone(&self, kind: PolicyKind, i: usize) -> Option<Box<dyn Policy + Send>> {
        let mut slot = self.warm[i].lock().expect("warm slot poisoned");
        let proto = slot.get_or_insert_with(|| {
            let warmed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut p = kind.build();
                p.try_reset(&self.ctx()).ok()?;
                if p.resolved().is_none() {
                    let _ = p.select(&self.ctx());
                }
                Some(p)
            }));
            match warmed {
                Ok(Some(p)) => Some(p),
                _ => None,
            }
        });
        proto.as_ref().map(|p| p.clone_box())
    }

    /// Returns a healthy instance to its pool (dropped when the pool is at
    /// capacity or the kind is unpoolable).
    ///
    /// The instance is reset **eagerly, before pooling**: unwinding the
    /// finished session's journal here — off the open path, outside any
    /// slot lock — means the next `open_session` that hits the pool resets
    /// an already-unwound instance in O(1) instead of paying the departed
    /// session's O(Δ) unwind at admission time. An instance whose reset
    /// fails is in an unknown state and is dropped instead of pooled.
    pub(crate) fn release(&self, kind: PolicyKind, mut policy: Box<dyn Policy + Send>) {
        if let Some(i) = kind.pool_index() {
            {
                let pool = self.pools[i].lock().expect("pool poisoned");
                if pool.len() >= self.pool_cap {
                    return;
                }
            }
            // Unwind outside the pool lock; re-check capacity when pooling
            // (a race past the cap at worst drops a warm instance). A reset
            // that fails — or *panics*, for a policy whose internal state a
            // previous panic left inconsistent — discards the instance
            // instead of pooling it.
            let reset = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                policy.try_reset(&self.ctx())
            }));
            if !matches!(reset, Ok(Ok(()))) {
                return;
            }
            let mut pool = self.pools[i].lock().expect("pool poisoned");
            if pool.len() < self.pool_cap {
                pool.push(policy);
            }
        }
    }

    /// Records one finished session's realized cost into the plan's
    /// telemetry cell for `kind` (two relaxed adds plus a histogram
    /// record).
    pub(crate) fn record_finish(&self, kind: PolicyKind, queries: u32, price: f64) {
        self.telemetry.record_finish(kind, queries, price);
    }

    /// The predicted expected cost of `kind` on this plan, computing it on
    /// first call by evaluating the policy exhaustively over the prior
    /// (paper Definitions 7–8; O(targets × session length)). `None` for
    /// `Random` (no deterministic tree to evaluate) or when the evaluation
    /// fails. Cached — subsequent calls are a load.
    pub(crate) fn predict(&self, kind: PolicyKind) -> Option<PredictedCost> {
        let i = kind.pool_index()?;
        *self.predicted[i].get_or_init(|| {
            let (mut policy, _) = self.acquire(kind);
            let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                aigs_core::evaluate_exhaustive(policy.as_mut(), &self.ctx())
            }));
            match report {
                Ok(Ok(report)) => {
                    // Exhaustive evaluation leaves the policy reset between
                    // targets, so the instance is safe to pool.
                    self.release(kind, policy);
                    Some(PredictedCost {
                        expected_queries: report.expected_cost,
                        expected_price: report.expected_price,
                    })
                }
                // Evaluation error or panic: drop the instance and cache
                // the absence so no later snapshot retries the O(n·len)
                // sweep.
                _ => None,
            }
        })
    }

    /// The cached prediction for kind slot `i`, never forcing the
    /// evaluation (snapshots must not spend O(targets × session length)
    /// on the stats path).
    fn predicted_peek(&self, i: usize) -> Option<PredictedCost> {
        self.predicted
            .get(i)
            .and_then(|slot| slot.get())
            .copied()
            .flatten()
    }

    /// Realized/predicted cost rows for this plan: one row per kind slot
    /// with recorded traffic or a computed prediction.
    pub(crate) fn cost_snapshot(&self, plan_index: u32) -> PlanCostSnapshot {
        let mut kinds = Vec::new();
        for i in 0..KIND_SLOTS {
            let cell = &self.telemetry.realized[i];
            let queries = cell.queries.snapshot();
            let predicted = self.predicted_peek(i);
            if queries.count() == 0 && predicted.is_none() {
                continue;
            }
            kinds.push(PlanKindCost {
                kind: kind_slot_name(i).to_string(),
                queries,
                price_sum: micros_to_price(
                    cell.price_micros.load(std::sync::atomic::Ordering::Relaxed),
                ),
                predicted,
            });
        }
        PlanCostSnapshot {
            plan: plan_index,
            kinds,
        }
    }

    #[cfg(test)]
    pub(crate) fn pooled(&self, kind: PolicyKind) -> usize {
        kind.pool_index()
            .map_or(0, |i| self.pools[i].lock().unwrap().len())
    }

    /// Whether the warm prototype for `kind` has been built (test hook).
    #[cfg(test)]
    pub(crate) fn warm_ready(&self, kind: PolicyKind) -> bool {
        kind.pool_index()
            .is_some_and(|i| matches!(*self.warm[i].lock().unwrap(), Some(Some(_))))
    }
}

impl std::fmt::Debug for PlanEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanEntry")
            .field("nodes", &self.dag.node_count())
            .field(
                "reach",
                &self.reach.as_ref().map_or("none", |r| r.backend_name()),
            )
            .field("cache_token", &self.cache_token)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aigs_graph::dag_from_edges;

    fn diamond_plan(reach: ReachChoice) -> PlanEntry {
        let dag = Arc::new(dag_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap());
        let weights = Arc::new(NodeWeights::uniform(5));
        PlanEntry::build(PlanSpec::new(dag, weights).with_reach(reach), 4).unwrap()
    }

    #[test]
    fn backend_choices_build() {
        assert_eq!(
            diamond_plan(ReachChoice::Auto)
                .ctx()
                .reach
                .map(|r| r.backend_name()),
            Some("closure")
        );
        assert!(diamond_plan(ReachChoice::Closure).ctx().closure().is_some());
        assert_eq!(
            diamond_plan(ReachChoice::Interval {
                labelings: 2,
                seed: 9
            })
            .ctx()
            .reach
            .map(|r| r.backend_name()),
            Some("interval")
        );
        assert_eq!(
            diamond_plan(ReachChoice::Bfs)
                .ctx()
                .reach
                .map(|r| r.backend_name()),
            Some("bfs")
        );
        assert!(diamond_plan(ReachChoice::None).ctx().reach.is_none());
        // Trees default to no index at all.
        let tree = Arc::new(dag_from_edges(3, &[(0, 1), (0, 2)]).unwrap());
        let entry =
            PlanEntry::build(PlanSpec::new(tree, Arc::new(NodeWeights::uniform(3))), 4).unwrap();
        assert!(entry.ctx().reach.is_none());
    }

    #[test]
    fn mismatched_weights_rejected_at_registration() {
        let dag = Arc::new(dag_from_edges(3, &[(0, 1), (0, 2)]).unwrap());
        let weights = Arc::new(NodeWeights::uniform(4));
        let err = PlanEntry::build(PlanSpec::new(dag, weights), 4).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Core(aigs_core::CoreError::WeightMismatch { .. })
        ));
    }

    #[test]
    fn pool_is_lifo_and_capped() {
        let plan = diamond_plan(ReachChoice::Auto);
        let kind = PolicyKind::GreedyDag;
        let (a, hit) = plan.acquire(kind);
        assert!(!hit, "empty pool builds fresh");
        plan.release(kind, a);
        assert_eq!(plan.pooled(kind), 1);
        let (_b, hit) = plan.acquire(kind);
        assert!(hit, "warm instance reused");
        assert_eq!(plan.pooled(kind), 0);
        // Cap: release more than pool_cap instances, surplus is dropped.
        for _ in 0..10 {
            plan.release(kind, kind.build());
        }
        assert_eq!(plan.pooled(kind), 4);
        // Random is never pooled.
        let r = PolicyKind::Random { seed: 1 };
        plan.release(r, r.build());
        assert_eq!(plan.pooled(r), 0);
    }

    #[test]
    fn pool_miss_clones_warm_prototype() {
        let plan = diamond_plan(ReachChoice::Auto);
        let kind = PolicyKind::GreedyDag;
        assert!(!plan.warm_ready(kind), "prototype is lazy");
        let (_a, hit) = plan.acquire(kind);
        assert!(!hit, "prototype clones are not pool hits");
        assert!(plan.warm_ready(kind), "first miss builds the prototype");
        // Random is unpoolable and never gets a prototype.
        let r = PolicyKind::Random { seed: 1 };
        let _ = plan.acquire(r);
        assert!(!plan.warm_ready(r));
    }

    #[test]
    fn prototype_clones_share_one_opening_book() {
        // Every clone of the warm prototype holds the one book the
        // prototype's pre-select wrote, so book memory does not scale with
        // the pool.
        let plan = diamond_plan(ReachChoice::Closure);
        let kind = PolicyKind::GreedyDag;
        let (a, _) = plan.acquire(kind);
        let (b, _) = plan.acquire(kind);
        fn greedy_dag(p: &dyn Policy) -> &aigs_core::policy::GreedyDagPolicy {
            p.as_any()
                .and_then(|any| any.downcast_ref())
                .expect("a greedy-dag instance")
        }
        let (a, b) = (greedy_dag(a.as_ref()), greedy_dag(b.as_ref()));
        assert!(a.opening_book_bytes() > 0, "the prototype wrote a book");
        assert!(a.shares_opening_book(b));
    }

    #[test]
    fn warm_clone_matches_cold_build_transcripts() {
        // A warm-cloned instance must be observationally identical to a
        // freshly built one: drive both through every single-answer
        // session on the diamond and compare selections.
        let plan = diamond_plan(ReachChoice::Auto);
        let ctx = plan.ctx();
        for yes in [false, true] {
            let (mut warm, _) = plan.acquire(PolicyKind::GreedyDag);
            let mut cold = PolicyKind::GreedyDag.build();
            warm.try_reset(&ctx).unwrap();
            cold.try_reset(&ctx).unwrap();
            for _ in 0..4 {
                if warm.resolved().is_some() || cold.resolved().is_some() {
                    assert_eq!(warm.resolved(), cold.resolved());
                    break;
                }
                let (a, b) = (warm.select(&ctx), cold.select(&ctx));
                assert_eq!(a, b, "warm clone diverged from cold build");
                warm.observe(&ctx, a, yes);
                cold.observe(&ctx, b, yes);
            }
        }
    }

    #[test]
    fn compiled_trees_are_lazy_cached_and_kind_scoped() {
        let plan = diamond_plan(ReachChoice::Auto);
        // No plan opt-in, no engine default: nothing compiles.
        assert!(plan.compiled_for(PolicyKind::GreedyDag, None).is_none());
        // An engine-wide default kicks in, and the compile is cached.
        let dflt = CompiledConfig::new();
        let c1 = plan
            .compiled_for(PolicyKind::GreedyDag, Some(&dflt))
            .expect("compiles under engine default");
        let c2 = plan
            .compiled_for(PolicyKind::GreedyDag, Some(&dflt))
            .unwrap();
        assert!(Arc::ptr_eq(&c1, &c2), "second call reuses the compile");
        assert!(!c1.truncated());
        // Random has no decision tree to compile.
        assert!(plan
            .compiled_for(PolicyKind::Random { seed: 1 }, Some(&dflt))
            .is_none());

        // A per-plan opt-in compiles without any engine default.
        let dag = Arc::new(dag_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap());
        let weights = Arc::new(NodeWeights::uniform(5));
        let spec =
            PlanSpec::new(dag, weights).with_compiled(CompiledConfig::new().with_max_depth(1));
        let plan = PlanEntry::build(spec, 4).unwrap();
        let c = plan.compiled_for(PolicyKind::TopDown, None).unwrap();
        assert!(c.truncated(), "depth-1 compile truncates the diamond");
    }
}
