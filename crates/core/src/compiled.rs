//! Compiled serving plans: a policy's decision tree flattened into a
//! cache-friendly array so hot sessions step with **no policy state**.
//!
//! A deterministic policy induces a binary decision tree (Definitions 6–8);
//! [`crate::DecisionTreeBuilder`] materialises it, but serving from the
//! builder's `enum`-node representation would still chase `Vec<DtNode>`
//! matches. [`CompiledPlan::compile`] runs the same single-DFS enumeration
//! directly into a flat array of 12-byte nodes — queried [`NodeId`] plus
//! yes/no child slots, with leaves *encoded into the parent's child slot* —
//! so a serving step is one index load and a branch.
//!
//! ## Truncation and the fallback frontier
//!
//! Full trees on deep DAG hierarchies can be large (up to one leaf per
//! answer path, not per target), so compilation is bounded by three knobs
//! ([`CompiledConfig`]): a depth cap, a weight-mass floor, and a node
//! budget. Subtrees past the depth cap or below the mass floor become
//! **frontier sentinels**: a session whose answers walk into one falls back
//! to the live pooled policy by replaying its recorded answers — the hybrid
//! hot-subtree/cold-compute split from ROADMAP item 2. Exceeding the node
//! budget is a typed [`CoreError::TreeBudgetExceeded`] error, never
//! unbounded memory growth.
//!
//! ## Exactness
//!
//! [`CompiledCursor`] mirrors [`SessionStepper`](crate::SessionStepper)
//! call-for-call (same pending/resolved/cap check order, same price
//! accumulation order), and the compiler enumerates exactly the questions
//! the policy would ask, so a compiled session's transcript — questions,
//! query counts, prices, finish outcome, error behaviour — is
//! **bit-identical** to the live policy's, including across a mid-flight
//! frontier crossing (the replayed live policy re-derives the identical
//! state because policies are deterministic functions of the answer
//! history).

use std::borrow::Borrow;

use aigs_graph::NodeId;

use crate::{CoreError, Policy, SearchContext, SearchOutcome, SessionStep};

/// Child-slot encoding: high bit set = leaf carrying the target id; all
/// ones = the truncation frontier (fall back to the live policy).
const LEAF_BIT: u32 = 1 << 31;
/// The frontier sentinel (note `FALLBACK & LEAF_BIT != 0`, so target ids
/// must stay below `LEAF_BIT − 1`; [`CompiledPlan::compile`] enforces it).
const FALLBACK: u32 = u32::MAX;

/// One flat node: the queried hierarchy node and the two child slots
/// (`children[1]` = yes, `children[0]` = no), each either an internal node
/// index, an encoded leaf, or the frontier sentinel.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    q: u32,
    children: [u32; 2],
}

/// Knobs bounding [`CompiledPlan::compile`]. The defaults compile the full
/// tree under the same generous node budget as
/// [`crate::DecisionTreeBuilder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledConfig {
    /// Maximum compiled depth (answers along a path). Paths needing more
    /// questions cross the frontier. `None` = unbounded.
    pub max_depth: Option<u32>,
    /// Weight-mass floor: a subtree whose remaining candidate mass falls
    /// below this is not compiled (it serves traffic too rare to matter).
    /// `0.0` never truncates.
    pub min_mass: f64,
    /// Node budget; exceeding it is [`CoreError::TreeBudgetExceeded`].
    /// `None` = the builder default `64·n + 1024`.
    pub max_nodes: Option<usize>,
}

impl Default for CompiledConfig {
    fn default() -> Self {
        CompiledConfig {
            max_depth: None,
            min_mass: 0.0,
            max_nodes: None,
        }
    }
}

impl CompiledConfig {
    /// Full-tree compilation with default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the compiled depth.
    pub fn with_max_depth(mut self, depth: u32) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Sets the weight-mass truncation floor.
    pub fn with_min_mass(mut self, mass: f64) -> Self {
        self.min_mass = mass;
        self
    }

    /// Overrides the node budget.
    pub fn with_max_nodes(mut self, nodes: usize) -> Self {
        self.max_nodes = Some(nodes);
        self
    }
}

/// A policy's decision tree compiled for serving: flat nodes plus the
/// encoded root slot. Immutable once built — share it behind an `Arc` and
/// step any number of concurrent [`CompiledCursor`]s through it.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    nodes: Vec<FlatNode>,
    root: u32,
    truncated: bool,
}

impl CompiledPlan {
    /// Compiles `policy`'s decision tree on `ctx` under `cfg`.
    ///
    /// Runs the policy through every compiled answer path once (the same
    /// `observe`/`unobserve` DFS as [`crate::DecisionTreeBuilder`]), so
    /// compile time is O(tree size × policy step cost) — an offline cost
    /// paid at plan registration. Branches no target can produce are
    /// emitted as frontier sentinels without descending (the policy never
    /// receives impossible answers during compilation, exactly as it never
    /// does in a live session; a session *fed* impossible answers falls
    /// back and replays them into the live policy, reproducing its
    /// behaviour bit-for-bit).
    pub fn compile(
        policy: &mut dyn Policy,
        ctx: &SearchContext<'_>,
        cfg: &CompiledConfig,
    ) -> Result<Self, CoreError> {
        let n = ctx.dag.node_count();
        // Targets and internal indices share u32 slots with the two
        // sentinel encodings; node counts anywhere near this are already
        // unserviceable.
        let id_cap = (LEAF_BIT - 1) as usize;
        if n >= id_cap {
            return Err(CoreError::TooLargeForExact {
                nodes: n,
                cap: id_cap,
            });
        }
        let budget = cfg.max_nodes.unwrap_or(64 * n + 1024).min(id_cap);
        policy.try_reset(ctx)?;

        let weights = ctx.weights.as_slice();
        let mut cand = aigs_graph::CandidateSet::new(n);
        let mut mass: f64 = weights.iter().sum();
        // Mass removed per observed answer, restored on backtrack.
        let mut removed_stack: Vec<f64> = Vec::new();

        let mut nodes: Vec<FlatNode> = Vec::new();
        let mut root: u32 = FALLBACK;
        let mut truncated = false;

        enum Step {
            /// Visit the branch under `parent` (`None` = the root slot).
            Enter {
                parent: Option<(u32, bool)>,
                depth: u32,
            },
            Backtrack,
        }
        let mut stack = vec![Step::Enter {
            parent: None,
            depth: 0,
        }];

        // Writes an encoded slot value into its parent (or the root).
        fn wire(nodes: &mut [FlatNode], root: &mut u32, parent: Option<(u32, bool)>, slot: u32) {
            match parent {
                None => *root = slot,
                Some((p, is_yes)) => nodes[p as usize].children[is_yes as usize] = slot,
            }
        }

        while let Some(step) = stack.pop() {
            match step {
                Step::Backtrack => {
                    policy.unobserve(ctx);
                    cand.undo();
                    mass += removed_stack.pop().expect("balanced backtracks");
                }
                Step::Enter { parent, depth } => {
                    if let Some((p, is_yes)) = parent {
                        let q = NodeId::new(nodes[p as usize].q as usize);
                        // Ground-truth candidate tracking: unrealisable
                        // branches become frontier sentinels without
                        // descending. (`apply_original`: wasteful policies
                        // may probe already-eliminated nodes, where only
                        // original-graph descendant semantics is exact.)
                        cand.apply_original(ctx.dag, q, is_yes);
                        let frame: f64 = cand.last_frame().iter().map(|u| weights[u.index()]).sum();
                        if cand.count() == 0 {
                            cand.undo();
                            wire(&mut nodes, &mut root, parent, FALLBACK);
                            continue;
                        }
                        mass -= frame;
                        // Truncation: depth cap or mass floor crossed — the
                        // frontier starts here.
                        if depth >= cfg.max_depth.unwrap_or(u32::MAX) || mass < cfg.min_mass {
                            mass += frame;
                            cand.undo();
                            wire(&mut nodes, &mut root, parent, FALLBACK);
                            truncated = true;
                            continue;
                        }
                        removed_stack.push(frame);
                        policy.observe(ctx, q, is_yes);
                        stack.push(Step::Backtrack);
                    } else if depth >= cfg.max_depth.unwrap_or(u32::MAX) || mass < cfg.min_mass {
                        // Degenerate root truncation (max_depth = 0 or an
                        // unreachable mass floor): everything falls back.
                        truncated = true;
                        continue;
                    }
                    match policy.resolved() {
                        Some(target) => {
                            wire(
                                &mut nodes,
                                &mut root,
                                parent,
                                LEAF_BIT | target.index() as u32,
                            );
                        }
                        None => {
                            if nodes.len() >= budget {
                                return Err(CoreError::TreeBudgetExceeded {
                                    nodes: nodes.len(),
                                    budget,
                                });
                            }
                            let idx = nodes.len() as u32;
                            let q = policy.select(ctx);
                            nodes.push(FlatNode {
                                q: q.index() as u32,
                                children: [FALLBACK; 2],
                            });
                            wire(&mut nodes, &mut root, parent, idx);
                            // Push no first so yes is explored first
                            // (cosmetic: matches the paper's left = yes).
                            stack.push(Step::Enter {
                                parent: Some((idx, false)),
                                depth: depth + 1,
                            });
                            stack.push(Step::Enter {
                                parent: Some((idx, true)),
                                depth: depth + 1,
                            });
                        }
                    }
                }
            }
        }

        Ok(CompiledPlan {
            nodes,
            root,
            truncated,
        })
    }

    /// A fresh cursor at the root. Infallible (the policy's construction
    /// already succeeded at compile time); check
    /// [`CompiledCursor::needs_fallback`] before serving — a truncated root
    /// sends the session straight to the live tier.
    pub fn cursor(&self, ctx: &SearchContext<'_>, max_queries: Option<u32>) -> CompiledCursor {
        let hard_cap = 4 * ctx.dag.node_count() as u32 + 64;
        CompiledCursor {
            at: self.root,
            cap: max_queries.map_or(hard_cap, |m| m.min(hard_cap)),
            queries: 0,
            price: 0.0,
            pending: false,
        }
    }

    /// Rebuilds a suspended compiled session from its recorded answers,
    /// mirroring [`crate::SessionStepper::replay`]. May stop early at the
    /// frontier: when the returned cursor [`needs
    /// fallback`](CompiledCursor::needs_fallback), the caller must instead
    /// replay the **full** answer log into a live policy instance.
    /// `answers` takes the same forms as in `SessionStepper::replay`.
    pub fn replay<A>(
        &self,
        ctx: &SearchContext<'_>,
        max_queries: Option<u32>,
        answers: A,
    ) -> Result<CompiledCursor, CoreError>
    where
        A: IntoIterator,
        A::Item: Borrow<bool>,
    {
        let mut cur = self.cursor(ctx, max_queries);
        for yes in answers {
            if cur.needs_fallback() {
                return Ok(cur);
            }
            match cur.next_question(self)? {
                SessionStep::Ask(_) => cur.answer(self, ctx, *yes.borrow())?,
                SessionStep::Resolved(_) => {
                    return Err(CoreError::SessionMisuse(
                        "replay answers extend past the search's resolution",
                    ))
                }
            }
        }
        Ok(cur)
    }

    /// Number of compiled (internal) nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether any path crosses a truncation frontier (depth or mass; dead
    /// branches don't count — no truthful session can reach them).
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Resident size of the flat array in bytes — the per-plan memory side
    /// of the compile-time/memory/step-latency triangle.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nodes.len() * std::mem::size_of::<FlatNode>()
    }
}

/// A session position inside a [`CompiledPlan`]: the serving-tier
/// counterpart of [`crate::SessionStepper`], with the same protocol and the
/// same typed errors, but no policy state — just an encoded slot, the query
/// cap, and the bill so far.
#[derive(Debug, Clone)]
pub struct CompiledCursor {
    at: u32,
    cap: u32,
    queries: u32,
    price: f64,
    pending: bool,
}

impl CompiledCursor {
    /// True when the cursor crossed the truncation frontier: the compiled
    /// tier cannot serve this session further, and the caller must replay
    /// the answer history into a live policy instance.
    pub fn needs_fallback(&self) -> bool {
        self.at == FALLBACK
    }

    /// The next thing this session needs, mirroring
    /// [`crate::SessionStepper::next_question`] exactly (pending question
    /// first, resolution before the cap check, [`CoreError::Diverged`] once
    /// the cap is exhausted).
    pub fn next_question(&mut self, plan: &CompiledPlan) -> Result<SessionStep, CoreError> {
        if self.at == FALLBACK {
            return Err(CoreError::SessionMisuse(
                "compiled cursor stepped past the truncation frontier",
            ));
        }
        if self.at & LEAF_BIT != 0 {
            return Ok(SessionStep::Resolved(NodeId::new(
                (self.at & !LEAF_BIT) as usize,
            )));
        }
        let node = &plan.nodes[self.at as usize];
        if !self.pending {
            if self.queries >= self.cap {
                return Err(CoreError::Diverged {
                    queries: self.queries,
                    limit: self.cap,
                });
            }
            self.pending = true;
        }
        Ok(SessionStep::Ask(NodeId::new(node.q as usize)))
    }

    /// Feeds an answer to the pending question, billing its price and
    /// advancing the cursor. After a `true` return, check
    /// [`needs_fallback`](Self::needs_fallback): the answer may have
    /// crossed the frontier.
    pub fn answer(
        &mut self,
        plan: &CompiledPlan,
        ctx: &SearchContext<'_>,
        yes: bool,
    ) -> Result<(), CoreError> {
        if !self.pending {
            return Err(CoreError::SessionMisuse(
                "answer() with no pending question",
            ));
        }
        let node = &plan.nodes[self.at as usize];
        self.price += ctx.costs.price(NodeId::new(node.q as usize));
        self.queries += 1;
        self.pending = false;
        self.at = node.children[yes as usize];
        Ok(())
    }

    /// The finished session's outcome, mirroring
    /// [`crate::SessionStepper::finish`].
    pub fn finish(&self) -> Result<SearchOutcome, CoreError> {
        if self.at != FALLBACK && self.at & LEAF_BIT != 0 {
            Ok(SearchOutcome {
                target: NodeId::new((self.at & !LEAF_BIT) as usize),
                queries: self.queries,
                price: self.price,
            })
        } else {
            Err(CoreError::SessionMisuse(
                "finish() before the search resolved",
            ))
        }
    }

    /// Queries answered so far.
    pub fn queries(&self) -> u32 {
        self.queries
    }

    /// Price billed so far.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// The question awaiting an answer, if any.
    pub fn pending(&self, plan: &CompiledPlan) -> Option<NodeId> {
        if self.pending {
            Some(NodeId::new(plan.nodes[self.at as usize].q as usize))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyDagPolicy, GreedyTreePolicy, TopDownPolicy, WigsPolicy};
    use crate::{run_session, NodeWeights, SessionStepper, TargetOracle};
    use aigs_graph::dag_from_edges;

    fn fig2a() -> aigs_graph::Dag {
        dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap()
    }

    fn diamond() -> aigs_graph::Dag {
        dag_from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)]).unwrap()
    }

    /// Drives a compiled cursor truthfully for `target`, asserting the
    /// transcript and outcome match the live stepper bit-for-bit.
    fn assert_compiled_matches_live(
        plan: &CompiledPlan,
        mut live: Box<dyn Policy + Send>,
        ctx: &SearchContext<'_>,
        g: &aigs_graph::Dag,
        target: NodeId,
    ) {
        let mut stepper = SessionStepper::start(live.as_mut(), ctx, None).unwrap();
        let mut cur = plan.cursor(ctx, None);
        assert!(!cur.needs_fallback(), "full compile has no frontier");
        loop {
            let want = stepper.next_question(live.as_mut(), ctx).unwrap();
            let got = cur.next_question(plan).unwrap();
            assert_eq!(want, got, "target {target}");
            match got {
                SessionStep::Resolved(_) => {
                    let want = stepper.finish(live.as_ref()).unwrap();
                    let got = cur.finish().unwrap();
                    assert_eq!(want, got, "target {target}");
                    assert_eq!(want.price.to_bits(), got.price.to_bits());
                    return;
                }
                SessionStep::Ask(q) => {
                    let yes = g.reaches(q, target);
                    stepper.answer(live.as_mut(), ctx, yes).unwrap();
                    cur.answer(plan, ctx, yes).unwrap();
                    assert!(!cur.needs_fallback());
                    assert_eq!(cur.queries(), stepper.queries());
                }
            }
        }
    }

    #[test]
    fn full_compile_matches_live_stepper_on_every_target() {
        for g in [fig2a(), diamond()] {
            let w = NodeWeights::uniform(g.node_count());
            let ctx = SearchContext::new(&g, &w);
            let rosters: Vec<Box<dyn Policy + Send>> = vec![
                Box::new(TopDownPolicy::new()),
                Box::new(WigsPolicy::new()),
                Box::new(GreedyDagPolicy::new()),
            ];
            for proto in rosters {
                let mut compile_instance = proto.clone_box();
                let plan =
                    CompiledPlan::compile(compile_instance.as_mut(), &ctx, &CompiledConfig::new())
                        .unwrap();
                assert!(!plan.truncated());
                for z in g.nodes() {
                    assert_compiled_matches_live(&plan, proto.clone_box(), &ctx, &g, z);
                }
            }
        }
    }

    #[test]
    fn truncated_compile_crosses_frontier_where_live_continues() {
        let g = fig2a();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        let cfg = CompiledConfig::new().with_max_depth(1);
        let plan = CompiledPlan::compile(&mut p, &ctx, &cfg).unwrap();
        assert!(plan.truncated());
        // Every target either resolves within one question or falls back;
        // prefixes that stay compiled are bit-identical to the live policy.
        let mut crossed = 0;
        for z in g.nodes() {
            let mut live = GreedyTreePolicy::new();
            let mut stepper = SessionStepper::start(&mut live, &ctx, None).unwrap();
            let mut cur = plan.cursor(&ctx, None);
            let mut answers = Vec::new();
            loop {
                if cur.needs_fallback() {
                    crossed += 1;
                    // The caller's contract: live replay of the answer log
                    // reconstructs the identical session state.
                    let mut fresh = GreedyTreePolicy::new();
                    let replayed =
                        SessionStepper::replay(&mut fresh, &ctx, None, &answers).unwrap();
                    assert_eq!(replayed.queries(), cur.queries());
                    assert_eq!(replayed.price().to_bits(), cur.price().to_bits());
                    break;
                }
                match cur.next_question(&plan).unwrap() {
                    SessionStep::Resolved(t) => {
                        assert_eq!(t, z);
                        assert_eq!(cur.finish().unwrap(), stepper.finish(&live).unwrap());
                        break;
                    }
                    SessionStep::Ask(q) => {
                        assert_eq!(
                            stepper.next_question(&mut live, &ctx).unwrap(),
                            SessionStep::Ask(q)
                        );
                        let yes = g.reaches(q, z);
                        answers.push(yes);
                        stepper.answer(&mut live, &ctx, yes).unwrap();
                        cur.answer(&plan, &ctx, yes).unwrap();
                    }
                }
            }
        }
        assert!(crossed > 0, "depth-1 truncation must strand some targets");
    }

    #[test]
    fn mass_floor_truncates_light_subtrees() {
        let g = fig2a();
        // Nearly all mass on nodes 5 and 6: their subtree compiles, the
        // rest of the tree falls below the floor.
        let w = NodeWeights::from_masses(vec![0.01, 0.01, 0.01, 0.01, 0.01, 0.475, 0.475]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        let cfg = CompiledConfig::new().with_min_mass(0.05);
        let plan = CompiledPlan::compile(&mut p, &ctx, &cfg).unwrap();
        assert!(plan.truncated());
        let full = CompiledPlan::compile(&mut p, &ctx, &CompiledConfig::new()).unwrap();
        assert!(plan.node_count() < full.node_count());
        // The heavy targets still serve fully compiled.
        for z in [NodeId::new(5), NodeId::new(6)] {
            let mut cur = plan.cursor(&ctx, None);
            loop {
                assert!(!cur.needs_fallback(), "heavy path must stay compiled");
                match cur.next_question(&plan).unwrap() {
                    SessionStep::Resolved(t) => {
                        assert_eq!(t, z);
                        break;
                    }
                    SessionStep::Ask(q) => cur.answer(&plan, &ctx, g.reaches(q, z)).unwrap(),
                }
            }
        }
    }

    #[test]
    fn replay_matches_stepper_replay() {
        let g = diamond();
        let w = NodeWeights::uniform(6);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyDagPolicy::new();
        let plan = CompiledPlan::compile(&mut p, &ctx, &CompiledConfig::new()).unwrap();
        for z in g.nodes() {
            let mut rec = crate::TranscriptOracle::new(TargetOracle::new(&g, z));
            let mut live = GreedyDagPolicy::new();
            run_session(&mut live, &ctx, &mut rec, None).unwrap();
            for cut in 0..=rec.transcript.len() {
                let answers: Vec<bool> = rec.transcript[..cut].iter().map(|&(_, a)| a).collect();
                let cur = plan.replay(&ctx, None, &answers).unwrap();
                let mut fresh = GreedyDagPolicy::new();
                let stepper = SessionStepper::replay(&mut fresh, &ctx, None, &answers).unwrap();
                assert_eq!(cur.queries(), stepper.queries());
                assert_eq!(cur.price().to_bits(), stepper.price().to_bits());
            }
            // One answer past resolution is typed misuse, as in the stepper.
            let mut answers: Vec<bool> = rec.transcript.iter().map(|&(_, a)| a).collect();
            answers.push(true);
            assert!(matches!(
                plan.replay(&ctx, None, &answers),
                Err(CoreError::SessionMisuse(_))
            ));
        }
    }

    #[test]
    fn cursor_protocol_misuse_is_typed() {
        let g = fig2a();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        let plan = CompiledPlan::compile(&mut p, &ctx, &CompiledConfig::new()).unwrap();
        let mut cur = plan.cursor(&ctx, None);
        assert!(matches!(
            cur.answer(&plan, &ctx, true),
            Err(CoreError::SessionMisuse(_))
        ));
        assert!(matches!(cur.finish(), Err(CoreError::SessionMisuse(_))));
        // Re-asking without answering returns the same pending question.
        let SessionStep::Ask(q) = cur.next_question(&plan).unwrap() else {
            panic!("expected a question");
        };
        assert_eq!(cur.next_question(&plan).unwrap(), SessionStep::Ask(q));
        assert_eq!(cur.pending(&plan), Some(q));
        // Cap exhaustion surfaces Diverged exactly like the live stepper.
        let mut capped = plan.cursor(&ctx, Some(1));
        let SessionStep::Ask(q) = capped.next_question(&plan).unwrap() else {
            panic!("expected a question");
        };
        capped
            .answer(&plan, &ctx, g.reaches(q, NodeId::new(6)))
            .unwrap();
        match capped.next_question(&plan) {
            Ok(SessionStep::Resolved(_)) => {}
            Ok(SessionStep::Ask(_)) => panic!("cap must bound unresolved sessions"),
            Err(e) => assert!(matches!(e, CoreError::Diverged { limit: 1, .. })),
        }
    }

    #[test]
    fn node_budget_is_typed() {
        let g = fig2a();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        let cfg = CompiledConfig::new().with_max_nodes(2);
        assert!(matches!(
            CompiledPlan::compile(&mut p, &ctx, &cfg),
            Err(CoreError::TreeBudgetExceeded { budget: 2, .. })
        ));
    }

    #[test]
    fn memory_accounting_counts_flat_nodes() {
        let g = fig2a();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        let plan = CompiledPlan::compile(&mut p, &ctx, &CompiledConfig::new()).unwrap();
        assert!(plan.node_count() >= 6, "7 leaves need ≥ 6 internal nodes");
        assert_eq!(
            plan.memory_bytes(),
            std::mem::size_of::<CompiledPlan>() + plan.node_count() * 12
        );
    }
}
