//! Running searches and measuring their cost.
//!
//! [`run_session`] drives one policy/oracle interaction to completion
//! (`FrameworkIGS`, Alg. 1). [`evaluate_exhaustive`] runs a session for
//! *every* node as target and reports the probability-weighted expected cost
//! — exactly the metric of Definition 7 — along with worst-case and
//! per-depth breakdowns used by the experiment harness.

use std::borrow::Borrow;

use aigs_graph::{NodeId, ReachIndex};

use crate::{fresh_cache_token, CoreError, Oracle, Policy, SearchContext, TargetOracle};

/// Borrowed-interval oracle used internally by the evaluation loops so that
/// thousands of per-target oracles share one pair of Euler arrays.
struct IntervalOracle<'a> {
    tin: &'a [u32],
    tout: &'a [u32],
    target: NodeId,
    asked: u32,
}

impl Oracle for IntervalOracle<'_> {
    fn reach(&mut self, q: NodeId) -> bool {
        self.asked += 1;
        self.tin[q.index()] <= self.tin[self.target.index()]
            && self.tin[self.target.index()] < self.tout[q.index()]
    }

    fn queries_asked(&self) -> u32 {
        self.asked
    }

    fn ground_truth(&self) -> Option<NodeId> {
        Some(self.target)
    }
}

/// The result of one interactive search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The node the policy identified.
    pub target: NodeId,
    /// Number of oracle queries issued.
    pub queries: u32,
    /// Total price paid (equals `queries` under uniform costs).
    pub price: f64,
}

/// A session's answer history, one bit per answer: `u64` words, least
/// significant bit first (answer `i` is bit `i % 64` of word `i / 64`).
/// Bits past [`len`](Self::len) are always zero, so equal histories
/// compare equal word for word.
///
/// This is what a suspended session durably is (with its plan and policy
/// kind): a 155-answer history holds one 32-byte allocation, where a
/// `Vec<bool>` holds one byte per answer plus its growth slack.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnswerBits {
    words: Vec<u64>,
    len: usize,
}

impl AnswerBits {
    /// An empty history; allocates nothing until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a history from its packed words: `None` unless there are
    /// exactly `len.div_ceil(64)` words and every bit past `len` is zero.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        let tail = len % 64;
        let padded = tail != 0 && words.last().is_some_and(|w| w >> tail != 0);
        (words.len() == len.div_ceil(64) && !padded).then_some(AnswerBits { words, len })
    }

    /// Appends the next answer.
    pub fn push(&mut self, yes: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        *self.words.last_mut().expect("a word holds bit `len`") |= u64::from(yes) << bit;
        self.len += 1;
    }

    /// Number of answers held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no answer is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Answer `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<bool> {
        (i < self.len).then(|| self.bit(i))
    }

    /// The answers in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.bit(i))
    }

    fn bit(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The packed words, `len().div_ceil(64)` of them.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl Extend<bool> for AnswerBits {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, answers: I) {
        for yes in answers {
            self.push(yes);
        }
    }
}

impl FromIterator<bool> for AnswerBits {
    fn from_iter<I: IntoIterator<Item = bool>>(answers: I) -> Self {
        let mut bits = AnswerBits::new();
        bits.extend(answers);
        bits
    }
}

/// What a suspended session needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStep {
    /// Put this question to the oracle, then call
    /// [`SessionStepper::answer`] with its verdict.
    Ask(NodeId),
    /// The search resolved to this target; [`SessionStepper::finish`] will
    /// produce the [`SearchOutcome`].
    Resolved(NodeId),
}

/// The inverted-control core of `FrameworkIGS` (Alg. 1): one interactive
/// search as an externally driven state machine.
///
/// [`run_session`] is a thin loop over this stepper, so a stepped session
/// produces the **bit-identical** query transcript, query count and price —
/// the same `try_reset`/`resolved`/`select`/`observe` calls in the same
/// order. What the stepper adds is *suspendability*: between
/// [`next_question`](Self::next_question) and [`answer`](Self::answer) the
/// session can sit idle for seconds or days (a crowd worker thinking),
/// while thousands of sibling sessions make progress.
///
/// The stepper does not own the policy or the context; the caller passes
/// them into every call (a service keeps pooled policy instances and shared
/// `Arc`'d plan artifacts — see the `aigs-service` crate). Calls must use
/// the same policy and an equivalent context throughout one session.
///
/// Repeated [`next_question`](Self::next_question) calls without an
/// intervening answer return the same pending question without re-running
/// `select`, so an at-least-once delivery loop cannot corrupt policy state.
#[derive(Debug, Clone)]
pub struct SessionStepper {
    cap: u32,
    queries: u32,
    price: f64,
    pending: Option<NodeId>,
}

impl SessionStepper {
    /// Starts a session: resets `policy` for `ctx` (surfacing construction
    /// errors such as [`CoreError::TooLargeForExact`]) and computes the
    /// query cap. `max_queries` bounds the session; on top of it an
    /// internal safety cap of `4·n + 64` guards against non-terminating
    /// policies (every sound policy resolves within `n − 1` informative
    /// queries).
    pub fn start(
        policy: &mut dyn Policy,
        ctx: &SearchContext<'_>,
        max_queries: Option<u32>,
    ) -> Result<Self, CoreError> {
        let hard_cap = 4 * ctx.dag.node_count() as u32 + 64;
        let cap = max_queries.map_or(hard_cap, |m| m.min(hard_cap));
        policy.try_reset(ctx)?;
        Ok(SessionStepper {
            cap,
            queries: 0,
            price: 0.0,
            pending: None,
        })
    }

    /// The next thing this session needs: a question to forward to the
    /// oracle, or the resolved target. Errs with [`CoreError::Diverged`]
    /// once the query cap is exhausted without resolution.
    pub fn next_question(
        &mut self,
        policy: &mut dyn Policy,
        ctx: &SearchContext<'_>,
    ) -> Result<SessionStep, CoreError> {
        if let Some(q) = self.pending {
            return Ok(SessionStep::Ask(q));
        }
        if let Some(target) = policy.resolved() {
            return Ok(SessionStep::Resolved(target));
        }
        if self.queries >= self.cap {
            return Err(CoreError::Diverged {
                queries: self.queries,
                limit: self.cap,
            });
        }
        let q = policy.select(ctx);
        self.pending = Some(q);
        Ok(SessionStep::Ask(q))
    }

    /// Feeds the oracle's answer to the pending question back into the
    /// policy, billing the question's price. Errs with
    /// [`CoreError::SessionMisuse`] when no question is outstanding.
    pub fn answer(
        &mut self,
        policy: &mut dyn Policy,
        ctx: &SearchContext<'_>,
        yes: bool,
    ) -> Result<(), CoreError> {
        let q = self.pending.take().ok_or(CoreError::SessionMisuse(
            "answer() with no pending question",
        ))?;
        self.price += ctx.costs.price(q);
        self.queries += 1;
        policy.observe(ctx, q, yes);
        Ok(())
    }

    /// The finished session's outcome. Errs with
    /// [`CoreError::SessionMisuse`] while the search is still unresolved.
    pub fn finish(&self, policy: &dyn Policy) -> Result<SearchOutcome, CoreError> {
        match policy.resolved() {
            Some(target) => Ok(SearchOutcome {
                target,
                queries: self.queries,
                price: self.price,
            }),
            None => Err(CoreError::SessionMisuse(
                "finish() before the search resolved",
            )),
        }
    }

    /// Rebuilds a suspended session by replaying a recorded answer
    /// sequence against a fresh (or journal-reset) policy instance.
    ///
    /// Policies are deterministic functions of (context, answer history),
    /// so a session rebuilt from its durable answer log asks **bit-identical**
    /// questions from the next step onward — this is the exactness that
    /// makes crash recovery in `aigs-service` replay-based rather than
    /// best-effort. Each recorded answer must respond to the question the
    /// policy re-derives; errs with [`CoreError::SessionMisuse`] when the
    /// answer log extends past the point where the search resolved (a
    /// corrupt or foreign log), and propagates [`CoreError::Diverged`] if
    /// the log exceeds the query cap.
    ///
    /// `answers` is the history in order: `AnswerBits::iter()` as the
    /// service holds it, or any sequence of `bool`s such as a `&[bool]`.
    pub fn replay<A>(
        policy: &mut dyn Policy,
        ctx: &SearchContext<'_>,
        max_queries: Option<u32>,
        answers: A,
    ) -> Result<Self, CoreError>
    where
        A: IntoIterator,
        A::Item: Borrow<bool>,
    {
        let mut stepper = Self::start(policy, ctx, max_queries)?;
        for yes in answers {
            match stepper.next_question(policy, ctx)? {
                SessionStep::Ask(_) => stepper.answer(policy, ctx, *yes.borrow())?,
                SessionStep::Resolved(_) => {
                    return Err(CoreError::SessionMisuse(
                        "replay answers extend past the search's resolution",
                    ))
                }
            }
        }
        Ok(stepper)
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
    pub fn pending(&self) -> Option<NodeId> {
        self.pending
    }
}

/// Drives `policy` against `oracle` until resolution.
///
/// A thin closed loop over [`SessionStepper`] — ask, answer inline, repeat —
/// so inline and suspended (stepwise) sessions share one code path and one
/// transcript. `max_queries` bounds the session as described on
/// [`SessionStepper::start`].
pub fn run_session(
    policy: &mut dyn Policy,
    ctx: &SearchContext<'_>,
    oracle: &mut dyn Oracle,
    max_queries: Option<u32>,
) -> Result<SearchOutcome, CoreError> {
    let mut stepper = SessionStepper::start(policy, ctx, max_queries)?;
    loop {
        match stepper.next_question(policy, ctx)? {
            SessionStep::Resolved(_) => return stepper.finish(policy),
            SessionStep::Ask(q) => {
                let yes = oracle.reach(q);
                stepper.answer(policy, ctx, yes)?;
            }
        }
    }
}

/// Aggregate cost statistics over a set of evaluated targets.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Probability-weighted expected query count (Definition 7).
    pub expected_cost: f64,
    /// Probability-weighted expected price (Definition 8; equals
    /// `expected_cost` under uniform costs). Accumulated in the same single
    /// pass as `expected_cost` — heterogeneous prices cost no extra sweep.
    pub expected_price: f64,
    /// Unweighted mean query count over the evaluated target list.
    pub mean_cost: f64,
    /// Worst query count over evaluated targets (the WIGS objective).
    pub max_cost: u32,
    /// Query count per target node (indexed by node id; only targets that
    /// were evaluated are meaningful).
    pub per_target: Vec<u32>,
    /// Total price paid per target node (indexed by node id, same validity
    /// rule as `per_target`).
    pub per_target_price: Vec<f64>,
    /// Number of targets evaluated.
    pub targets: usize,
}

/// Folds per-target outcomes into an [`EvalReport`].
///
/// Both the sequential and the parallel evaluation paths funnel through
/// this single accumulation loop (fixed node-id order), so their reports
/// are **bit-identical** — float summation order included.
fn aggregate_report(
    ctx: &SearchContext<'_>,
    per_target: Vec<u32>,
    per_target_price: Vec<f64>,
    seen: &[bool],
    total_queries: u64,
    max_cost: u32,
    targets: usize,
) -> EvalReport {
    let mut expected_cost = 0.0;
    let mut expected_price = 0.0;
    for v in ctx.dag.nodes() {
        if seen[v.index()] {
            let p = ctx.weights.get(v);
            expected_cost += p * per_target[v.index()] as f64;
            expected_price += p * per_target_price[v.index()];
        }
    }
    EvalReport {
        expected_cost,
        expected_price,
        mean_cost: if targets == 0 {
            0.0
        } else {
            total_queries as f64 / targets as f64
        },
        max_cost,
        per_target,
        per_target_price,
        targets,
    }
}

/// Runs `policy` once for **every node as target** and aggregates costs
/// under the context's distribution. This is the exact expected cost: the
/// simulated equivalent of summing `p(v)·ℓ(v)` over decision-tree leaves.
///
/// A fresh cache token is attached so policies can hoist per-instance
/// precomputation out of the per-target loop, and oracles answer from the
/// cheapest index available (tree Euler intervals / shared closure /
/// per-target ancestor sets).
pub fn evaluate_exhaustive(
    policy: &mut dyn Policy,
    ctx: &SearchContext<'_>,
) -> Result<EvalReport, CoreError> {
    let targets: Vec<NodeId> = ctx.dag.nodes().collect();
    evaluate_targets(policy, ctx, &targets)
}

/// Runs `policy` for each listed target (repetitions allowed — e.g. a
/// sampled object trace) and aggregates costs. Expected-cost fields weight
/// by `ctx.weights`; `mean_cost` treats the list as an empirical sample.
pub fn evaluate_targets(
    policy: &mut dyn Policy,
    ctx: &SearchContext<'_>,
    targets: &[NodeId],
) -> Result<EvalReport, CoreError> {
    let ctx = if ctx.cache_token == 0 {
        ctx.with_cache_token(fresh_cache_token())
    } else {
        *ctx
    };
    let n = ctx.dag.node_count();

    // Shared answer indexes.
    let tree_intervals = euler_intervals(&ctx);

    let mut per_target = vec![0u32; n];
    let mut per_target_price = vec![0.0f64; n];
    let mut seen = vec![false; n];
    let mut total_queries: u64 = 0;
    let mut max_cost = 0u32;

    // Single pass: each listed target runs exactly once; the outcome's
    // `price` already carries the (possibly heterogeneous) session price,
    // so no second sweep is ever needed.
    for &z in targets {
        let outcome = run_for_target(policy, &ctx, z, &tree_intervals)?;
        if outcome.target != z {
            return Err(CoreError::PolicyInvariant(
                "policy resolved to a node different from the oracle's target",
            ));
        }
        per_target[z.index()] = outcome.queries;
        per_target_price[z.index()] = outcome.price;
        seen[z.index()] = true;
        total_queries += outcome.queries as u64;
        max_cost = max_cost.max(outcome.queries);
    }
    Ok(aggregate_report(
        &ctx,
        per_target,
        per_target_price,
        &seen,
        total_queries,
        max_cost,
        targets.len(),
    ))
}

fn run_for_target(
    policy: &mut dyn Policy,
    ctx: &SearchContext<'_>,
    z: NodeId,
    tree_intervals: &Option<(Vec<u32>, Vec<u32>)>,
) -> Result<SearchOutcome, CoreError> {
    // Cheapest truthful index first: O(1) Euler intervals on trees, O(1)
    // closure rows when the shared backend stores them, the shared
    // interval/BFS index (O(k) negatives) next, and a per-target reverse
    // BFS ancestor set as the fallback.
    if let Some((tin, tout)) = tree_intervals {
        let mut oracle = IntervalOracle {
            tin,
            tout,
            target: z,
            asked: 0,
        };
        return run_session(policy, ctx, &mut oracle, None);
    }
    if let Some(closure) = ctx.closure() {
        let mut oracle = crate::ClosureOracle::new(closure, z);
        return run_session(policy, ctx, &mut oracle, None);
    }
    if let Some(index @ ReachIndex::Interval(_)) = ctx.reach {
        let mut oracle = crate::ReachIndexOracle::new(index, ctx.dag, z);
        return run_session(policy, ctx, &mut oracle, None);
    }
    // No backend, or the index-free `Bfs` one: a per-target ancestor set
    // (one reverse BFS, then O(1) answers) beats a DFS per query.
    let mut oracle = TargetOracle::new(ctx.dag, z);
    run_session(policy, ctx, &mut oracle, None)
}

fn euler_intervals(ctx: &SearchContext<'_>) -> Option<(Vec<u32>, Vec<u32>)> {
    if !ctx.dag.is_tree() {
        return None;
    }
    let tree = aigs_graph::Tree::new(ctx.dag).expect("is_tree checked");
    Some(tree.into_intervals())
}

/// Runs an exhaustive evaluation split across `threads` OS threads pulling
/// target chunks from a shared work-stealing queue (an atomic index over
/// fixed-size chunks), so skewed per-target costs — deep heavy subtrees
/// landing in one contiguous range — no longer stall the whole sweep on one
/// straggler thread the way static `n/threads` chunking did. Each worker
/// drives its own clone of the policy; one warm clone then serves every
/// chunk it steals. Falls back to the sequential path for single-threaded
/// requests or tiny instances. Deterministic: per-target costs are
/// independent of the split, and the final aggregation runs in node-id
/// order, so reports are **bit-identical** to [`evaluate_exhaustive`]
/// regardless of thread count or steal order.
pub fn evaluate_exhaustive_parallel(
    policy: &mut dyn Policy,
    ctx: &SearchContext<'_>,
    threads: usize,
) -> Result<EvalReport, CoreError> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let n = ctx.dag.node_count();
    if threads <= 1 || n < 2048 {
        return evaluate_exhaustive(policy, ctx);
    }
    let ctx = if ctx.cache_token == 0 {
        ctx.with_cache_token(fresh_cache_token())
    } else {
        *ctx
    };
    let targets: Vec<NodeId> = ctx.dag.nodes().collect();
    let tree_intervals = euler_intervals(&ctx);
    // Several chunks per thread gives the queue room to balance; a floor of
    // 64 targets keeps the fetch_add amortised to noise.
    let chunk = (targets.len().div_ceil(threads * 8)).max(64);
    let next_chunk = AtomicUsize::new(0);
    // Never spawn more workers than chunks: each worker pays an O(n) policy
    // clone up front, so a surplus worker would clone and immediately break.
    let workers = threads.min(targets.len().div_ceil(chunk));

    let partials: Vec<Result<Vec<(NodeId, SearchOutcome)>, CoreError>> =
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..workers {
                let mut worker = policy.clone_box();
                let ctx_ref = &ctx;
                let intervals_ref = &tree_intervals;
                let targets_ref = &targets;
                let next_ref = &next_chunk;
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let start = next_ref.fetch_add(1, Ordering::Relaxed) * chunk;
                        if start >= targets_ref.len() {
                            break;
                        }
                        let end = (start + chunk).min(targets_ref.len());
                        out.reserve(end - start);
                        for &z in &targets_ref[start..end] {
                            let outcome =
                                run_for_target(worker.as_mut(), ctx_ref, z, intervals_ref)?;
                            out.push((z, outcome));
                        }
                    }
                    Ok(out)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluation worker panicked"))
                .collect()
        });

    let mut per_target = vec![0u32; n];
    let mut per_target_price = vec![0.0f64; n];
    let mut seen = vec![false; n];
    let mut total_queries: u64 = 0;
    let mut max_cost = 0u32;
    for part in partials {
        for (z, outcome) in part? {
            if outcome.target != z {
                return Err(CoreError::PolicyInvariant(
                    "policy resolved to a node different from the oracle's target",
                ));
            }
            per_target[z.index()] = outcome.queries;
            per_target_price[z.index()] = outcome.price;
            seen[z.index()] = true;
            total_queries += outcome.queries as u64;
            max_cost = max_cost.max(outcome.queries);
        }
    }
    // Same deterministic accumulation as the sequential path: reports are
    // bit-identical regardless of thread count or chunking.
    Ok(aggregate_report(
        &ctx,
        per_target,
        per_target_price,
        &seen,
        total_queries,
        max_cost,
        n,
    ))
}

/// Evaluates several policies on the same instance, reusing one
/// auto-selected [`ReachIndex`] for all of them when the hierarchy is a
/// DAG (closure below the [`aigs_graph::AUTO_CLOSURE_MAX_NODES`] threshold,
/// the GRAIL interval tier above it — so rosters run on DAGs where the
/// closure could not even allocate), spreading target batches over the
/// machine's cores. Returns `(name, report)` pairs in roster order — one
/// row of the paper's cost tables.
pub fn evaluate_roster(
    roster: &mut [Box<dyn Policy + Send>],
    dag: &aigs_graph::Dag,
    weights: &crate::NodeWeights,
) -> Result<Vec<(String, EvalReport)>, CoreError> {
    let costs = crate::QueryCosts::Uniform;
    let reach = if dag.is_tree() {
        None
    } else {
        Some(ReachIndex::auto(dag))
    };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = Vec::with_capacity(roster.len());
    for policy in roster.iter_mut() {
        let base = SearchContext::new(dag, weights).with_costs(&costs);
        let ctx = match &reach {
            Some(r) => base.with_reach(r),
            None => base,
        };
        let report = evaluate_exhaustive_parallel(policy.as_mut(), &ctx, threads)?;
        out.push((policy.name().to_owned(), report));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyTreePolicy, TopDownPolicy, WigsPolicy};
    use crate::{NodeWeights, QueryCosts};
    use aigs_graph::dag_from_edges;

    fn vehicle() -> aigs_graph::Dag {
        dag_from_edges(7, &[(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6)]).unwrap()
    }

    #[test]
    fn session_outcome_matches_target() {
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        for z in g.nodes() {
            let mut oracle = TargetOracle::new(&g, z);
            let out = run_session(&mut p, &ctx, &mut oracle, None).unwrap();
            assert_eq!(out.target, z);
            assert_eq!(out.queries, oracle.queries_asked());
            assert_eq!(out.price, out.queries as f64);
        }
    }

    #[test]
    fn answer_bits_pack_across_words() {
        let answers: Vec<bool> = (0..130).map(|i| i % 3 == 0 || i == 64).collect();
        let bits: AnswerBits = answers.iter().copied().collect();
        assert_eq!(bits.len(), 130);
        assert_eq!(bits.words().len(), 3);
        assert_eq!(bits.iter().collect::<Vec<_>>(), answers);
        assert_eq!(
            (bits.get(64), bits.get(65), bits.get(130)),
            (Some(true), Some(false), None)
        );
        let words = bits.words().to_vec();
        assert_eq!(AnswerBits::from_words(words.clone(), 130), Some(bits));
        // A set bit past the length, or a word count that does not match it.
        assert_eq!(AnswerBits::from_words(words.clone(), 129), None);
        assert_eq!(AnswerBits::from_words(words, 200), None);
    }

    #[test]
    fn stepper_transcript_matches_run_session() {
        let g = vehicle();
        let w = NodeWeights::from_masses(vec![0.04, 0.02, 0.04, 0.08, 0.02, 0.40, 0.40]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        for z in g.nodes() {
            // Reference: the closed loop with a transcript recorder.
            let mut p = GreedyTreePolicy::new();
            let mut rec = crate::TranscriptOracle::new(TargetOracle::new(&g, z));
            let want = run_session(&mut p, &ctx, &mut rec, None).unwrap();

            // Stepwise: same policy type driven from outside.
            let mut p2 = GreedyTreePolicy::new();
            let mut stepper = SessionStepper::start(&mut p2, &ctx, None).unwrap();
            let mut transcript = Vec::new();
            let outcome = loop {
                match stepper.next_question(&mut p2, &ctx).unwrap() {
                    SessionStep::Resolved(_) => break stepper.finish(&p2).unwrap(),
                    SessionStep::Ask(q) => {
                        // Re-asking without answering must return the same
                        // pending question and not advance the policy.
                        assert_eq!(
                            stepper.next_question(&mut p2, &ctx).unwrap(),
                            SessionStep::Ask(q)
                        );
                        assert_eq!(stepper.pending(), Some(q));
                        let yes = g.reaches(q, z);
                        transcript.push((q, yes));
                        stepper.answer(&mut p2, &ctx, yes).unwrap();
                    }
                }
            };
            assert_eq!(outcome, want);
            assert_eq!(transcript, rec.transcript);
            assert_eq!(stepper.queries(), want.queries);
            assert_eq!(stepper.price(), want.price);
        }
    }

    #[test]
    fn replay_continuation_is_bit_identical() {
        let g = vehicle();
        let w = NodeWeights::from_masses(vec![0.04, 0.02, 0.04, 0.08, 0.02, 0.40, 0.40]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        for z in g.nodes() {
            // Reference: one uninterrupted session, transcript recorded.
            let mut p = GreedyTreePolicy::new();
            let mut rec = crate::TranscriptOracle::new(TargetOracle::new(&g, z));
            let want = run_session(&mut p, &ctx, &mut rec, None).unwrap();
            // Replay every answer prefix, then continue truthfully: the
            // continuation must reproduce the reference tail exactly.
            for cut in 0..=rec.transcript.len() {
                let answers: Vec<bool> = rec.transcript[..cut].iter().map(|&(_, a)| a).collect();
                let mut p2 = GreedyTreePolicy::new();
                let mut stepper = SessionStepper::replay(&mut p2, &ctx, None, &answers).unwrap();
                assert_eq!(stepper.queries(), cut as u32);
                let mut tail = Vec::new();
                let outcome = loop {
                    match stepper.next_question(&mut p2, &ctx).unwrap() {
                        SessionStep::Resolved(_) => break stepper.finish(&p2).unwrap(),
                        SessionStep::Ask(q) => {
                            let yes = g.reaches(q, z);
                            tail.push((q, yes));
                            stepper.answer(&mut p2, &ctx, yes).unwrap();
                        }
                    }
                };
                assert_eq!(outcome, want, "cut {cut}");
                assert_eq!(&rec.transcript[cut..], &tail[..], "cut {cut}");
            }
        }
    }

    #[test]
    fn replay_past_resolution_is_typed() {
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        let mut rec = crate::TranscriptOracle::new(TargetOracle::new(&g, NodeId::new(6)));
        run_session(&mut p, &ctx, &mut rec, None).unwrap();
        let mut answers: Vec<bool> = rec.transcript.iter().map(|&(_, a)| a).collect();
        answers.push(true); // one answer past resolution
        let mut p2 = GreedyTreePolicy::new();
        assert!(matches!(
            SessionStepper::replay(&mut p2, &ctx, None, &answers),
            Err(CoreError::SessionMisuse(_))
        ));
    }

    #[test]
    fn stepper_misuse_is_typed() {
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        let mut stepper = SessionStepper::start(&mut p, &ctx, None).unwrap();
        // No pending question yet.
        assert!(matches!(
            stepper.answer(&mut p, &ctx, true),
            Err(CoreError::SessionMisuse(_))
        ));
        // Unresolved finish.
        assert!(matches!(
            stepper.finish(&p),
            Err(CoreError::SessionMisuse(_))
        ));
        // Cap exhaustion surfaces Diverged from the stepper, too.
        let mut capped = SessionStepper::start(&mut p, &ctx, Some(1)).unwrap();
        let SessionStep::Ask(_q) = capped.next_question(&mut p, &ctx).unwrap() else {
            panic!("expected a question");
        };
        capped.answer(&mut p, &ctx, false).unwrap();
        if capped.next_question(&mut p, &ctx).is_ok() {
            // The single no-answer may already have resolved tiny searches;
            // only unresolved sessions must diverge.
            assert!(p.resolved().is_some());
        }
    }

    #[test]
    fn query_cap_triggers_diverged() {
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let ctx = SearchContext::new(&g, &w);
        let mut p = TopDownPolicy::new();
        let mut oracle = TargetOracle::new(&g, NodeId::new(6));
        let err = run_session(&mut p, &ctx, &mut oracle, Some(1)).unwrap_err();
        assert!(matches!(err, CoreError::Diverged { limit: 1, .. }));
    }

    #[test]
    fn exhaustive_report_consistency() {
        let g = vehicle();
        let w = NodeWeights::from_masses(vec![0.04, 0.02, 0.04, 0.08, 0.02, 0.40, 0.40]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut p = GreedyTreePolicy::new();
        let r = evaluate_exhaustive(&mut p, &ctx).unwrap();
        assert_eq!(r.targets, 7);
        assert!(r.expected_cost > 0.0);
        assert!(r.max_cost as f64 >= r.expected_cost);
        // Expected cost equals the manual weighted sum.
        let manual: f64 = g
            .nodes()
            .map(|v| w.get(v) * r.per_target[v.index()] as f64)
            .sum();
        assert!((manual - r.expected_cost).abs() < 1e-12);
        assert!((r.expected_price - r.expected_cost).abs() < 1e-12);
    }

    #[test]
    fn greedy_beats_wigs_on_skewed_mass() {
        // The headline effect of the paper (Example 2): under a skewed
        // distribution the average-case greedy beats the worst-case policy.
        let g = vehicle();
        let w = NodeWeights::from_masses(vec![0.04, 0.02, 0.04, 0.08, 0.02, 0.40, 0.40]).unwrap();
        let ctx = SearchContext::new(&g, &w);
        let mut greedy = GreedyTreePolicy::new();
        let mut wigs = WigsPolicy::new();
        let rg = evaluate_exhaustive(&mut greedy, &ctx).unwrap();
        let rw = evaluate_exhaustive(&mut wigs, &ctx).unwrap();
        assert!(
            rg.expected_cost < rw.expected_cost,
            "greedy {} vs wigs {}",
            rg.expected_cost,
            rw.expected_cost
        );
    }

    #[test]
    fn heterogeneous_prices_reported() {
        let g = dag_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let w = NodeWeights::uniform(4);
        let costs = QueryCosts::PerNode(vec![1.0, 1.0, 5.0, 1.0]);
        let ctx = SearchContext::new(&g, &w).with_costs(&costs);
        let mut p = crate::policy::CostSensitivePolicy::new();
        let r = evaluate_exhaustive(&mut p, &ctx).unwrap();
        // Example 4: the cost-sensitive greedy pays expected price 4.25.
        assert!(
            (r.expected_price - 4.25).abs() < 1e-9,
            "{}",
            r.expected_price
        );
    }

    #[test]
    fn roster_evaluation_runs_all_columns() {
        let g = vehicle();
        let w = NodeWeights::uniform(7);
        let mut roster = crate::policy::paper_roster(true);
        let rows = evaluate_roster(&mut roster, &g, &w).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|(_, r)| r.expected_cost > 0.0));
    }
}
