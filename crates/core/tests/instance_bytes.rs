//! What one live session's policy instance costs, counted by a global
//! allocator. A live session holds a clone of its plan's warm prototype,
//! so the clone's heap bytes bound the live population. These tests pin
//! what a warm clone copies on the Small fixtures (plan constants and
//! per-call scratch stay out of it), and that the per-thread scratch arena
//! those buffers moved to allocates nothing when sessions alternate
//! between plans of different sizes. The counters are per thread, so the
//! tests of this binary can run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aigs_core::policy::{GreedyDagPolicy, GreedyTreePolicy, WigsPolicy};
use aigs_core::{fresh_cache_token, NodeWeights, Policy, SearchContext};
use aigs_data::{amazon_like, imagenet_like, Scale};
use aigs_graph::{Dag, NodeId, ReachIndex};
use aigs_testutil::{backends, dag_from_seed, generic_weights};

thread_local! {
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: i64, allocs: u64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = NET_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), 0);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, 1);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes of a clone of `p` as a live session holds it (boxed).
fn clone_bytes(p: &dyn Policy) -> i64 {
    let before = NET_BYTES.with(Cell::get);
    let clone = p.clone_box();
    let bytes = NET_BYTES.with(Cell::get) - before;
    drop(clone);
    bytes
}

/// A warm prototype, as a plan's pool builds it: a token reset and the
/// first `select`.
fn warm(p: &mut dyn Policy, ctx: &SearchContext<'_>) {
    p.reset(ctx);
    let _ = p.select(ctx);
}

#[test]
fn greedy_dag_warm_clone_holds_only_its_session() {
    let data = imagenet_like(Scale::Small, 11);
    let weights = data.empirical_weights();
    let reach = ReachIndex::closure_for(&data.dag);
    let ctx = SearchContext::new(&data.dag, &weights)
        .with_reach(&reach)
        .with_cache_token(fresh_cache_token());
    let mut proto = GreedyDagPolicy::new();
    warm(&mut proto, &ctx);
    let bytes = clone_bytes(&proto);
    assert!(bytes <= 48_000, "greedy-dag warm clone: {bytes} B");

    // A clone shares the plan constants, also after sessions and token
    // resets on either side.
    let mut clone = proto.clone();
    assert!(clone.shares_rounded_weights(&proto));
    assert!(clone.shares_opening_book(&proto));
    for p in [&mut clone, &mut proto] {
        p.reset(&ctx);
        while p.resolved().is_none() {
            let q = p.select(&ctx);
            p.observe(&ctx, q, false);
        }
        p.reset(&ctx);
    }
    assert!(clone.shares_rounded_weights(&proto));
    assert!(clone.shares_opening_book(&proto));
    // A cold reset derives its own.
    let other = ctx.with_cache_token(fresh_cache_token());
    clone.reset(&other);
    assert!(!clone.shares_rounded_weights(&proto));
}

#[test]
fn greedy_tree_warm_clone_holds_only_its_session() {
    let data = amazon_like(Scale::Small, 11);
    let weights = data.empirical_weights();
    let ctx = SearchContext::new(&data.dag, &weights).with_cache_token(fresh_cache_token());
    let mut proto = GreedyTreePolicy::new();
    warm(&mut proto, &ctx);
    let bytes = clone_bytes(&proto);
    assert!(bytes <= 48_000, "greedy-tree warm clone: {bytes} B");
}

#[test]
fn wigs_dag_mode_warm_clone_holds_only_its_session() {
    let data = imagenet_like(Scale::Small, 11);
    let weights = data.empirical_weights();
    let reach = ReachIndex::closure_for(&data.dag);
    let ctx = SearchContext::new(&data.dag, &weights)
        .with_reach(&reach)
        .with_cache_token(fresh_cache_token());
    let mut proto = WigsPolicy::new();
    warm(&mut proto, &ctx);
    let bytes = clone_bytes(&proto);
    assert!(bytes <= 8_000, "wigs DAG-mode warm clone: {bytes} B");

    // Without a shared index the policy builds its own, which its clones
    // share rather than copy.
    let ctx = SearchContext::new(&data.dag, &weights).with_cache_token(fresh_cache_token());
    let mut proto = WigsPolicy::new();
    warm(&mut proto, &ctx);
    let bytes = clone_bytes(&proto);
    assert!(
        bytes <= 8_000,
        "wigs DAG-mode warm clone, own index: {bytes} B"
    );
}

/// One plan's sessions: a greedy-dag and a WIGS instance, the targets and
/// every answer precomputed (a `Dag::reaches` call allocates).
struct Plan<'a> {
    ctx: SearchContext<'a>,
    policies: [Box<dyn Policy>; 2],
    answers: Vec<(NodeId, Vec<bool>)>,
}

impl<'a> Plan<'a> {
    fn new(dag: &'a Dag, weights: &'a NodeWeights, reach: Option<&'a ReachIndex>) -> Self {
        let mut ctx = SearchContext::new(dag, weights).with_cache_token(fresh_cache_token());
        if let Some(r) = reach {
            ctx = ctx.with_reach(r);
        }
        let n = dag.node_count();
        let answers = (0..n)
            .step_by(n / 24)
            .map(|z| {
                let z = NodeId::new(z);
                (z, (0..n).map(|q| dag.reaches(NodeId::new(q), z)).collect())
            })
            .collect();
        Plan {
            ctx,
            policies: [
                Box::new(GreedyDagPolicy::new()),
                Box::new(WigsPolicy::new()),
            ],
            answers,
        }
    }

    /// Runs target `t`'s session on every policy.
    fn session(&mut self, t: usize) {
        let (z, truth) = &self.answers[t];
        for p in &mut self.policies {
            p.reset(&self.ctx);
            while p.resolved().is_none() {
                let q = p.select(&self.ctx);
                p.observe(&self.ctx, q, truth[q.index()]);
            }
            assert_eq!(p.resolved(), Some(*z));
        }
    }
}

#[test]
fn alternating_plans_allocate_nothing_once_warm() {
    let big = imagenet_like(Scale::Small, 11);
    let big_weights = big.empirical_weights();
    let small = dag_from_seed(300, 0.2, 5);
    let small_weights = generic_weights(small.node_count(), 5);
    assert!(big.dag.node_count() == 3_000 && small.node_count() >= 300);
    let big_backends = backends(&big.dag, 5);
    let small_backends = backends(&small, 5);
    for ((name, big_reach), (_, small_reach)) in big_backends.iter().zip(&small_backends) {
        let mut plans = [
            Plan::new(&big.dag, &big_weights, big_reach.as_ref()),
            Plan::new(&small, &small_weights, small_reach.as_ref()),
        ];
        let sessions = plans[0].answers.len().min(plans[1].answers.len());
        let alternate = |plans: &mut [Plan<'_>; 2]| {
            for t in 0..sessions {
                plans[0].session(t);
                plans[1].session(t);
            }
        };
        alternate(&mut plans);
        let before = ALLOCS.with(Cell::get);
        alternate(&mut plans);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(allocs, 0, "backend {name}: {allocs} allocations once warm");
    }
}
