//! The per-thread scratch arena of the DAG policies.
//!
//! A traversal or a *no* repair needs per-node buffers (visited marks, a
//! queue, the [`ReachScratch`] accumulators) whose contents do not outlive
//! the call. Held by every policy instance, they would multiply with the
//! live sessions; held here, one set per thread serves every instance that
//! runs on it, whatever its plan. The buffers grow to the largest plan the
//! thread has served and never shrink, so alternating plans allocates
//! nothing once warm.
//!
//! [`with_scratch`] borrows the arena for one call. A borrow must not be
//! held across a call that can borrow again (GreedyDAG's book writer
//! re-enters `observe`/`select`): the second borrow panics.

use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;

use aigs_graph::{NodeId, ReachScratch, VisitedSet};

/// One thread's scratch buffers. Every user clears what it reads first, so
/// nothing carries over between borrows.
#[derive(Debug)]
pub(crate) struct Scratch {
    /// Visited marks of a pruned BFS; callers [`VisitedSet::grow`] it to
    /// their plan first.
    pub(crate) visited: VisitedSet,
    /// BFS queue.
    pub(crate) queue: VecDeque<NodeId>,
    /// GreedyDAG: cone members a *no* repair touched (demotion check).
    pub(crate) touched: Vec<NodeId>,
    /// Buffers of the [`aigs_graph::ReachIndex`] set operations.
    pub(crate) reach: ReachScratch,
}

thread_local! {
    static ARENA: RefCell<Scratch> = RefCell::new(Scratch {
        visited: VisitedSet::new(0),
        queue: VecDeque::new(),
        touched: Vec::new(),
        reach: ReachScratch::new(0),
    });
}

/// The arena's borrow. A call that unwinds out of the borrow may leave the
/// reach accumulators dirty (the engine catches policy panics and keeps
/// serving on the thread), so dropping the borrow during a panic re-zeroes
/// them for the next user.
struct Borrow<'a>(RefMut<'a, Scratch>);

impl Drop for Borrow<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.reach.scrub();
        }
    }
}

/// Runs `f` on this thread's scratch arena.
///
/// # Panics
///
/// When called from inside another `with_scratch` on the same thread.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    ARENA.with(|arena| {
        let mut borrow = Borrow(arena.borrow_mut());
        f(&mut borrow.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aigs_graph::{dag_from_edges, NodeBitSet, ReachIndex};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A *no* at 1 dooms {1, 3}; 3 is an entry node whose other parents,
    /// 2 and 4, are the partial ancestors the doomed walks price.
    fn two_partial_ancestors() -> aigs_graph::Dag {
        dag_from_edges(5, &[(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (4, 3)]).unwrap()
    }

    /// Every `emit` of a no-answer repair at 1, in order, or a panic at the
    /// first partial ancestor when `panic_at_partial`.
    fn repair(
        g: &aigs_graph::Dag,
        reach: &mut ReachScratch,
        panic_at_partial: bool,
    ) -> Vec<(NodeId, u64, u32)> {
        let alive = NodeBitSet::full(g.node_count());
        let weights = [1, 10, 100, 1000, 10_000];
        let q = NodeId::new(1);
        let mut emitted = Vec::new();
        ReachIndex::Bfs.doomed_contributions(
            g,
            q,
            (1010, 2),
            &alive,
            &weights,
            reach,
            |p, w, c| {
                if panic_at_partial && p != NodeId::new(0) {
                    panic!("injected fault");
                }
                emitted.push((p, w, c));
            },
        );
        emitted
    }

    #[test]
    fn a_panic_inside_a_borrow_leaves_the_arena_clean() {
        let g = two_partial_ancestors();
        let want = repair(&g, &mut ReachScratch::new(g.node_count()), false);
        assert_eq!(want.len(), 3, "the root and two partial ancestors");

        // The fault bites: outside the arena, the unwound repair leaves the
        // second partial ancestor's accumulators set, and the next repair
        // on that scratch prices it twice.
        let mut bare = ReachScratch::new(g.node_count());
        let fault = catch_unwind(AssertUnwindSafe(|| repair(&g, &mut bare, true)));
        assert!(fault.is_err());
        assert_ne!(repair(&g, &mut bare, false), want);

        // Through the arena, the borrow's guard scrubs them.
        let fault = catch_unwind(AssertUnwindSafe(|| {
            with_scratch(|s| repair(&g, &mut s.reach, true))
        }));
        assert!(fault.is_err());
        assert_eq!(with_scratch(|s| repair(&g, &mut s.reach, false)), want);
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn a_nested_borrow_panics() {
        with_scratch(|_| with_scratch(|_| ()));
    }
}
