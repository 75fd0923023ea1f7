//! Steady-state heap allocations of a wire round trip, counted by a
//! global allocator around a loopback [`WireServer`] and [`WireClient`].
//! Once both connection buffers are warm, a NEXT_QUESTION round trip
//! allocates nothing anywhere in the process: not the client's request
//! encoding or response read, not the server's frame read, decode or
//! response encoding. One test per binary, so no other test's
//! allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aigs_core::SessionStep;
use aigs_service::wire::{WireClient, WireServer};
use aigs_service::{CompiledTier, EngineConfig, PlanSpec, PolicyKind, SearchEngine};
use aigs_testutil::{dag_from_seed, generic_weights};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_round_trips_do_not_allocate() {
    const N: usize = 15;
    const ROUNDS: u64 = 1000;
    let engine = Arc::new(SearchEngine::new(EngineConfig {
        shards: 1,
        compiled: CompiledTier::All,
        ..EngineConfig::default()
    }));
    let dag = Arc::new(dag_from_seed(N, 0.3, 0x31E));
    let plan = engine
        .register_plan(PlanSpec::new(dag, Arc::new(generic_weights(N, 0x31E))))
        .unwrap();
    let server = WireServer::bind(Arc::clone(&engine), "127.0.0.1:0", 1).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let id = client.open(plan, PolicyKind::TopDown).unwrap();

    let mut step = || {
        let step = client.next_question(id).unwrap();
        assert!(matches!(step, SessionStep::Ask(_)), "{step:?}");
    };
    for _ in 0..ROUNDS {
        step();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        step();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "{allocs} allocations in {ROUNDS} round trips");
    server.shutdown();
}
