//! Allocation budget of the exploration hot loop.
//!
//! A counting global allocator tallies heap allocations per thread, so the
//! other tests of this binary, running on their own threads, do not disturb
//! the count. Each case explores one roster system and divides the
//! allocations made during `explore_system_report` by the transitions of
//! the resulting LTS. What remains per transition is the successor itself:
//! its shared state (cloned by the algorithm's step) and its thread-status
//! vector, plus the occasional buffer growth — 2.05 on treiber 2-2 and 2.06
//! on ms-queue 2-2, against 13.68 and 15.01 before the loop reused its
//! buffers. The bound is the measured count rounded up to the next half,
//! well under a third of the old count.

use bbverify::algorithms::ms_queue::MsQueue;
use bbverify::algorithms::treiber::Treiber;
use bbverify::lts::ExploreOptions;
use bbverify::sim::{explore_system_report, Bound, ObjectAlgorithm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the only
// addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed per explored transition.
const BOUND: f64 = 2.5;

/// Allocations per LTS transition of one exploration of `alg` at `bound`.
fn allocs_per_transition<A: ObjectAlgorithm>(alg: &A, bound: Bound) -> f64 {
    let opts = ExploreOptions::default();
    let before = ALLOCS.with(Cell::get);
    let (lts, _) = explore_system_report(alg, bound, &opts).expect("unbudgeted exploration");
    let allocs = ALLOCS.with(Cell::get) - before;
    let per = allocs as f64 / lts.num_transitions() as f64;
    eprintln!(
        "{} {}-{}: {allocs} allocations / {} transitions = {per:.2}",
        alg.name(),
        bound.threads,
        bound.ops_per_thread,
        lts.num_transitions()
    );
    per
}

#[test]
fn treiber_2_2_stays_within_the_allocation_budget() {
    let per = allocs_per_transition(&Treiber::new(&[1, 2]), Bound::new(2, 2));
    assert!(
        per <= BOUND,
        "treiber 2-2: {per:.2} allocations per transition"
    );
}

#[test]
fn ms_queue_2_2_stays_within_the_allocation_budget() {
    let per = allocs_per_transition(&MsQueue::new(&[1, 2]), Bound::new(2, 2));
    assert!(
        per <= BOUND,
        "ms-queue 2-2: {per:.2} allocations per transition"
    );
}
