//! A counting global allocator for allocation-budget tests (behind the
//! `count-allocs` feature, which production builds never enable).
//!
//! The steady-state per-event replay path is engineered to recycle its
//! buffers — scratch vectors, the job arena's free list, the event queue's
//! ring storage — so heap traffic per event should be a small constant,
//! not a function of queue depth or trace length. The `alloc_budget`
//! integration test installs [`CountingAlloc`] as the global allocator and
//! asserts that budget; a regression that sneaks a per-event allocation
//! into the hot path (a rebuilt `Vec`, a per-pass `HashSet`) moves the
//! measured ratio far more than the assertion's slack.
//!
//! Counts are per thread, so tests running in parallel (and the test
//! harness itself) never leak into each other's budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards to the system allocator, counting `alloc`/`realloc` calls.
/// Install with `#[global_allocator]` in a test binary.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (plus reallocations) made so far by the calling
/// thread. Meaningful only when [`CountingAlloc`] is the global allocator.
pub fn allocation_count() -> u64 {
    ALLOCS.with(Cell::get)
}
