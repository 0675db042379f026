//! Counting global allocator of the benchmark binary. It delegates to
//! [`System`] and bumps a thread-local counter, so a span on the tracing
//! thread counts exactly the allocations made inside it. `vs2d` is a
//! separate process and never sees it.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

#[inline]
fn bump() {
    // `try_with`: allocator calls during thread teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

// SAFETY: pure delegation to `System`; the counter never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `GlobalAlloc::alloc` contract is passed on
        // unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` come from `System` through this
        // allocator, and the caller guarantees `new_size`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far on the calling thread.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
