//! A counting global allocator: the ledger reports allocations per
//! operation and per frame next to self time.
//!
//! Always on, one relaxed atomic add per allocation, byte-for-byte
//! [`System`] otherwise — so it is identical on both sides of any
//! comparison made with this benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: pure delegation to `System`; the counter never influences
// layout, pointers or control flow.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above, for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above, for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) made so far by every
/// thread of the process.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
