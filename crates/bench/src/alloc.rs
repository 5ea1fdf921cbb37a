//! A counting global allocator, so experiments can report *allocations per
//! operation* next to wall time — allocation regressions in the hot paths
//! then fail loudly in CI instead of hiding inside noisy timings.
//!
//! Every binary and test that links `tc-bench` routes the global
//! allocator through [`Counting`], which delegates to [`System`] and bumps
//! two relaxed atomics. The overhead is two uncontended atomic adds per
//! allocation — invisible next to the allocation itself — and the
//! delegation is byte-for-byte `System`.
//!
//! Measurement is a *delta of snapshots* ([`measure`]): counters are global
//! and monotone, so concurrent allocator traffic from other threads would
//! pollute a window. The experiment binaries only measure on the main
//! thread with no workers running.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`] delegate that counts allocation calls and requested bytes.
///
/// `realloc` counts as one allocation of the *new* size (it may move and
/// copy, which is the cost being tracked); `dealloc` is free and uncounted.
pub struct Counting;

// SAFETY: pure delegation to `System`; the counters never influence
// layout, pointers, or control flow.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A point-in-time reading of the global counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    allocs: u64,
    bytes: u64,
}

/// Allocation traffic over one measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Number of `alloc`/`alloc_zeroed`/`realloc` calls.
    pub allocs: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

/// Reads the global counters.
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Counter movement since `earlier`.
#[must_use]
pub fn since(earlier: Snapshot) -> Counts {
    let now = snapshot();
    Counts {
        allocs: now.allocs.wrapping_sub(earlier.allocs),
        bytes: now.bytes.wrapping_sub(earlier.bytes),
    }
}

/// Runs `f` and returns its result together with the allocation traffic it
/// generated. Only meaningful when no other thread is allocating.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = snapshot();
    let r = f();
    let counts = since(before);
    (r, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_sees_vec_allocations() {
        let (v, counts) = measure(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(counts.allocs >= 1, "a fresh Vec allocates");
        assert!(counts.bytes >= 4096);
    }

    #[test]
    fn counters_are_monotone() {
        let a = snapshot();
        let _keep = std::hint::black_box(Box::new([0u64; 32]));
        assert!(since(a).allocs >= 1);
    }
}
