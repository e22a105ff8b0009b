//! A std-only counting allocator.
//!
//! The benchmark binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`. Counting is off until [`enable`] turns it on,
//! so untraced runs pay one relaxed load per allocation. While on, every
//! allocation and reallocation bumps process-wide totals (all threads,
//! shard workers included) and a per-thread count that
//! [`crate::probe::Probe`] reads around each handler call.
//!
//! [`pin_malloc_thresholds`] fixes how the underlying glibc allocator
//! returns memory to the kernel, so every benchmark process allocates the
//! same way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL_CALLS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts allocations while enabled.
pub struct CountingAlloc;

fn note(bytes: usize) {
    if ENABLED.load(Relaxed) {
        TOTAL_CALLS.fetch_add(1, Relaxed);
        TOTAL_BYTES.fetch_add(bytes as u64, Relaxed);
        // `try_with`: allocations during thread teardown still succeed.
        let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and a const-initialised thread-local without a destructor, so
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turn counting on or off for the whole process.
pub fn enable(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Process-wide `(allocations, bytes requested)` counted so far.
pub fn totals() -> (u64, u64) {
    (TOTAL_CALLS.load(Relaxed), TOTAL_BYTES.load(Relaxed))
}

/// Allocations counted so far on the calling thread.
pub fn thread_calls() -> u64 {
    THREAD_CALLS.with(Cell::get)
}

/// glibc `mallopt` parameters (`<malloc.h>`).
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc's trim and mmap thresholds for the life of the process.
///
/// By default glibc adapts both to the process's allocation history and
/// hands freed memory back to the kernel when they trip, and whether they
/// trip differs from process to process. On a 2-vCPU virtual machine
/// that split `fig2_sharded` set-up time into a 0.15 ms and a 0.3 ms mode
/// across processes, with no page faults in either. With fixed
/// thresholds freed memory stays in the process (allocations below
/// 32 MiB come from the heap) and the modes are gone. Call it before
/// starting any thread; returns whether glibc accepted both.
pub fn pin_malloc_thresholds() -> bool {
    // SAFETY: `mallopt` takes two plain ints and only updates the
    // allocator's tuning parameters under its own lock; both values are
    // within the ranges glibc documents for these parameters.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}
