//! A counting global allocator: live bytes, peak live bytes, and
//! allocation count/volume of the benchmark process.
//!
//! Every workload runs on one host thread (the checker's `jobs = 1`
//! engine parks the main thread while its single worker runs), so the
//! counts are exact and repeat bit-for-bit; the counters are atomics
//! only because `GlobalAlloc` must be `Sync`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator the benchmark binary installs with
/// `#[global_allocator]`.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    let size = size as u64;
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping touches only this module's atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// A reading of the allocator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapMark {
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
    /// Allocations (and reallocations) so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Reads the counters. All zero when [`CountingAlloc`] is not the
/// process's global allocator (e.g. in this crate's integration tests).
pub fn mark() -> HeapMark {
    HeapMark {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
