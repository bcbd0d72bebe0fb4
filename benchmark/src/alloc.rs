//! Counting global allocator: calls, bytes, live bytes and the live-byte
//! high-water mark, all relaxed atomics (statistics, they publish no data).
//!
//! Feeds `peak_live_mb` and the `alloc.*` per-layer metrics without touching
//! a product file. The benchmark pins the product to one thread, so the counts
//! are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        if new_size >= layout.size() {
            let grow = (new_size - layout.size()) as u64;
            BYTES.fetch_add(grow, Relaxed);
            let live = LIVE.fetch_add(grow, Relaxed) + grow;
            PEAK.fetch_max(live, Relaxed);
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counters since the last [`reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation and reallocation calls.
    pub calls: u64,
    /// Bytes requested (reallocations count their growth).
    pub bytes: u64,
    /// Live-byte high-water mark, including what was live at the reset.
    pub peak_live: u64,
}

/// Starts a new counting window: zeroes calls and bytes and lowers the
/// high-water mark to what is live now.
pub fn reset() {
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Reads the counters of the current window.
pub fn stats() -> AllocStats {
    AllocStats {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed),
    }
}

/// Bytes live now.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
