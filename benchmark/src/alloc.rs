//! The benchmark's counting allocator: allocation calls, live bytes and
//! the peak of live bytes, read by the harness around engine passes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator with three process-wide statistics. All updates
/// are `Relaxed`: the counters publish no other data, and the harness only
/// reads them from the thread that drives the engine, after the calls it
/// wants to account for have returned.
pub struct CountingAlloc {
    calls: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A zeroed allocator wrapper.
    pub const fn new() -> Self {
        CountingAlloc {
            calls: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Bytes currently allocated (alloc − dealloc).
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest value of [`CountingAlloc::live`] since the last
    /// [`CountingAlloc::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts peak tracking from the current live level and returns that
    /// level — the baseline a pass subtracts from its peak.
    pub fn reset_peak(&self) -> usize {
        let live = self.live();
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the added work only
// touches the wrapper's own atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        new_ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.shrink(layout.size());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a private instance directly, so the test neither depends on
    /// nor disturbs the process-wide allocator other tests run on.
    #[test]
    fn peak_tracks_the_high_water_mark_above_a_baseline() {
        let a = CountingAlloc::new();
        let small = Layout::from_size_align(1000, 8).unwrap();
        let big = Layout::from_size_align(5000, 8).unwrap();
        // SAFETY: each pointer is freed exactly once with the layout it
        // was allocated (or last reallocated) with.
        unsafe {
            let keep = a.alloc(small);
            assert_eq!(a.reset_peak(), 1000);
            let p = a.alloc(big);
            let q = a.alloc_zeroed(small);
            assert_eq!(a.live(), 7000);
            a.dealloc(p, big);
            assert_eq!(a.live(), 2000);
            assert_eq!(a.peak(), 7000, "peak survives the free");
            let q = a.realloc(q, small, 3000);
            assert_eq!(a.live(), 4000);
            assert_eq!(a.peak(), 7000, "a smaller level does not move it");
            let grown = Layout::from_size_align(3000, 8).unwrap();
            let q = a.realloc(q, grown, 500);
            assert_eq!(a.live(), 1500);
            a.dealloc(q, Layout::from_size_align(500, 8).unwrap());
            a.dealloc(keep, small);
        }
        assert_eq!(a.live(), 0);
        assert_eq!(a.calls(), 5, "alloc, alloc, alloc_zeroed, realloc, realloc");
        assert_eq!(a.reset_peak(), 0);
        assert_eq!(a.peak(), 0);
    }
}
