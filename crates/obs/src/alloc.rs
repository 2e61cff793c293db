//! Feature-gated counting global allocator (`alloc-metrics`).
//!
//! When the `alloc-metrics` feature is enabled, a binary can install
//! `CountingAllocator` as its `#[global_allocator]`; every allocation is
//! then tallied into process-wide atomics and [`alloc_snapshot`] reports
//! cumulative allocation count/bytes, currently live bytes, and the peak
//! high-water mark. The report builder samples these around each stage
//! guard, so per-stage deltas land in `RunReport.metrics` as
//! `alloc_allocs{stage=...}` / `alloc_bytes{stage=...}` counters plus an
//! `alloc_peak_bytes` gauge.
//!
//! Without the feature the allocator type is absent and [`alloc_snapshot`]
//! returns zeros, so instrumentation sites can call it unconditionally —
//! the builder skips recording when the feature is compiled out, keeping
//! default-build reports byte-identical to pre-metrics ones.

/// Point-in-time allocation statistics (all zeros when the `alloc-metrics`
/// feature is off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Cumulative number of allocations.
    pub allocs: u64,
    /// Cumulative bytes requested by allocations.
    pub bytes: u64,
    /// Bytes currently live (allocated minus freed).
    pub current: u64,
    /// Peak of `current` over the process lifetime.
    pub peak: u64,
}

impl AllocSnapshot {
    /// Delta of cumulative fields relative to an earlier snapshot
    /// (`current`/`peak` keep the later absolute values).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            current: self.current,
            peak: self.peak,
        }
    }
}

#[cfg(feature = "alloc-metrics")]
mod counting {
    use super::AllocSnapshot;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    static CURRENT: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    fn on_alloc(size: u64) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
        let live = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(size: u64) {
        CURRENT.fetch_sub(size, Ordering::Relaxed);
    }

    /// A counting wrapper around the system allocator. Install with
    /// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
    /// in the binary (or test) crate root.
    pub struct CountingAllocator;

    // SAFETY: delegates every operation to `System`, which upholds the
    // GlobalAlloc contract; the atomics only observe sizes.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            on_dealloc(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                on_dealloc(layout.size() as u64);
                on_alloc(new_size as u64);
            }
            p
        }
    }

    pub fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            current: CURRENT.load(Ordering::Relaxed),
            peak: PEAK.load(Ordering::Relaxed),
        }
    }
}

#[cfg(feature = "alloc-metrics")]
pub use counting::CountingAllocator;

/// Current process-wide allocation statistics. Zeros unless the
/// `alloc-metrics` feature is enabled *and* `CountingAllocator` is
/// installed as the global allocator.
pub fn alloc_snapshot() -> AllocSnapshot {
    #[cfg(feature = "alloc-metrics")]
    {
        counting::snapshot()
    }
    #[cfg(not(feature = "alloc-metrics"))]
    {
        AllocSnapshot::default()
    }
}

/// Whether allocation metrics are compiled in.
pub fn alloc_metrics_enabled() -> bool {
    cfg!(feature = "alloc-metrics")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_saturating() {
        let early = AllocSnapshot { allocs: 10, bytes: 100, current: 50, peak: 80 };
        let late = AllocSnapshot { allocs: 15, bytes: 160, current: 40, peak: 90 };
        let d = late.since(&early);
        assert_eq!(d.allocs, 5);
        assert_eq!(d.bytes, 60);
        assert_eq!(d.current, 40);
        assert_eq!(d.peak, 90);
        // Reversed order saturates instead of wrapping.
        let r = early.since(&late);
        assert_eq!(r.allocs, 0);
        assert_eq!(r.bytes, 0);
    }

    #[cfg(not(feature = "alloc-metrics"))]
    #[test]
    fn snapshot_is_zero_without_feature() {
        assert_eq!(alloc_snapshot(), AllocSnapshot::default());
        assert!(!alloc_metrics_enabled());
    }

    #[cfg(feature = "alloc-metrics")]
    #[test]
    fn counting_allocator_observes_allocations() {
        // The allocator only counts when installed globally; these tests run
        // in the obs test binary which installs it below.
        let before = alloc_snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let after = alloc_snapshot();
        drop(v);
        assert!(after.allocs > before.allocs, "alloc count should grow");
        assert!(after.bytes >= before.bytes + 4096);
        assert!(after.peak >= 4096);
        assert!(alloc_metrics_enabled());
    }
}

// Install the counting allocator for this crate's own unit-test binary so
// the feature-gated test above observes real counts.
#[cfg(all(test, feature = "alloc-metrics"))]
#[global_allocator]
static TEST_ALLOCATOR: CountingAllocator = CountingAllocator;
