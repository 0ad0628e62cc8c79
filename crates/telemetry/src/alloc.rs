//! Measured memory: an instrumented `#[global_allocator]` wrapper and
//! span-scoped attribution regions.
//!
//! Every memory figure the workspace reports elsewhere —
//! `Distances::peak_bytes`, `Apsp::heap_bytes`, the `BitBreakdown`
//! totals — is an *analytic* self-report: a hand-derived formula nothing
//! checks against the process's actual heap. This module closes that
//! loop. [`CountingAlloc`] wraps [`std::alloc::System`] and maintains,
//! with relaxed atomics only (the allocator must never call anything
//! that allocates):
//!
//! * **live bytes** — exact requested-byte balance of every outstanding
//!   allocation (`Layout::size`, not malloc-internal overhead, so the
//!   figure is machine-independent for a deterministic workload);
//! * **peak bytes** — the process-lifetime high-water mark of live
//!   bytes, maintained with `fetch_max` exactly like a histogram's
//!   `max` ([`crate::Hist::record`]);
//! * **a resettable region watermark** — the primitive behind
//!   [`MemSpan`] attribution (below);
//! * **allocation-size distribution** — every allocation's size feeds
//!   the `alloc.size_bytes` histogram through the ordinary
//!   [`crate::hist`] machinery (tagged like a timing histogram: sample
//!   counts vary with thread count and feature set, so byte-identity
//!   guards must skip it).
//!
//! # Attribution: `MemSpan`
//!
//! A [`MemSpan`] is the memory analogue of [`crate::span`]: an RAII
//! region that records, per labeled phase, the **net bytes** the region
//! retained (live at close − live at open) and the **region peak** (the
//! high-water mark of live bytes while the region was open, relative to
//! the bytes live at open). Nesting works by the save/restore watermark
//! trick: opening a region saves the current watermark and resets it to
//! the current live count; closing reads the region's own watermark and
//! restores the outer one to `max(saved, observed)` — so an inner
//! region's peak propagates into its parent and, single-threaded, every
//! region peak is exact. With concurrent allocating threads the peaks
//! are still correct *global* high-water marks but attribute the other
//! threads' traffic to whichever region is open — which is why every
//! audited measurement in the workspace (profile `--mem`, the mem gate,
//! the bench probes) runs its measured phase serially.
//!
//! # Feature gate and installation
//!
//! Everything here sits behind the `alloc` feature (which implies
//! `enabled`), forwarded by the root crate as `alloc-telemetry`
//! (default-on, compiled out under `--no-default-features`). When the
//! feature is on, this crate installs [`CountingAlloc`] as the
//! `#[global_allocator]` for every binary that links it — the `ort`
//! CLI and the workspace test binaries. When it is off, [`installed`]
//! is `false`, every probe folds to a no-op, and the process keeps the
//! unwrapped system allocator.

// The one place in the workspace that needs `unsafe`: implementing
// `GlobalAlloc` is an unsafe contract (the methods inherit the caller's
// layout obligations and forward them verbatim to `System`).
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Whether allocator instrumentation is compiled in (the `alloc`
/// feature). Constant per build; probes branch on it and the disabled
/// branch folds away entirely.
#[must_use]
pub const fn installed() -> bool {
    cfg!(feature = "alloc")
}

/// Exact requested bytes currently live (allocated and not yet freed).
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Process-lifetime high-water mark of [`LIVE`] (resettable by
/// [`reset_run`] to the then-current live count).
static PEAK: AtomicU64 = AtomicU64::new(0);
/// The save/restore region watermark behind [`MemSpan`].
static WATERMARK: AtomicU64 = AtomicU64::new(0);
/// Total allocation calls (alloc + alloc_zeroed + growing reallocs).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Closed [`MemSpan`] records, in close order.
static RECORDS: Mutex<Vec<MemSpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// Open-region nesting depth on this thread.
    static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[inline]
fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    WATERMARK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // Size distribution through the ordinary hist machinery — but only
    // once the histogram is registered (by a safe path: `mem_span` or
    // `reset_run`). First registration pushes into a locked Vec whose
    // growth would re-enter this hook while the registry lock is held;
    // gating on `registered()` keeps the allocator free of every lock,
    // and a registered `record` is pure relaxed atomics.
    let sizes = crate::hist::alloc_size_hist();
    if sizes.registered() {
        sizes.record(size as u64);
    }
}

#[inline]
fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

/// The instrumented allocator: [`std::alloc::System`] plus exact
/// counters. Installed as the `#[global_allocator]` when the `alloc`
/// feature is on.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: every method forwards the caller's layout verbatim to
// `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// is relaxed atomics and never allocates through a re-entrant lock.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = unsafe { std::alloc::System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = unsafe { std::alloc::System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: std::alloc::Layout,
        new_size: usize,
    ) -> *mut u8 {
        let p = unsafe { std::alloc::System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                on_dealloc(layout.size() - new_size);
            }
        }
        p
    }
}

/// The workspace-wide installation: one `#[global_allocator]` in the
/// telemetry crate covers the `ort` binary and every test binary that
/// links it with the feature on.
#[cfg(feature = "alloc")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Exact requested bytes currently live, 0 when instrumentation is
/// compiled out.
#[must_use]
pub fn live_bytes() -> u64 {
    if !installed() {
        return 0;
    }
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live bytes since process start (or the last
/// [`reset_run`]); 0 when instrumentation is compiled out.
#[must_use]
pub fn peak_bytes() -> u64 {
    if !installed() {
        return 0;
    }
    PEAK.load(Ordering::Relaxed)
}

/// Total allocation calls since process start; 0 when instrumentation
/// is compiled out.
#[must_use]
pub fn total_allocations() -> u64 {
    if !installed() {
        return 0;
    }
    ALLOCS.load(Ordering::Relaxed)
}

/// Clears the closed-region records and re-bases the peak and region
/// watermark to the current live count, so a fresh run's peaks describe
/// that run only. Called by [`crate::reset`]; live-byte accounting
/// itself is never cleared (it is a balance, not a statistic).
pub fn reset_run() {
    if !installed() {
        return;
    }
    crate::hist::alloc_size_hist().register();
    lock_records().clear();
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    WATERMARK.store(live, Ordering::Relaxed);
}

fn lock_records() -> std::sync::MutexGuard<'static, Vec<MemSpanRecord>> {
    RECORDS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What one closed [`MemSpan`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSpanRecord {
    /// The region label (phase name, e.g. `apsp.compute`).
    pub label: &'static str,
    /// Live bytes when the region opened.
    pub live_at_open: u64,
    /// Live at close − live at open: what the region *retained*.
    pub net_bytes: i64,
    /// High-water mark of live bytes while the region was open, minus
    /// the bytes live at open: the region's own peak footprint.
    pub region_peak_bytes: u64,
    /// Nesting depth on the opening thread (0 = outermost).
    pub depth: usize,
}

/// An RAII memory-attribution region (see the module docs). Create via
/// [`mem_span`]; closing (drop or [`MemSpan::finish`]) appends a
/// [`MemSpanRecord`].
#[derive(Debug)]
pub struct MemSpan {
    label: &'static str,
    live_at_open: u64,
    saved_watermark: u64,
    closed: bool,
}

impl MemSpan {
    fn close(&mut self) -> MemSpanRecord {
        self.closed = true;
        if !installed() {
            return MemSpanRecord {
                label: self.label,
                live_at_open: 0,
                net_bytes: 0,
                region_peak_bytes: 0,
                depth: 0,
            };
        }
        let live_now = LIVE.load(Ordering::Relaxed);
        // The region's watermark: the highest live count observed since
        // this span reset it at open (it starts at live_at_open, so it
        // is always ≥ live_at_open single-threaded).
        let observed = WATERMARK.load(Ordering::Relaxed).max(self.live_at_open);
        // Restore the outer region's tracking; the inner peak propagates
        // so a parent's watermark is ≥ every child's.
        WATERMARK.store(self.saved_watermark.max(observed), Ordering::Relaxed);
        let depth = DEPTH.with(|d| {
            let v = d.get().saturating_sub(1);
            d.set(v);
            v
        });
        #[allow(clippy::cast_possible_wrap)]
        let record = MemSpanRecord {
            label: self.label,
            live_at_open: self.live_at_open,
            net_bytes: live_now as i64 - self.live_at_open as i64,
            region_peak_bytes: observed - self.live_at_open,
            depth,
        };
        // Pushed *after* the measurements are taken, so the push's own
        // allocation lands in the parent region, not this record.
        lock_records().push(record);
        record
    }

    /// Closes the region now and returns its record (instead of waiting
    /// for drop). The record is also appended to the registry.
    #[must_use]
    pub fn finish(mut self) -> MemSpanRecord {
        self.close()
    }
}

impl Drop for MemSpan {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.close();
        }
    }
}

/// Opens a memory-attribution region labeled `label`. No-op (but still
/// droppable) when instrumentation is compiled out.
#[must_use]
pub fn mem_span(label: &'static str) -> MemSpan {
    if !installed() {
        return MemSpan { label, live_at_open: 0, saved_watermark: 0, closed: false };
    }
    // A span open is a safe (non-allocator) path: use it to register the
    // size histogram so subsequent allocations feed the distribution.
    crate::hist::alloc_size_hist().register();
    let live = LIVE.load(Ordering::Relaxed);
    // Save the outer watermark and re-base to the current live count so
    // the region observes only its own traffic.
    let saved = WATERMARK.swap(live, Ordering::Relaxed);
    DEPTH.with(|d| d.set(d.get() + 1));
    MemSpan { label, live_at_open: live, saved_watermark: saved, closed: false }
}

/// All closed region records, in close order.
#[must_use]
pub fn records() -> Vec<MemSpanRecord> {
    if !installed() {
        return Vec::new();
    }
    lock_records().clone()
}

/// The last closed record with `label`, if any.
#[must_use]
pub fn last_record(label: &str) -> Option<MemSpanRecord> {
    if !installed() {
        return None;
    }
    lock_records().iter().rev().find(|r| r.label == label).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn installed_matches_feature() {
        assert_eq!(installed(), cfg!(feature = "alloc"));
    }

    /// Other tests in this process allocate and free concurrently, and
    /// the counters are process-global, so a stray free can land inside a
    /// measured window. A measurement is retried a few times; a real
    /// accounting bug fails every attempt.
    fn holds_within_retries(mut attempt: impl FnMut() -> bool) -> bool {
        (0..8).any(|_| attempt())
    }

    #[test]
    fn live_and_peak_track_a_large_allocation() {
        if !installed() {
            assert_eq!(live_bytes(), 0);
            assert_eq!(peak_bytes(), 0);
            return;
        }
        let tracked = holds_within_retries(|| {
            let before = live_bytes();
            let buf = vec![0u8; 1 << 20];
            let with_buf = live_bytes();
            let peak_with_buf = peak_bytes();
            std::hint::black_box(&buf);
            drop(buf);
            with_buf >= before + (1 << 20)
                && peak_with_buf >= with_buf
                && live_bytes() < before + (1 << 20)
                && peak_bytes() >= peak_with_buf
        });
        assert!(tracked, "live must include the buffer, drop on free; peak never decreases");
        assert!(total_allocations() > 0);
    }

    #[test]
    fn mem_span_reports_net_and_region_peak() {
        if !installed() {
            let r = mem_span("test.alloc.gated").finish();
            assert_eq!(r.net_bytes, 0);
            assert_eq!(r.region_peak_bytes, 0);
            return;
        }
        let bracketed = holds_within_retries(|| {
            let span = mem_span("test.alloc.span");
            let keep = vec![0u8; 1 << 18];
            let scratch = vec![0u8; 1 << 19];
            drop(scratch);
            let r = span.finish();
            std::hint::black_box(&keep);
            r.net_bytes >= (1 << 18) && r.region_peak_bytes >= (1 << 18) + (1 << 19)
        });
        assert!(bracketed, "region must retain the kept buffer and see both buffers live");
        assert!(last_record("test.alloc.span").is_some());
    }

    #[test]
    fn size_distribution_reaches_the_hist_registry() {
        if !installed() {
            return;
        }
        // Registration happens on span open; allocations after it feed
        // the distribution.
        let span = mem_span("test.alloc.sizes");
        let _buf = vec![0u8; 4096];
        let _ = span.finish();
        let all = crate::hist::hist_values();
        let d = all.iter().find(|d| d.name == "alloc.size_bytes").expect("registered");
        assert!(d.count > 0);
        assert!(d.timing, "alloc sizes are environment-volatile: must carry the exclusion tag");
    }
}
