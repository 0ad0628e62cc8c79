//! Log-bucketed histograms: exact counts, deterministic merge, cheap
//! percentiles.
//!
//! A [`Hist`] is created per call site by the [`hist!`](macro@crate::hist) macro as a
//! `static`, registered in a global list on first use (exactly the
//! [`crate::counter!`] pattern), and filled with relaxed atomic adds.
//! Bucket increments commute, so the merged bucket vector is
//! deterministic under any `ORT_THREADS` — *value-domain* histograms
//! (hop counts, stretch×1000, per-node bits, dirty fractions) are
//! byte-identical across thread counts and may appear in checked-in
//! result files. *Timing* histograms (created by [`timing_hist!`](macro@crate::timing_hist)) carry
//! a `timing` tag instead: their buckets hold wall-clock samples, are
//! excluded from every byte-identity guard, and never reach result
//! files.
//!
//! # Bucketing
//!
//! HDR-style log-linear buckets over `u64`, fixed at compile time:
//! values `0..32` get exact unit buckets; every power-of-two range
//! `[2^h, 2^{h+1})` above that is split into 16 equal sub-buckets, so
//! the relative width of any bucket is ≤ 1/16 ≈ 6.25%. The mapping is
//! pure integer arithmetic ([`bucket_index`] / [`bucket_bounds`]) and
//! identical everywhere — a bucket vector is comparable across runs,
//! builds, and machines by construction.
//!
//! Hot loops that cannot afford an atomic per sample accumulate into a
//! stack-local [`LocalHist`] and merge once per block
//! ([`LocalHist::merge_into`]) — the local-accumulate/one-atomic-merge
//! discipline the counters already follow.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// Exact unit buckets for values below this (a power of two).
const LINEAR_MAX: u64 = 32;
/// log2 of [`LINEAR_MAX`].
const LINEAR_BITS: u32 = 5;
/// Sub-buckets per power-of-two range above the linear region.
const SUB_BUCKETS: usize = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Total bucket count: 32 linear + 16 per octave for octaves 5..=63.
pub const N_BUCKETS: usize = LINEAR_MAX as usize + (64 - LINEAR_BITS as usize) * SUB_BUCKETS;

/// The bucket index holding `v`. Pure, total, monotone in `v`.
#[must_use]
pub const fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    // v >= 32, so leading_zeros <= 58 and h >= 5.
    let h = 63 - v.leading_zeros();
    let sub = ((v >> (h - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    LINEAR_MAX as usize + (h - LINEAR_BITS) as usize * SUB_BUCKETS + sub
}

/// The inclusive value range `[lo, hi]` covered by bucket `i`.
///
/// # Panics
///
/// Panics if `i >= N_BUCKETS`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < N_BUCKETS, "bucket index {i} out of range");
    if (i as u64) < LINEAR_MAX {
        return (i as u64, i as u64);
    }
    let j = i - LINEAR_MAX as usize;
    let h = LINEAR_BITS + (j / SUB_BUCKETS) as u32;
    let sub = (j % SUB_BUCKETS) as u64;
    let width = 1u64 << (h - SUB_BITS);
    let lo = (1u64 << h) + sub * width;
    (lo, lo + (width - 1))
}

/// A process-global named histogram. Create via [`hist!`](macro@crate::hist) (value-domain)
/// or [`timing_hist!`](macro@crate::timing_hist) (wall-clock samples, excluded from determinism
/// guards).
pub struct Hist {
    name: &'static str,
    timing: bool,
    registered: AtomicBool,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("name", &self.name)
            .field("timing", &self.timing)
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

static HISTS: Mutex<Vec<&'static Hist>> = Mutex::new(Vec::new());

fn lock() -> std::sync::MutexGuard<'static, Vec<&'static Hist>> {
    HISTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[allow(clippy::declare_interior_mutable_const)] // repeat seed for the const array initializer
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Hist {
    /// Creates an unregistered histogram (registration happens on first
    /// record). `const` so the macros can place it in a `static`.
    #[must_use]
    pub const fn new(name: &'static str, timing: bool) -> Self {
        Hist {
            name,
            timing,
            registered: AtomicBool::new(false),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [ZERO; N_BUCKETS],
        }
    }

    /// Records one sample. No-op when the `enabled` feature is off.
    pub fn record(&'static self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v` (one atomic add per bucket — this
    /// is what [`LocalHist::merge_into`] calls per non-empty bucket).
    pub fn record_n(&'static self, v: u64, n: u64) {
        if !crate::enabled() || n == 0 {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock().push(self);
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The histogram's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether this call site has already been pushed into the global
    /// registry. The allocator hook gates on this: first registration
    /// pushes into a locked `Vec` whose growth re-enters the allocator,
    /// so the hook must never be the registrant (see [`register`]).
    ///
    /// [`register`]: Hist::register
    pub(crate) fn registered(&self) -> bool {
        self.registered.load(Ordering::Relaxed)
    }

    /// Registers this histogram now, from a known-safe (non-allocator)
    /// code path, without recording a sample.
    pub(crate) fn register(&'static self) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock().push(self);
        }
    }

    /// Snapshot of this call site's buckets as owned data.
    #[must_use]
    pub fn data(&self) -> HistData {
        let mut d = HistData::named(self.name, self.timing);
        d.count = self.count.load(Ordering::Relaxed);
        d.sum = self.sum.load(Ordering::Relaxed);
        d.max = self.max.load(Ordering::Relaxed);
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                d.buckets.push((i, c));
            }
        }
        d
    }
}

/// A non-atomic histogram for hot-loop local accumulation, merged into a
/// global [`Hist`] once per block — or used standalone as a plain data
/// structure (it does **not** consult the feature gate, so result-file
/// histograms built from it are identical with telemetry compiled out).
#[derive(Debug, Clone)]
pub struct LocalHist {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHist {
    /// An empty local histogram.
    #[must_use]
    pub fn new() -> Self {
        LocalHist { counts: vec![0; N_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Records one sample (plain integer arithmetic, never gated).
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merges every non-empty bucket into the global histogram with one
    /// atomic add each. Bucket adds commute, so the merged result is
    /// independent of merge order and thread count.
    pub fn merge_into(&self, h: &'static Hist) {
        if !crate::enabled() || self.count == 0 {
            return;
        }
        if !h.registered.swap(true, Ordering::Relaxed) {
            lock().push(h);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                h.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        h.count.fetch_add(self.count, Ordering::Relaxed);
        h.sum.fetch_add(self.sum, Ordering::Relaxed);
        h.max.fetch_max(self.max, Ordering::Relaxed);
    }

    /// Freezes this local histogram into owned, sparse [`HistData`].
    #[must_use]
    pub fn data(&self, name: &str) -> HistData {
        let mut d = HistData::named(name, false);
        d.count = self.count;
        d.sum = self.sum;
        d.max = self.max;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                d.buckets.push((i, c));
            }
        }
        d
    }
}

/// An owned histogram snapshot: sparse `(bucket index, count)` pairs in
/// index order, plus exact count/sum/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistData {
    /// Histogram name.
    pub name: String,
    /// Whether this is a timing histogram (wall-clock samples; excluded
    /// from byte-identity guards).
    pub timing: bool,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples (saturating).
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Non-empty buckets as `(bucket index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistData {
    fn named(name: &str, timing: bool) -> HistData {
        HistData { name: name.to_string(), timing, count: 0, sum: 0, max: 0, buckets: Vec::new() }
    }

    /// Merges another snapshot into this one (bucket-wise add; names must
    /// match — the caller owns that invariant). Deterministic regardless
    /// of merge order.
    pub fn merge(&mut self, other: &HistData) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: Vec<(usize, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.by_ref().copied());
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref().copied());
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket holding the sample of rank `ceil(q·count)` (so the
    /// true quantile is ≤ the returned value, and exact below
    /// `LINEAR_MAX`). The top quantile reports the exact tracked max.
    /// Returns 0 on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                // The last bucket's upper bound would overstate the tail;
                // the exact max is tracked, use it as the cap.
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of the samples (0 on empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let m = self.sum as f64 / self.count as f64;
            m
        }
    }

    /// The one serialization of a histogram: exact `count`, `sum` and
    /// `max`, then the non-empty `buckets` as `[index, count]` pairs, every
    /// integer through [`Json::uint`]. A results file's `"hists"` section
    /// holds `Json::obj` of these fields under the histogram's name; the
    /// JSONL sink's `hist` line puts `type`, `name` and `timing` in front
    /// of them.
    #[must_use]
    pub fn json_fields(&self) -> Vec<(&'static str, Json)> {
        let buckets = self
            .buckets
            .iter()
            .map(|&(i, c)| Json::Arr(vec![Json::uint(i as u64), Json::uint(c)]))
            .collect();
        vec![
            ("count", Json::uint(self.count)),
            ("sum", Json::uint(self.sum)),
            ("max", Json::uint(self.max)),
            ("buckets", Json::Arr(buckets)),
        ]
    }

    /// One-line percentile readout:
    /// `count=… mean=… p50=… p90=… p99=… p999=… max=…`.
    #[must_use]
    pub fn percentile_line(&self) -> String {
        format!(
            "count={} mean={:.1} p50={} p90={} p99={} p999={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
            self.max,
        )
    }
}

/// The allocation-size histogram fed by [`crate::alloc::CountingAlloc`].
/// Tagged like a timing histogram: sample counts vary with thread count
/// and feature set, so byte-identity guards must skip it. Registered
/// lazily from safe paths ([`Hist::register`]) — never by the allocator
/// hook itself.
pub(crate) fn alloc_size_hist() -> &'static Hist {
    static H: Hist = Hist::new("alloc.size_bytes", true);
    &H
}

/// All registered histograms merged per name, sorted by name.
/// Value-domain and timing histograms sharing a name is a naming bug;
/// the merge keeps the `timing` flag of the first registrant.
#[must_use]
pub(crate) fn hist_values() -> Vec<HistData> {
    let mut map: std::collections::BTreeMap<&'static str, HistData> =
        std::collections::BTreeMap::new();
    for h in lock().iter() {
        let d = h.data();
        match map.entry(h.name) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(d);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&d),
        }
    }
    map.into_values().collect()
}

/// Zeroes every registered histogram (registration survives).
pub(crate) fn zero_all() {
    for h in lock().iter() {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Declares (once, statically, at the call site) and yields a
/// `&'static Hist` recording value-domain samples (deterministic under
/// any thread count):
///
/// ```
/// ort_telemetry::hist!("verify.hops").record(3);
/// ```
#[macro_export]
macro_rules! hist {
    ($name:expr) => {{
        static HIST: $crate::hist::Hist = $crate::hist::Hist::new($name, false);
        &HIST
    }};
}

/// As [`hist!`](macro@crate::hist), but tagged as a *timing* histogram: samples are
/// wall-clock durations, so the buckets are non-deterministic and every
/// byte-identity guard skips them.
#[macro_export]
macro_rules! timing_hist {
    ($name:expr) => {{
        static HIST: $crate::hist::Hist = $crate::hist::Hist::new($name, true);
        &HIST
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_tight() {
        // Exact below the linear cutoff.
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
        // Every bucket's bounds contain exactly the values that map to it.
        let mut last = 0usize;
        for v in [32u64, 33, 47, 48, 63, 64, 1000, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last, "bucket index not monotone at {v}");
            last = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} outside [{lo},{hi}] of bucket {i}");
            // Relative width ≤ 1/16 above the linear region.
            assert!(hi - lo < lo.max(1) / SUB_BUCKETS as u64 + 1);
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn local_merge_matches_direct_records() {
        if !crate::enabled() {
            return;
        }
        // Two local histograms merged in either order produce identical
        // data — the determinism claim in miniature.
        let mut a = LocalHist::new();
        let mut b = LocalHist::new();
        for v in [1u64, 5, 5, 700, 65_536] {
            a.record(v);
        }
        for v in [2u64, 700, 9_999_999] {
            b.record(v);
        }
        let mut ab = a.data("x");
        ab.merge(&b.data("x"));
        let mut ba = b.data("x");
        ba.merge(&a.data("x"));
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 8);
        assert_eq!(ab.max, 9_999_999);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let mut h = LocalHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let d = h.data("q");
        // Exact in the linear region; within one bucket (≤6.25%) above.
        assert_eq!(d.quantile(0.01), 10);
        for (q, exact) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let got = d.quantile(q);
            assert!(got >= exact, "p{q} = {got} under exact {exact}");
            assert!(got <= exact + exact / 16 + 1, "p{q} = {got} too far above {exact}");
        }
        assert_eq!(d.quantile(1.0), 1000);
        assert_eq!(d.max, 1000);
        let line = d.percentile_line();
        assert!(line.starts_with("count=1000 mean=500.5 p50="), "{line}");
    }

    #[test]
    fn global_hist_registers_and_resets() {
        if !crate::enabled() {
            hist!("test.hist.gated").record(1);
            assert!(hist_values().iter().all(|d| d.name != "test.hist.gated"));
            return;
        }
        hist!("test.hist.shared").record(4);
        hist!("test.hist.shared").record_n(4, 2);
        let mut local = LocalHist::new();
        local.record(100);
        local.merge_into(hist!("test.hist.shared"));
        let all = hist_values();
        let d = all.iter().find(|d| d.name == "test.hist.shared").expect("registered");
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 112);
        assert_eq!(d.max, 100);
        assert!(!d.timing);
        crate::reset();
        let all = hist_values();
        let d = all.iter().find(|d| d.name == "test.hist.shared").expect("still registered");
        assert_eq!(d.count, 0);
        assert!(d.buckets.is_empty());
    }

    #[test]
    fn timing_hists_are_tagged() {
        if !crate::enabled() {
            return;
        }
        timing_hist!("test.hist.timing_tagged").record(123);
        let all = hist_values();
        let d = all.iter().find(|d| d.name == "test.hist.timing_tagged").expect("registered");
        assert!(d.timing);
    }
}
