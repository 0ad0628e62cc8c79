//! Typed counters: process-global named atomics.
//!
//! A [`Counter`] is created per call site by the [`counter!`](macro@crate::counter) macro as a
//! `static`, registered in a global list on first use, and bumped with
//! relaxed atomic adds — increments commute, so totals are deterministic
//! under any thread count. Two call sites may share a name; snapshots sum
//! per name. A high-water mark is a histogram ([`crate::hist!`]): its
//! `max` is the mark, and the distribution comes with it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing named counter. Create via [`counter!`](macro@crate::counter).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

fn lock() -> std::sync::MutexGuard<'static, Vec<&'static Counter>> {
    COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Counter {
    /// Creates an unregistered counter (registration happens on first
    /// [`Counter::add`]). `const` so the [`counter!`](macro@crate::counter) macro can place it
    /// in a `static`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Adds `delta`. No-op when the `enabled` feature is off.
    pub fn add(&'static self, delta: u64) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock().push(self);
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value of this call site's counter (a snapshot sums all
    /// call sites sharing the name).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Declares (once, statically, at the call site) and yields a
/// `&'static Counter`:
///
/// ```
/// ort_telemetry::counter!("apsp.sources").add(64);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static COUNTER: $crate::counter::Counter = $crate::counter::Counter::new($name);
        &COUNTER
    }};
}

/// All counter values summed per name, sorted by name.
#[must_use]
pub(crate) fn counter_values() -> Vec<(&'static str, u64)> {
    let mut map: std::collections::BTreeMap<&'static str, u64> = std::collections::BTreeMap::new();
    for c in lock().iter() {
        *map.entry(c.name).or_insert(0) += c.get();
    }
    map.into_iter().collect()
}

/// Zeroes every registered counter (registration survives).
pub(crate) fn zero_all() {
    for c in lock().iter() {
        c.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn counters_sum_per_name_and_reset() {
        // Two distinct call sites sharing one (test-unique) name.
        counter!("test.counter.shared").add(3);
        counter!("test.counter.shared").add(4);
        crate::hist!("test.hist.hwm").record(5);
        crate::hist!("test.hist.hwm").record(2);
        let snap = crate::snapshot();
        if !crate::enabled() {
            assert!(snap.counters.is_empty());
            return;
        }
        assert_eq!(snap.counter("test.counter.shared"), 7);
        assert_eq!(snap.hist("test.hist.hwm").map(|h| h.max), Some(5));
        crate::reset();
        assert_eq!(crate::snapshot().counter("test.counter.shared"), 0);
    }

    #[test]
    fn unused_counter_reads_zero() {
        assert_eq!(crate::snapshot().counter("test.counter.never-touched"), 0);
    }
}
