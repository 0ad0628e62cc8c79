//! Zero-dependency telemetry for the optimal-routing-tables workspace.
//!
//! The paper's entire contribution is an *accounting* — Θ(n²) vs
//! O(n log² n) table bits (Table 1) — and the workspace's perf work
//! (parallel APSP, conformance, resilience sweeps) is only trustworthy if
//! wall-clock and bit totals are observable. This crate is that layer:
//!
//! * **Spans** ([`span`](fn@span) / [`span_with`]) — hierarchical, monotonic-clock
//!   timed regions kept on a thread-local stack. A [`Context`] captured
//!   before `std::thread::scope` and entered inside each worker makes
//!   spans nest correctly across threads.
//! * **Counters** ([`counter!`]) — typed, named, process-global atomics
//!   for hot-path events (frontier expansions, oracle reuse, simulator
//!   hops…). Increments commute, so sums are deterministic under any
//!   `ORT_THREADS`.
//! * **Histograms** ([`hist!`] / [`timing_hist!`]) — log-bucketed
//!   distributions with exact count, sum and max; a high-water mark is a
//!   histogram's `max`.
//! * **Sinks** ([`sink`]) — a human-readable span tree, a JSONL event
//!   stream, and a flamegraph-compatible folded-stacks dump, selected at
//!   runtime by the `ORT_TELEMETRY` env var (see [`flush`]).
//! * **Traces** ([`trace`]) — per-message hop-event capture: an installed
//!   [`trace::TraceRecorder`] collects every routing decision of selected
//!   `(src, dst)` walks with deterministic ids, feeding `ort trace` and
//!   the resilience diagnostics.
//! * **Measured memory** ([`alloc`]) — an instrumented
//!   `#[global_allocator]` wrapper (the `alloc` feature, forwarded by the
//!   root crate as `alloc-telemetry`) maintaining exact live/peak byte
//!   counters, [`alloc::MemSpan`] attribution regions, and an
//!   allocation-size distribution — the measured side of every analytic
//!   `peak_bytes` claim.
//! * **JSON** ([`json`]) — the workspace's one JSON value type and
//!   parser, shared by the JSONL sink, the flight recorder's dumps, every
//!   results file and `ort report`.
//!
//! # Determinism contract
//!
//! The global registry is strictly **append-only while a workload runs**:
//! probes only ever push records or bump atomics, never read telemetry
//! state back into the computation. Instrumented runs therefore produce
//! byte-identical `results/*.json` outputs with telemetry enabled or
//! disabled, and under any worker-thread count — the determinism matrix
//! in CI checks exactly this. [`reset`] (an explicit, test/CLI-only
//! operation) is the only way state is ever cleared.
//!
//! # Feature gate
//!
//! All recording sits behind the `enabled` feature. Workspace crates
//! depend on this crate with default features off and declare no feature
//! of their own: the root crate's default-on `telemetry` feature turns
//! `enabled` on for all of them at once. With the feature off,
//! [`enabled`] is `false` and every probe body is `cfg!`-folded to a
//! no-op; the types and sinks still compile so call sites need no
//! `#[cfg]`.
//!
//! # Example
//!
//! ```
//! use ort_telemetry as telemetry;
//!
//! telemetry::reset();
//! {
//!     let _outer = telemetry::span("work");
//!     let _inner = telemetry::span_with("work.step", &[("n", telemetry::FieldValue::Int(64))]);
//!     telemetry::counter!("steps").incr();
//! }
//! let snap = telemetry::snapshot();
//! if telemetry::enabled() {
//!     assert_eq!(snap.counter("steps"), 1);
//!     assert!(snap.span_paths().iter().any(|p| p == &vec!["work", "work.step"]));
//! }
//! ```

// `deny`, not `forbid`: the `alloc` module implements `GlobalAlloc`,
// which is an inherently unsafe trait, under a scoped `#[allow]` with a
// documented safety argument. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod counter;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod sink;
pub mod span;
pub mod trace;

pub use alloc::{mem_span, MemSpan, MemSpanRecord};
pub use counter::Counter;
pub use hist::{Hist, HistData, LocalHist};
pub use sink::Snapshot;
pub use span::{span, span_with, Context, ContextGuard, FieldValue, SpanGuard, SpanRecord};
pub use trace::{
    AttemptTrace, HopEvent, HopKind, MessageTrace, TraceFault, TraceRecorder, WalkTracer,
};

/// Whether telemetry recording is compiled in (the `enabled` feature).
/// Constant per build; probes branch on it and the disabled branch folds
/// away entirely.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Clears all span records, zeroes every counter and histogram,
/// and empties the flight-recorder ring. Explicit and test/CLI-only:
/// workloads themselves never clear telemetry state (the registry is
/// append-only while they run).
pub fn reset() {
    span::clear_records();
    counter::zero_all();
    hist::zero_all();
    recorder::clear();
    alloc::reset_run();
}

/// Captures the current telemetry state: all completed span records (in
/// completion order), all counter values (summed per name, sorted by
/// name), and all histograms (merged per name, sorted by name).
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        spans: span::records(),
        counters: counter::counter_values(),
        hists: hist::hist_values(),
    }
}

/// The sink selection parsed from `ORT_TELEMETRY`.
///
/// The variable holds a comma-separated list of sinks:
///
/// * `summary` — human-readable span tree + counter table on stderr;
/// * `jsonl:<path>` — one JSON object per span record / counter /
///   histogram;
/// * `folded:<path>` — flamegraph-compatible folded stacks
///   (`a;b;c <ns>` lines);
/// * `postmortem:<path>` — flight-recorder dumps appended on anomaly
///   triggers (written by [`recorder::anomaly`], not by [`flush`]).
///
/// Unset, empty, or `off` means no sink; unknown entries are reported on
/// stderr and skipped.
#[must_use]
pub fn configured_sinks() -> Vec<String> {
    match std::env::var("ORT_TELEMETRY") {
        Ok(v) if !v.is_empty() && v != "off" => {
            v.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
        }
        _ => Vec::new(),
    }
}

/// Emits the current snapshot to every sink configured in
/// `ORT_TELEMETRY`. Write failures are reported on stderr, never fatal
/// (telemetry must not change a run's outcome).
pub fn flush() {
    if !enabled() {
        return;
    }
    let sinks = configured_sinks();
    if sinks.is_empty() {
        return;
    }
    let snap = snapshot();
    for s in sinks {
        if s == "summary" {
            eprint!("{}", snap.summary_tree());
        } else if let Some(path) = s.strip_prefix("jsonl:") {
            if let Err(e) = std::fs::write(path, snap.jsonl()) {
                eprintln!("telemetry: cannot write jsonl sink {path}: {e}");
            }
        } else if let Some(path) = s.strip_prefix("folded:") {
            if let Err(e) = std::fs::write(path, snap.folded()) {
                eprintln!("telemetry: cannot write folded sink {path}: {e}");
            }
        } else if s.starts_with("postmortem:") {
            // Event-driven, not flush-driven: recorder::anomaly writes it.
        } else {
            eprintln!("telemetry: unknown ORT_TELEMETRY sink '{s}' (expected summary, jsonl:<path>, folded:<path>, postmortem:<path>)");
        }
    }
}

#[cfg(test)]
mod tests {
    // The crate's behavioural tests live in the sibling modules; here we
    // only pin the top-level plumbing that needs the whole crate.
    use super::*;

    #[test]
    fn sink_spec_parsing() {
        // configured_sinks reads the environment; exercise the parse via a
        // scoped set/remove. Tests in this crate run in one process, so
        // keep the variable name unique to this test.
        std::env::set_var("ORT_TELEMETRY", "summary, jsonl:/tmp/t.jsonl ,,folded:/tmp/t.folded");
        let sinks = configured_sinks();
        std::env::remove_var("ORT_TELEMETRY");
        assert_eq!(sinks, vec!["summary", "jsonl:/tmp/t.jsonl", "folded:/tmp/t.folded"]);
        assert!(configured_sinks().is_empty());
        std::env::set_var("ORT_TELEMETRY", "off");
        assert!(configured_sinks().is_empty());
        std::env::remove_var("ORT_TELEMETRY");
    }

    #[test]
    fn enabled_matches_feature() {
        assert_eq!(enabled(), cfg!(feature = "enabled"));
    }
}
