//! The flight recorder: a bounded ring of recent events, dumped on
//! anomalies.
//!
//! Counters tell you *how much*; spans tell you *how long*; neither
//! tells you *what happened right before it went wrong*. The recorder
//! keeps the last [`CAPACITY`] events — span closes, explicit
//! breadcrumb notes, and anomalies — in a fixed, pre-allocated ring:
//! appends are O(1), allocation-free in steady state (the buffer is
//! grown once, on first use), and globally sequence-numbered so a dump
//! reads in exact causal order even after wrap-around.
//!
//! Anomaly triggers ([`anomaly`]) — scheme refusals, stretch-cap
//! breaches, hop-limit deaths, `ort report` failures, the panic hook —
//! write a JSONL post-mortem through the `postmortem:<path>` entry of
//! the standard `ORT_TELEMETRY` sink list (see
//! [`crate::configured_sinks`]); with no such sink configured the
//! anomaly is still recorded in the ring but nothing is written, so
//! routine refusals inside sweeps stay silent. Dumps *append*, each as
//! a self-contained block headed by a `postmortem` line, because one
//! run can trip several triggers.
//!
//! Event payloads are two bare `u64`s plus `&'static str` labels —
//! nothing owned, nothing allocated per event. Timestamps (`ns`, on the
//! span anchor clock) and thread ids are wall-clock artifacts; the
//! determinism test compares dumps with those fields masked.

use std::sync::Mutex;

/// Ring capacity: events retained at any moment.
pub const CAPACITY: usize = 1024;

/// What an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span closed; `a` = nesting depth, `b` = elapsed ns.
    Span,
    /// An explicit breadcrumb; `a`/`b` are caller-defined.
    Note,
    /// An anomaly trigger; `a`/`b` are caller-defined.
    Anomaly,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Note => "note",
            EventKind::Anomaly => "anomaly",
        }
    }
}

/// One recorder event. `Copy` — appending never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (monotone across wrap-around).
    pub seq: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Static label: span leaf name, breadcrumb tag, or anomaly kind.
    pub label: &'static str,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
    /// Timestamp in ns on the span anchor clock (wall-clock artifact —
    /// masked in determinism comparisons).
    pub ns: u64,
}

struct Ring {
    buf: Vec<Event>,
    /// Next write position (buf.len() < CAPACITY means no wrap yet).
    head: usize,
    seq: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring { buf: Vec::new(), head: 0, seq: 0 });

fn lock() -> std::sync::MutexGuard<'static, Ring> {
    RING.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn push(kind: EventKind, label: &'static str, a: u64, b: u64) {
    if !crate::enabled() {
        return;
    }
    let ns = crate::span::now_ns();
    let mut r = lock();
    let seq = r.seq;
    r.seq += 1;
    let ev = Event { seq, kind, label, a, b, ns };
    if r.buf.len() < CAPACITY {
        // Growth phase: at most CAPACITY pushes ever allocate.
        if r.buf.capacity() == 0 {
            r.buf.reserve_exact(CAPACITY);
        }
        r.buf.push(ev);
    } else {
        let head = r.head;
        r.buf[head] = ev;
    }
    r.head = (r.head + 1) % CAPACITY;
}

/// Records a span close (called from the span guard's drop).
pub(crate) fn record_span(leaf: &'static str, depth: u64, elapsed_ns: u64) {
    push(EventKind::Span, leaf, depth, elapsed_ns);
}

/// Drops a breadcrumb into the ring: a cheap, static-labelled marker
/// for "the run was here" context around future anomalies.
pub fn note(label: &'static str, a: u64, b: u64) {
    push(EventKind::Note, label, a, b);
}

/// Records an anomaly and, if a `postmortem:<path>` sink is configured
/// in `ORT_TELEMETRY`, appends a post-mortem dump there. Write failures
/// are reported on stderr, never fatal.
pub fn anomaly(kind: &'static str, a: u64, b: u64) {
    push(EventKind::Anomaly, kind, a, b);
    if !crate::enabled() {
        return;
    }
    for s in crate::configured_sinks() {
        if let Some(path) = s.strip_prefix("postmortem:") {
            if let Err(e) = append_dump(path, kind) {
                eprintln!("telemetry: cannot write postmortem sink {path}: {e}");
            }
        }
    }
}

fn append_dump(path: &str, trigger: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(dump_string(trigger).as_bytes())
}

/// The events currently in the ring, oldest first.
#[must_use]
pub fn events() -> Vec<Event> {
    let r = lock();
    let mut out = Vec::with_capacity(r.buf.len());
    if r.buf.len() < CAPACITY {
        out.extend_from_slice(&r.buf);
    } else {
        out.extend_from_slice(&r.buf[r.head..]);
        out.extend_from_slice(&r.buf[..r.head]);
    }
    out
}

/// Renders the post-mortem block for `trigger`: one `postmortem` header
/// line, one line per ring event (oldest first), then the current
/// counter values (the ring holds no per-increment counter events —
/// counters are summarized at dump time instead, which costs the hot
/// paths nothing).
#[must_use]
pub fn dump_string(trigger: &str) -> String {
    use std::fmt::Write as _;
    let evs = events();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"postmortem\",\"trigger\":{},\"events\":{}}}",
        json_str(trigger),
        evs.len()
    );
    for e in &evs {
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",\"seq\":{},\"kind\":\"{}\",\"label\":{},\"a\":{},\"b\":{},\"ns\":{}}}",
            e.seq,
            e.kind.as_str(),
            json_str(e.label),
            e.a,
            e.b,
            e.ns
        );
    }
    for (name, v) in crate::counter::counter_values() {
        let _ = writeln!(out, "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}", json_str(name));
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Clears the ring (registration-free; the buffer stays allocated).
/// Called from [`crate::reset`].
pub(crate) fn clear() {
    let mut r = lock();
    r.buf.clear();
    r.head = 0;
    r.seq = 0;
}

/// Installs a panic hook that dumps the ring to stderr (and to the
/// `postmortem:` sink, if configured) before the default hook runs —
/// the last [`CAPACITY`] events of a crashed run survive it. Install
/// once, from the CLI entry point.
pub fn install_panic_hook() {
    if !crate::enabled() {
        return;
    }
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        // Record the anomaly (and hit the postmortem sink) first, then
        // mirror the dump to stderr so it survives even with no sinks.
        anomaly("panic", 0, 0);
        eprint!("{}", dump_string("panic"));
        default(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    // Recorder tests mutate the global ring; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn ring_wraps_and_keeps_sequence() {
        let _g = test_guard();
        clear();
        if !crate::enabled() {
            note("gated", 1, 2);
            assert!(events().is_empty());
            return;
        }
        for i in 0..(CAPACITY as u64 + 10) {
            note("tick", i, 0);
        }
        let evs = events();
        assert_eq!(evs.len(), CAPACITY);
        // Oldest surviving event is #10; order is strictly sequential.
        assert_eq!(evs[0].seq, 10);
        for w in evs.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert_eq!(evs.last().unwrap().a, CAPACITY as u64 + 9);
    }

    #[test]
    fn span_closes_reach_the_ring() {
        let _g = test_guard();
        clear();
        {
            let _a = crate::span("recorder_outer");
            let _b = crate::span("recorder_inner");
        }
        if !crate::enabled() {
            return;
        }
        let evs = events();
        let spans: Vec<_> = evs.iter().filter(|e| e.kind == EventKind::Span).collect();
        assert!(spans.iter().any(|e| e.label == "recorder_inner" && e.a == 2));
        assert!(spans.iter().any(|e| e.label == "recorder_outer" && e.a == 1));
    }

    #[test]
    fn dump_names_the_trigger_and_masks_cleanly() {
        let _g = test_guard();
        clear();
        if !crate::enabled() {
            return;
        }
        note("breadcrumb", 7, 8);
        anomaly("test_trigger", 42, 0);
        let dump = dump_string("test_trigger");
        let mut lines = dump.lines();
        let header = lines.next().expect("header");
        assert!(header.contains("\"type\":\"postmortem\""), "{header}");
        assert!(header.contains("\"trigger\":\"test_trigger\""), "{header}");
        assert!(dump.contains("\"kind\":\"note\",\"label\":\"breadcrumb\",\"a\":7,\"b\":8"));
        assert!(dump.contains("\"kind\":\"anomaly\",\"label\":\"test_trigger\",\"a\":42"));
        // Every event line is masked to a deterministic projection by
        // dropping the ns field — the exact rule the dump-determinism
        // test uses.
        for line in dump.lines().filter(|l| l.contains("\"type\":\"event\"")) {
            assert!(line.contains(",\"ns\":"), "{line}");
        }
    }
}
