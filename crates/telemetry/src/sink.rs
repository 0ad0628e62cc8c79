//! Sinks: rendering a telemetry [`Snapshot`] for humans and tools.
//!
//! Three formats, selected at runtime through `ORT_TELEMETRY` (see
//! [`crate::flush`]):
//!
//! * **summary** — an indented span tree (calls × total wall time per
//!   path) followed by counter and gauge tables;
//! * **jsonl** — one self-contained JSON object per span record (in
//!   completion order), then per counter and gauge; round-trips through
//!   [`parse_jsonl`];
//! * **folded** — `outer;inner <ns>` lines, aggregated per path and
//!   sorted, directly consumable by standard flamegraph tooling.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::HistData;
use crate::json::Json;
use crate::span::{FieldValue, SpanRecord};

/// Per-path aggregate used while building the summary tree:
/// `(calls, total ns, fields from the first record)`.
type PathAggregate = (u64, u64, Vec<(&'static str, FieldValue)>);

/// A point-in-time copy of all recorded telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counter totals, summed per name, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histograms, merged per name, sorted by name.
    pub hists: Vec<HistData>,
}

impl Snapshot {
    /// Captures the current global state (see [`crate::snapshot`]).
    #[must_use]
    pub fn capture() -> Snapshot {
        crate::snapshot()
    }

    /// The value of the named counter (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }

    /// The value of the named gauge (0 if never touched).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }

    /// The named histogram, if any samples were recorded.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&HistData> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Every distinct span path, in first-completion order.
    #[must_use]
    pub fn span_paths(&self) -> Vec<Vec<&'static str>> {
        let mut seen = Vec::new();
        for r in &self.spans {
            if !seen.contains(&r.path) {
                seen.push(r.path.clone());
            }
        }
        seen
    }

    /// `(calls, total ns)` for every record whose span *name* (path leaf)
    /// is `leaf`.
    #[must_use]
    pub fn span_totals(&self, leaf: &str) -> (u64, u64) {
        let mut calls = 0;
        let mut ns = 0;
        for r in &self.spans {
            if r.path.last() == Some(&leaf) {
                calls += 1;
                ns += r.ns;
            }
        }
        (calls, ns)
    }

    /// The human-readable summary: span tree, counters, gauges.
    #[must_use]
    pub fn summary_tree(&self) -> String {
        let mut out = String::new();
        out.push_str("── telemetry summary ──\n");
        if self.spans.is_empty() {
            out.push_str("(no spans recorded)\n");
        } else {
            // Aggregate per full path. Rendering order is the
            // lexicographic path order the BTreeMap already holds: a
            // parent path is a strict prefix of its children, so it
            // sorts immediately before them, and the whole tree is
            // independent of completion order — two runs of the same
            // workload produce diffable summaries even when thread
            // interleaving reorders span closes.
            let mut agg: BTreeMap<Vec<&'static str>, PathAggregate> = BTreeMap::new();
            for r in &self.spans {
                let e = agg.entry(r.path.clone()).or_insert_with(|| (0, 0, r.fields.clone()));
                e.0 += 1;
                e.1 += r.ns;
            }
            for p in agg.keys().cloned().collect::<Vec<_>>() {
                let (calls, ns, fields) = &agg[&p];
                let indent = "  ".repeat(p.len() - 1);
                let name = p.last().expect("paths are non-empty");
                let mut line = format!(
                    "{indent}{name:<width$} {calls:>6} call{s} {ms:>12.3} ms",
                    width = 40usize.saturating_sub(indent.len()),
                    s = if *calls == 1 { " " } else { "s" },
                    ms = *ns as f64 / 1e6,
                );
                if !fields.is_empty() {
                    let rendered: Vec<String> = fields
                        .iter()
                        .map(|(k, v)| match v {
                            FieldValue::Int(i) => format!("{k}={i}"),
                            FieldValue::Str(s) => format!("{k}={s}"),
                        })
                        .collect();
                    let _ = write!(line, "  [{}]", rendered.join(", "));
                }
                out.push_str(&line);
                out.push('\n');
            }
        }
        if !self.counters.is_empty() {
            out.push_str("── counters ──\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<42} {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("── gauges ──\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{name:<42} {v:>14}");
            }
        }
        if !self.hists.is_empty() {
            out.push_str("── histograms ──\n");
            for h in &self.hists {
                let tag = if h.timing { " (timing)" } else { "" };
                let _ = writeln!(out, "{:<33}{tag} {}", h.name, h.percentile_line());
            }
        }
        out
    }

    /// Flamegraph-compatible folded stacks: `a;b;c <ns>` per distinct
    /// path, summed and sorted lexicographically.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for r in &self.spans {
            *agg.entry(r.path.join(";")).or_insert(0) += r.ns;
        }
        let mut out = String::new();
        for (path, ns) in agg {
            let _ = writeln!(out, "{path} {ns}");
        }
        out
    }

    /// The JSONL event stream: one object per span record (completion
    /// order), then one per counter and gauge (name order).
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.spans {
            out.push_str("{\"type\":\"span\",\"path\":[");
            for (i, seg) in r.path.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(&mut out, seg);
            }
            let _ = write!(
                out,
                "],\"ns\":{},\"start\":{},\"end\":{},\"thread\":{},\"fields\":{{",
                r.ns, r.start, r.end, r.thread
            );
            for (i, (k, v)) in r.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(&mut out, k);
                out.push(':');
                match v {
                    FieldValue::Int(x) => {
                        let _ = write!(out, "{x}");
                    }
                    FieldValue::Str(s) => write_json_str(&mut out, s),
                }
            }
            out.push_str("}}\n");
        }
        for (name, v) in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            write_json_str(&mut out, name);
            let _ = writeln!(out, ",\"value\":{v}}}");
        }
        for (name, v) in &self.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            write_json_str(&mut out, name);
            let _ = writeln!(out, ",\"value\":{v}}}");
        }
        for h in &self.hists {
            out.push_str("{\"type\":\"hist\",\"name\":");
            write_json_str(&mut out, &h.name);
            let _ = write!(
                out,
                ",\"timing\":{},\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                h.timing, h.count, h.sum, h.max
            );
            for (i, (bucket, c)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{bucket},{c}]");
            }
            out.push_str("]}\n");
        }
        out
    }

    /// The owned-string mirror of this snapshot, for comparing against a
    /// [`parse_jsonl`] round trip.
    #[must_use]
    pub fn to_parsed(&self) -> ParsedSnapshot {
        ParsedSnapshot {
            spans: self
                .spans
                .iter()
                .map(|r| ParsedSpan {
                    path: r.path.iter().map(|s| (*s).to_string()).collect(),
                    ns: r.ns,
                    start: r.start,
                    end: r.end,
                    thread: r.thread,
                    fields: r
                        .fields
                        .iter()
                        .map(|(k, v)| {
                            ((*k).to_string(), match v {
                                FieldValue::Int(x) => ParsedField::Int(*x),
                                FieldValue::Str(s) => ParsedField::Str((*s).to_string()),
                            })
                        })
                        .collect(),
                })
                .collect(),
            counters: self.counters.iter().map(|(n, v)| ((*n).to_string(), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| ((*n).to_string(), *v)).collect(),
            hists: self.hists.clone(),
        }
    }
}

/// A span event read back from a JSONL stream (owned strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSpan {
    /// Span path, outermost first.
    pub path: Vec<String>,
    /// Elapsed nanoseconds.
    pub ns: u64,
    /// Open time (ns on the process anchor clock).
    pub start: u64,
    /// Close time; [`parse_jsonl`] rejects records where it precedes
    /// `start`.
    pub end: u64,
    /// Recording thread id.
    pub thread: u64,
    /// Typed metadata fields.
    pub fields: Vec<(String, ParsedField)>,
}

/// A field value read back from a JSONL stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedField {
    /// An unsigned integer field.
    Int(u64),
    /// A string field.
    Str(String),
}

/// A full telemetry stream read back from JSONL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedSnapshot {
    /// Span events, in stream order.
    pub spans: Vec<ParsedSpan>,
    /// Counter events, in stream order.
    pub counters: Vec<(String, u64)>,
    /// Gauge events, in stream order.
    pub gauges: Vec<(String, u64)>,
    /// Histogram events, in stream order.
    pub hists: Vec<HistData>,
}

/// Parses a JSONL stream produced by [`Snapshot::jsonl`].
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_jsonl(stream: &str) -> Result<ParsedSnapshot, String> {
    let mut out = ParsedSnapshot::default();
    for (lineno, line) in stream.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if !matches!(obj, Json::Obj(_)) {
            return Err(format!("line {}: not an object", lineno + 1));
        }
        let get_str = |key: &str| obj.get(key).and_then(Json::as_str).map(str::to_string);
        let get_num = |key: &str| obj.get(key).and_then(as_u64);
        let typ = get_str("type").ok_or_else(|| format!("line {}: no type", lineno + 1))?;
        match typ.as_str() {
            "span" => {
                let path = obj
                    .get("path")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("line {}: span without path", lineno + 1))?
                    .iter()
                    .map(|x| x.as_str().map(str::to_string).ok_or("non-string path segment"))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                let fields = match obj.get("fields") {
                    Some(Json::Obj(fs)) => fs
                        .iter()
                        .map(|(k, v)| {
                            let f = match v {
                                Json::Str(s) => ParsedField::Str(s.clone()),
                                v => ParsedField::Int(as_u64(v).unwrap_or(0)),
                            };
                            (k.clone(), f)
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                let start = get_num("start").unwrap_or(0);
                let end = get_num("end").unwrap_or(0);
                if end < start {
                    return Err(format!(
                        "line {}: span end {end} precedes start {start}",
                        lineno + 1
                    ));
                }
                out.spans.push(ParsedSpan {
                    path,
                    ns: get_num("ns").unwrap_or(0),
                    start,
                    end,
                    thread: get_num("thread").unwrap_or(0),
                    fields,
                });
            }
            "counter" | "gauge" => {
                let name = get_str("name")
                    .ok_or_else(|| format!("line {}: {typ} without name", lineno + 1))?;
                let value = get_num("value")
                    .ok_or_else(|| format!("line {}: {typ} without value", lineno + 1))?;
                if typ == "counter" {
                    out.counters.push((name, value));
                } else {
                    out.gauges.push((name, value));
                }
            }
            "hist" => {
                let name = get_str("name")
                    .ok_or_else(|| format!("line {}: hist without name", lineno + 1))?;
                let buckets = obj
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("line {}: hist without buckets", lineno + 1))?
                    .iter()
                    .map(|pair| match pair.as_arr() {
                        Some([i, c]) => as_u64(i)
                            .zip(as_u64(c))
                            .map(|(i, c)| (i as usize, c))
                            .ok_or_else(|| format!("line {}: malformed hist bucket", lineno + 1)),
                        _ => Err(format!("line {}: malformed hist bucket", lineno + 1)),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                out.hists.push(HistData {
                    name,
                    timing: matches!(obj.get("timing"), Some(Json::Bool(true))),
                    count: get_num("count").unwrap_or(0),
                    sum: get_num("sum").unwrap_or(0),
                    max: get_num("max").unwrap_or(0),
                    buckets,
                });
            }
            other => return Err(format!("line {}: unknown event type '{other}'", lineno + 1)),
        }
    }
    Ok(out)
}

fn write_json_str(out: &mut String, s: &str) {
    out.push_str(&Json::Str(s.to_string()).compact());
}

/// A non-negative integer field as the `u64` the emitter wrote.
fn as_u64(v: &Json) -> Option<u64> {
    v.as_i64().and_then(|i| u64::try_from(i).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            spans: vec![
                SpanRecord {
                    path: vec!["profile", "profile.build"],
                    ns: 1500,
                    start: 1000,
                    end: 2500,
                    thread: 0,
                    fields: vec![
                        ("n", FieldValue::Int(64)),
                        ("scheme", FieldValue::Str("theorem1")),
                    ],
                },
                SpanRecord {
                    path: vec!["profile"],
                    ns: 2500,
                    start: 500,
                    end: 3000,
                    thread: 0,
                    fields: vec![],
                },
            ],
            counters: vec![("apsp.sources", 64), ("verify.pairs", 4032)],
            gauges: vec![("simnet.max_queue", 7)],
            hists: vec![HistData {
                name: "verify.hops".to_string(),
                timing: false,
                count: 3,
                sum: 40,
                max: 34,
                buckets: vec![(2, 1), (4, 1), (33, 1)],
            }],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample();
        let parsed = parse_jsonl(&snap.jsonl()).expect("parse back");
        assert_eq!(parsed, snap.to_parsed());
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(parse_jsonl("{\"type\":\"span\"").is_err());
        assert!(parse_jsonl("{\"type\":\"mystery\",\"name\":\"x\",\"value\":1}").is_err());
        assert!(parse_jsonl("{\"type\":\"counter\",\"name\":\"x\"}").is_err());
        // Blank lines are fine.
        assert!(parse_jsonl("\n\n").unwrap().spans.is_empty());
    }

    #[test]
    fn jsonl_counters_round_trip_to_i64_max_and_name_larger_values() {
        let mut snap = sample();
        snap.counters = vec![("big", i64::MAX as u64)];
        assert_eq!(parse_jsonl(&snap.jsonl()).expect("i64::MAX fits"), snap.to_parsed());
        // One past i64::MAX cannot be held exactly by the shared JSON
        // integer, so the reader refuses it by name instead of rounding.
        snap.counters = vec![("big", i64::MAX as u64 + 1)];
        let err = parse_jsonl(&snap.jsonl()).expect_err("u64 above i64::MAX must not round");
        assert!(err.starts_with("line 3: integer 9223372036854775808 out of i64 range"), "{err}");
    }

    #[test]
    fn jsonl_rejects_span_end_before_start() {
        // A span cannot close before it opened; a stream claiming so is
        // corrupt and must be rejected, not silently accepted.
        let bad = "{\"type\":\"span\",\"path\":[\"x\"],\"ns\":5,\"start\":100,\"end\":95,\
                   \"thread\":0,\"fields\":{}}";
        let err = parse_jsonl(bad).expect_err("end < start must be rejected");
        assert!(err.contains("precedes"), "unexpected error: {err}");
        // The boundary case end == start (an empty span) is legal…
        let zero = bad.replace("\"end\":95", "\"end\":100");
        assert!(parse_jsonl(&zero).is_ok());
        // …and records from streams predating start/end default to 0/0.
        let legacy = "{\"type\":\"span\",\"path\":[\"x\"],\"ns\":5,\"thread\":0,\"fields\":{}}";
        assert!(parse_jsonl(legacy).is_ok());
    }

    #[test]
    fn summary_tree_shape() {
        let s = sample().summary_tree();
        // Child indented under parent, with counts, times and fields.
        assert!(s.contains("profile "), "{s}");
        assert!(s.contains("  profile.build"), "{s}");
        assert!(s.contains("[n=64, scheme=theorem1]"), "{s}");
        assert!(s.contains("apsp.sources"), "{s}");
        assert!(s.contains("simnet.max_queue"), "{s}");
        assert!(s.contains("── histograms ──"), "{s}");
        assert!(s.contains("verify.hops"), "{s}");
        assert!(s.contains("p50="), "{s}");
    }

    #[test]
    fn summary_tree_is_completion_order_invariant() {
        // The tree is keyed lexicographically, so reordering span
        // completions (as thread interleaving does) must not move a
        // single line: summaries are diffable across runs.
        let snap = sample();
        let mut reversed = snap.clone();
        reversed.spans.reverse();
        assert_eq!(snap.summary_tree(), reversed.summary_tree());
    }

    #[test]
    fn folded_aggregates_and_sorts() {
        let mut snap = sample();
        snap.spans.push(SpanRecord {
            path: vec!["profile", "profile.build"],
            ns: 500,
            start: 3000,
            end: 3500,
            thread: 1,
            fields: vec![],
        });
        let folded = snap.folded();
        assert_eq!(folded, "profile 2500\nprofile;profile.build 2000\n");
    }

    #[test]
    fn accessors() {
        let snap = sample();
        assert_eq!(snap.counter("apsp.sources"), 64);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("simnet.max_queue"), 7);
        assert_eq!(snap.span_totals("profile.build"), (1, 1500));
        assert_eq!(snap.span_paths().len(), 2);
    }
}
