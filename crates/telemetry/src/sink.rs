//! Sinks: rendering a telemetry [`Snapshot`] for humans and tools.
//!
//! Three formats, selected at runtime through `ORT_TELEMETRY` (see
//! [`crate::flush`]):
//!
//! * **summary** — an indented span tree (calls × total wall time per
//!   path) followed by counter and histogram tables;
//! * **jsonl** — one self-contained JSON object per span record (in
//!   completion order), then per counter and histogram; each line is a
//!   [`Json`] document that [`Json::parse`] reads back;
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

    /// The human-readable summary: span tree, counters, histograms.
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
    /// order), then one per counter and per histogram (name order). Every
    /// line is a [`Json`] document printed by [`Json::compact`], so
    /// [`Json::parse`] reads each one back.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let spans = self.spans.iter().map(span_line);
        let counters = self.counters.iter().map(|&(name, v)| counter_line(name, v));
        let hists = self.hists.iter().map(hist_line);
        jsonl_of(spans.chain(counters).chain(hists))
    }
}

/// A JSONL stream: each line one compact [`Json`] document, then `\n`.
pub(crate) fn jsonl_of(lines: impl Iterator<Item = Json>) -> String {
    lines.map(|line| line.compact() + "\n").collect()
}

fn span_line(r: &SpanRecord) -> Json {
    let fields = r
        .fields
        .iter()
        .map(|&(k, v)| {
            let v = match v {
                FieldValue::Int(x) => Json::uint(x),
                FieldValue::Str(s) => Json::Str(s.to_string()),
            };
            (k.to_string(), v)
        })
        .collect();
    Json::obj(vec![
        ("type", Json::Str("span".into())),
        ("path", Json::Arr(r.path.iter().map(|seg| Json::Str((*seg).to_string())).collect())),
        ("ns", Json::uint(r.ns)),
        ("start", Json::uint(r.start)),
        ("end", Json::uint(r.end)),
        ("thread", Json::uint(r.thread)),
        ("fields", Json::Obj(fields)),
    ])
}

/// The `{"type":"counter","name":…,"value":…}` line, shared by the JSONL
/// sink and the flight recorder's dumps.
pub(crate) fn counter_line(name: &str, value: u64) -> Json {
    Json::obj(vec![
        ("type", Json::Str("counter".into())),
        ("name", Json::Str(name.to_string())),
        ("value", Json::uint(value)),
    ])
}

fn hist_line(h: &HistData) -> Json {
    let mut line = vec![
        ("type", Json::Str("hist".into())),
        ("name", Json::Str(h.name.clone())),
        ("timing", Json::Bool(h.timing)),
    ];
    line.extend(h.json_fields());
    Json::obj(line)
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
            hists: vec![
                HistData {
                    name: "simnet.max_queue".to_string(),
                    timing: false,
                    count: 1,
                    sum: 7,
                    max: 7,
                    buckets: vec![(7, 1)],
                },
                HistData {
                    name: "verify.hops".to_string(),
                    timing: false,
                    count: 3,
                    sum: 40,
                    max: 34,
                    buckets: vec![(2, 1), (4, 1), (33, 1)],
                },
            ],
        }
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        // The stream's exact bytes: tools read these lines, so a change to
        // the writer may not move one.
        let want = concat!(
            r#"{"type":"span","path":["profile","profile.build"],"ns":1500,"start":1000,"end":2500,"thread":0,"fields":{"n":64,"scheme":"theorem1"}}"#,
            "\n",
            r#"{"type":"span","path":["profile"],"ns":2500,"start":500,"end":3000,"thread":0,"fields":{}}"#,
            "\n",
            r#"{"type":"counter","name":"apsp.sources","value":64}"#,
            "\n",
            r#"{"type":"counter","name":"verify.pairs","value":4032}"#,
            "\n",
            r#"{"type":"hist","name":"simnet.max_queue","timing":false,"count":1,"sum":7,"max":7,"buckets":[[7,1]]}"#,
            "\n",
            r#"{"type":"hist","name":"verify.hops","timing":false,"count":3,"sum":40,"max":34,"buckets":[[2,1],[4,1],[33,1]]}"#,
            "\n",
        );
        assert_eq!(sample().jsonl(), want);
    }

    #[test]
    fn jsonl_round_trips() {
        let stream = sample().jsonl();
        let lines: Vec<Json> =
            stream.lines().map(|l| Json::parse(l).expect("every line parses")).collect();
        assert_eq!(lines.len(), 6);
        let field = |i: usize, key: &str| lines[i].get(key).cloned().expect(key);
        let int = |i: usize, key: &str| field(i, key).as_i64().expect(key);
        let path = |i: usize| -> Vec<String> {
            let path = field(i, "path");
            path.as_arr().unwrap().iter().map(|s| s.as_str().unwrap().to_string()).collect()
        };
        assert_eq!(path(0), ["profile", "profile.build"]);
        assert_eq!(path(1), ["profile"]);
        assert_eq!((int(0, "ns"), int(0, "start"), int(0, "end")), (1500, 1000, 2500));
        let fields = field(0, "fields");
        assert_eq!(fields.get("n").and_then(Json::as_i64), Some(64));
        assert_eq!(fields.get("scheme").and_then(Json::as_str), Some("theorem1"));
        assert_eq!(field(2, "type").as_str(), Some("counter"));
        assert_eq!(field(2, "name").as_str(), Some("apsp.sources"));
        assert_eq!(int(3, "value"), 4032);
        assert_eq!(field(4, "name").as_str(), Some("simnet.max_queue"));
        assert_eq!(int(4, "max"), 7);
        assert_eq!(int(5, "count"), 3);
    }

    #[test]
    fn saturated_sums_serialize_as_i64_max() {
        // `HistData::sum` saturates at u64::MAX by design; both written
        // forms must keep it a large non-negative number `Json::parse`
        // reads back, not -1 or digits beyond the i64 range.
        let mut snap = sample();
        snap.hists[1].sum = u64::MAX;
        snap.counters = vec![("big", u64::MAX)];
        let results_form = Json::obj(snap.hists[1].json_fields()).compact();
        let sum = Json::parse(&results_form).unwrap().get("sum").and_then(Json::as_i64);
        assert_eq!(sum, Some(i64::MAX));
        for line in snap.jsonl().lines() {
            let parsed = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            if let Some(v) = parsed.get("sum").or_else(|| parsed.get("value")) {
                assert!(v.as_i64().is_some_and(|v| v >= 0), "{line}");
            }
        }
        assert!(snap.jsonl().contains(r#""name":"big","value":9223372036854775807}"#));
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
        assert_eq!(snap.hist("simnet.max_queue").map(|h| h.max), Some(7));
        assert_eq!(snap.span_totals("profile.build"), (1, 1500));
        assert_eq!(snap.span_paths().len(), 2);
    }
}
