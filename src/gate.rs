//! The check table behind `ort report`: every regression check the
//! workspace makes outside the benchmark of record, as rows of one
//! declarative table ([`ROWS`]).
//!
//! A [`Row`] names a **source**, a **JSON path** into it, and a **rule**:
//!
//! * Sources ([`Source`]) are the checked-in results files, the
//!   provenance `ort report` derives for each of them (schema, stored and
//!   recomputed digest, history ledger), and three fresh probes: the
//!   12-scheme bit breakdown on `gnp_half(n, 1)` at n = 64/128/256, the
//!   allocator memory probes, and the single-link repair-vs-cold-rebuild
//!   floor.
//! * A path is dot-separated keys. `*` fans the row out over every member
//!   of an object or element of an array (elements are named by their
//!   `"name"` field when they have one, else by index), `#` is the length
//!   of an array, and `+` sums the rest of the path over an array. A
//!   missing key resolves to `null`.
//! * [`Rule::Exact`] records the value in `REPORT.json`, where a later
//!   `ort report --baseline` requires it bit-for-bit; [`Rule::Bound`]
//!   judges the fresh value on its own and records nothing, so the
//!   report stays free of machine- and feature-dependent numbers.
//!
//! Timing is measured and gated end to end by the benchmark of record
//! (`examples/ortbench`), never against a number recorded here. The one
//! clock read in this module is the repair probe, a ratio of two timings
//! taken back to back in the same process.

use std::time::Instant;

use ort_conformance::registry::SchemeId;
use ort_graphs::oracle::{BandedOracle, Distances};
use ort_graphs::paths::{Apsp, ApspEngine};
use ort_graphs::{generators, Graph};
use ort_routing::accounting::BitBreakdown;
use ort_routing::repair::RepairableScheme;
use ort_telemetry::json::Json;

use crate::manifest::SCHEMA_VERSION;

/// Graph sizes of the bit-breakdown probe (`gnp_half(n, BITS_SEED)`).
pub const BITS_SIZES: [usize; 3] = [64, 128, 256];
/// Generator seed of the bit-breakdown probe.
pub const BITS_SEED: u64 = 1;
/// Graph size for the banded-oracle memory probe.
pub const MEM_BANDED_N: usize = 4096;
/// Graph size for the compact-width APSP memory probe.
pub const MEM_APSP_N: usize = 1024;
/// Multiplicative headroom a measured region peak may sit above its
/// analytic claim. The claims are guaranteed lower bounds, so anything
/// the model omits (allocator rounding, per-tile transients) must fit.
pub const MEM_SLACK: f64 = 1.25;
/// Absolute headroom on top of [`MEM_SLACK`]: size-independent
/// transients such as hist registration and span bookkeeping.
pub const MEM_ABS_SLACK: i64 = 256 * 1024;
/// Graph size for the repair-vs-rebuild probe.
pub const REPAIR_N: usize = 4096;
/// Minimum speedup of a patched single-link repair over a cold
/// full-table rebuild at [`REPAIR_N`] nodes. Below this the incremental
/// path has lost its reason to exist.
pub const REPAIR_SPEEDUP_FLOOR: f64 = 5.0;

/// Where a row's document comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The provenance of every results file: an object keyed by file
    /// name holding the manifest's `schema` and `digest`, the
    /// `payload_digest` recomputed from the file, and the
    /// `history_digest` of its last `HISTORY.jsonl` line.
    Provenance,
    /// A checked-in results file, by name. Rows on an absent file are
    /// skipped; a baseline comparison then reports their values missing.
    File(&'static str),
    /// Fresh: [`bits_probe`].
    Bits,
    /// Fresh: [`mem_probe`].
    Mem,
    /// Fresh: [`repair_probe`].
    Repair,
}

impl Source {
    /// The name failures and `REPORT.json` use for this source.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Source::Provenance => "results",
            Source::File(name) => name,
            Source::Bits => "probe:bits",
            Source::Mem => "probe:mem",
            Source::Repair => "probe:repair",
        }
    }
}

/// A [`Rule::Bound`] check's judgement of one selected value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Holds; a non-empty note is printed.
    Pass(String),
    /// Cannot be judged in this build (the reason is printed).
    Skip(&'static str),
    /// Broken; the message becomes a problem.
    Fail(String),
}

/// How a row judges what its path selects.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// Recorded in `REPORT.json`; must equal the `--baseline` report.
    Exact,
    /// A named check on the fresh value alone.
    Bound(&'static str, fn(&Json) -> Verdict),
}

/// One check: a source, a JSON path into it, and a rule.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Where the document comes from.
    pub source: Source,
    /// What the row selects (see the module docs for `*`, `#`, `+`).
    pub path: &'static str,
    /// How the selection is judged.
    pub rule: Rule,
}

const fn exact(source: Source, path: &'static str) -> Row {
    Row { source, path, rule: Rule::Exact }
}

/// A [`Rule::Bound`] row named after its check function.
macro_rules! bound {
    ($source:expr, $path:literal, $check:ident) => {
        Row { source: $source, path: $path, rule: Rule::Bound(stringify!($check), $check) }
    };
}

const CONFORMANCE: Source = Source::File("CONFORMANCE.json");
const RESILIENCE: Source = Source::File("RESILIENCE.json");
const DIAGNOSTICS: Source = Source::File("RESILIENCE_DIAGNOSTICS.json");
const CHURN: Source = Source::File("CHURN.json");

/// The table `ort report` runs.
pub const ROWS: &[Row] = &[
    bound!(Source::Provenance, "*", stamped_at_current_schema),
    bound!(Source::Provenance, "*", digest_recomputes),
    bound!(Source::Provenance, "*", history_agrees),
    exact(Source::Provenance, "*.digest"),
    exact(CONFORMANCE, "pass"),
    exact(CONFORMANCE, "violations.#"),
    exact(CONFORMANCE, "schemes_covered.#"),
    exact(CONFORMANCE, "differential_exhaustive.#"),
    exact(CONFORMANCE, "differential_sweeps.#"),
    exact(CONFORMANCE, "fuzz.total_mutations"),
    exact(CONFORMANCE, "fuzz.panics"),
    exact(RESILIENCE, "pass"),
    exact(RESILIENCE, "violations.#"),
    exact(RESILIENCE, "cells.#"),
    exact(RESILIENCE, "refusals.#"),
    exact(RESILIENCE, "cells.+.pairs"),
    exact(RESILIENCE, "cells.+.delivered"),
    exact(RESILIENCE, "hists.*"),
    exact(DIAGNOSTICS, "violations.#"),
    exact(DIAGNOSTICS, "avoidable_exemplars.#"),
    bound!(CHURN, "pass", is_true),
    bound!(CHURN, "cells.*", byte_identical_throughout),
    bound!(CHURN, "cells.+.repair.patches", positive),
    bound!(CHURN, "cells", has_a_cell_at_1024),
    exact(CHURN, "pass"),
    exact(CHURN, "violations.#"),
    exact(CHURN, "cells.#"),
    exact(CHURN, "cells.*.events_applied"),
    exact(CHURN, "cells.*.checks.byte_identical_steps"),
    exact(CHURN, "cells.*.checks.verify_equal_steps"),
    exact(CHURN, "hists.*"),
    exact(Source::Bits, "*.*"),
    exact(Source::Mem, "*.claimed_peak_bytes"),
    bound!(Source::Mem, "*", claim_brackets_measured),
    bound!(Source::Mem, "apsp", half_the_u32_matrix),
    bound!(Source::Repair, "single_link", repair_beats_rebuild),
];

/// Every `(concrete path, value)` that `path` selects in `doc`, in
/// document order; see the module docs for the path syntax.
#[must_use]
pub fn select(doc: &Json, path: &str) -> Vec<(String, Json)> {
    let segs: Vec<&str> = path.split('.').filter(|s| !s.is_empty()).collect();
    let mut out = Vec::new();
    walk(doc, &segs, String::new(), &mut out);
    out
}

fn walk(v: &Json, segs: &[&str], at: String, out: &mut Vec<(String, Json)>) {
    let join = |k: &str| if at.is_empty() { k.to_string() } else { format!("{at}.{k}") };
    let Some((&seg, rest)) = segs.split_first() else {
        out.push((at, v.clone()));
        return;
    };
    match seg {
        "*" => {
            for (k, child) in members(v) {
                walk(child, rest, join(&k), out);
            }
        }
        "#" => out.push((join("#"), v.as_arr().map_or(Json::Null, |a| Json::Int(a.len() as i64)))),
        "+" => {
            let mut terms = Vec::new();
            for (_, child) in members(v) {
                walk(child, rest, String::new(), &mut terms);
            }
            let sum = terms.iter().filter_map(|(_, t)| t.as_i64()).sum();
            out.push((join(&segs.join(".")), Json::Int(sum)));
        }
        key => walk(v.get(key).unwrap_or(&Json::Null), rest, join(key), out),
    }
}

/// The named children of an object or array.
fn members(v: &Json) -> Vec<(String, &Json)> {
    match v {
        Json::Obj(pairs) => pairs.iter().map(|(k, c)| (k.clone(), c)).collect(),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (c.get("name").and_then(Json::as_str).map_or(i.to_string(), str::to_string), c)
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn int(v: &Json, key: &str) -> Option<i64> {
    v.get(key).and_then(Json::as_i64)
}

fn stamped_at_current_schema(v: &Json) -> Verdict {
    match int(v, "schema") {
        None => Verdict::Fail("no manifest (unstamped results file)".into()),
        Some(SCHEMA_VERSION) => Verdict::Pass(String::new()),
        Some(s) => Verdict::Fail(format!("manifest schema {s}, expected {SCHEMA_VERSION}")),
    }
}

fn digest_recomputes(v: &Json) -> Verdict {
    match (v.get("digest").and_then(Json::as_str), v.get("payload_digest").and_then(Json::as_str)) {
        (Some(stored), Some(payload)) if stored == payload => Verdict::Pass(String::new()),
        (Some(stored), Some(payload)) => Verdict::Fail(format!(
            "digest: payload hashes to {payload}, manifest says {stored} — the file was \
             modified after it was written"
        )),
        _ => Verdict::Skip("unstamped: no digest to recompute"),
    }
}

fn history_agrees(v: &Json) -> Verdict {
    let stored = v.get("digest").and_then(Json::as_str);
    match v.get("history_digest").and_then(Json::as_str) {
        None => Verdict::Fail("history: no HISTORY.jsonl line for this file".into()),
        Some(h) if Some(h) == stored => Verdict::Pass(String::new()),
        Some(h) => Verdict::Fail(format!(
            "history: last trajectory digest {h} != manifest digest {}",
            stored.unwrap_or("null")
        )),
    }
}

fn is_true(v: &Json) -> Verdict {
    match v {
        Json::Bool(true) => Verdict::Pass(String::new()),
        other => Verdict::Fail(format!("{}, expected true", other.compact())),
    }
}

fn positive(v: &Json) -> Verdict {
    match v.as_i64() {
        Some(x) if x > 0 => Verdict::Pass(String::new()),
        _ => Verdict::Fail(format!("{}, expected > 0", v.compact())),
    }
}

fn byte_identical_throughout(cell: &Json) -> Verdict {
    let applied = int(cell, "events_applied").unwrap_or(-1);
    let identical = cell.get("checks").and_then(|c| int(c, "byte_identical_steps")).unwrap_or(-2);
    if applied <= 0 {
        Verdict::Fail("applied no events".into())
    } else if identical != applied {
        Verdict::Fail(format!(
            "byte-identical on {identical} of {applied} steps — repair diverged from cold rebuild"
        ))
    } else {
        Verdict::Pass(String::new())
    }
}

fn has_a_cell_at_1024(cells: &Json) -> Verdict {
    let large =
        cells.as_arr().unwrap_or(&[]).iter().any(|c| int(c, "n0").is_some_and(|n| n >= 1024));
    if large {
        Verdict::Pass(String::new())
    } else {
        Verdict::Fail("no cell at n ≥ 1024 — regenerate with `ort churn`".into())
    }
}

/// `claim ≤ measured ≤ MEM_SLACK · claim + MEM_ABS_SLACK`: the analytic
/// `peak_bytes` is a true lower bound and nothing unmodelled is live.
fn claim_brackets_measured(v: &Json) -> Verdict {
    let claim = int(v, "claimed_peak_bytes").unwrap_or(0);
    let Some(measured) = int(v, "measured_peak_bytes") else {
        return Verdict::Skip("allocator instrumentation compiled out");
    };
    let cap = (claim as f64 * MEM_SLACK) as i64 + MEM_ABS_SLACK;
    if measured < claim {
        Verdict::Fail(format!(
            "measured peak {measured} B under the analytic claim {claim} B — peak_bytes \
             overstates what the run allocates"
        ))
    } else if measured > cap {
        Verdict::Fail(format!(
            "measured peak {measured} B exceeds the analytic claim {claim} B beyond slack \
             (cap {cap} B) — an unmodelled buffer is live"
        ))
    } else {
        Verdict::Pass(format!(
            "claimed {claim} B, measured {measured} B ({:.3}x, cap {cap} B)",
            measured as f64 / claim.max(1) as f64
        ))
    }
}

/// The compact store's width win, in allocator-observed bytes.
fn half_the_u32_matrix(v: &Json) -> Verdict {
    let u32_full = int(v, "u32_full_bytes").unwrap_or(0);
    let Some(measured) = int(v, "measured_peak_bytes") else {
        return Verdict::Skip("allocator instrumentation compiled out");
    };
    if measured * 2 > u32_full {
        Verdict::Fail(format!(
            "measured peak {measured} B not 2x below the u32 full matrix ({u32_full} B)"
        ))
    } else {
        Verdict::Pass(format!(
            "{:.1}x below the u32 full matrix",
            u32_full as f64 / measured.max(1) as f64
        ))
    }
}

fn repair_beats_rebuild(v: &Json) -> Verdict {
    let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let (repair, rebuild, speedup) = (num("repair_ms"), num("rebuild_ms"), num("speedup"));
    let line = format!("repair {repair:.2} ms vs cold rebuild {rebuild:.1} ms: {speedup:.0}x");
    if speedup >= REPAIR_SPEEDUP_FLOOR {
        Verdict::Pass(line)
    } else {
        Verdict::Fail(format!(
            "{line}, floor {REPAIR_SPEEDUP_FLOOR}x — the incremental path has collapsed"
        ))
    }
}

/// The sparse probe graph: `power_law(n, m = 2, γ = 2.5)`, seed 1.
fn sparse(n: usize) -> Graph {
    generators::power_law_seeded(n, 2, 2.5, 1)
}

fn int_json(x: usize) -> Json {
    Json::Int(x as i64)
}

/// Builds every registry scheme on `gnp_half(n, BITS_SEED)` for each of
/// [`BITS_SIZES`] and returns `{ "<n>": { "<scheme>": { routing,
/// port_permutation, label, total, max_node } } }` — exact bit counts,
/// deterministic functions of the graph.
///
/// # Errors
///
/// Names the scheme that refused a probe graph; the graphs are chosen so
/// every scheme accepts them, so a refusal is itself a regression.
pub fn bits_probe() -> Result<Json, String> {
    let _span = ort_telemetry::span("gate.bits");
    let mut sizes = Vec::new();
    for n in BITS_SIZES {
        let g = generators::gnp_half(n, BITS_SEED);
        let dists = Apsp::compute(&g);
        let mut schemes = Vec::new();
        for id in SchemeId::ALL {
            let scheme = id
                .build_with_dists(&g, &dists)
                .map_err(|e| format!("{} refused G({n}, 1/2) seed {BITS_SEED}: {e}", id.name()))?;
            let b = BitBreakdown::of(scheme.as_ref());
            schemes.push((
                id.name().to_string(),
                Json::obj(vec![
                    ("routing", int_json(b.routing_bits())),
                    ("port_permutation", int_json(b.port_permutation_bits())),
                    ("label", int_json(b.label_bits())),
                    ("total", int_json(b.total())),
                    ("max_node", int_json(b.max_node_bits())),
                ]),
            ));
        }
        sizes.push((n.to_string(), Json::Obj(schemes)));
    }
    Ok(Json::Obj(sizes))
}

/// The allocator memory probes, each run serially:
///
/// * `banded` — one full ascending sweep of a [`BandedOracle`] over the
///   sparse graph at [`MEM_BANDED_N`] (the oracle is built outside the
///   region, so the region holds exactly what `peak_bytes` models: one
///   band plus the tiled engine's scratch);
/// * `apsp` — one compact-width tiled APSP at [`MEM_APSP_N`], claimed as
///   its store plus scratch and held against the `u32` full matrix.
///
/// Claims are analytic and always present; `measured_peak_bytes` only
/// when the instrumented allocator is compiled in.
#[must_use]
pub fn mem_probe() -> Json {
    let _span = ort_telemetry::span("gate.mem");
    let measured = |rec: ort_telemetry::MemSpanRecord| {
        let peak = Json::Int(rec.region_peak_bytes as i64);
        ort_telemetry::alloc::installed().then_some(("measured_peak_bytes", peak))
    };

    let band_rows = ApspEngine::tile_sources(MEM_BANDED_N);
    let banded = BandedOracle::with_engine(sparse(MEM_BANDED_N), band_rows, ApspEngine::Tiled);
    let region = ort_telemetry::alloc::mem_span("gate.mem.banded");
    for u in (0..MEM_BANDED_N).step_by(band_rows) {
        std::hint::black_box(banded.distance(u, 0));
    }
    let mut banded_doc =
        vec![("n", int_json(MEM_BANDED_N)), ("claimed_peak_bytes", int_json(banded.peak_bytes()))];
    banded_doc.extend(measured(region.finish()));
    drop(banded);

    let g = sparse(MEM_APSP_N);
    let region = ort_telemetry::alloc::mem_span("gate.mem.apsp");
    let apsp = Apsp::compute_with(&g, ApspEngine::Tiled, 1);
    let rec = region.finish();
    let mut apsp_doc = vec![
        ("n", int_json(MEM_APSP_N)),
        (
            "claimed_peak_bytes",
            int_json(apsp.heap_bytes() + ApspEngine::Tiled.scratch_bytes(&g, MEM_APSP_N)),
        ),
        ("u32_full_bytes", int_json(MEM_APSP_N * MEM_APSP_N * 4)),
    ];
    apsp_doc.extend(measured(rec));
    Json::obj(vec![("banded", Json::obj(banded_doc)), ("apsp", Json::obj(apsp_doc))])
}

/// Times a provably local link toggle through
/// [`RepairableScheme`] against a
/// cold full-table build at [`REPAIR_N`] nodes. The link is a chord
/// between two pendants of one hub, so its dirty set is exactly its two
/// endpoints — the most localised delta a connected graph admits. The
/// cold side is the repairable scheme's own construction (one APSP plus
/// the table loop, the work of a rebuild from scratch); the repair side
/// is the best of three toggles after a warm one. Noise can only slow
/// the single cold build, which makes the ratio more lenient, never
/// flakier.
///
/// # Errors
///
/// Returns the first construction or repair error.
pub fn repair_probe() -> Result<Json, String> {
    let _span = ort_telemetry::span("gate.repair");
    let mut g = sparse(REPAIR_N - 2);
    let x = g.add_node();
    let y = g.add_node();
    g.add_edge(x, 0).map_err(|e| e.to_string())?;
    g.add_edge(y, 0).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut scheme = RepairableScheme::full_table(g).map_err(|e| e.to_string())?;
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut toggle = || -> Result<f64, String> {
        let t = Instant::now();
        scheme.add_link(x, y).map_err(|e| e.to_string())?;
        scheme.remove_link(x, y).map_err(|e| e.to_string())?;
        Ok(t.elapsed().as_secs_f64() * 1e3 / 2.0)
    };
    toggle()?;
    let mut repair_ms = f64::INFINITY;
    for _ in 0..3 {
        repair_ms = repair_ms.min(toggle()?);
    }
    Ok(Json::obj(vec![(
        "single_link",
        Json::obj(vec![
            ("n", int_json(REPAIR_N)),
            ("repair_ms", Json::Num(repair_ms)),
            ("rebuild_ms", Json::Num(rebuild_ms)),
            ("speedup", Json::Num(rebuild_ms / repair_ms.max(1e-6))),
        ]),
    )]))
}

/// The documents a table run reads: the two on-disk sources, and the
/// probes, each run at most once and only if a row asks for it.
#[derive(Debug)]
pub struct Docs {
    provenance: Json,
    files: Vec<(String, Json)>,
    probes: Vec<(Source, Option<Json>)>,
}

impl Docs {
    /// The [`Source::Provenance`] document and every parsed results
    /// file by name; probes run on first use.
    #[must_use]
    pub fn new(provenance: Json, files: Vec<(String, Json)>) -> Self {
        Docs { provenance, files, probes: Vec::new() }
    }

    fn get(&mut self, source: Source, problems: &mut Vec<String>) -> Option<&Json> {
        match source {
            Source::Provenance => Some(&self.provenance),
            Source::File(name) => self.files.iter().find(|(n, _)| n == name).map(|(_, d)| d),
            probe => {
                if !self.probes.iter().any(|(s, _)| *s == probe) {
                    let fresh = match probe {
                        Source::Bits => bits_probe(),
                        Source::Mem => Ok(mem_probe()),
                        _ => repair_probe(),
                    };
                    let fresh = fresh.map_err(|e| problems.push(format!("{}: {e}", probe.name())));
                    self.probes.push((probe, fresh.ok()));
                }
                self.probes.iter().find(|(s, _)| *s == probe).and_then(|(_, d)| d.as_ref())
            }
        }
    }
}

/// What a table run found.
#[derive(Debug)]
pub struct Evaluation {
    /// Every `Exact` value, as `{ source: { concrete path: value } }` —
    /// the `exact` section of `REPORT.json`. Objects and arrays are
    /// recorded as their compact serialization, one line per field.
    pub exact: Json,
    /// One human-readable line per row.
    pub lines: Vec<String>,
    /// Every failed check, each naming its source and path.
    pub problems: Vec<String>,
}

/// Runs `rows` over `docs`.
#[must_use]
pub fn evaluate(rows: &[Row], docs: &mut Docs) -> Evaluation {
    let mut exact: Vec<(String, Json)> = Vec::new();
    let mut lines = Vec::new();
    let mut problems = Vec::new();
    for row in rows {
        let src = row.source.name();
        let Some(doc) = docs.get(row.source, &mut problems) else {
            continue;
        };
        let hits = select(doc, row.path);
        let summary = match row.rule {
            Rule::Exact => {
                let at = match exact.iter().position(|(s, _)| s == src) {
                    Some(i) => i,
                    None => {
                        exact.push((src.to_string(), Json::Obj(Vec::new())));
                        exact.len() - 1
                    }
                };
                let Json::Obj(fields) = &mut exact[at].1 else {
                    unreachable!("sources are objects")
                };
                for (path, v) in &hits {
                    let v = match v {
                        Json::Obj(_) | Json::Arr(_) => Json::Str(v.compact()),
                        scalar => scalar.clone(),
                    };
                    fields.push((path.clone(), v));
                }
                match hits.as_slice() {
                    [(_, v)] => v.compact(),
                    _ => format!("{} values", hits.len()),
                }
            }
            Rule::Bound(_, check) => {
                let mut notes = Vec::new();
                for (path, v) in &hits {
                    match check(v) {
                        Verdict::Pass(note) if note.is_empty() => {}
                        Verdict::Pass(note) => notes.push(format!("{path}: {note}")),
                        Verdict::Skip(why) => notes.push(format!("{path}: skipped, {why}")),
                        Verdict::Fail(why) => problems.push(format!("{src}: {path}: {why}")),
                    }
                }
                if notes.is_empty() {
                    format!("{} checked", hits.len())
                } else {
                    notes.join("; ")
                }
            }
        };
        let rule = match row.rule {
            Rule::Exact => "exact",
            Rule::Bound(name, _) => name,
        };
        lines.push(format!("{rule:<26} {src:<28} {:<38} {summary}", row.path));
    }
    Evaluation { exact: Json::Obj(exact), lines, problems }
}

/// Compares a fresh [`Evaluation::exact`] against a baseline report's:
/// every recorded value must match bit-for-bit, and the two must record
/// the same fields. Each drift names its source and path.
#[must_use]
pub fn compare(baseline: &Json, fresh: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let lookup =
        |doc: &Json, src: &str, path: &str| doc.get(src).and_then(|s| s.get(path)).cloned();
    for (src, fields) in members(baseline) {
        for (path, b) in members(fields) {
            match lookup(fresh, &src, &path) {
                None => problems.push(format!("{src}: {path}: in the baseline, missing now")),
                Some(f) if f.compact() != b.compact() => problems.push(format!(
                    "{src}: {path}: baseline {}, fresh {}",
                    b.compact(),
                    f.compact()
                )),
                Some(_) => {}
            }
        }
    }
    for (src, fields) in members(fresh) {
        for (path, _) in members(fields) {
            if lookup(baseline, &src, &path).is_none() {
                problems.push(format!(
                    "{src}: {path}: absent from the baseline — regenerate REPORT.json"
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(total: i64) -> Json {
        Json::obj(vec![(
            "probe:bits",
            Json::obj(vec![
                ("64.theorem1", Json::Str(format!("{{\"total\":{total}}}"))),
                ("64.theorem2", Json::Str("{\"total\":800}".into())),
            ]),
        )])
    }

    #[test]
    fn compare_passes_on_identical_measurements() {
        assert!(compare(&bits(1000), &bits(1000)).is_empty());
    }

    #[test]
    fn compare_fails_on_any_bit_drift() {
        let problems = compare(&bits(1000), &bits(1001));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("probe:bits: 64.theorem1: baseline"), "{problems:?}");
    }

    #[test]
    fn compare_flags_missing_and_extra_entries() {
        let base = Json::obj(vec![("probe:bits", Json::obj(vec![("64.theorem1", Json::Int(1))]))]);
        let fresh = Json::obj(vec![("probe:bits", Json::obj(vec![("64.theorem2", Json::Int(1))]))]);
        let problems = compare(&base, &fresh);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("64.theorem1: in the baseline, missing now"));
        assert!(problems[1].contains("64.theorem2: absent from the baseline"));
    }

    #[test]
    fn baseline_document_round_trips() {
        // The exact section survives being written into REPORT.json and
        // parsed back as the next run's baseline.
        let doc = Json::obj(vec![
            ("theorem1", Json::obj(vec![("total", Json::Int(6653)), ("label", Json::Int(0))])),
            ("cells", Json::Arr(vec![Json::obj(vec![("name", Json::Str("gnp32".into()))])])),
        ]);
        let rows = [exact(Source::Bits, "*"), exact(Source::Bits, "cells.#")];
        let mut docs = Docs::new(Json::Null, Vec::new());
        docs.probes.push((Source::Bits, Some(doc)));
        let eval = evaluate(&rows, &mut docs);
        assert!(eval.problems.is_empty(), "{:?}", eval.problems);
        let back = Json::parse(&eval.exact.pretty()).expect("recorded values parse");
        assert!(compare(&back, &eval.exact).is_empty());
        assert_eq!(
            back.get("probe:bits").and_then(|b| b.get("theorem1")).and_then(Json::as_str),
            Some("{\"total\":6653,\"label\":0}")
        );
    }

    #[test]
    fn mem_gate_flags_an_injected_regression() {
        let probe = |measured: i64| {
            Json::obj(vec![
                ("claimed_peak_bytes", Json::Int(1 << 20)),
                ("measured_peak_bytes", Json::Int(measured)),
                ("u32_full_bytes", Json::Int(4 << 20)),
            ])
        };
        assert!(matches!(claim_brackets_measured(&probe(1 << 20)), Verdict::Pass(_)));
        // A doubled footprint breaks the cap; a claim above what was
        // measured breaks the lower bound.
        let fails_with = |measured: i64, why: &str| {
            matches!(claim_brackets_measured(&probe(measured)), Verdict::Fail(m) if m.contains(why))
        };
        assert!(fails_with(2 << 20, "beyond slack"));
        assert!(fails_with(1 << 19, "under the analytic claim"));
        assert!(matches!(half_the_u32_matrix(&probe(3 << 20)), Verdict::Fail(_)));
        // Compiled-out instrumentation skips instead of failing.
        let unmeasured = Json::obj(vec![("claimed_peak_bytes", Json::Int(1 << 20))]);
        assert!(matches!(claim_brackets_measured(&unmeasured), Verdict::Skip(_)));
    }

    #[test]
    fn paths_fan_out_count_and_sum() {
        let doc = Json::parse(
            r#"{"cells": [{"name": "a", "n": 2, "c": {"k": 1}}, {"n": 3, "c": {"k": 4}}]}"#,
        )
        .unwrap();
        let names = |p: &str| {
            select(&doc, p)
                .into_iter()
                .map(|(k, v)| format!("{k}={}", v.compact()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names("cells.#"), ["cells.#=2"]);
        assert_eq!(names("cells.*.n"), ["cells.a.n=2", "cells.1.n=3"]);
        assert_eq!(names("cells.+.c.k"), ["cells.+.c.k=5"]);
        assert_eq!(names("cells.*.missing"), ["cells.a.missing=null", "cells.1.missing=null"]);
    }
}
