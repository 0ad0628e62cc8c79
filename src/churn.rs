//! The continuous-churn sweep behind `ort churn`.
//!
//! Each cell seeds a topology, generates a connectivity-preserving
//! [`ChurnPlan`], and drives a [`RepairableScheme`] through every event —
//! link adds and removes absorbed by incremental oracle repair plus
//! dirty-region table patching, joins and leaves by whole-scheme rebuild.
//! After **every** event the sweep checks, against a from-scratch
//! [`FullTableScheme`] build on the post-event topology:
//!
//! * **byte identity** — the repaired scheme's snapshot equals the cold
//!   build's snapshot bit for bit (the PR 7 byte-identity guarantee,
//!   extended through repair);
//! * **bit accounting** — [`BitBreakdown`] reconciles exactly with
//!   `total_size_bits()`;
//! * on small cells, **verify equality** — the full [`VerifyReport`]
//!   (every ordered pair, stretch measured against the *repaired*
//!   oracle) matches the fresh scheme's report verified against a
//!   fresh APSP, and routing is shortest-path.
//!
//! Large cells replace per-step exhaustive verification with a sampled
//! verify at the end of the horizon. A final refusal probe (an empty
//! join) confirms that refused deltas are counted and leave every byte
//! untouched.
//!
//! The report (`results/CHURN.json`) contains **no wall-clock timings**:
//! every field is a deterministic function of `(topology, config, seed)`,
//! so the file is byte-identical under any `ORT_THREADS` setting and
//! with telemetry sinks on or off. The repair-vs-rebuild *speed* check is
//! measured fresh by `ort report` (the repair probe in [`crate::gate`]),
//! never read from this file.
//!
//! [`ChurnPlan`]: ort_simnet::churn::ChurnPlan
//! [`RepairableScheme`]: ort_routing::repair::RepairableScheme
//! [`FullTableScheme`]: ort_routing::schemes::full_table::FullTableScheme
//! [`BitBreakdown`]: ort_routing::accounting::BitBreakdown
//! [`VerifyReport`]: ort_routing::verify::VerifyReport

use ort_telemetry::json::Json;
use ort_graphs::{generators, Graph};
use ort_routing::accounting::BitBreakdown;
use ort_routing::repair::RepairableScheme;
use ort_routing::schemes::full_table::FullTableScheme;
use ort_routing::snapshot::{self, SchemeKind};
use ort_routing::verify::{self, VerifyReport};
use ort_simnet::churn::{ChurnConfig, ChurnEvent, ChurnPlan};

/// Seed for churn plans and cell topologies (stable so the checked-in
/// report is reproducible).
pub const CHURN_SEED: u64 = 29;

/// Default output path.
pub const DEFAULT_OUT: &str = "results/CHURN.json";

/// Default size ceiling: cells above this `n₀` are skipped. The
/// checked-in `results/CHURN.json` and the CI smoke job both use the
/// default, so their documents diff byte-for-byte; pass `--max-n 4096`
/// for the full sweep.
pub const DEFAULT_MAX_N: usize = 1024;

/// Options for [`churn_sweep`].
pub struct ChurnOptions {
    /// Where the report is written (recorded by the caller; the sweep
    /// itself does not touch the filesystem).
    pub out_path: String,
    /// Cells with more than this many initial nodes are skipped.
    pub max_n: usize,
}

impl Default for ChurnOptions {
    fn default() -> Self {
        ChurnOptions { out_path: DEFAULT_OUT.into(), max_n: DEFAULT_MAX_N }
    }
}

/// Everything `ort churn` needs to write and judge a run.
pub struct ChurnOutcome {
    /// The `results/CHURN.json` document.
    pub report: Json,
    /// Acceptance violations (empty ⇒ exit 0).
    pub violations: Vec<String>,
}

/// One swept topology plus its per-step check level.
struct CellSpec {
    name: &'static str,
    graph_desc: &'static str,
    g0: Graph,
    steps: u64,
    /// Exhaustively verify both schemes after every event (small cells).
    full_verify: bool,
    /// Source stride for the end-of-horizon sampled verify when
    /// `full_verify` is off.
    probe_stride: usize,
}

fn cell_specs(max_n: usize) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    if max_n >= 32 {
        cells.push(CellSpec {
            name: "gnp32",
            graph_desc: "gnp_half(32)",
            g0: generators::gnp_half(32, CHURN_SEED),
            steps: 40,
            full_verify: true,
            probe_stride: 0,
        });
    }
    if max_n >= 128 {
        cells.push(CellSpec {
            name: "sparse128",
            graph_desc: "connected_gnp(128, 0.06)",
            g0: generators::connected_gnp(128, 0.06, CHURN_SEED),
            steps: 40,
            full_verify: true,
            probe_stride: 0,
        });
    }
    if max_n >= 1024 {
        cells.push(CellSpec {
            name: "sparse1024",
            graph_desc: "connected_gnp(1024, 0.01)",
            g0: generators::connected_gnp(1024, 0.01, CHURN_SEED),
            steps: 24,
            full_verify: false,
            probe_stride: 7,
        });
    }
    if max_n >= 4096 {
        cells.push(CellSpec {
            name: "sparse4096",
            graph_desc: "power_law(4096, m=2, gamma=2.5)",
            g0: generators::power_law_seeded(4096, 2, 2.5, CHURN_SEED),
            steps: 12,
            full_verify: false,
            probe_stride: 31,
        });
    }
    cells
}

/// Field-wise [`VerifyReport`] equality. `VerifyReport` intentionally
/// does not implement `Eq` (it holds measured data, not an identity),
/// so the sweep compares the fields that must agree when the repaired
/// scheme equals a cold build: both reports are produced in the same
/// deterministic pair order, so vector comparison is exact.
fn reports_equal(a: &VerifyReport, b: &VerifyReport) -> bool {
    a.delivered == b.delivered
        && a.failures == b.failures
        && a.stretches == b.stretches
        && a.total_hops == b.total_hops
        && a.worst == b.worst
}

fn scheme_bytes(scheme: &dyn ort_routing::scheme::RoutingScheme) -> Result<Vec<bool>, String> {
    let bits = snapshot::save(SchemeKind::FullTable, scheme).map_err(|e| e.to_string())?;
    Ok(bits.iter().collect())
}

struct CellResult {
    cell: Json,
    violations: Vec<String>,
    patches: u64,
    rebuilds: u64,
    membership_events: u64,
}

#[allow(clippy::too_many_lines)]
fn run_cell(spec: &CellSpec, progress: &mut dyn FnMut(&str)) -> Result<CellResult, String> {
    let n0 = spec.g0.node_count();
    let _span = ort_telemetry::span_with(
        "churn.cell",
        &[
            ("n0", ort_telemetry::FieldValue::Int(n0 as u64)),
            ("steps", ort_telemetry::FieldValue::Int(spec.steps)),
        ],
    );
    let cfg = ChurnConfig { steps: spec.steps, ..ChurnConfig::default() };
    let plan = ChurnPlan::generate(&spec.g0, &cfg, CHURN_SEED);
    let mut repairable =
        RepairableScheme::full_table(spec.g0.clone()).map_err(|e| format!("{}: {e}", spec.name))?;
    let bits_initial = repairable.scheme().total_size_bits();

    let mut violations = Vec::new();
    let mut log = Vec::new();
    let mut counts = [0u64; 4]; // add_link, remove_link, join, leave
    let mut byte_identical_steps = 0usize;
    let mut verify_equal_steps = 0usize;
    let mut breakdown_ok = true;
    let mut dirty_rows_total = 0u64;
    let mut max_dirty_fraction = 0.0f64;
    let mut last_full_report: Option<VerifyReport> = None;

    for timed in plan.events() {
        let n_before = repairable.node_count();
        let (kind, idx, report) = match &timed.event {
            ChurnEvent::AddLink(u, v) => ("add_link", 0, repairable.add_link(*u, *v)),
            ChurnEvent::RemoveLink(u, v) => ("remove_link", 1, repairable.remove_link(*u, *v)),
            ChurnEvent::Join { peers } => ("join", 2, repairable.join(peers).map(|(_, r)| r)),
            ChurnEvent::Leave(u) => ("leave", 3, repairable.leave(*u)),
        };
        let report = report
            .map_err(|e| format!("{} step {}: {} refused: {e}", spec.name, timed.at, timed.event))?;
        counts[idx] += 1;
        // Staleness evidence over *link* deltas only: how many distance
        // rows a single flap would have left stale without repair. Joins
        // and leaves aggregate several repairs (and always rebuild), so
        // their dirty counts are not comparable.
        if idx < 2 {
            dirty_rows_total += report.dirty_nodes as u64;
            max_dirty_fraction =
                max_dirty_fraction.max(report.dirty_nodes as f64 / n_before as f64);
        }

        // Cold build on the post-event topology: the ground truth every
        // per-step check compares against.
        let fresh = FullTableScheme::build(repairable.graph())
            .map_err(|e| format!("{} step {}: fresh build: {e}", spec.name, timed.at))?;
        let byte_identical = scheme_bytes(repairable.scheme())? == scheme_bytes(&fresh)?;
        if byte_identical {
            byte_identical_steps += 1;
        } else {
            violations.push(format!(
                "{}: step {} ({}) left the repaired scheme byte-different from a cold build",
                spec.name, timed.at, timed.event
            ));
        }
        let reconciled = BitBreakdown::of(repairable.scheme()).total()
            == repairable.scheme().total_size_bits();
        if !reconciled {
            breakdown_ok = false;
            violations.push(format!(
                "{}: step {} ({}) broke bit-accounting reconciliation",
                spec.name, timed.at, timed.event
            ));
        }

        let verify_equal = if spec.full_verify {
            // The repaired scheme is verified against the *repaired*
            // oracle, the fresh scheme against a fresh APSP — equality
            // cross-validates the oracle's distances, not just the table
            // bytes.
            let repaired_report =
                verify::verify_scheme_with_dists(repairable.graph(), repairable.scheme(), repairable.oracle())
                    .map_err(|e| format!("{} step {}: verify: {e}", spec.name, timed.at))?;
            let fresh_report = verify::verify_scheme(repairable.graph(), &fresh)
                .map_err(|e| format!("{} step {}: verify fresh: {e}", spec.name, timed.at))?;
            let equal = reports_equal(&repaired_report, &fresh_report)
                && repaired_report.is_shortest_path();
            if equal {
                verify_equal_steps += 1;
            } else {
                violations.push(format!(
                    "{}: step {} ({}) verify mismatch vs fresh rebuild",
                    spec.name, timed.at, timed.event
                ));
            }
            last_full_report = Some(repaired_report);
            Some(equal)
        } else {
            None
        };

        log.push(Json::obj(vec![
            ("at", Json::Int(timed.at as i64)),
            ("event", Json::Str(kind.into())),
            ("n", Json::Int(repairable.node_count() as i64)),
            ("dirty", Json::Int(report.dirty_nodes as i64)),
            ("rows_recomputed", Json::Int(report.rows_recomputed as i64)),
            ("entries_patched", Json::Int(report.entries_patched as i64)),
            ("oracle_rebuilds", Json::Int(report.oracle_rebuilds as i64)),
            ("scheme_rebuilt", Json::Bool(report.scheme_rebuilt)),
            ("byte_identical", Json::Bool(byte_identical)),
            ("verify_equal", verify_equal.map_or(Json::Null, Json::Bool)),
        ]));
    }

    let applied = plan.len();
    let plan_refusals = repairable.stats().refusals;
    if plan_refusals != 0 {
        violations.push(format!(
            "{}: {plan_refusals} plan events were refused — generated plans must be refusal-free",
            spec.name
        ));
    }

    // End-of-horizon verification for cells too large to verify per step.
    let final_report = if spec.full_verify {
        last_full_report
    } else {
        let probe = verify::verify_scheme_sampled(
            repairable.graph(),
            repairable.scheme(),
            spec.probe_stride,
        )
        .map_err(|e| format!("{}: sampled probe: {e}", spec.name))?;
        if !(probe.all_delivered() && probe.is_shortest_path()) {
            violations.push(format!(
                "{}: sampled probe (stride {}) found lost or stretched routes after churn",
                spec.name, spec.probe_stride
            ));
        }
        Some(probe)
    };

    // Refusal probe: a refused delta must be counted and must not move a
    // single bit.
    let before = scheme_bytes(repairable.scheme())?;
    let refusal_ok = repairable.join(&[]).is_err()
        && repairable.stats().refusals == plan_refusals + 1
        && scheme_bytes(repairable.scheme())? == before;
    if !refusal_ok {
        violations.push(format!("{}: refused join was not counted or mutated state", spec.name));
    }

    let stats = repairable.stats();
    let oracle_stats = repairable.oracle().stats();
    let link_events = counts[0] + counts[1];
    let mean_dirty =
        if link_events == 0 { 0.0 } else { dirty_rows_total as f64 / link_events as f64 };
    progress(&format!(
        "churn {}: {} events on n0={} (final n={}), {} patched / {} rebuilt, \
         byte-identical {}/{}",
        spec.name,
        applied,
        n0,
        repairable.node_count(),
        stats.patches,
        stats.rebuilds,
        byte_identical_steps,
        applied
    ));

    let final_json = final_report.map_or(Json::Null, |r| {
        Json::obj(vec![
            ("delivered", Json::Int(r.delivered as i64)),
            ("failures", Json::Int(r.failures.len() as i64)),
            ("max_stretch", r.max_stretch().map_or(Json::Null, Json::Num)),
        ])
    });
    let cell = Json::obj(vec![
        ("name", Json::Str(spec.name.into())),
        ("graph", Json::Str(spec.graph_desc.into())),
        ("n0", Json::Int(n0 as i64)),
        ("n_final", Json::Int(repairable.node_count() as i64)),
        ("steps_planned", Json::Int(spec.steps as i64)),
        ("events_applied", Json::Int(applied as i64)),
        (
            "event_counts",
            Json::obj(vec![
                ("add_link", Json::Int(counts[0] as i64)),
                ("remove_link", Json::Int(counts[1] as i64)),
                ("join", Json::Int(counts[2] as i64)),
                ("leave", Json::Int(counts[3] as i64)),
            ]),
        ),
        (
            "repair",
            Json::obj(vec![
                ("patches", Json::Int(stats.patches as i64)),
                ("scheme_rebuilds", Json::Int(stats.rebuilds as i64)),
                ("entries_patched", Json::Int(stats.entries_patched as i64)),
                ("refusals", Json::Int(stats.refusals as i64)),
            ]),
        ),
        (
            "oracle",
            Json::obj(vec![
                ("repairs", Json::Int(oracle_stats.repairs as i64)),
                ("dirty_rows", Json::Int(oracle_stats.dirty_nodes as i64)),
                ("rows_recomputed", Json::Int(oracle_stats.rows_recomputed as i64)),
                ("fallback_rebuilds", Json::Int(oracle_stats.fallback_rebuilds as i64)),
            ]),
        ),
        (
            "staleness",
            Json::obj(vec![
                ("link_events", Json::Int(link_events as i64)),
                ("dirty_rows_total", Json::Int(dirty_rows_total as i64)),
                ("mean_dirty_rows_per_link_delta", Json::Num(mean_dirty)),
                ("max_dirty_fraction", Json::Num(max_dirty_fraction)),
            ]),
        ),
        (
            "bits",
            Json::obj(vec![
                ("initial", Json::Int(bits_initial as i64)),
                ("final", Json::Int(repairable.scheme().total_size_bits() as i64)),
            ]),
        ),
        (
            "checks",
            Json::obj(vec![
                ("byte_identical_steps", Json::Int(byte_identical_steps as i64)),
                (
                    "verify_equal_steps",
                    if spec.full_verify {
                        Json::Int(verify_equal_steps as i64)
                    } else {
                        Json::Null
                    },
                ),
                (
                    "probe_stride",
                    if spec.full_verify { Json::Null } else { Json::Int(spec.probe_stride as i64) },
                ),
                ("breakdown_reconciled", Json::Bool(breakdown_ok)),
                ("refusal_probe", Json::Bool(refusal_ok)),
            ]),
        ),
        ("final", final_json),
        ("log", Json::Arr(log)),
    ]);

    Ok(CellResult {
        cell,
        violations,
        patches: stats.patches,
        rebuilds: stats.rebuilds,
        membership_events: counts[2] + counts[3],
    })
}

/// The sweep: every cell at or below `opts.max_n`, through its full
/// churn horizon, with per-step byte-identity and verification checks.
///
/// # Errors
///
/// Returns a message when a plan event is refused or a rebuild fails —
/// both indicate a bug, not bad input. Check *failures* (byte drift,
/// verify mismatch) are reported as violations, not errors.
pub fn churn_sweep(
    opts: &ChurnOptions,
    mut progress: impl FnMut(&str),
) -> Result<ChurnOutcome, String> {
    let _span = ort_telemetry::span("churn.sweep");
    let defaults = ChurnConfig::default();
    let mut cells = Vec::new();
    let mut violations = Vec::new();
    let mut patches_total = 0u64;
    let mut rebuilds_total = 0u64;
    let mut membership_total = 0u64;
    for spec in cell_specs(opts.max_n) {
        let result = run_cell(&spec, &mut progress)?;
        cells.push(result.cell);
        violations.extend(result.violations);
        patches_total += result.patches;
        rebuilds_total += result.rebuilds;
        membership_total += result.membership_events;
    }
    if cells.is_empty() {
        violations.push(format!("no cells at --max-n {} (smallest cell is n=32)", opts.max_n));
    }
    if patches_total == 0 {
        violations
            .push("no edge delta was absorbed by in-place patching — the fast path never ran".into());
    }
    if rebuilds_total == 0 {
        violations.push("no event forced a whole-scheme rebuild — membership churn missing".into());
    }
    if membership_total == 0 && !cells.is_empty() {
        violations.push("plans scheduled no joins or leaves — weights are miswired".into());
    }

    // Per-step value-domain distributions across every cell, read back
    // from the (deterministic) step logs; plain local histograms keep
    // the report byte-identical with telemetry compiled out.
    let mut dirty_h = ort_telemetry::LocalHist::new();
    let mut patched_h = ort_telemetry::LocalHist::new();
    let empty: &[Json] = &[];
    for cell in &cells {
        for e in cell.get("log").and_then(Json::as_arr).unwrap_or(empty) {
            let n = e.get("n").and_then(Json::as_i64).unwrap_or(1).max(1) as u64;
            let dirty = e.get("dirty").and_then(Json::as_i64).unwrap_or(0) as u64;
            dirty_h.record(dirty * 1000 / n);
            patched_h
                .record(e.get("entries_patched").and_then(Json::as_i64).unwrap_or(0) as u64);
        }
    }
    let hists = [dirty_h.data("dirty_frac_x1000"), patched_h.data("entries_patched")];
    for h in &hists {
        progress(&format!("churn distribution {:<18}{}", h.name, h.percentile_line()));
    }

    let report = Json::obj(vec![
        ("suite", Json::Str("churn".into())),
        ("seed", Json::Int(CHURN_SEED as i64)),
        (
            "config",
            Json::obj(vec![
                ("max_n", Json::Int(opts.max_n as i64)),
                ("link_add_weight", Json::Int(defaults.link_add_weight as i64)),
                ("link_remove_weight", Json::Int(defaults.link_remove_weight as i64)),
                ("join_weight", Json::Int(defaults.join_weight as i64)),
                ("leave_weight", Json::Int(defaults.leave_weight as i64)),
                ("join_links", Json::Int(defaults.join_links as i64)),
            ]),
        ),
        ("cells", Json::Arr(cells)),
        (
            "hists",
            Json::Obj(
                hists
                    .iter()
                    .map(|h| (h.name.clone(), crate::report::hist_json(h)))
                    .collect(),
            ),
        ),
        ("violations", Json::Arr(violations.iter().map(|v| Json::Str(v.clone())).collect())),
        ("pass", Json::Bool(violations.is_empty())),
    ]);
    Ok(ChurnOutcome { report, violations })
}

/// Provenance for the churn results file.
#[must_use]
pub fn run_info(opts: &ChurnOptions) -> crate::manifest::RunInfo {
    crate::manifest::RunInfo::new(
        "churn",
        format!("max_n={}", opts.max_n),
        CHURN_SEED.to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest cell end to end: every step byte-identical and
    /// verify-equal, the refusal probe intact, and the report honest
    /// about it.
    #[test]
    fn smallest_cell_is_clean_and_deterministic() {
        let opts = ChurnOptions { max_n: 32, ..ChurnOptions::default() };
        let first = churn_sweep(&opts, |_| {}).expect("sweep");
        assert!(first.violations.is_empty(), "violations: {:?}", first.violations);
        let second = churn_sweep(&opts, |_| {}).expect("sweep");
        assert_eq!(first.report.pretty(), second.report.pretty(), "sweep must be deterministic");
        let cells = first.report.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        let applied = cell.get("events_applied").and_then(Json::as_i64).expect("applied");
        assert!(applied > 0);
        let checks = cell.get("checks").expect("checks");
        assert_eq!(checks.get("byte_identical_steps").and_then(Json::as_i64), Some(applied));
        assert_eq!(checks.get("verify_equal_steps").and_then(Json::as_i64), Some(applied));
        assert!(matches!(checks.get("refusal_probe"), Some(Json::Bool(true))));
    }
}
