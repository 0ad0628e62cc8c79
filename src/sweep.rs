//! The fault-intensity sweep behind `ort resilience`, plus its
//! trace-backed diagnostics.
//!
//! The sweep itself (every registry scheme, bare and wrapped in the
//! resilient detour adapter, against shared seeded link-fault loads on
//! three topologies) produces `results/RESILIENCE.json` exactly as
//! before. On top of it, when tracing is compiled in, every cell that
//! recorded *avoidable* losses gets an exemplar diagnosis: the first
//! avoidable-failed pair is re-routed in a fresh [`Network`] under a
//! filtered [`TraceRecorder`], the captured walk is replayed through
//! [`ort_routing::explain`], and the veto is matched back to the exact
//! [`FaultPlan`] event that fired. The result — one entry per
//! avoidable-loss bucket, plus exemplar references attached to every
//! acceptance violation — is returned separately so the main report
//! stays byte-identical whether or not tracing is enabled.
//!
//! Re-running a pair out of band is sound here because sweep plans are
//! static (every event fires at `t = 0` — exactly what
//! [`FaultPlan::random_link_faults`] produces), so a fresh network
//! reproduces the in-sweep walk bit for bit.

use std::sync::Arc;

use ort_telemetry::json::Json;
use ort_conformance::registry::SchemeId;
use ort_graphs::paths::Apsp;
use ort_graphs::ports::PortAssignment;
use ort_graphs::{generators, Graph, NodeId};
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::resilient::ResilientScheme;
use ort_simnet::faults::FaultPlan;
use ort_simnet::resilience::{
    acceptance_violations, resilience_hop_limit, run_cell, SweepCell, CELL_CAPACITY, CELL_RETRY,
    CELL_TTL,
};
use ort_simnet::{FailureBreakdown, Network};
use ort_telemetry::trace::{self as trace_api, TraceRecorder};

/// Seed for the sweep's fault loads (kept stable so result files are
/// reproducible).
pub const FAULT_SEED: u64 = 13;
/// The swept fault intensities (fraction of links cut).
pub const INTENSITIES: [f64; 4] = [0.0, 0.05, 0.15, 0.30];
/// Cap on rendered trace lines per diagnostics exemplar (the structured
/// fields are never truncated; `trace_truncated` flags a capped render).
const TRACE_LINE_CAP: usize = 48;

/// Everything `ort resilience` needs to write and judge a run.
pub struct SweepOutcome {
    /// The `results/RESILIENCE.json` report (unchanged by tracing).
    pub report: Json,
    /// Acceptance violations (empty ⇒ exit 0).
    pub violations: Vec<String>,
    /// The trace-backed diagnostics report, or `None` when tracing is
    /// compiled out (`--no-default-features`).
    pub diagnostics: Option<Json>,
}

fn breakdown(b: &FailureBreakdown) -> Json {
    Json::Obj(b.entries().iter().map(|&(k, v)| (k.to_string(), Json::Int(v as i64))).collect())
}

fn opt_num(x: Option<f64>) -> Json {
    x.map_or(Json::Null, Json::Num)
}

/// The matching key of a diagnosed exemplar, for attaching exemplar
/// indices to the acceptance violations that name the same cell.
struct Exemplar {
    topology: String,
    scheme: String,
}

/// The sweep: every registry scheme, bare and wrapped, against the same
/// seeded link-fault loads of increasing intensity on three topologies.
///
/// # Errors
///
/// Returns a message when a cell's fault plan is rejected or an exemplar
/// diagnosis is internally inconsistent (both indicate a bug, not bad
/// input).
pub fn resilience_sweep(
    verbose: bool,
    mut progress: impl FnMut(&str),
) -> Result<SweepOutcome, String> {
    let topologies: Vec<(&str, Graph)> = vec![
        ("gnp32", generators::gnp_half(32, 3)),
        ("grid6x6", generators::grid(6, 6)),
        ("path24", generators::path(24)),
    ];
    let mut cells: Vec<SweepCell> = Vec::new();
    let mut refusals: Vec<Json> = Vec::new();
    let mut loads: Vec<Json> = Vec::new();
    let mut exemplar_entries: Vec<Json> = Vec::new();
    let mut exemplar_keys: Vec<Exemplar> = Vec::new();
    for (tname, g) in &topologies {
        let oracle = Apsp::compute(g);
        let pa = PortAssignment::sorted(g);
        // One shared plan per (topology, intensity): every scheme faces the
        // same broken links, so cells are comparable.
        let plans: Vec<FaultPlan> = INTENSITIES
            .iter()
            .enumerate()
            .map(|(i, &x)| FaultPlan::random_link_faults(&pa, x, FAULT_SEED + i as u64))
            .collect();
        for (i, &intensity) in INTENSITIES.iter().enumerate() {
            loads.push(Json::obj(vec![
                ("topology", Json::Str((*tname).into())),
                ("intensity", Json::Num(intensity)),
                ("seed", Json::Int((FAULT_SEED + i as u64) as i64)),
                ("links_down", Json::Int(plans[i].len() as i64)),
            ]));
            if verbose {
                println!("{tname} fault plan at intensity {intensity}:");
                print!("{}", plans[i]);
            }
        }
        for id in SchemeId::ALL {
            let bare = match id.build_with_dists(g, &oracle) {
                Ok(s) => s,
                Err(e) => {
                    progress(&format!("{tname}/{}: refused ({e})", id.name()));
                    refusals.push(Json::obj(vec![
                        ("topology", Json::Str((*tname).into())),
                        ("scheme", Json::Str(id.name().into())),
                        ("reason", Json::Str(e.to_string())),
                    ]));
                    continue;
                }
            };
            let wrapped =
                ResilientScheme::wrap(id.build_with_dists(g, &oracle).expect("built once already"));
            progress(&format!("{tname}/{}: sweeping {} intensities", id.name(), INTENSITIES.len()));
            for (i, &intensity) in INTENSITIES.iter().enumerate() {
                for (is_wrapped, scheme) in
                    [(false, bare.as_ref()), (true, &wrapped as &dyn RoutingScheme)]
                {
                    let (metrics, hop_stats, round_report) =
                        run_cell(scheme, &oracle, &plans[i]).map_err(|e| e.to_string())?;
                    if verbose {
                        println!(
                            "{tname}/{}{} at intensity {intensity}:",
                            id.name(),
                            if is_wrapped { " (wrapped)" } else { "" }
                        );
                        println!("  hop-level face:");
                        println!("{hop_stats}");
                        println!("  round face:");
                        println!("{round_report}");
                    }
                    if ort_telemetry::enabled() {
                        if let Some((s, t)) = metrics.first_avoidable {
                            exemplar_entries.push(diagnose_exemplar(
                                scheme, &oracle, &plans[i], tname, id.name(), is_wrapped,
                                intensity, s, t,
                            )?);
                            exemplar_keys.push(Exemplar {
                                topology: (*tname).into(),
                                scheme: id.name().into(),
                            });
                        }
                    }
                    cells.push(SweepCell {
                        topology: (*tname).into(),
                        n: g.node_count(),
                        intensity,
                        scheme: id.name().into(),
                        multipath: id == SchemeId::FullInformation,
                        wrapped: is_wrapped,
                        metrics,
                    });
                }
            }
        }
    }
    let violations = acceptance_violations(&cells);

    // Cross-cell value-domain distributions, built with plain local
    // histograms so the report is byte-identical with telemetry compiled
    // out. Cells are visited in their (deterministic) construction order.
    let mut delivery_h = ort_telemetry::LocalHist::new();
    let mut stretch_h = ort_telemetry::LocalHist::new();
    let mut retries_h = ort_telemetry::LocalHist::new();
    for c in &cells {
        delivery_h.record((c.metrics.delivery_ratio() * 1000.0).round() as u64);
        if let Some(s) = c.metrics.mean_stretch {
            stretch_h.record((s * 1000.0).round() as u64);
        }
        retries_h.record(c.metrics.retries);
    }
    let hists = [
        delivery_h.data("delivery_x1000"),
        retries_h.data("retries"),
        stretch_h.data("stretch_x1000"),
    ];
    if verbose {
        println!("cross-cell distributions:");
        for h in &hists {
            println!("  {:<18}{}", h.name, h.percentile_line());
        }
    }

    let cell_json: Vec<Json> = cells
        .iter()
        .map(|c| {
            // Stretch inflation is relative to the same scheme's fault-free
            // run on the same topology.
            let baseline = cells
                .iter()
                .find(|b| {
                    b.topology == c.topology
                        && b.scheme == c.scheme
                        && b.wrapped == c.wrapped
                        && b.intensity == 0.0
                })
                .and_then(|b| b.metrics.mean_stretch);
            let inflation = match (c.metrics.mean_stretch, baseline) {
                (Some(s), Some(b)) if b > 0.0 => Some(s / b),
                _ => None,
            };
            Json::obj(vec![
                ("topology", Json::Str(c.topology.clone())),
                ("n", Json::Int(c.n as i64)),
                ("intensity", Json::Num(c.intensity)),
                ("scheme", Json::Str(c.scheme.clone())),
                ("wrapped", Json::Bool(c.wrapped)),
                ("multipath", Json::Bool(c.multipath)),
                ("pairs", Json::Int(c.metrics.pairs as i64)),
                ("delivered", Json::Int(c.metrics.delivered as i64)),
                ("delivery_ratio", Json::Num(c.metrics.delivery_ratio())),
                ("reachable_delivery_ratio", Json::Num(c.metrics.reachable_delivery_ratio())),
                ("partition_detected", Json::Int(c.metrics.unreachable_failed as i64)),
                ("avoidable_failed", Json::Int(c.metrics.avoidable_failed as i64)),
                ("failures", breakdown(&c.metrics.failures)),
                ("reroutes", Json::Int(c.metrics.reroutes as i64)),
                ("mean_stretch", opt_num(c.metrics.mean_stretch)),
                ("stretch_inflation", opt_num(inflation)),
                ("rounds_to_drain", Json::Int(i64::from(c.metrics.rounds_to_drain))),
                ("round_delivered", Json::Int(c.metrics.round_delivered as i64)),
                ("round_failures", breakdown(&c.metrics.round_failures)),
                ("round_stranded", Json::Int(c.metrics.round_stranded as i64)),
                ("retries", Json::Int(c.metrics.retries as i64)),
                ("round_reroutes", Json::Int(c.metrics.round_reroutes as i64)),
                ("mean_latency", opt_num(c.metrics.mean_latency)),
                ("max_queue", Json::Int(c.metrics.max_queue as i64)),
            ])
        })
        .collect();

    let report = Json::obj(vec![
        ("suite", Json::Str("resilience".into())),
        (
            "config",
            Json::obj(vec![
                ("intensities", Json::Arr(INTENSITIES.iter().map(|&x| Json::Num(x)).collect())),
                ("fault_seed", Json::Int(FAULT_SEED as i64)),
                ("capacity", Json::Int(CELL_CAPACITY as i64)),
                ("ttl", Json::Int(i64::from(CELL_TTL))),
                (
                    "retry",
                    Json::obj(vec![
                        ("max_retries", Json::Int(i64::from(CELL_RETRY.max_retries))),
                        ("backoff_base", Json::Int(i64::from(CELL_RETRY.backoff_base))),
                        ("backoff_cap", Json::Int(i64::from(CELL_RETRY.backoff_cap))),
                    ]),
                ),
                ("hop_limit_n32", Json::Int(resilience_hop_limit(32) as i64)),
            ]),
        ),
        (
            "topologies",
            Json::Arr(
                topologies
                    .iter()
                    .map(|(name, g)| {
                        Json::obj(vec![
                            ("name", Json::Str((*name).into())),
                            ("n", Json::Int(g.node_count() as i64)),
                            ("edges", Json::Int(g.edge_count() as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("fault_loads", Json::Arr(loads)),
        ("refusals", Json::Arr(refusals)),
        ("cells", Json::Arr(cell_json)),
        (
            "hists",
            Json::Obj(hists.iter().map(|h| (h.name.clone(), Json::obj(h.json_fields()))).collect()),
        ),
        ("violations", Json::Arr(violations.iter().map(|v| Json::Str(v.clone())).collect())),
        ("pass", Json::Bool(violations.is_empty())),
    ]);

    let diagnostics = ort_telemetry::enabled().then(|| {
        // Attach exemplar references to every acceptance violation: an
        // exemplar is relevant when the violation names its topology and
        // scheme.
        let violation_json: Vec<Json> = violations
            .iter()
            .map(|v| {
                let refs: Vec<Json> = exemplar_keys
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| v.contains(&e.topology) && v.contains(&e.scheme))
                    .map(|(i, _)| Json::Int(i as i64))
                    .collect();
                Json::obj(vec![
                    ("violation", Json::Str(v.clone())),
                    ("exemplars", Json::Arr(refs)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("suite", Json::Str("resilience-diagnostics".into())),
            (
                "note",
                Json::Str(
                    "one traced exemplar per avoidable-loss bucket; exemplar indices \
                     attached to each acceptance violation"
                        .into(),
                ),
            ),
            ("avoidable_exemplars", Json::Arr(exemplar_entries)),
            ("violations", Json::Arr(violation_json)),
        ])
    });

    Ok(SweepOutcome { report, violations, diagnostics })
}

/// Re-routes one avoidable-failed pair under a filtered recorder and
/// explains the captured walk: stretch attribution per attempt, plus the
/// exact fault-plan event that vetoed the blocked hop.
#[allow(clippy::too_many_arguments)]
fn diagnose_exemplar(
    scheme: &dyn RoutingScheme,
    oracle: &Apsp,
    plan: &FaultPlan,
    topology: &str,
    scheme_name: &str,
    wrapped: bool,
    intensity: f64,
    src: NodeId,
    dst: NodeId,
) -> Result<Json, String> {
    let n = scheme.node_count();
    let recorder = TraceRecorder::for_pair(src, dst);
    {
        let _guard = trace_api::install(Arc::clone(&recorder));
        let mut net = Network::new(scheme);
        net.set_hop_limit(resilience_hop_limit(n));
        net.set_fault_plan(plan.clone()).map_err(|e| e.to_string())?;
        let _ = net.send(src, dst);
    }
    let messages = recorder.messages();
    let trace = messages
        .first()
        .ok_or_else(|| format!("exemplar re-run of {src} -> {dst} captured no trace"))?;
    let ex = ort_routing::explain::explain(oracle, trace)?;
    if !ex.reconciles() {
        return Err(format!(
            "exemplar attribution for {topology}/{scheme_name} {src} -> {dst} does not \
             reconcile (explainer and walk disagree; this is a bug)"
        ));
    }
    // Name the exact scheduled fault behind the first veto, if the walk
    // was stopped by the fault layer at all.
    let fault_event = ex
        .attempts
        .iter()
        .find_map(|a| a.blocked.as_ref())
        .and_then(|b| plan.blocking_event(b.time, b.node, b.to, b.fault))
        .map(|tf| format!("t={} {}", tf.at, tf.event));
    let attempts: Vec<Json> = ex
        .attempts
        .iter()
        .map(|a| {
            Json::obj(vec![
                ("attempt", Json::Int(i64::from(a.attempt))),
                ("hops", Json::Int(i64::from(a.hops))),
                ("excess", Json::Int(a.total_excess as i64)),
                (
                    "divergence",
                    a.divergence.map_or(Json::Null, |i| Json::Int(i as i64)),
                ),
                ("outcome", Json::Str(a.outcome.clone())),
            ])
        })
        .collect();
    let full = crate::trace::render(&ex);
    let mut lines: Vec<Json> =
        full.lines().take(TRACE_LINE_CAP).map(|l| Json::Str(l.to_string())).collect();
    let truncated = full.lines().count() > TRACE_LINE_CAP;
    if truncated {
        lines.push(Json::Str(format!(
            "... ({} more lines)",
            full.lines().count() - TRACE_LINE_CAP
        )));
    }
    Ok(Json::obj(vec![
        ("topology", Json::Str(topology.into())),
        ("scheme", Json::Str(scheme_name.into())),
        ("wrapped", Json::Bool(wrapped)),
        ("intensity", Json::Num(intensity)),
        ("src", Json::Int(src as i64)),
        ("dst", Json::Int(dst as i64)),
        ("distance", Json::Int(i64::from(ex.distance))),
        ("delivered", Json::Bool(ex.delivered)),
        ("fault_event", fault_event.map_or(Json::Null, Json::Str)),
        ("attempts", Json::Arr(attempts)),
        ("trace", Json::Arr(lines)),
        ("trace_truncated", Json::Bool(truncated)),
    ]))
}

/// The diagnostics output path for a given report path:
/// `results/RESILIENCE.json` → `results/RESILIENCE_DIAGNOSTICS.json`.
#[must_use]
pub fn diagnostics_path(out: &str) -> String {
    format!("{}_DIAGNOSTICS.json", out.strip_suffix(".json").unwrap_or(out))
}

fn fault_seeds() -> String {
    (0..INTENSITIES.len() as u64)
        .map(|i| (FAULT_SEED + i).to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Provenance for the sweep's results file.
#[must_use]
pub fn run_info() -> crate::manifest::RunInfo {
    crate::manifest::RunInfo::new(
        "resilience",
        "topologies=gnp32,grid6x6,path24 intensities=0,0.05,0.15,0.3",
        fault_seeds(),
    )
}

/// Provenance for the diagnostics file.
#[must_use]
pub fn diagnostics_info() -> crate::manifest::RunInfo {
    crate::manifest::RunInfo::new(
        "resilience-diagnostics",
        "topologies=gnp32,grid6x6,path24 intensities=0,0.05,0.15,0.3",
        fault_seeds(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_path_is_adjacent() {
        assert_eq!(
            diagnostics_path("results/RESILIENCE.json"),
            "results/RESILIENCE_DIAGNOSTICS.json"
        );
        assert_eq!(diagnostics_path("out"), "out_DIAGNOSTICS.json");
    }
}
