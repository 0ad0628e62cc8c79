//! `ort profile` — one fully instrumented run of a single scheme.
//!
//! The run is the CLI's observability showcase: it resets the telemetry
//! registry, executes graph generation → scheme construction → delivery
//! verification → bit accounting under nested spans, and renders
//!
//! * the aggregated **span tree** (every construction phase with call
//!   counts and wall-clock nanoseconds),
//! * the **counter table** (frontier expansions, oracle reuse, …),
//! * the **per-node bit breakdown** — routing-function bits vs
//!   port-permutation bits vs label bits, which reconcile *exactly* with
//!   [`total_size_bits`]; any mismatch is an encoder bug and the profile
//!   refuses to print.
//!
//! [`total_size_bits`]: ort_routing::scheme::RoutingScheme::total_size_bits
//!
//! The same rendered report is returned as a string so tests can assert
//! on its shape without capturing stdout.

use ort_conformance::registry::SchemeId;
use ort_graphs::generators;
use ort_graphs::paths::{Apsp, ApspEngine};
use ort_routing::accounting::BitBreakdown;
use ort_routing::verify;
use ort_telemetry::FieldValue;

/// The rendered profile plus the headline numbers tests assert on.
#[derive(Debug)]
pub struct ProfileReport {
    /// The human-readable report (span tree, counters, bit table).
    pub text: String,
    /// Distinct span paths recorded during the run.
    pub distinct_phases: usize,
    /// The scheme's total charged bits — equals the bit table's total row.
    pub bits_total: usize,
}

/// Runs `scheme_name` on `G(n, 1/2)` with `seed` under full
/// instrumentation and renders the profile.
///
/// # Errors
///
/// Returns a message if the scheme name is unknown, the scheme refuses
/// the graph, verification fails to run, or the bit breakdown does not
/// reconcile with the scheme's charged total.
pub fn run_profile(scheme_name: &str, n: usize, seed: u64) -> Result<ProfileReport, String> {
    let id = SchemeId::from_name(scheme_name)
        .ok_or_else(|| format!("unknown scheme '{scheme_name}'; try `ort schemes`"))?;

    ort_telemetry::reset();
    let (scheme, verify_report, breakdown) = {
        let _profile = ort_telemetry::span_with(
            "profile",
            &[
                ("scheme", FieldValue::Str(id.name())),
                ("n", FieldValue::Int(n as u64)),
                ("seed", FieldValue::Int(seed)),
            ],
        );
        let g = {
            let _s = ort_telemetry::span("profile.graph");
            generators::gnp_half(n, seed)
        };
        let apsp = {
            let _s = ort_telemetry::span("profile.apsp");
            Apsp::compute(&g)
        };
        let scheme = {
            let _s = ort_telemetry::span("profile.build");
            id.build_with_dists(&g, &apsp)
                .map_err(|e| format!("{scheme_name} refused G({n}, 1/2) seed {seed}: {e}"))?
        };
        let verify_report = {
            let _s = ort_telemetry::span("profile.verify");
            verify::verify(&g, scheme.as_ref(), &apsp, if n >= 256 { 7 } else { 1 })
                .map_err(|e| e.to_string())?
        };
        let breakdown = {
            let _s = ort_telemetry::span("profile.accounting");
            BitBreakdown::of(scheme.as_ref())
        };
        (scheme, verify_report, breakdown)
    };
    let snap = ort_telemetry::snapshot();

    if breakdown.total() != scheme.total_size_bits() {
        return Err(format!(
            "bit breakdown does not reconcile: {} != total_size_bits() {}",
            breakdown.total(),
            scheme.total_size_bits()
        ));
    }

    let mut text = String::new();
    text.push_str(&format!(
        "== ort profile: {} on G({n}, 1/2) seed {seed} [model {}] ==\n\n",
        id.name(),
        scheme.model()
    ));
    if ort_telemetry::enabled() {
        text.push_str(&snap.summary_tree());
    } else {
        text.push_str(
            "telemetry is compiled out (built without the `telemetry` feature); \
             span tree and counters are empty\n",
        );
    }

    text.push_str("\nbit accounting (per node, bits):\n");
    text.push_str(&format!(
        "  {:>5} {:>12} {:>10} {:>8} {:>12}\n",
        "node", "routing", "port-perm", "label", "total"
    ));
    for (u, b) in breakdown.nodes.iter().enumerate() {
        text.push_str(&format!(
            "  {:>5} {:>12} {:>10} {:>8} {:>12}\n",
            u,
            b.routing,
            b.port_permutation,
            b.label,
            b.total()
        ));
    }
    text.push_str(&format!(
        "  {:>5} {:>12} {:>10} {:>8} {:>12}\n",
        "total",
        breakdown.routing_bits(),
        breakdown.port_permutation_bits(),
        breakdown.label_bits(),
        breakdown.total()
    ));
    text.push_str(&format!(
        "  table size: {} bits (breakdown reconciles exactly); max node: {} bits\n",
        scheme.total_size_bits(),
        breakdown.max_node_bits()
    ));

    text.push_str(&format!(
        "\nverification: {} pairs, {} failures, max stretch {:?}\n",
        verify_report.delivered,
        verify_report.failures.len(),
        verify_report.max_stretch()
    ));

    // Value-domain distributions recorded during the run (hop counts,
    // stretch, per-node bits): exact counts, log-bucketed percentiles.
    let value_hists: Vec<_> = snap.hists.iter().filter(|h| !h.timing).collect();
    if !value_hists.is_empty() {
        text.push_str("\ndistributions (value domains, exact counts):\n");
        for h in value_hists {
            text.push_str(&format!("  {:<28}{}\n", h.name, h.percentile_line()));
        }
    }

    let distinct_phases = snap.span_paths().len();
    text.push_str(&format!("distinct phases recorded: {distinct_phases}\n"));

    Ok(ProfileReport { text, distinct_phases, bits_total: breakdown.total() })
}

/// Multiplicative headroom a measured APSP region peak may sit above its
/// analytic claim (store + engine scratch). The claim is a guaranteed
/// lower bound; the slack absorbs allocator rounding and per-row
/// traversal transients the analytic model deliberately omits.
pub const MEM_SLACK_APSP: f64 = 1.5;
/// Multiplicative headroom for the build phase's *net* allocation above
/// the scheme's charged table bytes: runtime representations carry `Vec`
/// capacities, per-node structs and decoded indices next to the packed
/// bits, so the factor is generous — the check is a "tables are not an
/// order of magnitude fatter than charged" tripwire.
pub const MEM_SLACK_BUILD: f64 = 16.0;
/// Per-edge byte allowance added to the build cap. The paper's local
/// routing model charges *label* bits only; port assignments and other
/// adjacency-derived structures (O(m) by construction — measured at
/// ~16 B/edge for [`ort_graphs::ports::PortAssignment`]'s two entries
/// per undirected edge) are deliberately outside `total_size_bits`, so
/// the measured net of a sublinear-bit scheme legitimately sits an
/// adjacency-sized term above its charged bytes.
pub const MEM_BUILD_EDGE_OVERHEAD: u64 = 32;
/// Absolute headroom added to every claim: size-independent transients
/// (hist registration, span bookkeeping, small scratch vectors).
pub const MEM_ABS_SLACK: u64 = 256 * 1024;

/// One row of the `--mem` reconciliation table.
struct MemPhase {
    phase: &'static str,
    /// Analytic figure the measured value must cover, if the phase has one.
    claimed: Option<u64>,
    /// The measured value the claim is checked against (`region peak` for
    /// peak claims, `net` for the build phase's retained-bytes claim).
    audited: u64,
    /// Upper cap on `audited` (claim × slack + modelled allowances);
    /// meaningful only when `claimed` is `Some`.
    cap: u64,
    peak: u64,
    net: i64,
}

/// As [`run_profile`], additionally auditing every phase's memory
/// against the instrumented allocator (`ort profile --mem`).
///
/// The APSP runs on one thread (`Apsp::compute_with(.., 1)`), and the
/// build and verify phases both read that one oracle, so region
/// attribution is exact.
/// Each phase runs inside a [`ort_telemetry::alloc::mem_span`] region;
/// phases with an analytic model — the APSP store + engine scratch, the
/// scheme's charged table bytes — are reconciled against the measured
/// figures and the profile *refuses* when `measured < claimed`
/// (the analytic model overstates what the code allocates: the claim is
/// broken) or `measured > claimed × slack + abs` (the code allocates more
/// than the model admits: a leak or an unaccounted buffer).
///
/// When the allocator is compiled out (`--no-default-features`) the
/// normal profile runs and a note marks the audit as skipped.
///
/// # Errors
///
/// As [`run_profile`], plus a message naming the first phase whose
/// measured memory does not reconcile with its claim.
pub fn run_profile_mem(scheme_name: &str, n: usize, seed: u64) -> Result<ProfileReport, String> {
    use ort_telemetry::alloc;

    let id = SchemeId::from_name(scheme_name)
        .ok_or_else(|| format!("unknown scheme '{scheme_name}'; try `ort schemes`"))?;
    if !alloc::installed() {
        let mut report = run_profile(scheme_name, n, seed)?;
        report.text.push_str(
            "\nmemory audit: allocator instrumentation compiled out \
             (--no-default-features); measured/claimed reconciliation skipped\n",
        );
        return Ok(report);
    }

    ort_telemetry::reset();
    let mut phases: Vec<MemPhase> = Vec::new();
    let (scheme, verify_report, breakdown) = {
        let _profile = ort_telemetry::span_with(
            "profile",
            &[
                ("scheme", FieldValue::Str(id.name())),
                ("n", FieldValue::Int(n as u64)),
                ("seed", FieldValue::Int(seed)),
                ("mem", FieldValue::Int(1)),
            ],
        );
        let region = alloc::mem_span("profile.graph");
        let g = {
            let _s = ort_telemetry::span("profile.graph");
            generators::gnp_half(n, seed)
        };
        let rec = region.finish();
        phases.push(MemPhase {
            phase: "graph",
            claimed: None,
            audited: rec.region_peak_bytes,
            cap: 0,
            peak: rec.region_peak_bytes,
            net: rec.net_bytes,
        });

        // Serial APSP: the one phase whose analytic claim (store at the
        // compact width + the resolved engine's scratch) is a guaranteed
        // lower bound on what the allocator must observe.
        let region = alloc::mem_span("profile.apsp");
        let apsp = {
            let _s = ort_telemetry::span("profile.apsp");
            Apsp::compute_with(&g, ApspEngine::Auto, 1)
        };
        let rec = region.finish();
        let apsp_claim = (apsp.heap_bytes() + ApspEngine::Auto.scratch_bytes(&g, n)) as u64;
        phases.push(MemPhase {
            phase: "apsp.compute",
            claimed: Some(apsp_claim),
            audited: rec.region_peak_bytes,
            cap: (apsp_claim as f64 * MEM_SLACK_APSP) as u64 + MEM_ABS_SLACK,
            peak: rec.region_peak_bytes,
            net: rec.net_bytes,
        });

        // Build over the already-materialised distances, with the APSP
        // cost attributed to its own phase above instead of hiding inside
        // the build.
        let region = alloc::mem_span("profile.build");
        let scheme = {
            let _s = ort_telemetry::span("profile.build");
            id.build_with_dists(&g, &apsp)
                .map_err(|e| format!("{scheme_name} refused G({n}, 1/2) seed {seed}: {e}"))?
        };
        let rec = region.finish();
        let table_claim = (scheme.total_size_bits().div_ceil(8)) as u64;
        phases.push(MemPhase {
            phase: "build",
            claimed: Some(table_claim),
            audited: rec.net_bytes.max(0) as u64,
            cap: (table_claim as f64 * MEM_SLACK_BUILD) as u64
                + MEM_BUILD_EDGE_OVERHEAD * g.edge_count() as u64
                + MEM_ABS_SLACK,
            peak: rec.region_peak_bytes,
            net: rec.net_bytes,
        });

        let region = alloc::mem_span("profile.verify");
        let verify_report = {
            let _s = ort_telemetry::span("profile.verify");
            verify::verify(&g, scheme.as_ref(), &apsp, if n >= 256 { 7 } else { 1 })
                .map_err(|e| e.to_string())?
        };
        let rec = region.finish();
        phases.push(MemPhase {
            phase: "verify",
            claimed: None,
            audited: rec.region_peak_bytes,
            cap: 0,
            peak: rec.region_peak_bytes,
            net: rec.net_bytes,
        });

        let region = alloc::mem_span("profile.accounting");
        let breakdown = {
            let _s = ort_telemetry::span("profile.accounting");
            BitBreakdown::of(scheme.as_ref())
        };
        let rec = region.finish();
        phases.push(MemPhase {
            phase: "accounting",
            claimed: None,
            audited: rec.region_peak_bytes,
            cap: 0,
            peak: rec.region_peak_bytes,
            net: rec.net_bytes,
        });
        (scheme, verify_report, breakdown)
    };
    let snap = ort_telemetry::snapshot();

    if breakdown.total() != scheme.total_size_bits() {
        return Err(format!(
            "bit breakdown does not reconcile: {} != total_size_bits() {}",
            breakdown.total(),
            scheme.total_size_bits()
        ));
    }

    let mut text = String::new();
    text.push_str(&format!(
        "== ort profile --mem: {} on G({n}, 1/2) seed {seed} [model {}] ==\n\n",
        id.name(),
        scheme.model()
    ));
    text.push_str("memory audit (instrumented allocator, serial run):\n");
    text.push_str(&format!(
        "  {:<14} {:>12} {:>14} {:>14}  {}\n",
        "phase", "claimed B", "peak B", "net B", "status"
    ));
    let mut violations = Vec::new();
    for p in &phases {
        let status = match p.claimed {
            None => "-".to_string(),
            Some(claimed) => {
                let cap = p.cap;
                if p.audited < claimed {
                    violations.push(format!(
                        "{}: measured {} B under the analytic claim {} B — \
                         the claim overstates what the code allocates",
                        p.phase, p.audited, claimed
                    ));
                    "FAIL (under claim)".to_string()
                } else if p.audited > cap {
                    violations.push(format!(
                        "{}: measured {} B exceeds the analytic claim {} B beyond \
                         slack (cap {} B) — unaccounted allocation",
                        p.phase, p.audited, claimed, cap
                    ));
                    "FAIL (over cap)".to_string()
                } else {
                    format!("OK ({:.2}x)", p.audited as f64 / claimed.max(1) as f64)
                }
            }
        };
        text.push_str(&format!(
            "  {:<14} {:>12} {:>14} {:>14}  {}\n",
            p.phase,
            p.claimed.map_or("-".to_string(), |c| c.to_string()),
            p.peak,
            p.net,
            status
        ));
    }
    text.push_str(&format!(
        "  process: live {} B, peak {} B, {} allocations\n",
        alloc::live_bytes(),
        alloc::peak_bytes(),
        alloc::total_allocations()
    ));

    text.push_str(&format!(
        "\nverification: {} pairs, {} failures, max stretch {:?}\n",
        verify_report.delivered,
        verify_report.failures.len(),
        verify_report.max_stretch()
    ));
    let distinct_phases = snap.span_paths().len();
    text.push_str(&format!("distinct phases recorded: {distinct_phases}\n"));

    if let Some(v) = violations.first() {
        return Err(format!("memory audit failed: {v}"));
    }
    text.push_str("memory audit: PASS (every claimed phase reconciles)\n");

    Ok(ProfileReport { text, distinct_phases, bits_total: breakdown.total() })
}
