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
use ort_telemetry::alloc::{self, MemSpanRecord};
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

/// Runs `scheme_name` on `G(n, 1/2)` with `seed` under full
/// instrumentation and renders the profile. Five phases — graph, APSP,
/// build, verify, accounting — each run inside one span and one
/// [`alloc::mem_span`] region.
///
/// With `mem` (`ort profile --mem`) the run also audits every phase's
/// memory against the instrumented allocator. The APSP then runs on one
/// thread (`Apsp::compute_with(.., 1)`), and the build and verify phases
/// both read that one oracle, so region attribution is exact. Phases with
/// an analytic model — the APSP store + engine scratch, the scheme's
/// charged table bytes — are reconciled against the measured figures,
/// and the profile *refuses* when `measured < claimed` (the analytic
/// model overstates what the code allocates: the claim is broken) or
/// `measured > claimed × slack + abs` (the code allocates more than the
/// model admits: a leak or an unaccounted buffer). When the allocator is
/// compiled out (`--no-default-features`) a note marks the audit as
/// skipped.
///
/// # Errors
///
/// Returns a message if the scheme name is unknown, the scheme refuses
/// the graph, verification fails to run, the bit breakdown does not
/// reconcile with the scheme's charged total, or (with `mem`) a phase's
/// measured memory does not reconcile with its claim.
pub fn run_profile(
    scheme_name: &str,
    n: usize,
    seed: u64,
    mem: bool,
) -> Result<ProfileReport, String> {
    let id = SchemeId::from_name(scheme_name)
        .ok_or_else(|| format!("unknown scheme '{scheme_name}'; try `ort schemes`"))?;
    let audit = mem && alloc::installed();

    ort_telemetry::reset();
    let mut regions = Vec::new();
    let (g, apsp, scheme, verify_report, breakdown) = {
        let mut fields = vec![
            ("scheme", FieldValue::Str(id.name())),
            ("n", FieldValue::Int(n as u64)),
            ("seed", FieldValue::Int(seed)),
        ];
        if audit {
            fields.push(("mem", FieldValue::Int(1)));
        }
        let _profile = ort_telemetry::span_with("profile", &fields);
        let g = phase("profile.graph", &mut regions, || generators::gnp_half(n, seed));
        // The audited claim (store at the compact width + the resolved
        // engine's scratch) is a lower bound for a serial compute only.
        let apsp = phase("profile.apsp", &mut regions, || {
            if audit {
                Apsp::compute_with(&g, 1)
            } else {
                Apsp::compute(&g)
            }
        });
        let scheme = phase("profile.build", &mut regions, || id.build_with_dists(&g, &apsp))
            .map_err(|e| format!("{scheme_name} refused G({n}, 1/2) seed {seed}: {e}"))?;
        let verify_report = phase("profile.verify", &mut regions, || {
            verify::verify(&g, scheme.as_ref(), &apsp, if n >= 256 { 7 } else { 1 })
        })
        .map_err(|e| e.to_string())?;
        let breakdown =
            phase("profile.accounting", &mut regions, || BitBreakdown::of(scheme.as_ref()));
        (g, apsp, scheme, verify_report, breakdown)
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
        "== ort profile{}: {} on G({n}, 1/2) seed {seed} [model {}] ==\n\n",
        if audit { " --mem" } else { "" },
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

    let violations = if audit {
        // The APSP claim bounds the region's peak; the table claim bounds
        // what the build retains.
        let apsp_claim = (apsp.heap_bytes() + ApspEngine::Auto.scratch_bytes(&g, n)) as u64;
        let table_claim = scheme.total_size_bits().div_ceil(8) as u64;
        let claims = [
            None,
            Some(Claim {
                claimed: apsp_claim,
                audited: regions[1].region_peak_bytes,
                cap: (apsp_claim as f64 * MEM_SLACK_APSP) as u64 + MEM_ABS_SLACK,
            }),
            Some(Claim {
                claimed: table_claim,
                audited: regions[2].net_bytes.max(0) as u64,
                cap: (table_claim as f64 * MEM_SLACK_BUILD) as u64
                    + MEM_BUILD_EDGE_OVERHEAD * g.edge_count() as u64
                    + MEM_ABS_SLACK,
            }),
            None,
            None,
        ];
        audit_table(&mut text, &regions, &claims)
    } else {
        Vec::new()
    };

    let distinct_phases = snap.span_paths().len();
    text.push_str(&format!("distinct phases recorded: {distinct_phases}\n"));

    if mem && !audit {
        text.push_str(
            "\nmemory audit: allocator instrumentation compiled out \
             (--no-default-features); measured/claimed reconciliation skipped\n",
        );
    } else if let Some(v) = violations.first() {
        return Err(format!("memory audit failed: {v}"));
    } else if audit {
        text.push_str("memory audit: PASS (every claimed phase reconciles)\n");
    }

    Ok(ProfileReport { text, distinct_phases, bits_total: breakdown.total() })
}

/// Runs one profile phase inside its allocator region and its span, and
/// keeps the region's record.
fn phase<T>(name: &'static str, regions: &mut Vec<MemSpanRecord>, f: impl FnOnce() -> T) -> T {
    let region = alloc::mem_span(name);
    let out = {
        let _s = ort_telemetry::span(name);
        f()
    };
    regions.push(region.finish());
    out
}

/// An analytic memory figure of one phase, checked against what the
/// allocator measured.
struct Claim {
    /// The analytic figure: a lower bound on `audited`.
    claimed: u64,
    /// The measured figure the claim describes.
    audited: u64,
    /// Upper cap on `audited`: the claim × slack plus modelled allowances.
    cap: u64,
}

/// Renders the `--mem` reconciliation table (one row per phase, with
/// that phase's claim, if it has one) into `text` and returns the
/// violations.
fn audit_table(
    text: &mut String,
    regions: &[MemSpanRecord],
    claims: &[Option<Claim>],
) -> Vec<String> {
    const PHASES: [&str; 5] = ["graph", "apsp.compute", "build", "verify", "accounting"];
    text.push_str("\nmemory audit (instrumented allocator, serial run):\n");
    text.push_str(&format!(
        "  {:<14} {:>12} {:>14} {:>14}  {}\n",
        "phase", "claimed B", "peak B", "net B", "status"
    ));
    let mut violations = Vec::new();
    for ((phase, rec), claim) in PHASES.iter().zip(regions).zip(claims) {
        let status = match claim {
            None => "-".to_string(),
            &Some(Claim { claimed, audited, cap }) => {
                if audited < claimed {
                    violations.push(format!(
                        "{phase}: measured {audited} B under the analytic claim {claimed} B — \
                         the claim overstates what the code allocates"
                    ));
                    "FAIL (under claim)".to_string()
                } else if audited > cap {
                    violations.push(format!(
                        "{phase}: measured {audited} B exceeds the analytic claim {claimed} B \
                         beyond slack (cap {cap} B) — unaccounted allocation"
                    ));
                    "FAIL (over cap)".to_string()
                } else {
                    format!("OK ({:.2}x)", audited as f64 / claimed.max(1) as f64)
                }
            }
        };
        text.push_str(&format!(
            "  {:<14} {:>12} {:>14} {:>14}  {}\n",
            phase,
            claim.as_ref().map_or("-".to_string(), |c| c.claimed.to_string()),
            rec.region_peak_bytes,
            rec.net_bytes,
            status
        ));
    }
    text.push_str(&format!(
        "  process: live {} B, peak {} B, {} allocations\n",
        alloc::live_bytes(),
        alloc::peak_bytes(),
        alloc::total_allocations()
    ));
    violations
}
