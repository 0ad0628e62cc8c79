//! The capture-and-explain run behind `ort trace`.
//!
//! One invocation builds a scheme on a seeded `G(n, 1/2)` graph, routes a
//! single pair under an installed
//! [`TraceRecorder`], replays the
//! captured walk through [`ort_routing::explain`], and renders the trace
//! tree with per-hop stretch attribution. The whole run — construction,
//! worst-pair selection and explanation — shares **one** APSP computation
//! (`SchemeId::build_with_dists` + `verify::verify` over one `Apsp`).
//!
//! The renderer *refuses* a non-reconciling attribution: if
//! `Σ excess != hops + dist_at_end − dist(src, dst)` the run errors out
//! instead of printing numbers that do not add up.

use std::fmt::Write as _;
use std::sync::Arc;

use ort_conformance::registry::SchemeId;
use ort_graphs::generators;
use ort_graphs::paths::Apsp;
use ort_routing::explain::{self, AttemptExplanation, Explanation};
use ort_routing::verify;
use ort_telemetry::trace::{self as trace_api, TraceRecorder};

/// Which pair `ort trace` should capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTarget {
    /// An explicit `(src, dst)` pair.
    Pair(usize, usize),
    /// The maximum-stretch delivered pair, read off the verifier's report
    /// (no rescan — the verification already knows it).
    Worst,
}

/// Runs one trace capture and returns the rendered report.
///
/// # Errors
///
/// Returns a message for unknown schemes, out-of-range nodes, refused
/// constructions, failed captures, and attributions that do not
/// reconcile.
pub fn run_trace(
    name: &str,
    n: usize,
    seed: u64,
    target: TraceTarget,
) -> Result<String, String> {
    if !ort_telemetry::enabled() {
        return Err(
            "tracing is compiled out (built without the `telemetry` feature)".to_string()
        );
    }
    let id = SchemeId::from_name(name)
        .ok_or_else(|| format!("unknown scheme '{name}'; try `ort schemes`"))?;
    let g = generators::gnp_half(n, seed);
    // The single APSP of the run: construction, worst-pair verification
    // and the explainer all read from this oracle.
    let oracle = Apsp::compute(&g);
    let scheme = id.build_with_dists(&g, &oracle).map_err(|e| e.to_string())?;

    let mut header = format!("trace {name} on G({n}, 1/2) seed {seed}\n");
    let (src, dst) = match target {
        TraceTarget::Pair(s, t) => {
            if s >= n || t >= n {
                return Err(format!("node ids must be below n = {n}"));
            }
            if s == t {
                return Err("src and dst must differ".to_string());
            }
            (s, t)
        }
        TraceTarget::Worst => {
            let report = verify::verify(&g, scheme.as_ref(), &oracle, 1)
                .map_err(|e| e.to_string())?;
            let (s, t, hops, dist) = report
                .worst
                .ok_or("no delivered pair at distance >= 1 to pick a worst pair from")?;
            let _ = writeln!(
                header,
                "worst pair by stretch: {s} -> {t} ({hops} hops over distance {dist}, \
                 stretch {:.3})",
                f64::from(hops) / f64::from(dist)
            );
            (s, t)
        }
    };

    let recorder = TraceRecorder::for_pair(src, dst);
    let walk = {
        let _guard = trace_api::install(Arc::clone(&recorder));
        verify::route_pair(scheme.as_ref(), src, dst, verify::default_hop_limit(n))
    };
    let messages = recorder.messages();
    let trace = messages.first().ok_or("no trace captured (recorder saw no events)")?;
    let explanation = explain::explain(&oracle, trace)?;
    if !explanation.reconciles() {
        return Err(format!(
            "attribution does not reconcile for {src} -> {dst}: refusing to render \
             (explainer and walk disagree; this is a bug)"
        ));
    }
    if let Err(failure) = walk {
        let _ = writeln!(header, "walk failed: {failure}");
    }
    Ok(format!("{header}{}", render(&explanation)))
}

/// Renders an explained trace as the `ort trace` tree: one line per hop
/// with its distance movement and excess charge, a divergence marker, and
/// a reconciliation footer per attempt.
#[must_use]
pub fn render(ex: &Explanation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} -> {}  distance {}  {}",
        ex.src,
        ex.dst,
        ex.distance,
        if ex.delivered { "delivered" } else { "NOT delivered" }
    );
    for attempt in &ex.attempts {
        render_attempt(&mut out, ex, attempt);
    }
    out
}

fn render_attempt(out: &mut String, ex: &Explanation, a: &AttemptExplanation) {
    let _ = writeln!(out, "+- attempt {} ({})", a.attempt, a.outcome);
    for (i, h) in a.per_hop.iter().enumerate() {
        let marker = match (a.divergence == Some(i), h.rank) {
            (true, _) => "  <- diverges from shortest path",
            (false, r) if r > 0 => "  (failover)",
            _ => "",
        };
        let _ = writeln!(
            out,
            "|  #{:<3} {:>4} --p{}--> {:<4} dist {} -> {}  excess +{}{marker}",
            h.seq, h.from, h.rank, h.to, h.dist_before, h.dist_after, h.excess
        );
    }
    if let Some(b) = &a.blocked {
        let _ = writeln!(out, "|  blocked at {} -> {}: {} (t={})", b.node, b.to, b.fault, b.time);
    }
    let reconciled = if a.reconciles(ex.distance) { "reconciles" } else { "DOES NOT RECONCILE" };
    let _ = writeln!(
        out,
        "+- attribution: {} hops = distance {} + excess {} ({reconciled})",
        a.hops, ex.distance, a.total_excess
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_pair_renders_a_reconciling_tree() {
        if !ort_telemetry::enabled() {
            assert!(run_trace("full-table", 16, 1, TraceTarget::Pair(0, 5))
                .unwrap_err()
                .contains("compiled out"));
            return;
        }
        let out = run_trace("full-table", 16, 1, TraceTarget::Pair(0, 5)).unwrap();
        assert!(out.contains("trace full-table"), "{out}");
        assert!(out.contains("delivered"), "{out}");
        assert!(out.contains("(reconciles)"), "{out}");
        assert!(!out.contains("DOES NOT RECONCILE"), "{out}");
    }

    #[test]
    fn worst_pair_comes_from_the_report() {
        if !ort_telemetry::enabled() {
            return;
        }
        let out = run_trace("theorem4", 32, 2, TraceTarget::Worst).unwrap();
        assert!(out.contains("worst pair by stretch"), "{out}");
        assert!(out.contains("(reconciles)"), "{out}");
    }

    #[test]
    fn bad_inputs_are_rejected() {
        if !ort_telemetry::enabled() {
            return;
        }
        assert!(run_trace("no-such", 16, 1, TraceTarget::Worst).is_err());
        assert!(run_trace("full-table", 16, 1, TraceTarget::Pair(0, 16)).is_err());
        assert!(run_trace("full-table", 16, 1, TraceTarget::Pair(3, 3)).is_err());
    }
}
