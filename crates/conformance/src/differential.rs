//! The cross-scheme differential oracle.
//!
//! On a given graph, every registered scheme ([`SchemeId::ALL`]) is built
//! from and verified against the same [`Apsp`] oracle, next to the same
//! [`FullTableScheme`] reference. Each runs through [`verify`], the one
//! verifier, and its report is read pair by pair:
//!
//! * the reference must deliver every pair in exactly the true distance
//!   (it is the trusted shortest-path baseline — if *it* disagrees with
//!   the APSP oracle, that is a finding in its own right);
//! * the scheme under test must deliver every pair, within its
//!   contractual hop cap ([`SchemeId::hop_cap`]) and never in fewer hops
//!   than the distance (beating APSP means the two disagree about the
//!   graph).
//!
//! Schemes may *refuse* a graph (the theorem constructions check their
//! Kolmogorov-randomness preconditions) — refusals are tallied, not
//! flagged: on random inputs the sweep asserts acceptance separately.

use ort_graphs::paths::Apsp;
use ort_graphs::Graph;
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::full_table::FullTableScheme;
use ort_routing::verify::{sampled_targets, verify, RouteFailure, VerifyReport};

use crate::registry::SchemeId;

/// One cross-check violation: the scheme and the reference disagree, or a
/// contractual cap is broken.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Scheme that disagreed.
    pub scheme: &'static str,
    /// Source node.
    pub s: usize,
    /// Target node.
    pub t: usize,
    /// Human-readable description of the violation.
    pub what: String,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} ({}, {})] {}", self.scheme, self.s, self.t, self.what)
    }
}

/// Per-scheme tally for one graph.
#[derive(Debug, Clone)]
pub struct SchemeDiff {
    /// Which scheme.
    pub id: SchemeId,
    /// `None` when the scheme accepted the graph; the refusal reason
    /// otherwise.
    pub refusal: Option<String>,
    /// Ordered pairs routed.
    pub pairs: usize,
    /// Pairs delivered.
    pub delivered: usize,
    /// Worst hops/distance ratio over delivered pairs (distance ≥ 1).
    pub max_stretch: Option<f64>,
    /// Violations found (empty for a conforming scheme).
    pub disagreements: Vec<Disagreement>,
}

/// Differential result over one graph: the per-scheme tallies.
#[derive(Debug, Clone)]
pub struct GraphDiff {
    /// Node count of the graph.
    pub n: usize,
    /// Violations of the full-table reference itself against the APSP
    /// oracle (checked once, not per scheme).
    pub reference_disagreements: Vec<Disagreement>,
    /// Per-scheme outcomes, in [`SchemeId::ALL`] order.
    pub schemes: Vec<SchemeDiff>,
}

impl GraphDiff {
    /// All violations: the reference's plus every scheme's.
    #[must_use]
    pub fn disagreements(&self) -> Vec<&Disagreement> {
        self.reference_disagreements
            .iter()
            .chain(self.schemes.iter().flat_map(|s| s.disagreements.iter()))
            .collect()
    }
}

/// Runs the differential oracle over `g`, checking every registered scheme
/// against the full-table reference on every `stride`-sampled ordered
/// pair (`stride == 1` ⇒ all pairs, the exhaustive mode).
///
/// Disconnected graphs are rejected by every constructor, so the result
/// is all-refusals there; callers enumerate connected graphs.
#[must_use]
pub fn diff_graph(g: &Graph, stride: usize) -> GraphDiff {
    let n = g.node_count();
    let oracle = Apsp::compute(g);
    let stride = stride.max(1);
    // Every builder refuses what `verify` refuses (an inexact or
    // mismatched oracle, a disconnected graph), so a scheme that built
    // always verifies.
    let verified = |scheme: &dyn RoutingScheme| {
        verify(g, scheme, &oracle, stride).expect("a built scheme meets verify's preconditions")
    };
    // Pass 1: the trusted reference itself must agree with APSP on every
    // sampled pair — any slip here invalidates the cross-checks below.
    let mut reference_disagreements = Vec::new();
    if let Ok(reference) = FullTableScheme::build(g, &oracle) {
        for (s, t, outcome) in outcomes(&verified(&reference), n, stride) {
            let what = match outcome {
                Err(f) => format!("reference failed: {f}"),
                Ok((hops, dist)) if hops != dist => {
                    format!("reference took {hops} hops, APSP says {dist}")
                }
                Ok(_) => continue,
            };
            let scheme = "full-table-reference";
            reference_disagreements.push(Disagreement { scheme, s, t, what });
        }
    }
    // Pass 2: every registered scheme against the same oracle.
    let mut schemes = Vec::with_capacity(SchemeId::ALL.len());
    for id in SchemeId::ALL {
        let mut diff = SchemeDiff {
            id,
            refusal: None,
            pairs: 0,
            delivered: 0,
            max_stretch: None,
            disagreements: Vec::new(),
        };
        match id.build_with_dists(g, &oracle) {
            Err(e) => {
                // A refusal is legitimate here, but it is exactly the
                // kind of event a post-mortem wants context for.
                ort_telemetry::recorder::anomaly("scheme_refusal", id as u64, n as u64);
                diff.refusal = Some(e.to_string());
            }
            Ok(scheme) => {
                let report = verified(scheme.as_ref());
                diff.pairs = report.delivered + report.failures.len();
                diff.delivered = report.delivered;
                diff.max_stretch = report.max_stretch();
                for (s, t, outcome) in outcomes(&report, n, stride) {
                    let mut flag = |what| {
                        diff.disagreements.push(Disagreement { scheme: id.name(), s, t, what });
                    };
                    let (hops, dist) = match outcome {
                        Ok(delivered) => delivered,
                        Err(f) => {
                            flag(format!("route failed: {f}"));
                            continue;
                        }
                    };
                    if hops < dist {
                        flag(format!("{hops} hops beats the APSP distance {dist}"));
                    }
                    if let Some(cap) = id.hop_cap(n, dist).filter(|&cap| hops > cap) {
                        ort_telemetry::recorder::anomaly(
                            "stretch_cap_breach",
                            u64::from(hops),
                            u64::from(cap),
                        );
                        flag(format!("{hops} hops exceeds the cap {cap} (distance {dist})"));
                    }
                }
            }
        }
        schemes.push(diff);
    }
    GraphDiff { n, reference_disagreements, schemes }
}

/// Each pair `report` covers, with its outcome: `(hops, dist)` if it was
/// delivered, the failure otherwise. Pairs come in [`verify`]'s order —
/// source-major, each source's [`sampled_targets`] ascending — so a
/// failed pair is the next entry of `failures` and any other pair the
/// next of `stretches`.
fn outcomes(
    report: &VerifyReport,
    n: usize,
    stride: usize,
) -> impl Iterator<Item = (usize, usize, Result<(u32, u32), &RouteFailure>)> {
    let mut failures = report.failures.iter().peekable();
    let mut stretches = report.stretches.iter();
    let pairs = (0..n).flat_map(move |s| sampled_targets(s, n, stride).map(move |t| (s, t)));
    pairs.map(move |(s, t)| {
        let outcome = match failures.next_if(|f| (f.0, f.1) == (s, t)) {
            Some((_, _, f)) => Err(f),
            None => Ok(*stretches.next().expect("one stretch entry per delivered pair")),
        };
        (s, t, outcome)
    })
}

/// Aggregated differential statistics for a set of graphs (one scheme).
#[derive(Debug, Clone, Default)]
pub struct SchemeAggregate {
    /// Graphs the scheme accepted.
    pub accepted: usize,
    /// Graphs the scheme refused (precondition/disconnected).
    pub refused: usize,
    /// Total ordered pairs routed.
    pub pairs: usize,
    /// Total pairs delivered.
    pub delivered: usize,
    /// Worst stretch seen.
    pub max_stretch: Option<f64>,
    /// Total violations.
    pub disagreements: usize,
}

/// Folds per-graph results into per-scheme aggregates, in
/// [`SchemeId::ALL`] order.
#[must_use]
pub fn aggregate(diffs: &[GraphDiff]) -> Vec<(SchemeId, SchemeAggregate)> {
    let mut out: Vec<(SchemeId, SchemeAggregate)> =
        SchemeId::ALL.iter().map(|&id| (id, SchemeAggregate::default())).collect();
    for gd in diffs {
        for sd in &gd.schemes {
            let slot = &mut out
                .iter_mut()
                .find(|(id, _)| *id == sd.id)
                .expect("ALL order")
                .1;
            if sd.refusal.is_some() {
                slot.refused += 1;
            } else {
                slot.accepted += 1;
            }
            slot.pairs += sd.pairs;
            slot.delivered += sd.delivered;
            slot.disagreements += sd.disagreements.len();
            if let Some(s) = sd.max_stretch {
                slot.max_stretch = Some(slot.max_stretch.map_or(s, |m| m.max(s)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_graphs::generators;

    #[test]
    fn random_graph_has_no_disagreements() {
        let g = generators::gnp_half(24, 2);
        let diff = diff_graph(&g, 1);
        assert!(diff.reference_disagreements.is_empty());
        for sd in &diff.schemes {
            assert!(
                sd.disagreements.is_empty(),
                "{}: {:?}",
                sd.id.name(),
                sd.disagreements.first()
            );
            if sd.refusal.is_none() {
                assert_eq!(sd.delivered, sd.pairs, "{}", sd.id.name());
            }
        }
    }

    #[test]
    fn small_cycle_checks_universal_schemes() {
        // C_5 violates the theorem preconditions (diameter 2) — those must
        // refuse; the universal schemes must conform.
        let g = generators::cycle(5);
        let diff = diff_graph(&g, 1);
        assert!(diff.reference_disagreements.is_empty());
        for sd in &diff.schemes {
            assert!(sd.disagreements.is_empty(), "{}", sd.id.name());
        }
        let ft = diff.schemes.iter().find(|s| s.id == SchemeId::FullTable).unwrap();
        assert!(ft.refusal.is_none());
        assert_eq!(ft.delivered, 20);
    }

    #[test]
    fn sampling_stride_reduces_pairs() {
        let g = generators::gnp_half(20, 4);
        let full = diff_graph(&g, 1);
        let sampled = diff_graph(&g, 3);
        let ft = |d: &GraphDiff| d.schemes.iter().find(|s| s.id == SchemeId::FullTable).unwrap().pairs;
        assert!(ft(&sampled) < ft(&full));
        assert!(ft(&sampled) > 0);
    }

    #[test]
    fn outcomes_name_each_pair_in_verify_order() {
        // n = 4 at stride 2 samples (0,2), (1,3), (2,0), (3,1); the second
        // failed, so the stretches belong to the other three in order.
        let failure = RouteFailure::HopLimit { limit: 32 };
        let report = VerifyReport {
            delivered: 3,
            failures: vec![(1, 3, failure.clone())],
            stretches: vec![(2, 2), (3, 2), (1, 1)],
            total_hops: 6,
            worst: Some((2, 0, 3, 2)),
        };
        let named: Vec<_> = outcomes(&report, 4, 2).collect();
        assert_eq!(
            named,
            [(0, 2, Ok((2, 2))), (1, 3, Err(&failure)), (2, 0, Ok((3, 2))), (3, 1, Ok((1, 1)))]
        );
    }

    #[test]
    fn aggregate_folds_counts() {
        let diffs: Vec<GraphDiff> =
            [generators::cycle(4), generators::complete(4)].iter().map(|g| diff_graph(g, 1)).collect();
        let agg = aggregate(&diffs);
        let (_, ft) = agg.iter().find(|(id, _)| *id == SchemeId::FullTable).unwrap();
        assert_eq!(ft.accepted, 2);
        assert_eq!(ft.pairs, 24);
        assert_eq!(ft.disagreements, 0);
    }
}
