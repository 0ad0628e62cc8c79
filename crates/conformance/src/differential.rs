//! The cross-scheme differential oracle.
//!
//! On a given graph, every registered scheme ([`SchemeId::ALL`]) is built
//! from and routed against the same [`Apsp`] oracle and the same
//! [`FullTableScheme`] reference, pair by pair:
//!
//! * the reference must deliver every pair in exactly the true distance
//!   (it is the trusted shortest-path baseline — if *it* disagrees with
//!   the APSP oracle, that is a finding in its own right);
//! * the scheme under test must deliver every pair the reference
//!   delivers, within its contractual hop cap
//!   ([`SchemeId::hop_cap`]) and never in fewer hops than the distance
//!   (beating APSP means the two disagree about the graph).
//!
//! Schemes may *refuse* a graph (the theorem constructions check their
//! Kolmogorov-randomness preconditions) — refusals are tallied, not
//! flagged: on random inputs the sweep asserts acceptance separately.

use ort_graphs::Graph;
use ort_graphs::paths::Apsp;
use ort_routing::schemes::full_table::FullTableScheme;
use ort_routing::verify::{default_hop_limit, route_pair};

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
    let limit = default_hop_limit(n);
    // Pass 1: the trusted reference itself must agree with APSP on every
    // sampled pair — any slip here invalidates the cross-checks below.
    let mut reference_disagreements = Vec::new();
    let reference = FullTableScheme::build(g, &oracle).ok();
    if let Some(reference) = &reference {
        for s in 0..n {
            for t in 0..n {
                if s == t || (s + t) % stride != 0 {
                    continue;
                }
                let dist = oracle.distance(s, t).expect("connected graph");
                match route_pair(reference, s, t, limit) {
                    Ok(path) if (path.len() - 1) as u32 == dist => {}
                    Ok(path) => reference_disagreements.push(Disagreement {
                        scheme: "full-table-reference",
                        s,
                        t,
                        what: format!(
                            "reference took {} hops, APSP says {dist}",
                            path.len() - 1
                        ),
                    }),
                    Err(f) => reference_disagreements.push(Disagreement {
                        scheme: "full-table-reference",
                        s,
                        t,
                        what: format!("reference failed: {f}"),
                    }),
                }
            }
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
                for s in 0..n {
                    for t in 0..n {
                        if s == t || (s + t) % stride != 0 {
                            continue;
                        }
                        diff.pairs += 1;
                        let dist = oracle.distance(s, t).expect("connected graph");
                        match route_pair(scheme.as_ref(), s, t, limit) {
                            Err(f) => diff.disagreements.push(Disagreement {
                                scheme: id.name(),
                                s,
                                t,
                                what: format!("route failed: {f}"),
                            }),
                            Ok(path) => {
                                let hops = (path.len() - 1) as u32;
                                diff.delivered += 1;
                                if dist > 0 {
                                    let stretch = f64::from(hops) / f64::from(dist);
                                    diff.max_stretch = Some(
                                        diff.max_stretch.map_or(stretch, |m| m.max(stretch)),
                                    );
                                }
                                if hops < dist {
                                    diff.disagreements.push(Disagreement {
                                        scheme: id.name(),
                                        s,
                                        t,
                                        what: format!(
                                            "{hops} hops beats the APSP distance {dist}"
                                        ),
                                    });
                                }
                                if let Some(cap) = id.hop_cap(n, dist) {
                                    if hops > cap {
                                        ort_telemetry::recorder::anomaly(
                                            "stretch_cap_breach",
                                            u64::from(hops),
                                            u64::from(cap),
                                        );
                                        diff.disagreements.push(Disagreement {
                                            scheme: id.name(),
                                            s,
                                            t,
                                            what: format!(
                                                "{hops} hops exceeds the cap {cap} (distance {dist})"
                                            ),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        schemes.push(diff);
    }
    GraphDiff { n, reference_disagreements, schemes }
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
