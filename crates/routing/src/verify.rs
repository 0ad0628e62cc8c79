//! Exhaustive verification of routing schemes.
//!
//! For every sampled ordered pair `(s, t)` the verifier routes one message
//! with [`route_pair`], the one walk ([`crate::hop::walk`]) under a fault
//! check that never vetoes, so every router runs **from the stored bits
//! only**. It checks delivery and compares route lengths against true
//! shortest-path distances to measure the stretch factor (Section 1's
//! definition: the maximum over pairs of route length / distance). A pair
//! that fails stays in the report with its [`RouteFailure`], the reading
//! the simulators give a failed walk too.

use ort_graphs::dist::width_for;
use ort_graphs::oracle::{read_row, Distances};
use ort_graphs::paths::{compute_band, is_connected, map_in_order, ApspEngine};
use ort_graphs::{Graph, NodeId};

use crate::hop::{walk, RouteFailure};
use crate::scheme::{RoutingScheme, SchemeError};

/// Routes one message from `s` to `t` through `scheme`, returning the node
/// path `[s, …, t]`: [`walk`] with a fault check that never vetoes.
///
/// When a [`ort_telemetry::trace::TraceRecorder`] is installed that wants
/// the `(s, t)` pair, every routing decision of the walk is recorded as a
/// [`HopEvent`](ort_telemetry::trace::HopEvent) — the conformance
/// differential oracle and the fuzzer route through this function, so a
/// filtered recorder captures their walks too. Recording is append-only
/// and never alters the walk.
///
/// # Errors
///
/// Returns a [`RouteFailure`] describing the first problem encountered;
/// [`RouteFailure::NodeOutOfRange`] if `s` or `t` is not a node of the
/// scheme.
pub fn route_pair(
    scheme: &dyn RoutingScheme,
    s: NodeId,
    t: NodeId,
    max_hops: usize,
) -> Result<Vec<NodeId>, RouteFailure> {
    // Fault-free: the check never vetoes, so every hop takes its primary
    // port.
    walk(scheme, s, t, max_hops, 0, |_, _| None).map(|d| d.path)
}

/// Outcome of verifying every sampled ordered pair.
///
/// Pairs are visited in [`verify`]'s order: source-major, ascending
/// target, over the targets [`sampled_targets`] yields. `failures` and
/// `stretches` each keep that order, and a failed pair appears in
/// `failures` only, so walking the sampled pairs in order and skipping
/// each failed one pairs every `stretches` entry with its `(s, t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Number of ordered pairs routed successfully.
    pub delivered: usize,
    /// Pairs that failed, with the reason (empty for a correct scheme).
    pub failures: Vec<(NodeId, NodeId, RouteFailure)>,
    /// Per-pair (route_hops, shortest_distance) for delivered pairs.
    pub stretches: Vec<(u32, u32)>,
    /// Total hops across delivered pairs.
    pub total_hops: u64,
    /// The maximum-stretch delivered pair as `(src, dst, hops, dist)` —
    /// ties broken toward the first pair in `(src, dst)` order, so the
    /// field is deterministic under any thread count. Lets callers (e.g.
    /// `ort trace --worst`) name the worst pair without rescanning.
    pub worst: Option<(NodeId, NodeId, u32, u32)>,
}

impl VerifyReport {
    /// The scheme's measured stretch factor: `max hops/dist` over pairs at
    /// distance ≥ 1. `None` if nothing was delivered.
    #[must_use]
    pub fn max_stretch(&self) -> Option<f64> {
        self.stretches
            .iter()
            .filter(|&&(_, d)| d > 0)
            .map(|&(h, d)| f64::from(h) / f64::from(d))
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Average stretch over delivered pairs at distance ≥ 1.
    #[must_use]
    pub fn avg_stretch(&self) -> Option<f64> {
        let xs: Vec<f64> = self
            .stretches
            .iter()
            .filter(|&&(_, d)| d > 0)
            .map(|&(h, d)| f64::from(h) / f64::from(d))
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    }

    /// Whether every pair was delivered.
    #[must_use]
    pub fn all_delivered(&self) -> bool {
        self.failures.is_empty()
    }

    /// Whether the scheme is shortest-path (stretch exactly 1).
    #[must_use]
    pub fn is_shortest_path(&self) -> bool {
        self.all_delivered() && self.stretches.iter().all(|&(h, d)| h == d)
    }

    /// The report over no pairs.
    fn empty() -> Self {
        VerifyReport {
            delivered: 0,
            failures: Vec::new(),
            stretches: Vec::new(),
            total_hops: 0,
            worst: None,
        }
    }

    /// Routes source `s`'s sampled pairs, in order, into the report:
    /// `pairs` yields each target `t` with `d(s, t)`.
    fn route_from(
        &mut self,
        scheme: &dyn RoutingScheme,
        s: NodeId,
        pairs: impl Iterator<Item = (NodeId, Option<u32>)>,
        limit: usize,
    ) {
        for (t, dist) in pairs {
            match route_pair(scheme, s, t, limit) {
                Ok(path) => {
                    let hops = (path.len() - 1) as u32;
                    let dist = dist.expect("connected");
                    self.delivered += 1;
                    self.total_hops += u64::from(hops);
                    self.stretches.push((hops, dist));
                    if dist > 0 {
                        self.worst = Self::merge_worst(self.worst, Some((s, t, hops, dist)));
                    }
                }
                Err(f) => self.failures.push((s, t, f)),
            }
        }
    }

    /// Appends a report over later pairs.
    fn absorb(&mut self, later: VerifyReport) {
        self.delivered += later.delivered;
        self.failures.extend(later.failures);
        self.stretches.extend(later.stretches);
        self.total_hops += later.total_hops;
        self.worst = Self::merge_worst(self.worst, later.worst);
    }

    /// Keeps the worse of two worst-pair candidates. Exact integer
    /// cross-multiplied ratio comparison; a *strictly* larger ratio is
    /// required to displace the incumbent, so folding candidates in
    /// `(src, dst)` order yields the first maximal pair.
    fn merge_worst(
        a: Option<(NodeId, NodeId, u32, u32)>,
        b: Option<(NodeId, NodeId, u32, u32)>,
    ) -> Option<(NodeId, NodeId, u32, u32)> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(x), Some(y)) => {
                let (_, _, xh, xd) = x;
                let (_, _, yh, yd) = y;
                if u64::from(yh) * u64::from(xd) > u64::from(xh) * u64::from(yd) {
                    Some(y)
                } else {
                    Some(x)
                }
            }
        }
    }
}

/// Default hop budget: generous enough for the probe scheme's
/// `2(c+3)log n` scans and any constant-stretch route.
#[must_use]
pub fn default_hop_limit(n: usize) -> usize {
    4 * n + 16
}

/// The targets [`verify`] routes to from source `s` over `n` nodes at
/// sampling `stride` (0 counts as 1): every `t < n` with `t ≠ s` and
/// `(s + t) % stride == 0`, that is `t ≡ −s (mod stride)`, ascending.
/// `stride == 1` is every other node. The one sampling rule: verify
/// walks it source by source, and the conformance differential walks it
/// to name the pairs of a [`VerifyReport`].
pub fn sampled_targets(s: NodeId, n: usize, stride: usize) -> impl Iterator<Item = NodeId> {
    let stride = stride.max(1);
    let first = (stride - s % stride) % stride;
    (first..n).step_by(stride).filter(move |&t| t != s)
}

/// Whether source `s` has a target in [`sampled_targets`].
fn has_target(s: NodeId, n: usize, stride: usize) -> bool {
    sampled_targets(s, n, stride).next().is_some()
}

/// Verifies `scheme` against `g`: routes every ordered pair `(s, t)` with
/// `t` in [`sampled_targets`]`(s, n, stride)` (`stride == 1` is all
/// pairs) and measures stretch against the distances in `dists`. Pass the
/// oracle the scheme was built from, and the whole build-then-verify run
/// costs one APSP.
///
/// Each source with a target reads its distances from one
/// [`Distances::with_row`] call, plus row 0 for the connectivity check;
/// no pair makes a per-cell query. Sources fan out across threads through
/// [`map_in_order`], and the partial reports are merged back in source
/// order, so the report is identical under every `ORT_THREADS`, field for
/// field. On one thread sources ascend, so a
/// [`BandedOracle`](ort_graphs::oracle::BandedOracle) fills each band at
/// most once; on several, workers in different bands evict each other's
/// band. [`verify_scheme_sampled`] gives each worker a band of its own.
///
/// # Errors
///
/// Returns [`SchemeError::ApproximateOracle`] naming the oracle if it is
/// approximate (`!is_exact()` — stretch measured against estimates would
/// be meaningless), [`SchemeError::Precondition`] if its node count does
/// not match `g`, and [`SchemeError::Disconnected`] if `g` is
/// disconnected (stretch is undefined); per-pair routing problems are
/// reported inside the [`VerifyReport`], not as errors.
pub fn verify(
    g: &Graph,
    scheme: &dyn RoutingScheme,
    dists: &dyn Distances,
    stride: usize,
) -> Result<VerifyReport, SchemeError> {
    if !dists.is_exact() {
        return Err(SchemeError::ApproximateOracle { oracle: dists.describe() });
    }
    let n = g.node_count();
    if dists.node_count() != n {
        return Err(SchemeError::Precondition {
            reason: "distance oracle does not match the graph".into(),
        });
    }
    if !dists.is_connected() && n > 1 {
        return Err(SchemeError::Disconnected);
    }
    let limit = default_hop_limit(n);
    let sources: Vec<NodeId> = (0..n).filter(|&s| has_target(s, n, stride)).collect();
    Ok(pass(n, stride, sources.len(), |i| {
        let s = sources[i];
        // Copied out, routed after: the row may be lent under the
        // oracle's lock, and routing needs no distances.
        let cells: Vec<Option<u32>> =
            read_row(dists, s, |row| sampled_targets(s, n, stride).map(|t| row.get(t)).collect());
        let mut p = VerifyReport::empty();
        p.route_from(scheme, s, sampled_targets(s, n, stride).zip(cells), limit);
        p
    }))
}

/// The pass [`verify`] and [`verify_scheme_sampled`] share: opens the
/// `verify` span and memory region, maps `unit` over `0..units` through
/// [`map_in_order`] (each unit covers ascending sources, and later units
/// later ones), merges the partial reports in unit order, and publishes
/// verify's counters and histograms.
fn pass(
    n: usize,
    stride: usize,
    units: usize,
    unit: impl Fn(usize) -> VerifyReport + Sync,
) -> VerifyReport {
    let stride = stride.max(1);
    let _span = ort_telemetry::span_with(
        "verify",
        &[
            ("n", ort_telemetry::FieldValue::Int(n as u64)),
            ("stride", ort_telemetry::FieldValue::Int(stride as u64)),
        ],
    );
    let _mem = ort_telemetry::alloc::mem_span("verify");
    let t0 = std::time::Instant::now();
    let partials = map_in_order(units, unit);
    let mut report = VerifyReport::empty();
    report.stretches.reserve(if stride == 1 { n * n } else { 0 });
    for p in partials {
        report.absorb(p);
    }
    ort_telemetry::counter!("verify.pairs").add((report.delivered + report.failures.len()) as u64);
    ort_telemetry::counter!("verify.hops").add(report.total_hops);
    if ort_telemetry::enabled() {
        // Distribution view of the same data: per-pair hop counts and
        // stretch×1000 (⌊1000·hops/dist⌋). Accumulated locally over the
        // merged (source-ordered) stretch list and published with one
        // atomic merge — byte-identical under any ORT_THREADS.
        let mut hops_h = ort_telemetry::LocalHist::new();
        let mut stretch_h = ort_telemetry::LocalHist::new();
        for &(hops, dist) in &report.stretches {
            hops_h.record(u64::from(hops));
            if dist > 0 {
                stretch_h.record(u64::from(hops) * 1000 / u64::from(dist));
            }
        }
        hops_h.merge_into(ort_telemetry::hist!("verify.hops"));
        stretch_h.merge_into(ort_telemetry::hist!("verify.stretch_x1000"));
    }
    // Wall-clock per verification pass: a *timing* histogram, so its
    // buckets are tagged non-deterministic and skipped by byte-identity
    // guards.
    ort_telemetry::timing_hist!("verify.micros")
        .record(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
    report
}

/// [`verify`] against `g`'s exact distances without holding them: the
/// report equals `verify(g, scheme, &Apsp::compute(g), stride)` field for
/// field, but no n² matrix is built. Sources are grouped into blocks of
/// [`ApspEngine::tile_sources`]`(n)` rows, the tiles `Apsp::compute`
/// fills, and only blocks holding a source with a target are visited.
/// The worker that walks a block fills that block's band itself
/// ([`compute_band`]) and drops it before its next block, so each band is
/// filled once under any `ORT_THREADS` and at most one band per worker
/// is alive. A pass that samples every source does the traversal work of
/// one `Apsp::compute`; a sparse sample does a fraction of it. The
/// benchmark and the churn sweep's sampled probes verify through it.
///
/// # Errors
///
/// [`SchemeError::Disconnected`] if `g` is disconnected, as [`verify`].
pub fn verify_scheme_sampled(
    g: &Graph,
    scheme: &dyn RoutingScheme,
    stride: usize,
) -> Result<VerifyReport, SchemeError> {
    if !is_connected(g) {
        return Err(SchemeError::Disconnected);
    }
    let n = g.node_count();
    let tile = ApspEngine::tile_sources(n);
    let blocks: Vec<NodeId> = (0..n)
        .step_by(tile)
        .filter(|&start| (start..(start + tile).min(n)).any(|s| has_target(s, n, stride)))
        .collect();
    let width = width_for(g);
    let limit = default_hop_limit(n);
    Ok(pass(n, stride, blocks.len(), |i| {
        let start = blocks[i];
        let rows = tile.min(n - start);
        let band = compute_band(g, start, rows, ApspEngine::Auto, width);
        let mut p = VerifyReport::empty();
        for s in start..start + rows {
            let row = band.row(s);
            p.route_from(scheme, s, sampled_targets(s, n, stride).map(|t| (t, row.get(t))), limit);
        }
        p
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_graphs::paths::Apsp;

    #[test]
    fn report_stretch_math() {
        let report = VerifyReport {
            delivered: 3,
            failures: vec![],
            stretches: vec![(2, 2), (3, 2), (1, 1)],
            total_hops: 6,
            worst: Some((0, 2, 3, 2)),
        };
        assert_eq!(report.max_stretch(), Some(1.5));
        let avg = report.avg_stretch().unwrap();
        assert!((avg - (1.0 + 1.5 + 1.0) / 3.0).abs() < 1e-12);
        assert!(report.all_delivered());
        assert!(!report.is_shortest_path());
    }

    #[test]
    fn empty_report() {
        let report = VerifyReport {
            delivered: 0,
            failures: vec![],
            stretches: vec![],
            total_hops: 0,
            worst: None,
        };
        assert_eq!(report.max_stretch(), None);
        assert_eq!(report.avg_stretch(), None);
        assert!(report.is_shortest_path());
    }

    #[test]
    fn sampled_with_stride_one_equals_full() {
        use crate::schemes::theorem1::Theorem1Scheme;
        let g = ort_graphs::generators::gnp_half(24, 5);
        let dists = Apsp::compute(&g);
        let scheme = Theorem1Scheme::build(&g, &dists).unwrap();
        let full = verify(&g, &scheme, &dists, 1).unwrap();
        let sampled = verify_scheme_sampled(&g, &scheme, 1).unwrap();
        assert_eq!(full.delivered, sampled.delivered);
        assert_eq!(full.total_hops, sampled.total_hops);
        assert_eq!(full.max_stretch(), sampled.max_stretch());
        // And larger strides cover strictly fewer pairs.
        let sparse = verify_scheme_sampled(&g, &scheme, 3).unwrap();
        assert!(sparse.delivered < full.delivered);
        assert!(sparse.delivered > 0);
    }

    #[test]
    fn verify_rejects_disconnected() {
        use crate::schemes::full_table::FullTableScheme;
        let g = ort_graphs::generators::cycle(6);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        // Pass a *different*, disconnected graph to the verifier: it must
        // refuse rather than report nonsense stretch.
        let disconnected = ort_graphs::Graph::from_edges(6, [(0, 1), (2, 3), (4, 5)]).unwrap();
        assert!(matches!(
            verify(&disconnected, &scheme, &Apsp::compute(&disconnected), 1),
            Err(SchemeError::Disconnected)
        ));
    }

    #[test]
    fn route_pair_rejects_self_loop_budget_zero() {
        use crate::schemes::full_table::FullTableScheme;
        let g = ort_graphs::generators::cycle(5);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        // Zero hop budget still allows immediate delivery checks only.
        let err = route_pair(&scheme, 0, 2, 0).unwrap_err();
        assert!(matches!(err, RouteFailure::HopLimit { limit: 0 }));
        // Distance-1 pair needs one hop: budget 1 suffices.
        let path = route_pair(&scheme, 0, 1, 1).unwrap();
        assert_eq!(path, vec![0, 1]);
    }

    #[test]
    fn route_pair_rejects_out_of_range_nodes() {
        use crate::schemes::{
            full_table::FullTableScheme, interval::IntervalScheme, theorem2::Theorem2Scheme,
        };
        let n = 64;
        let g = ort_graphs::generators::gnp_half(n, 1);
        let dists = Apsp::compute(&g);
        // One scheme per labelling kind: α, β, γ.
        let schemes: [Box<dyn RoutingScheme>; 3] = [
            Box::new(FullTableScheme::build(&g, &dists).unwrap()),
            Box::new(IntervalScheme::build(&g, &dists).unwrap()),
            Box::new(Theorem2Scheme::build(&g, &dists).unwrap()),
        ];
        let limit = default_hop_limit(n);
        let bad_pairs = [(0, n, n), (n, 0, n), (n + 7, n, n + 7), (0, usize::MAX, usize::MAX)];
        for scheme in &schemes {
            let scheme = scheme.as_ref();
            for (s, t, bad) in bad_pairs {
                assert_eq!(
                    route_pair(scheme, s, t, limit),
                    Err(RouteFailure::NodeOutOfRange { node: bad }),
                    "{:?} {s}→{t}",
                    scheme.model()
                );
            }
            assert!(route_pair(scheme, 0, n - 1, limit).is_ok());
        }
    }

    #[test]
    fn worst_pair_names_the_max_stretch_pair() {
        use crate::schemes::theorem4::Theorem4Scheme;
        let g = ort_graphs::generators::gnp_half(24, 5);
        let dists = Apsp::compute(&g);
        let scheme = Theorem4Scheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        let (s, t, h, d) = report.worst.expect("delivered pairs exist");
        // The named pair realizes the measured maximum stretch exactly
        // (same integers, same division — bit-identical f64).
        assert_eq!(f64::from(h) / f64::from(d), report.max_stretch().unwrap());
        // And re-routing it reproduces the hop count.
        let path = route_pair(&scheme, s, t, default_hop_limit(24)).unwrap();
        assert_eq!((path.len() - 1) as u32, h);
    }

    #[test]
    fn banded_oracle_verification_matches_full_matrix() {
        use crate::schemes::full_table::FullTableScheme;
        use ort_graphs::oracle::BandedOracle;
        let g = ort_graphs::generators::gnp_half(24, 9);
        let dists = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &dists).unwrap();
        let full = verify(&g, &scheme, &dists, 1).unwrap();
        let banded = BandedOracle::new(g.clone(), 5);
        let report = verify(&g, &scheme, &banded, 1).unwrap();
        assert_eq!(report.delivered, full.delivered);
        assert_eq!(report.total_hops, full.total_hops);
        assert_eq!(report.worst, full.worst);
        assert_eq!(report.max_stretch(), full.max_stretch());
    }

    #[test]
    fn approximate_oracle_is_rejected_for_verification() {
        use crate::schemes::full_table::FullTableScheme;
        use ort_graphs::oracle::LandmarkOracle;
        let g = ort_graphs::generators::gnp_half(16, 2);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let lo = LandmarkOracle::build(&g, 4);
        assert!(matches!(
            verify(&g, &scheme, &lo, 1),
            Err(SchemeError::ApproximateOracle { oracle: "approximate landmark oracle" })
        ));
    }

    #[test]
    fn approximate_oracle_rejection_names_the_oracle() {
        use crate::schemes::full_table::FullTableScheme;
        use ort_graphs::oracle::LandmarkOracle;
        let g = ort_graphs::generators::gnp_half(16, 2);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let lo = LandmarkOracle::build(&g, 4);
        let err = verify(&g, &scheme, &lo, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "approximate landmark oracle is approximate: \
             exact shortest-path distances are required"
        );
    }
}
