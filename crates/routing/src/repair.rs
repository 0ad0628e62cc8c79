//! Full-table repair under topology churn.
//!
//! A built [`RoutingScheme`] is a pure function of its graph: any delta
//! invalidates some of its entries. Rebuilding the whole scheme per delta
//! costs `O(n²)` table writes even when one link flapped; this module
//! pairs a [`DeltaOracle`] (exact in-place distance repair,
//! [`ort_graphs::delta`]) with **dirty-region patching** of a
//! [`FullTableScheme`]:
//!
//! * The oracle's dirty source set `D` names exactly the routing-table
//!   regions that can have moved — the two endpoint rows plus, at every
//!   other node, the entries toward destinations in `D`
//!   (`FullTableScheme::patch_edge_delta`). Everything else is left
//!   byte-untouched.
//! * When the oracle itself fell back to a full recompute, the wrapper
//!   rebuilds the whole table from the repaired oracle — the
//!   *whole-scheme rebuild fallback*. Because the repaired oracle is
//!   exactly the fresh APSP function, the rebuilt table is byte-identical
//!   to a from-scratch build.
//!
//! Membership churn (join/leave) always takes the rebuild path: node
//! count and labels shift, so no region of the old table survives.
//!
//! Every mutating call re-checks the bit accounting
//! ([`BitBreakdown`] reconciliation) before returning, so a bad splice
//! can never silently corrupt the space bound the paper charges.
//!
//! Deltas that would disconnect the network are **refused** (the routing
//! problem requires connectivity): the call returns
//! [`SchemeError::Disconnected`], the state is untouched, and the refusal
//! is counted in [`SchemeRepairStats::refusals`].

use ort_graphs::delta::DeltaOracle;
use ort_graphs::paths;
use ort_graphs::{Graph, GraphError, NodeId};

use crate::accounting::BitBreakdown;
use crate::scheme::{RoutingScheme, SchemeError};
use crate::schemes::full_table::FullTableScheme;

/// What one mutating call did, across both layers (oracle and scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchReport {
    /// Dirty sources reported by the oracle repair(s).
    pub dirty_nodes: usize,
    /// Distance-matrix rows recomputed by traversal.
    pub rows_recomputed: usize,
    /// Full-matrix oracle fallbacks (0 or, for join/leave, up to the
    /// number of links touched).
    pub oracle_rebuilds: usize,
    /// Routing entries rewritten in place (0 when the scheme was rebuilt).
    pub entries_patched: usize,
    /// Whether the scheme took the whole-rebuild fallback.
    pub scheme_rebuilt: bool,
}

/// Lifetime totals across every mutating call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeRepairStats {
    /// Edge deltas absorbed by in-place entry patching.
    pub patches: u64,
    /// Whole-scheme rebuilds (oracle fallbacks and every join/leave).
    pub rebuilds: u64,
    /// Total routing entries rewritten in place.
    pub entries_patched: u64,
    /// Deltas refused because they would disconnect the network.
    pub refusals: u64,
}

/// A full-table routing scheme that survives topology churn: an owned
/// graph, a [`DeltaOracle`] repaired per delta, and a
/// [`FullTableScheme`] patched in place (or, on an oracle fallback or a
/// membership change, rebuilt) from it.
///
/// The churn vocabulary mirrors `ort-simnet`'s `ChurnEvent` one-to-one —
/// [`RepairableScheme::add_link`], [`RepairableScheme::remove_link`],
/// [`RepairableScheme::join`], [`RepairableScheme::leave`] — so a sweep
/// can map events onto calls without coupling the crates.
///
/// # Example
///
/// ```
/// use ort_graphs::{generators, paths::Apsp};
/// use ort_routing::repair::RepairableScheme;
/// use ort_routing::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::connected_gnp(32, 0.2, 7);
/// let mut scheme = RepairableScheme::full_table(g)?;
/// let report = scheme.add_link(0, 31)?;
/// assert!(report.dirty_nodes <= 32);
/// // Check the repaired tables against a fresh APSP, not the repaired oracle.
/// let fresh = Apsp::compute(scheme.graph());
/// let check = verify::verify(scheme.graph(), scheme.scheme(), &fresh, 1)?;
/// assert!(check.is_shortest_path());
/// # Ok(())
/// # }
/// ```
pub struct RepairableScheme {
    oracle: DeltaOracle,
    scheme: FullTableScheme,
    stats: SchemeRepairStats,
}

impl RepairableScheme {
    /// Builds a repairable full-table scheme over `g` in the default
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Disconnected`] if `g` is disconnected.
    pub fn full_table(g: Graph) -> Result<Self, SchemeError> {
        let oracle = DeltaOracle::new(g);
        let scheme = FullTableScheme::build(oracle.graph(), &oracle)?;
        Ok(RepairableScheme { oracle, scheme, stats: SchemeRepairStats::default() })
    }

    /// The current topology.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.oracle.graph()
    }

    /// The repaired distance oracle (always exact for the current graph).
    #[must_use]
    pub fn oracle(&self) -> &DeltaOracle {
        &self.oracle
    }

    /// The current scheme — always valid for [`RepairableScheme::graph`].
    #[must_use]
    pub fn scheme(&self) -> &dyn RoutingScheme {
        &self.scheme
    }

    /// Number of nodes in the current topology.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.graph().node_count()
    }

    /// Lifetime repair totals.
    #[must_use]
    pub fn stats(&self) -> SchemeRepairStats {
        self.stats
    }

    /// Brings link `{u, v}` up and repairs oracle and scheme.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Graph`] for invalid pairs; state untouched on error.
    pub fn add_link(&mut self, u: NodeId, v: NodeId) -> Result<PatchReport, SchemeError> {
        let report = self.oracle.add_edge(u, v)?;
        self.absorb_edge_repair(u, v, &report)
    }

    /// Tears link `{u, v}` down and repairs oracle and scheme.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Graph`] for invalid pairs, or
    /// [`SchemeError::Disconnected`] (a counted refusal, state untouched)
    /// if the removal would split the network.
    pub fn remove_link(&mut self, u: NodeId, v: NodeId) -> Result<PatchReport, SchemeError> {
        let mut probe = self.oracle.graph().clone();
        probe.remove_edge(u, v)?;
        if !paths::is_connected(&probe) {
            self.stats.refusals += 1;
            return Err(SchemeError::Disconnected);
        }
        let report = self.oracle.remove_edge(u, v).expect("probe validated the pair");
        self.absorb_edge_repair(u, v, &report)
    }

    /// A node joins with links to `peers`: grows the oracle (node append
    /// plus one edge repair per peer) and rebuilds the scheme — labels and
    /// `n` shift, so membership churn always takes the rebuild fallback.
    /// Returns the new node's id alongside the report.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Disconnected`] (a counted refusal) for an empty peer
    /// list, [`SchemeError::Graph`] for out-of-range or duplicate peers;
    /// state untouched on error.
    pub fn join(&mut self, peers: &[NodeId]) -> Result<(NodeId, PatchReport), SchemeError> {
        if peers.is_empty() {
            self.stats.refusals += 1;
            return Err(SchemeError::Disconnected);
        }
        let n = self.node_count();
        for (i, &p) in peers.iter().enumerate() {
            if p >= n {
                return Err(SchemeError::Graph(GraphError::NodeOutOfRange { node: p, n }));
            }
            if peers[..i].contains(&p) {
                return Err(SchemeError::Precondition {
                    reason: format!("duplicate join peer {p}"),
                });
            }
        }
        let id = self.oracle.add_node();
        let mut agg = PatchReport {
            dirty_nodes: 0,
            rows_recomputed: 0,
            oracle_rebuilds: 0,
            entries_patched: 0,
            scheme_rebuilt: true,
        };
        for &p in peers {
            let r = self.oracle.add_edge(id, p).expect("peers validated");
            agg.dirty_nodes += r.dirty_nodes();
            agg.rows_recomputed += r.rows_recomputed;
            agg.oracle_rebuilds += usize::from(r.full_rebuild);
        }
        self.rebuild_scheme()?;
        self.assert_reconciled();
        Ok((id, agg))
    }

    /// Node `u` leaves: its links are torn down one by one (each an
    /// oracle repair), the node row is dropped, and the scheme is rebuilt
    /// on the shrunken topology. Ids above `u` shift down, mirroring
    /// [`Graph::remove_node`].
    ///
    /// # Errors
    ///
    /// [`SchemeError::Graph`] if `u` is out of range,
    /// [`SchemeError::Disconnected`] (a counted refusal, state untouched)
    /// if the survivors would be disconnected or `u` is the last node.
    pub fn leave(&mut self, u: NodeId) -> Result<PatchReport, SchemeError> {
        let n = self.node_count();
        if u >= n {
            return Err(SchemeError::Graph(GraphError::NodeOutOfRange { node: u, n }));
        }
        if n <= 1 {
            self.stats.refusals += 1;
            return Err(SchemeError::Disconnected);
        }
        let mut probe = self.oracle.graph().clone();
        for w in probe.neighbors(u).to_vec() {
            probe.remove_edge(u, w).expect("neighbour list is live");
        }
        probe.remove_node(u).expect("links were just torn down");
        if !paths::is_connected(&probe) {
            self.stats.refusals += 1;
            return Err(SchemeError::Disconnected);
        }
        let mut agg = PatchReport {
            dirty_nodes: 0,
            rows_recomputed: 0,
            oracle_rebuilds: 0,
            entries_patched: 0,
            scheme_rebuilt: true,
        };
        // Intermediate states may be disconnected (a leaving hub strands
        // its neighbours until it is fully gone); the oracle repairs
        // through that exactly, and the scheme is only rebuilt at the end
        // on the probe-validated survivor topology.
        for w in self.oracle.graph().neighbors(u).to_vec() {
            let r = self.oracle.remove_edge(u, w).expect("neighbour list is live");
            agg.dirty_nodes += r.dirty_nodes();
            agg.rows_recomputed += r.rows_recomputed;
            agg.oracle_rebuilds += usize::from(r.full_rebuild);
        }
        self.oracle.remove_node(u).expect("links were just torn down");
        self.rebuild_scheme()?;
        self.assert_reconciled();
        Ok(agg)
    }

    /// Patch (exact dirty set available) or rebuild (the oracle fell
    /// back) after an edge delta the oracle already absorbed.
    fn absorb_edge_repair(
        &mut self,
        a: NodeId,
        b: NodeId,
        report: &ort_graphs::delta::RepairReport,
    ) -> Result<PatchReport, SchemeError> {
        let (entries_patched, scheme_rebuilt) = if report.full_rebuild {
            // The oracle fell back (its width-widening fallback reports
            // no dirty set): rebuild from the repaired oracle.
            self.rebuild_scheme()?;
            (0, true)
        } else {
            let patched = self.scheme.patch_edge_delta(
                self.oracle.graph(),
                &self.oracle,
                [a, b],
                &report.dirty,
            )?;
            ort_telemetry::counter!("repair.scheme_patches").incr();
            self.stats.patches += 1;
            self.stats.entries_patched += patched as u64;
            (patched, false)
        };
        self.assert_reconciled();
        Ok(PatchReport {
            dirty_nodes: report.dirty_nodes(),
            rows_recomputed: report.rows_recomputed,
            oracle_rebuilds: usize::from(report.full_rebuild),
            entries_patched,
            scheme_rebuilt,
        })
    }

    fn rebuild_scheme(&mut self) -> Result<(), SchemeError> {
        ort_telemetry::counter!("repair.scheme_rebuilds").incr();
        self.stats.rebuilds += 1;
        self.scheme = FullTableScheme::build(self.oracle.graph(), &self.oracle)?;
        Ok(())
    }

    /// The paper's accounting must survive every splice: `BitBreakdown`
    /// reconciles against `total_size_bits` exactly, or the repair is a
    /// correctness bug.
    fn assert_reconciled(&self) {
        let scheme = self.scheme();
        let b = BitBreakdown::of(scheme);
        assert_eq!(
            b.total(),
            scheme.total_size_bits(),
            "post-repair bit accounting must reconcile"
        );
    }
}

impl std::fmt::Debug for RepairableScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairableScheme")
            .field("n", &self.node_count())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    /// The repaired scheme must be byte-identical to a cold build on the
    /// current graph — the PR 7 guarantee (exact oracles build identical
    /// schemes) extended through repair.
    fn assert_bytes_match_fresh(r: &RepairableScheme, context: &str) {
        let fresh = FullTableScheme::build(r.graph(), &Apsp::compute(r.graph())).unwrap();
        assert_eq!(
            snapshot::save(snapshot::SchemeKind::FullTable, r.scheme()).unwrap(),
            snapshot::save(snapshot::SchemeKind::FullTable, &fresh).unwrap(),
            "{context}"
        );
    }

    #[test]
    fn patched_full_table_matches_cold_build_bytes() {
        let g = generators::connected_gnp(40, 0.12, 11);
        let mut r = RepairableScheme::full_table(g).unwrap();
        let mut state = 0x5EEDu64;
        let mut patched = 0u64;
        for step in 0..30 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as usize % 40;
            let v = (state >> 33) as usize % 40;
            if u == v {
                continue;
            }
            let res = if r.graph().has_edge(u, v) {
                r.remove_link(u, v)
            } else {
                r.add_link(u, v)
            };
            match res {
                Ok(report) => {
                    patched += u64::from(!report.scheme_rebuilt);
                    assert_bytes_match_fresh(&r, &format!("step {step}"));
                }
                Err(SchemeError::Disconnected) => {} // refused bridge removal
                Err(e) => panic!("step {step}: {e}"),
            }
        }
        assert!(patched > 0, "sweep must exercise the patch fast path");
        assert_eq!(r.stats().patches, patched);
        let report = verify(r.graph(), r.scheme(), &Apsp::compute(r.graph()), 1).unwrap();
        assert!(report.is_shortest_path());
    }

    #[test]
    fn bridge_removal_is_refused_and_state_untouched() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut r = RepairableScheme::full_table(g).unwrap();
        let before = snapshot::save(snapshot::SchemeKind::FullTable, r.scheme()).unwrap();
        assert!(matches!(r.remove_link(1, 2), Err(SchemeError::Disconnected)));
        assert_eq!(r.stats().refusals, 1);
        assert_eq!(snapshot::save(snapshot::SchemeKind::FullTable, r.scheme()).unwrap(), before);
        assert_eq!(r.graph().edge_count(), 3);
        assert_bytes_match_fresh(&r, "after refusal");
    }

    #[test]
    fn join_and_leave_rebuild_and_stay_verified() {
        let g = generators::connected_gnp(16, 0.25, 3);
        let mut r = RepairableScheme::full_table(g).unwrap();
        let (id, report) = r.join(&[0, 5, 9]).unwrap();
        assert_eq!(id, 16);
        assert!(report.scheme_rebuilt);
        assert_eq!(r.node_count(), 17);
        assert_bytes_match_fresh(&r, "post join");
        let report = r.leave(id).unwrap();
        assert!(report.scheme_rebuilt);
        assert_eq!(r.node_count(), 16);
        assert_bytes_match_fresh(&r, "post leave");
        // Interior leave shifts ids; the rebuilt scheme must still verify.
        let hub = (0..r.node_count()).max_by_key(|&u| r.graph().degree(u)).unwrap();
        match r.leave(hub) {
            Ok(_) => assert_bytes_match_fresh(&r, "hub leave"),
            Err(SchemeError::Disconnected) => {} // hub was a cut vertex
            Err(e) => panic!("{e}"),
        }
        let fresh = Apsp::compute(r.graph());
        assert!(verify(r.graph(), r.scheme(), &fresh, 1).unwrap().is_shortest_path());
    }

    #[test]
    fn join_validates_peers_before_mutating() {
        let g = generators::cycle(6);
        let mut r = RepairableScheme::full_table(g).unwrap();
        assert!(matches!(r.join(&[]), Err(SchemeError::Disconnected)));
        assert!(matches!(r.join(&[0, 99]), Err(SchemeError::Graph(_))));
        assert!(matches!(r.join(&[0, 0]), Err(SchemeError::Precondition { .. })));
        assert_eq!(r.node_count(), 6, "failed joins must not grow the graph");
        assert_bytes_match_fresh(&r, "after rejected joins");
    }

    #[test]
    fn width_widening_delta_falls_back_to_scheme_rebuild() {
        // A 300-cycle with the chord {0, 150} has ecc(0) = 75, so the
        // 2·ecc width bound is 150 (u8 cells); removing the chord leaves
        // the bare cycle with ecc(0) = 150, bound 300 — past u8. The
        // oracle falls back with no dirty set, and the scheme must
        // rebuild.
        let n = 300;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.push((0, n / 2));
        let g = Graph::from_edges(n, edges).unwrap();
        let mut r = RepairableScheme::full_table(g).unwrap();
        let report = r.remove_link(0, n / 2).unwrap();
        assert!(report.scheme_rebuilt, "oracle fallback must force a scheme rebuild");
        assert_eq!(report.oracle_rebuilds, 1);
        assert_bytes_match_fresh(&r, "width-widening removal");
    }
}
