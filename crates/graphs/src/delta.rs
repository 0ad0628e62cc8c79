//! Incremental distance repair for topology deltas.
//!
//! Every oracle in [`crate::oracle`] answers for a *frozen* graph; under
//! churn (sustained link add/remove, node join/leave) rebuilding the full
//! `n × n` matrix per delta costs `O(n·m)` even when the delta moved
//! almost nothing. [`DeltaOracle`] keeps a [`Apsp`] matrix **repaired in
//! place**:
//!
//! 1. **Probe.** After the delta `{a, b}` is applied to the graph, run two
//!    BFS traversals from `a` and `b` on the *new* topology and diff them
//!    against the matrix rows — the *dirty set* `D` is every source whose
//!    distance to `a` or to `b` changed.
//! 2. **Repair.** Recompute only the `|D|` dirty rows (height-1 bands of
//!    the matrix), then mirror the dirty *columns* into the clean rows via
//!    symmetry `d(s,t) = d(t,s)`.
//! 3. **Fall back.** When the dirty fraction `|D|/n` crosses a threshold
//!    (or an edge removal pushes the diameter past the matrix's compact
//!    cell width), repair would approach a rebuild anyway — recompute the
//!    full matrix ([`Apsp::compute`]) instead and count it as a
//!    `repair.fallback_rebuilds`.
//!
//! **Why the dirty set is exactly right.** Let `{a, b}` be the edge
//! delta and write `d` / `d'` for distances before / after it.
//!
//! *Insertion:* if `d'(s,t) < d(s,t)`, every new shortest path crosses
//! the new edge, say oriented `s ⇝ a – b ⇝ t`; the triangle inequality
//! then forces `d'(s,b) = d'(s,a) + 1 ≤ d(s,a) + 1 ≤ d(s,b)`… and if
//! *both* `d'(s,a) = d(s,a)` and `d'(s,b) = d(s,b)` held (i.e. `s ∉ D`)
//! together with `t ∉ D`, composing the unchanged legs would give
//! `d(s,t) ≤ d(s,b) + d(b,t) = d'(s,b) + d'(b,t) = d'(s,t)`,
//! contradicting the decrease. *Deletion:* symmetric — a pair can only
//! lengthen if an old shortest path used the edge, say
//! `d(s,t) = d(s,a) + 1 + d(b,t)` with `d(s,b) = d(s,a) + 1`; were `s`
//! and `t` both clean, `d'(s,t) ≤ d'(s,b) + d'(b,t) = d(s,b) + d(b,t) =
//! d(s,t)` and deletions never shorten, contradiction. So every affected
//! pair has an endpoint in `D`: recomputing the `D`-rows and mirroring
//! the `D`-columns repairs the matrix **exactly** — the repaired oracle
//! is byte-for-byte the same *function* as a fresh APSP, which is what
//! lets `ort-routing`'s repair layer reuse the PR 7 guarantee that every
//! exact oracle builds byte-identical schemes.

use crate::dist::{DistRow, DistStore};
use crate::paths::{Apsp, ApspEngine, Traversal};
use crate::{Graph, GraphError, NodeId};

/// The ceiling on `|D| / n` past which repair falls back to a full
/// recompute: past a quarter of the sources dirty, `|D|` row traversals
/// plus the probe cost rival the tiled full rebuild.
pub const DEFAULT_MAX_DIRTY_FRACTION: f64 = 0.25;

/// What one repair did, returned by every mutating call. Carries the
/// dirty set itself — the scheme-repair layer patches exactly these
/// routing-table regions — plus the fallback/traversal accounting churn
/// sweeps report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// `D`, ascending: the sources whose distance row changed. Empty
    /// when the width-widening fallback fired before the probe ran.
    pub dirty: Vec<NodeId>,
    /// Height-1 bands (matrix rows) recomputed by traversal.
    pub rows_recomputed: usize,
    /// Whether the repair fell back to a full matrix recompute.
    pub full_rebuild: bool,
}

impl RepairReport {
    /// `|D|`: how many sources the delta touched.
    #[must_use]
    pub fn dirty_nodes(&self) -> usize {
        self.dirty.len()
    }
}

/// Lifetime totals across every repair this oracle has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Edge deltas processed (node join/leave not included).
    pub repairs: u64,
    /// Total dirty sources across all repairs.
    pub dirty_nodes: u64,
    /// Total rows recomputed by traversal.
    pub rows_recomputed: u64,
    /// Full-matrix fallback recomputes.
    pub fallback_rebuilds: u64,
}

/// An exact distance oracle that survives topology deltas by in-place
/// repair (see the module docs for the dirty-set argument).
///
/// Owns its graph: all topology changes go through [`DeltaOracle::add_edge`]
/// / [`DeltaOracle::remove_edge`] / [`DeltaOracle::add_node`] /
/// [`DeltaOracle::remove_node`] so the matrix can never fall out of sync
/// with the adjacency structure.
#[derive(Debug, Clone)]
pub struct DeltaOracle {
    g: Graph,
    apsp: Apsp,
    stats: RepairStats,
}

impl DeltaOracle {
    /// Builds the oracle over `g` (one full APSP). A repair falls back to
    /// a full recompute once more than [`DEFAULT_MAX_DIRTY_FRACTION`] of
    /// the sources are dirty.
    #[must_use]
    pub fn new(g: Graph) -> Self {
        let apsp = Apsp::compute(&g);
        DeltaOracle { g, apsp, stats: RepairStats::default() }
    }

    /// The current topology.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The repaired matrix (always exact for [`DeltaOracle::graph`]).
    #[must_use]
    pub fn apsp(&self) -> &Apsp {
        &self.apsp
    }

    /// Lifetime repair totals.
    #[must_use]
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// Adds edge `{u, v}` and repairs the matrix.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`GraphError`] for invalid pairs; the
    /// matrix is untouched on error.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<RepairReport, GraphError> {
        self.g.add_edge(u, v)?;
        Ok(self.repair_edge_delta(u, v))
    }

    /// Removes edge `{u, v}` and repairs the matrix.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`GraphError`] for invalid pairs; the
    /// matrix is untouched on error.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<RepairReport, GraphError> {
        self.g.remove_edge(u, v)?;
        Ok(self.repair_edge_delta(u, v))
    }

    /// Appends an isolated node (a join, before its links come up) and
    /// grows the matrix without any traversal: the new node is unreachable
    /// from everyone and at distance 0 from itself, every other cell is
    /// unchanged.
    pub fn add_node(&mut self) -> NodeId {
        let old_n = self.g.node_count();
        let id = self.g.add_node();
        let n = old_n + 1;
        let mut store = DistStore::unreachable(self.apsp.cell_width(), n * n);
        let old = self.apsp.store();
        for u in 0..old_n {
            for v in 0..old_n {
                store.set(u * n + v, old.get(u * old_n + v));
            }
        }
        store.set(id * n + id, 0);
        self.apsp.replace_store(n, store);
        id
    }

    /// Removes isolated node `u` (a leave, after its links were torn
    /// down) and shrinks the matrix without any traversal — dropping row
    /// and column `u` is exact because an isolated node participates in
    /// no path. Ids above `u` shift down, mirroring
    /// [`Graph::remove_node`].
    ///
    /// # Errors
    ///
    /// Returns the underlying [`GraphError`] if `u` is out of range or
    /// still has incident edges; the matrix is untouched on error.
    pub fn remove_node(&mut self, u: NodeId) -> Result<(), GraphError> {
        self.g.remove_node(u)?;
        let n = self.g.node_count();
        let old_n = n + 1;
        let mut store = DistStore::unreachable(self.apsp.cell_width(), n * n);
        let old = self.apsp.store();
        for s in 0..old_n {
            if s == u {
                continue;
            }
            let ns = s - usize::from(s > u);
            for t in 0..old_n {
                if t == u {
                    continue;
                }
                let nt = t - usize::from(t > u);
                store.set(ns * n + nt, old.get(s * old_n + t));
            }
        }
        self.apsp.replace_store(n, store);
        Ok(())
    }

    /// Probe + repair after edge delta `{a, b}` (already applied to the
    /// graph).
    fn repair_edge_delta(&mut self, a: NodeId, b: NodeId) -> RepairReport {
        let n = self.g.node_count();
        let _span = ort_telemetry::span_with(
            "repair.oracle",
            &[
                ("n", ort_telemetry::FieldValue::Int(n as u64)),
                ("a", ort_telemetry::FieldValue::Int(a as u64)),
                ("b", ort_telemetry::FieldValue::Int(b as u64)),
            ],
        );
        self.stats.repairs += 1;
        let _mem = ort_telemetry::alloc::mem_span("repair.oracle");

        // An edge removal can grow the diameter past what the compact cell
        // width represents; a fresh compute re-picks the width.
        if crate::dist::width_for(&self.g).bytes_per_cell()
            > self.apsp.cell_width().bytes_per_cell()
        {
            return self.full_rebuild(Vec::new());
        }

        // One traversal serves both probes and every dirty row, so a dense
        // graph's bitset rows are built once per repair. The probes fill
        // two scratch rows at the matrix's width; the width check above
        // guarantees every new distance fits it.
        let walk = Traversal::new(&self.g, ApspEngine::Auto);
        let endpoints = [a, b];
        let mut probes = DistStore::unreachable(self.apsp.cell_width(), 2 * n);
        for (k, &e) in endpoints.iter().enumerate() {
            walk.fill_row(&self.g, e, &mut probes, k);
        }
        let mut dirty_mask = vec![false; n];
        let mut dirty: Vec<NodeId> = Vec::new();
        let old = self.apsp.store();
        for (s, is_dirty) in dirty_mask.iter_mut().enumerate() {
            if probes.get(s) != old.get(a * n + s) || probes.get(n + s) != old.get(b * n + s) {
                *is_dirty = true;
                dirty.push(s);
            }
        }
        ort_telemetry::counter!("repair.dirty_nodes").add(dirty.len() as u64);
        // Distribution of how much of the oracle each delta invalidates:
        // ⌊1000·|dirty|/n⌋ per repair, the quantity the dirty-fraction
        // fallback thresholds on.
        ort_telemetry::hist!("repair.dirty_frac_x1000").record(dirty.len() as u64 * 1000 / n as u64);
        self.stats.dirty_nodes += dirty.len() as u64;

        if dirty.is_empty() {
            // The delta was distance-neutral (e.g. a redundant edge).
            return RepairReport { dirty, rows_recomputed: 0, full_rebuild: false };
        }
        if dirty.len() as f64 > DEFAULT_MAX_DIRTY_FRACTION * n as f64 {
            return self.full_rebuild(dirty);
        }

        // Each dirty row is filled straight into its matrix row; an
        // endpoint's row is its probe.
        let store = self.apsp.store_mut();
        for &s in &dirty {
            match endpoints.iter().position(|&e| e == s) {
                Some(k) => store.copy_row(s, probes.row(k, n)),
                None => walk.fill_row(&self.g, s, store, s),
            }
        }
        // Mirror the dirty columns into the clean rows: d(t, s) = d(s, t).
        for &s in &dirty {
            for (t, &t_dirty) in dirty_mask.iter().enumerate() {
                if !t_dirty {
                    let d = store.get(s * n + t);
                    store.set(t * n + s, d);
                }
            }
        }
        ort_telemetry::counter!("repair.bands_recomputed").add(dirty.len() as u64);
        self.stats.rows_recomputed += dirty.len() as u64;
        let rows = dirty.len();
        RepairReport { dirty, rows_recomputed: rows, full_rebuild: false }
    }

    fn full_rebuild(&mut self, dirty: Vec<NodeId>) -> RepairReport {
        ort_telemetry::counter!("repair.fallback_rebuilds").incr();
        let n = self.g.node_count();
        ort_telemetry::counter!("repair.bands_recomputed").add(n as u64);
        self.stats.fallback_rebuilds += 1;
        self.stats.rows_recomputed += n as u64;
        self.apsp = Apsp::compute(&self.g);
        RepairReport { dirty, rows_recomputed: n, full_rebuild: true }
    }
}

impl crate::oracle::Distances for DeltaOracle {
    fn node_count(&self) -> usize {
        self.apsp.node_count()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.apsp.distance(u, v)
    }

    fn describe(&self) -> &'static str {
        "delta-repair oracle"
    }

    fn peak_bytes(&self) -> usize {
        // The resident matrix plus the repair-path scratch every edge
        // delta allocates unconditionally: the two endpoint probe rows
        // (at the matrix's cell width) and the n-byte dirty mask. Dirty
        // rows are filled in place, so they add nothing. The old claim
        // stopped at the matrix, under-stating the peak of any process
        // that repairs — the allocator audit (claimed ≤ measured over a
        // construct+repair region) caught it.
        let n = self.apsp.node_count();
        self.apsp.heap_bytes() + 2 * n * self.apsp.cell_width().bytes_per_cell() + n
    }

    fn with_row(&self, v: NodeId, f: &mut dyn FnMut(DistRow<'_>)) {
        f(self.apsp.row(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::CellWidth;
    use crate::generators;
    use crate::oracle::Distances;

    /// Repaired matrix must equal a from-scratch compute, as *values*
    /// (the fallback may re-pick a different cell width).
    fn assert_matches_fresh(oracle: &DeltaOracle, context: &str) {
        let fresh = Apsp::compute(oracle.graph());
        assert_eq!(oracle.apsp().matrix_u32(), fresh.matrix_u32(), "{context}");
    }

    /// Deterministic pair stream for delta selection.
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 11
    }

    #[test]
    fn random_edge_deltas_stay_exact() {
        for (g, name) in [
            (generators::connected_gnp(48, 0.09, 7), "sparse"),
            (generators::gnp_half(32, 3), "dense"),
            (generators::grid(5, 6), "grid"),
        ] {
            let n = g.node_count();
            let mut oracle = DeltaOracle::new(g);
            let mut state = 0xDEADBEEFu64;
            for step in 0..40 {
                let u = lcg(&mut state) as usize % n;
                let v = lcg(&mut state) as usize % n;
                if u == v {
                    continue;
                }
                let report = if oracle.graph().has_edge(u, v) {
                    oracle.remove_edge(u, v).unwrap()
                } else {
                    oracle.add_edge(u, v).unwrap()
                };
                assert!(report.dirty_nodes() <= n);
                assert_matches_fresh(&oracle, &format!("{name} step {step}"));
            }
            assert!(oracle.stats().repairs > 0);
        }
    }

    #[test]
    fn bridge_removal_disconnects_exactly() {
        // Path 0-1-2-3: removing {1,2} splits the graph; the repaired
        // matrix must report the unreachable pairs, not stale distances.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut oracle = DeltaOracle::new(g);
        let report = oracle.remove_edge(1, 2).unwrap();
        assert!(report.dirty_nodes() > 0);
        assert_eq!(oracle.distance(0, 3), None);
        assert_eq!(oracle.distance(0, 1), Some(1));
        assert!(!oracle.is_connected());
        assert_matches_fresh(&oracle, "bridge removal");
        // Re-adding heals it.
        oracle.add_edge(1, 2).unwrap();
        assert_eq!(oracle.distance(0, 3), Some(3));
        assert_matches_fresh(&oracle, "bridge restored");
    }

    #[test]
    fn redundant_edge_is_distance_neutral() {
        // A chord between two already-adjacent-via-clique nodes changes
        // nothing: the probe must find an empty dirty set.
        let g = generators::complete(6);
        let mut oracle = DeltaOracle::new(g);
        let before = oracle.apsp().clone();
        let report = oracle.remove_edge(0, 1).unwrap();
        // Removing one clique edge only moves the {0,1} pair to distance 2.
        assert!(report.dirty_nodes() >= 2 || report.full_rebuild);
        let report = oracle.add_edge(0, 1).unwrap();
        assert!(report.dirty_nodes() >= 2 || report.full_rebuild);
        assert_eq!(oracle.apsp().matrix_u32(), before.matrix_u32());
        // Adding the edge again is idempotent and fully clean.
        let report = oracle.add_edge(0, 1).unwrap();
        assert_eq!(
            report,
            RepairReport { dirty: vec![], rows_recomputed: 0, full_rebuild: false }
        );
    }

    #[test]
    fn wide_deltas_fall_back_and_stay_exact() {
        // Closing path(30) into a cycle moves every node's distance to an
        // endpoint except the middle pair's, and opening it again moves
        // them back: both deltas dirty far more than a quarter of the
        // sources, so both recompute the whole matrix.
        let n = 30;
        let mut oracle = DeltaOracle::new(generators::path(n));
        let closed = oracle.add_edge(0, n - 1).unwrap();
        assert!(closed.dirty_nodes() * 4 > n, "{} dirty", closed.dirty_nodes());
        assert!(closed.full_rebuild, "a wide delta must fall back");
        assert_matches_fresh(&oracle, "closed into a cycle");
        let opened = oracle.remove_edge(0, n - 1).unwrap();
        assert!(opened.dirty_nodes() * 4 > n, "{} dirty", opened.dirty_nodes());
        assert!(opened.full_rebuild, "a wide delta must fall back");
        assert_matches_fresh(&oracle, "opened into a path");
        assert_eq!(oracle.stats().fallback_rebuilds, 2);
    }

    #[test]
    fn node_join_and_leave_restructure_exactly() {
        let g = generators::connected_gnp(20, 0.2, 9);
        let mut oracle = DeltaOracle::new(g);
        // Join: new node, then its links come up one by one.
        let id = oracle.add_node();
        assert_eq!(id, 20);
        assert_eq!(oracle.node_count(), 21);
        assert_eq!(oracle.distance(id, id), Some(0));
        assert_eq!(oracle.distance(0, id), None);
        assert_matches_fresh(&oracle, "post join");
        oracle.add_edge(id, 3).unwrap();
        oracle.add_edge(id, 11).unwrap();
        assert_matches_fresh(&oracle, "links up");
        assert!(oracle.is_connected());
        // Leave: links torn down, then the node goes away; ids shift.
        oracle.remove_edge(id, 3).unwrap();
        oracle.remove_edge(id, 11).unwrap();
        oracle.remove_node(id).unwrap();
        assert_eq!(oracle.node_count(), 20);
        assert_matches_fresh(&oracle, "post leave");
        // Leaving an interior id exercises the shift.
        oracle.graph().neighbors(5).to_vec().into_iter().for_each(|w| {
            oracle.remove_edge(5, w).unwrap();
        });
        oracle.remove_node(5).unwrap();
        assert_eq!(oracle.node_count(), 19);
        assert_matches_fresh(&oracle, "interior leave");
    }

    #[test]
    fn remove_node_rejects_connected_node() {
        let g = generators::cycle(5);
        let mut oracle = DeltaOracle::new(g);
        assert!(matches!(oracle.remove_node(2), Err(GraphError::NodeNotIsolated { .. })));
        assert_eq!(oracle.node_count(), 5);
        assert_matches_fresh(&oracle, "rejected leave");
    }

    #[test]
    fn implements_distances_exactly() {
        let g = generators::connected_gnp(25, 0.15, 4);
        let mut oracle = DeltaOracle::new(g);
        oracle.add_edge(0, 24).ok();
        let dyn_oracle: &dyn Distances = &oracle;
        assert!(dyn_oracle.is_exact());
        assert_eq!(dyn_oracle.describe(), "delta-repair oracle");
        // Matrix plus the repair scratch every delta allocates: two probe
        // rows at the matrix's one byte a cell and the n-byte dirty mask.
        let n = oracle.node_count();
        assert_eq!(oracle.apsp().cell_width(), CellWidth::U8);
        assert_eq!(dyn_oracle.peak_bytes(), oracle.apsp().heap_bytes() + 2 * n + n);
        let fresh = Apsp::compute(oracle.graph());
        for u in 0..25 {
            for v in 0..25 {
                assert_eq!(dyn_oracle.distance(u, v), fresh.distance(u, v));
            }
        }
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(
                    dyn_oracle.shortest_path_ports(oracle.graph(), u, v),
                    fresh.shortest_path_ports(oracle.graph(), u, v)
                );
            }
        }
    }

    #[test]
    fn width_widening_removal_falls_back() {
        // A cycle on 600 nodes stores u16 cells only because the diameter
        // bound exceeds u8; start from a chord-rich graph that fits u8,
        // then remove chords until the bound crosses the width boundary.
        let n = 520;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        // Chords keep the initial diameter (and its 2·ecc bound) small.
        for i in (0..n).step_by(8) {
            edges.push((i, (i + n / 2) % n));
        }
        let g = Graph::from_edges(n, edges).unwrap();
        let mut oracle = DeltaOracle::new(g);
        let mut removed = 0;
        for i in (0..n).step_by(8) {
            if oracle.graph().has_edge(i, (i + n / 2) % n) {
                oracle.remove_edge(i, (i + n / 2) % n).unwrap();
                removed += 1;
                assert_matches_fresh(&oracle, &format!("chord {i} removed"));
            }
        }
        assert!(removed > 0);
        // The bare cycle's diameter is n/2 = 260 > 254: the store must
        // have widened (via fallback) rather than corrupt distances.
        assert_eq!(oracle.distance(0, n / 2), Some((n / 2) as u32));
    }
}
