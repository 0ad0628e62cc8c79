//! Distance oracles: one trait over the exact distance sources.
//!
//! Scheme construction and verification take a `&dyn` [`Distances`], so a
//! run need not hold the full `n²`-cell matrix. The trait abstracts the
//! three ways this repo answers a distance query, all exact:
//!
//! * [`crate::paths::Apsp`] — the full matrix, at compact cell widths.
//!   Fastest queries, `n²` cells of memory.
//! * [`BandedOracle`] — streaming: holds one horizontal *band* of rows at
//!   a time ([`crate::dist::DistBand`]) and recomputes bands on demand.
//!   Builders that sweep sources in order (every scheme builder in
//!   `ort-routing` does) touch each band exactly once, so peak memory
//!   drops from `n²` to `band_rows × n` cells.
//! * [`crate::delta::DeltaOracle`] — the full matrix repaired in place
//!   under edge deltas, for churn.
//!
//! An oracle still says whether it is exact ([`Distances::is_exact`]) and
//! names itself ([`Distances::describe`]): the trait is public, so every
//! builder and the verifier refuse an inexact implementation by name.
//!
//! Besides single cells ([`Distances::distance`]), every oracle lends
//! whole source rows ([`Distances::with_row`], a [`DistRow`] at the
//! oracle's cell width). The trait's path helpers are defined once, as
//! defaults over `with_row`, with the one smallest-closer-neighbour rule
//! ([`DistRow::first_hop`]), so any *exact* implementation yields
//! byte-identical schemes.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::dist::{CellWidth, ComponentSweep, DistBand, DistRow};
use crate::paths::{Apsp, ApspEngine, Traversal, UNREACHABLE};
use crate::{Graph, NodeId};

/// A source of pairwise hop distances — exact or stretch-bounded.
///
/// Implementations must be deterministic: the same graph (and
/// constructor arguments) always yields the same answers, regardless of
/// thread count or query order.
pub trait Distances: Send + Sync {
    /// Number of nodes the oracle covers.
    fn node_count(&self) -> usize;

    /// Hop distance from `u` to `v` (`None` if unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32>;

    /// Whether every answer is the true shortest-path distance. Only
    /// exact oracles can build or verify a scheme: every builder and the
    /// verifier refuse the others.
    fn is_exact(&self) -> bool {
        true
    }

    /// A short human-readable name for this oracle, used by error
    /// messages that must say *which* distance source was rejected
    /// (e.g. `SchemeError::ApproximateOracle` in `ort-routing`).
    fn describe(&self) -> &'static str {
        "distance oracle"
    }

    /// Peak heap bytes of distance cells the oracle holds at any moment —
    /// the memory figure the bench metadata reports.
    fn peak_bytes(&self) -> usize;

    /// Lends source `v`'s row to `f`, calling it exactly once. Oracles
    /// that hold rows lend them in place at their cell width; the default
    /// copies the row out of [`Distances::distance`] into `u32` cells, for
    /// oracles that hold none. Use [`read_row`] to get a value back.
    ///
    /// `f` may run while the oracle holds an internal lock
    /// ([`BandedOracle`] does), so it must not query the same oracle: the
    /// lock is not re-entrant, and a nested query deadlocks or panics.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn with_row(&self, v: NodeId, f: &mut dyn FnMut(DistRow<'_>)) {
        let row: Vec<u32> = (0..self.node_count())
            .map(|w| self.distance(v, w).unwrap_or(UNREACHABLE))
            .collect();
        f(DistRow::U32(&row));
    }

    /// Whether the underlying graph is connected (vacuously true for
    /// `n ≤ 1`): every node is reachable from node 0, read off row 0.
    fn is_connected(&self) -> bool {
        self.node_count() <= 1
            || read_row(self, 0, |row| (0..row.len()).all(|v| row.get(v).is_some()))
    }

    /// The neighbours of `u` on some shortest path to `v` — neighbours `w`
    /// with `d(w, v) == d(u, v) − 1`, in sorted neighbour order, read off
    /// row `v` ([`DistRow::closer_neighbors`]). This is the edge set a
    /// *full information* shortest-path routing function returns
    /// (Section 1 of the paper). Only meaningful when
    /// [`Distances::is_exact`] holds.
    fn shortest_path_ports(&self, g: &Graph, u: NodeId, v: NodeId) -> Vec<NodeId> {
        read_row(self, v, |row| row.closer_neighbors(g, u).collect())
    }

    /// One canonical shortest path from `u` to `v` (smallest-id
    /// qualifying neighbour first), inclusive of both endpoints, walked
    /// on row `v` alone; `None` if `v` is unreachable. Only meaningful
    /// when [`Distances::is_exact`] holds.
    fn shortest_path(&self, g: &Graph, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        read_row(self, v, |row| {
            row.get(u)?;
            let mut path = vec![u];
            let mut cur = u;
            while cur != v {
                cur = row.first_hop(g, cur)?;
                path.push(cur);
            }
            Some(path)
        })
    }

    /// The smallest-id neighbour of `u` on a shortest path to `v`: row
    /// `v`'s [`DistRow::first_hop`]. Equal to
    /// `shortest_path_ports(g, u, v).first()`. A builder that needs first
    /// hops toward `v` from many nodes should take row `v` once with
    /// [`Distances::with_row`] instead of paying one row access per node.
    /// `None` when `u == v` or `v` is unreachable. Only meaningful when
    /// [`Distances::is_exact`] holds.
    fn first_hop_toward(&self, g: &Graph, u: NodeId, v: NodeId) -> Option<NodeId> {
        read_row(self, v, |row| row.first_hop(g, u))
    }
}

/// Runs `f` on source `v`'s row and returns its result:
/// [`Distances::with_row`] for callers that compute a value (the same
/// lock contract applies — `f` must not query `dists`).
///
/// # Panics
///
/// Panics if `v` is out of range, or if `dists` breaks `with_row`'s
/// contract by never calling its visitor.
pub fn read_row<D, R>(dists: &D, v: NodeId, f: impl FnOnce(DistRow<'_>) -> R) -> R
where
    D: Distances + ?Sized,
{
    let mut f = Some(f);
    let mut out = None;
    dists.with_row(v, &mut |row| out = f.take().map(|f| f(row)));
    out.expect("with_row lends the row exactly once")
}

impl Distances for Apsp {
    fn node_count(&self) -> usize {
        Apsp::node_count(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        Apsp::distance(self, u, v)
    }

    fn describe(&self) -> &'static str {
        "full-matrix APSP oracle"
    }

    fn peak_bytes(&self) -> usize {
        self.heap_bytes()
    }

    fn with_row(&self, v: NodeId, f: &mut dyn FnMut(DistRow<'_>)) {
        f(self.row(v));
    }
}

/// An exact streaming oracle holding one horizontal matrix band at a
/// time.
///
/// The band grid is fixed (`band_rows`-aligned starts), so a query for
/// source `u` loads the band `⌊u / band_rows⌋` and *retires* whatever
/// band was resident before — peak distance memory is one band,
/// `band_rows × n` compact cells, instead of `n²`. Scheme builders sweep
/// sources in ascending order, so a full build computes each band exactly
/// once: the same `O(n·m)` traversal work as the full matrix at a
/// fraction of the memory.
///
/// The oracle resolves its engine once, into a [`Traversal`] it keeps for
/// its life: on a dense graph that holds the bitset engine's adjacency
/// rows (`n × ⌈n/64⌉` words), which [`Distances::peak_bytes`] counts.
///
/// Interior mutability (a [`Mutex`]) keeps the trait object `Sync`;
/// queries from concurrent verifiers serialise on the lock, so this
/// oracle is meant for memory-bound *construction*, not parallel
/// verification. [`Distances::with_row`] lends a row of the resident band
/// under that lock, so a sweep over every node toward one destination
/// takes the lock once instead of once per cell.
///
/// A panic while the lock is held (in a `with_row` visitor, say)
/// poisons it but leaves the state consistent: the old band is dropped
/// before the next is computed, and the band count is bumped only after.
/// Every query therefore recovers a poisoned lock and carries on.
#[derive(Debug)]
pub struct BandedOracle {
    g: Graph,
    walk: Traversal,
    /// The cell width of `g`'s [`ComponentSweep`], worked out once: it is
    /// a whole-graph traversal, and every band and `peak_bytes` needs it.
    width: CellWidth,
    /// Whether the same sweep found `g` connected, so
    /// [`Distances::is_connected`] fills no band.
    connected: bool,
    band_rows: usize,
    state: Mutex<BandState>,
}

#[derive(Debug)]
struct BandState {
    band: Option<DistBand>,
    bands_computed: u64,
}

impl BandedOracle {
    /// Creates a banded oracle over `g` holding `band_rows` source rows
    /// at a time, with the auto-selected engine.
    ///
    /// # Panics
    ///
    /// Panics if `band_rows` is zero.
    #[must_use]
    pub fn new(g: Graph, band_rows: usize) -> Self {
        assert!(band_rows >= 1, "band must hold at least one row");
        let sweep = ComponentSweep::of(&g);
        BandedOracle {
            walk: Traversal::new(&g, ApspEngine::Auto),
            width: sweep.width(),
            connected: sweep.is_connected(),
            g,
            band_rows,
            state: Mutex::new(BandState { band: None, bands_computed: 0 }),
        }
    }

    /// The configured band height in rows.
    #[must_use]
    pub fn band_rows(&self) -> usize {
        self.band_rows
    }

    /// How many bands have been computed so far. An ascending sweep over
    /// all sources ends at `⌈n / band_rows⌉`; anything higher means the
    /// access pattern thrashed the band cache.
    #[must_use]
    pub fn bands_computed(&self) -> u64 {
        self.lock().bands_computed
    }

    /// The graph this oracle answers for.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The band state, recovered if a panic poisoned the lock (see the
    /// type docs for why the state is still consistent).
    fn lock(&self) -> MutexGuard<'_, BandState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The band holding source `u`'s row, computed first unless it is
    /// already resident.
    fn resident<'s>(&self, st: &'s mut BandState, u: NodeId) -> &'s DistBand {
        let n = self.g.node_count();
        if !st.band.as_ref().is_some_and(|b| b.contains(u)) {
            let start = (u / self.band_rows) * self.band_rows;
            let rows = self.band_rows.min(n - start);
            // Dropping the previous band *before* computing the next keeps
            // peak memory at one band.
            st.band = None;
            st.band = Some(self.walk.band(&self.g, start, rows, self.width));
            st.bands_computed += 1;
        }
        st.band.as_ref().expect("band just computed")
    }
}

impl Distances for BandedOracle {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        let n = self.g.node_count();
        assert!(u < n && v < n, "node out of range");
        self.resident(&mut self.lock(), u).distance(u, v)
    }

    fn with_row(&self, v: NodeId, f: &mut dyn FnMut(DistRow<'_>)) {
        assert!(v < self.g.node_count(), "node out of range");
        f(self.resident(&mut self.lock(), v).row(v));
    }

    fn describe(&self) -> &'static str {
        "banded streaming oracle"
    }

    fn is_connected(&self) -> bool {
        self.connected
    }

    fn peak_bytes(&self) -> usize {
        // One band of compact cells plus the traversal engine's scratch:
        // the per-tile masks live while the band fills, and the bitset
        // engine's adjacency rows for the oracle's life, so a claim
        // without them would under-state the measured peak (the
        // allocator audit enforces claimed ≤ measured).
        let n = self.g.node_count();
        self.band_rows.min(n) * n * self.width.bytes_per_cell()
            + self.walk.engine().scratch_bytes(&self.g, self.band_rows.min(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaOracle;
    use crate::dist::{CellWidth, DistStore};
    use crate::generators;

    /// An exact oracle that answers single cells only, so every row it
    /// lends is the trait's default `u32` copy.
    struct CellsOnly<'a>(&'a Apsp);

    impl Distances for CellsOnly<'_> {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }

        fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
            self.0.distance(u, v)
        }

        fn peak_bytes(&self) -> usize {
            0
        }
    }

    /// The closer neighbours of `u` toward `v` read cell by cell through
    /// `distance` — the per-cell rule the row path replaced, kept as the
    /// reference it must reproduce.
    fn ports_by_distance(dists: &dyn Distances, g: &Graph, u: NodeId, v: NodeId) -> Vec<NodeId> {
        if u == v {
            return Vec::new();
        }
        let Some(d) = dists.distance(u, v) else {
            return Vec::new();
        };
        g.neighbors(u).iter().copied().filter(|&w| dists.distance(w, v) == Some(d - 1)).collect()
    }

    /// Every row of `oracle` agrees cell for cell with its own `distance`,
    /// and every row path — `DistRow::first_hop`, `closer_neighbors` and
    /// the trait's `first_hop_toward` / `shortest_path_ports` — with the
    /// per-cell rule over `reference`'s distances.
    fn assert_rows_match(oracle: &dyn Distances, reference: &dyn Distances, g: &Graph, name: &str) {
        let n = g.node_count();
        for v in 0..n {
            // Collected inside, compared outside: the visitor may run
            // under the oracle's lock, so it must not query the oracle.
            let (cells, hops, closer) = read_row(oracle, v, |row| {
                assert_eq!(row.len(), n, "{name} row {v}");
                let cells: Vec<_> = (0..n).map(|u| row.get(u)).collect();
                let hops: Vec<_> = (0..n).map(|u| row.first_hop(g, u)).collect();
                let closer: Vec<Vec<_>> =
                    (0..n).map(|u| row.closer_neighbors(g, u).collect()).collect();
                (cells, hops, closer)
            });
            for u in 0..n {
                assert_eq!(cells[u], oracle.distance(v, u), "{name} cell ({v},{u})");
                let expect = ports_by_distance(reference, g, u, v);
                assert_eq!(closer[u], expect, "{name} closer ({u}→{v})");
                assert_eq!(hops[u], expect.first().copied(), "{name} first hop ({u}→{v})");
                assert_eq!(oracle.first_hop_toward(g, u, v), hops[u], "{name} ({u}→{v})");
                assert_eq!(oracle.shortest_path_ports(g, u, v), expect, "{name} ({u}→{v})");
            }
        }
    }

    fn assert_exact_matches_apsp(oracle: &dyn Distances, apsp: &Apsp, g: &Graph, name: &str) {
        let n = g.node_count();
        assert_eq!(oracle.node_count(), n, "{name}");
        assert!(oracle.is_exact(), "{name}");
        assert_eq!(oracle.is_connected(), apsp.is_connected(), "{name}");
        for u in 0..n {
            for v in 0..n {
                assert_eq!(oracle.distance(u, v), apsp.distance(u, v), "{name} ({u},{v})");
            }
        }
        for u in 0..n.min(6) {
            for v in 0..n.min(6) {
                assert_eq!(
                    oracle.shortest_path_ports(g, u, v),
                    apsp.shortest_path_ports(g, u, v),
                    "{name} ports ({u},{v})"
                );
                assert_eq!(
                    oracle.shortest_path(g, u, v),
                    apsp.shortest_path(g, u, v),
                    "{name} path ({u},{v})"
                );
            }
        }
        assert_rows_match(oracle, apsp, g, name);
    }

    #[test]
    fn banded_oracle_matches_apsp() {
        for (g, name, width) in [
            (generators::connected_gnp(60, 0.08, 3), "sparse", CellWidth::U8),
            (generators::gnp_half(33, 5), "dense", CellWidth::U8),
            (Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]).unwrap(), "split", CellWidth::U8),
            // Its diameter, 299, overflows a byte.
            (generators::path(300), "long path", CellWidth::U16),
        ] {
            let apsp = Apsp::compute(&g);
            assert_eq!(apsp.cell_width(), width, "{name}");
            for band_rows in [1, 7, 64, 1000] {
                let oracle = BandedOracle::new(g.clone(), band_rows);
                assert_exact_matches_apsp(&oracle, &apsp, &g, name);
                // One band of cells never exceeds the full matrix; the
                // claim also charges the engine's traversal scratch.
                assert!(
                    oracle.peak_bytes()
                        <= apsp.heap_bytes() + ApspEngine::Auto.scratch_bytes(&g, g.node_count()),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn banded_sweep_computes_each_band_once() {
        let g = generators::connected_gnp(50, 0.1, 9);
        let oracle = BandedOracle::new(g.clone(), 8);
        for u in 0..50 {
            for v in 0..50 {
                let _ = oracle.distance(u, v);
            }
        }
        assert_eq!(oracle.bands_computed(), 50u64.div_ceil(8));
        assert_eq!(oracle.band_rows(), 8);
        assert_eq!(oracle.graph().node_count(), 50);
        // Revisiting an earlier band recomputes it — streaming, not caching.
        let _ = oracle.distance(0, 1);
        assert_eq!(oracle.bands_computed(), 50u64.div_ceil(8) + 1);
    }

    #[test]
    fn banded_connectivity_fills_no_band() {
        for (g, connected) in [
            (generators::connected_gnp(50, 0.1, 9), true),
            (Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]).unwrap(), false),
            (Graph::empty(1), true),
            (Graph::empty(0), true),
        ] {
            let oracle = BandedOracle::new(g, 8);
            assert_eq!(oracle.is_connected(), connected);
            assert_eq!(oracle.bands_computed(), 0, "the construction sweep answered");
        }
    }

    #[test]
    fn first_hop_toward_matches_shortest_path_ports() {
        for (g, width) in [
            (generators::connected_gnp(40, 0.1, 4), CellWidth::U8),
            (generators::grid(4, 5), CellWidth::U8),
            (Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]).unwrap(), CellWidth::U8),
            (generators::path(300), CellWidth::U16),
        ] {
            let n = g.node_count();
            let apsp = Apsp::compute(&g);
            assert_eq!(read_row(&apsp, 0, |row| row.width()), width);
            assert_rows_match(&apsp, &apsp, &g, "apsp");
            for band_rows in [1, 5, 7, 64] {
                let banded = BandedOracle::new(g.clone(), band_rows);
                assert_eq!(read_row(&banded, n - 1, |row| row.width()), width);
                assert_rows_match(&banded, &apsp, &g, &format!("banded {band_rows}"));
            }

            // The repaired matrix lends rows as a fresh one would.
            let mut delta = DeltaOracle::new(g.clone());
            let report = if g.has_edge(0, n - 1) {
                delta.remove_edge(0, n - 1)
            } else {
                delta.add_edge(0, n - 1)
            }
            .unwrap();
            assert!(report.dirty_nodes() > 0);
            let repaired = Apsp::compute(delta.graph());
            assert_rows_match(&delta, &repaired, delta.graph(), "delta");

            // The trait's default row copy. Each trait helper copies a
            // whole row per call here, so the long path is left to the
            // oracles that hold rows.
            if n <= 64 {
                let cells = CellsOnly(&apsp);
                assert_eq!(read_row(&cells, 0, |row| row.width()), CellWidth::U32);
                assert_rows_match(&cells, &apsp, &g, "cells only");
            }
        }

        // A hand-built u32 band, connected and split.
        for g in [generators::grid(4, 5), Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]).unwrap()] {
            let n = g.node_count();
            let apsp = Apsp::compute(&g);
            let cells = apsp.matrix_u32()[2 * n..5 * n].to_vec();
            let band = DistBand::new(2, 3, n, DistStore::U32(cells));
            for v in 2..5 {
                let row = band.row(v);
                assert_eq!(row.width(), CellWidth::U32);
                for u in 0..n {
                    assert_eq!(row.get(u), apsp.distance(v, u), "u32 cell ({v},{u})");
                    let expect = ports_by_distance(&apsp, &g, u, v);
                    assert_eq!(row.closer_neighbors(&g, u).collect::<Vec<_>>(), expect);
                    assert_eq!(row.first_hop(&g, u), expect.first().copied(), "u32 ({u}→{v})");
                }
            }
        }
    }

    #[test]
    fn a_panicking_visitor_leaves_the_banded_oracle_usable() {
        let g = generators::connected_gnp(40, 0.1, 4);
        let apsp = Apsp::compute(&g);
        let oracle = BandedOracle::new(g.clone(), 8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            oracle.with_row(9, &mut |_| panic!("visitor panics under the band lock"));
        }));
        assert!(caught.is_err());
        assert!(oracle.state.is_poisoned(), "the panic unwound through the lock");
        assert_eq!(oracle.bands_computed(), 1);
        // Row 9's band is still resident: reading it computes nothing.
        assert_eq!(read_row(&oracle, 9, |row| row.get(0)), apsp.distance(9, 0));
        assert_eq!(oracle.bands_computed(), 1);
        assert_exact_matches_apsp(&oracle, &apsp, &g, "after a visitor panic");
    }

    #[test]
    fn oracles_describe_themselves() {
        let g = generators::cycle(5);
        assert_eq!(Distances::describe(&Apsp::compute(&g)), "full-matrix APSP oracle");
        assert_eq!(BandedOracle::new(g.clone(), 2).describe(), "banded streaming oracle");
    }

    #[test]
    fn apsp_implements_distances() {
        let g = generators::grid(4, 5);
        let apsp = Apsp::compute(&g);
        let dyn_oracle: &dyn Distances = &apsp;
        assert_eq!(dyn_oracle.peak_bytes(), apsp.heap_bytes());
        assert_exact_matches_apsp(dyn_oracle, &apsp, &g, "apsp-as-dyn");
    }
}
