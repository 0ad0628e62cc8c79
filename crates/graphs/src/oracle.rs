//! Distance oracles: one trait over exact and approximate distance
//! sources.
//!
//! Scheme construction and verification take a `&dyn` [`Distances`], so a
//! run need not hold the full `n²`-cell matrix. The trait abstracts the
//! three ways this repo can answer a distance query:
//!
//! * [`crate::paths::Apsp`] — the exact full matrix, at compact cell
//!   widths. Fastest queries, `n²` cells of memory.
//! * [`BandedOracle`] — exact, streaming: holds one horizontal *band* of
//!   rows at a time ([`crate::dist::DistBand`]) and recomputes bands on
//!   demand. Builders that sweep sources in order (every scheme builder
//!   in `ort-routing` does) touch each band exactly once, so peak memory
//!   drops from `n²` to `band_rows × n` cells.
//! * [`LandmarkOracle`] — approximate, Thorup–Zwick-flavoured: stores
//!   exact BFS rows for `k` sampled landmarks only (`k × n` cells) and
//!   answers `min_l d(u,l) + d(l,v)` otherwise. Queries involving a
//!   landmark are exact; general pairs obey the additive contract
//!   `d(u,v) ≤ estimate ≤ d(u,v) + 2·min(r_u, r_v)` where `r_x` is the
//!   distance from `x` to its nearest landmark (checked by the
//!   conformance crate at small `n`).
//!
//! Besides single cells ([`Distances::distance`]), every oracle lends
//! whole source rows ([`Distances::with_row`], a [`DistRow`] at the
//! oracle's cell width). The trait's path helpers are defined once, as
//! defaults over `with_row`, with the one smallest-closer-neighbour rule
//! ([`DistRow::first_hop`]), so any *exact* implementation yields
//! byte-identical schemes.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::dist::{CellWidth, DistBand, DistRow, DistStore};
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

    /// Hop distance from `u` to `v` (`None` if unreachable). For
    /// inexact oracles this is an upper bound on the true distance, and
    /// `None` may be returned for reachable pairs whose component holds
    /// no landmark.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32>;

    /// Whether every answer is the true shortest-path distance. Exact
    /// oracles can build and verify any scheme; approximate ones are
    /// restricted to stretch-tolerant builders.
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
    /// [`crate::dist::width_for`] of `g`, worked out once: it is a
    /// whole-graph traversal, and every band and `peak_bytes` needs it.
    width: CellWidth,
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
        Self::with_engine(g, band_rows, ApspEngine::Auto)
    }

    /// As [`BandedOracle::new`] with an explicit traversal engine.
    ///
    /// # Panics
    ///
    /// Panics if `band_rows` is zero.
    #[must_use]
    pub fn with_engine(g: Graph, band_rows: usize, engine: ApspEngine) -> Self {
        assert!(band_rows >= 1, "band must hold at least one row");
        BandedOracle {
            walk: Traversal::new(&g, engine),
            width: crate::dist::width_for(&g),
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

/// A Thorup–Zwick-flavoured approximate oracle: exact BFS rows for `k`
/// sampled landmarks, triangle-inequality estimates for everyone else.
///
/// For each node `x`, let `ℓ(x)` be its nearest landmark and
/// `r_x = d(x, ℓ(x))` its *radius*. The estimate
/// `min_l d(u,l) + d(l,v)` is always an upper bound on `d(u,v)`, is
/// exact whenever `u` or `v` *is* a landmark (the minimum is achieved at
/// that landmark), and routing through `ℓ(u)` or `ℓ(v)` bounds the error:
/// `estimate ≤ d(u,v) + 2·min(r_u, r_v)`. The conformance crate checks
/// this contract exhaustively at small `n`.
///
/// Memory is `k × n` cells plus `O(n)` bookkeeping — with the paper's
/// `k = ⌈√(n·log₂ n)⌉` that is `Õ(n^{3/2})` instead of `n²`.
#[derive(Debug, Clone)]
pub struct LandmarkOracle {
    n: usize,
    /// Sorted sampled landmark ids.
    landmarks: Vec<NodeId>,
    /// Row-major `k × n`: row `i` = exact distances from `landmarks[i]`.
    rows: DistStore,
    /// Index into `landmarks` of each node's nearest landmark (`None`
    /// when no landmark is reachable from the node).
    nearest: Vec<Option<usize>>,
}

impl LandmarkOracle {
    /// Builds the oracle with the paper's default `⌈√(n·log₂ n)⌉`
    /// landmark count (clamped to `[1, n]`).
    #[must_use]
    pub fn build(g: &Graph, seed: u64) -> Self {
        let n = g.node_count();
        let nf = n.max(1) as f64;
        let count = (nf * nf.log2().max(1.0)).sqrt().ceil() as usize;
        Self::build_with_count(g, seed, count.clamp(1, n.max(1)))
    }

    /// Builds the oracle with an explicit landmark count (clamped to
    /// `[1, n]`). Landmark sampling matches `LandmarkScheme::build` in
    /// `ort-routing` (same seed and count ⇒ same landmark set), so a
    /// scheme built *from* this oracle agrees with one built beside it.
    #[must_use]
    pub fn build_with_count(g: &Graph, seed: u64, count: usize) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = g.node_count();
        if n == 0 {
            return LandmarkOracle {
                n: 0,
                landmarks: Vec::new(),
                rows: DistStore::unreachable(crate::dist::CellWidth::U8, 0),
                nearest: Vec::new(),
            };
        }
        let _mem = ort_telemetry::alloc::mem_span("oracle.landmarks.build");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut landmarks = crate::generators::random_permutation(n, &mut rng);
        landmarks.truncate(count.clamp(1, n));
        // The permutation was allocated at length n; keep only the k
        // sampled ids so the retained footprint matches `peak_bytes`'s
        // k·8-byte claim instead of silently holding n·8.
        landmarks.shrink_to_fit();
        landmarks.sort_unstable();

        let k = landmarks.len();
        let width = crate::dist::width_for(g);
        let mut rows = DistStore::unreachable(width, k * n);
        match &mut rows {
            DistStore::U8(v) => fill_landmark_rows(g, &landmarks, v),
            DistStore::U16(v) => fill_landmark_rows(g, &landmarks, v),
            DistStore::U32(v) => fill_landmark_rows(g, &landmarks, v),
        }

        let mut nearest = vec![None; n];
        for (v, slot) in nearest.iter_mut().enumerate() {
            let mut best: Option<(u32, usize)> = None;
            for li in 0..k {
                let d = rows.get(li * n + v);
                if d != UNREACHABLE && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, li));
                }
            }
            *slot = best.map(|(_, li)| li);
        }
        LandmarkOracle { n, landmarks, rows, nearest }
    }

    /// The sorted landmark set.
    #[must_use]
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Exact distance from landmark `li` (an index into
    /// [`LandmarkOracle::landmarks`]) to node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `li` or `v` is out of range.
    #[must_use]
    pub fn landmark_distance(&self, li: usize, v: NodeId) -> Option<u32> {
        self.landmark_row(li).get(v)
    }

    /// Landmark `li`'s exact distance row (`li` an index into
    /// [`LandmarkOracle::landmarks`]), lent in place. Routing toward a
    /// landmark takes [`DistRow::first_hop`] on this row.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of range.
    #[must_use]
    pub fn landmark_row(&self, li: usize) -> DistRow<'_> {
        assert!(li < self.landmarks.len(), "index out of range");
        self.rows.row(li, self.n)
    }

    /// Index (into [`LandmarkOracle::landmarks`]) of `u`'s nearest
    /// landmark, `None` if no landmark is reachable from `u`. Ties break
    /// to the smallest landmark id.
    #[must_use]
    pub fn nearest(&self, u: NodeId) -> Option<usize> {
        self.nearest[u]
    }

    /// `u`'s radius `r_u`: the distance to its nearest landmark.
    #[must_use]
    pub fn radius(&self, u: NodeId) -> Option<u32> {
        let li = self.nearest[u]?;
        self.landmark_distance(li, u)
    }

    /// A certified *lower* bound on `d(u,v)`:
    /// `max_l |d(u,l) − d(l,v)|` over landmarks seeing both endpoints
    /// (landmark distances are 1-Lipschitz along any path). Together with
    /// [`Distances::distance`] this brackets the true distance; the
    /// conformance contract test checks `lower ≤ d ≤ estimate`.
    #[must_use]
    pub fn distance_lower_bound(&self, u: NodeId, v: NodeId) -> u32 {
        if u == v {
            return 0;
        }
        let mut best = 0u32;
        for li in 0..self.landmarks.len() {
            let du = self.rows.get(li * self.n + u);
            let dv = self.rows.get(li * self.n + v);
            if du != UNREACHABLE && dv != UNREACHABLE {
                best = best.max(du.abs_diff(dv));
            }
        }
        best
    }
}

/// Fills row `i` of `out` with exact BFS distances from `landmarks[i]`.
fn fill_landmark_rows<T: crate::dist::DistCell>(g: &Graph, landmarks: &[NodeId], out: &mut [T]) {
    let n = g.node_count();
    let walk = Traversal::new(g, ApspEngine::Queue);
    for (i, &l) in landmarks.iter().enumerate() {
        walk.fill(g, l, 1, &mut out[i * n..(i + 1) * n]);
    }
}

impl Distances for LandmarkOracle {
    fn node_count(&self) -> usize {
        self.n
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        assert!(u < self.n && v < self.n, "node out of range");
        if u == v {
            return Some(0);
        }
        let mut best: Option<u32> = None;
        for li in 0..self.landmarks.len() {
            let du = self.rows.get(li * self.n + u);
            let dv = self.rows.get(li * self.n + v);
            if du != UNREACHABLE && dv != UNREACHABLE {
                let est = du + dv;
                if best.is_none_or(|b| est < b) {
                    best = Some(est);
                }
            }
        }
        best
    }

    fn is_exact(&self) -> bool {
        // Every node being a landmark would make estimates exact, but the
        // oracle's contract is stretch-bounded either way.
        false
    }

    fn describe(&self) -> &'static str {
        "approximate landmark oracle"
    }

    fn peak_bytes(&self) -> usize {
        // Everything the built oracle owns: the k×n landmark rows plus
        // the O(n) bookkeeping the old claim omitted — `nearest` (an
        // `Option<usize>` per node) and the landmark-id list itself.
        // The allocator audit (claimed ≤ measured) caught the omission.
        self.rows.heap_bytes()
            + self.nearest.capacity() * std::mem::size_of::<Option<usize>>()
            + self.landmarks.capacity() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaOracle;
    use crate::dist::CellWidth;
    use crate::generators;

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

            // The trait's default row copy, checked against the landmark
            // oracle's own estimates. Each trait helper copies a whole row
            // per call here, so the long path is left to the exact oracles.
            if n <= 64 {
                let lo = LandmarkOracle::build(&g, 3);
                assert_eq!(read_row(&lo, 0, |row| row.width()), CellWidth::U32);
                assert_rows_match(&lo, &lo, &g, "landmark");
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
        assert_eq!(LandmarkOracle::build(&g, 1).describe(), "approximate landmark oracle");
    }

    #[test]
    fn apsp_implements_distances() {
        let g = generators::grid(4, 5);
        let apsp = Apsp::compute(&g);
        let dyn_oracle: &dyn Distances = &apsp;
        assert_eq!(dyn_oracle.peak_bytes(), apsp.heap_bytes());
        assert_exact_matches_apsp(dyn_oracle, &apsp, &g, "apsp-as-dyn");
    }

    #[test]
    fn landmark_oracle_contract_small() {
        for (g, name) in [
            (generators::connected_gnp(40, 0.12, 2), "sparse"),
            (generators::gnp_half(30, 4), "dense"),
            (generators::cycle(17), "cycle"),
        ] {
            let apsp = Apsp::compute(&g);
            let lo = LandmarkOracle::build(&g, 11);
            assert!(!lo.is_exact(), "{name}");
            assert!(!lo.landmarks().is_empty(), "{name}");
            let n = g.node_count();
            // The k×n rows stay below the full matrix; the audited claim
            // additionally charges the O(n) bookkeeping (a 16-byte
            // `Option<usize>` per node plus the ≤ n landmark ids).
            assert!(lo.peak_bytes() <= apsp.heap_bytes() + 24 * n, "{name}");
            for u in 0..n {
                for v in 0..n {
                    let d = apsp.distance(u, v).expect("connected");
                    let est = lo.distance(u, v).expect("connected + landmarks");
                    let lower = lo.distance_lower_bound(u, v);
                    assert!(lower <= d, "{name} ({u},{v}): lower {lower} > d {d}");
                    assert!(est >= d, "{name} ({u},{v}): est {est} < d {d}");
                    let slack =
                        2 * lo.radius(u).expect("reachable").min(lo.radius(v).expect("reachable"));
                    assert!(
                        est <= d + slack,
                        "{name} ({u},{v}): est {est} > d {d} + 2·min(r) {slack}"
                    );
                }
            }
            // Landmark-involving queries are exact.
            for &l in lo.landmarks() {
                for v in 0..n {
                    assert_eq!(lo.distance(l, v), apsp.distance(l, v), "{name} landmark {l}");
                }
            }
        }
    }

    #[test]
    fn landmark_oracle_all_nodes_is_exact_valued() {
        let g = generators::grid(4, 4);
        let apsp = Apsp::compute(&g);
        let lo = LandmarkOracle::build_with_count(&g, 1, 16);
        assert_eq!(lo.landmarks().len(), 16);
        for u in 0..16 {
            assert_eq!(lo.radius(u), Some(0));
            assert_eq!(lo.nearest(u), Some(u));
            for v in 0..16 {
                assert_eq!(lo.distance(u, v), apsp.distance(u, v));
            }
        }
    }

    #[test]
    fn landmark_oracle_disconnected_graph() {
        // Components {0,1,2}, {3,4}, {5}: estimates for unreachable pairs
        // stay None (a landmark would have to see both endpoints).
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let apsp = Apsp::compute(&g);
        let lo = LandmarkOracle::build_with_count(&g, 3, 2);
        for u in 0..6 {
            assert_eq!(lo.distance(u, u), Some(0));
            for v in 0..6 {
                match (apsp.distance(u, v), lo.distance(u, v)) {
                    (None, est) => assert_eq!(est, None, "({u},{v})"),
                    (Some(d), Some(est)) => assert!(est >= d, "({u},{v})"),
                    // A reachable pair in a landmark-free component has no
                    // estimate — the documented approximate-oracle caveat.
                    (Some(_), None) => {}
                }
            }
            match lo.nearest(u) {
                Some(li) => assert_eq!(lo.radius(u), lo.landmark_distance(li, u)),
                None => assert_eq!(lo.radius(u), None),
            }
        }
    }

    #[test]
    fn landmark_build_is_seed_deterministic() {
        let g = generators::connected_gnp(30, 0.15, 6);
        let a = LandmarkOracle::build(&g, 42);
        let b = LandmarkOracle::build(&g, 42);
        assert_eq!(a.landmarks(), b.landmarks());
        for u in 0..30 {
            for v in 0..30 {
                assert_eq!(a.distance(u, v), b.distance(u, v));
            }
        }
    }
}
