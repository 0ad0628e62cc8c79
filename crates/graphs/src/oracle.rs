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
//! The trait's path helpers are defined once, as defaults over
//! [`Distances::distance`], with smallest-qualifying-neighbour rules, so
//! any *exact* implementation yields byte-identical schemes.

use std::sync::Mutex;

use crate::dist::{DistBand, DistStore};
use crate::paths::{compute_band, Apsp, ApspEngine, UNREACHABLE};
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

    /// Whether the underlying graph is connected (vacuously true for
    /// `n ≤ 1`); derived from row 0, matching
    /// [`crate::paths::Apsp::is_connected`].
    fn is_connected(&self) -> bool {
        let n = self.node_count();
        n <= 1 || (0..n).all(|v| self.distance(0, v).is_some())
    }

    /// The neighbours of `u` on some shortest path to `v` — neighbours `w`
    /// with `d(w, v) == d(u, v) − 1`, in sorted neighbour order. This is
    /// the edge set a *full information* shortest-path routing function
    /// returns (Section 1 of the paper). Only meaningful when
    /// [`Distances::is_exact`] holds.
    fn shortest_path_ports(&self, g: &Graph, u: NodeId, v: NodeId) -> Vec<NodeId> {
        if u == v {
            return Vec::new();
        }
        let Some(duv) = self.distance(u, v) else {
            return Vec::new();
        };
        g.neighbors(u)
            .iter()
            .copied()
            .filter(|&w| self.distance(w, v) == Some(duv - 1))
            .collect()
    }

    /// One canonical shortest path from `u` to `v` (smallest-id
    /// qualifying neighbour first), inclusive of both endpoints; `None`
    /// if `v` is unreachable. Only meaningful when [`Distances::is_exact`]
    /// holds.
    fn shortest_path(&self, g: &Graph, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        self.distance(u, v)?;
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            let next = *self.shortest_path_ports(g, cur, v).first()?;
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// The smallest-id neighbour of `u` on a shortest path to `v`,
    /// computed from **row `v` only**: distances are symmetric on
    /// undirected graphs, so `w` qualifies iff
    /// `d(v, w) == d(v, u) − 1`. Equal to
    /// `shortest_path_ports(g, u, v).first()` for every exact oracle,
    /// but band-friendly — a [`BandedOracle`] answers an entire sweep
    /// `{first_hop_toward(·, u, v) : u ∈ V}` from the single band
    /// containing `v`, which is what lets scheme builders stream
    /// destinations band by band instead of thrashing on neighbour rows.
    /// `None` when `u == v` or `v` is unreachable. Only meaningful when
    /// [`Distances::is_exact`] holds.
    fn first_hop_toward(&self, g: &Graph, u: NodeId, v: NodeId) -> Option<NodeId> {
        if u == v {
            return None;
        }
        let duv = self.distance(v, u)?;
        g.neighbors(u).iter().copied().find(|&w| self.distance(v, w) == Some(duv - 1))
    }
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

    fn is_connected(&self) -> bool {
        Apsp::is_connected(self)
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
/// Interior mutability (a [`Mutex`]) keeps the trait object `Sync`;
/// queries from concurrent verifiers serialise on the lock, so this
/// oracle is meant for memory-bound *construction*, not parallel
/// verification.
#[derive(Debug)]
pub struct BandedOracle {
    g: Graph,
    engine: ApspEngine,
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
            g,
            engine,
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
        self.state.lock().expect("band lock").bands_computed
    }

    /// The graph this oracle answers for.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.g
    }
}

impl Distances for BandedOracle {
    fn node_count(&self) -> usize {
        self.g.node_count()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        let n = self.g.node_count();
        assert!(u < n && v < n, "node out of range");
        let mut st = self.state.lock().expect("band lock");
        if !st.band.as_ref().is_some_and(|b| b.contains(u)) {
            let start = (u / self.band_rows) * self.band_rows;
            let rows = self.band_rows.min(n - start);
            // Dropping the previous band *before* computing the next keeps
            // peak memory at one band.
            st.band = None;
            st.band = Some(compute_band(&self.g, start, rows, self.engine));
            st.bands_computed += 1;
        }
        st.band.as_ref().expect("band just computed").distance(u, v)
    }

    fn describe(&self) -> &'static str {
        "banded streaming oracle"
    }

    fn peak_bytes(&self) -> usize {
        // One band of compact cells plus the traversal engine's per-tile
        // scratch masks — the scratch is live while the band fills, so a
        // claim without it would under-state the measured peak (the
        // allocator audit enforces claimed ≤ measured).
        let n = self.g.node_count();
        self.band_rows.min(n) * n * crate::dist::width_for(&self.g).bytes_per_cell()
            + self.engine.resolve(&self.g).scratch_bytes(&self.g, self.band_rows.min(n))
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
        assert!(li < self.landmarks.len() && v < self.n, "index out of range");
        match self.rows.get(li * self.n + v) {
            UNREACHABLE => None,
            d => Some(d),
        }
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
    for (i, &l) in landmarks.iter().enumerate() {
        crate::paths::fill_rows(g, ApspEngine::Queue, l, 1, &mut out[i * n..(i + 1) * n]);
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
    use crate::generators;

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
    }

    #[test]
    fn banded_oracle_matches_apsp() {
        for (g, name) in [
            (generators::connected_gnp(60, 0.08, 3), "sparse"),
            (generators::gnp_half(33, 5), "dense"),
            (Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]).unwrap(), "split"),
        ] {
            let apsp = Apsp::compute(&g);
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
        for g in [
            generators::connected_gnp(40, 0.1, 4),
            generators::grid(4, 5),
            Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]).unwrap(),
        ] {
            let n = g.node_count();
            let apsp = Apsp::compute(&g);
            let banded = BandedOracle::new(g.clone(), 5);
            for u in 0..n {
                for v in 0..n {
                    let expect = if u == v {
                        None
                    } else {
                        apsp.shortest_path_ports(&g, u, v).first().copied()
                    };
                    assert_eq!(Distances::first_hop_toward(&apsp, &g, u, v), expect, "({u},{v})");
                    assert_eq!(banded.first_hop_toward(&g, u, v), expect, "banded ({u},{v})");
                }
            }
        }
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
