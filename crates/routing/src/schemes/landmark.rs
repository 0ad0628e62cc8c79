//! A landmark (hub) routing scheme in the spirit of Peleg–Upfal \[9\] and
//! Thorup–Zwick — the related-work baseline for the space/stretch
//! trade-off.
//!
//! `√(n log n)` landmarks are sampled; every node stores a port towards
//! each landmark plus exact next-hops for its *bunch* (nodes strictly
//! closer than its nearest landmark). A destination's label carries its
//! nearest landmark and the port path from that landmark down to it
//! (model γ). Routing: deliver / neighbour / bunch shortcut, else climb to
//! the destination's landmark and descend the labelled path. The bunch
//! invariant (`d(x,v) < r(x)` is preserved along shortest paths because
//! landmark distances are 1-Lipschitz) guarantees termination.
//!
//! On random diameter-2 graphs every node is adjacent to a landmark with
//! overwhelming probability, so routes cost at most `d(u,v) + 2` hops —
//! sub-quadratic space at a small constant stretch, the regime the paper
//! contrasts with its Theorem 3–5 trade-off.

use ort_bitio::{bits_to_index, BitReader, BitVec, BitWriter};
use ort_graphs::dist::DistRow;
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::{read_row, Distances, LandmarkOracle};
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};
use crate::schemes::leading_id;

/// The landmark/hub routing scheme.
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::landmark::LandmarkScheme;
/// use ort_routing::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::grid(5, 5);
/// let dists = Apsp::compute(&g);
/// let scheme = LandmarkScheme::build(&g, &dists, 7)?;
/// let report = verify::verify(&g, &scheme, &dists, 1)?;
/// assert!(report.all_delivered());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LandmarkScheme {
    tables: Tables,
    landmarks: Vec<NodeId>,
}

impl LandmarkScheme {
    /// The landmark count `⌈√(n·log₂ n)⌉`, clamped to `[1, n]` (1 for
    /// graphs too small to route, which every builder refuses).
    fn default_count(n: usize) -> usize {
        let count = ((n as f64) * (n.max(2) as f64).log2()).sqrt().ceil() as usize;
        count.clamp(1, n.max(1))
    }

    /// Builds the scheme with `⌈√(n·log₂ n)⌉` landmarks sampled from
    /// `seed`, reading distances from the exact oracle `dists` — notably
    /// [`ort_graphs::oracle::BandedOracle`], which builds the scheme
    /// without ever holding the full `n²` matrix. Exact oracles all
    /// produce byte-identical schemes (every hop below is the one
    /// smallest-closer-neighbour rule, [`DistRow::first_hop`]).
    ///
    /// Row-streamed in two ascending passes, exploiting distance
    /// symmetry so each row is borrowed once ([`read_row`]) from the
    /// currently-resident band:
    ///
    /// 1. **Landmark rows** (`l` ascending): toward-ports for all nodes
    ///    (each node's first hop toward `l`) plus each node's nearest
    ///    landmark and radius — all from row `l`.
    /// 2. **All rows** (`v` ascending): `v`'s label path (walked forward
    ///    from its landmark by first hops toward `v`) and `v`'s
    ///    membership in every bunch (`d(v,x) < r_x`, first hop of `x`
    ///    toward `v`) — all from row `v`, appended per node in
    ///    ascending-`v` order, exactly the order the historical per-node
    ///    loop produced.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Disconnected`] for disconnected graphs,
    /// [`SchemeError::ApproximateOracle`] for approximate oracles (use
    /// [`LandmarkScheme::build_from_landmark_oracle`] for those), or
    /// [`SchemeError::Precondition`] for graphs with fewer than 2 nodes
    /// or an oracle/graph size mismatch.
    pub fn build(g: &Graph, dists: &dyn Distances, seed: u64) -> Result<Self, SchemeError> {
        let n = g.node_count();
        if n < 2 {
            return Err(SchemeError::Precondition { reason: "need at least 2 nodes".into() });
        }
        crate::schemes::check_exact_oracle(g, dists)?;
        let count = Self::default_count(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut landmarks = ort_graphs::generators::random_permutation(n, &mut rng);
        landmarks.truncate(count);
        landmarks.sort_unstable();

        let ports = PortAssignment::sorted(g);
        let w_node = bits_to_index(n as u64);
        // Pass 1 — one visit per landmark row, landmarks ascending.
        // Toward-ports: ports are sorted-neighbour order, so "first
        // strictly closer neighbour" matches the BFS parent this used to
        // derive from a per-landmark traversal. Nearest/radius: updating
        // on strict improvement with `li` ascending keeps the
        // smallest-index tie-break of the historical per-node scan.
        let mut toward: Vec<Vec<usize>> = Vec::with_capacity(count); // [li][v] = port
        let mut nearest = vec![0usize; n]; // index into `landmarks`
        let mut radius = vec![u32::MAX; n];
        for (li, &l) in landmarks.iter().enumerate() {
            let ports_to_l = read_row(dists, l, |row| {
                (0..n)
                    .map(|v| {
                        let dv = row.get(v).expect("connected");
                        if dv < radius[v] {
                            radius[v] = dv;
                            nearest[v] = li;
                        }
                        if v == l {
                            return 0;
                        }
                        let hop = row.first_hop(g, v).expect("some neighbour is closer");
                        ports.port_to(v, hop).expect("neighbour")
                    })
                    .collect()
            });
            toward.push(ports_to_l);
        }
        // Pass 2 — one visit per row, `v` ascending: labels and bunches.
        // Labels are [v][l_id][path_len][path ports...], the path walked
        // forward from the landmark but resolved entirely from row `v`.
        let mut labels = Vec::with_capacity(n);
        let mut bunches: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n];
        for v in 0..n {
            let l = landmarks[nearest[v]];
            let label = read_row(dists, v, |row| {
                for (x, bunch) in bunches.iter_mut().enumerate() {
                    if x != v && row.get(x).expect("connected") < radius[x] {
                        let hop = row.first_hop(g, x).expect("reachable");
                        bunch.push((v, ports.port_to(x, hop).expect("neighbour")));
                    }
                }
                Self::encode_label(&ports, v, l, &descent(row, g, l), w_node)
            })?;
            labels.push(label);
        }
        // Node bits: [landmark ports][bunch count][bunch (id, port)...].
        let mut bits = Vec::with_capacity(n);
        for (x, bunch) in bunches.iter().enumerate() {
            let mut w = BitWriter::new();
            for li in 0..count {
                let port = if x == landmarks[li] { 0 } else { toward[li][x] };
                w.write_bits(port as u64, w_node)?;
            }
            w.write_bits(bunch.len() as u64, w_node)?;
            for &(v, port) in bunch {
                w.write_bits(v as u64, w_node)?;
                w.write_bits(port as u64, w_node)?;
            }
            bits.push(w.finish());
        }
        let labeling = Labeling::arbitrary(labels)
            .map_err(|_| SchemeError::Precondition { reason: "duplicate labels".into() })?;
        Ok(LandmarkScheme { tables: Tables { bits, labeling, ports }, landmarks })
    }

    /// Builds the scheme from a [`LandmarkOracle`] — `Õ(n^{3/2})` distance
    /// cells instead of `n²`, the memory regime the approximate oracle
    /// exists for. The oracle's own landmark set becomes the scheme's
    /// (distances to landmarks are exact in the oracle, so toward-ports,
    /// nearest landmarks and label paths are all exact); *bunches are
    /// dropped* (every node routes deliver / neighbour / climb–descend),
    /// so routes cost at most `d(u,v) + 2·r_v` hops instead of the
    /// bunch-assisted optimum.
    ///
    /// # Errors
    ///
    /// As [`LandmarkScheme::build`], plus a precondition error on an
    /// oracle/graph size mismatch.
    pub fn build_from_landmark_oracle(
        g: &Graph,
        lo: &LandmarkOracle,
    ) -> Result<Self, SchemeError> {
        let n = g.node_count();
        if n < 2 {
            return Err(SchemeError::Precondition { reason: "need at least 2 nodes".into() });
        }
        if lo.node_count() != n {
            return Err(SchemeError::Precondition {
                reason: "distance oracle does not match the graph".into(),
            });
        }
        if !lo.is_connected() {
            return Err(SchemeError::Disconnected);
        }
        let landmarks = lo.landmarks().to_vec();
        let count = landmarks.len();
        let ports = PortAssignment::sorted(g);
        let w_node = bits_to_index(n as u64);
        // Toward-ports from the oracle's exact landmark rows.
        let toward: Vec<Vec<usize>> = (0..count)
            .map(|li| {
                let row = lo.landmark_row(li);
                (0..n)
                    .map(|v| {
                        if v == landmarks[li] {
                            return 0;
                        }
                        let hop = row.first_hop(g, v).expect("some neighbour is closer");
                        ports.port_to(v, hop).expect("neighbour")
                    })
                    .collect()
            })
            .collect();
        // Labels: the path from v's nearest landmark down to v, recovered
        // by descending the landmark's exact row from v (then reversed) —
        // no all-pairs queries involved.
        let mut labels = Vec::with_capacity(n);
        for v in 0..n {
            let li = lo.nearest(v).expect("connected graph has reachable landmarks");
            let l = landmarks[li];
            let mut path = descent(lo.landmark_row(li), g, v);
            path.reverse();
            labels.push(Self::encode_label(&ports, v, l, &path, w_node)?);
        }
        // Node bits: landmark ports, then an empty bunch.
        let mut writers: Vec<BitWriter> = (0..n).map(|_| BitWriter::new()).collect();
        for (&l, row) in landmarks.iter().zip(&toward) {
            for ((x, w), &port) in writers.iter_mut().enumerate().zip(row) {
                let port = if x == l { 0 } else { port };
                w.write_bits(port as u64, w_node)?;
            }
        }
        let mut bits = Vec::with_capacity(n);
        for mut w in writers {
            w.write_bits(0, w_node)?; // bunch count
            bits.push(w.finish());
        }
        let labeling = Labeling::arbitrary(labels)
            .map_err(|_| SchemeError::Precondition { reason: "duplicate labels".into() })?;
        Ok(LandmarkScheme { tables: Tables { bits, labeling, ports }, landmarks })
    }

    /// Encodes one γ label: `[v][l][path_len][path ports…]` where `path`
    /// runs from the landmark `l` down to `v`.
    fn encode_label(
        ports: &PortAssignment,
        v: NodeId,
        l: NodeId,
        path: &[NodeId],
        w_node: u32,
    ) -> Result<BitVec, SchemeError> {
        let mut w = BitWriter::new();
        w.write_bits(v as u64, w_node)?;
        w.write_bits(l as u64, w_node)?;
        w.write_bits((path.len() - 1) as u64, w_node)?;
        for hop in path.windows(2) {
            let port = ports.port_to(hop[0], hop[1]).expect("edge on path");
            w.write_bits(port as u64, w_node)?;
        }
        Ok(w.finish())
    }

    /// The sampled landmark set.
    #[must_use]
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Parses a landmark label into `(node, landmark, port path)`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Code`] on malformed labels.
    pub fn parse_label(
        bits: &BitVec,
        n: usize,
    ) -> Result<(NodeId, NodeId, Vec<usize>), RouteError> {
        let w_node = bits_to_index(n as u64);
        let mut r = BitReader::new(bits);
        let v = r.read_bits(w_node)? as usize;
        let l = r.read_bits(w_node)? as usize;
        let plen = r.read_bits(w_node)? as usize;
        let mut path = Vec::with_capacity(plen);
        for _ in 0..plen {
            path.push(r.read_bits(w_node)? as usize);
        }
        Ok((v, l, path))
    }
}

/// The canonical shortest path from `from` down to the row's source:
/// [`DistRow::first_hop`] taken until it arrives, endpoints included.
fn descent(row: DistRow<'_>, g: &Graph, from: NodeId) -> Vec<NodeId> {
    let mut path = vec![from];
    let mut cur = from;
    while let Some(next) = row.first_hop(g, cur) {
        path.push(next);
        cur = next;
    }
    path
}

impl RoutingScheme for LandmarkScheme {
    fn model(&self) -> Model {
        Model::new(Knowledge::NeighborsKnown, Relabeling::Free)
    }

    fn tables(&self) -> &Tables {
        &self.tables
    }

    fn route_at(
        &self,
        u: NodeId,
        env: &NodeEnv<'_>,
        dest: &Label,
        state: &mut MessageState,
    ) -> Result<RouteDecision, RouteError> {
        let bits = self.tables.node(u)?;
        let Label::Bits(dest_bits) = dest else {
            return Err(RouteError::MissingInformation { what: "γ destination label" });
        };
        let LabelRef::Bits(own_bits) = env.label else {
            return Err(RouteError::MissingInformation { what: "γ own label" });
        };
        let (v, l, path) = LandmarkScheme::parse_label(dest_bits, env.n)?;
        let own = leading_id(own_bits, env.n)?;
        if v == own {
            return Ok(RouteDecision::Deliver);
        }
        // Neighbour shortcut.
        let labels = env.require_neighbor_labels()?;
        for (port, nl) in labels.iter().enumerate() {
            let LabelRef::Bits(nb) = nl else {
                return Err(RouteError::MissingInformation { what: "γ neighbour labels" });
            };
            if leading_id(nb, env.n)? == v {
                return Ok(RouteDecision::Forward(port));
            }
        }
        // Descending along the labelled path?
        if state.counter > 0 {
            let i = (state.counter - 1) as usize;
            let port = *path.get(i).ok_or(RouteError::UnknownDestination)?;
            state.counter += 1;
            return check_port(port, env.degree);
        }
        if own == l {
            // Reached the destination's landmark: start descending.
            let port = *path.first().ok_or(RouteError::UnknownDestination)?;
            state.counter = 2;
            return check_port(port, env.degree);
        }
        // Bunch shortcut. The landmark count is shared O(log n)
        // configuration, like `n`.
        let w_node = bits_to_index(env.n as u64);
        let mut r = BitReader::new(bits);
        r.seek(self.landmarks.len() * w_node as usize)?;
        let bunch_len = r.read_bits(w_node)? as usize;
        for _ in 0..bunch_len {
            let id = r.read_bits(w_node)? as usize;
            let port = r.read_bits(w_node)? as usize;
            if id == v {
                return check_port(port, env.degree);
            }
        }
        // Climb towards the destination's landmark.
        let li = self
            .landmarks
            .binary_search(&l)
            .map_err(|_| RouteError::UnknownDestination)?;
        let mut r = BitReader::new(bits);
        r.seek(li * w_node as usize)?;
        let port = r.read_bits(w_node)? as usize;
        check_port(port, env.degree)
    }
}

fn check_port(port: usize, degree: usize) -> Result<RouteDecision, RouteError> {
    if port >= degree {
        return Err(RouteError::PortOutOfRange { port, degree });
    }
    Ok(RouteDecision::Forward(port))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RoutingScheme;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn delivers_on_assorted_graphs() {
        for (g, name) in [
            (generators::gnp_half(32, 1), "gnp"),
            (generators::grid(5, 5), "grid"),
            (generators::cycle(14), "cycle"),
            (generators::path(12), "path"),
            (generators::gb_graph(5), "gb"),
        ] {
            let dists = Apsp::compute(&g);
            let scheme = LandmarkScheme::build(&g, &dists, 3).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered(), "{name}: {:?}", report.failures.first());
        }
    }

    #[test]
    fn small_stretch_on_random_graphs() {
        for seed in 0..3u64 {
            let g = generators::gnp_half(48, seed);
            let dists = Apsp::compute(&g);
            let scheme = LandmarkScheme::build(&g, &dists, seed).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered());
            let s = report.max_stretch().unwrap();
            assert!(s <= 3.0, "seed {seed}: stretch {s}");
        }
    }

    #[test]
    fn sublinear_table_growth() {
        // Per-node routing-function bits should grow clearly slower than n
        // (≈ √(n log n)·log n), unlike full-table's n log n.
        let mut ratios = Vec::new();
        for n in [64usize, 256] {
            let g = generators::gnp_half(n, 5);
            let scheme = LandmarkScheme::build(&g, &Apsp::compute(&g), 1).unwrap();
            let table_bits: usize = (0..n).map(|u| scheme.node_size_bits(u)).sum();
            ratios.push(table_bits as f64 / n as f64); // avg bits per node
        }
        // n grew 4×; √(n log n)·log n grows ≈ 4.6×… but n·log n would grow
        // ≈ 4.7×… compare against linear growth in n instead: avg bits/node
        // must grow by clearly less than 4×.
        assert!(
            ratios[1] < ratios[0] * 3.0,
            "per-node growth too steep: {ratios:?}"
        );
    }

    #[test]
    fn landmarks_are_sorted_and_bounded() {
        let g = generators::gnp_half(64, 2);
        let scheme = LandmarkScheme::build(&g, &Apsp::compute(&g), 9).unwrap();
        let ls = scheme.landmarks();
        assert!(ls.windows(2).all(|w| w[0] < w[1]));
        // ⌈√(64·6)⌉ = 20.
        assert_eq!(ls.len(), 20);
    }

    #[test]
    fn label_parse_roundtrip() {
        let g = generators::grid(4, 4);
        let scheme = LandmarkScheme::build(&g, &Apsp::compute(&g), 0).unwrap();
        for v in 0..16 {
            let Label::Bits(b) = scheme.label_of(v) else { panic!() };
            let (id, l, path) = LandmarkScheme::parse_label(&b, 16).unwrap();
            assert_eq!(id, v);
            assert!(scheme.landmarks().contains(&l));
            // Path length equals the landmark distance.
            let apsp = Apsp::compute(&g);
            assert_eq!(path.len() as u32, apsp.distance(l, v).unwrap());
        }
    }

    #[test]
    fn banded_build_is_byte_identical_to_full_matrix_build() {
        use ort_graphs::oracle::BandedOracle;
        let g = generators::gnp_half(28, 6);
        let from_apsp = LandmarkScheme::build(&g, &Apsp::compute(&g), 2).unwrap();
        let banded = BandedOracle::new(g.clone(), 7);
        let from_band = LandmarkScheme::build(&g, &banded, 2).unwrap();
        assert_eq!(from_apsp.landmarks(), from_band.landmarks());
        for u in 0..28 {
            assert_eq!(from_apsp.node_bits(u), from_band.node_bits(u), "node {u}");
            assert_eq!(from_apsp.label_of(u), from_band.label_of(u), "label {u}");
        }
    }

    #[test]
    fn approximate_oracle_build_delivers_within_contract() {
        use ort_graphs::oracle::LandmarkOracle;
        for (g, name) in [
            (generators::gnp_half(32, 3), "gnp"),
            (generators::grid(5, 6), "grid"),
            (generators::cycle(15), "cycle"),
        ] {
            let lo = LandmarkOracle::build(&g, 5);
            let scheme = LandmarkScheme::build_from_landmark_oracle(&g, &lo).unwrap();
            assert_eq!(scheme.landmarks(), lo.landmarks(), "{name}");
            let report = verify(&g, &scheme, &Apsp::compute(&g), 1).unwrap();
            assert!(report.all_delivered(), "{name}: {:?}", report.failures.first());
            // Bunch-free routes: every delivered pair stays within the
            // climb-and-descend bound d(u,v) + 2·max r.
            let max_r = (0..g.node_count()).map(|v| lo.radius(v).unwrap()).max().unwrap();
            for &(hops, dist) in &report.stretches {
                assert!(
                    hops <= dist + 2 * max_r,
                    "{name}: {hops} hops for distance {dist}, max radius {max_r}"
                );
            }
        }
    }

    #[test]
    fn approximate_build_rejected_on_exact_entry_point() {
        use ort_graphs::oracle::LandmarkOracle;
        let g = generators::gnp_half(16, 1);
        let lo = LandmarkOracle::build(&g, 4);
        assert!(matches!(
            LandmarkScheme::build(&g, &lo, 1),
            Err(SchemeError::ApproximateOracle { oracle: "approximate landmark oracle" })
        ));
    }
}
