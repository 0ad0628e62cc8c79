//! Full-information shortest-path routing (Section 1, Theorem 10).
//!
//! The routing function at `u` must return, for each destination, **all**
//! edges incident to `u` on shortest paths — allowing an alternative
//! shortest route to be taken when an outgoing link is down. Each node
//! stores a `d(u)`-bit port mask per non-neighbour destination:
//! `(n−1−d)·d ≈ n²/4` bits per node, `Θ(n³)` total — which Theorem 10
//! proves optimal (the `ort-kolmogorov` crate's `theorem10` codec is the
//! matching compression argument).

use ort_bitio::{BitReader, BitWriter};
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::{read_row, Distances};
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId};

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};

/// The full-information shortest-path scheme.
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::full_information::FullInformationScheme;
/// use ort_routing::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_half(32, 0);
/// let dists = Apsp::compute(&g);
/// let scheme = FullInformationScheme::build(&g, &dists)?;
/// let report = verify::verify(&g, &scheme, &dists, 1)?;
/// assert!(report.is_shortest_path());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FullInformationScheme {
    tables: Tables,
}

impl FullInformationScheme {
    /// Builds the scheme (model II ∧ α; works on any connected graph)
    /// from the exact distances `dists`.
    ///
    /// Row-streamed: the outer loop walks destinations ascending and
    /// takes each destination's oracle row once ([`read_row`]); for a
    /// destination `t` and node `u`, neighbour `v` of `u` lies on a
    /// shortest `u → t` path iff `d(t, v) == d(t, u) − 1` — the row's
    /// closer neighbours (distances are symmetric), so a banded oracle's
    /// peak distance memory is one band. Per node, masks are still
    /// appended in ascending non-neighbour order, so the bits match the
    /// historical per-node construction exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Disconnected`] if `g` is disconnected,
    /// [`SchemeError::ApproximateOracle`] for inexact oracles and a
    /// precondition error on an oracle/graph size mismatch.
    pub fn build(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        crate::schemes::check_exact_oracle(g, dists)?;
        let n = g.node_count();
        let ports = PortAssignment::sorted(g);
        let mut writers: Vec<BitWriter> = (0..n).map(|_| BitWriter::new()).collect();
        for t in 0..n {
            read_row(dists, t, |row| {
                // Node u's bit of t's adjacency row, by one merge over t's
                // sorted list.
                for ((u, w), next_to_t) in writers.iter_mut().enumerate().zip(g.adjacency_bits(t)) {
                    // One d(u)-bit mask per non-neighbour destination; the
                    // outer ascending-t loop preserves the per-node order.
                    if t == u || next_to_t {
                        continue;
                    }
                    // The closer neighbours come in neighbour order, so one
                    // merge pass marks them.
                    let mut closer = row.closer_neighbors(g, u).peekable();
                    for &v in g.neighbors(u) {
                        w.write_bit(closer.next_if_eq(&v).is_some());
                    }
                }
            });
        }
        let bits = writers.into_iter().map(BitWriter::finish).collect();
        Ok(FullInformationScheme { tables: Tables { bits, labeling: Labeling::identity(n), ports } })
    }

    /// Reassembles a scheme from snapshot parts (`crate::snapshot`).
    pub(crate) fn from_parts(tables: Tables) -> Self {
        FullInformationScheme { tables }
    }
}

impl RoutingScheme for FullInformationScheme {
    fn model(&self) -> Model {
        Model::new(Knowledge::NeighborsKnown, Relabeling::None)
    }

    fn tables(&self) -> &Tables {
        &self.tables
    }

    fn route_at(
        &self,
        u: NodeId,
        env: &NodeEnv<'_>,
        dest: &Label,
        _state: &mut MessageState,
    ) -> Result<RouteDecision, RouteError> {
        let bits = self.tables.node(u)?;
        let Label::Minimal(dest_l) = *dest else {
            return Err(RouteError::MissingInformation { what: "minimal destination label" });
        };
        let LabelRef::Minimal(own) = env.label else {
            return Err(RouteError::MissingInformation { what: "minimal own label" });
        };
        if dest_l == own {
            return Ok(RouteDecision::Deliver);
        }
        let nbrs = env.sorted_minimal_neighbors()?;
        // A neighbour destination has exactly one shortest first hop.
        if let Ok(port) = nbrs.binary_search(&dest_l) {
            return Ok(RouteDecision::ForwardAny(vec![port]));
        }
        // Mask lookup for non-neighbour destinations.
        let below = nbrs.partition_point(|&v| v < dest_l);
        let pos = dest_l - below - usize::from(own < dest_l);
        let d = nbrs.len();
        let mut r = BitReader::new(bits);
        r.seek(pos * d)?;
        let mut out = Vec::new();
        for port in 0..d {
            if r.read_bit()? {
                out.push(port);
            }
        }
        if out.is_empty() {
            return Err(RouteError::UnknownDestination);
        }
        Ok(RouteDecision::ForwardAny(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RoutingScheme;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn shortest_path_on_assorted_graphs() {
        for (g, name) in [
            (generators::gnp_half(24, 1), "gnp"),
            (generators::cycle(10), "cycle"),
            (generators::grid(4, 4), "grid"),
            (generators::gb_graph(4), "gb"),
        ] {
            let dists = Apsp::compute(&g);
            let scheme = FullInformationScheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.is_shortest_path(), "{name}");
        }
    }

    #[test]
    fn every_advertised_port_is_on_a_shortest_path() {
        let g = generators::gnp_half(20, 3);
        let apsp = Apsp::compute(&g);
        let scheme = FullInformationScheme::build(&g, &apsp).unwrap();
        for u in 0..20 {
            let env = scheme.node_env(u);
            for t in 0..20 {
                if t == u {
                    continue;
                }
                let mut state = MessageState::default();
                let RouteDecision::ForwardAny(ports) =
                    scheme.route_at(u, &env, &Label::Minimal(t), &mut state).unwrap()
                else {
                    panic!("expected ForwardAny");
                };
                let expect = apsp.shortest_path_ports(&g, u, t);
                let got: Vec<NodeId> = ports
                    .iter()
                    .map(|&p| scheme.port_assignment().neighbor_at(u, p).unwrap())
                    .collect();
                assert_eq!(got, expect, "u={u} t={t}");
            }
        }
    }

    #[test]
    fn size_is_quarter_n_squared_per_node() {
        let n = 64usize;
        let g = generators::gnp_half(n, 5);
        let scheme = FullInformationScheme::build(&g, &Apsp::compute(&g)).unwrap();
        for u in 0..n {
            let d = g.degree(u);
            assert_eq!(scheme.node_size_bits(u), (n - 1 - d) * d);
        }
        // Total is Θ(n³): at density 1/2 about n³/4.
        let total = scheme.total_size_bits() as f64;
        let cubed = (n * n * n) as f64;
        assert!(total > 0.15 * cubed && total < 0.35 * cubed, "total {total}");
    }

    #[test]
    fn dwarfs_ordinary_shortest_path_schemes() {
        let g = generators::gnp_half(48, 8);
        let dists = Apsp::compute(&g);
        let fi = FullInformationScheme::build(&g, &dists).unwrap();
        let t1 = crate::schemes::theorem1::Theorem1Scheme::build(&g, &dists).unwrap();
        assert!(fi.total_size_bits() > 3 * t1.total_size_bits());
    }

    #[test]
    fn rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            FullInformationScheme::build(&g, &Apsp::compute(&g)),
            Err(SchemeError::Disconnected)
        ));
    }
}
