//! The Theorem 4 scheme: stretch 2 in `n·log log n + 6n` bits (model II).
//!
//! A single *centre* node stores a full Theorem 1 shortest-path table
//! (≤ 6n bits). Its immediate neighbours store nothing: they either deliver
//! directly or fall back to the centre, which is their neighbour. Every
//! node at distance 2 from the centre stores only which of its first
//! `(c+3)·log n` neighbours leads towards the centre — `log log n + O(1)`
//! bits (Lemma 3 guarantees such a neighbour exists in the prefix). A
//! route makes at most 2 hops to the centre and 2 hops out: stretch 2 on a
//! diameter-2 graph.

use ort_bitio::{bits_to_index, BitReader, BitWriter};
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::Distances;
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId, Relays};

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};
use crate::schemes::theorem1::{route_with_tables, Theorem1Scheme};

/// Default randomness parameter (as in Theorem 2).
pub const DEFAULT_C: f64 = 3.0;

/// The centre node's id. The paper uses "node 1"; zero-based, the centre
/// is node 0, and routers hard-code this convention (O(1) information).
pub const CENTER: NodeId = 0;

/// The Theorem 4 centre scheme (stretch ≤ 2).
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::theorem4::Theorem4Scheme;
/// use ort_routing::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_half(64, 3);
/// let dists = Apsp::compute(&g);
/// let scheme = Theorem4Scheme::build(&g, &dists)?;
/// let report = verify::verify(&g, &scheme, &dists, 1)?;
/// assert!(report.max_stretch().unwrap() <= 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Theorem4Scheme {
    tables: Tables,
    prefix_len: usize,
}

impl Theorem4Scheme {
    /// Builds the scheme; distance-2 nodes index into their first
    /// `(c+3)·log₂ n` neighbours, at `c =` [`DEFAULT_C`]. The construction
    /// is purely adjacency-based; the exact oracle `dists` contributes
    /// only its connectivity bit (row 0), so a banded oracle's peak
    /// distance memory stays one band.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Precondition`] if the graph has diameter > 2
    /// from the centre, some distance-2 node has no centre-adjacent
    /// neighbour in its prefix, or the oracle's node count does not match
    /// `g`; [`SchemeError::ApproximateOracle`] for inexact oracles;
    /// [`SchemeError::Disconnected`] if unreachable nodes exist.
    pub fn build(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        let n = g.node_count();
        if n < 2 {
            return Err(SchemeError::Precondition { reason: "need at least 2 nodes".into() });
        }
        crate::schemes::check_exact_oracle(g, dists)?;
        let k = ((DEFAULT_C + 3.0) * (n.max(2) as f64).log2()).ceil() as usize;
        let width = bits_to_index(k as u64);
        let mut bits = Vec::with_capacity(n);
        // Set at the centre throughout: `rank(x)` is `Some` iff `x` is a
        // neighbour of the centre.
        let mut relays = Relays::new(g);
        relays.set(CENTER);
        for u in 0..n {
            let mut w = BitWriter::new();
            if u == CENTER {
                w.write_bitvec(&Theorem1Scheme::encode_node_tables(&mut relays, u)?);
            } else if relays.rank(u).is_none() {
                // Distance-2 node: index (within the first k neighbours) of
                // a neighbour adjacent to the centre.
                let idx = g
                    .neighbors(u)
                    .iter()
                    .take(k)
                    .position(|&x| relays.rank(x).is_some())
                    .ok_or_else(|| SchemeError::Precondition {
                        reason: format!(
                            "node {u}: no centre-adjacent neighbour in its first {k} neighbours"
                        ),
                    })?;
                w.write_bits(idx as u64, width)?;
            }
            // Neighbours of the centre store nothing.
            bits.push(w.finish());
        }
        let tables =
            Tables { bits, labeling: Labeling::identity(n), ports: PortAssignment::sorted(g) };
        Ok(Theorem4Scheme { tables, prefix_len: k })
    }

    /// The prefix length `(c+3)·log₂ n` used for distance-2 pointers.
    #[must_use]
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }
}

impl RoutingScheme for Theorem4Scheme {
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
        // Immediate neighbours are always routed directly.
        if let Ok(port) = nbrs.binary_search(&dest_l) {
            return Ok(RouteDecision::Forward(port));
        }
        if own == CENTER {
            return route_with_tables(bits, 0, env.n, &nbrs, own, dest_l);
        }
        // Route towards the centre.
        if let Ok(port) = nbrs.binary_search(&CENTER) {
            return Ok(RouteDecision::Forward(port));
        }
        // Distance-2 node: stored prefix index points at a centre-adjacent
        // neighbour (ports are sorted, so prefix index = port).
        let mut r = BitReader::new(bits);
        let idx = r.read_bits(bits_to_index(self.prefix_len as u64))? as usize;
        if idx >= env.degree {
            return Err(RouteError::PortOutOfRange { port: idx, degree: env.degree });
        }
        Ok(RouteDecision::Forward(idx))
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
    fn stretch_at_most_2_on_random_graphs() {
        for seed in 0..5u64 {
            let g = generators::gnp_half(48, seed);
            let dists = Apsp::compute(&g);
            let scheme = Theorem4Scheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered(), "seed {seed}: {:?}", report.failures.first());
            let s = report.max_stretch().unwrap();
            assert!(s <= 2.0, "seed {seed}: stretch {s}");
        }
    }

    #[test]
    fn size_is_n_loglog_n_plus_6n() {
        let n = 512usize;
        let g = generators::gnp_half(n, 7);
        let dists = Apsp::compute(&g);
        let scheme = Theorem4Scheme::build(&g, &dists).unwrap();
        // Centre: ≤ 6n. Everyone else: ≤ ⌈log((c+3) log n)⌉ ≤ 6 bits here.
        assert!(scheme.node_size_bits(CENTER) <= 6 * n);
        let loglog = bits_to_index(scheme.prefix_len() as u64) as usize;
        for u in 1..n {
            assert!(scheme.node_size_bits(u) <= loglog, "node {u}");
        }
        assert!(scheme.total_size_bits() <= n * loglog + 6 * n);
        // Strictly below Theorem 3's O(n log n) at this size.
        let t3 = crate::schemes::theorem3::Theorem3Scheme::build(&g, &dists).unwrap();
        assert!(scheme.total_size_bits() < t3.total_size_bits());
    }

    #[test]
    fn centre_neighbours_store_nothing() {
        let g = generators::gnp_half(64, 1);
        let scheme = Theorem4Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        for &v in g.neighbors(CENTER) {
            assert_eq!(scheme.node_size_bits(v), 0, "centre neighbour {v}");
        }
    }

    #[test]
    fn rejects_centre_eccentricity_over_two() {
        // The construction needs every node within distance 2 *of the
        // centre* — a path fails that.
        let g = generators::path(12);
        assert!(Theorem4Scheme::build(&g, &Apsp::compute(&g)).is_err());
    }

    #[test]
    fn gb_graph_has_centre_eccentricity_two_and_still_stretch_two() {
        // G_B has diameter 4, but a bottom-node centre reaches everything
        // in 2 hops, so the construction goes through — and the stretch
        // bound survives because routes are ≤ 4 hops.
        let g = generators::gb_graph(4);
        let dists = Apsp::compute(&g);
        let scheme = Theorem4Scheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.all_delivered());
        assert!(report.max_stretch().unwrap() <= 2.0);
    }

    #[test]
    fn works_on_star_and_bipartite() {
        for (g, name) in [
            (generators::star(14), "star"),
            (generators::complete_bipartite(7, 7), "k77"),
        ] {
            let dists = Apsp::compute(&g);
            let scheme = Theorem4Scheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered(), "{name}");
            assert!(report.max_stretch().unwrap() <= 2.0, "{name}");
        }
    }
}
