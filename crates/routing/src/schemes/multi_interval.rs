//! k-interval shortest-path routing — the subject of the paper's reference
//! \[1\] (Flammini–van Leeuwen–Marchetti-Spaccamela, *The complexity of
//! interval routing on random graphs*).
//!
//! Unlike the 1-interval tree scheme ([`crate::schemes::interval`]), this
//! scheme is shortest-path on every connected graph: each port stores the
//! *set* of destinations routed through it, compressed as maximal label
//! intervals. The interesting question is how many intervals that takes —
//! reference \[1\] shows that on random graphs interval compression buys
//! essentially nothing, and the `baselines` experiment measures exactly
//! that: on `G(n, 1/2)` the encoded size tracks the full table.

use ort_bitio::{bits_to_index, codes, BitReader, BitWriter};
use ort_graphs::dist::FirstHopBlock;
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::Distances;
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId};

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};

/// The k-interval shortest-path scheme (model IB ∧ α).
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::multi_interval::MultiIntervalScheme;
/// use ort_routing::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::cycle(12);
/// let dists = Apsp::compute(&g);
/// let scheme = MultiIntervalScheme::build(&g, &dists)?;
/// let report = verify::verify(&g, &scheme, &dists, 1)?;
/// assert!(report.is_shortest_path());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiIntervalScheme {
    tables: Tables,
    total_intervals: usize,
}

impl MultiIntervalScheme {
    /// Builds the scheme on any connected graph from the exact distances
    /// `dists`.
    ///
    /// Row-streamed: the outer loop walks destinations ascending in
    /// blocks of 64, gathers each block's rows once into a
    /// [`FirstHopBlock`] (the block form of the one first-hop rule) and
    /// settles every node's first hop toward the whole block in one pass
    /// over its neighbours. Each hop *extends the last interval run in
    /// place* when a port's destination set stays contiguous (the
    /// maximal-run merge the historical build applied to each sorted
    /// per-port list, performed online), so full per-port destination
    /// lists are never materialised and a banded oracle's peak distance
    /// memory is one band plus the block. Encoded bits are identical to
    /// the historical per-node construction.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Disconnected`] for disconnected graphs,
    /// [`SchemeError::ApproximateOracle`] for inexact oracles and a
    /// precondition error on an oracle/graph size mismatch.
    pub fn build(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        crate::schemes::check_exact_oracle(g, dists)?;
        let n = g.node_count();
        let ports = PortAssignment::sorted(g);
        let width = bits_to_index(n as u64);
        // intervals[u][p]: maximal (start, len) runs of the destinations
        // routed from u through port p, grown online as t ascends.
        let mut intervals: Vec<Vec<Vec<(NodeId, usize)>>> =
            (0..n).map(|u| vec![Vec::new(); g.degree(u)]).collect();
        let mut block = FirstHopBlock::new(n);
        for first in (0..n).step_by(FirstHopBlock::LANES) {
            block.gather(dists, first..n.min(first + FirstHopBlock::LANES));
            for (u, per_port) in intervals.iter_mut().enumerate() {
                // Sorted ports: a neighbour's rank is its port.
                for (j, p) in block.first_hops(g, u).ok_or(SchemeError::Disconnected)? {
                    let t = first + j;
                    match per_port[p].last_mut() {
                        Some((start, len)) if *start + *len == t => *len += 1,
                        _ => per_port[p].push((t, 1)),
                    }
                }
            }
        }
        let mut bits = Vec::with_capacity(n);
        let mut total_intervals = 0usize;
        for per_port in &intervals {
            let mut w = BitWriter::new();
            for runs in per_port {
                total_intervals += runs.len();
                codes::write_elias_gamma0(&mut w, runs.len() as u64)?;
                for &(start, len) in runs {
                    w.write_bits(start as u64, width)?;
                    codes::write_elias_gamma(&mut w, len as u64)?;
                }
            }
            bits.push(w.finish());
        }
        let tables = Tables { bits, labeling: Labeling::identity(n), ports };
        Ok(MultiIntervalScheme { tables, total_intervals })
    }

    /// Reassembles a scheme from snapshot parts (`crate::snapshot`),
    /// recomputing the interval count by parsing the stored tables.
    pub(crate) fn from_parts(tables: Tables) -> Self {
        let width = bits_to_index(tables.bits.len() as u64);
        let mut total_intervals = 0usize;
        for (u, node_bits) in tables.bits.iter().enumerate() {
            let mut r = BitReader::new(node_bits);
            for _ in 0..tables.ports.degree(u) {
                let Ok(count) = codes::read_elias_gamma0(&mut r) else { break };
                total_intervals += count as usize;
                for _ in 0..count {
                    if r.read_bits(width).is_err() || codes::read_elias_gamma(&mut r).is_err() {
                        break;
                    }
                }
            }
        }
        MultiIntervalScheme { tables, total_intervals }
    }

    /// Total number of intervals stored across all nodes and ports — the
    /// compactness measure of reference \[1\].
    #[must_use]
    pub fn total_intervals(&self) -> usize {
        self.total_intervals
    }
}

impl RoutingScheme for MultiIntervalScheme {
    fn model(&self) -> Model {
        Model::new(Knowledge::PortsFree, Relabeling::None)
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
        let width = bits_to_index(env.n as u64);
        let mut r = BitReader::new(bits);
        for port in 0..env.degree {
            let count = codes::read_elias_gamma0(&mut r)?;
            let mut hit = false;
            for _ in 0..count {
                let start = r.read_bits(width)? as usize;
                let len = codes::read_elias_gamma(&mut r)? as usize;
                if (start..start + len).contains(&dest_l) {
                    hit = true;
                }
            }
            if hit {
                return Ok(RouteDecision::Forward(port));
            }
        }
        Err(RouteError::UnknownDestination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn shortest_path_everywhere() {
        for (g, name) in [
            (generators::gnp_half(28, 1), "gnp"),
            (generators::path(10), "path"),
            (generators::cycle(11), "cycle"),
            (generators::grid(4, 4), "grid"),
            (generators::gb_graph(4), "gb"),
            (generators::star(9), "star"),
        ] {
            let dists = Apsp::compute(&g);
            let scheme = MultiIntervalScheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.is_shortest_path(), "{name}");
        }
    }

    #[test]
    fn interval_compression_wins_on_paths() {
        // On a path, each port covers one contiguous half: 2 intervals per
        // interior node.
        let g = generators::path(50);
        let dists = Apsp::compute(&g);
        let scheme = MultiIntervalScheme::build(&g, &dists).unwrap();
        assert_eq!(scheme.total_intervals(), 2 * 48 + 2);
        // And the size is far below the full table's Θ(n² log n)… at least 4×.
        let ft = crate::schemes::full_table::FullTableScheme::build(&g, &dists).unwrap();
        assert!(scheme.total_size_bits() * 4 < ft.total_size_bits() * 10);
    }

    #[test]
    fn interval_compression_fails_on_random_graphs() {
        // Reference [1]'s phenomenon: on G(n,1/2), destination sets are
        // near-random subsets, so intervals barely merge — the interval
        // count stays a constant fraction of n per node.
        let n = 96;
        let g = generators::gnp_half(n, 5);
        let dists = Apsp::compute(&g);
        let scheme = MultiIntervalScheme::build(&g, &dists).unwrap();
        let per_node = scheme.total_intervals() as f64 / n as f64;
        assert!(per_node > 0.2 * n as f64, "intervals/node = {per_node}");
        // Consequently the size is a constant factor of the full table's.
        let ft = crate::schemes::full_table::FullTableScheme::build(&g, &dists).unwrap();
        let ratio = scheme.total_size_bits() as f64 / ft.total_size_bits() as f64;
        assert!(ratio > 0.5, "size ratio {ratio}");
    }

    #[test]
    fn interval_counts_match_structure() {
        // Star centre: each port serves exactly one destination → n-1
        // intervals; leaves: one interval covering everything reachable …
        // which is [0..n-1] minus themselves → ≤ 2 intervals.
        let g = generators::star(12);
        let scheme = MultiIntervalScheme::build(&g, &Apsp::compute(&g)).unwrap();
        assert!(scheme.total_intervals() <= (12 - 1) + 11 * 2);
    }

    #[test]
    fn rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let disconnected = MultiIntervalScheme::build(&g, &Apsp::compute(&g));
        assert!(matches!(disconnected, Err(SchemeError::Disconnected)));
    }
}
