//! The Theorem 3 scheme: stretch 1.5 in `O(n log n)` total bits (model II).
//!
//! Take a hub set `B = {u*} ∪ (dominating neighbour prefix of u*)` — by
//! Lemmas 2 and 3 this has `O(log n)` nodes on a random graph and every
//! node is adjacent to a member of `B`. Hubs store a full Theorem 1
//! shortest-path table (≤ 6n bits); everyone else stores just the port of
//! an adjacent hub (`≤ log n` bits). A route goes: source → its hub →
//! (≤ 2 hops shortest path) → destination, at most 3 hops where the
//! distance is 2, i.e. stretch 1.5 — which on a diameter-2 graph is the
//! only possible stretch between 1 and 2.

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

/// The Theorem 3 hub scheme (stretch ≤ 1.5).
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::theorem3::Theorem3Scheme;
/// use ort_routing::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_half(64, 5);
/// let dists = Apsp::compute(&g);
/// let scheme = Theorem3Scheme::build(&g, &dists)?;
/// let report = verify::verify(&g, &scheme, &dists, 1)?;
/// assert!(report.max_stretch().unwrap() <= 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Theorem3Scheme {
    tables: Tables,
    /// The hub set, kept for reporting (not used in routing).
    hubs: Vec<NodeId>,
}

impl Theorem3Scheme {
    /// Builds the scheme with hub anchor `u* = 0`. The construction is
    /// purely adjacency-based; the exact oracle `dists` contributes only
    /// its connectivity bit (row 0), so a banded oracle's peak distance
    /// memory stays one band.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Precondition`] if node 0's neighbour prefix
    /// does not dominate the graph (Lemma 3 fails), the graph has
    /// diameter > 2 where the hub tables need it, or the oracle's node
    /// count does not match `g`; [`SchemeError::ApproximateOracle`] for
    /// inexact oracles; [`SchemeError::Disconnected`] for disconnected
    /// graphs.
    pub fn build(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        let n = g.node_count();
        if n < 2 {
            return Err(SchemeError::Precondition { reason: "need at least 2 nodes".into() });
        }
        crate::schemes::check_exact_oracle(g, dists)?;
        // Any node works as the anchor on a random graph (Lemma 3); on
        // marginal graphs some anchors dominate and others do not, so try
        // node 0 first, then the max-degree node, then a short scan.
        let max_deg = (0..n).max_by_key(|&u| g.degree(u)).expect("n >= 2");
        let mut relays = Relays::new(g);
        let (anchor, t) = std::iter::once(0)
            .chain(std::iter::once(max_deg))
            .chain(0..n.min(16))
            .find_map(|a| {
                relays.set(a);
                relays.dominating_prefix_len().map(|t| (a, t))
            })
            .ok_or_else(|| SchemeError::Precondition {
                reason: "no anchor's neighbours dominate the graph".into(),
            })?;
        let mut hubs: Vec<NodeId> = Vec::with_capacity(t + 1);
        hubs.push(anchor);
        hubs.extend(g.neighbors(anchor).iter().copied().take(t));
        hubs.sort_unstable();
        let hub_set: std::collections::HashSet<NodeId> = hubs.iter().copied().collect();

        let mut bits = Vec::with_capacity(n);
        for u in 0..n {
            let mut w = BitWriter::new();
            if hub_set.contains(&u) {
                w.write_bit(true);
                w.write_bitvec(&Theorem1Scheme::encode_node_tables(&mut relays, u)?);
            } else {
                w.write_bit(false);
                // Port of some adjacent hub (ports sorted by neighbour id).
                let port = g
                    .neighbors(u)
                    .iter()
                    .position(|v| hub_set.contains(v))
                    .ok_or_else(|| SchemeError::Precondition {
                        reason: format!("node {u} has no adjacent hub"),
                    })?;
                w.write_bits(port as u64, bits_to_index(g.degree(u) as u64))?;
            }
            bits.push(w.finish());
        }
        let tables =
            Tables { bits, labeling: Labeling::identity(n), ports: PortAssignment::sorted(g) };
        Ok(Theorem3Scheme { tables, hubs })
    }

    /// The hub set `B` chosen at build time.
    #[must_use]
    pub fn hubs(&self) -> &[NodeId] {
        &self.hubs
    }
}

impl RoutingScheme for Theorem3Scheme {
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
        if let Ok(port) = nbrs.binary_search(&dest_l) {
            return Ok(RouteDecision::Forward(port));
        }
        let mut r = BitReader::new(bits);
        if r.read_bit()? {
            // Hub: full Theorem 1 tables start after the tag bit.
            route_with_tables(bits, 1, env.n, &nbrs, own, dest_l)
        } else {
            // Non-hub: forward to the stored adjacent hub.
            let port = r.read_bits(bits_to_index(env.degree as u64))? as usize;
            if port >= env.degree {
                return Err(RouteError::PortOutOfRange { port, degree: env.degree });
            }
            Ok(RouteDecision::Forward(port))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn stretch_at_most_1_5_on_random_graphs() {
        for seed in 0..5u64 {
            let g = generators::gnp_half(48, seed);
            let dists = Apsp::compute(&g);
            let scheme = Theorem3Scheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered(), "seed {seed}: {:?}", report.failures.first());
            let s = report.max_stretch().unwrap();
            assert!(s <= 1.5, "seed {seed}: stretch {s}");
        }
    }

    #[test]
    fn hub_set_is_logarithmic() {
        let n = 256;
        let g = generators::gnp_half(n, 3);
        let scheme = Theorem3Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let hubs = scheme.hubs().len();
        // Lemma 3: prefix ≈ log n, far below (c+3) log n = 48.
        assert!((2..=49).contains(&hubs), "hub count {hubs}");
    }

    #[test]
    fn size_is_o_n_log_n() {
        let n = 256usize;
        let g = generators::gnp_half(n, 11);
        let dists = Apsp::compute(&g);
        let scheme = Theorem3Scheme::build(&g, &dists).unwrap();
        // Paper bound: < (6c+20)·n·log n with c = 3 → 38·n·log n.
        let bound = 38.0 * n as f64 * (n as f64).log2();
        assert!((scheme.total_size_bits() as f64) < bound);
        // And strictly below Theorem 1's Θ(n²) at this size.
        let t1 = Theorem1Scheme::build(&g, &dists).unwrap();
        assert!(scheme.total_size_bits() < t1.total_size_bits() / 4);
    }

    #[test]
    fn non_hub_nodes_store_log_n_bits() {
        let g = generators::gnp_half(128, 2);
        let scheme = Theorem3Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let hubs: std::collections::HashSet<_> = scheme.hubs().iter().copied().collect();
        for u in 0..128 {
            if !hubs.contains(&u) {
                // 1 tag bit + ⌈log d⌉ ≤ 1 + 7.
                assert!(scheme.node_size_bits(u) <= 8, "node {u}");
            } else {
                assert!(scheme.node_size_bits(u) <= 6 * 128 + 1, "hub {u}");
            }
        }
    }

    #[test]
    fn rejects_undominated_graphs() {
        let g = generators::path(16);
        assert!(matches!(
            Theorem3Scheme::build(&g, &Apsp::compute(&g)),
            Err(SchemeError::Precondition { .. })
        ));
    }

    #[test]
    fn star_works_with_leaf_anchor() {
        // Anchor 0 is the star centre; hubs = {0}∪{} ... centre dominates.
        let g = generators::star(12);
        let dists = Apsp::compute(&g);
        let scheme = Theorem3Scheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.all_delivered());
        assert!(report.max_stretch().unwrap() <= 1.5);
    }
}
