//! A constant-optimal scheme for model IA ∧ α — the regime where Theorem 8
//! proves `Σ|F(u)| ≥ (n²/2)·log(n/2) − O(n²)` and "one cannot do better
//! than storing the routing tables literally".
//!
//! The trivial full table spends `(n−1)·⌈log d⌉ ≈ n·log n` bits per node.
//! This scheme shows the lower bound's constant is achievable up to
//! lower-order terms: store exactly what Theorem 8 says is unavoidable —
//! the interconnection vector (`n−1` bits) and the port permutation
//! (`⌈log d!⌉ ≈ (n/2)·log(n/2)` bits, Lehmer-ranked) — plus a Theorem 1
//! table pair (`≤ 3n` bits) to pick next hops. Per node:
//! `(n/2)·log(n/2) + O(n)` vs the full table's `n·log n` — asymptotically
//! the same Θ(n log n), but with Theorem 8's constant, roughly halving the
//! table.

use ort_bitio::{lehmer, BitReader, BitWriter};
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::Distances;
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId, Relays};

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};
use crate::schemes::theorem1::Theorem1Scheme;

/// The compact IA ∧ α scheme: interconnection vector + Lehmer-coded port
/// permutation + Theorem 1 tables.
///
/// # Example
///
/// ```
/// use ort_graphs::{generators, paths::Apsp, ports::PortAssignment};
/// use ort_routing::schemes::ia_compact::IaCompactScheme;
/// use ort_routing::verify;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_half(64, 1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let ports = PortAssignment::adversarial(&g, &mut rng);
/// let dists = Apsp::compute(&g);
/// let scheme = IaCompactScheme::build(&g, ports, &dists)?;
/// let report = verify::verify(&g, &scheme, &dists, 1)?;
/// assert!(report.is_shortest_path());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IaCompactScheme {
    tables: Tables,
}

impl IaCompactScheme {
    /// Builds the scheme against a **fixed** (possibly adversarial) port
    /// assignment — the IA premise. The construction is purely
    /// adjacency-based; the exact oracle `dists` contributes only its
    /// connectivity bit (row 0), so a banded oracle's peak distance
    /// memory stays one band.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Precondition`] on diameter > 2 (the Theorem 1
    /// tables need the common-neighbour property) or an oracle/graph size
    /// mismatch, [`SchemeError::ApproximateOracle`] for inexact oracles,
    /// or [`SchemeError::Disconnected`].
    pub fn build(
        g: &Graph,
        ports: PortAssignment,
        dists: &dyn Distances,
    ) -> Result<Self, SchemeError> {
        let n = g.node_count();
        if n < 2 {
            return Err(SchemeError::Precondition { reason: "need at least 2 nodes".into() });
        }
        crate::schemes::check_exact_oracle(g, dists)?;
        let mut bits = Vec::with_capacity(n);
        let mut relays = Relays::new(g);
        for u in 0..n {
            let mut w = BitWriter::new();
            // Interconnection vector (who my neighbours are).
            g.write_interconnection(u, &mut w);
            // Port permutation relative to sorted neighbours (which port
            // reaches whom) — exactly the log d! bits Theorem 8 charges.
            let rel = ports.relative_permutation(u);
            lehmer::encode_permutation(&mut w, &rel)?;
            // Next-hop tables (ranks into the sorted neighbour list).
            w.write_bitvec(&Theorem1Scheme::encode_node_tables(&mut relays, u)?);
            bits.push(w.finish());
        }
        Ok(IaCompactScheme { tables: Tables { bits, labeling: Labeling::identity(n), ports } })
    }
}

impl RoutingScheme for IaCompactScheme {
    fn model(&self) -> Model {
        Model::new(Knowledge::PortsFixed, Relabeling::None)
    }

    fn tables(&self) -> &Tables {
        &self.tables
    }

    fn port_permutation_bits(&self, u: NodeId) -> usize {
        lehmer::permutation_code_width(self.tables.ports.degree(u))
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
        // Decode the interconnection vector (sorted neighbour ids).
        let mut r = BitReader::new(bits);
        let mut nbrs = Vec::new();
        for x in 0..env.n {
            if x == own {
                continue;
            }
            if r.read_bit()? {
                nbrs.push(x);
            }
        }
        // Decode the port permutation: rel[p] = sorted-rank behind port p.
        let rel = lehmer::decode_permutation(&mut r, nbrs.len())?;
        // Route by sorted rank via the Theorem 1 tables…
        let tables_at = r.position();
        let decision = crate::schemes::theorem1::route_with_tables(
            bits, tables_at, env.n, &nbrs, own, dest_l,
        )?;
        // …then translate the rank to the *actual* fixed port.
        match decision {
            RouteDecision::Forward(rank) => {
                let port = rel
                    .iter()
                    .position(|&q| q == rank)
                    .ok_or(RouteError::PortOutOfRange { port: rank, degree: env.degree })?;
                Ok(RouteDecision::Forward(port))
            }
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::full_table::FullTableScheme;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adversarial(g: &Graph, seed: u64) -> PortAssignment {
        let mut rng = StdRng::seed_from_u64(seed);
        PortAssignment::adversarial(g, &mut rng)
    }

    #[test]
    fn shortest_path_under_adversarial_ports() {
        for seed in 0..4u64 {
            let g = generators::gnp_half(40, seed);
            let dists = Apsp::compute(&g);
            let scheme = IaCompactScheme::build(&g, adversarial(&g, seed * 7 + 1), &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.is_shortest_path(), "seed {seed}: {:?}", report.failures.first());
        }
    }

    #[test]
    fn beats_the_full_table_constant() {
        // Same model, same adversarial assignment: the Lehmer-coded scheme
        // must be smaller than the naive table at moderate n.
        let n = 128;
        let g = generators::gnp_half(n, 9);
        let ports = adversarial(&g, 5);
        let dists = Apsp::compute(&g);
        let compact = IaCompactScheme::build(&g, ports.clone(), &dists).unwrap();
        let naive = FullTableScheme::build_with(
            &g,
            &dists,
            Model::new(Knowledge::PortsFixed, Relabeling::None),
            ports,
            Labeling::identity(n),
        )
        .unwrap();
        assert!(
            compact.total_size_bits() < naive.total_size_bits(),
            "{} vs {}",
            compact.total_size_bits(),
            naive.total_size_bits()
        );
        // And it still sits above Theorem 8's unavoidable permutation bits.
        let floor: usize =
            (0..n).map(|u| ort_bitio::lehmer::permutation_code_width(g.degree(u))).sum();
        assert!(compact.total_size_bits() >= floor);
    }

    #[test]
    fn size_formula() {
        let n = 64;
        let g = generators::gnp_half(n, 2);
        let dists = Apsp::compute(&g);
        let scheme = IaCompactScheme::build(&g, adversarial(&g, 3), &dists).unwrap();
        let t1 = crate::schemes::theorem1::Theorem1Scheme::build(&g, &dists).unwrap();
        for u in 0..n {
            let expect = (n - 1)
                + ort_bitio::lehmer::permutation_code_width(g.degree(u))
                + t1.node_size_bits(u);
            assert_eq!(scheme.node_size_bits(u), expect, "node {u}");
        }
    }

    #[test]
    fn rejects_bad_graphs() {
        let g = generators::path(8);
        let ports = PortAssignment::sorted(&g);
        assert!(IaCompactScheme::build(&g, ports, &Apsp::compute(&g)).is_err());
    }
}
