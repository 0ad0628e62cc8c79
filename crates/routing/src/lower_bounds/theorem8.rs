//! Theorem 8 as an experiment: `Ω(n² log n)` total bits in model IA ∧ α.
//!
//! With fixed adversarial ports and unknown neighbours, a correct routing
//! function must name the right port for every neighbour destination — it
//! therefore *determines* the node's whole port-to-neighbour permutation.
//! A Kolmogorov-random permutation of `d ≈ n/2` items costs
//! `log d! = (n/2)·log(n/2) − O(n)` bits, so that is a floor on `|F(u)|`.
//!
//! This module extracts the permutation back out of a real routing
//! function (proving the determination claim constructively) and computes
//! the exact `⌈log₂ d!⌉` floors.

use ort_bitio::lehmer;
use ort_graphs::labels::{Label, LabelRef};
use ort_graphs::{Graph, NodeId};

use crate::scheme::{MessageState, RouteError, RoutingScheme};

/// Extracts the port-to-neighbour map of `u` using **only** router
/// queries: destination `v` is a neighbour iff the graph says so, and the
/// port the router names for it must be the port leading to it.
///
/// # Errors
///
/// Returns a [`RouteError`] if the router misbehaves on a neighbour
/// destination.
pub fn extract_port_map(
    g: &Graph,
    scheme: &dyn RoutingScheme,
    u: NodeId,
) -> Result<Vec<NodeId>, RouteError> {
    let env = scheme.node_env(u);
    let mut map = vec![usize::MAX; env.degree];
    for &v in g.neighbors(u) {
        let LabelRef::Minimal(vl) = scheme.labeling().label_ref(v) else {
            return Err(RouteError::MissingInformation { what: "minimal labels" });
        };
        let mut state = MessageState::default();
        let port = scheme
            .route_at(u, &env, &Label::Minimal(vl), &mut state)?
            .primary_port()
            .ok_or(RouteError::UnknownDestination)?;
        if port >= env.degree {
            return Err(RouteError::PortOutOfRange { port, degree: env.degree });
        }
        map[port] = v;
    }
    if map.contains(&usize::MAX) {
        return Err(RouteError::UnknownDestination);
    }
    Ok(map)
}

/// Per-node accounting of the Theorem 8 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAccounting {
    /// The node analysed.
    pub node: NodeId,
    /// Measured `|F(u)|`.
    pub f_bits: usize,
    /// Degree of the node.
    pub degree: usize,
    /// Exact information content of a uniformly chosen port permutation:
    /// `⌈log₂ d!⌉`. This is the incompressibility floor for `|F(u)|` on a
    /// random port assignment.
    pub permutation_bits: usize,
}

/// Runs the Theorem 8 accounting for every node: extracts the permutation
/// from the routing function, checks it matches the adversarial
/// assignment, and returns the `log d!` floors.
///
/// # Errors
///
/// Returns a [`RouteError`] if extraction fails or disagrees with the
/// actual port assignment (which would mean the scheme is incorrect).
pub fn analyze(g: &Graph, scheme: &dyn RoutingScheme) -> Result<Vec<NodeAccounting>, RouteError> {
    let mut out = Vec::with_capacity(g.node_count());
    for u in g.nodes() {
        let extracted = extract_port_map(g, scheme, u)?;
        let actual: Vec<NodeId> = (0..g.degree(u))
            .map(|p| scheme.port_assignment().neighbor_at(u, p).expect("port in range"))
            .collect();
        if extracted != actual {
            return Err(RouteError::UnknownDestination);
        }
        out.push(NodeAccounting {
            node: u,
            f_bits: scheme.node_size_bits(u),
            degree: g.degree(u),
            permutation_bits: lehmer::permutation_code_width(g.degree(u)),
        });
    }
    Ok(out)
}

/// The Theorem 8 total floor for a graph: `Σ_u ⌈log₂ d(u)!⌉`.
#[must_use]
pub fn total_floor(accounting: &[NodeAccounting]) -> usize {
    accounting.iter().map(|a| a.permutation_bits).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Knowledge, Model, Relabeling};
    use crate::schemes::full_table::FullTableScheme;
    use ort_graphs::generators;
    use ort_graphs::labels::Labeling;
    use ort_graphs::paths::Apsp;
    use ort_graphs::ports::PortAssignment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ia_scheme(g: &Graph, seed: u64) -> FullTableScheme {
        let mut rng = StdRng::seed_from_u64(seed);
        FullTableScheme::build_with(
            g,
            &Apsp::compute(g),
            Model::new(Knowledge::PortsFixed, Relabeling::None),
            PortAssignment::adversarial(g, &mut rng),
            Labeling::identity(g.node_count()),
        )
        .unwrap()
    }

    #[test]
    fn routing_function_determines_the_permutation() {
        let g = generators::gnp_half(24, 1);
        let scheme = ia_scheme(&g, 77);
        let accounting = analyze(&g, &scheme).unwrap();
        assert_eq!(accounting.len(), 24);
        // log d! with d ≈ 12 is ≈ 29 bits; at n=24 the floor is modest but
        // strictly positive everywhere.
        for a in &accounting {
            assert!(a.permutation_bits > 0);
            assert!(a.f_bits >= a.permutation_bits, "{a:?}");
        }
    }

    #[test]
    fn different_assignments_force_different_functions() {
        // Two adversarial assignments differ at some node; the encoded
        // routing functions must differ there too — this is the
        // "completely describes the permutation" step made literal.
        let g = generators::gnp_half(20, 5);
        let a = ia_scheme(&g, 1);
        let b = ia_scheme(&g, 2);
        let mut some_difference = false;
        for u in 0..20 {
            use crate::scheme::RoutingScheme as _;
            let pa = a.port_assignment().order(u);
            let pb = b.port_assignment().order(u);
            if pa != pb {
                assert_ne!(a.node_bits(u), b.node_bits(u), "node {u}");
                some_difference = true;
            }
        }
        assert!(some_difference, "adversarial assignments should differ");
    }

    #[test]
    fn floor_grows_like_n_squared_log_n() {
        // Σ log d! with d ≈ n/2 is ≈ n·(n/2)·log(n/2); check the ratio to
        // n² log n is roughly constant (0.3–0.6) across sizes.
        let mut ratios = Vec::new();
        for n in [32usize, 64, 128] {
            let g = generators::gnp_half(n, 3);
            let scheme = ia_scheme(&g, 9);
            let accounting = analyze(&g, &scheme).unwrap();
            let floor = total_floor(&accounting) as f64;
            let scale = (n * n) as f64 * (n as f64).log2();
            ratios.push(floor / scale);
        }
        for &r in &ratios {
            assert!(r > 0.25 && r < 0.65, "ratios {ratios:?}");
        }
        // Ratio should be non-decreasing-ish (log(n/2)/log n → 1).
        assert!(ratios[2] > ratios[0]);
    }

    #[test]
    fn extraction_matches_sorted_ports_too() {
        let g = generators::gnp_half(16, 2);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        for u in 0..16 {
            let map = extract_port_map(&g, &scheme, u).unwrap();
            assert_eq!(map, g.neighbors(u).to_vec());
        }
    }
}
