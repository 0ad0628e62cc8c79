//! Theorem 9 as an experiment: the worst-case `Ω(n² log n)` bound for any
//! stretch < 2, via the explicit graph `G_B` (Figure 1).
//!
//! In `G_B` the unique shortest path from a bottom node `b` to the top
//! node with label `λ` passes through the matching middle node; any other
//! route has length ≥ 4, i.e. stretch ≥ 2. So a scheme with stretch < 2
//! must, at every bottom node, map each top *label* to the correct middle
//! *port* — its routing function contains the adversarial assignment of
//! labels to top nodes, a permutation of `k = n/3` items worth
//! `⌈log₂ k!⌉ = (n/3)·log(n/3) − O(n)` bits.
//!
//! [`extract_top_permutation`] performs that decoding with router queries
//! only, for each of the `k` bottom nodes independently.

use ort_bitio::lehmer;
use ort_graphs::generators::{gb_graph, random_permutation};
use ort_graphs::labels::Label;
use ort_graphs::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scheme::{MessageState, RouteError, RoutingScheme};

/// Builds the Theorem 9 instance: `G_B` on `3k` nodes with the top layer
/// scrambled by a seeded permutation (the adversarial labelling).
///
/// Returns `(graph, sigma)` where `sigma[i] = j` means the top *partner*
/// of middle node `k+i` carries node id `2k + j` in the returned graph.
#[must_use]
pub fn scrambled_gb(k: usize, seed: u64) -> (Graph, Vec<usize>) {
    let g = gb_graph(k);
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = random_permutation(k, &mut rng);
    // Relabel only the top layer: node 2k+i → 2k+sigma[i].
    let mut perm: Vec<NodeId> = (0..3 * k).collect();
    for (i, &s) in sigma.iter().enumerate() {
        perm[2 * k + i] = 2 * k + s;
    }
    (g.relabel(&perm), sigma)
}

/// Decodes the top-layer permutation out of bottom node `b`'s routing
/// function: querying destination `2k + j` must yield the port towards the
/// unique matching middle node `k + i`, revealing `sigma[i] = j`.
///
/// Uses only router queries plus the public convention that bottom nodes'
/// sorted ports lead to middle nodes `k..2k` in order.
///
/// # Errors
///
/// Returns a [`RouteError`] if the router fails, or
/// [`RouteError::UnknownDestination`] if the answers do not form a
/// permutation (impossible for a correct scheme with stretch < 2).
pub fn extract_top_permutation(
    scheme: &dyn RoutingScheme,
    k: usize,
    b: NodeId,
) -> Result<Vec<usize>, RouteError> {
    let env = scheme.node_env(b);
    let mut sigma = vec![usize::MAX; k];
    for j in 0..k {
        let dest = Label::Minimal(2 * k + j);
        let mut state = MessageState::default();
        let port = scheme
            .route_at(b, &env, &dest, &mut state)?
            .primary_port()
            .ok_or(RouteError::UnknownDestination)?;
        // Bottom node b's neighbours are exactly the middle nodes k..2k,
        // so sorted port p leads to middle node k+p.
        let i = port;
        if i >= k || sigma[i] != usize::MAX {
            return Err(RouteError::UnknownDestination);
        }
        sigma[i] = j;
    }
    Ok(sigma)
}

/// Accounting for one Theorem 9 run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Theorem9Report {
    /// Layer size `k = n/3`.
    pub k: usize,
    /// Exact information content of the adversarial permutation:
    /// `⌈log₂ k!⌉`.
    pub permutation_bits: usize,
    /// Measured `|F(b)|` at each bottom node.
    pub bottom_f_bits: Vec<usize>,
}

impl Theorem9Report {
    /// The paper's headline: each bottom node must store at least the
    /// permutation (minus its own compressibility); total over `k` bottom
    /// nodes ≈ `(n²/9)·log n`.
    #[must_use]
    pub fn total_floor(&self) -> usize {
        self.k * self.permutation_bits
    }
}

/// Runs the full experiment: scramble, build a scheme via `build`, verify
/// the permutation can be extracted from **every** bottom node, and return
/// the accounting.
///
/// # Errors
///
/// Returns a [`RouteError`] if extraction fails or mismatches the planted
/// permutation.
pub fn run<S, F>(k: usize, seed: u64, build: F) -> Result<Theorem9Report, RouteError>
where
    S: RoutingScheme,
    F: FnOnce(&Graph) -> S,
{
    let (g, sigma) = scrambled_gb(k, seed);
    let scheme = build(&g);
    for b in 0..k {
        let extracted = extract_top_permutation(&scheme, k, b)?;
        if extracted != sigma {
            return Err(RouteError::UnknownDestination);
        }
    }
    Ok(Theorem9Report {
        k,
        permutation_bits: lehmer::permutation_code_width(k),
        bottom_f_bits: (0..k).map(|b| scheme.node_size_bits(b)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::full_table::FullTableScheme;
    use crate::verify::verify;
    use ort_graphs::paths::Apsp;

    #[test]
    fn scrambled_gb_keeps_structure() {
        let (g, sigma) = scrambled_gb(6, 3);
        assert_eq!(g.node_count(), 18);
        assert_eq!(g.edge_count(), 36 + 6);
        // Middle node 6+i is adjacent to top node 12+sigma[i].
        for (i, &s) in sigma.iter().enumerate() {
            assert!(g.has_edge(6 + i, 12 + s));
        }
        // Bottom nodes still see all middles.
        for b in 0..6 {
            assert_eq!(g.neighbors(b), (6..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn full_table_reveals_the_permutation() {
        let report = run(8, 11, |g| FullTableScheme::build(g, &Apsp::compute(g)).unwrap()).unwrap();
        assert_eq!(report.k, 8);
        assert_eq!(report.permutation_bits, 16); // ⌈log₂ 8!⌉ = ⌈15.3⌉
        assert_eq!(report.bottom_f_bits.len(), 8);
        assert!(report.total_floor() > 0);
    }

    #[test]
    fn every_seed_and_every_bottom_node_agrees() {
        for seed in 0..5u64 {
            let (g, sigma) = scrambled_gb(5, seed);
            let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
            for b in 0..5 {
                assert_eq!(
                    extract_top_permutation(&scheme, 5, b).unwrap(),
                    sigma,
                    "seed {seed} bottom {b}"
                );
            }
        }
    }

    #[test]
    fn the_scheme_is_stretch_one_hence_qualifies() {
        // Theorem 9 covers any stretch < 2; the full table has stretch 1.
        let (g, _) = scrambled_gb(5, 1);
        let dists = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.is_shortest_path());
    }

    #[test]
    fn extraction_works_across_scheme_families() {
        // Theorem 9 binds *every* stretch < 2 scheme: the k-interval
        // shortest-path scheme stores its tables completely differently,
        // yet the permutation comes out all the same.
        use crate::schemes::multi_interval::MultiIntervalScheme;
        let multi_interval = |g: &Graph| MultiIntervalScheme::build(g, &Apsp::compute(g)).unwrap();
        let report = run(10, 3, multi_interval).unwrap();
        assert_eq!(report.k, 10);
        for &f in &report.bottom_f_bits {
            assert!(f >= report.permutation_bits, "{f} < {}", report.permutation_bits);
        }
    }

    #[test]
    fn floor_matches_paper_growth() {
        // permutation_bits ≈ k log k − O(k): check the ratio.
        for k in [16usize, 64, 256] {
            let bits = lehmer::permutation_code_width(k) as f64;
            let klogk = (k as f64) * (k as f64).log2();
            assert!(bits > 0.5 * klogk && bits <= klogk, "k={k}: {bits} vs {klogk}");
        }
    }

    #[test]
    fn bottom_f_bits_carry_at_least_log_k_factorial_information() {
        // The full-table F(b) is (n-1)·log d bits ≥ log k! for these sizes
        // — consistent with (not a proof of) the floor; the *information*
        // argument is the extraction test above.
        let report = run(12, 5, |g| FullTableScheme::build(g, &Apsp::compute(g)).unwrap()).unwrap();
        for &f in &report.bottom_f_bits {
            assert!(f >= report.permutation_bits, "{f} < {}", report.permutation_bits);
        }
    }
}
