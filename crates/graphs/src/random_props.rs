//! Executable versions of the paper's Lemmas 1–3.
//!
//! The paper proves that every `O(log n)`-random graph has: degrees
//! concentrated around `(n−1)/2` (Lemma 1), diameter exactly 2 (Lemma 2),
//! and, from every node `u`, a *dominating prefix*: the `(c+3)·log n` least
//! neighbours of `u` are adjacent to every non-neighbour of `u` (Lemma 3).
//!
//! These properties are what the upper-bound schemes (Theorems 1–5) consume.
//! Since we instantiate "Kolmogorov random" as seeded `G(n, 1/2)` samples,
//! this module makes the lemmas *checkable per sample*: the experiment
//! harness reports how often they hold, and scheme constructors verify the
//! preconditions they rely on instead of assuming them.

use crate::paths::Apsp;
use crate::{Graph, Relays};

/// Report of Lemma 1: degree concentration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeReport {
    /// Largest deviation `|d(u) − (n−1)/2|` over all nodes.
    pub max_deviation: f64,
    /// The Lemma 1 scale `√((δ + log n)·n)` computed with `δ = c·log n`.
    pub lemma_scale: f64,
    /// Whether `max_deviation ≤ slack · lemma_scale`.
    pub holds: bool,
}

/// Checks Lemma 1 on `g`: every degree deviates from `(n−1)/2` by at most
/// `slack · √((c+1)·n·log₂ n)`.
///
/// `slack` absorbs the constant hidden in the paper's `O(·)`; `slack = 1.0`
/// is comfortably satisfied by `G(n, 1/2)` samples (Chernoff gives
/// deviations around `√(n·ln n)/…` already for `c = 0`).
#[must_use]
pub fn check_degree_concentration(g: &Graph, c: f64, slack: f64) -> DegreeReport {
    let n = g.node_count();
    let half = (n as f64 - 1.0) / 2.0;
    let max_deviation = g
        .nodes()
        .map(|u| (g.degree(u) as f64 - half).abs())
        .fold(0.0f64, f64::max);
    let log_n = (n.max(2) as f64).log2();
    let lemma_scale = ((c + 1.0) * log_n * n as f64).sqrt();
    DegreeReport { max_deviation, lemma_scale, holds: max_deviation <= slack * lemma_scale }
}

/// Checks Lemma 2: the graph has diameter exactly 2.
///
/// Runs one common-neighbour merge per non-adjacent pair
/// ([`Graph::non_edges`]), without a full APSP.
#[must_use]
pub fn has_diameter_two(g: &Graph) -> bool {
    if g.node_count() < 3 {
        return false;
    }
    let mut some_non_edge = false;
    for (u, v) in g.non_edges() {
        some_non_edge = true;
        if g.common_neighbor(u, v).is_none() {
            return false;
        }
    }
    // Diameter exactly 2 requires at least one non-adjacent pair
    // (complete graphs have diameter 1 — and are maximally compressible).
    some_non_edge
}

/// Report of Lemma 3 over all nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverReport {
    /// Largest dominating prefix over all nodes, if every node has one.
    pub max_prefix: Option<usize>,
    /// The Lemma 3 budget `(c+3)·log₂ n`.
    pub budget: f64,
    /// Whether every node's prefix fits the budget.
    pub holds: bool,
}

/// Checks Lemma 3 on `g` with randomness parameter `c`: from every node,
/// the `(c+3)·log₂ n` least neighbours dominate all non-neighbours. Each
/// node's shortest dominating prefix is
/// [`Relays::dominating_prefix_len`], read off one table reused from
/// node to node.
#[must_use]
pub fn check_dominating_prefix(g: &Graph, c: f64) -> CoverReport {
    let n = g.node_count();
    let budget = (c + 3.0) * (n.max(2) as f64).log2();
    let mut max_prefix = Some(0usize);
    let mut relays = Relays::new(g);
    for u in g.nodes() {
        relays.set(u);
        match (relays.dominating_prefix_len(), &mut max_prefix) {
            (Some(p), Some(m)) => *m = (*m).max(p),
            _ => {
                max_prefix = None;
                break;
            }
        }
    }
    let holds = matches!(max_prefix, Some(m) if (m as f64) <= budget);
    CoverReport { max_prefix, budget, holds }
}

/// Combined report of all three lemma checks for one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomnessReport {
    /// Lemma 1 check.
    pub degree: DegreeReport,
    /// Lemma 2 check.
    pub diameter_two: bool,
    /// Lemma 3 check.
    pub cover: CoverReport,
    /// Diameter as computed exactly (for reporting).
    pub diameter: Option<u32>,
}

impl RandomnessReport {
    /// Runs all three checks with randomness parameter `c` and Lemma 1
    /// slack 0.7 (loose enough for every `G(n, 1/2)` sample we have ever
    /// drawn, tight enough to reject constant-degree topologies whose
    /// deviation `≈ n/2` only exceeds the scale by a constant factor at
    /// small `n`).
    #[must_use]
    pub fn evaluate(g: &Graph, c: f64) -> Self {
        RandomnessReport {
            degree: check_degree_concentration(g, c, 0.7),
            diameter_two: has_diameter_two(g),
            cover: check_dominating_prefix(g, c),
            diameter: Apsp::compute(g).diameter(),
        }
    }

    /// Whether the graph passes every lemma — i.e. behaves like a
    /// Kolmogorov random graph for the purposes of Theorems 1–5.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.degree.holds && self.diameter_two && self.cover.holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn random_graphs_pass_all_lemmas() {
        for seed in 0..10u64 {
            let g = generators::gnp_half(128, seed);
            let report = RandomnessReport::evaluate(&g, 3.0);
            assert!(report.all_hold(), "seed {seed}: {report:?}");
            assert_eq!(report.diameter, Some(2));
        }
    }

    #[test]
    fn structured_graphs_fail_lemmas() {
        // A path: degrees ~2 (far from n/2), diameter n-1.
        let g = generators::path(256);
        let report = RandomnessReport::evaluate(&g, 3.0);
        assert!(!report.degree.holds);
        assert!(!report.diameter_two);
        assert!(!report.all_hold());

        // Complete graph: diameter 1, so "diameter two" fails (as the paper
        // notes, K_n is describable in O(1) bits and is not random).
        assert!(!has_diameter_two(&generators::complete(32)));

        // Star: diameter 2 *does* hold, but degrees are extreme.
        let star = generators::star(256);
        assert!(has_diameter_two(&star));
        assert!(!check_degree_concentration(&star, 3.0, 1.0).holds);
    }

    #[test]
    fn diameter_two_agrees_with_apsp() {
        for (g, _) in [
            (generators::gnp_half(40, 0), "gnp"),
            (generators::star(10), "star"),
            (generators::cycle(5), "c5"),
            (generators::cycle(6), "c6"),
            (generators::complete(5), "k5"),
            (generators::path(8), "path"),
            (generators::complete_bipartite(4, 4), "k44"),
        ] {
            let exact = Apsp::compute(&g).diameter() == Some(2);
            assert_eq!(has_diameter_two(&g), exact, "{g:?}");
        }
    }

    #[test]
    fn diameter_two_edge_cases() {
        assert!(!has_diameter_two(&Graph::empty(0)));
        assert!(!has_diameter_two(&Graph::empty(2)));
        assert!(!has_diameter_two(&Graph::empty(5))); // disconnected
    }

    fn dominating_prefix_len(g: &Graph, u: crate::NodeId) -> Option<usize> {
        let mut relays = Relays::new(g);
        relays.set(u);
        relays.dominating_prefix_len()
    }

    #[test]
    fn dominating_prefix_on_known_graphs() {
        // Star centre: no non-neighbours → prefix 0.
        let star = generators::star(8);
        assert_eq!(dominating_prefix_len(&star, 0), Some(0));
        // Star leaf: the single neighbour (the centre) dominates everything.
        assert_eq!(dominating_prefix_len(&star, 3), Some(1));
        // Path interior node: nodes at distance ≥ 3 are not dominated.
        let path = generators::path(6);
        assert_eq!(dominating_prefix_len(&path, 0), None);
        // C5: every non-neighbour of u is adjacent to a neighbour of u.
        let c5 = generators::cycle(5);
        let p = dominating_prefix_len(&c5, 0);
        assert_eq!(p, Some(2));
    }

    #[test]
    fn dominating_prefix_is_logarithmic_on_random_graphs() {
        // The actual prefix should be ~log2 n, far under the (c+3) log n
        // budget.
        let g = generators::gnp_half(256, 3);
        let report = check_dominating_prefix(&g, 3.0);
        let max = report.max_prefix.unwrap();
        assert!(max >= 2, "nontrivial");
        assert!((max as f64) <= report.budget, "{max} > {}", report.budget);
        // And specifically within ~3 log2 n even without the c-slack.
        assert!((max as f64) <= 3.0 * 8.0, "max prefix {max} too large");
    }

    #[test]
    fn degree_report_values() {
        let g = generators::complete(11);
        let rep = check_degree_concentration(&g, 0.0, 1.0);
        // K11: every degree 10, half = 5 → deviation 5.
        assert_eq!(rep.max_deviation, 5.0);
    }
}
