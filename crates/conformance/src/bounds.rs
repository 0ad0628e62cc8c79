//! Machine-checked Table 1 / Theorem 1–5 bounds.
//!
//! The paper's space/stretch claims hold on Kolmogorov-random graphs.
//! This module makes them executable: instances are drawn as seeded
//! `G(n, 1/2)` samples, *certified* operationally random through the
//! compressor-suite deficiency estimator
//! ([`ort_kolmogorov::deficiency::CompressorSuite`]), and each claim is
//! then asserted as a literal inequality against the formulas in
//! [`ort_routing::bounds`] — the same expressions the benches print.

use ort_graphs::paths::Apsp;
use ort_graphs::{generators, Graph};
use ort_kolmogorov::deficiency::CompressorSuite;
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::theorem5::DEFAULT_C;
use ort_routing::schemes::{
    full_table::FullTableScheme, theorem1::Theorem1Scheme, theorem2::Theorem2Scheme,
    theorem3::Theorem3Scheme, theorem4::Theorem4Scheme, theorem5::Theorem5Scheme,
};
use ort_routing::{bounds as formulas, verify::{self, VerifyReport}};

/// One checked inequality.
#[derive(Debug, Clone)]
pub struct BoundCheck {
    /// Which claim (e.g. `"thm1.per_node_bits"`).
    pub id: &'static str,
    /// Instance size.
    pub n: usize,
    /// Instance seed.
    pub seed: u64,
    /// The measured quantity.
    pub observed: f64,
    /// The bound it must stay within.
    pub allowed: f64,
    /// `observed ≤ allowed`.
    pub holds: bool,
}

impl BoundCheck {
    fn new(id: &'static str, n: usize, seed: u64, observed: f64, allowed: f64) -> Self {
        BoundCheck { id, n, seed, observed, allowed, holds: observed <= allowed }
    }
}

/// Outcome for one instance: either the instance failed the randomness
/// certificate (skipped — the theorems promise nothing there) or the full
/// list of checks.
#[derive(Debug, Clone)]
pub struct InstanceBounds {
    /// Instance size.
    pub n: usize,
    /// Instance seed.
    pub seed: u64,
    /// Measured randomness deficiency (bits).
    pub deficiency: i64,
    /// The deficiency budget `c·log n + O(1)` the instance had to meet.
    pub deficiency_budget: i64,
    /// Whether the instance was certified random (checks run only then).
    pub certified: bool,
    /// The checks.
    pub checks: Vec<BoundCheck>,
}

impl InstanceBounds {
    /// Whether every executed check holds.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }
}

/// The deficiency budget for certification: `c·log₂ n` plus the
/// compressor suite's own overhead margin. Our computable estimator upper-
/// bounds `C(E(G)|n)` with real codecs, so a modest constant slack keeps
/// genuinely uniform samples inside while structured graphs (whose
/// deficiency is Θ(n²) or Θ(n² log n)) stay far outside.
#[must_use]
pub fn deficiency_budget(n: usize, c: f64) -> i64 {
    (c * (n.max(2) as f64).log2()).ceil() as i64 + 64
}

/// Draws `G(n, 1/2)` from `seed`, certifies randomness, and runs every
/// Table 1 / Theorem 1–5 check.
#[must_use]
pub fn check_instance(n: usize, seed: u64) -> InstanceBounds {
    let g = generators::gnp_half(n, seed);
    check_graph(&g, n, seed)
}

/// As [`check_instance`] but on a caller-supplied graph (the tests feed
/// structured graphs through to watch certification reject them).
#[must_use]
pub fn check_graph(g: &Graph, n: usize, seed: u64) -> InstanceBounds {
    let suite = CompressorSuite::standard();
    let deficiency = suite.graph_deficiency(g);
    let budget = deficiency_budget(n, DEFAULT_C);
    let mut out = InstanceBounds {
        n,
        seed,
        deficiency,
        deficiency_budget: budget,
        certified: deficiency <= budget,
        checks: Vec::new(),
    };
    if !out.certified {
        return out;
    }
    let oracle = Apsp::compute(g);
    let nf = n as f64;
    let verify = |scheme: &dyn RoutingScheme| -> Option<VerifyReport> {
        verify::verify(g, scheme, &oracle, 1).ok()
    };

    // Theorem 1 (IB ∨ II): ≤ 3n bits/node with the refined cut-off (the
    // default build), 6n²/n² total either way, at stretch exactly 1. The
    // IB variant prepends the n−1-bit interconnection vector, hence +n.
    if let Ok(s) = Theorem1Scheme::build(g, &oracle) {
        let max_node = (0..n).map(|u| s.node_size_bits(u)).max().unwrap_or(0) as f64;
        out.checks.push(BoundCheck::new(
            "thm1.per_node_bits",
            n,
            seed,
            max_node,
            formulas::theorem1_per_node_refined(n),
        ));
        out.checks.push(BoundCheck::new(
            "thm1.total_bits",
            n,
            seed,
            s.total_size_bits() as f64,
            formulas::theorem1_total(n),
        ));
        if let Some(r) = verify(&s) {
            out.checks.push(BoundCheck::new(
                "thm1.stretch",
                n,
                seed,
                r.max_stretch().unwrap_or(f64::INFINITY),
                1.0,
            ));
        }
    }
    if let Ok(s) = Theorem1Scheme::build_ib(g, &oracle) {
        let max_node = (0..n).map(|u| s.node_size_bits(u)).max().unwrap_or(0) as f64;
        out.checks.push(BoundCheck::new(
            "thm1ib.per_node_bits",
            n,
            seed,
            max_node,
            formulas::theorem1_per_node_refined(n) + nf,
        ));
    }

    // Theorem 2 (II ∧ γ): O(n log² n) total, stretch 1.
    if let Ok(s) = Theorem2Scheme::build(g, &oracle) {
        out.checks.push(BoundCheck::new(
            "thm2.total_bits",
            n,
            seed,
            s.total_size_bits() as f64,
            formulas::theorem2_total(n, DEFAULT_C),
        ));
        if let Some(r) = verify(&s) {
            out.checks.push(BoundCheck::new(
                "thm2.stretch",
                n,
                seed,
                r.max_stretch().unwrap_or(f64::INFINITY),
                1.0,
            ));
        }
    }

    // Theorem 3 (II): O(n log n) total at stretch ≤ 1.5.
    if let Ok(s) = Theorem3Scheme::build(g, &oracle) {
        out.checks.push(BoundCheck::new(
            "thm3.total_bits",
            n,
            seed,
            s.total_size_bits() as f64,
            formulas::theorem3_total(n, DEFAULT_C),
        ));
        if let Some(r) = verify(&s) {
            out.checks.push(BoundCheck::new(
                "thm3.stretch",
                n,
                seed,
                r.max_stretch().unwrap_or(f64::INFINITY),
                1.5,
            ));
        }
    }

    // Theorem 4 (II): n·log log n + 6n total at stretch ≤ 2.
    if let Ok(s) = Theorem4Scheme::build(g, &oracle) {
        out.checks.push(BoundCheck::new(
            "thm4.total_bits",
            n,
            seed,
            s.total_size_bits() as f64,
            formulas::theorem4_total(n),
        ));
        if let Some(r) = verify(&s) {
            out.checks.push(BoundCheck::new(
                "thm4.stretch",
                n,
                seed,
                r.max_stretch().unwrap_or(f64::INFINITY),
                2.0,
            ));
        }
    }

    // Theorem 5 (II): zero stored bits; any route uses at most
    // 2(c+3)·log n edges.
    if let Ok(s) = Theorem5Scheme::build(g, &oracle) {
        out.checks.push(BoundCheck::new(
            "thm5.total_bits",
            n,
            seed,
            s.total_size_bits() as f64,
            0.0,
        ));
        if let Some(r) = verify(&s) {
            let worst_hops =
                r.stretches.iter().map(|&(h, _)| h).max().unwrap_or(0) as f64;
            out.checks.push(BoundCheck::new(
                "thm5.max_route_edges",
                n,
                seed,
                worst_hops,
                formulas::theorem5_max_edges(n, DEFAULT_C),
            ));
            out.checks.push(BoundCheck::new(
                "thm5.all_delivered",
                n,
                seed,
                r.failures.len() as f64,
                0.0,
            ));
        }
    }

    // The trivial baseline stays within its n² log n shape (2× slack for
    // the explicit per-entry port-width rounding).
    if let Ok(s) = FullTableScheme::build(g, &oracle) {
        out.checks.push(BoundCheck::new(
            "full_table.total_bits",
            n,
            seed,
            s.total_size_bits() as f64,
            2.0 * formulas::full_table_total(n),
        ));
    }
    out
}

/// Runs the suite over a seed sweep at each size.
#[must_use]
pub fn sweep(sizes: &[usize], seeds: &[u64]) -> Vec<InstanceBounds> {
    let mut out = Vec::new();
    for &n in sizes {
        for &seed in seeds {
            out.push(check_instance(n, seed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_instances_certify_and_hold() {
        for seed in [1u64, 2, 3] {
            let inst = check_instance(64, seed);
            assert!(inst.certified, "seed {seed}: deficiency {}", inst.deficiency);
            assert!(!inst.checks.is_empty(), "seed {seed}: no scheme accepted the instance");
            for c in &inst.checks {
                assert!(c.holds, "seed {seed}: {} observed {} > allowed {}", c.id, c.observed, c.allowed);
            }
        }
    }

    #[test]
    fn structured_graphs_fail_certification() {
        let n = 64;
        for g in [generators::path(n), generators::complete(n), generators::star(n)] {
            let inst = check_graph(&g, n, 0);
            assert!(!inst.certified, "deficiency {} within budget {}", inst.deficiency, inst.deficiency_budget);
            assert!(inst.checks.is_empty());
        }
    }

    #[test]
    fn budget_grows_logarithmically() {
        assert!(deficiency_budget(1024, 3.0) > deficiency_budget(64, 3.0));
        assert!(deficiency_budget(64, 3.0) < 100);
    }
}
