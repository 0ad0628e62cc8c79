//! Bit accounting: where every charged bit of a scheme lives.
//!
//! The paper's results are statements about bit *totals* — Θ(n²) for the
//! worst case (Theorem 6), `O(n log² n)` on random graphs (Theorem 1),
//! `⌈log d!⌉` unavoidable port-permutation bits in IA ∧ α (Theorem 8).
//! [`BitBreakdown`] decomposes a built scheme's charge along exactly those
//! lines, per node and in total:
//!
//! * **routing bits** — stored routing-function bits minus the port
//!   permutation ([`RoutingScheme::port_permutation_bits`]);
//! * **port-permutation bits** — the Lehmer-code share (nonzero only for
//!   schemes that store one, e.g. the IA ∧ α compact scheme);
//! * **label bits** — charged label bits, nonzero only in model γ.
//!
//! The decomposition is exact by construction:
//! `routing + permutation + label = ` [`RoutingScheme::total_size_bits`].
//! The regression gate (`ort report`) re-measures and compares these numbers
//! *exactly* across runs — any drift is a correctness bug in a scheme's
//! encoder, never measurement noise.

use crate::scheme::RoutingScheme;

/// Per-node share of a scheme's charged bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBits {
    /// Routing-function bits excluding the port permutation.
    pub routing: usize,
    /// Port-permutation (Lehmer code) bits.
    pub port_permutation: usize,
    /// Charged label bits (model γ only).
    pub label: usize,
}

impl NodeBits {
    /// Everything charged at this node.
    #[must_use]
    pub fn total(&self) -> usize {
        self.routing + self.port_permutation + self.label
    }
}

/// The full bit decomposition of one built scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitBreakdown {
    /// Per-node shares, indexed by node id.
    pub nodes: Vec<NodeBits>,
}

impl BitBreakdown {
    /// Decomposes `scheme`'s charge. The shares always reconcile:
    /// `total() == scheme.total_size_bits()`.
    #[must_use]
    pub fn of(scheme: &dyn RoutingScheme) -> BitBreakdown {
        let _span = ort_telemetry::span("accounting.breakdown");
        let mut bits_h = ort_telemetry::LocalHist::new();
        let nodes: Vec<NodeBits> = (0..scheme.node_count())
            .map(|u| {
                let stored = scheme.node_size_bits(u);
                let perm = scheme.port_permutation_bits(u);
                debug_assert!(
                    perm <= stored,
                    "node {u}: permutation bits {perm} exceed stored bits {stored}"
                );
                let nb = NodeBits {
                    routing: stored.saturating_sub(perm),
                    port_permutation: perm,
                    label: scheme.charged_size_bits(u) - stored,
                };
                bits_h.record(nb.total() as u64);
                nb
            })
            .collect();
        // The paper's Table 1 quantities are *distributions* of per-node
        // bits; publish them as one (node-ordered, hence deterministic).
        bits_h.merge_into(ort_telemetry::hist!("accounting.bits_per_node"));
        BitBreakdown { nodes }
    }

    /// Sum of the routing shares.
    #[must_use]
    pub fn routing_bits(&self) -> usize {
        self.nodes.iter().map(|b| b.routing).sum()
    }

    /// Sum of the port-permutation shares.
    #[must_use]
    pub fn port_permutation_bits(&self) -> usize {
        self.nodes.iter().map(|b| b.port_permutation).sum()
    }

    /// Sum of the label shares.
    #[must_use]
    pub fn label_bits(&self) -> usize {
        self.nodes.iter().map(|b| b.label).sum()
    }

    /// Everything charged — equals the scheme's `total_size_bits()`.
    #[must_use]
    pub fn total(&self) -> usize {
        self.nodes.iter().map(NodeBits::total).sum()
    }

    /// The largest per-node total (the paper's "bits per node" quantities
    /// are worst-case over nodes).
    #[must_use]
    pub fn max_node_bits(&self) -> usize {
        self.nodes.iter().map(NodeBits::total).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::full_table::FullTableScheme;
    use crate::schemes::ia_compact::IaCompactScheme;
    use crate::schemes::resilient::ResilientScheme;
    use crate::schemes::theorem1::Theorem1Scheme;
    use crate::schemes::theorem2::Theorem2Scheme;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;
    use ort_graphs::ports::PortAssignment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reconciles(scheme: &dyn RoutingScheme) -> BitBreakdown {
        let b = BitBreakdown::of(scheme);
        assert_eq!(b.total(), scheme.total_size_bits(), "breakdown must reconcile exactly");
        assert_eq!(b.nodes.len(), scheme.node_count());
        b
    }

    #[test]
    fn plain_schemes_have_no_permutation_or_label_bits() {
        let g = generators::gnp_half(32, 4);
        let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let b = reconciles(&scheme);
        assert_eq!(b.port_permutation_bits(), 0);
        assert_eq!(b.label_bits(), 0);
        assert_eq!(b.routing_bits(), scheme.total_size_bits());
    }

    #[test]
    fn ia_compact_charges_lehmer_bits() {
        let g = generators::gnp_half(32, 4);
        let mut rng = StdRng::seed_from_u64(11);
        let ports = PortAssignment::adversarial(&g, &mut rng);
        let scheme = IaCompactScheme::build(&g, ports, &Apsp::compute(&g)).unwrap();
        let b = reconciles(&scheme);
        let expect: usize =
            (0..32).map(|u| ort_bitio::lehmer::permutation_code_width(g.degree(u))).sum();
        assert_eq!(b.port_permutation_bits(), expect);
        assert!(b.routing_bits() > 0);
        // Wrapping in the resilience layer must not change the accounting.
        let wrapped = ResilientScheme::wrap(Box::new(scheme));
        assert_eq!(reconciles(&wrapped), b);
    }

    #[test]
    fn gamma_model_charges_labels() {
        let g = generators::gnp_half(32, 2);
        let scheme = Theorem2Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let b = reconciles(&scheme);
        assert!(scheme.model().charges_labels());
        assert!(b.label_bits() > 0, "model γ label bits must be charged");
        assert_eq!(b.label_bits() + b.routing_bits(), b.total());
    }

    #[test]
    fn full_table_is_pure_routing_bits() {
        let g = generators::cycle(8);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let b = reconciles(&scheme);
        assert_eq!(b.routing_bits(), b.total());
        assert!(b.max_node_bits() >= b.total() / 8);
    }
}
