//! Port assignments — the "I" axis of the paper's model taxonomy.
//!
//! Edges incident to a node `v` of degree `d(v)` are attached to locally
//! numbered ports `0..d(v)` (the paper numbers them `1..d(v)`). A routing
//! function emits a *port number*; which neighbour that reaches depends on
//! the port assignment:
//!
//! * **Model IA** — the assignment is fixed by an adversary and cannot be
//!   changed ([`PortAssignment::adversarial`]).
//! * **Model IB** — the scheme designer may re-assign ports before encoding
//!   ([`PortAssignment::sorted`] is the canonical choice: port `i` leads to
//!   the `i`-th smallest neighbour, so knowing the neighbour set determines
//!   the whole map).
//! * **Model II** — nodes know their neighbours' labels and which edge
//!   reaches them, making the port map free information.
//!
//! Under a sorted assignment a neighbour's port is its rank, so
//! [`PortAssignment::port_to`] binary-searches; every assignment records
//! whether it is sorted ([`PortAssignment::is_sorted`]) when it is built.

use rand::Rng;

use crate::generators::random_permutation;
use crate::{Graph, NodeId};

/// A per-node mapping from port numbers to neighbours.
///
/// Invariant: `ports[u]` is a permutation of `g.neighbors(u)`.
///
/// Each constructor also records whether every node's order is ascending
/// ([`PortAssignment::is_sorted`]): always under
/// [`PortAssignment::sorted`], and checked by the other two. It is a fact
/// about the orders, not a setting. When it holds, a port is its
/// neighbour's rank, so [`PortAssignment::port_to`] binary-searches the
/// order instead of scanning it; an order has no repeats, so both find
/// the same port.
///
/// # Example
///
/// ```
/// use ort_graphs::{Graph, ports::PortAssignment};
///
/// # fn main() -> Result<(), ort_graphs::GraphError> {
/// let g = Graph::from_edges(3, [(0, 1), (0, 2)])?;
/// let pa = PortAssignment::sorted(&g);
/// assert_eq!(pa.neighbor_at(0, 0), Some(1));
/// assert_eq!(pa.port_to(0, 2), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortAssignment {
    ports: Vec<Vec<NodeId>>,
    /// Whether every order is ascending, worked out at construction.
    sorted: bool,
}

impl PortAssignment {
    /// The canonical assignment: port `i` of `u` leads to the `i`-th
    /// smallest neighbour of `u`. This is the assignment a model-IB scheme
    /// chooses, because it is recoverable from the neighbour set alone.
    #[must_use]
    pub fn sorted(g: &Graph) -> Self {
        let ports = g.nodes().map(|u| g.neighbors(u).to_vec()).collect();
        PortAssignment { ports, sorted: true }
    }

    /// An assignment over `ports`, recording whether every order ascends.
    fn with_orders(ports: Vec<Vec<NodeId>>) -> Self {
        let sorted = ports.iter().all(|order| order.is_sorted());
        PortAssignment { ports, sorted }
    }

    /// An adversarial assignment: each node's ports are a uniformly random
    /// permutation of its neighbours. Used for model IA lower bounds
    /// (Theorem 8): with high probability these permutations are
    /// incompressible.
    #[must_use]
    pub fn adversarial<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Self {
        let ports = g
            .nodes()
            .map(|u| {
                let nbrs = g.neighbors(u);
                let perm = random_permutation(nbrs.len(), rng);
                perm.into_iter().map(|i| nbrs[i]).collect()
            })
            .collect();
        PortAssignment::with_orders(ports)
    }

    /// Builds an assignment from explicit per-node neighbour orders.
    ///
    /// # Panics
    ///
    /// Panics if `ports[u]` is not a permutation of `g.neighbors(u)`.
    #[must_use]
    pub fn from_orders(g: &Graph, ports: Vec<Vec<NodeId>>) -> Self {
        assert_eq!(ports.len(), g.node_count(), "one port list per node");
        for u in g.nodes() {
            let mut sorted = ports[u].clone();
            sorted.sort_unstable();
            assert_eq!(sorted, g.neighbors(u), "ports of {u} must permute its neighbours");
        }
        PortAssignment::with_orders(ports)
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.ports.len()
    }

    /// Degree of `u` (number of ports).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn degree(&self, u: NodeId) -> usize {
        self.ports[u].len()
    }

    /// The neighbour reached through `port` of `u`, or `None` if the port
    /// does not exist.
    #[must_use]
    pub fn neighbor_at(&self, u: NodeId, port: usize) -> Option<NodeId> {
        self.ports.get(u)?.get(port).copied()
    }

    /// Whether every node's port order is ascending, so that port `i`
    /// leads to the `i`-th smallest neighbour (a neighbour's rank is its
    /// port).
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// The port of `u` that leads to `v`, or `None` if `v` is not a
    /// neighbour: a binary search when every order ascends, a scan
    /// otherwise.
    #[must_use]
    pub fn port_to(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let order = self.ports.get(u)?;
        if self.sorted {
            order.binary_search(&v).ok()
        } else {
            order.iter().position(|&w| w == v)
        }
    }

    /// The full port order of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn order(&self, u: NodeId) -> &[NodeId] {
        &self.ports[u]
    }

    /// Expresses `u`'s port order as a permutation *relative to the sorted
    /// order*: entry `i` is the rank (in sorted neighbour order) of the
    /// neighbour on port `i`. The identity permutation means "sorted".
    ///
    /// Theorem 8's lower bound is exactly the incompressibility of this
    /// permutation.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn relative_permutation(&self, u: NodeId) -> Vec<usize> {
        let mut sorted = self.ports[u].clone();
        sorted.sort_unstable();
        self.ports[u]
            .iter()
            .map(|&v| sorted.binary_search(&v).expect("neighbour present"))
            .collect()
    }
}

/// Number of payload bits that can be safely embedded in the port
/// permutation of a degree-`d` node: `⌊log₂ d!⌋` (every value of that many
/// bits is a valid permutation rank).
#[must_use]
pub fn stego_capacity(degree: usize) -> usize {
    ort_bitio::lehmer::factorial(degree as u64).bit_len().saturating_sub(1)
}

/// Embeds a payload into a "free" port assignment — the paper's footnote 1
/// made literal: *"the actual port assignment … can in fact be used to
/// represent `d(v)·log d(v)` bits of the routing function"*. This is
/// exactly why the paper refuses to combine model II (neighbours known for
/// free) with a free port assignment: the assignment becomes an uncharged
/// side channel of `Σ ⌊log₂ d(u)!⌋` bits.
///
/// Each node `u` absorbs the next `min(stego_capacity(d(u)), remaining)`
/// payload bits as a permutation rank. Returns the assignment and the
/// number of payload bits embedded.
///
/// # Example
///
/// ```
/// use ort_graphs::{generators, ports};
/// use ort_bitio::BitVec;
///
/// let g = generators::gnp_half(32, 1);
/// let secret = BitVec::from_bit_str("1011001110001111");
/// let (assignment, used) = ports::embed_bits(&g, &secret);
/// assert_eq!(used, 16); // plenty of capacity at degree ~16
/// assert_eq!(ports::extract_bits(&g, &assignment, used), secret);
/// ```
#[must_use]
pub fn embed_bits(g: &Graph, payload: &ort_bitio::BitVec) -> (PortAssignment, usize) {
    let mut orders = Vec::with_capacity(g.node_count());
    let mut pos = 0usize;
    for u in g.nodes() {
        let nbrs = g.neighbors(u);
        let d = nbrs.len();
        let take = stego_capacity(d).min(payload.len() - pos);
        let mut rank = ort_bitio::Nat::zero();
        for i in 0..take {
            rank = rank.add(&rank);
            if payload.get(pos + i) == Some(true) {
                rank.add_assign(&ort_bitio::Nat::one());
            }
        }
        pos += take;
        let perm =
            ort_bitio::lehmer::permutation_unrank(d, &rank).expect("rank < 2^⌊log d!⌋ ≤ d!");
        orders.push(perm.into_iter().map(|i| nbrs[i]).collect::<Vec<_>>());
    }
    (PortAssignment::from_orders(g, orders), pos)
}

/// Recovers `bits` payload bits embedded by [`embed_bits`]. Needs the
/// graph (for the sorted-neighbour baseline each permutation is measured
/// against) and the embedded bit count.
///
/// # Panics
///
/// Panics if `bits` exceeds the total capacity of the assignment.
#[must_use]
pub fn extract_bits(g: &Graph, pa: &PortAssignment, bits: usize) -> ort_bitio::BitVec {
    let mut out = ort_bitio::BitVec::with_capacity(bits);
    for u in g.nodes() {
        if out.len() == bits {
            break;
        }
        let rel = pa.relative_permutation(u);
        let take = stego_capacity(rel.len()).min(bits - out.len());
        let rank = ort_bitio::lehmer::permutation_rank(&rel).expect("valid permutation");
        let encoded = rank.to_bitvec(take).expect("rank fits the width it was built from");
        out.extend_from(&encoded);
    }
    assert_eq!(out.len(), bits, "assignment capacity exhausted before {bits} bits");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stego_capacity_values() {
        assert_eq!(stego_capacity(0), 0);
        assert_eq!(stego_capacity(1), 0);
        assert_eq!(stego_capacity(2), 1); // 2! = 2 → 1 bit
        assert_eq!(stego_capacity(3), 2); // 3! = 6 → 2 bits
        assert_eq!(stego_capacity(4), 4); // 4! = 24 → 4 bits
        // ⌊log₂ 16!⌋ = 44.
        assert_eq!(stego_capacity(16), 44);
    }

    #[test]
    fn stego_roundtrip_long_payload() {
        let g = generators::gnp_half(24, 8);
        let capacity: usize = g.nodes().map(|u| stego_capacity(g.degree(u))).sum();
        // Fill most of the capacity with a pseudo-random payload.
        let payload: ort_bitio::BitVec =
            (0..capacity - 3).map(|i| (i * 2654435761usize) % 7 < 3).collect();
        let (pa, used) = embed_bits(&g, &payload);
        assert_eq!(used, payload.len());
        let back = extract_bits(&g, &pa, used);
        assert_eq!(back, payload);
    }

    #[test]
    fn stego_capacity_matches_footnote_scale() {
        // Footnote 1: ~d log d bits per node. On G(n,1/2) that is
        // Θ(n log n) per node, Θ(n² log n) total — as much as the whole
        // routing scheme, which is why the model combination is banned.
        let n = 128;
        let g = generators::gnp_half(n, 3);
        let total: usize = g.nodes().map(|u| stego_capacity(g.degree(u))).sum();
        let scale = (n * n) as f64 * (n as f64).log2();
        assert!(
            (total as f64) > 0.2 * scale,
            "capacity {total} vs n² log n = {scale}"
        );
    }

    #[test]
    fn empty_payload_gives_sorted_assignment() {
        let g = generators::gnp_half(12, 1);
        let (pa, used) = embed_bits(&g, &ort_bitio::BitVec::new());
        assert_eq!(used, 0);
        assert_eq!(pa, PortAssignment::sorted(&g));
        assert!(pa.is_sorted(), "from_orders finds sorted orders sorted");
    }

    #[test]
    fn sorted_assignment_is_identity_permutation() {
        let g = generators::gnp_half(20, 1);
        let pa = PortAssignment::sorted(&g);
        assert!(pa.is_sorted());
        for u in g.nodes() {
            assert_eq!(pa.order(u), g.neighbors(u));
            let rel = pa.relative_permutation(u);
            assert_eq!(rel, (0..g.degree(u)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn adversarial_assignment_permutes_neighbors() {
        let g = generators::gnp_half(30, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let pa = PortAssignment::adversarial(&g, &mut rng);
        for u in g.nodes() {
            let mut order = pa.order(u).to_vec();
            order.sort_unstable();
            assert_eq!(order, g.neighbors(u), "node {u}");
        }
        // Some node's order differs from sorted (overwhelmingly likely).
        assert!(g.nodes().any(|u| pa.order(u) != g.neighbors(u)));
        assert!(!pa.is_sorted());
    }

    #[test]
    fn port_lookups_are_inverse() {
        let g = generators::gnp_half(25, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let pa = PortAssignment::adversarial(&g, &mut rng);
        for u in g.nodes() {
            for p in 0..pa.degree(u) {
                let v = pa.neighbor_at(u, p).unwrap();
                assert_eq!(pa.port_to(u, v), Some(p));
            }
            assert_eq!(pa.neighbor_at(u, pa.degree(u)), None);
        }
        assert_eq!(pa.port_to(0, 0), None, "self is not a neighbour");
    }

    #[test]
    fn relative_permutation_roundtrip() {
        let g = generators::gnp_half(15, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let pa = PortAssignment::adversarial(&g, &mut rng);
        for u in g.nodes() {
            let rel = pa.relative_permutation(u);
            ort_bitio::lehmer::validate_permutation(&rel).unwrap();
            // Reconstruct the order from the relative permutation.
            let nbrs = g.neighbors(u);
            let rebuilt: Vec<_> = rel.iter().map(|&i| nbrs[i]).collect();
            assert_eq!(rebuilt, pa.order(u));
        }
    }

    #[test]
    #[should_panic(expected = "permute")]
    fn from_orders_validates() {
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let _ = PortAssignment::from_orders(&g, vec![vec![1, 1], vec![0], vec![0]]);
    }

    #[test]
    fn from_orders_accepts_valid() {
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let pa = PortAssignment::from_orders(&g, vec![vec![2, 1], vec![0], vec![0]]);
        assert_eq!(pa.neighbor_at(0, 0), Some(2));
        assert_eq!(pa.relative_permutation(0), vec![1, 0]);
        assert!(!pa.is_sorted());
        assert_eq!(pa.port_to(0, 1), Some(1));
    }
}
