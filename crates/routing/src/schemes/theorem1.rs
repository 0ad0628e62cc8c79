//! The Theorem 1 scheme: shortest-path routing in ≤ 6n bits per node.
//!
//! On a diameter-2 graph every non-neighbour `w` of `u` is reachable via a
//! common neighbour; on a *random* graph the **least** common neighbour of
//! `u` and `w` sits, with overwhelming probability, within the first few
//! neighbours of `u` (Claim 1: each successive least neighbour covers ≥ 1/3
//! of the remaining destinations). The construction exploits this with two
//! tables:
//!
//! 1. **Unary table** — one entry per non-neighbour `w`, in increasing
//!    order: the *rank* (within `u`'s sorted neighbour list) of the least
//!    common neighbour, in unary (`1^t 0`), as long as that rank is at most
//!    a cut-off `l`; a lone `0` otherwise. Geometric decay of ranks keeps
//!    this under `4n` bits.
//! 2. **Binary table** — for the few remaining destinations (fewer than
//!    `n / log n` after the cut-off), an explicit `⌈log d⌉`-bit neighbour
//!    rank, under `2n` bits total.
//!
//! Model II reads neighbour ranks from the free neighbour knowledge; the
//! model IB variant prepends the `n−1`-bit interconnection vector and uses
//! sorted ports (the paper's "the i-th neighbour is connected to the i-th
//! port").

use ort_bitio::{bits_to_index, BitReader, BitVec, BitWriter};
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::Distances;
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId, Relays};

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};

/// When to stop the unary table and spill into the binary table — the
/// central design choice of the Theorem 1 construction, exposed for
/// ablation (see the `ablation_theorem1` experiment binary).
///
/// The paper's proof uses `n / log log n` (giving the 6n-bits-per-node
/// statement) and remarks that "slightly more precise counting and
/// choosing l such that `m_l` is the first such quantity `< n/log n` shows
/// `|F(u)| ≤ 3n`" — which is the default here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutoffPolicy {
    /// Spill once at most `n / log₂ n` destinations remain (the paper's
    /// refined 3n-per-node choice; default).
    #[default]
    NOverLog,
    /// Spill once at most `n / log₂ log₂ n` destinations remain (the
    /// paper's original 6n analysis).
    NOverLogLog,
    /// Never spill: code every rank in unary (no binary table). Degrades
    /// towards long unary runs for unlucky destinations.
    UnaryOnly,
    /// Spill everything: one `⌈log d⌉`-bit entry per destination (the
    /// "array of neighbour indices" strawman, ≈ n log n bits per node).
    BinaryOnly,
    /// A fixed spill threshold, for fine-grained sweeps.
    Fixed(usize),
}

impl CutoffPolicy {
    fn threshold(self, n: usize) -> usize {
        let log = (n.max(4) as f64).log2();
        match self {
            CutoffPolicy::NOverLog => ((n as f64) / log).ceil() as usize,
            CutoffPolicy::NOverLogLog => ((n as f64) / log.log2().max(1.0)).ceil() as usize,
            CutoffPolicy::UnaryOnly => 0,
            CutoffPolicy::BinaryOnly => usize::MAX,
            CutoffPolicy::Fixed(t) => t,
        }
    }
}

/// The binary table's entry width: indices point into the `(c+3)·log n`
/// candidate prefix of Lemma 3 (c = 3), i.e. `log log n + O(1)` bits —
/// "the code of length log log n + O(1) for the position … of a node out
/// of v₁…v_m with m = O(log n)". Both encoder and router derive it from
/// `n` and the degree alone.
pub(crate) fn candidate_bound(n: usize, degree: usize) -> usize {
    let k = (6.0 * (n.max(4) as f64).log2()).ceil() as usize;
    k.min(degree)
}

/// Which knowledge variant the instance was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Model II: neighbours known for free; bits hold only the two tables.
    NeighborsKnown,
    /// Model IB: sorted ports; bits prepend the interconnection vector.
    PortsFree,
}

/// The Theorem 1 compact shortest-path scheme.
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::theorem1::Theorem1Scheme;
/// use ort_routing::scheme::RoutingScheme;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_half(64, 0);
/// let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g))?;
/// assert!(scheme.total_size_bits() <= 6 * 64 * 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Theorem1Scheme {
    variant: Variant,
    tables: Tables,
}

impl Theorem1Scheme {
    /// Builds the model II (neighbours known) instance. The construction
    /// is pure adjacency: `dists` (which must be exact) contributes only
    /// its connectivity bit, read off row 0 — one band with a
    /// [`ort_graphs::oracle::BandedOracle`].
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Precondition`] if some non-adjacent pair has
    /// no common neighbour (the construction needs diameter ≤ 2, which
    /// Lemma 2 guarantees on random graphs) or the oracle's node count
    /// does not match `g`, [`SchemeError::ApproximateOracle`] for inexact
    /// oracles, or [`SchemeError::Disconnected`].
    pub fn build(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        Self::build_full(g, dists, Variant::NeighborsKnown, CutoffPolicy::NOverLog)
    }

    /// Builds the model IB (free ports, neighbours unknown) instance: the
    /// interconnection vector is stored explicitly (`n − 1` extra bits per
    /// node) and ports are assigned sorted-by-neighbour.
    ///
    /// # Errors
    ///
    /// As [`Theorem1Scheme::build`].
    pub fn build_ib(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        Self::build_full(g, dists, Variant::PortsFree, CutoffPolicy::NOverLog)
    }

    /// Builds the model II instance with an explicit table cut-off policy —
    /// the ablation knob for the paper's two-table design (see
    /// [`CutoffPolicy`]).
    ///
    /// # Errors
    ///
    /// As [`Theorem1Scheme::build`].
    pub fn build_with_cutoff(
        g: &Graph,
        dists: &dyn Distances,
        cutoff: CutoffPolicy,
    ) -> Result<Self, SchemeError> {
        Self::build_full(g, dists, Variant::NeighborsKnown, cutoff)
    }

    fn build_full(
        g: &Graph,
        dists: &dyn Distances,
        variant: Variant,
        cutoff: CutoffPolicy,
    ) -> Result<Self, SchemeError> {
        let n = g.node_count();
        let _span = ort_telemetry::span_with(
            "theorem1.build",
            &[("n", ort_telemetry::FieldValue::Int(n as u64))],
        );
        if n < 2 {
            return Err(SchemeError::Precondition { reason: "need at least 2 nodes".into() });
        }
        {
            let _s = ort_telemetry::span("theorem1.connectivity");
            crate::schemes::check_exact_oracle(g, dists)?;
        }
        let mut bits = Vec::with_capacity(n);
        {
            let _s = ort_telemetry::span("theorem1.encode_tables");
            let mut relays = Relays::new(g);
            for u in 0..n {
                bits.push(Self::encode_node(&mut relays, u, variant, cutoff)?);
            }
        }
        let _s = ort_telemetry::span("theorem1.port_assignment");
        let tables =
            Tables { bits, labeling: Labeling::identity(n), ports: PortAssignment::sorted(g) };
        Ok(Theorem1Scheme { variant, tables })
    }

    /// Reassembles a scheme from snapshot parts (`crate::snapshot`).
    pub(crate) fn from_parts(ib: bool, tables: Tables) -> Self {
        let variant = if ib { Variant::PortsFree } else { Variant::NeighborsKnown };
        Theorem1Scheme { variant, tables }
    }

    /// Replaces node `u`'s stored bits verbatim — a fault-injection hook
    /// for corrupted-table robustness experiments. Routing through `u`
    /// afterwards may fail (with a clean [`crate::scheme::RouteError`]) or
    /// misroute; it must never panic.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn replace_node_bits(&mut self, u: NodeId, bits: BitVec) {
        self.tables.bits[u] = bits;
    }

    /// Encodes just the two tables (the model II payload) for node `u` —
    /// used directly by the Theorem 3/4 routing centres and IA-compact,
    /// which sweep nodes with one [`Relays`] table over their graph.
    pub(crate) fn encode_node_tables(
        relays: &mut Relays<'_>,
        u: NodeId,
    ) -> Result<BitVec, SchemeError> {
        Self::encode_node(relays, u, Variant::NeighborsKnown, CutoffPolicy::NOverLog)
    }

    fn encode_node(
        relays: &mut Relays<'_>,
        u: NodeId,
        variant: Variant,
        cutoff: CutoffPolicy,
    ) -> Result<BitVec, SchemeError> {
        let g = relays.graph();
        let n = g.node_count();
        let d = g.degree(u);
        let mut w = BitWriter::new();
        if variant == Variant::PortsFree {
            g.write_interconnection(u, &mut w);
        }
        // Rank (1-based) of the least common neighbour for every
        // non-neighbour, in increasing destination order.
        relays.set(u);
        let mut ranks = Vec::with_capacity(n - 1 - d);
        for (x, relay) in relays.non_neighbors() {
            let rank = relay.ok_or_else(|| SchemeError::Precondition {
                reason: format!("nodes {u} and {x} have no common neighbour (diameter > 2)"),
            })?;
            ranks.push(rank + 1);
        }
        // Cut-off l: the smallest rank bound leaving at most `threshold`
        // destinations for the binary table.
        let threshold = cutoff.threshold(n);
        let max_rank = ranks.iter().copied().max().unwrap_or(0);
        let mut l = 0;
        for t in 0..=max_rank {
            if ranks.iter().filter(|&&r| r > t).count() <= threshold {
                l = t;
                break;
            }
        }
        // Table 1: unary ranks up to l, else a lone 0.
        for &r in &ranks {
            if r <= l {
                w.write_unary(r as u64)?;
            } else {
                w.write_unary(0)?;
            }
        }
        // Table 2: explicit candidate-prefix indices for the leftovers, at
        // log log n + O(1) bits each (Lemma 3 keeps every least common
        // neighbour inside the (c+3)·log n prefix on random graphs).
        let bound = candidate_bound(n, d);
        let width = bits_to_index(bound as u64);
        for &r in &ranks {
            if r > l {
                if r > bound {
                    return Err(SchemeError::Precondition {
                        reason: format!(
                            "node {u}: a least common neighbour has rank {r} > the \
                             Lemma 3 candidate bound {bound}"
                        ),
                    });
                }
                w.write_bits((r - 1) as u64, width)?;
            }
        }
        Ok(w.finish())
    }
}

impl RoutingScheme for Theorem1Scheme {
    fn model(&self) -> Model {
        let knowledge = match self.variant {
            Variant::NeighborsKnown => Knowledge::NeighborsKnown,
            Variant::PortsFree => Knowledge::PortsFree,
        };
        Model::new(knowledge, Relabeling::None)
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
        if dest_l >= env.n {
            return Err(RouteError::UnknownDestination);
        }
        // The sorted neighbour ids and the bit offset where the tables
        // start: free knowledge in model II, the stored interconnection
        // vector in model IB.
        let (nbrs, tables_at) = match self.variant {
            Variant::NeighborsKnown => (env.sorted_minimal_neighbors()?, 0),
            Variant::PortsFree => {
                let mut r = BitReader::new(bits);
                let mut ids = Vec::new();
                for x in 0..env.n {
                    if x == own {
                        continue;
                    }
                    if r.read_bit()? {
                        ids.push(x);
                    }
                }
                (ids, env.n - 1)
            }
        };
        route_with_tables(bits, tables_at, env.n, &nbrs, own, dest_l)
    }
}

/// Routes `dest` using a Theorem 1 table pair stored in `bits` starting at
/// bit `offset`, given the sorted neighbour ids of the current node `own`.
/// Shared by the Theorem 1 router and the "routing centre" nodes of the
/// Theorem 3 and 4 schemes (which embed the same tables behind a tag).
pub(crate) fn route_with_tables(
    bits: &BitVec,
    offset: usize,
    n: usize,
    nbrs: &[NodeId],
    own: NodeId,
    dest: NodeId,
) -> Result<RouteDecision, RouteError> {
    if dest == own {
        return Ok(RouteDecision::Deliver);
    }
    // Direct neighbours are routed without the table; ports are sorted by
    // neighbour id, so the rank is the port.
    if let Ok(port) = nbrs.binary_search(&dest) {
        return Ok(RouteDecision::Forward(port));
    }
    // Position of dest among the non-neighbours (ascending ids).
    let below_nbrs = nbrs.partition_point(|&v| v < dest);
    let pos = dest - below_nbrs - usize::from(own < dest);
    // Parse table 1 up to entry `pos`, counting the zero-entries that spill
    // into table 2.
    let mut r = BitReader::new(bits);
    r.seek(offset)?;
    let mut zeros_before = 0usize;
    let mut entry = 0u64;
    for i in 0..=pos {
        entry = r.read_unary()?;
        if entry == 0 && i < pos {
            zeros_before += 1;
        }
    }
    let rank = if entry > 0 {
        entry as usize - 1
    } else {
        // Skip the rest of table 1, then index into table 2.
        let non_nbr_count = n - 1 - nbrs.len();
        for _ in pos + 1..non_nbr_count {
            r.read_unary()?;
        }
        let width = bits_to_index(candidate_bound(n, nbrs.len()) as u64);
        r.seek(r.position() + zeros_before * width as usize)?;
        r.read_bits(width)? as usize
    };
    if rank >= nbrs.len() {
        return Err(RouteError::PortOutOfRange { port: rank, degree: nbrs.len() });
    }
    Ok(RouteDecision::Forward(rank))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn shortest_path_on_random_graphs() {
        for seed in 0..6u64 {
            let g = generators::gnp_half(40, seed);
            let dists = Apsp::compute(&g);
            let scheme = Theorem1Scheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered(), "seed {seed}: {:?}", report.failures.first());
            assert!(report.is_shortest_path(), "seed {seed}");
        }
    }

    #[test]
    fn ib_variant_shortest_path() {
        for seed in 0..4u64 {
            let g = generators::gnp_half(32, seed);
            let dists = Apsp::compute(&g);
            let scheme = Theorem1Scheme::build_ib(&g, &dists).unwrap();
            assert_eq!(scheme.model().to_string(), "IB∧α");
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.is_shortest_path(), "seed {seed}");
        }
    }

    #[test]
    fn size_is_at_most_6n_bits_per_node() {
        for n in [64usize, 128, 256] {
            let g = generators::gnp_half(n, 42);
            let dists = Apsp::compute(&g);
            let scheme = Theorem1Scheme::build(&g, &dists).unwrap();
            for u in 0..n {
                assert!(
                    scheme.node_size_bits(u) <= 6 * n,
                    "n={n} node {u}: {} bits",
                    scheme.node_size_bits(u)
                );
            }
            assert!(scheme.total_size_bits() <= 6 * n * n);
            // IB pays the extra n-1 bits per node.
            let ib = Theorem1Scheme::build_ib(&g, &dists).unwrap();
            for u in 0..n {
                assert_eq!(ib.node_size_bits(u), scheme.node_size_bits(u) + n - 1);
            }
        }
    }

    #[test]
    fn much_smaller_than_full_table() {
        let n = 128;
        let g = generators::gnp_half(n, 7);
        let dists = Apsp::compute(&g);
        let t1 = Theorem1Scheme::build(&g, &dists).unwrap();
        let ft = crate::schemes::full_table::FullTableScheme::build(&g, &dists).unwrap();
        // Full table is Θ(n² log n); Theorem 1 is Θ(n²). At n=128 the gap
        // must already exceed 2.5×.
        assert!(ft.total_size_bits() as f64 > 2.5 * t1.total_size_bits() as f64);
    }

    #[test]
    fn works_on_non_random_diameter_two_graphs() {
        for (g, name) in [
            (generators::star(20), "star"),
            (generators::complete_bipartite(8, 8), "k88"),
            (generators::complete(10), "k10"),
        ] {
            let dists = Apsp::compute(&g);
            let scheme = Theorem1Scheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.is_shortest_path(), "{name}");
        }
    }

    #[test]
    fn rejects_large_diameter_graphs() {
        let g = generators::path(10);
        assert!(matches!(
            Theorem1Scheme::build(&g, &Apsp::compute(&g)),
            Err(SchemeError::Precondition { .. })
        ));
        let g = generators::gb_graph(4);
        assert!(Theorem1Scheme::build(&g, &Apsp::compute(&g)).is_err());
    }

    #[test]
    fn rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let disconnected = Theorem1Scheme::build(&g, &Apsp::compute(&g));
        assert!(matches!(disconnected, Err(SchemeError::Disconnected)));
    }

    #[test]
    fn decoded_router_only_needs_model_information() {
        // The II router must fail gracefully when neighbour labels are
        // withheld — proving it actually uses them rather than the graph.
        let g = generators::gnp_half(32, 1);
        let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut env = scheme.node_env(0);
        env.neighbor_labels = None;
        let mut state = MessageState::default();
        let err = scheme.route_at(0, &env, &Label::Minimal(5), &mut state);
        assert!(matches!(err, Err(RouteError::MissingInformation { .. })));
    }

    #[test]
    fn all_cutoff_policies_route_shortest_paths() {
        let g = generators::gnp_half(48, 6);
        let policies = [
            CutoffPolicy::NOverLog,
            CutoffPolicy::NOverLogLog,
            CutoffPolicy::UnaryOnly,
            CutoffPolicy::BinaryOnly,
            CutoffPolicy::Fixed(10),
        ];
        let mut sizes = Vec::new();
        for p in policies {
            let dists = Apsp::compute(&g);
            let scheme = Theorem1Scheme::build_with_cutoff(&g, &dists, p).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.is_shortest_path(), "{p:?}");
            sizes.push((p, scheme.total_size_bits()));
        }
        // The strawman endpoints must lose to the paper's mixed design.
        let get = |p: CutoffPolicy| sizes.iter().find(|(q, _)| *q == p).unwrap().1;
        assert!(get(CutoffPolicy::BinaryOnly) > get(CutoffPolicy::NOverLog));
        // Unary-only is fine on random graphs (ranks are small) but has no
        // worst-case guarantee; it must at least be within 2× here.
        assert!(get(CutoffPolicy::UnaryOnly) < 2 * get(CutoffPolicy::NOverLog));
    }

    #[test]
    fn default_cutoff_is_n_over_log() {
        let g = generators::gnp_half(32, 9);
        let dists = Apsp::compute(&g);
        let a = Theorem1Scheme::build(&g, &dists).unwrap();
        let b = Theorem1Scheme::build_with_cutoff(&g, &dists, CutoffPolicy::default()).unwrap();
        assert_eq!(a.total_size_bits(), b.total_size_bits());
    }

    #[test]
    fn bits_per_node_scale_linearly() {
        // total/(n·n) must not grow with n (Θ(n) bits per node).
        let mut per_node = Vec::new();
        for n in [64usize, 128, 256, 512] {
            let g = generators::gnp_half(n, 3);
            let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
            per_node.push(scheme.total_size_bits() as f64 / (n * n) as f64);
        }
        for pair in per_node.windows(2) {
            assert!(pair[1] <= pair[0] * 1.15, "bits/node/n grew: {per_node:?}");
        }
    }
}
