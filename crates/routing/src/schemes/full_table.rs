//! The trivial full-table scheme: one port entry per destination.
//!
//! This is the paper's universal upper bound — `(n−1)·⌈log d(u)⌉` bits per
//! node, `O(n² log n)` total — and the only shortest-path scheme that works
//! in **every** model, including IA ∧ α where Theorem 8 shows nothing
//! asymptotically better exists. It also serves as the stretch-1 scheme in
//! the Theorem 9 experiment.

use ort_bitio::{bits_to_index, BitReader, BitWriter};
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::{read_row, Distances};
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId};

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};

/// The trivial scheme: every node stores, for every destination label, the
/// port of a first hop on a shortest path.
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::full_table::FullTableScheme;
/// use ort_routing::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::cycle(8);
/// let dists = Apsp::compute(&g);
/// let scheme = FullTableScheme::build(&g, &dists)?;
/// let report = verify::verify(&g, &scheme, &dists, 1)?;
/// assert!(report.is_shortest_path());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FullTableScheme {
    model: Model,
    tables: Tables,
}

impl FullTableScheme {
    /// Builds the scheme in the default model (II ∧ α) with sorted ports
    /// from the exact distances `dists`.
    ///
    /// # Errors
    ///
    /// As [`FullTableScheme::build_with`].
    pub fn build(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        let model = Model::new(Knowledge::NeighborsKnown, Relabeling::None);
        let labeling = Labeling::identity(g.node_count());
        Self::build_with(g, dists, model, PortAssignment::sorted(g), labeling)
    }

    /// Builds the scheme with an explicit model, port assignment and
    /// labelling — this is how the IA ∧ α (adversarial ports) and β
    /// (permuted labels) experiments instantiate it.
    ///
    /// The table loop is *row-streamed*: the outer loop walks
    /// destination labels ascending (= source-band order under α
    /// labels), borrows the destination's oracle row once
    /// ([`read_row`]) and appends one port to every other node's writer,
    /// each the row's [`DistRow::first_hop`](ort_graphs::dist::DistRow::first_hop).
    /// Per-node append order is unchanged from the historical per-node
    /// loop, so the bits are identical; peak distance memory with a
    /// banded oracle is one band.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Disconnected`] for disconnected graphs,
    /// [`SchemeError::ApproximateOracle`] for inexact oracles, or
    /// [`SchemeError::Precondition`] if a γ labelling is supplied (the full
    /// table indexes by minimal labels) or the oracle's node count does
    /// not match `g`.
    pub fn build_with(
        g: &Graph,
        dists: &dyn Distances,
        model: Model,
        ports: PortAssignment,
        labeling: Labeling,
    ) -> Result<Self, SchemeError> {
        if labeling.is_charged() {
            return Err(SchemeError::Precondition {
                reason: "full table requires minimal (α/β) labels".into(),
            });
        }
        crate::schemes::check_exact_oracle(g, dists)?;
        let n = g.node_count();
        let widths: Vec<u32> = (0..n).map(|u| bits_to_index(g.degree(u) as u64)).collect();
        let mut writers: Vec<BitWriter> = widths
            .iter()
            .map(|&w| BitWriter::with_capacity((n - 1) * w as usize))
            .collect();
        for dest_label in 0..n {
            let t = labeling.node_of_minimal(dest_label).expect("minimal labels cover 0..n");
            read_row(dists, t, |row| {
                for (u, w) in writers.iter_mut().enumerate() {
                    if u == t {
                        continue;
                    }
                    let hop = row.first_hop(g, u).expect("connected graph has a next hop");
                    let port = ports.port_to(u, hop).expect("hop is a neighbour");
                    w.write_bits(port as u64, widths[u])?;
                }
                Ok::<_, SchemeError>(())
            })?;
        }
        let bits = writers.into_iter().map(BitWriter::finish).collect();
        Ok(FullTableScheme { model, tables: Tables { bits, labeling, ports } })
    }

    /// Reassembles a scheme from snapshot parts (`crate::snapshot`).
    pub(crate) fn from_parts(model: Model, tables: Tables) -> Self {
        FullTableScheme { model, tables }
    }

    /// Patches the table in place after the edge delta `endpoints` was
    /// applied to `g`, given the exact dirty source set `dirty` from the
    /// oracle repair (`ort_graphs::delta`).
    ///
    /// An entry `(u → t)` depends only on `t`'s distance row restricted
    /// to `u ∪ N(u)` and on `u`'s port numbering, so the delta can only
    /// move:
    ///
    /// * the **endpoint rows** — degree changed, hence entry width and
    ///   port numbering: both endpoint tables are rebuilt whole;
    /// * entries **toward dirty destinations** at every other node —
    ///   same width, same ports: the stale entry is bit-spliced.
    ///
    /// The port assignment is re-derived as `sorted(g)` (it differs from
    /// the old one only at the endpoints), so this path is only valid for
    /// schemes built with sorted ports — which is what the repair layer
    /// constructs. Returns the number of entries rewritten.
    ///
    /// # Errors
    ///
    /// As [`FullTableScheme::build`]: the oracle must be exact,
    /// match `g`, and see a connected graph; the labelling must be minimal.
    pub(crate) fn patch_edge_delta(
        &mut self,
        g: &Graph,
        dists: &dyn Distances,
        endpoints: [NodeId; 2],
        dirty: &[NodeId],
    ) -> Result<usize, SchemeError> {
        let Tables { bits, labeling, ports } = &mut self.tables;
        if labeling.is_charged() {
            return Err(SchemeError::Precondition {
                reason: "full table requires minimal (α/β) labels".into(),
            });
        }
        crate::schemes::check_exact_oracle(g, dists)?;
        let n = g.node_count();
        if bits.len() != n {
            return Err(SchemeError::Precondition {
                reason: "patched scheme does not match the graph".into(),
            });
        }
        let _span = ort_telemetry::span_with(
            "repair.scheme_patch",
            &[
                ("n", ort_telemetry::FieldValue::Int(n as u64)),
                ("dirty", ort_telemetry::FieldValue::Int(dirty.len() as u64)),
            ],
        );
        let _mem = ort_telemetry::alloc::mem_span("repair.scheme_patch");
        *ports = PortAssignment::sorted(g);
        let mut patched = 0usize;
        // The endpoint tables, rebuilt whole in one pass over every
        // destination's row.
        let widths = endpoints.map(|u| bits_to_index(g.degree(u) as u64));
        let mut writers = widths.map(|w| BitWriter::with_capacity((n - 1) * w as usize));
        for dest_label in 0..n {
            let t = labeling.node_of_minimal(dest_label).expect("minimal labels cover 0..n");
            read_row(dists, t, |row| {
                for ((&u, w), &width) in endpoints.iter().zip(&mut writers).zip(&widths) {
                    if t == u {
                        continue;
                    }
                    let hop = row.first_hop(g, u).ok_or(SchemeError::Disconnected)?;
                    let port = ports.port_to(u, hop).expect("hop is a neighbour");
                    w.write_bits(port as u64, width)?;
                    patched += 1;
                }
                Ok::<_, SchemeError>(())
            })?;
        }
        for (&u, w) in endpoints.iter().zip(writers) {
            bits[u] = w.finish();
        }
        // Entries toward each dirty destination, one row each.
        for &t in dirty {
            if t >= n {
                return Err(SchemeError::NodeOutOfRange { node: t });
            }
            let dest_l = minimal_label(labeling, t);
            read_row(dists, t, |row| {
                for (u, table) in bits.iter_mut().enumerate() {
                    if u == t || endpoints.contains(&u) {
                        continue;
                    }
                    let width = bits_to_index(g.degree(u) as u64) as usize;
                    if width == 0 {
                        // Degree ≤ 1: the entry stores zero bits (port 0 is
                        // implicit), nothing to splice.
                        continue;
                    }
                    let hop = row.first_hop(g, u).ok_or(SchemeError::Disconnected)?;
                    let port = ports.port_to(u, hop).expect("hop is a neighbour");
                    let own_l = minimal_label(labeling, u);
                    let index = if dest_l < own_l { dest_l } else { dest_l - 1 };
                    let base = index * width;
                    // write_bits is MSB-first: offset k holds value bit
                    // (width − 1 − k).
                    for k in 0..width {
                        table.set(base + k, (port >> (width - 1 - k)) & 1 == 1);
                    }
                    patched += 1;
                }
                Ok::<_, SchemeError>(())
            })?;
        }
        Ok(patched)
    }
}

/// The minimal label value of `u` (patching rejects γ labellings up
/// front, so the match cannot fail).
fn minimal_label(labeling: &Labeling, u: NodeId) -> usize {
    match labeling.label_ref(u) {
        LabelRef::Minimal(l) => l,
        LabelRef::Bits(_) => unreachable!("patch requires minimal labels"),
    }
}

impl RoutingScheme for FullTableScheme {
    fn model(&self) -> Model {
        self.model
    }

    fn tables(&self) -> &Tables {
        &self.tables
    }

    /// Reads one fixed-width entry. Uses only the node's bits, its own
    /// label, `n` and its degree (all free information in every model).
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
        let LabelRef::Minimal(own_l) = env.label else {
            return Err(RouteError::MissingInformation { what: "minimal own label" });
        };
        if dest_l == own_l {
            return Ok(RouteDecision::Deliver);
        }
        if dest_l >= env.n {
            return Err(RouteError::UnknownDestination);
        }
        let index = if dest_l < own_l { dest_l } else { dest_l - 1 };
        let width = bits_to_index(env.degree as u64);
        let mut r = BitReader::new(bits);
        r.seek(index * width as usize)?;
        let port = r.read_bits(width)? as usize;
        if port >= env.degree {
            return Err(RouteError::PortOutOfRange { port, degree: env.degree });
        }
        Ok(RouteDecision::Forward(port))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hop::RouteFailure;
    use crate::verify::{sampled_targets, verify};
    use ort_bitio::BitVec;
    use ort_graphs::dist::DistRow;
    use ort_graphs::generators;
    use ort_graphs::oracle::BandedOracle;
    use ort_graphs::paths::Apsp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    #[test]
    fn shortest_path_on_assorted_graphs() {
        for (g, name) in [
            (generators::gnp_half(24, 1), "gnp24"),
            (generators::path(10), "path"),
            (generators::cycle(9), "cycle"),
            (generators::star(12), "star"),
            (generators::grid(4, 5), "grid"),
            (generators::complete(7), "k7"),
            (generators::gb_graph(5), "gb"),
        ] {
            let dists = Apsp::compute(&g);
            let scheme = FullTableScheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered(), "{name}: {:?}", report.failures.first());
            assert!(report.is_shortest_path(), "{name}");
        }
    }

    #[test]
    fn size_is_n_minus_one_times_log_degree() {
        let g = generators::gnp_half(32, 5);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        for u in 0..32 {
            let expect = 31 * bits_to_index(g.degree(u) as u64) as usize;
            assert_eq!(scheme.node_size_bits(u), expect);
        }
        // Total is Θ(n² log n): compare against the exact formula.
        let total: usize =
            (0..32).map(|u| 31 * bits_to_index(g.degree(u) as u64) as usize).sum();
        assert_eq!(scheme.total_size_bits(), total);
    }

    #[test]
    fn works_with_adversarial_ports_model_ia() {
        let g = generators::gnp_half(20, 7);
        let mut rng = StdRng::seed_from_u64(99);
        let ports = PortAssignment::adversarial(&g, &mut rng);
        let model = Model::new(Knowledge::PortsFixed, Relabeling::None);
        let dists = Apsp::compute(&g);
        let scheme =
            FullTableScheme::build_with(&g, &dists, model, ports, Labeling::identity(20)).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.is_shortest_path());
    }

    #[test]
    fn works_with_permuted_labels_model_beta() {
        let g = generators::gnp_half(18, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let perm = generators::random_permutation(18, &mut rng);
        let labeling = Labeling::permutation(perm).unwrap();
        let model = Model::new(Knowledge::NeighborsKnown, Relabeling::Permutation);
        let dists = Apsp::compute(&g);
        let scheme =
            FullTableScheme::build_with(&g, &dists, model, PortAssignment::sorted(&g), labeling)
                .unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.is_shortest_path());
    }

    #[test]
    fn rejects_disconnected_and_charged_labels() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let disconnected = FullTableScheme::build(&g, &Apsp::compute(&g));
        assert!(matches!(disconnected, Err(SchemeError::Disconnected)));

        let g = generators::cycle(4);
        let labels = (0..4)
            .map(|i| {
                let mut b = BitVec::new();
                for j in 0..3 {
                    b.push((i >> j) & 1 == 1);
                }
                b
            })
            .collect();
        let labeling = Labeling::arbitrary(labels).unwrap();
        let model = Model::new(Knowledge::NeighborsKnown, Relabeling::Free);
        let ports = PortAssignment::sorted(&g);
        let res = FullTableScheme::build_with(&g, &Apsp::compute(&g), model, ports, labeling);
        assert!(matches!(res, Err(SchemeError::Precondition { .. })));
    }

    #[test]
    fn corrupted_bits_change_routing_behavior() {
        // Honesty check: flipping stored bits really changes routing —
        // there is no hidden side channel.
        let g = generators::gnp_half(16, 2);
        let dists = Apsp::compute(&g);
        let mut scheme = FullTableScheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.is_shortest_path());
        // Flip every stored bit of node 0.
        let flipped: BitVec = scheme.tables.bits[0].iter().map(|b| !b).collect();
        scheme.tables.bits[0] = flipped;
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        let broken = !report.all_delivered() || !report.is_shortest_path();
        assert!(broken, "bit corruption must be observable");
    }

    #[test]
    fn route_errors_surface_as_failures() {
        let g = generators::cycle(5);
        let dists = Apsp::compute(&g);
        let mut scheme = FullTableScheme::build(&g, &dists).unwrap();
        // Truncate node 0's table: routing through it must fail cleanly.
        scheme.tables.bits[0] = BitVec::new();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report
            .failures
            .iter()
            .any(|(s, _, f)| *s == 0 && matches!(f, RouteFailure::RouterError { .. })));
    }

    /// Forwards to an inner oracle and counts the calls a builder or the
    /// verifier makes. The row-based defaults (`is_connected`,
    /// `shortest_path`) are left to the trait, so their row reads count as
    /// `with_row` calls.
    struct Counting<'a> {
        inner: &'a dyn Distances,
        with_row: AtomicUsize,
        per_cell: AtomicUsize,
    }

    impl Distances for Counting<'_> {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }

        fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
            self.per_cell.fetch_add(1, Relaxed);
            self.inner.distance(u, v)
        }

        fn peak_bytes(&self) -> usize {
            self.inner.peak_bytes()
        }

        fn with_row(&self, v: NodeId, f: &mut dyn FnMut(DistRow<'_>)) {
            self.with_row.fetch_add(1, Relaxed);
            self.inner.with_row(v, f);
        }

        fn shortest_path_ports(&self, g: &Graph, u: NodeId, v: NodeId) -> Vec<NodeId> {
            self.per_cell.fetch_add(1, Relaxed);
            self.inner.shortest_path_ports(g, u, v)
        }

        fn first_hop_toward(&self, g: &Graph, u: NodeId, v: NodeId) -> Option<NodeId> {
            self.per_cell.fetch_add(1, Relaxed);
            self.inner.first_hop_toward(g, u, v)
        }
    }

    #[test]
    fn build_borrows_one_row_per_destination() {
        let g = generators::gnp_half(64, 3);
        let apsp = Apsp::compute(&g);
        let reference = FullTableScheme::build(&g, &apsp).unwrap();
        for inner in [&apsp as &dyn Distances, &BandedOracle::new(g.clone(), 8)] {
            let counting =
                Counting { inner, with_row: AtomicUsize::new(0), per_cell: AtomicUsize::new(0) };
            let scheme = FullTableScheme::build(&g, &counting).unwrap();
            assert_eq!(scheme.tables.bits, reference.tables.bits, "{}", inner.describe());
            // One row per destination plus row 0 for the connectivity
            // probe; per-cell queries would number n(n − 1) = 4032.
            assert_eq!(counting.with_row.load(Relaxed), 64 + 1, "{}", inner.describe());
            assert_eq!(counting.per_cell.load(Relaxed), 0, "{}", inner.describe());
        }
    }

    #[test]
    fn verify_borrows_one_row_per_sampled_source() {
        let n = 64;
        let g = generators::gnp_half(n, 3);
        let apsp = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &apsp).unwrap();
        // Strides that sample every source, sources 37..=63 but 50, and none.
        for stride in [1, 5, 100, 200] {
            let reference = verify(&g, &scheme, &apsp, stride).unwrap();
            let sources =
                (0..n).filter(|&s| sampled_targets(s, n, stride).next().is_some()).count();
            for inner in [&apsp as &dyn Distances, &BandedOracle::new(g.clone(), 8)] {
                let counting = Counting {
                    inner,
                    with_row: AtomicUsize::new(0),
                    per_cell: AtomicUsize::new(0),
                };
                let report = verify(&g, &scheme, &counting, stride).unwrap();
                let name = format!("{} stride {stride}", inner.describe());
                assert_eq!(report, reference, "{name}");
                // One row per source with a target plus row 0 for the
                // connectivity probe; no pair reads a cell on its own.
                assert_eq!(counting.with_row.load(Relaxed), sources + 1, "{name}");
                assert_eq!(counting.per_cell.load(Relaxed), 0, "{name}");
            }
        }
    }

    #[test]
    fn two_node_graph() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let dists = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.is_shortest_path());
        // Degree 1 → width 0 → zero bits stored, and that is fine.
        assert_eq!(scheme.node_size_bits(0), 0);
    }
}
