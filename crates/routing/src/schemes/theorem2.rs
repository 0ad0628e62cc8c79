//! The Theorem 2 scheme: shortest-path routing in `O(n log² n)` total bits
//! via free relabelling (model II ∧ γ).
//!
//! Every node's new label is its original id followed by the ids of its
//! first `(c+3)·log n` neighbours. By Lemma 3 (applied at the destination
//! `v`), every node `u` is adjacent to `v` or to one of those listed
//! neighbours — so a *constant-size* routing function suffices: look inside
//! the destination label, find a listed neighbour you are adjacent to, and
//! forward. The whole cost of the scheme sits in the labels, which model γ
//! charges: `(1 + (c+3)·log n)·log n` bits per node.
//!
//! A hop reads only what it needs, and allocates nothing: the destination's
//! node comes from its label's leading id (checked against the labelling),
//! its port by rank under the sorted ports, and the listed ids are read
//! from the destination label in place.

use ort_bitio::{bits_to_index, BitReader, BitVec, BitWriter, CodeError};
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::Distances;
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId, Relays};

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};
use crate::schemes::leading_id;

/// Default randomness parameter: the paper's `c` in "`c·log n`-random".
/// `(3 log n)`-random graphs are a `1 − 1/n³` fraction of all graphs.
pub const DEFAULT_C: f64 = 3.0;

/// The Theorem 2 labelled scheme.
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::theorem2::Theorem2Scheme;
/// use ort_routing::scheme::RoutingScheme;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_half(64, 1);
/// let scheme = Theorem2Scheme::build(&g, &Apsp::compute(&g))?;
/// // All bits live in the labels; routing functions are O(1).
/// assert_eq!(scheme.node_bits(0).len(), 0);
/// assert!(scheme.total_size_bits() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Theorem2Scheme {
    tables: Tables,
}

impl Theorem2Scheme {
    /// Builds the scheme listing the first `(c+3)·log₂ n` neighbours in
    /// each label, at the randomness parameter `c =` [`DEFAULT_C`]. The
    /// construction is purely adjacency-based; the exact oracle `dists`
    /// contributes only its connectivity bit (row 0), so a banded
    /// oracle's peak distance memory stays one band.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Precondition`] if Lemma 3 fails for this
    /// graph (some node is not adjacent to any listed neighbour of some
    /// destination) or the oracle's node count does not match `g`,
    /// [`SchemeError::ApproximateOracle`] for inexact oracles, or
    /// [`SchemeError::Disconnected`].
    pub fn build(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        let n = g.node_count();
        if n < 2 {
            return Err(SchemeError::Precondition { reason: "need at least 2 nodes".into() });
        }
        crate::schemes::check_exact_oracle(g, dists)?;
        let k = ((DEFAULT_C + 3.0) * (n.max(2) as f64).log2()).ceil() as usize;
        let width = bits_to_index(n as u64);
        let mut labels = Vec::with_capacity(n);
        let mut relays = Relays::new(g);
        for v in 0..n {
            let listed: Vec<NodeId> = g.neighbors(v).iter().copied().take(k).collect();
            // Precondition (Lemma 3 at v): every non-neighbour of v is
            // adjacent to a listed neighbour.
            relays.set(v);
            if let Some(u) = relays.escapee(k) {
                return Err(SchemeError::Precondition {
                    reason: format!(
                        "node {u} is not adjacent to any of the first {k} neighbours of {v}"
                    ),
                });
            }
            let mut w = BitWriter::new();
            w.write_bits(v as u64, width)?;
            w.write_bits(listed.len() as u64, width)?;
            for x in listed {
                w.write_bits(x as u64, width)?;
            }
            labels.push(w.finish());
        }
        let labeling = Labeling::arbitrary(labels)
            .map_err(|_| SchemeError::Precondition { reason: "duplicate labels".into() })?;
        // The routing function is generic — O(1) bits, stored nowhere.
        let bits = vec![BitVec::new(); n];
        Ok(Theorem2Scheme { tables: Tables { bits, labeling, ports: PortAssignment::sorted(g) } })
    }

    /// Reassembles a scheme from snapshot parts (`crate::snapshot`). The
    /// routing function stores nothing, so any per-node bits the parts
    /// carry are dropped.
    pub(crate) fn from_parts(tables: Tables) -> Self {
        let bits = vec![BitVec::new(); tables.bits.len()];
        Theorem2Scheme { tables: Tables { bits, ..tables } }
    }

    /// Parses a Theorem 2 label into `(original id, listed neighbours)`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Code`] on malformed labels.
    pub fn parse_label(bits: &BitVec, n: usize) -> Result<(NodeId, Vec<NodeId>), RouteError> {
        let listed = Listed::read(bits, n)?;
        Ok((listed.id, listed.ids().collect()))
    }
}

/// A Theorem 2 label read in place: `id`, then `count` listed ids, each
/// `width` bits. [`Listed::read`] checks that the label holds every
/// listed field, so [`Listed::ids`] reads them with no allocation.
struct Listed<'a> {
    /// A reader at the first listed field.
    fields: BitReader<'a>,
    width: u32,
    id: NodeId,
    count: usize,
}

impl<'a> Listed<'a> {
    /// Reads the header of label `bits` at node count `n`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Code`] holding [`CodeError::UnexpectedEnd`]
    /// at the label's length if the header or a listed field runs past
    /// its end: the error that reading the fields one by one meets.
    fn read(bits: &'a BitVec, n: usize) -> Result<Self, RouteError> {
        let width = bits_to_index(n as u64);
        let mut fields = BitReader::new(bits);
        let id = fields.read_bits(width)? as NodeId;
        let count = fields.read_bits(width)? as usize;
        if width > 0 && count > fields.remaining() / width as usize {
            return Err(CodeError::UnexpectedEnd { position: bits.len() }.into());
        }
        Ok(Listed { fields, width, id, count })
    }

    /// The listed ids, in label order.
    fn ids(&self) -> impl Iterator<Item = NodeId> + 'a {
        let (mut r, width) = (self.fields.clone(), self.width);
        (0..self.count).map_while(move |_| r.read_bits(width).ok().map(|x| x as NodeId))
    }
}

impl RoutingScheme for Theorem2Scheme {
    fn model(&self) -> Model {
        Model::new(Knowledge::NeighborsKnown, Relabeling::Free)
    }

    fn tables(&self) -> &Tables {
        &self.tables
    }

    /// The constant-size router: everything it needs is in the labels.
    // Keep this body in `route_at`: called out of line, it routed
    // G(1024, 1/2) about 10% slower (three series of 10 interleaved
    // benchmark pairs on a 2-core Intel Xeon host).
    fn route_at(
        &self,
        u: NodeId,
        env: &NodeEnv<'_>,
        dest: &Label,
        _state: &mut MessageState,
    ) -> Result<RouteDecision, RouteError> {
        self.tables.node(u)?;
        if env.label == *dest {
            return Ok(RouteDecision::Deliver);
        }
        let Label::Bits(dest_bits) = dest else {
            return Err(RouteError::MissingInformation { what: "γ destination label" });
        };
        let neighbor_labels = env.require_neighbor_labels()?;
        // Direct neighbour? The labelling finds the node from the label's
        // leading id, and sorted ports find its port by rank.
        if let Some(port) = neighbor_labels.port_of(dest) {
            return Ok(RouteDecision::Forward(port));
        }
        // Otherwise: find a neighbour whose original id is listed in the
        // destination label, read in place.
        let listed = Listed::read(dest_bits, env.n)?;
        for (port, l) in neighbor_labels.iter().enumerate() {
            let LabelRef::Bits(lb) = l else {
                return Err(RouteError::MissingInformation { what: "γ neighbour labels" });
            };
            let id = leading_id(lb, env.n)?;
            if listed.ids().any(|x| x == id) {
                return Ok(RouteDecision::Forward(port));
            }
        }
        Err(RouteError::UnknownDestination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RoutingScheme;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn shortest_path_on_random_graphs() {
        for seed in 0..5u64 {
            let g = generators::gnp_half(48, seed);
            let dists = Apsp::compute(&g);
            let scheme = Theorem2Scheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered(), "seed {seed}: {:?}", report.failures.first());
            assert!(report.is_shortest_path(), "seed {seed}");
        }
    }

    #[test]
    fn size_is_all_labels_and_o_n_log2_n() {
        let n = 256usize;
        let g = generators::gnp_half(n, 9);
        let dists = Apsp::compute(&g);
        let scheme = Theorem2Scheme::build(&g, &dists).unwrap();
        // Node bits are zero; total = charged labels.
        for u in 0..n {
            assert_eq!(scheme.node_size_bits(u), 0);
        }
        assert_eq!(scheme.total_size_bits(), scheme.labeling().total_charged_bits());
        // (1 + (c+3) log n)·log n per node with c=3 → ≤ (2 + 6·8)·8 = 400.
        let logn = (n as f64).log2();
        let bound = ((2.0 + 6.0 * logn) * logn) as usize * n;
        assert!(scheme.total_size_bits() <= bound, "{} > {bound}", scheme.total_size_bits());
        // And asymptotically far below the Θ(n²) of Theorem 1 at this n:
        let t1 = crate::schemes::theorem1::Theorem1Scheme::build(&g, &dists).unwrap();
        assert!(scheme.total_size_bits() < t1.total_size_bits());
    }

    #[test]
    fn label_parse_roundtrip() {
        let g = generators::gnp_half(32, 2);
        let scheme = Theorem2Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        for v in 0..32 {
            let Label::Bits(b) = scheme.label_of(v) else { panic!("γ labels") };
            let (id, listed) = Theorem2Scheme::parse_label(&b, 32).unwrap();
            assert_eq!(id, v);
            assert!(!listed.is_empty());
            for x in &listed {
                assert!(g.has_edge(v, *x), "listed {x} not a neighbour of {v}");
            }
            // Listed neighbours are the least ones, in order.
            let expect: Vec<_> =
                g.neighbors(v).iter().copied().take(listed.len()).collect();
            assert_eq!(listed, expect);
        }
    }

    #[test]
    fn rejects_graphs_violating_lemma3() {
        // A long path: node far from v is not adjacent to v's neighbours.
        let g = generators::path(32);
        assert!(matches!(
            Theorem2Scheme::build(&g, &Apsp::compute(&g)),
            Err(SchemeError::Precondition { .. })
        ));
    }

    #[test]
    fn works_on_star() {
        // Star: every node lists the centre (or is the centre) — Lemma 3
        // degenerately true.
        let g = generators::star(16);
        let dists = Apsp::compute(&g);
        let scheme = Theorem2Scheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.is_shortest_path());
    }

    /// Theorem 2's router as it read labels before the in-place read:
    /// the node carrying `dest` by a scan of the labelling, its port by a
    /// scan of the order, and the listed ids parsed into a `Vec`. The
    /// reference `route_at` must match on every input.
    fn reference_route(
        scheme: &Theorem2Scheme,
        u: NodeId,
        env: &NodeEnv<'_>,
        dest: &Label,
    ) -> Result<RouteDecision, RouteError> {
        scheme.tables.node(u)?;
        if env.label == *dest {
            return Ok(RouteDecision::Deliver);
        }
        let Label::Bits(dest_bits) = dest else {
            return Err(RouteError::MissingInformation { what: "γ destination label" });
        };
        let neighbor_labels = env.require_neighbor_labels()?;
        let labeling = scheme.labeling();
        let order = scheme.port_assignment().order(u);
        let node = (0..labeling.node_count()).find(|&v| labeling.label_ref(v) == *dest);
        if let Some(port) = node.and_then(|v| order.iter().position(|&w| w == v)) {
            return Ok(RouteDecision::Forward(port));
        }
        let width = bits_to_index(env.n as u64);
        let mut r = BitReader::new(dest_bits);
        r.read_bits(width)?;
        let count = r.read_bits(width)? as usize;
        let mut listed = Vec::with_capacity(count);
        for _ in 0..count {
            listed.push(r.read_bits(width)? as usize);
        }
        for (port, l) in neighbor_labels.iter().enumerate() {
            let LabelRef::Bits(lb) = l else {
                return Err(RouteError::MissingInformation { what: "γ neighbour labels" });
            };
            if listed.contains(&leading_id(lb, env.n)?) {
                return Ok(RouteDecision::Forward(port));
            }
        }
        Err(RouteError::UnknownDestination)
    }

    /// `bits` with `len` bits kept.
    fn cut(bits: &BitVec, len: usize) -> BitVec {
        (0..len.min(bits.len())).map(|i| bits.get(i) == Some(true)).collect()
    }

    /// `bits` with the `width`-bit field at `index` set to `value`.
    fn set_field(bits: &BitVec, width: u32, index: usize, value: u64) -> BitVec {
        let mut out = bits.clone();
        for b in 0..width as usize {
            let i = index * width as usize + b;
            if i < out.len() {
                out.set(i, (value >> (width as usize - 1 - b)) & 1 == 1);
            }
        }
        out
    }

    /// Every node's decision toward every node's label, and toward
    /// malformed labels no node carries (each label cut by one bit, cut
    /// to its header, and emptied, and a minimal label), equals the
    /// reference's. Returns how many were forwards through a listed
    /// neighbour and how many were decoding errors.
    fn assert_matches_reference(scheme: &Theorem2Scheme, what: &str) -> (usize, usize) {
        let n = scheme.node_count();
        let width = bits_to_index(n as u64) as usize;
        let mut dests: Vec<Label> = (0..n).map(|v| scheme.label_of(v)).collect();
        for v in (0..n).step_by(5) {
            let Label::Bits(b) = scheme.label_of(v) else { panic!("γ labels") };
            dests.push(Label::Bits(cut(&b, b.len().saturating_sub(1))));
            dests.push(Label::Bits(cut(&b, 2 * width)));
        }
        dests.extend([Label::Bits(BitVec::new()), Label::Minimal(1)]);
        let mut state = MessageState::default();
        let (mut listed, mut errors) = (0, 0);
        for u in 0..n {
            let env = scheme.node_env(u);
            for dest in &dests {
                let decision = scheme.route_at(u, &env, dest, &mut state);
                assert_eq!(
                    decision,
                    reference_route(scheme, u, &env, dest),
                    "{what}: {u} → {dest}"
                );
                let direct = env.neighbor_labels.and_then(|l| l.port_of(dest)).is_some();
                listed += usize::from(matches!(decision, Ok(RouteDecision::Forward(_))) && !direct);
                errors += usize::from(matches!(decision, Err(RouteError::Code(_))));
            }
        }
        (listed, errors)
    }

    /// `scheme` with every label replaced by `edit(v, label)` and the
    /// ports by `ports`, assembled as a snapshot load assembles one.
    fn with_parts(
        scheme: &Theorem2Scheme,
        ports: PortAssignment,
        edit: impl Fn(NodeId, &BitVec) -> BitVec,
    ) -> Theorem2Scheme {
        let labels = (0..scheme.node_count())
            .map(|v| {
                let Label::Bits(b) = scheme.label_of(v) else { panic!("γ labels") };
                edit(v, &b)
            })
            .collect();
        let labeling = Labeling::arbitrary(labels).expect("edits keep labels distinct");
        let bits = vec![BitVec::new(); scheme.node_count()];
        Theorem2Scheme::from_parts(Tables { bits, labeling, ports })
    }

    #[test]
    fn decisions_match_the_parsed_label_rule() {
        for (n, seed) in [(48, 1), (48, 2), (64, 3), (100, 4)] {
            let g = generators::gnp_half(n, seed);
            let scheme = Theorem2Scheme::build(&g, &Apsp::compute(&g)).unwrap();
            let (listed, _) = assert_matches_reference(&scheme, &format!("gnp_half({n}, {seed})"));
            assert!(listed > 0, "some hops go through a listed neighbour");
        }
    }

    #[test]
    fn decisions_match_the_parsed_label_rule_on_malformed_schemes() {
        use rand::SeedableRng;
        let n = 48;
        let g = generators::gnp_half(n, 7);
        let scheme = Theorem2Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let w = bits_to_index(n as u64);
        let header = 2 * w as usize;
        assert!(1 << w > n, "n leaves field values ≥ n to write");
        let sorted = || PortAssignment::sorted(&g);
        // Every fourth label cut somewhere past its leading id (mid-header,
        // mid-list, or one bit short), so labels stay distinct, and the
        // last node's cut inside its leading id.
        let truncated = with_parts(&scheme, sorted(), |v, b| {
            if v == n - 1 {
                cut(b, w as usize - 1)
            } else if v % 4 == 0 {
                cut(b, w as usize + (v * 7) % (b.len() - w as usize))
            } else {
                b.clone()
            }
        });
        // Neighbouring labels swap leading ids, so every leading id names
        // another node.
        let swapped = with_parts(&scheme, sorted(), |v, b| set_field(b, w, 0, (v ^ 1) as u64));
        // Every third listed id is ≥ n.
        let beyond = with_parts(&scheme, sorted(), |v, b| {
            let count = (b.len() - header) / w as usize;
            (0..count).step_by(3).fold(b.clone(), |b, j| {
                set_field(&b, w, 2 + j, (n + (v + j) % ((1 << w) - n)) as u64)
            })
        });
        // Every third label's count runs past the label's end.
        let overlong = with_parts(&scheme, sorted(), |v, b| {
            let count = (b.len() - header) / w as usize;
            let long = ((count + 1 + v % 5) as u64).min((1 << w) - 1);
            if v % 3 == 0 {
                set_field(b, w, 1, long)
            } else {
                b.clone()
            }
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let adversarial =
            with_parts(&scheme, PortAssignment::adversarial(&g, &mut rng), |_, b| b.clone());
        assert!(!adversarial.port_assignment().is_sorted());
        for (broken, what) in [
            (&truncated, "truncated labels"),
            (&swapped, "leading ids naming other nodes"),
            (&beyond, "listed ids ≥ n"),
            (&overlong, "counts past the label's end"),
            (&adversarial, "adversarial ports"),
        ] {
            let (listed, errors) = assert_matches_reference(broken, what);
            assert!(listed > 0 && errors > 0, "{what}: {listed} listed hops, {errors} errors");
        }
    }

    #[test]
    fn router_rejects_minimal_destination() {
        let g = generators::gnp_half(32, 3);
        let scheme = Theorem2Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let env = scheme.node_env(0);
        let mut state = MessageState::default();
        let res = scheme.route_at(0, &env, &Label::Minimal(3), &mut state);
        assert!(matches!(res, Err(RouteError::MissingInformation { .. })));
    }
}
