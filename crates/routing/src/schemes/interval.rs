//! Interval routing — the classic compact-routing baseline (related work:
//! Flammini–van Leeuwen–Marchetti-Spaccamela \[1\] study it on random
//! graphs).
//!
//! Nodes are relabelled by DFS preorder over a spanning tree (model β!),
//! so every subtree is a contiguous label interval. Each node stores one
//! cyclic interval per port: child ports get their subtree's interval, the
//! parent port gets the complement, non-tree ports get an empty interval.
//! Routing walks the tree: `O(d log n)` bits per node, but routes follow
//! tree paths, so the stretch on the *graph* is unbounded in general —
//! exactly the trade-off the paper's Table 1 quantifies against.
//!
//! A port's interval is two adjacent `⌈log₂(n + 1)⌉`-bit fields, `lo` then
//! `hi`, so a hop reads each port it tests in one word and reduces only a
//! stored `n` modulo `n`: no division per field.

use ort_bitio::{bits_to_index, BitReader, BitWriter};
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::Distances;
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId};

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};

/// The 1-interval routing scheme over a DFS spanning tree.
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::interval::IntervalScheme;
/// use ort_routing::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::grid(4, 4);
/// let dists = Apsp::compute(&g);
/// let scheme = IntervalScheme::build(&g, &dists)?;
/// let report = verify::verify(&g, &scheme, &dists, 1)?;
/// assert!(report.all_delivered());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IntervalScheme {
    tables: Tables,
}

impl IntervalScheme {
    /// Builds the scheme over a DFS tree rooted at node 0, relabelling
    /// nodes by preorder (model β). The DFS-tree construction is purely
    /// adjacency-based; the exact oracle `dists` contributes only its
    /// connectivity bit (row 0), so a banded oracle's peak distance
    /// memory stays one band.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Disconnected`] if `g` is disconnected,
    /// [`SchemeError::ApproximateOracle`] for inexact oracles, and a
    /// precondition error on an empty graph or an oracle/graph size
    /// mismatch.
    pub fn build(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        let n = g.node_count();
        if n == 0 {
            return Err(SchemeError::Precondition { reason: "empty graph".into() });
        }
        crate::schemes::check_exact_oracle(g, dists)?;
        // Iterative DFS from node 0: preorder numbers and subtree sizes.
        let mut pre = vec![usize::MAX; n];
        let mut size = vec![1usize; n];
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut order = Vec::with_capacity(n);
        let mut counter = 0usize;
        let mut stack = vec![(0usize, 0usize)]; // (node, next neighbor index)
        pre[0] = 0;
        counter += 1;
        order.push(0);
        while let Some(top) = stack.last_mut() {
            let (u, i) = (top.0, top.1);
            let nbrs = g.neighbors(u);
            if i < nbrs.len() {
                let v = nbrs[i];
                top.1 += 1;
                if pre[v] == usize::MAX {
                    pre[v] = counter;
                    counter += 1;
                    order.push(v);
                    parent[v] = Some(u);
                    stack.push((v, 0));
                }
            } else {
                stack.pop();
                if let Some(p) = parent[u] {
                    size[p] += size[u];
                }
            }
        }
        debug_assert_eq!(counter, n);

        let labeling = Labeling::permutation(pre.clone())
            .map_err(|_| SchemeError::Precondition { reason: "preorder not a bijection".into() })?;
        let ports = PortAssignment::sorted(g);
        let width = bits_to_index(n as u64 + 1);
        let mut bits = Vec::with_capacity(n);
        for u in 0..n {
            let mut w = BitWriter::new();
            for p in 0..ports.degree(u) {
                let v = ports.neighbor_at(u, p).expect("port in range");
                let (lo, hi) = if parent[v] == Some(u) {
                    // Child subtree: [pre(v), pre(v) + size(v)).
                    (pre[v], pre[v] + size[v])
                } else if parent[u] == Some(v) {
                    // Parent port: cyclic complement of u's own subtree.
                    ((pre[u] + size[u]) % n, pre[u])
                } else {
                    // Non-tree edge: empty interval (lo == hi == pre(u),
                    // which can never match because pre(u) is "deliver").
                    (pre[u], pre[u])
                };
                w.write_bits(lo as u64, width)?;
                w.write_bits(hi as u64, width)?;
            }
            bits.push(w.finish());
        }
        Ok(IntervalScheme { tables: Tables { bits, labeling, ports } })
    }
}

/// Whether `x` lies in the cyclic interval `[lo, hi)` modulo `n`.
fn in_cyclic(lo: usize, hi: usize, x: usize) -> bool {
    if lo == hi {
        return false; // empty by convention
    }
    if lo < hi {
        (lo..hi).contains(&x)
    } else {
        x >= lo || x < hi
    }
}

impl RoutingScheme for IntervalScheme {
    fn model(&self) -> Model {
        // Neighbours are not consulted: interval routing runs fine with
        // free ports only (IB); labels are permuted (β).
        Model::new(Knowledge::PortsFree, Relabeling::Permutation)
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
        let n = env.n.max(1) as u64;
        // Stored values lie in `0..=n`, so only `n` itself wraps; wrapping
        // just the values `≥ n` gives `x % n` on any bit string.
        let wrap = |x: u64| (if x < n { x } else { x % n }) as usize;
        let width = bits_to_index(env.n as u64 + 1);
        let mask = (1u64 << width.min(32)) - 1;
        let mut r = BitReader::new(bits);
        for port in 0..env.degree {
            // A port's `lo` and `hi` are adjacent `width`-bit fields, so
            // one read gets both whenever they fit a word, as they do for
            // every n < 2³². A short table fails as reading the fields one
            // at a time would: both errors report the table's length.
            let (lo, hi) = if width <= 32 {
                let pair = r.read_bits(2 * width)?;
                (pair >> width, pair & mask)
            } else {
                (r.read_bits(width)?, r.read_bits(width)?)
            };
            if in_cyclic(wrap(lo), wrap(hi), dest_l) {
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
    use ort_bitio::BitVec;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn delivers_on_assorted_graphs() {
        for (g, name) in [
            (generators::path(12), "path"),
            (generators::cycle(11), "cycle"),
            (generators::grid(4, 5), "grid"),
            (generators::star(9), "star"),
            (generators::gnp_half(24, 2), "gnp"),
            (generators::gb_graph(4), "gb"),
            (generators::complete(6), "k6"),
        ] {
            let dists = Apsp::compute(&g);
            let scheme = IntervalScheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered(), "{name}: {:?}", report.failures.first());
        }
    }

    #[test]
    fn exact_on_trees() {
        // On a tree the tree path is the shortest path.
        let g = generators::path(10);
        let dists = Apsp::compute(&g);
        let scheme = IntervalScheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.is_shortest_path());
        let star = generators::star(10);
        let dists = Apsp::compute(&star);
        let scheme = IntervalScheme::build(&star, &dists).unwrap();
        assert!(verify(&star, &scheme, &dists, 1).unwrap().is_shortest_path());
    }

    #[test]
    fn stretch_can_exceed_constant_on_cycles() {
        // C_n routed over a spanning path has stretch ~n-1.
        let g = generators::cycle(16);
        let dists = Apsp::compute(&g);
        let scheme = IntervalScheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        assert!(report.all_delivered());
        assert!(report.max_stretch().unwrap() >= 3.0);
    }

    #[test]
    fn size_is_two_words_per_port() {
        let g = generators::gnp_half(32, 6);
        let scheme = IntervalScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let width = bits_to_index(33) as usize;
        for u in 0..32 {
            assert_eq!(scheme.node_size_bits(u), 2 * width * g.degree(u));
        }
    }

    #[test]
    fn labels_are_a_permutation() {
        let g = generators::gnp_half(20, 1);
        let scheme = IntervalScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut seen = [false; 20];
        for u in 0..20 {
            let Label::Minimal(l) = scheme.label_of(u) else { panic!() };
            assert!(!seen[l]);
            seen[l] = true;
        }
        assert_eq!(scheme.model().to_string(), "IB∧β");
    }

    #[test]
    fn cyclic_interval_logic() {
        assert!(in_cyclic(2, 5, 3));
        assert!(!in_cyclic(2, 5, 5));
        assert!(in_cyclic(5, 2, 6));
        assert!(in_cyclic(5, 2, 1));
        assert!(!in_cyclic(5, 2, 3));
        assert!(!in_cyclic(4, 4, 4), "empty interval");
    }

    /// Interval routing's hop as it read each port before the one-word
    /// read: two field reads, each value reduced modulo n. The reference
    /// `route_at` must match on every input.
    fn reference_route(
        scheme: &IntervalScheme,
        u: NodeId,
        env: &NodeEnv<'_>,
        dest: &Label,
    ) -> Result<RouteDecision, RouteError> {
        let bits = scheme.tables.node(u)?;
        let Label::Minimal(dest_l) = *dest else {
            return Err(RouteError::MissingInformation { what: "minimal destination label" });
        };
        let LabelRef::Minimal(own) = env.label else {
            return Err(RouteError::MissingInformation { what: "minimal own label" });
        };
        if dest_l == own {
            return Ok(RouteDecision::Deliver);
        }
        let width = bits_to_index(env.n as u64 + 1);
        let mut r = BitReader::new(bits);
        for port in 0..env.degree {
            let lo = r.read_bits(width)? as usize;
            let hi = r.read_bits(width)? as usize;
            if in_cyclic(lo % env.n.max(1), hi % env.n.max(1), dest_l) {
                return Ok(RouteDecision::Forward(port));
            }
        }
        Err(RouteError::UnknownDestination)
    }

    /// Every node's decision toward every label in `0..n + 2` (two past
    /// the end), and a non-minimal one, equals the reference's.
    fn assert_matches_reference(scheme: &IntervalScheme, what: &str) {
        let n = scheme.node_count();
        let mut state = MessageState::default();
        for u in 0..n {
            let env = scheme.node_env(u);
            let dests = (0..n + 2).map(Label::Minimal).chain([Label::Bits(BitVec::new())]);
            for dest in dests {
                assert_eq!(
                    scheme.route_at(u, &env, &dest, &mut state),
                    reference_route(scheme, u, &env, &dest),
                    "{what}: {u} → {dest}"
                );
            }
        }
        let env = scheme.node_env(0);
        let dest = Label::Minimal(1);
        assert_eq!(
            scheme.route_at(n, &env, &dest, &mut state),
            reference_route(scheme, n, &env, &dest),
            "{what}: a node out of range"
        );
    }

    /// `scheme` with every node's table replaced by `edit(u, table)`.
    fn with_tables(
        scheme: &IntervalScheme,
        mut edit: impl FnMut(NodeId, &BitVec) -> BitVec,
    ) -> IntervalScheme {
        let bits = scheme.tables.bits.iter().enumerate().map(|(u, b)| edit(u, b)).collect();
        IntervalScheme { tables: Tables { bits, ..scheme.tables.clone() } }
    }

    /// A deterministic stream of words for the noise tables.
    fn lcg(state: &mut u64) -> u64 {
        *state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *state >> 11
    }

    #[test]
    fn decisions_match_the_field_by_field_rule() {
        let graphs = [
            (generators::path(12), "path"),
            (generators::cycle(11), "cycle"),
            (generators::grid(4, 5), "grid"),
            (generators::star(9), "star"),
            (generators::gnp_half(24, 2), "gnp"),
            (generators::power_law_seeded(64, 2, 2.5, 1), "power law"),
        ];
        let mut hi_is_n = false;
        for (g, name) in graphs {
            let n = g.node_count();
            let scheme = IntervalScheme::build(&g, &Apsp::compute(&g)).unwrap();
            assert_matches_reference(&scheme, name);
            let width = bits_to_index(n as u64 + 1);
            for u in 0..n {
                let mut r = BitReader::new(scheme.node_bits(u));
                for _ in 0..2 * g.degree(u) {
                    hi_is_n |= r.read_bits(width).unwrap() == n as u64;
                }
            }
            // Every single flipped bit, at every node at once.
            let longest = scheme.tables.bits.iter().map(BitVec::len).max().unwrap();
            for i in 0..longest {
                let flipped = with_tables(&scheme, |_, b| {
                    let mut b = b.clone();
                    if let Some(bit) = b.get(i) {
                        b.set(i, !bit);
                    }
                    b
                });
                assert_matches_reference(&flipped, &format!("{name}, bit {i} flipped"));
            }
            // Every truncation length, including tables cut mid-field.
            for cut in 0..longest {
                let short = with_tables(&scheme, |_, b| {
                    (0..cut.min(b.len())).map(|i| b.get(i) == Some(true)).collect()
                });
                assert_matches_reference(&short, &format!("{name}, cut to {cut} bits"));
            }
            // Tables of noise: fields anywhere in 0..2^w, so from n up to
            // 2^w − 1 as well, at each table's own length.
            let mut state = n as u64;
            for round in 0..8 {
                let noise = with_tables(&scheme, |_, b| {
                    (0..b.len()).map(|_| lcg(&mut state) & 1 == 1).collect()
                });
                assert_matches_reference(&noise, &format!("{name}, noise round {round}"));
            }
        }
        assert!(hi_is_n, "some table stores hi = n");
    }

    /// Environments no scheme grants, one for each width regime: n = 0,
    /// a width of exactly 32 bits, and widths past 32 that one word
    /// cannot hold twice.
    #[test]
    fn decisions_match_the_field_by_field_rule_under_any_node_count() {
        let g = generators::star(5);
        let scheme = IntervalScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut state = 7u64;
        let noise =
            with_tables(&scheme, |_, _| (0..300).map(|_| lcg(&mut state) & 1 == 1).collect());
        let mut msg = MessageState::default();
        for n in [0, 1, 2, (1usize << 32) - 1, 1 << 32, 1 << 33, usize::MAX >> 1] {
            for degree in 0..5 {
                let env = NodeEnv { n, label: LabelRef::Minimal(2), degree, neighbor_labels: None };
                for dest in [0, 1, 2, 3, 7, 1 << 20, (1 << 33) + 5] {
                    let dest = Label::Minimal(dest);
                    for u in 0..5 {
                        assert_eq!(
                            noise.route_at(u, &env, &dest, &mut msg),
                            reference_route(&noise, u, &env, &dest),
                            "n = {n}, degree {degree}, {u} → {dest}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let disconnected = IntervalScheme::build(&g, &Apsp::compute(&g));
        assert!(matches!(disconnected, Err(SchemeError::Disconnected)));
    }
}
