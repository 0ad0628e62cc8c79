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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RoutingScheme;
    use crate::verify::verify;
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

    #[test]
    fn rejects_disconnected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let disconnected = IntervalScheme::build(&g, &Apsp::compute(&g));
        assert!(matches!(disconnected, Err(SchemeError::Disconnected)));
    }
}
