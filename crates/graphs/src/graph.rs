use std::error::Error;
use std::fmt;

use ort_bitio::{BitReader, BitVec, BitWriter, CodeError};

/// Identifier of a node: an index in `0..n`.
///
/// The paper labels nodes `1..n`; we use the zero-based equivalent
/// throughout and convert only when printing.
pub type NodeId = usize;

/// Error produced by graph construction and the `E(G)` codec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node id was `≥ n`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The graph order.
        n: usize,
    },
    /// Self loops are not representable in `E(G)` and are rejected.
    SelfLoop {
        /// The node with the attempted self loop.
        node: NodeId,
    },
    /// The bit string fed to [`Graph::from_edge_bits`] has the wrong length.
    BadEncodingLength {
        /// Expected `n(n-1)/2`.
        expected: usize,
        /// Actual length supplied.
        actual: usize,
    },
    /// A bit-level decoding failure.
    Code(CodeError),
    /// [`Graph::remove_node`] was asked to remove a node that still has
    /// incident edges.
    NodeNotIsolated {
        /// The node that was not isolated.
        node: NodeId,
        /// Its remaining degree.
        degree: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph on {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self loop at node {node}"),
            GraphError::BadEncodingLength { expected, actual } => {
                write!(f, "E(G) encoding has {actual} bits, expected {expected}")
            }
            GraphError::Code(e) => write!(f, "encoding error: {e}"),
            GraphError::NodeNotIsolated { node, degree } => {
                write!(f, "node {node} still has degree {degree}; detach it before removal")
            }
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for GraphError {
    fn from(e: CodeError) -> Self {
        GraphError::Code(e)
    }
}

/// An undirected simple graph on nodes `0..n`.
///
/// The graph is its **sorted adjacency lists** and nothing else, so it
/// takes O(n + m) memory: the order of `neighbors(u)` defines the paper's
/// "least directly adjacent nodes" (Lemma 3) and the default port
/// numbering. [`Graph::has_edge`] is a binary search in the shorter of two
/// lists. Whatever reads a node's adjacency as a bit string — the
/// interconnection vector ([`Graph::write_interconnection`]), the
/// canonical `E(G)` encoding of Definition 2 ([`Graph::to_edge_bits`]),
/// [`Graph::non_neighbors`], the graph6 writer — is one merge over the
/// node's list ([`Graph::adjacency_bits`]). A builder that asks, for each
/// non-neighbour of a node, which of the node's neighbours it touches
/// uses [`Relays`], an n-entry mask reused from node to node.
///
/// # Example
///
/// ```
/// use ort_graphs::Graph;
///
/// # fn main() -> Result<(), ort_graphs::GraphError> {
/// let mut g = Graph::empty(4);
/// g.add_edge(0, 1)?;
/// g.add_edge(1, 3)?;
/// assert!(g.has_edge(1, 0));
/// assert_eq!(g.neighbors(1), &[0, 3]);
/// assert_eq!(g.edge_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<NodeId>>,
    edges: usize,
}

impl Graph {
    /// Creates an edgeless graph on `n` nodes.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Graph { n, adj: vec![Vec::new(); n], edges: 0 }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`]
    /// for invalid edges; duplicate edges are idempotent.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let mut g = Graph::empty(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n
    }

    /// Whether nodes `u` and `v` are adjacent: a binary search in the
    /// shorter of their two lists, O(log min(d(u), d(v))). Out-of-range
    /// queries return `false`; `has_edge(u, u)` is always `false`. A loop
    /// over many pairs sharing a node should merge over that node's list
    /// ([`Graph::adjacency_bits`]) or mark it in [`Relays`] instead.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.n || v >= self.n {
            return false;
        }
        let (a, b) = if self.adj[u].len() <= self.adj[v].len() { (u, v) } else { (v, u) };
        self.adj[a].binary_search(&b).is_ok()
    }

    /// The sorted neighbour list of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n`.
    #[must_use]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u]
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n`.
    #[must_use]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u].len()
    }

    /// The sorted list of non-neighbours of `u` (excluding `u` itself) —
    /// the paper's set `A₀` in the Theorem 1 construction.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n`.
    #[must_use]
    pub fn non_neighbors(&self, u: NodeId) -> Vec<NodeId> {
        self.adjacency_bits(u)
            .enumerate()
            .filter(|&(v, adjacent)| v != u && !adjacent)
            .map(|(v, _)| v)
            .collect()
    }

    /// `u`'s adjacency as `n` bits, one per node `v` in ascending order,
    /// `true` iff `{u, v} ∈ E` (the self-bit is `false`): one merge over
    /// `u`'s sorted list, O(n) for the whole row.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n`.
    pub fn adjacency_bits(&self, u: NodeId) -> impl Iterator<Item = bool> + '_ {
        let mut nbrs = self.adj[u].iter().peekable();
        (0..self.n).map(move |v| nbrs.next_if_eq(&&v).is_some())
    }

    /// Writes `u`'s "standard interconnection vector", the `n − 1` bits
    /// the paper codes a node's neighbourhood in: bit `v` for every
    /// `v ≠ u` in ascending order, 1 iff `{u, v} ∈ E`.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n`.
    pub fn write_interconnection(&self, u: NodeId, w: &mut BitWriter) {
        for (v, adjacent) in self.adjacency_bits(u).enumerate() {
            if v != u {
                w.write_bit(adjacent);
            }
        }
    }

    /// Every non-adjacent pair `(u, v)` with `u < v`, in the canonical
    /// lexicographic order of Definition 2: one merge per node.
    pub fn non_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.adjacency_bits(u)
                .enumerate()
                .skip(u + 1)
                .filter(|&(_, adjacent)| !adjacent)
                .map(move |(v, _)| (u, v))
        })
    }

    /// The smallest common neighbour of `u` and `v`, if any. On a
    /// diameter-2 graph this is the canonical length-2 relay node.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is `≥ n`.
    #[must_use]
    pub fn common_neighbor(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.adj[u], &self.adj[v]);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Some(a[i]),
            }
        }
        None
    }

    /// Adds the edge `{u, v}`. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.check_pair(u, v)?;
        let Err(pos) = self.adj[u].binary_search(&v) else {
            return Ok(());
        };
        self.adj[u].insert(pos, v);
        let pos = self.adj[v].binary_search(&u).expect_err("lists are symmetric");
        self.adj[v].insert(pos, u);
        self.edges += 1;
        Ok(())
    }

    /// Removes the edge `{u, v}`. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.check_pair(u, v)?;
        let Ok(pos) = self.adj[u].binary_search(&v) else {
            return Ok(());
        };
        self.adj[u].remove(pos);
        let pos = self.adj[v].binary_search(&u).expect("lists are symmetric");
        self.adj[v].remove(pos);
        self.edges -= 1;
        Ok(())
    }

    /// Appends a fresh isolated node and returns its id (`n` before the
    /// call). Churn plans use this to express a join: add the node, then
    /// attach its links with [`Graph::add_edge`].
    pub fn add_node(&mut self) -> NodeId {
        let id = self.n;
        self.n += 1;
        self.adj.push(Vec::new());
        id
    }

    /// Removes node `u`, which must be isolated (degree 0) — detach its
    /// links first, exactly as a leaving router withdraws its adjacencies
    /// before disappearing. Every node id above `u` shifts down by one, so
    /// adjacency lists stay sorted and port numbering (sorted neighbour
    /// order) stays consistent with the surviving ids.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if `u ≥ n` and
    /// [`GraphError::NodeNotIsolated`] if `u` still has incident edges.
    pub fn remove_node(&mut self, u: NodeId) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        let degree = self.adj[u].len();
        if degree != 0 {
            return Err(GraphError::NodeNotIsolated { node: u, degree });
        }
        self.adj.remove(u);
        self.n -= 1;
        for v in self.adj.iter_mut().flatten() {
            debug_assert_ne!(*v, u, "isolated node had a back-reference");
            if *v > u {
                *v -= 1;
            }
        }
        Ok(())
    }

    fn check_pair(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        Ok(())
    }

    /// Iterates over all edges as `(u, v)` with `u < v`, in the canonical
    /// lexicographic order of Definition 2.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.adj[u].iter().copied().filter(move |&v| v > u).map(move |v| (u, v))
        })
    }

    /// The complement graph (every non-edge becomes an edge).
    #[must_use]
    pub fn complement(&self) -> Graph {
        Graph::from_edges(self.n, self.non_edges()).expect("valid pairs")
    }

    /// Position of edge `{u, v}` in the canonical lexicographic enumeration
    /// of all `n(n-1)/2` node pairs (Definition 2): pairs are ordered
    /// `(0,1), (0,2), …, (0,n-1), (1,2), …`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either is `≥ n`.
    #[must_use]
    pub fn edge_index(n: usize, u: NodeId, v: NodeId) -> usize {
        assert!(u != v && u < n && v < n, "invalid pair ({u},{v}) for n={n}");
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        // Pairs starting with 0..a contribute (n-1) + (n-2) + ... + (n-a).
        a * (2 * n - a - 1) / 2 + (b - a - 1)
    }

    /// Inverse of [`Graph::edge_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ n(n-1)/2`.
    #[must_use]
    pub fn index_to_edge(n: usize, index: usize) -> (NodeId, NodeId) {
        assert!(index < n * (n - 1) / 2, "edge index {index} out of range");
        let mut a = 0usize;
        let mut base = 0usize;
        loop {
            let row = n - a - 1;
            if index < base + row {
                return (a, a + 1 + (index - base));
            }
            base += row;
            a += 1;
        }
    }

    /// Number of bits in the canonical encoding of a graph on `n` nodes.
    #[must_use]
    pub fn encoding_len(n: usize) -> usize {
        n * n.saturating_sub(1) / 2
    }

    /// Encodes the graph as the canonical `n(n-1)/2`-bit string `E(G)` of
    /// Definition 2: bit `i` is 1 iff the `i`-th pair in lexicographic
    /// order is an edge.
    #[must_use]
    pub fn to_edge_bits(&self) -> BitVec {
        let mut bits = BitVec::with_capacity(Self::encoding_len(self.n));
        for u in 0..self.n {
            for adjacent in self.adjacency_bits(u).skip(u + 1) {
                bits.push(adjacent);
            }
        }
        bits
    }

    /// Decodes a graph from its canonical encoding.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadEncodingLength`] if `bits` is not exactly
    /// `n(n-1)/2` bits long.
    pub fn from_edge_bits(n: usize, bits: &BitVec) -> Result<Self, GraphError> {
        let expected = Self::encoding_len(n);
        if bits.len() != expected {
            return Err(GraphError::BadEncodingLength { expected, actual: bits.len() });
        }
        let mut g = Graph::empty(n);
        let mut i = 0usize;
        for u in 0..n {
            for v in u + 1..n {
                if bits.get(i) == Some(true) {
                    g.add_edge(u, v)?;
                }
                i += 1;
            }
        }
        Ok(g)
    }

    /// Writes `E(G)` to a bit writer (prefixed by nothing; the length is
    /// implied by `n`, which the paper always supplies "given n").
    pub fn write_edge_bits(&self, w: &mut BitWriter) {
        w.write_bitvec(&self.to_edge_bits());
    }

    /// Reads `E(G)` for a graph on `n` nodes from a bit reader.
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`CodeError`] on truncated input.
    pub fn read_edge_bits(r: &mut BitReader<'_>, n: usize) -> Result<Self, GraphError> {
        let bits = r.read_bitvec(Self::encoding_len(n))?;
        Graph::from_edge_bits(n, &bits)
    }

    /// Returns a graph with nodes renamed by `perm` (node `u` becomes
    /// `perm[u]`). `perm` must be a permutation of `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n`.
    #[must_use]
    pub fn relabel(&self, perm: &[NodeId]) -> Graph {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        ort_bitio::lehmer::validate_permutation(perm).expect("valid permutation");
        let mut g = Graph::empty(self.n);
        for (u, v) in self.edges() {
            g.add_edge(perm[u], perm[v]).expect("valid pair");
        }
        g
    }
}

/// For one node `u` at a time, the *least relay* toward each non-neighbour
/// `x` of `u`: `u`'s least neighbour adjacent to `x`, the middle of the
/// canonical length-2 path `u → v → x` that Lemma 3 and the Theorem 1, 2
/// and 5 constructions pick.
///
/// [`Relays::set`] marks `u`'s neighbours in an n-entry table with their
/// rank (position in `u`'s sorted list) and clears the previous node's
/// marks; [`Relays::least`] scans `x`'s sorted list for its first marked
/// entry. Lists ascend and so do ranks, so that entry is the least relay.
/// One table serves a sweep over every node, so the sweep costs O(n) once
/// plus O(d) a node to mark, plus the scans, and asks no per-pair
/// adjacency query.
///
/// # Example
///
/// ```
/// use ort_graphs::{Graph, Relays};
///
/// # fn main() -> Result<(), ort_graphs::GraphError> {
/// // 0's neighbours are 1 and 2; 3 hangs off 2, 4 off nothing.
/// let g = Graph::from_edges(5, [(0, 1), (0, 2), (2, 3)])?;
/// let mut relays = Relays::new(&g);
/// relays.set(0);
/// assert_eq!(relays.rank(2), Some(1));
/// assert_eq!(relays.least(3), Some(1)); // 0 → 2 → 3
/// let far: Vec<_> = relays.non_neighbors().collect();
/// assert_eq!(far, vec![(3, Some(1)), (4, None)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Relays<'g> {
    g: &'g Graph,
    /// `marks[v] = i + 1` if `v` is the set node's `i`-th neighbour, else 0.
    marks: Vec<u32>,
    node: Option<NodeId>,
}

impl<'g> Relays<'g> {
    /// An unmarked table over `g`'s nodes; no node is set yet.
    #[must_use]
    pub fn new(g: &'g Graph) -> Self {
        Relays { g, marks: vec![0; g.node_count()], node: None }
    }

    /// The graph the table answers for.
    #[must_use]
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Makes `u` the node the table answers for: unmarks the previous
    /// node's neighbours and marks `u`'s, O(d) each.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n`.
    pub fn set(&mut self, u: NodeId) {
        if self.node == Some(u) {
            return;
        }
        if let Some(prev) = self.node.take() {
            for &v in self.g.neighbors(prev) {
                self.marks[v] = 0;
            }
        }
        for (i, &v) in self.g.neighbors(u).iter().enumerate() {
            self.marks[v] = u32::try_from(i + 1).expect("degree fits u32");
        }
        self.node = Some(u);
    }

    /// `v`'s rank in the set node's sorted neighbour list, or `None` if
    /// `v` is not its neighbour (or no node is set).
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ n`.
    #[must_use]
    pub fn rank(&self, v: NodeId) -> Option<usize> {
        (self.marks[v] as usize).checked_sub(1)
    }

    /// The rank of `x`'s least relay: the first entry of `x`'s sorted list
    /// that neighbours the set node, or `None` if the two share no
    /// neighbour.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ n`.
    #[must_use]
    pub fn least(&self, x: NodeId) -> Option<usize> {
        self.g.neighbors(x).iter().find_map(|&v| self.rank(v))
    }

    /// Each non-neighbour `x` of the set node (itself excluded), ascending,
    /// with the rank of its least relay ([`Relays::least`]).
    ///
    /// # Panics
    ///
    /// Panics if no node is set.
    pub fn non_neighbors(&self) -> impl Iterator<Item = (NodeId, Option<usize>)> + '_ {
        let u = self.node.expect("Relays::set names a node first");
        (0..self.marks.len())
            .filter(move |&x| x != u && self.marks[x] == 0)
            .map(move |x| (x, self.least(x)))
    }

    /// The least non-neighbour that *escapes* the set node's `t`-prefix
    /// (Lemma 3): the first with no relay among the node's `t` least
    /// neighbours, or `None` if the prefix dominates.
    ///
    /// # Panics
    ///
    /// Panics if no node is set.
    #[must_use]
    pub fn escapee(&self, t: usize) -> Option<NodeId> {
        self.non_neighbors().find(|&(_, relay)| relay.is_none_or(|r| r >= t)).map(|(x, _)| x)
    }

    /// The set node's shortest *dominating prefix* (Lemma 3): the smallest
    /// `t` such that every non-neighbour has a relay among the node's `t`
    /// least neighbours, or `None` if some non-neighbour has none
    /// (distance > 2).
    ///
    /// # Panics
    ///
    /// Panics if no node is set.
    #[must_use]
    pub fn dominating_prefix_len(&self) -> Option<usize> {
        self.non_neighbors().try_fold(0, |t, (_, relay)| relay.map(|r| t.max(r + 1)))
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n, self.edges)
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph on {} nodes, {} edges", self.n, self.edges)?;
        for u in 0..self.n {
            writeln!(f, "  {u}: {:?}", self.adj[u])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(0, 1));
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Graph::empty(4);
        g.add_edge(0, 2).unwrap();
        g.add_edge(2, 0).unwrap(); // idempotent, reversed
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
        assert_eq!(g.neighbors(2), &[0]);
        g.remove_edge(0, 2).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(0, 2));
        g.remove_edge(0, 2).unwrap(); // idempotent
    }

    #[test]
    fn add_node_appends_isolated_id() {
        let mut g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let id = g.add_node();
        assert_eq!(id, 3);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.degree(3), 0);
        assert!(!g.has_edge(3, 0));
        // Old adjacency is untouched.
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && !g.has_edge(0, 2));
        // The new node is fully usable.
        g.add_edge(3, 0).unwrap();
        assert_eq!(g.neighbors(3), &[0]);
        assert!(g.adjacency_bits(3).eq([true, false, false, false]));
        assert!(g.adjacency_bits(0).eq([false, true, false, true]));
    }

    #[test]
    fn remove_node_shifts_ids_down() {
        // Path 0-1-2-3-4; detach and remove node 2; survivors renumber.
        let mut g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        g.remove_edge(1, 2).unwrap();
        g.remove_edge(2, 3).unwrap();
        g.remove_node(2).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        // Old nodes 3,4 are now 2,3: edges {0,1} and {2,3} survive.
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.neighbors(2), &[3]);
        // Bit rows shrank with the graph and match the renumbered lists.
        for u in g.nodes() {
            assert_eq!(g.adjacency_bits(u).count(), 4);
            for (v, adjacent) in g.adjacency_bits(u).enumerate() {
                assert_eq!(adjacent, g.neighbors(u).contains(&v));
                assert_eq!(g.has_edge(u, v), adjacent);
            }
        }
        // Round-trips through the canonical encoding like any other graph.
        let bits = g.to_edge_bits();
        assert_eq!(Graph::from_edge_bits(4, &bits).unwrap(), g);
    }

    #[test]
    fn remove_node_equals_from_scratch_construction() {
        let mut g = Graph::from_edges(6, [(0, 5), (1, 4), (2, 3), (0, 2), (4, 5)]).unwrap();
        g.remove_edge(2, 3).unwrap();
        g.remove_edge(0, 2).unwrap();
        g.remove_node(2).unwrap();
        // Same edges written against the shifted ids, built fresh.
        let fresh = Graph::from_edges(5, [(0, 4), (1, 3), (3, 4)]).unwrap();
        assert_eq!(g, fresh);
    }

    #[test]
    fn remove_node_rejects_non_isolated_and_out_of_range() {
        let mut g = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert!(matches!(
            g.remove_node(0),
            Err(GraphError::NodeNotIsolated { node: 0, degree: 1 })
        ));
        assert!(matches!(g.remove_node(3), Err(GraphError::NodeOutOfRange { node: 3, n: 3 })));
        // Node 2 is isolated; removal succeeds and leaves the edge intact.
        g.remove_node(2).unwrap();
        assert_eq!(g.node_count(), 2);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn join_then_leave_roundtrip() {
        let base = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut g = base.clone();
        let id = g.add_node();
        g.add_edge(id, 0).unwrap();
        g.add_edge(id, 2).unwrap();
        g.remove_edge(id, 0).unwrap();
        g.remove_edge(id, 2).unwrap();
        g.remove_node(id).unwrap();
        assert_eq!(g, base);
    }

    #[test]
    fn invalid_edges_rejected() {
        let mut g = Graph::empty(3);
        assert!(matches!(g.add_edge(0, 3), Err(GraphError::NodeOutOfRange { .. })));
        assert!(matches!(g.add_edge(1, 1), Err(GraphError::SelfLoop { .. })));
    }

    #[test]
    fn neighbors_stay_sorted() {
        let mut g = Graph::empty(6);
        for v in [4, 1, 5, 2] {
            g.add_edge(3, v).unwrap();
        }
        assert_eq!(g.neighbors(3), &[1, 2, 4, 5]);
        assert_eq!(g.degree(3), 4);
    }

    #[test]
    fn interconnection_vector_skips_the_self_bit() {
        let g = Graph::from_edges(5, [(2, 0), (2, 4), (1, 3)]).unwrap();
        let mut w = BitWriter::new();
        g.write_interconnection(2, &mut w);
        assert_eq!(w.finish(), BitVec::from_bit_str("1001"));
        let mut w = BitWriter::new();
        g.write_interconnection(0, &mut w);
        assert_eq!(w.finish(), BitVec::from_bit_str("0100"));
    }

    #[test]
    fn non_edges_are_the_complement_in_canonical_order() {
        let g = Graph::from_edges(4, [(0, 1), (1, 3), (2, 3)]).unwrap();
        let non: Vec<_> = g.non_edges().collect();
        assert_eq!(non, vec![(0, 2), (0, 3), (1, 2)]);
        assert_eq!(g.complement().edges().collect::<Vec<_>>(), non);
    }

    #[test]
    fn relays_find_the_least_common_neighbour_by_rank() {
        // 0 ~ {1, 2, 3}; 4 ~ {2, 3}; 5 ~ {1}; 6 isolated.
        let g = Graph::from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 2), (4, 3), (5, 1)]).unwrap();
        let mut relays = Relays::new(&g);
        relays.set(0);
        assert_eq!(relays.rank(1), Some(0));
        assert_eq!(relays.rank(3), Some(2));
        assert_eq!(relays.rank(4), None);
        assert_eq!(relays.least(4), Some(1));
        let all: Vec<_> = relays.non_neighbors().collect();
        assert_eq!(all, vec![(4, Some(1)), (5, Some(0)), (6, None)]);
        assert_eq!(relays.dominating_prefix_len(), None);
        // Moving to another node clears the old marks.
        relays.set(4);
        assert_eq!(relays.rank(1), None);
        assert_eq!(relays.rank(3), Some(1));
        assert_eq!(relays.non_neighbors().map(|(x, _)| x).collect::<Vec<_>>(), vec![0, 1, 5, 6]);
        assert_eq!(relays.least(0), Some(0));
        let mut star = Relays::new(&g);
        star.set(2);
        assert_eq!(star.least(4), None, "4 is 2's neighbour, and they share none");
    }

    #[test]
    fn non_neighbors_complement_neighbors() {
        let g = Graph::from_edges(5, [(0, 1), (0, 3)]).unwrap();
        assert_eq!(g.non_neighbors(0), vec![2, 4]);
        assert_eq!(g.non_neighbors(2), vec![0, 1, 3, 4]);
    }

    #[test]
    fn edge_iteration_is_lexicographic() {
        let g = Graph::from_edges(4, [(2, 3), (0, 1), (1, 3), (0, 2)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn edge_index_bijection() {
        for n in [2usize, 3, 5, 10, 33] {
            let mut seen = vec![false; n * (n - 1) / 2];
            for u in 0..n {
                for v in u + 1..n {
                    let i = Graph::edge_index(n, u, v);
                    assert_eq!(Graph::edge_index(n, v, u), i, "symmetric");
                    assert!(!seen[i], "duplicate index {i}");
                    seen[i] = true;
                    assert_eq!(Graph::index_to_edge(n, i), (u, v));
                }
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn edge_index_order_matches_encoding_order() {
        // Definition 2: bit i of E(G) corresponds to pair index i.
        let g = Graph::from_edges(5, [(0, 4), (2, 3)]).unwrap();
        let bits = g.to_edge_bits();
        for u in 0..5 {
            for v in u + 1..5 {
                assert_eq!(
                    bits.get(Graph::edge_index(5, u, v)),
                    Some(g.has_edge(u, v)),
                    "pair ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn edge_bits_roundtrip() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 6), (3, 5), (0, 6)]).unwrap();
        let bits = g.to_edge_bits();
        assert_eq!(bits.len(), Graph::encoding_len(7));
        let g2 = Graph::from_edge_bits(7, &bits).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_bits_wrong_length_rejected() {
        let bits = BitVec::zeros(5);
        assert!(matches!(
            Graph::from_edge_bits(4, &bits),
            Err(GraphError::BadEncodingLength { expected: 6, actual: 5 })
        ));
    }

    #[test]
    fn edge_bits_stream_roundtrip() {
        let g = Graph::from_edges(6, [(0, 5), (1, 4), (2, 3)]).unwrap();
        let mut w = BitWriter::new();
        w.write_bit(true); // leading noise
        g.write_edge_bits(&mut w);
        w.write_bit(false); // trailing noise
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert!(r.read_bit().unwrap());
        let g2 = Graph::read_edge_bits(&mut r, 6).unwrap();
        assert_eq!(g, g2);
        assert!(!r.read_bit().unwrap());
    }

    #[test]
    fn complement_involution() {
        let g = Graph::from_edges(6, [(0, 1), (2, 5), (3, 4), (1, 4)]).unwrap();
        assert_eq!(g.complement().complement(), g);
        let total = 6 * 5 / 2;
        assert_eq!(g.complement().edge_count(), total - g.edge_count());
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap(); // path
        let perm = vec![3, 1, 0, 2];
        let h = g.relabel(&perm);
        assert_eq!(h.edge_count(), 3);
        for (u, v) in g.edges() {
            assert!(h.has_edge(perm[u], perm[v]));
        }
        // Degrees are permuted, multiset preserved.
        let mut dg: Vec<_> = g.nodes().map(|u| g.degree(u)).collect();
        let mut dh: Vec<_> = h.nodes().map(|u| h.degree(u)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relabel_rejects_non_permutation() {
        let g = Graph::empty(3);
        let _ = g.relabel(&[0, 0, 1]);
    }

    #[test]
    fn display_and_debug() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(format!("{g:?}"), "Graph(n=3, m=1)");
        assert!(g.to_string().contains("3 nodes"));
    }

    #[test]
    fn single_node_and_empty_encodings() {
        for n in [0usize, 1] {
            let g = Graph::empty(n);
            let bits = g.to_edge_bits();
            assert_eq!(bits.len(), 0);
            assert_eq!(Graph::from_edge_bits(n, &bits).unwrap(), g);
        }
    }
}
