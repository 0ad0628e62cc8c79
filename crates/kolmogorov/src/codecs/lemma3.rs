//! The Lemma 3 codec: dominating-prefix compression.
//!
//! Lemma 3 proves that on a `c·log n`-random graph, from every node `u`,
//! the `(c+3)·log n` *least* neighbours of `u` dominate all other nodes.
//! If some node `w` escaped the prefix `A` (not adjacent to `u` nor to any
//! node of `A`), then `w`'s adjacency row would have `|A| + 1` forced zeros
//! — deletable from the description, contradiction.

use ort_bitio::{BitReader, BitVec, BitWriter};
use ort_graphs::{Graph, NodeId, Relays};

use super::{
    positions_of_node, read_node, read_remainder, write_node, write_remainder, CodecError,
    CodecOutcome,
};

/// Encodes `g` through an escapee `w` of the `t`-prefix of `u`'s neighbours.
///
/// Layout: `u` · `w` (`log n` each) · `u`'s row (`n−1` literal bits) ·
/// `w`'s row minus the forced-zero bits for `u` and the first `t`
/// neighbours of `u` (`n − 2 − t` literal bits) · `E(G)` minus all pairs
/// involving `u` or `w`.
///
/// # Errors
///
/// Returns [`CodecError::PreconditionViolated`] unless `w ∉ N(u) ∪ {u}`
/// and `w` is non-adjacent to each of the first `t` neighbours of `u`
/// (and `u` has at least `t` neighbours).
pub fn encode(g: &Graph, u: NodeId, w_node: NodeId, t: usize) -> Result<BitVec, CodecError> {
    let n = g.node_count();
    if u >= n || w_node >= n || u == w_node {
        return Err(CodecError::PreconditionViolated { reason: "invalid pair" });
    }
    if g.has_edge(u, w_node) {
        return Err(CodecError::PreconditionViolated { reason: "w adjacent to u" });
    }
    let prefix = g.neighbors(u);
    if prefix.len() < t {
        return Err(CodecError::PreconditionViolated { reason: "u has fewer than t neighbours" });
    }
    let prefix = &prefix[..t];
    if prefix.iter().any(|&a| g.has_edge(a, w_node)) {
        return Err(CodecError::PreconditionViolated { reason: "w dominated by prefix" });
    }
    let mut w = BitWriter::new();
    write_node(&mut w, n, u)?;
    write_node(&mut w, n, w_node)?;
    // u's full row.
    g.write_interconnection(u, &mut w);
    // w's row, omitting forced zeros: x == u and x in prefix (sorted, so
    // one merge finds them).
    let mut forced = prefix.iter().peekable();
    for (x, adjacent) in g.adjacency_bits(w_node).enumerate() {
        if forced.next_if_eq(&&x).is_none() && x != w_node && x != u {
            w.write_bit(adjacent);
        }
    }
    write_remainder(&mut w, g, &deleted_positions(n, u, w_node));
    Ok(w.finish())
}

/// All pair indices involving `u` or `w`, sorted and deduplicated.
fn deleted_positions(n: usize, u: NodeId, w: NodeId) -> Vec<usize> {
    let mut del = positions_of_node(n, u);
    del.extend(positions_of_node(n, w));
    del.sort_unstable();
    del.dedup();
    del
}

/// Decodes a graph on `n` nodes from an [`encode`] description; `t` must
/// match the encoder's.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
pub fn decode(bits: &BitVec, n: usize, t: usize) -> Result<Graph, CodecError> {
    let mut r = BitReader::new(bits);
    let u = read_node(&mut r, n)?;
    let w_node = read_node(&mut r, n)?;
    let mut row_u = vec![false; n];
    for (x, slot) in row_u.iter_mut().enumerate() {
        if x != u {
            *slot = r.read_bit()?;
        }
    }
    let prefix: Vec<NodeId> = (0..n).filter(|&x| row_u[x]).take(t).collect();
    if prefix.len() < t {
        return Err(CodecError::PreconditionViolated { reason: "decoded prefix too short" });
    }
    let mut row_w = vec![false; n];
    for (x, slot) in row_w.iter_mut().enumerate() {
        if x != w_node && x != u && !prefix.contains(&x) {
            *slot = r.read_bit()?;
        }
    }
    let del = deleted_positions(n, u, w_node);
    let full = read_remainder(&mut r, n, &del, |i| {
        let (a, b) = Graph::index_to_edge(n, i);
        if a == u || b == u {
            row_u[if a == u { b } else { a }]
        } else {
            row_w[if a == w_node { b } else { a }]
        }
    })?;
    Ok(Graph::from_edge_bits(n, &full)?)
}

/// Runs the codec; savings are `t − 2·log n + 1` (paper's accounting).
///
/// # Errors
///
/// Propagates [`encode`] errors.
pub fn outcome(g: &Graph, u: NodeId, w: NodeId, t: usize) -> Result<CodecOutcome, CodecError> {
    let bits = encode(g, u, w, t)?;
    Ok(CodecOutcome {
        description_bits: bits.len(),
        baseline_bits: Graph::encoding_len(g.node_count()),
    })
}

/// Finds a witness `(u, w)` such that `w` escapes the `t`-prefix of `u`,
/// if any exists.
#[must_use]
pub fn find_escapee(g: &Graph, t: usize) -> Option<(NodeId, NodeId)> {
    let mut relays = Relays::new(g);
    for u in g.nodes().filter(|&u| g.degree(u) >= t) {
        relays.set(u);
        if let Some(w) = relays.escapee(t) {
            return Some((u, w));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_graphs::generators;

    #[test]
    fn random_graphs_have_no_escapee_at_lemma_budget() {
        for seed in 0..5u64 {
            let n = 128usize;
            let g = generators::gnp_half(n, seed);
            let t = (6.0 * (n as f64).log2()) as usize; // (c+3) log n, c=3
            assert_eq!(find_escapee(&g, t), None, "seed {seed}");
        }
    }

    #[test]
    fn roundtrip_on_sparse_graph() {
        // Sparse graphs have escapees even for small t.
        let g = generators::connected_gnp(50, 0.1, 7);
        let t = 3;
        let Some((u, w)) = find_escapee(&g, t) else {
            panic!("expected an escapee");
        };
        let bits = encode(&g, u, w, t).unwrap();
        assert_eq!(decode(&bits, 50, t).unwrap(), g);
    }

    #[test]
    fn roundtrip_on_cycle() {
        let g = generators::cycle(20);
        // Node 0's neighbours are {1, 19}; prefix t=2 dominates 2, 18 only.
        let (u, w) = find_escapee(&g, 2).unwrap();
        let bits = encode(&g, u, w, 2).unwrap();
        assert_eq!(decode(&bits, 20, 2).unwrap(), g);
    }

    #[test]
    fn savings_formula_exact() {
        let g = generators::connected_gnp(80, 0.1, 13);
        let t = 4;
        let (u, w) = find_escapee(&g, t).unwrap();
        let out = outcome(&g, u, w, t).unwrap();
        // description = 2 log n + (n-1) + (n-2-t) + L - (2n - 3)
        //             = L + 2 log n - t - ... let's assert against computed:
        let n = 80usize;
        let logn = super::super::node_width(n) as usize;
        let expected = 2 * logn + (n - 1) + (n - 2 - t) + Graph::encoding_len(n) - (2 * n - 3);
        assert_eq!(out.description_bits, expected);
        assert_eq!(out.savings(), t as i64 - 2 * logn as i64);
    }

    #[test]
    fn rejects_dominated_witness() {
        let g = generators::gnp_half(64, 1);
        // On a dense random graph, any non-neighbour is dominated by a
        // healthy prefix.
        let u = 0;
        let w = g.non_neighbors(0)[0];
        let t = 30.min(g.degree(u));
        assert!(matches!(
            encode(&g, u, w, t),
            Err(CodecError::PreconditionViolated { .. })
        ));
    }

    #[test]
    fn rejects_adjacent_or_invalid() {
        let g = generators::star(6);
        assert!(encode(&g, 0, 1, 0).is_err()); // adjacent
        assert!(encode(&g, 2, 2, 0).is_err()); // same node
        assert!(encode(&g, 1, 2, 5).is_err()); // t exceeds degree
    }
}
