//! The Lemma 2 codec: distance-based compression.
//!
//! Lemma 2 proves random graphs have diameter 2: if some pair `(u, v)` were
//! at distance > 2, then *no* neighbour `w` of `u` could be adjacent to
//! `v`, so all bits `{w, v}` with `w ∈ N(u)` are forced zeros and can be
//! deleted from `E(G)` — about `n/2` bits on a random graph, contradiction.

use ort_bitio::{BitReader, BitVec, BitWriter};
use ort_graphs::{Graph, NodeId};

use super::{
    positions_of_node, read_node, read_remainder, write_node, write_remainder, CodecError,
    CodecOutcome,
};

/// Encodes `g` through a pair `(u, v)` at distance greater than 2.
///
/// Layout: `u` · `v` (`log n` bits each) · `u`'s adjacency row (`n − 1`
/// literal bits) · `E(G)` minus `u`'s row and minus all pairs `{w, v}` with
/// `w ∈ N(u)` (forced zeros).
///
/// # Errors
///
/// Returns [`CodecError::PreconditionViolated`] if `dist(u, v) ≤ 2`
/// (adjacent or sharing a neighbour).
pub fn encode(g: &Graph, u: NodeId, v: NodeId) -> Result<BitVec, CodecError> {
    let n = g.node_count();
    if u >= n || v >= n || u == v {
        return Err(CodecError::PreconditionViolated { reason: "invalid pair" });
    }
    if g.has_edge(u, v) || g.common_neighbor(u, v).is_some() {
        return Err(CodecError::PreconditionViolated { reason: "pair is at distance <= 2" });
    }
    let mut w = BitWriter::new();
    write_node(&mut w, n, u)?;
    write_node(&mut w, n, v)?;
    g.write_interconnection(u, &mut w);
    write_remainder(&mut w, g, &deleted_positions(g, n, u, v));
    Ok(w.finish())
}

/// The deleted pair indices: everything involving `u`, plus `{w, v}` for
/// each neighbour `w` of `u`.
fn deleted_positions(g: &Graph, n: usize, u: NodeId, v: NodeId) -> Vec<usize> {
    let mut del = positions_of_node(n, u);
    for &w in g.neighbors(u) {
        debug_assert_ne!(w, v, "v is not a neighbour of u");
        del.push(Graph::edge_index(n, w, v));
    }
    del.sort_unstable();
    del.dedup();
    del
}

/// Decodes a graph on `n` nodes from an [`encode`] description.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input.
pub fn decode(bits: &BitVec, n: usize) -> Result<Graph, CodecError> {
    let mut r = BitReader::new(bits);
    let u = read_node(&mut r, n)?;
    let v = read_node(&mut r, n)?;
    let mut row = vec![false; n];
    for (x, slot) in row.iter_mut().enumerate() {
        if x != u {
            *slot = r.read_bit()?;
        }
    }
    if row[v] {
        // The encoder guarantees v ∉ N(u); anything else is a corrupted
        // stream and would make the deleted-bit set ill-defined.
        return Err(CodecError::PreconditionViolated {
            reason: "decoded stream claims v adjacent to u",
        });
    }
    let neighbors: Vec<NodeId> = (0..n).filter(|&x| row[x]).collect();
    // Rebuild the deleted set exactly as the encoder did.
    let mut del = positions_of_node(n, u);
    for &w in &neighbors {
        del.push(Graph::edge_index(n, w, v));
    }
    del.sort_unstable();
    del.dedup();
    let full = read_remainder(&mut r, n, &del, |i| {
        let (a, b) = Graph::index_to_edge(n, i);
        if a == u || b == u {
            let other = if a == u { b } else { a };
            row[other]
        } else {
            // A {w, v} bit with w ∈ N(u): forced zero by distance > 2.
            false
        }
    })?;
    Ok(Graph::from_edge_bits(n, &full)?)
}

/// Runs the codec and reports description length vs. baseline. Savings are
/// `deg(u) − 2·log n`.
///
/// # Errors
///
/// Propagates [`encode`] errors.
pub fn outcome(g: &Graph, u: NodeId, v: NodeId) -> Result<CodecOutcome, CodecError> {
    let bits = encode(g, u, v)?;
    Ok(CodecOutcome {
        description_bits: bits.len(),
        baseline_bits: Graph::encoding_len(g.node_count()),
    })
}

/// Finds some pair at distance > 2 (or disconnected), if any — the witness
/// the codec needs.
#[must_use]
pub fn find_distant_pair(g: &Graph) -> Option<(NodeId, NodeId)> {
    g.non_edges().find(|&(u, v)| g.common_neighbor(u, v).is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_graphs::generators;

    #[test]
    fn random_graphs_have_no_witness() {
        for seed in 0..5u64 {
            let g = generators::gnp_half(64, seed);
            assert_eq!(find_distant_pair(&g), None, "seed {seed}");
        }
    }

    #[test]
    fn roundtrip_on_path() {
        let g = generators::path(30);
        let (u, v) = find_distant_pair(&g).unwrap();
        let bits = encode(&g, u, v).unwrap();
        assert_eq!(decode(&bits, 30).unwrap(), g);
    }

    #[test]
    fn roundtrip_on_sparse_random() {
        // Sparse G(n, p): plenty of distance-3 pairs.
        let g = generators::connected_gnp(60, 0.08, 11);
        let Some((u, v)) = find_distant_pair(&g) else {
            panic!("sparse graph should have a distant pair");
        };
        let bits = encode(&g, u, v).unwrap();
        assert_eq!(decode(&bits, 60).unwrap(), g);
    }

    #[test]
    fn savings_equal_degree_minus_overhead() {
        let g = generators::connected_gnp(80, 0.1, 3);
        let (u, v) = find_distant_pair(&g).expect("sparse graph has distant pair");
        let out = outcome(&g, u, v).unwrap();
        let overhead = 2 * super::super::node_width(80) as i64;
        assert_eq!(out.savings(), g.degree(u) as i64 - overhead);
    }

    #[test]
    fn rejects_close_pairs() {
        let g = generators::gnp_half(20, 0);
        // Any adjacent pair.
        let (u, v) = g.edges().next().unwrap();
        assert!(matches!(
            encode(&g, u, v),
            Err(CodecError::PreconditionViolated { .. })
        ));
        // A distance-2 pair on a star.
        let star = generators::star(5);
        assert!(encode(&star, 1, 2).is_err());
        // Degenerate pairs.
        assert!(encode(&star, 1, 1).is_err());
        assert!(encode(&star, 1, 9).is_err());
    }

    #[test]
    fn disconnected_pair_works_too() {
        // Distance "infinity" > 2: two components.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let bits = encode(&g, 0, 3).unwrap();
        assert_eq!(decode(&bits, 6).unwrap(), g);
    }
}
