//! The Theorem 10 codec: compressing `E(G)` through one node's
//! **full-information** shortest-path routing function.
//!
//! A full-information routing function at `u` returns, for every
//! destination `w`, *all* edges incident to `u` that lie on shortest paths
//! `u → w`. On a diameter-2 graph this makes `F(u)` a complete oracle for
//! the bipartite adjacency between `N(u)` and the non-neighbours of `u`:
//! for `v ∈ N(u)` and `w ∉ N(u) ∪ {u}`, `vw ∈ E` **iff** `uv` is among the
//! edges `F(u)` uses to route to `w`. All `≈ n²/4` such bits can be deleted
//! from `E(G)`, forcing `|F(u)| ≥ n²/4 − o(n²)`.

use ort_bitio::{codes, BitReader, BitVec, BitWriter};
use ort_graphs::{Graph, NodeId, Relays};

use super::{
    positions_of_node, read_node, read_remainder, write_node, write_remainder, CodecError,
    CodecOutcome,
};

/// Evaluation interface: given the serialized full-information function,
/// the sorted neighbour list of `u`, and a destination `w`, return the set
/// of first-hop neighbours on shortest paths `u → w` (sorted).
pub type EvalAllFn<'a> = dyn Fn(&BitVec, &[NodeId], NodeId) -> Option<Vec<NodeId>> + 'a;

/// Encodes `g` through node `u`'s full-information routing function.
///
/// Layout: `u` (`log n`) · `u`'s row (`n−1` literal bits) · `F(u)` in
/// self-delimiting `z′` form · `E(G)` minus `u`'s row and minus every pair
/// `{v, w}` with `v ∈ N(u)`, `w ∉ N(u) ∪ {u}`.
///
/// # Errors
///
/// Returns [`CodecError::PreconditionViolated`] unless the evaluation is
/// consistent with the graph: for every non-neighbour `w` and neighbour
/// `v`, `v ∈ eval(w)` ⟺ `vw ∈ E` (which holds exactly when `G` has
/// diameter 2 towards `w` and `F` is full-information).
pub fn encode(
    g: &Graph,
    u: NodeId,
    f_bits: &BitVec,
    eval: &EvalAllFn<'_>,
) -> Result<BitVec, CodecError> {
    let n = g.node_count();
    if u >= n {
        return Err(CodecError::PreconditionViolated { reason: "node out of range" });
    }
    // Validate the oracle property before committing to deletion: with
    // the table set at `w`, `rank(v)` is `Some` iff `vw ∈ E`.
    let nbrs = g.neighbors(u).to_vec();
    let mut adjacency = Relays::new(g);
    for w in g.non_neighbors(u) {
        let used = eval(f_bits, &nbrs, w).ok_or(CodecError::PreconditionViolated {
            reason: "full-information function undefined on a destination",
        })?;
        adjacency.set(w);
        for &v in &nbrs {
            let claims = used.binary_search(&v).is_ok();
            if claims != adjacency.rank(v).is_some() {
                return Err(CodecError::PreconditionViolated {
                    reason: "full-information function disagrees with adjacency",
                });
            }
        }
    }
    let mut w = BitWriter::new();
    write_node(&mut w, n, u)?;
    g.write_interconnection(u, &mut w);
    codes::write_selfdelim_prime(&mut w, f_bits);
    write_remainder(&mut w, g, &deleted_positions(g, n, u));
    Ok(w.finish())
}

/// Pairs involving `u`, plus the full `N(u) × non-N(u)` bipartite block.
fn deleted_positions(g: &Graph, n: usize, u: NodeId) -> Vec<usize> {
    let mut del = positions_of_node(n, u);
    let non_nbrs = g.non_neighbors(u);
    for &v in g.neighbors(u) {
        for &w in &non_nbrs {
            del.push(Graph::edge_index(n, v, w));
        }
    }
    del.sort_unstable();
    del.dedup();
    del
}

/// Decodes a graph on `n` nodes from an [`encode`] description.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input or if `eval` fails.
pub fn decode(bits: &BitVec, n: usize, eval: &EvalAllFn<'_>) -> Result<Graph, CodecError> {
    let mut r = BitReader::new(bits);
    let u = read_node(&mut r, n)?;
    let mut row = vec![false; n];
    for (x, slot) in row.iter_mut().enumerate() {
        if x != u {
            *slot = r.read_bit()?;
        }
    }
    let f_bits = codes::read_selfdelim_prime(&mut r)?;
    let nbrs: Vec<NodeId> = (0..n).filter(|&x| row[x]).collect();
    let non_nbrs: Vec<NodeId> = (0..n).filter(|&x| x != u && !row[x]).collect();
    // Reconstruct the bipartite block by evaluating F.
    let mut block = std::collections::HashMap::new();
    for &w in &non_nbrs {
        let used = eval(&f_bits, &nbrs, w).ok_or(CodecError::PreconditionViolated {
            reason: "decoded full-information function undefined",
        })?;
        for &v in &nbrs {
            block.insert(Graph::edge_index(n, v, w), used.binary_search(&v).is_ok());
        }
    }
    let mut del = positions_of_node(n, u);
    del.extend(block.keys().copied());
    del.sort_unstable();
    del.dedup();
    let full = read_remainder(&mut r, n, &del, |i| {
        let (a, b) = Graph::index_to_edge(n, i);
        if a == u || b == u {
            row[if a == u { b } else { a }]
        } else {
            *block.get(&i).expect("deleted bit is in the block")
        }
    })?;
    Ok(Graph::from_edge_bits(n, &full)?)
}

/// Runs the codec; savings are
/// `deg(u)·(n−1−deg(u)) − |F(u)′| − log n`.
///
/// # Errors
///
/// Propagates [`encode`] errors.
pub fn outcome(
    g: &Graph,
    u: NodeId,
    f_bits: &BitVec,
    eval: &EvalAllFn<'_>,
) -> Result<CodecOutcome, CodecError> {
    let bits = encode(g, u, f_bits, eval)?;
    Ok(CodecOutcome {
        description_bits: bits.len(),
        baseline_bits: Graph::encoding_len(g.node_count()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_graphs::generators;

    /// Honest full-information wire format: for each non-neighbour `w` of
    /// `u` in increasing order, a `deg(u)`-bit mask of which neighbours lie
    /// on shortest paths to `w` (= are adjacent to `w`, on diameter-2
    /// graphs).
    fn build_fi(g: &Graph, u: NodeId) -> BitVec {
        let mut w = BitWriter::new();
        for x in g.non_neighbors(u) {
            for &v in g.neighbors(u) {
                w.write_bit(g.has_edge(v, x));
            }
        }
        w.finish()
    }

    fn eval_for(n: usize, u: NodeId) -> impl Fn(&BitVec, &[NodeId], NodeId) -> Option<Vec<NodeId>> {
        move |f: &BitVec, nbrs: &[NodeId], w: NodeId| {
            let non_nbrs: Vec<NodeId> = (0..n)
                .filter(|&x| x != u && nbrs.binary_search(&x).is_err())
                .collect();
            let pos = non_nbrs.iter().position(|&x| x == w)?;
            let d = nbrs.len();
            let mut r = BitReader::new(f);
            r.seek(pos * d).ok()?;
            let mut used = Vec::new();
            for &v in nbrs {
                if r.read_bit().ok()? {
                    used.push(v);
                }
            }
            Some(used)
        }
    }

    #[test]
    fn roundtrip_on_random_graphs() {
        for seed in 0..3u64 {
            let n = 40usize;
            let g = generators::gnp_half(n, seed);
            let u = (seed as usize * 11) % n;
            let f = build_fi(&g, u);
            let eval = eval_for(n, u);
            let bits = encode(&g, u, &f, &eval).unwrap();
            assert_eq!(decode(&bits, n, &eval).unwrap(), g, "seed {seed}");
        }
    }

    #[test]
    fn block_size_matches_quarter_n_squared() {
        let n = 96usize;
        let g = generators::gnp_half(n, 4);
        let u = 3;
        let f = build_fi(&g, u);
        let eval = eval_for(n, u);
        let out = outcome(&g, u, &f, &eval).unwrap();
        let d = g.degree(u);
        let block = d * (n - 1 - d);
        // F carries exactly `block` bits, plus self-delimiting overhead and
        // the log n id: savings = block - |f'| - logn = -(overhead).
        let expected = block as i64
            - codes::selfdelim_prime_cost(f.len()) as i64
            - super::super::node_width(n) as i64;
        assert_eq!(out.savings(), expected);
        assert_eq!(f.len(), block);
        // Block really is ~n²/4.
        assert!((block as f64) > 0.2 * (n * n) as f64, "block {block}");
    }

    #[test]
    fn rejects_inconsistent_function() {
        let n = 24usize;
        let g = generators::gnp_half(n, 1);
        let u = 0;
        // All-zero F claims no neighbour ever routes anywhere — false on a
        // dense graph.
        let d = g.degree(u);
        let k = g.non_neighbors(u).len();
        let f = BitVec::zeros(d * k);
        let eval = eval_for(n, u);
        assert!(matches!(
            encode(&g, u, &f, &eval),
            Err(CodecError::PreconditionViolated { .. })
        ));
    }

    #[test]
    fn star_centre_has_trivial_function() {
        // The star centre has no non-neighbours: F is empty, the block is
        // empty, and the codec reduces to the row + ids.
        let g = generators::star(16);
        let f = BitVec::new();
        let eval = eval_for(16, 0);
        let bits = encode(&g, 0, &f, &eval).unwrap();
        assert_eq!(decode(&bits, 16, &eval).unwrap(), g);
    }
}
