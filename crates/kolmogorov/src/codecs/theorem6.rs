//! The Theorem 6 codec: compressing `E(G)` through one node's shortest-path
//! routing function.
//!
//! Theorem 6 (model II ∧ α): if node `u`'s local routing function `F(u)`
//! routes every non-neighbour `w` through an intermediate neighbour
//! `v = F(u)(w)`, then every such edge `{v, w}` is *implied* by `F(u)` and
//! can be deleted from `E(G)`. On a diameter-2 random graph there are
//! `n/2 − o(n)` non-neighbours, so
//! `|F(u)| ≥ n/2 − o(n)` — else the graph would compress below its
//! complexity.
//!
//! The codec is generic over the routing function's wire format: the
//! encoder takes the serialized `F(u)` plus an evaluation closure, and the
//! decoder takes a closure that *re-evaluates the decoded bits*, so the
//! implication "`F(u)` routes w via v ⟹ vw ∈ E" is realized by actually
//! running the routing function during decompression.

use ort_bitio::{codes, BitReader, BitVec, BitWriter};
use ort_graphs::{Graph, NodeId};

use super::{
    positions_of_node, read_node, read_remainder, write_node, write_remainder, CodecError,
    CodecOutcome,
};

/// Evaluation interface: given the serialized routing function, the sorted
/// neighbour list of `u` (free information in model II), and a destination
/// `w`, return the first-hop neighbour `v`.
pub type EvalFn<'a> = dyn Fn(&BitVec, &[NodeId], NodeId) -> Option<NodeId> + 'a;

/// Encodes `g` through node `u`'s routing function.
///
/// Layout: `u` (`log n`) · `u`'s row (`n−1` literal bits) · `F(u)` in
/// self-delimiting `z′` form · `E(G)` minus `u`'s row and minus the pair
/// `{F(u)(w), w}` for every non-neighbour `w` of `u`.
///
/// # Errors
///
/// Returns [`CodecError::PreconditionViolated`] if for some non-neighbour
/// `w`, `eval` fails or the implied path `u → v → w` is not an actual
/// length-2 shortest path (`uv ∉ E` or `vw ∉ E`).
pub fn encode(
    g: &Graph,
    u: NodeId,
    f_bits: &BitVec,
    eval: &EvalFn<'_>,
) -> Result<BitVec, CodecError> {
    let n = g.node_count();
    if u >= n {
        return Err(CodecError::PreconditionViolated { reason: "node out of range" });
    }
    let mut w = BitWriter::new();
    write_node(&mut w, n, u)?;
    g.write_interconnection(u, &mut w);
    codes::write_selfdelim_prime(&mut w, f_bits);
    write_remainder(&mut w, g, &deleted_positions(g, n, u, f_bits, eval)?);
    Ok(w.finish())
}

fn deleted_positions(
    g: &Graph,
    n: usize,
    u: NodeId,
    f_bits: &BitVec,
    eval: &EvalFn<'_>,
) -> Result<Vec<usize>, CodecError> {
    let mut del = positions_of_node(n, u);
    let nbrs = g.neighbors(u).to_vec();
    for w in g.non_neighbors(u) {
        let v = eval(f_bits, &nbrs, w).ok_or(CodecError::PreconditionViolated {
            reason: "routing function undefined on a non-neighbour",
        })?;
        if !g.has_edge(u, v) {
            return Err(CodecError::PreconditionViolated {
                reason: "routing function leaves u over a non-edge",
            });
        }
        if !g.has_edge(v, w) {
            return Err(CodecError::PreconditionViolated {
                reason: "routing function's intermediate is not adjacent to destination",
            });
        }
        del.push(Graph::edge_index(n, v, w));
    }
    del.sort_unstable();
    del.dedup();
    Ok(del)
}

/// Decodes a graph on `n` nodes from an [`encode`] description, using
/// `eval` to re-run the routing function on the transmitted bits.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input or if `eval` fails.
pub fn decode(bits: &BitVec, n: usize, eval: &EvalFn<'_>) -> Result<Graph, CodecError> {
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
    // Recompute the deleted set exactly as the encoder did: routing-implied
    // edges are filled with 1, u's row from the literal bits.
    let mut implied: Vec<usize> = Vec::new();
    for w in (0..n).filter(|&x| x != u && !row[x]) {
        let v = eval(&f_bits, &nbrs, w).ok_or(CodecError::PreconditionViolated {
            reason: "decoded routing function undefined on a non-neighbour",
        })?;
        implied.push(Graph::edge_index(n, v, w));
    }
    let mut del = positions_of_node(n, u);
    del.extend(implied.iter().copied());
    del.sort_unstable();
    del.dedup();
    let implied_set: std::collections::HashSet<usize> = implied.into_iter().collect();
    let full = read_remainder(&mut r, n, &del, |i| {
        let (a, b) = Graph::index_to_edge(n, i);
        if a == u || b == u {
            row[if a == u { b } else { a }]
        } else {
            debug_assert!(implied_set.contains(&i));
            true
        }
    })?;
    Ok(Graph::from_edge_bits(n, &full)?)
}

/// Runs the codec; savings are
/// `#non-neighbours − |F(u)′| − log n` where `|F(u)′|` is the
/// self-delimited length of the routing function.
///
/// # Errors
///
/// Propagates [`encode`] errors.
pub fn outcome(
    g: &Graph,
    u: NodeId,
    f_bits: &BitVec,
    eval: &EvalFn<'_>,
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

    /// A toy honest routing function format: for each non-neighbour `w` of
    /// `u` in increasing order, the index (within the sorted neighbour
    /// list) of the least common neighbour, in fixed width.
    fn build_toy_f(g: &Graph, u: NodeId) -> BitVec {
        let nbrs = g.neighbors(u);
        let width = ort_bitio::bits_to_index(nbrs.len() as u64);
        let mut w = BitWriter::new();
        for x in g.non_neighbors(u) {
            let v = g.common_neighbor(u, x).expect("diameter 2");
            let idx = nbrs.binary_search(&v).expect("v is a neighbour");
            w.write_bits(idx as u64, width).expect("fits");
        }
        w.finish()
    }

    fn eval_for(n: usize, u: NodeId) -> impl Fn(&BitVec, &[NodeId], NodeId) -> Option<NodeId> {
        move |f: &BitVec, nbrs: &[NodeId], w: NodeId| {
            let width = ort_bitio::bits_to_index(nbrs.len() as u64);
            let non_nbrs: Vec<NodeId> = (0..n)
                .filter(|&x| x != u && nbrs.binary_search(&x).is_err())
                .collect();
            let pos = non_nbrs.iter().position(|&x| x == w)?;
            let mut r = BitReader::new(f);
            r.seek(pos * width as usize).ok()?;
            let idx = r.read_bits(width).ok()? as usize;
            nbrs.get(idx).copied()
        }
    }

    #[test]
    fn roundtrip_on_random_graphs() {
        for seed in 0..4u64 {
            let n = 48usize;
            let g = generators::gnp_half(n, seed);
            let u = (seed as usize * 7) % n;
            let f = build_toy_f(&g, u);
            let eval = eval_for(n, u);
            let bits = encode(&g, u, &f, &eval).unwrap();
            let back = decode(&bits, n, &eval).unwrap();
            assert_eq!(back, g, "seed {seed}");
        }
    }

    #[test]
    fn savings_match_theorem6_accounting() {
        let n = 128usize;
        let g = generators::gnp_half(n, 2);
        let u = 5;
        let f = build_toy_f(&g, u);
        let eval = eval_for(n, u);
        let out = outcome(&g, u, &f, &eval).unwrap();
        let non_nbrs = g.non_neighbors(u).len() as i64;
        let f_selfdelim = codes::selfdelim_prime_cost(f.len()) as i64;
        let logn = super::super::node_width(n) as i64;
        assert_eq!(out.savings(), non_nbrs - f_selfdelim - logn);
        // The toy F spends ~6 bits per non-neighbour, so here savings are
        // negative — exactly the theorem's point: F(u) must carry ≥ 1 bit
        // per implied edge minus overhead, and a *sub-linear* F would force
        // positive savings on an incompressible graph.
        assert!(f.len() as i64 >= non_nbrs - logn - 64, "F cannot be tiny");
    }

    #[test]
    fn tiny_routing_function_on_structured_graph_compresses() {
        // On a complete bipartite graph K_{m,m}, u's non-neighbours (same
        // side) are all reachable via neighbour index 0 — an O(1) routing
        // function. The codec then beats the baseline by ~m bits.
        let m = 40usize;
        let n = 2 * m;
        let g = generators::complete_bipartite(m, m);
        let u = 0usize;
        // Empty F: eval always returns neighbour 0.
        let f = BitVec::new();
        let eval = |_f: &BitVec, nbrs: &[NodeId], _w: NodeId| nbrs.first().copied();
        let out = outcome(&g, u, &f, &eval).unwrap();
        let logn = super::super::node_width(n) as i64;
        // Savings = (m - 1) implied edges - |f'| (=1+2*0... small) - log n.
        assert!(out.savings() >= (m as i64 - 1) - 8 - logn, "savings {}", out.savings());
        // And it round-trips.
        let bits = encode(&g, u, &f, &eval).unwrap();
        assert_eq!(decode(&bits, n, &eval).unwrap(), g);
    }

    #[test]
    fn rejects_broken_routing_function() {
        let g = generators::gnp_half(32, 1);
        let f = BitVec::new();
        // Eval that returns a non-neighbour of w.
        let bad = |_f: &BitVec, nbrs: &[NodeId], w: NodeId| {
            nbrs.iter().copied().find(|&v| v != w)
        };
        // With overwhelming probability some pick violates vw ∈ E.
        let res = encode(&g, 0, &f, &bad);
        assert!(matches!(res, Err(CodecError::PreconditionViolated { .. })));
        // Eval that is undefined.
        let none = |_: &BitVec, _: &[NodeId], _: NodeId| None;
        assert!(matches!(
            encode(&g, 0, &f, &none),
            Err(CodecError::PreconditionViolated { .. })
        ));
    }
}
