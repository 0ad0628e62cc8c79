//! Theorem 6 as an experiment: `|F(u)| ≥ n/2 − o(n)` in model II ∧ α.
//!
//! The argument: a shortest-path routing function at `u` *implies* one edge
//! `{v, w}` per non-neighbour `w` (the first hop towards `w`). The
//! `ort-kolmogorov` Theorem 6 codec deletes those implied bits from `E(G)`
//! and re-derives them by running the routing function during decoding. On
//! an incompressible graph, total savings must be ≤ the graph's randomness
//! deficiency, so the routing function must itself cost at least
//! `#non-neighbours − O(log n) −` deficiency bits.
//!
//! This module runs that codec against the *real* Theorem 1 scheme and
//! reports the accounting per node.

use ort_bitio::BitVec;
use ort_graphs::{Graph, NodeId};
use ort_kolmogorov::codecs::theorem6 as codec;
use ort_kolmogorov::codecs::CodecError;

use crate::scheme::RouteDecision;
use crate::schemes::theorem1::route_with_tables;

/// Evaluates a Theorem 1 table pair: given the stored bits (model II
/// payload, no interconnection vector) and the sorted neighbours of `own`,
/// returns the first-hop *node* towards `dest`.
///
/// This is the adapter the Theorem 6 codec needs: it runs entirely on the
/// transmitted bits plus model II free information.
#[must_use]
pub fn eval_theorem1(
    bits: &BitVec,
    n: usize,
    own: NodeId,
    nbrs: &[NodeId],
    dest: NodeId,
) -> Option<NodeId> {
    match route_with_tables(bits, 0, n, nbrs, own, dest) {
        Ok(RouteDecision::Forward(port)) => nbrs.get(port).copied(),
        _ => None,
    }
}

/// Per-node accounting of the Theorem 6 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeAccounting {
    /// The node analysed.
    pub node: NodeId,
    /// Measured size of the real routing function, `|F(u)|`.
    pub f_bits: usize,
    /// Number of non-neighbours (the paper's `n/2 − o(n)` quantity).
    pub non_neighbors: usize,
    /// Bits the codec saved relative to `n(n−1)/2` (can be negative).
    pub codec_savings: i64,
    /// The incompressibility floor implied for any routing function in this
    /// wire format: `non_neighbors − log n − deficiency`, where
    /// `deficiency` bounds how compressible the graph itself is.
    pub implied_floor: i64,
}

/// Runs the Theorem 6 codec against node `u` of the Theorem 1 scheme built
/// on `g`, with `deficiency` an upper bound on the graph's randomness
/// deficiency (use 0 for exact-uniform samples or a
/// [`ort_kolmogorov::deficiency::CompressorSuite`] estimate).
///
/// # Errors
///
/// Returns a [`CodecError`] if the scheme's routing function violates the
/// codec's precondition (cannot happen for a correct shortest-path scheme
/// on a diameter-2 graph).
pub fn analyze_node(
    g: &Graph,
    u: NodeId,
    f_bits: &BitVec,
    deficiency: i64,
) -> Result<NodeAccounting, CodecError> {
    let n = g.node_count();
    let eval = move |bits: &BitVec, nbrs: &[NodeId], w: NodeId| -> Option<NodeId> {
        eval_theorem1(bits, n, u, nbrs, w)
    };
    let outcome = codec::outcome(g, u, f_bits, &eval)?;
    let non_neighbors = g.non_neighbors(u).len();
    let logn = ort_bitio::bits_to_index(n as u64) as i64;
    Ok(NodeAccounting {
        node: u,
        f_bits: f_bits.len(),
        non_neighbors,
        codec_savings: outcome.savings(),
        implied_floor: non_neighbors as i64 - logn - deficiency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RoutingScheme;
    use crate::schemes::theorem1::Theorem1Scheme;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn codec_roundtrips_through_real_scheme_bits() {
        let n = 40usize;
        let g = generators::gnp_half(n, 3);
        let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        for u in [0usize, 13, 39] {
            let f = scheme.node_bits(u);
            let eval = move |bits: &BitVec, nbrs: &[NodeId], w: NodeId| {
                eval_theorem1(bits, n, u, nbrs, w)
            };
            let enc = ort_kolmogorov::codecs::theorem6::encode(&g, u, f, &eval).unwrap();
            let dec = ort_kolmogorov::codecs::theorem6::decode(&enc, n, &eval).unwrap();
            assert_eq!(dec, g, "node {u}");
        }
    }

    #[test]
    fn real_scheme_satisfies_the_floor() {
        // Theorem 6: any II∧α shortest-path routing function must have
        // |F(u)| ≥ #non-neighbours − O(log n). The Theorem 1 scheme spends
        // ≥ 1 bit per non-neighbour (each unary entry ends with a 0), so it
        // sits above the floor — and the codec's savings stay ≤ deficiency.
        let n = 64usize;
        let g = generators::gnp_half(n, 5);
        let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        for u in 0..n {
            let acc = analyze_node(&g, u, scheme.node_bits(u), 0).unwrap();
            assert!(
                (acc.f_bits as i64) >= acc.implied_floor,
                "node {u}: {} < {}",
                acc.f_bits,
                acc.implied_floor
            );
            // Floor is the headline n/2 − o(n) quantity.
            assert!(acc.non_neighbors as f64 > 0.3 * n as f64);
        }
    }

    #[test]
    fn savings_never_exceed_overhead_on_uniform_graphs() {
        // If the codec ever saved substantially more than the graph's
        // deficiency, we would have compressed a uniform random string —
        // possible only with vanishing probability. Savings =
        // non_nbrs − |f'| − log n, and |F(u)| ≥ non_nbrs − ... so savings
        // stay below ~0 for honest schemes.
        let n = 48usize;
        for seed in 0..3u64 {
            let g = generators::gnp_half(n, seed);
            let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
            for u in (0..n).step_by(7) {
                let acc = analyze_node(&g, u, scheme.node_bits(u), 0).unwrap();
                assert!(acc.codec_savings <= 0, "seed {seed} node {u}: {acc:?}");
            }
        }
    }
}
