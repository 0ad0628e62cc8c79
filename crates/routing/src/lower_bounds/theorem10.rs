//! Theorem 10 as an experiment: full-information routing needs
//! `n³/4 − o(n³)` bits in model α.
//!
//! Glue between the real [`crate::schemes::full_information`] scheme and
//! the `ort-kolmogorov` Theorem 10 codec: the scheme's wire format (one
//! `d(u)`-bit shortest-path port mask per non-neighbour destination) is
//! exactly the oracle the codec re-runs during decompression to rebuild
//! the `N(u) × non-N(u)` adjacency block.

use ort_bitio::{BitReader, BitVec};
use ort_graphs::{Graph, NodeId};
use ort_kolmogorov::codecs::theorem10 as codec;
use ort_kolmogorov::codecs::CodecError;

/// Evaluates the full-information wire format: the set of first-hop
/// neighbours on shortest paths from `own` to `dest`, read from `bits`
/// plus model II free information only.
#[must_use]
pub fn eval_full_information(
    bits: &BitVec,
    n: usize,
    own: NodeId,
    nbrs: &[NodeId],
    dest: NodeId,
) -> Option<Vec<NodeId>> {
    if dest == own || dest >= n {
        return None;
    }
    if nbrs.binary_search(&dest).is_ok() {
        return Some(vec![dest]);
    }
    let below = nbrs.partition_point(|&v| v < dest);
    let pos = dest - below - usize::from(own < dest);
    let d = nbrs.len();
    let mut r = BitReader::new(bits);
    r.seek(pos * d).ok()?;
    let mut used = Vec::new();
    for &v in nbrs {
        if r.read_bit().ok()? {
            used.push(v);
        }
    }
    Some(used)
}

/// Per-node accounting of the Theorem 10 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAccounting {
    /// The node analysed.
    pub node: NodeId,
    /// Measured `|F(u)|` of the full-information function.
    pub f_bits: usize,
    /// Size of the adjacency block the function must determine:
    /// `d·(n−1−d) ≈ n²/4`.
    pub block_bits: usize,
    /// Codec savings relative to `n(n−1)/2` (≤ graph deficiency).
    pub codec_savings: i64,
}

/// Runs the Theorem 10 codec against node `u`'s stored full-information
/// bits.
///
/// # Errors
///
/// Returns a [`CodecError`] if the bits are inconsistent with the graph
/// (impossible for a correctly built scheme).
pub fn analyze_node(g: &Graph, u: NodeId, f_bits: &BitVec) -> Result<NodeAccounting, CodecError> {
    let n = g.node_count();
    let eval = move |bits: &BitVec, nbrs: &[NodeId], w: NodeId| {
        eval_full_information(bits, n, u, nbrs, w)
    };
    let outcome = codec::outcome(g, u, f_bits, &eval)?;
    let d = g.degree(u);
    Ok(NodeAccounting {
        node: u,
        f_bits: f_bits.len(),
        block_bits: d * (n - 1 - d),
        codec_savings: outcome.savings(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RoutingScheme;
    use crate::schemes::full_information::FullInformationScheme;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn codec_roundtrips_through_scheme_bits() {
        let n = 32usize;
        let g = generators::gnp_half(n, 6);
        let scheme = FullInformationScheme::build(&g, &Apsp::compute(&g)).unwrap();
        for u in [0usize, 15, 31] {
            let f = scheme.node_bits(u);
            let eval = move |bits: &BitVec, nbrs: &[NodeId], w: NodeId| {
                eval_full_information(bits, n, u, nbrs, w)
            };
            let enc = ort_kolmogorov::codecs::theorem10::encode(&g, u, f, &eval).unwrap();
            let dec = ort_kolmogorov::codecs::theorem10::decode(&enc, n, &eval).unwrap();
            assert_eq!(dec, g, "node {u}");
        }
    }

    #[test]
    fn f_bits_meet_the_quarter_square_floor() {
        let n = 48usize;
        let g = generators::gnp_half(n, 2);
        let scheme = FullInformationScheme::build(&g, &Apsp::compute(&g)).unwrap();
        for u in (0..n).step_by(5) {
            let acc = analyze_node(&g, u, scheme.node_bits(u)).unwrap();
            // The wire format stores exactly the block.
            assert_eq!(acc.f_bits, acc.block_bits);
            // Block really is Θ(n²) per node.
            assert!(acc.block_bits as f64 > 0.15 * (n * n) as f64, "{acc:?}");
            // Savings bounded by the self-delimiting overhead only.
            assert!(acc.codec_savings <= 0, "{acc:?}");
        }
    }
}
