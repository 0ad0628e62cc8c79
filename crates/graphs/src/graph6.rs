//! The *graph6* interchange format (McKay).
//!
//! `graph6` is the de-facto standard ASCII format for undirected simple
//! graphs (used by `nauty`, `geng`, the House of Graphs, …). Supporting it
//! lets the routing schemes run on external graph collections, and lets
//! our seeded samples be exported for cross-checking with other tools.
//!
//! Format: a size header (`n+63` for `n ≤ 62`, else `126` + three 6-bit
//! bytes for `n ≤ 2^18`), followed by the upper-triangle adjacency bits in
//! **column-major** order (pair `(i,j)`, `i < j`, ordered by `j` then `i`),
//! packed 6 per byte, each offset by 63 into printable ASCII.

use std::error::Error;
use std::fmt;

use crate::{Graph, GraphError};

/// Error produced by graph6 parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Graph6Error {
    /// The string is empty or the size header is malformed.
    BadHeader,
    /// A payload byte is outside the printable graph6 range `63..=126`.
    BadByte {
        /// Position of the offending byte.
        position: usize,
    },
    /// The payload has the wrong length for the declared size.
    BadLength {
        /// Expected payload bytes.
        expected: usize,
        /// Actual payload bytes.
        actual: usize,
    },
    /// Graphs beyond 2^18 nodes are not representable in this subset.
    TooLarge,
    /// Graph construction failed (should not happen for valid input).
    Graph(GraphError),
}

impl fmt::Display for Graph6Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Graph6Error::BadHeader => write!(f, "malformed graph6 size header"),
            Graph6Error::BadByte { position } => {
                write!(f, "invalid graph6 byte at position {position}")
            }
            Graph6Error::BadLength { expected, actual } => {
                write!(f, "graph6 payload has {actual} bytes, expected {expected}")
            }
            Graph6Error::TooLarge => write!(f, "graph too large for graph6 (n ≥ 2^18)"),
            Graph6Error::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for Graph6Error {}

impl From<GraphError> for Graph6Error {
    fn from(e: GraphError) -> Self {
        Graph6Error::Graph(e)
    }
}

/// Serializes a graph to its graph6 string.
///
/// # Errors
///
/// Returns [`Graph6Error::TooLarge`] for graphs on `≥ 2^18` nodes.
pub fn to_graph6(g: &Graph) -> Result<String, Graph6Error> {
    let n = g.node_count();
    let mut out = Vec::new();
    if n <= 62 {
        out.push(n as u8 + 63);
    } else if n < (1 << 18) {
        out.push(126);
        out.push(((n >> 12) & 0x3F) as u8 + 63);
        out.push(((n >> 6) & 0x3F) as u8 + 63);
        out.push((n & 0x3F) as u8 + 63);
    } else {
        return Err(Graph6Error::TooLarge);
    }
    // Column-major upper-triangle bits, packed 6 per byte.
    let mut acc = 0u8;
    let mut filled = 0u8;
    for j in 1..n {
        for adjacent in g.adjacency_bits(j).take(j) {
            acc = (acc << 1) | u8::from(adjacent);
            filled += 1;
            if filled == 6 {
                out.push(acc + 63);
                acc = 0;
                filled = 0;
            }
        }
    }
    if filled > 0 {
        out.push((acc << (6 - filled)) + 63);
    }
    Ok(String::from_utf8(out).expect("all bytes printable"))
}

/// Parses a graph6 string.
///
/// # Errors
///
/// Returns a [`Graph6Error`] describing any malformation.
pub fn from_graph6(s: &str) -> Result<Graph, Graph6Error> {
    let bytes = s.trim_end().as_bytes();
    if bytes.is_empty() {
        return Err(Graph6Error::BadHeader);
    }
    let (n, payload) = if bytes[0] == 126 {
        if bytes.len() < 4 || bytes[1] == 126 {
            return Err(Graph6Error::BadHeader);
        }
        let mut n = 0usize;
        for (k, &b) in bytes[1..4].iter().enumerate() {
            if !(63..=126).contains(&b) {
                return Err(Graph6Error::BadByte { position: 1 + k });
            }
            n = (n << 6) | usize::from(b - 63);
        }
        (n, &bytes[4..])
    } else {
        if !(63..=126).contains(&bytes[0]) {
            return Err(Graph6Error::BadByte { position: 0 });
        }
        (usize::from(bytes[0] - 63), &bytes[1..])
    };
    let pair_bits = n * n.saturating_sub(1) / 2;
    let expected = pair_bits.div_ceil(6);
    if payload.len() != expected {
        return Err(Graph6Error::BadLength { expected, actual: payload.len() });
    }
    let mut g = Graph::empty(n);
    let mut bit_index = 0usize;
    let next_bit = |idx: usize| -> Result<bool, Graph6Error> {
        let byte = payload[idx / 6];
        if !(63..=126).contains(&byte) {
            return Err(Graph6Error::BadByte { position: idx / 6 });
        }
        let v = byte - 63;
        Ok((v >> (5 - (idx % 6))) & 1 == 1)
    };
    for j in 1..n {
        for i in 0..j {
            if next_bit(bit_index)? {
                g.add_edge(i, j)?;
            }
            bit_index += 1;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn known_small_graphs() {
        // Canonical examples from the nauty documentation: the 5-cycle
        // 0-1-2-3-4-0 is "DQc" … let's verify against first principles
        // instead: K_2 on 2 nodes = header 'A' (65), one pair bit 1 →
        // byte 0b100000+63 = 95 = '_'.
        let k2 = generators::complete(2);
        assert_eq!(to_graph6(&k2).unwrap(), "A_");
        // Empty graph on 0, 1 nodes.
        assert_eq!(to_graph6(&Graph::empty(0)).unwrap(), "?");
        assert_eq!(to_graph6(&Graph::empty(1)).unwrap(), "@");
        // And they parse back.
        assert_eq!(from_graph6("A_").unwrap(), k2);
        assert_eq!(from_graph6("?").unwrap(), Graph::empty(0));
    }

    #[test]
    fn roundtrip_assorted() {
        for g in [
            generators::gnp_half(40, 1),
            generators::gnp_half(63, 2), // boundary of the short header
            generators::gnp_half(64, 3), // first long header size
            generators::path(10),
            generators::complete(13),
            generators::gb_graph(7),
            Graph::empty(5),
        ] {
            let s = to_graph6(&g).unwrap();
            assert!(s.bytes().all(|b| (63..=126).contains(&b)), "printable: {s}");
            let back = from_graph6(&s).unwrap();
            assert_eq!(back, g);
        }
    }

    #[test]
    fn long_header_encodes_size() {
        let g = Graph::empty(100);
        let s = to_graph6(&g).unwrap();
        assert_eq!(s.as_bytes()[0], 126);
        let back = from_graph6(&s).unwrap();
        assert_eq!(back.node_count(), 100);
    }

    #[test]
    fn trailing_newline_tolerated() {
        let g = generators::cycle(6);
        let s = format!("{}\n", to_graph6(&g).unwrap());
        assert_eq!(from_graph6(&s).unwrap(), g);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert_eq!(from_graph6(""), Err(Graph6Error::BadHeader));
        assert!(matches!(from_graph6("A"), Err(Graph6Error::BadLength { .. })));
        assert!(matches!(from_graph6("A_~~~"), Err(Graph6Error::BadLength { .. })));
        // Byte below 63 in payload ('!' = 33; a trailing space would be
        // stripped as whitespace instead).
        assert!(matches!(from_graph6("A!"), Err(Graph6Error::BadByte { .. })));
        assert!(matches!(from_graph6("~~"), Err(Graph6Error::BadHeader)));
    }

    #[test]
    fn column_major_order_is_respected() {
        // Graph with single edge (0,2) on 4 nodes: pairs in column-major
        // order are (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) → bits 010000 →
        // byte 16+63 = 79 = 'O'.
        let g = Graph::from_edges(4, [(0, 2)]).unwrap();
        assert_eq!(to_graph6(&g).unwrap(), "CO");
    }
}
