//! Graph substrate for the *Optimal Routing Tables* reproduction.
//!
//! The paper studies point-to-point communication networks: undirected
//! graphs on `n` nodes labelled `{1..n}` (we use `{0..n-1}`), where each
//! node's incident edges are attached to locally numbered *ports*. This
//! crate provides:
//!
//! * [`Graph`] — an undirected graph held as sorted adjacency lists
//!   (O(n + m) memory), plus the canonical `E(G)` bit-string codec of
//!   Definition 2; [`Relays`] answers, for one node at a time, which of
//!   its neighbours reaches each non-neighbour.
//! * [`generators`] — deterministic, seeded graph families: `G(n,p)` and
//!   `G(n,m)` random graphs (the stand-in for Kolmogorov random graphs),
//!   classic topologies, and the Theorem 9 lower-bound graph `G_B`
//!   (Figure 1).
//! * [`paths`] — BFS, all-pairs shortest paths, diameter, connectivity and
//!   the shortest-path DAG needed by full-information routing.
//! * [`dist`] — compact distance storage: `u8`/`u16`/`u32` matrix cells
//!   chosen from a cheap diameter bound, plus horizontal matrix bands for
//!   streaming oracles, and the first-hop rule, per row and in blocks of
//!   64 destinations.
//! * [`oracle`] — the [`oracle::Distances`] trait over the exact distance
//!   sources: the full matrix, a banded/streaming oracle, and (in
//!   [`delta`]) the matrix repaired in place under churn.
//! * [`random_props`] — executable versions of the paper's Lemmas 1–3
//!   (degree concentration, diameter 2, logarithmic dominating prefix).
//! * [`ports`] — port-assignment machinery for models IA (fixed,
//!   adversarial) and IB (free), and model II's neighbour knowledge.
//! * [`labels`] — relabelling machinery for models α (identity),
//!   β (permutation) and γ (arbitrary charged labels).
//!
//! # Example
//!
//! ```
//! use ort_graphs::generators;
//! use ort_graphs::paths::Apsp;
//!
//! let g = generators::gnp_half(64, 42);
//! let apsp = Apsp::compute(&g);
//! assert_eq!(apsp.diameter(), Some(2)); // random graphs have diameter 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;

pub mod delta;
pub mod dist;
pub mod generators;
pub mod graph6;
pub mod oracle;
pub mod labels;
pub mod paths;
pub mod ports;
pub mod random_props;

pub use graph::{Graph, GraphError, NodeId, Relays};
