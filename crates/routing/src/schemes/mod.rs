//! The routing-scheme constructions.
//!
//! Upper-bound schemes from the paper, one module per theorem, plus the
//! trivial baseline and two related-work baselines:
//!
//! | Module | Result | Models | Stretch | Size (random graphs) |
//! |---|---|---|---|---|
//! | [`full_table`] | folklore | all | 1 | `n²·log n` total |
//! | [`theorem1`] | Theorem 1 | IB ∨ II, any labels | 1 | ≤ 6n bits/node |
//! | [`theorem2`] | Theorem 2 | II ∧ γ | 1 | `O(n log² n)` total |
//! | [`theorem3`] | Theorem 3 | II | 1.5 | `O(n log n)` total |
//! | [`theorem4`] | Theorem 4 | II | 2 | `n log log n + 6n` total |
//! | [`theorem5`] | Theorem 5 | II | `≤ (c+3)·log n` | `O(1)` bits/node |
//! | [`full_information`] | Section 1 / Theorem 10 | II | 1 (with failover) | `Θ(n³)` total |
//! | [`ia_compact`] | Theorem 8's constant, met from above | IA ∧ α | 1 | `(n/2)·log(n/2) + O(n)` bits/node |
//! | [`interval`] | interval routing (related work [1]) | IB ∧ β | tree-bound | `O(d log n)` bits/node |
//! | [`multi_interval`] | k-interval shortest path (related work [1]) | IB ∧ α | 1 | interval-count-bound |
//! | [`landmark`] | hub scheme in the spirit of Peleg–Upfal [9] | II ∧ γ | small constant | `o(n²)` total |
//!
//! [`resilient`] is not a construction but an *adapter*: it wraps any of
//! the above with bounded deterministic local detours, recovering part of
//! the link-failure resilience that only [`full_information`] has natively
//! — at zero additional table bits.

use ort_bitio::{bits_to_index, BitReader, BitVec};
use ort_graphs::oracle::Distances;
use ort_graphs::{Graph, NodeId};

use crate::scheme::{RouteError, SchemeError};

/// The common preconditions of every builder: the oracle must be exact
/// (banded construction reproduces full-matrix tables bit for bit, which
/// only holds for true distances), cover exactly `g`'s nodes, and see a
/// connected graph. Connectivity is read off the oracle (row 0 — one
/// band), so no extra traversal runs.
pub(crate) fn check_exact_oracle(g: &Graph, dists: &dyn Distances) -> Result<(), SchemeError> {
    if !dists.is_exact() {
        return Err(SchemeError::ApproximateOracle { oracle: dists.describe() });
    }
    if dists.node_count() != g.node_count() {
        return Err(SchemeError::Precondition {
            reason: "distance oracle does not match the graph".into(),
        });
    }
    if !dists.is_connected() {
        return Err(SchemeError::Disconnected);
    }
    Ok(())
}

/// The node id a γ label starts with — the first `⌈log₂ n⌉`-bit field of
/// both the Theorem 2 and the landmark label — read without parsing the
/// rest of the label.
pub(crate) fn leading_id(label: &BitVec, n: usize) -> Result<NodeId, RouteError> {
    Ok(BitReader::new(label).read_bits(bits_to_index(n as u64))? as NodeId)
}

pub mod full_information;
pub mod full_table;
pub mod ia_compact;
pub mod interval;
pub mod landmark;
pub mod multi_interval;
pub mod resilient;
pub mod theorem1;
pub mod theorem2;
pub mod theorem3;
pub mod theorem4;
pub mod theorem5;
