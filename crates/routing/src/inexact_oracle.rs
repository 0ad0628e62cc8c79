//! A test-only inexact distance oracle: exact distances from an [`Apsp`]
//! that advertise themselves as approximate. The `Distances` trait is
//! public, so every builder and the verifier must refuse such an oracle
//! by name; this one keeps that refusal covered. `ort-routing`'s unit
//! tests declare this module, and the conformance crate's builder
//! differential includes the same file by path.

use ort_graphs::oracle::Distances;
use ort_graphs::paths::Apsp;
use ort_graphs::{Graph, NodeId};

/// [`Apsp`] distances behind an `is_exact()` that says no.
pub struct InexactOracle(Apsp);

impl InexactOracle {
    /// What [`Distances::describe`] calls this oracle, and so what every
    /// refusal must name.
    pub const NAME: &'static str = "inexact test oracle";

    /// Wraps `g`'s exact distances.
    pub fn compute(g: &Graph) -> Self {
        InexactOracle(Apsp::compute(g))
    }
}

impl Distances for InexactOracle {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.0.distance(u, v)
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn describe(&self) -> &'static str {
        Self::NAME
    }

    fn peak_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}
