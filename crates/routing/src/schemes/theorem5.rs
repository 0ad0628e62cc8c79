//! The Theorem 5 scheme: stretch `O(log n)` with `O(1)` bits per node
//! (model II).
//!
//! No tables at all. To reach a non-neighbour, the source *probes* its
//! first `(c+3)·log n` neighbours in turn: the message visits neighbour
//! `t`, which forwards it straight to the destination if it can, and
//! bounces it back otherwise. Lemma 3 guarantees some probed neighbour is
//! adjacent to the destination, so at most `2(c+3)·log n` edges are
//! traversed for a distance-2 destination.
//!
//! The message header carries the source label and a probe counter
//! ([`crate::scheme::MessageState`]) — `O(log n)` bits of *message*
//! overhead, which the paper's model does not charge to table space (just
//! as it does not charge for carrying the destination).

use ort_bitio::BitVec;
use ort_graphs::labels::{Label, Labeling};
use ort_graphs::oracle::Distances;
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId, Relays};

use crate::model::{Knowledge, Model, Relabeling};
use crate::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};

/// Default randomness parameter (as in Theorem 2).
pub const DEFAULT_C: f64 = 3.0;

/// The probe budget `(c+3)·log₂ n` at `c =` [`DEFAULT_C`].
fn probe_budget_for(n: usize) -> usize {
    ((DEFAULT_C + 3.0) * (n.max(2) as f64).log2()).ceil() as usize
}

/// The Theorem 5 probe scheme (stretch ≤ `(c+3)·log n`, zero stored bits).
///
/// # Example
///
/// ```
/// use ort_graphs::generators;
/// use ort_graphs::paths::Apsp;
/// use ort_routing::schemes::theorem5::Theorem5Scheme;
/// use ort_routing::scheme::RoutingScheme;
/// use ort_routing::verify;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_half(64, 2);
/// let dists = Apsp::compute(&g);
/// let scheme = Theorem5Scheme::build(&g, &dists)?;
/// assert_eq!(scheme.total_size_bits(), 0);
/// let report = verify::verify(&g, &scheme, &dists, 1)?;
/// assert!(report.all_delivered());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Theorem5Scheme {
    tables: Tables,
    probe_budget: usize,
}

impl Theorem5Scheme {
    /// Builds the scheme; sources probe their first `(c+3)·log₂ n`
    /// neighbours, at `c =` [`DEFAULT_C`]. The construction is purely
    /// adjacency-based; the exact oracle `dists` contributes only its
    /// connectivity bit (row 0), so a banded oracle's peak distance
    /// memory stays one band.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::Precondition`] if some non-adjacent pair has
    /// no common neighbour within the probe budget (Lemma 3 fails) or the
    /// oracle's node count does not match `g`,
    /// [`SchemeError::ApproximateOracle`] for inexact oracles, or
    /// [`SchemeError::Disconnected`].
    pub fn build(g: &Graph, dists: &dyn Distances) -> Result<Self, SchemeError> {
        let n = g.node_count();
        if n < 2 {
            return Err(SchemeError::Precondition { reason: "need at least 2 nodes".into() });
        }
        crate::schemes::check_exact_oracle(g, dists)?;
        let k = probe_budget_for(n);
        let mut relays = Relays::new(g);
        for u in 0..n {
            relays.set(u);
            if let Some(w) = relays.escapee(k) {
                return Err(SchemeError::Precondition {
                    reason: format!(
                        "pair ({u},{w}) has no common neighbour in the first {k} probes"
                    ),
                });
            }
        }
        let tables = Tables {
            bits: vec![BitVec::new(); n],
            labeling: Labeling::identity(n),
            ports: PortAssignment::sorted(g),
        };
        Ok(Theorem5Scheme { tables, probe_budget: k })
    }

    /// Reassembles a scheme from snapshot parts (`crate::snapshot`). The
    /// router stores nothing, so any per-node bits the parts carry are
    /// dropped; the probe budget is re-derived from `n`, exactly as
    /// [`Self::build`] derives it.
    pub(crate) fn from_parts(tables: Tables) -> Self {
        let n = tables.bits.len();
        let tables = Tables { bits: vec![BitVec::new(); n], ..tables };
        Theorem5Scheme { tables, probe_budget: probe_budget_for(n) }
    }

    /// The probe budget `(c+3)·log₂ n`.
    #[must_use]
    pub fn probe_budget(&self) -> usize {
        self.probe_budget
    }
}

impl RoutingScheme for Theorem5Scheme {
    fn model(&self) -> Model {
        Model::new(Knowledge::NeighborsKnown, Relabeling::None)
    }

    fn tables(&self) -> &Tables {
        &self.tables
    }

    /// The O(1) probe router. All state lives in the message header.
    fn route_at(
        &self,
        u: NodeId,
        env: &NodeEnv<'_>,
        dest: &Label,
        state: &mut MessageState,
    ) -> Result<RouteDecision, RouteError> {
        self.tables.node(u)?;
        if env.label == *dest {
            return Ok(RouteDecision::Deliver);
        }
        let labels = env.require_neighbor_labels()?;
        // Direct delivery — this is also what makes a probed node forward
        // the message to the destination instead of bouncing it.
        if let Some(port) = labels.port_of(dest) {
            return Ok(RouteDecision::Forward(port));
        }
        let source = state
            .source
            .as_ref()
            .ok_or(RouteError::MissingInformation { what: "source label in header" })?;
        if env.label == *source {
            // We are the source: probe the next neighbour in sorted-label
            // order (= port order under the sorted assignment).
            let t = state.counter as usize;
            if t >= self.probe_budget.min(env.degree) {
                return Err(RouteError::UnknownDestination);
            }
            state.counter += 1;
            Ok(RouteDecision::Forward(t))
        } else {
            // We are a probed node and cannot deliver: bounce back.
            let port = labels
                .port_of(source)
                .ok_or(RouteError::MissingInformation { what: "port back to source" })?;
            Ok(RouteDecision::Forward(port))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn delivers_everywhere_on_random_graphs() {
        for seed in 0..5u64 {
            let g = generators::gnp_half(48, seed);
            let dists = Apsp::compute(&g);
            let scheme = Theorem5Scheme::build(&g, &dists).unwrap();
            let report = verify(&g, &scheme, &dists, 1).unwrap();
            assert!(report.all_delivered(), "seed {seed}: {:?}", report.failures.first());
        }
    }

    #[test]
    fn stretch_is_within_probe_budget() {
        let n = 64;
        let g = generators::gnp_half(n, 9);
        let dists = Apsp::compute(&g);
        let scheme = Theorem5Scheme::build(&g, &dists).unwrap();
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        let s = report.max_stretch().unwrap();
        // Distance-2 pairs take at most 2k hops → stretch ≤ k.
        assert!(s <= scheme.probe_budget() as f64, "stretch {s}");
        // And it genuinely exceeds 1 somewhere (probing is not shortest
        // path).
        assert!(s > 1.0, "probing should detour somewhere");
    }

    #[test]
    fn zero_bits_stored_anywhere() {
        let g = generators::gnp_half(32, 4);
        let scheme = Theorem5Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        assert_eq!(scheme.total_size_bits(), 0);
        for u in 0..32 {
            assert_eq!(scheme.node_size_bits(u), 0, "node {u}");
        }
    }

    #[test]
    fn probe_sequence_hops_are_even_bounces() {
        // Route a specific far pair and inspect the path: it must
        // alternate source → probe → source … → probe → dest.
        let g = generators::gnp_half(40, 11);
        let scheme = Theorem5Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let (s, t) = {
            let mut pair = None;
            'outer: for s in 0..40 {
                for t in g.non_neighbors(s) {
                    if s != t {
                        pair = Some((s, t));
                        break 'outer;
                    }
                }
            }
            pair.expect("some non-adjacent pair")
        };
        let path = crate::verify::route_pair(&scheme, s, t, 400).unwrap();
        assert!(path.len() >= 3, "non-neighbour needs ≥ 2 hops");
        assert_eq!(path[0], s);
        assert_eq!(*path.last().unwrap(), t);
        // Every odd position is a probed neighbour; every even one (except
        // the last) is the source again.
        for (i, &x) in path.iter().enumerate() {
            if i % 2 == 0 && i + 1 < path.len() {
                assert_eq!(x, s, "even positions return to the source");
            }
        }
    }

    #[test]
    fn rejects_graphs_where_probing_fails() {
        let g = generators::path(20);
        assert!(matches!(
            Theorem5Scheme::build(&g, &Apsp::compute(&g)),
            Err(SchemeError::Precondition { .. })
        ));
    }

    #[test]
    fn missing_header_is_an_error() {
        let g = generators::gnp_half(32, 0);
        let scheme = Theorem5Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let env = scheme.node_env(0);
        let mut state = MessageState { source: None, counter: 0 };
        let dest = Label::Minimal(g.non_neighbors(0)[0]);
        assert!(matches!(
            scheme.route_at(0, &env, &dest, &mut state),
            Err(RouteError::MissingInformation { .. })
        ));
    }
}
