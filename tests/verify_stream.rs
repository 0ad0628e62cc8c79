//! The streamed sampled verify against the full-matrix one.
//!
//! `verify_scheme_sampled(g, scheme, k)` fills only the bands its sampled
//! sources need, so it must return exactly what
//! `verify(g, scheme, &Apsp::compute(g), k)` returns: the whole report,
//! failures in order included, or the same error. The graphs resolve to
//! both fill engines, so the door's bands are filled by each: the tiled
//! one on a graph smaller than one tile and on one that is not a whole
//! number of tiles. The reports do not depend on `ORT_THREADS`; CI runs
//! this file at 1, 2 and 8 workers.

use optimal_routing_tables::graphs::labels::Label;
use optimal_routing_tables::graphs::paths::{Apsp, ApspEngine};
use optimal_routing_tables::graphs::{generators, Graph, NodeId};
use optimal_routing_tables::routing::model::Model;
use optimal_routing_tables::routing::scheme::{
    MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, SchemeError, Tables,
};
use optimal_routing_tables::routing::schemes::full_table::FullTableScheme;
use optimal_routing_tables::routing::verify::{sampled_targets, verify, verify_scheme_sampled};

/// Full-table routing that refuses to route at every node `u ≡ 3 (mod 7)`,
/// so each pair whose walk starts at or passes through one fails.
struct Refusing(FullTableScheme);

impl RoutingScheme for Refusing {
    fn model(&self) -> Model {
        self.0.model()
    }

    fn tables(&self) -> &Tables {
        self.0.tables()
    }

    fn route_at(
        &self,
        u: NodeId,
        env: &NodeEnv<'_>,
        dest: &Label,
        state: &mut MessageState,
    ) -> Result<RouteDecision, RouteError> {
        if u % 7 == 3 {
            return Err(RouteError::UnknownDestination);
        }
        self.0.route_at(u, env, dest, state)
    }
}

/// Both doors at every stride: 0 and 1 (all pairs), small strides that
/// sample every source, and strides from `n − 1` up, where the sampled
/// sources thin out to one range and then to none.
fn assert_doors_agree(g: &Graph, apsp: &Apsp, scheme: &dyn RoutingScheme, name: &str) {
    let n = g.node_count();
    for stride in [0, 1, 2, 3, 7, n.saturating_sub(1), n, 2 * n, 10 * n] {
        assert_eq!(
            verify_scheme_sampled(g, scheme, stride),
            verify(g, scheme, apsp, stride),
            "{name}, n = {n}, stride {stride}"
        );
    }
}

#[test]
fn the_streamed_door_equals_verify_over_a_full_matrix() {
    assert_eq!(1100 % ApspEngine::tile_sources(1100), 76, "the last tile is partial");
    for (g, engine, name) in [
        (generators::connected_gnp(48, 0.08, 3), ApspEngine::Tiled, "sparse"),
        (generators::gnp_half(96, 2), ApspEngine::Bitset, "dense"),
        // Four tiles of 256 sources and a last one of 76.
        (generators::power_law_seeded(1100, 2, 2.5, 1), ApspEngine::Tiled, "power law"),
    ] {
        assert_eq!(ApspEngine::Auto.resolve(&g), engine, "{name}");
        let apsp = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &apsp).expect("connected");
        assert_doors_agree(&g, &apsp, &scheme, name);

        let refusing = Refusing(scheme);
        let report = verify(&g, &refusing, &apsp, 2).expect("connected");
        assert!(
            !report.failures.is_empty() && report.delivered > 0,
            "{name}: the refusing scheme must fail some pairs and deliver others"
        );
        assert_doors_agree(&g, &apsp, &refusing, &format!("{name}, refusing"));
    }
}

#[test]
fn the_streamed_door_agrees_on_tiny_and_disconnected_graphs() {
    let pair = Graph::from_edges(2, [(0, 1)]).expect("one edge");
    for g in [Graph::empty(0), Graph::empty(1), pair.clone()] {
        let apsp = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &apsp).expect("connected");
        assert_doors_agree(&g, &apsp, &scheme, "tiny");
    }
    // Stretch is undefined on a disconnected graph: both doors refuse it,
    // whatever scheme they are handed.
    let ring = generators::cycle(6);
    let ring_scheme = FullTableScheme::build(&ring, &Apsp::compute(&ring)).expect("connected");
    let split = Graph::from_edges(6, [(0, 1), (2, 3), (4, 5)]).expect("three edges");
    let pair_scheme = FullTableScheme::build(&pair, &Apsp::compute(&pair)).expect("connected");
    for (g, scheme) in [(&split, &ring_scheme), (&Graph::empty(2), &pair_scheme)] {
        for stride in [1, 3, 100] {
            assert_eq!(verify_scheme_sampled(g, scheme, stride), Err(SchemeError::Disconnected));
            assert_eq!(verify(g, scheme, &Apsp::compute(g), stride), Err(SchemeError::Disconnected));
        }
    }
}

/// The enumerator is the sampling rule: `t` is a target of `s` exactly
/// when `t ≠ s` and `(s + t) % stride == 0`, and targets ascend.
#[test]
fn sampled_targets_are_the_pairs_whose_sum_the_stride_divides() {
    for n in [0, 1, 2, 5, 16, 33] {
        for stride in [0, 1, 2, 3, 7, 16, 31, 32, 33, 64, 1000] {
            let step = stride.max(1);
            for s in 0..n {
                let want: Vec<NodeId> =
                    (0..n).filter(|&t| t != s && (s + t) % step == 0).collect();
                let got: Vec<NodeId> = sampled_targets(s, n, stride).collect();
                assert_eq!(got, want, "n = {n}, stride {stride}, source {s}");
            }
        }
    }
}
