//! Repair ≡ rebuild: under any single-edge delta, a patched
//! [`RepairableScheme`] must be indistinguishable — same bytes, same
//! [`VerifyReport`], same refusals — from a full-table scheme rebuilt
//! from scratch on the post-delta graph.
//!
//! Run under `ORT_THREADS ∈ {1, 2, 8}` by the CI determinism matrix:
//! every assertion here is thread-count-independent.
//!
//! [`RepairableScheme`]: optimal_routing_tables::routing::repair::RepairableScheme
//! [`VerifyReport`]: optimal_routing_tables::routing::verify::VerifyReport

use proptest::prelude::*;

use optimal_routing_tables::conformance::enumerate;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::graphs::{generators, paths, Graph};
use optimal_routing_tables::routing::repair::RepairableScheme;
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::full_table::FullTableScheme;
use optimal_routing_tables::routing::snapshot::{self, SchemeKind};
use optimal_routing_tables::routing::verify;

fn bytes(scheme: &dyn RoutingScheme) -> Vec<bool> {
    snapshot::save(SchemeKind::FullTable, scheme).expect("snapshot").iter().collect()
}

/// Applies the single-edge delta `{u, v}` (toggle: add if absent,
/// remove if present) to a fresh `RepairableScheme` over `g`, and checks
/// full equivalence with a from-scratch build on the post-delta graph.
fn check_delta(g: &Graph, u: usize, v: usize) {
    let mut repairable = RepairableScheme::full_table(g.clone()).expect("build");
    let refusals_before = repairable.stats().refusals;
    let before = bytes(repairable.scheme());

    let mut target = g.clone();
    let removing = g.neighbors(u).contains(&v);
    let outcome = if removing {
        target.remove_edge(u, v).expect("toggle");
        repairable.remove_link(u, v)
    } else {
        target.add_edge(u, v).expect("toggle");
        repairable.add_link(u, v)
    };

    if !paths::is_connected(&target) {
        // A from-scratch build would reject this topology; the repair
        // layer must refuse it, count the refusal, and not move a bit.
        assert!(outcome.is_err(), "disconnecting delta {{{u},{v}}} was accepted");
        assert_eq!(repairable.stats().refusals, refusals_before + 1);
        assert_eq!(bytes(repairable.scheme()), before, "refused delta mutated the scheme");
        return;
    }
    outcome.unwrap_or_else(|e| panic!("connectivity-preserving delta {{{u},{v}}} refused: {e}"));
    assert_eq!(repairable.stats().refusals, refusals_before, "spurious refusal count");

    let dists = Apsp::compute(&target);
    let fresh = FullTableScheme::build(&target, &dists).expect("fresh build");
    assert_eq!(
        bytes(repairable.scheme()),
        bytes(&fresh),
        "patched scheme differs from cold build after delta {{{u},{v}}}"
    );
    // Verify the patched scheme against its own repaired oracle and the
    // fresh scheme against a fresh APSP: equal reports certify the
    // repaired distances, not just the table bytes.
    let patched_report =
        verify::verify(&target, repairable.scheme(), repairable.oracle(), 1)
            .expect("verify patched");
    let fresh_report = verify::verify(&target, &fresh, &dists, 1).expect("verify fresh");
    assert_eq!(patched_report, fresh_report, "verify reports diverge");
    assert!(patched_report.is_shortest_path());
}

/// Every connected graph on up to 6 nodes, under **every** possible
/// single-edge delta — including the disconnecting ones, which must be
/// refused exactly when a from-scratch build would reject the result.
#[test]
fn exhaustive_small_corpus_every_single_edge_delta() {
    let mut checked = 0usize;
    for (n, graphs) in enumerate::connected_graphs_upto(6) {
        for g in &graphs {
            for u in 0..n {
                for v in (u + 1)..n {
                    check_delta(g, u, v);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "corpus unexpectedly small: {checked} deltas");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A chain of random single-edge deltas on seeded `G(128, 1/2)`,
    /// patched in place on one long-lived `RepairableScheme` and
    /// compared to a from-scratch rebuild after every step.
    #[test]
    fn gnp128_random_delta_chain_matches_cold_rebuilds(seed in any::<u64>()) {
        let g0 = generators::gnp_half(128, seed);
        let mut repairable = RepairableScheme::full_table(g0.clone()).expect("build");
        let mut target = g0;
        let mut state = seed | 1;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..12 {
            let (u, v) = loop {
                let u = lcg() % 128;
                let v = lcg() % 128;
                if u != v {
                    break (u.min(v), u.max(v));
                }
            };
            if target.neighbors(u).contains(&v) {
                let mut probe = target.clone();
                probe.remove_edge(u, v).expect("probe");
                if !paths::is_connected(&probe) {
                    // G(128, 1/2) has no bridges in practice; if one
                    // appears, skip rather than tear the chain.
                    continue;
                }
                target = probe;
                repairable.remove_link(u, v).expect("remove");
            } else {
                target.add_edge(u, v).expect("add");
                repairable.add_link(u, v).expect("add");
            }
            let fresh = FullTableScheme::build(&target, &Apsp::compute(&target)).expect("fresh");
            prop_assert_eq!(bytes(repairable.scheme()), bytes(&fresh));
        }
        prop_assert_eq!(repairable.stats().refusals, 0);
        // One full verification at the end of the chain: the long-lived
        // patched scheme still routes every pair along shortest paths,
        // measured against its own repaired oracle.
        let report = verify::verify(&target, repairable.scheme(), repairable.oracle(), 1)
            .expect("verify");
        prop_assert!(report.is_shortest_path());
        prop_assert!(repairable.stats().patches > 0, "chain never exercised the patch path");
    }
}
