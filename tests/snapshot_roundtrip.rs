//! Snapshot round-trip property: for every snapshot-capable scheme kind,
//! `save → load → verify` must reproduce the original scheme's behaviour
//! *exactly* — same deliveries, same failures, same per-pair hop counts.
//! The loaded router runs from decoded bits only, so any divergence means
//! the container format dropped or distorted state.
//!
//! This test must also pass under `--no-default-features` (serial build):
//! the snapshot bytes and the verification reports are engine-independent.

use optimal_routing_tables::conformance::registry::SchemeId;
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::routing::snapshot::{self, SchemeKind};
use optimal_routing_tables::routing::verify::{verify, VerifyReport};

fn assert_reports_identical(kind: SchemeKind, a: &VerifyReport, b: &VerifyReport) {
    assert_eq!(a.delivered, b.delivered, "{kind:?}: delivered differs");
    assert_eq!(a.total_hops, b.total_hops, "{kind:?}: total_hops differs");
    assert_eq!(a.stretches, b.stretches, "{kind:?}: per-pair (hops, dist) differ");
    assert_eq!(
        a.failures.len(),
        b.failures.len(),
        "{kind:?}: failure count differs"
    );
    for ((s1, t1, _), (s2, t2, _)) in a.failures.iter().zip(&b.failures) {
        assert_eq!((s1, t1), (s2, t2), "{kind:?}: failing pairs differ");
    }
}

#[test]
fn every_kind_roundtrips_to_an_identical_report() {
    let n = 24;
    let seed = 11;
    let g = generators::gnp_half(n, seed);
    for kind in SchemeKind::ALL {
        let id = SchemeId::from_snapshot_kind(kind).expect("registry covers all kinds");
        let dists = Apsp::compute(&g);
        let original = id
            .build_with_dists(&g, &dists)
            .unwrap_or_else(|e| panic!("{kind:?} refused G({n},1/2) seed {seed}: {e}"));
        let bits = snapshot::save(kind, original.as_ref()).expect("save");
        let loaded = snapshot::load(&bits).expect("load");
        assert_eq!(loaded.node_count(), n, "{kind:?}: node count changed");

        let before = verify(&g, original.as_ref(), &dists, 1).expect("verify original");
        let after = verify(&g, loaded.as_ref(), &dists, 1).expect("verify loaded");
        assert_reports_identical(kind, &before, &after);
    }
}

#[test]
fn double_roundtrip_is_bit_stable() {
    // save(load(save(s))) == save(s): the container is canonical, so a
    // second trip through the codec cannot change a single bit.
    let g = generators::gnp_half(20, 3);
    for kind in SchemeKind::ALL {
        let id = SchemeId::from_snapshot_kind(kind).expect("registry covers all kinds");
        let scheme = id.build_with_dists(&g, &Apsp::compute(&g)).expect("build");
        let bits = snapshot::save(kind, scheme.as_ref()).expect("save");
        let loaded = snapshot::load(&bits).expect("load");
        let again = snapshot::save(kind, loaded.as_ref()).expect("re-save");
        assert_eq!(bits, again, "{kind:?}: snapshot not canonical");
    }
}
