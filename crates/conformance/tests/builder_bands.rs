//! Conformance: band-streaming scheme construction is byte-identical to
//! full-matrix construction.
//!
//! Every registered scheme builds through [`SchemeId::build_with_dists`]
//! against any exact `Distances` implementation, and the banded streaming
//! oracle holds only one band of the distance matrix at a time. This
//! harness is the proof obligation for that design: across the
//! exhaustive small-graph corpus, seeded `G(n, 1/2)` and power-law graphs,
//! every band width (including heights whose edges fall inside the
//! builders' 64-destination blocks), and every `ORT_THREADS` setting, the
//! banded build must equal the full-matrix ([`Apsp`]) build **byte for
//! byte** — same per-node bits, same labels, same snapshot bytes, same
//! verification report — and refusals must be the *same* [`SchemeError`].

use ort_conformance::enumerate;
use ort_conformance::registry::SchemeId;
use ort_graphs::generators;
use ort_graphs::oracle::BandedOracle;
use ort_graphs::paths::Apsp;
use ort_graphs::Graph;
use ort_routing::scheme::{RoutingScheme, SchemeError};
use ort_routing::snapshot;
use ort_routing::verify::verify;

// The same test-only inexact oracle `ort-routing`'s unit tests use.
#[path = "../../routing/src/inexact_oracle.rs"]
mod inexact_oracle;
use inexact_oracle::InexactOracle;

/// The band widths exercised per graph: degenerate one-row bands, the
/// production default (64), heights that make the builders' 64-destination
/// blocks straddle band edges (63, 65, 100), a multi-band mid-size, and the
/// full matrix — clamped to `n` and deduplicated.
fn band_widths(n: usize) -> Vec<usize> {
    let mut widths: Vec<usize> =
        [1usize, 2, 63, 64, 65, 100, 256, n].iter().map(|&w| w.clamp(1, n.max(1))).collect();
    widths.sort_unstable();
    widths.dedup();
    widths
}

/// Asserts two successful builds are byte-identical: per-node bits,
/// labels, and (where the scheme supports persistence) snapshot bytes.
fn assert_bytes_identical(
    ctx: &str,
    id: SchemeId,
    reference: &dyn RoutingScheme,
    candidate: &dyn RoutingScheme,
) {
    let n = reference.node_count();
    assert_eq!(n, candidate.node_count(), "{ctx}: node count");
    for u in 0..n {
        assert_eq!(
            reference.node_bits(u),
            candidate.node_bits(u),
            "{ctx}: node {u} bits differ"
        );
        assert_eq!(
            reference.labeling().label_of(u),
            candidate.labeling().label_of(u),
            "{ctx}: node {u} label differs"
        );
    }
    if let Some(kind) = id.snapshot_kind() {
        let a = snapshot::save(kind, reference).expect("reference snapshot");
        let b = snapshot::save(kind, candidate).expect("candidate snapshot");
        assert_eq!(a, b, "{ctx}: snapshot bytes differ");
    }
}

/// Builds `id` from the full matrix and banded at each width, and
/// asserts all agree (including refusals, which must be the same error).
fn check_graph(g: &Graph, label: &str) {
    let n = g.node_count();
    let apsp = Apsp::compute(g);
    for id in SchemeId::ALL {
        let reference = id.build_with_dists(g, &apsp);
        for band_rows in band_widths(n) {
            let ctx = format!("{label}/{}/band={band_rows}", id.name());
            let banded = BandedOracle::new(g.clone(), band_rows);
            let candidate = id.build_with_dists(g, &banded);
            match (&reference, &candidate) {
                (Ok(a), Ok(b)) => assert_bytes_identical(&ctx, id, &**a, &**b),
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{ctx}: refusal differs"),
                _ => panic!(
                    "{ctx}: full matrix {:?} vs banded {:?}",
                    reference.as_ref().map(|_| ()),
                    candidate.as_ref().map(|_| ())
                ),
            }
        }
    }
}

#[test]
fn banded_build_matches_full_matrix_on_exhaustive_corpus() {
    for n in 2..=6 {
        for (i, g) in enumerate::connected_graphs(n).iter().enumerate() {
            check_graph(g, &format!("n={n}#{i}"));
        }
    }
}

#[test]
fn banded_build_matches_full_matrix_on_seeded_random_graph() {
    check_graph(&generators::gnp_half(128, 1), "gnp128");
}

#[test]
fn banded_build_matches_full_matrix_on_sparse_graphs() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    check_graph(&generators::gnm(96, 96 * 3, &mut rng), "gnm96");
    check_graph(&generators::power_law_seeded(96, 2, 2.5, 1), "powerlaw96");
}

#[test]
fn banded_build_verifies_identically_to_full_matrix_build() {
    // Beyond raw bytes: the verification pipeline must see the two builds
    // as the same scheme — same deliveries, hops, worst pair, stretch.
    let g = generators::gnp_half(64, 4);
    let apsp = Apsp::compute(&g);
    let banded = BandedOracle::new(g.clone(), 5);
    for id in SchemeId::ALL {
        let reference =
            id.build_with_dists(&g, &apsp).expect("G(64,1/2) satisfies every precondition");
        let candidate = id.build_with_dists(&g, &banded).expect("banded build succeeds");
        let a = verify(&g, &*reference, &apsp, 1).unwrap();
        let b = verify(&g, &*candidate, &apsp, 1).unwrap();
        assert_eq!(a.delivered, b.delivered, "{}", id.name());
        assert_eq!(a.failures, b.failures, "{}", id.name());
        assert_eq!(a.stretches, b.stretches, "{}", id.name());
        assert_eq!(a.total_hops, b.total_hops, "{}", id.name());
        assert_eq!(a.worst, b.worst, "{}", id.name());
    }
}

#[test]
fn banded_build_is_deterministic_across_thread_counts() {
    // Byte-identity must also hold across `ORT_THREADS`: the project
    // invariant is that artifact bytes never depend on the worker count.
    // The banded oracle computes each band on the calling thread, so no
    // build below should depend on the variable at all. Safe to set the
    // env var here: even if another test in this binary races the
    // variable, every build below is asserted equal to the same serial
    // reference, so the assertion itself is thread-count-invariant.
    let g = generators::gnp_half(64, 2);
    std::env::set_var("ORT_THREADS", "1");
    let apsp = Apsp::compute(&g);
    let reference: Vec<_> = SchemeId::ALL
        .iter()
        .map(|id| id.build_with_dists(&g, &apsp).expect("G(64,1/2) satisfies every precondition"))
        .collect();
    for threads in ["1", "2", "8"] {
        std::env::set_var("ORT_THREADS", threads);
        for (id, reference) in SchemeId::ALL.iter().zip(&reference) {
            for band_rows in [5, 64] {
                let banded = BandedOracle::new(g.clone(), band_rows);
                let candidate = id.build_with_dists(&g, &banded).expect("banded build");
                assert_bytes_identical(
                    &format!("threads={threads}/{}/band={band_rows}", id.name()),
                    *id,
                    &**reference,
                    &*candidate,
                );
            }
        }
    }
    std::env::remove_var("ORT_THREADS");
}

#[test]
fn approximate_oracle_is_refused_by_every_builder() {
    let g = generators::gnp_half(32, 3);
    let inexact = InexactOracle::compute(&g);
    for id in SchemeId::ALL {
        assert_eq!(
            id.build_with_dists(&g, &inexact).err(),
            Some(SchemeError::ApproximateOracle { oracle: InexactOracle::NAME }),
            "{} must refuse an approximate oracle",
            id.name()
        );
    }
}

#[test]
fn banded_build_stays_within_one_ascending_pass_per_band_sweep() {
    // The memory claim behind the refactor: an APSP-hungry builder walks
    // destinations in ascending order, so the oracle computes each band a
    // bounded number of times instead of thrashing. Landmark uses two
    // ascending passes; everything else at most one per sweep plus the
    // connectivity row. Heights 63, 65 and 100 put band edges inside the
    // 64-destination blocks the full table and multi-interval gather.
    let n = 160;
    let g = generators::gnp_half(n, 6);
    for band_rows in [8, 63, 64, 65, 100] {
        let bands = n.div_ceil(band_rows) as u64;
        for (id, max_passes) in [
            (SchemeId::FullTable, 1),
            (SchemeId::FullInformation, 1),
            (SchemeId::MultiInterval, 1),
            (SchemeId::Landmark, 2),
        ] {
            let banded = BandedOracle::new(g.clone(), band_rows);
            id.build_with_dists(&g, &banded).expect("banded build");
            assert!(
                banded.bands_computed() <= max_passes * bands + 1,
                "{} at {band_rows}-row bands: {} bands computed, cap {}",
                id.name(),
                banded.bands_computed(),
                max_passes * bands + 1
            );
        }
    }
}
