//! Cross-layer equivalence for the scaled distance layer: every engine
//! (queue / bitset / tiled, serial and threaded), every cell width
//! (u8 / u16 / u32), and both oracle modes (full matrix, banded
//! streaming) must agree with the queue-engine reference — byte for
//! byte — on the exhaustive small-graph corpus and on seeded large
//! graphs. The landmark oracle is approximate by design, so it is held
//! to its stretch contract instead of equality.
//!
//! CI runs this binary under the `ORT_THREADS` 1/2/8 matrix; the
//! threaded assertions here pass their thread count to `compute_with`
//! so the sweep inside one test cannot race the env var.

use optimal_routing_tables::conformance::enumerate;
use optimal_routing_tables::graphs::dist::{width_for, CellWidth, DistStore};
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::oracle::{BandedOracle, Distances, LandmarkOracle};
use optimal_routing_tables::graphs::paths::{Apsp, ApspEngine, Traversal, UNREACHABLE};
use optimal_routing_tables::graphs::Graph;

/// The queue-engine full matrix — the reference every mode must match.
fn reference(g: &Graph) -> Vec<u32> {
    Apsp::compute_with(g, ApspEngine::Queue, 1).matrix_u32()
}

fn assert_engine_matches(g: &Graph, reference: &[u32], engine: ApspEngine, what: &str) {
    let apsp = Apsp::compute_with(g, engine, 1);
    assert_eq!(apsp.matrix_u32(), reference, "{what}: n={}", g.node_count());
}

fn assert_banded_matches(g: &Graph, reference: &[u32], band_rows: usize) {
    let n = g.node_count();
    let oracle = BandedOracle::new(g.clone(), band_rows);
    for u in 0..n {
        for v in 0..n {
            let want = match reference[u * n + v] {
                UNREACHABLE => None,
                d => Some(d),
            };
            assert_eq!(
                oracle.distance(u, v),
                want,
                "banded(band_rows={band_rows}) disagrees at ({u}, {v}), n={n}"
            );
        }
    }
}

/// Every cell width must round-trip the reference distances, including
/// the unreachable sentinel, through `DistStore` unchanged.
fn assert_stores_round_trip(reference: &[u32]) {
    for width in [CellWidth::U8, CellWidth::U16, CellWidth::U32] {
        let mut store = DistStore::unreachable(width, reference.len());
        for (i, &d) in reference.iter().enumerate() {
            if d != UNREACHABLE {
                store.set(i, d);
            }
        }
        for (i, &d) in reference.iter().enumerate() {
            assert_eq!(store.get(i), d, "{} store drifts at cell {i}", width.name());
        }
        assert_eq!(store.to_u32_vec(), reference);
    }
}

#[test]
fn every_engine_and_store_matches_queue_on_all_small_connected_graphs() {
    for n in 2..=6 {
        for g in enumerate::connected_graphs(n) {
            let reference = reference(&g);
            assert_engine_matches(&g, &reference, ApspEngine::Bitset, "bitset");
            assert_engine_matches(&g, &reference, ApspEngine::Tiled, "tiled");
            assert_stores_round_trip(&reference);
            for band_rows in [1, 2, n] {
                assert_banded_matches(&g, &reference, band_rows);
            }
        }
    }
}

#[test]
fn bands_tile_the_reference_matrix_exactly() {
    let g = generators::connected_gnp(90, 0.05, 11);
    let n = g.node_count();
    let reference = reference(&g);
    let width = width_for(&g);
    for engine in [ApspEngine::Queue, ApspEngine::Bitset, ApspEngine::Tiled] {
        let walk = Traversal::new(&g, engine);
        let mut start = 0;
        while start < n {
            let rows = 17.min(n - start);
            let band = walk.band(&g, start, rows, width);
            for u in start..start + rows {
                for v in 0..n {
                    let want = match reference[u * n + v] {
                        UNREACHABLE => None,
                        d => Some(d),
                    };
                    assert_eq!(band.distance(u, v), want, "{engine:?} band at ({u}, {v})");
                }
            }
            start += rows;
        }
    }
}

#[test]
fn engines_and_threads_match_on_seeded_gnp_128() {
    let g = generators::gnp_half(128, 7);
    let reference = reference(&g);
    assert_engine_matches(&g, &reference, ApspEngine::Bitset, "bitset");
    assert_engine_matches(&g, &reference, ApspEngine::Tiled, "tiled");
    for threads in [1, 2, 8] {
        for engine in [ApspEngine::Bitset, ApspEngine::Tiled] {
            let apsp = Apsp::compute_with(&g, engine, threads);
            assert_eq!(
                apsp.matrix_u32(),
                reference,
                "{engine:?} with {threads} threads drifts from the serial queue engine"
            );
        }
    }
    assert_banded_matches(&g, &reference, 10);
}

#[test]
fn engines_match_on_sparse_power_law_graphs() {
    for (n, gamma) in [(300, 2.5), (512, 3.0)] {
        let g = generators::power_law_seeded(n, 2, gamma, 3);
        let reference = reference(&g);
        assert_engine_matches(&g, &reference, ApspEngine::Tiled, "tiled");
        let full = Apsp::compute(&g);
        assert_eq!(full.matrix_u32(), reference, "default engine drifts at n={n}");
        let oracle = BandedOracle::with_engine(g.clone(), 64, ApspEngine::Tiled);
        for u in (0..n).step_by(37) {
            for v in (0..n).step_by(23) {
                assert_eq!(oracle.distance(u, v), full.distance(u, v));
            }
        }
    }
}

#[test]
fn landmark_oracle_honours_its_stretch_contract() {
    let graphs = [
        generators::gnp_half(48, 2),
        generators::grid(8, 9),
        generators::power_law_seeded(150, 2, 2.5, 5),
    ];
    for g in &graphs {
        let n = g.node_count();
        let apsp = Apsp::compute(g);
        let lo = LandmarkOracle::build(g, 9);
        assert!(!lo.is_exact(), "the landmark oracle must advertise approximation");
        for u in 0..n {
            for v in 0..n {
                let d = apsp.distance(u, v);
                let est = lo.distance(u, v);
                let Some(d) = d else {
                    continue;
                };
                let est = est.unwrap_or_else(|| {
                    panic!("landmark oracle lost a reachable pair ({u}, {v})")
                });
                let slack = 2 * lo.radius(u).unwrap_or(0).min(lo.radius(v).unwrap_or(0));
                assert!(
                    est >= d && est <= d + slack,
                    "estimate {est} outside [{d}, {d} + {slack}] at ({u}, {v}), n={n}"
                );
                assert!(lo.distance_lower_bound(u, v) <= d);
            }
        }
    }
}
