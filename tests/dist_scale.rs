//! Cross-layer equivalence for the scaled distance layer: both fill
//! engines (bitset / tiled, forced through `Traversal::new`, each as a
//! band and as one-source rows), the full matrix on any thread count,
//! every cell width (u8 / u16 / u32), and both oracle modes (full
//! matrix, banded streaming) must agree with the queue BFS reference
//! (`paths::bfs`) — byte for byte — on the exhaustive small-graph corpus
//! and on seeded large graphs.
//!
//! CI runs this binary under the `ORT_THREADS` 1/2/8 matrix; the
//! threaded assertions here pass their thread count to `compute_with`
//! so the sweep inside one test cannot race the env var.

use optimal_routing_tables::conformance::enumerate;
use optimal_routing_tables::graphs::dist::{width_for, CellWidth, DistStore};
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::oracle::{BandedOracle, Distances};
use optimal_routing_tables::graphs::paths::{bfs, Apsp, ApspEngine, Traversal, UNREACHABLE};
use optimal_routing_tables::graphs::Graph;

/// One `paths::bfs` per source, row-major — the reference every mode
/// must match.
fn reference(g: &Graph) -> Vec<u32> {
    (0..g.node_count()).flat_map(|s| bfs(g, s).0).map(|d| d.unwrap_or(UNREACHABLE)).collect()
}

/// `engine`'s whole-graph band and each of its one-source rows.
fn assert_engine_matches(g: &Graph, reference: &[u32], engine: ApspEngine, what: &str) {
    let n = g.node_count();
    let walk = Traversal::new(g, engine);
    let band = walk.band(g, 0, n, width_for(g));
    assert_eq!(band.store().to_u32_vec(), reference, "{what} band: n={n}");
    let mut row = DistStore::unreachable(width_for(g), n);
    for (s, want) in reference.chunks(n.max(1)).enumerate() {
        walk.fill_row(g, s, &mut row, 0);
        assert_eq!(row.to_u32_vec(), want, "{what} row {s}: n={n}");
    }
}

/// The full matrix at each thread count.
fn assert_threads_match(g: &Graph, reference: &[u32]) {
    for threads in [1, 2, 8] {
        let apsp = Apsp::compute_with(g, threads);
        assert_eq!(apsp.matrix_u32(), reference, "{threads} threads: n={}", g.node_count());
    }
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
            assert_eq!(Apsp::compute_with(&g, 1).matrix_u32(), reference, "matrix: n={n}");
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
    for engine in [ApspEngine::Bitset, ApspEngine::Tiled] {
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
    assert_eq!(ApspEngine::Auto.resolve(&g), ApspEngine::Bitset);
    let reference = reference(&g);
    assert_engine_matches(&g, &reference, ApspEngine::Bitset, "bitset");
    assert_engine_matches(&g, &reference, ApspEngine::Tiled, "tiled");
    assert_threads_match(&g, &reference);
    assert_banded_matches(&g, &reference, 10);
}

#[test]
fn engines_match_on_sparse_power_law_graphs() {
    for (n, gamma) in [(300, 2.5), (512, 3.0)] {
        let g = generators::power_law_seeded(n, 2, gamma, 3);
        assert_eq!(ApspEngine::Auto.resolve(&g), ApspEngine::Tiled);
        let reference = reference(&g);
        assert_engine_matches(&g, &reference, ApspEngine::Tiled, "tiled");
        assert_engine_matches(&g, &reference, ApspEngine::Bitset, "bitset");
        assert_threads_match(&g, &reference);
        let full = Apsp::compute(&g);
        let oracle = BandedOracle::new(g.clone(), 64);
        for u in (0..n).step_by(37) {
            for v in (0..n).step_by(23) {
                assert_eq!(oracle.distance(u, v), full.distance(u, v));
            }
        }
    }
}
