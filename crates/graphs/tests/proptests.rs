//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use ort_graphs::oracle::Distances;
use ort_graphs::paths::{bfs, bfs_distances, floyd_warshall, is_connected, reachable_count, Apsp, ApspEngine};
use ort_graphs::{generators, Graph};

/// Strategy: a random graph given by (n, edge bits as bools).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<bool>(), Graph::encoding_len(n)).prop_map(move |bits| {
            let bv = ort_bitio::BitVec::from_bools(&bits);
            Graph::from_edge_bits(n, &bv).expect("length matches")
        })
    })
}

proptest! {
    #[test]
    fn edge_bits_roundtrip(g in arb_graph(40)) {
        let bits = g.to_edge_bits();
        let g2 = Graph::from_edge_bits(g.node_count(), &bits).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn adjacency_views_agree(g in arb_graph(30)) {
        for u in g.nodes() {
            for v in g.nodes() {
                let row = g.adjacency_row(u).get(v) == Some(true);
                let list = g.neighbors(u).contains(&v);
                prop_assert_eq!(row, g.has_edge(u, v));
                prop_assert_eq!(list, g.has_edge(u, v));
            }
            prop_assert_eq!(g.degree(u), g.neighbors(u).len());
        }
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn apsp_matches_floyd_warshall(g in arb_graph(24)) {
        let apsp = Apsp::compute(&g);
        let fw = floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(apsp.distance(u, v), fw[u][v]);
            }
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(g in arb_graph(30)) {
        // |d(s,u) - d(s,v)| <= 1 for every edge (u,v) reachable from s.
        let (dist, _) = bfs(&g, 0);
        for (u, v) in g.edges() {
            if let (Some(a), Some(b)) = (dist[u], dist[v]) {
                prop_assert!(a.abs_diff(b) <= 1, "edge ({u},{v}) dist {a},{b}");
            }
        }
    }

    #[test]
    fn shortest_path_ports_decrease_distance(g in arb_graph(24)) {
        let apsp = Apsp::compute(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v { continue; }
                for w in apsp.shortest_path_ports(&g, u, v) {
                    prop_assert!(g.has_edge(u, w));
                    prop_assert_eq!(
                        apsp.distance(w, v),
                        apsp.distance(u, v).map(|d| d - 1)
                    );
                }
            }
        }
    }

    #[test]
    fn common_neighbor_is_sound_and_complete(g in arb_graph(25)) {
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v { continue; }
                match g.common_neighbor(u, v) {
                    Some(w) => {
                        prop_assert!(g.has_edge(u, w) && g.has_edge(v, w));
                    }
                    None => {
                        for w in g.nodes() {
                            prop_assert!(!(g.has_edge(u, w) && g.has_edge(v, w)));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn relabel_preserves_distances(seed in any::<u64>(), n in 3usize..20) {
        let g = generators::gnp_half(n, seed);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xABCD);
        let perm = generators::random_permutation(n, &mut rng);
        let h = g.relabel(&perm);
        let ag = Apsp::compute(&g);
        let ah = Apsp::compute(&h);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(ag.distance(u, v), ah.distance(perm[u], perm[v]));
            }
        }
    }

    #[test]
    fn gnm_has_exact_edges(n in 2usize..20, seed in any::<u64>()) {
        let total = n * (n - 1) / 2;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let m = (seed as usize) % (total + 1);
        let g = generators::gnm(n, m, &mut rng);
        prop_assert_eq!(g.edge_count(), m);
    }

    #[test]
    fn bfs_engines_agree_on_arbitrary_graphs(g in arb_graph(70)) {
        // Arbitrary edge bits: covers disconnected and isolated-node cases.
        for src in g.nodes() {
            let q = bfs_distances(&g, src, ApspEngine::Queue);
            let b = bfs_distances(&g, src, ApspEngine::Bitset);
            let t = bfs_distances(&g, src, ApspEngine::Tiled);
            prop_assert_eq!(&q, &b, "src {}", src);
            prop_assert_eq!(&q, &t, "src {} (tiled)", src);
            let reference = bfs(&g, src).0;
            prop_assert_eq!(&q, &reference, "src {} vs parent-tracking bfs", src);
        }
        let qa = Apsp::compute_with(&g, ApspEngine::Queue, 1);
        let ba = Apsp::compute_with(&g, ApspEngine::Bitset, 1);
        let ta = Apsp::compute_with(&g, ApspEngine::Tiled, 1);
        prop_assert_eq!(qa.matrix_u32(), ba.matrix_u32());
        prop_assert_eq!(qa.matrix_u32(), ta.matrix_u32());
    }

    #[test]
    fn apsp_engines_agree_on_dense_and_sparse_samples(n in 4usize..48, seed in any::<u64>()) {
        let dense = generators::gnp_half(n, seed);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0x5EED);
        let sparse = generators::gnp(n, 0.08, &mut rng);
        for g in [dense, sparse] {
            let qa = Apsp::compute_with(&g, ApspEngine::Queue, 1);
            let ba = Apsp::compute_with(&g, ApspEngine::Bitset, 1);
            prop_assert_eq!(&qa, &ba);
            // The public auto-selected entry point agrees with both.
            let auto = Apsp::compute(&g);
            prop_assert_eq!(&auto, &qa);
        }
    }

    #[test]
    fn parallel_apsp_is_byte_identical(n in 2usize..60, seed in any::<u64>(), threads in 1usize..9) {
        let g = generators::gnp_half(n, seed);
        let serial = Apsp::compute_with(&g, ApspEngine::Auto, 1);
        let par = Apsp::compute_with(&g, ApspEngine::Auto, threads);
        prop_assert_eq!(serial.matrix_u32(), par.matrix_u32());
    }

    #[test]
    fn reachability_matches_bfs(g in arb_graph(40)) {
        let (dist, _) = bfs(&g, 0);
        let reached = dist.iter().filter(|d| d.is_some()).count();
        prop_assert_eq!(reachable_count(&g, 0), reached);
        prop_assert_eq!(is_connected(&g), reached == g.node_count());
    }

    #[test]
    fn dominating_prefix_is_minimal(g in arb_graph(20)) {
        use ort_graphs::random_props::dominating_prefix_len;
        for u in g.nodes() {
            if let Some(t) = dominating_prefix_len(&g, u) {
                // The first t neighbours dominate…
                let prefix = &g.neighbors(u)[..t];
                for w in g.non_neighbors(u) {
                    prop_assert!(
                        prefix.iter().any(|&v| g.has_edge(v, w)),
                        "node {w} not dominated from {u}"
                    );
                }
                // …and t is minimal (t-1 leaves someone uncovered), unless 0.
                if t > 0 {
                    let shorter = &g.neighbors(u)[..t - 1];
                    let all_covered = g
                        .non_neighbors(u)
                        .iter()
                        .all(|&w| shorter.iter().any(|&v| g.has_edge(v, w)));
                    prop_assert!(!all_covered, "prefix {t} not minimal at {u}");
                }
            }
        }
    }
}
