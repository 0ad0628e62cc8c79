//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use ort_graphs::dist::{width_for, DistStore};
use ort_graphs::oracle::Distances;
use ort_graphs::paths::{
    bfs, floyd_warshall, is_connected, reachable_count, Apsp, ApspEngine, Traversal, UNREACHABLE,
};
use ort_graphs::ports::PortAssignment;
use ort_graphs::{generators, graph6, Graph, Relays};

/// The whole-graph band of each fill engine, forced through
/// [`Traversal::new`], as row-major `u32` cells: bitset, then tiled.
fn engine_bands(g: &Graph) -> [Vec<u32>; 2] {
    [ApspEngine::Bitset, ApspEngine::Tiled].map(|engine| {
        let band = Traversal::new(g, engine).band(g, 0, g.node_count(), width_for(g));
        band.store().to_u32_vec()
    })
}

/// Strategy: a random graph given by (n, edge bits as bools).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<bool>(), Graph::encoding_len(n)).prop_map(move |bits| {
            let bv = ort_bitio::BitVec::from_bools(&bits);
            Graph::from_edge_bits(n, &bv).expect("length matches")
        })
    })
}

/// Strategy: a seeded `G(n, p)` sample on one side of the bitset
/// engine's threshold (dense: average degree well above
/// [`ApspEngine::BITSET_AVG_DEGREE`]; else sparse), then edited the way
/// churn edits a graph: nodes joined and wired in, links cut, and nodes
/// detached and removed. Every view the graph offers is read off its one
/// representation, the sorted lists, so each must survive every edit.
fn arb_edited_graph() -> impl Strategy<Value = Graph> {
    any::<u64>().prop_map(|seed| {
        use rand::Rng;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let n = rng.gen_range(70..96);
        let p = if rng.gen_bool(0.5) { 0.6 } else { 0.05 };
        let mut g = generators::gnp(n, p, &mut rng);
        for _ in 0..rng.gen_range(0..12usize) {
            let n = g.node_count();
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            match rng.gen_range(0..3u32) {
                0 => {
                    let fresh = g.add_node();
                    g.add_edge(fresh, a).expect("in range");
                    g.add_edge(fresh, b).expect("in range");
                }
                1 if a != b => g.remove_edge(a, b).expect("in range"),
                1 => {}
                _ => {
                    for v in g.neighbors(a).to_vec() {
                        g.remove_edge(a, v).expect("in range");
                    }
                    g.remove_node(a).expect("detached");
                }
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn has_edge_and_non_neighbors_read_the_lists(g in arb_edited_graph()) {
        let n = g.node_count();
        for u in g.nodes() {
            let list = g.neighbors(u);
            prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "list of {} sorted", u);
            prop_assert_eq!(g.degree(u), list.len());
            for v in g.nodes() {
                prop_assert_eq!(g.has_edge(u, v), list.contains(&v), "({}, {})", u, v);
            }
            prop_assert!(!g.has_edge(u, n) && !g.has_edge(n, u));
            let complement: Vec<_> = g.nodes().filter(|&v| v != u && !list.contains(&v)).collect();
            prop_assert_eq!(g.non_neighbors(u), complement);
        }
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn interconnection_vector_equals_the_pairwise_loop(g in arb_edited_graph()) {
        for u in g.nodes() {
            let mut merged = ort_bitio::BitWriter::new();
            g.write_interconnection(u, &mut merged);
            let mut pairwise = ort_bitio::BitWriter::new();
            for x in g.nodes().filter(|&x| x != u) {
                pairwise.write_bit(g.has_edge(u, x));
            }
            prop_assert_eq!(merged.finish(), pairwise.finish(), "node {}", u);
        }
    }

    #[test]
    fn edge_bits_and_graph6_round_trip_after_edits(g in arb_edited_graph()) {
        let n = g.node_count();
        let bits = g.to_edge_bits();
        for (i, bit) in bits.iter().enumerate() {
            let (u, v) = Graph::index_to_edge(n, i);
            prop_assert_eq!(bit, g.has_edge(u, v), "pair ({}, {})", u, v);
        }
        prop_assert_eq!(&Graph::from_edge_bits(n, &bits).unwrap(), &g);
        let text = graph6::to_graph6(&g).unwrap();
        prop_assert_eq!(&graph6::from_graph6(&text).unwrap(), &g);
        prop_assert_eq!(g.complement().edges().collect::<Vec<_>>(), g.non_edges().collect::<Vec<_>>());
    }

    #[test]
    fn relays_equal_the_pairwise_scan(g in arb_edited_graph()) {
        let mut relays = Relays::new(&g);
        for u in g.nodes() {
            relays.set(u);
            let nbrs = g.neighbors(u);
            let mut prefix = Some(0);
            for (x, relay) in relays.non_neighbors() {
                let scan = nbrs.iter().position(|&v| g.has_edge(v, x));
                prop_assert_eq!(relay, scan, "least relay of {} toward {}", u, x);
                prefix = prefix.zip(scan).map(|(t, r)| usize::max(t, r + 1));
            }
            prop_assert_eq!(relays.dominating_prefix_len(), prefix, "node {}", u);
            for t in [0, 1, 3, nbrs.len()] {
                let escapee = g
                    .non_neighbors(u)
                    .into_iter()
                    .find(|&x| !nbrs[..t.min(nbrs.len())].iter().any(|&v| g.has_edge(v, x)));
                prop_assert_eq!(relays.escapee(t), escapee, "node {}, t = {}", u, t);
            }
        }
    }

    #[test]
    fn engines_agree_after_edits_on_both_sides_of_the_bitset_threshold(g in arb_edited_graph()) {
        // The bitset engine reads rows its traversal builds from the
        // lists; both engines' bands, and the full matrix whichever
        // engine `Auto` picks, must agree with Floyd–Warshall.
        let fw = floyd_warshall(&g);
        let reference: Vec<u32> =
            fw.iter().flatten().map(|d| d.unwrap_or(UNREACHABLE)).collect();
        for cells in engine_bands(&g) {
            prop_assert_eq!(&cells, &reference);
        }
        prop_assert_eq!(Apsp::compute_with(&g, 3).matrix_u32(), reference);
    }
}

proptest! {
    #[test]
    fn edge_bits_roundtrip(g in arb_graph(40)) {
        let bits = g.to_edge_bits();
        let g2 = Graph::from_edge_bits(g.node_count(), &bits).unwrap();
        prop_assert_eq!(g, g2);
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
    fn port_lookups_match_a_scan(g in arb_graph(40), seed in any::<u64>()) {
        // Sorted, adversarial, and `from_orders` over both kinds of order:
        // whatever the assignment, `port_to` finds what a scan of the
        // order finds, and the sorted flag says whether every order
        // ascends.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let adversarial = PortAssignment::adversarial(&g, &mut rng);
        let orders = |pa: &PortAssignment| g.nodes().map(|u| pa.order(u).to_vec()).collect();
        let assignments = [
            PortAssignment::sorted(&g),
            PortAssignment::from_orders(&g, orders(&adversarial)),
            PortAssignment::from_orders(&g, orders(&PortAssignment::sorted(&g))),
            adversarial,
        ];
        let n = g.node_count();
        for pa in &assignments {
            let ascending = g.nodes().all(|u| pa.order(u).windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(pa.is_sorted(), ascending);
            for u in g.nodes() {
                for v in 0..=n {
                    let scan = pa.order(u).iter().position(|&w| w == v);
                    prop_assert_eq!(pa.port_to(u, v), scan, "{} → {}", u, v);
                }
            }
            prop_assert_eq!(pa.port_to(n, 0), None);
        }
        prop_assert!(assignments[0].is_sorted() && assignments[2].is_sorted());
    }

    #[test]
    fn bfs_engines_agree_on_arbitrary_graphs(g in arb_graph(70)) {
        // Arbitrary edge bits: covers disconnected and isolated-node cases.
        let reference: Vec<Vec<Option<u32>>> = g.nodes().map(|src| bfs(&g, src).0).collect();
        let cells: Vec<u32> =
            reference.iter().flatten().map(|d| d.unwrap_or(UNREACHABLE)).collect();
        let n = g.node_count();
        for engine in [ApspEngine::Bitset, ApspEngine::Tiled] {
            let walk = Traversal::new(&g, engine);
            let mut rows = DistStore::unreachable(width_for(&g), n * n);
            for src in 0..n {
                walk.fill_row(&g, src, &mut rows, src);
            }
            prop_assert_eq!(&rows.to_u32_vec(), &cells, "{:?} one-source rows", engine);
        }
        for band in engine_bands(&g) {
            prop_assert_eq!(&band, &cells);
        }
    }

    #[test]
    fn apsp_engines_agree_on_dense_and_sparse_samples(n in 4usize..48, seed in any::<u64>()) {
        let dense = generators::gnp_half(n, seed);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0x5EED);
        let sparse = generators::gnp(n, 0.08, &mut rng);
        for g in [dense, sparse] {
            let [bitset, tiled] = engine_bands(&g);
            prop_assert_eq!(&bitset, &tiled);
            // The public auto-selected entry point agrees with both.
            prop_assert_eq!(Apsp::compute(&g).matrix_u32(), bitset);
        }
    }

    #[test]
    fn parallel_apsp_is_byte_identical(n in 2usize..60, seed in any::<u64>(), threads in 1usize..9) {
        let g = generators::gnp_half(n, seed);
        let serial = Apsp::compute_with(&g, 1);
        let par = Apsp::compute_with(&g, threads);
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
        let mut relays = Relays::new(&g);
        for u in g.nodes() {
            relays.set(u);
            if let Some(t) = relays.dominating_prefix_len() {
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
