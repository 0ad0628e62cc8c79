//! Topology zoo: which routing scheme fits which network?
//!
//! The paper's theorems target dense random networks. Real topologies —
//! switch fabrics, small-world overlays, preferential-attachment
//! internets — may or may not satisfy the preconditions. This example runs
//! the randomness certificate on each topology, picks the best applicable
//! scheme, and prints the decision a deployment tool would make.
//!
//! Run with: `cargo run --release --example topology_zoo`

use optimal_routing_tables::graphs::random_props::RandomnessReport;
use optimal_routing_tables::graphs::{generators, graph6, Graph};
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::{
    landmark::LandmarkScheme, multi_interval::MultiIntervalScheme, theorem1::Theorem1Scheme,
};
use optimal_routing_tables::routing::verify;
use rand::rngs::StdRng;
use rand::SeedableRng;
use optimal_routing_tables::graphs::paths::Apsp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2026);
    let n = 96;
    let zoo: Vec<(&str, Graph)> = vec![
        ("uniform random G(n,1/2)", generators::gnp_half(n, 0)),
        ("random 4-regular fabric", generators::random_regular(n, 4, &mut rng)),
        ("small world (WS k=6 β=.2)", generators::watts_strogatz(n, 6, 0.2, &mut rng)),
        ("preferential attachment (BA m=3)", generators::barabasi_albert(n, 3, &mut rng)),
        ("8×12 grid", generators::grid(8, 12)),
    ];

    println!("== topology zoo: scheme selection by randomness certificate ==\n");
    for (name, g) in &zoo {
        let report = RandomnessReport::evaluate(g, 3.0);
        println!("{name} (n={}, m={}):", g.node_count(), g.edge_count());
        println!(
            "  certificate: degree {} | diameter-2 {} | log-prefix {}",
            report.degree.holds, report.diameter_two, report.cover.holds
        );
        // Interchange check: every topology round-trips through graph6.
        let g6 = graph6::to_graph6(g)?;
        assert_eq!(&graph6::from_graph6(&g6)?, g);

        if report.all_hold() {
            let dists = Apsp::compute(g);
            let scheme = Theorem1Scheme::build(g, &dists)?;
            let v = verify::verify(g, &scheme, &dists, 1)?;
            assert!(v.is_shortest_path());
            println!(
                "  → Theorem 1 applies: {} bits total, shortest path",
                scheme.total_size_bits()
            );
        } else {
            // General-graph fallbacks.
            let dists = Apsp::compute(g);
            let landmark = LandmarkScheme::build(g, &dists, 1)?;
            let vl = verify::verify(g, &landmark, &dists, 1)?;
            let multi = MultiIntervalScheme::build(g, &dists)?;
            let vm = verify::verify(g, &multi, &dists, 1)?;
            assert!(vl.all_delivered() && vm.all_delivered());
            println!(
                "  → fallbacks: landmark {} bits (stretch ≤ {:.2}) | k-interval {} bits (stretch 1)",
                landmark.total_size_bits(),
                vl.max_stretch().unwrap_or(1.0),
                multi.total_size_bits()
            );
        }
        println!();
    }
    println!("the certificate is exactly the paper's Lemmas 1–3 — the operational");
    println!("meaning of 'this graph is Kolmogorov random enough for Theorem 1'.");
    Ok(())
}
