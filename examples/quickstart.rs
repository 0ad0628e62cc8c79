//! Quickstart: build a compact routing scheme for a random network, route
//! some messages, and see the paper's headline numbers.
//!
//! Run with: `cargo run --example quickstart`

use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::full_table::FullTableScheme;
use optimal_routing_tables::routing::schemes::theorem1::Theorem1Scheme;
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::simnet::Network;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 128;
    let seed = 2026;
    println!("== Optimal Routing Tables: quickstart ==\n");
    println!("sampling a uniform random network G({n}, 1/2), seed {seed}…");
    let g = generators::gnp_half(n, seed);
    println!("  {} nodes, {} edges\n", g.node_count(), g.edge_count());

    // The trivial routing scheme: a port per destination at every node.
    let dists = Apsp::compute(&g);
    let full = FullTableScheme::build(&g, &dists)?;
    // The paper's Theorem 1 scheme: two tables, ≤ 6n bits per node.
    let compact = Theorem1Scheme::build(&g, &dists)?;

    println!("scheme sizes (total bits, the paper's Σ|F(u)| accounting):");
    println!("  full table (O(n² log n)): {:>9}", full.total_size_bits());
    println!("  Theorem 1  (≤ 6n²):       {:>9}", compact.total_size_bits());
    println!(
        "  ratio: {:.2}× smaller\n",
        full.total_size_bits() as f64 / compact.total_size_bits() as f64
    );

    // Both are shortest-path schemes; verify exhaustively.
    let report = verify::verify(&g, &compact, &dists, 1)?;
    println!(
        "verification: {}/{} pairs delivered, max stretch {:?}",
        report.delivered,
        n * (n - 1),
        report.max_stretch()
    );
    assert!(report.is_shortest_path());

    // Route a few messages through the simulator (decoded bits only).
    let mut net = Network::new(&compact);
    for (s, t) in [(0, 127), (3, 64), (100, 1)] {
        let d = net.send(s, t)?;
        println!("  {s} → {t}: path {:?} ({} hops)", d.path, d.hops());
    }
    println!("\nstats: {:?}", net.stats());
    Ok(())
}
