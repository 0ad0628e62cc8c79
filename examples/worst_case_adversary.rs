//! The Theorem 9 worst case, live: the `G_B` graph of Figure 1, an
//! adversarial labelling, and the permutation being read back out of the
//! routing tables.
//!
//! Run with: `cargo run --example worst_case_adversary`

use optimal_routing_tables::bitio::lehmer;
use optimal_routing_tables::routing::lower_bounds::theorem9;
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::full_table::FullTableScheme;
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::graphs::paths::Apsp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 6;
    println!("== Figure 1: the worst-case graph G_B (k = {k}, n = {}) ==\n", 3 * k);
    println!("  top     t0  t1  …  t{}   (degree 1, labels scrambled!)", k - 1);
    println!("           |   |       |");
    println!("  middle  m0  m1  …  m{}   (each mi — ti, and mi — every bottom)", k - 1);
    println!("           \\   |      /");
    println!("            [ b0 … b{} ]   (bottom: complete bipartite with middle)\n", k - 1);
    println!("unique shortest path bottom→top goes through the matching middle;");
    println!("any other route has length ≥ 4, so stretch < 2 forces the choice.\n");

    let (g, sigma) = theorem9::scrambled_gb(k, 2026);
    println!("adversarial top-layer permutation σ = {sigma:?}");

    // Any stretch < 2 scheme qualifies; the full table has stretch 1.
    let dists = Apsp::compute(&g);
    let scheme = FullTableScheme::build(&g, &dists)?;
    let report = verify::verify(&g, &scheme, &dists, 1)?;
    assert!(report.is_shortest_path());

    println!("\nreading σ back out of each bottom node's routing function:");
    for b in 0..k {
        let extracted = theorem9::extract_top_permutation(&scheme, k, b)?;
        println!("  F(b{b}) ⟹ σ = {extracted:?}");
        assert_eq!(extracted, sigma);
    }

    let perm_bits = lehmer::permutation_code_width(k);
    println!("\neach bottom routing function therefore carries ⌈log₂ {k}!⌉ = {perm_bits} bits");
    println!(
        "measured |F(b)| here: {} bits (full table)",
        scheme.node_size_bits(0)
    );
    println!("\nscaled up, that is the paper's worst-case Ω(n² log n) lower bound");
    println!("for every scheme with stretch < 2 when nodes cannot be relabelled.");
    Ok(())
}
