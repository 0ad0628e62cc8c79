//! The space/stretch trade-off (Theorems 1, 3, 4, 5): how far routing
//! tables shrink when routes may be slightly longer than shortest.
//!
//! Run with: `cargo run --release --example space_stretch_tradeoff`

use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::{
    theorem1::Theorem1Scheme, theorem3::Theorem3Scheme, theorem4::Theorem4Scheme,
    theorem5::Theorem5Scheme,
};
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::graphs::paths::Apsp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 128;
    let g = generators::gnp_half(n, 7);
    println!("== space vs. stretch on G({n}, 1/2) ==\n");
    println!(
        "{:<28} {:>12} {:>10} {:>12}",
        "scheme", "total bits", "max hops", "max stretch"
    );

    let dists = Apsp::compute(&g);
    let rows: Vec<(&str, Box<dyn RoutingScheme>)> = vec![
        ("Theorem 1 (shortest path)", Box::new(Theorem1Scheme::build(&g, &dists)?)),
        ("Theorem 3 (stretch 1.5)", Box::new(Theorem3Scheme::build(&g, &dists)?)),
        ("Theorem 4 (stretch 2)", Box::new(Theorem4Scheme::build(&g, &dists)?)),
        ("Theorem 5 (stretch O(log n))", Box::new(Theorem5Scheme::build(&g, &dists)?)),
    ];

    let mut last_bits = usize::MAX;
    for (name, scheme) in &rows {
        let report = verify::verify(&g, scheme.as_ref(), &dists, 1)?;
        assert!(report.all_delivered(), "{name} failed to deliver");
        let max_hops = report.stretches.iter().map(|&(h, _)| h).max().unwrap_or(0);
        let bits = scheme.total_size_bits();
        println!(
            "{:<28} {:>12} {:>10} {:>12.2}",
            name,
            bits,
            max_hops,
            report.max_stretch().unwrap_or(1.0)
        );
        // Each relaxation of the stretch must buy space.
        assert!(bits <= last_bits, "{name} should not cost more than its predecessor");
        last_bits = bits.max(1);
    }

    println!("\nthe paper's prediction: Θ(n²) → O(n log n) → O(n log log n) → O(n) total bits");
    Ok(())
}
