//! Experiment AVG: Corollary 1 — the average total number of bits to store
//! the routing scheme over graphs on n nodes, per model.
//!
//! The corollary follows from the Kolmogorov-random-graph results because
//! random graphs are a `1 − 1/n³` fraction of all graphs; here we compute
//! the empirical average over uniform samples directly, per scheme, and
//! report it normalized by the paper's predicted shape (a flat column
//! means the shape matches).
//!
//! Regenerate with: `cargo run --release -p ort-bench --bin average_case`

use ort_bench::{mean, rule, sweep_sizes};
use ort_graphs::generators;
use ort_graphs::oracle::Distances;
use ort_graphs::paths::{map_in_order, Apsp};
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::{
    full_information::FullInformationScheme, full_table::FullTableScheme,
    theorem1::Theorem1Scheme, theorem2::Theorem2Scheme, theorem3::Theorem3Scheme,
    theorem4::Theorem4Scheme, theorem5::Theorem5Scheme,
};

fn main() {
    let sizes = sweep_sizes();
    let seeds = 5u64;
    println!("== Corollary 1: average T(G) over uniform graph samples ==\n");
    println!("each cell: measured average total bits ÷ paper shape (flat ⇒ shape confirmed)\n");

    type Builder = fn(&ort_graphs::Graph, &dyn Distances) -> Option<usize>;
    type Shape = fn(usize) -> f64;
    let rows: [(&str, &str, Shape, Builder); 7] = [
        ("1. II shortest path", "n²", |n| (n * n) as f64, |g, d| {
            Theorem1Scheme::build(g, d).ok().map(|s| s.total_size_bits())
        }),
        ("2. II∧γ shortest path", "n log² n", |n| {
            let l = (n as f64).log2();
            n as f64 * l * l
        }, |g, d| Theorem2Scheme::build(g, d).ok().map(|s| s.total_size_bits())),
        ("3. II stretch 1.5", "n log n", |n| n as f64 * (n as f64).log2(), |g, d| {
            Theorem3Scheme::build(g, d).ok().map(|s| s.total_size_bits())
        }),
        ("4. II stretch 2", "n loglog n", |n| n as f64 * (n as f64).log2().log2(), |g, d| {
            Theorem4Scheme::build(g, d).ok().map(|s| s.total_size_bits())
        }),
        ("5. II stretch 6log n", "n (0 stored)", |n| n as f64, |g, d| {
            Theorem5Scheme::build(g, d).ok().map(|s| s.total_size_bits())
        }),
        ("6. full table (any model)", "n² log n", |n| (n * n) as f64 * (n as f64).log2(), |g, d| {
            FullTableScheme::build(g, d).ok().map(|s| s.total_size_bits())
        }),
        ("8. full information", "n³", |n| (n * n * n) as f64, |g, d| {
            FullInformationScheme::build(g, d).ok().map(|s| s.total_size_bits())
        }),
    ];

    print!("{:<28} {:<12}", "Corollary row / scheme", "shape");
    for &n in &sizes {
        print!(" {:>10}", format!("n={n}"));
    }
    println!();
    rule(30 + 12 + 11 * sizes.len());
    for (name, shape_name, shape, build) in &rows {
        // Fan the whole (n, seed) sweep for this row out across threads.
        let items: Vec<(usize, u64)> = sizes
            .iter()
            .flat_map(|&n| {
                // Full information at n=512+ is heavy; sample fewer seeds.
                let s_count = if *shape_name == "n³" && n >= 512 { 2 } else { seeds };
                (0..s_count).map(move |s| (n, s))
            })
            .collect();
        let cells = map_in_order(items.len(), |i| {
            let (n, s) = items[i];
            let g = generators::gnp_half(n, s + 100);
            build(&g, &Apsp::compute(&g)).map(|b| b as f64 / shape(n))
        });
        print!("{name:<28} {shape_name:<12}");
        for &n in &sizes {
            let vals: Vec<f64> = items
                .iter()
                .zip(&cells)
                .filter(|((m, _), _)| *m == n)
                .filter_map(|(_, v)| *v)
                .collect();
            if vals.is_empty() {
                print!(" {:>10}", "—");
            } else {
                print!(" {:>10.3}", mean(&vals));
            }
        }
        println!();
    }
    println!("\n(row numbers match Corollary 1; rows 6–8 are the Ω sides, realized by the");
    println!("schemes whose sizes the lower-bound experiments show cannot be beaten.)");
}
