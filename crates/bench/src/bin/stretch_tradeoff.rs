//! Experiments T1-ST-*: the stretch rows of Table 1 (Theorems 3–5) next to
//! the shortest-path baseline (Theorem 1).
//!
//! Regenerate with: `cargo run --release -p ort-bench --bin stretch_tradeoff`

use ort_bench::{fit_exponent, fmt_bits, mean, rule, sweep_sizes, DEFAULT_SEEDS};
use ort_graphs::generators;
use ort_graphs::oracle::Distances;
use ort_graphs::paths::{map_in_order, Apsp};
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::{
    theorem1::Theorem1Scheme, theorem3::Theorem3Scheme, theorem4::Theorem4Scheme,
    theorem5::Theorem5Scheme,
};
use ort_routing::verify::verify;

struct Row {
    id: &'static str,
    name: &'static str,
    paper_size: &'static str,
    paper_stretch: &'static str,
    build: fn(&ort_graphs::Graph, &dyn Distances) -> Box<dyn RoutingScheme>,
}

fn main() {
    let sizes = sweep_sizes();
    let rows = [
        Row {
            id: "T1-UB-IIα",
            name: "Theorem 1",
            paper_size: "6n²",
            paper_stretch: "1",
            build: |g, d| Box::new(Theorem1Scheme::build(g, d).expect("random graph")),
        },
        Row {
            id: "T1-ST-1.5",
            name: "Theorem 3",
            paper_size: "(6c+20) n log n",
            paper_stretch: "1.5",
            build: |g, d| Box::new(Theorem3Scheme::build(g, d).expect("random graph")),
        },
        Row {
            id: "T1-ST-2",
            name: "Theorem 4",
            paper_size: "n loglog n + 6n",
            paper_stretch: "2",
            build: |g, d| Box::new(Theorem4Scheme::build(g, d).expect("random graph")),
        },
        Row {
            id: "T1-ST-logn",
            name: "Theorem 5",
            paper_size: "O(n) [0 stored]",
            paper_stretch: "≤ (c+3)log n",
            build: |g, d| Box::new(Theorem5Scheme::build(g, d).expect("random graph")),
        },
    ];

    println!("== the space/stretch trade-off (Theorems 1, 3, 4, 5) ==\n");
    println!(
        "{:<11} {:<10} {:<17} {:<13} {:>9}  sizes per n, then exponent / measured stretch",
        "experiment", "scheme", "paper size", "paper stretch", ""
    );
    rule(120);
    for row in &rows {
        // Build + sampled-verify every (n, seed) cell in parallel; each
        // cell returns (total size bits, measured stretch).
        let items: Vec<(usize, u64)> = sizes
            .iter()
            .flat_map(|&n| (0..DEFAULT_SEEDS).map(move |s| (n, s)))
            .collect();
        let samples = map_in_order(items.len(), |i| {
            let (n, s) = items[i];
            let g = generators::gnp_half(n, s + 10);
            let dists = Apsp::compute(&g);
            let scheme = (row.build)(&g, &dists);
            // Sampled verification keeps the sweep fast at n=512+.
            let stride = if n >= 256 { 7 } else { 1 };
            let report = verify(&g, scheme.as_ref(), &dists, stride).expect("connected");
            assert!(report.all_delivered(), "{}: delivery failed", row.name);
            (scheme.total_size_bits() as f64, report.max_stretch().unwrap_or(1.0))
        });
        let worst_stretch = samples.iter().map(|&(_, st)| st).fold(0.0_f64, f64::max);
        let mut ys = Vec::new();
        print!("{:<11} {:<10} {:<17} {:<13} {:>9}", row.id, row.name, row.paper_size, row.paper_stretch, "");
        for (i, &n) in sizes.iter().enumerate() {
            let per_size: Vec<f64> = samples
                [i * DEFAULT_SEEDS as usize..(i + 1) * DEFAULT_SEEDS as usize]
                .iter()
                .map(|&(bits, _)| bits)
                .collect();
            let avg = mean(&per_size);
            ys.push(avg.max(1.0));
            print!(" n={n}:{}", fmt_bits(avg as usize));
        }
        let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
        println!("  → n^{:.2}, stretch ≤ {:.2}", fit_exponent(&xs, &ys), worst_stretch);
    }
    rule(120);
    println!("\nshape targets: sizes strictly decrease down the ladder at every n;");
    println!("exponents ≈ 2 / ≈1.3 / ≈1.1 / 0, stretch 1 / 1.5 / 2 / O(log n).");
}
