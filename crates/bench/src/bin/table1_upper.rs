//! Experiment T1-UB-*: the upper-bound rows of Table 1.
//!
//! For each model with an implemented scheme, measures the total scheme
//! size (average over seeded `G(n, 1/2)` samples) across a size sweep and
//! fits the growth exponent, next to the paper's predicted shape.
//!
//! Regenerate with: `cargo run --release -p ort-bench --bin table1_upper`
//! (set `ORT_FULL=1` for the n = 1024 tier).

use ort_bench::{fit_exponent, fmt_bits, mean, rule, sweep_sizes, DEFAULT_SEEDS};
use ort_graphs::generators;
use ort_graphs::labels::Labeling;
use ort_graphs::oracle::Distances;
use ort_graphs::paths::{map_in_order, Apsp};
use ort_graphs::ports::PortAssignment;
use ort_routing::model::{Knowledge, Model, Relabeling};
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::{
    full_table::FullTableScheme, theorem1::Theorem1Scheme, theorem2::Theorem2Scheme,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct RowSpec {
    id: &'static str,
    model: &'static str,
    scheme: &'static str,
    paper: &'static str,
    build: fn(&ort_graphs::Graph, &dyn Distances, u64) -> usize,
}

fn main() {
    let sizes = sweep_sizes();
    println!("== Table 1, upper bounds (average case over G(n,1/2)) ==\n");
    let rows = [
        RowSpec {
            id: "T1-UB-IAα",
            model: "IA∧α",
            scheme: "full table",
            paper: "O(n² log n)",
            build: |g, d, seed| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
                FullTableScheme::build_with(
                    g,
                    d,
                    Model::new(Knowledge::PortsFixed, Relabeling::None),
                    PortAssignment::adversarial(g, &mut rng),
                    Labeling::identity(g.node_count()),
                )
                .expect("connected")
                .total_size_bits()
            },
        },
        RowSpec {
            id: "T1-UB-IAα*",
            model: "IA∧α",
            scheme: "IA-compact (Lehmer + tables)",
            paper: "≥(n²/2)log(n/2)",
            build: |g, d, seed| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
                let ports = PortAssignment::adversarial(g, &mut rng);
                ort_routing::schemes::ia_compact::IaCompactScheme::build(g, ports, d)
                    .expect("random graph")
                    .total_size_bits()
            },
        },
        RowSpec {
            id: "T1-UB-IBα",
            model: "IB∧α",
            scheme: "Theorem 1 (+ neighbour vector)",
            paper: "O(n²)",
            build: |g, d, _| {
                Theorem1Scheme::build_ib(g, d).expect("random graph").total_size_bits()
            },
        },
        RowSpec {
            id: "T1-UB-IIα",
            model: "II∧α",
            scheme: "Theorem 1 (≤ 6n bits/node)",
            paper: "O(n²) [6n²]",
            build: |g, d, _| Theorem1Scheme::build(g, d).expect("random graph").total_size_bits(),
        },
        RowSpec {
            id: "T1-UB-IIγ",
            model: "II∧γ",
            scheme: "Theorem 2 (charged labels)",
            paper: "O(n log² n)",
            build: |g, d, _| Theorem2Scheme::build(g, d).expect("random graph").total_size_bits(),
        },
    ];

    println!(
        "{:<11} {:<6} {:<32} {:<13} | {:>12} per n, then exponent",
        "experiment", "model", "scheme", "paper bound", "total bits"
    );
    rule(110);
    for row in &rows {
        // The whole (n, seed) sweep for this row fans out across threads;
        // results come back size-major, seed-minor, as laid out here.
        let items: Vec<(usize, u64)> = sizes
            .iter()
            .flat_map(|&n| (0..DEFAULT_SEEDS).map(move |s| (n, s)))
            .collect();
        let samples = map_in_order(items.len(), |i| {
            let (n, s) = items[i];
            let g = generators::gnp_half(n, s);
            (row.build)(&g, &Apsp::compute(&g), s) as f64
        });
        print!("{:<11} {:<6} {:<32} {:<13} |", row.id, row.model, row.scheme, row.paper);
        let mut ys = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let per_size = &samples[i * DEFAULT_SEEDS as usize..(i + 1) * DEFAULT_SEEDS as usize];
            let avg = mean(per_size);
            ys.push(avg);
            print!(" n={n}:{}", fmt_bits(avg as usize));
        }
        let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
        println!("  → n^{:.2}", fit_exponent(&xs, &ys));
    }
    rule(110);
    println!("\nshape targets: IA∧α ≈ n^2+  (log factor), IB/II∧α ≈ n^2, II∧γ ≈ n^1+ (polylog);");
    println!("Theorem 1 must also stay under 6n bits/node at every size (checked in tests).");
}
