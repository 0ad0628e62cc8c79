//! Experiment BASE: the related-work baselines (interval routing, and a
//! Peleg–Upfal-style landmark scheme) against the paper's schemes, on the
//! random workload and on structured topologies the theorems do not cover.
//!
//! Regenerate with: `cargo run --release -p ort-bench --bin baselines`

use ort_bench::{fmt_bits, rule};
use ort_graphs::oracle::Distances;
use ort_graphs::paths::Apsp;
use ort_graphs::{generators, Graph};
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::{
    interval::IntervalScheme, landmark::LandmarkScheme, multi_interval::MultiIntervalScheme,
    theorem1::Theorem1Scheme,
};
use ort_routing::verify::verify;

fn report(name: &str, g: &Graph, dists: &dyn Distances, scheme: &dyn RoutingScheme) {
    let stride = if g.node_count() >= 256 { 5 } else { 1 };
    match verify(g, scheme, dists, stride) {
        Ok(r) if r.all_delivered() => {
            println!(
                "  {:<26} {:>14} bits   stretch ≤ {:>6.2}   avg {:>5.2}",
                name,
                fmt_bits(scheme.total_size_bits()),
                r.max_stretch().unwrap_or(1.0),
                r.avg_stretch().unwrap_or(1.0)
            );
        }
        Ok(r) => println!("  {:<26} delivery failures: {}", name, r.failures.len()),
        Err(e) => println!("  {name:<26} error: {e}"),
    }
}

fn main() {
    println!("== related-work baselines vs the paper's schemes ==\n");
    for (g, gname) in [
        (generators::gnp_half(256, 4), "G(256, 1/2)  — the paper's workload"),
        (generators::grid(16, 16), "16×16 grid   — outside the theorems"),
        (generators::connected_gnp(256, 0.05, 9), "sparse G(256, .05)"),
    ] {
        println!("{gname}:");
        let dists = Apsp::compute(&g);
        match Theorem1Scheme::build(&g, &dists) {
            Ok(s) => report("Theorem 1 (this paper)", &g, &dists, &s),
            Err(_) => println!("  {:<26} precondition violated (needs diameter-2 randomness)", "Theorem 1 (this paper)"),
        }
        let interval = IntervalScheme::build(&g, &dists).expect("connected");
        report("interval routing [1]", &g, &dists, &interval);
        let multi = MultiIntervalScheme::build(&g, &dists).expect("connected");
        let intervals = multi.total_intervals();
        report("k-interval shortest [1]", &g, &dists, &multi);
        println!("    ({} intervals total — reference [1]: random graphs defeat interval compression)", intervals);
        report(
            "landmark scheme (cf. [9])",
            &g,
            &dists,
            &LandmarkScheme::build(&g, &dists, 7).expect("connected"),
        );
        rule(84);
    }
    println!("\nreading: on the random workload the paper's scheme is both smaller and");
    println!("shortest-path; the baselines trade stretch (interval) or space (landmark)");
    println!("to survive on structured topologies the paper's preconditions exclude.");
}
