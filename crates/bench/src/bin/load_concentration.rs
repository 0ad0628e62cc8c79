//! Ablation: the hidden cost of the stretch/space ladder — traffic
//! concentration.
//!
//! Theorems 3 and 4 shrink tables by funnelling routes through hubs or a
//! single centre. The space accounting is the paper's; the congestion is
//! the deployment's. This experiment measures per-node transmission load
//! under all-pairs traffic for each rung of the ladder.
//!
//! Regenerate with: `cargo run --release -p ort-bench --bin load_concentration`

use ort_bench::{fmt_bits, rule};
use ort_graphs::generators;
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::{
    theorem1::Theorem1Scheme, theorem3::Theorem3Scheme, theorem4::Theorem4Scheme,
    theorem5::Theorem5Scheme,
};
use ort_simnet::Network;
use ort_graphs::paths::Apsp;

fn main() {
    let n = 128usize;
    let g = generators::gnp_half(n, 21);
    println!("== load concentration under all-pairs traffic (n = {n}) ==\n");
    println!(
        "{:<26} {:>12} {:>10} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "scheme", "total bits", "max load", "mean load", "max/mean", "total hops", "rounds@c4", "max queue"
    );
    rule(108);
    let dists = Apsp::compute(&g);
    let schemes: Vec<(&str, Box<dyn RoutingScheme>)> = vec![
        ("Theorem 1 (stretch 1)", Box::new(Theorem1Scheme::build(&g, &dists).unwrap())),
        ("Theorem 3 (stretch 1.5)", Box::new(Theorem3Scheme::build(&g, &dists).unwrap())),
        ("Theorem 4 (stretch 2)", Box::new(Theorem4Scheme::build(&g, &dists).unwrap())),
        ("Theorem 5 (probes)", Box::new(Theorem5Scheme::build(&g, &dists).unwrap())),
    ];
    for (name, scheme) in &schemes {
        let mut net = Network::new(scheme.as_ref());
        let (ok, bad) = net.send_all_pairs();
        assert_eq!(bad, 0, "{name}");
        let loads = net.load_profile();
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / n as f64;
        // Time under congestion: synchronous rounds, 4 transmissions per
        // node per round, all-pairs injected at once.
        let sim = ort_simnet::rounds::RoundSimulator::new(scheme.as_ref(), 4);
        let rr = sim.run(&ort_simnet::workloads::all_pairs(n));
        assert_eq!(rr.stranded, 0, "{name}");
        println!(
            "{:<26} {:>12} {:>10} {:>10.1} {:>12.1} {:>10} {:>10} {:>10}",
            name,
            fmt_bits(scheme.total_size_bits()),
            max as u64,
            mean,
            max / mean,
            net.stats().total_hops,
            rr.rounds,
            rr.max_queue
        );
        assert_eq!(ok as usize, n * (n - 1), "{name}: all-pairs delivery");
    }
    rule(86);
    println!("\nreading: every rung down the ladder cuts table bits but concentrates");
    println!("traffic — Theorem 4's centre transmits a Θ(n)-fraction of all messages.");
    println!("The paper prices bits only; a deployment also pays this congestion.");
}
