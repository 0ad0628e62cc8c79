//! Full-information routing under link failures — the scenario Section 1
//! motivates: "These schemes allow alternative, shortest, paths to be
//! taken whenever an outgoing link is down."
//!
//! We model a dense cluster interconnect, kill random links, and compare a
//! single-path compact scheme against the full-information scheme.
//!
//! Run with: `cargo run --release --example fault_tolerant_datacenter`

use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::full_information::FullInformationScheme;
use optimal_routing_tables::routing::schemes::theorem1::Theorem1Scheme;
use optimal_routing_tables::simnet::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 96;
    let g = generators::gnp_half(n, 42);
    println!("== fault-tolerant routing in a {n}-node dense interconnect ==\n");

    let dists = Apsp::compute(&g);
    let compact = Theorem1Scheme::build(&g, &dists)?;
    let full_info = FullInformationScheme::build(&g, &dists)?;
    println!("scheme sizes:");
    println!("  Theorem 1 (single path):   {:>10} bits", compact.total_size_bits());
    println!("  full information (Θ(n³)):  {:>10} bits", full_info.total_size_bits());
    println!();

    // Fail a growing set of random links; measure delivery of both schemes.
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let mut net_compact = Network::new(&compact);
    let mut net_fi = Network::new(&full_info);

    println!(
        "{:>14} {:>22} {:>22}",
        "failed links", "Theorem 1 delivery", "full info delivery"
    );
    for &failures in &[0usize, 50, 150, 400] {
        // (Re)apply the failure set deterministically.
        let mut to_fail = std::collections::HashSet::new();
        let mut local = StdRng::seed_from_u64(failures as u64 * 31 + 7);
        while to_fail.len() < failures {
            let e = edges[local.gen_range(0..edges.len())];
            to_fail.insert(e);
        }
        for net in [&mut net_compact, &mut net_fi] {
            for &(u, v) in &edges {
                net.restore_link(u, v);
            }
            for &(u, v) in &to_fail {
                net.fail_link(u, v);
            }
        }
        let (ok_c, bad_c) = net_compact.send_all_pairs();
        let (ok_f, bad_f) = net_fi.send_all_pairs();
        let pct = |ok: u64, bad: u64| 100.0 * ok as f64 / (ok + bad) as f64;
        println!(
            "{:>14} {:>21.2}% {:>21.2}%",
            failures,
            pct(ok_c, bad_c),
            pct(ok_f, bad_f)
        );
        // Full information never does worse.
        assert!(ok_f >= ok_c, "failover must not lose to single-path");
    }

    println!("\nfull information buys failover shortest paths at Θ(n³) bits —");
    println!("exactly the cost Theorem 10 proves unavoidable.");
    Ok(())
}
