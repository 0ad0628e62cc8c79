//! Integration tests running every scheme through the message-passing
//! simulator — schemes and simulator are separate crates, so this is the
//! full decode-bits-then-route loop a deployment would run.

use optimal_routing_tables::conformance::registry::SchemeId;
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::graphs::Graph;
use optimal_routing_tables::routing::scheme::{
    MessageState, RouteError, RoutingScheme, SchemeError,
};
use optimal_routing_tables::routing::schemes::resilient::ResilientScheme;
use optimal_routing_tables::routing::schemes::{
    full_information::FullInformationScheme, full_table::FullTableScheme,
    interval::IntervalScheme, landmark::LandmarkScheme, multi_interval::MultiIntervalScheme,
    theorem1::Theorem1Scheme, theorem2::Theorem2Scheme, theorem3::Theorem3Scheme,
    theorem4::Theorem4Scheme, theorem5::Theorem5Scheme,
};
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::simnet::faults::FaultPlan;
use optimal_routing_tables::simnet::resilience::resilience_hop_limit;
use optimal_routing_tables::simnet::rounds::RoundSimulator;
use optimal_routing_tables::simnet::{FailureBreakdown, Network, SimError};

const N: usize = 48;
const SEED: u64 = 77;

fn all_schemes(g: &Graph) -> Vec<(&'static str, Box<dyn RoutingScheme>)> {
    let dists = Apsp::compute(g);
    vec![
        ("full_table", Box::new(FullTableScheme::build(g, &dists).unwrap())),
        ("theorem1", Box::new(Theorem1Scheme::build(g, &dists).unwrap())),
        ("theorem1_ib", Box::new(Theorem1Scheme::build_ib(g, &dists).unwrap())),
        ("theorem2", Box::new(Theorem2Scheme::build(g, &dists).unwrap())),
        ("theorem3", Box::new(Theorem3Scheme::build(g, &dists).unwrap())),
        ("theorem4", Box::new(Theorem4Scheme::build(g, &dists).unwrap())),
        ("theorem5", Box::new(Theorem5Scheme::build(g, &dists).unwrap())),
        ("full_information", Box::new(FullInformationScheme::build(g, &dists).unwrap())),
        ("interval", Box::new(IntervalScheme::build(g, &dists).unwrap())),
        ("multi_interval", Box::new(MultiIntervalScheme::build(g, &dists).unwrap())),
        ("landmark", Box::new(LandmarkScheme::build(g, &dists, 5).unwrap())),
    ]
}

#[test]
fn every_scheme_delivers_all_pairs_through_the_simulator() {
    let g = generators::gnp_half(N, SEED);
    for (name, scheme) in all_schemes(&g) {
        let mut net = Network::new(scheme.as_ref());
        let (ok, bad) = net.send_all_pairs();
        assert_eq!(bad, 0, "{name}: {bad} failures");
        assert_eq!(ok as usize, N * (N - 1), "{name}");
    }
}

#[test]
fn shortest_path_schemes_agree_with_apsp_hop_counts() {
    let g = generators::gnp_half(N, SEED);
    let apsp = Apsp::compute(&g);
    for (name, scheme) in all_schemes(&g) {
        if !matches!(
            name,
            "full_table" | "theorem1" | "theorem1_ib" | "theorem2" | "full_information"
                | "multi_interval"
        )
        {
            continue;
        }
        let mut net = Network::new(scheme.as_ref());
        for s in 0..N {
            for t in 0..N {
                if s == t {
                    continue;
                }
                let d = net.send(s, t).unwrap();
                assert_eq!(
                    d.hops() as u32,
                    apsp.distance(s, t).unwrap(),
                    "{name}: pair ({s},{t})"
                );
            }
        }
    }
}

/// Every registry scheme on `g`, bare and wrapped in the detour adapter.
fn registry_schemes(g: &Graph, dists: &Apsp) -> Vec<(String, Box<dyn RoutingScheme>)> {
    let build = |id: SchemeId| {
        id.build_with_dists(g, dists).unwrap_or_else(|e| panic!("{}: {e}", id.name()))
    };
    SchemeId::ALL
        .into_iter()
        .flat_map(|id| {
            let wrapped: Box<dyn RoutingScheme> = Box::new(ResilientScheme::wrap(build(id)));
            [(id.name().to_string(), build(id)), (format!("{}+detour", id.name()), wrapped)]
        })
        .collect()
}

/// Fault-free, the simulator and the verifier walk every pair of every
/// scheme along the same path.
#[test]
fn simulator_and_verifier_agree() {
    let g = generators::gnp_half(N, SEED);
    let dists = Apsp::compute(&g);
    let limit = verify::default_hop_limit(N);
    for (name, scheme) in registry_schemes(&g, &dists) {
        let scheme = scheme.as_ref();
        let mut net = Network::new(scheme);
        for s in 0..N {
            for t in (0..N).filter(|&t| t != s) {
                let walked = verify::route_pair(scheme, s, t, limit).map_err(|e| e.to_string());
                let sent = net.send(s, t).map(|d| d.path).map_err(|e| e.to_string());
                assert_eq!(sent, walked, "{name}: pair ({s},{t})");
            }
        }
        let report = verify::verify(&g, scheme, &dists, 1).unwrap();
        assert_eq!(report.delivered as u64, net.stats().delivered, "{name}");
        assert_eq!(report.total_hops, net.stats().total_hops, "{name}");
    }
}

/// Under a static link-fault load, `Network` and a one-message round
/// simulation reach the same verdict on every pair of every scheme: a
/// delivery takes as many rounds as hops, with the same reroutes; a
/// failure lands in the same bucket; and a walk that exhausts the hop
/// budget is still in flight when the round cap, one round more, is hit.
#[test]
fn network_and_round_simulator_agree_under_faults() {
    let n = 24;
    let limit = resilience_hop_limit(n);
    for seed in [1, 2] {
        let g = generators::gnp_half(n, seed);
        let dists = Apsp::compute(&g);
        for (name, scheme) in registry_schemes(&g, &dists) {
            let scheme = scheme.as_ref();
            let plan = FaultPlan::random_link_faults(scheme.port_assignment(), 0.15, seed);
            let mut net = Network::new(scheme);
            net.set_hop_limit(limit);
            net.set_fault_plan(plan.clone()).unwrap();
            let mut sim = RoundSimulator::new(scheme, 1);
            sim.set_round_cap(limit as u32 + 1);
            sim.set_fault_plan(plan).unwrap();
            for s in 0..n {
                for t in (0..n).filter(|&t| t != s) {
                    let reroutes = net.stats().reroutes;
                    let sent = net.send(s, t);
                    let round = sim.run(&[(s, t)]);
                    let ctx = format!("{name}, seed {seed}: pair ({s},{t}) {sent:?}");
                    match sent {
                        Ok(d) => {
                            assert_eq!(round.latencies, [d.hops() as u32], "{ctx}");
                            assert_eq!(round.reroutes, net.stats().reroutes - reroutes, "{ctx}");
                        }
                        Err(SimError::HopLimit { .. }) => assert_eq!(round.stranded, 1, "{ctx}"),
                        Err(e) => {
                            let mut bucket = FailureBreakdown::default();
                            bucket.record(&e);
                            assert_eq!((round.errored_by, round.stranded), (bucket, 0), "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

/// A node id past the last node fails cleanly at both route entries of
/// every registry scheme, bare and wrapped: `decode_router` names it, and
/// `route_at` returns the reading of a router that would not decode and
/// leaves the header alone. Theorem 2's and Theorem 5's routers do not
/// know their node, so this pins the range check each `route_at` keeps.
/// In range, the boxed router decides exactly as `route_at` does.
#[test]
fn both_route_entries_reject_out_of_range_nodes() {
    let n = 24;
    let g = generators::gnp_half(n, 1);
    let dists = Apsp::compute(&g);
    for (name, scheme) in registry_schemes(&g, &dists) {
        let scheme = scheme.as_ref();
        let env = scheme.node_env(0);
        let header = MessageState { source: Some(scheme.label_of(0)), counter: 0 };
        for u in [n, n + 1, usize::MAX] {
            let node = SchemeError::NodeOutOfRange { node: u };
            assert_eq!(scheme.decode_router(u).err(), Some(node.clone()), "{name}: node {u}");
            let mut state = header.clone();
            assert_eq!(
                scheme.route_at(u, &env, &scheme.label_of(1), &mut state),
                Err(RouteError::from(node)),
                "{name}: node {u}"
            );
            assert_eq!(state, header, "{name}: node {u}");
        }
        let router = scheme.decode_router(0).expect("node 0 is in range");
        for t in 1..n {
            let dest = scheme.label_of(t);
            let (mut boxed, mut direct) = (header.clone(), header.clone());
            assert_eq!(
                router.route(&env, &dest, &mut boxed),
                scheme.route_at(0, &env, &dest, &mut direct),
                "{name}: 0→{t}"
            );
            assert_eq!(boxed, direct, "{name}: 0→{t}");
        }
    }
}

#[test]
fn landmark_scheme_handles_sparse_topologies_where_theorems_cannot() {
    // The paper's schemes need diameter-2 random graphs; the baselines
    // must cover the rest of the world.
    for (g, name) in [
        (generators::grid(6, 6), "grid"),
        (generators::cycle(20), "cycle"),
        (generators::connected_gnp(40, 0.15, 3), "sparse gnp"),
    ] {
        let dists = Apsp::compute(&g);
        assert!(Theorem1Scheme::build(&g, &dists).is_err(), "{name} should violate preconditions");
        let scheme = LandmarkScheme::build(&g, &dists, 1).unwrap();
        let mut net = Network::new(&scheme);
        let (_, bad) = net.send_all_pairs();
        assert_eq!(bad, 0, "{name}");
        let interval = IntervalScheme::build(&g, &dists).unwrap();
        let mut net = Network::new(&interval);
        let (_, bad) = net.send_all_pairs();
        assert_eq!(bad, 0, "{name} (interval)");
    }
}

#[test]
fn link_failures_degrade_gracefully() {
    let g = generators::gnp_half(N, SEED);
    let fi = FullInformationScheme::build(&g, &Apsp::compute(&g)).unwrap();
    let mut net = Network::new(&fi);
    // Cut every link on one node except one; traffic to that node must
    // still arrive via the survivor. The victim is chosen adjacent to the
    // sender, so the surviving link (its lowest-id neighbour, i.e. node 0)
    // is exactly the sender's direct edge — the scenario is then well-posed
    // for any RNG stream, not just one specific sample.
    let victim = g.neighbors(0)[0];
    let nbrs = g.neighbors(victim).to_vec();
    for &v in &nbrs[1..] {
        assert!(net.fail_link(victim, v), "{victim}-{v} must be a real link");
    }
    let d = net.send(0, victim).unwrap();
    assert_eq!(*d.path.last().unwrap(), victim);
    assert_eq!(d.path[d.path.len() - 2], nbrs[0], "must enter via the survivor");
    // Cut the last link: now it must fail, and report precisely.
    assert!(net.fail_link(victim, nbrs[0]));
    match net.send(0, victim) {
        Err(SimError::LinkDown { .. } | SimError::HopLimit { .. }) => {}
        other => panic!("expected failure, got {other:?}"),
    }
}

#[test]
fn charged_sizes_differ_between_gamma_and_alpha() {
    let g = generators::gnp_half(N, SEED);
    let dists = Apsp::compute(&g);
    let t2 = Theorem2Scheme::build(&g, &dists).unwrap();
    // γ: everything is labels.
    assert_eq!(t2.total_size_bits(), t2.labeling().total_charged_bits());
    let t1 = Theorem1Scheme::build(&g, &dists).unwrap();
    // α: labels are free.
    assert_eq!(t1.labeling().total_charged_bits(), 0);
    let per_node: usize = (0..N).map(|u| t1.node_size_bits(u)).sum();
    assert_eq!(t1.total_size_bits(), per_node);
}
