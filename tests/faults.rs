//! Integration tests for the fault-injection engine and the recovery
//! machinery: timed plans, crash/restart, bipartitions, TTL, and the
//! resilient detour adapter — all through the public facade, the way a
//! deployment would wire them.

use proptest::prelude::*;

use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::full_table::FullTableScheme;
use optimal_routing_tables::routing::schemes::resilient::ResilientScheme;
use optimal_routing_tables::simnet::faults::{FaultEvent, FaultPlan, FaultState, TimedFault};
use optimal_routing_tables::simnet::resilience::resilience_hop_limit;
use optimal_routing_tables::simnet::rounds::{RetryPolicy, RoundSimulator};
use optimal_routing_tables::simnet::workloads;
use optimal_routing_tables::simnet::{Network, SimError};

#[test]
fn crash_and_restart_drains_afterwards() {
    // Node 2 crashes before any round and restarts at round 6. With
    // retries on, every message must eventually get through — the crash
    // delays the network, it does not lose anything permanently.
    let g = generators::path(5); // 0-1-2-3-4
    let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
    let mut sim = RoundSimulator::new(&scheme, 4);
    sim.set_fault_plan(FaultPlan::from_events(vec![
        TimedFault { at: 0, event: FaultEvent::NodeCrash(2) },
        TimedFault { at: 6, event: FaultEvent::NodeRestart(2) },
    ]))
    .unwrap();
    sim.set_retry_policy(RetryPolicy { max_retries: 10, backoff_base: 1, backoff_cap: 4 });
    // Workload crossing the crashed node from both sides, plus traffic
    // that never touches it.
    let report = sim.run(&[(0, 4), (4, 0), (1, 3), (0, 1), (3, 4)]);
    assert_eq!(report.delivered, 5, "all messages arrive once node 2 is back");
    assert_eq!(report.errored, 0);
    assert_eq!(report.stranded, 0);
    assert!(report.retries >= 1, "the crash must have forced retries");
    assert!(report.rounds > 6, "delivery cannot complete before the restart");
}

#[test]
fn bipartition_cuts_exactly_the_cross_pairs_and_heals() {
    // On a complete graph every route is the direct edge, so an active
    // bipartition must fail *exactly* the cross-cut pairs.
    let n = 10;
    let side: Vec<usize> = vec![0, 1, 2, 3];
    let g = generators::complete(n);
    let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
    let mut net = Network::new(&scheme);
    net.fault_state_mut().apply(&FaultEvent::Bipartition { side: side.clone() }).unwrap();
    let mut cross_failed = 0u64;
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            let crosses = side.contains(&s) != side.contains(&t);
            match net.send(s, t) {
                Ok(_) => assert!(!crosses, "({s},{t}) crosses the cut but was delivered"),
                Err(SimError::Partitioned { .. }) => {
                    assert!(crosses, "({s},{t}) stayed on one side but was cut");
                    cross_failed += 1;
                }
                Err(e) => panic!("({s},{t}): unexpected error {e}"),
            }
        }
    }
    let expected_cross = 2 * side.len() as u64 * (n - side.len()) as u64;
    assert_eq!(cross_failed, expected_cross);
    assert_eq!(net.stats().failures.partitioned, expected_cross);
    // Reachability agrees with the cut.
    let reach = net.fault_state().reachable_from(0);
    assert!(side.iter().all(|&u| reach[u]));
    assert!((0..n).filter(|u| !side.contains(u)).all(|u| !reach[u]));
    // Healing restores everything.
    net.fault_state_mut().apply(&FaultEvent::Heal).unwrap();
    net.reset_stats();
    let (ok, bad) = net.send_all_pairs();
    assert_eq!((ok, bad), ((n * (n - 1)) as u64, 0));
}

#[test]
fn network_validates_a_plan_against_the_state_it_runs_from() {
    // A plan runs from a fault-free network, so validating it against
    // whatever partition is installed beforehand would accept a `Heal`
    // that then fails on the first send.
    let g = generators::cycle(6);
    let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
    let mut net = Network::new(&scheme);
    net.fault_state_mut().apply(&FaultEvent::Bipartition { side: vec![0, 1, 2] }).unwrap();
    let heal = FaultPlan::from_events(vec![TimedFault { at: 0, event: FaultEvent::Heal }]);
    let err = net.set_fault_plan(heal).unwrap_err();
    assert_eq!(err.event, FaultEvent::Heal);
    assert_eq!(err.reason, "no partition is active");
    // Rejected atomically: the installed partition still cuts 0 from 3.
    assert!(matches!(net.send(0, 3), Err(SimError::Partitioned { .. })));
}

#[test]
fn ttl_expiry_is_counted_not_stranded() {
    // A star at capacity 1 serializes through the hub: late messages age
    // out. They must be attributed to TTL expiry, never left stranded.
    let g = generators::star(12);
    let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
    let mut sim = RoundSimulator::new(&scheme, 1);
    sim.set_ttl(Some(3));
    let workload = workloads::incast(12, 1);
    let report = sim.run(&workload);
    assert!(report.errored_by.ttl_expired > 0, "congestion must expire something");
    assert_eq!(report.stranded, 0);
    assert_eq!(report.delivered + report.errored, workload.len());
    assert_eq!(report.errored_by.total() as usize, report.errored);
}

#[test]
fn both_simulators_see_the_same_fault_trajectory() {
    // The same plan replayed on each simulator's clock produces the same
    // verdict for the same pair: down while the plan says down, up after.
    let g = generators::path(6);
    let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
    let plan = FaultPlan::from_events(vec![
        TimedFault { at: 1, event: FaultEvent::LinkDown(2, 3) },
        TimedFault { at: 3, event: FaultEvent::LinkUp(2, 3) },
    ]);
    // Network: epoch clock, one send per epoch.
    let mut net = Network::new(&scheme);
    net.set_fault_plan(plan.clone()).unwrap();
    let by_epoch: Vec<bool> = (0..5).map(|_| net.send(0, 5).is_ok()).collect();
    assert_eq!(by_epoch, vec![true, false, false, true, true]);
    // FaultState driven by hand on the same clock agrees.
    let mut fs = FaultState::new(scheme.port_assignment());
    let by_clock: Vec<bool> = (0..5)
        .map(|t| {
            fs.advance_to(&plan, t).unwrap();
            fs.hop_usable(2, 3)
        })
        .collect();
    assert_eq!(by_clock, by_epoch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resilient_walks_never_exceed_the_hop_limit(
        seed in any::<u64>(),
        n in 12usize..28,
        intensity in 0.0f64..0.45,
    ) {
        // The detour budget — not the hop budget — must be what stops a
        // lost walk: across random graphs and fault loads, a wrapped
        // scheme never records a hop-limit failure, and every message
        // either arrives or fails with an attributable fault.
        let g = generators::gnp_half(n, seed);
        let inner = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let scheme = ResilientScheme::wrap(Box::new(inner));
        let plan = FaultPlan::random_link_faults(scheme.port_assignment(), intensity, seed ^ 0xD1CE);
        let mut net = Network::new(&scheme);
        net.set_hop_limit(resilience_hop_limit(n));
        net.set_fault_plan(plan).unwrap();
        let (ok, bad) = net.send_all_pairs();
        prop_assert_eq!(ok + bad, (n * (n - 1)) as u64);
        let stats = net.stats();
        prop_assert_eq!(stats.failures.hop_limit, 0, "a wrapped walk looped past the budget");
        prop_assert_eq!(stats.failures.misdelivered, 0);
        prop_assert_eq!(stats.failures.router, 0);
        // Loop guard sanity: with no faults, wrapping must be invisible.
        if bad > 0 {
            prop_assert!(stats.failures.link_down > 0 || stats.failures.node_crashed > 0
                || stats.failures.partitioned > 0);
        }
    }

    #[test]
    fn fault_plans_are_validated_everywhere(seed in any::<u64>(), n in 8usize..20) {
        // A plan naming a non-edge is rejected atomically by both
        // simulators, and a valid random plan is accepted by both.
        let g = generators::gnp_half(n, seed);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let good = FaultPlan::random_link_faults(scheme.port_assignment(), 0.2, seed);
        let mut bogus = good.clone();
        bogus.push(0, FaultEvent::NodeCrash(n + 3));
        let mut net = Network::new(&scheme);
        prop_assert!(net.set_fault_plan(good.clone()).is_ok());
        prop_assert!(net.set_fault_plan(bogus.clone()).is_err());
        let mut sim = RoundSimulator::new(&scheme, 2);
        prop_assert!(sim.set_fault_plan(good).is_ok());
        prop_assert!(sim.set_fault_plan(bogus).is_err());
    }
}
