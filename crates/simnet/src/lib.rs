//! A deterministic message-passing network simulator for routing schemes.
//!
//! [`Network`] reconstructs the topology purely from a scheme's port
//! assignment and sends each message along `ort-routing`'s one walk
//! ([`walk`]): every hop is decided by a router run **from the node's
//! stored bits** — the same locality discipline the paper's model imposes,
//! and the same walk the verifier's `route_pair` takes. On top of it the
//! simulators add:
//!
//! * **fault injection** ([`faults`]) — a seeded, timed [`faults::FaultPlan`]
//!   of link failures, node crashes and bipartitions, applied on a per-send
//!   epoch clock and consulted by the walk through
//!   [`FaultState::check_hop`]; full-information schemes (Section 1: "allow
//!   alternative, shortest, paths to be taken whenever an outgoing link is
//!   down") re-route around failed links, single-path schemes report the
//!   failure;
//! * **traces** — every delivery records the exact node path;
//! * **statistics** ([`Network::stats`]) — messages, hops, reroutes, and
//!   failures broken down by reason ([`FailureBreakdown`]);
//! * **congestion** ([`rounds`]) — a round simulator with per-node capacity,
//!   TTL and retries, which queues messages between hops and so runs the
//!   hop step ([`ort_routing::hop::hop`]) from its own loop;
//! * **resilience sweeps** ([`resilience`]) — graceful-degradation metrics
//!   per scheme and fault intensity, behind `ort resilience`.
//!
//! A message that does not arrive, in either simulator, reads as one
//! [`RouteFailure`], the type the verifier reports too.
//!
//! # Example
//!
//! ```
//! use ort_graphs::{generators, paths::Apsp};
//! use ort_routing::schemes::full_information::FullInformationScheme;
//! use ort_simnet::Network;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnp_half(24, 1);
//! let scheme = FullInformationScheme::build(&g, &Apsp::compute(&g))?;
//! let mut net = Network::new(&scheme);
//!
//! // A non-adjacent pair has several shortest paths on a dense graph.
//! let t = g.non_neighbors(0)[0];
//! let before = net.send(0, t)?;
//! // Cut the first link the route used; full information finds another
//! // shortest path.
//! assert!(net.fail_link(before.path[0], before.path[1]));
//! let after = net.send(0, t)?;
//! assert_eq!(after.hops(), before.hops());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod faults;
pub mod resilience;
pub mod rounds;
pub mod workloads;

use std::fmt;

use ort_graphs::NodeId;
use ort_routing::hop::{walk, Delivery, RouteFailure};
use ort_routing::scheme::RoutingScheme;
use ort_telemetry::trace::{HopKind, TraceFault, WalkTracer};

use crate::faults::{FaultPlan, FaultState, InvalidFault};

/// Declares [`FailureBreakdown`] with one count per bucket: each bucket is
/// named once, in the invocation below, and its order there is the report
/// order of [`FailureBreakdown::entries`].
macro_rules! failure_breakdown {
    ($($(#[$doc:meta])* $bucket:ident,)*) => {
        /// Failure counts by reason, so degradation under faults is
        /// *attributable* — a resilience report can distinguish "the
        /// destination was genuinely cut off" from "the scheme gave up
        /// although a route existed". [`FailureBreakdown::record`] puts
        /// each [`RouteFailure`] in its bucket.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct FailureBreakdown {
            $($(#[$doc])* pub $bucket: u64,)*
        }

        impl FailureBreakdown {
            /// `(name, count)` pairs in a stable report order.
            #[must_use]
            pub fn entries(&self) -> [(&'static str, u64); [$(stringify!($bucket)),*].len()] {
                [$((stringify!($bucket), self.$bucket)),*]
            }
        }
    };
}

failure_breakdown! {
    /// Router errors, bad ports and empty port sets.
    router,
    /// Hops vetoed by a downed link.
    link_down,
    /// Hops vetoed by a crashed node, and messages held at one.
    node_crashed,
    /// Hops vetoed by the partition cut.
    partitioned,
    /// Deliveries claimed away from the destination.
    misdelivered,
    /// Walks that exhausted their hop budget.
    hop_limit,
    /// Messages whose time-to-live expired.
    ttl_expired,
    /// Pairs naming a node the scheme does not have.
    node_out_of_range,
}

impl FailureBreakdown {
    /// Tallies one failure.
    pub fn record(&mut self, f: &RouteFailure) {
        *match f {
            RouteFailure::RouterError { .. }
            | RouteFailure::BadPort { .. }
            | RouteFailure::NoUsablePort { .. } => &mut self.router,
            RouteFailure::Blocked { fault: TraceFault::LinkDown, .. } => &mut self.link_down,
            RouteFailure::Blocked { fault: TraceFault::NodeCrashed(_), .. } => {
                &mut self.node_crashed
            }
            RouteFailure::Blocked { fault: TraceFault::Partitioned, .. } => &mut self.partitioned,
            RouteFailure::Misdelivered { .. } => &mut self.misdelivered,
            RouteFailure::HopLimit { .. } => &mut self.hop_limit,
            RouteFailure::TtlExpired { .. } => &mut self.ttl_expired,
            RouteFailure::NodeOutOfRange { .. } => &mut self.node_out_of_range,
        } += 1;
    }

    /// Total failures across all reasons.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.entries().iter().map(|&(_, count)| count).sum()
    }
}

/// A per-reason table of the nonzero failure counts, one `reason  count`
/// line each (or a single `no failures` line). Used verbatim by
/// `ort resilience --verbose`.
impl fmt::Display for FailureBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.total() == 0 {
            return write!(f, "    no failures");
        }
        let mut first = true;
        for (name, count) in self.entries() {
            if count == 0 {
                continue;
            }
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(f, "    {name:<18} {count:>10}")?;
        }
        Ok(())
    }
}

/// Aggregate statistics over the life of a [`Network`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Messages successfully delivered.
    pub delivered: u64,
    /// Messages that failed.
    pub failed: u64,
    /// Total hops across delivered messages.
    pub total_hops: u64,
    /// Failures broken down by reason (`failures.total() == failed`).
    pub failures: FailureBreakdown,
    /// Times a multipath router's *non-first* advertised port was taken
    /// because an earlier one was unusable — the failovers that saved a
    /// message from a fault.
    pub reroutes: u64,
}

/// A multi-line human-readable summary: delivery/failure totals, hop and
/// reroute counts, and the per-reason [`FailureBreakdown`] table.
impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  delivered {}  failed {}  hops {}  reroutes {}",
            self.delivered, self.failed, self.total_hops, self.reroutes
        )?;
        write!(f, "{}", self.failures)
    }
}

/// A simulated network running one routing scheme.
pub struct Network<'a> {
    scheme: &'a dyn RoutingScheme,
    faults: FaultState,
    plan: Option<FaultPlan>,
    epoch: u64,
    stats: Stats,
    hop_limit: usize,
    loads: Vec<u64>,
}

impl<'a> Network<'a> {
    /// Builds a network around `scheme`, with the default hop budget.
    #[must_use]
    pub fn new(scheme: &'a dyn RoutingScheme) -> Self {
        let n = scheme.node_count();
        Network {
            scheme,
            faults: FaultState::new(scheme.port_assignment()),
            plan: None,
            epoch: 0,
            stats: Stats::default(),
            hop_limit: ort_routing::verify::default_hop_limit(n),
            loads: vec![0; n],
        }
    }

    /// Overrides the per-message hop budget.
    pub fn set_hop_limit(&mut self, limit: usize) {
        self.hop_limit = limit;
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.scheme.node_count()
    }

    /// Installs a timed fault plan, validated event by event against the
    /// topology. The plan's clock is the send epoch: an event at time `k`
    /// fires before the `k`-th subsequent [`Network::send`] (0-based from
    /// now — installing a plan resets the epoch clock and the fault state,
    /// so the plan runs from a fault-free network). Replaces any previous
    /// plan; later [`Network::fail_link`] / [`Network::restore_link`]
    /// calls still apply on top.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidFault`] if any event, applied in order
    /// from the fault-free state the plan runs from, names a link or node
    /// the topology does not have or heals no partition; no event is
    /// applied.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), InvalidFault> {
        let mut probe = FaultState::new(self.scheme.port_assignment());
        for e in plan.events() {
            probe.apply(&e.event)?;
        }
        self.plan = Some(plan);
        self.epoch = 0;
        self.faults = FaultState::new(self.scheme.port_assignment());
        Ok(())
    }

    /// Marks the link `{u, v}` as failed (both directions). Returns
    /// `false` — and changes nothing — if `{u, v}` is not an edge of the
    /// topology, so tests cannot "fail" a link that never existed.
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) -> bool {
        self.faults.fail_link(u, v)
    }

    /// Restores a previously failed link. Returns `false` if `{u, v}` is
    /// not an edge of the topology.
    pub fn restore_link(&mut self, u: NodeId, v: NodeId) -> bool {
        self.faults.restore_link(u, v)
    }

    /// Whether the link `{u, v}` is currently individually failed.
    #[must_use]
    pub fn is_failed(&self, u: NodeId, v: NodeId) -> bool {
        self.faults.is_link_down(u, v)
    }

    /// The current fault state (links, crashes, partition).
    #[must_use]
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// Mutable access to the fault state, for scripting crashes and
    /// partitions directly (validated by [`FaultState::apply`]).
    pub fn fault_state_mut(&mut self) -> &mut FaultState {
        &mut self.faults
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Sends one message from `s` to `t` along [`walk`], with
    /// [`FaultState::check_hop`] as its fault check, and returns the
    /// delivery trace. A crashed source sends nothing.
    ///
    /// If a fault plan is installed, all events due at the current epoch
    /// fire first; the epoch then advances by one.
    ///
    /// # Errors
    ///
    /// Returns the [`RouteFailure`] that stopped the message; statistics
    /// are updated either way.
    pub fn send(&mut self, s: NodeId, t: NodeId) -> Result<Delivery, RouteFailure> {
        if let Some(plan) = &self.plan {
            // The plan was validated on installation; an error here would
            // mean the topology changed under us, which it cannot.
            self.faults
                .advance_to(plan, self.epoch)
                .expect("fault plan validated at set_fault_plan time");
        }
        // The trace clock is the epoch the fault cursor just advanced to —
        // the value that governs this send's hop checks.
        let epoch = self.epoch;
        self.epoch += 1;
        // A pair naming no node is refused before any fault applies, as
        // the round simulator refuses it.
        let result = if t < self.node_count() && self.faults.is_crashed(s) {
            let mut tracer = WalkTracer::begin(s, t, epoch);
            tracer.hit(s, 0, HopKind::Dropped { reason: "source node crashed" });
            Err(RouteFailure::Blocked { at: s, to: None, fault: TraceFault::NodeCrashed(s) })
        } else {
            walk(self.scheme, s, t, self.hop_limit, epoch, |u, v| self.faults.check_hop(u, v))
        };
        ort_telemetry::counter!("simnet.sends").incr();
        match &result {
            Ok(d) => {
                self.stats.delivered += 1;
                self.stats.total_hops += d.hops() as u64;
                self.stats.reroutes += d.reroutes;
                ort_telemetry::counter!("simnet.hops").add(d.hops() as u64);
                ort_telemetry::hist!("simnet.hops").record(d.hops() as u64);
                ort_telemetry::counter!("simnet.reroutes").add(d.reroutes);
                ort_telemetry::hist!("simnet.reroutes").record(d.reroutes);
                // Every node that transmitted the message carries load.
                for &x in &d.path[..d.path.len() - 1] {
                    self.loads[x] += 1;
                }
            }
            Err(e) => {
                self.stats.failed += 1;
                self.stats.failures.record(e);
                ort_telemetry::counter!("simnet.failures").incr();
            }
        }
        result
    }

    /// Per-node transmission counts accumulated over delivered messages —
    /// the congestion profile of the scheme. Centre-based schemes
    /// (Theorems 3/4) concentrate load on their hubs; this is the
    /// operational price of their smaller tables.
    #[must_use]
    pub fn load_profile(&self) -> &[u64] {
        &self.loads
    }

    /// Resets statistics and the load profile (faults and the plan clock
    /// persist).
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
        self.loads.fill(0);
    }

    /// Sends every ordered pair once; returns `(delivered, failed)`.
    pub fn send_all_pairs(&mut self) -> (u64, u64) {
        let n = self.node_count();
        let (mut ok, mut bad) = (0, 0);
        for s in 0..n {
            for t in 0..n {
                if s == t {
                    continue;
                }
                match self.send(s, t) {
                    Ok(_) => ok += 1,
                    Err(_) => bad += 1,
                }
            }
        }
        (ok, bad)
    }
}

impl fmt::Debug for Network<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network(n={}, epoch={}, stats={:?})",
            self.node_count(),
            self.epoch,
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;
    use ort_graphs::generators;
    use ort_graphs::oracle::Distances;
    use ort_graphs::paths::Apsp;
    use ort_routing::schemes::full_information::FullInformationScheme;
    use ort_routing::schemes::full_table::FullTableScheme;
    use ort_routing::schemes::theorem1::Theorem1Scheme;
    use ort_routing::schemes::theorem5::Theorem5Scheme;

    #[test]
    fn all_pairs_delivery_matches_verifier() {
        let g = generators::gnp_half(24, 4);
        let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        let (ok, bad) = net.send_all_pairs();
        assert_eq!(ok, 24 * 23);
        assert_eq!(bad, 0);
        assert_eq!(net.stats().delivered, 24 * 23);
    }

    #[test]
    fn shortest_paths_through_simulator() {
        let g = generators::grid(4, 4);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let apsp = Apsp::compute(&g);
        let mut net = Network::new(&scheme);
        for s in 0..16 {
            for t in 0..16 {
                if s == t {
                    continue;
                }
                let d = net.send(s, t).unwrap();
                assert_eq!(d.hops() as u32, apsp.distance(s, t).unwrap());
                assert_eq!(d.path[0], s);
                assert_eq!(*d.path.last().unwrap(), t);
            }
        }
    }

    #[test]
    fn full_information_survives_link_failure() {
        let g = generators::gnp_half(32, 7);
        let scheme = FullInformationScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let apsp = Apsp::compute(&g);
        let mut net = Network::new(&scheme);
        let mut exercised = 0;
        // Non-adjacent pairs have one common neighbour per shortest path;
        // on a dense random graph there are many.
        let pairs: Vec<(usize, usize)> = (0..32)
            .flat_map(|s| g.non_neighbors(s).into_iter().map(move |t| (s, t)))
            .filter(|&(s, t)| s < t)
            .take(4)
            .collect();
        assert_eq!(pairs.len(), 4);
        for (s, t) in pairs {
            let first = net.send(s, t).unwrap();
            // Fail the first link of the route.
            assert!(net.fail_link(first.path[0], first.path[1]));
            match net.send(s, t) {
                Ok(second) => {
                    // Still a shortest path, via a different first hop.
                    assert_eq!(second.hops() as u32, apsp.distance(s, t).unwrap());
                    assert_ne!(second.path[1], first.path[1]);
                    exercised += 1;
                }
                Err(RouteFailure::Blocked { fault: TraceFault::LinkDown, .. }) => {
                    // Only acceptable when the shortest path was unique.
                    let ports = apsp.shortest_path_ports(&g, s, t);
                    assert_eq!(ports.len(), 1, "had alternatives but failed");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(net.restore_link(first.path[0], first.path[1]));
        }
        assert!(exercised >= 2, "dense random graphs have alternative paths");
    }

    #[test]
    fn reroutes_are_counted() {
        let g = generators::gnp_half(32, 7);
        let scheme = FullInformationScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        let t = g.non_neighbors(0)[0];
        let first = net.send(0, t).unwrap();
        assert_eq!(net.stats().reroutes, 0, "no faults, first port always taken");
        net.fail_link(first.path[0], first.path[1]);
        if net.send(0, t).is_ok() {
            assert!(net.stats().reroutes >= 1);
        }
    }

    #[test]
    fn single_path_scheme_reports_link_down() {
        let g = generators::path(6);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        assert!(net.fail_link(2, 3));
        let err = net.send(0, 5).unwrap_err();
        assert_eq!(err, RouteFailure::Blocked { at: 2, to: Some(3), fault: TraceFault::LinkDown });
        assert_eq!(net.stats().failed, 1);
        assert_eq!(net.stats().failures.link_down, 1);
        assert!(net.restore_link(2, 3));
        assert!(net.send(0, 5).is_ok());
    }

    #[test]
    fn failing_a_non_edge_is_rejected() {
        let g = generators::path(6); // only consecutive links exist
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        assert!(!net.fail_link(0, 5), "0–5 is not an edge");
        assert!(!net.fail_link(0, 17), "out of range");
        assert!(!net.restore_link(0, 5));
        // The bogus fault changed nothing.
        assert!(net.send(0, 5).is_ok());
        assert!(!net.is_failed(0, 5));
    }

    #[test]
    fn crashed_transit_node_fails_with_reason() {
        let g = generators::path(5); // 0-1-2-3-4
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        net.fault_state_mut().apply(&FaultEvent::NodeCrash(2)).unwrap();
        let crashed = TraceFault::NodeCrashed(2);
        assert_eq!(
            net.send(0, 4).unwrap_err(),
            RouteFailure::Blocked { at: 1, to: Some(2), fault: crashed }
        );
        assert_eq!(
            net.send(2, 0).unwrap_err(),
            RouteFailure::Blocked { at: 2, to: None, fault: crashed }
        );
        assert!(net.send(0, 1).is_ok(), "traffic away from the crash is unaffected");
        assert_eq!(net.stats().failures.node_crashed, 2);
        net.fault_state_mut().apply(&FaultEvent::NodeRestart(2)).unwrap();
        assert!(net.send(0, 4).is_ok());
    }

    #[test]
    fn fault_plan_applies_on_the_epoch_clock() {
        let g = generators::path(4);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        let mut plan = FaultPlan::new();
        plan.push(1, FaultEvent::LinkDown(1, 2));
        plan.push(3, FaultEvent::LinkUp(1, 2));
        net.set_fault_plan(plan).unwrap();
        assert!(net.send(0, 3).is_ok(), "epoch 0: link still up");
        assert!(net.send(0, 3).is_err(), "epoch 1: link down");
        assert!(net.send(0, 3).is_err(), "epoch 2: still down");
        assert!(net.send(0, 3).is_ok(), "epoch 3: healed");
    }

    #[test]
    fn invalid_fault_plan_is_rejected_atomically() {
        let g = generators::path(4);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        let mut plan = FaultPlan::new();
        plan.push(0, FaultEvent::LinkDown(0, 1));
        plan.push(1, FaultEvent::LinkDown(0, 3)); // not an edge
        assert!(net.set_fault_plan(plan).is_err());
        assert!(net.send(0, 1).is_ok(), "nothing was applied");
    }

    #[test]
    fn probe_scheme_runs_with_message_state() {
        // Theorem 5 needs per-message state; the simulator carries it.
        let g = generators::gnp_half(32, 2);
        let scheme = Theorem5Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        let (ok, bad) = net.send_all_pairs();
        assert_eq!(bad, 0, "{ok} ok");
    }

    #[test]
    fn hop_limit_is_enforced() {
        let g = generators::path(8);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        net.set_hop_limit(3);
        assert_eq!(net.send(0, 7).unwrap_err(), RouteFailure::HopLimit { limit: 3 });
        assert_eq!(net.stats().failures.hop_limit, 1);
        assert!(net.send(0, 3).is_ok());
    }

    #[test]
    fn out_of_range_nodes_rejected() {
        let g = generators::cycle(5);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        assert_eq!(net.send(5, 0), Err(RouteFailure::NodeOutOfRange { node: 5 }));
        assert_eq!(net.send(0, 9), Err(RouteFailure::NodeOutOfRange { node: 9 }));
        assert_eq!(net.stats().failures.node_out_of_range, 2);
    }

    #[test]
    fn load_profile_counts_transmissions() {
        let g = generators::path(4); // 0-1-2-3
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        net.send(0, 3).unwrap(); // 0,1,2 transmit
        net.send(3, 1).unwrap(); // 3,2 transmit
        assert_eq!(net.load_profile(), &[1, 1, 2, 1]);
        net.reset_stats();
        assert_eq!(net.load_profile(), &[0, 0, 0, 0]);
        assert_eq!(net.stats(), Stats::default());
    }

    #[test]
    fn centre_scheme_concentrates_load() {
        use ort_routing::schemes::theorem4::Theorem4Scheme;
        let g = generators::gnp_half(40, 6);
        let dists = Apsp::compute(&g);
        let compact = Theorem1Scheme::build(&g, &dists).unwrap();
        let centred = Theorem4Scheme::build(&g, &dists).unwrap();
        let mut net_a = Network::new(&compact);
        let mut net_b = Network::new(&centred);
        net_a.send_all_pairs();
        net_b.send_all_pairs();
        let max_a = *net_a.load_profile().iter().max().unwrap() as f64;
        let mean_a = net_a.load_profile().iter().sum::<u64>() as f64 / 40.0;
        let max_b = *net_b.load_profile().iter().max().unwrap() as f64;
        let mean_b = net_b.load_profile().iter().sum::<u64>() as f64 / 40.0;
        // The Theorem 4 centre carries disproportionate traffic. (Theorem 1
        // is itself skewed — least-common-neighbour routing favours low-id
        // nodes — so only a strict ordering is robust at this size.)
        assert!(max_b / mean_b > max_a / mean_a, "a: {max_a}/{mean_a}, b: {max_b}/{mean_b}");
        // And the hottest node of the centred scheme is the centre itself.
        let hottest = net_b.load_profile().iter().enumerate().max_by_key(|&(_, &l)| l).unwrap().0;
        assert_eq!(hottest, ort_routing::schemes::theorem4::CENTER);
    }

    #[test]
    fn failed_links_are_symmetric() {
        let g = generators::cycle(6);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut net = Network::new(&scheme);
        assert!(net.fail_link(3, 2));
        assert!(net.is_failed(2, 3));
        assert!(net.is_failed(3, 2));
    }
}
