//! Synchronous round-based simulation with bounded per-node capacity.
//!
//! [`crate::Network`] measures hop counts; this module measures *time
//! under congestion*. In each round every node transmits at most
//! `capacity` queued messages (decoding its router from stored bits, as
//! always); everything else waits. Centre-based schemes (Theorems 3/4)
//! serialize most traffic through a few nodes, so their completion time
//! under all-to-all workloads explodes even though their hop counts are
//! within stretch 2 — the queueing-theoretic face of
//! [`crate::Network::load_profile`].
//!
//! The simulator consumes the same [`FaultPlan`] as [`crate::Network`],
//! applied on its round clock, and adds the recovery machinery of a real
//! deployment: a per-message TTL, and source-side retry with capped
//! exponential backoff when a message is lost to a fault. A crashed node
//! drops its queued messages and refuses transit until it restarts.

use std::collections::VecDeque;

use ort_graphs::labels::Label;
use ort_graphs::NodeId;
use ort_routing::hop::{hop, Hop, Message};
use ort_routing::scheme::{MessageState, NodeRouter, RoutingScheme};
use ort_telemetry::trace::{HopKind, WalkTracer};

use crate::faults::{FaultPlan, FaultState, InvalidFault};
use crate::{hop_failure, FailureBreakdown, SimError};

/// One queued message.
#[derive(Debug, Clone)]
struct InFlight {
    src: NodeId,
    dst: NodeId,
    /// The destination's label, copied once at injection.
    dest_label: Label,
    state: MessageState,
    injected_round: u32,
    attempt: u32,
    tracer: WalkTracer,
}

/// Outcome of a round-based run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Rounds executed until the network drained (or the cap hit).
    pub rounds: u32,
    /// Messages delivered.
    pub delivered: usize,
    /// Messages dropped due to routing errors, faults, or TTL expiry, plus
    /// workload pairs naming a node the scheme does not have.
    pub errored: usize,
    /// The dropped messages broken down by reason
    /// (`errored_by.total() == errored`).
    pub errored_by: FailureBreakdown,
    /// Messages still queued (or awaiting a retry) when the round cap was
    /// reached.
    pub stranded: usize,
    /// Source-side re-injections performed by the retry machinery.
    pub retries: u64,
    /// Times a multipath router's non-first advertised port was taken
    /// because an earlier one was unusable.
    pub reroutes: u64,
    /// Per-delivered-message latency in rounds (delivery − injection).
    pub latencies: Vec<u32>,
    /// Largest queue length observed at any node.
    pub max_queue: usize,
}

/// A multi-line human-readable summary: round/delivery totals, retry and
/// reroute counts, latency and queue statistics, and the per-reason
/// failure table. Used verbatim by `ort resilience --verbose`.
impl std::fmt::Display for RoundReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "  rounds {}  delivered {}  errored {}  stranded {}",
            self.rounds, self.delivered, self.errored, self.stranded
        )?;
        write!(
            f,
            "  retries {}  reroutes {}  max_queue {}",
            self.retries, self.reroutes, self.max_queue
        )?;
        if let (Some(mean), Some(max)) = (self.mean_latency(), self.max_latency()) {
            write!(f, "  latency mean {mean:.2} max {max}")?;
        }
        writeln!(f)?;
        write!(f, "{}", self.errored_by)
    }
}

impl RoundReport {
    /// Mean delivery latency in rounds.
    #[must_use]
    pub fn mean_latency(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(self.latencies.iter().map(|&l| f64::from(l)).sum::<f64>()
                / self.latencies.len() as f64)
        }
    }

    /// Worst delivery latency in rounds.
    #[must_use]
    pub fn max_latency(&self) -> Option<u32> {
        self.latencies.iter().copied().max()
    }
}

/// Retry policy for messages lost to faults (link down, crash,
/// partition). Routing errors and TTL expiry are never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-injections per message (0 disables retries).
    pub max_retries: u32,
    /// Backoff before the first retry, in rounds.
    pub backoff_base: u32,
    /// Cap on the exponential backoff, in rounds.
    pub backoff_cap: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 0, backoff_base: 1, backoff_cap: 16 }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt + 1`:
    /// `min(backoff_base · 2^attempt, backoff_cap)`, at least 1 round.
    ///
    /// The exponent is capped at 32 before shifting: past that point the
    /// uncapped product already exceeds any `u32` cap, so the result is
    /// `backoff_cap` for every larger attempt count. (A plain `u32 << 63`
    /// would be UB-adjacent `checked_shl` → `None`, and worse, `u32`
    /// arithmetic silently wraps the *value* for attempts just under the
    /// width — base 2 at attempt 31 used to come out as 1 round, not the
    /// cap.)
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> u32 {
        let raw = u64::from(self.backoff_base) << attempt.min(32);
        (u64::min(raw, u64::from(self.backoff_cap)) as u32).max(1)
    }
}

/// A synchronous, capacity-limited simulator for one scheme.
pub struct RoundSimulator<'a> {
    scheme: &'a dyn RoutingScheme,
    capacity: usize,
    round_cap: u32,
    plan: Option<FaultPlan>,
    ttl: Option<u32>,
    retry: RetryPolicy,
}

impl<'a> RoundSimulator<'a> {
    /// Creates a simulator where each node transmits at most `capacity`
    /// messages per round.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(scheme: &'a dyn RoutingScheme, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let n = scheme.node_count() as u32;
        RoundSimulator {
            scheme,
            capacity,
            round_cap: 200 * n.max(1) + 1000,
            plan: None,
            ttl: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Overrides the safety cap on simulated rounds.
    pub fn set_round_cap(&mut self, cap: u32) {
        self.round_cap = cap;
    }

    /// Installs a timed fault plan, validated event by event against the
    /// topology. The plan's clock is the round number (1-based); an event
    /// at time `k` fires at the start of round `k` (`k = 0` fires before
    /// round 1 — a static fault load).
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidFault`] if any event names a link or
    /// node the topology does not have.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), InvalidFault> {
        let mut probe = FaultState::new(self.scheme.port_assignment());
        for e in plan.events() {
            probe.apply(&e.event)?;
        }
        self.plan = Some(plan);
        Ok(())
    }

    /// Sets the per-message TTL in rounds: a message older than `ttl`
    /// rounds (counted from its latest injection) is dropped and counted
    /// as [`SimError::TtlExpired`]. `None` disables expiry.
    pub fn set_ttl(&mut self, ttl: Option<u32>) {
        self.ttl = ttl;
    }

    /// Sets the source-side retry policy for fault-lost messages.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Injects `workload` (all messages at round 0) and runs rounds until
    /// the network drains or the round cap is hit. A pair naming a node
    /// the scheme does not have is never injected: it counts as errored,
    /// under [`SimError::NodeOutOfRange`].
    #[must_use]
    pub fn run(&self, workload: &[(NodeId, NodeId)]) -> RoundReport {
        let n = self.scheme.node_count();
        let _span = ort_telemetry::span_with(
            "simnet.rounds",
            &[
                ("n", ort_telemetry::FieldValue::Int(n as u64)),
                ("messages", ort_telemetry::FieldValue::Int(workload.len() as u64)),
            ],
        );
        let mut faults = FaultState::new(self.scheme.port_assignment());
        let mut queues: Vec<VecDeque<InFlight>> = vec![VecDeque::new(); n];
        let mut in_flight = 0usize;
        let mut report = RoundReport {
            rounds: 0,
            delivered: 0,
            errored: 0,
            errored_by: FailureBreakdown::default(),
            stranded: 0,
            retries: 0,
            reroutes: 0,
            latencies: Vec::with_capacity(workload.len()),
            max_queue: 0,
        };
        for &(s, t) in workload {
            // A pair naming no node of the scheme is an error, not a message.
            if let Some(node) = [s, t].into_iter().find(|&v| v >= n) {
                report.errored += 1;
                report.errored_by.record(&SimError::NodeOutOfRange { node });
                continue;
            }
            queues[s].push_back(InFlight {
                src: s,
                dst: t,
                dest_label: self.scheme.label_of(t),
                state: MessageState { source: Some(self.scheme.label_of(s)), counter: 0 },
                injected_round: 0,
                attempt: 0,
                tracer: WalkTracer::begin(s, t, 0),
            });
            in_flight += 1;
        }
        report.max_queue = queues.iter().map(VecDeque::len).max().unwrap_or(0);
        let pa = self.scheme.port_assignment();
        // Messages awaiting a scheduled re-injection: `(due_round, msg)`.
        let mut pending: Vec<(u32, InFlight)> = Vec::new();
        // Double-buffer the queues so a message moves at most once per round.
        while in_flight > 0 && report.rounds < self.round_cap {
            report.rounds += 1;
            let round = report.rounds;
            if let Some(plan) = &self.plan {
                faults
                    .advance_to(plan, u64::from(round))
                    .expect("fault plan validated at set_fault_plan time");
            }
            // Losses discovered this round; resolved to retry-or-drop after
            // the transmit phase (keeps the borrow of `report` simple).
            let mut lost: Vec<(InFlight, SimError)> = Vec::new();
            // Due retries re-enter their source queue.
            if !pending.is_empty() {
                let mut rest = Vec::with_capacity(pending.len());
                for (due, mut msg) in pending {
                    if due <= round {
                        msg.injected_round = round;
                        msg.state =
                            MessageState { source: Some(self.scheme.label_of(msg.src)), counter: 0 };
                        // Each re-injection is a child trace of the message.
                        msg.tracer.retry();
                        queues[msg.src].push_back(msg);
                    } else {
                        rest.push((due, msg));
                    }
                }
                pending = rest;
            }
            // A crashed node drops everything it had queued.
            for (u, queue) in queues.iter_mut().enumerate() {
                if faults.is_crashed(u) && !queue.is_empty() {
                    for mut msg in queue.drain(..) {
                        msg.tracer.set_time(u64::from(round));
                        msg.tracer.hit(
                            u,
                            msg.state.counter,
                            HopKind::Dropped { reason: "queued at crashed node" },
                        );
                        lost.push((msg, SimError::NodeCrashed { node: u }));
                    }
                }
            }
            let mut arrivals: Vec<Vec<InFlight>> = vec![Vec::new(); n];
            for (u, queue) in queues.iter_mut().enumerate() {
                if queue.is_empty() {
                    continue;
                }
                let router = NodeRouter { scheme: self.scheme, u };
                let env = self.scheme.node_env(u);
                for _ in 0..self.capacity {
                    let Some(mut msg) = queue.pop_front() else { break };
                    msg.tracer.set_time(u64::from(round));
                    if let Some(ttl) = self.ttl {
                        if round - msg.injected_round > ttl {
                            msg.tracer.hit(
                                u,
                                msg.state.counter,
                                HopKind::TtlExpired { ttl: u64::from(ttl) },
                            );
                            lost.push((msg, SimError::TtlExpired { ttl }));
                            continue;
                        }
                    }
                    let step = hop(
                        &router,
                        &env,
                        pa,
                        u,
                        Message {
                            dest: msg.dst,
                            dest_label: &msg.dest_label,
                            state: &mut msg.state,
                            tracer: &mut msg.tracer,
                        },
                        |a, b| faults.check_hop(a, b),
                    );
                    match step {
                        Ok(Hop::Deliver) => {
                            report.delivered += 1;
                            report.latencies.push(round - 1 - msg.injected_round);
                            in_flight -= 1;
                        }
                        Ok(Hop::Forward { next, rank }) => {
                            report.reroutes += u64::from(rank > 0);
                            arrivals[next].push(msg);
                        }
                        Err(e) => lost.push((msg, hop_failure(u, env.degree, e))),
                    }
                }
            }
            // Resolve this round's losses: fault losses may retry from the
            // source; everything else is dropped and attributed.
            for (msg, err) in lost {
                let retryable = matches!(
                    err,
                    SimError::LinkDown { .. }
                        | SimError::NodeCrashed { .. }
                        | SimError::Partitioned { .. }
                );
                if retryable && msg.attempt < self.retry.max_retries {
                    let due = round + self.retry.backoff(msg.attempt);
                    report.retries += 1;
                    pending.push((
                        due,
                        InFlight { attempt: msg.attempt + 1, ..msg },
                    ));
                } else {
                    report.errored += 1;
                    report.errored_by.record(&err);
                    in_flight -= 1;
                }
            }
            for (u, batch) in arrivals.into_iter().enumerate() {
                queues[u].extend(batch);
            }
            let max_q = queues.iter().map(VecDeque::len).max().unwrap_or(0);
            report.max_queue = report.max_queue.max(max_q);
        }
        report.stranded = in_flight;
        ort_telemetry::counter!("simnet.retries").add(report.retries);
        ort_telemetry::counter!("simnet.reroutes").add(report.reroutes);
        ort_telemetry::hist!("simnet.max_queue").record(report.max_queue as u64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, TimedFault};
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;
    use ort_routing::schemes::full_information::FullInformationScheme;
    use ort_routing::schemes::full_table::FullTableScheme;
    use ort_routing::schemes::theorem1::Theorem1Scheme;
    use ort_routing::schemes::theorem4::Theorem4Scheme;

    fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
        (0..n).flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t))).collect()
    }

    #[test]
    fn uncongested_latency_equals_hops() {
        // With unbounded capacity, a single message takes `hops` rounds.
        let g = generators::path(6);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let sim = RoundSimulator::new(&scheme, 1000);
        let report = sim.run(&[(0, 5)]);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.latencies, vec![5]);
        assert_eq!(report.stranded, 0);
    }

    #[test]
    fn all_pairs_drain_completely() {
        let n = 24;
        let g = generators::gnp_half(n, 3);
        let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let sim = RoundSimulator::new(&scheme, 4);
        let report = sim.run(&all_pairs(n));
        assert_eq!(report.delivered, n * (n - 1));
        assert_eq!(report.errored, 0);
        assert_eq!(report.stranded, 0);
        assert!(report.mean_latency().unwrap() >= 1.0);
    }

    #[test]
    fn congestion_hurts_the_centre_scheme() {
        let n = 32;
        let g = generators::gnp_half(n, 8);
        let dists = Apsp::compute(&g);
        let distributed = Theorem1Scheme::build(&g, &dists).unwrap();
        let centred = Theorem4Scheme::build(&g, &dists).unwrap();
        let workload = all_pairs(n);
        let cap = 2;
        let r1 = RoundSimulator::new(&distributed, cap).run(&workload);
        let r4 = RoundSimulator::new(&centred, cap).run(&workload);
        assert_eq!(r1.stranded, 0);
        assert_eq!(r4.stranded, 0);
        // The centre serializes traffic: completion takes longer and the
        // worst queue is deeper.
        assert!(r4.rounds > r1.rounds, "t4 {} vs t1 {}", r4.rounds, r1.rounds);
        assert!(r4.max_queue > r1.max_queue, "queues {} vs {}", r4.max_queue, r1.max_queue);
    }

    #[test]
    fn capacity_one_on_a_star_serializes() {
        // Star: all cross-leaf traffic goes through the centre; with
        // capacity 1 the centre forwards one message per round, so k
        // messages take ≥ k rounds.
        let g = generators::star(8);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let sim = RoundSimulator::new(&scheme, 1);
        let workload: Vec<(NodeId, NodeId)> = (1..8).map(|s| (s, s % 7 + 1)).collect();
        let report = sim.run(&workload);
        assert_eq!(report.delivered, workload.len());
        assert!(report.rounds as usize >= workload.len(), "rounds {}", report.rounds);
    }

    #[test]
    fn out_of_range_pairs_are_counted_not_injected() {
        let g = generators::path(5);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let report = RoundSimulator::new(&scheme, 4).run(&[(7, 0), (0, 9), (0, 1)]);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.errored, 2);
        assert_eq!(report.errored_by.node_out_of_range, 2);
        assert_eq!(report.stranded, 0);
    }

    #[test]
    fn round_cap_strands_messages() {
        let g = generators::path(10);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut sim = RoundSimulator::new(&scheme, 1);
        sim.set_round_cap(2);
        let report = sim.run(&[(0, 9)]);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.stranded, 1);
        assert_eq!(report.rounds, 2);
    }

    #[test]
    fn forward_any_fails_over_like_the_network() {
        // Cut the first shortest-path link a full-information route would
        // use; the round simulator must take an alternative, not drop.
        let g = generators::gnp_half(24, 1);
        let scheme = FullInformationScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let t = g.non_neighbors(0)[0];
        // Find the first-choice link by running fault-free once.
        let mut net = crate::Network::new(&scheme);
        let first = net.send(0, t).unwrap();
        let mut sim = RoundSimulator::new(&scheme, 8);
        sim.set_fault_plan(FaultPlan::from_events(vec![TimedFault {
            at: 0,
            event: FaultEvent::LinkDown(first.path[0], first.path[1]),
        }]))
        .unwrap();
        let report = sim.run(&[(0, t)]);
        assert_eq!(report.delivered, 1, "failover must find the alternative");
        assert!(report.reroutes >= 1);
    }

    #[test]
    fn link_fault_without_retries_drops_with_reason() {
        let g = generators::path(6);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut sim = RoundSimulator::new(&scheme, 4);
        sim.set_fault_plan(FaultPlan::from_events(vec![TimedFault {
            at: 0,
            event: FaultEvent::LinkDown(2, 3),
        }]))
        .unwrap();
        let report = sim.run(&[(0, 5), (5, 0), (0, 1)]);
        assert_eq!(report.delivered, 1, "only the fault-free pair survives");
        assert_eq!(report.errored, 2);
        assert_eq!(report.errored_by.link_down, 2);
        assert_eq!(report.stranded, 0);
    }

    #[test]
    fn retries_recover_after_the_link_heals() {
        let g = generators::path(6);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut sim = RoundSimulator::new(&scheme, 4);
        sim.set_fault_plan(FaultPlan::from_events(vec![
            TimedFault { at: 0, event: FaultEvent::LinkDown(2, 3) },
            TimedFault { at: 6, event: FaultEvent::LinkUp(2, 3) },
        ]))
        .unwrap();
        sim.set_retry_policy(RetryPolicy { max_retries: 8, backoff_base: 1, backoff_cap: 8 });
        let report = sim.run(&[(0, 5)]);
        assert_eq!(report.delivered, 1, "retry after heal must succeed");
        assert!(report.retries >= 1);
        assert_eq!(report.errored, 0);
    }

    #[test]
    fn retries_exhaust_against_a_permanent_fault() {
        let g = generators::path(4);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut sim = RoundSimulator::new(&scheme, 4);
        sim.set_fault_plan(FaultPlan::from_events(vec![TimedFault {
            at: 0,
            event: FaultEvent::LinkDown(1, 2),
        }]))
        .unwrap();
        sim.set_retry_policy(RetryPolicy { max_retries: 3, backoff_base: 1, backoff_cap: 4 });
        let report = sim.run(&[(0, 3)]);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.retries, 3, "every allowed retry was spent");
        assert_eq!(report.errored, 1);
        assert_eq!(report.errored_by.link_down, 1);
        assert_eq!(report.stranded, 0, "exhausted messages are dropped, not stranded");
    }

    #[test]
    fn ttl_expiry_is_counted_not_stranded() {
        // Capacity 1 on a star: the centre serializes, so late messages age
        // past their TTL and must be counted as expired.
        let g = generators::star(10);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut sim = RoundSimulator::new(&scheme, 1);
        sim.set_ttl(Some(3));
        let workload: Vec<(NodeId, NodeId)> = (1..10).map(|s| (s, s % 9 + 1)).collect();
        let report = sim.run(&workload);
        assert!(report.errored_by.ttl_expired > 0, "congestion must expire some messages");
        assert_eq!(report.errored, report.errored_by.total() as usize);
        assert_eq!(report.stranded, 0);
        assert_eq!(report.delivered + report.errored, workload.len());
    }

    #[test]
    fn backoff_saturates_at_cap_for_huge_attempt_counts() {
        let p = RetryPolicy { max_retries: 1000, backoff_base: 2, backoff_cap: 100 };
        assert_eq!(p.backoff(0), 2);
        assert_eq!(p.backoff(1), 4);
        assert_eq!(p.backoff(5), 64);
        assert_eq!(p.backoff(6), 100, "first capped attempt");
        // The shift used to wrap the value (2 << 31 == 0 in u32) or bail to
        // None only at shift ≥ 32; long churn horizons reach both regimes.
        assert_eq!(p.backoff(30), 100);
        assert_eq!(p.backoff(31), 100, "value-overflow regime");
        assert_eq!(p.backoff(32), 100, "shift-overflow regime");
        for attempt in [64, 100, 1000, u32::MAX] {
            assert_eq!(p.backoff(attempt), 100, "attempt {attempt}");
        }
        // Degenerate base still waits at least one round.
        let z = RetryPolicy { max_retries: 1, backoff_base: 0, backoff_cap: 8 };
        assert_eq!(z.backoff(64), 1);
        // A cap at u32::MAX with base 1: 2^32 exceeds it, so it saturates.
        let m = RetryPolicy { max_retries: 1, backoff_base: 1, backoff_cap: u32::MAX };
        assert_eq!(m.backoff(64), u32::MAX);
    }

    #[test]
    fn crash_drops_queued_messages() {
        let g = generators::path(5);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let mut sim = RoundSimulator::new(&scheme, 4);
        // Node 2 crashes at round 2 — messages already transiting it drop.
        sim.set_fault_plan(FaultPlan::from_events(vec![TimedFault {
            at: 2,
            event: FaultEvent::NodeCrash(2),
        }]))
        .unwrap();
        let report = sim.run(&[(0, 4)]);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.errored_by.node_crashed, 1);
    }
}
