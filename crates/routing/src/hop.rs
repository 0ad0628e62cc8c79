//! The one walk: how a message moves through the network.
//!
//! A node's router, run on what its model lets it see, names a port; a
//! full-information router names every shortest-path port, so that
//! "alternative, shortest, paths \[can\] be taken whenever an outgoing
//! link is down". [`hop`] is that rule for one node, and [`walk`] is the
//! loop that runs it from source to destination under a caller-supplied
//! fault check: [`crate::verify::route_pair`] walks with a check that
//! never vetoes, `ort-simnet`'s `Network::send` with its fault state's.
//! The round simulator queues messages between hops, so it keeps its own
//! loop and calls [`hop`] directly. Every walker reads a message that did
//! not arrive as one [`RouteFailure`].

use std::error::Error;
use std::fmt;

use ort_graphs::labels::Label;
use ort_graphs::ports::PortAssignment;
use ort_graphs::NodeId;
use ort_telemetry::trace::{HopKind, TraceFault, WalkTracer};

use crate::scheme::{
    LocalRouter, MessageState, NodeEnv, NodeRouter, RouteDecision, RouteError, RoutingScheme,
};

/// Why a message failed to arrive. The first five variants are what a
/// [`hop`] can read; the last three end a walk or a round simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteFailure {
    /// A router returned an error.
    RouterError {
        /// Node at which the error occurred.
        at: NodeId,
        /// The underlying error.
        error: RouteError,
    },
    /// A router claimed delivery at the wrong node.
    Misdelivered {
        /// Node that wrongly claimed to be the destination.
        at: NodeId,
    },
    /// A forward named a port the node does not have.
    BadPort {
        /// Node that emitted the port.
        at: NodeId,
        /// The emitted port.
        port: usize,
    },
    /// A multipath decision advertised no port at all.
    NoUsablePort {
        /// Node at which no port was usable.
        at: NodeId,
    },
    /// A fault stopped the message at `at`: the fault check vetoed every
    /// port the decision advertised, or `at` crashed while holding it.
    Blocked {
        /// Node that held the message.
        at: NodeId,
        /// The neighbour behind the first vetoed port; `None` when the
        /// message was lost where it stood.
        to: Option<NodeId>,
        /// The first veto.
        fault: TraceFault,
    },
    /// The hop budget was exhausted (a routing loop, most likely).
    HopLimit {
        /// The budget that was exhausted.
        limit: usize,
    },
    /// The source or destination is not a node of the scheme.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
    },
    /// The message's time-to-live expired (round simulator only).
    TtlExpired {
        /// The exhausted TTL, in rounds.
        ttl: u32,
    },
}

impl fmt::Display for RouteFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteFailure::RouterError { at, error } => {
                write!(f, "router error at node {at}: {error}")
            }
            RouteFailure::Misdelivered { at } => write!(f, "misdelivered at node {at}"),
            RouteFailure::BadPort { at, port } => write!(f, "bad port {port} at node {at}"),
            RouteFailure::NoUsablePort { at } => write!(f, "no usable port at node {at}"),
            RouteFailure::Blocked { at, to: Some(to), fault } => {
                write!(f, "hop {at} → {to} blocked: {fault}")
            }
            RouteFailure::Blocked { at, to: None, fault } => {
                write!(f, "message lost at node {at}: {fault}")
            }
            RouteFailure::HopLimit { limit } => write!(f, "hop limit {limit} exhausted"),
            RouteFailure::NodeOutOfRange { node } => write!(f, "node {node} out of range"),
            RouteFailure::TtlExpired { ttl } => write!(f, "TTL of {ttl} rounds expired"),
        }
    }
}

impl Error for RouteFailure {}

/// The message a hop moves: where it is going, the header it carries and
/// the trace it writes to.
#[derive(Debug)]
pub struct Message<'a> {
    /// The destination node.
    pub dest: NodeId,
    /// The destination's label, the only part of it a router sees.
    pub dest_label: &'a Label,
    /// The header, which the router may update.
    pub state: &'a mut MessageState,
    /// The walk's trace.
    pub tracer: &'a mut WalkTracer,
}

/// Where a successful hop leaves the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// The router delivered the message at its destination.
    Deliver,
    /// The message moves on to `next`.
    Forward {
        /// The neighbour the message moves to.
        next: NodeId,
        /// The position of the port taken among the decision's advertised
        /// ports: 0 for the primary port, `k > 0` when the fault check
        /// vetoed the `k` before it.
        rank: u32,
    },
}

/// Runs `router` at node `at` for `msg` and resolves its decision into the
/// next node.
///
/// A forward takes the first advertised port whose hop `check(at, next)`
/// lets through; a check that never vetoes takes the primary port. Trace
/// events, stamped with the header's post-decision counter: one
/// [`HopKind::Blocked`] per veto, then [`HopKind::Forward`] on success;
/// [`HopKind::Deliver`] on delivery; and on failure
/// [`HopKind::RouterError`], [`HopKind::Misdelivered`] or
/// [`HopKind::Dropped`] (a bad port, or no port at all). A hop that fails
/// because every port was vetoed records only its `Blocked` events.
///
/// # Errors
///
/// Returns the [`RouteFailure`] that stopped the hop, at `at`; a vetoed
/// hop is [`RouteFailure::Blocked`] with the first veto.
#[inline]
pub fn hop(
    router: &dyn LocalRouter,
    env: &NodeEnv<'_>,
    pa: &PortAssignment,
    at: NodeId,
    msg: Message<'_>,
    mut check: impl FnMut(NodeId, NodeId) -> Option<TraceFault>,
) -> Result<Hop, RouteFailure> {
    let Message { dest, dest_label, state, tracer } = msg;
    let decision = match router.route(env, dest_label, state) {
        Ok(decision) => decision,
        Err(error) => {
            tracer.hit(at, state.counter, HopKind::RouterError);
            return Err(RouteFailure::RouterError { at, error });
        }
    };
    let budget = state.counter;
    let ports = match &decision {
        RouteDecision::Deliver if at == dest => {
            tracer.hit(at, budget, HopKind::Deliver);
            return Ok(Hop::Deliver);
        }
        RouteDecision::Deliver => {
            tracer.hit(at, budget, HopKind::Misdelivered);
            return Err(RouteFailure::Misdelivered { at });
        }
        RouteDecision::Forward(port) => std::slice::from_ref(port),
        RouteDecision::ForwardAny(ports) => ports.as_slice(),
    };
    let mut first_veto = None;
    for (rank, &port) in (0u32..).zip(ports) {
        let Some(next) = pa.neighbor_at(at, port) else {
            tracer.hit(at, budget, HopKind::Dropped { reason: "bad port" });
            return Err(RouteFailure::BadPort { at, port });
        };
        match check(at, next) {
            None => {
                tracer.hit(at, budget, HopKind::Forward { port, next, rank });
                return Ok(Hop::Forward { next, rank });
            }
            Some(fault) => {
                tracer.hit(at, budget, HopKind::Blocked { port, next, fault });
                first_veto.get_or_insert(RouteFailure::Blocked { at, to: Some(next), fault });
            }
        }
    }
    Err(first_veto.unwrap_or_else(|| {
        tracer.hit(at, budget, HopKind::Dropped { reason: "no usable port" });
        RouteFailure::NoUsablePort { at }
    }))
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The node path `[s, …, t]`.
    pub path: Vec<NodeId>,
    /// Hops that took a port other than their decision's first, because
    /// the fault check vetoed the ones before it.
    pub reroutes: u64,
}

impl Delivery {
    /// Number of edges traversed.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Walks one message from `s` to `t` through `scheme`, running [`hop`] at
/// each node with `check` as the fault check, for at most `max_hops` hops.
///
/// When a [`TraceRecorder`](ort_telemetry::trace::TraceRecorder) is
/// installed that wants the `(s, t)` pair, the walk is traced at simulator
/// time `time`. A walk that exhausts its budget records
/// [`HopKind::HopLimit`] and dumps the flight recorder as a
/// `hop_limit_death` anomaly.
///
/// # Errors
///
/// [`RouteFailure::NodeOutOfRange`] if `s` or `t` is not a node of the
/// scheme, [`RouteFailure::HopLimit`] if the budget runs out, and
/// otherwise the failure of the hop that stopped the message.
#[inline]
pub fn walk(
    scheme: &dyn RoutingScheme,
    s: NodeId,
    t: NodeId,
    max_hops: usize,
    time: u64,
    mut check: impl FnMut(NodeId, NodeId) -> Option<TraceFault>,
) -> Result<Delivery, RouteFailure> {
    if let Some(node) = [s, t].into_iter().find(|&v| v >= scheme.node_count()) {
        return Err(RouteFailure::NodeOutOfRange { node });
    }
    let mut tracer = WalkTracer::begin(s, t, time);
    let dest_label = scheme.label_of(t);
    let pa = scheme.port_assignment();
    let mut state = MessageState { source: Some(scheme.label_of(s)), counter: 0 };
    let mut path = vec![s];
    let mut reroutes = 0;
    let mut cur = s;
    for _ in 0..=max_hops {
        let router = NodeRouter { scheme, u: cur };
        let msg =
            Message { dest: t, dest_label: &dest_label, state: &mut state, tracer: &mut tracer };
        match hop(&router, &scheme.node_env(cur), pa, cur, msg, &mut check)? {
            Hop::Deliver => return Ok(Delivery { path, reroutes }),
            Hop::Forward { next, rank } => {
                reroutes += u64::from(rank > 0);
                path.push(next);
                cur = next;
            }
        }
    }
    tracer.hit(cur, state.counter, HopKind::HopLimit { limit: max_hops as u64 });
    // A message that walks the full hop budget without delivering is an
    // anomaly worth a post-mortem: dump the flight recorder.
    ort_telemetry::recorder::anomaly("hop_limit_death", s as u64, t as u64);
    Err(RouteFailure::HopLimit { limit: max_hops })
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex, PoisonError};

    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;
    use ort_telemetry::trace::{self, TraceRecorder};

    use super::*;
    use crate::scheme::RoutingScheme;
    use crate::schemes::full_table::FullTableScheme;

    /// A router that gives one fixed verdict and bumps the header counter.
    struct Says(Result<RouteDecision, RouteError>);

    impl LocalRouter for Says {
        fn route(
            &self,
            _: &NodeEnv<'_>,
            _: &Label,
            state: &mut MessageState,
        ) -> Result<RouteDecision, RouteError> {
            state.counter += 1;
            self.0.clone()
        }
    }

    /// The pair the test walks are traced under; no other walk names it.
    const PAIR: (usize, usize) = (1 << 20, (1 << 20) + 1);

    /// Runs one hop of `says` at node `at` toward `dest` on the star of
    /// five nodes (centre 0) with `check` as the fault check. Returns the
    /// outcome and the kinds of the trace events the hop recorded.
    fn run(
        says: Result<RouteDecision, RouteError>,
        at: NodeId,
        dest: NodeId,
        check: impl FnMut(NodeId, NodeId) -> Option<TraceFault>,
    ) -> (Result<Hop, RouteFailure>, Vec<HopKind>) {
        // The recorder is process-global: install it and open the walk
        // under a lock, so concurrent tests each keep their own.
        static INSTALL: Mutex<()> = Mutex::new(());
        let g = generators::star(5);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let recorder = TraceRecorder::for_pair(PAIR.0, PAIR.1);
        let mut tracer = {
            let _serial = INSTALL.lock().unwrap_or_else(PoisonError::into_inner);
            let _guard = trace::install(Arc::clone(&recorder));
            WalkTracer::begin(PAIR.0, PAIR.1, 0)
        };
        let mut state = MessageState::default();
        let dest_label = scheme.label_of(dest);
        let msg = Message { dest, dest_label: &dest_label, state: &mut state, tracer: &mut tracer };
        let out = hop(&Says(says), &scheme.node_env(at), scheme.port_assignment(), at, msg, check);
        let events: Vec<_> = recorder
            .messages()
            .into_iter()
            .flat_map(|m| m.attempts)
            .flat_map(|a| a.events)
            .collect();
        assert!(events.iter().all(|e| e.node == at && e.budget == 1), "{events:?}");
        (out, events.into_iter().map(|e| e.kind).collect())
    }

    /// The events a hop records, or none when recording is compiled out.
    fn traced(kinds: Vec<HopKind>) -> Vec<HopKind> {
        if ort_telemetry::enabled() {
            kinds
        } else {
            Vec::new()
        }
    }

    fn never(_: NodeId, _: NodeId) -> Option<TraceFault> {
        None
    }

    fn always(_: NodeId, _: NodeId) -> Option<TraceFault> {
        Some(TraceFault::LinkDown)
    }

    /// The neighbour behind port `p` of the star's centre.
    fn leaf(p: usize) -> NodeId {
        p + 1
    }

    #[test]
    fn delivers_at_the_destination_and_misdelivers_elsewhere() {
        let (out, kinds) = run(Ok(RouteDecision::Deliver), 2, 2, never);
        assert_eq!(out, Ok(Hop::Deliver));
        assert_eq!(kinds, traced(vec![HopKind::Deliver]));
        let (out, kinds) = run(Ok(RouteDecision::Deliver), 0, 2, never);
        assert_eq!(out, Err(RouteFailure::Misdelivered { at: 0 }));
        assert_eq!(kinds, traced(vec![HopKind::Misdelivered]));
    }

    #[test]
    fn router_errors_pass_through() {
        let (out, kinds) = run(Err(RouteError::UnknownDestination), 0, 2, never);
        assert_eq!(
            out,
            Err(RouteFailure::RouterError { at: 0, error: RouteError::UnknownDestination })
        );
        assert_eq!(kinds, traced(vec![HopKind::RouterError]));
    }

    #[test]
    fn a_bad_port_fails_at_rank_zero_and_after_a_veto() {
        let (out, kinds) = run(Ok(RouteDecision::Forward(4)), 0, 2, never);
        assert_eq!(out, Err(RouteFailure::BadPort { at: 0, port: 4 }));
        assert_eq!(kinds, traced(vec![HopKind::Dropped { reason: "bad port" }]));
        let (out, kinds) = run(Ok(RouteDecision::ForwardAny(vec![0, 9])), 0, 2, always);
        assert_eq!(out, Err(RouteFailure::BadPort { at: 0, port: 9 }));
        assert_eq!(
            kinds,
            traced(vec![
                HopKind::Blocked { port: 0, next: leaf(0), fault: TraceFault::LinkDown },
                HopKind::Dropped { reason: "bad port" },
            ])
        );
    }

    #[test]
    fn an_empty_forward_any_has_no_usable_port() {
        let (out, kinds) = run(Ok(RouteDecision::ForwardAny(Vec::new())), 0, 2, never);
        assert_eq!(out, Err(RouteFailure::NoUsablePort { at: 0 }));
        assert_eq!(kinds, traced(vec![HopKind::Dropped { reason: "no usable port" }]));
    }

    #[test]
    fn forward_any_fails_over_past_a_veto() {
        let veto_first = |_, v| (v == leaf(0)).then_some(TraceFault::LinkDown);
        let (out, kinds) = run(Ok(RouteDecision::ForwardAny(vec![0, 1, 2])), 0, 2, veto_first);
        assert_eq!(out, Ok(Hop::Forward { next: leaf(1), rank: 1 }));
        assert_eq!(
            kinds,
            traced(vec![
                HopKind::Blocked { port: 0, next: leaf(0), fault: TraceFault::LinkDown },
                HopKind::Forward { port: 1, next: leaf(1), rank: 1 },
            ])
        );
    }

    #[test]
    fn every_port_vetoed_carries_the_first_veto() {
        let (out, kinds) = run(Ok(RouteDecision::Forward(1)), 0, 2, always);
        assert_eq!(
            out,
            Err(RouteFailure::Blocked { at: 0, to: Some(leaf(1)), fault: TraceFault::LinkDown })
        );
        assert_eq!(
            kinds,
            traced(vec![HopKind::Blocked { port: 1, next: leaf(1), fault: TraceFault::LinkDown }])
        );
        let crash_or_cut = |_, v| {
            Some(if v == leaf(2) { TraceFault::NodeCrashed(v) } else { TraceFault::Partitioned })
        };
        let (out, kinds) = run(Ok(RouteDecision::ForwardAny(vec![2, 0])), 0, 3, crash_or_cut);
        assert_eq!(
            out,
            Err(RouteFailure::Blocked {
                at: 0,
                to: Some(leaf(2)),
                fault: TraceFault::NodeCrashed(leaf(2))
            })
        );
        assert_eq!(
            kinds,
            traced(vec![
                HopKind::Blocked {
                    port: 2,
                    next: leaf(2),
                    fault: TraceFault::NodeCrashed(leaf(2))
                },
                HopKind::Blocked { port: 0, next: leaf(0), fault: TraceFault::Partitioned },
            ])
        );
    }

    #[test]
    fn failure_display() {
        let f = RouteFailure::HopLimit { limit: 12 };
        assert!(f.to_string().contains("12"));
        let f = RouteFailure::Misdelivered { at: 3 };
        assert!(f.to_string().contains('3'));
        let f = RouteFailure::NodeOutOfRange { node: 64 };
        assert_eq!(f.to_string(), "node 64 out of range");
        let f = RouteFailure::Blocked { at: 2, to: Some(3), fault: TraceFault::LinkDown };
        assert_eq!(f.to_string(), "hop 2 → 3 blocked: link down");
        let f = RouteFailure::Blocked { at: 2, to: None, fault: TraceFault::NodeCrashed(2) };
        assert_eq!(f.to_string(), "message lost at node 2: node 2 crashed");
    }
}
