//! The one hop step: how a message moves one node.
//!
//! A node's router, decoded from its stored bits and run on what its
//! model lets it see, names a port; a full-information router names every
//! shortest-path port, so that "alternative, shortest, paths [can] be
//! taken whenever an outgoing link is down". [`hop`] is that rule, written
//! once for every walker: [`crate::verify::route_pair`], and the network
//! and round simulators of `ort-simnet`. Each walker supplies the fault
//! check its world has and keeps its own loop, budget and error type.

use ort_graphs::labels::Label;
use ort_graphs::ports::PortAssignment;
use ort_graphs::NodeId;
use ort_telemetry::trace::{HopKind, TraceFault, WalkTracer};

use crate::scheme::{LocalRouter, MessageState, NodeEnv, RouteDecision, RouteError};

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

/// Why a hop failed. `F` is the walker's fault type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopError<F> {
    /// The router returned an error.
    Router(RouteError),
    /// The router claimed delivery away from the destination.
    Misdelivered,
    /// The decision named a port the node does not have.
    BadPort(usize),
    /// A multipath decision advertised no port at all.
    NoUsablePort,
    /// The fault check vetoed every advertised port.
    Blocked {
        /// The neighbour behind the first vetoed port.
        to: NodeId,
        /// The first veto.
        fault: F,
        /// Whether the decision was multipath ([`RouteDecision::ForwardAny`]).
        multipath: bool,
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
/// Returns the [`HopError`] that stopped the hop; a vetoed hop carries
/// the first veto.
#[inline]
pub fn hop<F: Copy + Into<TraceFault>>(
    router: &dyn LocalRouter,
    env: &NodeEnv<'_>,
    pa: &PortAssignment,
    at: NodeId,
    msg: Message<'_>,
    mut check: impl FnMut(NodeId, NodeId) -> Option<F>,
) -> Result<Hop, HopError<F>> {
    let Message { dest, dest_label, state, tracer } = msg;
    let decision = match router.route(env, dest_label, state) {
        Ok(decision) => decision,
        Err(error) => {
            tracer.hit(at, state.counter, HopKind::RouterError);
            return Err(HopError::Router(error));
        }
    };
    let budget = state.counter;
    let (ports, multipath) = match &decision {
        RouteDecision::Deliver if at == dest => {
            tracer.hit(at, budget, HopKind::Deliver);
            return Ok(Hop::Deliver);
        }
        RouteDecision::Deliver => {
            tracer.hit(at, budget, HopKind::Misdelivered);
            return Err(HopError::Misdelivered);
        }
        RouteDecision::Forward(port) => (std::slice::from_ref(port), false),
        RouteDecision::ForwardAny(ports) => (ports.as_slice(), true),
    };
    let mut first_veto = None;
    for (rank, &port) in (0u32..).zip(ports) {
        let Some(next) = pa.neighbor_at(at, port) else {
            tracer.hit(at, budget, HopKind::Dropped { reason: "bad port" });
            return Err(HopError::BadPort(port));
        };
        match check(at, next) {
            None => {
                tracer.hit(at, budget, HopKind::Forward { port, next, rank });
                return Ok(Hop::Forward { next, rank });
            }
            Some(fault) => {
                tracer.hit(at, budget, HopKind::Blocked { port, next, fault: fault.into() });
                first_veto.get_or_insert((next, fault));
            }
        }
    }
    match first_veto {
        Some((to, fault)) => Err(HopError::Blocked { to, fault, multipath }),
        None => {
            tracer.hit(at, budget, HopKind::Dropped { reason: "no usable port" });
            Err(HopError::NoUsablePort)
        }
    }
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
    ) -> (Result<Hop, HopError<TraceFault>>, Vec<HopKind>) {
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
        assert_eq!(out, Err(HopError::Misdelivered));
        assert_eq!(kinds, traced(vec![HopKind::Misdelivered]));
    }

    #[test]
    fn router_errors_pass_through() {
        let (out, kinds) = run(Err(RouteError::UnknownDestination), 0, 2, never);
        assert_eq!(out, Err(HopError::Router(RouteError::UnknownDestination)));
        assert_eq!(kinds, traced(vec![HopKind::RouterError]));
    }

    #[test]
    fn a_bad_port_fails_at_rank_zero_and_after_a_veto() {
        let (out, kinds) = run(Ok(RouteDecision::Forward(4)), 0, 2, never);
        assert_eq!(out, Err(HopError::BadPort(4)));
        assert_eq!(kinds, traced(vec![HopKind::Dropped { reason: "bad port" }]));
        let (out, kinds) = run(Ok(RouteDecision::ForwardAny(vec![0, 9])), 0, 2, always);
        assert_eq!(out, Err(HopError::BadPort(9)));
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
        assert_eq!(out, Err(HopError::NoUsablePort));
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
            Err(HopError::Blocked { to: leaf(1), fault: TraceFault::LinkDown, multipath: false })
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
            Err(HopError::Blocked {
                to: leaf(2),
                fault: TraceFault::NodeCrashed(leaf(2)),
                multipath: true
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
}
