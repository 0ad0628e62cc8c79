//! Trace explainer: replays a captured walk against a distance oracle.
//!
//! A [`MessageTrace`] says what the routers *did*; this module says what
//! it *cost*. For each forwarding hop `u → v` toward destination `t` the
//! explainer charges the **excess**
//!
//! ```text
//! excess(u → v) = 1 + dist(v, t) − dist(u, t)
//! ```
//!
//! — 0 for a shortest-path hop, 1 for a lateral hop, 2 for a backward
//! hop (never negative: distances in an unweighted graph change by at
//! most 1 per edge). The sum telescopes, so for a delivered walk
//!
//! ```text
//! Σ excess = hops − dist(src, dst)
//! ```
//!
//! *exactly* — the attribution reconciles against the measured stretch
//! bit for bit, which [`AttemptExplanation::reconciles`] checks and the
//! `ort trace` CLI refuses to render without. The explainer also
//! pinpoints the first hop where the walk leaves a shortest path
//! ([`AttemptExplanation::divergence`]) and, for walks stopped by the
//! fault layer, surfaces the vetoed hop so the caller can name the exact
//! [`FaultPlan`](https://docs.rs/ort-simnet) event that fired.

use ort_graphs::NodeId;
use ort_graphs::oracle::Distances;
use ort_telemetry::trace::{AttemptTrace, HopKind, MessageTrace, TraceFault};

/// One forwarding hop with its stretch charge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopAttribution {
    /// Event sequence number within the attempt.
    pub seq: u32,
    /// The forwarding node.
    pub from: NodeId,
    /// The node forwarded to.
    pub to: NodeId,
    /// Port rank of the decision (0 = primary, > 0 = failover/detour).
    pub rank: u32,
    /// `dist(from, dst)` before the hop.
    pub dist_before: u32,
    /// `dist(to, dst)` after the hop.
    pub dist_after: u32,
    /// `1 + dist_after − dist_before` ∈ {0, 1, 2}.
    pub excess: u32,
}

/// A hop the fault layer vetoed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedHop {
    /// The node whose candidate hop was vetoed.
    pub node: NodeId,
    /// The neighbor the vetoed hop led to.
    pub to: NodeId,
    /// The fault the per-hop check reported.
    pub fault: TraceFault,
    /// The simulator clock at the veto (fault-plan time).
    pub time: u64,
}

/// One attempt of the traced message, fully attributed.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptExplanation {
    /// The attempt number (0 = first transmission).
    pub attempt: u32,
    /// Whether this attempt delivered the message.
    pub delivered: bool,
    /// Forwarding hops actually taken.
    pub hops: u32,
    /// Per-hop stretch attribution, in walk order.
    pub per_hop: Vec<HopAttribution>,
    /// `Σ excess` over `per_hop`.
    pub total_excess: u64,
    /// Index into `per_hop` of the first hop with `excess > 0` — the
    /// first point where the walk leaves every shortest path.
    pub divergence: Option<usize>,
    /// The first fault-vetoed hop of the attempt, if any.
    pub blocked: Option<BlockedHop>,
    /// Human-readable final event ("delivered", "hop limit 272", …).
    pub outcome: String,
}

impl AttemptExplanation {
    /// The reconciliation invariant. For a delivered attempt the
    /// telescoping sum is exact: `total_excess == hops − dist(src, dst)`.
    /// For an unfinished attempt that stopped at node `last`, the partial
    /// sum is `hops − (dist(src, dst) − dist(last, dst))`; both cases are
    /// `total_excess == hops + dist_at_end − dist(src, dst)`.
    #[must_use]
    pub fn reconciles(&self, distance: u32) -> bool {
        let dist_at_end = self.per_hop.last().map_or(distance, |h| h.dist_after);
        let dist_at_end = if self.delivered { 0 } else { dist_at_end };
        self.total_excess == u64::from(self.hops) + u64::from(dist_at_end) - u64::from(distance)
    }
}

/// A traced message explained attempt by attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// `dist(src, dst)` in the fault-free graph.
    pub distance: u32,
    /// Whether any attempt delivered.
    pub delivered: bool,
    /// Per-attempt attributions, in attempt order.
    pub attempts: Vec<AttemptExplanation>,
}

impl Explanation {
    /// Whether every attempt's attribution reconciles exactly (see
    /// [`AttemptExplanation::reconciles`]).
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.attempts.iter().all(|a| a.reconciles(self.distance))
    }

    /// Total excess of the delivering attempt, i.e. the absolute stretch
    /// overhead `hops − dist(src, dst)` of the successful walk.
    #[must_use]
    pub fn delivered_excess(&self) -> Option<u64> {
        self.attempts.iter().find(|a| a.delivered).map(|a| a.total_excess)
    }
}

/// Replays `trace` against `oracle` and attributes stretch hop by hop.
///
/// # Errors
///
/// Returns a description when the trace is inconsistent with the oracle:
/// a node out of range, an unreachable pair (the oracle must be the
/// fault-free one for the graph the walk ran on), or a hop that moved
/// the distance by more than one.
pub fn explain(oracle: &dyn Distances, trace: &MessageTrace) -> Result<Explanation, String> {
    let dist = |u: NodeId| {
        oracle
            .distance(u, trace.dst)
            .ok_or_else(|| format!("oracle has no distance {u} → {} (wrong graph?)", trace.dst))
    };
    let distance = dist(trace.src)?;
    let mut attempts = Vec::with_capacity(trace.attempts.len());
    for attempt in &trace.attempts {
        attempts.push(explain_attempt(attempt, trace.dst, &dist)?);
    }
    Ok(Explanation {
        src: trace.src,
        dst: trace.dst,
        distance,
        delivered: trace.delivered(),
        attempts,
    })
}

fn explain_attempt(
    attempt: &AttemptTrace,
    dst: NodeId,
    dist: &impl Fn(NodeId) -> Result<u32, String>,
) -> Result<AttemptExplanation, String> {
    let mut per_hop = Vec::new();
    let mut blocked = None;
    let mut outcome = String::from("no events recorded");
    for e in &attempt.events {
        match &e.kind {
            HopKind::Forward { next, rank, .. } => {
                let dist_before = dist(e.node)?;
                let dist_after = dist(*next)?;
                if dist_after + 1 < dist_before {
                    return Err(format!(
                        "hop {} → {next} shortens the distance to {dst} by more than one \
                         ({dist_before} → {dist_after}): trace and oracle disagree",
                        e.node
                    ));
                }
                per_hop.push(HopAttribution {
                    seq: e.seq,
                    from: e.node,
                    to: *next,
                    rank: *rank,
                    dist_before,
                    dist_after,
                    excess: 1 + dist_after - dist_before,
                });
                outcome = format!("in flight at node {next}");
            }
            HopKind::Blocked { next, fault, .. } => {
                if blocked.is_none() {
                    blocked =
                        Some(BlockedHop { node: e.node, to: *next, fault: *fault, time: e.time });
                }
                outcome = format!("hop {} → {next} blocked: {fault}", e.node);
            }
            HopKind::Deliver => outcome = String::from("delivered"),
            HopKind::RouterError => outcome = format!("router error at node {}", e.node),
            HopKind::Misdelivered => outcome = format!("misdelivered at node {}", e.node),
            HopKind::HopLimit { limit } => outcome = format!("hop limit {limit} exhausted"),
            HopKind::TtlExpired { ttl } => outcome = format!("ttl {ttl} expired at node {}", e.node),
            HopKind::Dropped { reason } => outcome = format!("dropped at node {}: {reason}", e.node),
        }
    }
    let delivered = attempt.delivered();
    let total_excess = per_hop.iter().map(|h| u64::from(h.excess)).sum();
    let divergence = per_hop.iter().position(|h| h.excess > 0);
    Ok(AttemptExplanation {
        attempt: attempt.attempt,
        delivered,
        hops: per_hop.len() as u32,
        per_hop,
        total_excess,
        divergence,
        blocked,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_graphs::paths::Apsp;
    use ort_telemetry::trace::HopEvent;

    fn ev(seq: u32, node: usize, kind: HopKind) -> HopEvent {
        HopEvent {
            message: ort_telemetry::trace::pair_id(0, 3),
            instance: 0,
            attempt: 0,
            seq,
            node,
            time: 0,
            budget: 0,
            kind,
        }
    }

    /// Path graph 0–1–2–3: a walk 0→1→0→1→2→3 has two wasted hops.
    #[test]
    fn attribution_telescopes_exactly() {
        let g = ort_graphs::generators::path(4);
        let oracle = Apsp::compute(&g);
        let hops = [(0, 1), (1, 0), (0, 1), (1, 2), (2, 3)];
        let mut events: Vec<HopEvent> = hops
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| {
                ev(i as u32, u, HopKind::Forward { port: 0, next: v, rank: 0 })
            })
            .collect();
        events.push(ev(5, 3, HopKind::Deliver));
        let trace = MessageTrace {
            src: 0,
            dst: 3,
            instance: 0,
            attempts: vec![AttemptTrace { attempt: 0, events }],
        };
        let ex = explain(&oracle, &trace).unwrap();
        assert_eq!(ex.distance, 3);
        assert!(ex.delivered);
        let a = &ex.attempts[0];
        assert_eq!(a.hops, 5);
        assert_eq!(a.total_excess, 2, "5 hops − distance 3");
        assert!(a.reconciles(ex.distance));
        assert!(ex.reconciles());
        // The walk leaves the shortest path on its second hop (1 → 0).
        assert_eq!(a.divergence, Some(1));
        assert_eq!(a.per_hop[1].excess, 2, "a backward hop costs 2");
        assert_eq!(ex.delivered_excess(), Some(2));
        assert_eq!(a.outcome, "delivered");
    }

    #[test]
    fn blocked_walk_reconciles_partially_and_names_the_fault() {
        let g = ort_graphs::generators::path(4);
        let oracle = Apsp::compute(&g);
        let events = vec![
            ev(0, 0, HopKind::Forward { port: 0, next: 1, rank: 0 }),
            ev(1, 1, HopKind::Blocked { port: 1, next: 2, fault: TraceFault::LinkDown }),
        ];
        let trace = MessageTrace {
            src: 0,
            dst: 3,
            instance: 0,
            attempts: vec![AttemptTrace { attempt: 0, events }],
        };
        let ex = explain(&oracle, &trace).unwrap();
        assert!(!ex.delivered);
        let a = &ex.attempts[0];
        assert!(a.reconciles(ex.distance), "1 hop, ended at distance 2, started at 3");
        let b = a.blocked.as_ref().unwrap();
        assert_eq!((b.node, b.to), (1, 2));
        assert_eq!(b.fault, TraceFault::LinkDown);
        assert!(a.outcome.contains("blocked"), "{}", a.outcome);
    }

    #[test]
    fn inconsistent_trace_is_rejected() {
        let g = ort_graphs::generators::path(6);
        let oracle = Apsp::compute(&g);
        // A teleporting hop 0 → 4 cannot exist in the path graph.
        let events = vec![ev(0, 0, HopKind::Forward { port: 0, next: 4, rank: 0 })];
        let trace = MessageTrace {
            src: 0,
            dst: 5,
            instance: 0,
            attempts: vec![AttemptTrace { attempt: 0, events }],
        };
        assert!(explain(&oracle, &trace).is_err());
    }
}
