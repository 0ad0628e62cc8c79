//! Per-message route tracing: causally ordered hop events.
//!
//! The spans/counters in the sibling modules aggregate; this module keeps
//! the *walk*. A [`TraceRecorder`] collects one [`HopEvent`] per routing
//! decision — who forwarded, on which port, at which simulator time, with
//! what fault-check outcome and budget state — so a verification failure
//! or a resilience loss can be explained hop by hop instead of only being
//! counted.
//!
//! # Determinism contract
//!
//! Event identity never depends on wall clock, thread ids, or allocation
//! order. A message is keyed by its `(src, dst)` pair ([`pair_id`]), the
//! walk instance within the capture, the retry attempt, and a per-attempt
//! hop sequence number — all assigned by the (deterministic) simulation
//! itself. [`TraceRecorder::messages`] sorts on exactly that key, so the
//! grouped trace is byte-identical under any `ORT_THREADS`, even though
//! parallel verification workers interleave their pushes.
//!
//! # Cost model
//!
//! Like the rest of the crate, recording is feature-gated (`enabled`):
//! with the feature off every probe folds away. With the feature on but
//! no recorder installed, the per-hop cost is one relaxed atomic load
//! ([`active`]). Recording is strictly append-only — instrumented code
//! never reads trace state back, so enabling a recorder cannot perturb
//! any result file.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Why a hop `u → v` cannot be taken: the one fault type. The hop step's
/// fault check returns it (`ort-simnet`'s `FaultState::check_hop` is
/// that check), and trace events and a blocked message's `RouteFailure`
/// carry it; it lives here because `ort-routing` and `ort-simnet` depend
/// on this crate, not the other way around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFault {
    /// The link to the chosen neighbor is down.
    LinkDown,
    /// The named node is crashed (either endpoint of the hop).
    NodeCrashed(usize),
    /// The hop crosses an active partition cut.
    Partitioned,
}

impl std::fmt::Display for TraceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFault::LinkDown => write!(f, "link down"),
            TraceFault::NodeCrashed(u) => write!(f, "node {u} crashed"),
            TraceFault::Partitioned => write!(f, "partition cut"),
        }
    }
}

/// What the router (or the simulator acting on its decision) did at one
/// point of a traced walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopKind {
    /// The message was forwarded on `port` to `next`. `rank` is the
    /// position of that port in the decision: 0 for a primary
    /// `Forward`/first `ForwardAny` choice, > 0 for a failover alternate
    /// (on a detour-wrapped scheme, a detour).
    Forward {
        /// Port index taken at the recording node.
        port: usize,
        /// The neighbor the port leads to.
        next: usize,
        /// 0 = primary choice; k > 0 = k alternates were skipped first.
        rank: u32,
    },
    /// A candidate port was vetoed by the fault check; the walk either
    /// fails here or goes on to try the next alternate.
    Blocked {
        /// Port index that was vetoed.
        port: usize,
        /// The neighbor the vetoed port leads to.
        next: usize,
        /// The fault the check reported.
        fault: TraceFault,
    },
    /// The router claimed delivery at the recording node.
    Deliver,
    /// The router returned an error (undecodable state, bad label…).
    RouterError,
    /// Delivery was claimed at a node that is not the destination.
    Misdelivered,
    /// The hop budget ran out (routing loop or unlucky probe walk).
    HopLimit {
        /// The exhausted budget.
        limit: u64,
    },
    /// The round simulator expired the message's time-to-live.
    TtlExpired {
        /// The TTL that expired.
        ttl: u64,
    },
    /// The message was dropped outside the routing function (e.g. it was
    /// queued at a node that crashed).
    Dropped {
        /// Human-readable drop reason.
        reason: &'static str,
    },
}

/// One recorded routing decision.
///
/// The first four fields are the deterministic sort key (see the module
/// docs); the rest describe the decision itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopEvent {
    /// The pair key, [`pair_id`]`(src, dst)`.
    pub message: u64,
    /// Which traced walk of this pair within the capture (0-based;
    /// repeated sends of one pair get successive instances).
    pub instance: u32,
    /// Retry attempt within the instance (0 = first transmission; each
    /// retry is a child trace keyed by the next attempt number).
    pub attempt: u32,
    /// Hop sequence number within the attempt, starting at 0.
    pub seq: u32,
    /// The node at which the decision was taken (for [`HopKind::Dropped`]
    /// and [`HopKind::TtlExpired`], where the message was held).
    pub node: usize,
    /// The simulator clock: the fault epoch for `Network::send`, the round
    /// number for `RoundSimulator::run`, 0 for fault-free verification.
    pub time: u64,
    /// The message's `MessageState::counter` *after* the decision. On a
    /// detour-wrapped scheme the top [`ResilientScheme::DETOUR_BITS`] bits
    /// are the running detour count (the budget state).
    ///
    /// [`ResilientScheme::DETOUR_BITS`]: https://docs.rs/ort-routing
    pub budget: u64,
    /// The decision.
    pub kind: HopKind,
}

/// A single attempt (transmission) of a traced message: its hop events in
/// sequence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptTrace {
    /// The attempt number (0 = first transmission).
    pub attempt: u32,
    /// Hop events, in `seq` order.
    pub events: Vec<HopEvent>,
}

impl AttemptTrace {
    /// Whether this attempt ended in delivery.
    #[must_use]
    pub fn delivered(&self) -> bool {
        matches!(self.events.last().map(|e| &e.kind), Some(HopKind::Deliver))
    }

    /// The forwarding hops of this attempt, in order: `(node, next, rank)`.
    #[must_use]
    pub fn forward_hops(&self) -> Vec<(usize, usize, u32)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                HopKind::Forward { next, rank, .. } => Some((e.node, next, rank)),
                _ => None,
            })
            .collect()
    }

    /// The first [`HopKind::Blocked`] event of the attempt, if any.
    #[must_use]
    pub fn first_blocked(&self) -> Option<&HopEvent> {
        self.events.iter().find(|e| matches!(e.kind, HopKind::Blocked { .. }))
    }
}

/// One traced walk of a `(src, dst)` pair: all its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageTrace {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Walk instance within the capture (0-based).
    pub instance: u32,
    /// Attempts in attempt order; retries are children of the message.
    pub attempts: Vec<AttemptTrace>,
}

impl MessageTrace {
    /// Whether any attempt delivered the message.
    #[must_use]
    pub fn delivered(&self) -> bool {
        self.attempts.iter().any(AttemptTrace::delivered)
    }
}

/// Deterministic pair key: `src` in the high 32 bits, `dst` in the low.
#[must_use]
pub fn pair_id(src: usize, dst: usize) -> u64 {
    ((src as u64) << 32) | (dst as u64 & 0xffff_ffff)
}

/// Collects [`HopEvent`]s, optionally filtered to one `(src, dst)` pair.
///
/// Shared by `Arc`; all methods take `&self`. Instrumented code must call
/// [`TraceRecorder::open`] once per walk (it allocates the instance
/// number) and then [`TraceRecorder::record`] per decision.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    filter: Option<(usize, usize)>,
    events: Mutex<Vec<HopEvent>>,
    /// Per-pair instance allocation + src/dst registry, keyed by pair id.
    opened: Mutex<BTreeMap<u64, u32>>,
}

impl TraceRecorder {
    /// A recorder capturing every routed pair.
    #[must_use]
    pub fn unfiltered() -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder::default())
    }

    /// A recorder capturing only walks from `src` to `dst`.
    #[must_use]
    pub fn for_pair(src: usize, dst: usize) -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder { filter: Some((src, dst)), ..TraceRecorder::default() })
    }

    /// Whether this recorder wants the `(src, dst)` pair.
    #[must_use]
    pub fn wants(&self, src: usize, dst: usize) -> bool {
        self.filter.is_none_or(|(fs, fd)| fs == src && fd == dst)
    }

    /// Registers a new walk of `(src, dst)` and returns its instance
    /// number (0 for the first walk of the pair in this capture).
    pub fn open(&self, src: usize, dst: usize) -> u32 {
        let mut opened = lock(&self.opened);
        let slot = opened.entry(pair_id(src, dst)).or_insert(0);
        let instance = *slot;
        *slot += 1;
        instance
    }

    /// Appends one event. No-op when the `enabled` feature is off.
    pub fn record(&self, event: HopEvent) {
        if !crate::enabled() {
            return;
        }
        lock(&self.events).push(event);
    }

    /// Number of recorded events.
    #[must_use]
    pub fn event_count(&self) -> usize {
        lock(&self.events).len()
    }

    /// All traced messages, grouped and deterministically ordered by
    /// `(pair, instance, attempt, seq)` — byte-identical for a given
    /// workload under any thread count.
    #[must_use]
    pub fn messages(&self) -> Vec<MessageTrace> {
        let mut events = lock(&self.events).clone();
        events.sort_by_key(|e| (e.message, e.instance, e.attempt, e.seq));
        let mut out: Vec<MessageTrace> = Vec::new();
        for e in events {
            let (src, dst) = ((e.message >> 32) as usize, (e.message & 0xffff_ffff) as usize);
            let msg = match out.last_mut() {
                Some(m) if m.src == src && m.dst == dst && m.instance == e.instance => m,
                _ => {
                    out.push(MessageTrace { src, dst, instance: e.instance, attempts: Vec::new() });
                    out.last_mut().expect("just pushed")
                }
            };
            match msg.attempts.last_mut() {
                Some(a) if a.attempt == e.attempt => a.events.push(e),
                _ => {
                    let attempt = e.attempt;
                    msg.attempts.push(AttemptTrace { attempt, events: vec![e] });
                }
            }
        }
        out
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Fast-path flag: true iff a recorder is installed (and the feature is
/// on). One relaxed load per hop when tracing is off.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// The installed recorder. Guarded writes only happen in
/// [`install`]/guard drop; reads clone the `Arc`.
static CURRENT: Mutex<Option<Arc<TraceRecorder>>> = Mutex::new(None);

/// Whether a trace recorder is currently installed.
#[must_use]
pub fn active() -> bool {
    crate::enabled() && ACTIVE.load(Ordering::Relaxed)
}

/// The installed recorder, if it wants the `(src, dst)` pair. This is the
/// probe instrumented code calls once per walk; the common
/// nothing-installed case is a single relaxed atomic load.
#[must_use]
pub fn recorder_for(src: usize, dst: usize) -> Option<Arc<TraceRecorder>> {
    if !active() {
        return None;
    }
    let cur = lock(&CURRENT).clone()?;
    cur.wants(src, dst).then_some(cur)
}

/// Installs `recorder` as the process-global trace recorder until the
/// returned guard drops (the previously installed recorder, if any, is
/// restored). Returns an inert guard when the `enabled` feature is off.
#[must_use = "dropping the guard uninstalls the recorder immediately"]
pub fn install(recorder: Arc<TraceRecorder>) -> TraceGuard {
    if !crate::enabled() {
        return TraceGuard { prev: None, installed: false };
    }
    let prev = lock(&CURRENT).replace(recorder);
    ACTIVE.store(true, Ordering::Relaxed);
    TraceGuard { prev, installed: true }
}

/// Uninstalls the recorder installed by [`install`] on drop, restoring
/// the previously installed one.
pub struct TraceGuard {
    prev: Option<Arc<TraceRecorder>>,
    installed: bool,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.installed {
            return;
        }
        let prev = self.prev.take();
        let active = prev.is_some();
        *lock(&CURRENT) = prev;
        ACTIVE.store(active, Ordering::Relaxed);
    }
}

/// Per-walk event emitter: carries the message key, attempt, clock and
/// hop sequence so instrumented code only names the decision.
///
/// [`WalkTracer::begin`] consults the installed recorder once; when no
/// recorder wants the pair every [`WalkTracer::hit`] is a no-op, so a
/// tracer can be constructed unconditionally on the hot path.
#[derive(Debug, Clone)]
pub struct WalkTracer {
    rec: Option<(Arc<TraceRecorder>, u32)>,
    message: u64,
    attempt: u32,
    time: u64,
    seq: u32,
}

impl WalkTracer {
    /// Starts a walk trace for `(src, dst)` against the globally
    /// installed recorder (inert if none wants the pair). `time` is the
    /// simulator clock at the walk's start.
    #[must_use]
    pub fn begin(src: usize, dst: usize, time: u64) -> WalkTracer {
        let rec = recorder_for(src, dst).map(|r| {
            let instance = r.open(src, dst);
            (r, instance)
        });
        WalkTracer { rec, message: pair_id(src, dst), attempt: 0, time, seq: 0 }
    }

    /// Whether events are actually being captured.
    #[must_use]
    pub fn active(&self) -> bool {
        self.rec.is_some()
    }

    /// Marks the start of a retry: subsequent events form a child trace
    /// under the next attempt number.
    pub fn retry(&mut self) {
        self.attempt += 1;
        self.seq = 0;
    }

    /// Updates the simulator clock stamped on subsequent events.
    pub fn set_time(&mut self, time: u64) {
        self.time = time;
    }

    /// Records one decision at `node` with the message's post-decision
    /// counter state.
    pub fn hit(&mut self, node: usize, budget: u64, kind: HopKind) {
        let Some((rec, instance)) = &self.rec else { return };
        rec.record(HopEvent {
            message: self.message,
            instance: *instance,
            attempt: self.attempt,
            seq: self.seq,
            node,
            time: self.time,
            budget,
            kind,
        });
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd(message: u64, instance: u32, attempt: u32, seq: u32, node: usize, next: usize) -> HopEvent {
        HopEvent {
            message,
            instance,
            attempt,
            seq,
            node,
            time: 0,
            budget: 0,
            kind: HopKind::Forward { port: 0, next, rank: 0 },
        }
    }

    #[test]
    fn grouping_sorts_on_the_deterministic_key() {
        let rec = TraceRecorder::unfiltered();
        let m = pair_id(1, 3);
        assert_eq!(rec.open(1, 3), 0);
        // Push out of order, as racing workers would.
        rec.record(HopEvent {
            kind: HopKind::Deliver,
            ..fwd(m, 0, 1, 1, 3, 3)
        });
        rec.record(fwd(m, 0, 1, 0, 1, 3));
        rec.record(fwd(m, 0, 0, 0, 1, 2));
        rec.record(HopEvent {
            kind: HopKind::Blocked { port: 0, next: 2, fault: TraceFault::LinkDown },
            ..fwd(m, 0, 0, 1, 2, 2)
        });
        if !crate::enabled() {
            assert_eq!(rec.event_count(), 0);
            return;
        }
        let msgs = rec.messages();
        assert_eq!(msgs.len(), 1);
        assert_eq!((msgs[0].src, msgs[0].dst), (1, 3));
        assert_eq!(msgs[0].attempts.len(), 2);
        assert_eq!(msgs[0].attempts[0].attempt, 0);
        assert!(!msgs[0].attempts[0].delivered());
        assert!(msgs[0].attempts[0].first_blocked().is_some());
        assert_eq!(msgs[0].attempts[1].events.len(), 2);
        assert!(msgs[0].attempts[1].delivered());
        assert!(msgs[0].delivered());
        assert_eq!(msgs[0].attempts[1].forward_hops(), vec![(1, 3, 0)]);
    }

    #[test]
    fn pair_filter_and_instances() {
        let rec = TraceRecorder::for_pair(2, 5);
        assert!(rec.wants(2, 5));
        assert!(!rec.wants(5, 2));
        assert_eq!(rec.open(2, 5), 0);
        assert_eq!(rec.open(2, 5), 1);
        assert_eq!(rec.open(0, 1), 0);
    }

    #[test]
    fn install_restores_previous_recorder() {
        let a = TraceRecorder::unfiltered();
        let b = TraceRecorder::for_pair(0, 1);
        if !crate::enabled() {
            let _g = install(a);
            assert!(!active());
            return;
        }
        assert!(recorder_for(0, 1).is_none() || active(), "other tests may have a recorder");
        {
            let _ga = install(Arc::clone(&a));
            assert!(active());
            assert!(recorder_for(7, 8).is_some(), "unfiltered recorder wants every pair");
            {
                let _gb = install(Arc::clone(&b));
                assert!(recorder_for(7, 8).is_none(), "filtered recorder rejects other pairs");
                assert!(recorder_for(0, 1).is_some());
            }
            assert!(recorder_for(7, 8).is_some(), "outer recorder restored");
        }
    }
}
