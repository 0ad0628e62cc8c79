//! Deterministic fault injection shared by both simulators.
//!
//! The paper motivates full-information routing because it "allow[s]
//! alternative, shortest, paths to be taken whenever an outgoing link is
//! down" (Section 1). To measure the operational price of each scheme's
//! smaller tables under exactly that scenario, this module provides:
//!
//! * [`FaultPlan`] — a *seeded, timed script* of fault events (link
//!   down/up, node crash/restart, bipartition/heal). [`crate::Network`]
//!   applies it on a per-send epoch clock; [`crate::rounds::RoundSimulator`]
//!   applies it on its round clock. Same plan, same clock values ⇒ same
//!   fault trajectory in both simulators.
//! * [`FaultState`] — the materialised "what is broken right now" view,
//!   validated against the scheme's port assignment so a fault on a
//!   non-existent link is a reported error, never a silent no-op.
//!
//! Everything is deterministic: random plans come from an explicit LCG
//! (the same generator family the conformance fuzzer uses), never from
//! ambient entropy, so resilience reports are byte-identical across runs
//! and thread counts.

use std::collections::HashSet;
use std::fmt;

use ort_graphs::ports::PortAssignment;
use ort_graphs::NodeId;
use ort_telemetry::trace::TraceFault;

/// One fault (or repair) event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// The undirected link `{u, v}` goes down.
    LinkDown(NodeId, NodeId),
    /// The undirected link `{u, v}` comes back up.
    LinkUp(NodeId, NodeId),
    /// The node crashes: it drops queued messages and refuses transit.
    NodeCrash(NodeId),
    /// The node restarts and resumes forwarding.
    NodeRestart(NodeId),
    /// The network is cut in two: every link with exactly one endpoint in
    /// `side` is unusable while the partition lasts.
    Bipartition {
        /// One side of the cut (the other side is the complement).
        side: Vec<NodeId>,
    },
    /// The current bipartition heals.
    Heal,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::LinkDown(u, v) => write!(f, "link {u}–{v} down"),
            FaultEvent::LinkUp(u, v) => write!(f, "link {u}–{v} up"),
            FaultEvent::NodeCrash(u) => write!(f, "node {u} crash"),
            FaultEvent::NodeRestart(u) => write!(f, "node {u} restart"),
            FaultEvent::Bipartition { side } => write!(f, "bipartition ({} nodes cut off)", side.len()),
            FaultEvent::Heal => write!(f, "partition heals"),
        }
    }
}

impl fmt::Display for FaultPlan {
    /// The timed event listing: one `t=<at>  <event>` line per scheduled
    /// event, in schedule order (used by `ort resilience --verbose` and
    /// trace diagnostics).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return writeln!(f, "(no scheduled faults)");
        }
        for e in &self.events {
            writeln!(f, "t={:<4} {}", e.at, e.event)?;
        }
        Ok(())
    }
}

/// A fault event scheduled at a simulator time.
///
/// The time unit is the consuming simulator's clock: message index for
/// [`crate::Network`] (the event fires before the `at`-th send, 0-based),
/// round number for [`crate::rounds::RoundSimulator`] (the event fires at
/// the start of round `at`, rounds being 1-based — `at = 0` means "before
/// any round").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedFault {
    /// When the event fires.
    pub at: u64,
    /// What happens.
    pub event: FaultEvent,
}

/// A deterministic script of timed fault events.
///
/// Events are kept sorted by time (stable, so same-time events apply in
/// insertion order — deterministic by construction).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<TimedFault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from events, stably sorted by time.
    #[must_use]
    pub fn from_events(mut events: Vec<TimedFault>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Appends an event (keeps the schedule sorted).
    pub fn push(&mut self, at: u64, event: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, TimedFault { at, event });
    }

    /// The scheduled events, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled event responsible for a vetoed hop `at → next`: the
    /// most recent event at or before `time` (the trace's clock value)
    /// whose effect matches the `fault` the per-hop check reported. This
    /// is how a failed message's trace is tied back to the *exact* plan
    /// line that blocked it; `None` means the fault came from state not
    /// scheduled by this plan (e.g. a manual `FaultState::apply`).
    #[must_use]
    pub fn blocking_event(
        &self,
        time: u64,
        at: NodeId,
        next: NodeId,
        fault: TraceFault,
    ) -> Option<&TimedFault> {
        self.events
            .iter()
            .take_while(|e| e.at <= time)
            .filter(|e| match (&fault, &e.event) {
                (TraceFault::LinkDown, FaultEvent::LinkDown(u, v)) => {
                    (*u == at && *v == next) || (*u == next && *v == at)
                }
                (TraceFault::NodeCrashed(x), FaultEvent::NodeCrash(u)) => u == x,
                (TraceFault::Partitioned, FaultEvent::Bipartition { side }) => {
                    side.contains(&at) != side.contains(&next)
                }
                _ => false,
            })
            .last()
    }

    /// A seeded static link-fault load: `⌈intensity · m⌉` distinct edges of
    /// the topology go down at time 0, chosen by an explicit LCG from
    /// `seed`. `intensity` is clamped to `[0, 1]`.
    ///
    /// Determinism: the edge list is taken in the port assignment's
    /// canonical order and sampled by Fisher–Yates with the LCG, so the
    /// same `(topology, intensity, seed)` always yields the same plan.
    #[must_use]
    pub fn random_link_faults(pa: &PortAssignment, intensity: f64, seed: u64) -> Self {
        let mut edges = edge_list(pa);
        let m = edges.len();
        let k = ((intensity.clamp(0.0, 1.0) * m as f64).ceil() as usize).min(m);
        let mut rng = Lcg::new(seed);
        // Partial Fisher–Yates: the first k slots become the sample.
        for i in 0..k {
            let j = i + (rng.next_u64() as usize) % (m - i);
            edges.swap(i, j);
        }
        let events = edges[..k]
            .iter()
            .map(|&(u, v)| TimedFault { at: 0, event: FaultEvent::LinkDown(u, v) })
            .collect();
        FaultPlan { events }
    }

    /// A seeded crash/restart schedule: `count` distinct nodes crash at
    /// `crash_at` and restart at `restart_at`.
    ///
    /// # Panics
    ///
    /// Panics if `count > n` or `restart_at < crash_at`.
    #[must_use]
    pub fn crash_restart(n: usize, count: usize, crash_at: u64, restart_at: u64, seed: u64) -> Self {
        assert!(count <= n, "cannot crash more nodes than exist");
        assert!(restart_at >= crash_at, "restart must not precede crash");
        let mut nodes: Vec<NodeId> = (0..n).collect();
        let mut rng = Lcg::new(seed);
        for i in 0..count {
            let j = i + (rng.next_u64() as usize) % (n - i);
            nodes.swap(i, j);
        }
        let mut events = Vec::with_capacity(2 * count);
        for &u in &nodes[..count] {
            events.push(TimedFault { at: crash_at, event: FaultEvent::NodeCrash(u) });
        }
        for &u in &nodes[..count] {
            events.push(TimedFault { at: restart_at, event: FaultEvent::NodeRestart(u) });
        }
        FaultPlan::from_events(events)
    }
}

/// The error returned when a fault event names a link or node the
/// topology does not have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidFault {
    /// The rejected event.
    pub event: FaultEvent,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for InvalidFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault ({}): {}", self.event, self.reason)
    }
}

impl std::error::Error for InvalidFault {}

/// The materialised fault state both simulators consult hop by hop.
///
/// Constructed from the scheme's [`PortAssignment`] so that every event is
/// validated against the real topology: failing a non-edge or crashing an
/// out-of-range node is an [`InvalidFault`], never a silent no-op.
#[derive(Debug, Clone)]
pub struct FaultState {
    /// Sorted adjacency per node, for O(log d) edge validation.
    adj: Vec<Vec<NodeId>>,
    links_down: HashSet<(NodeId, NodeId)>,
    crashed: Vec<bool>,
    /// `Some(membership)` while a bipartition is active; `membership[u]`
    /// is `u`'s side of the cut.
    partition: Option<Vec<bool>>,
    /// Index of the next unapplied plan event (monotone clock cursor).
    cursor: usize,
}

impl FaultState {
    /// A fully healthy state over the scheme's topology.
    #[must_use]
    pub fn new(pa: &PortAssignment) -> Self {
        let n = pa.node_count();
        let adj: Vec<Vec<NodeId>> = (0..n)
            .map(|u| {
                let mut nbrs: Vec<NodeId> = (0..pa.degree(u))
                    .map(|p| pa.neighbor_at(u, p).expect("port in range"))
                    .collect();
                nbrs.sort_unstable();
                nbrs
            })
            .collect();
        FaultState {
            adj,
            links_down: HashSet::new(),
            crashed: vec![false; n],
            partition: None,
            cursor: 0,
        }
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Whether `{u, v}` is an edge of the underlying topology.
    #[must_use]
    pub fn is_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.adj.len() && self.adj[u].binary_search(&v).is_ok()
    }

    /// Applies one event, validating it against the topology.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFault`] for a non-edge link, an out-of-range node,
    /// an empty or full bipartition side, or a heal with no partition
    /// active. Valid events are idempotent (re-crashing a crashed node is
    /// fine).
    pub fn apply(&mut self, event: &FaultEvent) -> Result<(), InvalidFault> {
        let n = self.adj.len();
        let invalid = |reason: String| InvalidFault { event: event.clone(), reason };
        match event {
            FaultEvent::LinkDown(u, v) | FaultEvent::LinkUp(u, v) => {
                if *u >= n || *v >= n {
                    return Err(invalid(format!("node out of range (n = {n})")));
                }
                if !self.is_edge(*u, *v) {
                    return Err(invalid(format!("{u}–{v} is not an edge of the topology")));
                }
                if matches!(event, FaultEvent::LinkDown(..)) {
                    self.links_down.insert(key(*u, *v));
                } else {
                    self.links_down.remove(&key(*u, *v));
                }
            }
            FaultEvent::NodeCrash(u) | FaultEvent::NodeRestart(u) => {
                if *u >= n {
                    return Err(invalid(format!("node out of range (n = {n})")));
                }
                self.crashed[*u] = matches!(event, FaultEvent::NodeCrash(_));
            }
            FaultEvent::Bipartition { side } => {
                if side.is_empty() || side.len() >= n {
                    return Err(invalid("bipartition side must be a proper non-empty subset".into()));
                }
                let mut membership = vec![false; n];
                for &u in side {
                    if u >= n {
                        return Err(invalid(format!("node {u} out of range (n = {n})")));
                    }
                    membership[u] = true;
                }
                self.partition = Some(membership);
            }
            FaultEvent::Heal => {
                if self.partition.is_none() {
                    return Err(invalid("no partition is active".into()));
                }
                self.partition = None;
            }
        }
        Ok(())
    }

    /// Applies every plan event scheduled at or before `time` that has not
    /// fired yet. The cursor is monotone: rewinding the clock does not
    /// replay events.
    ///
    /// # Errors
    ///
    /// Propagates the first [`InvalidFault`]; later due events stay queued.
    pub fn advance_to(&mut self, plan: &FaultPlan, time: u64) -> Result<(), InvalidFault> {
        while let Some(e) = plan.events.get(self.cursor) {
            if e.at > time {
                break;
            }
            self.apply(&e.event)?;
            self.cursor += 1;
        }
        Ok(())
    }

    /// Whether every scheduled plan event has fired.
    #[must_use]
    pub fn plan_exhausted(&self, plan: &FaultPlan) -> bool {
        self.cursor >= plan.events.len()
    }

    /// Marks the link `{u, v}` down; `false` (and no state change) if the
    /// topology has no such edge.
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) -> bool {
        self.apply(&FaultEvent::LinkDown(u, v)).is_ok()
    }

    /// Restores the link `{u, v}`; `false` if the topology has no such
    /// edge.
    pub fn restore_link(&mut self, u: NodeId, v: NodeId) -> bool {
        self.apply(&FaultEvent::LinkUp(u, v)).is_ok()
    }

    /// Whether the link `{u, v}` is individually marked down (crashes and
    /// partitions are separate — see [`FaultState::check_hop`]).
    #[must_use]
    pub fn is_link_down(&self, u: NodeId, v: NodeId) -> bool {
        self.links_down.contains(&key(u, v))
    }

    /// Whether `u` is currently crashed.
    #[must_use]
    pub fn is_crashed(&self, u: NodeId) -> bool {
        u < self.crashed.len() && self.crashed[u]
    }

    /// Why the hop `u → v` cannot be taken right now, or `None` if it can.
    ///
    /// Precedence when several faults overlap: a crashed endpoint wins
    /// (the node is gone, the link state is moot), then an explicit link
    /// fault, then the partition cut.
    #[must_use]
    pub fn check_hop(&self, u: NodeId, v: NodeId) -> Option<TraceFault> {
        ort_telemetry::counter!("simnet.fault_checks").incr();
        if self.is_crashed(u) {
            return Some(TraceFault::NodeCrashed(u));
        }
        if self.is_crashed(v) {
            return Some(TraceFault::NodeCrashed(v));
        }
        if self.links_down.contains(&key(u, v)) {
            return Some(TraceFault::LinkDown);
        }
        if let Some(membership) = &self.partition {
            if membership[u] != membership[v] {
                return Some(TraceFault::Partitioned);
            }
        }
        None
    }

    /// Whether the hop `u → v` is currently usable.
    #[must_use]
    pub fn hop_usable(&self, u: NodeId, v: NodeId) -> bool {
        self.check_hop(u, v).is_none()
    }

    /// Clears all faults (links, crashes, partition) but keeps the plan
    /// cursor — scripted history does not replay.
    pub fn restore_all(&mut self) {
        self.links_down.clear();
        self.crashed.fill(false);
        self.partition = None;
    }

    /// Nodes reachable from `src` over currently usable hops (crashed
    /// sources reach nothing, not even themselves). Used by the resilience
    /// report to split failures into "partition-detected" (destination
    /// genuinely unreachable) and avoidable.
    #[must_use]
    pub fn reachable_from(&self, src: NodeId) -> Vec<bool> {
        let n = self.adj.len();
        let mut seen = vec![false; n];
        if src >= n || self.is_crashed(src) {
            return seen;
        }
        seen[src] = true;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if !seen[v] && self.hop_usable(u, v) {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }
}

/// The canonical (sorted-endpoint) undirected edge list of a topology.
#[must_use]
pub fn edge_list(pa: &PortAssignment) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for u in 0..pa.node_count() {
        for p in 0..pa.degree(u) {
            let v = pa.neighbor_at(u, p).expect("port in range");
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges.sort_unstable();
    edges
}

fn key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// The splitmix-style LCG used for seeded plans — explicit so fault plans
/// never depend on an external RNG's stream ordering. Crate-visible: the
/// churn generator draws from the same family so fault and churn
/// schedules share one determinism story.
pub(crate) struct Lcg {
    state: u64,
}

impl Lcg {
    pub(crate) fn new(seed: u64) -> Self {
        Lcg { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x6A09_E667_F3BC_C909) }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        // splitmix64
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_graphs::generators;

    fn state_for(g: &ort_graphs::Graph) -> FaultState {
        FaultState::new(&PortAssignment::sorted(g))
    }

    #[test]
    fn plan_display_lists_timed_events() {
        let mut plan = FaultPlan::new();
        plan.push(3, FaultEvent::NodeCrash(2));
        plan.push(0, FaultEvent::LinkDown(0, 1));
        let listing = plan.to_string();
        let lines: Vec<&str> = listing.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("t=0"), "schedule order: {listing}");
        assert!(lines[0].contains("link 0–1 down"), "{listing}");
        assert!(lines[1].starts_with("t=3"), "{listing}");
        assert!(lines[1].contains("node 2 crash"), "{listing}");
        assert_eq!(FaultPlan::new().to_string(), "(no scheduled faults)\n");
    }

    #[test]
    fn blocking_event_names_the_exact_plan_line() {
        let mut plan = FaultPlan::new();
        plan.push(0, FaultEvent::LinkDown(1, 2));
        plan.push(5, FaultEvent::NodeCrash(3));
        // The link fault matches either hop direction…
        let hit = plan.blocking_event(0, 2, 1, TraceFault::LinkDown).unwrap();
        assert_eq!(hit.event, FaultEvent::LinkDown(1, 2));
        // …but not before its scheduled time, and not other edges.
        assert!(plan.blocking_event(4, 1, 3, TraceFault::NodeCrashed(3)).is_none());
        let hit = plan.blocking_event(5, 1, 3, TraceFault::NodeCrashed(3)).unwrap();
        assert_eq!(hit.at, 5);
        assert!(plan.blocking_event(9, 0, 1, TraceFault::LinkDown).is_none());
        // A partition veto matches a cut-crossing hop only.
        let mut pp = FaultPlan::new();
        pp.push(1, FaultEvent::Bipartition { side: vec![0, 1] });
        assert!(pp.blocking_event(1, 1, 2, TraceFault::Partitioned).is_some());
        assert!(pp.blocking_event(1, 0, 1, TraceFault::Partitioned).is_none());
    }

    #[test]
    fn non_edges_are_rejected_not_ignored() {
        let g = generators::path(4); // edges 0-1, 1-2, 2-3
        let mut fs = state_for(&g);
        assert!(!fs.fail_link(0, 2), "0–2 is not an edge");
        assert!(!fs.fail_link(0, 9), "out of range");
        assert!(fs.fail_link(1, 2));
        assert!(fs.is_link_down(2, 1), "undirected");
        assert!(fs.restore_link(2, 1));
        assert!(!fs.is_link_down(1, 2));
    }

    #[test]
    fn crash_blocks_all_incident_hops() {
        let g = generators::star(5);
        let mut fs = state_for(&g);
        fs.apply(&FaultEvent::NodeCrash(0)).unwrap();
        assert_eq!(fs.check_hop(1, 0), Some(TraceFault::NodeCrashed(0)));
        assert_eq!(fs.check_hop(0, 2), Some(TraceFault::NodeCrashed(0)));
        fs.apply(&FaultEvent::NodeRestart(0)).unwrap();
        assert!(fs.hop_usable(1, 0));
    }

    #[test]
    fn bipartition_cuts_exactly_the_cross_links() {
        let g = generators::complete(6);
        let mut fs = state_for(&g);
        fs.apply(&FaultEvent::Bipartition { side: vec![0, 1, 2] }).unwrap();
        assert_eq!(fs.check_hop(0, 3), Some(TraceFault::Partitioned));
        assert!(fs.hop_usable(0, 1), "intra-side links stay up");
        assert!(fs.hop_usable(3, 4));
        fs.apply(&FaultEvent::Heal).unwrap();
        assert!(fs.hop_usable(0, 3));
        assert!(fs.apply(&FaultEvent::Heal).is_err(), "no partition to heal");
    }

    #[test]
    fn bipartition_validation() {
        let g = generators::complete(4);
        let mut fs = state_for(&g);
        assert!(fs.apply(&FaultEvent::Bipartition { side: vec![] }).is_err());
        assert!(fs.apply(&FaultEvent::Bipartition { side: vec![0, 1, 2, 3] }).is_err());
        assert!(fs.apply(&FaultEvent::Bipartition { side: vec![7] }).is_err());
    }

    #[test]
    fn plan_advances_monotonically() {
        let g = generators::cycle(5);
        let plan = FaultPlan::from_events(vec![
            TimedFault { at: 2, event: FaultEvent::LinkDown(0, 1) },
            TimedFault { at: 5, event: FaultEvent::LinkUp(0, 1) },
        ]);
        let mut fs = state_for(&g);
        fs.advance_to(&plan, 1).unwrap();
        assert!(fs.hop_usable(0, 1));
        fs.advance_to(&plan, 2).unwrap();
        assert!(!fs.hop_usable(0, 1));
        // Rewinding the clock does not replay anything.
        fs.advance_to(&plan, 0).unwrap();
        assert!(!fs.hop_usable(0, 1));
        fs.advance_to(&plan, 10).unwrap();
        assert!(fs.hop_usable(0, 1));
        assert!(fs.plan_exhausted(&plan));
    }

    #[test]
    fn random_link_faults_are_deterministic_and_sized() {
        let g = generators::gnp_half(24, 3);
        let pa = PortAssignment::sorted(&g);
        let m = g.edge_count();
        let a = FaultPlan::random_link_faults(&pa, 0.25, 9);
        let b = FaultPlan::random_link_faults(&pa, 0.25, 9);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.len(), ((0.25 * m as f64).ceil()) as usize);
        let c = FaultPlan::random_link_faults(&pa, 0.25, 10);
        assert_ne!(a, c, "different seed, different plan");
        // Every scheduled fault names a real edge and applies cleanly.
        let mut fs = state_for(&g);
        fs.advance_to(&a, 0).unwrap();
        // Distinct edges: the number of down links equals the plan length.
        let down = a
            .events()
            .iter()
            .filter(|e| matches!(e.event, FaultEvent::LinkDown(u, v) if fs.is_link_down(u, v)))
            .count();
        assert_eq!(down, a.len());
    }

    #[test]
    fn crash_restart_plan_shape() {
        let plan = FaultPlan::crash_restart(10, 3, 4, 9, 1);
        assert_eq!(plan.len(), 6);
        let crashes: Vec<_> =
            plan.events().iter().filter(|e| matches!(e.event, FaultEvent::NodeCrash(_))).collect();
        assert_eq!(crashes.len(), 3);
        assert!(crashes.iter().all(|e| e.at == 4));
        // Distinct victims.
        let mut victims: Vec<NodeId> = plan
            .events()
            .iter()
            .filter_map(|e| match e.event {
                FaultEvent::NodeCrash(u) => Some(u),
                _ => None,
            })
            .collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 3);
    }

    #[test]
    fn reachability_respects_all_fault_kinds() {
        let g = generators::path(5); // 0-1-2-3-4
        let mut fs = state_for(&g);
        fs.fail_link(2, 3);
        let r = fs.reachable_from(0);
        assert_eq!(r, vec![true, true, true, false, false]);
        fs.restore_all();
        fs.apply(&FaultEvent::NodeCrash(1)).unwrap();
        let r = fs.reachable_from(0);
        assert_eq!(r, vec![true, false, false, false, false]);
        assert_eq!(fs.reachable_from(1), vec![false; 5], "crashed source reaches nothing");
    }
}
