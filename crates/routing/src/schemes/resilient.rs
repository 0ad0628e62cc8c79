//! A fault-recovery adapter for single-path routing schemes.
//!
//! The paper's full-information scheme survives link failures natively:
//! storing *every* shortest-path port costs `Θ(n³)` bits (Theorem 10) but
//! "allow\[s\] alternative, shortest, paths to be taken whenever an outgoing
//! link is down" (Section 1). Every compact scheme in Table 1 gives that
//! up — one port per destination, so one dead link kills the route.
//!
//! [`ResilientScheme`] quantifies how much of the lost resilience can be
//! bought back *without new table bits*: it wraps any scheme and rewrites
//! each single-port decision `Forward(p)` into the multipath decision
//! `ForwardAny([p, other ports…])` — the wrapped scheme's port first, then
//! the node's remaining live ports as bounded deterministic local detours.
//! A simulator honouring `ForwardAny`'s first-usable-port semantics
//! (`ort-simnet`) then detours around a dead primary link and lets the
//! underlying scheme resume from the detour node.
//!
//! **Loop guard.** Detouring blindly can bounce a message between two
//! nodes forever (e.g. on a path graph whose only link onward is cut).
//! The adapter carries a detour budget in the message header: once a
//! message has seen `detour_budget` hops of adapter assistance, decisions
//! pass through unmodified, so the walk either ends at the destination via
//! the inner scheme's (loop-free) route or fails cleanly at the dead
//! link. Total hops are therefore bounded by `detour_budget` plus the
//! inner scheme's own route bound — never an infinite loop.
//!
//! The budget lives in the top [`DETOUR_BITS`] bits of
//! [`MessageState::counter`]; the inner scheme sees only the low bits (the
//! Theorem 5 probe walk keeps its counter, which never approaches
//! 2⁴⁸). Header bits are message overhead, never table space — the
//! adapter adds **zero** bits to [`RoutingScheme::total_size_bits`].

use ort_graphs::labels::Label;
use ort_graphs::NodeId;

use crate::model::Model;
use crate::scheme::{MessageState, NodeEnv, RouteDecision, RouteError, RoutingScheme, Tables};

/// Number of high `MessageState::counter` bits reserved for the detour
/// budget.
pub const DETOUR_BITS: u32 = 16;
/// Right-shift extracting the detour count from a message counter —
/// `counter >> DETOUR_SHIFT` is the running budget spend (trace renderers
/// use this to label detour hops).
pub const DETOUR_SHIFT: u32 = 64 - DETOUR_BITS;
const INNER_MASK: u64 = (1 << DETOUR_SHIFT) - 1;

/// A wrapper adding bounded deterministic local detours to any scheme.
///
/// # Example
///
/// ```
/// use ort_graphs::{generators, paths::Apsp};
/// use ort_routing::scheme::RoutingScheme;
/// use ort_routing::schemes::full_table::FullTableScheme;
/// use ort_routing::schemes::resilient::ResilientScheme;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::gnp_half(16, 1);
/// let dists = Apsp::compute(&g);
/// let inner = FullTableScheme::build(&g, &dists)?;
/// let wrapped = ResilientScheme::wrap(Box::new(inner));
/// // Same table bits: resilience is paid for in message-header bits only.
/// assert_eq!(wrapped.total_size_bits(), FullTableScheme::build(&g, &dists)?.total_size_bits());
/// # Ok(())
/// # }
/// ```
pub struct ResilientScheme {
    inner: Box<dyn RoutingScheme>,
    detour_budget: u64,
}

impl ResilientScheme {
    /// Wraps `inner` with the default detour budget of `4n` hops (ample
    /// for local detours, still far below the 2¹⁶ header capacity).
    #[must_use]
    pub fn wrap(inner: Box<dyn RoutingScheme>) -> Self {
        let n = inner.node_count() as u64;
        Self::with_budget(inner, 4 * n.max(1))
    }

    /// Wraps `inner` with an explicit detour budget (clamped to the
    /// header's 16-bit capacity).
    #[must_use]
    pub fn with_budget(inner: Box<dyn RoutingScheme>, detour_budget: u64) -> Self {
        ResilientScheme { inner, detour_budget: detour_budget.min((1 << DETOUR_BITS) - 1) }
    }

    /// The configured detour budget.
    #[must_use]
    pub fn detour_budget(&self) -> u64 {
        self.detour_budget
    }

    /// The wrapped scheme.
    #[must_use]
    pub fn inner(&self) -> &dyn RoutingScheme {
        self.inner.as_ref()
    }
}

impl RoutingScheme for ResilientScheme {
    fn model(&self) -> Model {
        self.inner.model()
    }

    fn tables(&self) -> &Tables {
        self.inner.tables()
    }

    fn port_permutation_bits(&self, u: NodeId) -> usize {
        self.inner.port_permutation_bits(u)
    }

    fn route_at(
        &self,
        u: NodeId,
        env: &NodeEnv<'_>,
        dest: &Label,
        state: &mut MessageState,
    ) -> Result<RouteDecision, RouteError> {
        // Unpack the header: high bits are ours, low bits belong to the
        // wrapped scheme.
        let detours = state.counter >> DETOUR_SHIFT;
        let mut inner_state =
            MessageState { source: state.source.take(), counter: state.counter & INNER_MASK };
        let result = self.inner.route_at(u, env, dest, &mut inner_state);
        let mut new_detours = detours;
        let decision = match result {
            Err(e) => {
                // Repack before propagating so a retried message keeps its
                // budget accounting.
                state.source = inner_state.source;
                state.counter = (inner_state.counter & INNER_MASK) | (detours << DETOUR_SHIFT);
                return Err(e);
            }
            Ok(RouteDecision::Deliver) => RouteDecision::Deliver,
            Ok(RouteDecision::Forward(p)) if detours < self.detour_budget => {
                new_detours = detours + 1;
                RouteDecision::ForwardAny(with_alternates(env.degree, &[p]))
            }
            Ok(RouteDecision::Forward(p)) => RouteDecision::Forward(p),
            Ok(RouteDecision::ForwardAny(ports)) if detours < self.detour_budget => {
                new_detours = detours + 1;
                RouteDecision::ForwardAny(with_alternates(env.degree, &ports))
            }
            Ok(RouteDecision::ForwardAny(ports)) => RouteDecision::ForwardAny(ports),
        };
        state.source = inner_state.source;
        state.counter = (inner_state.counter & INNER_MASK) | (new_detours << DETOUR_SHIFT);
        Ok(decision)
    }
}

/// The preferred ports first, then every other port of the node in
/// ascending order — the deterministic detour order.
fn with_alternates(degree: usize, preferred: &[usize]) -> Vec<usize> {
    let mut out = preferred.to_vec();
    for p in 0..degree {
        if !preferred.contains(&p) {
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::full_table::FullTableScheme;
    use crate::schemes::theorem5::Theorem5Scheme;
    use crate::verify::verify;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn fault_free_routes_are_identical_to_the_inner_scheme() {
        let g = generators::gnp_half(24, 2);
        let dists = Apsp::compute(&g);
        let inner = FullTableScheme::build(&g, &dists).unwrap();
        let wrapped = ResilientScheme::wrap(Box::new(FullTableScheme::build(&g, &dists).unwrap()));
        let a = verify(&g, &inner, &dists, 1).unwrap();
        let b = verify(&g, &wrapped, &dists, 1).unwrap();
        // The verifier (like the simulator) takes the first advertised
        // port, which is the inner scheme's choice — identical stretch.
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.total_hops, b.total_hops);
        assert_eq!(b.max_stretch(), Some(1.0));
    }

    #[test]
    fn size_accounting_is_unchanged() {
        let g = generators::gnp_half(16, 5);
        let inner = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let total = inner.total_size_bits();
        let wrapped = ResilientScheme::wrap(Box::new(inner));
        assert_eq!(wrapped.total_size_bits(), total);
        for u in 0..16 {
            assert_eq!(wrapped.node_size_bits(u), wrapped.inner().node_size_bits(u));
        }
    }

    #[test]
    fn decisions_offer_every_port_of_the_node() {
        let g = generators::path(4); // node 1 has ports {0, 1}
        let inner = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let wrapped = ResilientScheme::wrap(Box::new(inner));
        let env = wrapped.node_env(1);
        let mut state = MessageState::default();
        let RouteDecision::ForwardAny(ports) =
            wrapped.route_at(1, &env, &Label::Minimal(3), &mut state).unwrap()
        else {
            panic!("expected multipath decision");
        };
        assert_eq!(ports.len(), 2, "primary plus the one alternate");
        // Primary first: port to node 2 (the shortest-path next hop).
        let primary = wrapped.port_assignment().neighbor_at(1, ports[0]).unwrap();
        assert_eq!(primary, 2);
        assert_eq!(state.counter >> DETOUR_SHIFT, 1, "one detour-budget hop consumed");
    }

    #[test]
    fn budget_exhaustion_passes_decisions_through() {
        let g = generators::path(4);
        let inner = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let wrapped = ResilientScheme::with_budget(Box::new(inner), 1);
        let env = wrapped.node_env(1);
        let mut state = MessageState::default();
        // First hop consumes the budget…
        let d1 = wrapped.route_at(1, &env, &Label::Minimal(3), &mut state).unwrap();
        assert!(matches!(d1, RouteDecision::ForwardAny(_)));
        // …after which the inner decision passes through unmodified.
        let d2 = wrapped.route_at(1, &env, &Label::Minimal(3), &mut state).unwrap();
        assert!(matches!(d2, RouteDecision::Forward(_)), "budget spent: no more alternates");
    }

    #[test]
    fn probe_scheme_counter_is_preserved() {
        // Theorem 5 keeps its probe counter in the low header bits; the
        // adapter must not clobber it.
        let g = generators::gnp_half(32, 2);
        let dists = Apsp::compute(&g);
        let wrapped = ResilientScheme::wrap(Box::new(Theorem5Scheme::build(&g, &dists).unwrap()));
        let report = verify(&g, &wrapped, &dists, 1).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures.first());
    }
}
