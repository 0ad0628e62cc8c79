//! Core of the *Optimal Routing Tables* reproduction: the routing models,
//! schemes and lower bounds of Buhrman–Hoepman–Vitányi (PODC 1996).
//!
//! # The problem
//!
//! A *routing scheme* for a network `G` equips every node `u` with a local
//! routing function `F(u)`: given a destination label, it names an incident
//! edge (port) on a path towards that destination. The *cost* of the scheme
//! is `Σ_u |F(u)|` in bits (plus label bits when labels are non-minimal),
//! and its *stretch* is the worst ratio of route length to distance.
//!
//! The paper determines the optimal cost in nine models — knowledge axis
//! [`model::Knowledge`] (IA: fixed ports, IB: free ports, II: neighbours
//! known) × label axis [`model::Relabeling`] (α: fixed, β: permutation,
//! γ: free charged labels) — on *almost all* graphs.
//!
//! # What lives here
//!
//! * [`model`] — the nine-model taxonomy as types.
//! * [`scheme`] — the [`scheme::RoutingScheme`] abstraction. Schemes are
//!   **bit-honest**: every node's routing function is a real bit string,
//!   and routing is performed by routers *decoded from those bits* plus the
//!   model's free information only.
//! * [`schemes`] — the constructions:
//!   [`schemes::full_table`] (trivial `O(n² log n)` baseline, all models),
//!   [`schemes::theorem1`] (≤ 6n bits/node shortest path, IB∨II),
//!   [`schemes::theorem2`] (`O(n log² n)`, II∧γ),
//!   [`schemes::theorem3`] (stretch 1.5, `O(n log n)`),
//!   [`schemes::theorem4`] (stretch 2, `n log log n + 6n`),
//!   [`schemes::theorem5`] (stretch `O(log n)`, `O(1)` bits/node),
//!   [`schemes::full_information`] (Θ(n³), failover-capable),
//!   [`schemes::interval`] and [`schemes::landmark`] (related-work
//!   baselines).
//! * [`repair`] — churn survival: [`repair::RepairableScheme`] pairs a
//!   delta-repaired distance oracle with dirty-region table patching
//!   (full table) or whole-scheme rebuild (everything else).
//! * [`hop`] — the one walk: a router's decision resolved into the next
//!   node, with fault-checked failover ([`hop::hop`]), the loop that runs
//!   it from source to destination ([`hop::walk`]), and the one failure
//!   type every walker reports ([`hop::RouteFailure`]).
//! * [`verify`] — exhaustive delivery/stretch verification of any scheme.
//! * [`explain`] — hop-by-hop stretch attribution of captured route
//!   traces against a distance oracle.
//! * [`lower_bounds`] — the executable lower-bound arguments of Theorems
//!   6–9 (Theorem 10's codec lives in `ort-kolmogorov`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod bounds;
pub mod explain;
pub mod hop;
#[cfg(test)]
mod inexact_oracle;
pub mod lower_bounds;
pub mod model;
pub mod repair;
pub mod snapshot;
pub mod scheme;
pub mod schemes;
pub mod verify;
