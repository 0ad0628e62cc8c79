//! The scheme registry: one entry per constructible routing scheme, with a
//! uniform build interface and each scheme's contractual stretch cap.
//!
//! The differential oracle ([`crate::differential`]) iterates
//! [`SchemeId::ALL`] so that *every* scheme in the workspace is
//! cross-checked on every graph — adding a scheme without registering it
//! here fails the `registry_covers_every_snapshot_kind` test below.

use ort_graphs::oracle::Distances;
use ort_graphs::ports::PortAssignment;
use ort_graphs::Graph;
use ort_routing::scheme::{RoutingScheme, SchemeError};
use ort_routing::schemes::theorem5;
use ort_routing::schemes::{
    full_information::FullInformationScheme, full_table::FullTableScheme,
    ia_compact::IaCompactScheme, interval::IntervalScheme, landmark::LandmarkScheme,
    multi_interval::MultiIntervalScheme, theorem1::Theorem1Scheme, theorem2::Theorem2Scheme,
    theorem3::Theorem3Scheme, theorem4::Theorem4Scheme, theorem5::Theorem5Scheme,
};
use ort_routing::snapshot::SchemeKind;

/// Seed for the landmark scheme's hub selection — fixed so conformance
/// runs are reproducible (same value the `ort` CLI uses).
pub const LANDMARK_SEED: u64 = 7;

/// What a scheme promises about route length relative to the true
/// distance; the differential oracle asserts the promise pair by pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StretchCap {
    /// Shortest-path scheme: hops must equal the distance exactly.
    Exact,
    /// Multiplicative cap: hops ≤ factor · distance.
    Factor(f64),
    /// The Theorem 5 probe walk: hops ≤ max(distance, 2(c+3)·log n).
    ProbeWalk,
    /// Delivery is guaranteed but stretch is not (tree-based and hub
    /// baselines); only termination within the hop limit is checked.
    DeliveryOnly,
}

/// Identifier for every constructible scheme in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeId {
    /// Trivial full-table baseline (stretch 1, all models).
    FullTable,
    /// Theorem 1, model II variant (≤ 6n bits/node, stretch 1).
    Theorem1,
    /// Theorem 1, model IB variant (interconnection vector prepended).
    Theorem1Ib,
    /// Theorem 2 (II ∧ γ, O(n log² n) total, stretch 1).
    Theorem2,
    /// Theorem 3 (II, O(n log n) total, stretch 1.5).
    Theorem3,
    /// Theorem 4 (II, n·log log n + 6n total, stretch 2).
    Theorem4,
    /// Theorem 5 (II, zero stored bits, probe walk).
    Theorem5,
    /// Full-information scheme (Θ(n³) total, stretch 1 with failover).
    FullInformation,
    /// Interval routing over a shortest-path tree (related work).
    Interval,
    /// Shortest-path multi-interval routing (related work).
    MultiInterval,
    /// Landmark/hub baseline (related work).
    Landmark,
    /// The IA ∧ α compact scheme meeting Theorem 8's constant.
    IaCompact,
}

impl SchemeId {
    /// Every registered scheme, in a stable report order.
    pub const ALL: [SchemeId; 12] = [
        SchemeId::FullTable,
        SchemeId::Theorem1,
        SchemeId::Theorem1Ib,
        SchemeId::Theorem2,
        SchemeId::Theorem3,
        SchemeId::Theorem4,
        SchemeId::Theorem5,
        SchemeId::FullInformation,
        SchemeId::Interval,
        SchemeId::MultiInterval,
        SchemeId::Landmark,
        SchemeId::IaCompact,
    ];

    /// The label of the memory-attribution region
    /// ([`ort_telemetry::alloc::MemSpan`]) the builders open — one per
    /// scheme, so `ort profile --mem` can attribute region peaks to the
    /// exact build phase.
    #[must_use]
    fn mem_label(self) -> &'static str {
        match self {
            SchemeId::FullTable => "build.full-table",
            SchemeId::Theorem1 => "build.theorem1",
            SchemeId::Theorem1Ib => "build.theorem1-ib",
            SchemeId::Theorem2 => "build.theorem2",
            SchemeId::Theorem3 => "build.theorem3",
            SchemeId::Theorem4 => "build.theorem4",
            SchemeId::Theorem5 => "build.theorem5",
            SchemeId::FullInformation => "build.full-information",
            SchemeId::Interval => "build.interval",
            SchemeId::MultiInterval => "build.multi-interval",
            SchemeId::Landmark => "build.landmark",
            SchemeId::IaCompact => "build.ia-compact",
        }
    }

    /// The CLI/report name of the scheme.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchemeId::FullTable => "full-table",
            SchemeId::Theorem1 => "theorem1",
            SchemeId::Theorem1Ib => "theorem1-ib",
            SchemeId::Theorem2 => "theorem2",
            SchemeId::Theorem3 => "theorem3",
            SchemeId::Theorem4 => "theorem4",
            SchemeId::Theorem5 => "theorem5",
            SchemeId::FullInformation => "full-information",
            SchemeId::Interval => "interval",
            SchemeId::MultiInterval => "multi-interval",
            SchemeId::Landmark => "landmark",
            SchemeId::IaCompact => "ia-compact",
        }
    }

    /// Builds the scheme on `g` from the exact distances `dists` — the
    /// one constructor every caller goes through. Pass the oracle the run
    /// already holds (and then hand it to `verify`), so a build-then-verify
    /// run costs one APSP. A [`ort_graphs::oracle::BandedOracle`] lets
    /// every registered scheme build with peak distance memory of one
    /// band; exact oracles all produce byte-identical schemes (the
    /// `builder_bands` differential harness proves this against the full
    /// matrix across band widths and thread counts).
    ///
    /// A `Precondition`/`Disconnected` error is a legitimate *refusal*
    /// (the theorem schemes assume Kolmogorov-random graphs), which the
    /// differential oracle records but does not flag.
    ///
    /// # Errors
    ///
    /// Returns the construction's [`SchemeError`], including
    /// [`SchemeError::ApproximateOracle`] for inexact oracles and a
    /// precondition error on an oracle/graph size mismatch.
    pub fn build_with_dists(
        self,
        g: &Graph,
        dists: &dyn Distances,
    ) -> Result<Box<dyn RoutingScheme>, SchemeError> {
        let _mem = ort_telemetry::alloc::mem_span(self.mem_label());
        Ok(match self {
            SchemeId::FullTable => Box::new(FullTableScheme::build(g, dists)?),
            SchemeId::Theorem1 => Box::new(Theorem1Scheme::build(g, dists)?),
            SchemeId::Theorem1Ib => Box::new(Theorem1Scheme::build_ib(g, dists)?),
            SchemeId::Theorem2 => Box::new(Theorem2Scheme::build(g, dists)?),
            SchemeId::Theorem3 => Box::new(Theorem3Scheme::build(g, dists)?),
            SchemeId::Theorem4 => Box::new(Theorem4Scheme::build(g, dists)?),
            SchemeId::Theorem5 => Box::new(Theorem5Scheme::build(g, dists)?),
            SchemeId::FullInformation => Box::new(FullInformationScheme::build(g, dists)?),
            SchemeId::Interval => Box::new(IntervalScheme::build(g, dists)?),
            SchemeId::MultiInterval => Box::new(MultiIntervalScheme::build(g, dists)?),
            SchemeId::Landmark => Box::new(LandmarkScheme::build(g, dists, LANDMARK_SEED)?),
            SchemeId::IaCompact => {
                Box::new(IaCompactScheme::build(g, PortAssignment::sorted(g), dists)?)
            }
        })
    }

    /// The scheme's contractual stretch cap.
    #[must_use]
    pub fn stretch_cap(self) -> StretchCap {
        match self {
            SchemeId::FullTable
            | SchemeId::Theorem1
            | SchemeId::Theorem1Ib
            | SchemeId::Theorem2
            | SchemeId::FullInformation
            | SchemeId::MultiInterval
            | SchemeId::IaCompact => StretchCap::Exact,
            SchemeId::Theorem3 => StretchCap::Factor(1.5),
            SchemeId::Theorem4 => StretchCap::Factor(2.0),
            SchemeId::Theorem5 => StretchCap::ProbeWalk,
            SchemeId::Interval | SchemeId::Landmark => StretchCap::DeliveryOnly,
        }
    }

    /// The hop cap implied by [`SchemeId::stretch_cap`] for a pair at
    /// distance `dist` in an `n`-node graph, or `None` when only delivery
    /// within the global hop limit is promised.
    #[must_use]
    pub fn hop_cap(self, n: usize, dist: u32) -> Option<u32> {
        match self.stretch_cap() {
            StretchCap::Exact => Some(dist),
            StretchCap::Factor(f) => Some((f * f64::from(dist) + 1e-9).floor() as u32),
            StretchCap::ProbeWalk => {
                let probes =
                    ort_routing::bounds::theorem5_max_edges(n, theorem5::DEFAULT_C).ceil() as u32;
                Some(dist.max(probes))
            }
            StretchCap::DeliveryOnly => None,
        }
    }

    /// The snapshot container kind, for schemes that support persistence.
    #[must_use]
    pub fn snapshot_kind(self) -> Option<SchemeKind> {
        Some(match self {
            SchemeId::FullTable => SchemeKind::FullTable,
            SchemeId::Theorem1 => SchemeKind::Theorem1,
            SchemeId::Theorem1Ib => SchemeKind::Theorem1Ib,
            SchemeId::Theorem2 => SchemeKind::Theorem2,
            SchemeId::Theorem5 => SchemeKind::Theorem5,
            SchemeId::FullInformation => SchemeKind::FullInformation,
            SchemeId::MultiInterval => SchemeKind::MultiInterval,
            _ => return None,
        })
    }

    /// The registry entry holding a given snapshot kind.
    #[must_use]
    pub fn from_snapshot_kind(kind: SchemeKind) -> Option<SchemeId> {
        SchemeId::ALL.iter().copied().find(|id| id.snapshot_kind() == Some(kind))
    }

    /// The registry entry with a given CLI/report name — the inverse of
    /// [`SchemeId::name`], used by `ort profile`/`ort report`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<SchemeId> {
        SchemeId::ALL.iter().copied().find(|id| id.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    #[test]
    fn registry_covers_every_snapshot_kind() {
        for kind in SchemeKind::ALL {
            assert!(
                SchemeId::from_snapshot_kind(kind).is_some(),
                "snapshot kind {kind:?} has no registry entry"
            );
        }
    }

    #[test]
    fn from_name_inverts_name() {
        for id in SchemeId::ALL {
            assert_eq!(SchemeId::from_name(id.name()), Some(id));
        }
        assert_eq!(SchemeId::from_name("no-such-scheme"), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = SchemeId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SchemeId::ALL.len());
    }

    #[test]
    fn every_scheme_builds_on_a_random_graph() {
        let g = generators::gnp_half(32, 3);
        for id in SchemeId::ALL {
            let built = id.build_with_dists(&g, &Apsp::compute(&g));
            assert!(built.is_ok(), "{} refused G(32,1/2) seed 3: {:?}", id.name(), built.err());
        }
    }

    #[test]
    fn hop_caps_match_contracts() {
        assert_eq!(SchemeId::FullTable.hop_cap(64, 2), Some(2));
        assert_eq!(SchemeId::Theorem3.hop_cap(64, 2), Some(3));
        assert_eq!(SchemeId::Theorem4.hop_cap(64, 2), Some(4));
        assert!(SchemeId::Theorem5.hop_cap(64, 2).unwrap() >= 2);
        assert_eq!(SchemeId::Interval.hop_cap(64, 2), None);
    }
}
