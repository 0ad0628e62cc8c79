//! Structure-aware snapshot fuzzing.
//!
//! Starting from a *valid* `snapshot::save` bitstream for every
//! [`SchemeKind`], the fuzzer applies the shared mutation engine
//! ([`crate::mutate`]) and asserts the failure contract: `load` either
//! rejects with a clean [`SchemeError`], or yields a scheme whose routing
//! attempts terminate with `Ok` or a clean
//! [`RouteFailure`](ort_routing::verify::RouteFailure) within the default
//! hop limit. Panics and unbounded loops are the bugs being hunted; any
//! panic aborts the run, which is exactly the signal CI needs.

use ort_bitio::BitVec;
use ort_graphs::{generators, Graph};
use ort_routing::snapshot::{load, save, SchemeKind};
use ort_routing::verify::{default_hop_limit, route_pair};

use crate::mutate::{mutate, Lcg};
use crate::registry::SchemeId;
use ort_graphs::paths::Apsp;

/// Aggregate outcome of a fuzz campaign (everything observed is clean;
/// a panic would have aborted the process instead of being counted).
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Total mutated snapshots fed to `load`.
    pub mutations: usize,
    /// Mutations rejected at load time with a clean `SchemeError`.
    pub load_rejected: usize,
    /// Mutations that still loaded (corruption landed in don't-care bits
    /// or produced a different-but-well-formed scheme).
    pub loaded_ok: usize,
    /// Routing attempts on loaded mutants that ended in a clean
    /// `RouteFailure`.
    pub route_failures: usize,
    /// Routing attempts on loaded mutants that delivered.
    pub route_ok: usize,
}

/// Builds the pristine snapshot for `kind` on a fixed `G(n, 1/2)` sample.
///
/// # Errors
///
/// Propagates construction/serialization errors (a graph the scheme
/// refuses — callers pick `(n, seed)` the theorem schemes accept).
pub fn base_snapshot(
    kind: SchemeKind,
    n: usize,
    seed: u64,
) -> Result<BitVec, ort_routing::scheme::SchemeError> {
    let g = generators::gnp_half(n, seed);
    let id = SchemeId::from_snapshot_kind(kind).expect("registry covers all kinds");
    let scheme = id.build_with_dists(&g, &Apsp::compute(&g))?;
    save(kind, scheme.as_ref())
}

/// Feeds `count` seeded mutations of `base` through `load` and, when the
/// mutant still loads, through a handful of routing attempts. Returns the
/// outcome tally; the contract is "no panic, no unbounded loop", which
/// this function proves by returning at all.
#[must_use]
pub fn fuzz_snapshot(base: &BitVec, count: usize, seed0: u64) -> FuzzOutcome {
    let mut out = FuzzOutcome::default();
    for i in 0..count {
        let (mutant, _kind) = mutate(base, seed0.wrapping_add(i as u64));
        out.mutations += 1;
        match load(&mutant) {
            Err(_) => out.load_rejected += 1,
            Ok(scheme) => {
                out.loaded_ok += 1;
                probe_loaded(scheme.as_ref(), seed0 ^ i as u64, &mut out);
            }
        }
    }
    out
}

/// Routes a few pairs through a loaded (possibly corrupted) scheme; every
/// attempt must terminate within the default hop limit.
fn probe_loaded(scheme: &dyn ort_routing::scheme::RoutingScheme, seed: u64, out: &mut FuzzOutcome) {
    let n = scheme.node_count();
    if n < 2 {
        return;
    }
    let limit = default_hop_limit(n);
    let mut rng = Lcg::new(seed);
    for _ in 0..4 {
        let s = rng.below(n);
        let t = rng.below(n);
        if s == t {
            continue;
        }
        match route_pair(scheme, s, t, limit) {
            Ok(_) => out.route_ok += 1,
            Err(_) => out.route_failures += 1,
        }
    }
}

/// Runs the full campaign: for every snapshot-capable kind, `per_kind`
/// mutations against a pristine snapshot of a `G(n, 1/2)` sample.
///
/// # Errors
///
/// Propagates a refusal to build the pristine base (choose `(n, seed)` on
/// which all schemes construct; the defaults in the `ort` driver do).
pub fn fuzz_all_kinds(
    n: usize,
    graph_seed: u64,
    per_kind: usize,
) -> Result<Vec<(SchemeKind, FuzzOutcome)>, ort_routing::scheme::SchemeError> {
    let mut results = Vec::new();
    for (idx, kind) in SchemeKind::ALL.into_iter().enumerate() {
        let base = base_snapshot(kind, n, graph_seed)?;
        let outcome = fuzz_snapshot(&base, per_kind, 0xC0FF_EE00 ^ idx as u64);
        results.push((kind, outcome));
    }
    Ok(results)
}

/// Sanity helper for tests: the unmutated base must load and route.
///
/// # Errors
///
/// Propagates load errors (none, for a valid snapshot).
pub fn roundtrip_base(base: &BitVec, g: &Graph) -> Result<(), ort_routing::scheme::SchemeError> {
    let scheme = load(base)?;
    let n = g.node_count();
    let limit = default_hop_limit(n);
    for t in 1..n.min(4) {
        route_pair(scheme.as_ref(), 0, t, limit).map_err(|f| {
            ort_routing::scheme::SchemeError::Precondition {
                reason: format!("pristine snapshot failed to route: {f}"),
            }
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_bases_route() {
        let g = generators::gnp_half(20, 11);
        for kind in SchemeKind::ALL {
            let base = base_snapshot(kind, 20, 11).unwrap();
            roundtrip_base(&base, &g).unwrap();
        }
    }

    #[test]
    fn small_fuzz_campaign_is_clean() {
        // 200 mutations per kind here; CI runs ≥ 10k via `ort conformance`.
        for (kind, out) in fuzz_all_kinds(20, 11, 200).unwrap() {
            assert_eq!(out.mutations, 200, "{kind:?}");
            assert_eq!(
                out.load_rejected + out.loaded_ok,
                out.mutations,
                "{kind:?}: every mutation must be accounted for"
            );
            // The container is tight: most corruptions must be caught at
            // load time rather than silently producing a scheme.
            assert!(out.load_rejected > out.mutations / 2, "{kind:?}: {out:?}");
        }
    }

    #[test]
    fn truncations_always_rejected() {
        let base = base_snapshot(SchemeKind::FullTable, 16, 3).unwrap();
        for cut in [0usize, 1, 8, 31, 32, 33, base.len() / 2, base.len() - 1] {
            let trunc = base.slice(0..cut);
            assert!(load(&trunc).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn giant_length_field_rejected_without_allocation() {
        use ort_bitio::{codes, BitWriter};
        // magic + version + kind, then an absurd node count: the loader
        // must reject before reserving capacity for 2^40 nodes.
        let mut w = BitWriter::new();
        w.write_bits(0x4F52_5453, 32).unwrap();
        codes::write_elias_gamma(&mut w, 1).unwrap();
        w.write_bits(0, 5).unwrap();
        codes::write_u64_selfdelim(&mut w, 1 << 40).unwrap();
        let bits = w.finish();
        assert!(load(&bits).is_err());
    }
}
