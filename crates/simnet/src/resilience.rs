//! Resilience sweeps: graceful degradation per scheme under seeded faults.
//!
//! The paper's space/stretch trade-off (Table 1) has an operational third
//! axis: *resilience*. The full-information scheme pays `Θ(n³)` bits and
//! gets native failover ("allow alternative, shortest, paths to be taken
//! whenever an outgoing link is down", Section 1); every compact scheme
//! stores one port per destination and dies with that port's link. This
//! module measures the axis: for each scheme it runs the same seeded
//! link-fault load ([`FaultPlan::random_link_faults`]) through **both**
//! simulators and reports
//!
//! * **delivery ratio** and a per-reason [`FailureBreakdown`],
//! * **partition detection** — failed pairs split into *unreachable*
//!   (destination genuinely cut off; no scheme could deliver) and
//!   *avoidable* (a route existed, the scheme missed it),
//! * **stretch on delivered messages** (detours inflate it),
//! * **reroute / retry counts** and **time-to-drain** under congestion
//!   (the round simulator with TTL and source-side retry active).
//!
//! Schemes are built by the caller — the `ort resilience` subcommand feeds
//! the conformance registry through [`run_cell`], both bare and wrapped in
//! `ort_routing::schemes::resilient::ResilientScheme` — and the resulting
//! [`SweepCell`]s are checked by [`acceptance_violations`]: full
//! information must dominate every single-path scheme, wrapping must never
//! hurt (and must strictly help where failures were avoidable), and a
//! wrapped walk must never exhaust the hop budget.
//!
//! Everything is deterministic and single-threaded: same config, same
//! bytes, regardless of `ORT_THREADS`.

use ort_graphs::paths::Apsp;
use ort_routing::scheme::RoutingScheme;

use crate::faults::{FaultPlan, FaultState, InvalidFault};
use crate::rounds::{RetryPolicy, RoundReport, RoundSimulator};
use crate::workloads::all_pairs;
use crate::{FailureBreakdown, Network, Stats};

/// Per-node transmit capacity of every cell's round simulator, shared
/// across schemes so cells are comparable.
pub const CELL_CAPACITY: usize = 4;

/// Per-message TTL in rounds of every cell's round simulator. Generous:
/// at sweep sizes (n ≤ 36) honest queueing latency stays far below it,
/// so expiry indicates a pathology (e.g. a detour walk that cannot make
/// progress), not load.
pub const CELL_TTL: u32 = 512;

/// Source-side retry policy of every cell's round simulator, for
/// fault-lost messages.
pub const CELL_RETRY: RetryPolicy = RetryPolicy { max_retries: 3, backoff_base: 1, backoff_cap: 8 };

/// The metrics of one `(scheme, topology, intensity)` cell, covering both
/// simulator faces.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Ordered pairs attempted (one message each) on the hop-level face.
    pub pairs: u64,
    /// Pairs delivered on the hop-level face.
    pub delivered: u64,
    /// Hop-level failures by reason.
    pub failures: FailureBreakdown,
    /// Hop-level failover reroutes (non-first advertised port taken).
    pub reroutes: u64,
    /// Failed pairs whose destination was genuinely unreachable under the
    /// fault load — the "partition detected" count; no scheme could have
    /// delivered these.
    pub unreachable_failed: u64,
    /// Failed pairs whose destination *was* reachable: the scheme's own
    /// degradation.
    pub avoidable_failed: u64,
    /// The first avoidable-failed pair in `(src, dst)` scan order — the
    /// exemplar the diagnostics layer re-routes under a trace recorder.
    /// Never serialized into sweep reports (it is derivable, and keeping
    /// it out preserves byte-stable result files).
    pub first_avoidable: Option<(ort_graphs::NodeId, ort_graphs::NodeId)>,
    /// Mean hops/distance over delivered pairs (`None` if nothing was
    /// delivered). Detours push this above the scheme's fault-free
    /// stretch.
    pub mean_stretch: Option<f64>,
    /// Rounds until the congested round-simulator run drained.
    pub rounds_to_drain: u32,
    /// Round-face deliveries.
    pub round_delivered: u64,
    /// Round-face drops by reason (includes TTL expiry).
    pub round_failures: FailureBreakdown,
    /// Round-face messages still queued at the round cap (0 on a clean
    /// drain).
    pub round_stranded: u64,
    /// Source-side re-injections performed by the retry machinery.
    pub retries: u64,
    /// Round-face failover reroutes.
    pub round_reroutes: u64,
    /// Mean round-face delivery latency.
    pub mean_latency: Option<f64>,
    /// Deepest queue observed.
    pub max_queue: u64,
}

impl CellMetrics {
    /// Delivered fraction on the hop-level face, in `[0, 1]`.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.pairs == 0 {
            1.0
        } else {
            self.delivered as f64 / self.pairs as f64
        }
    }

    /// Delivered fraction of the pairs that were *reachable* under the
    /// fault load — degradation attributable to the scheme, not the
    /// topology.
    #[must_use]
    pub fn reachable_delivery_ratio(&self) -> f64 {
        let reachable = self.pairs - self.unreachable_failed;
        if reachable == 0 {
            1.0
        } else {
            self.delivered as f64 / reachable as f64
        }
    }
}

/// One labelled sweep result, as assembled by the `ort resilience` driver.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Topology name (e.g. `"gnp32"`).
    pub topology: String,
    /// Node count of the topology.
    pub n: usize,
    /// Fraction of edges cut by the fault load.
    pub intensity: f64,
    /// Scheme name from the registry.
    pub scheme: String,
    /// Whether the scheme natively advertises alternative ports
    /// (full information) — such schemes are the resilience ceiling.
    pub multipath: bool,
    /// Whether the scheme was wrapped in the resilient detour adapter.
    pub wrapped: bool,
    /// The measured metrics.
    pub metrics: CellMetrics,
}

/// The hop budget used for resilience cells: detour walks legitimately
/// exceed the verifier's fault-free budget (a wrapped walk may spend its
/// whole `4n` detour budget before the inner route, bounded by `2n` for
/// the tree schemes, completes), so cells run with `8n + 16`. A wrapped
/// scheme must still finish within it — [`acceptance_violations`] checks
/// that no wrapped cell ever records a hop-limit failure.
#[must_use]
pub fn resilience_hop_limit(n: usize) -> usize {
    8 * n + 16
}

/// Runs one scheme against one static fault load on both simulator faces
/// (the round face at [`CELL_CAPACITY`], [`CELL_TTL`] and [`CELL_RETRY`]),
/// returning the cell's metrics with the raw per-face reports — the
/// hop-level [`Stats`] and the round-face [`RoundReport`] — so callers can
/// render their `Display` tables (`ort resilience --verbose`).
///
/// `apsp` must be the fault-free all-pairs distances of the scheme's
/// topology (for stretch accounting). The plan is treated as a static
/// load for reachability classification (events at time 0 — exactly what
/// [`FaultPlan::random_link_faults`] produces); the simulators themselves
/// honour the full schedule.
///
/// # Errors
///
/// Returns [`InvalidFault`] if the plan names links or nodes the scheme's
/// topology does not have.
pub fn run_cell(
    scheme: &dyn RoutingScheme,
    apsp: &Apsp,
    plan: &FaultPlan,
) -> Result<(CellMetrics, Stats, RoundReport), InvalidFault> {
    let n = scheme.node_count();
    let _span = ort_telemetry::span_with(
        "resilience.cell",
        &[
            ("n", ort_telemetry::FieldValue::Int(n as u64)),
            ("events", ort_telemetry::FieldValue::Int(plan.events().len() as u64)),
        ],
    );
    ort_telemetry::counter!("resilience.cells").incr();

    // Reachability under the static fault load, for failure attribution.
    let mut fs = FaultState::new(scheme.port_assignment());
    fs.advance_to(plan, 0)?;
    let reach: Vec<Vec<bool>> = (0..n).map(|s| fs.reachable_from(s)).collect();

    // Hop-level face: one message per ordered pair.
    let mut net = Network::new(scheme);
    net.set_hop_limit(resilience_hop_limit(n));
    net.set_fault_plan(plan.clone())?;
    let mut unreachable_failed = 0u64;
    let mut avoidable_failed = 0u64;
    let mut first_avoidable = None;
    let mut stretch_sum = 0.0f64;
    let mut stretch_count = 0u64;
    for (s, row) in reach.iter().enumerate() {
        for (t, &still_connected) in row.iter().enumerate() {
            if s == t {
                continue;
            }
            match net.send(s, t) {
                Ok(d) => {
                    if let Some(dist) = apsp.distance(s, t).filter(|&dist| dist > 0) {
                        stretch_sum += d.hops() as f64 / f64::from(dist);
                        stretch_count += 1;
                    }
                }
                Err(_) => {
                    if still_connected {
                        avoidable_failed += 1;
                        if first_avoidable.is_none() {
                            first_avoidable = Some((s, t));
                        }
                    } else {
                        unreachable_failed += 1;
                    }
                }
            }
        }
    }
    let stats = net.stats();

    // Round face: same workload, congestion + recovery machinery active.
    let mut sim = RoundSimulator::new(scheme, CELL_CAPACITY);
    sim.set_fault_plan(plan.clone())?;
    sim.set_ttl(Some(CELL_TTL));
    sim.set_retry_policy(CELL_RETRY);
    let report = sim.run(&all_pairs(n));

    let metrics = CellMetrics {
        pairs: stats.delivered + stats.failed,
        delivered: stats.delivered,
        failures: stats.failures,
        reroutes: stats.reroutes,
        unreachable_failed,
        avoidable_failed,
        first_avoidable,
        mean_stretch: if stretch_count == 0 {
            None
        } else {
            Some(stretch_sum / stretch_count as f64)
        },
        rounds_to_drain: report.rounds,
        round_delivered: report.delivered as u64,
        round_failures: report.errored_by,
        round_stranded: report.stranded as u64,
        retries: report.retries,
        round_reroutes: report.reroutes,
        mean_latency: report.mean_latency(),
        max_queue: report.max_queue as u64,
    };
    Ok((metrics, stats, report))
}

/// Checks the sweep's contractual properties; returns one message per
/// violation (empty ⇒ the report is acceptable).
///
/// 1. **No fault, no loss** — at intensity 0 every pair is delivered.
/// 2. **Full information dominates** — at every `(topology, intensity)`
///    the unwrapped multipath scheme delivers at least as many pairs as
///    every unwrapped single-path scheme.
/// 3. **Wrapping never hurts** — a wrapped scheme delivers at least as
///    many pairs as its unwrapped self, and *strictly* more whenever the
///    unwrapped single-path scheme left avoidable failures on the table.
/// 4. **Bounded detours** — no wrapped cell records a hop-limit failure,
///    on either simulator face (the detour budget, not the hop budget,
///    must be what terminates a lost walk).
#[must_use]
pub fn acceptance_violations(cells: &[SweepCell]) -> Vec<String> {
    let mut violations = Vec::new();
    for c in cells {
        if c.intensity == 0.0 && c.metrics.delivered != c.metrics.pairs {
            violations.push(format!(
                "{}/{} (intensity 0): only {}/{} pairs delivered without faults",
                c.topology, c.scheme, c.metrics.delivered, c.metrics.pairs
            ));
        }
        if c.wrapped
            && (c.metrics.failures.hop_limit > 0 || c.metrics.round_failures.hop_limit > 0)
        {
            violations.push(format!(
                "{}/{} wrapped at intensity {}: {} hop-limit failures — the detour \
                 budget failed to bound the walk",
                c.topology,
                c.scheme,
                c.intensity,
                c.metrics.failures.hop_limit + c.metrics.round_failures.hop_limit
            ));
        }
    }
    for ceiling in cells.iter().filter(|c| c.multipath && !c.wrapped) {
        for other in cells.iter().filter(|c| {
            c.topology == ceiling.topology
                && c.intensity == ceiling.intensity
                && !c.multipath
                && !c.wrapped
        }) {
            if other.metrics.delivered > ceiling.metrics.delivered {
                violations.push(format!(
                    "{} at intensity {}: single-path {} delivered {} > full-information {}",
                    ceiling.topology,
                    ceiling.intensity,
                    other.scheme,
                    other.metrics.delivered,
                    ceiling.metrics.delivered
                ));
            }
        }
    }
    for wrapped in cells.iter().filter(|c| c.wrapped) {
        let Some(bare) = cells.iter().find(|c| {
            !c.wrapped
                && c.topology == wrapped.topology
                && c.intensity == wrapped.intensity
                && c.scheme == wrapped.scheme
        }) else {
            continue;
        };
        if wrapped.metrics.delivered < bare.metrics.delivered {
            violations.push(format!(
                "{}/{} at intensity {}: wrapping hurt delivery ({} < {})",
                wrapped.topology,
                wrapped.scheme,
                wrapped.intensity,
                wrapped.metrics.delivered,
                bare.metrics.delivered
            ));
        }
        if !bare.multipath
            && bare.metrics.avoidable_failed > 0
            && wrapped.metrics.delivered <= bare.metrics.delivered
        {
            violations.push(format!(
                "{}/{} at intensity {}: {} avoidable failures but wrapping recovered none",
                wrapped.topology, wrapped.scheme, wrapped.intensity, bare.metrics.avoidable_failed
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use ort_graphs::generators;
    use ort_routing::schemes::full_information::FullInformationScheme;
    use ort_routing::schemes::full_table::FullTableScheme;
    use ort_routing::schemes::resilient::ResilientScheme;

    fn cell(
        topology: &str,
        intensity: f64,
        scheme: &str,
        multipath: bool,
        wrapped: bool,
        metrics: CellMetrics,
    ) -> SweepCell {
        SweepCell {
            topology: topology.into(),
            n: 0,
            intensity,
            scheme: scheme.into(),
            multipath,
            wrapped,
            metrics,
        }
    }

    fn metrics(pairs: u64, delivered: u64, avoidable: u64) -> CellMetrics {
        CellMetrics {
            pairs,
            delivered,
            failures: FailureBreakdown::default(),
            reroutes: 0,
            unreachable_failed: pairs - delivered - avoidable,
            avoidable_failed: avoidable,
            first_avoidable: if avoidable > 0 { Some((0, 1)) } else { None },
            mean_stretch: None,
            rounds_to_drain: 0,
            round_delivered: delivered,
            round_failures: FailureBreakdown::default(),
            round_stranded: 0,
            retries: 0,
            round_reroutes: 0,
            mean_latency: None,
            max_queue: 0,
        }
    }

    #[test]
    fn fault_free_cell_delivers_everything() {
        let g = generators::gnp_half(16, 1);
        let apsp = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let plan = FaultPlan::new();
        let m = run_cell(&scheme, &apsp, &plan).unwrap().0;
        assert_eq!(m.pairs, 16 * 15);
        assert_eq!(m.delivered, m.pairs);
        assert_eq!(m.delivery_ratio(), 1.0);
        assert_eq!(m.mean_stretch, Some(1.0));
        assert_eq!(m.round_delivered, m.pairs);
        assert_eq!(m.round_stranded, 0);
        assert_eq!(m.unreachable_failed + m.avoidable_failed, 0);
    }

    #[test]
    fn faults_degrade_single_path_but_not_unattributably() {
        let g = generators::gnp_half(16, 1);
        let apsp = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let plan = FaultPlan::random_link_faults(scheme.port_assignment(), 0.2, 5);
        let m = run_cell(&scheme, &apsp, &plan).unwrap().0;
        assert!(m.delivered < m.pairs, "20% of a dense graph's links must cost something");
        assert_eq!(
            m.failures.total(),
            m.unreachable_failed + m.avoidable_failed,
            "every failure is attributed"
        );
    }

    #[test]
    fn wrapping_recovers_avoidable_failures() {
        let g = generators::gnp_half(16, 1);
        let apsp = Apsp::compute(&g);
        let dists = Apsp::compute(&g);
        let bare = FullTableScheme::build(&g, &dists).unwrap();
        let plan = FaultPlan::random_link_faults(bare.port_assignment(), 0.2, 5);
        let m_bare = run_cell(&bare, &apsp, &plan).unwrap().0;
        assert!(m_bare.avoidable_failed > 0, "the load must leave something to recover");
        let wrapped = ResilientScheme::wrap(Box::new(FullTableScheme::build(&g, &dists).unwrap()));
        let m_wrapped = run_cell(&wrapped, &apsp, &plan).unwrap().0;
        assert!(
            m_wrapped.delivered > m_bare.delivered,
            "wrapped {} vs bare {}",
            m_wrapped.delivered,
            m_bare.delivered
        );
        assert_eq!(m_wrapped.failures.hop_limit, 0, "detour budget bounds the walk");
        assert!(m_wrapped.reroutes > 0, "recovery happened via failover detours");
    }

    #[test]
    fn full_information_is_the_ceiling() {
        let g = generators::gnp_half(16, 1);
        let apsp = Apsp::compute(&g);
        let dists = Apsp::compute(&g);
        let single = FullTableScheme::build(&g, &dists).unwrap();
        let multi = FullInformationScheme::build(&g, &dists).unwrap();
        let plan = FaultPlan::random_link_faults(single.port_assignment(), 0.2, 5);
        let m_single = run_cell(&single, &apsp, &plan).unwrap().0;
        let m_multi = run_cell(&multi, &apsp, &plan).unwrap().0;
        assert!(m_multi.delivered >= m_single.delivered);
    }

    #[test]
    fn run_cell_is_deterministic() {
        let g = generators::gnp_half(16, 2);
        let apsp = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let plan = FaultPlan::random_link_faults(scheme.port_assignment(), 0.15, 9);
        let a = run_cell(&scheme, &apsp, &plan).unwrap().0;
        let b = run_cell(&scheme, &apsp, &plan).unwrap().0;
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_plan_is_reported() {
        let g = generators::path(4);
        let apsp = Apsp::compute(&g);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let plan = FaultPlan::from_events(vec![crate::faults::TimedFault {
            at: 0,
            event: crate::faults::FaultEvent::LinkDown(0, 3),
        }]);
        assert!(run_cell(&scheme, &apsp, &plan).is_err());
    }

    #[test]
    fn acceptance_flags_each_contract() {
        // 1. Loss without faults.
        let v = acceptance_violations(&[cell("t", 0.0, "a", false, false, metrics(10, 9, 1))]);
        assert_eq!(v.len(), 1, "{v:?}");
        // 2. Single path beating full information.
        let v = acceptance_violations(&[
            cell("t", 0.1, "full-information", true, false, metrics(10, 5, 0)),
            cell("t", 0.1, "a", false, false, metrics(10, 7, 0)),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        // 3a. Wrapping that hurts and (3b) fails to recover avoidable loss.
        let v = acceptance_violations(&[
            cell("t", 0.1, "a", false, false, metrics(10, 6, 2)),
            cell("t", 0.1, "a", false, true, metrics(10, 5, 3)),
        ]);
        assert_eq!(v.len(), 2, "{v:?}");
        // 4. Hop-limit failure in a wrapped cell.
        let mut m = metrics(10, 9, 0);
        m.failures.hop_limit = 1;
        let v = acceptance_violations(&[cell("t", 0.1, "a", false, true, m)]);
        assert_eq!(v.len(), 1, "{v:?}");
        // And a clean sweep passes.
        let v = acceptance_violations(&[
            cell("t", 0.0, "a", false, false, metrics(10, 10, 0)),
            cell("t", 0.1, "full-information", true, false, metrics(10, 9, 0)),
            cell("t", 0.1, "a", false, false, metrics(10, 6, 2)),
            cell("t", 0.1, "a", false, true, metrics(10, 8, 0)),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }
}
