//! The untraced run: every end-to-end metric, with correctness checks
//! kept outside the timed regions.

use std::time::{Duration, Instant};

use crate::api::{self, NodeId, Oracle, RepairableScheme, RoutingScheme, Scheme, SchemeId};
use crate::host::{status_mib, Phase};
use crate::report::{median, percentile, Report};
use crate::workloads::{Inputs, Setup, Workload, ROUNDS};

/// Messages whose `simnet::Network::send` path is compared with
/// `route_pair`'s.
const SIMNET_CHECKED: usize = 1000;

/// A routable scheme: a built one, or one that repairs itself under churn.
pub enum Live {
    Built(Scheme),
    Repairable(Box<RepairableScheme>),
}

impl Live {
    pub fn scheme(&self) -> &dyn RoutingScheme {
        match self {
            Live::Built(s) => s.as_ref(),
            Live::Repairable(r) => api::live_scheme(r),
        }
    }
}

/// Graph in hand → routable scheme. `owned` is the graph copy the
/// set-up consumes ([`Workload::setup_owns_graph`]), made by the caller
/// outside any timer.
pub fn set_up(
    w: &Workload,
    id: SchemeId,
    g: &api::Graph,
    owned: Option<api::Graph>,
) -> Result<Live, String> {
    match w.setup {
        Setup::Repairable => {
            let owned = owned.expect("this set-up consumes a graph copy");
            api::repairable_full_table(owned).map(|r| Live::Repairable(Box::new(r)))
        }
        Setup::Full | Setup::Banded(_) => {
            api::build(id, g, make_oracle(w, g, owned).dists()).map(Live::Built)
        }
    }
}

/// The distance source `w`'s set-up builds from; `RepairableScheme::
/// full_table` is a delta oracle plus a full-table build over it.
pub fn make_oracle(w: &Workload, g: &api::Graph, owned: Option<api::Graph>) -> Oracle {
    let owned = || owned.expect("this set-up consumes a graph copy");
    match w.setup {
        Setup::Full => Oracle::full(g),
        Setup::Banded(rows) => Oracle::banded(owned(), rows),
        Setup::Repairable => Oracle::delta(owned()),
    }
}

/// Routes `pairs` through `route_pair`, appending one latency (ns) and one
/// hop count (`u32::MAX` on failure) per message; returns the batch wall
/// time and the failures. One clock read per message: each latency runs
/// from the previous message's end to this one's.
pub fn route_batch(
    scheme: &dyn RoutingScheme,
    pairs: &[(NodeId, NodeId)],
    limit: usize,
    lat_ns: &mut Vec<u64>,
    hops: &mut Vec<u32>,
) -> (Duration, Vec<String>) {
    let mut failures = Vec::new();
    let start = Instant::now();
    let mut prev = start;
    for &(s, t) in pairs {
        match api::route(scheme, s, t, limit) {
            Ok(path) => hops.push((path.len() - 1) as u32),
            Err(e) => {
                hops.push(u32::MAX);
                failures.push(format!("{s}→{t}: {e}"));
            }
        }
        let now = Instant::now();
        lat_ns.push((now - prev).as_nanos() as u64);
        prev = now;
    }
    (prev - start, failures)
}

/// Checks each delivered message's hop count against the scheme's
/// stretch contract.
pub fn check_hops(
    id: SchemeId,
    n: usize,
    pairs: &[(NodeId, NodeId)],
    hops: &[u32],
    dist: impl Fn(NodeId, NodeId) -> Option<u32>,
) -> Result<(), String> {
    for (&(s, t), &h) in pairs.iter().zip(hops) {
        if h == u32::MAX {
            continue;
        }
        let d = dist(s, t).ok_or(format!("{s}→{t} unreachable"))?;
        if let Some(cap) = api::hop_cap(id, n, d) {
            if h > cap {
                return Err(format!("{s}→{t}: {h} hops, cap {cap} at distance {d}"));
            }
        }
    }
    Ok(())
}

fn batch_result(failures: &[String], of: usize) -> Result<(), String> {
    match failures.first() {
        None => Ok(()),
        Some(first) => Err(format!("{} of {of} failed; first {first}", failures.len())),
    }
}

/// Compares `simnet::Network::send`'s path with `route_pair`'s.
fn check_simnet(
    scheme: &dyn RoutingScheme,
    pairs: &[(NodeId, NodeId)],
    limit: usize,
) -> Result<(), String> {
    let mut sim = api::Sim::new(scheme);
    for &(s, t) in pairs.iter().take(SIMNET_CHECKED) {
        let (sent, routed) = (sim.send(s, t), api::route(scheme, s, t, limit));
        if sent != routed {
            return Err(format!("{s}→{t}: simnet {sent:?}, route_pair {routed:?}"));
        }
    }
    Ok(())
}

/// Every sample a run takes, in cycle order.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    /// Per route round: msgs/s, p50 µs, p99 µs.
    route: Vec<(f64, f64, f64)>,
    verify_pairs_per_s: Vec<f64>,
    load_s: Vec<f64>,
    /// Per churn round: the median event's repair µs.
    repair_p50_us: Vec<f64>,
    /// Every churn event's repair ns.
    repair_ns: Vec<u64>,
}

/// Runs workload `w` at `seed` as cycles of one route (or churn) round,
/// set-up reps, one verify pass and one load round. A static workload
/// repeats cycles until at least [`ROUNDS`] cycles and `seconds` have
/// passed; a churn workload runs exactly [`ROUNDS`], since every cycle
/// moves its graph. Interleaving spreads every metric's samples over the
/// whole run, so a slow spell on a shared host hits a few samples of each
/// rather than all of one; each metric is the median of its samples.
pub fn run(w: &'static Workload, seed: u64, seconds: f64) -> Report {
    let started = Instant::now();
    let mut report = Report::new(w.name, seed, false);
    let Inputs { g, pairs } = w.inputs(seed);
    let id = api::scheme_named(w.scheme).expect("workload names a registered scheme");
    let n = api::node_count(&g);

    // The first timed set-up is the scheme every cycle routes, verifies
    // and saves.
    let mut samples = Samples::default();
    let Some(mut live) = timed_set_up(&mut report, &mut samples, w, id, &g) else {
        return finish(report);
    };
    let bits = api::table_bits(live.scheme());
    report.set("table_bits_per_node", Some(bits as f64 / n as f64), "bits");
    report.checks.record(
        "simnet.path",
        check_simnet(live.scheme(), &pairs, api::hop_limit(n)),
    );
    // True distances for the hop-cap check of a static scheme, built
    // outside every timer and only for schemes that promise a stretch. Its
    // routes repeat every round, so the first round is checked and the
    // distances are dropped before any set-up rep or verify pass runs.
    let mut check =
        (w.churn.is_none() && api::hop_cap(id, n, 1).is_some()).then(|| Oracle::full(&g));

    let mut snapshot = None;
    let mut cycle = 0;
    while cycle < ROUNDS || (w.churn.is_none() && started.elapsed().as_secs_f64() < seconds) {
        match &mut live {
            Live::Built(scheme) => route_round(
                &mut report,
                &mut samples,
                id,
                &pairs,
                scheme.as_ref(),
                check.take(),
            ),
            Live::Repairable(r) => {
                churn_round(&mut report, &mut samples, w, id, seed, cycle, r, &pairs)
            }
        }
        // The set-up reps after the first, spread evenly over the cycles.
        let more = w.setup_reps - 1;
        let reps = (more * (cycle + 1) / ROUNDS).saturating_sub(more * cycle / ROUNDS);
        for _ in 0..reps {
            drop(timed_set_up(&mut report, &mut samples, w, id, &g));
        }
        let current = match &live {
            Live::Built(_) => &g,
            Live::Repairable(r) => api::live_graph(r),
        };
        verify_round(
            &mut report,
            &mut samples,
            id,
            current,
            live.scheme(),
            w.verify_stride,
        );
        if w.loads_per_cycle > 0 {
            // A churned scheme changes every cycle; a static one is saved once.
            if snapshot.is_none() || w.churn.is_some() {
                snapshot = save_checked(&mut report, id, live.scheme());
            }
            if let Some(bits) = &snapshot {
                load_round(
                    &mut report,
                    &mut samples,
                    bits,
                    n,
                    pairs[0],
                    w.loads_per_cycle,
                );
            }
        }
        cycle += 1;
        let last = |v: &[f64]| v.last().map_or("-".to_string(), |x| format!("{x:.6}"));
        println!(
            "# cycle {cycle}: route {} msg/s, verify {} pairs/s, set-up {} s",
            samples
                .route
                .last()
                .map_or("-".to_string(), |r| format!("{:.1}", r.0)),
            last(&samples.verify_pairs_per_s),
            last(&samples.setup_s),
        );
    }

    let some = |v: &[f64]| (!v.is_empty()).then(|| median(v));
    let col = |i: usize| {
        some(
            &samples
                .route
                .iter()
                .map(|r| [r.0, r.1, r.2][i])
                .collect::<Vec<_>>(),
        )
    };
    report.set("setup_s", some(&samples.setup_s), "s");
    report.set("route_msgs_per_s", col(0), "msg/s");
    report.set("route_p50_us", col(1), "us");
    report.set("route_p99_us", col(2), "us");
    report.set(
        "verify_pairs_per_s",
        some(&samples.verify_pairs_per_s),
        "pairs/s",
    );
    report.set("load_s", some(&samples.load_s), "s");
    if let Live::Repairable(r) = &live {
        report.set("repair_p50_us", some(&samples.repair_p50_us), "us");
        samples.repair_ns.sort_unstable();
        let p99 = (!samples.repair_ns.is_empty())
            .then(|| percentile(&samples.repair_ns, 99.0) as f64 / 1e3);
        report.set("repair_p99_us", p99, "us");
        report
            .checks
            .record("churn.cold_rebuild", check_cold_rebuild(id, r));
    }
    finish(report)
}

fn finish(mut report: Report) -> Report {
    report.set("peak_rss_mib", Some(status_mib("VmHWM")), "MiB");
    report.set_failed_frac();
    report.order_end_to_end();
    report
}

/// Latency percentiles of one round, in microseconds.
fn p50_p99_us(lat_ns: &mut [u64]) -> (f64, f64) {
    lat_ns.sort_unstable();
    (
        percentile(lat_ns, 50.0) as f64 / 1e3,
        percentile(lat_ns, 99.0) as f64 / 1e3,
    )
}

fn route_round(
    report: &mut Report,
    samples: &mut Samples,
    id: SchemeId,
    pairs: &[(NodeId, NodeId)],
    scheme: &dyn RoutingScheme,
    check: Option<Oracle>,
) {
    let n = api::scheme_nodes(scheme);
    let (mut lat, mut hops) = (
        Vec::with_capacity(pairs.len()),
        Vec::with_capacity(pairs.len()),
    );
    let phase = Phase::start();
    let (wall, failures) = route_batch(scheme, pairs, api::hop_limit(n), &mut lat, &mut hops);
    report.phase("route", phase.end());
    report.tally(pairs.len(), failures.len());
    report
        .checks
        .record("route.delivered", batch_result(&failures, pairs.len()));
    if let Some(o) = check {
        report.checks.record(
            "route.hop_cap",
            check_hops(id, n, pairs, &hops, |s, t| o.distance(s, t)),
        );
    }
    let (p50, p99) = p50_p99_us(&mut lat);
    samples
        .route
        .push((pairs.len() as f64 / wall.as_secs_f64(), p50, p99));
}

/// One round of link flaps, each followed by its batch of routed
/// messages, checked against the live distances.
#[allow(clippy::too_many_arguments)]
fn churn_round(
    report: &mut Report,
    samples: &mut Samples,
    w: &Workload,
    id: SchemeId,
    seed: u64,
    round: usize,
    live: &mut RepairableScheme,
    pairs: &[(NodeId, NodeId)],
) {
    let per_event = w.churn.expect("churn workload").msgs_per_event;
    let n = api::node_count(api::live_graph(live));
    let limit = api::hop_limit(n);
    let flaps = w.flaps(api::live_graph(live), seed, round);
    if flaps.is_empty() {
        return report
            .checks
            .record("repair.event", Err("the churn plan is empty".into()));
    }
    let (mut lat, mut hops) = (Vec::new(), Vec::new());
    let mut repairs = Vec::with_capacity(flaps.len());
    let mut route_wall = Duration::ZERO;
    let phase = Phase::start();
    for (k, &flap) in flaps.iter().enumerate() {
        let t0 = Instant::now();
        let repaired = api::repair(live, flap);
        repairs.push(t0.elapsed().as_nanos() as u64);
        report.tally(1, usize::from(repaired.is_err()));
        report.checks.record("repair.event", repaired);
        let batch = &pairs[k * per_event..(k + 1) * per_event];
        hops.clear();
        let (wall, failures) =
            route_batch(api::live_scheme(live), batch, limit, &mut lat, &mut hops);
        route_wall += wall;
        report.tally(batch.len(), failures.len());
        report
            .checks
            .record("route.delivered", batch_result(&failures, batch.len()));
        let capped = check_hops(id, n, batch, &hops, |s, t| api::live_distance(live, s, t));
        report.checks.record("route.hop_cap", capped);
    }
    report.phase("churn", phase.end());
    let (p50, p99) = p50_p99_us(&mut lat);
    samples
        .route
        .push((lat.len() as f64 / route_wall.as_secs_f64(), p50, p99));
    samples.repair_ns.extend_from_slice(&repairs);
    repairs.sort_unstable();
    samples
        .repair_p50_us
        .push(percentile(&repairs, 50.0) as f64 / 1e3);
}

/// Graph in hand → routable scheme, as one `setup_s` sample. The graph
/// copy the set-up consumes is made before the timer starts, and the
/// caller drops the scheme after it stops.
fn timed_set_up(
    report: &mut Report,
    samples: &mut Samples,
    w: &Workload,
    id: SchemeId,
    g: &api::Graph,
) -> Option<Live> {
    let owned = w.setup_owns_graph().then(|| g.clone());
    let phase = Phase::start();
    let t0 = Instant::now();
    let built = set_up(w, id, g, owned);
    samples.setup_s.push(t0.elapsed().as_secs_f64());
    report.phase("setup", phase.end());
    report.tally(1, usize::from(built.is_err()));
    report
        .checks
        .record("build", built.as_ref().map(drop).map_err(Clone::clone));
    built.ok()
}

/// One `verify_scheme_sampled` pass (with its own APSP), fully checked.
fn verify_round(
    report: &mut Report,
    samples: &mut Samples,
    id: SchemeId,
    g: &api::Graph,
    scheme: &dyn RoutingScheme,
    stride: usize,
) {
    let n = api::node_count(g);
    let phase = Phase::start();
    let t0 = Instant::now();
    let verified = api::verify_sampled(g, scheme, stride);
    let wall = t0.elapsed().as_secs_f64();
    report.phase("verify", phase.end());
    let v = match verified {
        Ok(v) => v,
        Err(e) => return report.checks.record("verify.delivered", Err(e)),
    };
    report.tally(v.pairs, v.failures.len());
    report
        .checks
        .record("verify.delivered", batch_result(&v.failures, v.pairs));
    let over_cap = v
        .stretches
        .iter()
        .find(|&&(h, d)| api::hop_cap(id, n, d).is_some_and(|cap| h > cap))
        .map(|&(h, d)| format!("{h} hops at distance {d}"));
    report
        .checks
        .record("verify.hop_cap", over_cap.map_or(Ok(()), Err));
    samples.verify_pairs_per_s.push(v.pairs as f64 / wall);
    // The first pass's stretch: a churned scheme verifies a moved graph.
    if samples.verify_pairs_per_s.len() == 1 {
        report.set("stretch_mean", v.avg_stretch, "ratio");
    }
}

/// Saves `scheme` and checks that loading the snapshot round-trips its
/// `node_bits`.
fn save_checked(
    report: &mut Report,
    id: SchemeId,
    scheme: &dyn RoutingScheme,
) -> Option<api::BitVec> {
    let roundtrip = api::save(id, scheme).and_then(|bits| {
        let loaded = api::load(&bits)?;
        api::same_node_bits(loaded.as_ref(), scheme)
            .then_some(bits)
            .ok_or("loaded node_bits differ".into())
    });
    report.checks.record(
        "snapshot.roundtrip",
        roundtrip.as_ref().map(drop).map_err(Clone::clone),
    );
    roundtrip.ok()
}

/// Restart: `snapshot::load` of `bits` until the loaded scheme routes a
/// message, `loads` times; the sample is the mean per load.
fn load_round(
    report: &mut Report,
    samples: &mut Samples,
    bits: &api::BitVec,
    n: usize,
    (s, t): (NodeId, NodeId),
    loads: usize,
) {
    let limit = api::hop_limit(n);
    let phase = Phase::start();
    let t0 = Instant::now();
    for _ in 0..loads {
        let restarted = api::load(bits).and_then(|loaded| api::route(loaded.as_ref(), s, t, limit));
        if let Err(e) = restarted {
            return report.checks.record("snapshot.restart", Err(e));
        }
    }
    samples
        .load_s
        .push(t0.elapsed().as_secs_f64() / loads as f64);
    report.phase("load", phase.end());
    report.checks.record("snapshot.restart", Ok(()));
}

/// The churned scheme must be byte-identical to a cold build of the final
/// graph.
pub fn check_cold_rebuild(id: SchemeId, live: &RepairableScheme) -> Result<(), String> {
    let g = api::live_graph(live);
    let cold = api::build(id, g, Oracle::full(g).dists())?;
    if api::save(id, api::live_scheme(live))? == api::save(id, cold.as_ref())? {
        Ok(())
    } else {
        Err("churned scheme differs from a cold rebuild of the final graph".into())
    }
}
