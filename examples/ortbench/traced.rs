//! The traced run (`--trace`): per-layer metrics, measured entirely from
//! outside the library. The oracle is wrapped in a call-counting adapter,
//! replays of each message's path split route time by router call, and
//! churn is replayed on a standalone delta oracle. Every phase prints its
//! layer rows next to a wall clock, with the remainder as an explicit
//! `unattributed` row. Spans go to `trace-<workload>.json`. End-to-end
//! numbers never come from this run.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::api::{self, Json, NodeId, Oracle, RoutingScheme, SchemeId, Stage, TimedDistances};
use crate::host::{empty_timer_ns, Phase};
use crate::measure::{check_cold_rebuild, check_hops, make_oracle, route_batch, set_up, Live};
use crate::report::{median, percentile, Report};
use crate::workloads::{Inputs, Workload, ROUNDS};

/// Messages (and churn events) recorded as full spans; the rest only
/// feed the per-name aggregates.
const FULL_SPAN_ITEMS: usize = 1000;
/// Upper bound on recorded spans, which keeps long walks' files small.
const SPAN_CAP: usize = 100_000;

/// Spans kept in memory and written once at the end.
struct Spans {
    anchor: Instant,
    names: Vec<&'static str>,
    /// `[id, parent, name index, start ns, end ns]`; ids start at 1 and 0
    /// is "no parent".
    spans: Vec<[u64; 5]>,
    aggregates: BTreeMap<&'static str, (u64, u64)>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            anchor: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.anchor).as_nanos() as u64
    }

    /// Aggregates the span and, when `full` and under the cap, records
    /// it; returns its id (0 when not recorded).
    fn add(
        &mut self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        full: bool,
    ) -> u64 {
        let agg = self.aggregates.entry(name).or_default();
        agg.0 += 1;
        agg.1 += (end - start).as_nanos() as u64;
        if !full || self.spans.len() >= SPAN_CAP {
            return 0;
        }
        let name_idx = match self.names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        let id = self.spans.len() as u64 + 1;
        self.spans
            .push([id, parent, name_idx as u64, self.ns(start), self.ns(end)]);
        id
    }

    /// Ends span `id`, added with `start` as its end, at `end`.
    fn close(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        self.aggregates.entry(name).or_default().1 += (end - start).as_nanos() as u64;
        if id != 0 {
            self.spans[id as usize - 1][4] = self.ns(end);
        }
    }

    fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let int = |v: u64| Json::Int(v as i64);
        let doc = Json::obj(vec![
            ("workload", Json::Str(workload.into())),
            ("seed", int(seed)),
            (
                "columns",
                Json::Arr(
                    ["id", "parent", "name", "start_ns", "end_ns"]
                        .map(|c| Json::Str(c.into()))
                        .to_vec(),
                ),
            ),
            (
                "names",
                Json::Arr(self.names.iter().map(|n| Json::Str((*n).into())).collect()),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| Json::Arr(s.iter().map(|&v| int(v)).collect()))
                        .collect(),
                ),
            ),
            (
                "aggregates",
                Json::obj(
                    self.aggregates
                        .iter()
                        .map(|(n, &(count, ns))| {
                            (
                                *n,
                                Json::obj(vec![("count", int(count)), ("total_ns", int(ns))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, api::json_line(&doc) + "\n")
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints a phase's layer rows next to its wall clock, with the
/// remainder as the `unattributed` row; returns that remainder.
fn reconcile(title: &str, rows: &[(&str, f64)], wall_label: &str, wall_ms: f64) -> f64 {
    let unattributed = wall_ms - rows.iter().map(|r| r.1).sum::<f64>();
    println!("# {title}");
    for (label, v) in rows.iter().chain([&("unattributed", unattributed)]) {
        println!("#   {label:<44} {v:>12.3} ms {:>7.1}%", 100.0 * v / wall_ms);
    }
    println!("#   {:<44} {wall_ms:>12.3} ms", format!("= {wall_label}"));
    unattributed
}

pub fn run(w: &'static Workload, seed: u64, out: &Path) -> Report {
    let mut report = Report::new(w.name, seed, true);
    let Inputs { g, pairs } = w.inputs(seed);
    let id = api::scheme_named(w.scheme).expect("workload names a registered scheme");
    let timer = empty_timer_ns();
    report.set("timer.empty_ns", Some(timer), "ns");
    println!("# one empty timer (Instant::now, back to back) costs {timer:.1} ns");
    let mut spans = Spans::new();

    let phase = Phase::start();
    let setup = setup_phase(&mut report, &mut spans, w, id, &g);
    let stats = phase.end();
    report.set("phase.setup.rss_mib", Some(stats.hwm_mib), "MiB");
    report.set("host.cpu_share.setup", Some(stats.cpu_share()), "ratio");
    report.phase("setup", stats);
    let Some(mut live) = setup else {
        return report;
    };

    let phase = Phase::start();
    route_phase(&mut report, &mut spans, id, &g, &pairs, live.scheme());
    let stats = phase.end();
    report.set("phase.route.rss_mib", Some(stats.hwm_mib), "MiB");
    report.set("host.cpu_share.route", Some(stats.cpu_share()), "ratio");
    report.phase("route", stats);

    let phase = Phase::start();
    verify_phase(&mut report, &mut spans, &g, live.scheme(), w.verify_stride);
    let stats = phase.end();
    report.set("phase.verify.rss_mib", Some(stats.hwm_mib), "MiB");
    report.set("host.cpu_share.verify", Some(stats.cpu_share()), "ratio");
    report.phase("verify", stats);

    if api::has_snapshot(id) {
        snapshot_rows(&mut report, &mut spans, id, live.scheme());
    }
    if let Live::Repairable(r) = &mut live {
        repair_phase(&mut report, &mut spans, w, id, seed, &g, r);
    }
    let path = out.join(format!("trace-{}.json", w.name));
    match std::fs::create_dir_all(out).and_then(|()| spans.write(&path, w.name, seed)) {
        Ok(()) => println!(
            "# spans: {} recorded, written to {}",
            spans.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("ortbench: cannot write {}: {e}", path.display()),
    }
    report
}

/// The set-up three times: the reference scheme the rest of the run uses
/// (its wall is the phase's), an untraced oracle-then-build pass timed in
/// two parts, and a traced pass whose build goes through
/// [`TimedDistances`] and must produce the reference's bits. The rows
/// split the untraced build into oracle queries (traced, less one
/// in-place clock read per call) and the builder's own work (the rest).
fn setup_phase(
    report: &mut Report,
    spans: &mut Spans,
    w: &Workload,
    id: SchemeId,
    g: &api::Graph,
) -> Option<Live> {
    let owned = w.setup_owns_graph().then(|| g.clone());
    let t0 = Instant::now();
    let reference = set_up(w, id, g, owned);
    let wall = ms(t0.elapsed());
    report.tally(1, usize::from(reference.is_err()));
    report.checks.record(
        "build",
        reference.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    let reference = reference.ok()?;

    let owned = w.setup_owns_graph().then(|| g.clone());
    let t0 = Instant::now();
    let oracle = make_oracle(w, g, owned);
    let t1 = Instant::now();
    let untraced = api::build(id, g, oracle.dists());
    let t2 = Instant::now();
    report.tally(1, usize::from(untraced.is_err()));
    drop((untraced, oracle));
    let (untraced_new, untraced_build) = (ms(t1 - t0), ms(t2 - t1));

    let owned = w.setup_owns_graph().then(|| g.clone());
    let t0 = Instant::now();
    let oracle = make_oracle(w, g, owned);
    let t1 = Instant::now();
    let timed = TimedDistances::new(oracle.dists());
    let built = api::build(id, g, &timed);
    let t2 = Instant::now();
    report.tally(1, usize::from(built.is_err()));
    let root = spans.add("setup", 0, t0, t2, true);
    spans.add("graphs::oracle.new", root, t0, t1, true);
    spans.add("routing::schemes.build", root, t1, t2, true);
    let built = match built {
        Ok(b) => b,
        Err(e) => {
            report.checks.record("build", Err(e));
            return None;
        }
    };
    let same = api::same_node_bits(built.as_ref(), reference.scheme());
    report.checks.record(
        "trace.build_bits",
        same.then_some(())
            .ok_or("traced build's node_bits differ".into()),
    );

    let totals = timed.totals();
    let calls: u64 = totals.iter().map(|t| t.1).sum();
    let raw_ns: u64 = totals.iter().map(|t| t.2).sum();
    let oracle_ms = (raw_ns as f64 - timed.clock_ns() as f64) / 1e6;
    for (method, c, ns) in &totals {
        println!(
            "#   oracle.{method}: {c} calls, {:.3} ms raw",
            *ns as f64 / 1e6
        );
    }
    let rows = [
        ("graphs::oracle  new", untraced_new),
        ("graphs::oracle  queries (traced, clock removed)", oracle_ms),
        ("routing::schemes  builder self", untraced_build - oracle_ms),
    ];
    let unattributed = reconcile(
        "setup: layers against the untraced set-up",
        &rows,
        "untraced set-up wall",
        wall,
    );
    println!(
        "#   (the traced build took {:.3} ms, the untraced one {untraced_build:.3} ms)",
        ms(t2 - t1),
    );
    report.set("oracle.new_ms", Some(untraced_new), "ms");
    report.set("oracle.calls", Some(calls as f64), "count");
    report.set("oracle.ms", Some(oracle_ms), "ms");
    report.set(
        "oracle.ns_per_call",
        Some(oracle_ms * 1e6 / calls.max(1) as f64),
        "ns",
    );
    report.set(
        "oracle.bands_computed",
        Some(oracle.bands_computed() as f64),
        "count",
    );
    report.set(
        "oracle.peak_bytes",
        Some(oracle.peak_bytes() as f64),
        "bytes",
    );
    report.set("build.self_ms", Some(untraced_build - oracle_ms), "ms");
    report.set(
        "build.table_bits",
        Some(api::table_bits(built.as_ref()) as f64),
        "bits",
    );
    report.set("setup.unattributed_ms", Some(unattributed), "ms");
    Some(reference)
}

/// The traced route passes run over the first `1 / TRACED_SHARE` of the
/// route sample.
const TRACED_SHARE: usize = 4;

/// The passes each traced message takes: `route_pair` itself, then
/// replays of its path that stop after ever more of its library calls.
const PASSES: [(&str, Option<Stage>); 5] = [
    ("route_pair", None),
    ("replay.decode", Some(Stage::Decode)),
    ("replay.env", Some(Stage::Env)),
    ("replay.route", Some(Stage::Route)),
    ("replay.walk", Some(Stage::Port)),
];

/// Pairs of rounds that measure the tracing overhead.
const OVERHEAD_PAIRS: usize = 4;

/// Times the traced messages in [`OVERHEAD_PAIRS`] pairs of rounds, one
/// untraced and one instrumented (the tracing overhead), then each message
/// through every pass in [`PASSES`]. Both alternate which goes first, so
/// none always meets cold caches. A timer around each ~100 ns router call
/// would stall the pipeline and overstate it, so each layer is the
/// difference between consecutive replays instead; the rows then sum to
/// the full replay, and `route_pair`'s time beyond it is the walk loop's
/// own (`unattributed`).
fn route_phase(
    report: &mut Report,
    spans: &mut Spans,
    id: SchemeId,
    g: &api::Graph,
    pairs: &[(NodeId, NodeId)],
    scheme: &dyn RoutingScheme,
) {
    let n = api::node_count(g);
    let limit = api::hop_limit(n);
    let traced = &pairs[..pairs.len().div_ceil(TRACED_SHARE)];

    // The instrumented round routes the same messages with a span each, as
    // traced runs instrument them. The overhead is the median over pairs.
    let mut first = None;
    let mut overheads = Vec::with_capacity(OVERHEAD_PAIRS);
    let (mut untraced, mut instrumented) = (Duration::ZERO, Duration::ZERO);
    for k in 0..OVERHEAD_PAIRS {
        let (mut plain, mut spanned) = (Duration::ZERO, Duration::ZERO);
        for instrument in [k % 2 == 1, k % 2 == 0] {
            if !instrument {
                let (mut lat, mut hops) = (Vec::new(), Vec::new());
                let (wall, failures) = route_batch(scheme, traced, limit, &mut lat, &mut hops);
                plain = wall;
                first.get_or_insert((hops, failures));
                continue;
            }
            let start = Instant::now();
            let root = spans.add("route.instrumented", 0, start, start, true);
            for (i, &(s, t)) in traced.iter().enumerate() {
                let a = Instant::now();
                let _ = api::route(scheme, s, t, limit);
                let full = k == 0 && i < FULL_SPAN_ITEMS;
                spans.add("route_pair", root, a, Instant::now(), full);
            }
            spanned = start.elapsed();
            spans.close("route.instrumented", root, start, Instant::now());
        }
        overheads.push(100.0 * (spanned.as_secs_f64() / plain.as_secs_f64() - 1.0));
        untraced += plain;
        instrumented += spanned;
    }
    let (hops, failures) = first.expect("at least one untraced round");
    report.tally(traced.len(), failures.len());
    report.checks.record(
        "route.delivered",
        failures.first().map_or(Ok(()), |f| Err(f.clone())),
    );
    if api::hop_cap(id, n, 1).is_some() {
        let check = Oracle::full(g);
        report.checks.record(
            "route.hop_cap",
            check_hops(id, n, traced, &hops, |s, t| check.distance(s, t)),
        );
    }

    // The replays follow the paths route_pair took, found untimed first.
    let paths: Vec<_> = traced
        .iter()
        .map(|&(s, t)| api::route(scheme, s, t, limit))
        .collect();
    let start = Instant::now();
    let root = spans.add("route.layers", 0, start, start, true);
    let mut totals = [Duration::ZERO; PASSES.len()];
    let mut mismatch = None;
    for (i, (&(s, t), path)) in traced.iter().zip(&paths).enumerate() {
        let Ok(path) = path else { continue };
        let full = i < FULL_SPAN_ITEMS;
        let msg_start = Instant::now();
        let msg = spans.add("message", root, msg_start, msg_start, full);
        for j in 0..PASSES.len() {
            let k = (i + j) % PASSES.len();
            let (name, stage) = PASSES[k];
            let a = Instant::now();
            let outcome = match stage {
                None => api::route(scheme, s, t, limit).map(Some),
                Some(stage) => api::replay(scheme, path, stage).map(|()| None),
            };
            let b = Instant::now();
            let outcome = outcome.and_then(|walked| match walked {
                Some(p) if &p != path => Err(format!("took {p:?}, then {path:?}")),
                _ => Ok(()),
            });
            totals[k] += b - a;
            spans.add(name, msg, a, b, full);
            if let Err(e) = outcome {
                mismatch.get_or_insert(format!("{s}→{t} {name}: {e}"));
            }
        }
        spans.close("message", msg, msg_start, Instant::now());
    }
    spans.close("route.layers", root, start, Instant::now());
    report
        .checks
        .record("trace.replay_path", mismatch.map_or(Ok(()), Err));

    let lens: Vec<usize> = paths
        .iter()
        .filter_map(|p| p.as_ref().ok())
        .map(Vec::len)
        .collect();
    let (d, f) = (
        lens.iter().sum::<usize>() as f64,
        (lens.iter().sum::<usize>() - lens.len()) as f64,
    );
    let m = traced.len() as f64;
    let [walk, decode, env, route, full] = totals.map(|d| d.as_nanos() as f64);
    let rows = [
        ("routing::scheme  decode_router (+ drop)", decode),
        ("routing::scheme  node_env (+ drop)", env - decode),
        ("routing::scheme  LocalRouter::route", route - env),
        ("graphs::ports  neighbor_at (+ path check)", full - route),
    ];
    let ms_rows = rows.map(|(label, ns)| (label, ns / 1e6));
    let unattributed = reconcile(
        &format!(
            "route: replay layers against route_pair over {} messages",
            traced.len()
        ),
        &ms_rows,
        "route_pair wall",
        walk / 1e6,
    ) * 1e6;
    let rounds = (OVERHEAD_PAIRS * traced.len()) as f64;
    println!(
        "#   untraced {:.1} msg/s; instrumented {:.1} msg/s ({OVERHEAD_PAIRS} pairs of rounds)",
        rounds / untraced.as_secs_f64(),
        rounds / instrumented.as_secs_f64()
    );
    report.set("router.decode_ns", Some(rows[0].1 / d), "ns");
    report.set("router.env_ns", Some(rows[1].1 / d), "ns");
    report.set("router.route_ns", Some(rows[2].1 / d), "ns");
    report.set("router.calls", Some(d), "count");
    report.set("walk.hops_per_msg", Some(f / m), "hops");
    report.set(
        "walk.overhead_ns_per_hop",
        Some(unattributed / f.max(1.0)),
        "ns",
    );
    report.set(
        "walk.unattributed_pct",
        Some(100.0 * unattributed / walk),
        "%",
    );
    report.set("trace.overhead_pct", Some(median(&overheads)), "%");

    // simnet: the same messages through `Network::send`.
    let mut sim = api::Sim::new(scheme);
    let mut sends = Vec::new();
    let (mut mismatches, mut first) = (0u64, None);
    for &(s, t) in pairs.iter().take(FULL_SPAN_ITEMS) {
        let t0 = Instant::now();
        let sent = sim.send(s, t);
        let t1 = Instant::now();
        sends.push((t1 - t0).as_nanos() as u64);
        spans.add("simnet.send", 0, t0, t1, true);
        let routed = api::route(scheme, s, t, limit);
        if sent != routed {
            mismatches += 1;
            first.get_or_insert(format!("{s}→{t}: simnet {sent:?}, route_pair {routed:?}"));
        }
    }
    sends.sort_unstable();
    report.set(
        "simnet.send_p50_us",
        Some(percentile(&sends, 50.0) as f64 / 1e3),
        "us",
    );
    report.set("simnet.path_mismatches", Some(mismatches as f64), "count");
    report
        .checks
        .record("simnet.path", first.map_or(Ok(()), Err));
}

/// `verify_scheme_sampled` against its parts measured separately: a
/// standalone APSP and a `route_pair` walk over the same pairs.
fn verify_phase(
    report: &mut Report,
    spans: &mut Spans,
    g: &api::Graph,
    scheme: &dyn RoutingScheme,
    stride: usize,
) {
    let n = api::node_count(g);
    let limit = api::hop_limit(n);
    let t0 = Instant::now();
    let verified = api::verify_sampled(g, scheme, stride);
    let t1 = Instant::now();
    let apsp = Oracle::full(g);
    let t2 = Instant::now();
    drop(apsp);
    let t3 = Instant::now();
    let mut pairs = 0usize;
    let mut failures = 0usize;
    for s in 0..n {
        let first = (stride - s % stride) % stride;
        for t in (first..n).step_by(stride).filter(|&t| t != s) {
            pairs += 1;
            failures += usize::from(api::route(scheme, s, t, limit).is_err());
        }
    }
    let t4 = Instant::now();
    let root = spans.add("verify", 0, t0, t4, true);
    spans.add("verify_scheme_sampled", root, t0, t1, true);
    spans.add("graphs::paths.apsp", root, t1, t2, true);
    spans.add("route_pair.walks", root, t3, t4, true);
    match verified {
        Ok(v) => {
            report.tally(v.pairs, v.failures.len());
            let agree = v.pairs == pairs && v.failures.len() == failures;
            report.checks.record(
                "verify.delivered",
                if v.failures.is_empty() && agree {
                    Ok(())
                } else {
                    Err(format!(
                        "{} failures; the route_pair walk saw {pairs} pairs, {failures} failures",
                        v.failures.len()
                    ))
                },
            );
        }
        Err(e) => report.checks.record("verify.delivered", Err(e)),
    }
    let rows = [
        ("graphs::paths  APSP (standalone)", ms(t2 - t1)),
        ("routing::verify  route_pair walks", ms(t4 - t3)),
    ];
    let unattributed = reconcile(
        &format!("verify: parts against verify_scheme_sampled over {pairs} pairs"),
        &rows,
        "verify_scheme_sampled wall",
        ms(t1 - t0),
    );
    report.set("verify.apsp_ms", Some(ms(t2 - t1)), "ms");
    report.set("verify.unattributed_ms", Some(unattributed), "ms");
    report.set("verify.pairs", Some(pairs as f64), "count");
}

fn snapshot_rows(report: &mut Report, spans: &mut Spans, id: SchemeId, scheme: &dyn RoutingScheme) {
    let t0 = Instant::now();
    let saved = api::save(id, scheme);
    let t1 = Instant::now();
    spans.add("snapshot.save", 0, t0, t1, true);
    match saved {
        Ok(bits) => {
            let loaded = api::load(&bits);
            spans.add("snapshot.load", 0, t1, Instant::now(), true);
            let same = loaded.is_ok_and(|l| api::same_node_bits(l.as_ref(), scheme));
            report.checks.record(
                "snapshot.roundtrip",
                same.then_some(()).ok_or("loaded node_bits differ".into()),
            );
            report.set("snapshot.save_ms", Some(ms(t1 - t0)), "ms");
            report.set("snapshot.bits", Some(api::bit_len(&bits) as f64), "bits");
        }
        Err(e) => report.checks.record("snapshot.roundtrip", Err(e)),
    }
}

/// Replays the churn on a standalone `DeltaOracle` beside the live
/// scheme, splitting each event into distance repair and the rest.
fn repair_phase(
    report: &mut Report,
    spans: &mut Spans,
    w: &Workload,
    id: SchemeId,
    seed: u64,
    g: &api::Graph,
    live: &mut api::RepairableScheme,
) {
    let mut delta = Oracle::delta(g.clone());
    let (mut walls, mut deltas, mut rests, mut dirty) =
        (Vec::new(), Vec::new(), Vec::new(), 0usize);
    let mut failed = None;
    let start = Instant::now();
    let root = spans.add("repair", 0, start, start, true);
    for round in 0..ROUNDS {
        for flap in w.flaps(api::live_graph(live), seed, round) {
            let t0 = Instant::now();
            let repaired = api::repair(live, flap);
            let t1 = Instant::now();
            let replayed = delta.apply_flap(flap);
            let t2 = Instant::now();
            report.tally(1, usize::from(repaired.is_err()));
            if let Err(e) = repaired.and(replayed.map(|d| dirty += d)) {
                failed.get_or_insert(e);
            }
            let full = walls.len() < FULL_SPAN_ITEMS;
            spans.add("routing::repair.event", root, t0, t1, full);
            spans.add("graphs::delta.replay", root, t1, t2, full);
            let (wall, d) = ((t1 - t0).as_nanos() as u64, (t2 - t1).as_nanos() as u64);
            walls.push(wall);
            deltas.push(d);
            rests.push(wall.saturating_sub(d));
        }
    }
    spans.close("repair", root, start, Instant::now());
    report
        .checks
        .record("repair.event", failed.map_or(Ok(()), Err));
    report
        .checks
        .record("churn.cold_rebuild", check_cold_rebuild(id, live));
    let total = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e6;
    let rows = [(
        "graphs::delta  DeltaOracle repair (standalone replay)",
        total(&deltas),
    )];
    reconcile(
        &format!(
            "repair: layers against RepairableScheme over {} link flaps",
            walls.len()
        ),
        &rows,
        "RepairableScheme wall",
        total(&walls),
    );
    println!("#   (unattributed here is routing::repair's own work: bridge probe, table patch, bit reconciliation)");
    let p50 = |v: &mut Vec<u64>| {
        v.sort_unstable();
        percentile(v, 50.0) as f64 / 1e3
    };
    let (patches, rebuilds, entries) = api::repair_totals(live);
    report.set("delta.event_p50_us", Some(p50(&mut deltas)), "us");
    report.set(
        "delta.dirty_nodes_mean",
        Some(dirty as f64 / walls.len().max(1) as f64),
        "count",
    );
    report.set("repair.event_p50_us", Some(p50(&mut walls)), "us");
    report.set("repair.patch_p50_us", Some(p50(&mut rests)), "us");
    report.set("repair.patches", Some(patches as f64), "count");
    report.set("repair.rebuilds", Some(rebuilds as f64), "count");
    report.set("repair.entries_patched", Some(entries as f64), "count");
}
