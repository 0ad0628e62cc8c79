//! Metric definitions, the run record (stdout lines, the JSON file and
//! the driver's last line), and `--compare`.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::api::{self, Json};
use crate::host::{PhaseStats, NOISY_CPU_SHARE};

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy)]
pub enum Bound {
    /// The share of the baseline median a metric may worsen by.
    Rel(f64),
    /// Deterministic for a seed: must match exactly.
    Exact,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, in print order, with the bounds `--compare`
/// applies. Timing bounds match `BENCHMARK.json`'s: on the shared
/// reference host, runs drift by up to 15% of the median between minutes.
/// Deterministic metrics must match exactly, since compared runs share
/// their seeds.
pub const END_TO_END: [MetricDef; 12] = [
    def("setup_s", "s", Better::Lower, Bound::Rel(0.25)),
    def(
        "route_msgs_per_s",
        "msg/s",
        Better::Higher,
        Bound::Rel(0.25),
    ),
    def("route_p50_us", "us", Better::Lower, Bound::Rel(0.25)),
    def("route_p99_us", "us", Better::Lower, Bound::Rel(0.25)),
    def(
        "verify_pairs_per_s",
        "pairs/s",
        Better::Higher,
        Bound::Rel(0.25),
    ),
    def("load_s", "s", Better::Lower, Bound::Rel(0.25)),
    def("repair_p50_us", "us", Better::Lower, Bound::Rel(0.25)),
    def("repair_p99_us", "us", Better::Lower, Bound::Rel(0.25)),
    def("table_bits_per_node", "bits", Better::Lower, Bound::Exact),
    def("stretch_mean", "ratio", Better::Lower, Bound::Exact),
    def("peak_rss_mib", "MiB", Better::Lower, Bound::Rel(0.2)),
    def("failed_frac", "ratio", Better::Lower, Bound::Exact),
];

/// The end-to-end metrics `BENCHMARK.json` names: those every workload
/// reports, none reads 0, and whose spread over seeds stays well inside
/// the gate's largest bound. Keep in step with that file.
pub const BENCHMARK_END_TO_END: [&str; 7] = [
    "setup_s",
    "route_msgs_per_s",
    "route_p50_us",
    "verify_pairs_per_s",
    "table_bits_per_node",
    "stretch_mean",
    "peak_rss_mib",
];

/// The per-layer metrics `BENCHMARK.json` names: those the traced run
/// measures on every workload. Keep in step with that file.
pub const BENCHMARK_PER_LAYER: [&str; 28] = [
    "oracle.new_ms",
    "oracle.calls",
    "oracle.ms",
    "oracle.ns_per_call",
    "oracle.bands_computed",
    "oracle.peak_bytes",
    "build.self_ms",
    "build.table_bits",
    "setup.unattributed_ms",
    "router.decode_ns",
    "router.env_ns",
    "router.route_ns",
    "router.calls",
    "walk.hops_per_msg",
    "walk.overhead_ns_per_hop",
    "walk.unattributed_pct",
    "verify.apsp_ms",
    "verify.unattributed_ms",
    "simnet.send_p50_us",
    "simnet.path_mismatches",
    "phase.setup.rss_mib",
    "phase.route.rss_mib",
    "phase.verify.rss_mib",
    "host.cpu_share.setup",
    "host.cpu_share.route",
    "host.cpu_share.verify",
    "trace.overhead_pct",
    "timer.empty_ns",
];

// ---- statistics -------------------------------------------------------------

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method, matching
/// Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

// ---- one run ------------------------------------------------------------------

/// Correctness checks, by name: how often each failed and the first
/// failure's detail.
#[derive(Default)]
pub struct Checks(Vec<(&'static str, u64, u64, Option<String>)>);

impl Checks {
    pub fn record(&mut self, name: &'static str, result: Result<(), String>) {
        let i = match self.0.iter().position(|c| c.0 == name) {
            Some(i) => i,
            None => {
                self.0.push((name, 0, 0, None));
                self.0.len() - 1
            }
        };
        let entry = &mut self.0[i];
        entry.1 += 1;
        if let Err(detail) = result {
            entry.2 += 1;
            entry.3.get_or_insert(detail);
        }
    }

    pub fn passed(&self) -> bool {
        self.0.iter().all(|c| c.2 == 0)
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// `(name, value, unit)`; `None` is `n/a`.
    pub metrics: Vec<(&'static str, Option<f64>, &'static str)>,
    pub phases: Vec<(&'static str, PhaseStats)>,
    pub checks: Checks,
    /// Builds, routed messages, verified pairs and repair events.
    pub attempted: u64,
    pub failed: u64,
    /// When the run began, before its inputs were generated.
    started: Instant,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Report {
            workload,
            seed,
            traced,
            metrics: Vec::new(),
            phases: Vec::new(),
            checks: Checks::default(),
            attempted: 0,
            failed: 0,
            started: Instant::now(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds a phase's stats to those of earlier phases with its name.
    pub fn phase(&mut self, name: &'static str, stats: PhaseStats) {
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => total.merge(stats),
            None => self.phases.push((name, stats)),
        }
    }

    pub fn tally(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Single-threaded phases that got less than [`NOISY_CPU_SHARE`] of a
    /// CPU.
    pub fn noisy_phases(&self) -> Vec<&'static str> {
        self.phases
            .iter()
            .filter(|(_, p)| p.cpu_share() < NOISY_CPU_SHARE)
            .map(|(n, _)| *n)
            .collect()
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).and_then(|m| m.1)
    }

    /// Prints the metric lines and checks, appends the JSON record to
    /// `<out>/runs.jsonl`, prints the driver line last, and returns
    /// whether every check passed.
    pub fn finish(&self, out: &Path) -> bool {
        for (name, value, unit) in &self.metrics {
            match value {
                Some(v) => println!("{name} {} {v} {unit}", self.workload),
                None => println!("{name} {} n/a {unit}", self.workload),
            }
        }
        for (name, stats) in &self.phases {
            println!(
                "# phase {name}: {:.3} s wall, cpu share {:.3}, VmHWM {:.1} MiB",
                stats.wall.as_secs_f64(),
                stats.cpu_share(),
                stats.hwm_mib
            );
        }
        let run_wall_s = self.started.elapsed().as_secs_f64();
        println!("# run: {run_wall_s:.3} s wall, inputs and checks included");
        let noisy = self.noisy_phases();
        if !noisy.is_empty() {
            println!("# noisy: phases {noisy:?} got < {NOISY_CPU_SHARE} of a CPU");
        }
        for (name, runs, failures, detail) in &self.checks.0 {
            if *failures == 0 {
                println!("# check {name}: ok ({runs})");
            } else {
                let detail = detail.as_deref().unwrap_or("");
                eprintln!("check failed: {name}: {failures} of {runs}; first: {detail}");
            }
        }
        let correct = self.checks.passed();
        if let Err(e) = self.append_record(out, correct, run_wall_s) {
            eprintln!("ortbench: cannot write {}: {e}", out.display());
        }
        let wanted: &[&str] = if self.traced {
            &BENCHMARK_PER_LAYER
        } else {
            &BENCHMARK_END_TO_END
        };
        let metrics = wanted
            .iter()
            .filter_map(|&name| {
                let (_, value, unit) = self.metrics.iter().find(|m| m.0 == name)?;
                let value = Json::Num((*value)?);
                Some((
                    name,
                    Json::obj(vec![("value", value), ("unit", Json::Str((*unit).into()))]),
                ))
            })
            .collect();
        let line = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{}", api::json_line(&line));
        correct
    }

    fn append_record(&self, out: &Path, correct: bool, run_wall_s: f64) -> std::io::Result<()> {
        let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let record = Json::obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Int(self.seed as i64)),
            ("trace", Json::Bool(self.traced)),
            ("correct", Json::Bool(correct)),
            ("noisy", Json::Bool(!self.noisy_phases().is_empty())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("run_wall_s", Json::Num(run_wall_s)),
            ("provenance", provenance(self.seed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(n, v, _)| (*n, num(*v))).collect()),
            ),
            (
                "units",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|(n, _, u)| (*n, Json::Str((*u).into())))
                        .collect(),
                ),
            ),
            (
                "phases",
                Json::obj(
                    self.phases
                        .iter()
                        .map(|(n, p)| {
                            (
                                *n,
                                Json::obj(vec![
                                    ("wall_s", Json::Num(p.wall.as_secs_f64())),
                                    ("cpu_share", Json::Num(p.cpu_share())),
                                    ("hwm_mib", Json::Num(p.hwm_mib)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "checks",
                Json::obj(
                    self.checks
                        .0
                        .iter()
                        .map(|(n, runs, fails, _)| {
                            (
                                *n,
                                Json::obj(vec![
                                    ("runs", Json::Int(*runs as i64)),
                                    ("failed", Json::Int(*fails as i64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::create_dir_all(out)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out.join("runs.jsonl"))?;
        writeln!(f, "{}", api::json_line(&record))?;
        f.sync_all()
    }

    /// `failed_frac`, from the tallies.
    pub fn set_failed_frac(&mut self) {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_frac", Some(frac), "ratio");
    }

    /// Reorders the end-to-end metrics into [`END_TO_END`] order, adding
    /// `n/a` for any the workload does not measure.
    pub fn order_end_to_end(&mut self) {
        let metrics = END_TO_END
            .iter()
            .map(|d| (d.name, self.value(d.name), d.unit))
            .collect();
        self.metrics = metrics;
    }
}

pub fn provenance(seed: u64) -> Json {
    Json::obj(vec![
        ("nproc", Json::Int(crate::host::nproc() as i64)),
        (
            "ort_threads",
            Json::Str(std::env::var("ORT_THREADS").unwrap_or_default()),
        ),
        ("build", Json::Str(api::build_info())),
        ("seed", Json::Int(seed as i64)),
    ])
}

// ---- --compare --------------------------------------------------------------

fn field<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Num(x) => Some(*x),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// `x` to six significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        5 - x.abs().log10().floor() as i32
    };
    format!("{x:.0$}", digits.max(0) as usize)
}

/// Untraced records of `<dir>/runs.jsonl` as `(workload, metric, value)`.
fn load_runs(dir: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let path = dir.join("runs.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record =
            api::json_parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if matches!(field(&record, "trace"), Some(Json::Bool(true))) {
            continue;
        }
        let Some(Json::Str(workload)) = field(&record, "workload") else {
            return Err(format!("{}:{}: no workload", path.display(), i + 1));
        };
        if let Some(Json::Obj(metrics)) = field(&record, "metrics") {
            for (name, value) in metrics {
                if let Some(v) = number(value) {
                    out.push((workload.clone(), name.clone(), v));
                }
            }
        }
    }
    Ok(out)
}

/// Compares two result directories metric by metric and workload by
/// workload; returns whether every pair stayed within its bound.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let mut workloads: Vec<&str> = runs_a.iter().chain(&runs_b).map(|r| r.0.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let values = |runs: &[(String, String, f64)], w: &str, m: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.0 == w && r.1 == m)
            .map(|r| r.2)
            .collect()
    };
    println!(
        "{:<20} {:<21} {:>34} {:>34} {:>8} {:>6}  verdict",
        "metric", "workload", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut broken = Vec::new();
    let mut compared = 0;
    for d in &END_TO_END {
        for &w in &workloads {
            let (va, vb) = (values(&runs_a, w, d.name), values(&runs_b, w, d.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            compared += 1;
            let side = |v: &[f64]| {
                if v.is_empty() {
                    return "n/a".to_string();
                }
                let (q1, q3) = quartiles(v);
                format!("{} [{}, {}]", sig(median(v)), sig(q1), sig(q3))
            };
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let worse = if d.better == Better::Lower {
                change
            } else {
                -change
            };
            let (ok, bound) = match d.bound {
                _ if va.is_empty() || vb.is_empty() => (false, "-".to_string()),
                Bound::Exact => (ma == mb, "exact".to_string()),
                Bound::Rel(r) => (worse <= r, format!("{:.0}%", r * 100.0)),
            };
            if !ok {
                broken.push(format!("{} on {w}", d.name));
            }
            println!(
                "{:<20} {:<21} {:>34} {:>34} {:>+7.2}% {:>6}  {}",
                d.name,
                w,
                side(&va),
                side(&vb),
                change * 100.0,
                bound,
                if ok { "within" } else { "BROKEN" }
            );
        }
    }
    if broken.is_empty() {
        println!("all {compared} (metric, workload) pairs within bound");
    } else {
        println!(
            "{} of {compared} (metric, workload) pairs broke their bound: {}",
            broken.len(),
            broken.join(", ")
        );
    }
    Ok(broken.is_empty())
}
