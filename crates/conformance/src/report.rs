//! The conformance run: orchestrates the three pillars (differential
//! oracle, snapshot fuzzer, bound suite) and assembles the
//! `results/CONFORMANCE.json` report.

use ort_graphs::generators;
use ort_graphs::random_props::RandomnessReport;

use crate::bounds::{self, InstanceBounds};
use crate::differential::{aggregate, diff_graph, GraphDiff};
use crate::enumerate::{connected_graphs_upto, expected_count};
use crate::fuzz::{fuzz_all_kinds, FuzzOutcome};
use crate::registry::SchemeId;
use ort_telemetry::json::Json;
use ort_routing::snapshot::SchemeKind;

/// Configuration of a conformance run. `Default` is the CI profile.
#[derive(Debug, Clone)]
pub struct Config {
    /// Exhaustive differential testing over every connected graph on
    /// `2..=exhaustive_n` nodes (one representative per isomorphism
    /// class).
    pub exhaustive_n: usize,
    /// Seeded `G(n, 1/2)` sweep sizes for the differential oracle.
    pub sweep_sizes: Vec<usize>,
    /// Seeds per sweep size.
    pub sweep_seeds: Vec<u64>,
    /// Ordered pairs are sampled with this stride for `n ≥ 48` (all pairs
    /// below).
    pub large_n_stride: usize,
    /// Snapshot mutations per [`SchemeKind`].
    pub fuzz_per_kind: usize,
    /// `(n, seed)` for the pristine fuzz bases.
    pub fuzz_base: (usize, u64),
    /// Bound-suite sizes.
    pub bound_sizes: Vec<usize>,
    /// Bound-suite seeds per size.
    pub bound_seeds: Vec<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            exhaustive_n: 6,
            sweep_sizes: vec![16, 32, 64],
            sweep_seeds: vec![1, 2, 3],
            large_n_stride: 3,
            fuzz_per_kind: 1500, // × 7 kinds ⇒ 10 500 mutations ≥ the 10k floor
            fuzz_base: (24, 11),
            bound_sizes: vec![64, 128],
            bound_seeds: vec![11, 12, 13],
        }
    }
}

/// Everything a conformance run produced.
#[derive(Debug)]
pub struct RunResult {
    /// The configuration used.
    pub config: Config,
    /// Exhaustive per-size results: `(n, class count, diffs)`.
    pub exhaustive: Vec<(usize, usize, Vec<GraphDiff>)>,
    /// Sweep results: `(n, seed, diff)`.
    pub sweeps: Vec<(usize, u64, GraphDiff)>,
    /// Fuzz outcomes per snapshot kind.
    pub fuzz: Vec<(SchemeKind, FuzzOutcome)>,
    /// Bound-suite results.
    pub bounds: Vec<InstanceBounds>,
    /// Violation summaries (empty ⇔ pass).
    pub violations: Vec<String>,
}

impl RunResult {
    /// Whether the run found no violation anywhere.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Executes a full conformance run. `log` receives progress lines.
///
/// # Errors
///
/// Returns an error string if a fuzz base cannot be built (config names a
/// graph some snapshot-capable scheme refuses).
pub fn run(config: &Config, mut log: impl FnMut(&str)) -> Result<RunResult, String> {
    let _span = ort_telemetry::span("conformance.run");
    let mut violations = Vec::new();

    // Pillar 1a: exhaustive differential oracle on all small graphs.
    let oracle_span = ort_telemetry::span("conformance.oracle");
    let mut exhaustive = Vec::new();
    for (n, graphs) in connected_graphs_upto(config.exhaustive_n) {
        if let Some(want) = expected_count(n) {
            if graphs.len() != want {
                violations.push(format!(
                    "enumeration at n={n}: {} isomorphism classes, expected {want}",
                    graphs.len()
                ));
            }
        }
        let diffs: Vec<GraphDiff> = graphs.iter().map(|g| diff_graph(g, 1)).collect();
        let found: usize = diffs.iter().map(|d| d.disagreements().len()).sum();
        log(&format!(
            "exhaustive n={n}: {} connected graphs, {found} disagreements",
            graphs.len()
        ));
        for d in &diffs {
            for dis in d.disagreements() {
                violations.push(format!("exhaustive n={n}: {dis}"));
            }
        }
        exhaustive.push((n, graphs.len(), diffs));
    }

    // Pillar 1b: seeded G(n, 1/2) sweeps. A sample that satisfies the
    // paper's Lemma 1–3 statistics must be *accepted* by every scheme —
    // refusing such a graph is a regression. Small samples that happen to
    // miss the statistics (e.g. diameter > 2 at n = 16) may be refused;
    // the refusal is tallied but is not a violation.
    let mut sweeps = Vec::new();
    for &n in &config.sweep_sizes {
        for &seed in &config.sweep_seeds {
            let g = generators::gnp_half(n, seed);
            let lemmas_hold = RandomnessReport::evaluate(&g, 3.0).all_hold();
            let stride = if n >= 48 { config.large_n_stride } else { 1 };
            let diff = diff_graph(&g, stride);
            for dis in diff.disagreements() {
                violations.push(format!("sweep n={n} seed={seed}: {dis}"));
            }
            let mut refused = 0usize;
            for sd in &diff.schemes {
                if let Some(reason) = &sd.refusal {
                    refused += 1;
                    if lemmas_hold {
                        violations.push(format!(
                            "sweep n={n} seed={seed}: {} refused a graph satisfying Lemmas 1-3: {reason}",
                            sd.id.name()
                        ));
                    }
                }
            }
            log(&format!(
                "sweep n={n} seed={seed}: lemmas_hold={lemmas_hold}, {refused} refusals, {} disagreements",
                diff.disagreements().len()
            ));
            sweeps.push((n, seed, diff));
        }
    }
    drop(oracle_span);

    // Pillar 2: structure-aware snapshot fuzzing.
    let fuzz_span = ort_telemetry::span("conformance.fuzz");
    let (fn_, fseed) = config.fuzz_base;
    let fuzz = fuzz_all_kinds(fn_, fseed, config.fuzz_per_kind)
        .map_err(|e| format!("fuzz base G({fn_},1/2) seed {fseed} refused: {e}"))?;
    for (kind, out) in &fuzz {
        if out.load_rejected + out.loaded_ok != out.mutations {
            violations.push(format!("fuzz {kind:?}: unaccounted mutations"));
        }
        log(&format!(
            "fuzz {kind:?}: {} mutations, {} rejected at load, {} loaded ({} clean route failures, {} delivered)",
            out.mutations, out.load_rejected, out.loaded_ok, out.route_failures, out.route_ok
        ));
    }
    drop(fuzz_span);

    // Pillar 3: machine-checked paper bounds.
    let _bounds_span = ort_telemetry::span("conformance.bounds");
    let bound_results = bounds::sweep(&config.bound_sizes, &config.bound_seeds);
    for inst in &bound_results {
        if !inst.certified {
            violations.push(format!(
                "bounds n={} seed={}: G(n,1/2) sample failed randomness certification (deficiency {} > {})",
                inst.n, inst.seed, inst.deficiency, inst.deficiency_budget
            ));
            continue;
        }
        if inst.checks.is_empty() {
            violations.push(format!(
                "bounds n={} seed={}: no theorem scheme accepted a certified-random graph",
                inst.n, inst.seed
            ));
        }
        for c in &inst.checks {
            if !c.holds {
                violations.push(format!(
                    "bounds n={} seed={}: {} observed {} > allowed {}",
                    inst.n, inst.seed, c.id, c.observed, c.allowed
                ));
            }
        }
        log(&format!(
            "bounds n={} seed={}: deficiency {} ≤ {}, {} checks",
            inst.n, inst.seed, inst.deficiency, inst.deficiency_budget, inst.checks.len()
        ));
    }

    Ok(RunResult {
        config: config.clone(),
        exhaustive,
        sweeps,
        fuzz,
        bounds: bound_results,
        violations,
    })
}

/// Renders the run as the `results/CONFORMANCE.json` document.
#[must_use]
pub fn to_json(result: &RunResult) -> Json {
    let config = &result.config;
    let scheme_agg = |diffs: &[GraphDiff]| -> Json {
        Json::Obj(
            aggregate(diffs)
                .into_iter()
                .map(|(id, a)| {
                    (
                        id.name().to_string(),
                        Json::obj(vec![
                            ("accepted", Json::Int(a.accepted as i64)),
                            ("refused", Json::Int(a.refused as i64)),
                            ("pairs", Json::Int(a.pairs as i64)),
                            ("delivered", Json::Int(a.delivered as i64)),
                            ("max_stretch", a.max_stretch.map_or(Json::Null, Json::Num)),
                            ("disagreements", Json::Int(a.disagreements as i64)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let exhaustive = Json::Arr(
        result
            .exhaustive
            .iter()
            .map(|(n, classes, diffs)| {
                Json::obj(vec![
                    ("n", Json::Int(*n as i64)),
                    ("isomorphism_classes", Json::Int(*classes as i64)),
                    (
                        "expected_classes",
                        expected_count(*n).map_or(Json::Null, |c| Json::Int(c as i64)),
                    ),
                    ("schemes", scheme_agg(diffs)),
                ])
            })
            .collect(),
    );
    let sweeps = Json::Arr(
        result
            .sweeps
            .iter()
            .map(|(n, seed, diff)| {
                let diffs = std::slice::from_ref(diff);
                Json::obj(vec![
                    ("n", Json::Int(*n as i64)),
                    ("seed", Json::Int(*seed as i64)),
                    ("schemes", scheme_agg(diffs)),
                ])
            })
            .collect(),
    );
    let fuzz_total: usize = result.fuzz.iter().map(|(_, o)| o.mutations).sum();
    let fuzz = Json::obj(vec![
        ("base_n", Json::Int(config.fuzz_base.0 as i64)),
        ("base_seed", Json::Int(config.fuzz_base.1 as i64)),
        ("total_mutations", Json::Int(fuzz_total as i64)),
        ("panics", Json::Int(0)), // a panic aborts the run before reporting
        (
            "per_kind",
            Json::Obj(
                result
                    .fuzz
                    .iter()
                    .map(|(kind, o)| {
                        (
                            format!("{kind:?}"),
                            Json::obj(vec![
                                ("mutations", Json::Int(o.mutations as i64)),
                                ("load_rejected", Json::Int(o.load_rejected as i64)),
                                ("loaded_ok", Json::Int(o.loaded_ok as i64)),
                                ("route_clean_failures", Json::Int(o.route_failures as i64)),
                                ("route_delivered", Json::Int(o.route_ok as i64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let bounds = Json::Arr(
        result
            .bounds
            .iter()
            .map(|inst| {
                Json::obj(vec![
                    ("n", Json::Int(inst.n as i64)),
                    ("seed", Json::Int(inst.seed as i64)),
                    ("deficiency_bits", Json::Int(inst.deficiency)),
                    ("deficiency_budget", Json::Int(inst.deficiency_budget)),
                    ("certified_random", Json::Bool(inst.certified)),
                    (
                        "checks",
                        Json::Arr(
                            inst.checks
                                .iter()
                                .map(|c| {
                                    Json::obj(vec![
                                        ("id", Json::Str(c.id.to_string())),
                                        ("observed", Json::Num(c.observed)),
                                        ("allowed", Json::Num(c.allowed)),
                                        ("holds", Json::Bool(c.holds)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("suite", Json::Str("ort conformance".into())),
        (
            "config",
            Json::obj(vec![
                ("exhaustive_n", Json::Int(config.exhaustive_n as i64)),
                (
                    "sweep_sizes",
                    Json::Arr(config.sweep_sizes.iter().map(|&n| Json::Int(n as i64)).collect()),
                ),
                (
                    "sweep_seeds",
                    Json::Arr(config.sweep_seeds.iter().map(|&s| Json::Int(s as i64)).collect()),
                ),
                ("fuzz_per_kind", Json::Int(config.fuzz_per_kind as i64)),
                (
                    "bound_sizes",
                    Json::Arr(config.bound_sizes.iter().map(|&n| Json::Int(n as i64)).collect()),
                ),
                (
                    "bound_seeds",
                    Json::Arr(config.bound_seeds.iter().map(|&s| Json::Int(s as i64)).collect()),
                ),
            ]),
        ),
        (
            "schemes_covered",
            Json::Arr(SchemeId::ALL.iter().map(|id| Json::Str(id.name().into())).collect()),
        ),
        ("differential_exhaustive", exhaustive),
        ("differential_sweeps", sweeps),
        ("fuzz", fuzz),
        ("bounds", bounds),
        (
            "violations",
            Json::Arr(result.violations.iter().map(|v| Json::Str(v.clone())).collect()),
        ),
        ("pass", Json::Bool(result.pass())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_passes_and_serializes() {
        let config = Config {
            exhaustive_n: 4,
            sweep_sizes: vec![16],
            sweep_seeds: vec![1],
            large_n_stride: 3,
            fuzz_per_kind: 40,
            fuzz_base: (24, 11),
            bound_sizes: vec![64],
            bound_seeds: vec![11],
        };
        let result = run(&config, |_| {}).unwrap();
        assert!(result.pass(), "violations: {:?}", result.violations);
        let json = to_json(&result).pretty();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"theorem5\""));
        assert!(json.contains("\"FullTable\""));
    }
}
