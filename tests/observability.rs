//! The observability layer's integration contract: value-domain
//! histograms are thread-count invariant, the flight recorder replays
//! the same dump for the same seeded run, and `ort report` reproduces
//! the checked-in `REPORT.json` yet fails — naming the source and JSON
//! path, and writing a post-mortem through the `postmortem:` sink — the
//! moment a recorded bit, memory claim or churn count drifts.
//!
//! Every in-process test mutates process-global state (the telemetry
//! registry, the recorder ring, `ORT_THREADS`), so they serialise on
//! one mutex instead of relying on the harness's thread-per-test
//! default. The `ort report` tests only spawn the binary and run
//! alongside them.

#![cfg(feature = "telemetry")]

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use optimal_routing_tables::conformance::differential;
use optimal_routing_tables::conformance::registry::SchemeId;
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::manifest;
use optimal_routing_tables::routing::accounting::BitBreakdown;
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::telemetry as tel;
use optimal_routing_tables::telemetry::recorder;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A scratch directory unique to this test binary invocation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ort-observability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The full value-domain histogram table — names, counts, sums and every
/// log bucket — is identical whether the instrumented work ran on 1, 2
/// or 8 worker threads. (Timing histograms are wall-clock and excluded,
/// exactly as the determinism gate excludes them.)
#[test]
fn value_histograms_are_thread_count_invariant() {
    let _serial = serial();
    let g = generators::gnp_half(48, 3);
    let mut tables: Vec<Vec<tel::HistData>> = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("ORT_THREADS", threads);
        tel::reset();
        let apsp = Apsp::compute(&g);
        let oracle = apsp.into_oracle();
        let scheme = SchemeId::Theorem1.build(&g).expect("theorem 1 on G(48, 1/2)");
        verify::verify_scheme_with_oracle(&g, scheme.as_ref(), &oracle).expect("verify");
        let _bits = BitBreakdown::of(scheme.as_ref());
        tables.push(tel::snapshot().hists.into_iter().filter(|h| !h.timing).collect());
    }
    std::env::remove_var("ORT_THREADS");

    let hops = tables[0].iter().find(|h| h.name == "verify.hops");
    assert!(hops.is_some_and(|h| h.count > 0), "verify must record hop counts, got {tables:?}");
    assert!(tables[0].iter().any(|h| h.name == "verify.stretch_x1000" && h.count > 0));
    assert!(tables[0].iter().any(|h| h.name == "accounting.bits_per_node" && h.count > 0));
    for (i, t) in tables.iter().enumerate().skip(1) {
        assert_eq!(
            &tables[0],
            t,
            "value histograms differ between 1 and {} threads",
            [1, 2, 8][i]
        );
    }
}

/// Projects a post-mortem dump to its deterministic part: masks the
/// `ns` timestamp on every event line, and on span events also the `b`
/// payload (a span's `b` is its elapsed nanoseconds — wall clock, like
/// `ns`). Anomaly and note payloads stay unmasked: they carry data.
fn mask_ns(dump: &str) -> String {
    let mut out = String::with_capacity(dump.len());
    for line in dump.lines() {
        let mut line = line.to_string();
        if let Some(at) = line.find(",\"ns\":") {
            line.truncate(at);
            line.push_str(",\"ns\":_}");
        }
        if line.contains("\"kind\":\"span\"") {
            if let (Some(b), Some(end)) = (line.find(",\"b\":"), line.find(",\"ns\":")) {
                line.replace_range(b..end, ",\"b\":_");
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Running the same seeded differential pass twice produces the same
/// refusal anomalies and — with timestamps masked — byte-identical
/// post-mortem dumps. `C_9` has diameter 4, which the diameter-2 theorem schemes refuse,
/// so the run is guaranteed to trip the `scheme_refusal` trigger.
#[test]
fn recorder_dump_is_deterministic_on_seeded_refusal() {
    let _serial = serial();
    std::env::set_var("ORT_THREADS", "1");
    let g = generators::cycle(9);
    let mut anomaly_runs = Vec::new();
    let mut dumps = Vec::new();
    for _ in 0..2 {
        tel::reset();
        let _ = differential::diff_graph(&g, 1);
        let anomalies: Vec<(u64, &'static str, u64, u64)> = recorder::events()
            .iter()
            .filter(|e| e.kind == recorder::EventKind::Anomaly)
            .map(|e| (e.seq, e.label, e.a, e.b))
            .collect();
        anomaly_runs.push(anomalies);
        dumps.push(mask_ns(&recorder::dump_string("scheme_refusal")));
    }
    std::env::remove_var("ORT_THREADS");

    assert!(
        anomaly_runs[0].iter().any(|e| e.1 == "scheme_refusal"),
        "C_9 must trip at least one scheme refusal, got {:?}",
        anomaly_runs[0]
    );
    assert_eq!(anomaly_runs[0], anomaly_runs[1], "anomaly sequence must replay exactly");
    assert_eq!(dumps[0], dumps[1], "masked post-mortem dumps must be byte-identical");
    assert!(dumps[0].starts_with("{\"type\":\"postmortem\",\"trigger\":\"scheme_refusal\""));
}

/// Increments the first digit of the first integer after `key` in
/// `text` (9 wraps to 8 so the length never changes): a one-character
/// payload perturbation.
fn perturb_after(text: &str, key: &str) -> String {
    let at = text.find(key).unwrap_or_else(|| panic!("'{key}' not found in payload"));
    let digit_at = at
        + key.len()
        + text[at + key.len()..]
            .find(|c: char| c.is_ascii_digit())
            .expect("digit after key");
    let d = text.as_bytes()[digit_at] as char;
    let new = if d == '9' { '8' } else { (d as u8 + 1) as char };
    let mut s = String::with_capacity(text.len());
    s.push_str(&text[..digit_at]);
    s.push(new);
    s.push_str(&text[digit_at + 1..]);
    s
}

/// Adds `delta` to the integer that follows the last of `anchors`, each
/// anchor searched for after the previous one: a one-unit change to one
/// recorded number.
fn bump(text: &str, anchors: &[&str], delta: i64) -> String {
    let mut at = 0;
    for a in anchors {
        at += text[at..].find(a).unwrap_or_else(|| panic!("'{a}' not found")) + a.len();
    }
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).expect("number then delimiter");
    let v: i64 = text[at..end].parse().expect("integer after the anchors");
    format!("{}{}{}", &text[..at], v + delta, &text[end..])
}

/// Copies the checked-in results corpus (every `*.json` except the
/// report itself, plus the run history) into `dir`.
fn copy_results(dir: &Path) {
    for entry in std::fs::read_dir("results").expect("results/ directory") {
        let p = entry.expect("dir entry").path();
        let name = p.file_name().unwrap().to_str().unwrap().to_string();
        if name == "REPORT.json" || !(name.ends_with(".json") || name == "HISTORY.jsonl") {
            continue;
        }
        std::fs::copy(&p, dir.join(&name)).expect("copy result file");
    }
}

/// Re-stamps `file` after a payload edit: recomputes the FNV digest over
/// the edited payload and substitutes it for the old one in both the
/// file's manifest and the history, so only the *content* drifts, not
/// the provenance chain.
fn restamp(dir: &Path, file: &str) {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).expect("read result file");
    let (manifest, payload) =
        optimal_routing_tables::report::unstamp(&text).expect("stamped result file");
    let old = manifest.get("digest").and_then(|d| d.as_str()).expect("digest").to_string();
    let fresh = manifest::digest_of(&payload);
    std::fs::write(&path, text.replace(&old, &fresh)).expect("rewrite digest");
    let hist_path = dir.join("HISTORY.jsonl");
    let history = std::fs::read_to_string(&hist_path).expect("read history");
    std::fs::write(&hist_path, history.replace(&old, &fresh)).expect("rewrite history");
}

/// Runs `ort report --dir dir --baseline baseline`, writing the report to
/// `dir/REPORT.json` and any post-mortem to `dir/postmortem.jsonl`.
/// Returns whether it passed and its `regression:` lines.
fn run_report(dir: &Path, baseline: &Path) -> (bool, Vec<String>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ort"))
        .arg("report")
        .args(["--dir", dir.to_str().unwrap(), "--out", dir.join("REPORT.json").to_str().unwrap()])
        .args(["--baseline", baseline.to_str().unwrap()])
        .env("ORT_TELEMETRY", format!("postmortem:{}", dir.join("postmortem.jsonl").display()))
        .stdout(std::process::Stdio::null())
        .output()
        .expect("spawn ort report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let problems = stderr.lines().filter_map(|l| l.strip_prefix("regression: "));
    (out.status.success(), problems.map(str::to_string).collect())
}

/// The full table (fresh bit, memory and repair probes included) passes
/// on a pristine copy of the checked-in results against the checked-in
/// baseline, and the report it writes is byte-identical to
/// `results/REPORT.json` — nothing host-dependent is recorded.
#[test]
fn report_reproduces_the_checked_in_report() {
    let dir = scratch("report-clean");
    copy_results(&dir);
    let (ok, problems) = run_report(&dir, Path::new("results/REPORT.json"));
    assert!(ok, "report must pass on the checked-in corpus: {problems:#?}");
    assert_eq!(
        std::fs::read_to_string(dir.join("REPORT.json")).expect("fresh report"),
        std::fs::read_to_string("results/REPORT.json").expect("checked-in report"),
        "a fresh `ort report` must reproduce results/REPORT.json"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `ort report --baseline` run over four independent perturbations.
/// The run exits non-zero, names each perturbation by source and JSON
/// path, flags nothing else, and writes the recorder post-mortem:
///
/// * a one-unit change to a recorded bit total (baseline side);
/// * a one-unit change to a recorded memory claim (baseline side);
/// * a churn byte-identity count one short of the events applied,
///   re-stamped so `CHURN.json` is internally consistent — the `Bound`
///   row and the `Exact` row both catch it;
/// * a histogram bucket shifted in `RESILIENCE.json` without re-stamping
///   — the digest check catches the tampering.
#[test]
fn report_names_each_perturbation_and_writes_a_postmortem() {
    let dir = scratch("report-drift");
    copy_results(&dir);
    let baseline_dir = scratch("report-drift-baseline");
    let baseline = baseline_dir.join("REPORT.json");
    let recorded = std::fs::read_to_string("results/REPORT.json").expect("checked-in report");
    let recorded = bump(&recorded, &["\"64.theorem1\"", "total\\\":"], 1);
    let recorded = bump(&recorded, &["\"banded.claimed_peak_bytes\": "], 1);
    std::fs::write(&baseline, recorded).expect("write perturbed baseline");

    let churn = dir.join("CHURN.json");
    let text = std::fs::read_to_string(&churn).expect("read churn");
    let text = bump(&text, &["\"name\": \"gnp32\"", "\"byte_identical_steps\": "], -1);
    std::fs::write(&churn, text).expect("write churn");
    restamp(&dir, "CHURN.json");
    let resilience = dir.join("RESILIENCE.json");
    let text = std::fs::read_to_string(&resilience).expect("read resilience");
    std::fs::write(&resilience, perturb_after(&text, "\"buckets\": ")).expect("shift bucket");

    let (ok, problems) = run_report(&dir, &baseline);
    assert!(!ok, "every perturbation must fail the report");
    let expected = [
        "probe:bits: 64.theorem1: baseline",
        "probe:mem: banded.claimed_peak_bytes: baseline",
        "CHURN.json: cells.gnp32: byte-identical on 39 of 40 steps",
        "CHURN.json: cells.gnp32.checks.byte_identical_steps: baseline 40, fresh 39",
        "results: CHURN.json.digest: baseline",
        "results: RESILIENCE.json: digest: payload hashes to",
        "RESILIENCE.json: hists.",
    ];
    for want in expected {
        assert!(problems.iter().any(|p| p.starts_with(want)), "missing '{want}' in {problems:#?}");
    }
    for p in &problems {
        assert!(expected.iter().any(|want| p.starts_with(want)), "unexpected problem '{p}'");
    }
    let dump = std::fs::read_to_string(dir.join("postmortem.jsonl")).expect("post-mortem sink");
    assert!(dump.contains("\"trigger\":\"report_failure\""), "{dump}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&baseline_dir);
}
