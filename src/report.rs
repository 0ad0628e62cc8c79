//! `ort report`: the one regression gate outside the benchmark of record.
//!
//! Reads every stamped results file in a directory (plus the
//! `HISTORY.jsonl` trajectory next to them), derives each file's
//! provenance (schema, stored and recomputed payload digest, last
//! history digest), and runs the declarative check table of
//! [`crate::gate`] over those documents and three fresh probes. The
//! table's `Exact` values land in `results/REPORT.json`; with
//! `--baseline <REPORT.json>` every one of them must equal the
//! baseline's, and any drift fails the run naming the source and JSON
//! path. CI runs exactly that against the checked-in report.
//!
//! The report's own manifest is reduced to fully deterministic fields
//! (schema, subcommand, digest), and no `Bound` measurement is recorded,
//! so `REPORT.json` is byte-identical under any `ORT_THREADS`, feature
//! set, or telemetry sink configuration.

use crate::gate::{self, Docs, Row};
use crate::manifest::{self, SCHEMA_VERSION};
use ort_telemetry::json::Json;

/// Options for one `ort report` run.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Directory holding the stamped results files.
    pub dir: String,
    /// Where to write the aggregate report.
    pub out: String,
    /// Optional previous report to compare against.
    pub baseline: Option<String>,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            dir: "results".into(),
            out: "results/REPORT.json".into(),
            baseline: None,
        }
    }
}

/// The outcome: the report document, a human-readable table, and every
/// problem found (empty ⇒ pass).
#[derive(Debug)]
pub struct ReportOutcome {
    /// The aggregate report (already written to `opts.out`).
    pub report: Json,
    /// Human-readable summary table.
    pub table: String,
    /// Every failed check / regression, each naming its source and path.
    pub problems: Vec<String>,
}

/// Splits a stamped document into its manifest and the original payload
/// text the digest was computed over. Returns `None` when the document
/// carries no manifest.
///
/// The manifest is always the first key and always flat, so its block
/// is exactly the lines from `"manifest": {` through the first `},` at
/// depth 1 — removing them textually reconstructs the pre-stamp payload
/// byte-for-byte, so even a whitespace-only hand edit changes the digest.
#[must_use]
pub fn unstamp(text: &str) -> Option<(Json, String)> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.first() != Some(&"{") || lines.get(1) != Some(&"  \"manifest\": {") {
        return None;
    }
    let close = lines.iter().position(|l| *l == "  },")?;
    let manifest_text = lines[1..=close]
        .join("\n")
        .trim_start()
        .strip_prefix("\"manifest\":")?
        .trim()
        .trim_end_matches(',')
        .to_string();
    let m = Json::parse(&manifest_text).ok()?;
    let mut payload = String::from("{\n");
    payload.push_str(&lines[close + 1..].join("\n"));
    payload.push('\n');
    Some((m, payload))
}

/// The [`Source::Provenance`](crate::gate::Source::Provenance) entry of
/// one results file: its manifest's schema and digest, the digest its
/// payload recomputes to, and the digest of its last history line.
fn provenance(name: &str, text: &str, history: &[Json]) -> Json {
    let history_digest = history
        .iter()
        .rev()
        .find(|h| h.get("file").and_then(Json::as_str) == Some(name))
        .and_then(|h| h.get("digest").cloned())
        .unwrap_or(Json::Null);
    let Some((m, payload)) = unstamp(text) else {
        return Json::obj(vec![("schema", Json::Null), ("history_digest", history_digest)]);
    };
    let field = |k: &str| m.get(k).cloned().unwrap_or(Json::Null);
    Json::obj(vec![
        ("schema", field("schema")),
        ("digest", field("digest")),
        ("payload_digest", Json::Str(manifest::digest_of(&payload))),
        ("history_digest", history_digest),
    ])
}

fn read_history(dir: &std::path::Path) -> (Vec<Json>, Vec<String>) {
    let mut lines = Vec::new();
    let mut problems = Vec::new();
    let path = dir.join("HISTORY.jsonl");
    match std::fs::read_to_string(&path) {
        Err(_) => problems.push(format!("{}: missing (no run trajectory)", path.display())),
        Ok(text) => {
            for (i, line) in text.lines().enumerate() {
                match Json::parse(line) {
                    Ok(v) => lines.push(v),
                    Err(e) => problems.push(format!(
                        "{}:{}: unparseable history line: {e}",
                        path.display(),
                        i + 1
                    )),
                }
            }
        }
    }
    (lines, problems)
}

/// Runs the full check table ([`gate::ROWS`]): scan, verify, probe,
/// compare, write.
///
/// # Errors
///
/// I/O failures reading the results directory, the baseline, or writing
/// the report. Check failures and regressions are returned in
/// [`ReportOutcome::problems`], not as `Err` — the caller decides the
/// exit code.
pub fn run(opts: &ReportOptions) -> Result<ReportOutcome, String> {
    check(opts, gate::ROWS)
}

/// As [`run`] with an explicit table, e.g. only the rows on checked-in
/// files.
///
/// # Errors
///
/// As [`run`].
pub fn check(opts: &ReportOptions, rows: &[Row]) -> Result<ReportOutcome, String> {
    let _span = ort_telemetry::span("report.run");
    let dir = std::path::Path::new(&opts.dir);
    let (history, mut problems) = read_history(dir);
    // Every .json in the directory except the report itself.
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json") && n != "REPORT.json")
        .collect();
    names.sort();
    let mut provenances = Vec::new();
    let mut files = Vec::new();
    for name in names {
        let text = std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
        provenances.push((name.clone(), provenance(&name, &text, &history)));
        match Json::parse(&text) {
            Ok(doc) => files.push((name, doc)),
            Err(e) => problems.push(format!("{name}: unparseable: {e}")),
        }
    }
    let eval = gate::evaluate(rows, &mut Docs::new(Json::Obj(provenances), files));
    problems.extend(eval.problems);
    if let Some(base_path) = &opts.baseline {
        let base_text =
            std::fs::read_to_string(base_path).map_err(|e| format!("baseline {base_path}: {e}"))?;
        let base = Json::parse(&base_text).map_err(|e| format!("baseline {base_path}: {e}"))?;
        let recorded = base.get("exact").cloned().unwrap_or(Json::Obj(Vec::new()));
        problems.extend(gate::compare(&recorded, &eval.exact));
    }
    let payload = Json::obj(vec![
        ("suite", Json::Str("ort report".into())),
        ("exact", eval.exact),
        ("history_lines", Json::Int(history.len() as i64)),
        ("problems", Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect())),
        ("pass", Json::Bool(problems.is_empty())),
    ]);
    // The report's own manifest carries only fully deterministic fields —
    // REPORT.json must be byte-identical under any environment. The
    // digest covers the complete payload (verdict included), so the
    // schema test can re-verify REPORT.json like any other results file.
    let manifest = Json::obj(vec![
        ("schema", Json::Int(SCHEMA_VERSION)),
        ("subcommand", Json::Str("report".into())),
        ("digest", Json::Str(manifest::digest_of(&payload.pretty()))),
    ]);
    let Json::Obj(mut fields) = payload else { unreachable!("built as an object") };
    fields.insert(0, ("manifest".to_string(), manifest));
    let report = Json::Obj(fields);
    std::fs::write(&opts.out, report.pretty()).map_err(|e| format!("{}: {e}", opts.out))?;
    let mut table = eval.lines.join("\n");
    table.push_str(&format!(
        "\n{} rows, {} history lines, {} problem(s)\n",
        rows.len(),
        history.len(),
        problems.len()
    ));
    for p in &problems {
        table.push_str(&format!("  REGRESSION {p}\n"));
    }
    Ok(ReportOutcome { report, table, problems })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Source;
    use crate::manifest::RunInfo;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ort-report-{name}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_sample(dir: &std::path::Path) {
        let payload = Json::obj(vec![
            ("suite", Json::Str("ort conformance".into())),
            ("schemes_covered", Json::Arr(vec![Json::Str("full-table".into())])),
            ("violations", Json::Arr(vec![])),
            ("pass", Json::Bool(true)),
        ]);
        manifest::write_stamped(
            dir.join("CONFORMANCE.json").to_str().unwrap(),
            &payload,
            &RunInfo::new("conformance", "exhaustive_n=6", "1,2,3"),
        )
        .unwrap();
    }

    /// The table without its probes: the unit tests judge files only.
    fn file_rows() -> Vec<Row> {
        let on_disk = |r: &&Row| matches!(r.source, Source::Provenance | Source::File(_));
        gate::ROWS.iter().filter(on_disk).copied().collect()
    }

    fn opts(dir: &std::path::Path) -> ReportOptions {
        ReportOptions {
            dir: dir.to_str().unwrap().into(),
            out: dir.join("REPORT.json").to_str().unwrap().into(),
            baseline: None,
        }
    }

    #[test]
    fn unstamp_recovers_the_payload_exactly() {
        let payload = Json::obj(vec![("pass", Json::Bool(true))]);
        let stamped = manifest::stamp(&payload, &RunInfo::new("x", "", "1")).pretty();
        let (m, body) = unstamp(&stamped).expect("stamped");
        assert_eq!(body, payload.pretty());
        assert_eq!(
            m.get("digest").and_then(Json::as_str),
            Some(manifest::digest_of(&payload.pretty()).as_str())
        );
    }

    #[test]
    fn clean_directory_passes() {
        let dir = tmp("clean");
        write_sample(&dir);
        let out = check(&opts(&dir), &file_rows()).unwrap();
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert!(dir.join("REPORT.json").exists());
        // The emitted report parses and carries the reduced manifest.
        let rep = Json::parse(&std::fs::read_to_string(dir.join("REPORT.json")).unwrap()).unwrap();
        assert_eq!(
            rep.get("manifest").unwrap().get("subcommand").and_then(Json::as_str),
            Some("report")
        );
        assert!(rep.get("manifest").unwrap().get("threads").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_perturbation_fails_naming_the_file() {
        let dir = tmp("perturb");
        write_sample(&dir);
        let path = dir.join("CONFORMANCE.json");
        // Flip one payload bit: true → false.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"pass\": true", "\"pass\": false")).unwrap();
        let out = check(&opts(&dir), &file_rows()).unwrap();
        assert!(
            out.problems.iter().any(|p| p.contains("CONFORMANCE.json") && p.contains("digest")),
            "{:?}",
            out.problems
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_drift_names_the_exact_field() {
        let dir = tmp("baseline");
        write_sample(&dir);
        let o = opts(&dir);
        check(&o, &file_rows()).unwrap(); // writes the baseline REPORT.json
        // Regenerate the results file with a different exact value, as a
        // legitimate (re-stamped) write — digests are self-consistent, so
        // only the baseline comparison can catch it.
        let payload = Json::obj(vec![
            ("suite", Json::Str("ort conformance".into())),
            ("schemes_covered", Json::Arr(vec![Json::Str("full-table".into())])),
            ("violations", Json::Arr(vec![Json::Str("boom".into())])),
            ("pass", Json::Bool(false)),
        ]);
        manifest::write_stamped(
            dir.join("CONFORMANCE.json").to_str().unwrap(),
            &payload,
            &RunInfo::new("conformance", "exhaustive_n=6", "1,2,3"),
        )
        .unwrap();
        let with_base = ReportOptions {
            out: dir.join("REPORT_fresh.json").to_str().unwrap().into(),
            baseline: Some(dir.join("REPORT.json").to_str().unwrap().into()),
            ..o
        };
        let out = check(&with_base, &file_rows()).unwrap();
        for field in ["CONFORMANCE.json: violations.#: baseline 0, fresh 1", "CONFORMANCE.json: pass"]
        {
            let named = out.problems.iter().any(|p| p.starts_with(field));
            assert!(named, "{field}: {:?}", out.problems);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unstamped_file_is_a_problem() {
        let dir = tmp("unstamped");
        std::fs::write(dir.join("LOOSE.json"), "{\n  \"x\": 1\n}\n").unwrap();
        std::fs::write(dir.join("HISTORY.jsonl"), "").unwrap();
        let out = check(&opts(&dir), &file_rows()).unwrap();
        assert!(
            out.problems.iter().any(|p| p.contains("LOOSE.json") && p.contains("no manifest")),
            "{:?}",
            out.problems
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
