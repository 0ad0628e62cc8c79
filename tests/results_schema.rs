//! Schema guard for the checked-in results corpus: every `results/*.json`
//! parses with the project's own JSON parser, carries a manifest whose
//! schema/subcommand/digest fields are well-formed, and — the part a
//! parse alone cannot show — hashes back to exactly the digest its
//! manifest claims. A failure here means a results file was edited by
//! hand instead of regenerated.

use optimal_routing_tables::telemetry::json::Json;
use optimal_routing_tables::manifest;
use optimal_routing_tables::report;

fn result_files() -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir("results")
        .expect("results/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "the results corpus must not be empty");
    files
}

#[test]
fn every_results_file_parses_and_is_stamped() {
    for path in result_files() {
        let name = path.file_name().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(&path).expect("read result file");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));

        let m = doc.get("manifest").unwrap_or_else(|| panic!("{name}: missing manifest"));
        assert_eq!(
            m.get("schema").and_then(Json::as_i64),
            Some(manifest::SCHEMA_VERSION),
            "{name}: wrong or missing schema version"
        );
        let sub = m.get("subcommand").and_then(Json::as_str);
        assert!(sub.is_some_and(|s| !s.is_empty()), "{name}: missing subcommand");
        let digest = m.get("digest").and_then(Json::as_str).unwrap_or("");
        assert!(
            digest.starts_with("fnv64:") && digest.len() == "fnv64:".len() + 16,
            "{name}: malformed digest '{digest}'"
        );
    }
}

/// The digest chain holds: stripping the manifest block reconstructs the
/// payload byte-for-byte, and hashing it reproduces the manifest digest.
/// This is the same recomputation `ort report` performs per file.
#[test]
fn every_manifest_digest_matches_its_payload() {
    for path in result_files() {
        let name = path.file_name().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(&path).expect("read result file");
        let (m, payload) =
            report::unstamp(&text).unwrap_or_else(|| panic!("{name}: unstampable layout"));
        let claimed = m.get("digest").and_then(Json::as_str).unwrap_or("").to_string();
        assert_eq!(
            manifest::digest_of(&payload),
            claimed,
            "{name}: payload does not hash to the digest its manifest claims"
        );
    }
}

/// No payload records a machine- or feature-dependent figure: the
/// allocator-measured peaks and wall-clock ratios that `ort report`
/// checks are judged fresh and never written, so every results file is
/// byte-identical across hosts once the manifest's volatile provenance
/// lines are masked.
#[test]
fn payloads_carry_no_machine_dependent_figures() {
    for path in result_files() {
        let name = path.file_name().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(&path).expect("read result file");
        let masked = manifest::mask_volatile(&text);
        for key in ["measured_peak_bytes", "host_cores", "speedup", "_ms\""] {
            assert!(!masked.contains(key), "{name}: payload records '{key}'");
        }
    }
}

/// The history ledger ends in the truth: for every stamped results file
/// (the report excepted — it intentionally skips the ledger), the *last*
/// `HISTORY.jsonl` line for that file carries its current digest.
#[test]
fn history_last_lines_match_current_digests() {
    let history = std::fs::read_to_string("results/HISTORY.jsonl").expect("results/HISTORY.jsonl");
    for path in result_files() {
        let name = path.file_name().unwrap().to_str().unwrap();
        if name == "REPORT.json" {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read result file");
        let doc = Json::parse(&text).expect("parses (covered above)");
        let digest = doc
            .get("manifest")
            .and_then(|m| m.get("digest"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let last = history
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .rfind(|l| l.get("file").and_then(Json::as_str) == Some(name));
        let last = last.unwrap_or_else(|| panic!("{name}: no HISTORY.jsonl line"));
        assert_eq!(
            last.get("digest").and_then(Json::as_str),
            Some(digest.as_str()),
            "{name}: history's last word disagrees with the file's manifest"
        );
    }
}
