//! Run manifests: provenance stamped into every results file, plus the
//! `results/HISTORY.jsonl` trajectory those stamps feed.
//!
//! Every `ort` subcommand that writes a results JSON goes through
//! [`write_stamped`], which:
//!
//! 1. compute an FNV-1a 64 digest of the *payload* serialization (the
//!    document without its manifest) — the catch-all fingerprint the
//!    regression gate (`ort report`) compares;
//! 2. prepend a `manifest` object: schema version, subcommand, semantic
//!    args, seeds, the digest, then the *volatile* provenance fields —
//!    `threads` (from `ORT_THREADS`), `features`, `telemetry`, `build`;
//! 3. append a one-line summary (no volatile fields) to `HISTORY.jsonl`
//!    next to the results file.
//!
//! # Byte-identity discipline
//!
//! The workspace guarantees results files identical under any
//! `ORT_THREADS`, with telemetry on or off, and with
//! `--no-default-features`. The manifest records exactly those
//! environment facts, so the volatile fields are each kept on their own
//! pretty-printed line and every byte-identity guard masks lines
//! matching `"(threads|features|telemetry|build)":` before comparing
//! (see [`VOLATILE_KEYS`] / [`mask_volatile`]). Everything else in the
//! manifest — and the entire payload, hence the digest — is exact.
//! `args` records only *semantic* parameters (`max_n=1024`), never
//! output paths, which would differ per invocation.

use ort_telemetry::json::Json;

/// Manifest schema version; bumped when the manifest shape changes.
pub const SCHEMA_VERSION: i64 = 1;

/// The manifest keys that legitimately vary with the environment or the
/// compiled feature set. Byte-identity comparisons mask lines containing
/// these keys; everything else must match exactly.
pub const VOLATILE_KEYS: [&str; 4] = ["threads", "features", "telemetry", "build"];

/// Drops every line carrying a volatile manifest key — the line filter
/// CI and the sink byte-identity test apply to *both* sides before
/// diffing results files.
#[must_use]
pub fn mask_volatile(text: &str) -> String {
    text.lines()
        .filter(|line| !VOLATILE_KEYS.iter().any(|k| line.contains(&format!("\"{k}\":"))))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// What a subcommand declares about itself for the manifest.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// The `ort` subcommand name.
    pub subcommand: &'static str,
    /// Semantic parameters as `key=value` pairs joined by spaces
    /// (never output paths).
    pub args: String,
    /// The seeds the run is deterministic in, joined by commas.
    pub seeds: String,
}

impl RunInfo {
    /// A new run description.
    #[must_use]
    pub fn new(subcommand: &'static str, args: impl Into<String>, seeds: impl Into<String>) -> Self {
        RunInfo { subcommand, args: args.into(), seeds: seeds.into() }
    }
}

/// The compiled feature set, as a stable comma-joined list.
#[must_use]
pub fn feature_set() -> String {
    let mut fs = Vec::new();
    if cfg!(feature = "telemetry") {
        fs.push("telemetry");
    }
    if cfg!(feature = "alloc-telemetry") {
        fs.push("alloc-telemetry");
    }
    if fs.is_empty() {
        "none".to_string()
    } else {
        fs.join(",")
    }
}

/// The build-info string behind `ort --version`, reused verbatim as the
/// manifest's `build` provenance field.
#[must_use]
pub fn build_info() -> String {
    format!(
        "ort {} (features: {}; telemetry: {}; alloc-instrumentation: {})",
        env!("CARGO_PKG_VERSION"),
        feature_set(),
        if ort_telemetry::enabled() { "on" } else { "off" },
        if ort_telemetry::alloc::installed() { "on" } else { "off" }
    )
}

/// The raw `ORT_THREADS` value, or `"default"` when unset/empty.
#[must_use]
pub fn threads_setting() -> String {
    match std::env::var("ORT_THREADS") {
        Ok(v) if !v.is_empty() => v,
        _ => "default".to_string(),
    }
}

/// FNV-1a 64-bit over `data` — the workspace's offline fingerprint (no
/// external hash crates). Collision-resistant enough to flag drift; any
/// intentional payload change changes it.
#[must_use]
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest string stamped into manifests: `fnv64:<16 hex digits>`
/// over the payload's serialization.
#[must_use]
pub fn digest_of(payload_text: &str) -> String {
    format!("fnv64:{:016x}", fnv64(payload_text.as_bytes()))
}

/// The manifest object for `info` with the given payload digest. Field
/// order is fixed: exact fields first, volatile fields last (each lands
/// on its own pretty-printed line for masking).
#[must_use]
pub fn manifest_json(info: &RunInfo, digest: &str) -> Json {
    Json::obj(vec![
        ("schema", Json::Int(SCHEMA_VERSION)),
        ("subcommand", Json::Str(info.subcommand.to_string())),
        ("args", Json::Str(info.args.clone())),
        ("seeds", Json::Str(info.seeds.clone())),
        ("digest", Json::Str(digest.to_string())),
        ("threads", Json::Str(threads_setting())),
        ("features", Json::Str(feature_set())),
        ("telemetry", Json::Str(if ort_telemetry::enabled() { "on" } else { "off" }.to_string())),
        ("build", Json::Str(build_info())),
    ])
}

/// The one-line `HISTORY.jsonl` record for a stamped write: basename,
/// subcommand, schema, args, seeds, digest — and nothing volatile, so
/// the history file is byte-identical across environments.
#[must_use]
pub fn history_line(file_name: &str, info: &RunInfo, digest: &str) -> String {
    Json::obj(vec![
        ("file", Json::Str(file_name.to_string())),
        ("subcommand", Json::Str(info.subcommand.to_string())),
        ("schema", Json::Int(SCHEMA_VERSION)),
        ("args", Json::Str(info.args.clone())),
        ("seeds", Json::Str(info.seeds.clone())),
        ("digest", Json::Str(digest.to_string())),
    ])
    .compact()
}

fn ensure_parent(path: &std::path::Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn append_history(out_path: &str, info: &RunInfo, digest: &str) -> Result<(), String> {
    use std::io::Write as _;
    let path = std::path::Path::new(out_path);
    let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or(out_path);
    let history = dir.join("HISTORY.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .map_err(|e| format!("cannot open {}: {e}", history.display()))?;
    writeln!(f, "{}", history_line(name, info, digest)).map_err(|e| e.to_string())
}

/// Stamps `payload` (an object) with a manifest as its first key and
/// returns the full document.
///
/// # Panics
///
/// Panics if `payload` is not a JSON object — every results file is one.
#[must_use]
pub fn stamp(payload: &Json, info: &RunInfo) -> Json {
    let digest = digest_of(&payload.pretty());
    let Json::Obj(fields) = payload else {
        panic!("results payloads are JSON objects");
    };
    let mut out = vec![("manifest".to_string(), manifest_json(info, &digest))];
    out.extend(fields.iter().cloned());
    Json::Obj(out)
}

/// Writes the stamped document to `out_path` and appends the history
/// line next to it.
///
/// # Errors
///
/// Propagates I/O failures as displayable strings.
pub fn write_stamped(out_path: &str, payload: &Json, info: &RunInfo) -> Result<(), String> {
    let digest = digest_of(&payload.pretty());
    ensure_parent(std::path::Path::new(out_path))?;
    std::fs::write(out_path, stamp(payload, info).pretty()).map_err(|e| e.to_string())?;
    append_history(out_path, info, &digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> RunInfo {
        RunInfo::new("testcmd", "max_n=64", "1")
    }

    #[test]
    fn stamp_puts_manifest_first_and_digest_matches() {
        let payload = Json::obj(vec![("suite", Json::Str("x".into())), ("pass", Json::Bool(true))]);
        let stamped = stamp(&payload, &info());
        let Json::Obj(fields) = &stamped else { panic!("object") };
        assert_eq!(fields[0].0, "manifest");
        assert_eq!(fields[1].0, "suite");
        let digest = stamped.get("manifest").unwrap().get("digest").unwrap().as_str().unwrap();
        assert_eq!(digest, digest_of(&payload.pretty()));
        // Round-trips through the workspace parser.
        let back = Json::parse(&stamped.pretty()).expect("parse");
        assert_eq!(back.get("manifest").unwrap().get("schema").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn masking_strips_exactly_the_volatile_lines() {
        let stamped = stamp(&Json::obj(vec![("pass", Json::Bool(true))]), &info()).pretty();
        let masked = mask_volatile(&stamped);
        for k in VOLATILE_KEYS {
            assert!(stamped.contains(&format!("\"{k}\":")), "{k} must be stamped");
            assert!(!masked.contains(&format!("\"{k}\":")), "{k} must be masked");
        }
        // The exact provenance (and the payload) survives the mask.
        for k in ["schema", "subcommand", "args", "seeds", "digest", "pass"] {
            assert!(masked.contains(&format!("\"{k}\":")), "{k} must survive the mask");
        }
    }

    #[test]
    fn history_line_has_no_volatile_fields() {
        let line = history_line("X.json", &info(), "fnv64:0000000000000000");
        for k in VOLATILE_KEYS {
            assert!(!line.contains(&format!("\"{k}\"")), "{k} must not reach history");
        }
        assert!(!line.contains('\n'));
    }

    #[test]
    fn build_info_names_the_feature_state() {
        let s = build_info();
        assert!(s.starts_with("ort "), "{s}");
        assert!(s.contains("features:"), "{s}");
        assert_eq!(s.contains("telemetry: on"), ort_telemetry::enabled());
        assert_eq!(
            s.contains("alloc-instrumentation: on"),
            ort_telemetry::alloc::installed(),
            "{s}"
        );
    }
}
