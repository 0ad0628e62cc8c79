//! One oracle per run, end to end: `ort build` computes the APSP matrix
//! once and hands it to both scheme construction and verification.
//!
//! Read off the `apsp.computes` counter line that `ORT_TELEMETRY=summary`
//! prints to stderr when the spawned binary exits.

#![cfg(feature = "telemetry")]

/// The `apsp.computes` total of one `ort` run.
fn apsp_computes(args: &[&str]) -> u64 {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ort"))
        .args(args)
        .env("ORT_TELEMETRY", "summary")
        .output()
        .expect("spawn ort");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "ort {args:?} failed:\n{stderr}");
    stderr
        .lines()
        .find_map(|line| line.strip_prefix("apsp.computes")?.trim().parse().ok())
        .unwrap_or_else(|| panic!("ort {args:?} printed no apsp.computes line:\n{stderr}"))
}

#[test]
fn cli_build_computes_one_apsp() {
    for scheme in ["full-table", "landmark"] {
        let args = ["build", scheme, "64", "1"];
        assert_eq!(apsp_computes(&args), 1, "ort {}", args.join(" "));
    }
}
