//! `ort profile`, end to end: a spawned run of every registry scheme at
//! n = 64, with and without `--mem`.
//!
//! Each run is its own child process, so the memory audit reads
//! allocator counters that no sibling test or harness thread touches.

use std::process::Command;

use optimal_routing_tables::conformance::registry::SchemeId;
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;

const N: usize = 64;

/// Spawns `ort profile <scheme> --n 64 [--mem]` and returns its stdout,
/// asserting that it exited 0.
fn profile(id: SchemeId, mem: bool) -> String {
    let mut args = vec!["profile", id.name(), "--n", "64"];
    if mem {
        args.push("--mem");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_ort")).args(&args).output().expect("spawn ort");
    assert!(
        out.status.success(),
        "ort {} failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// The last column of the bit table's `total` row.
fn bit_table_total(report: &str) -> Option<usize> {
    report.lines().find_map(|line| {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() == 5 && cols[0] == "total" {
            cols[4].parse().ok()
        } else {
            None
        }
    })
}

/// Every registry scheme's profile, in one mode: exit 0 and a bit table
/// whose total is the scheme's `total_size_bits` on the same graph (the
/// CLI's default seed, 1).
fn every_scheme_reconciles(mem: bool) {
    let g = generators::gnp_half(N, 1);
    let apsp = Apsp::compute(&g);
    for id in SchemeId::ALL {
        let total = id.build_with_dists(&g, &apsp).unwrap().total_size_bits();
        let report = profile(id, mem);
        assert_eq!(bit_table_total(&report), Some(total), "{}:\n{report}", id.name());
        if !mem {
            continue;
        }
        let verdict = if cfg!(feature = "alloc-telemetry") {
            "memory audit: PASS"
        } else {
            "reconciliation skipped"
        };
        assert!(report.contains(verdict), "{}:\n{report}", id.name());
    }
}

#[test]
fn profile_reconciles_every_registry_scheme() {
    every_scheme_reconciles(false);
}

#[test]
fn profile_mem_audit_passes_for_every_registry_scheme() {
    every_scheme_reconciles(true);
}
