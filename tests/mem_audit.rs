//! Analytic-vs-measured memory audits: every `peak_bytes` /
//! `heap_bytes` claim in the distance stack is pinned against the
//! instrumented allocator (`telemetry::alloc`). Each claim is a
//! *guaranteed lower bound* on the measured region peak — the structure
//! it describes really is allocated — and the measured peak must stay
//! within a small slack above it, so a claim that silently omits a
//! buffer (the bug class satellite 1 exists to catch) fails the upper
//! side and a claim that overstates fails the lower side.
//!
//! The allocator counters are process-global, so every test serialises
//! on one mutex and pins `ORT_THREADS=1`; this integration binary runs
//! in its own process, which makes the upper-bound (cap) assertions
//! safe — no sibling test binary can inflate the watermark.

#![cfg(feature = "alloc-telemetry")]

use std::sync::Mutex;

use optimal_routing_tables::graphs::delta::DeltaOracle;
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::oracle::{BandedOracle, Distances, LandmarkOracle};
use optimal_routing_tables::graphs::paths::{Apsp, ApspEngine};
use optimal_routing_tables::telemetry::alloc;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    std::env::set_var("ORT_THREADS", "1");
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Absolute headroom on every cap: allocator rounding, span/record
/// bookkeeping, and small scratch vectors the analytic models omit.
const ABS_SLACK: u64 = 256 * 1024;

/// `Apsp::heap_bytes()` plus the resolved engine's `scratch_bytes` is a
/// lower bound on the measured peak of a serial compute, and the
/// measured peak stays within 1.5× of it — for each concrete engine.
#[test]
fn apsp_heap_plus_scratch_bounds_measured_compute() {
    let _serial = serial();
    if !alloc::installed() {
        return;
    }
    // (graph, engine): sparse/Queue, dense/Bitset, large-sparse/Tiled.
    let cases = [
        (generators::power_law_seeded(192, 3, 2.5, 7), ApspEngine::Queue),
        (generators::gnp_half(192, 7), ApspEngine::Bitset),
        (generators::power_law_seeded(1200, 3, 2.5, 7), ApspEngine::Tiled),
    ];
    for (g, engine) in cases {
        let n = g.node_count();
        let region = alloc::mem_span("audit.apsp");
        let apsp = Apsp::compute_serial_with_engine(&g, engine);
        let rec = region.finish();
        let store = apsp.heap_bytes() as u64;
        let claim = store + engine.scratch_bytes(&g, n) as u64;
        assert!(
            rec.region_peak_bytes >= store,
            "{engine:?} n={n}: peak {} below the retained store {store}",
            rec.region_peak_bytes
        );
        let cap = (claim as f64 * 1.5) as u64 + ABS_SLACK;
        assert!(
            rec.region_peak_bytes <= cap,
            "{engine:?} n={n}: peak {} exceeds claim {claim} beyond slack (cap {cap})",
            rec.region_peak_bytes
        );
        // The store is retained: net allocation ≈ heap_bytes.
        assert!(rec.net_bytes >= 0 && rec.net_bytes as u64 >= store, "{engine:?} n={n}");
    }
}

/// `BandedOracle::peak_bytes` (one band at the compact cell width plus
/// engine scratch) brackets the measured peak of a full ascending sweep:
/// the sweep never holds two bands, so the measured peak stays within
/// the same 1.25× slack the bench gate enforces.
#[test]
fn banded_oracle_peak_bytes_brackets_a_full_sweep() {
    let _serial = serial();
    if !alloc::installed() {
        return;
    }
    let n = 1024;
    let band_rows = 256;
    let g = generators::power_law_seeded(n, 3, 2.5, 11);
    // Construction (graph clone) deliberately outside the region: the
    // claim covers band storage + scratch, not the adjacency copy.
    let oracle = BandedOracle::with_engine(g, band_rows, ApspEngine::Tiled);
    let claim = oracle.peak_bytes() as u64;
    let region = alloc::mem_span("audit.banded");
    let mut checksum = 0u64;
    for u in (0..n).step_by(band_rows) {
        checksum = checksum.wrapping_add(u64::from(oracle.distance(u, 0).expect("connected")));
    }
    let rec = region.finish();
    assert!(checksum > 0, "sweep must traverse real distances");
    assert!(
        rec.region_peak_bytes >= claim,
        "measured sweep peak {} below the analytic claim {claim}: \
         the claim overstates band or scratch storage",
        rec.region_peak_bytes
    );
    let cap = (claim as f64 * 1.25) as u64 + ABS_SLACK;
    assert!(
        rec.region_peak_bytes <= cap,
        "measured sweep peak {} exceeds claim {claim} beyond slack (cap {cap}): \
         more than one band (or an unaccounted buffer) was live",
        rec.region_peak_bytes
    );
    // One band must be dropped before the next is computed: the peak is
    // far below two bands plus scratch.
    let two_bands = 2 * claim;
    assert!(rec.region_peak_bytes < two_bands, "sweep held two bands at once");
}

/// `LandmarkOracle::peak_bytes` (distance rows + nearest-landmark index
/// plus landmark ids, all capacity-exact) is retained by construction:
/// measured net ≥ claim, and the build's peak stays within 3× — the BFS
/// frontier scratch per landmark is freed but counts toward the peak.
#[test]
fn landmark_oracle_peak_bytes_matches_retained_footprint() {
    let _serial = serial();
    if !alloc::installed() {
        return;
    }
    let g = generators::power_law_seeded(1024, 3, 2.5, 13);
    let region = alloc::mem_span("audit.landmark");
    let lo = LandmarkOracle::build(&g, 13);
    let rec = region.finish();
    let claim = lo.peak_bytes() as u64;
    assert!(claim > 0);
    assert!(
        rec.net_bytes >= 0 && rec.net_bytes as u64 >= claim,
        "retained {} below the analytic claim {claim}: the claim counts \
         capacity that was never allocated",
        rec.net_bytes
    );
    let cap = (claim as f64 * 3.0) as u64 + ABS_SLACK;
    assert!(
        rec.region_peak_bytes <= cap,
        "landmark build peak {} exceeds claim {claim} beyond slack (cap {cap})",
        rec.region_peak_bytes
    );
}

/// `DeltaOracle::peak_bytes` (full table + repair worklist scratch)
/// brackets the measured peak of construction plus an incremental
/// repair — the repair must reuse the claimed scratch, not allocate a
/// second table.
#[test]
fn delta_oracle_peak_bytes_covers_construction_and_repair() {
    let _serial = serial();
    if !alloc::installed() {
        return;
    }
    let g = generators::gnp_half(256, 17);
    let (u, v) = {
        let mut pick = None;
        'outer: for a in 0..256usize {
            for &b in g.neighbors(a) {
                if b > a {
                    pick = Some((a, b));
                    break 'outer;
                }
            }
        }
        pick.expect("G(256, 1/2) has an edge")
    };
    let region = alloc::mem_span("audit.delta");
    let mut oracle = DeltaOracle::new(g);
    let report = oracle.remove_edge(u, v).expect("repairable removal");
    let rec = region.finish();
    assert!(report.full_rebuild || report.rows_recomputed > 0 || report.dirty.is_empty());
    let claim = oracle.peak_bytes() as u64;
    assert!(
        rec.region_peak_bytes >= oracle.apsp().heap_bytes() as u64,
        "peak {} below the retained distance table",
        rec.region_peak_bytes
    );
    let cap = (claim as f64 * 1.5) as u64 + ABS_SLACK;
    assert!(
        rec.region_peak_bytes <= cap,
        "construction+repair peak {} exceeds claim {claim} beyond slack (cap {cap}): \
         repair allocated beyond the claimed worklist scratch",
        rec.region_peak_bytes
    );
}

/// `Apsp` as a `&dyn Distances` claims exactly its `heap_bytes`; the
/// store really is that large (measured net of a serial compute).
#[test]
fn apsp_as_distances_claims_exactly_its_heap() {
    let _serial = serial();
    if !alloc::installed() {
        return;
    }
    let g = generators::gnp_half(128, 19);
    let region = alloc::mem_span("audit.apsp_dyn");
    let apsp = Apsp::compute_serial(&g);
    let rec = region.finish();
    let dyn_oracle: &dyn Distances = &apsp;
    assert_eq!(dyn_oracle.peak_bytes(), apsp.heap_bytes());
    assert!(rec.net_bytes >= 0 && rec.net_bytes as u64 >= apsp.heap_bytes() as u64);
}

/// Exact counter round-trip: a 1 MiB allocation moves `live_bytes` by
/// exactly 1 MiB and dropping it restores the old count. Retries a few
/// times so a stray late free from an earlier pool cannot flake it.
#[test]
fn live_counter_round_trips_exactly() {
    let _serial = serial();
    if !alloc::installed() {
        return;
    }
    const SIZE: u64 = 1 << 20;
    let mut ok = false;
    for _ in 0..5 {
        let before = alloc::live_bytes();
        let buf = vec![0u8; SIZE as usize];
        let after = alloc::live_bytes();
        std::hint::black_box(&buf);
        drop(buf);
        let restored = alloc::live_bytes();
        if after == before + SIZE && restored == before {
            ok = true;
            break;
        }
    }
    assert!(ok, "1 MiB alloc/free must round-trip the live counter exactly");
}

/// The process high-water mark never decreases, and allocating past it
/// raises it by at least the overshoot.
#[test]
fn peak_is_monotone_and_tracks_overshoot() {
    let _serial = serial();
    if !alloc::installed() {
        return;
    }
    let p0 = alloc::peak_bytes();
    let headroom = (p0 - alloc::live_bytes()) as usize;
    let buf = vec![0u8; headroom + (1 << 20)];
    let p1 = alloc::peak_bytes();
    std::hint::black_box(&buf);
    assert!(p1 >= p0 + (1 << 20), "peak {p1} must exceed {p0} by the 1 MiB overshoot");
    drop(buf);
    assert!(alloc::peak_bytes() >= p1, "peak must never decrease");
}

/// Nested attribution: a child region's retained bytes are visible in
/// the parent's net, the parent's peak dominates the child's, and the
/// child measures exactly its own allocation.
///
/// The counters are process-global, so an allocation on any other thread
/// of this binary — the test harness's own bookkeeping included — would
/// land in the open regions. The body therefore runs in a child process
/// of this test binary that runs nothing but this one test.
#[test]
fn nested_mem_spans_attribute_to_parent() {
    const CHILD: &str = "ORT_MEM_AUDIT_NESTED_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args(["--exact", "nested_mem_spans_attribute_to_parent", "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .expect("spawn the isolated child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "isolated run failed:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let _serial = serial();
    if !alloc::installed() {
        return;
    }
    const A: usize = 256 * 1024;
    const B: usize = 512 * 1024;
    let parent = alloc::mem_span("audit.parent");
    let keep_a = vec![1u8; A];
    let child = alloc::mem_span("audit.child");
    let keep_b = vec![2u8; B];
    let child_rec = child.finish();
    let parent_rec = parent.finish();
    std::hint::black_box((&keep_a, &keep_b));

    assert_eq!(child_rec.depth, 1);
    assert_eq!(parent_rec.depth, 0);
    assert_eq!(child_rec.net_bytes, B as i64, "child retains exactly its own vec");
    assert_eq!(child_rec.region_peak_bytes, B as u64);
    // Parent: both vecs retained; the record push for the child may add
    // a few bookkeeping bytes on the parent's account, never the child's.
    assert!(parent_rec.net_bytes >= (A + B) as i64);
    assert!(parent_rec.net_bytes < (A + B + 16 * 1024) as i64);
    // Watermark propagation: the parent's peak dominates the child's.
    assert!(parent_rec.region_peak_bytes >= (A + B) as u64);
    assert!(parent_rec.region_peak_bytes >= child_rec.region_peak_bytes);
}
