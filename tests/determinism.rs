//! Thread-count determinism: APSP, scheme verification and the shared
//! ordered fan-out must produce byte-identical results whether they run
//! on 1, 2 or 8 worker threads. `ORT_THREADS` is read per call, so one
//! test can sweep the matrix; the tests live in their own integration
//! binary and take `ENV` while they hold the variable, so the env
//! mutation cannot race another test. CI additionally runs the whole
//! suite under an `ORT_THREADS` matrix (see `.github/workflows/ci.yml`).

use std::sync::Mutex;

use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::{map_in_order, Apsp};
use optimal_routing_tables::routing::schemes::full_table::FullTableScheme;
use optimal_routing_tables::routing::schemes::theorem1::Theorem1Scheme;
use optimal_routing_tables::routing::verify::{verify, VerifyReport};

/// Held by every test that sets `ORT_THREADS`.
static ENV: Mutex<()> = Mutex::new(());

fn report_fingerprint(r: &VerifyReport) -> (usize, u64, Vec<(u32, u32)>, usize) {
    (r.delivered, r.total_hops, r.stretches.clone(), r.failures.len())
}

#[test]
fn apsp_and_verification_are_thread_count_invariant() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let g = generators::gnp_half(64, 5);

    let mut dist_matrices: Vec<Vec<u32>> = Vec::new();
    let mut ft_reports = Vec::new();
    let mut t1_reports = Vec::new();

    for threads in ["1", "2", "8"] {
        // `configured_threads()` re-reads the env var on every call, so
        // setting it here reconfigures the next compute/verify.
        std::env::set_var("ORT_THREADS", threads);

        let apsp = Apsp::compute(&g);
        dist_matrices.push(apsp.matrix_u32());

        let ft = FullTableScheme::build(&g, &apsp).expect("full table");
        ft_reports.push(report_fingerprint(
            &verify(&g, &ft, &apsp, 1).expect("verify full table"),
        ));

        let t1 = Theorem1Scheme::build(&g, &apsp).expect("theorem 1 on G(64,1/2)");
        t1_reports.push(report_fingerprint(
            &verify(&g, &t1, &apsp, 1).expect("verify theorem 1"),
        ));
    }
    std::env::remove_var("ORT_THREADS");

    for i in 1..dist_matrices.len() {
        assert_eq!(
            dist_matrices[0], dist_matrices[i],
            "APSP distance matrix differs between 1 and {} threads",
            [1, 2, 8][i]
        );
        assert_eq!(ft_reports[0], ft_reports[i], "full-table report differs");
        assert_eq!(t1_reports[0], t1_reports[i], "theorem-1 report differs");
    }
}

#[test]
fn map_in_order_matches_the_serial_map_at_every_thread_count() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let f = |i: usize| (i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for threads in ["1", "2", "8"] {
        std::env::set_var("ORT_THREADS", threads);
        for n in [0, 1, 7, 97] {
            let serial: Vec<_> = (0..n).map(f).collect();
            assert_eq!(map_in_order(n, f), serial, "n = {n}, ORT_THREADS = {threads}");
        }
    }
    std::env::remove_var("ORT_THREADS");
}
