//! One oracle per run: one APSP computation serves scheme construction
//! *and* verification, and the streamed sampled verify computes none.
//!
//! Asserted via `ort_graphs::paths::apsp_compute_count`, a process-wide
//! counter — which is why this file holds exactly one test: any
//! concurrently running test that computes an APSP would perturb the
//! deltas. Integration-test files get their own process, so isolation is
//! guaranteed.

use ort_graphs::generators;
use ort_graphs::paths::{apsp_compute_count, Apsp};
use ort_routing::schemes::full_table::FullTableScheme;
use ort_routing::schemes::landmark::LandmarkScheme;
use ort_routing::verify::{verify, verify_scheme_sampled};

#[test]
fn construct_and_verify_share_one_apsp() {
    // Force multiple verifier threads even on single-core CI hosts, so the
    // parallel merge path is exercised. Safe: this process runs one test.
    std::env::set_var("ORT_THREADS", "3");
    let g = generators::gnp_half(40, 9);

    let before = apsp_compute_count();
    let oracle = Apsp::compute(&g);
    let scheme = FullTableScheme::build(&g, &oracle).unwrap();
    let report = verify(&g, &scheme, &oracle, 1).unwrap();
    assert!(report.is_shortest_path());
    assert_eq!(
        apsp_compute_count() - before,
        1,
        "full_table build + verify must cost exactly one APSP computation"
    );

    // A second scheme against the same graph rides the same oracle for free.
    let before = apsp_compute_count();
    let lm = LandmarkScheme::build(&g, &oracle, 1).unwrap();
    let lm_report = verify(&g, &lm, &oracle, 1).unwrap();
    assert!(lm_report.all_delivered());
    assert_eq!(apsp_compute_count() - before, 0, "landmark reuses the existing oracle");

    // Parallel and serial verification produce identical reports.
    std::env::set_var("ORT_THREADS", "1");
    let serial = verify(&g, &scheme, &oracle, 1).unwrap();
    std::env::set_var("ORT_THREADS", "3");
    let parallel = verify(&g, &scheme, &oracle, 1).unwrap();
    assert_eq!(serial.delivered, parallel.delivered);
    assert_eq!(serial.total_hops, parallel.total_hops);
    assert_eq!(serial.stretches, parallel.stretches);
    assert_eq!(serial.failures, parallel.failures);

    // The sampled door streams bands instead of building the matrix.
    for stride in [1, 7] {
        let before = apsp_compute_count();
        let streamed = verify_scheme_sampled(&g, &scheme, stride).unwrap();
        assert_eq!(apsp_compute_count() - before, 0, "verify_scheme_sampled computes no APSP");
        assert_eq!(streamed, verify(&g, &scheme, &oracle, stride).unwrap());
    }
}
