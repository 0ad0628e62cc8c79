//! One thread, one fill per band: `verify` reads each sampled source's
//! row once, sources ascending, so on one thread a `BandedOracle` fills
//! each band the walk needs exactly once.
//!
//! This file holds exactly one test because it sets `ORT_THREADS` for its
//! whole process; integration-test files get their own process.

use std::collections::BTreeSet;

use ort_graphs::generators;
use ort_graphs::oracle::BandedOracle;
use ort_graphs::paths::Apsp;
use ort_routing::schemes::full_table::FullTableScheme;
use ort_routing::verify::{sampled_targets, verify};

#[test]
fn one_thread_verify_fills_each_band_at_most_once() {
    std::env::set_var("ORT_THREADS", "1");
    let n = 200;
    let band_rows = 16;
    let g = generators::connected_gnp(n, 0.03, 5);
    let apsp = Apsp::compute(&g);
    let scheme = FullTableScheme::build(&g, &apsp).unwrap();
    // Strides that sample every source, sources 101..=199 but 150, and none.
    for stride in [1, 3, 300, 400] {
        let banded = BandedOracle::new(g.clone(), band_rows);
        let report = verify(&g, &scheme, &banded, stride).unwrap();
        assert_eq!(report, verify(&g, &scheme, &apsp, stride).unwrap(), "stride {stride}");
        // One row per source with a target: the bands those rows lie in,
        // each filled once. Connectivity comes from the oracle's
        // construction sweep, so it fills no band.
        let needed: BTreeSet<usize> = (0..n)
            .filter(|&s| sampled_targets(s, n, stride).next().is_some())
            .map(|s| s / band_rows)
            .collect();
        assert_eq!(banded.bands_computed(), needed.len() as u64, "stride {stride}");
    }
}
