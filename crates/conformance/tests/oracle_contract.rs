//! Conformance: distance-oracle contracts over the exhaustive corpus.
//!
//! On every connected graph on `n ≤ 6` nodes (up to isomorphism) the
//! banded streaming oracle must equal the full-matrix oracle on every
//! pair, at every band granularity, and both must advertise themselves
//! as exact.

use ort_conformance::enumerate;
use ort_graphs::oracle::{BandedOracle, Distances};
use ort_graphs::paths::Apsp;

#[test]
fn banded_oracle_is_exact_on_every_small_connected_graph() {
    for n in 2..=6 {
        for g in enumerate::connected_graphs(n) {
            let apsp = Apsp::compute(&g);
            assert!(apsp.is_exact());
            for band_rows in [1, 2, n] {
                let banded = BandedOracle::new(g.clone(), band_rows);
                assert!(banded.is_exact());
                for u in 0..n {
                    for v in 0..n {
                        assert_eq!(
                            banded.distance(u, v),
                            apsp.distance(u, v),
                            "band_rows={band_rows}, pair ({u}, {v}), n={n}"
                        );
                    }
                }
            }
        }
    }
}
