//! Property-based integration tests: across random seeds and sizes, every
//! scheme that accepts a graph must deliver everywhere within its stretch
//! bound, from decoded bits alone.

use proptest::prelude::*;

use optimal_routing_tables::bitio::{bits_to_index, BitVec, BitWriter};
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::labels::{Label, Labeling};
use optimal_routing_tables::graphs::ports::PortAssignment;
use optimal_routing_tables::routing::scheme::{NeighborLabels, RoutingScheme};
use optimal_routing_tables::routing::schemes::{
    full_information::FullInformationScheme, full_table::FullTableScheme,
    ia_compact::IaCompactScheme, interval::IntervalScheme, landmark::LandmarkScheme,
    multi_interval::MultiIntervalScheme, theorem1::Theorem1Scheme, theorem2::Theorem2Scheme,
    theorem3::Theorem3Scheme, theorem4::Theorem4Scheme, theorem5::Theorem5Scheme,
};
use optimal_routing_tables::routing::verify::verify;
use optimal_routing_tables::graphs::paths::Apsp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn theorem_schemes_respect_their_stretch_bounds(seed in any::<u64>(), n in 24usize..56) {
        let g = generators::gnp_half(n, seed);
        // Small random graphs occasionally violate the diameter-2 /
        // Lemma 3 preconditions; constructors must then refuse rather than
        // misroute. When they accept, the bound must hold.
        let dists = Apsp::compute(&g);
        if let Ok(s) = Theorem1Scheme::build(&g, &dists) {
            let r = verify(&g, &s, &dists, 1).unwrap();
            prop_assert!(r.is_shortest_path());
        }
        if let Ok(s) = Theorem1Scheme::build_ib(&g, &dists) {
            // Model IB: the interconnection vector rides along, but routing
            // must stay shortest-path.
            let r = verify(&g, &s, &dists, 1).unwrap();
            prop_assert!(r.is_shortest_path());
        }
        if let Ok(s) = IaCompactScheme::build(&g, PortAssignment::sorted(&g), &dists) {
            // IA ∧ α: fixed port assignment, Theorem 8's constant — still
            // exact shortest paths when the precondition holds.
            let r = verify(&g, &s, &dists, 1).unwrap();
            prop_assert!(r.is_shortest_path());
        }
        if let Ok(s) = Theorem3Scheme::build(&g, &dists) {
            let r = verify(&g, &s, &dists, 1).unwrap();
            prop_assert!(r.all_delivered());
            prop_assert!(r.max_stretch().unwrap() <= 1.5);
        }
        if let Ok(s) = Theorem4Scheme::build(&g, &dists) {
            let r = verify(&g, &s, &dists, 1).unwrap();
            prop_assert!(r.all_delivered());
            prop_assert!(r.max_stretch().unwrap() <= 2.0);
        }
        if let Ok(s) = Theorem5Scheme::build(&g, &dists) {
            let r = verify(&g, &s, &dists, 1).unwrap();
            prop_assert!(r.all_delivered());
            prop_assert!(r.max_stretch().unwrap() <= s.probe_budget() as f64);
        }
        if let Ok(s) = Theorem2Scheme::build(&g, &dists) {
            let r = verify(&g, &s, &dists, 1).unwrap();
            prop_assert!(r.is_shortest_path());
        }
    }

    #[test]
    fn universal_schemes_work_on_arbitrary_connected_graphs(
        seed in any::<u64>(),
        n in 8usize..32,
        p in 0.15f64..0.9,
    ) {
        let g = generators::connected_gnp(n, p, seed % 1000);
        let dists = Apsp::compute(&g);
        let ft = FullTableScheme::build(&g, &dists).unwrap();
        prop_assert!(verify(&g, &ft, &dists, 1).unwrap().is_shortest_path());

        let fi = FullInformationScheme::build(&g, &dists).unwrap();
        prop_assert!(verify(&g, &fi, &dists, 1).unwrap().is_shortest_path());

        let iv = IntervalScheme::build(&g, &dists).unwrap();
        prop_assert!(verify(&g, &iv, &dists, 1).unwrap().all_delivered());

        let mi = MultiIntervalScheme::build(&g, &dists).unwrap();
        prop_assert!(verify(&g, &mi, &dists, 1).unwrap().is_shortest_path());

        let lm = LandmarkScheme::build(&g, &dists, seed).unwrap();
        prop_assert!(verify(&g, &lm, &dists, 1).unwrap().all_delivered());
    }

    #[test]
    fn banded_build_equals_full_width_build(
        seed in any::<u64>(),
        n in 8usize..40,
        band in 1usize..48,
    ) {
        // The band-streaming construction contract, sampled: at any band
        // width, every registry scheme must produce byte-for-byte the
        // scheme the full-width (whole-matrix-resident) oracle produces —
        // including identical refusals.
        use optimal_routing_tables::conformance::registry::SchemeId;
        use optimal_routing_tables::graphs::oracle::BandedOracle;
        let g = generators::connected_gnp(n, 0.4, seed % 1000);
        let band = band.min(n);
        let full = BandedOracle::new(g.clone(), n);
        let banded = BandedOracle::new(g.clone(), band);
        for id in SchemeId::ALL {
            match (id.build_with_dists(&g, &full), id.build_with_dists(&g, &banded)) {
                (Ok(a), Ok(b)) => {
                    for u in 0..n {
                        prop_assert_eq!(
                            a.node_bits(u),
                            b.node_bits(u),
                            "scheme {} at band width {}: node {} bits differ",
                            id.name(),
                            band,
                            u
                        );
                    }
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(
                    ea,
                    eb,
                    "scheme {} at band width {}: refusal differs",
                    id.name(),
                    band
                ),
                (a, b) => prop_assert!(
                    false,
                    "scheme {} at band width {}: acceptance differs (full {:?}, banded {:?})",
                    id.name(),
                    band,
                    a.map(|_| ()),
                    b.map(|_| ())
                ),
            }
        }
    }

    #[test]
    fn sizes_are_reproducible_and_bit_exact(seed in any::<u64>()) {
        // Building the same scheme twice yields identical bit strings —
        // the encodings are canonical, with no hidden nondeterminism.
        let g = generators::gnp_half(32, seed);
        let dists = Apsp::compute(&g);
        let (a, b) = (Theorem1Scheme::build(&g, &dists), Theorem1Scheme::build(&g, &dists));
        if let (Ok(a), Ok(b)) = (a, b) {
            for u in 0..32 {
                prop_assert_eq!(a.node_bits(u), b.node_bits(u));
            }
            prop_assert_eq!(a.total_size_bits(), b.total_size_bits());
        }
    }

    #[test]
    fn neighbour_label_lookups_match_a_scan(seed in any::<u64>(), n in 2usize..40) {
        // Whatever the labelling and the port assignment, `port_of` finds
        // the port a scan comparing every neighbour's label finds: for
        // permuted minimal labels, for γ labels that lead with their own
        // node's id (as Theorem 2's do), with another node's id, or are
        // too short to hold one, and for labels no node carries.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::gnp_half(n, seed);
        let width = bits_to_index(n as u64);
        let lead = |id: usize, tail: u64| {
            let mut w = BitWriter::new();
            w.write_bits(id as u64, width).unwrap();
            w.write_bits(tail, 8).unwrap();
            w.finish()
        };
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let labelings = [
            Labeling::permutation(perm.clone()).unwrap(),
            Labeling::arbitrary((0..n).map(|v| lead(v, rng.gen_range(0..256))).collect()).unwrap(),
            Labeling::arbitrary((0..n).map(|v| lead(perm[v], v as u64)).collect()).unwrap(),
            Labeling::arbitrary((0..n).map(|v| BitVec::from_bools(&vec![true; v])).collect()).unwrap(),
        ];
        let adversarial = PortAssignment::adversarial(&g, &mut rng);
        let orders = g.nodes().map(|u| adversarial.order(u).to_vec()).collect();
        let assignments =
            [PortAssignment::sorted(&g), PortAssignment::from_orders(&g, orders), adversarial];
        for labeling in &labelings {
            let mut long = lead(0, 7);
            long.push(true);
            let strays = [Label::Minimal(n), Label::Bits(long), Label::Bits(BitVec::new())];
            let labels: Vec<Label> =
                (0..n).map(|v| labeling.label_of(v)).chain(strays).collect();
            for pa in &assignments {
                for u in g.nodes() {
                    let view = NeighborLabels::new(labeling, pa, u);
                    for label in &labels {
                        let scan = view.iter().position(|l| l == *label);
                        prop_assert_eq!(view.port_of(label), scan, "{} → {}", u, label);
                    }
                }
            }
        }
    }

    #[test]
    fn theorem1_size_bound_holds_across_seeds(seed in any::<u64>()) {
        let n = 64usize;
        let g = generators::gnp_half(n, seed);
        if let Ok(s) = Theorem1Scheme::build(&g, &Apsp::compute(&g)) {
            for u in 0..n {
                prop_assert!(s.node_size_bits(u) <= 6 * n, "node {} has {} bits", u, s.node_size_bits(u));
            }
        }
    }
}
