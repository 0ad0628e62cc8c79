//! Fuzz-style robustness tests: corrupted or random bit streams fed to
//! every decoder must produce clean errors (or wrong-but-well-formed
//! graphs/routes), never panics. This matters because the lower-bound
//! experiments *intentionally* run decoders over adversarial content.
//!
//! The noise and corruption here come from the conformance crate's shared
//! mutation engine (`conformance::mutate`), the same one `ort conformance`
//! drives for ≥ 10k snapshot mutations in CI — one engine, one seed
//! discipline, reproducible failures everywhere.

use proptest::prelude::*;

use optimal_routing_tables::bitio::BitReader;
use optimal_routing_tables::conformance::mutate::{mutate, random_bits};
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::graphs::{generators, Graph};
use optimal_routing_tables::kolmogorov::codecs::{lemma1, lemma2, lemma3};
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::theorem1::Theorem1Scheme;
use optimal_routing_tables::routing::verify::verify;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn codec_decoders_never_panic_on_noise(seed in any::<u64>(), len in 0usize..2000) {
        let bits = random_bits(seed, len);
        let n = 24;
        // Any result is fine; panicking is not.
        let _ = lemma1::decode(&bits, n);
        let _ = lemma2::decode(&bits, n);
        let _ = lemma3::decode(&bits, n, 3);
        let _ = Graph::from_edge_bits(n, &bits);
    }

    #[test]
    fn codec_decoders_never_panic_on_mutants(seed in any::<u64>()) {
        // Start from *valid* encodings and run the structure-aware mutation
        // engine over them — truncations, bursts and length-field flips are
        // the adversarial cases closest to passing validation.
        let g = generators::connected_gnp(30, 0.12, seed % 100);
        if let Some((u, v)) = lemma2::find_distant_pair(&g) {
            let enc = lemma2::encode(&g, u, v).unwrap();
            for i in 0..24 {
                let (bad, _) = mutate(&enc, seed.wrapping_add(i));
                let _ = lemma2::decode(&bad, 30);
            }
        }
        let enc = lemma1::encode(&g, 3).unwrap();
        for i in 0..24 {
            let (bad, _) = mutate(&enc, seed.wrapping_add(1000 + i));
            let _ = lemma1::decode(&bad, 30);
        }
    }

    #[test]
    fn corrupted_routing_tables_fail_cleanly(seed in any::<u64>(), mseed in any::<u64>()) {
        let g = generators::gnp_half(32, seed % 50);
        let dists = Apsp::compute(&g);
        let Ok(mut scheme) = Theorem1Scheme::build(&g, &dists) else { return Ok(()); };
        // Mutate one node's table via the public clone-and-rebuild path:
        // re-verify must complete without panicking, reporting either
        // success (mutation landed in don't-care bits) or failures.
        let victim = (mseed % 32) as usize;
        let bits = scheme.node_bits(victim).clone();
        if bits.is_empty() { return Ok(()); }
        let (corrupted, _) = mutate(&bits, mseed);
        scheme.replace_node_bits(victim, corrupted);
        let report = verify(&g, &scheme, &dists, 1).unwrap();
        // Either everything still works (rare) or failures are reported.
        let _ = report.all_delivered();
    }

    #[test]
    fn bitreader_seek_and_read_are_total(seed in any::<u64>(), len in 0usize..256) {
        let bits = random_bits(seed, len);
        let mut r = BitReader::new(&bits);
        let _ = r.seek(len / 2);
        let _ = r.read_bits(((seed % 70) as u32).min(64));
        let _ = r.read_unary();
        let _ = optimal_routing_tables::bitio::codes::read_elias_gamma(&mut r);
        let _ = optimal_routing_tables::bitio::codes::read_elias_delta(&mut r);
        let _ = optimal_routing_tables::bitio::codes::read_selfdelim_prime(&mut r);
    }
}
