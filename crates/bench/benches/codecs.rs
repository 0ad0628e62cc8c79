//! Criterion benches: the bit machinery — canonical `E(G)` coding,
//! enumerative subset ranking, permutation ranking, and the Lemma 1 /
//! Theorem 6 incompressibility codecs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ort_bitio::{enumerative, lehmer, BitWriter};
use ort_graphs::paths::Apsp;
use ort_graphs::{generators, Graph, NodeId};
use ort_kolmogorov::codecs::{lemma1, theorem6};
use ort_kolmogorov::deficiency::{Compressor, CompressorSuite, Order0};
use ort_routing::lower_bounds::theorem6 as t6glue;
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::theorem1::Theorem1Scheme;

fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("codecs");
    for n in [128usize, 256] {
        let g = generators::gnp_half(n, 2);
        group.bench_with_input(BenchmarkId::new("edge_bits_roundtrip", n), &g, |b, g| {
            b.iter(|| {
                let bits = g.to_edge_bits();
                black_box(Graph::from_edge_bits(g.node_count(), &bits).unwrap())
            });
        });
        let subset: Vec<usize> = (0..n).filter(|i| i % 3 != 0).collect();
        group.bench_with_input(BenchmarkId::new("enumerative_subset", n), &subset, |b, s| {
            b.iter(|| {
                let mut w = BitWriter::new();
                enumerative::encode_subset(&mut w, n, s).unwrap();
                black_box(w.finish())
            });
        });
        let perm: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
        if lehmer::validate_permutation(&perm).is_ok() {
            group.bench_with_input(BenchmarkId::new("permutation_rank", n), &perm, |b, p| {
                b.iter(|| black_box(lehmer::permutation_rank(p).unwrap()));
            });
        }
        group.bench_with_input(BenchmarkId::new("lemma1_codec", n), &g, |b, g| {
            b.iter(|| {
                let bits = lemma1::encode(g, 0).unwrap();
                black_box(lemma1::decode(&bits, g.node_count()).unwrap())
            });
        });
        group.bench_with_input(BenchmarkId::new("order0_compress", n), &g, |b, g| {
            let bits = g.to_edge_bits();
            b.iter(|| black_box(Order0.compress(&bits)));
        });
        group.bench_with_input(BenchmarkId::new("deficiency_suite", n), &g, |b, g| {
            let suite = CompressorSuite::standard();
            b.iter(|| black_box(suite.graph_deficiency(g)));
        });
    }
    // Theorem 6 codec through real scheme bits (the flagship experiment).
    let n = 128usize;
    let g = generators::gnp_half(n, 3);
    let scheme = Theorem1Scheme::build(&g, &Apsp::compute(&g)).unwrap();
    group.bench_function("theorem6_codec_n128", |b| {
        let u = 0usize;
        let f = scheme.node_bits(u).clone();
        let eval = move |bits: &ort_bitio::BitVec, nbrs: &[NodeId], w: NodeId| {
            t6glue::eval_theorem1(bits, n, u, nbrs, w)
        };
        b.iter(|| {
            let enc = theorem6::encode(&g, u, &f, &eval).unwrap();
            black_box(theorem6::decode(&enc, n, &eval).unwrap())
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_codecs
}
criterion_main!(benches);
