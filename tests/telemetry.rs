//! The telemetry layer's integration contract: spans nest across scoped
//! threads, counter totals are thread-count invariant, the JSONL sink
//! round-trips, and active sinks never perturb result files.
//!
//! Every test mutates process-global state (the telemetry registry,
//! `ORT_THREADS`), so they serialise on one mutex instead of relying on
//! the harness's thread-per-test default.

#![cfg(feature = "telemetry")]

use std::sync::Mutex;

use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::telemetry as tel;

static LOCK: Mutex<()> = Mutex::new(());

/// Spans opened inside `std::thread::scope` workers nest under the parent
/// span captured before the scope, and their counts aggregate.
#[test]
fn spans_nest_across_scoped_threads() {
    let _serial = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    tel::reset();
    {
        let _outer = tel::span("scope_parent");
        let ctx = tel::Context::current();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let ctx = ctx.clone();
                s.spawn(move || {
                    let _inherit = ctx.enter();
                    let _child = tel::span("scope_worker");
                });
            }
        });
    }
    let snap = tel::snapshot();
    let paths = snap.span_paths();
    assert!(
        paths.contains(&vec!["scope_parent", "scope_worker"]),
        "worker spans must nest under the pre-scope parent, got {paths:?}"
    );
    assert!(paths.contains(&vec!["scope_parent"]));
    assert_eq!(snap.span_totals("scope_worker").0, 2, "one record per worker thread");
    assert_eq!(snap.span_totals("scope_parent").0, 1);
}

/// The full counter table — not just a few named totals — is identical
/// whether the instrumented work ran on 1, 2 or 8 worker threads.
#[test]
fn counters_are_thread_count_invariant() {
    let _serial = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let g = generators::gnp_half(48, 3);
    let mut tables: Vec<Vec<(&'static str, u64)>> = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("ORT_THREADS", threads);
        tel::reset();
        let apsp = Apsp::compute(&g);
        let oracle = apsp.into_oracle();
        let scheme = optimal_routing_tables::conformance::registry::SchemeId::Theorem1
            .build(&g)
            .expect("theorem 1 on G(48, 1/2)");
        verify::verify_scheme_with_oracle(&g, scheme.as_ref(), &oracle).expect("verify");
        tables.push(tel::snapshot().counters);
    }
    std::env::remove_var("ORT_THREADS");

    assert!(
        tables[0].iter().any(|&(n, v)| n == "apsp.frontier_expansions" && v > 0),
        "the APSP hot path must be instrumented, got {:?}",
        tables[0]
    );
    assert!(tables[0].iter().any(|&(n, v)| n == "verify.pairs" && v > 0));
    for (i, t) in tables.iter().enumerate().skip(1) {
        assert_eq!(&tables[0], t, "counter table differs between 1 and {} threads", [1, 2, 8][i]);
    }
}

/// The JSONL stream reproduces every span, counter and gauge event
/// exactly, including span fields.
#[test]
fn jsonl_stream_round_trips() {
    let _serial = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    tel::reset();
    {
        let _outer = tel::span_with(
            "rt_outer",
            &[("n", tel::FieldValue::Int(48)), ("scheme", tel::FieldValue::Str("t1"))],
        );
        let _inner = tel::span("rt_inner");
    }
    tel::counter!("rt.events").add(41);
    tel::counter!("rt.events").incr();
    tel::gauge!("rt.depth").set_max(7);

    let snap = tel::snapshot();
    let parsed = tel::sink::parse_jsonl(&snap.jsonl()).expect("stream must parse");
    assert_eq!(parsed, snap.to_parsed(), "decoded stream differs from the snapshot it came from");
    // The registry is append-only: counters registered by earlier tests in
    // this process survive `reset()` at value 0, so look up by name.
    let counter = |name: &str| parsed.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    assert_eq!(counter("rt.events"), Some(42));
    let gauge = |name: &str| parsed.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    assert_eq!(gauge("rt.depth"), Some(7));
    assert_eq!(parsed.spans.len(), 2);
    assert_eq!(parsed.spans[1].path, vec!["rt_outer"]);
}

/// Running the CLI with every sink active produces `CONFORMANCE.json`,
/// `RESILIENCE.json` and `CHURN.json` byte-identical to the checked-in
/// snapshots: the observability layer observes, it never perturbs. (The
/// telemetry-*off* half of the guarantee is CI's `--no-default-features`
/// regeneration diff — one binary cannot toggle a compile-time feature.)
///
/// The comparison masks the manifest's *volatile* provenance lines
/// (threads/features/telemetry/build) — those legitimately record the
/// environment, and this test runs inside CI's `ORT_THREADS` matrix.
/// Everything else, payload included, must match byte for byte.
#[test]
fn result_files_are_byte_identical_with_sinks_active() {
    let _serial = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let exe = env!("CARGO_BIN_EXE_ort");
    for (cmd, checked_in) in [
        ("conformance", "results/CONFORMANCE.json"),
        ("resilience", "results/RESILIENCE.json"),
        ("churn", "results/CHURN.json"),
    ] {
        let out = std::env::temp_dir().join(format!("ort-telemetry-guard-{cmd}.json"));
        let jsonl = std::env::temp_dir().join(format!("ort-telemetry-guard-{cmd}.jsonl"));
        let status = std::process::Command::new(exe)
            .arg(cmd)
            .arg(&out)
            .env("ORT_TELEMETRY", format!("summary,jsonl:{}", jsonl.display()))
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("spawn ort");
        assert!(status.success(), "ort {cmd} failed under active sinks");

        let fresh = std::fs::read_to_string(&out).expect("read fresh report");
        let baseline = std::fs::read_to_string(checked_in).expect("read checked-in report");
        assert_eq!(
            optimal_routing_tables::manifest::mask_volatile(&fresh),
            optimal_routing_tables::manifest::mask_volatile(&baseline),
            "ort {cmd} output drifted under active telemetry sinks"
        );

        let stream = std::fs::read_to_string(&jsonl).expect("jsonl sink file");
        let parsed = tel::sink::parse_jsonl(&stream).expect("sink stream must parse");
        assert!(!parsed.spans.is_empty(), "ort {cmd} recorded no spans");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&jsonl);
    }
}
