//! The tracing layer's integration contract: captured traces are
//! byte-identical at every worker count, the explainer's stretch
//! attribution reconciles exactly against the verifier for every registry
//! scheme, failed walks name a fault event the plan actually scheduled,
//! and an active recorder never perturbs the checked-in result files.
//!
//! Every test mutates process-global state (the installed recorder,
//! `ORT_THREADS`), so they serialise on one mutex instead of relying on
//! the harness's thread-per-test default.

#![cfg(feature = "telemetry")]

use std::sync::{Arc, Mutex};

use optimal_routing_tables::conformance::registry::SchemeId;
use optimal_routing_tables::conformance::report;
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::graphs::ports::PortAssignment;
use optimal_routing_tables::routing::explain;
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::simnet::faults::FaultPlan;
use optimal_routing_tables::simnet::resilience::resilience_hop_limit;
use optimal_routing_tables::simnet::Network;
use optimal_routing_tables::sweep;
use optimal_routing_tables::telemetry::trace::{self as trace_api, HopKind, TraceRecorder};

static LOCK: Mutex<()> = Mutex::new(());

/// The trace of a full verification pass is byte-identical whether the
/// verifier ran on 1, 2 or 8 worker threads: every event id is assigned
/// by the deterministic simulation, never by arrival order.
#[test]
fn traces_are_byte_identical_across_thread_counts() {
    let _serial = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let ambient = std::env::var("ORT_THREADS").ok();
    let g = generators::gnp_half(48, 3);
    let oracle = Apsp::compute(&g);
    let scheme = SchemeId::Theorem4
        .build_with_dists(&g, &oracle)
        .expect("theorem 4 on G(48, 1/2)");

    let mut captures: Vec<String> = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("ORT_THREADS", threads);
        let recorder = TraceRecorder::unfiltered();
        {
            let _guard = trace_api::install(Arc::clone(&recorder));
            verify::verify(&g, scheme.as_ref(), &oracle, 1).expect("verify");
        }
        assert!(recorder.event_count() > 0, "verification must be traced at {threads} threads");
        captures.push(format!("{:#?}", recorder.messages()));
    }
    match ambient {
        Some(v) => std::env::set_var("ORT_THREADS", v),
        None => std::env::remove_var("ORT_THREADS"),
    }

    assert_eq!(captures[0], captures[1], "trace differs between 1 and 2 threads");
    assert_eq!(captures[0], captures[2], "trace differs between 1 and 8 threads");
}

/// The acceptance criterion: for every scheme in the registry at n = 64,
/// every traced pair's attribution reconciles exactly, and the attributed
/// hop totals re-add to the verifier's independent count bit for bit.
#[test]
fn every_scheme_attribution_reconciles_at_n_64() {
    let _serial = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let n = 64;
    let g = generators::gnp_half(n, 1);
    let oracle = Apsp::compute(&g);

    for id in SchemeId::ALL {
        let scheme = id
            .build_with_dists(&g, &oracle)
            .unwrap_or_else(|e| panic!("{} on G(64, 1/2): {e}", id.name()));
        let recorder = TraceRecorder::unfiltered();
        let report = {
            let _guard = trace_api::install(Arc::clone(&recorder));
            verify::verify(&g, scheme.as_ref(), &oracle, 1).expect("verify")
        };
        let messages = recorder.messages();
        assert_eq!(messages.len(), n * (n - 1), "{} must trace every ordered pair", id.name());

        let mut attributed_hops = 0u64;
        let mut delivered = 0usize;
        for trace in &messages {
            let ex = explain::explain(&oracle, trace)
                .unwrap_or_else(|e| panic!("{}: {} -> {}: {e}", id.name(), trace.src, trace.dst));
            assert!(
                ex.reconciles(),
                "{}: attribution for {} -> {} does not reconcile",
                id.name(),
                trace.src,
                trace.dst
            );
            // For a delivered walk the telescoping sum is exact, so the
            // measured hop count is recoverable as distance + excess.
            if let Some(excess) = ex.delivered_excess() {
                attributed_hops += u64::from(ex.distance) + excess;
                delivered += 1;
            }
        }
        assert_eq!(delivered, report.delivered, "{}: delivery counts disagree", id.name());
        assert_eq!(
            attributed_hops,
            report.total_hops,
            "{}: attributed hops must re-add to the verifier's total exactly",
            id.name()
        );
    }
}

/// Every failed walk under a seeded fault load carries `Blocked` events,
/// and each one names a fault event the plan actually scheduled — never a
/// fault the per-hop check did not fire.
#[test]
fn failed_walks_name_a_scheduled_fault_event() {
    let _serial = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let n = 24;
    let g = generators::gnp_half(n, 5);
    let oracle = Apsp::compute(&g);
    let scheme = SchemeId::FullTable.build_with_dists(&g, &oracle).expect("full table");
    let plan = FaultPlan::random_link_faults(&PortAssignment::sorted(&g), 0.3, 11);

    let recorder = TraceRecorder::unfiltered();
    let mut failed_sends = 0usize;
    {
        let _guard = trace_api::install(Arc::clone(&recorder));
        let mut net = Network::new(scheme.as_ref());
        net.set_hop_limit(resilience_hop_limit(n));
        net.set_fault_plan(plan.clone()).expect("plan fits the topology");
        for s in 0..n {
            for t in 0..n {
                if s != t && net.send(s, t).is_err() {
                    failed_sends += 1;
                }
            }
        }
    }

    let messages = recorder.messages();
    assert_eq!(messages.len(), n * (n - 1), "every send must be traced");
    let failed: Vec<_> = messages.iter().filter(|m| !m.delivered()).collect();
    assert_eq!(failed.len(), failed_sends, "trace and send outcomes disagree");
    assert!(!failed.is_empty(), "a 30% link-fault load must break at least one pair");

    for trace in failed {
        let mut blocked_events = 0usize;
        for e in trace.attempts.iter().flat_map(|a| &a.events) {
            if let HopKind::Blocked { next, fault, .. } = &e.kind {
                blocked_events += 1;
                let tf = plan.blocking_event(e.time, e.node, *next, *fault).unwrap_or_else(|| {
                    panic!(
                        "blocked hop {} -> {next} at t={} names no scheduled event",
                        e.node, e.time
                    )
                });
                assert!(!tf.event.to_string().is_empty());
            }
        }
        assert!(
            blocked_events > 0,
            "a failed full-table walk can only die on a vetoed hop ({} -> {})",
            trace.src,
            trace.dst
        );
        // The explainer surfaces the same veto for the diagnostics layer.
        let ex = explain::explain(&oracle, trace).expect("explain failed walk");
        assert!(ex.reconciles(), "failed walk {} -> {} must still reconcile", trace.src, trace.dst);
        let b = ex
            .attempts
            .iter()
            .find_map(|a| a.blocked.as_ref())
            .expect("explainer must surface the vetoed hop");
        assert!(plan.blocking_event(b.time, b.node, b.to, b.fault).is_some());
    }
}

/// Running the conformance suite and the resilience sweep with a trace
/// recorder installed produces reports byte-identical to the checked-in
/// snapshots: the recorder observes, it never perturbs. (The subprocess
/// half — active *sinks* — is tests/telemetry.rs; this is the in-process
/// half with an active *recorder*.)
#[test]
fn result_files_are_byte_identical_with_tracing_active() {
    let _serial = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let recorder = TraceRecorder::for_pair(0, 1);
    let _guard = trace_api::install(Arc::clone(&recorder));

    // The checked-in files carry a run manifest (stamped at write time);
    // the in-process payloads do not, so compare against the unstamped
    // payload — the manifest layer is covered by tests/results_schema.rs.
    let payload_of = |path: &str| {
        let text = std::fs::read_to_string(path).expect("checked-in report");
        optimal_routing_tables::report::unstamp(&text).expect("stamped report").1
    };

    let result = report::run(&report::Config::default(), |_| {}).expect("conformance suite");
    assert!(result.pass(), "conformance violations under tracing: {:?}", result.violations);
    let fresh = report::to_json(&result).pretty();
    assert_eq!(
        fresh,
        payload_of("results/CONFORMANCE.json"),
        "CONFORMANCE.json drifted under an active trace recorder"
    );

    let outcome = sweep::resilience_sweep(false, |_| {}).expect("resilience sweep");
    assert!(outcome.violations.is_empty(), "resilience violations: {:?}", outcome.violations);
    assert_eq!(
        outcome.report.pretty(),
        payload_of("results/RESILIENCE.json"),
        "RESILIENCE.json drifted under an active trace recorder"
    );
    let diagnostics = outcome.diagnostics.expect("telemetry is on, diagnostics must exist");
    assert_eq!(
        diagnostics.pretty(),
        payload_of("results/RESILIENCE_DIAGNOSTICS.json"),
        "RESILIENCE_DIAGNOSTICS.json drifted"
    );

    assert!(recorder.event_count() > 0, "the recorder must have observed the runs");
}
