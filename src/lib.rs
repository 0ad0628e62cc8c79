//! # Optimal Routing Tables
//!
//! A production-quality Rust reproduction of Buhrman, Hoepman & Vitányi,
//! *"Optimal Routing Tables"*, PODC 1996 — compact routing schemes, their
//! bit-exact encodings, and the incompressibility machinery behind the
//! paper's matching lower bounds.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`bitio`] — bit vectors and the paper's self-delimiting codes.
//! * [`graphs`] — graphs, generators (incl. Kolmogorov-random stand-ins and
//!   the Figure 1 graph), shortest paths, ports, labels, Lemma 1–3 checks.
//! * [`kolmogorov`] — randomness-deficiency estimation and the constructive
//!   proof codecs of Lemmas 1–3 / Theorems 6 & 10.
//! * [`routing`] — the nine routing models, the Theorem 1–5 schemes,
//!   baselines, verification, and the Theorem 6–10 lower-bound accounting.
//! * [`simnet`] — a message-passing simulator that runs schemes from their
//!   decoded bits only.
//! * [`conformance`] — the cross-scheme differential oracle, snapshot
//!   fuzzer, and machine-checked Table 1 bound suite behind
//!   `ort conformance` and `results/CONFORMANCE.json`.
//!
//! Seven CLI-facing modules live in this crate directly:
//!
//! * [`profile`] — the instrumented single-scheme run behind
//!   `ort profile` (span tree, counters, per-node bit accounting).
//! * [`trace`] — the capture-and-explain run behind `ort trace`
//!   (per-message route tracing with hop-by-hop stretch attribution).
//! * [`sweep`] — the fault-intensity sweep behind `ort resilience`,
//!   including its trace-backed diagnostics
//!   (`results/RESILIENCE_DIAGNOSTICS.json`).
//! * [`churn`] — the continuous-churn sweep behind `ort churn` and
//!   `results/CHURN.json` (incremental repair vs cold rebuild,
//!   byte-identity and verify-equality after every event).
//! * [`manifest`] — run manifests: every results file carries provenance
//!   (subcommand, args, seeds, payload digest, thread/feature state) and
//!   appends a one-line summary to `results/HISTORY.jsonl`.
//! * [`gate`] — the declarative check table: `(source, JSON path,
//!   Exact | Bound)` rows over the results files and three fresh probes
//!   (bit breakdown, allocator memory, repair vs rebuild).
//! * [`report`] — `ort report` and `results/REPORT.json`: runs the check
//!   table and compares its exact values against a baseline report.
//!
//! Speed is measured end to end by the benchmark of record,
//! `examples/ortbench` (see its README), not by this crate.
//!
//! # Quickstart
//!
//! ```
//! use optimal_routing_tables::graphs::generators;
//! use optimal_routing_tables::routing::schemes::theorem1::Theorem1Scheme;
//! use optimal_routing_tables::routing::scheme::RoutingScheme;
//! use optimal_routing_tables::routing::verify;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A Kolmogorov-random graph stand-in: uniform G(n, 1/2).
//! let g = generators::gnp_half(64, 7);
//!
//! // Build the paper's Theorem 1 shortest-path scheme (≤ 6n bits/node).
//! let scheme = Theorem1Scheme::build(&g)?;
//!
//! // Its size is honest: the bits really decode back into working routers.
//! let total_bits = scheme.total_size_bits();
//! assert!(total_bits <= 6 * 64 * 64);
//!
//! // And it routes every pair along shortest paths.
//! let report = verify::verify_scheme(&g, &scheme)?;
//! assert_eq!(report.max_stretch(), Some(1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod churn;
pub mod gate;
pub mod manifest;
pub mod profile;
pub mod report;
pub mod sweep;
pub mod trace;

pub use ort_bitio as bitio;
pub use ort_conformance as conformance;
pub use ort_graphs as graphs;
pub use ort_kolmogorov as kolmogorov;
pub use ort_routing as routing;
pub use ort_simnet as simnet;
pub use ort_telemetry as telemetry;
