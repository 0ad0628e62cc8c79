//! Conformance & differential-testing subsystem for the
//! optimal-routing-tables workspace.
//!
//! Correctness here is a first-class, continuously-run artifact with three
//! pillars (driven by `ort conformance`, reported in
//! `results/CONFORMANCE.json`):
//!
//! 1. **Differential oracle** ([`differential`]) — every registered scheme
//!    ([`registry::SchemeId::ALL`]) is routed pair-by-pair against the
//!    full-table reference and the shared APSP [`DistanceOracle`], on
//!    *every* connected graph up to `n = 6` (exhaustive, one
//!    representative per isomorphism class via [`enumerate`]/graph6) and
//!    on seeded `G(n, 1/2)` sweeps above.
//! 2. **Structure-aware snapshot fuzzing** ([`fuzz`], engine in
//!    [`mutate`]) — valid `snapshot::save` bitstreams are truncated,
//!    bit-flipped and length-corrupted; `load`/`route_pair` must fail
//!    cleanly (`SchemeError`/`RouteFailure`), never panic, never loop past
//!    the hop limit.
//! 3. **Bound conformance** ([`bounds`]) — the paper's Table 1 /
//!    Theorem 1–5 space and stretch claims as machine-checked
//!    inequalities, evaluated on instances certified operationally
//!    Kolmogorov-random through the compressor-suite deficiency
//!    estimator.
//!
//! [`DistanceOracle`]: ort_graphs::paths::DistanceOracle

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod differential;
pub mod enumerate;
pub mod fuzz;
pub mod mutate;
// The JSON implementation lives in ort-telemetry; this path stays only
// because the benchmark's library API imports `conformance::json::Json`.
pub use ort_telemetry::json;
pub mod registry;
pub mod report;
