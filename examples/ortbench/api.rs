//! The benchmark's only door into the library: every call `ortbench`
//! makes goes through a function or type in this file, so an API change
//! has one place to follow. It uses `SchemeId::{from_name,
//! build_with_dists, hop_cap, snapshot_kind}`, the `Distances` and
//! `RoutingScheme` traits (the router calls `route_pair` makes, for the
//! traced replays), `Apsp::compute`, `BandedOracle::{new,
//! bands_computed}`, `verify::{route_pair, verify_scheme_sampled,
//! default_hop_limit}`, `snapshot::{save, load}`, `RepairableScheme`,
//! `DeltaOracle`, `simnet::Network`, `ChurnPlan`, `generators`,
//! `manifest::build_info`, and the library's JSON value for the
//! benchmark's own files.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use optimal_routing_tables as ort;
use ort::graphs::delta::DeltaOracle;
use ort::graphs::generators;
use ort::graphs::oracle::{BandedOracle, Distances};
use ort::graphs::paths::Apsp;
use ort::routing::scheme::{MessageState, RouteDecision};
use ort::routing::snapshot::{self, SchemeKind};
use ort::routing::verify;
use ort::simnet::churn::{ChurnConfig, ChurnEvent, ChurnPlan};
use ort::simnet::Network;

pub use ort::bitio::BitVec;
pub use ort::conformance::json::Json;
pub use ort::conformance::registry::SchemeId;
pub use ort::graphs::{Graph, NodeId};
pub use ort::routing::repair::RepairableScheme;
pub use ort::routing::scheme::RoutingScheme;

pub type Scheme = Box<dyn RoutingScheme>;

pub fn build_info() -> String {
    ort::manifest::build_info()
}

pub fn json_parse(text: &str) -> Result<Json, String> {
    Json::parse(text)
}

pub fn json_line(value: &Json) -> String {
    value.compact()
}

// ---- inputs ---------------------------------------------------------------

pub fn gnp_half(n: usize, seed: u64) -> Graph {
    generators::gnp_half(n, seed)
}

pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    generators::gnm_seeded(n, m, seed)
}

pub fn power_law(n: usize, m: usize, gamma: f64, seed: u64) -> Graph {
    generators::power_law_seeded(n, m, gamma, seed)
}

pub fn node_count(g: &Graph) -> usize {
    g.node_count()
}

/// One link flap of a churn plan: `add` brings `{u, v}` up, else down.
#[derive(Debug, Clone, Copy)]
pub struct Flap {
    pub add: bool,
    pub u: NodeId,
    pub v: NodeId,
}

/// A connectivity-preserving plan of `steps` link flaps (add and remove
/// weighted 1:1, no joins or leaves) over `g`.
pub fn link_flaps(g: &Graph, steps: u64, seed: u64) -> Vec<Flap> {
    let config = ChurnConfig {
        steps,
        link_add_weight: 1,
        link_remove_weight: 1,
        join_weight: 0,
        leave_weight: 0,
        ..ChurnConfig::default()
    };
    ChurnPlan::generate(g, &config, seed)
        .events()
        .iter()
        .map(|e| match e.event {
            ChurnEvent::AddLink(u, v) => Flap { add: true, u, v },
            ChurnEvent::RemoveLink(u, v) => Flap { add: false, u, v },
            _ => unreachable!("joins and leaves have weight 0"),
        })
        .collect()
}

// ---- distance oracles -----------------------------------------------------

/// The distance source a scheme is built from.
pub enum Oracle {
    Full(Apsp),
    Banded(BandedOracle),
    Delta(DeltaOracle),
}

impl Oracle {
    pub fn full(g: &Graph) -> Oracle {
        Oracle::Full(Apsp::compute(g))
    }

    pub fn banded(g: Graph, rows: usize) -> Oracle {
        Oracle::Banded(BandedOracle::new(g, rows))
    }

    pub fn delta(g: Graph) -> Oracle {
        Oracle::Delta(DeltaOracle::new(g))
    }

    pub fn dists(&self) -> &dyn Distances {
        match self {
            Oracle::Full(o) => o,
            Oracle::Banded(o) => o,
            Oracle::Delta(o) => o,
        }
    }

    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.dists().distance(u, v)
    }

    pub fn peak_bytes(&self) -> usize {
        self.dists().peak_bytes()
    }

    /// Bands the streaming oracle has filled so far (0 for the others).
    pub fn bands_computed(&self) -> u64 {
        match self {
            Oracle::Banded(o) => o.bands_computed(),
            _ => 0,
        }
    }

    /// Applies one flap to a delta oracle and returns its dirty-set size.
    pub fn apply_flap(&mut self, f: Flap) -> Result<usize, String> {
        let Oracle::Delta(o) = self else {
            return Err("only the delta oracle absorbs churn".into());
        };
        let report = if f.add {
            o.add_edge(f.u, f.v)
        } else {
            o.remove_edge(f.u, f.v)
        };
        report.map(|r| r.dirty_nodes()).map_err(|e| e.to_string())
    }
}

/// Method names, in the index order of [`TimedDistances`]' counters.
const DIST_METHODS: [&str; 9] = [
    "node_count",
    "distance",
    "is_exact",
    "describe",
    "peak_bytes",
    "is_connected",
    "shortest_path_ports",
    "shortest_path",
    "first_hop_toward",
];

/// A [`Distances`] adapter that forwards every method explicitly, so a
/// builder's call pattern is unchanged, and counts and times each call.
/// Each call starts with two back-to-back clock reads: the gap between
/// them measures, in place, the one read each timed interval carries.
pub struct TimedDistances<'a> {
    inner: &'a dyn Distances,
    calls: [AtomicU64; 9],
    ns: [AtomicU64; 9],
    gap_ns: AtomicU64,
}

impl<'a> TimedDistances<'a> {
    pub fn new(inner: &'a dyn Distances) -> Self {
        TimedDistances {
            inner,
            calls: Default::default(),
            ns: Default::default(),
            gap_ns: AtomicU64::new(0),
        }
    }

    /// `(method, calls, ns)` for every method called at least once.
    pub fn totals(&self) -> Vec<(&'static str, u64, u64)> {
        (0..DIST_METHODS.len())
            .map(|i| {
                (
                    DIST_METHODS[i],
                    self.calls[i].load(Relaxed),
                    self.ns[i].load(Relaxed),
                )
            })
            .filter(|&(_, calls, _)| calls > 0)
            .collect()
    }

    /// The summed in-place cost of one clock read per timed call.
    pub fn clock_ns(&self) -> u64 {
        self.gap_ns.load(Relaxed)
    }

    fn time<R>(&self, method: usize, f: impl FnOnce() -> R) -> R {
        let a = Instant::now();
        let b = Instant::now();
        let r = f();
        let c = Instant::now();
        self.ns[method].fetch_add((c - b).as_nanos() as u64, Relaxed);
        self.gap_ns.fetch_add((b - a).as_nanos() as u64, Relaxed);
        self.calls[method].fetch_add(1, Relaxed);
        r
    }
}

impl Distances for TimedDistances<'_> {
    fn node_count(&self) -> usize {
        self.time(0, || self.inner.node_count())
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.time(1, || self.inner.distance(u, v))
    }

    fn is_exact(&self) -> bool {
        self.time(2, || self.inner.is_exact())
    }

    fn describe(&self) -> &'static str {
        self.time(3, || self.inner.describe())
    }

    fn peak_bytes(&self) -> usize {
        self.time(4, || self.inner.peak_bytes())
    }

    fn is_connected(&self) -> bool {
        self.time(5, || self.inner.is_connected())
    }

    fn shortest_path_ports(&self, g: &Graph, u: NodeId, v: NodeId) -> Vec<NodeId> {
        self.time(6, || self.inner.shortest_path_ports(g, u, v))
    }

    fn shortest_path(&self, g: &Graph, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        self.time(7, || self.inner.shortest_path(g, u, v))
    }

    fn first_hop_toward(&self, g: &Graph, u: NodeId, v: NodeId) -> Option<NodeId> {
        self.time(8, || self.inner.first_hop_toward(g, u, v))
    }
}

// ---- schemes --------------------------------------------------------------

pub fn scheme_named(name: &str) -> Option<SchemeId> {
    SchemeId::from_name(name)
}

pub fn build(id: SchemeId, g: &Graph, dists: &dyn Distances) -> Result<Scheme, String> {
    id.build_with_dists(g, dists)
        .map_err(|e| format!("{} build: {e}", id.name()))
}

/// The most hops `id` may take between nodes `dist` apart, or `None`
/// when it promises only delivery.
pub fn hop_cap(id: SchemeId, n: usize, dist: u32) -> Option<u32> {
    id.hop_cap(n, dist)
}

pub fn scheme_nodes(scheme: &dyn RoutingScheme) -> usize {
    scheme.node_count()
}

/// The quantity the paper charges: stored bits plus charged label bits.
pub fn table_bits(scheme: &dyn RoutingScheme) -> usize {
    scheme.total_size_bits()
}

pub fn same_node_bits(a: &dyn RoutingScheme, b: &dyn RoutingScheme) -> bool {
    a.node_count() == b.node_count()
        && (0..a.node_count()).all(|u| a.node_bits(u) == b.node_bits(u))
}

// ---- routing ----------------------------------------------------------------

pub fn hop_limit(n: usize) -> usize {
    verify::default_hop_limit(n)
}

/// One message through `verify::route_pair`; the path `[s, …, t]`.
pub fn route(
    scheme: &dyn RoutingScheme,
    s: NodeId,
    t: NodeId,
    limit: usize,
) -> Result<Vec<NodeId>, String> {
    let path = verify::route_pair(scheme, s, t, limit).map_err(|e| e.to_string())?;
    match path.last() {
        Some(&end) if end == t => Ok(path),
        end => Err(format!("route {s}→{t} ended at {end:?}")),
    }
}

/// How far [`replay`] goes at each node; each stage includes the ones
/// before it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Stage {
    /// `decode_router`, then drop the router.
    Decode,
    /// … and `node_env`, then drop the env.
    Env,
    /// … and `LocalRouter::route`.
    Route,
    /// … and `neighbor_at`: the whole walk, which must follow `path`.
    Port,
}

/// Replays a path `route_pair` walked, making at every node the library
/// calls `route_pair` makes, in its order, up to `upto`. At
/// [`Stage::Port`] this is the walk itself less the walk tracer, and
/// every hop must land on the path's next node and deliver at its end.
pub fn replay(scheme: &dyn RoutingScheme, path: &[NodeId], upto: Stage) -> Result<(), String> {
    let (&s, &t) = (
        path.first().ok_or("empty path")?,
        path.last().ok_or("empty path")?,
    );
    let dest = scheme.label_of(t);
    let ports = scheme.port_assignment();
    let mut state = MessageState {
        source: Some(scheme.label_of(s)),
        counter: 0,
    };
    for (k, &cur) in path.iter().enumerate() {
        let router = scheme
            .decode_router(cur)
            .map_err(|e| format!("router error at {cur}: {e}"))?;
        if upto == Stage::Decode {
            drop(std::hint::black_box(router));
            continue;
        }
        let env = std::hint::black_box(scheme.node_env(cur));
        if upto == Stage::Env {
            continue;
        }
        let decision = router
            .route(&env, &dest, &mut state)
            .map_err(|e| format!("router error at {cur}: {e}"))?;
        if upto == Stage::Route {
            std::hint::black_box(decision);
            continue;
        }
        let port = match decision {
            RouteDecision::Deliver if k + 1 == path.len() => return Ok(()),
            RouteDecision::Deliver => return Err(format!("delivered early at node {cur}")),
            RouteDecision::Forward(p) => p,
            RouteDecision::ForwardAny(ps) => {
                *ps.first().ok_or(format!("no usable port at node {cur}"))?
            }
        };
        let next = ports.neighbor_at(cur, port);
        if next != path.get(k + 1).copied() {
            return Err(format!("left the path at node {cur}: {next:?}"));
        }
    }
    match upto {
        Stage::Port => Err("walk ran off the path's end".into()),
        _ => Ok(()),
    }
}

/// A fault-free simulated network running `scheme`.
pub struct Sim<'a>(Network<'a>);

impl<'a> Sim<'a> {
    pub fn new(scheme: &'a dyn RoutingScheme) -> Self {
        Sim(Network::new(scheme))
    }

    pub fn send(&mut self, s: NodeId, t: NodeId) -> Result<Vec<NodeId>, String> {
        self.0.send(s, t).map(|d| d.path).map_err(|e| e.to_string())
    }
}

/// What `verify::verify_scheme_sampled` found.
pub struct Verified {
    pub pairs: usize,
    pub failures: Vec<String>,
    /// `(hops, distance)` per delivered pair.
    pub stretches: Vec<(u32, u32)>,
    pub avg_stretch: Option<f64>,
}

/// Verifies every pair `(s, t)` with `(s + t) % stride == 0`, computing
/// its own APSP.
pub fn verify_sampled(
    g: &Graph,
    scheme: &dyn RoutingScheme,
    stride: usize,
) -> Result<Verified, String> {
    let r = verify::verify_scheme_sampled(g, scheme, stride).map_err(|e| e.to_string())?;
    Ok(Verified {
        pairs: r.delivered + r.failures.len(),
        failures: r
            .failures
            .iter()
            .map(|(s, t, f)| format!("{s}→{t}: {f}"))
            .collect(),
        avg_stretch: r.avg_stretch(),
        stretches: r.stretches,
    })
}

// ---- snapshots ---------------------------------------------------------------

fn kind(id: SchemeId) -> Result<SchemeKind, String> {
    id.snapshot_kind()
        .ok_or(format!("{} has no snapshot kind", id.name()))
}

pub fn has_snapshot(id: SchemeId) -> bool {
    id.snapshot_kind().is_some()
}

pub fn save(id: SchemeId, scheme: &dyn RoutingScheme) -> Result<BitVec, String> {
    snapshot::save(kind(id)?, scheme).map_err(|e| e.to_string())
}

pub fn load(bits: &BitVec) -> Result<Scheme, String> {
    snapshot::load(bits).map_err(|e| e.to_string())
}

pub fn bit_len(bits: &BitVec) -> usize {
    bits.len()
}

// ---- churn --------------------------------------------------------------------

pub fn repairable_full_table(g: Graph) -> Result<RepairableScheme, String> {
    RepairableScheme::full_table(g).map_err(|e| e.to_string())
}

pub fn live_graph(r: &RepairableScheme) -> &Graph {
    r.graph()
}

pub fn live_scheme(r: &RepairableScheme) -> &dyn RoutingScheme {
    r.scheme()
}

pub fn live_distance(r: &RepairableScheme, u: NodeId, v: NodeId) -> Option<u32> {
    r.oracle().distance(u, v)
}

/// Applies one flap to the live scheme (refusals are errors).
pub fn repair(r: &mut RepairableScheme, f: Flap) -> Result<(), String> {
    let report = if f.add {
        r.add_link(f.u, f.v)
    } else {
        r.remove_link(f.u, f.v)
    };
    report.map(|_| ()).map_err(|e| e.to_string())
}

/// Lifetime `(patches, rebuilds, entries_patched)`.
pub fn repair_totals(r: &RepairableScheme) -> (u64, u64, u64) {
    let s = r.stats();
    (s.patches, s.rebuilds, s.entries_patched)
}
