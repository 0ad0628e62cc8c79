//! The four workloads and the seeded inputs they run on. The seed makes
//! the graph, the pair sample and the churn plan; the library only ever
//! sees those generated inputs.

use crate::api::{self, Flap, Graph, NodeId};

/// A run has at least this many cycles (see `measure::run`), and a
/// traced churn replay this many rounds.
pub const ROUNDS: usize = 5;

/// Where a workload's distances come from during set-up.
#[derive(Clone, Copy)]
pub enum Setup {
    /// One full `Apsp` matrix.
    Full,
    /// A `BandedOracle` holding this many rows at a time.
    Banded(usize),
    /// `RepairableScheme::full_table`: a `DeltaOracle` plus a full table.
    Repairable,
}

#[derive(Clone, Copy)]
pub enum Topology {
    /// `gnp_half(n)`: the paper's Kolmogorov-random stand-in.
    GnpHalf(usize),
    /// `gnm_seeded(n, ⌈n ln n⌉)`: sparse uniform, average degree ≈ 2 ln n.
    Gnm(usize),
    /// `power_law_seeded(n, 2, 2.5)`: hub-dominated, Internet-like.
    PowerLaw(usize),
}

/// Link flaps per round and messages routed after each flap.
#[derive(Clone, Copy)]
pub struct Churn {
    pub events_per_round: usize,
    pub msgs_per_event: usize,
}

pub struct Workload {
    pub name: &'static str,
    pub scheme: &'static str,
    pub topology: Topology,
    pub setup: Setup,
    /// Timed set-ups per [`ROUNDS`] cycles: the first makes the scheme
    /// the run uses, and the rest are spread evenly over the cycles.
    pub setup_reps: usize,
    /// Messages per route round, sized to half a second to a second on the
    /// reference host (churn workloads route `msgs_per_event` after each
    /// event).
    pub route_msgs: usize,
    /// `verify_scheme_sampled` checks pairs with `(s + t) % stride == 0`.
    pub verify_stride: usize,
    /// Snapshot loads per cycle (0: the scheme has no snapshot kind).
    pub loads_per_cycle: usize,
    pub churn: Option<Churn>,
}

pub const WORKLOADS: [Workload; 4] = [
    // The paper's regime: routing cost is all decode and node env; set-up is small.
    Workload {
        name: "dense-theorem2",
        scheme: "theorem2",
        topology: Topology::GnpHalf(1024),
        setup: Setup::Full,
        setup_reps: 25,
        route_msgs: 7_000,
        verify_stride: 151,
        loads_per_cycle: 10,
        churn: None,
    },
    // Set-up is all band fill and the builder loop; routes are O(1) decodes.
    Workload {
        name: "gnm-fulltable-banded",
        scheme: "full-table",
        topology: Topology::Gnm(4096),
        setup: Setup::Banded(64),
        setup_reps: 4,
        route_msgs: 200_000,
        verify_stride: 101,
        loads_per_cycle: 1,
        churn: None,
    },
    // Bare forwarding over ~800-hop walks: per-hop decode and route dominate.
    Workload {
        name: "powerlaw-interval",
        scheme: "interval",
        topology: Topology::PowerLaw(16384),
        setup: Setup::Banded(64),
        setup_reps: 25,
        route_msgs: 6_000,
        verify_stride: 28_000,
        loads_per_cycle: 0,
        churn: None,
    },
    // Writes beside reads: link flaps repaired in place, each followed by traffic.
    Workload {
        name: "powerlaw-churn",
        scheme: "full-table",
        topology: Topology::PowerLaw(1024),
        setup: Setup::Repairable,
        setup_reps: 25,
        route_msgs: 320 * 100,
        verify_stride: 11,
        loads_per_cycle: 20,
        churn: Some(Churn {
            events_per_round: 320,
            msgs_per_event: 100,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's own generator for pair samples and churn
/// seeds, independent of the library's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `count` uniform pairs `(s, t)` with `s ≠ t`.
    pub fn pairs(&mut self, n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
        (0..count)
            .map(|_| {
                let s = self.below(n);
                let t = (s + 1 + self.below(n - 1)) % n;
                (s, t)
            })
            .collect()
    }
}

/// Everything a run needs, generated from the seed before any timing.
pub struct Inputs {
    pub g: Graph,
    /// The route sample (one round's worth, replayed each round).
    pub pairs: Vec<(NodeId, NodeId)>,
}

impl Workload {
    pub fn inputs(&self, seed: u64) -> Inputs {
        let g = match self.topology {
            Topology::GnpHalf(n) => api::gnp_half(n, seed),
            Topology::Gnm(n) => api::gnm(n, (n as f64 * (n as f64).ln()).ceil() as usize, seed),
            Topology::PowerLaw(n) => api::power_law(n, 2, 2.5, seed),
        };
        let pairs = Rng::new(seed, 1).pairs(api::node_count(&g), self.route_msgs);
        Inputs { g, pairs }
    }

    /// Round `round`'s churn: a fresh flap plan over the current graph.
    pub fn flaps(&self, g: &Graph, seed: u64, round: usize) -> Vec<Flap> {
        let churn = self.churn.expect("churn workload");
        let plan_seed = Rng::new(seed, 2 + round as u64).next();
        api::link_flaps(g, churn.events_per_round as u64, plan_seed)
    }

    /// Whether set-up consumes its own copy of the graph.
    pub fn setup_owns_graph(&self) -> bool {
        !matches!(self.setup, Setup::Full)
    }
}
