//! The block first-hop rule against the per-cell rule.
//!
//! The full table and the multi-interval scheme settle their first hops 64
//! destinations at a time (`ort_graphs::dist::FirstHopBlock`). Here every
//! stored entry is decoded and compared with the per-cell rule, the port
//! of `row_t.first_hop(g, u)`, on graphs whose sizes put the block edges
//! everywhere (n ∈ {1, 2, 63, 64, 65, 129}) and on a 700-node path whose
//! distances pass 255 (u16 cells). Each full table is built under sorted
//! and adversarial ports and identity and permuted labels, from three row
//! sources: the full matrix, a banded oracle, and an oracle with no rows
//! of its own, which reaches the trait's default `u32` row copy. The
//! multi-interval scheme (sorted ports, identity labels) is checked the
//! same way, decision by decision.

use ort_bitio::{bits_to_index, BitReader};
use ort_graphs::dist::DistRow;
use ort_graphs::labels::{Label, LabelRef, Labeling};
use ort_graphs::oracle::{BandedOracle, Distances};
use ort_graphs::paths::Apsp;
use ort_graphs::ports::PortAssignment;
use ort_graphs::{generators, Graph, NodeId};
use ort_routing::model::{Knowledge, Model, Relabeling};
use ort_routing::scheme::{MessageState, RouteDecision, RoutingScheme, SchemeError};
use ort_routing::schemes::full_table::FullTableScheme;
use ort_routing::schemes::multi_interval::MultiIntervalScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An exact oracle that answers single cells only, so every row a
/// builder asks for is the trait's default `u32` copy.
struct CellsOnly<'a>(&'a Apsp);

impl Distances for CellsOnly<'_> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        Distances::distance(self.0, u, v)
    }

    fn peak_bytes(&self) -> usize {
        0
    }
}

/// Forwards to an oracle but claims a connected graph, so a builder gets
/// past its connectivity check and meets the missing hops itself.
struct ClaimsConnected<'a>(&'a dyn Distances);

impl Distances for ClaimsConnected<'_> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.0.distance(u, v)
    }

    fn peak_bytes(&self) -> usize {
        self.0.peak_bytes()
    }

    fn with_row(&self, v: NodeId, f: &mut dyn FnMut(DistRow<'_>)) {
        self.0.with_row(v, f);
    }

    fn is_connected(&self) -> bool {
        true
    }
}

/// The graphs of one size: G(n, ½), G(n, ⌈n ln n⌉) and a power-law graph.
fn graphs(n: usize, seed: u64) -> Vec<(String, Graph)> {
    let m = ((n as f64) * (n as f64).ln()).ceil() as usize;
    let mut out = vec![
        (format!("gnp{n}"), generators::gnp_half(n, seed)),
        (format!("gnm{n}"), generators::gnm_seeded(n, m.min(n * (n - 1) / 2), seed)),
    ];
    if n >= 2 {
        let g = generators::power_law_seeded(n, 2.min(n - 1), 2.5, seed);
        out.push((format!("powerlaw{n}"), g));
    }
    out
}

fn minimal(labeling: &Labeling, u: NodeId) -> usize {
    match labeling.label_ref(u) {
        LabelRef::Minimal(l) => l,
        LabelRef::Bits(_) => unreachable!("the full table takes minimal labels"),
    }
}

/// The per-cell rule on a connected graph: `hops[u][t]` is
/// `row_t.first_hop(g, u)`, and `u` itself on the diagonal.
fn per_cell_hops(g: &Graph, apsp: &Apsp) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    let mut hops = vec![(0..n).collect::<Vec<_>>(); n];
    for t in 0..n {
        let row = apsp.row(t);
        for (u, at) in hops.iter_mut().enumerate().filter(|&(u, _)| u != t) {
            at[t] = row.first_hop(g, u).expect("connected");
        }
    }
    hops
}

/// Every entry of `scheme` is the port, under `ports`, of row t's first
/// hop at u, and each table holds exactly n − 1 entries.
fn assert_full_table_agrees(
    ctx: &str,
    hops: &[Vec<NodeId>],
    scheme: &FullTableScheme,
    ports: &PortAssignment,
    labeling: &Labeling,
) {
    let n = hops.len();
    for (u, hops) in hops.iter().enumerate() {
        let width = bits_to_index(ports.degree(u) as u64);
        let bits = scheme.node_bits(u);
        assert_eq!(bits.len(), (n - 1) * width as usize, "{ctx}: node {u} size");
        // The entries lie in destination-label order, skipping u's own.
        let mut r = BitReader::new(bits);
        for dest in (0..n).filter(|&l| l != minimal(labeling, u)) {
            let t = labeling.node_of_minimal(dest).unwrap();
            let stored = r.read_bits(width).unwrap() as usize;
            let port = ports.port_to(u, hops[t]).expect("the hop is a neighbour");
            assert_eq!(stored, port, "{ctx}: entry {u} → {t}");
        }
    }
}

/// Every decision of the multi-interval scheme is the port of row t's
/// first hop at u (its ports are sorted, so that is the hop's rank).
fn assert_multi_interval_agrees(
    ctx: &str,
    g: &Graph,
    hops: &[Vec<NodeId>],
    scheme: &MultiIntervalScheme,
) {
    for (u, hops) in hops.iter().enumerate() {
        let env = scheme.node_env(u);
        for (t, &hop) in hops.iter().enumerate().filter(|&(t, _)| t != u) {
            let decision =
                scheme.route_at(u, &env, &Label::Minimal(t), &mut MessageState::default());
            let port = g.neighbors(u).binary_search(&hop).unwrap();
            assert_eq!(decision, Ok(RouteDecision::Forward(port)), "{ctx}: decision {u} → {t}");
        }
    }
}

fn check(name: &str, g: &Graph, seed: u64) -> bool {
    let n = g.node_count();
    let apsp = Apsp::compute(g);
    // Five-row bands: permuted labels read rows out of band order, and
    // each such read refills a band.
    let banded = BandedOracle::new(g.clone(), 5);
    let cells = CellsOnly(&apsp);
    let oracles: [(&str, &dyn Distances); 3] =
        [("apsp", &apsp), ("banded", &banded), ("cells-only", &cells)];
    let mut rng = StdRng::seed_from_u64(seed);
    let port_sets = [
        ("sorted", PortAssignment::sorted(g), Knowledge::NeighborsKnown),
        ("adversarial", PortAssignment::adversarial(g, &mut rng), Knowledge::PortsFixed),
    ];
    let label_sets = [
        ("identity", Labeling::identity(n), Relabeling::None),
        (
            "permuted",
            Labeling::permutation(generators::random_permutation(n, &mut rng)).unwrap(),
            Relabeling::Permutation,
        ),
    ];
    let connected = ort_graphs::paths::is_connected(g);
    let hops = if connected { per_cell_hops(g, &apsp) } else { Vec::new() };
    for (oracle_name, dists) in oracles {
        for (ports_name, ports, knowledge) in &port_sets {
            for (labels_name, labeling, relabeling) in &label_sets {
                let ctx = format!("{name}/{oracle_name}/{ports_name}/{labels_name}");
                let built = FullTableScheme::build_with(
                    g,
                    dists,
                    Model::new(*knowledge, *relabeling),
                    ports.clone(),
                    labeling.clone(),
                );
                match built {
                    Ok(scheme) if connected => {
                        assert_full_table_agrees(&ctx, &hops, &scheme, ports, labeling);
                    }
                    other => assert_eq!(other.err(), Some(SchemeError::Disconnected), "{ctx}"),
                }
            }
        }
        let ctx = format!("{name}/{oracle_name}/multi-interval");
        match MultiIntervalScheme::build(g, dists) {
            Ok(scheme) if connected => assert_multi_interval_agrees(&ctx, g, &hops, &scheme),
            other => assert_eq!(other.err(), Some(SchemeError::Disconnected), "{ctx}"),
        }
    }
    connected
}

#[test]
fn block_rule_agrees_with_the_per_cell_rule_at_every_block_edge() {
    let mut connected = 0;
    for n in [1, 2, 63, 64, 65, 129] {
        for (name, g) in graphs(n, n as u64) {
            connected += usize::from(check(&name, &g, 7));
        }
    }
    // Every power-law graph and nearly every random one is connected, so
    // the agreement is checked, not only the refusal.
    assert!(connected >= 14, "only {connected} of 17 graphs were connected");
}

#[test]
fn block_rule_agrees_past_distance_255() {
    // Distances up to 699 need u16 cells; the block holds them mod 256.
    let g = generators::path(700);
    assert!(check("path700", &g, 3));
}

#[test]
fn a_destination_without_a_hop_is_an_error_not_port_zero() {
    // Two components behind an oracle that claims one: the block finds
    // no closer neighbour toward the other component and must say so.
    let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
    let apsp = Apsp::compute(&g);
    let banded = BandedOracle::new(g.clone(), 2);
    let cells = CellsOnly(&apsp);
    for inner in [&apsp as &dyn Distances, &banded, &cells] {
        let lying = ClaimsConnected(inner);
        assert_eq!(
            FullTableScheme::build(&g, &lying).err(),
            Some(SchemeError::Disconnected),
            "{}",
            inner.describe()
        );
        assert_eq!(
            MultiIntervalScheme::build(&g, &lying).err(),
            Some(SchemeError::Disconnected),
            "{}",
            inner.describe()
        );
    }
}
