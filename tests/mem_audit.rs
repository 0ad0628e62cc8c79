//! Analytic-vs-measured memory audits: every `peak_bytes` /
//! `heap_bytes` claim in the distance stack is pinned against the
//! instrumented allocator (`telemetry::alloc`). Each claim is a
//! *guaranteed lower bound* on the measured region peak — the structure
//! it describes really is allocated — and the measured peak must stay
//! within a small slack above it, so a claim that silently omits a
//! buffer (the bug class satellite 1 exists to catch) fails the upper
//! side and a claim that overstates fails the lower side.
//!
//! The allocator counters are process-global, so every test runs alone,
//! with `ORT_THREADS=1`, in a child process of this binary ([`isolated`]):
//! no sibling test, spawn or harness bookkeeping can allocate or free
//! inside a region a test measures.

#![cfg(feature = "alloc-telemetry")]

use optimal_routing_tables::graphs::delta::DeltaOracle;
use optimal_routing_tables::graphs::dist::{CellWidth, DistStore, FirstHopBlock};
use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::labels::Label;
use optimal_routing_tables::graphs::oracle::{BandedOracle, Distances};
use optimal_routing_tables::graphs::paths::{Apsp, ApspEngine, Traversal, UNREACHABLE};
use optimal_routing_tables::routing::scheme::{MessageState, RouteDecision, RoutingScheme};
use optimal_routing_tables::routing::schemes::full_table::FullTableScheme;
use optimal_routing_tables::routing::schemes::interval::IntervalScheme;
use optimal_routing_tables::routing::schemes::theorem2::Theorem2Scheme;
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::telemetry::alloc;

/// Runs the test `name` alone, with `ORT_THREADS=1`, in a child process
/// of this test binary and asserts that it passed there. Returns `true`
/// in that child, where the caller goes on to run its body, and `false`
/// in the parent, where the caller returns.
///
/// The counters are process-global, so an allocation or a free on any
/// other thread — the test harness's own bookkeeping and sibling tests
/// included — lands in whatever a test is measuring. In the child
/// nothing else runs.
fn isolated(name: &str) -> bool {
    const CHILD: &str = "ORT_MEM_AUDIT_CHILD";
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--test-threads=1"])
        .env(CHILD, "1")
        .env("ORT_THREADS", "1")
        .output()
        .expect("spawn the isolated child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "isolated run of {name} failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// Absolute headroom on every cap: allocator rounding, span/record
/// bookkeeping, and small scratch vectors the analytic models omit.
const ABS_SLACK: u64 = 256 * 1024;

/// `Apsp::heap_bytes()` plus the resolved engine's `scratch_bytes` is a
/// lower bound on the measured peak of a serial compute, and the
/// measured peak stays within 1.5× of it — for each engine `Auto`
/// resolves to, the tiled one at two orders.
#[test]
fn apsp_heap_plus_scratch_bounds_measured_compute() {
    if !isolated("apsp_heap_plus_scratch_bounds_measured_compute") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    // (graph, engine): small-sparse/Tiled, dense/Bitset, large-sparse/Tiled.
    let cases = [
        (generators::power_law_seeded(192, 3, 2.5, 7), ApspEngine::Tiled),
        (generators::gnp_half(192, 7), ApspEngine::Bitset),
        (generators::power_law_seeded(1200, 3, 2.5, 7), ApspEngine::Tiled),
    ];
    for (g, engine) in cases {
        let n = g.node_count();
        assert_eq!(ApspEngine::Auto.resolve(&g), engine, "the case must reach its engine");
        let region = alloc::mem_span("audit.apsp");
        let apsp = Apsp::compute_with(&g, 1);
        let rec = region.finish();
        let store = apsp.heap_bytes() as u64;
        let claim = store + ApspEngine::Auto.scratch_bytes(&g, n) as u64;
        assert!(
            rec.region_peak_bytes >= store,
            "{engine:?} n={n}: peak {} below the retained store {store}",
            rec.region_peak_bytes
        );
        let cap = (claim as f64 * 1.5) as u64 + ABS_SLACK;
        assert!(
            rec.region_peak_bytes <= cap,
            "{engine:?} n={n}: peak {} exceeds claim {claim} beyond slack (cap {cap})",
            rec.region_peak_bytes
        );
        // The store is retained: net allocation ≈ heap_bytes.
        assert!(rec.net_bytes >= 0 && rec.net_bytes as u64 >= store, "{engine:?} n={n}");
    }
}

/// `BandedOracle::peak_bytes` (one band at the compact cell width plus
/// engine scratch) brackets the measured peak of construction and a full
/// ascending sweep: the sweep never holds two bands, so the measured peak
/// stays within the same 1.25× slack the bench gate enforces. Two
/// engines: the tiled one on a sparse graph, whose scratch is per-tile
/// masks, and the bitset one on a dense graph, whose scratch is mostly
/// the adjacency bit rows the oracle builds at construction and keeps
/// (512 KiB at n = 2048, four bands' worth). A claim that left the rows
/// out would sit below the measured peak by more than the slack.
#[test]
fn banded_oracle_peak_bytes_brackets_a_full_sweep() {
    if !isolated("banded_oracle_peak_bytes_brackets_a_full_sweep") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    let cases = [
        (generators::power_law_seeded(1024, 3, 2.5, 11), 256, ApspEngine::Tiled),
        (generators::gnp_half(2048, 11), 64, ApspEngine::Bitset),
    ];
    for (g, band_rows, engine) in cases {
        let n = g.node_count();
        assert_eq!(ApspEngine::Auto.resolve(&g), engine, "the case must reach its engine");
        // The graph moves in, so construction copies no adjacency; the
        // claim covers band storage and scratch, and construction is
        // where the bitset engine's rows are built.
        let region = alloc::mem_span("audit.banded");
        let oracle = BandedOracle::new(g, band_rows);
        let mut checksum = 0u64;
        for u in (0..n).step_by(band_rows) {
            checksum = checksum.wrapping_add(u64::from(oracle.distance(u, 0).expect("connected")));
        }
        let rec = region.finish();
        let claim = oracle.peak_bytes() as u64;
        assert!(checksum > 0, "{engine:?}: sweep must traverse real distances");
        assert!(
            rec.region_peak_bytes >= claim,
            "{engine:?}: measured sweep peak {} below the analytic claim {claim}: \
             the claim overstates band or scratch storage",
            rec.region_peak_bytes
        );
        let cap = (claim as f64 * 1.25) as u64 + ABS_SLACK;
        assert!(
            rec.region_peak_bytes <= cap,
            "{engine:?}: measured sweep peak {} exceeds claim {claim} beyond slack (cap {cap}): \
             more than one band (or an unaccounted buffer) was live",
            rec.region_peak_bytes
        );
        // One band must be dropped before the next is computed: the peak
        // is far below two bands plus scratch.
        let two_bands = 2 * claim;
        assert!(rec.region_peak_bytes < two_bands, "{engine:?}: sweep held two bands at once");
    }
}

/// A `Graph` is its sorted adjacency lists, O(n + m): a
/// `power_law_seeded(16384, 2, 2.5)` graph (about 32 000 edges) and its
/// clone each retain under 4 MiB, where an n × n adjacency bit matrix
/// alone would take 32 MiB. And the lists really are held: each retains
/// at least two 8-byte entries per edge.
#[test]
fn a_sparse_graph_and_its_clone_each_retain_o_of_n_plus_m() {
    if !isolated("a_sparse_graph_and_its_clone_each_retain_o_of_n_plus_m") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    const CAP: u64 = 4 << 20;
    let region = alloc::mem_span("audit.graph");
    let g = generators::power_law_seeded(16384, 2, 2.5, 1);
    let built = region.finish();
    let region = alloc::mem_span("audit.graph_clone");
    let copy = g.clone();
    let cloned = region.finish();
    assert_eq!(copy, g);
    let lists = (2 * g.edge_count() * std::mem::size_of::<usize>()) as u64;
    for (what, rec) in [("graph", built), ("clone", cloned)] {
        assert!(
            rec.net_bytes >= 0 && (rec.net_bytes as u64) < CAP,
            "the {what} retains {} bytes, not under {CAP}",
            rec.net_bytes
        );
        assert!(rec.net_bytes as u64 >= lists, "the {what} retains {} < {lists}", rec.net_bytes);
    }
}

/// A full-table build through 64-row bands at n = 4096 holds the tables,
/// the port lists, one band and the `n × 64`-byte first-hop block, and
/// little else: the measured peak lies between their sum and that sum
/// plus the banded sweep's slack. The block is allocated once and reused
/// for all 64 blocks: besides what the oracle allocates for its bands, the
/// build allocates O(n) times (8 186 at n = 4096), where one block per
/// block would add 128 and one allocation a node per block n²/64.
#[test]
fn full_table_build_holds_tables_one_band_and_one_block() {
    if !isolated("full_table_build_holds_tables_one_band_and_one_block") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    let n = 4096;
    let g = generators::gnm_seeded(n, (n as f64 * (n as f64).ln()).ceil() as usize, 1);
    // What the oracle alone allocates over one ascending sweep of its 64
    // bands, the same fills the build makes.
    let copy = g.clone();
    let before = alloc::total_allocations();
    let sweep = BandedOracle::new(copy, 64);
    for u in (0..n).step_by(64) {
        assert!(sweep.distance(u, 0).is_some(), "G(n, n ln n) is connected");
    }
    let oracle_allocations = alloc::total_allocations() - before;
    drop(sweep);
    let copy = g.clone();
    let before = alloc::total_allocations();
    let region = alloc::mem_span("audit.full_table_build");
    let oracle = BandedOracle::new(copy, 64);
    let scheme = FullTableScheme::build(&g, &oracle).expect("G(n, n ln n) is connected");
    let rec = region.finish();
    let allocations = alloc::total_allocations() - before;
    let word = std::mem::size_of::<u64>();
    let tables: usize = (0..n).map(|u| scheme.node_bits(u).len().div_ceil(64) * word).sum();
    let ports = 2 * g.edge_count() * std::mem::size_of::<usize>();
    let block = n * FirstHopBlock::LANES;
    let claim = (tables + ports + oracle.peak_bytes() + block) as u64;
    assert!(
        rec.region_peak_bytes >= claim,
        "measured build peak {} below tables {tables} + ports {ports} + band {} + block \
         {block} = {claim}",
        rec.region_peak_bytes,
        oracle.peak_bytes()
    );
    let cap = (claim as f64 * 1.25) as u64 + ABS_SLACK;
    assert!(
        rec.region_peak_bytes <= cap,
        "measured build peak {} exceeds tables + ports + band + block ({claim}) beyond slack \
         (cap {cap}): a second band, block or table copy was live",
        rec.region_peak_bytes
    );
    // Beyond the oracle's own: the n tables (none for a degree-1 node's
    // zero-width table) and the n port lists, plus a handful: the block,
    // the widths, the outer vectors.
    let builder = allocations - oracle_allocations;
    assert!(
        builder <= 2 * n as u64 + 16,
        "the build allocated {builder} times besides the oracle's {oracle_allocations}"
    );
}

/// The streamed sampled verify holds one band at a time. At n = 4096 the
/// door's blocks are 256 rows, and stride 7000 samples the 1 190 sources
/// 2905..=4095 (all but 3500), five blocks. The verify's measured peak is
/// what a `BandedOracle` of the door's block height claims (one band plus
/// the tiled engine's scratch), within the banded sweep's slack: about a
/// tenth of the n² one-byte cells a full matrix would hold.
#[test]
fn streamed_verify_holds_one_band_at_a_time() {
    if !isolated("streamed_verify_holds_one_band_at_a_time") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    let n = 4096;
    let g = generators::power_law_seeded(n, 2, 2.5, 3);
    let scheme = IntervalScheme::build(&g, &BandedOracle::new(g.clone(), 64))
        .expect("power-law graphs are connected");
    let claim = BandedOracle::new(g.clone(), ApspEngine::tile_sources(n)).peak_bytes() as u64;
    let region = alloc::mem_span("audit.verify_stream");
    let report = verify::verify_scheme_sampled(&g, &scheme, 7000).expect("connected");
    let rec = region.finish();
    assert_eq!(report.delivered, 1190, "{:?}", report.failures.first());
    assert!(
        rec.region_peak_bytes >= claim,
        "measured verify peak {} below one band plus scratch ({claim}): no band was held",
        rec.region_peak_bytes
    );
    let cap = (claim as f64 * 1.25) as u64 + ABS_SLACK;
    assert!(
        rec.region_peak_bytes <= cap,
        "measured verify peak {} exceeds one band plus scratch ({claim}) beyond slack \
         (cap {cap}): more than one band, or a matrix, was live",
        rec.region_peak_bytes
    );
    assert!(cap < (n * n / 8) as u64, "the cap ({cap}) must sit far below n² cells");
}

/// A one-source fill (`Traversal::fill_row`, behind `DeltaOracle`'s
/// probes and dirty rows) holds its row and a queue, not a tile: on a
/// sparse graph at n = 65536, filling a `u32` row in place peaks under
/// 12 bytes a node (the 4-byte row and the BFS queue), where a tile of
/// one source would add three n-word masks (24 bytes a node). The fill
/// allocates no row of its own, so what the region retains is the row
/// the caller made.
#[test]
fn one_source_fill_holds_a_row_not_a_tile() {
    if !isolated("one_source_fill_holds_a_row_not_a_tile") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    let n = 65536;
    let g = generators::power_law_seeded(n, 2, 2.5, 1);
    assert_eq!(ApspEngine::Auto.resolve(&g), ApspEngine::Tiled);
    let region = alloc::mem_span("audit.one_source");
    let mut row = DistStore::unreachable(CellWidth::U32, n);
    Traversal::new(&g, ApspEngine::Auto).fill_row(&g, 0, &mut row, 0);
    let rec = region.finish();
    assert!((0..n).all(|v| row.get(v) != UNREACHABLE), "power-law graphs are connected");
    let held = row.heap_bytes() as u64;
    assert!(
        rec.net_bytes >= 0 && rec.net_bytes as u64 >= held,
        "retained {} below the row's {held} bytes",
        rec.net_bytes
    );
    let cap = 12 * n as u64 + ABS_SLACK;
    assert!(
        rec.region_peak_bytes <= cap,
        "a one-source fill peaked at {} bytes, over 12 a node plus slack ({cap})",
        rec.region_peak_bytes
    );
}

/// `DeltaOracle::peak_bytes` (full table + repair worklist scratch)
/// brackets the measured peak of construction plus an incremental
/// repair — the repair must reuse the claimed scratch, not allocate a
/// second table.
#[test]
fn delta_oracle_peak_bytes_covers_construction_and_repair() {
    if !isolated("delta_oracle_peak_bytes_covers_construction_and_repair") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    let g = generators::gnp_half(256, 17);
    let (u, v) = {
        let mut pick = None;
        'outer: for a in 0..256usize {
            for &b in g.neighbors(a) {
                if b > a {
                    pick = Some((a, b));
                    break 'outer;
                }
            }
        }
        pick.expect("G(256, 1/2) has an edge")
    };
    let region = alloc::mem_span("audit.delta");
    let mut oracle = DeltaOracle::new(g);
    let report = oracle.remove_edge(u, v).expect("repairable removal");
    let rec = region.finish();
    assert!(report.full_rebuild || report.rows_recomputed > 0 || report.dirty.is_empty());
    let claim = oracle.peak_bytes() as u64;
    assert!(
        rec.region_peak_bytes >= oracle.apsp().heap_bytes() as u64,
        "peak {} below the retained distance table",
        rec.region_peak_bytes
    );
    let cap = (claim as f64 * 1.5) as u64 + ABS_SLACK;
    assert!(
        rec.region_peak_bytes <= cap,
        "construction+repair peak {} exceeds claim {claim} beyond slack (cap {cap}): \
         repair allocated beyond the claimed worklist scratch",
        rec.region_peak_bytes
    );
}

/// `Apsp` as a `&dyn Distances` claims exactly its `heap_bytes`; the
/// store really is that large (measured net of a serial compute).
#[test]
fn apsp_as_distances_claims_exactly_its_heap() {
    if !isolated("apsp_as_distances_claims_exactly_its_heap") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    let g = generators::gnp_half(128, 19);
    let region = alloc::mem_span("audit.apsp_dyn");
    let apsp = Apsp::compute_with(&g, 1);
    let rec = region.finish();
    let dyn_oracle: &dyn Distances = &apsp;
    assert_eq!(dyn_oracle.peak_bytes(), apsp.heap_bytes());
    assert!(rec.net_bytes >= 0 && rec.net_bytes as u64 >= apsp.heap_bytes() as u64);
}

/// Exact counter round-trip: a 1 MiB allocation moves `live_bytes` by
/// exactly 1 MiB and dropping it restores the old count. Retries a few
/// times so a stray late free from an earlier pool cannot flake it.
#[test]
fn live_counter_round_trips_exactly() {
    if !isolated("live_counter_round_trips_exactly") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    const SIZE: u64 = 1 << 20;
    let mut ok = false;
    for _ in 0..5 {
        let before = alloc::live_bytes();
        let buf = vec![0u8; SIZE as usize];
        let after = alloc::live_bytes();
        std::hint::black_box(&buf);
        drop(buf);
        let restored = alloc::live_bytes();
        if after == before + SIZE && restored == before {
            ok = true;
            break;
        }
    }
    assert!(ok, "1 MiB alloc/free must round-trip the live counter exactly");
}

/// The process high-water mark never decreases, and allocating past it
/// raises it by at least the overshoot.
#[test]
fn peak_is_monotone_and_tracks_overshoot() {
    if !isolated("peak_is_monotone_and_tracks_overshoot") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    let p0 = alloc::peak_bytes();
    let headroom = (p0 - alloc::live_bytes()) as usize;
    let buf = vec![0u8; headroom + (1 << 20)];
    let p1 = alloc::peak_bytes();
    std::hint::black_box(&buf);
    assert!(p1 >= p0 + (1 << 20), "peak {p1} must exceed {p0} by the 1 MiB overshoot");
    drop(buf);
    assert!(alloc::peak_bytes() >= p1, "peak must never decrease");
}

/// Nested attribution: a child region's retained bytes are visible in
/// the parent's net, the parent's peak dominates the child's, and the
/// child measures exactly its own allocation.
#[test]
fn nested_mem_spans_attribute_to_parent() {
    if !isolated("nested_mem_spans_attribute_to_parent") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    const A: usize = 256 * 1024;
    const B: usize = 512 * 1024;
    let parent = alloc::mem_span("audit.parent");
    let keep_a = vec![1u8; A];
    let child = alloc::mem_span("audit.child");
    let keep_b = vec![2u8; B];
    let child_rec = child.finish();
    let parent_rec = parent.finish();
    std::hint::black_box((&keep_a, &keep_b));

    assert_eq!(child_rec.depth, 1);
    assert_eq!(parent_rec.depth, 0);
    assert_eq!(child_rec.net_bytes, B as i64, "child retains exactly its own vec");
    assert_eq!(child_rec.region_peak_bytes, B as u64);
    // Parent: both vecs retained; the record push for the child may add
    // a few bookkeeping bytes on the parent's account, never the child's.
    assert!(parent_rec.net_bytes >= (A + B) as i64);
    assert!(parent_rec.net_bytes < (A + B + 16 * 1024) as i64);
    // Watermark propagation: the parent's peak dominates the child's.
    assert!(parent_rec.region_peak_bytes >= (A + B) as u64);
    assert!(parent_rec.region_peak_bytes >= child_rec.region_peak_bytes);
}

/// The most allocations [`route_pair_allocations_do_not_grow_with_degree`]
/// allows per routed message: twice the 4.5 it measured while Theorem 2
/// parsed the destination label on every two-hop route. It measures 4.0
/// now (copies of the destination and source labels, the path and its
/// one growth), since the router reads the label in place.
const MAX_ALLOCS_PER_MESSAGE: u64 = 9;

/// Routing a message allocates a fixed handful of times, whatever the
/// degree: the node environment a router sees borrows the scheme's
/// labels instead of copying them. Theorem 2 on G(256, 1/2) is where
/// copying would cost most: every node has about 128 neighbours, each
/// carrying a γ label of about 400 bits, and copying them takes one
/// allocation per neighbour on every hop.
#[test]
fn route_pair_allocations_do_not_grow_with_degree() {
    if !isolated("route_pair_allocations_do_not_grow_with_degree") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    const MESSAGES: usize = 200;
    let n = 256;
    let g = generators::gnp_half(n, 1);
    let scheme = Theorem2Scheme::build(&g, &Apsp::compute(&g)).expect("G(256, 1/2) meets Lemma 3");
    let limit = verify::default_hop_limit(n);
    let pairs: Vec<(usize, usize)> = (0..MESSAGES).map(|i| (i % n, (37 * i + 1) % n)).collect();
    let before = alloc::total_allocations();
    let mut hops = 0;
    for &(s, t) in &pairs {
        hops += verify::route_pair(&scheme, s, t, limit).expect("theorem 2 delivers").len() - 1;
    }
    let allocations = alloc::total_allocations() - before;
    assert!(hops > MESSAGES, "the sample must route through listed neighbours too");
    assert!(
        allocations <= MAX_ALLOCS_PER_MESSAGE * MESSAGES as u64,
        "{allocations} allocations routing {MESSAGES} messages over {hops} hops \
         (bound {MAX_ALLOCS_PER_MESSAGE} a message) at degree ≈ {}",
        g.degree(0)
    );
}

/// Theorem 2's hop toward a destination its node is not adjacent to
/// reads the destination label's listed ids in place, so it allocates
/// nothing: on G(1024, 1/2), one such hop from each of 256 sources. A
/// parsed label would cost one allocation a hop.
#[test]
fn theorem2_hop_to_a_non_neighbour_allocates_nothing() {
    if !isolated("theorem2_hop_to_a_non_neighbour_allocates_nothing") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    let n = 1024;
    let g = generators::gnp_half(n, 1);
    let scheme = Theorem2Scheme::build(&g, &BandedOracle::new(g.clone(), 64))
        .expect("G(1024, 1/2) meets Lemma 3");
    let hops: Vec<(usize, Label)> = (0..256)
        .map(|u| {
            let t = (0..n).find(|&t| t != u && !g.has_edge(u, t)).expect("not complete");
            (u, scheme.label_of(t))
        })
        .collect();
    let mut state = MessageState::default();
    let before = alloc::total_allocations();
    let mut forwarded = 0;
    for (u, dest) in &hops {
        let env = scheme.node_env(*u);
        if let Ok(RouteDecision::Forward(_)) = scheme.route_at(*u, &env, dest, &mut state) {
            forwarded += 1;
        }
    }
    let allocations = alloc::total_allocations() - before;
    assert_eq!(forwarded, hops.len(), "each hop forwards through a listed neighbour");
    assert_eq!(allocations, 0, "{allocations} allocations over {} hops", hops.len());
}

/// The most allocations [`route_pair_allocations_do_not_grow_with_hop_count`]
/// allows per routed message: the path's first allocation and one for
/// each time it grows, from capacity 1 to 4 and then by doubling up to
/// the 65 536 entries a walk of the hop limit (4n + 16 = 32 784 at
/// n = 8192) needs. It measures 1 691 allocations over 200 messages, 8.5
/// a message; a boxed router on every hop made 74 503, 372 a message.
const MAX_ALLOCS_PER_WALK: u64 = 16;

/// Routing a message allocates a fixed handful of times, however many
/// hops it takes: each node's router runs on the stack, so what a walk
/// allocates is the path `route_pair` returns and its growth. Interval
/// routing on a power-law graph is where a per-hop allocation would cost
/// most: walks follow the DFS tree and run to hundreds of hops. The
/// scheme is built from a banded oracle, so no n² matrix is built.
#[test]
fn route_pair_allocations_do_not_grow_with_hop_count() {
    if !isolated("route_pair_allocations_do_not_grow_with_hop_count") {
        return;
    }
    if !alloc::installed() {
        return;
    }
    const MESSAGES: usize = 200;
    let n = 8192;
    let g = generators::power_law_seeded(n, 2, 2.5, 1);
    let scheme = IntervalScheme::build(&g, &BandedOracle::new(g.clone(), 64))
        .expect("power-law graphs are connected");
    let limit = verify::default_hop_limit(n);
    let pairs: Vec<(usize, usize)> =
        (0..MESSAGES).map(|i| ((97 * i) % n, (389 * i + n / 2) % n)).collect();
    let before = alloc::total_allocations();
    let mut hops = 0;
    for &(s, t) in &pairs {
        hops +=
            verify::route_pair(&scheme, s, t, limit).expect("interval routing delivers").len() - 1;
    }
    let allocations = alloc::total_allocations() - before;
    assert!(hops >= 200 * MESSAGES, "walks must average 200 hops or more, walked {hops}");
    assert!(
        allocations <= MAX_ALLOCS_PER_WALK * MESSAGES as u64,
        "{allocations} allocations routing {MESSAGES} messages over {hops} hops \
         (bound {MAX_ALLOCS_PER_WALK} a message)"
    );
}
