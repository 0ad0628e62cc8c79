//! Compact distance storage.
//!
//! The full-matrix APSP of [`crate::paths::Apsp`] historically stored every
//! cell as a `u32`, which caps experiments near `n = 512`: at `n = 16384`
//! the matrix alone is 1 GiB. Hop distances, however, are bounded by the
//! graph's diameter — 2 on the paper's `G(n, 1/2)` workload, `O(log n)` on
//! the sparse power-law graphs of the Internet-scale scenario — so almost
//! every matrix fits in one byte per cell.
//!
//! [`DistStore`] is the width-erased cell container: a `u8`, `u16` or
//! `u32` vector selected per graph by [`width_for`], which derives a sound
//! diameter upper bound from one cheap traversal per connected component
//! (`diam ≤ 2·ecc(representative)`, [`ComponentSweep`]). The all-ones cell of each width is
//! the *unreachable* sentinel, mapped to [`UNREACHABLE`] at the `u32`
//! boundary, so finite distances must stay strictly below
//! [`CellWidth::max_finite`] — guaranteed by the bound.
//!
//! [`DistBand`] is a horizontal slice of the matrix (rows
//! `start..start+rows`): the unit of the streaming/banded oracle mode
//! ([`crate::oracle::BandedOracle`]), which computes and retires bands on
//! demand instead of materialising all `n²` cells.
//!
//! [`DistRow`] is one source row lent in place at the store's width — the
//! unit [`crate::oracle::Distances::with_row`] hands to builders — and the
//! home of the smallest-closer-neighbour rule ([`DistRow::first_hop`]).
//! [`FirstHopBlock`] is that rule's block form: it copies 64 rows into one
//! byte a cell and settles every node's first hop toward all 64
//! destinations in one pass over the node's neighbours, which is how the
//! table builders apply the rule to all `n²` pairs.

use crate::oracle::Distances;
use crate::paths::UNREACHABLE;
use crate::{Graph, NodeId};

/// A distance cell type: packs `u32` hop counts into a narrower integer,
/// reserving the all-ones value as the unreachable sentinel. Implemented
/// for `u8`, `u16` and `u32`; the BFS engines in [`crate::paths`] are
/// generic over this trait so every engine runs at every width.
pub trait DistCell: Copy + Eq + Send + Sync + 'static {
    /// The unreachable sentinel (all ones).
    const SENTINEL: Self;
    /// Largest representable finite distance (sentinel − 1).
    const MAX_FINITE: u32;
    /// Packs a finite distance (or [`UNREACHABLE`]).
    ///
    /// # Panics
    ///
    /// Panics if a finite `d` exceeds [`DistCell::MAX_FINITE`] — the width
    /// chosen by [`width_for`] makes this unreachable in practice.
    fn pack(d: u32) -> Self;
    /// Unpacks to a `u32` distance; the sentinel becomes [`UNREACHABLE`].
    fn to_dist(self) -> u32;
}

macro_rules! impl_cell {
    ($t:ty) => {
        impl DistCell for $t {
            const SENTINEL: Self = <$t>::MAX;
            const MAX_FINITE: u32 = (<$t>::MAX as u32) - 1;
            #[inline]
            fn pack(d: u32) -> Self {
                if d == UNREACHABLE {
                    return Self::SENTINEL;
                }
                assert!(d <= Self::MAX_FINITE, "distance {d} overflows cell width");
                d as $t
            }
            #[inline]
            fn to_dist(self) -> u32 {
                if self == Self::SENTINEL {
                    UNREACHABLE
                } else {
                    u32::from(self)
                }
            }
        }
    };
}

impl_cell!(u8);
impl_cell!(u16);

impl DistCell for u32 {
    const SENTINEL: Self = u32::MAX;
    const MAX_FINITE: u32 = u32::MAX - 1;
    #[inline]
    fn pack(d: u32) -> Self {
        d
    }
    #[inline]
    fn to_dist(self) -> u32 {
        self
    }
}

/// The cell width of a [`DistStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWidth {
    /// One byte per cell: distances up to 254.
    U8,
    /// Two bytes per cell: distances up to 65 534.
    U16,
    /// Four bytes per cell (the historical layout).
    U32,
}

impl CellWidth {
    /// Bytes occupied by one cell.
    #[must_use]
    pub fn bytes_per_cell(self) -> usize {
        match self {
            CellWidth::U8 => 1,
            CellWidth::U16 => 2,
            CellWidth::U32 => 4,
        }
    }

    /// Largest finite distance the width can hold.
    #[must_use]
    pub fn max_finite(self) -> u32 {
        match self {
            CellWidth::U8 => u8::MAX_FINITE,
            CellWidth::U16 => u16::MAX_FINITE,
            CellWidth::U32 => u32::MAX_FINITE,
        }
    }

    /// The narrowest width whose finite range covers `bound`.
    #[must_use]
    pub fn for_bound(bound: u32) -> CellWidth {
        if bound <= u8::MAX_FINITE {
            CellWidth::U8
        } else if bound <= u16::MAX_FINITE {
            CellWidth::U16
        } else {
            CellWidth::U32
        }
    }

    /// Stable lowercase name (`"u8"`, `"u16"`, `"u32"`) for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CellWidth::U8 => "u8",
            CellWidth::U16 => "u16",
            CellWidth::U32 => "u32",
        }
    }
}

/// A width-erased vector of distance cells. Every cell starts as the
/// unreachable sentinel; reads come back as `u32` with [`UNREACHABLE`]
/// for the sentinel, so callers never see the width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistStore {
    /// One-byte cells.
    U8(Vec<u8>),
    /// Two-byte cells.
    U16(Vec<u16>),
    /// Four-byte cells.
    U32(Vec<u32>),
}

impl DistStore {
    /// A store of `cells` sentinel-initialised cells at `width`.
    #[must_use]
    pub fn unreachable(width: CellWidth, cells: usize) -> DistStore {
        match width {
            CellWidth::U8 => DistStore::U8(vec![u8::SENTINEL; cells]),
            CellWidth::U16 => DistStore::U16(vec![u16::SENTINEL; cells]),
            CellWidth::U32 => DistStore::U32(vec![u32::SENTINEL; cells]),
        }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            DistStore::U8(v) => v.len(),
            DistStore::U16(v) => v.len(),
            DistStore::U32(v) => v.len(),
        }
    }

    /// Whether the store has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's cell width.
    #[must_use]
    pub fn width(&self) -> CellWidth {
        match self {
            DistStore::U8(_) => CellWidth::U8,
            DistStore::U16(_) => CellWidth::U16,
            DistStore::U32(_) => CellWidth::U32,
        }
    }

    /// Heap bytes held by the cells (the oracle-memory figure the bench
    /// metadata reports).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.len() * self.width().bytes_per_cell()
    }

    /// Reads cell `idx` as a `u32` distance ([`UNREACHABLE`] encodes
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> u32 {
        match self {
            DistStore::U8(v) => v[idx].to_dist(),
            DistStore::U16(v) => v[idx].to_dist(),
            DistStore::U32(v) => v[idx],
        }
    }

    /// Writes distance `d` into cell `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or a finite `d` overflows the width.
    #[inline]
    pub fn set(&mut self, idx: usize, d: u32) {
        match self {
            DistStore::U8(v) => v[idx] = u8::pack(d),
            DistStore::U16(v) => v[idx] = u16::pack(d),
            DistStore::U32(v) => v[idx] = d,
        }
    }

    /// Materialises the whole store as a `u32` vector (sentinels become
    /// [`UNREACHABLE`]). Intended for tests and cross-width comparisons —
    /// this is the allocation the compact widths exist to avoid.
    #[must_use]
    pub fn to_u32_vec(&self) -> Vec<u32> {
        match self {
            DistStore::U8(v) => v.iter().map(|&c| c.to_dist()).collect(),
            DistStore::U16(v) => v.iter().map(|&c| c.to_dist()).collect(),
            DistStore::U32(v) => v.clone(),
        }
    }

    /// Row `index` of a row-major store of `n`-cell rows, lent in place.
    ///
    /// # Panics
    ///
    /// Panics if the row runs past the end of the store.
    #[must_use]
    pub fn row(&self, index: usize, n: usize) -> DistRow<'_> {
        let cells = index * n..(index + 1) * n;
        match self {
            DistStore::U8(v) => DistRow::U8(&v[cells]),
            DistStore::U16(v) => DistRow::U16(&v[cells]),
            DistStore::U32(v) => DistRow::U32(&v[cells]),
        }
    }

    /// Overwrites row `index` of a row-major store of `row.len()`-cell
    /// rows with `row`, which has the store's width: one slice copy.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or the row runs past the end of the
    /// store.
    pub(crate) fn copy_row(&mut self, index: usize, row: DistRow<'_>) {
        let cells = index * row.len()..(index + 1) * row.len();
        match (self, row) {
            (DistStore::U8(v), DistRow::U8(r)) => v[cells].copy_from_slice(r),
            (DistStore::U16(v), DistRow::U16(r)) => v[cells].copy_from_slice(r),
            (DistStore::U32(v), DistRow::U32(r)) => v[cells].copy_from_slice(r),
            (store, row) => {
                panic!("a {} row copied into a {} store", row.width().name(), store.width().name())
            }
        }
    }
}

/// One source row of the distance matrix, borrowed at the store's cell
/// width: cell `v` is the hop distance from the row's source to `v`, the
/// all-ones cell meaning unreachable.
///
/// Distances are symmetric on undirected graphs, so the row of `t` also
/// holds every node's distance *to* `t` — which is all the
/// smallest-closer-neighbour rule needs to route toward `t`
/// ([`DistRow::first_hop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistRow<'a> {
    /// One-byte cells.
    U8(&'a [u8]),
    /// Two-byte cells.
    U16(&'a [u16]),
    /// Four-byte cells.
    U32(&'a [u32]),
}

impl<'a> DistRow<'a> {
    /// Number of cells (the node count).
    #[must_use]
    pub fn len(self) -> usize {
        match self {
            DistRow::U8(c) => c.len(),
            DistRow::U16(c) => c.len(),
            DistRow::U32(c) => c.len(),
        }
    }

    /// Whether the row has no cells.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The row's cell width.
    #[must_use]
    pub fn width(self) -> CellWidth {
        match self {
            DistRow::U8(_) => CellWidth::U8,
            DistRow::U16(_) => CellWidth::U16,
            DistRow::U32(_) => CellWidth::U32,
        }
    }

    /// Distance from the row's source to `v`, `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn get(self, v: NodeId) -> Option<u32> {
        let d = match self {
            DistRow::U8(c) => c[v].to_dist(),
            DistRow::U16(c) => c[v].to_dist(),
            DistRow::U32(c) => c[v],
        };
        (d != UNREACHABLE).then_some(d)
    }

    /// The first-hop rule every scheme builder shares: the smallest-id
    /// neighbour of `u` one hop closer to the row's source `t` — the first
    /// of [`DistRow::closer_neighbors`]. `None` when `u` is `t` itself or
    /// cannot reach it. A builder that needs the hop from every node
    /// toward every destination uses the block form, [`FirstHopBlock`].
    ///
    /// # Panics
    ///
    /// Panics if `u` or one of its neighbours is out of range.
    #[inline]
    #[must_use]
    pub fn first_hop(self, g: &Graph, u: NodeId) -> Option<NodeId> {
        self.closer_neighbors(g, u).next()
    }

    /// Every neighbour `w` of `u` with `d(t, w) == d(t, u) − 1`, in
    /// neighbour order: the edges a full-information routing function
    /// returns at `u` toward the row's source `t`. Empty when `u` is `t` or
    /// cannot reach it.
    #[must_use]
    pub fn closer_neighbors<'g>(self, g: &'g Graph, u: NodeId) -> CloserNeighbors<'g>
    where
        'a: 'g,
    {
        match self.get(u) {
            Some(d) if d > 0 => CloserNeighbors { row: self, rest: g.neighbors(u), d: d - 1 },
            _ => CloserNeighbors { row: self, rest: &[], d: 0 },
        }
    }

    /// Index in `nodes` of the first node at distance `d`. Dispatches on
    /// the width once, then compares raw cells.
    #[inline]
    fn position_at(self, nodes: &[NodeId], d: u32) -> Option<usize> {
        fn find<T: DistCell>(cells: &[T], nodes: &[NodeId], d: u32) -> Option<usize> {
            let want = T::pack(d);
            nodes.iter().position(|&w| cells[w] == want)
        }
        match self {
            DistRow::U8(c) => find(c, nodes, d),
            DistRow::U16(c) => find(c, nodes, d),
            DistRow::U32(c) => find(c, nodes, d),
        }
    }
}

/// The neighbours [`DistRow::closer_neighbors`] yields. Each `next`
/// resumes the neighbour scan where the previous one stopped.
#[derive(Debug, Clone)]
pub struct CloserNeighbors<'a> {
    row: DistRow<'a>,
    rest: &'a [NodeId],
    d: u32,
}

impl Iterator for CloserNeighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let i = self.row.position_at(self.rest, self.d)?;
        let w = self.rest[i];
        self.rest = &self.rest[i + 1..];
        Some(w)
    }
}

/// Destinations one [`FirstHopBlock`] holds: one bit a lane in a `u64`.
const LANES: usize = 64;

/// The block form of [`DistRow::first_hop`]: up to 64 destination rows,
/// gathered node-major with one byte a cell, so that one pass over a
/// node's sorted neighbours settles its first hop toward every
/// destination of the block.
///
/// Cell `(u, j)` holds `d(u, t_j) mod 256`, where `t_j` is the block's
/// `j`-th destination. That is all the rule needs. The distances of two
/// adjacent nodes to `t_j` differ by at most one, so a neighbour `w` of
/// `u` holds one of three values, and they stay distinct mod 256: `w` is
/// one hop closer exactly when its byte is `u`'s byte minus one, mod 256.
/// Rows of every cell width gather the same way, the `u32` rows of
/// [`Distances::with_row`]'s default copy included.
///
/// The `n × 64` bytes are allocated once, by [`FirstHopBlock::new`], and
/// every [`FirstHopBlock::gather`] reuses them.
#[derive(Debug, Clone)]
pub struct FirstHopBlock {
    /// `cells[u * LANES + j]` is `d(u, dests[j]) mod 256`.
    cells: Vec<u8>,
    dests: Vec<NodeId>,
}

impl FirstHopBlock {
    /// The most destinations a block holds.
    pub const LANES: usize = LANES;

    /// An empty block for a graph of `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        FirstHopBlock { cells: vec![0; n * LANES], dests: Vec::with_capacity(LANES) }
    }

    /// Makes `dests` the block's destinations, copying each one's row in
    /// through [`Distances::with_row`], in order.
    ///
    /// # Panics
    ///
    /// Panics if `dests` names more than [`FirstHopBlock::LANES`] nodes or
    /// an out-of-range node, if a row's length is not the block's `n`, or
    /// if `dists` breaks `with_row`'s contract by never lending a row.
    pub fn gather(&mut self, dists: &dyn Distances, dests: impl IntoIterator<Item = NodeId>) {
        self.dests.clear();
        for (j, t) in dests.into_iter().enumerate() {
            assert!(j < LANES, "a block holds at most {LANES} destinations");
            self.dests.push(t);
            let (cells, mut lent) = (&mut self.cells, false);
            dists.with_row(t, &mut |row| {
                lent = true;
                match row {
                    DistRow::U8(c) => fill_lane(cells, j, c, |d| d),
                    DistRow::U16(c) => fill_lane(cells, j, c, |d| d as u8),
                    DistRow::U32(c) => fill_lane(cells, j, c, |d| d as u8),
                }
            });
            assert!(lent, "with_row lends the row exactly once");
        }
    }

    /// `u`'s first hop toward each destination of the block other than
    /// `u` itself: [`DistRow::first_hop`]'s neighbour, given by its rank
    /// (index) in `g.neighbors(u)`. `None` if some destination has no
    /// neighbour one hop closer, as when it is unreachable from `u`.
    ///
    /// One pass over `u`'s neighbours in order. Each neighbour's 64 bytes
    /// are compared with `u`'s minus one, eight lanes to a word, and the
    /// pass stops once every destination has its hop.
    ///
    /// # Panics
    ///
    /// Panics if `u` or one of its neighbours is out of range.
    #[must_use]
    pub fn first_hops(&self, g: &Graph, u: NodeId) -> Option<BlockHops> {
        let own = self.lane_words(u);
        let closer = own.map(minus_one);
        let mut open = lane_mask(self.dests.len()) & !self.own_lanes(u, &own);
        let mut hops = BlockHops { ranks: [0; LANES], lanes: open };
        for (rank, &w) in g.neighbors(u).iter().enumerate() {
            if open == 0 {
                break;
            }
            let neighbor = self.lane_words(w);
            let mut hit = open & zero_lanes(std::array::from_fn(|i| neighbor[i] ^ closer[i]));
            open &= !hit;
            while hit != 0 {
                hops.ranks[hit.trailing_zeros() as usize] = rank as u32;
                hit &= hit - 1;
            }
        }
        (open == 0).then_some(hops)
    }

    /// Node `u`'s 64 cells as eight little-endian words: lane `j` is byte
    /// `j % 8` of word `j / 8`.
    #[inline]
    fn lane_words(&self, u: NodeId) -> [u64; 8] {
        let cells = &self.cells[u * LANES..(u + 1) * LANES];
        std::array::from_fn(|i| {
            u64::from_le_bytes(cells[8 * i..8 * i + 8].try_into().expect("eight cells"))
        })
    }

    /// The lanes whose destination is `u`. Their cells read 0, as do only
    /// those whose distance is a multiple of 256, so the zero lanes are
    /// checked against the destinations.
    fn own_lanes(&self, u: NodeId, own: &[u64; 8]) -> u64 {
        let mut zero = zero_lanes(*own) & lane_mask(self.dests.len());
        let mut lanes = 0;
        while zero != 0 {
            let j = zero.trailing_zeros() as usize;
            if self.dests[j] == u {
                lanes |= 1 << j;
            }
            zero &= zero - 1;
        }
        lanes
    }
}

/// Writes one destination's row into lane `j` of a node-major block.
fn fill_lane<T: Copy>(cells: &mut [u8], j: usize, row: &[T], byte: impl Fn(T) -> u8) {
    assert_eq!(row.len() * LANES, cells.len(), "row length is not the block's node count");
    for (cell, &d) in cells[j..].iter_mut().step_by(LANES).zip(row) {
        *cell = byte(d);
    }
}

/// The low `lanes` bits.
fn lane_mask(lanes: usize) -> u64 {
    if lanes == LANES {
        u64::MAX
    } else {
        (1 << lanes) - 1
    }
}

const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
const LOW_SEVEN: u64 = !HIGH_BITS;
const ONES: u64 = 0x0101_0101_0101_0101;

/// Each byte of `x` minus one, mod 256, with no borrow between bytes.
#[inline]
fn minus_one(x: u64) -> u64 {
    ((x | HIGH_BITS) - ONES) ^ (!x & HIGH_BITS)
}

/// Bit `j` set iff byte `j % 8` of `words[j / 8]` is zero. Exact: the
/// per-byte sums cannot carry into the next byte.
#[inline]
fn zero_lanes(words: [u64; 8]) -> u64 {
    words.iter().enumerate().fold(0, |mask, (i, &x)| {
        // 0x80 in each zero byte, then those eight bits gathered into
        // the top byte by one multiply.
        let zero = !(((x & LOW_SEVEN) + LOW_SEVEN) | x | LOW_SEVEN);
        mask | ((zero >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
    })
}

/// What [`FirstHopBlock::first_hops`] finds at one node `u`: a
/// `(lane, rank)` pair for each destination of the block other than `u`,
/// in lane order. Lane `j` is the `j`-th destination
/// [`FirstHopBlock::gather`] was given, and `rank` indexes
/// `g.neighbors(u)` at `u`'s first hop toward it.
#[derive(Debug, Clone)]
pub struct BlockHops {
    ranks: [u32; LANES],
    lanes: u64,
}

impl Iterator for BlockHops {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.lanes == 0 {
            return None;
        }
        let j = self.lanes.trailing_zeros() as usize;
        self.lanes &= self.lanes - 1;
        Some((j, self.ranks[j] as usize))
    }
}

/// A horizontal band of the distance matrix: rows
/// `start..start + rows`, each of `n` cells. The streaming oracle mode
/// computes these on demand and retires them, so peak memory is
/// `rows × n` cells instead of `n²`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistBand {
    start: usize,
    rows: usize,
    n: usize,
    store: DistStore,
}

impl DistBand {
    /// Wraps a computed store as the band `start..start + rows`.
    ///
    /// # Panics
    ///
    /// Panics if the store's cell count is not `rows × n`.
    #[must_use]
    pub fn new(start: usize, rows: usize, n: usize, store: DistStore) -> DistBand {
        assert_eq!(store.len(), rows * n, "band store has the wrong cell count");
        DistBand { start, rows, n, store }
    }

    /// First source row the band covers.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of source rows in the band.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether source `u`'s row lies in this band.
    #[must_use]
    pub fn contains(&self, u: NodeId) -> bool {
        (self.start..self.start + self.rows).contains(&u)
    }

    /// Distance from `u` (which must be in the band) to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the band or `v ≥ n`.
    #[must_use]
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        assert!(v < self.n, "node out of range");
        self.row(u).get(v)
    }

    /// Source `u`'s row (which must be in the band), lent in place.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the band.
    #[must_use]
    pub fn row(&self, u: NodeId) -> DistRow<'_> {
        assert!(self.contains(u), "source {u} outside band");
        self.store.row(u - self.start, self.n)
    }

    /// The band's backing store.
    #[must_use]
    pub fn store(&self) -> &DistStore {
        &self.store
    }
}

/// What one BFS per connected component of `g` finds. Each node is
/// traversed exactly once overall, so the sweep is `O(n + m)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentSweep {
    /// The number of connected components (0 for the empty graph).
    pub components: usize,
    /// A sound upper bound on every finite pairwise distance: each
    /// component's diameter is at most twice its representative's
    /// eccentricity, and the bound is clamped to `n − 1`.
    pub diameter_bound: u32,
}

impl ComponentSweep {
    /// Sweeps `g`, one BFS per component.
    #[must_use]
    pub fn of(g: &Graph) -> Self {
        let n = g.node_count();
        let mut dist = vec![UNREACHABLE; n];
        let mut queue = std::collections::VecDeque::new();
        let mut components = 0;
        let mut bound = 0u64;
        for s in 0..n {
            if dist[s] != UNREACHABLE {
                continue;
            }
            components += 1;
            dist[s] = 0;
            queue.push_back(s);
            let mut ecc = 0u32;
            while let Some(u) = queue.pop_front() {
                let du = dist[u];
                ecc = ecc.max(du);
                for &v in g.neighbors(u) {
                    if dist[v] == UNREACHABLE {
                        dist[v] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
            bound = bound.max(2 * u64::from(ecc));
        }
        let diameter_bound = bound.min(n.saturating_sub(1) as u64) as u32;
        ComponentSweep { components, diameter_bound }
    }

    /// Whether `g` is connected (vacuously true for `n ≤ 1`).
    #[must_use]
    pub fn is_connected(self) -> bool {
        self.components <= 1
    }

    /// The cell width [`crate::paths::Apsp::compute`] uses for `g`: the
    /// narrowest width covering [`ComponentSweep::diameter_bound`].
    #[must_use]
    pub fn width(self) -> CellWidth {
        CellWidth::for_bound(self.diameter_bound)
    }
}

/// [`ComponentSweep::width`] of `g`. Deterministic per graph — in
/// particular it does not depend on the engine or the thread count, so
/// compact matrices stay byte-identical across both.
#[must_use]
pub fn width_for(g: &Graph) -> CellWidth {
    ComponentSweep::of(g).width()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cell_pack_roundtrip() {
        assert_eq!(u8::pack(0).to_dist(), 0);
        assert_eq!(u8::pack(254).to_dist(), 254);
        assert_eq!(u8::pack(UNREACHABLE), u8::SENTINEL);
        assert_eq!(u8::SENTINEL.to_dist(), UNREACHABLE);
        assert_eq!(u16::pack(65534).to_dist(), 65534);
        assert_eq!(u32::pack(UNREACHABLE).to_dist(), UNREACHABLE);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn cell_overflow_panics() {
        let _ = u8::pack(255);
    }

    #[test]
    fn width_selection_brackets() {
        assert_eq!(CellWidth::for_bound(0), CellWidth::U8);
        assert_eq!(CellWidth::for_bound(254), CellWidth::U8);
        assert_eq!(CellWidth::for_bound(255), CellWidth::U16);
        assert_eq!(CellWidth::for_bound(65534), CellWidth::U16);
        assert_eq!(CellWidth::for_bound(65535), CellWidth::U32);
        assert_eq!(CellWidth::U8.bytes_per_cell(), 1);
        assert_eq!(CellWidth::U16.bytes_per_cell(), 2);
        assert_eq!(CellWidth::U32.bytes_per_cell(), 4);
    }

    #[test]
    fn store_get_set_across_widths() {
        for width in [CellWidth::U8, CellWidth::U16, CellWidth::U32] {
            let mut s = DistStore::unreachable(width, 8);
            assert_eq!(s.len(), 8);
            assert!(!s.is_empty());
            assert_eq!(s.width(), width);
            assert_eq!(s.heap_bytes(), 8 * width.bytes_per_cell());
            assert_eq!(s.get(3), UNREACHABLE);
            s.set(3, 17);
            s.set(0, 0);
            assert_eq!(s.get(3), 17);
            assert_eq!(s.get(0), 0);
            assert_eq!(s.to_u32_vec()[3], 17);
            assert_eq!(s.to_u32_vec()[1], UNREACHABLE);
        }
    }

    #[test]
    fn diameter_bound_is_sound_and_cheap() {
        for (g, name) in [
            (generators::path(20), "path"),
            (generators::cycle(12), "cycle"),
            (generators::complete(9), "complete"),
            (generators::gnp_half(40, 1), "gnp"),
            (generators::grid(5, 7), "grid"),
            (crate::Graph::from_edges(9, [(0, 1), (1, 2), (5, 6)]).unwrap(), "split"),
            (crate::Graph::empty(4), "isolated"),
        ] {
            let sweep = ComponentSweep::of(&g);
            let bound = sweep.diameter_bound;
            let apsp = crate::paths::Apsp::compute(&g);
            assert_eq!(sweep.is_connected(), crate::paths::is_connected(&g), "{name}");
            for u in 0..g.node_count() {
                for v in 0..g.node_count() {
                    if let Some(d) = apsp.distance(u, v) {
                        assert!(d <= bound, "{name}: d({u},{v})={d} > bound {bound}");
                    }
                }
            }
            assert!(bound <= g.node_count().saturating_sub(1) as u32, "{name}");
        }
        let split = crate::Graph::from_edges(9, [(0, 1), (1, 2), (5, 6)]).unwrap();
        assert_eq!(ComponentSweep::of(&split).components, 6);
        assert_eq!(ComponentSweep::of(&crate::Graph::empty(0)).components, 0);
        assert!(ComponentSweep::of(&crate::Graph::empty(1)).is_connected());
    }

    #[test]
    fn word_lanes_are_exact_for_every_byte() {
        for b in 0..=255u8 {
            for lane in 0..8 {
                // Byte `b` in one lane, other nonzero bytes in the rest.
                let x = u64::from_le_bytes(std::array::from_fn(|i| {
                    if i == lane {
                        b
                    } else {
                        b.wrapping_add(1 + i as u8).max(1)
                    }
                }));
                let dec = minus_one(x).to_le_bytes();
                assert_eq!(dec[lane], b.wrapping_sub(1), "byte {b} lane {lane}");
                let mut words = [u64::MAX; 8];
                words[3] = x;
                let zero = zero_lanes(words);
                assert_eq!(zero, u64::from(b == 0) << (24 + lane), "byte {b} lane {lane}");
            }
        }
    }

    #[test]
    fn first_hop_block_agrees_with_first_hop() {
        // A 700-node path has distances past 255 (u16 cells, and cells
        // that read 0 mod 256 away from the destination); the others are
        // u8 graphs with blocks of 64 and a short last block.
        for g in [generators::path(700), generators::gnp_half(130, 2), generators::grid(9, 11)] {
            let n = g.node_count();
            let apsp = crate::paths::Apsp::compute(&g);
            let mut block = FirstHopBlock::new(n);
            for first in (0..n).step_by(FirstHopBlock::LANES) {
                // Destinations in a scrambled order, to show lanes need
                // not be contiguous.
                let dests: Vec<NodeId> =
                    (first..n.min(first + FirstHopBlock::LANES)).rev().collect();
                block.gather(&apsp, dests.iter().copied());
                for u in 0..n {
                    let hops: Vec<(usize, usize)> = block.first_hops(&g, u).unwrap().collect();
                    let expect: Vec<(usize, usize)> = dests
                        .iter()
                        .enumerate()
                        .filter(|&(_, &t)| t != u)
                        .map(|(j, &t)| {
                            let hop = apsp.row(t).first_hop(&g, u).unwrap();
                            (j, g.neighbors(u).binary_search(&hop).unwrap())
                        })
                        .collect();
                    assert_eq!(hops, expect, "n {n} u {u} block {first}");
                }
            }
        }
        // A destination another component holds has no hop.
        let split = crate::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut block = FirstHopBlock::new(4);
        block.gather(&crate::paths::Apsp::compute(&split), [1, 3]);
        assert!(block.first_hops(&split, 0).is_none());
        let mut block = FirstHopBlock::new(4);
        block.gather(&crate::paths::Apsp::compute(&split), [1]);
        assert_eq!(block.first_hops(&split, 0).map(Iterator::collect), Some(vec![(0, 0)]));
    }

    #[test]
    fn band_distance_reads() {
        let mut store = DistStore::unreachable(CellWidth::U8, 2 * 5);
        store.set(3, 2); // row for source 4
        store.set(5 + 1, 7); // row for source 5
        let band = DistBand::new(4, 2, 5, store);
        assert!(band.contains(4) && band.contains(5) && !band.contains(6));
        assert_eq!(band.start(), 4);
        assert_eq!(band.rows(), 2);
        assert_eq!(band.distance(4, 3), Some(2));
        assert_eq!(band.distance(5, 1), Some(7));
        assert_eq!(band.distance(4, 0), None);
        assert_eq!(band.store().width(), CellWidth::U8);
    }
}
