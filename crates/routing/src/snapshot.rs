//! Scheme persistence: serialize a built routing scheme — port orders,
//! labelling and every node's routing-function bits — into one
//! self-contained bit string, and load it back into a working scheme.
//!
//! This is the deployment story: tables are computed once (centrally, as
//! the paper's "universal routing strategy" would) and shipped; a loaded
//! scheme routes identically to the original, because routing only ever
//! consumes the stored bits anyway.
//!
//! The container format (all via `ort-bitio`, MSB-first):
//!
//! ```text
//! magic "ORTS" (32 bits) · version γ · kind (5 bits) · n (self-delim)
//! · kind-specific config · port orders · labelling · per-node bits
//! ```

use ort_bitio::{codes, BitReader, BitVec, BitWriter, CodeError};
use ort_graphs::labels::{Label, Labeling};
use ort_graphs::ports::PortAssignment;
use ort_graphs::{Graph, NodeId};

use crate::scheme::{RoutingScheme, SchemeError, Tables};
use crate::schemes::{
    full_information::FullInformationScheme, full_table::FullTableScheme,
    multi_interval::MultiIntervalScheme, theorem1::Theorem1Scheme, theorem2::Theorem2Scheme,
    theorem5::Theorem5Scheme,
};

const MAGIC: u32 = 0x4F52_5453; // "ORTS"
const VERSION: u64 = 1;

/// Which concrete scheme a snapshot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SchemeKind {
    /// [`FullTableScheme`] (any α/β model; the model is stored).
    FullTable,
    /// [`Theorem1Scheme`], model II variant.
    Theorem1,
    /// [`Theorem1Scheme`], model IB variant.
    Theorem1Ib,
    /// [`Theorem2Scheme`] (II ∧ γ).
    Theorem2,
    /// [`Theorem5Scheme`] (zero stored bits; the probe budget is config).
    Theorem5,
    /// [`FullInformationScheme`].
    FullInformation,
    /// [`MultiIntervalScheme`].
    MultiInterval,
}

impl SchemeKind {
    /// Every snapshot-capable kind, in code order — the conformance suite
    /// iterates this to guarantee no kind escapes coverage.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::FullTable,
        SchemeKind::Theorem1,
        SchemeKind::Theorem1Ib,
        SchemeKind::Theorem2,
        SchemeKind::Theorem5,
        SchemeKind::FullInformation,
        SchemeKind::MultiInterval,
    ];

    fn code(self) -> u64 {
        match self {
            SchemeKind::FullTable => 0,
            SchemeKind::Theorem1 => 1,
            SchemeKind::Theorem1Ib => 2,
            SchemeKind::Theorem2 => 3,
            SchemeKind::Theorem5 => 4,
            SchemeKind::FullInformation => 5,
            SchemeKind::MultiInterval => 6,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            0 => SchemeKind::FullTable,
            1 => SchemeKind::Theorem1,
            2 => SchemeKind::Theorem1Ib,
            3 => SchemeKind::Theorem2,
            4 => SchemeKind::Theorem5,
            5 => SchemeKind::FullInformation,
            6 => SchemeKind::MultiInterval,
            _ => return None,
        })
    }
}

/// Serializes `scheme` (whose concrete kind the caller names) into a
/// self-contained snapshot.
///
/// # Errors
///
/// Returns a [`SchemeError`] if the scheme's labelling is inconsistent
/// (cannot happen for schemes built by this crate).
pub fn save(kind: SchemeKind, scheme: &dyn RoutingScheme) -> Result<BitVec, SchemeError> {
    let n = scheme.node_count();
    let mut w = BitWriter::new();
    w.write_bits(u64::from(MAGIC), 32)?;
    codes::write_elias_gamma(&mut w, VERSION)?;
    w.write_bits(kind.code(), 5)?;
    codes::write_u64_selfdelim(&mut w, n as u64)?;
    // Kind-specific config.
    // Theorem 5's probe budget is derived from n (DEFAULT_C) at load time;
    // only the full table carries extra config.
    if kind == SchemeKind::FullTable {
        // Knowledge (2 bits) + relabeling (2 bits).
        use crate::model::{Knowledge, Relabeling};
        let m = scheme.model();
        let k = match m.knowledge {
            Knowledge::PortsFixed => 0u64,
            Knowledge::PortsFree => 1,
            Knowledge::NeighborsKnown => 2,
        };
        let r = match m.relabeling {
            Relabeling::None => 0u64,
            Relabeling::Permutation => 1,
            Relabeling::Free => 2,
        };
        w.write_bits(k, 2)?;
        w.write_bits(r, 2)?;
    }
    // Port orders (this doubles as the topology).
    let pa = scheme.port_assignment();
    let width = ort_bitio::bits_to_index(n as u64);
    for u in 0..n {
        codes::write_u64_selfdelim(&mut w, pa.degree(u) as u64)?;
        for p in 0..pa.degree(u) {
            w.write_bits(pa.neighbor_at(u, p).expect("port in range") as u64, width)?;
        }
    }
    // Labelling.
    let labeling = scheme.labeling();
    let first = if n > 0 { Some(labeling.label_of(0)) } else { None };
    let identity = (0..n).all(|u| labeling.label_of(u) == Label::Minimal(u));
    if identity {
        w.write_bits(0, 2)?;
    } else {
        match first {
            Some(Label::Minimal(_)) => {
                w.write_bits(1, 2)?;
                for u in 0..n {
                    let Label::Minimal(l) = labeling.label_of(u) else {
                        return Err(SchemeError::Precondition {
                            reason: "mixed label kinds".into(),
                        });
                    };
                    w.write_bits(l as u64, width)?;
                }
            }
            Some(Label::Bits(_)) | None => {
                w.write_bits(2, 2)?;
                for u in 0..n {
                    let Label::Bits(b) = labeling.label_of(u) else {
                        return Err(SchemeError::Precondition {
                            reason: "mixed label kinds".into(),
                        });
                    };
                    codes::write_selfdelim_prime(&mut w, &b);
                }
            }
        }
    }
    // Per-node routing bits.
    for u in 0..n {
        codes::write_selfdelim_prime(&mut w, scheme.node_bits(u));
    }
    Ok(w.finish())
}

/// Loads a snapshot back into a working scheme.
///
/// # Errors
///
/// Returns a [`SchemeError`] on malformed input or version mismatch.
pub fn load(data: &BitVec) -> Result<Box<dyn RoutingScheme>, SchemeError> {
    let mut r = BitReader::new(data);
    if r.read_bits(32)? != u64::from(MAGIC) {
        return Err(bad("bad magic"));
    }
    if codes::read_elias_gamma(&mut r)? != VERSION {
        return Err(bad("unsupported version"));
    }
    let kind = SchemeKind::from_code(r.read_bits(5)?).ok_or_else(|| bad("unknown kind"))?;
    let n = codes::read_u64_selfdelim(&mut r)? as usize;
    // Every node contributes at least its degree field (≥ 1 bit), so a
    // valid snapshot can never declare more nodes than it has bits left.
    // Without this guard a corrupted length field drives the
    // `with_capacity` calls below into a pathological allocation.
    if n > data.len() {
        return Err(bad("node count exceeds snapshot size"));
    }
    // Kind-specific config.
    let ft_model = if kind == SchemeKind::FullTable {
        use crate::model::{Knowledge, Model, Relabeling};
        let k = match r.read_bits(2)? {
            0 => Knowledge::PortsFixed,
            1 => Knowledge::PortsFree,
            2 => Knowledge::NeighborsKnown,
            _ => return Err(bad("bad knowledge code")),
        };
        let rl = match r.read_bits(2)? {
            0 => Relabeling::None,
            1 => Relabeling::Permutation,
            2 => Relabeling::Free,
            _ => return Err(bad("bad relabeling code")),
        };
        Some(Model::new(k, rl))
    } else {
        None
    };
    // Port orders → graph + assignment.
    let width = ort_bitio::bits_to_index(n as u64);
    let mut orders: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    for _ in 0..n {
        let d = codes::read_u64_selfdelim(&mut r)? as usize;
        if d >= n.max(1) {
            return Err(bad("degree out of range"));
        }
        let mut order = Vec::with_capacity(d);
        for _ in 0..d {
            let v = r.read_bits(width)? as usize;
            if v >= n {
                return Err(bad("neighbour out of range"));
            }
            order.push(v);
        }
        orders.push(order);
    }
    let mut g = Graph::empty(n);
    for (u, order) in orders.iter().enumerate() {
        for &v in order {
            g.add_edge(u, v)?;
        }
    }
    // Cross-validate: every listed neighbour relation must be symmetric.
    for (u, order) in orders.iter().enumerate() {
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != order.len() || sorted != g.neighbors(u) {
            return Err(bad("port orders are not a consistent topology"));
        }
    }
    let ports = PortAssignment::from_orders(&g, orders);
    // Labelling.
    let labeling = match r.read_bits(2)? {
        0 => Labeling::identity(n),
        1 => {
            let mut perm = Vec::with_capacity(n);
            for _ in 0..n {
                perm.push(r.read_bits(width)? as usize);
            }
            Labeling::permutation(perm).map_err(|_| bad("bad permutation labels"))?
        }
        2 => {
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(codes::read_selfdelim_prime(&mut r)?);
            }
            Labeling::arbitrary(labels).map_err(|_| bad("duplicate labels"))?
        }
        _ => return Err(bad("bad labeling tag")),
    };
    // Per-node bits.
    let mut bits = Vec::with_capacity(n);
    for _ in 0..n {
        bits.push(codes::read_selfdelim_prime(&mut r)?);
    }
    if !r.is_at_end() {
        return Err(bad("trailing bytes"));
    }
    let tables = Tables { bits, labeling, ports };
    Ok(match kind {
        SchemeKind::FullTable => {
            Box::new(FullTableScheme::from_parts(ft_model.expect("read above"), tables))
        }
        SchemeKind::Theorem1 => Box::new(Theorem1Scheme::from_parts(false, tables)),
        SchemeKind::Theorem1Ib => Box::new(Theorem1Scheme::from_parts(true, tables)),
        SchemeKind::Theorem2 => Box::new(Theorem2Scheme::from_parts(tables)),
        SchemeKind::Theorem5 => Box::new(Theorem5Scheme::from_parts(tables)),
        SchemeKind::FullInformation => Box::new(FullInformationScheme::from_parts(tables)),
        SchemeKind::MultiInterval => Box::new(MultiIntervalScheme::from_parts(tables)),
    })
}

fn bad(reason: &'static str) -> SchemeError {
    SchemeError::Code(CodeError::InvalidCode { code: "snapshot", reason })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{route_pair, verify};
    use ort_graphs::generators;
    use ort_graphs::paths::Apsp;

    fn routes_identically(
        g: &Graph,
        a: &dyn RoutingScheme,
        b: &dyn RoutingScheme,
    ) {
        let n = g.node_count();
        for s in 0..n {
            for t in 0..n {
                if s == t {
                    continue;
                }
                let pa = route_pair(a, s, t, 4 * n);
                let pb = route_pair(b, s, t, 4 * n);
                assert_eq!(pa.ok(), pb.ok(), "pair ({s},{t})");
            }
        }
    }

    #[test]
    fn full_table_roundtrip() {
        let g = generators::gnp_half(20, 1);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let snap = save(SchemeKind::FullTable, &scheme).unwrap();
        let loaded = load(&snap).unwrap();
        assert_eq!(loaded.total_size_bits(), scheme.total_size_bits());
        routes_identically(&g, &scheme, loaded.as_ref());
    }

    #[test]
    fn theorem1_both_variants_roundtrip() {
        let g = generators::gnp_half(24, 2);
        let dists = Apsp::compute(&g);
        for (kind, scheme) in [
            (SchemeKind::Theorem1, Theorem1Scheme::build(&g, &dists).unwrap()),
            (SchemeKind::Theorem1Ib, Theorem1Scheme::build_ib(&g, &dists).unwrap()),
        ] {
            let snap = save(kind, &scheme).unwrap();
            let loaded = load(&snap).unwrap();
            assert_eq!(loaded.model(), scheme.model());
            routes_identically(&g, &scheme, loaded.as_ref());
            assert!(verify(&g, loaded.as_ref(), &dists, 1).unwrap().is_shortest_path());
        }
    }

    #[test]
    fn gamma_labels_roundtrip() {
        let g = generators::gnp_half(32, 3);
        let scheme = Theorem2Scheme::build(&g, &Apsp::compute(&g)).unwrap();
        let snap = save(SchemeKind::Theorem2, &scheme).unwrap();
        let loaded = load(&snap).unwrap();
        assert_eq!(loaded.total_size_bits(), scheme.total_size_bits());
        assert!(loaded.labeling().is_charged());
        routes_identically(&g, &scheme, loaded.as_ref());
    }

    #[test]
    fn zero_bit_scheme_roundtrip() {
        let g = generators::gnp_half(32, 4);
        let dists = Apsp::compute(&g);
        let scheme = Theorem5Scheme::build(&g, &dists).unwrap();
        let snap = save(SchemeKind::Theorem5, &scheme).unwrap();
        let loaded = load(&snap).unwrap();
        assert_eq!(loaded.total_size_bits(), 0);
        assert!(verify(&g, loaded.as_ref(), &dists, 1).unwrap().all_delivered());
    }

    #[test]
    fn full_information_and_multi_interval_roundtrip() {
        let g = generators::gnp_half(18, 5);
        let dists = Apsp::compute(&g);
        let fi = FullInformationScheme::build(&g, &dists).unwrap();
        let loaded = load(&save(SchemeKind::FullInformation, &fi).unwrap()).unwrap();
        routes_identically(&g, &fi, loaded.as_ref());
        let mi = MultiIntervalScheme::build(&g, &dists).unwrap();
        let snap = save(SchemeKind::MultiInterval, &mi).unwrap();
        let loaded = load(&snap).unwrap();
        routes_identically(&g, &mi, loaded.as_ref());
        // The compactness metric survives the round trip.
        let typed = MultiIntervalScheme::from_parts(mi.tables().clone());
        assert_eq!(typed.total_intervals(), mi.total_intervals());
    }

    #[test]
    fn malformed_snapshots_rejected() {
        let g = generators::gnp_half(12, 6);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let snap = save(SchemeKind::FullTable, &scheme).unwrap();
        // Bad magic.
        let mut bad_magic = snap.clone();
        bad_magic.set(0, !bad_magic.get(0).unwrap());
        assert!(load(&bad_magic).is_err());
        // Truncation at any of several points.
        for cut in [10usize, 50, snap.len() / 2, snap.len() - 1] {
            let trunc = snap.slice(0..cut);
            assert!(load(&trunc).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut long = snap.clone();
        long.push(true);
        assert!(load(&long).is_err());
    }

    #[test]
    fn snapshot_size_is_dominated_by_tables() {
        // The container overhead must be small relative to the payload.
        let g = generators::gnp_half(64, 7);
        let scheme = FullTableScheme::build(&g, &Apsp::compute(&g)).unwrap();
        let snap = save(SchemeKind::FullTable, &scheme).unwrap();
        let payload = scheme.total_size_bits();
        // ports ≈ Σ d log n; overhead beyond ports+tables stays < 20%.
        let ports_bits: usize =
            (0..64).map(|u| 6 * 2 + g.degree(u) * 6).sum::<usize>();
        assert!(snap.len() < (payload + ports_bits) * 13 / 10);
    }
}
