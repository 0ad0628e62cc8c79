//! Theorem 7 as an experiment: `Ω(n²)` total bits when neighbours are
//! unknown (models IA ∨ IB).
//!
//! **Claim 3**, executable: apply `u`'s local routing function to every
//! label in turn; this partitions the destinations among `u`'s ports. The
//! neighbour behind port `i` must be *one of* the `z_i` destinations routed
//! over it (in a shortest-path scheme the neighbour itself is), so
//! `⌈log z_i⌉` extra bits per port pin it down. **Claim 2** bounds the
//! total extra cost by `n − k`. Since the interconnection pattern of a
//! random node carries `≈ n − O(log n)` bits, the routing function must
//! supply the difference — about `n/2` bits per node.

use ort_bitio::{bits_to_index, BitReader, BitVec, BitWriter};
use ort_graphs::labels::{Label, LabelRef};
use ort_graphs::{Graph, NodeId};

use crate::scheme::{MessageState, RouteError, RoutingScheme};

/// The per-port destination partition induced by `u`'s routing function:
/// `partition[p]` lists the destination labels routed over port `p`, in
/// increasing order. Uses only router queries — never the graph.
///
/// # Errors
///
/// Returns a [`RouteError`] if the router fails on some destination or
/// names an out-of-range port.
pub fn port_partition(
    scheme: &dyn RoutingScheme,
    u: NodeId,
) -> Result<Vec<Vec<usize>>, RouteError> {
    let env = scheme.node_env(u);
    let mut partition = vec![Vec::new(); env.degree];
    let LabelRef::Minimal(own) = env.label else {
        return Err(RouteError::MissingInformation { what: "minimal own label" });
    };
    for dest in 0..env.n {
        if dest == own {
            continue;
        }
        let mut state = MessageState::default();
        // A correct scheme never claims delivery of a foreign label.
        let p = scheme
            .route_at(u, &env, &Label::Minimal(dest), &mut state)?
            .primary_port()
            .ok_or(RouteError::UnknownDestination)?;
        partition
            .get_mut(p)
            .ok_or(RouteError::PortOutOfRange { port: p, degree: env.degree })?
            .push(dest);
    }
    Ok(partition)
}

/// Encodes which destination in each port's class is the actual neighbour:
/// `⌈log z_i⌉` bits per port (Claim 3). The neighbour identities come from
/// the scheme's port assignment — this is the encoder side, which knows
/// the graph.
///
/// # Errors
///
/// Returns a [`RouteError`] if the routing function does not route each
/// neighbour over its own port (violating the shortest-path property).
pub fn encode_interconnection(
    scheme: &dyn RoutingScheme,
    u: NodeId,
) -> Result<BitVec, RouteError> {
    let partition = port_partition(scheme, u)?;
    let pa = scheme.port_assignment();
    let mut w = BitWriter::new();
    for (p, class) in partition.iter().enumerate() {
        let v = pa
            .neighbor_at(u, p)
            .ok_or(RouteError::PortOutOfRange { port: p, degree: partition.len() })?;
        // The neighbour's *label* must appear in its own port class.
        let LabelRef::Minimal(vl) = scheme.labeling().label_ref(v) else {
            return Err(RouteError::MissingInformation { what: "minimal labels" });
        };
        let idx = class
            .binary_search(&vl)
            .map_err(|_| RouteError::UnknownDestination)?;
        w.write_bits(idx as u64, bits_to_index(class.len() as u64))
            .map_err(RouteError::Code)?;
    }
    Ok(w.finish())
}

/// Decodes the neighbour labels of `u` from its routing function (via
/// [`port_partition`]) plus the extra bits from [`encode_interconnection`].
/// Returns the neighbour label behind each port.
///
/// # Errors
///
/// Returns a [`RouteError`] on malformed input.
pub fn decode_interconnection(
    scheme: &dyn RoutingScheme,
    u: NodeId,
    extra: &BitVec,
) -> Result<Vec<usize>, RouteError> {
    let partition = port_partition(scheme, u)?;
    let mut r = BitReader::new(extra);
    let mut neighbors = Vec::with_capacity(partition.len());
    for class in &partition {
        let idx = r.read_bits(bits_to_index(class.len() as u64))? as usize;
        neighbors.push(*class.get(idx).ok_or(RouteError::UnknownDestination)?);
    }
    Ok(neighbors)
}

/// Claim 2, checked exactly: for positive `z_i` summing to `n`,
/// `Σ ⌈log z_i⌉ ≤ n − k`.
#[must_use]
pub fn claim2_holds(zs: &[usize]) -> bool {
    if zs.contains(&0) {
        return false;
    }
    let n: usize = zs.iter().sum();
    let k = zs.len();
    // The paper's ⌈log z⌉ (not ⌈log(z+1)⌉): 0 for z ≤ 1.
    let ceil_log: usize = zs
        .iter()
        .map(|&z| if z <= 1 { 0 } else { (64 - (z - 1).leading_zeros()) as usize })
        .sum();
    ceil_log <= n - k
}

/// Per-node accounting of the Theorem 7 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAccounting {
    /// The node analysed.
    pub node: NodeId,
    /// Measured `|F(u)|`.
    pub f_bits: usize,
    /// The extra bits of Claim 3 (`Σ ⌈log z_i⌉`).
    pub extra_bits: usize,
    /// Information content of the interconnection pattern
    /// (`⌈log C(n−1, d)⌉`).
    pub pattern_bits: usize,
}

impl NodeAccounting {
    /// The incompressibility floor Theorem 7 implies for this node's
    /// routing function: pattern information minus the Claim 3 extra bits.
    #[must_use]
    pub fn implied_floor(&self) -> i64 {
        self.pattern_bits as i64 - self.extra_bits as i64
    }
}

/// Runs the Claim 3 accounting for node `u`.
///
/// # Errors
///
/// As [`encode_interconnection`].
pub fn analyze_node(
    g: &Graph,
    scheme: &dyn RoutingScheme,
    u: NodeId,
) -> Result<NodeAccounting, RouteError> {
    let extra = encode_interconnection(scheme, u)?;
    let n = g.node_count();
    let d = g.degree(u);
    Ok(NodeAccounting {
        node: u,
        f_bits: scheme.node_size_bits(u),
        extra_bits: extra.len(),
        pattern_bits: ort_bitio::enumerative::subset_code_width(n - 1, d),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Knowledge, Model, Relabeling};
    use crate::schemes::full_table::FullTableScheme;
    use ort_graphs::labels::Labeling;
    use ort_graphs::paths::Apsp;
    use ort_graphs::ports::PortAssignment;
    use ort_graphs::generators;

    fn ib_scheme(g: &Graph, dists: &Apsp) -> FullTableScheme {
        FullTableScheme::build_with(
            g,
            dists,
            Model::new(Knowledge::PortsFree, Relabeling::None),
            PortAssignment::sorted(g),
            Labeling::identity(g.node_count()),
        )
        .unwrap()
    }

    #[test]
    fn interconnection_roundtrip() {
        let g = generators::gnp_half(24, 2);
        let scheme = ib_scheme(&g, &Apsp::compute(&g));
        for u in 0..24 {
            let extra = encode_interconnection(&scheme, u).unwrap();
            let neighbors = decode_interconnection(&scheme, u, &extra).unwrap();
            // Decoded labels are the neighbours behind ports, in port order.
            let expect: Vec<usize> = (0..g.degree(u))
                .map(|p| scheme.port_assignment().neighbor_at(u, p).unwrap())
                .collect();
            assert_eq!(neighbors, expect, "node {u}");
        }
    }

    #[test]
    fn extra_bits_obey_claim2() {
        let g = generators::gnp_half(32, 4);
        let scheme = ib_scheme(&g, &Apsp::compute(&g));
        for u in 0..32 {
            let partition = port_partition(&scheme, u).unwrap();
            let zs: Vec<usize> = partition.iter().map(Vec::len).collect();
            assert!(claim2_holds(&zs), "node {u}: {zs:?}");
            let extra = encode_interconnection(&scheme, u).unwrap();
            let n: usize = zs.iter().sum::<usize>();
            assert!(extra.len() <= n - zs.len(), "node {u}");
        }
    }

    #[test]
    fn claim2_inequality_cases() {
        assert!(claim2_holds(&[1]));
        assert!(claim2_holds(&[2, 2, 2]));
        assert!(claim2_holds(&[16]));
        assert!(claim2_holds(&[7, 1, 1, 3]));
        assert!(!claim2_holds(&[0, 4]), "zero class sizes are invalid");
        // Exhaustive small check: all compositions of n=10.
        fn compositions(n: usize, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if n == 0 {
                out.push(acc.clone());
                return;
            }
            for first in 1..=n {
                acc.push(first);
                compositions(n - first, acc, out);
                acc.pop();
            }
        }
        let mut all = Vec::new();
        compositions(10, &mut Vec::new(), &mut all);
        for zs in all {
            assert!(claim2_holds(&zs), "{zs:?}");
        }
    }

    #[test]
    fn floor_is_near_half_n_on_random_graphs() {
        let n = 64;
        let g = generators::gnp_half(n, 8);
        let scheme = ib_scheme(&g, &Apsp::compute(&g));
        for u in (0..n).step_by(9) {
            let acc = analyze_node(&g, &scheme, u).unwrap();
            // pattern ≈ n − O(log n); extra ≤ n − 1 − d ≈ n/2.
            assert!(acc.pattern_bits > n / 2, "node {u}: {acc:?}");
            assert!(acc.implied_floor() > 0, "node {u}: {acc:?}");
            // And the real routing function indeed exceeds the floor.
            assert!((acc.f_bits as i64) >= acc.implied_floor(), "node {u}: {acc:?}");
        }
    }
}
