//! Traffic workloads for the simulators.

use ort_graphs::NodeId;

/// Every ordered pair once — the paper's implicit workload (a routing
/// scheme must serve every pair).
#[must_use]
pub fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n).flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pairs_counts() {
        let w = all_pairs(5);
        assert_eq!(w.len(), 20);
        assert!(w.iter().all(|&(s, t)| s != t && s < 5 && t < 5));
    }
}
