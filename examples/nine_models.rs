//! Tour of the paper's nine models: how the same network costs wildly
//! different numbers of bits depending on what nodes know (IA/IB/II) and
//! whether labels may be changed (α/β/γ).
//!
//! Run with: `cargo run --release --example nine_models`

use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::labels::Labeling;
use optimal_routing_tables::graphs::ports::PortAssignment;
use optimal_routing_tables::routing::model::{Knowledge, Model, Relabeling};
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::{
    full_table::FullTableScheme, theorem1::Theorem1Scheme, theorem2::Theorem2Scheme,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use optimal_routing_tables::graphs::paths::Apsp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // n = 256 sits past the Theorem-1/Theorem-2 crossover: below it the
    // O(n log² n) labelled scheme still loses to Θ(n²) on constants.
    let n = 256;
    let g = generators::gnp_half(n, 13);
    println!("== one network, nine models (n = {n}) ==\n");
    println!("{:<8} {:<34} {:>12} {:>12}", "model", "best implemented scheme", "total bits", "bits/n²");

    let mut rng = StdRng::seed_from_u64(999);
    let print_row = |model: &str, scheme: &str, bits: usize| {
        println!("{:<8} {:<34} {:>12} {:>12.2}", model, scheme, bits, bits as f64 / (n * n) as f64);
    };

    // IA ∧ α: adversarial fixed ports — only the full table works
    // (Theorem 8 proves ~n² log n is forced).
    let dists = Apsp::compute(&g);
    let ia = FullTableScheme::build_with(
        &g,
        &dists,
        Model::new(Knowledge::PortsFixed, Relabeling::None),
        PortAssignment::adversarial(&g, &mut rng),
        Labeling::identity(n),
    )?;
    print_row("IA∧α", "full table (Θ(n² log n), forced)", ia.total_size_bits());

    // IA ∧ α again, but meeting Theorem 8's constant from above: store the
    // unavoidable permutation (Lehmer-ranked) instead of a naive table.
    let mut rng2 = StdRng::seed_from_u64(999);
    let ia_compact = optimal_routing_tables::routing::schemes::ia_compact::IaCompactScheme::build(
        &g,
        PortAssignment::adversarial(&g, &mut rng2),
        &dists,
    )?;
    print_row("IA∧α", "IA-compact (≈ the Thm 8 floor)", ia_compact.total_size_bits());

    // IB ∧ α: free ports let Theorem 1 store the interconnection vector.
    let ib = Theorem1Scheme::build_ib(&g, &dists)?;
    print_row("IB∧α", "Theorem 1 + stored neighbours", ib.total_size_bits());

    // II ∧ α: neighbours known — Theorem 1 proper.
    let ii = Theorem1Scheme::build(&g, &dists)?;
    print_row("II∧α", "Theorem 1 (≤ 6n bits/node)", ii.total_size_bits());

    // II ∧ β: permuted labels add nothing for shortest paths (the lower
    // bound is open in the paper; the upper bound is the same scheme).
    print_row("II∧β", "Theorem 1 (β adds nothing here)", ii.total_size_bits());

    // II ∧ γ: free labels collapse the cost to O(n log² n) — the labels
    // themselves are charged.
    let gamma = Theorem2Scheme::build(&g, &dists)?;
    print_row("II∧γ", "Theorem 2 (labels carry routing)", gamma.total_size_bits());

    println!();
    println!(
        "charged label bits under γ: {} of {} total",
        gamma.labeling().total_charged_bits(),
        gamma.total_size_bits()
    );
    println!("\npaper's Table 1 orderings to observe:");
    println!("  IA∧α ≫ IB∧α ≈ II∧α ≫ II∧γ");
    assert!(ia.total_size_bits() > ib.total_size_bits());
    assert!(ib.total_size_bits() >= ii.total_size_bits());
    assert!(ii.total_size_bits() > gamma.total_size_bits());
    Ok(())
}
