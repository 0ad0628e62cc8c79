//! A live network under churn — links flap, routers join and leave, and
//! the routing tables keep up by incremental repair instead of rebuild.
//!
//! A `RepairableScheme` pairs a delta-repaired distance oracle with
//! dirty-region table patching: a localized link delta recomputes only
//! the dirty distance rows and splices only the affected table entries,
//! while membership churn rebuilds the scheme against the repaired
//! oracle. Either way the result is byte-identical to a from-scratch
//! build — which this demo checks live, every event.
//!
//! Run with: `cargo run --release --example live_network_churn`

use optimal_routing_tables::graphs::generators;
use optimal_routing_tables::graphs::paths::Apsp;
use optimal_routing_tables::routing::repair::RepairableScheme;
use optimal_routing_tables::routing::schemes::full_table::FullTableScheme;
use optimal_routing_tables::routing::snapshot::{self, SchemeKind};
use optimal_routing_tables::simnet::churn::{ChurnConfig, ChurnEvent, ChurnPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 256;
    let g = generators::connected_gnp(n, 0.04, 7);
    println!("== a {n}-node network that refuses to hold still ==\n");

    let mut live = RepairableScheme::full_table(g.clone())?;
    println!(
        "initial full-table scheme: {} bits across {} nodes\n",
        live.scheme().total_size_bits(),
        live.node_count()
    );

    let cfg = ChurnConfig { steps: 16, ..ChurnConfig::default() };
    let plan = ChurnPlan::generate(&g, &cfg, 7);
    for timed in plan.events() {
        let report = match &timed.event {
            ChurnEvent::AddLink(u, v) => live.add_link(*u, *v)?,
            ChurnEvent::RemoveLink(u, v) => live.remove_link(*u, *v)?,
            ChurnEvent::Join { peers } => live.join(peers)?.1,
            ChurnEvent::Leave(u) => live.leave(*u)?,
        };
        let how = if report.scheme_rebuilt {
            "rebuilt".to_string()
        } else {
            format!("patched {} entries", report.entries_patched)
        };
        println!(
            "t={:<2} {:<28} dirty rows {:>3}  ->  {how}",
            timed.at,
            timed.event.to_string(),
            report.dirty_nodes
        );

        // The live scheme must be indistinguishable from one built from
        // scratch on whatever the topology is now.
        let fresh = FullTableScheme::build(live.graph(), &Apsp::compute(live.graph()))?;
        assert_eq!(
            snapshot::save(SchemeKind::FullTable, live.scheme())?,
            snapshot::save(SchemeKind::FullTable, &fresh)?,
            "repair diverged from a cold build"
        );
    }

    let stats = live.stats();
    println!(
        "\nsurvived {} events: {} in-place patches, {} rebuilds, {} refused — \
         byte-identical to a cold build after every single one",
        plan.len(),
        stats.patches,
        stats.rebuilds,
        stats.refusals
    );
    Ok(())
}
