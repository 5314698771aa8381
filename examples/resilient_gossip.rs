//! Multi-message gossip broadcast surviving crash faults, with coloring
//! and contention resolution as warm-ups — the Section 3.3 protocol
//! family running as slot protocols on the event engine.
//!
//! ```text
//! cargo run --release --example resilient_gossip
//! ```

use beyond_geometry::distributed::run_multi_broadcast_with_faults;
use beyond_geometry::prelude::*;
use beyond_geometry::spaces::line_points;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 14;
    let space = geometric_space(&line_points(n, 1.0), 2.0)?;
    // Noise limits direct range, so distant nodes need relays.
    let params = SinrParams::new(1.0, 0.01)?;

    // 1. Distributed coloring: nodes agree on conflict-free colors.
    let coloring = run_coloring(
        &space,
        &SinrParams::default(),
        &ColoringConfig {
            f_max: 4.0,
            seed: 2,
            ..Default::default()
        },
    );
    println!(
        "coloring: Δ = {}, colors used = {}, slots = {}, proper = {}",
        coloring.max_degree, coloring.colors_used, coloring.slots, coloring.completed,
    );

    // 2. Contention resolution: every link delivers one packet.
    let (lspace, links, _) = random_link_deployment(10, 40.0, 2.6, 5)?;
    let powers = PowerAssignment::unit().powers(&lspace, &links)?;
    let aff = AffectanceMatrix::build(&lspace, &links, &powers, &SinrParams::default())?;
    let contention = run_contention(&aff, &ContentionConfig::default());
    println!(
        "contention: {} links delivered in {} slots ({} transmissions)",
        contention.delivered(),
        contention.slots_used,
        contention.transmissions,
    );

    // 3. Gossip under faults: two messages from opposite ends, two nodes
    //    crashed forever, two more down for the first 3000 slots.
    let sources = [NodeId::new(0), NodeId::new(n - 1)];
    let plan = FaultPlan::none()
        .with_crash(NodeId::new(4), 0)
        .with_outage(NodeId::new(7), 0, 3000);
    let report = run_multi_broadcast_with_faults(
        &space,
        &params,
        &sources,
        &MultiBroadcastConfig::default(),
        &plan,
    );
    println!(
        "gossip with faults: completed = {} in {} slots, coverage {:.2}",
        report.completed,
        report.slots,
        report.coverage(),
    );
    Ok(())
}
