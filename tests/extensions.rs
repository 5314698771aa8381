//! Cross-crate integration tests for the second-wave systems: reception
//! models and PRR inference (netsim), independence parameters (sinr),
//! online capacity / conflict graphs / auctions (capacity), and the new
//! distributed protocols, composed through the facade crate.

use beyond_geometry::distributed::{
    run_multi_broadcast_with_faults, AvailabilityModel, ContentionStrategy, JammingModel,
};
use beyond_geometry::prelude::*;
use beyond_geometry::spaces::line_points;

fn deployment(
    m: usize,
    alpha: f64,
    seed: u64,
) -> (DecaySpace, LinkSet, QuasiMetric, AffectanceMatrix) {
    let (space, links, _) =
        beyond_geometry::spaces::bounded_length_deployment(m, 30.0, 1.0, 3.0, alpha, seed).unwrap();
    let zeta = metricity(&space).zeta_at_least_one();
    let quasi = QuasiMetric::from_space_with_exponent(&space, zeta);
    let powers = PowerAssignment::unit().powers(&space, &links).unwrap();
    let aff = AffectanceMatrix::build(&space, &links, &powers, &SinrParams::default()).unwrap();
    (space, links, quasi, aff)
}

#[test]
fn prr_inference_preserves_capacity_decisions() {
    // Full measurement pipeline: truth -> probes -> inferred space ->
    // capacity algorithm agreement (the paper's promise that measured
    // decay spaces are algorithmically usable).
    let (raw, links, _, _) = deployment(8, 2.5, 31);
    let mut decays: Vec<f64> = raw.ordered_pairs().map(|(_, _, f)| f).collect();
    decays.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let truth = raw.scaled(1.0 / (decays[decays.len() / 2] * 0.3));
    let probe_params = SinrParams::new(1.0, 0.3).unwrap();
    let prr = run_probe_campaign(
        &truth,
        &probe_params,
        ReceptionModel::Rayleigh,
        4000,
        1.0,
        3,
    );
    let outcome = infer_decay_from_prr(&prr, 1.0, &probe_params).unwrap();
    let report = compare_decays(&truth, &outcome.space, &outcome.unreliable_pairs());
    assert!(report.mean_abs_log10_error < 0.1, "{report:?}");
    assert!(report.log_correlation > 0.9, "{report:?}");

    let p = SinrParams::default();
    let powers = PowerAssignment::unit().powers(&truth, &links).unwrap();
    let aff_truth = AffectanceMatrix::build(&truth, &links, &powers, &p).unwrap();
    let aff_inf = AffectanceMatrix::build(&outcome.space, &links, &powers, &p).unwrap();
    let sel_truth = greedy_affectance(&truth, &links, &aff_truth, None).selected;
    let sel_inf = greedy_affectance(&outcome.space, &links, &aff_inf, None).selected;
    // The inferred space must reproduce the truth's greedy selection size
    // within one link.
    assert!(
        (sel_truth.len() as i64 - sel_inf.len() as i64).abs() <= 1,
        "truth {} vs inferred {}",
        sel_truth.len(),
        sel_inf.len()
    );
}

#[test]
fn online_capacity_is_sandwiched_by_offline_bounds() {
    let (space, links, quasi, aff) = deployment(12, 3.0, 17);
    let all: Vec<LinkId> = links.ids().collect();
    let opt = max_feasible_subset(&aff, &all, EXACT_CAPACITY_LIMIT).len();
    for rule in [OnlineRule::GreedyFeasible, OnlineRule::BudgetedAdmission] {
        for order in [
            ArrivalOrder::ById,
            ArrivalOrder::DecreasingDecay,
            ArrivalOrder::Random { seed: 4 },
        ] {
            let arr = arrival_order(&space, &links, order);
            let res = online_capacity(&links, &quasi, &aff, &arr, rule);
            assert!(aff.is_feasible(&res.accepted), "{rule:?}/{order:?}");
            assert!(res.size() <= opt, "online beat the exact optimum");
            assert!(res.size() >= 1, "accepted nothing on {rule:?}/{order:?}");
        }
    }
}

#[test]
fn auction_welfare_is_bounded_by_weighted_optimum() {
    let (_, links, _, aff) = deployment(10, 2.5, 23);
    let all: Vec<LinkId> = links.ids().collect();
    let bids: Vec<f64> = (0..links.len()).map(|i| 1.0 + (i % 4) as f64).collect();
    let opt = max_weight_feasible_subset(&aff, &all, &bids, EXACT_WEIGHTED_LIMIT);
    let opt_w: f64 = opt.iter().map(|v| bids[v.index()]).sum();
    let out = run_auction(&aff, &bids, &AuctionConfig { channels: 1 });
    assert!(out.welfare <= opt_w + 1e-9, "auction beat the optimum");
    assert!(out.welfare > 0.0);
    assert!(out.revenue() <= out.welfare + 1e-9);
}

#[test]
fn conflict_graph_and_inductive_independence_compose() {
    let (space, links, _, aff) = deployment(12, 3.0, 29);
    let graph = ConflictGraph::from_affectance(&aff, 1.0);
    let ci = graph.c_independence();
    assert!(ci.c <= links.len());
    let order = links.ids_by_decay(&space);
    let sets = sample_feasible_sets(&aff, 25, 2);
    let rho = inductive_independence(&aff, &order, &sets);
    assert!(rho.is_finite() && rho >= 0.0);
    // Conflict-graph scheduling end to end.
    let report = conflict_schedule_report(&space, &links, &aff, 1.0);
    for slot in &report.repaired.slots {
        assert!(aff.is_feasible(slot));
    }
    let scheduled: usize = report.repaired.scheduled();
    assert_eq!(scheduled + report.repaired.dropped.len(), links.len());
}

#[test]
fn contention_resolution_meets_schedule_bound() {
    let (space, links, _, aff) = deployment(10, 3.0, 37);
    let all: Vec<LinkId> = links.ids().collect();
    let sched = schedule_by_capacity(&aff, &all, |rem| {
        greedy_affectance(&space, &links, &aff, Some(rem)).selected
    });
    let report = run_contention(
        &aff,
        &beyond_geometry::distributed::ContentionConfig {
            strategy: ContentionStrategy::Fixed { p: 0.1 },
            max_slots: 50_000,
            seed: 3,
        },
    );
    assert!(report.all_delivered);
    // Loose sanity bound: distributed completion within a few hundred
    // times the centralized schedule length (theory: O(T log n) whp).
    assert!(
        report.slots_used <= 500 * sched.len().max(1),
        "slots {} vs schedule {}",
        report.slots_used,
        sched.len()
    );
}

#[test]
fn coloring_and_gossip_share_a_space() {
    let space = geometric_space(&line_points(12, 1.0), 2.0).unwrap();
    let coloring = run_coloring(
        &space,
        &SinrParams::default(),
        &ColoringConfig {
            f_max: 4.0,
            seed: 3,
            ..Default::default()
        },
    );
    assert!(coloring.completed);
    let adj = beyond_geometry::distributed::mutual_neighbor_graph(&space, 4.0);
    assert!(beyond_geometry::distributed::is_proper_coloring(
        &adj,
        &coloring.colors
    ));
    let gossip = run_multi_broadcast(
        &space,
        &SinrParams::new(1.0, 0.01).unwrap(),
        &[NodeId::new(0), NodeId::new(11)],
        &MultiBroadcastConfig::default(),
    );
    assert!(gossip.completed);
}

#[test]
fn gossip_survives_crashes_of_non_sources() {
    let space = geometric_space(&line_points(12, 1.0), 2.0).unwrap();
    let plan = FaultPlan::none()
        .with_crash(NodeId::new(5), 0)
        .with_outage(NodeId::new(8), 0, 2000);
    let report = run_multi_broadcast_with_faults(
        &space,
        &SinrParams::new(1.0, 0.01).unwrap(),
        &[NodeId::new(0)],
        &MultiBroadcastConfig::default(),
        &plan,
    );
    assert!(report.completed);
    // The permanently crashed node learned nothing.
    assert_eq!(report.known_counts[5], 0);
    // The temporarily-down node recovered and learned the message.
    assert_eq!(report.known_counts[8], 1);
}

#[test]
fn crashed_source_blocks_completion() {
    let space = geometric_space(&line_points(8, 1.0), 2.0).unwrap();
    let plan = FaultPlan::none().with_crash(NodeId::new(0), 0);
    let report = run_multi_broadcast_with_faults(
        &space,
        &SinrParams::default(),
        &[NodeId::new(0)],
        &MultiBroadcastConfig {
            max_slots: 500,
            ..Default::default()
        },
        &plan,
    );
    assert!(!report.completed, "a dead source cannot spread its message");
}

#[test]
fn adversarial_regret_composes_with_capacity_ground_truth() {
    let (_, _, _, aff) = deployment(8, 3.0, 41);
    let out = adversarial_regret_game(
        &aff,
        &AdversarialConfig {
            jamming: JammingModel::Random {
                round_prob: 0.2,
                link_prob: 0.5,
            },
            availability: AvailabilityModel::Random { prob: 0.8 },
            ..Default::default()
        },
    );
    assert!(aff.is_feasible(&out.best_feasible));
    let all: Vec<LinkId> = (0..aff.len()).map(LinkId::new).collect();
    let opt = max_feasible_subset(&aff, &all, EXACT_CAPACITY_LIMIT).len();
    assert!(out.best_feasible.len() <= opt);
}

#[test]
fn rayleigh_netsim_thresholding_shape() {
    // End-to-end reproduction of the capture assumption: with a 3 dB
    // margin the Rayleigh PRR must clearly exceed the PRR at a -3 dB
    // margin (near-thresholding).
    let run = |d: f64| -> f64 {
        struct Pair;
        impl NodeBehavior for Pair {
            fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
                match ctx.node.index() {
                    0 | 2 => Action::Transmit {
                        power: 1.0,
                        message: ctx.node.index() as u64,
                    },
                    _ => Action::Listen,
                }
            }
        }
        let pos = [(0.0, 0.0), (1.0, 0.0), (1.0 + d, 0.0)];
        let space = geometric_space(&pos, 2.0).unwrap();
        let config = EngineConfig {
            reception: ReceptionModel::Rayleigh,
            record_trace: true,
            ..EngineConfig::default()
        };
        let behaviors = (0..3).map(|_| Pair).collect();
        let mut engine =
            SlotAdapter::engine(space, behaviors, SinrParams::default(), config, 5).unwrap();
        engine.run_until(1999);
        let hits = engine
            .trace()
            .iter()
            .filter(|dv| dv.from == NodeId::new(0) && dv.to == NodeId::new(1))
            .count();
        hits as f64 / 2000.0
    };
    let low = run(0.707); // margin ~ -3 dB
    let high = run(1.41); // margin ~ +3 dB
    assert!(low < 0.45, "low-margin PRR {low}");
    assert!(high > 0.55, "high-margin PRR {high}");
}
