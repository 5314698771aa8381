//! The discrete-event engine experiment (E36): scaling, determinism, and
//! checkpoint fidelity of native event protocols next to a slot protocol
//! run at lockstep cost.

use std::time::Instant;

use decay_core::NodeId;
use decay_distributed::{
    build_broadcast_engine, run_local_broadcast, run_local_broadcast_event, BroadcastConfig,
    EventBroadcastConfig,
};
use decay_engine::{ChurnConfig, Engine, LazyBackend};
use decay_sinr::SinrParams;
use decay_spaces::{geometric_space, line_points};

use crate::table::{fmt_f, fmt_ok, Table};

/// A lazy α=2 line space with an index-window neighbor hint.
fn lazy_line(n: usize) -> LazyBackend {
    let last = n - 1;
    LazyBackend::from_fn(n, |i, j| {
        let d = (i as f64) - (j as f64);
        d * d
    })
    .with_neighbor_hint(move |i, reach| {
        let w = reach.sqrt().ceil() as usize;
        (i.saturating_sub(w)..=(i + w).min(last)).collect()
    })
}

/// E36 — the event engine: the slot broadcast protocol (a netsim
/// behavior) at small n, then the native event protocol at node counts a
/// dense matrix cannot represent, with churn and a verified mid-run
/// checkpoint.
pub fn e36_event_engine() -> Table {
    let mut t = Table::new(
        "E36",
        "discrete-event engine at scale",
        "event-driven execution preserves the broadcast protocol while scaling \
         past dense-matrix limits; runs are seed-deterministic and resumable \
         from checkpoints bit-identically",
        &[
            "substrate",
            "n",
            "churn",
            "ticks",
            "events",
            "deliveries",
            "coverage",
            "events/s",
            "deterministic",
        ],
    );
    t.mark_wall_clock("events/s");
    let params = SinrParams::default();

    // Small instance: the slot and the event protocol complete the same
    // broadcast task.
    let pts = line_points(48, 1.0);
    let space = geometric_space(&pts, 2.0).expect("distinct points");
    let slot_report = run_local_broadcast(
        &space,
        &params,
        &BroadcastConfig {
            neighborhood_decay: 4.0,
            seed: 7,
            ..Default::default()
        },
    );
    t.push_row(vec![
        "slot (netsim)".into(),
        "48".into(),
        "off".into(),
        slot_report
            .completed_in
            .map(|s| s.to_string())
            .unwrap_or_else(|| "-".into()),
        "-".into(),
        "-".into(),
        fmt_f(slot_report.coverage),
        "-".into(),
        "-".into(),
    ]);
    let event_cfg = EventBroadcastConfig {
        neighborhood_decay: 4.0,
        reach_decay: Some(64.0),
        seed: 7,
        ..Default::default()
    };
    let ev = run_local_broadcast_event(lazy_line(48), &params, &event_cfg);
    let ev2 = run_local_broadcast_event(lazy_line(48), &params, &event_cfg);
    let mut all_deterministic = ev.trace_hash == ev2.trace_hash;
    t.push_row(vec![
        "event (engine)".into(),
        "48".into(),
        "off".into(),
        ev.completed_at
            .map(|s| s.to_string())
            .unwrap_or_else(|| "-".into()),
        ev.stats.events.to_string(),
        ev.stats.deliveries.to_string(),
        fmt_f(ev.coverage),
        "-".into(),
        fmt_ok(ev.trace_hash == ev2.trace_hash),
    ]);

    // Scaling rows: lazy backend, fixed horizon, churn on and off. A
    // dense matrix at n = 20k would already hold 4·10⁸ entries.
    for &(n, churn) in &[(2_000usize, false), (10_000, false), (10_000, true)] {
        let cfg = EventBroadcastConfig {
            neighborhood_decay: 4.0,
            probability: Some(0.01),
            reach_decay: Some(100.0),
            top_k: Some(4),
            churn: churn.then_some(ChurnConfig {
                interval: 2,
                leave_prob: 0.2,
                join_prob: 0.8,
            }),
            seed: 11,
            ..Default::default()
        };
        let horizon = 80;
        let run_once = || {
            let (mut engine, required) =
                build_broadcast_engine(lazy_line(n), &params, &cfg).expect("valid config");
            #[expect(clippy::disallowed_methods, reason = "report-only harness timing")]
            let start = Instant::now();
            engine.run_until(horizon);
            let secs = start.elapsed().as_secs_f64();
            let covered: usize = required
                .iter()
                .enumerate()
                .map(|(u, rs)| {
                    rs.iter()
                        .filter(|&&z| engine.behavior(z).has_heard(NodeId::new(u)))
                        .count()
                })
                .sum();
            let total: usize = required.iter().map(Vec::len).sum();
            (engine, covered as f64 / total.max(1) as f64, secs)
        };
        let (engine_a, coverage, secs) = run_once();
        let (engine_b, _, _) = run_once();
        let deterministic = engine_a.trace_hash() == engine_b.trace_hash();
        all_deterministic &= deterministic;
        let stats = engine_a.stats();
        t.push_row(vec![
            "event (engine)".into(),
            n.to_string(),
            if churn { "on" } else { "off" }.into(),
            horizon.to_string(),
            stats.events.to_string(),
            stats.deliveries.to_string(),
            fmt_f(coverage),
            format!("{:.0}", stats.events as f64 / secs.max(1e-9)),
            fmt_ok(deterministic),
        ]);
    }

    // Checkpoint fidelity at 10k nodes with churn: split the run, resume
    // from the snapshot, and compare against the straight run.
    let cfg = EventBroadcastConfig {
        neighborhood_decay: 4.0,
        probability: Some(0.01),
        reach_decay: Some(100.0),
        top_k: Some(4),
        churn: Some(ChurnConfig {
            interval: 2,
            leave_prob: 0.2,
            join_prob: 0.8,
        }),
        seed: 13,
        ..Default::default()
    };
    let (mut straight, _) =
        build_broadcast_engine(lazy_line(10_000), &params, &cfg).expect("valid config");
    straight.run_until(80);
    let (mut split, _) =
        build_broadcast_engine(lazy_line(10_000), &params, &cfg).expect("valid config");
    split.run_until(40);
    let snapshot = split.checkpoint();
    let mut resumed = Engine::restore(lazy_line(10_000), snapshot).expect("restore");
    resumed.run_until(80);
    let checkpoint_ok =
        resumed.trace_hash() == straight.trace_hash() && resumed.stats() == straight.stats();
    all_deterministic &= checkpoint_ok;
    t.push_row(vec![
        "event (resumed)".into(),
        "10000".into(),
        "on".into(),
        "80".into(),
        resumed.stats().events.to_string(),
        resumed.stats().deliveries.to_string(),
        "-".into(),
        "-".into(),
        fmt_ok(checkpoint_ok),
    ]);

    t.set_verdict(if all_deterministic {
        "holds: event engine matches the protocol, scales past dense limits, \
         and every same-seed / resumed run produced identical traces"
            .to_string()
    } else {
        "VIOLATED: a same-seed or resumed run diverged".to_string()
    });
    t
}
