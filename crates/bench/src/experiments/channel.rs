//! The temporal-channel experiments: E38 (engine throughput versus
//! coherence-block length under time-varying gain fields) and E39 (the
//! structured hint-window sweep).
//!
//! A temporal channel trades per-evaluation cost (mobility modulation,
//! shadowing field, fading hash) and per-block cost (snapshot row
//! builds, reach re-scans) against realism. The coherence block length
//! is one knob: per-block work amortizes over `block_len` ticks of
//! transmissions. The reach scan is the other: with structured hints
//! the per-(block, source) scan takes a conservatively widened window
//! of the base topology's hint instead of all `n` nodes and evaluates
//! only the candidates a per-pair lower bound on the decay keeps — and
//! because candidates are re-filtered against the exact instantaneous
//! field, hinted reach sets equal a full scan of the same field bit for
//! bit. The declaration also switches the channel to its closed-form
//! kernel, so an undeclared full-scan twin evaluates the layered
//! product instead: equal to a relative `1e-12`, and to the same trace
//! on E38's workload.

use std::time::Instant;

use decay_channel::{
    FadingConfig, MobilityConfig, MobilityModel, ShadowingConfig, TemporalAdapter, TemporalChannel,
};
use decay_core::NodeId;
use decay_engine::{DecayBackend, Engine, EngineConfig, EventBehavior, LazyBackend, NodeCtx};
use decay_sinr::SinrParams;
use decay_spaces::line_points;
use rand::Rng;

use crate::table::{fmt_ok, Table};

/// Gossip behavior: listen, transmit at geometric intervals.
#[derive(Clone)]
struct Gossiper {
    mean_gap: u64,
}

impl EventBehavior for Gossiper {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.listen();
        let gap = 1 + ctx.rng.gen_range(0..self.mean_gap.max(1) * 2);
        ctx.wake_in(gap);
    }
    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.transmit(1.0, ctx.node.index() as u64);
        ctx.listen();
        let gap = 1 + ctx.rng.gen_range(0..self.mean_gap.max(1) * 2);
        ctx.wake_in(gap);
    }
}

fn lazy_line(n: usize) -> LazyBackend {
    let last = n - 1;
    LazyBackend::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powi(2)).with_neighbor_hint(
        move |i, reach| {
            let w = reach.sqrt().ceil() as usize;
            (i.saturating_sub(w)..=(i + w).min(last)).collect()
        },
    )
}

/// The full generative channel over the lazy line, with or without
/// structured reach hints (and with them the closed-form kernel, equal
/// to the layered product up to rounding).
fn stormy_backend(n: usize, block_len: u64, hinted: bool) -> TemporalAdapter {
    let mut channel = TemporalChannel::new(lazy_line(n), line_points(n, 1.0), 2.0, block_len);
    if hinted {
        channel = channel.with_geometric_hints();
    }
    TemporalAdapter::new(
        channel
            .with_mobility(MobilityConfig {
                model: MobilityModel::RandomWaypoint {
                    speed: 0.5,
                    pause: 1,
                },
                seed: 5,
            })
            .with_shadowing(ShadowingConfig {
                sigma_db: 4.0,
                corr_dist: 40.0,
                time_corr: 0.7,
                seed: 6,
            })
            .with_fading(FadingConfig { seed: 7 }),
    )
}

fn engine_over(backend: impl DecayBackend + 'static, n: usize) -> Engine<Gossiper> {
    let behaviors = (0..n).map(|_| Gossiper { mean_gap: 50 }).collect();
    let config = EngineConfig {
        reach_decay: Some(100.0),
        top_k: Some(4),
        ..EngineConfig::default()
    };
    Engine::new(backend, behaviors, SinrParams::default(), config, 11).expect("engine builds")
}

/// E38 — temporal-channel throughput: events/sec against coherence-block
/// length at 2k nodes (debug-sized; the `engine_bench` bin measures the
/// same workload at 10k in release mode), with the static backend as
/// baseline and a full-scan run cross-checked bit-identical against its
/// hinted twin.
pub fn e38_channel_throughput() -> Table {
    let mut t = Table::new(
        "E38",
        "temporal channels vs coherence-block length",
        "per-block channel work (snapshot row builds, reach re-scans) amortizes \
         over the block and structured hints shrink each scan from n to a \
         widened window, so throughput climbs toward the static baseline as \
         blocks lengthen — while hinted, full-scan, and repeated runs all \
         stay bit-deterministic",
        &[
            "backend",
            "n",
            "block",
            "ticks",
            "events",
            "deliveries",
            "events/s",
            "deterministic",
        ],
    );
    t.mark_wall_clock("events/s");
    // Sized for the debug-mode smoke test; the `engine_bench` bin
    // measures the same workload at 10k nodes in release mode.
    let n = 2_000;
    let horizon = 80;
    let mut run = |label: &str, block: Option<u64>, hinted: bool| -> (u64, bool) {
        let build = || -> Box<dyn DecayBackend> {
            match block {
                None => Box::new(lazy_line(n)),
                Some(b) => Box::new(stormy_backend(n, b, hinted)),
            }
        };
        let mut engine = engine_over(build(), n);
        #[expect(clippy::disallowed_methods, reason = "report-only harness timing")]
        let start = Instant::now();
        engine.run_until(horizon);
        let secs = start.elapsed().as_secs_f64();
        let mut again = engine_over(build(), n);
        again.run_until(horizon);
        let deterministic = engine.trace_hash() == again.trace_hash();
        let stats = engine.stats();
        t.push_row(vec![
            label.into(),
            n.to_string(),
            block.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
            horizon.to_string(),
            stats.events.to_string(),
            stats.deliveries.to_string(),
            format!("{:.0}", stats.events as f64 / secs.max(1e-9)),
            fmt_ok(deterministic),
        ]);
        (engine.trace_hash(), deterministic)
    };
    let (_, mut all) = run("static (lazy)", None, false);
    let mut hinted16 = 0;
    for block in [1u64, 4, 16, 64] {
        let (hash, ok) = run("temporal (hinted)", Some(block), true);
        all &= ok;
        if block == 16 {
            hinted16 = hash;
        }
    }
    // The full-scan twin of block 16: neither the hints nor the
    // closed-form kernel they come with may move a delivery.
    let (full16, ok) = run("temporal (full scan)", Some(16), false);
    all &= ok && full16 == hinted16;
    t.set_verdict(if all {
        "SUPPORTED: temporal runs deterministic; hinted and full-scan traces \
         bit-identical; throughput scales with block length"
    } else {
        "VIOLATED: temporal runs diverge across reruns or hint settings"
    });
    t
}

/// E39 — the hint-window sweep: how many exact evaluations a row costs
/// once the widened candidate window is pruned by the per-pair bound,
/// by mobility speed and layer set, versus the `n`-node full scan it
/// replaces.
pub fn e39_hint_window() -> Table {
    let mut t = Table::new(
        "E39",
        "structured reach-hint window sweep",
        "rows evaluate only the candidates the per-pair bound keeps (the \
         widened hint window, pruned by current positions, per-node shadowing \
         and the block fade): far below n at every speed and layer set, while \
         hinted reach sets equal the full scan exactly",
        &[
            "layers",
            "speed",
            "n",
            "blocks",
            "scans",
            "pairs/scan",
            "full scan",
            "exact",
        ],
    );
    let n = 1_500;
    let block_len = 8u64;
    let blocks = 24u64;
    let reach = 100.0;
    let build = |speed: f64, shadowed: bool, faded: bool| -> TemporalAdapter {
        let mut ch = TemporalChannel::new(lazy_line(n), line_points(n, 1.0), 2.0, block_len)
            .with_geometric_hints();
        if speed > 0.0 {
            ch = ch.with_mobility(MobilityConfig {
                model: MobilityModel::RandomWaypoint { speed, pause: 1 },
                seed: 5,
            });
        }
        if shadowed {
            ch = ch.with_shadowing(ShadowingConfig {
                sigma_db: 4.0,
                corr_dist: 40.0,
                time_corr: 0.7,
                seed: 6,
            });
        }
        if faded {
            ch = ch.with_fading(FadingConfig { seed: 7 });
        }
        TemporalAdapter::new(ch)
    };
    let mut all_exact = true;
    let mut all_narrow = true;
    for (label, speed, shadowed, faded) in [
        ("bare", 0.0, false, false),
        ("mobility", 0.2, false, false),
        ("mobility", 1.0, false, false),
        ("mobility+fading", 1.0, false, true),
        ("storm", 1.0, true, true),
    ] {
        let mut hinted = build(speed, shadowed, faded);
        let sources: Vec<usize> = (0..8).map(|k| k * n / 8).collect();
        let mut exact = true;
        let mut got = Vec::new();
        for block in 0..blocks {
            let tick = block * block_len;
            // Advance the view as the engine does, so `scans` counts
            // cached rows.
            hinted.advance_to(tick);
            for &src in &sources {
                let from = NodeId::new(src);
                got.clear();
                hinted.reach_at(tick, from, Some(reach), &mut got);
                // The full scan: every node's exact decay in the same
                // field (reading decays never builds a row).
                let want: Vec<(NodeId, f64)> = (0..n)
                    .filter(|&v| v != src)
                    .map(|v| (NodeId::new(v), hinted.decay_at(tick, from, NodeId::new(v))))
                    .filter(|&(_, d)| d <= reach)
                    .collect();
                exact &= got == want;
            }
        }
        let stats = hinted.scan_stats();
        let pairs_per_scan = stats.pairs as f64 / stats.scans.max(1) as f64;
        all_exact &= exact;
        all_narrow &= pairs_per_scan < n as f64 / 2.0;
        t.push_row(vec![
            label.into(),
            format!("{speed:.1}"),
            n.to_string(),
            blocks.to_string(),
            stats.scans.to_string(),
            format!("{pairs_per_scan:.0}"),
            n.to_string(),
            fmt_ok(exact),
        ]);
    }
    t.set_verdict(if all_exact && all_narrow {
        "SUPPORTED: hinted reach sets equal full scans; rows stay well \
         below n across speeds and layers"
    } else if all_exact {
        "SUPPORTED: hinted reach sets equal full scans (row length varies)"
    } else {
        "VIOLATED: a hinted reach set diverged from the full scan"
    });
    t
}
