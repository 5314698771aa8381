//! ζ(t)-adaptive scheduling: the first consumer of the metricity
//! trajectory.
//!
//! The paper's algorithmic guarantees are parameterized by the metricity
//! `ζ` of a *frozen* decay space; under a drifting channel ζ becomes the
//! trajectory ζ(t), and a fixed transmit probability tuned for one
//! regime is mistuned for the rest of the run. [`AdaptiveContention`]
//! closes the loop: at fixed grid intervals it estimates ζ(t) from the
//! live backend (the same evenly-spaced-subset scan the
//! [`crate::MetricityMonitor`] uses) and re-tunes every node's transmit
//! probability around a reference point — higher ζ means steeper decay
//! and less far-field interference, so nodes can afford to transmit
//! more aggressively; ζ collapsing toward 1 means flat, coupling-heavy
//! gain fields where backing off wins.
//!
//! # Determinism and resume invariance
//!
//! Decisions are a *pure function of `(tick, backend)`*: the ζ estimate
//! is deterministic in the tick (temporal backends are pure functions
//! of `(block, i, j)`), and no decision depends on observed traffic.
//! A run resumed from a checkpoint therefore re-derives the identical
//! decisions at the identical grid ticks, and the trace digest is
//! bit-identical to the uninterrupted run — provided the same
//! controller steers both, which
//! [`decay_engine::Engine::restore_with_controller`] enforces via
//! [`Controller::signature`].

use decay_engine::probe::{signature_hash, Controller, Directive, PauseCtx};
use decay_engine::Tick;

use crate::monitor;

/// Re-tunes every node's transmit probability from a live ζ(t)
/// estimate, once per `interval` ticks (the decision grid — align it
/// with the coherence-block length to re-tune once per block).
///
/// The rule is `p(t) = clamp(base_p · ζ(t) / zeta_ref, floor, cap)`:
/// linear in the estimated metricity, anchored so that `ζ(t) ==
/// zeta_ref` reproduces the spec's fixed probability exactly. A
/// degenerate estimate (`ζ(t) = 0`, e.g. fewer than 3 sampled nodes)
/// falls back to `base_p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveContention {
    /// Decision interval in ticks (must be hit by the driver's pause
    /// grid; the scenario runner validates it as a multiple of its
    /// `check_interval`).
    pub interval: Tick,
    /// Maximum nodes in the ζ-estimate submatrix, in `[3, 64]`.
    pub max_nodes: usize,
    /// The probability applied when `ζ(t) == zeta_ref`.
    pub base_p: f64,
    /// The reference metricity (e.g. the deployment's path-loss α).
    pub zeta_ref: f64,
    /// Lower clamp on the re-tuned probability.
    pub floor: f64,
    /// Upper clamp on the re-tuned probability.
    pub cap: f64,
}

impl AdaptiveContention {
    /// Validates the parameters and builds the controller.
    ///
    /// # Panics
    ///
    /// Panics unless `interval ≥ 1`, `max_nodes` is in `[3, 64]`,
    /// `zeta_ref > 0`, and `0 < floor ≤ base_p ≤ cap ≤ 1`.
    pub fn new(
        interval: Tick,
        max_nodes: usize,
        base_p: f64,
        zeta_ref: f64,
        floor: f64,
        cap: f64,
    ) -> Self {
        assert!(interval >= 1, "decision interval must be at least one tick");
        assert!(
            (3..=64).contains(&max_nodes),
            "max_nodes must be in [3, 64]"
        );
        assert!(
            zeta_ref.is_finite() && zeta_ref > 0.0,
            "zeta_ref must be positive and finite"
        );
        assert!(
            floor > 0.0 && floor <= base_p && base_p <= cap && cap <= 1.0,
            "need 0 < floor <= base_p <= cap <= 1"
        );
        AdaptiveContention {
            interval,
            max_nodes,
            base_p,
            zeta_ref,
            floor,
            cap,
        }
    }

    /// The probability this controller would set for metricity `zeta`.
    pub fn probability_for(&self, zeta: f64) -> f64 {
        if zeta <= 0.0 {
            return self.base_p;
        }
        (self.base_p * zeta / self.zeta_ref).clamp(self.floor, self.cap)
    }
}

impl Controller for AdaptiveContention {
    fn signature(&self) -> u64 {
        let mut bytes = Vec::with_capacity(48);
        bytes.extend_from_slice(&self.interval.to_le_bytes());
        bytes.extend_from_slice(&(self.max_nodes as u64).to_le_bytes());
        for f in [self.base_p, self.zeta_ref, self.floor, self.cap] {
            bytes.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        // Tag 0x5A41 ("ZA"): the ζ-adaptive contention controller
        // family. A different controller kind must use a different tag.
        signature_hash(0x5A41, &bytes)
    }

    fn decide(&mut self, ctx: &PauseCtx<'_>) -> Vec<Directive> {
        if !ctx.tick.is_multiple_of(self.interval) {
            return Vec::new();
        }
        let zeta = monitor::sample(ctx.tick, ctx.backend, self.max_nodes).zeta;
        vec![Directive::SetAllProbabilities {
            p: self.probability_for(zeta),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_engine::{DecayBackend, EngineStats, LazyBackend};

    fn ctl() -> AdaptiveContention {
        AdaptiveContention::new(16, 12, 0.1, 2.0, 0.02, 0.4)
    }

    fn ctx_at<'a>(tick: Tick, backend: &'a dyn DecayBackend) -> PauseCtx<'a> {
        PauseCtx {
            tick,
            horizon: 1_000,
            batch: &[],
            backend,
            stats: EngineStats::default(),
            trace_hash: 0,
            counters: Box::leak(Box::default()),
        }
    }

    #[test]
    fn probability_scales_with_zeta_and_clamps() {
        let c = ctl();
        assert_eq!(c.probability_for(2.0), 0.1, "reference point is exact");
        assert!(c.probability_for(3.0) > c.probability_for(2.0));
        assert!(c.probability_for(1.0) < c.probability_for(2.0));
        assert_eq!(c.probability_for(100.0), 0.4, "cap");
        assert_eq!(c.probability_for(1e-6), 0.02, "floor");
        assert_eq!(c.probability_for(0.0), 0.1, "degenerate ζ falls back");
    }

    #[test]
    fn decisions_fire_only_on_the_decision_grid() {
        let backend = LazyBackend::from_fn(10, |i, j| ((i as f64) - (j as f64)).abs().powi(2));
        let mut c = ctl();
        assert!(c.decide(&ctx_at(8, &backend)).is_empty(), "off grid");
        let on_grid = c.decide(&ctx_at(32, &backend));
        assert_eq!(on_grid.len(), 1);
        // A geometric α=2 line estimates ζ ≈ 2 == zeta_ref → base_p.
        match on_grid[0] {
            Directive::SetAllProbabilities { p } => assert!((p - 0.1).abs() < 1e-9, "p = {p}"),
            _ => panic!("unexpected directive"),
        }
        // Tick 0 is on every grid: the initial tuning decision.
        assert_eq!(c.decide(&ctx_at(0, &backend)).len(), 1);
    }

    #[test]
    fn signature_separates_parameter_sets_and_is_stable() {
        let a = ctl();
        assert_eq!(a.signature(), ctl().signature());
        let mut b = ctl();
        b.base_p = 0.11;
        assert_ne!(a.signature(), b.signature());
        let mut c = ctl();
        c.interval = 32;
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn degenerate_clamps_are_rejected() {
        AdaptiveContention::new(8, 12, 0.1, 2.0, 0.2, 0.4);
    }
}
