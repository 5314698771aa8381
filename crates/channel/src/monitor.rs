//! Live metricity monitoring: sampling `ζ(t)` and `φ(t)` of the
//! instantaneous gain matrix as a run progresses.
//!
//! The paper's metricity parameter `ζ` (Definition 2.2) is a property of
//! a *frozen* decay space; under a temporal channel it becomes a
//! trajectory — mobility stretches triangles, shadowing and fading bend
//! them — and algorithm guarantees parameterized by `ζ` hold per
//! coherence block, not per run. [`sample`] scans the engine's backend
//! at one tick; the scenario session calls it on its pause grid (so
//! sampling can never perturb a trace) and folds the `ζ(t)`/`φ(t)`
//! series into the metrics report, and the [`MetricityMonitor`] probe
//! does the same on a fixed interval for any probed drive loop.
//!
//! The cubic triple scan caps at [`MetricityMonitor::new`]'s `max_nodes`
//! by sampling an evenly spaced node subset, whose metricity is a lower
//! bound for the full space (a restriction drops triples, never adds
//! them).

use decay_core::{metricity, phi_metricity, DecaySpace, NodeId};
use decay_engine::{DecayBackend, Tick};

/// One sampled point of the metricity trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZetaSample {
    /// The tick the instantaneous matrix was sampled at.
    pub tick: Tick,
    /// Metricity `ζ` of the sampled matrix (0 when no triple binds).
    pub zeta: f64,
    /// The `φ = lg ϕ` variant (Section 4.2) of the sampled matrix.
    pub phi: f64,
    /// Size of the evenly spaced node subset the cubic scan ran over
    /// (`min(n, max_nodes)`; the monitor caps at 64). Subset metricity
    /// lower-bounds the full space's, so `ζ(t)` values are only
    /// interpretable alongside this — which is why it rides along in
    /// the JSON report.
    pub nodes: usize,
}

/// Samples `ζ(t)`/`φ(t)` from any [`DecayBackend`] at a fixed tick
/// interval.
#[derive(Debug, Clone)]
pub struct MetricityMonitor {
    interval: Tick,
    max_nodes: usize,
    samples: Vec<ZetaSample>,
}

impl MetricityMonitor {
    /// A monitor sampling every `interval` ticks, scanning at most
    /// `max_nodes` nodes per sample.
    ///
    /// # Panics
    ///
    /// Panics unless `interval ≥ 1` and `max_nodes` is in `[3, 64]`
    /// (fewer than 3 nodes admit no triple; more than 64 makes the cubic
    /// scan a hot-path hazard).
    pub fn new(interval: Tick, max_nodes: usize) -> Self {
        assert!(interval >= 1, "sample interval must be at least one tick");
        assert!(
            (3..=64).contains(&max_nodes),
            "max_nodes must be in [3, 64]"
        );
        MetricityMonitor {
            interval,
            max_nodes,
            samples: Vec::new(),
        }
    }

    /// The sampling interval in ticks.
    pub fn interval(&self) -> Tick {
        self.interval
    }

    /// Whether `tick` is on the sampling grid.
    pub fn due(&self, tick: Tick) -> bool {
        tick.is_multiple_of(self.interval)
    }

    /// Samples the backend if `tick` is on the grid (and not already
    /// sampled — repeated pauses at one tick fold to one sample).
    pub fn record(&mut self, tick: Tick, backend: &dyn DecayBackend) {
        if !self.due(tick) || self.samples.last().is_some_and(|s| s.tick == tick) {
            return;
        }
        self.samples.push(sample(tick, backend, self.max_nodes));
    }

    /// The samples collected so far.
    pub fn samples(&self) -> &[ZetaSample] {
        &self.samples
    }

    /// Consumes the monitor, yielding the series.
    pub fn into_samples(self) -> Vec<ZetaSample> {
        self.samples
    }
}

/// The monitor plugs directly into the probe API: every pause-grid
/// stop offers the instantaneous backend, and [`MetricityMonitor::record`]
/// already ignores off-grid ticks and duplicate pauses — which is what
/// makes the ζ(t) series invariant to extra pauses (checkpoints) and
/// probe subsets.
impl decay_engine::probe::Probe for MetricityMonitor {
    fn on_start(&mut self, ctx: &decay_engine::probe::PauseCtx<'_>) {
        self.record(ctx.tick, ctx.backend);
    }

    fn on_pause(&mut self, ctx: &decay_engine::probe::PauseCtx<'_>) {
        self.record(ctx.tick, ctx.backend);
    }
}

/// Samples `ζ`/`φ` of `backend`'s instantaneous matrix at `tick` over an
/// evenly spaced subset of at most `max_nodes` nodes.
///
/// Backends with fewer than 3 nodes admit no triple, so no triangle
/// inequality binds: the sample degenerates to `ζ = φ = 0` instead of
/// panicking (which monitoring a 1- or 2-node space once did).
pub fn sample(tick: Tick, backend: &dyn DecayBackend, max_nodes: usize) -> ZetaSample {
    let n = backend.len();
    let k = n.min(max_nodes);
    if k < 3 {
        return ZetaSample {
            tick,
            zeta: 0.0,
            phi: 0.0,
            nodes: k,
        };
    }
    let idx: Vec<usize> = (0..k).map(|t| t * n / k).collect();
    let space = DecaySpace::from_fn(k, |a, b| {
        backend.decay_at(tick, NodeId::new(idx[a]), NodeId::new(idx[b]))
    })
    .expect("instantaneous decays satisfy the decay-space contract");
    ZetaSample {
        tick,
        zeta: metricity(&space).zeta,
        phi: phi_metricity(&space).phi,
        nodes: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_engine::LazyBackend;

    fn geometric_line(n: usize, alpha: f64) -> LazyBackend {
        LazyBackend::from_fn(n, move |i, j| ((i as f64) - (j as f64)).abs().powf(alpha))
    }

    #[test]
    fn static_geometric_decay_samples_zeta_equals_alpha() {
        let backend = geometric_line(12, 3.0);
        let mut mon = MetricityMonitor::new(10, 12);
        for tick in 0..=40 {
            mon.record(tick, &backend);
        }
        let samples = mon.samples();
        assert_eq!(samples.len(), 5, "ticks 0, 10, 20, 30, 40");
        for s in samples {
            assert!((s.zeta - 3.0).abs() < 1e-6, "tick {}: ζ {}", s.tick, s.zeta);
            assert!(s.phi <= s.zeta + 1e-9, "φ ≤ ζ (Section 4.2)");
        }
    }

    #[test]
    fn off_grid_and_duplicate_ticks_are_ignored() {
        let backend = geometric_line(6, 2.0);
        let mut mon = MetricityMonitor::new(8, 6);
        mon.record(0, &backend);
        mon.record(0, &backend); // duplicate pause at one tick
        mon.record(3, &backend); // off grid
        mon.record(8, &backend);
        assert_eq!(mon.samples().len(), 2);
        assert_eq!(mon.samples()[1].tick, 8);
        assert_eq!(mon.clone().into_samples().len(), 2);
    }

    #[test]
    fn tiny_backends_sample_degenerately_instead_of_panicking() {
        for n in [1usize, 2] {
            let backend = geometric_line(n, 2.0);
            let s = sample(5, &backend, 16);
            assert_eq!(s.tick, 5);
            assert_eq!(s.zeta, 0.0, "n = {n}: no triple binds");
            assert_eq!(s.phi, 0.0, "n = {n}: no triple binds");
            // The monitor path folds the degenerate sample too.
            let mut mon = MetricityMonitor::new(1, 16);
            mon.record(0, &backend);
            assert_eq!(mon.samples().len(), 1);
            assert_eq!(mon.samples()[0].zeta, 0.0);
        }
    }

    #[test]
    fn subset_sampling_is_a_lower_bound() {
        let full = sample(0, &geometric_line(30, 2.5), 30);
        let sub = sample(0, &geometric_line(30, 2.5), 10);
        assert_eq!(full.nodes, 30, "subset size is recorded");
        assert_eq!(sub.nodes, 10, "subset size is recorded");
        assert!(sub.zeta <= full.zeta + 1e-9);
        // A geometric line's binding triples survive even coarse
        // subsampling (consecutive subset nodes are still collinear).
        assert!(sub.zeta > 2.0, "subset ζ collapsed: {}", sub.zeta);
    }
}
