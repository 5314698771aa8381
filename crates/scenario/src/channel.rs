//! Compiling a [`ChannelSpec`] into a running temporal backend.
//!
//! The static backend the [`crate::BackendSpec`] builds stays the base
//! field; the channel block layers mobility/shadowing/fading on top (or
//! replaces everything with an imported gain trace) and wraps the result
//! in a [`TemporalAdapter`] so the engine drives it through the ordinary
//! [`DecayBackend`] interface. Because the base decays are bit-identical
//! across dense and lazy backends and every layer is a pure function
//! of the coherence block, the composite field — and the resulting trace
//! digest — stays backend-independent, which is exactly what the
//! conformance suite checks.

use decay_channel::{
    FadingConfig, MobilityConfig, MobilityModel, ShadowingConfig, TemporalAdapter, TemporalChannel,
    TraceChannel,
};
use decay_engine::DecayBackend;
use decay_spaces::Point;

use crate::spec::{ChannelSpec, MobilitySpec, TopologySpec};

impl MobilitySpec {
    fn to_config(self) -> MobilityConfig {
        match self {
            MobilitySpec::Waypoint { speed, pause, seed } => MobilityConfig {
                model: MobilityModel::RandomWaypoint { speed, pause },
                seed,
            },
            MobilitySpec::Levy {
                scale,
                exponent,
                cap,
                seed,
            } => MobilityConfig {
                model: MobilityModel::LevyWalk {
                    scale,
                    exponent,
                    cap,
                },
                seed,
            },
            MobilitySpec::Group {
                groups,
                speed,
                spread,
                seed,
            } => MobilityConfig {
                model: MobilityModel::Group {
                    groups,
                    speed,
                    spread,
                },
                seed,
            },
        }
    }
}

impl ChannelSpec {
    /// Wraps the static backend `base` builds in the temporal channel
    /// this spec describes. `base` is a builder rather than a built
    /// backend because a trace channel replays verbatim and never
    /// consults the static field — building it (a dense `n × n`
    /// materialization, say) would be pure waste on every run and every
    /// checkpoint restore.
    pub fn wrap(
        &self,
        topology: &TopologySpec,
        base: impl FnOnce() -> Box<dyn DecayBackend>,
    ) -> Box<dyn DecayBackend> {
        self.wrap_with_points(topology, &topology.points(), base)
    }

    /// [`Self::wrap`] reusing an already-deployed point set (it must be
    /// `topology.points()` — a [`CompiledScenario`](crate::CompiledScenario)
    /// caches exactly that), so repeated runs and checkpoint rebuilds
    /// skip regenerating the deployment.
    pub fn wrap_with_points(
        &self,
        topology: &TopologySpec,
        points: &[Point],
        base: impl FnOnce() -> Box<dyn DecayBackend>,
    ) -> Box<dyn DecayBackend> {
        if let Some(trace) = &self.trace {
            return Box::new(TemporalAdapter::new(TraceChannel::new(trace.clone())));
        }
        // Every named topology realizes the geometric field of its
        // deployment (`dist^alpha` — see `crate::topology`), so the
        // channel can widen the base hint window conservatively instead
        // of scanning all n nodes per (block, source). Hints are
        // re-filtered against the exact instantaneous field: they change
        // cost, never values, so trace digests are unaffected.
        let mut channel =
            TemporalChannel::new(base(), points.to_vec(), topology.alpha(), self.block)
                .with_geometric_hints();
        if let Some(m) = self.mobility {
            channel = channel.with_mobility(m.to_config());
        }
        if let Some(sh) = self.shadowing {
            channel = channel.with_shadowing(ShadowingConfig {
                sigma_db: sh.sigma_db,
                corr_dist: sh.corr_dist,
                time_corr: sh.time_corr,
                seed: sh.seed,
            });
        }
        if let Some(f) = self.fading {
            channel = channel.with_fading(FadingConfig { seed: f.seed });
        }
        Box::new(TemporalAdapter::new(channel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FadingSpec, MonitorSpec, ShadowingSpec};
    use crate::BackendSpec;
    use decay_core::NodeId;

    fn line_topology() -> TopologySpec {
        TopologySpec::Line {
            n: 10,
            spacing: 1.0,
            alpha: 2.0,
        }
    }

    fn full_channel() -> ChannelSpec {
        ChannelSpec {
            block: 4,
            mobility: Some(MobilitySpec::Waypoint {
                speed: 0.3,
                pause: 1,
                seed: 5,
            }),
            shadowing: Some(ShadowingSpec {
                sigma_db: 4.0,
                corr_dist: 2.0,
                time_corr: 0.6,
                seed: 6,
            }),
            fading: Some(FadingSpec { seed: 7 }),
            trace: None,
            trace_path: None,
            monitor: Some(MonitorSpec {
                interval: 16,
                max_nodes: 10,
            }),
        }
    }

    #[test]
    fn wrapped_field_is_identical_across_base_backends() {
        let topology = line_topology();
        let spec = full_channel();
        let dense = spec.wrap(&topology, || BackendSpec::Dense.build(&topology));
        let lazy = spec.wrap(&topology, || BackendSpec::Lazy.build(&topology));
        for tick in [0u64, 5, 23, 100] {
            for i in 0..10 {
                for j in 0..10 {
                    let (p, q) = (NodeId::new(i), NodeId::new(j));
                    let d = dense.decay_at(tick, p, q);
                    assert_eq!(d.to_bits(), lazy.decay_at(tick, p, q).to_bits());
                }
            }
        }
        assert_eq!(dense.channel_signature(), lazy.channel_signature());
        assert_ne!(dense.channel_signature(), 0);
    }
}
