//! Compiling a [`TopologySpec`] + [`BackendSpec`] into a
//! [`DecayBackend`].
//!
//! Every named topology is a point deployment (built by the constructors
//! in `decay-spaces`) with geometric decay `dist^alpha`. The same closure
//! feeds all three backends, so dense, lazy, and tiled runs evaluate
//! *bit-identical* decays — the invariant the cross-backend conformance
//! suite rests on. Structured topologies (lines and grids) additionally
//! install a neighbor hint on lazy backends, replacing `O(n)` row scans
//! with `O(k)` window queries; hints over-approximate and the backend
//! re-filters by decay, so they can never change results, only cost.

use std::sync::Arc;

use decay_core::DecaySpace;
use decay_engine::{DecayBackend, DenseBackend, LazyBackend, TiledBackend};
use decay_spaces::{
    clustered_points, distance, geometric_space, grid_points, line_points, random_points,
    ring_points, Point,
};

use crate::spec::{BackendSpec, TopologySpec};

impl TopologySpec {
    /// The deployed points.
    pub fn points(&self) -> Vec<Point> {
        match *self {
            TopologySpec::Line { n, spacing, .. } => line_points(n, spacing),
            TopologySpec::Grid { side, spacing, .. } => grid_points(side, spacing),
            TopologySpec::Ring { n, radius, .. } => ring_points(n, radius),
            TopologySpec::Random { n, size, seed, .. } => random_points(n, size, seed),
            TopologySpec::Clustered {
                clusters,
                per_cluster,
                size,
                seed,
                ..
            } => clustered_points(clusters, per_cluster, size, seed),
        }
    }

    /// The path-loss exponent.
    pub fn alpha(&self) -> f64 {
        match *self {
            TopologySpec::Line { alpha, .. }
            | TopologySpec::Grid { alpha, .. }
            | TopologySpec::Ring { alpha, .. }
            | TopologySpec::Random { alpha, .. }
            | TopologySpec::Clustered { alpha, .. } => alpha,
        }
    }

    /// The deployment's guaranteed smallest and largest point
    /// separations `(near, far)` for a spec with at least two nodes:
    /// the spacing, the ring chord, the `size / (100 n)` rejection
    /// distance of random points and the `1e-9` threshold below which
    /// clustered points are nudged apart; and the longest line, grid
    /// diagonal, ring diameter or box diagonal (a clustered box grows
    /// by the cluster spread and the nudges).
    pub(crate) fn separation_bounds(&self) -> (f64, f64) {
        use std::f64::consts::{PI, SQRT_2};
        match *self {
            TopologySpec::Line { n, spacing, .. } => (spacing, (n - 1) as f64 * spacing),
            TopologySpec::Grid { side, spacing, .. } => {
                (spacing, (side - 1) as f64 * spacing * SQRT_2)
            }
            TopologySpec::Ring { n, radius, .. } => {
                (2.0 * radius * (PI / n as f64).sin(), 2.0 * radius)
            }
            TopologySpec::Random { n, size, .. } => (size / (100.0 * n as f64), size * SQRT_2),
            TopologySpec::Clustered {
                clusters,
                per_cluster,
                size,
                ..
            } => {
                let n = clusters.saturating_mul(per_cluster) as f64;
                (1e-9, (size * 1.1 + 1e-6 * n) * SQRT_2)
            }
        }
    }

    /// The fully materialized decay space (used by the dense backend and
    /// by the netsim-equivalence harness).
    ///
    /// # Panics
    ///
    /// Panics if the deployment contains coincident points — impossible
    /// for the named constructors on validated specs.
    pub fn dense_space(&self) -> DecaySpace {
        geometric_space(&self.points(), self.alpha())
            .expect("named topologies have distinct points")
    }
}

/// Index window covering all candidates within Euclidean distance `d` on
/// a line/grid axis with the given spacing (an over-approximation; the
/// backend re-filters by decay). Clamped to `n`, so huge reach values
/// degrade to a full scan instead of overflowing.
fn axis_window(d: f64, spacing: f64, n: usize) -> usize {
    if spacing <= 0.0 || !d.is_finite() {
        return n;
    }
    let w = (d / spacing).ceil();
    if w >= n as f64 {
        n
    } else {
        w as usize + 1
    }
}

/// Relative slack on the grid hint's disk radius: far above the
/// rounding in `reach^(1/α)`, in lattice coordinates and in `dist^α`, so
/// the disk stays a superset of the in-reach set.
const DISK_MARGIN: f64 = 1.0 + 1e-9;

impl BackendSpec {
    /// Builds the backend realizing `topology`'s decay space. The point
    /// deployment is generated once and shared (behind an `Arc`) with
    /// the decay closure, so construction stays `O(n)` even for seeded
    /// random deployments.
    pub fn build(&self, topology: &TopologySpec) -> Box<dyn DecayBackend> {
        self.build_with_points(topology, Arc::new(topology.points()))
    }

    /// [`Self::build`] reusing an already-deployed point set (it must be
    /// `topology.points()` — a [`CompiledScenario`](crate::CompiledScenario)
    /// caches exactly that). Rebuilding a backend for a checkpoint
    /// restore or a repeated run then shares the deployment instead of
    /// regenerating it.
    pub fn build_with_points(
        &self,
        topology: &TopologySpec,
        points: Arc<Vec<Point>>,
    ) -> Box<dyn DecayBackend> {
        let n = points.len();
        let alpha = topology.alpha();
        let f = {
            let points = Arc::clone(&points);
            move |i: usize, j: usize| distance(points[i], points[j]).powf(alpha)
        };
        match *self {
            BackendSpec::Dense => Box::new(DenseBackend::new(
                geometric_space(&points, alpha).expect("named topologies have distinct points"),
            )),
            BackendSpec::Lazy => {
                let lazy = LazyBackend::from_fn(n, f);
                match *topology {
                    TopologySpec::Line { spacing, .. } => {
                        let last = n - 1;
                        Box::new(lazy.with_neighbor_hint(move |i, reach| {
                            let w = axis_window(reach.powf(1.0 / alpha), spacing, n);
                            (i.saturating_sub(w)..=i.saturating_add(w).min(last)).collect()
                        }))
                    }
                    TopologySpec::Grid { side, spacing, .. } => {
                        Box::new(lazy.with_neighbor_hint(move |i, reach| {
                            let d = reach.powf(1.0 / alpha);
                            let w = axis_window(d, spacing, side);
                            // The in-reach set is a disk of radius `r`
                            // lattice steps: each window row keeps the
                            // columns `|dx| ≤ ⌊√(r² − dy²)⌋ + 1`, and rows
                            // past `r` keep none. The margin and the `+ 1`
                            // absorb rounding in `r` and in the decay.
                            let r = d / spacing * DISK_MARGIN;
                            let (x, y) = (i % side, i / side);
                            let mut out = Vec::new();
                            for yy in y.saturating_sub(w)..=(y + w).min(side - 1) {
                                let h = if r.is_finite() {
                                    let dy = yy.abs_diff(y) as f64;
                                    let room = r * r - dy * dy;
                                    if room < 0.0 {
                                        continue;
                                    }
                                    (room.sqrt() as usize + 1).min(w)
                                } else {
                                    w
                                };
                                for xx in x.saturating_sub(h)..=(x + h).min(side - 1) {
                                    out.push(yy * side + xx);
                                }
                            }
                            out
                        }))
                    }
                    // Rings and random deployments keep the exact row
                    // scan: no index structure to exploit.
                    _ => Box::new(lazy),
                }
            }
            BackendSpec::Tiled {
                tile_size,
                max_tiles,
            } => Box::new(TiledBackend::from_fn(n, tile_size, max_tiles, f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ProtocolSpec, ScenarioSpec, SinrSpec};
    use decay_core::NodeId;
    use decay_engine::Tick;
    use decay_engine::{JamSchedule, LatencyModel};
    use decay_netsim::ReceptionModel;

    fn spec_with(topology: TopologySpec) -> ScenarioSpec {
        ScenarioSpec {
            name: "t".to_string(),
            seed: 1,
            horizon: 10 as Tick,
            check_interval: 4,
            topology,
            backend: BackendSpec::Lazy,
            sinr: SinrSpec {
                beta: 1.0,
                noise: 0.0,
            },
            reception: ReceptionModel::Threshold,
            protocol: ProtocolSpec::Announce {
                probability: 0.1,
                power: 1.0,
            },
            churn: None,
            faults: vec![],
            jamming: JamSchedule::None,
            latency: LatencyModel::Immediate,
            reach_decay: None,
            top_k: None,
            channel: None,
            prr_window: None,
            adaptive: None,
        }
    }

    #[test]
    fn all_backends_agree_on_decays() {
        for topology in [
            TopologySpec::Line {
                n: 9,
                spacing: 1.5,
                alpha: 2.5,
            },
            TopologySpec::Grid {
                side: 3,
                spacing: 2.0,
                alpha: 3.0,
            },
            TopologySpec::Ring {
                n: 8,
                radius: 4.0,
                alpha: 2.0,
            },
            TopologySpec::Random {
                n: 7,
                size: 20.0,
                alpha: 2.0,
                seed: 3,
            },
            TopologySpec::Clustered {
                clusters: 2,
                per_cluster: 4,
                size: 30.0,
                alpha: 2.0,
                seed: 5,
            },
        ] {
            let spec = spec_with(topology);
            let n = spec.node_count();
            let dense = BackendSpec::Dense.build(&spec.topology);
            let lazy = BackendSpec::Lazy.build(&spec.topology);
            let tiled = BackendSpec::Tiled {
                tile_size: 4,
                max_tiles: 2,
            }
            .build(&spec.topology);
            for i in 0..n {
                for j in 0..n {
                    let (a, b) = (NodeId::new(i), NodeId::new(j));
                    let d = dense.decay(a, b);
                    assert_eq!(d.to_bits(), lazy.decay(a, b).to_bits(), "({i},{j})");
                    assert_eq!(d.to_bits(), tiled.decay(a, b).to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn hints_match_exhaustive_scans() {
        let reach_of = |b: &dyn DecayBackend, i: usize, reach: f64| {
            let mut out = Vec::new();
            b.reach_at(0, NodeId::new(i), Some(reach), &mut out);
            out.into_iter()
                .map(|(v, d)| (v, d.to_bits()))
                .collect::<Vec<_>>()
        };
        let mut topologies = vec![
            TopologySpec::Line {
                n: 30,
                spacing: 0.7,
                alpha: 2.2,
            },
            TopologySpec::Grid {
                side: 6,
                spacing: 1.3,
                alpha: 2.8,
            },
        ];
        // Grids where the disk clip binds.
        for spacing in [0.7, 1.3] {
            for alpha in [2.5, 3.0] {
                topologies.push(TopologySpec::Grid {
                    side: 20,
                    spacing,
                    alpha,
                });
            }
        }
        for topology in topologies {
            let dense = BackendSpec::Dense.build(&topology);
            let lazy = BackendSpec::Lazy.build(&topology);
            let n = topology.points().len();
            let (alpha, spacing) = match topology {
                TopologySpec::Line { alpha, spacing, .. }
                | TopologySpec::Grid { alpha, spacing, .. } => (alpha, spacing),
                _ => unreachable!(),
            };
            // Off-lattice reaches, reaches exactly on the lattice
            // distances `(k·spacing)^α` and on the decays of actual
            // (diagonal) pairs, and one wider than the whole grid.
            let mut reaches = vec![1.0, 4.0, 25.0, 1e9];
            reaches.extend((1..=8).map(|k| (k as f64 * spacing).powf(alpha)));
            reaches.extend(
                (1..n)
                    .step_by(23)
                    .map(|j| dense.decay(NodeId::new(0), NodeId::new(j))),
            );
            for reach in reaches {
                for i in [0, 1, n / 2, n / 2 + 7, n - 1] {
                    let want = reach_of(&*dense, i, reach);
                    assert_eq!(want, reach_of(&*lazy, i, reach), "node {i}, reach {reach}");
                    assert_eq!(
                        dense.potential_receivers(NodeId::new(i), Some(reach)),
                        lazy.potential_receivers(NodeId::new(i), Some(reach)),
                        "node {i}, reach {reach}"
                    );
                }
            }
        }
    }
}
