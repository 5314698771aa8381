//! Compiling a [`TopologySpec`] + [`BackendSpec`] into a
//! [`DecayBackend`].
//!
//! Every named topology is a point deployment (built by the constructors
//! in `decay-spaces`) with geometric decay `dist^alpha`. Both
//! backends evaluate that same expression (the lazy one through the
//! exact memo below), so dense and lazy runs evaluate
//! *bit-identical* decays — the invariant the cross-backend conformance
//! suite rests on. Lazy backends also get a neighbor hint from the point
//! set itself, whatever its shape: a bucket-grid index
//! (`crate::cells`) answers a reach `r` with the cells meeting the disk
//! of radius `r^(1/α)`, replacing `O(n)` row scans with window
//! queries: `O(k)` on lines, grids, rings and random points, wider
//! under strong clustering, where one uniform cell holds many points.
//! Hints over-approximate and the backend re-filters by decay, so they
//! can never change results, only cost.
//!
//! The lazy backend's closure also memoizes its powers. It owns a
//! direct-mapped table keyed by the bits of the squared distance
//! `dx·dx + dy·dy`; a hit returns the stored `sqrt(d²)^α`, a miss
//! computes and stores it. `dist` is exactly that square root, so the
//! memo returns `dist^α` bit for bit on any deployment and can never
//! change a result. On a lattice a reach disk holds a few dozen
//! distinct distances, so nearly every lookup skips libm's `pow`; on
//! random points nearly every lookup misses and pays only the probe.
//! The table lives in `Cell`s, which the `Send`-only backend contract
//! allows: a backend is owned by one run at a time.

use std::cell::Cell;
use std::sync::Arc;

use decay_core::DecaySpace;
use decay_engine::{DecayBackend, DenseBackend, LazyBackend};
use decay_spaces::{
    clustered_points, geometric_space, grid_points, line_points, random_points, ring_points, Point,
};

use crate::cells::CellIndex;
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

/// Relative slack on the hint's disk radius, applied to the reach
/// before the root and to the radius after it: far above the rounding
/// in `dist`, in `dist^α` and in `reach^(1/α)` for any `α`, so the disk
/// stays a superset of the in-reach set.
const DISK_MARGIN: f64 = 1.0 + 1e-9;

/// Added to the hint's disk radius: about `√f64::MIN_POSITIVE`, the
/// distance below which a squared distance leaves the normal floats and
/// `dist` stops being accurate to a few ulps. Validated specs never get
/// there; the slack keeps the hint sound for any point set.
const UNDERFLOW_SLACK: f64 = 1.5e-154;

/// The Euclidean radius around a node holding every node whose decay
/// `dist^α` from it is at most `reach`.
fn reach_radius(reach: f64, alpha: f64) -> f64 {
    (reach * DISK_MARGIN).powf(1.0 / alpha) * DISK_MARGIN + UNDERFLOW_SLACK
}

/// `log2` of the decay memo's slot count: 2,048 slots of 16 bytes,
/// 32 KiB per lazy backend.
const MEMO_BITS: u32 = 11;

/// A direct-mapped memo of `sqrt(d²)^α`, keyed by the bits of `d²`
/// and indexed by their Fibonacci hash. Every slot holds a true entry
/// from the start (`d² = 0`), so no key needs to mean "empty".
struct DecayMemo {
    alpha: f64,
    slots: Box<[Cell<(u64, f64)>]>,
}

impl DecayMemo {
    fn new(alpha: f64) -> Self {
        let zero = (0.0_f64.to_bits(), 0.0_f64.sqrt().powf(alpha));
        DecayMemo {
            alpha,
            slots: (0..1 << MEMO_BITS).map(|_| Cell::new(zero)).collect(),
        }
    }

    fn slot(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize
    }

    /// `d2.sqrt().powf(alpha)`, bit for bit.
    fn decay(&self, d2: f64) -> f64 {
        let key = d2.to_bits();
        let slot = &self.slots[Self::slot(key)];
        let (stored, value) = slot.get();
        if stored == key {
            return value;
        }
        let value = d2.sqrt().powf(self.alpha);
        slot.set((key, value));
        value
    }
}

impl BackendSpec {
    /// Builds the backend realizing `topology`'s decay space. The point
    /// deployment is generated once and shared (behind an `Arc`) with
    /// the decay closure (and, on a lazy backend, bucketed once into the
    /// neighbor hint's index), so construction stays `O(n)` even for
    /// seeded random deployments.
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
        match *self {
            BackendSpec::Dense => Box::new(DenseBackend::new(
                geometric_space(&points, alpha).expect("named topologies have distinct points"),
            )),
            BackendSpec::Lazy => {
                let index = CellIndex::new(&points);
                let memo = DecayMemo::new(alpha);
                let decay_points = Arc::clone(&points);
                let f = move |i: usize, j: usize| {
                    let (p, q) = (decay_points[i], decay_points[j]);
                    let (dx, dy) = (p.0 - q.0, p.1 - q.1);
                    memo.decay(dx * dx + dy * dy)
                };
                let hint = move |i: usize, reach| index.disk(points[i], reach_radius(reach, alpha));
                Box::new(LazyBackend::from_fn(n, f).with_neighbor_hint(hint))
            }
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
    use decay_spaces::distance;

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
            for i in 0..n {
                for j in 0..n {
                    let (a, b) = (NodeId::new(i), NodeId::new(j));
                    let d = dense.decay(a, b);
                    assert_eq!(d.to_bits(), lazy.decay(a, b).to_bits(), "({i},{j})");
                }
            }
        }
    }

    /// Lazy `reach_at` equals dense bit for bit, and so do the
    /// receiver ids, at `reaches` from each node in `from`.
    fn assert_hint_matches_dense(
        topology: &TopologySpec,
        points: Vec<Point>,
        from: &[usize],
        reaches: &[f64],
    ) {
        let points = Arc::new(points);
        let dense = BackendSpec::Dense.build_with_points(topology, Arc::clone(&points));
        let lazy = BackendSpec::Lazy.build_with_points(topology, points);
        let reach_of = |b: &dyn DecayBackend, i: usize, reach: f64| {
            let mut out = Vec::new();
            b.reach_at(0, NodeId::new(i), Some(reach), &mut out);
            out.into_iter()
                .map(|(v, d)| (v, d.to_bits()))
                .collect::<Vec<_>>()
        };
        for &reach in reaches {
            for &i in from {
                let want = reach_of(&*dense, i, reach);
                assert_eq!(
                    want,
                    reach_of(&*lazy, i, reach),
                    "{topology:?}: node {i}, reach {reach}"
                );
                assert_eq!(
                    dense.potential_receivers(NodeId::new(i), Some(reach)),
                    lazy.potential_receivers(NodeId::new(i), Some(reach)),
                    "{topology:?}: node {i}, reach {reach}"
                );
            }
        }
    }

    #[test]
    fn hints_match_exhaustive_scans() {
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
            TopologySpec::Ring {
                n: 50,
                radius: 10.0,
                alpha: 2.5,
            },
            TopologySpec::Random {
                n: 60,
                size: 40.0,
                alpha: 2.0,
                seed: 3,
            },
            // Squared distances underflow, so candidates are rejected
            // and computed distances carry the underflow's error.
            TopologySpec::Random {
                n: 60,
                size: 1e-160,
                alpha: 1.0,
                seed: 4,
            },
            TopologySpec::Clustered {
                clusters: 4,
                per_cluster: 15,
                size: 50.0,
                alpha: 3.0,
                seed: 5,
            },
            // Every point starts within 1e-9 of the others and is
            // nudged apart along x.
            TopologySpec::Clustered {
                clusters: 2,
                per_cluster: 6,
                size: 1e-10,
                alpha: 2.0,
                seed: 6,
            },
            // Degenerate deployments.
            TopologySpec::Line {
                n: 2,
                spacing: 3.0,
                alpha: 2.0,
            },
            TopologySpec::Ring {
                n: 2,
                radius: 1.0,
                alpha: 2.0,
            },
            TopologySpec::Random {
                n: 2,
                size: 5.0,
                alpha: 3.0,
                seed: 7,
            },
            TopologySpec::Clustered {
                clusters: 2,
                per_cluster: 1,
                size: 5.0,
                alpha: 2.0,
                seed: 8,
            },
            TopologySpec::Grid {
                side: 1,
                spacing: 1.0,
                alpha: 2.0,
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
            let points = topology.points();
            let n = points.len();
            let dense = BackendSpec::Dense.build(&topology);
            let from: Vec<usize> = if n <= 60 {
                (0..n).collect()
            } else {
                vec![0, 1, n / 2, n / 2 + 7, n - 1]
            };
            // Reaches on the decays of actual pairs, off-pair ones, one
            // wider than the whole deployment and the largest float.
            let mut reaches = vec![1.0, 4.0, 25.0, 1e9, f64::MAX];
            // On lines and grids, also reaches exactly on the lattice
            // distances `(k·spacing)^α`, where rounding sits on the rim.
            if let TopologySpec::Line { alpha, spacing, .. }
            | TopologySpec::Grid { alpha, spacing, .. } = topology
            {
                reaches.extend((1..=8).map(|k| (k as f64 * spacing).powf(alpha)));
            }
            reaches.extend(
                (1..n)
                    .step_by(23)
                    .map(|j| dense.decay(NodeId::new(0), NodeId::new(j))),
            );
            for &i in from.iter().step_by(3) {
                reaches.extend(
                    (0..n)
                        .filter(|&j| j != i)
                        .step_by(n / 40 + 1)
                        .map(|j| dense.decay(NodeId::new(i), NodeId::new(j))),
                );
            }
            assert_hint_matches_dense(&topology, points, &from, &reaches);
        }
    }

    #[test]
    fn hints_cover_points_on_cell_boundaries() {
        // A 6 × 6 integer lattice with its far corner moved out to
        // (6, 6): 36 points over a 6 × 6 box make unit cells, so every
        // point sits on a cell edge and every pair decay puts one on
        // the disk's rim.
        let m = 6;
        let mut points: Vec<Point> = (0..m * m)
            .map(|i| ((i % m) as f64, (i / m) as f64))
            .collect();
        points[m * m - 1] = (m as f64, m as f64);
        assert_eq!(CellIndex::new(&points).cells(), m * m);
        // The backends read only α from the topology; the points are
        // these.
        let all: Vec<usize> = (0..m * m).collect();
        for alpha in [0.3, 1.0, 1.7, 2.0, 2.5, 3.0, 4.0] {
            let topology = TopologySpec::Random {
                n: m * m,
                size: m as f64,
                alpha,
                seed: 0,
            };
            let reaches: Vec<f64> = points
                .iter()
                .flat_map(|&p| points.iter().map(move |&q| distance(p, q).powf(alpha)))
                .filter(|&d| d > 0.0)
                .collect();
            assert_hint_matches_dense(&topology, points.clone(), &all, &reaches);
        }
    }

    /// The lazy backend's `decay` and `reach_at` decays equal
    /// `dist^α` bit for bit on `points`, asked twice per pair in both
    /// directions, so the second and reverse lookups come from the memo.
    fn assert_lazy_decays_are_exact(alpha: f64, points: Vec<Point>) {
        let n = points.len();
        let topology = TopologySpec::Random {
            n,
            size: 1.0,
            alpha,
            seed: 0,
        };
        let lazy = BackendSpec::Lazy.build_with_points(&topology, Arc::new(points.clone()));
        let exact = |i: usize, j: usize| distance(points[i], points[j]).powf(alpha).to_bits();
        for _ in 0..2 {
            for i in 0..n {
                for j in (0..n).filter(|&j| j != i) {
                    let d = lazy.decay(NodeId::new(i), NodeId::new(j));
                    assert_eq!(d.to_bits(), exact(i, j), "α {alpha}: ({i},{j})");
                }
                for reach in [None, Some(median_decay(&points, i, alpha))] {
                    let mut out = Vec::new();
                    lazy.reach_at(0, NodeId::new(i), reach, &mut out);
                    assert!(!out.is_empty(), "α {alpha}: node {i} reaches nobody");
                    for (v, d) in out {
                        assert_eq!(d.to_bits(), exact(i, v.index()), "α {alpha}: ({i},{v:?})");
                    }
                }
            }
        }
    }

    /// The median decay from `i`: a reach that cuts through the
    /// deployment.
    fn median_decay(points: &[Point], i: usize, alpha: f64) -> f64 {
        let mut decays: Vec<f64> = (0..points.len())
            .filter(|&j| j != i)
            .map(|j| distance(points[i], points[j]).powf(alpha))
            .collect();
        decays.sort_by(f64::total_cmp);
        decays[decays.len() / 2]
    }

    proptest::proptest! {
        #[test]
        fn memo_decays_are_exact_on_random_points(
            points in proptest::prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 24),
            n in 2usize..24,
            alpha in 0.3f64..4.5,
        ) {
            assert_lazy_decays_are_exact(alpha, points[..n].to_vec());
        }

        #[test]
        fn memo_decays_are_exact_on_non_dyadic_grids(
            side in 2usize..12,
            pick in 0usize..2,
            alpha in 0.3f64..4.5,
        ) {
            // Neither spacing is a binary fraction, so `col·spacing`
            // differences can round differently across pairs at the same
            // lattice offset.
            let spacing = [0.1, 0.3][pick];
            assert_lazy_decays_are_exact(alpha, grid_points(side, spacing));
        }
    }

    #[test]
    fn memo_keeps_colliding_keys_apart() {
        // Two squared distances that hash to the same slot, looked up
        // alternately: each lookup evicts the other's entry.
        let mut first_in_slot = vec![None; 1 << MEMO_BITS];
        let (a, b) = (1..)
            .map(|k| k as f64)
            .find_map(|d2: f64| {
                let slot = DecayMemo::slot(d2.to_bits());
                first_in_slot[slot].replace(d2).map(|a| (a, d2))
            })
            .expect("pigeonhole");
        assert_eq!(DecayMemo::slot(a.to_bits()), DecayMemo::slot(b.to_bits()));
        let memo = DecayMemo::new(2.5);
        for _ in 0..3 {
            for d2 in [a, b, b, a] {
                assert_eq!(
                    memo.decay(d2).to_bits(),
                    d2.sqrt().powf(2.5).to_bits(),
                    "{d2}"
                );
            }
        }
        // The prefilled key answers without a write.
        assert_eq!(memo.decay(0.0), 0.0);
    }

    #[test]
    fn index_cells_stay_linear_in_the_node_count() {
        for topology in [
            TopologySpec::Random {
                n: 500,
                size: 1e-6,
                alpha: 2.0,
                seed: 1,
            },
            TopologySpec::Random {
                n: 500,
                size: 1e12,
                alpha: 2.0,
                seed: 2,
            },
            // Two tight clusters across a huge box.
            TopologySpec::Clustered {
                clusters: 2,
                per_cluster: 250,
                size: 1e15,
                alpha: 2.0,
                seed: 3,
            },
            // Nudged onto a thin horizontal strip.
            TopologySpec::Clustered {
                clusters: 3,
                per_cluster: 100,
                size: 1e-12,
                alpha: 2.0,
                seed: 4,
            },
            TopologySpec::Line {
                n: 500,
                spacing: 1e-100,
                alpha: 2.0,
            },
            TopologySpec::Ring {
                n: 3,
                radius: 1e100,
                alpha: 2.0,
            },
        ] {
            let n = topology.points().len();
            let cells = CellIndex::new(&topology.points()).cells();
            assert!(
                cells <= 2 * n + 2,
                "{topology:?}: {cells} cells for {n} nodes"
            );
        }
    }
}
