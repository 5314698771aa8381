//! Geometric (GEO-SINR) decay spaces: `f(x, y) = dist(x, y)^α`.
//!
//! These are the paper's baseline — the setting where `ζ = α` exactly —
//! and the substrate for every experiment that sweeps the path-loss
//! exponent.

use decay_core::{DecayError, DecaySpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point in the plane.
pub type Point = (f64, f64);

/// Euclidean distance between two points.
pub fn distance(a: Point, b: Point) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    (dx * dx + dy * dy).sqrt()
}

/// Geometric path-loss decay space over explicit points:
/// `f(x, y) = dist(x, y)^alpha`.
///
/// # Errors
///
/// Returns an error if two points coincide (zero decay between distinct
/// nodes).
pub fn geometric_space(points: &[Point], alpha: f64) -> Result<DecaySpace, DecayError> {
    DecaySpace::from_fn(points.len(), |i, j| {
        distance(points[i], points[j]).powf(alpha)
    })
}

/// `n` evenly spaced points on a line.
pub fn line_points(n: usize, spacing: f64) -> Vec<Point> {
    (0..n).map(|i| (i as f64 * spacing, 0.0)).collect()
}

/// `n` points evenly spaced on a circle of the given radius — the
/// third named deployment shape (after lines and grids) used by
/// declarative scenario topologies; rings are the classic worst case for
/// broadcast because every node has exactly two nearest neighbors.
pub fn ring_points(n: usize, radius: f64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let theta = 2.0 * std::f64::consts::PI * (i as f64) / (n.max(1) as f64);
            (radius * theta.cos(), radius * theta.sin())
        })
        .collect()
}

/// A `k × k` unit grid scaled by `spacing`.
pub fn grid_points(k: usize, spacing: f64) -> Vec<Point> {
    let mut pts = Vec::with_capacity(k * k);
    for y in 0..k {
        for x in 0..k {
            pts.push((x as f64 * spacing, y as f64 * spacing));
        }
    }
    pts
}

/// `n` points uniformly random in a `size × size` box, deterministically
/// from `seed`, rejection-sampled to keep all pairwise distances at least
/// `size / (100 n)` (so decays stay positive and well-conditioned).
///
/// Accepted points sit in a bucket grid of about `n` cells, each side at
/// least twice the separation, so a candidate is tested only against
/// the 3×3 cells around its own: every point closer than the separation
/// lies there. The draws and the comparison are those of the all-pairs
/// test, so the points are too.
pub fn random_points(n: usize, size: f64, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let min_sep = size / (100.0 * n.max(1) as f64);
    // About `√n` cells per axis, each wider than the farthest a pair
    // can be apart and still compute closer than `min_sep`: twice that
    // (rounding), plus `1e-161` for boxes so small that squared
    // distances underflow.
    let side = (n as f64)
        .sqrt()
        .ceil()
        .min(size / (2.0 * min_sep + 1e-161))
        .max(1.0) as usize;
    let inv = side as f64 / size;
    let cell = |c: f64| ((c * inv) as usize).min(side - 1);
    // Per cell, the newest point in it; per point, the one before it in
    // its cell (`usize::MAX` ends a chain).
    let mut head = vec![usize::MAX; side * side];
    let mut next = Vec::with_capacity(n);
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    while pts.len() < n {
        let cand = (rng.gen_range(0.0..size), rng.gen_range(0.0..size));
        let (cx, cy) = (cell(cand.0), cell(cand.1));
        let clear = (cy.saturating_sub(1)..=(cy + 1).min(side - 1)).all(|y| {
            (cx.saturating_sub(1)..=(cx + 1).min(side - 1)).all(|x| {
                let mut i = head[y * side + x];
                while i != usize::MAX && distance(pts[i], cand) >= min_sep {
                    i = next[i];
                }
                i == usize::MAX
            })
        });
        if clear {
            next.push(head[cy * side + cx]);
            head[cy * side + cx] = pts.len();
            pts.push(cand);
        }
    }
    pts
}

/// Clustered deployment: `clusters` centers uniform in the box, each with
/// `per_cluster` points Gaussian-ish around its center (radius
/// `size / 20`). Models the hotspot topologies common in the experimental
/// literature.
pub fn clustered_points(clusters: usize, per_cluster: usize, size: f64, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spread = size / 20.0;
    let mut pts = Vec::with_capacity(clusters * per_cluster);
    for _ in 0..clusters {
        let cx = rng.gen_range(0.0..size);
        let cy = rng.gen_range(0.0..size);
        for _ in 0..per_cluster {
            // Sum of two uniforms approximates a triangular distribution;
            // adequate for clustering without a normal sampler.
            let dx = (rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0)) * 0.5 * spread;
            let dy = (rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0)) * 0.5 * spread;
            pts.push((cx + dx, cy + dy));
        }
    }
    // Nudge any coincident points apart.
    for i in 0..pts.len() {
        for j in 0..i {
            if distance(pts[i], pts[j]) < 1e-9 {
                pts[i].0 += 1e-6 * (i as f64 + 1.0);
            }
        }
    }
    pts
}

/// Geometric decay space with multiplicative log-normal perturbation:
/// `f(x, y) = dist^alpha * exp(sigma * g(x, y))` with `g` a deterministic
/// standard-normal-ish value per ordered pair.
///
/// With `symmetric = true` the perturbation of `(x, y)` and `(y, x)`
/// coincides; otherwise directions are perturbed independently (a crude
/// but effective model of hardware asymmetry reported in testbeds).
///
/// # Errors
///
/// Returns an error if two points coincide.
pub fn perturbed_geometric_space(
    points: &[Point],
    alpha: f64,
    sigma: f64,
    symmetric: bool,
    seed: u64,
) -> Result<DecaySpace, DecayError> {
    let n = points.len();
    let mut rng = StdRng::seed_from_u64(seed);
    // Pre-draw the noise field so from_fn stays deterministic per pair.
    let mut noise = vec![0.0_f64; n * n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if symmetric && j < i {
                noise[i * n + j] = noise[j * n + i];
            } else {
                // Irwin–Hall(12) - 6 approximates a standard normal.
                let g: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
                noise[i * n + j] = g;
            }
        }
    }
    DecaySpace::from_fn(n, |i, j| {
        distance(points[i], points[j]).powf(alpha) * (sigma * noise[i * n + j]).exp()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::metricity;

    #[test]
    fn zeta_equals_alpha_for_geometric_spaces() {
        for alpha in [1.5, 2.0, 3.0] {
            let s = geometric_space(&random_points(12, 50.0, 7), alpha).unwrap();
            let z = metricity(&s).zeta;
            assert!((z - alpha).abs() < 0.05, "alpha = {alpha}, zeta = {z}");
        }
    }

    #[test]
    fn line_and_grid_shapes() {
        assert_eq!(line_points(5, 2.0).len(), 5);
        assert_eq!(line_points(5, 2.0)[4], (8.0, 0.0));
        assert_eq!(grid_points(3, 1.0).len(), 9);
        assert_eq!(grid_points(3, 1.0)[8], (2.0, 2.0));
    }

    #[test]
    fn ring_points_sit_on_the_circle() {
        let pts = ring_points(12, 5.0);
        assert_eq!(pts.len(), 12);
        assert_eq!(pts[0], (5.0, 0.0));
        for &(x, y) in &pts {
            assert!(((x * x + y * y).sqrt() - 5.0).abs() < 1e-9);
        }
        // Adjacent gaps are uniform, so the space is well-conditioned.
        let gap = distance(pts[0], pts[1]);
        for i in 0..12 {
            assert!((distance(pts[i], pts[(i + 1) % 12]) - gap).abs() < 1e-9);
        }
        geometric_space(&pts, 2.0).unwrap();
    }

    #[test]
    fn random_points_are_deterministic_and_distinct() {
        let a = random_points(20, 100.0, 42);
        let b = random_points(20, 100.0, 42);
        assert_eq!(a, b);
        let c = random_points(20, 100.0, 43);
        assert_ne!(a, c);
        for i in 0..a.len() {
            for j in 0..i {
                assert!(distance(a[i], a[j]) > 0.0);
            }
        }
    }

    /// The all-pairs rejection sampler `random_points` replaced, and how
    /// many candidates it rejected.
    fn random_points_reference(n: usize, size: f64, seed: u64) -> (Vec<Point>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let min_sep = size / (100.0 * n.max(1) as f64);
        let mut pts: Vec<Point> = Vec::with_capacity(n);
        let mut rejected = 0;
        while pts.len() < n {
            let cand = (rng.gen_range(0.0..size), rng.gen_range(0.0..size));
            if pts.iter().all(|&p| distance(p, cand) >= min_sep) {
                pts.push(cand);
            } else {
                rejected += 1;
            }
        }
        (pts, rejected)
    }

    #[test]
    fn random_points_match_the_all_pairs_sampler() {
        let bits = |pts: &[Point]| {
            pts.iter()
                .map(|p| (p.0.to_bits(), p.1.to_bits()))
                .collect::<Vec<_>>()
        };
        let mut rejections = 0;
        for (n, size) in [
            (0, 1.0),
            (1, 1.0),
            (2, 1e-6),
            (37, 100.0),
            (500, 1e12),
            (900, 3.0),
            // Squared distances underflow here, so the computed
            // separation of close pairs is 0 and candidates get
            // rejected.
            (40, 3e-161),
            (60, 1e-160),
            (12, 1e-161),
            // Pairs two buckets apart can compute 0 apart here (seed 16
            // has one), so the buckets must cover the underflow.
            (10, 6e-162),
        ] {
            for seed in [0, 1, 7, 16, 42] {
                let (want, rejected) = random_points_reference(n, size, seed);
                assert_eq!(
                    bits(&random_points(n, size, seed)),
                    bits(&want),
                    "{n} {size} {seed}"
                );
                rejections += rejected;
            }
        }
        assert!(rejections > 0, "no case exercised a rejection");
    }

    #[test]
    fn clustered_points_form_groups() {
        let pts = clustered_points(3, 5, 100.0, 1);
        assert_eq!(pts.len(), 15);
        geometric_space(&pts, 2.0).unwrap();
    }

    #[test]
    fn symmetric_perturbation_is_symmetric() {
        let pts = random_points(8, 50.0, 3);
        let s = perturbed_geometric_space(&pts, 2.0, 0.5, true, 11).unwrap();
        assert!(s.is_symmetric(1e-9));
        let a = perturbed_geometric_space(&pts, 2.0, 0.5, false, 11).unwrap();
        assert!(!a.is_symmetric(1e-9));
    }

    #[test]
    fn perturbation_raises_zeta_above_alpha() {
        let pts = random_points(10, 50.0, 5);
        let clean = metricity(&geometric_space(&pts, 2.0).unwrap()).zeta;
        let noisy = metricity(&perturbed_geometric_space(&pts, 2.0, 1.0, true, 5).unwrap()).zeta;
        assert!(noisy > clean, "noisy = {noisy}, clean = {clean}");
    }
}
