//! The metricity parameter `ζ` (Definition 2.2) and the variant `ϕ`/`φ`
//! (Section 4.2).
//!
//! The metricity `ζ(D)` of a decay space is the smallest number such that
//! for every ordered triple `x, y, z`:
//!
//! ```text
//! f(x, y)^{1/ζ} ≤ f(x, z)^{1/ζ} + f(z, y)^{1/ζ}
//! ```
//!
//! In geometric path loss (`f = d^α` in a metric) we get `ζ = α`. The
//! variant `ϕ` is the smallest multiplicative slack in the *unexponentiated*
//! relaxed triangle inequality, `f(x, y) ≤ ϕ·(f(x, z) + f(z, y))`, with
//! `φ = lg ϕ`. The paper's Section 4.2 derives `ϕ ≤ 2^ζ`, i.e. `φ ≤ ζ`
//! (the in-text statement "ζ ≤ φ" is a typo; see DESIGN.md), and shows no
//! converse bound exists.

use crate::space::{DecaySpace, NodeId};
use crate::util::bisect_decreasing;

/// Result of a metricity computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metricity {
    /// The computed metricity value `ζ` (0 when no triple binds, e.g. on
    /// 1- and 2-node spaces or ultrametric-like decays).
    pub zeta: f64,
    /// A triple `(x, z, y)` attaining the maximum, when one binds:
    /// the constraint is on `f(x, y)` versus the detour through `z`.
    pub witness: Option<(NodeId, NodeId, NodeId)>,
}

impl Metricity {
    /// `ζ` clamped from below to 1, the regime the paper's upper-bound
    /// lemmas assume ("assume ζ ≥ 1", Lemma B.2).
    pub fn zeta_at_least_one(&self) -> f64 {
        self.zeta.max(1.0)
    }
}

/// The smallest `ζ` an ordered triple requires, given its leg ratios
/// `ra = a / c < 1` and `rb = b / c < 1`, where `c = f(x, y)` is the
/// direct decay and `a = f(x, z)`, `b = f(z, y)` the detour legs. (When
/// `max(a, b) ≥ c` the triple imposes no constraint: the inequality
/// holds for every positive exponent.)
fn zeta_for_ratios(ra: f64, rb: f64) -> f64 {
    // h(t) = ra^t + rb^t - 1 is strictly decreasing (ra, rb < 1) with
    // h(0) = 1 > 0; the root t* gives zeta = 1/t*.
    let t = bisect_decreasing(|t| ra.powf(t) + rb.powf(t) - 1.0, 1.0);
    1.0 / t
}

/// Relative slack in the [`ZetaScan`] skip test, both on the running
/// maximum and on the test's threshold. A skipped triple has `ζ ≤ 512`
/// (the threshold is finite), so its root is at least `1/512` and the
/// bisection lands within `ROOT_TOL · 512 ≈ 5e-11` of it relatively;
/// rounding in the test itself is near `1e-13`. `1e-6` clears both with
/// room to spare.
const SKIP_SLACK: f64 = 1e-6;

/// The running maximum of a triple scan, with a skip test that drops
/// triples which provably cannot raise it.
///
/// By AM–GM, `ra^t + rb^t ≥ 2 (ra · rb)^(t/2)`, so a triple's root
/// satisfies `ζ ≤ ½ · lg(1 / (ra · rb))`. A triple with
/// `ra · rb · 4^(ζ_best (1 − ε)) ≥ 1 + ε` therefore has
/// `ζ ≤ ζ_best (1 − ε)`, and its bisection result stays below the
/// current best, which a scan only replaces on a strictly larger value.
/// Skipping it leaves `zeta` and `witness` bit-identical to the
/// unpruned scan while most triples cost a multiply instead of ~90
/// `powf`.
struct ZetaScan {
    best: Metricity,
    /// `4^(ζ_best (1 − ε))`, or 0 (skip nothing) while no triple binds
    /// or when it overflows.
    skip_at: f64,
}

impl ZetaScan {
    fn new() -> Self {
        ZetaScan {
            best: Metricity {
                zeta: 0.0,
                witness: None,
            },
            skip_at: 0.0,
        }
    }

    /// Offers the triple `(x, z, y)` with legs `a = f(x, z)`,
    /// `b = f(z, y)` and direct decay `c = f(x, y)`.
    #[inline]
    fn offer(&mut self, a: f64, b: f64, c: f64, x: usize, z: usize, y: usize) {
        if a >= c || b >= c {
            return;
        }
        let (ra, rb) = (a / c, b / c);
        // `ra · skip_at` first: the product stays normal whenever the
        // test can pass, even for subnormal ratios.
        if ra * self.skip_at * rb >= 1.0 + SKIP_SLACK {
            return;
        }
        let zt = zeta_for_ratios(ra, rb);
        if zt > self.best.zeta {
            self.best = Metricity {
                zeta: zt,
                witness: Some((NodeId::new(x), NodeId::new(z), NodeId::new(y))),
            };
            let skip_at = 4f64.powf(zt * (1.0 - SKIP_SLACK));
            self.skip_at = if skip_at.is_finite() { skip_at } else { 0.0 };
        }
    }
}

/// Computes the exact metricity `ζ(D)` by scanning all `O(n³)` ordered
/// triples (Definition 2.2). A triple skips its root solve when the
/// AM–GM bound `ζ ≤ ½ · lg(f(x, y)² / (f(x, z) · f(z, y)))` proves it
/// cannot raise the running maximum; the result, witness included, is
/// the unpruned scan's bit for bit.
///
/// # Examples
///
/// ```
/// use decay_core::{metricity, DecaySpace};
///
/// # fn main() -> Result<(), decay_core::DecayError> {
/// // Geometric path loss with alpha = 3 on a line: zeta == alpha.
/// let pos = [0.0_f64, 1.0, 2.5, 4.0];
/// let space = DecaySpace::from_fn(4, |i, j| (pos[i] - pos[j]).abs().powi(3))?;
/// let m = metricity(&space);
/// assert!((m.zeta - 3.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn metricity(space: &DecaySpace) -> Metricity {
    let n = space.len();
    let mut scan = ZetaScan::new();
    for x in 0..n {
        for y in 0..n {
            if x == y {
                continue;
            }
            let c = space.decay(NodeId::new(x), NodeId::new(y));
            for z in 0..n {
                if z == x || z == y {
                    continue;
                }
                let a = space.decay(NodeId::new(x), NodeId::new(z));
                let b = space.decay(NodeId::new(z), NodeId::new(y));
                scan.offer(a, b, c, x, z, y);
            }
        }
    }
    scan.best
}

/// A lower-bound estimate of `ζ(D)` from a random sample of `samples`
/// triples, for spaces too large for the cubic scan.
///
/// Deterministic in `seed`. The estimate only improves (weakly) with more
/// samples and never exceeds the true `ζ`.
pub fn metricity_sampled(space: &DecaySpace, samples: usize, seed: u64) -> Metricity {
    let n = space.len();
    if n < 3 {
        return Metricity {
            zeta: 0.0,
            witness: None,
        };
    }
    // Small deterministic xorshift so we do not depend on `rand` here.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut scan = ZetaScan::new();
    for _ in 0..samples {
        let x = (next() % n as u64) as usize;
        let mut y = (next() % n as u64) as usize;
        if y == x {
            y = (y + 1) % n;
        }
        let mut z = (next() % n as u64) as usize;
        if z == x || z == y {
            z = (0..n).find(|&k| k != x && k != y).unwrap_or(x);
            if z == x {
                continue;
            }
        }
        let c = space.decay(NodeId::new(x), NodeId::new(y));
        let a = space.decay(NodeId::new(x), NodeId::new(z));
        let b = space.decay(NodeId::new(z), NodeId::new(y));
        scan.offer(a, b, c, x, z, y);
    }
    scan.best
}

/// The a-priori upper bound `ζ(D) ≤ lg(max f / min f)` from Definition 2.2
/// (clamped below at 1; with ratio < 2 every exponent ≥ 1 works).
pub fn zeta_upper_bound(space: &DecaySpace) -> f64 {
    if space.len() < 3 {
        return 1.0;
    }
    (space.max_decay() / space.min_decay()).log2().max(1.0)
}

/// Result of computing the `ϕ`/`φ` variant parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhiMetricity {
    /// `ϕ`: smallest factor with `f(x, y) ≤ ϕ (f(x, z) + f(z, y))` for all
    /// ordered triples. At most 1 when the raw decays already satisfy the
    /// triangle inequality.
    pub varphi: f64,
    /// `φ = lg ϕ` (may be negative when `ϕ < 1`).
    pub phi: f64,
    /// A triple `(x, z, y)` attaining the maximum, if any triple exists.
    pub witness: Option<(NodeId, NodeId, NodeId)>,
}

/// Computes `ϕ` and `φ = lg ϕ` exactly over all ordered triples
/// (Section 4.2).
///
/// For spaces with fewer than 3 nodes no triple exists and `ϕ = 1, φ = 0`
/// by convention.
pub fn phi_metricity(space: &DecaySpace) -> PhiMetricity {
    let n = space.len();
    let mut varphi = 0.0_f64;
    let mut witness = None;
    for x in 0..n {
        for y in 0..n {
            if x == y {
                continue;
            }
            let c = space.decay(NodeId::new(x), NodeId::new(y));
            for z in 0..n {
                if z == x || z == y {
                    continue;
                }
                let a = space.decay(NodeId::new(x), NodeId::new(z));
                let b = space.decay(NodeId::new(z), NodeId::new(y));
                let ratio = c / (a + b);
                if ratio > varphi {
                    varphi = ratio;
                    witness = Some((NodeId::new(x), NodeId::new(z), NodeId::new(y)));
                }
            }
        }
    }
    if witness.is_none() {
        return PhiMetricity {
            varphi: 1.0,
            phi: 0.0,
            witness: None,
        };
    }
    PhiMetricity {
        varphi,
        phi: varphi.log2(),
        witness,
    }
}

/// Verifies Definition 2.2 directly: checks that `f^{1/ζ}` satisfies the
/// triangle inequality over all ordered triples, within relative slack
/// `tol`. Returns the worst violation (positive when violated).
pub fn triangle_violation_at(space: &DecaySpace, zeta: f64) -> f64 {
    let n = space.len();
    let t = 1.0 / zeta;
    let mut worst = f64::NEG_INFINITY;
    for x in 0..n {
        for y in 0..n {
            if x == y {
                continue;
            }
            let c = space.decay(NodeId::new(x), NodeId::new(y)).powf(t);
            for z in 0..n {
                if z == x || z == y {
                    continue;
                }
                let a = space.decay(NodeId::new(x), NodeId::new(z)).powf(t);
                let b = space.decay(NodeId::new(z), NodeId::new(y)).powf(t);
                let viol = (c - (a + b)) / c.max(1e-300);
                if viol > worst {
                    worst = viol;
                }
            }
        }
    }
    if worst == f64::NEG_INFINITY {
        0.0
    } else {
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DecaySpace;

    fn geo_line(positions: &[f64], alpha: f64) -> DecaySpace {
        DecaySpace::from_fn(positions.len(), |i, j| {
            (positions[i] - positions[j]).abs().powf(alpha)
        })
        .unwrap()
    }

    /// The smallest `ζ` the triple with legs `a`, `b` and direct decay
    /// `c` requires; 0 when it imposes no constraint.
    fn zeta_for_triple(a: f64, b: f64, c: f64) -> f64 {
        if a >= c || b >= c {
            return 0.0;
        }
        zeta_for_ratios(a / c, b / c)
    }

    /// The unpruned triple scan [`metricity`] must reproduce bit for
    /// bit: every constrained triple runs its root solve.
    fn metricity_unpruned(space: &DecaySpace) -> Metricity {
        let n = space.len();
        let mut best = Metricity {
            zeta: 0.0,
            witness: None,
        };
        for x in 0..n {
            for y in 0..n {
                if x == y {
                    continue;
                }
                let c = space.decay(NodeId::new(x), NodeId::new(y));
                for z in 0..n {
                    if z == x || z == y {
                        continue;
                    }
                    let a = space.decay(NodeId::new(x), NodeId::new(z));
                    let b = space.decay(NodeId::new(z), NodeId::new(y));
                    if a >= c || b >= c {
                        continue;
                    }
                    let zt = zeta_for_triple(a, b, c);
                    if zt > best.zeta {
                        best = Metricity {
                            zeta: zt,
                            witness: Some((NodeId::new(x), NodeId::new(z), NodeId::new(y))),
                        };
                    }
                }
            }
        }
        best
    }

    /// A decay space of `n` nodes of family `kind`: geometric on random
    /// points, the same shadowed (a log-normal factor per node), the
    /// same faded (an exponential gain per pair), log-uniform decays
    /// over `1e-300..1e300`, all equal, or near-tied (every decay
    /// `1 + k · 2^-50` for small `k`).
    fn family(kind: u8, n: usize, alpha: f64, seed: u64) -> DecaySpace {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (next() * 10.0, next() * 10.0)).collect();
        let shadow: Vec<f64> = (0..n).map(|_| 10f64.powf(0.8 * (next() - 0.5))).collect();
        let mut pair = vec![0.0; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let u = next();
                pair[i * n + j] = match kind {
                    2 => 1.0 / (-(1.0 - u).ln()).clamp(1e-9, 10.0),
                    3 => 10f64.powf(600.0 * u - 300.0),
                    5 => 1.0 + (u * 4.0).floor() * 2f64.powi(-50),
                    _ => 1.0,
                };
                pair[j * n + i] = pair[i * n + j];
            }
        }
        DecaySpace::from_fn(n, |i, j| {
            let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
            let geo = (dx * dx + dy * dy).sqrt().max(1e-3).powf(alpha);
            match kind {
                0 => geo,
                1 => geo * shadow[i] * shadow[j],
                2 => geo * shadow[i] * shadow[j] * pair[i * n + j],
                4 => 3.0,
                _ => pair[i * n + j],
            }
        })
        .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The pruned scan's `zeta` and `witness` equal the unpruned
        /// oracle's bit for bit on every space family, n = 3..24.
        #[test]
        fn pruned_scan_is_the_unpruned_scan(
            kind in 0u8..6,
            n in 3usize..25,
            alpha in 1.0f64..6.0,
            seed in 0u64..1_000_000,
        ) {
            let space = family(kind, n, alpha, seed);
            let (got, want) = (metricity(&space), metricity_unpruned(&space));
            proptest::prop_assert_eq!(got.zeta.to_bits(), want.zeta.to_bits());
            proptest::prop_assert_eq!(got.witness, want.witness);
        }
    }

    #[test]
    fn zeta_equals_alpha_on_line() {
        for alpha in [1.0, 2.0, 3.5, 6.0] {
            let s = geo_line(&[0.0, 1.0, 2.0, 3.5, 7.0], alpha);
            let m = metricity(&s);
            assert!(
                (m.zeta - alpha).abs() < 1e-6,
                "alpha={alpha} got zeta={}",
                m.zeta
            );
            assert!(m.witness.is_some());
        }
    }

    #[test]
    fn zeta_zero_on_two_node_space() {
        let s = DecaySpace::from_matrix(2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let m = metricity(&s);
        assert_eq!(m.zeta, 0.0);
        assert!(m.witness.is_none());
        assert_eq!(m.zeta_at_least_one(), 1.0);
    }

    #[test]
    fn zeta_respects_upper_bound() {
        // Uniform decays: every triple unconstrained.
        let s = DecaySpace::from_fn(5, |_, _| 3.0).unwrap();
        assert_eq!(metricity(&s).zeta, 0.0);

        // Wildly varying decays still below lg(max/min).
        let s = DecaySpace::from_fn(6, |i, j| ((i * 7 + j * 3) % 11 + 1) as f64).unwrap();
        let m = metricity(&s);
        assert!(m.zeta <= zeta_upper_bound(&s) + 1e-9);
    }

    #[test]
    fn triple_solver_matches_known_value() {
        // a = b = c/2: (1/2)^t + (1/2)^t = 1 -> t = 1 -> zeta = 1.
        assert!((zeta_for_triple(1.0, 1.0, 2.0) - 1.0).abs() < 1e-10);
        // a = b = c/4: 2 * (1/4)^t = 1 -> t = 1/2 -> zeta = 2.
        assert!((zeta_for_triple(1.0, 1.0, 4.0) - 2.0).abs() < 1e-10);
        // Unconstrained cases.
        assert_eq!(zeta_for_triple(5.0, 1.0, 4.0), 0.0);
        assert_eq!(zeta_for_triple(1.0, 5.0, 4.0), 0.0);
    }

    #[test]
    fn induced_quasi_distance_satisfies_triangle_inequality() {
        let s =
            DecaySpace::from_fn(6, |i, j| (1.0 + (i as f64) * 1.7 + (j as f64)).powi(2)).unwrap();
        let m = metricity(&s);
        if m.zeta > 0.0 {
            let v = triangle_violation_at(&s, m.zeta);
            assert!(v <= 1e-9, "violation {v}");
        }
    }

    #[test]
    fn zeta_is_minimal() {
        let s = geo_line(&[0.0, 1.0, 2.0], 4.0);
        let m = metricity(&s);
        // Slightly smaller exponent must violate the triangle inequality.
        let v = triangle_violation_at(&s, m.zeta * 0.99);
        assert!(v > 0.0, "zeta not minimal: violation {v}");
    }

    #[test]
    fn sampled_is_lower_bound_of_exact() {
        let s = DecaySpace::from_fn(10, |i, j| ((i * 13 + j * 5) % 17 + 1) as f64).unwrap();
        let exact = metricity(&s).zeta;
        let sampled = metricity_sampled(&s, 2000, 42).zeta;
        assert!(sampled <= exact + 1e-9);
        // With many samples on a tiny space we should get close.
        assert!(sampled >= 0.5 * exact, "sampled={sampled} exact={exact}");
    }

    #[test]
    fn sampled_deterministic_in_seed() {
        let s = DecaySpace::from_fn(8, |i, j| ((i * 3 + j) % 7 + 1) as f64).unwrap();
        let a = metricity_sampled(&s, 500, 7).zeta;
        let b = metricity_sampled(&s, 500, 7).zeta;
        assert_eq!(a, b);
    }

    #[test]
    fn phi_on_triangle_inequality_space_is_at_most_zero() {
        // Plain metric (alpha = 1): f satisfies triangle inequality, so
        // varphi <= 1 and phi <= 0.
        let s = geo_line(&[0.0, 1.0, 2.0, 4.0], 1.0);
        let p = phi_metricity(&s);
        assert!(p.varphi <= 1.0 + 1e-12);
        assert!(p.phi <= 1e-12);
    }

    #[test]
    fn phi_le_zeta_holds() {
        // Section 4.2: varphi <= 2^zeta, i.e. phi <= zeta.
        for alpha in [1.0, 2.0, 4.0] {
            let s = geo_line(&[0.0, 1.0, 2.0, 3.0, 5.0], alpha);
            let m = metricity(&s);
            let p = phi_metricity(&s);
            assert!(
                p.phi <= m.zeta + 1e-9,
                "phi={} zeta={} alpha={alpha}",
                p.phi,
                m.zeta
            );
            assert!(p.varphi <= 2.0_f64.powf(m.zeta) + 1e-9);
        }
    }

    #[test]
    fn phi_gap_instance_from_paper() {
        // f_ab = 1, f_bc = q, f_ac = 2q: phi bounded, zeta grows ~ log q / log log q.
        let q = 1e6;
        let s = DecaySpace::from_matrix(
            3,
            vec![
                0.0,
                1.0,
                2.0 * q, //
                1.0,
                0.0,
                q, //
                2.0 * q,
                q,
                0.0,
            ],
        )
        .unwrap();
        let p = phi_metricity(&s);
        let m = metricity(&s);
        assert!(p.varphi <= 2.0 + 1e-12, "varphi = {}", p.varphi);
        assert!(m.zeta > 4.0, "zeta should be large, got {}", m.zeta);
    }

    #[test]
    fn phi_on_two_node_space_defaults() {
        let s = DecaySpace::from_matrix(2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let p = phi_metricity(&s);
        assert_eq!(p.varphi, 1.0);
        assert_eq!(p.phi, 0.0);
        assert!(p.witness.is_none());
    }
}
