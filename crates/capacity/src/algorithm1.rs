//! Algorithm 1 of the paper: uniform-power CAPACITY in bounded-growth
//! decay spaces, `ζ^{O(1)}`-approximate (Theorem 5) — on the plane,
//! `O(α⁴)`, the first capacity approximation sub-exponential in `α`.
//!
//! ```text
//! X ← ∅
//! for l_v ∈ L in order of increasing f_vv:
//!     if l_v is ζ/2-separated from X and a_v(X) + a_X(v) ≤ 1/2:
//!         X ← X ∪ {l_v}
//! return S ← {l_v ∈ X : a_X(v) ≤ 1}
//! ```
//!
//! The insertion check bounds every pairwise affectance inside `X` by 1/2,
//! so no `min(1, ·)` cap ever binds and the returned `S` is genuinely
//! SINR-feasible.

use decay_core::{DecaySpace, QuasiMetric};
use decay_sinr::{is_link_separated_from, AffectanceMatrix, LinkId, LinkSet};

/// Outcome of a capacity algorithm run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityResult {
    /// The feasible set returned (`S` in the paper).
    pub selected: Vec<LinkId>,
    /// The intermediate admitted set (`X`); `selected ⊆ admitted`.
    pub admitted: Vec<LinkId>,
}

impl CapacityResult {
    /// Size of the returned feasible set.
    pub fn size(&self) -> usize {
        self.selected.len()
    }
}

/// Ablations of Algorithm 1: disable one ingredient at a time to measure
/// what each contributes (experiment E33).
///
/// The paper's insertion test has two halves — `ζ/2`-separation and the
/// affectance budget `a_v(X) + a_X(v) ≤ 1/2` — followed by a final filter
/// `a_X(v) ≤ 1`. The budget is what keeps every pairwise affectance below
/// 1/2 so the capped sums the filter reads are SINR-exact; without it the
/// filter can pass sets whose *raw* in-affectance exceeds 1 (an infeasible
/// "feasible" set). Without separation the output stays feasible but the
/// approximation argument of Theorem 5 (which charges rejected links to
/// separated admitted ones) no longer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm1Variant {
    /// The full algorithm as printed in the paper.
    Full,
    /// Skip the `ζ/2`-separation test (budget + filter only).
    WithoutSeparation,
    /// Skip the affectance budget (separation + filter only) — the filter
    /// then reads capped affectances and the output can be infeasible.
    WithoutBudget,
    /// Skip the final filter (return the admitted set `X` itself).
    WithoutFilter,
}

/// Runs Algorithm 1 on the candidate links (all links if `None`).
///
/// `quasi` must be the quasi-metric of the same space (its exponent is the
/// `ζ` used for the separation test).
pub fn algorithm1(
    space: &DecaySpace,
    links: &LinkSet,
    quasi: &QuasiMetric,
    aff: &AffectanceMatrix,
    candidates: Option<&[LinkId]>,
) -> CapacityResult {
    algorithm1_variant(
        space,
        links,
        quasi,
        aff,
        candidates,
        Algorithm1Variant::Full,
    )
}

/// Runs the chosen ablation of Algorithm 1 (see [`Algorithm1Variant`]).
pub fn algorithm1_variant(
    space: &DecaySpace,
    links: &LinkSet,
    quasi: &QuasiMetric,
    aff: &AffectanceMatrix,
    candidates: Option<&[LinkId]>,
    variant: Algorithm1Variant,
) -> CapacityResult {
    let zeta = quasi.zeta();
    let order: Vec<LinkId> = match candidates {
        Some(c) => {
            let mut c = c.to_vec();
            c.sort_by(|&a, &b| {
                links
                    .decay_of(space, a)
                    .partial_cmp(&links.decay_of(space, b))
                    .unwrap()
                    .then(a.index().cmp(&b.index()))
            });
            c
        }
        None => links.ids_by_decay(space),
    };
    let mut admitted: Vec<LinkId> = Vec::new();
    for v in order {
        if !aff.noise_factor(v).is_finite() {
            continue;
        }
        let separated = variant == Algorithm1Variant::WithoutSeparation
            || is_link_separated_from(quasi, links, v, &admitted, zeta / 2.0);
        let within_budget = variant == Algorithm1Variant::WithoutBudget
            || aff.out_affectance(v, &admitted) + aff.in_affectance(&admitted, v) <= 0.5;
        if separated && within_budget {
            admitted.push(v);
        }
    }
    let selected: Vec<LinkId> = if variant == Algorithm1Variant::WithoutFilter {
        admitted.clone()
    } else {
        admitted
            .iter()
            .copied()
            .filter(|&v| aff.in_affectance(&admitted, v) <= 1.0)
            .collect()
    };
    CapacityResult { selected, admitted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::{metricity, DecaySpace, NodeId};
    use decay_sinr::{Link, LinkSet, PowerAssignment, SinrParams};

    fn build(
        positions: &[(f64, f64)],
        pairs: &[(usize, usize)],
        alpha: f64,
    ) -> (DecaySpace, LinkSet, QuasiMetric, AffectanceMatrix) {
        let s = DecaySpace::from_fn(positions.len(), |i, j| {
            let (xi, yi) = positions[i];
            let (xj, yj) = positions[j];
            ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt().powf(alpha)
        })
        .unwrap();
        let links: Vec<Link> = pairs
            .iter()
            .map(|&(a, b)| Link::new(NodeId::new(a), NodeId::new(b)))
            .collect();
        let ls = LinkSet::new(&s, links).unwrap();
        let zeta = metricity(&s).zeta_at_least_one();
        let quasi = QuasiMetric::from_space_with_exponent(&s, zeta);
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        let aff = AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::default()).unwrap();
        (s, ls, quasi, aff)
    }

    /// m parallel unit links spaced gap apart on a line.
    fn parallel(
        m: usize,
        gap: f64,
        alpha: f64,
    ) -> (DecaySpace, LinkSet, QuasiMetric, AffectanceMatrix) {
        let mut pos = Vec::new();
        let mut pairs = Vec::new();
        for i in 0..m {
            pos.push((i as f64 * gap, 0.0));
            pos.push((i as f64 * gap + 1.0, 0.0));
            pairs.push((2 * i, 2 * i + 1));
        }
        build(&pos, &pairs, alpha)
    }

    #[test]
    fn output_is_always_feasible() {
        for gap in [1.5, 3.0, 8.0, 30.0] {
            let (s, ls, quasi, aff) = parallel(10, gap, 2.0);
            let res = algorithm1(&s, &ls, &quasi, &aff, None);
            assert!(
                aff.is_feasible(&res.selected),
                "gap {gap}: infeasible output"
            );
            assert!(res.selected.len() <= res.admitted.len());
        }
    }

    #[test]
    fn well_separated_instance_is_fully_selected() {
        let (s, ls, quasi, aff) = parallel(8, 60.0, 2.0);
        let res = algorithm1(&s, &ls, &quasi, &aff, None);
        assert_eq!(res.size(), 8);
    }

    #[test]
    fn selected_at_least_half_of_admitted() {
        // Theorem 5's Markov step: |S| >= |X| / 2.
        for gap in [1.2, 2.0, 4.0] {
            let (s, ls, quasi, aff) = parallel(14, gap, 3.0);
            let res = algorithm1(&s, &ls, &quasi, &aff, None);
            assert!(
                2 * res.selected.len() >= res.admitted.len(),
                "gap {gap}: |S| = {}, |X| = {}",
                res.selected.len(),
                res.admitted.len()
            );
        }
    }

    #[test]
    fn candidate_restriction_is_respected() {
        let (s, ls, quasi, aff) = parallel(6, 40.0, 2.0);
        let cand = [LinkId::new(0), LinkId::new(3), LinkId::new(5)];
        let res = algorithm1(&s, &ls, &quasi, &aff, Some(&cand));
        assert_eq!(res.size(), 3);
        for v in &res.selected {
            assert!(cand.contains(v));
        }
    }

    #[test]
    fn processes_shortest_links_first() {
        // One short link surrounded by long ones: the short link must
        // survive (it is processed first and the long ones fail the
        // separation test against it, not vice versa).
        let pos = vec![
            (0.0, 0.0),
            (0.5, 0.0), // short link 0
            (1.2, 0.0),
            (9.0, 0.0), // long link 1 nearby
        ];
        let pairs = vec![(0, 1), (2, 3)];
        let (s, ls, quasi, aff) = build(&pos, &pairs, 2.0);
        let res = algorithm1(&s, &ls, &quasi, &aff, None);
        assert!(res.selected.contains(&LinkId::new(0)));
    }

    #[test]
    fn empty_candidates_give_empty_result() {
        let (s, ls, quasi, aff) = parallel(4, 10.0, 2.0);
        let res = algorithm1(&s, &ls, &quasi, &aff, Some(&[]));
        assert_eq!(res.size(), 0);
    }

    /// Two separated links whose mutual raw affectance exceeds 1 only
    /// because of the noise factor: the budget test is the sole defense.
    fn noise_trap() -> (DecaySpace, LinkSet, QuasiMetric, AffectanceMatrix) {
        let pos: [(f64, f64); 4] = [(0.0, 0.0), (1.0, 0.0), (2.2, 0.0), (3.2, 0.0)];
        let pairs = [(0, 1), (2, 3)];
        let s = DecaySpace::from_fn(pos.len(), |i, j| {
            let (xi, yi) = pos[i];
            let (xj, yj) = pos[j];
            ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt().powi(2)
        })
        .unwrap();
        let links: Vec<Link> = pairs
            .iter()
            .map(|&(a, b)| Link::new(NodeId::new(a), NodeId::new(b)))
            .collect();
        let ls = LinkSet::new(&s, links).unwrap();
        let zeta = metricity(&s).zeta_at_least_one();
        let quasi = QuasiMetric::from_space_with_exponent(&s, zeta);
        let powers = PowerAssignment::unit().powers(&s, &ls).unwrap();
        // Noise 0.5 doubles the noise factor c_v, pushing the pairwise raw
        // affectance above 1 while the links remain zeta/2-separated.
        let aff =
            AffectanceMatrix::build(&s, &ls, &powers, &SinrParams::new(1.0, 0.5).unwrap()).unwrap();
        (s, ls, quasi, aff)
    }

    #[test]
    fn without_budget_can_emit_infeasible_sets() {
        let (s, ls, quasi, aff) = noise_trap();
        let full = algorithm1_variant(&s, &ls, &quasi, &aff, None, Algorithm1Variant::Full);
        assert!(aff.is_feasible(&full.selected));
        assert_eq!(full.size(), 1, "the budget rejects the second link");
        let ablated = algorithm1_variant(
            &s,
            &ls,
            &quasi,
            &aff,
            None,
            Algorithm1Variant::WithoutBudget,
        );
        assert_eq!(ablated.size(), 2, "capped filter passes both links");
        assert!(
            !aff.is_feasible(&ablated.selected),
            "without the budget the output is genuinely infeasible"
        );
    }

    #[test]
    fn without_separation_stays_feasible() {
        for gap in [1.3, 2.0, 4.0] {
            let (s, ls, quasi, aff) = parallel(12, gap, 2.5);
            let res = algorithm1_variant(
                &s,
                &ls,
                &quasi,
                &aff,
                None,
                Algorithm1Variant::WithoutSeparation,
            );
            // The budget alone keeps caps from binding, so the filtered
            // output is still SINR-feasible.
            assert!(aff.is_feasible(&res.selected), "gap {gap}");
        }
    }

    #[test]
    fn without_filter_returns_admitted_verbatim() {
        let (s, ls, quasi, aff) = parallel(10, 1.6, 2.0);
        let res = algorithm1_variant(
            &s,
            &ls,
            &quasi,
            &aff,
            None,
            Algorithm1Variant::WithoutFilter,
        );
        assert_eq!(res.selected, res.admitted);
    }
}
