//! The capacity hardness constructions (Theorem 3 and Theorem 6).
//!
//! Both reduce MAX INDEPENDENT SET to CAPACITY: a graph `G` becomes a set
//! of equal-decay links whose feasible subsets are exactly the independent
//! sets of `G`, even when the algorithm may use arbitrary power control
//! against a uniform-power adversary.
//!
//! **Reading note.** The arXiv text of Theorem 3 assigns decay `2` to edge
//! pairs and `1/n` to non-edge pairs. With decay defined as signal
//! *reduction* (gain `= 1/f`), those values invert the intended physics
//! (decay 2 would make interference half the unit signal, i.e. harmless).
//! We implement the construction with the roles corrected — edge pairs get
//! decay `1/2` (interference twice the signal), non-edge pairs decay `n`
//! (interference `1/n` of the signal) — which makes every claim in the
//! proof hold verbatim: edge pairs are infeasible under any power
//! assignment (`a_i(j)·a_j(i) ≥ β⁴/ (f_ij f_ji) · f_ii f_jj = 4β² > 1`),
//! non-edge sets are feasible under uniform power, and
//! `ζ ≤ lg(max/min) = lg 2n`.

use decay_core::{DecayError, DecaySpace, NodeId};
use decay_sinr::{Link, LinkId, LinkSet, SinrError};

use crate::graph::Graph;

/// A hardness instance: links over a decay space whose feasibility
/// structure mirrors a graph's independence structure.
#[derive(Debug, Clone, PartialEq)]
pub struct HardnessInstance {
    /// The decay space.
    pub space: DecaySpace,
    /// One link per graph vertex (link `i` ↔ vertex `i`).
    pub links: LinkSet,
    /// The source graph.
    pub graph: Graph,
}

impl HardnessInstance {
    /// The link ids corresponding to a vertex set.
    pub fn links_of(&self, vertices: &[usize]) -> Vec<LinkId> {
        vertices.iter().map(|&v| LinkId::new(v)).collect()
    }

    /// The optimum capacity of the instance: the size of a maximum
    /// independent set of the underlying graph (exact for ≤ 64 vertices).
    pub fn optimum(&self) -> usize {
        self.graph.max_independent_set().len()
    }
}

/// Errors from hardness-instance construction.
#[derive(Debug)]
pub enum HardnessError {
    /// Decay-space construction failed.
    Space(DecayError),
    /// Link-set construction failed.
    Links(SinrError),
}

impl std::fmt::Display for HardnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HardnessError::Space(e) => write!(f, "space construction failed: {e}"),
            HardnessError::Links(e) => write!(f, "link construction failed: {e}"),
        }
    }
}

impl std::error::Error for HardnessError {}

impl From<DecayError> for HardnessError {
    fn from(e: DecayError) -> Self {
        HardnessError::Space(e)
    }
}

impl From<SinrError> for HardnessError {
    fn from(e: SinrError) -> Self {
        HardnessError::Links(e)
    }
}

/// The Theorem 3 construction: unit-decay links, cross decays `1/2`
/// (edges) and `n` (non-edges); see the module docs for the sign
/// correction. Node `2i` is the sender and node `2i+1` the receiver of
/// link `i`.
///
/// # Errors
///
/// Propagates construction failures (cannot occur for valid graphs).
pub fn unit_decay_instance(graph: &Graph) -> Result<HardnessInstance, HardnessError> {
    let n = graph.len();
    let nf = n as f64;
    let space = DecaySpace::from_fn(2 * n, |a, b| {
        let (la, lb) = (a / 2, b / 2);
        if la == lb {
            1.0 // within-link decay (both directions)
        } else if graph.has_edge(la, lb) {
            0.5
        } else {
            nf
        }
    })?;
    let links: Vec<Link> = (0..n)
        .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
        .collect();
    let links = LinkSet::new(&space, links)?;
    Ok(HardnessInstance {
        space,
        links,
        graph: graph.clone(),
    })
}

/// The Theorem 6 two-line construction embedded in the plane, for an
/// arbitrary path-loss ceiling `alpha ≥ 1` (`α′ = α − 1`).
///
/// Senders sit at `(0, i)`, receivers at `(n, i)`. Same-line decays are
/// `|i − j|^{α′}`; cross-line decays are `n^{α′}` on the link itself,
/// `n^{α′} − delta` for edge pairs and `n^{α′+1}` for non-edge pairs.
/// The resulting space is doubling (`A ≤ 2`), has independence dimension
/// 3, and `ϕ = O(n)` — yet capacity equals MAX INDEPENDENT SET.
///
/// # Errors
///
/// Propagates construction failures (cannot occur for valid parameters).
///
/// # Panics
///
/// Panics unless `alpha >= 1` and `0 < delta < 0.5`.
pub fn two_line_instance(
    graph: &Graph,
    alpha: f64,
    delta: f64,
) -> Result<HardnessInstance, HardnessError> {
    assert!(alpha >= 1.0, "alpha must be at least 1");
    assert!(delta > 0.0 && delta < 0.5, "delta must be in (0, 1/2)");
    let n = graph.len();
    let nf = n as f64;
    let ap = alpha - 1.0;
    // Node 2i = sender s_i, node 2i+1 = receiver r_i.
    let space = DecaySpace::from_fn(2 * n, |a, b| {
        let (la, sa) = (a / 2, a % 2); // link index, side (0 = sender)
        let (lb, sb) = (b / 2, b % 2);
        if sa == sb {
            // Same line: geometric with exponent alpha'.
            let d = (la as f64 - lb as f64).abs();
            if d == 0.0 {
                0.0
            } else {
                d.powf(ap).max(1e-12)
            }
        } else if la == lb {
            nf.powf(ap)
        } else if graph.has_edge(la, lb) {
            nf.powf(ap) - delta
        } else {
            nf.powf(ap + 1.0)
        }
    })?;
    let links: Vec<Link> = (0..n)
        .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
        .collect();
    let links = LinkSet::new(&space, links)?;
    Ok(HardnessInstance {
        space,
        links,
        graph: graph.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::{metricity, phi_metricity};
    use decay_sinr::{AffectanceMatrix, PowerAssignment, SinrParams};

    fn all_subsets(n: usize) -> impl Iterator<Item = Vec<usize>> {
        (0u32..(1 << n)).map(move |mask| (0..n).filter(|&i| mask & (1 << i) != 0).collect())
    }

    fn feasibility_matches_independence(inst: &HardnessInstance) {
        let params = SinrParams::default();
        let powers = PowerAssignment::unit()
            .powers(&inst.space, &inst.links)
            .unwrap();
        let aff = AffectanceMatrix::build(&inst.space, &inst.links, &powers, &params).unwrap();
        for vs in all_subsets(inst.graph.len()) {
            let ids = inst.links_of(&vs);
            assert_eq!(
                aff.is_feasible(&ids),
                inst.graph.is_independent(&vs),
                "subset {vs:?}"
            );
        }
    }

    #[test]
    fn unit_decay_feasible_iff_independent() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let inst = unit_decay_instance(&g).unwrap();
        feasibility_matches_independence(&inst);
    }

    #[test]
    fn unit_decay_edges_resist_power_control() {
        // An edge pair must be infeasible under any power assignment: scan
        // power ratios over ten orders of magnitude.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let inst = unit_decay_instance(&g).unwrap();
        let params = SinrParams::default();
        let ids = [LinkId::new(0), LinkId::new(1)];
        for exp in -5..=5 {
            let ratio = 10f64.powi(exp);
            let powers = PowerAssignment::Custom(vec![1.0, ratio])
                .powers(&inst.space, &inst.links)
                .unwrap();
            let aff = AffectanceMatrix::build(&inst.space, &inst.links, &powers, &params).unwrap();
            assert!(!aff.is_feasible(&ids), "feasible at power ratio {ratio}");
        }
    }

    #[test]
    fn unit_decay_zeta_is_logarithmic() {
        for n in [8usize, 16, 32] {
            let g = Graph::gnp(n, 0.3, 5);
            let inst = unit_decay_instance(&g).unwrap();
            let z = metricity(&inst.space).zeta;
            let bound = (2.0 * n as f64).log2();
            assert!(z <= bound + 1e-9, "n={n}: zeta {z} > lg 2n {bound}");
            // The construction should also realize a zeta that grows
            // (edges + non-edges force a detour constraint).
            if inst.graph.edge_count() > 0 {
                assert!(z > 1.0, "n={n}: zeta {z}");
            }
        }
    }

    #[test]
    fn unit_decay_optimum_matches_graph_mis() {
        let g = Graph::gnp(10, 0.4, 2);
        let inst = unit_decay_instance(&g).unwrap();
        assert_eq!(inst.optimum(), g.max_independent_set().len());
    }

    #[test]
    fn two_line_feasible_iff_independent() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]);
        for alpha in [1.0, 2.0, 3.0] {
            let inst = two_line_instance(&g, alpha, 0.25).unwrap();
            feasibility_matches_independence(&inst);
        }
    }

    #[test]
    fn two_line_phi_is_linear_not_exponential() {
        for n in [6usize, 12, 24] {
            let g = Graph::gnp(n, 0.3, 7);
            let inst = two_line_instance(&g, 2.0, 0.25).unwrap();
            let p = phi_metricity(&inst.space);
            // varphi = O(n): generous constant 4.
            assert!(
                p.varphi <= 4.0 * n as f64,
                "n={n}: varphi {} too large",
                p.varphi
            );
        }
    }

    #[test]
    fn two_line_independence_dimension_is_small() {
        let g = Graph::gnp(8, 0.3, 3);
        let inst = two_line_instance(&g, 2.0, 0.25).unwrap();
        let ind = decay_core::independence_dimension(&inst.space);
        // Paper: independence dimension 3 (small slack for ties).
        assert!(ind.dimension() <= 4, "dimension = {}", ind.dimension());
    }

    #[test]
    fn two_line_is_doubling() {
        let g = Graph::gnp(10, 0.3, 4);
        let inst = two_line_instance(&g, 2.0, 0.25).unwrap();
        let a = decay_core::assouad_dimension_default(&inst.space);
        assert!(a.dimension <= 2.5, "A = {}", a.dimension);
    }
}
