//! Connectivity and aggregation over decay spaces (the paper's transfer
//! list cites Moscibroda–Wattenhofer [51] and Halldórsson–Mitra [34, 6]):
//! build a spanning aggregation tree in the induced quasi-metric and
//! schedule its links into feasible slots. The schedule length is the
//! "aggregation/connectivity" complexity of the instance.

use decay_core::{DecaySpace, NodeId, QuasiMetric};
use decay_sinr::{AffectanceMatrix, Link, LinkId, LinkSet, PowerAssignment, SinrError, SinrParams};

use crate::scheduling::{schedule_by_capacity, Schedule};

/// A spanning aggregation structure: every non-root node has one outgoing
/// link toward the root (following parent pointers reaches the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregationTree {
    /// The sink all data flows to.
    pub root: NodeId,
    /// One link per non-root node, sender = the node, receiver = parent.
    pub links: Vec<Link>,
}

impl AggregationTree {
    /// Number of tree links (`n − 1`).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the tree has no links (single-node spaces).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// Builds a shortest-connection spanning tree toward `root` by Prim's
/// algorithm in the induced quasi-metric (each node connects to its
/// nearest already-connected node). This is the standard aggregation
/// substrate: link lengths stay as short as the space allows, which is
/// what the scheduling analyses require.
pub fn aggregation_tree(quasi: &QuasiMetric, root: NodeId) -> AggregationTree {
    let n = quasi.len();
    assert!(root.index() < n, "root out of range");
    let mut in_tree = vec![false; n];
    in_tree[root.index()] = true;
    let mut links = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        // Nearest (node, parent) pair crossing the cut; ties by index for
        // determinism.
        let mut best: Option<(NodeId, NodeId, f64)> = None;
        for v in 0..n {
            if in_tree[v] {
                continue;
            }
            for (p, &p_in_tree) in in_tree.iter().enumerate() {
                if !p_in_tree {
                    continue;
                }
                let d = quasi.distance(NodeId::new(v), NodeId::new(p));
                let better = match best {
                    None => true,
                    Some((_, _, bd)) => d < bd,
                };
                if better {
                    best = Some((NodeId::new(v), NodeId::new(p), d));
                }
            }
        }
        let (v, p, _) = best.expect("graph is complete, a pair always exists");
        in_tree[v.index()] = true;
        links.push(Link::new(v, p));
    }
    AggregationTree { root, links }
}

/// Outcome of scheduling an aggregation tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregationSchedule {
    /// The tree that was scheduled.
    pub tree: AggregationTree,
    /// The feasible-slot schedule of its links.
    pub schedule: Schedule,
}

impl AggregationSchedule {
    /// The aggregation latency: number of slots.
    pub fn slots(&self) -> usize {
        self.schedule.len()
    }
}

/// Builds and schedules an aggregation tree on the decay space: tree by
/// Prim in the quasi-metric, slots by repeated capacity with the supplied
/// subroutine (e.g. Algorithm 1 or the greedy).
///
/// # Errors
///
/// Propagates power/affectance construction failures.
pub fn schedule_aggregation<F>(
    space: &DecaySpace,
    quasi: &QuasiMetric,
    params: &SinrParams,
    root: NodeId,
    mut capacity: F,
) -> Result<AggregationSchedule, SinrError>
where
    F: FnMut(&DecaySpace, &LinkSet, &AffectanceMatrix, &[LinkId]) -> Vec<LinkId>,
{
    let tree = aggregation_tree(quasi, root);
    let links = LinkSet::new(space, tree.links.clone())?;
    let powers = PowerAssignment::unit().powers(space, &links)?;
    let aff = AffectanceMatrix::build(space, &links, &powers, params)?;
    let all: Vec<LinkId> = links.ids().collect();
    let schedule = schedule_by_capacity(&aff, &all, |rem| capacity(space, &links, &aff, rem));
    Ok(AggregationSchedule { tree, schedule })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_affectance;
    use decay_core::metricity;

    fn grid_space(k: usize, alpha: f64) -> DecaySpace {
        DecaySpace::from_fn(k * k, |a, b| {
            let (xa, ya) = ((a % k) as f64, (a / k) as f64);
            let (xb, yb) = ((b % k) as f64, (b / k) as f64);
            ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt().powf(alpha)
        })
        .unwrap()
    }

    #[test]
    fn tree_spans_and_reaches_root() {
        let s = grid_space(4, 3.0);
        let quasi = QuasiMetric::from_space_with_exponent(&s, 3.0);
        let root = NodeId::new(5);
        let tree = aggregation_tree(&quasi, root);
        assert_eq!(tree.len(), 15);
        // Every non-root node appears exactly once as a sender.
        let mut senders: Vec<usize> = tree.links.iter().map(|l| l.sender.index()).collect();
        senders.sort();
        let expect: Vec<usize> = (0..16).filter(|&v| v != 5).collect();
        assert_eq!(senders, expect);
        // Following parents terminates at the root for every node.
        for start in 0..16 {
            let mut cur = NodeId::new(start);
            for _ in 0..=16 {
                if cur == root {
                    break;
                }
                cur = tree
                    .links
                    .iter()
                    .find(|l| l.sender == cur)
                    .expect("non-root node has a parent link")
                    .receiver;
            }
            assert_eq!(cur, root, "node {start} does not reach the root");
        }
    }

    #[test]
    fn tree_links_are_short() {
        // Prim in the quasi-metric: on a unit grid every tree link has
        // length 1 (nearest neighbor).
        let s = grid_space(3, 2.0);
        let quasi = QuasiMetric::from_space_with_exponent(&s, 2.0);
        let tree = aggregation_tree(&quasi, NodeId::new(0));
        for l in &tree.links {
            let d = quasi.distance(l.sender, l.receiver);
            assert!((d - 1.0).abs() < 1e-9, "tree link of length {d}");
        }
    }

    #[test]
    fn aggregation_schedule_is_feasible_and_complete() {
        let s = grid_space(4, 3.0);
        let zeta = metricity(&s).zeta_at_least_one();
        let quasi = QuasiMetric::from_space_with_exponent(&s, zeta);
        let params = SinrParams::default();
        let agg = schedule_aggregation(&s, &quasi, &params, NodeId::new(0), |sp, ls, aff, rem| {
            greedy_affectance(sp, ls, aff, Some(rem)).selected
        })
        .unwrap();
        assert_eq!(agg.schedule.scheduled(), 15);
        assert!(agg.schedule.dropped.is_empty());
        assert!(agg.slots() >= 2, "a 4x4 grid cannot aggregate in one slot");
        assert!(agg.slots() <= 15);
    }

    #[test]
    fn denser_grids_need_no_fewer_slots() {
        let params = SinrParams::default();
        let mut slots = Vec::new();
        for k in [3usize, 5] {
            let s = grid_space(k, 3.0);
            let quasi = QuasiMetric::from_space_with_exponent(&s, 3.0);
            let agg =
                schedule_aggregation(&s, &quasi, &params, NodeId::new(0), |sp, ls, aff, rem| {
                    greedy_affectance(sp, ls, aff, Some(rem)).selected
                })
                .unwrap();
            slots.push(agg.slots());
        }
        assert!(slots[1] >= slots[0], "slots: {slots:?}");
    }

    #[test]
    fn single_node_space_has_empty_tree() {
        let s = DecaySpace::from_matrix(2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let quasi = QuasiMetric::from_space_with_exponent(&s, 1.0);
        let tree = aggregation_tree(&quasi, NodeId::new(1));
        assert_eq!(tree.len(), 1);
        assert!(!tree.is_empty());
    }
}
