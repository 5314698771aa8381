//! Simple undirected graphs: the combinatorial side of the hardness
//! constructions (Theorems 3 and 6 reduce CAPACITY to MAX INDEPENDENT
//! SET).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An undirected graph on `n` vertices, dense adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// Row-major adjacency, symmetric, false diagonal.
    adj: Vec<bool>,
}

impl Graph {
    /// The empty graph on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn empty(n: usize) -> Self {
        assert!(n > 0, "graph must have at least one vertex");
        Graph {
            n,
            adj: vec![false; n * n],
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::empty(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// An Erdős–Rényi `G(n, p)` graph, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or `n == 0`.
    pub fn gnp(n: usize, p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "edge probability must be in [0, 1]"
        );
        let mut g = Graph::empty(n);
        let mut rng = StdRng::seed_from_u64(seed);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_range(0.0..1.0) < p {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        self.adj[u * self.n + v] = true;
        self.adj[v * self.n + u] = true;
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u * self.n + v]
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        (0..self.n)
            .map(|u| ((u + 1)..self.n).filter(|&v| self.has_edge(u, v)).count())
            .sum()
    }

    /// Whether `set` is an independent set.
    pub fn is_independent(&self, set: &[usize]) -> bool {
        for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                if self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// An exact maximum independent set for graphs of at most 64 vertices
    /// (branch and bound), or a greedy maximal one beyond that.
    pub fn max_independent_set(&self) -> Vec<usize> {
        if self.n <= 64 {
            let mut bits = vec![0_u64; self.n];
            for (u, mask) in bits.iter_mut().enumerate() {
                for v in 0..self.n {
                    if self.has_edge(u, v) {
                        *mask |= 1 << v;
                    }
                }
            }
            let full: u64 = if self.n == 64 { !0 } else { (1 << self.n) - 1 };
            let mut best = 0_u64;
            mis_recurse(&bits, full, 0, &mut best);
            (0..self.n).filter(|&i| best & (1 << i) != 0).collect()
        } else {
            // Greedy by ascending degree.
            let mut order: Vec<usize> = (0..self.n).collect();
            let deg = |u: usize| (0..self.n).filter(|&v| self.has_edge(u, v)).count();
            order.sort_by_key(|&u| deg(u));
            let mut set: Vec<usize> = Vec::new();
            for u in order {
                if set.iter().all(|&v| !self.has_edge(u, v)) {
                    set.push(u);
                }
            }
            set
        }
    }
}

fn mis_recurse(adj: &[u64], candidates: u64, current: u64, best: &mut u64) {
    if current.count_ones() + candidates.count_ones() <= best.count_ones() {
        return;
    }
    if candidates == 0 {
        if current.count_ones() > best.count_ones() {
            *best = current;
        }
        return;
    }
    // Branch on the highest-degree candidate for fast pruning.
    let mut pick = candidates.trailing_zeros() as usize;
    let mut maxdeg = (adj[pick] & candidates).count_ones();
    let mut c = candidates & (candidates - 1);
    while c != 0 {
        let v = c.trailing_zeros() as usize;
        c &= c - 1;
        let d = (adj[v] & candidates).count_ones();
        if d > maxdeg {
            pick = v;
            maxdeg = d;
        }
    }
    let bit = 1_u64 << pick;
    mis_recurse(adj, candidates & !bit & !adj[pick], current | bit, best);
    mis_recurse(adj, candidates & !bit, current, best);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_mis_is_one() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.max_independent_set().len(), 1);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn path_mis_alternates() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mis = g.max_independent_set();
        assert_eq!(mis.len(), 3);
        assert!(g.is_independent(&mis));
    }

    #[test]
    fn empty_graph_mis_is_everything() {
        let g = Graph::empty(7);
        assert_eq!(g.max_independent_set().len(), 7);
    }

    #[test]
    fn gnp_is_deterministic() {
        let a = Graph::gnp(12, 0.4, 9);
        let b = Graph::gnp(12, 0.4, 9);
        assert_eq!(a, b);
        assert!(a.edge_count() > 0);
        assert!(a.edge_count() < 12 * 11 / 2);
    }

    #[test]
    fn large_graph_uses_greedy() {
        let g = Graph::gnp(80, 0.1, 3);
        let mis = g.max_independent_set();
        assert!(g.is_independent(&mis));
        assert!(!mis.is_empty());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::empty(3);
        g.add_edge(1, 1);
    }
}
