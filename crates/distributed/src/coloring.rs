//! Distributed (Δ+1)-coloring in the physical model ([67], one of the
//! annulus-argument protocols of the paper's Section 3.3).
//!
//! Nodes must end up with colors such that no two *neighbors* — nodes
//! within mutual decay `f_max` of each other — share a color, using only
//! physical-layer message passing over the decay space. The protocol is
//! the classic announce-and-yield scheme:
//!
//! 1. An uncolored node, with probability `p_send`, claims the smallest
//!    color it has not heard a neighbor claim and announces it; otherwise
//!    it listens.
//! 2. A colored node keeps announcing its color with probability `p_send`
//!    so late neighbors learn of it.
//! 3. On hearing a *neighbor* (inferred from received power) announce its
//!    own color, the node with the larger id yields: it drops its color
//!    and rejoins the uncolored pool.
//!
//! Once the coloring is proper no node ever yields again, so properness is
//! also stability. The analysis of [67] bounds the rounds via exactly the
//! annulus argument that Theorem 2 transfers: the protocol is oblivious to
//! the space and only its round count depends on the fading parameter `γ`.
//! Experiment E27 measures rounds and colors against `Δ + 1`.

use decay_core::{DecaySpace, NodeId};
use decay_engine::{Engine, EngineConfig, SlotAdapter, Tick};
use decay_netsim::{Action, NodeBehavior, SlotContext};
use decay_sinr::SinrParams;
use rand::Rng;

/// Parameters of a distributed coloring run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColoringConfig {
    /// Two nodes are neighbors iff both directed decays are at most this.
    pub f_max: f64,
    /// Per-slot announcement probability.
    pub p_send: f64,
    /// Uniform transmission power.
    pub power: f64,
    /// Give up after this many slots.
    pub max_slots: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ColoringConfig {
    fn default() -> Self {
        ColoringConfig {
            f_max: 100.0,
            p_send: 0.2,
            power: 1.0,
            max_slots: 50_000,
            seed: 1,
        }
    }
}

/// Outcome of a coloring run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringReport {
    /// Whether a proper coloring was reached within the slot cap.
    pub completed: bool,
    /// Slots used.
    pub slots: usize,
    /// Final color per node (`None` = still uncolored).
    pub colors: Vec<Option<usize>>,
    /// Number of distinct colors in use at the end.
    pub colors_used: usize,
    /// Maximum neighborhood size Δ of the neighbor graph.
    pub max_degree: usize,
}

/// The mutual-range neighbor graph: `u ~ v` iff
/// `max(f(u,v), f(v,u)) <= f_max`. Mutual range guarantees each side can
/// eventually hear the other, which the yield rule needs to terminate.
pub fn mutual_neighbor_graph(space: &DecaySpace, f_max: f64) -> Vec<Vec<usize>> {
    let n = space.len();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if space.pair_max(NodeId::new(i), NodeId::new(j)) <= f_max {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    adj
}

/// Whether `colors` properly colors the graph (all nodes colored, no
/// monochromatic edge).
pub fn is_proper_coloring(adj: &[Vec<usize>], colors: &[Option<usize>]) -> bool {
    colors.iter().all(Option::is_some)
        && adj
            .iter()
            .enumerate()
            .all(|(u, nbrs)| nbrs.iter().all(|&v| colors[u] != colors[v]))
}

struct ColoringNode {
    /// This node's own id (the yield rule compares ids).
    rank: usize,
    color: Option<usize>,
    /// Colors heard from neighbors (grow-only; a stale entry only wastes a
    /// color, never breaks properness).
    taken: Vec<bool>,
    p_send: f64,
    power: f64,
    f_max: f64,
}

impl ColoringNode {
    fn smallest_free(&self) -> usize {
        self.taken
            .iter()
            .position(|&t| !t)
            .unwrap_or(self.taken.len())
    }

    fn mark_taken(&mut self, color: usize) {
        if color >= self.taken.len() {
            self.taken.resize(color + 1, false);
        }
        self.taken[color] = true;
    }
}

impl NodeBehavior for ColoringNode {
    fn on_slot(&mut self, ctx: &mut SlotContext<'_>) -> Action {
        if ctx.rng.gen_range(0.0..1.0) >= self.p_send {
            return Action::Listen;
        }
        if self.color.is_none() {
            self.color = Some(self.smallest_free());
        }
        Action::Transmit {
            power: self.power,
            message: self.color.expect("just set") as u64,
        }
    }

    fn on_receive(&mut self, from: NodeId, message: u64, power: f64) {
        // Uniform power lets the receiver infer the decay from the RSSI;
        // announcements from beyond f_max concern other neighborhoods.
        let decay = self.power / power;
        if decay > self.f_max * (1.0 + 1e-9) {
            return;
        }
        let their_color = message as usize;
        self.mark_taken(their_color);
        // Yield rule: on a conflict, the larger id gives way.
        if self.color == Some(their_color) && from.index() < self.rank {
            self.color = None;
        }
    }
}

/// Runs the distributed coloring protocol.
///
/// # Panics
///
/// Panics on degenerate configs (non-positive `f_max`/`power`, `p_send`
/// outside `(0, 1]`, zero `max_slots`).
pub fn run_coloring(
    space: &DecaySpace,
    params: &SinrParams,
    config: &ColoringConfig,
) -> ColoringReport {
    assert!(config.f_max > 0.0, "f_max must be positive");
    assert!(
        config.p_send > 0.0 && config.p_send <= 1.0,
        "p_send must be in (0, 1]"
    );
    assert!(config.power > 0.0, "power must be positive");
    assert!(config.max_slots > 0, "need at least one slot");
    let n = space.len();
    let adj = mutual_neighbor_graph(space, config.f_max);
    let max_degree = adj.iter().map(Vec::len).max().unwrap_or(0);
    let behaviors: Vec<ColoringNode> = (0..n)
        .map(|i| ColoringNode {
            color: None,
            taken: Vec::new(),
            p_send: config.p_send,
            power: config.power,
            f_max: config.f_max,
            rank: i,
        })
        .collect();
    let mut engine = SlotAdapter::engine(
        space.clone(),
        behaviors,
        *params,
        EngineConfig::default(),
        config.seed,
    )
    .expect("behavior count matches node count");
    let colors_of = |engine: &Engine<SlotAdapter<ColoringNode>>| -> Vec<Option<usize>> {
        (0..n)
            .map(|i| engine.behavior(NodeId::new(i)).inner().color)
            .collect()
    };
    let (mut slots, mut completed) = (config.max_slots, false);
    for slot in 0..config.max_slots {
        engine.run_until(slot as Tick);
        if is_proper_coloring(&adj, &colors_of(&engine)) {
            (slots, completed) = (slot + 1, true);
            break;
        }
    }
    let colors = colors_of(&engine);
    let mut used: Vec<usize> = colors.iter().flatten().copied().collect();
    used.sort_unstable();
    used.dedup();
    ColoringReport {
        completed,
        slots,
        colors,
        colors_used: used.len(),
        max_degree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing: f64) -> DecaySpace {
        DecaySpace::from_fn(n, |i, j| {
            ((i as f64) - (j as f64)).abs().powi(2) * spacing * spacing
        })
        .unwrap()
    }

    #[test]
    fn neighbor_graph_respects_f_max() {
        let s = line(5, 1.0); // decays 1, 4, 9, 16
        let adj = mutual_neighbor_graph(&s, 4.0);
        assert_eq!(adj[0], vec![1, 2]);
        assert_eq!(adj[2], vec![0, 1, 3, 4]);
    }

    #[test]
    fn proper_coloring_predicate() {
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        assert!(is_proper_coloring(&adj, &[Some(0), Some(1), Some(0)]));
        assert!(!is_proper_coloring(&adj, &[Some(0), Some(0), Some(1)]));
        assert!(!is_proper_coloring(&adj, &[Some(0), None, Some(1)]));
    }

    #[test]
    fn line_network_gets_properly_colored() {
        let s = line(8, 1.0);
        let config = ColoringConfig {
            f_max: 4.0, // neighbors at distance 1 and 2
            ..Default::default()
        };
        let report = run_coloring(&s, &SinrParams::default(), &config);
        assert!(report.completed, "did not color in {} slots", report.slots);
        let adj = mutual_neighbor_graph(&s, config.f_max);
        assert!(is_proper_coloring(&adj, &report.colors));
        assert!(report.max_degree >= 2);
        // Announce-and-yield is not tightly (Δ+1); but it must stay within
        // a small factor on a line.
        assert!(
            report.colors_used <= report.max_degree + 2,
            "used {} colors for Δ = {}",
            report.colors_used,
            report.max_degree
        );
    }

    #[test]
    fn isolated_nodes_color_trivially() {
        let s = line(4, 100.0);
        let config = ColoringConfig {
            f_max: 4.0, // nobody is anybody's neighbor
            ..Default::default()
        };
        let report = run_coloring(&s, &SinrParams::default(), &config);
        assert!(report.completed);
        assert_eq!(report.max_degree, 0);
        // With no conflicts everyone takes color 0.
        assert_eq!(report.colors_used, 1);
    }

    #[test]
    fn deterministic_in_seed() {
        let s = line(6, 1.0);
        let config = ColoringConfig {
            f_max: 4.0,
            ..Default::default()
        };
        let a = run_coloring(&s, &SinrParams::default(), &config);
        let b = run_coloring(&s, &SinrParams::default(), &config);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "p_send must be in (0, 1]")]
    fn invalid_p_send_is_rejected() {
        let s = line(3, 1.0);
        run_coloring(
            &s,
            &SinrParams::default(),
            &ColoringConfig {
                p_send: 0.0,
                ..Default::default()
            },
        );
    }
}
