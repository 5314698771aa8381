//! Decay-space storage backends.
//!
//! A [`DecaySpace`] is a dense row-major `n × n` matrix, which caps
//! experiments at a few thousand nodes (a million-node space would need
//! 8 TB). The engine instead talks to a [`DecayBackend`]: dense for
//! small spaces (a stored matrix, as slot runs use), [`LazyBackend`] (a
//! formula evaluated on demand, zero storage) for large ones.
//!
//! Backends also answer the *reachability* query that makes event-driven
//! reception resolution cheap: [`DecayBackend::reach_at`] enumerates the
//! nodes a transmission could plausibly reach, each with the decay it
//! was filtered on. Dense and generic lazy backends answer by scanning a
//! row; a [`LazyBackend`] whose decay comes from positions can install a
//! *neighbor hint* — a spatial query over the point set, such as
//! `decay-scenario`'s bucket grid behind every named topology —
//! answering in `O(k)`: the difference between `O(n)` and `O(k)` work
//! per transmission at 100k+ nodes.
//!
//! # Ownership
//!
//! A backend is owned by one engine, and so by one run at a time: the
//! traits ask for `Send` (a parked session may resume on another
//! thread) but not `Sync`, since nothing shares a backend across
//! threads. A backend may therefore keep interior state in plain
//! `Cell`s — `decay-scenario`'s lazy point backend memoizes its powers
//! that way — provided its values stay a pure function of the pair, as
//! the trait contract below demands. The decay closure and neighbor
//! hint of a [`LazyBackend`] are boxed `Send` closures for the same
//! reason, so a lazy backend cannot be cloned; build another one.

use std::fmt;

use decay_core::{DecaySpace, NodeId};

use crate::event::Tick;

/// Read access to a (possibly never materialized) decay space.
///
/// Implementations must be deterministic: `decay(p, q)` must always
/// return the same value for the same pair, and must satisfy the decay
/// space contract of [`decay_core::DecaySpace`] — finite, strictly
/// positive off the diagonal, zero on it.
///
/// # Time
///
/// A backend may be *temporal*: [`Self::decay_at`] takes the current
/// tick, and the engine routes every hot-path decay evaluation through
/// it. Static backends (everything in this module) ignore the tick via
/// the default implementations, so a frozen gain matrix stays exactly as
/// cheap as before; `decay-channel` supplies time-varying implementations
/// (mobility, shadowing, fading, trace replay) that override them.
/// Temporal implementations must still be deterministic *per tick*:
/// `decay_at(t, p, q)` is a pure function of `(t, p, q)`.
pub trait DecayBackend: Send {
    /// Number of nodes in the space.
    fn len(&self) -> usize;

    /// Whether the space has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The decay `f(from, to)`.
    fn decay(&self, from: NodeId, to: NodeId) -> f64;

    /// The decay `f_t(from, to)` at tick `tick`. Static backends ignore
    /// the tick; temporal backends (see `decay-channel`) evaluate the
    /// instantaneous gain field.
    fn decay_at(&self, tick: Tick, from: NodeId, to: NodeId) -> f64 {
        let _ = tick;
        self.decay(from, to)
    }

    /// The fused reach query at tick `tick`: appends to `out` every
    /// `(z, f_t(from, z))` with `z ≠ from` and `f_t(from, z) ≤ reach`
    /// (every other node when `reach` is `None`), once each in
    /// ascending node order, carrying the exact decay each receiver was
    /// filtered on.
    ///
    /// Each decay must equal [`Self::decay_at`]`(tick, from, z)` bit for
    /// bit, so callers consume it in place of a second lookup — in the
    /// decay-space model `f` is the only primitive, and the engine's
    /// SINR resolve evaluates it once per pair this way.
    ///
    /// The default scans the whole row (`O(n)` [`Self::decay_at`]
    /// evaluations), which suits dense backends. Structured
    /// backends override it — see [`LazyBackend::with_neighbor_hint`] —
    /// and temporal backends answer from per-block caches.
    fn reach_at(&self, tick: Tick, from: NodeId, reach: Option<f64>, out: &mut Vec<(NodeId, f64)>) {
        scan_row(self, tick, from, reach, 0..self.len(), out);
    }

    /// The static view's receiver ids: [`Self::reach_at`] at tick 0,
    /// decays dropped. Deployment-time computations (broadcast
    /// neighborhoods, reach windows of a temporal channel's base) use
    /// it.
    fn potential_receivers(&self, from: NodeId, reach: Option<f64>) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.reach_at(0, from, reach, &mut out);
        // Borrowing copies into an exact-size list; collecting by value
        // would keep the pairs' twice-as-large allocation.
        out.iter().map(|&(v, _)| v).collect()
    }

    /// Moves the backend's tick-scoped view to `tick`. The engine calls
    /// it once per resolution round, before the reach scans, so a
    /// temporal backend can cache the current coherence block as plain
    /// owned state. Queries for any other tick stay exact; the view only
    /// decides what is cached. Static backends ignore it.
    fn advance_to(&mut self, tick: Tick) {
        let _ = tick;
    }

    /// The raw candidate window a structured neighbor hint yields for
    /// `(from, reach)`, *unfiltered* by this backend's decay — `None`
    /// when the backend has no structural hint installed.
    ///
    /// [`Self::reach_at`] filters its hint window against this
    /// backend's own decay; callers that re-filter against a
    /// *different* field — a temporal channel widening the window
    /// conservatively before testing the instantaneous decays — use
    /// this to skip that redundant base pass. Results may include
    /// `from`, duplicates, or out-of-range indices; callers sanitize.
    fn hint_candidates(&self, from: NodeId, reach: f64) -> Option<Vec<NodeId>> {
        let _ = (from, reach);
        None
    }

    /// A fingerprint of the backend's *channel* configuration: 0 for
    /// every static backend, a hash of the channel parameters for
    /// temporal ones. Checkpoints record it (format v3) and
    /// [`crate::Engine::restore`] refuses a backend whose signature does
    /// not match — catching the silent bug of resuming a run under a
    /// different channel than it was snapshotted under.
    fn channel_signature(&self) -> u64 {
        0
    }

    /// The backend's own hot-path telemetry sink, when it keeps one
    /// (temporal adapters count row builds/hits and block-view traffic
    /// here). `None` for backends that track nothing — the static
    /// backends in this module stay untouched. Telemetry is strictly
    /// observational: reading the sink must never affect decay values
    /// or reach sets.
    fn telemetry(&self) -> Option<&decay_core::telemetry::Counters> {
        None
    }
}

/// Appends `(z, decay_at(tick, from, z))` for each candidate `z ≠ from`
/// whose decay is within `reach`: the row scan behind the default
/// [`DecayBackend::reach_at`] and the lazy backend's hint windows.
fn scan_row<B: DecayBackend + ?Sized>(
    backend: &B,
    tick: Tick,
    from: NodeId,
    reach: Option<f64>,
    candidates: impl Iterator<Item = usize>,
    out: &mut Vec<(NodeId, f64)>,
) {
    for j in candidates.filter(|&j| j != from.index()) {
        let to = NodeId::new(j);
        let d = backend.decay_at(tick, from, to);
        if reach.is_none_or(|r| d <= r) {
            out.push((to, d));
        }
    }
}

/// Boxed backends forward, so heterogeneous call sites (a scenario spec
/// choosing its backend at runtime) can hand the engine a
/// `Box<dyn DecayBackend>` directly.
///
/// Every method — including the default-overridable ones — forwards to
/// the inner implementation, so boxing can never silently discard a
/// specialized override (a temporal `decay_at`, a structured
/// `reach_at`, a channel signature).
impl<T: DecayBackend + ?Sized> DecayBackend for Box<T> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn decay(&self, from: NodeId, to: NodeId) -> f64 {
        (**self).decay(from, to)
    }

    fn decay_at(&self, tick: Tick, from: NodeId, to: NodeId) -> f64 {
        (**self).decay_at(tick, from, to)
    }

    fn potential_receivers(&self, from: NodeId, reach: Option<f64>) -> Vec<NodeId> {
        (**self).potential_receivers(from, reach)
    }

    fn reach_at(&self, tick: Tick, from: NodeId, reach: Option<f64>, out: &mut Vec<(NodeId, f64)>) {
        (**self).reach_at(tick, from, reach, out);
    }

    fn advance_to(&mut self, tick: Tick) {
        (**self).advance_to(tick);
    }

    fn hint_candidates(&self, from: NodeId, reach: f64) -> Option<Vec<NodeId>> {
        (**self).hint_candidates(from, reach)
    }

    fn channel_signature(&self) -> u64 {
        (**self).channel_signature()
    }

    fn telemetry(&self) -> Option<&decay_core::telemetry::Counters> {
        (**self).telemetry()
    }
}

/// A dense backend wrapping a fully materialized [`DecaySpace`].
///
/// `O(n²)` storage, `O(1)` lookups — the right choice below a few
/// thousand nodes and the semantics-preserving bridge from every existing
/// `decay-netsim` experiment.
#[derive(Debug, Clone)]
pub struct DenseBackend {
    space: DecaySpace,
}

impl DenseBackend {
    /// Wraps a materialized decay space.
    pub fn new(space: DecaySpace) -> Self {
        DenseBackend { space }
    }

    /// The wrapped space.
    pub fn space(&self) -> &DecaySpace {
        &self.space
    }
}

impl From<DecaySpace> for DenseBackend {
    fn from(space: DecaySpace) -> Self {
        DenseBackend::new(space)
    }
}

impl DecayBackend for DenseBackend {
    fn len(&self) -> usize {
        self.space.len()
    }

    fn decay(&self, from: NodeId, to: NodeId) -> f64 {
        self.space.decay(from, to)
    }
}

/// The decay generator of a lazy backend. It is owned by
/// one backend and only needs `Send`, so it may keep private interior
/// state (a [`std::cell::Cell`] memo, say) as long as its values stay a
/// pure function of the pair.
pub type DecayFn = Box<dyn Fn(usize, usize) -> f64 + Send>;

/// A neighbor hint: given a node index and a reach, return the candidate
/// receiver indices (superset allowed; the engine re-filters by decay).
pub type NeighborFn = Box<dyn Fn(usize, f64) -> Vec<usize> + Send>;

/// A lazy backend: decays are computed on demand from a function and
/// never stored. Zero bytes per pair — the backend of choice for
/// million-node spaces whose decay has a formula (geometric deployments,
/// stochastic urban models, synthetic hardness families).
pub struct LazyBackend {
    n: usize,
    f: DecayFn,
    neighbors: Option<NeighborFn>,
}

impl LazyBackend {
    /// Creates a lazy backend over `n` nodes computing `f(i, j)` on
    /// demand. The diagonal is forced to zero regardless of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`. Off-diagonal values returned by `f` must be
    /// finite and strictly positive; this is checked with
    /// `debug_assert!` on every evaluation (checking eagerly would defeat
    /// the point of never materializing the matrix).
    pub fn from_fn<F>(n: usize, f: F) -> Self
    where
        F: Fn(usize, usize) -> f64 + Send + 'static,
    {
        assert!(n > 0, "a decay space needs at least one node");
        LazyBackend {
            n,
            f: Box::new(f),
            neighbors: None,
        }
    }

    /// Installs a neighbor hint, replacing the `O(n)` row scan in
    /// [`DecayBackend::reach_at`] with an `O(k)` candidate query. Hints
    /// come from where the nodes are, not from how they are numbered:
    /// a spatial index over the deployment answers any point set, and an
    /// index-range window serves only layouts whose ids follow position.
    ///
    /// The hint may over-approximate (extra candidates are filtered by
    /// decay, and each kept receiver carries the decay it was filtered
    /// on) but must never omit a node within reach, or deliveries will
    /// silently be lost. Repeated or unordered indices are allowed and
    /// cost a sort; strictly ascending output is used as is.
    #[must_use]
    pub fn with_neighbor_hint<F>(mut self, hint: F) -> Self
    where
        F: Fn(usize, f64) -> Vec<usize> + Send + 'static,
    {
        self.neighbors = Some(Box::new(hint));
        self
    }
}

impl fmt::Debug for LazyBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazyBackend")
            .field("n", &self.n)
            .field("neighbor_hint", &self.neighbors.is_some())
            .finish_non_exhaustive()
    }
}

impl DecayBackend for LazyBackend {
    fn len(&self) -> usize {
        self.n
    }

    fn decay(&self, from: NodeId, to: NodeId) -> f64 {
        assert!(from.index() < self.n && to.index() < self.n);
        if from == to {
            return 0.0;
        }
        let v = (self.f)(from.index(), to.index());
        debug_assert!(
            v.is_finite() && v > 0.0,
            "lazy decay f({}, {}) = {v} violates the decay-space contract",
            from.index(),
            to.index()
        );
        v
    }

    fn hint_candidates(&self, from: NodeId, reach: f64) -> Option<Vec<NodeId>> {
        self.neighbors.as_ref().map(|hint| {
            hint(from.index(), reach)
                .into_iter()
                .filter(|&j| j < self.n)
                .map(NodeId::new)
                .collect()
        })
    }

    fn reach_at(&self, tick: Tick, from: NodeId, reach: Option<f64>, out: &mut Vec<(NodeId, f64)>) {
        match (&self.neighbors, reach) {
            (Some(hint), Some(r)) => {
                // A hint may repeat or reorder indices; a repeated
                // receiver would count its own transmitter as
                // interference, so sanitize unless already ascending.
                let mut window = hint(from.index(), r);
                if !window.is_sorted_by(|a, b| a < b) {
                    window.sort_unstable();
                    window.dedup();
                }
                let window = window.into_iter().filter(|&j| j < self.n);
                scan_row(self, tick, from, reach, window, out);
            }
            _ => scan_row(self, tick, from, reach, 0..self.n, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_fn(i: usize, j: usize) -> f64 {
        ((i as f64) - (j as f64)).abs().powi(2)
    }

    #[test]
    fn dense_matches_space() {
        let space = DecaySpace::from_fn(5, line_fn).unwrap();
        let b = DenseBackend::new(space.clone());
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(
                    b.decay(NodeId::new(i), NodeId::new(j)),
                    space.decay(NodeId::new(i), NodeId::new(j))
                );
            }
        }
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
    }

    #[test]
    fn lazy_matches_dense_without_storing() {
        let b = LazyBackend::from_fn(100, line_fn);
        assert_eq!(b.decay(NodeId::new(3), NodeId::new(7)), 16.0);
        assert_eq!(b.decay(NodeId::new(7), NodeId::new(7)), 0.0);
    }

    #[test]
    fn lazy_scales_to_a_million_nodes() {
        // The whole point: no O(n²) allocation happens here.
        let b = LazyBackend::from_fn(1_000_000, line_fn);
        assert_eq!(b.len(), 1_000_000);
        assert_eq!(
            b.decay(NodeId::new(999_999), NodeId::new(0)),
            (999_999.0_f64).powi(2)
        );
    }

    #[test]
    fn potential_receivers_respects_reach() {
        let b = LazyBackend::from_fn(10, line_fn);
        let within = b.potential_receivers(NodeId::new(5), Some(4.0));
        // Distance ≤ 2 at alpha = 2.
        assert_eq!(
            within,
            vec![3, 4, 6, 7]
                .into_iter()
                .map(NodeId::new)
                .collect::<Vec<_>>()
        );
        let all = b.potential_receivers(NodeId::new(5), None);
        assert_eq!(all.len(), 9);
        // The default row scan (dense) carries the decays it filtered on.
        let dense = DenseBackend::new(DecaySpace::from_fn(10, line_fn).unwrap());
        let mut out = Vec::new();
        dense.reach_at(0, NodeId::new(5), Some(4.0), &mut out);
        let want = [(3, 4.0), (4, 1.0), (6, 1.0), (7, 4.0)].map(|(j, d)| (NodeId::new(j), d));
        assert_eq!(out, want);
    }

    #[test]
    fn neighbor_hint_filters_and_matches_scan() {
        let scan = LazyBackend::from_fn(50, line_fn);
        let hinted = LazyBackend::from_fn(50, line_fn).with_neighbor_hint(|i, r| {
            let w = r.sqrt().ceil() as usize;
            (i.saturating_sub(w)..=(i + w).min(49)).collect()
        });
        // Unordered, repeated, out-of-range and self indices: the scan
        // sanitizes them to the same set.
        let messy = LazyBackend::from_fn(50, line_fn).with_neighbor_hint(|i, r| {
            let w = r.sqrt().ceil() as usize;
            let window: Vec<usize> = (i.saturating_sub(w)..=i + w).collect();
            window.iter().rev().chain(&window).copied().collect()
        });
        let reach_of = |b: &LazyBackend, i: usize| {
            let mut out = Vec::new();
            b.reach_at(3, NodeId::new(i), Some(9.0), &mut out);
            out
        };
        for i in [0usize, 10, 49] {
            let want = reach_of(&scan, i);
            assert!(!want.is_empty());
            assert_eq!(want, reach_of(&hinted, i), "node {i}");
            assert_eq!(want, reach_of(&messy, i), "node {i}");
        }
    }

    /// A backend overriding every default-overridable method, to pin the
    /// boxed-forwarding contract. `decay` reads back the last
    /// `advance_to` tick, so a lost forward shows through `&self`.
    struct Specialized {
        view: Tick,
    }

    impl DecayBackend for Specialized {
        fn len(&self) -> usize {
            3
        }
        fn is_empty(&self) -> bool {
            true // deliberately inconsistent with len(): detects defaulting
        }
        fn decay(&self, _from: NodeId, _to: NodeId) -> f64 {
            1.0 + self.view as f64
        }
        fn advance_to(&mut self, tick: Tick) {
            self.view = tick;
        }
        fn decay_at(&self, tick: Tick, _from: NodeId, _to: NodeId) -> f64 {
            (tick + 2) as f64
        }
        fn reach_at(
            &self,
            tick: Tick,
            _from: NodeId,
            _reach: Option<f64>,
            out: &mut Vec<(NodeId, f64)>,
        ) {
            out.push((NodeId::new(tick as usize), 0.5));
        }
        fn hint_candidates(&self, _from: NodeId, reach: f64) -> Option<Vec<NodeId>> {
            Some(vec![NodeId::new(reach as usize)])
        }
        fn channel_signature(&self) -> u64 {
            0xABCD
        }
    }

    #[test]
    fn boxing_preserves_every_override() {
        let mut boxed: Box<dyn DecayBackend> = Box::new(Specialized { view: 0 });
        assert_eq!(boxed.len(), 3);
        assert!(boxed.is_empty(), "is_empty override lost through Box");
        assert_eq!(boxed.decay(NodeId::new(0), NodeId::new(1)), 1.0);
        assert_eq!(
            boxed.decay_at(5, NodeId::new(0), NodeId::new(1)),
            7.0,
            "decay_at override lost through Box"
        );
        let mut out = Vec::new();
        boxed.reach_at(1, NodeId::new(0), None, &mut out);
        assert_eq!(
            out,
            vec![(NodeId::new(1), 0.5)],
            "reach_at override lost through Box"
        );
        assert_eq!(
            boxed.potential_receivers(NodeId::new(0), None),
            vec![NodeId::new(0)],
            "potential_receivers is reach_at at tick 0"
        );
        assert_eq!(
            boxed.hint_candidates(NodeId::new(0), 2.0),
            Some(vec![NodeId::new(2)]),
            "hint_candidates override lost through Box"
        );
        assert_eq!(boxed.channel_signature(), 0xABCD);
        boxed.advance_to(4);
        assert_eq!(
            boxed.decay(NodeId::new(0), NodeId::new(1)),
            5.0,
            "advance_to override lost through Box"
        );
        // Double boxing forwards too.
        let mut doubly: Box<Box<dyn DecayBackend>> = Box::new(boxed);
        assert_eq!(doubly.channel_signature(), 0xABCD);
        assert_eq!(doubly.decay_at(0, NodeId::new(0), NodeId::new(1)), 2.0);
        doubly.advance_to(7);
        assert_eq!(doubly.decay(NodeId::new(0), NodeId::new(1)), 8.0);
    }

    #[test]
    fn static_backends_ignore_the_tick() {
        let b = LazyBackend::from_fn(10, line_fn);
        for tick in [0, 7, 1_000_000] {
            assert_eq!(
                b.decay_at(tick, NodeId::new(2), NodeId::new(9)),
                b.decay(NodeId::new(2), NodeId::new(9))
            );
            let mut at = Vec::new();
            b.reach_at(tick, NodeId::new(5), Some(4.0), &mut at);
            let ids: Vec<NodeId> = at.iter().map(|&(v, _)| v).collect();
            assert_eq!(ids, b.potential_receivers(NodeId::new(5), Some(4.0)));
            assert!(at.iter().all(|&(v, d)| d == b.decay(NodeId::new(5), v)));
        }
        assert_eq!(b.channel_signature(), 0, "static backends have sig 0");
    }
}
