//! The temporal backend abstraction and its bridge into the engine.
//!
//! A [`TemporalBackend`] is a gain field quantized in time: decays are
//! constant within one *coherence block* of `block_len` ticks and may
//! change arbitrarily between blocks. The block structure is what keeps
//! the engine's hot path `O(active · k)`: reach candidate sets are only
//! recomputed when the block index changes, and within a block every
//! evaluation is as cheap as a static backend's.
//!
//! [`TemporalAdapter`] implements [`decay_engine::DecayBackend`] on top,
//! overriding the tick-aware methods (`decay_at`, `reach_at`,
//! `advance_to`, `channel_signature`) so an unmodified
//! [`decay_engine::Engine`] runs time-varying channels. The adapter's
//! *static* view (`decay`, `potential_receivers`) is the block-0 field
//! — what deployment-time computations (broadcast neighborhoods, link
//! viability) see.
//!
//! # Block views
//!
//! Per-block state lives in two owned [`BlockSnapshot`]s: the block-0
//! snapshot, kept for the adapter's lifetime, and the *current view*,
//! which the engine moves with [`DecayBackend::advance_to`] once per
//! resolution round. Interleaved static-view and tick-aware queries
//! (monitor sampling, deployment-time neighborhood checks mid-run)
//! therefore never invalidate each other's cache — the thrash that
//! once forced an `O(n)` rescan per call. A tick-aware query for any
//! other block is answered exactly and uncached. Within a snapshot,
//! each touched source gets one immutable row: ascending candidate ids
//! with their decays, built by one [`TemporalBackend::reach_row`] call
//! — the backend bounds, prunes and evaluates the row together, with
//! one epoch solve per row, not per pair. A backend without a
//! structural bound declines, and the row is a full one over all `n`
//! nodes from one batched [`TemporalBackend::decay_row_in_block`]
//! call. Reach queries hand the row's decays out with the receivers,
//! so the engine never looks a pair up again, and `decay_at` reads
//! (monitors, probes) are served from the same row: the backend
//! evaluates at most once per (block, pair) of the view.

use std::cell::OnceCell;
use std::fmt;

use decay_core::telemetry::{Counter, Counters, Timer};
use decay_core::NodeId;
use decay_engine::{DecayBackend, Tick};

use crate::draw::mix;

/// A deterministic gain field quantized into coherence blocks.
///
/// Implementations must be pure: `decay_in_block(b, p, q)` is a function
/// of `(b, p, q)` and the construction parameters alone, returning
/// finite, strictly positive values off the diagonal and 0 on it — the
/// [`decay_core::DecaySpace`] contract per block. Purity is what lets
/// checkpoints carry only a [`Self::signature`] instead of channel
/// state: a rebuilt channel with the same parameters replays the same
/// field.
pub trait TemporalBackend: Send {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// Whether the field has no nodes (never true for valid channels;
    /// for API completeness).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coherence block length in ticks (≥ 1).
    fn block_len(&self) -> Tick;

    /// The decay of `(from, to)` during coherence block `block`.
    fn decay_in_block(&self, block: u64, from: NodeId, to: NodeId) -> f64;

    /// The decays from `from` to each of `targets` during `block`, in
    /// order. Must agree bit-for-bit with per-pair
    /// [`Self::decay_in_block`] calls; the point of the method is
    /// *cost* — implementations with per-block derived state (mobility
    /// positions, shadowing fields) resolve it once for the whole row
    /// instead of once per pair. The default delegates pair by pair.
    fn decay_row_in_block(&self, block: u64, from: NodeId, targets: &[NodeId]) -> Vec<f64> {
        targets
            .iter()
            .map(|&to| self.decay_in_block(block, from, to))
            .collect()
    }

    /// A reach scan's row: ascending node ids other than `from`, with
    /// their decays during `block`. Every node whose decay from `from`
    /// is `≤ reach` must appear; others may (callers filter the row
    /// against `reach`). Each decay must equal
    /// [`Self::decay_in_block`] bit for bit. `None` means no structural
    /// bound exists and the caller evaluates a full row over all `n`
    /// nodes instead. The default declines.
    fn reach_row(&self, block: u64, from: NodeId, reach: f64) -> Option<(Vec<NodeId>, Vec<f64>)> {
        let _ = (block, from, reach);
        None
    }

    /// The channel-side telemetry sink the backend owns. The adapter
    /// counts row builds, row hits and block-view traffic here, and the
    /// backend times its own layers (the per-block epoch solve) into
    /// the same counters.
    fn telemetry(&self) -> &Counters;

    /// A non-zero fingerprint of the channel's configuration, recorded in
    /// engine checkpoints (format v3) and verified on restore.
    fn signature(&self) -> u64;
}

/// Folds key words into a non-zero channel signature (0 is reserved for
/// static backends).
pub(crate) fn signature_of(words: &[u64]) -> u64 {
    mix(words).max(1)
}

/// Reach-scan counters for one [`TemporalAdapter`] (cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Reach scans performed (row builds plus uncached scans for wide
    /// reaches and for blocks other than the current view) — at most
    /// one per (block, source) on the cached path.
    pub scans: u64,
    /// Exact decay evaluations across those scans: the length of the
    /// backend's [`TemporalBackend::reach_row`], not the hint-window
    /// width. Dividing by `scans` gives the
    /// mean row length; without structured hints it is `n`.
    pub pairs: u64,
}

/// One source's immutable per-block row cache.
struct SourceRow {
    /// Sorted candidate ids the row covers; `None` means every node
    /// (a dense row indexed by node).
    candidates: Option<Vec<NodeId>>,
    /// The largest reach the candidate window is valid for (`∞` for
    /// dense rows); queries beyond it bypass the row.
    window_reach: f64,
    /// Decays aligned with `candidates` (dense rows: indexed by node).
    decays: Vec<f64>,
}

impl SourceRow {
    /// The cached decay for `to`, if the row covers it.
    fn lookup(&self, from: NodeId, to: NodeId) -> Option<f64> {
        match &self.candidates {
            None => self.decays.get(to.index()).copied(),
            Some(c) => {
                if from == to {
                    return Some(0.0);
                }
                c.binary_search(&to).ok().map(|k| self.decays[k])
            }
        }
    }

    /// Appends the exact receivers for `reach` with their cached
    /// decays (ascending node order, matching a brute-force scan).
    fn extend_within(&self, from: NodeId, reach: f64, out: &mut Vec<(NodeId, f64)>) {
        let within = |&(v, d): &(NodeId, f64)| v != from && d <= reach;
        match &self.candidates {
            None => out.extend(
                (0..self.decays.len())
                    .map(|j| (NodeId::new(j), self.decays[j]))
                    .filter(within),
            ),
            Some(c) => out.extend(
                c.iter()
                    .copied()
                    .zip(self.decays.iter().copied())
                    .filter(within),
            ),
        }
    }
}

/// The per-block snapshot: one lazily built [`SourceRow`] per touched
/// source. Rows fill in exactly once through their `OnceCell`, so a
/// snapshot only grows through `&self` and a built row never changes.
struct BlockSnapshot {
    block: u64,
    rows: Box<[OnceCell<Box<SourceRow>>]>,
}

impl BlockSnapshot {
    fn empty(block: u64, n: usize) -> Self {
        BlockSnapshot {
            block,
            rows: (0..n).map(|_| OnceCell::new()).collect(),
        }
    }
}

/// Adapts a [`TemporalBackend`] to the engine's [`DecayBackend`].
///
/// Reach sets are exact per block — a scan against the instantaneous
/// field over the backend's reach row
/// ([`TemporalBackend::reach_row`], all `n` nodes when the
/// backend has no structural hint) — and cached in the snapshot of the
/// block-0 field or of the current view, so the scan cost amortizes
/// over `block_len` ticks of transmissions. The block-0 snapshot (the
/// static deployment view) is kept independently of the current view,
/// so interleaving static-view queries with tick-aware `reach_at` calls
/// never thrashes either cache.
pub struct TemporalAdapter {
    inner: Box<dyn TemporalBackend>,
    n: usize,
    /// The block-0 snapshot backing the static view.
    block0: BlockSnapshot,
    /// The current view, replaced by [`DecayBackend::advance_to`] when
    /// the block changes. It starts as a row-less block-0 placeholder:
    /// block-0 queries always go to `block0`.
    current: BlockSnapshot,
    /// All node ids in order, built once — unbounded-reach
    /// (`reach: None`) queries and unhinted scans (trace replay, say)
    /// evaluate their full rows over it. It is block-independent, so it
    /// lives beside the snapshots.
    all_nodes: OnceCell<Vec<NodeId>>,
}

/// Compile-time `Send` audit: the adapter is a `DecayBackend`, owned
/// by one run session at a time, and moves with that session when it
/// is parked and resumed on another thread. If a field regresses (an
/// `Rc` creeping in), this stops compiling.
fn _assert_adapter_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<TemporalAdapter>();
}

impl TemporalAdapter {
    /// Wraps a temporal backend.
    ///
    /// # Panics
    ///
    /// Panics if the backend declares a zero block length.
    pub fn new(inner: impl TemporalBackend + 'static) -> Self {
        assert!(inner.block_len() >= 1, "coherence block must be >= 1 tick");
        let n = inner.len();
        TemporalAdapter {
            inner: Box::new(inner),
            n,
            block0: BlockSnapshot::empty(0, n),
            current: BlockSnapshot::empty(0, 0),
            all_nodes: OnceCell::new(),
        }
    }

    /// The wrapped temporal backend.
    pub fn inner(&self) -> &dyn TemporalBackend {
        &*self.inner
    }

    /// The coherence block covering `tick`.
    pub fn block_of(&self, tick: Tick) -> u64 {
        tick / self.inner.block_len()
    }

    /// Cumulative reach-scan counters (diagnostic; see E39). A view
    /// over the backend's telemetry sink: `scans` is rows built,
    /// `pairs` the summed row lengths (exact evaluations).
    pub fn scan_stats(&self) -> ScanStats {
        ScanStats {
            scans: self.inner.telemetry().get(Counter::RowsBuilt),
            pairs: self.inner.telemetry().get(Counter::RowPairs),
        }
    }

    /// Every node id in order, built on first use.
    fn all_nodes(&self) -> &[NodeId] {
        self.all_nodes
            .get_or_init(|| (0..self.n).map(NodeId::new).collect())
    }

    /// The cached snapshot for `block`: the block-0 snapshot, or the
    /// current view when it is on `block`. `None` for any other block,
    /// which callers answer exactly and uncached.
    fn snapshot(&self, block: u64) -> Option<&BlockSnapshot> {
        if block == 0 {
            return Some(&self.block0);
        }
        self.inner.telemetry().add(Counter::EpochLoads, 1);
        (self.current.block == block).then_some(&self.current)
    }

    /// The decay of `(from, to)` in `snapshot`'s block: from the
    /// source's row when one is built and covers `to`, else straight
    /// from the field. Never builds a row.
    fn cached_decay(&self, snapshot: &BlockSnapshot, from: NodeId, to: NodeId) -> f64 {
        let row = snapshot.rows[from.index()].get();
        if let Some(d) = row.and_then(|row| row.lookup(from, to)) {
            self.inner.telemetry().add(Counter::RowHits, 1);
            return d;
        }
        self.inner.decay_in_block(snapshot.block, from, to)
    }

    /// Evaluates one reach row against the instantaneous field: the
    /// backend's own row, or a full row over all `n` nodes when it has
    /// none. The backend times its rows itself.
    fn scan(&self, block: u64, from: NodeId, reach: f64) -> SourceRow {
        let sink = self.inner.telemetry();
        let (candidates, window_reach, decays) = match self.inner.reach_row(block, from, reach) {
            Some((ids, decays)) => (Some(ids), reach, decays),
            None => {
                let timer = sink.timer_start();
                let decays = self.inner.decay_row_in_block(block, from, self.all_nodes());
                sink.timer_stop(Timer::RowBuild, timer);
                (None, f64::INFINITY, decays)
            }
        };
        sink.add(Counter::RowsBuilt, 1);
        sink.add(Counter::RowPairs, decays.len() as u64);
        SourceRow {
            candidates,
            window_reach,
            decays,
        }
    }

    /// The row for (`snapshot.block`, `from`), built on first touch;
    /// `None` when the existing row's window is too narrow for `reach`
    /// (the caller falls back to an uncached exact scan).
    fn row<'a>(
        &self,
        snapshot: &'a BlockSnapshot,
        from: NodeId,
        reach: f64,
    ) -> Option<&'a SourceRow> {
        let cell = &snapshot.rows[from.index()];
        // A *hit* is a lookup that did not run the build (hits =
        // lookups − builds), so both terms are fixed by the access
        // pattern alone.
        let mut built = false;
        let row = cell.get_or_init(|| {
            built = true;
            Box::new(self.scan(snapshot.block, from, reach))
        });
        if !built {
            self.inner.telemetry().add(Counter::RowHits, 1);
        }
        (reach <= row.window_reach).then_some(&**row)
    }

    fn reach_in_block(
        &self,
        block: u64,
        from: NodeId,
        reach: Option<f64>,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        let Some(r) = reach else {
            // Everyone but the source: one batched, uncached row (rows
            // cache reach windows, and a full row per source would hold
            // `O(n²)` memory).
            let all = self.all_nodes();
            let decays = self.inner.decay_row_in_block(block, from, all);
            out.extend(all.iter().copied().zip(decays).filter(|&(v, _)| v != from));
            return;
        };
        match self
            .snapshot(block)
            .and_then(|snapshot| self.row(snapshot, from, r))
        {
            Some(row) => row.extend_within(from, r, out),
            // Not the current view, or the cached row was built for a
            // narrower reach: answer exactly, cache nothing.
            None => self.scan(block, from, r).extend_within(from, r, out),
        }
    }
}

impl fmt::Debug for TemporalAdapter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemporalAdapter")
            .field("n", &self.inner.len())
            .field("block_len", &self.inner.block_len())
            .field("signature", &self.inner.signature())
            .field("scan_stats", &self.scan_stats())
            .finish_non_exhaustive()
    }
}

impl DecayBackend for TemporalAdapter {
    fn len(&self) -> usize {
        self.inner.len()
    }

    /// The block-0 field (the deployment-time static view).
    fn decay(&self, from: NodeId, to: NodeId) -> f64 {
        self.cached_decay(&self.block0, from, to)
    }

    fn decay_at(&self, tick: Tick, from: NodeId, to: NodeId) -> f64 {
        let block = self.block_of(tick);
        match self.snapshot(block) {
            Some(snapshot) => self.cached_decay(snapshot, from, to),
            None => self.inner.decay_in_block(block, from, to),
        }
    }

    fn reach_at(&self, tick: Tick, from: NodeId, reach: Option<f64>, out: &mut Vec<(NodeId, f64)>) {
        self.reach_in_block(self.block_of(tick), from, reach, out);
    }

    /// Moves the current view to `tick`'s block, starting an empty
    /// snapshot when the block changed. Block 0 is always served by the
    /// block-0 snapshot, so advancing there keeps the view as it is.
    fn advance_to(&mut self, tick: Tick) {
        let block = self.block_of(tick);
        if block != 0 && block != self.current.block {
            self.current = BlockSnapshot::empty(block, self.n);
            self.inner.telemetry().add(Counter::EpochSwaps, 1);
        }
    }

    fn channel_signature(&self) -> u64 {
        self.inner.signature()
    }

    fn telemetry(&self) -> Option<&Counters> {
        Some(self.inner.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Arc, Mutex};

    /// A toy field: decay |i - j|² scaled by (1 + block).
    struct Pulse {
        n: usize,
        sink: Counters,
    }

    fn pulse(n: usize) -> Pulse {
        Pulse {
            n,
            sink: Counters::new(),
        }
    }

    impl TemporalBackend for Pulse {
        fn len(&self) -> usize {
            self.n
        }
        fn block_len(&self) -> Tick {
            4
        }
        fn decay_in_block(&self, block: u64, from: NodeId, to: NodeId) -> f64 {
            if from == to {
                return 0.0;
            }
            let d = (from.index() as f64 - to.index() as f64).abs();
            d * d * (1.0 + block as f64)
        }
        fn telemetry(&self) -> &Counters {
            &self.sink
        }
        fn signature(&self) -> u64 {
            signature_of(&[0xD0, self.n as u64])
        }
    }

    /// `reach_at`'s receiver ids.
    fn reach_ids(a: &TemporalAdapter, tick: Tick, from: NodeId, reach: Option<f64>) -> Vec<NodeId> {
        let mut out = Vec::new();
        a.reach_at(tick, from, reach, &mut out);
        out.into_iter().map(|(v, _)| v).collect()
    }

    /// Evaluation counts per (block, from, to).
    type CallLedger = Arc<Mutex<BTreeMap<(u64, usize, usize), u64>>>;

    /// `Pulse` with an evaluation ledger: how often each (block, pair)
    /// was evaluated. The ledger is shared so the test keeps a handle
    /// after the backend moves into the adapter.
    struct CountingPulse {
        inner: Pulse,
        calls: CallLedger,
    }

    impl CountingPulse {
        fn new(n: usize) -> (Self, CallLedger) {
            let calls = Arc::new(Mutex::new(BTreeMap::new()));
            (
                CountingPulse {
                    inner: pulse(n),
                    calls: Arc::clone(&calls),
                },
                calls,
            )
        }
    }

    impl TemporalBackend for CountingPulse {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn block_len(&self) -> Tick {
            self.inner.block_len()
        }
        fn decay_in_block(&self, block: u64, from: NodeId, to: NodeId) -> f64 {
            *self
                .calls
                .lock()
                .unwrap()
                .entry((block, from.index(), to.index()))
                .or_insert(0) += 1;
            self.inner.decay_in_block(block, from, to)
        }
        fn telemetry(&self) -> &Counters {
            self.inner.telemetry()
        }
        fn signature(&self) -> u64 {
            self.inner.signature()
        }
    }

    #[test]
    fn adapter_maps_ticks_to_blocks() {
        let a = TemporalAdapter::new(pulse(8));
        let (x, y) = (NodeId::new(1), NodeId::new(3));
        assert_eq!(a.decay_at(0, x, y), 4.0);
        assert_eq!(a.decay_at(3, x, y), 4.0, "same block");
        assert_eq!(a.decay_at(4, x, y), 8.0, "next block");
        assert_eq!(a.decay(x, y), 4.0, "static view is block 0");
        assert_eq!(a.channel_signature(), pulse(8).signature());
        assert_ne!(a.channel_signature(), 0);
    }

    #[test]
    fn reach_sets_track_the_block() {
        let a = TemporalAdapter::new(pulse(10));
        let at0 = reach_ids(&a, 0, NodeId::new(5), Some(4.0));
        // Block 0: d² ≤ 4 ⇒ distance ≤ 2.
        assert_eq!(
            at0,
            vec![3, 4, 6, 7]
                .into_iter()
                .map(NodeId::new)
                .collect::<Vec<_>>()
        );
        // Block 3: 4·d² ≤ 4 ⇒ distance ≤ 1 — the field tightened.
        let at12 = reach_ids(&a, 12, NodeId::new(5), Some(4.0));
        assert_eq!(
            at12,
            vec![4, 6].into_iter().map(NodeId::new).collect::<Vec<_>>()
        );
        // Cached answer is identical on a repeat query, and carries
        // the block's decays.
        let mut carried = Vec::new();
        a.reach_at(13, NodeId::new(5), Some(4.0), &mut carried);
        assert_eq!(carried, vec![(NodeId::new(4), 4.0), (NodeId::new(6), 4.0)]);
        // No reach = everyone else, any block.
        assert_eq!(reach_ids(&a, 12, NodeId::new(5), None).len(), 9);
    }

    /// Interleaved block-0 (static view) and block-N (tick-aware) reach
    /// queries once shared a single-slot cache, so each call cleared
    /// the other's entries and forced a fresh `O(n)` scan. With the
    /// block-0 snapshot kept apart from the current view the backend is
    /// consulted at most once per (block, pair), however the calls
    /// interleave.
    #[test]
    fn interleaved_static_and_tick_queries_never_thrash() {
        let (backend, ledger) = CountingPulse::new(12);
        let mut a = TemporalAdapter::new(backend);
        let reach = Some(9.0);
        // Engine-shaped access: the view advances monotonically before
        // each tick's queries, with a static-view query — the
        // deployment-time check that used to clear the shared cache —
        // wedged between every pair of tick-aware queries.
        for tick in [4, 5, 8, 9, 12, 13, 40, 41] {
            a.advance_to(tick);
            for src in [0usize, 3, 7] {
                let from = NodeId::new(src);
                let at = reach_ids(&a, tick, from, reach);
                let fixed = a.potential_receivers(from, reach);
                assert_eq!(
                    at,
                    reach_ids(&a, tick, from, reach),
                    "tick {tick} src {src}"
                );
                assert_eq!(fixed, a.potential_receivers(from, reach));
            }
        }
        let calls = ledger.lock().unwrap();
        assert!(!calls.is_empty());
        for (&(block, i, j), &count) in calls.iter() {
            assert_eq!(
                count, 1,
                "decay_in_block({block}, {i}, {j}) evaluated {count} times"
            );
        }
        // Block 0 (the static view) plus blocks 1, 2, 3, 10 (ticks 4–41
        // at block_len 4) all appear.
        let blocks: BTreeSet<u64> = calls.keys().map(|&(b, _, _)| b).collect();
        assert!(blocks.contains(&0), "static view evaluated block 0");
        assert!(blocks.len() >= 4, "tick-aware queries spanned blocks");
        assert_eq!(
            a.inner().telemetry().get(Counter::EpochSwaps),
            4,
            "one per block"
        );
    }

    /// A query for a block other than the current view is answered
    /// exactly from the field: it caches no row, leaves the view's rows
    /// intact, and never moves the view.
    #[test]
    fn off_view_queries_are_exact_and_leave_the_view_alone() {
        let (backend, ledger) = CountingPulse::new(12);
        let mut a = TemporalAdapter::new(backend);
        let field = pulse(12);
        let (from, other, reach) = (NodeId::new(5), NodeId::new(2), 9.0);
        a.advance_to(8); // block 2
        let in_view = reach_ids(&a, 8, from, Some(reach));
        let in_view_decay = a.decay_at(9, from, NodeId::new(6));
        let swaps = a.inner().telemetry().get(Counter::EpochSwaps);
        // A later block (5) and an earlier one (1).
        for tick in [20, 4] {
            let block = a.block_of(tick);
            for src in [from, other] {
                let want: Vec<NodeId> = (0..12)
                    .map(NodeId::new)
                    .filter(|&to| to != src && field.decay_in_block(block, src, to) <= reach)
                    .collect();
                assert!(!want.is_empty());
                assert_eq!(reach_ids(&a, tick, src, Some(reach)), want);
                assert_eq!(
                    a.decay_at(tick, src, NodeId::new(6)),
                    field.decay_in_block(block, src, NodeId::new(6))
                );
            }
        }
        let built = |s: &BlockSnapshot| s.rows.iter().filter(|r| r.get().is_some()).count();
        assert_eq!(built(&a.current), 1, "only the in-view row is cached");
        assert_eq!(built(&a.block0), 0);
        assert_eq!(a.current.block, 2, "the view did not move");
        assert_eq!(a.inner().telemetry().get(Counter::EpochSwaps), swaps);
        // The view's row still answers from cache, evaluating nothing.
        let evaluated = ledger.lock().unwrap().clone();
        assert_eq!(reach_ids(&a, 9, from, Some(reach)), in_view);
        assert_eq!(a.decay_at(10, from, NodeId::new(6)), in_view_decay);
        assert_eq!(*ledger.lock().unwrap(), evaluated);
    }

    /// Unbounded-reach (`reach: None`) queries list every other node
    /// with its block's decay, without building a row.
    #[test]
    fn unbounded_reach_lists_every_node_without_a_row() {
        let a = TemporalAdapter::new(pulse(64));
        let from = NodeId::new(9);
        for tick in [0, 400] {
            let mut out = Vec::new();
            a.reach_at(tick, from, None, &mut out);
            assert_eq!(out.len(), 63);
            assert!(out
                .iter()
                .all(|&(v, d)| v != from && d == a.decay_at(tick, from, v)));
        }
        assert_eq!(a.potential_receivers(from, None).len(), 63);
        assert_eq!(a.scan_stats().scans, 0, "reach: None never builds a row");
    }

    /// A wider reach than the cached row's window answers exactly
    /// without evicting the narrow row.
    #[test]
    fn wider_reach_bypasses_but_keeps_the_row() {
        struct Windowed(Counters);
        impl TemporalBackend for Windowed {
            fn len(&self) -> usize {
                10
            }
            fn block_len(&self) -> Tick {
                1
            }
            fn decay_in_block(&self, block: u64, from: NodeId, to: NodeId) -> f64 {
                pulse(10).decay_in_block(block, from, to)
            }
            fn reach_row(
                &self,
                block: u64,
                from: NodeId,
                reach: f64,
            ) -> Option<(Vec<NodeId>, Vec<f64>)> {
                let w = reach.sqrt().ceil() as usize + 1;
                let ids: Vec<NodeId> = (from.index().saturating_sub(w)..=(from.index() + w).min(9))
                    .map(NodeId::new)
                    .filter(|&to| to != from)
                    .collect();
                let decays = ids
                    .iter()
                    .map(|&to| self.decay_in_block(block, from, to))
                    .collect();
                Some((ids, decays))
            }
            fn telemetry(&self) -> &Counters {
                &self.0
            }
            fn signature(&self) -> u64 {
                signature_of(&[0xF1])
            }
        }
        let mut a = TemporalAdapter::new(Windowed(Counters::new()));
        a.advance_to(2);
        let from = NodeId::new(5);
        // Block 2 scales decays by 3: reach 3 ⇒ distance ≤ 1.
        let narrow = reach_ids(&a, 2, from, Some(3.0));
        assert_eq!(narrow, vec![NodeId::new(4), NodeId::new(6)]);
        // Reach 27 ⇒ distance ≤ 3, wider than the cached row's window.
        let wide = reach_ids(&a, 2, from, Some(27.0));
        assert_eq!(
            wide,
            vec![2, 3, 4, 6, 7, 8]
                .into_iter()
                .map(NodeId::new)
                .collect::<Vec<_>>()
        );
        // The narrow row still answers its own reach from cache.
        assert_eq!(reach_ids(&a, 2, from, Some(3.0)), narrow);
    }
}
