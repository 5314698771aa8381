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
//! overriding the tick-aware methods (`decay_at`,
//! `potential_receivers_at`, `advance_to`, `channel_signature`) so an
//! unmodified [`decay_engine::Engine`] runs time-varying channels. The
//! adapter's *static* view (`decay`, `potential_receivers`) is the
//! block-0 field — what deployment-time computations (broadcast
//! neighborhoods, link viability) see.
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
//! each touched source gets one immutable row: a dense decay cache over
//! the source's candidate window, built by a single batched
//! [`TemporalBackend::decay_row_in_block`] call (one epoch solve per
//! row, not per pair) and shared by reach queries and hot-path
//! `decay_at` lookups alike, so the backend evaluates at most once per
//! (block, pair) of the view.

use std::fmt;
use std::sync::OnceLock;

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
pub trait TemporalBackend: Send + Sync {
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

    /// A conservative candidate-receiver window for a reach scan: every
    /// node whose decay from `from` during `block` can possibly be
    /// `≤ reach` must appear (supersets, duplicates, and `from` itself
    /// are fine — callers re-filter against the exact field). `None`
    /// means no structural bound exists and the caller must scan all
    /// `n` nodes. The default declines.
    fn reach_candidates(&self, block: u64, from: NodeId, reach: f64) -> Option<Vec<NodeId>> {
        let _ = (block, from, reach);
        None
    }

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
    /// Exact decay evaluations across those scans: the candidates the
    /// backend's [`TemporalBackend::reach_candidates`] left after its
    /// bound, not the hint-window width. Dividing by `scans` gives the
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
    /// The first exact reach list materialized from this row, keyed by
    /// the reach bits (runs overwhelmingly use one reach value; other
    /// reaches re-filter `decays` without re-evaluating the field).
    list: OnceLock<(u64, Vec<NodeId>)>,
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

    /// The exact receiver list for `reach`, filtered from the cached
    /// decays (ascending node order, matching a brute-force scan).
    fn filter(&self, from: NodeId, reach: f64) -> Vec<NodeId> {
        match &self.candidates {
            None => (0..self.decays.len())
                .filter(|&j| j != from.index() && self.decays[j] <= reach)
                .map(NodeId::new)
                .collect(),
            Some(c) => c
                .iter()
                .zip(&self.decays)
                .filter(|&(_, &d)| d <= reach)
                .map(|(&v, _)| v)
                .collect(),
        }
    }
}

/// The per-block snapshot: one lazily built [`SourceRow`] per touched
/// source. Rows fill in exactly once through their `OnceLock`, so a
/// snapshot only grows through `&self` and a built row never changes.
struct BlockSnapshot {
    block: u64,
    rows: Box<[OnceLock<Box<SourceRow>>]>,
}

impl BlockSnapshot {
    fn empty(block: u64, n: usize) -> Self {
        BlockSnapshot {
            block,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// Adapts a [`TemporalBackend`] to the engine's [`DecayBackend`].
///
/// Reach sets are exact per block — a scan against the instantaneous
/// field over the backend's candidate window
/// ([`TemporalBackend::reach_candidates`], all `n` nodes when the
/// backend has no structural hint) — and cached in the snapshot of the
/// block-0 field or of the current view, so the scan cost amortizes
/// over `block_len` ticks of transmissions. The block-0 snapshot (the
/// static deployment view) is kept independently of the current view,
/// so interleaving `potential_receivers` with `potential_receivers_at`
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
    /// (`reach: None`) lists are sliced out of it per call (two
    /// memcpys around the source) instead of re-filtering `0..n`, and
    /// unhinted scans (trace replay, say) evaluate their full rows over
    /// it. It is block-independent, so it lives beside the snapshots.
    all_nodes: OnceLock<Vec<NodeId>>,
    /// Channel-side telemetry sink (row builds/hits, window widths,
    /// view traffic), surfaced through [`DecayBackend::telemetry`].
    /// Disjoint from the engine's counter set, so merged snapshots
    /// never double-count.
    telemetry: Counters,
}

/// Compile-time `Send + Sync` audit: the adapter is a `DecayBackend`
/// (`Send + Sync`) and moves between worker threads when a run session
/// is parked and resumed, so its cache (`OnceLock` rows, telemetry
/// sink) must be thread-safe. If a field regresses, this stops
/// compiling.
#[allow(dead_code)]
fn _assert_adapter_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TemporalAdapter>();
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
            all_nodes: OnceLock::new(),
            telemetry: Counters::new(),
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
    /// over the adapter's telemetry sink: `scans` is rows built,
    /// `pairs` the summed row lengths (exact evaluations).
    pub fn scan_stats(&self) -> ScanStats {
        ScanStats {
            scans: self.telemetry.get(Counter::RowsBuilt),
            pairs: self.telemetry.get(Counter::RowPairs),
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
        self.telemetry.add(Counter::EpochLoads, 1);
        (self.current.block == block).then_some(&self.current)
    }

    /// The decay of `(from, to)` in `snapshot`'s block: from the
    /// source's row when one is built and covers `to`, else straight
    /// from the field. Never builds a row.
    fn cached_decay(&self, snapshot: &BlockSnapshot, from: NodeId, to: NodeId) -> f64 {
        let row = snapshot.rows[from.index()].get();
        if let Some(d) = row.and_then(|row| row.lookup(from, to)) {
            self.telemetry.add(Counter::RowHits, 1);
            return d;
        }
        self.inner.decay_in_block(snapshot.block, from, to)
    }

    /// Evaluates one candidate window against the instantaneous field.
    fn scan(&self, block: u64, from: NodeId, reach: f64) -> SourceRow {
        let (candidates, window_reach) = match self.inner.reach_candidates(block, from, reach) {
            None => (None, f64::INFINITY),
            Some(mut c) => {
                c.retain(|&v| v != from && v.index() < self.n);
                c.sort_unstable();
                c.dedup();
                (Some(c), reach)
            }
        };
        let timer = self.telemetry.timer_start();
        let targets = candidates.as_deref().unwrap_or_else(|| self.all_nodes());
        let decays = self.inner.decay_row_in_block(block, from, targets);
        self.telemetry.timer_stop(Timer::RowBuild, timer);
        self.telemetry.add(Counter::RowsBuilt, 1);
        self.telemetry.add(Counter::RowPairs, decays.len() as u64);
        SourceRow {
            candidates,
            window_reach,
            decays,
            list: OnceLock::new(),
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
        // A *hit* is defined as "this lookup did not run the build"
        // (hits = lookups − builds) rather than "the row existed when we
        // first peeked". `get_or_init` runs the closure exactly once per
        // cell even when concurrent readers race, so both terms are
        // fixed by the access pattern alone.
        let mut built = false;
        let row = cell.get_or_init(|| {
            built = true;
            Box::new(self.scan(snapshot.block, from, reach))
        });
        if !built {
            self.telemetry.add(Counter::RowHits, 1);
        }
        (reach <= row.window_reach).then_some(&**row)
    }

    fn receivers_in_block(&self, block: u64, from: NodeId, reach: Option<f64>) -> Vec<NodeId> {
        let Some(r) = reach else {
            // Everyone but the source: slice the shared id list around
            // `from` (the trait returns an owned `Vec`, so one `O(n)`
            // allocation is unavoidable — but not an `O(n)` filter, and
            // not `O(n)` retained memory per source).
            let all = self.all_nodes();
            let mut out = Vec::with_capacity(self.n.saturating_sub(1));
            out.extend_from_slice(&all[..from.index()]);
            out.extend_from_slice(&all[from.index() + 1..]);
            return out;
        };
        let Some(snapshot) = self.snapshot(block) else {
            // Not the current view: answer exactly, cache nothing.
            return self.scan(block, from, r).filter(from, r);
        };
        match self.row(snapshot, from, r) {
            Some(row) => {
                if let Some((bits, list)) = row.list.get() {
                    if *bits == r.to_bits() {
                        return list.clone();
                    }
                }
                let list = row.filter(from, r);
                let _ = row.list.set((r.to_bits(), list.clone()));
                list
            }
            // The cached row was built for a narrower reach: answer
            // exactly without disturbing it.
            None => self.scan(block, from, r).filter(from, r),
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

    fn potential_receivers(&self, from: NodeId, reach: Option<f64>) -> Vec<NodeId> {
        self.receivers_in_block(0, from, reach)
    }

    fn potential_receivers_at(&self, tick: Tick, from: NodeId, reach: Option<f64>) -> Vec<NodeId> {
        self.receivers_in_block(self.block_of(tick), from, reach)
    }

    /// Moves the current view to `tick`'s block, starting an empty
    /// snapshot when the block changed. Block 0 is always served by the
    /// block-0 snapshot, so advancing there keeps the view as it is.
    fn advance_to(&mut self, tick: Tick) {
        let block = self.block_of(tick);
        if block != 0 && block != self.current.block {
            self.current = BlockSnapshot::empty(block, self.n);
            self.telemetry.add(Counter::EpochSwaps, 1);
        }
    }

    fn channel_signature(&self) -> u64 {
        self.inner.signature()
    }

    fn telemetry(&self) -> Option<&Counters> {
        Some(&self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// A toy field: decay |i - j|² scaled by (1 + block).
    struct Pulse {
        n: usize,
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
        fn signature(&self) -> u64 {
            signature_of(&[0xD0, self.n as u64])
        }
    }

    /// Evaluation counts per (block, from, to).
    type CallLedger = Arc<Mutex<HashMap<(u64, usize, usize), u64>>>;

    /// `Pulse` with an evaluation ledger: how often each (block, pair)
    /// was evaluated. The ledger is shared so the test keeps a handle
    /// after the backend moves into the adapter.
    struct CountingPulse {
        inner: Pulse,
        calls: CallLedger,
    }

    impl CountingPulse {
        fn new(n: usize) -> (Self, CallLedger) {
            let calls = Arc::new(Mutex::new(HashMap::new()));
            (
                CountingPulse {
                    inner: Pulse { n },
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
        fn signature(&self) -> u64 {
            self.inner.signature()
        }
    }

    #[test]
    fn adapter_maps_ticks_to_blocks() {
        let a = TemporalAdapter::new(Pulse { n: 8 });
        let (x, y) = (NodeId::new(1), NodeId::new(3));
        assert_eq!(a.decay_at(0, x, y), 4.0);
        assert_eq!(a.decay_at(3, x, y), 4.0, "same block");
        assert_eq!(a.decay_at(4, x, y), 8.0, "next block");
        assert_eq!(a.decay(x, y), 4.0, "static view is block 0");
        assert_eq!(a.channel_signature(), Pulse { n: 8 }.signature());
        assert_ne!(a.channel_signature(), 0);
    }

    #[test]
    fn reach_sets_track_the_block() {
        let a = TemporalAdapter::new(Pulse { n: 10 });
        let at0 = a.potential_receivers_at(0, NodeId::new(5), Some(4.0));
        // Block 0: d² ≤ 4 ⇒ distance ≤ 2.
        assert_eq!(
            at0,
            vec![3, 4, 6, 7]
                .into_iter()
                .map(NodeId::new)
                .collect::<Vec<_>>()
        );
        // Block 3: 4·d² ≤ 4 ⇒ distance ≤ 1 — the field tightened.
        let at12 = a.potential_receivers_at(12, NodeId::new(5), Some(4.0));
        assert_eq!(
            at12,
            vec![4, 6].into_iter().map(NodeId::new).collect::<Vec<_>>()
        );
        // Cached answer is identical on a repeat query.
        assert_eq!(
            a.potential_receivers_at(13, NodeId::new(5), Some(4.0)),
            at12
        );
        // No reach = everyone else, any block.
        assert_eq!(a.potential_receivers_at(12, NodeId::new(5), None).len(), 9);
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
                let at = a.potential_receivers_at(tick, from, reach);
                let fixed = a.potential_receivers(from, reach);
                assert_eq!(
                    at,
                    a.potential_receivers_at(tick, from, reach),
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
        let blocks: std::collections::HashSet<u64> = calls.keys().map(|&(b, _, _)| b).collect();
        assert!(blocks.contains(&0), "static view evaluated block 0");
        assert!(blocks.len() >= 4, "tick-aware queries spanned blocks");
        assert_eq!(a.telemetry.get(Counter::EpochSwaps), 4, "one per block");
    }

    /// A query for a block other than the current view is answered
    /// exactly from the field: it caches no row, leaves the view's rows
    /// intact, and never moves the view.
    #[test]
    fn off_view_queries_are_exact_and_leave_the_view_alone() {
        let (backend, ledger) = CountingPulse::new(12);
        let mut a = TemporalAdapter::new(backend);
        let field = Pulse { n: 12 };
        let (from, other, reach) = (NodeId::new(5), NodeId::new(2), 9.0);
        a.advance_to(8); // block 2
        let in_view = a.potential_receivers_at(8, from, Some(reach));
        let in_view_decay = a.decay_at(9, from, NodeId::new(6));
        let swaps = a.telemetry.get(Counter::EpochSwaps);
        // A later block (5) and an earlier one (1).
        for tick in [20, 4] {
            let block = a.block_of(tick);
            for src in [from, other] {
                let want: Vec<NodeId> = (0..12)
                    .map(NodeId::new)
                    .filter(|&to| to != src && field.decay_in_block(block, src, to) <= reach)
                    .collect();
                assert!(!want.is_empty());
                assert_eq!(a.potential_receivers_at(tick, src, Some(reach)), want);
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
        assert_eq!(a.telemetry.get(Counter::EpochSwaps), swaps);
        // The view's row still answers from cache, evaluating nothing.
        let evaluated = ledger.lock().unwrap().clone();
        assert_eq!(a.potential_receivers_at(9, from, Some(reach)), in_view);
        assert_eq!(a.decay_at(10, from, NodeId::new(6)), in_view_decay);
        assert_eq!(*ledger.lock().unwrap(), evaluated);
    }

    /// Unbounded-reach (`reach: None`) lists were rebuilt (an `O(n)`
    /// allocation) on every call; they are now cached per source.
    #[test]
    fn unbounded_reach_lists_are_cached() {
        let a = TemporalAdapter::new(Pulse { n: 64 });
        let from = NodeId::new(9);
        let first = a.potential_receivers_at(0, from, None);
        assert_eq!(first.len(), 63);
        // Same list from any block — and no field evaluations at all.
        assert_eq!(a.potential_receivers_at(400, from, None), first);
        assert_eq!(a.potential_receivers(from, None), first);
        assert_eq!(a.scan_stats().scans, 0, "reach: None never scans the field");
    }

    /// A wider reach than the cached row's window answers exactly
    /// without evicting the narrow row.
    #[test]
    fn wider_reach_bypasses_but_keeps_the_row() {
        struct Windowed;
        impl TemporalBackend for Windowed {
            fn len(&self) -> usize {
                10
            }
            fn block_len(&self) -> Tick {
                1
            }
            fn decay_in_block(&self, block: u64, from: NodeId, to: NodeId) -> f64 {
                Pulse { n: 10 }.decay_in_block(block, from, to)
            }
            fn reach_candidates(&self, _b: u64, from: NodeId, reach: f64) -> Option<Vec<NodeId>> {
                let w = reach.sqrt().ceil() as usize + 1;
                Some(
                    (from.index().saturating_sub(w)..=(from.index() + w).min(9))
                        .map(NodeId::new)
                        .collect(),
                )
            }
            fn signature(&self) -> u64 {
                signature_of(&[0xF1])
            }
        }
        let mut a = TemporalAdapter::new(Windowed);
        a.advance_to(2);
        let from = NodeId::new(5);
        // Block 2 scales decays by 3: reach 3 ⇒ distance ≤ 1.
        let narrow = a.potential_receivers_at(2, from, Some(3.0));
        assert_eq!(narrow, vec![NodeId::new(4), NodeId::new(6)]);
        // Reach 27 ⇒ distance ≤ 3, wider than the cached row's window.
        let wide = a.potential_receivers_at(2, from, Some(27.0));
        assert_eq!(
            wide,
            vec![2, 3, 4, 6, 7, 8]
                .into_iter()
                .map(NodeId::new)
                .collect::<Vec<_>>()
        );
        // The narrow row still answers its own reach from cache.
        assert_eq!(a.potential_receivers_at(2, from, Some(3.0)), narrow);
    }
}
