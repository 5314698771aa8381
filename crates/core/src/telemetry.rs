//! Hot-path telemetry: cheap always-on counters, feature-gated phase
//! timers, and the fixed-size rings behind the flight recorder.
//!
//! The paper's central claim is that realistic (temporal,
//! non-geometric) channel models change *where the cost lives*, not
//! just how much there is of it. This module makes that cost legible:
//! every layer (engine dispatch, SINR resolution, temporal row cache,
//! block views) bumps a shared set of [`Counter`]s through a
//! [`Counters`] sink, and observers diff [`CounterSnapshot`]s on the
//! pause grid to produce per-interval [`TelemetrySample`]s.
//!
//! Design constraints, in order:
//!
//! 1. **Strictly observational.** Nothing in here feeds back into the
//!    trace. Counters are plain [`Cell`]s owned by the component they
//!    count; reading them cannot perturb a run (enforced by the
//!    probe-transparency proptest in the scenario crate).
//! 2. **Cheap enough to leave on.** A counter update is a plain load
//!    and store, batched at call sites so the static fast path pays a
//!    handful of adds per resolution round, not per pair.
//! 3. **Timers are opt-in.** Wall-clock phase timing costs two
//!    `Instant::now()` calls per phase, so it compiles out entirely
//!    unless the `telemetry-timing` feature is enabled ([`TimerStart`]
//!    is a zero-sized token in the default build).
//! 4. **Dependency-free.** No serde, no external crates; JSON
//!    rendering lives with the report types in the scenario layer.

use std::cell::Cell;
use std::collections::VecDeque;

/// One hot-path quantity tracked by a [`Counters`] sink.
///
/// The engine owns one sink for its own counters; temporal backends
/// own a second for the channel-side counters. The two sets are
/// disjoint, so merged snapshots (see [`CounterSnapshot::merge`]) never
/// double-count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Events dispatched by the engine run loop.
    Events,
    /// SINR resolution rounds (one per `Resolve` event with pending
    /// transmissions).
    ResolveTicks,
    /// (listener, transmitter) candidate pairs examined during SINR
    /// resolution.
    SinrPairs,
    /// Pair decays consumed by SINR groups: the decays the engine's
    /// reach queries carried to listening receivers (one per pair of a
    /// resolved listener group; no second backend lookup).
    DecayCalls,
    /// Backend reach queries (`reach_at`), one per transmission.
    ReachScans,
    /// Temporal `SourceRow`s built (one batched decay-row evaluation
    /// each).
    RowsBuilt,
    /// Exact decay evaluations while building rows — the candidates
    /// left after the channel's reach bound, not the hint-window width
    /// — so a silent widening shows up here first.
    RowPairs,
    /// Queries served from an already-built `SourceRow` (cache hits):
    /// reach queries whose row was built earlier in the block, and
    /// `decay_at` reads from outside the engine (monitors, probes). The
    /// engine no longer looks rows up per pair.
    RowHits,
    /// Temporal block-view advances: the engine moved the view to a
    /// new coherence block, which starts an empty block snapshot.
    EpochSwaps,
    /// Tick-aware temporal reads for a block other than block 0 (each
    /// consults the current block view): one per reach query, plus
    /// `decay_at` reads from outside the engine (monitors, probes).
    EpochLoads,
    /// Compiled-scenario cache hits: submissions served an existing
    /// `CompiledScenario` instead of rebuilding topology/backend state.
    CompileHits,
}

impl Counter {
    /// Every counter, in declaration (= wire) order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::Events,
        Counter::ResolveTicks,
        Counter::SinrPairs,
        Counter::DecayCalls,
        Counter::ReachScans,
        Counter::RowsBuilt,
        Counter::RowPairs,
        Counter::RowHits,
        Counter::EpochSwaps,
        Counter::EpochLoads,
        Counter::CompileHits,
    ];

    /// Stable snake_case name used in JSON reports and bench columns.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Events => "events",
            Counter::ResolveTicks => "resolve_ticks",
            Counter::SinrPairs => "sinr_pairs",
            Counter::DecayCalls => "decay_calls",
            Counter::ReachScans => "reach_scans",
            Counter::RowsBuilt => "rows_built",
            Counter::RowPairs => "row_pairs",
            Counter::RowHits => "row_hits",
            Counter::EpochSwaps => "epoch_swaps",
            Counter::EpochLoads => "epoch_loads",
            Counter::CompileHits => "compile_hits",
        }
    }
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = 11;

/// One wall-clock phase measured when the `telemetry-timing` feature
/// is enabled. In the default build timers are fully compiled out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Timer {
    /// One whole drive step (the engine's `run_until` drain), resolve
    /// time *included* — timers run at batch granularity because
    /// per-event clock reads would dominate the hot path. Subtract
    /// [`Timer::Resolve`] for pure dispatch time.
    Dispatch,
    /// SINR resolution rounds.
    Resolve,
    /// Temporal decay-row builds.
    RowBuild,
    /// Temporal epoch solves: the per-block recompute of mobility
    /// positions, shadowing field values and reach scales.
    EpochSolve,
    /// Temporal reach windows: the base's hint query plus the per-pair
    /// prune, after the epoch solve.
    ReachWindow,
}

impl Timer {
    /// Every timer, in declaration (= wire) order.
    pub const ALL: [Timer; TIMER_COUNT] = [
        Timer::Dispatch,
        Timer::Resolve,
        Timer::RowBuild,
        Timer::EpochSolve,
        Timer::ReachWindow,
    ];

    /// Stable snake_case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Timer::Dispatch => "dispatch",
            Timer::Resolve => "resolve",
            Timer::RowBuild => "row_build",
            Timer::EpochSolve => "epoch_solve",
            Timer::ReachWindow => "reach_window",
        }
    }

    /// JSON key of the timer's accumulated nanoseconds.
    pub fn ns_key(self) -> &'static str {
        match self {
            Timer::Dispatch => "dispatch_ns",
            Timer::Resolve => "resolve_ns",
            Timer::RowBuild => "row_build_ns",
            Timer::EpochSolve => "epoch_solve_ns",
            Timer::ReachWindow => "reach_window_ns",
        }
    }

    /// JSON key of the timer's interval count.
    pub fn calls_key(self) -> &'static str {
        match self {
            Timer::Dispatch => "dispatch_calls",
            Timer::Resolve => "resolve_calls",
            Timer::RowBuild => "row_build_calls",
            Timer::EpochSolve => "epoch_solve_calls",
            Timer::ReachWindow => "reach_window_calls",
        }
    }
}

/// Number of [`Timer`] variants.
pub const TIMER_COUNT: usize = 5;

/// Opaque token returned by [`Counters::timer_start`]. Zero-sized when
/// timing is compiled out, so untimed builds pay nothing at the call
/// sites — they stay uncluttered by `cfg` blocks.
#[derive(Debug, Clone, Copy)]
pub struct TimerStart {
    #[cfg(feature = "telemetry-timing")]
    at: std::time::Instant,
}

/// One recorded wall-clock span: a named phase interval on one thread,
/// timestamped against a process-wide epoch so spans from different
/// sinks land on a common timeline. The type exists in every build so
/// exporters compile unconditionally; spans are only ever *recorded*
/// when `telemetry-timing` is enabled and a sink has been armed with
/// [`Counters::arm_spans`].
///
/// Spans are timing artifacts: thread ids, timestamps, and durations
/// are wall-clock facts of one particular execution and sit entirely
/// outside the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Phase name ([`Timer::name`]).
    pub name: &'static str,
    /// Recording thread, as a small stable-per-thread id.
    pub tid: u32,
    /// Start offset from the process-wide span epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

#[cfg(feature = "telemetry-timing")]
#[expect(
    clippy::disallowed_methods,
    reason = "the telemetry-timing gate is the sanction: spans never reach a trace"
)]
fn span_epoch() -> std::time::Instant {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now)
}

#[cfg(feature = "telemetry-timing")]
fn current_tid() -> u32 {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// A set of counters (and, behind `telemetry-timing`, nanosecond
/// phase accumulators) owned by one instrumented component.
///
/// Per-instance and single-owner: the sink lives inside the engine or
/// backend it counts and moves with it, so plain [`Cell`]s suffice
/// (the type is `Send` but not `Sync`). The engine hands probes a
/// reference via `PauseCtx`; backends expose theirs through
/// `DecayBackend::telemetry`.
#[derive(Debug)]
pub struct Counters {
    counts: [Cell<u64>; COUNTER_COUNT],
    #[cfg(feature = "telemetry-timing")]
    timer_ns: [Cell<u64>; TIMER_COUNT],
    #[cfg(feature = "telemetry-timing")]
    timer_calls: [Cell<u64>; TIMER_COUNT],
    #[cfg(feature = "telemetry-timing")]
    spans_armed: Cell<bool>,
    #[cfg(feature = "telemetry-timing")]
    spans: std::cell::RefCell<Vec<SpanEvent>>,
}

impl Default for Counters {
    fn default() -> Self {
        Counters::new()
    }
}

/// Adds `n` to one cell.
#[inline]
fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get().wrapping_add(n));
}

impl Counters {
    /// A zeroed sink.
    pub const fn new() -> Self {
        Counters {
            counts: [const { Cell::new(0) }; COUNTER_COUNT],
            #[cfg(feature = "telemetry-timing")]
            timer_ns: [const { Cell::new(0) }; TIMER_COUNT],
            #[cfg(feature = "telemetry-timing")]
            timer_calls: [const { Cell::new(0) }; TIMER_COUNT],
            #[cfg(feature = "telemetry-timing")]
            spans_armed: Cell::new(false),
            #[cfg(feature = "telemetry-timing")]
            spans: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Whether phase timers are compiled in (`telemetry-timing`).
    pub const fn timing_enabled() -> bool {
        cfg!(feature = "telemetry-timing")
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        bump(&self.counts[counter as usize], n);
    }

    /// Current value of one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize].get()
    }

    /// Starts a phase timer. Free when timing is compiled out.
    #[inline]
    #[cfg_attr(
        feature = "telemetry-timing",
        expect(
            clippy::disallowed_methods,
            reason = "the telemetry-timing gate is the sanction: timers never reach a trace"
        )
    )]
    pub fn timer_start(&self) -> TimerStart {
        TimerStart {
            #[cfg(feature = "telemetry-timing")]
            at: std::time::Instant::now(),
        }
    }

    /// Stops a phase timer started with [`Counters::timer_start`],
    /// accumulating elapsed nanoseconds — and, when span recording is
    /// armed, capturing the interval as a timeline [`SpanEvent`] under
    /// the timer's name. Free when timing is compiled out; one boolean
    /// load when compiled in but unarmed.
    #[inline]
    pub fn timer_stop(&self, timer: Timer, start: TimerStart) {
        #[cfg(feature = "telemetry-timing")]
        {
            let ns = start.at.elapsed().as_nanos() as u64;
            bump(&self.timer_ns[timer as usize], ns);
            bump(&self.timer_calls[timer as usize], 1);
            if self.spans_armed.get() {
                self.push_span(timer.name(), start, ns);
            }
        }
        #[cfg(not(feature = "telemetry-timing"))]
        {
            let _ = (timer, start);
        }
    }

    /// Starts recording timeline spans into this sink. A no-op unless
    /// `telemetry-timing` is compiled in; off by default even then, so
    /// the enabled-timing overhead gate never pays the span path.
    pub fn arm_spans(&self) {
        #[cfg(feature = "telemetry-timing")]
        self.spans_armed.set(true);
    }

    /// Drains every recorded span (oldest first). Always empty when
    /// timing is compiled out or spans were never armed.
    pub fn take_spans(&self) -> Vec<SpanEvent> {
        #[cfg(feature = "telemetry-timing")]
        {
            self.spans.take()
        }
        #[cfg(not(feature = "telemetry-timing"))]
        {
            Vec::new()
        }
    }

    #[cfg(feature = "telemetry-timing")]
    fn push_span(&self, name: &'static str, start: TimerStart, dur_ns: u64) {
        // The epoch pins itself to the first span ever recorded, so the
        // earliest span sits at t=0 and everything else is relative.
        let start_ns = start.at.saturating_duration_since(span_epoch()).as_nanos() as u64;
        let event = SpanEvent {
            name,
            tid: current_tid(),
            start_ns,
            dur_ns,
        };
        self.spans.borrow_mut().push(event);
    }

    /// A point-in-time copy of every counter (and timer, when enabled).
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].get()),
            #[cfg(feature = "telemetry-timing")]
            timer_ns: std::array::from_fn(|i| self.timer_ns[i].get()),
            #[cfg(feature = "telemetry-timing")]
            timer_calls: std::array::from_fn(|i| self.timer_calls[i].get()),
        }
    }
}

/// An immutable copy of a [`Counters`] sink at one instant, diffable
/// and mergeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    counts: [u64; COUNTER_COUNT],
    #[cfg(feature = "telemetry-timing")]
    timer_ns: [u64; TIMER_COUNT],
    #[cfg(feature = "telemetry-timing")]
    timer_calls: [u64; TIMER_COUNT],
}

impl CounterSnapshot {
    /// Value of one counter in this snapshot.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// Accumulated nanoseconds for `timer`, or `None` when timing is
    /// compiled out.
    pub fn timer_ns(&self, timer: Timer) -> Option<u64> {
        #[cfg(feature = "telemetry-timing")]
        {
            Some(self.timer_ns[timer as usize])
        }
        #[cfg(not(feature = "telemetry-timing"))]
        {
            let _ = timer;
            None
        }
    }

    /// Number of recorded intervals for `timer`, or `None` when timing
    /// is compiled out.
    pub fn timer_calls(&self, timer: Timer) -> Option<u64> {
        #[cfg(feature = "telemetry-timing")]
        {
            Some(self.timer_calls[timer as usize])
        }
        #[cfg(not(feature = "telemetry-timing"))]
        {
            let _ = timer;
            None
        }
    }

    /// Per-counter difference `self - base`.
    ///
    /// Counters are monotone within one component's lifetime, but a
    /// checkpoint/restore cycle rebuilds engine and backend and zeroes
    /// their sinks. When a counter reads *below* its baseline the
    /// baseline is stale, so the delta falls back to the raw value —
    /// counting from the restore instead of underflowing. The pause-grid
    /// accumulators zero their baseline at a restore, so the interval
    /// spanning it loses nothing.
    pub fn delta_since(&self, base: &CounterSnapshot) -> CounterSnapshot {
        fn diff<const N: usize>(cur: &[u64; N], base: &[u64; N]) -> [u64; N] {
            std::array::from_fn(|i| cur[i].checked_sub(base[i]).unwrap_or(cur[i]))
        }
        CounterSnapshot {
            counts: diff(&self.counts, &base.counts),
            #[cfg(feature = "telemetry-timing")]
            timer_ns: diff(&self.timer_ns, &base.timer_ns),
            #[cfg(feature = "telemetry-timing")]
            timer_calls: diff(&self.timer_calls, &base.timer_calls),
        }
    }

    /// Element-wise sum of two snapshots. Used to merge the engine's
    /// sink with a backend's sink; their counter sets are disjoint, so
    /// the sum is a plain union.
    pub fn merge(&self, other: &CounterSnapshot) -> CounterSnapshot {
        fn sum<const N: usize>(a: &[u64; N], b: &[u64; N]) -> [u64; N] {
            std::array::from_fn(|i| a[i].saturating_add(b[i]))
        }
        CounterSnapshot {
            counts: sum(&self.counts, &other.counts),
            #[cfg(feature = "telemetry-timing")]
            timer_ns: sum(&self.timer_ns, &other.timer_ns),
            #[cfg(feature = "telemetry-timing")]
            timer_calls: sum(&self.timer_calls, &other.timer_calls),
        }
    }

    /// True when every counter (and timer) is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

/// One per-interval telemetry reading, emitted on the pause grid with
/// the same discipline as `zeta_series` / `prr_windows`: `tick` is the
/// grid boundary that closed the interval, `delta` holds the counter
/// increments since the previous on-grid sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Pause-grid tick that closed this interval.
    pub tick: u64,
    /// Counter increments over the interval (engine and backend sinks
    /// merged).
    pub delta: CounterSnapshot,
    /// Event-queue high-water mark observed so far (cumulative, not a
    /// per-interval delta — a high-water mark does not difference).
    pub queue_high_water: u64,
}

/// A fixed-capacity ring buffer: pushing beyond capacity evicts the
/// oldest entry. Backs the flight recorder's "last N samples / last N
/// events" windows.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Ring {
            buf: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Appends `value`, evicting the oldest entry when full.
    pub fn push(&mut self, value: T) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(value);
    }

    /// Entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot_round_trip() {
        let c = Counters::new();
        c.add(Counter::Events, 3);
        c.add(Counter::SinrPairs, 10);
        c.add(Counter::Events, 2);
        let snap = c.snapshot();
        assert_eq!(snap.get(Counter::Events), 5);
        assert_eq!(snap.get(Counter::SinrPairs), 10);
        assert_eq!(snap.get(Counter::RowsBuilt), 0);
    }

    #[test]
    fn delta_subtracts_and_tolerates_resets() {
        let c = Counters::new();
        c.add(Counter::Events, 7);
        let base = c.snapshot();
        c.add(Counter::Events, 4);
        let delta = c.snapshot().delta_since(&base);
        assert_eq!(delta.get(Counter::Events), 4);

        // A fresh sink (post-restore) reads below the stale baseline:
        // the delta falls back to the raw value instead of underflowing.
        let fresh = Counters::new();
        fresh.add(Counter::Events, 2);
        let delta = fresh.snapshot().delta_since(&base);
        assert_eq!(delta.get(Counter::Events), 2);
    }

    #[test]
    fn merge_sums_disjoint_sinks() {
        let engine = Counters::new();
        engine.add(Counter::Events, 5);
        let backend = Counters::new();
        backend.add(Counter::RowsBuilt, 3);
        let merged = engine.snapshot().merge(&backend.snapshot());
        assert_eq!(merged.get(Counter::Events), 5);
        assert_eq!(merged.get(Counter::RowsBuilt), 3);
        assert!(!merged.is_zero());
        assert!(CounterSnapshot::default().is_zero());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = Ring::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        let kept: Vec<i32> = r.iter().copied().collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn counter_names_match_wire_order() {
        assert_eq!(Counter::ALL.len(), COUNTER_COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} out of order", c.name());
        }
        assert_eq!(Timer::ALL.len(), TIMER_COUNT);
        for (i, t) in Timer::ALL.iter().enumerate() {
            assert_eq!(*t as usize, i, "{} out of order", t.name());
        }
    }

    #[test]
    fn spans_record_only_when_armed() {
        let c = Counters::new();
        // Unarmed: timer stops record no span.
        let start = c.timer_start();
        c.timer_stop(Timer::Resolve, start);
        assert!(c.take_spans().is_empty());

        c.arm_spans();
        let start = c.timer_start();
        c.timer_stop(Timer::Resolve, start);
        c.timer_stop(Timer::Dispatch, start);
        let spans = c.take_spans();
        if Counters::timing_enabled() {
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].name, "resolve");
            assert_eq!(spans[1].name, "dispatch");
            assert!(spans.iter().all(|s| s.tid > 0));
            // Drained: a second take is empty.
            assert!(c.take_spans().is_empty());
        } else {
            assert!(spans.is_empty());
        }
    }

    #[test]
    fn timers_are_noops_unless_enabled() {
        let c = Counters::new();
        let start = c.timer_start();
        c.timer_stop(Timer::Resolve, start);
        let snap = c.snapshot();
        if Counters::timing_enabled() {
            assert_eq!(snap.timer_calls(Timer::Resolve), Some(1));
            assert!(snap.timer_ns(Timer::Resolve).is_some());
        } else {
            assert_eq!(snap.timer_calls(Timer::Resolve), None);
            assert_eq!(snap.timer_ns(Timer::Resolve), None);
        }
    }
}
