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
//!    trace. Counters are plain relaxed atomics; reading them cannot
//!    perturb a run (enforced by the probe-transparency proptest in
//!    the scenario crate).
//! 2. **Cheap enough to leave on.** Counter updates are
//!    `fetch_add(Relaxed)` on uncontended cache lines, batched at call
//!    sites so the static fast path pays a handful of adds per
//!    resolution round, not per pair.
//! 3. **Timers are opt-in.** Wall-clock phase timing costs two
//!    `Instant::now()` calls per phase, so it compiles out entirely
//!    unless the `telemetry-timing` feature is enabled ([`TimerStart`]
//!    is a zero-sized token in the default build).
//! 4. **Dependency-free.** No serde, no external crates; JSON
//!    rendering lives with the report types in the scenario layer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Backend `decay_at` evaluations issued from the engine hot path.
    DecayCalls,
    /// Backend `potential_receivers`/`potential_receivers_at` queries.
    ReachScans,
    /// Temporal `SourceRow`s built (one batched decay-row evaluation
    /// each).
    RowsBuilt,
    /// Exact decay evaluations while building rows — the candidates
    /// left after the channel's reach bound, not the hint-window width
    /// — so a silent widening shows up here first.
    RowPairs,
    /// Queries served from an already-built `SourceRow` (cache hits).
    RowHits,
    /// Temporal block-view advances: the engine moved the view to a
    /// new coherence block, which starts an empty block snapshot.
    EpochSwaps,
    /// Tick-aware temporal reads for a block other than block 0 (each
    /// consults the current block view).
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
}

impl Timer {
    /// Every timer, in declaration (= wire) order.
    pub const ALL: [Timer; TIMER_COUNT] = [Timer::Dispatch, Timer::Resolve, Timer::RowBuild];

    /// Stable snake_case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Timer::Dispatch => "dispatch",
            Timer::Resolve => "resolve",
            Timer::RowBuild => "row_build",
        }
    }
}

/// Number of [`Timer`] variants.
pub const TIMER_COUNT: usize = 3;

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
    /// Phase name (`dispatch`, `resolve`, or `row_build`).
    pub name: &'static str,
    /// Recording thread, as a small stable-per-thread id.
    pub tid: u32,
    /// Start offset from the process-wide span epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

#[cfg(feature = "telemetry-timing")]
#[allow(clippy::disallowed_methods)] // the telemetry-timing gate IS the sanction
fn span_epoch() -> std::time::Instant {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now)
}

#[cfg(feature = "telemetry-timing")]
fn current_tid() -> u32 {
    use std::sync::atomic::AtomicU32;
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// A set of relaxed atomic counters (and, behind `telemetry-timing`,
/// nanosecond phase accumulators) owned by one instrumented component.
///
/// Per-instance by design: a process-global sink would be
/// cross-contaminated by parallel test threads and concurrent runs.
/// The engine hands probes a reference via `PauseCtx`; backends expose
/// theirs through `DecayBackend::telemetry`.
#[derive(Debug)]
pub struct Counters {
    counts: [AtomicU64; COUNTER_COUNT],
    #[cfg(feature = "telemetry-timing")]
    timer_ns: [AtomicU64; TIMER_COUNT],
    #[cfg(feature = "telemetry-timing")]
    timer_calls: [AtomicU64; TIMER_COUNT],
    #[cfg(feature = "telemetry-timing")]
    spans_armed: std::sync::atomic::AtomicBool,
    #[cfg(feature = "telemetry-timing")]
    spans: std::sync::Mutex<Vec<SpanEvent>>,
}

impl Default for Counters {
    fn default() -> Self {
        Counters::new()
    }
}

impl Counters {
    /// A zeroed sink (`const`, so tests and fixtures can keep one in a
    /// `static`).
    pub const fn new() -> Self {
        Counters {
            counts: [const { AtomicU64::new(0) }; COUNTER_COUNT],
            #[cfg(feature = "telemetry-timing")]
            timer_ns: [const { AtomicU64::new(0) }; TIMER_COUNT],
            #[cfg(feature = "telemetry-timing")]
            timer_calls: [const { AtomicU64::new(0) }; TIMER_COUNT],
            #[cfg(feature = "telemetry-timing")]
            spans_armed: std::sync::atomic::AtomicBool::new(false),
            #[cfg(feature = "telemetry-timing")]
            spans: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Whether phase timers are compiled in (`telemetry-timing`).
    pub const fn timing_enabled() -> bool {
        cfg!(feature = "telemetry-timing")
    }

    /// Adds `n` to `counter`. Relaxed: telemetry orders nothing.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counts[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records `value` into `counter` if it exceeds the current value
    /// (a relaxed high-water mark). A single atomic `fetch_max` — not a
    /// check-then-store, which would lose updates when concurrent
    /// recorders race each other past the check.
    #[inline]
    pub fn record_max(&self, counter: Counter, value: u64) {
        self.counts[counter as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// Current value of one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize].load(Ordering::Relaxed)
    }

    /// Starts a phase timer. Free when timing is compiled out.
    #[inline]
    #[allow(clippy::disallowed_methods)] // the telemetry-timing gate IS the sanction
    pub fn timer_start(&self) -> TimerStart {
        TimerStart {
            #[cfg(feature = "telemetry-timing")]
            at: std::time::Instant::now(),
        }
    }

    /// Stops a phase timer started with [`Counters::timer_start`],
    /// accumulating elapsed nanoseconds — and, when span recording is
    /// armed, capturing the interval as a timeline [`SpanEvent`] under
    /// the timer's name. Free when timing is compiled out; one relaxed
    /// boolean load when compiled in but unarmed.
    #[inline]
    pub fn timer_stop(&self, timer: Timer, start: TimerStart) {
        #[cfg(feature = "telemetry-timing")]
        {
            let ns = start.at.elapsed().as_nanos() as u64;
            self.timer_ns[timer as usize].fetch_add(ns, Ordering::Relaxed);
            self.timer_calls[timer as usize].fetch_add(1, Ordering::Relaxed);
            if self.spans_armed.load(Ordering::Relaxed) {
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
        self.spans_armed.store(true, Ordering::Relaxed);
    }

    /// Drains every recorded span (oldest first). Always empty when
    /// timing is compiled out or spans were never armed.
    pub fn take_spans(&self) -> Vec<SpanEvent> {
        #[cfg(feature = "telemetry-timing")]
        {
            std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
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
        self.spans.lock().expect("span buffer poisoned").push(event);
    }

    /// A point-in-time copy of every counter (and timer, when enabled).
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            #[cfg(feature = "telemetry-timing")]
            timer_ns: std::array::from_fn(|i| self.timer_ns[i].load(Ordering::Relaxed)),
            #[cfg(feature = "telemetry-timing")]
            timer_calls: std::array::from_fn(|i| self.timer_calls[i].load(Ordering::Relaxed)),
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
    fn record_max_keeps_high_water() {
        let c = Counters::new();
        c.record_max(Counter::Events, 4);
        c.record_max(Counter::Events, 2);
        c.record_max(Counter::Events, 9);
        assert_eq!(c.get(Counter::Events), 9);
    }

    #[test]
    fn record_max_survives_concurrent_recorders() {
        // Regression: the old check-then-store raced — a thread could
        // observe a small value, get preempted, and overwrite a larger
        // one. With fetch_max the global maximum always survives.
        let c = std::sync::Arc::new(Counters::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        // Interleave ascending and descending streams so
                        // late small writes race early large ones.
                        let v = if t % 2 == 0 {
                            t * per_thread + i
                        } else {
                            (t + 1) * per_thread - i
                        };
                        c.record_max(Counter::Events, v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(Counter::Events), threads * per_thread);
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
