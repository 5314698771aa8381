//! Counter accumulation and the flight-recorder format: the engine-side
//! halves of the pause-grid telemetry in [`decay_core::telemetry`].
//!
//! [`CounterAccumulator`] folds the merged engine + backend counter
//! sinks across pauses and checkpoint/restore cycles; the scenario
//! session's recorder builds its telemetry series from one. The engine
//! (when [`crate::Engine::enable_event_log`] is on) keeps a ring of the
//! most recent dispatched events, and [`dump_flight`] renders recent
//! telemetry samples plus those events as the line-oriented
//! `flight-recorder v1` format for bug reports on divergence or
//! nondeterminism — cheap enough to leave armed on every scenario run.

use std::fmt;
use std::fmt::Write as _;

use decay_core::telemetry::{Counter, CounterSnapshot, TelemetrySample, Timer};

use crate::event::{Event, Tick};
use crate::probe::PauseCtx;

/// The event classes a flight-recorder entry can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A churn step fired.
    Churn,
    /// A node wake-up fired.
    Wake,
    /// A SINR resolution round fired.
    Resolve,
    /// A message delivery fired.
    Deliver,
}

/// One dispatched event, compressed to a fixed-size record for the
/// flight-recorder ring. The payload fields depend on the kind:
/// `Wake` records (node, incarnation), `Deliver` records (from, to),
/// the rest record zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// The tick the event fired at.
    pub tick: Tick,
    /// The event class.
    pub kind: EventKind,
    /// First payload field (kind-dependent, see struct docs).
    pub a: u64,
    /// Second payload field (kind-dependent, see struct docs).
    pub b: u64,
}

impl EventRecord {
    /// Compresses a dispatched event into a record.
    pub fn of(tick: Tick, event: &Event) -> Self {
        let (kind, a, b) = match *event {
            Event::ChurnStep => (EventKind::Churn, 0, 0),
            Event::Wake { node, incarnation } => {
                (EventKind::Wake, node.index() as u64, u64::from(incarnation))
            }
            Event::Resolve => (EventKind::Resolve, 0, 0),
            Event::Deliver { to, from, .. } => {
                (EventKind::Deliver, from.index() as u64, to.index() as u64)
            }
        };
        EventRecord { tick, kind, a, b }
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EventKind::Churn => write!(f, "event tick={} churn", self.tick),
            EventKind::Wake => write!(
                f,
                "event tick={} wake node={} incarnation={}",
                self.tick, self.a, self.b
            ),
            EventKind::Resolve => write!(f, "event tick={} resolve", self.tick),
            EventKind::Deliver => write!(
                f,
                "event tick={} deliver from={} to={}",
                self.tick, self.a, self.b
            ),
        }
    }
}

/// The merged engine + backend counters, accumulated across pauses and
/// checkpoint/restore cycles.
///
/// Call [`Self::start`] at the start pause and [`Self::fold`] at every
/// later pause, on or off the grid. A restore rebuilds engine and
/// backend with fresh sinks, so call [`Self::note_restore`] right after
/// one: the next fold then counts the new sinks from zero, and the
/// running total matches an unsplit run's.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterAccumulator {
    /// Merged snapshot at the previous fold (zero after a restore).
    baseline: CounterSnapshot,
    /// Everything counted so far.
    total: CounterSnapshot,
}

impl CounterAccumulator {
    /// Engine and backend sinks merged into one snapshot (their
    /// counter sets are disjoint).
    fn merged(ctx: &PauseCtx<'_>) -> CounterSnapshot {
        let engine = ctx.counters.snapshot();
        match ctx.backend.telemetry() {
            Some(backend) => engine.merge(&backend.snapshot()),
            None => engine,
        }
    }

    /// Takes the baseline at the start pause.
    pub fn start(&mut self, ctx: &PauseCtx<'_>) {
        self.baseline = Self::merged(ctx);
    }

    /// Adds what the sinks counted since the previous fold and returns
    /// the running total.
    pub fn fold(&mut self, ctx: &PauseCtx<'_>) -> CounterSnapshot {
        let now = Self::merged(ctx);
        self.total = self.total.merge(&now.delta_since(&self.baseline));
        self.baseline = now;
        self.total
    }

    /// Marks a restore: the rebuilt sinks start at zero, and so does
    /// the baseline.
    pub fn note_restore(&mut self) {
        self.baseline = CounterSnapshot::default();
    }

    /// Everything counted up to the latest fold.
    pub fn total(&self) -> CounterSnapshot {
        self.total
    }
}

/// Renders the flight recorder as the line-oriented
/// `flight-recorder v1` format: a header, one `sample` line per
/// retained pause-grid sample (non-zero counters only), and one
/// `event` line per retained engine event. The format is documented in
/// the README's Observability section.
pub fn dump_flight(samples: &[TelemetrySample], events: &[EventRecord]) -> String {
    let mut out = String::from("flight-recorder v1\n");
    let _ = writeln!(out, "samples {}", samples.len());
    for s in samples {
        let _ = write!(out, "sample tick={} qhw={}", s.tick, s.queue_high_water);
        for c in Counter::ALL {
            let v = s.delta.get(c);
            if v != 0 {
                let _ = write!(out, " {}={}", c.name(), v);
            }
        }
        for t in Timer::ALL {
            if let Some(ns) = s.delta.timer_ns(t) {
                if ns != 0 {
                    let _ = write!(out, " {}_ns={}", t.name(), ns);
                }
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "events {}", events.len());
    for e in events {
        let _ = writeln!(out, "{e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::NodeId;

    #[test]
    fn event_records_compress_each_kind() {
        let wake = EventRecord::of(
            4,
            &Event::Wake {
                node: NodeId::new(3),
                incarnation: 2,
            },
        );
        assert_eq!(wake.kind, EventKind::Wake);
        assert_eq!((wake.a, wake.b), (3, 2));
        assert_eq!(wake.to_string(), "event tick=4 wake node=3 incarnation=2");

        let deliver = EventRecord::of(
            9,
            &Event::Deliver {
                to: NodeId::new(7),
                from: NodeId::new(1),
                message: 5,
                power: 1.0,
                incarnation: 0,
                sent: 8,
            },
        );
        assert_eq!(deliver.kind, EventKind::Deliver);
        assert_eq!((deliver.a, deliver.b), (1, 7));
        assert_eq!(EventRecord::of(1, &Event::Resolve).kind, EventKind::Resolve);
        assert_eq!(EventRecord::of(1, &Event::ChurnStep).kind, EventKind::Churn);
    }

    #[test]
    fn dump_renders_versioned_lines() {
        let sink = decay_core::telemetry::Counters::new();
        sink.add(Counter::Events, 12);
        let delta = sink.snapshot();
        let samples = vec![TelemetrySample {
            tick: 32,
            delta: delta.delta_since(&CounterSnapshot::default()),
            queue_high_water: 5,
        }];
        let events = vec![EventRecord::of(30, &Event::Resolve)];
        let dump = dump_flight(&samples, &events);
        assert!(dump.starts_with("flight-recorder v1\n"));
        assert!(dump.contains("samples 1\n"));
        assert!(dump.contains("sample tick=32 qhw=5 events=12\n"));
        assert!(dump.contains("events 1\n"));
        assert!(dump.contains("event tick=30 resolve\n"));
    }
}
