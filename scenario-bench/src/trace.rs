//! Spans recorded from outside the program: one around each public call
//! a submission makes, kept in memory and written once the run ends.

use std::io::{self, Write};
use std::sync::OnceLock;
use std::time::Instant;

use decay_core::json::{int, obj, s, JsonValue};

/// Nanoseconds since the first call (made at the top of `main`, so it
/// stands in for process start). The harness's only wall-clock read.
#[allow(clippy::disallowed_methods)] // report-only harness timing
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The submission the span belongs to.
    pub submission: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span recorder. When off, [`Tracer::span`] only calls
/// through, so untraced runs pay nothing but the closure.
#[derive(Debug, Default)]
pub struct Tracer {
    pub on: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    submission: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Opens a root span for submission `id`; returns its index.
    pub fn begin_submission(&mut self, id: u32, name: &'static str) -> Option<usize> {
        self.submission = id;
        self.on.then(|| self.open_span(name))
    }

    /// Closes the span `begin_submission` opened.
    pub fn end_submission(&mut self, root: Option<usize>) {
        if let Some(idx) = root {
            self.open.pop();
            self.spans[idx].end = now_ns();
        }
    }

    /// Runs `f` inside a span named `name`, nested under the open one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.open_span(name);
        let out = f();
        self.open.pop();
        self.spans[idx].end = now_ns();
        out
    }

    fn open_span(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: self.open.last().copied(),
            submission: self.submission,
        });
        self.open.push(idx);
        idx
    }

    /// Adds the runlog writes a [`TimedSink`] saw as `runlog.write`
    /// spans, each under the innermost span of submission `from..` that
    /// encloses it (the session holds the sink while it runs, so the
    /// writes are attached after the fact, by time).
    pub fn attach_writes(&mut self, from: usize, writes: &[(u64, u64)]) {
        let end = self.spans.len();
        for &(start, stop) in writes {
            let parent = (from..end)
                .filter(|&i| self.spans[i].start <= start && stop <= self.spans[i].end)
                .max_by_key(|&i| self.spans[i].start);
            self.spans.push(Span {
                name: "runlog.write",
                start,
                end: stop,
                parent,
                submission: self.submission,
            });
        }
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent,
    /// submission}` objects.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .map(|sp| {
                    obj(vec![
                        ("name", s(sp.name)),
                        ("start_ns", int(sp.start)),
                        ("end_ns", int(sp.end)),
                        (
                            "parent",
                            sp.parent.map_or(JsonValue::Null, |p| int(p as u64)),
                        ),
                        ("submission", int(u64::from(sp.submission))),
                    ])
                })
                .collect(),
        )
    }
}

/// The runlog writer: an in-memory buffer that, when `writes` is
/// armed, records the interval of every `write` call.
#[derive(Debug, Default)]
pub struct TimedSink {
    pub buf: Vec<u8>,
    pub writes: Option<Vec<(u64, u64)>>,
}

impl Write for TimedSink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        match &mut self.writes {
            None => self.buf.extend_from_slice(bytes),
            Some(writes) => {
                let start = now_ns();
                self.buf.extend_from_slice(bytes);
                writes.push((start, now_ns()));
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
