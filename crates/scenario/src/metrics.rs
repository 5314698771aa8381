//! Run metrics: delivery-latency histogram, PRR, completion, and
//! throughput, with a stable text and JSON report format.
//!
//! The collector consumes [`DeliveryRecord`]s streamed out of the engine
//! (via [`decay_engine::Engine::drain_trace`], so memory stays bounded on
//! long runs) plus the engine's cumulative counters, and renders a
//! [`MetricsReport`]. Everything in the report except `events_per_sec`
//! (wall-clock) is deterministic in the spec.

use std::fmt;
use std::time::Duration;

use decay_channel::ZetaSample;
use decay_core::telemetry::{Counter, Counters, TelemetrySample, Timer};
use decay_engine::{DeliveryRecord, EngineStats, PrrWindowSample, Tick};
use serde::{Deserialize, Serialize};

use crate::json::{int, num, obj, s, JsonValue};

/// Number of latency histogram buckets: delay 0, 1, then doubling ranges
/// `[2,3] [4,7] [8,15] [16,31] [32,63]`, and `64+`.
pub const LATENCY_BUCKETS: usize = 8;

/// Upper-inclusive bounds of each histogram bucket (the last is open).
const BUCKET_BOUNDS: [Tick; LATENCY_BUCKETS - 1] = [0, 1, 3, 7, 15, 31, 63];

/// Human-readable bucket labels, aligned with [`LATENCY_BUCKETS`].
pub const BUCKET_LABELS: [&str; LATENCY_BUCKETS] =
    ["0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64+"];

fn bucket_of(latency: Tick) -> usize {
    BUCKET_BOUNDS
        .iter()
        .position(|&b| latency <= b)
        .unwrap_or(LATENCY_BUCKETS - 1)
}

/// Streaming metrics accumulator.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    hist: [u64; LATENCY_BUCKETS],
    observed: u64,
    total_latency: u64,
    first_delivery: Option<Tick>,
    last_delivery: Option<Tick>,
}

impl MetricsCollector {
    /// An empty collector.
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Folds one delivery into the histogram.
    pub fn observe(&mut self, record: &DeliveryRecord) {
        let latency = record.latency();
        self.hist[bucket_of(latency)] += 1;
        self.observed += 1;
        self.total_latency += latency;
        if self.first_delivery.is_none() {
            self.first_delivery = Some(record.tick);
        }
        self.last_delivery = Some(record.tick);
    }

    /// Folds a batch of deliveries.
    pub fn observe_all(&mut self, records: &[DeliveryRecord]) {
        for r in records {
            self.observe(r);
        }
    }

    /// Deliveries observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Finalizes the report. `prr` is the protocol-level packet reception
    /// ratio computed by the runner (coverage for broadcast, delivered
    /// links for contention, in-flight survival for announce);
    /// `completed_at` the tick the protocol's goal was reached, if it
    /// was; `wall` the measured wall-clock time of the run;
    /// `zeta_series` the sampled metricity trajectory (empty when no
    /// monitor ran); `prr_windows` the windowed reception-ratio series
    /// (empty when the spec requests none).
    /// `telemetry` is the pause-grid counter-delta series from the
    /// always-attached [`decay_engine::TelemetryProbe`] (empty for
    /// hand-built reports); `scan_stats` the channel-side reach-scan
    /// totals (`None` for static backends).
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        self,
        stats: EngineStats,
        horizon: Tick,
        prr: f64,
        completed_at: Option<Tick>,
        wall: Duration,
        zeta_series: Vec<ZetaSample>,
        prr_windows: Vec<PrrWindowSample>,
        telemetry: Vec<TelemetrySample>,
        scan_stats: Option<ScanStatsReport>,
        channel_signature: u64,
    ) -> MetricsReport {
        MetricsReport {
            horizon,
            channel_signature,
            completed_at,
            prr,
            zeta_series,
            prr_windows,
            telemetry,
            scan_stats,
            latency_hist: self.hist,
            mean_latency: if self.observed == 0 {
                0.0
            } else {
                self.total_latency as f64 / self.observed as f64
            },
            first_delivery: self.first_delivery,
            last_delivery: self.last_delivery,
            events_per_sec: if wall.as_secs_f64() > 0.0 {
                stats.events as f64 / wall.as_secs_f64()
            } else {
                f64::INFINITY
            },
            stats,
        }
    }
}

/// Channel-side reach-scan totals of the temporal backend's telemetry
/// sink over the whole run, folded across checkpoint restores (`None`
/// for static backends, which never scan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanStatsReport {
    /// Reach scans run (row builds plus uncached exact scans).
    pub scans: u64,
    /// Exact decay evaluations across those scans: the candidates left
    /// after the channel's reach bound, not the hint-window width.
    pub pairs: u64,
    /// Row lookups answered from the per-block row cache.
    pub row_hits: u64,
}

impl ScanStatsReport {
    /// Mean exact evaluations per scan (0 when nothing scanned).
    pub fn pairs_per_scan(&self) -> f64 {
        if self.scans == 0 {
            0.0
        } else {
            self.pairs as f64 / self.scans as f64
        }
    }

    /// Fraction of row lookups served by the cache, in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.scans + self.row_hits;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The finished metrics of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// The spec's horizon.
    pub horizon: Tick,
    /// The backend's channel signature (0 = static backend), the same
    /// fingerprint checkpoints fold in — ties an archived report to
    /// the temporal-channel configuration that produced it.
    pub channel_signature: u64,
    /// Tick the protocol goal was reached (`None` = budget exhausted or
    /// the protocol has no completion notion).
    pub completed_at: Option<Tick>,
    /// Protocol-level packet reception ratio in `[0, 1]`.
    pub prr: f64,
    /// The sampled `ζ(t)`/`φ(t)` metricity trajectory (empty unless the
    /// spec's channel block enables a monitor).
    pub zeta_series: Vec<ZetaSample>,
    /// The windowed packet-reception-ratio series (empty unless the
    /// spec sets `prr_window`): per-window deliveries over
    /// transmissions, the drift view the lifetime `prr` flattens.
    pub prr_windows: Vec<PrrWindowSample>,
    /// Per-interval telemetry counter deltas on the pause grid (the
    /// same grid discipline as `zeta_series`). Purely observational:
    /// never part of the trace digest. The engine-side counters
    /// (`events`, `resolve_ticks`, `sinr_pairs`, `decay_calls`,
    /// `reach_scans`) are invariant across checkpoint/resume splits,
    /// sample for sample: the probe accumulates across the restore.
    /// Channel-side counters are exempt, since the rebuilt backend
    /// rescans its rows.
    pub telemetry: Vec<TelemetrySample>,
    /// Channel-side reach-scan totals (`None` for static backends).
    pub scan_stats: Option<ScanStatsReport>,
    /// Delivery-latency histogram over [`BUCKET_LABELS`] buckets.
    pub latency_hist: [u64; LATENCY_BUCKETS],
    /// Mean delivery latency in ticks.
    pub mean_latency: f64,
    /// Tick of the first delivery.
    pub first_delivery: Option<Tick>,
    /// Tick of the last delivery.
    pub last_delivery: Option<Tick>,
    /// Events dispatched per wall-clock second (the only
    /// non-deterministic field).
    pub events_per_sec: f64,
    /// The engine's cumulative counters.
    pub stats: EngineStats,
}

impl MetricsReport {
    /// Renders the report as JSON.
    pub fn to_json(&self) -> JsonValue {
        let opt_tick = |t: Option<Tick>| match t {
            Some(t) => int(t),
            None => JsonValue::Null,
        };
        let mut pairs = vec![
            ("horizon", int(self.horizon)),
            (
                "channel_sig",
                s(&format!("{:#018x}", self.channel_signature)),
            ),
            ("completed_at", opt_tick(self.completed_at)),
            ("prr", num(self.prr)),
        ];
        if !self.zeta_series.is_empty() {
            pairs.push((
                "zeta_series",
                JsonValue::Array(
                    self.zeta_series
                        .iter()
                        .map(|z| {
                            obj(vec![
                                ("tick", int(z.tick)),
                                ("zeta", num(z.zeta)),
                                ("phi", num(z.phi)),
                                ("nodes", int(z.nodes as u64)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.prr_windows.is_empty() {
            pairs.push((
                "prr_windows",
                JsonValue::Array(
                    self.prr_windows
                        .iter()
                        .map(|w| {
                            obj(vec![
                                ("tick", int(w.tick)),
                                ("transmissions", int(w.transmissions)),
                                ("deliveries", int(w.deliveries)),
                                ("prr", num(w.prr)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.telemetry.is_empty() {
            pairs.push((
                "telemetry",
                JsonValue::Array(self.telemetry.iter().map(telemetry_sample_json).collect()),
            ));
        }
        if let Some(scan) = &self.scan_stats {
            pairs.push((
                "scan_stats",
                obj(vec![
                    ("scans", int(scan.scans)),
                    ("pairs", int(scan.pairs)),
                    ("pairs_per_scan", num(scan.pairs_per_scan())),
                    ("row_hits", int(scan.row_hits)),
                    ("row_hit_rate", num(scan.row_hit_rate())),
                ]),
            ));
        }
        pairs.extend(vec![
            (
                "latency_hist",
                JsonValue::Array(self.latency_hist.iter().map(|&c| int(c)).collect()),
            ),
            ("mean_latency", num(self.mean_latency)),
            ("first_delivery", opt_tick(self.first_delivery)),
            ("last_delivery", opt_tick(self.last_delivery)),
            ("events_per_sec", num(self.events_per_sec)),
            (
                "stats",
                obj(vec![
                    ("events", int(self.stats.events)),
                    ("wakes", int(self.stats.wakes)),
                    ("transmissions", int(self.stats.transmissions)),
                    ("deliveries", int(self.stats.deliveries)),
                    ("dropped_deliveries", int(self.stats.dropped_deliveries)),
                    ("jammed_ticks", int(self.stats.jammed_ticks)),
                    ("churn_leaves", int(self.stats.churn_leaves)),
                    ("churn_joins", int(self.stats.churn_joins)),
                    ("queue_high_water", int(self.stats.queue_high_water)),
                ]),
            ),
        ]);
        obj(pairs)
    }
}

/// One telemetry sample as JSON: tick, queue high-water mark, every
/// counter by wire name, and — when the `telemetry-timing` feature is
/// compiled in — `<timer>_ns` / `<timer>_calls` per phase timer.
fn telemetry_sample_json(s: &TelemetrySample) -> JsonValue {
    let mut pairs = vec![
        ("tick", int(s.tick)),
        ("queue_high_water", int(s.queue_high_water)),
    ];
    for c in Counter::ALL {
        pairs.push((c.name(), int(s.delta.get(c))));
    }
    if Counters::timing_enabled() {
        for t in Timer::ALL {
            if let (Some(ns), Some(calls)) = (s.delta.timer_ns(t), s.delta.timer_calls(t)) {
                pairs.push((timer_ns_key(t), int(ns)));
                pairs.push((timer_calls_key(t), int(calls)));
            }
        }
    }
    obj(pairs)
}

/// Static JSON key for a timer's nanosecond column.
fn timer_ns_key(t: Timer) -> &'static str {
    match t {
        Timer::Dispatch => "dispatch_ns",
        Timer::Resolve => "resolve_ns",
        Timer::RowBuild => "row_build_ns",
    }
}

/// Static JSON key for a timer's call-count column.
fn timer_calls_key(t: Timer) -> &'static str {
    match t {
        Timer::Dispatch => "dispatch_calls",
        Timer::Resolve => "resolve_calls",
        Timer::RowBuild => "row_build_calls",
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.completed_at {
            Some(t) => writeln!(f, "completed at tick {t} (horizon {})", self.horizon)?,
            None => writeln!(f, "ran to horizon {} without completing", self.horizon)?,
        }
        writeln!(f, "prr: {:.4}", self.prr)?;
        writeln!(
            f,
            "deliveries: {} of {} transmissions ({} dropped in flight)",
            self.stats.deliveries, self.stats.transmissions, self.stats.dropped_deliveries
        )?;
        writeln!(f, "mean delivery latency: {:.3} ticks", self.mean_latency)?;
        writeln!(f, "latency histogram (ticks: count):")?;
        for (label, count) in BUCKET_LABELS.iter().zip(self.latency_hist.iter()) {
            if *count > 0 {
                writeln!(f, "  {label:>6}: {count}")?;
            }
        }
        if self.stats.jammed_ticks > 0 {
            writeln!(f, "jammed ticks: {}", self.stats.jammed_ticks)?;
        }
        if self.stats.churn_leaves + self.stats.churn_joins > 0 {
            writeln!(
                f,
                "churn: {} leaves, {} rejoins",
                self.stats.churn_leaves, self.stats.churn_joins
            )?;
        }
        if !self.zeta_series.is_empty() {
            let zetas: Vec<f64> = self.zeta_series.iter().map(|z| z.zeta).collect();
            let min = zetas.iter().copied().fold(f64::INFINITY, f64::min);
            let max = zetas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = zetas.iter().sum::<f64>() / zetas.len() as f64;
            writeln!(
                f,
                "metricity ζ(t): min {min:.3}, mean {mean:.3}, max {max:.3} \
                 over {} samples",
                zetas.len()
            )?;
        }
        if !self.prr_windows.is_empty() {
            let rates: Vec<f64> = self.prr_windows.iter().map(|w| w.prr).collect();
            let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
            let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = rates.iter().sum::<f64>() / rates.len() as f64;
            writeln!(
                f,
                "windowed prr: min {min:.3}, mean {mean:.3}, max {max:.3} \
                 over {} windows",
                rates.len()
            )?;
        }
        if let Some(scan) = &self.scan_stats {
            writeln!(
                f,
                "reach scans: {} ({:.1} pairs/scan), row-cache hit rate {:.3}",
                scan.scans,
                scan.pairs_per_scan(),
                scan.row_hit_rate()
            )?;
        }
        if !self.telemetry.is_empty() {
            let last = self.telemetry.last().expect("non-empty");
            writeln!(
                f,
                "telemetry: {} samples on the pause grid, queue high-water {}",
                self.telemetry.len(),
                last.queue_high_water
            )?;
        }
        writeln!(
            f,
            "events: {} ({:.0} events/sec)",
            self.stats.events, self.events_per_sec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::NodeId;

    fn record(sent: Tick, tick: Tick) -> DeliveryRecord {
        DeliveryRecord {
            tick,
            sent,
            from: NodeId::new(0),
            to: NodeId::new(1),
            message: 9,
        }
    }

    #[test]
    fn histogram_buckets_latencies() {
        let mut c = MetricsCollector::new();
        for (sent, tick) in [(5, 5), (5, 6), (5, 8), (0, 70)] {
            c.observe(&record(sent, tick));
        }
        let report = c.finish(
            EngineStats::default(),
            100,
            1.0,
            None,
            Duration::from_millis(10),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            None,
            0,
        );
        assert_eq!(report.latency_hist[0], 1, "latency 0");
        assert_eq!(report.latency_hist[1], 1, "latency 1");
        assert_eq!(report.latency_hist[2], 1, "latency 3");
        assert_eq!(report.latency_hist[7], 1, "latency 70 overflows");
        assert_eq!(report.mean_latency, (0.0 + 1.0 + 3.0 + 70.0) / 4.0);
        assert_eq!(report.first_delivery, Some(5));
        assert_eq!(report.last_delivery, Some(70));
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut c = MetricsCollector::new();
        c.observe_all(&[record(1, 1), record(2, 4)]);
        assert_eq!(c.observed(), 2);
        let stats = EngineStats {
            events: 100,
            transmissions: 10,
            deliveries: 2,
            ..EngineStats::default()
        };
        let report = c.finish(
            stats,
            50,
            0.5,
            Some(40),
            Duration::from_millis(5),
            vec![
                ZetaSample {
                    tick: 0,
                    zeta: 2.0,
                    phi: 1.5,
                    nodes: 12,
                },
                ZetaSample {
                    tick: 32,
                    zeta: 2.75,
                    phi: 1.75,
                    nodes: 12,
                },
            ],
            vec![
                PrrWindowSample {
                    tick: 25,
                    transmissions: 6,
                    deliveries: 2,
                    prr: 2.0 / 6.0,
                },
                PrrWindowSample {
                    tick: 50,
                    transmissions: 4,
                    deliveries: 0,
                    prr: 0.0,
                },
            ],
            vec![TelemetrySample {
                tick: 25,
                delta: {
                    let sink = Counters::new();
                    sink.add(Counter::Events, 42);
                    sink.add(Counter::SinrPairs, 7);
                    sink.snapshot()
                },
                queue_high_water: 3,
            }],
            Some(ScanStatsReport {
                scans: 4,
                pairs: 40,
                row_hits: 12,
            }),
            0x00AB_CDEF_0123_4567,
        );
        let text = report.to_string();
        assert!(text.contains("completed at tick 40"));
        assert!(text.contains("prr: 0.5000"));
        assert!(text.contains("metricity ζ(t): min 2.000, mean 2.375, max 2.750"));
        assert!(text.contains("windowed prr: min 0.000"), "{text}");
        assert!(
            text.contains("reach scans: 4 (10.0 pairs/scan), row-cache hit rate 0.750"),
            "{text}"
        );
        assert!(
            text.contains("telemetry: 1 samples on the pause grid, queue high-water 3"),
            "{text}"
        );
        let json = report.to_json().pretty();
        assert!(json.contains("\"completed_at\": 40"));
        assert!(
            json.contains("\"channel_sig\": \"0x00abcdef01234567\""),
            "{json}"
        );
        assert!(json.contains("\"prr\": 0.5"));
        assert!(json.contains("\"zeta_series\""));
        assert!(json.contains("\"zeta\": 2.75"));
        assert!(json.contains("\"nodes\": 12"));
        assert!(json.contains("\"prr_windows\""));
        assert!(json.contains("\"transmissions\": 6"));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"events\": 42"), "{json}");
        assert!(json.contains("\"sinr_pairs\": 7"), "{json}");
        assert!(json.contains("\"scan_stats\""));
        assert!(json.contains("\"pairs_per_scan\": 10"), "{json}");
        assert!(json.contains("\"queue_high_water\": 0"), "stats block");
        // JSON parses back cleanly.
        crate::json::parse(&json).unwrap();
    }

    #[test]
    fn empty_zeta_series_is_omitted_from_json() {
        let report = MetricsCollector::new().finish(
            EngineStats::default(),
            10,
            0.0,
            None,
            Duration::from_secs(0),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            None,
            0,
        );
        let json = report.to_json().pretty();
        assert!(!json.contains("zeta_series"), "{json}");
        assert!(!json.contains("prr_windows"), "{json}");
        assert!(!json.contains("telemetry"), "{json}");
        assert!(!json.contains("scan_stats"), "{json}");
        assert!(!report.to_string().contains("metricity"));
        assert!(!report.to_string().contains("windowed prr"));
    }

    #[test]
    fn empty_collector_is_well_behaved() {
        let report = MetricsCollector::new().finish(
            EngineStats::default(),
            10,
            0.0,
            None,
            Duration::from_secs(0),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            None,
            0,
        );
        assert_eq!(report.mean_latency, 0.0);
        assert!(report.first_delivery.is_none());
        assert!(!report.to_string().is_empty());
    }
}
