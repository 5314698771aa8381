//! Gain-trace import/export: replaying externally measured gain
//! matrices bit-identically.
//!
//! A [`GainTrace`] is a sequence of dense `n × n` gain-matrix *frames*,
//! each tagged with the coherence block it takes effect at; a frame
//! holds until the next one (the last frame holds forever). Traces
//! round-trip through a hand-rolled JSON format (the shared
//! [`decay_core::json`] codec, whose number printer is
//! shortest-round-trip exact), so a measured matrix exported on one
//! machine replays with the *same bits* — and therefore the same engine
//! trace hash — anywhere.
//!
//! [`TraceChannel`] plays a trace back as a [`TemporalBackend`];
//! [`GainTrace::capture`] samples any other temporal backend into a
//! trace, closing the loop: capture a generative channel, ship the JSON,
//! replay it bit-identically.

use std::fmt;

use decay_core::json::{self, int, num, obj, s, JsonValue};
use decay_core::telemetry::Counters;
use decay_core::NodeId;
use decay_engine::Tick;

use crate::temporal::{signature_of, TemporalBackend};

/// Header string identifying the trace format.
const FORMAT: &str = "decay-gain-trace-v1";

/// One dense gain-matrix frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GainFrame {
    /// First coherence block this frame covers.
    pub block: u64,
    /// Row-major `n × n` decays (`gains[from * n + to]`).
    pub gains: Vec<f64>,
}

/// A replayable sequence of measured gain matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct GainTrace {
    n: usize,
    block_len: Tick,
    frames: Vec<GainFrame>,
}

/// Why a trace failed to import.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    /// What was wrong.
    pub message: String,
}

impl TraceError {
    fn new(message: impl Into<String>) -> Self {
        TraceError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid gain trace: {}", self.message)
    }
}

impl std::error::Error for TraceError {}

impl GainTrace {
    /// Builds a validated trace from frames.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] unless: `n ≥ 2`, `block_len ≥ 1`, frames
    /// are non-empty with the first at block 0 and blocks strictly
    /// increasing, every frame is `n²` values, and every frame satisfies
    /// the decay-space contract (zero diagonal, finite positive
    /// off-diagonal).
    pub fn from_frames(
        n: usize,
        block_len: Tick,
        frames: Vec<GainFrame>,
    ) -> Result<Self, TraceError> {
        if n < 2 {
            return Err(TraceError::new("needs at least two nodes"));
        }
        if block_len == 0 {
            return Err(TraceError::new("block_len must be at least one tick"));
        }
        if frames.is_empty() {
            return Err(TraceError::new("needs at least one frame"));
        }
        if frames[0].block != 0 {
            return Err(TraceError::new("the first frame must cover block 0"));
        }
        for w in frames.windows(2) {
            if w[1].block <= w[0].block {
                return Err(TraceError::new("frame blocks must be strictly increasing"));
            }
        }
        for (k, frame) in frames.iter().enumerate() {
            if frame.gains.len() != n * n {
                return Err(TraceError::new(format!(
                    "frame {k} has {} gains, expected {}",
                    frame.gains.len(),
                    n * n
                )));
            }
            for i in 0..n {
                for j in 0..n {
                    let g = frame.gains[i * n + j];
                    if i == j {
                        if g != 0.0 {
                            return Err(TraceError::new(format!(
                                "frame {k}: diagonal ({i},{i}) must be 0, got {g}"
                            )));
                        }
                    } else if !(g.is_finite() && g > 0.0) {
                        return Err(TraceError::new(format!(
                            "frame {k}: gain ({i},{j}) = {g} violates the decay-space contract"
                        )));
                    }
                }
            }
        }
        Ok(GainTrace {
            n,
            block_len,
            frames,
        })
    }

    /// Samples `blocks` coherence blocks (`0..blocks`) of a temporal
    /// backend into a trace. Consecutive bit-identical frames are
    /// deduplicated (the earlier frame simply holds), so slow channels
    /// export compactly.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is 0.
    pub fn capture(channel: &dyn TemporalBackend, blocks: u64) -> GainTrace {
        assert!(blocks > 0, "capture needs at least one block");
        let n = channel.len();
        let mut frames: Vec<GainFrame> = Vec::new();
        for block in 0..blocks {
            let mut gains = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        gains[i * n + j] =
                            channel.decay_in_block(block, NodeId::new(i), NodeId::new(j));
                    }
                }
            }
            let same_as_last = frames.last().is_some_and(|f| bits_equal(&f.gains, &gains));
            if !same_as_last {
                frames.push(GainFrame { block, gains });
            }
        }
        GainTrace {
            n,
            block_len: channel.block_len(),
            frames,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Coherence block length in ticks.
    pub fn block_len(&self) -> Tick {
        self.block_len
    }

    /// The frames, in block order.
    pub fn frames(&self) -> &[GainFrame] {
        &self.frames
    }

    /// The frame in force during `block` (the last frame at or before
    /// it).
    pub fn frame_at(&self, block: u64) -> &GainFrame {
        let idx = self
            .frames
            .partition_point(|f| f.block <= block)
            .saturating_sub(1);
        &self.frames[idx]
    }

    /// Serializes the trace as a [`JsonValue`] (field order fixed, so
    /// output is byte-stable).
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("format", s(FORMAT)),
            ("n", int(self.n as u64)),
            ("block_len", int(self.block_len)),
            (
                "frames",
                JsonValue::Array(
                    self.frames
                        .iter()
                        .map(|f| {
                            obj(vec![
                                ("block", int(f.block)),
                                (
                                    "gains",
                                    JsonValue::Array(f.gains.iter().map(|&g| num(g)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the trace as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Decodes a trace from a parsed JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on a malformed or contract-violating
    /// document.
    pub fn from_json(v: &JsonValue) -> Result<Self, TraceError> {
        let get = |key: &str| {
            v.get(key)
                .ok_or_else(|| TraceError::new(format!("missing field \"{key}\"")))
        };
        match get("format")?.as_str() {
            Some(FORMAT) => {}
            _ => return Err(TraceError::new(format!("format must be \"{FORMAT}\""))),
        }
        if let Some(entries) = v.entries() {
            for (key, _) in entries {
                if !["format", "n", "block_len", "frames"].contains(&key.as_str()) {
                    return Err(TraceError::new(format!("unknown field \"{key}\"")));
                }
            }
        }
        let n = get("n")?
            .as_u64()
            .and_then(|x| usize::try_from(x).ok())
            .ok_or_else(|| TraceError::new("n must be a non-negative integer"))?;
        let block_len = get("block_len")?
            .as_u64()
            .ok_or_else(|| TraceError::new("block_len must be a non-negative integer"))?;
        let frames = get("frames")?
            .as_array()
            .ok_or_else(|| TraceError::new("frames must be an array"))?
            .iter()
            .enumerate()
            .map(|(k, f)| {
                if let Some(entries) = f.entries() {
                    for (key, _) in entries {
                        if !["block", "gains"].contains(&key.as_str()) {
                            return Err(TraceError::new(format!(
                                "frame {k}: unknown field \"{key}\""
                            )));
                        }
                    }
                }
                let block = f
                    .get("block")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| TraceError::new(format!("frame {k}: bad block")))?;
                let gains = f
                    .get("gains")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| TraceError::new(format!("frame {k}: bad gains")))?
                    .iter()
                    .map(|g| {
                        g.as_f64()
                            .ok_or_else(|| TraceError::new(format!("frame {k}: non-number gain")))
                    })
                    .collect::<Result<Vec<f64>, TraceError>>()?;
                Ok(GainFrame { block, gains })
            })
            .collect::<Result<Vec<_>, TraceError>>()?;
        GainTrace::from_frames(n, block_len, frames)
    }

    /// Parses a trace from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on malformed JSON or an invalid trace.
    pub fn from_json_str(text: &str) -> Result<Self, TraceError> {
        let v = json::parse(text).map_err(|e| TraceError::new(e.to_string()))?;
        Self::from_json(&v)
    }

    /// A signature over every bit of the trace (replaying the same trace
    /// always yields the same channel signature).
    pub fn signature(&self) -> u64 {
        let mut words = vec![0x0071_24CEu64, self.n as u64, self.block_len];
        for f in &self.frames {
            words.push(f.block);
            words.extend(f.gains.iter().map(|g| g.to_bits()));
        }
        signature_of(&words)
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replays a [`GainTrace`] as a temporal backend.
#[derive(Debug)]
pub struct TraceChannel {
    trace: GainTrace,
    telemetry: Counters,
}

impl TraceChannel {
    /// Wraps a trace for replay.
    pub fn new(trace: GainTrace) -> Self {
        TraceChannel {
            trace,
            telemetry: Counters::new(),
        }
    }

    /// The replayed trace.
    pub fn trace(&self) -> &GainTrace {
        &self.trace
    }
}

impl TemporalBackend for TraceChannel {
    fn len(&self) -> usize {
        self.trace.n
    }

    fn block_len(&self) -> Tick {
        self.trace.block_len
    }

    fn decay_in_block(&self, block: u64, from: NodeId, to: NodeId) -> f64 {
        self.trace.frame_at(block).gains[from.index() * self.trace.n + to.index()]
    }

    fn telemetry(&self) -> &Counters {
        &self.telemetry
    }

    fn signature(&self) -> u64 {
        self.trace.signature()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> GainTrace {
        let n = 3;
        let frame = |scale: f64| GainFrame {
            block: 0,
            gains: (0..9)
                .map(|k| {
                    let (i, j) = (k / 3, k % 3);
                    if i == j {
                        0.0
                    } else {
                        scale * ((i as f64) - (j as f64)).abs()
                    }
                })
                .collect(),
        };
        let mut f0 = frame(1.0);
        let mut f1 = frame(2.5);
        let mut f2 = frame(0.125);
        f0.block = 0;
        f1.block = 2;
        f2.block = 5;
        GainTrace::from_frames(n, 4, vec![f0, f1, f2]).unwrap()
    }

    #[test]
    fn frames_hold_until_replaced() {
        let ch = TraceChannel::new(demo_trace());
        let (p, q) = (NodeId::new(0), NodeId::new(2));
        assert_eq!(ch.decay_in_block(0, p, q), 2.0);
        assert_eq!(ch.decay_in_block(1, p, q), 2.0, "frame 0 holds");
        assert_eq!(ch.decay_in_block(2, p, q), 5.0);
        assert_eq!(ch.decay_in_block(4, p, q), 5.0);
        assert_eq!(ch.decay_in_block(5, p, q), 0.25);
        assert_eq!(ch.decay_in_block(999, p, q), 0.25, "last frame forever");
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let trace = demo_trace();
        let text = trace.to_json_string();
        let back = GainTrace::from_json_str(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_json_string(), text, "printing is a fixed point");
        assert_eq!(back.signature(), trace.signature());
        // Awkward but exact doubles survive the trip.
        let mut frames = trace.frames().to_vec();
        frames[0].gains[1] = 0.1 + 0.2; // 0.30000000000000004
        frames[0].gains[3] = f64::MIN_POSITIVE;
        let tricky = GainTrace::from_frames(3, 4, frames).unwrap();
        let back = GainTrace::from_json_str(&tricky.to_json_string()).unwrap();
        assert_eq!(back, tricky);
    }

    #[test]
    fn capture_replays_a_generative_channel() {
        let ch = TraceChannel::new(demo_trace());
        let captured = GainTrace::capture(&ch, 8);
        // Dedup: 8 blocks but only 3 distinct frames.
        assert_eq!(captured.frames().len(), 3);
        let replay = TraceChannel::new(captured);
        for block in 0..12 {
            for i in 0..3 {
                for j in 0..3 {
                    assert_eq!(
                        replay
                            .decay_in_block(block, NodeId::new(i), NodeId::new(j))
                            .to_bits(),
                        ch.decay_in_block(block, NodeId::new(i), NodeId::new(j))
                            .to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_traces_are_rejected() {
        let ok = demo_trace();
        let frames = ok.frames().to_vec();
        // Wrong first block.
        let mut f = frames.clone();
        f[0].block = 1;
        assert!(GainTrace::from_frames(3, 4, f).is_err());
        // Non-increasing blocks.
        let mut f = frames.clone();
        f[2].block = 2;
        assert!(GainTrace::from_frames(3, 4, f).is_err());
        // Non-zero diagonal.
        let mut f = frames.clone();
        f[0].gains[0] = 1.0;
        assert!(GainTrace::from_frames(3, 4, f).is_err());
        // Negative off-diagonal.
        let mut f = frames.clone();
        f[1].gains[1] = -2.0;
        assert!(GainTrace::from_frames(3, 4, f).is_err());
        // Wrong matrix size.
        let mut f = frames;
        f[0].gains.pop();
        assert!(GainTrace::from_frames(3, 4, f).is_err());
        // Degenerate shapes.
        assert!(GainTrace::from_frames(1, 4, vec![]).is_err());
        assert!(GainTrace::from_frames(3, 0, ok.frames().to_vec()).is_err());
        assert!(GainTrace::from_frames(3, 4, vec![]).is_err());
        // JSON-level rejections.
        assert!(GainTrace::from_json_str("{}").is_err());
        assert!(GainTrace::from_json_str("not json").is_err());
        let tampered = ok.to_json_string().replace("decay-gain-trace-v1", "v0");
        assert!(GainTrace::from_json_str(&tampered).is_err());
    }
}
