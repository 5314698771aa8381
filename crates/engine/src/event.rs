//! The event queue: a priority queue over [`Tick`]s with a total,
//! deterministic ordering.
//!
//! Events at the same tick are ordered by *class* — churn first, then
//! wakes, then reception resolution, then deliveries — and within a class
//! by insertion sequence number. The ordering is part of the engine's
//! determinism contract: two runs with the same seed push the same events
//! in the same order and therefore pop them in the same order.

use std::cmp::Ordering;

use decay_core::NodeId;

use crate::codec::{Codec, CodecError};

/// Simulation time, in discrete ticks. A tick plays the role of a slot in
/// the slot-synchronous simulator: transmissions within one tick contend
/// with each other under SINR.
pub type Tick = u64;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// One churn step: the dynamics model flips at most one node.
    ChurnStep,
    /// A node's scheduled wake-up; stale if the incarnation mismatches.
    Wake {
        /// The node to wake.
        node: NodeId,
        /// The incarnation the wake was scheduled in.
        incarnation: u32,
    },
    /// Resolve all transmissions of the current tick under SINR.
    Resolve,
    /// A message arriving at a listener (possibly after latency).
    Deliver {
        /// The receiving node.
        to: NodeId,
        /// The transmitting node.
        from: NodeId,
        /// The payload.
        message: u64,
        /// The received signal power.
        power: f64,
        /// The receiver's incarnation at resolve time; the delivery is
        /// dropped if the receiver has since left and rejoined.
        incarnation: u32,
        /// The tick the transmission was resolved (arrival minus latency)
        /// — what delivery-latency metrics are measured against.
        sent: Tick,
    },
}

impl Event {
    /// Intra-tick ordering class (lower fires first).
    fn class(&self) -> u8 {
        match self {
            Event::ChurnStep => 0,
            Event::Wake { .. } => 1,
            Event::Resolve => 2,
            Event::Deliver { .. } => 3,
        }
    }
}

/// An event with its firing time and deterministic tie-break key.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedEvent {
    /// When the event fires.
    pub tick: Tick,
    /// Intra-tick class (see [`Event`]'s ordering contract).
    pub class: u8,
    /// Insertion sequence number — the final tie-break.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl QueuedEvent {
    /// Wraps an event with its firing tick and sequence number.
    pub fn new(tick: Tick, seq: u64, event: Event) -> Self {
        QueuedEvent {
            tick,
            class: event.class(),
            seq,
            event,
        }
    }

    fn key(&self) -> (Tick, u8, u64) {
        (self.tick, self.class, self.seq)
    }
}

impl Codec for Event {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Event::ChurnStep => out.push(0),
            Event::Wake { node, incarnation } => {
                out.push(1);
                node.encode(out);
                incarnation.encode(out);
            }
            Event::Resolve => out.push(2),
            Event::Deliver {
                to,
                from,
                message,
                power,
                incarnation,
                sent,
            } => {
                out.push(3);
                to.encode(out);
                from.encode(out);
                message.encode(out);
                power.encode(out);
                incarnation.encode(out);
                sent.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(Event::ChurnStep),
            1 => Ok(Event::Wake {
                node: NodeId::decode(input)?,
                incarnation: u32::decode(input)?,
            }),
            2 => Ok(Event::Resolve),
            3 => Ok(Event::Deliver {
                to: NodeId::decode(input)?,
                from: NodeId::decode(input)?,
                message: u64::decode(input)?,
                power: f64::decode(input)?,
                incarnation: u32::decode(input)?,
                sent: Tick::decode(input)?,
            }),
            tag => Err(CodecError::InvalidTag { tag, ty: "Event" }),
        }
    }
}

impl Codec for QueuedEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tick.encode(out);
        self.seq.encode(out);
        self.event.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let tick = Tick::decode(input)?;
        let seq = u64::decode(input)?;
        let event = Event::decode(input)?;
        Ok(QueuedEvent::new(tick, seq, event))
    }
}

impl Eq for QueuedEvent {}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_tick_then_class_then_seq() {
        let wake = QueuedEvent::new(
            5,
            10,
            Event::Wake {
                node: NodeId::new(0),
                incarnation: 0,
            },
        );
        let resolve_same_tick = QueuedEvent::new(5, 2, Event::Resolve);
        let churn_same_tick = QueuedEvent::new(5, 99, Event::ChurnStep);
        let later = QueuedEvent::new(6, 0, Event::ChurnStep);
        // Class dominates seq within a tick.
        assert!(wake < resolve_same_tick);
        assert!(churn_same_tick < wake);
        // Tick dominates everything.
        assert!(resolve_same_tick < later);
    }

    #[test]
    fn seq_breaks_ties_within_class() {
        let a = QueuedEvent::new(3, 1, Event::Resolve);
        let b = QueuedEvent::new(3, 2, Event::Resolve);
        assert!(a < b);
    }
}
