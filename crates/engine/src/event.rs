//! The event queue: a total, deterministic ordering over [`Tick`]s.
//!
//! Events at the same tick are ordered by *class* — churn first, then
//! wakes, then reception resolution, then deliveries — and within a class
//! by insertion sequence number. The ordering is part of the engine's
//! determinism contract: two runs with the same seed push the same events
//! in the same order and therefore pop them in the same order.
//!
//! [`EventQueue`] realizes that order without comparing events in the
//! common case: events for the tick being drained wait in one FIFO lane
//! per class, and only events for later ticks go through a binary heap.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use decay_core::NodeId;

use crate::codec::{Codec, CodecError};

/// Simulation time, in discrete ticks. A tick plays the role of a slot:
/// transmissions within one tick contend with each other under SINR.
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

/// Number of intra-tick classes (see [`Event::class`]).
const CLASSES: usize = 4;

/// The engine's event queue: pops in `(tick, class, seq)` order, the
/// order a `BinaryHeap<Reverse<QueuedEvent>>` pops in, but most events
/// never touch a heap.
///
/// Events at the tick being drained sit in one FIFO lane per class;
/// events for later ticks wait in a heap. A pop takes the front of the
/// lowest non-empty lane. When every lane is empty it pops the heap's
/// minimum, makes that tick current, and moves the tick's remaining heap
/// events into the lanes in heap order. A push at the current tick goes
/// to the back of its class lane.
///
/// Lane order is heap order because pushes never go back in time (a
/// push is at or after the last popped tick) and sequence numbers
/// strictly increase: every event a lane receives has a larger `seq`
/// than the ones already in it.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// The tick the lanes hold; `None` before the first pop, so events
    /// pushed then (or restored) all go through the heap.
    current: Option<Tick>,
    lanes: [VecDeque<QueuedEvent>; CLASSES],
    /// Events for ticks after `current`.
    later: BinaryHeap<Reverse<QueuedEvent>>,
}

impl EventQueue {
    /// Queues an event. Its tick must not precede the last popped one.
    pub(crate) fn push(&mut self, qe: QueuedEvent) {
        debug_assert!(
            self.current.is_none_or(|now| qe.tick >= now),
            "event pushed into the past"
        );
        if self.current == Some(qe.tick) {
            self.lanes[usize::from(qe.class)].push_back(qe);
        } else {
            self.later.push(Reverse(qe));
        }
    }

    /// Removes and returns the next event if it fires at or before `end`.
    pub(crate) fn pop_through(&mut self, end: Tick) -> Option<QueuedEvent> {
        if self.current.is_some_and(|now| now <= end) {
            if let Some(qe) = self.lanes.iter_mut().find_map(VecDeque::pop_front) {
                return Some(qe);
            }
        }
        // The lanes are empty or hold a tick after `end`; every heap
        // event is later still.
        let head = self.later.peek_mut()?;
        if head.0.tick > end {
            return None;
        }
        let Reverse(qe) = PeekMut::pop(head);
        self.current = Some(qe.tick);
        while let Some(next) = self.later.peek_mut() {
            if next.0.tick != qe.tick {
                break;
            }
            let Reverse(next) = PeekMut::pop(next);
            self.lanes[usize::from(next.class)].push_back(next);
        }
        Some(qe)
    }

    /// Number of queued events.
    pub(crate) fn len(&self) -> usize {
        self.later.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Every queued event in pop order (the checkpoint form).
    pub(crate) fn to_sorted_vec(&self) -> Vec<QueuedEvent> {
        let mut all: Vec<QueuedEvent> = self
            .lanes
            .iter()
            .flatten()
            .chain(self.later.iter().map(|Reverse(qe)| qe))
            .cloned()
            .collect();
        // Keys are unique (a checkpoint restores only with distinct
        // sequence numbers), so the unstable sort is deterministic.
        all.sort_unstable();
        all
    }
}

/// Restore: every event goes to the heap, in any order.
impl FromIterator<QueuedEvent> for EventQueue {
    fn from_iter<I: IntoIterator<Item = QueuedEvent>>(events: I) -> Self {
        EventQueue {
            later: events.into_iter().map(Reverse).collect(),
            ..EventQueue::default()
        }
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
    use crate::rng::EngineRng;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// An event of intra-tick class `class`, its payload tagged by `seq`.
    fn event_of_class(class: u8, seq: u64) -> Event {
        match class {
            0 => Event::ChurnStep,
            1 => Event::Wake {
                node: NodeId::new(seq as usize % 7),
                incarnation: 0,
            },
            2 => Event::Resolve,
            _ => Event::Deliver {
                to: NodeId::new(seq as usize % 5),
                from: NodeId::new(seq as usize % 3),
                message: seq,
                power: 1.0,
                incarnation: 0,
                sent: 0,
            },
        }
    }

    /// Drives an [`EventQueue`] and the `BinaryHeap` it replaces through
    /// one random script, as the engine drives its queue: pushes at the
    /// tick being drained (any class, so a wake or `Resolve` can arrive
    /// while deliveries drain) or at later ticks, pops through random
    /// horizons, and restores from the checkpoint form shuffled. Returns
    /// the first difference.
    fn run_script(seed: u64, steps: usize) -> Result<(), String> {
        let mut rng = EngineRng::for_stream(seed, 0);
        let mut queue = EventQueue::default();
        let mut heap = BinaryHeap::new();
        let (mut now, mut seq) = (0, 0);
        for step in 0..steps {
            match rng.gen_range(0..10) {
                0..=4 => {
                    let tick = now + if rng.gen() { 0 } else { rng.gen_range(1..4) };
                    let qe = QueuedEvent::new(tick, seq, event_of_class(rng.gen_range(0..4), seq));
                    seq += 1;
                    queue.push(qe.clone());
                    heap.push(Reverse(qe));
                }
                5..=8 => {
                    let end = now + rng.gen_range(0..3);
                    let expected = match heap.peek() {
                        Some(Reverse(head)) if head.tick <= end => heap.pop().map(|r| r.0),
                        _ => None,
                    };
                    let popped = queue.pop_through(end);
                    if popped != expected {
                        return Err(format!("step {step}: popped {popped:?}, heap {expected:?}"));
                    }
                    // The engine's clock: the event's tick, or `end`
                    // once nothing is due.
                    now = popped.map_or(end, |qe| qe.tick);
                }
                _ => {
                    let mut events = queue.to_sorted_vec();
                    let mut reference: Vec<QueuedEvent> =
                        heap.iter().map(|Reverse(qe)| qe.clone()).collect();
                    reference.sort();
                    if events != reference {
                        return Err(format!("step {step}: checkpoint form differs"));
                    }
                    events.shuffle(&mut rng);
                    queue = events.into_iter().collect();
                }
            }
            if queue.len() != heap.len() {
                return Err(format!(
                    "step {step}: len {} vs {}",
                    queue.len(),
                    heap.len()
                ));
            }
        }
        while let Some(Reverse(expected)) = heap.pop() {
            let popped = queue.pop_through(Tick::MAX);
            if popped.as_ref() != Some(&expected) {
                return Err(format!("final drain: popped {popped:?}, heap {expected:?}"));
            }
        }
        match queue.pop_through(Tick::MAX) {
            None => Ok(()),
            Some(extra) => Err(format!("queue kept {extra:?}")),
        }
    }

    proptest! {
        #[test]
        fn queue_pops_in_heap_order(seed in 0u64..u64::MAX, steps in 0usize..400) {
            if let Err(diff) = run_script(seed, steps) {
                prop_assert!(false, "seed {seed}: {diff}");
            }
        }
    }

    #[test]
    fn a_lower_class_pushed_mid_drain_fires_next() {
        let mut queue = EventQueue::default();
        for seq in 0..3 {
            queue.push(QueuedEvent::new(4, seq, event_of_class(3, seq)));
        }
        let first = queue.pop_through(4).expect("due");
        assert_eq!((first.tick, first.seq), (4, 0));
        // Delivering at tick 4 schedules a wake and a resolve at tick 4.
        queue.push(QueuedEvent::new(4, 3, Event::Resolve));
        queue.push(QueuedEvent::new(4, 4, event_of_class(1, 4)));
        queue.push(QueuedEvent::new(5, 5, Event::ChurnStep));
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop_through(4))
            .map(|qe| qe.seq)
            .collect();
        assert_eq!(order, [4, 3, 1, 2]);
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.pop_through(5).map(|qe| qe.seq), Some(5));
    }

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
