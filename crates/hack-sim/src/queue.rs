//! The time-ordered event queue: a free-list slab behind a compact key heap.
//!
//! Heapifying whole [`Event`] structs would move ~56 bytes per sift step. The
//! slab queue instead heapifies 24-byte `EventKey`s — exactly the `(time, id)`
//! pair the ordering is defined on plus a slot index — and parks the event
//! bodies in a slab (`Vec<Option<EventNode>>`) whose slots are recycled
//! through a free list, so node storage is reused instead of reallocated as
//! events churn.
//!
//! Delivery order is that of a `BinaryHeap<Event>` (the order of
//! `impl Ord for Event`) by construction: both pop by `(time, id)` with
//! `f64::total_cmp`, and ids are unique. The tests keep such a heap as the
//! ordering oracle.

use crate::event::{ComponentId, Event, EventId};
use crate::payload::Payload;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap key: the total order `(time, id)` plus the slab slot of the body.
#[derive(Debug, Clone, Copy)]
struct EventKey {
    time: f64,
    id: EventId,
    slot: u32,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for EventKey {}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the max-heap pops the earliest (time, id) — the same
        // order as the seed's `impl Ord for Event`.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Event body parked in the slab while the key waits in the heap.
struct EventNode {
    src: ComponentId,
    dst: ComponentId,
    payload_type: &'static str,
    payload: Payload,
}

/// Slab-backed event queue (see module docs).
#[derive(Default)]
pub struct SlabEventQueue {
    keys: BinaryHeap<EventKey>,
    nodes: Vec<Option<EventNode>>,
    free: Vec<u32>,
}

impl SlabEventQueue {
    /// Inserts an event.
    pub fn push(&mut self, event: Event) {
        let node = EventNode {
            src: event.src,
            dst: event.dst,
            payload_type: event.payload_type,
            payload: event.payload,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.nodes[slot as usize].is_none());
                self.nodes[slot as usize] = Some(node);
                slot
            }
            None => {
                let slot = u32::try_from(self.nodes.len()).expect("slab overflow");
                self.nodes.push(Some(node));
                slot
            }
        };
        self.keys.push(EventKey {
            time: event.time,
            id: event.id,
            slot,
        });
    }

    /// Removes and returns the earliest event (by `(time, id)`).
    pub fn pop(&mut self) -> Option<Event> {
        let key = self.keys.pop()?;
        let node = self.nodes[key.slot as usize]
            .take()
            .expect("slab slot vacated while its key was still queued");
        self.free.push(key.slot);
        Some(Event {
            id: key.id,
            time: key.time,
            src: node.src,
            dst: node.dst,
            payload_type: node.payload_type,
            payload: node.payload,
        })
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Capacity of the node slab (allocated once, then recycled).
    pub fn slab_capacity(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_tensor::DetRng;

    /// Ordering oracle: whole events heapified directly, popped by
    /// `impl Ord for Event`.
    type BoxedEventQueue = BinaryHeap<Event>;

    fn event(id: EventId, time: f64) -> Event {
        Event {
            id,
            time,
            src: 0,
            dst: 1,
            payload_type: "u64",
            payload: Payload::new(id),
        }
    }

    #[test]
    fn slab_pops_in_time_then_id_order() {
        let mut q = SlabEventQueue::default();
        q.push(event(3, 5.0));
        q.push(event(1, 1.0));
        q.push(event(2, 1.0));
        q.push(event(0, 9.0));
        let order: Vec<EventId> = std::iter::from_fn(|| q.pop()).map(|e| e.id).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn slab_preserves_event_bodies() {
        let mut q = SlabEventQueue::default();
        q.push(Event {
            id: 5,
            time: 2.5,
            src: 3,
            dst: 7,
            payload_type: "u64",
            payload: Payload::new(99u64),
        });
        let e = q.pop().unwrap();
        assert_eq!((e.id, e.time, e.src, e.dst), (5, 2.5, 3, 7));
        assert_eq!(e.get::<u64>(), Some(&99));
        assert!(q.pop().is_none());
    }

    #[test]
    fn slab_recycles_slots_through_the_free_list() {
        let mut q = SlabEventQueue::default();
        // Steady-state churn: queue depth stays <= 4, so the slab must too.
        let mut next_id = 0u64;
        for round in 0..100 {
            for _ in 0..4 {
                q.push(event(next_id, round as f64));
                next_id += 1;
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.slab_capacity() <= 4,
            "slab grew to {} slots for queue depth 4",
            q.slab_capacity()
        );
    }

    #[test]
    fn slab_order_matches_boxed_queue_on_random_workload() {
        // The slab queue must reproduce the BinaryHeap<Event> delivery order
        // exactly, including ties and interleaved push/pop churn.
        for seed in 0..6 {
            let mut rng = DetRng::new(1000 + seed);
            let mut slab = SlabEventQueue::default();
            let mut boxed = BoxedEventQueue::new();
            let mut next_id = 0u64;
            let mut clock = 0.0f64;
            for _ in 0..500 {
                if rng.chance(0.6) || slab.is_empty() {
                    // Times collide frequently to exercise the id tie-break.
                    let time = clock + (rng.range_usize(0, 4) as f64) * 0.5;
                    slab.push(event(next_id, time));
                    boxed.push(event(next_id, time));
                    next_id += 1;
                } else {
                    let a = slab.pop().unwrap();
                    let b = boxed.pop().unwrap();
                    assert_eq!((a.id, a.time.to_bits()), (b.id, b.time.to_bits()));
                    clock = a.time;
                }
            }
            loop {
                match (slab.pop(), boxed.pop()) {
                    (None, None) => break,
                    (Some(a), Some(b)) => {
                        assert_eq!((a.id, a.time.to_bits()), (b.id, b.time.to_bits()))
                    }
                    (a, b) => panic!("queue lengths diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
