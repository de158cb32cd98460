//! The time-ordered event queue: a sorted run lane and a compact key heap in
//! front of a free-list slab of event bodies.
//!
//! Queue order lives in 24-byte `EventKey`s — exactly the `(time, id)` pair
//! the ordering is defined on plus a slot index; heapifying whole [`Event`]s
//! would move ~56 bytes per sift step — while the event bodies are
//! parked in a slab (`Vec<Option<EventNode>>`) whose slots are recycled
//! through a free list, so node storage is reused instead of reallocated as
//! events churn. A key goes to one of two places:
//!
//! * the **lane**, a `VecDeque` kept sorted by `(time, id)`: a key that does
//!   not precede the lane's tail is appended there in O(1). Events pushed in
//!   time order — a trace's arrivals, seeded up front — never enter the heap.
//! * the **heap**, a `BinaryHeap` of keys, for everything else (in a cluster
//!   run, the in-flight events scheduled before the last queued arrival).
//!
//! `pop` takes the earlier of the lane front and the heap top, so the heap is
//! only as deep as the out-of-order traffic. Delivery order is that of a
//! `BinaryHeap<Event>` (the order of `impl Ord for Event`) by construction:
//! both parts pop by `(time, id)` with `f64::total_cmp`, and ids are unique.
//! The tests keep such a heap as the ordering oracle.

use crate::event::{ComponentId, Event, EventId};
use crate::payload::Payload;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Queue key: the total order `(time, id)` plus the slab slot of the body.
#[derive(Debug, Clone, Copy)]
struct EventKey {
    time: f64,
    id: EventId,
    slot: u32,
}

impl EventKey {
    /// Delivery order: `(time, id)` ascending.
    fn delivery_cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.id.cmp(&other.id))
    }

    /// Whether `self` is delivered before `other`.
    fn precedes(&self, other: &Self) -> bool {
        self.delivery_cmp(other).is_lt()
    }
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
        other.delivery_cmp(self)
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Event body parked in the slab while its key waits in the lane or the heap.
struct EventNode {
    src: ComponentId,
    dst: ComponentId,
    payload_type: &'static str,
    payload: Payload,
}

/// Slab-backed event queue (see module docs).
#[derive(Default)]
pub struct SlabEventQueue {
    lane: VecDeque<EventKey>,
    heap: BinaryHeap<EventKey>,
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
        let key = EventKey {
            time: event.time,
            id: event.id,
            slot,
        };
        match self.lane.back() {
            Some(tail) if key.precedes(tail) => self.heap.push(key),
            _ => self.lane.push_back(key),
        }
    }

    /// Removes and returns the earliest event (by `(time, id)`).
    pub fn pop(&mut self) -> Option<Event> {
        let from_lane = match (self.lane.front(), self.heap.peek()) {
            (Some(front), Some(top)) => front.precedes(top),
            (lane, _) => lane.is_some(),
        };
        let key = if from_lane {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }?;
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

    /// Number of queued events (lane and heap).
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether the queue is empty (lane and heap).
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
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

    /// Pops one event from each queue and checks they agree, together with
    /// the queue lengths before and after.
    fn pop_both(slab: &mut SlabEventQueue, boxed: &mut BoxedEventQueue) -> Option<Event> {
        assert_eq!(slab.len(), boxed.len());
        assert_eq!(slab.is_empty(), boxed.is_empty());
        let (a, b) = (slab.pop(), boxed.pop());
        assert_eq!(slab.len(), boxed.len());
        match (a, b) {
            (None, None) => None,
            (Some(a), Some(b)) => {
                assert_eq!((a.id, a.time.to_bits()), (b.id, b.time.to_bits()));
                Some(a)
            }
            (a, b) => panic!("queue lengths diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn sorted_pushes_take_the_lane_and_others_the_heap() {
        let mut q = SlabEventQueue::default();
        for (id, time) in [(0, 1.0), (1, 2.0), (2, 2.0), (3, 4.0)] {
            q.push(event(id, time));
        }
        assert_eq!((q.lane.len(), q.heap.len()), (4, 0));
        // Before the tail: heap. At or after the tail: lane.
        q.push(event(4, 2.0));
        q.push(event(5, 4.0));
        assert_eq!((q.lane.len(), q.heap.len(), q.len()), (5, 1, 6));
        let order: Vec<EventId> = std::iter::from_fn(|| q.pop()).map(|e| e.id).collect();
        assert_eq!(order, vec![0, 1, 2, 4, 3, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn lane_and_heap_order_matches_boxed_queue_after_a_sorted_batch() {
        // A sorted batch seeded up front (like a trace's arrivals) fills the
        // lane; churn at times that collide with queued lane entries then
        // fills the heap, so pops tie-break between the two parts by id.
        let mut lane_heap_ties = 0;
        for seed in 0..6 {
            let mut rng = DetRng::new(2000 + seed);
            let mut slab = SlabEventQueue::default();
            let mut boxed = BoxedEventQueue::new();
            let mut next_id = 0u64;
            let mut arrival = 0.0f64;
            for _ in 0..300 {
                arrival += (rng.range_usize(0, 3) as f64) * 0.5;
                slab.push(event(next_id, arrival));
                boxed.push(event(next_id, arrival));
                next_id += 1;
            }
            assert_eq!((slab.lane.len(), slab.heap.len()), (300, 0));
            let mut clock = 0.0f64;
            for _ in 0..1500 {
                if rng.chance(0.45) {
                    let time = clock + (rng.range_usize(0, 8) as f64) * 0.5;
                    slab.push(event(next_id, time));
                    boxed.push(event(next_id, time));
                    next_id += 1;
                } else {
                    if let (Some(front), Some(top)) = (slab.lane.front(), slab.heap.peek()) {
                        lane_heap_ties += usize::from(front.time == top.time);
                    }
                    if let Some(e) = pop_both(&mut slab, &mut boxed) {
                        clock = e.time;
                    }
                }
            }
            while pop_both(&mut slab, &mut boxed).is_some() {}
            assert!(slab.is_empty() && slab.lane.is_empty() && slab.heap.is_empty());
        }
        assert!(lane_heap_ties > 100, "only {lane_heap_ties} lane/heap ties");
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
                    clock = pop_both(&mut slab, &mut boxed).unwrap().time;
                }
            }
            while pop_both(&mut slab, &mut boxed).is_some() {}
        }
    }
}
