//! Internal shared state: clock, event queue, cancellation bitset, RNG, log.

use crate::event::{ComponentId, Event, EventId};
use crate::log::{EventRecord, RecordKind};
use crate::payload::Payload;
use crate::queue::SlabEventQueue;
use hack_tensor::DetRng;

pub(crate) struct SimState {
    clock: f64,
    events: SlabEventQueue,
    /// Cancellation marks, one bit per event id (`id / 64`, `id % 64`); grown
    /// on demand up to the highest canceled id, so empty on runs that never
    /// cancel.
    canceled: Vec<u64>,
    next_event_id: EventId,
    processed: u64,
    rng: DetRng,
    log: Option<Vec<EventRecord>>,
}

impl SimState {
    pub fn new(seed: u64) -> Self {
        Self {
            clock: 0.0,
            events: SlabEventQueue::default(),
            canceled: Vec::new(),
            next_event_id: 0,
            processed: 0,
            rng: DetRng::new(seed),
            log: None,
        }
    }

    pub fn time(&self) -> f64 {
        self.clock
    }

    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    pub fn set_log_enabled(&mut self, enabled: bool) {
        if enabled {
            self.log.get_or_insert_with(Vec::new);
        } else {
            self.log = None;
        }
    }

    pub fn take_log(&mut self) -> Vec<EventRecord> {
        match &mut self.log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    /// Panics when `time` is non-finite or lies in the past — a silent NaN or a
    /// rewound clock would corrupt the queue order, so both are rejected at the
    /// source.
    pub fn add_event(
        &mut self,
        payload: Payload,
        payload_type: &'static str,
        src: ComponentId,
        dst: ComponentId,
        time: f64,
    ) -> EventId {
        assert!(
            time.is_finite(),
            "cannot schedule `{payload_type}` at non-finite time {time} (src {src} -> dst {dst})"
        );
        assert!(
            time >= self.clock,
            "cannot schedule `{payload_type}` at {time}, before the current time {} (src {src} -> dst {dst})",
            self.clock
        );
        let id = self.next_event_id;
        self.next_event_id += 1;
        self.events.push(Event {
            id,
            time,
            src,
            dst,
            payload_type,
            payload,
        });
        if let Some(log) = &mut self.log {
            log.push(EventRecord {
                id,
                time,
                src,
                dst,
                payload_type,
                kind: RecordKind::Emitted,
            });
        }
        id
    }

    /// Marks a scheduled event as canceled; it will be dropped when popped.
    ///
    /// Ids that were never issued are ignored — otherwise they would lie in
    /// wait and silently cancel whatever future event is eventually assigned
    /// the same id. Marking an already-delivered id sets a bit nothing reads
    /// again, so the marks never exceed one bit per emitted id.
    pub fn cancel_event(&mut self, id: EventId) {
        if id < self.next_event_id {
            let (word, bit) = bit_of(id);
            if word >= self.canceled.len() {
                self.canceled.resize(word + 1, 0);
            }
            self.canceled[word] |= bit;
        }
    }

    /// Clears `id`'s cancellation mark, returning whether it was set.
    fn take_canceled(&mut self, id: EventId) -> bool {
        let (word, bit) = bit_of(id);
        match self.canceled.get_mut(word) {
            Some(marks) if *marks & bit != 0 => {
                *marks &= !bit;
                true
            }
            _ => false,
        }
    }

    /// Pops the next live event and advances the clock to it.
    pub fn next_event(&mut self) -> Option<Event> {
        while let Some(event) = self.events.pop() {
            if self.take_canceled(event.id) {
                continue;
            }
            debug_assert!(event.time >= self.clock, "event queue went backwards");
            self.clock = event.time;
            self.processed += 1;
            if let Some(log) = &mut self.log {
                log.push(EventRecord {
                    id: event.id,
                    time: event.time,
                    src: event.src,
                    dst: event.dst,
                    payload_type: event.payload_type,
                    kind: RecordKind::Delivered,
                });
            }
            return Some(event);
        }
        None
    }

    pub fn queue_len(&self) -> usize {
        self.events.len()
    }

    pub fn emitted_count(&self) -> u64 {
        self.next_event_id
    }

    pub fn processed_count(&self) -> u64 {
        self.processed
    }
}

/// Word index and mask of `id` in the cancellation bitset.
#[inline]
fn bit_of(id: EventId) -> (usize, u64) {
    ((id / 64) as usize, 1 << (id % 64))
}
