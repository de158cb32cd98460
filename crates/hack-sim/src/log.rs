//! Structured event logging.
//!
//! When enabled (see [`crate::Simulation::set_log_enabled`]), the engine records
//! one entry per emitted and per delivered event. The log is the ground truth for
//! determinism checks: two runs with the same seed and the same component logic
//! must produce identical logs.

use crate::event::{ComponentId, EventId};

/// Whether a record captures an emission or a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// The event was scheduled.
    Emitted,
    /// The event was popped from the queue and handed to its destination.
    Delivered,
}

/// One structured log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event id.
    pub id: EventId,
    /// Scheduled/delivery time.
    pub time: f64,
    /// Emitting component.
    pub src: ComponentId,
    /// Destination component.
    pub dst: ComponentId,
    /// `std::any::type_name` of the payload.
    pub payload_type: &'static str,
    /// Emission or delivery.
    pub kind: RecordKind,
}

impl EventRecord {
    /// Strips module paths from the payload type for readability.
    fn short_payload(&self) -> &'static str {
        self.payload_type
            .rsplit("::")
            .next()
            .unwrap_or(self.payload_type)
    }

    /// Compact single-line rendering, e.g. for debugging failed runs. All
    /// columns are fixed-width so consecutive records line up.
    pub fn render(&self) -> String {
        let arrow = match self.kind {
            RecordKind::Emitted => "~>",
            RecordKind::Delivered => "->",
        };
        format!(
            "[{:>14.6}] #{:<8} {:>4} {} {:<4} ({})",
            self.time,
            self.id,
            self.src,
            arrow,
            self.dst,
            self.short_payload()
        )
    }
}
