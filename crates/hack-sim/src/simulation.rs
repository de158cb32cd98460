//! The simulation driver: component registry and event loop.

use crate::context::SimulationContext;
use crate::event::{ComponentId, Event};
use crate::handler::EventHandler;
use crate::log::EventRecord;
use crate::state::SimState;
use std::cell::RefCell;
use std::rc::Rc;

/// A deterministic discrete-event simulation.
///
/// Owns the virtual clock, the time-ordered event queue and a seeded
/// [`hack_tensor::DetRng`]. Components are registered by name; each gets a
/// [`SimulationContext`] to emit events and, if it implements
/// [`EventHandler`], receives the events addressed to it.
///
/// See the crate-level documentation for a complete ping-pong example.
pub struct Simulation {
    state: Rc<RefCell<SimState>>,
    names: Vec<Rc<str>>,
    handlers: Vec<Option<Rc<RefCell<dyn EventHandler>>>>,
    unhandled: u64,
}

impl Simulation {
    /// Creates an empty simulation whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: Rc::new(RefCell::new(SimState::new(seed))),
            names: Vec::new(),
            handlers: Vec::new(),
            unhandled: 0,
        }
    }

    /// Registers a component name and returns its context. The returned context
    /// can emit events immediately; attach an [`EventHandler`] with
    /// [`Simulation::add_handler`] if the component should also receive them.
    ///
    /// Names must be unique.
    pub fn create_context(&mut self, name: impl Into<String>) -> SimulationContext {
        let name: Rc<str> = Rc::from(name.into());
        assert!(
            self.lookup_id(&name).is_none(),
            "component name `{name}` registered twice"
        );
        let id = self.names.len();
        self.names.push(Rc::clone(&name));
        self.handlers.push(None);
        SimulationContext::new(id, name, Rc::clone(&self.state))
    }

    /// Attaches an event handler to a previously created component name and
    /// returns the component's id.
    pub fn add_handler(
        &mut self,
        name: &str,
        handler: Rc<RefCell<dyn EventHandler>>,
    ) -> ComponentId {
        let id = self
            .lookup_id(name)
            .unwrap_or_else(|| panic!("no context was created for component `{name}`"));
        self.handlers[id] = Some(handler);
        id
    }

    /// Looks up a component id by name.
    pub fn lookup_id(&self, name: &str) -> Option<ComponentId> {
        self.names.iter().position(|n| n.as_ref() == name)
    }

    /// The name a component id was registered under.
    pub fn name(&self, id: ComponentId) -> &str {
        &self.names[id]
    }

    /// Current simulation time (seconds).
    pub fn time(&self) -> f64 {
        self.state.borrow().time()
    }

    /// Delivers the next event. Returns `false` when the queue is empty.
    ///
    /// Events addressed to a component without a handler are counted (see
    /// [`Simulation::unhandled_count`]) and otherwise dropped, like unhandled
    /// messages in most actor systems.
    pub fn step(&mut self) -> bool {
        let event: Option<Event> = self.state.borrow_mut().next_event();
        match event {
            None => false,
            Some(event) => {
                match self.handlers.get(event.dst) {
                    Some(Some(handler)) => handler.borrow_mut().on(event),
                    _ => self.unhandled += 1,
                }
                true
            }
        }
    }

    /// Runs until the event queue is empty; returns the number of events
    /// delivered by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.state.borrow().processed_count();
        while self.step() {}
        self.state.borrow().processed_count() - before
    }

    /// Runs until the queue is empty or the clock passes `deadline`; returns
    /// `true` if events remain (i.e. the deadline cut the run short). The first
    /// event scheduled after the deadline is still delivered — it is what moves
    /// the clock past it.
    pub fn run_until(&mut self, deadline: f64) -> bool {
        loop {
            if !self.step() {
                return false;
            }
            if self.time() > deadline {
                return true;
            }
        }
    }

    /// Total events emitted so far (including canceled and pending ones).
    pub fn emitted_count(&self) -> u64 {
        self.state.borrow().emitted_count()
    }

    /// Total events delivered so far.
    pub fn processed_count(&self) -> u64 {
        self.state.borrow().processed_count()
    }

    /// Events delivered to components that had no handler attached.
    pub fn unhandled_count(&self) -> u64 {
        self.unhandled
    }

    /// Number of events currently pending in the queue.
    pub fn queue_len(&self) -> usize {
        self.state.borrow().queue_len()
    }

    /// Enables or disables structured event logging (disabled by default).
    pub fn set_log_enabled(&mut self, enabled: bool) {
        self.state.borrow_mut().set_log_enabled(enabled);
    }

    /// Drains and returns the structured event log recorded so far.
    pub fn take_log(&mut self) -> Vec<EventRecord> {
        self.state.borrow_mut().take_log()
    }

    /// Streams the structured event log to `writer` as CSV instead of (or in
    /// addition to) collecting it in memory: a header line is written
    /// immediately and every subsequent emission/delivery appends one
    /// [`EventRecord::render_csv`] row. Unlike [`Simulation::set_log_enabled`]
    /// + [`Simulation::take_log`], this never holds the full log in memory.
    ///
    /// Write errors are latched (logging continues as a no-op) and surfaced by
    /// [`Simulation::detach_log_writer`].
    pub fn log_to_writer<W: std::io::Write + 'static>(&mut self, writer: W) {
        self.state.borrow_mut().set_log_writer(Box::new(writer));
    }

    /// Flushes and drops the streaming log sink attached with
    /// [`Simulation::log_to_writer`], reporting the first write error
    /// encountered since it was attached. A no-op `Ok(())` when no sink is
    /// attached.
    pub fn detach_log_writer(&mut self) -> std::io::Result<()> {
        self.state.borrow_mut().detach_log_writer()
    }

    /// Installs the engine probe: a shared mutable value components can reach
    /// from their [`SimulationContext`] via [`SimulationContext::probe`]
    /// (telemetry registries, debug counters, ...). The probe is deliberately
    /// outside the event system — reading or writing it can never perturb the
    /// clock, the queue or the RNG.
    ///
    /// A probe may hold [`SimulationContext`]s, which point back at the
    /// engine; the simulation releases the probe when it drops, so that cycle
    /// does not outlive it.
    pub fn install_probe<T: std::any::Any>(&mut self, probe: Rc<RefCell<T>>) {
        self.state.borrow_mut().set_probe(probe);
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Taken out first so the probe's own drop runs outside the borrow.
        let probe = self.state.borrow_mut().take_probe();
        drop(probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::RecordKind;

    #[derive(Debug)]
    struct Tick {
        n: u32,
    }

    struct Counter {
        ctx: SimulationContext,
        seen: Vec<u32>,
        period: f64,
    }

    impl EventHandler for Counter {
        fn on(&mut self, event: Event) {
            if let Some(tick) = event.get::<Tick>() {
                self.seen.push(tick.n);
                if tick.n > 0 {
                    self.ctx.emit_self(Tick { n: tick.n - 1 }, self.period);
                }
            }
        }
    }

    fn build_counter(sim: &mut Simulation, period: f64) -> Rc<RefCell<Counter>> {
        let ctx = sim.create_context("counter");
        let counter = Rc::new(RefCell::new(Counter {
            ctx,
            seen: Vec::new(),
            period,
        }));
        sim.add_handler("counter", counter.clone());
        counter
    }

    #[test]
    fn self_scheduling_component_counts_down() {
        let mut sim = Simulation::new(1);
        let counter = build_counter(&mut sim, 2.0);
        counter.borrow().ctx.emit_self(Tick { n: 3 }, 1.0);
        let delivered = sim.run();
        assert_eq!(delivered, 4);
        assert_eq!(counter.borrow().seen, vec![3, 2, 1, 0]);
        assert!((sim.time() - 7.0).abs() < 1e-12);
        assert_eq!(sim.queue_len(), 0);
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut sim = Simulation::new(1);
        let counter = build_counter(&mut sim, 1.0);
        let keep = counter.borrow().ctx.emit_self(Tick { n: 0 }, 1.0);
        let cancel = counter.borrow().ctx.emit_self(Tick { n: 10 }, 2.0);
        counter.borrow().ctx.cancel_event(cancel);
        let _ = keep;
        sim.run();
        assert_eq!(counter.borrow().seen, vec![0]);
        assert_eq!(sim.processed_count(), 1);
    }

    #[test]
    fn cancellation_covers_lane_heap_unissued_delivered_and_repeated_ids() {
        struct Recorder {
            seen: Vec<u32>,
        }
        impl EventHandler for Recorder {
            fn on(&mut self, event: Event) {
                self.seen.push(event.get::<Tick>().unwrap().n);
            }
        }
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("recorder");
        let recorder = Rc::new(RefCell::new(Recorder { seen: Vec::new() }));
        sim.add_handler("recorder", recorder.clone());

        // Emitted in time order, 10 and 11 queue in the sorted lane; 12 and
        // 13 precede the lane's tail and queue in the heap.
        ctx.emit_self(Tick { n: 10 }, 5.0);
        let in_lane = ctx.emit_self(Tick { n: 11 }, 6.0);
        let in_heap = ctx.emit_self(Tick { n: 12 }, 1.0);
        let delivered = ctx.emit_self(Tick { n: 13 }, 2.0);
        ctx.cancel_event(in_lane);
        ctx.cancel_event(in_heap);
        ctx.cancel_event(in_heap);
        // Not issued yet: must not cancel the event that later gets this id.
        let unissued = sim.emitted_count();
        ctx.cancel_event(unissued);
        ctx.cancel_event(unissued + 1000);
        // Canceled events stay queued until popped.
        assert_eq!(sim.queue_len(), 4);

        assert!(sim.step());
        assert_eq!(recorder.borrow().seen, vec![13]);
        // Canceling a delivered id is a no-op for every later event.
        ctx.cancel_event(delivered);
        assert_eq!(ctx.emit_self(Tick { n: 14 }, 1.0), unissued);
        ctx.emit_self(Tick { n: 15 }, 10.0);
        sim.run();
        assert_eq!(recorder.borrow().seen, vec![13, 14, 10, 15]);
        assert_eq!((sim.processed_count(), sim.queue_len()), (4, 0));
    }

    #[test]
    fn events_to_handlerless_components_are_counted() {
        let mut sim = Simulation::new(1);
        let passive = sim.create_context("passive");
        passive.emit_self(Tick { n: 1 }, 0.5);
        sim.run();
        assert_eq!(sim.unhandled_count(), 1);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_delay_is_rejected_at_emit() {
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("c");
        ctx.emit_self(Tick { n: 0 }, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn negative_delay_is_rejected_at_emit() {
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("c");
        ctx.emit_self(Tick { n: 0 }, -1.0);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_component_names_are_rejected() {
        let mut sim = Simulation::new(1);
        let _a = sim.create_context("dup");
        let _b = sim.create_context("dup");
    }

    #[test]
    fn log_records_emissions_and_deliveries_in_order() {
        let mut sim = Simulation::new(1);
        sim.set_log_enabled(true);
        let counter = build_counter(&mut sim, 1.0);
        counter.borrow().ctx.emit_self(Tick { n: 1 }, 0.25);
        sim.run();
        let log = sim.take_log();
        // 2 emissions (n=1, n=0) + 2 deliveries.
        assert_eq!(log.len(), 4);
        assert_eq!(log[0].kind, RecordKind::Emitted);
        assert_eq!(log[1].kind, RecordKind::Delivered);
        assert!(log[0].payload_type.ends_with("Tick"));
        assert!(!log[0].render().is_empty());
        // Draining empties the log.
        assert!(sim.take_log().is_empty());
    }

    #[test]
    fn same_seed_same_event_trace() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(seed);
            sim.set_log_enabled(true);
            let counter = build_counter(&mut sim, 0.5);
            // Delays drawn from the engine RNG make the trace seed-dependent.
            let delay = counter.borrow().ctx.gen_range(0.0, 1.0);
            counter.borrow().ctx.emit_self(Tick { n: 5 }, delay);
            sim.run();
            sim.take_log()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn small_payloads_are_delivered_inline() {
        struct Probe {
            inline_seen: Vec<bool>,
        }
        impl EventHandler for Probe {
            fn on(&mut self, event: Event) {
                self.inline_seen.push(event.payload_is_inline());
            }
        }
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("probe");
        ctx.emit_self(Tick { n: 1 }, 0.5);
        ctx.emit_self([0u64; 4], 0.75);
        let probe = Rc::new(RefCell::new(Probe {
            inline_seen: Vec::new(),
        }));
        sim.add_handler("probe", probe.clone());
        sim.run();
        // The 32-byte array spills to the heap; the tick stays inline.
        assert_eq!(probe.borrow().inline_seen, vec![true, false]);
    }

    #[test]
    fn dropping_the_simulation_frees_a_probe_holding_a_context() {
        // The probe owns a context, which points back at the engine state
        // that owns the probe: dropping the simulation must break the cycle.
        struct Blackboard {
            _ctx: SimulationContext,
        }
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("blackboard");
        let probe = Rc::new(RefCell::new(Blackboard { _ctx: ctx }));
        let weak = Rc::downgrade(&probe);
        sim.install_probe(probe);
        drop(sim);
        assert!(
            weak.upgrade().is_none(),
            "the probe outlived its simulation"
        );
    }

    #[test]
    fn log_streams_to_writer_without_collecting() {
        #[derive(Clone, Default)]
        struct SharedBuf(Rc<RefCell<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf::default();
        let mut sim = Simulation::new(1);
        sim.log_to_writer(buf.clone());
        let counter = build_counter(&mut sim, 1.0);
        counter.borrow().ctx.emit_self(Tick { n: 1 }, 0.25);
        sim.run();
        sim.detach_log_writer().unwrap();

        let csv = String::from_utf8(buf.0.borrow().clone()).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], EventRecord::CSV_HEADER);
        // 2 emissions + 2 deliveries.
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("emit,0.25,0,0,0,Tick"), "{}", lines[1]);
        assert!(lines[2].starts_with("deliver,0.25,"), "{}", lines[2]);
        // The in-memory log was never enabled: nothing was collected.
        assert!(sim.take_log().is_empty());
        // Detaching again is a clean no-op.
        assert!(sim.detach_log_writer().is_ok());
    }

    #[test]
    fn log_writer_errors_are_latched_and_reported() {
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut sim = Simulation::new(1);
        sim.log_to_writer(FailingWriter);
        let counter = build_counter(&mut sim, 1.0);
        counter.borrow().ctx.emit_self(Tick { n: 0 }, 0.5);
        sim.run(); // must not panic despite every write failing
        let err = sim.detach_log_writer().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn render_variants_are_aligned_and_parseable() {
        let record = EventRecord {
            id: 7,
            time: 1.5,
            src: 0,
            dst: 3,
            payload_type: "some::module::Tick",
            kind: crate::log::RecordKind::Emitted,
        };
        // Fixed-width columns: two records of different magnitude align.
        let wide = EventRecord {
            id: 123456,
            time: 98765.25,
            ..record.clone()
        };
        let pos = |s: &str| s.find("(Tick)").unwrap();
        assert_eq!(pos(&record.render()), pos(&wide.render()));
        assert_eq!(record.render_csv(), "emit,1.5,7,0,3,Tick");
        assert_eq!(
            EventRecord::CSV_HEADER.split(',').count(),
            record.render_csv().split(',').count()
        );
    }

    #[test]
    fn probe_reaches_installed_value_and_is_silent_otherwise() {
        let mut sim = Simulation::new(1);
        let ctx = sim.create_context("c");
        // No probe installed: closure must not run.
        assert_eq!(ctx.probe::<u32, _>(|_, _| unreachable!("no probe")), None);

        let probe = Rc::new(RefCell::new(0u32));
        sim.install_probe(probe.clone());
        // Wrong type: still None.
        assert_eq!(
            ctx.probe::<String, _>(|_, _| unreachable!("wrong type")),
            None
        );
        // Right type: observes the clock and mutates the probe.
        ctx.emit_self(Tick { n: 0 }, 2.0);
        sim.run();
        let seen = ctx.probe::<u32, _>(|time, v| {
            *v += 5;
            time
        });
        assert_eq!(seen, Some(2.0));
        assert_eq!(*probe.borrow(), 5);
        // Probing never perturbs the engine.
        assert_eq!(sim.queue_len(), 0);
        assert_eq!(sim.emitted_count(), 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(1);
        let counter = build_counter(&mut sim, 10.0);
        counter.borrow().ctx.emit_self(Tick { n: 100 }, 0.0);
        let remaining = sim.run_until(35.0);
        assert!(remaining);
        assert!(sim.queue_len() > 0);
        assert!(sim.time() <= 45.0);
    }
}
