//! Decode-side memory accounting, batching, completion — and failures.

use crate::components::ClusterState;
use crate::events::{
    DecodeFinished, FlowCompleted, ReplicaFailed, ReplicaRecovered, TransferCompleted,
};
use hack_sim::{Event, EventHandler};
use std::cell::RefCell;
use std::rc::Rc;

/// One decode replica: admits transferred requests into its continuous batch
/// (with congestion slowdown beyond the nominal batch size), accounts KV
/// memory, completes requests (draining the memory-wait queue), and — under
/// fault injection — fails and recovers, aborting and re-queueing its in-flight
/// requests.
pub(crate) struct DecodeReplica {
    pub index: usize,
    pub cluster: Rc<RefCell<ClusterState>>,
}

/// Admits `req` into replica `d`'s continuous batch: memory already reserved,
/// KV data fully landed. Shared by the flat fabric's [`TransferCompleted`]
/// path and the link-graph fabric's [`FlowCompleted`] path.
fn admit_to_batch(cs: &mut ClusterState, d: usize, req: usize, now: f64) {
    cs.decode[d].active += 1;
    cs.decode[d].resident_tokens += cs.requests[req].total_tokens();
    let group = cs.decode[d].group;
    let (decode_t, dequant_t) = cs.decode_durations(group, &cs.requests[req]);
    // Congestion: when more sequences are resident than the group's
    // nominal batch, every iteration takes proportionally longer.
    let nominal = cs.decode_models[group].params.decode_batch;
    let congestion = (cs.decode[d].active as f64 / nominal).max(1.0);
    let decode_t = decode_t * congestion;
    let dequant_t = dequant_t * congestion;
    cs.states[req].decode_time = decode_t;
    cs.states[req].dequant_time = dequant_t;
    let finish = cs.decode_ctxs[d].emit_at(
        DecodeFinished { req },
        cs.decode_ctxs[d].id(),
        now + decode_t + dequant_t,
    );
    cs.states[req].pending_decode = Some((finish, now));
}

impl DecodeReplica {
    fn on_transfer_completed(&self, req: usize, now: f64) {
        let d = self.index;
        let mut cs = self.cluster.borrow_mut();

        if cs.decode[d].failed || !cs.states[req].reserved {
            // The KV data landed on a replica that failed while the transfer
            // was in flight (its reservation was dropped at failure time, even
            // if the replica has since recovered empty). Re-queue through the
            // normal admission path: the prefill side still holds the CPU copy
            // and re-transfers it.
            cs.states[req].requeues += 1;
            cs.requeued += 1;
            cs.states[req].pipelined_transfer_end = None;
            if let Some(tel) = &mut cs.tel {
                tel.transfer_landed();
                tel.requeued(d, req, now);
            }
            cs.try_dispatch_to_decode(req, now);
            return;
        }
        if let Some(tel) = &mut cs.tel {
            tel.transfer_landed();
        }
        admit_to_batch(&mut cs, d, req, now);
    }

    /// A fair-shared flow delivered its last byte (link-graph fabric only).
    fn on_flow_completed(&self, req: usize, now: f64) {
        let d = self.index;
        let mut cs = self.cluster.borrow_mut();
        let cs = &mut *cs;
        let flow = cs.fabric.finish_flow(req, now);

        if cs.states[req].transfer_start.is_none() {
            // Pipelined flow landing while its prefill still runs: record the
            // landing; `PrefillFinished` admits it with zero exposed
            // communication (the in-flight gauge drops on that delivery).
            cs.states[req].pipelined_transfer_end = Some(now);
            return;
        }
        // Exposed communication: from the charging epoch's start (reservation,
        // or prefill completion for pipelined flows) to the landing — backoff
        // gaps and aborted partial attempts included.
        let t0 = cs.states[req].transfer_start.take().expect("checked above");
        cs.states[req].comm_time += now - t0;
        cs.states[req].transfer_remaining = None;
        if let Some(tel) = &mut cs.tel {
            if let Some(f) = &flow {
                tel.flow_finished(f.src, req, f.started, now);
            }
            tel.transfer_landed();
        }

        if cs.decode[d].failed || !cs.states[req].reserved {
            // Same as the flat fabric's landed-on-a-dead-replica path.
            cs.states[req].requeues += 1;
            cs.requeued += 1;
            if let Some(tel) = &mut cs.tel {
                tel.requeued(d, req, now);
            }
            cs.try_dispatch_to_decode(req, now);
            return;
        }
        admit_to_batch(cs, d, req, now);
    }

    fn on_decode_finished(&self, req: usize, now: f64) {
        let d = self.index;
        let mut cs = self.cluster.borrow_mut();
        cs.decode[d].kv_used -= cs.states[req].kv_reserve_bytes;
        cs.decode[d].active -= 1;
        cs.decode[d].reservations -= 1;
        cs.decode[d].resident_tokens = cs.decode[d]
            .resident_tokens
            .saturating_sub(cs.requests[req].total_tokens());
        cs.states[req].reserved = false;
        let pending = cs.states[req].pending_decode.take();
        debug_assert!(!cs.states[req].done, "request {req} finished twice");
        cs.states[req].finish_time = now;
        cs.states[req].done = true;
        cs.completed.push(req);
        let started = pending.map_or(now, |(_, started)| started);
        let jct = now - cs.requests[req].arrival;
        if let Some(tel) = &mut cs.tel {
            tel.decode_finished(d, req, started, now, jct);
        }

        // Session bookkeeping: the finished request's full context becomes
        // (or refreshes) its session's cached prefix on this replica.
        cs.cache_on_decode_finished(req, d, now);

        // Freed memory: admit waiting requests in FIFO order while they fit.
        cs.drain_waiting(now);

        // A draining replica that just went idle completes its scale-down.
        if cs.decode[d].draining {
            cs.maybe_finish_drain(d, now);
        }

        // Children gated on this request's completion arrive now.
        cs.release_children(req, now);
    }

    fn on_failed(&self, fault: usize, now: f64) {
        let d = self.index;
        let mut cs = self.cluster.borrow_mut();
        cs.injected_failures += 1;
        cs.decode[d].failed = true;
        if let Some(tel) = &mut cs.tel {
            tel.replica_failed(d, now);
        }

        // Blast radius: every request whose reservation this replica held —
        // in-flight decodes plus transfers still heading here. Transfers the
        // same fault's fabric cut already aborted (they carry partial
        // progress in `transfer_remaining`) are not counted twice.
        let affected = (0..cs.states.len())
            .filter(|&r| {
                !cs.states[r].done
                    && cs.states[r].decode_replica == d
                    && cs.states[r].reserved
                    && cs.states[r].transfer_remaining.is_none()
            })
            .count();
        cs.fault_tallies[fault].requests_aborted += affected;

        // Abort every in-flight decode on this replica: cancel its completion
        // event and charge the wasted time to the decode stage.
        let aborted: Vec<usize> = (0..cs.states.len())
            .filter(|&r| {
                !cs.states[r].done
                    && cs.states[r].decode_replica == d
                    && cs.states[r].pending_decode.is_some()
            })
            .collect();
        let group = cs.decode[d].group;
        for &r in &aborted {
            let (event_id, started) = cs.states[r].pending_decode.take().expect("filtered above");
            cs.decode_ctxs[d].cancel_event(event_id);
            if let Some(tel) = &mut cs.tel {
                tel.decode_aborted(d, r, started, now);
            }
            cs.states[r].aborted_decode += now - started;
            cs.aborted_decode_by_group[group] += now - started;
            cs.states[r].decode_time = 0.0;
            cs.states[r].dequant_time = 0.0;
            cs.states[r].reserved = false;
            cs.states[r].requeues += 1;
            cs.requeued += 1;
        }

        // Reservations held by transfers still in flight toward this replica
        // are gone too; those requests re-queue when their transfer lands.
        for r in 0..cs.states.len() {
            if !cs.states[r].done && cs.states[r].decode_replica == d {
                cs.states[r].reserved = false;
            }
        }

        // The replica's memory contents died with it (peak_kv keeps its
        // high-watermark for the memory report).
        cs.decode[d].kv_used = 0.0;
        cs.decode[d].active = 0;
        cs.decode[d].resident_tokens = 0;
        cs.decode[d].reservations = 0;

        // Cached prefixes died with the memory, and every in-flight hit
        // promised against them downgrades to the miss path (kv_used is
        // already zeroed wholesale, so no per-entry subtraction here).
        if cs.cache.is_some() {
            for r in 0..cs.states.len() {
                if !cs.states[r].done && cs.states[r].prefix.is_some_and(|h| h.replica == d) {
                    cs.release_hit(r);
                }
            }
            cs.invalidate_replica_cache(d);
        }

        // A draining replica whose remaining work the fault just aborted is
        // now idle: its scale-down completes at the failure instant.
        if cs.decode[d].draining {
            cs.maybe_finish_drain(d, now);
        }

        // Re-dispatch the aborted requests onto the surviving fleet (or the
        // memory-wait queue when nothing fits).
        for r in aborted {
            cs.try_dispatch_to_decode(r, now);
        }
    }

    fn on_recovered(&self, fault: usize, now: f64) {
        let d = self.index;
        let mut cs = self.cluster.borrow_mut();
        cs.decode[d].failed = false;
        if let Some(tel) = &mut cs.tel {
            tel.replica_recovered(d, now);
        }
        // A replica the autoscaler powered down while it was failed stays
        // out of the fleet: only a ReplicaProvisioned join brings it back.
        if cs.decode[d].scaled_out {
            return;
        }
        // Recovery-drain sensor: when requests queued for memory during the
        // outage, time how long the queue takes to empty from here.
        if !cs.waiting_for_memory.is_empty() {
            cs.pending_drain.push((fault, now));
        }
        // Freshly available capacity: admit waiting requests.
        cs.drain_waiting(now);
    }
}

impl EventHandler for DecodeReplica {
    fn on(&mut self, event: Event) {
        let now = event.time;
        if let Some(&TransferCompleted { req }) = event.get::<TransferCompleted>() {
            self.on_transfer_completed(req, now);
        } else if let Some(&FlowCompleted { req }) = event.get::<FlowCompleted>() {
            self.on_flow_completed(req, now);
        } else if let Some(&DecodeFinished { req }) = event.get::<DecodeFinished>() {
            self.on_decode_finished(req, now);
        } else if let Some(&ReplicaFailed { fault }) = event.get::<ReplicaFailed>() {
            self.on_failed(fault, now);
        } else if let Some(&ReplicaRecovered { fault }) = event.get::<ReplicaRecovered>() {
            self.on_recovered(fault, now);
        }
    }
}
