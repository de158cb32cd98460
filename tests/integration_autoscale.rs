//! Integration: elastic decode fleets end to end.
//!
//! Scale-downs must drain — a replica ordered away finishes its in-flight
//! decodes and honours its KV reservations before leaving, so shrinking the
//! fleet never loses a request. `ScalingPolicyKind::Off` must reproduce the
//! scaling-free simulator bit-for-bit (the retained-reference contract), an
//! armed-but-inert controller must match it too, and every scaling decision —
//! being pure clock-and-state logic — must land bit-identically across engine
//! layouts and across repeat runs.

use hack_cluster::SimulationResult;
use hack_core::prelude::*;
use std::sync::Arc;

fn experiment() -> AutoscaleExperiment {
    AutoscaleExperiment {
        num_requests: 40,
        ..AutoscaleExperiment::paper_sweep()
    }
}

fn assert_conserved(result: &SimulationResult, total: usize, label: &str) {
    assert_eq!(
        result.records.len() + result.rejected_requests + result.aborted_requests,
        total,
        "{label}: completed {} + rejected {} + aborted {} != total {total}",
        result.records.len(),
        result.rejected_requests,
        result.aborted_requests
    );
}

#[test]
fn scale_downs_drain_without_losing_requests() {
    // Every (shape, policy) cell of the sweep must conserve requests: with no
    // faults injected, nothing is rejected or aborted, so draining replicas
    // out of the fleet mid-run loses nothing — their in-flight decodes and
    // reserved transfers finish before the replica leaves.
    let e = experiment();
    for shape in TraceShape::all() {
        for scaling in ScalingPolicyKind::all(e.per_replica_rps) {
            let result = e.run_cell(shape, scaling, Method::hack());
            assert_conserved(&result, e.num_requests, shape.name());
            assert_eq!(
                result.records.len(),
                e.num_requests,
                "{}/{}: a faultless run completes everything",
                shape.name(),
                scaling.name()
            );
        }
    }
    // The sweep actually shrinks the fleet somewhere: the troughs of both
    // shapes leave the decode fleet idle enough to drain replicas.
    let shrunk = e
        .sweep(Method::hack())
        .into_iter()
        .any(|o| o.scale_downs > 0);
    assert!(shrunk, "the sweep must exercise the drain path");
}

#[test]
fn off_is_bit_identical_to_the_scaling_free_simulator() {
    // The retained-reference contract: `ScalingPolicyKind::Off` skips the
    // controller entirely, so its run — cost sensors included — equals the
    // pre-scaling simulator (`PolicyConfig::default()`) bit for bit.
    let e = experiment();
    let requests = Arc::new(e.trace(TraceShape::Diurnal));
    let off = e.simulation_config(ScalingPolicyKind::Off, Method::hack());
    let mut plain = off;
    plain.policy = PolicyConfig::default();
    assert_eq!(
        Simulator::with_requests(off, requests.clone()).run(),
        Simulator::with_requests(plain, requests.clone()).run(),
        "Off must not perturb the scaling-free run"
    );

    // An armed controller whose watermarks can never fire must also match:
    // ticking and probing without ordering changes nothing observable.
    let inert = e.simulation_config(
        ScalingPolicyKind::Threshold {
            high: 1e18,
            low: -1.0,
        },
        Method::hack(),
    );
    let inert_run = Simulator::with_requests(inert, requests.clone()).run();
    assert_eq!(
        Simulator::with_requests(off, requests).run(),
        inert_run,
        "an inert controller must be bit-identical to Off"
    );
    assert_eq!((inert_run.scale_ups, inert_run.scale_downs), (0, 0));
}

#[test]
fn scaling_decisions_are_engine_independent_and_reproducible() {
    // Scaling decisions are pure clock-and-state logic on the control tick, so
    // the full result — scale events, billed dollars, every JCT — must be
    // bit-identical across repeat runs. (`golden_digests` pins the autoscale
    // grid bit for bit.)
    let e = experiment();
    for shape in TraceShape::all() {
        for scaling in ScalingPolicyKind::all(e.per_replica_rps) {
            let requests = Arc::new(e.trace(shape));
            let config = e.simulation_config(scaling, Method::hack());
            let run = || Simulator::with_requests(config, requests.clone()).run();
            assert_eq!(
                run(),
                run(),
                "{}/{}: repeat runs diverged",
                shape.name(),
                scaling.name()
            );
        }
    }
}

#[test]
fn draining_stops_the_meter() {
    // Dollars are racked uptime × price: a drained replica's meter stops at
    // the drain instant, so — at equal makespan, which this over-provisioned
    // fleet keeps across policies — a run that only scaled down bills
    // strictly less than the static fleet.
    let e = experiment();
    let outcomes = e.sweep(Method::hack());
    for shape in TraceShape::all() {
        let of = |name: &str| {
            outcomes
                .iter()
                .find(|o| o.shape == shape && o.policy.name() == name)
                .copied()
                .expect("sweep covers every policy")
        };
        let off = of("off");
        for o in outcomes.iter().filter(|o| o.shape == shape) {
            if o.scale_downs > 0 && o.scale_ups == 0 && o.makespan_s == off.makespan_s {
                assert!(
                    o.gpu_dollars < off.gpu_dollars,
                    "{}/{}: draining must stop the meter (${} vs static ${})",
                    shape.name(),
                    o.policy.name(),
                    o.gpu_dollars,
                    off.gpu_dollars
                );
            }
        }
        // The claim is not vacuous: some policy actually drains on each shape
        // without paying it back with a longer run.
        assert!(
            outcomes.iter().any(|o| o.shape == shape
                && o.scale_downs > 0
                && o.scale_ups == 0
                && o.makespan_s == off.makespan_s
                && o.gpu_dollars < off.gpu_dollars),
            "{}: no drain-only run undercut the static fleet",
            shape.name()
        );
    }
}
