//! Telemetry determinism pins (ROADMAP: observability).
//!
//! Three guarantees, each pinned here:
//!
//! 1. **Off is off**: the default [`TelemetryConfig::Off`] returns no
//!    telemetry, and a telemetry-on run's [`SimulationResult`] is
//!    **bit-identical** to the off run of the same seed — recording observes
//!    the simulation, it never perturbs it (no extra RNG draws, no time
//!    perturbation, makespan included).
//! 2. **Reproducibility**: the same seed produces the *identical*
//!    span/instant/series streams on every run. (`golden_digests` pins one
//!    stream bit for bit.)
//! 3. **Faithful costs**: the prefill and quantization spans last exactly
//!    what the direct cost formulas say, to ~1e-9 relative — the memoized
//!    cost tables behind them change nothing a trace reader can see.

use hack_cluster::{
    CacheConfig, ClusterConfig, FaultDomain, FaultEvent, FaultPlan, PolicyConfig, SimulationConfig,
    Simulator, TelemetryConfig,
};
use hack_metrics::telemetry::Telemetry;
use hack_model::cost::KvMethodProfile;
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::trace::{TraceConfig, TraceGenerator};

fn base_config(n: usize, rps: f64) -> SimulationConfig {
    let model = ModelKind::Llama31_70B;
    SimulationConfig {
        cluster: ClusterConfig::paper_default(model, GpuKind::A10G),
        trace: TraceConfig {
            dataset: Dataset::Cocktail,
            rps,
            num_requests: n,
            max_context: model.spec().max_context,
            seed: 77,
        },
        profile: KvMethodProfile::hack(),
        policy: PolicyConfig::default(),
        faults: FaultPlan::none(),
        telemetry: TelemetryConfig::Off,
        cache: CacheConfig::Off,
    }
}

fn with_telemetry(mut config: SimulationConfig, interval: f64) -> SimulationConfig {
    config.telemetry = TelemetryConfig::with_interval(interval);
    config
}

fn failure_config(n: usize) -> SimulationConfig {
    SimulationConfig {
        faults: FaultPlan::new(&[FaultEvent::transient(
            FaultDomain::DecodeReplica(0),
            40.0,
            400.0,
        )]),
        ..base_config(n, 0.08)
    }
}

#[test]
fn telemetry_off_returns_none_and_matches_the_plain_run() {
    let sim = Simulator::new(base_config(40, 0.08));
    let (result, telemetry) = sim.run_with_telemetry();
    assert!(telemetry.is_none(), "Off must not allocate telemetry");
    assert_eq!(result, sim.run(), "run_with_telemetry is the same run");
}

#[test]
fn telemetry_on_leaves_the_result_bit_identical() {
    for (label, config) in [
        ("plain", base_config(50, 0.08)),
        ("overloaded", base_config(50, 3.0)),
        ("failure-injected", failure_config(60)),
    ] {
        let off = Simulator::new(config).run();
        // Deliberately awkward intervals: ticks that collide with event times
        // and ticks that fire thousands of times must both be invisible.
        for interval in [0.5, 10.0, 1000.0] {
            let (on, telemetry) =
                Simulator::new(with_telemetry(config, interval)).run_with_telemetry();
            let telemetry = telemetry.expect("On returns telemetry");
            assert_eq!(
                off, on,
                "{label}: telemetry (interval {interval}) must not perturb the result"
            );
            assert!(!telemetry.is_empty(), "{label}: something was recorded");
        }
    }
}

/// Structural + exact-timestamp equality of two telemetry captures.
fn assert_streams_identical(a: &Telemetry, b: &Telemetry, label: &str) {
    assert_eq!(a.tracks(), b.tracks(), "{label}: track registry");
    assert_eq!(a.spans(), b.spans(), "{label}: span stream");
    assert_eq!(a.instants(), b.instants(), "{label}: instant stream");
    assert_eq!(a.series(), b.series(), "{label}: time series");
    assert_eq!(
        a.counter("completed"),
        b.counter("completed"),
        "{label}: completion counter"
    );
    assert_eq!(
        a.counter("sampler_ticks"),
        b.counter("sampler_ticks"),
        "{label}: tick counter"
    );
}

#[test]
fn span_streams_are_identical_across_engine_modes() {
    for config in [with_telemetry(base_config(50, 0.08), 5.0), {
        with_telemetry(failure_config(50), 5.0)
    }] {
        let (first_result, first) = Simulator::new(config).run_with_telemetry();
        let (again_result, again) = Simulator::new(config).run_with_telemetry();
        assert_eq!(first_result, again_result);
        assert_streams_identical(
            &first.expect("first telemetry"),
            &again.expect("repeat telemetry"),
            "repeat run",
        );
    }
}

#[test]
fn span_streams_match_across_cost_modes_within_tolerance() {
    // The table-backed run's prefill-side spans against the formulas the
    // tables memoize (single prefill group, prefix cache off: the prompt is
    // the whole input).
    let config = with_telemetry(base_config(50, 0.08), 5.0);
    let (_, telemetry) = Simulator::new(config).run_with_telemetry();
    let telemetry = telemetry.unwrap();
    let requests = TraceGenerator::new(config.trace).generate();
    let model = config.cluster.prefill_cost_model(0);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-12);
    let mut checked = 0;
    for span in telemetry.spans() {
        let prompt = requests[span.req as usize].input_len;
        let expected = match span.name {
            "prefill_exec" => model.prefill_time(prompt, &config.profile),
            "quantize" => model.quantization_time(prompt, &config.profile),
            _ => continue,
        };
        assert!(
            close(span.end - span.start, expected),
            "{} span of request {} lasts {} vs {expected}",
            span.name,
            span.req,
            span.end - span.start
        );
        checked += 1;
    }
    assert_eq!(checked, 2 * 50, "every request traces both spans");
}

#[test]
fn captured_streams_are_sane() {
    let config = with_telemetry(failure_config(60), 5.0);
    let (result, telemetry) = Simulator::new(config).run_with_telemetry();
    let tel = telemetry.unwrap();

    // Every component kind produced at least one complete span.
    for cat in ["frontend", "prefill", "fabric", "decode"] {
        assert!(tel.span_count_in(cat) > 0, "no spans in category {cat}");
    }
    // One completion event and histogram entry per completed request.
    assert_eq!(tel.counter("completed") as usize, result.records.len());
    let jct = tel.histogram("jct_seconds").expect("JCT histogram");
    assert_eq!(jct.count() as usize, result.records.len());
    // The failure was observed.
    assert!(tel
        .instants()
        .iter()
        .any(|i| i.name == "replica_failed" && i.time == 40.0));
    // Spans are well-formed and inside the run.
    for s in tel.spans() {
        assert!(s.end >= s.start && s.start >= 0.0, "malformed span {s:?}");
        assert!(s.end <= result.makespan + 1e-9, "span outruns the makespan");
    }
    // Sampled series: every sampler tick sampled every series, occupancy is a
    // fraction, and every series starts at t=0.
    let ticks = tel.counter("sampler_ticks");
    assert!(ticks > 0, "sampler never ticked");
    for series in tel.series() {
        assert_eq!(series.points.len() as u64, ticks, "{}", series.name);
        assert_eq!(series.points[0].0, 0.0, "{} misses the origin", series.name);
        if series.name.contains("kv_occupancy") {
            assert!(series.points.iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));
        }
    }
}
