//! The simulator workloads: one [`Simulator`] per configuration, timed over
//! warm `run()` repeats, and the traced measurements of the crates beneath
//! it (hack-workload, hack-model cost tables, the hack-sim engine,
//! hack-cluster and its opt-in layers).

use crate::report::{derive_seed, peak_rss_mb, rss_mb, Metrics, Outcome};
use crate::spans::Tracer;
use crate::stats::median;
use hack_cluster::{
    AvailabilityModel, CacheConfig, FaultDomain, FaultEvent, FaultPlan, LinkGraphSpec, MtbfSpec,
    ScalingPolicyKind, SimulationConfig, SimulationResult, Simulator, TelemetryConfig,
    TopologySpec,
};
use hack_core::{JctExperiment, Method};
use hack_model::cost_table::{DecodeCostTable, PrefillCostTable};
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_sim::EngineMode;
use hack_workload::dataset::Dataset;
use hack_workload::session::{SessionKind, SessionSpec, SessionTrace};
use hack_workload::trace::{Request, TenantId, TraceGenerator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Requests of `trace-300k`.
pub const TRACE_300K_REQUESTS: usize = 300_000;
/// Sessions per stream (chat and agentic) of `sessions-all-layers`.
pub const SESSIONS_PER_STREAM: usize = 5_000;
/// Engine events `trace-300k` must process, or it no longer measures the
/// engine at the scale it claims to.
pub const TRACE_300K_MIN_EVENTS: u64 = 1_200_000;

/// Resident set at which warm repeats stop before their time is up. Runs
/// with a control ticker (telemetry sampler or autoscaler) never free their
/// cluster state, about 400 B per request per run (see
/// `benchmark/README.md`, "Found at the parent commit"); this keeps
/// `sessions-all-layers` from growing without bound.
const RSS_LIMIT_MIB: f64 = 1024.0;
/// Spine blocks of the link-graph fabric.
const SPINES: usize = 2;
/// Prefix-cache share of each decode replica's KV budget: smaller than the
/// session working set, so the cache hits, misses and evicts.
const CACHE_FRACTION: f64 = 0.005;
/// Predictive autoscaling: an EWMA arrival-rate forecast over a per-replica
/// rate. Target-utilization scaling is not used: with it, the first
/// disruption of the active decode replica tips a run into a congested,
/// scale-thrashing regime whose length depends chaotically on the seed (see
/// `benchmark/README.md`, "Found at the parent commit").
const SCALING: ScalingPolicyKind = ScalingPolicyKind::Predictive {
    alpha: 0.3,
    per_replica_rps: 3.2,
    headroom: 1.2,
};
/// Depth and cycles of the diurnal modulation of the session arrival rate.
const DIURNAL_AMPLITUDE: f64 = 0.5;
const DIURNAL_CYCLES: f64 = 4.0;

/// The four opt-in layers of the cluster simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Telemetry,
    LinkGraph,
    PrefixCache,
    Scaler,
}

impl Layer {
    pub const ALL: [Layer; 4] = [
        Layer::Telemetry,
        Layer::LinkGraph,
        Layer::PrefixCache,
        Layer::Scaler,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Telemetry => "telemetry",
            Layer::LinkGraph => "link_graph",
            Layer::PrefixCache => "prefix_cache",
            Layer::Scaler => "scaler",
        }
    }

    #[cfg(test)]
    fn is_on(self, config: &SimulationConfig) -> bool {
        match self {
            Layer::Telemetry => config.telemetry != TelemetryConfig::Off,
            Layer::LinkGraph => config.cluster.topology.link_graph().is_some(),
            Layer::PrefixCache => config.cache.is_on(),
            Layer::Scaler => config.policy.scaling != ScalingPolicyKind::Off,
        }
    }

    /// `config` with this layer switched on (at the `sessions-all-layers`
    /// setting) or off. Off on the link graph also drops the faults that
    /// only links can suffer, which the flat fabric does not model.
    fn set(self, mut config: SimulationConfig, on: bool) -> SimulationConfig {
        match (self, on) {
            (Layer::Telemetry, true) => config.telemetry = TelemetryConfig::on(),
            (Layer::Telemetry, false) => config.telemetry = TelemetryConfig::Off,
            (Layer::LinkGraph, true) => {
                config.cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::redundant(SPINES));
            }
            (Layer::LinkGraph, false) => {
                config.cluster.topology = TopologySpec::Flat;
                let kept: Vec<_> = config
                    .faults
                    .iter()
                    .filter(|e| !e.domain.needs_link_graph())
                    .copied()
                    .collect();
                config.faults = FaultPlan::new(&kept);
            }
            (Layer::PrefixCache, true) => {
                config.cache = CacheConfig::with_capacity_fraction(CACHE_FRACTION);
            }
            (Layer::PrefixCache, false) => config.cache = CacheConfig::Off,
            (Layer::Scaler, true) => config.policy.scaling = SCALING,
            (Layer::Scaler, false) => config.policy.scaling = ScalingPolicyKind::Off,
        }
        config
    }
}

/// Which simulator workload, at which size.
#[derive(Clone, Copy, Debug)]
pub enum SimKind {
    /// Llama-3.1-70B / A10G / IMDb at 2.0 rps, HACK, every opt-in layer off.
    Trace300k { requests: usize },
    /// Chat and agentic sessions of two tenants with every opt-in layer on.
    SessionsAllLayers { sessions: usize },
    /// The cluster model of the `kv-pipeline` requests: HumanEval on the
    /// paper fleet, every opt-in layer off.
    HumanEvalModel { requests: usize },
}

impl SimKind {
    /// Synthesizes the trace (hack-workload).
    pub fn trace(self, seed: u64) -> Vec<Request> {
        let model = ModelKind::Llama31_70B;
        match self {
            SimKind::Trace300k { requests } => {
                TraceGenerator::new(jct_config(Dataset::Imdb, requests, seed).trace).generate()
            }
            SimKind::HumanEvalModel { requests } => {
                TraceGenerator::new(jct_config(Dataset::HumanEval, requests, seed).trace).generate()
            }
            SimKind::SessionsAllLayers { sessions } => {
                let spec = |tenant: u32, kind: SessionKind| SessionSpec {
                    tenant: TenantId(tenant),
                    kind,
                    sessions,
                    rps: 1.0,
                    dataset: Dataset::Imdb,
                    max_context: model.spec().max_context,
                    seed: derive_seed(seed, 10 + u64::from(tenant)),
                };
                let flat = SessionTrace::new(vec![
                    spec(
                        0,
                        SessionKind::Chat {
                            turns: 4,
                            think_mean_s: 20.0,
                        },
                    ),
                    spec(
                        1,
                        SessionKind::Agentic {
                            tools: 3,
                            tool_delay_s: 5.0,
                        },
                    ),
                ])
                .generate();
                diurnal(flat)
            }
        }
    }

    /// The simulation configuration over `requests` (which it sizes and
    /// whose span sets the fault-plan horizon).
    pub fn config(self, seed: u64, requests: &[Request]) -> SimulationConfig {
        match self {
            SimKind::Trace300k { requests: n } => jct_config(Dataset::Imdb, n, seed),
            SimKind::HumanEvalModel { requests: n } => jct_config(Dataset::HumanEval, n, seed),
            SimKind::SessionsAllLayers { .. } => {
                let mut config = jct_config(Dataset::Imdb, requests.len(), seed);
                for layer in Layer::ALL {
                    config = layer.set(config, true);
                }
                let horizon = requests.last().map_or(1.0, |r| r.arrival);
                // About 20 decode-replica outages, 4 decode-ToR slowdowns and
                // 4 spine outages: under the plan's cap of 32 faults.
                let availability = AvailabilityModel {
                    decode_replica: Some(MtbfSpec::outage(horizon / 5.0, 60.0)),
                    decode_tor: Some(MtbfSpec::slowdown(horizon / 2.0, 300.0, 0.35)),
                    spine: Some(MtbfSpec::outage(horizon / 2.0, 120.0)),
                    ..AvailabilityModel::default()
                };
                let plan = availability.generate_plan(
                    &config.cluster.fleet_shape(),
                    horizon,
                    derive_seed(seed, 20),
                );
                config.faults = one_spine_at_a_time(&plan);
                config
            }
        }
    }

    /// Whether this workload must show every opt-in layer doing work.
    fn all_layers(self) -> bool {
        matches!(self, SimKind::SessionsAllLayers { .. })
    }
}

/// Stretches the inter-arrival gaps of an arrival-ordered trace by a
/// sinusoidal rate multiplier ([`DIURNAL_CYCLES`] periods over the trace),
/// as the repository's autoscaling experiments shape their traces. The map
/// is monotone, so session parents still arrive before their children.
fn diurnal(trace: Vec<Request>) -> Vec<Request> {
    let period = trace.last().map_or(1.0, |r| r.arrival) / DIURNAL_CYCLES;
    let (mut now, mut prev) = (0.0f64, 0.0f64);
    trace
        .into_iter()
        .map(|mut r| {
            let gap = r.arrival - prev;
            prev = r.arrival;
            let phase = 2.0 * std::f64::consts::PI * now / period;
            now += gap / (1.0 + DIURNAL_AMPLITUDE * phase.sin());
            r.arrival = now;
            r
        })
        .collect()
}

/// `plan` without the spine outages that would overlap an earlier one, so
/// at least one spine block is always up. With every spine down, runs with
/// a control ticker (telemetry sampler or autoscaler) never terminate (see
/// `benchmark/README.md`, "Found at the parent commit").
fn one_spine_at_a_time(plan: &FaultPlan) -> FaultPlan {
    let window = |e: &FaultEvent| (e.at, e.recover_at.unwrap_or(f64::INFINITY));
    let mut kept: Vec<FaultEvent> = Vec::new();
    for event in plan.iter() {
        let spine = matches!(event.domain, FaultDomain::Spine(_));
        let (at, until) = window(event);
        let clash = kept.iter().any(|k| {
            let (k_at, k_until) = window(k);
            matches!(k.domain, FaultDomain::Spine(_)) && at < k_until && k_at < until
        });
        if !(spine && clash) {
            kept.push(*event);
        }
    }
    FaultPlan::new(&kept)
}

/// Llama-3.1-70B on the paper fleet with A10G prefill, HACK, 2.0 rps.
fn jct_config(dataset: Dataset, requests: usize, seed: u64) -> SimulationConfig {
    JctExperiment {
        num_requests: requests,
        rps: Some(2.0),
        seed,
        ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, dataset)
    }
    .simulation_config(Method::hack())
}

/// Checks one run's result: every offered request is accounted for, the
/// result equals the first run's, and on `sessions-all-layers` every opt-in
/// layer visibly did its work.
fn check(
    kind: SimKind,
    result: &SimulationResult,
    offered: usize,
    first: Option<&SimulationResult>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let accounted = result.records.len() + result.rejected_requests + result.aborted_requests;
    if accounted != offered {
        problems.push(format!(
            "sim: completed + rejected + aborted = {accounted}, offered {offered}"
        ));
    }
    if first.is_some_and(|f| f != result) {
        problems.push("sim: a repeat's result differs from the first run's".to_string());
    }
    if kind.all_layers() {
        if result.prefix_evictions == 0 {
            problems.push("sessions: the prefix cache never evicted".to_string());
        }
        if !(result.prefix_hit_rate > 0.0 && result.prefix_hit_rate < 1.0) {
            problems.push(format!(
                "sessions: prefix hit rate {} not strictly inside (0, 1)",
                result.prefix_hit_rate
            ));
        }
        if result.scale_ups == 0 || result.scale_downs == 0 {
            problems.push(format!(
                "sessions: scaler made {} ups and {} downs, needs both",
                result.scale_ups, result.scale_downs
            ));
        }
        if result.transfer_retries + result.rerouted_flows + fault_aborts(result) == 0 {
            problems.push("sessions: no fault retried, rerouted or aborted anything".to_string());
        }
    }
    problems
}

/// In-flight requests the faults aborted (each then retried or re-admitted,
/// or given up).
fn fault_aborts(result: &SimulationResult) -> usize {
    result.faults.iter().map(|f| f.requests_aborted).sum()
}

/// A built simulator and its inputs.
pub struct Setup {
    pub kind: SimKind,
    pub config: SimulationConfig,
    pub requests: Arc<Vec<Request>>,
    pub simulator: Simulator,
}

/// Seed → a simulator ready to run (trace and fault-plan synthesis plus
/// `Simulator::try_with_requests`).
pub fn setup(kind: SimKind, seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let requests = Arc::new(tracer.run("workload.trace_gen", None, || kind.trace(seed)));
    let config = kind.config(seed, &requests);
    let simulator = tracer
        .run("cluster.try_with_requests", None, || {
            Simulator::try_with_requests(config, requests.clone())
        })
        .map_err(|e| format!("invalid simulation config: {e}"))?;
    Ok(Setup {
        kind,
        config,
        requests,
        simulator,
    })
}

/// Simulated output tokens completed per run.
fn completed_tokens(result: &SimulationResult) -> u64 {
    result
        .records
        .iter()
        .map(|r| r.request.output_len as u64)
        .sum()
}

/// What the measured repeats of one simulator produced.
pub struct Measured {
    pub setup: Setup,
    /// Median seconds from the seed to a built simulator, plus the median
    /// excess of a first run over the run after it (the lazy cost-table
    /// build).
    pub setup_s: f64,
    /// Peak resident set once every setup and its first run are done.
    pub peak_rss_mb: f64,
    /// Resident-set growth per warm run.
    pub rss_growth_mb: f64,
    pub warm_s: Vec<f64>,
    pub first: SimulationResult,
}

impl Measured {
    pub fn run_s(&self) -> f64 {
        median(&self.warm_s)
    }

    /// The end-to-end metrics of this measurement.
    pub fn end_to_end(&self, m: &mut Metrics) {
        let run_s = self.run_s();
        m.set("setup_s", self.setup_s, "s");
        m.set("run_s", run_s, "s");
        m.set(
            "tokens_per_s",
            completed_tokens(&self.first) as f64 / run_s,
            "1/s",
        );
        m.set("peak_rss_mb", self.peak_rss_mb, "MiB");
    }
}

/// Sets up `setups` times (keeping one simulator alive at a time, each run
/// twice), then runs warm repeats for `seconds` (at least three), stopping
/// early once the process holds [`RSS_LIMIT_MIB`]. Every run is one
/// operation.
pub fn measure(
    kind: SimKind,
    seed: u64,
    setups: usize,
    seconds: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<Measured, String> {
    let mut built = None;
    let mut raw_setup = Vec::new();
    let mut excess = Vec::new();
    let mut first: Option<SimulationResult> = None;
    for _ in 0..setups {
        drop(built.take());
        let clock = Instant::now();
        let s = setup(kind, seed, tracer)?;
        raw_setup.push(clock.elapsed().as_secs_f64());
        // The first run's excess over the run right after it, so that both
        // see the same machine speed.
        let mut paired = [0.0; 2];
        for t in &mut paired {
            let clock = Instant::now();
            let result = tracer.run("cluster.run", None, || s.simulator.run());
            *t = clock.elapsed().as_secs_f64();
            outcome.record(check(kind, &result, s.requests.len(), first.as_ref()));
            first.get_or_insert(result);
        }
        excess.push(paired[0] - paired[1]);
        built = Some(s);
    }
    let setup = built.ok_or("no setup ran")?;
    let first = first.ok_or("no run completed")?;
    let peak_rss_mb = peak_rss_mb().ok_or("peak RSS unavailable")?;
    let rss_before = rss_mb().ok_or("RSS unavailable")?;
    let mut warm_s = Vec::new();
    let start = Instant::now();
    let mut rss = rss_before;
    while warm_s.len() < 3 || (start.elapsed().as_secs_f64() < seconds && rss < RSS_LIMIT_MIB) {
        let clock = Instant::now();
        let result = tracer.run("cluster.run", None, || setup.simulator.run());
        warm_s.push(clock.elapsed().as_secs_f64());
        outcome.record(check(kind, &result, setup.requests.len(), Some(&first)));
        rss = rss_mb().ok_or("RSS unavailable")?;
    }
    let rss_growth_mb = (rss - rss_before) / warm_s.len() as f64;
    Ok(Measured {
        setup,
        // Below the noise, the lazy work counts as nothing rather than as
        // negative time.
        setup_s: median(&raw_setup) + median(&excess).max(0.0),
        peak_rss_mb,
        rss_growth_mb,
        warm_s,
        first,
    })
}

/// A self-scheduling component on the public `hack_sim` API: every delivery
/// fans out two more events until the budget runs out, so the run is pure
/// queue and payload work.
mod storm {
    use hack_sim::{Event, EventHandler, Simulation, SimulationContext};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Burst {
        depth: u32,
    }

    struct Echo {
        ctx: SimulationContext,
        budget: u64,
    }

    impl EventHandler for Echo {
        fn on(&mut self, event: Event) {
            if let Some(burst) = event.get::<Burst>() {
                if self.budget > 0 {
                    self.budget -= 1;
                    let delay = 0.5 + f64::from(burst.depth % 7) * 0.25;
                    let depth = burst.depth;
                    self.ctx.emit_self(Burst { depth: depth + 1 }, delay);
                    self.ctx.emit_self(Burst { depth: depth + 2 }, delay * 2.0);
                }
            }
        }
    }

    /// Processes about `events` events; returns the exact count.
    pub fn run(events: u64) -> u64 {
        let mut sim = Simulation::new(7);
        let ctx = sim.create_context("echo");
        let echo = Rc::new(RefCell::new(Echo {
            ctx,
            budget: events / 2,
        }));
        echo.borrow().ctx.emit_self(Burst { depth: 0 }, 0.0);
        sim.add_handler("echo", echo);
        sim.run();
        sim.processed_count()
    }
}

/// Host seconds of `runs` alternating runs of two configurations, medians.
fn ab_medians(
    a: &Simulator,
    b: &Simulator,
    runs: usize,
    name_a: &'static str,
    name_b: &'static str,
    tracer: &mut Tracer,
) -> (f64, f64, SimulationResult, SimulationResult) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    // One untimed run each first: builds the cost tables.
    let mut ra = a.run();
    let mut rb = b.run();
    for _ in 0..runs {
        let clock = Instant::now();
        ra = tracer.run(name_a, None, || a.run());
        ta.push(clock.elapsed().as_secs_f64());
        let clock = Instant::now();
        rb = tracer.run(name_b, None, || b.run());
        tb.push(clock.elapsed().as_secs_f64());
    }
    (median(&ta), median(&tb), ra, rb)
}

/// The traced per-layer measurements of a simulator workload, given its
/// measured warm run time. Adds mechanism failures to `outcome`.
pub fn layer_metrics(
    measured: &Measured,
    marginal_runs: usize,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    m: &mut Metrics,
) -> Result<(), String> {
    let s = &measured.setup;
    let result = &measured.first;
    let warm = measured.run_s();
    m.set(
        "workload.trace_gen_s",
        median(&tracer.durations("workload.trace_gen")),
        "s",
    );
    m.set(
        "cluster.rss_growth_mib_per_run",
        measured.rss_growth_mb,
        "MiB",
    );

    // hack-model: the cost tables the simulator builds lazily, on this trace.
    let cluster = &s.config.cluster;
    let decode_model = cluster.decode_cost_model(0);
    let prefill_model = cluster.prefill_cost_model(0);
    let network_gbps = cluster
        .prefill_network_gbps()
        .min(cluster.decode_network_gbps());
    let max_kv = s
        .requests
        .iter()
        .map(Request::total_tokens)
        .max()
        .unwrap_or(1);
    let clock = Instant::now();
    let span = tracer.begin("cost.table_build", None);
    let decode = DecodeCostTable::build(
        &decode_model,
        &s.config.profile,
        decode_model.params.decode_batch,
        max_kv,
    );
    let prefill = PrefillCostTable::build(
        &prefill_model,
        &s.config.profile,
        network_gbps,
        s.requests.iter().map(|r| r.input_len),
    );
    tracer.end(span);
    m.set("cost.table_build_s", clock.elapsed().as_secs_f64(), "s");
    let clock = Instant::now();
    tracer.run("cost.lookup", None, || {
        for r in s.requests.iter() {
            black_box(decode.decode_durations(black_box(r.input_len), r.output_len));
            black_box(prefill.get(black_box(r.input_len)));
        }
    });
    m.set(
        "cost.lookup_ns",
        clock.elapsed().as_secs_f64() * 1e9 / s.requests.len() as f64,
        "ns",
    );

    // hack-cluster: the engine event count (the only counted run), and the
    // engine alone on a storm of the same size.
    let (counted, events) = tracer.run("cluster.run_counted", None, || {
        s.simulator.run_counted(EngineMode::Slab)
    });
    let mut problems = check(s.kind, &counted, s.requests.len(), Some(result));
    if matches!(
        s.kind,
        SimKind::Trace300k {
            requests: TRACE_300K_REQUESTS
        }
    ) && events < TRACE_300K_MIN_EVENTS
    {
        problems.push(format!(
            "trace-300k: {events} engine events, fewer than {TRACE_300K_MIN_EVENTS}"
        ));
    }
    outcome.record(problems);
    let clock = Instant::now();
    let storm_events = tracer.run("engine.storm", None, || storm::run(events));
    let storm_ns = clock.elapsed().as_secs_f64() * 1e9 / storm_events as f64;
    let cluster_ns = warm * 1e9 / events as f64;
    m.set("engine.storm_ns_per_event", storm_ns, "ns");
    m.set("cluster.events", events as f64, "count");
    m.set("cluster.ns_per_event", cluster_ns, "ns");
    m.set("cluster.handler_ns_per_event", cluster_ns - storm_ns, "ns");

    // The opt-in layers: run time with the layer on against off, everything
    // else as the workload has it.
    for layer in Layer::ALL {
        let on = layer.set(s.config, true);
        let off = layer.set(s.config, false);
        let build = |config: SimulationConfig| {
            Simulator::try_with_requests(config, s.requests.clone())
                .map_err(|e| format!("invalid {} variant: {e}", layer.name()))
        };
        let (sim_on, sim_off) = (build(on)?, build(off)?);
        let (t_on, t_off, r_on, r_off) = ab_medians(
            &sim_on,
            &sim_off,
            marginal_runs,
            "layer.on",
            "layer.off",
            tracer,
        );
        m.set(
            format!("layer.{}.marginal_pct", layer.name()),
            100.0 * (t_on - t_off) / t_off,
            "%",
        );
        // Telemetry records a run without perturbing it, and an armed cache
        // on a sessionless trace never hits, inserts or evicts: apart from
        // its all-zero occupancy sensor, the result must not change.
        let sessionless = s.requests.iter().all(|r| r.parent.is_none());
        let mut problems = Vec::new();
        if layer == Layer::Telemetry && r_on != r_off {
            problems.push("telemetry: switching it on changed the result".to_string());
        }
        if layer == Layer::PrefixCache && sessionless {
            let mut armed = r_on;
            let idle = armed.prefix_hits + armed.prefix_misses == 0
                && armed.prefix_cache_peak_fraction.iter().all(|&f| f == 0.0);
            armed.prefix_cache_peak_fraction.clear();
            if !idle || armed != r_off {
                problems.push(
                    "prefix_cache: armed on a sessionless trace, it changed the result".to_string(),
                );
            }
        }
        outcome.record(problems);
    }

    // Simulated quantities: they repeat exactly for a seed.
    let stats = result.jct_stats();
    let shares = result.average_ratios();
    for (name, value, unit) in [
        ("sim.completed", result.records.len() as f64, "count"),
        ("sim.mean_jct_s", stats.mean, "s"),
        ("sim.p99_jct_s", stats.p99, "s"),
        ("sim.makespan_s", result.makespan, "s"),
        ("sim.share.prefill", shares.prefill, "fraction"),
        ("sim.share.quantization", shares.quantization, "fraction"),
        ("sim.share.communication", shares.communication, "fraction"),
        (
            "sim.share.dequant_or_approx",
            shares.dequant_or_approx,
            "fraction",
        ),
        ("sim.share.decode", shares.decode, "fraction"),
        ("sim.share.queueing", shares.queueing, "fraction"),
        ("cache.hits", result.prefix_hits as f64, "count"),
        ("cache.misses", result.prefix_misses as f64, "count"),
        ("cache.evictions", result.prefix_evictions as f64, "count"),
        ("cache.hit_rate", result.prefix_hit_rate, "fraction"),
        (
            "fabric.transfer_retries",
            result.transfer_retries as f64,
            "count",
        ),
        (
            "fabric.rerouted_flows",
            result.rerouted_flows as f64,
            "count",
        ),
        ("fabric.degraded_link_s", result.degraded_link_secs, "s"),
        ("scaler.scale_ups", result.scale_ups as f64, "count"),
        ("scaler.scale_downs", result.scale_downs as f64, "count"),
        ("scaler.gpu_dollars", result.gpu_dollars, "USD"),
        (
            "fault.requests_aborted",
            fault_aborts(result) as f64,
            "count",
        ),
    ] {
        m.set(name, value, unit);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::debug_digest;

    fn run(kind: SimKind, seed: u64) -> (u64, u64, SimulationResult) {
        let s = setup(kind, seed, &mut Tracer::new(false)).expect("valid config");
        (
            debug_digest(&*s.requests),
            debug_digest(&s.config),
            s.simulator.run(),
        )
    }

    #[test]
    fn a_seed_repeats_its_digest_and_seeds_differ() {
        for kind in [
            SimKind::Trace300k { requests: 300 },
            SimKind::SessionsAllLayers { sessions: 30 },
            SimKind::HumanEvalModel { requests: 300 },
        ] {
            let (trace_a, config_a, result_a) = run(kind, 5);
            let (trace_b, config_b, result_b) = run(kind, 5);
            assert_eq!((trace_a, config_a), (trace_b, config_b), "{kind:?}");
            assert_eq!(debug_digest(&result_a), debug_digest(&result_b), "{kind:?}");
            let (trace_c, _, _) = run(kind, 6);
            assert_ne!(trace_a, trace_c, "{kind:?}: seeds 5 and 6 gave one trace");
        }
    }

    #[test]
    fn layer_switches_round_trip() {
        let kind = SimKind::SessionsAllLayers { sessions: 30 };
        let requests = kind.trace(1);
        let config = kind.config(1, &requests);
        for layer in Layer::ALL {
            assert!(layer.is_on(&config), "{layer:?}");
            let off = layer.set(config, false);
            assert!(!layer.is_on(&off), "{layer:?}");
            assert!(off.validate().is_ok(), "{layer:?}");
            assert!(layer.is_on(&layer.set(off, true)), "{layer:?}");
        }
    }
}
