//! `bench` — the in-tree micro-benchmark harness (criterion is unavailable
//! offline, so timing is done with `std::time::Instant` directly).
//!
//! Times the three hot paths this repo optimizes and writes machine-readable
//! results next to the workspace root:
//!
//! * **Kernels** (`BENCH_kernels.json`): quantization, the blocked homomorphic
//!   GEMM vs the retained scalar reference (the headline speedup number) and vs
//!   dequantize-then-matmul, the SE ablation, partition sweep, code packing,
//!   attention prefill/decode/append, and the baseline codecs.
//! * **Simulator** (`BENCH_sim.json`): a 1M+-event cluster run and a pure
//!   engine event storm (ns per event), the `sim_cost` section (prefix-sum
//!   cost tables vs the per-token summation loop on decode durations, and a
//!   full capacity bisection), the `tenant_mix` scheduling grid, the
//!   `hetero_fleet` mixed-vs-uniform dispatch grid, the `fault_storm` robustness grid with
//!   its Flat-vs-LinkGraph fabric A/B, the `availability` MTBF/MTTR
//!   Monte-Carlo SLO sweep, the `autoscale` cost-vs-SLO Pareto grid with its
//!   Off-identity controller A/B, the `session_cache` prefix-cache grid with
//!   its Off-vs-armed-idle A/B, plus per-method end-to-end cluster runs.
//!
//! `BENCH_SCALE=smoke` (or `--smoke`) shrinks every workload for CI; the JSON
//! schema is identical. `--compare <baseline.json>` (repeatable) prints a
//! delta report against previously recorded JSON — a report, never a gate.
//! See PERF.md for the schema and how to compare runs.

use hack_attention::baseline::AttentionMask;
use hack_attention::flash::flash_attention;
use hack_baselines::{CacheGenLike, Fp8Format, KvCompressor, KvQuantLike, MinifloatCast};
use hack_cluster::SchedulingPolicyKind;
use hack_core::prelude::*;
use hack_model::cost_table::DecodeCostTable;
use hack_model::parallelism::Parallelism;
use hack_model::ReplicaCostModel;
use hack_quant::homomorphic::{
    dequant_matmul, homomorphic_matmul, homomorphic_matmul_no_se, reference,
};
use hack_quant::packing::{pack_codes, unpack_codes};
use hack_quant::params::{QuantBits, RoundingMode};
use hack_workload::trace::{Request, TraceGenerator};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One timed workload.
#[derive(Debug, Serialize)]
struct Bench {
    /// Workload group (e.g. `quantize_2bit`).
    name: String,
    /// Parameterisation within the group (e.g. `tokens=1024`).
    config: String,
    /// Timed iterations (after one warmup iteration).
    iters: u64,
    /// Best (minimum) wall-clock seconds per iteration — the standard robust
    /// estimator under scheduler noise.
    seconds_per_iter: f64,
}

/// The headline kernel comparison: blocked vs scalar-reference homomorphic GEMM.
#[derive(Debug, Serialize)]
struct MatmulSpeedup {
    l_kv: usize,
    optimized_secs: f64,
    scalar_reference_secs: f64,
    /// `scalar_reference_secs / optimized_secs`.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct KernelsReport {
    schema: &'static str,
    scale: &'static str,
    /// Blocked vs scalar homomorphic GEMM (the paper's quantized score matmul).
    quantized_matmul_speedup: Vec<MatmulSpeedup>,
    benches: Vec<Bench>,
}

/// One seeded engine workload, timed best-of-two.
#[derive(Debug, Serialize)]
struct EngineRun {
    /// Events processed by the engine during the run.
    events_processed: u64,
    /// Best wall-clock of two runs.
    secs: f64,
    /// `1e9 * secs / events_processed`.
    ns_per_event: f64,
}

/// Prefix-sum table vs reference summation loop on per-request decode
/// durations (the `sim_cost` headline).
#[derive(Debug, Serialize)]
struct DecodeDurationsMicrobench {
    dataset: &'static str,
    /// Requests evaluated per timed pass.
    requests: usize,
    /// Total decode iterations the reference loop sums over per pass.
    output_tokens: u64,
    loop_secs: f64,
    table_secs: f64,
    /// `loop_secs / table_secs`.
    speedup: f64,
}

/// One full capacity bisection (`measured_max_rps`: shared trace template
/// and cost tables across its probe runs).
#[derive(Debug, Serialize)]
struct BisectionRun {
    dataset: &'static str,
    probe_requests: usize,
    /// The measured capacity.
    max_rps: f64,
    /// Best wall-clock seconds of one bisection.
    secs: f64,
}

/// The O(1) analytic-cost-table section: how much of the simulator's wall
/// clock the memoized cost layer recovers.
#[derive(Debug, Serialize)]
struct SimCostReport {
    /// Prefix subtraction vs O(output tokens) loop, per request.
    decode_durations: DecodeDurationsMicrobench,
    /// A full `measured_max_rps` bisection.
    capacity_bisection: BisectionRun,
}

/// One scheduling policy evaluated on the two-tenant contention mix.
#[derive(Debug, Serialize)]
struct TenantMixPolicyRun {
    policy: String,
    /// Best wall-clock seconds of one full simulation run.
    secs: f64,
    /// Jain fairness index over the tenants' normalized service rates.
    jain_fairness: f64,
    /// Global average JCT (seconds).
    average_jct: f64,
    /// Per-tenant mean JCT, ascending by tenant id.
    per_tenant_mean_jct: Vec<f64>,
    /// Per-tenant SLO attainment in [0, 1], ascending by tenant id.
    per_tenant_slo_attainment: Vec<f64>,
}

/// The multi-tenant section: the `tenant_mix` grid (one row per scheduling
/// policy on the interactive-vs-batch overload mix) plus the fairness gain of
/// round-robin over FCFS (the headline the policy layer exists for).
#[derive(Debug, Serialize)]
struct TenantMixReport {
    requests: usize,
    tenants: usize,
    runs: Vec<TenantMixPolicyRun>,
    /// `jain(wrr) - jain(fcfs)`: positive means round-robin out-fairs FCFS
    /// under overload.
    wrr_jain_gain_vs_fcfs: f64,
    /// `jain(slo-edf) - jain(fcfs)`.
    slo_edf_jain_gain_vs_fcfs: f64,
}

/// One dispatch policy evaluated on the mixed A10G+L4 prefill fleet.
#[derive(Debug, Serialize)]
struct HeteroFleetPolicyRun {
    policy: String,
    /// Best wall-clock seconds of one full simulation run.
    secs: f64,
    /// Average JCT of the run (seconds; deterministic).
    average_jct: f64,
    /// Per-prefill-group utilization, in group order.
    per_group_utilization: Vec<f64>,
    /// Per-prefill-group completed requests, in group order.
    per_group_completed: Vec<f64>,
}

/// The heterogeneous-fleet section: the `hetero_fleet` grid (mixed A10G+L4
/// prefill fleet under every dispatch policy vs the uniform A10G fleet of
/// equal instance count) plus the two JCT headlines the fleet API exists for.
#[derive(Debug, Serialize)]
struct HeteroFleetReport {
    requests: usize,
    /// The uniform fleet under default (least-loaded) dispatch.
    uniform_secs: f64,
    uniform_avg_jct: f64,
    /// The mixed fleet, one run per dispatch policy.
    runs: Vec<HeteroFleetPolicyRun>,
    /// `1 - jct(mixed/least-loaded) / jct(uniform)`: the value of swapping
    /// half the A10G instances for L4s under load-only dispatch.
    mixed_jct_reduction_vs_uniform: f64,
    /// `1 - jct(mixed/fastest-eligible) / jct(mixed/least-loaded)`: the
    /// additional value of group-aware dispatch on the mixed fleet (the
    /// headline; must stay positive).
    fastest_eligible_jct_gain_vs_least_loaded: f64,
}

/// One fault-storm scenario: wall-clock plus the resilience sensors.
#[derive(Debug, Serialize)]
struct FaultStormScenarioRun {
    /// Scenario label, `fabric/fault` shaped (e.g. `graph/tor`).
    scenario: String,
    /// Best wall-clock seconds of one full simulation run.
    secs: f64,
    /// Average JCT of the run (seconds; deterministic).
    average_jct: f64,
    completed: usize,
    aborted: usize,
    transfer_retries: usize,
    /// Replicas failed by the widest single fault of the scenario.
    blast_radius: usize,
    /// Completions per second inside the fault windows.
    degraded_goodput: f64,
    /// Memory-wait drain time after recovery (seconds).
    recovery_drain_secs: f64,
}

/// The fault-storm section: the interleaved Flat vs LinkGraph fault-free A/B
/// (what the flow-based fabric costs on the unchanged default path) plus one
/// run per fault scenario with the resilience sensors. The `flat/no-fault`
/// run is asserted bit-identical to the plain pre-topology simulation before
/// timing, so this section doubles as the retained-reference guard at bench
/// scale.
#[derive(Debug, Serialize)]
struct FaultStormReport {
    requests: usize,
    /// Best wall-clock of the fault-free run on the flat fabric.
    flat_secs: f64,
    /// Best wall-clock of the identical workload on the link-graph fabric.
    graph_secs: f64,
    /// `100 * (graph_secs / flat_secs - 1)`: the link-graph fabric's cost.
    graph_overhead_percent: f64,
    /// Average JCT of the `flat/no-fault` anchor. Deterministic, so
    /// `--compare` flags *any* drift against the committed baseline as a
    /// semantic regression rather than noise.
    flat_avg_jct: f64,
    /// One run per scenario of [`FaultStormExperiment::scenarios`].
    runs: Vec<FaultStormScenarioRun>,
}

/// One MTBF grid point of the availability sweep: the pooled SLO sensors of
/// every fault seed at that failure rate.
#[derive(Debug, Serialize)]
struct AvailabilityGridRun {
    /// Mean time between failures of this grid point (seconds).
    mtbf_s: f64,
    /// Completed / offered requests, pooled across the fault seeds.
    availability: f64,
    /// `-log10(1 - availability)`, capped at 9 for a loss-free sample.
    nines: f64,
    /// Pooled p99 JCT (seconds; nearest rank).
    p99_jct_s: f64,
    /// Pooled p999 JCT (seconds; nearest rank).
    p999_jct_s: f64,
    /// Summed fault downtime (domain-seconds).
    downtime_s: f64,
    /// Summed link-degradation exposure (link-seconds below nominal).
    degraded_link_secs: f64,
    abandoned: usize,
    aborted: usize,
    transfer_retries: usize,
    /// Flows ECMP-rerouted across surviving spine blocks.
    rerouted_flows: usize,
    /// Fault events the MTBF/MTTR model generated across the pooled runs.
    generated_faults: usize,
}

/// The availability section: a Monte-Carlo sweep over MTBF grid × fault
/// seeds on the redundant-spine fabric, with plans generated from per-domain
/// exponential failure/repair processes. The grid is a pure function of the
/// experiment, so at equal scale `--compare` flags *any* drift on the pooled
/// sensors as a semantic regression rather than noise.
#[derive(Debug, Serialize)]
struct AvailabilityReport {
    /// Requests per run (each grid cell replays the identical trace).
    requests: usize,
    /// Fault seeds pooled per grid point.
    fault_seeds: usize,
    /// Redundant spine blocks of the swept fabric.
    spines: usize,
    /// Best wall-clock seconds of the full sweep (every grid point × seed).
    sweep_secs: f64,
    /// Availability of the harshest (shortest-MTBF) grid point — the
    /// deterministic headline anchor.
    worst_availability: f64,
    /// One pooled entry per MTBF grid value, harshest first.
    points: Vec<AvailabilityGridRun>,
}

/// One `(shape, policy)` cell of the autoscaling Pareto grid: the cost and
/// SLO axes of one scaling policy on one time-warped trace.
#[derive(Debug, Serialize)]
struct AutoscaleGridRun {
    /// Trace shape (`diurnal` / `bursty`).
    shape: String,
    /// Scaling policy (`off` / `threshold` / `target-util` / `predictive`).
    policy: String,
    /// Fraction of offered requests finishing within the JCT target.
    slo_attainment: f64,
    /// Mean JCT of the completed requests (seconds).
    mean_jct_s: f64,
    /// p99 JCT of the completed requests (seconds, nearest-rank).
    p99_jct_s: f64,
    /// GPU dollars billed (racked uptime × per-group `$`/GPU-hour).
    gpu_dollars: f64,
    /// GPU dollars per thousand generated tokens.
    dollars_per_1k_tokens: f64,
    /// Scale-up orders placed by the controller.
    scale_ups: usize,
    /// Scale-downs completed (drained replicas released).
    scale_downs: usize,
    /// On the shape's cost-vs-attainment Pareto frontier.
    pareto: bool,
}

/// The autoscale section: the cost-vs-SLO Pareto sweep of every scaling
/// policy over the diurnal/bursty traces, plus the Off-identity A/B. The
/// traces are deterministic time-warps of one seeded Poisson draw, so at
/// equal scale every cell is exact and `--compare` flags *any* drift on the
/// cost/SLO sensors as a semantic regression rather than noise.
#[derive(Debug, Serialize)]
struct AutoscaleReport {
    /// Requests per cell (each cell replays the identical shaped trace).
    requests: usize,
    /// JCT target the attainment axis is measured against (seconds).
    slo_jct_s: f64,
    /// Best wall-clock seconds of the full sweep (every shape × policy).
    sweep_secs: f64,
    /// `100 * (inert_secs / off_secs - 1)`: what an armed-but-never-firing
    /// controller costs over the scaling-free run loop (interleaved A/B,
    /// best-of per path). The retained-reference claim is that `Off` skips
    /// the controller entirely, so this measures the *armed* overhead only.
    controller_overhead_percent: f64,
    /// Diurnal-trace savings of the cheapest frontier policy vs the static
    /// fleet: `100 * (1 - min_frontier_dollars / off_dollars)`. The headline
    /// elastic-fleet anchor — deterministic, so `--compare` pins it.
    diurnal_savings_percent: f64,
    /// One entry per `(shape, policy)` cell, shapes then policies in sweep
    /// order.
    points: Vec<AutoscaleGridRun>,
}

/// One (mix, cache, dispatch) cell of the session-cache grid: wall-clock plus
/// the cache sensors.
#[derive(Debug, Serialize)]
struct SessionCacheCellRun {
    /// Cell label, `mix/cache/dispatch` shaped (e.g. `chat/on/session-affinity`).
    cell: String,
    /// Best wall-clock seconds of one full simulation run.
    secs: f64,
    /// Mean JCT of the run (seconds; deterministic).
    mean_jct_s: f64,
    /// Prefix-cache hits over hits plus misses (0 for the cache-off cells).
    hit_rate: f64,
    /// Prefill compute-seconds the cache avoided.
    prefill_s_saved: f64,
    /// Quantized KV bytes whose prefill and transfer the cache avoided.
    bytes_saved: f64,
    /// Resident prefixes dropped by eviction or invalidation.
    prefix_evictions: usize,
    completed: usize,
}

/// The session-cache section: the interleaved Off vs armed-idle A/B on a
/// sessionless trace (what arming the cache costs when nothing can hit — the
/// retained-reference guard at bench scale; the runs are asserted identical
/// before timing) plus one run per (mix, cache, dispatch) cell of the
/// [`SessionCacheExperiment`] grid with the cache sensors.
#[derive(Debug, Serialize)]
struct SessionCacheReport {
    /// Requests of the sessionless A/B trace.
    ab_requests: usize,
    /// Sessions per stream of the grid workloads.
    sessions: usize,
    /// Best wall-clock of the cache-off run on the sessionless trace.
    off_secs: f64,
    /// Best wall-clock of the armed-but-idle run on the identical trace.
    armed_idle_secs: f64,
    /// `100 * (armed_idle_secs / off_secs - 1)`: the pure cost of arming the
    /// cache (per-dispatch lookups that never hit, zero insertions).
    cache_overhead_percent: f64,
    /// Hit rate of the `chat/on/session-affinity` cell. Deterministic, so
    /// `--compare` pins it exactly at equal scale.
    chat_hit_rate: f64,
    /// `100 * (1 - jct(chat/on/session-affinity) / jct(chat/off))`: the
    /// headline the cache exists for (must stay positive).
    chat_jct_reduction_percent: f64,
    /// One entry per (mix, cache, dispatch) cell, in sweep order.
    runs: Vec<SessionCacheCellRun>,
}

/// The telemetry A/B: the headline cluster run with [`TelemetryConfig::Off`]
/// vs fully instrumented, same seed. `Off` must stay bit- and cost-identical
/// to the pre-telemetry simulator, and the instrumented run must stay within
/// a few percent of it (CI flags `overhead_percent` > 5).
#[derive(Debug, Serialize)]
struct TelemetryOverheadReport {
    requests: usize,
    /// Best wall-clock seconds of the telemetry-off run.
    off_secs: f64,
    /// Best wall-clock seconds of the telemetry-on run (spans + sampler).
    on_secs: f64,
    /// `100 * (on/off - 1)`.
    overhead_percent: f64,
    /// Lifecycle spans recorded by the instrumented run.
    spans: usize,
    /// Time-series points recorded by the instrumented run.
    samples: usize,
}

#[derive(Debug, Serialize)]
struct SimReport {
    schema: &'static str,
    scale: &'static str,
    /// A 1M+-event seeded cluster run (short-output IMDb workload: the
    /// engine, not the cost model, dominates).
    cluster_run_requests: usize,
    engine_cluster_run: EngineRun,
    /// A pure engine event storm (no cluster cost model at all): queue and
    /// payload handling alone.
    engine_event_storm: EngineRun,
    /// Telemetry on vs off on the headline cluster run (see PERF.md,
    /// "Telemetry overhead").
    telemetry_overhead: TelemetryOverheadReport,
    /// Memoized cost tables: the loop-vs-table microbench and a bisection.
    sim_cost: SimCostReport,
    /// The multi-tenant scheduling grid (see PERF.md, "Multi-tenant
    /// scenarios").
    tenant_mix: TenantMixReport,
    /// The heterogeneous-fleet dispatch grid (see PERF.md, "Heterogeneous
    /// fleets").
    hetero_fleet: HeteroFleetReport,
    /// The fault-storm robustness grid and the Flat-vs-LinkGraph fabric A/B
    /// (see PERF.md, "Fault storms").
    fault_storm: FaultStormReport,
    /// The MTBF/MTTR-generated availability SLO sweep (see PERF.md,
    /// "Availability sweeps").
    availability: AvailabilityReport,
    /// The autoscaling cost-vs-SLO Pareto grid and the Off-identity A/B (see
    /// PERF.md, "Autoscaling sweeps").
    autoscale: AutoscaleReport,
    /// The session prefix-cache grid and the Off vs armed-idle A/B (see
    /// PERF.md, "Session-cache sweeps").
    session_cache: SessionCacheReport,
    benches: Vec<Bench>,
}

/// Times `f`: one warmup call, then `iters` timed calls; returns the minimum
/// per-call wall-clock (robust against scheduler interference).
fn time_iters<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn push(benches: &mut Vec<Bench>, name: &str, config: String, iters: u64, secs: f64) {
    println!("  {name:<38} {config:<24} {:>12.3} us/iter", secs * 1e6);
    benches.push(Bench {
        name: name.to_string(),
        config,
        iters,
        seconds_per_iter: secs,
    });
}

fn decode_shape_tensors(l_kv: usize, partition: usize) -> (QuantizedTensor, QuantizedTensor) {
    let d_h = 128;
    let mut rng = DetRng::new(1);
    let q = Matrix::random_normal(1, d_h, 0.0, 1.0, &mut rng);
    let k = Matrix::random_normal(l_kv, d_h, 0.0, 1.0, &mut rng);
    let qq = QuantizedTensor::quantize_rows(
        &q,
        QuantBits::Int8,
        partition,
        RoundingMode::Nearest,
        &mut rng,
    );
    let qk = QuantizedTensor::quantize_rows(
        &k,
        QuantBits::Int2,
        partition,
        RoundingMode::Nearest,
        &mut rng,
    );
    (qq, qk)
}

fn qkv(tokens: usize, d_h: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = DetRng::new(seed);
    (
        Matrix::random_normal(tokens, d_h, 0.0, 1.0, &mut rng),
        Matrix::random_normal(tokens, d_h, 0.0, 1.0, &mut rng),
        Matrix::random_normal(tokens, d_h, 0.0, 1.0, &mut rng),
    )
}

fn kv_matrix(tokens: usize, channels: usize) -> Matrix {
    let mut rng = DetRng::new(1);
    let mut m = Matrix::zeros(tokens, channels);
    for ch in 0..channels {
        let mut value = rng.normal_f32(0.0, 1.0);
        for t in 0..tokens {
            value += rng.normal_f32(0.0, 0.05);
            m.set(t, ch, value + ((ch % 5) as f32 - 2.0) * 0.3);
        }
    }
    m
}

#[allow(clippy::too_many_lines)]
fn kernel_benches(smoke: bool) -> KernelsReport {
    let mut benches = Vec::new();
    println!("== kernel benches ==");

    // --- Quantization (ported from benches/kernels.rs). ---
    let quant_tokens: &[usize] = if smoke { &[64] } else { &[256, 1024] };
    for &tokens in quant_tokens {
        let mut rng = DetRng::new(2);
        let m = Matrix::random_normal(tokens, 128, 0.0, 1.0, &mut rng);
        let iters = if smoke { 3 } else { 20 };
        let secs = time_iters(iters, || {
            let mut rng = DetRng::new(3);
            QuantizedTensor::quantize_rows(
                &m,
                QuantBits::Int2,
                64,
                RoundingMode::Stochastic,
                &mut rng,
            )
        });
        push(
            &mut benches,
            "quantize_2bit",
            format!("tokens={tokens}"),
            iters,
            secs,
        );
    }

    // --- Homomorphic matmul: blocked vs scalar reference vs dequant path. ---
    let lkvs: &[usize] = if smoke { &[256] } else { &[512, 2048] };
    let mut speedups = Vec::new();
    for &l_kv in lkvs {
        let (qq, qk) = decode_shape_tensors(l_kv, 64);
        let iters = if smoke { 5 } else { 50 };
        let optimized = time_iters(iters, || homomorphic_matmul(&qq, &qk));
        let scalar = time_iters(iters, || {
            reference::homomorphic_matmul_scalar(&qq, &qk, true)
        });
        let no_se = time_iters(iters, || homomorphic_matmul_no_se(&qq, &qk));
        let dequant = time_iters(iters, || dequant_matmul(&qq, &qk));
        push(
            &mut benches,
            "score_matmul/homomorphic_se",
            format!("l_kv={l_kv}"),
            iters,
            optimized,
        );
        push(
            &mut benches,
            "score_matmul/homomorphic_se_scalar_ref",
            format!("l_kv={l_kv}"),
            iters,
            scalar,
        );
        push(
            &mut benches,
            "score_matmul/homomorphic_no_se",
            format!("l_kv={l_kv}"),
            iters,
            no_se,
        );
        push(
            &mut benches,
            "score_matmul/dequantize_then_matmul",
            format!("l_kv={l_kv}"),
            iters,
            dequant,
        );
        speedups.push(MatmulSpeedup {
            l_kv,
            optimized_secs: optimized,
            scalar_reference_secs: scalar,
            speedup: scalar / optimized,
        });
    }

    // --- Partition-size sweep. ---
    let sweep_lkv = if smoke { 256 } else { 1024 };
    for partition in [32usize, 64, 128] {
        let (qq, qk) = decode_shape_tensors(sweep_lkv, partition);
        let iters = if smoke { 5 } else { 50 };
        let secs = time_iters(iters, || homomorphic_matmul(&qq, &qk));
        push(
            &mut benches,
            "homomorphic_matmul_partition_sweep",
            format!("partition={partition},l_kv={sweep_lkv}"),
            iters,
            secs,
        );
    }

    // --- Code packing (ported from benches/kernels.rs). ---
    let pack_n = if smoke { 16 * 1024 } else { 128 * 1024 };
    let mut rng = DetRng::new(4);
    let codes: Vec<u8> = (0..pack_n).map(|_| rng.range_usize(0, 4) as u8).collect();
    let iters = if smoke { 10 } else { 100 };
    let secs = time_iters(iters, || pack_codes(&codes, QuantBits::Int2));
    push(
        &mut benches,
        "pack_codes_2bit",
        format!("codes={pack_n}"),
        iters,
        secs,
    );
    let packed = pack_codes(&codes, QuantBits::Int2);
    let secs = time_iters(iters, || {
        unpack_codes(&packed, QuantBits::Int2, codes.len())
    });
    push(
        &mut benches,
        "unpack_codes_2bit",
        format!("codes={pack_n}"),
        iters,
        secs,
    );

    // --- Attention prefill kernels (ported from benches/attention.rs). ---
    let prefill_tokens = if smoke { 64 } else { 256 };
    let (q, k, v) = qkv(prefill_tokens, 64, 1);
    let iters = if smoke { 2 } else { 10 };
    let secs = time_iters(iters, || {
        baseline_attention(&q, &k, &v, AttentionMask::Causal)
    });
    push(
        &mut benches,
        "prefill_attention/baseline_fp32",
        format!("tokens={prefill_tokens}"),
        iters,
        secs,
    );
    let secs = time_iters(iters, || {
        flash_attention(&q, &k, &v, AttentionMask::Causal, 64)
    });
    push(
        &mut benches,
        "prefill_attention/flash_tiled",
        format!("tokens={prefill_tokens}"),
        iters,
        secs,
    );
    let secs = time_iters(iters, || {
        let mut rng = DetRng::new(2);
        hack_prefill_attention(&q, &k, &v, HackConfig::paper_default(), &mut rng)
    });
    push(
        &mut benches,
        "prefill_attention/hack_homomorphic",
        format!("tokens={prefill_tokens}"),
        iters,
        secs,
    );

    // --- Decode step + append (ported from benches/attention.rs). ---
    let decode_tokens = if smoke { 256 } else { 1024 };
    let (_, k, v) = qkv(decode_tokens, 64, 3);
    for (name, cfg) in [
        ("hack", HackConfig::paper_default()),
        ("hack_no_se", HackConfig::without_summation_elimination()),
        ("hack_no_rqe", HackConfig::without_requant_elimination()),
    ] {
        let mut rng = DetRng::new(4);
        let state = HackKvState::from_prefill(&k, &v, cfg, &mut rng);
        let q_row = vec![0.1f32; 64];
        let iters = if smoke { 3 } else { 30 };
        let secs = time_iters(iters, || {
            let mut rng = DetRng::new(5);
            state.decode_attention(&q_row, &mut rng)
        });
        push(
            &mut benches,
            "decode_step",
            format!("variant={name},kv={decode_tokens}"),
            iters,
            secs,
        );
    }
    for (name, cfg) in [
        ("with_rqe", HackConfig::paper_default()),
        ("without_rqe", HackConfig::without_requant_elimination()),
    ] {
        // Prefill-state construction stays outside the timed closure (the
        // deleted criterion bench used iter_batched for the same reason);
        // each iteration clones the state and appends a burst of tokens large
        // enough that the append path — where the RQE ablation actually
        // differs — dominates the clone. A clone-only row records the floor
        // so the append rows can be read net of it.
        let mut rng = DetRng::new(7);
        let base = HackKvState::from_prefill(&k, &v, cfg, &mut rng);
        let row = vec![0.3f32; 64];
        let appends = 64;
        let iters = if smoke { 3 } else { 20 };
        let secs = time_iters(iters, || base.clone());
        push(
            &mut benches,
            "append_token",
            format!("variant={name}_clone_only,kv={decode_tokens}"),
            iters,
            secs,
        );
        let secs = time_iters(iters, || {
            let mut state = base.clone();
            let mut rng = DetRng::new(8);
            for _ in 0..appends {
                state.append_token(&row, &row, &mut rng);
            }
            state
        });
        push(
            &mut benches,
            "append_token",
            format!("variant={name},kv={decode_tokens},appends={appends}"),
            iters,
            secs,
        );
    }

    // --- Baseline codecs (ported from benches/codecs.rs). ---
    let (codec_tokens, codec_channels) = if smoke { (128, 64) } else { (512, 128) };
    let m = kv_matrix(codec_tokens, codec_channels);
    let codecs: Vec<(&str, Box<dyn KvCompressor>)> = vec![
        ("kvquant_2bit", Box::new(KvQuantLike::default())),
        ("cachegen_delta_entropy", Box::new(CacheGenLike::default())),
        ("fp8_e4m3", Box::new(MinifloatCast::fp8(Fp8Format::E4M3))),
        ("fp4_e2m1", Box::new(MinifloatCast::fp4())),
    ];
    for (name, codec) in &codecs {
        let iters = if smoke { 3 } else { 20 };
        let secs = time_iters(iters, || {
            let mut rng = DetRng::new(2);
            codec.compress(&m, &mut rng)
        });
        push(
            &mut benches,
            "kv_codec_compress",
            format!("codec={name},{codec_tokens}x{codec_channels}"),
            iters,
            secs,
        );
        let mut rng = DetRng::new(3);
        let compressed = codec.compress(&m, &mut rng);
        let secs = time_iters(iters, || codec.decompress(&compressed));
        push(
            &mut benches,
            "kv_codec_decompress",
            format!("codec={name},{codec_tokens}x{codec_channels}"),
            iters,
            secs,
        );
    }

    KernelsReport {
        schema: "hack-bench/kernels/v1",
        scale: if smoke { "smoke" } else { "full" },
        quantized_matmul_speedup: speedups,
        benches,
    }
}

/// A self-scheduling engine component: every delivery fans out two more events
/// until the budget is exhausted — a pure queue/payload workload.
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
                    let delay = 0.5 + (burst.depth % 7) as f64 * 0.25;
                    self.ctx.emit_self(
                        Burst {
                            depth: burst.depth + 1,
                        },
                        delay,
                    );
                    self.ctx.emit_self(
                        Burst {
                            depth: burst.depth + 2,
                        },
                        delay * 2.0,
                    );
                }
            }
        }
    }

    /// Runs the storm until ~`2 * budget` events are processed; returns the count.
    pub fn run(budget: u64) -> u64 {
        let mut sim = Simulation::new(7);
        let ctx = sim.create_context("echo");
        let echo = Rc::new(RefCell::new(Echo { ctx, budget }));
        echo.borrow().ctx.emit_self(Burst { depth: 0 }, 0.0);
        sim.add_handler("echo", echo);
        sim.run();
        sim.processed_count()
    }
}

/// Times `run` (which returns the events it processed) best-of-two, records
/// it as a bench row and checks both runs processed the same events.
fn time_engine(
    benches: &mut Vec<Bench>,
    name: &str,
    config: String,
    mut run: impl FnMut() -> u64,
) -> EngineRun {
    let mut secs = f64::INFINITY;
    let mut events = Vec::new();
    for _round in 0..2 {
        let start = Instant::now();
        events.push(run());
        secs = secs.min(start.elapsed().as_secs_f64());
    }
    assert_eq!(
        events[0], events[1],
        "{name}: runs must process identically"
    );
    let engine_run = EngineRun {
        events_processed: events[0],
        secs,
        ns_per_event: 1e9 * secs / events[0] as f64,
    };
    println!(
        "  {name}: {} events in {:.3}s ({:.0} ns/event)",
        engine_run.events_processed, engine_run.secs, engine_run.ns_per_event
    );
    push(benches, name, config, 2, secs);
    engine_run
}

fn sim_benches(smoke: bool) -> SimReport {
    let mut benches = Vec::new();
    println!("== simulator benches ==");

    // --- Engine 1: a seeded cluster run. The components emit 4 events per
    // request, so the full-scale run processes well over one million engine
    // events; the short-output IMDb workload keeps the analytic cost model
    // cheap so the engine dominates the wall-clock. ---
    let requests = if smoke { 2_000 } else { 300_000 };
    let experiment = JctExperiment {
        num_requests: requests,
        rps: Some(2.0),
        ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, Dataset::Imdb)
    };
    let simulator = Simulator::new(experiment.simulation_config(Method::hack()));
    let mut last_result: Option<hack_cluster::SimulationResult> = None;
    let engine_cluster_run = time_engine(
        &mut benches,
        "engine_cluster_run",
        format!("requests={requests}"),
        || {
            let (result, events) = simulator.run_counted(hack_sim::EngineMode::Slab);
            if let Some(prev) = &last_result {
                assert_eq!(prev, &result, "repeat runs must agree bit-for-bit");
            }
            last_result = Some(result);
            events
        },
    );

    // --- Telemetry A/B: the same headline run, telemetry off vs fully
    // instrumented (lifecycle spans + the periodic sampler). Off is the
    // retained-reference claim (bit- and cost-identical to the pre-telemetry
    // simulator); On must stay within a few percent. ---
    let telemetry_overhead = {
        let reference = last_result.clone().expect("cluster_run populated it");
        // ~1000 sampler ticks across the run, matching how the exporter is
        // meant to be used at this scale.
        let interval = (reference.makespan / 1000.0).max(1.0);
        let mut on_config = experiment.simulation_config(Method::hack());
        on_config.telemetry = hack_cluster::TelemetryConfig::with_interval(interval);
        let sim_on = Simulator::new(on_config);
        let iters = if smoke { 2 } else { 3 };
        // Interleaved A/B (off, on, off, on, ...), best-of per path: on a
        // noisy box, consecutive same-path blocks pick up allocator and
        // scheduler drift that would bias the ratio either way.
        black_box(simulator.run());
        black_box(sim_on.run_with_telemetry());
        let mut off_secs = f64::INFINITY;
        let mut on_secs = f64::INFINITY;
        let mut telemetry = None;
        for _ in 0..iters {
            let start = Instant::now();
            black_box(simulator.run());
            off_secs = off_secs.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let (result, tel) = sim_on.run_with_telemetry();
            black_box(result);
            on_secs = on_secs.min(start.elapsed().as_secs_f64());
            telemetry = tel;
        }
        let telemetry = telemetry.expect("telemetry-on run records");
        assert_eq!(
            &reference,
            &sim_on.run_with_telemetry().0,
            "telemetry must not perturb the headline run"
        );
        let report = TelemetryOverheadReport {
            requests,
            off_secs,
            on_secs,
            overhead_percent: 100.0 * (on_secs / off_secs - 1.0),
            spans: telemetry.spans().len(),
            samples: telemetry.series().iter().map(|s| s.points.len()).sum(),
        };
        println!(
            "  telemetry_overhead: off {:.3}s -> on {:.3}s ({:+.2}%, {} spans, {} samples)",
            report.off_secs, report.on_secs, report.overhead_percent, report.spans, report.samples
        );
        push(
            &mut benches,
            "telemetry_on_cluster_run",
            format!("requests={requests}"),
            iters,
            on_secs,
        );
        report
    };

    // --- Engine 2: pure engine event storm (queue + payload churn only). ---
    let storm_budget = if smoke { 50_000 } else { 600_000 };
    let engine_event_storm = time_engine(
        &mut benches,
        "engine_event_storm",
        format!("budget={storm_budget}"),
        || storm::run(storm_budget),
    );

    // --- sim_cost 1: decode_durations, prefix-sum table vs reference loop,
    // over a realistic long-prompt trace. ---
    let micro_requests = if smoke { 200 } else { 2_000 };
    let micro_trace = TraceGenerator::new(hack_workload::trace::TraceConfig {
        dataset: Dataset::Cocktail,
        rps: 0.1,
        num_requests: micro_requests,
        max_context: ModelKind::Llama31_70B.spec().max_context,
        seed: 5,
    })
    .generate();
    let decode_model = ReplicaCostModel::new(
        ModelKind::Llama31_70B.spec(),
        GpuKind::A100.spec(),
        Parallelism::table3(ModelKind::Llama31_70B, GpuKind::A100),
    );
    let profile = Method::hack().profile();
    let batch = decode_model.params.decode_batch;
    let max_kv = micro_trace
        .iter()
        .map(Request::total_tokens)
        .max()
        .unwrap_or(1);
    let table = DecodeCostTable::build(&decode_model, &profile, batch, max_kv);
    let iters = if smoke { 5 } else { 30 };
    let loop_pass = || {
        micro_trace
            .iter()
            .map(|r| {
                let (d, q) = decode_model.decode_durations_reference(
                    &profile,
                    batch,
                    r.input_len,
                    r.output_len,
                );
                d + q
            })
            .sum::<f64>()
    };
    let table_pass = || {
        micro_trace
            .iter()
            .map(|r| {
                let (d, q) = table.decode_durations(r.input_len, r.output_len);
                d + q
            })
            .sum::<f64>()
    };
    // The two passes must agree (prefix sums only reorder the summation).
    let (loop_total, table_total) = (loop_pass(), table_pass());
    assert!(
        (loop_total - table_total).abs() <= 1e-9 * loop_total.abs(),
        "cost-table pass diverged from the loop: {table_total} vs {loop_total}"
    );
    let loop_secs = time_iters(iters, loop_pass);
    let table_secs = time_iters(iters, table_pass);
    push(
        &mut benches,
        "sim_cost/decode_durations",
        format!("path=loop,requests={micro_requests}"),
        iters,
        loop_secs,
    );
    push(
        &mut benches,
        "sim_cost/decode_durations",
        format!("path=table,requests={micro_requests}"),
        iters,
        table_secs,
    );
    let decode_durations = DecodeDurationsMicrobench {
        dataset: "Cocktail",
        requests: micro_requests,
        output_tokens: micro_trace.iter().map(|r| r.output_len as u64).sum(),
        loop_secs,
        table_secs,
        speedup: loop_secs / table_secs,
    };
    println!(
        "  sim_cost/decode_durations: {:.1}x (loop {:.1} us vs table {:.2} us per {} requests)",
        decode_durations.speedup,
        loop_secs * 1e6,
        table_secs * 1e6,
        micro_requests
    );

    // --- sim_cost 2: a full capacity bisection. ---
    let probe_requests = if smoke { 20 } else { 40 };
    let bisect_experiment = JctExperiment {
        num_requests: probe_requests,
        ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, Dataset::Cocktail)
    };
    let bisect_iters = if smoke { 2 } else { 5 };
    let max_rps = bisect_experiment.measured_max_rps();
    let bisect_secs = time_iters(bisect_iters, || bisect_experiment.measured_max_rps());
    push(
        &mut benches,
        "capacity_bisection",
        format!("path=cached,probe_requests={probe_requests}"),
        bisect_iters,
        bisect_secs,
    );
    let capacity_bisection = BisectionRun {
        dataset: "Cocktail",
        probe_requests,
        max_rps,
        secs: bisect_secs,
    };
    println!(
        "  sim_cost/capacity_bisection: {:.1} ms (max_rps {max_rps:.4})",
        bisect_secs * 1e3
    );

    // --- tenant_mix: the two-tenant contention grid, one run per scheduling
    // policy. The timed closure is *only* the policy-driven simulation run —
    // trace generation and outcome aggregation stay outside so a slow policy
    // implementation is not diluted by policy-independent setup. ---
    let mut mix = TenantMixExperiment::interactive_vs_batch();
    if smoke {
        mix.tenants[0].num_requests = 8;
        mix.tenants[1].num_requests = 30;
    }
    let mix_requests = std::sync::Arc::new(mix.trace().generate());
    let mix_classes = mix.classes();
    let mix_iters = if smoke { 2 } else { 5 };
    let mut runs = Vec::new();
    for scheduling in SchedulingPolicyKind::all() {
        let config = mix.simulation_config(Method::hack(), scheduling);
        let simulator = Simulator::with_requests(config, mix_requests.clone());
        let secs = time_iters(mix_iters, || simulator.run());
        let outcome = hack_core::tenant_mix::TenantMixOutcome::from_result_with_classes(
            scheduling,
            &mix_classes,
            simulator.run(),
        );
        push(
            &mut benches,
            "tenant_mix/cluster_run",
            format!(
                "policy={},requests={}",
                scheduling.name(),
                mix.tenants.iter().map(|t| t.num_requests).sum::<usize>()
            ),
            mix_iters,
            secs,
        );
        runs.push(TenantMixPolicyRun {
            policy: scheduling.name().to_string(),
            secs,
            jain_fairness: outcome.jain_fairness,
            average_jct: outcome.average_jct,
            per_tenant_mean_jct: outcome.per_tenant.iter().map(|t| t.stats.mean).collect(),
            per_tenant_slo_attainment: outcome
                .slo
                .iter()
                .map(hack_metrics::tenant::TenantSlo::attainment)
                .collect(),
        });
    }
    let jain_of = |runs: &[TenantMixPolicyRun], policy: &str| {
        runs.iter()
            .find(|r| r.policy == policy)
            .map_or(f64::NAN, |r| r.jain_fairness)
    };
    let (fcfs_jain, wrr_jain, edf_jain) = (
        jain_of(&runs, "fcfs"),
        jain_of(&runs, "wrr"),
        jain_of(&runs, "slo-edf"),
    );
    let tenant_mix = TenantMixReport {
        requests: mix.tenants.iter().map(|t| t.num_requests).sum(),
        tenants: mix.tenants.len(),
        wrr_jain_gain_vs_fcfs: wrr_jain - fcfs_jain,
        slo_edf_jain_gain_vs_fcfs: edf_jain - fcfs_jain,
        runs,
    };
    println!(
        "  tenant_mix: jain fcfs {fcfs_jain:.3} / wrr {wrr_jain:.3} / slo-edf {edf_jain:.3} \
         (wrr gain {:+.3})",
        tenant_mix.wrr_jain_gain_vs_fcfs
    );

    // --- hetero_fleet: the mixed A10G+L4 prefill fleet under every dispatch
    // policy, against the uniform A10G fleet of equal instance count. As with
    // tenant_mix, only the policy-driven simulation run is timed. ---
    let mut hetero = HeteroFleetExperiment::paper_mixed();
    if smoke {
        hetero.num_requests = 25;
    }
    let hetero_iters = if smoke { 2 } else { 5 };
    let uniform_sim = Simulator::new(hetero.simulation_config(
        hetero.uniform_cluster(),
        Method::hack(),
        DispatchPolicyKind::LeastLoaded,
    ));
    let uniform_secs = time_iters(hetero_iters, || uniform_sim.run());
    let uniform_avg_jct = uniform_sim.run().average_jct();
    push(
        &mut benches,
        "hetero_fleet/cluster_run",
        format!("fleet=uniform,requests={}", hetero.num_requests),
        hetero_iters,
        uniform_secs,
    );
    let mut hetero_runs = Vec::new();
    for dispatch in DispatchPolicyKind::all() {
        let simulator = Simulator::new(hetero.simulation_config(
            hetero.mixed_cluster(),
            Method::hack(),
            dispatch,
        ));
        let secs = time_iters(hetero_iters, || simulator.run());
        let outcome = HeteroFleetOutcome::from_result(dispatch, simulator.run());
        push(
            &mut benches,
            "hetero_fleet/cluster_run",
            format!(
                "fleet=mixed,policy={},requests={}",
                dispatch.name(),
                hetero.num_requests
            ),
            hetero_iters,
            secs,
        );
        hetero_runs.push(HeteroFleetPolicyRun {
            policy: dispatch.name().to_string(),
            secs,
            average_jct: outcome.average_jct,
            per_group_utilization: outcome
                .prefill_groups
                .iter()
                .map(|g| g.utilization)
                .collect(),
            per_group_completed: outcome
                .prefill_groups
                .iter()
                .map(|g| g.completed as f64)
                .collect(),
        });
    }
    let jct_of = |runs: &[HeteroFleetPolicyRun], policy: &str| {
        runs.iter()
            .find(|r| r.policy == policy)
            .map_or(f64::NAN, |r| r.average_jct)
    };
    let (least_jct, fastest_jct) = (
        jct_of(&hetero_runs, "least-loaded"),
        jct_of(&hetero_runs, "fastest-eligible"),
    );
    let hetero_fleet = HeteroFleetReport {
        requests: hetero.num_requests,
        uniform_secs,
        uniform_avg_jct,
        runs: hetero_runs,
        mixed_jct_reduction_vs_uniform: 1.0 - least_jct / uniform_avg_jct,
        fastest_eligible_jct_gain_vs_least_loaded: 1.0 - fastest_jct / least_jct,
    };
    println!(
        "  hetero_fleet: uniform {uniform_avg_jct:.2}s / mixed least-loaded {least_jct:.2}s / \
         mixed fastest-eligible {fastest_jct:.2}s (mixed {:+.1}%, dispatch {:+.1}%)",
        -100.0 * hetero_fleet.mixed_jct_reduction_vs_uniform,
        -100.0 * hetero_fleet.fastest_eligible_jct_gain_vs_least_loaded
    );

    // --- fault_storm: the robustness grid. First the interleaved Flat vs
    // LinkGraph A/B on the identical fault-free workload — what the flow-based
    // fabric costs when nothing fails — then one run per fault scenario
    // reporting the resilience sensors. Before timing, the flat/no-fault run
    // is asserted bit-identical to the plain pre-topology simulation, so the
    // bench doubles as the retained-reference guard at bench scale. ---
    let mut storm = FaultStormExperiment::paper_storm();
    if smoke {
        storm.num_requests = 25;
    }
    let storm_scenarios = storm.scenarios();
    let storm_iters = if smoke { 2 } else { 5 };
    let flat_sim = Simulator::new(storm.simulation_config(&storm_scenarios[0], Method::hack()));
    let graph_sim = Simulator::new(storm.simulation_config(&storm_scenarios[1], Method::hack()));
    {
        let mut legacy = storm.simulation_config(&storm_scenarios[0], Method::hack());
        legacy.cluster = ClusterConfig::paper_default(storm.model, GpuKind::A10G);
        assert_eq!(
            flat_sim.run(),
            Simulator::new(legacy).run(),
            "the flat/no-fault anchor must be the pre-topology simulation, bit for bit"
        );
    }
    // Interleaved A/B (flat, graph, flat, graph, ...), best-of per fabric.
    black_box(flat_sim.run());
    black_box(graph_sim.run());
    let mut flat_secs = f64::INFINITY;
    let mut graph_secs = f64::INFINITY;
    for _ in 0..storm_iters {
        let start = Instant::now();
        black_box(flat_sim.run());
        flat_secs = flat_secs.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(graph_sim.run());
        graph_secs = graph_secs.min(start.elapsed().as_secs_f64());
    }
    let mut storm_runs = Vec::new();
    for (i, scenario) in storm_scenarios.iter().enumerate() {
        let simulator = Simulator::new(storm.simulation_config(scenario, Method::hack()));
        // The two fault-free rows reuse the interleaved A/B timings.
        let secs = match i {
            0 => flat_secs,
            1 => graph_secs,
            _ => time_iters(storm_iters, || simulator.run()),
        };
        let outcome = FaultStormOutcome::from_result(scenario.label, simulator.run());
        push(
            &mut benches,
            "fault_storm/cluster_run",
            format!(
                "scenario={},requests={}",
                scenario.label, storm.num_requests
            ),
            storm_iters,
            secs,
        );
        storm_runs.push(FaultStormScenarioRun {
            scenario: outcome.label,
            secs,
            average_jct: outcome.average_jct,
            completed: outcome.completed,
            aborted: outcome.aborted,
            transfer_retries: outcome.transfer_retries,
            blast_radius: outcome.blast_radius,
            degraded_goodput: outcome.degraded_goodput,
            recovery_drain_secs: outcome.recovery_drain_secs,
        });
    }
    let fault_storm = FaultStormReport {
        requests: storm.num_requests,
        flat_secs,
        graph_secs,
        graph_overhead_percent: 100.0 * (graph_secs / flat_secs - 1.0),
        flat_avg_jct: storm_runs[0].average_jct,
        runs: storm_runs,
    };
    let blast = |label: &str| {
        fault_storm
            .runs
            .iter()
            .find(|r| r.scenario == label)
            .map_or(0, |r| r.blast_radius)
    };
    println!(
        "  fault_storm: flat {:.3}s vs graph {:.3}s ({:+.2}% fabric overhead); \
         blast radius tor {} / nic {} / spine {}",
        fault_storm.flat_secs,
        fault_storm.graph_secs,
        fault_storm.graph_overhead_percent,
        blast("graph/tor"),
        blast("graph/nic"),
        blast("graph/spine")
    );

    // --- availability: the MTBF/MTTR Monte-Carlo sweep on the redundant-
    // spine fabric. Each grid point generates its fault plans from seeded
    // exponential failure/repair processes, so the pooled SLO curve is a pure
    // function of the experiment and `--compare` can pin it exactly. ---
    let mut sweep = AvailabilityExperiment::paper_sweep();
    if smoke {
        sweep.num_requests = 15;
        sweep.fault_seeds.truncate(2);
    }
    let sweep_iters = if smoke { 1 } else { 3 };
    let sweep_secs = time_iters(sweep_iters, || sweep.sweep(Method::hack()));
    push(
        &mut benches,
        "availability/sweep",
        format!(
            "grid={},seeds={},requests={}",
            sweep.mtbf_grid_s.len(),
            sweep.fault_seeds.len(),
            sweep.num_requests
        ),
        sweep_iters,
        sweep_secs,
    );
    let points: Vec<AvailabilityGridRun> = sweep
        .sweep(Method::hack())
        .into_iter()
        .map(|p| AvailabilityGridRun {
            mtbf_s: p.mtbf_s,
            availability: p.availability,
            nines: p.nines,
            p99_jct_s: p.p99_jct_s,
            p999_jct_s: p.p999_jct_s,
            downtime_s: p.downtime_s,
            degraded_link_secs: p.degraded_link_secs,
            abandoned: p.abandoned,
            aborted: p.aborted,
            transfer_retries: p.transfer_retries,
            rerouted_flows: p.rerouted_flows,
            generated_faults: p.generated_faults,
        })
        .collect();
    let availability = AvailabilityReport {
        requests: sweep.num_requests,
        fault_seeds: sweep.fault_seeds.len(),
        spines: sweep.spines,
        sweep_secs,
        worst_availability: points.first().map_or(1.0, |p| p.availability),
        points,
    };
    {
        let worst = availability.points.first();
        let best = availability.points.last();
        println!(
            "  availability: mtbf {:.0}s -> {:.4} ({:.2} nines, p99 {:.2}s) / mtbf {:.0}s -> {:.4}; \
             {} faults generated, {} flows rerouted",
            worst.map_or(0.0, |p| p.mtbf_s),
            availability.worst_availability,
            worst.map_or(0.0, |p| p.nines),
            worst.map_or(0.0, |p| p.p99_jct_s),
            best.map_or(0.0, |p| p.mtbf_s),
            best.map_or(1.0, |p| p.availability),
            availability.points.iter().map(|p| p.generated_faults).sum::<usize>(),
            availability.points.iter().map(|p| p.rerouted_flows).sum::<usize>(),
        );
    }

    // --- autoscale: the cost-vs-SLO Pareto sweep of every scaling policy on
    // the time-warped (diurnal / bursty) traces, plus the Off-identity A/B.
    // The shaped traces are deterministic in the experiment, so at equal
    // scale `--compare` can pin every cell exactly. ---
    let mut auto_e = AutoscaleExperiment::paper_sweep();
    if smoke {
        auto_e.num_requests = 20;
    }
    let auto_iters = if smoke { 1 } else { 3 };
    let auto_secs = time_iters(auto_iters, || auto_e.sweep(Method::hack()));
    push(
        &mut benches,
        "autoscale/sweep",
        format!(
            "shapes={},policies={},requests={}",
            TraceShape::all().len(),
            ScalingPolicyKind::all(auto_e.per_replica_rps).len(),
            auto_e.num_requests
        ),
        auto_iters,
        auto_secs,
    );
    let autoscale = {
        // Off-identity A/B: an armed controller whose watermarks can never
        // fire must reproduce the scaling-free run bit-for-bit — cost sensors
        // included — and the interleaved wall-clock ratio is the pure cost of
        // arming the controller (ticks + probe, zero orders). `Off` itself
        // skips the controller entirely, so its run loop is the pre-scaling
        // one; this measures what turning the dial from Off to inert costs.
        let inert = ScalingPolicyKind::Threshold {
            high: 1e18,
            low: -1.0,
        };
        let run = |scaling| auto_e.run_cell(TraceShape::Diurnal, scaling, Method::hack());
        let off_reference = run(ScalingPolicyKind::Off);
        assert_eq!(
            off_reference,
            run(inert),
            "an inert controller must be bit-identical to ScalingPolicyKind::Off"
        );
        assert_eq!(
            (off_reference.scale_ups, off_reference.scale_downs),
            (0, 0),
            "the static fleet must not scale"
        );
        let ab_iters = if smoke { 2 } else { 5 };
        let mut off_secs = f64::INFINITY;
        let mut inert_secs = f64::INFINITY;
        for _ in 0..ab_iters {
            let start = Instant::now();
            black_box(run(ScalingPolicyKind::Off));
            off_secs = off_secs.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            black_box(run(inert));
            inert_secs = inert_secs.min(start.elapsed().as_secs_f64());
        }
        let outcomes = auto_e.sweep(Method::hack());
        let off_dollars = outcomes
            .iter()
            .find(|o| o.shape == TraceShape::Diurnal && o.policy == ScalingPolicyKind::Off)
            .map_or(0.0, |o| o.gpu_dollars);
        let frontier_min = outcomes
            .iter()
            .filter(|o| o.shape == TraceShape::Diurnal && o.pareto)
            .map(|o| o.gpu_dollars)
            .fold(f64::INFINITY, f64::min);
        let diurnal_savings_percent = if off_dollars > 0.0 && frontier_min.is_finite() {
            100.0 * (1.0 - frontier_min / off_dollars)
        } else {
            0.0
        };
        let points: Vec<AutoscaleGridRun> = outcomes
            .iter()
            .map(|o| AutoscaleGridRun {
                shape: o.shape.name().to_string(),
                policy: o.policy.name().to_string(),
                slo_attainment: o.slo_attainment,
                mean_jct_s: o.mean_jct_s,
                p99_jct_s: o.p99_jct_s,
                gpu_dollars: o.gpu_dollars,
                dollars_per_1k_tokens: o.dollars_per_1k_tokens,
                scale_ups: o.scale_ups,
                scale_downs: o.scale_downs,
                pareto: o.pareto,
            })
            .collect();
        AutoscaleReport {
            requests: auto_e.num_requests,
            slo_jct_s: auto_e.slo_jct_s,
            sweep_secs: auto_secs,
            controller_overhead_percent: 100.0 * (inert_secs / off_secs - 1.0),
            diurnal_savings_percent,
            points,
        }
    };
    println!(
        "  autoscale: diurnal frontier spends {:.1}% less than the static fleet; \
         inert-controller A/B identical ({:+.2}% armed overhead); {} scale-ups / {} scale-downs across the grid",
        autoscale.diurnal_savings_percent,
        autoscale.controller_overhead_percent,
        autoscale.points.iter().map(|p| p.scale_ups).sum::<usize>(),
        autoscale.points.iter().map(|p| p.scale_downs).sum::<usize>(),
    );

    // --- session_cache: the session prefix-cache grid. First the interleaved
    // Off vs armed-idle A/B on a sessionless trace — with no parents and no
    // shared prefixes an armed cache never hits, never inserts and never
    // evicts, so the run must match the cache-off one exactly (asserted,
    // sensor shape aside, before timing) and the wall-clock ratio is the pure
    // cost of arming the cache. Then one run per (mix, cache, dispatch) cell
    // with the cache sensors. ---
    let session_cache = {
        use hack_cluster::CacheConfig;
        let ab_requests = if smoke { 500 } else { 20_000 };
        let ab_experiment = JctExperiment {
            num_requests: ab_requests,
            rps: Some(2.0),
            ..JctExperiment::new(ModelKind::Llama31_70B, GpuKind::A10G, Dataset::Imdb)
        };
        let off_sim = Simulator::new(ab_experiment.simulation_config(Method::hack()));
        let mut armed_config = ab_experiment.simulation_config(Method::hack());
        armed_config.cache = CacheConfig::on();
        let armed_sim = Simulator::new(armed_config);
        {
            let mut armed = armed_sim.run();
            assert_eq!(armed.prefix_hits + armed.prefix_misses, 0);
            assert!(armed.prefix_cache_peak_fraction.iter().all(|&f| f == 0.0));
            armed.prefix_cache_peak_fraction = Vec::new();
            assert_eq!(
                armed,
                off_sim.run(),
                "an armed-but-idle cache must be bit-identical to CacheConfig::Off"
            );
        }
        // Interleaved A/B (off, armed, off, armed, ...), best-of per path.
        let ab_iters = if smoke { 2 } else { 5 };
        black_box(off_sim.run());
        black_box(armed_sim.run());
        let mut off_secs = f64::INFINITY;
        let mut armed_idle_secs = f64::INFINITY;
        for _ in 0..ab_iters {
            let start = Instant::now();
            black_box(off_sim.run());
            off_secs = off_secs.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            black_box(armed_sim.run());
            armed_idle_secs = armed_idle_secs.min(start.elapsed().as_secs_f64());
        }

        let mut sessions = SessionCacheExperiment::paper_default();
        if smoke {
            sessions.sessions = 3;
        }
        let cell_iters = if smoke { 2 } else { 5 };
        let mut cell_runs = Vec::new();
        for mix in SessionMix::all() {
            let requests = std::sync::Arc::new(sessions.trace(mix).generate());
            for (cache, dispatch) in sessions.cells() {
                let config = sessions.simulation_config(
                    Method::hack(),
                    mix,
                    cache,
                    dispatch,
                    requests.len(),
                );
                let simulator = Simulator::with_requests(config, requests.clone());
                let secs = time_iters(cell_iters, || simulator.run());
                let outcome =
                    SessionCacheOutcome::from_result(mix, cache.is_on(), dispatch, simulator.run());
                push(
                    &mut benches,
                    "session_cache/cluster_run",
                    format!("cell={},requests={}", outcome.label(), requests.len()),
                    cell_iters,
                    secs,
                );
                cell_runs.push(SessionCacheCellRun {
                    cell: outcome.label(),
                    secs,
                    mean_jct_s: outcome.mean_jct,
                    hit_rate: outcome.hit_rate,
                    prefill_s_saved: outcome.prefill_seconds_saved,
                    bytes_saved: outcome.bytes_saved,
                    prefix_evictions: outcome.prefix_evictions,
                    completed: outcome.completed_requests,
                });
            }
        }
        let jct_of = |runs: &[SessionCacheCellRun], cell: &str| {
            runs.iter()
                .find(|r| r.cell == cell)
                .map_or(f64::NAN, |r| r.mean_jct_s)
        };
        let chat_off_jct = jct_of(&cell_runs, "chat/off/least-loaded");
        let chat_on = cell_runs
            .iter()
            .find(|r| r.cell == "chat/on/session-affinity")
            .expect("armed chat cell ran");
        SessionCacheReport {
            ab_requests,
            sessions: sessions.sessions,
            off_secs,
            armed_idle_secs,
            cache_overhead_percent: 100.0 * (armed_idle_secs / off_secs - 1.0),
            chat_hit_rate: chat_on.hit_rate,
            chat_jct_reduction_percent: 100.0 * (1.0 - chat_on.mean_jct_s / chat_off_jct),
            runs: cell_runs,
        }
    };
    println!(
        "  session_cache: armed-idle A/B identical ({:+.2}% overhead); chat hit rate {:.2}, \
         mean JCT {:+.1}% vs cache-off",
        session_cache.cache_overhead_percent,
        session_cache.chat_hit_rate,
        -session_cache.chat_jct_reduction_percent
    );

    // --- Per-method end-to-end runs (ported from benches/simulator.rs). ---
    let per_method_requests = if smoke { 10 } else { 200 };
    for method in Method::main_comparison() {
        let e = JctExperiment {
            num_requests: per_method_requests,
            ..JctExperiment::paper_default()
        };
        let iters = if smoke { 2 } else { 5 };
        let secs = time_iters(iters, || e.run(method));
        push(
            &mut benches,
            "cluster_sim",
            format!("method={},requests={per_method_requests}", method.name()),
            iters,
            secs,
        );
    }

    SimReport {
        schema: "hack-bench/sim/v10",
        scale: if smoke { "smoke" } else { "full" },
        cluster_run_requests: requests,
        engine_cluster_run,
        engine_event_storm,
        telemetry_overhead,
        sim_cost: SimCostReport {
            decode_durations,
            capacity_bisection,
        },
        tenant_mix,
        hetero_fleet,
        fault_storm,
        availability,
        autoscale,
        session_cache,
        benches,
    }
}

fn write_json<T: Serialize>(path: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialise bench report");
    std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("[saved {path}]");
}

/// `--compare <baseline.json>`: diff the current run against previously
/// recorded reports. A *report*, never a gate — the process always exits 0;
/// regressions beyond the thresholds are flagged in the output for a human
/// (or the CI log reader) to judge.
mod compare {
    use serde_json::Value;
    use std::collections::BTreeMap;

    /// Flag a per-bench wall-clock delta beyond ±25%.
    const BENCH_DELTA_FLAG_PERCENT: f64 = 25.0;
    /// Flag a headline-ratio drop beyond 10% relative.
    const HEADLINE_DROP_FLAG: f64 = 0.10;
    /// Flag the telemetry-on run when it costs more than this over the
    /// telemetry-off run (an absolute budget, not a relative-to-baseline one:
    /// the retained-reference claim is "under 5% at full scale").
    const TELEMETRY_OVERHEAD_FLAG_PERCENT: f64 = 5.0;
    /// Flag the link-graph fabric when the fault-free run costs more than
    /// this over the flat fabric (the flow bookkeeping should stay cheap).
    const FABRIC_OVERHEAD_FLAG_PERCENT: f64 = 10.0;
    /// Flag an armed-but-idle prefix cache when it costs more than this over
    /// the cache-off run (the lookup fast path should stay near-free).
    const CACHE_OVERHEAD_FLAG_PERCENT: f64 = 5.0;

    /// Loads a baseline JSON, warning (not failing) on any problem.
    pub fn load(path: &str) -> Option<Value> {
        match std::fs::read_to_string(path) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(value) => Some(value),
                Err(err) => {
                    println!("[compare] cannot parse {path}: {err} — skipping");
                    None
                }
            },
            Err(err) => {
                println!("[compare] cannot read {path}: {err} — skipping");
                None
            }
        }
    }

    /// Which report family a JSON belongs to, from its `schema` tag.
    pub fn kind(value: &Value) -> Option<&'static str> {
        let schema = value.get_key("schema")?.as_str()?;
        if schema.starts_with("hack-bench/kernels/") {
            Some("kernels")
        } else if schema.starts_with("hack-bench/sim/") {
            Some("sim")
        } else {
            None
        }
    }

    fn as_array(value: &Value) -> Option<&Vec<Value>> {
        match value {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    fn bench_map(value: &Value) -> BTreeMap<(String, String), f64> {
        value
            .get_key("benches")
            .and_then(as_array)
            .map(|benches| {
                benches
                    .iter()
                    .filter_map(|b| {
                        Some((
                            (
                                b.get_key("name")?.as_str()?.to_string(),
                                b.get_key("config")?.as_str()?.to_string(),
                            ),
                            b.get_key("seconds_per_iter")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn lookup<'v>(value: &'v Value, path: &[&str]) -> Option<&'v Value> {
        path.iter().try_fold(value, |v, key| v.get_key(key))
    }

    /// Prints one headline-ratio comparison; `higher_is_better` values are
    /// flagged when the current run drops more than `HEADLINE_DROP_FLAG`
    /// relative below the baseline.
    fn headline(label: &str, baseline: Option<f64>, current: Option<f64>) {
        match (baseline, current) {
            (Some(b), Some(c)) => {
                let regressed = c < b * (1.0 - HEADLINE_DROP_FLAG);
                let verdict = if regressed { "REGRESSION?" } else { "ok" };
                println!("  [headline] {label:<44} {b:>9.3} -> {c:>9.3}  {verdict}");
            }
            (None, Some(c)) => {
                println!("  [headline] {label:<44} {:>9} -> {c:>9.3}  (new)", "-");
            }
            _ => {}
        }
    }

    /// Prints the full delta report of `current` against `baseline`.
    pub fn report(path: &str, baseline: &Value, current: &Value) {
        let b_scale = baseline
            .get_key("scale")
            .and_then(Value::as_str)
            .unwrap_or("?");
        let c_scale = current
            .get_key("scale")
            .and_then(Value::as_str)
            .unwrap_or("?");
        println!("\n== perf compare vs {path} ==");
        if b_scale != c_scale {
            println!(
                "  [note] baseline scale={b_scale}, current scale={c_scale}: absolute \
                 timings are not comparable across scales; headline ratios still are"
            );
        }

        let base_benches = bench_map(baseline);
        let cur_benches = bench_map(current);
        for ((name, config), cur) in &cur_benches {
            match base_benches.get(&(name.clone(), config.clone())) {
                Some(base) if *base > 0.0 => {
                    let delta = 100.0 * (cur / base - 1.0);
                    let flag = if delta.abs() <= BENCH_DELTA_FLAG_PERCENT {
                        ""
                    } else if delta > 0.0 {
                        "  SLOWER?"
                    } else {
                        "  faster"
                    };
                    println!(
                        "  {name:<38} {config:<36} {:>10.1} -> {:>10.1} us/iter  {delta:>+7.1}%{flag}",
                        base * 1e6,
                        cur * 1e6
                    );
                }
                _ => println!(
                    "  {name:<38} {config:<36} {:>10} -> {:>10.1} us/iter  (no baseline)",
                    "-",
                    cur * 1e6
                ),
            }
        }
        for key in base_benches.keys() {
            if !cur_benches.contains_key(key) {
                println!(
                    "  {:<38} {:<36} dropped (present only in baseline)",
                    key.0, key.1
                );
            }
        }

        match kind(current) {
            Some("kernels") => {
                let per_lkv = |v: &Value| -> BTreeMap<u64, f64> {
                    v.get_key("quantized_matmul_speedup")
                        .and_then(as_array)
                        .map(|rows| {
                            rows.iter()
                                .filter_map(|r| {
                                    Some((
                                        r.get_key("l_kv")?.as_f64()? as u64,
                                        r.get_key("speedup")?.as_f64()?,
                                    ))
                                })
                                .collect()
                        })
                        .unwrap_or_default()
                };
                let base = per_lkv(baseline);
                for (l_kv, cur) in per_lkv(current) {
                    headline(
                        &format!("quantized_matmul_speedup[l_kv={l_kv}]"),
                        base.get(&l_kv).copied(),
                        Some(cur),
                    );
                }
            }
            Some("sim") => {
                // The engine and bisection timings are bench rows (above);
                // the loop-vs-table ratio is the one headline left.
                let path = ["sim_cost", "decode_durations", "speedup"];
                headline(
                    &path.join("."),
                    lookup(baseline, &path).and_then(Value::as_f64),
                    lookup(current, &path).and_then(Value::as_f64),
                );
                // The telemetry budget is absolute (≤ 5% over telemetry-off),
                // so it is checked against the constant, not the baseline —
                // but only a full-scale measurement is meaningful: the budget
                // is defined at the 300k-request headline, where per-request
                // recording dominates. A smoke run finishes in milliseconds,
                // so fixed setup (track/series registration, the sampler's
                // ticks) swamps the ratio; report it as informational.
                if let Some(overhead) = lookup(current, &["telemetry_overhead", "overhead_percent"])
                    .and_then(Value::as_f64)
                {
                    let full_scale =
                        lookup(current, &["scale"]).and_then(Value::as_str) == Some("full");
                    let verdict = if overhead <= TELEMETRY_OVERHEAD_FLAG_PERCENT {
                        "ok"
                    } else if full_scale {
                        "REGRESSION?"
                    } else {
                        "smoke scale, informational (budget applies at full scale)"
                    };
                    let budget = TELEMETRY_OVERHEAD_FLAG_PERCENT;
                    println!(
                        "  [headline] {:<44} {overhead:>8.2}% (budget {budget:.0}%)  {verdict}",
                        "telemetry_overhead.overhead_percent"
                    );
                }
                for path in [
                    ["tenant_mix", "wrr_jain_gain_vs_fcfs"],
                    ["tenant_mix", "slo_edf_jain_gain_vs_fcfs"],
                ] {
                    headline(
                        &path.join("."),
                        lookup(baseline, &path).and_then(Value::as_f64),
                        lookup(current, &path).and_then(Value::as_f64),
                    );
                }
                for path in [
                    ["hetero_fleet", "mixed_jct_reduction_vs_uniform"],
                    ["hetero_fleet", "fastest_eligible_jct_gain_vs_least_loaded"],
                ] {
                    headline(
                        &path.join("."),
                        lookup(baseline, &path).and_then(Value::as_f64),
                        lookup(current, &path).and_then(Value::as_f64),
                    );
                }
                // fault_storm: what the link-graph fabric costs over the flat
                // one on the identical fault-free workload. Like the telemetry
                // budget this is an absolute check, not relative-to-baseline,
                // and only a full-scale ratio is meaningful.
                if let Some(overhead) = lookup(current, &["fault_storm", "graph_overhead_percent"])
                    .and_then(Value::as_f64)
                {
                    let full_scale =
                        lookup(current, &["scale"]).and_then(Value::as_str) == Some("full");
                    let verdict = if overhead <= FABRIC_OVERHEAD_FLAG_PERCENT {
                        "ok"
                    } else if full_scale {
                        "REGRESSION?"
                    } else {
                        "smoke scale, informational (budget applies at full scale)"
                    };
                    println!(
                        "  [headline] {:<44} {overhead:>8.2}% (budget {FABRIC_OVERHEAD_FLAG_PERCENT:.0}%)  {verdict}",
                        "fault_storm.graph_overhead_percent"
                    );
                }
                // session_cache: what arming the prefix cache costs on a
                // sessionless trace (identity asserted before timing). An
                // absolute budget like the telemetry one, full scale only.
                if let Some(overhead) =
                    lookup(current, &["session_cache", "cache_overhead_percent"])
                        .and_then(Value::as_f64)
                {
                    let full_scale =
                        lookup(current, &["scale"]).and_then(Value::as_str) == Some("full");
                    let verdict = if overhead <= CACHE_OVERHEAD_FLAG_PERCENT {
                        "ok"
                    } else if full_scale {
                        "REGRESSION?"
                    } else {
                        "smoke scale, informational (budget applies at full scale)"
                    };
                    println!(
                        "  [headline] {:<44} {overhead:>8.2}% (budget {CACHE_OVERHEAD_FLAG_PERCENT:.0}%)  {verdict}",
                        "session_cache.cache_overhead_percent"
                    );
                }
                headline(
                    "session_cache.chat_jct_reduction_percent",
                    lookup(baseline, &["session_cache", "chat_jct_reduction_percent"])
                        .and_then(Value::as_f64),
                    lookup(current, &["session_cache", "chat_jct_reduction_percent"])
                        .and_then(Value::as_f64),
                );
                // The flat/no-fault anchor is deterministic: at equal scale,
                // *any* average-JCT drift against the committed baseline is a
                // semantic regression of the unchanged path, not noise.
                if b_scale == c_scale {
                    let flat = |v: &Value| {
                        lookup(v, &["fault_storm", "flat_avg_jct"]).and_then(Value::as_f64)
                    };
                    if let (Some(b), Some(c)) = (flat(baseline), flat(current)) {
                        let verdict = if b == c { "ok" } else { "DRIFT?" };
                        println!(
                            "  [headline] {:<44} {b:>9.3} -> {c:>9.3}  {verdict} (must be exact)",
                            "fault_storm.flat_avg_jct"
                        );
                    }
                    // The availability grid is generated from seeded MTBF/MTTR
                    // processes: at equal scale every pooled point is
                    // deterministic, so any drift is semantic.
                    let grid = |v: &Value| -> Vec<(f64, f64, f64)> {
                        lookup(v, &["availability", "points"])
                            .and_then(as_array)
                            .map(|rows| {
                                rows.iter()
                                    .filter_map(|r| {
                                        Some((
                                            r.get_key("mtbf_s")?.as_f64()?,
                                            r.get_key("availability")?.as_f64()?,
                                            r.get_key("p99_jct_s")?.as_f64()?,
                                        ))
                                    })
                                    .collect()
                            })
                            .unwrap_or_default()
                    };
                    let base = grid(baseline);
                    for (mtbf, cur_avail, cur_p99) in grid(current) {
                        let Some(&(_, b_avail, b_p99)) = base.iter().find(|(m, _, _)| *m == mtbf)
                        else {
                            continue;
                        };
                        let verdict = if b_avail == cur_avail && b_p99 == cur_p99 {
                            "ok"
                        } else {
                            "DRIFT?"
                        };
                        println!(
                            "  [headline] {:<44} {b_avail:>9.4} -> {cur_avail:>9.4}  {verdict} (must be exact)",
                            format!("availability[mtbf={mtbf:.0}s]")
                        );
                    }
                    // The autoscale grid replays deterministic time-warped
                    // traces: at equal scale every (shape, policy) cell's
                    // cost/SLO sensors are exact, so any drift is semantic —
                    // a changed controller decision, price, or drain path.
                    let auto_grid = |v: &Value| -> Vec<(String, f64, f64)> {
                        lookup(v, &["autoscale", "points"])
                            .and_then(as_array)
                            .map(|rows| {
                                rows.iter()
                                    .filter_map(|r| {
                                        Some((
                                            format!(
                                                "{}/{}",
                                                r.get_key("shape")?.as_str()?,
                                                r.get_key("policy")?.as_str()?
                                            ),
                                            r.get_key("gpu_dollars")?.as_f64()?,
                                            r.get_key("slo_attainment")?.as_f64()?,
                                        ))
                                    })
                                    .collect()
                            })
                            .unwrap_or_default()
                    };
                    let auto_base = auto_grid(baseline);
                    for (cell, cur_dollars, cur_att) in auto_grid(current) {
                        let Some((_, b_dollars, b_att)) =
                            auto_base.iter().find(|(label, _, _)| *label == cell)
                        else {
                            continue;
                        };
                        let (b_dollars, b_att) = (*b_dollars, *b_att);
                        let verdict = if b_dollars == cur_dollars && b_att == cur_att {
                            "ok"
                        } else {
                            "DRIFT?"
                        };
                        println!(
                            "  [headline] {:<44} ${b_dollars:>8.2} -> ${cur_dollars:>8.2}  {verdict} (must be exact)",
                            format!("autoscale[{cell}].gpu_dollars")
                        );
                    }
                    let savings = |v: &Value| {
                        lookup(v, &["autoscale", "diurnal_savings_percent"]).and_then(Value::as_f64)
                    };
                    headline(
                        "autoscale.diurnal_savings_percent",
                        savings(baseline),
                        savings(current),
                    );
                    // The session-cache grid replays deterministic session
                    // traces: at equal scale every cell's hit rate and mean
                    // JCT are exact, so any drift is semantic — a changed
                    // lookup, eviction, or dispatch decision.
                    let cache_grid = |v: &Value| -> Vec<(String, f64, f64)> {
                        lookup(v, &["session_cache", "runs"])
                            .and_then(as_array)
                            .map(|rows| {
                                rows.iter()
                                    .filter_map(|r| {
                                        Some((
                                            r.get_key("cell")?.as_str()?.to_string(),
                                            r.get_key("hit_rate")?.as_f64()?,
                                            r.get_key("mean_jct_s")?.as_f64()?,
                                        ))
                                    })
                                    .collect()
                            })
                            .unwrap_or_default()
                    };
                    let cache_base = cache_grid(baseline);
                    for (cell, cur_hit, cur_jct) in cache_grid(current) {
                        let Some((_, b_hit, b_jct)) =
                            cache_base.iter().find(|(label, _, _)| *label == cell)
                        else {
                            continue;
                        };
                        let verdict = if *b_hit == cur_hit && *b_jct == cur_jct {
                            "ok"
                        } else {
                            "DRIFT?"
                        };
                        println!(
                            "  [headline] {:<44} {b_hit:>9.3} -> {cur_hit:>9.3}  {verdict} (must be exact)",
                            format!("session_cache[{cell}].hit_rate")
                        );
                    }
                }
            }
            _ => println!("  [compare] unknown schema in current report"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("BENCH_SCALE").is_ok_and(|v| v == "smoke");
    // `--only kernels` / `--only sim` runs a single section (handy when
    // comparing one side across commits).
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1).cloned());
    let wants = |section: &str| only.as_deref().is_none_or(|o| o == section);

    // `--compare <baseline.json>` may repeat; baselines are read *before* the
    // run so the workflow "compare against the committed JSON, then overwrite
    // it" needs no temporary copies.
    let baselines: Vec<(String, serde_json::Value)> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--compare")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .filter_map(|path| compare::load(&path).map(|value| (path, value)))
        .collect();

    let mut reports: Vec<(&'static str, serde_json::Value)> = Vec::new();

    if wants("kernels") {
        let kernels = kernel_benches(smoke);
        for s in &kernels.quantized_matmul_speedup {
            println!(
                "  quantized-matmul speedup @ l_kv={}: {:.2}x (blocked {:.1} us vs scalar {:.1} us)",
                s.l_kv,
                s.speedup,
                s.optimized_secs * 1e6,
                s.scalar_reference_secs * 1e6
            );
        }
        write_json("BENCH_kernels.json", &kernels);
        reports.push(("kernels", kernels.serialize_value()));
    }

    if wants("sim") {
        let sim = sim_benches(smoke);
        write_json("BENCH_sim.json", &sim);
        reports.push(("sim", sim.serialize_value()));
    }

    for (path, baseline) in &baselines {
        let Some(kind) = compare::kind(baseline) else {
            println!("[compare] {path} has no recognised schema tag — skipping");
            continue;
        };
        match reports.iter().find(|(k, _)| *k == kind) {
            Some((_, current)) => compare::report(path, baseline, current),
            None => println!("[compare] {path} is a {kind} baseline but that section did not run"),
        }
    }
}
