//! The repository benchmark. One run measures one workload for a fixed time
//! from a seed and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <trace-300k|sessions-all-layers|kv-pipeline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate run
//! that records spans around every call into the crates and reports the
//! per-layer metrics, writing the spans as a Chrome/Perfetto trace under
//! `.bench_out/`. See `benchmark/README.md` for every metric.

mod kv;
mod report;
mod sim;
mod spans;
mod stats;

use report::{debug_digest, peak_rss_mb, Manifest, Metrics, Outcome};
use sim::SimKind;
use spans::Tracer;
use stats::median;
use std::time::Instant;

/// End-to-end metrics: every workload reports every one, with tracing off.
const END_TO_END: [&str; 4] = ["setup_s", "run_s", "tokens_per_s", "peak_rss_mb"];

/// Per-layer metrics: every workload reports every one in its traced run.
const PER_LAYER: [&str; 52] = [
    "workload.trace_gen_s",
    "cost.table_build_s",
    "cost.lookup_ns",
    "engine.storm_ns_per_event",
    "cluster.events",
    "cluster.ns_per_event",
    "cluster.handler_ns_per_event",
    "cluster.rss_growth_mib_per_run",
    "layer.telemetry.marginal_pct",
    "layer.link_graph.marginal_pct",
    "layer.prefix_cache.marginal_pct",
    "layer.scaler.marginal_pct",
    "sim.completed",
    "sim.mean_jct_s",
    "sim.p99_jct_s",
    "sim.makespan_s",
    "sim.share.prefill",
    "sim.share.quantization",
    "sim.share.communication",
    "sim.share.dequant_or_approx",
    "sim.share.decode",
    "sim.share.queueing",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.hit_rate",
    "fabric.transfer_retries",
    "fabric.rerouted_flows",
    "fabric.degraded_link_s",
    "scaler.scale_ups",
    "scaler.scale_downs",
    "scaler.gpu_dollars",
    "fault.requests_aborted",
    "quant.quantize_ns_per_elem",
    "quant.homomorphic_matmul_us",
    "attn.prefill_ms_per_head",
    "attn.decode_attention_us",
    "attn.append_token_us",
    "attn.requantized_elements",
    "transport.encode_us",
    "transport.decode_us",
    "transport.bytes_per_request",
    "transport.compression_ratio",
    "pipeline.ttft_p50_ms",
    "pipeline.ttft_p90_ms",
    "pipeline.tpot_p50_us",
    "pipeline.tpot_p99_us",
    "trace.overhead_pct",
    "kv.requests",
    "kv.output_tokens",
    "kv.setup_synth_s",
    "kv.pass_s",
];

/// Setups per run; `setup_s` is taken from their medians.
const SETUPS: usize = 9;
/// Requests in one `kv-pipeline` pass, and the pool they are sampled from.
const KV_BATCH: usize = 32;
const KV_POOL: usize = 4096;
/// Requests of the cluster model of the `kv-pipeline` traffic.
const KV_MODEL_REQUESTS: usize = 20_000;
/// Requests of a simulator workload's trace served through the kernels in
/// its traced run, and their length caps.
const PROBE_REQUESTS: usize = 100;
const PROBE_MAX_INPUT: usize = 512;
const PROBE_MAX_OUTPUT: usize = 64;
/// Alternating on/off runs per opt-in layer in a traced run.
const MARGINAL_RUNS: usize = 2;
/// Directory (under the working directory) for traces and full reports.
const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Trace300k,
    SessionsAllLayers,
    KvPipeline,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "trace-300k" => Some(Workload::Trace300k),
            "sessions-all-layers" => Some(Workload::SessionsAllLayers),
            "kv-pipeline" => Some(Workload::KvPipeline),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Trace300k => "trace-300k",
            Workload::SessionsAllLayers => "sessions-all-layers",
            Workload::KvPipeline => "kv-pipeline",
        }
    }

    /// The simulator this workload runs (for `kv-pipeline`, the cluster model
    /// of its traffic, run only when traced).
    fn sim_kind(self) -> SimKind {
        match self {
            Workload::Trace300k => SimKind::Trace300k {
                requests: sim::TRACE_300K_REQUESTS,
            },
            Workload::SessionsAllLayers => SimKind::SessionsAllLayers {
                sessions: sim::SESSIONS_PER_STREAM,
            },
            Workload::KvPipeline => SimKind::HumanEvalModel {
                requests: KV_MODEL_REQUESTS,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run produced.
struct Run {
    metrics: Metrics,
    outcome: Outcome,
    manifest: Manifest,
    tracer: Tracer,
}

/// `--trace 0` on a simulator workload.
fn sim_end_to_end(args: &Args) -> Result<Run, String> {
    let kind = args.workload.sim_kind();
    let mut tracer = Tracer::new(false);
    let mut outcome = Outcome::default();
    let measured = sim::measure(
        kind,
        args.seed,
        SETUPS,
        args.seconds,
        &mut tracer,
        &mut outcome,
    )?;
    let mut metrics = Metrics::default();
    measured.end_to_end(&mut metrics);
    let manifest = sim_manifest(args, &measured);
    Ok(Run {
        metrics,
        outcome,
        manifest,
        tracer,
    })
}

fn sim_manifest(args: &Args, measured: &sim::Measured) -> Manifest {
    Manifest {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        trace: args.trace,
        config_digest: debug_digest(&measured.setup.config),
        result_digest: debug_digest(&measured.first),
    }
}

/// `--trace 1` on a simulator workload: half the time untraced, half traced
/// (the difference is the tracing overhead), then the layer measurements and
/// a sample of the trace served through the kernels.
fn sim_layers(args: &Args) -> Result<Run, String> {
    let kind = args.workload.sim_kind();
    let mut outcome = Outcome::default();
    let half = args.seconds / 2.0;
    let untraced = sim::measure(
        kind,
        args.seed,
        1,
        half,
        &mut Tracer::new(false),
        &mut outcome,
    )?;
    let untraced_run_s = untraced.run_s();
    drop(untraced);
    let mut tracer = Tracer::new(true);
    let measured = sim::measure(kind, args.seed, 1, half, &mut tracer, &mut outcome)?;
    let mut metrics = Metrics::default();
    metrics.set(
        "trace.overhead_pct",
        100.0 * (measured.run_s() / untraced_run_s - 1.0),
        "%",
    );
    sim::layer_metrics(
        &measured,
        MARGINAL_RUNS,
        &mut tracer,
        &mut outcome,
        &mut metrics,
    )?;

    // The kernels on an evenly spaced sample of this workload's requests.
    let requests = &measured.setup.requests;
    let stride = (requests.len() / PROBE_REQUESTS).max(1);
    let sample: Vec<_> = requests
        .iter()
        .step_by(stride)
        .take(PROBE_REQUESTS)
        .map(|r| {
            let mut r = *r;
            r.input_len = r.input_len.min(PROBE_MAX_INPUT);
            r.output_len = r.output_len.min(PROBE_MAX_OUTPUT);
            r
        })
        .collect();
    let clock = Instant::now();
    let batch = kv::synthesize(&sample, args.seed);
    let synth_s = clock.elapsed().as_secs_f64();
    let pass = kv::run_pass(&batch, args.seed, 0, &mut tracer, &mut outcome);
    kv_pass_metrics(&mut metrics, &batch, synth_s, &pass);
    let problems = kv::layer_metrics(
        &tracer,
        std::slice::from_ref(&pass),
        batch.len(),
        &mut metrics,
    );
    if !problems.is_empty() {
        outcome.record(problems);
    }
    let manifest = sim_manifest(args, &measured);
    Ok(Run {
        metrics,
        outcome,
        manifest,
        tracer,
    })
}

fn kv_pass_metrics(m: &mut Metrics, batch: &[kv::KvRequest], synth_s: f64, pass: &kv::PassStats) {
    m.set("kv.requests", batch.len() as f64, "count");
    m.set("kv.output_tokens", pass.tokens as f64, "count");
    m.set("kv.setup_synth_s", synth_s, "s");
    m.set("kv.pass_s", pass.seconds, "s");
}

/// The `kv-pipeline` request batch of a seed: HumanEval lengths, drawn as a
/// pool of [`KV_POOL`] requests and sampled evenly across it.
fn kv_trace(seed: u64) -> Vec<hack_workload::trace::Request> {
    let config = hack_workload::trace::TraceConfig {
        dataset: hack_workload::dataset::Dataset::HumanEval,
        rps: 1.0,
        num_requests: KV_POOL,
        max_context: hack_model::spec::ModelKind::Llama31_70B.spec().max_context,
        seed,
    };
    kv::stratified(
        hack_workload::trace::TraceGenerator::new(config).generate(),
        KV_BATCH,
    )
}

/// Runs passes over `batch` until `seconds` pass (at least three), after
/// one warm-up pass; each pass checks a different request's decode output.
/// Also returns the peak resident set after the warm-up pass.
fn kv_passes(
    batch: &[kv::KvRequest],
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(kv::PassStats, Vec<kv::PassStats>, f64), String> {
    let warmup = kv::run_pass(batch, seed, 0, tracer, outcome);
    let peak_rss = peak_rss_mb().ok_or("peak RSS unavailable (no /proc/self/status)")?;
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let check = (passes.len() + 1) % batch.len();
        passes.push(kv::run_pass(batch, seed, check, tracer, outcome));
    }
    Ok((warmup, passes, peak_rss))
}

fn kv_manifest(args: &Args, trace: &[hack_workload::trace::Request], digest: u64) -> Manifest {
    Manifest {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        trace: args.trace,
        config_digest: debug_digest(&(
            hack_quant::HackConfig::paper_default(),
            kv::HEADS,
            kv::HEAD_DIM,
            trace,
        )),
        result_digest: digest,
    }
}

/// `--trace 0` on `kv-pipeline`.
fn kv_end_to_end(args: &Args) -> Result<Run, String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let clock = Instant::now();
        let trace = kv_trace(args.seed);
        let batch = kv::synthesize(&trace, args.seed);
        setup_s.push(clock.elapsed().as_secs_f64());
        built = Some((trace, batch));
    }
    let (trace, batch) = built.ok_or("no setup ran")?;
    let (warmup, passes, peak_rss) =
        kv_passes(&batch, args.seed, args.seconds, &mut tracer, &mut outcome)?;
    if passes.iter().any(|p| p.digest != warmup.digest) {
        outcome.record(vec![
            "kv: a pass's outputs differ from the first pass's".to_string()
        ]);
    }
    let (run_s, tokens_per_s) = kv::pass_rates(&passes);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_s), "s");
    metrics.set("run_s", run_s, "s");
    metrics.set("tokens_per_s", tokens_per_s, "1/s");
    metrics.set("peak_rss_mb", peak_rss, "MiB");
    let manifest = kv_manifest(args, &trace, warmup.digest);
    Ok(Run {
        metrics,
        outcome,
        manifest,
        tracer,
    })
}

/// `--trace 1` on `kv-pipeline`: untraced then traced passes, then the
/// simulator layers on the cluster model of this traffic.
fn kv_layers(args: &Args) -> Result<Run, String> {
    let mut outcome = Outcome::default();
    let half = args.seconds / 2.0;
    let clock = Instant::now();
    let trace = kv_trace(args.seed);
    let batch = kv::synthesize(&trace, args.seed);
    let synth_s = clock.elapsed().as_secs_f64();
    let (warmup, untraced, _) = kv_passes(
        &batch,
        args.seed,
        half,
        &mut Tracer::new(false),
        &mut outcome,
    )?;
    let mut tracer = Tracer::new(true);
    let (_, traced, _) = kv_passes(&batch, args.seed, half, &mut tracer, &mut outcome)?;
    let mut metrics = Metrics::default();
    let (untraced_s, _) = kv::pass_rates(&untraced);
    let (traced_s, _) = kv::pass_rates(&traced);
    metrics.set(
        "trace.overhead_pct",
        100.0 * (traced_s / untraced_s - 1.0),
        "%",
    );
    let problems = kv::layer_metrics(&tracer, &traced, batch.len(), &mut metrics);
    if !problems.is_empty() {
        outcome.record(problems);
    }
    kv_pass_metrics(&mut metrics, &batch, synth_s, &traced[0]);

    let modelled = sim::measure(
        args.workload.sim_kind(),
        args.seed,
        1,
        0.0,
        &mut tracer,
        &mut outcome,
    )?;
    sim::layer_metrics(
        &modelled,
        MARGINAL_RUNS,
        &mut tracer,
        &mut outcome,
        &mut metrics,
    )?;
    let manifest = kv_manifest(args, &trace, warmup.digest);
    Ok(Run {
        metrics,
        outcome,
        manifest,
        tracer,
    })
}

/// Writes the full report (manifest, metrics, failures, span self times)
/// and, when traced, the spans.
fn write_outputs(args: &Args, run: &Run, correct: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let reasons: Vec<String> = run
        .outcome
        .reasons
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    let self_times: Vec<String> = run
        .tracer
        .self_times()
        .iter()
        .map(|(name, (count, secs))| format!("\"{name}\":{{\"spans\":{count},\"self_s\":{secs}}}"))
        .collect();
    let report = format!(
        "{{\"manifest\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"failures\":[{}],\
         \"metrics\":{},\"span_self_times\":{{{}}}}}\n",
        run.manifest.to_json(),
        run.outcome.attempted,
        run.outcome.failed,
        reasons.join(","),
        run.metrics.to_json(),
        self_times.join(","),
    );
    std::fs::write(format!("{stem}.json"), report)?;
    if run.tracer.enabled() {
        std::fs::write(format!("{stem}.perfetto.json"), run.tracer.chrome_trace())?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: hack-e2e-bench --workload <trace-300k|sessions-all-layers|kv-pipeline> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let run = match (args.workload, args.trace) {
        (Workload::KvPipeline, false) => kv_end_to_end(&args),
        (Workload::KvPipeline, true) => kv_layers(&args),
        (_, false) => sim_end_to_end(&args),
        (_, true) => sim_layers(&args),
    };
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    // The run must report exactly the declared metrics, each a finite number.
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut problems: Vec<String> = expected
        .iter()
        .filter(|name| !run.metrics.get(name).is_some_and(f64::is_finite))
        .map(|name| format!("metric {name} missing or not finite"))
        .collect();
    problems.extend(
        run.metrics
            .names()
            .filter(|name| !expected.contains(name))
            .map(|name| format!("metric {name} is not declared")),
    );
    if !problems.is_empty() {
        run.outcome.record(problems);
    }
    let correct = run.outcome.failed == 0;

    println!("manifest: {}", run.manifest.to_json());
    for reason in &run.outcome.reasons {
        eprintln!("check failed: {reason}");
    }
    if let Err(e) = write_outputs(&args, &run, correct) {
        eprintln!("error: writing {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.outcome.attempted,
        run.outcome.failed,
        run.metrics.to_json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(declared(name), "{name} not in BENCHMARK.json");
        }
        for workload in ["trace-300k", "sessions-all-layers", "kv-pipeline"] {
            assert!(
                declared(workload),
                "workload {workload} not in BENCHMARK.json"
            );
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, 3 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload kv-pipeline --seed 4 --seconds 2 --trace 1").expect("valid");
        assert!(ok.trace && ok.seed == 4 && ok.seconds == 2.0);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload kv-pipeline --seed 1 --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }
}
