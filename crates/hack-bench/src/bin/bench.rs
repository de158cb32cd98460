//! `bench` — the in-tree kernel micro-benchmark harness (criterion is
//! unavailable offline, so timing is done with `std::time::Instant` directly).
//!
//! Times quantization, the blocked homomorphic GEMM vs the retained scalar
//! reference (the headline speedup number) and vs dequantize-then-matmul, the
//! SE ablation, the partition sweep, code packing, attention
//! prefill/decode/append with the SE/RQE ablations, and the baseline codecs,
//! and writes `BENCH_kernels.json` into the current directory.
//!
//! `--smoke` shrinks every workload for CI; the JSON schema is identical.
//! `--compare <baseline.json>` (repeatable) prints a delta report against a
//! previously recorded kernels report — a report, never a gate. See PERF.md
//! for the schema and how to compare runs. The simulator is timed by the
//! repository benchmark (`benchmark/`) and pinned by `tests/golden_digests.rs`.

use hack_attention::baseline::AttentionMask;
use hack_attention::flash::flash_attention;
use hack_baselines::{CacheGenLike, Fp8Format, KvCompressor, KvQuantLike, MinifloatCast};
use hack_core::prelude::*;
use hack_quant::homomorphic::{
    dequant_matmul, homomorphic_matmul, homomorphic_matmul_no_se, reference,
};
use hack_quant::packing::{pack_codes, unpack_codes};
use hack_quant::params::{QuantBits, RoundingMode};
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

fn write_json<T: Serialize>(path: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialise bench report");
    std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("[saved {path}]");
}

/// `--compare <baseline.json>`: diff the current run against a previously
/// recorded kernels report. A *report*, never a gate — the process always
/// exits 0; regressions beyond the thresholds are flagged in the output for a
/// human (or the CI log reader) to judge.
mod compare {
    use serde_json::Value;
    use std::collections::BTreeMap;

    /// Flag a per-bench wall-clock delta beyond ±25%.
    const BENCH_DELTA_FLAG_PERCENT: f64 = 25.0;
    /// Flag a headline-ratio drop beyond 10% relative.
    const HEADLINE_DROP_FLAG: f64 = 0.10;

    /// Loads a kernels-report baseline, warning (not failing) on any problem:
    /// an unreadable file, a parse error or another report's schema.
    pub fn load(path: &str) -> Option<Value> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| println!("[compare] cannot read {path}: {err} — skipping"))
            .ok()?;
        let value: Value = serde_json::from_str(&text)
            .map_err(|err| println!("[compare] cannot parse {path}: {err} — skipping"))
            .ok()?;
        let schema = value.get_key("schema").and_then(Value::as_str);
        if schema.is_some_and(|s| s.starts_with("hack-bench/kernels/")) {
            Some(value)
        } else {
            let schema = schema.unwrap_or("none");
            println!("[compare] {path} is not a kernels report (schema {schema}) — skipping");
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

    /// The headline speedup per decode-shape KV length.
    fn speedups(value: &Value) -> BTreeMap<u64, f64> {
        value
            .get_key("quantized_matmul_speedup")
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

        // Headline ratios are flagged when the current run drops more than
        // `HEADLINE_DROP_FLAG` relative below the baseline.
        let base = speedups(baseline);
        for (l_kv, c) in speedups(current) {
            let label = format!("quantized_matmul_speedup[l_kv={l_kv}]");
            match base.get(&l_kv) {
                Some(&b) => {
                    let regressed = c < b * (1.0 - HEADLINE_DROP_FLAG);
                    let verdict = if regressed { "REGRESSION?" } else { "ok" };
                    println!("  [headline] {label:<44} {b:>9.3} -> {c:>9.3}  {verdict}");
                }
                None => println!("  [headline] {label:<44} {:>9} -> {c:>9.3}  (new)", "-"),
            }
        }
    }
}

fn main() {
    let mut smoke = false;
    // `--compare <baseline.json>` may repeat; baselines are read *before* the
    // run so the workflow "compare against the committed JSON, then overwrite
    // it" needs no temporary copies.
    let mut baselines = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path = (arg == "--compare").then(|| args.next()).flatten();
        match (arg.as_str(), path) {
            ("--smoke", _) => smoke = true,
            ("--compare", Some(path)) => baselines.extend(compare::load(&path).map(|v| (path, v))),
            _ => {
                eprintln!("usage: bench [--smoke] [--compare <baseline.json>]...");
                std::process::exit(2);
            }
        }
    }

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
    let current = kernels.serialize_value();
    for (path, baseline) in &baselines {
        compare::report(path, baseline, &current);
    }
}
