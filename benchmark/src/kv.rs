//! The paper's kernels on a real prefill → transfer → decode path: HACK
//! prefill attention per KV head, the KV wire format through framing and an
//! in-memory buffer, the decode-side state rebuilt from the received parts,
//! and one homomorphic decode step per head per output token.

use crate::report::{derive_seed, Fnv, Metrics, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use hack_attention::prefill::hack_prefill_attention;
use hack_attention::state::HackKvState;
use hack_quant::homomorphic::homomorphic_matmul;
use hack_quant::{HackConfig, QuantizedTensor};
use hack_tensor::{DetRng, Matrix};
use hack_transport::{read_frame, write_frame, KvTransferMessage};
use hack_workload::trace::Request;
use std::hint::black_box;
use std::time::Instant;

/// KV heads served per request.
pub const HEADS: usize = 2;
/// Head dimension d_h.
pub const HEAD_DIM: usize = 128;
/// Smallest cosine similarity a sampled decode output may have against exact
/// attention on the unquantized KV.
pub const COSINE_BOUND: f32 = 0.99;

/// One head's inputs: `q`, `k`, `v` hold the prompt rows followed by one row
/// per output token.
struct HeadInputs {
    prompt_q: Matrix,
    prompt_k: Matrix,
    prompt_v: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
}

/// One request's synthesized tensors.
pub struct KvRequest {
    id: u64,
    input_len: usize,
    output_len: usize,
    heads: Vec<HeadInputs>,
}

/// Projections with per-channel structure (offsets, noise, a slow drift), the
/// shape real K/V activations have and the one HACK's partitioned
/// quantization is designed for.
fn structured(rows: usize, spread: f32, rng: &mut DetRng) -> Matrix {
    Matrix::from_fn(rows, HEAD_DIM, |t, c| {
        let base = ((c % 9) as f32 - 4.0) * spread;
        base + 0.3 * rng.normal_f32(0.0, 1.0) + 0.1 * ((t + c) as f32 * 0.01).sin()
    })
}

/// `n` requests whose prompt and output lengths are the order statistics of
/// `pool` at quantiles `(i + 0.5) / n`, paired by a fixed permutation (the
/// generator draws the two lengths independently). A batch then spans the
/// length distribution evenly and carries nearly the same work whatever the
/// seed that drew the pool; ids and arrivals are the pool's first `n`.
pub fn stratified(pool: Vec<Request>, n: usize) -> Vec<Request> {
    assert!(
        n > 0 && pool.len() >= n,
        "need a pool of at least {n} requests"
    );
    let mut inputs: Vec<usize> = pool.iter().map(|r| r.input_len).collect();
    let mut outputs: Vec<usize> = pool.iter().map(|r| r.output_len).collect();
    inputs.sort_unstable();
    outputs.sort_unstable();
    let quantile = |sorted: &[usize], i: usize| sorted[(2 * i + 1) * sorted.len() / (2 * n)];
    // A stride coprime with `n` visits every output rank once.
    let stride = (1..n)
        .rev()
        .find(|s| gcd(*s, n) == 1 && *s <= n / 2 + 1)
        .unwrap_or(1);
    pool.into_iter()
        .take(n)
        .enumerate()
        .map(|(i, mut r)| {
            r.input_len = quantile(&inputs, i);
            r.output_len = quantile(&outputs, (i * stride) % n);
            r
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Synthesizes every tensor the pipeline consumes for `requests`
/// (deterministic in `seed`). Outputs are at least one token long.
pub fn synthesize(requests: &[Request], seed: u64) -> Vec<KvRequest> {
    requests
        .iter()
        .map(|r| {
            let input_len = r.input_len.max(1);
            let output_len = r.output_len.max(1);
            let rows = input_len + output_len;
            let heads = (0..HEADS)
                .map(|h| {
                    let mut rng = DetRng::new(derive_seed(seed, r.id * HEADS as u64 + h as u64));
                    let q = structured(rows, 0.3, &mut rng);
                    let k = structured(rows, 0.35, &mut rng);
                    let v = structured(rows, 0.4, &mut rng);
                    HeadInputs {
                        prompt_q: q.row_block(0, input_len),
                        prompt_k: k.row_block(0, input_len),
                        prompt_v: v.row_block(0, input_len),
                        q,
                        k,
                        v,
                    }
                })
                .collect();
            KvRequest {
                id: r.id,
                input_len,
                output_len,
                heads,
            }
        })
        .collect()
}

/// Exact single-query attention of output step `t` over the unquantized KV
/// (prompt plus every token appended up to and including `t`).
fn exact_attention(head: &HeadInputs, input_len: usize, t: usize) -> Vec<f32> {
    let q = head.q.row(input_len + t);
    let len = input_len + t + 1;
    let scale = 1.0 / (HEAD_DIM as f32).sqrt();
    let scores: Vec<f32> = (0..len)
        .map(|i| head.k.row(i).iter().zip(q).map(|(a, b)| a * b).sum::<f32>() * scale)
        .collect();
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let weights: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
    let total: f32 = weights.iter().sum();
    let mut out = vec![0.0f32; HEAD_DIM];
    for (i, w) in weights.iter().enumerate() {
        for (o, v) in out.iter_mut().zip(head.v.row(i)) {
            *o += w / total * v;
        }
    }
    out
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    dot / (na * nb).max(f32::MIN_POSITIVE)
}

/// What one pass over a request batch measured.
#[derive(Default)]
pub struct PassStats {
    /// Host seconds of the pass: the sum of every request's timed work.
    pub seconds: f64,
    /// Output tokens decoded.
    pub tokens: u64,
    /// Per request: prefill start until the decode side holds every head.
    pub ttft_s: Vec<f64>,
    /// Per output token: one decode step on every head.
    pub tpot_s: Vec<f64>,
    /// Elements requantized by appends (zero under RQE).
    pub requantized: usize,
    /// Encoded message bytes and the plain-FP16 bytes of the same KV.
    pub wire_bytes: usize,
    pub fp16_bytes: usize,
    /// Prompt elements quantized by the traced `quantize_rows` probe.
    pub quantized_elements: usize,
    /// Digest of every sent message and final decode output.
    pub digest: u64,
}

/// Runs prefill → transfer → decode for every request. Each request is one
/// operation in `outcome`; it fails if a received message differs from the
/// sent one, if an append requantized under RQE, or (for request
/// `check_request`) if its last decode output misses [`COSINE_BOUND`].
/// With tracing on, also times `quantize_rows` on each head's K and
/// `homomorphic_matmul` at the final decode shape, outside the timed work.
pub fn run_pass(
    requests: &[KvRequest],
    seed: u64,
    check_request: usize,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> PassStats {
    let cfg = HackConfig::paper_default();
    let mut stats = PassStats::default();
    let mut digest = Fnv::new();
    for (index, req) in requests.iter().enumerate() {
        let id = Some(req.id);
        let mut problems = Vec::new();
        let request_span = tracer.begin("kv.request", id);
        let mut states = Vec::with_capacity(HEADS);
        let mut ttft = 0.0;
        for (h, head) in req.heads.iter().enumerate() {
            let clock = Instant::now();
            let mut rng = DetRng::new(derive_seed(seed ^ 0x5eed, req.id * HEADS as u64 + h as u64));
            let prefill = tracer.run("attn.prefill", id, || {
                hack_prefill_attention(
                    &head.prompt_q,
                    &head.prompt_k,
                    &head.prompt_v,
                    cfg,
                    &mut rng,
                )
            });
            black_box(&prefill.output);
            let sent = KvTransferMessage {
                request_id: req.id,
                head: h as u32,
                layer: 0,
                first_token: 0,
                k: prefill.state.k_quant().clone(),
                v: prefill.state.v_quant().clone(),
                v_tail: prefill.state.v_tail().clone(),
            };
            let mut wire = Vec::new();
            let encoded_len = tracer.run("transport.encode", id, || {
                let bytes = sent.encode();
                write_frame(&mut wire, &bytes).map(|()| bytes.len())
            });
            let received = tracer.run("transport.decode", id, || {
                read_frame(&mut wire.as_slice()).map(|payload| KvTransferMessage::decode(&payload))
            });
            ttft += clock.elapsed().as_secs_f64();

            let (Ok(encoded_len), Ok(received)) = (encoded_len, received) else {
                problems.push("kv: framing failed in memory".to_string());
                continue;
            };
            if received != sent {
                problems.push("kv: received message differs from the sent one".to_string());
            }
            stats.wire_bytes += encoded_len;
            stats.fp16_bytes += prefill.state.fp16_bytes();
            digest.bytes(&wire);

            let clock = Instant::now();
            let state = tracer.run("attn.from_parts", id, || {
                HackKvState::from_parts(cfg, HEAD_DIM, received.k, received.v, received.v_tail)
            });
            ttft += clock.elapsed().as_secs_f64();
            states.push((state, rng));
        }
        stats.ttft_s.push(ttft);
        stats.seconds += ttft;

        if states.len() == HEADS {
            let mut last = Vec::new();
            for t in 0..req.output_len {
                let row = req.input_len + t;
                let clock = Instant::now();
                for (h, (state, rng)) in states.iter_mut().enumerate() {
                    let head = &req.heads[h];
                    let append = tracer.run("attn.append_token", id, || {
                        state.append_token(head.k.row(row), head.v.row(row), rng)
                    });
                    let (out, _) = tracer.run("attn.decode_attention", id, || {
                        state.decode_attention(head.q.row(row), rng)
                    });
                    stats.requantized += append.requantized_elements;
                    if h == 0 && t + 1 == req.output_len {
                        last = out;
                    } else {
                        black_box(out);
                    }
                }
                let step = clock.elapsed().as_secs_f64();
                stats.tpot_s.push(step);
                stats.seconds += step;
            }
            stats.tokens += req.output_len as u64;
            for x in &last {
                digest.bytes(&x.to_bits().to_le_bytes());
            }
            if index == check_request {
                let exact = exact_attention(&req.heads[0], req.input_len, req.output_len - 1);
                let cos = cosine(&exact, &last);
                if cos.is_nan() || cos < COSINE_BOUND {
                    problems.push(format!(
                        "kv: decode output cosine {cos:.4} below {COSINE_BOUND} (request {})",
                        req.id
                    ));
                }
            }
            if tracer.enabled() {
                probe_quant(req, &states, cfg, tracer, &mut stats);
            }
        }
        if stats.requantized > 0 {
            problems.push("kv: decode appends requantized elements with RQE on".to_string());
        }
        tracer.end(request_span);
        outcome.record(problems);
    }
    stats.digest = digest.finish();
    stats
}

/// Times the hack-quant kernels on this request's own tensors: INT2
/// quantization of each head's prompt K, and the decode-shape homomorphic
/// product of an INT8 query against the head's final quantized K.
fn probe_quant(
    req: &KvRequest,
    states: &[(HackKvState, DetRng)],
    cfg: HackConfig,
    tracer: &mut Tracer,
    stats: &mut PassStats,
) {
    let pi = cfg.partition.get();
    let id = Some(req.id);
    for (head, (state, _)) in req.heads.iter().zip(states) {
        let mut rng = DetRng::new(req.id);
        let k = tracer.run("quant.quantize_rows", id, || {
            QuantizedTensor::quantize_rows(&head.prompt_k, cfg.kv_bits, pi, cfg.rounding, &mut rng)
        });
        black_box(k);
        stats.quantized_elements += head.prompt_k.len();
        let q = head.q.row_block(req.input_len, req.input_len + 1);
        let q = QuantizedTensor::quantize_rows(&q, cfg.q_bits, pi, cfg.rounding, &mut rng);
        let scores = tracer.run("quant.homomorphic_matmul", id, || {
            homomorphic_matmul(&q, state.k_quant())
        });
        black_box(scores);
    }
}

/// The hack-quant, hack-attention and hack-transport per-layer metrics of a
/// traced pass, and the pipeline's latency percentiles. A percentile the
/// sample cannot support is reported as a problem.
pub fn layer_metrics(
    tracer: &Tracer,
    passes: &[PassStats],
    requests: usize,
    m: &mut Metrics,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mean = |name: &str| tracer.mean(name).unwrap_or(f64::NAN);
    let quantize_s: f64 = tracer.durations("quant.quantize_rows").iter().sum();
    let elements: usize = passes.iter().map(|p| p.quantized_elements).sum();
    m.set(
        "quant.quantize_ns_per_elem",
        quantize_s * 1e9 / elements as f64,
        "ns",
    );
    m.set(
        "quant.homomorphic_matmul_us",
        mean("quant.homomorphic_matmul") * 1e6,
        "us",
    );
    m.set("attn.prefill_ms_per_head", mean("attn.prefill") * 1e3, "ms");
    m.set(
        "attn.decode_attention_us",
        mean("attn.decode_attention") * 1e6,
        "us",
    );
    m.set(
        "attn.append_token_us",
        mean("attn.append_token") * 1e6,
        "us",
    );
    let requantized: usize = passes.iter().map(|p| p.requantized).sum();
    m.set("attn.requantized_elements", requantized as f64, "count");
    m.set("transport.encode_us", mean("transport.encode") * 1e6, "us");
    m.set("transport.decode_us", mean("transport.decode") * 1e6, "us");
    let wire: usize = passes.iter().map(|p| p.wire_bytes).sum();
    let fp16: usize = passes.iter().map(|p| p.fp16_bytes).sum();
    let served = (requests * passes.len()).max(1);
    m.set(
        "transport.bytes_per_request",
        wire as f64 / served as f64,
        "B",
    );
    m.set(
        "transport.compression_ratio",
        fp16 as f64 / wire as f64,
        "x",
    );

    let ttft: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ttft_s.iter().copied())
        .collect();
    let tpot: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.tpot_s.iter().copied())
        .collect();
    for (name, samples, p, scale, unit) in [
        ("pipeline.ttft_p50_ms", &ttft, 50.0, 1e3, "ms"),
        ("pipeline.ttft_p90_ms", &ttft, 90.0, 1e3, "ms"),
        ("pipeline.tpot_p50_us", &tpot, 50.0, 1e6, "us"),
        ("pipeline.tpot_p99_us", &tpot, 99.0, 1e6, "us"),
    ] {
        match percentile(samples, p) {
            Some(v) => m.set(name, v * scale, unit),
            None => problems.push(format!(
                "{name}: {} samples leave fewer than 10 beyond p{p}",
                samples.len()
            )),
        }
    }
    problems
}

/// Median pass seconds and output tokens per second over `passes`.
pub fn pass_rates(passes: &[PassStats]) -> (f64, f64) {
    let seconds: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.tokens as f64 / p.seconds).collect();
    (median(&seconds), median(&rates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hack_workload::dataset::Dataset;
    use hack_workload::trace::{TraceConfig, TraceGenerator};

    fn tiny_batch(seed: u64) -> Vec<KvRequest> {
        let trace = TraceGenerator::new(TraceConfig {
            dataset: Dataset::HumanEval,
            rps: 1.0,
            num_requests: 2,
            max_context: 4096,
            seed,
        })
        .generate();
        let trimmed: Vec<Request> = trace
            .into_iter()
            .map(|mut r| {
                r.input_len = r.input_len.min(96);
                r.output_len = r.output_len.min(8);
                r
            })
            .collect();
        synthesize(&trimmed, seed)
    }

    #[test]
    fn a_pass_repeats_and_passes_its_checks() {
        let batch = tiny_batch(3);
        let mut outcome = Outcome::default();
        let a = run_pass(&batch, 3, 0, &mut Tracer::new(false), &mut outcome);
        let b = run_pass(&batch, 3, 1, &mut Tracer::new(true), &mut outcome);
        assert_eq!(a.digest, b.digest);
        assert_eq!(outcome.failed, 0, "{:?}", outcome.reasons);
        assert_eq!(a.requantized, 0);
        assert!(a.wire_bytes > 0 && a.fp16_bytes > a.wire_bytes);
    }

    #[test]
    fn stratified_batches_span_the_pool() {
        let pool = |seed| {
            TraceGenerator::new(TraceConfig {
                dataset: Dataset::HumanEval,
                rps: 1.0,
                num_requests: 4096,
                max_context: 4096,
                seed,
            })
            .generate()
        };
        let work = |batch: &[Request]| -> f64 {
            batch
                .iter()
                .map(|r| (r.input_len * (r.input_len + r.output_len)) as f64)
                .sum()
        };
        let (a, b) = (stratified(pool(1), 32), stratified(pool(2), 32));
        assert_eq!(a.len(), 32);
        assert_ne!(a, b, "seeds draw different lengths");
        let mut outputs: Vec<usize> = a.iter().map(|r| r.output_len).collect();
        outputs.sort_unstable();
        outputs.dedup();
        assert!(outputs.len() > 16, "every output rank is used");
        assert!((work(&a) / work(&b) - 1.0).abs() < 0.05);
    }

    #[test]
    fn seeds_change_the_tensors() {
        let mut outcome = Outcome::default();
        let a = run_pass(&tiny_batch(3), 3, 0, &mut Tracer::new(false), &mut outcome);
        let b = run_pass(&tiny_batch(4), 4, 0, &mut Tracer::new(false), &mut outcome);
        assert_ne!(a.digest, b.digest);
    }
}
