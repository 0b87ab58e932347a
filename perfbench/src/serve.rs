//! `serve` workload: TF-MNIST at `Scale::Tiny` registered twice, as
//! fp32 and as int8, in one `ModelRegistry` behind
//! `dlbench_serve::serve`, with a micro-batch deadline of 0 so latency
//! measures code rather than a timer.
//!
//! Load is an open loop at `RATE_RPS`, well under capacity: `nproc`
//! sender threads each keep their own schedule (request `i` is due at
//! `i / RATE_RPS` and belongs to sender `i mod nproc`), so at most
//! `nproc` connections are open at once. Requests alternate between the
//! two models, each on a fresh connection, and latency is timed from
//! the due time, so a late generator or a stalled server shows. Sender
//! 0 also scrapes `GET /metrics` once a second.
//!
//! Checks: every 200 reply's logits equal a direct forward of the same
//! input bit for bit. A shed, failed or wrong reply counts against
//! `ok_ratio`.

use crate::measure::{
    class_median_ms, mean, median, ms, percentile, same_bits, timed_setup, Tally,
};
use crate::{Ctx, Outcome};
use dlbench_data::DatasetKind;
use dlbench_frameworks::{FrameworkKind, Scale};
use dlbench_json::JsonValue;
use dlbench_serve::{loadgen, serve, BatchConfig, ModelDtype, ModelRegistry, ModelSpec};
use dlbench_tensor::Tensor;
use dlbench_trace::{span, Category};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Every request is a fresh connection that the server closes first, so
/// each leaves a server-side TIME_WAIT entry for 60 s. The rate keeps a
/// run's connections well inside the ephemeral port range: once client
/// ports are reused, SYNs that hit a TIME_WAIT entry stall for seconds.
const RATE_RPS: f64 = 600.0;
const MODELS: [(&str, ModelDtype); 2] = [("fp32", ModelDtype::Fp32), ("int8", ModelDtype::Int8)];
/// Distinct test inputs the requests cycle through.
const INPUTS: usize = 100;
const SCRAPE_EVERY_S: f64 = 1.0;
/// Sequential requests per mode when measuring trace overhead and the
/// direct (no HTTP) predict time.
const PROBE_REQUESTS: usize = 300;

fn spec(name: &str, dtype: ModelDtype, seed: u64) -> ModelSpec {
    ModelSpec::own_default(name, FrameworkKind::TensorFlow, DatasetKind::Mnist, Scale::Tiny, seed)
        .with_dtype(dtype)
}

fn registry(seed: u64) -> ModelRegistry {
    let config = BatchConfig { max_batch: 8, max_wait: Duration::ZERO, queue_capacity: 64 };
    let mut registry = ModelRegistry::new();
    for (name, dtype) in MODELS {
        let served = spec(name, dtype, seed).instantiate(None).expect("seeded model instantiates");
        registry.register(served, config).expect("model names are distinct");
    }
    registry
}

/// Request `i`'s model and input index: models alternate, and each
/// model cycles through every input.
fn route(i: usize) -> (usize, usize) {
    (i % MODELS.len(), (i / MODELS.len()) % INPUTS)
}

/// One `GET /metrics` scrape: whether it returned 200, and its time in
/// milliseconds.
type Scrape = (bool, f64);

/// One predict request's outcome.
struct Reply {
    /// Second of the schedule the request was due in.
    slot: usize,
    model: usize,
    input: usize,
    status: Option<u16>,
    logits: Vec<f32>,
    batch_size: f64,
    /// From due time (or send time for closed-loop probes) to reply.
    latency_ms: f64,
    /// From send to reply.
    service_ms: f64,
    late_ms: f64,
}

fn predict(addr: SocketAddr, i: usize, inputs: &[Vec<f32>], due: Instant) -> Reply {
    let (model, input) = route(i);
    let sent = Instant::now();
    let body = {
        let _s = span(Category::Runner, "json.encode");
        loadgen::encode_input(&inputs[input])
    };
    let path = format!("/predict/{}", MODELS[model].0);
    let response = loadgen::http_request(addr, "POST", &path, Some(&body));
    let (status, logits, batch_size) = match response {
        Ok((status, text)) => {
            let parsed = {
                let _s = span(Category::Runner, "json.parse");
                dlbench_json::parse(&text)
            };
            let (logits, batch) = match &parsed {
                Ok(v) => (
                    v.get("logits")
                        .and_then(JsonValue::as_array)
                        .map(|a| a.iter().filter_map(JsonValue::as_f64).map(|f| f as f32).collect())
                        .unwrap_or_default(),
                    v.get("batch_size").and_then(JsonValue::as_f64).unwrap_or(0.0),
                ),
                Err(_) => (Vec::new(), 0.0),
            };
            (Some(status), logits, batch)
        }
        Err(_) => (None, Vec::new(), 0.0),
    };
    let done = Instant::now();
    Reply {
        slot: (i as f64 / RATE_RPS) as usize,
        model,
        input,
        status,
        logits,
        batch_size,
        latency_ms: ms(done - due),
        service_ms: ms(done - sent),
        late_ms: ms(sent.saturating_duration_since(due)),
    }
}

fn scrape(addr: SocketAddr) -> Scrape {
    let t = Instant::now();
    let ok = {
        let _s = span(Category::Runner, "serve.metrics_scrape");
        matches!(loadgen::http_request(addr, "GET", "/metrics", None), Ok((200, _)))
    };
    (ok, ms(t.elapsed()))
}

/// Drives the open loop for `seconds`; returns every reply, every
/// scrape `(ok, ms)` and the seconds from the first due time to the
/// last reply.
fn open_loop(
    addr: SocketAddr,
    inputs: &[Vec<f32>],
    senders: usize,
    seconds: f64,
) -> (Vec<Reply>, Vec<Scrape>, f64) {
    let start = Instant::now() + Duration::from_millis(20);
    let per_sender: Vec<(Vec<Reply>, Vec<Scrape>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|t| {
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    let mut scrapes = Vec::new();
                    let mut next_scrape = if t == 0 { SCRAPE_EVERY_S } else { f64::INFINITY };
                    let mut i = t;
                    loop {
                        let due_s = i as f64 / RATE_RPS;
                        if due_s >= seconds {
                            break;
                        }
                        if due_s >= next_scrape {
                            scrapes.push(scrape(addr));
                            next_scrape += SCRAPE_EVERY_S;
                        }
                        let due = start + Duration::from_secs_f64(due_s);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        replies.push(predict(addr, i, inputs, due));
                        i += senders;
                    }
                    (replies, scrapes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut replies = Vec::new();
    let mut scrapes = Vec::new();
    for (r, s) in per_sender {
        replies.extend(r);
        scrapes.extend(s);
    }
    (replies, scrapes, elapsed)
}

/// Sequential requests from one thread; returns the wall time.
fn closed_loop(addr: SocketAddr, inputs: &[Vec<f32>]) -> f64 {
    let t = Instant::now();
    for i in 0..PROBE_REQUESTS {
        predict(addr, i, inputs, Instant::now());
    }
    t.elapsed().as_secs_f64()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed;
    ctx.tracing(true);
    let (setup_s, (server, inputs)) = timed_setup(15, || {
        let server = serve(registry(seed), "127.0.0.1:0").expect("bind a local port");
        let inputs = {
            let _s = span(Category::Runner, "data.generate");
            loadgen::sample_inputs(DatasetKind::Mnist, Scale::Tiny, seed, INPUTS)
        };
        (server, inputs)
    });
    let addr = server.addr();
    let senders = ctx.nproc.max(1);
    let mut extra = crate::layers::Extra::new();
    if ctx.trace {
        ctx.tracing(false);
        closed_loop(addr, &inputs);
        let untraced = closed_loop(addr, &inputs);
        ctx.tracing(true);
        let traced = closed_loop(addr, &inputs);
        extra.insert("trace.overhead_ratio", traced / untraced);
    }
    let (replies, scrapes, elapsed) = open_loop(addr, &inputs, senders, ctx.seconds);
    server.shutdown();

    let mut direct_ms = Vec::new();
    if ctx.trace {
        let direct = registry(seed);
        for i in 0..PROBE_REQUESTS {
            let (model, input) = route(i);
            let t = Instant::now();
            let ok = {
                let _s = span(Category::Runner, "serve.direct_predict");
                direct.predict(MODELS[model].0, inputs[input].clone()).is_ok()
            };
            if ok {
                direct_ms.push(ms(t.elapsed()));
            }
        }
        direct.drain();
        ctx.tracing(false);
    }

    // Expected logits: a direct forward of every input through a fresh
    // copy of each model, outside the batcher and HTTP.
    let expected: Vec<Vec<Vec<f32>>> = MODELS
        .iter()
        .map(|&(name, dtype)| {
            let mut served = spec(name, dtype, seed).instantiate(None).expect("seeded model");
            let (c, h, w) = served.spec.input_dims();
            inputs
                .iter()
                .map(|input| {
                    let raw = Tensor::from_vec(&[1, c, h, w], input.clone()).expect("input shape");
                    let x = served.preprocessing.apply(&raw, &served.channel_means);
                    served.model.forward(&x, false).data().to_vec()
                })
                .collect()
        })
        .collect();

    let mut tally = Tally::default();
    let (mut ok, mut shed, mut errors) = (0usize, 0usize, 0usize);
    let mut latency_ms = vec![Vec::new(); MODELS.len()];
    // Per second of the schedule, per model: the rounds of this workload.
    let mut slots = vec![vec![Vec::new(); MODELS.len()]; ctx.seconds.ceil() as usize];
    let mut service_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut batch_sizes = Vec::new();
    for r in &replies {
        late_ms.push(r.late_ms);
        match r.status {
            Some(200) => {
                let want = &expected[r.model][r.input];
                let good = same_bits(&r.logits, want);
                tally.check(good, || {
                    format!(
                        "{} reply for input {} differs from a direct forward",
                        MODELS[r.model].0, r.input
                    )
                });
                if good {
                    ok += 1;
                    latency_ms[r.model].push(r.latency_ms);
                    slots[r.slot][r.model].push(r.latency_ms);
                    service_ms.push(r.service_ms);
                    batch_sizes.push(r.batch_size);
                } else {
                    errors += 1;
                }
            }
            Some(503) => {
                shed += 1;
                tally.op(false);
            }
            _ => {
                errors += 1;
                tally.op(false);
            }
        }
    }
    for &(good, _) in &scrapes {
        tally.check(good, || "GET /metrics failed".to_string());
    }
    let scrape_ms: Vec<f64> = scrapes.iter().map(|&(_, t)| t).collect();
    let sent = replies.len();
    let late_p99 = percentile(&late_ms, 99.0);

    extra.insert("serve.batch_size_mean", mean(&batch_sizes));
    extra.insert("serve.direct_predict_ms", median(&direct_ms));
    if !direct_ms.is_empty() {
        extra.insert("serve.http_overhead_ms", median(&service_ms) - median(&direct_ms));
    }
    extra.insert("serve.generator_late_ms_p99", late_p99);
    let latency_p99 = percentile(&latency_ms.concat(), 99.0);
    // Lower quartile over seconds, as `Rounds::latency` does over rounds.
    let per_second: Vec<f64> = slots
        .iter()
        .filter(|s| s.iter().any(|c| !c.is_empty()))
        .map(|s| class_median_ms(s))
        .collect();
    let second_p50_ms = percentile(&per_second, 25.0);
    extra.insert("serve.latency_ms_p99", latency_p99);
    extra.insert("serve.sent", sent as f64);
    extra.insert("serve.ok", ok as f64);
    extra.insert("serve.shed", shed as f64);
    extra.insert("serve.errors", errors as f64);

    let detail = vec![(
        "serve".to_string(),
        JsonValue::Object(vec![
            ("scale".into(), "tiny".into()),
            ("models".into(), "TF-MNIST fp32 and int8".into()),
            ("rate_rps".into(), RATE_RPS.into()),
            ("senders".into(), senders.into()),
            ("sent".into(), sent.into()),
            ("ok".into(), ok.into()),
            ("shed".into(), shed.into()),
            ("errors".into(), errors.into()),
            ("service_ms_p50".into(), median(&service_ms).into()),
            ("latency_ms_p50".into(), class_median_ms(&latency_ms).into()),
            ("fp32_latency_ms_p50".into(), median(&latency_ms[0]).into()),
            ("int8_latency_ms_p50".into(), median(&latency_ms[1]).into()),
            ("fp32_latency_ms_p99".into(), percentile(&latency_ms[0], 99.0).into()),
            ("int8_latency_ms_p99".into(), percentile(&latency_ms[1], 99.0).into()),
            ("latency_ms_p99".into(), latency_p99.into()),
            ("generator_late_ms_p99".into(), late_p99.into()),
            ("metrics_scrape_ms_mean".into(), mean(&scrape_ms).into()),
            ("metrics_scrapes".into(), scrapes.len().into()),
        ]),
    )];
    Outcome {
        setup_s,
        samples_per_s: ok as f64 / elapsed,
        p50_ms: second_p50_ms,
        tally,
        rounds: ctx.seconds,
        extra,
        detail,
    }
}
