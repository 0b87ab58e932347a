//! The per-layer metric catalogue. Every workload's traced run reports
//! every metric named here; a layer the workload never calls reads 0.
//!
//! Span-derived times and call counts are per round: the totals of the
//! traced run divided by the rounds it completed, so runs of different
//! length compare. Names ending in `_p50`/`_p99`, and the per-call
//! means (`optim.step_ms`, `data.*_ms`, `adversarial.*_ms`,
//! `serve.*_ms`, `json.*_us`, `quant.calibrate_ms`) are per call.

use crate::measure::{percentile, Metric};
use crate::spans::Analysis;
use dlbench_trace::Category;
use std::collections::BTreeMap;

/// Program kernels (spans of `Category::Kernel` inside `dlbench-tensor`
/// and `dlbench-nn`).
pub const KERNELS: [&str; 12] = [
    "gemm",
    "gemm_at_b",
    "gemm_a_bt",
    "conv_fused",
    "im2col",
    "col2im",
    "conv1d_fused",
    "maxpool_fwd",
    "maxpool_bwd",
    "gemm_i8",
    "quantize_i8",
    "dequantize_i8",
];

/// fp32 layers, by `Layer::name()`.
pub const NN_LAYERS: [&str; 9] =
    ["conv2d", "linear", "maxpool2d", "relu", "tanh", "dropout", "lrn", "embedding", "conv1d_bank"];

/// Quantized layers (kernel spans inside `dlbench-quant`).
pub const QUANT_LAYERS: [&str; 4] = ["qlinear", "qconv2d", "qembedding", "qconv1d_bank"];

/// Values a workload measures itself (not from spans), keyed by metric
/// name; anything absent reads 0.
pub type Extra = BTreeMap<&'static str, f64>;

/// Every per-layer metric as `(name, unit)`, in report order.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for k in KERNELS {
        out.push((format!("tensor.{k}.self_ms"), "ms"));
        out.push((format!("tensor.{k}.calls"), "count"));
        out.push((format!("tensor.{k}.gflops"), "GFLOP/s"));
    }
    for l in NN_LAYERS {
        out.push((format!("nn.{l}.fwd_ms"), "ms"));
        out.push((format!("nn.{l}.bwd_ms"), "ms"));
    }
    for q in QUANT_LAYERS {
        out.push((format!("quant.{q}.self_ms"), "ms"));
    }
    for (name, unit) in [
        ("nn.kernel_coverage", "ratio"),
        ("optim.step_ms", "ms"),
        ("data.next_batch_ms", "ms"),
        ("data.preprocess_ms", "ms"),
        ("trainer.iteration_ms_p50", "ms"),
        ("trainer.iteration_ms_p99", "ms"),
        ("trainer.layer_coverage", "ratio"),
        ("data.generate_ms", "ms"),
        ("quant.calibrate_ms", "ms"),
        ("adversarial.fgsm_ms", "ms"),
        ("adversarial.pgd_ms", "ms"),
        ("evaluate.fp32_samples_per_s", "1/s"),
        ("evaluate.int8_samples_per_s", "1/s"),
        ("evaluate.attack_samples_per_s", "1/s"),
        ("evaluate.int8_speedup_measured", "ratio"),
        ("evaluate.int8_speedup_modeled", "ratio"),
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.queue_wait_ms_p99", "ms"),
        ("serve.batch_assembly_ms", "ms"),
        ("serve.forward_ms", "ms"),
        ("serve.serialize_ms", "ms"),
        ("serve.batch_size_mean", "count"),
        ("serve.direct_predict_ms", "ms"),
        ("serve.http_overhead_ms", "ms"),
        ("serve.metrics_scrape_ms", "ms"),
        ("serve.latency_ms_p99", "ms"),
        ("serve.generator_late_ms_p99", "ms"),
        ("serve.sent", "count"),
        ("serve.ok", "count"),
        ("serve.shed", "count"),
        ("serve.errors", "count"),
        ("json.parse_us", "us"),
        ("json.encode_us", "us"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// Derives every per-layer metric from a traced run's spans (`rounds`
/// completed) plus the workload's own measurements in `extra`.
pub fn per_layer(a: &Analysis, rounds: f64, extra: &Extra) -> Vec<Metric> {
    let per_round = |ns: u64| ns as f64 / 1e6 / rounds.max(1.0);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for k in KERNELS {
        let op = a.op(Category::Kernel, k);
        values.insert(format!("tensor.{k}.self_ms"), per_round(op.self_ns));
        values.insert(format!("tensor.{k}.calls"), op.calls as f64 / rounds.max(1.0));
        let gflops = if op.total_ns == 0 { 0.0 } else { op.flops as f64 / op.total_ns as f64 };
        values.insert(format!("tensor.{k}.gflops"), gflops);
    }
    for l in NN_LAYERS {
        values.insert(format!("nn.{l}.fwd_ms"), per_round(a.op(Category::Layer, l).total_ns));
        let bwd = a.op(Category::Layer, &format!("{l}.bwd"));
        values.insert(format!("nn.{l}.bwd_ms"), per_round(bwd.total_ns));
    }
    for q in QUANT_LAYERS {
        values.insert(format!("quant.{q}.self_ms"), per_round(a.op(Category::Kernel, q).self_ns));
    }
    let iterations = a.durations_ms(Category::Runner, "trainer.iteration");
    let queue_wait = a.interval_ms("queue_wait");
    for (name, value) in [
        ("nn.kernel_coverage", a.child_coverage(Category::Layer)),
        ("optim.step_ms", a.mean_ms(Category::Runner, "optim.step")),
        ("data.next_batch_ms", a.mean_ms(Category::Runner, "data.next_batch")),
        ("data.preprocess_ms", a.mean_ms(Category::Runner, "data.preprocess")),
        ("trainer.iteration_ms_p50", percentile(&iterations, 50.0)),
        ("trainer.iteration_ms_p99", percentile(&iterations, 99.0)),
        ("trainer.layer_coverage", a.direct_child_share("trainer.iteration", Category::Layer)),
        ("data.generate_ms", a.mean_ms(Category::Runner, "data.generate")),
        ("quant.calibrate_ms", a.mean_ms(Category::Train, "quantize.calibrate")),
        ("adversarial.fgsm_ms", a.mean_ms(Category::Runner, "adversarial.fgsm")),
        ("adversarial.pgd_ms", a.mean_ms(Category::Runner, "adversarial.pgd")),
        ("serve.queue_wait_ms_p50", percentile(&queue_wait, 50.0)),
        ("serve.queue_wait_ms_p99", percentile(&queue_wait, 99.0)),
        ("serve.batch_assembly_ms", a.mean_ms(Category::Serve, "batch_assembly")),
        ("serve.forward_ms", a.mean_ms(Category::Serve, "forward")),
        ("serve.serialize_ms", a.mean_ms(Category::Serve, "serialize")),
        ("serve.metrics_scrape_ms", a.mean_ms(Category::Runner, "serve.metrics_scrape")),
        ("json.parse_us", a.mean_ms(Category::Runner, "json.parse") * 1e3),
        ("json.encode_us", a.mean_ms(Category::Runner, "json.encode") * 1e3),
    ] {
        values.insert(name.to_string(), value);
    }
    for (&name, &value) in extra {
        values.insert(name.to_string(), value);
    }
    catalogue()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect()
}
