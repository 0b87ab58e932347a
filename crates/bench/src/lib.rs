//! # dlbench-bench
//!
//! The bench targets of the DLBench suite and the one [`harness`] they
//! share (CLI, best-of-N timer, reports dir, JSON writer, perf gate).
//!
//! Timed targets — each writes `target/dlbench-reports/BENCH_<name>.json`:
//!
//! * `kernels` — GEMM/int8/im2col/conv/text kernels with achieved
//!   GFLOP/s; the CI perf gate when `DLBENCH_PERF_BASELINE` is set.
//! * `layers`, `attacks` — layer forward/backward passes, a training
//!   step per personality, and the adversarial attack kernels.
//! * `parallel`, `trace` — serial-vs-parallel kernels and the tracing
//!   overhead (recorder off vs on).
//! * `ablation` — im2col+GEMM vs direct convolution, and the
//!   execution-style cost model.
//!
//! Document targets, byte-identical across runs: `quant`
//! (`BENCH_quant.json`, fp32 vs int8 per personality × image dataset)
//! and `text` (`BENCH_text.json`, the IMDB sentence-CNNs). `sweeps`
//! prints batch-size / learning-rate sensitivity tables.
//!
//! Every target honours `--list`; timed targets also take `--quick` and
//! a substring filter, and `quant`/`text` take `--quick` for fewer
//! attack samples. The paper's tables and figures, and the serve, fleet,
//! dist and spec sweeps, run through the `dlbench` CLI (`run`,
//! `loadgen --sweep`, `fleet --sweep`, `dist-train --sweep`, `run-spec`).

#![forbid(unsafe_code)]

pub mod harness;

use dlbench_data::Dataset;
use dlbench_json::JsonValue;
use dlbench_nn::Network;

/// The deterministic seed every bench target uses, so runs compare.
pub const BENCH_SEED: u64 = 0xD1_BE_4C;

/// Indices of test samples both models classify correctly — the
/// eligible pool for fp32-crafted, int8-transferred attacks.
pub fn both_correct(net: &mut Network, q: &mut Network, test: &Dataset) -> Vec<usize> {
    let idx: Vec<usize> = (0..test.len()).collect();
    let (inputs, labels) = test.gather(&idx);
    let fp32_preds = net.forward(&inputs, false).argmax_rows();
    let int8_preds = q.forward(&inputs, false).argmax_rows();
    idx.into_iter().filter(|&i| fp32_preds[i] == labels[i] && int8_preds[i] == labels[i]).collect()
}

/// fp32-crafted / int8-transferred success rates for one attack, as a
/// `{samples, fp32_success, int8_success, delta}` JSON object.
pub fn attack_row(fp32_hits: usize, int8_hits: usize, samples: usize) -> JsonValue {
    let denom = samples.max(1) as f32;
    let fp32_rate = fp32_hits as f32 / denom;
    let int8_rate = int8_hits as f32 / denom;
    JsonValue::Object(vec![
        ("samples".into(), samples.into()),
        ("fp32_success".into(), fp32_rate.into()),
        ("int8_success".into(), int8_rate.into()),
        ("delta".into(), (int8_rate - fp32_rate).into()),
    ])
}
