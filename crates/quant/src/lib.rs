//! # dlbench-quant
//!
//! Int8 post-training quantization for the DLBench suite — the
//! subsystem that lets every framework personality be measured on the
//! paper's three metric groups (speed, accuracy, adversarial
//! robustness) under the quantized deployments that dominate real
//! serving.
//!
//! The pipeline:
//!
//! ```text
//! trained fp32 Network ──▶ calibration pass (held-out shard)
//!                              │ per-layer RangeObserver:
//!                              │ min/max + EMA percentile range
//!                              ▼
//!                   quantized Network (same container)
//!       Linear/Conv2d/Embedding/Conv1dBank → QLinear/QConv2d/
//!       QEmbedding/QConv1dBank: inference-only Layers owning their
//!       calibration (symmetric weights, affine activations,
//!       i32-accumulate packed int8 kernel, requantize between layers);
//!       every other layer stays as it was in fp32
//! ```
//!
//! * Weights are quantized **symmetrically per tensor** (`zero_point =
//!   0`, scale `max|w| / 127`); activations **affinely** from the
//!   calibrated range, so the quantized layer computes
//!   `y = s_x·s_w·(Σ x_q·w_q − z_x·Σ w_q) + bias` on
//!   [`dlbench_tensor::gemm_i8_packed`] in i32, the weights packed once
//!   per layer.
//! * Determinism: i32 accumulation is exact, quantize/dequantize are
//!   per-element, and the fp32 layers keep the suite's
//!   fixed-reduction-chain contract — quantized inference is
//!   bit-identical across thread counts and batch sizes (enforced by
//!   the determinism gate).
//! * A quantized model is a plain `dlbench_nn::Network`, so serving,
//!   evaluation, fleet health checks and split forwards
//!   (`forward_prefix`/`forward_from`) treat fp32 and int8 alike;
//!   [`calibration`] reads the int8 layers' records back out.
//! * [`quantize_checkpoint`] quantizes any personality checkpoint;
//!   [`to_entries`]/[`from_entries`] map the result onto `dlbench-nn`'s
//!   version-2 checkpoint format (scales, zero points and calibration
//!   stats included).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod layers;
mod network;
mod observer;
mod qtensor;

pub use convert::{
    calibration_shard, cost_split, quantize_checkpoint, quantize_checkpoint_path, quantize_network,
    quantize_trained, QuantConfig,
};
pub use layers::{QConv1dBank, QConv2d, QEmbedding, QLinear};
pub use network::{calibration, from_entries, to_entries, LayerCalibration, QuantizedNetwork};
pub use observer::RangeObserver;
pub use qtensor::QTensor;
