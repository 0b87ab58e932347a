//! Kernel throughput and the CI perf-regression gate: the four GEMM
//! variants, the int8 inference kernels (`gemm_i8`, `quantize_i8`,
//! `dequantize_i8`), `im2col`, the fp32 and int8 convolution forward of
//! every personality conv layer, and the text-workload layers (embedding
//! lookup, fp32 and int8 3/4/5-width conv1d banks), each with achieved
//! GFLOP/s, into `target/dlbench-reports/BENCH_kernels.json`.
//!
//! With `DLBENCH_PERF_BASELINE` pointing at a committed baseline JSON
//! (`scripts/check.sh` wires `crates/bench/baselines/kernels.json`), a
//! full run exits non-zero if any kernel runs >15% slower than its
//! baseline, or if no measured kernel has a baseline entry at all. The
//! CLI, timer and gate are [`dlbench_bench::harness`]'s.

use std::process::ExitCode;

use dlbench_bench::harness::{self, Harness};
use dlbench_bench::BENCH_SEED;
use dlbench_frameworks::{arch_defaults, FrameworkKind};
use dlbench_nn::{Conv1dBank, Conv2d, Embedding, Initializer, Layer};
use dlbench_quant::{LayerCalibration, QConv1dBank, QConv2d};
use dlbench_tensor::{
    dequantize_i8, gemm, gemm_a_bt, gemm_at_b, gemm_bias, gemm_i8, im2col, quantize_i8,
    Conv2dGeometry, SeededRng, Tensor,
};

fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

fn bench_gemm_variants(h: &mut Harness, rng: &mut SeededRng) {
    let n = 128;
    let a = Tensor::randn(&[n, n], 0.0, 1.0, rng);
    let b = Tensor::randn(&[n, n], 0.0, 1.0, rng);
    let bias = Tensor::randn(&[n], 0.0, 1.0, rng);
    let mut c = vec![0.0f32; n * n];
    let flops = gemm_flops(n, n, n);
    h.bench("gemm/128x128x128", flops, || {
        c.fill(0.0);
        gemm(n, n, n, a.data(), b.data(), &mut c);
    });
    h.bench("gemm_bias/128x128x128", flops, || {
        gemm_bias(n, n, n, a.data(), b.data(), bias.data(), &mut c);
    });
    h.bench("gemm_at_b/128x128x128", flops, || {
        c.fill(0.0);
        gemm_at_b(n, n, n, a.data(), b.data(), &mut c);
    });
    h.bench("gemm_a_bt/128x128x128", flops, || {
        c.fill(0.0);
        gemm_a_bt(n, n, n, a.data(), b.data(), &mut c);
    });

    // The TF-MNIST fc1 shape: [batch 50] 3136 -> 1024, the largest
    // single GEMM any personality issues.
    let (m, k, nn) = (50, 3136, 1024);
    let a = Tensor::randn(&[m, k], 0.0, 1.0, rng);
    let b = Tensor::randn(&[k, nn], 0.0, 0.1, rng);
    let mut c = vec![0.0f32; m * nn];
    h.bench("gemm/tf_mnist_fc1", gemm_flops(m, k, nn), || {
        c.fill(0.0);
        gemm(m, k, nn, a.data(), b.data(), &mut c);
    });
}

/// The int8 inference kernels behind `dlbench-quant`: the i32-accumulate
/// GEMM at the same shapes as the fp32 variants plus the
/// quantize/dequantize conversions at a conv-activation-sized plane.
fn bench_quant_kernels(h: &mut Harness, rng: &mut SeededRng) {
    let n = 128;
    let af = Tensor::randn(&[n, n], 0.0, 1.0, rng);
    let bf = Tensor::randn(&[n, n], 0.0, 1.0, rng);
    let mut a = vec![0i8; n * n];
    let mut b = vec![0i8; n * n];
    quantize_i8(af.data(), 1.0 / 127.0, 0, &mut a);
    quantize_i8(bf.data(), 1.0 / 127.0, 0, &mut b);
    let mut c = vec![0i32; n * n];
    h.bench("gemm_i8/128x128x128", gemm_flops(n, n, n), || {
        c.fill(0);
        gemm_i8(n, n, n, &a, &b, &mut c);
    });

    // The TF-MNIST fc1 shape, matching `gemm/tf_mnist_fc1` above so the
    // fp32/int8 kernel ratio can be read straight off the report.
    let (m, k, nn) = (50, 3136, 1024);
    let af = Tensor::randn(&[m, k], 0.0, 1.0, rng);
    let bf = Tensor::randn(&[k, nn], 0.0, 0.1, rng);
    let mut a = vec![0i8; m * k];
    let mut b = vec![0i8; k * nn];
    quantize_i8(af.data(), 1.0 / 127.0, 0, &mut a);
    quantize_i8(bf.data(), 1.0 / 64.0, 0, &mut b);
    let mut c = vec![0i32; m * nn];
    h.bench("gemm_i8/tf_mnist_fc1", gemm_flops(m, k, nn), || {
        c.fill(0);
        gemm_i8(m, k, nn, &a, &b, &mut c);
    });

    // Activation-plane-sized conversions (batch 50 of a 3136-feature
    // activation — the tensor each quantized layer boundary converts).
    let plane = 50 * 3136;
    let xf = Tensor::randn(&[plane], 0.0, 1.0, rng);
    let mut xq = vec![0i8; plane];
    let mut xd = vec![0.0f32; plane];
    h.bench("quantize_i8/50x3136", 2 * plane as u64, || {
        quantize_i8(xf.data(), 0.05, -12, &mut xq);
    });
    quantize_i8(xf.data(), 0.05, -12, &mut xq);
    h.bench("dequantize_i8/50x3136", 2 * plane as u64, || {
        dequantize_i8(&xq, 0.05, -12, &mut xd);
    });
}

fn bench_im2col(h: &mut Harness, rng: &mut SeededRng) {
    // Caffe LeNet conv1 geometry at native MNIST size.
    let geo = Conv2dGeometry {
        in_channels: 1,
        in_h: 28,
        in_w: 28,
        kernel_h: 5,
        kernel_w: 5,
        stride: 1,
        pad: 0,
    };
    let input = Tensor::randn(&[1, 28 * 28], 0.0, 1.0, rng);
    let mut cols = vec![0.0f32; geo.patch_len() * geo.out_plane()];
    h.bench("im2col/lenet_conv1", 0, || im2col(&geo, input.data(), &mut cols));
}

/// An activation quantizer for standard-normal bench inputs: ±4σ over
/// the 256 int8 steps, with a nonzero zero point so padding and the
/// zero-point correction are on the measured path.
fn bench_calibration() -> LayerCalibration {
    LayerCalibration {
        layer: "bench".into(),
        observed_min: -4.0,
        observed_max: 4.0,
        range_lo: -4.0,
        range_hi: 4.0,
        scale: 8.0 / 255.0,
        zero_point: -1,
        clipped_fraction: 0.0,
    }
}

/// Forward of every personality conv layer at paper scale (batch 2),
/// through the real `Conv2d` layer so the fused path, its packing and
/// the arena are all on the measured path — then the same layer
/// quantized (`QConv2d`), whose forward quantizes, packs patch rows and
/// requantizes per sample, so `qconv_fwd/…` reads directly against
/// `conv_fwd/…`.
fn bench_personality_convs(h: &mut Harness, rng: &mut SeededRng) {
    use dlbench_data::DatasetKind;
    const BATCH: usize = 2;
    for fw in FrameworkKind::ALL {
        for ds in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            let spec = arch_defaults(fw, ds);
            let input = (ds.channels(), ds.native_size(), ds.native_size());
            for (i, (geo, oc)) in spec.conv_geometries(input).iter().enumerate() {
                let mut conv = Conv2d::new(
                    geo.in_channels,
                    *oc,
                    geo.kernel_h,
                    geo.stride,
                    geo.pad,
                    Initializer::Xavier,
                    rng,
                );
                let x = Tensor::randn(&[BATCH, geo.in_channels, geo.in_h, geo.in_w], 0.0, 1.0, rng);
                let flops = (BATCH as u64)
                    * 2
                    * (*oc as u64)
                    * (geo.patch_len() as u64)
                    * (geo.out_plane() as u64);
                h.bench(format!("conv_fwd/{}/conv{}", spec.name, i + 1), flops, || {
                    std::hint::black_box(conv.forward(&x, false));
                });
                let mut qconv = QConv2d::from_fp32(&conv, bench_calibration());
                h.bench(format!("qconv_fwd/{}/conv{}", spec.name, i + 1), flops, || {
                    std::hint::black_box(qconv.forward(&x, false));
                });
            }
        }
    }
}

/// The text-workload layers at their personality shapes (batch 2,
/// native 256-token sequences): the embedding lookup is pure data
/// movement (gather), the 3/4/5-width conv bank rides the packed
/// im2col+GEMM path and its int8 twin the packed int8 kernel — together
/// they are the text forward's hot loop.
fn bench_text_layers(h: &mut Harness, rng: &mut SeededRng) {
    const BATCH: usize = 2;
    let len = dlbench_data::DatasetKind::Imdb.native_size();
    let tokens: Vec<f32> =
        (0..BATCH * len).map(|_| rng.index(dlbench_text::VOCAB) as f32).collect();
    let x = Tensor::from_vec(&[BATCH, 1, len, 1], tokens).unwrap();

    // TF-IMDB embedding width; Caffe/Torch use 64 (covered by the bank
    // benches below reading an embedded sequence of their own width).
    let mut emb = Embedding::new(dlbench_text::VOCAB, 128, Initializer::Xavier, rng);
    h.bench("embedding_lookup/imdb_len256_dim128", 0, || {
        std::hint::black_box(emb.forward(&x, false));
    });

    // One conv bank per personality: (filters, embed dim) from
    // `arch_defaults(fw, Imdb)`, widths 3/4/5 everywhere.
    for (name, filters, dim) in
        [("TF-IMDB", 128usize, 128usize), ("Caffe-IMDB", 100, 64), ("Torch-IMDB", 64, 64)]
    {
        let widths = [3usize, 4, 5];
        let mut bank = Conv1dBank::new(filters, &widths, dim, Initializer::Xavier, rng);
        let embedded = Tensor::randn(&[BATCH, 1, len, dim], 0.0, 1.0, rng);
        let flops: u64 =
            widths.iter().map(|w| 2 * (BATCH * filters * (w * dim) * (len - w + 1)) as u64).sum();
        h.bench(format!("conv1d_fwd/{name}"), flops, || {
            std::hint::black_box(bank.forward(&embedded, false));
        });
        let mut qbank = QConv1dBank::from_fp32(&bank, bench_calibration());
        h.bench(format!("qconv1d_fwd/{name}"), flops, || {
            std::hint::black_box(qbank.forward(&embedded, false));
        });
    }
}

fn run_suite(h: &mut Harness, rng: &mut SeededRng) {
    bench_gemm_variants(h, rng);
    bench_quant_kernels(h, rng);
    bench_im2col(h, rng);
    bench_personality_convs(h, rng);
    bench_text_layers(h, rng);
}

fn main() -> ExitCode {
    let mut rng = SeededRng::new(BENCH_SEED);
    harness::run_gated("kernels", |h| run_suite(h, &mut rng))
}
