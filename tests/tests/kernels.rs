//! Kernel equivalence gate: the packed, blocked GEMM kernels and the
//! fused im2col+GEMM convolution must be *bitwise* equal to their
//! textbook references.
//!
//! The determinism contract (see `dlbench_tensor::linalg`) says every
//! destination element evolves as the fixed chain
//! `c = (((c₀ + t₀) + t₁) + …)` with `t_kk = a_ik · b_kj` in ascending
//! `kk`. Blocking, packing, path choice (small vs packed) and thread
//! count may only change *which element is computed when*, never the
//! per-element operation sequence — so the optimized kernels must
//! reproduce the naive triple loop bit for bit, on every shape
//! including ragged tails, empty dims and 1×1, at any thread count.
//!
//! The int8 path has the same gate with a stronger reason: i32
//! accumulation is exact, so the packed dot-product kernel, `gemm_i8`
//! and the sample-parallel quantized layers must equal a naive i32
//! triple loop (and a materialized im2col oracle) bit for bit, whatever
//! their tiling, padding, k-blocking or partition.

use dlbench_data::DatasetKind;
use dlbench_frameworks::{arch_defaults, trainer, FrameworkKind, Scale};
use dlbench_nn::{Conv1dBank, Conv2d, Initializer, Layer, Linear};
use dlbench_quant::{LayerCalibration, QConv1dBank, QConv2d, QLinear, QTensor};
use dlbench_tensor::{
    gemm, gemm_a_bt, gemm_at_b, gemm_bias, gemm_i8, gemm_i8_packed, im2col, par, quantize_i8,
    Conv2dGeometry, PackedI8, SeededRng, Tensor,
};
use std::sync::Mutex;

/// Serializes tests that mutate the global worker count.
static THREADS_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    THREADS_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` at the given thread count, restoring single-threaded
/// execution afterwards so unrelated tests see a fixed configuration.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    par::set_threads(n);
    let out = f();
    par::set_threads(1);
    out
}

/// The reference semantics, spelled out: a naive triple loop that
/// accumulates `a[i,kk] * b[kk,j]` directly into `c[i,j]` in ascending
/// `kk`. No skips, no reassociation, no FMA.
fn naive_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[i * k + kk] * b[kk * n + j];
            }
        }
    }
}

/// `c += aᵀ @ b` with `a` stored `[k, m]`.
fn naive_gemm_at_b(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[kk * m + i] * b[kk * n + j];
            }
        }
    }
}

/// `c += a @ bᵀ` with `b` stored `[n, k]`.
fn naive_gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[i * k + kk] * b[j * k + kk];
            }
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Shapes that exercise every dispatch path: the small loop (below
/// `PACK_MIN_WORK`), the packed path, ragged tails against the 4×8
/// micro-tile and the 256-deep k-block, empty dims, 1×1, and sizes big
/// enough to clear `par::PAR_MIN_WORK` so 4 threads genuinely fan out.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (4, 8, 8),
    (3, 5, 7),
    (0, 4, 4),
    (4, 0, 4),
    (4, 4, 0),
    (37, 41, 29),
    (64, 300, 48),
    (128, 96, 80),
    (65, 257, 9),
];

#[test]
fn packed_gemm_kernels_match_naive_reference_bitwise() {
    let _gate = gate();
    let mut rng = SeededRng::new(0x4E44);
    for &(m, k, n) in SHAPES {
        let a = Tensor::randn(&[m.max(1), k.max(1)], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[k.max(1), n.max(1)], 0.0, 1.0, &mut rng);
        let bias = Tensor::randn(&[n.max(1)], 0.0, 1.0, &mut rng);
        // Nonzero destination: accumulation order into existing values
        // is part of the contract, not just the product itself.
        let c_init = Tensor::randn(&[m.max(1), n.max(1)], 0.0, 1.0, &mut rng);
        let c_init = &c_init.data()[..m * n];
        let (ad, bd) = (&a.data()[..m * k], &b.data()[..k * n]);

        let mut want = c_init.to_vec();
        naive_gemm(m, k, n, ad, bd, &mut want);
        for threads in [1, 4] {
            let mut got = c_init.to_vec();
            at_threads(threads, || gemm(m, k, n, ad, bd, &mut got));
            assert_eq!(bits(&got), bits(&want), "gemm {m}x{k}x{n} @ {threads} threads");
        }

        let mut want_bias = vec![0.0f32; m * n];
        for row in want_bias.chunks_exact_mut(n.max(1)) {
            row.copy_from_slice(&bias.data()[..n]);
        }
        naive_gemm(m, k, n, ad, bd, &mut want_bias);
        for threads in [1, 4] {
            let mut got = vec![0.0f32; m * n];
            at_threads(threads, || gemm_bias(m, k, n, ad, bd, &bias.data()[..n], &mut got));
            assert_eq!(bits(&got), bits(&want_bias), "gemm_bias {m}x{k}x{n} @ {threads} threads");
        }

        // Transposed-operand variants, same shapes: `a` as [k, m] for
        // aᵀb, `b` as [n, k] for abᵀ.
        let at_full = Tensor::randn(&[k.max(1), m.max(1)], 0.0, 1.0, &mut rng).into_vec();
        let at = &at_full[..k * m];
        let mut want = c_init.to_vec();
        naive_gemm_at_b(m, k, n, at, bd, &mut want);
        for threads in [1, 4] {
            let mut got = c_init.to_vec();
            at_threads(threads, || gemm_at_b(m, k, n, at, bd, &mut got));
            assert_eq!(bits(&got), bits(&want), "gemm_at_b {m}x{k}x{n} @ {threads} threads");
        }

        let bt_full = Tensor::randn(&[n.max(1), k.max(1)], 0.0, 1.0, &mut rng).into_vec();
        let bt = &bt_full[..n * k];
        let mut want = c_init.to_vec();
        naive_gemm_a_bt(m, k, n, ad, bt, &mut want);
        for threads in [1, 4] {
            let mut got = c_init.to_vec();
            at_threads(threads, || gemm_a_bt(m, k, n, ad, bt, &mut got));
            assert_eq!(bits(&got), bits(&want), "gemm_a_bt {m}x{k}x{n} @ {threads} threads");
        }
    }
}

/// Regression for the old `aik == 0.0` fast-skip in the serial GEMM: a
/// zero left operand must still multiply the right operand, because
/// `0 · NaN = NaN` and `0 · ∞ = NaN` — TrainGuard's divergence
/// detection relies on non-finite values propagating through every
/// kernel instead of being silently filtered.
#[test]
fn zero_rows_do_not_mask_poisoned_operands() {
    let _gate = gate();
    // Big enough for the packed path, with k past one k-block, and a
    // small-path shape too — the skip must exist on neither.
    for (m, k, n) in [(2usize, 3usize, 4usize), (48, 300, 40)] {
        let a = vec![0.0f32; m * k];
        let mut rng = SeededRng::new(0xBAD);
        let mut b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng).into_vec();
        // Poison one full b row: every output column sees a NaN term.
        for v in &mut b[n..2 * n] {
            *v = f32::NAN;
        }
        for threads in [1, 4] {
            let mut c = vec![0.0f32; m * n];
            at_threads(threads, || gemm(m, k, n, &a, &b, &mut c));
            assert!(
                c.iter().all(|v| v.is_nan()),
                "0·NaN was dropped ({m}x{k}x{n} @ {threads} threads)"
            );
        }
    }
}

/// The fused im2col+GEMM forward must be bitwise-transparent: for every
/// conv geometry in the three personality networks (both datasets), the
/// fused `Conv2d::forward` equals the materialized im2col+GEMM oracle,
/// serial and at 4 threads.
#[test]
fn fused_conv_forward_is_bitwise_transparent_for_all_personalities() {
    let _gate = gate();
    let mut rng = SeededRng::new(0xF5ED);
    const BATCH: usize = 3;
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
                    &mut rng,
                );
                let x = Tensor::randn(
                    &[BATCH, geo.in_channels, geo.in_h, geo.in_w],
                    0.0,
                    1.0,
                    &mut rng,
                );
                let want = bits(conv.forward_materialized(&x).data());
                for threads in [1, 4] {
                    let got = at_threads(threads, || conv.forward(&x, false));
                    assert_eq!(
                        bits(got.data()),
                        want,
                        "{}/conv{} fused != materialized @ {threads} threads",
                        spec.name,
                        i + 1
                    );
                }
            }
        }
    }
}

/// The int8 reference: `c[i,j] += Σ_kk a[i,kk]·b[kk,j]` in i32, `a`
/// `[m, k]` and `b` `[k, n]` row-major.
fn naive_gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                c[i * n + j] += a[i * k + kk] as i32 * b[kk * n + j] as i32;
            }
        }
    }
}

fn random_i8(len: usize, rng: &mut SeededRng) -> Vec<i8> {
    (0..len).map(|_| (rng.index(256) as i64 - 128) as i8).collect()
}

/// Runs both int8 entry points — `gemm_i8` at 1 and 4 threads, and the
/// packed kernel on operands packed by `PackedI8` — from a nonzero
/// destination, asserting each equals the naive loop.
fn assert_int8_gemm_matches_naive(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) {
    let c0: Vec<i32> = (0..m * n).map(|i| i as i32 * 7 - 300).collect();
    let mut want = c0.clone();
    naive_gemm_i8(m, k, n, a, b, &mut want);
    for threads in [1, 4] {
        let mut got = c0.clone();
        at_threads(threads, || gemm_i8(m, k, n, a, b, &mut got));
        assert_eq!(got, want, "gemm_i8 {m}x{k}x{n} @ {threads} threads");
    }
    let (ap, bp) = (PackedI8::from_rows(m, k, a), PackedI8::from_cols(k, n, b));
    assert_eq!(ap.stride(), bp.stride());
    let mut got = c0.clone();
    gemm_i8_packed(m, n, ap.stride(), ap.data(), bp.data(), &mut got);
    assert_eq!(got, want, "gemm_i8_packed {m}x{k}x{n}");
}

#[test]
fn int8_kernels_match_naive_reference_bitwise() {
    let _gate = gate();
    let mut rng = SeededRng::new(0x1A8);
    // Ragged k against the 16-lane padding and the 512-lane k-block,
    // odd m/n against the 2×2 tile, n = 1 and m = 1 (the per-sample
    // conv planes), empty dims, and sizes past `par::PAR_MIN_WORK`.
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 16, 2),
        (3, 17, 5),
        (7, 33, 9),
        (64, 800, 1),
        (1, 100, 37),
        (0, 4, 4),
        (4, 0, 4),
        (4, 4, 0),
        (5, 1100, 3),
        (96, 300, 80),
        (129, 75, 63),
    ];
    for &(m, k, n) in shapes {
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        assert_int8_gemm_matches_naive(m, k, n, &a, &b);
    }
    // The deepest reduction the suite issues at the extreme products:
    // 4096 · 127 · (−128) and 4096 · (−128)², still inside i32.
    let (m, k, n) = (3, 4096, 5);
    for (x, y) in [(127i8, -128i8), (-128, -128)] {
        assert_int8_gemm_matches_naive(m, k, n, &vec![x; m * k], &vec![y; k * n]);
    }
}

/// An activation quantizer `(scale, zero_point)` with a nonzero zero
/// point, so padding and the `z_x · Σw` correction are exercised.
fn act_calibration(scale: f32, zero_point: i8) -> LayerCalibration {
    LayerCalibration {
        layer: "oracle".into(),
        observed_min: -1.0,
        observed_max: 1.0,
        range_lo: -1.0,
        range_hi: 1.0,
        scale,
        zero_point,
        clipped_fraction: 0.0,
    }
}

fn quantized(x: &Tensor, cal: &LayerCalibration) -> Vec<i8> {
    let mut q = vec![0i8; x.len()];
    quantize_i8(x.data(), cal.scale, cal.zero_point, &mut q);
    q
}

/// Per-output-row sums of a `[rows, cols]` int8 matrix.
fn row_sums(w: &QTensor) -> Vec<i32> {
    let cols = w.shape()[1];
    w.data().chunks(cols).map(|r| r.iter().map(|&v| v as i32).sum()).collect()
}

/// The materialized int8 convolution of one quantized sample:
/// `im2col` with zero-point padding (the fp32 lowering of `q − z_x`,
/// shifted back by `z_x`), then the naive i32 GEMM against the
/// `[oc, patch]` weights. Returns `[oc, plane]` accumulators.
fn oracle_conv_acc(geo: &Conv2dGeometry, zero_point: i8, xq: &[i8], w: &QTensor) -> Vec<i32> {
    let (patch, plane) = (geo.patch_len(), geo.out_plane());
    let centered: Vec<f32> = xq.iter().map(|&q| (q as i32 - zero_point as i32) as f32).collect();
    let mut cols = vec![0.0f32; patch * plane];
    im2col(geo, &centered, &mut cols);
    let cols: Vec<i8> = cols.iter().map(|&v| (v as i32 + zero_point as i32) as i8).collect();
    let oc = w.shape()[0];
    let mut acc = vec![0i32; oc * plane];
    naive_gemm_i8(oc, patch, plane, w.data(), &cols, &mut acc);
    acc
}

/// The layers' requantize expression, per element.
fn requantize(acc: i32, s: f32, zx: i32, wsum: i32, bias: f32) -> f32 {
    s * (acc - zx * wsum) as f32 + bias
}

/// Every personality conv layer (images: `QConv2d`; IMDB:
/// `QConv1dBank`, one branch per geometry) must equal the materialized
/// oracle bit for bit, serial and at 4 threads.
#[test]
fn quantized_conv_layers_match_materialized_oracle_bitwise() {
    let _gate = gate();
    let mut rng = SeededRng::new(0x1A9);
    const BATCH: usize = 3;
    for fw in FrameworkKind::ALL {
        for ds in [DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::Imdb] {
            let spec = arch_defaults(fw, ds);
            let dims = trainer::input_dims(ds, Scale::Paper.image_size(ds));
            for (i, (geo, oc)) in spec.conv_geometries(dims).into_iter().enumerate() {
                let label = format!("{}/conv{}", spec.name, i + 1);
                let x = Tensor::randn(
                    &[BATCH, geo.in_channels, geo.in_h, geo.in_w],
                    0.0,
                    1.0,
                    &mut rng,
                );
                let cal = act_calibration(0.03, -17);
                let (s_x, zx) = (cal.scale, cal.zero_point as i32);
                let xq = quantized(&x, &cal);
                let sample_in = geo.in_channels * geo.in_h * geo.in_w;
                let plane = geo.out_plane();
                let (mut layer, want): (Box<dyn Layer>, Vec<f32>) = if ds.is_text() {
                    let fp32 = Conv1dBank::new(
                        oc,
                        &[geo.kernel_h],
                        geo.kernel_w,
                        Initializer::Xavier,
                        &mut rng,
                    );
                    let q = QConv1dBank::from_fp32(&fp32, cal.clone());
                    let (w, bias) = q.branch_parts()[0];
                    let wsum = row_sums(w);
                    let mut want = Vec::new();
                    for xs in xq.chunks(sample_in) {
                        let acc = oracle_conv_acc(&geo, cal.zero_point, xs, w);
                        for o in 0..oc {
                            let v = acc[o * plane..(o + 1) * plane]
                                .iter()
                                .map(|&a| requantize(a, s_x * w.scale, zx, wsum[o], bias[o]));
                            // Max over time, earliest of equals.
                            want.push(v.reduce(|best, v| if v > best { v } else { best }).unwrap());
                        }
                    }
                    (Box::new(q), want)
                } else {
                    let fp32 = Conv2d::new(
                        geo.in_channels,
                        oc,
                        geo.kernel_h,
                        geo.stride,
                        geo.pad,
                        Initializer::Xavier,
                        &mut rng,
                    );
                    let q = QConv2d::from_fp32(&fp32, cal.clone());
                    let (w, bias) = (q.weight(), q.bias());
                    let wsum = row_sums(w);
                    let mut want = Vec::new();
                    for xs in xq.chunks(sample_in) {
                        let acc = oracle_conv_acc(&geo, cal.zero_point, xs, w);
                        for (j, &a) in acc.iter().enumerate() {
                            let o = j / plane;
                            want.push(requantize(a, s_x * w.scale, zx, wsum[o], bias[o]));
                        }
                    }
                    (Box::new(q), want)
                };
                for threads in [1, 4] {
                    let got = at_threads(threads, || layer.forward(&x, false));
                    assert_eq!(
                        bits(got.data()),
                        bits(&want),
                        "{label} int8 != oracle @ {threads} threads"
                    );
                }
            }
        }
    }
}

/// `QLinear` against the naive `[n, in] @ [in, out]` oracle, at shapes
/// from a single sample up to a batch past `par::PAR_MIN_WORK`.
#[test]
fn quantized_linear_matches_naive_oracle_bitwise() {
    let _gate = gate();
    let mut rng = SeededRng::new(0x1AA);
    for (n, inf, outf) in [(1usize, 1usize, 1usize), (5, 33, 17), (64, 800, 10), (100, 1024, 64)] {
        let fp32 = Linear::new(inf, outf, Initializer::Xavier, &mut rng);
        let cal = act_calibration(0.02, 9);
        let mut q = QLinear::from_fp32(&fp32, cal.clone());
        let x = Tensor::randn(&[n, inf], 0.0, 1.0, &mut rng);
        let xq = quantized(&x, &cal);
        let w = q.weight_t();
        let mut acc = vec![0i32; n * outf];
        naive_gemm_i8(n, inf, outf, &xq, w.data(), &mut acc);
        let mut wsum = vec![0i32; outf];
        for row in w.data().chunks(outf) {
            for (s, &v) in wsum.iter_mut().zip(row) {
                *s += v as i32;
            }
        }
        let want: Vec<f32> = acc
            .iter()
            .enumerate()
            .map(|(j, &a)| {
                let o = j % outf;
                requantize(a, cal.scale * w.scale, cal.zero_point as i32, wsum[o], q.bias()[o])
            })
            .collect();
        for threads in [1, 4] {
            let got = at_threads(threads, || q.forward(&x, false));
            assert_eq!(bits(got.data()), bits(&want), "qlinear {n}x{inf}->{outf} @ {threads}");
        }
    }
}
