//! 2-D convolution layer (fused im2col + GEMM lowering).

use crate::init::Initializer;
use crate::layer::{Layer, ParamKind, ParamSet};
use crate::profile::LayerCost;
use dlbench_tensor::{
    arena, col2im, conv_forward_fused, gemm, gemm_a_bt, gemm_at_b, im2col, par, Conv2dGeometry,
    PackedConvWeight, Tensor,
};

/// A 2-D convolution over `[N, C, H, W]` inputs with square kernels,
/// uniform stride and symmetric zero padding.
///
/// Forward runs the fused im2col+GEMM kernel
/// ([`dlbench_tensor::conv_forward_fused`]): weights are packed once
/// per call and patch tiles are formed on the fly, never materializing
/// the column matrix. The result is bitwise identical to the
/// materialized lowering (kept as [`Conv2d::forward_materialized`] and
/// pinned by the transparency tests). Backward uses the transposed
/// GEMMs plus `col2im`. Weight layout matches Caffe:
/// `[out_c, in_c, kh, kw]`.
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with the given geometry and
    /// initializer.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        init: Initializer,
        rng: &mut dlbench_tensor::SeededRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight =
            init.sample_weights(&[out_channels, in_channels, kernel, kernel], fan_in, fan_out, rng);
        let bias = init.sample_bias(&[out_channels], fan_in, rng);
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            grad_weight: Tensor::zeros(weight.shape()),
            grad_bias: Tensor::zeros(bias.shape()),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Number of output channels (feature maps).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Immutable access to the kernel weights.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable access to the per-channel biases.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Square kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Uniform stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symmetric zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: self.in_channels,
            in_h,
            in_w,
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Reference forward through the materialized im2col + GEMM
    /// lowering. Kept as the transparency oracle for the fused kernel:
    /// `forward` must produce bitwise-identical output (see
    /// `tests/tests/kernels.rs`). Does not cache the input.
    pub fn forward_materialized(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "Conv2d expects [N, C, H, W]");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.in_channels, "channel mismatch");
        let geo = self.geometry(h, w);
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let plane = oh * ow;
        let patch = geo.patch_len();
        let sample_in = c * h * w;
        let sample_out = self.out_channels * plane;

        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let out_channels = self.out_channels;
        let weight = self.weight.data();
        let bias = self.bias.data();
        let in_data = input.data();
        let per_sample = |first: usize, out_chunk: &mut [f32]| {
            let mut cols = arena::take(patch * plane);
            for (si, out_s) in out_chunk.chunks_mut(sample_out).enumerate() {
                let s = first + si;
                im2col(&geo, &in_data[s * sample_in..(s + 1) * sample_in], &mut cols);
                for oc in 0..out_channels {
                    out_s[oc * plane..(oc + 1) * plane].fill(bias[oc]);
                }
                gemm(out_channels, patch, plane, weight, &cols, out_s);
            }
        };
        if n * out_channels * patch * plane < par::PAR_MIN_WORK {
            per_sample(0, out.data_mut());
        } else {
            par::par_row_chunks_mut(out.data_mut(), sample_out, per_sample);
        }
        out
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn summary(&self) -> String {
        format!(
            "{k}x{k}, {i}->{o} (stride {s}, pad {p})",
            k = self.kernel,
            i = self.in_channels,
            o = self.out_channels,
            s = self.stride,
            p = self.pad
        )
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.rank(), 4, "Conv2d expects [N, C, H, W]");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.in_channels, "channel mismatch");
        let geo = self.geometry(h, w);
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let plane = oh * ow;
        let patch = geo.patch_len();
        let sample_in = c * h * w;
        let sample_out = self.out_channels * plane;

        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let out_channels = self.out_channels;
        // One Kernel span on the caller thread for the whole fused
        // batch, carrying the joined FLOP count so `dlbench profile`
        // reports achieved GFLOP/s for the fused kernel.
        let flops = 2 * (n * out_channels * patch * plane) as u64;
        let _span = dlbench_trace::span_flops(dlbench_trace::Category::Kernel, "conv_fused", flops);
        // Weights pack once per call into the GEMM panel layout and are
        // shared read-only across samples and workers; each sample then
        // runs the fused kernel, which forms its patch tiles on the fly.
        // Samples are independent, so the batch parallelizes over
        // disjoint per-sample output rows, and the per-sample math is
        // exactly the serial kernel — bitwise, at any thread count.
        let packed = PackedConvWeight::pack(out_channels, patch, self.weight.data());
        let bias = self.bias.data();
        let in_data = input.data();
        let per_sample = |first: usize, out_chunk: &mut [f32]| {
            for (si, out_s) in out_chunk.chunks_mut(sample_out).enumerate() {
                let s = first + si;
                // out[oc, plane] = W[oc, patch] @ cols[patch, plane] + bias
                for oc in 0..out_channels {
                    out_s[oc * plane..(oc + 1) * plane].fill(bias[oc]);
                }
                conv_forward_fused(
                    &geo,
                    &packed,
                    &in_data[s * sample_in..(s + 1) * sample_in],
                    out_s,
                );
            }
        };
        if n * out_channels * patch * plane < par::PAR_MIN_WORK {
            per_sample(0, out.data_mut());
        } else {
            par::par_row_chunks_mut(out.data_mut(), sample_out, per_sample);
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let geo = self.geometry(h, w);
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let plane = oh * ow;
        let patch = geo.patch_len();
        let sample_in = c * h * w;
        let sample_out = self.out_channels * plane;
        assert_eq!(grad_out.shape(), &[n, self.out_channels, oh, ow], "grad shape mismatch");

        let mut grad_in = Tensor::zeros(input.shape());
        let out_channels = self.out_channels;
        let weight = self.weight.data();
        let in_data = input.data();
        let gout = grad_out.data();
        let work = n * out_channels * patch * plane;

        // Input gradient: per-sample scatter targets are disjoint, so
        // the batch parallelizes directly over grad_in's sample rows.
        let input_grad = |first: usize, gin_chunk: &mut [f32]| {
            let mut cols_grad = arena::take(patch * plane);
            for (si, gin_s) in gin_chunk.chunks_mut(sample_in).enumerate() {
                let s = first + si;
                let gout_s = &gout[s * sample_out..(s + 1) * sample_out];
                // cols_grad = W^T @ gOut, then col2im scatter.
                cols_grad.iter_mut().for_each(|v| *v = 0.0);
                gemm_at_b(patch, out_channels, plane, weight, gout_s, &mut cols_grad);
                col2im(&geo, &cols_grad, gin_s);
            }
        };
        if work < par::PAR_MIN_WORK {
            input_grad(0, grad_in.data_mut());
        } else {
            par::par_row_chunks_mut(grad_in.data_mut(), sample_in, input_grad);
        }

        // Weight/bias gradients accumulate *across* samples. Both paths
        // stage each sample's contribution in a zeroed scratch row and
        // reduce in ascending sample order — the same additions, in the
        // same order, regardless of thread count, hence bit-identical.
        // (The serial path must stage too: the GEMM chains its terms
        // directly into the destination, so folding sample s straight
        // into `grad_weight` would interleave its terms with the
        // running total instead of adding one per-sample partial.)
        let wb = out_channels * patch + out_channels;
        if work < par::PAR_MIN_WORK || par::is_worker() || par::threads() == 1 {
            let mut cols = arena::take(patch * plane);
            let mut row = arena::take(wb);
            for s in 0..n {
                let gout_s = &gout[s * sample_out..(s + 1) * sample_out];
                // Weight gradient: gW[oc, patch] += gOut[oc, plane] @ cols^T.
                im2col(&geo, &in_data[s * sample_in..(s + 1) * sample_in], &mut cols);
                row.fill(0.0);
                let (w_part, b_part) = row.split_at_mut(out_channels * patch);
                gemm_a_bt(out_channels, plane, patch, gout_s, &cols, w_part);
                // Bias gradient: sum over the output plane.
                for (oc, b) in b_part.iter_mut().enumerate() {
                    *b = gout_s[oc * plane..(oc + 1) * plane].iter().sum::<f32>();
                }
                let gw = self.grad_weight.data_mut();
                for (dst, src) in gw.iter_mut().zip(w_part.iter()) {
                    *dst += src;
                }
                let gb = self.grad_bias.data_mut();
                for (dst, src) in gb.iter_mut().zip(b_part.iter()) {
                    *dst += src;
                }
            }
        } else {
            let mut scratch = arena::take_zeroed(n * wb);
            par::par_row_chunks_mut(&mut scratch, wb, |first, rows_chunk| {
                let mut cols = arena::take(patch * plane);
                for (si, row) in rows_chunk.chunks_mut(wb).enumerate() {
                    let s = first + si;
                    let gout_s = &gout[s * sample_out..(s + 1) * sample_out];
                    im2col(&geo, &in_data[s * sample_in..(s + 1) * sample_in], &mut cols);
                    let (w_part, b_part) = row.split_at_mut(out_channels * patch);
                    gemm_a_bt(out_channels, plane, patch, gout_s, &cols, w_part);
                    for (oc, b) in b_part.iter_mut().enumerate() {
                        *b = gout_s[oc * plane..(oc + 1) * plane].iter().sum::<f32>();
                    }
                }
            });
            let gw = self.grad_weight.data_mut();
            let gb = self.grad_bias.data_mut();
            for row in scratch.chunks(wb) {
                let (w_part, b_part) = row.split_at(out_channels * patch);
                for (dst, src) in gw.iter_mut().zip(w_part) {
                    *dst += src;
                }
                for (dst, src) in gb.iter_mut().zip(b_part) {
                    *dst += src;
                }
            }
        }
        grad_in
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        vec![
            ParamSet {
                kind: ParamKind::Weight,
                value: &mut self.weight,
                grad: &mut self.grad_weight,
            },
            ParamSet { kind: ParamKind::Bias, value: &mut self.bias, grad: &mut self.grad_bias },
        ]
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let geo = self.geometry(input_shape[2], input_shape[3]);
        vec![input_shape[0], self.out_channels, geo.out_h(), geo.out_w()]
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        let geo = self.geometry(input_shape[2], input_shape[3]);
        LayerCost::conv(input_shape[0], &geo, self.out_channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_tensor::SeededRng;

    fn finite_diff_check(pad: usize, stride: usize) {
        let mut rng = SeededRng::new(7);
        let mut conv = Conv2d::new(2, 3, 3, stride, pad, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        // Loss = sum(y * r) for fixed random r, so dL/dy = r.
        let r = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
        conv.zero_grads();
        let gx = conv.backward(&r);

        let eps = 1e-2f32;
        // Check input gradient at a few positions.
        for &idx in &[0usize, 13, 49, 99] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let yp = conv.forward(&xp, true);
            let ym = conv.forward(&xm, true);
            let num = (yp.mul(&r).unwrap().sum() - ym.mul(&r).unwrap().sum()) / (2.0 * eps);
            let ana = gx.data()[idx];
            assert!((num - ana).abs() < 2e-2, "input grad idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference_nopad() {
        finite_diff_check(0, 1);
    }

    #[test]
    fn input_gradient_matches_finite_difference_padded_strided() {
        finite_diff_check(1, 2);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(8);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let r = Tensor::ones(y.shape());
        conv.zero_grads();
        conv.backward(&r);
        let analytic = conv.grad_weight.clone();
        let bias_analytic = conv.grad_bias.clone();

        let eps = 1e-2f32;
        for &idx in &[0usize, 5, 17] {
            let orig = conv.weight.data()[idx];
            conv.weight.data_mut()[idx] = orig + eps;
            let lp = conv.forward(&x, true).sum();
            conv.weight.data_mut()[idx] = orig - eps;
            let lm = conv.forward(&x, true).sum();
            conv.weight.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 2e-2,
                "weight grad idx {idx}: {num} vs {}",
                analytic.data()[idx]
            );
        }
        // Bias gradient: d(sum(y))/d(bias_oc) = number of output sites.
        let sites = 4.0 * 4.0;
        for oc in 0..2 {
            assert!((bias_analytic.data()[oc] - sites).abs() < 1e-3);
        }
    }

    #[test]
    fn output_shape_matches_forward() {
        let mut rng = SeededRng::new(9);
        let mut conv = Conv2d::new(3, 8, 5, 1, 2, Initializer::Xavier, &mut rng);
        let x = Tensor::zeros(&[4, 3, 32, 32]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), conv.output_shape(x.shape()).as_slice());
        assert_eq!(y.shape(), &[4, 8, 32, 32]);
    }

    #[test]
    fn known_convolution_value() {
        let mut rng = SeededRng::new(10);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, Initializer::Xavier, &mut rng);
        conv.weight = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        conv.bias = Tensor::from_vec(&[1], vec![0.5]).unwrap();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, false);
        // 1*1 + 4*1 + 0.5 = 5.5
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 5.5).abs() < 1e-6);
    }

    #[test]
    fn cost_scales_with_batch() {
        let mut rng = SeededRng::new(11);
        let conv = Conv2d::new(1, 4, 3, 1, 1, Initializer::Xavier, &mut rng);
        let c1 = conv.cost(&[1, 1, 8, 8]);
        let c2 = conv.cost(&[2, 1, 8, 8]);
        assert_eq!(c2.fwd_flops, 2 * c1.fwd_flops);
        assert_eq!(c1.params, c2.params);
    }
}
