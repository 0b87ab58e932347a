//! Quantized layers: inference-only [`Layer`]s that take the place of
//! `Linear`, `Conv2d`, `Embedding` and `Conv1dBank` in a [`Network`].
//!
//! [`Network`]: dlbench_nn::Network

use crate::network::LayerCalibration;
use crate::qtensor::QTensor;
use dlbench_nn::{token_row, Conv1dBank, Conv2d, Embedding, Layer, LayerCost, Linear, MaxOverTime};
use dlbench_tensor::{
    gemm_i8_packed, pack_row_i8, par, quantize_i8, Conv2dGeometry, PackedI8, Tensor,
};
use dlbench_trace::{span, span_flops, Category};

/// Rejects training-mode use: quantized layers have no gradients.
fn inference_only(name: &str) -> ! {
    panic!("{name} is inference-only: quantized layers have no training mode or backward pass")
}

/// Runs `per_chunk(first_sample, out_chunk)` over disjoint chunks of
/// whole samples of `out` (`sample_out` values each): in parallel when
/// the batch's `macs` clear [`par::PAR_MIN_WORK`], inline otherwise —
/// the fp32 `Conv2d` discipline. Each worker quantizes and packs its
/// own samples, and i32 accumulation is exact, so the partition never
/// changes a bit.
fn for_sample_chunks<F>(out: &mut [f32], sample_out: usize, macs: usize, per_chunk: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    if macs < par::PAR_MIN_WORK {
        per_chunk(0, out);
    } else {
        par::par_row_chunks_mut(out, sample_out, per_chunk);
    }
}

/// A quantized fully connected layer: symmetric int8 weights, affine
/// int8 input quantization, i32 accumulation, fp32 requantized output.
///
/// The checkpoint form of the weights is transposed to `[in, out]`;
/// the forward packs them once, at construction, as one
/// [`PackedI8`] row per output feature, so each output is one
/// dot product of a packed input row with a packed weight row.
#[derive(Debug, Clone)]
pub struct QLinear {
    in_features: usize,
    out_features: usize,
    /// Weights, transposed to `[in, out]`, symmetric (`zero_point` 0).
    weight_t: QTensor,
    /// `weight_t`'s columns as packed rows: the `[out, in]` operand.
    packed: PackedI8,
    /// Per-output sums of the weights (zero-point correction).
    wsum: Vec<i32>,
    bias: Vec<f32>,
    /// Calibration record; its `(scale, zero_point)` is the input
    /// (activation) quantizer.
    calibration: LayerCalibration,
}

impl QLinear {
    /// Quantizes a trained fp32 layer, given its calibration record.
    pub fn from_fp32(layer: &Linear, calibration: LayerCalibration) -> Self {
        let (inf, outf) = (layer.in_features(), layer.out_features());
        // Transpose [out, in] → [in, out], the checkpoint layout.
        let w = layer.weight().data();
        let mut w_t = vec![0.0f32; w.len()];
        for o in 0..outf {
            for i in 0..inf {
                w_t[i * outf + o] = w[o * inf + i];
            }
        }
        let weight_t = QTensor::quantize_symmetric(&[inf, outf], &w_t);
        Self::from_parts(weight_t, layer.bias().data().to_vec(), calibration)
    }

    /// Assembles the layer from already-quantized parts (the
    /// checkpoint-load path — stored weights are reused bit-for-bit,
    /// never re-quantized) and packs the weights for the forward.
    ///
    /// # Panics
    ///
    /// Panics if `weight_t` is not rank 2 or the bias length disagrees
    /// with its output dimension.
    pub fn from_parts(weight_t: QTensor, bias: Vec<f32>, calibration: LayerCalibration) -> Self {
        assert_eq!(weight_t.shape().len(), 2, "QLinear weight must be [in, out]");
        let (inf, outf) = (weight_t.shape()[0], weight_t.shape()[1]);
        assert_eq!(bias.len(), outf, "QLinear bias length mismatch");
        let packed = PackedI8::from_cols(inf, outf, weight_t.data());
        let wsum = packed.row_sums();
        Self { in_features: inf, out_features: outf, weight_t, packed, wsum, bias, calibration }
    }

    /// The quantized, transposed weight matrix.
    pub fn weight_t(&self) -> &QTensor {
        &self.weight_t
    }

    /// The fp32 biases.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The calibration record this layer was quantized from.
    pub fn calibration(&self) -> &LayerCalibration {
        &self.calibration
    }
}

impl Layer for QLinear {
    fn name(&self) -> &'static str {
        "qlinear"
    }

    fn summary(&self) -> String {
        format!("{}->{} (int8)", self.in_features, self.out_features)
    }

    /// Quantized forward over `[n, in]` inputs.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            inference_only(self.name());
        }
        assert_eq!(input.rank(), 2, "QLinear expects [N, in]");
        let n = input.shape()[0];
        assert_eq!(input.shape()[1], self.in_features, "QLinear feature mismatch");
        let _s = span(Category::Kernel, "qlinear");
        let (inf, outf) = (self.in_features, self.out_features);
        let (act_scale, act_zero_point) = (self.calibration.scale, self.calibration.zero_point);
        let s = act_scale * self.weight_t.scale;
        let zx = act_zero_point as i32;
        let kp = self.packed.stride();
        let x = input.data();
        let mut out = Tensor::zeros(&[n, outf]);
        let macs = n * inf * outf;
        let _g = span_flops(Category::Kernel, "gemm_i8", 2 * macs as u64);
        // Each worker quantizes its own rows straight into the packed
        // layout, then runs one `[rows, out]` product against the
        // weights packed at construction.
        for_sample_chunks(out.data_mut(), outf, macs, |first, out_rows| {
            let rows = out_rows.len() / outf;
            let mut xq = vec![0i8; rows * inf];
            quantize_i8(&x[first * inf..(first + rows) * inf], act_scale, act_zero_point, &mut xq);
            let mut xp = vec![0i16; rows * kp];
            for r in 0..rows {
                pack_row_i8(&xq[r * inf..(r + 1) * inf], &mut xp[r * kp..(r + 1) * kp]);
            }
            let mut acc = vec![0i32; rows * outf];
            gemm_i8_packed(rows, outf, kp, &xp, self.packed.data(), &mut acc);
            requantize_rows(&acc, &self.wsum, &self.bias, s, zx, out_rows);
        });
        out
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        inference_only(self.name())
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], self.out_features]
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        LayerCost::dense(input_shape[0], self.in_features, self.out_features)
    }
}

/// Dequantizes i32 accumulators back to fp32:
/// `out = s·(acc − z_x·wsum[col]) + bias[col]`, where `acc` holds rows
/// of `wsum.len()` columns. The zero-point correction stays in exact
/// i32 arithmetic; only the final scale touches floats, with a fixed
/// per-element operation order.
fn requantize_rows(acc: &[i32], wsum: &[i32], bias: &[f32], s: f32, zx: i32, out: &mut [f32]) {
    let cols = wsum.len();
    for (acc_row, out_row) in acc.chunks(cols).zip(out.chunks_mut(cols)) {
        for c in 0..cols {
            out_row[c] = s * (acc_row[c] - zx * wsum[c]) as f32 + bias[c];
        }
    }
}

/// Writes one quantized image's (`[C, H, W]`) patch rows into the
/// packed layout: row `p` of `cols` (stride `kp`) is output position
/// `p`'s receptive field in `(channel, kernel row, kernel column)`
/// order — the flattening of the `[oc, C, kh, kw]` weights — widened
/// to `i16`. Padded taps take the activation `zero_point`, which is
/// exactly what fp32 zero padding quantizes to, so the lowering
/// commutes with quantization; lanes past `patch_len` are zero.
fn pack_patch_rows(
    geo: &Conv2dGeometry,
    zero_point: i8,
    input: &[i8],
    kp: usize,
    cols: &mut [i16],
) {
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (h, w, k) = (geo.in_h as isize, geo.in_w as isize, geo.kernel_w);
    let zp = zero_point as i16;
    debug_assert_eq!(input.len(), geo.in_channels * geo.in_h * geo.in_w);
    debug_assert_eq!(cols.len(), oh * ow * kp);
    for (p, row) in cols.chunks_exact_mut(kp).enumerate() {
        let (oy, ox) = (p / ow, p % ow);
        let x0 = (ox * geo.stride) as isize - geo.pad as isize;
        let mut taps = row.chunks_exact_mut(k);
        for c in 0..geo.in_channels {
            let plane = &input[c * geo.in_h * geo.in_w..(c + 1) * geo.in_h * geo.in_w];
            for kh in 0..geo.kernel_h {
                let dst = taps.next().expect("patch row holds every tap");
                let y = (oy * geo.stride + kh) as isize - geo.pad as isize;
                if y < 0 || y >= h {
                    dst.fill(zp);
                } else if x0 >= 0 && x0 + k as isize <= w {
                    let start = y as usize * geo.in_w + x0 as usize;
                    for (d, &v) in dst.iter_mut().zip(&plane[start..start + k]) {
                        *d = v as i16;
                    }
                } else {
                    for (kw, d) in dst.iter_mut().enumerate() {
                        let x = x0 + kw as isize;
                        *d = if x < 0 || x >= w {
                            zp
                        } else {
                            plane[y as usize * geo.in_w + x as usize] as i16
                        };
                    }
                }
            }
        }
        row[geo.patch_len()..].fill(0);
    }
}

/// A quantized 2-D convolution: symmetric int8 weights flattened to
/// `[out_channels, patch_len]` and packed once, affine int8 input
/// quantization, patch rows packed per sample with zero-point padding,
/// i32 accumulation and fp32 requantized output.
#[derive(Debug, Clone)]
pub struct QConv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Weights flattened to `[out_channels, patch_len]`, symmetric.
    weight: QTensor,
    /// `weight`'s rows, packed for [`gemm_i8_packed`].
    packed: PackedI8,
    /// Per-output-channel sums of `weight` (zero-point correction).
    wsum: Vec<i32>,
    bias: Vec<f32>,
    /// Calibration record; its `(scale, zero_point)` is the input
    /// (activation) quantizer.
    calibration: LayerCalibration,
}

impl QConv2d {
    /// Quantizes a trained fp32 layer, given its calibration record.
    pub fn from_fp32(layer: &Conv2d, calibration: LayerCalibration) -> Self {
        let (ic, oc, k) = (layer.in_channels(), layer.out_channels(), layer.kernel());
        let patch = ic * k * k;
        // The fp32 weight is [oc, ic, kh, kw]; flattening rows to
        // patch_len matches the (c, kh, kw) im2col row order exactly.
        let weight = QTensor::quantize_symmetric(&[oc, patch], layer.weight().data());
        Self::from_parts(
            weight,
            layer.bias().data().to_vec(),
            ic,
            k,
            layer.stride(),
            layer.pad(),
            calibration,
        )
    }

    /// Assembles the layer from already-quantized parts (the
    /// checkpoint-load path).
    ///
    /// # Panics
    ///
    /// Panics if the weight shape disagrees with the declared geometry
    /// or the bias length disagrees with the output channel count.
    pub fn from_parts(
        weight: QTensor,
        bias: Vec<f32>,
        in_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        calibration: LayerCalibration,
    ) -> Self {
        assert_eq!(weight.shape().len(), 2, "QConv2d weight must be [oc, patch]");
        let (oc, patch) = (weight.shape()[0], weight.shape()[1]);
        assert_eq!(patch, in_channels * kernel * kernel, "QConv2d patch length mismatch");
        assert_eq!(bias.len(), oc, "QConv2d bias length mismatch");
        let packed = PackedI8::from_rows(oc, patch, weight.data());
        let wsum = packed.row_sums();
        Self {
            in_channels,
            out_channels: oc,
            kernel,
            stride,
            pad,
            weight,
            packed,
            wsum,
            bias,
            calibration,
        }
    }

    /// The lowering geometry for one `[C, in_h, in_w]` input sample.
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

    /// The quantized `[out_channels, patch_len]` weight matrix.
    pub fn weight(&self) -> &QTensor {
        &self.weight
    }

    /// The fp32 biases.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The calibration record this layer was quantized from.
    pub fn calibration(&self) -> &LayerCalibration {
        &self.calibration
    }
}

impl Layer for QConv2d {
    fn name(&self) -> &'static str {
        "qconv2d"
    }

    fn summary(&self) -> String {
        format!(
            "{k}x{k}, {i}->{o} (stride {s}, pad {p}) (int8)",
            k = self.kernel,
            i = self.in_channels,
            o = self.out_channels,
            s = self.stride,
            p = self.pad
        )
    }

    /// Quantized forward over `[N, C, H, W]` inputs.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            inference_only(self.name());
        }
        assert_eq!(input.rank(), 4, "QConv2d expects [N, C, H, W]");
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, self.in_channels, "QConv2d channel mismatch");
        let geo = self.geometry(h, w);
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let plane = oh * ow;
        let patch = geo.patch_len();
        let sample_in = c * h * w;
        let sample_out = self.out_channels * plane;
        let _s = span(Category::Kernel, "qconv2d");

        // Per-tensor activation quantization: one parameter set for the
        // whole batch, so batching cannot change any sample's bits.
        let (act_scale, act_zero_point) = (self.calibration.scale, self.calibration.zero_point);
        let s = act_scale * self.weight.scale;
        let zx = act_zero_point as i32;
        let oc = self.out_channels;
        let kp = self.packed.stride();
        let x = input.data();
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        let macs = n * oc * patch * plane;
        let _g = span_flops(Category::Kernel, "gemm_i8", 2 * macs as u64);
        for_sample_chunks(out.data_mut(), sample_out, macs, |first, out_chunk| {
            let mut xq = vec![0i8; sample_in];
            let mut cols = vec![0i16; plane * kp];
            let mut acc = vec![0i32; sample_out];
            for (si, out_s) in out_chunk.chunks_exact_mut(sample_out).enumerate() {
                let src = &x[(first + si) * sample_in..(first + si + 1) * sample_in];
                quantize_i8(src, act_scale, act_zero_point, &mut xq);
                pack_patch_rows(&geo, act_zero_point, &xq, kp, &mut cols);
                acc.fill(0);
                gemm_i8_packed(oc, plane, kp, self.packed.data(), &cols, &mut acc);
                for o in 0..oc {
                    let corr = zx * self.wsum[o];
                    let b = self.bias[o];
                    let acc_plane = &acc[o * plane..(o + 1) * plane];
                    let out_plane = &mut out_s[o * plane..(o + 1) * plane];
                    for (y, &a) in out_plane.iter_mut().zip(acc_plane) {
                        *y = s * (a - corr) as f32 + b;
                    }
                }
            }
        });
        out
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        inference_only(self.name())
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

/// A quantized token-embedding table: symmetric int8 rows, dequantized
/// on lookup.
///
/// The layer's input is token ids, not activations, so there is no
/// input quantizer — the lookup maps each id to a table row exactly as
/// the fp32 layer does (round, clamp, non-finite → row 0) and
/// dequantizes the gathered row (`scale · q`, zero point 0). Output
/// bits depend only on the stored table, so batching and thread count
/// cannot change them. The calibration record keeps the observed id
/// range for the report only.
#[derive(Debug, Clone)]
pub struct QEmbedding {
    vocab: usize,
    dim: usize,
    /// The `[vocab, dim]` table, symmetric (`zero_point` 0).
    table: QTensor,
    calibration: LayerCalibration,
}

impl QEmbedding {
    /// Quantizes a trained fp32 embedding table.
    pub fn from_fp32(layer: &Embedding, calibration: LayerCalibration) -> Self {
        let table =
            QTensor::quantize_symmetric(&[layer.vocab(), layer.dim()], layer.table().data());
        Self::from_parts(table, calibration)
    }

    /// Assembles the layer from an already-quantized table (the
    /// checkpoint-load path — stored rows are reused bit-for-bit).
    ///
    /// # Panics
    ///
    /// Panics if `table` is not rank 2 or is empty.
    pub fn from_parts(table: QTensor, calibration: LayerCalibration) -> Self {
        assert_eq!(table.shape().len(), 2, "QEmbedding table must be [vocab, dim]");
        let (vocab, dim) = (table.shape()[0], table.shape()[1]);
        assert!(vocab > 0 && dim > 0, "QEmbedding table must be non-empty");
        Self { vocab, dim, table, calibration }
    }

    /// The quantized `[vocab, dim]` table.
    pub fn table(&self) -> &QTensor {
        &self.table
    }

    /// The calibration record this layer was quantized from.
    pub fn calibration(&self) -> &LayerCalibration {
        &self.calibration
    }
}

impl Layer for QEmbedding {
    fn name(&self) -> &'static str {
        "qembedding"
    }

    fn summary(&self) -> String {
        format!("embed {}x{} (int8)", self.vocab, self.dim)
    }

    /// Quantized lookup over `[N, 1, L, 1]` token ids, producing
    /// `[N, 1, L, dim]` dequantized activations.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            inference_only(self.name());
        }
        assert_eq!(input.rank(), 4, "QEmbedding expects [N, 1, L, 1] token ids");
        let (n, c, l, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!((c, w), (1, 1), "QEmbedding expects one token id per position");
        let _s = span(Category::Kernel, "qembedding");
        let dim = self.dim;
        let s = self.table.scale;
        let table = self.table.data();
        let mut out = Tensor::zeros(&[n, 1, l, dim]);
        for (pos, &v) in input.data().iter().enumerate() {
            let row = token_row(v, self.vocab);
            let src = &table[row * dim..(row + 1) * dim];
            let dst = &mut out.data_mut()[pos * dim..(pos + 1) * dim];
            for (d, &q) in dst.iter_mut().zip(src) {
                *d = s * q as f32;
            }
        }
        out
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        inference_only(self.name())
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], 1, input_shape[2], self.dim]
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        LayerCost::lookup(input_shape[0] * input_shape[2], self.vocab, self.dim)
    }
}

/// One quantized branch of a [`QConv1dBank`]: symmetric int8 weights in
/// the `[filters, width·embed_dim]` layout, packed once, plus the
/// zero-point correction sums.
#[derive(Debug, Clone)]
struct QConv1dBranch {
    width: usize,
    weight: QTensor,
    packed: PackedI8,
    wsum: Vec<i32>,
    bias: Vec<f32>,
}

impl QConv1dBranch {
    /// The 2-D lowering geometry over a length-`l` sequence of
    /// `embed_dim`-wide embeddings (the fp32 `Conv1d::geometry`).
    fn geometry(&self, l: usize, embed_dim: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: 1,
            in_h: l,
            in_w: embed_dim,
            kernel_h: self.width,
            kernel_w: embed_dim,
            stride: 1,
            pad: 0,
        }
    }
}

/// A quantized sentence-CNN feature bank: per-branch symmetric int8
/// conv weights on the packed kernel exactly like [`QConv2d`] (a
/// window's patch row is `width` consecutive embedding rows), one
/// shared affine input quantizer (all branches read the
/// same embedded sequence), fp32 requantization, then fp32
/// max-over-time pooling and branch-order concatenation to
/// `[N, widths.len() · filters]`.
///
/// Max-over-time keeps the fp32 layer's tie rule (strict `>`, earliest
/// time step wins), and the activation quantizer is per-tensor, so the
/// output is bit-identical across batch partitions and thread counts.
#[derive(Debug, Clone)]
pub struct QConv1dBank {
    filters: usize,
    embed_dim: usize,
    branches: Vec<QConv1dBranch>,
    /// Calibration record; its `(scale, zero_point)` is the shared
    /// input (activation) quantizer.
    calibration: LayerCalibration,
}

impl QConv1dBank {
    /// Quantizes a trained fp32 bank, given its calibration record.
    pub fn from_fp32(bank: &Conv1dBank, calibration: LayerCalibration) -> Self {
        let convs = bank.convs();
        let embed_dim = convs[0].embed_dim();
        let branches = convs
            .iter()
            .map(|c| {
                // The fp32 weight is [filters, 1, width, E]; flattening
                // rows to width·E matches the (c, kh, kw) im2col row
                // order with a single input channel.
                let patch = c.width() * embed_dim;
                let weight = QTensor::quantize_symmetric(&[c.filters(), patch], c.weight().data());
                (weight, c.bias().data().to_vec())
            })
            .collect::<Vec<_>>();
        Self::from_parts(bank.filters(), embed_dim, branches, calibration)
    }

    /// Assembles the bank from already-quantized branch parts
    /// `(weight, bias)` in branch order (the checkpoint-load path).
    ///
    /// # Panics
    ///
    /// Panics if any branch weight is not `[filters, width·embed_dim]`
    /// shaped or a bias length disagrees with `filters`.
    pub fn from_parts(
        filters: usize,
        embed_dim: usize,
        branches: Vec<(QTensor, Vec<f32>)>,
        calibration: LayerCalibration,
    ) -> Self {
        assert!(!branches.is_empty(), "QConv1dBank needs at least one branch");
        let branches = branches
            .into_iter()
            .map(|(weight, bias)| {
                assert_eq!(weight.shape().len(), 2, "branch weight must be [filters, patch]");
                let (f, patch) = (weight.shape()[0], weight.shape()[1]);
                assert_eq!(f, filters, "branch filter count mismatch");
                assert_eq!(patch % embed_dim, 0, "branch patch not a width multiple");
                assert_eq!(bias.len(), filters, "branch bias length mismatch");
                let packed = PackedI8::from_rows(f, patch, weight.data());
                let wsum = packed.row_sums();
                QConv1dBranch { width: patch / embed_dim, weight, packed, wsum, bias }
            })
            .collect();
        Self { filters, embed_dim, branches, calibration }
    }

    /// Filters per branch.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Embedding dimension the kernels span.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Branch window widths, in branch order.
    pub fn widths(&self) -> Vec<usize> {
        self.branches.iter().map(|b| b.width).collect()
    }

    /// Total pooled feature count (`widths.len() · filters`).
    pub fn out_features(&self) -> usize {
        self.branches.len() * self.filters
    }

    /// Per-branch `(weight, bias)` views, in branch order.
    pub fn branch_parts(&self) -> Vec<(&QTensor, &[f32])> {
        self.branches.iter().map(|b| (&b.weight, b.bias.as_slice())).collect()
    }

    /// The calibration record this layer was quantized from.
    pub fn calibration(&self) -> &LayerCalibration {
        &self.calibration
    }
}

impl Layer for QConv1dBank {
    fn name(&self) -> &'static str {
        "qconv1d_bank"
    }

    fn summary(&self) -> String {
        let widths: Vec<String> = self.widths().iter().map(usize::to_string).collect();
        format!("bank w[{}] x{} (int8)", widths.join(","), self.filters)
    }

    /// Quantized forward over `[N, 1, L, E]` embedded sequences,
    /// producing pooled `[N, widths.len() · filters]` features.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            inference_only(self.name());
        }
        assert_eq!(input.rank(), 4, "QConv1dBank expects [N, 1, L, E]");
        let (n, c, l, e) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!(c, 1, "QConv1dBank expects a single input channel");
        assert_eq!(e, self.embed_dim, "embedding-dimension mismatch");
        let _s = span(Category::Kernel, "qconv1d_bank");
        for branch in &self.branches {
            assert!(l >= branch.width, "sequence shorter than kernel window");
        }

        // One per-tensor quantization of the shared input: every branch
        // sees the same int8 sequence, and batching cannot change bits.
        let (act_scale, act_zero_point) = (self.calibration.scale, self.calibration.zero_point);
        let f = self.filters;
        let total = self.out_features();
        let sample_in = l * e;
        let zx = act_zero_point as i32;
        let x = input.data();
        let mut out = Tensor::zeros(&[n, total]);
        let macs: usize =
            self.branches.iter().map(|b| n * f * b.width * e * (l - b.width + 1)).sum();
        let _g = span_flops(Category::Kernel, "gemm_i8", 2 * macs as u64);
        for_sample_chunks(out.data_mut(), total, macs, |first, out_chunk| {
            let mut xq = vec![0i8; sample_in];
            let mut cols = Vec::new();
            let mut acc = Vec::new();
            for (si, out_row) in out_chunk.chunks_exact_mut(total).enumerate() {
                let src = &x[(first + si) * sample_in..(first + si + 1) * sample_in];
                quantize_i8(src, act_scale, act_zero_point, &mut xq);
                for (branch, out_b) in self.branches.iter().zip(out_row.chunks_exact_mut(f)) {
                    let plane = l - branch.width + 1;
                    let patch = branch.width * e;
                    let kp = branch.packed.stride();
                    // Window `t`'s patch row is embedding rows
                    // `t..t + width`: one contiguous run of the sample.
                    cols.resize(plane * kp, 0);
                    for (t, dst) in cols.chunks_exact_mut(kp).enumerate() {
                        pack_row_i8(&xq[t * e..t * e + patch], dst);
                    }
                    acc.clear();
                    acc.resize(f * plane, 0);
                    gemm_i8_packed(f, plane, kp, branch.packed.data(), &cols, &mut acc);
                    let s = act_scale * branch.weight.scale;
                    for (oc, o) in out_b.iter_mut().enumerate() {
                        let corr = zx * branch.wsum[oc];
                        let bias = branch.bias[oc];
                        let acc_plane = &acc[oc * plane..(oc + 1) * plane];
                        // Requantize then max-over-time with the fp32 tie
                        // rule (strict >, earliest wins). Requantization is
                        // monotone in the i32 accumulator, but ties must be
                        // broken on the fp32 values to match the fallback.
                        let mut best = s * (acc_plane[0] - corr) as f32 + bias;
                        for &a in &acc_plane[1..] {
                            let v = s * (a - corr) as f32 + bias;
                            if v > best {
                                best = v;
                            }
                        }
                        *o = best;
                    }
                }
            }
        });
        out
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        inference_only(self.name())
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], self.out_features()]
    }

    /// Per branch, the fp32 `Conv1d` plus `MaxOverTime` charges.
    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        let (n, l) = (input_shape[0], input_shape[2]);
        self.branches.iter().fold(LayerCost::default(), |total, branch| {
            let geo = branch.geometry(l, self.embed_dim);
            let pooled = MaxOverTime::new().cost(&[n, self.filters, geo.out_h(), 1]);
            total.merge(LayerCost::conv(n, &geo, self.filters)).merge(pooled)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_nn::Initializer;
    use dlbench_tensor::SeededRng;

    /// A calibration record carrying the activation quantizer
    /// `(scale, zero_point)`.
    fn cal(layer: &str, scale: f32, zero_point: i8) -> LayerCalibration {
        LayerCalibration {
            layer: layer.into(),
            observed_min: -1.5,
            observed_max: 2.0,
            range_lo: -1.2,
            range_hi: 1.9,
            scale,
            zero_point,
            clipped_fraction: 0.004,
        }
    }

    /// Calibrates the input quantizer directly from a batch's range.
    fn range_cal(x: &Tensor) -> LayerCalibration {
        let (lo, hi) = x.data().iter().fold((0.0f32, 0.0f32), |(l, h), &v| (l.min(v), h.max(v)));
        let scale = (hi - lo) / 255.0;
        cal("test", scale, (-128.0 - lo / scale).round() as i8)
    }

    #[test]
    fn qlinear_tracks_fp32_within_quantization_error() {
        let mut rng = SeededRng::new(21);
        let mut lin = Linear::new(16, 8, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[4, 16], 0.0, 1.0, &mut rng);
        let y32 = lin.forward(&x, false);
        let mut q = QLinear::from_fp32(&lin, range_cal(&x));
        let y8 = q.forward(&x, false);
        assert_eq!(y8.shape(), y32.shape());
        for (a, b) in y32.data().iter().zip(y8.data()) {
            assert!((a - b).abs() < 0.15, "fp32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn qconv_tracks_fp32_within_quantization_error_with_padding() {
        let mut rng = SeededRng::new(22);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
        let y32 = conv.forward(&x, false);
        let mut q = QConv2d::from_fp32(&conv, range_cal(&x));
        let y8 = q.forward(&x, false);
        assert_eq!(y8.shape(), y32.shape());
        for (a, b) in y32.data().iter().zip(y8.data()) {
            assert!((a - b).abs() < 0.2, "fp32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn qembedding_tracks_fp32_within_half_lsb_and_clamps_hostile_ids() {
        let mut rng = SeededRng::new(24);
        let mut emb = Embedding::new(12, 6, Initializer::Xavier, &mut rng);
        let mut q = QEmbedding::from_fp32(&emb, cal("embedding", 0.05, -128));
        let x = Tensor::from_vec(&[1, 1, 6, 1], vec![0.0, 5.0, 11.0, -3.0, 1e9, f32::NAN]).unwrap();
        let y32 = emb.forward(&x, false);
        let y8 = q.forward(&x, false);
        assert_eq!(y8.shape(), y32.shape());
        // A pure table lookup: the only error is weight rounding.
        for (a, b) in y32.data().iter().zip(y8.data()) {
            assert!((a - b).abs() <= q.table().scale * 0.5 + 1e-6, "fp32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn qconv1d_bank_tracks_fp32_and_is_batch_invariant() {
        let mut rng = SeededRng::new(25);
        let mut bank = Conv1dBank::new(3, &[2, 3], 4, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[3, 1, 9, 4], 0.0, 1.0, &mut rng);
        let y32 = bank.forward(&x, false);
        let mut q = QConv1dBank::from_fp32(&bank, range_cal(&x));
        assert_eq!(q.widths(), vec![2, 3]);
        assert_eq!(q.out_features(), 6);
        let y8 = q.forward(&x, false);
        assert_eq!(y8.shape(), y32.shape());
        for (a, b) in y32.data().iter().zip(y8.data()) {
            assert!((a - b).abs() < 0.25, "fp32 {a} vs int8 {b}");
        }
        // Batched forward is bitwise the per-sample forward.
        let sample = 9 * 4;
        for s in 0..3 {
            let xs =
                Tensor::from_vec(&[1, 1, 9, 4], x.data()[s * sample..(s + 1) * sample].to_vec())
                    .unwrap();
            let ys = q.forward(&xs, false);
            let row = &y8.data()[s * 6..(s + 1) * 6];
            assert!(row.iter().zip(ys.data()).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    #[test]
    fn shapes_and_costs_mirror_the_fp32_layers() {
        use dlbench_data::DatasetKind;
        use dlbench_frameworks::{arch_defaults, trainer, FrameworkKind, Scale};
        let mut rng = SeededRng::new(26);
        let check = |q: &dyn Layer, fp32: &dyn Layer, shape: &[usize]| {
            assert_eq!(
                q.output_shape(shape),
                fp32.output_shape(shape),
                "{} at {shape:?}",
                q.name()
            );
            assert_eq!(q.cost(shape), fp32.cost(shape), "{} at {shape:?}", q.name());
        };
        for fw in FrameworkKind::ALL {
            for ds in [DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::Imdb] {
                let dims = trainer::input_dims(ds, Scale::Paper.image_size(ds));
                for (geo, oc) in arch_defaults(fw, ds).conv_geometries(dims) {
                    let shape = [2, geo.in_channels, geo.in_h, geo.in_w];
                    if ds.is_text() {
                        let fp32 = Conv1dBank::new(
                            oc,
                            &[geo.kernel_h],
                            geo.kernel_w,
                            Initializer::Xavier,
                            &mut rng,
                        );
                        check(&QConv1dBank::from_fp32(&fp32, cal("bank", 0.1, 0)), &fp32, &shape);
                    } else {
                        let k = geo.kernel_h;
                        let fp32 = Conv2d::new(
                            geo.in_channels,
                            oc,
                            k,
                            geo.stride,
                            geo.pad,
                            Initializer::Xavier,
                            &mut rng,
                        );
                        check(&QConv2d::from_fp32(&fp32, cal("conv", 0.1, 0)), &fp32, &shape);
                    }
                }
            }
        }
        let lin = Linear::new(24, 10, Initializer::Xavier, &mut rng);
        check(&QLinear::from_fp32(&lin, cal("linear", 0.1, 0)), &lin, &[5, 24]);
        let emb = Embedding::new(50, 8, Initializer::Xavier, &mut rng);
        check(&QEmbedding::from_fp32(&emb, cal("embed", 0.1, 0)), &emb, &[5, 1, 16, 1]);
    }

    #[test]
    fn batched_forward_is_bitwise_single_sample_forward() {
        let mut rng = SeededRng::new(23);
        let conv = Conv2d::new(1, 2, 3, 1, 1, Initializer::Xavier, &mut rng);
        let mut q = QConv2d::from_fp32(&conv, cal("conv2d", 0.02, -5));
        let x = Tensor::randn(&[3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let batched = q.forward(&x, false);
        let sample = x.shape()[1] * x.shape()[2] * x.shape()[3];
        for s in 0..3 {
            let xs =
                Tensor::from_vec(&[1, 1, 8, 8], x.data()[s * sample..(s + 1) * sample].to_vec())
                    .unwrap();
            let ys = q.forward(&xs, false);
            let out_s = batched.len() / 3;
            let b = &batched.data()[s * out_s..(s + 1) * out_s];
            assert!(b.iter().zip(ys.data()).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }
}
