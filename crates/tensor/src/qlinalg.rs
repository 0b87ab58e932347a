//! Int8 quantization kernels: affine quantize/dequantize and one
//! packed, i32-accumulate int8 dot-product kernel.
//!
//! These are the numeric substrate of `dlbench-quant`'s post-training
//! quantization path.
//!
//! **Packed layout.** Both GEMM operands are stored as *rows of the
//! reduction*: a [`PackedI8`] holds `rows` rows of `k` int8 values
//! widened to `i16`, each zero-padded to a multiple of [`K_ALIGN`]
//! lanes. [`gemm_i8_packed`] then computes `c += a·bᵀ` with
//! one register-tiled micro-kernel: every inner loop is a unit-stride
//! `s += x as i32 * y as i32` reduction over two `i16` rows. The
//! baseline x86-64 target (SSE2) has no 32-bit vector multiply, but it
//! has `pmaddwd`, a 16×16→32 multiply-add, and LLVM lowers this
//! i16-product reduction to it — no `unsafe`, no intrinsics, no target
//! flags — where a loop over i8 values widened straight to i32 lowers
//! to emulated `pmuludq` sequences. Padding lanes multiply zero by
//! zero and add nothing.
//!
//! **Determinism.** i32 addition is exact and associative (no operand
//! pair here can overflow: `|x·y| ≤ 2¹⁴` and the suite's reductions are
//! at most `k = 4096` deep), so *any* tiling, k-blocking, lane split or
//! row partition produces the bits of the naive triple loop. That is
//! what makes the vectorized reduction order bit-safe, and it is why
//! quantized inference is bit-identical across thread counts and batch
//! sizes structurally rather than by contract. Debug builds
//! additionally catch overflow through Rust's checked arithmetic.
//!
//! Quantization is affine: a real value `x` is represented as
//! `q = round(x / scale) + zero_point`, clamped to the i8 range, so
//! `x ≈ scale · (q − zero_point)`. Symmetric (weight) quantization is
//! the `zero_point = 0` special case.

use crate::par;
use dlbench_trace::{span_flops, Category};

/// Reduction lengths are zero-padded to a multiple of this many lanes,
/// so every packed row is whole SIMD vectors and the kernel has no
/// scalar tail.
pub const K_ALIGN: usize = 16;

/// k-blocking depth in `i16` lanes: each block of a packed row is
/// 1 KiB, so a tile's row blocks stay in L1 while the other operand's
/// rows stream past.
const KC: usize = 512;

/// 1.5·2²³: adding it to any `|v| < 2²²` lands in the binade where
/// floats are spaced exactly 1 apart, so the sum is `v` rounded to the
/// nearest integer (ties to even), and that integer is the difference
/// between the sum's bit pattern and this constant's. The difference
/// `v − (sum − ROUND_MAGIC)` is exact, which is how ties are detected.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// The packed row stride for reduction length `k`: `k` rounded up to a
/// multiple of [`K_ALIGN`].
fn padded_k(k: usize) -> usize {
    k.div_ceil(K_ALIGN) * K_ALIGN
}

/// FLOPs charged for an `m×k @ k×n` int8 product — same 2-ops-per-MAC
/// convention as the fp32 GEMM, so profile FLOP/s joins are comparable
/// across dtypes. Padding lanes are not charged.
fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// Quantizes `src` into `dst` as `round(x / scale) + zero_point`,
/// saturating to the i8 range.
///
/// Rounding is half away from zero (`f32::round`'s rule) — a fixed
/// per-element rule, so the output is bit-identical regardless of
/// batching or threading. It is computed without a `roundf` call or a
/// saturating float-to-int conversion, so the loop vectorizes: the
/// scaled value is clamped to `±256` (beyond which every result
/// saturates anyway), rounded to the nearest integer by the
/// [`ROUND_MAGIC`] addition (ties to even), read back out of the
/// float's bits, and exact ties are then moved away from zero. `NaN`
/// maps to 0 and `±∞` saturates.
///
/// # Panics
///
/// Panics if the slices disagree in length or `scale` is not a finite
/// positive number.
pub fn quantize_i8(src: &[f32], scale: f32, zero_point: i8, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_i8 length mismatch");
    assert!(scale.is_finite() && scale > 0.0, "quantize_i8 scale must be finite and positive");
    let _span = span_flops(Category::Kernel, "quantize_i8", 2 * src.len() as u64);
    let inv = 1.0 / scale;
    let zp = zero_point as i32;
    let magic_bits = ROUND_MAGIC.to_bits() as i32;
    for (d, &x) in dst.iter_mut().zip(src) {
        let v = (x * inv).clamp(-256.0, 256.0);
        let m = v + ROUND_MAGIC;
        let frac = v - (m - ROUND_MAGIC);
        let r = m.to_bits() as i32 - magic_bits + i32::from(frac == 0.5 && v > 0.0)
            - i32::from(frac == -0.5 && v < 0.0);
        let q = (r + zp).clamp(-128, 127) as i8;
        *d = if v.is_nan() { 0 } else { q };
    }
}

/// Dequantizes `src` into `dst` as `scale · (q − zero_point)`.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn dequantize_i8(src: &[i8], scale: f32, zero_point: i8, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "dequantize_i8 length mismatch");
    let _span = span_flops(Category::Kernel, "dequantize_i8", 2 * src.len() as u64);
    let zp = zero_point as i32;
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = (q as i32 - zp) as f32 * scale;
    }
}

/// Widens one int8 row into a packed `i16` row, zero-filling the
/// padding lanes past `src.len()`.
///
/// # Panics
///
/// Panics if `dst` is shorter than `src`.
pub fn pack_row_i8(src: &[i8], dst: &mut [i16]) {
    let (body, pad) = dst.split_at_mut(src.len());
    for (d, &v) in body.iter_mut().zip(src) {
        *d = v as i16;
    }
    pad.fill(0);
}

/// An int8 operand in the [`gemm_i8_packed`] layout: `rows` rows of
/// `k` values widened to `i16`, each zero-padded to the next multiple
/// of [`K_ALIGN`] lanes (the [`stride`](Self::stride)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedI8 {
    rows: usize,
    k: usize,
    data: Vec<i16>,
}

impl PackedI8 {
    /// Packs a row-major `[rows, k]` matrix: row `r` of the packing is
    /// row `r` of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != rows·k`.
    pub fn from_rows(rows: usize, k: usize, src: &[i8]) -> Self {
        assert_eq!(src.len(), rows * k, "PackedI8::from_rows length mismatch");
        let kp = padded_k(k);
        let mut data = vec![0i16; rows * kp];
        if k > 0 {
            for (row, dst) in src.chunks_exact(k).zip(data.chunks_exact_mut(kp)) {
                pack_row_i8(row, dst);
            }
        }
        Self { rows, k, data }
    }

    /// Packs the transpose of a row-major `[k, cols]` matrix: row `j`
    /// of the packing is column `j` of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != k·cols`.
    pub fn from_cols(k: usize, cols: usize, src: &[i8]) -> Self {
        assert_eq!(src.len(), k * cols, "PackedI8::from_cols length mismatch");
        let kp = padded_k(k);
        let mut data = vec![0i16; cols * kp];
        for (kk, row) in src.chunks_exact(cols.max(1)).enumerate().take(k) {
            for (j, &v) in row.iter().enumerate() {
                data[j * kp + kk] = v as i16;
            }
        }
        Self { rows: cols, k, data }
    }

    /// Row stride in lanes: `k` rounded up to a multiple of [`K_ALIGN`].
    pub fn stride(&self) -> usize {
        padded_k(self.k)
    }

    /// The packed lanes, `rows × stride` row-major.
    pub fn data(&self) -> &[i16] {
        &self.data
    }

    /// Sum of each row's values (padding adds nothing) — the constant
    /// of the affine zero-point correction `acc − z_x·Σ w`.
    pub fn row_sums(&self) -> Vec<i32> {
        let kp = self.stride();
        if kp == 0 {
            return vec![0; self.rows];
        }
        self.data.chunks_exact(kp).map(|row| row.iter().map(|&v| v as i32).sum()).collect()
    }
}

/// `c += a·bᵀ` over packed int8 operands with i32 accumulation: `a` is
/// `m` packed rows and `b` is `n` packed rows, both of stride `kp` (a
/// multiple of [`K_ALIGN`]); `c` is `m×n` row-major, so
/// `c[i, j] += Σ_k a[i, k]·b[j, k]`.
///
/// Serial: callers parallelize over disjoint destination rows (see
/// [`gemm_i8`]) or over samples. The result is bitwise the naive
/// triple loop at any tiling (see module docs).
///
/// # Panics
///
/// Panics if `kp` is not a multiple of [`K_ALIGN`] or the slice
/// lengths disagree with `m`, `n`, `kp`.
pub fn gemm_i8_packed(m: usize, n: usize, kp: usize, a: &[i16], b: &[i16], c: &mut [i32]) {
    assert_eq!(kp % K_ALIGN, 0, "gemm_i8_packed stride must be a multiple of K_ALIGN");
    assert_eq!(a.len(), m * kp, "gemm_i8_packed lhs length mismatch");
    assert_eq!(b.len(), n * kp, "gemm_i8_packed rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_i8_packed dst length mismatch");
    for k0 in (0..kp).step_by(KC) {
        let k1 = (k0 + KC).min(kp);
        let mut i = 0;
        while i + MR <= m {
            row_block::<MR>(i, n, kp, k0..k1, a, b, c);
            i += MR;
        }
        match m - i {
            3 => row_block::<3>(i, n, kp, k0..k1, a, b, c),
            2 => row_block::<2>(i, n, kp, k0..k1, a, b, c),
            1 => row_block::<1>(i, n, kp, k0..k1, a, b, c),
            _ => {}
        }
    }
}

/// Register tile height: `a` rows per tile.
const MR: usize = 4;
/// Register tile width: `b` rows per tile.
const NR: usize = 2;

/// Accumulates lanes `ks` of the `R` `a` rows from `i` against every
/// `b` row into `c`, `NR` `b` rows per tile plus a one-row edge.
fn row_block<const R: usize>(
    i: usize,
    n: usize,
    kp: usize,
    ks: std::ops::Range<usize>,
    a: &[i16],
    b: &[i16],
    c: &mut [i32],
) {
    fn lanes<'x>(x: &'x [i16], r: usize, kp: usize, ks: &std::ops::Range<usize>) -> &'x [i16] {
        &x[r * kp + ks.start..r * kp + ks.end]
    }
    let rows: [&[i16]; R] = std::array::from_fn(|t| lanes(a, i + t, kp, &ks));
    let c = &mut c[i * n..(i + R) * n];
    let mut j = 0;
    while j + NR <= n {
        let s = tile::<R, NR>(rows, std::array::from_fn(|u| lanes(b, j + u, kp, &ks)));
        for (t, s_row) in s.iter().enumerate() {
            for (u, &v) in s_row.iter().enumerate() {
                c[t * n + j + u] += v;
            }
        }
        j += NR;
    }
    if j < n {
        let s = tile::<R, 1>(rows, [lanes(b, j, kp, &ks)]);
        for (t, s_row) in s.iter().enumerate() {
            c[t * n + j] += s_row[0];
        }
    }
}

/// The `R×C` register tile: every `a` row dotted with every `b` row,
/// each a plain `s += x as i32 * y as i32` reduction over equal-length
/// i16 rows.
#[inline(always)]
fn tile<const R: usize, const C: usize>(a: [&[i16]; R], b: [&[i16]; C]) -> [[i32; C]; R] {
    let len = a[0].len();
    let (a, b) = (a.map(|x| &x[..len]), b.map(|y| &y[..len]));
    let mut s = [[0i32; C]; R];
    for k in 0..len {
        for (s_row, x) in s.iter_mut().zip(&a) {
            for (acc, y) in s_row.iter_mut().zip(&b) {
                *acc += x[k] as i32 * y[k] as i32;
            }
        }
    }
    s
}

/// `c += a @ b` over int8 operands with i32 accumulation: `a` is
/// `m×k` row-major, `b` is `k×n` row-major, `c` is `m×n` row-major.
///
/// A thin wrapper over [`gemm_i8_packed`]: `a` packs as rows, `b` as
/// columns, then disjoint bands of destination rows run in parallel
/// (see [`crate::par`]). Integer accumulation is exact, so the result
/// is bit-identical to the naive triple loop across thread counts and
/// any partition of the output rows.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "gemm_i8 lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_i8 rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm_i8 dst length mismatch");
    let _span = span_flops(Category::Kernel, "gemm_i8", gemm_flops(m, k, n));
    if m == 0 || n == 0 {
        return;
    }
    let ap = PackedI8::from_rows(m, k, a);
    let bp = PackedI8::from_cols(k, n, b);
    let kp = ap.stride();
    let band = |first: usize, c_band: &mut [i32]| {
        let rows = c_band.len() / n;
        gemm_i8_packed(rows, n, kp, &ap.data()[first * kp..(first + rows) * kp], bp.data(), c_band);
    };
    if m.saturating_mul(k).saturating_mul(n) < par::PAR_MIN_WORK {
        band(0, c);
    } else {
        par::par_row_chunks_mut(c, n, band);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn naive(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += a[i * k + kk] as i32 * b[kk * n + j] as i32;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn random_i8(len: usize, rng: &mut SeededRng) -> Vec<i8> {
        (0..len).map(|_| (rng.index(256) as i64 - 128) as i8).collect()
    }

    #[test]
    fn gemm_i8_matches_naive() {
        let mut rng = SeededRng::new(11);
        let (m, k, n) = (13, 29, 17);
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        let mut c = vec![0i32; m * n];
        gemm_i8(m, k, n, &a, &b, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &b));
    }

    #[test]
    fn gemm_i8_accumulates_into_destination() {
        let mut rng = SeededRng::new(12);
        let (m, k, n) = (3, 5, 4);
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        let mut c = vec![7i32; m * n];
        gemm_i8(m, k, n, &a, &b, &mut c);
        let expect: Vec<i32> = naive(m, k, n, &a, &b).iter().map(|v| v + 7).collect();
        assert_eq!(c, expect);
    }

    #[test]
    fn gemm_i8_saturating_extremes_do_not_overflow() {
        // Worst case the suite can see: every product is 127·(-128).
        let (m, k, n) = (2, 4096, 3);
        let a = vec![127i8; m * k];
        let b = vec![-128i8; k * n];
        let mut c = vec![0i32; m * n];
        gemm_i8(m, k, n, &a, &b, &mut c);
        assert!(c.iter().all(|&v| v == 4096 * 127 * -128));
    }

    #[test]
    fn gemm_i8_parallel_is_identical_to_serial() {
        let _guard = crate::par::THREAD_CONFIG.lock().unwrap();
        let mut rng = SeededRng::new(13);
        let (m, k, n) = (96, 64, 96); // above PAR_MIN_WORK
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        let mut serial = vec![0i32; m * n];
        crate::par::run_as_worker(|| gemm_i8(m, k, n, &a, &b, &mut serial));
        for workers in [2, 3, 5] {
            crate::par::set_threads(workers);
            let mut c = vec![0i32; m * n];
            gemm_i8(m, k, n, &a, &b, &mut c);
            crate::par::set_threads(1);
            assert_eq!(c, serial, "gemm_i8 diverged at {workers} workers");
        }
    }

    #[test]
    fn quantize_roundtrip_stays_within_half_lsb() {
        let mut rng = SeededRng::new(14);
        let src: Vec<f32> = (0..512).map(|_| rng.normal(0.0, 2.0)).collect();
        let max_abs = src.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = max_abs / 127.0;
        let mut q = vec![0i8; src.len()];
        quantize_i8(&src, scale, 0, &mut q);
        let mut back = vec![0.0f32; src.len()];
        dequantize_i8(&q, scale, 0, &mut back);
        for (x, y) in src.iter().zip(&back) {
            assert!((x - y).abs() <= scale * 0.5 + 1e-6, "{x} -> {y} (scale {scale})");
        }
    }

    #[test]
    fn quantize_saturates_out_of_range_values() {
        let src = [1e9f32, -1e9, 0.0, f32::NAN];
        let mut q = [0i8; 4];
        quantize_i8(&src, 0.1, 3, &mut q);
        assert_eq!(q[0], 127);
        assert_eq!(q[1], -128);
        assert_eq!(q[2], 3); // 0.0 maps exactly to the zero point
        assert_eq!(q[3], 0); // NaN maps to 0, not to the zero point
    }

    /// The original per-element expression, with `f32::round`.
    fn quantize_reference(x: f32, inv: f32, zero_point: i8) -> i8 {
        ((x * inv).round() + zero_point as f32).clamp(-128.0, 127.0) as i8
    }

    /// Checks `quantize_i8` against [`quantize_reference`] on every
    /// value `values` yields, in slices of up to 1 Mi elements.
    fn assert_matches_reference(scale: f32, zero_point: i8, values: impl Iterator<Item = f32>) {
        let inv = 1.0 / scale;
        let mut values = values.peekable();
        let mut src = Vec::with_capacity(1 << 20);
        let mut got = vec![0i8; 1 << 20];
        while values.peek().is_some() {
            src.clear();
            src.extend(values.by_ref().take(1 << 20));
            let got = &mut got[..src.len()];
            quantize_i8(&src, scale, zero_point, got);
            let want: Vec<i8> =
                src.iter().map(|&x| quantize_reference(x, inv, zero_point)).collect();
            if *got != *want {
                let i = (0..src.len()).find(|&i| got[i] != want[i]).unwrap();
                let x = src[i];
                panic!(
                    "x = {x:e} ({:#010x}), scale {scale}, zp {zero_point}: {} != {}",
                    x.to_bits(),
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn quantize_rounding_matches_f32_round_bit_for_bit() {
        // Every float of magnitude in [1/4, 512) — the band where
        // rounding and saturation decide the result — of both signs at
        // scale 1 (so the scaled value is the float itself); every 7th
        // float of the matching band at zero points on both saturation
        // edges and at scales where `x · (1/scale)` itself rounds.
        let band = |scale: f32, step: usize| {
            ((scale / 4.0).to_bits()..(scale * 512.0).to_bits())
                .step_by(step)
                .map(f32::from_bits)
                .flat_map(|x| [x, -x])
        };
        assert_matches_reference(1.0, 0, band(1.0, 1));
        for (scale, zero_point) in [(1.0f32, 127i8), (1.0, -128), (0.05, -12), (3.7, 55)] {
            assert_matches_reference(scale, zero_point, band(scale, 7));
        }
        // Exact halves (exactly representable after scaling by a power
        // of two), ±0, subnormals from smallest to largest, ±∞ and NaNs of both signs with
        // payloads.
        for zero_point in [0i8, -37, 55, 127, -128] {
            let halves = (-600..600).map(|k| (k as f32 + 0.5) * 0.25);
            assert_matches_reference(0.25, zero_point, halves);
            let specials = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN];
            assert_matches_reference(0.05, zero_point, specials.into_iter());
            let subnormals = (1u32..1 << 23)
                .step_by(61)
                .chain([(1 << 23) - 1])
                .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)]);
            assert_matches_reference(0.05, zero_point, subnormals);
            let nans = [0x7fc0_0000u32, 0xffc0_0000, 0x7f80_0001, 0x7fff_ffff, 0xffa5_5a5a];
            let mut q = [1i8; 5];
            quantize_i8(&nans.map(f32::from_bits), 0.05, zero_point, &mut q);
            assert_eq!(q, [0; 5], "NaN maps to 0 at zp {zero_point}");
        }
    }

    #[test]
    fn affine_zero_point_represents_zero_exactly() {
        for zp in [-37i8, 0, 55] {
            let src = [0.0f32; 8];
            let mut q = [0i8; 8];
            quantize_i8(&src, 0.02, zp, &mut q);
            assert!(q.iter().all(|&v| v == zp));
            let mut back = [1.0f32; 8];
            dequantize_i8(&q, 0.02, zp, &mut back);
            assert!(back.iter().all(|&v| v == 0.0));
        }
    }
}
