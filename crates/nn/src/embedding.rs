//! Token-embedding layer (the text workload's input transform).

use crate::init::Initializer;
use crate::layer::{Layer, ParamKind, ParamSet};
use crate::profile::LayerCost;
use dlbench_tensor::{SeededRng, Tensor};

/// Maps one stored token value to a table row.
///
/// Token ids travel through the suite as `f32` (datasets, serving
/// payloads and attacks all speak `Vec<f32>`), so the lookup has to
/// accept arbitrary floats without panicking: values round to the
/// nearest id and clamp into the table, and non-finite values map to
/// row 0. Validity is enforced where sequences are *constructed*
/// (`dlbench_data::Dataset::sequences`), not here in the kernel.
pub fn token_row(value: f32, vocab: usize) -> usize {
    if !value.is_finite() {
        return 0;
    }
    let id = value.round() as i64;
    id.clamp(0, vocab as i64 - 1) as usize
}

/// A token-embedding lookup over `[N, 1, L, 1]` token-id sequences,
/// producing `[N, 1, L, E]` dense activations (the shape the 1-D conv
/// bank consumes).
///
/// Forward is a pure row gather from the `[V, E]` table. Backward is a
/// scatter-add into the table: positions are bucketed by vocabulary row
/// and each row accumulates its contributions in ascending
/// `(sample, position)` order, so the reduction order — and therefore
/// every bit of the gradient — is independent of how the batch is
/// partitioned. Rows no token touched keep an exactly-zero gradient.
pub struct Embedding {
    vocab: usize,
    dim: usize,
    table: Tensor,
    grad_table: Tensor,
    cached_rows: Option<(Vec<usize>, Vec<usize>)>,
}

impl Embedding {
    /// Creates an embedding with `vocab` rows of `dim` features.
    pub fn new(vocab: usize, dim: usize, init: Initializer, rng: &mut SeededRng) -> Self {
        assert!(vocab > 0 && dim > 0, "embedding needs a non-empty table");
        let table = init.sample_weights(&[vocab, dim], dim, dim, rng);
        Self { vocab, dim, grad_table: Tensor::zeros(table.shape()), table, cached_rows: None }
    }

    /// Vocabulary size (table rows).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension (table columns).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable access to the `[V, E]` table.
    pub fn table(&self) -> &Tensor {
        &self.table
    }
}

impl Layer for Embedding {
    fn name(&self) -> &'static str {
        "embedding"
    }

    fn summary(&self) -> String {
        format!("embed {}x{}", self.vocab, self.dim)
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.rank(), 4, "Embedding expects [N, 1, L, 1] token ids");
        let (n, c, l, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        assert_eq!((c, w), (1, 1), "Embedding expects one token id per position");
        let rows: Vec<usize> = input.data().iter().map(|&v| token_row(v, self.vocab)).collect();
        let mut out = Tensor::zeros(&[n, 1, l, self.dim]);
        let dim = self.dim;
        let table = self.table.data();
        for (pos, &row) in rows.iter().enumerate() {
            out.data_mut()[pos * dim..(pos + 1) * dim]
                .copy_from_slice(&table[row * dim..(row + 1) * dim]);
        }
        self.cached_rows = Some((rows, vec![n, c, l, w]));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (rows, in_shape) = self.cached_rows.as_ref().expect("backward before forward");
        assert_eq!(
            grad_out.shape(),
            &[in_shape[0], 1, in_shape[2], self.dim],
            "grad shape mismatch"
        );
        // Bucket positions by table row. Positions enter each bucket in
        // ascending flattened (sample, position) order, so the per-row
        // accumulation below replays the same additions in the same
        // order no matter how callers batched or partitioned the data.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.vocab];
        for (pos, &row) in rows.iter().enumerate() {
            buckets[row].push(pos);
        }
        let dim = self.dim;
        let gout = grad_out.data();
        let gtab = self.grad_table.data_mut();
        for (row, positions) in buckets.iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            let dst = &mut gtab[row * dim..(row + 1) * dim];
            for &pos in positions {
                let src = &gout[pos * dim..(pos + 1) * dim];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
        // Token ids are discrete; the layer is constant in its input
        // almost everywhere, so the input gradient is exactly zero.
        Tensor::zeros(in_shape)
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        vec![ParamSet {
            kind: ParamKind::Weight,
            value: &mut self.table,
            grad: &mut self.grad_table,
        }]
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], 1, input_shape[2], self.dim]
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        LayerCost::lookup(input_shape[0] * input_shape[2], self.vocab, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_embedding() -> Embedding {
        let mut rng = SeededRng::new(1);
        let mut emb = Embedding::new(4, 3, Initializer::Xavier, &mut rng);
        emb.table = Tensor::arange(12).reshape(&[4, 3]).unwrap();
        emb
    }

    #[test]
    fn forward_gathers_rows() {
        let mut emb = toy_embedding();
        let x = Tensor::from_vec(&[1, 1, 3, 1], vec![2.0, 0.0, 3.0]).unwrap();
        let y = emb.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.data(), &[6.0, 7.0, 8.0, 0.0, 1.0, 2.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn lookup_never_panics_on_hostile_floats() {
        let mut emb = toy_embedding();
        let x = Tensor::from_vec(&[1, 1, 4, 1], vec![f32::NAN, f32::INFINITY, -7.0, 1e12]).unwrap();
        let y = emb.forward(&x, false);
        // Non-finite values pin to row 0; out-of-range ids clamp.
        assert_eq!(&y.data()[0..3], &[0.0, 1.0, 2.0]);
        assert_eq!(&y.data()[3..6], &[0.0, 1.0, 2.0]);
        assert_eq!(&y.data()[6..9], &[0.0, 1.0, 2.0]);
        assert_eq!(&y.data()[9..12], &[9.0, 10.0, 11.0]);
    }

    #[test]
    fn backward_scatter_adds_and_leaves_absent_rows_zero() {
        let mut emb = toy_embedding();
        let x = Tensor::from_vec(&[2, 1, 2, 1], vec![1.0, 1.0, 3.0, 1.0]).unwrap();
        emb.forward(&x, true);
        emb.zero_grads();
        let g = Tensor::ones(&[2, 1, 2, 3]);
        let gin = emb.backward(&g);
        assert_eq!(gin.shape(), x.shape());
        assert!(gin.data().iter().all(|&v| v == 0.0));
        let gt = emb.grad_table.data();
        // Row 1 hit three times, row 3 once, rows 0/2 never.
        assert_eq!(&gt[0..3], &[0.0, 0.0, 0.0]);
        assert_eq!(&gt[3..6], &[3.0, 3.0, 3.0]);
        assert_eq!(&gt[6..9], &[0.0, 0.0, 0.0]);
        assert_eq!(&gt[9..12], &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn scatter_add_is_partition_invariant() {
        // Backward over the full batch must equal the sum of backwards
        // over any row partition, bit for bit.
        let mut rng = SeededRng::new(3);
        let mut emb = Embedding::new(6, 4, Initializer::Xavier, &mut rng);
        let tokens: Vec<f32> = (0..4 * 5).map(|i| ((i * 7) % 6) as f32).collect();
        let x = Tensor::from_vec(&[4, 1, 5, 1], tokens.clone()).unwrap();
        let g = Tensor::randn(&[4, 1, 5, 4], 0.0, 1.0, &mut rng);

        emb.forward(&x, true);
        emb.zero_grads();
        emb.backward(&g);
        let whole = emb.grad_table.clone();

        emb.zero_grads();
        for s in 0..4 {
            let xs = Tensor::from_vec(&[1, 1, 5, 1], tokens[s * 5..(s + 1) * 5].to_vec()).unwrap();
            let gs =
                Tensor::from_vec(&[1, 1, 5, 4], g.data()[s * 20..(s + 1) * 20].to_vec()).unwrap();
            emb.forward(&xs, true);
            emb.backward(&gs);
        }
        assert_eq!(emb.grad_table, whole);
    }

    #[test]
    fn token_row_mapping() {
        assert_eq!(token_row(2.4, 10), 2);
        assert_eq!(token_row(2.6, 10), 3);
        assert_eq!(token_row(-1.0, 10), 0);
        assert_eq!(token_row(99.0, 10), 9);
        assert_eq!(token_row(f32::NAN, 10), 0);
        assert_eq!(token_row(f32::NEG_INFINITY, 10), 0);
    }
}
