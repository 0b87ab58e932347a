//! Fully-connected (inner-product) layer.

use crate::init::Initializer;
use crate::layer::{Layer, ParamKind, ParamSet};
use crate::profile::LayerCost;
use dlbench_tensor::{gemm, gemm_a_bt, gemm_at_b, SeededRng, Tensor};

/// A fully-connected layer `y = x W^T + b` over `[N, in]` inputs.
///
/// Weights are stored `[out, in]` (Caffe/Torch convention).
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a fully-connected layer with the given fan sizes and
    /// initializer.
    pub fn new(
        in_features: usize,
        out_features: usize,
        init: Initializer,
        rng: &mut SeededRng,
    ) -> Self {
        let weight =
            init.sample_weights(&[out_features, in_features], in_features, out_features, rng);
        let bias = init.sample_bias(&[out_features], in_features, rng);
        Self {
            in_features,
            out_features,
            grad_weight: Tensor::zeros(weight.shape()),
            grad_bias: Tensor::zeros(bias.shape()),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight matrix (`[out, in]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable access to the per-output biases.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn summary(&self) -> String {
        format!("{}->{}", self.in_features, self.out_features)
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.rank(), 2, "Linear expects [N, features]");
        let n = input.shape()[0];
        assert_eq!(input.shape()[1], self.in_features, "feature mismatch");
        let mut out = Tensor::zeros(&[n, self.out_features]);
        // y = x @ W^T + b
        for i in 0..n {
            out.data_mut()[i * self.out_features..(i + 1) * self.out_features]
                .copy_from_slice(self.bias.data());
        }
        gemm_a_bt(
            n,
            self.in_features,
            self.out_features,
            input.data(),
            self.weight.data(),
            out.data_mut(),
        );
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let n = input.shape()[0];
        assert_eq!(grad_out.shape(), &[n, self.out_features], "grad shape mismatch");
        // gW += gY^T @ x  (out x in)
        gemm_at_b(
            self.out_features,
            n,
            self.in_features,
            grad_out.data(),
            input.data(),
            self.grad_weight.data_mut(),
        );
        // gb += column sums of gY
        for i in 0..n {
            let row = &grad_out.data()[i * self.out_features..(i + 1) * self.out_features];
            for (b, g) in self.grad_bias.data_mut().iter_mut().zip(row) {
                *b += g;
            }
        }
        // gX = gY @ W  (n x in)
        let mut grad_in = Tensor::zeros(&[n, self.in_features]);
        gemm(
            n,
            self.out_features,
            self.in_features,
            grad_out.data(),
            self.weight.data(),
            grad_in.data_mut(),
        );
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
        vec![input_shape[0], self.out_features]
    }

    fn cost(&self, input_shape: &[usize]) -> LayerCost {
        LayerCost::dense(input_shape[0], self.in_features, self.out_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut rng = SeededRng::new(1);
        let mut lin = Linear::new(2, 2, Initializer::Xavier, &mut rng);
        lin.weight = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        lin.bias = Tensor::from_vec(&[2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]).unwrap();
        let y = lin.forward(&x, true);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = SeededRng::new(2);
        let mut lin = Linear::new(4, 3, Initializer::Xavier, &mut rng);
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut rng);
        let y = lin.forward(&x, true);
        let r = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
        lin.zero_grads();
        let gx = lin.backward(&r);

        let eps = 1e-2f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = lin.forward(&xp, true).mul(&r).unwrap().sum();
            let lm = lin.forward(&xm, true).mul(&r).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 1e-2, "gx[{idx}]: {num} vs {}", gx.data()[idx]);
        }

        // Re-run forward on original input, then weight finite differences.
        lin.forward(&x, true);
        lin.zero_grads();
        lin.backward(&r);
        let gw = lin.grad_weight.clone();
        for &idx in &[0usize, 5, 11] {
            let orig = lin.weight.data()[idx];
            lin.weight.data_mut()[idx] = orig + eps;
            let lp = lin.forward(&x, true).mul(&r).unwrap().sum();
            lin.weight.data_mut()[idx] = orig - eps;
            let lm = lin.forward(&x, true).mul(&r).unwrap().sum();
            lin.weight.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gw.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let mut rng = SeededRng::new(3);
        let mut lin = Linear::new(2, 2, Initializer::Xavier, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        lin.forward(&x, true);
        lin.zero_grads();
        let g = Tensor::ones(&[1, 2]);
        lin.backward(&g);
        let once = lin.grad_weight.clone();
        lin.backward(&g);
        let twice = lin.grad_weight.clone();
        assert_eq!(twice, once.scale(2.0));
    }

    #[test]
    fn cost_counts_macs() {
        let mut rng = SeededRng::new(4);
        let lin = Linear::new(10, 5, Initializer::Xavier, &mut rng);
        let c = lin.cost(&[3, 10]);
        assert_eq!(c.fwd_flops, 2 * 3 * 10 * 5);
        assert_eq!(c.params, 55);
    }
}
