//! The [`Layer`] trait and parameter handles.

use crate::profile::LayerCost;
use dlbench_tensor::Tensor;
use std::any::Any;

/// Upcasts a layer (or any `'static` value) to [`std::any::Any`], so
/// trait objects can be downcast back to their concrete type. The
/// post-training quantization pass in `dlbench-quant` uses this to
/// recognize quantizable layers inside a `Box<dyn Layer>` stack and
/// swap in their int8 counterparts (themselves [`Layer`]s), and to find
/// those int8 layers again when reading a quantized network. The
/// blanket impl means layer implementors never write a line for it.
pub trait AsAny {
    /// Borrows the value as [`Any`] (for `is::<T>()` probes).
    fn as_any(&self) -> &dyn Any;

    /// Consumes the box, yielding an [`Any`] box that can be
    /// `downcast::<T>()` into the concrete layer.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Whether a parameter tensor is a weight or a bias.
///
/// Optimizers need the distinction because weight decay is conventionally
/// applied to weights only (this matters for reproducing the paper's
/// regularization comparison: Caffe's weight decay vs TensorFlow's
/// dropout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Multiplicative weights (kernels, matrices).
    Weight,
    /// Additive biases.
    Bias,
}

/// A mutable view over one parameter tensor and its gradient.
pub struct ParamSet<'a> {
    /// Weight or bias.
    pub kind: ParamKind,
    /// The parameter values.
    pub value: &'a mut Tensor,
    /// The accumulated gradient (same shape as `value`).
    pub grad: &'a mut Tensor,
}

/// A differentiable network layer.
///
/// Layers own their parameters, gradients, and whatever activation caches
/// the backward pass needs. Calling [`Layer::backward`] is only valid
/// after a [`Layer::forward`] on the same layer; backward passes are
/// read-only with respect to the caches, so several backward passes may
/// follow a single forward (the Jacobian computation in the adversarial
/// crate relies on this).
///
/// Layers are `Send` so whole networks can move across threads — the
/// benchmark runner trains independent cells on worker threads (see
/// `BenchmarkRunner::prefetch` in `dlbench-core`). Layers are plain
/// owned data (tensors, caches), so this costs implementors nothing.
/// The [`AsAny`] supertrait (satisfied automatically via its blanket
/// impl) lets the quantization pass downcast boxed layers.
pub trait Layer: Send + AsAny {
    /// Short human-readable layer name (e.g. `"conv2d"`).
    fn name(&self) -> &'static str;

    /// One-line description used when rendering architecture tables.
    fn summary(&self) -> String {
        self.name().to_string()
    }

    /// Runs the layer forward. `train` selects training-mode behaviour
    /// (dropout masks, etc.).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. this layer's output) back,
    /// accumulating parameter gradients and returning the gradient
    /// w.r.t. the layer's input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable handles over parameters and their gradients. Empty for
    /// parameter-free layers.
    fn params(&mut self) -> Vec<ParamSet<'_>> {
        Vec::new()
    }

    /// Output shape for a given input shape (both include the batch
    /// dimension).
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;

    /// Cost of one forward+backward pass over a batch with the given
    /// input shape.
    fn cost(&self, input_shape: &[usize]) -> LayerCost;

    /// Zeroes the accumulated parameter gradients.
    fn zero_grads(&mut self) {
        for p in self.params() {
            p.grad.fill(0.0);
        }
    }

    /// Re-seeds the layer's stochastic state (dropout masks). A no-op
    /// for deterministic layers. Distributed replicas call this before
    /// every shard forward so a layer's randomness depends only on
    /// *(iteration, shard)* — never on which worker ran the shard or
    /// how many forwards that worker has executed before.
    fn reseed(&mut self, _seed: u64) {}
}
