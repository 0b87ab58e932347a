//! Per-layer cost accounting.
//!
//! Every layer reports how much arithmetic, parameter traffic and
//! activation traffic one forward (and backward) pass over a given batch
//! costs, plus how many device kernels it launches. The simulated device
//! model in `dlbench-simtime` converts these into seconds; the split into
//! FLOPs vs kernel launches is what lets the model reproduce the paper's
//! framework-overhead effects (e.g. Torch's eager per-op execution at
//! batch size 1–10 being launch-bound rather than compute-bound).

use dlbench_tensor::Conv2dGeometry;

/// Cost of running one layer over one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerCost {
    /// Floating-point operations for the forward pass.
    pub fwd_flops: u64,
    /// Floating-point operations for the backward pass (data + weight
    /// gradients).
    pub bwd_flops: u64,
    /// Number of learnable scalar parameters touched.
    pub params: u64,
    /// Number of activation scalars produced (output elements).
    pub activations: u64,
    /// Device kernels launched in the forward pass.
    pub fwd_kernels: u32,
    /// Device kernels launched in the backward pass.
    pub bwd_kernels: u32,
}

impl LayerCost {
    /// Cost of a fully connected layer over `n` samples: one GEMM plus
    /// a bias pass forward, weight- and input-gradient GEMMs backward.
    pub fn dense(n: usize, in_features: usize, out_features: usize) -> Self {
        let fwd = 2 * n as u64 * in_features as u64 * out_features as u64;
        LayerCost {
            fwd_flops: fwd,
            bwd_flops: 2 * fwd,
            params: (out_features * in_features + out_features) as u64,
            activations: (n * out_features) as u64,
            fwd_kernels: 2,
            bwd_kernels: 3,
        }
    }

    /// Cost of a convolution lowered onto `geo` with `out_channels`
    /// filters over `n` samples (`Conv2d` and `Conv1d` alike).
    pub fn conv(n: usize, geo: &Conv2dGeometry, out_channels: usize) -> Self {
        let (plane, patch, oc) =
            (geo.out_plane() as u64, geo.patch_len() as u64, out_channels as u64);
        // Forward: one MAC pair (2 flops) per weight tap per output site.
        let fwd = n as u64 * 2 * oc * patch * plane;
        LayerCost {
            fwd_flops: fwd,
            // Backward: weight-grad GEMM + input-grad GEMM, each the
            // same size as the forward GEMM.
            bwd_flops: 2 * fwd,
            params: oc * patch + oc,
            activations: n as u64 * oc * plane,
            // im2col + GEMM + bias per sample batchable into 3 kernels.
            fwd_kernels: 3,
            bwd_kernels: 4,
        }
    }

    /// Cost of gathering `tokens` rows of a `[vocab, dim]` embedding
    /// table. A lookup moves data without arithmetic; it is charged one
    /// flop per copied scalar so the simtime model sees the traffic.
    pub fn lookup(tokens: usize, vocab: usize, dim: usize) -> Self {
        let moved = (tokens * dim) as u64;
        LayerCost {
            fwd_flops: moved,
            bwd_flops: moved,
            params: (vocab * dim) as u64,
            activations: moved,
            fwd_kernels: 1,
            bwd_kernels: 1,
        }
    }

    /// Component-wise sum of two costs.
    #[must_use]
    pub fn merge(self, other: LayerCost) -> LayerCost {
        LayerCost {
            fwd_flops: self.fwd_flops + other.fwd_flops,
            bwd_flops: self.bwd_flops + other.bwd_flops,
            params: self.params + other.params,
            activations: self.activations + other.activations,
            fwd_kernels: self.fwd_kernels + other.fwd_kernels,
            bwd_kernels: self.bwd_kernels + other.bwd_kernels,
        }
    }

    /// Total FLOPs for a training step (forward + backward).
    pub fn train_flops(&self) -> u64 {
        self.fwd_flops + self.bwd_flops
    }

    /// Total kernels for a training step.
    pub fn train_kernels(&self) -> u32 {
        self.fwd_kernels + self.bwd_kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise() {
        let a = LayerCost {
            fwd_flops: 10,
            bwd_flops: 20,
            params: 5,
            activations: 7,
            fwd_kernels: 1,
            bwd_kernels: 2,
        };
        let b = LayerCost {
            fwd_flops: 1,
            bwd_flops: 2,
            params: 3,
            activations: 4,
            fwd_kernels: 5,
            bwd_kernels: 6,
        };
        let m = a.merge(b);
        assert_eq!(m.fwd_flops, 11);
        assert_eq!(m.bwd_flops, 22);
        assert_eq!(m.params, 8);
        assert_eq!(m.activations, 11);
        assert_eq!(m.fwd_kernels, 6);
        assert_eq!(m.bwd_kernels, 8);
        assert_eq!(m.train_flops(), 33);
        assert_eq!(m.train_kernels(), 14);
    }
}
