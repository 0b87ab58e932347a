//! The default-configuration database (paper Tables II–V).
//!
//! A *default setting* in the paper is everything a framework ships for
//! a dataset: training hyperparameters, learning-rate schedule, input
//! pipeline, regularizer, and network architecture. Settings are
//! first-class values here so the benchmark can transplant them across
//! frameworks and datasets — the paper's central methodology.

use crate::kind::FrameworkKind;
use crate::spec::{ArchSpec, LayerSpecEntry as L};
use dlbench_data::{DatasetKind, Preprocessing};
use dlbench_optim::LrPolicy;

/// Training algorithm selector (paper Tables II/III "Algorithm" row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Stochastic gradient descent with the given momentum.
    Sgd {
        /// Momentum coefficient (0 disables).
        momentum: f32,
    },
    /// Adam with canonical betas.
    Adam,
}

impl OptimizerKind {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerKind::Sgd { .. } => "SGD",
            OptimizerKind::Adam => "Adam",
        }
    }
}

/// Default regularization method (the paper's Table IX contrast:
/// TensorFlow dropout vs Caffe weight decay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Regularizer {
    /// Dropout with the given rate (applied inside the architecture).
    Dropout {
        /// Drop probability.
        rate: f32,
    },
    /// L2 weight decay folded into the optimizer.
    WeightDecay {
        /// Decay coefficient.
        lambda: f32,
    },
    /// No regularization.
    None,
}

impl Regularizer {
    /// Display name for configuration tables.
    pub fn name(&self) -> &'static str {
        match self {
            Regularizer::Dropout { .. } => "drop out",
            Regularizer::WeightDecay { .. } => "weight decay",
            Regularizer::None => "none",
        }
    }

    /// The weight-decay lambda the optimizer should apply (0 unless the
    /// regularizer is weight decay).
    pub fn weight_decay_lambda(&self) -> f32 {
        match self {
            Regularizer::WeightDecay { lambda } => *lambda,
            _ => 0.0,
        }
    }
}

/// A learning-rate schedule with boundaries expressed as *fractions of
/// the iteration budget*, so the same schedule shape applies at paper
/// scale and at reduced benchmark scales.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleSpec {
    /// Constant rate.
    Fixed,
    /// Caffe `inv` policy; `gamma` is calibrated for the *paper*
    /// iteration count and rescaled for shorter runs.
    Inverse {
        /// Per-iteration decay rate at paper scale.
        gamma: f32,
        /// Decay exponent.
        power: f32,
    },
    /// Caffe CIFAR-10 two-phase schedule: drop to `second_lr` after
    /// `frac` of the budget.
    TwoPhase {
        /// Second-phase learning rate.
        second_lr: f32,
        /// Fraction of the budget where phase 2 begins.
        frac: f32,
    },
    /// Multiply by `gamma` every `frac` of the budget (TensorFlow's
    /// CIFAR-10 exponential decay).
    StepDecay {
        /// Decay factor.
        gamma: f32,
        /// Interval as a fraction of the budget.
        frac: f32,
    },
}

impl ScheduleSpec {
    /// Resolves the schedule into an absolute [`LrPolicy`] for a run of
    /// `exec_iters` iterations standing in for `paper_iters`.
    pub fn resolve(&self, base_lr: f32, exec_iters: usize, paper_iters: usize) -> LrPolicy {
        match *self {
            ScheduleSpec::Fixed => LrPolicy::Fixed,
            ScheduleSpec::Inverse { gamma, power } => {
                // Keep the *endpoint* decay equal: gamma scales with the
                // compression ratio.
                let ratio = paper_iters as f32 / exec_iters.max(1) as f32;
                LrPolicy::Inverse { gamma: gamma * ratio, power }
            }
            ScheduleSpec::TwoPhase { second_lr, frac } => LrPolicy::MultiStep {
                steps: vec![
                    (0, base_lr),
                    (((exec_iters as f32) * frac).round() as usize, second_lr),
                ],
            },
            ScheduleSpec::StepDecay { gamma, frac } => LrPolicy::Step {
                gamma,
                every: (((exec_iters as f32) * frac).round() as usize).max(1),
            },
        }
    }
}

/// One framework's default training hyperparameters for one dataset
/// (a row bundle from paper Table II or III).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Training algorithm.
    pub algorithm: OptimizerKind,
    /// Base learning rate.
    pub base_lr: f32,
    /// Learning-rate schedule.
    pub schedule: ScheduleSpec,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Iteration budget at paper scale (`max_steps`/`max_iter`).
    pub max_iterations: usize,
    /// Default input pipeline.
    pub preprocessing: Preprocessing,
    /// Default regularizer.
    pub regularizer: Regularizer,
}

impl TrainingConfig {
    /// Epochs implied by the paper's budget:
    /// `max_iterations * batch_size / train_samples` (the formula the
    /// paper uses below Table II).
    pub fn paper_epochs(&self, dataset: DatasetKind) -> f32 {
        (self.max_iterations * self.batch_size) as f32 / dataset.paper_train_samples() as f32
    }
}

/// Default training hyperparameters (paper Tables II and III).
pub fn training_defaults(fw: FrameworkKind, ds: DatasetKind) -> TrainingConfig {
    use DatasetKind::*;
    use FrameworkKind::*;
    match (fw, ds) {
        (TensorFlow, Mnist) => TrainingConfig {
            algorithm: OptimizerKind::Adam,
            base_lr: 1e-4,
            schedule: ScheduleSpec::Fixed,
            batch_size: 50,
            max_iterations: 20_000,
            preprocessing: Preprocessing::Raw01,
            regularizer: Regularizer::Dropout { rate: 0.5 },
        },
        (Caffe, Mnist) => TrainingConfig {
            algorithm: OptimizerKind::Sgd { momentum: 0.9 },
            base_lr: 0.01,
            schedule: ScheduleSpec::Inverse { gamma: 1e-4, power: 0.75 },
            batch_size: 64,
            max_iterations: 10_000,
            preprocessing: Preprocessing::Raw01,
            regularizer: Regularizer::WeightDecay { lambda: 5e-4 },
        },
        (Torch, Mnist) => TrainingConfig {
            algorithm: OptimizerKind::Sgd { momentum: 0.0 },
            base_lr: 0.05,
            schedule: ScheduleSpec::Fixed,
            batch_size: 10,
            max_iterations: 120_000,
            preprocessing: Preprocessing::Standardize,
            regularizer: Regularizer::None,
        },
        (TensorFlow, Cifar10) => TrainingConfig {
            algorithm: OptimizerKind::Sgd { momentum: 0.0 },
            base_lr: 0.1,
            schedule: ScheduleSpec::StepDecay { gamma: 0.1, frac: 0.35 },
            batch_size: 128,
            max_iterations: 1_000_000,
            preprocessing: Preprocessing::Standardize,
            regularizer: Regularizer::WeightDecay { lambda: 0.004 },
        },
        (Caffe, Cifar10) => TrainingConfig {
            algorithm: OptimizerKind::Sgd { momentum: 0.9 },
            base_lr: 0.001,
            schedule: ScheduleSpec::TwoPhase { second_lr: 1e-4, frac: 0.8 },
            batch_size: 100,
            max_iterations: 5_000,
            preprocessing: Preprocessing::MeanSubtract,
            regularizer: Regularizer::WeightDecay { lambda: 0.004 },
        },
        (Torch, Cifar10) => TrainingConfig {
            algorithm: OptimizerKind::Sgd { momentum: 0.0 },
            base_lr: 0.001,
            schedule: ScheduleSpec::Fixed,
            batch_size: 1,
            max_iterations: 100_000,
            preprocessing: Preprocessing::Standardize,
            regularizer: Regularizer::None,
        },
        // Text axis (no paper table — settings follow each framework's
        // canonical sentence-CNN recipe, keeping the personality
        // contrasts: TF Adam+dropout, Caffe momentum-SGD+decay with an
        // inverse schedule, Torch plain SGD).
        (TensorFlow, Imdb) => TrainingConfig {
            algorithm: OptimizerKind::Adam,
            base_lr: 1e-3,
            schedule: ScheduleSpec::Fixed,
            batch_size: 64,
            max_iterations: 10_000,
            preprocessing: Preprocessing::TokenIds,
            regularizer: Regularizer::Dropout { rate: 0.5 },
        },
        (Caffe, Imdb) => TrainingConfig {
            algorithm: OptimizerKind::Sgd { momentum: 0.9 },
            base_lr: 0.01,
            schedule: ScheduleSpec::Inverse { gamma: 1e-4, power: 0.75 },
            batch_size: 50,
            max_iterations: 10_000,
            preprocessing: Preprocessing::TokenIds,
            regularizer: Regularizer::WeightDecay { lambda: 5e-4 },
        },
        (Torch, Imdb) => TrainingConfig {
            algorithm: OptimizerKind::Sgd { momentum: 0.0 },
            base_lr: 0.05,
            schedule: ScheduleSpec::Fixed,
            batch_size: 32,
            max_iterations: 25_000,
            preprocessing: Preprocessing::TokenIds,
            regularizer: Regularizer::None,
        },
    }
}

/// Default network architectures (paper Tables IV and V).
pub fn arch_defaults(fw: FrameworkKind, ds: DatasetKind) -> ArchSpec {
    use DatasetKind::*;
    use FrameworkKind::*;
    match (fw, ds) {
        // Table IV — MNIST (LeNet variants).
        (TensorFlow, Mnist) => ArchSpec::new(
            "TF-MNIST",
            vec![
                L::Conv { out: 32, kernel: 5, stride: 1, pad: 2 },
                L::Relu,
                L::MaxPool { kernel: 2, stride: 2, ceil: false },
                L::Conv { out: 64, kernel: 5, stride: 1, pad: 2 },
                L::Relu,
                L::MaxPool { kernel: 2, stride: 2, ceil: false },
                L::Fc { out: 1024 },
                L::Relu,
                L::Dropout { rate: 0.5 },
                L::Fc { out: 10 },
            ],
        ),
        (Caffe, Mnist) => ArchSpec::new(
            "Caffe-MNIST",
            vec![
                L::Conv { out: 20, kernel: 5, stride: 1, pad: 0 },
                L::MaxPool { kernel: 2, stride: 2, ceil: true },
                L::Conv { out: 50, kernel: 5, stride: 1, pad: 0 },
                L::MaxPool { kernel: 2, stride: 2, ceil: true },
                L::Fc { out: 500 },
                L::Relu,
                L::Fc { out: 10 },
            ],
        ),
        (Torch, Mnist) => ArchSpec::new(
            "Torch-MNIST",
            vec![
                L::Conv { out: 32, kernel: 5, stride: 1, pad: 0 },
                L::Tanh,
                L::MaxPool { kernel: 3, stride: 2, ceil: false },
                L::Conv { out: 64, kernel: 5, stride: 1, pad: 0 },
                L::Tanh,
                L::MaxPool { kernel: 3, stride: 2, ceil: false },
                L::Fc { out: 200 },
                L::Tanh,
                L::Fc { out: 10 },
            ],
        ),
        // Table V — CIFAR-10.
        (TensorFlow, Cifar10) => ArchSpec::new(
            "TF-CIFAR-10",
            vec![
                L::Conv { out: 64, kernel: 5, stride: 1, pad: 2 },
                L::Relu,
                L::MaxPool { kernel: 3, stride: 2, ceil: true },
                L::Lrn,
                L::Conv { out: 64, kernel: 5, stride: 1, pad: 2 },
                L::Relu,
                L::Lrn,
                L::MaxPool { kernel: 3, stride: 2, ceil: true },
                L::Fc { out: 384 },
                L::Relu,
                L::Fc { out: 192 },
                L::Relu,
                L::Fc { out: 10 },
            ],
        ),
        (Caffe, Cifar10) => ArchSpec::new(
            "Caffe-CIFAR-10",
            vec![
                L::Conv { out: 32, kernel: 5, stride: 1, pad: 2 },
                L::MaxPool { kernel: 3, stride: 2, ceil: true },
                L::Relu,
                L::Conv { out: 32, kernel: 5, stride: 1, pad: 2 },
                L::Relu,
                L::AvgPool { kernel: 3, stride: 2, ceil: true },
                L::Conv { out: 64, kernel: 5, stride: 1, pad: 2 },
                L::Relu,
                L::AvgPool { kernel: 3, stride: 2, ceil: true },
                L::Fc { out: 64 },
                L::Fc { out: 10 },
            ],
        ),
        (Torch, Cifar10) => ArchSpec::new(
            "Torch-CIFAR-10",
            vec![
                L::Conv { out: 16, kernel: 5, stride: 1, pad: 0 },
                L::Tanh,
                L::MaxPool { kernel: 2, stride: 2, ceil: false },
                L::Conv { out: 256, kernel: 5, stride: 1, pad: 0 },
                L::Tanh,
                L::MaxPool { kernel: 2, stride: 2, ceil: false },
                L::Fc { out: 128 },
                L::Tanh,
                L::Fc { out: 10 },
            ],
        ),
        // Text axis — Kim-style sentence CNNs (parallel 3/4/5-width
        // branches, max-over-time), differing in embedding width,
        // filter count and activation per personality. ReLU/Tanh after
        // the bank is equivalent to per-window activation because
        // max-over-time commutes with monotone functions.
        (TensorFlow, Imdb) => ArchSpec::new(
            "TF-IMDB",
            vec![
                L::Embed { vocab: dlbench_text::VOCAB, dim: 128 },
                L::ConvBank { filters: 128, widths: vec![3, 4, 5] },
                L::Relu,
                L::Dropout { rate: 0.5 },
                L::Fc { out: 2 },
            ],
        ),
        (Caffe, Imdb) => ArchSpec::new(
            "Caffe-IMDB",
            vec![
                L::Embed { vocab: dlbench_text::VOCAB, dim: 64 },
                L::ConvBank { filters: 100, widths: vec![3, 4, 5] },
                L::Relu,
                L::Fc { out: 2 },
            ],
        ),
        (Torch, Imdb) => ArchSpec::new(
            "Torch-IMDB",
            vec![
                L::Embed { vocab: dlbench_text::VOCAB, dim: 64 },
                L::ConvBank { filters: 64, widths: vec![3, 4, 5] },
                L::Tanh,
                L::Fc { out: 2 },
            ],
        ),
    }
}

/// A transplantable default setting: the hyperparameters, pipeline and
/// architecture that framework `owner` ships for dataset `tuned_for`.
///
/// The paper's experiments apply settings to *other* host frameworks
/// ("framework-dependent defaults") and *other* datasets
/// ("dataset-dependent defaults"); the host contributes its own weight
/// initializer and execution profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefaultSetting {
    /// Framework whose defaults these are.
    pub owner: FrameworkKind,
    /// Dataset the defaults were tuned for.
    pub tuned_for: DatasetKind,
}

impl DefaultSetting {
    /// Creates a setting handle.
    pub fn new(owner: FrameworkKind, tuned_for: DatasetKind) -> Self {
        Self { owner, tuned_for }
    }

    /// Resolves the setting a `host` cell on `dataset` trains under:
    /// `owner` and `tuned_for` default to the host and the dataset (its
    /// own default). Text and image settings take different input
    /// shapes (token sequences vs pixel grids), so a transplant across
    /// the modality boundary cannot instantiate; it is rejected here
    /// with the fix instead of panicking during model construction.
    pub fn for_cell(
        host: FrameworkKind,
        dataset: DatasetKind,
        owner: Option<FrameworkKind>,
        tuned_for: Option<DatasetKind>,
    ) -> Result<Self, String> {
        let tuned_for = tuned_for.unwrap_or(dataset);
        if tuned_for.is_text() != dataset.is_text() {
            return Err(format!(
                "setting_dataset `{}` cannot be applied to dataset `{}`: text and image \
                 architectures take different input shapes; set `setting_dataset` to \
                 `{}` or change `dataset`",
                tuned_for.key(),
                dataset.key(),
                dataset.key(),
            ));
        }
        Ok(Self::new(owner.unwrap_or(host), tuned_for))
    }

    /// The training hyperparameters of this setting.
    pub fn training(&self) -> TrainingConfig {
        training_defaults(self.owner, self.tuned_for)
    }

    /// The architecture of this setting.
    pub fn arch(&self) -> ArchSpec {
        arch_defaults(self.owner, self.tuned_for)
    }

    /// Label as used in the paper's figures, e.g. `"TF-MNIST"`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.owner.abbrev(), self.tuned_for.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_mnist_hyperparameters() {
        let tf = training_defaults(FrameworkKind::TensorFlow, DatasetKind::Mnist);
        assert_eq!(tf.algorithm, OptimizerKind::Adam);
        assert_eq!(tf.base_lr, 1e-4);
        assert_eq!(tf.batch_size, 50);
        assert_eq!(tf.max_iterations, 20_000);
        assert!((tf.paper_epochs(DatasetKind::Mnist) - 16.67).abs() < 0.01);

        let caffe = training_defaults(FrameworkKind::Caffe, DatasetKind::Mnist);
        assert_eq!(caffe.algorithm.name(), "SGD");
        assert_eq!(caffe.base_lr, 0.01);
        assert_eq!(caffe.batch_size, 64);
        assert_eq!(caffe.max_iterations, 10_000);
        assert!((caffe.paper_epochs(DatasetKind::Mnist) - 10.67).abs() < 0.01);

        let torch = training_defaults(FrameworkKind::Torch, DatasetKind::Mnist);
        assert_eq!(torch.base_lr, 0.05);
        assert_eq!(torch.batch_size, 10);
        assert_eq!(torch.max_iterations, 120_000);
        assert!((torch.paper_epochs(DatasetKind::Mnist) - 20.0).abs() < 0.01);
    }

    #[test]
    fn table_iii_cifar_hyperparameters() {
        let tf = training_defaults(FrameworkKind::TensorFlow, DatasetKind::Cifar10);
        assert_eq!(tf.algorithm.name(), "SGD");
        assert_eq!(tf.base_lr, 0.1);
        assert_eq!(tf.batch_size, 128);
        assert_eq!(tf.max_iterations, 1_000_000);
        assert!((tf.paper_epochs(DatasetKind::Cifar10) - 2560.0).abs() < 0.5);

        let caffe = training_defaults(FrameworkKind::Caffe, DatasetKind::Cifar10);
        assert_eq!(caffe.base_lr, 0.001);
        assert!(matches!(
            caffe.schedule,
            ScheduleSpec::TwoPhase { second_lr, .. } if second_lr == 1e-4
        ));
        assert!((caffe.paper_epochs(DatasetKind::Cifar10) - 10.0).abs() < 0.01);

        let torch = training_defaults(FrameworkKind::Torch, DatasetKind::Cifar10);
        assert_eq!(torch.batch_size, 1);
        assert_eq!(torch.max_iterations, 100_000);
        assert!((torch.paper_epochs(DatasetKind::Cifar10) - 2.0).abs() < 0.01);
        // Paper reports 20 epochs for Torch CIFAR-10 (its formula uses
        // 5,000-sample shards); we derive 2.0 from the full 50,000 set
        // and note the discrepancy — the *iteration budget* (100,000)
        // is what both agree on and what the timing model charges.
    }

    #[test]
    fn regularizer_contrast() {
        let tf = training_defaults(FrameworkKind::TensorFlow, DatasetKind::Mnist);
        assert!(matches!(tf.regularizer, Regularizer::Dropout { rate } if rate == 0.5));
        let caffe = training_defaults(FrameworkKind::Caffe, DatasetKind::Mnist);
        assert!(matches!(caffe.regularizer, Regularizer::WeightDecay { .. }));
        assert_eq!(caffe.regularizer.weight_decay_lambda(), 5e-4);
        assert_eq!(tf.regularizer.weight_decay_lambda(), 0.0);
    }

    #[test]
    fn schedule_resolution_scales_boundaries() {
        let two = ScheduleSpec::TwoPhase { second_lr: 1e-4, frac: 0.8 };
        let p = two.resolve(0.001, 100, 5_000);
        assert_eq!(p.rate(0.001, 79), 0.001);
        assert!((p.rate(0.001, 80) - 1e-4).abs() < 1e-9);

        let inv = ScheduleSpec::Inverse { gamma: 1e-4, power: 0.75 };
        let paper = inv.resolve(0.01, 10_000, 10_000);
        let short = inv.resolve(0.01, 100, 10_000);
        // Endpoint decay matches across compressions.
        assert!((paper.rate(0.01, 10_000) - short.rate(0.01, 100)).abs() < 1e-5);
    }

    #[test]
    fn setting_labels() {
        let s = DefaultSetting::new(FrameworkKind::Caffe, DatasetKind::Mnist);
        assert_eq!(s.label(), "Caffe-MNIST");
        assert_eq!(s.training().batch_size, 64);
        assert_eq!(s.arch().name, "Caffe-MNIST");
    }
}
