//! Runs one benchmark cell: *(host framework, default setting, dataset,
//! device)* → trained model + the paper's three metric groups.
//!
//! Two measurement paths run side by side:
//!
//! * **Accuracy path** (real computation): the setting's architecture is
//!   instantiated at the requested [`Scale`], trained on the synthetic
//!   dataset with the setting's hyperparameters, and evaluated on a held
//!   test set. Divergence (the paper's Caffe-on-CIFAR failures) is
//!   detected and surfaces as a flat loss curve and chance-level
//!   accuracy, exactly as in the paper's Figure 5.
//! * **Timing path** (analytical): simulated training/testing times are
//!   charged for the *full paper-scale* schedule — native image size,
//!   paper widths, paper batch size, paper iteration budget — through
//!   the host framework's execution profile on the cell's device model.

use crate::defaults::{DefaultSetting, OptimizerKind, Regularizer, TrainingConfig};
use crate::kind::FrameworkKind;
use crate::scale::Scale;
use crate::spec::{ArchSpec, LayerSpecEntry};
use dlbench_data::{BatchIter, Dataset, DatasetKind, Preprocessing, SynthCifar10, SynthMnist};
use dlbench_nn::{CheckpointError, LayerCost, Network, SoftmaxCrossEntropy};
use dlbench_optim::{Adam, Optimizer, Sgd};
use dlbench_simtime::{CostModel, Device};
use dlbench_tensor::SeededRng;
use dlbench_text::SynthImdb;
use dlbench_trace::{span, Category, Stopwatch};

/// Loss ceiling recorded when training diverges (softmax probabilities
/// floored at `1e-12` bound the true loss at ~27.6).
pub const DIVERGED_LOSS: f32 = 27.6;

/// Test batch size used by all frameworks' evaluation loops.
pub const TEST_BATCH: usize = 100;

/// Paper test-set size (both MNIST and CIFAR-10 ship 10,000 test
/// images).
pub const PAPER_TEST_SAMPLES: usize = 10_000;

/// One benchmark cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Framework doing the training (contributes initializer, execution
    /// profile and regularization *method*).
    pub host: FrameworkKind,
    /// Default setting being applied (contributes hyperparameters,
    /// architecture, input pipeline).
    pub setting: DefaultSetting,
    /// Dataset being trained on.
    pub dataset: DatasetKind,
    /// Simulated device.
    pub device: Device,
}

impl Cell {
    /// A framework running its own default for a dataset.
    pub fn own_default(host: FrameworkKind, dataset: DatasetKind, device: Device) -> Self {
        Cell { host, setting: DefaultSetting::new(host, dataset), dataset, device }
    }

    /// Paper-style label, e.g. `"TensorFlow (Caffe-MNIST) on MNIST"`.
    pub fn label(&self) -> String {
        format!("{} ({}) on {}", self.host.name(), self.setting.label(), self.dataset.name())
    }
}

/// Simulated training/testing seconds for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTimes {
    /// Simulated training time for the full paper schedule.
    pub train_seconds: f64,
    /// Simulated testing time for the paper's 10,000-image test pass.
    pub test_seconds: f64,
}

/// What a [`TrainGuard`] sees at each epoch boundary.
///
/// The model is borrowed mutably so test harnesses can perturb
/// parameters (e.g. inject a NaN) and watch a later check flag it;
/// production guards only read.
pub struct GuardCtx<'a> {
    /// Zero-based epoch index just completed.
    pub epoch: usize,
    /// Zero-based iteration index the boundary landed on.
    pub iteration: usize,
    /// Loss of the boundary iteration ([`DIVERGED_LOSS`] once the run
    /// has diverged).
    pub loss: f32,
    /// The model being trained.
    pub model: &'a mut Network,
}

/// Runtime invariant hook invoked after every training epoch (and once
/// more at the final iteration). Returning `Err` records a violation in
/// [`TrainOutcome::guard_violations`]; training itself continues so the
/// outcome still carries curves and timings.
///
/// Guards must be `Send + Sync`: [`run_training_guarded`] is called
/// from prefetch worker threads, which share one guard instance.
pub trait TrainGuard: Send + Sync {
    /// Checks invariants at an epoch boundary.
    fn after_epoch(&self, ctx: &mut GuardCtx<'_>) -> Result<(), String>;
}

/// Everything a cell run produces.
pub struct TrainOutcome {
    /// Host framework (kept for re-deriving timings on other devices).
    pub host: FrameworkKind,
    /// Top-1 accuracy on the held-out test set, in `[0, 1]`.
    pub accuracy: f32,
    /// `(iteration, mean loss)` samples along training.
    pub loss_curve: Vec<(usize, f32)>,
    /// Whether training stayed finite and the loss improved.
    pub converged: bool,
    /// Iterations actually executed at the reduced scale.
    pub executed_iterations: usize,
    /// Iteration budget of the paper configuration.
    pub paper_iterations: usize,
    /// Batch size of the paper configuration (batch-ramp effects in the
    /// timing model need it).
    pub paper_batch_size: usize,
    /// Wall-clock seconds spent in the real training loop.
    pub wall_train_seconds: f64,
    /// Wall-clock seconds spent evaluating the test set.
    pub wall_test_seconds: f64,
    /// The trained model (consumed by the adversarial metrics).
    pub model: Network,
    /// Preprocessing used (attacks must apply the same pipeline).
    pub preprocessing: Preprocessing,
    /// Training-set channel means (for mean-subtract pipelines).
    pub channel_means: Vec<f32>,
    /// Forward+backward cost of one paper-scale training batch.
    pub paper_train_batch_cost: LayerCost,
    /// Forward cost of one paper-scale test batch (batch 100).
    pub paper_test_batch_cost: LayerCost,
    /// Invariant violations reported by the [`TrainGuard`] (empty when
    /// no guard was installed or every check passed).
    pub guard_violations: Vec<String>,
}

impl TrainOutcome {
    /// Simulated times for this cell's configuration on a device.
    pub fn simulated_times(&self, device: &Device) -> SimTimes {
        let model = CostModel::new(device.clone(), self.host.execution_profile());
        let train_seconds = self.paper_iterations as f64
            * model.train_iteration_seconds_batched(
                &self.paper_train_batch_cost,
                self.paper_batch_size,
            );
        let test_batches = PAPER_TEST_SAMPLES.div_ceil(TEST_BATCH);
        let test_seconds = test_batches as f64
            * model.inference_seconds_batched(&self.paper_test_batch_cost, TEST_BATCH);
        SimTimes { train_seconds, test_seconds }
    }

    /// Final recorded training loss.
    pub fn final_loss(&self) -> f32 {
        self.loss_curve.last().map(|&(_, l)| l).unwrap_or(f32::NAN)
    }
}

/// The architecture the host actually trains: the setting's layer stack
/// with the *host's* regularization method applied (the paper's Table IX
/// shows regularizers travel with the framework, not the setting —
/// `TF (Caffe)` pairs Caffe's layer widths with TensorFlow's dropout).
pub fn effective_arch(host: FrameworkKind, setting: &DefaultSetting) -> ArchSpec {
    let base = setting.arch();
    let mut entries: Vec<LayerSpecEntry> =
        base.entries.into_iter().filter(|e| !matches!(e, LayerSpecEntry::Dropout { .. })).collect();
    if host == FrameworkKind::TensorFlow {
        // Dropout in front of the classifier, TF-tutorial placement.
        let last_fc = entries
            .iter()
            .rposition(|e| matches!(e, LayerSpecEntry::Fc { .. }))
            .expect("arch has a classifier");
        entries.insert(last_fc, LayerSpecEntry::Dropout { rate: 0.5 });
    }
    ArchSpec::new(format!("{}({})", host.abbrev(), base.name), entries)
}

/// The weight-decay coefficient the host applies when training with a
/// given setting on a dataset (Caffe's method; zero for the others).
pub fn effective_weight_decay(
    host: FrameworkKind,
    dataset: DatasetKind,
    setting_config: &TrainingConfig,
) -> f32 {
    match host {
        FrameworkKind::Caffe => {
            // Caffe regularizes by weight decay; if the transplanted
            // setting carries a lambda use it, otherwise Caffe falls
            // back to its own default for the dataset.
            match setting_config.regularizer {
                Regularizer::WeightDecay { lambda } => lambda,
                _ => crate::defaults::training_defaults(host, dataset)
                    .regularizer
                    .weight_decay_lambda(),
            }
        }
        FrameworkKind::TensorFlow | FrameworkKind::Torch => {
            // TF regularizes by dropout (inserted into the arch); Torch
            // ships no default regularizer. A transplanted weight-decay
            // lambda still applies if the optimizer supports it.
            match (setting_config.algorithm, setting_config.regularizer) {
                (OptimizerKind::Sgd { .. }, Regularizer::WeightDecay { lambda }) => lambda,
                _ => 0.0,
            }
        }
    }
}

/// The input pipeline actually in effect for a cell.
///
/// Caffe's input scaling lives in its dataset-specific prototxt data
/// layer. When a Caffe-owned setting tuned for one dataset is
/// transplanted to *another* dataset, the `scale: 0.00390625` transform
/// does not travel with it and the net receives raw byte-range values —
/// which explodes LeNet-class models immediately. This is the mechanism
/// behind the paper's Figure 5: Caffe's MNIST setting on CIFAR-10 shows
/// a flat training loss of ~87.34 (= `-ln(FLT_MIN)`, Caffe's saturated
/// softmax loss) and never converges (Tables VIb/VIIb: 11.03% / 10.10%
/// accuracy).
pub fn effective_preprocessing(
    host: FrameworkKind,
    setting: &DefaultSetting,
    dataset: DatasetKind,
) -> Preprocessing {
    let config = setting.training();
    if host == FrameworkKind::Caffe
        && setting.owner == FrameworkKind::Caffe
        && setting.tuned_for != dataset
        && config.preprocessing == Preprocessing::Raw01
    {
        return Preprocessing::RawBytes;
    }
    config.preprocessing
}

/// The input pipeline a cell serves and evaluates with: its
/// [`effective_preprocessing`] plus, under mean subtraction, the
/// per-channel means of its training split (empty otherwise). `train`
/// yields that split and is only called under mean subtraction, so a
/// caller without the split at hand generates it only when needed.
pub fn cell_preprocessing(
    host: FrameworkKind,
    setting: &DefaultSetting,
    dataset: DatasetKind,
    train: impl FnOnce() -> Dataset,
) -> (Preprocessing, Vec<f32>) {
    let preprocessing = effective_preprocessing(host, setting, dataset);
    let channel_means = if preprocessing == Preprocessing::MeanSubtract {
        Preprocessing::channel_means(&train())
    } else {
        Vec::new()
    };
    (preprocessing, channel_means)
}

/// Generates the train/test datasets for a dataset kind at a scale.
/// The data seed is independent of the framework and setting, so every
/// cell on the same dataset sees identical data.
pub fn generate_data(dataset: DatasetKind, scale: Scale, seed: u64) -> (Dataset, Dataset) {
    let size = scale.image_size(dataset);
    let n_train = scale.train_samples(dataset);
    let n_test = scale.test_samples();
    let data_seed = SeededRng::new(seed).fork(dataset as u64 + 100).seed();
    let full = match dataset {
        DatasetKind::Mnist => SynthMnist::generate(n_train + n_test, size, data_seed),
        DatasetKind::Cifar10 => SynthCifar10::generate(n_train + n_test, size, data_seed),
        DatasetKind::Imdb => SynthImdb::generate(n_train + n_test, size, data_seed),
    };
    full.split(n_train)
}

/// Per-sample tensor dimensions `(c, h, w)` a network for `dataset`
/// takes at extent `size` (image side length, or sequence length for
/// text): images are `(channels, size, size)`, token sequences are
/// `(1, size, 1)` — the embedding layer widens the last axis.
pub fn input_dims(dataset: DatasetKind, size: usize) -> (usize, usize, usize) {
    if dataset.is_text() {
        (1, size, 1)
    } else {
        (dataset.channels(), size, size)
    }
}

/// The RNG stream a cell's model parameters are drawn from. Forking is
/// keyed on the parent *seed*, not its advanced state, so this stream
/// is stable no matter how many draws other subsystems make.
fn cell_model_rng(host: FrameworkKind, setting: &DefaultSetting, seed: u64) -> SeededRng {
    SeededRng::new(seed).fork(host as u64 * 31 + setting.owner as u64 * 7 + 1)
}

/// Builds the exact network a cell trains — same architecture, width
/// multiplier, initializer and RNG stream as [`run_training`] — without
/// running any training. The serving layer instantiates checkpoint
/// files against this, and the CLI `--load` paths use it to rebuild the
/// model a `dlbench train --save` checkpoint was saved from.
pub fn build_cell_model(
    host: FrameworkKind,
    setting: &DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
) -> Network {
    let arch = effective_arch(host, setting);
    let mut rng = cell_model_rng(host, setting, seed);
    let dims = input_dims(dataset, scale.image_size(dataset));
    arch.build(dims, scale.width_mult(), host.initializer(), &mut rng)
}

/// Builds the optimizer a cell trains with, exactly as [`run_training`]
/// does: the schedule is resolved against the *executed* iteration
/// budget (see [`planned_iterations`]). Public so distributed replicas
/// can construct bit-identical optimizer state per worker.
pub fn make_optimizer(
    config: &TrainingConfig,
    weight_decay: f32,
    exec_iters: usize,
) -> Box<dyn Optimizer> {
    let policy = config.schedule.resolve(config.base_lr, exec_iters, config.max_iterations);
    match config.algorithm {
        OptimizerKind::Adam => Box::new(Adam::new(config.base_lr, 0.9, 0.999, 1e-8, policy)),
        OptimizerKind::Sgd { momentum } => {
            Box::new(Sgd::new(config.base_lr, momentum, weight_decay, policy))
        }
    }
}

/// The iteration budget [`run_training`] executes for a cell at a
/// scale: the paper's epoch count compressed by the scale, floored for
/// low-rate SGD configurations. Exposed so other training drivers (the
/// distributed trainer) run the same schedule.
pub fn planned_iterations(
    config: &TrainingConfig,
    tuned_for: DatasetKind,
    dataset: DatasetKind,
    scale: Scale,
) -> usize {
    let paper_epochs = config.paper_epochs(tuned_for);
    let mut exec_iters = scale.exec_iterations(paper_epochs, config.batch_size, dataset);
    if let OptimizerKind::Sgd { .. } = config.algorithm {
        exec_iters = exec_iters.max(scale.sgd_step_floor(config.base_lr));
    }
    exec_iters
}

/// The RNG stream [`run_training`]'s batch iterator draws from. Forks
/// are keyed on the parent stream's seed, not its advanced state, so
/// this reproduces the trainer's batch schedule without re-running
/// model initialization.
pub fn batch_rng(host: FrameworkKind, setting: &DefaultSetting, seed: u64) -> SeededRng {
    cell_model_rng(host, setting, seed).fork(2)
}

/// Evaluates top-1 accuracy of a model over a dataset with the given
/// preprocessing.
pub fn evaluate(
    model: &mut Network,
    data: &Dataset,
    preprocessing: Preprocessing,
    channel_means: &[f32],
) -> f32 {
    let _span = span(Category::Train, "evaluate");
    let mut correct = 0usize;
    let mut total = 0usize;
    let n = data.len();
    let mut i = 0;
    while i < n {
        let end = (i + TEST_BATCH).min(n);
        let idx: Vec<usize> = (i..end).collect();
        let (images, labels) = data.gather(&idx);
        let x = preprocessing.apply(&images, channel_means);
        let logits = model.forward(&x, false);
        let preds = logits.argmax_rows();
        correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        total += labels.len();
        i = end;
    }
    correct as f32 / total.max(1) as f32
}

/// Runs the training (accuracy path) for a cell, ignoring the device —
/// device-dependent timings are derived afterwards via
/// [`TrainOutcome::simulated_times`].
pub fn run_training(
    host: FrameworkKind,
    setting: DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
) -> TrainOutcome {
    run_training_guarded(host, setting, dataset, scale, seed, None)
}

/// [`run_training`] with an optional [`TrainGuard`] invoked at every
/// epoch boundary. Violations never abort the run; they accumulate in
/// [`TrainOutcome::guard_violations`] so callers (and reports) can
/// surface them.
pub fn run_training_guarded(
    host: FrameworkKind,
    setting: DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
    guard: Option<&dyn TrainGuard>,
) -> TrainOutcome {
    match run_training_impl(host, setting, dataset, scale, seed, guard, None) {
        Ok(out) => out,
        Err(_) => unreachable!("training without a warm start cannot fail a checkpoint load"),
    }
}

/// [`run_training_guarded`], warm-started from a checkpoint stream:
/// the cell's model is built as usual, then its parameters are replaced
/// by the checkpoint before the first iteration. A checkpoint saved
/// from a different architecture fails with
/// [`CheckpointError::StructureMismatch`] instead of training garbage.
pub fn run_training_resumed(
    host: FrameworkKind,
    setting: DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
    guard: Option<&dyn TrainGuard>,
    checkpoint: &mut dyn std::io::Read,
) -> Result<TrainOutcome, CheckpointError> {
    run_training_impl(host, setting, dataset, scale, seed, guard, Some(checkpoint))
}

fn run_training_impl(
    host: FrameworkKind,
    setting: DefaultSetting,
    dataset: DatasetKind,
    scale: Scale,
    seed: u64,
    guard: Option<&dyn TrainGuard>,
    warm_start: Option<&mut dyn std::io::Read>,
) -> Result<TrainOutcome, CheckpointError> {
    let config = setting.training();
    let arch = effective_arch(host, &setting);
    let weight_decay = effective_weight_decay(host, dataset, &config);
    let preprocessing = effective_preprocessing(host, &setting, dataset);

    let (train, test) = generate_data(dataset, scale, seed);
    let channel_means = Preprocessing::channel_means(&train);

    // Model + optimizer. The model RNG stream matches
    // `build_cell_model` exactly, so a checkpoint loaded against that
    // function's output is interchangeable with a freshly trained cell.
    let mut rng = cell_model_rng(host, &setting, seed);
    let dims = input_dims(dataset, scale.image_size(dataset));
    let mut model = arch.build(dims, scale.width_mult(), host.initializer(), &mut rng);
    if let Some(mut reader) = warm_start {
        dlbench_nn::load_parameters(&mut model, &mut reader)?;
    }
    // SGD needs a step budget inversely proportional to its learning
    // rate to reach its asymptote; epoch compression alone would starve
    // the low-rate configurations (Caffe's CIFAR-10 solver at 1e-3).
    let exec_iters = planned_iterations(&config, setting.tuned_for, dataset, scale);
    let mut optimizer = make_optimizer(&config, weight_decay, exec_iters);

    // Training loop.
    let mut batches = BatchIter::new(&train, config.batch_size, rng.fork(2));
    let mut loss_node = SoftmaxCrossEntropy::new();
    let mut loss_curve = Vec::new();
    let record_every = (exec_iters / 60).max(1);
    let mut diverged = false;
    let mut first_loss = f32::NAN;
    // Epoch boundaries pace the guard hook; a diverged run keeps
    // hitting them so guards still see (and can report) the blow-up.
    let iters_per_epoch = (train.len() / config.batch_size).max(1);
    let mut guard_violations = Vec::new();
    let mut guard_tripped = false;
    let started = Stopwatch::start();
    let train_span = span(Category::Train, "train");
    let mut epoch_span = span(Category::Train, "epoch");

    for it in 0..exec_iters {
        // The previous iteration's span has closed, so the epoch span
        // can be renewed at the boundary without orphaning a child.
        if it > 0 && it % iters_per_epoch == 0 {
            drop(epoch_span);
            epoch_span = span(Category::Train, "epoch");
        }
        let _iter_span = span(Category::Train, "iteration");
        let mut step_loss = DIVERGED_LOSS;
        if diverged {
            // Paper Figure 5: a diverged run's loss stays flat at its
            // ceiling for the rest of the schedule.
            if it % record_every == 0 {
                loss_curve.push((it, DIVERGED_LOSS));
            }
        } else {
            let (images, labels) = batches.next_batch();
            let x = preprocessing.apply(&images, &channel_means);
            let logits = model.forward(&x, true);
            let (loss, _) = loss_node.forward(&logits, &labels);
            step_loss = loss;
            if first_loss.is_nan() {
                first_loss = loss;
            }
            if it % record_every == 0 {
                loss_curve.push((
                    it,
                    if loss.is_finite() { loss.min(DIVERGED_LOSS) } else { DIVERGED_LOSS },
                ));
            }
            // Divergence latch: non-finite values, or a saturated
            // softmax (loss beyond any achievable initialization value)
            // mean the run has exploded. Caffe reports exactly this as
            // its flat 87.34 line in the paper's Figure 5; at some
            // scales the explosion collapses to uniform predictions
            // (loss ln 10) instead of NaN, which the latch still
            // catches at the moment of saturation.
            if !loss.is_finite() || loss > 20.0 || logits.has_non_finite() {
                diverged = true;
            } else {
                model.zero_grads();
                model.backward(&loss_node.backward());
                optimizer.step(&mut model.params(), it);
                // Divergence guard: non-finite parameters end learning.
                if model.params().iter().any(|p| p.value.has_non_finite()) {
                    diverged = true;
                }
            }
        }
        if let Some(g) = guard {
            // First violation wins: repeating the same message every
            // remaining epoch would drown the report.
            if !guard_tripped && ((it + 1) % iters_per_epoch == 0 || it + 1 == exec_iters) {
                let mut ctx = GuardCtx {
                    epoch: it / iters_per_epoch,
                    iteration: it,
                    loss: step_loss,
                    model: &mut model,
                };
                if let Err(msg) = g.after_epoch(&mut ctx) {
                    guard_violations.push(msg);
                    guard_tripped = true;
                }
            }
        }
    }
    drop(epoch_span);
    drop(train_span);
    let wall_train_seconds = started.elapsed_s();

    // Evaluation.
    let eval_started = Stopwatch::start();
    let accuracy = evaluate(&mut model, &test, preprocessing, &channel_means);
    let wall_test_seconds = eval_started.elapsed_s();

    // Convergence check over the tail of the curve (single-batch losses
    // are noisy at batch size 1, so average the last several samples).
    // The absolute criterion is "strictly better than predicting the
    // uniform distribution" (ln 10 ≈ 2.3026): a run that ends at the
    // uniform plateau has learned nothing.
    let tail = &loss_curve[loss_curve.len().saturating_sub(8)..];
    let tail_loss = if tail.is_empty() {
        f32::NAN
    } else {
        tail.iter().map(|&(_, l)| l).sum::<f32>() / tail.len() as f32
    };
    let _ = first_loss;
    let converged = !diverged && tail_loss.is_finite() && tail_loss < 2.30;

    // Timing path: paper-scale costs.
    let native = setting.tuned_for.native_size();
    // The architecture geometry follows the setting's tuned-for dataset;
    // channels follow the dataset actually trained on (for text both
    // agree: one channel of token ids).
    let paper_input = if setting.tuned_for.is_text() {
        (1, native, 1)
    } else {
        (dataset.channels(), native, native)
    };
    let paper_train_batch_cost = arch.paper_cost(paper_input, config.batch_size);
    let mut rng2 = SeededRng::new(0);
    let paper_net = arch.build(paper_input, 1.0, host.initializer(), &mut rng2);
    let mut fwd_only = paper_net.cost(&[TEST_BATCH, paper_input.0, paper_input.1, paper_input.2]);
    fwd_only.bwd_flops = 0;
    fwd_only.bwd_kernels = 0;
    let paper_test_batch_cost = fwd_only;

    Ok(TrainOutcome {
        host,
        accuracy,
        loss_curve,
        converged,
        executed_iterations: exec_iters,
        paper_iterations: config.max_iterations,
        paper_batch_size: config.batch_size,
        wall_train_seconds,
        wall_test_seconds,
        model,
        preprocessing,
        channel_means,
        paper_train_batch_cost,
        paper_test_batch_cost,
        guard_violations,
    })
}

/// Runs a full cell (training + device timings).
pub fn run_cell(cell: &Cell, scale: Scale, seed: u64) -> CellOutcome {
    let outcome = run_training(cell.host, cell.setting, cell.dataset, scale, seed);
    let times = outcome.simulated_times(&cell.device);
    CellOutcome { cell: cell.clone(), times, outcome }
}

/// A [`TrainOutcome`] paired with its cell and simulated times.
pub struct CellOutcome {
    /// The cell that was run.
    pub cell: Cell,
    /// Simulated training/testing times on the cell's device.
    pub times: SimTimes,
    /// The underlying training outcome.
    pub outcome: TrainOutcome,
}

impl std::ops::Deref for CellOutcome {
    type Target = TrainOutcome;
    fn deref(&self) -> &TrainOutcome {
        &self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_simtime::devices;

    #[test]
    fn tf_mnist_own_default_learns_at_tiny_scale() {
        let cell = Cell::own_default(
            FrameworkKind::TensorFlow,
            DatasetKind::Mnist,
            devices::gtx_1080_ti(),
        );
        let out = run_cell(&cell, Scale::Tiny, 1);
        assert!(out.accuracy > 0.5, "accuracy {}", out.accuracy);
        assert!(out.converged);
        assert!(!out.loss_curve.is_empty());
        assert!(out.times.train_seconds > 0.0);
        assert_eq!(out.paper_iterations, 20_000);
    }

    #[test]
    fn torch_imdb_own_default_learns_at_tiny_scale() {
        let cell =
            Cell::own_default(FrameworkKind::Torch, DatasetKind::Imdb, devices::gtx_1080_ti());
        let out = run_cell(&cell, Scale::Tiny, 1);
        assert!(out.accuracy > 0.6, "text accuracy {}", out.accuracy);
        assert!(out.converged);
        assert!(out.times.train_seconds > 0.0);
    }

    #[test]
    fn imdb_checkpoint_roundtrips_through_build_cell_model() {
        // The embedding table and conv-bank branches must serialize in
        // the same order build_cell_model rebuilds them.
        let s = DefaultSetting::new(FrameworkKind::Caffe, DatasetKind::Imdb);
        let mut out = run_training(FrameworkKind::Caffe, s, DatasetKind::Imdb, Scale::Tiny, 4);
        let mut buf = Vec::new();
        dlbench_nn::save_parameters(&mut out.model, &mut buf).unwrap();
        let mut rebuilt =
            build_cell_model(FrameworkKind::Caffe, &s, DatasetKind::Imdb, Scale::Tiny, 4);
        dlbench_nn::load_parameters(&mut rebuilt, &mut buf.as_slice()).unwrap();
        let (_, test) = generate_data(DatasetKind::Imdb, Scale::Tiny, 4);
        let (x, _) = test.gather(&[0, 1, 2]);
        assert_eq!(rebuilt.forward(&x, false), out.model.forward(&x, false));
    }

    #[test]
    fn effective_arch_moves_dropout_with_host() {
        let tf_setting = DefaultSetting::new(FrameworkKind::TensorFlow, DatasetKind::Mnist);
        // Caffe hosting TF's setting: dropout stripped.
        let caffe_arch = effective_arch(FrameworkKind::Caffe, &tf_setting);
        assert!(!caffe_arch.entries.iter().any(|e| matches!(e, LayerSpecEntry::Dropout { .. })));
        // TF hosting Caffe's setting: dropout inserted.
        let caffe_setting = DefaultSetting::new(FrameworkKind::Caffe, DatasetKind::Mnist);
        let tf_arch = effective_arch(FrameworkKind::TensorFlow, &caffe_setting);
        assert!(tf_arch.entries.iter().any(|e| matches!(e, LayerSpecEntry::Dropout { .. })));
    }

    #[test]
    fn effective_weight_decay_follows_host_method() {
        let tf_mnist = training_config(FrameworkKind::TensorFlow, DatasetKind::Mnist);
        // Caffe hosting TF's MNIST setting (no lambda in the setting):
        // falls back to Caffe's own default 5e-4.
        let wd = effective_weight_decay(FrameworkKind::Caffe, DatasetKind::Mnist, &tf_mnist);
        assert_eq!(wd, 5e-4);
        // TF hosting its own setting: dropout, no decay.
        let wd = effective_weight_decay(FrameworkKind::TensorFlow, DatasetKind::Mnist, &tf_mnist);
        assert_eq!(wd, 0.0);
    }

    fn training_config(fw: FrameworkKind, ds: DatasetKind) -> TrainingConfig {
        crate::defaults::training_defaults(fw, ds)
    }

    #[test]
    fn same_dataset_same_data_across_frameworks() {
        let (a_train, _) = generate_data(DatasetKind::Mnist, Scale::Tiny, 5);
        let (b_train, _) = generate_data(DatasetKind::Mnist, Scale::Tiny, 5);
        assert_eq!(a_train.images, b_train.images);
    }

    #[test]
    fn simulated_times_gpu_faster_than_cpu_for_tf_mnist() {
        let out = run_training(
            FrameworkKind::TensorFlow,
            DefaultSetting::new(FrameworkKind::TensorFlow, DatasetKind::Mnist),
            DatasetKind::Mnist,
            Scale::Tiny,
            3,
        );
        let cpu = out.simulated_times(&devices::xeon_e5_1620());
        let gpu = out.simulated_times(&devices::gtx_1080_ti());
        assert!(gpu.train_seconds < cpu.train_seconds);
        assert!(gpu.test_seconds < cpu.test_seconds);
    }

    #[test]
    fn guard_runs_once_per_epoch_and_collects_first_violation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counting(AtomicUsize);
        impl TrainGuard for Counting {
            fn after_epoch(&self, ctx: &mut GuardCtx<'_>) -> Result<(), String> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Err(format!("epoch {}: always fails", ctx.epoch))
            }
        }
        let guard = Counting(AtomicUsize::new(0));
        let s = DefaultSetting::new(FrameworkKind::Torch, DatasetKind::Mnist);
        let out = run_training_guarded(
            FrameworkKind::Torch,
            s,
            DatasetKind::Mnist,
            Scale::Tiny,
            11,
            Some(&guard),
        );
        // First violation latches; later boundaries are not re-checked.
        assert_eq!(out.guard_violations, vec!["epoch 0: always fails".to_string()]);
        assert_eq!(guard.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unguarded_run_reports_no_violations() {
        let s = DefaultSetting::new(FrameworkKind::Torch, DatasetKind::Mnist);
        let out = run_training(FrameworkKind::Torch, s, DatasetKind::Mnist, Scale::Tiny, 11);
        assert!(out.guard_violations.is_empty());
    }

    #[test]
    fn build_cell_model_matches_trained_cell() {
        // A checkpoint saved from a trained cell must load cleanly into
        // build_cell_model's output (same arch, widths, param order) —
        // and an untrained build must reproduce the trained cell's
        // *initialization* exactly (same RNG stream).
        let s = DefaultSetting::new(FrameworkKind::Torch, DatasetKind::Mnist);
        let mut out = run_training(FrameworkKind::Torch, s, DatasetKind::Mnist, Scale::Tiny, 4);
        let mut buf = Vec::new();
        dlbench_nn::save_parameters(&mut out.model, &mut buf).unwrap();
        let mut rebuilt =
            build_cell_model(FrameworkKind::Torch, &s, DatasetKind::Mnist, Scale::Tiny, 4);
        dlbench_nn::load_parameters(&mut rebuilt, &mut buf.as_slice()).unwrap();
        let mut rng = SeededRng::new(99);
        let x = dlbench_tensor::Tensor::randn(&[2, 1, 16, 16], 0.0, 1.0, &mut rng);
        assert_eq!(rebuilt.forward(&x, false), out.model.forward(&x, false));
    }

    #[test]
    fn resumed_training_rejects_mismatched_checkpoint() {
        // A Caffe-MNIST checkpoint has different parameter shapes than
        // the Torch-MNIST cell; resuming must surface StructureMismatch
        // rather than panicking.
        let caffe = DefaultSetting::new(FrameworkKind::Caffe, DatasetKind::Mnist);
        let mut donor =
            build_cell_model(FrameworkKind::Caffe, &caffe, DatasetKind::Mnist, Scale::Tiny, 1);
        let mut buf = Vec::new();
        dlbench_nn::save_parameters(&mut donor, &mut buf).unwrap();
        let torch = DefaultSetting::new(FrameworkKind::Torch, DatasetKind::Mnist);
        let err = run_training_resumed(
            FrameworkKind::Torch,
            torch,
            DatasetKind::Mnist,
            Scale::Tiny,
            1,
            None,
            &mut buf.as_slice(),
        );
        let err = match err {
            Err(e) => e,
            Ok(_) => panic!("mismatched checkpoint must not train"),
        };
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
    }

    #[test]
    fn resumed_training_from_own_checkpoint_runs() {
        let s = DefaultSetting::new(FrameworkKind::Torch, DatasetKind::Mnist);
        let mut out = run_training(FrameworkKind::Torch, s, DatasetKind::Mnist, Scale::Tiny, 4);
        let mut buf = Vec::new();
        dlbench_nn::save_parameters(&mut out.model, &mut buf).unwrap();
        let resumed = run_training_resumed(
            FrameworkKind::Torch,
            s,
            DatasetKind::Mnist,
            Scale::Tiny,
            4,
            None,
            &mut buf.as_slice(),
        )
        .unwrap();
        // Warm-started from already-converged weights, the cell should
        // stay at least as accurate as chance and complete its budget.
        assert_eq!(resumed.executed_iterations, out.executed_iterations);
        assert!(resumed.accuracy > 0.2, "accuracy {}", resumed.accuracy);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = DefaultSetting::new(FrameworkKind::Caffe, DatasetKind::Mnist);
        let a = run_training(FrameworkKind::Caffe, s, DatasetKind::Mnist, Scale::Tiny, 9);
        let b = run_training(FrameworkKind::Caffe, s, DatasetKind::Mnist, Scale::Tiny, 9);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.loss_curve, b.loss_curve);
    }
}
