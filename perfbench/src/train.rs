//! `train` workload: the nine own-default cells (three personalities ×
//! MNIST/CIFAR-10/IMDB) at `Scale::Tiny`.
//!
//! Each step is taken from outside through the same public calls
//! `trainer::run_training` makes (`BatchIter::next_batch`,
//! `Preprocessing::apply`, `Network::forward`, `SoftmaxCrossEntropy`,
//! `Network::backward`, `Optimizer::step`), so a run can stop on time
//! and the data/optimizer share of a step is visible. A round runs the
//! next 1/`ROUND_DIVISOR` of every cell's planned schedule, so each
//! round has the step mix of the full nine-cell sweep, in which
//! Caffe-CIFAR-10 dominates. A cell that reaches the end of its
//! schedule starts over from its seeded initialization.
//!
//! Checks: every cell's first slice replays to the same loss bits at 1
//! thread and at `nproc` threads, with equal test accuracy, and two
//! cells trained by the measured loop over their whole schedule match
//! `run_training` (loss curve and accuracy) at both thread counts.

use crate::measure::{ms, same_bits, timed_setup, Rounds, Tally};
use crate::{Ctx, Outcome};
use dlbench_data::{BatchIter, Dataset, DatasetKind, Preprocessing};
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale, TrainingConfig};
use dlbench_json::JsonValue;
use dlbench_nn::{Network, SoftmaxCrossEntropy};
use dlbench_optim::Optimizer;
use dlbench_tensor::par;
use dlbench_trace::{span, Category};
use std::time::Instant;

const SCALE: Scale = Scale::Tiny;
const ROUND_DIVISOR: usize = 30;
const FRAMEWORKS: [FrameworkKind; 3] =
    [FrameworkKind::TensorFlow, FrameworkKind::Caffe, FrameworkKind::Torch];
pub const DATASETS: [DatasetKind; 3] =
    [DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::Imdb];
/// Cells retrained end to end by `run_training` for the equivalence
/// check (the two cheapest, one per image dataset).
const EQUIVALENCE_CELLS: [(FrameworkKind, DatasetKind); 2] =
    [(FrameworkKind::Torch, DatasetKind::Mnist), (FrameworkKind::Torch, DatasetKind::Cifar10)];

/// One dataset's splits and the training-set channel means.
pub struct Data {
    pub kind: DatasetKind,
    pub train: Dataset,
    pub test: Dataset,
    pub means: Vec<f32>,
}

pub fn generate(scale: Scale, seed: u64) -> Vec<Data> {
    DATASETS
        .iter()
        .map(|&kind| {
            let _s = span(Category::Runner, "data.generate");
            let (train, test) = trainer::generate_data(kind, scale, seed);
            let means = Preprocessing::channel_means(&train);
            Data { kind, train, test, means }
        })
        .collect()
}

/// A cell's fixed training plan.
struct Plan {
    host: FrameworkKind,
    setting: DefaultSetting,
    data: usize,
    config: TrainingConfig,
    weight_decay: f32,
    preprocessing: Preprocessing,
    planned: usize,
    slice: usize,
}

/// A cell's training state.
struct Run<'a> {
    model: Network,
    optimizer: Box<dyn Optimizer>,
    batches: BatchIter<'a>,
    loss: SoftmaxCrossEntropy,
    it: usize,
    diverged: bool,
}

impl Plan {
    fn new(host: FrameworkKind, data: usize, dataset: DatasetKind) -> Self {
        let setting = DefaultSetting::new(host, dataset);
        let config = setting.training();
        let planned = trainer::planned_iterations(&config, dataset, dataset, SCALE);
        Plan {
            host,
            setting,
            data,
            weight_decay: trainer::effective_weight_decay(host, dataset, &config),
            preprocessing: trainer::effective_preprocessing(host, &setting, dataset),
            config,
            planned,
            slice: planned.div_ceil(ROUND_DIVISOR),
        }
    }

    fn label(&self, data: &[Data]) -> String {
        format!("{}-{}", self.host.abbrev(), data[self.data].kind.name())
    }

    /// The cell's seeded model and its optimizer.
    fn build(&self, data: &Data, seed: u64) -> (Network, Box<dyn Optimizer>) {
        (
            trainer::build_cell_model(self.host, &self.setting, data.kind, SCALE, seed),
            trainer::make_optimizer(&self.config, self.weight_decay, self.planned),
        )
    }

    fn start<'a>(&self, data: &'a Data, seed: u64) -> Run<'a> {
        self.resume(self.build(data, seed), data, seed)
    }

    fn resume<'a>(
        &self,
        (model, optimizer): (Network, Box<dyn Optimizer>),
        data: &'a Data,
        seed: u64,
    ) -> Run<'a> {
        Run {
            model,
            optimizer,
            batches: BatchIter::new(
                &data.train,
                self.config.batch_size,
                trainer::batch_rng(self.host, &self.setting, seed),
            ),
            loss: SoftmaxCrossEntropy::new(),
            it: 0,
            diverged: false,
        }
    }

    /// One step exactly as `run_training` takes it. Returns the loss, or
    /// `None` once the run has diverged (`run_training` then skips the
    /// step's work).
    fn step(&self, run: &mut Run<'_>, data: &Data) -> Option<f32> {
        let it = run.it;
        run.it += 1;
        if run.diverged {
            return None;
        }
        let _iteration = span(Category::Runner, "trainer.iteration");
        let (images, labels) = {
            let _s = span(Category::Runner, "data.next_batch");
            run.batches.next_batch()
        };
        let x = {
            let _s = span(Category::Runner, "data.preprocess");
            self.preprocessing.apply(&images, &data.means)
        };
        let logits = run.model.forward(&x, true);
        let (loss, _) = run.loss.forward(&logits, &labels);
        if !loss.is_finite() || loss > 20.0 || logits.has_non_finite() {
            run.diverged = true;
        } else {
            run.model.zero_grads();
            run.model.backward(&run.loss.backward());
            {
                let _s = span(Category::Runner, "optim.step");
                run.optimizer.step(&mut run.model.params(), it);
            }
            if run.model.params().iter().any(|p| p.value.has_non_finite()) {
                run.diverged = true;
            }
        }
        Some(loss)
    }

    /// Trains from a fresh start for `steps` steps; returns the loss
    /// bits of each step and the test accuracy reached.
    fn replay(&self, data: &Data, seed: u64, steps: usize) -> (Vec<Option<u32>>, f32) {
        let mut run = self.start(data, seed);
        let losses = (0..steps).map(|_| self.step(&mut run, data).map(f32::to_bits)).collect();
        let acc = trainer::evaluate(&mut run.model, &data.test, self.preprocessing, &data.means);
        (losses, acc)
    }
}

#[derive(Default)]
struct Totals {
    samples: f64,
    busy_s: f64,
    steps: usize,
    rounds: Rounds,
}

/// Runs one round: the next slice of every cell.
fn round<'a>(
    plans: &[Plan],
    runs: &mut [Run<'a>],
    data: &'a [Data],
    seed: u64,
    first: &mut [Vec<Option<u32>>],
    totals: &mut Totals,
) {
    let (samples, busy) = (totals.samples, totals.busy_s);
    let mut step_ms = vec![Vec::new(); plans.len()];
    for (i, plan) in plans.iter().enumerate() {
        let d = &data[plan.data];
        for _ in 0..plan.slice {
            if runs[i].it == plan.planned {
                runs[i] = plan.start(d, seed);
            }
            let at = runs[i].it;
            let t = Instant::now();
            let loss = plan.step(&mut runs[i], d);
            let dt = t.elapsed();
            if at < plan.slice && first[i].len() == at {
                first[i].push(loss.map(f32::to_bits));
            }
            if loss.is_some() {
                totals.samples += plan.config.batch_size as f64;
                totals.busy_s += dt.as_secs_f64();
                totals.steps += 1;
                step_ms[i].push(ms(dt));
            }
        }
    }
    let rate = (totals.samples - samples) / (totals.busy_s - busy).max(1e-9);
    totals.rounds.push(rate, &step_ms);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed;
    ctx.tracing(true);
    let (setup_s, (data, plans, built)) = timed_setup(15, || {
        let data = generate(SCALE, seed);
        let plans: Vec<Plan> = data
            .iter()
            .enumerate()
            .flat_map(|(di, d)| FRAMEWORKS.iter().map(move |&fw| Plan::new(fw, di, d.kind)))
            .collect();
        let built: Vec<_> = plans.iter().map(|p| p.build(&data[p.data], seed)).collect();
        (data, plans, built)
    });
    let mut runs: Vec<Run<'_>> =
        plans.iter().zip(built).map(|(p, parts)| p.resume(parts, &data[p.data], seed)).collect();
    let mut first: Vec<Vec<Option<u32>>> = vec![Vec::new(); plans.len()];
    let mut totals = Totals::default();
    let mut tally = Tally::default();

    // An untimed warm-up round lets allocations and caches settle. A
    // traced run then times one untraced round as the overhead
    // baseline before arming the recorder.
    ctx.tracing(false);
    let mut scratch = Totals::default();
    round(&plans, &mut runs, &data, seed, &mut first, &mut scratch);
    let baseline = Instant::now();
    if ctx.trace {
        round(&plans, &mut runs, &data, seed, &mut first, &mut scratch);
    }
    let baseline = baseline.elapsed().as_secs_f64();
    ctx.tracing(true);
    let started = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        round(&plans, &mut runs, &data, seed, &mut first, &mut totals);
        rounds += 1;
    }
    let per_round = started.elapsed().as_secs_f64() / rounds as f64;
    ctx.tracing(false);
    let mut extra = crate::layers::Extra::new();
    if ctx.trace {
        extra.insert("trace.overhead_ratio", per_round / baseline);
    }
    let steps = totals.steps;
    for _ in 0..steps {
        tally.op(true);
    }

    // Checks: replays at 1 and nproc threads against the measured first
    // slice of every cell.
    for (i, plan) in plans.iter().enumerate() {
        let d = &data[plan.data];
        let label = plan.label(&data);
        par::set_threads(1);
        let (one, acc_one) = plan.replay(d, seed, plan.slice);
        par::set_threads(ctx.nproc);
        let (many, acc_many) = plan.replay(d, seed, plan.slice);
        tally.check(one == first[i], || format!("{label}: 1-thread replay losses differ"));
        tally.check(many == first[i], || format!("{label}: replay losses do not repeat"));
        tally.check(acc_one.to_bits() == acc_many.to_bits(), || {
            format!("{label}: accuracy {acc_one} at 1 thread vs {acc_many}")
        });
    }
    // Checks: the measured loop is run_training's loop.
    for (host, dataset) in EQUIVALENCE_CELLS {
        let di = data.iter().position(|d| d.kind == dataset).expect("dataset generated");
        let plan = Plan::new(host, di, dataset);
        let label = plan.label(&data);
        let (losses, acc) = plan.replay(&data[di], seed, plan.planned);
        let setting = plan.setting;
        let out = trainer::run_training(host, setting, dataset, SCALE, seed);
        par::set_threads(1);
        let out_one = trainer::run_training(host, setting, dataset, SCALE, seed);
        par::set_threads(ctx.nproc);
        // run_training records min(loss, DIVERGED_LOSS), and the
        // ceiling for non-finite or skipped steps.
        let curve_matches = out.loss_curve.iter().all(|&(it, l)| {
            let expect = match losses[it].map(f32::from_bits) {
                Some(v) if v.is_finite() => v.min(trainer::DIVERGED_LOSS),
                _ => trainer::DIVERGED_LOSS,
            };
            expect.to_bits() == l.to_bits()
        });
        tally.check(curve_matches, || format!("{label}: loop losses differ from run_training"));
        tally.check(acc.to_bits() == out.accuracy.to_bits(), || {
            format!("{label}: loop accuracy {acc} vs run_training {}", out.accuracy)
        });
        tally.check(
            out_one.accuracy.to_bits() == out.accuracy.to_bits()
                && same_bits(&[out_one.final_loss()], &[out.final_loss()]),
            || format!("{label}: run_training differs between 1 and {} threads", ctx.nproc),
        );
    }

    let cells: Vec<JsonValue> = plans
        .iter()
        .map(|p| {
            JsonValue::Object(vec![
                ("cell".into(), p.label(&data).as_str().into()),
                ("planned_steps".into(), p.planned.into()),
                ("steps_per_round".into(), p.slice.into()),
                ("batch".into(), p.config.batch_size.into()),
            ])
        })
        .collect();
    let detail = vec![(
        "train".to_string(),
        JsonValue::Object(vec![
            ("scale".into(), "tiny".into()),
            ("rounds".into(), rounds.into()),
            ("steps".into(), steps.into()),
            (
                "round_rates".into(),
                JsonValue::Array(totals.rounds.rates.iter().map(|&r| r.into()).collect()),
            ),
            ("cells".into(), JsonValue::Array(cells)),
        ]),
    )];
    Outcome {
        setup_s,
        samples_per_s: totals.rounds.rate(),
        p50_ms: totals.rounds.latency(),
        tally,
        rounds: rounds as f64,
        extra,
        detail,
    }
}
