//! `evaluate` workload: the nine own-default cells at `Scale::Small`
//! with seeded-init models (weights do not change speed). A round runs,
//! per cell: an fp32 test pass (batch 100), an int8 test pass through
//! `QuantizedNetwork::forward`, and fixed-step PGD plus FGSM crafting
//! at batch 1 on `ATTACK_SAMPLES` test samples (pixel space for image
//! cells, embedding space for IMDB). Quantization (calibration) is
//! set-up.
//!
//! Checks: every pass's fp32 and int8 logits digest repeats the cell's
//! first pass, int8 batch-100 logits equal per-sample logits bit for
//! bit, the fp32 pass's accuracy equals `trainer::evaluate`, and pixel
//! attacks stay inside their ε-ball.

use crate::measure::{digest, ms, same_bits, timed_setup, Rounds, Tally, DIGEST_SEED};
use crate::train::{generate, Data, DATASETS};
use crate::{Ctx, Outcome};
use dlbench_adversarial::{fgsm, fgsm_embedding, pgd, pgd_embedding, EmbedAttackConfig};
use dlbench_adversarial::{FgsmConfig, PgdConfig};
use dlbench_data::Preprocessing;
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_json::JsonValue;
use dlbench_nn::Network;
use dlbench_quant::{cost_split, quantize_trained, QuantConfig, QuantizedNetwork};
use dlbench_simtime::{devices, CostModel};
use dlbench_tensor::{SeededRng, Tensor};
use dlbench_trace::{span, Category};
use std::time::Instant;

const SCALE: Scale = Scale::Small;
const BATCH: usize = trainer::TEST_BATCH;
/// Test samples each cell crafts adversarial examples for per round.
const ATTACK_SAMPLES: usize = 4;
const PGD_STEPS: usize = 10;
const PIXEL_EPSILON: f32 = 0.15;
const EMBED_EPSILON: f32 = 0.02;
/// Samples per cell whose int8 single-sample logits are checked against
/// their batch-100 row.
const BATCH_CHECK_SAMPLES: usize = 25;
const FRAMEWORKS: [FrameworkKind; 3] =
    [FrameworkKind::TensorFlow, FrameworkKind::Caffe, FrameworkKind::Torch];

struct Cell {
    label: String,
    data: usize,
    net: Network,
    qnet: QuantizedNetwork,
    preprocessing: Preprocessing,
    fp32_digest: Option<u64>,
    int8_digest: Option<u64>,
    fp32_correct: Option<usize>,
    /// Simtime-modeled seconds of one batch-100 test pass, fp32 and int8.
    modeled: (f64, f64),
}

impl Cell {
    fn new(host: FrameworkKind, data: usize, d: &Data, seed: u64) -> Self {
        let setting = DefaultSetting::new(host, d.kind);
        let build = || trainer::build_cell_model(host, &setting, d.kind, SCALE, seed);
        let net = build();
        let qnet =
            quantize_trained(build(), host, &setting, d.kind, SCALE, seed, &QuantConfig::default());
        let (c, h, w) = trainer::input_dims(d.kind, SCALE.image_size(d.kind));
        let (quantized, fallback) = cost_split(&net, &[BATCH, c, h, w]);
        let model = CostModel::new(devices::xeon_e5_1620(), host.execution_profile());
        let modeled = (
            model.inference_seconds_batched(&quantized.merge(fallback), BATCH),
            model.inference_seconds_batched_int8(&quantized, &fallback, BATCH),
        );
        Cell {
            label: format!("{}-{}", host.abbrev(), d.kind.name()),
            data,
            net,
            qnet,
            preprocessing: trainer::effective_preprocessing(host, &setting, d.kind),
            fp32_digest: None,
            int8_digest: None,
            fp32_correct: None,
            modeled,
        }
    }

    fn input(&self, d: &Data, idx: &[usize]) -> (Tensor, Vec<usize>) {
        let (images, labels) = d.test.gather(idx);
        (self.preprocessing.apply(&images, &d.means), labels)
    }
}

/// Operation kinds, each timed as its own latency class per cell.
const FP32: usize = 0;
const INT8: usize = 1;
const PGD: usize = 2;
const FGSM: usize = 3;

#[derive(Default)]
struct Totals {
    /// (samples, seconds) of fp32 passes, int8 passes and crafting.
    fp32: (f64, f64),
    int8: (f64, f64),
    attack: (f64, f64),
    /// Cell whose operations are being timed.
    cell: usize,
    /// Operation times per (cell, kind) class in the current round, ms.
    op_ms: Vec<Vec<f64>>,
    rounds: Rounds,
}

impl Totals {
    fn record(&mut self, kind: usize, samples: f64, dt: std::time::Duration) {
        let slot = match kind {
            FP32 => &mut self.fp32,
            INT8 => &mut self.int8,
            _ => &mut self.attack,
        };
        slot.0 += samples;
        slot.1 += dt.as_secs_f64();
        let class = self.cell * 4 + kind;
        if self.op_ms.len() <= class {
            self.op_ms.resize(class + 1, Vec::new());
        }
        self.op_ms[class].push(ms(dt));
    }

    fn sums(&self) -> (f64, f64) {
        (self.fp32.0 + self.int8.0 + self.attack.0, self.fp32.1 + self.int8.1 + self.attack.1)
    }
}

/// One test pass over a cell's test split; returns the logits digest
/// and the number of correct predictions.
fn test_pass(
    cell: &mut Cell,
    d: &Data,
    int8: bool,
    totals: &mut Totals,
    tally: &mut Tally,
) -> (u64, usize) {
    let n = d.test.len();
    let (mut h, mut correct) = (DIGEST_SEED, 0);
    for lo in (0..n).step_by(BATCH) {
        let idx: Vec<usize> = (lo..(lo + BATCH).min(n)).collect();
        let t = Instant::now();
        let (x, labels) = cell.input(d, &idx);
        let logits = if int8 {
            let _s = span(Category::Runner, "evaluate.int8_batch");
            cell.qnet.forward(&x, false)
        } else {
            let _s = span(Category::Runner, "evaluate.fp32_batch");
            cell.net.forward(&x, false)
        };
        let preds = logits.argmax_rows();
        let dt = t.elapsed();
        correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        h = digest(h, logits.data());
        totals.record(if int8 { INT8 } else { FP32 }, idx.len() as f64, dt);
        tally.op(logits.shape() == [idx.len(), d.kind.num_classes()]);
    }
    (h, correct)
}

/// Crafts PGD and FGSM examples for one test sample.
fn attack(cell: &mut Cell, d: &Data, i: usize, totals: &mut Totals, tally: &mut Tally) {
    let (x, labels) = cell.input(d, &[i]);
    let label = labels[0];
    let text = d.kind.is_text();
    let epsilon = if text { EMBED_EPSILON } else { PIXEL_EPSILON };
    let pgd_cfg = PgdConfig {
        epsilon,
        step: epsilon / 4.0,
        steps: PGD_STEPS,
        random_start: false,
        clamp: None,
    };
    let mut rng = SeededRng::new(0);
    for (name, kind) in [("adversarial.pgd", PGD), ("adversarial.fgsm", FGSM)] {
        let net = &mut cell.net;
        let t = Instant::now();
        let report = {
            let _s = span(Category::Runner, name);
            match (kind == PGD, text) {
                (true, true) => pgd_embedding(net, &x, label, 1, &pgd_cfg, &mut rng),
                (true, false) => pgd(net, &x, label, &pgd_cfg, &mut rng),
                (false, true) => {
                    fgsm_embedding(net, &x, label, &EmbedAttackConfig::standard(epsilon))
                }
                (false, false) => fgsm(net, &x, label, &FgsmConfig { epsilon, clamp: None }),
            }
        };
        let dt = t.elapsed();
        totals.record(kind, 1.0, dt);
        // Pixel attacks perturb the input itself: every coordinate must
        // stay within ε of the clean sample.
        let in_ball = text
            || report
                .adversarial
                .data()
                .iter()
                .zip(x.data())
                .all(|(a, b)| (a - b).abs() <= epsilon * (1.0 + 1e-5));
        tally.check(in_ball, || format!("{}: {name} left the ε-ball on sample {i}", cell.label));
    }
}

fn round(cells: &mut [Cell], data: &[Data], r: usize, totals: &mut Totals, tally: &mut Tally) {
    let (samples, busy) = totals.sums();
    for (ci, cell) in cells.iter_mut().enumerate() {
        totals.cell = ci;
        let d = &data[cell.data];
        let (h32, correct) = test_pass(cell, d, false, totals, tally);
        let (h8, _) = test_pass(cell, d, true, totals, tally);
        for (seen, h, kind) in
            [(&mut cell.fp32_digest, h32, "fp32"), (&mut cell.int8_digest, h8, "int8")]
        {
            match *seen {
                None => *seen = Some(h),
                Some(first) => tally.check(first == h, || {
                    format!("{}: {kind} logits digest changed between passes", cell.label)
                }),
            }
        }
        cell.fp32_correct.get_or_insert(correct);
        for j in 0..ATTACK_SAMPLES {
            let i = (r * ATTACK_SAMPLES + j) % d.test.len();
            attack(cell, d, i, totals, tally);
        }
    }
    let (s, b) = totals.sums();
    let classes = std::mem::take(&mut totals.op_ms);
    totals.rounds.push((s - samples) / (b - busy).max(1e-9), &classes);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed;
    ctx.tracing(true);
    let (setup_s, (data, mut cells)) = timed_setup(3, || {
        let data = generate(SCALE, seed);
        let cells: Vec<Cell> = DATASETS
            .iter()
            .enumerate()
            .flat_map(|(di, _)| FRAMEWORKS.iter().map(move |&fw| (fw, di)))
            .map(|(fw, di)| Cell::new(fw, di, &data[di], seed))
            .collect();
        (data, cells)
    });
    let mut totals = Totals::default();
    let mut tally = Tally::default();
    // An untimed warm-up round lets allocations and caches settle and
    // records every cell's first digests. A traced run then times one
    // untraced round as the overhead baseline before arming the
    // recorder.
    ctx.tracing(false);
    let mut scratch = Totals::default();
    round(&mut cells, &data, 0, &mut scratch, &mut tally);
    let baseline = Instant::now();
    if ctx.trace {
        round(&mut cells, &data, 1, &mut scratch, &mut tally);
    }
    let baseline = baseline.elapsed().as_secs_f64();
    ctx.tracing(true);
    let started = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        round(&mut cells, &data, rounds + 2, &mut totals, &mut tally);
        rounds += 1;
    }
    let per_round = started.elapsed().as_secs_f64() / rounds as f64;
    ctx.tracing(false);
    let mut extra = crate::layers::Extra::new();
    if ctx.trace {
        extra.insert("trace.overhead_ratio", per_round / baseline);
    }

    for cell in cells.iter_mut() {
        let d = &data[cell.data];
        // int8 batching is bit-transparent.
        let n = BATCH.min(d.test.len());
        let (x, _) = cell.input(d, &(0..n).collect::<Vec<_>>());
        let batched = cell.qnet.forward(&x, false);
        let width = batched.shape()[1];
        for k in 0..BATCH_CHECK_SAMPLES.min(n) {
            let (xk, _) = cell.input(d, &[k]);
            let single = cell.qnet.forward(&xk, false);
            let row = &batched.data()[k * width..(k + 1) * width];
            tally.check(same_bits(single.data(), row), || {
                format!("{}: int8 logits of sample {k} differ between batch 100 and 1", cell.label)
            });
        }
        // The measured fp32 pass is trainer::evaluate's pass.
        let acc = trainer::evaluate(&mut cell.net, &d.test, cell.preprocessing, &d.means);
        let ours = cell.fp32_correct.unwrap_or(0) as f32 / d.test.len().max(1) as f32;
        tally.check(acc.to_bits() == ours.to_bits(), || {
            format!("{}: fp32 pass accuracy {ours} vs trainer::evaluate {acc}", cell.label)
        });
    }

    let rate = |(n, s): (f64, f64)| if s > 0.0 { n / s } else { 0.0 };
    let (fp32_rate, int8_rate) = (rate(totals.fp32), rate(totals.int8));
    let measured_speedup = if fp32_rate > 0.0 { int8_rate / fp32_rate } else { 0.0 };
    let modeled_fp32: f64 = cells.iter().map(|c| c.modeled.0).sum();
    let modeled_int8: f64 = cells.iter().map(|c| c.modeled.1).sum();
    let modeled_speedup = modeled_fp32 / modeled_int8;
    extra.insert("evaluate.fp32_samples_per_s", fp32_rate);
    extra.insert("evaluate.int8_samples_per_s", int8_rate);
    extra.insert("evaluate.attack_samples_per_s", rate(totals.attack));
    extra.insert("evaluate.int8_speedup_measured", measured_speedup);
    extra.insert("evaluate.int8_speedup_modeled", modeled_speedup);

    let detail = vec![(
        "evaluate".to_string(),
        JsonValue::Object(vec![
            ("scale".into(), "small".into()),
            ("rounds".into(), rounds.into()),
            (
                "round_rates".into(),
                JsonValue::Array(totals.rounds.rates.iter().map(|&r| r.into()).collect()),
            ),
            ("fp32_samples_per_s".into(), fp32_rate.into()),
            ("int8_samples_per_s".into(), int8_rate.into()),
            ("attack_samples_per_s".into(), rate(totals.attack).into()),
            ("int8_speedup_measured".into(), measured_speedup.into()),
            ("int8_speedup_modeled_xeon_e5_1620".into(), modeled_speedup.into()),
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
