//! Determinism gate: the parallel execution layer must be bit-identical
//! to serial execution at every thread count.
//!
//! This is the contract the whole parallelization rests on (see
//! `dlbench_tensor::par`): work is partitioned so each output row's
//! floating-point accumulation order is exactly the serial kernel's.
//! These tests flip the global thread count, so they serialize on a
//! local mutex — thread count is process-global state.

use dlbench_core::{experiments, BenchmarkRunner, ExperimentReport};
use dlbench_frameworks::Scale;
use dlbench_nn::{
    Conv2d, Flatten, Initializer, Layer, Linear, MaxPool2d, Network, Relu, SoftmaxCrossEntropy,
};
use dlbench_optim::{Adam, LrPolicy, Optimizer};
use dlbench_tensor::{gemm, par, SeededRng, Tensor};
use std::sync::Mutex;

/// Serializes tests that mutate the global worker count.
static THREADS_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    THREADS_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` at the given thread count, restoring single-threaded
/// execution afterwards so unrelated tests see a fixed configuration.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    par::set_threads(n);
    let out = f();
    par::set_threads(1);
    out
}

#[test]
fn gemm_is_bit_identical_across_thread_counts() {
    let _gate = gate();
    let mut rng = SeededRng::new(0xD373);
    // Big enough to clear par::PAR_MIN_WORK so 4 threads really fan out.
    let (m, k, n) = (128, 96, 80);
    let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
    assert!(m * k * n >= par::PAR_MIN_WORK);

    let mut serial = vec![0.0f32; m * n];
    at_threads(1, || gemm(m, k, n, a.data(), b.data(), &mut serial));
    let mut parallel = vec![0.0f32; m * n];
    at_threads(4, || gemm(m, k, n, a.data(), b.data(), &mut parallel));

    // Bitwise, not approximate: determinism means the same floats.
    let serial_bits: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
    let parallel_bits: Vec<u32> = parallel.iter().map(|v| v.to_bits()).collect();
    assert_eq!(serial_bits, parallel_bits);
}

#[test]
fn conv_backward_is_bit_identical_across_thread_counts() {
    let _gate = gate();
    // Geometry chosen so the im2col GEMM clears par::PAR_MIN_WORK and
    // the backward pass genuinely fans out at 4 threads:
    // per-sample m*k*n = 16 * (8*3*3) * (32*32) ≈ 1.2M elements.
    let (n, c, hw, oc, k) = (8, 8, 32, 16, 3);
    assert!(oc * (c * k * k) * (hw * hw) >= par::PAR_MIN_WORK);

    let run = |threads: usize| {
        at_threads(threads, || {
            let mut rng = SeededRng::new(0xC0DE);
            let mut conv = Conv2d::new(c, oc, k, 1, 1, Initializer::Xavier, &mut rng);
            let x = Tensor::randn(&[n, c, hw, hw], 0.0, 1.0, &mut rng);
            let y = conv.forward(&x, true);
            let g = Tensor::randn(y.shape(), 0.0, 1.0, &mut rng);
            let gx = conv.backward(&g);
            let mut grads: Vec<Vec<u32>> = conv
                .params()
                .iter()
                .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
                .collect();
            grads.push(gx.data().iter().map(|v| v.to_bits()).collect());
            grads
        })
    };

    // Bitwise: input gradient and every parameter gradient.
    assert_eq!(run(1), run(4), "conv backward differs across thread counts");
}

fn adam_fixture(rng: &mut SeededRng) -> Network {
    let mut net = Network::new("determinism-adam");
    net.push(Conv2d::new(3, 16, 3, 1, 1, Initializer::Xavier, rng));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2, false));
    net.push(Flatten::new());
    net.push(Linear::new(16 * 16 * 16, 10, Initializer::Xavier, rng));
    net
}

#[test]
fn adam_update_is_bit_identical_across_thread_counts() {
    let _gate = gate();
    let run = |threads: usize| {
        at_threads(threads, || {
            let mut rng = SeededRng::new(0xADA0);
            let mut net = adam_fixture(&mut rng);
            let x = Tensor::randn(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
            let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
            let mut loss = SoftmaxCrossEntropy::new();
            let mut adam = Adam::new(1e-3, 0.9, 0.999, 1e-8, LrPolicy::Fixed);
            for it in 0..3 {
                let logits = net.forward(&x, true);
                loss.forward(&logits, &labels);
                net.zero_grads();
                net.backward(&loss.backward());
                adam.step(&mut net.params(), it);
            }
            net.snapshot()
                .iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
                .collect::<Vec<_>>()
        })
    };

    // Three full forward/backward/Adam iterations must land on exactly
    // the same parameters regardless of worker count.
    assert_eq!(run(1), run(4), "Adam-updated params differ across thread counts");
}

/// Zeroes the one field that is *measured* rather than computed —
/// `wall_train_s` is host wall-clock time and differs run to run even
/// at a fixed thread count. Everything else must match bitwise.
fn computed_only(mut report: ExperimentReport) -> ExperimentReport {
    for row in &mut report.rows {
        row.wall_train_s = 0.0;
    }
    report
}

#[test]
fn micro_batched_serving_matches_individual_forwards_bitwise() {
    let _gate = gate();
    use dlbench_data::DatasetKind;
    use dlbench_frameworks::{trainer, FrameworkKind};
    use dlbench_serve::{loadgen, serve, BatchConfig, ModelRegistry, ModelSpec};
    use std::time::Duration;

    // Train a real cell and checkpoint it — the model the server loads
    // must be the model offline inference uses.
    let host = FrameworkKind::TensorFlow;
    let (scale, seed) = (Scale::Tiny, 42);
    let mut out = trainer::run_training(
        host,
        dlbench_frameworks::DefaultSetting::new(host, DatasetKind::Mnist),
        DatasetKind::Mnist,
        scale,
        seed,
    );
    let mut checkpoint = Vec::new();
    dlbench_nn::save_parameters(&mut out.model, &mut checkpoint).unwrap();

    let spec = ModelSpec::own_default("m", host, DatasetKind::Mnist, scale, seed);
    let served = spec.instantiate_from(&mut checkpoint.as_slice()).unwrap();
    let inputs = loadgen::sample_inputs(DatasetKind::Mnist, scale, seed, 12);

    // Reference: one forward per sample (batch size 1) offline.
    let reference: Vec<Vec<u32>> = {
        let solo = spec.instantiate_from(&mut checkpoint.as_slice()).unwrap();
        let mut model = solo.model;
        let (c, h, w) = spec.input_dims();
        inputs
            .iter()
            .map(|input| {
                let raw = Tensor::from_vec(&[1, c, h, w], input.clone()).unwrap();
                let x = solo.preprocessing.apply(&raw, &solo.channel_means);
                model.forward(&x, false).data().iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    };

    // Serve the same checkpoint with a generous flush deadline so the
    // concurrent requests really coalesce into multi-row batches.
    let mut registry = ModelRegistry::new();
    let config =
        BatchConfig { max_batch: 4, max_wait: Duration::from_millis(50), queue_capacity: 64 };
    registry.register(served, config).unwrap();
    let server = serve(registry, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let (replies, max_batch_seen) = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|input| scope.spawn(move || loadgen::predict(addr, "m", input).unwrap()))
            .collect();
        let mut replies = Vec::new();
        let mut max_batch_seen = 0usize;
        for h in handles {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200, "predict failed: {}", body.pretty());
            max_batch_seen =
                max_batch_seen.max(body["batch_size"].as_f64().unwrap_or(0.0) as usize);
            let logits: Vec<u32> = body["logits"]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| (v.as_f64().unwrap() as f32).to_bits())
                .collect();
            replies.push(logits);
        }
        (replies, max_batch_seen)
    });
    server.shutdown();

    // Bitwise, through JSON and HTTP: micro-batching must not change a
    // single mantissa bit relative to single-sample offline inference.
    assert_eq!(replies, reference, "batched serving diverged from offline forwards");
    assert!(max_batch_seen >= 2, "deadline batching never formed a multi-request batch");
}

#[test]
fn quantized_serving_is_bit_deterministic_across_batching_and_threads() {
    let _gate = gate();
    use dlbench_data::DatasetKind;
    use dlbench_frameworks::{trainer, FrameworkKind};
    use dlbench_serve::{loadgen, serve, BatchConfig, ModelDtype, ModelRegistry, ModelSpec};
    use std::time::Duration;

    // The int8 determinism contract: per-tensor activation parameters
    // are frozen at calibration time, so a sample's quantized bits
    // cannot depend on its batch neighbours, and i32 accumulation is
    // exact, so they cannot depend on the worker count either.
    let host = FrameworkKind::TensorFlow;
    let (scale, seed) = (Scale::Tiny, 42);
    let mut out = trainer::run_training(
        host,
        dlbench_frameworks::DefaultSetting::new(host, DatasetKind::Mnist),
        DatasetKind::Mnist,
        scale,
        seed,
    );
    let mut checkpoint = Vec::new();
    dlbench_nn::save_parameters(&mut out.model, &mut checkpoint).unwrap();

    let spec = ModelSpec::own_default("m", host, DatasetKind::Mnist, scale, seed)
        .with_dtype(ModelDtype::Int8);
    let inputs = loadgen::sample_inputs(DatasetKind::Mnist, scale, seed, 12);

    // Single-sample int8 forwards, quantize-on-load included, at a
    // given worker count.
    let single = |threads: usize| -> Vec<Vec<u32>> {
        at_threads(threads, || {
            let solo = spec.instantiate_from(&mut checkpoint.as_slice()).unwrap();
            let mut model = solo.model;
            let (c, h, w) = spec.input_dims();
            inputs
                .iter()
                .map(|input| {
                    let raw = Tensor::from_vec(&[1, c, h, w], input.clone()).unwrap();
                    let x = solo.preprocessing.apply(&raw, &solo.channel_means);
                    model.forward(&x, false).data().iter().map(|v| v.to_bits()).collect()
                })
                .collect()
        })
    };
    let reference = single(1);
    assert_eq!(reference, single(4), "int8 forwards differ between 1 and 4 threads");

    // Serve the quantized model with a generous flush deadline so the
    // concurrent requests really coalesce into multi-row batches, at
    // 4 worker threads.
    let served = spec.instantiate_from(&mut checkpoint.as_slice()).unwrap();
    let mut registry = ModelRegistry::new();
    let config =
        BatchConfig { max_batch: 4, max_wait: Duration::from_millis(50), queue_capacity: 64 };
    registry.register(served, config).unwrap();
    par::set_threads(4);
    let server = serve(registry, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let (replies, max_batch_seen) = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|input| scope.spawn(move || loadgen::predict(addr, "m", input).unwrap()))
            .collect();
        let mut replies = Vec::new();
        let mut max_batch_seen = 0usize;
        for h in handles {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200, "predict failed: {}", body.pretty());
            max_batch_seen =
                max_batch_seen.max(body["batch_size"].as_f64().unwrap_or(0.0) as usize);
            let logits: Vec<u32> = body["logits"]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| (v.as_f64().unwrap() as f32).to_bits())
                .collect();
            replies.push(logits);
        }
        (replies, max_batch_seen)
    });
    server.shutdown();
    par::set_threads(1);

    assert_eq!(replies, reference, "batched int8 serving diverged from single-sample forwards");
    assert!(max_batch_seen >= 2, "deadline batching never formed a multi-request batch");
}

#[test]
fn text_training_is_bit_identical_across_thread_counts() {
    let _gate = gate();
    use dlbench_data::DatasetKind;
    use dlbench_frameworks::{trainer, FrameworkKind};

    // The text modality's determinism contract: embedding scatter-add
    // and the conv1d bank's im2col+GEMM lowering keep every reduction
    // chain fixed, so a full IMDB training run lands on the same
    // parameter bytes at any worker count.
    let run = |threads: usize| {
        at_threads(threads, || {
            let host = FrameworkKind::Torch;
            let mut out = trainer::run_training(
                host,
                dlbench_frameworks::DefaultSetting::new(host, DatasetKind::Imdb),
                DatasetKind::Imdb,
                Scale::Tiny,
                42,
            );
            let mut checkpoint = Vec::new();
            dlbench_nn::save_parameters(&mut out.model, &mut checkpoint).unwrap();
            let losses: Vec<u32> = out.loss_curve.iter().map(|&(_, l)| l.to_bits()).collect();
            (checkpoint, losses, out.accuracy.to_bits())
        })
    };
    assert_eq!(run(1), run(4), "IMDB training differs between 1 and 4 threads");
}

#[test]
fn text_batched_serving_matches_single_sample_forwards_bitwise() {
    let _gate = gate();
    use dlbench_data::DatasetKind;
    use dlbench_frameworks::{trainer, FrameworkKind};
    use dlbench_serve::{loadgen, serve, BatchConfig, ModelRegistry, ModelSpec};
    use std::time::Duration;

    // Token inputs through the whole serving path: train an IMDB cell,
    // checkpoint it, and demand the micro-batcher change no bits
    // relative to single-sample offline forwards — at 4 worker threads.
    let host = FrameworkKind::TensorFlow;
    let (scale, seed) = (Scale::Tiny, 42);
    let mut out = trainer::run_training(
        host,
        dlbench_frameworks::DefaultSetting::new(host, DatasetKind::Imdb),
        DatasetKind::Imdb,
        scale,
        seed,
    );
    let mut checkpoint = Vec::new();
    dlbench_nn::save_parameters(&mut out.model, &mut checkpoint).unwrap();

    let spec = ModelSpec::own_default("m", host, DatasetKind::Imdb, scale, seed);
    let inputs = loadgen::sample_inputs(DatasetKind::Imdb, scale, seed, 12);

    // Reference: one forward per token sequence (batch size 1) offline,
    // single-threaded.
    let reference: Vec<Vec<u32>> = at_threads(1, || {
        let solo = spec.instantiate_from(&mut checkpoint.as_slice()).unwrap();
        let mut model = solo.model;
        let (c, h, w) = spec.input_dims();
        inputs
            .iter()
            .map(|input| {
                let raw = Tensor::from_vec(&[1, c, h, w], input.clone()).unwrap();
                let x = solo.preprocessing.apply(&raw, &solo.channel_means);
                model.forward(&x, false).data().iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    });

    let served = spec.instantiate_from(&mut checkpoint.as_slice()).unwrap();
    let mut registry = ModelRegistry::new();
    let config =
        BatchConfig { max_batch: 4, max_wait: Duration::from_millis(50), queue_capacity: 64 };
    registry.register(served, config).unwrap();
    par::set_threads(4);
    let server = serve(registry, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let (replies, max_batch_seen) = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|input| scope.spawn(move || loadgen::predict(addr, "m", input).unwrap()))
            .collect();
        let mut replies = Vec::new();
        let mut max_batch_seen = 0usize;
        for h in handles {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200, "predict failed: {}", body.pretty());
            max_batch_seen =
                max_batch_seen.max(body["batch_size"].as_f64().unwrap_or(0.0) as usize);
            let logits: Vec<u32> = body["logits"]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| (v.as_f64().unwrap() as f32).to_bits())
                .collect();
            replies.push(logits);
        }
        (replies, max_batch_seen)
    });
    server.shutdown();
    par::set_threads(1);

    assert_eq!(replies, reference, "batched token serving diverged from offline forwards");
    assert!(max_batch_seen >= 2, "deadline batching never formed a multi-request batch");
}

#[test]
fn fleet_serving_is_bit_transparent_across_routing_replicas_and_scaling() {
    let _gate = gate();
    use dlbench_data::DatasetKind;
    use dlbench_fleet::{Fleet, FleetConfig, RoutingPolicy};
    use dlbench_frameworks::FrameworkKind;
    use dlbench_serve::{loadgen, BatchConfig, ModelSpec};
    use std::time::Duration;

    // The fleet determinism contract: for a fixed model version, a
    // prediction is the same bits no matter which routing policy picked
    // the replica, how many replicas exist, or whether the fleet
    // scaled mid-stream — every replica is rebuilt from the same
    // checkpoint bytes and batching is bit-transparent.
    let spec =
        ModelSpec::own_default("m", FrameworkKind::TensorFlow, DatasetKind::Mnist, Scale::Tiny, 42);
    let mut served = spec.instantiate(None).unwrap();
    let mut checkpoint = Vec::new();
    dlbench_nn::save_parameters(&mut served.model, &mut checkpoint).unwrap();
    let inputs = loadgen::sample_inputs(DatasetKind::Mnist, Scale::Tiny, 42, 12);

    // Reference: one forward per sample (batch size 1) offline.
    let reference: Vec<Vec<u32>> = {
        let solo = spec.instantiate_from(&mut checkpoint.as_slice()).unwrap();
        let mut model = solo.model;
        let (c, h, w) = spec.input_dims();
        inputs
            .iter()
            .map(|input| {
                let raw = Tensor::from_vec(&[1, c, h, w], input.clone()).unwrap();
                let x = solo.preprocessing.apply(&raw, &solo.channel_means);
                model.forward(&x, false).data().iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    };

    for policy in RoutingPolicy::ALL {
        for replicas in [1usize, 3] {
            let config = FleetConfig {
                replicas,
                policy,
                batch: BatchConfig {
                    max_batch: 4,
                    max_wait: Duration::from_millis(2),
                    queue_capacity: 64,
                },
                ..Default::default()
            };
            let fleet = Fleet::new(spec.clone(), config, Some(checkpoint.clone())).unwrap();
            for (round, (input, expected)) in inputs.iter().zip(&reference).enumerate() {
                // Scale up and back down mid-stream: scaling activity
                // must not change a single mantissa bit either.
                if round == 4 {
                    fleet.scale_to(replicas + 2).unwrap();
                }
                if round == 8 {
                    fleet.scale_to(replicas).unwrap();
                }
                let p = fleet.predict(input.clone()).unwrap();
                assert_eq!(p.version, 0);
                let bits: Vec<u32> = p.logits.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    &bits,
                    expected,
                    "{} x{replicas} diverged from offline forwards at round {round}",
                    policy.name(),
                );
            }
            fleet.drain();
        }
    }
}

#[test]
fn tracing_enabled_keeps_gemm_bit_identical_at_four_threads() {
    let _gate = gate();
    // Recording spans must be pure observation: enabling the tracer
    // cannot change a single mantissa bit of a 4-thread kernel run.
    let mut rng = SeededRng::new(0x7ACE);
    let (m, k, n) = (128, 96, 80);
    let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
    assert!(m * k * n >= par::PAR_MIN_WORK);

    let mut quiet = vec![0.0f32; m * n];
    at_threads(4, || gemm(m, k, n, a.data(), b.data(), &mut quiet));

    dlbench_trace::configure(dlbench_trace::TraceConfig::on());
    dlbench_trace::clear();
    let mut traced = vec![0.0f32; m * n];
    at_threads(4, || gemm(m, k, n, a.data(), b.data(), &mut traced));
    let events = dlbench_trace::take_events();
    dlbench_trace::configure(dlbench_trace::TraceConfig::Off);
    dlbench_trace::clear();

    let quiet_bits: Vec<u32> = quiet.iter().map(|v| v.to_bits()).collect();
    let traced_bits: Vec<u32> = traced.iter().map(|v| v.to_bits()).collect();
    assert_eq!(quiet_bits, traced_bits, "tracing perturbed kernel results");
    assert!(events.iter().any(|e| e.name == "gemm"), "traced run recorded no gemm span");
}

#[test]
fn fig1_report_is_identical_serial_vs_four_threads() {
    let _gate = gate();
    // Full pipeline at Tiny scale: training (conv/pool/gemm kernels,
    // prefetched cells) through report assembly.
    let serial = at_threads(1, || {
        let mut runner = BenchmarkRunner::new(Scale::Tiny, 42);
        experiments::fig1(&mut runner)
    });
    let parallel = at_threads(4, || {
        let mut runner = BenchmarkRunner::new(Scale::Tiny, 42);
        experiments::fig1(&mut runner)
    });
    assert_eq!(
        computed_only(serial),
        computed_only(parallel),
        "thread count changed experiment results"
    );
}

/// One distributed Tiny-MNIST run for the bit-identity gate.
fn dist_tiny(
    host: dlbench_frameworks::FrameworkKind,
    workers: usize,
    strategy: dlbench_dist::Strategy,
) -> dlbench_dist::DistOutcome {
    use dlbench_data::DatasetKind;
    use dlbench_frameworks::DefaultSetting;
    let setting = DefaultSetting::new(host, DatasetKind::Mnist);
    let dcfg = dlbench_dist::DistConfig { workers, strategy, ..Default::default() };
    dlbench_dist::run_dist_training(host, setting, DatasetKind::Mnist, Scale::Tiny, 42, &dcfg)
        .expect("distributed run completes")
}

/// The distributed determinism contract: N-worker data-parallel
/// training is bit-identical to 1-worker training at every world size
/// and under either collective — same final parameter bytes, same loss
/// curve floats, same accuracy bits. See `dlbench_dist` docs for the
/// canonical-shard construction this rests on.
fn dist_world_size_is_bit_transparent(host: dlbench_frameworks::FrameworkKind) {
    use dlbench_dist::Strategy;
    let reference = dist_tiny(host, 1, Strategy::ParameterServer);
    assert!(!reference.checkpoint.is_empty());
    for (workers, strategy) in [
        (1, Strategy::Ring),
        (2, Strategy::ParameterServer),
        (2, Strategy::Ring),
        (4, Strategy::ParameterServer),
        (4, Strategy::Ring),
    ] {
        let run = dist_tiny(host, workers, strategy);
        assert_eq!(
            run.checkpoint,
            reference.checkpoint,
            "{host:?}: {workers}-worker {} parameters differ from 1-worker",
            strategy.name(),
        );
        assert_eq!(
            run.loss_curve,
            reference.loss_curve,
            "{host:?}: {workers}-worker {} loss curve differs",
            strategy.name(),
        );
        assert_eq!(run.accuracy.to_bits(), reference.accuracy.to_bits());
        assert_eq!(run.converged, reference.converged);
        assert_eq!(run.live_workers, workers, "no worker may die without fault injection");
    }
}

#[test]
fn dist_training_is_bit_identical_across_world_sizes_tensorflow() {
    dist_world_size_is_bit_transparent(dlbench_frameworks::FrameworkKind::TensorFlow);
}

#[test]
fn dist_training_is_bit_identical_across_world_sizes_caffe() {
    dist_world_size_is_bit_transparent(dlbench_frameworks::FrameworkKind::Caffe);
}

#[test]
fn dist_training_is_bit_identical_across_world_sizes_torch() {
    dist_world_size_is_bit_transparent(dlbench_frameworks::FrameworkKind::Torch);
}
