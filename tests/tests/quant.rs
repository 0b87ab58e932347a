//! End-to-end int8 post-training quantization: accuracy preservation,
//! quantized checkpoint round-trips, quantized serving, and the
//! structured dtype-mismatch error on `--load`.

use dlbench_data::DatasetKind;
use dlbench_frameworks::{trainer, DefaultSetting, FrameworkKind, Scale};
use dlbench_integration_tests::TEST_SEED;
use dlbench_json::ToJson;
use dlbench_quant::{calibration, quantize_checkpoint, quantize_trained, to_entries, QuantConfig};
use dlbench_serve::{
    loadgen, serve, BatchConfig, ModelDtype, ModelRegistry, ModelSpec, ServeError,
};
use std::time::Duration;

#[test]
fn int8_accuracy_drop_within_two_points_at_tiny() {
    let host = FrameworkKind::TensorFlow;
    let dataset = DatasetKind::Mnist;
    let setting = DefaultSetting::new(host, dataset);
    let mut out = trainer::run_training(host, setting, dataset, Scale::Tiny, TEST_SEED);
    let (train, test) = trainer::generate_data(dataset, Scale::Tiny, TEST_SEED);
    let (preprocessing, channel_means) =
        trainer::cell_preprocessing(host, &setting, dataset, || train);

    let fp32_acc = trainer::evaluate(&mut out.model, &test, preprocessing, &channel_means);
    let mut q = quantize_trained(
        out.model,
        host,
        &setting,
        dataset,
        Scale::Tiny,
        TEST_SEED,
        &QuantConfig::default(),
    );
    let int8_acc = trainer::evaluate(&mut q, &test, preprocessing, &channel_means);

    let drop_pp = (fp32_acc - int8_acc) * 100.0;
    assert!(
        drop_pp <= 2.0,
        "int8 accuracy drop {drop_pp:.2}pp exceeds 2pp (fp32 {fp32_acc:.4}, int8 {int8_acc:.4})"
    );
    assert!(int8_acc > 0.5, "quantized model should still classify: {int8_acc:.4}");
}

#[test]
fn v2_checkpoint_roundtrip_is_bit_identical() {
    let host = FrameworkKind::Caffe;
    let dataset = DatasetKind::Mnist;
    let setting = DefaultSetting::new(host, dataset);
    let out = trainer::run_training(host, setting, dataset, Scale::Tiny, TEST_SEED);
    let mut q = quantize_trained(
        out.model,
        host,
        &setting,
        dataset,
        Scale::Tiny,
        TEST_SEED,
        &QuantConfig::default(),
    );

    let (_, test) = trainer::generate_data(dataset, Scale::Tiny, TEST_SEED);
    let idx: Vec<usize> = (0..8).collect();
    let (images, _) = test.gather(&idx);
    let before: Vec<u32> = q.forward(&images, false).data().iter().map(|v| v.to_bits()).collect();
    let calibration_before = calibration(&q).to_json().pretty();

    let mut bytes = Vec::new();
    dlbench_nn::save_quantized(&to_entries(&mut q), &mut bytes).unwrap();
    assert_eq!(dlbench_nn::checkpoint_version(&bytes), Some('2'));

    let mut reloaded = quantize_checkpoint(
        host,
        &setting,
        dataset,
        Scale::Tiny,
        TEST_SEED,
        &mut bytes.as_slice(),
        &QuantConfig::default(),
    )
    .unwrap();
    let after: Vec<u32> =
        reloaded.forward(&images, false).data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(before, after, "v2 reload must reproduce the exact quantized bits");
    assert_eq!(
        calibration_before,
        calibration(&reloaded).to_json().pretty(),
        "calibration statistics must survive the round-trip"
    );
}

#[test]
fn quantized_model_serves_predictions_and_reports_dtype() {
    let host = FrameworkKind::Torch;
    let dataset = DatasetKind::Mnist;
    let spec = ModelSpec::own_default("m", host, dataset, Scale::Tiny, TEST_SEED)
        .with_dtype(ModelDtype::Int8);
    let served = spec.instantiate(None).unwrap();
    assert!(!calibration(&served.model).is_empty(), "an int8 spec must serve int8 layers");

    let mut registry = ModelRegistry::new();
    let config =
        BatchConfig { max_batch: 4, max_wait: Duration::from_millis(1), queue_capacity: 64 };
    registry.register(served, config).unwrap();
    let server = serve(registry, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let inputs = loadgen::sample_inputs(dataset, Scale::Tiny, TEST_SEED, 4);
    for input in &inputs {
        let (status, body) = loadgen::predict(addr, "m", input).unwrap();
        assert_eq!(status, 200, "predict failed: {}", body.pretty());
        let logits = body["logits"].as_array().unwrap();
        assert_eq!(logits.len(), 10);
        assert!(
            logits.iter().all(|v| v.as_f64().unwrap().is_finite()),
            "quantized serving must return finite logits"
        );
    }

    let (status, metrics) = loadgen::http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("int8"), "metrics must expose the served model's dtype: {metrics}");
    assert!(
        metrics.contains("calibration"),
        "metrics must expose calibration statistics for quantized models: {metrics}"
    );
    server.shutdown();
}

#[test]
fn fp32_spec_rejects_quantized_checkpoint_with_structured_error() {
    let host = FrameworkKind::TensorFlow;
    let dataset = DatasetKind::Mnist;
    let setting = DefaultSetting::new(host, dataset);
    let out = trainer::run_training(host, setting, dataset, Scale::Tiny, TEST_SEED);
    let mut q = quantize_trained(
        out.model,
        host,
        &setting,
        dataset,
        Scale::Tiny,
        TEST_SEED,
        &QuantConfig::default(),
    );
    let mut bytes = Vec::new();
    dlbench_nn::save_quantized(&to_entries(&mut q), &mut bytes).unwrap();

    let spec = ModelSpec::own_default("m", host, dataset, Scale::Tiny, TEST_SEED);
    let err = match spec.instantiate_from(&mut bytes.as_slice()) {
        Ok(_) => panic!("an fp32 spec must reject a quantized checkpoint"),
        Err(e) => e,
    };
    match err {
        ServeError::Checkpoint(msg) => {
            assert!(
                msg.contains("quantized"),
                "dtype mismatch must name the quantized format: {msg}"
            );
        }
        other => panic!("expected a structured checkpoint error, got: {other}"),
    }
}

#[test]
fn int8_spec_adopts_v1_and_v2_checkpoints() {
    let host = FrameworkKind::TensorFlow;
    let dataset = DatasetKind::Mnist;
    let setting = DefaultSetting::new(host, dataset);
    let mut out = trainer::run_training(host, setting, dataset, Scale::Tiny, TEST_SEED);
    let mut v1 = Vec::new();
    dlbench_nn::save_parameters(&mut out.model, &mut v1).unwrap();

    let spec = ModelSpec::own_default("m", host, dataset, Scale::Tiny, TEST_SEED)
        .with_dtype(ModelDtype::Int8);

    // v1 checkpoint: quantize-on-load.
    let mut from_v1 = spec.instantiate_from(&mut v1.as_slice()).unwrap();
    let q1 = &mut from_v1.model;
    assert!(!calibration(q1).is_empty(), "int8 spec must produce a quantized model");

    // v2 checkpoint: adopted bit-for-bit — same bits as the v1-derived
    // quantization it was saved from.
    let mut v2 = Vec::new();
    dlbench_nn::save_quantized(&to_entries(q1), &mut v2).unwrap();
    let mut from_v2 = spec.instantiate_from(&mut v2.as_slice()).unwrap();
    let q2 = &mut from_v2.model;

    let inputs = loadgen::sample_inputs(dataset, Scale::Tiny, TEST_SEED, 3);
    let (c, h, w) = spec.input_dims();
    for input in &inputs {
        let raw = dlbench_tensor::Tensor::from_vec(&[1, c, h, w], input.clone()).unwrap();
        let x = from_v1.preprocessing.apply(&raw, &from_v1.channel_means);
        let a: Vec<u32> = q1.forward(&x, false).data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = q2.forward(&x, false).data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "v2 adoption must be bit-identical to the source quantization");
    }
}
