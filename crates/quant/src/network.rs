//! Reading a quantized [`Network`]: its calibration records and its
//! version-2 checkpoint entry mapping.

use crate::layers::{QConv1dBank, QConv2d, QEmbedding, QLinear};
use crate::qtensor::QTensor;
use dlbench_json::{JsonValue, ToJson};
use dlbench_nn::{
    CheckpointError, Conv1dBank, Conv2d, Embedding, Layer, Linear, Network, QuantEntry,
};

/// A quantized model is a plain [`Network`] whose quantizable layers
/// were swapped for their int8 counterparts. The alias survives because
/// the benchmark in `perfbench/` names it.
pub type QuantizedNetwork = Network;

/// Calibration record for one quantized layer — what the observer saw
/// on the calibration shard and the quantizer derived from it. Surfaced
/// through `/metrics`, report facts and the `dlbench quantize` summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCalibration {
    /// Diagnostic label (`"conv2d[0]"`, `"linear[4]"` — kind plus
    /// position in the stack).
    pub layer: String,
    /// Absolute minimum activation observed on the shard.
    pub observed_min: f32,
    /// Absolute maximum activation observed on the shard.
    pub observed_max: f32,
    /// Lower edge of the calibrated (EMA percentile) range.
    pub range_lo: f32,
    /// Upper edge of the calibrated range.
    pub range_hi: f32,
    /// Derived activation quantization step.
    pub scale: f32,
    /// Derived activation zero point.
    pub zero_point: i8,
    /// Fraction of shard values falling outside the calibrated range
    /// (clipped by the quantizer).
    pub clipped_fraction: f32,
}

impl ToJson for LayerCalibration {
    /// JSON object for metrics endpoints and reports.
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("layer".into(), JsonValue::from(self.layer.as_str())),
            ("observed_min".into(), JsonValue::from(self.observed_min)),
            ("observed_max".into(), JsonValue::from(self.observed_max)),
            ("range_lo".into(), JsonValue::from(self.range_lo)),
            ("range_hi".into(), JsonValue::from(self.range_hi)),
            ("scale".into(), JsonValue::from(self.scale)),
            ("zero_point".into(), JsonValue::from(self.zero_point as f64)),
            ("clipped_fraction".into(), JsonValue::from(self.clipped_fraction)),
        ])
    }
}

/// The calibration record of a quantized layer; `None` for fp32 layers.
fn layer_calibration(layer: &dyn Layer) -> Option<&LayerCalibration> {
    let any = layer.as_any();
    any.downcast_ref::<QLinear>()
        .map(QLinear::calibration)
        .or_else(|| any.downcast_ref::<QConv2d>().map(QConv2d::calibration))
        .or_else(|| any.downcast_ref::<QEmbedding>().map(QEmbedding::calibration))
        .or_else(|| any.downcast_ref::<QConv1dBank>().map(QConv1dBank::calibration))
}

/// Per-quantized-layer calibration records of `net`, in layer order
/// (empty for an fp32 network). Its length is the number of layers on
/// the int8 path; `.to_json()` is the `/metrics` and report payload.
pub fn calibration(net: &Network) -> Vec<LayerCalibration> {
    net.layers().iter().filter_map(|l| layer_calibration(l.as_ref())).cloned().collect()
}

/// Appends one `I8` entry holding `w`.
fn push_i8(entries: &mut Vec<QuantEntry>, w: &QTensor) {
    entries.push(QuantEntry::I8 {
        dims: w.shape().to_vec(),
        data: w.data().to_vec(),
        scale: w.scale,
        zero_point: w.zero_point,
    });
}

/// Serializes a quantized network as a version-2 checkpoint entry
/// sequence.
///
/// Each quantized `Linear`/`Conv2d` layer contributes four entries, in
/// order: the `i8` weight tensor (symmetric, carrying the weight scale),
/// the `f32` bias, a zero-length `i8` marker carrying the activation
/// quantizer (scale + zero point), and an `f32` `[5]` statistics tensor
/// (`observed_min`, `observed_max`, `range_lo`, `range_hi`,
/// `clipped_fraction`). A quantized `Embedding` uses the same group with
/// its table as the weight and a zero-length bias (the layer has none).
/// A quantized `Conv1dBank` contributes one `(i8 weight, f32 bias)` pair
/// per branch in branch order, then the shared activation marker and
/// statistics. Every other layer contributes one plain `f32` entry per
/// parameter, in `params()` order.
pub fn to_entries(net: &mut Network) -> Vec<QuantEntry> {
    let mut entries = Vec::new();
    for layer in net.layers_mut() {
        let any = layer.as_ref().as_any();
        let c = if let Some(l) = any.downcast_ref::<QLinear>() {
            push_i8(&mut entries, l.weight_t());
            entries.push(QuantEntry::F32 { dims: vec![l.bias().len()], data: l.bias().to_vec() });
            l.calibration()
        } else if let Some(cv) = any.downcast_ref::<QConv2d>() {
            push_i8(&mut entries, cv.weight());
            entries.push(QuantEntry::F32 { dims: vec![cv.bias().len()], data: cv.bias().to_vec() });
            cv.calibration()
        } else if let Some(e) = any.downcast_ref::<QEmbedding>() {
            push_i8(&mut entries, e.table());
            // The table has no bias; a zero-length entry keeps the
            // four-entry group shape. The lookup ignores the input
            // quantizer, but the marker still records what the observer
            // derived so the calibration report round-trips.
            entries.push(QuantEntry::F32 { dims: vec![0], data: vec![] });
            e.calibration()
        } else if let Some(bank) = any.downcast_ref::<QConv1dBank>() {
            for (w, bias) in bank.branch_parts() {
                push_i8(&mut entries, w);
                entries.push(QuantEntry::F32 { dims: vec![bias.len()], data: bias.to_vec() });
            }
            bank.calibration()
        } else {
            for p in layer.params() {
                entries.push(QuantEntry::F32 {
                    dims: p.value.shape().to_vec(),
                    data: p.value.data().to_vec(),
                });
            }
            continue;
        };
        push_act_and_stats(&mut entries, c);
    }
    entries
}

/// Rebuilds a quantized network from a version-2 checkpoint entry
/// sequence, validated against the freshly built fp32 architecture
/// `arch` (the same network the checkpoint's training cell used).
/// Stored int8 weights are adopted bit-for-bit — never re-quantized —
/// so a save/load round trip preserves every output bit.
///
/// All mismatches (entry count, dtype, shape) are structured
/// [`CheckpointError::StructureMismatch`] values, never panics.
pub fn from_entries(arch: Network, entries: &[QuantEntry]) -> Result<Network, CheckpointError> {
    let mut net = Network::new(arch.name());
    let mut idx = 0usize;
    let mut next = |what: &str| {
        let i = idx;
        idx += 1;
        entries.get(i).map(|e| (i, e)).ok_or_else(|| {
            CheckpointError::StructureMismatch(format!("checkpoint ended early: expected {what}"))
        })
    };
    for (li, layer) in arch.into_layers().into_iter().enumerate() {
        if layer.as_any().is::<Linear>() {
            let lin = layer.into_any().downcast::<Linear>().expect("probed as Linear");
            let label = format!("linear[{li}]");
            let (weight, bias, calibration) = read_group(label, &mut next)?;
            let want = [lin.in_features(), lin.out_features()];
            check_weight(&calibration.layer, &weight, &want)?;
            check_bias(&calibration.layer, &bias, lin.out_features())?;
            net.push(QLinear::from_parts(weight, bias, calibration));
        } else if layer.as_any().is::<Conv2d>() {
            let conv = layer.into_any().downcast::<Conv2d>().expect("probed as Conv2d");
            let label = format!("conv2d[{li}]");
            let (weight, bias, calibration) = read_group(label, &mut next)?;
            let k = conv.kernel();
            let want = [conv.out_channels(), conv.in_channels() * k * k];
            check_weight(&calibration.layer, &weight, &want)?;
            check_bias(&calibration.layer, &bias, conv.out_channels())?;
            net.push(QConv2d::from_parts(
                weight,
                bias,
                conv.in_channels(),
                k,
                conv.stride(),
                conv.pad(),
                calibration,
            ));
        } else if layer.as_any().is::<Embedding>() {
            let emb = layer.into_any().downcast::<Embedding>().expect("probed as Embedding");
            let label = format!("embedding[{li}]");
            let (table, bias, calibration) = read_group(label, &mut next)?;
            check_weight(&calibration.layer, &table, &[emb.vocab(), emb.dim()])?;
            if !bias.is_empty() {
                return Err(CheckpointError::StructureMismatch(format!(
                    "{}: embeddings have no bias, found {} values",
                    calibration.layer,
                    bias.len()
                )));
            }
            net.push(QEmbedding::from_parts(table, calibration));
        } else if layer.as_any().is::<Conv1dBank>() {
            let bank = layer.into_any().downcast::<Conv1dBank>().expect("probed as Conv1dBank");
            let label = format!("conv1d_bank[{li}]");
            let filters = bank.filters();
            let embed_dim = bank.convs()[0].embed_dim();
            let mut branches = Vec::new();
            for (bi, width) in bank.widths().into_iter().enumerate() {
                let blabel = format!("{label} branch {bi}");
                let weight = read_i8(&format!("{blabel} int8 weight"), &mut next)?;
                check_weight(&blabel, &weight, &[filters, width * embed_dim])?;
                let bias = read_f32(&format!("{blabel} bias"), &mut next)?;
                check_bias(&blabel, &bias, filters)?;
                branches.push((weight, bias));
            }
            let calibration = read_calibration(label, &mut next)?;
            net.push(QConv1dBank::from_parts(filters, embed_dim, branches, calibration));
        } else {
            let mut layer = layer;
            for p in layer.params() {
                let (i, e) = next(&format!("fp32 parameter for layer {li}"))?;
                match e {
                    QuantEntry::F32 { dims, data } if dims == p.value.shape() => {
                        p.value.data_mut().copy_from_slice(data);
                    }
                    QuantEntry::F32 { dims, .. } => {
                        return Err(CheckpointError::StructureMismatch(format!(
                            "entry {i}: fallback parameter shape {dims:?} != network shape {:?}",
                            p.value.shape()
                        )));
                    }
                    QuantEntry::I8 { .. } => {
                        return Err(CheckpointError::StructureMismatch(format!(
                            "entry {i}: int8 entry where layer {li} expects an fp32 parameter"
                        )));
                    }
                }
            }
            net.push_boxed(layer);
        }
    }
    let _ = next;
    if idx < entries.len() {
        return Err(CheckpointError::StructureMismatch(format!(
            "checkpoint has {} trailing entries starting at entry {idx}",
            entries.len() - idx
        )));
    }
    Ok(net)
}

/// Rejects a stored weight whose shape disagrees with the architecture.
fn check_weight(label: &str, weight: &QTensor, want: &[usize]) -> Result<(), CheckpointError> {
    if weight.shape() == want {
        return Ok(());
    }
    Err(CheckpointError::StructureMismatch(format!(
        "{label}: weight shape {:?} != expected {want:?}",
        weight.shape()
    )))
}

/// Rejects a stored bias whose length disagrees with the architecture.
fn check_bias(label: &str, bias: &[f32], want: usize) -> Result<(), CheckpointError> {
    if bias.len() == want {
        return Ok(());
    }
    Err(CheckpointError::StructureMismatch(format!(
        "{label}: bias length {} != {want}",
        bias.len()
    )))
}

/// Appends the activation-quantizer marker and statistics entries of
/// one quantized layer.
fn push_act_and_stats(entries: &mut Vec<QuantEntry>, c: &LayerCalibration) {
    entries.push(QuantEntry::I8 {
        dims: vec![0],
        data: vec![],
        scale: c.scale,
        zero_point: c.zero_point,
    });
    entries.push(QuantEntry::F32 {
        dims: vec![5],
        data: vec![c.observed_min, c.observed_max, c.range_lo, c.range_hi, c.clipped_fraction],
    });
}

/// One decoded quantized-layer group: int8 weight, fp32 bias and the
/// calibration record.
type LayerGroup = (QTensor, Vec<f32>, LayerCalibration);

/// Reads one int8 tensor entry.
fn read_i8<'a, F>(what: &str, next: &mut F) -> Result<QTensor, CheckpointError>
where
    F: FnMut(&str) -> Result<(usize, &'a QuantEntry), CheckpointError>,
{
    match next(what)? {
        (_, QuantEntry::I8 { dims, data, scale, zero_point }) => {
            Ok(QTensor::from_parts(dims, data.clone(), *scale, *zero_point))
        }
        (i, _) => Err(CheckpointError::StructureMismatch(format!(
            "entry {i}: expected {what} (an int8 tensor)"
        ))),
    }
}

/// Reads one fp32 tensor entry.
fn read_f32<'a, F>(what: &str, next: &mut F) -> Result<Vec<f32>, CheckpointError>
where
    F: FnMut(&str) -> Result<(usize, &'a QuantEntry), CheckpointError>,
{
    match next(what)? {
        (_, QuantEntry::F32 { data, .. }) => Ok(data.clone()),
        (i, _) => Err(CheckpointError::StructureMismatch(format!(
            "entry {i}: expected {what} (an fp32 tensor)"
        ))),
    }
}

/// Reads one layer's calibration record: the zero-length int8 marker
/// carrying its activation quantizer, then its 5-value fp32 statistics
/// tensor.
fn read_calibration<'a, F>(label: String, next: &mut F) -> Result<LayerCalibration, CheckpointError>
where
    F: FnMut(&str) -> Result<(usize, &'a QuantEntry), CheckpointError>,
{
    let (scale, zero_point) = match next(&format!("{label} activation quantizer"))? {
        (_, QuantEntry::I8 { data, scale, zero_point, .. }) if data.is_empty() => {
            (*scale, *zero_point)
        }
        (i, _) => {
            return Err(CheckpointError::StructureMismatch(format!(
                "entry {i}: {label} expects a zero-length int8 activation-quantizer marker"
            )))
        }
    };
    match next(&format!("{label} calibration statistics"))? {
        (_, QuantEntry::F32 { data, .. }) if data.len() == 5 => Ok(LayerCalibration {
            layer: label,
            observed_min: data[0],
            observed_max: data[1],
            range_lo: data[2],
            range_hi: data[3],
            scale,
            zero_point,
            clipped_fraction: data[4],
        }),
        (i, _) => Err(CheckpointError::StructureMismatch(format!(
            "entry {i}: {label} expects a 5-value fp32 statistics tensor"
        ))),
    }
}

/// Reads the four-entry group of one quantized layer: weight, bias,
/// activation marker, statistics.
fn read_group<'a, F>(label: String, next: &mut F) -> Result<LayerGroup, CheckpointError>
where
    F: FnMut(&str) -> Result<(usize, &'a QuantEntry), CheckpointError>,
{
    let weight = read_i8(&format!("{label} int8 weight"), next)?;
    let bias = read_f32(&format!("{label} bias"), next)?;
    Ok((weight, bias, read_calibration(label, next)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlbench_nn::{Flatten, Initializer, MaxPool2d, Relu};
    use dlbench_tensor::{SeededRng, Tensor};

    fn arch(seed: u64) -> Network {
        let mut rng = SeededRng::new(seed);
        let mut net = Network::new("qnet");
        net.push(Conv2d::new(1, 3, 3, 1, 1, Initializer::Xavier, &mut rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2, false));
        net.push(Flatten::new());
        net.push(Linear::new(3 * 4 * 4, 5, Initializer::Xavier, &mut rng));
        net
    }

    fn cal(layer: &str) -> LayerCalibration {
        LayerCalibration {
            layer: layer.into(),
            observed_min: -1.5,
            observed_max: 2.0,
            range_lo: -1.2,
            range_hi: 1.9,
            scale: 0.0122,
            zero_point: -30,
            clipped_fraction: 0.004,
        }
    }

    /// Swaps every quantizable layer for its int8 counterpart with a
    /// fixed calibration record.
    fn quantize_by_hand(net: Network) -> Network {
        let mut q = Network::new(net.name());
        for (li, layer) in net.into_layers().into_iter().enumerate() {
            let any = layer.as_ref().as_any();
            if let Some(lin) = any.downcast_ref::<Linear>() {
                q.push(QLinear::from_fp32(lin, cal(&format!("linear[{li}]"))));
            } else if let Some(conv) = any.downcast_ref::<Conv2d>() {
                q.push(QConv2d::from_fp32(conv, cal(&format!("conv2d[{li}]"))));
            } else if let Some(emb) = any.downcast_ref::<Embedding>() {
                q.push(QEmbedding::from_fp32(emb, cal(&format!("embedding[{li}]"))));
            } else if let Some(bank) = any.downcast_ref::<Conv1dBank>() {
                q.push(QConv1dBank::from_fp32(bank, cal(&format!("conv1d_bank[{li}]"))));
            } else {
                q.push_boxed(layer);
            }
        }
        q
    }

    fn same_bits(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn entries_roundtrip_preserves_every_output_bit() {
        let mut q = quantize_by_hand(arch(31));
        let mut rng = SeededRng::new(8);
        let x = Tensor::randn(&[2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let before = q.forward(&x, false);
        let entries = to_entries(&mut q);
        let mut back = from_entries(arch(99), &entries).unwrap();
        assert!(same_bits(&before, &back.forward(&x, false)));
        assert_eq!(calibration(&back).len(), 2);
        assert_eq!(calibration(&back), calibration(&q));
    }

    #[test]
    fn from_entries_rejects_wrong_architecture_and_truncation() {
        let entries = to_entries(&mut quantize_by_hand(arch(31)));
        // Wrong architecture: a different linear width.
        let mut rng = SeededRng::new(1);
        let mut other = Network::new("other");
        other.push(Linear::new(4, 4, Initializer::Xavier, &mut rng));
        let err = from_entries(other, &entries).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // Truncated entry list.
        let err = from_entries(arch(1), &entries[..3]).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // Trailing entries.
        let mut extra = entries.clone();
        extra.push(QuantEntry::F32 { dims: vec![1], data: vec![0.0] });
        let err = from_entries(arch(1), &extra).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
    }

    fn text_arch(seed: u64) -> Network {
        let mut rng = SeededRng::new(seed);
        let mut net = Network::new("qtext");
        net.push(Embedding::new(20, 6, Initializer::Xavier, &mut rng));
        net.push(Conv1dBank::new(3, &[2, 3], 6, Initializer::Xavier, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(6, 2, Initializer::Xavier, &mut rng));
        net
    }

    fn token_batch() -> Tensor {
        let tokens: Vec<f32> = (0..2 * 7).map(|i| ((i * 13) % 20) as f32).collect();
        Tensor::from_vec(&[2, 1, 7, 1], tokens).unwrap()
    }

    #[test]
    fn text_entries_roundtrip_preserves_every_output_bit() {
        let mut q = quantize_by_hand(text_arch(41));
        let x = token_batch();
        let before = q.forward(&x, false);
        let entries = to_entries(&mut q);
        let mut back = from_entries(text_arch(77), &entries).unwrap();
        assert!(same_bits(&before, &back.forward(&x, false)));
        assert_eq!(calibration(&back).len(), 3);
        assert_eq!(calibration(&back), calibration(&q));
    }

    #[test]
    fn text_entries_reject_mismatched_tables_and_truncation() {
        let entries = to_entries(&mut quantize_by_hand(text_arch(41)));
        // Wrong vocabulary: the target arch's table disagrees.
        let mut rng = SeededRng::new(2);
        let mut other = Network::new("other");
        other.push(Embedding::new(9, 6, Initializer::Xavier, &mut rng));
        other.push(Conv1dBank::new(3, &[2, 3], 6, Initializer::Xavier, &mut rng));
        other.push(Relu::new());
        other.push(Linear::new(6, 2, Initializer::Xavier, &mut rng));
        let err = from_entries(other, &entries).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // Truncated mid-bank: the second branch's bias is missing.
        let err = from_entries(text_arch(1), &entries[..7]).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // A non-empty embedding bias is rejected (embeddings have none).
        let mut forged = entries.clone();
        forged[1] = QuantEntry::F32 { dims: vec![1], data: vec![0.5] };
        let err = from_entries(text_arch(1), &forged).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
        // A bank branch weight with the wrong window width is rejected.
        let mut forged = entries.clone();
        forged[4] = QuantEntry::I8 {
            dims: vec![3, 4 * 6],
            data: vec![0; 3 * 4 * 6],
            scale: 0.01,
            zero_point: 0,
        };
        let err = from_entries(text_arch(1), &forged).unwrap_err();
        assert!(matches!(err, CheckpointError::StructureMismatch(_)), "{err}");
    }

    /// Quantized layers are inference-only: a quantized `Network`
    /// panics on a training-mode forward and on backward.
    #[test]
    fn forward_rejects_training_mode() {
        let panics = |f: &dyn Fn(&mut Network)| {
            let mut q = quantize_by_hand(arch(31));
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut q))).is_err()
        };
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert!(panics(&|q| drop(q.forward(&x, true))), "train=true must be rejected");
        assert!(
            panics(&|q| {
                let y = q.forward(&x, false);
                drop(q.backward(&y));
            }),
            "backward must be rejected"
        );
        assert!(!panics(&|q| drop(q.forward(&x, false))), "inference must run");
    }

    #[test]
    fn split_forward_matches_whole_forward_at_every_layer() {
        let image = (
            quantize_by_hand(arch(31)),
            Tensor::randn(&[3, 1, 8, 8], 0.0, 1.0, &mut SeededRng::new(5)),
        );
        let text = (quantize_by_hand(text_arch(41)), token_batch());
        for (mut q, x) in [image, text] {
            let whole = q.forward(&x, false);
            for k in 0..=q.len() {
                let mid = q.forward_prefix(k, &x, false);
                let out = q.forward_from(k, &mid, false);
                assert!(same_bits(&whole, &out), "{}: split at {k} diverged", q.name());
            }
        }
    }

    #[test]
    fn calibration_json_carries_all_fields() {
        let q = quantize_by_hand(arch(31));
        let json = calibration(&q).to_json();
        let text = json.pretty();
        for field in [
            "layer",
            "observed_min",
            "observed_max",
            "range_lo",
            "range_hi",
            "scale",
            "zero_point",
            "clipped_fraction",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }
}
