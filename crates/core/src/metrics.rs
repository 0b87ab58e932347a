//! The paper's metric groups for one benchmark cell, plus the shared
//! latency-distribution helper used by the figure harness and the
//! serving layer's `/metrics` endpoint.

use dlbench_json::{JsonValue, ToJson};

/// A sample-keeping latency/duration distribution with percentile
/// queries. One implementation serves both report generation (the
/// `dlbench loadgen --sweep`) and the online `/metrics` endpoint, so the
/// two can never disagree about what "p99" means.
///
/// Percentiles use linear interpolation between closest ranks (the
/// numpy/Prometheus-client convention): for `n` sorted samples,
/// percentile `p` sits at fractional rank `p/100 · (n-1)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (non-finite values are dropped — a NaN
    /// latency would poison every percentile query).
    pub fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.samples.push(v);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the recorded samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// The `p`-th percentile (`0.0 ..= 100.0`) by linear interpolation
    /// between closest ranks; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            return Some(sorted[lo]);
        }
        let frac = rank - lo as f64;
        Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
    }

    /// Absorbs every sample of `other` (per-thread histograms folding
    /// into a run-wide one).
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The p50/p95/p99 summary every latency report in the suite
    /// prints; `None` when empty.
    pub fn summary(&self) -> Option<HistogramSummary> {
        Some(HistogramSummary {
            count: self.len(),
            mean: self.mean()?,
            p50: self.percentile(50.0)?,
            p95: self.percentile(95.0)?,
            p99: self.percentile(99.0)?,
            max: self.percentile(100.0)?,
        })
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples behind the summary.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl ToJson for HistogramSummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("count".into(), self.count.into()),
            ("mean".into(), self.mean.into()),
            ("p50".into(), self.p50.into()),
            ("p95".into(), self.p95.into()),
            ("p99".into(), self.p99.into()),
            ("max".into(), self.max.into()),
        ])
    }
}

/// Metrics for one *(framework, setting, dataset, device)* cell — one
/// bar in the paper's Figures 1–4 and 6–7, one row fragment in Tables
/// VI/VII.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Row label (framework and/or setting, paper style).
    pub label: String,
    /// Device label (`"CPU"`/`"GPU"`).
    pub device: String,
    /// Simulated training time for the full paper schedule, seconds.
    pub train_time_s: f64,
    /// Simulated testing time for the paper's test pass, seconds.
    pub test_time_s: f64,
    /// Measured accuracy, percent.
    pub accuracy_pct: f32,
    /// Whether training converged (the paper's Caffe-on-CIFAR cells
    /// famously do not).
    pub converged: bool,
    /// Wall-clock seconds this reproduction spent training the scaled
    /// configuration (not a paper metric; reported for transparency).
    pub wall_train_s: f64,
}

impl CellMetrics {
    /// One-line paper-style summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<32} [{}] train {:>10.2}s  test {:>7.2}s  acc {:>6.2}%{}",
            self.label,
            self.device,
            self.train_time_s,
            self.test_time_s,
            self.accuracy_pct,
            if self.converged { "" } else { "  (DID NOT CONVERGE)" }
        )
    }
}

impl ToJson for CellMetrics {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("label".into(), self.label.as_str().into()),
            ("device".into(), self.device.as_str().into()),
            ("train_time_s".into(), self.train_time_s.into()),
            ("test_time_s".into(), self.test_time_s.into()),
            ("accuracy_pct".into(), self.accuracy_pct.into()),
            ("converged".into(), self.converged.into()),
            ("wall_train_s".into(), self.wall_train_s.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), None);
        assert!(h.summary().is_none());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(7.25);
        assert_eq!(h.len(), 1);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(7.25));
        }
        let s = h.summary().unwrap();
        assert_eq!((s.count, s.mean, s.p50, s.max), (1, 7.25, 7.25, 7.25));
    }

    #[test]
    fn exact_quantiles_on_linear_ramp() {
        // 0..=10 inclusive: rank p/100*(n-1) lands on integers for
        // every multiple of 10, so the percentiles are exact samples.
        let mut h = Histogram::new();
        for v in (0..=10).rev() {
            h.record(v as f64);
        }
        assert_eq!(h.percentile(0.0), Some(0.0));
        assert_eq!(h.percentile(50.0), Some(5.0));
        assert_eq!(h.percentile(100.0), Some(10.0));
        // Interpolated: p95 sits between ranks 9 and 10.
        assert_eq!(h.percentile(95.0), Some(9.5));
        assert_eq!(h.mean(), Some(5.0));
    }

    #[test]
    fn merge_folds_samples_together() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.percentile(50.0), Some(2.0));
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(3.0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.percentile(99.0), Some(3.0));
    }

    #[test]
    fn summary_serializes_to_json() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(2.0);
        let json = h.summary().unwrap().to_json();
        assert_eq!(json["count"], 2.0);
        assert_eq!(json["p50"], 1.5);
        assert_eq!(json["max"], 2.0);
    }

    #[test]
    fn summary_flags_divergence() {
        let m = CellMetrics {
            label: "Caffe (Caffe-MNIST) on CIFAR-10".into(),
            device: "GPU".into(),
            train_time_s: 115.3,
            test_time_s: 0.64,
            accuracy_pct: 11.03,
            converged: false,
            wall_train_s: 12.0,
        };
        let s = m.summary();
        assert!(s.contains("DID NOT CONVERGE"));
        assert!(s.contains("11.03"));
    }
}
