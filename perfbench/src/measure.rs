//! Measurement helpers shared by the workloads: percentiles, set-up
//! timing, peak memory, logits digests and the tally of checks.

use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// Tallies operations and correctness checks; a failed check counts as
/// a failed operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok && self.notes.len() < 20 {
            self.notes.push(what());
        }
    }
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of unsorted
/// values; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Typical latency of a mix of operation classes: the geometric mean of
/// each non-empty class's median, so the result does not jump between
/// classes the way the median of the pooled mix can.
pub fn class_median_ms(classes: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = classes.iter().filter(|c| !c.is_empty()).map(|c| median(c)).collect();
    if medians.is_empty() {
        return 0.0;
    }
    (medians.iter().map(|m| m.max(1e-12).ln()).sum::<f64>() / medians.len() as f64).exp()
}

/// Per-round results of a workload whose rounds repeat one fixed mix of
/// work. Other tenants of a shared host only ever slow a round down, so
/// a run reports its upper-quartile rate and lower-quartile latency:
/// steady while up to three rounds in four are slowed, without the
/// extreme-value noise of the single best round.
#[derive(Default)]
pub struct Rounds {
    /// Work per second of each round.
    pub rates: Vec<f64>,
    /// Typical operation latency of each round, ms (`class_median_ms`).
    pub latency_ms: Vec<f64>,
}

impl Rounds {
    pub fn push(&mut self, rate: f64, classes: &[Vec<f64>]) {
        self.rates.push(rate);
        self.latency_ms.push(class_median_ms(classes));
    }

    pub fn rate(&self) -> f64 {
        percentile(&self.rates, 75.0)
    }

    pub fn latency(&self) -> f64 {
        percentile(&self.latency_ms, 25.0)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `build` `reps` times and returns the median wall time in
/// seconds together with the last value built (earlier ones drop).
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up repetition"))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the bit patterns of a float slice, folded into `state`.
pub fn digest(state: u64, values: &[f32]) -> u64 {
    values.iter().fold(state, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Whether two float slices are equal bit for bit.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
