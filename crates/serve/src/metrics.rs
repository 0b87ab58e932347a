//! Per-model serving metrics: completed/shed/error counters, a
//! latency histogram (shared [`Histogram`] implementation, so `/metrics`
//! and the serve sweep agree on percentile semantics), and the
//! batch-size distribution the micro-batcher actually achieved.

use dlbench_core::Histogram;
use dlbench_json::{JsonValue, ToJson};
use dlbench_trace::Stopwatch;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Thread-safe metrics for one served model. All mutation paths are
/// lock-light (atomics for counters, short critical sections for the
/// histogram) so metric recording never backpressures the hot path.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Stopwatch,
    completed: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    latency_ms: Mutex<Histogram>,
    /// Time requests sat queued before their batch was assembled.
    queue_wait_ms: Mutex<Histogram>,
    /// Time spent in preprocessing + the batched forward pass.
    forward_ms: Mutex<Histogram>,
    batch_sizes: Mutex<BTreeMap<usize, u64>>,
    /// Queue-depth gauge sampled by the worker at flush time (after a
    /// batch's replies go out), i.e. outstanding = queued + in-flight.
    flush_depth: Mutex<Histogram>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking metrics writer must not take the server down with it.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh metrics; throughput is measured from this instant.
    pub fn new() -> Self {
        Self {
            started: Stopwatch::start(),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency_ms: Mutex::new(Histogram::new()),
            queue_wait_ms: Mutex::new(Histogram::new()),
            forward_ms: Mutex::new(Histogram::new()),
            batch_sizes: Mutex::new(BTreeMap::new()),
            flush_depth: Mutex::new(Histogram::new()),
        }
    }

    /// Records one completed request and its queue-to-reply latency.
    pub fn observe_latency(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        lock(&self.latency_ms).record(latency.as_secs_f64() * 1e3);
    }

    /// Records one request's queue wait (enqueue to batch assembly).
    pub fn observe_queue_wait(&self, wait: Duration) {
        lock(&self.queue_wait_ms).record(wait.as_secs_f64() * 1e3);
    }

    /// Records one batched forward pass's duration (preprocessing +
    /// model forward, amortized over the whole batch).
    pub fn observe_forward(&self, forward: Duration) {
        lock(&self.forward_ms).record(forward.as_secs_f64() * 1e3);
    }

    /// Records one flushed batch of `n` requests.
    pub fn observe_batch(&self, n: usize) {
        *lock(&self.batch_sizes).entry(n).or_insert(0) += 1;
    }

    /// Records the queue-depth gauge as sampled by the worker at flush
    /// time, after a batch's replies were sent. This is the consistent
    /// depth signal least-queue routing keys on: it counts every
    /// request a batcher has committed to but not yet answered.
    pub fn observe_flush_depth(&self, depth: usize) {
        lock(&self.flush_depth).record(depth as f64);
    }

    /// Records one request shed because the queue was full.
    pub fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one malformed or otherwise failed request.
    pub fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed-request count.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Shed-request count.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Error count.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Point-in-time JSON snapshot for the `/metrics` endpoint.
    /// `queue_depth` is sampled by the caller (the batcher owns the
    /// gauge).
    pub fn snapshot(&self, queue_depth: usize) -> JsonValue {
        let elapsed = self.started.elapsed_s().max(1e-9);
        let completed = self.completed();
        let hist_json = |h: &Mutex<Histogram>| match lock(h).summary() {
            Some(s) => s.to_json(),
            None => JsonValue::Null,
        };
        let latency = hist_json(&self.latency_ms);
        let batches: Vec<JsonValue> = lock(&self.batch_sizes)
            .iter()
            .map(|(&size, &count)| {
                JsonValue::Object(vec![
                    ("batch_size".into(), size.into()),
                    ("count".into(), (count as usize).into()),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("completed".into(), (completed as usize).into()),
            ("shed".into(), (self.shed() as usize).into()),
            ("errors".into(), (self.errors() as usize).into()),
            ("queue_depth".into(), queue_depth.into()),
            ("uptime_s".into(), elapsed.into()),
            ("throughput_rps".into(), (completed as f64 / elapsed).into()),
            ("latency_ms".into(), latency),
            ("queue_wait_ms".into(), hist_json(&self.queue_wait_ms)),
            ("forward_ms".into(), hist_json(&self.forward_ms)),
            ("queue_depth_at_flush".into(), hist_json(&self.flush_depth)),
            ("batch_size_counts".into(), JsonValue::Array(batches)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_counts_and_percentiles() {
        let m = ServeMetrics::new();
        m.observe_latency(Duration::from_millis(10));
        m.observe_latency(Duration::from_millis(20));
        m.observe_queue_wait(Duration::from_millis(4));
        m.observe_forward(Duration::from_millis(6));
        m.observe_batch(2);
        m.observe_flush_depth(5);
        m.count_shed();
        m.count_error();
        let snap = m.snapshot(3);
        assert_eq!(snap["completed"], 2.0);
        assert_eq!(snap["shed"], 1.0);
        assert_eq!(snap["errors"], 1.0);
        assert_eq!(snap["queue_depth"], 3.0);
        let p50 = snap["latency_ms"]["p50"].as_f64().unwrap();
        assert!((14.0..=16.0).contains(&p50), "p50 {p50} should interpolate 10..20");
        // The queue-wait vs. forward-time breakdown rides the snapshot.
        let wait_p50 = snap["queue_wait_ms"]["p50"].as_f64().unwrap();
        assert!((3.5..=4.5).contains(&wait_p50), "queue wait p50 {wait_p50}");
        let fwd_p50 = snap["forward_ms"]["p50"].as_f64().unwrap();
        assert!((5.5..=6.5).contains(&fwd_p50), "forward p50 {fwd_p50}");
        let flush_p50 = snap["queue_depth_at_flush"]["p50"].as_f64().unwrap();
        assert!((4.5..=5.5).contains(&flush_p50), "flush depth p50 {flush_p50}");
        let batches = snap["batch_size_counts"].as_array().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0]["batch_size"], 2.0);
    }

    #[test]
    fn empty_metrics_snapshot_has_null_latency() {
        let m = ServeMetrics::new();
        let snap = m.snapshot(0);
        assert_eq!(snap["latency_ms"], JsonValue::Null);
        assert_eq!(snap["queue_wait_ms"], JsonValue::Null);
        assert_eq!(snap["forward_ms"], JsonValue::Null);
        assert_eq!(snap["completed"], 0.0);
    }
}
