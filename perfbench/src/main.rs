//! DLBench end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train|evaluate|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from `--seed`, measures its workload for
//! `--seconds`, checks the program's outputs, and prints one JSON
//! record as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. A line before it carries host facts and detail. See
//! `README.md` for the workloads and the layer → metric map.

mod evaluate;
mod layers;
mod measure;
mod serve;
mod spans;
mod train;

use dlbench_json::JsonValue;
use dlbench_trace::TraceConfig;
use layers::Extra;
use measure::{Metric, Tally};
use spans::Analysis;

/// Run settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Cores available; the program's parallelism and the load
    /// generator's threads are both set to this.
    pub nproc: usize,
}

impl Ctx {
    /// Arms or disarms the program's trace recorder (no-op unless this
    /// is a traced run).
    pub fn tracing(&self, on: bool) {
        if self.trace {
            dlbench_trace::configure(if on { TraceConfig::on() } else { TraceConfig::Off });
        }
    }
}

/// What a workload measured.
pub struct Outcome {
    /// Median wall time of one set-up, seconds.
    pub setup_s: f64,
    /// Work completed per second of measured work.
    pub samples_per_s: f64,
    /// Typical latency of one operation, milliseconds.
    pub p50_ms: f64,
    pub tally: Tally,
    /// Rounds of the workload's fixed work mix the traced run completed.
    pub rounds: f64,
    /// Per-layer values measured by the workload itself.
    pub extra: Extra,
    pub detail: Vec<(String, JsonValue)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload train|evaluate|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    dlbench_tensor::par::set_threads(nproc);
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, trace: args.trace, nproc };
    let run = match args.workload.as_str() {
        "train" => train::run,
        "evaluate" => evaluate::run,
        "serve" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (train|evaluate|serve)");
            std::process::exit(2);
        }
    };
    let outcome = run(&ctx);
    let analysis = ctx.trace.then(|| {
        dlbench_trace::configure(TraceConfig::Off);
        Analysis::new(dlbench_trace::take_events())
    });
    for note in &outcome.tally.notes {
        eprintln!("perfbench: check failed: {note}");
    }

    let tally = &outcome.tally;
    let metrics = match &analysis {
        Some(a) => layers::per_layer(a, outcome.rounds, &outcome.extra),
        None => vec![
            Metric::new("setup_s", outcome.setup_s, "s"),
            Metric::new("peak_rss_mb", measure::peak_rss_mb(), "MB"),
            Metric::new("samples_per_s", outcome.samples_per_s, "1/s"),
            Metric::new("p50_ms", outcome.p50_ms, "ms"),
            Metric::new(
                "ok_ratio",
                (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
                "ratio",
            ),
        ],
    };

    let mut host = vec![
        ("workload".to_string(), JsonValue::from(args.workload.as_str())),
        ("seed".to_string(), JsonValue::Number(args.seed as f64)),
        ("seconds".to_string(), JsonValue::from(args.seconds)),
        ("trace".to_string(), JsonValue::from(args.trace)),
        ("nproc".to_string(), JsonValue::from(nproc)),
        ("program_threads".to_string(), JsonValue::from(dlbench_tensor::par::threads())),
    ];
    if analysis.is_some() {
        host.push((
            "trace_dropped_events".to_string(),
            JsonValue::Number(dlbench_trace::dropped_events() as f64),
        ));
    }
    let mut info = vec![("host".to_string(), JsonValue::Object(host))];
    info.extend(outcome.detail);
    println!("{}", compact(&JsonValue::Object(info)));

    let record = JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::from(tally.failed == 0)),
        ("attempted".to_string(), JsonValue::Number(tally.attempted as f64)),
        ("failed".to_string(), JsonValue::Number(tally.failed as f64)),
        (
            "metrics".to_string(),
            JsonValue::Object(
                metrics
                    .into_iter()
                    .map(|m| {
                        let value = JsonValue::Object(vec![
                            ("value".to_string(), JsonValue::Number(m.value)),
                            ("unit".to_string(), JsonValue::from(m.unit)),
                        ]);
                        (m.name, value)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", compact(&record));
}

/// Renders JSON on one line (the writer pretty-prints; JSON strings
/// never hold a raw newline, so joining trimmed lines is lossless).
fn compact(value: &JsonValue) -> String {
    value.pretty().lines().map(str::trim).collect::<Vec<_>>().join(" ")
}
