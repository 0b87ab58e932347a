//! The measurement harness every bench target shares: one CLI, one
//! timer, one reports directory and one JSON writer.
//!
//! * **CLI** ([`Cli`]): `--list` prints each bench id as `<id>: bench`
//!   and times nothing; `--quick` (or `--test`) runs one iteration per
//!   bench; the first positional argument keeps only ids containing it.
//! * **Timer** ([`Harness::bench`]): one warm-up call sizes the batch
//!   to ~150 ms, then the best of 3 batches is recorded — the minimum
//!   filters the scheduler noise a mean would fold into the regression
//!   gate.
//! * **Reports** ([`reports_dir`], [`write_doc`]): everything lands in
//!   the workspace's `target/dlbench-reports/`. Timed targets write
//!   `BENCH_<target>.json` as `{"host": {cpus, threads}, "benchmarks":
//!   [{id, mean_ns, iters, gflops}]}`, so a thread-scaling number always
//!   travels with the CPU count it was measured on.
//! * **Gate** ([`run_gated`]): with `DLBENCH_PERF_BASELINE` pointing at a
//!   committed baseline, a full run fails if any id runs more than 15%
//!   slower than its baseline timing, if the baseline is malformed, or if
//!   no measured id has a baseline entry.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dlbench_json::JsonValue;

/// Timed samples per bench; the fastest is recorded.
const SAMPLES: usize = 3;

/// Target wall-clock per timed sample.
const SAMPLE_BUDGET_NS: u128 = 150_000_000;

/// Allowed slowdown versus the committed baseline before the gate fails.
const REGRESSION_TOLERANCE: f64 = 1.15;

/// Total measurement passes the gate may take before judging: a shared
/// host can stall any single pass well past the tolerance, so the gate
/// re-runs the suite and scores each id on its best pass — "can the
/// kernel still run this fast" is the regression question, and the
/// minimum over passes answers it without loosening the 15% bar.
const MAX_GATE_PASSES: usize = 3;

/// Environment variable naming the baseline a gated target compares to.
const BASELINE_ENV: &str = "DLBENCH_PERF_BASELINE";

/// The command-line contract every bench target honours.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// `--quick`/`--test`: one iteration per bench (or reduced samples
    /// for document targets).
    pub quick: bool,
    /// `--list`: print ids, time nothing.
    list_only: bool,
    /// First positional argument: substring an id must contain.
    filter: Option<String>,
}

impl Cli {
    /// Parses the process arguments (after the executable name).
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an argument list; flags it does not know (such as the
    /// `--bench` cargo passes) are ignored.
    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut cli = Self::default();
        for arg in args {
            match arg.as_str() {
                "--quick" | "--test" => cli.quick = true,
                "--list" => cli.list_only = true,
                _ if arg.starts_with('-') => {}
                _ if cli.filter.is_none() => cli.filter = Some(arg),
                _ => {}
            }
        }
        cli
    }

    /// The `--list` contract of an untimed target: prints `<name>: bench`
    /// and returns `true` when listing was asked for.
    pub fn listed(&self, name: &str) -> bool {
        if self.list_only {
            println!("{name}: bench");
        }
        self.list_only
    }
}

/// One timed bench result.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    /// Bench id (`group/function` or a bare name).
    id: String,
    /// Best-of-[`SAMPLES`] wall-clock nanoseconds per iteration.
    mean_ns: f64,
    /// Iterations per timed sample.
    iters: u64,
    /// Achieved GFLOP/s (0 for pure data movement).
    gflops: f64,
}

/// Times benches under the shared [`Cli`] and collects their records.
#[derive(Debug)]
pub struct Harness {
    cli: Cli,
    /// Records of every bench timed so far, in run order.
    records: Vec<Record>,
}

impl Harness {
    fn new(cli: Cli) -> Self {
        Self { cli, records: Vec::new() }
    }

    /// Times `routine`, recording best-of-3 ns/iter and the GFLOP/s
    /// implied by `flops` per call (0 when the work is not counted in
    /// FLOPs, e.g. data movement). Wrap values the optimizer could
    /// discard in [`std::hint::black_box`].
    pub fn bench<F: FnMut()>(&mut self, id: impl Into<String>, flops: u64, mut routine: F) {
        let id = id.into();
        if self.cli.list_only {
            println!("{id}: bench");
            return;
        }
        if self.cli.filter.as_deref().is_some_and(|f| !id.contains(f)) {
            return;
        }
        // Warm-up doubles as calibration: one timed call sizes the batch.
        let t0 = Instant::now();
        routine();
        let per_iter = t0.elapsed().as_nanos().max(1);
        let quick = self.cli.quick;
        let iters = if quick { 1 } else { (SAMPLE_BUDGET_NS / per_iter).clamp(1, 10_000) as u64 };
        let mut best_ns = f64::INFINITY;
        for _ in 0..if quick { 1 } else { SAMPLES } {
            let t = Instant::now();
            for _ in 0..iters {
                routine();
            }
            best_ns = best_ns.min(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        let gflops = flops as f64 / best_ns;
        println!("{id:<48} {best_ns:>14.1} ns/iter  {gflops:>8.3} GFLOP/s  ({iters} iters)");
        self.records.push(Record { id, mean_ns: best_ns, iters, gflops });
    }
}

/// `<target>/dlbench-reports` for a bench executable at
/// `<target>/<profile>/deps/<bench>-<hash>`; cargo runs bench binaries
/// with the *package* root as cwd, so the workspace target dir has to
/// be recovered from the executable's own path. Anything else falls
/// back to `target/dlbench-reports` under the cwd.
pub fn reports_dir(exe: &Path) -> PathBuf {
    let from_exe = exe.parent().and_then(|deps| {
        if deps.file_name()? != "deps" {
            return None;
        }
        Some(deps.parent()?.parent()?.join("dlbench-reports"))
    });
    from_exe.unwrap_or_else(|| Path::new("target").join("dlbench-reports"))
}

/// Writes `doc` pretty-printed (newline-terminated) to `file` inside
/// the reports directory and returns its path.
pub fn write_doc(file: &str, doc: &JsonValue) -> Result<PathBuf, String> {
    let dir = reports_dir(&std::env::current_exe().unwrap_or_default());
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, doc.pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// The timed-record document: host facts plus one entry per record.
fn records_doc(records: &[Record]) -> JsonValue {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let round = |x: f64, scale: f64| (x * scale).round() / scale;
    let benchmarks = records
        .iter()
        .map(|r| {
            JsonValue::Object(vec![
                ("id".into(), r.id.as_str().into()),
                ("mean_ns".into(), round(r.mean_ns, 10.0).into()),
                ("iters".into(), (r.iters as usize).into()),
                ("gflops".into(), round(r.gflops, 1e4).into()),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        (
            "host".into(),
            JsonValue::Object(vec![
                ("cpus".into(), cpus.into()),
                ("threads".into(), dlbench_tensor::par::threads().into()),
            ]),
        ),
        ("benchmarks".into(), JsonValue::Array(benchmarks)),
    ])
}

/// Writes `BENCH_<name>.json` for a timed target.
fn export_json(name: &str, records: &[Record]) -> Result<PathBuf, String> {
    write_doc(&format!("BENCH_{name}.json"), &records_doc(records))
}

/// Parses a baseline document into `id -> mean_ns`. A document without
/// a `benchmarks` array, or with an entry lacking a string `id` or a
/// numeric `mean_ns`, is an error: a silent gate is no gate.
fn parse_baseline(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let parsed = dlbench_json::parse(text).map_err(|e| e.to_string())?;
    let list =
        parsed.get("benchmarks").and_then(|b| b.as_array()).ok_or("no `benchmarks` array")?;
    let mut baseline = BTreeMap::new();
    for (i, entry) in list.iter().enumerate() {
        let id = entry.get("id").and_then(|v| v.as_str());
        let ns = entry.get("mean_ns").and_then(|v| v.as_f64());
        let (Some(id), Some(ns)) = (id, ns) else {
            return Err(format!("benchmarks[{i}] needs a string `id` and a numeric `mean_ns`"));
        };
        baseline.insert(id.to_string(), ns);
    }
    Ok(baseline)
}

/// Reads and parses the baseline at `path` (see [`parse_baseline`]).
fn load_baseline(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_baseline(&text).map_err(|e| format!("bad baseline {path}: {e}"))
}

/// Ids running more than [`REGRESSION_TOLERANCE`]× slower than the
/// baseline. Ids present on only one side (renamed/added) are ignored,
/// so the gate never blocks a harness change itself — refresh the
/// baseline in the same PR instead. If *no* measured id has a baseline
/// entry the comparison is vacuous, which is an error.
fn gate_failures(
    records: &[Record],
    baseline: &BTreeMap<String, f64>,
) -> Result<Vec<String>, String> {
    let mut matched = 0;
    let mut failures = Vec::new();
    for r in records {
        let Some(&base_ns) = baseline.get(&r.id) else { continue };
        matched += 1;
        let ratio = r.mean_ns / base_ns;
        if ratio > REGRESSION_TOLERANCE {
            failures.push(format!(
                "  {}: {:.1} ns/iter vs baseline {:.1} ({:+.1}%)",
                r.id,
                r.mean_ns,
                base_ns,
                (ratio - 1.0) * 100.0
            ));
        }
    }
    if matched == 0 {
        return Err(format!(
            "none of the {} measured ids has a baseline entry ({} in baseline)",
            records.len(),
            baseline.len()
        ));
    }
    Ok(failures)
}

/// Keeps, per id, the faster of the existing and retry timing.
fn merge_best(records: &mut [Record], retry: Vec<Record>) {
    for new in retry {
        if let Some(old) = records.iter_mut().find(|r| r.id == new.id) {
            if new.mean_ns < old.mean_ns {
                *old = new;
            }
        }
    }
}

/// Entry point of a timed target: runs `suite` under the process CLI
/// and writes `BENCH_<name>.json`.
pub fn run(name: &str, suite: impl FnMut(&mut Harness)) -> ExitCode {
    execute(name, None, suite)
}

/// [`run`], plus the regression gate against the baseline named by
/// `DLBENCH_PERF_BASELINE` when it is set and the run is not `--quick`
/// (single iterations are too noisy to judge).
pub fn run_gated(name: &str, suite: impl FnMut(&mut Harness)) -> ExitCode {
    execute(name, std::env::var(BASELINE_ENV).ok(), suite)
}

fn execute(
    name: &str,
    baseline_path: Option<String>,
    mut suite: impl FnMut(&mut Harness),
) -> ExitCode {
    let mut h = Harness::new(Cli::from_args());
    suite(&mut h);
    if h.cli.list_only {
        return ExitCode::SUCCESS;
    }
    if baseline_path.is_some() && h.cli.quick {
        println!("perf gate skipped (--quick single-iteration timings are too noisy)");
    }
    let gate = match baseline_path.filter(|_| !h.cli.quick) {
        None => None,
        Some(path) => match load_baseline(&path) {
            Ok(baseline) => Some((path, baseline)),
            Err(e) => {
                eprintln!("perf gate: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if let Some((_, baseline)) = &gate {
        let mut passes = 1;
        while passes < MAX_GATE_PASSES
            && gate_failures(&h.records, baseline).is_ok_and(|f| !f.is_empty())
        {
            passes += 1;
            eprintln!("perf gate: ids over tolerance, re-measuring (pass {passes})");
            let mut retry = Harness::new(h.cli.clone());
            suite(&mut retry);
            merge_best(&mut h.records, retry.records);
        }
    }
    if !h.records.is_empty() {
        match export_json(name, &h.records) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("{e}"),
        }
    }
    let Some((path, baseline)) = gate else { return ExitCode::SUCCESS };
    match gate_failures(&h.records, &baseline) {
        Err(e) => {
            eprintln!("perf gate FAILED against {path}: {e}");
            ExitCode::FAILURE
        }
        Ok(failures) if !failures.is_empty() => {
            eprintln!("perf gate FAILED — ids >15% slower than {path}:");
            for f in &failures {
                eprintln!("{f}");
            }
            ExitCode::FAILURE
        }
        Ok(_) => {
            println!(
                "perf gate OK ({} ids within {:.0}% of baseline)",
                h.records.len(),
                (REGRESSION_TOLERANCE - 1.0) * 100.0
            );
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::parse(args.iter().map(|a| a.to_string()))
    }

    fn record(id: &str, mean_ns: f64) -> Record {
        Record { id: id.into(), mean_ns, iters: 1, gflops: 0.0 }
    }

    fn baseline(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|&(id, ns)| (id.to_string(), ns)).collect()
    }

    #[test]
    fn cli_parses_flags_and_first_positional_filter() {
        let c = cli(&["--bench", "--quick", "gemm", "extra"]);
        assert_eq!(c, Cli { quick: true, list_only: false, filter: Some("gemm".into()) });
        assert!(cli(&["--test"]).quick);
        assert!(cli(&["--list"]).list_only);
        assert_eq!(cli(&[]), Cli::default());
    }

    #[test]
    fn bench_records_one_entry_with_positive_mean() {
        let mut h = Harness::new(cli(&["--quick"]));
        let mut calls = 0u64;
        h.bench("g/counting", 2, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        assert!(calls >= 2, "warm-up plus one timed iteration, got {calls}");
        assert_eq!(h.records.len(), 1);
        assert_eq!(h.records[0].id, "g/counting");
        assert!(h.records[0].mean_ns > 0.0);
        assert_eq!(h.records[0].iters, 1);
    }

    #[test]
    fn filter_skips_unmatched_ids() {
        let mut h = Harness::new(cli(&["--quick", "match-me"]));
        let mut calls = 0u64;
        h.bench("other", 0, || calls += 1);
        h.bench("g/match-me", 0, || calls += 1);
        assert_eq!(h.records.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(), ["g/match-me"]);
        assert_eq!(calls, 2, "only the matching bench runs (warm-up + one iteration)");
    }

    #[test]
    fn list_times_nothing() {
        let mut h = Harness::new(cli(&["--list"]));
        let mut calls = 0u64;
        h.bench("a", 0, || calls += 1);
        h.bench("b", 0, || calls += 1);
        assert_eq!(calls, 0);
        assert!(h.records.is_empty());
    }

    #[test]
    fn exe_path_determines_the_reports_dir() {
        assert_eq!(
            reports_dir(Path::new("/t/release/deps/kernels-0123abcd")),
            Path::new("/t/dlbench-reports")
        );
        let fallback = Path::new("target").join("dlbench-reports");
        assert_eq!(reports_dir(Path::new("/usr/bin/kernels")), fallback);
        assert_eq!(reports_dir(Path::new("")), fallback);
    }

    #[test]
    fn baseline_without_benchmarks_or_with_malformed_entries_is_rejected() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline(r#"{"benchmarks": [{"id": "a"}]}"#).is_err());
        assert!(parse_baseline(r#"{"benchmarks": [{"mean_ns": 1.0}]}"#).is_err());
        assert_eq!(
            parse_baseline(r#"{"host": {}, "benchmarks": [{"id": "a", "mean_ns": 2.5}]}"#),
            Ok(baseline(&[("a", 2.5)]))
        );
    }

    #[test]
    fn gate_passes_at_exactly_the_tolerance_and_fails_above_it() {
        let base = baseline(&[("k", 100.0)]);
        assert_eq!(gate_failures(&[record("k", 115.0)], &base), Ok(vec![]));
        assert_eq!(gate_failures(&[record("k", 115.001)], &base).map(|f| f.len()), Ok(1));
    }

    #[test]
    fn gate_ignores_one_sided_ids_but_rejects_no_overlap() {
        let base = baseline(&[("shared", 100.0), ("retired", 1.0)]);
        let records = [record("shared", 101.0), record("new", 1e9)];
        assert_eq!(gate_failures(&records, &base), Ok(vec![]));
        assert!(gate_failures(&[record("new", 1.0)], &base).is_err());
        assert!(gate_failures(&records, &BTreeMap::new()).is_err());
    }

    #[test]
    fn merge_best_keeps_the_faster_record() {
        let mut records = vec![record("a", 100.0), record("b", 50.0)];
        merge_best(&mut records, vec![record("a", 90.0), record("b", 60.0), record("c", 1.0)]);
        assert_eq!(records, vec![record("a", 90.0), record("b", 50.0)]);
    }

    #[test]
    fn records_doc_carries_host_facts() {
        let doc = records_doc(&[record("a", 1.25)]);
        assert!(doc["host"]["cpus"].as_f64().unwrap() >= 1.0);
        assert!(doc["host"]["threads"].as_f64().unwrap() >= 1.0);
        assert_eq!(parse_baseline(&doc.pretty()), Ok(baseline(&[("a", 1.3)])));
    }
}
