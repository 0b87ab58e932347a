//! Spec-sweep harness: executes a declarative experiment spec through
//! the orchestrator's cell cache and reports the hit/miss split, so a
//! warm `target/dlbench-cache` shows the resume machinery paying off.
//!
//! ```sh
//! cargo bench --bench spec                                  # smoke spec
//! cargo bench --bench spec -- examples/specs/paper_tables.json
//! cargo bench --bench spec -- examples/specs/fleet_sweep.json  # sim-only, byte-stable
//! ```
//!
//! Results land in `target/dlbench-reports/BENCH_spec.json`; cells
//! persist under `target/dlbench-cache/` and are skipped on re-run.

use dlbench_spec::{self as spec, ExperimentSpec, RunOptions};
use dlbench_trace::Stopwatch;

fn main() {
    if std::env::args().any(|a| a == "--list") {
        println!("spec: bench");
        return;
    }
    // Bench binaries run with the package dir as cwd; anchor relative
    // paths at the workspace root so invocations from anywhere agree.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let arg = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let path =
        root.join(arg.as_deref().unwrap_or("examples/specs/smoke.json")).display().to_string();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let plan = ExperimentSpec::parse(&text).and_then(|s| s.expand()).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    println!("spec `{}`: {} cell(s) planned", plan.name, plan.cells.len());

    let opts = RunOptions { cache_dir: root.join("target/dlbench-cache"), force: false };
    let watch = Stopwatch::start();
    let run = match spec::run_plan(&plan, &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = watch.elapsed_s();

    for report in spec::aggregate_reports(&run) {
        println!("{}", report.render());
    }
    let out_dir = root.join("target").join("dlbench-reports");
    let _ = std::fs::create_dir_all(&out_dir);
    let out = out_dir.join("BENCH_spec.json");
    if let Err(e) = std::fs::write(&out, spec::document(&run).pretty() + "\n") {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("[spec results written to {}]", out.display());
    println!(
        "[{} cells in {elapsed:.2}s: {} executed, {} cache hits]",
        run.cells.len(),
        run.executed,
        run.cache_hits
    );
}
