//! Quickstart: regenerate the paper's Figure 1 and Table II at tiny
//! scale and print all three metric groups.
//!
//! ```sh
//! cargo run --release -p dlbench-examples --bin quickstart          # tiny
//! cargo run --release -p dlbench-examples --bin quickstart -- small  # benchmark-grade
//! ```

use std::process::ExitCode;

use dlbench_core::{BenchmarkRunner, ExperimentId};
use dlbench_frameworks::Scale;

fn main() -> ExitCode {
    // Tiny scale keeps this example under ~1 min; pass `small` (or
    // `paper`) for benchmark-grade numbers.
    let scale = match std::env::args().nth(1).map(|raw| raw.parse::<Scale>()) {
        None => Scale::Tiny,
        Some(Ok(scale)) => scale,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runner = BenchmarkRunner::new(scale, 42);

    println!("DLBench quickstart — regenerating the paper's Figure 1 (MNIST, own defaults)\n");
    let report = ExperimentId::Fig1.run(&mut runner);
    println!("{}", report.render());

    println!("Static configuration database (paper Table II):\n");
    println!("{}", ExperimentId::TableII.run(&mut runner).render());

    println!(
        "Trained {} distinct cells. Timing columns are simulated (paper-scale schedule on the \
         modelled Xeon E5-1620 / GTX 1080 Ti); accuracy is measured by really training the \
         scaled configuration.",
        runner.trained_cells()
    );
    ExitCode::SUCCESS
}
