//! # dlbench-spec
//!
//! Declarative experiment specs: a JSON file describing axes of the
//! benchmark cross-product (framework personality, default setting,
//! dataset, device, world size, serving deadline, dtype, routing…)
//! expands into a deterministic [`Plan`] of cells, each identified by a
//! content hash of its fully-resolved parameters.
//!
//! [`run_plan`] executes a plan on every engine of the suite itself:
//! train cells through the memoizing [`dlbench_core::BenchmarkRunner`],
//! dist cells through the data-parallel driver, serve cells against the
//! real HTTP tier on an ephemeral port, and fleet cells through the
//! simtime fleet simulator. Every finished cell persists to an on-disk
//! cache, so an interrupted sweep resumes instead of retraining.
//!
//! Axis values parse through the `FromStr` impl of the type that owns
//! the axis (`FrameworkKind`, `DatasetKind`, `Scale`, `Strategy`,
//! `ModelDtype`, `RoutingPolicy`, [`DeviceChoice`]), the same one the
//! CLI uses, so a spelling means the same thing everywhere.
//!
//! ```no_run
//! let text = std::fs::read_to_string("examples/specs/smoke.json").unwrap();
//! let plan = dlbench_spec::ExperimentSpec::parse(&text).and_then(|s| s.expand()).unwrap();
//! let opts = dlbench_spec::RunOptions { cache_dir: "target/dlbench-cache".into(), force: false };
//! let run = dlbench_spec::run_plan(&plan, &opts).unwrap();
//! println!("{}", dlbench_spec::document(&run).pretty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod spec;

pub use spec::{
    aggregate_reports, document, run_plan, CellKindTag, CellPayload, CellRun, DeviceChoice,
    DistCellSpec, ExperimentSpec, FleetCellSpec, Plan, PlanCell, RunOptions, ServeCellSpec,
    SpecRun, TrainCellSpec, SPEC_FORMAT,
};
