//! Experiment registry, cost-breakdown tables, and paper comparison for
//! the WWT reproduction.
//!
//! This crate is the public entry point of the reproduction. It knows
//! every experiment of the paper's evaluation (Tables 4–23 plus the
//! Section 5.2 collective ablation and the Section 5.3.4 bulk-update
//! extension), runs them at paper scale or test scale, projects the
//! engine's (scope × kind) cycle matrices into the paper's per-table row
//! sets, and compares the measured *shape* — who wins, by what factor,
//! where the time goes — against the numbers the paper reports.
//!
//! # Example
//!
//! ```
//! use wwt_core::{Experiment, Scale};
//!
//! let out = wwt_core::run_experiment(Experiment::GaussMp, Scale::Test);
//! assert!(out.run.validation.passed);
//! println!("{}", out.tables[0]); // the Table-8-style breakdown
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod experiment;
pub mod export;
pub mod paper;
pub mod runner;
pub mod sweep;
pub mod table;
pub mod timeline;

pub use experiment::{
    run_experiment, run_experiment_with, run_experiment_with_arch, simulations_performed,
    try_run_experiment_with_arch, Experiment, ExperimentOutput, ExperimentSummary, Machine, Scale,
};
pub use export::{breakdown_json, experiment_json};
pub use paper::{headline_checks, paper_reference, HeadlineCheck, PaperTable};
pub use runner::{
    render_report, render_section, run_grid, timeline_bucket, ExperimentArtifacts, RunnerConfig,
    TraceArtifacts,
};
pub use sweep::{render_sweep_report, run_sweep, SweepOutcome};
pub use table::{
    breakdown_mp, breakdown_sm, events_mp, events_sm, BreakdownTable, EventTable, Row,
};
pub use timeline::{render_timeline, TimelineError};

// Re-export the component crates so downstream users need only one
// dependency.
pub use wwt_apps as apps;
pub use wwt_arch as arch;
pub use wwt_diff as diff;
pub use wwt_mem as mem;
pub use wwt_mp as mp;
pub use wwt_obs as obs;
pub use wwt_sim as sim;
pub use wwt_sim::trace;
pub use wwt_sm as sm;
pub use wwt_store as store;
