//! The harness behind `msq`, the one binary that regenerates every table
//! and figure of the paper's evaluation (Section 5), the extension grids
//! and the `BENCH_*.json` baselines.
//!
//! [`cli::parse`] turns the command line into a typed [`cli::Command`]
//! once; [`commands::execute`] runs it over the sweep functions here,
//! which take their grid, worker count and CSV directory as a
//! [`RunOpts`] and never read the process arguments. Figure and
//! experiment subcommands accept `--full` to run at the paper's original
//! scale (1M tuples, 100 devices, 2 h simulations); the default is a
//! scaled-down configuration with the same *shape* that finishes in
//! seconds to minutes. Every table is a list of rows in long form, one
//! line per cell with its axes as columns (`provenance::print_rows`),
//! the same rows a baseline or a `--csv` file holds.

pub mod attack;
pub mod benchdiff;
pub mod chaos;
pub mod cli;
pub mod commands;
pub mod corebench;
pub mod extensions;
pub mod fig5;
pub mod manet_figs;
pub mod messages;
pub mod monitor;
pub mod perf_report;
pub mod provenance;
pub mod scale;
pub mod scalebench;
pub mod servebench;
pub mod static_drr;
pub mod sweep;
pub mod trace_query;

pub use scale::Scale;

/// How a figure or experiment runs: its parameter grid, the sweep's
/// worker count, and the directory its tables' CSVs go to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOpts {
    /// Parameter grid.
    pub scale: Scale,
    /// Sweep worker threads (`1` maps the cells on the caller's thread).
    pub jobs: usize,
    /// When set, every figure table is also written as `<dir>/<id>.csv`.
    pub csv: Option<std::path::PathBuf>,
}
