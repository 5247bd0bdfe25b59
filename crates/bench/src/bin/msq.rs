//! `msq` — the one command-line front end: the paper's figures, the
//! extension experiments, the `BENCH_*.json` benches and their tools, and
//! one-off queries and simulations. `msq help` lists the
//! subcommands ([`msq_bench::cli::HELP`]).
//!
//! ```text
//! msq fig 8 --jobs 4 --csv results/csv    # Figs. 8 and 10: fig8{a,b,c}_Independent.csv
//! msq ext chaos --json
//! msq diff BENCH_core.json /tmp/x/BENCH_core.json --tol 1.5
//! msq query --cardinality 50000 --grid 5 --origin 12 --d 250 --strategy dynamic
//! ```
//!
//! Exit codes: 0 success, 1 a failed run (a file that could not be
//! written, or `msq diff` drift), 2 a usage error (reported before any
//! work runs) or `msq diff` inputs that cannot be compared.

use std::process::ExitCode;

use msq_bench::{cli, commands};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::HELP);
            return ExitCode::from(2);
        }
    };
    commands::execute(cmd).unwrap_or_else(|e| {
        eprintln!("Error: {e}");
        ExitCode::FAILURE
    })
}
