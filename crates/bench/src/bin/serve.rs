//! **Serve driver**: the diagram-cache serving front end under a
//! repeated-client workload — see [`msq_bench::servebench`] for the
//! experiment design.
//!
//! Usage: `cargo run --release -p msq-bench --bin serve [--full]
//! [--jobs N] [--json] [--smoke]`
//!
//! `--smoke` swaps in a trimmed two-cell grid (seconds of wall time) for
//! CI determinism checks; `--json` writes `BENCH_serve.json` to the
//! current directory.

use msq_bench::{servebench, sweep};

fn main() -> Result<(), String> {
    let scale = msq_bench::Scale::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let jobs = sweep::jobs_from_args();
    let reports = if smoke {
        println!("== Serve: smoke grid ==\n");
        let reports = servebench::compute(&servebench::smoke_cells(), jobs, "serve_smoke");
        servebench::print_table(&reports);
        reports
    } else {
        servebench::run(scale)
    };
    if std::env::args().any(|a| a == "--json") {
        let prov = msq_bench::provenance::Provenance::collect(scale, jobs);
        msq_bench::provenance::write_baseline(
            "BENCH_serve.json",
            &servebench::to_json(&prov, &reports),
        )?;
    }
    Ok(())
}
