//! **Scale driver**: end-to-end skyline queries on constant-density
//! networks 10–40× the paper's largest — see [`msq_bench::scalebench`]
//! for the experiment design.
//!
//! Usage: `cargo run --release -p msq-bench --bin scale [--full]
//! [--jobs N] [--json] [--smoke]`
//!
//! `--smoke` swaps in a trimmed two-cell grid (seconds of wall time) for
//! CI determinism checks; `--json` writes `BENCH_scale.json` to the
//! current directory.

use msq_bench::{scalebench, sweep};

fn main() -> Result<(), String> {
    let scale = msq_bench::Scale::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let jobs = sweep::jobs_from_args();
    let reports = if smoke {
        println!("== Scale: smoke grid ==\n");
        scalebench::compute(&scalebench::smoke_cells(), jobs, "scale_smoke")
    } else {
        scalebench::run(scale)
    };
    if std::env::args().any(|a| a == "--json") {
        let prov = msq_bench::provenance::Provenance::collect(scale, jobs);
        msq_bench::provenance::write_baseline(
            "BENCH_scale.json",
            &scalebench::to_json(&prov, &reports),
        )?;
    }
    Ok(())
}
