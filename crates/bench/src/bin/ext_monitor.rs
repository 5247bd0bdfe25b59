//! **Extension experiment**: continuous monitoring vs naive re-query —
//! see [`msq_bench::monitor`] for the experiment design.
//!
//! Usage: `cargo run --release -p msq-bench --bin ext_monitor [--full]
//! [--jobs N] [--json]`
//!
//! `--json` additionally writes `BENCH_monitor.json` to the current
//! directory.

fn main() -> Result<(), String> {
    let scale = msq_bench::Scale::from_args();
    let reports = msq_bench::monitor::run(scale);
    if std::env::args().any(|a| a == "--json") {
        let jobs = msq_bench::sweep::jobs_from_args();
        let prov = msq_bench::provenance::Provenance::collect(scale, jobs);
        msq_bench::provenance::write_baseline(
            "BENCH_monitor.json",
            &msq_bench::monitor::to_json(&prov, &reports),
        )?;
    }
    Ok(())
}
