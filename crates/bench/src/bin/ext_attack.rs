//! **Extension experiment**: adversarial chaos grid — see
//! [`msq_bench::attack`] for the experiment design.
//!
//! Usage: `cargo run --release -p msq-bench --bin ext_attack [--full]
//! [--jobs N] [--json]`
//!
//! `--json` additionally writes `BENCH_attack.json` to the current
//! directory.

fn main() -> Result<(), String> {
    let scale = msq_bench::Scale::from_args();
    let reports = msq_bench::attack::run(scale);
    if std::env::args().any(|a| a == "--json") {
        let jobs = msq_bench::sweep::jobs_from_args();
        let prov = msq_bench::provenance::Provenance::collect(scale, jobs);
        msq_bench::provenance::write_baseline(
            "BENCH_attack.json",
            &msq_bench::attack::to_json(&prov, &reports),
        )?;
    }
    Ok(())
}
