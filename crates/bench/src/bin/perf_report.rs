//! Profiling driver over the pinned scale scenario — see
//! [`msq_bench::perf_report`] for the design.
//!
//! Usage: `cargo run --release -p msq-bench --bin perf_report [--g N]
//! [--json]`
//!
//! `--json` additionally writes `PROFILE_g<N>.json` (the span profile in
//! the shared grid/timings schema) to the current directory.

use msq_bench::provenance::write_baseline;

fn main() -> Result<(), String> {
    let g = msq_bench::perf_report::g_from_args();
    let run = msq_bench::perf_report::run(g);
    print!("{}", msq_bench::perf_report::render(&run));
    if std::env::args().any(|a| a == "--json") {
        let json = run.profile.to_json(&format!("scale_g{g}"));
        write_baseline(&format!("PROFILE_g{g}.json"), &json)?;
    }
    Ok(())
}
