//! Runs every figure regeneration in sequence (the full benchmark
//! harness).
//!
//! Usage: `cargo run --release --bin run_all [--full] [--jobs N] [--json]`
//!
//! Each figure's cell grid fans out over the sweep harness (`--jobs N`
//! workers, default all cores; `--jobs 1` is the legacy sequential path).
//! `--json` additionally runs the core dominance micro-benchmark and
//! writes the machine-readable baselines `BENCH_core.json`,
//! `BENCH_sweep.json`, `BENCH_chaos.json`, `BENCH_attack.json`,
//! `BENCH_monitor.json`, `BENCH_scale.json`, and `BENCH_serve.json` to
//! the current directory.

use datagen::Distribution;
use msq_bench::manet_figs::Metric;
use msq_bench::provenance::{write_baseline, Provenance};
use msq_bench::sweep;

fn main() -> Result<(), String> {
    let scale = msq_bench::Scale::from_args();
    let jobs = sweep::jobs_from_args();
    let json = std::env::args().any(|a| a == "--json");
    let t0 = std::time::Instant::now();
    println!("sweep harness: {jobs} worker thread(s)");

    msq_bench::fig5::panel_a(scale, 3);
    msq_bench::fig5::panel_b(scale, 3);

    msq_bench::static_drr::panel_a(scale, Distribution::Independent, "Fig. 6");
    msq_bench::static_drr::panel_b(scale, Distribution::Independent, "Fig. 6");
    msq_bench::static_drr::panel_c(scale, Distribution::Independent, "Fig. 6");
    msq_bench::static_drr::panel_a(scale, Distribution::AntiCorrelated, "Fig. 7");
    msq_bench::static_drr::panel_b(scale, Distribution::AntiCorrelated, "Fig. 7");
    msq_bench::static_drr::panel_c(scale, Distribution::AntiCorrelated, "Fig. 7");

    for (dist, drr_fig, rt_fig) in [
        (Distribution::Independent, "Fig. 8", "Fig. 10"),
        (Distribution::AntiCorrelated, "Fig. 9", "Fig. 11"),
    ] {
        msq_bench::manet_figs::panel_a(scale, dist, Metric::Drr, drr_fig);
        msq_bench::manet_figs::panel_b(scale, dist, Metric::Drr, drr_fig);
        msq_bench::manet_figs::panel_c(scale, dist, Metric::Drr, drr_fig);
        msq_bench::manet_figs::panel_a(scale, dist, Metric::ResponseTime, rt_fig);
        msq_bench::manet_figs::panel_b(scale, dist, Metric::ResponseTime, rt_fig);
        msq_bench::manet_figs::panel_c(scale, dist, Metric::ResponseTime, rt_fig);
    }

    msq_bench::messages::run(scale);

    println!();
    let chaos = msq_bench::chaos::run(scale);

    println!();
    let attack = msq_bench::attack::run(scale);

    println!();
    let monitor = msq_bench::monitor::run(scale);

    println!();
    let scalebench = msq_bench::scalebench::run(scale);

    println!();
    let serve = msq_bench::servebench::run(scale);

    let total = t0.elapsed();
    println!("\nall figures regenerated in {total:.1?} ({jobs} jobs)");

    if json {
        let prov = Provenance::collect(scale, jobs);
        let stages = sweep::take_stage_records();
        write_baseline("BENCH_sweep.json", &sweep::to_json(&prov, total.as_secs_f64(), &stages))?;
        write_baseline("BENCH_chaos.json", &msq_bench::chaos::to_json(&prov, &chaos))?;
        write_baseline("BENCH_attack.json", &msq_bench::attack::to_json(&prov, &attack))?;
        write_baseline("BENCH_monitor.json", &msq_bench::monitor::to_json(&prov, &monitor))?;
        write_baseline("BENCH_scale.json", &msq_bench::scalebench::to_json(&prov, &scalebench))?;
        write_baseline("BENCH_serve.json", &msq_bench::servebench::to_json(&prov, &serve))?;

        let records = msq_bench::corebench::run(20_000);
        let neighbors = msq_bench::corebench::neighbor_discovery();
        let builds = msq_bench::corebench::relation_build();
        let (scans, merges) = msq_bench::corebench::data_path(20_000);
        let radios = msq_bench::corebench::radio_storm(&[10, 20]);
        let storages = msq_bench::corebench::storage_ablation(10_000);
        write_baseline(
            "BENCH_core.json",
            &msq_bench::corebench::to_json(
                &prov,
                &records,
                &neighbors,
                &builds,
                (&scans, &merges),
                &radios,
                &storages,
            ),
        )?;
    }
    Ok(())
}
