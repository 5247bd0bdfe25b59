//! Acceptance tests for the observability layer's two core promises:
//!
//! * **Jobs invariance** — histograms, gauge series, and the span
//!   profile's deterministic columns are bit-identical whether a sweep
//!   runs on one worker or four, so instrumented baselines can be
//!   regenerated in parallel without drift.
//! * **Zero observer effect** — turning gauges on changes nothing about
//!   the simulation itself: records, frames, and every deterministic
//!   outcome byte match an uninstrumented run on the same seeds.
//!
//! Plus the committed-baseline gate: every `BENCH_*.json` in the repo
//! root must parse with the in-tree JSON reader and self-diff clean
//! through `benchdiff` — the same path CI's perf-smoke job exercises.

use dist_skyline::config::ObsConfig;
use dist_skyline::runtime::run_experiment;
use msq_bench::scalebench::ScaleCell;
use msq_bench::{benchdiff, scalebench, sweep};
use sim_obs::ProfileReport;
use std::sync::Mutex;

/// Span state is process-global; tests that enable collection (or whose
/// instrumented work would pollute an enabled collector) serialize here.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Debug-build cells: small networks, short horizon, same code path as
/// the real scale grid.
fn small_cells() -> Vec<ScaleCell> {
    [3usize, 4]
        .iter()
        .map(|&g| ScaleCell { g, cardinality: 1_500, dim: 2, sim_seconds: 240.0 })
        .collect()
}

#[test]
fn histograms_and_gauges_are_bit_identical_across_jobs() {
    let _l = OBS_LOCK.lock().unwrap();
    let cells = small_cells();
    let go = |stage: &str, jobs| {
        sweep::run_stage(stage, jobs, &cells, |c| {
            let mut exp = scalebench::experiment(c);
            exp.obs = ObsConfig::sampled();
            run_experiment(&exp)
        })
    };
    let seq = go("obs_jobs1", 1);
    let par = go("obs_jobs4", 4);
    let _ = sweep::take_stage_records();
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.response_hist, p.response_hist);
        assert_eq!(s.reply_hops_hist, p.reply_hops_hist);
        assert_eq!(s.reply_latency_hist, p.reply_latency_hist);
        assert_eq!(s.gauges, p.gauges, "gauge series must not depend on worker count");
        // The comparisons are not vacuous: queries completed and samples
        // landed.
        assert!(s.response_hist.count() > 0, "no completed queries recorded");
        assert!(s.reply_hops_hist.count() > 0, "no reply hops recorded");
        let log = s.gauges.as_ref().expect("gauges were on");
        assert!(!log.rows.is_empty(), "sampler produced no rows");
        assert!(log.max_value("wheel.pending").is_some());
        assert!(log.max_value("energy.total_j").unwrap_or(0.0) > 0.0);
    }
}

#[test]
fn gauge_sampling_has_zero_observer_effect() {
    let _l = OBS_LOCK.lock().unwrap();
    let cell = small_cells()[0];
    let run = |gauges: bool| {
        let mut exp = scalebench::experiment(&cell);
        if gauges {
            exp.obs = ObsConfig::sampled();
        }
        run_experiment(&exp)
    };
    let off = run(false);
    let on = run(true);
    assert!(off.gauges.is_none(), "gauges default off");
    assert!(on.gauges.is_some());
    // The stepping sampler must process exactly the events the single
    // run_until processes, in the same order: every deterministic outcome
    // matches bit-for-bit.
    assert_eq!(off.records, on.records);
    assert_eq!(off.net.frames_sent, on.net.frames_sent);
    assert_eq!(off.net.aodv_frames, on.net.aodv_frames);
    assert_eq!(off.total_forward_messages, on.total_forward_messages);
    assert_eq!(off.total_result_messages, on.total_result_messages);
    assert_eq!(off.drr.to_bits(), on.drr.to_bits());
    assert_eq!(off.total_energy_joules.to_bits(), on.total_energy_joules.to_bits());
    assert_eq!(off.response_hist, on.response_hist);
    assert_eq!(off.reply_hops_hist, on.reply_hops_hist);
}

#[test]
fn span_profile_deterministic_columns_are_jobs_invariant() {
    let _l = OBS_LOCK.lock().unwrap();
    let cells = small_cells();
    let profile_of = |stage: &str, jobs| {
        sim_obs::set_enabled(true);
        let _ = ProfileReport::collect_and_reset();
        let outs =
            sweep::run_stage(stage, jobs, &cells, |c| run_experiment(&scalebench::experiment(c)));
        sim_obs::set_enabled(false);
        let rep = ProfileReport::collect_and_reset();
        assert!(!outs.is_empty());
        // Every BF callback that reads `ctx.neighbors()` (issue, relay,
        // re-issue) also floods, so app broadcasts bound the reads.
        let app_neighbor_reads: u64 = outs.iter().map(|o| o.net.app_broadcasts_sent).sum();
        (rep, app_neighbor_reads)
    };
    let (rep1, app_neighbor_reads) = profile_of("span_jobs1", 1);
    let (rep4, _) = profile_of("span_jobs4", 4);
    let _ = sweep::take_stage_records();
    // calls/bytes/units are pure functions of the simulated work and merge
    // by addition — identical at any worker count. wall_ns is volatile and
    // deliberately excluded.
    assert_eq!(rep1.deterministic_columns(), rep4.deterministic_columns());
    for name in ["wheel::cascade", "radio::deliver", "aodv::send", "grid::query"] {
        let row = rep1.row(name).unwrap_or_else(|| panic!("span `{name}` never fired"));
        assert!(row.calls > 0);
    }
    // Neighbourhoods are built on demand: one grid query per broadcast
    // transmission (receiver pruning) plus one per callback that reads its
    // neighbour list — never one per delivered frame.
    let calls = |name| rep1.row(name).expect("span fired").calls;
    assert!(
        calls("grid::query") <= calls("radio::tx") + app_neighbor_reads,
        "grid::query fired {} times for {} transmissions + {} neighbour reads ({} deliveries)",
        calls("grid::query"),
        calls("radio::tx"),
        app_neighbor_reads,
        calls("radio::deliver"),
    );
}

#[test]
fn committed_baselines_parse_and_self_diff_clean() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for name in [
        "BENCH_core",
        "BENCH_sweep",
        "BENCH_chaos",
        "BENCH_attack",
        "BENCH_monitor",
        "BENCH_scale",
        "BENCH_serve",
        "BENCH_energy",
        "BENCH_multi-filter",
        "BENCH_redistribution",
    ] {
        let path = format!("{root}/{name}.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}.json missing from repo root: {e}"));
        let rep = benchdiff::diff_texts(&text, &text, 0.5)
            .unwrap_or_else(|e| panic!("{name}.json refused its own diff: {e}"));
        assert!(rep.passed(), "{name}.json self-diff found findings: {rep:?}");
    }
}
