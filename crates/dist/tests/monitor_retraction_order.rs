//! The monitor's originator retracts silent devices in a fixed order.
//!
//! A miss-limit retraction withdraws each stale device's contributions
//! from the originator's `LiveSkyline`. If the stale set is gathered in
//! hash order, repeated runs of one scenario fold the same removals in a
//! different order: every outcome agrees, but the number of
//! `core::live_apply` calls drifts between runs. This runs the repository
//! benchmark's `monitor_churn` scenario (8 × 8 devices, 10 % frame loss, a
//! quarter of the devices crashing once) several times in one process and
//! demands one call count.
//!
//! Spans are process-global, so this test lives alone in its binary.

use dist_skyline::monitor::{run_monitor_experiment, MonitorExperiment, MonitorMode};
use manet_sim::{ChurnConfig, FaultPlan, SimDuration, SimTime};

const RUNS: usize = 4;

fn monitor_churn() -> MonitorExperiment {
    let g = 8;
    let mut exp = MonitorExperiment::defaults(g, MonitorMode::Continuous, 0x300A);
    exp.sites_per_device = 20;
    exp.dim = 3;
    exp.duration_s = 600.0;
    exp.radius = 500.0;
    exp.radio.range_m = 400.0;
    exp.radio.loss_probability = 0.1;
    exp.mon.period = SimDuration::from_secs_f64(15.0);
    exp.fault_plan = Some(FaultPlan::random_churn(&ChurnConfig {
        nodes: g * g,
        churn_fraction: 0.25,
        earliest: SimTime::from_secs_f64(60.0),
        latest: SimTime::from_secs_f64(exp.start_s + exp.duration_s * 0.8),
        min_downtime: SimDuration::from_secs_f64(60.0),
        max_downtime: SimDuration::from_secs_f64(150.0),
        protect: vec![0],
        seed: 0xC4_0A11,
    }));
    exp
}

#[test]
fn retractions_fold_in_the_same_order_every_run() {
    let exp = monitor_churn();
    sim_obs::set_enabled(true);
    let mut runs = Vec::new();
    for _ in 0..RUNS {
        sim_obs::ProfileReport::collect_and_reset();
        let out = run_monitor_experiment(&exp);
        let report = sim_obs::ProfileReport::collect_and_reset();
        let calls = report.row("core::live_apply").map_or(0, |r| r.calls);
        runs.push((calls, out.deltas_applied, out.views.len()));
    }
    sim_obs::set_enabled(false);
    assert!(runs[0].0 > 0, "the scenario must fold deltas: {runs:?}");
    assert!(
        runs.iter().all(|r| *r == runs[0]),
        "(live_apply calls, deltas applied, views) per run: {runs:?}"
    );
}
