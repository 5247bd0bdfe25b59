//! **Extension experiment**: continuous monitoring vs. naive re-query —
//! the message bill of keeping a range skyline fresh.
//!
//! Each cell runs one standing range-skyline query over a mobile device
//! grid for the full duration, in one of two modes on identical seeds and
//! fault schedules:
//!
//! * `delta` — the delta-update protocol of `dist_skyline::monitor`:
//!   devices transmit only when their local skyline actually changed,
//!   heartbeat when silent, and resync in full after crashes or ARQ
//!   exhaustion.
//! * `requery` — the naive baseline: the originator re-floods the query
//!   every epoch and every device ships its complete local skyline back.
//!
//! Both modes are scored per epoch against the oracle reconstructed from
//! in-situ device recordings, and every cell must pass the zero-drift
//! reconciliation (`verify_monitor_drift`) — the sweep refuses to report
//! numbers whose books don't balance. The headline comparison: at equal
//! period and equal fidelity, `delta` must send strictly fewer messages
//! and bytes than `requery`.
//!
//! Usage: `msq ext monitor [--full] [--jobs N] [--json]`

use dist_skyline::monitor::{
    run_monitor_experiment, verify_monitor_drift, MonitorExperiment, MonitorMode, MonitorOutcome,
};
use manet_sim::{ChurnConfig, FaultPlan, SimDuration, SimTime};
use std::time::Instant;

use crate::provenance::{det, int, label, print_rows, vol, Grid, Row, Value, GRID_REV};
use crate::sweep;
use crate::{RunOpts, Scale};

/// Master seed shared by every cell.
const SEED: u64 = 0x300A;

/// Epoch periods swept (seconds). The shorter period stresses the
/// one-in-flight discipline; the longer one the heartbeat/lease machinery.
pub const PERIODS: [f64; 2] = [15.0, 30.0];

/// Churn fractions swept.
pub const CHURN: [f64; 2] = [0.0, 0.25];

/// Independent per-frame loss probabilities swept.
pub const LOSS: [f64; 2] = [0.0, 0.1];

/// The two modes, compared on identical seeds and fault schedules.
pub fn modes() -> [(&'static str, MonitorMode); 2] {
    [("delta", MonitorMode::Continuous), ("requery", MonitorMode::Requery)]
}

/// Derives the fault-plan seed for a grid point. Only `(churn, loss,
/// period)` feed in — both modes at the same point replay the *same*
/// crash schedule, so they differ only in protocol.
fn fault_seed(churn: f64, loss: f64, period: f64) -> u64 {
    SEED ^ ((churn * 100.0) as u64) << 8 ^ ((loss * 100.0) as u64) << 20 ^ (period as u64) << 32
}

/// Builds the experiment for one `(period, churn, loss, mode)` cell.
pub fn experiment(
    scale: Scale,
    period: f64,
    churn: f64,
    loss: f64,
    mode: MonitorMode,
) -> MonitorExperiment {
    let mut exp = MonitorExperiment::defaults(scale.monitor_grid(), mode, SEED);
    exp.duration_s = scale.monitor_duration_seconds();
    exp.radio.range_m = 400.0;
    exp.radio.loss_probability = loss;
    exp.radius = 500.0;
    exp.mon.period = SimDuration::from_secs_f64(period);
    if churn > 0.0 {
        let m = exp.g * exp.g;
        // The originator is protected: an originator crash ends the run
        // for both modes identically, which would measure nothing about
        // the protocols. Device crashes are the interesting case — the
        // delta mode must resync, the re-query mode just re-asks.
        exp.fault_plan = Some(FaultPlan::random_churn(&ChurnConfig {
            nodes: m,
            churn_fraction: churn,
            earliest: SimTime::from_secs_f64(60.0),
            latest: SimTime::from_secs_f64(exp.start_s + exp.duration_s * 0.8),
            min_downtime: SimDuration::from_secs_f64(60.0),
            max_downtime: SimDuration::from_secs_f64(150.0),
            protect: vec![0],
            seed: fault_seed(churn, loss, period),
        }));
    }
    exp
}

/// One `(period, churn, loss, mode)` cell of the grid.
type Cell = (f64, f64, f64, &'static str, MonitorMode);

/// One cell's row, keyed by `(mode, period_s, churn, loss)`: every count
/// deterministic, the cell's wall clock volatile. `min_completeness` is
/// the worst epoch from epoch 2 on (the first view predates the first
/// round trip in both modes).
fn row(&(period, churn, loss, mode, _): &Cell, out: &MonitorOutcome, seconds: f64) -> Row {
    let settled = out.views.iter().filter(|v| v.epoch >= 2).filter_map(|v| v.completeness);
    let fixed = |x: Option<f64>, decimals| Value::Fixed(x.unwrap_or(f64::NAN), decimals);
    vec![
        label("mode", mode),
        label("period_s", Value::Float(period)),
        label("churn", Value::Float(churn)),
        label("loss", Value::Float(loss)),
        det("epochs", out.views.len()),
        det("mean_completeness", fixed(out.mean_epoch_completeness, 6)),
        det("min_completeness", Value::Fixed(settled.fold(f64::NAN, f64::min), 6)),
        det("spurious", out.spurious_total),
        det("mean_staleness_s", fixed(out.mean_staleness_s, 3)),
        det("messages", out.messages_sent),
        det("bytes", out.bytes_sent),
        det("deltas_sent", out.deltas_sent),
        det("heartbeats", out.heartbeats_sent),
        det("deltas_applied", out.deltas_applied),
        det("arq_retries", out.arq_retries),
        det("arq_exhausted", out.arq_exhausted),
        det("lease_expired", out.lease_expired),
        det("node_crashes", out.net.node_crashes),
        det("energy_j", Value::Fixed(out.total_energy_joules, 3)),
        vol("seconds", Value::Fixed(seconds, 3)),
    ]
}

/// Runs the full `period × churn × loss × mode` grid through the sweep
/// harness, prints the comparison rows and returns them as
/// `BENCH_monitor.json`'s grid (shared by `msq ext monitor` and `msq
/// all`). Rows come in grid order (period-major, then churn, loss, mode),
/// byte-identical for any `--jobs`. Every cell is zero-drift verified
/// before it is reported.
pub fn run(o: &RunOpts) -> Grid {
    let g = o.scale.monitor_grid();
    let mut cells: Vec<Cell> = Vec::new();
    for &period in &PERIODS {
        for &churn in &CHURN {
            for &loss in &LOSS {
                for (name, mode) in modes() {
                    cells.push((period, churn, loss, name, mode));
                }
            }
        }
    }
    let rows = sweep::run_stage("ext_monitor", o.jobs, &cells, |cell| {
        let (period, churn, loss, name, mode) = *cell;
        let t0 = Instant::now();
        let out = run_monitor_experiment(&experiment(o.scale, period, churn, loss, mode));
        let at = format!("({name}, p={period}, churn={churn}, loss={loss})");
        if let Err(e) = verify_monitor_drift(&out) {
            panic!("ext_monitor: cell {at} drifted: {e}");
        }
        assert_eq!(out.fold_remove_misses, 0, "ext_monitor: fold bucket algebra miss in {at}");
        row(cell, &out, t0.elapsed().as_secs_f64())
    });
    print_rows(
        &format!(
            "Extension: continuous monitoring vs re-query ({} devices, mobile, {:.0} s standing \
             query; fewer messages is better at equal completeness)",
            g * g,
            o.scale.monitor_duration_seconds()
        ),
        &rows,
    );
    // Each grid point is a (delta, requery) pair of cells.
    let points = rows.chunks(modes().len());
    let wins = points
        .clone()
        .filter(|p| int(&p[0], "messages") < int(&p[1], "messages"))
        .count();
    let points = points.len();
    let hb: u64 = rows.iter().map(|r| int(r, "heartbeats")).sum();
    let resyncs: u64 = rows.iter().map(|r| int(r, "arq_exhausted")).sum();
    println!("\ndelta mode sent fewer messages than re-query at {wins}/{points} grid points");
    println!("heartbeats: {hb}, ARQ-exhaustion-forced full resyncs: {resyncs}");
    println!("\nexpected shape: delta wins every point; the gap widens with the");
    println!("period (quiescent epochs cost a heartbeat at most, never a flood),");
    println!("and completeness stays matched — the savings are not bought with");
    println!("staleness the re-query mode wouldn't also pay.");
    let header = vec![
        ("devices", Value::from(g * g)),
        ("duration_seconds", Value::Float(o.scale.monitor_duration_seconds())),
    ];
    Grid { bench: "monitor", grid_rev: GRID_REV, header, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build cell sizing shared by the tests below.
    fn shrink(period: f64, churn: f64, loss: f64, mode: MonitorMode) -> MonitorExperiment {
        let mut exp = experiment(Scale::Quick, period, churn, loss, mode);
        exp.g = 3;
        exp.sites_per_device = 3;
        exp.duration_s = 240.0;
        if let Some(_plan) = exp.fault_plan.take() {
            exp.fault_plan = Some(FaultPlan::random_churn(&ChurnConfig {
                nodes: 9,
                churn_fraction: churn,
                earliest: SimTime::from_secs_f64(60.0),
                latest: SimTime::from_secs_f64(200.0),
                min_downtime: SimDuration::from_secs_f64(40.0),
                max_downtime: SimDuration::from_secs_f64(90.0),
                protect: vec![0],
                seed: fault_seed(churn, loss, period),
            }));
        }
        exp
    }

    #[test]
    fn modes_share_fault_schedules_at_each_grid_point() {
        let a = experiment(Scale::Quick, 15.0, 0.25, 0.1, MonitorMode::Continuous);
        let b = experiment(Scale::Quick, 15.0, 0.25, 0.1, MonitorMode::Requery);
        assert_eq!(a.fault_plan, b.fault_plan);
        assert!(a.fault_plan.is_some());
        assert!(experiment(Scale::Quick, 15.0, 0.0, 0.1, MonitorMode::Continuous)
            .fault_plan
            .is_none());
        // Different periods shuffle the victims (independent coordinates).
        let c = experiment(Scale::Quick, 30.0, 0.25, 0.1, MonitorMode::Continuous);
        assert_ne!(a.fault_plan, c.fault_plan);
    }

    /// The headline claim, enforced in CI at debug scale: at an equal
    /// period the delta protocol is strictly cheaper than re-query, on a
    /// churning, lossy grid — and both books balance.
    #[test]
    fn delta_mode_is_strictly_cheaper_than_requery() {
        let run = |mode| {
            let out = run_monitor_experiment(&shrink(30.0, 0.25, 0.1, mode));
            verify_monitor_drift(&out).expect("drifted");
            out
        };
        let delta = run(MonitorMode::Continuous);
        let requery = run(MonitorMode::Requery);
        assert!(delta.views.len() >= 5);
        assert!(
            delta.messages_sent < requery.messages_sent,
            "delta {} vs requery {}",
            delta.messages_sent,
            requery.messages_sent
        );
        assert!(delta.bytes_sent < requery.bytes_sent);
    }

    /// The sweep-harness acceptance bar: a slice of the grid computed with
    /// one worker and with four must be bit-identical, or parallel
    /// regeneration could silently change the committed
    /// `BENCH_monitor.json` baseline.
    #[test]
    fn parallel_monitor_grid_is_bit_identical_to_sequential() {
        let cells: Vec<Cell> = vec![
            (30.0, 0.0, 0.0, "delta", MonitorMode::Continuous),
            (30.0, 0.25, 0.1, "delta", MonitorMode::Continuous),
            (30.0, 0.25, 0.1, "requery", MonitorMode::Requery),
        ];
        let go = |stage: &str, jobs| {
            let rows: Vec<Row> = sweep::run_stage(stage, jobs, &cells, |cell| {
                let (p, c, l, _, mode) = *cell;
                row(cell, &run_monitor_experiment(&shrink(p, c, l, mode)), 0.0)
            });
            crate::provenance::grid_objects(&rows)
        };
        let seq = go("monitor_det_seq", 1);
        let par = go("monitor_det_par", 4);
        let _ = sweep::take_stage_records();
        assert_eq!(seq, par);
        assert_eq!(seq, PINNED_ROWS);
    }

    /// The shrunk cells' `grid` rows, as the per-cell report structs wrote
    /// them before rows were built from the outcomes.
    const PINNED_ROWS: [&str; 3] = [
        r#"{"mode": "delta", "period_s": 30, "churn": 0, "loss": 0, "epochs": 7, "mean_completeness": 0.714286, "min_completeness": 0.000000, "spurious": 4, "mean_staleness_s": 57.321, "messages": 103, "bytes": 4376, "deltas_sent": 25, "heartbeats": 7, "deltas_applied": 19, "arq_retries": 30, "arq_exhausted": 8, "lease_expired": 0, "node_crashes": 0, "energy_j": 0.954}"#,
        r#"{"mode": "delta", "period_s": 30, "churn": 0.25, "loss": 0.1, "epochs": 7, "mean_completeness": 0.285714, "min_completeness": 0.000000, "spurious": 6, "mean_staleness_s": 67.500, "messages": 100, "bytes": 4740, "deltas_sent": 22, "heartbeats": 4, "deltas_applied": 15, "arq_retries": 37, "arq_exhausted": 9, "lease_expired": 0, "node_crashes": 2, "energy_j": 0.552}"#,
        r#"{"mode": "requery", "period_s": 30, "churn": 0.25, "loss": 0.1, "epochs": 7, "mean_completeness": 0.500000, "min_completeness": 0.000000, "spurious": 4, "mean_staleness_s": 63.750, "messages": 260, "bytes": 11973, "deltas_sent": 54, "heartbeats": 0, "deltas_applied": 30, "arq_retries": 107, "arq_exhausted": 25, "lease_expired": 0, "node_crashes": 2, "energy_j": 0.726}"#,
    ];
}
