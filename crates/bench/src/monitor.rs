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

use crate::provenance::{
    baseline_json, det, label, print_rows, vol, Provenance, Row, Value, GRID_REV,
};
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

/// Everything the sweep reports for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Mode label (`delta` or `requery`).
    pub mode: &'static str,
    /// Epoch period (s).
    pub period_s: f64,
    /// Churn fraction of the cell.
    pub churn: f64,
    /// Frame-loss probability of the cell.
    pub loss: f64,
    /// Epoch views the originator produced.
    pub epochs: u64,
    /// Mean per-epoch oracle completeness.
    pub mean_completeness: f64,
    /// Worst-epoch completeness (epochs ≥ 2; the first view predates the
    /// first round trip in both modes).
    pub min_completeness: f64,
    /// Total spurious view members across epochs (must be 0 under zero
    /// churn: nothing may survive in the fold that the oracle refutes).
    pub spurious: u64,
    /// Mean view staleness (s).
    pub mean_staleness_s: f64,
    /// Application messages sent (floods, deltas, replies, acks).
    pub messages: u64,
    /// Application payload bytes sent.
    pub bytes: u64,
    /// Non-heartbeat deltas / replies sent.
    pub deltas_sent: u64,
    /// Zero-change heartbeats sent.
    pub heartbeats: u64,
    /// Deltas folded at the originator.
    pub deltas_applied: u64,
    /// ARQ retransmissions.
    pub arq_retries: u64,
    /// ARQ-tracked messages abandoned (each forces a full resync).
    pub arq_exhausted: u64,
    /// Lease expiries (should be 0 while the originator lives).
    pub lease_expired: u64,
    /// Fold bucket-algebra misses (any > 0 is a bug).
    pub fold_remove_misses: u64,
    /// Crash events the engine executed.
    pub node_crashes: u64,
    /// Total radio energy (J).
    pub energy_j: f64,
    /// Wall seconds this cell took (volatile; lives in the `timings`
    /// section of the baseline, never in `grid` — determinism tests
    /// normalize it to 0 before comparing reports).
    pub seconds: f64,
}

fn report(
    mode: &'static str,
    period: f64,
    churn: f64,
    loss: f64,
    out: &MonitorOutcome,
    seconds: f64,
) -> CellReport {
    let settled: Vec<f64> = out
        .views
        .iter()
        .filter(|v| v.epoch >= 2)
        .filter_map(|v| v.completeness)
        .collect();
    CellReport {
        mode,
        period_s: period,
        churn,
        loss,
        epochs: out.views.len() as u64,
        mean_completeness: out.mean_epoch_completeness.unwrap_or(f64::NAN),
        min_completeness: settled.iter().copied().fold(f64::NAN, f64::min),
        spurious: out.spurious_total,
        mean_staleness_s: out.mean_staleness_s.unwrap_or(f64::NAN),
        messages: out.messages_sent,
        bytes: out.bytes_sent,
        deltas_sent: out.deltas_sent,
        heartbeats: out.heartbeats_sent,
        deltas_applied: out.deltas_applied,
        arq_retries: out.arq_retries,
        arq_exhausted: out.arq_exhausted,
        lease_expired: out.lease_expired,
        fold_remove_misses: out.fold_remove_misses,
        node_crashes: out.net.node_crashes,
        energy_j: out.total_energy_joules,
        seconds,
    }
}

/// Runs the full `period × churn × loss × mode` grid through the sweep
/// harness. Reports come back in grid order (period-major, then churn,
/// loss, mode), byte-identical for any `--jobs`. Every cell is zero-drift
/// verified before it is reported.
pub fn compute(scale: Scale, jobs: usize, stage: &str) -> Vec<CellReport> {
    let mut cells: Vec<(f64, f64, f64, &'static str, MonitorMode)> = Vec::new();
    for &period in &PERIODS {
        for &churn in &CHURN {
            for &loss in &LOSS {
                for (name, mode) in modes() {
                    cells.push((period, churn, loss, name, mode));
                }
            }
        }
    }
    sweep::run_stage(stage, jobs, &cells, |(period, churn, loss, name, mode)| {
        let t0 = Instant::now();
        let out = run_monitor_experiment(&experiment(scale, *period, *churn, *loss, *mode));
        if let Err(e) = verify_monitor_drift(&out) {
            panic!("{stage}: cell ({name}, p={period}, churn={churn}, loss={loss}) drifted: {e}");
        }
        assert_eq!(
            out.fold_remove_misses, 0,
            "{stage}: fold bucket algebra miss in ({name}, p={period}, churn={churn}, loss={loss})"
        );
        report(name, *period, *churn, *loss, &out, t0.elapsed().as_secs_f64())
    })
}

/// Runs the grid, prints the comparison rows, and returns the reports
/// (shared by `msq ext monitor` and `msq all`).
pub fn run(o: &RunOpts) -> Vec<CellReport> {
    let g = o.scale.monitor_grid();
    let reports = compute(o.scale, o.jobs, "ext_monitor");
    print_rows(
        &format!(
            "Extension: continuous monitoring vs re-query ({} devices, mobile, {:.0} s standing \
             query; fewer messages is better at equal completeness)",
            g * g,
            o.scale.monitor_duration_seconds()
        ),
        &reports.iter().map(row).collect::<Vec<_>>(),
    );
    // Each grid point is a (delta, requery) pair of cells.
    let points = reports.chunks(modes().len());
    let wins = points.clone().filter(|p| p[0].messages < p[1].messages).count();
    let points = points.len();
    let hb: u64 = reports.iter().map(|r| r.heartbeats).sum();
    let resyncs: u64 = reports.iter().map(|r| r.arq_exhausted).sum();
    println!("\ndelta mode sent fewer messages than re-query at {wins}/{points} grid points");
    println!("heartbeats: {hb}, ARQ-exhaustion-forced full resyncs: {resyncs}");
    println!("\nexpected shape: delta wins every point; the gap widens with the");
    println!("period (quiescent epochs cost a heartbeat at most, never a flood),");
    println!("and completeness stays matched — the savings are not bought with");
    println!("staleness the re-query mode wouldn't also pay.");
    reports
}

/// Renders the sweep as the `BENCH_monitor.json` machine baseline: one
/// row per cell, keyed by `(mode, period_s, churn, loss)`; every count in
/// `grid`, the cell's wall clock in `timings`.
pub fn to_json(prov: &Provenance, reports: &[CellReport]) -> String {
    let scale = prov.scale;
    let header = [
        ("devices", Value::from(scale.monitor_grid() * scale.monitor_grid())),
        ("duration_seconds", Value::Float(scale.monitor_duration_seconds())),
    ];
    let rows: Vec<Row> = reports.iter().map(row).collect();
    baseline_json("monitor", prov, GRID_REV, &header, &rows)
}

fn row(r: &CellReport) -> Row {
    vec![
        label("mode", r.mode),
        label("period_s", Value::Float(r.period_s)),
        label("churn", Value::Float(r.churn)),
        label("loss", Value::Float(r.loss)),
        det("epochs", r.epochs),
        det("mean_completeness", Value::Fixed(r.mean_completeness, 6)),
        det("min_completeness", Value::Fixed(r.min_completeness, 6)),
        det("spurious", r.spurious),
        det("mean_staleness_s", Value::Fixed(r.mean_staleness_s, 3)),
        det("messages", r.messages),
        det("bytes", r.bytes),
        det("deltas_sent", r.deltas_sent),
        det("heartbeats", r.heartbeats),
        det("deltas_applied", r.deltas_applied),
        det("arq_retries", r.arq_retries),
        det("arq_exhausted", r.arq_exhausted),
        det("lease_expired", r.lease_expired),
        det("node_crashes", r.node_crashes),
        det("energy_j", Value::Fixed(r.energy_j, 3)),
        vol("seconds", Value::Fixed(r.seconds, 3)),
    ]
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
        let cells: Vec<(f64, f64, f64, &'static str, MonitorMode)> = vec![
            (30.0, 0.0, 0.0, "delta", MonitorMode::Continuous),
            (30.0, 0.25, 0.1, "delta", MonitorMode::Continuous),
            (30.0, 0.25, 0.1, "requery", MonitorMode::Requery),
        ];
        let go = |stage: &str, jobs| {
            sweep::run_stage(stage, jobs, &cells, |(p, c, l, name, mode)| {
                report(name, *p, *c, *l, &run_monitor_experiment(&shrink(*p, *c, *l, *mode)), 0.0)
            })
        };
        let seq = go("monitor_det_seq", 1);
        let par = go("monitor_det_par", 4);
        let _ = sweep::take_stage_records();
        assert_eq!(seq, par);
    }

    #[test]
    fn json_is_parseable_shape() {
        let r = CellReport {
            mode: "delta",
            period_s: 30.0,
            churn: 0.25,
            loss: 0.1,
            epochs: 20,
            mean_completeness: 0.97,
            min_completeness: 0.8,
            spurious: 0,
            mean_staleness_s: 31.5,
            messages: 420,
            bytes: 31_000,
            deltas_sent: 60,
            heartbeats: 25,
            deltas_applied: 58,
            arq_retries: 7,
            arq_exhausted: 1,
            lease_expired: 0,
            fold_remove_misses: 0,
            node_crashes: 3,
            energy_j: 1.25,
            seconds: 0.75,
        };
        let json = to_json(&Provenance::fixture(), &[r]);
        let (grid, timings) = crate::provenance::sections(&json);
        assert!(json.contains("\"bench\": \"monitor\""));
        assert!(json.contains("\"devices\": 16,\n  \"duration_seconds\": 600,"));
        assert!(grid.contains(
            "{\"mode\": \"delta\", \"period_s\": 30, \"churn\": 0.25, \"loss\": 0.1, \
             \"epochs\": 20,"
        ));
        assert!(grid.contains("\"heartbeats\": 25,"));
        assert!(grid.contains("\"node_crashes\": 3, \"energy_j\": 1.250}"));
        assert!(!grid.contains("fold_remove_misses"));
        assert!(timings.contains(
            "{\"mode\": \"delta\", \"period_s\": 30, \"churn\": 0.25, \"loss\": 0.1, \
             \"seconds\": 0.750}"
        ));
    }
}
