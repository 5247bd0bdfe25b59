//! **Extension experiment**: the deterministic chaos scorecard — seeded
//! node churn × frame loss swept across query strategies, with every
//! answer scored against the sequential oracle.
//!
//! The paper's evaluation assumes devices stay up; this grid measures what
//! its protocols actually deliver when they don't. Each cell freezes a
//! 4×4 grid topology, installs a [`FaultPlan`] of crash/reboot cycles, and
//! runs one query per device under the hardened runtime (per-hop ARQ,
//! duplicate suppression, BF re-issue). `run_experiment` then diffs every
//! answer against the centralized skyline: *completeness* (coverage of the
//! full oracle) quantifies what churn cost, *spurious* (tuples the
//! contributing devices' own data refutes) must stay zero — anything else
//! is a protocol bug, not a fault-model artifact.
//!
//! The arms are the paper's strategies — straightforward plus filtering
//! with exact/over/under dominating regions — and one `EXT/no-ARQ`
//! baseline with the recovery machinery disabled, so the scorecard shows
//! what the hardening buys on identical seeds.
//!
//! Usage: `msq ext chaos [--full] [--jobs N] [--json]`

use datagen::Distribution;
use dist_skyline::config::{DistConfig, FilterStrategy, StrategyConfig};
use dist_skyline::cost_model::DeviceCostModel;
use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};
use manet_sim::{ChurnConfig, FaultPlan, SimDuration, SimTime};
use skyline_core::vdr::BoundsMode;
use std::time::Instant;

use crate::provenance::{
    baseline_json, det, label, print_rows, vol, Provenance, Row, Value, GRID_REV,
};
use crate::sweep;
use crate::{RunOpts, Scale};

/// Master seed shared by every cell (the fault-plan seed varies per cell
/// so different grid points see different victims).
const SEED: u64 = 0xC4A0;

/// Grid side: 16 devices, frozen, fully connected at 400 m range.
const GRID: usize = 4;

/// Churn fractions swept (fraction of devices that crash once mid-run).
/// 0.4 puts enough devices down simultaneously to drop BF queries under
/// the 80 % rule, which is what arms the re-issue machinery.
pub const CHURN: [f64; 3] = [0.0, 0.2, 0.4];

/// Independent per-frame loss probabilities swept.
pub const LOSS: [f64; 2] = [0.0, 0.1];

/// One strategy arm of the sweep.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Series label.
    pub name: &'static str,
    /// Query strategy under test.
    pub strategy: StrategyConfig,
    /// `false` disables ARQ and re-issue (the unhardened baseline).
    pub arq: bool,
}

/// The five arms: the paper's strategies plus the no-ARQ control.
pub fn arms() -> Vec<Arm> {
    let filtering = |mode| StrategyConfig {
        filter: FilterStrategy::Dynamic,
        bounds_mode: mode,
        exact_bounds: vec![1000.0; 2],
        ..StrategyConfig::default()
    };
    vec![
        Arm {
            name: "straight",
            strategy: StrategyConfig {
                filter: FilterStrategy::NoFilter,
                exact_bounds: vec![1000.0; 2],
                ..StrategyConfig::default()
            },
            arq: true,
        },
        Arm { name: "EXT", strategy: filtering(BoundsMode::Exact), arq: true },
        Arm { name: "OVE", strategy: filtering(BoundsMode::Over), arq: true },
        Arm { name: "UNE", strategy: filtering(BoundsMode::Under), arq: true },
        Arm { name: "EXT/noARQ", strategy: filtering(BoundsMode::Exact), arq: false },
    ]
}

/// Derives the fault-plan seed for a grid point. Only the `(churn, loss)`
/// coordinates feed in — every arm at the same grid point replays the
/// *same* crash schedule, so arms differ only in how they cope.
fn fault_seed(churn: f64, loss: f64) -> u64 {
    SEED ^ ((churn * 100.0) as u64) << 8 ^ ((loss * 100.0) as u64) << 20
}

/// Builds the experiment for one `(churn, loss, arm)` cell.
pub fn experiment(scale: Scale, churn: f64, loss: f64, arm: &Arm) -> ManetExperiment {
    let sim_seconds = scale.chaos_sim_seconds();
    let mut exp = ManetExperiment::paper_defaults(
        GRID,
        scale.chaos_cardinality(),
        2,
        Distribution::Independent,
        f64::INFINITY,
        SEED,
    );
    exp.strategy = arm.strategy.clone();
    exp.frozen = true;
    exp.radio.range_m = 400.0;
    exp.radio.loss_probability = loss;
    exp.sim_seconds = sim_seconds;
    exp.queries_per_device = (1, 1);
    exp.cost = DeviceCostModel::free();
    exp.compute_completeness = true;
    if !arm.arq {
        exp.dist = DistConfig::no_arq();
    }
    if churn > 0.0 {
        // Crashes land anywhere in the first 80 % of the run; reboots
        // follow 60–180 s later, so downtimes are long on the scale of a
        // query's 180 s timeout and queries genuinely hit dark devices.
        // Nobody is protected — originator crashes are part of the
        // scorecard.
        exp.fault_plan = Some(FaultPlan::random_churn(&ChurnConfig {
            nodes: GRID * GRID,
            churn_fraction: churn,
            earliest: SimTime::from_secs_f64(5.0),
            latest: SimTime::from_secs_f64(sim_seconds * 0.8),
            min_downtime: SimDuration::from_secs_f64(60.0),
            max_downtime: SimDuration::from_secs_f64(180.0),
            protect: Vec::new(),
            seed: fault_seed(churn, loss),
        }));
    }
    exp
}

/// Everything the scorecard reports for one cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Strategy arm label.
    pub arm: &'static str,
    /// Churn fraction of the cell.
    pub churn: f64,
    /// Frame-loss probability of the cell.
    pub loss: f64,
    /// Whether the recovery machinery was on.
    pub arq: bool,
    /// Queries issued.
    pub queries: usize,
    /// Mean oracle completeness across all records.
    pub mean_completeness: f64,
    /// Worst-case completeness.
    pub min_completeness: f64,
    /// Answer tuples the contributing oracle refutes (must be 0).
    pub spurious: u64,
    /// Fraction of queries that timed out.
    pub timeout_fraction: f64,
    /// Timeouts whose originator crashed mid-query.
    pub timeouts_originator_crash: u64,
    /// Timeouts with zero responses.
    pub timeouts_no_responses: u64,
    /// Timeouts with some, but not enough, responses.
    pub timeouts_partial: u64,
    /// ARQ retransmissions.
    pub arq_retries: u64,
    /// ARQ-tracked messages abandoned after max retries.
    pub arq_exhausted: u64,
    /// Duplicate replies / token transfers suppressed.
    pub duplicates_suppressed: u64,
    /// Routing-level delivery failures surfaced to the application.
    pub delivery_failures: u64,
    /// BF re-floods performed.
    pub reissues: u64,
    /// Crash events the engine executed.
    pub node_crashes: u64,
    /// Mean response time of protocol-completed queries.
    pub mean_response_seconds: Option<f64>,
    /// Wall seconds this cell took (volatile; lives in the `timings`
    /// section of the baseline, never in `grid`).
    pub seconds: f64,
}

fn report(arm: &Arm, churn: f64, loss: f64, out: &ManetOutcome, seconds: f64) -> CellReport {
    CellReport {
        arm: arm.name,
        churn,
        loss,
        arq: arm.arq,
        queries: out.records.len(),
        mean_completeness: out.mean_completeness.unwrap_or(f64::NAN),
        min_completeness: out.min_completeness.unwrap_or(f64::NAN),
        spurious: out.spurious_total,
        timeout_fraction: out.timeout_fraction,
        timeouts_originator_crash: out.timeouts_originator_crash,
        timeouts_no_responses: out.timeouts_no_responses,
        timeouts_partial: out.timeouts_partial,
        arq_retries: out.arq_retries,
        arq_exhausted: out.arq_exhausted,
        duplicates_suppressed: out.duplicates_suppressed,
        delivery_failures: out.delivery_failures,
        reissues: out.reissues,
        node_crashes: out.net.node_crashes,
        mean_response_seconds: out.mean_response_seconds,
        seconds,
    }
}

/// Runs the full `churn × loss × arm` grid through the sweep harness.
/// Reports come back in grid order (churn-major, then loss, then arm), so
/// output is byte-identical for any `--jobs`.
pub fn compute(scale: Scale, jobs: usize, stage: &str) -> Vec<CellReport> {
    let arms = arms();
    let mut cells: Vec<(f64, f64, Arm)> = Vec::new();
    for &churn in &CHURN {
        for &loss in &LOSS {
            for arm in &arms {
                cells.push((churn, loss, arm.clone()));
            }
        }
    }
    let outs = sweep::run_stage(stage, jobs, &cells, |(churn, loss, arm)| {
        let t0 = Instant::now();
        let out = run_experiment(&experiment(scale, *churn, *loss, arm));
        (out, t0.elapsed().as_secs_f64())
    });
    cells
        .iter()
        .zip(&outs)
        .map(|((churn, loss, arm), (out, secs))| report(arm, *churn, *loss, out, *secs))
        .collect()
}

/// Runs the grid, prints the scorecard rows, and returns the reports
/// (shared by `msq ext chaos` and `msq all`).
pub fn run(o: &RunOpts) -> Vec<CellReport> {
    let reports = compute(o.scale, o.jobs, "ext_chaos");
    print_rows(
        &format!(
            "Extension: chaos scorecard ({} tuples, {} devices, frozen grid; completeness \
             1.0 = full oracle skyline recovered)",
            o.scale.chaos_cardinality(),
            GRID * GRID
        ),
        &reports.iter().map(row).collect::<Vec<_>>(),
    );
    let spurious: u64 = reports.iter().map(|r| r.spurious).sum();
    let retries: u64 = reports.iter().map(|r| r.arq_retries).sum();
    let reissues: u64 = reports.iter().map(|r| r.reissues).sum();
    println!("\nspurious tuples (any > 0 is a protocol bug): {spurious}");
    println!("ARQ retransmissions: {retries}, BF re-floods: {reissues}");
    println!("\nexpected shape: completeness 1.0 in the fault-free corner, degrading");
    println!("with churn; the ARQ arms hold completeness at or above EXT/noARQ on");
    println!("the same fault schedules; spurious stays 0 everywhere.");
    reports
}

/// Renders the scorecard as the `BENCH_chaos.json` machine baseline: one
/// row per cell, keyed by `(arm, churn, loss)`; every count in `grid`, the
/// cell's wall clock in `timings`.
pub fn to_json(prov: &Provenance, reports: &[CellReport]) -> String {
    let scale = prov.scale;
    let header = [
        ("devices", Value::from(GRID * GRID)),
        ("cardinality", Value::from(scale.chaos_cardinality())),
        ("sim_seconds", Value::Float(scale.chaos_sim_seconds())),
    ];
    let rows: Vec<Row> = reports.iter().map(row).collect();
    baseline_json("chaos", prov, GRID_REV, &header, &rows)
}

fn row(r: &CellReport) -> Row {
    let timeouts = [
        ("originator_crash", Value::from(r.timeouts_originator_crash)),
        ("no_responses", Value::from(r.timeouts_no_responses)),
        ("partial", Value::from(r.timeouts_partial)),
    ];
    vec![
        label("arm", r.arm),
        label("churn", Value::Float(r.churn)),
        label("loss", Value::Float(r.loss)),
        det("arq", Value::Bool(r.arq)),
        det("queries", r.queries),
        det("mean_completeness", Value::Fixed(r.mean_completeness, 6)),
        det("min_completeness", Value::Fixed(r.min_completeness, 6)),
        det("spurious", r.spurious),
        det("timeout_fraction", Value::Fixed(r.timeout_fraction, 6)),
        det("timeouts", Value::Object(timeouts.into())),
        det("arq_retries", r.arq_retries),
        det("arq_exhausted", r.arq_exhausted),
        det("duplicates_suppressed", r.duplicates_suppressed),
        det("delivery_failures", r.delivery_failures),
        det("reissues", r.reissues),
        det("node_crashes", r.node_crashes),
        det("mean_response_seconds", Value::Fixed(r.mean_response_seconds.unwrap_or(f64::NAN), 3)),
        vol("seconds", Value::Fixed(r.seconds, 3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_arm_at_every_point() {
        let arms = arms();
        assert_eq!(arms.len(), 5);
        assert_eq!(arms.iter().filter(|a| !a.arq).count(), 1, "exactly one no-ARQ control");
        // Same grid point → same fault plan for every arm.
        let a = experiment(Scale::Quick, 0.2, 0.1, &arms[1]);
        let b = experiment(Scale::Quick, 0.2, 0.1, &arms[4]);
        assert_eq!(a.fault_plan, b.fault_plan);
        assert!(a.fault_plan.is_some());
        // Fault-free cells carry no plan at all.
        assert!(experiment(Scale::Quick, 0.0, 0.1, &arms[0]).fault_plan.is_none());
    }

    /// The sweep-harness acceptance bar extended to the chaos stage: a
    /// slice of the grid computed with one worker and with four must be
    /// bit-identical down to every per-query record and counter, or
    /// parallel regeneration could silently change the committed
    /// `BENCH_chaos.json` baseline.
    #[test]
    fn parallel_chaos_grid_is_bit_identical_to_sequential() {
        let shrink = |(churn, loss, arm): &(f64, f64, Arm)| {
            let mut exp = experiment(Scale::Quick, *churn, *loss, arm);
            // Debug-build sizing; the fault plan keeps its full-run window,
            // late crashes simply never fire.
            exp.data = datagen::DataSpec::manet_experiment(500, 2, Distribution::Independent, SEED);
            exp.sim_seconds = 300.0;
            exp
        };
        let arms = arms();
        let cells: Vec<(f64, f64, Arm)> = vec![
            (0.0, 0.0, arms[1].clone()),
            (0.2, 0.1, arms[1].clone()),
            (0.2, 0.1, arms[4].clone()),
        ];
        let seq = sweep::run_stage("chaos_det_seq", 1, &cells, |c| run_experiment(&shrink(c)));
        let par = sweep::run_stage("chaos_det_par", 4, &cells, |c| run_experiment(&shrink(c)));
        let _ = sweep::take_stage_records();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.records, p.records);
            assert_eq!(s.net.node_crashes, p.net.node_crashes);
            assert_eq!(s.arq_retries, p.arq_retries);
            assert_eq!(s.duplicates_suppressed, p.duplicates_suppressed);
        }
    }

    #[test]
    fn json_is_parseable_shape() {
        let r = CellReport {
            arm: "EXT",
            churn: 0.2,
            loss: 0.1,
            arq: true,
            queries: 16,
            mean_completeness: 0.9,
            min_completeness: 0.5,
            spurious: 0,
            timeout_fraction: 0.125,
            timeouts_originator_crash: 1,
            timeouts_no_responses: 0,
            timeouts_partial: 1,
            arq_retries: 7,
            arq_exhausted: 1,
            duplicates_suppressed: 2,
            delivery_failures: 3,
            reissues: 1,
            node_crashes: 3,
            mean_response_seconds: None,
            seconds: 1.25,
        };
        let json = to_json(&Provenance::fixture(), &[r]);
        let (grid, timings) = crate::provenance::sections(&json);
        assert!(json.contains("\"bench\": \"chaos\""));
        assert!(
            json.contains("\"devices\": 16,\n  \"cardinality\": 5000,\n  \"sim_seconds\": 600,")
        );
        assert!(grid.contains("{\"arm\": \"EXT\", \"churn\": 0.2, \"loss\": 0.1, \"arq\": true,"));
        assert!(grid.contains(
            "\"timeouts\": {\"originator_crash\": 1, \"no_responses\": 0, \"partial\": 1}"
        ));
        assert!(grid.contains("\"spurious\": 0,"));
        assert!(grid.contains("\"mean_response_seconds\": null}"));
        assert!(timings
            .contains("{\"arm\": \"EXT\", \"churn\": 0.2, \"loss\": 0.1, \"seconds\": 1.250}"));
    }
}
