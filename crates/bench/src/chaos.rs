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
//! contributing devices' own data refutes) must stay zero on the ARQ arms.
//! Without ARQ a lost reply can take with it the filter tuple that pruned
//! a dominator on another device (DESIGN.md §7.2).
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

use crate::provenance::{det, int, label, print_rows, vol, Grid, Row, Value, GRID_REV};
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

/// One cell's scorecard row, keyed by `(arm, churn, loss)`: every count
/// deterministic, the cell's wall clock volatile.
fn row(arm: &Arm, churn: f64, loss: f64, out: &ManetOutcome, seconds: f64) -> Row {
    let timeouts = [
        ("originator_crash", Value::from(out.timeouts_originator_crash)),
        ("no_responses", Value::from(out.timeouts_no_responses)),
        ("partial", Value::from(out.timeouts_partial)),
    ];
    let fixed = |x: Option<f64>, decimals| Value::Fixed(x.unwrap_or(f64::NAN), decimals);
    vec![
        label("arm", arm.name),
        label("churn", Value::Float(churn)),
        label("loss", Value::Float(loss)),
        det("arq", Value::Bool(arm.arq)),
        det("queries", out.records.len()),
        det("mean_completeness", fixed(out.mean_completeness, 6)),
        det("min_completeness", fixed(out.min_completeness, 6)),
        det("spurious", out.spurious_total),
        det("timeout_fraction", Value::Fixed(out.timeout_fraction, 6)),
        det("timeouts", Value::Object(timeouts.into())),
        det("arq_retries", out.arq_retries),
        det("arq_exhausted", out.arq_exhausted),
        det("duplicates_suppressed", out.duplicates_suppressed),
        det("delivery_failures", out.delivery_failures),
        det("reissues", out.reissues),
        det("node_crashes", out.net.node_crashes),
        det("mean_response_seconds", fixed(out.mean_response_seconds, 3)),
        vol("seconds", Value::Fixed(seconds, 3)),
    ]
}

/// Runs the full `churn × loss × arm` grid through the sweep harness,
/// prints the scorecard rows and returns them as `BENCH_chaos.json`'s
/// grid (shared by `msq ext chaos` and `msq all`). Rows come in grid
/// order (churn-major, then loss, then arm), so output is byte-identical
/// for any `--jobs`.
pub fn run(o: &RunOpts) -> Grid {
    let arms = arms();
    let mut cells: Vec<(f64, f64, Arm)> = Vec::new();
    for &churn in &CHURN {
        for &loss in &LOSS {
            for arm in &arms {
                cells.push((churn, loss, arm.clone()));
            }
        }
    }
    let rows = sweep::run_stage("ext_chaos", o.jobs, &cells, |(churn, loss, arm)| {
        let t0 = Instant::now();
        let out = run_experiment(&experiment(o.scale, *churn, *loss, arm));
        row(arm, *churn, *loss, &out, t0.elapsed().as_secs_f64())
    });
    print_rows(
        &format!(
            "Extension: chaos scorecard ({} tuples, {} devices, frozen grid; completeness \
             1.0 = full oracle skyline recovered)",
            o.scale.chaos_cardinality(),
            GRID * GRID
        ),
        &rows,
    );
    let total = |key| rows.iter().map(|r| int(r, key)).sum::<u64>();
    let (spurious, retries, reissues) =
        (total("spurious"), total("arq_retries"), total("reissues"));
    println!("\nspurious tuples (> 0 with ARQ is a protocol bug; without it, a lost reply");
    println!("can carry off the filter tuple that pruned a dominator elsewhere): {spurious}");
    println!("ARQ retransmissions: {retries}, BF re-floods: {reissues}");
    println!("\nexpected shape: completeness 1.0 in the fault-free corner, degrading");
    println!("with churn; the ARQ arms hold completeness at or above EXT/noARQ on");
    println!("the same fault schedules; spurious stays 0 on the ARQ arms.");
    let header = vec![
        ("devices", Value::from(GRID * GRID)),
        ("cardinality", Value::from(o.scale.chaos_cardinality())),
        ("sim_seconds", Value::Float(o.scale.chaos_sim_seconds())),
    ];
    Grid { bench: "chaos", grid_rev: GRID_REV, header, rows }
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
        let rows = |outs: &[ManetOutcome]| {
            let rows: Vec<Row> = cells
                .iter()
                .zip(outs)
                .map(|((c, l, arm), out)| row(arm, *c, *l, out, 0.0))
                .collect();
            crate::provenance::grid_objects(&rows)
        };
        assert_eq!(rows(&seq), rows(&par));
        assert_eq!(rows(&seq), PINNED_ROWS);
    }

    /// The shrunk cells' `grid` rows, as the per-cell report structs wrote
    /// them before rows were built from the outcomes. The `EXT/noARQ`
    /// row's spurious tuple is device 11's `(191, 32)` in query 7/0:
    /// device 10's reply was lost, and with it its filter tuple `(53, 10)`,
    /// which had pruned the dominator `(184, 11)` on device 14 (DESIGN.md
    /// §7.2).
    const PINNED_ROWS: [&str; 3] = [
        r#"{"arm": "EXT", "churn": 0, "loss": 0, "arq": true, "queries": 16, "mean_completeness": 1.000000, "min_completeness": 1.000000, "spurious": 0, "timeout_fraction": 0.000000, "timeouts": {"originator_crash": 0, "no_responses": 0, "partial": 0}, "arq_retries": 0, "arq_exhausted": 0, "duplicates_suppressed": 0, "delivery_failures": 0, "reissues": 0, "node_crashes": 0, "mean_response_seconds": 0.016}"#,
        r#"{"arm": "EXT", "churn": 0.2, "loss": 0.1, "arq": true, "queries": 16, "mean_completeness": 0.910714, "min_completeness": 0.000000, "spurious": 0, "timeout_fraction": 0.062500, "timeouts": {"originator_crash": 1, "no_responses": 0, "partial": 0}, "arq_retries": 104, "arq_exhausted": 4, "duplicates_suppressed": 41, "delivery_failures": 1, "reissues": 0, "node_crashes": 3, "mean_response_seconds": 0.847}"#,
        r#"{"arm": "EXT/noARQ", "churn": 0.2, "loss": 0.1, "arq": false, "queries": 16, "mean_completeness": 0.794643, "min_completeness": 0.000000, "spurious": 1, "timeout_fraction": 0.375000, "timeouts": {"originator_crash": 1, "no_responses": 0, "partial": 5}, "arq_retries": 0, "arq_exhausted": 0, "duplicates_suppressed": 0, "delivery_failures": 0, "reissues": 0, "node_crashes": 3, "mean_response_seconds": 0.018}"#,
    ];
}
