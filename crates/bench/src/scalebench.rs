//! **Scale benchmark**: end-to-end skyline queries on networks 10–40×
//! the paper's largest, at constant device density.
//!
//! The paper tops out at `g = 10` (100 devices on 1000 × 1000 m). This
//! stage grows the grid side while scaling the area with it (side =
//! 100 m × g, so density and radio degree stay at the paper's values) and
//! runs full unbounded-radius queries — every device contributes its
//! local skyline — under random-waypoint mobility. It is the
//! macro-benchmark for the engine's spatial-hash neighbour discovery: per
//! event, neighbour work is O(degree), not O(n), so wall time tracks the
//! protocol's frame count instead of picking up an extra O(n) engine
//! factor on top. With reply-path reuse (replies ride the query flood's
//! reverse tree instead of each paying an AODV discovery), AODV control
//! traffic per device must stay sub-linear in devices — i.e. total
//! control frames sub-quadratic — which the smoke grid asserts.
//!
//! Only a fixed handful of devices *originate* queries
//! ([`QUERYING_DEVICES`]); the rest hold data, serve, and forward. That
//! keeps the workload constant across network sizes, so the devices axis
//! measures the network, not a growing query load.
//!
//! Everything but wall time is deterministic: same seeds → same `grid`
//! rows, bit-for-bit, at any `--jobs`. The JSON therefore
//! separates the deterministic `grid` rows from the volatile `timings`
//! rows, and CI's `bench_diff` of jobs-1 vs jobs-N output compares the
//! grid exactly and bands the timings.
//!
//! Usage: `msq scale [--full] [--jobs N] [--json] [--smoke]`

use datagen::{Distribution, SpatialExtent};
use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};
use std::time::Instant;

use crate::provenance::{det, label, print_rows, vol, Grid, Row, Value, GRID_REV};
use crate::sweep;
use crate::{RunOpts, Scale};

/// Master seed for every cell (the data/workload seeds derive from it plus
/// the cell coordinates, so cells are independent but reproducible).
const SEED: u64 = 0x5CA1E;

/// Devices that originate queries, regardless of network size. Two is
/// deliberate: each unbounded-radius query floods the whole network and
/// collects a reply from every device, so the originator count is the
/// wall-clock lever that keeps the Quick grid in minutes.
pub const QUERYING_DEVICES: usize = 2;

/// One `(g, cardinality, dim)` point of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleCell {
    /// Grid side; `g²` devices on a `100g × 100g` m area.
    pub g: usize,
    /// Global relation cardinality.
    pub cardinality: usize,
    /// Attribute dimensionality.
    pub dim: usize,
    /// Simulation horizon (seconds).
    pub sim_seconds: f64,
}

/// The full grid for a scale (devices-major, then cardinality, then dims).
pub fn cells(scale: Scale) -> Vec<ScaleCell> {
    let mut out = Vec::new();
    for &g in &scale.scalebench_grid_sides() {
        for &cardinality in &scale.scalebench_cardinalities() {
            for &dim in &scale.scalebench_dims() {
                out.push(ScaleCell {
                    g,
                    cardinality,
                    dim,
                    sim_seconds: scale.scalebench_sim_seconds(),
                });
            }
        }
    }
    out
}

/// A trimmed grid for CI smoke runs (`--smoke`): two small networks, one
/// dimensionality, short horizon — seconds of wall time, same code path.
pub fn smoke_cells() -> Vec<ScaleCell> {
    [4usize, 8]
        .iter()
        .map(|&g| ScaleCell { g, cardinality: 2_000, dim: 2, sim_seconds: 240.0 })
        .collect()
}

/// Builds the experiment for one cell: constant-density area, unbounded
/// query radius (every device contributes), paper mobility, and a capped
/// originator set.
pub fn experiment(cell: &ScaleCell) -> ManetExperiment {
    let side = 100.0 * cell.g as f64;
    let mut exp = ManetExperiment::paper_defaults(
        cell.g,
        cell.cardinality,
        cell.dim,
        Distribution::Independent,
        f64::INFINITY,
        SEED ^ ((cell.g as u64) << 32) ^ ((cell.cardinality as u64) << 8) ^ cell.dim as u64,
    );
    exp.data.space = SpatialExtent::new(side, side);
    exp.sim_seconds = cell.sim_seconds;
    exp.queries_per_device = (1, 1);
    exp.querying_devices = Some(QUERYING_DEVICES);
    exp
}

/// One cell's row, keyed by `(g, cardinality, dim)`: every count
/// deterministic, the cell's wall clock volatile.
/// `aodv_frames_per_device` is the routing overhead each device pays; it
/// must stay sub-linear in devices (total sub-quadratic) now that replies
/// reuse the query flood's reverse paths.
fn row(cell: &ScaleCell, out: &ManetOutcome, seconds: f64) -> Row {
    let devices = cell.g * cell.g;
    vec![
        label("g", cell.g),
        det("devices", devices),
        label("cardinality", cell.cardinality),
        label("dim", cell.dim),
        det("queries", out.records.len()),
        det("drr", Value::Fixed(out.drr, 6)),
        det("timeout_fraction", Value::Fixed(out.timeout_fraction, 6)),
        det("mean_response_s", Value::Fixed(out.mean_response_seconds.unwrap_or(f64::NAN), 3)),
        det("forward_messages", out.total_forward_messages),
        det("result_messages", out.total_result_messages),
        det("frames_sent", out.net.frames_sent),
        det("aodv_frames", out.net.aodv_frames),
        det("aodv_frames_per_device", Value::Fixed(out.net.aodv_frames as f64 / devices as f64, 4)),
        det("energy_j", Value::Fixed(out.total_energy_joules, 3)),
        vol("seconds", Value::Fixed(seconds, 3)),
    ]
}

/// Runs a cell list through the sweep harness: each cell's row and wall
/// seconds, in input order, so the rows are byte-identical for any
/// `--jobs`.
fn compute(grid: &[ScaleCell], jobs: usize, stage: &str) -> Vec<(Row, f64)> {
    sweep::run_stage(stage, jobs, grid, |cell| {
        let t0 = Instant::now();
        let out = run_experiment(&experiment(cell));
        let seconds = t0.elapsed().as_secs_f64();
        (row(cell, &out, seconds), seconds)
    })
}

/// Runs the grid (with `smoke`, the trimmed two-cell grid), prints its
/// rows and returns them as `BENCH_scale.json`'s grid (shared by `msq
/// scale` and `msq all`).
pub fn run(o: &RunOpts, smoke: bool) -> Grid {
    let (grid, stage) =
        if smoke { (smoke_cells(), "scale_smoke") } else { (cells(o.scale), "scale_devices") };
    let (rows, seconds): (Vec<Row>, Vec<f64>) = compute(&grid, o.jobs, stage).into_iter().unzip();
    print_rows("Scale: constant-density networks, unbounded-radius queries", &rows);
    println!("\nexpected shape: the BF flood still visits everyone, replies reuse");
    println!("the flood's reverse paths, and the spatial grid keeps per-event");
    println!("neighbour work O(degree), so wall time tracks frames rather than");
    println!("devices²·events. Up through g=32 primed routes survive delivery and");
    println!("aodv/dev stays near zero; past that the network diameter outgrows");
    println!("the route lifetime under mobility and aodv/dev climbs — route");
    println!("*repair*, not the old per-replier discovery storm. Every query");
    println!("still completes: timeout fraction stays flat at every size.");
    let total: f64 = seconds.iter().sum();
    let header = vec![
        ("total_seconds", Value::Fixed(total, 3)),
        ("cells", Value::from(rows.len())),
        ("cells_per_sec", Value::Fixed(rows.len() as f64 / total.max(1e-9), 4)),
    ];
    Grid { bench: "scale", grid_rev: GRID_REV, header, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_devices_major_and_caps_originators() {
        let grid = cells(Scale::Quick);
        assert!(grid.windows(2).all(|w| w[0].g <= w[1].g), "devices-major order");
        assert!(grid.iter().any(|c| c.g * c.g >= 1_000), "covers a ≥1000-device network");
        for c in &grid {
            let exp = experiment(c);
            assert_eq!(exp.querying_devices, Some(QUERYING_DEVICES));
            assert_eq!(exp.data.space.width, 100.0 * c.g as f64, "constant density");
            assert!(exp.radius.is_infinite(), "whole-network queries");
        }
    }

    /// The smoke grid's rows, as the per-cell report structs wrote them
    /// before rows were built from the outcomes.
    const SMOKE_GRID_ROWS: [&str; 2] = [
        r#"{"g": 4, "devices": 16, "cardinality": 2000, "dim": 2, "queries": 2, "drr": 0.129213, "timeout_fraction": 0.000000, "mean_response_s": 0.017, "forward_messages": 328, "result_messages": 30, "frames_sent": 118, "aodv_frames": 0, "aodv_frames_per_device": 0.0000, "energy_j": 0.237}"#,
        r#"{"g": 8, "devices": 64, "cardinality": 2000, "dim": 2, "queries": 2, "drr": 0.499025, "timeout_fraction": 0.000000, "mean_response_s": 0.027, "forward_messages": 2152, "result_messages": 126, "frames_sent": 766, "aodv_frames": 0, "aodv_frames_per_device": 0.0000, "energy_j": 1.508}"#,
    ];

    #[test]
    fn smoke_grid_runs_end_to_end_deterministically() {
        let grid = smoke_cells();
        let outs: Vec<ManetOutcome> = grid.iter().map(|c| run_experiment(&experiment(c))).collect();
        let rows: Vec<Row> = grid.iter().zip(&outs).map(|(c, out)| row(c, out, 0.0)).collect();
        assert_eq!(
            crate::provenance::grid_objects(&rows),
            SMOKE_GRID_ROWS,
            "same seeds must reproduce bit-identically"
        );
        for out in &outs {
            assert_eq!(out.records.len(), QUERYING_DEVICES, "originator cap holds");
            assert!(out.drr > 0.0, "queries actually completed");
            assert!(out.net.frames_sent > 0);
        }
    }

    #[test]
    fn aodv_control_traffic_grows_sub_quadratically() {
        // The per-replier rediscovery storm made total AODV frames grow
        // ~quadratically in devices (per-device frames ~linear). With
        // reply-path reuse the per-device overhead must grow strictly
        // slower than the device count between the smoke cells.
        let grid = smoke_cells();
        let [small, big] =
            [&grid[0], &grid[1]].map(|c| (c.g * c.g, run_experiment(&experiment(c))));
        assert!(small.0 < big.0);
        let device_ratio = big.0 as f64 / small.0 as f64;
        let per_device =
            |(devices, out): &(usize, ManetOutcome)| out.net.aodv_frames as f64 / *devices as f64;
        // Sub-quadratic total ⇔ sub-linear per device. `max(1)` keeps the
        // bound meaningful even if the small cell needs no AODV at all.
        let per_dev_ratio = per_device(&big) / per_device(&small).max(1.0);
        assert!(
            per_dev_ratio < device_ratio,
            "aodv frames/device grew {per_dev_ratio:.2}x across a {device_ratio:.2}x \
             device jump ({} -> {} frames): the rediscovery storm is back",
            small.1.net.aodv_frames,
            big.1.net.aodv_frames
        );
    }

    #[test]
    fn parallel_scale_grid_is_bit_identical_to_sequential() {
        let grid = smoke_cells();
        let objects = |jobs, stage| {
            let rows: Vec<Row> = compute(&grid, jobs, stage).into_iter().map(|(r, _)| r).collect();
            crate::provenance::grid_objects(&rows)
        };
        let (seq, par) = (objects(1, "scale_jobs1"), objects(4, "scale_jobs4"));
        sweep::take_stage_records();
        assert_eq!(seq, par, "jobs must not change any metric bit");
    }

    #[test]
    fn json_separates_deterministic_grid_from_volatile_timings() {
        let o = RunOpts { scale: Scale::Quick, jobs: 1, csv: None };
        let json = run(&o, true).fixture_json();
        sweep::take_stage_records();
        let (grid, timings) = crate::provenance::sections(&json);
        assert!(json.contains("\"bench\": \"scale\""));
        assert!(json.contains(",\n  \"cells\": 2,\n  \"cells_per_sec\": "));
        for row in SMOKE_GRID_ROWS {
            assert!(grid.contains(row), "grid row moved: {row}");
        }
        assert!(!grid.contains("seconds"));
        assert!(timings.contains("{\"g\": 8, \"cardinality\": 2000, \"dim\": 2, \"seconds\": "));
    }
}
