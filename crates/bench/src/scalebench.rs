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
//! Everything but wall time is deterministic: same seeds → same
//! [`CellMetrics`], bit-for-bit, at any `--jobs`. The JSON therefore
//! separates the deterministic `grid` rows from the volatile `timings`
//! rows, and CI's `bench_diff` of jobs-1 vs jobs-N output compares the
//! grid exactly and bands the timings.
//!
//! Usage: `msq scale [--full] [--jobs N] [--json] [--smoke]`

use datagen::{Distribution, SpatialExtent};
use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};
use std::time::Instant;

use crate::provenance::{
    baseline_json, det, label, print_rows, vol, Provenance, Row, Value, GRID_REV,
};
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

/// The deterministic part of a cell's outcome — bit-identical across
/// `--jobs` values and compared as such by the harness tests and CI.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Grid side.
    pub g: usize,
    /// Devices in the network (`g²`).
    pub devices: usize,
    /// Global relation cardinality.
    pub cardinality: usize,
    /// Attribute dimensionality.
    pub dim: usize,
    /// Queries issued.
    pub queries: usize,
    /// Aggregate data-reduction ratio.
    pub drr: f64,
    /// Fraction of queries that timed out.
    pub timeout_fraction: f64,
    /// Mean response time of protocol-completed queries.
    pub mean_response_seconds: Option<f64>,
    /// Query-forward messages across all queries.
    pub forward_messages: u64,
    /// Result messages across all queries.
    pub result_messages: u64,
    /// Frames handed to the radio (all kinds).
    pub frames_sent: u64,
    /// AODV control frames.
    pub aodv_frames: u64,
    /// AODV control frames divided by devices — the routing overhead each
    /// device pays. Must stay sub-linear in devices (total sub-quadratic)
    /// now that replies reuse the query flood's reverse paths.
    pub aodv_frames_per_device: f64,
    /// Total radio energy (joules).
    pub energy_j: f64,
}

/// One cell's report: deterministic metrics plus the (volatile) wall time.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The jobs-invariant outcome.
    pub metrics: CellMetrics,
    /// Wall seconds this cell took (varies run to run; excluded from
    /// bit-identity comparisons).
    pub seconds: f64,
}

fn report(cell: &ScaleCell, out: &ManetOutcome, seconds: f64) -> CellReport {
    CellReport {
        metrics: CellMetrics {
            g: cell.g,
            devices: cell.g * cell.g,
            cardinality: cell.cardinality,
            dim: cell.dim,
            queries: out.records.len(),
            drr: out.drr,
            timeout_fraction: out.timeout_fraction,
            mean_response_seconds: out.mean_response_seconds,
            forward_messages: out.total_forward_messages,
            result_messages: out.total_result_messages,
            frames_sent: out.net.frames_sent,
            aodv_frames: out.net.aodv_frames,
            aodv_frames_per_device: out.net.aodv_frames as f64 / (cell.g * cell.g) as f64,
            energy_j: out.total_energy_joules,
        },
        seconds,
    }
}

/// Runs a cell list through the sweep harness. Reports come back in input
/// order, so metrics are byte-identical for any `--jobs`.
pub fn compute(grid: &[ScaleCell], jobs: usize, stage: &str) -> Vec<CellReport> {
    sweep::run_stage(stage, jobs, grid, |cell| {
        let t0 = Instant::now();
        let out = run_experiment(&experiment(cell));
        report(cell, &out, t0.elapsed().as_secs_f64())
    })
}

/// Runs the grid (with `smoke`, the trimmed two-cell grid), prints its
/// rows, and returns the reports (shared by `msq scale` and `msq all`).
pub fn run(o: &RunOpts, smoke: bool) -> Vec<CellReport> {
    let (grid, stage) =
        if smoke { (smoke_cells(), "scale_smoke") } else { (cells(o.scale), "scale_devices") };
    let reports = compute(&grid, o.jobs, stage);
    print_rows(
        "Scale: constant-density networks, unbounded-radius queries",
        &reports.iter().map(row).collect::<Vec<_>>(),
    );
    println!("\nexpected shape: the BF flood still visits everyone, replies reuse");
    println!("the flood's reverse paths, and the spatial grid keeps per-event");
    println!("neighbour work O(degree), so wall time tracks frames rather than");
    println!("devices²·events. Up through g=32 primed routes survive delivery and");
    println!("aodv/dev stays near zero; past that the network diameter outgrows");
    println!("the route lifetime under mobility and aodv/dev climbs — route");
    println!("*repair*, not the old per-replier discovery storm. Every query");
    println!("still completes: timeout fraction stays flat at every size.");
    reports
}

/// Renders the reports as the `BENCH_scale.json` machine baseline: one
/// row per cell, keyed by `(g, cardinality, dim)`; the [`CellMetrics`] in
/// `grid`, the cell's wall clock in `timings`.
pub fn to_json(prov: &Provenance, reports: &[CellReport]) -> String {
    let total: f64 = reports.iter().map(|r| r.seconds).sum();
    let header = [
        ("total_seconds", Value::Fixed(total, 3)),
        ("cells", Value::from(reports.len())),
        ("cells_per_sec", Value::Fixed(reports.len() as f64 / total.max(1e-9), 4)),
    ];
    let rows: Vec<Row> = reports.iter().map(row).collect();
    baseline_json("scale", prov, GRID_REV, &header, &rows)
}

fn row(r: &CellReport) -> Row {
    let m = &r.metrics;
    vec![
        label("g", m.g),
        det("devices", m.devices),
        label("cardinality", m.cardinality),
        label("dim", m.dim),
        det("queries", m.queries),
        det("drr", Value::Fixed(m.drr, 6)),
        det("timeout_fraction", Value::Fixed(m.timeout_fraction, 6)),
        det("mean_response_s", Value::Fixed(m.mean_response_seconds.unwrap_or(f64::NAN), 3)),
        det("forward_messages", m.forward_messages),
        det("result_messages", m.result_messages),
        det("frames_sent", m.frames_sent),
        det("aodv_frames", m.aodv_frames),
        det("aodv_frames_per_device", Value::Fixed(m.aodv_frames_per_device, 4)),
        det("energy_j", Value::Fixed(m.energy_j, 3)),
        vol("seconds", Value::Fixed(r.seconds, 3)),
    ]
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

    #[test]
    fn smoke_grid_runs_end_to_end_deterministically() {
        let grid = smoke_cells();
        let a = compute(&grid, 1, "scale_smoke_a");
        let b = compute(&grid, 1, "scale_smoke_b");
        sweep::take_stage_records();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.metrics, y.metrics, "same seeds must reproduce bit-identically");
        }
        for r in &a {
            assert_eq!(r.metrics.queries, QUERYING_DEVICES, "originator cap holds");
            assert!(r.metrics.drr > 0.0, "queries actually completed");
            assert!(r.metrics.frames_sent > 0);
        }
    }

    #[test]
    fn aodv_control_traffic_grows_sub_quadratically() {
        // The per-replier rediscovery storm made total AODV frames grow
        // ~quadratically in devices (per-device frames ~linear). With
        // reply-path reuse the per-device overhead must grow strictly
        // slower than the device count between the smoke cells.
        let grid = smoke_cells();
        let reports = compute(&grid, 1, "scale_subquad");
        sweep::take_stage_records();
        assert_eq!(reports.len(), 2);
        let (small, big) = (&reports[0].metrics, &reports[1].metrics);
        assert!(small.devices < big.devices);
        let device_ratio = big.devices as f64 / small.devices as f64;
        // Sub-quadratic total ⇔ sub-linear per device. `max(1)` keeps the
        // bound meaningful even if the small cell needs no AODV at all.
        let per_dev_ratio = big.aodv_frames_per_device / small.aodv_frames_per_device.max(1.0);
        assert!(
            per_dev_ratio < device_ratio,
            "aodv frames/device grew {per_dev_ratio:.2}x across a {device_ratio:.2}x \
             device jump ({} -> {} frames): the rediscovery storm is back",
            small.aodv_frames,
            big.aodv_frames
        );
    }

    #[test]
    fn parallel_scale_grid_is_bit_identical_to_sequential() {
        let grid = smoke_cells();
        let seq = compute(&grid, 1, "scale_jobs1");
        let par = compute(&grid, 4, "scale_jobs4");
        sweep::take_stage_records();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.metrics, p.metrics, "jobs must not change any metric bit");
        }
    }

    #[test]
    fn json_separates_deterministic_grid_from_volatile_timings() {
        let r = CellReport {
            metrics: CellMetrics {
                g: 32,
                devices: 1024,
                cardinality: 10_000,
                dim: 2,
                queries: 4,
                drr: 0.5,
                timeout_fraction: 0.0,
                mean_response_seconds: Some(12.0),
                forward_messages: 4096,
                result_messages: 4096,
                frames_sent: 100_000,
                aodv_frames: 50_000,
                aodv_frames_per_device: 48.828,
                energy_j: 123.0,
            },
            seconds: 9.87,
        };
        let json = to_json(&Provenance::fixture(), &[r]);
        let (grid, timings) = crate::provenance::sections(&json);
        assert!(json.contains("\"bench\": \"scale\""));
        assert!(json
            .contains("\"total_seconds\": 9.870,\n  \"cells\": 1,\n  \"cells_per_sec\": 0.1013,"));
        assert!(grid.contains("{\"g\": 32, \"devices\": 1024, \"cardinality\": 10000, \"dim\": 2,"));
        assert!(grid.contains("\"mean_response_s\": 12.000,"));
        assert!(grid.contains("\"aodv_frames_per_device\": 48.8280, \"energy_j\": 123.000}"));
        assert!(
            timings.contains("{\"g\": 32, \"cardinality\": 10000, \"dim\": 2, \"seconds\": 9.870}")
        );
    }
}
