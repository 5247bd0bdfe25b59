//! Figs. 6 and 7 — data reduction rate in the static pre-test setting
//! (Section 5.2.2-I): no mobility, queries forwarded recursively outward,
//! distance constraint ignored, every device originating once.
//!
//! Series: {SF, DF} × {OVE, EXT, UNE} — single vs. dynamic filtering
//! crossed with over-estimated, exact, and under-estimated dominating
//! regions.

use datagen::{DataSpec, Distribution, SpatialExtent};
use dist_skyline::config::{FilterStrategy, StrategyConfig};
use dist_skyline::static_net::grid_network_from_global;
use skyline_core::vdr::BoundsMode;

use crate::provenance::{det, emit_rows, label, Row, Value};
use crate::{sweep, RunOpts};

/// The six series of Figs. 6–7, in row order: the filter and bounds
/// names and the strategy they run.
fn series(dim: usize) -> Vec<(&'static str, &'static str, StrategyConfig)> {
    let mut out = Vec::new();
    for (f, filter) in [("SF", FilterStrategy::Single), ("DF", FilterStrategy::Dynamic)] {
        for (m, mode) in
            [("OVE", BoundsMode::Over), ("EXT", BoundsMode::Exact), ("UNE", BoundsMode::Under)]
        {
            let cfg = StrategyConfig {
                filter,
                bounds_mode: mode,
                exact_bounds: vec![1000.0; dim],
                ..StrategyConfig::default()
            };
            out.push((f, m, cfg));
        }
    }
    out
}

/// Number of independently seeded datasets averaged per point (the paper
/// averages m × m queries; we additionally average over datasets to tame
/// the filter-choice variance it mentions for DF).
const SEEDS: u64 = 3;

/// One sweep cell: a single dataset seed of a single table row. Generates
/// its own data and runs all six strategies, so cells are independent.
#[derive(Debug, Clone)]
struct Cell {
    card: usize,
    dim: usize,
    g: usize,
    dist: Distribution,
    seed: u64,
}

fn run_cell(cell: &Cell) -> Vec<f64> {
    let data = DataSpec::manet_experiment(cell.card, cell.dim, cell.dist, cell.seed).generate();
    let net = grid_network_from_global(&data, cell.g, SpatialExtent::PAPER);
    series(cell.dim)
        .iter()
        .map(|(_, _, cfg)| net.run_all_origins(cfg).drr(true))
        .collect()
}

#[cfg(test)]
fn drr_row(card: usize, dim: usize, g: usize, dist: Distribution, seed: u64) -> Vec<f64> {
    average_rows(&[(card, dim, g, dist, seed)], "static_drr_row", 1).remove(0)
}

/// Computes many rows at once by fanning the `(row, seed)` cell grid over
/// the sweep harness, then averaging each row's seeds **in seed order** so
/// the floating-point sums match the sequential run bit for bit.
fn average_rows(
    rows: &[(usize, usize, usize, Distribution, u64)],
    stage: &str,
    jobs: usize,
) -> Vec<Vec<f64>> {
    let cells: Vec<Cell> = rows
        .iter()
        .flat_map(|&(card, dim, g, dist, seed)| {
            (0..SEEDS).map(move |s| Cell { card, dim, g, dist, seed: seed ^ (s * 7919) })
        })
        .collect();
    let outs = sweep::run_stage(stage, jobs, &cells, run_cell);
    outs.chunks(SEEDS as usize)
        .map(|per_seed| {
            let mut acc = vec![0.0; 6];
            for vals in per_seed {
                for (a, v) in acc.iter_mut().zip(vals) {
                    *a += v / SEEDS as f64;
                }
            }
            acc
        })
        .collect()
}

/// Runs one panel's `(card, dim, g)` points and emits one row per point
/// and series.
fn emit_panel(
    o: &RunOpts,
    dist: Distribution,
    fig: &str,
    panel: &str,
    title: String,
    seed: u64,
    points: &[(usize, usize, usize)],
) -> Result<(), String> {
    let id = format!("{}{panel}_{dist:?}", fig.to_lowercase().replace([' ', '.'], ""));
    let specs: Vec<_> = points.iter().map(|&(card, dim, g)| (card, dim, g, dist, seed)).collect();
    let values = average_rows(&specs, &id, o.jobs);
    let rows: Vec<Row> = points
        .iter()
        .zip(values)
        .flat_map(|(&(card, dim, g), drrs)| {
            series(dim).into_iter().zip(drrs).map(move |((filter, bounds, _), drr)| {
                vec![
                    label("devices", g * g),
                    label("cardinality", card),
                    label("dim", dim),
                    label("filter", filter),
                    label("bounds", bounds),
                    det("drr", Value::Float(drr)),
                ]
            })
        })
        .collect();
    emit_rows(&id, &format!("{fig}({panel}) — DRR vs. {title}"), &rows, o.csv.as_deref())
}

/// Panel (a): DRR vs. global cardinality (2 attrs, 5×5 devices).
pub fn panel_a(o: &RunOpts, dist: Distribution, fig: &str) -> Result<(), String> {
    let points: Vec<_> =
        o.scale.global_cardinalities().into_iter().map(|card| (card, 2, 5)).collect();
    emit_panel(
        o,
        dist,
        fig,
        "a",
        format!("global cardinality ({dist:?}, 2 attrs, 25 devices)"),
        0x6a,
        &points,
    )
}

/// Panel (b): DRR vs. dimensionality (5×5 devices). The quick scale
/// shrinks the relation as dimensionality grows (see [`crate::Scale`]);
/// the `cardinality` column shows the cardinality actually used.
pub fn panel_b(o: &RunOpts, dist: Distribution, fig: &str) -> Result<(), String> {
    let points: Vec<_> = o
        .scale
        .dimensionalities()
        .into_iter()
        .map(|dim| (o.scale.global_cardinality_for_dim(dim), dim, 5))
        .collect();
    emit_panel(o, dist, fig, "b", format!("dimensionality ({dist:?}, 25 devices)"), 0x6b, &points)
}

/// Panel (c): DRR vs. number of devices (fixed cardinality, 2 attrs).
pub fn panel_c(o: &RunOpts, dist: Distribution, fig: &str) -> Result<(), String> {
    let card = o.scale.global_fixed_cardinality();
    let points: Vec<_> = o.scale.grid_sides().into_iter().map(|g| (card, 2, g)).collect();
    emit_panel(
        o,
        dist,
        fig,
        "c",
        format!("devices ({dist:?}, {card} tuples, 2 attrs)"),
        0x6c,
        &points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_series() {
        let names: Vec<String> = series(3).iter().map(|(f, m, _)| format!("{f}-{m}")).collect();
        assert_eq!(names, ["SF-OVE", "SF-EXT", "SF-UNE", "DF-OVE", "DF-EXT", "DF-UNE"]);
        assert!(series(3).iter().all(|(_, _, cfg)| cfg.exact_bounds.len() == 3));
    }

    #[test]
    fn drr_values_are_sane_fractions() {
        let row = drr_row(20_000, 2, 3, Distribution::Independent, 1);
        for v in row {
            assert!((-1.0..=1.0).contains(&v), "DRR {v} out of range");
        }
    }

    #[test]
    fn anti_correlated_reduces_drr() {
        // The Fig. 7-vs-6 claim: filtering is weaker on anti-correlated
        // data. Compare the EXT/DF series.
        let ind = drr_row(30_000, 2, 3, Distribution::Independent, 2)[4];
        let ac = drr_row(30_000, 2, 3, Distribution::AntiCorrelated, 2)[4];
        assert!(ac < ind, "AC DRR {ac} should be below IN DRR {ind}");
    }
}
