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

use crate::sweep;
use crate::table::Table;
use crate::RunOpts;

/// The six series of Figs. 6–7.
pub fn series_names() -> Vec<String> {
    ["SF", "DF"]
        .iter()
        .flat_map(|f| ["OVE", "EXT", "UNE"].iter().map(move |m| format!("{f}-{m}")))
        .collect()
}

fn strategies(dim: usize) -> Vec<StrategyConfig> {
    let mut out = Vec::new();
    for filter in [FilterStrategy::Single, FilterStrategy::Dynamic] {
        for mode in [BoundsMode::Over, BoundsMode::Exact, BoundsMode::Under] {
            out.push(StrategyConfig {
                filter,
                bounds_mode: mode,
                exact_bounds: vec![1000.0; dim],
                ..StrategyConfig::default()
            });
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
    strategies(cell.dim)
        .iter()
        .map(|cfg| net.run_all_origins(cfg).drr(true))
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

fn emit_panel(
    o: &RunOpts,
    id: String,
    title: String,
    x_name: &str,
    labels: Vec<String>,
    rows: &[(usize, usize, usize, Distribution, u64)],
) -> std::io::Result<()> {
    let mut t = Table::new(id.clone(), title, x_name, series_names());
    let values = average_rows(rows, &id, o.jobs);
    for (label, vals) in labels.into_iter().zip(values) {
        t.push(label, vals);
    }
    t.emit(o.csv.as_deref())
}

/// Panel (a): DRR vs. global cardinality (2 attrs, 5×5 devices).
pub fn panel_a(o: &RunOpts, dist: Distribution, fig: &str) -> std::io::Result<()> {
    let cards = o.scale.global_cardinalities();
    emit_panel(
        o,
        format!("{}a_{dist:?}", fig.to_lowercase().replace([' ', '.'], "")),
        format!("{fig}(a) — DRR vs. global cardinality ({dist:?}, 2 attrs, 25 devices)"),
        "cardinality",
        cards.iter().map(|c| c.to_string()).collect(),
        &cards.iter().map(|&card| (card, 2, 5, dist, 0x6a)).collect::<Vec<_>>(),
    )
}

/// Panel (b): DRR vs. dimensionality (5×5 devices). The quick scale
/// shrinks the relation as dimensionality grows (see [`crate::Scale`]); the row
/// label shows the cardinality actually used.
pub fn panel_b(o: &RunOpts, dist: Distribution, fig: &str) -> std::io::Result<()> {
    let dims = o.scale.dimensionalities();
    emit_panel(
        o,
        format!("{}b_{dist:?}", fig.to_lowercase().replace([' ', '.'], "")),
        format!("{fig}(b) — DRR vs. dimensionality ({dist:?}, 25 devices)"),
        "dims@card",
        dims.iter()
            .map(|&dim| format!("{dim}@{}", o.scale.global_cardinality_for_dim(dim)))
            .collect(),
        &dims
            .iter()
            .map(|&dim| (o.scale.global_cardinality_for_dim(dim), dim, 5, dist, 0x6b))
            .collect::<Vec<_>>(),
    )
}

/// Panel (c): DRR vs. number of devices (fixed cardinality, 2 attrs).
pub fn panel_c(o: &RunOpts, dist: Distribution, fig: &str) -> std::io::Result<()> {
    let card = o.scale.global_fixed_cardinality();
    let sides = o.scale.grid_sides();
    emit_panel(
        o,
        format!("{}c_{dist:?}", fig.to_lowercase().replace([' ', '.'], "")),
        format!("{fig}(c) — DRR vs. devices ({dist:?}, {card} tuples, 2 attrs)"),
        "devices",
        sides.iter().map(|&g| (g * g).to_string()).collect(),
        &sides.iter().map(|&g| (card, 2, g, dist, 0x6c)).collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_series() {
        assert_eq!(series_names().len(), 6);
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
