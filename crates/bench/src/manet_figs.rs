//! Figs. 8–11 — data reduction rate and response time in the simulated
//! MANET (Section 5.2.2-II and 5.2.3).
//!
//! Per the paper's pre-test conclusion, the simulation uses
//! under-estimated dominating regions with dynamic filter updates. The six
//! series per panel are {DF, BF} forwarding × distances {100, 250, 500}.

use datagen::Distribution;
use dist_skyline::config::Forwarding;
use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};

use crate::sweep;
use crate::table::Table;
use crate::{RunOpts, Scale};

/// What a panel reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Data reduction rate (Figs. 8–9).
    Drr,
    /// Response time in seconds (Figs. 10–11).
    ResponseTime,
}

/// The six series of Figs. 8–11.
pub fn series_names(scale: Scale) -> Vec<String> {
    ["DF", "BF"]
        .iter()
        .flat_map(|f| scale.distances().into_iter().map(move |d| format!("{f}-{d:.0}")))
        .collect()
}

fn experiment(
    scale: Scale,
    g: usize,
    card: usize,
    dim: usize,
    dist: Distribution,
    fwd: Forwarding,
    d: f64,
) -> ManetExperiment {
    let mut exp = ManetExperiment::paper_defaults(g, card, dim, dist, d, 0x8_11);
    exp.forwarding = fwd;
    exp.sim_seconds = scale.sim_seconds();
    exp
}

fn metric_of(out: &ManetOutcome, metric: Metric) -> f64 {
    match metric {
        Metric::Drr => out.drr,
        Metric::ResponseTime => out.mean_response_seconds.unwrap_or(f64::NAN),
    }
}

/// One table row's worth of work: a label plus the `(g, card, dim)` the six
/// series cells share.
#[derive(Debug, Clone)]
pub struct RowSpec {
    /// Row label (first table column).
    pub label: String,
    /// Grid side (devices = g²).
    pub g: usize,
    /// Global cardinality.
    pub card: usize,
    /// Non-spatial attributes.
    pub dim: usize,
}

/// Computes every row of a panel by fanning the full `rows × 6 series` cell
/// grid over the sweep harness. Results come back in grid order, so the
/// returned rows are identical for any `jobs`.
pub fn compute_rows(
    scale: Scale,
    dist: Distribution,
    metric: Metric,
    specs: &[RowSpec],
    stage: &str,
    jobs: usize,
) -> Vec<(String, Vec<f64>)> {
    if specs.is_empty() {
        return Vec::new();
    }
    let mut cells: Vec<ManetExperiment> = Vec::new();
    for spec in specs {
        for fwd in [Forwarding::DepthFirst, Forwarding::BreadthFirst] {
            for d in scale.distances() {
                cells.push(experiment(scale, spec.g, spec.card, spec.dim, dist, fwd, d));
            }
        }
    }
    let outs = sweep::run_stage(stage, jobs, &cells, run_experiment);
    let width = cells.len() / specs.len();
    specs
        .iter()
        .zip(outs.chunks(width))
        .map(|(spec, outs)| {
            (spec.label.clone(), outs.iter().map(|o| metric_of(o, metric)).collect())
        })
        .collect()
}

fn emit_panel(
    o: &RunOpts,
    id: String,
    title: String,
    x_name: &str,
    dist: Distribution,
    metric: Metric,
    specs: &[RowSpec],
) -> std::io::Result<()> {
    let mut t = Table::new(id.clone(), title, x_name, series_names(o.scale));
    for (label, vals) in compute_rows(o.scale, dist, metric, specs, &id, o.jobs) {
        t.push(label, vals);
    }
    t.emit(o.csv.as_deref())
}

/// Panel (a): metric vs. global cardinality.
pub fn panel_a(o: &RunOpts, dist: Distribution, metric: Metric, fig: &str) -> std::io::Result<()> {
    let g = o.scale.manet_grid();
    let specs: Vec<RowSpec> = o
        .scale
        .manet_cardinalities()
        .into_iter()
        .map(|card| RowSpec { label: card.to_string(), g, card, dim: 2 })
        .collect();
    emit_panel(
        o,
        format!("{}a_{metric:?}_{dist:?}", fig.to_lowercase().replace([' ', '.'], "")),
        format!("{fig}(a) — {metric:?} vs. cardinality ({dist:?}, 2 attrs, {} devices)", g * g),
        "cardinality",
        dist,
        metric,
        &specs,
    )
}

/// Panel (b): metric vs. dimensionality. The quick scale shrinks the
/// relation as dimensionality grows (see [`Scale`]); the row label shows
/// the cardinality actually used.
pub fn panel_b(o: &RunOpts, dist: Distribution, metric: Metric, fig: &str) -> std::io::Result<()> {
    let g = o.scale.manet_grid();
    let specs: Vec<RowSpec> = o
        .scale
        .dimensionalities()
        .into_iter()
        .map(|dim| {
            let card = o.scale.manet_cardinality_for_dim(dim);
            RowSpec { label: format!("{dim}@{card}"), g, card, dim }
        })
        .collect();
    emit_panel(
        o,
        format!("{}b_{metric:?}_{dist:?}", fig.to_lowercase().replace([' ', '.'], "")),
        format!("{fig}(b) — {metric:?} vs. dimensionality ({dist:?}, {} devices)", g * g),
        "dims@card",
        dist,
        metric,
        &specs,
    )
}

/// Panel (c): metric vs. number of devices.
pub fn panel_c(o: &RunOpts, dist: Distribution, metric: Metric, fig: &str) -> std::io::Result<()> {
    let card = o.scale.manet_fixed_cardinality();
    let specs: Vec<RowSpec> = o
        .scale
        .grid_sides()
        .into_iter()
        .map(|g| RowSpec { label: (g * g).to_string(), g, card, dim: 2 })
        .collect();
    emit_panel(
        o,
        format!("{}c_{metric:?}_{dist:?}", fig.to_lowercase().replace([' ', '.'], "")),
        format!("{fig}(c) — {metric:?} vs. devices ({dist:?}, {card} tuples, 2 attrs)"),
        "devices",
        dist,
        metric,
        &specs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_series_per_scale() {
        assert_eq!(series_names(Scale::Quick).len(), 6);
    }

    /// The acceptance bar for the sweep harness: a panel computed with one
    /// worker and with four must be bit-identical, not just approximately
    /// equal — parallelism must never change the tables.
    #[test]
    fn parallel_panel_is_bit_identical_to_sequential() {
        let specs = [
            RowSpec { label: "2000".into(), g: 3, card: 2_000, dim: 2 },
            RowSpec { label: "3000".into(), g: 3, card: 3_000, dim: 2 },
        ];
        for metric in [Metric::Drr, Metric::ResponseTime] {
            let seq = compute_rows(
                Scale::Quick,
                Distribution::Independent,
                metric,
                &specs,
                "determinism_seq",
                1,
            );
            let par = compute_rows(
                Scale::Quick,
                Distribution::Independent,
                metric,
                &specs,
                "determinism_par",
                4,
            );
            assert_eq!(seq.len(), par.len());
            for ((l1, v1), (l2, v2)) in seq.iter().zip(&par) {
                assert_eq!(l1, l2);
                // Bit-compare so NaN cells (possible for response time)
                // still count as identical.
                let b1: Vec<u64> = v1.iter().map(|v| v.to_bits()).collect();
                let b2: Vec<u64> = v2.iter().map(|v| v.to_bits()).collect();
                assert_eq!(b1, b2, "jobs=1 vs jobs=4 diverged for {metric:?}");
            }
        }
        // Don't leak the guard's stage records into a later `--json` dump.
        let _ = sweep::take_stage_records();
    }

    #[test]
    fn tiny_manet_run_produces_finite_drr() {
        let mut exp = experiment(
            Scale::Quick,
            3,
            5_000,
            2,
            Distribution::Independent,
            Forwarding::BreadthFirst,
            250.0,
        );
        exp.sim_seconds = 300.0;
        let out = run_experiment(&exp);
        assert!(out.drr.is_finite());
        assert!(out.drr <= 1.0);
    }
}
