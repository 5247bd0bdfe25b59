//! Figs. 8–11 — data reduction rate (Figs. 8–9) and response time
//! (Figs. 10–11) in the simulated MANET (Section 5.2.2-II and 5.2.3).
//!
//! Per the paper's pre-test conclusion, the simulation uses
//! under-estimated dominating regions with dynamic filter updates. A
//! panel's series are {DF, BF} forwarding × distances {100, 250, 500}.
//! DRR and response time are two outcomes of one simulation, so a
//! distribution's three panels share one grid in which every distinct
//! cell runs once: at the Quick scale Fig. 8(b)'s 2 attributes are
//! Fig. 8(a)'s 50 000 tuples, and 8(c)'s 25 devices are 8(a)'s 100 000.

use datagen::Distribution;
use dist_skyline::config::Forwarding;
use dist_skyline::runtime::{run_experiment, ManetExperiment};

use crate::provenance::{det, emit_rows, label, Row, Value};
use crate::{sweep, RunOpts, Scale};

/// One simulation: the coordinates that make two panels' rows the same
/// cell.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    /// Grid side (devices = g²).
    g: usize,
    /// Global cardinality.
    card: usize,
    /// Non-spatial attributes.
    dim: usize,
    /// Query forwarding.
    forwarding: Forwarding,
    /// Distance of interest (m).
    d: f64,
}

/// One figure panel: its table id and title, and the grid index of each
/// of its rows' cells.
#[derive(Debug)]
struct Panel {
    /// Table id, the CSV file's name (e.g. `fig8a_Independent`).
    id: String,
    /// Title printed above the table.
    title: String,
    /// Indices into the grid's cells, one per row.
    cells: Vec<usize>,
}

/// Figs. 8 and 10 plot independent data, Figs. 9 and 11 anti-correlated.
fn figures(dist: Distribution) -> (u8, u8) {
    match dist {
        Distribution::AntiCorrelated => (9, 11),
        _ => (8, 10),
    }
}

/// A distribution's grid: its distinct cells in first-use order, and the
/// three panels over them.
fn grid(scale: Scale, dist: Distribution) -> (Vec<Cell>, Vec<Panel>) {
    let (drr_fig, time_fig) = figures(dist);
    let g = scale.manet_grid();
    let fixed = scale.manet_fixed_cardinality();
    let points = [
        (
            "a",
            format!("cardinality ({dist:?}, 2 attrs, {} devices)", g * g),
            scale
                .manet_cardinalities()
                .into_iter()
                .map(|card| (g, card, 2))
                .collect::<Vec<_>>(),
        ),
        (
            "b",
            format!("dimensionality ({dist:?}, {} devices)", g * g),
            scale
                .dimensionalities()
                .into_iter()
                .map(|dim| (g, scale.manet_cardinality_for_dim(dim), dim))
                .collect(),
        ),
        (
            "c",
            format!("devices ({dist:?}, {fixed} tuples, 2 attrs)"),
            scale.grid_sides().into_iter().map(|g| (g, fixed, 2)).collect(),
        ),
    ];
    let mut cells: Vec<Cell> = Vec::new();
    let panels = points
        .into_iter()
        .map(|(panel, axis, points)| {
            let mut indices = Vec::new();
            for (g, card, dim) in points {
                for forwarding in [Forwarding::DepthFirst, Forwarding::BreadthFirst] {
                    for d in scale.distances() {
                        let cell = Cell { g, card, dim, forwarding, d };
                        let i = cells.iter().position(|c| *c == cell).unwrap_or_else(|| {
                            cells.push(cell);
                            cells.len() - 1
                        });
                        indices.push(i);
                    }
                }
            }
            Panel {
                id: format!("fig{drr_fig}{panel}_{dist:?}"),
                title: format!(
                    "Figs. {drr_fig}({panel}) and {time_fig}({panel}) — DRR and response time (s) \
                     vs. {axis}"
                ),
                cells: indices,
            }
        })
        .collect();
    (cells, panels)
}

fn experiment(scale: Scale, dist: Distribution, c: &Cell) -> ManetExperiment {
    let mut exp = ManetExperiment::paper_defaults(c.g, c.card, c.dim, dist, c.d, 0x8_11);
    exp.forwarding = c.forwarding;
    exp.sim_seconds = scale.sim_seconds();
    exp
}

/// Simulates `cells` as one sweep stage: one row per cell, in input
/// order, so the rows are identical for any `jobs`.
fn rows(scale: Scale, dist: Distribution, cells: &[Cell], stage: &str, jobs: usize) -> Vec<Row> {
    let outs =
        sweep::run_stage(stage, jobs, cells, |c| run_experiment(&experiment(scale, dist, c)));
    cells
        .iter()
        .zip(&outs)
        .map(|(c, out)| {
            let forwarding = if c.forwarding == Forwarding::DepthFirst { "DF" } else { "BF" };
            vec![
                label("devices", c.g * c.g),
                label("cardinality", c.card),
                label("dim", c.dim),
                label("forwarding", forwarding),
                label("d", Value::Float(c.d)),
                det("drr", Value::Float(out.drr)),
                det("response_s", Value::Float(out.mean_response_seconds.unwrap_or(f64::NAN))),
            ]
        })
        .collect()
}

/// Runs a distribution's grid as one stage and emits its three panels.
pub fn panels(o: &RunOpts, dist: Distribution) -> Result<(), String> {
    let (cells, panels) = grid(o.scale, dist);
    let stage = format!("fig{}_{dist:?}", figures(dist).0);
    let rows = rows(o.scale, dist, &cells, &stage, o.jobs);
    for p in panels {
        let panel: Vec<Row> = p.cells.iter().map(|&i| rows[i].clone()).collect();
        emit_rows(&p.id, &p.title, &panel, o.csv.as_deref())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::rows_to_csv;

    #[test]
    fn six_series_per_scale() {
        for scale in [Scale::Quick, Scale::Full] {
            let (_, panels) = grid(scale, Distribution::Independent);
            assert_eq!(panels[0].cells.len(), 6 * scale.manet_cardinalities().len());
            assert_eq!(panels[1].cells.len(), 6 * scale.dimensionalities().len());
            assert_eq!(panels[2].cells.len(), 6 * scale.grid_sides().len());
        }
    }

    /// The panels name 66 cells at Quick, of which 54 are distinct: the
    /// 2-attribute row of (b) and the 25-device row of (c) are rows of
    /// (a), and each is simulated once.
    #[test]
    fn shared_panel_rows_come_from_one_cell() {
        let (cells, panels) = grid(Scale::Quick, Distribution::Independent);
        assert_eq!(cells.len(), 54);
        assert_eq!(panels.iter().map(|p| p.cells.len()).sum::<usize>(), 66);
        let ids: Vec<&str> = panels.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids, ["fig8a_Independent", "fig8b_Independent", "fig8c_Independent"]);
        let [a, b, c] = [0, 1, 2].map(|i| &panels[i].cells);
        // (b)'s 2@50000 is (a)'s 50000; (c)'s 25 devices (5 × 5) is (a)'s 100000.
        assert_eq!(b[..6], a[..6]);
        assert_eq!(c[6..12], a[6..12]);
        assert!(a.iter().all(|&i| cells[i].g == 5 && cells[i].dim == 2));
        assert_eq!(grid(Scale::Full, Distribution::AntiCorrelated).0.len(), 120);
    }

    /// The acceptance bar for the sweep harness: rows computed with one
    /// worker and with four must be bit-identical, not just approximately
    /// equal — parallelism must never change the tables.
    #[test]
    fn parallel_panel_is_bit_identical_to_sequential() {
        let cells: Vec<Cell> = [2_000, 3_000]
            .into_iter()
            .flat_map(|card| {
                [Forwarding::DepthFirst, Forwarding::BreadthFirst].into_iter().flat_map(
                    move |forwarding| {
                        Scale::Quick.distances().into_iter().map(move |d| Cell {
                            g: 3,
                            card,
                            dim: 2,
                            forwarding,
                            d,
                        })
                    },
                )
            })
            .collect();
        let run = |stage, jobs| rows(Scale::Quick, Distribution::Independent, &cells, stage, jobs);
        let (seq, par) = (run("determinism_seq", 1), run("determinism_par", 4));
        assert_eq!(seq.len(), 12);
        // Floats render in their shortest round-trip form, so equal text
        // is equal bits (and NaN response times render `null` on both).
        assert_eq!(rows_to_csv(&seq), rows_to_csv(&par), "jobs=1 vs jobs=4 diverged");
        // Don't leak the guard's stage records into a later `--json` dump.
        let _ = sweep::take_stage_records();
    }

    #[test]
    fn tiny_manet_run_produces_finite_drr() {
        let cell =
            Cell { g: 3, card: 5_000, dim: 2, forwarding: Forwarding::BreadthFirst, d: 250.0 };
        let mut exp = experiment(Scale::Quick, Distribution::Independent, &cell);
        exp.sim_seconds = 300.0;
        let out = run_experiment(&exp);
        assert!(out.drr.is_finite());
        assert!(out.drr <= 1.0);
    }
}
