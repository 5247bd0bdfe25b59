//! Fig. 12 — query message count vs. number of mobile devices, BF vs. DF.
//!
//! The paper found cardinality, dimensionality, and distribution have
//! little impact on the message count, so a single sweep over the device
//! count suffices. Counts are app-level query-forward messages per query
//! (BF counted per recipient; see `dist-skyline::runtime`).

use datagen::Distribution;
use dist_skyline::config::Forwarding;
use dist_skyline::runtime::{run_experiment, ManetExperiment};

use crate::provenance::{det, emit_rows, label, Row, Value};
use crate::{sweep, RunOpts};

/// Runs the Fig. 12 sweep: the `grid sides × {BF, DF}` cell grid goes
/// through the sweep harness, one row per cell.
pub fn run(o: &RunOpts) -> Result<(), String> {
    let card = o.scale.manet_fixed_cardinality();
    let cells: Vec<(usize, &str, ManetExperiment)> = o
        .scale
        .grid_sides()
        .into_iter()
        .flat_map(|g| {
            [("BF", Forwarding::BreadthFirst), ("DF", Forwarding::DepthFirst)]
                .into_iter()
                .map(move |(name, fwd)| {
                    let mut exp = ManetExperiment::paper_defaults(
                        g,
                        card,
                        2,
                        Distribution::Independent,
                        250.0,
                        0x000F_1612,
                    );
                    exp.forwarding = fwd;
                    exp.sim_seconds = o.scale.sim_seconds();
                    (g, name, exp)
                })
        })
        .collect();
    let outs = sweep::run_stage("fig12", o.jobs, &cells, |(_, _, exp)| run_experiment(exp));
    let rows: Vec<Row> = cells
        .iter()
        .zip(&outs)
        .map(|(&(g, forwarding, _), out)| {
            let queries = out.records.len().max(1) as f64;
            vec![
                label("devices", g * g),
                label("forwarding", forwarding),
                det("msgs_per_query", Value::Float(out.mean_forward_messages)),
                det("aodv_per_query", Value::Float(out.net.aodv_frames as f64 / queries)),
            ]
        })
        .collect();
    emit_rows(
        "fig12",
        &format!("Fig. 12 — query message count vs. devices ({card} tuples, 2 attrs, d = 250)"),
        &rows,
        o.csv.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dist_skyline::cost_model::DeviceCostModel;

    #[test]
    fn bf_floods_more_than_df_on_a_frozen_grid() {
        let mk = |fwd| {
            let mut exp = ManetExperiment::paper_defaults(
                4,
                5_000,
                2,
                Distribution::Independent,
                f64::INFINITY,
                3,
            );
            exp.forwarding = fwd;
            exp.frozen = true;
            exp.radio.range_m = 300.0;
            exp.sim_seconds = 400.0;
            exp.queries_per_device = (1, 1);
            exp.cost = DeviceCostModel::free();
            run_experiment(&exp)
        };
        let bf = mk(Forwarding::BreadthFirst);
        let df = mk(Forwarding::DepthFirst);
        assert!(
            bf.mean_forward_messages > df.mean_forward_messages,
            "BF {} should exceed DF {}",
            bf.mean_forward_messages,
            df.mean_forward_messages
        );
    }
}
