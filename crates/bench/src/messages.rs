//! Fig. 12 — query message count vs. number of mobile devices, BF vs. DF.
//!
//! The paper found cardinality, dimensionality, and distribution have
//! little impact on the message count, so a single sweep over the device
//! count suffices. Counts are app-level query-forward messages per query
//! (BF counted per recipient; see `dist-skyline::runtime`).

use datagen::Distribution;
use dist_skyline::config::Forwarding;
use dist_skyline::runtime::{run_experiment, ManetExperiment};

use crate::sweep;
use crate::table::Table;
use crate::RunOpts;

/// Runs the Fig. 12 sweep: the `grid sides × {BF, DF}` cell grid goes
/// through the sweep harness.
pub fn run(o: &RunOpts) -> std::io::Result<()> {
    let card = o.scale.manet_fixed_cardinality();
    let mut t = Table::new(
        "fig12",
        format!("Fig. 12 — query message count vs. devices ({card} tuples, 2 attrs, d = 250)"),
        "devices",
        vec!["BF".into(), "DF".into(), "BF aodv".into(), "DF aodv".into()],
    );
    let sides = o.scale.grid_sides();
    let cells: Vec<ManetExperiment> = sides
        .iter()
        .flat_map(|&g| {
            [Forwarding::BreadthFirst, Forwarding::DepthFirst].into_iter().map(move |fwd| {
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
                exp
            })
        })
        .collect();
    let outs = sweep::run_stage("fig12", o.jobs, &cells, run_experiment);
    for (g, pair) in sides.iter().zip(outs.chunks(2)) {
        let aodv = |i: usize| {
            let out = &pair[i];
            out.net.aodv_frames as f64 / out.records.len().max(1) as f64
        };
        t.push(
            g * g,
            vec![pair[0].mean_forward_messages, pair[1].mean_forward_messages, aodv(0), aodv(1)],
        );
    }
    t.emit(o.csv.as_deref())
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
