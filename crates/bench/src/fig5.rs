//! Fig. 5 — local skyline processing time, hybrid storage (HS) vs. flat
//! storage (FS), on independent (IN) and anti-correlated (AC) data.
//!
//! Panel (a): time vs. local cardinality (2 attributes).
//! Panel (b): time vs. dimensionality (fixed cardinality, averaged over
//! IN and AC as in the paper).
//!
//! Two time columns are reported per configuration:
//! * `host ms` — measured wall time of this Rust implementation;
//! * `iPAQ s` — the calibrated device cost model applied to the scan's
//!   work counters, i.e. the number the MANET response-time figures use.

use datagen::{DataSpec, Distribution};
use device_storage::{DeviceRelation, FlatRelation, HybridRelation, LocalQuery};
use dist_skyline::cost_model::DeviceCostModel;
use skyline_core::region::QueryRegion;
use skyline_core::Tuple;
use std::time::Instant;

use crate::sweep;
use crate::table::Table;
use crate::RunOpts;

/// Fig. 5 cells measure *wall time* on this host, so they always run with
/// `jobs = 1`: timing cells concurrently would make them contend for cores
/// and corrupt the `host ms` columns. (They still go through the sweep
/// harness so the stage lands in `BENCH_sweep.json`.) The `host ms`
/// columns are inherently machine- and run-dependent; the deterministic
/// columns are the modelled `iPAQ s` ones.
const FIG5_JOBS: usize = 1;

/// One measurement: host wall milliseconds and modelled device seconds.
pub struct Measurement {
    /// Host wall time (ms), median of the repetitions.
    pub host_ms: f64,
    /// Modelled iPAQ-class device time (s).
    pub device_s: f64,
    /// Skyline size (sanity check: must agree between models).
    pub skyline_len: usize,
}

/// Runs one local skyline query `reps` times, reporting the median.
pub fn measure<R: DeviceRelation>(rel: &R, reps: usize) -> Measurement {
    let q = LocalQuery::plain(QueryRegion::unbounded());
    let cost = DeviceCostModel::default();
    let mut times = Vec::with_capacity(reps);
    let mut out = rel.local_skyline(&q);
    for _ in 0..reps {
        let t0 = Instant::now();
        out = rel.local_skyline(&q);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Measurement {
        host_ms: times[times.len() / 2],
        device_s: cost.query_time(&out.stats).as_secs_f64(),
        skyline_len: out.skyline.len(),
    }
}

fn dataset(card: usize, dim: usize, dist: Distribution) -> Vec<Tuple> {
    DataSpec::local_experiment(card, dim, dist, 0xF165).generate()
}

/// Panel (a): cardinality sweep.
pub fn panel_a(o: &RunOpts, reps: usize) -> std::io::Result<()> {
    let series: Vec<String> = ["HS-IN", "FS-IN", "HS-AC", "FS-AC"]
        .iter()
        .flat_map(|s| [format!("{s} host ms"), format!("{s} iPAQ s")])
        .collect();
    let mut t = Table::new(
        "fig5a",
        "Fig. 5(a) — local processing time vs. cardinality (2 attrs)\n         columns: HS/FS × IN/AC; host = this machine, iPAQ = cost model",
        "cardinality",
        series,
    );
    let cards = o.scale.local_cardinalities();
    let cells: Vec<(usize, Distribution)> = cards
        .iter()
        .flat_map(|&card| {
            [Distribution::Independent, Distribution::AntiCorrelated]
                .into_iter()
                .map(move |dist| (card, dist))
        })
        .collect();
    let rows = sweep::run_stage("fig5a", FIG5_JOBS, &cells, |&(card, dist)| {
        let data = dataset(card, 2, dist);
        let hs = measure(&HybridRelation::new(data.clone()), reps);
        let fs = measure(&FlatRelation::new(data), reps);
        assert_eq!(hs.skyline_len, fs.skyline_len, "models disagree");
        [hs.host_ms, hs.device_s, fs.host_ms, fs.device_s]
    });
    for (card, pair) in cards.iter().zip(rows.chunks(2)) {
        t.push(card, pair.concat());
    }
    t.emit(o.csv.as_deref())
}

/// Panel (b): dimensionality sweep (averaged over IN and AC, as in the
/// paper: "we show the average costs of both distributions").
pub fn panel_b(o: &RunOpts, reps: usize) -> std::io::Result<()> {
    let card = o.scale.local_dim_cardinality();
    let mut t = Table::new(
        "fig5b",
        format!(
            "Fig. 5(b) — local processing time vs. dimensionality ({card} tuples)\naverage of IN and AC"
        ),
        "dims",
        vec!["HS host ms".into(), "HS iPAQ s".into(), "FS host ms".into(), "FS iPAQ s".into()],
    );
    let dims = o.scale.dimensionalities();
    let cells: Vec<(usize, Distribution)> = dims
        .iter()
        .flat_map(|&dim| {
            [Distribution::Independent, Distribution::AntiCorrelated]
                .into_iter()
                .map(move |dist| (dim, dist))
        })
        .collect();
    let rows = sweep::run_stage("fig5b", FIG5_JOBS, &cells, |&(dim, dist)| {
        let data = dataset(card, dim, dist);
        let hs = measure(&HybridRelation::new(data.clone()), reps);
        let fs = measure(&FlatRelation::new(data), reps);
        [hs.host_ms, hs.device_s, fs.host_ms, fs.device_s]
    });
    for (dim, pair) in dims.iter().zip(rows.chunks(2)) {
        // Average IN and AC per column, as in the paper.
        let avg: Vec<f64> = (0..4).map(|k| pair[0][k] / 2.0 + pair[1][k] / 2.0).collect();
        t.push(dim, avg);
    }
    t.emit(o.csv.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_is_not_slower_in_model_terms() {
        // The cost-model time of HS must beat FS (byte-ID comparisons +
        // presorting beat raw-value BNL) — the core Fig. 5 claim.
        let data = dataset(5_000, 2, Distribution::Independent);
        let hs = measure(&HybridRelation::new(data.clone()), 1);
        let fs = measure(&FlatRelation::new(data), 1);
        assert!(hs.device_s < fs.device_s, "HS {} vs FS {}", hs.device_s, fs.device_s);
        assert_eq!(hs.skyline_len, fs.skyline_len);
    }
}
