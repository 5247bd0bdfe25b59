//! Fig. 5 — local skyline processing time, hybrid storage (HS) vs. flat
//! storage (FS), on independent (IN) and anti-correlated (AC) data.
//!
//! Panel (a): time vs. local cardinality (2 attributes).
//! Panel (b): time vs. dimensionality (fixed cardinality, averaged over
//! IN and AC as in the paper).
//!
//! Two time columns are reported per configuration:
//! * `host_ms` — measured wall time of this Rust implementation: the
//!   fastest of `TIMED_REPS` (5) unbounded scans, each of a fresh clone, so
//!   a hybrid relation never answers from its window memo;
//! * `ipaq_s` — the calibrated device cost model applied to the scan's
//!   work counters, i.e. the number the MANET response-time figures use.

use datagen::{DataSpec, Distribution};
use device_storage::{DeviceRelation, FlatRelation, HybridRelation, LocalQuery};
use dist_skyline::cost_model::DeviceCostModel;
use skyline_core::region::QueryRegion;
use skyline_core::Tuple;

use crate::corebench::cold_scan;
use crate::provenance::{det, emit_rows, label, vol, Row, Value};
use crate::{sweep, RunOpts};

/// Fig. 5 cells measure *wall time* on this host, so they always run with
/// `jobs = 1`: timing cells concurrently would make them contend for cores
/// and corrupt the `host_ms` column. (They still go through the sweep
/// harness so the stage lands in `BENCH_sweep.json`.) `host_ms` is
/// inherently machine- and run-dependent; the deterministic column is
/// the modelled `ipaq_s`.
const FIG5_JOBS: usize = 1;

/// One measurement: host wall milliseconds and modelled device seconds.
pub struct Measurement {
    /// Host wall time (ms), fastest of the cold scans.
    pub host_ms: f64,
    /// Modelled iPAQ-class device time (s).
    pub device_s: f64,
    /// Skyline size (sanity check: must agree between models).
    pub skyline_len: usize,
}

/// Times one unbounded local skyline query as `corebench`'s storage rows
/// do: the fastest of `TIMED_REPS` scans, each of a fresh clone.
pub fn measure<R: DeviceRelation + Clone>(rel: &R) -> Measurement {
    let (out, host_ms) = cold_scan(rel, &LocalQuery::plain(QueryRegion::unbounded()));
    Measurement {
        host_ms,
        device_s: DeviceCostModel::default().query_time(&out.stats).as_secs_f64(),
        skyline_len: out.skyline.len(),
    }
}

fn dataset(card: usize, dim: usize, dist: Distribution) -> Vec<Tuple> {
    DataSpec::local_experiment(card, dim, dist, 0xF165).generate()
}

/// One `(storage, dist)` row of a panel: modelled device seconds are
/// deterministic, host milliseconds are wall clock.
fn row(
    card: usize,
    dim: usize,
    storage: &'static str,
    dist: &'static str,
    host_ms: f64,
    device_s: f64,
) -> Row {
    vec![
        label("cardinality", card),
        label("dim", dim),
        label("storage", storage),
        label("dist", dist),
        vol("host_ms", Value::Float(host_ms)),
        det("ipaq_s", Value::Float(device_s)),
    ]
}

/// Measures HS and FS on one dataset: `[HS host, HS device, FS host, FS device]`.
fn measure_both(card: usize, dim: usize, dist: Distribution) -> [f64; 4] {
    let data = dataset(card, dim, dist);
    let hs = measure(&HybridRelation::new(data.clone()));
    let fs = measure(&FlatRelation::new(data));
    assert_eq!(hs.skyline_len, fs.skyline_len, "models disagree");
    [hs.host_ms, hs.device_s, fs.host_ms, fs.device_s]
}

const DISTS: [(&str, Distribution); 2] =
    [("IN", Distribution::Independent), ("AC", Distribution::AntiCorrelated)];

/// Panel (a): cardinality sweep (2 attributes), HS and FS on IN and AC.
pub fn panel_a(o: &RunOpts) -> Result<(), String> {
    let cells: Vec<(usize, &str, Distribution)> = o
        .scale
        .local_cardinalities()
        .into_iter()
        .flat_map(|card| DISTS.into_iter().map(move |(name, dist)| (card, name, dist)))
        .collect();
    let times = sweep::run_stage("fig5a", FIG5_JOBS, &cells, |&(card, _, dist)| {
        measure_both(card, 2, dist)
    });
    let rows: Vec<Row> = ["HS", "FS"]
        .into_iter()
        .enumerate()
        .flat_map(|(k, storage)| {
            cells.iter().zip(&times).map(move |(&(card, dist, _), t)| {
                row(card, 2, storage, dist, t[2 * k], t[2 * k + 1])
            })
        })
        .collect();
    emit_rows(
        "fig5a",
        "Fig. 5(a) — local processing time vs. cardinality (2 attrs); host = this machine, \
         iPAQ = cost model",
        &rows,
        o.csv.as_deref(),
    )
}

/// Panel (b): dimensionality sweep (averaged over IN and AC, as in the
/// paper: "we show the average costs of both distributions").
pub fn panel_b(o: &RunOpts) -> Result<(), String> {
    let card = o.scale.local_dim_cardinality();
    let dims = o.scale.dimensionalities();
    let cells: Vec<(usize, Distribution)> = dims
        .iter()
        .flat_map(|&dim| DISTS.into_iter().map(move |(_, dist)| (dim, dist)))
        .collect();
    let times =
        sweep::run_stage("fig5b", FIG5_JOBS, &cells, |&(dim, dist)| measure_both(card, dim, dist));
    let rows: Vec<Row> = ["HS", "FS"]
        .into_iter()
        .enumerate()
        .flat_map(|(k, storage)| {
            dims.iter().zip(times.chunks(2)).map(move |(&dim, pair)| {
                // Average IN and AC, as in the paper.
                let avg = |i: usize| pair[0][i] / 2.0 + pair[1][i] / 2.0;
                row(card, dim, storage, "IN+AC", avg(2 * k), avg(2 * k + 1))
            })
        })
        .collect();
    emit_rows(
        "fig5b",
        &format!("Fig. 5(b) — local processing time vs. dimensionality ({card} tuples)"),
        &rows,
        o.csv.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_is_not_slower_in_model_terms() {
        // The cost-model time of HS must beat FS (byte-ID comparisons +
        // presorting beat raw-value BNL) — the core Fig. 5 claim.
        let data = dataset(5_000, 2, Distribution::Independent);
        let hs = measure(&HybridRelation::new(data.clone()));
        let fs = measure(&FlatRelation::new(data));
        assert!(hs.device_s < fs.device_s, "HS {} vs FS {}", hs.device_s, fs.device_s);
        assert_eq!(hs.skyline_len, fs.skyline_len);
    }
}
