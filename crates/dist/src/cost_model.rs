//! Device-local CPU cost model.
//!
//! The paper measured local processing on an HP iPAQ h6365 (200 MHz
//! OMAP1510, SuperWaba/Java) and then *estimated* those costs inside the
//! MANET simulation: "we estimated the local processing costs in the
//! simulation and added them to the communication delays gained in the
//! MANET simulator to obtain the total response time" (Section 5.2.3).
//!
//! We reproduce that methodology: the storage layer reports exact work
//! counters ([`device_storage::LocalStats`]), and this model
//! converts them into virtual time with per-operation constants calibrated
//! to an interpreted-Java, 200 MHz-class device. The defaults assume ~1 µs
//! per interpreted byte-code-heavy inner-loop step — about 200 machine
//! cycles — which reproduces the seconds-scale local query times the
//! paper's Fig. 5 reports for 10K–100K-tuple relations. The constants are
//! configuration, not measurement; only *relative* costs (ID vs. raw-value
//! comparisons, scan vs. compare) shape the curves.

use device_storage::LocalStats;
use manet_sim::SimDuration;

/// Converts storage work counters into simulated device CPU time.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCostModel {
    /// Fixed per-query overhead (dispatch, result packaging) in µs.
    pub base_us: f64,
    /// Cost of scanning one stored tuple (fetch + spatial check), µs.
    pub per_tuple_us: f64,
    /// Cost of one dominance test on packed integer IDs, µs.
    pub per_id_cmp_us: f64,
    /// Cost of one dominance test on raw float values, µs.
    pub per_value_cmp_us: f64,
}

impl Default for DeviceCostModel {
    /// iPAQ-class defaults: raw-value comparisons cost ~4× an ID
    /// comparison, matching the paper's argument that "comparison of simple
    /// ID integers generally costs less time than that of domain values".
    fn default() -> Self {
        DeviceCostModel {
            base_us: 2_000.0,
            per_tuple_us: 1.0,
            per_id_cmp_us: 0.5,
            per_value_cmp_us: 2.0,
        }
    }
}

impl DeviceCostModel {
    /// A model with zero cost everywhere (isolates pure communication time
    /// in ablation runs).
    pub fn free() -> Self {
        DeviceCostModel {
            base_us: 0.0,
            per_tuple_us: 0.0,
            per_id_cmp_us: 0.0,
            per_value_cmp_us: 0.0,
        }
    }

    /// Simulated CPU time for one local query.
    pub fn query_time(&self, stats: &LocalStats) -> SimDuration {
        let us = self.base_us
            + self.per_tuple_us * stats.tuples_scanned as f64
            + self.per_id_cmp_us * stats.id_comparisons as f64
            + self.per_value_cmp_us * stats.value_comparisons as f64;
        SimDuration::from_micros(us.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_comparisons_are_cheaper_than_values() {
        let m = DeviceCostModel::default();
        let ids = LocalStats { id_comparisons: 1000, ..LocalStats::default() };
        let vals = LocalStats { value_comparisons: 1000, ..LocalStats::default() };
        assert!(m.query_time(&ids) < m.query_time(&vals));
    }

    #[test]
    fn free_model_is_zero() {
        let m = DeviceCostModel::free();
        let s = LocalStats {
            tuples_scanned: 1_000_000,
            value_comparisons: 1_000_000,
            ..LocalStats::default()
        };
        assert_eq!(m.query_time(&s), SimDuration::ZERO);
    }

    #[test]
    fn default_scale_is_seconds_for_large_scans() {
        // 100K tuples with ~10 comparisons each on flat storage: seconds,
        // matching Fig. 5's order of magnitude on the iPAQ.
        let m = DeviceCostModel::default();
        let s = LocalStats {
            tuples_scanned: 100_000,
            value_comparisons: 1_000_000,
            ..LocalStats::default()
        };
        let t = m.query_time(&s).as_secs_f64();
        assert!((0.5..60.0).contains(&t), "{t}s");
    }
}
