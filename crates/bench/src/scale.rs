//! Experiment scale: scaled-down defaults vs. the paper's full parameters
//! (Tables 6 and 7).

/// Which parameter grid to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down grid (same shape, minutes of wall time).
    Quick,
    /// The paper's parameters (1M tuples, 100 devices, 2 h simulations).
    Full,
}

impl Scale {
    /// Fig. 5(a): local-relation cardinalities (paper: 10K … 100K).
    pub fn local_cardinalities(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![10_000, 20_000, 30_000, 40_000, 50_000],
            Scale::Full => (1..=10).map(|k| k * 10_000).collect(),
        }
    }

    /// Fig. 5(b): local cardinality for the dimensionality sweep
    /// (paper: 50K).
    pub fn local_dim_cardinality(self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 50_000,
        }
    }

    /// Figs. 6–7(a): global cardinalities (paper: 100K … 1M).
    pub fn global_cardinalities(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![100_000, 200_000, 300_000],
            Scale::Full => (1..=10).map(|k| k * 100_000).collect(),
        }
    }

    /// Figs. 6–7(b,c): global cardinality for the dimensionality and
    /// device-count sweeps (paper: 500K).
    pub fn global_fixed_cardinality(self) -> usize {
        match self {
            Scale::Quick => 200_000,
            Scale::Full => 500_000,
        }
    }

    /// Attribute dimensionalities (paper: 2 … 5).
    pub fn dimensionalities(self) -> Vec<usize> {
        vec![2, 3, 4, 5]
    }

    /// Cardinality for the *static* dimensionality panels. Skyline sizes
    /// explode with dimensionality (especially anti-correlated), so the
    /// quick grid uses one smaller constant cardinality across all
    /// dimensionalities — small enough that even the 5-attribute
    /// anti-correlated case stays tractable on one core, constant so the
    /// DRR-vs-dims trend is not confounded. `Full` uses the paper's 500K.
    pub fn global_cardinality_for_dim(self, _dim: usize) -> usize {
        match self {
            Scale::Quick => 50_000,
            Scale::Full => 500_000,
        }
    }

    /// Cardinality for the *MANET* dimensionality panels (same rationale).
    pub fn manet_cardinality_for_dim(self, _dim: usize) -> usize {
        match self {
            Scale::Quick => 50_000,
            Scale::Full => 500_000,
        }
    }

    /// Grid sides; `m = g²` devices (paper: 3 … 10).
    pub fn grid_sides(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![3, 5, 7, 10],
            Scale::Full => (3..=10).collect(),
        }
    }

    /// Figs. 8–11: MANET global cardinalities.
    pub fn manet_cardinalities(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![50_000, 100_000, 200_000],
            Scale::Full => (1..=10).map(|k| k * 100_000).collect(),
        }
    }

    /// Figs. 8–11(b,c): fixed MANET cardinality.
    pub fn manet_fixed_cardinality(self) -> usize {
        match self {
            Scale::Quick => 100_000,
            Scale::Full => 500_000,
        }
    }

    /// MANET simulation horizon in seconds (paper: 7200).
    pub fn sim_seconds(self) -> f64 {
        match self {
            Scale::Quick => 1_800.0,
            Scale::Full => 7_200.0,
        }
    }

    /// Default grid side for MANET cardinality/dimensionality sweeps
    /// (paper: 5 → 25 devices).
    pub fn manet_grid(self) -> usize {
        5
    }

    /// Distances of interest (paper: 100, 250, 500).
    pub fn distances(self) -> Vec<f64> {
        vec![100.0, 250.0, 500.0]
    }

    /// Chaos scorecard (`msq ext chaos`): global cardinality. Deliberately
    /// modest — every query is additionally scored against the sequential
    /// oracle, and the grid has 30 cells.
    pub fn chaos_cardinality(self) -> usize {
        match self {
            Scale::Quick => 5_000,
            Scale::Full => 50_000,
        }
    }

    /// Chaos scorecard: simulation horizon in seconds. Long enough that
    /// every crash window (first half of the run) plus reboot plus the
    /// 180 s query timeout fits.
    pub fn chaos_sim_seconds(self) -> f64 {
        match self {
            Scale::Quick => 600.0,
            Scale::Full => 1_800.0,
        }
    }

    /// Adversarial grid (`msq ext attack`): global cardinality. Modest like
    /// the chaos grid — every cell is oracle-scored and the grid is wide.
    pub fn attack_cardinality(self) -> usize {
        match self {
            Scale::Quick => 5_000,
            Scale::Full => 50_000,
        }
    }

    /// Adversarial grid: simulation horizon in seconds.
    pub fn attack_sim_seconds(self) -> f64 {
        match self {
            Scale::Quick => 600.0,
            Scale::Full => 1_800.0,
        }
    }

    /// Monitoring sweep (`msq ext monitor`): grid side (`m = g²` devices).
    pub fn monitor_grid(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Full => 5,
        }
    }

    /// Monitoring sweep: standing-query duration in seconds. Long enough
    /// for tens of epochs at every swept period, so lease renewals, the
    /// miss limit, and full resyncs all get exercised.
    pub fn monitor_duration_seconds(self) -> f64 {
        match self {
            Scale::Quick => 600.0,
            Scale::Full => 1_800.0,
        }
    }

    /// Scale bench (`msq scale`): grid sides, `m = g²` devices at
    /// constant density (the area grows with the network). `g = 10` is the
    /// paper's largest network (the 1× anchor); the Quick top end is a
    /// 1024-device end-to-end query, `Full` extends through 4096 to the
    /// 10 000-device `g = 100` network. The Quick sides are a strict
    /// prefix of the Full sides, so a Quick baseline's rows appear
    /// verbatim in a Full baseline and `bench_diff` can compare the
    /// overlap.
    pub fn scalebench_grid_sides(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![10, 18, 32],
            Scale::Full => vec![10, 18, 32, 64, 100],
        }
    }

    /// Scale bench: global cardinalities (tuples spread over `g²`
    /// devices). One point at either scale — the axis under test is the
    /// *network* size; the static sweeps already cover cardinality, and a
    /// shared value keeps Quick rows a subset of Full rows.
    pub fn scalebench_cardinalities(self) -> Vec<usize> {
        vec![10_000]
    }

    /// Scale bench: attribute dimensionalities. One point (see
    /// [`Self::scalebench_cardinalities`] for the subset rationale) — the
    /// devices axis is the expensive, interesting one.
    pub fn scalebench_dims(self) -> Vec<usize> {
        vec![3]
    }

    /// Scale bench: simulation horizon in seconds — the window queries are
    /// issued in (the runtime adds its own 400 s drain on top). Shared by
    /// both scales so the per-cell work at a given `g` is identical.
    pub fn scalebench_sim_seconds(self) -> f64 {
        300.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper_grid() {
        assert_eq!(Scale::Full.local_cardinalities().len(), 10);
        assert_eq!(Scale::Full.global_cardinalities().last(), Some(&1_000_000));
        assert_eq!(Scale::Full.grid_sides(), vec![3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(Scale::Full.sim_seconds(), 7200.0);
    }

    #[test]
    fn quick_scale_is_smaller() {
        assert!(Scale::Quick.global_cardinalities().len() < 10);
        assert!(Scale::Quick.sim_seconds() < Scale::Full.sim_seconds());
    }
}
