//! The interface every storage model exposes to the distributed layer.

use skyline_core::region::{Mbr, Point, QueryRegion};
use skyline_core::vdr::{FilterTuple, UpperBounds};
use skyline_core::{dominates, DominanceTest, Tuple};

/// Everything a device needs to answer one local skyline request.
#[derive(Debug, Clone)]
pub struct LocalQuery {
    /// Spatial constraint of the distributed query.
    pub region: QueryRegion,
    /// The (primary) filtering tuple attached to the query, if any.
    pub filter: Option<FilterTuple>,
    /// Additional filtering tuples — the multi-filter extension the paper
    /// names as future work. Usually empty.
    pub extra_filters: Vec<FilterTuple>,
    /// Window dominance test for the scan (paper: `PaperStrict` on HS).
    pub dominance: DominanceTest,
    /// Upper bounds this device should use when computing VDRs for the
    /// dynamic-filter update. `None` disables the update (e.g. for the
    /// straightforward strategy).
    pub vdr_bounds: Option<UpperBounds>,
}

impl LocalQuery {
    /// A plain query: no filter, full dominance, no VDR bookkeeping.
    pub fn plain(region: QueryRegion) -> Self {
        LocalQuery {
            region,
            filter: None,
            extra_filters: Vec::new(),
            dominance: DominanceTest::Full,
            vdr_bounds: None,
        }
    }

    /// `true` when the query carries at least one filtering tuple.
    pub fn has_filters(&self) -> bool {
        self.filter.is_some() || !self.extra_filters.is_empty()
    }

    /// `true` when any attached filter dominates a tuple with `attrs` (not
    /// Fig. 4's strict `<`: see DESIGN.md's fidelity notes).
    pub fn eliminates(&self, attrs: &[f64]) -> bool {
        self.filter
            .iter()
            .chain(&self.extra_filters)
            .any(|f| dominates(&f.attrs, attrs))
    }

    /// `true` when any attached filter dominates the virtual best corner
    /// `lower`, allowing the whole relation to be skipped.
    pub fn skips_relation(&self, lower: &[f64]) -> bool {
        self.filter
            .iter()
            .chain(&self.extra_filters)
            .any(|f| filter_skips_relation(f, lower))
    }
}

/// Counters describing how much work one local query cost — the raw
/// material for the paper's Fig. 5 argument (ID comparisons are cheaper
/// than raw-value comparisons; sorted domains save comparisons).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalStats {
    /// Rows read from storage.
    pub tuples_scanned: u64,
    /// Rows surviving the spatial range check.
    pub in_range: u64,
    /// Dominance tests between raw attribute values.
    pub value_comparisons: u64,
    /// Dominance tests between attribute IDs.
    pub id_comparisons: u64,
}

/// Which Fig. 4 guard let a relation answer without scanning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipCause {
    /// Guard 1: the query region misses the relation's MBR. No stored site
    /// is in range, so `|SK_i| = 0` is the truth.
    SpatialMiss,
    /// Guard 2: a filter dominates the virtual best corner of the local
    /// domains. In-range data exists but was never scanned, so
    /// `unreduced_len` is unknown (reported as 0).
    FilterDominance,
}

/// Result of one device-local skyline query.
#[derive(Debug, Clone)]
pub struct LocalSkylineOutcome {
    /// `SK'_i`: the reduced local skyline to transmit.
    pub skyline: Vec<Tuple>,
    /// `|SK_i|`: size of the unreduced local skyline (before the filtering
    /// tuple was applied) — the denominator of the paper's DRR formula.
    pub unreduced_len: usize,
    /// The guard that skipped the whole relation, if one did. The storage
    /// layer knows which guard fired; callers that account for skipped
    /// data (shadow DRR) read it here instead of probing the relation.
    pub skip: Option<SkipCause>,
    /// The locally best filter candidate (max VDR over the reduced skyline),
    /// already compared against the incoming filter by the caller's rules.
    /// `None` when `vdr_bounds` was `None` or the skyline is empty.
    pub filter_candidate: Option<FilterTuple>,
    /// Work counters.
    pub stats: LocalStats,
}

impl LocalSkylineOutcome {
    /// An outcome for a device that skipped the query entirely.
    pub fn skipped(cause: SkipCause) -> Self {
        LocalSkylineOutcome {
            skyline: Vec::new(),
            unreduced_len: 0,
            skip: Some(cause),
            filter_candidate: None,
            stats: LocalStats::default(),
        }
    }
}

/// A local relation `R_i` stored on one device, able to answer constrained
/// skyline queries. All implementations must return the same `skyline` for
/// the same data and query (modulo tuple order).
pub trait DeviceRelation {
    /// Number of stored tuples.
    fn len(&self) -> usize;

    /// `true` when the relation holds no tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of non-spatial attributes.
    fn dim(&self) -> usize;

    /// Materializes row `i` (test/diagnostic path; not used by queries).
    fn tuple(&self, i: usize) -> Tuple;

    /// Site location of row `i`. Every model stores locations inline, so
    /// implementations answer without materializing the row.
    fn location(&self, i: usize) -> Point {
        self.tuple(i).location()
    }

    /// The MBR of the stored sites, if the model keeps it as O(1) constants
    /// (flat storage does not — that is the paper's point). Empty relations
    /// report [`Mbr::empty`].
    fn mbr(&self) -> Option<Mbr> {
        None
    }

    /// Per-attribute local minima `l_j`, if the model can provide them in
    /// O(1) (hybrid keeps sorted domains; flat returns `None` — that is the
    /// paper's point).
    fn lower_bounds(&self) -> Option<Vec<f64>>;

    /// Per-attribute local maxima `h_j` (the `UNE` bounds), if O(1).
    fn upper_bounds(&self) -> Option<UpperBounds>;

    /// Approximate storage footprint in bytes (for the space comparison).
    fn storage_bytes(&self) -> usize;

    /// Runs the device-local constrained skyline query.
    fn local_skyline(&self, query: &LocalQuery) -> LocalSkylineOutcome;
}

/// Whole-relation skip check (Fig. 4, second guard): can the filter tuple
/// dominate even the virtual best tuple `l = (l_1 … l_n)` of this device?
///
/// Deviation from the paper: the paper skips when `tp_flt.p_j ≤ l_j` for all
/// `j`, which in the all-equal corner case can drop a tuple that merely
/// *ties* the filter on every attribute (such a tuple is itself a legitimate
/// skyline member). We therefore require genuine dominance, which is
/// identical except in that corner case.
pub fn filter_skips_relation(filter: &FilterTuple, lower: &[f64]) -> bool {
    dominates(&filter.attrs, lower)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_query_defaults() {
        let q = LocalQuery::plain(QueryRegion::new(Point::new(0.0, 0.0), 10.0));
        assert!(q.filter.is_none());
        assert!(q.vdr_bounds.is_none());
        assert_eq!(q.dominance, DominanceTest::Full);
    }

    #[test]
    fn skip_check_requires_dominating_the_corner() {
        let bounds = UpperBounds::new(vec![100.0, 100.0]);
        let lower = vec![10.0, 10.0];
        let strong = FilterTuple::new(vec![5.0, 5.0], &bounds);
        let tie = FilterTuple::new(vec![10.0, 10.0], &bounds);
        let weak = FilterTuple::new(vec![50.0, 5.0], &bounds);

        assert!(filter_skips_relation(&strong, &lower));
        // All-equal corner: never skip (the tying local tuple must survive).
        assert!(!filter_skips_relation(&tie, &lower));
        assert!(!filter_skips_relation(&weak, &lower));
    }

    #[test]
    fn skipped_outcome_is_empty() {
        let o = LocalSkylineOutcome::skipped(SkipCause::SpatialMiss);
        assert_eq!(o.skip, Some(SkipCause::SpatialMiss));
        assert!(o.skyline.is_empty() && o.unreduced_len == 0);
    }
}
