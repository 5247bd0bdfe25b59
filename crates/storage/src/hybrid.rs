//! Hybrid ID-based storage (HS) — the paper's Section 4 proposal — and the
//! Fig. 4 device-local skyline algorithm.
//!
//! Layout per relation `R_i`:
//!
//! * spatial coordinates stored **inline** per row (locations are rarely
//!   shared, so factoring them out would not save space);
//! * each non-spatial attribute ID-encoded against a **sorted**
//!   [`AttributeDomain`] (byte IDs when the domain fits in 256 values);
//! * the minimum bounding rectangle kept as four constants for the O(1)
//!   `mindist` early exit;
//! * rows sorted ascending on the ID of the attribute with the most
//!   distinct values (the paper's SFS-inspired presort). We additionally
//!   break ties by the sum of all IDs so that a dominating row is *always*
//!   scanned before every row it dominates — this makes the scan exact even
//!   under the full dominance test (the paper's strict test does not need
//!   it, but costs nothing).
//!
//! The Fig. 4 query pipeline: MBR miss check → filter-dominates-domain-minima
//! check (skip the whole relation in O(n) attribute comparisons) → ID-based
//! sorted scan with inline spatial filtering → post-scan filter application
//! and best-VDR candidate pick.

use std::sync::Mutex;

use skyline_core::region::{Mbr, Point};
use skyline_core::vdr::{select_filter, FilterTuple};
use skyline_core::{kernel_for, strict_kernel_for, DomKernel, DominanceTest, Tuple};

use crate::domain_index::{AttributeDomain, IdArray};
use crate::traits::{
    DeviceRelation, LocalQuery, LocalSkylineOutcome, LocalStats, SkipCause, StorageModel,
};

/// One memoized window scan: the surviving row indices plus the exact
/// [`LocalStats`] the scan accumulated, replayed verbatim on every hit so
/// cached and fresh evaluations are indistinguishable to any caller
/// (including cost models that turn stats into simulated CPU time).
#[derive(Debug, Clone)]
struct CachedScan {
    window: Vec<usize>,
    stats: LocalStats,
}

/// Per-relation scan memo for *unbounded* regions, one slot per dominance
/// test. The Fig. 4 window depends only on (region, dominance) — filters are
/// applied after the scan — so with an infinite radius the window is a pure
/// function of the dominance test and can be reused across every repeated
/// `Q_ds` evaluation (`run_all_origins` asks each device the same unbounded
/// scan once per origin × strategy). Finite regions bypass the cache.
#[derive(Debug, Default)]
struct WindowCache {
    slots: [Option<CachedScan>; 2],
}

fn cache_slot(test: DominanceTest) -> usize {
    match test {
        DominanceTest::Full => 0,
        DominanceTest::PaperStrict => 1,
    }
}

/// A local relation in the paper's hybrid storage model.
///
/// ```
/// use device_storage::{DeviceRelation, HybridRelation, LocalQuery};
/// use skyline_core::{QueryRegion, Tuple};
///
/// let rel = HybridRelation::new(vec![
///     Tuple::new(0.0, 0.0, vec![20.0, 7.0]),
///     Tuple::new(1.0, 0.0, vec![40.0, 5.0]),
///     Tuple::new(2.0, 0.0, vec![80.0, 7.0]), // dominated by the first
/// ]);
/// let out = rel.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
/// assert_eq!(out.skyline.len(), 2);
/// assert_eq!(rel.lower_bounds().unwrap(), vec![20.0, 5.0]); // O(1) domain minima
/// ```
#[derive(Debug)]
pub struct HybridRelation {
    /// Site locations in row (sorted) order.
    locs: Vec<Point>,
    /// One packed ID column per attribute, row order.
    columns: Vec<IdArray>,
    /// Sorted distinct values per attribute.
    domains: Vec<AttributeDomain>,
    /// MBR of all sites (the `x/y min/max` constants).
    mbr: Mbr,
    /// Attribute whose ID the rows are sorted on.
    sort_attr: usize,
    rows: usize,
    dim: usize,
    /// Row-major scan arena: every row's attribute IDs widened to `f64`
    /// (u32 → f64 is exact), with the columns permuted so the sorted
    /// attribute sits **last**. The Fig. 4 scan then runs the contiguous
    /// [`TupleBlock`](skyline_core::TupleBlock)-style kernels over plain
    /// slices — full dominance over the whole row, the paper's strict test
    /// over the first `dim - 1` entries — instead of dispatching on the
    /// packed column width per comparison. IDs compare exactly like the
    /// packed integers, so results are bit-identical to [`Self::id_dominates`].
    arena: Vec<f64>,
    /// Memoized unbounded-region windows (see [`WindowCache`]). Interior
    /// mutability keeps [`DeviceRelation::local_skyline`]'s `&self`
    /// signature; the mutex is uncontended (relations are per-device).
    cache: Mutex<WindowCache>,
}

impl Clone for HybridRelation {
    fn clone(&self) -> Self {
        HybridRelation {
            locs: self.locs.clone(),
            columns: self.columns.clone(),
            domains: self.domains.clone(),
            mbr: self.mbr,
            sort_attr: self.sort_attr,
            rows: self.rows,
            dim: self.dim,
            arena: self.arena.clone(),
            // The memo is derived state; a clone starts cold and re-earns
            // identical entries on first use.
            cache: Mutex::new(WindowCache::default()),
        }
    }
}

impl From<&[Tuple]> for HybridRelation {
    /// Builds hybrid storage from a set of tuples, reading them in place:
    /// the only per-row state is one entry in a flat ID matrix.
    fn from(tuples: &[Tuple]) -> Self {
        let dim = tuples.first().map_or(0, Tuple::dim);
        assert!(tuples.iter().all(|t| t.dim() == dim), "mixed dimensionality in relation");
        let rows = tuples.len();
        assert!(u32::try_from(rows).is_ok(), "row numbers are kept as u32, like the IDs");

        // One sort per attribute yields its domain and, in the same walk,
        // every row's ID: `ids[r * dim + j]`, input row order.
        let mut ids = vec![0u32; rows * dim];
        let mut keyed = Vec::with_capacity(rows);
        let domains: Vec<AttributeDomain> = (0..dim)
            .map(|j| {
                let column = tuples.iter().map(|t| t.attrs[j]);
                AttributeDomain::encode(column, &mut keyed, |r, id| ids[r * dim + j] = id)
            })
            .collect();

        // "We choose the attribute with the largest number of distinct
        // values as the attribute to be sorted on."
        let sort_attr = (0..dim).max_by_key(|&j| domains[j].len()).unwrap_or(0);

        // Row order: ascending (sort ID, Σ IDs, input row). The keys are
        // computed once, and the input row makes them distinct.
        let mut order: Vec<(u32, u64, u32)> = (0..rows)
            .map(|r| {
                let row = &ids[r * dim..(r + 1) * dim];
                let primary = row.get(sort_attr).copied().unwrap_or(0);
                (primary, row.iter().map(|&v| u64::from(v)).sum(), r as u32)
            })
            .collect();
        order.sort_unstable();

        let locs: Vec<Point> =
            order.iter().map(|&(_, _, r)| tuples[r as usize].location()).collect();
        let mut column: Vec<u32> = Vec::with_capacity(rows);
        let columns: Vec<IdArray> = (0..dim)
            .map(|j| {
                column.clear();
                column.extend(order.iter().map(|&(_, _, r)| ids[r as usize * dim + j]));
                IdArray::pack(&column, domains[j].len())
            })
            .collect();
        let mbr = Mbr::of_points(locs.iter().copied());

        // Scan arena: non-sorted attributes first, the sorted attribute
        // last, so the strict test is a prefix comparison.
        let perm: Vec<usize> = (0..dim)
            .filter(|&j| j != sort_attr)
            .chain(std::iter::once(sort_attr))
            .take(dim)
            .collect();
        let mut arena = Vec::with_capacity(rows * dim);
        for &(_, _, r) in &order {
            let row = &ids[r as usize * dim..(r as usize + 1) * dim];
            arena.extend(perm.iter().map(|&j| f64::from(row[j])));
        }

        HybridRelation {
            locs,
            columns,
            domains,
            mbr,
            sort_attr,
            rows,
            dim,
            arena,
            cache: Mutex::new(WindowCache::default()),
        }
    }
}

impl HybridRelation {
    /// Builds hybrid storage from a set of tuples (see the `From<&[Tuple]>`
    /// impl; the build never needs to own its input).
    pub fn new(tuples: Vec<Tuple>) -> Self {
        Self::from(tuples.as_slice())
    }

    /// Which attribute the rows are sorted on.
    pub fn sort_attribute(&self) -> usize {
        self.sort_attr
    }

    /// The sorted domain of attribute `j`.
    pub fn domain(&self, j: usize) -> &AttributeDomain {
        &self.domains[j]
    }

    /// IDs of row `r` collected into a fresh vector (diagnostics/tests).
    pub fn row_ids(&self, r: usize) -> Vec<u32> {
        self.columns.iter().map(|c| c.get(r)).collect()
    }

    /// Materializes row `r` back into value space.
    fn materialize(&self, r: usize) -> Tuple {
        let attrs = self
            .columns
            .iter()
            .zip(&self.domains)
            .map(|(col, dom)| dom.value_of(col.get(r)))
            .collect();
        Tuple::new(self.locs[r].x, self.locs[r].y, attrs)
    }

    /// Materializes row `r`'s attribute values into `out` (reused scratch).
    fn attrs_into(&self, r: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.columns
                .iter()
                .zip(&self.domains)
                .map(|(col, dom)| dom.value_of(col.get(r))),
        );
    }

    /// The scan kernel and comparison width for a dominance test: full
    /// dominance runs over the whole permuted row; the paper's strict test
    /// skips the sorted attribute, i.e. compares the `dim - 1` prefix (a
    /// 1-attribute relation falls back to a strict test on the sorted
    /// attribute itself, exactly as [`Self::id_dominates`] does).
    fn scan_kernel(&self, test: DominanceTest) -> (DomKernel, usize) {
        match test {
            DominanceTest::Full => (kernel_for(self.dim), self.dim),
            DominanceTest::PaperStrict if self.dim == 1 => (strict_kernel_for(1), 1),
            DominanceTest::PaperStrict => (strict_kernel_for(self.dim - 1), self.dim - 1),
        }
    }

    /// The Fig. 4 window scan over the presorted arena: returns the
    /// surviving row indices and the stats the scan accumulated.
    fn scan_window(&self, region: &skyline_core::QueryRegion, test: DominanceTest) -> CachedScan {
        let mut stats = LocalStats::default();
        let unbounded = region.radius.is_infinite();
        let r2 = region.radius * region.radius;
        let center = region.center;
        let dim = self.dim;
        let (kernel, width) = if dim > 0 { self.scan_kernel(test) } else { (kernel_for(0), 0) };
        let mut window: Vec<usize> = Vec::new();
        for row in 0..self.rows {
            stats.tuples_scanned += 1;
            if !unbounded && self.locs[row].dist2(center) > r2 {
                continue;
            }
            stats.in_range += 1;
            let cand = &self.arena[row * dim..row * dim + width];
            let mut dominated = false;
            for &w in &window {
                stats.id_comparisons += 1;
                if kernel(&self.arena[w * dim..w * dim + width], cand) {
                    dominated = true;
                    break;
                }
            }
            if !dominated {
                window.push(row);
            }
        }
        CachedScan { window, stats }
    }

    /// The construction the one-pass build replaced — sort + dedup per
    /// domain, a binary search per value, a row sort that re-sums on every
    /// comparison — kept as the reference the build tests compare against.
    #[cfg(test)]
    fn build_reference(tuples: Vec<Tuple>) -> Self {
        let dim = tuples.first().map_or(0, Tuple::dim);
        assert!(tuples.iter().all(|t| t.dim() == dim), "mixed dimensionality in relation");
        let rows = tuples.len();

        let domains: Vec<AttributeDomain> = (0..dim)
            .map(|j| AttributeDomain::build(tuples.iter().map(|t| t.attrs[j])))
            .collect();

        // Raw (unsorted) id matrix, row-major.
        let raw_ids: Vec<Vec<u32>> = tuples
            .iter()
            .map(|t| (0..dim).map(|j| domains[j].id_of(t.attrs[j])).collect())
            .collect();

        // "We choose the attribute with the largest number of distinct
        // values as the attribute to be sorted on."
        let sort_attr = (0..dim).max_by_key(|&j| domains[j].len()).unwrap_or(0);

        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by_key(|&r| {
            let primary = if dim > 0 { raw_ids[r][sort_attr] } else { 0 };
            let sum: u64 = raw_ids[r].iter().map(|&v| u64::from(v)).sum();
            (primary, sum, r)
        });

        let locs: Vec<Point> = order.iter().map(|&r| tuples[r].location()).collect();
        let columns: Vec<IdArray> = (0..dim)
            .map(|j| {
                let ids: Vec<u32> = order.iter().map(|&r| raw_ids[r][j]).collect();
                IdArray::pack(&ids, domains[j].len())
            })
            .collect();
        let mbr = Mbr::of_points(locs.iter().copied());

        // Scan arena: non-sorted attributes first, the sorted attribute
        // last, so the strict test is a prefix comparison.
        let perm: Vec<usize> = (0..dim)
            .filter(|&j| j != sort_attr)
            .chain(std::iter::once(sort_attr))
            .take(dim)
            .collect();
        let mut arena = Vec::with_capacity(rows * dim);
        for r in 0..rows {
            for &j in &perm {
                arena.push(f64::from(columns[j].get(r)));
            }
        }

        HybridRelation {
            locs,
            columns,
            domains,
            mbr,
            sort_attr,
            rows,
            dim,
            arena,
            cache: Mutex::new(WindowCache::default()),
        }
    }

    /// `a` dominates `b` in ID space under the given test. IDs are rank
    /// positions in sorted domains, so ID dominance ⟺ value dominance.
    /// The production scan runs the equivalent arena kernels; this per-pair
    /// form is kept as the reference the tests compare against.
    #[cfg(test)]
    #[inline]
    fn id_dominates(&self, a: usize, b: usize, test: DominanceTest) -> bool {
        match test {
            DominanceTest::Full => {
                let mut strict = false;
                for col in &self.columns {
                    let (ia, ib) = (col.get(a), col.get(b));
                    if ia > ib {
                        return false;
                    }
                    if ia < ib {
                        strict = true;
                    }
                }
                strict
            }
            // Fig. 4: skip the sorted attribute, require strict `<` on the
            // rest. Sound because the scan guarantees a.id_sort <= b.id_sort.
            DominanceTest::PaperStrict => {
                for (j, col) in self.columns.iter().enumerate() {
                    if j == self.sort_attr {
                        continue;
                    }
                    if col.get(a) >= col.get(b) {
                        return false;
                    }
                }
                // A 1-attribute relation has no "rest": fall back to a
                // strict comparison on the sorted attribute itself.
                if self.dim == 1 {
                    return self.columns[0].get(a) < self.columns[0].get(b);
                }
                true
            }
        }
    }
}

impl DeviceRelation for HybridRelation {
    fn model(&self) -> StorageModel {
        StorageModel::Hybrid
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn tuple(&self, i: usize) -> Tuple {
        self.materialize(i)
    }

    fn location(&self, i: usize) -> Point {
        self.locs[i]
    }

    fn mbr(&self) -> Option<Mbr> {
        Some(self.mbr)
    }

    fn lower_bounds(&self) -> Option<Vec<f64>> {
        if self.rows == 0 {
            return None;
        }
        Some(self.domains.iter().map(|d| d.min().expect("non-empty")).collect())
    }

    fn upper_bounds(&self) -> Option<skyline_core::vdr::UpperBounds> {
        if self.rows == 0 {
            return None;
        }
        Some(skyline_core::vdr::UpperBounds::new(
            self.domains.iter().map(|d| d.max().expect("non-empty")).collect(),
        ))
    }

    fn storage_bytes(&self) -> usize {
        // The paper's storage model: packed IDs + domains + locations. The
        // scan arena is a derived acceleration structure (recomputable from
        // the columns) and is deliberately excluded, like any other cache.
        let locs = self.locs.len() * 16;
        let ids: usize = self.columns.iter().map(IdArray::storage_bytes).sum();
        let domains: usize = self.domains.iter().map(AttributeDomain::storage_bytes).sum();
        locs + ids + domains + 4 * 8 // + the MBR constants
    }

    fn local_skyline(&self, query: &LocalQuery) -> LocalSkylineOutcome {
        let mut stats = LocalStats::default();

        // Guard 1: MBR vs query region (O(1)).
        if query.region.misses(&self.mbr) {
            return LocalSkylineOutcome::skipped(SkipCause::SpatialMiss);
        }

        // Guard 2: does any filter dominate the virtual best corner? (O(n)
        // attribute comparisons per filter thanks to the sorted domains.)
        if query.has_filters() {
            if let Some(lower) = self.lower_bounds() {
                stats.value_comparisons += self.dim as u64;
                if query.skips_relation(&lower) {
                    return LocalSkylineOutcome::skipped(SkipCause::FilterDominance);
                }
            }
        }

        // ID-based SFS scan in the presorted row order, over the contiguous
        // kernel arena. Unbounded regions (the static `Q_ds` evaluations)
        // memoize the window per dominance test: the scan ignores filters,
        // so repeated queries replay the stored indices — and the stored
        // stats, byte for byte — instead of rescanning.
        let scan = if query.region.radius.is_infinite() {
            let slot = cache_slot(query.dominance);
            let mut cache = self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match &cache.slots[slot] {
                Some(hit) => hit.clone(),
                None => {
                    let fresh = self.scan_window(&query.region, query.dominance);
                    cache.slots[slot] = Some(fresh.clone());
                    fresh
                }
            }
        } else {
            self.scan_window(&query.region, query.dominance)
        };
        let CachedScan { window, stats: scan_stats } = scan;
        stats.tuples_scanned += scan_stats.tuples_scanned;
        stats.in_range += scan_stats.in_range;
        stats.value_comparisons += scan_stats.value_comparisons;
        stats.id_comparisons += scan_stats.id_comparisons;
        stats.pointer_hops += scan_stats.pointer_hops;

        // Filter *before* materializing: eliminated rows never allocate a
        // tuple. The comparison count is unchanged — one per unreduced row.
        let unreduced_len = window.len();
        let reduced: Vec<Tuple> = if query.has_filters() {
            let mut scratch: Vec<f64> = Vec::with_capacity(self.dim);
            let mut out = Vec::with_capacity(unreduced_len);
            for &r in &window {
                stats.value_comparisons += 1;
                self.attrs_into(r, &mut scratch);
                if !query.eliminates(&scratch) {
                    out.push(Tuple::new(self.locs[r].x, self.locs[r].y, scratch.clone()));
                }
            }
            out
        } else {
            window.iter().map(|&r| self.materialize(r)).collect()
        };
        let filter_candidate: Option<FilterTuple> =
            query.vdr_bounds.as_ref().and_then(|b| select_filter(&reduced, b));

        LocalSkylineOutcome { skyline: reduced, unreduced_len, skip: None, filter_candidate, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::algo::{self, Algorithm};
    use skyline_core::region::QueryRegion;
    use skyline_core::vdr::{FilterTest, UpperBounds};
    use skyline_core::SkylineMerger;

    fn table2() -> Vec<Tuple> {
        vec![
            Tuple::new(0.0, 0.0, vec![20.0, 7.0]),
            Tuple::new(1.0, 0.0, vec![40.0, 5.0]),
            Tuple::new(2.0, 0.0, vec![80.0, 7.0]),
            Tuple::new(3.0, 0.0, vec![80.0, 4.0]),
            Tuple::new(4.0, 0.0, vec![100.0, 7.0]),
            Tuple::new(5.0, 0.0, vec![100.0, 3.0]),
        ]
    }

    fn sorted_attrs(mut v: Vec<Tuple>) -> Vec<Vec<f64>> {
        v.sort_by(|a, b| crate::total_lex(&a.attrs, &b.attrs));
        v.into_iter().map(|t| t.attrs).collect()
    }

    #[test]
    fn sort_attribute_has_most_distinct_values() {
        // price has 4 distinct values, rating has 4 as well → tie keeps
        // the first; add a tuple to break the tie.
        let mut data = table2();
        data.push(Tuple::new(6.0, 0.0, vec![120.0, 7.0])); // price now 5 distinct
        let h = HybridRelation::new(data);
        assert_eq!(h.sort_attribute(), 0);
        assert_eq!(h.domain(0).len(), 5);
        assert_eq!(h.domain(1).len(), 4);
    }

    #[test]
    fn rows_are_sorted_by_sort_attribute_id() {
        let h = HybridRelation::new(table2());
        let col = &h.columns[h.sort_attr];
        for r in 1..h.rows {
            assert!(col.get(r - 1) <= col.get(r));
        }
    }

    #[test]
    fn materialization_round_trips() {
        let data = table2();
        let h = HybridRelation::new(data.clone());
        let got: Vec<Vec<f64>> = sorted_attrs((0..h.len()).map(|r| h.tuple(r)).collect());
        let expect = sorted_attrs(data);
        assert_eq!(got, expect);
    }

    #[test]
    fn local_skyline_matches_centralized_table2() {
        let h = HybridRelation::new(table2());
        let out = h.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
        // Paper: skyline of R_1 is {h11, h12, h14, h16}.
        let got = sorted_attrs(out.skyline);
        assert_eq!(got, vec![vec![20.0, 7.0], vec![40.0, 5.0], vec![80.0, 4.0], vec![100.0, 3.0]]);
    }

    #[test]
    fn paper_strict_mode_yields_superset() {
        // Construct ties the strict test misses: (1, 2) dominates (1, 3)
        // only through a tie on the sorted attribute.
        let data = vec![
            Tuple::new(0.0, 0.0, vec![1.0, 2.0]),
            Tuple::new(1.0, 0.0, vec![1.0, 3.0]),
            Tuple::new(2.0, 0.0, vec![2.0, 2.5]),
        ];
        let h = HybridRelation::new(data);
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::Full;
        let full = h.local_skyline(&q).skyline.len();
        q.dominance = DominanceTest::PaperStrict;
        let strict = h.local_skyline(&q).skyline.len();
        assert_eq!(full, 1);
        assert!(strict >= full, "strict test may keep dominated ties");
        // Every full-mode member must also appear in strict mode.
        assert!(strict >= 1);
    }

    #[test]
    fn strict_superset_still_contains_true_skyline() {
        let data: Vec<Tuple> = (0..200)
            .map(|i| {
                let a = ((i * 37) % 20) as f64;
                let b = ((i * 91) % 20) as f64;
                Tuple::new(i as f64, 0.0, vec![a, b])
            })
            .collect();
        let h = HybridRelation::new(data.clone());
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::PaperStrict;
        let strict = h.local_skyline(&q).skyline;

        let true_sky = algo::materialize(&data, &Algorithm::Bnl.skyline_indices(&data));
        for t in &true_sky {
            assert!(
                strict.iter().any(|s| s.attrs == t.attrs),
                "strict scan lost true skyline member {:?}",
                t.attrs
            );
        }
        // And a merger fixes the superset up to the exact skyline.
        let merged = SkylineMerger::with_seed(strict).into_result();
        assert_eq!(sorted_attrs(merged), sorted_attrs(true_sky));
    }

    #[test]
    fn mbr_miss_skips_everything() {
        let h = HybridRelation::new(table2());
        let q = LocalQuery::plain(QueryRegion::new(Point::new(1000.0, 1000.0), 5.0));
        let out = h.local_skyline(&q);
        assert_eq!(out.skip, Some(SkipCause::SpatialMiss));
        assert_eq!(out.stats.tuples_scanned, 0);
    }

    #[test]
    fn dominating_filter_skips_relation() {
        let h = HybridRelation::new(table2());
        let bounds = UpperBounds::new(vec![200.0, 10.0]);
        let q = LocalQuery {
            filter: Some(FilterTuple::new(vec![10.0, 1.0], &bounds)),
            filter_test: FilterTest::StrictAll,
            ..LocalQuery::plain(QueryRegion::unbounded())
        };
        let out = h.local_skyline(&q);
        assert_eq!(
            out.skip,
            Some(SkipCause::FilterDominance),
            "filter (10,1) beats domain minima (20,3)"
        );
    }

    #[test]
    fn non_dominating_filter_does_not_skip() {
        let h = HybridRelation::new(table2());
        let bounds = UpperBounds::new(vec![200.0, 10.0]);
        let q = LocalQuery {
            filter: Some(FilterTuple::new(vec![60.0, 3.0], &bounds)), // h21
            filter_test: FilterTest::StrictAll,
            vdr_bounds: Some(bounds),
            ..LocalQuery::plain(QueryRegion::unbounded())
        };
        let out = h.local_skyline(&q);
        assert_eq!(out.skip, None);
        // h21 = (60, 3) strictly eliminates h14 = (80, 4) but not h16 =
        // (100, 3) (rating ties) under the paper's strict test.
        assert_eq!(out.unreduced_len, 4);
        assert_eq!(out.skyline.len(), 3);
    }

    #[test]
    fn scan_uses_id_comparisons_not_values() {
        let h = HybridRelation::new(table2());
        let out = h.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
        assert!(out.stats.id_comparisons > 0);
        assert_eq!(out.stats.value_comparisons, 0);
    }

    #[test]
    fn byte_ids_for_small_domains() {
        let h = HybridRelation::new(table2());
        for c in &h.columns {
            assert_eq!(c.id_width(), 1, "100-value domains fit byte IDs");
        }
    }

    #[test]
    fn hybrid_storage_is_smaller_than_flat_when_domains_shared() {
        // 1000 rows, only 10 distinct values per attribute.
        let data: Vec<Tuple> = (0..1000)
            .map(|i| Tuple::new(i as f64, 0.0, vec![(i % 10) as f64, ((i / 10) % 10) as f64]))
            .collect();
        let flat = crate::FlatRelation::new(data.clone());
        let hybrid = HybridRelation::new(data);
        assert!(hybrid.storage_bytes() < flat.storage_bytes());
    }

    #[test]
    fn bounds_accessors() {
        let h = HybridRelation::new(table2());
        assert_eq!(h.lower_bounds().unwrap(), vec![20.0, 3.0]);
        assert_eq!(h.upper_bounds().unwrap().0, vec![100.0, 7.0]);
        let empty = HybridRelation::new(vec![]);
        assert!(empty.lower_bounds().is_none());
        assert!(empty.upper_bounds().is_none());
    }

    #[test]
    fn spatial_filter_inside_scan() {
        let data =
            vec![Tuple::new(0.0, 0.0, vec![5.0, 5.0]), Tuple::new(100.0, 0.0, vec![1.0, 1.0])];
        let h = HybridRelation::new(data);
        let q = LocalQuery::plain(QueryRegion::new(Point::new(0.0, 0.0), 10.0));
        let out = h.local_skyline(&q);
        assert_eq!(out.skyline.len(), 1);
        assert_eq!(out.skyline[0].attrs, vec![5.0, 5.0]);
        assert_eq!(out.stats.in_range, 1);
    }

    #[test]
    fn row_ids_are_consistent_with_domains() {
        let h = HybridRelation::new(table2());
        for r in 0..h.len() {
            let t = h.tuple(r);
            for (j, id) in h.row_ids(r).into_iter().enumerate() {
                assert_eq!(h.domain(j).value_of(id), t.attrs[j]);
            }
        }
    }

    /// Pseudo-random tuples with controllable duplication (ties exercise
    /// the strict/full divergence).
    fn mixed_data(n: usize, dim: usize, modulo: u64, seed: u64) -> Vec<Tuple> {
        (0..n as u64)
            .map(|i| {
                let mut h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
                let attrs = (0..dim)
                    .map(|_| {
                        h ^= h >> 13;
                        h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
                        (h % modulo) as f64
                    })
                    .collect();
                Tuple::new((i % 50) as f64, (i / 50) as f64, attrs)
            })
            .collect()
    }

    #[test]
    fn arena_kernel_scan_matches_id_dominates_reference() {
        // The production scan runs contiguous f64 kernels over widened IDs;
        // the reference pairwise test dispatches on the packed columns.
        // They must agree pair-for-pair and window-for-window.
        for dim in 1..=5 {
            for test in [DominanceTest::Full, DominanceTest::PaperStrict] {
                let h = HybridRelation::new(mixed_data(300, dim, 7, dim as u64));
                let (kernel, width) = h.scan_kernel(test);
                for a in 0..h.len() {
                    for b in 0..h.len() {
                        let via_kernel = kernel(
                            &h.arena[a * dim..a * dim + width],
                            &h.arena[b * dim..b * dim + width],
                        );
                        // The strict test is only sound when the scan order
                        // guarantees a's sort ID ≤ b's; compare all pairs
                        // anyway — the predicates must agree unconditionally.
                        assert_eq!(
                            via_kernel,
                            h.id_dominates(a, b, test),
                            "dim {dim} {test:?} rows {a},{b}"
                        );
                    }
                }
            }
        }
    }

    /// Everything the build decides, compared field by field. Domain values
    /// go by bit pattern: `==` would equate `-0.0` with `+0.0` and reject
    /// NaN against itself.
    fn assert_same_build(got: &HybridRelation, want: &HybridRelation, what: &str) {
        assert_eq!((got.rows, got.dim), (want.rows, want.dim), "{what}: shape");
        assert_eq!(got.sort_attribute(), want.sort_attribute(), "{what}: sort attribute");
        for j in 0..want.dim {
            let bits = |h: &HybridRelation| -> Vec<u64> {
                (0..h.domain(j).len())
                    .map(|i| h.domain(j).value_of(i as u32).to_bits())
                    .collect()
            };
            assert_eq!(bits(got), bits(want), "{what}: domain {j}");
        }
        for r in 0..want.rows {
            assert_eq!(got.row_ids(r), want.row_ids(r), "{what}: ids of row {r}");
        }
        assert_eq!(got.columns, want.columns, "{what}: packed columns (incl. width)");
        assert_eq!(got.locs, want.locs, "{what}: locations");
        assert_eq!(got.arena, want.arena, "{what}: arena");
        assert_eq!(got.mbr, want.mbr, "{what}: mbr");
        assert_eq!(got.storage_bytes(), want.storage_bytes(), "{what}: storage bytes");
    }

    /// Checks the one-pass build, from a slice and from a vector, against
    /// the retained reference construction.
    fn check_build(data: Vec<Tuple>, what: &str) {
        let want = HybridRelation::build_reference(data.clone());
        assert_same_build(&HybridRelation::from(data.as_slice()), &want, what);
        assert_same_build(&HybridRelation::new(data), &want, what);
    }

    #[test]
    fn build_matches_reference_on_empty_single_and_duplicate_rows() {
        check_build(Vec::new(), "no rows");
        for dim in 0..=8 {
            let row = |i: usize| Tuple::new(i as f64, 1.0, vec![4.0; dim]);
            check_build(vec![row(0)], &format!("one row, d={dim}"));
            check_build((0..40).map(row).collect(), &format!("identical rows, d={dim}"));
        }
        for dim in 1..=8 {
            check_build(mixed_data(500, dim, 3, 0xD0_u64 + dim as u64), &format!("mod 3, d={dim}"));
        }
    }

    #[test]
    fn build_matches_reference_across_id_widths() {
        // 256 / 257 and 65 536 / 65 537 distinct values sit on either side
        // of the u8→u16 and u16→u32 column widths; the second attribute
        // stays narrow so one relation mixes widths.
        for distinct in [256usize, 257, 65_536, 65_537] {
            let data: Vec<Tuple> = (0..distinct + 3)
                .map(|i| {
                    let a = ((i * 7919) % distinct) as f64;
                    Tuple::new(i as f64, 0.0, vec![a, (i % 5) as f64])
                })
                .collect();
            let h = HybridRelation::from(data.as_slice());
            assert_eq!(h.domain(0).len(), distinct);
            let width = if distinct <= 256 {
                1
            } else if distinct <= 65_536 {
                2
            } else {
                4
            };
            assert_eq!((h.columns[0].id_width(), h.columns[1].id_width()), (width, 1));
            check_build(data, &format!("{distinct} distinct"));
        }
    }

    #[test]
    fn signed_zeros_and_nans_keep_their_own_ids() {
        let data = vec![
            Tuple::new(0.0, 0.0, vec![0.0, f64::NAN]),
            Tuple::new(1.0, 0.0, vec![-0.0, 1.0]),
            Tuple::new(2.0, 0.0, vec![0.0, f64::NAN]),
            Tuple::new(3.0, 0.0, vec![-1.0, f64::INFINITY]),
        ];
        let h = HybridRelation::from(data.as_slice());
        // -1.0 < -0.0 < +0.0 under total_cmp: three IDs, not two.
        assert_eq!(h.domain(0).len(), 3);
        assert!(h.domain(0).value_of(1).is_sign_negative() && h.domain(0).value_of(1) == 0.0);
        // NaN ranks after +∞ and is one value however often it occurs.
        assert_eq!(h.domain(1).len(), 3);
        assert!(h.domain(1).value_of(2).is_nan());
        check_build(data, "signed zeros and NaNs");
    }

    /// Attribute values for the build property test: a small palette (heavy
    /// duplication) that includes both zeros, both infinities and NaN.
    const PALETTE: [f64; 10] =
        [-0.0, 0.0, 1.0, -1.0, 2.5, 1e-300, -1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        #[test]
        fn build_matches_reference(
            dim in 1usize..=8,
            wide in proptest::prelude::any::<bool>(),
            codes in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0u16..2000, 8),
                0..120,
            ),
        ) {
            // A `wide` case draws from 2 000 values, the others from the
            // palette, so ties, special values and long domains all occur.
            let data: Vec<Tuple> = codes
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let attrs = row[..dim]
                        .iter()
                        .map(|&c| if wide { f64::from(c) } else { PALETTE[c as usize % PALETTE.len()] })
                        .collect();
                    Tuple::new((i % 9) as f64, (i / 9) as f64, attrs)
                })
                .collect();
            check_build(data, "property");
        }
    }

    #[test]
    fn unbounded_window_cache_replays_identical_results_and_stats() {
        let h = HybridRelation::new(mixed_data(500, 3, 11, 0xCAFE));
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        for test in [DominanceTest::Full, DominanceTest::PaperStrict] {
            q.dominance = test;
            let first = h.local_skyline(&q);
            let second = h.local_skyline(&q);
            assert_eq!(sorted_attrs(first.skyline.clone()), sorted_attrs(second.skyline));
            assert_eq!(first.unreduced_len, second.unreduced_len);
            assert_eq!(first.stats, second.stats, "cached stats must replay exactly");
        }
    }

    #[test]
    fn cache_does_not_leak_across_dominance_tests_or_regions() {
        let h = HybridRelation::new(mixed_data(400, 2, 5, 7));
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::Full;
        let full = h.local_skyline(&q).skyline.len();
        q.dominance = DominanceTest::PaperStrict;
        let strict = h.local_skyline(&q).skyline.len();
        assert!(strict >= full, "strict keeps dominated ties");

        // A finite region after the unbounded queries must rescan, not
        // replay: only near sites qualify.
        let finite = h.local_skyline(&LocalQuery {
            dominance: DominanceTest::Full,
            ..LocalQuery::plain(QueryRegion::new(Point::new(0.0, 0.0), 3.0))
        });
        assert!(finite.stats.in_range < h.len() as u64);
        for t in &finite.skyline {
            assert!(t.location().dist(Point::new(0.0, 0.0)) <= 3.0);
        }
    }

    #[test]
    fn cloned_relation_answers_identically_with_cold_cache() {
        let h = HybridRelation::new(mixed_data(200, 4, 9, 3));
        let q = LocalQuery::plain(QueryRegion::unbounded());
        let warm = h.local_skyline(&q); // warms h's cache
        let c = h.clone();
        let cold = c.local_skyline(&q);
        assert_eq!(sorted_attrs(warm.skyline), sorted_attrs(cold.skyline));
        assert_eq!(warm.stats, cold.stats);
    }

    #[test]
    fn filtered_queries_share_the_cached_window() {
        // Filters are applied after the scan, so a filtered query both uses
        // and seeds the unbounded window cache.
        let h = HybridRelation::new(mixed_data(300, 2, 6, 21));
        let bounds = UpperBounds::new(vec![10.0, 10.0]);
        let plain = LocalQuery::plain(QueryRegion::unbounded());
        let filtered = LocalQuery {
            filter: Some(FilterTuple::new(vec![1.0, 1.0], &bounds)),
            filter_test: FilterTest::StrictAll,
            ..LocalQuery::plain(QueryRegion::unbounded())
        };
        let a = h.local_skyline(&filtered);
        let b = h.local_skyline(&plain);
        assert_eq!(a.unreduced_len, b.unreduced_len, "same window under the filter");
        assert!(a.skyline.len() <= b.skyline.len());
        assert_eq!(a.stats.id_comparisons, b.stats.id_comparisons);
        assert!(a.stats.value_comparisons > b.stats.value_comparisons);
    }

    #[test]
    fn one_dimensional_relation_paper_strict() {
        let data = vec![
            Tuple::new(0.0, 0.0, vec![3.0]),
            Tuple::new(1.0, 0.0, vec![1.0]),
            Tuple::new(2.0, 0.0, vec![1.0]),
        ];
        let h = HybridRelation::new(data);
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::PaperStrict;
        let out = h.local_skyline(&q);
        // Both 1.0-tuples survive (ties), 3.0 is dominated.
        assert_eq!(out.skyline.len(), 2);
    }
}
