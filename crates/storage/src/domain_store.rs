//! Domain storage [Ammann, Hanrahan, Krishnamurthy, IEEE COMPCON 1985].
//!
//! Every attribute value lives once in a per-attribute domain array and each
//! tuple stores a *pointer* (index) to its value. Unlike the paper's hybrid
//! model, the domain arrays are kept in **insertion order** — the scheme
//! predates the sorted-domain idea — so pointer comparison says nothing
//! about value order and every dominance test must dereference both
//! pointers. Section 4.1 rejects this scheme because of exactly that extra
//! indirection; it is implemented here so the rejection is measurable
//! (the [`LocalStats::pointer_hops`](crate::traits::LocalStats) counter and
//! the `kind: storage` rows of `BENCH_core.json`).

use skyline_core::region::{Mbr, Point};
use skyline_core::vdr::{select_filter, FilterTuple};
use skyline_core::Tuple;

use crate::traits::{
    DeviceRelation, LocalQuery, LocalSkylineOutcome, LocalStats, SkipCause, StorageModel,
};

/// A local relation in domain storage.
#[derive(Debug, Clone)]
pub struct DomainRelation {
    locs: Vec<Point>,
    /// `pointers[j][row]` → index into `domains[j]`.
    pointers: Vec<Vec<u32>>,
    /// Distinct values per attribute, in first-seen (insertion) order.
    domains: Vec<Vec<f64>>,
    mbr: Mbr,
    rows: usize,
    dim: usize,
}

impl DomainRelation {
    /// Builds domain storage from a set of tuples.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let dim = tuples.first().map_or(0, Tuple::dim);
        assert!(tuples.iter().all(|t| t.dim() == dim), "mixed dimensionality in relation");
        let rows = tuples.len();
        let mut domains: Vec<Vec<f64>> = vec![Vec::new(); dim];
        let mut pointers: Vec<Vec<u32>> = vec![Vec::with_capacity(rows); dim];
        for t in &tuples {
            for j in 0..dim {
                let v = t.attrs[j];
                // Linear probe keeps insertion order; domains are small on
                // the devices this models.
                let idx = match domains[j].iter().position(|&d| d == v) {
                    Some(i) => i,
                    None => {
                        domains[j].push(v);
                        domains[j].len() - 1
                    }
                };
                pointers[j].push(idx as u32);
            }
        }
        let locs: Vec<Point> = tuples.iter().map(Tuple::location).collect();
        let mbr = Mbr::of_points(locs.iter().copied());
        DomainRelation { locs, pointers, domains, mbr, rows, dim }
    }

    /// Dereferences attribute `j` of `row`, charging one pointer hop.
    #[inline]
    fn value(&self, row: usize, j: usize, stats: &mut LocalStats) -> f64 {
        stats.pointer_hops += 1;
        self.domains[j][self.pointers[j][row] as usize]
    }

    /// Full dominance in value space, dereferencing on every comparison.
    fn dominates(&self, a: usize, b: usize, stats: &mut LocalStats) -> bool {
        let mut strict = false;
        for j in 0..self.dim {
            let (va, vb) = (self.value(a, j, stats), self.value(b, j, stats));
            if va > vb {
                return false;
            }
            if va < vb {
                strict = true;
            }
        }
        strict
    }
}

impl DeviceRelation for DomainRelation {
    fn model(&self) -> StorageModel {
        StorageModel::Domain
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn tuple(&self, i: usize) -> Tuple {
        let attrs = (0..self.dim).map(|j| self.domains[j][self.pointers[j][i] as usize]).collect();
        Tuple::new(self.locs[i].x, self.locs[i].y, attrs)
    }

    fn location(&self, i: usize) -> Point {
        self.locs[i]
    }

    fn mbr(&self) -> Option<Mbr> {
        Some(self.mbr)
    }

    /// Unsorted domains: the minimum needs a scan, so no O(1) bounds.
    fn lower_bounds(&self) -> Option<Vec<f64>> {
        None
    }

    fn upper_bounds(&self) -> Option<skyline_core::vdr::UpperBounds> {
        None
    }

    fn storage_bytes(&self) -> usize {
        let locs = self.locs.len() * 16;
        let ptrs: usize = self.pointers.iter().map(|p| p.len() * 4).sum();
        let doms: usize = self.domains.iter().map(|d| d.len() * 8).sum();
        locs + ptrs + doms
    }

    fn local_skyline(&self, query: &LocalQuery) -> LocalSkylineOutcome {
        let mut stats = LocalStats::default();
        if query.region.misses(&self.mbr) {
            return LocalSkylineOutcome::skipped(SkipCause::SpatialMiss);
        }
        let r2 = query.region.radius * query.region.radius;
        let center = query.region.center;

        // BNL with dereference-per-comparison.
        let mut window: Vec<usize> = Vec::new();
        for row in 0..self.rows {
            stats.tuples_scanned += 1;
            if !query.region.radius.is_infinite() && self.locs[row].dist2(center) > r2 {
                continue;
            }
            stats.in_range += 1;
            let mut dominated = false;
            let mut keep: Vec<usize> = Vec::with_capacity(window.len());
            for &w in &window {
                if dominated {
                    keep.push(w);
                    continue;
                }
                stats.value_comparisons += 1;
                if self.dominates(w, row, &mut stats) {
                    dominated = true;
                    keep.push(w);
                } else {
                    stats.value_comparisons += 1;
                    if !self.dominates(row, w, &mut stats) {
                        keep.push(w);
                    }
                }
            }
            window = keep;
            if !dominated {
                window.push(row);
            }
        }

        let unreduced: Vec<Tuple> = window.iter().map(|&r| self.tuple(r)).collect();
        let unreduced_len = unreduced.len();
        let reduced: Vec<Tuple> = if query.has_filters() {
            unreduced.into_iter().filter(|t| !query.eliminates(&t.attrs)).collect()
        } else {
            unreduced
        };
        let filter_candidate: Option<FilterTuple> =
            query.vdr_bounds.as_ref().and_then(|b| select_filter(&reduced, b));

        LocalSkylineOutcome { skyline: reduced, unreduced_len, skip: None, filter_candidate, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::region::QueryRegion;

    fn data() -> Vec<Tuple> {
        vec![
            Tuple::new(0.0, 0.0, vec![20.0, 7.0]),
            Tuple::new(1.0, 0.0, vec![40.0, 5.0]),
            Tuple::new(2.0, 0.0, vec![20.0, 7.0 + 0.0]), // shares both values with row 0
            Tuple::new(3.0, 0.0, vec![100.0, 3.0]),
        ]
    }

    #[test]
    fn values_are_shared_in_domains() {
        let d = DomainRelation::new(data());
        assert_eq!(d.domains[0].len(), 3, "20 stored once");
        assert_eq!(d.domains[1].len(), 3);
    }

    #[test]
    fn tuple_round_trip() {
        let src = data();
        let d = DomainRelation::new(src.clone());
        for (i, t) in src.iter().enumerate() {
            assert_eq!(&d.tuple(i).attrs, &t.attrs);
        }
    }

    #[test]
    fn skyline_matches_flat() {
        let src = data();
        let d = DomainRelation::new(src.clone());
        let f = crate::FlatRelation::new(src);
        let q = LocalQuery::plain(QueryRegion::unbounded());
        let mut a: Vec<Vec<f64>> =
            d.local_skyline(&q).skyline.into_iter().map(|t| t.attrs).collect();
        let mut b: Vec<Vec<f64>> =
            f.local_skyline(&q).skyline.into_iter().map(|t| t.attrs).collect();
        a.sort_by(|x, y| crate::total_lex(x, y));
        b.sort_by(|x, y| crate::total_lex(x, y));
        assert_eq!(a, b);
    }

    #[test]
    fn pointer_hops_are_charged() {
        let d = DomainRelation::new(data());
        let out = d.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
        assert!(out.stats.pointer_hops > 0, "every comparison dereferences");
    }

    #[test]
    fn no_constant_time_bounds() {
        let d = DomainRelation::new(data());
        assert!(d.lower_bounds().is_none());
        assert!(d.upper_bounds().is_none());
    }
}
