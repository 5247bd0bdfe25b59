//! Ring storage [PicoDBMS — Bobineau et al., VLDB 2000].
//!
//! All tuples sharing an attribute value are linked into a ring; exactly one
//! tuple in each ring holds the external pointer to the shared value.
//! Reading an attribute of an arbitrary tuple therefore walks the ring until
//! it reaches the holder — cheap storage, expensive access. Section 4.1
//! rejects the scheme for skyline processing ("we have to traverse the
//! internal pointer chain to reach the unique tuple with the external
//! pointer"); this implementation makes that traversal cost observable via
//! [`LocalStats::pointer_hops`](crate::traits::LocalStats).

use skyline_core::region::{Mbr, Point};
use skyline_core::vdr::{select_filter, FilterTuple};
use skyline_core::Tuple;

use crate::traits::{
    DeviceRelation, LocalQuery, LocalSkylineOutcome, LocalStats, SkipCause, StorageModel,
};

/// Per-attribute ring structure.
#[derive(Debug, Clone)]
struct Ring {
    /// `next[row]` — the next row in the same-value ring (cyclic).
    next: Vec<u32>,
    /// `holder_value[row]` — `Some(v)` only on the single ring member with
    /// the external pointer to the shared value `v`.
    holder_value: Vec<Option<f64>>,
    /// Count of distinct values (for storage accounting).
    distinct: usize,
}

/// A local relation in ring storage.
#[derive(Debug, Clone)]
pub struct RingRelation {
    locs: Vec<Point>,
    rings: Vec<Ring>,
    mbr: Mbr,
    rows: usize,
    dim: usize,
}

impl RingRelation {
    /// Builds ring storage from a set of tuples.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let dim = tuples.first().map_or(0, Tuple::dim);
        assert!(tuples.iter().all(|t| t.dim() == dim), "mixed dimensionality in relation");
        let rows = tuples.len();
        let mut rings = Vec::with_capacity(dim);
        for j in 0..dim {
            // Group rows by value, preserving encounter order.
            let mut groups: Vec<(f64, Vec<u32>)> = Vec::new();
            for (r, t) in tuples.iter().enumerate() {
                let v = t.attrs[j];
                match groups.iter_mut().find(|(gv, _)| *gv == v) {
                    Some((_, rows)) => rows.push(r as u32),
                    None => groups.push((v, vec![r as u32])),
                }
            }
            let mut next = vec![0u32; rows];
            let mut holder_value = vec![None; rows];
            for (v, members) in &groups {
                for (k, &r) in members.iter().enumerate() {
                    next[r as usize] = members[(k + 1) % members.len()];
                }
                // The first member holds the external value pointer.
                holder_value[members[0] as usize] = Some(*v);
            }
            rings.push(Ring { next, holder_value, distinct: groups.len() });
        }
        let locs: Vec<Point> = tuples.iter().map(Tuple::location).collect();
        let mbr = Mbr::of_points(locs.iter().copied());
        RingRelation { locs, rings, mbr, rows, dim }
    }

    /// Reads attribute `j` of `row` by walking the ring, charging one hop
    /// per link followed.
    #[inline]
    fn value(&self, row: usize, j: usize, stats: &mut LocalStats) -> f64 {
        let ring = &self.rings[j];
        let mut r = row;
        loop {
            if let Some(v) = ring.holder_value[r] {
                return v;
            }
            stats.pointer_hops += 1;
            r = ring.next[r] as usize;
            debug_assert_ne!(r, row, "ring without a value holder");
        }
    }

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

impl DeviceRelation for RingRelation {
    fn model(&self) -> StorageModel {
        StorageModel::Ring
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn tuple(&self, i: usize) -> Tuple {
        let mut throwaway = LocalStats::default();
        let attrs = (0..self.dim).map(|j| self.value(i, j, &mut throwaway)).collect();
        Tuple::new(self.locs[i].x, self.locs[i].y, attrs)
    }

    fn location(&self, i: usize) -> Point {
        self.locs[i]
    }

    fn mbr(&self) -> Option<Mbr> {
        Some(self.mbr)
    }

    fn lower_bounds(&self) -> Option<Vec<f64>> {
        None
    }

    fn upper_bounds(&self) -> Option<skyline_core::vdr::UpperBounds> {
        None
    }

    fn storage_bytes(&self) -> usize {
        let locs = self.locs.len() * 16;
        let links: usize = self.rings.iter().map(|r| r.next.len() * 4).sum();
        // One external pointer + one stored value per distinct value.
        let values: usize = self.rings.iter().map(|r| r.distinct * (8 + 4)).sum();
        locs + links + values
    }

    fn local_skyline(&self, query: &LocalQuery) -> LocalSkylineOutcome {
        let mut stats = LocalStats::default();
        if query.region.misses(&self.mbr) {
            return LocalSkylineOutcome::skipped(SkipCause::SpatialMiss);
        }
        let r2 = query.region.radius * query.region.radius;
        let center = query.region.center;

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
            Tuple::new(1.0, 0.0, vec![40.0, 7.0]),
            Tuple::new(2.0, 0.0, vec![20.0, 5.0]),
            Tuple::new(3.0, 0.0, vec![100.0, 3.0]),
        ]
    }

    #[test]
    fn rings_link_equal_values() {
        let r = RingRelation::new(data());
        // Attribute 0: rows {0, 2} share 20.0; ring of size 2.
        assert_eq!(r.rings[0].next[0], 2);
        assert_eq!(r.rings[0].next[2], 0);
        assert!(r.rings[0].holder_value[0].is_some());
        assert!(r.rings[0].holder_value[2].is_none());
    }

    #[test]
    fn value_walks_ring_and_charges_hops() {
        let r = RingRelation::new(data());
        let mut stats = LocalStats::default();
        // Row 2 is not the holder for attribute 0 → ≥ 1 hop.
        assert_eq!(r.value(2, 0, &mut stats), 20.0);
        assert!(stats.pointer_hops >= 1);
        // Row 0 is the holder → 0 hops.
        let mut stats0 = LocalStats::default();
        assert_eq!(r.value(0, 0, &mut stats0), 20.0);
        assert_eq!(stats0.pointer_hops, 0);
    }

    #[test]
    fn tuple_round_trip() {
        let src = data();
        let r = RingRelation::new(src.clone());
        for (i, t) in src.iter().enumerate() {
            assert_eq!(&r.tuple(i).attrs, &t.attrs);
        }
    }

    #[test]
    fn skyline_matches_flat() {
        let src = data();
        let r = RingRelation::new(src.clone());
        let f = crate::FlatRelation::new(src);
        let q = LocalQuery::plain(QueryRegion::unbounded());
        let mut a: Vec<Vec<f64>> =
            r.local_skyline(&q).skyline.into_iter().map(|t| t.attrs).collect();
        let mut b: Vec<Vec<f64>> =
            f.local_skyline(&q).skyline.into_iter().map(|t| t.attrs).collect();
        a.sort_by(|x, y| crate::total_lex(x, y));
        b.sort_by(|x, y| crate::total_lex(x, y));
        assert_eq!(a, b);
    }

    #[test]
    fn skyline_scan_pays_chain_traversals() {
        // Many duplicates → long rings → many hops.
        let src: Vec<Tuple> = (0..100)
            .map(|i| Tuple::new(i as f64, 0.0, vec![(i % 3) as f64, (i % 2) as f64]))
            .collect();
        let r = RingRelation::new(src);
        let out = r.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
        assert!(out.stats.pointer_hops > out.stats.value_comparisons);
    }
}
