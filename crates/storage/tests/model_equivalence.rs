//! Property tests: all four storage models answer every local query
//! identically (modulo tuple order), and the hybrid fast paths (skip
//! checks, ID comparisons) never change answers.

use proptest::prelude::*;
use skyline_core::region::{Point, QueryRegion};
use skyline_core::vdr::{FilterTest, FilterTuple, UpperBounds};
use skyline_core::{DominanceTest, Tuple};

use device_storage::{
    DeviceRelation, DomainRelation, FlatRelation, HybridRelation, LocalQuery, RingRelation,
    SkipCause,
};

fn relation(max: usize, dim: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(prop::collection::vec(0u8..25, dim), 0..max).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, attrs)| {
                Tuple::new(
                    (i % 20) as f64,
                    (i / 20) as f64,
                    attrs.into_iter().map(f64::from).collect(),
                )
            })
            .collect()
    })
}

fn query(dim: usize) -> impl Strategy<Value = LocalQuery> {
    (
        0.0f64..20.0,
        0.0f64..5.0,
        prop::option::of((1.0f64..60.0, prop::collection::vec(0u8..25, dim))),
        any::<bool>(),
    )
        .prop_map(move |(cx, cy, r_and_filter, strict)| {
            let (radius, filter) = match r_and_filter {
                Some((r, f)) => (
                    r,
                    Some(FilterTuple::new(
                        f.into_iter().map(f64::from).collect(),
                        &UpperBounds::new(vec![25.0; dim]),
                    )),
                ),
                None => (f64::INFINITY, None),
            };
            LocalQuery {
                filter,
                filter_test: if strict { FilterTest::StrictAll } else { FilterTest::Dominance },
                vdr_bounds: Some(UpperBounds::new(vec![25.0; dim])),
                ..LocalQuery::plain(QueryRegion::new(Point::new(cx, cy), radius))
            }
        })
}

fn sorted_keys(tuples: Vec<Tuple>) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> =
        tuples.into_iter().map(|t| (t.x.to_bits(), t.y.to_bits())).collect();
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_models_agree(data in relation(50, 3), q in query(3)) {
        let flat = FlatRelation::new(data.clone());
        let hybrid = HybridRelation::new(data.clone());
        let domain = DomainRelation::new(data.clone());
        let ring = RingRelation::new(data);

        let expect = sorted_keys(flat.local_skyline(&q).skyline);
        prop_assert_eq!(sorted_keys(hybrid.local_skyline(&q).skyline), expect.clone(), "hybrid");
        prop_assert_eq!(sorted_keys(domain.local_skyline(&q).skyline), expect.clone(), "domain");
        prop_assert_eq!(sorted_keys(ring.local_skyline(&q).skyline), expect, "ring");
    }

    #[test]
    fn skip_fast_path_is_sound(data in relation(50, 2), q in query(2)) {
        // When hybrid skips (filter dominates the domain minima), the flat
        // answer after filter application must be empty too.
        let hybrid = HybridRelation::new(data.clone());
        let out = hybrid.local_skyline(&q);
        if out.skip == Some(SkipCause::FilterDominance) {
            let flat = FlatRelation::new(data);
            let ref_out = flat.local_skyline(&q);
            prop_assert!(ref_out.skyline.is_empty(),
                "hybrid skipped but flat found {} tuples", ref_out.skyline.len());
        }
    }

    #[test]
    fn paper_strict_scan_is_superset_of_full(data in relation(50, 3)) {
        let hybrid = HybridRelation::new(data);
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::Full;
        let full = sorted_keys(hybrid.local_skyline(&q).skyline);
        q.dominance = DominanceTest::PaperStrict;
        let strict = sorted_keys(hybrid.local_skyline(&q).skyline);
        for k in &full {
            prop_assert!(strict.binary_search(k).is_ok(), "strict scan lost a true member");
        }
    }

    #[test]
    fn unreduced_len_bounds_reduced_len(data in relation(50, 2), q in query(2)) {
        let hybrid = HybridRelation::new(data);
        let out = hybrid.local_skyline(&q);
        prop_assert!(out.skyline.len() <= out.unreduced_len);
        if q.filter.is_none() {
            prop_assert_eq!(out.skyline.len(), out.unreduced_len);
        }
    }

    #[test]
    fn storage_round_trip(data in relation(50, 4)) {
        let hybrid = HybridRelation::new(data.clone());
        let domain = DomainRelation::new(data.clone());
        let ring = RingRelation::new(data.clone());

        // Hybrid reorders rows; compare as multisets of attribute vectors.
        let canon = |mut v: Vec<Vec<f64>>| { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); v };
        let src = canon(data.iter().map(|t| t.attrs.clone()).collect());
        let h: Vec<Vec<f64>> = (0..hybrid.len()).map(|r| hybrid.tuple(r).attrs).collect();
        prop_assert_eq!(canon(h), src.clone());
        // Domain and ring preserve row order exactly.
        for (i, t) in data.iter().enumerate() {
            prop_assert_eq!(&domain.tuple(i).attrs, &t.attrs);
            prop_assert_eq!(&ring.tuple(i).attrs, &t.attrs);
        }
    }

    #[test]
    fn stored_locations_and_mbr_match_the_materialized_rows(data in relation(50, 2)) {
        let models: Vec<Box<dyn DeviceRelation>> = vec![
            Box::new(FlatRelation::new(data.clone())),
            Box::new(HybridRelation::new(data.clone())),
            Box::new(DomainRelation::new(data.clone())),
            Box::new(RingRelation::new(data.clone())),
        ];
        let want = skyline_core::region::Mbr::of_points(data.iter().map(Tuple::location));
        for m in &models {
            for i in 0..m.len() {
                prop_assert_eq!(m.location(i), m.tuple(i).location(), "{:?} row {}", m.model(), i);
            }
            match m.mbr() {
                None => prop_assert_eq!(m.model(), device_storage::StorageModel::Flat),
                Some(mbr) => prop_assert_eq!(mbr, want),
            }
        }
    }

    #[test]
    fn binary_image_round_trips(data in relation(80, 3)) {
        let img = device_storage::encode_relation(&data);
        let back = device_storage::decode_relation(&img).expect("own image is valid");
        prop_assert_eq!(back, data);
    }

    #[test]
    fn decoder_never_panics_on_corruption(data in relation(20, 2), flip in 0usize..2048, val in 0u8..=255u8) {
        let mut img = device_storage::encode_relation(&data);
        if !img.is_empty() {
            let i = flip % img.len();
            img[i] = val;
            // Any outcome is fine except a panic; if it decodes, the result
            // must still be structurally sound (schema-consistent).
            if let Ok(ts) = device_storage::decode_relation(&img) {
                let dim = ts.first().map_or(0, |t| t.dim());
                prop_assert!(ts.iter().all(|t| t.dim() == dim));
            }
        }
    }

    #[test]
    fn hybrid_bounds_match_scan(data in relation(50, 3)) {
        prop_assume!(!data.is_empty());
        let hybrid = HybridRelation::new(data.clone());
        let lower = hybrid.lower_bounds().unwrap();
        let upper = hybrid.upper_bounds().unwrap().0;
        for j in 0..3 {
            let min = data.iter().map(|t| t.attrs[j]).fold(f64::INFINITY, f64::min);
            let max = data.iter().map(|t| t.attrs[j]).fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(lower[j], min);
            prop_assert_eq!(upper[j], max);
        }
    }
}
