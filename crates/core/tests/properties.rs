//! Property-based tests for the core skyline machinery.
//!
//! These pin down the algebraic laws the rest of the workspace relies on:
//! dominance is a strict partial order, BNL equals the brute-force
//! oracle, incremental merging is order-insensitive, and the
//! VDR estimation modes are ordered.

use proptest::prelude::*;
use skyline_core::algo::{self, bnl, oracle};
use skyline_core::diagram::{DiagramConfig, FrozenAnswers, SkyDelta, SkylineDiagram};
use skyline_core::dominance::{dominates, paper_strict_dominates_rest};
use skyline_core::region::{Mbr, Point, QueryRegion};
use skyline_core::vdr::{select_filter, vdr_volume, UpperBounds};
use skyline_core::{constrained, Attrs, LiveSkyline, SkylineMerger, Tuple, TupleId};

/// Strategy: a relation of up to `max` tuples with `dim` attributes drawn
/// from a small integer grid (ties are the interesting case).
fn relation(max: usize, dim: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(prop::collection::vec(0u16..40, dim), 0..max).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, attrs)| {
                // Unique locations: sites are identified by (x, y).
                Tuple::new(
                    i as f64,
                    (i * 7 % 13) as f64,
                    attrs.into_iter().map(f64::from).collect(),
                )
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn dominance_is_a_strict_partial_order(
        a in prop::collection::vec(0u8..20, 3),
        b in prop::collection::vec(0u8..20, 3),
        c in prop::collection::vec(0u8..20, 3),
    ) {
        let (a, b, c): (Vec<f64>, Vec<f64>, Vec<f64>) = (
            a.into_iter().map(f64::from).collect(),
            b.into_iter().map(f64::from).collect(),
            c.into_iter().map(f64::from).collect(),
        );
        // Irreflexive.
        prop_assert!(!dominates(&a, &a));
        // Asymmetric.
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
        }
        // Transitive.
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    #[test]
    fn paper_strict_test_is_sound(
        a in prop::collection::vec(0u8..20, 3),
        b in prop::collection::vec(0u8..20, 3),
    ) {
        let (a, b): (Vec<f64>, Vec<f64>) = (
            a.into_iter().map(f64::from).collect(),
            b.into_iter().map(f64::from).collect(),
        );
        // Under the scan invariant a.p1 <= b.p1, the strict rest-test never
        // claims dominance that the full test denies.
        if a[0] <= b[0] && paper_strict_dominates_rest(&a, &b) {
            prop_assert!(dominates(&a, &b));
        }
    }

    #[test]
    fn all_algorithms_match_oracle(data in relation(60, 3)) {
        let expect = oracle::skyline_indices(&data);
        prop_assert_eq!(bnl::skyline_indices(&data), expect.clone());
        // A sparse index set comes back as given, in input order.
        let rows = data.iter().enumerate().map(|(i, t)| (3 * i + 1, t.attrs.as_slice()));
        let (sparse, tests) = bnl::skyline_counted(rows);
        prop_assert_eq!(sparse, expect.iter().map(|&i| 3 * i + 1).collect::<Vec<_>>());
        prop_assert!(tests >= data.len().saturating_sub(1) as u64);
    }

    #[test]
    fn skyline_members_are_mutually_non_dominating(data in relation(60, 3)) {
        let sky = bnl::skyline_indices(&data);
        for &i in &sky {
            for &j in &sky {
                if i != j {
                    prop_assert!(!dominates(&data[i].attrs, &data[j].attrs));
                }
            }
        }
        // And every non-member is dominated by some member.
        for k in 0..data.len() {
            if !sky.contains(&k) {
                prop_assert!(sky.iter().any(|&s| dominates(&data[s].attrs, &data[k].attrs)));
            }
        }
    }

    #[test]
    fn merge_is_order_insensitive(data in relation(40, 2), seed in any::<u64>()) {
        let mut a = SkylineMerger::new();
        a.insert_batch(data.iter().cloned());

        // A cheap deterministic shuffle.
        let mut shuffled = data.clone();
        let n = shuffled.len();
        if n > 1 {
            let mut s = seed;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
        }
        let mut b = SkylineMerger::new();
        b.insert_batch(shuffled);

        let key = |t: &Tuple| (t.x.to_bits(), t.y.to_bits());
        let mut ra = a.into_result();
        let mut rb = b.into_result();
        ra.sort_by_key(key);
        rb.sort_by_key(key);
        prop_assert_eq!(ra, rb);
    }

    #[test]
    fn merging_local_skylines_reproduces_global(data in relation(60, 3), cut in 0usize..60) {
        let cut = cut.min(data.len());
        let (p1, p2) = data.split_at(cut);
        let s1 = algo::materialize(p1, &bnl::skyline_indices(p1));
        let s2 = algo::materialize(p2, &bnl::skyline_indices(p2));
        let mut m = SkylineMerger::new();
        m.insert_batch(s1);
        m.insert_batch(s2);
        let mut got = m.into_result();

        let mut expect = algo::materialize(&data, &bnl::skyline_indices(&data));
        let key = |t: &Tuple| (t.x.to_bits(), t.y.to_bits());
        got.sort_by_key(key);
        expect.sort_by_key(key);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn vdr_estimation_modes_are_ordered(
        attrs in prop::collection::vec(0u16..100, 2..5),
        slack in 1u16..50,
    ) {
        let attrs: Vec<f64> = attrs.into_iter().map(f64::from).collect();
        let exact = UpperBounds::new(vec![100.0; attrs.len()]);
        let over = UpperBounds::new(vec![100.0 + f64::from(slack); attrs.len()]);
        // Local maxima never exceed the global bound.
        let under = UpperBounds::new(attrs.iter().map(|&a| a.max(100.0 - f64::from(slack))).collect());
        let (vu, ve, vo) = (
            vdr_volume(&attrs, &under),
            vdr_volume(&attrs, &exact),
            vdr_volume(&attrs, &over),
        );
        prop_assert!(vu <= ve, "{} <= {}", vu, ve);
        prop_assert!(ve <= vo, "{} <= {}", ve, vo);
    }

    #[test]
    fn filtering_is_sound(data in relation(60, 2)) {
        // The filter eliminates only tuples it dominates, and it is itself
        // a skyline tuple — so it removes nothing from the skyline it was
        // picked from: every tuple it drops is outside the global answer.
        let bounds = UpperBounds::new(vec![50.0, 50.0]);
        let sky = algo::materialize(&data, &bnl::skyline_indices(&data));
        if let Some(f) = select_filter(&sky, &bounds) {
            for t in &sky {
                prop_assert!(!dominates(&f.attrs, &t.attrs));
            }
        }
    }

    #[test]
    fn constrained_skyline_is_subset_of_range(data in relation(60, 2), r in 1.0f64..40.0) {
        let region = QueryRegion::new(Point::new(10.0, 5.0), r);
        let sky = constrained::skyline(data.iter().map(|t| (TupleId::site(t), t)), &region);
        for (_, t) in sky {
            prop_assert!(region.contains(t.location()));
        }
    }

    #[test]
    fn constrained_skyline_is_the_oracle_over_in_range_sites(
        data in relation(60, 2),
        shared in prop::collection::vec(any::<bool>(), 60),
        r in 1.0f64..40.0,
    ) {
        // Two partitions that share some sites, each copied whole; `relation`
        // draws attributes from a small grid, so distinct sites with equal
        // attributes are common. The reference is the oracle over the
        // in-range sites, each site once.
        let p1: Vec<Tuple> = data.iter().step_by(2).cloned().collect();
        let p2: Vec<Tuple> =
            data.iter().enumerate().filter(|&(i, _)| i % 2 == 1 || shared[i]).map(|(_, t)| t.clone()).collect();
        for region in [QueryRegion::new(Point::new(10.0, 5.0), r), QueryRegion::unbounded()] {
            let rows = p1.iter().chain(&p2).map(|t| (TupleId::site(t), t));
            let mut got: Vec<TupleId> =
                constrained::skyline(rows, &region).into_iter().map(|(id, _)| id).collect();
            got.sort_unstable();
            let in_range: Vec<Tuple> =
                data.iter().filter(|t| region.contains(t.location())).cloned().collect();
            let mut want: Vec<TupleId> =
                oracle::skyline_indices(&in_range).into_iter().map(|i| TupleId::site(&in_range[i])).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn greedy_multi_filter_first_pick_is_max_vdr(data in relation(60, 2), k in 1usize..5) {
        use skyline_core::vdr::select_filters_greedy;
        let bounds = UpperBounds::new(vec![50.0, 50.0]);
        let sky = algo::materialize(&data, &bnl::skyline_indices(&data));
        let picks = select_filters_greedy(&sky, &bounds, k, &data);
        prop_assert!(picks.len() <= k);
        if let (Some(first), Some(single)) = (picks.first(), select_filter(&sky, &bounds)) {
            prop_assert_eq!(&first.attrs, &single.attrs, "k-first pick must equal the paper's choice");
        }
        // All picks come from the skyline.
        for p in &picks {
            prop_assert!(sky.iter().any(|t| t.attrs == p.attrs));
        }
    }

    #[test]
    fn mbr_mindist_lower_bounds_member_distance(data in relation(40, 2), px in 0f64..100.0, py in 0f64..100.0) {
        prop_assume!(!data.is_empty());
        let mbr = Mbr::of_points(data.iter().map(Tuple::location));
        let p = Point::new(px, py);
        for t in &data {
            prop_assert!(mbr.mindist2(p) <= t.dist2(p) + 1e-9);
        }
    }

    #[test]
    fn live_skyline_interleavings_match_recompute_oracle(
        dim in 1usize..=6,
        ops in prop::collection::vec((0u64..24, prop::collection::vec(0u16..12, 6), any::<bool>()), 1..80),
    ) {
        // Arbitrary insert/remove interleavings over a small id space (so
        // removes actually hit) must keep LiveSkyline equal to the
        // from-scratch skyline over the surviving tuples, at every step,
        // for every dimensionality the workspace benchmarks (d = 1..6).
        let mut ls = LiveSkyline::new();
        let mut live: std::collections::BTreeMap<TupleId, Tuple> = std::collections::BTreeMap::new();
        for (step, (raw_id, attrs, remove)) in ops.into_iter().enumerate() {
            let id = TupleId(raw_id, 0);
            if remove {
                prop_assert_eq!(ls.remove(&id), live.remove(&id).is_some());
            } else {
                let t = Tuple::new(0.0, 0.0, attrs[..dim].iter().map(|&v| f64::from(v)).collect());
                let fresh = !live.contains_key(&id);
                ls.insert(id, t.clone());
                if fresh {
                    live.insert(id, t);
                }
            }
            // Oracle: skyline ids over the live id → tuple map.
            let ids: Vec<TupleId> = live.keys().copied().collect();
            let data: Vec<Tuple> = live.values().cloned().collect();
            let mut expect: Vec<TupleId> =
                bnl::skyline_indices(&data).into_iter().map(|i| ids[i]).collect();
            expect.sort_unstable();
            prop_assert_eq!(ls.result_ids(), expect, "step {} dim {}", step, dim);
            prop_assert_eq!(ls.live_len(), live.len());
        }
        ls.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn live_skyline_same_id_churn_holds_invariants_at_every_step(
        dim in 1usize..=4,
        background in prop::collection::vec(prop::collection::vec(0u16..10, 4), 0..12),
        ops in prop::collection::vec((any::<bool>(), prop::collection::vec(0u16..10, 4)), 1..40),
    ) {
        // Adversarial ordering on ONE tuple id: add / remove / re-add the
        // same id over and over, with different attribute vectors each
        // round, against a fixed background population. The bucket
        // partition (every dominated tuple parked under exactly one live
        // dominator) must survive every step — re-adding an id whose
        // bucket absorbed others, removing it while it holds a bucket,
        // and duplicate inserts (which the contract ignores) are the
        // orderings a delta stream under churn actually produces.
        let mut ls = LiveSkyline::new();
        for (i, attrs) in background.iter().enumerate() {
            ls.insert(
                TupleId(1000 + i as u64, 0),
                Tuple::new(i as f64, 0.0, attrs[..dim].iter().map(|&v| f64::from(v)).collect()),
            );
        }
        let victim = TupleId(7, 7);
        let mut victim_live = false;
        let mut background_len = ls.live_len();
        for (step, (remove, attrs)) in ops.into_iter().enumerate() {
            if remove {
                prop_assert_eq!(ls.remove(&victim), victim_live, "step {}", step);
                victim_live = false;
            } else {
                let t = Tuple::new(99.0, 99.0, attrs[..dim].iter().map(|&v| f64::from(v)).collect());
                // Duplicate inserts of a live id are ignored by contract
                // ("remove first to update") — the id stays live either way.
                ls.insert(victim, t);
                victim_live = true;
            }
            ls.check_invariants().map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
            prop_assert_eq!(ls.live_len(), background_len + usize::from(victim_live));
            // The background population never leaks: removing the victim
            // must promote its bucket (if any) back into the structure.
            if !victim_live {
                prop_assert!(!ls.result_ids().contains(&victim));
            }
        }
        // Background ids all still tracked after the churn storm.
        ls.remove(&victim);
        background_len = ls.live_len();
        prop_assert_eq!(background_len, background.len());
    }

    #[test]
    fn frozen_diagram_views_stay_pinned_to_their_epoch_and_share_untouched_answers(
        cells in prop::collection::vec((0u16..400, 0u16..400, 0usize..3), 2..8),
        epochs in prop::collection::vec(
            prop::collection::vec(
                (0u64..16, 0u16..400, 0u16..400, prop::collection::vec(0u16..12, 2), any::<bool>()),
                0..5,
            ),
            1..16,
        ),
    ) {
        // A serving snapshot is a `freeze()` kept while the writer moves
        // on. Freeze after every delta, keep every view, and hold each one
        // to the site set of its own epoch once all deltas are in; between
        // neighbours, an answer the delta did not invalidate must be the
        // same allocation, not an equal copy.
        let cfg = DiagramConfig::new(100.0, vec![80.0, 200.0, 500.0]);
        let mut d = SkylineDiagram::new(cfg.clone());
        let mut keys: Vec<_> = cells
            .iter()
            .map(|&(x, y, band)| {
                cfg.key_for(Point::new(f64::from(x), f64::from(y)), cfg.radius_bands[band])
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        // Half the cells exist from the start, the rest arrive one an epoch.
        let (early, late) = keys.split_at(keys.len() / 2);
        for &k in early {
            d.materialize(k, 0);
        }
        type Sites = std::collections::BTreeMap<TupleId, Tuple>;
        let mut sites = Sites::new();
        let mut views: Vec<(FrozenAnswers, Sites)> = vec![(d.freeze(), sites.clone())];
        for (i, ops) in epochs.into_iter().enumerate() {
            let epoch = i as u64 + 1;
            if let Some(&k) = late.get(i) {
                d.materialize(k, epoch - 1);
            }
            let before = d.freeze();
            let mut delta = SkyDelta::default();
            for (raw, x, y, attrs, remove) in ops {
                let id = TupleId(raw, 0);
                if remove {
                    delta.removes.push(id);
                } else {
                    let attrs = attrs.into_iter().map(f64::from).collect();
                    delta.adds.push((id, Tuple::new(f64::from(x), f64::from(y), attrs)));
                }
            }
            // The diagram's contract: removes first, then adds in order, a
            // re-add replacing the live state.
            for id in &delta.removes {
                sites.remove(id);
            }
            sites.extend(delta.adds.iter().cloned());
            let report = d.apply(&delta, epoch);
            let after = d.freeze();
            for (key, old) in before.iter() {
                let new = after.answer(*key).expect("nothing evicts");
                if report.invalidated.contains(key) {
                    prop_assert!(old.ids != new.ids, "epoch {} {:?}: same answer", epoch, key);
                    prop_assert_eq!(new.refreshed_at, epoch);
                } else {
                    prop_assert!(
                        std::sync::Arc::ptr_eq(&old.ids, &new.ids),
                        "epoch {} {:?}: an untouched answer was copied", epoch, key
                    );
                    prop_assert_eq!(old.refreshed_at, new.refreshed_at);
                }
            }
            views.push((after, sites.clone()));
        }
        d.check_invariants().map_err(TestCaseError::fail)?;
        for (epoch, (view, sites_then)) in views.iter().enumerate() {
            prop_assert_eq!(view.iter().count(), early.len() + late.len().min(epoch));
            for (key, ans) in view.iter() {
                let region = cfg.canonical_query(*key);
                let rows = sites_then.iter().map(|(id, t)| (*id, t));
                let mut expect: Vec<TupleId> =
                    constrained::skyline(rows, &region).into_iter().map(|(id, _)| id).collect();
                expect.sort_unstable();
                prop_assert_eq!(&ans.ids[..], &expect[..], "view of epoch {} {:?}", epoch, key);
            }
        }
    }
}

/// Strategy: `n` rows of 6 raw grid values for [`near_plane`].
fn raw_rows(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<u16>>> {
    prop::collection::vec(prop::collection::vec(0u16..64, 6), n)
}

/// Tuples of width `dim` near the plane `Σ attrs = const` on an integer
/// grid (anti-correlated-ish), so local skylines run to hundreds of
/// members; `y` tells the two relations' sites apart.
fn near_plane(raw: &[Vec<u16>], dim: usize, y: f64) -> Vec<Tuple> {
    let tuple = |(i, row): (usize, &Vec<u16>)| {
        let free = &row[..dim - 1];
        let last = free.iter().map(|&v| 63 - v).sum::<u16>() + row[dim - 1] % 4;
        let attrs = free.iter().chain([&last]).map(|&v| f64::from(v)).collect();
        Tuple::new(i as f64, y, attrs)
    };
    raw.iter().enumerate().map(tuple).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merging_large_local_skylines_reproduces_global(
        a in raw_rows(300..400),
        b in raw_rows(300..400),
        dim in 3usize..7,
    ) {
        let (p1, p2) = (near_plane(&a, dim, 0.0), near_plane(&b, dim, 1.0));
        let s1 = algo::materialize(&p1, &bnl::skyline_indices(&p1));
        let s2 = algo::materialize(&p2, &bnl::skyline_indices(&p2));
        // Past the size at which the merger splits into region buckets.
        prop_assert!(s1.len() >= 128, "d={}: local skyline of {}", dim, s1.len());
        let mut m = SkylineMerger::with_seed(s1);
        m.insert_batch(s2);
        let mut got = m.into_result();

        let union: Vec<Tuple> = p1.into_iter().chain(p2).collect();
        let mut expect = algo::materialize(&union, &bnl::skyline_indices(&union));
        let key = |t: &Tuple| (t.x.to_bits(), t.y.to_bits());
        got.sort_by_key(key);
        expect.sort_by_key(key);
        prop_assert_eq!(got, expect);
    }
}

/// Strategy: a row of up to 9 attributes that mixes NaN, ±0.0 and ±∞ with
/// ordinary values.
fn awkward_row() -> impl Strategy<Value = Vec<f64>> {
    let value = (0u8..8, -1e3f64..1e3).prop_map(|(kind, v)| match kind {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        _ => v,
    });
    prop::collection::vec(value, 0..=9)
}

proptest! {
    #[test]
    fn attrs_keep_the_vec_they_were_built_from(v in awkward_row(), x in -1e3f64..1e3) {
        let bits = |r: &[f64]| r.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        let t = Tuple::new(x, -x, v.clone());
        let back: Vec<f64> = t.attrs.to_vec();
        prop_assert_eq!(bits(&back), bits(&v));
        let collected: Attrs = v.iter().copied().collect();
        prop_assert_eq!(bits(&collected), bits(&v));
        // Equality is `Vec<f64>`'s, NaN included, in both directions.
        let vec_eq = v == v.clone();
        prop_assert_eq!(t == Tuple::from_slice(x, -x, &v), vec_eq);
        prop_assert_eq!(t.attrs == v, vec_eq);
        prop_assert_eq!(v == t.attrs, vec_eq);
        prop_assert_eq!(format!("{:?}", t.attrs), format!("{:?}", v));
        prop_assert_eq!(format!("{:.1?}", t.attrs), format!("{:.1?}", v));
    }
}
