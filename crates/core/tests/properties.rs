//! Property-based tests for the core skyline machinery.
//!
//! These pin down the algebraic laws the rest of the workspace relies on:
//! dominance is a strict partial order, every algorithm equals the
//! brute-force oracle, incremental merging is order-insensitive, and the
//! VDR estimation modes are ordered.

use proptest::prelude::*;
use skyline_core::algo::{self, oracle, Algorithm};
use skyline_core::diagram::{DiagramConfig, FrozenAnswers, SkyDelta, SkylineDiagram};
use skyline_core::dominance::{dominates, paper_strict_dominates_rest};
use skyline_core::region::{Mbr, Point, QueryRegion};
use skyline_core::vdr::{select_filter, vdr_volume, FilterTest, UpperBounds};
use skyline_core::{constrained, LiveSkyline, RangeWatch, SkylineMerger, Tuple, TupleId};

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
        for a in Algorithm::ALL {
            prop_assert_eq!(algo::normalize(a.skyline_indices(&data)), expect.clone(), "{:?}", a);
        }
    }

    #[test]
    fn windowed_bnl_matches_for_any_window(data in relation(40, 2), window in 1usize..8) {
        let expect = skyline_core::algo::bnl::skyline_indices(&data);
        prop_assert_eq!(
            skyline_core::algo::bnl::skyline_indices_windowed(&data, window),
            expect
        );
    }

    #[test]
    fn skyline_members_are_mutually_non_dominating(data in relation(60, 3)) {
        let sky = Algorithm::Bnl.skyline_indices(&data);
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
        let s1 = algo::materialize(p1, &Algorithm::Sfs.skyline_indices(p1));
        let s2 = algo::materialize(p2, &Algorithm::Sfs.skyline_indices(p2));
        let mut m = SkylineMerger::new();
        m.insert_batch(s1);
        m.insert_batch(s2);
        let mut got = m.into_result();

        let mut expect = algo::materialize(&data, &Algorithm::Bnl.skyline_indices(&data));
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
        // Whatever filter gets picked, applying it to a local skyline only
        // removes tuples the filter dominates — i.e. tuples that cannot be
        // in the global skyline that contains the filter tuple itself.
        let bounds = UpperBounds::new(vec![50.0, 50.0]);
        let sky = algo::materialize(&data, &Algorithm::Bnl.skyline_indices(&data));
        if let Some(f) = select_filter(&sky, &bounds) {
            for t in &sky {
                for test in [FilterTest::StrictAll, FilterTest::Dominance] {
                    if test.eliminates(&f.attrs, &t.attrs) {
                        prop_assert!(dominates(&f.attrs, &t.attrs));
                    }
                }
            }
        }
    }

    #[test]
    fn constrained_skyline_is_subset_of_range(data in relation(60, 2), r in 1.0f64..40.0) {
        let region = QueryRegion::new(Point::new(10.0, 5.0), r);
        let sky = constrained::skyline_indices(&data, &region, Algorithm::Bnl);
        for &i in &sky {
            prop_assert!(region.contains(data[i].location()));
        }
    }

    #[test]
    fn greedy_multi_filter_first_pick_is_max_vdr(data in relation(60, 2), k in 1usize..5) {
        use skyline_core::vdr::select_filters_greedy;
        let bounds = UpperBounds::new(vec![50.0, 50.0]);
        let sky = algo::materialize(&data, &Algorithm::Sfs.skyline_indices(&data));
        let picks = select_filters_greedy(&sky, &bounds, k, &data, FilterTest::Dominance);
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
    fn block_kernels_agree_with_generic_dominance(
        dim in 1usize..=8,
        rows in prop::collection::vec(prop::collection::vec(0u16..6, 8), 2..40),
    ) {
        // Tight value grid (0..6) makes ties the common case, which is
        // exactly where a specialized kernel could diverge (the PaperStrict
        // pitfall: dominance *through* a tie must still register).
        let block = {
            let mut b = skyline_core::TupleBlock::new(dim);
            for r in &rows {
                let row: Vec<f64> = r[..dim].iter().map(|&v| f64::from(v)).collect();
                b.push_row(&row);
            }
            b
        };
        let kernel = block.kernel();
        for i in 0..block.len() {
            for j in 0..block.len() {
                prop_assert_eq!(
                    kernel(block.row(i), block.row(j)),
                    dominates(block.row(i), block.row(j)),
                    "kernel diverges at dim={} i={} j={}", dim, i, j
                );
                prop_assert_eq!(
                    block.dominates(i, j),
                    dominates(block.row(i), block.row(j))
                );
            }
        }
    }

    #[test]
    fn block_algorithms_match_tuple_algorithms(data in relation(60, 4)) {
        use skyline_core::algo::{bnl, sfs};
        let block = skyline_core::TupleBlock::from_tuples(&data);
        let expect = oracle::skyline_indices(&data);
        prop_assert_eq!(bnl::block_skyline_indices(&block), expect.clone());
        prop_assert_eq!(sfs::block_skyline_indices(&block), expect.clone());
        let (counted, tests) = bnl::block_skyline_indices_counted(&block);
        prop_assert_eq!(counted, expect);
        if data.len() > 1 {
            prop_assert!(tests > 0 || data.len() <= 1);
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
            let mut expect: Vec<TupleId> = Algorithm::Bnl
                .skyline_indices(&data)
                .into_iter()
                .map(|i| ids[i])
                .collect();
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
    fn range_watch_boundary_exact_transitions(
        d in 1u16..50,
        offsets in prop::collection::vec(-2i8..=2, 1..24),
    ) {
        // QueryRegion::contains is boundary-INCLUSIVE (dist² <= d²): a
        // site exactly on the range edge is a member. Walk one site
        // on/off/along the boundary in exact integer steps (no float
        // noise) and demand the watch reports precisely the transitions
        // the predicate implies — entering when it lands on the edge,
        // exiting only when strictly outside.
        let center = Point::new(0.0, 0.0);
        let d = f64::from(d);
        let mut watch = RangeWatch::new(center, d);
        let id = TupleId(1, 1);
        let mut was_in = false;
        for (step, off) in offsets.into_iter().enumerate() {
            // Position exactly at distance d + off along the x axis.
            let pos = Point::new(d + f64::from(off), 0.0);
            let now_in = f64::from(off) <= 0.0; // on-edge (off = 0) is inside
            let delta = watch.update([(id, pos)]);
            prop_assert_eq!(
                delta.entered.contains(&id), now_in && !was_in,
                "step {} off {}: enter transition", step, off
            );
            prop_assert_eq!(
                delta.exited.contains(&id), !now_in && was_in,
                "step {} off {}: exit transition", step, off
            );
            prop_assert_eq!(watch.members().contains(&id), now_in);
            was_in = now_in;
        }
    }

    #[test]
    fn range_watch_feeding_live_skyline_keeps_partition_on_boundary_churn(
        d in 5u16..30,
        moves in prop::collection::vec((0u64..6, -1i8..=1, prop::collection::vec(0u16..8, 3)), 1..40),
    ) {
        // The monitoring pipeline composition: RangeWatch transitions
        // drive LiveSkyline add/removes. Sites hop between exactly-on-edge
        // and one step outside (the boundary-exact churn a moving device
        // at the range rim produces); after every delta the bucket
        // partition must hold and membership must equal the predicate.
        let center = Point::new(0.0, 0.0);
        let d = f64::from(d);
        let mut watch = RangeWatch::new(center, d);
        let mut ls = LiveSkyline::new();
        let mut pos: std::collections::BTreeMap<u64, (Point, Vec<f64>)> =
            std::collections::BTreeMap::new();
        for (step, (raw, off, attrs)) in moves.into_iter().enumerate() {
            let attrs: Vec<f64> = attrs.iter().map(|&v| f64::from(v)).collect();
            let p = Point::new(d + f64::from(off), raw as f64 * 1e-3);
            pos.insert(raw, (p, attrs));
            let delta = watch.update(pos.iter().map(|(&k, (p, _))| (TupleId(k, 0), *p)));
            for id in &delta.exited {
                prop_assert!(ls.remove(id), "step {}: exited id was live", step);
            }
            for id in &delta.entered {
                ls.insert(*id, Tuple::new(0.0, 0.0, pos[&id.0].1.clone()));
            }
            ls.check_invariants().map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
            let inside: Vec<TupleId> = watch.members();
            prop_assert_eq!(ls.live_len(), inside.len(), "step {}", step);
        }
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
            let (ids, data): (Vec<TupleId>, Vec<Tuple>) =
                sites_then.iter().map(|(id, t)| (*id, t.clone())).unzip();
            for (key, ans) in view.iter() {
                let region = cfg.canonical_query(*key);
                let mut expect: Vec<TupleId> =
                    constrained::skyline_indices(&data, &region, Algorithm::Bnl)
                        .into_iter()
                        .map(|i| ids[i])
                        .collect();
                expect.sort_unstable();
                prop_assert_eq!(&ans.ids[..], &expect[..], "view of epoch {} {:?}", epoch, key);
            }
        }
    }
}
