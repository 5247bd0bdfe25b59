//! Deletion-capable incremental skyline maintenance for continuous
//! monitoring (the monitoring extension; see DESIGN.md §9).
//!
//! [`SkylineMerger`](crate::SkylineMerger) serves one-shot queries: it
//! discards every dominated tuple on arrival, so nothing can come back when
//! a skyline member later disappears (a site leaves the range `d`, a
//! contributing device crashes). [`LiveSkyline`] keeps the discarded tuples
//! around in *exclusive-dominance buckets*: every live non-skyline tuple is
//! parked under exactly one skyline member that dominates it. Removing a
//! member therefore only has to reconsider that member's own bucket — the
//! displaced tuples are re-inserted (promoted or re-parked), never a full
//! recomputation. Removing a parked tuple is O(1) amortized: it tombstones
//! the tuple's row in its owner's bucket (DESIGN.md §9.2).
//!
//! **Invariant** (checked by [`LiveSkyline::check_invariants`] in tests):
//! the skyline members are mutually non-dominating; every bucketed tuple is
//! dominated by its owner; every live tuple is in the skyline or in exactly
//! one bucket.

use sim_obs::dethash::DetHashMap;

use crate::dominance::dominates;
use crate::tuple::{Tuple, TupleId};

/// Where a live tuple currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// In the skyline.
    Sky,
    /// Parked at `row` of skyline member `owner`'s bucket.
    Shadow { owner: TupleId, row: u32 },
}

/// One skyline member's parked tuples, in arrival order. Removing a row
/// leaves a `None` tombstone, so every other row keeps its index; a bucket
/// more than half dead is compacted (order kept) and its rows re-indexed,
/// which makes a parked removal O(1) amortized.
#[derive(Debug, Clone, Default)]
struct Bucket {
    rows: Vec<Option<(TupleId, Tuple)>>,
    /// Rows that are not tombstones.
    live: usize,
}

/// A deletion-capable incremental skyline over identified tuples.
///
/// ```
/// use skyline_core::{LiveSkyline, Tuple, TupleId};
///
/// let mut ls = LiveSkyline::new();
/// ls.insert(TupleId(1, 0), Tuple::new(0.0, 0.0, vec![1.0, 1.0]));
/// ls.insert(TupleId(2, 0), Tuple::new(1.0, 0.0, vec![5.0, 5.0])); // dominated, parked
/// assert_eq!(ls.len(), 1);
/// ls.remove(&TupleId(1, 0)); // the parked tuple is promoted
/// assert_eq!(ls.len(), 1);
/// assert_eq!(ls.result()[0].attrs, vec![5.0, 5.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LiveSkyline {
    /// Current skyline members, in insertion order (deterministic). Every
    /// walk over the structure goes through this order.
    sky: Vec<(TupleId, Tuple)>,
    /// Bucket per skyline member that parks at least one live tuple.
    /// Point lookups only.
    shadow: DetHashMap<TupleId, Bucket>,
    /// Location of every live tuple. Point lookups only.
    index: DetHashMap<TupleId, Slot>,
    /// Bucketed tuples promoted into the skyline by removals.
    pub promotions: u64,
    /// Inserts ignored because the id was already live.
    pub duplicates_ignored: u64,
}

impl LiveSkyline {
    /// Empty maintainer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maintainer seeded with static-site tuples (ids via [`TupleId::site`]).
    pub fn with_sites<I: IntoIterator<Item = Tuple>>(seed: I) -> Self {
        let mut ls = Self::new();
        for t in seed {
            ls.insert_site(t);
        }
        ls
    }

    /// Inserts `t` under the static-site identity [`TupleId::site`].
    pub fn insert_site(&mut self, t: Tuple) -> bool {
        self.insert(TupleId::site(&t), t)
    }

    /// Inserts `t` under `id`. Returns `true` when `t` entered the skyline.
    /// Re-inserting a live id is ignored (idempotent; counted in
    /// [`duplicates_ignored`](Self::duplicates_ignored)) — remove first to
    /// update a tuple's attributes.
    pub fn insert(&mut self, id: TupleId, t: Tuple) -> bool {
        let mut span = sim_obs::span!("core::live_apply");
        span.add_units(1);
        if self.index.contains_key(&id) {
            self.duplicates_ignored += 1;
            return false;
        }
        // Dominated by a member: park it in the first dominator's bucket
        // (which bucket is irrelevant for correctness — any dominator
        // keeps the invariant; first-in-insertion-order is deterministic).
        if let Some((owner, _)) = self.sky.iter().find(|(_, s)| dominates(&s.attrs, &t.attrs)) {
            let owner = *owner;
            let bucket = self.shadow.entry(owner).or_default();
            let row = bucket.rows.len() as u32;
            bucket.rows.push(Some((id, t)));
            bucket.live += 1;
            self.index.insert(id, Slot::Shadow { owner, row });
            return false;
        }
        // It enters the skyline: members it dominates fall into its bucket,
        // and transitively their whole buckets (dominance is transitive).
        let mut absorbed: Vec<Option<(TupleId, Tuple)>> = Vec::new();
        let mut kept = Vec::with_capacity(self.sky.len() + 1);
        for (sid, s) in std::mem::take(&mut self.sky) {
            if dominates(&t.attrs, &s.attrs) {
                if let Some(bucket) = self.shadow.remove(&sid) {
                    absorbed.extend(bucket.rows.into_iter().filter(Option::is_some));
                }
                absorbed.push(Some((sid, s)));
            } else {
                kept.push((sid, s));
            }
        }
        self.sky = kept;
        if !absorbed.is_empty() {
            for (row, (aid, _)) in absorbed.iter().flatten().enumerate() {
                self.index.insert(*aid, Slot::Shadow { owner: id, row: row as u32 });
            }
            self.shadow.insert(id, Bucket { live: absorbed.len(), rows: absorbed });
        }
        self.sky.push((id, t));
        self.index.insert(id, Slot::Sky);
        true
    }

    /// Removes the tuple with identity `id`, promoting displaced bucket
    /// tuples as needed. Returns `false` when the id was not live.
    pub fn remove(&mut self, id: &TupleId) -> bool {
        let mut span = sim_obs::span!("core::live_apply");
        span.add_units(1);
        match self.index.remove(id) {
            None => false,
            Some(Slot::Shadow { owner, row }) => {
                let bucket = self.shadow.get_mut(&owner).expect("owner bucket exists");
                bucket.rows[row as usize] = None;
                bucket.live -= 1;
                if bucket.live == 0 {
                    self.shadow.remove(&owner);
                } else if bucket.rows.len() > 2 * bucket.live {
                    bucket.rows.retain(Option::is_some);
                    for (row, (bid, _)) in bucket.rows.iter().flatten().enumerate() {
                        self.index.insert(*bid, Slot::Shadow { owner, row: row as u32 });
                    }
                }
                true
            }
            Some(Slot::Sky) => {
                self.sky.retain(|(sid, _)| sid != id);
                // Orphans re-enter through the normal insert path, in
                // arrival order: each is either re-parked under another
                // member or promoted. An orphan can never evict a surviving
                // member (the removed member would have dominated it
                // transitively).
                let orphans = self.shadow.remove(id).map(|b| b.rows).unwrap_or_default();
                for (oid, o) in orphans.into_iter().flatten() {
                    self.index.remove(&oid);
                    if self.insert(oid, o) {
                        self.promotions += 1;
                    }
                }
                true
            }
        }
    }

    /// `true` when `id` is live (in the skyline or parked).
    pub fn contains(&self, id: &TupleId) -> bool {
        self.index.contains_key(id)
    }

    /// Current skyline, in insertion order.
    pub fn result(&self) -> Vec<Tuple> {
        self.sky.iter().map(|(_, t)| t.clone()).collect()
    }

    /// Current skyline member ids, sorted (a canonical view for equality
    /// checks against a recompute oracle).
    pub fn result_ids(&self) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = self.sky.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids
    }

    /// Iterates the skyline members as `(id, tuple)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&TupleId, &Tuple)> {
        self.sky.iter().map(|(id, t)| (id, t))
    }

    /// Skyline size.
    pub fn len(&self) -> usize {
        self.sky.len()
    }

    /// `true` when the skyline is empty.
    pub fn is_empty(&self) -> bool {
        self.sky.is_empty()
    }

    /// Live tuples tracked (skyline plus every bucket).
    pub fn live_len(&self) -> usize {
        self.index.len()
    }

    /// Verifies the exclusive-dominance invariant, returning a description
    /// of the first violation. Also checks the bookkeeping: every parked
    /// tuple is indexed at its own row, a bucket's live count is right and
    /// no bucket is more than half tombstones. Intended for tests and debug
    /// assertions; the cost is quadratic in the skyline size.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, (ia, a)) in self.sky.iter().enumerate() {
            for (ib, b) in &self.sky[i + 1..] {
                if dominates(&a.attrs, &b.attrs) || dominates(&b.attrs, &a.attrs) {
                    return Err(format!("skyline members {ia:?} and {ib:?} are ordered"));
                }
            }
        }
        let mut live = 0usize;
        let mut buckets = 0usize;
        for (owner, ot) in &self.sky {
            match self.index.get(owner) {
                Some(Slot::Sky) => live += 1,
                other => return Err(format!("member {owner:?} indexed as {other:?}")),
            }
            let Some(bucket) = self.shadow.get(owner) else { continue };
            buckets += 1;
            let mut held = 0usize;
            for (row, slot) in bucket.rows.iter().enumerate() {
                let Some((bid, b)) = slot else { continue };
                if !dominates(&ot.attrs, &b.attrs) {
                    return Err(format!("bucketed {bid:?} is not dominated by owner {owner:?}"));
                }
                let at = self.index.get(bid);
                if at != Some(&Slot::Shadow { owner: *owner, row: row as u32 }) {
                    return Err(format!("bucketed {bid:?} at row {row} indexed as {at:?}"));
                }
                held += 1;
            }
            if held == 0 || held != bucket.live || bucket.rows.len() > 2 * held {
                return Err(format!(
                    "bucket of {owner:?} holds {held} live of {} rows, counts {}",
                    bucket.rows.len(),
                    bucket.live
                ));
            }
            live += held;
        }
        if buckets != self.shadow.len() {
            return Err(format!(
                "{} buckets, {buckets} owned by skyline members",
                self.shadow.len()
            ));
        }
        if live != self.index.len() {
            return Err(format!("index holds {} ids, structures hold {live}", self.index.len()));
        }
        Ok(())
    }
}

impl Extend<Tuple> for LiveSkyline {
    /// Extends with static-site tuples (ids via [`TupleId::site`]).
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, iter: I) {
        for t in iter {
            self.insert_site(t);
        }
    }
}

impl Extend<(TupleId, Tuple)> for LiveSkyline {
    fn extend<I: IntoIterator<Item = (TupleId, Tuple)>>(&mut self, iter: I) {
        for (id, t) in iter {
            self.insert(id, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::algo::bnl;
    use proptest::prelude::*;

    /// The `BTreeMap`-and-`retain` maintainer `LiveSkyline` replaced,
    /// kept as the reference its bookkeeping must reproduce call for call.
    mod reference {
        use std::collections::BTreeMap;

        use crate::dominance::dominates;
        use crate::tuple::{Tuple, TupleId};

        #[derive(Debug, Clone, Copy)]
        enum Slot {
            Sky,
            Shadow(TupleId),
        }

        #[derive(Debug, Default)]
        pub struct RefLive {
            pub sky: Vec<(TupleId, Tuple)>,
            shadow: BTreeMap<TupleId, Vec<(TupleId, Tuple)>>,
            index: BTreeMap<TupleId, Slot>,
            pub promotions: u64,
            pub duplicates_ignored: u64,
        }

        impl RefLive {
            pub fn insert(&mut self, id: TupleId, t: Tuple) -> bool {
                if self.index.contains_key(&id) {
                    self.duplicates_ignored += 1;
                    return false;
                }
                if let Some((owner, _)) =
                    self.sky.iter().find(|(_, s)| dominates(&s.attrs, &t.attrs))
                {
                    let owner = *owner;
                    self.shadow.entry(owner).or_default().push((id, t));
                    self.index.insert(id, Slot::Shadow(owner));
                    return false;
                }
                let mut absorbed: Vec<(TupleId, Tuple)> = Vec::new();
                let mut kept = Vec::with_capacity(self.sky.len() + 1);
                for (sid, s) in std::mem::take(&mut self.sky) {
                    if dominates(&t.attrs, &s.attrs) {
                        if let Some(bucket) = self.shadow.remove(&sid) {
                            absorbed.extend(bucket);
                        }
                        absorbed.push((sid, s));
                    } else {
                        kept.push((sid, s));
                    }
                }
                self.sky = kept;
                if !absorbed.is_empty() {
                    for (aid, _) in &absorbed {
                        self.index.insert(*aid, Slot::Shadow(id));
                    }
                    self.shadow.insert(id, absorbed);
                }
                self.sky.push((id, t));
                self.index.insert(id, Slot::Sky);
                true
            }

            pub fn remove(&mut self, id: &TupleId) -> bool {
                match self.index.remove(id) {
                    None => false,
                    Some(Slot::Shadow(owner)) => {
                        let bucket = self.shadow.get_mut(&owner).expect("owner bucket exists");
                        bucket.retain(|(bid, _)| bid != id);
                        if bucket.is_empty() {
                            self.shadow.remove(&owner);
                        }
                        true
                    }
                    Some(Slot::Sky) => {
                        self.sky.retain(|(sid, _)| sid != id);
                        let orphans = self.shadow.remove(id).unwrap_or_default();
                        for (oid, o) in orphans {
                            self.index.remove(&oid);
                            if self.insert(oid, o) {
                                self.promotions += 1;
                            }
                        }
                        true
                    }
                }
            }

            /// Every live id with its owner (`None` for a member), by id.
            pub fn owners(&self) -> Vec<(TupleId, Option<TupleId>)> {
                self.index
                    .iter()
                    .map(|(id, slot)| match slot {
                        Slot::Sky => (*id, None),
                        Slot::Shadow(owner) => (*id, Some(*owner)),
                    })
                    .collect()
            }
        }
    }

    use reference::RefLive;

    /// Every live id with its owner (`None` for a member), by id.
    fn owners(ls: &LiveSkyline) -> Vec<(TupleId, Option<TupleId>)> {
        let mut out: Vec<_> = ls
            .index
            .iter()
            .map(|(id, slot)| match slot {
                Slot::Sky => (*id, None),
                Slot::Shadow { owner, .. } => (*id, Some(*owner)),
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Everything observable of `ls` equals the reference's: members in
    /// order, each parked id's owner and both counters.
    fn assert_matches_reference(ls: &LiveSkyline, rf: &RefLive, at: &str) {
        // The members, ids and tuples, in order: what `iter` and `result`
        // hand out.
        assert_eq!(ls.sky, rf.sky, "{at}: members in order");
        assert_eq!(owners(ls), rf.owners(), "{at}: owners");
        assert_eq!(ls.promotions, rf.promotions, "{at}: promotions");
        assert_eq!(ls.duplicates_ignored, rf.duplicates_ignored, "{at}: duplicates");
        if let Err(e) = ls.check_invariants() {
            panic!("{at}: {e}");
        }
    }

    fn t(attrs: &[f64]) -> Tuple {
        Tuple::new(0.0, 0.0, attrs.to_vec())
    }

    /// Recompute oracle: skyline ids over the live id → tuple map.
    fn oracle(live: &BTreeMap<TupleId, Tuple>) -> Vec<TupleId> {
        let ids: Vec<TupleId> = live.keys().copied().collect();
        let data: Vec<Tuple> = live.values().cloned().collect();
        let keep = bnl::skyline_indices(&data);
        let mut out: Vec<TupleId> = keep.into_iter().map(|i| ids[i]).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn insert_parks_dominated_and_remove_promotes() {
        let mut ls = LiveSkyline::new();
        assert!(ls.insert(TupleId(1, 0), t(&[1.0, 1.0])));
        assert!(!ls.insert(TupleId(2, 0), t(&[2.0, 2.0])));
        assert!(!ls.insert(TupleId(3, 0), t(&[3.0, 3.0])));
        assert_eq!(ls.len(), 1);
        assert_eq!(ls.live_len(), 3);
        assert!(ls.remove(&TupleId(1, 0)));
        // 2 promoted; 3 re-parked under 2.
        assert_eq!(ls.result_ids(), vec![TupleId(2, 0)]);
        assert_eq!(ls.live_len(), 2);
        assert_eq!(ls.promotions, 1);
        ls.check_invariants().unwrap();
    }

    #[test]
    fn inserting_dominator_absorbs_members_and_their_buckets() {
        let mut ls = LiveSkyline::new();
        ls.insert(TupleId(1, 0), t(&[5.0, 5.0]));
        ls.insert(TupleId(2, 0), t(&[6.0, 6.0])); // parked under 1
        ls.insert(TupleId(3, 0), t(&[1.0, 9.0]));
        assert!(ls.insert(TupleId(4, 0), t(&[2.0, 2.0]))); // evicts 1 (+bucket)
        assert_eq!(ls.result_ids(), vec![TupleId(3, 0), TupleId(4, 0)]);
        assert_eq!(ls.live_len(), 4);
        ls.check_invariants().unwrap();
        // Removing the absorber resurfaces the whole chain.
        ls.remove(&TupleId(4, 0));
        assert_eq!(ls.result_ids(), vec![TupleId(1, 0), TupleId(3, 0)]);
        ls.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_ids_are_ignored_and_counted() {
        let mut ls = LiveSkyline::new();
        assert!(ls.insert(TupleId(1, 0), t(&[1.0])));
        assert!(!ls.insert(TupleId(1, 0), t(&[0.5])));
        assert_eq!(ls.duplicates_ignored, 1);
        assert_eq!(ls.live_len(), 1);
    }

    #[test]
    fn remove_of_unknown_id_is_false() {
        let mut ls = LiveSkyline::new();
        assert!(!ls.remove(&TupleId(9, 9)));
    }

    #[test]
    fn removing_parked_tuple_leaves_skyline_untouched() {
        let mut ls = LiveSkyline::new();
        ls.insert(TupleId(1, 0), t(&[1.0]));
        ls.insert(TupleId(2, 0), t(&[2.0]));
        assert!(ls.remove(&TupleId(2, 0)));
        assert_eq!(ls.result_ids(), vec![TupleId(1, 0)]);
        assert_eq!(ls.live_len(), 1);
        assert_eq!(ls.promotions, 0);
        ls.check_invariants().unwrap();
    }

    #[test]
    fn seeded_interleaving_matches_recompute_oracle() {
        // A deterministic churn of inserts and removes; after every step
        // the skyline must equal the recompute oracle over live tuples.
        let mut ls = LiveSkyline::new();
        let mut live: BTreeMap<TupleId, Tuple> = BTreeMap::new();
        let mut h = 0x5EEDu64;
        for step in 0..400u64 {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = TupleId(h % 40, 0);
            let remove = step % 3 == 2;
            if remove {
                let removed = ls.remove(&id);
                assert_eq!(removed, live.remove(&id).is_some());
            } else {
                let attrs = vec![(h >> 8) as f64 % 17.0, (h >> 16) as f64 % 17.0];
                let tup = t(&attrs);
                let fresh = !live.contains_key(&id);
                let _ = ls.insert(id, tup.clone());
                if fresh {
                    live.insert(id, tup);
                }
            }
            assert_eq!(ls.result_ids(), oracle(&live), "step {step}");
            assert_eq!(ls.live_len(), live.len());
        }
        ls.check_invariants().unwrap();
    }

    #[test]
    fn with_sites_and_extend_match_merger_semantics() {
        let seed = vec![
            Tuple::new(0.0, 0.0, vec![5.0]),
            Tuple::new(1.0, 0.0, vec![1.0]),
            Tuple::new(0.0, 0.0, vec![5.0]), // duplicate site
        ];
        let ls = LiveSkyline::with_sites(seed.clone());
        assert_eq!(ls.len(), 1);
        assert_eq!(ls.duplicates_ignored, 1);
        let mut ext = LiveSkyline::default();
        ext.extend(seed);
        assert_eq!(ext.result_ids(), ls.result_ids());
    }

    #[test]
    fn compacted_bucket_keeps_rows_indexed_and_orphans_in_arrival_order() {
        // 100 mutually incomparable tuples parked under one member; the
        // 51st removal compacts the bucket, the nine after it find their
        // rows through the re-index, and removing the owner promotes the
        // 40 survivors in arrival order.
        let mut ls = LiveSkyline::new();
        let mut rf = RefLive::default();
        let owner = TupleId(1_000, 0);
        ls.insert(owner, t(&[0.0, 0.0]));
        rf.insert(owner, t(&[0.0, 0.0]));
        for i in 0..100u64 {
            let tup = t(&[1.0 + i as f64, 200.0 - i as f64]);
            assert!(!ls.insert(TupleId(i, 0), tup.clone()));
            rf.insert(TupleId(i, 0), tup);
        }
        assert_matches_reference(&ls, &rf, "parked");
        let gone: Vec<u64> = (0..100).filter(|i| i % 5 != 0 && i % 5 != 3).collect();
        assert_eq!(gone.len(), 60);
        // Remove from both ends inwards, so compaction happens mid-bucket.
        let mut order = gone.clone();
        order.sort_by_key(|&i| i.min(99 - i));
        for (k, i) in order.iter().enumerate() {
            assert!(ls.remove(&TupleId(*i, 0)));
            rf.remove(&TupleId(*i, 0));
            assert_matches_reference(&ls, &rf, &format!("removal {k} of {i}"));
        }
        assert!(ls.shadow[&owner].rows.len() < 100, "the bucket was compacted");
        assert!(ls.remove(&owner));
        rf.remove(&owner);
        assert_matches_reference(&ls, &rf, "owner removed");
        let survivors: Vec<TupleId> =
            (0..100).filter(|i| !gone.contains(i)).map(|i| TupleId(i, 0)).collect();
        let members: Vec<TupleId> = ls.iter().map(|(id, _)| *id).collect();
        assert_eq!(members, survivors);
        assert_eq!(ls.promotions, 40);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Interleaved inserts and removes reproduce the reference call for
        /// call: return values, members in order, every parked id's owner,
        /// `promotions` and `duplicates_ignored`. A pile of tuples parked
        /// under one strong member makes compaction and the removal of an
        /// owner with a large bucket reachable; the small value grid makes
        /// ties and duplicate ids common.
        #[test]
        fn matches_the_btreemap_reference_call_for_call(
            dim in 1usize..=6,
            pile in prop::collection::vec(prop::collection::vec(1u16..6, 6), 0..120),
            ops in prop::collection::vec(
                (0u8..8, 0u64..96, prop::collection::vec(0u16..6, 6)),
                1..300,
            ),
        ) {
            let attrs = |v: &[u16]| t(&v[..dim].iter().map(|&x| f64::from(x)).collect::<Vec<_>>());
            let mut ls = LiveSkyline::new();
            let mut rf = RefLive::default();
            let strong = TupleId(0, 0);
            prop_assert_eq!(ls.insert(strong, t(&vec![0.0; dim])), rf.insert(strong, t(&vec![0.0; dim])));
            for (i, v) in pile.iter().enumerate() {
                let id = TupleId(i as u64 % 48, 1);
                prop_assert_eq!(ls.insert(id, attrs(v)), rf.insert(id, attrs(v)));
            }
            assert_matches_reference(&ls, &rf, "pile");
            for (step, (kind, raw, v)) in ops.iter().enumerate() {
                // Ids of both families, so removes hit the pile and the
                // strong member too.
                let id = TupleId(*raw / 2, *raw % 2);
                if *kind < 4 {
                    prop_assert_eq!(ls.insert(id, attrs(v)), rf.insert(id, attrs(v)), "step {}", step);
                } else {
                    prop_assert_eq!(ls.remove(&id), rf.remove(&id), "step {}", step);
                }
                assert_matches_reference(&ls, &rf, &format!("step {step}"));
            }
        }
    }
}
