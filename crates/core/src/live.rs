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
//! A `LiveSkyline` holds no tuples: it parks and compares `u32` row
//! handles of a [`SiteTable`], which every method takes, so the cells of a
//! diagram share one copy of each site.
//!
//! **Invariant** (checked by [`LiveSkyline::check_invariants`] in tests):
//! the skyline members are mutually non-dominating; every bucketed tuple is
//! dominated by its owner; every live tuple is in the skyline or in exactly
//! one bucket.

use sim_obs::dethash::DetHashMap;

use crate::dominance::dominates;
use crate::site_table::SiteTable;
use crate::tuple::{Tuple, TupleId};

/// Never a handle (a [`SiteTable`] holds fewer than `u32::MAX` rows): a
/// tombstoned bucket row, and the owner of a skyline member's [`Slot`].
const NONE: u32 = u32::MAX;

/// Where a live handle currently sits: parked at `row` of skyline member
/// `owner`'s bucket, or in the skyline ([`SKY`]). Two words, so an index
/// entry is 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    owner: u32,
    row: u32,
}

/// The slot of a skyline member.
const SKY: Slot = Slot { owner: NONE, row: NONE };

/// One skyline member's parked handles, in arrival order. Removing a row
/// leaves a [`NONE`] tombstone, so every other row keeps its index; a
/// bucket more than half dead is compacted (order kept) and its rows
/// re-indexed, which makes a parked removal O(1) amortized.
#[derive(Debug, Clone, Default)]
struct Bucket {
    rows: Vec<u32>,
    /// Rows that are not tombstones.
    live: u32,
}

/// A deletion-capable incremental skyline over the rows of a
/// [`SiteTable`].
///
/// ```
/// use skyline_core::{LiveSkyline, SiteTable, Tuple, TupleId};
///
/// let mut sites = SiteTable::new();
/// let a = sites.insert(TupleId(1, 0), Tuple::new(0.0, 0.0, vec![1.0, 1.0]));
/// let b = sites.insert(TupleId(2, 0), Tuple::new(1.0, 0.0, vec![5.0, 5.0]));
/// let mut ls = LiveSkyline::new();
/// ls.insert(&sites, a);
/// ls.insert(&sites, b); // dominated, parked
/// assert_eq!(ls.len(), 1);
/// ls.remove(&sites, a); // the parked tuple is promoted
/// sites.release(a);
/// assert_eq!(ls.result(&sites)[0].attrs, vec![5.0, 5.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LiveSkyline {
    /// Current skyline members, in insertion order (deterministic). Every
    /// walk over the structure goes through this order.
    sky: Vec<u32>,
    /// Bucket per skyline member that parks at least one live handle.
    /// Point lookups only.
    shadow: DetHashMap<u32, Bucket>,
    /// Location of every live handle. Point lookups only.
    index: DetHashMap<u32, Slot>,
    /// Bucketed tuples promoted into the skyline by removals.
    pub promotions: u64,
    /// Inserts ignored because the handle was already live.
    pub duplicates_ignored: u64,
}

impl LiveSkyline {
    /// Empty maintainer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts row `h` of `sites`. Returns `true` when it entered the
    /// skyline. Re-inserting a live handle is ignored (idempotent; counted
    /// in [`duplicates_ignored`](Self::duplicates_ignored)). The row must
    /// not change while `h` is live here.
    pub fn insert(&mut self, sites: &SiteTable, h: u32) -> bool {
        let mut span = sim_obs::span!("core::live_apply");
        span.add_units(1);
        if self.index.contains_key(&h) {
            self.duplicates_ignored += 1;
            return false;
        }
        let attrs = &sites.tuple(h).attrs;
        // Dominated by a member: park it in the first dominator's bucket
        // (which bucket is irrelevant for correctness — any dominator
        // keeps the invariant; first-in-insertion-order is deterministic).
        if let Some(&owner) = self.sky.iter().find(|&&s| dominates(&sites.tuple(s).attrs, attrs)) {
            let bucket = self.shadow.entry(owner).or_default();
            let row = bucket.rows.len() as u32;
            bucket.rows.push(h);
            bucket.live += 1;
            self.index.insert(h, Slot { owner, row });
            return false;
        }
        // It enters the skyline: members it dominates fall into its bucket,
        // and transitively their whole buckets (dominance is transitive).
        let mut absorbed: Vec<u32> = Vec::new();
        let shadow = &mut self.shadow;
        self.sky.retain(|&s| {
            if !dominates(attrs, &sites.tuple(s).attrs) {
                return true;
            }
            if let Some(bucket) = shadow.remove(&s) {
                absorbed.extend(bucket.rows.into_iter().filter(|&r| r != NONE));
            }
            absorbed.push(s);
            false
        });
        if !absorbed.is_empty() {
            for (row, &a) in absorbed.iter().enumerate() {
                self.index.insert(a, Slot { owner: h, row: row as u32 });
            }
            self.shadow.insert(h, Bucket { live: absorbed.len() as u32, rows: absorbed });
        }
        self.sky.push(h);
        self.index.insert(h, SKY);
        true
    }

    /// Removes row `h`, promoting displaced bucket tuples as needed.
    /// Returns `false` when `h` was not live here. Reads no attribute of
    /// row `h` itself, but those of the rows it displaces.
    pub fn remove(&mut self, sites: &SiteTable, h: u32) -> bool {
        let mut span = sim_obs::span!("core::live_apply");
        span.add_units(1);
        let Some(slot) = self.index.remove(&h) else { return false };
        if slot != SKY {
            let owner = slot.owner;
            let bucket = self.shadow.get_mut(&owner).expect("owner bucket exists");
            bucket.rows[slot.row as usize] = NONE;
            bucket.live -= 1;
            if bucket.live == 0 {
                self.shadow.remove(&owner);
            } else if bucket.rows.len() > 2 * bucket.live as usize {
                bucket.rows.retain(|&r| r != NONE);
                for (row, &b) in bucket.rows.iter().enumerate() {
                    self.index.insert(b, Slot { owner, row: row as u32 });
                }
            }
            return true;
        }
        self.sky.retain(|&s| s != h);
        // Orphans re-enter through the normal insert path, in arrival
        // order: each is either re-parked under another member or
        // promoted. An orphan can never evict a surviving member (the
        // removed member would have dominated it transitively).
        let orphans = self.shadow.remove(&h).map(|b| b.rows).unwrap_or_default();
        for o in orphans.into_iter().filter(|&o| o != NONE) {
            self.index.remove(&o);
            if self.insert(sites, o) {
                self.promotions += 1;
            }
        }
        true
    }

    /// Current skyline, in insertion order.
    pub fn result(&self, sites: &SiteTable) -> Vec<Tuple> {
        self.sky.iter().map(|&h| sites.tuple(h).clone()).collect()
    }

    /// Current skyline member ids, sorted (a canonical view for equality
    /// checks against a recompute oracle).
    pub fn result_ids(&self, sites: &SiteTable) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = self.sky.iter().map(|&h| sites.id(h)).collect();
        ids.sort_unstable();
        ids
    }

    /// Skyline size.
    pub fn len(&self) -> usize {
        self.sky.len()
    }

    /// `true` when the skyline is empty.
    pub fn is_empty(&self) -> bool {
        self.sky.is_empty()
    }

    /// Live handles tracked (skyline plus every bucket).
    pub fn live_len(&self) -> usize {
        self.index.len()
    }

    /// Verifies the exclusive-dominance invariant over `sites`, returning a
    /// description of the first violation. Also checks the bookkeeping:
    /// every handle names a live row of `sites`, every parked handle is
    /// indexed at its own row, a bucket's live count is right and no
    /// bucket is more than half tombstones. Intended for tests and debug
    /// assertions; the cost is quadratic in the skyline size.
    pub fn check_invariants(&self, sites: &SiteTable) -> Result<(), String> {
        // Every handle held names a live row (the bucket rows are checked
        // below, and the count check at the end covers the index).
        if let Some(h) = self.sky.iter().find(|&&h| !sites.is_live(h)) {
            return Err(format!("member handle {h} names no live row"));
        }
        for (i, &a) in self.sky.iter().enumerate() {
            for &b in &self.sky[i + 1..] {
                let (ta, tb) = (&sites.tuple(a).attrs, &sites.tuple(b).attrs);
                if dominates(ta, tb) || dominates(tb, ta) {
                    return Err(format!(
                        "skyline members {:?} and {:?} are ordered",
                        sites.id(a),
                        sites.id(b)
                    ));
                }
            }
        }
        let mut live = 0usize;
        let mut buckets = 0usize;
        for &owner in &self.sky {
            match self.index.get(&owner) {
                Some(&SKY) => live += 1,
                other => return Err(format!("member {:?} indexed as {other:?}", sites.id(owner))),
            }
            let Some(bucket) = self.shadow.get(&owner) else { continue };
            buckets += 1;
            let mut held = 0usize;
            for (row, &b) in bucket.rows.iter().enumerate() {
                if b == NONE {
                    continue;
                }
                if !sites.is_live(b) {
                    return Err(format!("bucketed handle {b} names no live row"));
                }
                if !dominates(&sites.tuple(owner).attrs, &sites.tuple(b).attrs) {
                    return Err(format!(
                        "bucketed {:?} is not dominated by owner {:?}",
                        sites.id(b),
                        sites.id(owner)
                    ));
                }
                let at = self.index.get(&b);
                if at != Some(&Slot { owner, row: row as u32 }) {
                    return Err(format!(
                        "bucketed {:?} at row {row} indexed as {at:?}",
                        sites.id(b)
                    ));
                }
                held += 1;
            }
            if held == 0 || held != bucket.live as usize || bucket.rows.len() > 2 * held {
                return Err(format!(
                    "bucket of {:?} holds {held} live of {} rows, counts {}",
                    sites.id(owner),
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
            return Err(format!(
                "index holds {} handles, structures hold {live}",
                self.index.len()
            ));
        }
        Ok(())
    }
}

/// A [`LiveSkyline`] over a [`SiteTable`] of its own, driven by
/// `(id, tuple)`: an id's row lives exactly as long as the id is live in
/// the maintainer, and a live id's row is never rewritten. The monitor's
/// originator folds its applied reports through one.
///
/// ```
/// use skyline_core::{LiveFold, Tuple, TupleId};
///
/// let mut fold = LiveFold::new();
/// fold.insert(TupleId(1, 0), Tuple::new(0.0, 0.0, vec![1.0, 1.0]));
/// fold.insert(TupleId(2, 0), Tuple::new(1.0, 0.0, vec![5.0, 5.0]));
/// assert!(fold.remove(&TupleId(1, 0))); // the parked tuple is promoted
/// assert_eq!(fold.result_ids(), [TupleId(2, 0)]);
/// assert_eq!(fold.sites().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LiveFold {
    sites: SiteTable,
    live: LiveSkyline,
}

impl LiveFold {
    /// Empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds site `id` in; `true` when it entered the skyline. A folded id
    /// keeps its first tuple, and the maintainer counts the duplicate.
    pub fn insert(&mut self, id: TupleId, t: Tuple) -> bool {
        let h = match self.sites.handle(&id) {
            Some(h) => h,
            None => self.sites.insert(id, t),
        };
        self.live.insert(&self.sites, h)
    }

    /// Takes site `id` out and releases its row; `false` when it was not
    /// folded.
    pub fn remove(&mut self, id: &TupleId) -> bool {
        let Some(h) = self.sites.handle(id) else { return false };
        let folded = self.live.remove(&self.sites, h);
        self.sites.release(h);
        folded
    }

    /// The folded skyline, in insertion order.
    pub fn result(&self) -> Vec<Tuple> {
        self.live.result(&self.sites)
    }

    /// The folded skyline's ids, sorted.
    pub fn result_ids(&self) -> Vec<TupleId> {
        self.live.result_ids(&self.sites)
    }

    /// The table of folded sites.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// The maintainer over [`sites`](Self::sites).
    pub fn live(&self) -> &LiveSkyline {
        &self.live
    }

    /// [`LiveSkyline::check_invariants`] over the fold's own table, plus
    /// one table row per live id.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.live.check_invariants(&self.sites)?;
        if self.live.live_len() != self.sites.len() {
            return Err(format!(
                "{} live ids, {} table rows",
                self.live.live_len(),
                self.sites.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::algo::bnl;
    use proptest::prelude::*;

    /// The `BTreeMap`-and-`retain` maintainer over `(id, tuple)` copies
    /// that `LiveSkyline` replaced, kept as the reference its bookkeeping
    /// must reproduce call for call.
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

    /// The members of `f`, ids and tuples, in order.
    fn members(f: &LiveFold) -> Vec<(TupleId, Tuple)> {
        f.live.sky.iter().map(|&h| (f.sites.id(h), f.sites.tuple(h).clone())).collect()
    }

    /// Every live id of `f` with its owner (`None` for a member), by id.
    fn owners(f: &LiveFold) -> Vec<(TupleId, Option<TupleId>)> {
        let mut out: Vec<_> = f
            .live
            .index
            .iter()
            .map(|(&h, &slot)| {
                let owner = (slot != SKY).then(|| f.sites.id(slot.owner));
                (f.sites.id(h), owner)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Everything observable of `f` equals the reference's: members in
    /// order, each parked id's owner and both counters.
    fn assert_matches_reference(f: &LiveFold, rf: &RefLive, at: &str) {
        assert_eq!(members(f), rf.sky, "{at}: members in order");
        assert_eq!(owners(f), rf.owners(), "{at}: owners");
        assert_eq!(f.live.promotions, rf.promotions, "{at}: promotions");
        assert_eq!(f.live.duplicates_ignored, rf.duplicates_ignored, "{at}: duplicates");
        if let Err(e) = f.check_invariants() {
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
        let mut f = LiveFold::default();
        assert!(f.insert(TupleId(1, 0), t(&[1.0, 1.0])));
        assert!(!f.insert(TupleId(2, 0), t(&[2.0, 2.0])));
        assert!(!f.insert(TupleId(3, 0), t(&[3.0, 3.0])));
        assert_eq!(f.live.len(), 1);
        assert_eq!(f.live.live_len(), 3);
        assert!(f.remove(&TupleId(1, 0)));
        // 2 promoted; 3 re-parked under 2.
        assert_eq!(f.result_ids(), vec![TupleId(2, 0)]);
        assert_eq!(f.live.live_len(), 2);
        assert_eq!(f.live.promotions, 1);
        f.check_invariants().unwrap();
    }

    #[test]
    fn inserting_dominator_absorbs_members_and_their_buckets() {
        let mut f = LiveFold::default();
        f.insert(TupleId(1, 0), t(&[5.0, 5.0]));
        f.insert(TupleId(2, 0), t(&[6.0, 6.0])); // parked under 1
        f.insert(TupleId(3, 0), t(&[1.0, 9.0]));
        assert!(f.insert(TupleId(4, 0), t(&[2.0, 2.0]))); // evicts 1 (+bucket)
        assert_eq!(f.result_ids(), vec![TupleId(3, 0), TupleId(4, 0)]);
        assert_eq!(f.live.live_len(), 4);
        f.check_invariants().unwrap();
        // Removing the absorber resurfaces the whole chain.
        f.remove(&TupleId(4, 0));
        assert_eq!(f.result_ids(), vec![TupleId(1, 0), TupleId(3, 0)]);
        f.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_ids_are_ignored_and_counted() {
        let mut f = LiveFold::default();
        assert!(f.insert(TupleId(1, 0), t(&[1.0])));
        assert!(!f.insert(TupleId(1, 0), t(&[0.5])));
        assert_eq!(f.live.duplicates_ignored, 1);
        assert_eq!(f.live.live_len(), 1);
        assert_eq!(f.result(), vec![t(&[1.0])], "the first state stays");
    }

    #[test]
    fn remove_of_unknown_id_is_false() {
        // A handle that is live in the table but not in this maintainer,
        // as a diagram cell sees a site outside its disk.
        let mut sites = SiteTable::new();
        let h = sites.insert(TupleId(9, 9), t(&[1.0]));
        let mut ls = LiveSkyline::new();
        assert!(!ls.remove(&sites, h));
        assert!(ls.is_empty());
    }

    #[test]
    fn removing_parked_tuple_leaves_skyline_untouched() {
        let mut f = LiveFold::default();
        f.insert(TupleId(1, 0), t(&[1.0]));
        f.insert(TupleId(2, 0), t(&[2.0]));
        assert!(f.remove(&TupleId(2, 0)));
        assert_eq!(f.result_ids(), vec![TupleId(1, 0)]);
        assert_eq!(f.live.live_len(), 1);
        assert_eq!(f.live.promotions, 0);
        f.check_invariants().unwrap();
    }

    #[test]
    fn seeded_interleaving_matches_recompute_oracle() {
        // A deterministic churn of inserts and removes; after every step
        // the skyline must equal the recompute oracle over live tuples.
        let mut f = LiveFold::default();
        let mut live: BTreeMap<TupleId, Tuple> = BTreeMap::new();
        let mut h = 0x5EEDu64;
        for step in 0..400u64 {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = TupleId(h % 40, 0);
            let remove = step % 3 == 2;
            if remove {
                let removed = f.remove(&id);
                assert_eq!(removed, live.remove(&id).is_some());
            } else {
                let attrs = vec![(h >> 8) as f64 % 17.0, (h >> 16) as f64 % 17.0];
                let tup = t(&attrs);
                let fresh = !live.contains_key(&id);
                let _ = f.insert(id, tup.clone());
                if fresh {
                    live.insert(id, tup);
                }
            }
            assert_eq!(f.result_ids(), oracle(&live), "step {step}");
            assert_eq!(f.live.live_len(), live.len());
        }
        f.check_invariants().unwrap();
    }

    #[test]
    fn cells_share_one_table_and_a_freed_handle_is_reused() {
        // Two maintainers over one table, as two diagram cells: a row
        // either holds is one copy, released once both dropped it, and the
        // next new row takes its handle without disturbing the live rows.
        let mut sites = SiteTable::new();
        let (mut a, mut b) = (LiveSkyline::new(), LiveSkyline::new());
        let shared = sites.insert(TupleId(1, 0), t(&[1.0, 1.0]));
        let only_a = sites.insert(TupleId(2, 0), t(&[2.0, 2.0]));
        let only_b = sites.insert(TupleId(3, 0), t(&[0.5, 9.0]));
        for h in [shared, only_a] {
            a.insert(&sites, h);
        }
        for h in [shared, only_b] {
            b.insert(&sites, h);
        }
        assert!(a.remove(&sites, shared) && b.remove(&sites, shared));
        sites.release(shared);
        assert_eq!(a.result_ids(&sites), [TupleId(2, 0)], "promoted");
        let fresh = sites.insert(TupleId(4, 0), t(&[0.1, 0.1]));
        assert_eq!(fresh, shared, "the freed handle comes back first");
        assert!(a.insert(&sites, fresh));
        assert_eq!(a.result_ids(&sites), [TupleId(4, 0)]);
        assert_eq!(b.result_ids(&sites), [TupleId(3, 0)]);
        a.check_invariants(&sites).unwrap();
        b.check_invariants(&sites).unwrap();
        assert_eq!(sites.len(), 3);
    }

    #[test]
    fn a_dead_handle_fails_the_invariants() {
        let mut sites = SiteTable::new();
        let mut ls = LiveSkyline::new();
        let a = sites.insert(TupleId(1, 0), t(&[1.0]));
        let b = sites.insert(TupleId(2, 0), t(&[2.0]));
        ls.insert(&sites, a);
        ls.insert(&sites, b);
        sites.release(b);
        let err = ls.check_invariants(&sites).unwrap_err();
        assert!(err.contains("names no live row"), "{err}");
    }

    #[test]
    fn compacted_bucket_keeps_rows_indexed_and_orphans_in_arrival_order() {
        // 100 mutually incomparable tuples parked under one member; the
        // 51st removal compacts the bucket, the nine after it find their
        // rows through the re-index, and removing the owner promotes the
        // 40 survivors in arrival order.
        let mut f = LiveFold::default();
        let mut rf = RefLive::default();
        let owner = TupleId(1_000, 0);
        f.insert(owner, t(&[0.0, 0.0]));
        rf.insert(owner, t(&[0.0, 0.0]));
        for i in 0..100u64 {
            let tup = t(&[1.0 + i as f64, 200.0 - i as f64]);
            assert!(!f.insert(TupleId(i, 0), tup.clone()));
            rf.insert(TupleId(i, 0), tup);
        }
        assert_matches_reference(&f, &rf, "parked");
        let gone: Vec<u64> = (0..100).filter(|i| i % 5 != 0 && i % 5 != 3).collect();
        assert_eq!(gone.len(), 60);
        // Remove from both ends inwards, so compaction happens mid-bucket.
        let mut order = gone.clone();
        order.sort_by_key(|&i| i.min(99 - i));
        for (k, i) in order.iter().enumerate() {
            assert!(f.remove(&TupleId(*i, 0)));
            rf.remove(&TupleId(*i, 0));
            assert_matches_reference(&f, &rf, &format!("removal {k} of {i}"));
        }
        let oh = f.sites.handle(&owner).unwrap();
        assert!(f.live.shadow[&oh].rows.len() < 100, "the bucket was compacted");
        assert!(f.remove(&owner));
        rf.remove(&owner);
        assert_matches_reference(&f, &rf, "owner removed");
        let survivors: Vec<TupleId> =
            (0..100).filter(|i| !gone.contains(i)).map(|i| TupleId(i, 0)).collect();
        let members: Vec<TupleId> = members(&f).into_iter().map(|(id, _)| id).collect();
        assert_eq!(members, survivors);
        assert_eq!(f.live.promotions, 40);
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
            let mut f = LiveFold::default();
            let mut rf = RefLive::default();
            let strong = TupleId(0, 0);
            prop_assert_eq!(f.insert(strong, t(&vec![0.0; dim])), rf.insert(strong, t(&vec![0.0; dim])));
            for (i, v) in pile.iter().enumerate() {
                let id = TupleId(i as u64 % 48, 1);
                prop_assert_eq!(f.insert(id, attrs(v)), rf.insert(id, attrs(v)));
            }
            assert_matches_reference(&f, &rf, "pile");
            for (step, (kind, raw, v)) in ops.iter().enumerate() {
                // Ids of both families, so removes hit the pile and the
                // strong member too.
                let id = TupleId(*raw / 2, *raw % 2);
                if *kind < 4 {
                    prop_assert_eq!(f.insert(id, attrs(v)), rf.insert(id, attrs(v)), "step {}", step);
                } else {
                    prop_assert_eq!(f.remove(&id), rf.remove(&id), "step {}", step);
                }
                assert_matches_reference(&f, &rf, &format!("step {step}"));
            }
        }

        /// Remove → re-add interleavings that recycle handles: every
        /// removal releases its row and the next new id takes that handle
        /// back, while the other rows stay live, keep their handles and
        /// keep their tuples. The reference still matches call for call.
        #[test]
        fn recycled_handles_leave_the_live_rows_alone(
            dim in 1usize..=4,
            background in prop::collection::vec(prop::collection::vec(0u16..8, 4), 1..40),
            ops in prop::collection::vec(
                (any::<bool>(), 0u64..12, prop::collection::vec(0u16..8, 4)),
                1..120,
            ),
        ) {
            let attrs = |v: &[u16]| t(&v[..dim].iter().map(|&x| f64::from(x)).collect::<Vec<_>>());
            let mut f = LiveFold::default();
            let mut rf = RefLive::default();
            for (i, v) in background.iter().enumerate() {
                prop_assert_eq!(f.insert(TupleId(i as u64, 1), attrs(v)), rf.insert(TupleId(i as u64, 1), attrs(v)));
            }
            let rows = |f: &LiveFold| -> BTreeMap<TupleId, (u32, Tuple)> {
                f.sites.iter().map(|(h, id, t)| (*id, (h, t.clone()))).collect()
            };
            let mut freed: Vec<u32> = Vec::new();
            for (step, (remove, raw, v)) in ops.iter().enumerate() {
                // Churn ids of one family; every fourth op also hits the
                // background, so owners with buckets get removed too.
                let id = if step % 4 == 3 { TupleId(*raw % background.len() as u64, 1) } else { TupleId(*raw, 0) };
                let before = rows(&f);
                if *remove {
                    let h = f.sites.handle(&id);
                    prop_assert_eq!(f.remove(&id), rf.remove(&id), "step {}", step);
                    freed.extend(h);
                } else {
                    let fresh = f.sites.handle(&id).is_none();
                    prop_assert_eq!(f.insert(id, attrs(v)), rf.insert(id, attrs(v)), "step {}", step);
                    if fresh {
                        if let Some(h) = freed.pop() {
                            prop_assert_eq!(f.sites.handle(&id), Some(h), "step {}: LIFO reuse", step);
                        }
                    }
                }
                let after = rows(&f);
                for (other, row) in &before {
                    if *other != id {
                        prop_assert_eq!(after.get(other), Some(row), "step {}: {:?} moved", step, other);
                    }
                }
                assert_matches_reference(&f, &rf, &format!("step {step}"));
            }
        }
    }
}
