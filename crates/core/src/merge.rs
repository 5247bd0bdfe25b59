//! Incremental skyline assembly (Section 4.3 of the paper).
//!
//! The query originator merges each incoming local result `SK'_i` into its
//! running result `SK_org` with a nested loop that (a) removes duplicates —
//! identified by the `(x, y)` values alone, since no two sites share a
//! location — and (b) resolves dominance in *both* directions: an incoming
//! tuple may evict previously accepted tuples and vice versa.
//!
//! [`SkylineMerger`] is *insert-only*: evicted tuples are discarded, so
//! nothing could come back if a member later left. One-shot queries never
//! need that; continuous monitoring does, and uses
//! [`LiveSkyline`](crate::LiveSkyline) instead, which parks every dominated
//! tuple in its dominator's bucket and promotes on removal.

use sim_obs::dethash::DetHashSet;

use crate::dominance::dominates;
use crate::tuple::Tuple;

/// How a member row relates to an incoming tuple.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Relation {
    /// The member dominates the incoming tuple.
    Dominates,
    /// The incoming tuple dominates the member.
    Dominated,
    Incomparable,
}

/// Both dominance directions in one pass over a width-`D` row. Tracks
/// whether any attribute of the row is strictly smaller (`any_lt`) or
/// strictly larger (`any_gt`) than the candidate's; `dominates(row, t)` is
/// then `any_lt && !any_gt` and `dominates(t, row)` is `any_gt && !any_lt`.
#[inline(always)]
fn relate<const D: usize>(row: &[f64], t: &[f64]) -> Relation {
    let row: &[f64; D] = row.try_into().expect("bucket row narrower than the merge width");
    let t: &[f64; D] = t.try_into().expect("candidate narrower than the merge width");
    let mut any_lt = false;
    let mut any_gt = false;
    let mut k = 0;
    while k < D {
        any_lt |= row[k] < t[k];
        any_gt |= row[k] > t[k];
        k += 1;
    }
    match (any_lt, any_gt) {
        (true, false) => Relation::Dominates,
        (false, true) => Relation::Dominated,
        _ => Relation::Incomparable,
    }
}

/// [`relate`] at the rows' width: monomorphized for d = 1..=5, the generic
/// test in both directions otherwise.
#[inline(always)]
fn relate_rows(row: &[f64], t: &[f64]) -> Relation {
    match t.len() {
        1 => relate::<1>(row, t),
        2 => relate::<2>(row, t),
        3 => relate::<3>(row, t),
        4 => relate::<4>(row, t),
        5 => relate::<5>(row, t),
        _ if dominates(row, t) => Relation::Dominates,
        _ if dominates(t, row) => Relation::Dominated,
        _ => Relation::Incomparable,
    }
}

/// Signatures checked per "could any row here pass?" reduction; the
/// reduction is branch-free over the block, so it vectorises.
const BLOCK: usize = 16;

/// Most signature fields a region mask takes a bit from (64 buckets).
const MASK_FIELDS: u32 = 6;

/// Members per bucket a refit aims at: below twice this, one bucket.
const ROWS_PER_BUCKET: usize = 64;

/// The map from a member's attributes to its one-word signature, and from
/// a signature to its region mask.
///
/// The word holds `dims` fields of `fw = 64 / dims` bits, attribute `k` in
/// field `k`: `(v - lo[k]) * scale[k]` clamped to the field's low `fw - 1`
/// bits, its top (guard) bit left clear. `lo` and `scale` are finite and
/// `scale ≥ 0`, so the map is monotone under float `<=` on every
/// attribute: a row can dominate `t` only if its signature is `≤` `t`'s in
/// every field, and `t` can evict a row only the other way round. Values
/// outside the range the map was fitted to clamp to a field's ends, which
/// keeps it monotone and only costs selectivity. Setting every guard in
/// the minuend lets one 64-bit subtraction compare all fields: a field
/// keeps its guard exactly when its subtrahend is not larger, and no
/// borrow leaves a field. `guards == 0` (no room for a value bit and a
/// guard per attribute) makes every comparison pass.
///
/// The mask holds the top value bit of the first `mask_fields` fields —
/// which half of the fitted range each of those attributes lies in. A
/// field `≤` another has a top bit `≤` the other's, so a row can dominate
/// `t` only if its mask is a submask of `t`'s, and `t` can evict it only
/// if its mask is a supermask of `t`'s.
#[derive(Debug, Default, Clone)]
struct Signing {
    lo: Vec<f64>,
    scale: Vec<f64>,
    fw: u32,
    guards: u64,
    /// Mask width: `log2(fitted_rows / ROWS_PER_BUCKET)`, capped at
    /// `MASK_FIELDS` and the field count, 0 without guards.
    mask_fields: u32,
    /// Member count the map was last fitted to; doubling it refits.
    fitted_rows: usize,
}

impl Signing {
    /// Fits the map to the per-attribute range of `fitted_rows` rows of
    /// width `dims` (NaN never enters a bucket).
    fn fit<'a>(dims: usize, rows: impl Iterator<Item = &'a [f64]>, fitted_rows: usize) -> Self {
        let fw = if dims == 0 { 0 } else { 64 / dims as u32 };
        if fw < 2 {
            return Signing { fitted_rows, ..Signing::default() };
        }
        let (mut lo, mut hi) = (vec![f64::INFINITY; dims], vec![f64::NEG_INFINITY; dims]);
        for row in rows {
            for (k, &v) in row.iter().enumerate().filter(|(_, v)| v.is_finite()) {
                lo[k] = lo[k].min(v);
                hi[k] = hi[k].max(v);
            }
        }
        let field_max = ((1u64 << (fw - 1)) - 1) as f64;
        let scale = (lo.iter_mut().zip(hi))
            .map(|(lo, hi)| match field_max / (hi - *lo) {
                scale if scale.is_finite() && scale > 0.0 => scale,
                _ => {
                    *lo = 0.0;
                    0.0
                }
            })
            .collect();
        let guards = (0..dims as u32).map(|k| 1u64 << (k * fw + fw - 1)).sum();
        let mask_fields =
            (fitted_rows / ROWS_PER_BUCKET).max(1).ilog2().min(MASK_FIELDS).min(dims as u32);
        Signing { lo, scale, fw, guards, mask_fields, fitted_rows }
    }

    fn sign(&self, attrs: &[f64]) -> u64 {
        if self.guards == 0 {
            return 0;
        }
        let field_max = (1u64 << (self.fw - 1)) - 1;
        let mut sig = 0;
        for (k, &v) in attrs.iter().enumerate() {
            // `as` saturates (and sends a 0 · ∞ NaN to 0): still monotone.
            let field = (((v - self.lo[k]) * self.scale[k]) as u64).min(field_max);
            sig |= field << (k as u32 * self.fw);
        }
        sig
    }

    /// `a ≤ b` in every field.
    #[inline(always)]
    fn le(&self, a: u64, b: u64) -> bool {
        (b | self.guards).wrapping_sub(a) & self.guards == self.guards
    }

    /// The region mask of signature `sig`: bit `k` is field `k`'s top value
    /// bit.
    #[inline]
    fn mask(&self, sig: u64) -> usize {
        (0..self.mask_fields)
            .fold(0, |mask, k| mask | ((sig >> (k * self.fw + self.fw - 2)) & 1) << k)
            as usize
    }
}

/// The live members whose signatures share one region mask, mirrored
/// row-major so a pass over them skims contiguous words.
#[derive(Debug, Default, Clone)]
struct Bucket {
    /// Member attributes, row width `dims`.
    arena: Vec<f64>,
    /// `who[row]` = index into `current` of the member at that row.
    who: Vec<u32>,
    /// `sigs[row]` = that member's signature under `signing`.
    sigs: Vec<u64>,
}

impl Bucket {
    #[inline(always)]
    fn row(&self, row: usize, d: usize) -> &[f64] {
        &self.arena[row * d..(row + 1) * d]
    }

    fn push(&mut self, attrs: &[f64], member: u32, sig: u64) {
        self.arena.extend_from_slice(attrs);
        self.who.push(member);
        self.sigs.push(sig);
    }

    /// The first row from `from` on whose signature passes `maybe` and
    /// whose attributes then pass `hit`. `maybe` runs branch-free over
    /// blocks of `BLOCK` signatures, so a block it rules out costs a few
    /// instructions.
    #[inline(always)]
    fn find(
        &self,
        d: usize,
        from: usize,
        maybe: impl Fn(u64) -> bool,
        hit: impl Fn(&[f64]) -> bool,
    ) -> Option<usize> {
        self.sigs[from..].chunks(BLOCK).enumerate().find_map(|(c, block)| {
            if !block.iter().fold(false, |any, &s| any | maybe(s)) {
                return None;
            }
            let rows = (from + c * BLOCK..).zip(block);
            rows.filter(|&(_, &s)| maybe(s))
                .map(|(row, _)| row)
                .find(|&row| hit(self.row(row, d)))
        })
    }

    /// Removes `row`, moving the last row into its place; returns the
    /// removed row's member.
    fn swap_remove(&mut self, row: usize, d: usize) -> u32 {
        let last = self.who.len() - 1;
        self.arena.copy_within(last * d..(last + 1) * d, row * d);
        self.arena.truncate(last * d);
        self.sigs.swap_remove(row);
        self.who.swap_remove(row)
    }
}

/// The submasks of `mask`, descending from `mask` to 0.
fn submasks(mask: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(mask), move |&sub| (sub != 0).then(|| (sub - 1) & mask))
}

/// The supermasks of `mask` up to `full`, ascending from `mask`.
fn supermasks(mask: usize, full: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(mask), move |&sup| (sup != full).then(|| (sup + 1) | mask))
}

/// Hash key reproducing [`Tuple::same_site`]'s float `==` semantics for
/// non-NaN coordinates: `+ 0.0` collapses `-0.0` onto `+0.0` so the two
/// bit patterns that compare equal share one key. NaN coordinates never
/// compare equal to anything (including themselves), so NaN-sited tuples
/// stay out of the set entirely.
#[inline]
fn site_key(x: f64, y: f64) -> (u64, u64) {
    ((x + 0.0).to_bits(), (y + 0.0).to_bits())
}

/// Running merge state on the query originator.
///
/// Internally each live member's attributes and one-word signature
/// (`Signing`) are mirrored in a *bucket* keyed by the member's region
/// mask, and accepted sites are indexed in a hash set so the duplicate
/// check is O(1). An insert walks only the buckets whose members could
/// stand in a dominance relation with it: the submasks of its own mask
/// when looking for a member that dominates it, the supermasks when
/// evicting the members it dominates. Within a bucket the signature
/// prefilter leaves the exact test to the few rows it cannot rule out.
/// The bucket count follows the member count at each refit: one bucket
/// below 128 members, about 64 members a bucket above, at most 64
/// buckets. Results, result order (insertion order of `current`) and the
/// public counters are identical to the reference nested loop: the
/// members form an antichain, over which an insert's outcome does not
/// depend on the order members are visited.
///
/// ```
/// use skyline_core::{SkylineMerger, Tuple};
///
/// let mut m = SkylineMerger::new();
/// m.insert(Tuple::new(0.0, 0.0, vec![5.0, 5.0]));
/// m.insert(Tuple::new(1.0, 1.0, vec![1.0, 1.0])); // evicts the first
/// assert_eq!(m.result().len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct SkylineMerger {
    /// Members in insertion order. Between the public entry points it
    /// holds live members only; inside one, entries listed in `evicted`
    /// are dead and await [`Self::compact`].
    current: Vec<Tuple>,
    /// Indices into `current` evicted since the last compaction.
    evicted: Vec<u32>,
    /// `buckets[mask]` holds the live members whose signature has that
    /// region mask; `1 << signing.mask_fields` of them. Unused once
    /// `reference_only` is set.
    buckets: Vec<Bucket>,
    signing: Signing,
    /// Attribute width the buckets were built for (set by the first insert).
    dims: usize,
    /// Set by an insert the buckets cannot take — a differing attribute
    /// width (rows would disagree), or a NaN attribute (dominance stops
    /// being transitive, so the members stop being an antichain and the
    /// visiting order starts to matter). The merger then stays on the
    /// reference tuple-at-a-time path.
    reference_only: bool,
    /// Site index of the live members (NaN-sited members excluded).
    /// Point operations only.
    sites: DetHashSet<(u64, u64)>,
    /// Duplicates dropped so far (for metrics: overlap between partitions).
    pub duplicates_removed: u64,
    /// Tuples rejected or evicted because they were dominated.
    pub dominated_removed: u64,
}

impl SkylineMerger {
    /// Empty merger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merger seeded with the originator's own local skyline. The seed is
    /// inserted tuple by tuple, so it need not be internally minimal.
    pub fn with_seed(seed: Vec<Tuple>) -> Self {
        let mut m = Self::new();
        m.insert_batch(seed);
        m
    }

    /// `true` when an accepted member shares `t`'s site under float `==`.
    #[inline]
    fn is_duplicate(&self, t: &Tuple) -> bool {
        !t.x.is_nan() && !t.y.is_nan() && self.sites.contains(&site_key(t.x, t.y))
    }

    /// Members not evicted (all of `current` outside an entry point).
    fn live(&self) -> usize {
        self.current.len() - self.evicted.len()
    }

    /// Appends `t` as a new member, updating every index. `t_sig` is `t`'s
    /// signature under the current map, which is refitted here once the
    /// member count has doubled.
    fn push_member(&mut self, t: Tuple, t_sig: u64) {
        if !t.x.is_nan() && !t.y.is_nan() {
            self.sites.insert(site_key(t.x, t.y));
        }
        if !self.reference_only {
            let member = self.current.len() as u32;
            self.buckets[self.signing.mask(t_sig)].push(&t.attrs, member, t_sig);
        }
        self.current.push(t);
        if !self.reference_only && self.live() >= 2 * self.signing.fitted_rows {
            self.refit();
        }
    }

    /// Refits the signature map to the live members and re-buckets them
    /// under it. A one-bucket refit re-signs in place: re-bucketing at
    /// every doubling made one-bucket merges 11–22 % slower (DESIGN §10.6).
    fn refit(&mut self) {
        let d = self.dims;
        let rows = self.buckets.iter().flat_map(|b| (0..b.who.len()).map(move |r| b.row(r, d)));
        let signing = Signing::fit(d, rows, self.live());
        if signing.mask_fields == 0 && self.buckets.len() == 1 {
            let b = &mut self.buckets[0];
            for (r, sig) in b.sigs.iter_mut().enumerate() {
                *sig = signing.sign(&b.arena[r * d..(r + 1) * d]);
            }
        } else {
            let fresh = vec![Bucket::default(); 1 << signing.mask_fields];
            for b in std::mem::replace(&mut self.buckets, fresh) {
                for (r, &member) in b.who.iter().enumerate() {
                    let sig = signing.sign(b.row(r, d));
                    self.buckets[signing.mask(sig)].push(b.row(r, d), member, sig);
                }
            }
        }
        self.signing = signing;
    }

    /// Whether a live member dominates `t`. Only the buckets of submasks
    /// of `t`'s mask can hold one; `t`'s own, where its nearest neighbours
    /// are, goes first.
    fn has_dominator(&self, t_mask: usize, t_sig: u64, t: &[f64]) -> bool {
        let (d, signing) = (self.dims, &self.signing);
        let maybe = |s| signing.le(s, t_sig);
        let dominates = |row: &[f64]| relate_rows(row, t) == Relation::Dominates;
        submasks(t_mask).any(|sub| self.buckets[sub].find(d, 0, maybe, dominates).is_some())
    }

    /// Evicts every live member `t` dominates. Only the buckets of
    /// supermasks of `t`'s mask can hold one; `current` only records who
    /// died.
    fn evict_dominated(&mut self, t_mask: usize, t_sig: u64, t: &[f64]) {
        let Self { current, evicted, buckets, signing, dims, sites, dominated_removed, .. } = self;
        let maybe = |s| signing.le(t_sig, s);
        let evicts = |row: &[f64]| relate_rows(row, t) == Relation::Dominated;
        for sup in supermasks(t_mask, buckets.len() - 1) {
            let (b, mut from) = (&mut buckets[sup], 0);
            while let Some(row) = b.find(*dims, from, maybe, evicts) {
                let member = b.swap_remove(row, *dims);
                let c = &current[member as usize];
                if !c.x.is_nan() && !c.y.is_nan() {
                    sites.remove(&site_key(c.x, c.y));
                }
                *dominated_removed += 1;
                evicted.push(member);
                // The row moved into `row` is still unchecked.
                from = row;
            }
        }
    }

    /// Inserts one incoming tuple. Returns `true` when the tuple was
    /// accepted into the current skyline.
    pub fn insert(&mut self, t: Tuple) -> bool {
        let accepted = self.insert_deferred(t);
        self.compact();
        accepted
    }

    /// [`Self::insert`] that leaves the members it evicts in `current`,
    /// listed in `evicted`, for the caller to [`Self::compact`] away.
    fn insert_deferred(&mut self, t: Tuple) -> bool {
        // Duplicate site check first: an exact copy of an already accepted
        // site must not be compared for dominance with itself.
        if self.is_duplicate(&t) {
            self.duplicates_removed += 1;
            return false;
        }
        if self.current.is_empty() {
            // The first insert (an accepted insert leaves a member behind
            // for good): adopt the newcomer's width, one bucket.
            self.dims = t.attrs.len();
            self.buckets.push(Bucket::default());
        }
        if self.reference_only || t.attrs.len() != self.dims || t.attrs.iter().any(|v| v.is_nan()) {
            return self.insert_reference(t);
        }

        // The members are an antichain and dominance is transitive, so a
        // member dominating `t` and a member dominated by `t` cannot
        // coexist: either `t` is rejected, or it evicts and is accepted.
        let t_sig = self.signing.sign(&t.attrs);
        let t_mask = self.signing.mask(t_sig);
        if self.has_dominator(t_mask, t_sig, &t.attrs) {
            self.dominated_removed += 1;
            return false;
        }
        self.evict_dominated(t_mask, t_sig, &t.attrs);
        self.push_member(t, t_sig);
        true
    }

    /// Drops the members evicted since the last compaction from `current`
    /// (insertion order preserved) and remaps the buckets' `who`.
    fn compact(&mut self) {
        if self.evicted.is_empty() {
            return;
        }
        const DEAD: u32 = u32::MAX;
        let mut new_index = vec![0u32; self.current.len()];
        for &member in &self.evicted {
            new_index[member as usize] = DEAD;
        }
        self.evicted.clear();
        let (mut old, mut kept) = (0, 0);
        self.current.retain(|_| {
            let keep = new_index[old] != DEAD;
            if keep {
                new_index[old] = kept;
                kept += 1;
            }
            old += 1;
            keep
        });
        for w in self.buckets.iter_mut().flat_map(|b| &mut b.who) {
            *w = new_index[*w as usize];
        }
    }

    /// The reference nested-loop insert, used once an insert arrived that
    /// the buckets cannot take (see `reference_only`). Semantically this is
    /// the historical implementation verbatim; once entered, the merger
    /// stays on this path.
    fn insert_reference(&mut self, t: Tuple) -> bool {
        self.compact();
        self.reference_only = true;
        self.buckets.clear();
        let mut dominated = false;
        let before = self.current.len();
        let sites = &mut self.sites;
        self.current.retain(|c| {
            if dominated {
                return true;
            }
            if dominates(&c.attrs, &t.attrs) {
                dominated = true;
                true
            } else if dominates(&t.attrs, &c.attrs) {
                if !c.x.is_nan() && !c.y.is_nan() {
                    sites.remove(&site_key(c.x, c.y));
                }
                false
            } else {
                true
            }
        });
        self.dominated_removed += (before - self.current.len()) as u64;
        if dominated {
            self.dominated_removed += 1;
            false
        } else {
            self.push_member(t, 0);
            true
        }
    }

    /// Inserts every tuple of an incoming local result.
    pub fn insert_batch<I: IntoIterator<Item = Tuple>>(&mut self, batch: I) {
        for t in batch {
            self.insert_deferred(t);
        }
        self.compact();
    }

    /// Current merged skyline.
    pub fn result(&self) -> &[Tuple] {
        &self.current
    }

    /// Consumes the merger, returning the final skyline.
    pub fn into_result(self) -> Vec<Tuple> {
        self.current
    }

    /// Number of tuples currently held.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// `true` when no tuple has been accepted.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }
}

impl Extend<Tuple> for SkylineMerger {
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, iter: I) {
        self.insert_batch(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{self, bnl};

    #[test]
    fn duplicates_counted_and_dropped() {
        let mut m = SkylineMerger::new();
        let t = Tuple::new(1.0, 2.0, vec![3.0, 4.0]);
        assert!(m.insert(t.clone()));
        assert!(!m.insert(t));
        assert_eq!(m.len(), 1);
        assert_eq!(m.duplicates_removed, 1);
    }

    #[test]
    fn incoming_tuple_evicts_dominated_members() {
        let mut m = SkylineMerger::new();
        m.insert(Tuple::new(0.0, 0.0, vec![5.0, 5.0]));
        m.insert(Tuple::new(1.0, 0.0, vec![6.0, 4.0]));
        assert!(m.insert(Tuple::new(2.0, 0.0, vec![1.0, 1.0])));
        assert_eq!(m.len(), 1);
        assert_eq!(m.dominated_removed, 2);
    }

    #[test]
    fn dominated_incoming_tuple_is_rejected() {
        let mut m = SkylineMerger::new();
        m.insert(Tuple::new(0.0, 0.0, vec![1.0, 1.0]));
        assert!(!m.insert(Tuple::new(1.0, 0.0, vec![2.0, 2.0])));
        assert_eq!(m.dominated_removed, 1);
    }

    #[test]
    fn batched_merge_equals_centralized_skyline() {
        // Merging partition-local skylines must reproduce the skyline of the
        // deduplicated union, in any arrival order.
        let shared = Tuple::new(50.0, 50.0, vec![3.0, 3.0]);
        let p1 = vec![
            Tuple::new(0.0, 0.0, vec![1.0, 9.0]),
            shared.clone(),
            Tuple::new(1.0, 0.0, vec![8.0, 8.0]),
        ];
        let p2 = vec![
            Tuple::new(2.0, 0.0, vec![9.0, 1.0]),
            shared.clone(),
            Tuple::new(3.0, 0.0, vec![2.0, 8.5]),
        ];

        let mut union: Vec<Tuple> = p1.clone();
        union.extend(p2.iter().filter(|t| !t.same_site(&shared)).cloned());
        let expect_idx = bnl::skyline_indices(&union);
        let mut expect = algo::materialize(&union, &expect_idx);

        for order in [[0usize, 1], [1, 0]] {
            let parts = [&p1, &p2];
            let mut m = SkylineMerger::new();
            for &i in &order {
                m.insert_batch(parts[i].iter().cloned());
            }
            let mut got = m.into_result();
            let key = |t: &Tuple| (t.x.to_bits(), t.y.to_bits());
            got.sort_by_key(key);
            expect.sort_by_key(key);
            assert_eq!(got, expect, "order {order:?}");
        }
    }

    #[test]
    fn seeded_merger_minimizes_seed() {
        let seed = vec![Tuple::new(0.0, 0.0, vec![5.0]), Tuple::new(1.0, 0.0, vec![1.0])];
        let m = SkylineMerger::with_seed(seed);
        assert_eq!(m.len(), 1);
        assert_eq!(m.result()[0].attrs, vec![1.0]);
    }

    #[test]
    fn empty_state_queries() {
        let m = SkylineMerger::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert!(m.result().is_empty());
    }

    /// The nested-loop reference implementation, kept verbatim for
    /// differential testing.
    #[derive(Default)]
    struct ReferenceMerger {
        current: Vec<Tuple>,
        duplicates_removed: u64,
        dominated_removed: u64,
    }

    impl ReferenceMerger {
        fn insert(&mut self, t: Tuple) -> bool {
            if self.current.iter().any(|c| c.same_site(&t)) {
                self.duplicates_removed += 1;
                return false;
            }
            let mut dominated = false;
            let before = self.current.len();
            self.current.retain(|c| {
                if dominated {
                    return true;
                }
                if dominates(&c.attrs, &t.attrs) {
                    dominated = true;
                    true
                } else {
                    !dominates(&t.attrs, &c.attrs)
                }
            });
            self.dominated_removed += (before - self.current.len()) as u64;
            if dominated {
                self.dominated_removed += 1;
            } else {
                self.current.push(t);
            }
            !dominated
        }
    }

    /// Tuples by bit pattern: `==` would reject a NaN against itself and
    /// equate `-0.0` with `+0.0`.
    fn bits(tuples: &[Tuple]) -> Vec<(u64, u64, Vec<u64>)> {
        let attr_bits = |t: &Tuple| t.attrs.iter().map(|v| v.to_bits()).collect();
        tuples.iter().map(|t| (t.x.to_bits(), t.y.to_bits(), attr_bits(t))).collect()
    }

    /// The merger and the nested loop, fed the same operations and compared
    /// after every one of them.
    #[derive(Default)]
    struct Pair {
        fast: SkylineMerger,
        slow: ReferenceMerger,
        ops: usize,
    }

    impl Pair {
        fn insert(&mut self, t: Tuple) {
            assert_eq!(self.fast.insert(t.clone()), self.slow.insert(t), "op {}", self.ops);
            self.check();
        }

        fn insert_batch(&mut self, batch: Vec<Tuple>) {
            self.fast.insert_batch(batch.iter().cloned());
            for t in batch {
                self.slow.insert(t);
            }
            self.check();
        }

        fn check(&mut self) {
            let (fast, slow, op) = (&self.fast, &self.slow, self.ops);
            assert_eq!(bits(fast.result()), bits(&slow.current), "result after op {op}");
            assert_eq!(fast.len(), slow.current.len(), "len after op {op}");
            assert_eq!(fast.is_empty(), slow.current.is_empty(), "is_empty after op {op}");
            assert_eq!(fast.duplicates_removed, slow.duplicates_removed, "duplicates, op {op}");
            assert_eq!(fast.dominated_removed, slow.dominated_removed, "dominated, op {op}");
            // The mirrors describe exactly the live members.
            assert!(fast.evicted.is_empty(), "compacted after op {op}");
            if !fast.reference_only {
                let d = fast.dims;
                // (No bucket before the first insert.)
                assert_eq!(fast.buckets.len().max(1), 1 << fast.signing.mask_fields, "op {op}");
                let mut seen = vec![false; fast.current.len()];
                for (mask, b) in fast.buckets.iter().enumerate() {
                    assert_eq!(b.sigs.len(), b.who.len(), "op {op}");
                    assert_eq!(b.arena.len(), b.who.len() * d, "op {op}");
                    for (row, &member) in b.who.iter().enumerate() {
                        assert!(!std::mem::replace(&mut seen[member as usize], true), "op {op}");
                        let attrs = &fast.current[member as usize].attrs;
                        assert_eq!(b.row(row, d), attrs.as_slice(), "op {op}");
                        assert_eq!(b.sigs[row], fast.signing.sign(attrs), "op {op}");
                        assert_eq!(fast.signing.mask(b.sigs[row]), mask, "op {op}: wrong bucket");
                    }
                }
                let rows: usize = fast.buckets.iter().map(|b| b.who.len()).sum();
                assert_eq!((rows, rows), (fast.len(), fast.live()), "bucket rows after op {op}");
            }
            self.ops += 1;
        }
    }

    /// Deterministic operation streams for [`Pair`].
    struct Stream {
        state: u64,
        dim: usize,
        next_site: u32,
    }

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.state =
                self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.state >> 33) % n
        }

        /// A tuple at a fresh site (one in eight re-uses an old one) whose
        /// attributes come from `value(self, k)`.
        fn tuple(&mut self, mut value: impl FnMut(&mut Self, usize) -> f64) -> Tuple {
            let site = if self.below(8) == 0 {
                self.below(u64::from(self.next_site) + 1) as u32
            } else {
                self.next_site += 1;
                self.next_site
            };
            let attrs = (0..self.dim).map(|k| value(self, k)).collect();
            Tuple::new(f64::from(site % 64), f64::from(site / 64), attrs)
        }

        /// Few distinct values: ties, dominance chains, multi-member
        /// evictions.
        fn dense(&mut self) -> Tuple {
            self.tuple(|s, _| s.below(7) as f64)
        }

        /// Near the plane `Σ attrs = const`: long antichains, so member
        /// counts run through several re-sign thresholds.
        fn antichain(&mut self, spread: f64) -> Tuple {
            let r = self.below(10_000) as f64 / 10_000.0;
            self.tuple(|s, k| match k {
                0 => r * spread,
                1 => (1.0 - r) * spread,
                _ => s.below(1000) as f64 * spread / 1000.0,
            })
        }

        /// Infinities, both zeros and magnitudes far outside anything the
        /// signature map was fitted to.
        fn extreme(&mut self) -> Tuple {
            const PALETTE: [f64; 8] =
                [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e300, -1e300, 5e-324, 3.5];
            self.tuple(|s, _| PALETTE[s.below(8) as usize])
        }

        fn run(&mut self, pair: &mut Pair, steps: usize, nan: bool) {
            for step in 0..steps {
                // The value range widens as the stream runs, so late
                // tuples clamp against a map fitted to early ones.
                let spread = [1.0, 50.0, 1e6][step * 3 / steps];
                let one = |s: &mut Self| match s.below(10) {
                    0..=3 => s.dense(),
                    4..=7 => s.antichain(spread),
                    8 => s.extreme(),
                    _ if nan => s.tuple(|s, _| [f64::NAN, 1.0, 4.0][s.below(3) as usize]),
                    _ => s.antichain(-spread),
                };
                if self.below(16) < 9 {
                    pair.insert(one(self));
                } else {
                    let len = self.below(40) as usize;
                    pair.insert_batch((0..len).map(|_| one(self)).collect());
                }
            }
        }
    }

    #[test]
    fn merger_matches_nested_loop_on_interleaved_operations() {
        // d = 40 leaves no room for a signature field: one bucket, with
        // every row passing its prefilter.
        for dim in [1, 2, 3, 4, 5, 6, 9, 40] {
            let mut pair = Pair::default();
            let mut stream = Stream { state: 0xA11CE + dim as u64, dim, next_site: 0 };
            stream.run(&mut pair, 260, false);
            assert!(!pair.fast.reference_only, "d={dim}: stayed on the bucketed path");
            assert!(pair.fast.signing.fitted_rows > 0 || pair.fast.is_empty());
        }
    }

    #[test]
    fn merger_matches_nested_loop_above_the_bucketing_threshold() {
        // Thousands of mostly incomparable inserts grow the merger through
        // every bucket count up to 64 (6 mask fields, the cap, from d = 6
        // on), and a NaN attribute at the end moves a bucketed merger to
        // the reference path.
        for dim in [2, 3, 4, 5, 6, 7, 9] {
            let mut pair = Pair::default();
            let mut stream = Stream { state: 0xB0C4E7 + dim as u64, dim, next_site: 0 };
            let cap = dim.min(6) as u32;
            let (mut steps, mut steps_at_cap) = (0, 0);
            while steps_at_cap < 6 {
                if stream.below(8) == 0 {
                    // Slightly inside or outside the plane: evicts a few
                    // members, or is rejected.
                    let spread = [0.99, 1.01][stream.below(2) as usize];
                    pair.insert(stream.antichain(spread));
                } else {
                    pair.insert_batch((0..64).map(|_| stream.antichain(1.0)).collect());
                }
                steps_at_cap += usize::from(pair.fast.signing.mask_fields == cap);
                steps += 1;
                assert!(steps < 500, "d={dim}: {} members, mask never widened", pair.fast.len());
            }
            let nan = (0..dim).map(|k| if k == 0 { f64::NAN } else { 0.5 }).collect();
            pair.insert(Tuple::new(-2.0, -2.0, nan)); // a site no stream tuple has
            pair.insert_batch((0..64).map(|_| stream.antichain(1.0)).collect());
            assert!(pair.fast.reference_only, "d={dim}: a NaN attribute arrived");
        }
    }

    #[test]
    fn merger_matches_nested_loop_once_nan_attributes_arrive() {
        // A NaN candidate can be dominated by one member while dominating
        // another — (7, 4) ≻ (NaN, 5) ≻ (3, 6), yet (7, 4) ⊁ (3, 6) — so the
        // nested loop's visiting order becomes part of the answer.
        let mut pair = Pair::default();
        pair.insert(Tuple::new(0.0, 0.0, vec![3.0, 6.0]));
        pair.insert(Tuple::new(1.0, 0.0, vec![7.0, 4.0]));
        pair.insert(Tuple::new(2.0, 0.0, vec![f64::NAN, 5.0]));
        assert_eq!(pair.fast.result(), &[Tuple::new(1.0, 0.0, vec![7.0, 4.0])]);
        assert_eq!(pair.fast.dominated_removed, 2);

        for dim in [1, 2, 3, 5, 7] {
            let mut pair = Pair::default();
            let mut stream = Stream { state: 0xBAD_F00D + dim as u64, dim, next_site: 0 };
            stream.run(&mut pair, 200, true);
            assert!(pair.fast.reference_only, "d={dim}: a NaN attribute arrived");
        }
    }

    #[test]
    fn eviction_inside_a_batch_survives_the_switch_to_the_reference_path() {
        // The batch evicts two members (deferred), then a NaN attribute
        // forces the reference path while those evictions are pending —
        // and there evicts (1, 9) before (2, 2) rejects it.
        let mut pair = Pair::default();
        pair.insert_batch(vec![
            Tuple::new(0.0, 0.0, vec![5.0, 5.0]),
            Tuple::new(1.0, 0.0, vec![6.0, 4.0]),
            Tuple::new(2.0, 0.0, vec![1.0, 9.0]),
        ]);
        pair.insert_batch(vec![
            Tuple::new(3.0, 0.0, vec![2.0, 2.0]),
            Tuple::new(4.0, 0.0, vec![f64::NAN, 7.0]),
            Tuple::new(5.0, 0.0, vec![0.5, 8.0]),
        ]);
        assert!(pair.fast.reference_only);
        assert_eq!(pair.fast.len(), 2);
        assert_eq!(pair.fast.dominated_removed, 4);
    }

    #[test]
    fn resign_thresholds_are_crossed_inside_one_batch() {
        // One batch grows an antichain from nothing through every doubling
        // up to 256 members; a second one, far outside the fitted range,
        // clamps every field and then evicts the lot.
        let mut pair = Pair::default();
        let chain = |i: u32, scale: f64| {
            Tuple::new(f64::from(i), scale, vec![f64::from(i) * scale, f64::from(300 - i) * scale])
        };
        pair.insert_batch((0..300).map(|i| chain(i, 1.0)).collect());
        assert_eq!(pair.fast.len(), 300);
        assert_eq!(pair.fast.signing.fitted_rows, 256);
        pair.insert_batch((0..300).map(|i| chain(i, -1e9)).collect());
        assert_eq!(pair.fast.len(), 300, "the second chain evicted the first");
        pair.insert(Tuple::new(-5.0, 0.0, vec![f64::NEG_INFINITY, f64::NEG_INFINITY]));
        assert_eq!(pair.fast.len(), 1);
        assert_eq!(pair.fast.dominated_removed, 600);
    }

    #[test]
    fn other_widths_after_the_merger_was_emptied_or_swept() {
        let mut pair = Pair::default();
        pair.insert_batch(
            (0..20)
                .map(|i| Tuple::new(f64::from(i), 0.0, vec![f64::from(i), f64::from(20 - i)]))
                .collect(),
        );
        // One tuple evicts every member …
        pair.insert(Tuple::new(50.0, 0.0, vec![-1.0, -1.0]));
        assert_eq!(pair.fast.len(), 1);
        // … and a wider one at its site is only a duplicate.
        pair.insert(Tuple::new(50.0, 0.0, vec![0.0, 0.0, 0.0]));
        assert_eq!(pair.fast.duplicates_removed, 1);
        assert!(!pair.fast.reference_only);

        // Genuinely mixed widths compare zipped prefixes on the reference
        // path; `dominates` debug-asserts equal widths, so only optimised
        // builds can run that comparison.
        if !cfg!(debug_assertions) {
            pair.insert_batch(vec![
                Tuple::new(0.0, 2.0, vec![-1.0, -1.0, 2.0]),
                Tuple::new(1.0, 2.0, vec![-2.0, 30.0]),
                Tuple::new(2.0, 2.0, vec![-3.0, -3.0, -3.0, 0.0]),
            ]);
            assert!(pair.fast.reference_only);
        }
    }

    #[test]
    fn signature_order_follows_attribute_order() {
        // a ≤ b on every attribute ⇒ sign(a) ≤ sign(b) in every field, for
        // values inside, outside and at the ends of the fitted range.
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -7.5,
            -0.0,
            0.0,
            5e-324,
            1.0,
            2.0,
            2.0000000001,
            9.0,
            1e300,
            f64::INFINITY,
        ];
        for dims in [1usize, 2, 5, 8, 32] {
            let arena: Vec<f64> = (0..4 * dims).map(|i| [1.0, 2.0, 9.0, -7.5][i / dims]).collect();
            let signing = Signing::fit(dims, arena.chunks(dims), 4);
            assert_ne!(signing.guards, 0);
            for (i, &lo) in values.iter().enumerate() {
                for &hi in &values[i..] {
                    let (a, b) = (signing.sign(&vec![lo; dims]), signing.sign(&vec![hi; dims]));
                    assert!(signing.le(a, b), "d={dims}: sign({lo}) ≤ sign({hi})");
                    assert_eq!(signing.le(b, a), a == b, "d={dims}: {lo} vs {hi}");
                }
            }
            // Fields are independent: raising one attribute never lowers
            // another field, and a mixed pair is ≤ in neither direction.
            if dims > 1 {
                let mut up = vec![1.0; dims];
                up[0] = 9.0;
                let mut down = vec![9.0; dims];
                down[0] = 1.0;
                let (a, b) = (signing.sign(&up), signing.sign(&down));
                assert!(!signing.le(a, b) && !signing.le(b, a), "d={dims}");
            }
        }
        assert_eq!(
            Signing::fit(33, [&[0.0; 33][..]].into_iter(), 1).guards,
            0,
            "33 fields do not fit"
        );
        assert_eq!(Signing::fit(0, std::iter::empty(), 5).guards, 0);
    }

    #[test]
    fn arena_merger_matches_reference_on_dense_stream() {
        // A small value universe forces heavy duplication, domination, and
        // multi-member evictions; compare states after every insert.
        for dim in 1..=5usize {
            let mut fast = SkylineMerger::new();
            let mut slow = ReferenceMerger::default();
            let mut state = 0x243f_6a88_85a3_08d3u64;
            for i in 0..400 {
                let mut attrs = Vec::with_capacity(dim);
                for _ in 0..dim {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    attrs.push(((state >> 33) % 7) as f64);
                }
                // Coarse site grid so same-site duplicates actually occur.
                let x = (i % 13) as f64;
                let y = (i % 11) as f64;
                let t = Tuple::new(x, y, attrs);
                fast.insert(t.clone());
                slow.insert(t);
                assert_eq!(fast.result(), slow.current.as_slice(), "dim {dim}, step {i}");
                assert_eq!(fast.duplicates_removed, slow.duplicates_removed, "dim {dim}, step {i}");
                assert_eq!(fast.dominated_removed, slow.dominated_removed, "dim {dim}, step {i}");
            }
        }
    }

    #[test]
    fn negative_zero_site_is_a_duplicate_of_positive_zero() {
        // same_site uses float ==, under which -0.0 == 0.0.
        let mut m = SkylineMerger::new();
        assert!(m.insert(Tuple::new(0.0, 0.0, vec![5.0])));
        assert!(!m.insert(Tuple::new(-0.0, -0.0, vec![1.0])));
        assert_eq!(m.duplicates_removed, 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn nan_sites_never_count_as_duplicates() {
        // NaN == NaN is false, so two NaN-sited tuples are distinct sites.
        let mut m = SkylineMerger::new();
        assert!(m.insert(Tuple::new(f64::NAN, 0.0, vec![5.0, 1.0])));
        assert!(m.insert(Tuple::new(f64::NAN, 0.0, vec![1.0, 5.0])));
        assert_eq!(m.duplicates_removed, 0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn extend_matches_insert_batch() {
        let batch =
            vec![Tuple::new(0.0, 0.0, vec![2.0, 2.0]), Tuple::new(1.0, 0.0, vec![1.0, 1.0])];
        let mut via_extend = SkylineMerger::default();
        via_extend.extend(batch.clone());
        let mut via_batch = SkylineMerger::new();
        via_batch.insert_batch(batch);
        assert_eq!(via_extend.result(), via_batch.result());
    }
}
