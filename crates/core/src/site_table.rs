//! One row per live site, named by a `u32` handle.
//!
//! A [`SkylineDiagram`](crate::SkylineDiagram) keeps one
//! [`LiveSkyline`](crate::LiveSkyline) per materialized cell, and a site
//! inside many cells' query disks belongs to each of them. The site's id,
//! location and attributes sit once in a [`SiteTable`]; every cell parks
//! and compares the row's handle instead of a copy of the tuple (DESIGN.md
//! §9.2). The monitor originator's fold keeps its table the same way.
//!
//! Handles are dense: a released handle goes on a free list and the next
//! new row takes the most recently released one first.

use std::collections::BTreeMap;

use crate::tuple::{Tuple, TupleId};

/// The live sites, one row per id, each named by a `u32` handle.
#[derive(Debug, Clone, Default)]
pub struct SiteTable {
    /// Row `h` is handle `h`'s id and tuple; a released row keeps its last
    /// contents until a new row reuses it.
    rows: Vec<(TupleId, Tuple)>,
    /// Live ids, in id order.
    by_id: BTreeMap<TupleId, u32>,
    /// Released handles, the most recent last.
    free: Vec<u32>,
}

impl SiteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `t` as `id`'s row and returns its handle: `id`'s own when it
    /// has a row (`t` replaces the tuple there), otherwise the most
    /// recently released handle, otherwise a new one. One map operation.
    ///
    /// # Panics
    /// Panics when the table would hold `u32::MAX` rows.
    pub fn insert(&mut self, id: TupleId, t: Tuple) -> u32 {
        use std::collections::btree_map::Entry;
        match self.by_id.entry(id) {
            Entry::Occupied(e) => {
                let h = *e.get();
                self.rows[h as usize].1 = t;
                h
            }
            Entry::Vacant(e) => {
                let h = match self.free.pop() {
                    Some(h) => {
                        self.rows[h as usize] = (id, t);
                        h
                    }
                    None => {
                        let h = u32::try_from(self.rows.len())
                            .ok()
                            .filter(|&h| h != u32::MAX)
                            .expect("fewer than u32::MAX sites");
                        self.rows.push((id, t));
                        h
                    }
                };
                *e.insert(h)
            }
        }
    }

    /// Releases `h`: its id leaves the table and the handle goes on the
    /// free list. The caller must have dropped every reference to `h`.
    pub fn release(&mut self, h: u32) {
        let removed = self.by_id.remove(&self.rows[h as usize].0);
        debug_assert_eq!(removed, Some(h), "released a handle that was not live");
        self.free.push(h);
    }

    /// The handle of `id`'s row, when `id` is live.
    pub fn handle(&self, id: &TupleId) -> Option<u32> {
        self.by_id.get(id).copied()
    }

    /// The id of row `h`.
    #[inline]
    pub fn id(&self, h: u32) -> TupleId {
        self.rows[h as usize].0
    }

    /// The tuple of row `h`.
    #[inline]
    pub fn tuple(&self, h: u32) -> &Tuple {
        &self.rows[h as usize].1
    }

    /// `true` when `h` names a live row.
    pub fn is_live(&self, h: u32) -> bool {
        self.rows.get(h as usize).is_some_and(|(id, _)| self.by_id.get(id) == Some(&h))
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// `true` when no row is live.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Every live row as `(handle, id, tuple)`, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &TupleId, &Tuple)> {
        self.by_id.iter().map(|(id, &h)| (h, id, &self.rows[h as usize].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> Tuple {
        Tuple::new(x, 0.0, vec![x])
    }

    #[test]
    fn released_handles_are_reused_last_in_first_out() {
        let mut st = SiteTable::new();
        let hs: Vec<u32> = (0..4).map(|i| st.insert(TupleId(i, 0), t(i as f64))).collect();
        assert_eq!(hs, [0, 1, 2, 3]);
        st.release(hs[1]);
        st.release(hs[3]);
        assert!(!st.is_live(hs[1]) && st.is_live(hs[2]));
        assert_eq!(st.insert(TupleId(9, 0), t(9.0)), hs[3]);
        assert_eq!(st.insert(TupleId(8, 0), t(8.0)), hs[1]);
        assert_eq!(st.insert(TupleId(7, 0), t(7.0)), 4);
        assert_eq!(st.len(), 5);
        assert_eq!(st.id(hs[1]), TupleId(8, 0));
        assert_eq!(st.handle(&TupleId(1, 0)), None);
    }

    #[test]
    fn inserting_a_live_id_replaces_its_row_in_place() {
        let mut st = SiteTable::new();
        let h = st.insert(TupleId(5, 0), t(1.0));
        st.insert(TupleId(2, 0), t(2.0));
        assert_eq!(st.insert(TupleId(5, 0), t(3.0)), h);
        assert_eq!(st.tuple(h), &t(3.0));
        assert_eq!(st.len(), 2);
        let order: Vec<TupleId> = st.iter().map(|(_, id, _)| *id).collect();
        assert_eq!(order, [TupleId(2, 0), TupleId(5, 0)], "id order, not handle order");
    }
}
