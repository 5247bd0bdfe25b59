//! Sorted attribute domains and adaptive-width ID columns — the building
//! blocks of the paper's ID-based hybrid storage.
//!
//! Every non-spatial attribute keeps its distinct values in a **sorted**
//! array ([`AttributeDomain`]); a tuple stores, per attribute, the *index*
//! of its value in that array. Because the array is sorted, comparing two
//! IDs is equivalent to comparing the underlying values
//! (`v_a < v_b ⟺ id_a < id_b`), which is the property the Fig. 4 scan
//! exploits: dominance can be decided on small integers without touching the
//! value arrays at all.
//!
//! The paper stores byte IDs when a domain has ≤ 256 distinct values ("Since
//! each domain contains 100 distinct values, we use byte type IDs");
//! [`IdArray`] picks u8/u16/u32 automatically.

use crate::radix;

/// The sorted distinct values of one attribute on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDomain {
    values: Vec<f64>,
}

impl AttributeDomain {
    /// Builds the domain from an iterator of attribute values (need not be
    /// unique or sorted). Values are ordered by `f64::total_cmp`, so a NaN
    /// from a bad generator config degrades deterministically (NaN ranks
    /// after `+∞`, i.e. as the worst possible value) instead of aborting a
    /// whole sweep with a sort panic.
    pub fn build<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut v: Vec<f64> = values.into_iter().collect();
        v.sort_by(f64::total_cmp);
        v.dedup_by(|a, b| a.total_cmp(b).is_eq());
        AttributeDomain { values: v }
    }

    /// Builds the domain of one attribute **and** every row's ID in it from
    /// a single sort: `assign(row, id)` is called once per input position
    /// (fewer than 2³² of them — the caller checks its row count).
    /// `keyed` and `scratch` are buffers the caller reuses across
    /// attributes.
    ///
    /// Values are keyed by the integer whose order is `f64::total_cmp`'s, so
    /// the sort is a radix sort of plain `u64`s, two values share an ID
    /// exactly when their bit patterns are equal (`-0.0` and `+0.0` stay
    /// distinct), and the result equals [`Self::build`] followed by
    /// [`Self::id_of`] per row.
    pub(crate) fn encode(
        values: impl Iterator<Item = f64>,
        keyed: &mut Vec<(u64, u32)>,
        scratch: &mut Vec<(u64, u32)>,
        mut assign: impl FnMut(usize, u32),
    ) -> Self {
        keyed.clear();
        keyed.extend(values.enumerate().map(|(row, v)| (total_order_key(v), row as u32)));
        radix::sort_pairs(keyed, scratch);
        let mut domain: Vec<f64> = Vec::new();
        let mut last = None;
        for &(key, row) in keyed.iter() {
            if last != Some(key) {
                domain.push(value_of_key(key));
                last = Some(key);
            }
            assign(row as usize, (domain.len() - 1) as u32);
        }
        AttributeDomain { values: domain }
    }

    /// Number of distinct values.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the domain is empty (empty relation).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Smallest value `l_j` — O(1) thanks to the sort, exactly the access
    /// the paper's skip check relies on.
    #[inline]
    pub fn min(&self) -> Option<f64> {
        self.values.first().copied()
    }

    /// Largest value `h_j` — O(1); these are the `UNE` bounds.
    #[inline]
    pub fn max(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// ID (rank) of `value`, which must be present in the domain.
    ///
    /// # Panics
    /// Panics when `value` was never inserted — IDs only exist for stored
    /// values, so a miss is a construction bug.
    #[inline]
    pub fn id_of(&self, value: f64) -> u32 {
        self.values
            .binary_search_by(|v| v.total_cmp(&value))
            .expect("value not present in attribute domain") as u32
    }

    /// Value stored under `id`.
    #[inline]
    pub fn value_of(&self, id: u32) -> f64 {
        self.values[id as usize]
    }

    /// Bytes used by the value array.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 8
    }
}

/// Maps an `f64` to the `u64` whose unsigned order is `f64::total_cmp`'s:
/// negative values have all bits flipped, the rest only the sign bit.
#[inline]
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Inverse of [`total_order_key`].
#[inline]
fn value_of_key(key: u64) -> f64 {
    let mask = if key >> 63 == 1 { 1 << 63 } else { u64::MAX };
    f64::from_bits(key ^ mask)
}

/// A column of attribute IDs with adaptive width.
#[derive(Debug, Clone, PartialEq)]
pub enum IdArray {
    /// Domains with ≤ 256 distinct values (the paper's byte IDs).
    U8(Vec<u8>),
    /// Domains with ≤ 65 536 distinct values.
    U16(Vec<u16>),
    /// Anything larger.
    U32(Vec<u32>),
}

impl IdArray {
    /// Packs `ids` using the narrowest width that fits `domain_size`
    /// distinct values.
    pub fn pack(ids: &[u32], domain_size: usize) -> Self {
        if domain_size <= (u8::MAX as usize) + 1 {
            IdArray::U8(ids.iter().map(|&i| i as u8).collect())
        } else if domain_size <= (u16::MAX as usize) + 1 {
            IdArray::U16(ids.iter().map(|&i| i as u16).collect())
        } else {
            IdArray::U32(ids.to_vec())
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            IdArray::U8(v) => v.len(),
            IdArray::U16(v) => v.len(),
            IdArray::U32(v) => v.len(),
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// ID of row `i`, widened to u32.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            IdArray::U8(v) => u32::from(v[i]),
            IdArray::U16(v) => u32::from(v[i]),
            IdArray::U32(v) => v[i],
        }
    }

    /// Bytes used by the packed column.
    pub fn storage_bytes(&self) -> usize {
        match self {
            IdArray::U8(v) => v.len(),
            IdArray::U16(v) => v.len() * 2,
            IdArray::U32(v) => v.len() * 4,
        }
    }

    /// Width in bytes of one ID.
    pub fn id_width(&self) -> usize {
        match self {
            IdArray::U8(_) => 1,
            IdArray::U16(_) => 2,
            IdArray::U32(_) => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_dedups() {
        let d = AttributeDomain::build(vec![3.0, 1.0, 3.0, 2.0]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.min(), Some(1.0));
        assert_eq!(d.max(), Some(3.0));
    }

    #[test]
    fn ids_reflect_value_order() {
        let d = AttributeDomain::build(vec![0.5, 9.9, 4.2]);
        let (a, b, c) = (d.id_of(0.5), d.id_of(4.2), d.id_of(9.9));
        assert!(a < b && b < c);
        assert_eq!(d.value_of(a), 0.5);
        assert_eq!(d.value_of(c), 9.9);
    }

    #[test]
    fn id_round_trip_for_every_value() {
        let vals = [7.0, 1.0, 3.5, 3.5, 100.0];
        let d = AttributeDomain::build(vals);
        for &v in &vals {
            assert_eq!(d.value_of(d.id_of(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn id_of_missing_value_panics() {
        AttributeDomain::build(vec![1.0]).id_of(2.0);
    }

    #[test]
    fn nan_ingestion_degrades_instead_of_panicking() {
        // Regression: the build sort used `partial_cmp(..).expect(..)`, so
        // one NaN from a bad generator config aborted the whole sweep. Under
        // total_cmp a NaN ranks after +∞ (the worst possible value) and the
        // rest of the domain keeps working.
        let d = AttributeDomain::build(vec![2.0, f64::NAN, 1.0]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.min(), Some(1.0));
        assert!(d.max().unwrap().is_nan(), "NaN ranks last");
        assert_eq!(d.id_of(1.0), 0);
        assert_eq!(d.id_of(2.0), 1);
        assert_eq!(d.id_of(f64::NAN), 2, "NaN is findable, not fatal");
    }

    #[test]
    fn order_key_is_total_cmp_and_round_trips() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &vals {
            assert_eq!(value_of_key(total_order_key(a)).to_bits(), a.to_bits());
            for &b in &vals {
                assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn encode_equals_build_then_id_of() {
        let short = vec![3.0, -0.0, 1.0, 0.0, 3.0, f64::NAN, 1.0, -7.5];
        // Past the radix cutoff: the same specials among repeated integers
        // and a spread of magnitudes, so many key bits vary.
        let long: Vec<f64> = (0..radix::RADIX_CUTOFF as u32 * 5)
            .map(|i| match i % 13 {
                0 => -0.0,
                1 => 0.0,
                2 => f64::NAN,
                3 => f64::from(i % 7) * 1e-3 - 2.0,
                4 => f64::from(i).powi(5),
                _ => f64::from(i * 7919 % 40),
            })
            .collect();
        let constant = vec![2.5; radix::RADIX_CUTOFF * 2];
        for vals in [short, long, constant] {
            let mut ids = vec![u32::MAX; vals.len()];
            let (mut keyed, mut scratch) = (Vec::new(), Vec::new());
            let d =
                AttributeDomain::encode(vals.iter().copied(), &mut keyed, &mut scratch, |r, id| {
                    ids[r] = id
                });
            let reference = AttributeDomain::build(vals.iter().copied());
            assert_eq!(d.values.len(), reference.values.len());
            for (a, b) in d.values.iter().zip(&reference.values) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (r, &v) in vals.iter().enumerate() {
                assert_eq!(ids[r], reference.id_of(v), "{} values, row {r}", vals.len());
            }
        }
    }

    #[test]
    fn empty_domain() {
        let d = AttributeDomain::build(std::iter::empty());
        assert!(d.is_empty());
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
    }

    #[test]
    fn pack_picks_narrowest_width() {
        let ids: Vec<u32> = (0..10).collect();
        assert_eq!(IdArray::pack(&ids, 100).id_width(), 1);
        assert_eq!(IdArray::pack(&ids, 256).id_width(), 1);
        assert_eq!(IdArray::pack(&ids, 257).id_width(), 2);
        assert_eq!(IdArray::pack(&ids, 70_000).id_width(), 4);
    }

    #[test]
    fn packed_get_widens_correctly() {
        let ids = vec![0u32, 5, 255];
        for size in [256, 1000, 100_000] {
            let col = IdArray::pack(&ids, size);
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(col.get(i), id, "width {}", col.id_width());
            }
        }
    }

    #[test]
    fn storage_bytes_scale_with_width() {
        let ids = vec![1u32; 100];
        assert_eq!(IdArray::pack(&ids, 10).storage_bytes(), 100);
        assert_eq!(IdArray::pack(&ids, 1000).storage_bytes(), 200);
        assert_eq!(IdArray::pack(&ids, 100_000).storage_bytes(), 400);
    }
}
