//! The tuple model shared by every crate in the workspace.
//!
//! A [`Tuple`] is one row of a device's local relation `R_i`: a site location
//! `(x, y)` plus `n` non-spatial attributes `p_1 … p_n` (smaller is better).

use std::fmt;
use std::ops::Deref;

use crate::region::Point;

/// Attributes a [`Tuple`] holds without a heap allocation: every
/// dimensionality the paper's figures use (2–5).
pub const INLINE_ATTRS: usize = 5;

/// A tuple's non-spatial attributes, read as a `[f64]`.
///
/// Up to [`INLINE_ATTRS`] values sit inline, so building, cloning and
/// dropping such a tuple never touches the allocator; a wider row is boxed.
/// Compares equal to a `Vec<f64>` of the same values (either way round) and
/// prints like one.
#[derive(Clone)]
pub struct Attrs(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, vals: [f64; INLINE_ATTRS] },
    Boxed(Box<[f64]>),
}

impl Attrs {
    /// The values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Boxed(vals) => vals,
        }
    }
}

impl FromIterator<f64> for Attrs {
    /// Collects inline; a value past the [`INLINE_ATTRS`]th moves the row to
    /// the heap.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut vals = [0.0; INLINE_ATTRS];
        let mut len = 0;
        while let Some(v) = iter.next() {
            if len == INLINE_ATTRS {
                let wide: Vec<f64> = vals.into_iter().chain([v]).chain(iter).collect();
                return Attrs(Repr::Boxed(wide.into_boxed_slice()));
            }
            vals[len] = v;
            len += 1;
        }
        Attrs(Repr::Inline { len: len as u8, vals })
    }
}

impl Deref for Attrs {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Attrs {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl fmt::Debug for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for Attrs {
    fn eq(&self, other: &Attrs) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<f64>> for Attrs {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Attrs> for Vec<f64> {
    fn eq(&self, other: &Attrs) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// One row of schema `⟨x, y, p_1 … p_n⟩`.
///
/// `attrs` holds the non-spatial attributes only; the location is kept apart
/// because it never takes part in dominance comparisons (Section 2 of the
/// paper: spatial constraints are *not* involved in the skyline operation).
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Site x-coordinate.
    pub x: f64,
    /// Site y-coordinate.
    pub y: f64,
    /// Non-spatial attributes `p_1 … p_n`, all minimized.
    pub attrs: Attrs,
}

// Two coordinates plus `Attrs`: a tag word and five inline values. A wider
// inline row would grow every cached, merged and partitioned copy.
const _: () = assert!(std::mem::size_of::<Tuple>() == 64);

impl Tuple {
    /// Creates a tuple at `(x, y)` with the given non-spatial attributes,
    /// copied into [`Attrs`].
    pub fn new(x: f64, y: f64, attrs: Vec<f64>) -> Self {
        Tuple { x, y, attrs: attrs.into_iter().collect() }
    }

    /// Creates a tuple at `(x, y)` with a copy of `attrs`: no allocation for
    /// [`INLINE_ATTRS`] or fewer values.
    pub fn from_slice(x: f64, y: f64, attrs: &[f64]) -> Self {
        Tuple { x, y, attrs: attrs.iter().copied().collect() }
    }

    /// Number of non-spatial attributes (`n` in the paper).
    #[inline]
    pub fn dim(&self) -> usize {
        self.attrs.len()
    }

    /// Site location as a [`Point`].
    #[inline]
    pub fn location(&self) -> Point {
        Point::new(self.x, self.y)
    }

    /// Squared Euclidean distance from the site to `p`.
    ///
    /// Kept squared so range checks can avoid the `sqrt` (compare against
    /// `d²`), which matters on the lightweight devices the paper targets.
    #[inline]
    pub fn dist2(&self, p: Point) -> f64 {
        let dx = self.x - p.x;
        let dy = self.y - p.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance from the site to `p`.
    #[inline]
    pub fn dist(&self, p: Point) -> f64 {
        self.dist2(p).sqrt()
    }

    /// `true` when both tuples describe the same site.
    ///
    /// The paper assumes no two distinct sites share a location, so location
    /// equality identifies duplicates introduced by overlapping partitions
    /// (`R_i ∩ R_j ≠ ∅`). Exact float comparison is intentional: duplicated
    /// rows are bit-for-bit copies of the same site record.
    #[inline]
    pub fn same_site(&self, other: &Tuple) -> bool {
        self.x == other.x && self.y == other.y
    }

    /// Bytes this tuple occupies on the wireless link.
    ///
    /// The paper never states a wire format; we charge 8 bytes per field
    /// (two coordinates + `n` attributes), the size of an uncompressed f64
    /// column value. Configurable framing overhead is added by the transport
    /// layer, not here.
    #[inline]
    pub fn wire_size(&self) -> usize {
        8 * (self.attrs.len() + 2)
    }
}

/// Wire size of a batch of tuples (no framing).
pub fn batch_wire_size(tuples: &[Tuple]) -> usize {
    tuples.iter().map(Tuple::wire_size).sum()
}

/// A stable identity for one live tuple, independent of its current
/// attribute or position values.
///
/// Two constructions are used in the workspace:
///
/// * [`TupleId::site`] — the paper's static-site identity: the `(x, y)`
///   bit patterns. Valid because no two distinct sites share a location.
/// * explicit ids (e.g. `(device, slot)`) — for *moving* sites in the
///   continuous-monitoring extension, where the location changes between
///   epochs but the monitored entity stays the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u64, pub u64);

impl TupleId {
    /// The static-site identity of `t`: its exact `(x, y)` bit patterns.
    #[inline]
    pub fn site(t: &Tuple) -> Self {
        TupleId(t.x.to_bits(), t.y.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_reports_attribute_count() {
        let t = Tuple::new(1.0, 2.0, vec![3.0, 4.0, 5.0]);
        assert_eq!(t.dim(), 3);
    }

    #[test]
    fn dist_and_dist2_agree() {
        let t = Tuple::new(3.0, 4.0, vec![]);
        let origin = Point::new(0.0, 0.0);
        assert_eq!(t.dist2(origin), 25.0);
        assert_eq!(t.dist(origin), 5.0);
    }

    #[test]
    fn same_site_ignores_attributes() {
        let a = Tuple::new(1.0, 2.0, vec![10.0]);
        let b = Tuple::new(1.0, 2.0, vec![99.0]);
        let c = Tuple::new(1.0, 2.5, vec![10.0]);
        assert!(a.same_site(&b));
        assert!(!a.same_site(&c));
    }

    #[test]
    fn wire_size_counts_location_and_attrs() {
        let t = Tuple::new(0.0, 0.0, vec![1.0, 2.0]);
        assert_eq!(t.wire_size(), 8 * 4);
        assert_eq!(batch_wire_size(&[t.clone(), t]), 64);
    }

    #[test]
    fn location_round_trips() {
        let t = Tuple::new(7.0, -2.0, vec![]);
        let p = t.location();
        assert_eq!((p.x, p.y), (7.0, -2.0));
    }
}
