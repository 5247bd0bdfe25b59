//! Spatial primitives: points, query regions, and minimum bounding
//! rectangles (MBRs).
//!
//! The paper's query `Q_ds = (id, pos_org, d)` restricts the skyline to the
//! disk of radius `d` around the originator's position, and each device keeps
//! the MBR of its local relation (`x_min/x_max/y_min/y_max` constants in the
//! hybrid storage model) so a whole relation can be skipped with one
//! `mindist` check.

/// A 2-D location.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// x-coordinate.
    pub x: f64,
    /// y-coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: Point) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist2(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// The spatial constraint of a distributed skyline query: all sites within
/// `radius` of `center` qualify.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRegion {
    /// Query position `pos_org`.
    pub center: Point,
    /// Distance of interest `d`.
    pub radius: f64,
}

impl QueryRegion {
    /// Creates a query region.
    pub fn new(center: Point, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "negative query radius");
        QueryRegion { center, radius }
    }

    /// A region covering the whole plane — used by the paper's static
    /// pre-tests, which "ignore the distance constraint".
    pub fn unbounded() -> Self {
        QueryRegion { center: Point::new(0.0, 0.0), radius: f64::INFINITY }
    }

    /// `true` when `p` satisfies the distance constraint.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        if self.radius.is_infinite() {
            return true;
        }
        self.center.dist2(p) <= self.radius * self.radius
    }

    /// `true` when the region cannot possibly intersect `mbr` — the Fig. 4
    /// early exit `mindist(pos_org, MBR_i) > d`.
    #[inline]
    pub fn misses(&self, mbr: &Mbr) -> bool {
        if self.radius.is_infinite() {
            return false;
        }
        mbr.mindist2(self.center) > self.radius * self.radius
    }

    /// `true` when the region holds all of `mbr` — the twin of
    /// [`Self::misses`], `maxdist(pos_org, MBR_i) ≤ d`. Every site inside
    /// the rectangle then passes [`Self::contains`], so a scan's spatial
    /// test is vacuous. Exact under rounding: [`Mbr::maxdist2`] rounds the
    /// same `site − centre` subtractions, squares and sum a site's
    /// `dist2` does, and each is monotone, so no site inside the MBR
    /// rounds farther than its farthest corner.
    #[inline]
    pub fn covers(&self, mbr: &Mbr) -> bool {
        if self.radius.is_infinite() {
            return true;
        }
        mbr.maxdist2(self.center) <= self.radius * self.radius
    }
}

/// Axis-aligned minimum bounding rectangle of a set of sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbr {
    /// Smallest x among the sites.
    pub x_min: f64,
    /// Largest x among the sites.
    pub x_max: f64,
    /// Smallest y among the sites.
    pub y_min: f64,
    /// Largest y among the sites.
    pub y_max: f64,
}

impl Mbr {
    /// An "empty" MBR that any point extends.
    pub fn empty() -> Self {
        Mbr {
            x_min: f64::INFINITY,
            x_max: f64::NEG_INFINITY,
            y_min: f64::INFINITY,
            y_max: f64::NEG_INFINITY,
        }
    }

    /// `true` when no point has been added yet.
    pub fn is_empty(&self) -> bool {
        self.x_min > self.x_max
    }

    /// Builds the MBR of the given locations; empty input gives
    /// [`Mbr::empty`].
    pub fn of_points<I: IntoIterator<Item = Point>>(points: I) -> Self {
        let mut mbr = Mbr::empty();
        for p in points {
            mbr.extend(p);
        }
        mbr
    }

    /// Grows the MBR to cover `p`.
    #[inline]
    pub fn extend(&mut self, p: Point) {
        self.x_min = self.x_min.min(p.x);
        self.x_max = self.x_max.max(p.x);
        self.y_min = self.y_min.min(p.y);
        self.y_max = self.y_max.max(p.y);
    }

    /// Squared minimum distance from `p` to the rectangle (0 when inside).
    #[inline]
    pub fn mindist2(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = if p.x < self.x_min {
            self.x_min - p.x
        } else if p.x > self.x_max {
            p.x - self.x_max
        } else {
            0.0
        };
        let dy = if p.y < self.y_min {
            self.y_min - p.y
        } else if p.y > self.y_max {
            p.y - self.y_max
        } else {
            0.0
        };
        dx * dx + dy * dy
    }

    /// Squared distance from `p` to the farthest corner of the rectangle
    /// (infinite when empty), each axis taken as `corner − p` the way
    /// [`Point::dist2`] takes `site − p`.
    #[inline]
    pub fn maxdist2(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.x_min - p.x).abs().max((self.x_max - p.x).abs());
        let dy = (self.y_min - p.y).abs().max((self.y_max - p.y).abs());
        dx * dx + dy * dy
    }

    /// Minimum distance from `p` to the rectangle.
    #[inline]
    pub fn mindist(&self, p: Point) -> f64 {
        self.mindist2(p).sqrt()
    }

    /// `true` when `p` lies inside (or on the border of) the rectangle.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x_min && p.x <= self.x_max && p.y >= self.y_min && p.y <= self.y_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.dist2(b), 25.0);
    }

    #[test]
    fn region_contains_boundary() {
        let r = QueryRegion::new(Point::new(0.0, 0.0), 5.0);
        assert!(r.contains(Point::new(3.0, 4.0)), "boundary point is inside");
        assert!(!r.contains(Point::new(3.1, 4.0)));
    }

    #[test]
    fn unbounded_region_contains_everything() {
        let r = QueryRegion::unbounded();
        assert!(r.contains(Point::new(1e12, -1e12)));
        let mbr = Mbr::of_points([Point::new(500.0, 500.0)]);
        assert!(!r.misses(&mbr));
    }

    #[test]
    fn mbr_of_points_and_extend() {
        let mbr = Mbr::of_points([Point::new(1.0, 5.0), Point::new(4.0, 2.0)]);
        assert_eq!(mbr.x_min, 1.0);
        assert_eq!(mbr.x_max, 4.0);
        assert_eq!(mbr.y_min, 2.0);
        assert_eq!(mbr.y_max, 5.0);
        assert!(mbr.contains(Point::new(2.0, 3.0)));
        assert!(!mbr.contains(Point::new(0.0, 3.0)));
    }

    #[test]
    fn empty_mbr_behaviour() {
        let mbr = Mbr::empty();
        assert!(mbr.is_empty());
        assert_eq!(mbr.mindist2(Point::new(0.0, 0.0)), f64::INFINITY);
        let r = QueryRegion::new(Point::new(0.0, 0.0), 10.0);
        assert!(r.misses(&mbr), "empty MBR can never intersect a region");
    }

    #[test]
    fn mindist_inside_is_zero() {
        let mbr = Mbr::of_points([Point::new(0.0, 0.0), Point::new(10.0, 10.0)]);
        assert_eq!(mbr.mindist2(Point::new(5.0, 5.0)), 0.0);
    }

    #[test]
    fn mindist_corner_and_edge() {
        let mbr = Mbr::of_points([Point::new(0.0, 0.0), Point::new(10.0, 10.0)]);
        // Left of the box: distance is horizontal only.
        assert_eq!(mbr.mindist(Point::new(-3.0, 5.0)), 3.0);
        // Diagonal from the corner.
        assert_eq!(mbr.mindist2(Point::new(-3.0, -4.0)), 25.0);
    }

    #[test]
    fn region_misses_mbr_matches_fig4_check() {
        let mbr = Mbr::of_points([Point::new(100.0, 100.0), Point::new(200.0, 200.0)]);
        let near = QueryRegion::new(Point::new(90.0, 150.0), 15.0);
        let far = QueryRegion::new(Point::new(0.0, 0.0), 50.0);
        assert!(!near.misses(&mbr));
        assert!(far.misses(&mbr));
    }

    #[test]
    fn region_covers_mbr_is_the_maxdist_check() {
        let mbr = Mbr::of_points([Point::new(0.0, 0.0), Point::new(3.0, 4.0)]);
        assert_eq!(mbr.maxdist2(Point::new(0.0, 0.0)), 25.0);
        assert!(QueryRegion::new(Point::new(0.0, 0.0), 5.0).covers(&mbr), "far corner on the rim");
        assert!(!QueryRegion::new(Point::new(0.0, 0.0), 5.0f64.next_down()).covers(&mbr));
        assert!(QueryRegion::unbounded().covers(&mbr));
        assert!(QueryRegion::unbounded().covers(&Mbr::empty()));
        assert!(!QueryRegion::new(Point::new(0.0, 0.0), 1e100).covers(&Mbr::empty()));
    }

    /// A coordinate of magnitude up to 10^6, so the subtractions round.
    fn coord() -> impl Strategy<Value = f64> {
        (-1.0f64..1.0, 0i32..7).prop_map(|(m, e)| m * 10f64.powi(e))
    }

    /// The least radius whose square reaches `d2`: one ulp less does not.
    fn least_covering_radius(d2: f64) -> f64 {
        let mut r = d2.sqrt();
        while r * r < d2 {
            r = r.next_up();
        }
        while r.next_down() * r.next_down() >= d2 {
            r = r.next_down();
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Whenever `covers` holds, every corner and interior point of the
        /// MBR passes `contains` and `misses` is false; a radius at the
        /// farthest corner's distance and one ulp below it are both drawn,
        /// and one ulp below the least covering radius never covers.
        #[test]
        fn a_covering_region_contains_every_point_of_the_mbr(
            corners in (coord(), coord(), coord(), coord()),
            centre in (coord(), coord()),
            pick in 0u8..4,
            raw_r in 0.0f64..3e6,
            fracs in prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 32),
        ) {
            let (ax, ay, bx, by) = corners;
            let mbr = Mbr::of_points([Point::new(ax, ay), Point::new(bx, by)]);
            let centre = Point::new(centre.0, centre.1);
            let d2 = mbr.maxdist2(centre);
            let least = least_covering_radius(d2);
            let r = match pick {
                0 => raw_r,
                1 => d2.sqrt(),
                2 => d2.sqrt().next_down(),
                _ => least,
            };
            prop_assert!(QueryRegion::new(centre, least).covers(&mbr));
            prop_assert!(!QueryRegion::new(centre, least.next_down()).covers(&mbr));
            let region = QueryRegion::new(centre, r);
            if region.covers(&mbr) {
                prop_assert!(!region.misses(&mbr));
                let (xs, ys) = ([mbr.x_min, mbr.x_max], [mbr.y_min, mbr.y_max]);
                for p in xs.iter().flat_map(|&x| ys.iter().map(move |&y| Point::new(x, y))) {
                    prop_assert!(region.contains(p), "corner {:?} of {:?}, r = {}", p, mbr, r);
                }
                for (fx, fy) in &fracs {
                    let x = (mbr.x_min + fx * (mbr.x_max - mbr.x_min)).clamp(mbr.x_min, mbr.x_max);
                    let y = (mbr.y_min + fy * (mbr.y_max - mbr.y_min)).clamp(mbr.y_min, mbr.y_max);
                    let p = Point::new(x, y);
                    prop_assert!(region.contains(p), "point {:?} of {:?}, r = {}", p, mbr, r);
                    prop_assert!(p.dist2(centre) <= r * r, "site − centre order");
                }
            }
        }
    }
}
