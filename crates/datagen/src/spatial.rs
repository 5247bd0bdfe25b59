//! Spatial placement of sites.

use rand::rngs::StdRng;
use rand::Rng;
use skyline_core::Point;

/// How sites are placed in the extent.
///
/// The paper distributes tuples "randomly within a 1000 × 1000 spatial
/// domain" (uniform); [`SpatialPattern::Clustered`] adds the realistic
/// alternative — points of interest concentrate in hotspots (city centres,
/// malls) — for robustness studies beyond the paper's grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialPattern {
    /// Uniform placement (the paper's setting).
    Uniform,
    /// Gaussian hotspots: `clusters` centres drawn uniformly, each site
    /// offset from a random centre by `N(0, sigma)` per axis (clamped to
    /// the extent).
    Clustered {
        /// Number of hotspots.
        clusters: usize,
        /// Per-axis standard deviation of the offsets (m); finite and
        /// positive.
        sigma: f64,
    },
}

/// The rectangular spatial domain sites live in. The paper uses
/// `1000 × 1000` throughout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialExtent {
    /// Width of the extent (x ∈ [0, width)).
    pub width: f64,
    /// Height of the extent (y ∈ [0, height)).
    pub height: f64,
}

impl SpatialExtent {
    /// The paper's default extent.
    pub const PAPER: SpatialExtent = SpatialExtent { width: 1000.0, height: 1000.0 };

    /// Creates an extent.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(width > 0.0 && height > 0.0, "degenerate spatial extent");
        SpatialExtent { width, height }
    }

    /// `true` when `p` lies inside the extent.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= 0.0 && p.x < self.width && p.y >= 0.0 && p.y < self.height
    }

    /// Diagonal length — an upper bound on any distance of interest.
    pub fn diagonal(&self) -> f64 {
        (self.width * self.width + self.height * self.height).sqrt()
    }

    /// Draws one uniform point.
    pub fn sample(&self, rng: &mut StdRng) -> Point {
        Point::new(rng.random_range(0.0..self.width), rng.random_range(0.0..self.height))
    }

    /// Draws `n` uniform points with **distinct** locations (the paper
    /// assumes no two sites share a location; duplicates are resampled).
    pub fn sample_unique(&self, n: usize, rng: &mut StdRng) -> Vec<Point> {
        self.sample_unique_pattern(n, SpatialPattern::Uniform, rng)
    }

    /// Draws `n` distinct locations under the given placement pattern.
    pub fn sample_unique_pattern(
        &self,
        n: usize,
        pattern: SpatialPattern,
        rng: &mut StdRng,
    ) -> Vec<Point> {
        let centers: Vec<Point> = match pattern {
            SpatialPattern::Uniform => Vec::new(),
            SpatialPattern::Clustered { clusters, sigma } => {
                assert!(clusters > 0, "need at least one cluster");
                // A zero spread puts every site of a cluster on its centre
                // and a NaN one clamps every draw to the same bits: either
                // way fewer than `n` distinct sites exist and the loop
                // below would never end.
                assert!(
                    sigma.is_finite() && sigma > 0.0,
                    "SpatialPattern::Clustered sigma must be finite and > 0, got {sigma}"
                );
                (0..clusters).map(|_| self.sample(rng)).collect()
            }
        };
        // The output first: the scratch index is freed above it.
        let mut out = Vec::with_capacity(n);
        let mut seen = SiteIndex::with_room_for(n);
        while out.len() < n {
            let p = match pattern {
                SpatialPattern::Uniform => self.sample(rng),
                SpatialPattern::Clustered { sigma, .. } => {
                    let c = centers[rng.random_range(0..centers.len())];
                    // Clamp to just inside the half-open extent.
                    let x = (c.x + gaussian(rng) * sigma).clamp(0.0, self.width.next_down());
                    let y = (c.y + gaussian(rng) * sigma).clamp(0.0, self.height.next_down());
                    Point::new(x, y)
                }
            };
            if seen.insert(p, &out) {
                out.push(p);
            }
        }
        out
    }
}

/// The distinct sites drawn so far, as an open-addressing table of their
/// positions in the output: at least four slots per site, a power of two
/// of them, probed linearly from a multiplicative hash of the site's bits.
/// Insert-only, and a site's bits are compared in full, so the table
/// cannot change which sites are drawn. At two slots per site a 4 000-site
/// draw runs the table half full and loses to the SIMD hash set this
/// replaced; at four, 600 000 sites take 16 MB, the set's footprint, so
/// the allocator keeps the same heap for what the set-up allocates next.
/// (At 8 MB it returned the heap to the system and faulted it back in on
/// every repeat: 2.5× the page faults of generation and partition.)
struct SiteIndex {
    /// Output position of a site, or [`SiteIndex::EMPTY`].
    slots: Vec<u32>,
    /// Right shift that leaves a slot number of the hash.
    shift: u32,
}

impl SiteIndex {
    const EMPTY: u32 = u32::MAX;

    fn with_room_for(n: usize) -> Self {
        assert!(n < Self::EMPTY as usize, "site positions are kept as u32");
        let len = (4 * n).next_power_of_two().max(2);
        SiteIndex { slots: vec![Self::EMPTY; len], shift: u64::BITS - len.trailing_zeros() }
    }

    /// Records `p` as `drawn[drawn.len()]` unless `drawn` already holds its
    /// bits; `true` when it was new.
    fn insert(&mut self, p: Point, drawn: &[Point]) -> bool {
        let (x, y) = (p.x.to_bits(), p.y.to_bits());
        let mix = (x ^ y.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mask = self.slots.len() - 1;
        let mut at = (mix >> self.shift) as usize;
        loop {
            match self.slots[at] {
                Self::EMPTY => {
                    self.slots[at] = drawn.len() as u32;
                    return true;
                }
                i => {
                    let q = drawn[i as usize];
                    if q.x.to_bits() == x && q.y.to_bits() == y {
                        return false;
                    }
                }
            }
            at = (at + 1) & mask;
        }
    }
}

/// Standard-normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn samples_stay_in_extent() {
        let e = SpatialExtent::new(100.0, 50.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(e.contains(e.sample(&mut rng)));
        }
    }

    #[test]
    fn unique_sampling_has_no_collisions() {
        let e = SpatialExtent::PAPER;
        let mut rng = StdRng::seed_from_u64(1);
        let pts = e.sample_unique(5000, &mut rng);
        let set: HashSet<(u64, u64)> = pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
        assert_eq!(set.len(), pts.len());
    }

    /// The draw loop as it was over a hash set of the sites' bits: the
    /// reference the site index must reproduce draw for draw.
    fn sample_unique_with_a_set(
        e: &SpatialExtent,
        n: usize,
        pattern: SpatialPattern,
        rng: &mut StdRng,
    ) -> Vec<Point> {
        let centers: Vec<Point> = match pattern {
            SpatialPattern::Uniform => Vec::new(),
            SpatialPattern::Clustered { clusters, .. } => {
                (0..clusters).map(|_| e.sample(rng)).collect()
            }
        };
        let mut seen: HashSet<(u64, u64)> = HashSet::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let p = match pattern {
                SpatialPattern::Uniform => e.sample(rng),
                SpatialPattern::Clustered { sigma, .. } => {
                    let c = centers[rng.random_range(0..centers.len())];
                    let x = (c.x + gaussian(rng) * sigma).clamp(0.0, e.width.next_down());
                    let y = (c.y + gaussian(rng) * sigma).clamp(0.0, e.height.next_down());
                    Point::new(x, y)
                }
            };
            if seen.insert((p.x.to_bits(), p.y.to_bits())) {
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn site_index_draws_what_the_set_drew() {
        use rand::RngCore;
        // Four ulp a side holds 16 distinct sites: drawing all of them
        // makes most draws duplicates.
        let tiny = SpatialExtent::new(f64::from_bits(4), f64::from_bits(4));
        let cases = [
            (SpatialExtent::PAPER, 0, SpatialPattern::Uniform),
            (SpatialExtent::PAPER, 1, SpatialPattern::Uniform),
            (SpatialExtent::PAPER, 1280, SpatialPattern::Uniform),
            (SpatialExtent::new(3.0, 2.0), 20_000, SpatialPattern::Uniform),
            (SpatialExtent::PAPER, 3000, SpatialPattern::Clustered { clusters: 5, sigma: 60.0 }),
            // Clamping piles sites on the border, where x or y repeats.
            (
                SpatialExtent::new(50.0, 50.0),
                4000,
                SpatialPattern::Clustered { clusters: 2, sigma: 400.0 },
            ),
            (tiny, 16, SpatialPattern::Uniform),
            (tiny, 16, SpatialPattern::Clustered { clusters: 3, sigma: 1e-323 }),
        ];
        for (e, n, pattern) in cases {
            for seed in [1, 7, 0xBEEF] {
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let got = e.sample_unique_pattern(n, pattern, &mut a);
                let want = sample_unique_with_a_set(&e, n, pattern, &mut b);
                let bits = |v: &[Point]| -> Vec<(u64, u64)> {
                    v.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{pattern:?}, n = {n}, seed {seed}");
                assert_eq!(a.next_u64(), b.next_u64(), "{pattern:?}, n = {n}: RNG position");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let e = SpatialExtent::PAPER;
        let a = e.sample_unique(100, &mut StdRng::seed_from_u64(42));
        let b = e.sample_unique(100, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn diagonal_of_paper_extent() {
        let d = SpatialExtent::PAPER.diagonal();
        assert!((d - 1414.2135).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_extent_rejected() {
        SpatialExtent::new(0.0, 10.0);
    }

    #[test]
    fn clustered_points_stay_in_extent_and_unique() {
        let e = SpatialExtent::PAPER;
        let mut rng = StdRng::seed_from_u64(4);
        let pts = e.sample_unique_pattern(
            3000,
            SpatialPattern::Clustered { clusters: 5, sigma: 60.0 },
            &mut rng,
        );
        assert_eq!(pts.len(), 3000);
        assert!(pts.iter().all(|&p| e.contains(p)));
        let set: HashSet<(u64, u64)> = pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
        assert_eq!(set.len(), pts.len());
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and > 0")]
    fn clustered_without_spread_is_rejected_instead_of_hanging() {
        // Two centres cannot hold three distinct sites at zero spread.
        let pattern = SpatialPattern::Clustered { clusters: 2, sigma: 0.0 };
        SpatialExtent::PAPER.sample_unique_pattern(3, pattern, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and > 0")]
    fn clustered_with_nan_spread_is_rejected_instead_of_hanging() {
        let pattern = SpatialPattern::Clustered { clusters: 4, sigma: f64::NAN };
        SpatialExtent::PAPER.sample_unique_pattern(3, pattern, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn clustered_is_actually_concentrated() {
        // Mean nearest-neighbour distance is much smaller than uniform's.
        let e = SpatialExtent::PAPER;
        let nn_mean = |pts: &[Point]| {
            let mut total = 0.0;
            for (i, a) in pts.iter().enumerate() {
                let mut best = f64::INFINITY;
                for (j, b) in pts.iter().enumerate() {
                    if i != j {
                        best = best.min(a.dist2(*b));
                    }
                }
                total += best.sqrt();
            }
            total / pts.len() as f64
        };
        let uni =
            e.sample_unique_pattern(400, SpatialPattern::Uniform, &mut StdRng::seed_from_u64(1));
        let clu = e.sample_unique_pattern(
            400,
            SpatialPattern::Clustered { clusters: 4, sigma: 40.0 },
            &mut StdRng::seed_from_u64(1),
        );
        assert!(
            nn_mean(&clu) < nn_mean(&uni) * 0.5,
            "clustered NN {} vs uniform NN {}",
            nn_mean(&clu),
            nn_mean(&uni)
        );
    }

    #[test]
    fn clustered_deterministic() {
        let e = SpatialExtent::PAPER;
        let pat = SpatialPattern::Clustered { clusters: 3, sigma: 25.0 };
        let a = e.sample_unique_pattern(100, pat, &mut StdRng::seed_from_u64(8));
        let b = e.sample_unique_pattern(100, pat, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
    }
}
