//! Seeded input generation: everything a workload feeds the program is a
//! pure function of `--seed`.

use skyline_core::region::Point;
use skyline_core::Tuple;

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, hi)`, on a 1/1000 lattice so values print exactly.
    pub fn coord(&mut self, hi: f64) -> f64 {
        (self.next_u64() % (hi as u64 * 1_000)) as f64 / 1_000.0
    }

    pub fn point(&mut self, side: f64) -> Point {
        Point::new(self.coord(side), self.coord(side))
    }

    /// A fresh site with `dim` attributes drawn from the generated
    /// relations' own domain, `[1, 1000]`: an arriving site looks like the
    /// sites already there, and enters a skyline about as often.
    pub fn site(&mut self, side: f64, dim: usize) -> Tuple {
        let (x, y) = (self.coord(side), self.coord(side));
        Tuple::new(x, y, (0..dim).map(|_| 1.0 + (self.next_u64() % 1000) as f64).collect())
    }
}

/// An independent seed for the input stream `tag` of a run seeded `seed`.
pub fn derive(seed: u64, tag: &str) -> u64 {
    let mut h = SplitMix::new(seed);
    for b in tag.bytes() {
        h.0 ^= u64::from(b);
        h.next_u64();
    }
    h.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_equal_seeds_and_differ_otherwise() {
        let draw = |seed: u64, tag: &str| -> Vec<u64> {
            let mut r = SplitMix::new(derive(seed, tag));
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draw(2006, "pool"), draw(2006, "pool"));
        assert_ne!(draw(2006, "pool"), draw(2007, "pool"));
        assert_ne!(draw(2006, "pool"), draw(2006, "churn"));
        let mut r = SplitMix::new(1);
        let p = r.point(1000.0);
        assert!((0.0..1000.0).contains(&p.x) && (0.0..1000.0).contains(&p.y));
        assert_eq!(r.site(1000.0, 3).attrs.len(), 3);
    }
}
