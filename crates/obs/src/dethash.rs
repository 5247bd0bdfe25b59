//! Fixed-key hashing for point-lookup tables whose keys the program makes
//! itself — node ids, id pairs and grid cells in the simulator, site
//! coordinates in the data generator: one to two machine words, never read
//! from outside the program, so a rotate-xor-multiply per word replaces
//! `std`'s per-process-seeded SipHash.
//!
//! Every [`Hasher`] method is `#[inline]`: callers live in other crates and
//! the release profile has no LTO, so without the hint each hashed word
//! would be an out-of-line call.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time multiplicative hasher (Fibonacci constant, Fx-style mix).
#[derive(Default, Clone, Copy)]
pub struct DetHasher(u64);

impl Hasher for DetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    #[inline]
    fn write_u64(&mut self, w: u64) {
        // Fold the high bits down first. The low bits of a product depend
        // only on the low bits of its factors, and an integer- or
        // half-unit-valued `f64` (a site coordinate) has its low mantissa
        // bits all zero, so without the fold such keys share a handful of
        // a table's low-bit buckets. The fold is the identity below 2^43:
        // dense small keys hash exactly as before.
        let w = w ^ (w >> 43);
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }
    #[inline]
    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`DetHasher`]. **Point lookups only**
/// (`get`/`insert`/`remove`/`entry`, and the order-free `retain`, `clear`,
/// `len`, `max`): the hash is the same in every process, but anything that
/// iterates in an order that can reach the simulation takes a `BTreeMap`.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// The set twin of [`DetHashMap`]; the same rule applies.
pub type DetHashSet<K> = HashSet<K, BuildHasherDefault<DetHasher>>;
