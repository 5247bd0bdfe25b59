//! `DetHashMap` is `std`'s `HashMap` with a fixed-key hasher: the same
//! table semantics, the same hash in every process.

use proptest::prelude::*;
use sim_obs::dethash::{DetHashMap, DetHasher};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

fn hash_of(key: impl Hash) -> u64 {
    let mut h = DetHasher::default();
    key.hash(&mut h);
    h.finish()
}

#[test]
fn hashes_are_fixed_and_spread_dense_keys() {
    // Literals: no per-process seed can be hiding in the hasher.
    assert_eq!(hash_of(1usize), 0x9E37_79B9_7F4A_7C15);
    // A `u32` (a site-table handle) is one word, not four byte rounds.
    assert_eq!(hash_of(7u32), hash_of(7u64));
    assert_eq!(hash_of((3usize, 9u64)), hash_of((3usize, 9u64)));
    assert_ne!(hash_of((3usize, 9u64)), hash_of((9usize, 3u64)));
    assert_ne!(hash_of((-1i64, 0i64)), hash_of((0i64, -1i64)));
    // Dense node ids fill every bucket of a power-of-two table exactly
    // once (odd multiplier ⇒ bijection on the low bits) and spread over
    // the top-7-bit control tags hashbrown filters probes with.
    let mut low: Vec<u64> = (0..4096usize).map(|k| hash_of(k) & 4095).collect();
    low.sort_unstable();
    assert!(low.iter().copied().eq(0..4096));
    let mut tags: Vec<u64> = (0..4096usize).map(|k| hash_of(k) >> 57).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 128);
}

/// Distinct low-12-bit buckets reached by the site keys of a 64 × 64 grid
/// with spacing `step`: `(x, y)` as `f64` bit patterns, the shape of a
/// static-site `TupleId`.
fn grid_buckets(step: f64) -> usize {
    let mut low: Vec<u64> = (0..64u32)
        .flat_map(|i| (0..64u32).map(move |j| (f64::from(i) * step, f64::from(j) * step)))
        .map(|(x, y)| hash_of((x.to_bits(), y.to_bits())) & 4095)
        .collect();
    low.sort_unstable();
    low.dedup();
    low.len()
}

#[test]
fn float_grid_site_keys_spread_over_the_low_bits() {
    // Integer and half-unit coordinates have all-zero low mantissa bits;
    // the high-bit fold must still spread them over the table.
    for step in [1.0, 0.5] {
        let reached = grid_buckets(step);
        assert!(reached >= 2048, "step {step}: {reached} of 4096 buckets");
    }
}

proptest! {
    /// Point operations agree with an ordered map, op for op.
    #[test]
    fn point_operations_match_a_btreemap(
        ops in prop::collection::vec((0u8..4, 0usize..40, 0u64..6, any::<u32>()), 1..300),
    ) {
        let mut det: DetHashMap<(usize, u64), u32> = DetHashMap::default();
        let mut oracle = BTreeMap::new();
        for (op, a, b, v) in ops {
            let key = (a, b);
            match op {
                0 | 1 => prop_assert_eq!(det.insert(key, v), oracle.insert(key, v)),
                2 => prop_assert_eq!(det.remove(&key), oracle.remove(&key)),
                _ => prop_assert_eq!(det.get(&key), oracle.get(&key)),
            }
            prop_assert_eq!(det.len(), oracle.len());
        }
        det.retain(|k, _| k.0 % 2 == 0);
        oracle.retain(|k, _| k.0 % 2 == 0);
        let mut left: Vec<_> = det.into_iter().collect();
        left.sort_unstable();
        prop_assert_eq!(left, oracle.into_iter().collect::<Vec<_>>());
    }
}
