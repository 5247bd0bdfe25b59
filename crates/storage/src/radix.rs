//! The build's presorts: a stable LSD radix sort over only the key bits
//! that vary, with a comparison sort below [`RADIX_CUTOFF`] items.
//!
//! Both presorts of [`crate::HybridRelation`]'s build sort `(key, row)`
//! pairs — a value's total-order key per attribute, the packed `(sort ID,
//! Σ IDs)` for the row order — with the rows ascending, so a stable sort on
//! the key alone yields exactly what `sort_unstable` on the pair does.

/// Items below which `sort_unstable` is kept. Measured on a 2-core x86-64
/// host over the build's own keys (integer attribute values 1..=1000, rows
/// of 4 attributes): per relation the radix passes break even between 64
/// and 128 rows, and at 6 000 rows they take under half the time. The serve
/// tier's cold backend (~62 rows a cell) builds below, a `manet_dense`
/// device (~6 000) above.
pub(crate) const RADIX_CUTOFF: usize = 96;

/// Widest digit of one pass: 2 048 counters stay in L1.
const MAX_DIGIT_BITS: u32 = 11;

/// Sorts `(key, row)` pairs ascending; `scratch` is a reusable buffer. The
/// rows must ascend within every run of equal keys (input order does it),
/// so the stable radix passes on the key and `sort_unstable` on the pair
/// agree pair for pair.
pub(crate) fn sort_pairs(v: &mut Vec<(u64, u32)>, scratch: &mut Vec<(u64, u32)>) {
    if v.len() < RADIX_CUTOFF {
        v.sort_unstable();
        return;
    }
    // Only the bits between the lowest and the highest that differ from
    // the first key can order anything.
    let first = v[0].0;
    let varying = v.iter().fold(0, |acc, &(key, _)| acc | (key ^ first));
    if varying == 0 {
        return;
    }
    let low = varying.trailing_zeros();
    let width = u64::BITS - varying.leading_zeros() - low;
    let passes = width.div_ceil(MAX_DIGIT_BITS);
    let bits = width.div_ceil(passes);
    let digit = |key: u64, pass: u32| (key >> (low + pass * bits)) as usize & ((1 << bits) - 1);

    // One counting walk for every pass, then one scatter per pass, least
    // significant digit first.
    let mut counts = vec![0usize; (passes as usize) << bits];
    for &(key, _) in v.iter() {
        for pass in 0..passes {
            counts[((pass as usize) << bits) + digit(key, pass)] += 1;
        }
    }
    scratch.clear();
    scratch.extend_from_slice(v);
    for (pass, next) in (0..passes).zip(counts.chunks_exact_mut(1 << bits)) {
        let mut at = 0;
        for slot in next.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for &pair in v.iter() {
            let d = digit(pair.0, pass);
            scratch[next[d]] = pair;
            next[d] += 1;
        }
        std::mem::swap(v, scratch);
    }
}
