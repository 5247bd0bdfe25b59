//! Dominance relations between tuples.
//!
//! A tuple `a` *dominates* `b` when `a` is no worse than `b` in every
//! dimension and strictly better in at least one. All attributes are
//! minimized.
//!
//! Besides the textbook test ([`dominates`], [`DominanceTest::Full`]), this
//! module provides the *strict* variant used verbatim by the paper's Fig. 4
//! local-skyline algorithm ([`DominanceTest::PaperStrict`]): when the
//! relation is sorted ascending on attribute `p_1`, the paper tests a window
//! point `sp_k` against a later scan point `tp_j` with
//! `∀ l > 1 : sp_k.id_l < tp_j.id_l`. That test is *sufficient* but not
//! *necessary* (it misses dominance through ties), so the paper's local
//! skylines can be slight supersets of the true local skyline — which is
//! harmless for correctness (the originator's merge removes survivors) but
//! measurable in traffic. The ablation bench quantifies the difference.

/// Which dominance test a scan should use. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DominanceTest {
    /// Complete test: `≤` everywhere, `<` somewhere. Exact skylines.
    #[default]
    Full,
    /// The paper's Fig. 4 test: given that `a` precedes `b` in the sort
    /// order on `p_1`, require strict `<` on every dimension *after* the
    /// first. May keep dominated tuples when values tie.
    PaperStrict,
}

/// `true` iff `a` dominates `b` (full test).
///
/// # Panics
/// Debug-asserts equal dimensionality; mismatched inputs are a logic error
/// upstream (all relations share one schema).
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "schema mismatch in dominance test");
    let mut strictly_better = false;
    for (&av, &bv) in a.iter().zip(b) {
        if av > bv {
            return false;
        }
        if av < bv {
            strictly_better = true;
        }
    }
    strictly_better
}

/// The paper's Fig. 4 window test: assumes `a` precedes `b` in the scan
/// order (so `a.p_1 ≤ b.p_1` already holds) and checks strict `<` on every
/// dimension after the first.
#[inline]
pub fn paper_strict_dominates_rest(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "schema mismatch in dominance test");
    a.iter().zip(b).skip(1).all(|(&av, &bv)| av < bv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominates_requires_strict_improvement() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]), "equal tuples do not dominate");
    }

    #[test]
    fn dominates_fails_on_any_worse_dimension() {
        assert!(!dominates(&[1.0, 5.0], &[2.0, 2.0]));
        assert!(!dominates(&[5.0, 1.0], &[2.0, 2.0]));
    }

    #[test]
    fn dominance_is_irreflexive_and_asymmetric() {
        let a = [3.0, 4.0];
        let b = [2.0, 5.0];
        assert!(!dominates(&a, &a));
        if dominates(&a, &b) {
            assert!(!dominates(&b, &a));
        }
    }

    #[test]
    fn paper_strict_misses_ties() {
        // a = (1, 2, 3) dominates b = (1, 2, 4) under the full test …
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 4.0];
        assert!(dominates(&a, &b));
        // … but the paper's strict rest-test misses it because p_2 ties.
        assert!(!paper_strict_dominates_rest(&a, &b));
    }

    #[test]
    fn paper_strict_agrees_when_all_rest_strict() {
        let a = [5.0, 1.0, 1.0];
        let b = [5.0, 2.0, 2.0];
        assert!(paper_strict_dominates_rest(&a, &b));
        assert!(dominates(&a, &b));
    }

    #[test]
    fn paper_strict_implies_full_given_sorted_first_dim() {
        // Whenever a.p1 <= b.p1 (the scan invariant) and the strict rest-test
        // passes, the full test must also pass.
        let cases = [([1.0, 3.0, 3.0], [2.0, 4.0, 4.0]), ([2.0, 0.0, 9.0], [2.0, 1.0, 10.0])];
        for (a, b) in cases {
            assert!(a[0] <= b[0]);
            if paper_strict_dominates_rest(&a, &b) {
                assert!(dominates(&a, &b));
            }
        }
    }

    #[test]
    fn single_dimension_dominance() {
        assert!(dominates(&[1.0], &[2.0]));
        assert!(!dominates(&[2.0], &[1.0]));
        assert!(!dominates(&[1.0], &[1.0]));
    }
}
