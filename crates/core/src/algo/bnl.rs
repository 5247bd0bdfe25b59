//! Block-Nested-Loops skyline [Börzsönyi, Kossmann, Stocker, ICDE 2001].
//!
//! This is the algorithm the paper runs on **flat storage** ("For the FS
//! scheme, we use the simple BNL algorithm since no multi-dimensional index
//! or sort order is assumed to be available on a mobile device").
//!
//! The in-memory formulation with an unbounded window (one pass).

use crate::dominance::dominates;
use crate::tuple::Tuple;

/// One-pass BNL with an unbounded window over `(index, attributes)` rows.
/// Returns the indices of the rows no other row dominates, in input order,
/// and the number of dominance tests: one per `w ≺ t` test of a window
/// member `w` against the newcomer `t`, plus a second (`t ≺ w`) when that
/// test fails.
pub fn skyline_counted<'a>(
    rows: impl IntoIterator<Item = (usize, &'a [f64])>,
) -> (Vec<usize>, u64) {
    let mut tests = 0u64;
    let mut window: Vec<(usize, &[f64])> = Vec::new();
    for (i, t) in rows {
        let mut dominated = false;
        // retain() both prunes window members the newcomer dominates and
        // detects whether the newcomer is itself dominated.
        window.retain(|&(_, w)| {
            if dominated {
                return true;
            }
            tests += 1;
            if dominates(w, t) {
                dominated = true;
                true
            } else {
                tests += 1;
                !dominates(t, w)
            }
        });
        if !dominated {
            window.push((i, t));
        }
    }
    (window.into_iter().map(|(i, _)| i).collect(), tests)
}

/// [`skyline_counted`] over a whole relation: indices into `data`,
/// ascending.
pub fn skyline_indices(data: &[Tuple]) -> Vec<usize> {
    skyline_counted(data.iter().map(|t| t.attrs.as_slice()).enumerate()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::oracle;

    fn anti_correlated(n: usize) -> Vec<Tuple> {
        // Deterministic pseudo-random anti-correlated points: x + y ~ const.
        (0..n)
            .map(|i| {
                let a = ((i * 2654435761) % 1000) as f64;
                let b = 1000.0 - a + ((i * 40503) % 17) as f64;
                Tuple::new(i as f64, 0.0, vec![a, b])
            })
            .collect()
    }

    #[test]
    fn matches_oracle_on_anti_correlated() {
        let data = anti_correlated(300);
        assert_eq!(skyline_indices(&data), oracle::skyline_indices(&data));
    }

    #[test]
    fn dominated_prefix_is_pruned() {
        let data = vec![Tuple::new(0.0, 0.0, vec![5.0, 5.0]), Tuple::new(1.0, 0.0, vec![1.0, 1.0])];
        assert_eq!(skyline_indices(&data), vec![1]);
    }
}
