//! Block-Nested-Loops skyline [Börzsönyi, Kossmann, Stocker, ICDE 2001].
//!
//! This is the algorithm the paper runs on **flat storage** ("For the FS
//! scheme, we use the simple BNL algorithm since no multi-dimensional index
//! or sort order is assumed to be available on a mobile device").
//!
//! The in-memory formulation with an unbounded window (one pass), over
//! tuples ([`skyline_indices`]) or a contiguous block
//! ([`block_skyline_indices`]).

use crate::block::TupleBlock;
use crate::tuple::Tuple;

/// One-pass BNL with an unbounded window. Returns indices in input order of
/// first qualification.
pub fn skyline_indices(data: &[Tuple]) -> Vec<usize> {
    block_skyline_indices(&TupleBlock::from_tuples(data))
}

/// One-pass BNL over a contiguous [`TupleBlock`]. Row indices double as
/// relation indices.
pub fn block_skyline_indices(block: &TupleBlock) -> Vec<usize> {
    let mut span = sim_obs::span!("core::block_bnl");
    span.add_units(block.len() as u64);
    let dom = block.kernel();
    let mut window: Vec<usize> = Vec::new();
    for i in 0..block.len() {
        let t = block.row(i);
        let mut dominated = false;
        // retain() both prunes window members the newcomer dominates and
        // detects whether the newcomer is itself dominated.
        window.retain(|&w| {
            if dominated {
                return true;
            }
            if dom(block.row(w), t) {
                dominated = true;
                true
            } else {
                !dom(t, block.row(w))
            }
        });
        if !dominated {
            window.push(i);
        }
    }
    window.sort_unstable();
    window
}

/// [`block_skyline_indices`] that also reports the number of dominance
/// tests performed, feeding the perf baseline (`BENCH_core.json`).
pub fn block_skyline_indices_counted(block: &TupleBlock) -> (Vec<usize>, u64) {
    let dom = block.kernel();
    let mut tests = 0u64;
    let mut window: Vec<usize> = Vec::new();
    for i in 0..block.len() {
        let t = block.row(i);
        let mut dominated = false;
        window.retain(|&w| {
            if dominated {
                return true;
            }
            tests += 1;
            if dom(block.row(w), t) {
                dominated = true;
                true
            } else {
                tests += 1;
                !dom(t, block.row(w))
            }
        });
        if !dominated {
            window.push(i);
        }
    }
    window.sort_unstable();
    (window, tests)
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
