//! The reference answer the benchmark checks the program against: the
//! constrained skyline computed from its definition with plain
//! `dominates`, sharing no code with the kernels under test.

use skyline_core::region::QueryRegion;
use skyline_core::{dominates, Tuple, TupleId};

/// Sorted ids of every site inside `region` that no other site inside it
/// dominates.
pub fn brute_skyline<'a>(
    sites: impl IntoIterator<Item = &'a Tuple>,
    region: &QueryRegion,
) -> Vec<TupleId> {
    let mut inside: Vec<&Tuple> =
        sites.into_iter().filter(|t| region.contains(t.location())).collect();
    // A dominator has a strictly smaller attribute sum, so after this
    // sort only earlier sites can dominate later ones.
    inside.sort_by(|a, b| a.attrs.iter().sum::<f64>().total_cmp(&b.attrs.iter().sum::<f64>()));
    let mut sky: Vec<&Tuple> = Vec::new();
    for t in inside {
        if !sky.iter().any(|s| dominates(&s.attrs, &t.attrs)) {
            sky.push(t);
        }
    }
    let mut ids: Vec<TupleId> = sky.into_iter().map(TupleId::site).collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::region::Point;

    #[test]
    fn brute_skyline_applies_range_then_dominance() {
        let sites = vec![
            Tuple::new(0.0, 0.0, vec![5.0, 5.0]),
            Tuple::new(1.0, 0.0, vec![1.0, 9.0]),
            Tuple::new(2.0, 0.0, vec![6.0, 6.0]), // dominated by the first
            Tuple::new(900.0, 0.0, vec![0.0, 0.0]), // dominates all, out of range
        ];
        let near = QueryRegion::new(Point::new(0.0, 0.0), 10.0);
        let ids = brute_skyline(&sites, &near);
        let mut want = vec![TupleId::site(&sites[0]), TupleId::site(&sites[1])];
        want.sort_unstable();
        assert_eq!(ids, want);
        assert_eq!(
            brute_skyline(&sites, &QueryRegion::unbounded()),
            vec![TupleId::site(&sites[3])]
        );
    }
}
