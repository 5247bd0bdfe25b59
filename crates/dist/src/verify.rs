//! Systematic correctness verification: compare a distributed answer with
//! the centralized constrained skyline of the deduplicated union.
//!
//! The integration and property tests use this; it is public because a
//! downstream deployment will want the same audit — run a query both ways
//! on a testbed snapshot and diff.

use std::collections::BTreeSet;

use device_storage::DeviceRelation;
use skyline_core::region::QueryRegion;
use skyline_core::{constrained, Tuple, TupleId};

use crate::config::StrategyConfig;
use crate::static_net::StaticGridNetwork;

/// The outcome of one verification.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// Sites in the distributed answer missing from the truth.
    pub spurious: Vec<Tuple>,
    /// Sites in the truth missing from the distributed answer.
    pub missing: Vec<Tuple>,
    /// Size of the centralized ground truth.
    pub truth_len: usize,
    /// Size of the distributed answer.
    pub answer_len: usize,
}

impl VerificationReport {
    /// `true` when the answers match exactly.
    pub fn is_exact(&self) -> bool {
        self.spurious.is_empty() && self.missing.is_empty()
    }
}

/// One spurious answer tuple with its provenance: where it sits and which
/// device's reply first introduced it to the originator's merge. With an
/// adversary in the network this column names the offender; `first_from ==
/// usize::MAX` means the source was not attributable (e.g. a DF token's
/// blended partial, or a pre-provenance record).
#[derive(Debug, Clone, PartialEq)]
pub struct SpuriousSite {
    /// Site x-coordinate.
    pub x: f64,
    /// Site y-coordinate.
    pub y: f64,
    /// Device whose reply first carried this tuple (`usize::MAX` =
    /// unknown).
    pub first_from: usize,
}

/// Diffs a distributed `answer` against the centralized skyline of the
/// deduplicated union of `partitions`, restricted to `region`. Sites are
/// identified by location.
pub fn diff_against_truth(
    answer: &[Tuple],
    partitions: &[Vec<Tuple>],
    region: &QueryRegion,
) -> VerificationReport {
    diff(answer, &truth(partitions.iter(), region))
}

/// The reference skyline of `partitions`' rows inside `region`, each
/// site identified by its location.
fn truth<'a>(
    partitions: impl Iterator<Item = &'a Vec<Tuple>>,
    region: &QueryRegion,
) -> Vec<(TupleId, &'a Tuple)> {
    constrained::skyline(partitions.flatten().map(|t| (TupleId::site(t), t)), region)
}

/// Diffs `answer` against `truth` by site location.
fn diff(answer: &[Tuple], truth: &[(TupleId, &Tuple)]) -> VerificationReport {
    let truth_keys: BTreeSet<TupleId> = truth.iter().map(|&(id, _)| id).collect();
    let answer_keys: BTreeSet<TupleId> = answer.iter().map(TupleId::site).collect();
    VerificationReport {
        spurious: answer
            .iter()
            .filter(|t| !truth_keys.contains(&TupleId::site(t)))
            .cloned()
            .collect(),
        missing: truth
            .iter()
            .filter(|(id, _)| !answer_keys.contains(id))
            .map(|&(_, t)| t.clone())
            .collect(),
        truth_len: truth.len(),
        answer_len: answer.len(),
    }
}

/// Scores every MANET query record against the sequential oracle, in
/// place. Two diffs per record:
///
/// * **Completeness** — coverage of the constrained skyline over *all*
///   partitions. Under churn this is expected to fall below 1.0 (a crashed
///   device's data is unreachable); the scorecard quantifies the miss.
/// * **Spurious** — answer tuples not in the skyline of the union of the
///   *contributing* devices' partitions (the responders plus the
///   originator): the answer claims a tuple their data refutes. With
///   every reply delivered, anything above 0 is a protocol bug; a lost
///   reply can take with it the filter tuple that pruned the refuting
///   tuple on another device (DESIGN.md §7.2).
///
/// `partitions[i]` must be device `i`'s relation as the run *started*;
/// scoring therefore assumes relations stayed pinned (no handoff).
/// Records closed by an originator crash carry an empty result and are
/// scored like any other (their completeness is 0 unless the oracle is
/// empty too, which keeps them visible in the aggregates).
pub fn score_records(records: &mut [crate::runtime::QueryRecord], partitions: &[Vec<Tuple>]) {
    for r in records.iter_mut() {
        let region = if r.radius.is_infinite() {
            QueryRegion::unbounded()
        } else {
            QueryRegion::new(r.pos, r.radius)
        };
        let answer: Vec<TupleId> = r.result.iter().map(TupleId::site).collect();
        let full: Vec<TupleId> =
            truth(partitions.iter(), &region).into_iter().map(|(id, _)| id).collect();
        r.completeness = Some(score_epoch(&answer, &full).0);
        let contributing = r.contributors.iter().filter_map(|&i| partitions.get(i));
        let supported: BTreeSet<TupleId> =
            truth(contributing, &region).into_iter().map(|(id, _)| id).collect();
        // Attribute each spurious site to the device whose reply first
        // carried it (`result_sources` is parallel to `result`; records
        // predating provenance tracking fall back to "unknown").
        r.spurious_sites = (r.result.iter().enumerate())
            .filter(|(_, t)| !supported.contains(&TupleId::site(t)))
            .map(|(i, t)| SpuriousSite {
                x: t.x,
                y: t.y,
                first_from: r.result_sources.get(i).copied().unwrap_or(usize::MAX),
            })
            .collect();
        r.spurious = r.spurious_sites.len() as u64;
    }
}

/// Scores one monitoring epoch: the folded view's skyline ids against the
/// oracle ids recomputed from the devices' recorded ground truth. Returns
/// `(completeness, spurious)` with the same semantics as
/// [`score_records`] — completeness is oracle coverage (1.0 when the
/// oracle is empty), spurious counts view members the oracle rejects.
/// Both inputs are id sets; order is irrelevant.
pub fn score_epoch(view: &[TupleId], oracle: &[TupleId]) -> (f64, u64) {
    let o: BTreeSet<&TupleId> = oracle.iter().collect();
    let v: BTreeSet<&TupleId> = view.iter().collect();
    let covered = oracle.iter().filter(|id| v.contains(id)).count();
    let spurious = view.iter().filter(|id| !o.contains(id)).count() as u64;
    let completeness = if oracle.is_empty() { 1.0 } else { covered as f64 / oracle.len() as f64 };
    (completeness, spurious)
}

/// Runs a query on a static network and verifies it in one call.
pub fn verify_static_query<R: DeviceRelation>(
    net: &StaticGridNetwork<R>,
    origin: usize,
    d: f64,
    cfg: &StrategyConfig,
) -> VerificationReport {
    let out = net.run_query(origin, d, cfg);
    let truth = net.ground_truth(origin, d);
    diff(&out.result, &truth.iter().map(|t| (TupleId::site(t), t)).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_net::grid_network_from_global;
    use datagen::{DataSpec, Distribution, SpatialExtent};
    use skyline_core::region::Point;
    use skyline_core::vdr::BoundsMode;

    #[test]
    fn exact_answers_verify_clean() {
        let spec = DataSpec::manet_experiment(3_000, 2, Distribution::Independent, 9);
        let net = grid_network_from_global(&spec.generate(), 3, SpatialExtent::PAPER);
        let cfg = StrategyConfig {
            bounds_mode: BoundsMode::Exact,
            exact_bounds: spec.global_upper_bounds(),
            ..StrategyConfig::default()
        };
        let report = verify_static_query(&net, 4, 300.0, &cfg);
        assert!(report.is_exact(), "{report:?}");
        assert_eq!(report.truth_len, report.answer_len);
    }

    #[test]
    fn diff_flags_spurious_and_missing() {
        let a = Tuple::new(0.0, 0.0, vec![1.0, 9.0]);
        let b = Tuple::new(1.0, 0.0, vec![9.0, 1.0]);
        let wrong = Tuple::new(2.0, 0.0, vec![5.0, 5.0]); // not in truth
        let partitions = vec![vec![a.clone(), b.clone()]];
        let region = QueryRegion::unbounded();

        let report = diff_against_truth(&[a.clone(), wrong.clone()], &partitions, &region);
        assert_eq!(report.truth_len, 2);
        assert_eq!(report.spurious, vec![wrong]);
        assert_eq!(report.missing, vec![b]);
        assert!(!report.is_exact());
    }

    #[test]
    fn empty_truth_counts_as_full_coverage() {
        let report =
            diff_against_truth(&[], &[vec![]], &QueryRegion::new(Point::new(0.0, 0.0), 1.0));
        assert!(report.is_exact());
        assert_eq!(report.truth_len, 0);
    }

    #[test]
    fn score_records_quantifies_misses_and_spurious_separately() {
        use crate::query::QueryKey;
        use crate::runtime::QueryRecord;
        use manet_sim::SimTime;

        let a = Tuple::new(0.0, 0.0, vec![1.0, 9.0]);
        let b = Tuple::new(1.0, 0.0, vec![9.0, 1.0]);
        let partitions = vec![vec![a.clone()], vec![b.clone()]];
        let mk = |result: Vec<Tuple>, contributors: Vec<usize>| QueryRecord {
            responded: contributors.len().saturating_sub(1),
            result_len: result.len(),
            result,
            contributors,
            ..QueryRecord::open(
                QueryKey { origin: 0, cnt: 0 },
                SimTime(0),
                Point::new(0.0, 0.0),
                f64::INFINITY,
            )
        };
        // Device 1 crashed: its tuple is missing. That halves completeness
        // but is NOT spurious — the contributing oracle (device 0 only)
        // fully supports the answer.
        let mut recs = vec![mk(vec![a.clone()], vec![0])];
        score_records(&mut recs, &partitions);
        assert_eq!(recs[0].completeness, Some(0.5));
        assert_eq!(recs[0].spurious, 0);

        // An answer tuple dominated by a contributor's own data IS
        // spurious: the protocol returned something it saw better data
        // against.
        let dominated = Tuple::new(2.0, 0.0, vec![2.0, 10.0]);
        let mut recs = vec![mk(vec![a.clone(), b.clone(), dominated.clone()], vec![0, 1])];
        // Provenance parallel to the result: the spurious third tuple was
        // first carried by device 7's reply.
        recs[0].result_sources = vec![0, 1, 7];
        score_records(&mut recs, &partitions);
        assert_eq!(recs[0].completeness, Some(1.0));
        assert_eq!(recs[0].spurious, 1);
        assert_eq!(
            recs[0].spurious_sites,
            vec![SpuriousSite { x: dominated.x, y: dominated.y, first_from: 7 }]
        );

        // Without provenance the site is still reported, attributed to the
        // unknown sentinel.
        let mut recs = vec![mk(vec![a.clone(), b.clone(), dominated.clone()], vec![0, 1])];
        score_records(&mut recs, &partitions);
        assert_eq!(recs[0].spurious_sites[0].first_from, usize::MAX);
    }

    #[test]
    fn score_epoch_separates_coverage_from_spurious() {
        let a = TupleId(1, 0);
        let b = TupleId(2, 1);
        let c = TupleId(3, 0);
        // Perfect view.
        assert_eq!(score_epoch(&[a, b], &[b, a]), (1.0, 0));
        // Half covered, one spurious.
        assert_eq!(score_epoch(&[a, c], &[a, b]), (0.5, 1));
        // Empty oracle counts as fully covered; the view is all spurious.
        assert_eq!(score_epoch(&[a], &[]), (1.0, 1));
        // Empty view covers nothing.
        assert_eq!(score_epoch(&[], &[a, b]), (0.0, 0));
    }

    #[test]
    fn duplicate_sites_across_partitions_counted_once() {
        let shared = Tuple::new(5.0, 5.0, vec![1.0, 1.0]);
        let partitions = vec![vec![shared.clone()], vec![shared.clone()]];
        let report = diff_against_truth(&[shared], &partitions, &QueryRegion::unbounded());
        assert!(report.is_exact());
        assert_eq!(report.truth_len, 1);
    }
}
