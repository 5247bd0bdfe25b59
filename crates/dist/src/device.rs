//! One mobile device: its local relation, duplicate-suppression log, and
//! local query execution under the active strategy.

use device_storage::{DeviceRelation, LocalQuery, LocalSkylineOutcome, SkipCause};
use skyline_core::vdr::{select_filters, FilterTuple, MultiFilterSelection};
use skyline_core::{DominanceTest, Tuple};

use crate::config::{FilterStrategy, StrategyConfig};
use crate::query::{QueryLog, QuerySpec};

/// How many of a device's own tuples the multi-filter greedy selection
/// samples as its pruning-power reference.
const GREEDY_REFERENCE_SAMPLE: usize = 2_000;

/// The scan's window dominance test: the paper's Fig. 4 test on hybrid
/// storage.
const SCAN_TEST: DominanceTest = DominanceTest::PaperStrict;

/// The outcome of one device processing one query hop.
#[derive(Debug, Clone)]
pub struct ProcessOutcome {
    /// `SK'_i` — what the device would transmit.
    pub reply: Vec<Tuple>,
    /// `|SK_i|` — unreduced local skyline size (accounting term).
    pub unreduced_len: usize,
    /// The filter bank to use for *further forwarding* — possibly upgraded
    /// by this device under the dynamic strategies. Empty for the
    /// straightforward strategy; at most one entry for `Single`/`Dynamic`;
    /// up to `k` for `MultiDynamic`.
    pub forward_filters: Vec<FilterTuple>,
    /// `true` when the device skipped its scan (MBR miss or filter
    /// dominance).
    pub skipped: bool,
    /// `true` when the device had in-range data (its unreduced skyline is
    /// non-empty) — the participation criterion for DRR accounting.
    pub participated: bool,
    /// Work counters from the storage layer.
    pub stats: device_storage::LocalStats,
}

/// A device: identity, relation, and protocol state.
#[derive(Debug)]
pub struct Device<R> {
    /// Device identifier (`M_i`).
    pub id: usize,
    /// The local relation `R_i`.
    pub relation: R,
    /// Duplicate-suppression log.
    pub log: QueryLog,
}

impl<R: DeviceRelation> Device<R> {
    /// Creates a device.
    pub fn new(id: usize, relation: R) -> Self {
        Device { id, relation, log: QueryLog::new() }
    }

    /// Computes this device's local skyline for `spec` under `cfg`,
    /// applying the incoming filter bank and (for the dynamic strategies)
    /// upgrading it.
    ///
    /// Does **not** touch the duplicate log — transport layers decide when
    /// a message constitutes a new query.
    pub fn process(
        &self,
        spec: &QuerySpec,
        incoming: &[FilterTuple],
        cfg: &StrategyConfig,
    ) -> ProcessOutcome {
        let vdr_bounds = cfg.vdr_bounds(self.relation.upper_bounds().as_ref());
        let query = LocalQuery {
            filter: incoming.first().cloned(),
            extra_filters: incoming.get(1..).unwrap_or_default().to_vec(),
            dominance: SCAN_TEST,
            vdr_bounds: vdr_bounds.clone(),
            ..LocalQuery::plain(spec.region())
        };
        let mut out = self.relation.local_skyline(&query);

        // Shadow accounting: a filter-skip hides |SK_i|; recompute it
        // without the filter, for metrics only (DRR's denominator; costs
        // nothing in virtual time). A spatial miss has nothing to recover —
        // no stored site is in range.
        let mut unreduced_len = out.unreduced_len;
        if out.skip == Some(SkipCause::FilterDominance) {
            let shadow = LocalQuery { dominance: SCAN_TEST, ..LocalQuery::plain(spec.region()) };
            unreduced_len = self.relation.local_skyline(&shadow).unreduced_len;
        }

        let forward_filters = self.forward_filters(incoming, &out, cfg);
        ProcessOutcome {
            participated: unreduced_len > 0,
            reply: std::mem::take(&mut out.skyline),
            unreduced_len,
            forward_filters,
            skipped: out.skip.is_some(),
            stats: out.stats,
        }
    }

    /// The filter bank to attach when this device forwards the query on.
    fn forward_filters(
        &self,
        incoming: &[FilterTuple],
        out: &LocalSkylineOutcome,
        cfg: &StrategyConfig,
    ) -> Vec<FilterTuple> {
        match cfg.filter {
            FilterStrategy::NoFilter => Vec::new(),
            FilterStrategy::Single => incoming.to_vec(),
            FilterStrategy::Dynamic => {
                // Keep at most one filter, upgraded when the local best has
                // larger pruning potential (Section 3.4).
                let mut bank = incoming.to_vec();
                if let Some(cand) = &out.filter_candidate {
                    match bank.first_mut() {
                        Some(cur) if cand.vdr > cur.vdr => *cur = cand.clone(),
                        None => bank.push(cand.clone()),
                        _ => {}
                    }
                }
                bank.truncate(1);
                bank
            }
            FilterStrategy::MultiDynamic { k } => {
                // Grow the bank up to k; beyond that, replace the weakest
                // (smallest-VDR) member when the local best beats it.
                let mut bank = incoming.to_vec();
                if let Some(cand) = &out.filter_candidate {
                    let duplicate = bank.iter().any(|f| f.attrs == cand.attrs);
                    if !duplicate {
                        if bank.len() < k {
                            bank.push(cand.clone());
                        } else if let Some(weakest) =
                            bank.iter_mut().min_by(|a, b| a.vdr.total_cmp(&b.vdr))
                        {
                            if cand.vdr > weakest.vdr {
                                *weakest = cand.clone();
                            }
                        }
                    }
                }
                bank
            }
        }
    }

    /// Originator-side: computes the local skyline and picks the initial
    /// filter bank from it (Section 3.2; `MultiDynamic` uses the greedy
    /// coverage selection of the future-work extension). Returns
    /// (local skyline, filters).
    ///
    /// Unlike relaying, the *originator* always selects filters from its
    /// own skyline when filtering is enabled — the single-filter strategy
    /// only forbids later upgrades.
    pub fn originate(
        &self,
        spec: &QuerySpec,
        cfg: &StrategyConfig,
    ) -> (Vec<Tuple>, Vec<FilterTuple>) {
        let vdr_bounds = cfg.vdr_bounds(self.relation.upper_bounds().as_ref());
        let query = LocalQuery {
            dominance: SCAN_TEST,
            vdr_bounds: vdr_bounds.clone(),
            ..LocalQuery::plain(spec.region())
        };
        let out = self.relation.local_skyline(&query);
        let filters = match (cfg.filter, vdr_bounds) {
            (FilterStrategy::NoFilter, _) | (_, None) => Vec::new(),
            (FilterStrategy::MultiDynamic { k }, Some(bounds)) => {
                // Only the coverage selector consults the reference sample.
                let reference = match cfg.multi_selection {
                    MultiFilterSelection::GreedyCoverage => self.reference_sample(),
                    _ => Vec::new(),
                };
                select_filters(cfg.multi_selection, &out.skyline, &bounds, k, &reference)
            }
            (_, _) => out.filter_candidate.clone().into_iter().collect(),
        };
        (out.skyline, filters)
    }

    /// A bounded sample of this device's own tuples, used as the greedy
    /// selection's pruning-power reference.
    fn reference_sample(&self) -> Vec<Tuple> {
        let n = self.relation.len();
        let step = (n / GREEDY_REFERENCE_SAMPLE).max(1);
        (0..n).step_by(step).map(|i| self.relation.tuple(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device_storage::{FlatRelation, HybridRelation};
    use skyline_core::region::Point;
    use skyline_core::vdr::{BoundsMode, UpperBounds};
    use skyline_core::Tuple;

    fn hotel_device(id: usize, rows: Vec<Tuple>) -> Device<HybridRelation> {
        Device::new(id, HybridRelation::new(rows))
    }

    fn r1() -> Vec<Tuple> {
        datagen::hotels::r1()
    }
    fn r2() -> Vec<Tuple> {
        datagen::hotels::r2()
    }

    fn exact_cfg(filter: FilterStrategy) -> StrategyConfig {
        StrategyConfig {
            filter,
            bounds_mode: BoundsMode::Exact,
            exact_bounds: datagen::hotels::global_bounds(),
            ..StrategyConfig::default()
        }
    }

    #[test]
    fn paper_section_3_2_example() {
        // M2 originates; picks h21 as the filter; M1's reply shrinks from 4
        // tuples to 2 (h14 and h16 eliminated).
        let m2 = hotel_device(2, r2());
        let m1 = hotel_device(1, r1());
        let spec = QuerySpec::new(2, 0, Point::new(10.0, 2.0), f64::INFINITY);
        let cfg = exact_cfg(FilterStrategy::Single);

        let (sk_org, filters) = m2.originate(&spec, &cfg);
        assert_eq!(sk_org.len(), 3);
        let f = filters.into_iter().next().expect("filter picked");
        assert_eq!(f.attrs, vec![60.0, 3.0], "h21 has max VDR");
        assert_eq!(f.vdr, 980.0);

        let out = m1.process(&spec, std::slice::from_ref(&f), &cfg);
        assert_eq!(out.unreduced_len, 4, "M1's unreduced skyline is 4 tuples");
        // The paper: "This tuple eliminates h14 and h16 from M1's local
        // skyline. As a result, the amount of data transferred to M2 is
        // reduced by two."
        assert_eq!(out.reply.len(), 2, "h14 and h16 eliminated");
        assert!(out.participated);
    }

    #[test]
    fn dominance_filter_test_also_removes_h16() {
        // h16 ties the filter on rating: only dominance (not Fig. 4's
        // literal strict `<`) eliminates it, as the paper's prose claims.
        let m1 = hotel_device(1, r1());
        let spec = QuerySpec::new(2, 0, Point::new(10.0, 2.0), f64::INFINITY);
        let cfg = exact_cfg(FilterStrategy::Single);
        let f = FilterTuple::new(vec![60.0, 3.0], &UpperBounds::new(vec![200.0, 10.0]));
        let out = m1.process(&spec, &[f], &cfg);
        assert_eq!(out.reply.len(), 2, "h14 and h16 both eliminated (paper's claim)");
    }

    #[test]
    fn paper_section_3_4_dynamic_example() {
        // M4 originates (picks h41, VDR 960); M3 upgrades to h31 (VDR 980).
        let m4 = hotel_device(4, datagen::hotels::r4());
        let m3 = hotel_device(3, datagen::hotels::r3());
        let spec = QuerySpec::new(4, 0, Point::new(10.0, 4.0), f64::INFINITY);
        let cfg = exact_cfg(FilterStrategy::Dynamic);

        let (_, f4) = m4.originate(&spec, &cfg);
        assert_eq!(f4.len(), 1);
        assert_eq!(f4[0].attrs, vec![80.0, 2.0]);
        assert_eq!(f4[0].vdr, 960.0);

        let out3 = m3.process(&spec, &f4, &cfg);
        let f3 = &out3.forward_filters[0];
        assert_eq!(f3.attrs, vec![60.0, 3.0], "h31 replaces h41");
        assert_eq!(f3.vdr, 980.0);
    }

    #[test]
    fn single_strategy_never_upgrades() {
        let m3 = hotel_device(3, datagen::hotels::r3());
        let spec = QuerySpec::new(4, 0, Point::new(10.0, 4.0), f64::INFINITY);
        let cfg = exact_cfg(FilterStrategy::Single);
        let weak = FilterTuple::new(vec![199.0, 9.0], &UpperBounds::new(vec![200.0, 10.0]));
        let out = m3.process(&spec, &[weak], &cfg);
        assert_eq!(out.forward_filters[0].attrs, vec![199.0, 9.0]);
    }

    #[test]
    fn no_filter_strategy_forwards_nothing() {
        let m1 = hotel_device(1, r1());
        let spec = QuerySpec::new(2, 0, Point::new(0.0, 0.0), f64::INFINITY);
        let out = m1.process(&spec, &[], &StrategyConfig::straightforward());
        assert_eq!(out.reply.len(), 4);
        assert_eq!(out.unreduced_len, 4);
        assert!(out.forward_filters.is_empty());
    }

    #[test]
    fn shadow_accounting_recovers_unreduced_size() {
        // A filter that dominates everything on M1 → scan skipped, but the
        // DRR term |SK_1| = 4 must still be known.
        let m1 = hotel_device(1, r1());
        let spec = QuerySpec::new(2, 0, Point::new(10.0, 1.0), f64::INFINITY);
        let cfg = exact_cfg(FilterStrategy::Single);
        let f = FilterTuple::new(vec![1.0, 1.0], &UpperBounds::new(vec![200.0, 10.0]));
        let out = m1.process(&spec, &[f], &cfg);
        assert!(out.skipped);
        assert!(out.reply.is_empty());
        assert_eq!(out.unreduced_len, 4);
        assert!(out.participated);
    }

    /// A relation whose rows cannot be materialized from outside: `tuple()`
    /// (and with it the default `location()`) panics. Whatever the guards
    /// and shadow accounting need, they must get from the storage layer's
    /// own answer.
    struct NoRowAccess(Box<dyn DeviceRelation>);

    impl DeviceRelation for NoRowAccess {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn tuple(&self, i: usize) -> Tuple {
            panic!("row {i} materialized behind an O(1) guard")
        }
        fn lower_bounds(&self) -> Option<Vec<f64>> {
            self.0.lower_bounds()
        }
        fn upper_bounds(&self) -> Option<UpperBounds> {
            self.0.upper_bounds()
        }
        fn storage_bytes(&self) -> usize {
            self.0.storage_bytes()
        }
        fn local_skyline(&self, query: &LocalQuery) -> LocalSkylineOutcome {
            self.0.local_skyline(query)
        }
    }

    /// `r1()` under both storage models, rows inaccessible, by name.
    fn guarded_models() -> [(&'static str, Device<NoRowAccess>); 2] {
        [
            ("hybrid", Device::new(1, NoRowAccess(Box::new(HybridRelation::new(r1()))))),
            ("flat", Device::new(1, NoRowAccess(Box::new(FlatRelation::new(r1()))))),
        ]
    }

    #[test]
    fn spatial_miss_reads_no_row_under_any_model() {
        let spec = QuerySpec::new(2, 0, Point::new(5000.0, 5000.0), 10.0);
        let cfg = exact_cfg(FilterStrategy::Single);
        let f = FilterTuple::new(vec![1.0, 1.0], &UpperBounds::new(vec![200.0, 10.0]));
        for (model, dev) in guarded_models() {
            let out = dev.process(&spec, std::slice::from_ref(&f), &cfg);
            assert_eq!(out.unreduced_len, 0, "{model}");
            assert!(!out.participated, "{model}");
            // Flat storage keeps no MBR: it scans and finds nothing in range.
            assert_eq!(out.skipped, model == "hybrid", "{model}");
        }
    }

    #[test]
    fn filter_skip_reads_no_row_and_keeps_the_drr_denominator_under_any_model() {
        // The filter dominates all of r1: hybrid's guard 2 skips the scan,
        // flat storage scans and eliminates. Either way |SK_1| — the DRR
        // denominator — is the unfiltered scan's, and nobody reads a row.
        let spec = QuerySpec::new(2, 0, Point::new(10.0, 1.0), f64::INFINITY);
        let cfg = exact_cfg(FilterStrategy::Single);
        let f = FilterTuple::new(vec![1.0, 1.0], &UpperBounds::new(vec![200.0, 10.0]));
        for (model, dev) in guarded_models() {
            let unfiltered =
                LocalQuery { dominance: SCAN_TEST, ..LocalQuery::plain(spec.region()) };
            let want = dev.relation.local_skyline(&unfiltered).unreduced_len;
            assert!(want > 0);
            let out = dev.process(&spec, std::slice::from_ref(&f), &cfg);
            assert_eq!(out.unreduced_len, want, "{model}");
            assert!(out.participated && out.reply.is_empty(), "{model}");
            assert_eq!(out.skipped, model == "hybrid", "{model}");
        }
    }

    #[test]
    fn multi_dynamic_collects_up_to_k_filters() {
        let m2 = hotel_device(2, r2());
        let m1 = hotel_device(1, r1());
        let spec = QuerySpec::new(2, 0, Point::new(10.0, 2.0), f64::INFINITY);
        let cfg = exact_cfg(FilterStrategy::MultiDynamic { k: 2 });

        let (_, filters) = m2.originate(&spec, &cfg);
        assert!(!filters.is_empty() && filters.len() <= 2);
        assert_eq!(filters[0].attrs, vec![60.0, 3.0], "first pick is still max-VDR h21");

        // Relaying through M1 may add/replace, never exceeding k.
        let out = m1.process(&spec, &filters, &cfg);
        assert!(out.forward_filters.len() <= 2);
    }

    #[test]
    fn multi_dynamic_k1_matches_dynamic() {
        let m2 = hotel_device(2, r2());
        let spec = QuerySpec::new(2, 0, Point::new(10.0, 2.0), f64::INFINITY);
        let multi = m2.originate(&spec, &exact_cfg(FilterStrategy::MultiDynamic { k: 1 })).1;
        let single = m2.originate(&spec, &exact_cfg(FilterStrategy::Dynamic)).1;
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].attrs, single[0].attrs);
    }

    #[test]
    fn multi_filter_bank_prunes_more_than_single() {
        // Two complementary filters prune arms a single corner filter
        // misses: M1 replies shrink (or stay equal) as k grows.
        let m1 = hotel_device(1, r1());
        let spec = QuerySpec::new(2, 0, Point::new(10.0, 2.0), f64::INFINITY);
        let cfg = exact_cfg(FilterStrategy::MultiDynamic { k: 3 });
        let bounds = UpperBounds::new(vec![200.0, 10.0]);
        let one = vec![FilterTuple::new(vec![60.0, 3.0], &bounds)];
        let three = vec![
            FilterTuple::new(vec![60.0, 3.0], &bounds),
            FilterTuple::new(vec![35.0, 4.0], &bounds),
            FilterTuple::new(vec![90.0, 2.0], &bounds),
        ];
        let r1 = m1.process(&spec, &one, &cfg).reply.len();
        let r3 = m1.process(&spec, &three, &cfg).reply.len();
        assert!(r3 <= r1, "bank ({r3}) must prune at least as much as one ({r1})");
        assert!(r3 < r1, "the (35,4) filter eliminates h12 which h21 misses");
    }

    #[test]
    fn spatial_miss_is_not_participation() {
        let m1 = hotel_device(1, r1());
        let spec = QuerySpec::new(2, 0, Point::new(5000.0, 5000.0), 10.0);
        let out = m1.process(&spec, &[], &exact_cfg(FilterStrategy::Dynamic));
        assert!(out.skipped);
        assert!(!out.participated);
        assert_eq!(out.unreduced_len, 0);
    }
}
