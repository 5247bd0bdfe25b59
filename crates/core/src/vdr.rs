//! Dominating regions and filtering tuples (Sections 3.2–3.3 of the paper).
//!
//! The *dominating region* of a tuple `tp_j` is the hyper-rectangle spanned
//! by `tp_j` and the maximum corner of the data space; every tuple inside it
//! is dominated by `tp_j`. Its volume
//! `VDR_j = Π_k (b_k − p_jk)` measures the tuple's pruning power, and the
//! filtering-tuple strategy ships the max-VDR tuple of the originator's local
//! skyline together with the query so that remote devices can drop dominated
//! tuples *before* transmitting them.
//!
//! When the global upper bounds `b_k` are unknown on a device, the paper
//! substitutes an **over-estimate** (`max_k > b_k`, e.g. the largest value of
//! the attribute's type) or an **under-estimate** (the device-local maxima
//! `h_k`). Neither affects correctness — only which tuple gets picked.

use crate::dominance::dominates;
use crate::tuple::Tuple;

/// How a device derives the attribute upper bounds it plugs into the VDR
/// formula (Section 3.3; `OVE` / `EXT` / `UNE` in the experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundsMode {
    /// `EXT`: exact global domain upper bounds `b_k` are known everywhere.
    #[default]
    Exact,
    /// `OVE`: a pre-specified value larger than `b_k` (we use a configurable
    /// multiple of the true bound; the paper suggests e.g. the type maximum).
    Over,
    /// `UNE`: the local maximum `h_k` of each attribute on the device.
    Under,
}

/// Per-attribute upper bounds used for VDR computation.
#[derive(Debug, Clone, PartialEq)]
pub struct UpperBounds(pub Vec<f64>);

impl UpperBounds {
    /// Bounds taken directly from a vector of per-attribute maxima.
    pub fn new(bounds: Vec<f64>) -> Self {
        UpperBounds(bounds)
    }

    /// The local maxima `h_k` of a relation — the `UNE` bounds of the device
    /// holding it. Returns `None` for an empty relation.
    pub fn local_maxima(tuples: &[Tuple]) -> Option<Self> {
        let first = tuples.first()?;
        let mut h = first.attrs.to_vec();
        for t in &tuples[1..] {
            for (hk, &v) in h.iter_mut().zip(&t.attrs) {
                if v > *hk {
                    *hk = v;
                }
            }
        }
        Some(UpperBounds(h))
    }

    /// Scales every bound by `factor` (used to build `OVE` bounds from exact
    /// ones in experiments).
    pub fn scaled(&self, factor: f64) -> Self {
        UpperBounds(self.0.iter().map(|b| b * factor).collect())
    }

    /// Dimensionality of the bounds vector.
    pub fn dim(&self) -> usize {
        self.0.len()
    }
}

/// Volume of the dominating region of `attrs` under `bounds`:
/// `Π_k max(b_k − p_k, 0)`.
///
/// Negative side lengths are clamped to zero: a tuple lying beyond an
/// (under-estimated) bound on some dimension has no certified dominating
/// volume on that dimension. This keeps `UNE` well defined when the filter
/// candidate exceeds another device's local maximum.
///
/// A dimension mismatch between `attrs` and `bounds` certifies nothing and
/// returns 0.0 — a short bounds vector must not silently truncate the
/// product (which would *inflate* the volume by skipping factors ≤ bound).
#[inline]
pub fn vdr_volume(attrs: &[f64], bounds: &UpperBounds) -> f64 {
    if attrs.len() != bounds.0.len() {
        return 0.0;
    }
    attrs.iter().zip(&bounds.0).map(|(&p, &b)| (b - p).max(0.0)).product()
}

/// A filtering tuple in flight: its attribute vector plus the VDR volume it
/// was selected with (so relays can compare pruning potential without
/// re-deriving bounds).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterTuple {
    /// Non-spatial attributes of the filter tuple.
    pub attrs: Vec<f64>,
    /// The VDR volume computed where the tuple was picked.
    pub vdr: f64,
}

impl FilterTuple {
    /// Wraps an attribute vector, computing its VDR under `bounds`.
    pub fn new(attrs: Vec<f64>, bounds: &UpperBounds) -> Self {
        let vdr = vdr_volume(&attrs, bounds);
        FilterTuple { attrs, vdr }
    }

    /// Bytes on the wire: attributes plus the 8-byte VDR value.
    pub fn wire_size(&self) -> usize {
        8 * (self.attrs.len() + 1)
    }
}

/// Picks the max-VDR tuple out of a local skyline (Section 3.2): the
/// filtering tuple the originator attaches to the query. Returns `None` for
/// an empty skyline. Ties keep the earliest tuple, which makes selection
/// deterministic.
pub fn select_filter(skyline: &[Tuple], bounds: &UpperBounds) -> Option<FilterTuple> {
    let mut best: Option<(f64, &Tuple)> = None;
    for t in skyline {
        let v = vdr_volume(&t.attrs, bounds);
        match best {
            Some((bv, _)) if bv >= v => {}
            _ => best = Some((v, t)),
        }
    }
    best.map(|(v, t)| FilterTuple { attrs: t.attrs.to_vec(), vdr: v })
}

/// Selects up to `k` filtering tuples from a local skyline — the paper's
/// **future-work extension** ("to generalize the filtering idea, using more
/// than one filtering tuple. Important questions include how many, and
/// which, tuples should be used as filters").
///
/// Strategy: the first pick is the max-VDR tuple (identical to the paper's
/// single-filter choice, so `k = 1` reproduces it exactly); each further
/// pick greedily maximizes the number of `reference` tuples it eliminates
/// *beyond* what the already chosen filters eliminate, breaking ties by
/// VDR. `reference` is typically (a sample of) the selecting device's own
/// relation — an empirical proxy for global pruning power.
pub fn select_filters_greedy(
    skyline: &[Tuple],
    bounds: &UpperBounds,
    k: usize,
    reference: &[Tuple],
) -> Vec<FilterTuple> {
    if k == 0 || skyline.is_empty() {
        return Vec::new();
    }
    let mut chosen: Vec<FilterTuple> = Vec::with_capacity(k);
    let first = select_filter(skyline, bounds).expect("non-empty skyline");
    let mut covered: Vec<bool> =
        reference.iter().map(|t| dominates(&first.attrs, &t.attrs)).collect();
    chosen.push(first);

    while chosen.len() < k {
        let mut best: Option<(usize, f64, &Tuple)> = None; // (gain, vdr, tuple)
        for t in skyline {
            if chosen.iter().any(|c| c.attrs == t.attrs) {
                continue;
            }
            let gain = reference
                .iter()
                .zip(&covered)
                .filter(|(r, &c)| !c && dominates(&t.attrs, &r.attrs))
                .count();
            let vdr = vdr_volume(&t.attrs, bounds);
            let better = match best {
                None => true,
                Some((bg, bv, _)) => gain > bg || (gain == bg && vdr > bv),
            };
            if better {
                best = Some((gain, vdr, t));
            }
        }
        let Some((gain, vdr, t)) = best else { break };
        // Stop as soon as the marginal gain hits zero: each extra filter
        // costs one tuple on the wire per device, so a zero-gain pick —
        // including the *second* one — never pays for itself. (The first
        // pick is the paper's max-VDR filter and always ships.)
        if gain == 0 {
            break;
        }
        for (c, r) in covered.iter_mut().zip(reference) {
            if !*c && dominates(&t.attrs, &r.attrs) {
                *c = true;
            }
        }
        chosen.push(FilterTuple { attrs: t.attrs.to_vec(), vdr });
    }
    chosen
}

/// *Which* tuples make the best filter bank — the second half of the
/// paper's open question. Three selectors with different philosophies:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiFilterSelection {
    /// The `k` largest-VDR tuples: the naive generalization of the paper's
    /// single-filter rule. Cheap, but the top-VDR tuples tend to sit near
    /// each other and prune overlapping regions.
    TopVdr,
    /// Greedy marginal-coverage maximization against a reference sample
    /// (see [`select_filters_greedy`]): picks complements, not clones.
    #[default]
    GreedyCoverage,
    /// Max-VDR first, then repeatedly the skyline tuple farthest (L1) from
    /// every already-picked filter: pure diversity, no reference sample
    /// needed — suits devices too weak to rescan their data.
    MaxSpread,
}

/// Selects up to `k` filters from `skyline` under the chosen policy.
/// `reference` is only consulted by [`MultiFilterSelection::GreedyCoverage`].
pub fn select_filters(
    selection: MultiFilterSelection,
    skyline: &[Tuple],
    bounds: &UpperBounds,
    k: usize,
    reference: &[Tuple],
) -> Vec<FilterTuple> {
    if k == 0 || skyline.is_empty() {
        return Vec::new();
    }
    match selection {
        MultiFilterSelection::GreedyCoverage => {
            select_filters_greedy(skyline, bounds, k, reference)
        }
        MultiFilterSelection::TopVdr => {
            let mut scored: Vec<(f64, &Tuple)> =
                skyline.iter().map(|t| (vdr_volume(&t.attrs, bounds), t)).collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            scored
                .into_iter()
                .take(k)
                .map(|(vdr, t)| FilterTuple { attrs: t.attrs.to_vec(), vdr })
                .collect()
        }
        MultiFilterSelection::MaxSpread => {
            let mut chosen: Vec<FilterTuple> = select_filter(skyline, bounds).into_iter().collect();
            while chosen.len() < k {
                let l1 = |a: &[f64], b: &[f64]| -> f64 {
                    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
                };
                let best = skyline
                    .iter()
                    .filter(|t| chosen.iter().all(|c| c.attrs != t.attrs))
                    .map(|t| {
                        let spread = chosen
                            .iter()
                            .map(|c| l1(&c.attrs, &t.attrs))
                            .fold(f64::INFINITY, f64::min);
                        (spread, t)
                    })
                    .max_by(|a, b| a.0.total_cmp(&b.0));
                match best {
                    Some((spread, t)) if spread > 0.0 => {
                        chosen.push(FilterTuple::new(t.attrs.to_vec(), bounds));
                    }
                    _ => break,
                }
            }
            chosen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3 of the paper: M_2's hotels (price, rating).
    fn m2_skyline() -> Vec<Tuple> {
        vec![
            Tuple::new(0.0, 0.0, vec![60.0, 3.0]),  // h21
            Tuple::new(1.0, 0.0, vec![90.0, 2.0]),  // h22
            Tuple::new(2.0, 0.0, vec![120.0, 1.0]), // h23
        ]
    }

    #[test]
    fn paper_worked_example_vdr_values() {
        // Global bounds (200, 10); VDRs must be 980 / 880 / 720 as printed.
        let b = UpperBounds::new(vec![200.0, 10.0]);
        let sky = m2_skyline();
        assert_eq!(vdr_volume(&sky[0].attrs, &b), 980.0);
        assert_eq!(vdr_volume(&sky[1].attrs, &b), 880.0);
        assert_eq!(vdr_volume(&sky[2].attrs, &b), 720.0);
    }

    #[test]
    fn paper_worked_example_picks_h21() {
        let b = UpperBounds::new(vec![200.0, 10.0]);
        let f = select_filter(&m2_skyline(), &b).expect("non-empty skyline");
        assert_eq!(f.attrs, vec![60.0, 3.0], "h21 has the largest VDR");
        assert_eq!(f.vdr, 980.0);
    }

    #[test]
    fn filter_eliminates_h14_and_h16() {
        // The paper's prose: h21 = (60, 3) "eliminates h14 and h16". h16 =
        // (100, 3) ties h21 on rating, so the claim needs dominance
        // semantics (Fig. 4's strict `<` on every attribute would keep it).
        let f = [60.0, 3.0];
        let h14 = [80.0, 4.0];
        let h16 = [100.0, 3.0];
        assert!(dominates(&f, &h14));
        assert!(dominates(&f, &h16));
    }

    #[test]
    fn strict_test_never_removes_equal_tuples() {
        let f = [60.0, 3.0];
        assert!(!dominates(&f, &f), "a filter never drops a tuple equal to itself");
    }

    #[test]
    fn under_estimate_clamps_to_zero() {
        let b = UpperBounds::new(vec![50.0, 10.0]); // local max below the tuple
        assert_eq!(vdr_volume(&[60.0, 3.0], &b), 0.0);
    }

    #[test]
    fn estimation_orders_volumes() {
        // VDR_u <= VDR_e <= VDR_o for any tuple within the local bounds.
        let attrs = [60.0, 3.0];
        let exact = UpperBounds::new(vec![200.0, 10.0]);
        let over = exact.scaled(2.0);
        let under = UpperBounds::new(vec![150.0, 8.0]);
        let (vu, ve, vo) =
            (vdr_volume(&attrs, &under), vdr_volume(&attrs, &exact), vdr_volume(&attrs, &over));
        assert!(vu <= ve && ve <= vo, "{vu} <= {ve} <= {vo}");
    }

    #[test]
    fn local_maxima_computes_h_k() {
        let rel =
            vec![Tuple::new(0.0, 0.0, vec![20.0, 7.0]), Tuple::new(1.0, 1.0, vec![100.0, 3.0])];
        let h = UpperBounds::local_maxima(&rel).unwrap();
        assert_eq!(h.0, vec![100.0, 7.0]);
        assert!(UpperBounds::local_maxima(&[]).is_none());
    }

    #[test]
    fn select_filter_empty_and_ties() {
        let b = UpperBounds::new(vec![10.0]);
        assert!(select_filter(&[], &b).is_none());
        // Two tuples with identical VDR: the first is kept.
        let sky = vec![Tuple::new(0.0, 0.0, vec![4.0]), Tuple::new(1.0, 1.0, vec![4.0])];
        let f = select_filter(&sky, &b).unwrap();
        assert_eq!(f.attrs, vec![4.0]);
    }

    #[test]
    fn greedy_k1_matches_single_selection() {
        let b = UpperBounds::new(vec![200.0, 10.0]);
        let sky = m2_skyline();
        let multi = select_filters_greedy(&sky, &b, 1, &sky);
        let single = select_filter(&sky, &b).unwrap();
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].attrs, single.attrs);
    }

    #[test]
    fn greedy_adds_complementary_filters() {
        // Two clusters: (1, 9) covers one arm, (9, 1) the other. Reference
        // tuples dominated by exactly one of them each.
        let b = UpperBounds::new(vec![10.0, 10.0]);
        let sky = vec![Tuple::new(0.0, 0.0, vec![1.0, 9.0]), Tuple::new(1.0, 0.0, vec![9.0, 1.0])];
        let reference =
            vec![Tuple::new(2.0, 0.0, vec![2.0, 9.5]), Tuple::new(3.0, 0.0, vec![9.5, 2.0])];
        let picks = select_filters_greedy(&sky, &b, 2, &reference);
        assert_eq!(picks.len(), 2, "second filter adds coverage, so it is kept");
        let attrs: Vec<&[f64]> = picks.iter().map(|f| f.attrs.as_slice()).collect();
        assert!(attrs.contains(&[1.0, 9.0].as_slice()));
        assert!(attrs.contains(&[9.0, 1.0].as_slice()));
    }

    #[test]
    fn greedy_stops_when_gain_is_zero() {
        // Reference fully covered by the first pick: no point shipping more.
        let b = UpperBounds::new(vec![10.0, 10.0]);
        let sky = vec![
            Tuple::new(0.0, 0.0, vec![1.0, 1.0]),
            Tuple::new(1.0, 0.0, vec![1.0, 2.0]),
            Tuple::new(2.0, 0.0, vec![2.0, 1.0]),
        ];
        let reference = vec![Tuple::new(3.0, 0.0, vec![5.0, 5.0])];
        let picks = select_filters_greedy(&sky, &b, 3, &reference);
        assert_eq!(
            picks.len(),
            1,
            "every pick after the first must add coverage — a zero-gain \
             second filter pays wire bytes for nothing: {picks:?}"
        );
    }

    #[test]
    fn vdr_volume_dim_mismatch_certifies_nothing() {
        // A short bounds vector must not truncate the product (which would
        // inflate the volume); the contract is: mismatch ⇒ 0.0.
        let b = UpperBounds::new(vec![10.0, 10.0]);
        assert_eq!(vdr_volume(&[1.0, 1.0, 1.0], &b), 0.0);
        assert_eq!(vdr_volume(&[1.0], &b), 0.0);
        assert_eq!(vdr_volume(&[1.0, 1.0], &b), 81.0, "matched dims unchanged");
    }

    #[test]
    fn greedy_handles_empty_inputs() {
        let b = UpperBounds::new(vec![10.0]);
        assert!(select_filters_greedy(&[], &b, 3, &[]).is_empty());
        let sky = vec![Tuple::new(0.0, 0.0, vec![1.0])];
        assert!(select_filters_greedy(&sky, &b, 0, &[]).is_empty());
    }

    #[test]
    fn top_vdr_selection_orders_by_volume() {
        let b = UpperBounds::new(vec![200.0, 10.0]);
        let sky = m2_skyline();
        let picks = select_filters(MultiFilterSelection::TopVdr, &sky, &b, 2, &[]);
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0].attrs, vec![60.0, 3.0], "h21 (VDR 980) first");
        assert_eq!(picks[1].attrs, vec![90.0, 2.0], "h22 (VDR 880) second");
    }

    #[test]
    fn max_spread_picks_distant_complements() {
        // Three skyline corners; spread selection must take both extremes
        // rather than the two adjacent high-VDR tuples.
        let b = UpperBounds::new(vec![100.0, 100.0]);
        let sky = vec![
            Tuple::new(0.0, 0.0, vec![5.0, 60.0]),
            Tuple::new(1.0, 0.0, vec![10.0, 50.0]), // near the first
            Tuple::new(2.0, 0.0, vec![60.0, 5.0]),  // the far corner
        ];
        let picks = select_filters(MultiFilterSelection::MaxSpread, &sky, &b, 2, &[]);
        assert_eq!(picks.len(), 2);
        // First pick = max VDR = (5,60): (95*40=3800) vs (10,50): 90*50=4500
        // vs (60,5): 40*95=3800 → actually (10,50) wins.
        assert_eq!(picks[0].attrs, vec![10.0, 50.0]);
        assert_eq!(picks[1].attrs, vec![60.0, 5.0], "farthest from the first pick");
    }

    #[test]
    fn selectors_respect_k_and_empty_inputs() {
        let b = UpperBounds::new(vec![10.0]);
        for sel in [
            MultiFilterSelection::TopVdr,
            MultiFilterSelection::GreedyCoverage,
            MultiFilterSelection::MaxSpread,
        ] {
            assert!(select_filters(sel, &[], &b, 3, &[]).is_empty());
            let sky = vec![Tuple::new(0.0, 0.0, vec![1.0]), Tuple::new(1.0, 0.0, vec![2.0])];
            let picks = select_filters(sel, &sky, &b, 1, &sky);
            assert_eq!(picks.len(), 1, "{sel:?}");
            assert_eq!(picks[0].attrs, vec![1.0], "{sel:?}: k=1 is the max-VDR tuple");
        }
    }

    #[test]
    fn filter_wire_size() {
        let b = UpperBounds::new(vec![1.0, 1.0]);
        let f = FilterTuple::new(vec![0.5, 0.5], &b);
        assert_eq!(f.wire_size(), 24);
    }
}
