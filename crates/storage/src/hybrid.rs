//! Hybrid ID-based storage (HS) — the paper's Section 4 proposal — and the
//! Fig. 4 device-local skyline algorithm.
//!
//! Layout per relation `R_i`:
//!
//! * spatial coordinates stored **inline** per row (locations are rarely
//!   shared, so factoring them out would not save space);
//! * each non-spatial attribute ID-encoded against a **sorted**
//!   [`AttributeDomain`] (byte IDs when the domain fits in 256 values);
//! * the minimum bounding rectangle kept as four constants for the O(1)
//!   `mindist` early exit;
//! * rows sorted ascending on the ID of the attribute with the most
//!   distinct values (the paper's SFS-inspired presort). We additionally
//!   break ties by the sum of all IDs so that a dominating row is *always*
//!   scanned before every row it dominates — this makes the scan exact even
//!   under the full dominance test (the paper's strict test does not need
//!   it, but costs nothing);
//! * one derived machine word per row packing the row's IDs
//!   (`SigLayout`), so a window probe of the scan is a 64-bit subtract.
//!
//! The Fig. 4 query pipeline: MBR miss check → filter-dominates-domain-minima
//! check (skip the whole relation in O(n) attribute comparisons) → ID-based
//! sorted scan with inline spatial filtering → post-scan filter application
//! and best-VDR candidate pick.

use std::sync::Mutex;

use skyline_core::region::{Mbr, Point};
use skyline_core::vdr::{select_filter, FilterTuple};
use skyline_core::{DominanceTest, Tuple};

use crate::domain_index::{AttributeDomain, IdArray};
use crate::radix;
use crate::traits::{DeviceRelation, LocalQuery, LocalSkylineOutcome, LocalStats, SkipCause};

/// One memoized window scan: the surviving row indices plus the exact
/// [`LocalStats`] the scan accumulated, replayed verbatim on every hit so
/// cached and fresh evaluations are indistinguishable to any caller
/// (including cost models that turn stats into simulated CPU time).
#[derive(Debug, Clone)]
struct CachedScan {
    window: Vec<usize>,
    stats: LocalStats,
}

/// Per-relation scan memo for *unbounded* regions, one slot per dominance
/// test. The Fig. 4 window depends only on (region, dominance) — filters are
/// applied after the scan — so with an infinite radius the window is a pure
/// function of the dominance test and can be reused across every repeated
/// `Q_ds` evaluation (`run_all_origins` asks each device the same unbounded
/// scan once per origin × strategy). Finite regions bypass the cache.
#[derive(Debug, Default)]
struct WindowCache {
    slots: [Option<CachedScan>; 2],
}

fn cache_slot(test: DominanceTest) -> usize {
    match test {
        DominanceTest::Full => 0,
        DominanceTest::PaperStrict => 1,
    }
}

/// Window entries probed per "does anything here pass?" reduction. The
/// reduction is branch-free over the block, so it vectorises; the first
/// passing entry is then located inside the block, which keeps the counted
/// comparisons those of the entry-at-a-time loop.
const PROBE_BLOCK: usize = 16;

/// The word test of one [`DominanceTest`] (see [`SigLayout`]): a window
/// signature `w` passes against a candidate signature `t` iff
/// `(((t | guards) - borrow) - w) & tested == tested`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Probe {
    /// Guard bits of the fields the test compares; 0 lets everything pass.
    tested: u64,
    /// Lowest bit of every tested field when the test is strict `<` and
    /// decided exactly by the word, else 0 (`≤`).
    borrow: u64,
    /// `true` when no tested field drops ID bits: a pass *is* the test
    /// (plus `w != t` under full dominance). Otherwise a pass is only
    /// necessary and [`HybridRelation::id_dominates`] confirms it.
    exact: bool,
}

impl Probe {
    /// What a window signature is subtracted from when row signature `sig`
    /// is the candidate.
    #[inline]
    fn minuend(&self, guards: u64, sig: u64) -> u64 {
        (sig | guards).wrapping_sub(self.borrow)
    }

    /// The word test: every tested field of `w` is `<` (strict) or `≤` the
    /// candidate's.
    #[inline]
    fn passes(&self, minuend: u64, w: u64) -> bool {
        minuend.wrapping_sub(w) & self.tested == self.tested
    }
}

/// How a row's attribute IDs pack into its one-word scan signature.
///
/// The word holds `dim` fields of `fw = 64 / dim` bits, non-sorted
/// attributes first and the sorted attribute last, so the paper's strict
/// test reads a prefix. A field keeps `id >> shift` in its low `fw - 1`
/// bits — `shift` is 0 whenever the attribute's domain fits — and leaves
/// its top *guard* bit clear. Setting every guard in the minuend makes one
/// 64-bit subtraction compare all fields at once: a field's guard survives
/// exactly when its subtrahend is not larger, and since a guarded field is
/// at least `2^(fw-1) - 1` and a stored field at most that, no borrow ever
/// leaves a field.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SigLayout {
    /// `(attribute, shift)` per field, lowest field first; empty when the
    /// word cannot give `dim` fields a value bit and a guard each.
    fields: Vec<(usize, u32)>,
    /// Field width in bits.
    fw: u32,
    /// Guard bit of every field.
    guards: u64,
    /// The word test per dominance test, indexed by [`cache_slot`].
    probes: [Probe; 2],
}

impl SigLayout {
    fn new(domains: &[AttributeDomain], sort_attr: usize) -> Self {
        let dim = domains.len();
        let fw = if dim == 0 { 0 } else { 64 / dim as u32 };
        if fw < 2 {
            // Every probe passes and `id_dominates` decides.
            return SigLayout { fields: Vec::new(), fw, guards: 0, probes: [Probe::default(); 2] };
        }
        let fields: Vec<(usize, u32)> = (0..dim)
            .filter(|&j| j != sort_attr)
            .chain(std::iter::once(sort_attr))
            .map(|j| {
                let id_bits = u64::BITS - (domains[j].len().max(1) as u64 - 1).leading_zeros();
                (j, id_bits.saturating_sub(fw - 1))
            })
            .collect();
        let guard = |k: usize| 1u64 << (k as u32 * fw + fw - 1);
        let probe = |tested: std::ops::Range<usize>, strict: bool| {
            let exact = fields[tested.clone()].iter().all(|&(_, shift)| shift == 0);
            Probe {
                tested: tested.clone().map(guard).sum(),
                borrow: if strict && exact {
                    tested.map(|k| 1u64 << (k as u32 * fw)).sum()
                } else {
                    0
                },
                exact,
            }
        };
        let mut probes = [Probe::default(); 2];
        probes[cache_slot(DominanceTest::Full)] = probe(0..dim, false);
        // Fig. 4 skips the sorted attribute; a 1-attribute relation has no
        // "rest" and tests the sorted attribute itself.
        probes[cache_slot(DominanceTest::PaperStrict)] = probe(0..(dim - 1).max(1), true);
        SigLayout { fields, fw, guards: (0..dim).map(guard).sum(), probes }
    }

    /// The signature of a row from its IDs in attribute order.
    fn sign(&self, ids: &[u32]) -> u64 {
        self.fields
            .iter()
            .zip(0u32..)
            .fold(0, |sig, (&(j, shift), k)| sig | u64::from(ids[j] >> shift) << (k * self.fw))
    }
}

/// A local relation in the paper's hybrid storage model.
///
/// ```
/// use device_storage::{DeviceRelation, HybridRelation, LocalQuery};
/// use skyline_core::{QueryRegion, Tuple};
///
/// let rel = HybridRelation::new(vec![
///     Tuple::new(0.0, 0.0, vec![20.0, 7.0]),
///     Tuple::new(1.0, 0.0, vec![40.0, 5.0]),
///     Tuple::new(2.0, 0.0, vec![80.0, 7.0]), // dominated by the first
/// ]);
/// let out = rel.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
/// assert_eq!(out.skyline.len(), 2);
/// assert_eq!(rel.lower_bounds().unwrap(), vec![20.0, 5.0]); // O(1) domain minima
/// ```
#[derive(Debug)]
pub struct HybridRelation {
    /// Site locations in row (sorted) order.
    locs: Vec<Point>,
    /// One packed ID column per attribute, row order.
    columns: Vec<IdArray>,
    /// Sorted distinct values per attribute.
    domains: Vec<AttributeDomain>,
    /// MBR of all sites (the `x/y min/max` constants).
    mbr: Mbr,
    /// Attribute whose ID the rows are sorted on.
    sort_attr: usize,
    rows: usize,
    dim: usize,
    /// One machine word per row, derived from `columns`: the row's IDs
    /// packed as [`SigLayout`] describes, which is what the Fig. 4 scan
    /// probes instead of dispatching on the packed column width per
    /// comparison.
    sig: Vec<u64>,
    layout: SigLayout,
    /// Memoized unbounded-region windows (see [`WindowCache`]). Interior
    /// mutability keeps [`DeviceRelation::local_skyline`]'s `&self`
    /// signature; the mutex is uncontended (relations are per-device).
    cache: Mutex<WindowCache>,
}

impl Clone for HybridRelation {
    fn clone(&self) -> Self {
        HybridRelation {
            locs: self.locs.clone(),
            columns: self.columns.clone(),
            domains: self.domains.clone(),
            mbr: self.mbr,
            sort_attr: self.sort_attr,
            rows: self.rows,
            dim: self.dim,
            sig: self.sig.clone(),
            layout: self.layout.clone(),
            // The memo is derived state; a clone starts cold and re-earns
            // identical entries on first use.
            cache: Mutex::new(WindowCache::default()),
        }
    }
}

impl From<&[Tuple]> for HybridRelation {
    /// Builds hybrid storage from a set of tuples, reading them in place.
    fn from(tuples: &[Tuple]) -> Self {
        let dim = tuples.first().map_or(0, Tuple::dim);
        assert!(tuples.iter().all(|t| t.dim() == dim), "mixed dimensionality in relation");
        Self::build(tuples.len(), dim, |r| tuples[r].location(), |r, j| tuples[r].attrs[j])
    }
}

impl HybridRelation {
    /// Builds hybrid storage from a set of tuples (see the `From<&[Tuple]>`
    /// impl; the build never needs to own its input).
    pub fn new(tuples: Vec<Tuple>) -> Self {
        Self::from(tuples.as_slice())
    }

    /// Builds hybrid storage over the rows `rows` of a relation held as
    /// columns — site `locs[r]` and attributes `attrs[r * dim..(r + 1) *
    /// dim]` for row `r` — without a `Tuple` per row. The result equals
    /// `From<&[Tuple]>` over those rows materialized in the order given.
    pub fn from_columns(locs: &[Point], attrs: &[f64], dim: usize, rows: &[u32]) -> Self {
        assert_eq!(attrs.len(), locs.len() * dim, "attrs must hold dim values per site");
        // Like a tuple slice, an empty selection has no attributes.
        let dim = if rows.is_empty() { 0 } else { dim };
        let row = |r: usize| rows[r] as usize;
        Self::build(rows.len(), dim, |r| locs[row(r)], |r, j| attrs[row(r) * dim + j])
    }

    /// The one build: `rows` rows of `dim` attributes, row `r` sited at
    /// `loc(r)` with attribute `j` equal to `attr(r, j)`.
    fn build(
        rows: usize,
        dim: usize,
        loc: impl Fn(usize) -> Point,
        attr: impl Fn(usize, usize) -> f64,
    ) -> Self {
        assert!(u32::try_from(rows).is_ok(), "row numbers are kept as u32, like the IDs");

        // One walk over the input, in row order, gathers the sites and the
        // values column by column; every later pass reads these instead of
        // going back to a source whose rows may lie far apart.
        let mut sites: Vec<Point> = Vec::with_capacity(rows);
        let mut values = vec![0.0; rows * dim];
        for r in 0..rows {
            sites.push(loc(r));
            for j in 0..dim {
                values[j * rows + r] = attr(r, j);
            }
        }

        // One sort per attribute yields its domain and, in the same walk,
        // every row's ID: `ids[j * rows + r]`, input row order.
        let mut ids = vec![0u32; rows * dim];
        let (mut keyed, mut scratch) = (Vec::with_capacity(rows), Vec::new());
        let domains: Vec<AttributeDomain> = (0..dim)
            .map(|j| {
                let column = j * rows..(j + 1) * rows;
                let out = &mut ids[column.clone()];
                let values = values[column].iter().copied();
                AttributeDomain::encode(values, &mut keyed, &mut scratch, |r, id| out[r] = id)
            })
            .collect();
        drop(values);
        let id = |r: u32, j: usize| ids[j * rows + r as usize];

        // "We choose the attribute with the largest number of distinct
        // values as the attribute to be sorted on."
        let sort_attr = (0..dim).max_by_key(|&j| domains[j].len()).unwrap_or(0);

        // Row order: ascending (sort ID, Σ IDs, input row), the first two
        // packed into one word — below the largest sum, the sort ID above
        // it — and sorted with the encode's buffers. Input rows ascend, so
        // ties stay in row order.
        let bits = |max: usize| usize::BITS - max.leading_zeros();
        let sum_bits = bits(domains.iter().map(|d| d.len().saturating_sub(1)).sum());
        let primary_bits = bits(domains.get(sort_attr).map_or(0, |d| d.len().saturating_sub(1)));
        assert!(primary_bits + sum_bits < u64::BITS, "(sort ID, Σ IDs) must fit one word");
        let mut order = keyed;
        order.clear();
        order.extend((0..rows as u32).map(|r| {
            let primary = if dim == 0 { 0 } else { id(r, sort_attr) };
            let sum: u64 = (0..dim).map(|j| u64::from(id(r, j))).sum();
            (u64::from(primary) << sum_bits | sum, r)
        }));
        radix::sort_pairs(&mut order, &mut scratch);
        drop(scratch);

        let locs: Vec<Point> = order.iter().map(|&(_, r)| sites[r as usize]).collect();
        let mut column: Vec<u32> = Vec::with_capacity(rows);
        let columns: Vec<IdArray> = (0..dim)
            .map(|j| {
                column.clear();
                column.extend(order.iter().map(|&(_, r)| id(r, j)));
                IdArray::pack(&column, domains[j].len())
            })
            .collect();
        let mbr = Mbr::of_points(locs.iter().copied());

        let layout = SigLayout::new(&domains, sort_attr);
        let mut row_ids = vec![0u32; dim];
        let sig: Vec<u64> = order
            .iter()
            .map(|&(_, r)| {
                row_ids.iter_mut().enumerate().for_each(|(j, v)| *v = id(r, j));
                layout.sign(&row_ids)
            })
            .collect();

        HybridRelation {
            locs,
            columns,
            domains,
            mbr,
            sort_attr,
            rows,
            dim,
            sig,
            layout,
            cache: Mutex::new(WindowCache::default()),
        }
    }

    /// Which attribute the rows are sorted on.
    pub fn sort_attribute(&self) -> usize {
        self.sort_attr
    }

    /// The sorted domain of attribute `j`.
    pub fn domain(&self, j: usize) -> &AttributeDomain {
        &self.domains[j]
    }

    /// IDs of row `r` collected into a fresh vector (diagnostics/tests).
    pub fn row_ids(&self, r: usize) -> Vec<u32> {
        self.columns.iter().map(|c| c.get(r)).collect()
    }

    /// Materializes row `r` back into value space.
    fn materialize(&self, r: usize) -> Tuple {
        let attrs = self
            .columns
            .iter()
            .zip(&self.domains)
            .map(|(col, dom)| dom.value_of(col.get(r)))
            .collect();
        Tuple { x: self.locs[r].x, y: self.locs[r].y, attrs }
    }

    /// Materializes row `r`'s attribute values into `out` (reused scratch).
    fn attrs_into(&self, r: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.columns
                .iter()
                .zip(&self.domains)
                .map(|(col, dom)| dom.value_of(col.get(r))),
        );
    }

    /// The Fig. 4 window scan over the presorted rows: returns the
    /// surviving row indices and the stats the scan accumulated.
    ///
    /// Each in-range row probes the window front to back until an entry
    /// dominates it, one counted ID comparison per entry probed. The probe
    /// itself is the word test of [`SigLayout`] over the window's
    /// signatures, a block at a time.
    fn scan_window(&self, region: &skyline_core::QueryRegion, test: DominanceTest) -> CachedScan {
        let mut stats = LocalStats::default();
        let unbounded = region.radius.is_infinite();
        let r2 = region.radius * region.radius;
        let center = region.center;
        let probe = self.layout.probes[cache_slot(test)];
        let mut window: Vec<usize> = Vec::new();
        let mut window_sig: Vec<u64> = Vec::new();
        for row in 0..self.rows {
            stats.tuples_scanned += 1;
            if !unbounded && self.locs[row].dist2(center) > r2 {
                continue;
            }
            stats.in_range += 1;
            let sig = self.sig[row];
            let minuend = probe.minuend(self.layout.guards, sig);
            let mut dominator = None;
            'probe: for (b, block) in window_sig.chunks(PROBE_BLOCK).enumerate() {
                if !block.iter().fold(false, |any, &w| any | probe.passes(minuend, w)) {
                    continue;
                }
                for (i, &w) in block.iter().enumerate() {
                    let at = b * PROBE_BLOCK + i;
                    if probe.passes(minuend, w) && self.confirms(window[at], row, test) {
                        dominator = Some(at);
                        break 'probe;
                    }
                }
            }
            match dominator {
                Some(at) => stats.id_comparisons += at as u64 + 1,
                None => {
                    stats.id_comparisons += window.len() as u64;
                    window.push(row);
                    window_sig.push(sig);
                }
            }
        }
        CachedScan { window, stats }
    }

    /// Row `a`'s signature passed the word test against row `b`: does `a`
    /// dominate `b`? An exact pass already is the strict test, and is full
    /// dominance unless the rows tie everywhere.
    #[inline]
    fn confirms(&self, a: usize, b: usize, test: DominanceTest) -> bool {
        if self.layout.probes[cache_slot(test)].exact {
            test == DominanceTest::PaperStrict || self.sig[a] != self.sig[b]
        } else {
            self.id_dominates(a, b, test)
        }
    }

    /// [`Self::scan_window`] as the plain entry-at-a-time loop over
    /// [`Self::id_dominates`] — the Fig. 4 reference the signature scan is
    /// tested against, window and counters alike.
    #[cfg(test)]
    fn scan_window_reference(
        &self,
        region: &skyline_core::QueryRegion,
        test: DominanceTest,
    ) -> CachedScan {
        let mut stats = LocalStats::default();
        let mut window: Vec<usize> = Vec::new();
        for row in 0..self.rows {
            stats.tuples_scanned += 1;
            if !region.radius.is_infinite()
                && self.locs[row].dist2(region.center) > region.radius * region.radius
            {
                continue;
            }
            stats.in_range += 1;
            let mut dominated = false;
            for &w in &window {
                stats.id_comparisons += 1;
                if self.id_dominates(w, row, test) {
                    dominated = true;
                    break;
                }
            }
            if !dominated {
                window.push(row);
            }
        }
        CachedScan { window, stats }
    }

    /// The construction the one-pass build replaced — sort + dedup per
    /// domain, a binary search per value, a row sort that re-sums on every
    /// comparison — kept as the reference the build tests compare against.
    #[cfg(test)]
    fn build_reference(tuples: Vec<Tuple>) -> Self {
        let dim = tuples.first().map_or(0, Tuple::dim);
        assert!(tuples.iter().all(|t| t.dim() == dim), "mixed dimensionality in relation");
        let rows = tuples.len();

        let domains: Vec<AttributeDomain> = (0..dim)
            .map(|j| AttributeDomain::build(tuples.iter().map(|t| t.attrs[j])))
            .collect();

        // Raw (unsorted) id matrix, row-major.
        let raw_ids: Vec<Vec<u32>> = tuples
            .iter()
            .map(|t| (0..dim).map(|j| domains[j].id_of(t.attrs[j])).collect())
            .collect();

        // "We choose the attribute with the largest number of distinct
        // values as the attribute to be sorted on."
        let sort_attr = (0..dim).max_by_key(|&j| domains[j].len()).unwrap_or(0);

        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by_key(|&r| {
            let primary = if dim > 0 { raw_ids[r][sort_attr] } else { 0 };
            let sum: u64 = raw_ids[r].iter().map(|&v| u64::from(v)).sum();
            (primary, sum, r)
        });

        let locs: Vec<Point> = order.iter().map(|&r| tuples[r].location()).collect();
        let columns: Vec<IdArray> = (0..dim)
            .map(|j| {
                let ids: Vec<u32> = order.iter().map(|&r| raw_ids[r][j]).collect();
                IdArray::pack(&ids, domains[j].len())
            })
            .collect();
        let mbr = Mbr::of_points(locs.iter().copied());

        let layout = SigLayout::new(&domains, sort_attr);
        let sig: Vec<u64> = (0..rows)
            .map(|r| layout.sign(&columns.iter().map(|c| c.get(r)).collect::<Vec<u32>>()))
            .collect();

        HybridRelation {
            locs,
            columns,
            domains,
            mbr,
            sort_attr,
            rows,
            dim,
            sig,
            layout,
            cache: Mutex::new(WindowCache::default()),
        }
    }

    /// `a` dominates `b` in ID space under the given test. IDs are rank
    /// positions in sorted domains, so ID dominance ⟺ value dominance.
    /// The scan asks this only about window entries whose signature passed
    /// a word test that could not decide on its own.
    #[inline]
    fn id_dominates(&self, a: usize, b: usize, test: DominanceTest) -> bool {
        match test {
            DominanceTest::Full => {
                let mut strict = false;
                for col in &self.columns {
                    let (ia, ib) = (col.get(a), col.get(b));
                    if ia > ib {
                        return false;
                    }
                    if ia < ib {
                        strict = true;
                    }
                }
                strict
            }
            // Fig. 4: skip the sorted attribute, require strict `<` on the
            // rest. Sound because the scan guarantees a.id_sort <= b.id_sort.
            // A 1-attribute relation has no "rest" and compares the sorted
            // attribute itself; without attributes nothing dominates.
            DominanceTest::PaperStrict => {
                let skipped = if self.dim == 1 { usize::MAX } else { self.sort_attr };
                self.dim > 0
                    && self
                        .columns
                        .iter()
                        .enumerate()
                        .all(|(j, col)| j == skipped || col.get(a) < col.get(b))
            }
        }
    }
}

impl DeviceRelation for HybridRelation {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn tuple(&self, i: usize) -> Tuple {
        self.materialize(i)
    }

    fn location(&self, i: usize) -> Point {
        self.locs[i]
    }

    fn mbr(&self) -> Option<Mbr> {
        Some(self.mbr)
    }

    fn lower_bounds(&self) -> Option<Vec<f64>> {
        if self.rows == 0 {
            return None;
        }
        Some(self.domains.iter().map(|d| d.min().expect("non-empty")).collect())
    }

    fn upper_bounds(&self) -> Option<skyline_core::vdr::UpperBounds> {
        if self.rows == 0 {
            return None;
        }
        Some(skyline_core::vdr::UpperBounds::new(
            self.domains.iter().map(|d| d.max().expect("non-empty")).collect(),
        ))
    }

    fn storage_bytes(&self) -> usize {
        // The paper's storage model: packed IDs + domains + locations. The
        // signature word is a derived acceleration structure (recomputable
        // from the columns) and is deliberately excluded, like any other
        // cache.
        let locs = self.locs.len() * 16;
        let ids: usize = self.columns.iter().map(IdArray::storage_bytes).sum();
        let domains: usize = self.domains.iter().map(AttributeDomain::storage_bytes).sum();
        locs + ids + domains + 4 * 8 // + the MBR constants
    }

    fn local_skyline(&self, query: &LocalQuery) -> LocalSkylineOutcome {
        let mut stats = LocalStats::default();

        // Guard 1: MBR vs query region (O(1)).
        if query.region.misses(&self.mbr) {
            return LocalSkylineOutcome::skipped(SkipCause::SpatialMiss);
        }

        // Guard 2: does any filter dominate the virtual best corner? (O(n)
        // attribute comparisons per filter thanks to the sorted domains.)
        if query.has_filters() {
            if let Some(lower) = self.lower_bounds() {
                stats.value_comparisons += self.dim as u64;
                if query.skips_relation(&lower) {
                    return LocalSkylineOutcome::skipped(SkipCause::FilterDominance);
                }
            }
        }

        // ID-based SFS scan in the presorted row order, over the row
        // signatures. Unbounded regions (the static `Q_ds` evaluations)
        // memoize the window per dominance test: the scan ignores filters,
        // so repeated queries replay the stored indices — and the stored
        // stats, byte for byte — instead of rescanning.
        let scan = if query.region.radius.is_infinite() {
            let slot = cache_slot(query.dominance);
            let mut cache = self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match &cache.slots[slot] {
                Some(hit) => hit.clone(),
                None => {
                    let fresh = self.scan_window(&query.region, query.dominance);
                    cache.slots[slot] = Some(fresh.clone());
                    fresh
                }
            }
        } else {
            self.scan_window(&query.region, query.dominance)
        };
        let CachedScan { window, stats: scan_stats } = scan;
        stats.tuples_scanned += scan_stats.tuples_scanned;
        stats.in_range += scan_stats.in_range;
        stats.value_comparisons += scan_stats.value_comparisons;
        stats.id_comparisons += scan_stats.id_comparisons;

        // Filter *before* materializing: eliminated rows never become a
        // tuple. The comparison count is unchanged — one per unreduced row.
        let unreduced_len = window.len();
        let reduced: Vec<Tuple> = if query.has_filters() {
            let mut scratch: Vec<f64> = Vec::with_capacity(self.dim);
            let mut out = Vec::with_capacity(unreduced_len);
            for &r in &window {
                stats.value_comparisons += 1;
                self.attrs_into(r, &mut scratch);
                if !query.eliminates(&scratch) {
                    out.push(Tuple::from_slice(self.locs[r].x, self.locs[r].y, &scratch));
                }
            }
            out
        } else {
            window.iter().map(|&r| self.materialize(r)).collect()
        };
        let filter_candidate: Option<FilterTuple> =
            query.vdr_bounds.as_ref().and_then(|b| select_filter(&reduced, b));

        LocalSkylineOutcome { skyline: reduced, unreduced_len, skip: None, filter_candidate, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::algo::{self, bnl};
    use skyline_core::region::QueryRegion;
    use skyline_core::vdr::UpperBounds;
    use skyline_core::SkylineMerger;

    fn table2() -> Vec<Tuple> {
        vec![
            Tuple::new(0.0, 0.0, vec![20.0, 7.0]),
            Tuple::new(1.0, 0.0, vec![40.0, 5.0]),
            Tuple::new(2.0, 0.0, vec![80.0, 7.0]),
            Tuple::new(3.0, 0.0, vec![80.0, 4.0]),
            Tuple::new(4.0, 0.0, vec![100.0, 7.0]),
            Tuple::new(5.0, 0.0, vec![100.0, 3.0]),
        ]
    }

    fn sorted_attrs(mut v: Vec<Tuple>) -> Vec<Vec<f64>> {
        v.sort_by(|a, b| crate::total_lex(&a.attrs, &b.attrs));
        v.into_iter().map(|t| t.attrs.to_vec()).collect()
    }

    #[test]
    fn sort_attribute_has_most_distinct_values() {
        // price has 4 distinct values, rating has 4 as well → tie keeps
        // the first; add a tuple to break the tie.
        let mut data = table2();
        data.push(Tuple::new(6.0, 0.0, vec![120.0, 7.0])); // price now 5 distinct
        let h = HybridRelation::new(data);
        assert_eq!(h.sort_attribute(), 0);
        assert_eq!(h.domain(0).len(), 5);
        assert_eq!(h.domain(1).len(), 4);
    }

    #[test]
    fn rows_are_sorted_by_sort_attribute_id() {
        let h = HybridRelation::new(table2());
        let col = &h.columns[h.sort_attr];
        for r in 1..h.rows {
            assert!(col.get(r - 1) <= col.get(r));
        }
    }

    #[test]
    fn materialization_round_trips() {
        let data = table2();
        let h = HybridRelation::new(data.clone());
        let got: Vec<Vec<f64>> = sorted_attrs((0..h.len()).map(|r| h.tuple(r)).collect());
        let expect = sorted_attrs(data);
        assert_eq!(got, expect);
    }

    #[test]
    fn local_skyline_matches_centralized_table2() {
        let h = HybridRelation::new(table2());
        let out = h.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
        // Paper: skyline of R_1 is {h11, h12, h14, h16}.
        let got = sorted_attrs(out.skyline);
        assert_eq!(got, vec![vec![20.0, 7.0], vec![40.0, 5.0], vec![80.0, 4.0], vec![100.0, 3.0]]);
    }

    #[test]
    fn paper_strict_mode_yields_superset() {
        // Construct ties the strict test misses: (1, 2) dominates (1, 3)
        // only through a tie on the sorted attribute.
        let data = vec![
            Tuple::new(0.0, 0.0, vec![1.0, 2.0]),
            Tuple::new(1.0, 0.0, vec![1.0, 3.0]),
            Tuple::new(2.0, 0.0, vec![2.0, 2.5]),
        ];
        let h = HybridRelation::new(data);
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::Full;
        let full = h.local_skyline(&q).skyline.len();
        q.dominance = DominanceTest::PaperStrict;
        let strict = h.local_skyline(&q).skyline.len();
        assert_eq!(full, 1);
        assert!(strict >= full, "strict test may keep dominated ties");
        // Every full-mode member must also appear in strict mode.
        assert!(strict >= 1);
    }

    #[test]
    fn strict_superset_still_contains_true_skyline() {
        let data: Vec<Tuple> = (0..200)
            .map(|i| {
                let a = ((i * 37) % 20) as f64;
                let b = ((i * 91) % 20) as f64;
                Tuple::new(i as f64, 0.0, vec![a, b])
            })
            .collect();
        let h = HybridRelation::new(data.clone());
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::PaperStrict;
        let strict = h.local_skyline(&q).skyline;

        let true_sky = algo::materialize(&data, &bnl::skyline_indices(&data));
        for t in &true_sky {
            assert!(
                strict.iter().any(|s| s.attrs == t.attrs),
                "strict scan lost true skyline member {:?}",
                t.attrs
            );
        }
        // And a merger fixes the superset up to the exact skyline.
        let merged = SkylineMerger::with_seed(strict).into_result();
        assert_eq!(sorted_attrs(merged), sorted_attrs(true_sky));
    }

    #[test]
    fn mbr_miss_skips_everything() {
        let h = HybridRelation::new(table2());
        let q = LocalQuery::plain(QueryRegion::new(Point::new(1000.0, 1000.0), 5.0));
        let out = h.local_skyline(&q);
        assert_eq!(out.skip, Some(SkipCause::SpatialMiss));
        assert_eq!(out.stats.tuples_scanned, 0);
    }

    #[test]
    fn dominating_filter_skips_relation() {
        let h = HybridRelation::new(table2());
        let bounds = UpperBounds::new(vec![200.0, 10.0]);
        let q = LocalQuery {
            filter: Some(FilterTuple::new(vec![10.0, 1.0], &bounds)),
            ..LocalQuery::plain(QueryRegion::unbounded())
        };
        let out = h.local_skyline(&q);
        assert_eq!(
            out.skip,
            Some(SkipCause::FilterDominance),
            "filter (10,1) beats domain minima (20,3)"
        );
    }

    #[test]
    fn non_dominating_filter_does_not_skip() {
        let h = HybridRelation::new(table2());
        let bounds = UpperBounds::new(vec![200.0, 10.0]);
        let q = LocalQuery {
            filter: Some(FilterTuple::new(vec![60.0, 3.0], &bounds)), // h21
            vdr_bounds: Some(bounds),
            ..LocalQuery::plain(QueryRegion::unbounded())
        };
        let out = h.local_skyline(&q);
        assert_eq!(out.skip, None);
        // h21 = (60, 3) dominates h14 = (80, 4) and h16 = (100, 3) (a
        // rating tie, which Fig. 4's literal strict test would keep).
        assert_eq!(out.unreduced_len, 4);
        assert_eq!(out.skyline.len(), 2);
    }

    #[test]
    fn scan_uses_id_comparisons_not_values() {
        let h = HybridRelation::new(table2());
        let out = h.local_skyline(&LocalQuery::plain(QueryRegion::unbounded()));
        assert!(out.stats.id_comparisons > 0);
        assert_eq!(out.stats.value_comparisons, 0);
    }

    #[test]
    fn byte_ids_for_small_domains() {
        let h = HybridRelation::new(table2());
        for c in &h.columns {
            assert_eq!(c.id_width(), 1, "100-value domains fit byte IDs");
        }
    }

    #[test]
    fn hybrid_storage_is_smaller_than_flat_when_domains_shared() {
        // 1000 rows, only 10 distinct values per attribute.
        let data: Vec<Tuple> = (0..1000)
            .map(|i| Tuple::new(i as f64, 0.0, vec![(i % 10) as f64, ((i / 10) % 10) as f64]))
            .collect();
        let flat = crate::FlatRelation::new(data.clone());
        let hybrid = HybridRelation::new(data);
        assert!(hybrid.storage_bytes() < flat.storage_bytes());
    }

    #[test]
    fn bounds_accessors() {
        let h = HybridRelation::new(table2());
        assert_eq!(h.lower_bounds().unwrap(), vec![20.0, 3.0]);
        assert_eq!(h.upper_bounds().unwrap().0, vec![100.0, 7.0]);
        let empty = HybridRelation::new(vec![]);
        assert!(empty.lower_bounds().is_none());
        assert!(empty.upper_bounds().is_none());
    }

    #[test]
    fn spatial_filter_inside_scan() {
        let data =
            vec![Tuple::new(0.0, 0.0, vec![5.0, 5.0]), Tuple::new(100.0, 0.0, vec![1.0, 1.0])];
        let h = HybridRelation::new(data);
        let q = LocalQuery::plain(QueryRegion::new(Point::new(0.0, 0.0), 10.0));
        let out = h.local_skyline(&q);
        assert_eq!(out.skyline.len(), 1);
        assert_eq!(out.skyline[0].attrs, vec![5.0, 5.0]);
        assert_eq!(out.stats.in_range, 1);
    }

    #[test]
    fn row_ids_are_consistent_with_domains() {
        let h = HybridRelation::new(table2());
        for r in 0..h.len() {
            let t = h.tuple(r);
            for (j, id) in h.row_ids(r).into_iter().enumerate() {
                assert_eq!(h.domain(j).value_of(id), t.attrs[j]);
            }
        }
    }

    /// Pseudo-random tuples with controllable duplication (ties exercise
    /// the strict/full divergence).
    fn mixed_data(n: usize, dim: usize, modulo: u64, seed: u64) -> Vec<Tuple> {
        (0..n as u64)
            .map(|i| {
                let mut h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
                let attrs = (0..dim)
                    .map(|_| {
                        h ^= h >> 13;
                        h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
                        (h % modulo) as f64
                    })
                    .collect();
                Tuple::new((i % 50) as f64, (i / 50) as f64, attrs)
            })
            .collect()
    }

    /// `distinct` values per attribute, every one of them present (so the
    /// domain size is exact), strongly correlated across attributes so rows
    /// dominate each other, and every row stored twice at different sites.
    fn spread_data(dim: usize, distinct: usize) -> Vec<Tuple> {
        (0..2 * distinct)
            .map(|i| {
                let attrs = (0..dim).map(|k| ((i * 7919 + k * 31) % distinct) as f64).collect();
                Tuple::new((i % 50) as f64, (i / 50) as f64, attrs)
            })
            .collect()
    }

    const BOTH_TESTS: [DominanceTest; 2] = [DominanceTest::Full, DominanceTest::PaperStrict];

    /// The word test followed by its confirm step, for one ordered pair.
    fn word_dominates(h: &HybridRelation, a: usize, b: usize, test: DominanceTest) -> bool {
        let probe = h.layout.probes[cache_slot(test)];
        probe.passes(probe.minuend(h.layout.guards, h.sig[b]), h.sig[a]) && h.confirms(a, b, test)
    }

    #[test]
    fn word_test_matches_id_dominates_pairwise() {
        // The production probe subtracts packed words; the reference
        // pairwise test dispatches on the packed columns. They must agree
        // on every ordered pair — the strict test is only *sound* when the
        // scan order guarantees a's sort ID ≤ b's, but the predicates must
        // agree unconditionally. 33 attributes leave no room for a value
        // bit and a guard per field; 200 values at d = 8 overflow the 7-bit
        // fields, so a pass there is only necessary.
        for (dim, modulo) in
            [(1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 5), (8, 3), (8, 200), (33, 2)]
        {
            let h = HybridRelation::new(mixed_data(300, dim, modulo, dim as u64));
            for test in BOTH_TESTS {
                let probe = h.layout.probes[cache_slot(test)];
                assert_eq!(probe.exact, dim <= 8 && modulo <= 128, "dim {dim} mod {modulo}");
                for a in 0..h.len() {
                    for b in 0..h.len() {
                        assert_eq!(
                            word_dominates(&h, a, b, test),
                            h.id_dominates(a, b, test),
                            "dim {dim} mod {modulo} {test:?} rows {a},{b}"
                        );
                    }
                }
            }
        }
    }

    /// The signature scan against the Fig. 4 reference loop: same window
    /// (indices and order), same counters, for both dominance tests over
    /// an unbounded, a partial and an empty region.
    fn check_scan(data: Vec<Tuple>, what: &str) -> HybridRelation {
        let h = HybridRelation::new(data);
        let regions = [
            QueryRegion::unbounded(),
            QueryRegion::new(Point::new(20.0, 6.0), 14.5),
            QueryRegion::new(Point::new(-40.0, -40.0), 1.0),
        ];
        for test in BOTH_TESTS {
            for region in &regions {
                let got = h.scan_window(region, test);
                let want = h.scan_window_reference(region, test);
                assert_eq!(got.window, want.window, "{what}: {test:?} r={} window", region.radius);
                assert_eq!(got.stats, want.stats, "{what}: {test:?} r={} stats", region.radius);
            }
        }
        h
    }

    #[test]
    fn signature_scan_matches_fig4_reference_at_every_width() {
        check_scan(Vec::new(), "no rows");
        check_scan((0..30).map(|i| Tuple::new(i as f64, 0.0, Vec::new())).collect(), "d=0");
        // 33 and 70 attributes: `fw` of 1 and 0, no usable field.
        for dim in (1..=8).chain([33, 70]) {
            for modulo in [1, 3, 40] {
                // More rows than one probe block can decide, ties on every
                // attribute, and whole rows repeated.
                let mut data = mixed_data(260, dim, modulo, 0x5CA_u64 + dim as u64);
                data.extend(mixed_data(90, dim, modulo, 0x5CA_u64 + dim as u64));
                let h = check_scan(data, &format!("d={dim} mod {modulo}"));
                assert_eq!(h.layout.fields.len(), if dim <= 32 { dim } else { 0 });
            }
        }
    }

    #[test]
    fn signature_scan_matches_fig4_reference_when_fields_drop_id_bits() {
        // (d, distinct): one value below, at and beyond what a field holds
        // (2^(fw-1): 2 048 at d = 5, 512 at d = 6, 128 at d = 8).
        for (dim, distinct) in
            [(5, 2047), (5, 2048), (5, 2049), (6, 513), (8, 128), (8, 129), (8, 700)]
        {
            let mut data = spread_data(dim, distinct);
            data.extend(mixed_data(400, dim, distinct as u64, 0xB0C));
            let h = check_scan(data, &format!("d={dim}, {distinct} values"));
            assert!((0..dim).all(|j| h.domain(j).len() == distinct));
            let capacity = 1usize << (64 / dim - 1);
            for test in BOTH_TESTS {
                assert_eq!(h.layout.probes[cache_slot(test)].exact, distinct <= capacity);
            }
        }
        // Only the sorted attribute outgrows its field: the strict test
        // never reads it and stays exact, full dominance must confirm.
        let data: Vec<Tuple> = (0..3000)
            .map(|i| {
                let narrow = (1..5).map(|k| ((i * (k + 2)) % 9) as f64);
                let attrs = std::iter::once(((i * 7919) % 2500) as f64).chain(narrow).collect();
                Tuple::new((i % 50) as f64, (i / 50) as f64, attrs)
            })
            .collect();
        let h = check_scan(data, "wide sorted attribute");
        assert_eq!(h.sort_attribute(), 0);
        assert!(h.layout.probes[cache_slot(DominanceTest::PaperStrict)].exact);
        assert!(!h.layout.probes[cache_slot(DominanceTest::Full)].exact);
    }

    #[test]
    fn a_full_field_beside_an_empty_one_borrows_nothing() {
        // Domains of exactly 2^(fw-1) values, so the largest ID fills its
        // field; then every row mixing only the extreme IDs 0 and max. A
        // borrow escaping a zero field would flip its neighbour's verdict.
        for dim in [5usize, 6, 8] {
            let top = (1usize << (64 / dim - 1)) - 1;
            let mut data = spread_data(dim, top + 1);
            for pattern in 0..1usize << dim {
                let attrs = (0..dim).map(|k| if pattern >> k & 1 == 1 { top as f64 } else { 0.0 });
                data.push(Tuple::new(pattern as f64, 99.0, attrs.collect()));
            }
            let h = check_scan(data, &format!("extremes, d={dim}"));
            for test in BOTH_TESTS {
                assert!(h.layout.probes[cache_slot(test)].exact);
            }
            let extremes: Vec<usize> = (0..h.len())
                .filter(|&r| h.row_ids(r).iter().all(|&id| id == 0 || id == top as u32))
                .collect();
            assert!(extremes.len() >= 1 << dim);
            for &a in &extremes {
                for &b in &extremes {
                    for test in BOTH_TESTS {
                        assert_eq!(word_dominates(&h, a, b, test), h.id_dominates(a, b, test));
                    }
                }
            }
        }
    }

    /// Integer attributes in `0..1000` scattered around the plane
    /// `Σ attrs = const` — the anti-correlated family, where skylines are
    /// large — at uniform sites of the 1000 × 1000 extent.
    fn anti_correlated(n: usize, dim: usize, seed: u64) -> Vec<Tuple> {
        let mut state = seed;
        let mut unit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n)
            .map(|_| {
                let (x, y) = (unit() * 1000.0, unit() * 1000.0);
                let raw: Vec<f64> = (0..dim).map(|_| unit()).collect();
                let plane = dim as f64 * (0.45 + 0.1 * unit()) / raw.iter().sum::<f64>();
                Tuple::new(
                    x,
                    y,
                    raw.iter().map(|v| (v * plane * 1000.0).floor().min(999.0)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn scan_counts_are_those_recorded_before_the_signature() {
        // (id_comparisons, window length) per query, recorded with the
        // f64-arena scan this relation's signature scan replaced: the
        // rewrite changes what a probe costs, never how many are counted.
        let h = HybridRelation::new(anti_correlated(2000, 4, 2006));
        let near = QueryRegion::new(Point::new(500.0, 500.0), 500.0);
        let expect = [
            (DominanceTest::Full, near, (603_057, 841)),
            (DominanceTest::Full, QueryRegion::unbounded(), (914_440, 1025)),
            (DominanceTest::PaperStrict, near, (812_223, 1007)),
            (DominanceTest::PaperStrict, QueryRegion::unbounded(), (1_227_498, 1225)),
        ];
        for (dominance, region, pinned) in expect {
            let out = h.local_skyline(&LocalQuery { dominance, ..LocalQuery::plain(region) });
            assert_eq!(
                (out.stats.id_comparisons, out.unreduced_len),
                pinned,
                "{dominance:?} r={}",
                region.radius
            );
        }
    }

    /// Everything the build decides, compared field by field. Domain values
    /// go by bit pattern: `==` would equate `-0.0` with `+0.0` and reject
    /// NaN against itself.
    fn assert_same_build(got: &HybridRelation, want: &HybridRelation, what: &str) {
        assert_eq!((got.rows, got.dim), (want.rows, want.dim), "{what}: shape");
        assert_eq!(got.sort_attribute(), want.sort_attribute(), "{what}: sort attribute");
        for j in 0..want.dim {
            let bits = |h: &HybridRelation| -> Vec<u64> {
                (0..h.domain(j).len())
                    .map(|i| h.domain(j).value_of(i as u32).to_bits())
                    .collect()
            };
            assert_eq!(bits(got), bits(want), "{what}: domain {j}");
        }
        for r in 0..want.rows {
            assert_eq!(got.row_ids(r), want.row_ids(r), "{what}: ids of row {r}");
        }
        assert_eq!(got.columns, want.columns, "{what}: packed columns (incl. width)");
        assert_eq!(got.locs, want.locs, "{what}: locations");
        assert_eq!(got.layout, want.layout, "{what}: signature layout");
        assert_eq!(got.sig, want.sig, "{what}: signatures");
        assert_eq!(got.mbr, want.mbr, "{what}: mbr");
        assert_eq!(got.storage_bytes(), want.storage_bytes(), "{what}: storage bytes");
    }

    /// Checks the one-pass build, from a slice and from a vector, against
    /// the retained reference construction.
    fn check_build(data: Vec<Tuple>, what: &str) {
        let want = HybridRelation::build_reference(data.clone());
        assert_same_build(&HybridRelation::from(data.as_slice()), &want, what);
        assert_same_build(&HybridRelation::new(data), &want, what);
    }

    /// Checks `from_columns` over the rows `keep` picks against the tuple
    /// build over the same rows materialized.
    fn check_columns(data: &[Tuple], keep: impl Fn(usize) -> bool, what: &str) {
        let dim = data.first().map_or(3, Tuple::dim);
        let locs: Vec<Point> = data.iter().map(Tuple::location).collect();
        let attrs: Vec<f64> = data.iter().flat_map(|t| t.attrs.iter().copied()).collect();
        let rows: Vec<u32> = (0..data.len() as u32).filter(|&r| keep(r as usize)).collect();
        let subset: Vec<Tuple> = rows.iter().map(|&r| data[r as usize].clone()).collect();
        let got = HybridRelation::from_columns(&locs, &attrs, dim, &rows);
        let what = format!("{what}, columns over {} of {} rows", rows.len(), data.len());
        assert_same_build(&got, &HybridRelation::from(subset.as_slice()), &what);
    }

    #[test]
    fn build_matches_reference_on_empty_single_and_duplicate_rows() {
        check_build(Vec::new(), "no rows");
        for dim in 0..=8 {
            let row = |i: usize| Tuple::new(i as f64, 1.0, vec![4.0; dim]);
            check_build(vec![row(0)], &format!("one row, d={dim}"));
            for n in [40, 2 * radix::RADIX_CUTOFF] {
                check_build((0..n).map(row).collect(), &format!("{n} identical rows, d={dim}"));
            }
        }
        for dim in 1..=8 {
            check_build(mixed_data(500, dim, 3, 0xD0_u64 + dim as u64), &format!("mod 3, d={dim}"));
        }
    }

    #[test]
    fn build_matches_reference_across_id_widths() {
        // 256 / 257 and 65 536 / 65 537 distinct values sit on either side
        // of the u8→u16 and u16→u32 column widths; the second attribute
        // stays narrow so one relation mixes widths. Below the radix cutoff
        // a relation holds too few rows for a wide column, so the small
        // case is a sparse column selection of each.
        for distinct in [256usize, 257, 65_536, 65_537] {
            let data: Vec<Tuple> = (0..distinct + 3)
                .map(|i| {
                    let a = ((i * 7919) % distinct) as f64;
                    Tuple::new(i as f64, 0.0, vec![a, (i % 5) as f64])
                })
                .collect();
            let h = HybridRelation::from(data.as_slice());
            assert_eq!(h.domain(0).len(), distinct);
            let width = if distinct <= 256 {
                1
            } else if distinct <= 65_536 {
                2
            } else {
                4
            };
            assert_eq!((h.columns[0].id_width(), h.columns[1].id_width()), (width, 1));
            let what = format!("{distinct} distinct");
            let sparse = data.len().div_ceil(radix::RADIX_CUTOFF - 10);
            check_columns(&data, |r| r % sparse == 0, &what);
            check_columns(&data, |r| r % 3 != 1, &what);
            check_build(data, &what);
        }
    }

    #[test]
    fn signed_zeros_and_nans_keep_their_own_ids() {
        let data = vec![
            Tuple::new(0.0, 0.0, vec![0.0, f64::NAN]),
            Tuple::new(1.0, 0.0, vec![-0.0, 1.0]),
            Tuple::new(2.0, 0.0, vec![0.0, f64::NAN]),
            Tuple::new(3.0, 0.0, vec![-1.0, f64::INFINITY]),
        ];
        let h = HybridRelation::from(data.as_slice());
        // -1.0 < -0.0 < +0.0 under total_cmp: three IDs, not two.
        assert_eq!(h.domain(0).len(), 3);
        assert!(h.domain(0).value_of(1).is_sign_negative() && h.domain(0).value_of(1) == 0.0);
        // NaN ranks after +∞ and is one value however often it occurs.
        assert_eq!(h.domain(1).len(), 3);
        assert!(h.domain(1).value_of(2).is_nan());
        check_build(data, "signed zeros and NaNs");
    }

    /// Attribute values for the build property test: a small palette (heavy
    /// duplication) that includes both zeros, both infinities and NaN.
    const PALETTE: [f64; 10] =
        [-0.0, 0.0, 1.0, -1.0, 2.5, 1e-300, -1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        #[test]
        fn build_matches_reference(
            dim in 1usize..=8,
            wide in proptest::prelude::any::<bool>(),
            codes in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0u16..2000, 8),
                0..3 * radix::RADIX_CUTOFF,
            ),
            keep in proptest::prop::collection::vec(
                proptest::prelude::any::<bool>(),
                3 * radix::RADIX_CUTOFF,
            ),
        ) {
            // A `wide` case draws from 2 000 values, the others from the
            // palette, so ties, special values and long domains all occur.
            // Relations and column selections fall on both sides of the
            // radix cutoff.
            let data: Vec<Tuple> = codes
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let attrs = row[..dim]
                        .iter()
                        .map(|&c| if wide { f64::from(c) } else { PALETTE[c as usize % PALETTE.len()] })
                        .collect();
                    Tuple::new((i % 9) as f64, (i / 9) as f64, attrs)
                })
                .collect();
            check_columns(&data, |r| keep[r], "property");
            check_build(data, "property");
        }

        #[test]
        fn signature_scan_matches_fig4_reference(
            dim in 1usize..=9,
            pick in 0usize..6,
            codes in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0u16..2000, 9),
                0..160,
            ),
        ) {
            // d = 9 has 6 value bits a field: 140 values and up are bucketed
            // there, 600 and up at d = 6..=8 too.
            let modulo = [2u16, 5, 60, 140, 600, 2000][pick];
            let data: Vec<Tuple> = codes
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let attrs = row[..dim].iter().map(|&c| f64::from(c % modulo)).collect();
                    Tuple::new((i % 50) as f64, (i / 50) as f64, attrs)
                })
                .collect();
            check_scan(data, "property");
        }
    }

    #[test]
    fn unbounded_window_cache_replays_identical_results_and_stats() {
        let h = HybridRelation::new(mixed_data(500, 3, 11, 0xCAFE));
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        for test in [DominanceTest::Full, DominanceTest::PaperStrict] {
            q.dominance = test;
            let first = h.local_skyline(&q);
            let second = h.local_skyline(&q);
            assert_eq!(sorted_attrs(first.skyline.clone()), sorted_attrs(second.skyline));
            assert_eq!(first.unreduced_len, second.unreduced_len);
            assert_eq!(first.stats, second.stats, "cached stats must replay exactly");
        }
    }

    #[test]
    fn cache_does_not_leak_across_dominance_tests_or_regions() {
        let h = HybridRelation::new(mixed_data(400, 2, 5, 7));
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::Full;
        let full = h.local_skyline(&q).skyline.len();
        q.dominance = DominanceTest::PaperStrict;
        let strict = h.local_skyline(&q).skyline.len();
        assert!(strict >= full, "strict keeps dominated ties");

        // A finite region after the unbounded queries must rescan, not
        // replay: only near sites qualify.
        let finite = h.local_skyline(&LocalQuery {
            dominance: DominanceTest::Full,
            ..LocalQuery::plain(QueryRegion::new(Point::new(0.0, 0.0), 3.0))
        });
        assert!(finite.stats.in_range < h.len() as u64);
        for t in &finite.skyline {
            assert!(t.location().dist(Point::new(0.0, 0.0)) <= 3.0);
        }
    }

    #[test]
    fn cloned_relation_answers_identically_with_cold_cache() {
        let h = HybridRelation::new(mixed_data(200, 4, 9, 3));
        let q = LocalQuery::plain(QueryRegion::unbounded());
        let warm = h.local_skyline(&q); // warms h's cache
        let c = h.clone();
        let cold = c.local_skyline(&q);
        assert_eq!(sorted_attrs(warm.skyline), sorted_attrs(cold.skyline));
        assert_eq!(warm.stats, cold.stats);
    }

    #[test]
    fn filtered_queries_share_the_cached_window() {
        // Filters are applied after the scan, so a filtered query both uses
        // and seeds the unbounded window cache.
        let h = HybridRelation::new(mixed_data(300, 2, 6, 21));
        let bounds = UpperBounds::new(vec![10.0, 10.0]);
        let plain = LocalQuery::plain(QueryRegion::unbounded());
        let filtered = LocalQuery {
            filter: Some(FilterTuple::new(vec![1.0, 1.0], &bounds)),
            ..LocalQuery::plain(QueryRegion::unbounded())
        };
        let a = h.local_skyline(&filtered);
        let b = h.local_skyline(&plain);
        assert_eq!(a.unreduced_len, b.unreduced_len, "same window under the filter");
        assert!(a.skyline.len() <= b.skyline.len());
        assert_eq!(a.stats.id_comparisons, b.stats.id_comparisons);
        assert!(a.stats.value_comparisons > b.stats.value_comparisons);
    }

    #[test]
    fn one_dimensional_relation_paper_strict() {
        let data = vec![
            Tuple::new(0.0, 0.0, vec![3.0]),
            Tuple::new(1.0, 0.0, vec![1.0]),
            Tuple::new(2.0, 0.0, vec![1.0]),
        ];
        let h = HybridRelation::new(data);
        let mut q = LocalQuery::plain(QueryRegion::unbounded());
        q.dominance = DominanceTest::PaperStrict;
        let out = h.local_skyline(&q);
        // Both 1.0-tuples survive (ties), 3.0 is dominated.
        assert_eq!(out.skyline.len(), 2);
    }
}
