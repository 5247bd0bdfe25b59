//! Range-skyline diagrams: query-space cells with constant, incrementally
//! maintained skyline answers.
//!
//! "Skyline Diagram" (arXiv:1812.01663) partitions query space into cells
//! whose skyline answer is constant inside the cell. This module realizes
//! that idea for the paper's constrained query `Q_ds = (pos_org, d)` by
//! *canonicalization*: the `(origin, radius)` plane is quantized into
//! `(origin cell × radius band)` cells, and every query landing in a cell
//! is answered with the **canonical query** of that cell — the cell-center
//! origin and the band's representative radius. Within a cell the served
//! answer is constant by construction, and exact *for the canonical
//! query*; the quantization step is the serving layer's precision
//! contract, exactly like the epoch grid quantizes time.
//!
//! Cells are materialized lazily (first lookup computes a fresh
//! constrained skyline over the current site set) and maintained
//! incrementally: a [`SkyDelta`] of `SkyAdd`/`SkyRemove` site changes is
//! pushed through every materialized cell whose canonical query region
//! actually contains the touched site — the *dominance-region
//! intersection test*. Cells the site cannot affect (the site lies outside
//! their query disk) are skipped entirely, which is what makes a diagram
//! over many cells cheap to keep fresh under churn.
//!
//! Each cell's membership is tracked by a [`LiveSkyline`], so adds and
//! removes are sublinear in the cell population, and
//! [`SkylineDiagram::check_invariants`] proves exactness after any delta
//! sequence: every cached answer must equal a from-scratch constrained
//! skyline recompute over the authoritative site set, and every cell's
//! `LiveSkyline` must pass its own bucket-partition proof.
//!
//! A reader of one epoch needs the answers only, so
//! [`SkylineDiagram::freeze`] hands out a [`FrozenAnswers`] table that
//! shares each cell's id list with the diagram until a delta changes it.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::live::LiveSkyline;
use crate::region::{Point, QueryRegion};
use crate::tuple::{Tuple, TupleId};

/// Quantization of the `(origin, radius)` query plane.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagramConfig {
    /// Edge of a square origin cell (metres). Every query origin inside
    /// one cell maps to the cell's center.
    pub cell_side: f64,
    /// Radius band representatives, strictly ascending. A query radius
    /// maps to the smallest band `>=` it; radii beyond the last band
    /// clamp to the last band (the diagram's coarsest precision).
    pub radius_bands: Vec<f64>,
}

impl DiagramConfig {
    /// A quantization with `cell_side` origin cells and the given bands.
    ///
    /// # Panics
    /// Panics when `cell_side` is not positive or the bands are empty or
    /// not strictly ascending and positive.
    pub fn new(cell_side: f64, radius_bands: Vec<f64>) -> Self {
        assert!(cell_side > 0.0, "cell_side must be positive");
        assert!(!radius_bands.is_empty(), "at least one radius band");
        assert!(
            radius_bands.windows(2).all(|w| w[0] < w[1]) && radius_bands[0] > 0.0,
            "radius bands must be strictly ascending and positive"
        );
        DiagramConfig { cell_side, radius_bands }
    }

    /// The cell a query `(origin, radius)` quantizes to.
    pub fn key_for(&self, origin: Point, radius: f64) -> CellKey {
        let ix = (origin.x / self.cell_side).floor() as i32;
        let iy = (origin.y / self.cell_side).floor() as i32;
        let band = self
            .radius_bands
            .iter()
            .position(|&b| b >= radius)
            .unwrap_or(self.radius_bands.len() - 1) as u8;
        CellKey { ix, iy, band }
    }

    /// The canonical query every lookup in `key`'s cell is answered with:
    /// cell-center origin, band-representative radius.
    pub fn canonical_query(&self, key: CellKey) -> QueryRegion {
        let center = Point::new(
            (key.ix as f64 + 0.5) * self.cell_side,
            (key.iy as f64 + 0.5) * self.cell_side,
        );
        QueryRegion::new(center, self.radius_bands[key.band as usize])
    }
}

/// One cell of the diagram: an origin cell crossed with a radius band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// Origin-cell x index (`floor(x / cell_side)`).
    pub ix: i32,
    /// Origin-cell y index.
    pub iy: i32,
    /// Radius band index into [`DiagramConfig::radius_bands`].
    pub band: u8,
}

/// One epoch's worth of site changes, in monitor-delta currency
/// (`SkyAdd` = a site entered the live set, `SkyRemove` = it left). A
/// moved site is a remove of the old id plus an add of the new state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkyDelta {
    /// Sites that entered (id plus full tuple).
    pub adds: Vec<(TupleId, Tuple)>,
    /// Sites that left.
    pub removes: Vec<TupleId>,
}

impl SkyDelta {
    /// `true` when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }
}

/// What one [`SkylineDiagram::apply`] did to the materialized cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// `(site, cell)` pairs where the intersection test fired and the
    /// cell's `LiveSkyline` absorbed the change.
    pub cells_touched: u64,
    /// `(site, cell)` pairs skipped because the site lies outside the
    /// cell's canonical query disk — the intersection test's win.
    pub cells_skipped: u64,
    /// Cells whose *cached answer* actually changed (a touched cell whose
    /// skyline absorbed the change without surfacing it stays valid).
    pub invalidated: Vec<CellKey>,
}

/// Lifetime counters of a diagram (all deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiagramStats {
    /// Cells materialized by fresh computes.
    pub cells_materialized: u64,
    /// Deltas applied.
    pub deltas_applied: u64,
    /// `(site, cell)` intersection-test hits across all deltas.
    pub cells_touched: u64,
    /// `(site, cell)` intersection-test skips across all deltas.
    pub cells_skipped: u64,
    /// Cached answers invalidated (and immediately replaced).
    pub invalidations: u64,
    /// Cells evicted (TTL or explicit).
    pub evictions: u64,
}

/// A materialized cell: its live constrained skyline plus the cached
/// canonical answer.
#[derive(Debug)]
struct Cell {
    region: QueryRegion,
    live: LiveSkyline,
    /// Kept equal to `live.result_ids()`; re-allocated only when a delta
    /// actually changes it, so frozen views share it until then.
    cached: CellAnswer,
}

/// A cached answer as served to a reader. Cloning shares the id list.
#[derive(Debug, Clone, PartialEq)]
pub struct CellAnswer {
    /// Skyline tuple identities, sorted.
    pub ids: Arc<[TupleId]>,
    /// Epoch marker of the last time this answer changed (or of the
    /// materialization).
    pub refreshed_at: u64,
}

/// The cached answers of a diagram as of one [`SkylineDiagram::freeze`]:
/// what a reader needs of an epoch, without the site set or the
/// `LiveSkyline`s. Later deltas never show through — the diagram replaces
/// a changed answer's id list, it never writes into a shared one.
#[derive(Debug)]
pub struct FrozenAnswers {
    cells: BTreeMap<CellKey, CellAnswer>,
}

impl FrozenAnswers {
    /// The answer `key`'s cell held at the freeze, or `None` when the
    /// cell was not materialized then.
    pub fn answer(&self, key: CellKey) -> Option<&CellAnswer> {
        self.cells.get(&key)
    }

    /// Every frozen `(cell, answer)`, ascending by key.
    pub fn iter(&self) -> impl Iterator<Item = (&CellKey, &CellAnswer)> {
        self.cells.iter()
    }
}

/// A per-device (or originator-merged) range-skyline diagram over a live
/// site set.
#[derive(Debug)]
pub struct SkylineDiagram {
    cfg: DiagramConfig,
    /// Authoritative live site set (id → current tuple).
    sites: BTreeMap<TupleId, Tuple>,
    /// Lazily materialized cells. `BTreeMap` so iteration order — and with
    /// it every counter and report — is deterministic.
    cells: BTreeMap<CellKey, Cell>,
    stats: DiagramStats,
}

impl SkylineDiagram {
    /// An empty diagram over `cfg`'s quantization.
    pub fn new(cfg: DiagramConfig) -> Self {
        SkylineDiagram {
            cfg,
            sites: BTreeMap::new(),
            cells: BTreeMap::new(),
            stats: Default::default(),
        }
    }

    /// A diagram seeded with an initial site set (ids via
    /// [`TupleId::site`]).
    pub fn with_sites<I: IntoIterator<Item = Tuple>>(cfg: DiagramConfig, seed: I) -> Self {
        let mut d = Self::new(cfg);
        for t in seed {
            d.sites.insert(TupleId::site(&t), t);
        }
        d
    }

    /// The quantization in force.
    pub fn config(&self) -> &DiagramConfig {
        &self.cfg
    }

    /// The cell a query quantizes to (delegates to the config).
    pub fn key_for(&self, origin: Point, radius: f64) -> CellKey {
        self.cfg.key_for(origin, radius)
    }

    /// Live sites currently tracked.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Materialized cells currently cached.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DiagramStats {
        self.stats
    }

    /// The live site set (id → tuple), in id order.
    pub fn sites(&self) -> impl Iterator<Item = (&TupleId, &Tuple)> {
        self.sites.iter()
    }

    /// Keys of every materialized cell, ascending.
    pub fn cell_keys(&self) -> Vec<CellKey> {
        self.cells.keys().copied().collect()
    }

    /// The cached answer for `key`, or `None` when the cell is not
    /// materialized.
    pub fn answer(&self, key: CellKey) -> Option<CellAnswer> {
        self.cells.get(&key).map(|c| c.cached.clone())
    }

    /// Freezes every cached answer: one pointer copy per materialized
    /// cell, no site or `LiveSkyline` is cloned.
    pub fn freeze(&self) -> FrozenAnswers {
        FrozenAnswers { cells: self.cells.iter().map(|(k, c)| (*k, c.cached.clone())).collect() }
    }

    /// Materializes `key`'s cell with a fresh constrained-skyline compute
    /// over the current site set, stamping `epoch` as its refresh marker.
    /// A no-op when the cell already exists. Returns the cached answer.
    pub fn materialize(&mut self, key: CellKey, epoch: u64) -> CellAnswer {
        if !self.cells.contains_key(&key) {
            let mut span = sim_obs::span!("diagram::materialize");
            span.add_units(1);
            let region = self.cfg.canonical_query(key);
            let mut live = LiveSkyline::new();
            for (id, t) in &self.sites {
                if region.contains(t.location()) {
                    live.insert(*id, t.clone());
                }
            }
            let cached = CellAnswer { ids: live.result_ids().into(), refreshed_at: epoch };
            self.stats.cells_materialized += 1;
            self.cells.insert(key, Cell { region, live, cached });
        }
        self.cells[&key].cached.clone()
    }

    /// Drops a materialized cell (TTL eviction or explicit). Returns
    /// `true` when the cell existed.
    pub fn evict(&mut self, key: CellKey) -> bool {
        let existed = self.cells.remove(&key).is_some();
        if existed {
            self.stats.evictions += 1;
        }
        existed
    }

    /// Evicts every materialized cell whose answer has not changed since
    /// `epoch.saturating_sub(ttl)` — the serving layer's TTL backstop.
    /// Returns the evicted keys (ascending).
    pub fn evict_stale(&mut self, epoch: u64, ttl: u64) -> Vec<CellKey> {
        let cutoff = epoch.saturating_sub(ttl);
        let stale: Vec<CellKey> = self
            .cells
            .iter()
            .filter(|(_, c)| c.cached.refreshed_at < cutoff)
            .map(|(k, _)| *k)
            .collect();
        for k in &stale {
            self.evict(*k);
        }
        stale
    }

    /// Applies one epoch delta: updates the authoritative site set, pushes
    /// each change through every materialized cell that passes the
    /// intersection test, and refreshes the cached answers of cells whose
    /// skyline actually changed (stamping them with `epoch`).
    ///
    /// Removes are applied before adds, so a moved site can be expressed
    /// as `remove(id)` + `add(id, new_state)` within one delta.
    pub fn apply(&mut self, delta: &SkyDelta, epoch: u64) -> ApplyReport {
        let mut span = sim_obs::span!("diagram::invalidate");
        span.add_units((delta.adds.len() + delta.removes.len()) as u64);
        let mut report = ApplyReport::default();
        let mut touched: Vec<CellKey> = Vec::new();

        for id in &delta.removes {
            let Some(old) = self.sites.remove(id) else { continue };
            let pos = old.location();
            for (key, cell) in self.cells.iter_mut() {
                if cell.region.contains(pos) {
                    cell.live.remove(id);
                    report.cells_touched += 1;
                    touched.push(*key);
                } else {
                    report.cells_skipped += 1;
                }
            }
        }
        for (id, t) in &delta.adds {
            let pos = t.location();
            // An add of a live id replaces its state: retract the stale
            // copy from every cell that held it first.
            if let Some(old) = self.sites.insert(*id, t.clone()) {
                let old_pos = old.location();
                for (key, cell) in self.cells.iter_mut() {
                    if cell.region.contains(old_pos) {
                        cell.live.remove(id);
                        report.cells_touched += 1;
                        touched.push(*key);
                    }
                }
            }
            for (key, cell) in self.cells.iter_mut() {
                if cell.region.contains(pos) {
                    cell.live.insert(*id, t.clone());
                    report.cells_touched += 1;
                    touched.push(*key);
                } else {
                    report.cells_skipped += 1;
                }
            }
        }

        touched.sort_unstable();
        touched.dedup();
        for key in touched {
            let cell = self.cells.get_mut(&key).expect("touched cells are materialized");
            let fresh = cell.live.result_ids();
            if fresh[..] != cell.cached.ids[..] {
                cell.cached = CellAnswer { ids: fresh.into(), refreshed_at: epoch };
                report.invalidated.push(key);
            }
        }
        self.stats.deltas_applied += 1;
        self.stats.cells_touched += report.cells_touched;
        self.stats.cells_skipped += report.cells_skipped;
        self.stats.invalidations += report.invalidated.len() as u64;
        report
    }

    /// The exactness proof: every materialized cell's cached answer must
    /// equal a from-scratch constrained skyline over the authoritative
    /// site set, its `LiveSkyline` must agree with the cache, and the
    /// `LiveSkyline` itself must pass its bucket-partition invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (key, cell) in &self.cells {
            cell.live
                .check_invariants()
                .map_err(|e| format!("cell {key:?}: live skyline broken: {e}"))?;
            let cached = &cell.cached.ids[..];
            let live_ids = cell.live.result_ids();
            if *cached != live_ids[..] {
                return Err(format!(
                    "cell {key:?}: cached answer diverged from its live skyline \
                     ({} vs {} ids)",
                    cached.len(),
                    live_ids.len()
                ));
            }
            let mut fresh = LiveSkyline::new();
            for (id, t) in &self.sites {
                if cell.region.contains(t.location()) {
                    fresh.insert(*id, t.clone());
                }
            }
            let recomputed = fresh.result_ids();
            if *cached != recomputed[..] {
                return Err(format!(
                    "cell {key:?}: cached answer != fresh recompute ({} vs {} ids)",
                    cached.len(),
                    recomputed.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DiagramConfig {
        DiagramConfig::new(100.0, vec![100.0, 250.0, 500.0])
    }

    fn t(x: f64, y: f64, attrs: &[f64]) -> Tuple {
        Tuple::new(x, y, attrs.to_vec())
    }

    /// Deterministic LCG for the churn proof.
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 11
    }

    #[test]
    fn quantization_maps_queries_to_cells_and_canonical_queries() {
        let c = cfg();
        let k = c.key_for(Point::new(250.0, 460.0), 180.0);
        assert_eq!(k, CellKey { ix: 2, iy: 4, band: 1 });
        let q = c.canonical_query(k);
        assert_eq!(q.center, Point::new(250.0, 450.0));
        assert_eq!(q.radius, 250.0);
        // Every origin inside one cell and radius inside one band share a key.
        assert_eq!(c.key_for(Point::new(299.9, 400.0), 101.0), k);
        // Radii beyond the top band clamp to the top band.
        assert_eq!(c.key_for(Point::new(250.0, 460.0), 9999.0).band, 2);
        // Negative coordinates floor toward -inf, not toward zero.
        assert_eq!(c.key_for(Point::new(-1.0, -1.0), 50.0).ix, -1);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn bands_must_ascend() {
        DiagramConfig::new(100.0, vec![250.0, 100.0]);
    }

    #[test]
    fn materialize_computes_the_constrained_skyline() {
        let sites = vec![
            t(450.0, 450.0, &[1.0, 9.0]),   // in range, skyline
            t(460.0, 450.0, &[9.0, 1.0]),   // in range, skyline
            t(455.0, 455.0, &[9.0, 9.0]),   // in range, dominated
            t(2000.0, 2000.0, &[0.1, 0.1]), // out of range: must not appear
        ];
        let mut d = SkylineDiagram::with_sites(cfg(), sites.clone());
        let key = d.key_for(Point::new(450.0, 450.0), 100.0);
        let ans = d.materialize(key, 0);
        let expect: Vec<TupleId> = {
            let mut v = vec![TupleId::site(&sites[0]), TupleId::site(&sites[1])];
            v.sort_unstable();
            v
        };
        assert_eq!(ans.ids[..], expect[..]);
        assert_eq!(d.cell_count(), 1);
        // Second materialize is a cache hit, not a recompute.
        d.materialize(key, 5);
        assert_eq!(d.stats().cells_materialized, 1);
        d.check_invariants().unwrap();
    }

    #[test]
    fn intersection_test_skips_unaffected_cells() {
        let mut d = SkylineDiagram::with_sites(cfg(), vec![t(50.0, 50.0, &[5.0])]);
        let near = d.key_for(Point::new(50.0, 50.0), 100.0);
        let far = d.key_for(Point::new(5000.0, 5000.0), 100.0);
        d.materialize(near, 0);
        d.materialize(far, 0);

        // A site near the first cell touches it and skips the far one.
        let delta =
            SkyDelta { adds: vec![(TupleId(1, 0), t(60.0, 60.0, &[1.0]))], removes: vec![] };
        let rep = d.apply(&delta, 1);
        assert_eq!(rep.cells_touched, 1);
        assert_eq!(rep.cells_skipped, 1);
        assert_eq!(rep.invalidated, vec![near], "the new tuple dominates");
        assert_eq!(d.answer(near).unwrap().refreshed_at, 1);
        assert_eq!(d.answer(far).unwrap().refreshed_at, 0, "untouched answer keeps its stamp");
        d.check_invariants().unwrap();
    }

    #[test]
    fn touched_but_unchanged_answers_are_not_invalidated() {
        let mut d = SkylineDiagram::with_sites(cfg(), vec![t(50.0, 50.0, &[1.0])]);
        let key = d.key_for(Point::new(50.0, 50.0), 100.0);
        d.materialize(key, 0);
        // A dominated add lands in range (touched) but the answer is stable.
        let delta =
            SkyDelta { adds: vec![(TupleId(7, 7), t(55.0, 55.0, &[9.0]))], removes: vec![] };
        let rep = d.apply(&delta, 3);
        assert_eq!(rep.cells_touched, 1);
        assert!(rep.invalidated.is_empty());
        assert_eq!(d.answer(key).unwrap().refreshed_at, 0);
        d.check_invariants().unwrap();
    }

    #[test]
    fn re_add_of_a_live_id_replaces_its_state() {
        let mut d = SkylineDiagram::new(cfg());
        let key = d.key_for(Point::new(50.0, 50.0), 250.0);
        d.materialize(key, 0);
        let id = TupleId(3, 1);
        d.apply(&SkyDelta { adds: vec![(id, t(50.0, 50.0, &[5.0]))], removes: vec![] }, 1);
        assert_eq!(d.answer(key).unwrap().ids[..], [id]);
        // Same id re-added with a new position outside the cell: the cell
        // must retract the stale copy.
        d.apply(&SkyDelta { adds: vec![(id, t(5000.0, 5000.0, &[5.0]))], removes: vec![] }, 2);
        assert!(d.answer(key).unwrap().ids.is_empty());
        assert_eq!(d.site_count(), 1);
        d.check_invariants().unwrap();
    }

    #[test]
    fn ttl_eviction_drops_only_stale_cells() {
        let mut d = SkylineDiagram::with_sites(cfg(), vec![t(50.0, 50.0, &[1.0])]);
        let a = d.key_for(Point::new(50.0, 50.0), 100.0);
        let b = d.key_for(Point::new(5000.0, 5000.0), 100.0);
        d.materialize(a, 0);
        d.materialize(b, 0);
        // Epoch 9, TTL 4: both cells' answers date from epoch 0 → stale.
        // Refresh `a` by churning a site inside it first.
        d.apply(
            &SkyDelta { adds: vec![(TupleId(9, 9), t(60.0, 60.0, &[0.5]))], removes: vec![] },
            8,
        );
        let evicted = d.evict_stale(9, 4);
        assert_eq!(evicted, vec![b]);
        assert_eq!(d.cell_count(), 1);
        assert_eq!(d.stats().evictions, 1);
    }

    /// The acceptance proof: a seeded churn run where after EVERY delta the
    /// diagram's cached answers equal fresh recomputes.
    #[test]
    fn seeded_churn_keeps_every_cell_exact() {
        let c = DiagramConfig::new(200.0, vec![150.0, 400.0]);
        let mut d = SkylineDiagram::new(c);
        let mut rng = 0xD1A6_2026u64;
        // Materialize a spread of cells up front.
        for i in 0..6 {
            for band in [100.0, 300.0] {
                let p = Point::new((i as f64) * 170.0, ((i * 37) % 5) as f64 * 150.0);
                d.materialize(d.key_for(p, band), 0);
            }
        }
        let mut live_ids: Vec<TupleId> = Vec::new();
        for step in 1..=120u64 {
            let mut delta = SkyDelta::default();
            // Mix adds and removes; removes draw from the live set.
            for _ in 0..(1 + lcg(&mut rng) % 3) {
                let x = (lcg(&mut rng) % 1200) as f64;
                let y = (lcg(&mut rng) % 900) as f64;
                let a0 = (1 + lcg(&mut rng) % 100) as f64;
                let a1 = (1 + lcg(&mut rng) % 100) as f64;
                let id = TupleId(step, lcg(&mut rng));
                delta.adds.push((id, Tuple::new(x, y, vec![a0, a1])));
                live_ids.push(id);
            }
            if !live_ids.is_empty() && lcg(&mut rng).is_multiple_of(2) {
                let victim = live_ids.swap_remove((lcg(&mut rng) as usize) % live_ids.len());
                delta.removes.push(victim);
            }
            d.apply(&delta, step);
            d.check_invariants()
                .unwrap_or_else(|e| panic!("diagram drifted at step {step}: {e}"));
        }
        let s = d.stats();
        assert!(s.invalidations > 0, "churn must have invalidated something: {s:?}");
        assert!(s.cells_skipped > 0, "the intersection test must have skipped cells: {s:?}");
        assert_eq!(s.deltas_applied, 120);
    }

    #[test]
    fn frozen_view_is_an_independent_snapshot_that_shares_untouched_answers() {
        let mut d = SkylineDiagram::with_sites(cfg(), vec![t(50.0, 50.0, &[1.0])]);
        let near = d.key_for(Point::new(50.0, 50.0), 100.0);
        let far = d.key_for(Point::new(5000.0, 5000.0), 100.0);
        d.materialize(near, 0);
        d.materialize(far, 0);
        let before = d.freeze();
        let rep = d.apply(
            &SkyDelta { adds: vec![(TupleId(1, 1), t(40.0, 40.0, &[0.1]))], removes: vec![] },
            1,
        );
        assert_eq!(rep.invalidated, vec![near]);
        let after = d.freeze();
        assert_ne!(d.answer(near).as_ref(), before.answer(near), "no later delta shows through");
        assert_eq!(before.answer(near).unwrap().refreshed_at, 0);
        assert_eq!(after.answer(near), d.answer(near).as_ref());
        // The untouched cell is one allocation shared by writer and views.
        let shared = |v: &FrozenAnswers| v.answer(far).unwrap().ids.clone();
        assert!(Arc::ptr_eq(&shared(&before), &shared(&after)));
        assert!(Arc::ptr_eq(&shared(&after), &d.answer(far).unwrap().ids));
        // A cell materialized after the freeze is absent from the view.
        let late = d.key_for(Point::new(50.0, 50.0), 250.0);
        d.materialize(late, 1);
        assert!(after.answer(late).is_none());
        assert_eq!(after.iter().count(), 2);
        d.check_invariants().unwrap();
    }
}
