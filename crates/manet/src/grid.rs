//! Deterministic spatial hash grid for O(degree) neighbour discovery.
//!
//! The engine's oracle neighbour queries and unit-disk broadcasts used to
//! scan every node's position per call — O(n) per query, O(n) per event
//! for the position refresh feeding it, and the simulator's dominant cost
//! beyond a few hundred nodes. [`SpatialGrid`] buckets node ids by cell
//! (cell edge = radio range) over a *bounded-staleness* position snapshot:
//! the engine refreshes the snapshot in periodic sweeps and widens each
//! query box by the maximum drift since the last sweep, so the grid yields
//! a guaranteed superset of the true in-range set; an exact re-filter with
//! fresh positions then reproduces the brute-force answer bit-for-bit.
//!
//! Determinism: buckets are only ever addressed by key (the map's
//! iteration order is never observed — see [`DetHashMap`]), bucket contents
//! are kept sorted by node id, and a query reads its candidates out of a
//! bitset over node ids, so they come back ascending without a sort.

use crate::mobility::Pos;
use crate::packet::NodeId;
use sim_obs::dethash::DetHashMap;

/// A uniform grid over node positions; see the module docs.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Cell edge length (m).
    cell: f64,
    /// Cell → node ids inside it, each bucket sorted ascending.
    buckets: DetHashMap<(i64, i64), Vec<NodeId>>,
    /// Per-node current cell (indexed by node id).
    node_cell: Vec<(i64, i64)>,
    /// One bit per node id: a query marks its candidates here and clears
    /// every word it reads back, so the set is empty between queries.
    marks: Vec<u64>,
}

impl SpatialGrid {
    /// A grid with the given cell edge (use the radio range so one-hop
    /// neighbours span at most a 3×3 cell block plus drift).
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite cell size.
    pub fn new(cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "invalid grid cell size {cell}");
        SpatialGrid {
            cell,
            buckets: DetHashMap::default(),
            node_cell: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.node_cell.len()
    }

    /// `true` when no node is tracked.
    pub fn is_empty(&self) -> bool {
        self.node_cell.is_empty()
    }

    fn cell_of(&self, p: Pos) -> (i64, i64) {
        ((p.x / self.cell).floor() as i64, (p.y / self.cell).floor() as i64)
    }

    /// Registers the next node (ids must arrive densely, in order) at `p`.
    ///
    /// # Panics
    /// Panics when `node` is not the next unused id.
    pub fn insert(&mut self, node: NodeId, p: Pos) {
        assert_eq!(node, self.node_cell.len(), "nodes must be inserted in id order");
        let c = self.cell_of(p);
        self.node_cell.push(c);
        self.marks.resize(self.node_cell.len().div_ceil(64), 0);
        Self::bucket_add(self.buckets.entry(c).or_default(), node);
    }

    /// Moves `node` to position `p`, rebucketing only on a cell change.
    pub fn update(&mut self, node: NodeId, p: Pos) {
        let c = self.cell_of(p);
        let old = self.node_cell[node];
        if c == old {
            return;
        }
        if let Some(b) = self.buckets.get_mut(&old) {
            if let Ok(i) = b.binary_search(&node) {
                b.remove(i);
            }
            if b.is_empty() {
                self.buckets.remove(&old);
            }
        }
        self.node_cell[node] = c;
        Self::bucket_add(self.buckets.entry(c).or_default(), node);
    }

    fn bucket_add(bucket: &mut Vec<NodeId>, node: NodeId) {
        let at = bucket.partition_point(|&n| n < node);
        bucket.insert(at, node);
    }

    /// Collects into `out` (cleared first) every node whose *snapshot*
    /// position may lie within `radius` of `center`, sorted ascending by
    /// id. The box covers `radius` in the Chebyshev metric, so it is a
    /// superset of the Euclidean ball; callers re-filter with exact
    /// positions.
    pub fn query_into(&mut self, center: Pos, radius: f64, out: &mut Vec<NodeId>) {
        let mut span = sim_obs::span!("grid::query");
        out.clear();
        let lo = self.cell_of(Pos::new(center.x - radius, center.y - radius));
        let hi = self.cell_of(Pos::new(center.x + radius, center.y + radius));
        // Mark every candidate, tracking the span of words touched; each
        // bucket is sorted and never empty, so its ends bound its words.
        let (mut first, mut last) = (usize::MAX, 0);
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                if let Some(b) = self.buckets.get(&(cx, cy)) {
                    for &n in b {
                        self.marks[n / 64] |= 1 << (n % 64);
                    }
                    first = first.min(b[0] / 64);
                    last = last.max(b[b.len() - 1] / 64);
                }
            }
        }
        // Read the set bits out in ascending order, leaving the words zero.
        for w in first..=last {
            let mut bits = std::mem::take(&mut self.marks[w]);
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        span.add_units(out.len() as u64);
    }

    /// Number of non-empty cells (a gauge input).
    pub fn occupied_cells(&self) -> usize {
        self.buckets.len()
    }

    /// Largest bucket's population — the local-density hotspot a query
    /// pays for (a gauge input).
    pub fn max_bucket_len(&self) -> usize {
        self.buckets.values().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic scatter of n positions inside a w × h area.
    fn scatter(n: usize, w: f64, h: f64, seed: u64) -> Vec<Pos> {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| Pos::new(next() * w, next() * h)).collect()
    }

    fn brute_force(positions: &[Pos], center: Pos, radius: f64) -> Vec<NodeId> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist2(center) <= radius * radius)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn query_is_a_sorted_superset_of_the_euclidean_ball() {
        let positions = scatter(300, 1000.0, 1000.0, 0xC0FFEE);
        let mut grid = SpatialGrid::new(250.0);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        let mut out = Vec::new();
        for &center in positions.iter().step_by(7) {
            grid.query_into(center, 250.0, &mut out);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
            for id in brute_force(&positions, center, 250.0) {
                assert!(out.contains(&id), "grid missed in-range node {id}");
            }
        }
    }

    #[test]
    fn update_rebuckets_across_cells() {
        let mut grid = SpatialGrid::new(100.0);
        grid.insert(0, Pos::new(50.0, 50.0));
        grid.insert(1, Pos::new(950.0, 950.0));
        let mut out = Vec::new();
        grid.query_into(Pos::new(50.0, 50.0), 10.0, &mut out);
        assert_eq!(out, vec![0]);
        // Move node 1 next to node 0; it must appear in local queries.
        grid.update(1, Pos::new(55.0, 55.0));
        grid.query_into(Pos::new(50.0, 50.0), 10.0, &mut out);
        assert_eq!(out, vec![0, 1]);
        // And vanish from its old area.
        grid.query_into(Pos::new(950.0, 950.0), 10.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn update_within_a_cell_is_a_noop_rebucket() {
        let mut grid = SpatialGrid::new(100.0);
        grid.insert(0, Pos::new(10.0, 10.0));
        grid.update(0, Pos::new(20.0, 20.0)); // same cell
        let mut out = Vec::new();
        grid.query_into(Pos::new(15.0, 15.0), 50.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        // floor() (not truncation) keeps cells around the origin distinct.
        let mut grid = SpatialGrid::new(100.0);
        grid.insert(0, Pos::new(-5.0, -5.0));
        grid.insert(1, Pos::new(5.0, 5.0));
        let mut out = Vec::new();
        grid.query_into(Pos::new(0.0, 0.0), 20.0, &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn moving_query_tracks_brute_force_under_churn() {
        let mut positions = scatter(120, 500.0, 500.0, 42);
        let mut grid = SpatialGrid::new(60.0);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        let drift = scatter(120, 90.0, 90.0, 7);
        for round in 0..5 {
            for i in 0..positions.len() {
                positions[i] = Pos::new(
                    (positions[i].x + drift[i].x) % 500.0,
                    (positions[i].y + drift[i].y) % 500.0,
                );
                grid.update(i, positions[i]);
            }
            let mut out = Vec::new();
            for &center in positions.iter().step_by(11) {
                grid.query_into(center, 60.0, &mut out);
                for id in brute_force(&positions, center, 60.0) {
                    assert!(out.contains(&id), "round {round}: missed {id}");
                }
            }
        }
    }

    /// The query before the bitset: every bucket of the box concatenated,
    /// then sorted.
    fn concat_and_sort(grid: &SpatialGrid, center: Pos, radius: f64) -> Vec<NodeId> {
        let lo = grid.cell_of(Pos::new(center.x - radius, center.y - radius));
        let hi = grid.cell_of(Pos::new(center.x + radius, center.y + radius));
        let mut out = Vec::new();
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                if let Some(b) = grid.buckets.get(&(cx, cy)) {
                    out.extend_from_slice(b);
                }
            }
        }
        out.sort_unstable();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Marking candidates in the bitset returns exactly what the
        /// concatenate-and-sort query returned, ids and order, over random
        /// layouts (past one 64-bit word of ids), moves that cross cells,
        /// and radii from a fraction of a cell to several cells.
        #[test]
        fn bitset_query_equals_concatenate_and_sort(
            cell in 20.0f64..120.0,
            start in prop::collection::vec((-300.0f64..600.0, -300.0f64..600.0), 1..200),
            moves in prop::collection::vec(
                (any::<prop::sample::Index>(), -300.0f64..600.0, -300.0f64..600.0), 0..120),
            queries in prop::collection::vec(
                ((-400.0f64..700.0, -400.0f64..700.0), 0.0f64..4.0), 1..12),
        ) {
            let mut grid = SpatialGrid::new(cell);
            for (i, &(x, y)) in start.iter().enumerate() {
                grid.insert(i, Pos::new(x, y));
            }
            let mut out = vec![usize::MAX]; // cleared by every query
            let mut check = |grid: &mut SpatialGrid| {
                for &((x, y), cells) in &queries {
                    let (center, radius) = (Pos::new(x, y), cells * cell);
                    grid.query_into(center, radius, &mut out);
                    prop_assert_eq!(&out, &concat_and_sort(grid, center, radius));
                }
                prop_assert!(grid.marks.iter().all(|&w| w == 0), "marks left set");
                Ok(())
            };
            check(&mut grid)?;
            for (k, &(node, x, y)) in moves.iter().enumerate() {
                grid.update(node.index(start.len()), Pos::new(x, y));
                if k % 20 == 19 {
                    check(&mut grid)?;
                }
            }
            check(&mut grid)?;
        }
    }

    #[test]
    #[should_panic(expected = "id order")]
    fn out_of_order_insert_rejected() {
        let mut grid = SpatialGrid::new(100.0);
        grid.insert(1, Pos::new(0.0, 0.0));
    }
}
