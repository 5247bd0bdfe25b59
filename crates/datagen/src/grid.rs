//! Uniform-grid partitioning of a global relation onto mobile devices.
//!
//! Section 5.2.1: "Based on a uniform grid on the spatial domain, a global
//! relation R is divided into local relations (the R_i s), each containing
//! all the tuples within its corresponding grid cell", with `m = g²` devices
//! for `g ∈ {3 … 10}`.
//!
//! An optional overlap fraction copies tuples into a neighbouring cell as
//! well, producing the `R_i ∩ R_j ≠ ∅` overlaps the problem statement
//! allows — used by tests of duplicate elimination.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skyline_core::region::Mbr;
use skyline_core::{Point, Tuple};

use crate::spatial::SpatialExtent;

/// Uniform `g × g` grid over a spatial extent.
#[derive(Debug, Clone, Copy)]
pub struct GridPartitioner {
    /// Cells per side.
    pub g: usize,
    /// The spatial extent being partitioned.
    pub space: SpatialExtent,
    /// Probability that a tuple is *also* stored in a random neighbour cell
    /// (0.0 = disjoint partitions, the experiments' default).
    pub overlap: f64,
    /// Seed for overlap decisions.
    pub seed: u64,
}

/// Result of partitioning: one local relation per device plus geometry.
#[derive(Debug, Clone)]
pub struct Partitioned {
    /// `parts[i]` is device `i`'s local relation `R_i`.
    pub parts: Vec<Vec<Tuple>>,
    /// The grid cell (as an MBR) owned by each device.
    pub cells: Vec<Mbr>,
    /// Cells per side.
    pub g: usize,
}

impl Partitioned {
    /// Total number of devices (`m = g²`).
    pub fn num_devices(&self) -> usize {
        self.parts.len()
    }

    /// Centre point of device `i`'s cell — used as the device's initial
    /// position in the simulations.
    pub fn cell_center(&self, i: usize) -> Point {
        center(&self.cells[i])
    }

    /// Grid-adjacency (4-neighbourhood) of device `i` — the forwarding
    /// topology of the paper's static pre-tests.
    pub fn grid_neighbors(&self, i: usize) -> Vec<usize> {
        let g = self.g;
        let (r, c) = (i / g, i % g);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(i - g);
        }
        if r + 1 < g {
            out.push(i + g);
        }
        if c > 0 {
            out.push(i - 1);
        }
        if c + 1 < g {
            out.push(i + 1);
        }
        out
    }
}

fn center(c: &Mbr) -> Point {
    Point::new((c.x_min + c.x_max) / 2.0, (c.y_min + c.y_max) / 2.0)
}

impl GridPartitioner {
    /// Disjoint partitioning with the paper's defaults.
    pub fn new(g: usize, space: SpatialExtent) -> Self {
        assert!(g > 0, "grid must have at least one cell");
        GridPartitioner { g, space, overlap: 0.0, seed: 0 }
    }

    /// Adds an overlap fraction.
    pub fn with_overlap(mut self, overlap: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&overlap), "overlap must be a probability");
        self.overlap = overlap;
        self.seed = seed;
        self
    }

    /// Cell index of a location.
    pub fn cell_of(&self, p: Point) -> usize {
        let g = self.g as f64;
        let cx = ((p.x / self.space.width * g) as usize).min(self.g - 1);
        let cy = ((p.y / self.space.height * g) as usize).min(self.g - 1);
        cy * self.g + cx
    }

    /// Partitions `data` into `g²` local relations, copying every tuple
    /// into its cell: [`Self::cell_rows`] gathered into one exact-size
    /// relation per cell.
    pub fn partition(&self, data: &[Tuple]) -> Partitioned {
        let parts: Vec<Vec<Tuple>> = self
            .rows_of(data.iter().map(Tuple::location))
            .iter()
            .map(|rows| rows.iter().map(|&r| data[r as usize].clone()).collect())
            .collect();
        let cells = (0..parts.len()).map(|i| self.cell_rect(i)).collect();
        Partitioned { parts, cells, g: self.g }
    }

    /// The partition of rows sited at `locs`, as one row-index list per
    /// cell, each in input order: `cell_rows(locs)[i]` names the rows
    /// [`Self::partition`] puts in `parts[i]`, in the same order, with the
    /// same overlap draws.
    pub fn cell_rows(&self, locs: &[Point]) -> Vec<Vec<u32>> {
        self.rows_of(locs.iter().copied())
    }

    /// The partition rule over rows sited at `locs`, rows in input order:
    /// a neighbour's copy, when the overlap draw makes one, is listed
    /// before the row's own cell.
    fn rows_of(&self, locs: impl ExactSizeIterator<Item = Point>) -> Vec<Vec<u32>> {
        assert!(u32::try_from(locs.len()).is_ok(), "row numbers are kept as u32");
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); self.g * self.g];
        let mut rng = StdRng::seed_from_u64(self.seed);
        for (row, p) in (0u32..).zip(locs) {
            let cell = self.cell_of(p);
            if self.overlap > 0.0 && rng.random_range(0.0..1.0) < self.overlap {
                let neighbors = self.neighbor_cells(cell);
                if !neighbors.is_empty() {
                    rows[neighbors[rng.random_range(0..neighbors.len())]].push(row);
                }
            }
            rows[cell].push(row);
        }
        rows
    }

    /// Centre point of cell `i` — where the simulations place device `i`.
    pub fn cell_center(&self, i: usize) -> Point {
        center(&self.cell_rect(i))
    }

    /// The rectangle of cell `i`.
    pub fn cell_rect(&self, i: usize) -> Mbr {
        let g = self.g;
        let (r, c) = (i / g, i % g);
        let w = self.space.width / g as f64;
        let h = self.space.height / g as f64;
        Mbr {
            x_min: c as f64 * w,
            x_max: (c + 1) as f64 * w,
            y_min: r as f64 * h,
            y_max: (r + 1) as f64 * h,
        }
    }

    fn neighbor_cells(&self, i: usize) -> Vec<usize> {
        let g = self.g;
        let (r, c) = (i / g, i % g);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(i - g);
        }
        if r + 1 < g {
            out.push(i + g);
        }
        if c > 0 {
            out.push(i - 1);
        }
        if c + 1 < g {
            out.push(i + 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{DataSpec, Distribution};

    fn data() -> Vec<Tuple> {
        DataSpec::local_experiment(1000, 2, Distribution::Independent, 3).generate()
    }

    #[test]
    fn disjoint_partition_preserves_all_tuples() {
        let part = GridPartitioner::new(5, SpatialExtent::PAPER).partition(&data());
        let total: usize = part.parts.iter().map(Vec::len).sum();
        assert_eq!(total, 1000);
        assert_eq!(part.num_devices(), 25);
    }

    #[test]
    fn every_tuple_lands_in_its_cell() {
        let p = GridPartitioner::new(4, SpatialExtent::PAPER);
        let part = p.partition(&data());
        for (i, rel) in part.parts.iter().enumerate() {
            let rect = &part.cells[i];
            for t in rel {
                assert!(rect.contains(t.location()), "tuple outside its cell");
            }
        }
    }

    #[test]
    fn overlap_duplicates_some_tuples() {
        let p = GridPartitioner::new(3, SpatialExtent::PAPER).with_overlap(0.5, 9);
        let part = p.partition(&data());
        let total: usize = part.parts.iter().map(Vec::len).sum();
        assert!(total > 1000, "overlap should copy tuples ({total})");
        assert!(total < 2000);
    }

    #[test]
    fn cell_rows_name_the_partitioned_tuples_in_order() {
        let data = data();
        let locs: Vec<Point> = data.iter().map(Tuple::location).collect();
        for p in [
            GridPartitioner::new(4, SpatialExtent::PAPER),
            GridPartitioner::new(3, SpatialExtent::PAPER).with_overlap(0.5, 9),
        ] {
            let part = p.partition(&data);
            let rows = p.cell_rows(&locs);
            assert_eq!(rows.len(), part.num_devices());
            for (i, cell) in rows.iter().enumerate() {
                let tuples: Vec<Tuple> = cell.iter().map(|&r| data[r as usize].clone()).collect();
                assert_eq!(tuples, part.parts[i], "cell {i}, overlap {}", p.overlap);
                assert!(cell.windows(2).all(|w| w[0] < w[1]), "cell {i} not in input order");
                assert_eq!(p.cell_center(i), part.cell_center(i));
            }
            if p.overlap == 0.0 {
                let mut all: Vec<u32> = rows.concat();
                all.sort_unstable();
                assert!(all.iter().copied().eq(0..data.len() as u32), "disjoint and complete");
            }
        }
    }

    #[test]
    fn cell_of_is_consistent_with_cell_rect() {
        let p = GridPartitioner::new(7, SpatialExtent::PAPER);
        for t in data().iter().take(200) {
            let cell = p.cell_of(t.location());
            assert!(p.cell_rect(cell).contains(t.location()));
        }
    }

    #[test]
    fn grid_neighbors_form_symmetric_adjacency() {
        let p = GridPartitioner::new(4, SpatialExtent::PAPER).partition(&data());
        for i in 0..16 {
            for &j in &p.grid_neighbors(i) {
                assert!(p.grid_neighbors(j).contains(&i), "asymmetric edge {i}-{j}");
            }
        }
        // Corner has 2 neighbours, centre has 4.
        assert_eq!(p.grid_neighbors(0).len(), 2);
        assert_eq!(p.grid_neighbors(5).len(), 4);
    }

    #[test]
    fn cell_centers_lie_in_their_cells() {
        let p = GridPartitioner::new(3, SpatialExtent::PAPER).partition(&data());
        for i in 0..9 {
            assert!(p.cells[i].contains(p.cell_center(i)));
        }
    }

    #[test]
    fn boundary_coordinates_clamp_to_last_cell() {
        let p = GridPartitioner::new(5, SpatialExtent::PAPER);
        assert_eq!(p.cell_of(Point::new(999.9999, 999.9999)), 24);
        assert_eq!(p.cell_of(Point::new(0.0, 0.0)), 0);
    }
}
