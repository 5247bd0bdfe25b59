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

use std::borrow::Borrow;

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
        let c = &self.cells[i];
        Point::new((c.x_min + c.x_max) / 2.0, (c.y_min + c.y_max) / 2.0)
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

    /// Partitions `data` into `g²` local relations, cloning every tuple
    /// into its cell.
    pub fn partition(&self, data: &[Tuple]) -> Partitioned {
        self.scatter(data.iter(), Tuple::clone)
    }

    /// Like [`Self::partition`], but moves the tuples of a global relation
    /// the caller no longer needs into their cells. Same partitions, same
    /// overlap draws.
    pub fn partition_owned(&self, data: Vec<Tuple>) -> Partitioned {
        self.scatter(data.into_iter(), |t| t)
    }

    fn scatter<T: Borrow<Tuple>>(
        &self,
        data: impl Iterator<Item = T>,
        into_cell: impl Fn(T) -> Tuple,
    ) -> Partitioned {
        let m = self.g * self.g;
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); m];
        let mut rng = StdRng::seed_from_u64(self.seed);
        for t in data {
            let cell = self.cell_of(t.borrow().location());
            if self.overlap > 0.0 && rng.random_range(0.0..1.0) < self.overlap {
                let neighbors = self.neighbor_cells(cell);
                if !neighbors.is_empty() {
                    let pick = neighbors[rng.random_range(0..neighbors.len())];
                    parts[pick].push(t.borrow().clone());
                }
            }
            parts[cell].push(into_cell(t));
        }
        let cells = (0..m).map(|i| self.cell_rect(i)).collect();
        Partitioned { parts, cells, g: self.g }
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
    fn owned_partitioning_moves_into_the_same_cells() {
        for p in [
            GridPartitioner::new(4, SpatialExtent::PAPER),
            GridPartitioner::new(3, SpatialExtent::PAPER).with_overlap(0.5, 9),
        ] {
            assert_eq!(p.partition_owned(data()).parts, p.partition(&data()).parts);
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
