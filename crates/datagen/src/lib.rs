//! # datagen
//!
//! Synthetic data and workload generators reproducing the paper's
//! experimental setup (Section 5, Tables 6 and 7):
//!
//! * independent / correlated / anti-correlated non-spatial attributes
//!   (the Börzsönyi et al. generator definitions used throughout the
//!   skyline literature);
//! * uniform spatial placement in a `1000 × 1000` extent with unique
//!   locations;
//! * uniform-grid partitioning of a global relation into `g × g` local
//!   relations, one per mobile device (optionally with overlap, to exercise
//!   duplicate elimination) — as tuples, or as row-index lists over a
//!   relation generated as [`Columns`];
//! * the paper's worked hotel examples (Tables 2–5) verbatim;
//! * query workloads (each device issues 1–5 queries at random times).
//!
//! Everything is deterministic given a seed.
//!
//! ```
//! use datagen::{DataSpec, Distribution, GridPartitioner, SpatialExtent};
//!
//! let data = DataSpec::manet_experiment(1_000, 2, Distribution::AntiCorrelated, 1).generate();
//! let parts = GridPartitioner::new(3, SpatialExtent::PAPER).partition(&data);
//! assert_eq!(parts.num_devices(), 9);
//! assert_eq!(parts.parts.iter().map(Vec::len).sum::<usize>(), 1_000);
//! ```

pub mod distributions;
pub mod grid;
pub mod hotels;
pub mod spatial;
pub mod workload;

pub use distributions::{Columns, DataSpec, Distribution};
pub use grid::{GridPartitioner, Partitioned};
pub use spatial::{SpatialExtent, SpatialPattern};
pub use workload::{QueryRequest, WorkloadSpec};
