//! # skyline-core
//!
//! Core skyline-query machinery for the ICDE 2006 paper *"Skyline Queries
//! Against Mobile Lightweight Devices in MANETs"* (Huang, Jensen, Lu, Ooi).
//!
//! This crate is substrate-free: it defines the tuple model, dominance
//! relations, the one batch skyline (BNL, the scan the paper runs over flat
//! storage) with a brute-force oracle, the *constrained* (spatially
//! restricted) skyline, the originator's merge, the deletion-capable fold
//! and skyline diagram of the extensions, and the *dominating region*
//! (VDR) computations that drive the paper's filtering-tuple strategy.
//!
//! Conventions, following the paper:
//!
//! * every tuple has schema `⟨x, y, p_1 … p_n⟩` where `(x, y)` is the site
//!   location and the `p_j` are non-spatial attributes;
//! * **smaller is better** on every non-spatial attribute;
//! * spatial coordinates never participate in dominance — they only gate
//!   membership through the query region (`within distance d of the query
//!   position`);
//! * no two tuples share the same `(x, y)` location (locations identify
//!   sites), which is what makes duplicate elimination by location sound.
//!
//! ## Quick example
//!
//! ```
//! use skyline_core::{Tuple, algo};
//!
//! let hotels = vec![
//!     Tuple::new(0.0, 0.0, vec![60.0, 3.0]),   // cheap-ish, good rating
//!     Tuple::new(1.0, 0.0, vec![90.0, 2.0]),
//!     Tuple::new(2.0, 0.0, vec![140.0, 2.0]),  // dominated by the previous
//! ];
//! let sky = algo::bnl::skyline_indices(&hotels);
//! assert_eq!(sky, vec![0, 1]);
//! ```

pub mod algo;
pub mod constrained;
pub mod diagram;
pub mod dominance;
pub mod live;
pub mod merge;
pub mod region;
pub mod tuple;
pub mod vdr;

pub use diagram::{
    ApplyReport, CellAnswer, CellKey, DiagramConfig, DiagramStats, FrozenAnswers, SkyDelta,
    SkylineDiagram,
};
pub use dominance::{dominates, DominanceTest};
pub use live::LiveSkyline;
pub use merge::SkylineMerger;
pub use region::{Mbr, Point, QueryRegion};
pub use tuple::{Attrs, Tuple, TupleId};
pub use vdr::{vdr_volume, BoundsMode, FilterTuple, MultiFilterSelection, UpperBounds};
