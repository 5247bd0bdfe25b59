//! # mobiskyline
//!
//! A from-scratch Rust reproduction of **"Skyline Queries Against Mobile
//! Lightweight Devices in MANETs"** (Huang, Jensen, Lu, Ooi — ICDE 2006):
//! distributed constrained skyline queries over mobile ad hoc networks,
//! including every substrate the paper depends on.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `skyline-core` | tuple model, dominance, BNL, constrained skyline, VDR filtering |
//! | [`storage`] | `device-storage` | flat and hybrid (ID-based) storage, Fig. 4 local skyline |
//! | [`datagen`] | `datagen` | IN/CO/AC generators, grid partitioning, paper example data, workloads |
//! | [`manet`] | `manet-sim` | discrete-event MANET simulator: random waypoint, unit-disk radio, AODV |
//! | [`dist`] | `dist-skyline` | the distributed protocol: SF/DF filters, EXT/OVE/UNE, BF/DF forwarding, metrics |
//!
//! ## Quickstart
//!
//! ```
//! use mobiskyline::prelude::*;
//!
//! // Build a 5×5 static network over a synthetic global relation …
//! let data = DataSpec::manet_experiment(5_000, 2, Distribution::Independent, 7).generate();
//! let net = grid_network_from_global(&data, 5, SpatialExtent::PAPER);
//!
//! // … and ask device 12 for the cheap-and-good sites within 250 m.
//! let cfg = StrategyConfig {
//!     bounds_mode: BoundsMode::Exact,
//!     exact_bounds: vec![1000.0, 1000.0],
//!     ..StrategyConfig::default()
//! };
//! let out = net.run_query(12, 250.0, &cfg);
//! assert!(!out.result.is_empty());
//! ```

pub use datagen;
pub use device_storage as storage;
pub use dist_skyline as dist;
pub use manet_sim as manet;
pub use skyline_core as core;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use datagen::{DataSpec, Distribution, GridPartitioner, SpatialExtent, WorkloadSpec};
    pub use device_storage::{DeviceRelation, FlatRelation, HybridRelation, LocalQuery};
    pub use dist_skyline::config::{FilterStrategy, Forwarding, StrategyConfig};
    pub use dist_skyline::cost_model::DeviceCostModel;
    pub use dist_skyline::query::{QueryKey, QuerySpec};
    pub use dist_skyline::runtime::{run_experiment, ManetExperiment, ManetOutcome};
    pub use dist_skyline::static_net::{grid_network_from_global, StaticGridNetwork};
    pub use dist_skyline::Device;
    pub use skyline_core::vdr::{BoundsMode, FilterTuple, MultiFilterSelection, UpperBounds};
    pub use skyline_core::{constrained, dominates, Mbr, Point, QueryRegion, SkylineMerger, Tuple};
}
