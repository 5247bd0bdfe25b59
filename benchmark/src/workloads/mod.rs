//! The six workloads. Each stresses a different part of the stack; see
//! `benchmark/README.md` for what runs and why.

pub mod local_scan;
pub mod manet;
pub mod monitor;
pub mod serve;
