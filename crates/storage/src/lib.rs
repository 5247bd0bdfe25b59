//! # device-storage
//!
//! Storage models for the resource-constrained mobile devices of the ICDE
//! 2006 paper, and the device-local constrained-skyline algorithms that run
//! on top of them (Section 4).
//!
//! Four models are implemented:
//!
//! * [`FlatRelation`] (**FS**) — tuples stored sequentially with raw values;
//!   local skylines via BNL. The paper's baseline.
//! * [`HybridRelation`] (**HS**) — the paper's proposal: spatial coordinates
//!   inline, non-spatial attributes ID-encoded against per-attribute
//!   *sorted* domain arrays (byte-width IDs when the domain fits), MBR kept
//!   as four constants, rows sorted on the ID of the attribute with the most
//!   distinct values. Local skylines via the Fig. 4 ID-based SFS scan.
//! * [`DomainRelation`] — "domain storage" [Ammann et al. 1985], rejected by
//!   Section 4.1 because every value access goes through a tuple-to-value
//!   pointer; implemented so the rejection is benchmarkable.
//! * [`RingRelation`] — "ring storage" [PicoDBMS, VLDB 2000], rejected
//!   because reading a value must traverse an intra-relation pointer chain;
//!   also implemented for the ablation bench.
//!
//! All models implement [`DeviceRelation`] and must produce identical query
//! answers; they differ only in space and time. That equivalence is enforced
//! by unit and property tests.

pub mod domain_index;
pub mod domain_store;
pub mod flat;
pub mod hybrid;
pub mod persist;
pub mod ring_store;
pub mod traits;

pub use domain_index::{AttributeDomain, IdArray};
pub use domain_store::DomainRelation;
pub use flat::FlatRelation;
pub use hybrid::HybridRelation;
pub use persist::{decode_relation, encode_relation, DecodeError};
pub use ring_store::RingRelation;
pub use traits::{
    DeviceRelation, LocalQuery, LocalSkylineOutcome, LocalStats, SkipCause, StorageModel,
};

/// NaN-safe lexicographic ordering on attribute vectors (`f64::total_cmp`
/// per element), for canonicalizing skylines in equivalence tests.
#[cfg(test)]
pub(crate) fn total_lex(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}
