//! # sim-obs
//!
//! The simulator's observability layer (DESIGN.md §13): profiling spans,
//! engine time-series gauges, power-of-two latency histograms, the
//! minimal JSON reader behind the `msq diff` comparator, and the
//! fixed-key hasher ([`dethash`]) the simulator's lookup tables and the
//! data generator's site guard share.
//!
//! Design contract, shared by every piece:
//!
//! * **Zero observer effect.** Nothing here ever touches simulation
//!   state, RNG streams, or event ordering. Instrumentation reads the
//!   world; it never writes it. With the master switch off, a span is one
//!   relaxed atomic load and gauges/histograms are simply not collected —
//!   every bench output is byte-identical to an uninstrumented build.
//! * **Deterministic columns vs volatile rows.** Whatever a collector
//!   reports is split the way `BENCH_scale.json` splits `grid` from
//!   `timings`: counts, bytes, and sim-time are pure functions of the
//!   seeds and bit-identical at any `--jobs`; wall-clock time is volatile
//!   and lives in separate rows, so `msq diff` can compare the
//!   deterministic part exactly and band the timings.
//! * **Order-free merging.** Histograms and span accumulators merge by
//!   integer addition, so any interleaving of worker threads produces the
//!   same totals — the property the `--jobs 1` vs `--jobs 4` bit-identity
//!   guards lean on.
//!
//! ## Spans
//!
//! ```
//! sim_obs::set_enabled(true);
//! {
//!     let mut g = sim_obs::span!("aodv::route_lookup");
//!     g.add_units(1);
//! }
//! let report = sim_obs::ProfileReport::collect_and_reset();
//! assert_eq!(report.row("aodv::route_lookup").unwrap().calls, 1);
//! sim_obs::set_enabled(false);
//! ```

pub mod dethash;
pub mod gauge;
pub mod hist;
pub mod json;
pub mod span;

pub use gauge::{GaugeLog, GaugeSeries, GaugeSet};
pub use hist::PowHistogram;
pub use json::JsonValue;
pub use span::{ProfileReport, SpanGuard, SpanRow};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span collection on or off process-wide. Off by default; flipping
/// the switch never changes simulation behaviour, only whether guards
/// accumulate.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when span collection is on (one relaxed load — the entire cost
/// of a disabled span).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a profiling span for the enclosing scope. The operand is the
/// subsystem label (convention: `crate::operation`, e.g.
/// `"wheel::cascade"`); the expansion registers it once per call site and
/// returns a [`SpanGuard`] that accumulates wall time on drop, plus
/// whatever [`SpanGuard::add_bytes`]/[`SpanGuard::add_units`] were told.
/// When collection is [disabled](enabled) the guard is inert.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __SPAN_ID: ::std::sync::OnceLock<u16> = ::std::sync::OnceLock::new();
        $crate::span::SpanGuard::enter(*__SPAN_ID.get_or_init(|| $crate::span::register($name)))
    }};
}

// The bench sweep fans cells over worker threads; everything a worker
// produces or the collector aggregates must stay thread-portable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PowHistogram>();
    assert_send_sync::<GaugeLog>();
    assert_send_sync::<ProfileReport>();
    assert_send_sync::<JsonValue>();
};
