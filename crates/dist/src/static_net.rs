//! The idealized **static setting** of the paper's pre-tests (Section
//! 5.2.2-I): devices sit on a grid, never move, and "queries are forwarded
//! recursively from the originator to the outer neighbors in the grid". The
//! distance constraint is optional (the pre-tests ignore it), and every
//! device can be made the originator once to average `m × m` queries.
//!
//! Forwarding is modelled as a breadth-first traversal of the grid
//! adjacency starting at the originator; under the dynamic strategy the
//! filter evolves along the traversal, exactly like the recursive relay the
//! paper describes.

use device_storage::{DeviceRelation, HybridRelation};
use skyline_core::region::Point;
use skyline_core::{SkylineMerger, Tuple};
use std::collections::VecDeque;

use crate::config::StrategyConfig;
use crate::device::Device;
use crate::metrics::{DrrAccumulator, QueryMetrics};
use crate::query::QuerySpec;

/// Result of one static-setting query.
#[derive(Debug)]
pub struct StaticQueryOutcome {
    /// The assembled global skyline.
    pub result: Vec<Tuple>,
    /// Per-query metrics (response time not applicable here).
    pub metrics: QueryMetrics,
}

/// A static grid of devices holding the partitions of one global relation.
///
/// ```
/// use dist_skyline::config::StrategyConfig;
/// use dist_skyline::static_net::grid_network_from_global;
/// use datagen::{DataSpec, Distribution, SpatialExtent};
/// use skyline_core::BoundsMode;
///
/// let spec = DataSpec::manet_experiment(2_000, 2, Distribution::Independent, 7);
/// let net = grid_network_from_global(&spec.generate(), 3, SpatialExtent::PAPER);
/// let cfg = StrategyConfig {
///     bounds_mode: BoundsMode::Exact,
///     exact_bounds: spec.global_upper_bounds(),
///     ..StrategyConfig::default()
/// };
/// let out = net.run_query(4, 250.0, &cfg);
/// assert_eq!(out.result.len(), net.ground_truth(4, 250.0).len());
/// ```
pub struct StaticGridNetwork<R = HybridRelation> {
    devices: Vec<Device<R>>,
    positions: Vec<Point>,
    g: usize,
}

impl<R: DeviceRelation> StaticGridNetwork<R> {
    /// Builds the network from per-device relations laid out on a `g × g`
    /// grid; `positions[i]` is device `i`'s (fixed) position.
    pub fn new(relations: Vec<R>, positions: Vec<Point>, g: usize) -> Self {
        assert_eq!(relations.len(), g * g, "need one relation per grid cell");
        assert_eq!(positions.len(), g * g);
        let devices = relations.into_iter().enumerate().map(|(i, r)| Device::new(i, r)).collect();
        StaticGridNetwork { devices, positions, g }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` when the network has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Grid neighbours (4-adjacency).
    fn neighbors(&self, i: usize) -> Vec<usize> {
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

    /// The BFS traversal shared by [`StaticGridNetwork::run_query`] and
    /// [`StaticGridNetwork::run_all_origins`]: forwards the query outward
    /// from the originator, evolving the filter bank along the traversal,
    /// and hands every local result (the originator's own first) to `sink`.
    fn walk_query(
        &self,
        origin: usize,
        pos: Point,
        d: f64,
        cfg: &StrategyConfig,
        sink: &mut dyn FnMut(Vec<Tuple>),
    ) -> QueryMetrics {
        let spec = QuerySpec::new(origin, 0, pos, d);
        let (sk_org, mut filters) = self.devices[origin].originate(&spec, cfg);
        sink(sk_org);

        let mut metrics = QueryMetrics::default();
        let mut drr = DrrAccumulator::default();

        // BFS outward from the originator; the filter evolves along the
        // traversal under the dynamic strategy.
        let mut visited = vec![false; self.devices.len()];
        visited[origin] = true;
        let mut queue: VecDeque<usize> = VecDeque::new();
        for n in self.neighbors(origin) {
            visited[n] = true;
            queue.push_back(n);
        }
        while let Some(i) = queue.pop_front() {
            metrics.forward_messages += 1;
            let out = self.devices[i].process(&spec, &filters, cfg);
            drr.add(out.unreduced_len, out.reply.len());
            metrics.tuples_transferred += out.reply.len() as u64;
            metrics.bytes_transferred +=
                out.reply.iter().map(Tuple::wire_size).sum::<usize>() as u64;
            metrics.result_messages += 1;
            metrics.devices_responded += 1;
            sink(out.reply);
            // `process` applied the strategy's forwarding rule already.
            filters = out.forward_filters;
            for n in self.neighbors(i) {
                if !visited[n] {
                    visited[n] = true;
                    queue.push_back(n);
                }
            }
        }

        metrics.drr = drr;
        metrics
    }

    /// Runs one query from `origin` with distance `d` (use
    /// `f64::INFINITY` to ignore the constraint, as the pre-tests do).
    pub fn run_query(&self, origin: usize, d: f64, cfg: &StrategyConfig) -> StaticQueryOutcome {
        self.run_query_at(origin, self.positions[origin], d, cfg)
    }

    /// Runs one query issued by device `origin` but centred at an
    /// arbitrary position `pos` — the serving layer's cold path, where the
    /// query centre is a diagram cell's canonical point rather than any
    /// device's location. The BFS still reaches every device, so the
    /// merged answer equals the centralized constrained skyline for
    /// `(pos, d)`.
    pub fn run_query_at(
        &self,
        origin: usize,
        pos: Point,
        d: f64,
        cfg: &StrategyConfig,
    ) -> StaticQueryOutcome {
        let mut merger = SkylineMerger::new();
        let metrics = self.walk_query(origin, pos, d, cfg, &mut |batch| merger.insert_batch(batch));
        StaticQueryOutcome { result: merger.into_result(), metrics }
    }

    /// The device closest to `p` (ties break on the lower index) — the
    /// natural proxy originator for a query centred off-device.
    pub fn nearest_device(&self, p: Point) -> usize {
        let mut best = 0usize;
        let mut best_d2 = f64::INFINITY;
        for (i, pos) in self.positions.iter().enumerate() {
            let d2 = pos.dist2(p);
            if d2 < best_d2 {
                best_d2 = d2;
                best = i;
            }
        }
        best
    }

    /// Like [`StaticGridNetwork::run_query`] but walking the grid
    /// depth-first — the static analogue of the MANET DF token, useful for
    /// apples-to-apples forwarding comparisons without mobility noise. The
    /// filter evolves along the walk exactly as the token carries it.
    pub fn run_query_depth_first(
        &self,
        origin: usize,
        d: f64,
        cfg: &StrategyConfig,
    ) -> StaticQueryOutcome {
        let spec = QuerySpec::new(origin, 0, self.positions[origin], d);
        let (sk_org, mut filters) = self.devices[origin].originate(&spec, cfg);
        let mut merger = SkylineMerger::with_seed(sk_org);
        let mut metrics = QueryMetrics::default();
        let mut drr = DrrAccumulator::default();

        let mut visited = vec![false; self.devices.len()];
        visited[origin] = true;
        // Explicit DFS stack; each push models one token transfer.
        let mut stack: Vec<usize> = vec![origin];
        while let Some(&top) = stack.last() {
            let next = self.neighbors(top).into_iter().find(|&n| !visited[n]);
            match next {
                Some(i) => {
                    visited[i] = true;
                    metrics.forward_messages += 1;
                    let out = self.devices[i].process(&spec, &filters, cfg);
                    drr.add(out.unreduced_len, out.reply.len());
                    metrics.tuples_transferred += out.reply.len() as u64;
                    metrics.bytes_transferred +=
                        out.reply.iter().map(Tuple::wire_size).sum::<usize>() as u64;
                    metrics.devices_responded += 1;
                    merger.insert_batch(out.reply);
                    filters = out.forward_filters;
                    stack.push(i);
                }
                None => {
                    stack.pop();
                    if !stack.is_empty() {
                        metrics.forward_messages += 1; // token backtracks
                    }
                }
            }
        }

        metrics.result_messages = 1; // the token returns once
        metrics.drr = drr;
        StaticQueryOutcome { result: merger.into_result(), metrics }
    }

    /// Runs the paper's pre-test protocol: every device originates once
    /// (distance ignored), metrics averaged over all `m` queries. Returns
    /// the merged DRR accumulator.
    pub fn run_all_origins(&self, cfg: &StrategyConfig) -> DrrAccumulator {
        let mut total = DrrAccumulator::default();
        for origin in 0..self.devices.len() {
            // DRR is a pure data metric — it never reads the assembled
            // skyline — so the originator-side merge is skipped entirely.
            // At anti-correlated d=5 the merge is ~97% of the walk's cost.
            let metrics =
                self.walk_query(origin, self.positions[origin], f64::INFINITY, cfg, &mut |_| {});
            total.merge(&metrics.drr);
        }
        total
    }

    /// The centralized ground truth for a query from `origin` — skyline of
    /// the deduplicated union restricted to the region.
    pub fn ground_truth(&self, origin: usize, d: f64) -> Vec<Tuple> {
        self.ground_truth_at(origin, self.positions[origin], d)
    }

    /// Centralized ground truth for a query centred at an arbitrary
    /// position (the serving layer's canonical cell centres).
    pub fn ground_truth_at(&self, origin: usize, pos: Point, d: f64) -> Vec<Tuple> {
        let region = QuerySpec::new(origin, 0, pos, d).region();
        let mut merger = SkylineMerger::new();
        for dev in &self.devices {
            let rel = &dev.relation;
            if rel.mbr().is_some_and(|mbr| region.misses(&mbr)) {
                continue;
            }
            // Only in-range rows are materialized.
            for i in (0..rel.len()).filter(|&i| region.contains(rel.location(i))) {
                merger.insert(rel.tuple(i));
            }
        }
        merger.into_result()
    }
}

/// Convenience constructor: partition a global relation over a `g × g`
/// grid of hybrid-storage devices positioned at their cell centres.
pub fn grid_network_from_global(
    global: &[Tuple],
    g: usize,
    space: datagen::SpatialExtent,
) -> StaticGridNetwork<HybridRelation> {
    let part = datagen::GridPartitioner::new(g, space).partition(global);
    let positions: Vec<Point> = (0..part.num_devices()).map(|i| part.cell_center(i)).collect();
    let relations: Vec<HybridRelation> =
        part.parts.iter().map(|p| HybridRelation::from(p.as_slice())).collect();
    StaticGridNetwork::new(relations, positions, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterStrategy;
    use datagen::{DataSpec, Distribution, SpatialExtent};
    use skyline_core::vdr::BoundsMode;

    fn network(card: usize, dim: usize, g: usize, dist: Distribution) -> StaticGridNetwork {
        let spec = DataSpec::manet_experiment(card, dim, dist, 17);
        grid_network_from_global(&spec.generate(), g, SpatialExtent::PAPER)
    }

    fn cfg(filter: FilterStrategy, mode: BoundsMode, dim: usize) -> StrategyConfig {
        StrategyConfig {
            filter,
            bounds_mode: mode,
            exact_bounds: vec![1000.0; dim],
            ..StrategyConfig::default()
        }
    }

    fn sorted_keys(mut v: Vec<Tuple>) -> Vec<(u64, u64)> {
        let mut k: Vec<(u64, u64)> = v.drain(..).map(|t| (t.x.to_bits(), t.y.to_bits())).collect();
        k.sort_unstable();
        k
    }

    #[test]
    fn distributed_equals_centralized_unconstrained() {
        let net = network(2000, 2, 4, Distribution::Independent);
        for strategy in [FilterStrategy::NoFilter, FilterStrategy::Single, FilterStrategy::Dynamic]
        {
            let out = net.run_query(5, f64::INFINITY, &cfg(strategy, BoundsMode::Exact, 2));
            assert_eq!(
                sorted_keys(out.result),
                sorted_keys(net.ground_truth(5, f64::INFINITY)),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn distributed_equals_centralized_with_distance() {
        let net = network(2000, 2, 5, Distribution::AntiCorrelated);
        for d in [100.0, 250.0, 500.0] {
            let out = net.run_query(12, d, &cfg(FilterStrategy::Dynamic, BoundsMode::Under, 2));
            assert_eq!(sorted_keys(out.result), sorted_keys(net.ground_truth(12, d)), "d={d}");
        }
    }

    #[test]
    fn filtering_reduces_traffic_but_not_results() {
        let net = network(5000, 2, 5, Distribution::Independent);
        let none =
            net.run_query(0, f64::INFINITY, &cfg(FilterStrategy::NoFilter, BoundsMode::Exact, 2));
        let dynf =
            net.run_query(0, f64::INFINITY, &cfg(FilterStrategy::Dynamic, BoundsMode::Exact, 2));
        assert_eq!(sorted_keys(none.result), sorted_keys(dynf.result));
        assert!(
            dynf.metrics.tuples_transferred <= none.metrics.tuples_transferred,
            "filtering must not increase transfer: {} vs {}",
            dynf.metrics.tuples_transferred,
            none.metrics.tuples_transferred
        );
    }

    #[test]
    fn dynamic_filter_beats_single_on_average() {
        let net = network(5000, 2, 5, Distribution::Independent);
        let sf = net.run_all_origins(&cfg(FilterStrategy::Single, BoundsMode::Exact, 2));
        let df = net.run_all_origins(&cfg(FilterStrategy::Dynamic, BoundsMode::Exact, 2));
        assert!(
            df.drr(true) >= sf.drr(true) - 0.05,
            "dynamic {} unexpectedly far below single {}",
            df.drr(true),
            sf.drr(true)
        );
    }

    #[test]
    fn forward_messages_cover_all_devices_once() {
        let net = network(1000, 2, 4, Distribution::Independent);
        let out =
            net.run_query(0, f64::INFINITY, &cfg(FilterStrategy::Dynamic, BoundsMode::Exact, 2));
        // 16 devices, originator excluded.
        assert_eq!(out.metrics.forward_messages, 15);
        assert_eq!(out.metrics.devices_responded, 15);
    }

    #[test]
    fn estimation_modes_preserve_correctness() {
        let net = network(2000, 3, 3, Distribution::AntiCorrelated);
        let expect = sorted_keys(net.ground_truth(4, f64::INFINITY));
        for mode in [BoundsMode::Exact, BoundsMode::Over, BoundsMode::Under] {
            let out = net.run_query(4, f64::INFINITY, &cfg(FilterStrategy::Dynamic, mode, 3));
            assert_eq!(sorted_keys(out.result), expect.clone(), "{mode:?}");
        }
    }

    #[test]
    fn depth_first_walk_matches_breadth_first_results() {
        let net = network(3000, 2, 4, Distribution::Independent);
        let cfg = cfg(FilterStrategy::Dynamic, BoundsMode::Exact, 2);
        for origin in [0, 5, 15] {
            let bf = net.run_query(origin, f64::INFINITY, &cfg);
            let df = net.run_query_depth_first(origin, f64::INFINITY, &cfg);
            assert_eq!(
                sorted_keys(bf.result),
                sorted_keys(df.result),
                "origin {origin}: traversal order must not change the answer"
            );
            // DF visits all 15 peers too, with backtracking transfers.
            assert_eq!(df.metrics.devices_responded, 15);
            assert!(df.metrics.forward_messages >= 15);
        }
    }

    #[test]
    fn drr_is_positive_on_large_uniform_data() {
        let net = network(20_000, 2, 5, Distribution::Independent);
        let acc = net.run_all_origins(&cfg(FilterStrategy::Dynamic, BoundsMode::Exact, 2));
        assert!(acc.drr(true) > 0.0, "DRR {} should be positive", acc.drr(true));
    }
}
