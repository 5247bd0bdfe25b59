//! Core micro-benchmarks feeding `BENCH_core.json`.
//!
//! Times BNL over the legacy representation (`&[Tuple]`, one heap
//! `Vec<f64>` per tuple) against the contiguous [`TupleBlock`] scan with
//! dimension-specialized kernels, at d = 2..=5, and reports the dominance
//! test count per configuration; spatial-grid against linear-scan
//! neighbour discovery; the [`HybridRelation`] build (the set-up cost
//! every experiment pays once per device); the data path of one query
//! exchange — the Fig. 4 scan of a relation and the originator's merge of
//! two local skylines; and the event/radio path — a broadcast storm on a
//! frozen lattice, at two payload weights. `run_all --json` serializes the
//! records; the Criterion bench `dominance_block` covers the kernels
//! interactively.

use datagen::{DataSpec, Distribution};
use device_storage::{DeviceRelation, HybridRelation, LocalQuery};
use manet_sim::grid::SpatialGrid;
use manet_sim::{
    Application, MobilityConfig, MsgMeta, NodeCtx, Pos, RadioConfig, SimTime, Simulator,
};
use skyline_core::algo::bnl;
use skyline_core::dominance::dominates;
use skyline_core::{DominanceTest, Point, QueryRegion, SkylineMerger, Tuple, TupleBlock};
use std::fmt::Write as _;
use std::time::Instant;

use crate::provenance::Provenance;

/// One `(dims, representation)` comparison.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Attribute count.
    pub dims: usize,
    /// Relation cardinality.
    pub tuples: usize,
    /// BNL wall milliseconds over `&[Tuple]` (pointer-chasing).
    pub tuple_ms: f64,
    /// BNL wall milliseconds over the contiguous block (includes building
    /// the block from the tuples, so the comparison is end-to-end honest).
    pub block_ms: f64,
    /// Pairwise dominance tests the block scan performed.
    pub dominance_tests: u64,
    /// Skyline size (identical for both paths by construction).
    pub skyline_len: usize,
}

/// BNL exactly as the pre-block code ran it: every dominance test chases
/// `Tuple::attrs`. Kept here as the micro-benchmark baseline.
fn legacy_bnl(data: &[Tuple]) -> Vec<usize> {
    let mut window: Vec<usize> = Vec::new();
    for (i, t) in data.iter().enumerate() {
        let mut dominated = false;
        window.retain(|&w| {
            if dominated {
                return true;
            }
            if dominates(&data[w].attrs, &t.attrs) {
                dominated = true;
                true
            } else {
                !dominates(&t.attrs, &data[w].attrs)
            }
        });
        if !dominated {
            window.push(i);
        }
    }
    window.sort_unstable();
    window
}

/// Runs the comparison at d = 2..=5 on `tuples` independent-distribution
/// tuples per configuration.
pub fn run(tuples: usize) -> Vec<KernelRecord> {
    (2..=5)
        .map(|dims| {
            let data = DataSpec::local_experiment(tuples, dims, Distribution::Independent, 0xB10C)
                .generate();

            let t0 = Instant::now();
            let legacy = legacy_bnl(&data);
            let tuple_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            let block = TupleBlock::from_tuples(&data);
            let (sky, dominance_tests) = bnl::block_skyline_indices_counted(&block);
            let block_ms = t0.elapsed().as_secs_f64() * 1e3;

            assert_eq!(legacy, sky, "block and legacy BNL disagree at d={dims}");
            KernelRecord {
                dims,
                tuples,
                tuple_ms,
                block_ms,
                dominance_tests,
                skyline_len: sky.len(),
            }
        })
        .collect()
}

/// One network size of the neighbour-discovery comparison.
#[derive(Debug, Clone)]
pub struct NeighborRecord {
    /// Node count.
    pub nodes: usize,
    /// Neighbour queries issued against each structure.
    pub queries: usize,
    /// Wall milliseconds for the spatial-grid path (superset query plus
    /// exact Euclidean re-filter — the engine's actual sequence).
    pub grid_ms: f64,
    /// Wall milliseconds for the O(n)-per-query linear scan the engine
    /// used before the grid.
    pub scan_ms: f64,
    /// Total neighbours found (identical for both paths by construction).
    pub neighbors: u64,
}

/// Deterministic uniform scatter of `n` positions on a `side × side` area.
fn scatter(n: usize, side: f64, seed: u64) -> Vec<Pos> {
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Pos::new(next() * side, next() * side)).collect()
}

/// Times spatial-grid vs linear-scan neighbour discovery at n = 100, 1K,
/// and 10K nodes, at the paper's device density (1 per 100 × 100 m) and
/// radio range (250 m), so per-query degree stays constant while n grows.
pub fn neighbor_discovery() -> Vec<NeighborRecord> {
    const RANGE: f64 = 250.0;
    [100usize, 1_000, 10_000]
        .iter()
        .map(|&n| {
            let side = (n as f64).sqrt() * 100.0;
            let positions = scatter(n, side, 0x6E16);
            let mut grid = SpatialGrid::new(RANGE);
            for (i, &p) in positions.iter().enumerate() {
                grid.insert(i, p);
            }
            // Every node asks for its neighbours once — the engine's
            // access pattern during a broadcast round.
            let queries = n;
            let r2 = RANGE * RANGE;

            let t0 = Instant::now();
            let mut grid_neighbors = 0u64;
            let mut cand = Vec::new();
            for (i, &p) in positions.iter().enumerate() {
                grid.query_into(p, RANGE, &mut cand);
                grid_neighbors +=
                    cand.iter().filter(|&&j| j != i && positions[j].dist2(p) <= r2).count() as u64;
            }
            let grid_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            let mut scan_neighbors = 0u64;
            for (i, &p) in positions.iter().enumerate() {
                scan_neighbors += positions
                    .iter()
                    .enumerate()
                    .filter(|&(j, q)| j != i && q.dist2(p) <= r2)
                    .count() as u64;
            }
            let scan_ms = t0.elapsed().as_secs_f64() * 1e3;

            assert_eq!(grid_neighbors, scan_neighbors, "grid and scan disagree at n={n}");
            NeighborRecord { nodes: n, queries, grid_ms, scan_ms, neighbors: grid_neighbors }
        })
        .collect()
}

/// One relation shape of the storage-build benchmark.
#[derive(Debug, Clone)]
pub struct BuildRecord {
    /// Attribute count.
    pub dims: usize,
    /// Relation cardinality.
    pub tuples: usize,
    /// Distinct values per attribute.
    pub domain_sizes: Vec<usize>,
    /// Attribute the rows were sorted on.
    pub sort_attr: usize,
    /// Bytes of the packed ID columns.
    pub id_bytes: usize,
    /// Fastest of `TIMED_REPS` builds, wall milliseconds.
    pub build_ms: f64,
}

impl BuildRecord {
    /// Build cost per stored tuple, nanoseconds.
    pub fn ns_per_tuple(&self) -> f64 {
        self.build_ms * 1e6 / self.tuples as f64
    }
}

/// Runs timed per shape (builds, scans, merges); the fastest is reported,
/// so a millisecond-sized measurement survives a shared CI host.
const TIMED_REPS: usize = 5;

/// Times `HybridRelation::from(&[Tuple])` at d ∈ {2, 4, 5} on one device's
/// share of the paper-size MANET relation (6 000 tuples) and on the
/// local-scan relation size (20 000), MANET-experiment attributes
/// (1 000-value domains, two-byte IDs).
pub fn relation_build() -> Vec<BuildRecord> {
    let mut out = Vec::new();
    for dims in [2usize, 4, 5] {
        for tuples in [6_000usize, 20_000] {
            let data = DataSpec::manet_experiment(tuples, dims, Distribution::Independent, 0xB01D)
                .generate();
            let mut build_ms = f64::INFINITY;
            let mut rel = HybridRelation::from(data.as_slice()); // untimed warm-up
            for _ in 0..TIMED_REPS {
                let t0 = Instant::now();
                rel = std::hint::black_box(HybridRelation::from(std::hint::black_box(&data[..])));
                build_ms = build_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            let domain_sizes: Vec<usize> = (0..dims).map(|j| rel.domain(j).len()).collect();
            // storage_bytes = locations + packed IDs + domain values + MBR.
            let id_bytes = rel.storage_bytes()
                - 16 * rel.len()
                - 8 * domain_sizes.iter().sum::<usize>()
                - 4 * 8;
            out.push(BuildRecord {
                dims,
                tuples,
                domain_sizes,
                sort_attr: rel.sort_attribute(),
                id_bytes,
                build_ms,
            });
        }
    }
    out
}

/// One `(dims, distribution, region)` cell of the Fig. 4 scan benchmark.
#[derive(Debug, Clone)]
pub struct ScanRecord {
    /// Attribute count.
    pub dims: usize,
    /// `"IN"` (independent) or `"AC"` (anti-correlated).
    pub dist: &'static str,
    /// Relation cardinality.
    pub tuples: usize,
    /// `"r500"` or `"unbounded"`.
    pub region: &'static str,
    /// Rows inside the region.
    pub in_range: u64,
    /// Rows the scan kept (the unreduced local skyline).
    pub window_len: usize,
    /// Window probes the scan counted.
    pub id_comparisons: u64,
    /// Fastest of `TIMED_REPS` evaluations, wall milliseconds.
    pub scan_ms: f64,
}

impl ScanRecord {
    /// Scan cost per counted window probe, nanoseconds.
    pub fn ns_per_probe(&self) -> f64 {
        self.scan_ms * 1e6 / self.id_comparisons.max(1) as f64
    }
}

/// One `(dims, distribution)` cell of the originator-merge benchmark.
#[derive(Debug, Clone)]
pub struct MergeRecord {
    /// Attribute count.
    pub dims: usize,
    /// `"IN"` or `"AC"`.
    pub dist: &'static str,
    /// Cardinality of each of the two relations.
    pub tuples: usize,
    /// Tuples offered: the originator's own skyline plus the reply.
    pub inserts: usize,
    /// Members of the merged skyline.
    pub kept: usize,
    /// Offered tuples the merge rejected or evicted.
    pub dominated_removed: u64,
    /// Fastest of `TIMED_REPS` merges, wall milliseconds.
    pub merge_ms: f64,
}

impl MergeRecord {
    /// Merge cost per offered tuple, nanoseconds.
    pub fn ns_per_insert(&self) -> f64 {
        self.merge_ms * 1e6 / self.inserts.max(1) as f64
    }
}

/// Data seeds of the two neighbours in [`data_path`].
const PAIR_SEEDS: [u64; 2] = [0x5CA4, 0x5CA5];

/// Times the data path of one exchange between two neighbours holding
/// `tuples` MANET-experiment tuples each, at d ∈ {2, 4, 5} × {IN, AC}: the
/// Fig. 4 scan (the protocol's strict test) of the first relation within
/// 500 m of the centre and unbounded, and the merge of both relations'
/// unbounded local skylines. Every scan runs on a fresh clone, so the
/// unbounded one is never answered from the relation's window memo.
pub fn data_path(tuples: usize) -> (Vec<ScanRecord>, Vec<MergeRecord>) {
    let regions = [
        ("r500", QueryRegion::new(Point::new(500.0, 500.0), 500.0)),
        ("unbounded", QueryRegion::unbounded()),
    ];
    let query =
        |region| LocalQuery { dominance: DominanceTest::PaperStrict, ..LocalQuery::plain(region) };
    let (mut scans, mut merges) = (Vec::new(), Vec::new());
    for dims in [2usize, 4, 5] {
        for (dist, distribution) in
            [("IN", Distribution::Independent), ("AC", Distribution::AntiCorrelated)]
        {
            let relation = |seed| {
                let data = DataSpec::manet_experiment(tuples, dims, distribution, seed).generate();
                HybridRelation::from(data.as_slice())
            };
            let (a, b) = (relation(PAIR_SEEDS[0]), relation(PAIR_SEEDS[1]));
            for (region, shape) in regions {
                let mut scan_ms = f64::INFINITY;
                let mut out = a.local_skyline(&query(shape)); // untimed warm-up
                for _ in 0..TIMED_REPS {
                    let cold = a.clone();
                    let t0 = Instant::now();
                    out = std::hint::black_box(cold.local_skyline(&query(shape)));
                    scan_ms = scan_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                }
                scans.push(ScanRecord {
                    dims,
                    dist,
                    tuples,
                    region,
                    in_range: out.stats.in_range,
                    window_len: out.unreduced_len,
                    id_comparisons: out.stats.id_comparisons,
                    scan_ms,
                });
            }

            let own = a.local_skyline(&query(QueryRegion::unbounded())).skyline;
            let reply = b.local_skyline(&query(QueryRegion::unbounded())).skyline;
            let inserts = own.len() + reply.len();
            let mut merge_ms = f64::INFINITY;
            let mut merger = SkylineMerger::new();
            for _ in 0..TIMED_REPS {
                let (own, reply) = (own.clone(), reply.clone());
                let t0 = Instant::now();
                merger = SkylineMerger::with_seed(own);
                merger.insert_batch(reply);
                merge_ms = merge_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            merges.push(MergeRecord {
                dims,
                dist,
                tuples,
                inserts,
                kept: merger.len(),
                dominated_removed: merger.dominated_removed,
                merge_ms,
            });
        }
    }
    (scans, merges)
}

/// One `(g, payload)` cell of the broadcast-storm benchmark.
#[derive(Debug, Clone)]
pub struct RadioRecord {
    /// Lattice side: `g × g` nodes.
    pub g: usize,
    /// `size_of` the application payload type (and its wire size).
    pub payload_bytes: usize,
    /// Frames handed to the radio: every node relays every flood once.
    pub transmissions: u64,
    /// Frame copies delivered to a receiver.
    pub deliveries: u64,
    /// Events the timer wheel was asked to hold (origination timers
    /// included).
    pub wheel_events: u64,
    /// Fastest of `TIMED_REPS` storms, wall milliseconds.
    pub storm_ms: f64,
}

impl RadioRecord {
    /// Storm cost per delivered copy, nanoseconds.
    pub fn ns_per_delivery(&self) -> f64 {
        self.storm_ms * 1e6 / self.deliveries.max(1) as f64
    }
}

/// Relay-once flooding of an `N`-word payload whose first word names the
/// flood's origin: the paper's BF forward phase with the skyline work
/// taken out, so what remains is the engine.
struct Storm<const N: usize> {
    relayed: Vec<bool>,
}

impl<const N: usize> Application<[u64; N]> for Storm<N> {
    fn on_message(&mut self, ctx: &mut NodeCtx<[u64; N]>, _meta: MsgMeta, payload: [u64; N]) {
        if !std::mem::replace(&mut self.relayed[payload[0] as usize], true) {
            ctx.broadcast(payload, 8 * N);
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<[u64; N]>, _token: u64) {
        self.relayed[ctx.id] = true;
        ctx.broadcast([ctx.id as u64; N], 8 * N);
    }
}

fn storm_cell<const N: usize>(g: usize) -> RadioRecord {
    let n = g * g;
    let storm = || {
        let mut sim: Simulator<[u64; N], Storm<N>> = Simulator::new(RadioConfig::default(), 0x570);
        for i in 0..n {
            let p = Pos::new((i % g) as f64 * 100.0, (i / g) as f64 * 100.0);
            sim.add_node(p, MobilityConfig::frozen(), Storm { relayed: vec![false; n] }, 1);
            // One origination a millisecond: neighbouring floods overlap.
            sim.schedule_app_timer(i, SimTime(i as u64 * 1_000), 0);
        }
        let t0 = Instant::now();
        sim.run_to_completion();
        (t0.elapsed().as_secs_f64() * 1e3, sim)
    };
    let (mut storm_ms, sim) = storm();
    for _ in 1..TIMED_REPS {
        storm_ms = storm_ms.min(storm().0);
    }
    assert_eq!(sim.stats().frames_sent, (n * n) as u64, "every node relays every flood once");
    RadioRecord {
        g,
        payload_bytes: std::mem::size_of::<[u64; N]>(),
        transmissions: sim.stats().frames_sent,
        deliveries: sim.copies_scheduled(),
        wheel_events: sim.events_scheduled(),
        storm_ms,
    }
}

/// Times a broadcast storm on frozen, lossless `g × g` lattices at the
/// paper's density (100 m pitch, 250 m range): every node originates one
/// flood and relays every other node's once, with a 16-byte and a 200-byte
/// payload type — the same events either way, so the gap between the two
/// rows is what a payload's weight costs the event core.
pub fn radio_storm(sides: &[usize]) -> Vec<RadioRecord> {
    sides.iter().flat_map(|&g| [storm_cell::<2>(g), storm_cell::<25>(g)]).collect()
}

/// Revision of this file's deterministic grid (the other baselines share
/// [`crate::provenance::GRID_REV`]): rev 3 added the `kind: build` rows,
/// rev 4 the `kind: scan` and `kind: merge` rows, rev 5 the `kind: radio`
/// rows.
const GRID_REV: u64 = 5;

/// Renders the micro-benchmarks as the `BENCH_core.json` machine
/// baseline: provenance header, deterministic `grid` rows tagged with a
/// `kind` (dominance-test counts, skyline/neighbour sizes, the built
/// relation's shape, the scan's and merge's counters and the storm's
/// frame and event counts are seed-determined), then volatile wall-clock
/// `timings` rows keyed by the same coordinates.
pub fn to_json(
    prov: &Provenance,
    records: &[KernelRecord],
    neighbors: &[NeighborRecord],
    builds: &[BuildRecord],
    (scans, merges): (&[ScanRecord], &[MergeRecord]),
    radios: &[RadioRecord],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"core\",\n");
    out.push_str(&prov.header_at(GRID_REV));
    out.push_str("  \"algorithm\": \"bnl\",\n");
    let write_rows = |out: &mut String, rows: Vec<String>| {
        for (i, row) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {row}{sep}");
        }
    };
    out.push_str("  \"grid\": [\n");
    let mut rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"kind\": \"kernel\", \"dims\": {}, \"tuples\": {}, \
                 \"dominance_tests\": {}, \"skyline_len\": {}}}",
                r.dims, r.tuples, r.dominance_tests, r.skyline_len,
            )
        })
        .collect();
    rows.extend(neighbors.iter().map(|r| {
        format!(
            "{{\"kind\": \"neighbors\", \"nodes\": {}, \"queries\": {}, \"neighbors\": {}}}",
            r.nodes, r.queries, r.neighbors,
        )
    }));
    rows.extend(builds.iter().map(|r| {
        format!(
            "{{\"kind\": \"build\", \"dims\": {}, \"tuples\": {}, \"domain_sizes\": {:?}, \
             \"sort_attr\": {}, \"id_bytes\": {}}}",
            r.dims, r.tuples, r.domain_sizes, r.sort_attr, r.id_bytes,
        )
    }));
    rows.extend(scans.iter().map(|r| {
        format!(
            "{{\"kind\": \"scan\", \"dims\": {}, \"dist\": \"{}\", \"tuples\": {}, \
             \"region\": \"{}\", \"in_range\": {}, \"window_len\": {}, \
             \"id_comparisons\": {}}}",
            r.dims, r.dist, r.tuples, r.region, r.in_range, r.window_len, r.id_comparisons,
        )
    }));
    rows.extend(merges.iter().map(|r| {
        format!(
            "{{\"kind\": \"merge\", \"dims\": {}, \"dist\": \"{}\", \"tuples\": {}, \
             \"inserts\": {}, \"kept\": {}, \"dominated_removed\": {}}}",
            r.dims, r.dist, r.tuples, r.inserts, r.kept, r.dominated_removed,
        )
    }));
    rows.extend(radios.iter().map(|r| {
        format!(
            "{{\"kind\": \"radio\", \"g\": {}, \"payload_bytes\": {}, \"transmissions\": {}, \
             \"deliveries\": {}, \"wheel_events\": {}}}",
            r.g, r.payload_bytes, r.transmissions, r.deliveries, r.wheel_events,
        )
    }));
    write_rows(&mut out, rows);
    out.push_str("  ],\n");
    out.push_str("  \"timings\": [\n");
    let mut rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"kind\": \"kernel\", \"dims\": {}, \"tuples\": {}, \
                 \"tuple_ms\": {:.3}, \"block_ms\": {:.3}}}",
                r.dims, r.tuples, r.tuple_ms, r.block_ms,
            )
        })
        .collect();
    rows.extend(neighbors.iter().map(|r| {
        format!(
            "{{\"kind\": \"neighbors\", \"nodes\": {}, \"queries\": {}, \
             \"grid_ms\": {:.3}, \"scan_ms\": {:.3}}}",
            r.nodes, r.queries, r.grid_ms, r.scan_ms,
        )
    }));
    rows.extend(builds.iter().map(|r| {
        format!(
            "{{\"kind\": \"build\", \"dims\": {}, \"tuples\": {}, \
             \"build_ms\": {:.3}, \"ns_per_tuple\": {:.1}}}",
            r.dims,
            r.tuples,
            r.build_ms,
            r.ns_per_tuple(),
        )
    }));
    rows.extend(scans.iter().map(|r| {
        format!(
            "{{\"kind\": \"scan\", \"dims\": {}, \"dist\": \"{}\", \"tuples\": {}, \
             \"region\": \"{}\", \"scan_ms\": {:.3}, \"ns_per_probe\": {:.3}}}",
            r.dims,
            r.dist,
            r.tuples,
            r.region,
            r.scan_ms,
            r.ns_per_probe(),
        )
    }));
    rows.extend(merges.iter().map(|r| {
        format!(
            "{{\"kind\": \"merge\", \"dims\": {}, \"dist\": \"{}\", \"tuples\": {}, \
             \"merge_ms\": {:.3}, \"ns_per_insert\": {:.1}}}",
            r.dims,
            r.dist,
            r.tuples,
            r.merge_ms,
            r.ns_per_insert(),
        )
    }));
    rows.extend(radios.iter().map(|r| {
        format!(
            "{{\"kind\": \"radio\", \"g\": {}, \"payload_bytes\": {}, \
             \"storm_ms\": {:.3}, \"ns_per_delivery\": {:.1}}}",
            r.g,
            r.payload_bytes,
            r.storm_ms,
            r.ns_per_delivery(),
        )
    }));
    write_rows(&mut out, rows);
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_cover_d2_to_d5_and_paths_agree() {
        let recs = run(2_000);
        assert_eq!(recs.iter().map(|r| r.dims).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        for r in &recs {
            assert!(r.skyline_len > 0);
            assert!(r.dominance_tests > 0);
            assert!(r.tuple_ms >= 0.0 && r.block_ms >= 0.0);
        }
    }

    #[test]
    fn build_rows_cover_the_grid_and_describe_the_relation() {
        let recs = relation_build();
        let shapes: Vec<(usize, usize)> = recs.iter().map(|r| (r.dims, r.tuples)).collect();
        assert_eq!(
            shapes,
            vec![(2, 6_000), (2, 20_000), (4, 6_000), (4, 20_000), (5, 6_000), (5, 20_000)]
        );
        for r in &recs {
            assert_eq!(r.domain_sizes.len(), r.dims);
            // 1 000-value domains: past byte IDs, within two-byte IDs.
            assert!(r.domain_sizes.iter().all(|&n| (257..=1000).contains(&n)), "{r:?}");
            assert_eq!(r.id_bytes, 2 * r.dims * r.tuples);
            assert_eq!(r.domain_sizes[r.sort_attr], *r.domain_sizes.iter().max().unwrap());
            assert!(r.build_ms.is_finite() && r.build_ms > 0.0);
        }
        let prov = Provenance::collect(crate::Scale::Quick, 1);
        let json = to_json(&prov, &[], &[], &recs, (&[], &[]), &[]);
        let doc = sim_obs::JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("grid").and_then(sim_obs::JsonValue::as_array).unwrap().len(), 6);
        assert!(json.contains("\"grid_rev\": 5,"));
    }

    /// The Fig. 4 loop written out over public accessors: row IDs in
    /// storage order, strict `<` on every attribute but the sorted one.
    fn reference_scan(rel: &HybridRelation, region: &QueryRegion) -> (u64, usize, u64) {
        let ids: Vec<Vec<u32>> = (0..rel.len()).map(|r| rel.row_ids(r)).collect();
        let sort_attr = rel.sort_attribute();
        let strictly_less =
            |w: usize, t: usize| (0..rel.dim()).all(|j| j == sort_attr || ids[w][j] < ids[t][j]);
        let (mut in_range, mut id_comparisons) = (0u64, 0u64);
        let mut window: Vec<usize> = Vec::new();
        for t in (0..rel.len()).filter(|&t| region.contains(rel.location(t))) {
            in_range += 1;
            let dominator = window.iter().position(|&w| strictly_less(w, t));
            id_comparisons += dominator.map_or(window.len(), |at| at + 1) as u64;
            if dominator.is_none() {
                window.push(t);
            }
        }
        (in_range, window.len(), id_comparisons)
    }

    #[test]
    fn scan_and_merge_rows_cover_the_grid_and_match_the_reference_loops() {
        const TUPLES: usize = 2_500;
        let (scans, merges) = data_path(TUPLES);
        let shapes: Vec<(usize, &str)> = merges.iter().map(|r| (r.dims, r.dist)).collect();
        assert_eq!(shapes, vec![(2, "IN"), (2, "AC"), (4, "IN"), (4, "AC"), (5, "IN"), (5, "AC")]);
        let cells: Vec<(usize, &str, &str)> =
            scans.iter().map(|r| (r.dims, r.dist, r.region)).collect();
        let expect: Vec<(usize, &str, &str)> = shapes
            .iter()
            .flat_map(|&(d, dist)| [(d, dist, "r500"), (d, dist, "unbounded")])
            .collect();
        assert_eq!(cells, expect);

        for (pair, merge) in scans.chunks(2).zip(&merges) {
            let distribution = match merge.dist {
                "IN" => Distribution::Independent,
                _ => Distribution::AntiCorrelated,
            };
            let generate = |seed| {
                DataSpec::manet_experiment(TUPLES, merge.dims, distribution, seed).generate()
            };
            let (a, b) = (generate(PAIR_SEEDS[0]), generate(PAIR_SEEDS[1]));
            let rel = HybridRelation::from(a.as_slice());
            for (scan, region) in pair
                .iter()
                .zip([QueryRegion::new(Point::new(500.0, 500.0), 500.0), QueryRegion::unbounded()])
            {
                assert_eq!(
                    (scan.in_range, scan.window_len, scan.id_comparisons),
                    reference_scan(&rel, &region),
                    "{scan:?}"
                );
                assert!(scan.in_range <= TUPLES as u64 && scan.scan_ms > 0.0);
            }
            assert_eq!(pair[1].in_range, TUPLES as u64, "unbounded scans every row");

            // The nested-loop merge of the two strict-test skylines keeps
            // the skyline of their union; sites are unique, so nothing is
            // dropped as a duplicate.
            let union: Vec<Tuple> = a.into_iter().chain(b).collect();
            assert_eq!(merge.kept, legacy_bnl(&union).len(), "{merge:?}");
            assert_eq!(merge.inserts as u64, merge.kept as u64 + merge.dominated_removed);
            assert!(merge.inserts >= pair[1].window_len && merge.merge_ms > 0.0);
        }

        let prov = Provenance::collect(crate::Scale::Quick, 1);
        let json = to_json(&prov, &[], &[], &[], (&scans, &merges), &[]);
        let doc = sim_obs::JsonValue::parse(&json).expect("valid JSON");
        for section in ["grid", "timings"] {
            assert_eq!(doc.get(section).and_then(sim_obs::JsonValue::as_array).unwrap().len(), 18);
        }
    }

    /// A 4 × 4 lattice is one radio neighbourhood short of complete
    /// (corners 424 m apart): the counts are closed-form, and the payload
    /// type changes none of them.
    #[test]
    fn radio_rows_count_one_wheel_event_per_transmission() {
        let recs = radio_storm(&[4]);
        assert_eq!(recs.iter().map(|r| r.payload_bytes).collect::<Vec<_>>(), vec![16, 200]);
        let in_range = |a: usize, b: usize| {
            let (dx, dy) = ((a % 4).abs_diff(b % 4), (a / 4).abs_diff(b / 4));
            a != b && dx * dx + dy * dy <= 6 // 250 m on a 100 m pitch
        };
        let degree_sum =
            (0..16).map(|a| (0..16).filter(|&b| in_range(a, b)).count()).sum::<usize>();
        for r in &recs {
            assert_eq!((r.g, r.transmissions), (4, 256), "{r:?}");
            assert_eq!(r.deliveries, 16 * degree_sum as u64, "every node transmits 16 times");
            assert_eq!(r.wheel_events, 256 + 16, "one per transmission, one per origination timer");
            assert!(r.storm_ms > 0.0 && r.ns_per_delivery() > 0.0);
        }
        let prov = Provenance::collect(crate::Scale::Quick, 1);
        let json = to_json(&prov, &[], &[], &[], (&[], &[]), &recs);
        let doc = sim_obs::JsonValue::parse(&json).expect("valid JSON");
        for section in ["grid", "timings"] {
            assert_eq!(doc.get(section).and_then(sim_obs::JsonValue::as_array).unwrap().len(), 2);
        }
        assert!(json.contains(
            "\"kind\": \"radio\", \"g\": 4, \"payload_bytes\": 200, \"transmissions\": 256,"
        ));
    }

    #[test]
    fn neighbor_discovery_agrees_and_finds_neighbors_at_constant_density() {
        let recs = neighbor_discovery();
        assert_eq!(recs.iter().map(|r| r.nodes).collect::<Vec<_>>(), vec![100, 1_000, 10_000]);
        for r in &recs {
            // The count-equality between grid and scan is asserted inside;
            // here check the density sanity: mean degree near π·250²/10⁴.
            let mean_degree = r.neighbors as f64 / r.nodes as f64;
            assert!(
                (5.0..40.0).contains(&mean_degree),
                "implausible mean degree {mean_degree} at n={}",
                r.nodes
            );
        }
    }
}
