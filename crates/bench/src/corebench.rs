//! Core micro-benchmarks feeding `BENCH_core.json`.
//!
//! Times spatial-grid against linear-scan neighbour discovery; the
//! [`HybridRelation`] build (the set-up cost every experiment pays once per
//! device); the data path of one query exchange — the Fig. 4 scan of a
//! relation and the originator's merge of two local skylines; the
//! event/radio path — a broadcast storm on a frozen lattice, at two payload
//! weights; and the storage ablation — one unbounded local skyline on flat
//! and hybrid storage, plus hybrid under the Fig. 4 strict test. Each
//! measurement returns its rows; `msq core --json` and `msq all --json`
//! write them as `BENCH_core.json`.

use datagen::{DataSpec, Distribution};
use device_storage::{
    DeviceRelation, FlatRelation, HybridRelation, LocalQuery, LocalSkylineOutcome,
};
use manet_sim::grid::SpatialGrid;
use manet_sim::{
    Application, MobilityConfig, MsgMeta, NodeCtx, Pos, RadioConfig, SimTime, Simulator,
};
use skyline_core::{DominanceTest, Point, QueryRegion, SkylineMerger};
use std::time::Instant;

use crate::provenance::{det, label, print_rows, vol, Grid, Row, Value};

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
fn neighbor_discovery() -> Vec<Row> {
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
            vec![
                label("kind", "neighbors"),
                label("nodes", n),
                label("queries", queries),
                det("neighbors", grid_neighbors),
                vol("grid_ms", Value::Fixed(grid_ms, 3)),
                vol("scan_ms", Value::Fixed(scan_ms, 3)),
            ]
        })
        .collect()
}

/// Runs timed per shape (builds, scans, merges); the fastest is reported,
/// so a millisecond-sized measurement survives a shared CI host.
const TIMED_REPS: usize = 5;

/// Times `HybridRelation::from(&[Tuple])` at d ∈ {2, 4, 5} on one device's
/// share of the paper-size MANET relation (6 000 tuples) and on the
/// local-scan relation size (20 000), MANET-experiment attributes
/// (1 000-value domains, two-byte IDs).
fn relation_build() -> Vec<Row> {
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
            out.push(vec![
                label("kind", "build"),
                label("dims", dims),
                label("tuples", tuples),
                det(
                    "domain_sizes",
                    Value::List(domain_sizes.into_iter().map(Value::from).collect()),
                ),
                det("sort_attr", rel.sort_attribute()),
                det("id_bytes", id_bytes),
                vol("build_ms", Value::Fixed(build_ms, 3)),
                vol("ns_per_tuple", Value::Fixed(build_ms * 1e6 / tuples as f64, 1)),
            ]);
        }
    }
    out
}

/// Runs `query` once untimed, then `TIMED_REPS` times, each on a fresh
/// clone of `rel`, so no scan whose region covers the relation's MBR (an
/// unbounded one included) is answered from a hybrid relation's window
/// memo. Returns the outcome and the fastest run's wall milliseconds.
pub(crate) fn cold_scan<R: DeviceRelation + Clone>(
    rel: &R,
    query: &LocalQuery,
) -> (LocalSkylineOutcome, f64) {
    let mut scan_ms = f64::INFINITY;
    let mut out = rel.local_skyline(query);
    for _ in 0..TIMED_REPS {
        let cold = rel.clone();
        let t0 = Instant::now();
        out = std::hint::black_box(cold.local_skyline(query));
        scan_ms = scan_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (out, scan_ms)
}

/// Data seeds of the two neighbours in [`data_path`].
const PAIR_SEEDS: [u64; 2] = [0x5CA4, 0x5CA5];

/// Times the data path of one exchange between two neighbours holding
/// `tuples` MANET-experiment tuples each, at d ∈ {2, 4, 5} × {IN, AC}: the
/// Fig. 4 scan (the protocol's strict test) of the first relation within
/// 500 m of the centre and unbounded, and the merge of both relations'
/// unbounded local skylines. Every scan runs on a fresh clone, so no
/// covered scan, the unbounded one included, is answered from the
/// relation's window memo.
/// Returns the scan rows and the merge rows.
fn data_path(tuples: usize) -> (Vec<Row>, Vec<Row>) {
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
                let (out, scan_ms) = cold_scan(&a, &query(shape));
                let probes = out.stats.id_comparisons;
                scans.push(vec![
                    label("kind", "scan"),
                    label("dims", dims),
                    label("dist", dist),
                    label("tuples", tuples),
                    label("region", region),
                    det("in_range", out.stats.in_range),
                    det("window_len", out.unreduced_len),
                    det("id_comparisons", probes),
                    vol("scan_ms", Value::Fixed(scan_ms, 3)),
                    vol("ns_per_probe", Value::Fixed(scan_ms * 1e6 / probes.max(1) as f64, 3)),
                ]);
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
            merges.push(vec![
                label("kind", "merge"),
                label("dims", dims),
                label("dist", dist),
                label("tuples", tuples),
                det("inserts", inserts),
                det("kept", merger.len()),
                det("dominated_removed", merger.dominated_removed),
                vol("merge_ms", Value::Fixed(merge_ms, 3)),
                vol("ns_per_insert", Value::Fixed(merge_ms * 1e6 / inserts.max(1) as f64, 1)),
            ]);
        }
    }
    (scans, merges)
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

fn storm_cell<const N: usize>(g: usize) -> Row {
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
    let deliveries = sim.copies_scheduled();
    vec![
        label("kind", "radio"),
        label("g", g),
        label("payload_bytes", std::mem::size_of::<[u64; N]>()),
        det("transmissions", sim.stats().frames_sent),
        det("deliveries", deliveries),
        det("wheel_events", sim.events_scheduled()),
        vol("storm_ms", Value::Fixed(storm_ms, 3)),
        vol("ns_per_delivery", Value::Fixed(storm_ms * 1e6 / deliveries.max(1) as f64, 1)),
    ]
}

/// Times a broadcast storm on frozen, lossless `g × g` lattices at the
/// paper's density (100 m pitch, 250 m range): every node originates one
/// flood and relays every other node's once, with a 16-byte and a 200-byte
/// payload type — the same events either way, so the gap between the two
/// rows is what a payload's weight costs the event core.
fn radio_storm(sides: &[usize]) -> Vec<Row> {
    sides.iter().flat_map(|&g| [storm_cell::<2>(g), storm_cell::<25>(g)]).collect()
}

/// Data seed of [`storage_ablation`]'s relations.
const ABLATION_SEED: u64 = 21;

/// Times one unbounded local skyline over `tuples` two-attribute
/// local-experiment tuples (100-value domains), IN and AC, on flat and
/// hybrid storage under the full test, and on hybrid storage under the
/// strict test too. Timed as [`data_path`]'s scans are.
fn storage_ablation(tuples: usize) -> Vec<Row> {
    let mut out = Vec::new();
    for (dist, distribution) in
        [("IN", Distribution::Independent), ("AC", Distribution::AntiCorrelated)]
    {
        let data = DataSpec::local_experiment(tuples, 2, distribution, ABLATION_SEED).generate();
        let hybrid = HybridRelation::from(data.as_slice());
        out.extend([
            storage_cell("flat", &FlatRelation::new(data), DominanceTest::Full, dist),
            storage_cell("hybrid", &hybrid, DominanceTest::Full, dist),
            storage_cell("hybrid", &hybrid, DominanceTest::PaperStrict, dist),
        ]);
    }
    out
}

/// One model's unbounded scan under `test`.
fn storage_cell<R: DeviceRelation + Clone>(
    model: &'static str,
    rel: &R,
    test: DominanceTest,
    dist: &'static str,
) -> Row {
    let query = LocalQuery { dominance: test, ..LocalQuery::plain(QueryRegion::unbounded()) };
    let (out, scan_ms) = cold_scan(rel, &query);
    vec![
        label("kind", "storage"),
        label("model", model),
        label(
            "test",
            match test {
                DominanceTest::Full => "full",
                DominanceTest::PaperStrict => "strict",
            },
        ),
        label("dist", dist),
        label("dims", rel.dim()),
        label("tuples", rel.len()),
        det("skyline_len", out.skyline.len()),
        det("value_comparisons", out.stats.value_comparisons),
        det("id_comparisons", out.stats.id_comparisons),
        det("storage_bytes", rel.storage_bytes()),
        vol("scan_ms", Value::Fixed(scan_ms, 3)),
    ]
}

/// Revision of this file's deterministic grid (the other baselines share
/// [`crate::provenance::GRID_REV`]): rev 3 added the `kind: build` rows,
/// rev 4 the `kind: scan` and `kind: merge` rows, rev 5 the `kind: radio`
/// rows, rev 6 the `kind: storage` rows, rev 7 dropped the `kind: kernel`
/// rows, rev 8 the domain and ring `kind: storage` rows and their
/// pointer-hop column.
const GRID_REV: u64 = 8;

/// Runs every micro-benchmark at the committed baseline's sizes and
/// prints one table per row family. Returns the `BENCH_core.json` grid:
/// one row per measurement, tagged with a `kind` and keyed by its shape.
/// Neighbour counts, the built relation's shape, the scan's and merge's
/// counters, the storm's frame and event counts and the storage models'
/// work counters and footprints are seed-determined; wall clock and the
/// per-unit costs derived from it are volatile.
pub fn run() -> Grid {
    let neighbors = neighbor_discovery();
    let builds = relation_build();
    let (scans, merges) = data_path(20_000);
    let families = [
        ("neighbour discovery", neighbors),
        ("hybrid relation build", builds),
        ("Fig. 4 scan (strict test)", scans),
        ("originator merge (own + reply skylines)", merges),
        ("broadcast storm (frozen lattice, relay-once floods)", radio_storm(&[10, 20])),
        ("storage ablation (flat vs hybrid, unbounded local skyline)", storage_ablation(10_000)),
    ];
    let mut rows = Vec::new();
    for (title, family) in families {
        print_rows(&format!("Core: {title}"), &family);
        rows.extend(family);
    }
    Grid { bench: "core", grid_rev: GRID_REV, header: Vec::new(), rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::{grid_objects, int};
    use skyline_core::{algo::bnl, Tuple};

    /// The string column `key` of `row`.
    fn text<'r>(row: &'r Row, key: &str) -> &'r str {
        match row.iter().find(|(k, ..)| *k == key) {
            Some((_, Value::Str(s), _)) => s,
            _ => panic!("no string column `{key}`"),
        }
    }

    /// The wall-clock column `key` of `row`.
    fn ms(row: &Row, key: &str) -> f64 {
        match row.iter().find(|(k, ..)| *k == key) {
            Some((_, Value::Fixed(x, _), _)) => *x,
            _ => panic!("no fixed-point column `{key}`"),
        }
    }

    #[test]
    fn build_rows_cover_the_grid_and_describe_the_relation() {
        let rows = relation_build();
        let shapes: Vec<(u64, u64)> =
            rows.iter().map(|r| (int(r, "dims"), int(r, "tuples"))).collect();
        assert_eq!(
            shapes,
            vec![(2, 6_000), (2, 20_000), (4, 6_000), (4, 20_000), (5, 6_000), (5, 20_000)]
        );
        for r in &rows {
            let Some((_, Value::List(sizes), _)) = r.iter().find(|(k, ..)| *k == "domain_sizes")
            else {
                panic!("no domain_sizes: {r:?}")
            };
            let sizes: Vec<u64> = sizes
                .iter()
                .map(|v| match v {
                    Value::Int(n) => *n,
                    v => panic!("domain size {v:?}"),
                })
                .collect();
            assert_eq!(sizes.len() as u64, int(r, "dims"));
            // 1 000-value domains: past byte IDs, within two-byte IDs.
            assert!(sizes.iter().all(|n| (257..=1000).contains(n)), "{r:?}");
            assert_eq!(int(r, "id_bytes"), 2 * int(r, "dims") * int(r, "tuples"));
            assert_eq!(sizes[int(r, "sort_attr") as usize], *sizes.iter().max().unwrap());
            assert!(ms(r, "build_ms").is_finite() && ms(r, "build_ms") > 0.0);
        }
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
        let shapes: Vec<(u64, &str)> =
            merges.iter().map(|r| (int(r, "dims"), text(r, "dist"))).collect();
        assert_eq!(shapes, vec![(2, "IN"), (2, "AC"), (4, "IN"), (4, "AC"), (5, "IN"), (5, "AC")]);
        let cells: Vec<(u64, &str, &str)> = scans
            .iter()
            .map(|r| (int(r, "dims"), text(r, "dist"), text(r, "region")))
            .collect();
        let expect: Vec<(u64, &str, &str)> = shapes
            .iter()
            .flat_map(|&(d, dist)| [(d, dist, "r500"), (d, dist, "unbounded")])
            .collect();
        assert_eq!(cells, expect);

        for (pair, merge) in scans.chunks(2).zip(&merges) {
            let distribution = match text(merge, "dist") {
                "IN" => Distribution::Independent,
                _ => Distribution::AntiCorrelated,
            };
            let dims = int(merge, "dims") as usize;
            let generate =
                |seed| DataSpec::manet_experiment(TUPLES, dims, distribution, seed).generate();
            let (a, b) = (generate(PAIR_SEEDS[0]), generate(PAIR_SEEDS[1]));
            let rel = HybridRelation::from(a.as_slice());
            for (scan, region) in pair
                .iter()
                .zip([QueryRegion::new(Point::new(500.0, 500.0), 500.0), QueryRegion::unbounded()])
            {
                let counted = ["in_range", "window_len", "id_comparisons"].map(|k| int(scan, k));
                let (in_range, window_len, probes) = reference_scan(&rel, &region);
                assert_eq!(counted, [in_range, window_len as u64, probes], "{scan:?}");
                assert!(int(scan, "in_range") <= TUPLES as u64 && ms(scan, "scan_ms") > 0.0);
            }
            assert_eq!(int(&pair[1], "in_range"), TUPLES as u64, "unbounded scans every row");

            // The nested-loop merge of the two strict-test skylines keeps
            // the skyline of their union; sites are unique, so nothing is
            // dropped as a duplicate.
            let union: Vec<Tuple> = a.into_iter().chain(b).collect();
            let kept = int(merge, "kept");
            assert_eq!(kept as usize, bnl::skyline_indices(&union).len(), "{merge:?}");
            assert_eq!(int(merge, "inserts"), kept + int(merge, "dominated_removed"));
            assert!(int(merge, "inserts") >= int(&pair[1], "window_len"));
            assert!(ms(merge, "merge_ms") > 0.0);
        }
    }

    #[test]
    fn storage_rows_cover_the_grid_and_order_the_models() {
        let rows = storage_ablation(2_000);
        let cells: Vec<(&str, &str, &str)> = rows
            .iter()
            .map(|r| (text(r, "dist"), text(r, "model"), text(r, "test")))
            .collect();
        let expect: Vec<(&str, &str, &str)> = ["IN", "AC"]
            .into_iter()
            .flat_map(|dist| {
                [(dist, "flat", "full"), (dist, "hybrid", "full"), (dist, "hybrid", "strict")]
            })
            .collect();
        assert_eq!(cells, expect);

        for per_dist in rows.chunks(3) {
            let [flat, hybrid, strict] = per_dist else { unreachable!() };
            let shape = |r: &Row| (int(r, "dims"), int(r, "tuples"));
            assert!(per_dist.iter().all(|r| shape(r) == (2, 2_000)), "{per_dist:?}");
            // Both models answer the full test exactly.
            assert_eq!(int(hybrid, "skyline_len"), int(flat, "skyline_len"), "{hybrid:?}");
            // Hybrid compares IDs, flat storage raw values.
            let counts = |r: &Row| (int(r, "value_comparisons"), int(r, "id_comparisons"));
            for r in [hybrid, strict] {
                assert!(counts(r).0 == 0 && counts(r).1 > 0, "{r:?}");
            }
            assert!(counts(flat).0 > 0 && counts(flat).1 == 0, "{flat:?}");
            // The strict test may keep tuples the full test drops.
            assert!(int(strict, "skyline_len") >= int(hybrid, "skyline_len"));
            assert!(per_dist.iter().all(|r| int(r, "storage_bytes") > 0 && ms(r, "scan_ms") > 0.0));
        }
    }

    /// A 4 × 4 lattice is one radio neighbourhood short of complete
    /// (corners 424 m apart): the counts are closed-form, and the payload
    /// type changes none of them.
    #[test]
    fn radio_rows_count_one_wheel_event_per_transmission() {
        let rows = radio_storm(&[4]);
        assert_eq!(rows.iter().map(|r| int(r, "payload_bytes")).collect::<Vec<_>>(), vec![16, 200]);
        let in_range = |a: usize, b: usize| {
            let (dx, dy) = ((a % 4).abs_diff(b % 4), (a / 4).abs_diff(b / 4));
            a != b && dx * dx + dy * dy <= 6 // 250 m on a 100 m pitch
        };
        let degree_sum =
            (0..16).map(|a| (0..16).filter(|&b| in_range(a, b)).count()).sum::<usize>();
        for r in &rows {
            assert_eq!((int(r, "g"), int(r, "transmissions")), (4, 256), "{r:?}");
            let deliveries = int(r, "deliveries");
            assert_eq!(deliveries, 16 * degree_sum as u64, "every node transmits 16 times");
            let wheel_events = int(r, "wheel_events");
            assert_eq!(wheel_events, 256 + 16, "one per transmission, one per origination timer");
            assert!(ms(r, "storm_ms") > 0.0 && ms(r, "ns_per_delivery") > 0.0);
        }
        assert!(grid_objects(&rows)[1].starts_with(
            "{\"kind\": \"radio\", \"g\": 4, \"payload_bytes\": 200, \"transmissions\": 256,"
        ));
    }

    #[test]
    fn neighbor_discovery_agrees_and_finds_neighbors_at_constant_density() {
        let rows = neighbor_discovery();
        let nodes: Vec<u64> = rows.iter().map(|r| int(r, "nodes")).collect();
        assert_eq!(nodes, vec![100, 1_000, 10_000]);
        for (r, n) in rows.iter().zip(nodes) {
            // The count-equality between grid and scan is asserted inside;
            // here check the density sanity: mean degree near π·250²/10⁴.
            let mean_degree = int(r, "neighbors") as f64 / n as f64;
            assert!(
                (5.0..40.0).contains(&mean_degree),
                "implausible mean degree {mean_degree} at n={n}"
            );
        }
    }
}
