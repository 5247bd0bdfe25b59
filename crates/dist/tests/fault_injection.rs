//! Fault injection: lossy radios, sparse/disconnected topologies, empty
//! partitions, and degenerate network sizes. The protocol must degrade
//! gracefully (fewer responses, timeouts) but never panic, never produce
//! wrong tuples, and never double-count.

use device_storage::HybridRelation;
use dist_skyline::config::{FilterStrategy, Forwarding, StrategyConfig};
use dist_skyline::cost_model::DeviceCostModel;
use dist_skyline::runtime::{run_experiment, ManetExperiment};
use dist_skyline::static_net::StaticGridNetwork;
use skyline_core::region::Point;
use skyline_core::vdr::BoundsMode;
use skyline_core::Tuple;

fn base(fwd: Forwarding) -> ManetExperiment {
    let mut exp = ManetExperiment::paper_defaults(
        3,
        2_000,
        2,
        datagen::Distribution::Independent,
        f64::INFINITY,
        99,
    );
    exp.forwarding = fwd;
    exp.frozen = true;
    exp.radio.range_m = 400.0;
    exp.sim_seconds = 600.0;
    exp.queries_per_device = (1, 1);
    exp.cost = DeviceCostModel::free();
    exp
}

#[test]
fn lossy_radio_degrades_gracefully() {
    for fwd in [Forwarding::BreadthFirst, Forwarding::DepthFirst] {
        for loss in [0.05, 0.3] {
            let mut exp = base(fwd);
            exp.radio.loss_probability = loss;
            let out = run_experiment(&exp);
            assert!(!out.records.is_empty(), "{fwd:?} loss {loss}");
            // Answers may be partial but the metrics must stay sane.
            assert!(out.drr <= 1.0);
            assert!(out.net.frames_lost > 0, "loss must actually occur");
            for r in &out.records {
                assert!(r.responded <= 8);
            }
        }
    }
}

#[test]
fn fully_lossy_radio_times_out_everything() {
    let mut exp = base(Forwarding::BreadthFirst);
    exp.radio.loss_probability = 1.0;
    let out = run_experiment(&exp);
    assert!(!out.records.is_empty());
    for r in &out.records {
        assert!(r.timed_out, "no frame can arrive, so every query times out");
        assert_eq!(r.responded, 0);
        // The originator still has its own local answer.
    }
    assert!(out.mean_response_seconds.is_none());
}

#[test]
fn disconnected_topology_still_answers_locally() {
    // Radio so short nobody hears anybody.
    let mut exp = base(Forwarding::DepthFirst);
    exp.radio.range_m = 10.0;
    let out = run_experiment(&exp);
    for r in &out.records {
        // A DF originator with no neighbours completes instantly with its
        // own local skyline.
        assert!(!r.timed_out, "no-neighbour DF queries complete immediately");
        assert_eq!(r.responded, 0);
        assert!(r.result_len > 0, "own partition still contributes");
    }
}

#[test]
fn empty_partitions_are_harmless() {
    // 2×2 static grid where two devices hold nothing.
    let rels = vec![
        HybridRelation::new(datagen::hotels::r1()),
        HybridRelation::new(Vec::new()),
        HybridRelation::new(Vec::new()),
        HybridRelation::new(datagen::hotels::r2()),
    ];
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(0.0, 1.0),
        Point::new(1.0, 1.0),
    ];
    let net = StaticGridNetwork::new(rels, positions, 2);
    let cfg = StrategyConfig {
        bounds_mode: BoundsMode::Under, // empty devices have no UNE bounds
        exact_bounds: datagen::hotels::global_bounds(),
        ..StrategyConfig::default()
    };
    for origin in 0..4 {
        let out = net.run_query(origin, f64::INFINITY, &cfg);
        let truth = net.ground_truth(origin, f64::INFINITY);
        assert_eq!(out.result.len(), truth.len(), "origin {origin}");
    }
}

#[test]
fn single_device_network() {
    let net = StaticGridNetwork::new(
        vec![HybridRelation::new(datagen::hotels::r1())],
        vec![Point::new(0.0, 0.0)],
        1,
    );
    let cfg = StrategyConfig {
        bounds_mode: BoundsMode::Exact,
        exact_bounds: datagen::hotels::global_bounds(),
        ..StrategyConfig::default()
    };
    let out = net.run_query(0, f64::INFINITY, &cfg);
    assert_eq!(out.result.len(), 4, "m = 1 degenerates to a local skyline");
    assert_eq!(out.metrics.forward_messages, 0);
}

#[test]
fn one_dimensional_attributes_work_end_to_end() {
    let data: Vec<Tuple> = (0..200)
        .map(|i| Tuple::new((i * 5 % 1000) as f64, (i * 7 % 1000) as f64, vec![(i % 37) as f64]))
        .collect();
    let net =
        dist_skyline::static_net::grid_network_from_global(&data, 2, datagen::SpatialExtent::PAPER);
    let cfg = StrategyConfig {
        bounds_mode: BoundsMode::Exact,
        exact_bounds: vec![37.0],
        ..StrategyConfig::default()
    };
    let out = net.run_query(0, f64::INFINITY, &cfg);
    let truth = net.ground_truth(0, f64::INFINITY);
    assert_eq!(out.result.len(), truth.len());
    // 1-D skyline = all sites sharing the global minimum value.
    let min = data.iter().map(|t| t.attrs[0]).fold(f64::INFINITY, f64::min);
    assert!(out.result.iter().all(|t| t.attrs[0] == min));
}

#[test]
fn beacon_neighbor_mode_still_answers_queries() {
    use manet_sim::{NeighborMode, SimDuration};
    for fwd in [Forwarding::BreadthFirst, Forwarding::DepthFirst] {
        let mut exp = base(fwd);
        exp.neighbor_mode = NeighborMode::Beacon {
            period: SimDuration::from_secs_f64(1.0),
            expiry: SimDuration::from_secs_f64(3.0),
        };
        let out = run_experiment(&exp);
        assert!(!out.records.is_empty(), "{fwd:?}");
        assert!(out.net.hello_frames > 0, "beacons must actually flow");
        let answered = out.records.iter().filter(|r| !r.timed_out).count();
        assert!(answered > 0, "{fwd:?}: no query completed over beacon-discovered neighbours");
    }
}

#[test]
fn energy_accounting_tracks_traffic() {
    let mut light = base(Forwarding::DepthFirst);
    light.queries_per_device = (1, 1);
    let mut heavy = base(Forwarding::BreadthFirst);
    heavy.queries_per_device = (1, 1);
    // The storm baseline: every BF replier pays a full AODV discovery
    // flood for its unicast reply.
    heavy.dist.prime_routes = false;
    let l = run_experiment(&light);
    let h = run_experiment(&heavy);
    assert!(l.total_energy_joules > 0.0);
    assert!(h.total_energy_joules > 0.0);
    // Flooding + per-replier rediscovery moves more frames → more radio
    // energy than DF's single token walk.
    assert!(
        h.total_energy_joules > l.total_energy_joules,
        "BF {} J vs DF {} J",
        h.total_energy_joules,
        l.total_energy_joules
    );
    // Reply-path reuse must claw that storm back: same BF workload with
    // primed reverse routes spends strictly less energy and strictly
    // fewer AODV control frames.
    let mut primed = base(Forwarding::BreadthFirst);
    primed.queries_per_device = (1, 1);
    let p = run_experiment(&primed);
    assert!(
        p.total_energy_joules < h.total_energy_joules,
        "primed BF {} J must undercut the rediscovery storm {} J",
        p.total_energy_joules,
        h.total_energy_joules
    );
    assert!(
        p.net.aodv_frames < h.net.aodv_frames,
        "primed BF sent {} AODV frames vs {} unprimed",
        p.net.aodv_frames,
        h.net.aodv_frames
    );
}

#[test]
fn multi_filter_strategy_survives_lossy_manet() {
    let mut exp = base(Forwarding::BreadthFirst);
    exp.strategy = StrategyConfig {
        filter: FilterStrategy::MultiDynamic { k: 3 },
        bounds_mode: BoundsMode::Exact,
        exact_bounds: vec![1000.0, 1000.0],
        ..StrategyConfig::default()
    };
    exp.radio.loss_probability = 0.1;
    let out = run_experiment(&exp);
    assert!(!out.records.is_empty());
    assert!(out.drr <= 1.0);
}
