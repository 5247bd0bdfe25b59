//! Continuous-monitoring acceptance tests: per-epoch exactness on a frozen
//! grid, the delta protocol's message advantage over naive re-query, lease
//! expiry when the originator dies, injected-drift detection, a clean
//! zero-drift verification under mobility, churn, and loss, and every
//! device's per-tick answer against the centralized constrained skyline.

use dist_skyline::monitor::{
    monitor_network, run_monitor_experiment, verify_monitor_drift, MonitorExperiment, MonitorMode,
};
use manet_sim::{
    ChurnConfig, FaultPlan, QueryEvent, QueryId, QueryTraceRecord, SimDuration, SimTime,
};
use skyline_core::region::{Point, QueryRegion};
use skyline_core::{constrained, Tuple, TupleId};

/// Frozen 5×5 grid (200 m spacing on the paper extent, inside the default
/// 250 m radio range, so the flood and every delta path are deterministic).
fn frozen_exp(mode: MonitorMode, seed: u64) -> MonitorExperiment {
    let mut exp = MonitorExperiment::defaults(5, mode, seed);
    exp.frozen = true;
    exp.radius = 450.0;
    exp.duration_s = 600.0;
    exp
}

#[test]
fn frozen_grid_views_are_exact_and_deltas_beat_requery() {
    let cont = run_monitor_experiment(&frozen_exp(MonitorMode::Continuous, 0xC0FF));
    let req = run_monitor_experiment(&frozen_exp(MonitorMode::Requery, 0xC0FF));

    // The fold never removed a tuple it did not hold.
    assert_eq!(cont.fold_remove_misses, 0);
    assert_eq!(req.fold_remove_misses, 0);

    // Settled views are exact. Epoch 1 may miss remote contributions (the
    // view snapshots before the epoch's deltas arrive); from epoch 2 on a
    // frozen world must be fully covered with nothing spurious.
    assert!(cont.views.len() >= 10, "expected many epochs, got {}", cont.views.len());
    for v in cont.views.iter().filter(|v| v.epoch >= 2) {
        assert_eq!(v.completeness, Some(1.0), "epoch {} incomplete: {v:?}", v.epoch);
        assert_eq!(v.spurious, 0, "epoch {} spurious: {v:?}", v.epoch);
    }
    for v in req.views.iter().filter(|v| v.epoch >= 2) {
        assert_eq!(v.completeness, Some(1.0), "requery epoch {} incomplete: {v:?}", v.epoch);
        assert_eq!(v.spurious, 0, "requery epoch {} spurious: {v:?}", v.epoch);
    }

    // Both runs reconcile trace against counters exactly.
    verify_monitor_drift(&cont).expect("continuous run drifted");
    verify_monitor_drift(&req).expect("requery run drifted");

    // The point of the protocol: on a quiescent (frozen) world the delta
    // protocol goes silent between heartbeats, while re-query refloods and
    // re-ships every local skyline every epoch.
    assert!(
        cont.messages_sent < req.messages_sent,
        "continuous sent {} messages, requery {} — deltas must be strictly cheaper",
        cont.messages_sent,
        req.messages_sent
    );
    assert!(
        cont.bytes_sent < req.bytes_sent,
        "continuous sent {} bytes, requery {}",
        cont.bytes_sent,
        req.bytes_sent
    );
    // And it still sends heartbeats, so silence is provably liveness.
    assert!(cont.heartbeats_sent > 0, "frozen run should heartbeat");

    // The record closed by cancellation, with the monitoring columns set.
    assert!(!cont.record.timed_out);
    assert!(cont.record.completed.is_some());
    assert_eq!(cont.record.epochs, cont.views.len() as u64);
    assert!(cont.record.epoch_completeness.unwrap() > 0.9);
}

#[test]
fn leases_expire_after_originator_crash() {
    let mut exp = frozen_exp(MonitorMode::Continuous, 0xDEAD);
    // Kill the originator mid-run, permanently: renewals stop, so every
    // device's lease must run out and silence the delta traffic.
    let crash_at = SimTime::from_secs_f64(300.0);
    exp.fault_plan = Some(FaultPlan::new().crash_at(0, crash_at));
    let out = run_monitor_experiment(&exp);

    assert!(out.lease_expired > 0, "no lease ever expired");
    assert!(out.record.timed_out, "originator crash must close the record as timed out");

    let log = out.query_trace.as_ref().expect("trace enabled");
    // Every device that held a lease when the originator died saw it
    // expire, and sent nothing afterwards.
    let mut expired_at: std::collections::BTreeMap<usize, SimTime> =
        std::collections::BTreeMap::new();
    for r in &log.records {
        if let QueryEvent::LeaseExpired { .. } = r.event {
            expired_at.insert(r.node, r.at);
        }
    }
    assert_eq!(
        expired_at.len() as u64,
        out.lease_expired,
        "one expiry per device, traced exactly once"
    );
    assert!(expired_at.len() >= 20, "most of the 24 devices should expire");
    for r in &log.records {
        if let QueryEvent::DeltaSent { .. } = r.event {
            if let Some(&exp_at) = expired_at.get(&r.node) {
                assert!(
                    r.at < exp_at,
                    "node {} sent a delta at {:?}, after its lease expired at {:?}",
                    r.node,
                    r.at,
                    exp_at
                );
            }
        }
    }
    // The expiries land within one lease TTL (+ a tick) of the last
    // renewal the dead originator managed to flood.
    let (ttl_s, last_renewal_s) = (240.0, 270.0); // start 30 s + renewals every TTL/2 = 120 s
    let bound = SimTime::from_secs_f64(last_renewal_s + ttl_s + 35.0);
    for (&node, &at) in &expired_at {
        assert!(at < bound, "node {node} expired only at {at:?}");
    }

    // Even this pathological run reconciles exactly.
    verify_monitor_drift(&out).expect("crash run drifted");
}

#[test]
fn injected_drift_is_caught() {
    let mut out = run_monitor_experiment(&frozen_exp(MonitorMode::Continuous, 0x0D1F));
    verify_monitor_drift(&out).expect("clean run must verify");

    // Counter drift: the runtime claims one more applied delta than the
    // trace shows.
    out.deltas_applied += 1;
    let err = verify_monitor_drift(&out).expect_err("counter drift must be caught");
    assert!(err.contains("delta_applied"), "{err}");

    // Trace drift: a forged DeltaApplied balances the counter but names a
    // (device, epoch) that never sent — reconciliation must object.
    let log = out.query_trace.as_mut().unwrap();
    let seq = log.records.last().map_or(0, |r| r.seq + 1);
    log.records.push(QueryTraceRecord {
        seq,
        at: SimTime::from_secs_f64(999.0),
        node: 0,
        query: Some(QueryId { origin: 0, cnt: 0 }),
        event: QueryEvent::DeltaApplied {
            from: 7,
            epoch: 9_999,
            adds: 1,
            removes: 0,
            heartbeat: false,
        },
    });
    let err = verify_monitor_drift(&out).expect_err("forged application must be caught");
    assert!(err.contains("never sent"), "{err}");

    // A lossy ring voids the guarantee loudly instead of passing silently.
    out.query_trace.as_mut().unwrap().dropped = 3;
    let err = verify_monitor_drift(&out).expect_err("dropped records must void the check");
    assert!(err.contains("dropped"), "{err}");
    assert!(err.contains("TraceConfig::per_node_capacity"), "{err}");

    // No trace at all is refused too, rather than vacuously passing.
    out.query_trace = None;
    let err = verify_monitor_drift(&out).expect_err("an uncollected trace must not verify");
    assert!(err.contains("TraceConfig::enabled"), "{err}");
}

#[test]
fn mobile_churn_loss_run_verifies_clean() {
    let mut exp = MonitorExperiment::defaults(4, MonitorMode::Continuous, 0xABBA);
    exp.radio.range_m = 400.0;
    exp.radio.loss_probability = 0.10;
    exp.radius = 500.0;
    exp.duration_s = 600.0;
    exp.fault_plan = Some(FaultPlan::random_churn(&ChurnConfig {
        nodes: 16,
        churn_fraction: 0.25,
        earliest: SimTime::from_secs_f64(60.0),
        latest: SimTime::from_secs_f64(500.0),
        min_downtime: SimDuration::from_secs_f64(60.0),
        max_downtime: SimDuration::from_secs_f64(150.0),
        protect: vec![0], // the monitor outlives its devices, not vice versa
        seed: 0x0BAD,
    }));
    let out = run_monitor_experiment(&exp);

    // Chaos may cost coverage, never consistency: the fold's bucket
    // algebra held, and the books balance to the last event.
    assert_eq!(out.fold_remove_misses, 0);
    assert!(out.net.node_crashes > 0, "churn plan should crash someone");
    verify_monitor_drift(&out).expect("chaotic run drifted");

    // The protocol exercised its recovery machinery.
    assert!(out.deltas_applied > 0);
    assert!(out.record.epochs > 0);
    let mean = out.record.epoch_completeness.expect("scored");
    assert!(mean > 0.5, "mean epoch completeness collapsed: {mean}");
}

#[test]
fn every_recorded_tick_is_the_constrained_skyline_at_its_epoch() {
    // A mobile run in which one device is down for two minutes. At each
    // epoch tick a device records its answer over its own sites; that
    // record must equal the centralized constrained skyline of those sites
    // placed where the device stood at the epoch instant — before, across
    // and after the outage.
    let secs = SimTime::from_secs_f64;
    let (crashed, down, up) = (5, secs(200.0), secs(320.0));
    let mut exp = MonitorExperiment::defaults(4, MonitorMode::Continuous, 0x7E57);
    exp.sites_per_device = 20;
    exp.radius = 500.0;
    exp.radio.range_m = 400.0;
    exp.duration_s = 600.0;
    exp.fault_plan = Some(FaultPlan::new().crash_at(crashed, down).revive_at(crashed, up));
    let m = exp.g * exp.g;
    let t0 = secs(exp.start_s);
    let epoch_at = |e: u64| t0 + SimDuration(exp.mon.period.0 * e);
    let epochs = (exp.duration_s / exp.mon.period.as_secs_f64()) as u64;

    // Step the run one epoch instant at a time and note where every device
    // is (the clock never runs back, so each position is read at the
    // current time).
    let mut sim = monitor_network(&exp);
    let mut positions = vec![Vec::new(); m];
    for e in 0..=epochs {
        sim.run_until(epoch_at(e));
        for (node, at) in positions.iter_mut().enumerate() {
            at.push(sim.position_at(node, epoch_at(e)));
        }
    }
    // The originator registers the circle around where it stood at `t0`.
    let c = positions[0][0];
    let region = QueryRegion::new(Point::new(c.x, c.y), exp.radius);

    let mut checked = 0;
    for (node, at) in positions.iter().enumerate() {
        let app = sim.app(node);
        assert!(!app.truth.is_empty(), "node {node} never ticked");
        for (e, ids) in &app.truth {
            let pos = at[*e as usize];
            let placed: Vec<(TupleId, Tuple)> = app
                .sites()
                .iter()
                .map(|(id, t, off)| {
                    (*id, Tuple::new(pos.x + off.0, pos.y + off.1, t.attrs.clone()))
                })
                .collect();
            let mut want: Vec<TupleId> =
                constrained::skyline(placed.iter().map(|(id, t)| (*id, t)), &region)
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect();
            want.sort_unstable();
            assert_eq!(ids, &want, "node {node}, epoch {e}");
            checked += usize::from(!want.is_empty());
        }
    }
    assert!(checked > 100, "only {checked} non-empty answers: the circle misses the devices");

    // Nothing is recorded while the device is down, and it ticks again
    // once revived.
    let ticks: Vec<SimTime> = sim.app(crashed).truth.iter().map(|&(e, _)| epoch_at(e)).collect();
    assert!(ticks.iter().any(|&at| at < down), "device {crashed} never ticked before its crash");
    assert!(
        ticks.iter().all(|&at| at < down || at >= up),
        "device {crashed} ticked while down: {ticks:?}"
    );
    assert!(ticks.iter().any(|&at| at > up), "device {crashed} never ticked after its revival");
}
