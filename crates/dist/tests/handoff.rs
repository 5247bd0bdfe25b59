//! Tests of the mobility-driven data redistribution extension: data is
//! never lost, duplicates stay harmless, queries remain correct, and
//! locality actually improves on adversarial layouts.

use dist_skyline::config::Forwarding;
use dist_skyline::cost_model::DeviceCostModel;
use dist_skyline::runtime::{run_experiment, ManetExperiment};

fn exp_with_handoff(frozen: bool, seed: u64) -> ManetExperiment {
    let mut exp = ManetExperiment::paper_defaults(
        3,
        2_000,
        2,
        datagen::Distribution::Independent,
        f64::INFINITY,
        seed,
    );
    exp.frozen = frozen;
    exp.radio.range_m = 400.0;
    exp.sim_seconds = 1_800.0;
    exp.queries_per_device = (1, 2);
    exp.cost = DeviceCostModel::free();
    exp.handoff = true;
    exp
}

#[test]
fn frozen_devices_never_migrate() {
    // Devices start at their cells' centres: locality ≈ 0, no probe fires.
    let out = run_experiment(&exp_with_handoff(true, 1));
    assert_eq!(out.handoff_migrations, 0);
    assert!(out.mean_data_locality_m < 150.0);
}

#[test]
fn mobile_devices_migrate_data_and_stay_correct() {
    let with = run_experiment(&exp_with_handoff(false, 2));
    let mut without_exp = exp_with_handoff(false, 2);
    without_exp.handoff = false;
    let without = run_experiment(&without_exp);

    // Same mobility, same queries — results stay sane either way.
    assert_eq!(with.records.len(), without.records.len());
    assert!(with.drr <= 1.0);
    // On a 2 h-equivalent mobile run migrations should actually happen.
    assert!(
        with.handoff_migrations > 0,
        "no migrations despite mobility (locality {})",
        with.mean_data_locality_m
    );
    assert_eq!(without.handoff_migrations, 0);
}

#[test]
fn handoff_improves_locality_on_average() {
    // Average over seeds: with handoff the device↔data distance at the end
    // of the run must not be worse than without.
    let mut with_sum = 0.0;
    let mut without_sum = 0.0;
    let seeds = [3u64, 4, 5, 6];
    for &s in &seeds {
        let w = run_experiment(&exp_with_handoff(false, s));
        let mut e = exp_with_handoff(false, s);
        e.handoff = false;
        let wo = run_experiment(&e);
        with_sum += w.mean_data_locality_m;
        without_sum += wo.mean_data_locality_m;
    }
    let (with_avg, without_avg) = (with_sum / 4.0, without_sum / 4.0);
    assert!(
        with_avg <= without_avg,
        "handoff locality {with_avg:.0} m worse than pinned {without_avg:.0} m"
    );
}

#[test]
fn lossy_radio_cannot_destroy_data() {
    // Transfers or acks may vanish; the two-phase protocol must at worst
    // duplicate tuples, never lose them. We check that every query still
    // sees a result and the run completes without panics.
    let mut exp = exp_with_handoff(false, 7);
    exp.radio.loss_probability = 0.2;
    exp.forwarding = Forwarding::BreadthFirst;
    let out = run_experiment(&exp);
    assert!(!out.records.is_empty());
    for r in out.records.iter().filter(|r| !r.timed_out) {
        assert!(r.result_len > 0);
    }
}
