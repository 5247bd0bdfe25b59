//! What each `msq` subcommand does: [`execute`] runs a parsed
//! [`Command`] over the harness's figure, experiment and bench functions.

use std::process::ExitCode;
use std::time::Instant;

use datagen::{DataSpec, Distribution};
use dist_skyline::config::StrategyConfig;
use dist_skyline::runtime::{run_experiment, ManetExperiment};
use dist_skyline::static_net::grid_network_from_global;
use dist_skyline::trace_to_jsonl;
use skyline_core::vdr::BoundsMode;

use crate::cli::{
    Command, DataArgs, DiffArgs, Ext, PerfArgs, QueryArgs, RunArgs, SimArgs, TraceArgs,
};
use crate::provenance::{write_baseline, Provenance};
use crate::{
    attack, benchdiff, chaos, corebench, extensions, fig5, manet_figs, messages, monitor,
    perf_report, scalebench, servebench, static_drr, sweep, trace_query, RunOpts,
};

/// Runs `cmd`. `Ok` carries the exit code: `msq diff` exits 1 on drift
/// and 2 on files it cannot compare. `Err` is a failure to report — a
/// baseline, CSV or export that could not be written — and exits 1.
pub fn execute(cmd: Command) -> Result<ExitCode, String> {
    match cmd {
        Command::Help => print!("{}", crate::cli::HELP),
        Command::Query(q) => query(&q),
        Command::Simulate(s) => simulate(&s),
        Command::Fig(n, r) => figure(n, &r.opts)?,
        Command::Ext(ext, r) => write_json(&r, run_ext(ext, &r.opts))?,
        Command::Core(r) => {
            let suite = corebench::Suite::measure();
            suite.print();
            write_json(&r, Baseline::Core(suite))?;
        }
        Command::Scale(r) => write_json(&r, Baseline::Scale(scalebench::run(&r.opts, r.smoke)))?,
        Command::Serve(r) => write_json(&r, Baseline::Serve(servebench::run(&r.opts, r.smoke)))?,
        Command::All(r) => all(&r)?,
        Command::Diff(d) => return Ok(diff(&d)),
        Command::Perf(p) => perf(&p)?,
        Command::Trace(t) => trace(&t)?,
    }
    Ok(ExitCode::SUCCESS)
}

/// A bench's reports, which `--json` writes as `BENCH_<name>.json`.
enum Baseline {
    Chaos(Vec<chaos::CellReport>),
    Attack(Vec<attack::CellReport>),
    Monitor(Vec<monitor::CellReport>),
    Energy(Vec<extensions::EnergyReport>),
    MultiFilter(Vec<extensions::MultiFilterReport>),
    Redistribution(Vec<extensions::RedistributionReport>),
    Scale(Vec<scalebench::CellReport>),
    Serve(Vec<servebench::CellReport>),
    Core(corebench::Suite),
}

impl Baseline {
    /// Writes `BENCH_<name>.json` to the working directory.
    fn write(&self, prov: &Provenance) -> Result<(), String> {
        let (name, json) = match self {
            Baseline::Chaos(r) => ("chaos", chaos::to_json(prov, r)),
            Baseline::Attack(r) => ("attack", attack::to_json(prov, r)),
            Baseline::Monitor(r) => ("monitor", monitor::to_json(prov, r)),
            Baseline::Energy(r) => ("energy", extensions::energy_json(prov, r)),
            Baseline::MultiFilter(r) => ("multi-filter", extensions::multi_filter_json(prov, r)),
            Baseline::Redistribution(r) => {
                ("redistribution", extensions::redistribution_json(prov, r))
            }
            Baseline::Scale(r) => ("scale", scalebench::to_json(prov, r)),
            Baseline::Serve(r) => ("serve", servebench::to_json(prov, r)),
            Baseline::Core(suite) => ("core", corebench::to_json(prov, suite)),
        };
        write_baseline(&format!("BENCH_{name}.json"), &json)
    }
}

/// Runs one extension grid, printing its tables, for its baseline.
fn run_ext(ext: Ext, o: &RunOpts) -> Baseline {
    match ext {
        Ext::Energy => Baseline::Energy(extensions::energy(o)),
        Ext::MultiFilter => Baseline::MultiFilter(extensions::multi_filter(o)),
        Ext::Redistribution => Baseline::Redistribution(extensions::redistribution(o)),
        Ext::Chaos => Baseline::Chaos(chaos::run(o)),
        Ext::Attack => Baseline::Attack(attack::run(o)),
        Ext::Monitor => Baseline::Monitor(monitor::run(o)),
    }
}

/// Writes one bench's baseline when the run asked for `--json`.
fn write_json(r: &RunArgs, baseline: Baseline) -> Result<(), String> {
    if !r.json {
        return Ok(());
    }
    baseline.write(&Provenance::collect(r.opts.scale, r.opts.jobs))
}

/// Regenerates the paper's Fig. `n` (5–12), one table per panel. Figs. 8
/// and 10 (9 and 11) are two columns of the same tables.
fn figure(n: u8, o: &RunOpts) -> Result<(), String> {
    use Distribution::{AntiCorrelated, Independent};
    match n {
        5 => {
            println!("== Fig. 5: local skyline processing on a mobile device ==");
            fig5::panel_a(o)?;
            fig5::panel_b(o)?;
            println!("\nexpected shape: HS below FS everywhere; both grow with cardinality");
            println!("and (sharply) with dimensionality; AC above IN at equal size.");
        }
        6 => {
            println!("== Fig. 6: data reduction rate, static setting, independent data ==");
            static_drr_panels(o, Independent, "Fig. 6")?;
            println!("\nexpected shape: estimations (OVE/EXT/UNE) nearly indistinguishable;");
            println!("DRR grows slowly with cardinality, falls with dimensionality;");
            println!("SF decays slightly with device count while DF holds.");
        }
        7 => {
            println!("== Fig. 7: data reduction rate, static setting, anti-correlated data ==");
            static_drr_panels(o, AntiCorrelated, "Fig. 7")?;
            println!("\nexpected shape: DRR below the Fig. 6 counterparts everywhere;");
            println!("over-estimation (OVE) tends to be the best estimation on AC data.");
        }
        8 | 10 => {
            println!("== Figs. 8 and 10: DRR and response time (s) in MANET simulation, independent data ==");
            println!("(UNE bounds + dynamic filter, per the paper's pre-test conclusion;");
            println!(
                "response time: BF to 80% responses, DF token return, device CPU via cost model)"
            );
            manet_figs::panels(o, Independent)?;
            println!("\nexpected shape: DRR below the static Fig. 6 values and noisier;");
            println!("the dimensionality effect stays pronounced. Response time: BF below");
            println!("DF; DF deteriorates much faster with dimensionality; BF improves as");
            println!("devices increase (more parallelism).");
        }
        9 | 11 => {
            println!("== Figs. 9 and 11: DRR and response time (s) in MANET simulation, anti-correlated data ==");
            manet_figs::panels(o, AntiCorrelated)?;
            println!("\nexpected shape: DRR below the Fig. 8 counterparts (weaker filters on");
            println!("AC); response time like Fig. 10 but slower overall (larger AC skylines).");
        }
        12 => {
            println!("== Fig. 12: query message count, BF vs. DF ==");
            messages::run(o)?;
            println!("\nexpected shape: BF well above DF, both growing with device count.");
        }
        _ => unreachable!("cli::parse accepts figures 5 to 12 only"),
    }
    Ok(())
}

fn static_drr_panels(o: &RunOpts, dist: Distribution, fig: &str) -> Result<(), String> {
    for panel in [static_drr::panel_a, static_drr::panel_b, static_drr::panel_c] {
        panel(o, dist, fig)?;
    }
    Ok(())
}

/// Every figure, then the chaos, attack, monitor, scale, serve, energy,
/// multi-filter and redistribution grids; `--json` also measures the core
/// suite and writes all ten baselines.
fn all(r: &RunArgs) -> Result<(), String> {
    let o = &r.opts;
    let t0 = Instant::now();
    println!("sweep harness: {} worker thread(s)", o.jobs);
    // BENCH_sweep.json's stage order, which `msq diff` compares row by
    // row. Figs. 10 and 11 are columns of Figs. 8 and 9.
    for n in [5, 6, 7, 8, 9, 12] {
        figure(n, o)?;
    }
    // Then the grids, in the same order.
    let mut baselines = Vec::new();
    for ext in [Ext::Chaos, Ext::Attack, Ext::Monitor] {
        println!();
        baselines.push(run_ext(ext, o));
    }
    println!();
    baselines.push(Baseline::Scale(scalebench::run(o, false)));
    println!();
    baselines.push(Baseline::Serve(servebench::run(o, false)));
    for ext in [Ext::Energy, Ext::MultiFilter, Ext::Redistribution] {
        println!();
        baselines.push(run_ext(ext, o));
    }
    let total = t0.elapsed();
    println!("\nall figures regenerated in {total:.1?} ({} jobs)", o.jobs);

    if r.json {
        let prov = Provenance::collect(o.scale, o.jobs);
        let stages = sweep::take_stage_records();
        write_baseline("BENCH_sweep.json", &sweep::to_json(&prov, total.as_secs_f64(), &stages))?;
        for baseline in baselines {
            baseline.write(&prov)?;
        }
        Baseline::Core(corebench::Suite::measure()).write(&prov)?;
    }
    Ok(())
}

/// Compares two baselines (see [`benchdiff`]): exit 0 pass, 1 drift or
/// regression, 2 refusal or an unreadable file.
fn diff(d: &DiffArgs) -> ExitCode {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let report = read(&d.baseline).and_then(|baseline| {
        let candidate = read(&d.candidate)?;
        benchdiff::diff_texts_with(&baseline, &candidate, d.tol, d.prefix)
    });
    let report = match report {
        Ok(report) => report,
        Err(refusal) => {
            eprintln!("{refusal}");
            return ExitCode::from(2);
        }
    };
    for drift in &report.drift {
        println!("DRIFT: {drift}");
    }
    for regression in &report.regressions {
        println!("REGRESSION: {regression}");
    }
    if report.passed() {
        println!(
            "msq diff: {} vs {}: OK ({} rows identical, wall clock within {:.0}%)",
            d.baseline,
            d.candidate,
            if d.prefix { "deterministic prefix" } else { "deterministic" },
            d.tol * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "msq diff: {} vs {}: {} drift, {} regression(s)",
            d.baseline,
            d.candidate,
            report.drift.len(),
            report.regressions.len()
        );
        ExitCode::FAILURE
    }
}

fn perf(p: &PerfArgs) -> Result<(), String> {
    let run = perf_report::run(p.g);
    print!("{}", perf_report::render(&run));
    if p.json {
        let json = run.profile.to_json(&format!("scale_g{}", p.g));
        write_baseline(&format!("PROFILE_g{}.json", p.g), &json)?;
    }
    Ok(())
}

fn trace(t: &TraceArgs) -> Result<(), String> {
    let out = trace_query::run();
    print!("{}", trace_query::report(&out, t.query));
    let log = out.query_trace.as_ref().expect("scenario enables tracing");
    if let Some(path) = &t.jsonl {
        write_baseline(path, &trace_to_jsonl(log))?;
    }
    Ok(())
}

fn spec_of(d: &DataArgs) -> DataSpec {
    DataSpec::manet_experiment(d.cardinality, d.dim, d.distribution, d.seed)
}

fn query(q: &QueryArgs) {
    let spec = spec_of(&q.data);
    let net = grid_network_from_global(&spec.generate(), q.g, datagen::SpatialExtent::PAPER);
    let cfg = StrategyConfig {
        filter: q.strategy,
        bounds_mode: BoundsMode::Exact,
        exact_bounds: spec.global_upper_bounds(),
        ..StrategyConfig::default()
    };
    let out = net.run_query(q.origin, q.d, &cfg);
    println!(
        "skyline of {} sites within d={} of device {} ({} devices):",
        out.result.len(),
        q.d,
        q.origin,
        net.len()
    );
    for t in &out.result {
        println!("  ({:8.2}, {:8.2})  {:?}", t.x, t.y, t.attrs);
    }
    let m = &out.metrics;
    println!(
        "\ntuples {}  bytes {}  forwards {}  DRR {:.3}",
        m.tuples_transferred,
        m.bytes_transferred,
        m.forward_messages,
        m.drr.drr(true)
    );
}

fn simulate(s: &SimArgs) {
    let mut exp = ManetExperiment::paper_defaults(
        s.g,
        s.data.cardinality,
        s.data.dim,
        s.data.distribution,
        s.d,
        s.data.seed,
    );
    exp.forwarding = s.forwarding;
    exp.sim_seconds = s.seconds;
    exp.frozen = s.frozen;
    let out = run_experiment(&exp);
    println!(
        "{} queries ({} timed out), DRR {:.3}",
        out.records.len(),
        (out.timeout_fraction * out.records.len() as f64).round() as usize,
        out.drr
    );
    if let Some(rt) = out.mean_response_seconds {
        println!(
            "response time: mean {rt:.3} s, p50 {:.3} s, p95 {:.3} s",
            out.p50_response_seconds.unwrap_or(f64::NAN),
            out.p95_response_seconds.unwrap_or(f64::NAN)
        );
    }
    println!(
        "forward msgs/query {:.1}, result msgs/query {:.1}, {:.4} J/query",
        out.mean_forward_messages, out.mean_result_messages, out.energy_per_query_joules
    );
    let n = out.net;
    println!(
        "network: {} frames ({} AODV / {} data / {} bcast), {:.1} kB, {:.0}% delivery",
        n.frames_sent,
        n.aodv_frames,
        n.data_frames,
        n.bcast_frames,
        n.bytes_sent as f64 / 1024.0,
        n.unicast_delivery_ratio() * 100.0
    );
}
