//! The repository benchmark (see `benchmark/README.md`).
//!
//! ```text
//! msq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is the
//!     result object `BENCHMARK.json` describes
//! msq-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--repeat-check]
//!     the suite: every workload, untraced then traced, each in its own
//!     child process; `--repeat-check` runs it twice and compares
//! ```

mod gen;
mod harness;
mod metrics;
mod oracle;
mod probes;
mod workloads;

use std::process::{Command, ExitCode};

use harness::{Outcome, RunArgs, Workload};
use metrics::{Better, Class, METRICS};
use sim_obs::JsonValue;
use workloads::local_scan::LocalScan;
use workloads::manet::Manet;
use workloads::monitor::MonitorChurn;
use workloads::serve::Serve;

/// Workload names, in suite order. Later issues cite them.
pub const WORKLOADS: [&str; 6] = [
    LocalScan::NAME,
    Manet::<false>::NAME,
    Manet::<true>::NAME,
    MonitorChurn::NAME,
    Serve::<false>::NAME,
    Serve::<true>::NAME,
];

/// Measuring seconds per run when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 8.0;

#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 2006,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                cli.workload = Some(w.clone());
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&cli.seconds) {
                    return Err(format!("--seconds {} is outside 0..=600", cli.seconds));
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.smoke {
        cli.seconds = 0.0; // the minimum rep counts only
    }
    Ok(cli)
}

fn run_workload(name: &str, args: RunArgs) -> Outcome {
    match name {
        LocalScan::NAME => harness::run::<LocalScan>(args),
        Manet::<false>::NAME => harness::run::<Manet<false>>(args),
        Manet::<true>::NAME => harness::run::<Manet<true>>(args),
        MonitorChurn::NAME => harness::run::<MonitorChurn>(args),
        Serve::<false>::NAME => harness::run::<Serve<false>>(args),
        Serve::<true>::NAME => harness::run::<Serve<true>>(args),
        other => unreachable!("parse_cli admits only known workloads, not {other}"),
    }
}

/// One workload in this process. Prints its lines, then the result line.
fn child(name: &str, cli: &Cli) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# workload={name} seed={} seconds={} trace={} smoke={} nproc={nproc}",
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        cli.smoke
    );
    let args = RunArgs { seed: cli.seed, seconds: cli.seconds, trace: cli.trace, smoke: cli.smoke };
    let out = run_workload(name, args);
    print!("{}", out.report.render(name));
    println!("{name:<14} ops_attempted={} ops_failed={}", out.attempted, out.failed);
    for e in &out.errors {
        println!("{name:<14} VERIFICATION FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    println!("{}", out.report.result_line(cli.trace, correct, out.attempted, out.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// First line of `program args` output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(workload, metric) → value` of one suite pass.
type Pass = Vec<(String, String, f64)>;

/// Runs every workload, untraced then traced, each in its own child.
fn suite(cli: &Cli) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut pass = Pass::new();
    let mut broken = Vec::new();
    for name in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &cli.seed.to_string()]);
            cmd.args(["--seconds", &cli.seconds.to_string(), "--trace", trace]);
            if cli.smoke {
                cmd.arg("--smoke");
            }
            // `output` waits for the child, so none outlives the suite.
            let out = cmd.output().map_err(|e| format!("cannot start {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().unwrap_or_default();
            for l in lines {
                println!("{l}");
            }
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let parsed =
                JsonValue::parse(result).map_err(|e| format!("{name}: no result line ({e})"))?;
            if !out.status.success()
                || parsed.get("correct").and_then(JsonValue::as_bool) != Some(true)
            {
                broken.push(format!("{name} (trace {trace})"));
            }
            for (metric, v) in parsed.get("metrics").and_then(JsonValue::as_object).unwrap_or(&[]) {
                let value = v.get("value").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
                pass.push((name.to_string(), metric.clone(), value));
            }
        }
    }
    if broken.is_empty() {
        Ok(pass)
    } else {
        Err(format!("verification failed in: {}", broken.join(", ")))
    }
}

/// Compares two passes of the same code and seed. A deterministic metric
/// must not differ at all; a volatile one with a bound must stay inside it
/// when `timed` (smoke reps last milliseconds and time nothing).
fn repeat_check(a: &Pass, b: &Pass, timed: bool) -> Result<(), String> {
    println!("\n== repeat check: second pass against the first ==");
    let mut bad = Vec::new();
    for ((workload, metric, x), (_, _, y)) in a.iter().zip(b) {
        let m = metrics::def(metric);
        let bound = match m.class {
            Class::EndToEnd { bound } => Some(bound),
            Class::Layer { gate } => gate,
        };
        // Positive = the second pass is worse.
        let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
        let worse = if x == y { 0.0 } else { sign * (y - x) / x.abs().max(f64::MIN_POSITIVE) };
        let verdict = match (m.det, bound) {
            (true, _) if x.to_bits() != y.to_bits() => "DIFFERS (deterministic)",
            (false, Some(b)) if timed && worse > b => "OUTSIDE BOUND",
            _ => "ok",
        };
        if verdict != "ok" || (bound.is_some() && (*x != 0.0 || *y != 0.0)) {
            let shown = bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
            println!(
                "{workload:<14} {metric:<34} {x:>16.6} {y:>16.6} {:>+8.2}% bound={shown} {verdict}",
                worse * 100.0
            );
        }
        if verdict != "ok" {
            bad.push(format!("{workload}/{metric}"));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("repeat check failed for: {}", bad.join(", ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("msq-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &cli.workload {
        return child(name, &cli);
    }

    let dirty =
        if tool_line("git", &["status", "--porcelain"]) == "unknown" { "" } else { "+dirty" };
    println!(
        "# msq-benchmark seed={} seconds={} smoke={} nproc={}",
        cli.seed,
        cli.seconds,
        cli.smoke,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!("# rustc: {}", tool_line("rustc", &["--version"]));
    println!("# git: {}{dirty}", tool_line("git", &["rev-parse", "--short", "HEAD"]));
    println!("# metrics declared: {}", METRICS.len());

    let first = suite(&cli);
    let verdict = match (first, cli.repeat_check) {
        (Ok(a), true) => suite(&cli).and_then(|b| repeat_check(&a, &b, !cli.smoke)),
        (first, _) => first.map(|_| ()),
    };
    match verdict {
        Ok(()) => {
            println!("# suite ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("# suite FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let c = cli(&["--workload", "serve_read", "--seed", "9", "--seconds", "3", "--trace", "1"])
            .expect("valid");
        assert_eq!(c.workload.as_deref(), Some("serve_read"));
        assert_eq!((c.seed, c.seconds, c.trace), (9, 3.0, true));
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert_eq!(cli(&["--smoke"]).expect("valid").seconds, 0.0);
    }

    #[test]
    fn repeat_check_separates_noise_from_drift() {
        let pass = |wall: f64, bytes: f64| -> Pass {
            vec![
                ("local_scan".into(), "wall_s".into(), wall),
                ("local_scan".into(), "tx_bytes_per_op".into(), bytes),
                ("local_scan".into(), "storage.scan.busy_s".into(), wall / 2.0),
            ]
        };
        assert!(repeat_check(&pass(1.0, 500.0), &pass(1.05, 500.0), true).is_ok());
        assert!(repeat_check(&pass(1.0, 500.0), &pass(0.5, 500.0), true).is_ok(), "faster is fine");
        let slow = repeat_check(&pass(1.0, 500.0), &pass(1.3, 500.0), true).unwrap_err();
        assert!(slow.contains("wall_s"));
        assert!(repeat_check(&pass(1.0, 500.0), &pass(1.3, 500.0), false).is_ok());
        let drift = repeat_check(&pass(1.0, 500.0), &pass(1.0, 500.0000001), false).unwrap_err();
        assert!(drift.contains("tx_bytes_per_op"));
    }
}
