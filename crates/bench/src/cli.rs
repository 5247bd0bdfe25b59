//! Argument parsing for `msq`, the one command-line front end: each
//! subcommand's options are parsed once, here, into a typed [`Command`]
//! by a tiny hand-rolled `--key value` parser (the workspace deliberately
//! avoids dependencies beyond rand/proptest). A subcommand rejects every
//! option it does not read and every value it cannot use, as a
//! [`ParseError`], before any work runs; nothing else reads the process
//! arguments.

use std::path::PathBuf;

use datagen::Distribution;
use dist_skyline::config::{FilterStrategy, Forwarding};
use manet_sim::QueryId;

use crate::{benchdiff, perf_report, sweep, RunOpts, Scale};

/// A parsed `msq` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `msq query …` — one distributed query on a static grid.
    Query(QueryArgs),
    /// `msq simulate …` — a full MANET simulation.
    Simulate(SimArgs),
    /// `msq fig N` — regenerate the paper's Fig. N (5–12).
    Fig(u8, RunArgs),
    /// `msq ext NAME` — one extension experiment.
    Ext(Ext, RunArgs),
    /// `msq core` — the core micro-benchmarks (`BENCH_core.json`).
    Core(RunArgs),
    /// `msq scale` — the constant-density scale bench (`BENCH_scale.json`).
    Scale(RunArgs),
    /// `msq serve` — the serving front-end bench (`BENCH_serve.json`).
    Serve(RunArgs),
    /// `msq all` — every figure, then the chaos, attack, monitor, scale,
    /// serve, energy, multi-filter and redistribution grids.
    All(RunArgs),
    /// `msq diff` — compare two `BENCH_*.json` baselines.
    Diff(DiffArgs),
    /// `msq perf` — the profiling report over the pinned scale cell.
    Perf(PerfArgs),
    /// `msq trace` — the pinned fault-plan scenario's query timelines.
    Trace(TraceArgs),
    /// `msq help`
    Help,
}

/// The extension experiments `msq ext` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ext {
    /// `energy`: radio energy per query (`BENCH_energy.json`).
    Energy,
    /// `multi-filter`: DRR vs. filter count and selector (`BENCH_multi-filter.json`).
    MultiFilter,
    /// `redistribution`: relation handoff on vs. off (`BENCH_redistribution.json`).
    Redistribution,
    /// `chaos`: the fault scorecard (`BENCH_chaos.json`).
    Chaos,
    /// `attack`: the adversarial grid (`BENCH_attack.json`).
    Attack,
    /// `monitor`: delta monitoring vs. re-query (`BENCH_monitor.json`).
    Monitor,
}

/// Options of a figure, experiment or bench run. A subcommand that does
/// not accept one of them leaves it at its default: the Quick grid, one
/// worker, no CSV, no JSON, the full grid rather than the smoke grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// `--full`, `--jobs N` and `--csv DIR`, as the library takes them.
    pub opts: RunOpts,
    /// `--json`: write the run's `BENCH_*.json` to the working directory.
    pub json: bool,
    /// `--smoke`: the trimmed two-cell grid (`scale`, `serve`).
    pub smoke: bool,
}

/// `msq diff` options.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffArgs {
    /// The committed (reference) baseline.
    pub baseline: String,
    /// The fresh baseline compared against it.
    pub candidate: String,
    /// Relative tolerance on wall-clock fields (`--tol`, ≥ 0).
    pub tol: f64,
    /// `--prefix`: the candidate grid must be a prefix of the baseline's.
    pub prefix: bool,
}

/// `msq perf` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfArgs {
    /// Grid side of the profiled cell (`--g`, ≥ 2).
    pub g: usize,
    /// `--json`: write `PROFILE_g<N>.json` to the working directory.
    pub json: bool,
}

/// `msq trace` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceArgs {
    /// The narrated query (`--query ORIGIN:CNT`); the most eventful one
    /// when absent.
    pub query: Option<QueryId>,
    /// Where to export the full trace as JSONL.
    pub jsonl: Option<String>,
}

/// Options shared by data-producing commands.
#[derive(Debug, Clone, PartialEq)]
pub struct DataArgs {
    /// Global cardinality.
    pub cardinality: usize,
    /// Non-spatial attributes.
    pub dim: usize,
    /// Attribute distribution.
    pub distribution: Distribution,
    /// RNG seed.
    pub seed: u64,
}

/// `msq query` options.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Data options.
    pub data: DataArgs,
    /// Grid side (devices = g²).
    pub g: usize,
    /// Originating device.
    pub origin: usize,
    /// Distance of interest (`inf` = unconstrained).
    pub d: f64,
    /// Filtering strategy.
    pub strategy: FilterStrategy,
}

/// `msq simulate` options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    /// Data options.
    pub data: DataArgs,
    /// Grid side (devices = g²).
    pub g: usize,
    /// Distance of interest.
    pub d: f64,
    /// Query forwarding.
    pub forwarding: Forwarding,
    /// Simulated seconds.
    pub seconds: f64,
    /// Freeze mobility.
    pub frozen: bool,
}

/// A parse failure, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Options that never take a value; any other `--key` takes the next
/// argument unless that is an option too.
const FLAGS: [&str; 5] = ["frozen", "full", "json", "prefix", "smoke"];

/// The options and positional arguments after a subcommand's name. A
/// builder takes what it reads; whatever is left is an error.
struct Opts {
    options: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Self {
        let mut options = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            let value = if FLAGS.contains(&key) {
                None
            } else {
                it.next_if(|v| !v.starts_with("--")).cloned()
            };
            options.push((key.to_string(), value));
        }
        Opts { options, positional }
    }

    /// Takes every `--key`; the last one's value wins.
    fn take(&mut self, key: &str) -> Result<Option<String>, ParseError> {
        let (taken, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.options).into_iter().partition(|(k, _)| k == key);
        self.options = rest;
        let mut last = None;
        for (_, value) in taken {
            last = Some(value.ok_or_else(|| ParseError(format!("--{key} expects a value")))?);
        }
        Ok(last)
    }

    /// Takes the boolean `--key` (one of [`FLAGS`]).
    fn flag(&mut self, key: &str) -> bool {
        debug_assert!(FLAGS.contains(&key), "--{key} is not a flag");
        let before = self.options.len();
        self.options.retain(|(k, _)| k != key);
        self.options.len() < before
    }

    fn num<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, ParseError> {
        match self.take(key)? {
            None => Ok(default),
            Some(v) => v.parse().or_else(|_| err(format!("--{key}: cannot parse `{v}`"))),
        }
    }

    /// Fails on the first option or argument no builder took.
    fn finish(self, name: &str) -> Result<(), ParseError> {
        if let Some((key, _)) = self.options.first() {
            return err(format!("unknown option `--{key}` for `msq {name}`"));
        }
        if let Some(a) = self.positional.first() {
            return err(format!("unexpected argument `{a}` (options start with --)"));
        }
        Ok(())
    }
}

fn parse_distribution(s: &str) -> Result<Distribution, ParseError> {
    match s {
        "independent" | "in" => Ok(Distribution::Independent),
        "anticorrelated" | "ac" => Ok(Distribution::AntiCorrelated),
        "correlated" | "co" => Ok(Distribution::Correlated),
        other => {
            err(format!("unknown distribution `{other}` (independent|correlated|anticorrelated)"))
        }
    }
}

fn parse_strategy(s: &str) -> Result<FilterStrategy, ParseError> {
    if let Some(k) = s.strip_prefix("multi") {
        let k: usize = if k.is_empty() {
            2
        } else {
            k.parse().or_else(|_| err(format!("bad multi-filter count in `{s}`")))?
        };
        if k == 0 {
            return err(format!("multi-filter count in `{s}` must be at least 1"));
        }
        return Ok(FilterStrategy::MultiDynamic { k });
    }
    match s {
        "none" | "straightforward" => Ok(FilterStrategy::NoFilter),
        "single" | "sf" => Ok(FilterStrategy::Single),
        "dynamic" | "df" => Ok(FilterStrategy::Dynamic),
        other => err(format!("unknown strategy `{other}` (none|single|dynamic|multi<k>)")),
    }
}

fn parse_forwarding(s: &str) -> Result<Forwarding, ParseError> {
    match s {
        "bf" | "breadth-first" => Ok(Forwarding::BreadthFirst),
        "df" | "depth-first" => Ok(Forwarding::DepthFirst),
        other => err(format!("unknown forwarding `{other}` (bf|df)")),
    }
}

fn parse_distance(s: &str) -> Result<f64, ParseError> {
    if s == "inf" {
        return Ok(f64::INFINITY);
    }
    match s.parse::<f64>() {
        Ok(d) if d >= 0.0 => Ok(d),
        _ => err(format!("bad distance `{s}` (non-negative metres or `inf`)")),
    }
}

/// `--grid G`: a `G × G` grid of devices, so `G` is at least 1.
fn parse_grid(opts: &mut Opts) -> Result<usize, ParseError> {
    match opts.num("grid", 5usize)? {
        0 => err("--grid must be at least 1"),
        g => Ok(g),
    }
}

fn parse_data(opts: &mut Opts) -> Result<DataArgs, ParseError> {
    Ok(DataArgs {
        cardinality: opts.num("cardinality", 100_000)?,
        dim: {
            let d = opts.num("dim", 2usize)?;
            if d == 0 {
                return err("--dim must be at least 1");
            }
            d
        },
        distribution: match opts.take("dist")? {
            None => Distribution::Independent,
            Some(s) => parse_distribution(&s)?,
        },
        seed: opts.num("seed", 42u64)?,
    })
}

fn query(opts: &mut Opts) -> Result<Command, ParseError> {
    let data = parse_data(opts)?;
    let g = parse_grid(opts)?;
    let origin = opts.num("origin", 0usize)?;
    if origin >= g * g {
        return err(format!("--origin {origin} out of range for {} devices", g * g));
    }
    Ok(Command::Query(QueryArgs {
        data,
        g,
        origin,
        d: parse_distance(opts.take("d")?.as_deref().unwrap_or("250"))?,
        strategy: parse_strategy(opts.take("strategy")?.as_deref().unwrap_or("dynamic"))?,
    }))
}

fn simulate(opts: &mut Opts) -> Result<Command, ParseError> {
    Ok(Command::Simulate(SimArgs {
        data: parse_data(opts)?,
        g: parse_grid(opts)?,
        d: parse_distance(opts.take("d")?.as_deref().unwrap_or("250"))?,
        forwarding: parse_forwarding(opts.take("forwarding")?.as_deref().unwrap_or("bf"))?,
        seconds: match opts.num("seconds", 1800.0_f64)? {
            t if t > 0.0 && t.is_finite() => t,
            t => return err(format!("--seconds expects a positive number, got `{t}`")),
        },
        frozen: opts.flag("frozen"),
    }))
}

/// Reads the run options `keys` names (of `full`, `jobs`, `csv`, `json`,
/// `smoke`); a subcommand passes the ones it accepts, so any other stays
/// behind for [`Opts::finish`] to reject.
fn run_args(opts: &mut Opts, keys: &[&str]) -> Result<RunArgs, ParseError> {
    let accepts = |key: &str| keys.contains(&key);
    let full = accepts("full") && opts.flag("full");
    let jobs = if accepts("jobs") { jobs(opts)? } else { 1 };
    let csv = if accepts("csv") { opts.take("csv")?.map(PathBuf::from) } else { None };
    Ok(RunArgs {
        opts: RunOpts { scale: if full { Scale::Full } else { Scale::Quick }, jobs, csv },
        json: accepts("json") && opts.flag("json"),
        smoke: accepts("smoke") && opts.flag("smoke"),
    })
}

/// `--jobs N`: a positive worker count, all cores when absent — a
/// malformed count silently running sequentially would be worse than an
/// error.
fn jobs(opts: &mut Opts) -> Result<usize, ParseError> {
    match opts.take("jobs")? {
        None => Ok(sweep::default_jobs()),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => err(format!("--jobs expects a positive integer, got `{v}`")),
        },
    }
}

/// The options of `fig 6` to `fig 12` (Fig. 5 times its cells on one
/// thread and takes no `--jobs`).
const FIG: &[&str] = &["full", "jobs", "csv"];
/// The options of the extensions.
const EXT: &[&str] = &["full", "jobs", "json"];
/// The options of `scale` and `serve`.
const BENCH: &[&str] = &["full", "jobs", "json", "smoke"];

fn diff(opts: &mut Opts) -> Result<Command, ParseError> {
    let tol = opts.num("tol", benchdiff::DEFAULT_TOL)?;
    if tol.is_nan() || tol < 0.0 {
        return err(format!("--tol expects a non-negative number, got `{tol}`"));
    }
    let prefix = opts.flag("prefix");
    let Ok([baseline, candidate]) = <[String; 2]>::try_from(std::mem::take(&mut opts.positional))
    else {
        return err("diff expects two files: BASELINE.json CANDIDATE.json");
    };
    Ok(Command::Diff(DiffArgs { baseline, candidate, tol, prefix }))
}

fn perf(opts: &mut Opts) -> Result<Command, ParseError> {
    let g = opts.num("g", perf_report::DEFAULT_G)?;
    if g < 2 {
        return err(format!("--g expects an integer >= 2, got `{g}`"));
    }
    Ok(Command::Perf(PerfArgs { g, json: opts.flag("json") }))
}

fn trace(opts: &mut Opts) -> Result<Command, ParseError> {
    let query = match opts.take("query")? {
        None => None,
        Some(s) => Some(parse_query_id(&s)?),
    };
    Ok(Command::Trace(TraceArgs { query, jsonl: opts.take("jsonl")? }))
}

fn parse_query_id(s: &str) -> Result<QueryId, ParseError> {
    let bad = || ParseError(format!("--query expects ORIGIN:CNT, got `{s}`"));
    let (origin, cnt) = s.split_once(':').ok_or_else(bad)?;
    Ok(QueryId { origin: origin.parse().map_err(|_| bad())?, cnt: cnt.parse().map_err(|_| bad())? })
}

/// Reads one subcommand's options.
type Builder = fn(&mut Opts) -> Result<Command, ParseError>;

/// Every subcommand, as typed after `msq`, with the builder that reads
/// its options. [`HELP`] documents exactly these.
const SUBCOMMANDS: &[(&str, Builder)] = &[
    ("query", query),
    ("simulate", simulate),
    ("fig 5", |o| Ok(Command::Fig(5, run_args(o, &["full", "csv"])?))),
    ("fig 6", |o| Ok(Command::Fig(6, run_args(o, FIG)?))),
    ("fig 7", |o| Ok(Command::Fig(7, run_args(o, FIG)?))),
    ("fig 8", |o| Ok(Command::Fig(8, run_args(o, FIG)?))),
    ("fig 9", |o| Ok(Command::Fig(9, run_args(o, FIG)?))),
    ("fig 10", |o| Ok(Command::Fig(10, run_args(o, FIG)?))),
    ("fig 11", |o| Ok(Command::Fig(11, run_args(o, FIG)?))),
    ("fig 12", |o| Ok(Command::Fig(12, run_args(o, FIG)?))),
    ("ext energy", |o| Ok(Command::Ext(Ext::Energy, run_args(o, EXT)?))),
    ("ext multi-filter", |o| Ok(Command::Ext(Ext::MultiFilter, run_args(o, EXT)?))),
    ("ext redistribution", |o| Ok(Command::Ext(Ext::Redistribution, run_args(o, EXT)?))),
    ("ext chaos", |o| Ok(Command::Ext(Ext::Chaos, run_args(o, EXT)?))),
    ("ext attack", |o| Ok(Command::Ext(Ext::Attack, run_args(o, EXT)?))),
    ("ext monitor", |o| Ok(Command::Ext(Ext::Monitor, run_args(o, EXT)?))),
    ("core", |o| Ok(Command::Core(run_args(o, &["json"])?))),
    ("scale", |o| Ok(Command::Scale(run_args(o, BENCH)?))),
    ("serve", |o| Ok(Command::Serve(run_args(o, BENCH)?))),
    ("all", |o| Ok(Command::All(run_args(o, &["full", "jobs", "json", "csv"])?))),
    ("diff", diff),
    ("perf", perf),
    ("trace", trace),
    ("help", |_| Ok(Command::Help)),
];

/// Parses the full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        return Ok(Command::Help);
    }
    // A name is one word (`query`) or two (`fig 12`, `ext chaos`).
    let found = [2, 1].into_iter().filter(|&n| n <= args.len()).find_map(|n| {
        let name = args[..n].join(" ");
        SUBCOMMANDS
            .iter()
            .find(|(sub, _)| *sub == name)
            .map(|&(sub, build)| (sub, build, n))
    });
    let Some((name, build, n)) = found else {
        let two_words =
            SUBCOMMANDS.iter().any(|(sub, _)| sub.starts_with(&format!("{} ", args[0])));
        let typed = if two_words { args[..args.len().min(2)].join(" ") } else { args[0].clone() };
        return err(format!("unknown subcommand `{typed}` (see `msq help`)"));
    };
    let mut opts = Opts::parse(&args[n..]);
    let cmd = build(&mut opts)?;
    opts.finish(name)?;
    Ok(cmd)
}

/// The help text `msq help` prints, and `msq` prints after a parse error.
pub const HELP: &str = "msq — distributed skyline queries over MANETs (ICDE 2006 reproduction)

USAGE:
  msq query    [--cardinality N] [--dim N] [--dist independent|correlated|anticorrelated]
               [--grid G] [--origin I] [--d METRES|inf]
               [--strategy none|single|dynamic|multi<K>] [--seed S]
  msq simulate [data options] [--grid G] [--d METRES|inf]
               [--forwarding bf|df] [--seconds T] [--frozen] [--seed S]
  msq fig 5 [--full] [--csv DIR]
  msq fig 6|7|8|9|10|11|12 [--full] [--jobs N] [--csv DIR]
  msq ext energy|multi-filter|redistribution|chaos|attack|monitor
          [--full] [--jobs N] [--json]
  msq core  [--json]
  msq scale [--full] [--jobs N] [--json] [--smoke]
  msq serve [--full] [--jobs N] [--json] [--smoke]
  msq all   [--full] [--jobs N] [--json] [--csv DIR]
  msq diff  BASELINE.json CANDIDATE.json [--tol FRAC] [--prefix]
  msq perf  [--g N] [--json]
  msq trace [--query ORIGIN:CNT] [--jsonl FILE]
  msq help

SUBCOMMANDS:
  query, simulate  one static-grid query; one MANET simulation
  fig N            the paper's Fig. N (Section 5), one table per panel; figs. 8
                   and 10 (9 and 11) are the DRR and response-time columns
                   of one simulation grid and print the same tables
  ext NAME         one extension experiment
  core             the core micro-benchmarks (BENCH_core.json)
  scale            queries on 100- to 10 000-device networks (BENCH_scale.json)
  serve            the diagram-cache serving front end (BENCH_serve.json)
  all              every figure (each MANET grid once), then every ext, scale
                   and serve grid; with --json also the core micro-benchmarks
  diff             compare two BENCH_*.json files: exit 0 pass, 1 drift or
                   regression, 2 not comparable (--tol default 0.5)
  perf             span, gauge and histogram profile of one scale cell (--g 32)
  trace            hop-by-hop timeline of the pinned fault-plan scenario

RUN OPTIONS:
  --full           the paper's parameter grid (default: a scaled-down grid)
  --jobs N         sweep worker threads (default: all cores)
  --csv DIR        also write every figure table as DIR/<id>.csv, one row per
                   cell (the columns the table prints)
  --json           write the run's BENCH_<name>.json (perf: PROFILE_g<N>.json)
                   to the working directory
  --smoke          a trimmed two-cell grid, for determinism checks
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn query_defaults() {
        let Command::Query(q) = parse(&args("query")).unwrap() else { panic!("expected query") };
        assert_eq!(q.g, 5);
        assert_eq!(q.d, 250.0);
        assert_eq!(q.strategy, FilterStrategy::Dynamic);
        assert_eq!(q.data.cardinality, 100_000);
    }

    #[test]
    fn query_full_options() {
        let cmd = parse(&args(
            "query --cardinality 5000 --dim 3 --dist ac --grid 3 --origin 4 --d inf --strategy multi3 --seed 7",
        ))
        .unwrap();
        let Command::Query(q) = cmd else { panic!() };
        assert_eq!(q.data.cardinality, 5000);
        assert_eq!(q.data.dim, 3);
        assert_eq!(q.data.distribution, Distribution::AntiCorrelated);
        assert_eq!(q.origin, 4);
        assert!(q.d.is_infinite());
        assert_eq!(q.strategy, FilterStrategy::MultiDynamic { k: 3 });
        assert_eq!(q.data.seed, 7);
    }

    #[test]
    fn simulate_options() {
        let cmd = parse(&args("simulate --forwarding df --seconds 600 --frozen --grid 4")).unwrap();
        let Command::Simulate(s) = cmd else { panic!() };
        assert_eq!(s.forwarding, Forwarding::DepthFirst);
        assert_eq!(s.seconds, 600.0);
        assert!(s.frozen);
        assert_eq!(s.g, 4);
    }

    #[test]
    fn helpful_errors() {
        assert!(parse(&args("frobnicate")).unwrap_err().0.contains("unknown subcommand"));
        assert!(parse(&args("query --dist marzipan")).unwrap_err().0.contains("distribution"));
        assert!(parse(&args("query --origin 99 --grid 3"))
            .unwrap_err()
            .0
            .contains("out of range"));
        assert!(parse(&args("query --cardinality nope")).unwrap_err().0.contains("cannot parse"));
        assert!(parse(&args("query --dim 0")).unwrap_err().0.contains("at least 1"));
        // An option the subcommand does not read is rejected, not dropped.
        for (line, option) in [
            ("query --cardinalty 5000", "--cardinalty"),
            ("query --frozen", "--frozen"),
            ("fig 12 --jbos 4", "--jbos"),
            ("ext attack --jsno", "--jsno"),
            ("trace --csv x", "--csv"),
            ("fig 5 --jobs 2", "--jobs"),
            ("core --full", "--full"),
        ] {
            let e = parse(&args(line)).unwrap_err().0;
            assert!(e.contains(&format!("unknown option `{option}`")), "{line}: {e}");
        }
        assert!(parse(&args("fig 13")).unwrap_err().0.contains("unknown subcommand `fig 13`"));
        // Deleted subcommands are unknown, not silently accepted.
        for line in ["datagen --out x", "ext gossip"] {
            let e = parse(&args(line)).unwrap_err().0;
            assert!(e.contains("unknown subcommand"), "{line}: {e}");
        }
        assert!(parse(&args("scale 4")).unwrap_err().0.contains("unexpected argument `4`"));
        assert!(parse(&args("ext chaos --full 2"))
            .unwrap_err()
            .0
            .contains("unexpected argument"));
    }

    #[test]
    fn bad_values_are_errors() {
        for (line, message) in [
            ("fig 6 --jobs 0", "--jobs expects a positive integer, got `0`"),
            ("ext chaos --jobs abc", "--jobs expects a positive integer, got `abc`"),
            ("all --jobs", "--jobs expects a value"),
            ("scale --jobs --json", "--jobs expects a value"),
            ("perf --g 1", "--g expects an integer >= 2"),
            ("trace --query nonsense", "--query expects ORIGIN:CNT, got `nonsense`"),
            ("trace --query 3:x", "--query expects ORIGIN:CNT"),
            ("diff a.json b.json --tol -1", "--tol expects a non-negative number"),
            ("diff a.json b.json --tol x", "--tol: cannot parse `x`"),
            ("diff a.json", "diff expects two files"),
            ("simulate --forwarding gossip60", "unknown forwarding `gossip60` (bf|df)"),
            ("simulate --grid 0", "--grid must be at least 1"),
            ("simulate --seconds 0", "--seconds expects a positive number, got `0`"),
            ("simulate --seconds -5", "--seconds expects a positive number, got `-5`"),
            ("simulate --seconds NaN", "--seconds expects a positive number, got `NaN`"),
            ("query --d -5", "bad distance `-5` (non-negative metres or `inf`)"),
            ("query --d NaN", "bad distance `NaN`"),
            ("simulate --d NaN", "bad distance `NaN`"),
            ("query --strategy multi0", "multi-filter count in `multi0` must be at least 1"),
        ] {
            let e = parse(&args(line)).unwrap_err().0;
            assert!(e.contains(message), "{line}: {e}");
        }
    }

    #[test]
    fn run_options() {
        let Command::All(r) = parse(&args("all --full --jobs 3 --json --csv out")).unwrap() else {
            panic!()
        };
        assert_eq!(r.opts, RunOpts { scale: Scale::Full, jobs: 3, csv: Some("out".into()) });
        assert!(r.json && !r.smoke);
        let Command::Fig(5, r) = parse(&args("fig 5")).unwrap() else { panic!() };
        assert_eq!(r.opts, RunOpts { scale: Scale::Quick, jobs: 1, csv: None });
        let Command::Ext(Ext::Chaos, r) = parse(&args("ext chaos")).unwrap() else { panic!() };
        assert_eq!(r.opts.jobs, sweep::default_jobs());
        assert_eq!(
            parse(&args("scale --smoke --jobs 1")).unwrap(),
            Command::Scale(RunArgs {
                opts: RunOpts { scale: Scale::Quick, jobs: 1, csv: None },
                json: false,
                smoke: true,
            })
        );
        assert_eq!(
            parse(&args("diff --prefix a.json b.json")).unwrap(),
            Command::Diff(DiffArgs {
                baseline: "a.json".into(),
                candidate: "b.json".into(),
                tol: benchdiff::DEFAULT_TOL,
                prefix: true,
            })
        );
        assert_eq!(
            parse(&args("perf --json")).unwrap(),
            Command::Perf(PerfArgs { g: perf_report::DEFAULT_G, json: true })
        );
        assert_eq!(
            parse(&args("trace --query 4:1 --jsonl t.jsonl")).unwrap(),
            Command::Trace(TraceArgs {
                query: Some(QueryId { origin: 4, cnt: 1 }),
                jsonl: Some("t.jsonl".into()),
            })
        );
    }

    /// The names a usage line of [`HELP`] documents: the words after `msq`
    /// up to the first option or placeholder, with `a|b` alternatives
    /// expanded.
    fn help_names() -> Vec<String> {
        let mut names = Vec::new();
        for line in HELP.lines().filter_map(|l| l.trim_start().strip_prefix("msq ")) {
            let words: Vec<&str> = line
                .split_whitespace()
                .take_while(|w| {
                    w.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-|".contains(c))
                        && !w.starts_with('-')
                })
                .collect();
            let mut expanded = vec![String::new()];
            for word in words {
                expanded = expanded
                    .iter()
                    .flat_map(|prefix| {
                        word.split('|').map(move |alt| format!("{prefix} {alt}").trim().to_string())
                    })
                    .collect();
            }
            names.extend(expanded);
        }
        names
    }

    #[test]
    fn help_and_parser_agree() {
        let documented = help_names();
        for name in &documented {
            if let Err(e) = parse(&args(name)) {
                assert!(!e.0.contains("unknown subcommand"), "HELP names `msq {name}`: {e}");
            }
        }
        for (name, _) in SUBCOMMANDS {
            assert!(documented.iter().any(|d| d == name), "`msq {name}` is missing from HELP");
        }
    }

    #[test]
    fn strategy_and_forwarding_aliases() {
        assert_eq!(parse_strategy("sf").unwrap(), FilterStrategy::Single);
        assert_eq!(parse_strategy("multi").unwrap(), FilterStrategy::MultiDynamic { k: 2 });
        assert_eq!(parse_forwarding("bf").unwrap(), Forwarding::BreadthFirst);
        assert_eq!(parse_forwarding("depth-first").unwrap(), Forwarding::DepthFirst);
    }

    #[test]
    fn last_occurrence_wins() {
        let Command::Query(q) = parse(&args("query --grid 3 --grid 4")).unwrap() else { panic!() };
        assert_eq!(q.g, 4);
    }
}
