//! Argument parsing for the `msq` command-line tool — a tiny hand-rolled
//! `--key value` parser (the workspace deliberately avoids dependencies
//! beyond rand/proptest).

use datagen::Distribution;
use dist_skyline::config::{FilterStrategy, Forwarding};

/// A parsed `msq` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `msq query …` — one distributed query on a static grid.
    Query(QueryArgs),
    /// `msq simulate …` — a full MANET simulation.
    Simulate(SimArgs),
    /// `msq datagen …` — write a synthetic relation image to a file.
    Datagen(DatagenArgs),
    /// `msq help`
    Help,
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

/// `msq datagen` options.
#[derive(Debug, Clone, PartialEq)]
pub struct DatagenArgs {
    /// Data options.
    pub data: DataArgs,
    /// Output path for the binary relation image.
    pub out: String,
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

/// Key-value option map over `--key value` arguments.
struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, ParseError> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return err(format!("unexpected argument `{a}` (options start with --)"));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    pairs.push((key.to_string(), it.next().expect("peeked").clone()));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Opts { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().or_else(|_| err(format!("--{key}: cannot parse `{v}`"))),
        }
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
    if let Some(p) = s.strip_prefix("gossip") {
        let p: u8 = if p.is_empty() {
            70
        } else {
            p.parse().or_else(|_| err(format!("bad gossip percentage in `{s}`")))?
        };
        return Ok(Forwarding::Gossip { rebroadcast_percent: p });
    }
    match s {
        "bf" | "breadth-first" => Ok(Forwarding::BreadthFirst),
        "df" | "depth-first" => Ok(Forwarding::DepthFirst),
        other => err(format!("unknown forwarding `{other}` (bf|df|gossip<p>)")),
    }
}

fn parse_distance(s: &str) -> Result<f64, ParseError> {
    if s == "inf" {
        return Ok(f64::INFINITY);
    }
    s.parse().or_else(|_| err(format!("bad distance `{s}` (metres or `inf`)")))
}

fn parse_data(opts: &Opts) -> Result<DataArgs, ParseError> {
    Ok(DataArgs {
        cardinality: opts.num("cardinality", 100_000)?,
        dim: {
            let d = opts.num("dim", 2usize)?;
            if d == 0 {
                return err("--dim must be at least 1");
            }
            d
        },
        distribution: match opts.get("dist") {
            None => Distribution::Independent,
            Some(s) => parse_distribution(s)?,
        },
        seed: opts.num("seed", 42u64)?,
    })
}

/// Parses the full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "query" => {
            let opts = Opts::parse(rest)?;
            let data = parse_data(&opts)?;
            let g = opts.num("grid", 5usize)?;
            let origin = opts.num("origin", 0usize)?;
            if g == 0 {
                return err("--grid must be at least 1");
            }
            if origin >= g * g {
                return err(format!("--origin {origin} out of range for {} devices", g * g));
            }
            Ok(Command::Query(QueryArgs {
                data,
                g,
                origin,
                d: parse_distance(opts.get("d").unwrap_or("250"))?,
                strategy: parse_strategy(opts.get("strategy").unwrap_or("dynamic"))?,
            }))
        }
        "simulate" => {
            let opts = Opts::parse(rest)?;
            Ok(Command::Simulate(SimArgs {
                data: parse_data(&opts)?,
                g: opts.num("grid", 5usize)?,
                d: parse_distance(opts.get("d").unwrap_or("250"))?,
                forwarding: parse_forwarding(opts.get("forwarding").unwrap_or("bf"))?,
                seconds: opts.num("seconds", 1800.0)?,
                frozen: opts.flag("frozen"),
            }))
        }
        "datagen" => {
            let opts = Opts::parse(rest)?;
            let Some(out) = opts.get("out") else {
                return err("datagen requires --out <path>");
            };
            Ok(Command::Datagen(DatagenArgs { data: parse_data(&opts)?, out: out.to_string() }))
        }
        other => err(format!("unknown subcommand `{other}` (query|simulate|datagen|help)")),
    }
}

/// The help text `msq help` prints.
pub const HELP: &str = "msq — distributed skyline queries over MANETs (ICDE 2006 reproduction)

USAGE:
  msq query    [--cardinality N] [--dim N] [--dist independent|correlated|anticorrelated]
               [--grid G] [--origin I] [--d METRES|inf]
               [--strategy none|single|dynamic|multi<K>] [--seed S]
  msq simulate [data options] [--grid G] [--d METRES|inf]
               [--forwarding bf|df|gossip<P>] [--seconds T] [--frozen] [--seed S]
  msq datagen  [data options] --out FILE
  msq help
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
        let cmd =
            parse(&args("simulate --forwarding gossip60 --seconds 600 --frozen --grid 4")).unwrap();
        let Command::Simulate(s) = cmd else { panic!() };
        assert_eq!(s.forwarding, Forwarding::Gossip { rebroadcast_percent: 60 });
        assert_eq!(s.seconds, 600.0);
        assert!(s.frozen);
        assert_eq!(s.g, 4);
    }

    #[test]
    fn datagen_requires_out() {
        assert!(parse(&args("datagen")).is_err());
        let Command::Datagen(d) = parse(&args("datagen --out /tmp/x.msq")).unwrap() else {
            panic!()
        };
        assert_eq!(d.out, "/tmp/x.msq");
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
    }

    #[test]
    fn strategy_and_forwarding_aliases() {
        assert_eq!(parse_strategy("sf").unwrap(), FilterStrategy::Single);
        assert_eq!(parse_strategy("multi").unwrap(), FilterStrategy::MultiDynamic { k: 2 });
        assert_eq!(
            parse_forwarding("gossip").unwrap(),
            Forwarding::Gossip { rebroadcast_percent: 70 }
        );
        assert_eq!(parse_forwarding("depth-first").unwrap(), Forwarding::DepthFirst);
    }

    #[test]
    fn last_occurrence_wins() {
        let Command::Query(q) = parse(&args("query --grid 3 --grid 4")).unwrap() else { panic!() };
        assert_eq!(q.g, 4);
    }
}
