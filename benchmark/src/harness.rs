//! Run discipline shared by every workload: repeated set-up, one warm-up
//! rep, timed reps for the measuring budget, a verification rep, and —
//! with `--trace 1` — traced reps and layer probes.
//!
//! Benchmark-side spans are kept in memory by [`Recorder`] and written
//! with the `sim_obs` span table to `benchmark/out/<workload>.trace.jsonl`
//! when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sim_obs::ProfileReport;

use crate::metrics::{median, percentile, summarize, Report};

/// How a rep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed: every instrument off.
    Plain,
    /// Untimed: answers are checked against the oracle.
    Verify,
    /// `Verify` plus `sim_obs` spans, engine gauges, full query and frame
    /// traces and benchmark-side spans.
    Traced,
}

impl Mode {
    pub fn verifies(self) -> bool {
        self != Mode::Plain
    }
}

/// `(metric, value)` pairs produced by a rep or a probe.
pub type Vals = Vec<(&'static str, f64)>;

/// Times of the set-up phases, reported as per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub generate_s: f64,
    pub partition_s: f64,
    pub build_s: f64,
}

/// What one rep hands back.
#[derive(Debug, Default)]
pub struct Rep {
    /// On-the-clock seconds.
    pub wall_s: f64,
    /// Host microseconds of each op, where ops run one after another;
    /// empty where they overlap inside one simulation call.
    pub op_us: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    /// Pure functions of the seed: equal, bit for bit, in every rep and
    /// every mode that reports them.
    pub det: Vals,
    /// Host-time values of this rep.
    pub vol: Vals,
    /// Hard verification failures (spurious tuples, drift, invariants).
    pub errors: Vec<String>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The tail of the op-time sample this workload reports, as
    /// `(metric, quantile)`: the highest percentile its sample sizes leave
    /// ten samples beyond. `None` where ops are not timed one by one.
    const TAIL: Option<(&'static str, f64)> = None;
    /// Generates the inputs from `seed` and builds what a rep needs.
    fn setup(seed: u64, smoke: bool, phases: &mut Phases) -> Self;
    /// One rep: the same deterministic work every time.
    fn rep(&mut self, mode: Mode, rec: &mut Recorder) -> Rep;
    /// Replays the workload's inputs against single layers (traced pass).
    fn probes(&mut self, _plain_wall_s: f64, _rec: &mut Recorder) -> Vals {
        Vals::new()
    }
}

/// One benchmark-side span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log; inert unless switched on for the traced pass.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { on: false, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one. Span ids are 1-based;
    /// parent 0 marks a root (one per rep).
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open.push(self.spans.len() as u32);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("end without begin");
        self.spans[id as usize - 1].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span and returns its result with its seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        self.begin(name);
        let t = Instant::now();
        let out = f(self);
        let s = t.elapsed().as_secs_f64();
        self.end();
        (out, s)
    }

    fn to_jsonl(&self, table: &ProfileReport) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"type\": \"span\", \"name\": \"{}\", \"id\": {}, \"parent_id\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                i + 1,
                s.parent,
                s.start_ns,
                s.end_ns
            );
        }
        for r in &table.rows {
            let _ = writeln!(
                out,
                "{{\"type\": \"span_table\", \"name\": \"{}\", \"calls\": {}, \"units\": {}, \
                 \"bytes\": {}, \"incl_ns\": {}}}",
                r.name, r.calls, r.units, r.bytes, r.wall_ns
            );
        }
        out
    }
}

/// `sim_obs` span → (calls metric, units metric, inclusive-seconds metric).
const SPAN_TABLE: &[(&str, &str, Option<&str>, &str)] = &[
    ("core::block_bnl", "core.block_bnl.calls", None, "core.block_bnl.incl_s"),
    ("core::block_sfs", "core.block_sfs.calls", None, "core.block_sfs.incl_s"),
    ("core::live_apply", "core.live.apply_calls", None, "core.live.incl_s"),
    (
        "diagram::materialize",
        "core.diagram.materialize_calls",
        None,
        "core.diagram.materialize_incl_s",
    ),
    (
        "diagram::invalidate",
        "core.diagram.invalidate_calls",
        None,
        "core.diagram.invalidate_incl_s",
    ),
    ("aodv::on_frame", "manet.aodv.on_frame_calls", None, "manet.aodv.on_frame_incl_s"),
    ("radio::deliver", "manet.radio.deliver_calls", None, "manet.radio.deliver_incl_s"),
    ("radio::tx", "manet.radio.tx_calls", None, "manet.radio.tx_incl_s"),
    (
        "grid::query",
        "manet.grid.query_calls",
        Some("manet.grid.query_units"),
        "manet.grid.query_incl_s",
    ),
    (
        "wheel::cascade",
        "manet.events.cascade_calls",
        Some("manet.events.cascade_units"),
        "manet.events.cascade_incl_s",
    ),
];

/// Spans that only report a call count.
const SPAN_CALLS: &[(&str, &str)] = &[
    ("aodv::route_lookup", "manet.aodv.route_lookup_calls"),
    ("aodv::send", "manet.aodv.send_calls"),
    ("grid::sweep", "manet.grid.sweep_calls"),
];

/// Drains the `sim_obs` span table into a rep's values and folds it into
/// `total` (written to the trace file at exit).
pub fn drain_span_table(rep: &mut Rep, total: &mut ProfileReport) {
    let table = ProfileReport::collect_and_reset();
    for &(span, calls, units, incl) in SPAN_TABLE {
        if let Some(r) = table.row(span) {
            rep.det.push((calls, r.calls as f64));
            if let Some(units) = units {
                rep.det.push((units, r.units as f64));
            }
            rep.vol.push((incl, r.wall_ns as f64 / 1e9));
        }
    }
    for &(span, calls) in SPAN_CALLS {
        if let Some(r) = table.row(span) {
            rep.det.push((calls, r.calls as f64));
        }
    }
    if let Some(r) = table.row("serve::lookup") {
        rep.vol.push(("dist.serve.lookup_incl_s", r.wall_ns as f64 / 1e9));
    }
    for r in table.rows {
        match total.rows.iter_mut().find(|t| t.name == r.name) {
            Some(t) => {
                t.calls += r.calls;
                t.units += r.units;
                t.bytes += r.bytes;
                t.wall_ns += r.wall_ns;
            }
            None => total.rows.push(r),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Runs reps of `mode` until `budget` is spent, at least `min` of them.
fn reps_for<W: Workload>(
    w: &mut W,
    mode: Mode,
    budget: Duration,
    min: usize,
    rec: &mut Recorder,
    table: &mut ProfileReport,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min || start.elapsed() < budget {
        if mode == Mode::Traced {
            sim_obs::set_enabled(true);
            let _ = ProfileReport::collect_and_reset();
        }
        rec.begin("rep");
        let mut rep = w.rep(mode, rec);
        rec.end();
        if mode == Mode::Traced {
            sim_obs::set_enabled(false);
            drain_span_table(&mut rep, table);
        }
        reps.push(rep);
    }
    reps
}

/// Every deterministic value `b` shares with `a` must equal it bit for bit.
fn det_mismatches(a: &Vals, b: &Vals, what: &str, errors: &mut Vec<String>) {
    for (name, x) in a {
        if let Some((_, y)) = b.iter().find(|(n, _)| n == name) {
            if x.to_bits() != y.to_bits() {
                errors.push(format!("{what}: {name} read {x} then {y}"));
            }
        }
    }
}

/// Runs one workload under the shared discipline and assembles its report.
pub fn run<W: Workload>(args: RunArgs) -> Outcome {
    let mut rec = Recorder::new();
    let mut table = ProfileReport::default();
    let mut report = Report::default();
    let mut errors = Vec::new();

    // Set-up runs several times so `setup_s` is a median; set-ups of a few
    // milliseconds repeat for a quarter second, or a timer tick would show.
    // The previous instance is dropped first, so peak RSS holds one.
    let (mut setups, mut phases) = (Vec::new(), Vec::new());
    let mut w = None;
    let begun = Instant::now();
    while setups.len() < 5 || (begun.elapsed() < Duration::from_millis(250) && setups.len() < 99) {
        drop(w.take());
        let mut p = Phases::default();
        let t = Instant::now();
        w = Some(W::setup(args.seed, args.smoke, &mut p));
        setups.push(t.elapsed().as_secs_f64());
        phases.push(p);
    }
    let mut w = w.expect("set up at least once");
    report.set_median("setup_s", &setups);

    // The warm-up rep pays first-touch page faults and lazy statics.
    w.rep(Mode::Plain, &mut rec);

    let min_reps = if args.smoke { 2 } else { 3 };
    // A traced run spends a quarter of its budget on traced reps.
    let share = if args.trace { 0.75 } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds * share);
    let plain = reps_for(&mut w, Mode::Plain, budget, min_reps, &mut rec, &mut table);
    report.set("peak_rss_mb", peak_rss_mb(), 1);
    for r in &plain[1..] {
        det_mismatches(&plain[0].det, &r.det, "timed reps differ", &mut errors);
    }

    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    report.set_median("wall_s", &walls);
    let plain_wall = median(walls);
    let mut op_us: Vec<f64> = plain.iter().flat_map(|r| r.op_us.iter().copied()).collect();
    let mid = plain
        .iter()
        .min_by(|a, b| (a.wall_s - plain_wall).abs().total_cmp(&(b.wall_s - plain_wall).abs()))
        .expect("at least one timed rep");
    if op_us.is_empty() {
        // Ops overlap inside one simulation call: host time per op is the
        // median rep's wall over its op count.
        report.set("op_p50_us", mid.wall_s * 1e6 / mid.ops as f64, mid.ops as usize);
    } else {
        // Beside the median: the highest percentile the sample supports.
        let s = summarize(&mut op_us);
        let note = s.tail.map_or(String::new(), |(p, v)| format!("p{p}={v:.3}"));
        report.set_noted("op_p50_us", s.median, s.n, note);
        if let Some((name, q)) = W::TAIL {
            report.set(name, percentile(&op_us, q), s.n);
        }
    }

    // Verification: one oracle-checked rep, or traced reps that check too.
    let checked = if args.trace {
        rec.on = true;
        let budget = Duration::from_secs_f64(args.seconds * (1.0 - share));
        let reps = reps_for(&mut w, Mode::Traced, budget, 1, &mut rec, &mut table);
        let traced_wall = median(reps.iter().map(|r| r.wall_s).collect());
        report.set("obs.trace_overhead_frac", traced_wall / plain_wall - 1.0, reps.len());
        let (probes, _) = rec.timed("probes", |rec| w.probes(plain_wall, rec));
        rec.on = false;
        for (name, v) in probes {
            report.set(name, v, 1);
        }
        reps
    } else {
        reps_for(&mut w, Mode::Verify, Duration::ZERO, 1, &mut rec, &mut table)
    };
    // Zero observer effect: instruments on or off, the simulated world
    // and every counter read the same.
    det_mismatches(&plain[0].det, &checked[0].det, "observer effect", &mut errors);

    let last = checked.last().expect("at least one checked rep");
    for &(name, v) in plain[0].det.iter().chain(&last.det) {
        report.set(name, v, last.ops as usize);
    }
    // Host-time layer values come from the traced reps where there are
    // any (span-table times exist only there), else from the timed ones.
    let sources: &[&[Rep]] = if args.trace { &[&checked, &plain] } else { &[&plain] };
    for reps in sources {
        for &(name, _) in reps.iter().flat_map(|r| &r.vol) {
            if report.get(name).is_none() {
                let vals: Vec<f64> = reps
                    .iter()
                    .flat_map(|r| &r.vol)
                    .filter(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .collect();
                report.set_median(name, &vals);
            }
        }
    }
    if let (Some(deliveries), Some(frames)) =
        (report.get("manet.radio.deliver_calls"), report.get("manet.radio.tx_calls"))
    {
        report.set("manet.radio.fanout", deliveries / frames, frames as usize);
        report.set("manet.ns_per_delivery", plain_wall * 1e9 / deliveries, deliveries as usize);
    }
    if args.trace {
        let mid = |f: fn(&Phases) -> f64| median(phases.iter().map(f).collect());
        report.set("datagen.generate_s", mid(|p| p.generate_s), phases.len());
        report.set("datagen.partition_s", mid(|p| p.partition_s), phases.len());
        report.set("storage.build_s", mid(|p| p.build_s), phases.len());
        report.set("obs.spans_recorded", rec.spans.len() as f64, 1);

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.trace.jsonl", W::NAME));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_jsonl(&table)))
        {
            errors.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    let all = || plain.iter().chain(&checked);
    errors.extend(all().flat_map(|r| r.errors.iter().cloned()));
    Outcome {
        report,
        attempted: all().map(|r| r.ops).sum(),
        failed: all().map(|r| r.failed).sum(),
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_nests_spans_and_stays_inert_when_off() {
        let mut rec = Recorder::new();
        rec.begin("ignored");
        rec.end();
        assert!(rec.spans.is_empty());
        rec.on = true;
        rec.begin("rep");
        let (v, s) = rec.timed("child", |_| 7);
        rec.end();
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!((rec.spans[0].parent, rec.spans[1].parent), (0, 1));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        for line in rec.to_jsonl(&ProfileReport::default()).lines() {
            sim_obs::JsonValue::parse(line).expect("trace line is JSON");
        }
    }

    #[test]
    fn determinism_check_names_the_metric_that_moved() {
        let mut errors = Vec::new();
        det_mismatches(
            &vec![("drr", 0.5), ("hit_ratio", 1.0)],
            &vec![("drr", 0.25)],
            "x",
            &mut errors,
        );
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("drr"));
    }
}
