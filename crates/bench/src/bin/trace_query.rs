//! **Observability demo**: replay the pinned fault-plan scenario and print
//! one query's hop-by-hop timeline — see [`msq_bench::trace_query`] for
//! the scenario design.
//!
//! Usage: `cargo run --release -p msq-bench --bin trace_query
//! [--query O:C] [--jsonl PATH] [--csv PATH]`
//!
//! `--query` picks the narrated query (default: the most eventful one);
//! `--jsonl` / `--csv` additionally export the full trace with the stable
//! schemas (the JSONL export is what CI diffs against the committed
//! golden).

use dist_skyline::{trace_to_csv, trace_to_jsonl};
use manet_sim::QueryId;
use msq_bench::provenance::write_baseline;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn main() -> Result<(), String> {
    let focus = arg_value("--query").map(|s| {
        let (o, c) = s
            .split_once(':')
            .unwrap_or_else(|| panic!("--query expects ORIGIN:CNT, got `{s}`"));
        QueryId {
            origin: o.parse().unwrap_or_else(|_| panic!("bad origin `{o}`")),
            cnt: c.parse().unwrap_or_else(|_| panic!("bad cnt `{c}`")),
        }
    });

    let out = msq_bench::trace_query::run();
    print!("{}", msq_bench::trace_query::report(&out, focus));

    let log = out.query_trace.as_ref().expect("scenario enables tracing");
    if let Some(path) = arg_value("--jsonl") {
        write_baseline(&path, &trace_to_jsonl(log))?;
    }
    if let Some(path) = arg_value("--csv") {
        write_baseline(&path, &trace_to_csv(log))?;
    }
    Ok(())
}
