//! Warehouse-day ledger: the benchmark of the 2VNL/nVNL warehouse engine.
//!
//! ```text
//! wh-ledger --workload <warehouse-day|point-churn|durable-spill>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny] [--work-dir <dir>]
//! ```
//!
//! One process, two threads: a closed-loop reader (its next session starts
//! when the last one returns) and an open-loop maintenance thread on a
//! fixed schedule, GC and checkpoints inline. All inputs are generated from
//! the seed before any timer starts, every answer is checked against an
//! oracle, and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from spans the benchmark records around its own calls
//! into the engine plus quiescent decomposition probes, and the span dump
//! is written under the work directory. A wrong answer exits with code 1.

mod churn;
mod harness;
mod probe;
mod sales;
mod stats;
mod trace;
mod traced;
mod warehouse;

use harness::{Config, Kind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wh-ledger: {e}");
            std::process::exit(2);
        }
    };
    println!("# workload {}: {}", cfg.kind.name(), cfg.kind.why());
    let result = match cfg.kind {
        Kind::WarehouseDay | Kind::DurableSpill => warehouse::run(&cfg),
        Kind::PointChurn => churn::run(&cfg),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wh-ledger: {}: {e}", cfg.kind.name());
            std::process::exit(1);
        }
    };
    for w in report.wrong.iter().take(20) {
        eprintln!("wrong answer: {w}");
    }
    let mut code = 0;
    if !report.wrong.is_empty() {
        eprintln!("{} wrong answers", report.wrong.len());
        code = 1;
    }
    if !cfg.tiny && !report.short.is_empty() {
        for s in &report.short {
            eprintln!("too few samples: {s}");
        }
        code = 1;
    }
    println!("{}", report.json_line());
    std::process::exit(code);
}
