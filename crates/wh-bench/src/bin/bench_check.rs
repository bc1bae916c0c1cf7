//! CI bench-smoke regression gate for the batched scan pipeline.
//!
//! Usage: `bench_check <fresh.json> [baseline.json] [max-regress-pct]`
//! (defaults: `BENCH_scan.json`, `20`).
//!
//! Raw medians are not comparable across machines — the committed
//! baseline was produced on a dev box, the fresh run on whatever CI got
//! scheduled. What *is* comparable is the within-run ratio
//! `batched_ms / reference_ms` for each probe (`ratio_vs_reference`: the
//! median over rounds), where the reference is a `visibility::extract`
//! pass over the raw heap timed back to back with the probe: both ran in
//! the same process on the same relation and session, so machine speed
//! cancels. The gate recomputes that ratio for every `(workload,
//! maintenance, threads)` probe in both documents and fails when the
//! fresh ratio is more than `max-regress-pct` percent worse than the
//! baseline's — i.e. when the batched pipeline lost ground against the
//! Table 1 spec it is tested against.
//!
//! Exits non-zero on any regression, missing probe, or unparseable input.

use wh_bench::json::{self, Json};
use wh_bench::print_table;

/// One probe's batched/reference median ratio (lower is better).
struct Probe {
    workload: String,
    maintenance: bool,
    threads: u64,
    ratio: f64,
}

fn load_probes(path: &str) -> Result<Vec<Probe>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no results array"))?;

    let field = |r: &Json, key: &str| -> Result<f64, String> {
        r.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: result missing numeric '{key}'"))
    };
    let mut probes = Vec::new();
    for r in results {
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: result missing 'workload'"))?
            .to_string();
        let maintenance = r
            .get("maintenance_active")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{path}: result missing 'maintenance_active'"))?;
        let threads = field(r, "threads")? as u64;
        let ratio = field(r, "ratio_vs_reference")?;
        if ratio <= 0.0 {
            return Err(format!("{path}: non-positive ratio for {workload}"));
        }
        probes.push(Probe {
            workload,
            maintenance,
            threads,
            ratio,
        });
    }
    if probes.is_empty() {
        return Err(format!("{path}: no batched-pipeline probes"));
    }
    Ok(probes)
}

fn run(fresh_path: &str, baseline_path: &str, max_regress_pct: f64) -> Result<usize, String> {
    let fresh = load_probes(fresh_path)?;
    let baseline = load_probes(baseline_path)?;

    let mut rows = Vec::new();
    let mut failures = 0usize;
    for f in &fresh {
        let Some(b) = baseline.iter().find(|b| {
            b.workload == f.workload && b.maintenance == f.maintenance && b.threads == f.threads
        }) else {
            // A probe the baseline predates is informational, not gated.
            continue;
        };
        let regress_pct = (f.ratio / b.ratio - 1.0) * 100.0;
        let failed = regress_pct > max_regress_pct;
        failures += usize::from(failed);
        rows.push(vec![
            f.workload.clone(),
            if f.maintenance { "yes" } else { "no" }.to_string(),
            f.threads.to_string(),
            format!("{:.3}", b.ratio),
            format!("{:.3}", f.ratio),
            format!("{regress_pct:+.1}%"),
            if failed { "FAIL" } else { "ok" }.to_string(),
        ]);
    }
    if rows.is_empty() {
        return Err("no probes shared between fresh run and baseline".to_string());
    }
    println!(
        "bench_check: batched/reference ratio, fresh ({fresh_path}) vs baseline \
         ({baseline_path}), gate at +{max_regress_pct:.0}%\n"
    );
    print_table(
        &[
            "workload",
            "maintenance",
            "threads",
            "base ratio",
            "fresh ratio",
            "regression",
            "verdict",
        ],
        &rows,
    );
    Ok(failures)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fresh = args.first().map_or("BENCH_scan.json", String::as_str);
    let baseline = args.get(1).map_or("BENCH_scan.json", String::as_str);
    let max_regress_pct: f64 = args
        .get(2)
        .map_or(Ok(20.0), |s| s.parse())
        .expect("max-regress-pct must be a number");

    match run(fresh, baseline, max_regress_pct) {
        Ok(0) => println!("\nbench_check: no regressions"),
        Ok(n) => {
            println!("\nbench_check: {n} probe(s) regressed more than {max_regress_pct:.0}%");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("bench_check: {e}");
            std::process::exit(1);
        }
    }
}
