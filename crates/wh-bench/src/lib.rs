//! Shared experiment harness for the `warehouse-2vnl` benchmarks and
//! reports.
//!
//! Every table/figure/claim in the paper maps to a target here (see
//! DESIGN.md's experiment index):
//!
//! * report binaries (`src/bin/report_*.rs`) print the paper-shaped tables —
//!   storage overhead (E3), timeline/availability (E1/E2), expiration
//!   formula (E9), scheme comparison (E10), and the worked examples;
//! * micro-benches (`benches/*.rs`, via [`micro::Micro`]) measure the
//!   overhead claims (E13, E15) and the concurrency behaviour under load.

// lint: allow-file(no-panic) — bench harness: setup failures and oracle
// violations abort the run by design (a wrong answer must not produce a
// plausible-looking BENCH json).
pub mod json;
pub mod micro;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wh_cc::{CcError, ConcurrencyScheme, Mv2plStore, S2plStore, TwoV2plStore};
use wh_types::schema::daily_sales_schema;
use wh_types::{Date, Value};
use wh_vnl::{VnlStore, VnlTable};

/// Default lock-wait timeout for the blocking schemes in experiments.
pub const LOCK_TIMEOUT: Duration = Duration::from_millis(50);

/// Instantiate every scheme of the §6 comparison over `keys` tuples,
/// including the \[BC92b\] MV2PL page-cache refinement the paper's related
/// work discusses.
pub fn all_schemes(keys: u64) -> Vec<Box<dyn ConcurrencyScheme>> {
    vec![
        Box::new(S2plStore::populate(keys, LOCK_TIMEOUT).expect("populate S2PL")),
        Box::new(TwoV2plStore::populate(keys, LOCK_TIMEOUT).expect("populate 2V2PL")),
        Box::new(
            TwoV2plStore::populate_writer_priority(keys, LOCK_TIMEOUT).expect("populate 2V2PL-wp"),
        ),
        Box::new(Mv2plStore::populate(keys).expect("populate MV2PL")),
        Box::new(Mv2plStore::populate_with_cache(keys).expect("populate MV2PL+cache")),
        Box::new(VnlStore::populate(keys, 2).expect("populate 2VNL")),
    ]
}

/// Outcome of one mixed reader/maintenance run.
#[derive(Debug, Clone)]
pub struct MixedRunReport {
    /// Scheme name.
    pub scheme: String,
    /// Total successful tuple reads across all reader sessions.
    pub reads_ok: u64,
    /// Reader operations that failed (lock-timeout aborts, expiration).
    pub reads_failed: u64,
    /// Reader sessions that had to restart.
    pub sessions_restarted: u64,
    /// Maintenance rounds committed.
    pub commits: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Blocking instrumentation.
    pub cc: wh_cc::CcStatsSnapshot,
    /// Logical I/O.
    pub io: wh_storage::iostats::IoSnapshot,
    /// Storage footprint at the end (bytes).
    pub storage_bytes: u64,
}

/// Run `reader_threads` readers (each performing sessions of
/// `reads_per_session` point reads over a `keys`-tuple store) concurrently
/// with a maintenance writer that updates every key once per round for
/// `rounds` rounds. Readers that hit an abort/expiration restart their
/// session. This is the E10 workload: one batch writer, many long readers.
pub fn mixed_run(
    scheme: &dyn ConcurrencyScheme,
    keys: u64,
    reader_threads: usize,
    reads_per_session: u64,
    rounds: u64,
) -> MixedRunReport {
    scheme.reset_stats();
    let reads_ok = AtomicU64::new(0);
    let reads_failed = AtomicU64::new(0);
    let restarts = AtomicU64::new(0);
    let commits = AtomicU64::new(0);
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // All threads start together so scheme throughputs are comparable.
    let barrier = Arc::new(std::sync::Barrier::new(reader_threads + 1));
    let start = Instant::now();
    std::thread::scope(|s| {
        // Maintenance thread.
        {
            let done = Arc::clone(&done);
            let commits = &commits;
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                for round in 0..rounds {
                    let mut w = scheme.begin_writer();
                    let mut ok = true;
                    for k in 0..keys {
                        if w.update(k, (round + 1) as i64).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        if w.commit().is_ok() {
                            commits.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                        }
                    } else {
                        let _ = w.abort();
                    }
                }
                done.store(true, Ordering::SeqCst); // ordering: stop-flag SeqCst — stop flag on a cold path; strongest order costs nothing here
            });
        }
        // Reader threads: keep running sessions until maintenance finishes.
        for t in 0..reader_threads {
            let done = Arc::clone(&done);
            let reads_ok = &reads_ok;
            let reads_failed = &reads_failed;
            let restarts = &restarts;
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                let mut k = t as u64;
                // Every reader runs at least one full session even when
                // maintenance finishes first, so throughput is never zero.
                loop {
                    let mut r = scheme.begin_reader();
                    let mut failed = false;
                    for _ in 0..reads_per_session {
                        k = k
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407)
                            % keys;
                        match r.read(k) {
                            Ok(_) => {
                                reads_ok.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                            }
                            Err(CcError::Aborted | CcError::VersionUnavailable(_)) => {
                                reads_failed.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                                failed = true;
                                break;
                            }
                            Err(e) => panic!("unexpected reader error: {e}"),
                        }
                    }
                    r.finish();
                    if failed {
                        restarts.fetch_add(1, Ordering::Relaxed); // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                    }
                    // ordering: stop-flag SeqCst — stop flag on a cold path; strongest order costs nothing here
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                }
            });
        }
    });
    MixedRunReport {
        scheme: scheme.name().to_string(),
        reads_ok: reads_ok.load(Ordering::Relaxed), // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
        reads_failed: reads_failed.load(Ordering::Relaxed), // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
        sessions_restarted: restarts.load(Ordering::Relaxed), // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
        commits: commits.load(Ordering::Relaxed), // ordering: stat-counter Relaxed — statistical read; tearing across cells is acceptable
        elapsed: start.elapsed(),
        cc: scheme.cc_stats(),
        io: scheme.io_stats(),
        storage_bytes: scheme.storage_bytes(),
    }
}

/// Render an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(
        &headers
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>(),
    );
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

// ---------------------------------------------------------------------
// Report-binary harness: the DailySales relation the scan and overhead
// reports measure, wall-clock estimators, and the E20/E24 overhead gate.
// ---------------------------------------------------------------------

/// Size and repeat counts of the E20/E24 overhead reports
/// (`report_obs`, `report_trace`); `WH_BENCH_QUICK=1` selects the small
/// CI shape.
pub struct OverheadConfig {
    /// Cities in the relation.
    pub cities: usize,
    /// Product lines per city.
    pub lines: usize,
    /// Sale dates per (city, line).
    pub days: usize,
    /// Timed runs behind each probe's best-of-N.
    pub scan_repeats: usize,
    /// Maintenance rounds in the workload phase.
    pub maintenance_rounds: usize,
    /// Reader threads in the workload phase.
    pub reader_threads: usize,
    /// Whether `WH_BENCH_QUICK` was set.
    pub quick: bool,
}

impl OverheadConfig {
    /// The shape for this run: 10k rows in quick mode, else 100k.
    pub fn from_env() -> OverheadConfig {
        let quick = std::env::var("WH_BENCH_QUICK").is_ok();
        if quick {
            OverheadConfig {
                cities: 25,
                lines: 8,
                days: 50,
                scan_repeats: 15,
                maintenance_rounds: 4,
                reader_threads: 2,
                quick,
            }
        } else {
            OverheadConfig {
                cities: 125,
                lines: 16,
                days: 50,
                scan_repeats: 15,
                maintenance_rounds: 8,
                reader_threads: 4,
                quick,
            }
        }
    }

    /// Rows in the relation.
    pub fn rows(&self) -> usize {
        self.cities * self.lines * self.days
    }
}

/// The first `days` sale dates: Oct 1–25, then Nov 1–25, 1996 (the paper's
/// running window).
pub fn sale_dates(days: usize) -> Vec<Date> {
    (0..days)
        .map(|d| {
            if d < 25 {
                Date::ymd(1996, 10, (d + 1) as u8)
            } else {
                Date::ymd(1996, 11, (d - 25 + 1) as u8)
            }
        })
        .collect()
}

/// A 2VNL DailySales relation (paper Example 2.1) loaded with one row per
/// (city, product line, date): `cities × lines × days` rows.
pub fn daily_sales_table(cities: usize, lines: usize, days: usize) -> VnlTable {
    let t =
        VnlTable::create_named("DailySales", daily_sales_schema(), 2).expect("create DailySales");
    let dates = sale_dates(days);
    let mut rows = Vec::with_capacity(cities * lines * days);
    for c in 0..cities {
        for l in 0..lines {
            for d in &dates {
                rows.push(vec![
                    Value::from(format!("City-{c:03}").as_str()),
                    Value::from("CA"),
                    Value::from(format!("line-{l:02}").as_str()),
                    Value::from(*d),
                    Value::from(((c * 7 + l * 13) % 100) as i64 * 100),
                ]);
            }
        }
    }
    t.load_initial(&rows).expect("load DailySales");
    t
}

/// Wall-clock milliseconds of one run of `f`.
pub fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of `samples` (the upper one for an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median of `runs` timed executions of `f`, in milliseconds.
pub fn median_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    median((0..runs).map(|_| time_ms(&mut f)).collect())
}

/// Best (minimum) wall-clock milliseconds of `repeats` runs of `f`, after
/// two discarded warmup runs. The overhead gates compare two separate
/// process invocations on a possibly noisy CI box; the minimum is the
/// standard noise-robust estimator for "how fast can this code go", where a
/// median still jitters by several percent run to run.
pub fn best_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    (0..repeats)
        .map(|_| time_ms(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// `"name": value` pulled out of a rendered JSON document by string search —
/// the repo has no JSON parser dependency, and the documents are written by
/// our own [`json`] with a stable `"key": value` shape.
fn extract_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Fold the probe numbers of a previous invocation's output `doc` into
/// `probes`, keeping the per-probe minimum.
pub fn merge_prior_probes(doc: &str, probes: &mut [(&'static str, f64)]) {
    for (name, ms) in probes {
        if let Some(old) = extract_number(doc, name) {
            *ms = ms.min(old);
        }
    }
}

/// Compare this run's probe numbers against an instrumentation-disabled
/// baseline JSON and exit nonzero if the geometric-mean overhead exceeds
/// the gate: the percentage in env var `gate_var`, default 5%. `what`
/// names the instrumentation in the failure line. No-op without a
/// baseline path.
pub fn check_overhead(
    baseline: Option<&str>,
    probes: &[(&'static str, f64)],
    gate_var: &str,
    what: &str,
) {
    let Some(path) = baseline else { return };
    let base_doc =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    let gate_pct: f64 = std::env::var(gate_var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    println!("\noverhead check (geomean across probes, gate {gate_pct:.1}%):");
    let mut log_ratio_sum = 0.0;
    for (name, ms) in probes {
        let base = extract_number(&base_doc, name)
            .unwrap_or_else(|| panic!("baseline {path} missing {name}"));
        let ratio = ms / base;
        log_ratio_sum += ratio.ln();
        println!(
            "  {name:24} {ms:8.3} ms vs {base:8.3} ms ({:+.2}%)",
            (ratio - 1.0) * 100.0
        );
    }
    let geomean = (log_ratio_sum / probes.len() as f64).exp();
    let overhead_pct = (geomean - 1.0) * 100.0;
    println!("  geomean overhead {overhead_pct:+.2}%");
    if overhead_pct > gate_pct {
        eprintln!("FAIL: enabled-{what} overhead exceeds the {gate_pct:.1}% gate");
        std::process::exit(1);
    }
    println!("overhead within gate");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_cover_the_section_6_lineup() {
        let schemes = all_schemes(4);
        let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["S2PL", "2V2PL", "2V2PL-wp", "MV2PL", "MV2PL+cache", "2VNL"]
        );
    }

    #[test]
    fn mixed_run_2vnl_never_blocks() {
        let store = VnlStore::populate(32, 2).unwrap();
        let report = mixed_run(&store, 32, 2, 16, 3);
        assert_eq!(report.commits, 3);
        assert!(report.reads_ok > 0);
        assert_eq!(report.cc.total_blocks(), 0);
    }

    #[test]
    fn mixed_run_mv2pl_completes() {
        let store = Mv2plStore::populate(32).unwrap();
        let report = mixed_run(&store, 32, 2, 16, 3);
        assert_eq!(report.commits, 3);
        assert_eq!(report.cc.total_blocks(), 0);
    }

    #[test]
    fn mixed_run_s2pl_shows_friction() {
        // Guaranteed contention: a reader pins key 0 with an S lock while
        // the writer tries to update everything.
        let store = S2plStore::populate(32, Duration::from_millis(5)).unwrap();
        let mut pin = store.begin_reader();
        pin.read(0).unwrap();
        let report = mixed_run(&store, 32, 2, 8, 3);
        pin.finish();
        // The writer must have aborted against the pinned S lock.
        assert!(report.cc.aborts > 0 || report.commits < 3, "{report:?}");
    }
}
