//! Experiment E18 — parallel partitioned scan scaling.
//!
//! The §6 experiments argue 2VNL adds almost nothing to *reader* cost; this
//! report measures the other half of that bargain: how fast the reader hot
//! path goes when the heap scan is partitioned across threads, with Table 1
//! visibility evaluated over gathered page batches and projection
//! pushdown. Three workloads over a DailySales relation (paper Example
//! 2.1), each at 1/2/4/8 threads, each with and without an active
//! maintenance transaction (which double-slots a share of the tuples, so
//! version extraction really runs):
//!
//! * `scan` — full-relation visitor scan, all columns.
//! * `filter` — `WHERE total_sales >= :cutoff` with a 2-column projection,
//!   streamed through the SQL executor.
//! * `aggregate` — `GROUP BY product_line` SUM, folded into per-worker
//!   partial aggregate maps merged at the end.
//!
//! Every probe is timed in rounds paired with a `reference` probe on the
//! same relation, session and thread count: the raw extended heap
//! (`VnlTable::scan_raw`, or a partitioned raw decode beyond one thread)
//! through the Table 1 spec (`visibility::extract`), tuple by tuple. The
//! median per-round ratio is the within-run figure `bench_check` (E22)
//! gates on, so the gate compares the scan pipeline against a fixed
//! yardstick rather than raw milliseconds across machines.
//!
//! Writes machine-readable results to `BENCH_scan.json` (override with
//! `WH_BENCH_OUT`). `WH_BENCH_QUICK=1` shrinks the relation for CI smoke
//! runs and times more rounds of it, so the gated ratios stay steady.

use std::sync::atomic::{AtomicU64, Ordering};
use wh_bench::json::{self, Json};
use wh_bench::{daily_sales_table, median, print_table, time_ms};
use wh_sql::Params;
use wh_types::Value;
use wh_vnl::visibility::{extract, Visible};
use wh_vnl::{ReaderSession, VnlTable};

struct Config {
    cities: usize,
    lines: usize,
    days: usize,
    repeats: usize,
    quick: bool,
}

impl Config {
    fn from_env() -> Config {
        let quick = std::env::var("WH_BENCH_QUICK").is_ok();
        if quick {
            // 25 x 8 x 50 = 10k rows: enough pages to partition, fast in CI.
            // 41 paired rounds keep the gated ratios' run-to-run spread
            // within ~1.2x on a shared 2-vCPU host (EXPERIMENTS.md E22).
            Config {
                cities: 25,
                lines: 8,
                days: 50,
                repeats: 41,
                quick,
            }
        } else {
            // 125 x 16 x 50 = 100k rows, the ISSUE target size.
            Config {
                cities: 125,
                lines: 16,
                days: 50,
                repeats: 5,
                quick,
            }
        }
    }

    fn rows(&self) -> usize {
        self.cities * self.lines * self.days
    }
}

struct Measurement {
    workload: &'static str,
    maintenance_active: bool,
    threads: usize,
    /// Median wall-clock milliseconds of the probe.
    median_ms: f64,
    /// Median wall-clock milliseconds of the reference probe paired with it.
    reference_ms: f64,
    /// Median over rounds of probe ms / reference ms (lower is better).
    ratio: f64,
}

/// Time `repeats` rounds of `probe`, each back to back with `reference`
/// (alternating which goes first), so a host that slows down mid-run moves
/// both sides of a round alike; the per-round ratio is what the gate reads.
/// One untimed round first lets lazy set-up (allocator arenas, first-touch
/// pages at a new thread count) finish outside the timings.
fn paired(repeats: usize, reference: &mut dyn FnMut(), probe: &mut dyn FnMut()) -> (f64, f64, f64) {
    reference();
    probe();
    let (mut probes, mut references) = (Vec::new(), Vec::new());
    for round in 0..repeats {
        if round % 2 == 0 {
            references.push(time_ms(&mut *reference));
            probes.push(time_ms(&mut *probe));
        } else {
            probes.push(time_ms(&mut *probe));
            references.push(time_ms(&mut *reference));
        }
    }
    let ratios = probes.iter().zip(&references).map(|(p, r)| p / r).collect();
    (median(probes), median(references), median(ratios))
}

/// The reference probe: every raw extended row through the Table 1 spec at
/// the session's VN, on as many threads as the probe it is paired with (a
/// partitioned raw-heap decode beyond one thread), so the ratio cancels
/// how many cores the host grants at that moment. Returns the visible-row
/// count.
fn reference_scan(table: &VnlTable, session: &ReaderSession<'_>, threads: usize) -> usize {
    let visible = |ext: &[Value]| match extract(table.layout(), ext, session.session_vn()) {
        Visible::Row(_) => true,
        Visible::Ignore => false,
        Visible::Expired => panic!("reference probe session expired"),
    };
    if threads == 1 {
        let raw = table.scan_raw().expect("raw scan");
        return raw.iter().filter(|(_, ext)| visible(ext)).count();
    }
    let n = AtomicU64::new(0);
    table
        .storage()
        .scan_parallel(&mut vec![(); threads], |(), _, ext| {
            if visible(&ext) {
                n.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })
        .expect("raw parallel scan");
    n.into_inner() as usize
}

fn run_workloads(
    table: &VnlTable,
    cfg: &Config,
    maintenance_active: bool,
    expected_rows: usize,
    out: &mut Vec<Measurement>,
) {
    let session = table.begin_session();
    let filter_sql = "SELECT city, total_sales FROM DailySales WHERE total_sales >= 5000";
    let agg_sql = "SELECT product_line, SUM(total_sales) FROM DailySales GROUP BY product_line";
    for &threads in &[1usize, 2, 4, 8] {
        let mut reference = || assert_eq!(reference_scan(table, &session, threads), expected_rows);
        // Full scan: count rows through the visitor API.
        let mut scan = || {
            let n = AtomicU64::new(0);
            if threads == 1 {
                session
                    .scan_with(|_| {
                        n.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    })
                    .expect("serial scan");
            } else {
                session
                    .scan_parallel(threads, |_, _| {
                        n.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    })
                    .expect("parallel scan");
            }
            assert_eq!(n.load(Ordering::Relaxed) as usize, expected_rows);
        };
        // Filtered scan through the streaming executor.
        let mut filter = || {
            let r = if threads == 1 {
                session.query(filter_sql).expect("filter query")
            } else {
                session
                    .query_parallel(filter_sql, threads)
                    .expect("filter query")
            };
            assert!(!r.rows.is_empty());
        };
        // Grouped aggregate with per-worker partial maps.
        let mut aggregate = || {
            let r = if threads == 1 {
                session.query(agg_sql).expect("aggregate query")
            } else {
                session
                    .query_parallel(agg_sql, threads)
                    .expect("aggregate query")
            };
            assert_eq!(r.rows.len(), cfg.lines);
        };
        let probes: [(&'static str, &mut dyn FnMut()); 3] = [
            ("scan", &mut scan),
            ("filter", &mut filter),
            ("aggregate", &mut aggregate),
        ];
        for (workload, probe) in probes {
            let (median_ms, reference_ms, ratio) = paired(cfg.repeats, &mut reference, probe);
            out.push(Measurement {
                workload,
                maintenance_active,
                threads,
                median_ms,
                reference_ms,
                ratio,
            });
        }
    }
    session.finish();
}

fn lookup_ms(results: &[Measurement], workload: &str, active: bool, threads: usize) -> f64 {
    results
        .iter()
        .find(|m| m.workload == workload && m.maintenance_active == active && m.threads == threads)
        .map_or(f64::NAN, |m| m.median_ms)
}

fn main() {
    let cfg = Config::from_env();
    println!(
        "E18/E22: scan scaling against the extract reference ({} rows{})\n",
        cfg.rows(),
        if cfg.quick { ", quick mode" } else { "" }
    );

    let table = daily_sales_table(cfg.cities, cfg.lines, cfg.days);
    let mut results: Vec<Measurement> = Vec::new();

    // Phase 1: quiescent relation, every tuple single-slotted.
    run_workloads(&table, &cfg, false, cfg.rows(), &mut results);

    // Phase 2: an active maintenance transaction has updated every tuple of
    // one city per 5 (20% of the relation double-slotted). The session is
    // pinned before the transaction began, so Table 1 routes it to the
    // pre-update slots — version extraction does real work.
    let txn = table.begin_maintenance().expect("begin maintenance");
    let mut touched = 0;
    for c in (0..cfg.cities).step_by(5) {
        touched += txn
            .execute_sql(
                &format!(
                    "UPDATE DailySales SET total_sales = total_sales + 1 \
                     WHERE city = 'City-{c:03}'"
                ),
                &Params::new(),
            )
            .expect("maintenance update");
    }
    println!("maintenance transaction active: {touched} tuples double-slotted\n");
    run_workloads(&table, &cfg, true, cfg.rows(), &mut results);
    txn.abort().expect("abort maintenance");

    // Human-readable table. `speedup` scales against the same workload's
    // 1-thread run; `ratio` is the probe's time over its paired reference's
    // (median of per-round ratios; below 1 means faster than the spec).
    let mut rows = Vec::new();
    for m in &results {
        let base = lookup_ms(&results, m.workload, m.maintenance_active, 1);
        rows.push(vec![
            m.workload.to_string(),
            if m.maintenance_active { "yes" } else { "no" }.to_string(),
            m.threads.to_string(),
            format!("{:.2}", m.median_ms),
            format!("{:.2}", m.reference_ms),
            format!("{:.2}x", base / m.median_ms),
            format!("{:.3}", m.ratio),
        ]);
    }
    print_table(
        &[
            "workload",
            "maintenance",
            "threads",
            "median ms",
            "reference ms",
            "speedup",
            "ratio",
        ],
        &rows,
    );

    // Machine-readable JSON.
    let doc = Json::obj([
        ("experiment", "E18/E22".into()),
        ("rows", cfg.rows().into()),
        ("quick", cfg.quick.into()),
        ("repeats", cfg.repeats.into()),
        (
            "results",
            Json::Array(
                results
                    .iter()
                    .map(|m| {
                        let base = lookup_ms(&results, m.workload, m.maintenance_active, 1);
                        Json::obj([
                            ("workload", m.workload.into()),
                            ("maintenance_active", m.maintenance_active.into()),
                            ("threads", m.threads.into()),
                            ("median_ms", Json::Fixed(m.median_ms, 3)),
                            ("reference_ms", Json::Fixed(m.reference_ms, 3)),
                            ("speedup_vs_1", Json::Fixed(base / m.median_ms, 3)),
                            ("ratio_vs_reference", Json::Fixed(m.ratio, 4)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    json::write_report("BENCH_scan.json", &doc);

    // The acceptance bars, reported (not asserted, so the binary stays
    // usable on small CI machines): the serial full-scan and filter probes
    // against the reference, and thread scaling at 4 threads on the
    // grouped aggregate — each with and without active maintenance.
    for active in [false, true] {
        let phase = if active {
            "maintenance active"
        } else {
            "quiescent"
        };
        for workload in ["scan", "filter"] {
            let m = results
                .iter()
                .find(|m| {
                    m.workload == workload && m.maintenance_active == active && m.threads == 1
                })
                .expect("1-thread probe");
            println!(
                "{workload} vs reference at 1 thread ({phase}): {:.2}x",
                1.0 / m.ratio
            );
        }
        let base = lookup_ms(&results, "aggregate", active, 1);
        let at4 = lookup_ms(&results, "aggregate", active, 4);
        println!(
            "aggregate speedup at 4 threads ({phase}): {:.2}x",
            base / at4
        );
    }
}
