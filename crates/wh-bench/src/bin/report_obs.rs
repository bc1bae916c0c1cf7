//! Experiment E20 — the unified observability layer under load.
//!
//! Runs the E18 reader/maintenance workload with every `wh-obs` metric
//! live, then dumps one `Registry::snapshot()`: reader staleness
//! (`currentVN − sessionVN`) distribution while maintenance transactions
//! commit under the readers, decision-table arm counters, maintenance phase
//! timings, GC reclaim latencies and horizon lag, latch waits, and the
//! per-scheme `cc.*` lock-wait histograms from a short §6 mixed run.
//!
//! Also measures the numbers the CI overhead gate rides on: six
//! independent hot-loop probes (full scan, projected scan, point lookups,
//! an aggregate query, a maintenance update round, a raw heap scan). Build once with default features
//! and once with `--no-default-features` (all instrumentation compiled
//! out), run both, and compare the geometric mean of the probe ratios:
//!
//! ```text
//! report_obs                              # writes BENCH_obs.json
//! report_obs --check-overhead base.json   # exits 1 if >5% slower than base
//! ```
//!
//! Best-of-N inside one process converges, but the process itself is a
//! sample: address-space layout shifts cache/TLB aliasing enough to move a
//! hot loop several percent between invocations of the *same* binary. The
//! gate therefore runs each build a few times and takes the per-probe
//! minimum across processes: `--probes-only` skips the workload phases so
//! the extra invocations stay cheap, and `--merge-probes` folds the
//! existing output file's probe numbers in (per-probe min) before writing.
//!
//! `WH_BENCH_QUICK=1` shrinks the relation and repeat counts for CI;
//! `WH_BENCH_OUT` overrides the output path; `WH_OBS_OVERHEAD_PCT`
//! overrides the 5% gate.

use std::sync::atomic::{AtomicU64, Ordering};
use wh_bench::json::{self, Json};
use wh_bench::{
    all_schemes, best_ms, check_overhead, daily_sales_table, merge_prior_probes, mixed_run,
    print_table, sale_dates, OverheadConfig,
};
use wh_sql::Params;
use wh_types::Value;
use wh_vnl::VnlTable;

/// The overhead-gate probes: six independent hot loops over the quiescent
/// relation, each reported as its best-of-N wall clock.
///
/// Comparing a *single* loop across two binaries measures that binary's
/// code layout as much as the instrumentation — the same monomorphized
/// scan loop shifting across an icache-line boundary between builds moves
/// its time by ~5% on this workload, dwarfing the real cost of the
/// compiled-in metrics (measured in-process at well under 1%). Each
/// probe's alignment luck is independent, so the gate compares the
/// geometric mean of the per-probe ratios, which converges on the true
/// instrumentation overhead instead of one loop's placement.
fn overhead_probes(table: &VnlTable, cfg: &OverheadConfig) -> Vec<(&'static str, f64)> {
    let rows = cfg.rows();
    let session = table.begin_session();

    // The E18 serial hot path: full-relation streaming scan.
    let scan = best_ms(cfg.scan_repeats, || {
        let n = AtomicU64::new(0);
        session
            .scan_with(|_| {
                n.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .expect("serial scan");
        assert_eq!(n.load(Ordering::Relaxed) as usize, rows);
    });

    // Projection pushdown: only city and total_sales are decoded.
    let projected = best_ms(cfg.scan_repeats, || {
        let n = AtomicU64::new(0);
        session
            .scan_projected_with(&[0, 4], |_| {
                n.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .expect("projected scan");
        assert_eq!(n.load(Ordering::Relaxed) as usize, rows);
    });

    // Point reads: the first day of one product line in every city.
    let first_day = sale_dates(cfg.days)[0];
    let keys: Vec<Vec<Value>> = (0..cfg.cities)
        .map(|c| {
            vec![
                Value::from(format!("City-{c:03}").as_str()),
                Value::from("CA"),
                Value::from("line-00"),
                Value::from(first_day),
                Value::from(0i64),
            ]
        })
        .collect();
    let lookup = best_ms(cfg.scan_repeats, || {
        for key in &keys {
            assert!(
                session.read_by_key(key).expect("read_by_key").is_some(),
                "probe key must resolve"
            );
        }
    });

    // The executor path: parse + grouped aggregate over the relation.
    let sql = best_ms(cfg.scan_repeats, || {
        let res = session
            .query("SELECT city, SUM(total_sales) FROM DailySales GROUP BY city")
            .expect("aggregate query");
        assert_eq!(res.rows.len(), cfg.cities);
    });
    session.finish();

    // The maintenance mutation path: each rep runs one decision-table
    // round — update every day of one product line in one city — and
    // commits, exercising modify/update latching and the arm counters.
    let update = best_ms(cfg.scan_repeats, || {
        let txn = table.begin_maintenance().expect("probe begin");
        txn.execute_sql(
            "UPDATE DailySales SET total_sales = total_sales + 1 \
             WHERE city = 'City-000' AND product_line = 'line-00'",
            &Params::new(),
        )
        .expect("probe update");
        txn.commit().expect("probe commit");
    });

    // Raw storage below the 2VNL layer: latch + page iteration only.
    let heap = wh_storage::HeapFile::new(128, std::sync::Arc::new(wh_storage::IoStats::new()))
        .expect("probe heap");
    for i in 0..10_000u64 {
        heap.insert(&[(i % 251) as u8; 128]).expect("probe insert");
    }
    let heap_ms = best_ms(cfg.scan_repeats, || {
        let n = AtomicU64::new(0);
        heap.scan(|_, _| {
            n.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .expect("heap scan");
        assert_eq!(n.load(Ordering::Relaxed), 10_000);
    });

    vec![
        ("probe_scan_ms", scan),
        ("probe_scan_projected_ms", projected),
        ("probe_lookup_ms", lookup),
        ("probe_sql_agg_ms", sql),
        ("probe_update_txn_ms", update),
        ("probe_heap_scan_ms", heap_ms),
    ]
}

/// The concurrency phase: readers scanning in sessions (restarting on
/// expiration) while maintenance commits `rounds` of updates plus a
/// delete/re-insert churn that leaves logically-deleted tuples for the GC
/// collector sweeping alongside. Returns (reads_ok, sessions, commits).
fn reader_maintenance_phase(
    table: &std::sync::Arc<VnlTable>,
    cfg: &OverheadConfig,
) -> (u64, u64, u64) {
    let reads_ok = AtomicU64::new(0);
    let sessions = AtomicU64::new(0);
    let commits = AtomicU64::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    let collector = wh_vnl::gc::Collector::spawn(
        std::sync::Arc::clone(table),
        std::time::Duration::from_millis(2),
    );
    std::thread::scope(|s| {
        // Maintenance: each round bumps one city-in-5's sales and churns one
        // city through delete + re-insert (Table 4 row 1 then Table 2 row 3
        // or a resurrection, feeding the GC).
        s.spawn(|| {
            for round in 0..cfg.maintenance_rounds {
                let txn = table.begin_maintenance().expect("begin maintenance");
                for c in (round % 5..cfg.cities).step_by(5) {
                    txn.execute_sql(
                        &format!(
                            "UPDATE DailySales SET total_sales = total_sales + 1 \
                             WHERE city = 'City-{c:03}'"
                        ),
                        &Params::new(),
                    )
                    .expect("maintenance update");
                }
                let churn_city = format!("City-{:03}", round % cfg.cities);
                txn.execute_sql(
                    &format!("DELETE FROM DailySales WHERE city = '{churn_city}'"),
                    &Params::new(),
                )
                .expect("maintenance delete");
                txn.commit().expect("commit");
                commits.fetch_add(1, Ordering::Relaxed);
                // Give GC a window where the deleted tuples are collectable,
                // then restore the city so the next rounds see full size.
                std::thread::sleep(std::time::Duration::from_millis(5));
                let txn = table.begin_maintenance().expect("begin maintenance");
                let dates = sale_dates(cfg.days);
                for l in 0..cfg.lines {
                    for d in &dates {
                        txn.insert(vec![
                            Value::from(churn_city.as_str()),
                            Value::from("CA"),
                            Value::from(format!("line-{l:02}").as_str()),
                            Value::from(*d),
                            Value::from(((round * 7 + l * 13) % 100) as i64 * 100),
                        ])
                        .expect("maintenance re-insert");
                    }
                }
                txn.commit().expect("commit");
                commits.fetch_add(1, Ordering::Relaxed);
            }
            done.store(true, Ordering::SeqCst);
        });
        // Readers: sessions of scans, expiration handled by the shared
        // retry discipline (§4.1's "begin a new session", with bounded
        // attempts and jittered backoff) instead of a hand-rolled restart.
        for seed in 0..cfg.reader_threads as u64 {
            let (reads_ok, sessions, done) = (&reads_ok, &sessions, &done);
            s.spawn(move || {
                let retry = wh_vnl::RetryPolicy::default()
                    .with_max_attempts(64)
                    .with_seed(seed);
                while !done.load(Ordering::SeqCst) {
                    let (res, stats) = retry.run_with_stats(table, |session| {
                        for _ in 0..4 {
                            session.scan_with(|_| Ok(()))?;
                        }
                        Ok(())
                    });
                    sessions.fetch_add(u64::from(stats.attempts), Ordering::Relaxed);
                    match res {
                        Ok(()) => {
                            reads_ok.fetch_add(4, Ordering::Relaxed);
                        }
                        Err(e) => panic!("reader error: {e}"),
                    }
                }
            });
        }
    });
    collector.stop();
    (
        reads_ok.load(Ordering::Relaxed),
        sessions.load(Ordering::Relaxed),
        commits.load(Ordering::Relaxed),
    )
}

fn hist_row(snap: &wh_obs::registry::Snapshot, name: &str) -> Vec<String> {
    let h = snap.histogram(name);
    vec![
        name.to_string(),
        h.count().to_string(),
        format!("{:.0}", h.mean()),
        h.quantile(0.5).to_string(),
        h.quantile(0.99).to_string(),
        h.max.to_string(),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline = args
        .iter()
        .position(|a| a == "--check-overhead")
        .map(|i| args.get(i + 1).cloned().expect("--check-overhead PATH"));
    let probes_only = args.iter().any(|a| a == "--probes-only");
    let merge_probes = args.iter().any(|a| a == "--merge-probes");

    let cfg = OverheadConfig::from_env();
    println!(
        "E20: observability under the E18 workload ({} rows{}; metrics {})\n",
        cfg.rows(),
        if cfg.quick { ", quick mode" } else { "" },
        if wh_obs::is_enabled() {
            "enabled"
        } else {
            "disabled"
        }
    );

    let table = std::sync::Arc::new(daily_sales_table(cfg.cities, cfg.lines, cfg.days));

    // Phase 1: the overhead-gate probes on the quiescent relation.
    let mut probes = overhead_probes(&table, &cfg);
    if merge_probes {
        if let Ok(prev) = std::fs::read_to_string(json::out_path("BENCH_obs.json")) {
            merge_prior_probes(&prev, &mut probes);
        }
    }
    println!(
        "overhead probes (best of {} runs{}):",
        cfg.scan_repeats,
        if merge_probes {
            ", merged with prior invocations"
        } else {
            ""
        }
    );
    for (name, ms) in &probes {
        println!("  {name:24} {ms:8.3} ms");
    }

    if probes_only {
        let doc = Json::obj([
            ("experiment", "E20".into()),
            ("rows", cfg.rows().into()),
            ("quick", cfg.quick.into()),
            ("obs_enabled", wh_obs::is_enabled().into()),
            (
                "overhead_probes",
                Json::Object(
                    probes
                        .iter()
                        .map(|(name, ms)| ((*name).to_string(), Json::Fixed(*ms, 3)))
                        .collect(),
                ),
            ),
        ]);
        json::write_report("BENCH_obs.json", &doc);
        check_overhead(
            baseline.as_deref(),
            &probes,
            "WH_OBS_OVERHEAD_PCT",
            "metrics",
        );
        return;
    }

    // Phase 2: readers against live maintenance + GC.
    let (reads_ok, sessions, commits) = reader_maintenance_phase(&table, &cfg);
    println!(
        "concurrency phase: {reads_ok} scans ok across {sessions} sessions, {commits} commits"
    );

    // Phase 2b: a final delete followed by a quiescent collection pass, so
    // GC reclaim latency is always populated even when the concurrent
    // collector's passes kept missing the churn windows above.
    let txn = table.begin_maintenance().expect("begin maintenance");
    txn.execute_sql(
        "DELETE FROM DailySales WHERE city = 'City-001'",
        &Params::new(),
    )
    .expect("final delete");
    txn.commit().expect("commit");
    let gc_report = wh_vnl::gc::collect(&table).expect("gc pass");
    println!(
        "final GC pass: {} reclaimed of {} logically deleted",
        gc_report.reclaimed, gc_report.deleted_found
    );

    // Phase 3: a short §6 scheme comparison to populate the per-scheme
    // cc.* wait histograms.
    let keys = if cfg.quick { 64 } else { 256 };
    for scheme in all_schemes(keys) {
        let r = mixed_run(scheme.as_ref(), keys, 2, 32, 3);
        println!(
            "scheme {}: {} reads ok, {} blocks",
            r.scheme,
            r.reads_ok,
            r.cc.total_blocks()
        );
    }

    let snap = wh_obs::registry::global().snapshot();

    if wh_obs::is_enabled() {
        println!("\n-- key distributions (ns unless noted) --");
        let rows = vec![
            hist_row(&snap, "vnl.reader.staleness_vns"),
            hist_row(&snap, "storage.latch.read_wait_ns"),
            hist_row(&snap, "storage.latch.write_wait_ns"),
            hist_row(&snap, "vnl.maintenance.update_ns"),
            hist_row(&snap, "vnl.maintenance.commit_ns"),
            hist_row(&snap, "vnl.gc.reclaim_ns"),
            hist_row(&snap, "cc.s2pl.reader_wait_ns"),
        ];
        print_table(&["metric", "count", "mean", "p50", "p99", "max"], &rows);
        println!(
            "\nreader staleness now {} (high water {}), GC reclaimed {} tuples, \
             decision arms: insert={} update_saving_pre={} mark_deleted={}",
            snap.gauge("vnl.reader.staleness"),
            snap.gauge_high_water("vnl.reader.staleness"),
            snap.counter("vnl.gc.reclaimed"),
            snap.counter("vnl.maintenance.arm.insert_tuple"),
            snap.counter("vnl.maintenance.arm.update_saving_pre"),
            snap.counter("vnl.maintenance.arm.mark_deleted"),
        );
    }

    let staleness = snap.histogram("vnl.reader.staleness_vns");
    let doc = Json::obj([
        ("experiment", "E20".into()),
        ("rows", cfg.rows().into()),
        ("quick", cfg.quick.into()),
        ("obs_enabled", wh_obs::is_enabled().into()),
        (
            "overhead_probes",
            Json::Object(
                probes
                    .iter()
                    .map(|(name, ms)| ((*name).to_string(), Json::Fixed(*ms, 3)))
                    .collect(),
            ),
        ),
        ("reads_ok", reads_ok.into()),
        ("reader_sessions", sessions.into()),
        ("maintenance_commits", commits.into()),
        (
            "staleness",
            Json::obj([
                ("count", staleness.count().into()),
                ("mean", Json::Fixed(staleness.mean(), 3)),
                ("p50", staleness.quantile(0.5).into()),
                ("p99", staleness.quantile(0.99).into()),
                ("max", staleness.max.into()),
            ]),
        ),
        ("snapshot", Json::Raw(snap.to_json())),
    ]);
    json::write_report("BENCH_obs.json", &doc);

    check_overhead(
        baseline.as_deref(),
        &probes,
        "WH_OBS_OVERHEAD_PCT",
        "metrics",
    );
}
