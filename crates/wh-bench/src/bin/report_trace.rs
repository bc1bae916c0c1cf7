//! Experiment E24 — causal tracing, the flight recorder, and the
//! introspection server under load.
//!
//! Extends the E20 methodology to the `wh-obs::trace` layer: the same
//! reader/maintenance workload now runs with every span and causal event
//! live, and the report shows what the tracing surface sees — per-trace
//! event counts, the flight recorder dumping on a provoked recovery, and
//! the introspection server answering `/metrics`, `/snapshot`, `/health`,
//! and `/traces/<id>` over plain HTTP/1.0.
//!
//! Also measures the numbers the CI tracing-overhead gate rides on: five
//! E18/E22-shaped hot-loop probes over the paths that gained spans (serial
//! scan, parallel scan with cross-thread span propagation, point lookups,
//! the SQL executor, a maintenance round). Build once with default
//! features and once with `--no-default-features` (tracing compiled out),
//! run both, and compare the geometric mean of the probe ratios:
//!
//! ```text
//! report_trace                              # writes BENCH_trace.json
//! report_trace --check-overhead base.json   # exits 1 if >5% slower
//! ```
//!
//! As in E20, each process invocation is itself a sample (code-layout
//! aliasing moves a hot loop several percent between builds), so the gate
//! runs each build a few times and takes the per-probe minimum:
//! `--probes-only` skips the workload phases, `--merge-probes` folds the
//! existing output file's probe numbers in (per-probe min) before writing.
//!
//! `WH_BENCH_QUICK=1` shrinks the relation and repeat counts for CI;
//! `WH_BENCH_OUT` overrides the output path; `WH_TRACE_OVERHEAD_PCT`
//! overrides the 5% gate.

use std::sync::atomic::{AtomicU64, Ordering};
use wh_bench::json::{self, Json};
use wh_bench::{
    best_ms, check_overhead, daily_sales_table, merge_prior_probes, sale_dates, OverheadConfig,
};
use wh_sql::Params;
use wh_types::Value;
use wh_vnl::VnlTable;

/// The tracing-overhead probes: five hot loops over the paths that gained
/// spans or causal events in the trace layer. The gate compares the
/// geometric mean of the per-probe ratios against a tracing-disabled
/// build, exactly as E20's gate does for metrics (see `report_obs` for why
/// single-loop comparisons measure code layout, not instrumentation).
fn overhead_probes(table: &VnlTable, cfg: &OverheadConfig) -> Vec<(&'static str, f64)> {
    let rows = cfg.rows();
    let session = table.begin_session();

    // E18 serial hot path: streaming scan (now under a vnl.read.scan span
    // feeding the read-latency SLO window).
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

    // E22 parallel path: partitioned scan, with the coordinator's span
    // propagated into every worker (storage.scan.partition spans).
    let scan_parallel = best_ms(cfg.scan_repeats, || {
        let n = AtomicU64::new(0);
        session
            .scan_parallel(4, |_, _| {
                n.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .expect("parallel scan");
        assert_eq!(n.load(Ordering::Relaxed) as usize, rows);
    });

    // Point reads: deliberately span-free — this probe verifies the hot
    // path stayed untouched.
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

    // The executor path: sql.parse + sql.exec.* stage spans per query.
    let sql = best_ms(cfg.scan_repeats, || {
        let res = session
            .query("SELECT city, SUM(total_sales) FROM DailySales GROUP BY city")
            .expect("aggregate query");
        assert_eq!(res.rows.len(), cfg.cities);
    });
    session.finish();

    // The maintenance path: txn root span + per-phase spans + version-flip
    // events per round.
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

    vec![
        ("probe_scan_ms", scan),
        ("probe_scan_parallel_ms", scan_parallel),
        ("probe_lookup_ms", lookup),
        ("probe_sql_agg_ms", sql),
        ("probe_update_txn_ms", update),
    ]
}

/// Concurrent tracing exercise: parallel scans race maintenance commits so
/// the rings fill with interleaved multi-thread traces. Returns
/// (reads_ok, commits).
fn tracing_phase(table: &std::sync::Arc<VnlTable>, cfg: &OverheadConfig) -> (u64, u64) {
    let reads_ok = AtomicU64::new(0);
    let commits = AtomicU64::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
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
                txn.commit().expect("commit");
                commits.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, Ordering::SeqCst);
        });
        for seed in 0..cfg.reader_threads as u64 {
            let (reads_ok, done) = (&reads_ok, &done);
            s.spawn(move || {
                let retry = wh_vnl::RetryPolicy::default()
                    .with_max_attempts(64)
                    .with_seed(seed);
                while !done.load(Ordering::SeqCst) {
                    let (res, _) = retry.run_with_stats(table, |session| {
                        session.scan_parallel(4, |_, _| Ok(()))?;
                        Ok(())
                    });
                    match res {
                        Ok(()) => {
                            reads_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("reader error: {e}"),
                    }
                }
            });
        }
    });
    (
        reads_ok.load(Ordering::Relaxed),
        commits.load(Ordering::Relaxed),
    )
}

/// One blocking HTTP/1.0 GET against the introspection server; returns
/// (status_line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect introspection server");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Scrape every endpoint once; returns (all_ok, request_count_served).
fn server_phase(trace_id: u64) -> bool {
    let server = match wh_obs::IntrospectionServer::start("127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("introspection server failed to start: {e}");
            return false;
        }
    };
    let addr = server.addr();
    let (metrics_status, metrics_body) = http_get(addr, "/metrics");
    let (health_status, health_body) = http_get(addr, "/health");
    let (snapshot_status, _) = http_get(addr, "/snapshot");
    let (trace_status, trace_body) = http_get(addr, &format!("/traces/{trace_id}"));
    println!("introspection server on {addr}:");
    println!(
        "  /metrics      {metrics_status} ({} bytes)",
        metrics_body.len()
    );
    println!(
        "  /health       {health_status} ({})",
        health_body.trim().len()
    );
    println!("  /snapshot     {snapshot_status}");
    println!(
        "  /traces/{trace_id}  {trace_status} ({} bytes)",
        trace_body.len()
    );
    let ok = [&metrics_status, &health_status, &snapshot_status]
        .iter()
        .all(|s| s.contains("200"))
        && (trace_status.contains("200") || !wh_obs::is_enabled());
    server.stop();
    ok
}

/// Provoke the flight recorder: arm it at a temp dir, crash a maintenance
/// transaction (`mem::forget` — its root span never closes), and recover.
/// The `recovery_entry` trigger must produce a dump whose events include
/// the crashed txn's still-open span. Returns (dumped, dump_events).
fn flight_phase() -> (bool, u64) {
    let dir = std::env::temp_dir().join(format!("wh-e24-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create flight dir");
    wh_obs::recorder::arm(&dir);

    let table = daily_sales_table(5, 4, 10);
    let txn = table.begin_maintenance().expect("begin");
    txn.execute_sql(
        "UPDATE DailySales SET total_sales = 0 WHERE product_line = 'line-00'",
        &Params::new(),
    )
    .expect("update");
    std::mem::forget(txn); // crash: the txn span stays open
    let report = wh_vnl::recovery::recover(&table).expect("recover");
    println!(
        "provoked recovery: {} pending tuples rolled back, {} flight dumps on disk",
        report.pending_found,
        wh_obs::recorder::dumps_written()
    );
    wh_obs::recorder::disarm();

    let mut dump_events = 0u64;
    let mut dumped = false;
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let content = std::fs::read_to_string(entry.path()).unwrap_or_default();
            if content.starts_with("{\"schema\":\"wh-flight-1\"") {
                dumped = true;
                dump_events = dump_events.max(content.lines().count().saturating_sub(2) as u64);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    (dumped, dump_events)
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
        "E24: causal tracing under the E18 workload ({} rows{}; tracing {})\n",
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
        if let Ok(prev) = std::fs::read_to_string(json::out_path("BENCH_trace.json")) {
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
            ("experiment", "E24".into()),
            ("rows", cfg.rows().into()),
            ("quick", cfg.quick.into()),
            ("trace_enabled", wh_obs::is_enabled().into()),
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
        json::write_report("BENCH_trace.json", &doc);
        check_overhead(
            baseline.as_deref(),
            &probes,
            "WH_TRACE_OVERHEAD_PCT",
            "tracing",
        );
        return;
    }

    // Phase 2: concurrent tracing exercise filling the per-thread rings.
    let (reads_ok, commits) = tracing_phase(&table, &cfg);
    let recent = wh_obs::trace::recent_traces();
    println!(
        "tracing phase: {reads_ok} parallel scans ok, {commits} commits; \
         {} events recorded across {} recent traces (ring wrapped: {})",
        wh_obs::trace::events_recorded(),
        recent.len(),
        wh_obs::trace::any_ring_wrapped()
    );
    let sample_trace = recent.iter().max_by_key(|(_, _, n)| *n);
    if let Some((id, name, n)) = sample_trace {
        println!("  largest recent trace: id={id} root={name} events={n}");
    }

    // Phase 3: scrape the introspection server.
    let server_ok = server_phase(sample_trace.map_or(0, |&(id, _, _)| id));

    // Phase 4: provoke a flight-recorder dump through a crashed txn.
    let (flight_dumped, flight_events) = flight_phase();

    if wh_obs::is_enabled() {
        assert!(server_ok, "introspection endpoints must answer 200");
        assert!(flight_dumped, "recovery must produce a flight dump");
    }

    let doc = Json::obj([
        ("experiment", "E24".into()),
        ("rows", cfg.rows().into()),
        ("quick", cfg.quick.into()),
        ("trace_enabled", wh_obs::is_enabled().into()),
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
        ("maintenance_commits", commits.into()),
        ("trace_events", wh_obs::trace::events_recorded().into()),
        ("recent_traces", (recent.len() as u64).into()),
        ("ring_wrapped", wh_obs::trace::any_ring_wrapped().into()),
        ("server_ok", server_ok.into()),
        ("flight_dumped", flight_dumped.into()),
        ("flight_dump_events", flight_events.into()),
    ]);
    json::write_report("BENCH_trace.json", &doc);

    check_overhead(
        baseline.as_deref(),
        &probes,
        "WH_TRACE_OVERHEAD_PCT",
        "tracing",
    );
}
