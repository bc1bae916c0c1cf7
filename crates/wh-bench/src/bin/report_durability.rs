//! Experiment E23 — the cost of durability: fuzzy checkpoints, buffer-pool
//! hit rates under capacity pressure, restart-recovery time, and the gate
//! that matters for every other experiment — a fully-resident durable
//! table must scan at in-memory speed.
//!
//! The paper's §7 recovery argument makes the durable tier log-free:
//! checkpoint cost is *only* dirty-page writes (no log force on the commit
//! path at all), and recovery cost is one slot-reconstruction scan. Both
//! are measured here as a function of table size; the pool sweep shows the
//! hit rate degrading gracefully as capacity drops below the working set.
//!
//! Writes `BENCH_durability.json` (override with `WH_BENCH_OUT`). Exits
//! non-zero when the resident-scan gate fails: the within-run ratio
//! `durable_resident_scan / in_memory_scan` must stay under the bound —
//! machine speed cancels, so a breach means the buffer-pool indirection
//! itself got slower.

use std::path::PathBuf;
use std::time::Instant;
use wh_bench::json::{self, Json};
use wh_bench::{median_ms, print_table};
use wh_types::{Column, DataType, Row, Schema, Value};
use wh_vnl::{checkpoint, create_durable, recover_from_disk, VnlTable};

/// The resident durable scan may cost at most this multiple of the pure
/// in-memory scan (generous: the pin path is an Arc clone + latch).
const MAX_RESIDENT_SCAN_RATIO: f64 = 1.5;

fn kv_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("key", DataType::Int64),
            Column::updatable("value", DataType::Int64),
        ],
        &["key"],
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wh-bench-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn initial_rows(n_tuples: i64) -> Vec<Row> {
    (0..n_tuples)
        .map(|k| vec![Value::from(k), Value::from(k)])
        .collect()
}

fn count_rows(table: &VnlTable) -> u64 {
    let s = table.begin_session();
    let n = s.count().unwrap();
    s.finish();
    n
}

fn main() {
    let quick = std::env::var_os("WH_BENCH_QUICK").is_some();
    let sizes: &[i64] = if quick {
        &[1_000, 5_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    let runs = if quick { 3 } else { 5 };
    println!("E23: durability — checkpoint, pool, and restart-recovery cost\n");

    // --- checkpoint cost vs table size (and dirty fraction) ---------------
    println!("-- fuzzy checkpoint: cost tracks dirty pages, not table size --");
    let mut ckpt_rows = Vec::new();
    let mut ckpt_json = Vec::new();
    for &size in sizes {
        let dir = temp_dir(&format!("ckpt-{size}"));
        let table = create_durable("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
        table.load_initial(&initial_rows(size)).unwrap();
        // First checkpoint: every page dirty.
        let t0 = Instant::now();
        let full = checkpoint(&table).unwrap();
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Touch 1% of tuples, checkpoint again: cost is the dirty subset.
        let txn = table.begin_maintenance().unwrap();
        for k in (0..size).step_by(100) {
            txn.update_row(&vec![Value::from(k), Value::from(k + 1)])
                .unwrap();
        }
        txn.commit().unwrap();
        let t0 = Instant::now();
        let incr = checkpoint(&table).unwrap();
        let incr_ms = t0.elapsed().as_secs_f64() * 1e3;
        ckpt_rows.push(vec![
            size.to_string(),
            full.pages_flushed.to_string(),
            format!("{full_ms:.2}"),
            incr.pages_flushed.to_string(),
            format!("{incr_ms:.2}"),
        ]);
        ckpt_json.push(Json::obj([
            ("tuples", (size as usize).into()),
            ("full_pages_flushed", (full.pages_flushed as usize).into()),
            ("full_ms", Json::Fixed(full_ms, 3)),
            ("incr_pages_flushed", (incr.pages_flushed as usize).into()),
            ("incr_ms", Json::Fixed(incr_ms, 3)),
        ]));
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print_table(
        &["tuples", "full pages", "full ms", "1% dirty pages", "1% ms"],
        &ckpt_rows,
    );

    // --- pool hit rate vs capacity ----------------------------------------
    println!("\n-- buffer pool: hit rate vs capacity (10,000-tuple scan workload) --");
    let scan_size: i64 = if quick { 2_000 } else { 10_000 };
    let mut pool_rows = Vec::new();
    let mut pool_json = Vec::new();
    for capacity_pct in [100usize, 50, 25, 10] {
        let dir = temp_dir(&format!("pool-{capacity_pct}"));
        let table = create_durable("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
        table.load_initial(&initial_rows(scan_size)).unwrap();
        let pages = table.storage().heap().page_count() as usize;
        checkpoint(&table).unwrap();
        drop(table);
        let capacity = (pages * capacity_pct / 100).max(1);
        let (table, _) = recover_from_disk("kv", kv_schema(), 2, &dir, capacity).unwrap();
        let before = wh_obs::registry::global().snapshot();
        let scan_ms = median_ms(runs, || {
            assert_eq!(count_rows(&table), scan_size as u64);
        });
        let delta = wh_obs::registry::global().snapshot().since(&before);
        let hits = delta.counter("storage.pool.hits");
        let misses = delta.counter("storage.pool.misses");
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        pool_rows.push(vec![
            format!("{capacity_pct}% ({capacity} pages)"),
            format!("{hit_rate:.3}"),
            delta.counter("storage.pool.evictions").to_string(),
            format!("{scan_ms:.2}"),
        ]);
        pool_json.push(Json::obj([
            ("capacity_pct", capacity_pct.into()),
            ("capacity_pages", capacity.into()),
            ("hit_rate", Json::Fixed(hit_rate, 4)),
            (
                "evictions",
                (delta.counter("storage.pool.evictions") as usize).into(),
            ),
            ("scan_ms", Json::Fixed(scan_ms, 3)),
        ]));
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print_table(
        &["capacity", "hit rate", "evictions", "scan ms"],
        &pool_rows,
    );

    // --- restart recovery time vs table size -------------------------------
    println!("\n-- restart recovery: one §7 scan, no log replay --");
    let mut rec_rows = Vec::new();
    let mut rec_json = Vec::new();
    for &size in sizes {
        let dir = temp_dir(&format!("rec-{size}"));
        // Crash mid-maintenance so recovery has real rollback work.
        let table = create_durable("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
        table.load_initial(&initial_rows(size)).unwrap();
        checkpoint(&table).unwrap();
        let txn = table.begin_maintenance().unwrap();
        for k in (0..size).step_by(10) {
            txn.update_row(&vec![Value::from(k), Value::from(-k)])
                .unwrap();
        }
        table.storage().heap().flush_all().unwrap();
        std::mem::forget(txn);
        drop(table);

        let t0 = Instant::now();
        let (table, report) = recover_from_disk("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
        let rec_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.recovery.log_writes, 0);
        assert_eq!(count_rows(&table), size as u64);
        rec_rows.push(vec![
            size.to_string(),
            report.recovery.pending_found.to_string(),
            format!("{rec_ms:.2}"),
        ]);
        rec_json.push(Json::obj([
            ("tuples", (size as usize).into()),
            (
                "pending_rolled_back",
                (report.recovery.pending_found as usize).into(),
            ),
            ("recovery_ms", Json::Fixed(rec_ms, 3)),
        ]));
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
    }
    print_table(&["tuples", "rolled back", "recovery ms"], &rec_rows);

    // --- the resident-scan gate --------------------------------------------
    // A durable table whose working set fits the pool must scan at
    // in-memory speed: the within-run ratio is machine-independent, so it
    // gates CI without a committed baseline.
    println!("\n-- gate: fully-resident durable scan vs pure in-memory scan --");
    let mem_table = VnlTable::create_named("kv", kv_schema(), 2).unwrap();
    mem_table.load_initial(&initial_rows(scan_size)).unwrap();
    let mem_ms = median_ms(runs * 3, || {
        assert_eq!(count_rows(&mem_table), scan_size as u64);
    });
    let dir = temp_dir("gate");
    let dur_table = create_durable("kv", kv_schema(), 2, &dir, usize::MAX).unwrap();
    dur_table.load_initial(&initial_rows(scan_size)).unwrap();
    checkpoint(&dur_table).unwrap();
    let dur_ms = median_ms(runs * 3, || {
        assert_eq!(count_rows(&dur_table), scan_size as u64);
    });
    drop(dur_table);
    let _ = std::fs::remove_dir_all(&dir);
    let ratio = dur_ms / mem_ms;
    println!(
        "in-memory {mem_ms:.3} ms   durable(resident) {dur_ms:.3} ms   ratio {ratio:.3}   bound {MAX_RESIDENT_SCAN_RATIO}"
    );

    let doc = Json::obj([
        ("experiment", "E23".into()),
        ("quick", quick.into()),
        ("checkpoint", Json::Array(ckpt_json)),
        ("pool", Json::Array(pool_json)),
        ("recovery", Json::Array(rec_json)),
        (
            "resident_scan_gate",
            Json::obj([
                ("in_memory_ms", Json::Fixed(mem_ms, 3)),
                ("durable_resident_ms", Json::Fixed(dur_ms, 3)),
                ("ratio", Json::Fixed(ratio, 4)),
                ("bound", Json::Fixed(MAX_RESIDENT_SCAN_RATIO, 2)),
            ]),
        ),
    ]);
    json::write_report("BENCH_durability.json", &doc);

    if ratio > MAX_RESIDENT_SCAN_RATIO {
        eprintln!(
            "FAIL: resident durable scan is {ratio:.2}x the in-memory scan \
             (bound {MAX_RESIDENT_SCAN_RATIO}) — the pool indirection regressed"
        );
        std::process::exit(1);
    }
    println!("gate passed");
}
