//! The traced run's quiescent probes and registry-derived layer metrics.
//!
//! After the load stops, the traced run times the read path one layer at
//! a time on the final table: a raw heap scan, the classify-only `count`,
//! a projected scan that decodes the needed columns, then `query_stmt` for
//! each query shape. Each step's extra cost over the one below it, per
//! physical tuple, is that layer's share.

use crate::harness::Report;
use crate::stats::{median, ratio};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use wh_obs::Snapshot;
use wh_sql::{parse_statement, SelectStmt, Statement};
use wh_vnl::{VnlResult, VnlTable};

const REPS: usize = 9;

/// One query shape of the decomposition: its SQL and the base columns
/// its projected-scan baseline decodes. `None` makes `count` the baseline:
/// for COUNT(*), and for a filter, whose WHERE the scan evaluates before
/// decoding, so that decoding every row would not be its floor.
pub struct Shape {
    pub name: &'static str,
    pub sql: String,
    pub cols: Option<Vec<usize>>,
}

/// Median wall nanoseconds of `REPS` runs of `f`.
fn median_ns(mut f: impl FnMut() -> VnlResult<()>) -> VnlResult<f64> {
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        f()?;
        v.push(t.elapsed().as_nanos() as f64);
    }
    Ok(median(&v))
}

fn select(sql: &str) -> VnlResult<SelectStmt> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
        _ => Err(wh_vnl::VnlError::Sql(wh_sql::SqlError::Unsupported(
            "probe shapes are SELECTs".into(),
        ))),
    }
}

/// Run the decomposition on `table` and push its per-layer metrics.
/// `decode_cols` are the columns the classify → decode step decodes.
pub fn decompose(
    table: &VnlTable,
    decode_cols: &[usize],
    shapes: &[Shape],
    out: &mut Report,
) -> VnlResult<()> {
    let rows = table.storage().len().max(1) as f64;
    let heap = table.storage().heap();
    let heap_ns = median_ns(|| {
        heap.scan(|rid, bytes| {
            black_box((rid, bytes));
            Ok(())
        })?;
        Ok(())
    })?;
    let session = table.begin_session();
    let count_ns = median_ns(|| {
        black_box(session.count()?);
        Ok(())
    })?;
    let scan_ns = |cols: &[usize]| {
        median_ns(|| {
            session.scan_projected_with(cols, |row| {
                black_box(row);
                Ok(())
            })
        })
    };
    let decode_ns = scan_ns(decode_cols)?;
    out.push("storage.heap_scan_ns_per_row", heap_ns / rows, "ns");
    out.push("vnl.classify_ns_per_row", (count_ns - heap_ns) / rows, "ns");
    out.push("vnl.decode_ns_per_row", (decode_ns - count_ns) / rows, "ns");
    let mut parse = Vec::new();
    for shape in shapes {
        parse.push(median_ns(|| {
            black_box(parse_statement(&shape.sql)?);
            Ok(())
        })?);
        let stmt = select(&shape.sql)?;
        let query_ns = median_ns(|| {
            black_box(session.query_stmt(&stmt)?);
            Ok(())
        })?;
        let base_ns = match &shape.cols {
            Some(cols) => scan_ns(cols)?,
            None => count_ns,
        };
        out.push(
            &format!("sql.exec_ns_per_row.{}", shape.name),
            (query_ns - base_ns) / rows,
            "ns",
        );
        if shape.name == "topk" {
            let before = wh_obs::registry::global().snapshot();
            black_box(session.query_stmt(&stmt)?);
            let d = wh_obs::registry::global().snapshot().since(&before);
            out.push(
                "sql.rows_examined_per_row_returned.topk",
                ratio(
                    d.counter("sql.exec.scan.rows_in") as f64,
                    d.counter("sql.exec.rows_out") as f64,
                ),
                "ratio",
            );
        }
    }
    session.finish();
    out.push("sql.parse_us", median(&parse) / 1e3, "us");
    Ok(())
}

/// Pages one quiescent reader session reads, by the table's I/O counters.
pub fn page_reads(table: &VnlTable, session: impl FnOnce() -> VnlResult<()>) -> VnlResult<f64> {
    let before = table.io().snapshot();
    session()?;
    Ok(table.io().snapshot().since(&before).page_reads as f64)
}

/// Layer metrics read from the engine's own metric registry over the
/// run (`seconds` long).
pub fn registry_layers(d: &Snapshot, seconds: f64, out: &mut Report) {
    let hits = d.counter("storage.pool.hits") as f64;
    let misses = d.counter("storage.pool.misses") as f64;
    out.push(
        "storage.pool_miss_ratio",
        ratio(misses, hits + misses),
        "ratio",
    );
    out.push(
        "storage.pool_evictions_per_s",
        ratio(d.counter("storage.pool.evictions") as f64, seconds),
        "1/s",
    );
    out.push(
        "storage.latch_read_wait_ns_per_op",
        ratio(
            d.histogram("storage.latch.read_wait_ns").sum as f64,
            d.counter("storage.io.page_reads") as f64,
        ),
        "ns",
    );
    let (mut dml_ns, mut dml_ops) = (0u64, 0u64);
    for name in [
        "vnl.maintenance.insert_ns",
        "vnl.maintenance.update_ns",
        "vnl.maintenance.delete_ns",
    ] {
        let h = d.histogram(name);
        dml_ns += h.sum;
        dml_ops += h.count();
    }
    out.push(
        "maint.dml_us_per_row",
        ratio(dml_ns as f64, dml_ops as f64) / 1e3,
        "us",
    );
}

/// On an in-memory workload, the cost the durable tier would add: copy
/// the final contents into a fresh disk-backed table under `dir` and time
/// its first fuzzy checkpoint. Returns `(checkpoint ms, pages flushed)`.
pub fn durable_copy_checkpoint(table: &VnlTable, n: usize, dir: &Path) -> VnlResult<(f64, f64)> {
    let session = table.begin_session();
    let rows = session.scan()?;
    session.finish();
    let schema = table.layout().base_schema().clone();
    let pages = table.storage().heap().page_count() as usize;
    let copy = wh_vnl::create_durable(table.name(), schema, n, dir, pages.max(8))?;
    copy.load_initial(&rows)?;
    let t = Instant::now();
    let stats = wh_vnl::checkpoint(&copy)?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(copy);
    let _ = std::fs::remove_dir_all(dir);
    Ok((ms, stats.pages_flushed as f64))
}
