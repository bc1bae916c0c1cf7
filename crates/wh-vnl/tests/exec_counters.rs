//! The executor's row counters: `sql.exec.scan.rows_in` counts every row
//! the scan hands the SELECT fold — all of a session's visible rows when no
//! WHERE conjunct is pushed into the scan — and `sql.exec.rows_out` counts
//! result rows, on the serial and the parallel path alike.
//!
//! A binary of its own: the metric registry is process-global, so no other
//! test may run queries while this one takes its deltas.

use wh_types::{Column, DataType, Row, Schema, Value};
use wh_vnl::VnlTable;

fn kv(k: i64, v: i64) -> Row {
    vec![Value::from(k), Value::from(v)]
}

#[test]
fn rows_in_counts_visible_rows_on_serial_and_parallel_paths() {
    if !wh_obs::is_enabled() {
        return;
    }
    let schema = Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int32),
            Column::updatable("v", DataType::Int32),
        ],
        &["k"],
    )
    .unwrap();
    let t = VnlTable::create_named("kv", schema, 2).unwrap();
    t.load_initial(&(0..600).map(|k| kv(k, k % 7)).collect::<Vec<_>>())
        .unwrap();
    let txn = t.begin_maintenance().unwrap();
    for k in (0..600).step_by(5) {
        txn.delete_row(&kv(k, 0)).unwrap();
    }
    txn.commit().unwrap();
    let s = t.begin_session();
    // An uncommitted transaction deletes more: the session still sees
    // those rows through their pre-images.
    let in_flight = t.begin_maintenance().unwrap();
    for k in (1..600).step_by(5) {
        in_flight.delete_row(&kv(k, 0)).unwrap();
    }
    let visible = s.count().unwrap();
    assert_eq!(visible, 480);

    // No pushable conjunct: every visible row reaches the executor.
    for sql in [
        "SELECT COUNT(*), SUM(v) FROM kv",
        "SELECT k FROM kv WHERE v + k > 300",
        "SELECT v, COUNT(*) FROM kv GROUP BY v",
    ] {
        let wh_sql::Statement::Select(stmt) = wh_sql::parse_statement(sql).unwrap() else {
            panic!("not a select: {sql}")
        };
        for threads in [1, 4] {
            let before = wh_obs::registry::global().snapshot();
            let result = if threads == 1 {
                s.query_stmt(&stmt).unwrap()
            } else {
                s.query_stmt_parallel(&stmt, threads).unwrap()
            };
            let d = wh_obs::registry::global().snapshot().since(&before);
            assert_eq!(
                d.counter("sql.exec.scan.rows_in"),
                visible,
                "{sql} with {threads} threads"
            );
            assert_eq!(
                d.counter("sql.exec.rows_out"),
                result.rows.len() as u64,
                "{sql} with {threads} threads"
            );
        }
    }
    in_flight.commit().unwrap();
    s.finish();
}
