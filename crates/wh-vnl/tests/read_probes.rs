//! Every reader-session scan is one read: it opens a `vnl.read.*` span
//! under the session's trace and adds one sample to the read-latency SLO
//! window, `count` and projected scans included.
//!
//! The SLO window and the trace rings are process-global, so this file
//! holds a single test: no other read in the process can add a sample.

use wh_obs::trace::{self, EventKind};
use wh_types::{Column, DataType, Schema, Value};
use wh_vnl::VnlTable;

fn read_samples() -> u64 {
    let window = wh_obs::slo::WINDOW_BUCKETS as u64 - 1;
    wh_obs::slo::read_latency_ns().totals(window).0
}

#[test]
fn count_and_projected_scans_are_traced_and_timed() {
    if !wh_obs::is_enabled() {
        return; // disabled builds record neither spans nor SLO samples
    }
    let schema = Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int64),
            Column::updatable("v", DataType::Int64),
        ],
        &["k"],
    )
    .unwrap();
    let t = VnlTable::create_named("kv", schema, 2).unwrap();
    let rows: Vec<Vec<Value>> = (0..8)
        .map(|k| vec![Value::from(k), Value::from(k * 10)])
        .collect();
    t.load_initial(&rows).unwrap();

    let s = t.begin_session();
    let before = read_samples();
    assert_eq!(s.count().unwrap(), 8);
    assert_eq!(read_samples(), before + 1, "count fed the read-latency SLO");
    let mut seen = 0;
    s.scan_projected_with(&[1], |_| {
        seen += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!(seen, 8);
    assert_eq!(
        read_samples(),
        before + 2,
        "scan_projected_with fed the read-latency SLO"
    );
    s.finish();

    let events = trace::collect();
    let session = events
        .iter()
        .find(|e| e.kind == EventKind::SpanStart && e.name == "vnl.session")
        .expect("the session opened a root span");
    for name in ["vnl.read.count", "vnl.read.scan_projected"] {
        let reads = events
            .iter()
            .filter(|e| {
                e.kind == EventKind::SpanStart
                    && e.name == name
                    && e.trace_id == session.trace_id
                    && e.parent_id == session.span_id
            })
            .count();
        assert_eq!(reads, 1, "{name} span under the session's span");
    }
}
