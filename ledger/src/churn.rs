//! `point-churn`: a keyed table about 200k rows wide under small, skewed
//! maintenance batches at a high rate.
//!
//! The table is a one-row-per-key summary view (`id, bucket → total,
//! support_count`) with an ordered secondary index on `bucket`. Each batch
//! updates a few hundred hot keys and re-inserts the keys the previous
//! batch deleted through `ViewMaintainer::propagate_deltas` (so the
//! resurrect arm fires while GC has not yet reclaimed them), retires a few
//! keys with point deletes, commits and runs GC inline. Commit and GC scan
//! the whole table, so maintenance cost follows the table, not the batch.
//! The reader never touches the SQL executor: each session is 32
//! `read_by_key` calls through the repair-first `RetryPolicy` and two short
//! `lookup_range` calls, each checked against the key's value history.

use crate::harness::{drive, timed, BatchSample, Config, Report, SessionSample, Shared, Window};
use crate::probe::{self, Shape};
use crate::trace::{Trace, Tracer};
use crate::traced;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};
use wh_types::{Column, DataType, Row, Schema, SplitMix64, Value};
use wh_view::{GroupDelta, SummaryViewDef, ViewMaintainer};
use wh_vnl::{RepairEngine, RetryPolicy, VnlError, VnlResult, VnlTable};

const N: usize = 2;
const TABLE: &str = "churn";
const INDEX: &str = "by_bucket";
/// Keys per bucket; a range lookup spans two buckets.
const BUCKET: u64 = 20;
const LOOKUPS: usize = 32;
const RANGES: usize = 2;
/// The traced run records one session in this many (a session is only
/// ~34 µs-scale calls; the rest are its untraced baseline).
const TRACE_EVERY: usize = 64;

struct Size {
    keys: u64,
    updates: usize,
    deletes: usize,
    batches: usize,
    sessions: usize,
}

/// The generated inputs and the oracle: every key's value by version.
struct Inputs {
    keys: u64,
    initial: Vec<i64>,
    /// Per changed key: `(version index, value)` from that version on;
    /// `None` while deleted.
    history: HashMap<u64, Vec<(u32, Option<i64>)>>,
    /// Batch `i`: updates and re-inserts for the view maintainer.
    deltas: Vec<Vec<GroupDelta>>,
    /// Batch `i`: keys retired by point deletes.
    retire: Vec<Vec<u64>>,
    /// Per session: the keys it reads and the first bucket of each range.
    sessions: Vec<(Vec<u64>, Vec<u64>)>,
}

fn bucket(id: u64) -> i64 {
    (id / BUCKET) as i64
}

fn key_row(id: u64) -> Row {
    vec![
        Value::from(id as i64),
        Value::from(bucket(id)),
        Value::Null,
        Value::Null,
    ]
}

/// A hot-skewed key: density falls off as `id^(-2/3)`.
fn skewed(rng: &mut SplitMix64, keys: u64) -> u64 {
    ((keys as f64) * rng.next_f64().powi(3)) as u64 % keys
}

impl Inputs {
    fn generate(size: &Size, seed: u64) -> Inputs {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xc4u64 << 56);
        let initial: Vec<i64> = (0..size.keys)
            .map(|_| rng.range_i64(1, 1_000_000))
            .collect();
        let mut live: Vec<Option<i64>> = initial.iter().copied().map(Some).collect();
        let mut history: HashMap<u64, Vec<(u32, Option<i64>)>> = HashMap::new();
        let (mut deltas, mut retire) = (Vec::new(), Vec::new());
        let mut last_deleted: Vec<u64> = Vec::new();
        for i in 0..size.batches {
            let j = i as u32 + 1;
            let mut touched: HashSet<u64> = last_deleted.iter().copied().collect();
            let mut batch = Vec::new();
            for &id in &last_deleted {
                let v = rng.range_i64(1, 1_000_000);
                batch.push(GroupDelta {
                    key: vec![Value::from(id as i64), Value::from(bucket(id))],
                    sum_delta: v,
                    count_delta: 1,
                });
                live[id as usize] = Some(v);
            }
            while batch.len() < last_deleted.len() + size.updates {
                let id = skewed(&mut rng, size.keys);
                let Some(old) = live[id as usize] else {
                    continue;
                };
                if !touched.insert(id) {
                    continue;
                }
                let v = rng.range_i64(1, 1_000_000);
                batch.push(GroupDelta {
                    key: vec![Value::from(id as i64), Value::from(bucket(id))],
                    sum_delta: v - old,
                    count_delta: 0,
                });
                live[id as usize] = Some(v);
            }
            let mut gone = Vec::new();
            while gone.len() < size.deletes {
                let id = rng.next_below(size.keys);
                if live[id as usize].is_some() && touched.insert(id) {
                    live[id as usize] = None;
                    gone.push(id);
                }
            }
            for &id in &touched {
                history.entry(id).or_default().push((j, live[id as usize]));
            }
            deltas.push(batch);
            last_deleted = gone.clone();
            retire.push(gone);
        }
        let sessions = (0..size.sessions)
            .map(|_| {
                let reads = (0..LOOKUPS).map(|_| skewed(&mut rng, size.keys)).collect();
                let ranges = (0..RANGES)
                    .map(|_| rng.next_below(size.keys / BUCKET - 1))
                    .collect();
                (reads, ranges)
            })
            .collect();
        Inputs {
            keys: size.keys,
            initial,
            history,
            deltas,
            retire,
            sessions,
        }
    }

    /// Key `id`'s value at version index `j`, `None` while deleted.
    fn at(&self, id: u64, j: usize) -> Option<i64> {
        let Some(h) = self.history.get(&id) else {
            return Some(self.initial[id as usize]);
        };
        let n = h.partition_point(|&(at, _)| at as usize <= j);
        if n == 0 {
            Some(self.initial[id as usize])
        } else {
            h[n - 1].1
        }
    }
}

fn view_def() -> SummaryViewDef {
    let source = Schema::new(vec![
        Column::new("id", DataType::Int64),
        Column::new("bucket", DataType::Int32),
        Column::new("amount", DataType::Int64),
    ])
    .expect("point-churn source schema is valid");
    SummaryViewDef::new(source, &["id", "bucket"], "amount", "total")
        .expect("point-churn view definition is valid")
}

fn build(inputs: &Inputs) -> VnlResult<VnlTable> {
    let table = view_def().create_table(TABLE, N)?;
    let rows: Vec<Row> = (0..inputs.keys)
        .map(|id| {
            vec![
                Value::from(id as i64),
                Value::from(bucket(id)),
                Value::from(inputs.initial[id as usize]),
                Value::from(1i64),
            ]
        })
        .collect();
    table.load_initial(&rows)?;
    table.create_index(INDEX, &["bucket"])?;
    Ok(table)
}

/// Check a returned row of key `id` against the oracle at version `j`.
fn check(inputs: &Inputs, id: u64, j: usize, row: Option<&Row>) -> Result<(), String> {
    let got = row.map(|r| (r[2].as_int(), r[3].as_int()));
    let want = inputs.at(id, j).map(|v| (Some(v), Some(1)));
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "key {id} at version {j}: {got:?}, expected {want:?}"
        ))
    }
}

struct Reader<'a> {
    inputs: &'a Inputs,
    table: &'a VnlTable,
    base_vn: u64,
    policy: RetryPolicy,
    tracer: Tracer,
    trace_run: bool,
    sessions: Vec<SessionSample>,
    lookups_ns: Vec<f64>,
    wrong: Vec<String>,
    measure_from: Instant,
}

/// What one lookup returned and at which VN.
enum Got {
    Key(u64, Option<Row>, u64),
    Range(u64, Vec<Row>, u64),
}

impl Reader<'_> {
    fn session(&mut self, i: usize) {
        let (reads, ranges) = &self.inputs.sessions[i % self.inputs.sessions.len()];
        let traced = self.trace_run && i.is_multiple_of(TRACE_EVERY);
        self.tracer.set_on(traced);
        let req = i as u64 + 1;
        let start = Instant::now();
        let root = self.tracer.open_at("session", 0, req, start);
        let begin = self.tracer.open_at("session.begin", root, req, start);
        let engine = RepairEngine::new(self.table);
        let mut sample = SessionSample {
            start,
            end: start,
            ops: 0,
            attempts: 0,
            expirations: 0,
            repaired: 0,
            wasted_rows: 0,
            traced,
            failed: false,
        };
        let mut got = Vec::with_capacity(reads.len() + ranges.len());
        let mut lat = Vec::with_capacity(reads.len() + ranges.len());
        self.tracer.close(begin);
        let phase = self.tracer.open("session.lookups", root, req);
        for &id in reads {
            let t = Instant::now();
            let key = key_row(id);
            let (res, st) = self.policy.run_repaired(
                self.table,
                |s| Ok((s.read_by_key(&key)?, s.session_vn())),
                |vn| engine.read_key_at_current(vn, &key).ok().flatten(),
            );
            sample.add(&st);
            match res {
                Ok((row, vn)) => got.push(Got::Key(id, row, vn)),
                Err(_) => sample.failed = true,
            }
            let end = Instant::now();
            self.tracer.record("vnl.read_by_key", phase, req, t, end);
            lat.push((end - t).as_nanos() as f64);
        }
        for &b in ranges {
            let t = Instant::now();
            let (lo, hi) = ([Value::from(b as i64)], [Value::from(b as i64 + 1)]);
            let (res, st) = self.policy.run_with_stats(self.table, |s| {
                Ok((s.lookup_range(INDEX, Some(&lo), Some(&hi))?, s.session_vn()))
            });
            sample.add(&st);
            match res {
                Ok((rows, vn)) => got.push(Got::Range(b, rows, vn)),
                Err(_) => sample.failed = true,
            }
            let end = Instant::now();
            self.tracer.record("vnl.lookup_range", phase, req, t, end);
            lat.push((end - t).as_nanos() as f64);
        }
        self.tracer.close(phase);
        let v = self.tracer.open("oracle.verify", root, req);
        for g in &got {
            if let Err(e) = self.verify(g) {
                self.wrong.push(format!("session {i}: {e}"));
            }
        }
        self.tracer.close(v);
        sample.end = Instant::now();
        self.tracer.close_at(root, sample.end);
        if start >= self.measure_from {
            self.lookups_ns.extend_from_slice(&lat);
        }
        self.sessions.push(sample);
    }

    fn verify(&self, g: &Got) -> Result<(), String> {
        let j = |vn: u64| (vn - self.base_vn) as usize;
        match g {
            Got::Key(id, row, vn) => check(self.inputs, *id, j(*vn), row.as_ref()),
            Got::Range(b, rows, vn) => {
                let by_id: HashMap<u64, &Row> = rows
                    .iter()
                    .filter_map(|r| Some((r[0].as_int()? as u64, r)))
                    .collect();
                if by_id.len() != rows.len() {
                    return Err(format!("range {b}: duplicate or NULL ids"));
                }
                let ids = b * BUCKET..(b + 2) * BUCKET;
                if by_id.keys().any(|id| !ids.contains(id)) {
                    return Err(format!("range {b}: row outside the range"));
                }
                for id in ids {
                    check(self.inputs, id, j(*vn), by_id.get(&id).copied())?;
                }
                Ok(())
            }
        }
    }
}

struct Maint<'a> {
    inputs: &'a Inputs,
    table: &'a VnlTable,
    maintainer: ViewMaintainer,
    base_vn: u64,
    tracer: Tracer,
    batches: Vec<BatchSample>,
}

impl Maint<'_> {
    fn batch(&mut self, i: usize, due: Instant) -> Result<(), String> {
        let tr = &mut self.tracer;
        let req = (1 << 32) + i as u64;
        let start = Instant::now();
        let root = tr.open_at("batch", 0, req, due);
        tr.record("maint.schedule_lag", root, req, due, start);
        let s = tr.open_at("maint.begin", root, req, start);
        let txn = self.table.begin_maintenance().map_err(|e| e.to_string())?;
        tr.close(s);
        let want_vn = self.base_vn + i as u64 + 1;
        if txn.maintenance_vn() != want_vn {
            return Err(format!(
                "maintenance VN {} != {want_vn}",
                txn.maintenance_vn()
            ));
        }
        let s = tr.open("view.propagate", root, req);
        let rep = self
            .maintainer
            .propagate_deltas(&txn, &self.inputs.deltas[i])
            .map_err(|e| e.to_string())?;
        tr.close(s);
        let s = tr.open("maint.retire", root, req);
        for &id in &self.inputs.retire[i] {
            txn.delete_row(&key_row(id)).map_err(|e| e.to_string())?;
        }
        tr.close(s);
        let s = tr.open("maint.commit", root, req);
        txn.commit().map_err(|e| e.to_string())?;
        let committed = Instant::now();
        tr.close_at(s, committed);
        let s = tr.open("gc.collect", root, req);
        let gc = wh_vnl::gc::collect(self.table).map_err(|e| e.to_string())?;
        tr.close(s);
        tr.close(root);
        self.batches.push(BatchSample {
            due,
            start,
            committed,
            deltas: rep.inserts + rep.updates + rep.deletes,
            gc_scanned: gc.scanned,
            gc_reclaimed: gc.reclaimed,
            pages_flushed: 0,
        });
        Ok(())
    }
}

fn verify_state(table: &VnlTable, inputs: &Inputs, j: usize) -> Result<(), String> {
    let session = table.begin_session();
    let rows = session.scan().map_err(|e| format!("scan: {e}"))?;
    session.finish();
    let by_id: HashMap<u64, &Row> = rows
        .iter()
        .filter_map(|r| Some((r[0].as_int()? as u64, r)))
        .collect();
    if by_id.len() != rows.len() {
        return Err("duplicate or NULL ids".into());
    }
    for id in 0..inputs.keys {
        check(inputs, id, j, by_id.get(&id).copied())?;
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let period = Duration::from_millis(if cfg.tiny { 50 } else { 250 });
    let total = cfg.warmup() + Duration::from_secs_f64(cfg.seconds);
    let batches = (total.as_secs_f64() / period.as_secs_f64()).ceil() as usize + 2;
    let size = if cfg.tiny {
        Size {
            keys: 4_000,
            updates: 40,
            deletes: 4,
            batches,
            sessions: 64,
        }
    } else {
        Size {
            keys: 200_000,
            updates: 400,
            deletes: 20,
            batches,
            sessions: 4096,
        }
    };
    let inputs = Inputs::generate(&size, cfg.seed);
    let e = |e: VnlError| e.to_string();
    let mut setup_s = Vec::new();
    let mut table = None;
    for _ in 0..cfg.setup_reps() {
        drop(table.take());
        let (t, secs) = timed(|| build(&inputs));
        table = Some(t.map_err(e)?);
        setup_s.push(secs);
    }
    let table = table.expect("at least one set-up");
    let base_vn = table.version().snapshot().current_vn;
    // Restart is timed on a spare table before the load as well as on the
    // loaded table after it, so that one slow spell of the machine weighs
    // on half the samples only.
    let mut out = Report::default();
    let spare = build(&inputs).map_err(e)?;
    let (mut restart_ms, _) = restart(
        cfg,
        &inputs,
        &ViewMaintainer::new(view_def()),
        &spare,
        0,
        &mut out,
    )?;
    drop(spare);
    let before = wh_obs::registry::global().snapshot();
    let epoch = Instant::now();
    let window = Window::new(cfg.warmup(), cfg.seconds);
    let mut reader = Reader {
        inputs: &inputs,
        table: &table,
        base_vn,
        policy: RetryPolicy::default()
            .with_max_attempts(16)
            .with_seed(cfg.seed),
        tracer: Tracer::new(cfg.trace, 1, epoch),
        trace_run: cfg.trace,
        sessions: Vec::new(),
        lookups_ns: Vec::new(),
        wrong: Vec::new(),
        measure_from: window.measure_from,
    };
    let mut maint = Maint {
        inputs: &inputs,
        table: &table,
        maintainer: ViewMaintainer::new(view_def()),
        base_vn,
        tracer: Tracer::new(cfg.trace, 2, epoch),
        batches: Vec::new(),
    };
    let last_batch = inputs.deltas.len() - 1; // kept back for the crash
    drive(
        &window,
        period,
        last_batch,
        |i| reader.session(i),
        |i, due| maint.batch(i, due),
    )?;
    let load_s = window.start.elapsed().as_secs_f64();
    let registry = wh_obs::registry::global().snapshot().since(&before);
    let Reader {
        tracer: reader_tracer,
        sessions,
        lookups_ns,
        wrong,
        ..
    } = reader;
    let Maint {
        maintainer,
        tracer: maint_tracer,
        batches,
        ..
    } = maint;
    let j = batches.len();
    let live = (0..inputs.keys)
        .filter(|&id| inputs.at(id, j).is_some())
        .count();
    let pages = table.storage().heap().page_count() as f64;
    let bytes_per_row = pages * wh_storage::PAGE_SIZE as f64 / live.max(1) as f64;
    out.wrong.extend(wrong);
    let mut layers = Report::default();
    if cfg.trace {
        layer_probes(cfg, &inputs, &table, &mut layers).map_err(e)?;
    }
    // §7 restart: crash the next batch mid-transaction, recover in place.
    let (after, scanned) = restart(cfg, &inputs, &maintainer, &table, j, &mut out)?;
    restart_ms.extend(after);
    let shared = Shared {
        window: &window,
        setup_s: &setup_s,
        sessions: &sessions,
        lookups_ns: &lookups_ns,
        batches: &batches,
        restart_ms: &restart_ms,
        bytes_per_row,
    };
    shared.report(&mut out);
    if !cfg.trace {
        return Ok(out);
    }
    let trace = Trace::merge(vec![reader_tracer.into_spans(), maint_tracer.into_spans()]);
    traced::report(
        cfg, &shared, out, layers, &registry, load_s, &trace, scanned,
    )
}

/// Crash batch `j` on `table`, which holds version index `j`, and time
/// in-place §7 recovery `cfg.restart_reps()` times; the table must then
/// equal the oracle's state at `j`. Returns the times (ms) and the rows the
/// last recovery scanned.
fn restart(
    cfg: &Config,
    inputs: &Inputs,
    maintainer: &ViewMaintainer,
    table: &VnlTable,
    j: usize,
    out: &mut Report,
) -> Result<(Vec<f64>, f64), String> {
    let e = |e: VnlError| e.to_string();
    let mut times = Vec::new();
    let mut scanned = 0.0;
    for _ in 0..cfg.restart_reps() {
        let txn = table.begin_maintenance().map_err(e)?;
        maintainer
            .propagate_deltas(&txn, &inputs.deltas[j])
            .map_err(e)?;
        for &id in &inputs.retire[j] {
            txn.delete_row(&key_row(id)).map_err(e)?;
        }
        std::mem::forget(txn);
        let t = Instant::now();
        let rep = wh_vnl::recover(table).map_err(e)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        scanned = rep.scanned as f64;
        if rep.log_writes != 0 {
            out.wrong.push("recovery wrote a log".into());
        }
    }
    if let Err(e) = verify_state(table, inputs, j) {
        out.wrong.push(format!("after §7 recovery: {e}"));
    }
    Ok((times, scanned))
}

fn layer_probes(
    cfg: &Config,
    inputs: &Inputs,
    table: &VnlTable,
    out: &mut Report,
) -> VnlResult<()> {
    let schema = table.layout().base_schema();
    let col = |n: &str| schema.column_index(n).expect("point-churn column");
    let (id, bucket_col, total) = (col("id"), col("bucket"), col("total"));
    let shapes = [
        Shape {
            name: "count",
            sql: format!("SELECT COUNT(*) FROM {TABLE}"),
            cols: None,
        },
        Shape {
            name: "filter",
            sql: format!("SELECT COUNT(*), SUM(total) FROM {TABLE} WHERE bucket < 1000"),
            cols: None,
        },
        Shape {
            name: "group",
            sql: format!("SELECT bucket, SUM(total) FROM {TABLE} GROUP BY bucket"),
            cols: Some(vec![bucket_col, total]),
        },
        Shape {
            name: "topk",
            sql: format!("SELECT id, total FROM {TABLE} ORDER BY total DESC LIMIT 10"),
            cols: Some(vec![id, total]),
        },
    ];
    probe::decompose(table, &[id, total], &shapes, out)?;
    let (reads, _) = &inputs.sessions[0];
    let pages = probe::page_reads(table, || {
        let s = table.begin_session();
        for &k in reads {
            s.read_by_key(&key_row(k))?;
        }
        s.finish();
        Ok(())
    })?;
    out.push("storage.page_reads_per_session", pages, "count");
    let dir = cfg
        .work_dir
        .join(format!("probe-{}-{}", cfg.kind.name(), std::process::id()));
    let (ms, flushed) = probe::durable_copy_checkpoint(table, N, &dir)?;
    out.push("durable.checkpoint_ms", ms, "ms");
    out.push("durable.pages_flushed_per_checkpoint", flushed, "count");
    Ok(())
}
