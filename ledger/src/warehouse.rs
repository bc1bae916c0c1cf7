//! `warehouse-day` and `durable-spill`: the paper's DailySales summary
//! view (Example 2.1) under a rolling window.
//!
//! Each maintenance batch adds one day of sales through
//! `ViewMaintainer::propagate`, retires the oldest day with a DELETE,
//! commits, and runs GC inline (on the durable tier a fuzzy checkpoint
//! follows each commit, before GC). The reader runs analyst sessions back
//! to back: five SQL queries, eight drill-down point lookups and two range
//! lookups in one 2VNL session, restarted whole when it expires, and
//! checked against the oracle at the session's own VN.

use crate::harness::{
    drive, timed, BatchSample, Config, Kind, Report, SessionSample, Shared, Window,
};
use crate::probe::{self, Shape};
use crate::sales::{
    AnalystParams, SalesInputs, SalesSize, Q_BY_CITY, Q_BY_PL, Q_COUNT, Q_TOP, RANGE_INDEX, TABLE,
};
use crate::trace::{SpanId, Trace, Tracer};
use crate::traced;
use std::cell::Cell;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wh_sql::{parse_statement, Params, QueryResult, Statement};
use wh_types::Value;
use wh_view::{SummaryViewDef, ViewMaintainer};
use wh_vnl::{ReaderSession, RetryPolicy, VnlError, VnlResult, VnlTable};
use wh_workload::SalesGenerator;

/// Versions kept per tuple: 2VNL.
const N: usize = 2;

struct Plan {
    size: SalesSize,
    period: Duration,
}

fn plan(cfg: &Config) -> Plan {
    let durable = cfg.kind == Kind::DurableSpill;
    let period = Duration::from_millis(match (cfg.tiny, durable) {
        (true, _) => 50,
        (false, false) => 200,
        (false, true) => 200,
    });
    let total = cfg.warmup() + Duration::from_secs_f64(cfg.seconds);
    let batches = (total.as_secs_f64() / period.as_secs_f64()).ceil() as usize + 2;
    let size = if cfg.tiny {
        SalesSize {
            window_days: 6,
            sales_per_day: 300,
            cities: 10,
            product_lines: 4,
            batches,
            sessions: 64,
        }
    } else {
        SalesSize {
            window_days: 50,
            sales_per_day: 4000,
            cities: 50,
            product_lines: 8,
            batches,
            sessions: 4096,
        }
    };
    Plan { size, period }
}

fn view_def() -> SummaryViewDef {
    SummaryViewDef::new(
        SalesGenerator::source_schema(),
        &["city", "state", "product_line", "date"],
        "amount",
        "total_sales",
    )
    .expect("DailySales view definition is valid")
}

/// Where a durable table lives: its directory and pool capacity (pages).
struct Disk {
    dir: PathBuf,
    capacity: usize,
}

/// Set-up: create, load, index and (durable tier) first checkpoint.
fn build(inputs: &SalesInputs, disk: Option<&Disk>) -> VnlResult<VnlTable> {
    let def = view_def();
    let table = match disk {
        None => def.create_table(TABLE, N)?,
        Some(d) => wh_vnl::create_durable(TABLE, def.summary_schema(), N, &d.dir, d.capacity)?,
    };
    table.load_initial(&inputs.initial_rows)?;
    table.create_index(RANGE_INDEX, &["city", "product_line"])?;
    if disk.is_some() {
        wh_vnl::checkpoint(&table)?;
    }
    Ok(table)
}

/// What one analyst session's successful attempt saw.
struct Answers {
    vn: u64,
    queries: Vec<QueryResult>,
    lookups: Vec<Option<wh_types::Row>>,
    ranges: Vec<Vec<wh_types::Row>>,
}

/// The reader's state across sessions.
struct Reader<'a> {
    inputs: &'a SalesInputs,
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

impl Reader<'_> {
    fn session(&mut self, i: usize) {
        let p = &self.inputs.sessions[i % self.inputs.sessions.len()];
        let traced = self.trace_run && i.is_multiple_of(2);
        self.tracer.set_on(traced);
        let req = i as u64 + 1;
        let start = Instant::now();
        let root = self.tracer.open_at("session", 0, req, start);
        let wasted = Cell::new(0u64);
        let mut lookups: Vec<f64> = Vec::new();
        let (inputs, base_vn, tracer) = (self.inputs, self.base_vn, &mut self.tracer);
        let (res, stats) = self.policy.run_with_stats(self.table, |s| {
            lookups.clear();
            let span = tracer.open("session.attempt", root, req);
            let mut rows = 0u64;
            let r = attempt(
                s,
                p,
                inputs,
                base_vn,
                tracer,
                span,
                req,
                &mut lookups,
                &mut rows,
            );
            tracer.close(span);
            if r.is_err() {
                wasted.set(wasted.get() + rows);
            }
            r
        });
        let failed = match res {
            Ok(answers) => {
                let v = self.tracer.open("oracle.verify", root, req);
                if let Err(e) = verify(self.inputs, self.base_vn, p, &answers) {
                    self.wrong
                        .push(format!("session {i} at VN {}: {e}", answers.vn));
                }
                self.tracer.close(v);
                false
            }
            Err(e) => {
                eprintln!("session {i} failed: {e}");
                true
            }
        };
        let end = Instant::now();
        self.tracer.close_at(root, end);
        if start >= self.measure_from {
            self.lookups_ns.extend_from_slice(&lookups);
        }
        self.sessions.push(SessionSample {
            start,
            end,
            ops: 1,
            attempts: stats.attempts,
            expirations: stats.expirations,
            repaired: stats.repaired,
            wasted_rows: wasted.get(),
            traced,
            failed,
        });
    }
}

/// One attempt of an analyst session inside session `s`.
#[allow(clippy::too_many_arguments)]
fn attempt(
    s: &ReaderSession<'_>,
    p: &AnalystParams,
    inputs: &SalesInputs,
    base_vn: u64,
    tr: &mut Tracer,
    parent: SpanId,
    req: u64,
    lookups: &mut Vec<f64>,
    rows: &mut u64,
) -> VnlResult<Answers> {
    let vn = s.session_vn();
    let mut queries = Vec::with_capacity(5);
    for (name, sql) in [
        ("query.count", Q_COUNT),
        ("query.by_city", Q_BY_CITY),
        ("query.by_pl", Q_BY_PL),
        ("query.filter", p.filter_sql.as_str()),
        ("query.topk", Q_TOP),
    ] {
        let q = tr.open(name, parent, req);
        let ps = tr.open("sql.parse", q, req);
        let stmt = parse_statement(sql);
        tr.close(ps);
        let Statement::Select(select) = stmt? else {
            return Err(VnlError::Sql(wh_sql::SqlError::Unsupported(sql.into())));
        };
        let es = tr.open("vnl.query_stmt", q, req);
        let res = s.query_stmt(&select);
        tr.close(es);
        tr.close(q);
        let res = res?;
        *rows += res.rows.len() as u64;
        queries.push(res);
    }
    let j = (vn - base_vn) as usize;
    let newest = inputs.newest_day(j);
    let mut found = Vec::with_capacity(p.lookups.len());
    for &(city, pl, back) in &p.lookups {
        let key = inputs.key_row(city, pl, newest - back as usize);
        let t = Instant::now();
        let span = tr.open_at("vnl.read_by_key", parent, req, t);
        let r = s.read_by_key(&key);
        let end = Instant::now();
        tr.close_at(span, end);
        lookups.push((end - t).as_nanos() as f64);
        found.push(r?);
    }
    let mut ranges = Vec::with_capacity(p.ranges.len());
    for &(city, pl) in &p.ranges {
        let key = [
            Value::from(inputs.cities[city as usize].clone()),
            Value::from(inputs.pls[pl as usize].clone()),
        ];
        let t = Instant::now();
        let span = tr.open_at("vnl.lookup_range", parent, req, t);
        let r = s.lookup_range(RANGE_INDEX, Some(&key), Some(&key));
        let end = Instant::now();
        tr.close_at(span, end);
        lookups.push((end - t).as_nanos() as f64);
        let r = r?;
        *rows += r.len() as u64;
        ranges.push(r);
    }
    Ok(Answers {
        vn,
        queries,
        lookups: found,
        ranges,
    })
}

fn int(v: &Value) -> Option<i64> {
    v.as_int()
}

/// Check every answer of a session against the oracle at its VN. The
/// queries are checked against one version, so their mutual consistency
/// (the roll-ups add up to the total) follows.
fn verify(
    inputs: &SalesInputs,
    base_vn: u64,
    p: &AnalystParams,
    a: &Answers,
) -> Result<(), String> {
    let j =
        a.vn.checked_sub(base_vn)
            .map(|j| j as usize)
            .filter(|&j| j < inputs.agg.len())
            .ok_or_else(|| format!("VN {} outside the generated versions", a.vn))?;
    let agg = &inputs.agg[j];
    let q = &a.queries;
    let count = q[0].rows.first().and_then(|r| int(&r[0]));
    if count != Some(agg.rows) {
        return Err(format!("COUNT(*) = {count:?}, expected {}", agg.rows));
    }
    // Roll-up by city.
    let mut by_city: Vec<(u16, i64)> = Vec::new();
    for r in &q[1].rows {
        let c = r[0]
            .as_str()
            .and_then(|s| inputs.city_of(s))
            .ok_or("unknown city")?;
        by_city.push((c, int(&r[1]).ok_or("NULL city sum")?));
    }
    by_city.sort_unstable();
    let want: Vec<(u16, i64)> = (0..inputs.cities.len())
        .filter(|&c| agg.city[c].1 > 0)
        .map(|c| (c as u16, agg.city[c].0))
        .collect();
    if by_city != want {
        return Err("GROUP BY city differs".into());
    }
    // Roll-up by product line.
    let mut by_pl: Vec<(u16, i64, i64)> = Vec::new();
    for r in &q[2].rows {
        let pl = r[0]
            .as_str()
            .and_then(|s| inputs.pl_of(s))
            .ok_or("unknown product line")?;
        by_pl.push((
            pl,
            int(&r[1]).ok_or("NULL sum")?,
            int(&r[2]).ok_or("NULL count")?,
        ));
    }
    by_pl.sort_unstable();
    let want: Vec<(u16, i64, i64)> = (0..inputs.pls.len())
        .filter(|&pl| agg.pl[pl].1 > 0)
        .map(|pl| (pl as u16, agg.pl[pl].0, agg.pl[pl].1))
        .collect();
    if by_pl != want {
        return Err("GROUP BY product_line differs".into());
    }
    // The two roll-ups must add up to the same total.
    let city_total: i64 = by_city.iter().map(|c| c.1).sum();
    let pl_total: i64 = by_pl.iter().map(|p| p.1).sum();
    if city_total != agg.total || pl_total != agg.total {
        return Err(format!(
            "roll-up totals {city_total} (city) and {pl_total} (product line), expected {}",
            agg.total
        ));
    }
    // Filter.
    let (mut sum, mut n) = (0i64, 0i64);
    let base = p.filter_pl as usize * inputs.days;
    for day in p.filter_day as usize..inputs.days {
        sum += agg.pl_day[base + day].0;
        n += agg.pl_day[base + day].1;
    }
    let row = q[3].rows.first().ok_or("filter returned no row")?;
    let got_sum = if n == 0 {
        row[1].is_null().then_some(0)
    } else {
        int(&row[1])
    };
    if int(&row[0]) != Some(n) || got_sum != Some(sum) {
        return Err(format!("filter = {row:?}, expected ({n}, {sum})"));
    }
    // Top-k: the values in order, and each row as the oracle has it.
    let top: Vec<i64> = q[4].rows.iter().filter_map(|r| int(&r[3])).collect();
    if top != agg.top {
        return Err(format!("top-k values {top:?}, expected {:?}", agg.top));
    }
    for r in &q[4].rows {
        let full = [r[0].clone(), Value::Null, r[1].clone(), r[2].clone()];
        let key = inputs
            .key_of_row(&full)
            .ok_or("top-k row with unknown key")?;
        if inputs.at(key, j).map(|v| v.0) != int(&r[3]) {
            return Err(format!("top-k row {r:?} differs"));
        }
    }
    // Drill-down lookups.
    let newest = inputs.newest_day(j);
    for (&(city, pl, back), got) in p.lookups.iter().zip(&a.lookups) {
        let key = inputs.key(city, pl, newest - back as usize);
        let got = got
            .as_ref()
            .map(|r| (int(&r[4]).unwrap_or(-1), int(&r[5]).unwrap_or(-1)));
        if got != inputs.at(key, j) {
            return Err(format!(
                "read_by_key {key} = {got:?}, expected {:?}",
                inputs.at(key, j)
            ));
        }
    }
    for (&(city, pl), got) in p.ranges.iter().zip(&a.ranges) {
        let mut got: Vec<(u32, i64, i64)> = got
            .iter()
            .map(|r| {
                let key = inputs.key_of_row(r).unwrap_or(u32::MAX);
                (key, int(&r[4]).unwrap_or(-1), int(&r[5]).unwrap_or(-1))
            })
            .collect();
        got.sort_unstable();
        let want: Vec<(u32, i64, i64)> = (0..inputs.days)
            .filter_map(|day| {
                let key = inputs.key(city, pl, day);
                inputs.at(key, j).map(|(s, c)| (key, s, c))
            })
            .collect();
        if got != want {
            return Err(format!("lookup_range ({city}, {pl}) differs"));
        }
    }
    Ok(())
}

/// Check the whole table, read at its current VN, against the oracle's
/// state at version index `j`.
fn verify_state(table: &VnlTable, inputs: &SalesInputs, j: usize) -> Result<(), String> {
    let session = table.begin_session();
    let rows = session.scan().map_err(|e| format!("scan: {e}"))?;
    session.finish();
    let want = inputs.state_at(j);
    if rows.len() != want.len() {
        return Err(format!("{} rows, expected {}", rows.len(), want.len()));
    }
    for r in &rows {
        let key = inputs.key_of_row(r).ok_or("row with unknown key")?;
        let got = (int(&r[4]).unwrap_or(-1), int(&r[5]).unwrap_or(-1));
        if want.get(&key) != Some(&got) {
            return Err(format!("row {r:?} differs from {:?}", want.get(&key)));
        }
    }
    Ok(())
}

/// The maintenance thread's state across batches.
struct Maint<'a> {
    inputs: &'a SalesInputs,
    table: &'a VnlTable,
    maintainer: ViewMaintainer,
    base_vn: u64,
    durable: bool,
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
            .propagate(&txn, &self.inputs.batches[i])
            .map_err(|e| e.to_string())?;
        tr.close(s);
        let s = tr.open("maint.retire", root, req);
        txn.execute_sql(&self.inputs.retire_sql[i], &Params::new())
            .map_err(|e| e.to_string())?;
        tr.close(s);
        let s = tr.open("maint.commit", root, req);
        txn.commit().map_err(|e| e.to_string())?;
        let committed = Instant::now();
        tr.close_at(s, committed);
        let mut pages_flushed = 0;
        if self.durable {
            let s = tr.open("durable.checkpoint", root, req);
            pages_flushed = wh_vnl::checkpoint(self.table)
                .map_err(|e| e.to_string())?
                .pages_flushed;
            tr.close(s);
        }
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
            pages_flushed,
        });
        Ok(())
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let durable = cfg.kind == Kind::DurableSpill;
    let Plan { size, period } = plan(cfg);
    let inputs = SalesInputs::generate(size, cfg.seed);
    let e = |e: VnlError| e.to_string();
    // The pool holds a quarter of the heap: size it from a scratch load.
    let capacity = if durable {
        let t = build(&inputs, None).map_err(e)?;
        (t.storage().heap().page_count() as usize / 4).max(8)
    } else {
        0
    };
    let dir_of = |r: usize| {
        cfg.work_dir
            .join(format!("{}-{}-{r}", cfg.kind.name(), std::process::id()))
    };
    let mut setup_s = Vec::new();
    let mut table = None;
    for r in 0..cfg.setup_reps() {
        drop(table.take());
        let disk = durable.then(|| Disk {
            dir: dir_of(r),
            capacity,
        });
        if let Some(d) = &disk {
            let _ = std::fs::remove_dir_all(&d.dir);
            std::fs::create_dir_all(&d.dir).map_err(|e| e.to_string())?;
        }
        let (t, secs) = timed(|| build(&inputs, disk.as_ref()));
        table = Some(t.map_err(e)?);
        setup_s.push(secs);
        if r > 0 {
            let _ = std::fs::remove_dir_all(dir_of(r - 1));
        }
    }
    let table = table.expect("at least one set-up");
    let dir = dir_of(cfg.setup_reps() - 1);
    let base_vn = table.version().snapshot().current_vn;
    // Restart is timed twice, on a spare table before the load and on the
    // loaded table after it, so that one slow spell of the machine weighs
    // on half the samples only.
    let mut out = Report::default();
    let spare_disk = durable.then(|| Disk {
        dir: dir_of(cfg.setup_reps()),
        capacity,
    });
    if let Some(d) = &spare_disk {
        std::fs::create_dir_all(&d.dir).map_err(|e| e.to_string())?;
    }
    let spare = build(&inputs, spare_disk.as_ref()).map_err(e)?;
    let (mut restart_ms, _) = restart(
        cfg,
        &inputs,
        &ViewMaintainer::new(view_def()),
        spare,
        spare_disk.as_ref(),
        base_vn,
        0,
        &mut out,
    )?;
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
        durable,
        tracer: Tracer::new(cfg.trace, 2, epoch),
        batches: Vec::new(),
    };
    let last_batch = inputs.batches.len() - 1; // kept back for the crash
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
    let pages = table.storage().heap().page_count() as f64;
    let bytes_per_row = pages * wh_storage::PAGE_SIZE as f64 / inputs.agg[j].rows.max(1) as f64;
    out.wrong.extend(wrong);
    let mut layers = Report::default();
    if cfg.trace {
        layer_probes(cfg, &inputs, &table, base_vn, durable, &mut layers).map_err(e)?;
    }
    // §7 restart: crash a maintenance batch and recover without a log.
    let disk = durable.then_some(Disk { dir, capacity });
    let (after, recovery_scanned) = restart(
        cfg,
        &inputs,
        &maintainer,
        table,
        disk.as_ref(),
        base_vn,
        j,
        &mut out,
    )?;
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
        cfg,
        &shared,
        out,
        layers,
        &registry,
        load_s,
        &trace,
        recovery_scanned,
    )
}

/// The traced run's quiescent probes on the final table.
fn layer_probes(
    cfg: &Config,
    inputs: &SalesInputs,
    table: &VnlTable,
    base_vn: u64,
    durable: bool,
    out: &mut Report,
) -> VnlResult<()> {
    let schema = table.layout().base_schema();
    let col = |n: &str| schema.column_index(n).expect("DailySales column");
    let (city, pl, date, sales) = (
        col("city"),
        col("product_line"),
        col("date"),
        col("total_sales"),
    );
    let shapes = [
        Shape {
            name: "count",
            sql: Q_COUNT.into(),
            cols: None,
        },
        Shape {
            name: "filter",
            sql: inputs.sessions[0].filter_sql.clone(),
            cols: None,
        },
        Shape {
            name: "group",
            sql: Q_BY_CITY.into(),
            cols: Some(vec![city, sales]),
        },
        Shape {
            name: "topk",
            sql: Q_TOP.into(),
            cols: Some(vec![city, pl, date, sales]),
        },
    ];
    probe::decompose(table, &[city, sales], &shapes, out)?;
    // One whole analyst session, quiescent.
    let p = &inputs.sessions[0];
    let reads = probe::page_reads(table, || {
        let s = table.begin_session();
        let mut tr = Tracer::new(false, 0, Instant::now());
        let (mut l, mut r) = (Vec::new(), 0);
        attempt(&s, p, inputs, base_vn, &mut tr, 0, 0, &mut l, &mut r)?;
        s.finish();
        Ok(())
    })?;
    out.push("storage.page_reads_per_session", reads, "count");
    if !durable {
        let dir = cfg
            .work_dir
            .join(format!("probe-{}-{}", cfg.kind.name(), std::process::id()));
        let (ms, pages) = probe::durable_copy_checkpoint(table, N, &dir)?;
        out.push("durable.checkpoint_ms", ms, "ms");
        out.push("durable.pages_flushed_per_checkpoint", pages, "count");
    }
    Ok(())
}

/// Crash batch `j` on `table`, which holds version index `j`, and time
/// restart `cfg.restart_reps()` times: in place on the in-memory tier, from
/// the directory alone on the disk tier (whose files are then removed).
/// Returns the times (ms) and the rows the last recovery scanned.
#[allow(clippy::too_many_arguments)]
fn restart(
    cfg: &Config,
    inputs: &SalesInputs,
    maintainer: &ViewMaintainer,
    table: VnlTable,
    disk: Option<&Disk>,
    base_vn: u64,
    j: usize,
    out: &mut Report,
) -> Result<(Vec<f64>, f64), String> {
    match disk {
        None => restart_in_memory(cfg, inputs, maintainer, &table, j, out),
        Some(d) => {
            let r = restart_durable(cfg, inputs, maintainer, table, d, base_vn, j, out);
            let _ = std::fs::remove_dir_all(&d.dir);
            r
        }
    }
}

/// Start the next batch, stop it dead mid-transaction (the transaction is
/// forgotten, never committed or aborted), and time §7 recovery on the
/// live table. Repeated; the table is checked against the oracle after.
fn restart_in_memory(
    cfg: &Config,
    inputs: &SalesInputs,
    maintainer: &ViewMaintainer,
    table: &VnlTable,
    j: usize,
    out: &mut Report,
) -> Result<(Vec<f64>, f64), String> {
    let next = j;
    let mut times = Vec::new();
    let mut scanned = 0.0;
    for _ in 0..cfg.restart_reps() {
        crash_batch(inputs, maintainer, table, next)?;
        let t = Instant::now();
        let rep = wh_vnl::recover(table).map_err(|e| e.to_string())?;
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

/// Apply batch `i` inside a maintenance transaction that never ends.
fn crash_batch(
    inputs: &SalesInputs,
    maintainer: &ViewMaintainer,
    table: &VnlTable,
    i: usize,
) -> Result<(), String> {
    let txn = table.begin_maintenance().map_err(|e| e.to_string())?;
    maintainer
        .propagate(&txn, &inputs.batches[i])
        .map_err(|e| e.to_string())?;
    txn.execute_sql(&inputs.retire_sql[i], &Params::new())
        .map_err(|e| e.to_string())?;
    std::mem::forget(txn);
    Ok(())
}

/// Crash the durable table mid-batch after its dirty pages reached disk
/// (steal), drop it, and time restart from the directory alone —
/// repeatedly. The recovered contents must equal the oracle's state at the
/// checkpoint's VN.
#[allow(clippy::too_many_arguments)]
fn restart_durable(
    cfg: &Config,
    inputs: &SalesInputs,
    maintainer: &ViewMaintainer,
    table: VnlTable,
    disk: &Disk,
    base_vn: u64,
    j: usize,
    out: &mut Report,
) -> Result<(Vec<f64>, f64), String> {
    crash_batch(inputs, maintainer, &table, j)?;
    table
        .storage()
        .heap()
        .flush_all()
        .map_err(|e| e.to_string())?;
    drop(table);
    let schema = view_def().summary_schema();
    let mut times = Vec::new();
    let mut scanned = 0.0;
    for r in 0..cfg.restart_reps() {
        let t = Instant::now();
        let (t2, rep) =
            wh_vnl::recover_from_disk(TABLE, schema.clone(), N, &disk.dir, disk.capacity)
                .map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        scanned = rep.recovery.scanned as f64;
        if rep.recovery.log_writes != 0 {
            out.wrong.push("restart wrote a log".into());
        }
        if r == 0 {
            let jc = (rep.checkpoint_vn - base_vn) as usize;
            if jc != j {
                out.wrong
                    .push(format!("checkpoint at version {jc}, expected {j}"));
            }
            if let Err(e) = verify_state(&t2, inputs, jc) {
                out.wrong.push(format!("after restart: {e}"));
            }
        }
    }
    Ok((times, scanned))
}
