//! Reader sessions: consistent reads without locks (§3.2, §4.1).

use crate::error::{VnlError, VnlResult};
use crate::resilience::LeaseId;
use crate::scan::BatchScanner;
use crate::table::VnlTable;
use crate::version::VersionNo;
use std::cell::Cell;
use std::time::Duration;
use wh_sql::{
    execute_select, execute_select_parallel, parse_statement, Params, QueryResult, RowSource,
    SelectStmt, SqlError, SqlResult, Statement,
};
use wh_types::{Row, Schema, Value};

/// Liveness of a session per the §4.1 global check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The session is still guaranteed a consistent view.
    Live,
    /// The session has expired; the reader should begin a new session.
    Expired,
}

/// A reader session pinned to one database version.
///
/// Throughout its life the session sees the state current as of its
/// `sessionVN` — across any number of queries, while maintenance
/// transactions run concurrently, without acquiring a single lock.
pub struct ReaderSession<'t> {
    table: &'t VnlTable,
    id: u64,
    session_vn: VersionNo,
    finished: bool,
    /// Set when the session was begun through
    /// [`VnlTable::begin_leased_session`]; released with the session.
    lease: Option<LeaseId>,
    /// Rolling call count behind [`ReaderSession::note_staleness_sampled`].
    staleness_probe: std::sync::atomic::AtomicU32,
    /// Root trace span covering the session; each read operation's span
    /// parents under it so a session's whole read history shares one
    /// trace id. Closed when the session is released.
    span_ctx: wh_obs::TraceCtx,
}

/// RAII probe feeding the read-latency SLO sliding window on drop; inert
/// (no clock read) when observability is disabled.
struct ReadProbe(Option<std::time::Instant>);

impl ReadProbe {
    fn start() -> ReadProbe {
        ReadProbe(wh_obs::is_enabled().then(std::time::Instant::now))
    }
}

impl Drop for ReadProbe {
    fn drop(&mut self) {
        if let Some(t) = self.0 {
            wh_obs::slo::note_read_latency(t.elapsed().as_nanos() as u64);
        }
    }
}

impl<'t> ReaderSession<'t> {
    pub(crate) fn new(table: &'t VnlTable, id: u64, session_vn: VersionNo) -> Self {
        ReaderSession {
            table,
            id,
            session_vn,
            finished: false,
            lease: None,
            staleness_probe: std::sync::atomic::AtomicU32::new(0),
            span_ctx: wh_obs::trace::open_ctx(wh_obs::trace_name!("vnl.session"), 0, session_vn),
        }
    }

    /// The version this session reads.
    pub fn session_vn(&self) -> VersionNo {
        self.session_vn
    }

    pub(crate) fn set_lease(&mut self, lease: LeaseId) {
        self.lease = Some(lease);
    }

    /// The session's lease, when begun through
    /// [`VnlTable::begin_leased_session`].
    pub fn lease(&self) -> Option<LeaseId> {
        self.lease
    }

    /// Renew the session's lease, declaring about `hint` of remaining
    /// work. Fails with [`VnlError::SessionExpired`] when the session
    /// already failed the §4.1 global check or a pacer revoked the lease
    /// (`ExpireOldest`) — either way the holder should finish and restart
    /// at a fresh VN (see [`crate::resilience::RetryPolicy`]). On an
    /// unleased session this is just the liveness check.
    pub fn renew_lease(&self, hint: Duration) -> VnlResult<()> {
        self.assert_live()?;
        match self.lease {
            Some(id) if !self.table.version().leases().renew(id, hint) => {
                self.table.note_expiration();
                Err(self.table.expired_error(self.session_vn))
            }
            _ => Ok(()),
        }
    }

    /// Whether a pacer revoked this session's lease. The session may still
    /// pass the global check for a moment; a cooperative reader treats
    /// revocation as "wrap up and restart".
    pub fn lease_revoked(&self) -> bool {
        self.lease
            .is_some_and(|id| self.table.version().leases().is_revoked(id))
    }

    /// Publish this session's staleness (`currentVN − sessionVN`, the §3.2
    /// "how far behind the warehouse is this reader" measure) into the
    /// registry. Called at every scan/query entry point; reads the
    /// version's relaxed mirror so telemetry takes no latch and never
    /// charges the experiments' mirrored-I/O counters.
    fn note_staleness(&self) {
        if !wh_obs::is_enabled() {
            return;
        }
        let current = self.table.version().current_vn_relaxed();
        let lag = current.saturating_sub(self.session_vn);
        wh_obs::gauge!("vnl.reader.staleness").set(lag as i64);
        wh_obs::histogram!("vnl.reader.staleness_vns").record(lag);
        wh_obs::slo::note_staleness(lag);
    }

    /// Sampled [`ReaderSession::note_staleness`] for point-read entry
    /// points: a key lookup finishes in well under a microsecond, where
    /// even the lock-free staleness note is a measurable fraction of the
    /// operation, so only every 16th call records (the first always does).
    fn note_staleness_sampled(&self) {
        if !wh_obs::is_enabled() {
            return;
        }
        if self
            .staleness_probe
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed) // ordering: stat-counter Relaxed — independent event counter; read only for reporting
            .is_multiple_of(16)
        {
            self.note_staleness();
        }
    }

    /// The §4.1 global (pessimistic) expiration check against the Version
    /// relation: `(sessionVN = currentVN) ∨ (sessionVN = currentVN − 1 ∧
    /// ¬maintenanceActive)`, generalized for nVNL.
    pub fn status(&self) -> ReadOutcome {
        if self
            .table
            .version()
            .session_live(self.session_vn, self.table.effective_n())
        {
            ReadOutcome::Live
        } else {
            ReadOutcome::Expired
        }
    }

    /// Err variant of [`ReaderSession::status`], for `?`-chaining.
    pub fn assert_live(&self) -> VnlResult<()> {
        match self.status() {
            ReadOutcome::Live => Ok(()),
            ReadOutcome::Expired => {
                self.table.note_expiration();
                Err(self.table.expired_error(self.session_vn))
            }
        }
    }

    /// Scan the relation as of this session's version. Uses the per-tuple
    /// expiration detector: a tuple modified out from under the session
    /// raises [`VnlError::SessionExpired`].
    pub fn scan(&self) -> VnlResult<Vec<Row>> {
        let mut out = Vec::new();
        self.scan_with(|row| {
            out.push(row);
            Ok(())
        })?;
        Ok(out)
    }

    /// Streaming twin of [`ReaderSession::scan`]: `visit` receives each
    /// visible row in heap order without the session materializing the
    /// relation. Each heap page is classified as one batch (Table 1 over
    /// the gathered version columns), and only visible tuples decode.
    pub fn scan_with<F>(&self, visit: F) -> VnlResult<()>
    where
        F: FnMut(Row) -> VnlResult<()>,
    {
        self.scan_inline(wh_obs::trace_name!("vnl.read.scan"), None, visit)
    }

    /// [`ReaderSession::scan_with`] with projection pushdown: rows carry
    /// only the base-schema columns listed in `cols`, in that order, and no
    /// other column is ever decoded.
    pub fn scan_projected_with<F>(&self, cols: &[usize], visit: F) -> VnlResult<()>
    where
        F: FnMut(Row) -> VnlResult<()>,
    {
        let span = wh_obs::trace_name!("vnl.read.scan_projected");
        self.scan_inline(span, Some(cols), visit)
    }

    /// Parallel partitioned scan: the heap is split into contiguous page
    /// ranges handled by up to `threads` workers, and `visit(worker, row)`
    /// runs on those workers. Exactly the rows of [`ReaderSession::scan`]
    /// are delivered (same Table 1 semantics at this session's version,
    /// including per-tuple expiration), but interleaving across workers is
    /// nondeterministic — within one worker, rows arrive in heap order.
    pub fn scan_parallel<F>(&self, threads: usize, visit: F) -> VnlResult<()>
    where
        F: Fn(usize, Row) -> VnlResult<()> + Sync,
    {
        let visit = &visit;
        let mut workers: Vec<_> = (0..threads.max(1))
            .map(|w| move |row| visit(w, row))
            .collect();
        self.read(wh_obs::trace_name!("vnl.read.scan_parallel"), || {
            let scanner = self.batch_scanner(None);
            self.table
                .scan_visible(&scanner, self.session_vn, &mut workers)
        })
    }

    /// Count the rows visible to this session without decoding any of them
    /// — the scan's classify-only fast path (a selection bitmap popcount
    /// per page).
    pub fn count(&self) -> VnlResult<u64> {
        self.read(wh_obs::trace_name!("vnl.read.count"), || {
            let scanner =
                BatchScanner::new_sparse(self.table.layout(), self.table.storage().codec(), &[]);
            let counts = self.table.scan_classified(
                &scanner,
                self.session_vn,
                vec![0u64],
                |n, _, classes| {
                    *n += classes.selected() as u64;
                    Ok(())
                },
            )?;
            Ok(counts.iter().sum())
        })
    }

    /// The one entry behind every scan, count and query: opens the read's
    /// span (`span`, interned with `wh_obs::trace_name!`) under the
    /// session's, feeds the read-latency SLO when it ends, and publishes
    /// staleness before running `read`.
    fn read<T>(&self, span: u32, read: impl FnOnce() -> VnlResult<T>) -> VnlResult<T> {
        let _ts = wh_obs::trace::enter_under(span, self.span_ctx);
        let _lat = ReadProbe::start();
        self.note_staleness();
        read()
    }

    /// A one-partition row scan on the caller's thread through
    /// [`ReaderSession::read`], so `visit` need not be `Send`.
    fn scan_inline<F>(&self, span: u32, cols: Option<&[usize]>, visit: F) -> VnlResult<()>
    where
        F: FnMut(Row) -> VnlResult<()>,
    {
        self.read(span, || {
            let scanner = self.batch_scanner(cols);
            self.table
                .scan_visible_inline(&scanner, self.session_vn, visit)
        })
    }

    /// Build this session's batch scanner. `cols = None` decodes the full
    /// base row; `Some` decodes exactly those columns in that order.
    fn batch_scanner(&self, cols: Option<&[usize]>) -> BatchScanner {
        BatchScanner::new(self.table.layout(), self.table.storage().codec(), cols)
    }

    /// Point lookup by key (base-schema row whose key columns are set).
    /// `Ok(None)` when the tuple is logically absent at this version.
    pub fn read_by_key(&self, key_row: &[Value]) -> VnlResult<Option<Row>> {
        self.note_staleness_sampled();
        self.table.read_visible_by_key(key_row, self.session_vn)
    }

    /// Equality lookup through a §4.3 secondary index: all *visible* rows
    /// whose indexed columns equal `key` (values in index-column order).
    pub fn lookup_eq(&self, index: &str, key: &[Value]) -> VnlResult<Vec<Row>> {
        self.note_staleness_sampled();
        // The pin spans probe → resolve: GC may retire a probed tuple in
        // between, but cannot release (reuse) its slot while we hold the
        // epoch — the fetch then sees a clean miss, never foreign bytes.
        let _pin = self.table.epochs().pin();
        let rids = self.table.index_lookup_eq(index, key)?;
        self.resolve_rids(rids)
    }

    /// Range lookup through a secondary index: all visible rows whose
    /// indexed columns fall in `[lo, hi]` (inclusive; `None` = unbounded).
    pub fn lookup_range(
        &self,
        index: &str,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> VnlResult<Vec<Row>> {
        self.note_staleness_sampled();
        // Pin across probe → resolve; see `lookup_eq`.
        let _pin = self.table.epochs().pin();
        let rids = self.table.index_lookup_range(index, lo, hi)?;
        self.resolve_rids(rids)
    }

    /// Fetch + version-extract a set of RIDs, with per-tuple expiration
    /// detection (Table 1 applies at the index leaf exactly as in a scan).
    fn resolve_rids(&self, rids: Vec<wh_storage::Rid>) -> VnlResult<Vec<Row>> {
        let layout = self.table.layout();
        let mut out = Vec::with_capacity(rids.len());
        for rid in rids {
            let ext = match self.table.storage().read(rid) {
                Ok(e) => e,
                // The tuple may have been GC'd between index probe and fetch.
                Err(wh_storage::StorageError::NoSuchSlot { .. }) => continue,
                Err(e) => return Err(e.into()),
            };
            match crate::visibility::extract(layout, &ext, self.session_vn) {
                crate::visibility::Visible::Row(r) => out.push(r),
                crate::visibility::Visible::Ignore => {}
                crate::visibility::Visible::Expired => {
                    self.table.note_expiration();
                    return Err(self.table.expired_error(self.session_vn));
                }
            }
        }
        // Re-check the recovery fence after the resolves: a crash recovery
        // concurrent with this lookup may have reconstructed the slots the
        // resolves read from.
        self.table.fence_check(self.session_vn)?;
        Ok(out)
    }

    /// Run a SELECT over the session's consistent view using programmatic
    /// version extraction (always correct, including per-tuple expiration
    /// detection). The statement references base-schema columns.
    pub fn query(&self, sql: &str) -> VnlResult<QueryResult> {
        self.query_stmt(&parse_select(sql)?)
    }

    /// Like [`ReaderSession::query`] with a pre-parsed statement. The
    /// executor folds rows straight off the batched scan — WHERE is
    /// applied per tuple as it is extracted, never against a materialized
    /// snapshot, and pushable WHERE conjuncts run inside the page classify
    /// kernel, before decode.
    pub fn query_stmt(&self, select: &SelectStmt) -> VnlResult<QueryResult> {
        self.run_select(wh_obs::trace_name!("vnl.read.query"), select, 1)
    }

    /// Parallel form of [`ReaderSession::query`]: the scan is partitioned
    /// across up to `threads` workers and aggregates are folded into
    /// per-worker partial states merged at the end. Results are identical
    /// to the serial path (worker partitions are contiguous heap ranges
    /// merged in order) up to floating-point reassociation in SUM/AVG.
    pub fn query_parallel(&self, sql: &str, threads: usize) -> VnlResult<QueryResult> {
        self.query_stmt_parallel(&parse_select(sql)?, threads)
    }

    /// Like [`ReaderSession::query_parallel`] with a pre-parsed statement.
    pub fn query_stmt_parallel(
        &self,
        select: &SelectStmt,
        threads: usize,
    ) -> VnlResult<QueryResult> {
        let span = wh_obs::trace_name!("vnl.read.query_parallel");
        self.run_select(span, select, threads)
    }

    /// A SELECT through [`ReaderSession::read`], folded over up to
    /// `threads` scan partitions.
    fn run_select(&self, span: u32, select: &SelectStmt, threads: usize) -> VnlResult<QueryResult> {
        self.read(span, || {
            let (source, exec_stmt) = self.source_for(select)?;
            let res = execute_select_parallel(&source, &exec_stmt, &Params::new(), threads);
            source.settle(res)
        })
    }

    /// Plan a statement against this session: build the scan source and the
    /// statement the executor should actually run. The two are planned
    /// together — pushable WHERE conjuncts move into the scanner's filter
    /// kernel (and out of the executor statement), and the *residual*
    /// statement's referenced columns drive projection pushdown, so a
    /// column referenced only by pushed filters is never decoded at all.
    fn source_for(&self, select: &SelectStmt) -> VnlResult<(SessionSource<'_>, SelectStmt)> {
        if select.from != self.table.name() {
            return Err(VnlError::Sql(SqlError::NoSuchTable(select.from.clone())));
        }
        let mut exec_stmt = select.clone();
        let layout = self.table.layout();
        let codec = self.table.storage().codec();
        let filters: Vec<crate::scan::ColumnFilter> = match &select.where_clause {
            Some(pred) => {
                let (pushed, residual) = wh_sql::extract_scan_filters(pred, layout.base_schema());
                exec_stmt.where_clause = residual;
                pushed.iter().map(kernel_filter).collect()
            }
            None => Vec::new(),
        };
        // Rows keep full base arity (the executor addresses columns by
        // index) but only the residual statement's referenced columns
        // decode.
        let scanner = match needed_base_cols(&exec_stmt, layout.base_schema()) {
            Some(needed) => BatchScanner::new_sparse_filtered(layout, codec, &needed, &filters),
            None if filters.is_empty() => BatchScanner::new(layout, codec, None),
            None => {
                let all: Vec<usize> = (0..layout.base_schema().arity()).collect();
                BatchScanner::new_sparse_filtered(layout, codec, &all, &filters)
            }
        };
        Ok((
            SessionSource {
                table: self.table,
                session_vn: self.session_vn,
                scanner,
                failure: Cell::new(None),
            },
            exec_stmt,
        ))
    }

    /// Run a SELECT the way §4 deploys 2VNL on a stock DBMS: **rewrite** the
    /// query (CASE expressions + WHERE guard, Example 4.1), execute it
    /// directly against the extended physical table with `:sessionVN` bound,
    /// then apply the §4.1 global expiration check — rewritten SQL cannot
    /// detect expiration per tuple, so the check validates the result.
    pub fn query_via_rewrite(&self, sql: &str) -> VnlResult<QueryResult> {
        let select = parse_select(sql)?;
        if select.from != self.table.name() {
            return Err(VnlError::Sql(SqlError::NoSuchTable(select.from)));
        }
        self.read(wh_obs::trace_name!("vnl.read.query_rewrite"), || {
            let rewritten = self.table.rewriter().rewrite_select(&select)?;
            let mut params = Params::new();
            params.insert("sessionVN".into(), Value::from(self.session_vn as i64));
            let result = execute_select(self.table.storage(), &rewritten, &params)?;
            self.assert_live()?;
            Ok(result)
        })
    }

    /// End the session, deregistering it (and releasing its lease).
    pub fn finish(mut self) {
        self.release();
        self.finished = true;
    }

    fn release(&mut self) {
        if let Some(lease) = self.lease.take() {
            self.table.version().leases().release(lease);
        }
        self.table.end_session(self.id);
        wh_obs::trace::close_ctx(self.span_ctx, self.session_vn);
    }
}

impl Drop for ReaderSession<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.release();
        }
    }
}

/// Streaming row source over one session's consistent view: the SQL
/// executor folds rows straight off [`VnlTable::scan_visible`], one
/// partition per executor visitor — no intermediate snapshot.
///
/// The executor speaks [`SqlError`], but the scan can fail with
/// session-level errors (expiration, storage faults) that must surface as
/// [`VnlError`]. Those are stashed in `failure` and transported out of the
/// executor as [`wh_storage::StorageError::ScanAborted`]; [`Self::settle`]
/// unwraps the stash on the way back to the caller.
struct SessionSource<'a> {
    table: &'a VnlTable,
    session_vn: VersionNo,
    /// The statement-specific scanner: pushed filters plus the columns
    /// the residual statement needs.
    scanner: BatchScanner,
    failure: Cell<Option<VnlError>>,
}

impl SessionSource<'_> {
    /// Convert a scan-level [`VnlError`] into the [`SqlError`] the executor
    /// expects, stashing anything that has no SQL representation.
    fn smuggle(&self, e: VnlError) -> SqlError {
        match e {
            VnlError::Sql(sql) => sql,
            other => {
                let first = self.failure.take().unwrap_or(other);
                self.failure.set(Some(first));
                SqlError::Storage(wh_storage::StorageError::ScanAborted)
            }
        }
    }

    /// Resolve an executor result against the stash: the stashed
    /// [`VnlError`] wins (its paired `ScanAborted` was only the transport).
    fn settle(&self, res: SqlResult<QueryResult>) -> VnlResult<QueryResult> {
        match (res, self.failure.take()) {
            (_, Some(e)) => Err(e),
            (Err(e), None) => Err(VnlError::Sql(e)),
            (Ok(r), None) => Ok(r),
        }
    }
}

impl RowSource for SessionSource<'_> {
    fn schema(&self) -> &Schema {
        self.table.layout().base_schema()
    }

    fn for_each(
        &self,
        visitors: &mut [&mut (dyn FnMut(Row) -> SqlResult<()> + Send)],
    ) -> SqlResult<()> {
        let mut parts: Vec<_> = visitors
            .iter_mut()
            .map(|visit| move |row| visit(row).map_err(VnlError::Sql))
            .collect();
        self.table
            .scan_visible(&self.scanner, self.session_vn, &mut parts)
            .map_err(|e| self.smuggle(e))
    }
}

/// Parse `sql` as a SELECT: reader sessions are read-only.
fn parse_select(sql: &str) -> VnlResult<SelectStmt> {
    match parse_statement(sql)? {
        Statement::Select(select) => Ok(select),
        _ => Err(VnlError::Sql(SqlError::Unsupported(
            "reader sessions are read-only".into(),
        ))),
    }
}

/// Translate a planned `wh_sql` scan filter into the kernel's
/// SQL-type-free form.
fn kernel_filter(f: &wh_sql::ScanFilter) -> crate::scan::ColumnFilter {
    use crate::scan::FilterOp as K;
    crate::scan::ColumnFilter {
        column: f.column,
        op: match f.op {
            wh_sql::FilterOp::Lt => K::Lt,
            wh_sql::FilterOp::LtEq => K::LtEq,
            wh_sql::FilterOp::Gt => K::Gt,
            wh_sql::FilterOp::GtEq => K::GtEq,
            wh_sql::FilterOp::Eq => K::Eq,
            wh_sql::FilterOp::NotEq => K::NotEq,
        },
        literal: f.literal,
    }
}

/// The base-schema columns a SELECT references, for projection pushdown
/// into the batch decoder. `None` means "decode everything": `SELECT *`
/// (empty item list), or any name that does not resolve against the base
/// schema (the executor will fail it with a proper error — the scan must
/// not mask that by handing back a NULL column).
fn needed_base_cols(select: &SelectStmt, schema: &Schema) -> Option<Vec<usize>> {
    if select.items.is_empty() {
        return None;
    }
    let mut names = Vec::new();
    for item in &select.items {
        item.expr.referenced_columns(&mut names);
    }
    if let Some(w) = &select.where_clause {
        w.referenced_columns(&mut names);
    }
    for g in &select.group_by {
        g.referenced_columns(&mut names);
    }
    if let Some(h) = &select.having {
        h.referenced_columns(&mut names);
    }
    for k in &select.order_by {
        k.expr.referenced_columns(&mut names);
    }
    let mut cols = Vec::with_capacity(names.len());
    for name in &names {
        match schema.column_index(name) {
            Ok(i) => {
                if !cols.contains(&i) {
                    cols.push(i);
                }
            }
            Err(_) => return None,
        }
    }
    cols.sort_unstable();
    Some(cols)
}
