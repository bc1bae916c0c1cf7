//! Query execution: scan → filter → group/aggregate → project → sort.
//!
//! Every SELECT is one **streaming fold**: the executor hands a
//! [`RowSource`] one visitor per scan partition and, inside each visitor,
//! applies WHERE, then either projects the row (plain queries) or folds it
//! into one accumulator per aggregate call site of its group — so no input
//! row is ever buffered, and an aggregate query holds only its groups. Each
//! partition's state is owned by the visitor that folds it; the partitions
//! merge in order at the end. A serial query is the one-partition case.

use crate::ast::{AggFunc, Expr, SelectItem, SelectStmt};
use crate::error::{SqlError, SqlResult};
use crate::eval::{EvalContext, Params};
use std::collections::HashMap;
use wh_index::IndexKey;
use wh_storage::{StorageError, Table};
use wh_types::{Row, Schema, Value};

/// Anything that can supply a schema and a partitioned row scan.
/// Implemented by storage tables; the 2VNL layer implements it for
/// version-filtered views.
pub trait RowSource {
    /// Schema of produced rows.
    fn schema(&self) -> &Schema;

    /// Visit every row once, through one visitor per scan partition. A
    /// source that partitions splits its rows into `visitors.len()`
    /// contiguous ranges in scan order and feeds range `w` to
    /// `visitors[w]`, possibly on a worker thread; any other source feeds
    /// every row to `visitors[0]`. Sources should stream — produce each
    /// row and hand it over without materializing the relation.
    fn for_each(
        &self,
        visitors: &mut [&mut (dyn FnMut(Row) -> SqlResult<()> + Send)],
    ) -> SqlResult<()>;
}

/// Run `scan` (which smuggles visitor failures out as
/// [`StorageError::ScanAborted`] after stashing the real [`SqlError`]) and
/// settle the result: the stashed error wins, genuine storage errors pass
/// through.
fn settle_scan(res: Result<(), StorageError>, stash: Option<SqlError>) -> SqlResult<()> {
    match (res, stash) {
        (_, Some(e)) => Err(e),
        (Err(e), None) => Err(e.into()),
        (Ok(()), None) => Ok(()),
    }
}

impl RowSource for Table {
    fn schema(&self) -> &Schema {
        Table::schema(self)
    }

    /// One partition: every row goes to the first visitor.
    fn for_each(
        &self,
        visitors: &mut [&mut (dyn FnMut(Row) -> SqlResult<()> + Send)],
    ) -> SqlResult<()> {
        let Some(visit) = visitors.first_mut() else {
            return Ok(());
        };
        let mut stash: Option<SqlError> = None;
        // lint: allow(epoch-discipline) — scan latches each page internally and the visitor receives owned row copies; no RID or page memory outlives the latch
        let res = self.scan(|_, row| match visit(row) {
            Ok(()) => Ok(()),
            Err(e) => {
                stash = Some(e);
                Err(StorageError::ScanAborted)
            }
        });
        settle_scan(res, stash)
    }
}

/// Result of a SELECT: labeled columns and materialized rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Render as an aligned text table (for examples and reports).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(std::string::String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(std::string::ToString::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Execute a SELECT against `source` with `params` bound: the
/// one-partition case of [`execute_select_parallel`].
pub fn execute_select(
    source: &dyn RowSource,
    stmt: &SelectStmt,
    params: &Params,
) -> SqlResult<QueryResult> {
    execute_select_parallel(source, stmt, params, 1)
}

/// Execute a SELECT against `source` with up to `threads` scan partitions:
/// one streaming fold per partition, each into its own state, merged in
/// partition order.
///
/// Partitions are contiguous ranges in scan order, so plain rows come out
/// in serial order and groups in serial first-seen order; results are
/// identical to the one-partition run except that floating-point SUM/AVG
/// may differ in the last bits (addition is reassociated across
/// partitions).
pub fn execute_select_parallel(
    source: &dyn RowSource,
    stmt: &SelectStmt,
    params: &Params,
    threads: usize,
) -> SqlResult<QueryResult> {
    let fold = SelectFold::plan(source.schema(), stmt, params)?;
    let mut parts: Vec<Partition> = (0..threads.max(1)).map(|_| Partition::default()).collect();
    let span = wh_obs::trace_span!("sql.exec.scan_fold");
    let timer = wh_obs::Timer::start();
    let fold_ref = &fold;
    let mut folds: Vec<_> = parts
        .iter_mut()
        .map(|part| move |row: Row| fold_ref.fold(part, row))
        .collect();
    let mut visitors: Vec<&mut (dyn FnMut(Row) -> SqlResult<()> + Send)> =
        folds.iter_mut().map(|f| f as _).collect();
    source.for_each(&mut visitors)?;
    wh_obs::histogram!("sql.exec.scan_fold_ns").record(timer.elapsed_ns());
    drop(span);
    fold.finish(parts)
}

pub(crate) fn is_aggregate_query(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || stmt.items.iter().any(|it| it.expr.contains_aggregate())
}

/// The shared tail of SELECT execution: ORDER BY on precomputed keys, then
/// LIMIT. `order_keys` is flat, `stmt.order_by.len()` values per output
/// row in row order, so sorting compares contiguous keys rather than
/// chasing one small allocation per row.
pub(crate) fn sort_and_limit(
    stmt: &SelectStmt,
    columns: Vec<String>,
    mut out_rows: Vec<Row>,
    order_keys: Vec<Value>,
) -> QueryResult {
    let limit = stmt
        .limit
        .map_or(out_rows.len(), |l| out_rows.len().min(l as usize));
    let width = stmt.order_by.len();
    if width > 0 {
        let key = |i: usize| &order_keys[i * width..(i + 1) * width];
        // Ties break on row position, so the order is total and equals a
        // stable sort of the rows.
        let cmp = |a: &usize, b: &usize| {
            for (k, (x, y)) in stmt.order_by.iter().zip(key(*a).iter().zip(key(*b))) {
                let ord = x.grouping_cmp(y);
                let ord = if k.asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(b)
        };
        let mut order: Vec<usize> = (0..out_rows.len()).collect();
        if limit < order.len() {
            // Top-k: partition the first `limit` rows out, sort only those.
            order.select_nth_unstable_by(limit, cmp);
            order.truncate(limit);
        }
        order.sort_unstable_by(cmp);
        let mut slots: Vec<Option<Row>> = out_rows.into_iter().map(Some).collect();
        out_rows = order.into_iter().filter_map(|i| slots[i].take()).collect();
    }
    out_rows.truncate(limit);
    QueryResult {
        columns,
        rows: out_rows,
    }
}

/// A SELECT planned for streaming execution: WHERE, projection and
/// aggregation run per row inside the scan visitor, so a plain query holds
/// only its output rows and an aggregate query only one accumulator per
/// aggregate call site per group.
struct SelectFold<'a> {
    schema: &'a Schema,
    stmt: &'a SelectStmt,
    ctx: EvalContext<'a>,
    /// Aggregate call sites; `None` for a plain (non-aggregate) query.
    specs: Option<Vec<AggSpec>>,
}

/// One scan partition's fold state.
#[derive(Default)]
struct Partition {
    /// Rows handed to the fold, before WHERE.
    scanned: u64,
    /// Rows that passed WHERE.
    kept: u64,
    /// Plain queries: projected rows and their ORDER BY keys (flat, one
    /// key width per row), scan order.
    rows: Vec<Row>,
    order_keys: Vec<Value>,
    /// Aggregate queries: groups in first-seen order.
    groups: Vec<GroupAcc>,
    lookup: HashMap<IndexKey, usize>,
}

/// Partial aggregation state for one group.
struct GroupAcc {
    key: Vec<Value>,
    /// First row of the group, in scan order: the row bare (grouped) column
    /// references evaluate against. `None` only for the empty global group.
    rep: Option<Row>,
    accs: Vec<AggAcc>,
}

impl GroupAcc {
    fn new(key: Vec<Value>, specs: &[AggSpec]) -> GroupAcc {
        GroupAcc {
            key,
            rep: None,
            accs: specs.iter().map(|(f, _)| AggAcc::new(*f)).collect(),
        }
    }
}

impl<'a> SelectFold<'a> {
    fn plan(schema: &'a Schema, stmt: &'a SelectStmt, params: &'a Params) -> SqlResult<Self> {
        if stmt
            .where_clause
            .as_ref()
            .is_some_and(Expr::contains_aggregate)
        {
            return Err(SqlError::MisplacedAggregate);
        }
        let specs = if is_aggregate_query(stmt) {
            validate_grouping(schema, stmt)?;
            Some(aggregate_specs(stmt))
        } else {
            None
        };
        Ok(SelectFold {
            schema,
            stmt,
            ctx: EvalContext::new(schema, params),
            specs,
        })
    }

    /// Fold one scanned row into `part`.
    fn fold(&self, part: &mut Partition, row: Row) -> SqlResult<()> {
        let (stmt, ctx) = (self.stmt, &self.ctx);
        part.scanned += 1;
        if let Some(pred) = &stmt.where_clause {
            if !ctx.eval_predicate(pred, &row)? {
                return Ok(());
            }
        }
        part.kept += 1;
        let Some(specs) = &self.specs else {
            for k in &stmt.order_by {
                part.order_keys.push(ctx.eval(&k.expr, &row)?);
            }
            part.rows.push(if stmt.items.is_empty() {
                row
            } else {
                stmt.items
                    .iter()
                    .map(|it| ctx.eval(&it.expr, &row))
                    .collect::<SqlResult<_>>()?
            });
            return Ok(());
        };
        let i = if stmt.group_by.is_empty() {
            // No GROUP BY: the whole input folds straight into one group,
            // with no key to evaluate or hash.
            if part.groups.is_empty() {
                part.groups.push(GroupAcc::new(Vec::new(), specs));
            }
            0
        } else {
            let key = IndexKey(
                stmt.group_by
                    .iter()
                    .map(|e| ctx.eval(e, &row))
                    .collect::<SqlResult<_>>()?,
            );
            match part.lookup.get(&key) {
                Some(&i) => i,
                None => {
                    let i = part.groups.len();
                    part.groups.push(GroupAcc::new(key.0.clone(), specs));
                    part.lookup.insert(key, i);
                    i
                }
            }
        };
        let group = &mut part.groups[i];
        for (acc, (func, arg)) in group.accs.iter_mut().zip(specs) {
            let input = match arg {
                Some(e) => Some(ctx.eval(e, &row)?),
                None => None,
            };
            acc.fold(*func, input)?;
        }
        if group.rep.is_none() {
            group.rep = Some(row);
        }
        Ok(())
    }

    /// Merge the partitions in order, then project, sort and limit.
    fn finish(&self, parts: Vec<Partition>) -> SqlResult<QueryResult> {
        let _span = wh_obs::trace_span!("sql.exec.finish");
        let timer = wh_obs::Timer::start();
        let stmt = self.stmt;
        let (scanned, kept) = parts
            .iter()
            .fold((0, 0), |(s, k), p| (s + p.scanned, k + p.kept));
        wh_obs::counter!("sql.exec.scan.rows_in").add(scanned);
        wh_obs::counter!("sql.exec.filter.rows_out").add(kept);
        let result = match &self.specs {
            None => {
                let columns = if stmt.items.is_empty() {
                    self.schema
                        .columns()
                        .iter()
                        .map(|c| c.name.clone())
                        .collect()
                } else {
                    stmt.items.iter().map(SelectItem::label).collect()
                };
                let mut rows = Vec::new();
                let mut order_keys = Vec::new();
                for part in parts {
                    rows.extend(part.rows);
                    order_keys.extend(part.order_keys);
                }
                sort_and_limit(stmt, columns, rows, order_keys)
            }
            Some(specs) => {
                let mut parts = parts.into_iter();
                let first = parts.next().unwrap_or_default();
                let (mut groups, mut lookup) = (first.groups, first.lookup);
                for part in parts {
                    for group in part.groups {
                        let found = if stmt.group_by.is_empty() {
                            (!groups.is_empty()).then_some(0)
                        } else {
                            lookup.get(&IndexKey(group.key.clone())).copied()
                        };
                        match found {
                            Some(i) => {
                                let into = &mut groups[i];
                                for (slot, ((func, _), acc)) in
                                    into.accs.iter_mut().zip(specs.iter().zip(group.accs))
                                {
                                    slot.merge(*func, acc)?;
                                }
                            }
                            None => {
                                lookup.insert(IndexKey(group.key.clone()), groups.len());
                                groups.push(group);
                            }
                        }
                    }
                }
                // A query with no GROUP BY aggregates the whole input as
                // one group, even when the input is empty.
                if groups.is_empty() && stmt.group_by.is_empty() {
                    groups.push(GroupAcc::new(Vec::new(), specs));
                }
                let finished = groups.into_iter().map(|g| {
                    let values = g
                        .accs
                        .into_iter()
                        .zip(specs)
                        .map(|(acc, (f, _))| acc.finish(*f))
                        .collect::<SqlResult<Vec<_>>>()?;
                    Ok((g.rep, values))
                });
                project_groups(&self.ctx, stmt, specs, finished)?
            }
        };
        wh_obs::counter!("sql.exec.rows_out").add(result.rows.len() as u64);
        wh_obs::histogram!("sql.exec.finish_ns").record(timer.elapsed_ns());
        Ok(result)
    }
}

/// One aggregate call site: function and argument expression.
pub(crate) type AggSpec = (AggFunc, Option<Expr>);

/// Collect the distinct aggregate call sites of `expr` into `out`.
pub(crate) fn collect_aggregates(expr: &Expr, out: &mut Vec<AggSpec>) {
    match expr {
        Expr::Aggregate { func, arg } => {
            let spec = (*func, arg.as_deref().cloned());
            if !out.contains(&spec) {
                out.push(spec);
            }
        }
        Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_aggregates(e, out),
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                collect_aggregates(c, out);
                collect_aggregates(v, out);
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, out);
            }
        }
    }
}

/// A mergeable partial state for one aggregate call site over one group.
#[derive(Debug, Clone)]
pub(crate) enum AggAcc {
    /// COUNT: rows (or non-null argument evaluations) seen.
    Count(i64),
    /// SUM / MIN / MAX: the running value, `None` until a non-null input.
    Value(Option<Value>),
    /// AVG: running sum and non-null count.
    Avg { acc: Option<Value>, n: i64 },
}

impl AggAcc {
    pub(crate) fn new(func: AggFunc) -> AggAcc {
        match func {
            AggFunc::Count => AggAcc::Count(0),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => AggAcc::Value(None),
            AggFunc::Avg => AggAcc::Avg { acc: None, n: 0 },
        }
    }

    /// Fold one input value (`None` = COUNT(*), which counts every row).
    pub(crate) fn fold(&mut self, func: AggFunc, value: Option<Value>) -> SqlResult<()> {
        match self {
            AggAcc::Count(n) => {
                if value.as_ref().is_none_or(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            AggAcc::Value(slot) => {
                let v = value.ok_or(SqlError::MisplacedAggregate)?;
                if v.is_null() {
                    return Ok(());
                }
                *slot = Some(match slot.take() {
                    None => v,
                    Some(prev) => combine(func, prev, v)?,
                });
            }
            AggAcc::Avg { acc, n } => {
                let v = value.ok_or(SqlError::MisplacedAggregate)?;
                if v.is_null() {
                    return Ok(());
                }
                *n += 1;
                *acc = Some(match acc.take() {
                    None => v,
                    Some(prev) => prev.add(&v)?,
                });
            }
        }
        Ok(())
    }

    /// Merge another partial state for the same call site into this one.
    fn merge(&mut self, func: AggFunc, other: AggAcc) -> SqlResult<()> {
        match (self, other) {
            (AggAcc::Count(a), AggAcc::Count(b)) => *a += b,
            (AggAcc::Value(a), AggAcc::Value(b)) => {
                if let Some(v) = b {
                    *a = Some(match a.take() {
                        None => v,
                        Some(prev) => combine(func, prev, v)?,
                    });
                }
            }
            (AggAcc::Avg { acc, n }, AggAcc::Avg { acc: b_acc, n: b_n }) => {
                *n += b_n;
                if let Some(v) = b_acc {
                    *acc = Some(match acc.take() {
                        None => v,
                        Some(prev) => prev.add(&v)?,
                    });
                }
            }
            _ => {
                return Err(SqlError::Unsupported(
                    "mismatched accumulator shapes for one aggregate call site".into(),
                ))
            }
        }
        Ok(())
    }

    /// The final aggregate value (over empty input: COUNT → 0, everything
    /// else → NULL).
    pub(crate) fn finish(self, _func: AggFunc) -> SqlResult<Value> {
        match self {
            AggAcc::Count(n) => Ok(Value::Int(n)),
            AggAcc::Value(v) => Ok(v.unwrap_or(Value::Null)),
            AggAcc::Avg { acc: None, .. } => Ok(Value::Null),
            AggAcc::Avg {
                acc: Some(total),
                n,
            } => {
                let t = total
                    .as_f64()
                    .ok_or(SqlError::Type(wh_types::TypeError::Mismatch {
                        op: "AVG",
                        left: "non-numeric".into(),
                        right: "numeric".into(),
                    }))?;
                Ok(Value::Float(t / n as f64))
            }
        }
    }
}

/// SUM/MIN/MAX two-value combiner.
fn combine(func: AggFunc, prev: Value, next: Value) -> SqlResult<Value> {
    match func {
        AggFunc::Sum => Ok(prev.add(&next)?),
        AggFunc::Min | AggFunc::Max => {
            let keep_next = match next.sql_cmp(&prev)? {
                Some(ord) => {
                    (func == AggFunc::Min && ord == std::cmp::Ordering::Less)
                        || (func == AggFunc::Max && ord == std::cmp::Ordering::Greater)
                }
                None => false,
            };
            Ok(if keep_next { next } else { prev })
        }
        _ => Err(SqlError::Unsupported(
            "combine only serves SUM/MIN/MAX".into(),
        )),
    }
}

/// Evaluate an expression over a finished group: aggregate call sites take
/// their merged value, everything else evaluates against the group's
/// representative row (NULL for the empty global group).
pub(crate) fn eval_computed(
    ctx: &EvalContext<'_>,
    expr: &Expr,
    rep: Option<&Row>,
    specs: &[AggSpec],
    values: &[Value],
) -> SqlResult<Value> {
    match expr {
        Expr::Aggregate { func, arg } => {
            let i = specs
                .iter()
                .position(|(f, a)| f == func && a.as_ref() == arg.as_deref())
                .ok_or(SqlError::MisplacedAggregate)?;
            Ok(values[i].clone())
        }
        Expr::Binary { op, left, right } => {
            let l = eval_computed(ctx, left, rep, specs, values)?;
            let r = eval_computed(ctx, right, rep, specs, values)?;
            let rebuilt = Expr::binary(*op, Expr::Literal(l), Expr::Literal(r));
            ctx.eval(&rebuilt, &[])
        }
        Expr::Not(e) => {
            let v = eval_computed(ctx, e, rep, specs, values)?;
            ctx.eval(&Expr::Not(Box::new(Expr::Literal(v))), &[])
        }
        Expr::Neg(e) => {
            let v = eval_computed(ctx, e, rep, specs, values)?;
            ctx.eval(&Expr::Neg(Box::new(Expr::Literal(v))), &[])
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_computed(ctx, expr, rep, specs, values)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_computed(ctx, expr, rep, specs, values)?;
            let lo = eval_computed(ctx, low, rep, specs, values)?;
            let hi = eval_computed(ctx, high, rep, specs, values)?;
            let rebuilt = Expr::Between {
                expr: Box::new(Expr::Literal(v)),
                low: Box::new(Expr::Literal(lo)),
                high: Box::new(Expr::Literal(hi)),
                negated: *negated,
            };
            ctx.eval(&rebuilt, &[])
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_computed(ctx, expr, rep, specs, values)?;
            let lits = list
                .iter()
                .map(|e| eval_computed(ctx, e, rep, specs, values).map(Expr::Literal))
                .collect::<SqlResult<Vec<_>>>()?;
            let rebuilt = Expr::InList {
                expr: Box::new(Expr::Literal(v)),
                list: lits,
                negated: *negated,
            };
            ctx.eval(&rebuilt, &[])
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, val) in branches {
                if eval_computed(ctx, cond, rep, specs, values)? == Value::Bool(true) {
                    return eval_computed(ctx, val, rep, specs, values);
                }
            }
            match else_expr {
                Some(e) => eval_computed(ctx, e, rep, specs, values),
                None => Ok(Value::Null),
            }
        }
        scalar => match rep {
            Some(row) => ctx.eval(scalar, row),
            None => Ok(Value::Null),
        },
    }
}

/// Every aggregate call site of `stmt` — projection, HAVING and ORDER BY
/// — each of which gets one accumulator slot per group.
pub(crate) fn aggregate_specs(stmt: &SelectStmt) -> Vec<AggSpec> {
    let mut specs = Vec::new();
    for it in &stmt.items {
        collect_aggregates(&it.expr, &mut specs);
    }
    if let Some(h) = &stmt.having {
        collect_aggregates(h, &mut specs);
    }
    for k in &stmt.order_by {
        collect_aggregates(&k.expr, &mut specs);
    }
    specs
}

/// The shared tail of aggregate execution: given each finished group's
/// representative row and aggregate values (in first-seen order), apply
/// HAVING, project, then ORDER BY and LIMIT.
pub(crate) fn project_groups(
    ctx: &EvalContext<'_>,
    stmt: &SelectStmt,
    specs: &[AggSpec],
    groups: impl IntoIterator<Item = SqlResult<(Option<Row>, Vec<Value>)>>,
) -> SqlResult<QueryResult> {
    let columns: Vec<String> = stmt.items.iter().map(SelectItem::label).collect();
    let mut out_rows = Vec::new();
    let mut order_keys = Vec::new();
    for group in groups {
        let (rep, values) = group?;
        let rep = rep.as_ref();
        if let Some(h) = &stmt.having {
            if eval_computed(ctx, h, rep, specs, &values)? != Value::Bool(true) {
                continue;
            }
        }
        let projected = stmt
            .items
            .iter()
            .map(|it| eval_computed(ctx, &it.expr, rep, specs, &values))
            .collect::<SqlResult<Vec<_>>>()?;
        for k in &stmt.order_by {
            order_keys.push(eval_computed(ctx, &k.expr, rep, specs, &values)?);
        }
        out_rows.push(projected);
    }
    Ok(sort_and_limit(stmt, columns, out_rows, order_keys))
}

/// Reject non-grouped bare column references in projections of aggregate
/// queries (only plain-column GROUP BY expressions are recognized as
/// grouping columns, which covers the paper's queries).
pub(crate) fn validate_grouping(schema: &Schema, stmt: &SelectStmt) -> SqlResult<()> {
    let grouped: Vec<&str> = stmt
        .group_by
        .iter()
        .filter_map(|e| match e {
            Expr::Column(c) => Some(c.as_str()),
            _ => None,
        })
        .collect();
    // Only enforceable when every GROUP BY expr is a plain column.
    if grouped.len() != stmt.group_by.len() {
        return Ok(());
    }
    let mut checked: Vec<&Expr> = stmt.items.iter().map(|it| &it.expr).collect();
    if let Some(h) = &stmt.having {
        checked.push(h);
    }
    for expr in checked {
        let mut cols = Vec::new();
        collect_columns_outside_aggregates(expr, &mut cols);
        for c in cols {
            if !grouped.contains(&c.as_str()) {
                // Unknown columns surface as NoSuchColumn during eval;
                // only flag real, ungrouped columns here.
                if schema.column_index(&c).is_ok() {
                    return Err(SqlError::NotGrouped(c));
                }
            }
        }
    }
    Ok(())
}

fn collect_columns_outside_aggregates(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Column(c) => {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
        Expr::Aggregate { .. } => {} // inside an aggregate is fine
        Expr::Literal(_) | Expr::Param(_) => {}
        Expr::Binary { left, right, .. } => {
            collect_columns_outside_aggregates(left, out);
            collect_columns_outside_aggregates(right, out);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_columns_outside_aggregates(e, out),
        Expr::IsNull { expr, .. } => collect_columns_outside_aggregates(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_columns_outside_aggregates(expr, out);
            collect_columns_outside_aggregates(low, out);
            collect_columns_outside_aggregates(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_columns_outside_aggregates(expr, out);
            for e in list {
                collect_columns_outside_aggregates(e, out);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                collect_columns_outside_aggregates(c, out);
                collect_columns_outside_aggregates(v, out);
            }
            if let Some(e) = else_expr {
                collect_columns_outside_aggregates(e, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Statement;
    use std::sync::Arc;
    use wh_storage::IoStats;
    use wh_types::schema::daily_sales_schema;
    use wh_types::Date;

    fn sales_table() -> Table {
        let t =
            Table::create("DailySales", daily_sales_schema(), Arc::new(IoStats::new())).unwrap();
        type SaleSpec = (&'static str, &'static str, &'static str, (u16, u8, u8), i64);
        let rows: Vec<SaleSpec> = vec![
            ("San Jose", "CA", "golf equip", (1996, 10, 14), 10_000),
            ("San Jose", "CA", "golf equip", (1996, 10, 15), 1_500),
            ("San Jose", "CA", "racquetball", (1996, 10, 14), 2_000),
            ("Berkeley", "CA", "racquetball", (1996, 10, 14), 12_000),
            ("Novato", "CA", "rollerblades", (1996, 10, 13), 8_000),
        ];
        for (city, state, pl, (y, m, d), sales) in rows {
            t.insert(&[
                Value::from(city),
                Value::from(state),
                Value::from(pl),
                Value::from(Date::ymd(y, m, d)),
                Value::from(sales),
            ])
            .unwrap();
        }
        t
    }

    fn select(table: &Table, sql: &str) -> QueryResult {
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        execute_select(table, &s, &Params::new()).unwrap()
    }

    #[test]
    fn select_star() {
        let t = sales_table();
        let r = select(&t, "SELECT * FROM DailySales");
        assert_eq!(r.rows.len(), 5);
        // `*` labels every column with its schema name, in schema order.
        assert_eq!(
            r.columns,
            ["city", "state", "product_line", "date", "total_sales"]
        );
    }

    #[test]
    fn date_predicates() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT city FROM DailySales WHERE date = DATE '1996-10-13'",
        );
        assert_eq!(r.rows, vec![vec![Value::from("Novato")]]);
        let r = select(
            &t,
            "SELECT COUNT(*) FROM DailySales WHERE date > DATE '1996-10-13'",
        );
        assert_eq!(r.rows[0][0], Value::Int(4));
    }

    #[test]
    fn filter_and_project() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT product_line, total_sales FROM DailySales WHERE city = 'San Jose' ORDER BY total_sales DESC",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::from("golf equip"), Value::from(10_000)],
                vec![Value::from("racquetball"), Value::from(2_000)],
                vec![Value::from("golf equip"), Value::from(1_500)],
            ]
        );
    }

    #[test]
    fn paper_rollup_query() {
        // Example 2.1: total sales by city.
        let t = sales_table();
        let r = select(
            &t,
            "SELECT city, state, SUM(total_sales) FROM DailySales GROUP BY city, state ORDER BY city",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![
                    Value::from("Berkeley"),
                    Value::from("CA"),
                    Value::from(12_000)
                ],
                vec![Value::from("Novato"), Value::from("CA"), Value::from(8_000)],
                vec![
                    Value::from("San Jose"),
                    Value::from("CA"),
                    Value::from(13_500)
                ],
            ]
        );
    }

    #[test]
    fn paper_drilldown_query() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT product_line, SUM(total_sales) FROM DailySales \
             WHERE city = 'San Jose' AND state = 'CA' GROUP BY product_line ORDER BY product_line",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::from("golf equip"), Value::from(11_500)],
                vec![Value::from("racquetball"), Value::from(2_000)],
            ]
        );
    }

    #[test]
    fn aggregates_without_group_by() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT COUNT(*), SUM(total_sales), MIN(total_sales), MAX(total_sales), AVG(total_sales) FROM DailySales",
        );
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(5));
        assert_eq!(r.rows[0][1], Value::Int(33_500));
        assert_eq!(r.rows[0][2], Value::Int(1_500));
        assert_eq!(r.rows[0][3], Value::Int(12_000));
        assert_eq!(r.rows[0][4], Value::Float(6_700.0));
    }

    #[test]
    fn sum_skips_nulls_and_empty_is_null() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT SUM(total_sales) FROM DailySales WHERE city = 'Nowhere'",
        );
        assert_eq!(r.rows[0][0], Value::Null);
        let r = select(&t, "SELECT COUNT(*) FROM DailySales WHERE city = 'Nowhere'");
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn ungrouped_column_rejected() {
        let t = sales_table();
        let Statement::Select(s) =
            parse_statement("SELECT city, SUM(total_sales) FROM DailySales GROUP BY state")
                .unwrap()
        else {
            panic!()
        };
        assert_eq!(
            execute_select(&t, &s, &Params::new()),
            Err(SqlError::NotGrouped("city".into()))
        );
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let t = sales_table();
        let Statement::Select(s) =
            parse_statement("SELECT city FROM DailySales WHERE SUM(total_sales) > 1").unwrap()
        else {
            panic!()
        };
        assert_eq!(
            execute_select(&t, &s, &Params::new()),
            Err(SqlError::MisplacedAggregate)
        );
    }

    #[test]
    fn arithmetic_over_aggregates() {
        let t = sales_table();
        let r = select(&t, "SELECT SUM(total_sales) / COUNT(*) FROM DailySales");
        assert_eq!(r.rows[0][0], Value::Int(6_700));
    }

    #[test]
    fn case_inside_aggregate() {
        // The exact shape the 2VNL rewrite produces (Example 4.1).
        let t = sales_table();
        let Statement::Select(s) = parse_statement(
            "SELECT city, SUM(CASE WHEN :flag >= 1 THEN total_sales ELSE 0 END) \
             FROM DailySales GROUP BY city ORDER BY city",
        )
        .unwrap() else {
            panic!()
        };
        let mut params = Params::new();
        params.insert("flag".into(), Value::Int(1));
        let r = execute_select(&t, &s, &params).unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::from("Berkeley"), Value::from(12_000)]
        );
    }

    #[test]
    fn order_by_date_ascending() {
        let t = sales_table();
        let r = select(&t, "SELECT date FROM DailySales ORDER BY date");
        let dates: Vec<&Value> = r.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(*dates[0], Value::from(Date::ymd(1996, 10, 13)));
        assert_eq!(*dates[4], Value::from(Date::ymd(1996, 10, 15)));
    }

    #[test]
    fn having_filters_groups() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city \
             HAVING SUM(total_sales) > 10000 ORDER BY city",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::from("Berkeley"), Value::from(12_000)],
                vec![Value::from("San Jose"), Value::from(13_500)],
            ]
        );
    }

    #[test]
    fn having_may_reference_group_columns() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT city, COUNT(*) FROM DailySales GROUP BY city \
             HAVING city <> 'Novato' AND COUNT(*) >= 1 ORDER BY city",
        );
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn having_without_group_by_is_whole_table_filter() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT SUM(total_sales) FROM DailySales HAVING COUNT(*) > 100",
        );
        assert!(r.rows.is_empty());
        let r = select(
            &t,
            "SELECT SUM(total_sales) FROM DailySales HAVING COUNT(*) = 5",
        );
        assert_eq!(r.rows, vec![vec![Value::from(33_500)]]);
    }

    #[test]
    fn having_with_ungrouped_column_rejected() {
        let t = sales_table();
        let Statement::Select(s) = parse_statement(
            "SELECT state, SUM(total_sales) FROM DailySales GROUP BY state HAVING city = 'x'",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(
            execute_select(&t, &s, &Params::new()),
            Err(SqlError::NotGrouped("city".into()))
        );
    }

    #[test]
    fn limit_truncates_after_sort() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT total_sales FROM DailySales ORDER BY total_sales DESC LIMIT 2",
        );
        assert_eq!(
            r.rows,
            vec![vec![Value::from(12_000)], vec![Value::from(10_000)]]
        );
        let r = select(&t, "SELECT city FROM DailySales LIMIT 0");
        assert!(r.rows.is_empty());
        // LIMIT larger than the result is harmless.
        let r = select(&t, "SELECT city FROM DailySales LIMIT 99");
        assert_eq!(r.rows.len(), 5);
    }

    #[test]
    fn limit_applies_to_grouped_queries() {
        let t = sales_table();
        let r = select(
            &t,
            "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city ORDER BY SUM(total_sales) DESC LIMIT 1",
        );
        assert_eq!(
            r.rows,
            vec![vec![Value::from("San Jose"), Value::from(13_500)]]
        );
    }

    #[test]
    fn to_table_string_renders() {
        let t = sales_table();
        let r = select(&t, "SELECT city FROM DailySales WHERE city = 'Novato'");
        let s = r.to_table_string();
        assert!(s.contains("city"));
        assert!(s.contains("Novato"));
    }

    /// A table big enough that a parallel scan actually spans pages.
    fn big_table(rows: i64) -> Table {
        let t =
            Table::create("DailySales", daily_sales_schema(), Arc::new(IoStats::new())).unwrap();
        let cities = ["San Jose", "Berkeley", "Novato", "Palo Alto"];
        let lines = ["golf equip", "racquetball", "rollerblades"];
        for i in 0..rows {
            t.insert(&[
                Value::from(cities[(i % 4) as usize]),
                Value::from("CA"),
                Value::from(lines[(i % 3) as usize]),
                Value::from(Date::ymd(1996, 10, (1 + i % 28) as u8)),
                Value::from(i),
            ])
            .unwrap();
        }
        t
    }

    /// A table's rows split into contiguous partitions, one scoped thread
    /// each — the shape of a heap scanned as page ranges.
    struct Partitioned {
        schema: Schema,
        rows: Vec<Row>,
    }

    impl Partitioned {
        fn of(table: &Table) -> Partitioned {
            Partitioned {
                schema: table.schema().clone(),
                rows: table
                    .scan_all()
                    .unwrap()
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect(),
            }
        }
    }

    impl RowSource for Partitioned {
        fn schema(&self) -> &Schema {
            &self.schema
        }

        fn for_each(
            &self,
            visitors: &mut [&mut (dyn FnMut(Row) -> SqlResult<()> + Send)],
        ) -> SqlResult<()> {
            let chunk = self.rows.len().div_ceil(visitors.len()).max(1);
            std::thread::scope(|s| {
                let workers: Vec<_> = self
                    .rows
                    .chunks(chunk)
                    .zip(visitors.iter_mut())
                    .map(|(part, visit)| {
                        s.spawn(move || part.iter().try_for_each(|r| visit(r.clone())))
                    })
                    .collect();
                workers.into_iter().try_for_each(|h| h.join().unwrap())
            })
        }
    }

    fn select_both_ways(table: &Table, sql: &str, threads: usize) -> (QueryResult, QueryResult) {
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        let serial = execute_select(table, &s, &Params::new()).unwrap();
        let parallel =
            execute_select_parallel(&Partitioned::of(table), &s, &Params::new(), threads).unwrap();
        (serial, parallel)
    }

    #[test]
    fn parallel_plain_select_matches_serial() {
        let t = big_table(500);
        for threads in [1, 2, 4, 7] {
            for sql in [
                "SELECT * FROM DailySales",
                "SELECT city, total_sales FROM DailySales WHERE total_sales >= 250",
                "SELECT city FROM DailySales WHERE city = 'Novato' ORDER BY total_sales DESC LIMIT 10",
            ] {
                let (serial, parallel) = select_both_ways(&t, sql, threads);
                assert_eq!(serial, parallel, "{sql} with {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_grouped_select_matches_serial() {
        let t = big_table(500);
        for threads in [2, 4, 7] {
            for sql in [
                "SELECT COUNT(*), SUM(total_sales), MIN(total_sales), MAX(total_sales) FROM DailySales",
                "SELECT product_line, SUM(total_sales) FROM DailySales GROUP BY product_line",
                "SELECT city, COUNT(*), SUM(total_sales) FROM DailySales \
                 WHERE total_sales >= 100 GROUP BY city \
                 HAVING SUM(total_sales) > 1000 ORDER BY SUM(total_sales) DESC",
                "SELECT city, SUM(total_sales) * 2 + COUNT(*) FROM DailySales GROUP BY city LIMIT 2",
            ] {
                let (serial, parallel) = select_both_ways(&t, sql, threads);
                assert_eq!(serial, parallel, "{sql} with {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_avg_matches_serial_on_ints() {
        let t = big_table(300);
        let (serial, parallel) = select_both_ways(
            &t,
            "SELECT city, AVG(total_sales) FROM DailySales GROUP BY city",
            4,
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_aggregate_over_empty_input_matches_serial() {
        let t =
            Table::create("DailySales", daily_sales_schema(), Arc::new(IoStats::new())).unwrap();
        let (serial, parallel) = select_both_ways(
            &t,
            "SELECT COUNT(*), SUM(total_sales), MIN(city) FROM DailySales",
            4,
        );
        assert_eq!(serial, parallel);
        assert_eq!(
            parallel.rows,
            vec![vec![Value::from(0), Value::Null, Value::Null]]
        );
        // Empty input with GROUP BY yields no groups at all.
        let (serial, parallel) =
            select_both_ways(&t, "SELECT city, COUNT(*) FROM DailySales GROUP BY city", 4);
        assert_eq!(serial, parallel);
        assert!(parallel.rows.is_empty());
    }

    #[test]
    fn parallel_visitor_error_propagates() {
        let t = big_table(100);
        let Statement::Select(s) = parse_statement("SELECT city + 1 FROM DailySales").unwrap()
        else {
            panic!("not a select")
        };
        let serial = execute_select(&t, &s, &Params::new());
        let parallel = execute_select_parallel(&Partitioned::of(&t), &s, &Params::new(), 4);
        assert!(serial.is_err());
        assert!(parallel.is_err());
    }
}
