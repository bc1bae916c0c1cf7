//! Differential query oracle: every SELECT path of a reader session must
//! agree with a deliberately naive reference evaluator.
//!
//! The reference takes the raw extended heap ([`VnlTable::scan_raw`]),
//! applies the Table 1 / §5 spec ([`wh_vnl::visibility::extract`]) at the
//! session's VN, and then evaluates WHERE, GROUP BY (a `BTreeMap` of
//! buffered rows per group), HAVING, ORDER BY and LIMIT the slow, obvious
//! way. Queries come from a seeded [`SplitMix64`] generator over COUNT /
//! SUM / MIN / MAX / AVG, CASE, and predicates that both can and cannot be
//! pushed into the scan kernel. Each query is compared against
//! `query_stmt`, `query_stmt_parallel` at 2, 4 and 8 threads, and the §4
//! CASE rewrite (`query_via_rewrite`), on sessions pinned at older VNs
//! while an uncommitted maintenance transaction holds double-slotted
//! tuples. Once that transaction commits, every expired session is
//! repaired forward with [`RepairEngine::query_at_current`], and each
//! repaired answer must equal a fresh session's `query_stmt` (the restart
//! path) and the reference at the repaired VN.
//!
//! Float columns only ever hold multiples of 0.25 with small magnitude, so
//! their sums are exact whatever the association; floats are still
//! compared with the relative tolerance documented for reassociated
//! parallel SUM/AVG.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use wh_sql::{
    parse_statement, AggFunc, BinOp, EvalContext, Expr, OrderKey, Params, QueryResult, SelectItem,
    SelectStmt, Statement,
};
use wh_types::rng::SplitMix64;
use wh_types::{Column, DataType, Date, Row, Schema, Value};
use wh_vnl::visibility::{extract, Visible};
use wh_vnl::{ReadOutcome, ReaderSession, RepairEngine, VersionNo, VnlError, VnlTable};

/// Relative tolerance for floating-point SUM/AVG (addition reassociates
/// across parallel partitions).
const FLOAT_TOLERANCE: f64 = 1e-9;

const KEYS: i64 = 300;
const GROUPS: &[&str] = &["amber", "birch", "cedar", "dune", "elm"];

/// `k` key (Int32, pushable); `g` and `d` non-updatable (Char: not
/// pushable, Date: pushable); `v` (Int32, pushable), `w` (Int64, never
/// pushed) and `f` (Float64) updatable, so Pre(j) rows read pre-images.
fn schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int32),
            Column::new("g", DataType::Char(8)),
            Column::new("d", DataType::Date),
            Column::updatable("v", DataType::Int32),
            Column::updatable("w", DataType::Int64),
            Column::updatable("f", DataType::Float64),
        ],
        &["k"],
    )
    .unwrap()
}

fn day(n: i64) -> Date {
    Date::ymd(1996, 10, (1 + n.rem_euclid(28)) as u8)
}

fn random_row(rng: &mut SplitMix64, k: i64) -> Row {
    vec![
        Value::from(k),
        Value::from(GROUPS[(k as usize) % GROUPS.len()]),
        Value::from(day(k)),
        Value::from(rng.range_i64(-20, 60)),
        if rng.chance(1, 10) {
            Value::Null
        } else {
            Value::from(rng.range_i64(-1_000, 1_000))
        },
        Value::from(rng.range_i64(-400, 400) as f64 * 0.25),
    ]
}

// ---------------------------------------------------------------------
// The reference evaluator
// ---------------------------------------------------------------------

/// Group key ordered by `Value::grouping_cmp`, lexicographically.
#[derive(Debug, Clone)]
struct GroupKey(Vec<Value>);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for GroupKey {}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            let ord = a.grouping_cmp(b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// The rows visible at `vn` per the Table 1 spec, in heap order, or `None`
/// when some tuple proves the session expired.
fn visible_rows(t: &VnlTable, vn: VersionNo) -> Option<Vec<Row>> {
    let mut out = Vec::new();
    for (_, ext) in t.scan_raw().unwrap() {
        match extract(t.layout(), &ext, vn) {
            Visible::Row(r) => out.push(r),
            Visible::Ignore => {}
            Visible::Expired => return None,
        }
    }
    Some(out)
}

/// One aggregate over a whole buffered group.
fn aggregate(ctx: &EvalContext<'_>, func: AggFunc, arg: Option<&Expr>, rows: &[Row]) -> Value {
    let Some(arg) = arg else {
        return Value::Int(rows.len() as i64);
    };
    let inputs: Vec<Value> = rows
        .iter()
        .map(|r| ctx.eval(arg, r).unwrap())
        .filter(|v| !v.is_null())
        .collect();
    match func {
        AggFunc::Count => Value::Int(inputs.len() as i64),
        AggFunc::Sum | AggFunc::Avg => {
            let Some(total) = inputs
                .iter()
                .skip(1)
                .fold(inputs.first().cloned(), |acc, v| {
                    acc.map(|a| a.add(v).unwrap())
                })
            else {
                return Value::Null;
            };
            if func == AggFunc::Sum {
                total
            } else {
                Value::Float(total.as_f64().unwrap() / inputs.len() as f64)
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in inputs {
                let better = match &best {
                    None => true,
                    Some(b) => {
                        let ord = v.sql_cmp(b).unwrap();
                        (func == AggFunc::Min && ord == Some(Ordering::Less))
                            || (func == AggFunc::Max && ord == Some(Ordering::Greater))
                    }
                };
                if better {
                    best = Some(v);
                }
            }
            best.unwrap_or(Value::Null)
        }
    }
}

/// Evaluate `expr` over a group: substitute every aggregate by its value
/// over the group's rows, then evaluate the remaining scalar expression
/// against the group's first row (an all-NULL row for an empty group).
fn eval_over_group(ctx: &EvalContext<'_>, expr: &Expr, rows: &[Row], arity: usize) -> Value {
    let scalar = expr.clone().transform(&mut |e| match e {
        Expr::Aggregate { func, arg } => Expr::Literal(aggregate(ctx, func, arg.as_deref(), rows)),
        other => other,
    });
    let nulls = vec![Value::Null; arity];
    ctx.eval(&scalar, rows.first().unwrap_or(&nulls)).unwrap()
}

fn is_aggregate(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || stmt.items.iter().any(|it| it.expr.contains_aggregate())
}

/// Evaluate `stmt` naively over `rows`.
fn reference(schema: &Schema, stmt: &SelectStmt, rows: Vec<Row>) -> QueryResult {
    let params = Params::new();
    let ctx = EvalContext::new(schema, &params);
    let arity = schema.arity();
    let filtered: Vec<Row> = rows
        .into_iter()
        .filter(|r| match &stmt.where_clause {
            Some(w) => ctx.eval(w, r).unwrap() == Value::Bool(true),
            None => true,
        })
        .collect();

    let columns: Vec<String> = if stmt.items.is_empty() {
        schema.columns().iter().map(|c| c.name.clone()).collect()
    } else {
        stmt.items.iter().map(SelectItem::label).collect()
    };
    // (order key, output row) in pre-sort order.
    let mut out: Vec<(Vec<Value>, Row)> = Vec::new();
    if is_aggregate(stmt) {
        // group key → (first-seen position, buffered rows).
        let mut groups: BTreeMap<GroupKey, (usize, Vec<Row>)> = BTreeMap::new();
        if stmt.group_by.is_empty() {
            groups.insert(GroupKey(Vec::new()), (0, filtered));
        } else {
            for (pos, row) in filtered.into_iter().enumerate() {
                let key = stmt
                    .group_by
                    .iter()
                    .map(|e| ctx.eval(e, &row).unwrap())
                    .collect();
                groups
                    .entry(GroupKey(key))
                    .or_insert_with(|| (pos, Vec::new()))
                    .1
                    .push(row);
            }
        }
        let mut ordered: Vec<(usize, Vec<Row>)> = groups.into_values().collect();
        ordered.sort_by_key(|(pos, _)| *pos);
        for (_, rows) in ordered {
            if let Some(h) = &stmt.having {
                if eval_over_group(&ctx, h, &rows, arity) != Value::Bool(true) {
                    continue;
                }
            }
            let keys = stmt
                .order_by
                .iter()
                .map(|k| eval_over_group(&ctx, &k.expr, &rows, arity))
                .collect();
            let row = stmt
                .items
                .iter()
                .map(|it| eval_over_group(&ctx, &it.expr, &rows, arity))
                .collect();
            out.push((keys, row));
        }
    } else {
        for row in filtered {
            let keys = stmt
                .order_by
                .iter()
                .map(|k| ctx.eval(&k.expr, &row).unwrap())
                .collect();
            let projected = if stmt.items.is_empty() {
                row
            } else {
                stmt.items
                    .iter()
                    .map(|it| ctx.eval(&it.expr, &row).unwrap())
                    .collect()
            };
            out.push((keys, projected));
        }
    }
    // Stable sort: ties keep scan / first-seen order.
    out.sort_by(|(a, _), (b, _)| {
        for (k, (x, y)) in stmt.order_by.iter().zip(a.iter().zip(b)) {
            let ord = x.grouping_cmp(y);
            let ord = if k.asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    let mut rows: Vec<Row> = out.into_iter().map(|(_, r)| r).collect();
    if let Some(n) = stmt.limit {
        rows.truncate(n as usize);
    }
    QueryResult { columns, rows }
}

fn values_agree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn assert_same(want: &QueryResult, got: &QueryResult, what: &str) {
    assert_eq!(want.columns, got.columns, "{what}: column labels");
    assert_same_rows(want, got, what);
}

fn assert_same_rows(want: &QueryResult, got: &QueryResult, what: &str) {
    assert_eq!(
        want.rows.len(),
        got.rows.len(),
        "{what}: row count\nwant {:?}\ngot  {:?}",
        want.rows,
        got.rows
    );
    for (i, (w, g)) in want.rows.iter().zip(&got.rows).enumerate() {
        assert!(
            w.len() == g.len() && w.iter().zip(g).all(|(x, y)| values_agree(x, y)),
            "{what}: row {i} differs\nwant {w:?}\ngot  {g:?}"
        );
    }
}

/// Rows in a canonical order, so results compare as multisets.
fn canonical(mut result: QueryResult) -> QueryResult {
    result.rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.grouping_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    result
}

// ---------------------------------------------------------------------
// The query generator
// ---------------------------------------------------------------------

fn col(name: &str) -> Expr {
    Expr::col(name)
}

fn agg(func: AggFunc, arg: Expr) -> Expr {
    Expr::Aggregate {
        func,
        arg: Some(Box::new(arg)),
    }
}

fn count_star() -> Expr {
    Expr::Aggregate {
        func: AggFunc::Count,
        arg: None,
    }
}

fn pick<T: Clone>(rng: &mut SplitMix64, xs: &[T]) -> T {
    xs[rng.index(xs.len())].clone()
}

fn cmp_op(rng: &mut SplitMix64) -> BinOp {
    pick(
        rng,
        &[
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
            BinOp::Eq,
            BinOp::NotEq,
        ],
    )
}

/// A conjunct the pushdown planner moves into the scan kernel: an
/// Int32 / Date column against a literal.
fn pushable_conjunct(rng: &mut SplitMix64) -> Expr {
    match rng.index(3) {
        0 => Expr::binary(cmp_op(rng), col("v"), Expr::lit(rng.range_i64(-10, 50))),
        1 => Expr::binary(cmp_op(rng), col("k"), Expr::lit(rng.range_i64(0, KEYS))),
        _ => Expr::binary(cmp_op(rng), col("d"), Expr::lit(day(rng.range_i64(0, 28)))),
    }
}

/// A conjunct the executor must evaluate: Int64 / Char / Float columns,
/// arithmetic, NOT, BETWEEN, IN, IS NULL, OR.
fn residual_conjunct(rng: &mut SplitMix64) -> Expr {
    match rng.index(8) {
        0 => Expr::binary(cmp_op(rng), col("w"), Expr::lit(rng.range_i64(-500, 500))),
        1 => Expr::binary(BinOp::Eq, col("g"), Expr::lit(pick(rng, GROUPS))),
        2 => Expr::binary(
            BinOp::Lt,
            col("f"),
            Expr::lit(rng.range_i64(-200, 200) as f64 * 0.5),
        ),
        3 => Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Add, col("v"), col("k")),
            Expr::lit(rng.range_i64(0, KEYS)),
        ),
        4 => Expr::Not(Box::new(pushable_conjunct(rng))),
        5 => {
            let lo = rng.range_i64(-20, 30);
            Expr::Between {
                expr: Box::new(col("v")),
                low: Box::new(Expr::lit(lo)),
                high: Box::new(Expr::lit(lo + rng.range_i64(0, 30))),
                negated: rng.chance(1, 4),
            }
        }
        6 => Expr::InList {
            expr: Box::new(col("g")),
            list: vec![Expr::lit(pick(rng, GROUPS)), Expr::lit(pick(rng, GROUPS))],
            negated: rng.chance(1, 3),
        },
        _ => {
            if rng.chance(1, 2) {
                Expr::IsNull {
                    expr: Box::new(col("w")),
                    negated: rng.chance(1, 2),
                }
            } else {
                pushable_conjunct(rng).or(residual_conjunct(rng))
            }
        }
    }
}

fn random_where(rng: &mut SplitMix64) -> Option<Expr> {
    let conjuncts = rng.index(4);
    let mut pred: Option<Expr> = None;
    for _ in 0..conjuncts {
        let c = if rng.chance(1, 2) {
            pushable_conjunct(rng)
        } else {
            residual_conjunct(rng)
        };
        pred = Some(match pred {
            None => c,
            Some(p) => p.and(c),
        });
    }
    pred
}

/// An aggregate-bearing select item.
fn random_aggregate(rng: &mut SplitMix64) -> Expr {
    match rng.index(12) {
        0 => count_star(),
        1 => agg(AggFunc::Count, col("w")),
        2 => agg(AggFunc::Sum, col(pick(rng, &["v", "w", "f"]))),
        3 => agg(AggFunc::Avg, col(pick(rng, &["v", "w", "f"]))),
        4 => agg(AggFunc::Min, col(pick(rng, &["v", "w", "g", "d", "f"]))),
        5 => agg(AggFunc::Max, col(pick(rng, &["v", "w", "g", "d", "f"]))),
        // The §4 rewrite's shape: CASE inside the aggregate.
        6 => agg(
            AggFunc::Sum,
            Expr::Case {
                branches: vec![(
                    Expr::binary(BinOp::Gt, col("v"), Expr::lit(rng.range_i64(-10, 40))),
                    col("w"),
                )],
                else_expr: Some(Box::new(Expr::lit(0))),
            },
        ),
        // CASE over aggregates.
        7 => Expr::Case {
            branches: vec![(
                Expr::binary(BinOp::Gt, count_star(), Expr::lit(rng.range_i64(0, 20))),
                agg(AggFunc::Sum, col("v")),
            )],
            else_expr: Some(Box::new(agg(AggFunc::Min, col("v")))),
        },
        8 => Expr::binary(BinOp::Add, agg(AggFunc::Sum, col("v")), count_star()),
        9 => Expr::binary(
            BinOp::Mul,
            agg(AggFunc::Max, col("k")),
            Expr::lit(rng.range_i64(1, 4)),
        ),
        10 => agg(
            AggFunc::Count,
            Expr::Case {
                branches: vec![(
                    Expr::binary(BinOp::Eq, col("g"), Expr::lit(pick(rng, GROUPS))),
                    col("k"),
                )],
                else_expr: None,
            },
        ),
        _ => agg(AggFunc::Sum, Expr::binary(BinOp::Sub, col("w"), col("v"))),
    }
}

/// A scalar select item for plain queries.
fn random_scalar(rng: &mut SplitMix64) -> Expr {
    match rng.index(6) {
        0..=2 => col(pick(rng, &["k", "g", "d", "v", "w", "f"])),
        3 => Expr::binary(BinOp::Add, col("v"), col("k")),
        4 => Expr::Case {
            branches: vec![(
                Expr::binary(BinOp::GtEq, col("v"), Expr::lit(rng.range_i64(0, 40))),
                col("w"),
            )],
            else_expr: Some(Box::new(Expr::Neg(Box::new(col("w"))))),
        },
        _ => Expr::IsNull {
            expr: Box::new(col("w")),
            negated: false,
        },
    }
}

fn random_select(rng: &mut SplitMix64) -> SelectStmt {
    let mut stmt = SelectStmt {
        items: Vec::new(),
        from: "t".into(),
        where_clause: random_where(rng),
        group_by: Vec::new(),
        having: None,
        order_by: Vec::new(),
        limit: None,
    };
    if rng.chance(3, 5) {
        // Aggregate query: 0–2 grouping columns (v is updatable, so its
        // group key follows the session's version).
        let mut grouping: Vec<&str> = Vec::new();
        for _ in 0..rng.index(3) {
            let c = pick(rng, &["g", "d", "v"]);
            if !grouping.contains(&c) {
                grouping.push(c);
            }
        }
        stmt.group_by = grouping.iter().map(|c| col(c)).collect();
        let mut items: Vec<Expr> = grouping.iter().map(|c| col(c)).collect();
        for _ in 0..1 + rng.index(3) {
            items.push(random_aggregate(rng));
        }
        if rng.chance(1, 3) {
            stmt.having = Some(match rng.index(3) {
                0 => Expr::binary(BinOp::Gt, count_star(), Expr::lit(rng.range_i64(0, 30))),
                1 => Expr::binary(
                    BinOp::GtEq,
                    agg(AggFunc::Sum, col("v")),
                    Expr::lit(rng.range_i64(-50, 400)),
                ),
                _ if grouping.contains(&"g") => {
                    Expr::binary(BinOp::NotEq, col("g"), Expr::lit(pick(rng, GROUPS)))
                }
                _ => Expr::binary(BinOp::LtEq, agg(AggFunc::Min, col("k")), Expr::lit(150)),
            });
        }
        // Order by grouping columns and integer aggregates only: float
        // aggregates could tie-break differently within the tolerance.
        for c in &grouping {
            if rng.chance(1, 2) {
                stmt.order_by.push(OrderKey {
                    expr: col(c),
                    asc: rng.chance(1, 2),
                });
            }
        }
        if rng.chance(1, 3) {
            stmt.order_by.push(OrderKey {
                expr: pick(rng, &[count_star(), agg(AggFunc::Sum, col("v"))]),
                asc: rng.chance(1, 2),
            });
        }
        stmt.items = items.into_iter().map(SelectItem::new).collect();
    } else {
        let n_items = rng.index(4);
        stmt.items = (0..n_items)
            .map(|_| SelectItem::new(random_scalar(rng)))
            .collect();
        for _ in 0..rng.index(3) {
            stmt.order_by.push(OrderKey {
                expr: col(pick(rng, &["k", "g", "v", "w", "d"])),
                asc: rng.chance(1, 2),
            });
        }
    }
    if rng.chance(1, 3) {
        stmt.limit = Some(rng.range_i64(0, 40) as u64);
    }
    stmt
}

// ---------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------

/// Compare every query path against the reference on one session.
fn check_session(
    t: &VnlTable,
    s: &ReaderSession<'_>,
    queries: &[SelectStmt],
    ctx: &str,
) -> (usize, usize) {
    let vn = s.session_vn();
    let live = s.status() == ReadOutcome::Live;
    let visible = visible_rows(t, vn);
    let mut compared = 0;
    for stmt in queries {
        // Round-trip through SQL text, as a client would send it.
        let sql = stmt.to_string();
        let Statement::Select(parsed) = parse_statement(&sql).unwrap() else {
            panic!("not a select: {sql}")
        };
        let what = format!("{ctx} vn={vn}: {sql}");
        match &visible {
            None => {
                // Some tuple lost the version the session needs: every
                // per-tuple path must expire.
                assert!(
                    matches!(s.query_stmt(&parsed), Err(VnlError::SessionExpired { .. })),
                    "{what}: serial path did not expire"
                );
                for threads in [2, 4, 8] {
                    assert!(
                        matches!(
                            s.query_stmt_parallel(&parsed, threads),
                            Err(VnlError::SessionExpired { .. })
                        ),
                        "{what}: {threads}-thread path did not expire"
                    );
                }
            }
            Some(rows) => {
                let want = reference(t.layout().base_schema(), &parsed, rows.clone());
                assert_same(
                    &want,
                    &s.query_stmt(&parsed).unwrap(),
                    &format!("{what} [serial]"),
                );
                for threads in [2, 4, 8] {
                    assert_same(
                        &want,
                        &s.query_stmt_parallel(&parsed, threads).unwrap(),
                        &format!("{what} [{threads} threads]"),
                    );
                }
                compared += 1;
            }
        }
        // The rewrite runs on the extended table and validates with the
        // global check; `SELECT *` would return extended columns.
        if !parsed.items.is_empty() {
            match s.query_via_rewrite(&sql) {
                Ok(got) => {
                    assert!(live, "{what}: rewrite answered an expired session");
                    let rows = visible
                        .as_ref()
                        .expect("a live session cannot see an expired tuple");
                    let want = reference(t.layout().base_schema(), &parsed, rows.clone());
                    // Labels render the rewritten CASE expressions.
                    assert_same_rows(&want, &got, &format!("{what} [rewrite]"));
                }
                Err(VnlError::SessionExpired { .. }) => {
                    assert!(!live, "{what}: rewrite expired a live session");
                }
                Err(e) => panic!("{what} [rewrite]: {e}"),
            }
        }
    }
    (compared, usize::from(visible.is_none()))
}

/// `stmt` with its ORDER BY made total: repair folds rows in key order
/// and a session in heap order, so ties may legitimately break
/// differently. The key (plain queries) or every grouping column
/// (aggregates) breaks them.
fn with_total_order(stmt: &SelectStmt) -> SelectStmt {
    let mut stmt = stmt.clone();
    if !stmt.order_by.is_empty() {
        let ties = if is_aggregate(&stmt) {
            stmt.group_by.clone()
        } else {
            vec![col("k")]
        };
        stmt.order_by
            .extend(ties.into_iter().map(|expr| OrderKey { expr, asc: true }));
    }
    stmt
}

/// The repair arm: repair each expired session forward to `currentVN` and
/// compare with a fresh session and the reference there. Queries with
/// ORDER BY compare in order, the rest as multisets; LIMIT without ORDER
/// BY is skipped, since which rows it keeps depends on scan order.
fn check_repair(
    t: &VnlTable,
    sessions: &[ReaderSession<'_>],
    queries: &[SelectStmt],
    ctx: &str,
) -> usize {
    let engine = RepairEngine::new(t);
    let fresh = t.begin_session();
    let vn = fresh.session_vn();
    let visible = visible_rows(t, vn).expect("a fresh session sees every tuple");
    let mut repaired = 0;
    for s in sessions
        .iter()
        .filter(|s| s.status() == ReadOutcome::Expired)
    {
        for stmt in queries {
            if stmt.limit.is_some() && stmt.order_by.is_empty() {
                continue;
            }
            let stmt = with_total_order(stmt);
            let what = format!("{ctx} repair {} -> {vn}: {stmt}", s.session_vn());
            let Some((got, at)) = engine
                .query_at_current(s.session_vn(), &stmt, &Params::new())
                .unwrap()
            else {
                continue;
            };
            assert_eq!(at, vn, "{what}: repaired to the wrong VN");
            let want = reference(t.layout().base_schema(), &stmt, visible.clone());
            let restarted = fresh.query_stmt(&stmt).unwrap();
            if stmt.order_by.is_empty() {
                let want = canonical(want);
                assert_same(&want, &canonical(got), &format!("{what} [repaired]"));
                assert_same(&want, &canonical(restarted), &format!("{what} [restarted]"));
            } else {
                assert_same(&want, &got, &format!("{what} [repaired]"));
                assert_same(&want, &restarted, &format!("{what} [restarted]"));
            }
            repaired += 1;
        }
    }
    fresh.finish();
    repaired
}

/// Build a history of committed maintenance generations with a session
/// pinned at each, open one more maintenance transaction that updates,
/// deletes and inserts without committing, and check every pinned session;
/// then commit it and check the repair arm. Returns the counts of live
/// comparisons, expired sessions and repaired answers.
fn oracle_agrees(seed: u64, n: usize, generations: usize, queries: usize) -> (usize, usize, usize) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let t = VnlTable::create_named("t", schema(), n).unwrap();
    let initial: Vec<Row> = (0..KEYS)
        .filter(|k| k % 7 != 3)
        .map(|k| random_row(&mut rng, k))
        .collect();
    t.load_initial(&initial).unwrap();

    let mutate = |rng: &mut SplitMix64, txn: &wh_vnl::MaintenanceTxn<'_>| {
        for _ in 0..rng.range_i64(20, 60) {
            let k = rng.range_i64(0, KEYS);
            let row = random_row(rng, k);
            let alive = txn.read_current(&row).unwrap().is_some();
            match (alive, rng.index(4)) {
                (true, 0) => txn.delete_row(&row).unwrap(),
                (true, _) => txn.update_row(&row).unwrap(),
                (false, _) => txn.insert(row).unwrap(),
            }
        }
    };

    let mut sessions = vec![t.begin_session()];
    for _ in 0..generations {
        let txn = t.begin_maintenance().unwrap();
        mutate(&mut rng, &txn);
        txn.commit().unwrap();
        sessions.push(t.begin_session());
    }
    wh_vnl::gc::collect(&t).unwrap();

    let stmts: Vec<SelectStmt> = (0..queries).map(|_| random_select(&mut rng)).collect();
    let in_flight = t.begin_maintenance().unwrap();
    mutate(&mut rng, &in_flight);
    let mut totals = (0, 0, 0);
    let ctx = format!("seed={seed:#x} n={n}");
    for s in &sessions {
        let (compared, expired) = check_session(&t, s, &stmts, &ctx);
        totals.0 += compared;
        totals.1 += expired;
    }
    in_flight.commit().unwrap();
    totals.2 = check_repair(&t, &sessions, &stmts, &ctx);
    for s in sessions {
        s.finish();
    }
    totals
}

#[test]
fn every_query_path_matches_the_reference_under_2vnl() {
    let (mut compared, mut repaired) = (0, 0);
    for seed in 0..4 {
        let (c, _, r) = oracle_agrees(0x0AC1_E000 + seed, 2, 3, 40);
        compared += c;
        repaired += r;
    }
    // Under 2VNL only the newest sessions stay consistent; they must still
    // have carried real comparisons.
    assert!(compared >= 100, "too few live comparisons: {compared}");
    // Every older session expired; repair must have answered for them.
    assert!(repaired >= 300, "too few repaired answers: {repaired}");
}

#[test]
fn every_query_path_matches_the_reference_under_nvnl() {
    let (mut compared, mut expired, mut repaired) = (0, 0, 0);
    for (seed, n) in [(1u64, 3usize), (2, 3), (3, 4)] {
        let (c, e, r) = oracle_agrees(0x0AC1_F000 + seed, n, 4, 40);
        compared += c;
        expired += e;
        repaired += r;
    }

    assert!(compared >= 200, "too few live comparisons: {compared}");
    // The oldest sessions fall out of the version window: the expiration
    // arm must have been exercised too.
    assert!(expired >= 1, "no session expired");
    assert!(repaired >= 200, "too few repaired answers: {repaired}");
}
