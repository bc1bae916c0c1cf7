//! SQL subset for the `warehouse-2vnl` system.
//!
//! The paper's central implementation claim (§4) is that 2VNL "can be
//! implemented entirely outside of an existing DBMS by automatically
//! modifying the relation schema ... and rewriting the maintenance and query
//! operations". A rewrite approach needs something to rewrite: this crate is
//! the SQL surface — a hand-written lexer and recursive-descent parser for
//! the subset the paper uses (SELECT with WHERE / GROUP BY / ORDER BY,
//! aggregates, **CASE WHEN** expressions, named `:parameters`, INSERT /
//! UPDATE / DELETE), an AST that renders back to SQL text (the rewrite golden
//! tests in `wh-vnl` compare rendered SQL against the paper's Example 4.1),
//! and a streaming SELECT executor over any [`RowSource`]: `wh-storage`
//! tables here, version-filtered reader sessions in `wh-vnl`.
//!
//! ```
//! use std::sync::Arc;
//! use wh_sql::{execute_select, parse_statement, Params, Statement};
//! use wh_storage::{IoStats, Table};
//! use wh_types::{Column, DataType, Schema, Value};
//!
//! let schema = Schema::new(vec![
//!     Column::new("city", DataType::Char(16)),
//!     Column::updatable("sales", DataType::Int32),
//! ])
//! .unwrap();
//! let t = Table::create("t", schema, Arc::new(IoStats::new())).unwrap();
//! t.insert(&[Value::from("San Jose"), Value::from(10)]).unwrap();
//! t.insert(&[Value::from("San Jose"), Value::from(5)]).unwrap();
//! let Statement::Select(select) =
//!     parse_statement("SELECT city, SUM(sales) FROM t GROUP BY city").unwrap()
//! else {
//!     unreachable!("a SELECT parses as a SELECT")
//! };
//! let result = execute_select(&t, &select, &Params::new()).unwrap();
//! assert_eq!(result.rows, vec![vec![Value::from("San Jose"), Value::from(15)]]);
//! ```

pub mod ast;
pub mod error;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod patch;
pub mod pushdown;

pub use ast::{
    AggFunc, BinOp, ColumnDef, CreateTableStmt, DeleteStmt, DropTableStmt, Expr, InsertStmt,
    OrderKey, SelectItem, SelectStmt, Statement, UpdateStmt,
};
pub use error::{SqlError, SqlResult};
pub use eval::{EvalContext, Params};
pub use exec::{execute_select, execute_select_parallel, QueryResult, RowSource};
pub use parser::{parse_expression, parse_statement};
pub use patch::AggPatcher;
pub use pushdown::{extract_scan_filters, FilterOp, ScanFilter};
