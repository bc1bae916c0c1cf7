//! Typed table facade: schema + codec + heap file.

use crate::error::StorageResult;
use crate::heap::HeapFile;
use crate::iostats::IoStats;
use crate::page::Rid;
use std::sync::Arc;
use wh_types::{Row, RowCodec, Schema};

/// A relation stored in a heap file, with row-level encode/decode.
///
/// This is the storage-facing view of a table; query processing (`wh-sql`)
/// and the 2VNL layer (`wh-vnl`) both operate through it.
pub struct Table {
    name: String,
    codec: RowCodec,
    heap: HeapFile,
}

impl Table {
    /// Create an empty table.
    pub fn create(
        name: impl Into<String>,
        schema: Schema,
        stats: Arc<IoStats>,
    ) -> StorageResult<Self> {
        let codec = RowCodec::new(schema);
        let heap = HeapFile::new(codec.encoded_len(), stats)?;
        Ok(Table {
            name: name.into(),
            codec,
            heap,
        })
    }

    /// Create an empty disk-backed table in `dir` with a buffer pool of at
    /// most `capacity` resident pages.
    pub fn create_backed(
        name: impl Into<String>,
        schema: Schema,
        dir: &std::path::Path,
        capacity: usize,
        stats: Arc<IoStats>,
    ) -> StorageResult<Self> {
        let codec = RowCodec::new(schema);
        let heap = HeapFile::create_backed(codec.encoded_len(), dir, capacity, stats)?;
        Ok(Table {
            name: name.into(),
            codec,
            heap,
        })
    }

    /// Reopen a disk-backed table from its directory. The caller supplies
    /// the schema (the checkpoint record persists only the record width);
    /// a width mismatch against the supplied schema's codec is rejected as
    /// corruption before any page is decoded.
    pub fn open_backed(
        name: impl Into<String>,
        schema: Schema,
        dir: &std::path::Path,
        capacity: usize,
        stats: Arc<IoStats>,
    ) -> StorageResult<Self> {
        let codec = RowCodec::new(schema);
        let meta = crate::checkpoint::CheckpointMeta::read(dir)?;
        if meta.record_len as usize != codec.encoded_len() {
            return Err(crate::error::StorageError::Corrupt(format!(
                "checkpoint record width {} does not match schema width {}",
                meta.record_len,
                codec.encoded_len()
            )));
        }
        let heap = HeapFile::open_backed(codec.encoded_len(), dir, capacity, stats)?;
        Ok(Table {
            name: name.into(),
            codec,
            heap,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        self.codec.schema()
    }

    /// The row codec (exposes the stored tuple width).
    pub fn codec(&self) -> &RowCodec {
        &self.codec
    }

    /// The underlying heap file.
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// Live row count.
    pub fn len(&self) -> u64 {
        self.heap.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Insert a row; returns its RID.
    pub fn insert(&self, row: &[wh_types::Value]) -> StorageResult<Rid> {
        let buf = self.codec.encode(row)?;
        self.heap.insert(&buf)
    }

    /// Read the row at `rid`.
    pub fn read(&self, rid: Rid) -> StorageResult<Row> {
        let buf = self.heap.read(rid)?;
        Ok(self.codec.decode(&buf)?)
    }

    /// Replace the row at `rid` in place.
    pub fn update(&self, rid: Rid, row: &[wh_types::Value]) -> StorageResult<()> {
        let buf = self.codec.encode(row)?;
        self.heap.update_in_place(rid, &buf)
    }

    /// Read-modify-write the row at `rid` under one page latch.
    pub fn modify<F>(&self, rid: Rid, f: F) -> StorageResult<()>
    where
        F: FnOnce(Row) -> StorageResult<Row>,
    {
        self.heap.modify(rid, |buf| {
            let row = self.codec.decode(buf)?;
            let next = f(row)?;
            Ok(self.codec.encode(&next)?)
        })
    }

    /// Physically delete the row at `rid`.
    pub fn delete(&self, rid: Rid) -> StorageResult<()> {
        self.heap.delete(rid)
    }

    /// Delete the row at `rid` only if `pred` approves its current value,
    /// atomically under the page latch. Returns whether it was deleted.
    pub fn delete_if<F>(&self, rid: Rid, pred: F) -> StorageResult<bool>
    where
        F: FnOnce(&Row) -> bool,
    {
        self.delete_if_then(rid, pred, || ())
    }

    /// [`Table::delete_if`] plus a hook run under the same page latch after
    /// the delete — see [`Heap::delete_if_then`] for why cleanup that must
    /// not interleave with slot reuse belongs inside the latch.
    pub fn delete_if_then<F, G>(&self, rid: Rid, pred: F, then: G) -> StorageResult<bool>
    where
        F: FnOnce(&Row) -> bool,
        G: FnOnce(),
    {
        self.heap.delete_if_then(
            rid,
            |buf| match self.codec.decode(buf) {
                Ok(row) => pred(&row),
                Err(_) => false,
            },
            then,
        )
    }

    /// Retire the row at `rid` if `pred` approves its current value,
    /// atomically under the page latch, with `then` run under the same
    /// latch. A retired slot is invisible but **not reusable** until
    /// [`Table::release`] — see [`HeapFile::retire_if_then`].
    pub fn retire_if_then<F, G>(&self, rid: Rid, pred: F, then: G) -> StorageResult<bool>
    where
        F: FnOnce(&Row) -> bool,
        G: FnOnce(),
    {
        self.heap.retire_if_then(
            rid,
            |buf| match self.codec.decode(buf) {
                Ok(row) => pred(&row),
                Err(_) => false,
            },
            then,
        )
    }

    /// Release a retired slot for reuse (the caller has proven, via the
    /// epoch grace period, that no reader still holds its RID).
    pub fn release(&self, rid: Rid) -> StorageResult<()> {
        self.heap.release(rid)
    }

    /// Visit every live row.
    pub fn scan<F>(&self, mut visit: F) -> StorageResult<()>
    where
        F: FnMut(Rid, Row) -> StorageResult<()>,
    {
        self.heap.scan(|rid, buf| {
            let row = self.codec.decode(buf)?;
            visit(rid, row)
        })
    }

    /// Visit every live row split into one contiguous page range per
    /// element of `parts`; `visit(part, rid, row)` gets that partition's
    /// own state. See [`HeapFile::scan_parallel`].
    pub fn scan_parallel<P, F>(&self, parts: &mut [P], visit: F) -> StorageResult<()>
    where
        P: Send,
        F: Fn(&mut P, Rid, Row) -> StorageResult<()> + Sync,
    {
        self.heap.scan_parallel(parts, |part, rid, buf| {
            let row = self.codec.decode(buf)?;
            visit(part, rid, row)
        })
    }

    /// Collect all live rows with their RIDs.
    pub fn scan_all(&self) -> StorageResult<Vec<(Rid, Row)>> {
        let mut out = Vec::new();
        self.scan(|rid, row| {
            out.push((rid, row));
            Ok(())
        })?;
        Ok(out)
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wh_types::schema::daily_sales_schema;
    use wh_types::{Date, Value};

    fn sample_table() -> Table {
        Table::create("DailySales", daily_sales_schema(), Arc::new(IoStats::new())).unwrap()
    }

    fn row(city: &str, sales: i64) -> Row {
        vec![
            Value::from(city),
            Value::from("CA"),
            Value::from("golf equip"),
            Value::from(Date::ymd(1996, 10, 14)),
            Value::from(sales),
        ]
    }

    #[test]
    fn typed_round_trip() {
        let t = sample_table();
        let r = row("San Jose", 10_000);
        let rid = t.insert(&r).unwrap();
        assert_eq!(t.read(rid).unwrap(), r);
    }

    #[test]
    fn update_and_modify() {
        let t = sample_table();
        let rid = t.insert(&row("San Jose", 10_000)).unwrap();
        let mut r = row("San Jose", 12_000);
        t.update(rid, &r).unwrap();
        assert_eq!(t.read(rid).unwrap()[4], Value::from(12_000));
        t.modify(rid, |mut cur| {
            cur[4] = cur[4].add(&Value::from(500)).unwrap();
            Ok(cur)
        })
        .unwrap();
        r[4] = Value::from(12_500);
        assert_eq!(t.read(rid).unwrap(), r);
    }

    #[test]
    fn scan_all_returns_rows() {
        let t = sample_table();
        t.insert(&row("San Jose", 1)).unwrap();
        t.insert(&row("Berkeley", 2)).unwrap();
        let mut sales: Vec<i64> = t
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r[4].as_int().unwrap())
            .collect();
        sales.sort_unstable();
        assert_eq!(sales, vec![1, 2]);
    }

    #[test]
    fn scan_parallel_agrees_with_scan_all() {
        let t = sample_table();
        for i in 0..300 {
            t.insert(&row(&format!("city{i:03}"), i)).unwrap();
        }
        let serial = t.scan_all().unwrap();
        let mut parts = vec![Vec::new(); 4];
        t.scan_parallel(&mut parts, |part, rid, r| {
            part.push((rid, r));
            Ok(())
        })
        .unwrap();
        assert_eq!(parts.concat(), serial);
    }

    #[test]
    fn delete_removes_row() {
        let t = sample_table();
        let rid = t.insert(&row("San Jose", 1)).unwrap();
        t.delete(rid).unwrap();
        assert!(t.is_empty());
        assert!(t.read(rid).is_err());
    }

    #[test]
    fn schema_violations_surface() {
        let t = sample_table();
        assert!(t.insert(&[Value::Int(1)]).is_err());
    }
}
