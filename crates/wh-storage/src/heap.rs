//! Heap files: growable collections of latched pages.

use crate::batch::{FieldSpec, RecordBatch};
use crate::bufpool::{BufferPool, PagePin};
use crate::checkpoint::{CheckpointMeta, CheckpointStats, VersionMeta};
use crate::error::{StorageError, StorageResult};
use crate::iostats::IoStats;
use crate::page::Rid;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
// Latch acquisition is a verified kernel: `wh_kernel::latch` is the same
// source the `cargo test -p wh-kernel --features model` suite explores
// exhaustively on wh-model's checked sync types.
use wh_kernel::latch::{lock_list, read_latch, try_read_latch, try_write_latch, write_latch};
use wh_types::fail_point;

/// Failpoints compiled into this crate under `--features failpoints`
/// (disarmed and zero-cost otherwise). Names are stable: the crash-matrix
/// driver enumerates this catalog.
pub const FAILPOINTS: &[&str] = &[
    "storage.heap.latch",
    "storage.heap.insert",
    "storage.heap.read",
    "storage.heap.write",
    "storage.heap.modify",
    "storage.heap.delete",
    "storage.heap.free_space",
    "storage.disk.read",
    "storage.disk.write",
    "storage.pool.evict",
    "storage.pool.flush",
    "storage.ckpt.begin",
    "storage.ckpt.meta",
];

/// File name of the page file within a durable heap's directory.
pub const PAGES_FILE: &str = "pages.whd";

/// [`read_latch`] with contention telemetry for page latches: uncontended
/// acquisitions take the `try_read` fast path and never touch the clock;
/// only a blocked acquisition pays for two `Instant` reads, recorded in
/// `storage.latch.read_wait_ns`. The contended path is `#[cold]` and
/// never inlined so the timing machinery stays out of scan-loop codegen —
/// the E20 overhead gate holds the fast path to the bare `try_read`.
fn read_latch_timed<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match try_read_latch(lock) {
        Some(g) => g,
        None => read_latch_contended(lock),
    }
}

#[cold]
#[inline(never)]
fn read_latch_contended<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    let wait = wh_obs::Timer::start();
    let g = read_latch(lock);
    let ns = wait.elapsed_ns();
    wh_obs::histogram!("storage.latch.read_wait_ns").record(ns);
    // Contended waits are rare enough to afford a causal event each.
    wh_obs::trace_event!("storage.latch.read_contended", ns);
    g
}

/// Write twin of [`read_latch_timed`]; waits land in
/// `storage.latch.write_wait_ns`.
fn write_latch_timed<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match try_write_latch(lock) {
        Some(g) => g,
        None => write_latch_contended(lock),
    }
}

#[cold]
#[inline(never)]
fn write_latch_contended<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    let wait = wh_obs::Timer::start();
    let g = write_latch(lock);
    let ns = wait.elapsed_ns();
    wh_obs::histogram!("storage.latch.write_wait_ns").record(ns);
    // Contended waits are rare enough to afford a causal event each.
    wh_obs::trace_event!("storage.latch.write_contended", ns);
    g
}

/// A heap file of fixed-width records.
///
/// Concurrency model (deliberately matching the paper's §4 substrate
/// requirements):
///
/// * Each page sits behind its own `RwLock` used as a **latch**: held only
///   for the duration of one record operation or one page visit during a
///   scan, never across an operation boundary, and never until commit.
/// * Readers therefore never block on writers beyond a single in-flight
///   tuple modification, and scans read "uncommitted" data by design — the
///   2VNL layer above makes that safe.
/// * Updates are **in place** and width-preserving.
///
/// Every page visit is counted against the shared [`IoStats`].
pub struct HeapFile {
    record_len: usize,
    /// Every page access goes through the pool: an unbounded never-evicting
    /// map in memory, a real pin/evict/fault-in pool when disk-backed.
    pool: BufferPool,
    /// Durable heap's directory (page file + checkpoint record); `None` in
    /// memory.
    dir: Option<PathBuf>,
    /// Pages that may have free slots; checked before allocating a new page.
    free_pages: Mutex<Vec<u32>>,
    stats: Arc<IoStats>,
    /// Rolling op count behind [`HeapFile::sample_op`].
    op_probe: std::sync::atomic::AtomicU32,
}

impl HeapFile {
    /// Create an empty heap file for records of `record_len` bytes.
    pub fn new(record_len: usize, stats: Arc<IoStats>) -> StorageResult<Self> {
        Ok(HeapFile {
            record_len,
            pool: BufferPool::in_memory(record_len)?,
            dir: None,
            free_pages: Mutex::new(Vec::new()),
            stats,
            op_probe: std::sync::atomic::AtomicU32::new(0),
        })
    }

    /// Create an empty disk-backed heap in `dir` (created if absent), with
    /// at most `capacity` pages resident in the buffer pool.
    pub fn create_backed(
        record_len: usize,
        dir: &Path,
        capacity: usize,
        stats: Arc<IoStats>,
    ) -> StorageResult<Self> {
        std::fs::create_dir_all(dir).map_err(StorageError::io)?;
        Ok(HeapFile {
            record_len,
            pool: BufferPool::create_backed(record_len, &dir.join(PAGES_FILE), capacity)?,
            dir: Some(dir.to_path_buf()),
            free_pages: Mutex::new(Vec::new()),
            stats,
            op_probe: std::sync::atomic::AtomicU32::new(0),
        })
    }

    /// Reopen a disk-backed heap from its directory. The heap is sized from
    /// the page-**file** length (not the checkpoint record — pages
    /// allocated after the last checkpoint may have been stolen to disk and
    /// still need the §7 rollback pass). The free list is rebuilt by
    /// faulting every page in once.
    pub fn open_backed(
        record_len: usize,
        dir: &Path,
        capacity: usize,
        stats: Arc<IoStats>,
    ) -> StorageResult<Self> {
        let heap = HeapFile {
            record_len,
            pool: BufferPool::open_backed(record_len, &dir.join(PAGES_FILE), capacity)?,
            dir: Some(dir.to_path_buf()),
            free_pages: Mutex::new(Vec::new()),
            stats,
            op_probe: std::sync::atomic::AtomicU32::new(0),
        };
        let mut free = Vec::new();
        for page_no in 0..heap.pool.page_count() {
            let pin = heap.pool.fetch(page_no)?;
            if read_latch(&pin).has_room() {
                free.push(page_no);
            }
        }
        *lock_list(&heap.free_pages) = free;
        Ok(heap)
    }

    /// Whether this heap persists pages to disk.
    pub fn is_durable(&self) -> bool {
        self.pool.is_backed()
    }

    /// The buffer pool (telemetry/tests: residency, evict-all).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Flush every dirty page to the page file; returns pages written.
    pub fn flush_all(&self) -> StorageResult<u64> {
        self.pool.flush_all()
    }

    /// Evict every unpinned page (flushing dirty ones first) — the full
    /// evict/reload cycle on demand, for tests and the crash matrix.
    pub fn evict_all(&self) -> StorageResult<u64> {
        self.pool.evict_all()
    }

    /// Take a fuzzy checkpoint: flush all dirty pages, fsync the page file,
    /// then atomically publish the checkpoint record carrying `version` —
    /// the version globals the caller captured **before** calling (the
    /// begin snapshot). Any maintenance work that lands on disk during the
    /// flush carries `tupleVN` above that snapshot and is §7-rolled-back on
    /// recovery, so no quiescing is needed.
    pub fn checkpoint(&self, version: VersionMeta) -> StorageResult<CheckpointStats> {
        // trace: nests under `vnl.checkpoint` when driven from the table.
        let _ts = wh_obs::trace_span!("storage.checkpoint");
        fail_point!("storage.ckpt.begin");
        let dir = self.dir.as_ref().ok_or_else(|| {
            StorageError::Corrupt("checkpoint requested on an in-memory heap".into())
        })?;
        let timer = wh_obs::Timer::start();
        let pages_flushed = self.pool.flush_all()?;
        self.pool.sync()?;
        let meta = CheckpointMeta {
            current_vn: version.current_vn,
            maintenance_active: version.maintenance_active,
            // lint: allow(version-encapsulation) — VersionMeta POD field, not the kernel atomic
            recovery_floor: version.recovery_floor,
            gc_horizon: version.gc_horizon,
            page_count: self.pool.page_count(),
            record_len: self.record_len as u32,
        };
        meta.write(dir)?;
        wh_obs::counter!("storage.ckpt.completed").inc();
        wh_obs::histogram!("storage.ckpt.ns").record(timer.elapsed_ns());
        wh_obs::histogram!("storage.ckpt.pages_flushed").record(pages_flushed);
        Ok(CheckpointStats {
            pages_flushed,
            checkpoint_vn: version.current_vn,
        })
    }

    /// Load this heap's checkpoint record (durable heaps only).
    pub fn read_checkpoint(&self) -> StorageResult<CheckpointMeta> {
        let dir = self.dir.as_ref().ok_or_else(|| {
            StorageError::Corrupt("no checkpoint record on an in-memory heap".into())
        })?;
        CheckpointMeta::read(dir)
    }

    /// Record width stored by this file.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// The I/O counters this file reports into.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        self.pool.page_count()
    }

    /// Number of live records. On a disk-backed heap this faults evicted
    /// pages in; I/O errors read as zero live records for that page.
    pub fn len(&self) -> u64 {
        (0..self.pool.page_count())
            .filter_map(|page_no| self.pool.fetch(page_no).ok())
            .map(|pin| u64::from(read_latch(&pin).live()))
            .sum()
    }

    /// Whether the file holds no live records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this operation should pay for latency timing: a point read
    /// finishes in ~0.5µs, where two clock reads per call are a measurable
    /// tax, so the per-op latency histogram samples every 16th call (the
    /// first always records). Counters stay exact; only timing is thinned.
    fn sample_op(&self) -> bool {
        wh_obs::is_enabled()
            && self
                .op_probe
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed) // ordering: stat-counter Relaxed — independent event counter; read only for reporting
                .is_multiple_of(16)
    }

    fn page(&self, page_no: u32) -> StorageResult<PagePin> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.latch");
        self.pool.fetch(page_no)
    }

    /// Publish the current free-list size to `storage.heap.free_pages`
    /// (free-list pressure: near-zero under append-heavy load means every
    /// insert is allocating, high values mean deletes are outpacing reuse).
    fn note_free_list(free: &[u32]) {
        wh_obs::gauge!("storage.heap.free_pages").set(free.len() as i64);
    }

    /// Insert a record, returning its RID.
    pub fn insert(&self, record: &[u8]) -> StorageResult<Rid> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.insert");
        let op = self.sample_op().then(wh_obs::Timer::start);
        loop {
            // Try a page believed to have room.
            let candidate = lock_list(&self.free_pages).last().copied();
            if let Some(page_no) = candidate {
                let page = self.page(page_no)?;
                let mut guard = write_latch_timed(&page);
                self.stats.count_page_reads(1);
                if let Some(slot) = guard.insert(record)? {
                    page.mark_dirty();
                    self.stats.count_page_writes(1);
                    self.stats.count_tuple_writes(1);
                    if !guard.has_room() {
                        let mut free = lock_list(&self.free_pages);
                        free.retain(|&p| p != page_no);
                        Self::note_free_list(&free);
                    }
                    if let Some(op) = op {
                        wh_obs::histogram_sampled!("storage.heap.insert_ns", 16)
                            .record(op.elapsed_ns());
                    }
                    return Ok(Rid::new(page_no, slot));
                }
                // Page filled up under us; drop it from the free list and retry.
                lock_list(&self.free_pages).retain(|&p| p != page_no);
                continue;
            }
            // Allocate a new page.
            // lint: allow(latch-order) — the page write latch is scoped to the candidate branch above and is not held on this path; allocate starts with no latch held
            let page_no = self.pool.allocate()?;
            wh_obs::counter!("storage.heap.page_allocs").inc();
            let mut free = lock_list(&self.free_pages);
            free.push(page_no);
            Self::note_free_list(&free);
        }
    }

    /// Read the record at `rid` into an owned buffer.
    pub fn read(&self, rid: Rid) -> StorageResult<Vec<u8>> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.read");
        let op = self.sample_op().then(wh_obs::Timer::start);
        let page = self.page(rid.page)?;
        let guard = read_latch_timed(&page);
        self.stats.count_page_reads(1);
        let rec = guard.read(rid.page, rid.slot)?;
        self.stats.count_tuple_reads(1);
        let out = rec.to_vec();
        drop(guard);
        if let Some(op) = op {
            wh_obs::histogram_sampled!("storage.heap.read_ns", 16).record(op.elapsed_ns());
        }
        Ok(out)
    }

    /// Overwrite the record at `rid` in place (width-preserving).
    pub fn update_in_place(&self, rid: Rid, record: &[u8]) -> StorageResult<()> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.write");
        let op = self.sample_op().then(wh_obs::Timer::start);
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        self.stats.count_page_reads(1);
        guard.update_in_place(rid.page, rid.slot, record)?;
        page.mark_dirty();
        self.stats.count_page_writes(1);
        self.stats.count_tuple_writes(1);
        drop(guard);
        if let Some(op) = op {
            wh_obs::histogram_sampled!("storage.heap.write_ns", 16).record(op.elapsed_ns());
        }
        Ok(())
    }

    /// Read-modify-write the record at `rid` under a single page latch.
    ///
    /// The closure sees the current image and returns the replacement (same
    /// width). This is the primitive the 2VNL maintenance decision tables
    /// need: the decision depends on the tuple's current `tupleVN`/`operation`
    /// and must be applied atomically with respect to concurrent scans.
    pub fn modify<F>(&self, rid: Rid, f: F) -> StorageResult<()>
    where
        F: FnOnce(&[u8]) -> StorageResult<Vec<u8>>,
    {
        let sampled = self.sample_op();
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        // Hold time matters here: the latch stays down across the caller's
        // decision closure, which is exactly where 2VNL maintenance spends
        // its per-tuple time and what concurrent readers wait behind.
        let hold = sampled.then(wh_obs::Timer::start);
        self.stats.count_page_reads(1);
        let current = guard.read(rid.page, rid.slot)?.to_vec();
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.modify");
        let replacement = f(&current)?;
        guard.update_in_place(rid.page, rid.slot, &replacement)?;
        page.mark_dirty();
        self.stats.count_page_writes(1);
        self.stats.count_tuple_writes(1);
        drop(guard);
        if let Some(hold) = hold {
            let ns = hold.elapsed_ns();
            wh_obs::histogram_sampled!("storage.latch.write_hold_ns", 16).record(ns);
            wh_obs::histogram_sampled!("storage.heap.write_ns", 16).record(ns);
        }
        Ok(())
    }

    /// Physically delete the record at `rid` only if `pred` approves its
    /// current image — checked and deleted under one page latch, so no
    /// concurrent modification can slip between the check and the delete.
    /// Returns whether the delete happened.
    pub fn delete_if<F>(&self, rid: Rid, pred: F) -> StorageResult<bool>
    where
        F: FnOnce(&[u8]) -> bool,
    {
        self.delete_if_then(rid, pred, || ())
    }

    /// [`Heap::delete_if`], plus a `then` hook that runs after the delete
    /// while the page latch is still held. Callers retire external
    /// bookkeeping (key directory, secondary indexes) atomically with the
    /// physical removal: done after the latch drops, the freed slot can be
    /// reallocated — possibly to the same key — and the late cleanup would
    /// tear down the new record's entries instead.
    pub fn delete_if_then<F, G>(&self, rid: Rid, pred: F, then: G) -> StorageResult<bool>
    where
        F: FnOnce(&[u8]) -> bool,
        G: FnOnce(),
    {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.delete");
        let op = self.sample_op().then(wh_obs::Timer::start);
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        self.stats.count_page_reads(1);
        let current = guard.read(rid.page, rid.slot)?;
        if !pred(current) {
            return Ok(false);
        }
        guard.delete(rid.page, rid.slot)?;
        page.mark_dirty();
        self.stats.count_page_writes(1);
        self.stats.count_tuple_writes(1);
        then();
        drop(guard);
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.free_space");
        let mut free = lock_list(&self.free_pages);
        if !free.contains(&rid.page) {
            free.push(rid.page);
        }
        Self::note_free_list(&free);
        drop(free);
        if let Some(op) = op {
            wh_obs::histogram_sampled!("storage.heap.delete_ns", 16).record(op.elapsed_ns());
        }
        Ok(true)
    }

    /// Retire the record at `rid` only if `pred` approves its current
    /// image — checked and retired under one page latch, with the `then`
    /// hook run while the latch is still held (see
    /// [`Self::delete_if_then`] for why the bookkeeping must be
    /// under-latch). Unlike a delete, a retired slot is invisible but
    /// **not reusable**: the page is not returned to the free list and
    /// the old bytes stay in place until [`Self::release`] — the storage
    /// half of the GC's epoch grace period.
    pub fn retire_if_then<F, G>(&self, rid: Rid, pred: F, then: G) -> StorageResult<bool>
    where
        F: FnOnce(&[u8]) -> bool,
        G: FnOnce(),
    {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.delete");
        let op = self.sample_op().then(wh_obs::Timer::start);
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        self.stats.count_page_reads(1);
        let current = guard.read(rid.page, rid.slot)?;
        if !pred(current) {
            return Ok(false);
        }
        guard.retire(rid.page, rid.slot)?;
        page.mark_dirty();
        self.stats.count_page_writes(1);
        self.stats.count_tuple_writes(1);
        then();
        drop(guard);
        if let Some(op) = op {
            wh_obs::histogram_sampled!("storage.heap.delete_ns", 16).record(op.elapsed_ns());
        }
        Ok(true)
    }

    /// Release a retired slot for reuse and return its page to the free
    /// list. Only the GC calls this, after the epoch grace period proves
    /// no reader can still hold the slot's rid.
    pub fn release(&self, rid: Rid) -> StorageResult<()> {
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        guard.release(rid.page, rid.slot)?;
        page.mark_dirty();
        drop(guard);
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.free_space");
        let mut free = lock_list(&self.free_pages);
        if !free.contains(&rid.page) {
            free.push(rid.page);
        }
        Self::note_free_list(&free);
        Ok(())
    }

    /// Physically delete the record at `rid`.
    pub fn delete(&self, rid: Rid) -> StorageResult<()> {
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.delete");
        let op = self.sample_op().then(wh_obs::Timer::start);
        let page = self.page(rid.page)?;
        let mut guard = write_latch_timed(&page);
        self.stats.count_page_reads(1);
        guard.delete(rid.page, rid.slot)?;
        page.mark_dirty();
        self.stats.count_page_writes(1);
        self.stats.count_tuple_writes(1);
        drop(guard);
        // trace: point-op leaf; the enclosing vnl txn/read span is the causal parent.
        fail_point!("storage.heap.free_space");
        let mut free = lock_list(&self.free_pages);
        if !free.contains(&rid.page) {
            free.push(rid.page);
        }
        Self::note_free_list(&free);
        drop(free);
        if let Some(op) = op {
            wh_obs::histogram_sampled!("storage.heap.delete_ns", 16).record(op.elapsed_ns());
        }
        Ok(())
    }

    /// Scan all live records, invoking `visit` for each `(rid, record)`.
    ///
    /// The page latch is held only while visiting one page (copy-out
    /// happens inside), so a concurrent writer can slip between pages —
    /// exactly the read-uncommitted scan behaviour the paper's rewrite
    /// approach is built for. Tuples modified in place mid-scan are seen
    /// exactly once, in either their old or new image, never torn.
    pub fn scan<F>(&self, visit: F) -> StorageResult<()>
    where
        F: FnMut(Rid, &[u8]) -> StorageResult<()>,
    {
        self.scan_pages(0..self.page_count(), visit)
    }

    /// Scan the live records of pages in `range` (clamped to the allocated
    /// page count), invoking `visit` for each `(rid, record)`.
    ///
    /// This is the partition primitive behind [`Self::scan`] and
    /// [`Self::scan_parallel`]. I/O counters are accumulated locally and
    /// merged into the shared [`IoStats`] once at the end of the range —
    /// one atomic add per counter per partition instead of one per tuple —
    /// so partitioned scans don't serialize on the stats cache line.
    pub fn scan_pages<F>(&self, range: std::ops::Range<u32>, mut visit: F) -> StorageResult<()>
    where
        F: FnMut(Rid, &[u8]) -> StorageResult<()>,
    {
        // Clamp once up front (pages grow-only, so the bound stays valid),
        // then pin each page *lazily* inside the loop: pinning the whole
        // range at once would wedge a bounded buffer pool — a partition
        // larger than pool capacity could never fault its tail in.
        let end = range.end.min(self.pool.page_count());
        let start = range.start.min(end);
        let op = wh_obs::Timer::start();
        let mut page_reads = 0u64;
        let mut tuple_reads = 0u64;
        let mut result = Ok(());
        'pages: for page_no in start..end {
            let page = match self.pool.fetch(page_no) {
                Ok(page) => page,
                Err(e) => {
                    result = Err(e);
                    break 'pages;
                }
            };
            let guard = read_latch_timed(&page);
            page_reads += 1;
            for (slot, rec) in guard.iter() {
                tuple_reads += 1;
                if let Err(e) = visit(Rid::new(page_no, slot), rec) {
                    result = Err(e);
                    break 'pages;
                }
            }
        }
        self.stats.count_page_reads(page_reads);
        self.stats.count_tuple_reads(tuple_reads);
        wh_obs::histogram!("storage.heap.scan_partition_ns").record(op.elapsed_ns());
        result
    }

    /// Scan all live records split into one contiguous page range per
    /// element of `parts`, calling `visit(part, rid, record)` with that
    /// partition's own state. Per-page latching is identical to
    /// [`Self::scan`]. See [`Self::partitioned`] for threading and errors.
    pub fn scan_parallel<P, F>(&self, parts: &mut [P], visit: F) -> StorageResult<()>
    where
        P: Send,
        F: Fn(&mut P, Rid, &[u8]) -> StorageResult<()> + Sync,
    {
        self.partitioned(parts, |part, pages, failed| {
            self.scan_pages(pages, |rid, rec| {
                failed.check()?;
                visit(part, rid, rec)
            })
        })
    }

    /// The one page partitioner behind [`Self::scan_parallel`] and
    /// [`Self::scan_batches_parallel`]: partition `w` of `parts` covers the
    /// `w`-th of `parts.len()` contiguous page ranges, so concatenating the
    /// partitions in order gives serial heap order. A single partition
    /// runs `scan` inline on the caller. Otherwise each non-empty range
    /// runs on its own scoped worker under a `storage.scan.partition` span
    /// parented on the caller's span, and a worker panic re-raises on the
    /// caller. The first failure stops every other partition at its next
    /// record or page, and is the error returned.
    fn partitioned<P, S>(&self, parts: &mut [P], scan: S) -> StorageResult<()>
    where
        P: Send,
        S: Fn(&mut P, std::ops::Range<u32>, &FirstFailure) -> StorageResult<()> + Sync,
    {
        let pages = self.page_count();
        let failed = FirstFailure::default();
        if let [only] = parts {
            return scan(only, 0..pages, &failed);
        }
        let chunk = pages.div_ceil(parts.len().max(1) as u32);
        let scan_ctx = wh_obs::trace::current();
        let (scan, failed_ref) = (&scan, &failed);
        std::thread::scope(|s| {
            for (w, part) in parts.iter_mut().enumerate() {
                let start = (w as u32).saturating_mul(chunk).min(pages);
                let end = start.saturating_add(chunk).min(pages);
                if start < end {
                    s.spawn(move || {
                        let _ts = wh_obs::trace_span_under!("storage.scan.partition", scan_ctx);
                        if let Err(e) = scan(part, start..end, failed_ref) {
                            failed_ref.record(e);
                        }
                    });
                }
            }
        });
        failed.into_result()
    }

    /// Batched scan of the pages in `range`: each page's live records are
    /// copied out in one pass under the read latch, then the `specs`
    /// fields are gathered into column-strided arrays **after the latch is
    /// released**, and `visit` runs over the whole page batch. Compared to
    /// [`Self::scan_pages`] — which holds the latch across every per-tuple
    /// visit on the page — the latch hold shrinks to a dense copy, and the
    /// visitor gets vectorizable columns instead of per-tuple dispatch.
    ///
    /// The batch buffer is reused across pages; `visit` must not retain
    /// references into it.
    pub fn scan_batches<F>(
        &self,
        range: std::ops::Range<u32>,
        specs: &[FieldSpec],
        mut visit: F,
    ) -> StorageResult<()>
    where
        F: FnMut(&RecordBatch) -> StorageResult<()>,
    {
        for spec in specs {
            spec.validate(self.record_len)?;
        }
        // Lazy per-page pinning, as in [`Self::scan_pages`].
        let end = range.end.min(self.pool.page_count());
        let start = range.start.min(end);
        let op = wh_obs::Timer::start();
        let mut page_reads = 0u64;
        let mut tuple_reads = 0u64;
        let mut batch = RecordBatch::default();
        let mut result = Ok(());
        for page_no in start..end {
            let page = match self.pool.fetch(page_no) {
                Ok(page) => page,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            {
                let guard = read_latch_timed(&page);
                guard.fill_batch(page_no, &mut batch);
            } // latch released: gather + visit run over the copied bytes
            drop(page); // unpin before the visitor runs
            page_reads += 1;
            tuple_reads += batch.len() as u64;
            batch.gather(specs);
            if let Err(e) = visit(&batch) {
                result = Err(e);
                break;
            }
        }
        self.stats.count_page_reads(page_reads);
        self.stats.count_tuple_reads(tuple_reads);
        wh_obs::histogram!("storage.heap.scan_partition_ns").record(op.elapsed_ns());
        result
    }

    /// [`Self::scan_batches`] over every page, split into one contiguous
    /// page range per element of `parts`: each partition reuses one batch
    /// and `visit(part, batch)` gets that partition's own state.
    /// Partitioning and errors are [`Self::partitioned`]'s.
    pub fn scan_batches_parallel<P, F>(
        &self,
        specs: &[FieldSpec],
        parts: &mut [P],
        visit: F,
    ) -> StorageResult<()>
    where
        P: Send,
        F: Fn(&mut P, &RecordBatch) -> StorageResult<()> + Sync,
    {
        self.partitioned(parts, |part, pages, failed| {
            self.scan_batches(pages, specs, |batch| {
                failed.check()?;
                visit(part, batch)
            })
        })
    }

    /// Collect all live `(rid, record)` pairs. Convenience over [`Self::scan`].
    pub fn scan_all(&self) -> StorageResult<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan(|rid, rec| {
            out.push((rid, rec.to_vec()));
            Ok(())
        })?;
        Ok(out)
    }
}

/// The first failure of a partitioned scan, shared by its partitions.
#[derive(Default)]
struct FirstFailure(std::sync::OnceLock<StorageError>);

impl FirstFailure {
    /// `ScanAborted` once any partition has failed.
    fn check(&self) -> StorageResult<()> {
        match self.0.get() {
            Some(_) => Err(StorageError::ScanAborted),
            None => Ok(()),
        }
    }

    /// Keep `e` unless an earlier failure is already kept.
    fn record(&self, e: StorageError) {
        let _ = self.0.set(e);
    }

    fn into_result(self) -> StorageResult<()> {
        self.0.into_inner().map_or(Ok(()), Err)
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("record_len", &self.record_len)
            .field("pages", &self.page_count())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(record_len: usize) -> HeapFile {
        HeapFile::new(record_len, Arc::new(IoStats::new())).unwrap()
    }

    #[test]
    fn insert_read_delete() {
        let h = file(4);
        let rid = h.insert(&[1, 2, 3, 4]).unwrap();
        assert_eq!(h.read(rid).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(h.len(), 1);
        h.delete(rid).unwrap();
        assert!(h.read(rid).is_err());
        assert!(h.is_empty());
    }

    #[test]
    fn grows_across_pages() {
        let h = file(2048); // 2 records per page
        let rids: Vec<_> = (0..5)
            .map(|i| h.insert(&[i as u8; 2048]).unwrap())
            .collect();
        assert_eq!(h.page_count(), 3);
        assert_eq!(h.len(), 5);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.read(*rid).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn freed_slots_are_reused() {
        let h = file(2048);
        let a = h.insert(&[1u8; 2048]).unwrap();
        let _b = h.insert(&[2u8; 2048]).unwrap();
        h.delete(a).unwrap();
        let c = h.insert(&[3u8; 2048]).unwrap();
        assert_eq!(c, a);
        assert_eq!(h.page_count(), 1);
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let h = file(4);
        let rid = h.insert(&[1, 1, 1, 1]).unwrap();
        h.update_in_place(rid, &[2, 2, 2, 2]).unwrap();
        assert_eq!(h.read(rid).unwrap(), vec![2, 2, 2, 2]);
        assert!(h.update_in_place(rid, &[1]).is_err());
    }

    #[test]
    fn modify_read_modify_write() {
        let h = file(4);
        let rid = h.insert(&[10, 0, 0, 0]).unwrap();
        h.modify(rid, |cur| {
            let mut next = cur.to_vec();
            next[0] += 1;
            Ok(next)
        })
        .unwrap();
        assert_eq!(h.read(rid).unwrap()[0], 11);
    }

    #[test]
    fn scan_visits_everything_once() {
        let h = file(4);
        for i in 0..100u8 {
            h.insert(&[i, 0, 0, 0]).unwrap();
        }
        let mut seen = Vec::new();
        h.scan(|_, rec| {
            seen.push(rec[0]);
            Ok(())
        })
        .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn scan_pages_partitions_cover_exactly_once() {
        let h = file(512); // 8 records per page
        for i in 0..100u8 {
            h.insert(&[i; 512]).unwrap();
        }
        let pages = h.page_count();
        // Any split point yields the same multiset as a full scan.
        for split in [0, 1, pages / 2, pages] {
            let mut seen = Vec::new();
            for range in [0..split, split..pages] {
                h.scan_pages(range, |_, rec| {
                    seen.push(rec[0]);
                    Ok(())
                })
                .unwrap();
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>());
        }
        // Out-of-bounds ranges clamp instead of erroring.
        h.scan_pages(pages..pages + 10, |_, _| panic!("no pages there"))
            .unwrap();
    }

    #[test]
    fn scan_parallel_matches_serial_scan() {
        let h = file(256);
        for i in 0..500u16 {
            let mut rec = [0u8; 256];
            rec[..2].copy_from_slice(&i.to_le_bytes());
            h.insert(&rec).unwrap();
        }
        let mut serial = Vec::new();
        h.scan(|rid, rec| {
            serial.push((rid, rec[0], rec[1]));
            Ok(())
        })
        .unwrap();
        // Partitions are contiguous page ranges in worker order, so their
        // concatenation is serial heap order.
        for threads in [1, 2, 4, 8, 64] {
            let mut parts = vec![Vec::new(); threads];
            h.scan_parallel(&mut parts, |part, rid, rec| {
                part.push((rid, rec[0], rec[1]));
                Ok(())
            })
            .unwrap();
            assert_eq!(parts.concat(), serial, "threads={threads}");
        }
    }

    #[test]
    fn scan_parallel_propagates_errors() {
        let h = file(512);
        for i in 0..64u8 {
            h.insert(&[i; 512]).unwrap();
        }
        let err = h
            .scan_parallel(&mut [(); 4], |(), _, rec| {
                if rec[0] == 40 {
                    Err(StorageError::NoSuchPage(999))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::NoSuchPage(999)));
    }

    #[test]
    fn scan_io_counters_batch_per_partition() {
        // The batched counters must equal what per-tuple counting reported.
        let stats = Arc::new(IoStats::new());
        let h = HeapFile::new(512, stats.clone()).unwrap();
        for i in 0..100u8 {
            h.insert(&[i; 512]).unwrap();
        }
        let before = stats.snapshot();
        h.scan(|_, _| Ok(())).unwrap();
        let after_serial = stats.snapshot();
        assert_eq!(
            after_serial.page_reads - before.page_reads,
            h.page_count() as u64
        );
        assert_eq!(after_serial.tuple_reads - before.tuple_reads, 100);
        h.scan_parallel(&mut [(); 4], |(), _, _| Ok(())).unwrap();
        let after_parallel = stats.snapshot();
        assert_eq!(
            after_parallel.page_reads - after_serial.page_reads,
            h.page_count() as u64
        );
        assert_eq!(after_parallel.tuple_reads - after_serial.tuple_reads, 100);
    }

    #[test]
    fn retire_defers_slot_reuse_until_release() {
        let h = file(2048);
        let a = h.insert(&[1u8; 2048]).unwrap();
        let b = h.insert(&[2u8; 2048]).unwrap();
        let mut hooked = false;
        assert!(h
            .retire_if_then(a, |rec| rec[0] == 1, || hooked = true)
            .unwrap());
        assert!(hooked, "then-hook runs on retire");
        assert_eq!(h.len(), 1, "retired records are not live");
        assert!(h.read(a).is_err(), "retired rid reads as gone");
        assert_eq!(h.read(b).unwrap()[0], 2, "neighbours untouched");
        // The retired slot is not reusable: the next insert allocates page 1.
        let c = h.insert(&[3u8; 2048]).unwrap();
        assert_ne!(c.page, a.page);
        h.release(a).unwrap();
        let d = h.insert(&[4u8; 2048]).unwrap();
        assert_eq!(d, a, "released slot is reused");
    }

    #[test]
    fn retire_if_then_respects_predicate() {
        let h = file(4);
        let rid = h.insert(&[7, 0, 0, 0]).unwrap();
        assert!(!h.retire_if_then(rid, |rec| rec[0] == 9, || ()).unwrap());
        assert_eq!(h.read(rid).unwrap()[0], 7, "rejected retire is a no-op");
    }

    fn first_byte_spec() -> FieldSpec {
        // Test records have no null bitmap; treat byte 0 as both the field
        // and a never-set null byte by masking nothing.
        FieldSpec {
            offset: 0,
            width: 1,
            null_byte: 0,
            null_mask: 0,
        }
    }

    #[test]
    fn scan_batches_matches_scan() {
        let h = file(512); // 8 records per page
        for i in 0..100u8 {
            h.insert(&[i; 512]).unwrap();
        }
        // Punch some holes so batches are non-dense.
        for page in [0u32, 3] {
            h.delete(Rid::new(page, 2)).unwrap();
        }
        let mut serial = Vec::new();
        h.scan(|rid, rec| {
            serial.push((rid, rec[0]));
            Ok(())
        })
        .unwrap();
        let mut batched = Vec::new();
        h.scan_batches(0..h.page_count(), &[first_byte_spec()], |batch| {
            for (i, &slot) in batch.slots().iter().enumerate() {
                batched.push((Rid::new(batch.page_no(), slot), batch.record(i)[0]));
                assert_eq!(batch.field(0)[i], i64::from(batch.record(i)[0]));
            }
            Ok(())
        })
        .unwrap();
        serial.sort();
        batched.sort();
        assert_eq!(batched, serial);
    }

    #[test]
    fn scan_batches_parallel_matches_serial() {
        let h = file(256);
        for i in 0..500u16 {
            let mut rec = [0u8; 256];
            rec[..2].copy_from_slice(&i.to_le_bytes());
            h.insert(&rec).unwrap();
        }
        let mut serial = Vec::new();
        h.scan_batches(0..h.page_count(), &[], |batch| {
            for (i, &slot) in batch.slots().iter().enumerate() {
                serial.push((Rid::new(batch.page_no(), slot), batch.record(i).to_vec()));
            }
            Ok(())
        })
        .unwrap();
        for threads in [1, 2, 4, 8] {
            let mut parts = vec![Vec::new(); threads];
            h.scan_batches_parallel(&[], &mut parts, |part, batch| {
                for (i, &slot) in batch.slots().iter().enumerate() {
                    part.push((Rid::new(batch.page_no(), slot), batch.record(i).to_vec()));
                }
                Ok(())
            })
            .unwrap();
            assert_eq!(parts.concat(), serial, "threads={threads}");
        }
    }

    #[test]
    fn scan_batches_rejects_bad_specs() {
        let h = file(8);
        let bad = FieldSpec {
            offset: 6,
            width: 4,
            null_byte: 0,
            null_mask: 0,
        };
        assert!(h.scan_batches(0..1, &[bad], |_| Ok(())).is_err());
    }

    #[test]
    fn io_counters_track_operations() {
        let stats = Arc::new(IoStats::new());
        let h = HeapFile::new(4, stats.clone()).unwrap();
        let rid = h.insert(&[0u8; 4]).unwrap();
        let after_insert = stats.snapshot();
        assert_eq!(after_insert.page_writes, 1);
        assert_eq!(after_insert.tuple_writes, 1);
        h.read(rid).unwrap();
        let after_read = stats.snapshot();
        assert_eq!(after_read.tuple_reads, 1);
        assert!(after_read.page_reads > after_insert.page_reads);
    }

    #[test]
    fn concurrent_inserts_and_scans() {
        let h = Arc::new(file(16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..250u16 {
                        let mut rec = [0u8; 16];
                        rec[0] = t as u8;
                        rec[1..3].copy_from_slice(&i.to_le_bytes());
                        h.insert(&rec).unwrap();
                    }
                });
            }
            let h2 = Arc::clone(&h);
            s.spawn(move || {
                for _ in 0..10 {
                    let mut n = 0u32;
                    h2.scan(|_, _| {
                        n += 1;
                        Ok(())
                    })
                    .unwrap();
                    assert!(n <= 1000);
                }
            });
        });
        assert_eq!(h.len(), 1000);
    }
}
