//! **2VNL / nVNL** — the contribution of *On-Line Warehouse View Maintenance*
//! (Quass & Widom, SIGMOD 1997), implemented in full.
//!
//! A data warehouse has one writer — the batch **maintenance transaction** —
//! and many long-running read-only **reader sessions**. 2VNL exploits that
//! asymmetry: each tuple physically carries *two* logical versions (current
//! and pre-update), stamped with the version number (`tupleVN`) and logical
//! operation of the maintenance transaction that last touched it. Readers
//! pick the right version arithmetically — no locks, no blocking, full
//! serializability — and the whole scheme layers on a conventional DBMS via
//! query rewrite. nVNL generalizes to `n` versions so a session can survive
//! `n − 1` overlapping maintenance transactions.
//!
//! Crate map (paper section in parentheses):
//!
//! * [`schema_ext`] — extending a relation schema with version columns
//!   (§3.1, Figure 3) and the storage-overhead model.
//! * [`version`] — the global `currentVN` / `maintenanceActive` state, both
//!   latched in memory and mirrored in the single-tuple `Version` relation
//!   (§3, §4).
//! * [`visibility`] — Table 1 and its §5 generalization: which stored
//!   version a session sees.
//! * [`scan`] — the byte-level scan pipeline: Table 1 evaluated directly on
//!   encoded records with projection pushdown, feeding serial and parallel
//!   partitioned scans.
//! * [`table`] — [`VnlTable`], the versioned relation; sessions and
//!   maintenance transactions hang off it.
//! * [`maintenance`] — Tables 2–4 decision procedures, net effects, the
//!   commit protocol, and log-free rollback (§3.3, §4.2, §7).
//! * [`reader`] — reader sessions, both expiration detectors (§3.2, §4.1).
//! * [`rewrite`] — the query-rewrite implementation (§4, Example 4.1),
//!   generalized to nVNL.
//! * [`gc`] — garbage collection of logically-deleted tuples (§7).
//! * [`recovery`] — log-free crash recovery: reconstructing a consistent
//!   pre-transaction state from the tuple version slots alone (§7).
//! * [`durable`] — the disk tier: fuzzy checkpoints over a steal/no-force
//!   buffer pool and restart recovery from checkpoint + version slots —
//!   no write-ahead log (§7 taken to its durability conclusion).
//! * [`resilience`] — graceful degradation under reader/maintenance
//!   contention: session leases, expiration-aware retry, maintenance
//!   pacing, and the adaptive effective-`n` controller.
//! * [`adapter`] — a `wh_cc::ConcurrencyScheme` implementation so 2VNL runs
//!   head-to-head against S2PL/2V2PL/MV2PL in the §6 experiments.

pub mod adapter;
#[cfg(feature = "failpoints")]
pub mod crashmatrix;
pub mod delta;
pub mod durable;
pub(crate) mod epoch;
pub mod error;
pub mod gc;
pub mod maintenance;
pub mod reader;
pub mod recovery;
pub mod resilience;
pub mod rewrite;
pub mod scan;
pub mod schema_ext;
pub mod table;
pub mod version;
pub mod visibility;
pub mod warehouse;

pub use adapter::VnlStore;
pub use delta::{DeltaBatch, DeltaRow};
pub use durable::{checkpoint, create_durable, recover_from_disk, DiskRecoveryReport};
pub use error::{VnlError, VnlResult};
pub use maintenance::{MaintenanceTxn, PhysicalAction};
pub use reader::{ReadOutcome, ReaderSession};
pub use recovery::{recover, RecoveryReport};
pub use resilience::{
    AdaptiveN, LeaseId, LeaseInfo, LeaseRegistry, MaintenancePacer, PaceReport, PacerPolicy,
    RepairEngine, Repaired, RetryPolicy, RetryStats,
};
pub use rewrite::QueryRewriter;
pub use scan::{BatchClasses, BatchScanner, Classified, ColumnFilter, FilterOp, StrPool};
pub use schema_ext::{ExtLayout, StorageOverhead};
pub use table::VnlTable;
pub use version::{Operation, VersionNo, VersionState};
pub use visibility::Visible;
pub use warehouse::{Warehouse, WarehouseBuilder, WarehouseSession, WarehouseTxn};

/// Failpoints compiled into this crate under `--features failpoints`
/// (disarmed and zero-cost otherwise). Names are stable: the crash-matrix
/// driver enumerates this catalog.
pub const FAILPOINTS: &[&str] = &[
    "vnl.txn.insert.fresh",
    "vnl.txn.insert.register",
    "vnl.txn.insert.resurrect",
    "vnl.txn.update.save_pre",
    "vnl.txn.update.in_place",
    "vnl.txn.delete.mark",
    "vnl.txn.delete.remove_own",
    "vnl.txn.delete.mark_own_update",
    "vnl.txn.rollback.step",
    "vnl.version.begin",
    "vnl.version.publish_commit",
    "vnl.version.publish_abort",
    "vnl.gc.reclaim",
    "vnl.gc.unregister",
    "vnl.delta.capture",
    "vnl.delta.evict",
    "vnl.repair.apply",
];

/// §5's never-expire guarantee: with `n` versions, a minimum
/// inter-maintenance gap `i`, and minimum maintenance duration `m` (any time
/// unit), sessions no longer than `(n − 1)·(i + m) − m` are guaranteed never
/// to expire. Experiment E9 validates this against simulation.
pub fn guaranteed_session_length(n: u64, gap: u64, maintenance: u64) -> u64 {
    assert!(n >= 2, "nVNL requires n >= 2");
    (n - 1) * (gap + maintenance) - maintenance
}

/// Tune `n` for a workload (§5: "n can be tuned for the expected pattern of
/// reader sessions and maintenance transactions"): the smallest `n ≥ 2`
/// whose guarantee covers `max_session` given gap `i` and maintenance
/// duration `m`. Returns `None` when no finite `n` helps (`i + m = 0`).
pub fn choose_n(max_session: u64, gap: u64, maintenance: u64) -> Option<u64> {
    if gap + maintenance == 0 {
        return None;
    }
    // (n-1)(i+m) - m >= s  <=>  n >= (s + m)/(i + m) + 1
    let n = (max_session + maintenance).div_ceil(gap + maintenance) + 1;
    Some(n.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_matches_paper_special_cases() {
        // §5: "2VNL guarantees that reader sessions lasting up to i never
        // expire. 3VNL ... up to 2i + m."
        let (i, m) = (10, 7);
        assert_eq!(guaranteed_session_length(2, i, m), i);
        assert_eq!(guaranteed_session_length(3, i, m), 2 * i + m);
        assert_eq!(guaranteed_session_length(4, i, m), 3 * i + 2 * m);
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn formula_rejects_n_below_two() {
        guaranteed_session_length(1, 1, 1);
    }

    #[test]
    fn choose_n_is_tight() {
        for (s, i, m) in [
            (10u64, 10u64, 7u64),
            (100, 10, 7),
            (1, 60, 1380),
            (5000, 60, 1380),
        ] {
            let n = choose_n(s, i, m).unwrap();
            assert!(
                guaranteed_session_length(n, i, m) >= s,
                "n={n} too small for s={s} i={i} m={m}"
            );
            if n > 2 {
                assert!(
                    guaranteed_session_length(n - 1, i, m) < s,
                    "n={n} not minimal for s={s} i={i} m={m}"
                );
            }
        }
    }

    #[test]
    fn choose_n_edge_cases() {
        assert_eq!(choose_n(5, 0, 0), None);
        // Sessions shorter than the gap need only 2VNL.
        assert_eq!(choose_n(9, 10, 1440), Some(2));
        // Degenerate zero-length sessions still need two versions.
        assert_eq!(choose_n(0, 10, 10), Some(2));
    }
}
