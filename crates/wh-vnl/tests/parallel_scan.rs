//! The serial and parallel partitioned scans must be *indistinguishable*
//! from the Table 1 spec (`visibility::extract` over the raw heap): same
//! rows at every live sessionVN, same expiration behavior — under random
//! histories and under concurrent maintenance and GC.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use wh_sql::Params;
use wh_types::rng::SplitMix64;
use wh_types::{Column, DataType, Row, Schema, Value};
use wh_vnl::visibility::{extract, Visible};
use wh_vnl::{gc, VersionNo, VnlError, VnlTable};

fn kv_schema() -> Schema {
    Schema::with_key_names(
        vec![
            Column::new("k", DataType::Int32),
            Column::updatable("v", DataType::Int32),
        ],
        &["k"],
    )
    .unwrap()
}

fn kv(k: i64, v: i64) -> Row {
    vec![Value::from(k), Value::from(v)]
}

/// Sort rows into a canonical order so unordered-collection comparisons
/// are well-defined.
fn canon(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// The reference: Table 1 applied tuple by tuple to the raw extended heap.
/// `None` when some tuple proves the session at `vn` expired.
fn reference_scan(t: &VnlTable, vn: VersionNo) -> Option<Vec<Row>> {
    let mut rows = Vec::new();
    for (_, ext) in t.scan_raw().unwrap() {
        match extract(t.layout(), &ext, vn) {
            Visible::Row(r) => rows.push(r),
            Visible::Ignore => {}
            Visible::Expired => return None,
        }
    }
    Some(rows)
}

/// Collect a parallel scan's rows (any interleaving) into one Vec.
fn collect_parallel(s: &wh_vnl::ReaderSession<'_>, threads: usize) -> Result<Vec<Row>, VnlError> {
    let rows = Mutex::new(Vec::new());
    s.scan_parallel(threads, |_, row| {
        rows.lock().unwrap().push(row);
        Ok(())
    })?;
    Ok(rows.into_inner().unwrap())
}

/// Drive `generations` random maintenance transactions over an nVNL table,
/// pinning a session at every version along the way, then check that for
/// every session the serial scan and the parallel scan (at several thread
/// counts) return exactly the reference rows — projected variants and SQL
/// included — or all expire when the reference does.
fn random_history_agrees(seed: u64, n: usize, generations: usize) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let t = VnlTable::create_named("kv", kv_schema(), n).unwrap();
    let keys: i64 = 40;
    t.load_initial(&(0..keys).map(|k| kv(k, 0)).collect::<Vec<_>>())
        .unwrap();

    // Sessions pinned at every generation; prune the ones that expire.
    let mut sessions = vec![t.begin_session()];
    for g in 1..=generations {
        let txn = t.begin_maintenance().unwrap();
        for _ in 0..rng.range_i64(1, 12) {
            let k = rng.range_i64(0, keys);
            let alive = txn.read_current(&kv(k, 0)).unwrap().is_some();
            match (alive, rng.range_i64(0, 3)) {
                (true, 0) => txn.delete_row(&kv(k, 0)).unwrap(),
                (true, _) => txn.update_row(&kv(k, g as i64)).unwrap(),
                (false, _) => txn.insert(kv(k, g as i64)).unwrap(),
            }
        }
        txn.commit().unwrap();
        sessions.push(t.begin_session());
    }

    for s in sessions {
        // `visibility::extract` over the raw heap is the oracle; the scan
        // must agree with it verdict-for-verdict, rows included.
        let Some(expected) = reference_scan(&t, s.session_vn()) else {
            // Expired per the spec must expire everywhere.
            assert!(matches!(s.scan(), Err(VnlError::SessionExpired { .. })));
            assert!(matches!(s.count(), Err(VnlError::SessionExpired { .. })));
            for threads in [2, 4] {
                assert!(matches!(
                    collect_parallel(&s, threads),
                    Err(VnlError::SessionExpired { .. })
                ));
            }
            continue;
        };
        let expected_canon = canon(expected.clone());
        assert_eq!(
            canon(s.scan().unwrap()),
            expected_canon,
            "scan diverged from the reference: seed={seed} n={n} vn={}",
            s.session_vn()
        );
        assert_eq!(
            s.count().unwrap() as usize,
            expected.len(),
            "classify-only count diverged: seed={seed} n={n} vn={}",
            s.session_vn()
        );
        for threads in [1, 2, 4, 7] {
            let parallel = collect_parallel(&s, threads).unwrap();
            assert_eq!(
                canon(parallel),
                expected_canon,
                "seed={seed} n={n} threads={threads} vn={}",
                s.session_vn()
            );
        }
        // Projection pushdown: v-only, and reordered (v, k).
        let mut v_only = Vec::new();
        s.scan_projected_with(&[1], |r| {
            v_only.push(r);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            canon(v_only),
            canon(expected.iter().map(|r| vec![r[1].clone()]).collect())
        );
        let mut reordered = Vec::new();
        s.scan_projected_with(&[1, 0], |r| {
            reordered.push(r);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            canon(reordered),
            canon(
                expected
                    .iter()
                    .map(|r| vec![r[1].clone(), r[0].clone()])
                    .collect()
            )
        );
        // The SQL paths agree too: serial and parallel executor against
        // aggregates of the reference rows.
        let q = "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM kv";
        let vs: Vec<i64> = expected.iter().map(|r| r[1].as_int().unwrap()).collect();
        let or_null = |v: Option<i64>| v.map_or(Value::Null, Value::from);
        let want = vec![vec![
            Value::from(vs.len() as i64),
            or_null((!vs.is_empty()).then(|| vs.iter().sum())),
            or_null(vs.iter().copied().min()),
            or_null(vs.iter().copied().max()),
        ]];
        assert_eq!(
            s.query(q).unwrap().rows,
            want,
            "seed={seed} vn={}",
            s.session_vn()
        );
        assert_eq!(
            s.query_parallel(q, 4).unwrap().rows,
            want,
            "seed={seed} vn={}",
            s.session_vn()
        );
        // WHERE pushdown: both conjuncts run inside the classify kernel
        // (v is updatable, so Pre(j) records test their pre-update image);
        // the reference filters the spec's rows. Row sets must match
        // exactly.
        let filtered = "SELECT k, v FROM kv WHERE v >= 3 AND k < 30";
        let pushed_serial = s.query(filtered).unwrap();
        let pushed_parallel = s.query_parallel(filtered, 4).unwrap();
        let oracle: Vec<Row> = expected
            .iter()
            .filter(|r| r[1].as_int().unwrap() >= 3 && r[0].as_int().unwrap() < 30)
            .cloned()
            .collect();
        assert_eq!(
            canon(pushed_serial.rows),
            canon(oracle.clone()),
            "pushdown diverged: seed={seed} n={n} vn={}",
            s.session_vn()
        );
        assert_eq!(
            canon(pushed_parallel.rows),
            canon(oracle),
            "parallel pushdown diverged: seed={seed} n={n} vn={}",
            s.session_vn()
        );
    }
}

#[test]
fn parallel_scan_equals_serial_on_random_histories_2vnl() {
    for seed in 0..8 {
        random_history_agrees(0xE18_0000 + seed, 2, 12);
    }
}

#[test]
fn parallel_scan_equals_serial_on_random_histories_nvnl() {
    for (seed, n) in [(1u64, 3usize), (2, 4), (3, 3), (4, 4)] {
        random_history_agrees(0xE18_1000 + seed, n, 16);
    }
}

/// Stress: parallel scans run while maintenance transactions and GC churn
/// the heap. Every transaction rewrites all keys to one generation value,
/// so any successful scan must observe a *consistent snapshot*: all rows
/// carry the same generation, and the row count equals the key count.
/// The only acceptable failure is honest expiration.
#[test]
fn parallel_scans_stay_consistent_under_maintenance_and_gc() {
    let t = std::sync::Arc::new(VnlTable::create_named("kv", kv_schema(), 2).unwrap());
    let keys: i64 = 32;
    t.load_initial(&(0..keys).map(|k| kv(k, 0)).collect::<Vec<_>>())
        .unwrap();

    let stop = AtomicBool::new(false);
    let scans_ok = std::sync::atomic::AtomicU64::new(0);
    let expirations = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Writer: each generation updates every key's value to g in one txn.
        let writer = {
            let t = &t;
            let stop = &stop;
            scope.spawn(move || {
                for g in 1..200i64 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let txn = t.begin_maintenance().unwrap();
                    // Mix deletes/reinserts in so GC has real work.
                    if g % 5 == 0 {
                        txn.delete_row(&kv(g % keys, 0)).unwrap();
                        txn.insert(kv(g % keys, g)).unwrap();
                    }
                    txn.execute_sql(&format!("UPDATE kv SET v = {g}"), &Params::new())
                        .unwrap();
                    txn.commit().unwrap();
                }
            })
        };
        // GC daemon sweeps aggressively the whole time.
        let collector = {
            let t = &t;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    gc::collect(t).unwrap();
                    std::thread::yield_now();
                }
            })
        };
        // Readers: short sessions running 4-way parallel scans.
        for _ in 0..2 {
            let t = &t;
            let stop = &stop;
            let scans_ok = &scans_ok;
            let expirations = &expirations;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let s = t.begin_session();
                    let rows = Mutex::new(Vec::new());
                    match s.scan_parallel(4, |_, row| {
                        rows.lock().unwrap().push(row);
                        Ok(())
                    }) {
                        Ok(()) => {
                            let rows = rows.into_inner().unwrap();
                            // Table 1 invariants: a consistent snapshot.
                            assert_eq!(rows.len() as i64, keys, "snapshot lost rows");
                            let gens: BTreeSet<String> =
                                rows.iter().map(|r| format!("{:?}", r[1])).collect();
                            let ks: BTreeSet<String> =
                                rows.iter().map(|r| format!("{:?}", r[0])).collect();
                            assert_eq!(ks.len() as i64, keys, "duplicate keys in snapshot");
                            // Every committed generation writes ALL keys to
                            // one value, so a Table-1-consistent snapshot is
                            // single-generation.
                            assert_eq!(gens.len(), 1, "snapshot mixes generations: {gens:?}");
                            scans_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(VnlError::SessionExpired { .. }) => {
                            expirations.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("scan failed: {e}"),
                    }
                    s.finish();
                }
            });
        }
        writer.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        collector.join().unwrap();
    });

    assert!(
        scans_ok.load(Ordering::Relaxed) > 0,
        "stress produced no successful scans (expirations: {})",
        expirations.load(Ordering::Relaxed)
    );
}
