//! The process-global metric registry.
//!
//! Metrics are registered on first use by name and live for the process
//! lifetime (`Box::leak`), so call sites hold `&'static` handles and the
//! hot path never touches the registry lock — the [`crate::counter!`]
//! family of macros caches the handle in a per-site `OnceLock`. The
//! registry lock is taken only on first registration and on snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metric::{Counter, Gauge};

/// The global registry: three name→metric maps.
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    /// Declared sampling rate for histograms fed 1-in-N (absent = exact).
    sample_rates: Mutex<BTreeMap<&'static str, u64>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-global registry instance.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        sample_rates: Mutex::new(BTreeMap::new()),
    })
}

fn intern(name: &str) -> &'static str {
    Box::leak(name.to_string().into_boxed_str())
}

/// Get or register the counter called `name`.
pub fn counter(name: &str) -> &'static Counter {
    let mut map = lock(&global().counters);
    if let Some(c) = map.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    map.insert(intern(name), c);
    c
}

/// Get or register the gauge called `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut map = lock(&global().gauges);
    if let Some(g) = map.get(name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
    map.insert(intern(name), g);
    g
}

/// Get or register the histogram called `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut map = lock(&global().histograms);
    if let Some(h) = map.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    map.insert(intern(name), h);
    h
}

/// Get or register the histogram called `name`, declaring that its call
/// sites record only one in `rate` observations. The rate travels with
/// every [`Snapshot`] so the encoders can rescale counts instead of
/// letting Prometheus rates read `rate`× low against the exact companion
/// counters.
pub fn sampled_histogram(name: &str, rate: u64) -> &'static Histogram {
    let h = histogram(name);
    if rate > 1 {
        lock(&global().sample_rates).insert(intern(name), rate);
    }
    h
}

impl Registry {
    /// Freeze every registered metric into an immutable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        static SNAPSHOT_SEQ: AtomicU64 = AtomicU64::new(0);
        Snapshot {
            seq: SNAPSHOT_SEQ.fetch_add(1, Ordering::Relaxed), // ordering: stat-counter Relaxed — independent event counter; read only for reporting
            counters: lock(&self.counters)
                .iter()
                .map(|(&k, v)| (k, v.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(&k, v)| (k, (v.get(), v.high_water())))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(&k, v)| (k, v.snapshot()))
                .collect(),
            sample_rates: lock(&self.sample_rates)
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect(),
        }
    }

    /// Zero every registered metric. Intended for report bins that measure
    /// phases in isolation; concurrent tests should prefer
    /// [`Snapshot::since`] deltas.
    pub fn reset(&self) {
        for c in lock(&self.counters).values() {
            c.reset();
        }
        for g in lock(&self.gauges).values() {
            g.reset();
        }
        for h in lock(&self.histograms).values() {
            h.reset();
        }
    }
}

/// An immutable, point-in-time copy of the registry.
///
/// Keys are the registered metric names (`layer.object.metric`). Supports
/// interval arithmetic via [`Snapshot::since`] and encodes itself as JSON
/// ([`Snapshot::to_json`]) or Prometheus text ([`Snapshot::to_prometheus`]).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotone per-process snapshot number.
    pub seq: u64,
    pub counters: BTreeMap<&'static str, u64>,
    /// name → (current value, high-water mark).
    pub gauges: BTreeMap<&'static str, (i64, i64)>,
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
    /// Declared 1-in-N sampling rate per histogram name (absent = exact).
    pub sample_rates: BTreeMap<&'static str, u64>,
}

impl Snapshot {
    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge current value by name (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).map_or(0, |&(v, _)| v)
    }

    /// Gauge high-water mark by name (0 if absent).
    pub fn gauge_high_water(&self, name: &str) -> i64 {
        self.gauges.get(name).map_or(0, |&(_, hw)| hw)
    }

    /// Histogram snapshot by name (empty if absent).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms
            .get(name)
            .copied()
            .unwrap_or_else(HistogramSnapshot::empty)
    }

    /// Activity since `older` was taken: counters and histogram buckets
    /// subtract saturating (mirroring `IoSnapshot::since`); gauges are
    /// instantaneous so the newer value is kept as-is.
    pub fn since(&self, older: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(&k, &v)| (k, v.saturating_sub(older.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(&k, v)| (k, v.since(&older.histogram(k))))
            .collect();
        Snapshot {
            seq: self.seq,
            counters,
            gauges: self.gauges.clone(),
            histograms,
            sample_rates: self.sample_rates.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let a = counter("obs.test.registry_idem");
        let b = counter("obs.test.registry_idem");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn snapshot_reports_registered_metrics() {
        counter("obs.test.snap_counter").add(7);
        gauge("obs.test.snap_gauge").set(-3);
        histogram("obs.test.snap_hist").record(100);
        let snap = global().snapshot();
        if crate::is_enabled() {
            assert!(snap.counter("obs.test.snap_counter") >= 7);
            assert_eq!(snap.gauge("obs.test.snap_gauge"), -3);
            assert!(snap.histogram("obs.test.snap_hist").count() >= 1);
        } else {
            assert_eq!(snap.counter("obs.test.snap_counter"), 0);
        }
    }
}
