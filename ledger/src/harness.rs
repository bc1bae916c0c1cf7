//! What every workload shares: the command line, the two-thread load
//! generator (closed-loop reader, open-loop maintenance), the samples it
//! collects and the result line.

use crate::stats::{self, beyond, median, percentile};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WarehouseDay,
    PointChurn,
    DurableSpill,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WarehouseDay, Kind::PointChurn, Kind::DurableSpill];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarehouseDay => "warehouse-day",
            Kind::PointChurn => "point-churn",
            Kind::DurableSpill => "durable-spill",
        }
    }

    /// Why the workload exists: which layers it stresses and which it
    /// leaves alone.
    pub fn why(self) -> &'static str {
        match self {
            Kind::WarehouseDay => {
                "DailySales summary view, rolling window, 2VNL: reader scan, classify, decode and SQL dominate; maintenance is a minority share"
            }
            Kind::PointChurn => {
                "200k-key table under small skewed batches: maintenance cost follows the table; readers bypass SQL through key and range lookups"
            }
            Kind::DurableSpill => {
                "warehouse-day mix on the disk tier with a pool of a quarter of the heap: eviction, disk reads, checkpoint flush, log-free restart"
            }
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// A tiny configuration for the smoke test.
    pub tiny: bool,
    /// Where the traced run writes its span dump and durable tables
    /// their files (inside the working directory).
    pub work_dir: PathBuf,
}

impl Config {
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut kind = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut tiny = false;
        let mut work_dir = PathBuf::from(".ledger_out");
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--tiny" => tiny = true,
                "--work-dir" => work_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Config {
            kind: kind.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            tiny,
            work_dir,
        })
    }

    /// Warm-up before the measured window: caches fill, allocators settle.
    pub fn warmup(&self) -> Duration {
        if self.tiny {
            Duration::from_millis(100)
        } else {
            Duration::from_secs(2)
        }
    }

    /// Repetitions of set-up (the median is reported).
    pub fn setup_reps(&self) -> usize {
        if self.tiny {
            1
        } else {
            5
        }
    }

    /// Repetitions of crash and restart (the median is reported).
    pub fn restart_reps(&self) -> usize {
        if self.tiny {
            3
        } else {
            11
        }
    }
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line and what led to it.
#[derive(Debug, Default)]
pub struct Report {
    /// Wrong answers found by the oracle (each described).
    pub wrong: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample-size shortfalls: tail percentiles with fewer than ten
    /// samples beyond them.
    pub short: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a tail percentile, noting a shortfall when fewer than ten
    /// samples lie beyond it.
    pub fn push_tail(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) {
        let n = beyond(samples, p);
        if n < 10 {
            self.short.push(format!(
                "{name}: {n} of {} samples beyond p{p}",
                samples.len()
            ));
        }
        self.push(name, percentile(samples, p), unit);
    }

    /// The last line of standard output.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The measured window of a run.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When load starts (warm-up begins).
    pub start: Instant,
    /// Samples that start before this are warm-up.
    pub measure_from: Instant,
    /// No session or batch starts after this.
    pub end: Instant,
}

impl Window {
    pub fn new(warmup: Duration, seconds: f64) -> Window {
        let start = Instant::now();
        let measure_from = start + warmup;
        Window {
            start,
            measure_from,
            end: measure_from + Duration::from_secs_f64(seconds),
        }
    }
}

/// One analyst session (or one lookup session on point-churn), from its
/// first `begin_session` to a verified result.
#[derive(Debug, Clone, Copy)]
pub struct SessionSample {
    pub start: Instant,
    pub end: Instant,
    /// Retried operations the session ran: the whole session on the
    /// warehouse workloads, each lookup on point-churn.
    pub ops: u32,
    /// Attempts those operations took, restarts included.
    pub attempts: u32,
    pub expirations: u32,
    pub repaired: u32,
    pub wasted_rows: u64,
    /// Spans were recorded for it (the traced run alternates).
    pub traced: bool,
    /// Retries ran out or an error ended it.
    pub failed: bool,
}

/// One maintenance batch of the open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct BatchSample {
    /// When the schedule said it should start.
    pub due: Instant,
    pub start: Instant,
    /// When `commit` returned: freshness ends here.
    pub committed: Instant,
    /// Logical changes the view maintainer applied.
    pub deltas: u64,
    pub gc_scanned: u64,
    pub gc_reclaimed: u64,
    pub pages_flushed: u64,
}

impl SessionSample {
    /// Fold one retried call's statistics into the session's.
    pub fn add(&mut self, st: &wh_vnl::RetryStats) {
        self.ops += 1;
        self.attempts += st.attempts;
        self.expirations += st.expirations;
        self.repaired += st.repaired;
        self.wasted_rows += st.wasted_rows;
    }
}

impl BatchSample {
    pub fn freshness_ms(&self) -> f64 {
        ms(self.committed - self.due)
    }

    pub fn lag_ms(&self) -> f64 {
        ms(self.start.saturating_duration_since(self.due))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run the load: `reader(i)` runs session `i` back to back (closed loop)
/// on a scoped thread until the window ends, while this thread runs
/// `maint(i, due)` for batch `i` at `start + i·period` (open loop: a late
/// batch starts at once, and its freshness counts from when it was due).
/// Stops early when `batches` run out or a batch fails.
pub fn drive<R, M>(
    window: &Window,
    period: Duration,
    batches: usize,
    mut reader: R,
    mut maint: M,
) -> Result<(), String>
where
    R: FnMut(usize) + Send,
    M: FnMut(usize, Instant) -> Result<(), String>,
{
    std::thread::scope(|scope| {
        let end = window.end;
        let handle = scope.spawn(move || {
            let mut i = 0;
            while Instant::now() < end {
                reader(i);
                i += 1;
            }
        });
        let mut result = Ok(());
        for i in 0..batches {
            let due = window.start + period * i as u32;
            if due >= end {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if let Err(e) = maint(i, due) {
                result = Err(format!("batch {i}: {e}"));
                break;
            }
        }
        if handle.join().is_err() {
            result = Err("reader thread panicked".into());
        }
        result
    })
}

/// End-to-end metrics every workload shares, computed from the samples of
/// the measured window.
pub struct Shared<'a> {
    pub window: &'a Window,
    pub setup_s: &'a [f64],
    pub sessions: &'a [SessionSample],
    /// Lookup latencies (ns) of the measured sessions.
    pub lookups_ns: &'a [f64],
    pub batches: &'a [BatchSample],
    pub restart_ms: &'a [f64],
    pub bytes_per_row: f64,
}

impl Shared<'_> {
    pub fn measured_sessions(&self) -> impl Iterator<Item = &SessionSample> {
        let from = self.window.measure_from;
        self.sessions.iter().filter(move |s| s.start >= from)
    }

    pub fn measured_batches(&self) -> impl Iterator<Item = &BatchSample> {
        let from = self.window.measure_from;
        self.batches.iter().filter(move |b| b.due >= from)
    }

    /// Seconds from the window's start to the last measured session's end.
    pub fn reader_seconds(&self) -> f64 {
        self.measured_sessions()
            .map(|s| s.end)
            .max()
            .map_or(0.0, |end| (end - self.window.measure_from).as_secs_f64())
    }

    /// Push the end-to-end metrics and the attempted/failed counts.
    pub fn report(&self, out: &mut Report) {
        let ok: Vec<f64> = self
            .measured_sessions()
            .filter(|s| !s.failed)
            .map(|s| ms(s.end - s.start))
            .collect();
        let failed_sessions = self.measured_sessions().filter(|s| s.failed).count() as u64;
        let fresh: Vec<f64> = self
            .measured_batches()
            .map(BatchSample::freshness_ms)
            .collect();
        let secs = self.reader_seconds();
        out.attempted += self.measured_sessions().count() as u64
            + self.lookups_ns.len() as u64
            + fresh.len() as u64
            + self.restart_ms.len() as u64;
        out.failed += failed_sessions;
        out.push("setup_s", median(self.setup_s), "s");
        out.push("session_p50_ms", median(&ok), "ms");
        out.push_tail("session_p90_ms", &ok, 90.0, "ms");
        out.push("sessions_per_s", stats::ratio(ok.len() as f64, secs), "1/s");
        let lookups_us: Vec<f64> = self.lookups_ns.iter().map(|ns| ns / 1e3).collect();
        out.push("lookup_p50_us", median(&lookups_us), "us");
        out.push_tail("lookup_p99_us", &lookups_us, 99.0, "us");
        out.push(
            "lookups_per_s",
            stats::ratio(lookups_us.len() as f64, secs),
            "1/s",
        );
        out.push("freshness_p50_ms", median(&fresh), "ms");
        // The mean, not p90: with one batch per schedule slot a run has
        // ~150 batches, too few for a p90 that repeats between runs
        // (measured spread 0.28–0.48 of its median), while the mean still
        // moves with every slow batch.
        out.push("freshness_mean_ms", stats::mean(&fresh), "ms");
        out.push("restart_ms", median(self.restart_ms), "ms");
        out.push("bytes_per_row", self.bytes_per_row, "B");
    }

    /// Per-layer metrics derived from the samples alone.
    pub fn report_layers(&self, out: &mut Report) {
        let measured: Vec<&SessionSample> = self.measured_sessions().collect();
        let completed = measured.iter().filter(|s| !s.failed).count() as f64;
        let ops: u64 = measured.iter().map(|s| u64::from(s.ops)).sum();
        let attempts: u64 = measured.iter().map(|s| u64::from(s.attempts)).sum();
        let expirations: u64 = measured.iter().map(|s| u64::from(s.expirations)).sum();
        let repaired: u64 = measured.iter().map(|s| u64::from(s.repaired)).sum();
        let wasted: u64 = measured.iter().map(|s| s.wasted_rows).sum();
        // Useful attempts are the ones whose result was kept: one per
        // operation, the rest were restarts.
        out.push(
            "vnl.session_useful_ratio",
            stats::ratio(ops as f64, attempts as f64),
            "ratio",
        );
        out.push(
            "vnl.expirations_per_session",
            stats::ratio(expirations as f64, completed),
            "count",
        );
        out.push(
            "vnl.wasted_rows_per_session",
            stats::ratio(wasted as f64, completed),
            "count",
        );
        out.push(
            "vnl.repaired_ratio",
            stats::ratio(repaired as f64, expirations as f64),
            "ratio",
        );
        let batches: Vec<&BatchSample> = self.measured_batches().collect();
        let lags: Vec<f64> = batches.iter().map(|b| b.lag_ms()).collect();
        out.push("maint.schedule_lag_ms", median(&lags), "ms");
        out.push(
            "bench.generator_lag_ms",
            lags.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        out.push(
            "view.deltas_per_batch",
            stats::mean(&batches.iter().map(|b| b.deltas as f64).collect::<Vec<_>>()),
            "count",
        );
        let scanned: u64 = batches.iter().map(|b| b.gc_scanned).sum();
        let reclaimed: u64 = batches.iter().map(|b| b.gc_reclaimed).sum();
        out.push(
            "gc.reclaimed_per_scanned",
            stats::ratio(reclaimed as f64, scanned as f64),
            "ratio",
        );
    }
}

/// Wall-clock seconds of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}
