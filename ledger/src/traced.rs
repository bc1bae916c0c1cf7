//! What the traced run reports from its spans: per-layer medians, self
//! times, the span dump, the coverage check and the tracer's overhead.

use crate::harness::{ms, Config, Report, SessionSample, Shared};
use crate::probe;
use crate::stats::{mean, median};
use crate::trace::Trace;
use wh_obs::Snapshot;

/// Share of a root span's wall time its children may leave uncovered.
pub const TOLERANCE: f64 = 0.05;
/// Share of roots that must individually be within [`TOLERANCE`]: a root
/// whose thread was descheduled between two child calls falls outside it.
pub const ROOTS_WITHIN: f64 = 0.98;

/// The traced run's result: the per-layer metrics from the quiescent
/// `probes`, the samples, the engine's registry over the load (`registry`,
/// `load_s` long) and the spans, with `e2e`'s correctness and counts.
#[allow(clippy::too_many_arguments)]
pub fn report(
    cfg: &Config,
    shared: &Shared<'_>,
    e2e: Report,
    probes: Report,
    registry: &Snapshot,
    load_s: f64,
    trace: &Trace,
    recovery_rows_scanned: f64,
) -> Result<Report, String> {
    let mut out = Report {
        wrong: e2e.wrong,
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics: probes.metrics,
        short: Vec::new(),
    };
    shared.report_layers(&mut out);
    probe::registry_layers(registry, load_s, &mut out);
    for (span, metric, unit) in [
        ("vnl.read_by_key", "vnl.read_by_key_us", "us"),
        ("vnl.lookup_range", "vnl.lookup_range_us", "us"),
        ("view.propagate", "view.propagate_ms", "ms"),
        ("maint.retire", "maint.retire_ms", "ms"),
        ("maint.commit", "maint.commit_ms", "ms"),
        ("gc.collect", "gc.pass_ms", "ms"),
    ] {
        span_median(trace, span, metric, unit, &mut out);
    }
    // On the disk tier checkpoints run in the load; in memory a probe
    // has already measured one.
    if !trace.durations("durable.checkpoint").is_empty() {
        span_median(
            trace,
            "durable.checkpoint",
            "durable.checkpoint_ms",
            "ms",
            &mut out,
        );
        let flushed: Vec<f64> = shared
            .measured_batches()
            .map(|b| b.pages_flushed as f64)
            .collect();
        out.push(
            "durable.pages_flushed_per_checkpoint",
            mean(&flushed),
            "count",
        );
    }
    out.push(
        "durable.recovery_rows_scanned",
        recovery_rows_scanned,
        "count",
    );
    finish(cfg, trace, shared.sessions, &mut out)?;
    Ok(out)
}

/// Median wall time of the spans named `span`, in `unit` (`ms` or `us`),
/// as metric `metric`.
fn span_median(trace: &Trace, span: &str, metric: &str, unit: &'static str, out: &mut Report) {
    let div = match unit {
        "ms" => 1e6,
        "us" => 1e3,
        _ => 1.0,
    };
    out.push(metric, median(&trace.durations(span)) / div, unit);
}

/// Print self times, write the span dump, check coverage and push
/// `bench.trace_overhead_pct`. A coverage failure is returned as an error.
fn finish(
    cfg: &Config,
    trace: &Trace,
    sessions: &[SessionSample],
    out: &mut Report,
) -> Result<(), String> {
    let path = cfg
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", cfg.kind.name(), cfg.seed));
    trace
        .dump(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# span dump: {} ({} spans)",
        path.display(),
        trace.spans.len()
    );
    println!("# self times: span, count, wall ms, self ms, self share");
    let st = trace.self_times();
    let total_self: u64 = st.values().map(|s| s.self_ns).sum();
    for (name, s) in &st {
        println!(
            "#   {name:<22} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / total_self.max(1) as f64
        );
    }
    let mut problems = Vec::new();
    for (root, until) in [("session", None), ("batch", Some("maint.commit"))] {
        let cov = trace.coverage(root, until, TOLERANCE);
        println!(
            "# coverage of {root}{}: {:.2}% of {:.1} ms by child spans; {}/{} roots within {:.0}%",
            until.map_or(String::new(), |c| format!(" up to {c}")),
            100.0 * cov.share(),
            cov.wall_ns as f64 / 1e6,
            cov.roots_within,
            cov.roots,
            100.0 * TOLERANCE
        );
        if cov.roots > 0
            && (cov.share() < 1.0 - TOLERANCE || cov.roots_within_share() < ROOTS_WITHIN)
        {
            problems.push(format!("{root} spans do not account for its wall time"));
        }
    }
    let times = |traced: bool| -> Vec<f64> {
        sessions
            .iter()
            .filter(|s| s.traced == traced && !s.failed)
            .map(|s| ms(s.end - s.start))
            .collect()
    };
    let (on, off) = (median(&times(true)), median(&times(false)));
    out.push(
        "bench.trace_overhead_pct",
        if off > 0.0 {
            100.0 * (on - off) / off
        } else {
            0.0
        },
        "%",
    );
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}
