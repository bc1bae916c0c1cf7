//! Snapshot encoders: JSON and Prometheus text exposition.
//!
//! Both are hand-rolled — the workspace takes no external dependencies —
//! and deterministic (BTreeMap iteration order), so encoded snapshots
//! diff cleanly across runs.

use crate::histogram::{bucket_upper_bound, HistogramSnapshot, BUCKETS};
use crate::registry::Snapshot;

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escape a Prometheus label *value*: backslash, double-quote, and
/// newline must be escaped inside the `label="value"` syntax.
pub fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Rewrite a `layer.object.metric` name into a Prometheus-legal metric
/// name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn hist_json(h: &HistogramSnapshot, sample_rate: u64) -> String {
    let mut buckets = String::from("[");
    let mut first = true;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            buckets.push(',');
        }
        first = false;
        buckets.push_str(&format!("[{},{}]", bucket_upper_bound(i), n));
    }
    buckets.push(']');
    let min = if h.min == u64::MAX { 0 } else { h.min };
    let rate = if sample_rate > 1 {
        format!(",\"sample_rate\":{sample_rate}")
    } else {
        String::new()
    };
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{}{rate},\"buckets\":{}}}",
        h.count(),
        h.sum,
        min,
        h.max,
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99),
        buckets
    )
}

impl Snapshot {
    /// Encode the snapshot as a single JSON object: counters and gauges as
    /// flat maps, histograms with summary stats plus nonzero
    /// `[upper_bound, count]` bucket pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\n  \"enabled\": {},\n  \"seq\": {},\n",
            crate::is_enabled(),
            self.seq
        ));

        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), v));
        }
        out.push_str("\n  },\n");

        out.push_str("  \"gauges\": {");
        for (i, (name, (v, hw))) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"value\": {}, \"high_water\": {}}}",
                json_escape(name),
                v,
                hw
            ));
        }
        out.push_str("\n  },\n");

        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {}",
                json_escape(name),
                hist_json(h, self.sample_rates.get(name).copied().unwrap_or(1))
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Encode the snapshot in the Prometheus text exposition format:
    /// counters as `<name>_total`, gauges as `<name>` plus `<name>_max`,
    /// histograms as cumulative `_bucket{le=...}` series with `_sum` and
    /// `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (name, v) in &self.counters {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p}_total counter\n{p}_total {v}\n"));
        }
        for (name, (v, hw)) in &self.gauges {
            let p = prom_name(name);
            out.push_str(&format!(
                "# TYPE {p} gauge\n{p} {v}\n# TYPE {p}_max gauge\n{p}_max {hw}\n"
            ));
        }
        for (name, h) in &self.histograms {
            let p = prom_name(name);
            // 1-in-N sampled histograms are rescaled so Prometheus rates
            // line up with their exact companion counters, and labelled
            // `sampled="N"` so the rescaling is visible to operators.
            let rate = self.sample_rates.get(name).copied().unwrap_or(1).max(1);
            let sampled_label = if rate > 1 {
                format!(",sampled=\"{}\"", prom_label_escape(&rate.to_string()))
            } else {
                String::new()
            };
            out.push_str(&format!("# TYPE {p} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                if i == BUCKETS - 1 {
                    break; // folded into the +Inf bucket below
                }
                out.push_str(&format!(
                    "{p}_bucket{{le=\"{}\"{sampled_label}}} {}\n",
                    bucket_upper_bound(i),
                    cumulative.saturating_mul(rate)
                ));
            }
            if rate > 1 {
                out.push_str(&format!(
                    "{p}_bucket{{le=\"+Inf\"{sampled_label}}} {}\n{p}_sum{{sampled=\"{rate}\"}} {}\n{p}_count{{sampled=\"{rate}\"}} {}\n",
                    h.count().saturating_mul(rate),
                    h.sum.saturating_mul(rate),
                    h.count().saturating_mul(rate)
                ));
            } else {
                out.push_str(&format!(
                    "{p}_bucket{{le=\"+Inf\"}} {}\n{p}_sum {}\n{p}_count {}\n",
                    h.count(),
                    h.sum,
                    h.count()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::Snapshot;

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(super::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn empty_snapshot_encodes() {
        let snap = Snapshot::default();
        let json = snap.to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
        assert!(snap.to_prometheus().is_empty());
    }

    #[test]
    fn prometheus_names_are_sanitised() {
        assert_eq!(
            super::prom_name("storage.latch.read_wait_ns"),
            "storage_latch_read_wait_ns"
        );
        assert_eq!(super::prom_name("9lives"), "_9lives");
        // Every char outside [a-zA-Z0-9_:] is folded to '_', so label-ish
        // punctuation can never leak into a metric name.
        assert_eq!(super::prom_name("weird{name}=\"x\" y"), "weird_name___x__y");
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        assert_eq!(super::prom_label_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(super::prom_label_escape("16"), "16");
    }

    #[test]
    fn sampled_histograms_are_rescaled_and_labelled() {
        use crate::histogram::{bucket_index, HistogramSnapshot};

        let mut h = HistogramSnapshot::empty();
        h.buckets[bucket_index(100)] = 3;
        h.sum = 300;
        h.min = 100;
        h.max = 100;

        let mut snap = Snapshot::default();
        snap.histograms.insert("storage.heap.read_ns", h);
        snap.sample_rates.insert("storage.heap.read_ns", 16);

        let prom = snap.to_prometheus();
        // 3 recorded observations at 1-in-16 sampling → 48 estimated.
        assert!(
            prom.contains("storage_heap_read_ns_count{sampled=\"16\"} 48"),
            "{prom}"
        );
        assert!(
            prom.contains("storage_heap_read_ns_sum{sampled=\"16\"} 4800"),
            "{prom}"
        );
        assert!(
            prom.contains("_bucket{le=\"+Inf\",sampled=\"16\"} 48"),
            "{prom}"
        );

        // JSON keeps the raw (unscaled) values but declares the rate.
        let json = snap.to_json();
        assert!(json.contains("\"sample_rate\":16"), "{json}");
        assert!(json.contains("\"count\":3"), "{json}");

        // An exact histogram stays unscaled and unlabelled.
        let mut exact = Snapshot::default();
        let mut h2 = HistogramSnapshot::empty();
        h2.buckets[bucket_index(7)] = 2;
        h2.sum = 14;
        exact.histograms.insert("obs.test.exact", h2);
        let prom2 = exact.to_prometheus();
        assert!(prom2.contains("obs_test_exact_count 2"), "{prom2}");
        assert!(!prom2.contains("sampled="), "{prom2}");
    }
}
