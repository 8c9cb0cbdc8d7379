//! Process-global registry of histograms and counters.
//!
//! Metrics register themselves by `(name, labels)` on first use —
//! [`histogram`]/[`counter`] are get-or-create — so any crate in the
//! workspace can record into a family and every scrape surface
//! (`/metrics` Prometheus text, `/v1/debug/stats` JSON, `gesmc-bench`
//! snapshot dumps) sees the union without explicit wiring.
//!
//! Rendering groups series by family: one `# HELP`/`# TYPE` header per
//! family name, then each labeled series.  Histograms render the full
//! Prometheus histogram syntax — cumulative `_bucket{le="…"}` lines ending
//! in `+Inf`, `_sum` (seconds), `_count` — with bucket bounds converted from
//! nanoseconds to seconds.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::log::push_json_escaped;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter registered for scraping.
#[derive(Debug)]
pub struct Counter {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    value: AtomicU64,
}

impl Counter {
    /// Metric family name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Label pairs of this series.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Point-in-time view.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            name: self.name.clone(),
            help: self.help.clone(),
            labels: self.labels.clone(),
            value: self.get(),
        }
    }
}

/// A point-in-time view of one counter series.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// Metric family name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label pairs of this series.
    pub labels: Vec<(String, String)>,
    /// Counter value.
    pub value: u64,
}

/// A consistent snapshot of every registered metric.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// All histogram series, in registration order.
    pub histograms: Vec<HistogramSnapshot>,
    /// All counter series, in registration order.
    pub counters: Vec<CounterSnapshot>,
}

#[derive(Default)]
struct Registry {
    histograms: Vec<Arc<Histogram>>,
    counters: Vec<Arc<Counter>>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have.iter().zip(want).all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// Get or create the unlabeled histogram series `name`.
///
/// Callers on hot paths should cache the returned `Arc` (the lookup takes a
/// registry lock).  The first registration's `help` text wins.
pub fn histogram(name: &str, help: &str) -> Arc<Histogram> {
    histogram_with(name, help, &[])
}

/// Get or create the histogram series `name{labels…}`.
pub fn histogram_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    let mut registry = registry().lock().expect("metric registry poisoned");
    if let Some(existing) =
        registry.histograms.iter().find(|h| h.name() == name && labels_match(h.labels(), labels))
    {
        return existing.clone();
    }
    let created = Arc::new(Histogram::new(name, help, labels));
    registry.histograms.push(created.clone());
    created
}

/// Get or create the unlabeled counter series `name`.
pub fn counter(name: &str, help: &str) -> Arc<Counter> {
    counter_with(name, help, &[])
}

/// Get or create the counter series `name{labels…}`.
pub fn counter_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    let mut registry = registry().lock().expect("metric registry poisoned");
    if let Some(existing) =
        registry.counters.iter().find(|c| c.name() == name && labels_match(c.labels(), labels))
    {
        return existing.clone();
    }
    let created = Arc::new(Counter {
        name: name.to_string(),
        help: help.to_string(),
        labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        value: AtomicU64::new(0),
    });
    registry.counters.push(created.clone());
    created
}

/// Snapshot every registered metric (the `/v1/debug/stats` payload).
pub fn snapshot() -> ObsSnapshot {
    let registry = registry().lock().expect("metric registry poisoned");
    ObsSnapshot {
        histograms: registry.histograms.iter().map(|h| h.snapshot()).collect(),
        counters: registry.counters.iter().map(|c| c.snapshot()).collect(),
    }
}

/// Format a nanosecond bound as a Prometheus `le` value in seconds.
fn le_seconds(le_ns: u64) -> String {
    // f64 `Display` prints the shortest decimal round-trip, never scientific
    // notation, which is exactly the Prometheus text form we want.
    format!("{}", le_ns as f64 / 1e9)
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Escape a label value per the Prometheus text exposition format.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Render every registered metric in the Prometheus text exposition format.
///
/// Series of the same family are grouped under one `# HELP`/`# TYPE` pair.
/// `gesmc-serve` appends this to its own counters/gauges for `/metrics`.
pub fn render_prometheus() -> String {
    let snapshot = snapshot();
    let mut out = String::new();
    let mut seen_families: Vec<String> = Vec::new();

    for series in &snapshot.counters {
        if !seen_families.contains(&series.name) {
            seen_families.push(series.name.clone());
            out.push_str(&format!("# HELP {} {}\n", series.name, series.help));
            out.push_str(&format!("# TYPE {} counter\n", series.name));
            for s in snapshot.counters.iter().filter(|s| s.name == series.name) {
                out.push_str(&format!("{}{} {}\n", s.name, label_block(&s.labels, None), s.value));
            }
        }
    }

    for series in &snapshot.histograms {
        if !seen_families.contains(&series.name) {
            seen_families.push(series.name.clone());
            out.push_str(&format!("# HELP {} {}\n", series.name, series.help));
            out.push_str(&format!("# TYPE {} histogram\n", series.name));
            for s in snapshot.histograms.iter().filter(|s| s.name == series.name) {
                for bucket in &s.buckets {
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        label_block(&s.labels, Some(("le", &le_seconds(bucket.le_ns)))),
                        bucket.count
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    s.name,
                    label_block(&s.labels, Some(("le", "+Inf"))),
                    s.count
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    s.sum_seconds()
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    s.count
                ));
            }
        }
    }
    out
}

/// Render the full snapshot as a JSON object (no external dependencies).
///
/// Shape: `{"histograms":[{name,labels,help,count,sum_seconds,buckets:
/// [{le_seconds,count}…]}…],"counters":[{name,labels,help,value}…]}`.
/// Bucket lists contain only the finite bounds; the top-level `count` is the
/// `+Inf` total.  `gesmc-bench` writes this next to `GESMC_BENCH_JSON`, and
/// `/v1/debug/stats` embeds it.
pub fn render_json() -> String {
    render_json_snapshot(&snapshot())
}

/// Render a specific [`ObsSnapshot`] as JSON (see [`render_json`]).
pub fn render_json_snapshot(snapshot: &ObsSnapshot) -> String {
    let mut out = String::from("{\"histograms\":[");
    for (i, h) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        push_json_escaped(&mut out, &h.name);
        out.push_str("\",\"labels\":");
        push_labels_json(&mut out, &h.labels);
        out.push_str(",\"help\":\"");
        push_json_escaped(&mut out, &h.help);
        out.push_str(&format!(
            "\",\"count\":{},\"sum_seconds\":{},\"buckets\":[",
            h.count,
            h.sum_seconds()
        ));
        for (j, bucket) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"le_seconds\":{},\"count\":{}}}",
                le_seconds(bucket.le_ns),
                bucket.count
            ));
        }
        out.push_str("]}");
    }
    out.push_str("],\"counters\":[");
    for (i, c) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        push_json_escaped(&mut out, &c.name);
        out.push_str("\",\"labels\":");
        push_labels_json(&mut out, &c.labels);
        out.push_str(",\"help\":\"");
        push_json_escaped(&mut out, &c.help);
        out.push_str(&format!("\",\"value\":{}}}", c.value));
    }
    out.push_str("]}");
    out
}

fn push_labels_json(out: &mut String, labels: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_json_escaped(out, k);
        out.push_str("\":\"");
        push_json_escaped(out, v);
        out.push('"');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_deduplicates_by_name_and_labels() {
        let a = histogram("reg_test_family_seconds", "help a");
        let b = histogram("reg_test_family_seconds", "help ignored");
        assert!(Arc::ptr_eq(&a, &b));
        let c = histogram_with("reg_test_family_seconds", "help a", &[("phase", "read")]);
        assert!(!Arc::ptr_eq(&a, &c));
        let d = histogram_with("reg_test_family_seconds", "x", &[("phase", "read")]);
        assert!(Arc::ptr_eq(&c, &d));
    }

    #[test]
    fn counters_render_as_counter_type() {
        let c = counter_with("reg_test_total", "Counter test.", &[("kind", "x")]);
        c.add(3);
        let text = render_prometheus();
        assert!(text.contains("# TYPE reg_test_total counter"));
        assert!(text.contains("reg_test_total{kind=\"x\"} 3"));
    }

    /// Values at, just below and just above every exposed bound render the
    /// Prometheus lines and JSON that the log2-only histogram (before
    /// sub-buckets) rendered; the golden files were captured from it.
    #[test]
    fn octave_bounds_render_the_golden_exposition() {
        let labels = [("phase", "golden")];
        let h = histogram_with("golden_octave_bounds_seconds", "Golden exposition test.", &labels);
        for i in 0..crate::BUCKETS {
            let bound = 1u64 << (8 + i);
            for v in [bound - 1, bound, bound + 1] {
                h.record_ns(v);
            }
        }
        let prometheus: String = render_prometheus()
            .lines()
            .filter(|l| l.contains("golden_octave_bounds_seconds"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(prometheus, include_str!("../testdata/octave_bounds.prom"));
        let json = render_json_snapshot(&ObsSnapshot {
            histograms: vec![h.snapshot()],
            counters: Vec::new(),
        });
        assert_eq!(json, include_str!("../testdata/octave_bounds.json").trim_end());
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
