//! Global metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Keys are `&'static str` and the backing store is a `BTreeMap`, so
//! snapshots iterate in sorted key order — no floats are ever reduced over
//! hash iteration (npp-lint rule D3 stays structurally satisfied).
//! Histograms use fixed power-of-two buckets over `u64` values (bucket `i`
//! counts values with bit-length `i`), so merging and rendering are exact
//! integer operations.
//!
//! All mutation entry points are no-ops unless recording is active (see
//! [`crate::enabled`]) or the registry has been switched on independently
//! with [`set_standalone`]; without the `trace` cargo feature they compile
//! to nothing. The standalone switch exists for long-running services
//! (`netpp serve`): trace recording accumulates records in memory for the
//! lifetime of the run, which a daemon must not do, while the metrics
//! registry is bounded (one slot per metric name) and safe to leave on
//! forever.

/// Number of histogram buckets: one per possible bit-length of a `u64`
/// value (0 for value 0, 64 for values >= 2^63).
pub const HIST_BUCKETS: usize = 65;

/// A rendered metric value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write or high-water gauge.
    Gauge(f64),
    /// Fixed-bucket histogram summary.
    Histogram(HistogramSummary),
}

/// Exact summary of a fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(upper_bound_exclusive, count)` pairs, in
    /// ascending bound order. The last bucket's bound saturates at
    /// `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of the registry, sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Look up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Counter value by name (None if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name (None if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Human-readable rendering, one metric per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            out.push_str("  ");
            out.push_str(name);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(" = {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(" = {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        " : count={} sum={} min={} max={} mean={:.1}\n",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.mean()
                    ));
                }
            }
        }
        out
    }

    /// Byte-stable JSON rendering (sorted keys, exact integers).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":"));
            match value {
                MetricValue::Counter(v) => out.push_str(&format!("{v}")),
                MetricValue::Gauge(v) => {
                    if v.is_finite() {
                        out.push_str(&format!("{v}"));
                    } else {
                        out.push('0');
                    }
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                        h.count, h.sum, h.min, h.max
                    ));
                    for (j, (bound, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{bound},{n}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }

    /// Histogram summary by name (None if absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Prometheus text-format exposition (content type
    /// `text/plain; version=0.0.4`).
    ///
    /// Metric names are sanitized to `[a-z0-9_]` with an `npp_` prefix;
    /// histograms render cumulative `_bucket{le="..."}` series plus `_sum`
    /// and `_count`, matching the classic Prometheus histogram contract.
    /// Output is byte-stable: entries are already name-sorted and every
    /// number goes through the workspace's deterministic formatters.
    pub fn to_prometheus(&self) -> String {
        use crate::fmt::{push_f64, push_u64};
        let mut out = String::with_capacity(64 + self.entries.len() * 96);
        for (name, value) in &self.entries {
            let prom = prometheus_name(name);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str("# TYPE ");
                    out.push_str(&prom);
                    out.push_str(" counter\n");
                    out.push_str(&prom);
                    out.push(' ');
                    push_u64(&mut out, *v);
                    out.push('\n');
                }
                MetricValue::Gauge(v) => {
                    out.push_str("# TYPE ");
                    out.push_str(&prom);
                    out.push_str(" gauge\n");
                    out.push_str(&prom);
                    out.push(' ');
                    push_f64(&mut out, *v);
                    out.push('\n');
                }
                MetricValue::Histogram(h) => {
                    out.push_str("# TYPE ");
                    out.push_str(&prom);
                    out.push_str(" histogram\n");
                    let mut cumulative = 0u64;
                    for (bound, n) in &h.buckets {
                        cumulative += n;
                        out.push_str(&prom);
                        out.push_str("_bucket{le=\"");
                        if *bound == u64::MAX {
                            out.push_str("+Inf");
                        } else {
                            push_u64(&mut out, *bound);
                        }
                        out.push_str("\"} ");
                        push_u64(&mut out, cumulative);
                        out.push('\n');
                    }
                    if h.buckets.last().map(|(b, _)| *b) != Some(u64::MAX) {
                        out.push_str(&prom);
                        out.push_str("_bucket{le=\"+Inf\"} ");
                        push_u64(&mut out, h.count);
                        out.push('\n');
                    }
                    out.push_str(&prom);
                    out.push_str("_sum ");
                    push_u64(&mut out, h.sum);
                    out.push('\n');
                    out.push_str(&prom);
                    out.push_str("_count ");
                    push_u64(&mut out, h.count);
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// Maps a registry key (dotted, e.g. `serve.request_ns.sweep`) onto a valid
/// Prometheus metric name: `npp_` prefix, `[a-zA-Z0-9_]` body, everything
/// else folded to `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(4 + name.len());
    out.push_str("npp_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(feature = "trace")]
mod imp {
    use super::{HistogramSummary, MetricValue, Snapshot, HIST_BUCKETS};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static STANDALONE: AtomicBool = AtomicBool::new(false);

    pub(super) fn set_standalone(on: bool) {
        STANDALONE.store(on, Ordering::Relaxed);
    }

    pub(super) fn standalone() -> bool {
        STANDALONE.load(Ordering::Relaxed)
    }

    #[derive(Debug, Clone)]
    enum Metric {
        Counter(u64),
        Gauge(f64),
        Hist(Hist),
    }

    #[derive(Debug, Clone)]
    struct Hist {
        counts: Vec<u64>,
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    }

    impl Hist {
        fn new() -> Self {
            Hist {
                counts: vec![0; HIST_BUCKETS],
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn observe(&mut self, v: u64) {
            let idx = (64 - v.leading_zeros()) as usize;
            if let Some(slot) = self.counts.get_mut(idx) {
                *slot += 1;
            }
            self.count += 1;
            self.sum = self.sum.saturating_add(v);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn summary(&self) -> HistogramSummary {
            let buckets = self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| {
                    let bound = if i >= 64 { u64::MAX } else { 1u64 << i };
                    (bound, *n)
                })
                .collect();
            HistogramSummary {
                count: self.count,
                sum: self.sum,
                min: if self.count == 0 { 0 } else { self.min },
                max: self.max,
                buckets,
            }
        }
    }

    static REGISTRY: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

    fn reg() -> MutexGuard<'static, BTreeMap<&'static str, Metric>> {
        REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn counter_add(name: &'static str, delta: u64) {
        if let Metric::Counter(v) = reg().entry(name).or_insert(Metric::Counter(0)) {
            *v += delta;
        }
    }

    pub(super) fn gauge_set(name: &'static str, value: f64) {
        reg().insert(name, Metric::Gauge(value));
    }

    pub(super) fn gauge_max(name: &'static str, value: f64) {
        if let Metric::Gauge(v) = reg().entry(name).or_insert(Metric::Gauge(value)) {
            if value > *v {
                *v = value;
            }
        }
    }

    pub(super) fn observe(name: &'static str, value: u64) {
        if let Metric::Hist(h) = reg()
            .entry(name)
            .or_insert_with(|| Metric::Hist(Hist::new()))
        {
            h.observe(value);
        }
    }

    pub(super) fn reset() {
        reg().clear();
    }

    pub(super) fn snapshot() -> Snapshot {
        let entries = reg()
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(v) => MetricValue::Counter(*v),
                    Metric::Gauge(v) => MetricValue::Gauge(*v),
                    Metric::Hist(h) => MetricValue::Histogram(h.summary()),
                };
                ((*name).to_string(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// Switch the registry on (or off) independently of trace recording.
///
/// Intended for long-running services: bounded metrics stay live without
/// the unbounded trace sink. No-op without the `trace` feature.
pub fn set_standalone(on: bool) {
    #[cfg(feature = "trace")]
    imp::set_standalone(on);
    #[cfg(not(feature = "trace"))]
    {
        let _ = on;
    }
}

/// `true` when the registry accepts writes (recording active or the
/// standalone switch is on).
pub fn active() -> bool {
    #[cfg(feature = "trace")]
    {
        crate::enabled() || imp::standalone()
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Add `delta` to the named counter. No-op when the registry is inactive.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    #[cfg(feature = "trace")]
    if active() {
        imp::counter_add(name, delta);
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (name, delta);
    }
}

/// Set the named gauge. No-op when the registry is inactive.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    #[cfg(feature = "trace")]
    if active() {
        imp::gauge_set(name, value);
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (name, value);
    }
}

/// Raise the named gauge to `value` if larger (high-water mark). No-op when
/// the registry is inactive.
#[inline]
pub fn gauge_max(name: &'static str, value: f64) {
    #[cfg(feature = "trace")]
    if active() {
        imp::gauge_max(name, value);
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (name, value);
    }
}

/// Record one observation into the named fixed-bucket histogram. No-op when
/// the registry is inactive.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    #[cfg(feature = "trace")]
    if active() {
        imp::observe(name, value);
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = (name, value);
    }
}

/// Clear the registry (called by [`crate::start`]).
pub fn reset() {
    #[cfg(feature = "trace")]
    imp::reset();
}

/// Copy the registry out, sorted by name. Empty without the `trace` feature.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "trace")]
    {
        imp::snapshot()
    }
    #[cfg(not(feature = "trace"))]
    {
        Snapshot::default()
    }
}

#[cfg(test)]
mod prometheus_tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            entries: vec![
                ("cache.hits".to_string(), MetricValue::Counter(12)),
                ("rss.peak".to_string(), MetricValue::Gauge(1.5)),
                (
                    "serve.request_ns.sweep".to_string(),
                    MetricValue::Histogram(HistogramSummary {
                        count: 3,
                        sum: 1031,
                        min: 0,
                        max: 1024,
                        buckets: vec![(1, 1), (8, 1), (2048, 1)],
                    }),
                ),
            ],
        }
    }

    #[test]
    fn exposition_renders_all_metric_kinds() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE npp_cache_hits counter\nnpp_cache_hits 12\n"));
        assert!(text.contains("# TYPE npp_rss_peak gauge\nnpp_rss_peak 1.5\n"));
        // Buckets are cumulative and always end with +Inf.
        assert!(text.contains("npp_serve_request_ns_sweep_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("npp_serve_request_ns_sweep_bucket{le=\"8\"} 2\n"));
        assert!(text.contains("npp_serve_request_ns_sweep_bucket{le=\"2048\"} 3\n"));
        assert!(text.contains("npp_serve_request_ns_sweep_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("npp_serve_request_ns_sweep_sum 1031\n"));
        assert!(text.contains("npp_serve_request_ns_sweep_count 3\n"));
    }

    #[test]
    fn name_sanitizer_folds_non_identifier_chars() {
        assert_eq!(prometheus_name("a.b-c/d"), "npp_a_b_c_d");
    }

    #[test]
    fn histogram_accessor_distinguishes_kinds() {
        let snap = sample();
        assert!(snap.histogram("serve.request_ns.sweep").is_some());
        assert!(snap.histogram("cache.hits").is_none());
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    fn with_recording<R>(f: impl FnOnce() -> R) -> R {
        let _g = crate::test_lock();
        crate::start();
        let r = f();
        let _ = crate::finish();
        r
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let snap = with_recording(|| {
            counter_add("z.counter", 2);
            counter_add("z.counter", 3);
            gauge_set("a.gauge", 1.25);
            gauge_max("a.high", 10.0);
            gauge_max("a.high", 4.0);
            observe("m.hist", 0);
            observe("m.hist", 7);
            observe("m.hist", 1024);
            snapshot()
        });
        // Sorted by name: a.gauge, a.high, m.hist, z.counter.
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.gauge", "a.high", "m.hist", "z.counter"]);
        assert_eq!(snap.counter("z.counter"), Some(5));
        assert_eq!(snap.gauge("a.high"), Some(10.0));
        match snap.get("m.hist") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.sum, 1031);
                assert_eq!((h.min, h.max), (0, 1024));
                // value 0 -> bucket bound 1, value 7 -> bound 8, 1024 -> bound 2048.
                assert_eq!(h.buckets, vec![(1, 1), (8, 1), (2048, 1)]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        let json = snap.to_json();
        assert!(json.contains("\"z.counter\":5"));
        assert!(json.contains("\"buckets\":[[1,1],[8,1],[2048,1]]"));
        assert!(snap.to_text().contains("m.hist"));
    }

    #[test]
    fn standalone_switch_records_without_trace_recording() {
        let _g = crate::test_lock();
        let _ = crate::finish();
        reset();
        set_standalone(true);
        assert!(active());
        counter_add("standalone.counter", 7);
        observe("standalone.hist", 3);
        let snap = snapshot();
        set_standalone(false);
        reset();
        assert!(!active());
        assert_eq!(snap.counter("standalone.counter"), Some(7));
        assert!(matches!(
            snap.get("standalone.hist"),
            Some(MetricValue::Histogram(h)) if h.count == 1
        ));
    }

    #[test]
    fn inactive_registry_ignores_writes() {
        let _g = crate::test_lock();
        let _ = crate::finish();
        counter_add("ghost", 1);
        crate::start();
        let snap = snapshot();
        let _ = crate::finish();
        assert!(snap.get("ghost").is_none());
    }
}
