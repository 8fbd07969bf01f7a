//! The metrics registry: sources registered once, snapshotted coherently.
//!
//! Publication is **wait-free by construction**: the registry never asks
//! the data plane to do anything. Hot paths keep bumping the relaxed
//! atomics and per-worker rings they already own; each registered source
//! is a read closure over those structures, and a scrape evaluates all
//! of them in one pass under the registry lock. The only contention a
//! scrape can cause is whatever the closure itself takes (e.g. the
//! telemetry mutex the dispatcher folds records under — the same brief
//! lock `Runtime::telemetry()` has always taken).
//!
//! Series whose label sets only appear as traffic does (per-class rows)
//! cannot be registered up front; a per-scrape source
//! ([`MetricsRegistry::per_scrape`]) appends them to each snapshot in the
//! same pass. A fixed series is the one-sample case of the same source.

use concord_metrics::Histogram;
use std::sync::Mutex;

/// Whether a scalar series is monotone (counter) or instantaneous
/// (gauge) — drives the `# TYPE` line of the exposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone non-decreasing (exposition type `counter`).
    Counter,
    /// Instantaneous value (exposition type `gauge`).
    Gauge,
}

type Source = Box<dyn Fn(&mut MetricsSnapshot) + Send + Sync>;

/// A registry of metric sources, registered once at startup and read in
/// one coherent pass per scrape.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<Source>>,
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a monotone counter series. `read` is evaluated at each
    /// snapshot; it should load an existing atomic, not compute.
    pub fn counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.scalar(name, help, MetricKind::Counter, labels, read);
    }

    /// Registers a gauge series (instantaneous value).
    pub fn gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.scalar(name, help, MetricKind::Gauge, labels, read);
    }

    fn scalar(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let sample = ScalarSample {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            labels: owned_labels(labels),
            value: 0,
        };
        self.per_scrape(move |snap| {
            snap.scalars.push(ScalarSample {
                value: read(),
                ..sample.clone()
            })
        });
    }

    /// Registers a per-scrape source: `read` runs at each snapshot, in
    /// registration order with every other source, and appends its
    /// samples (see [`MetricsSnapshot::push_scalar`]).
    pub fn per_scrape(&self, read: impl Fn(&mut MetricsSnapshot) + Send + Sync + 'static) {
        self.sources
            .lock()
            .expect("registry lock")
            .push(Box::new(read));
    }

    /// Evaluates every registered source in one pass and returns the
    /// resulting coherent snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for read in self.sources.lock().expect("registry lock").iter() {
            read(&mut snap);
        }
        snap
    }

    /// Number of registered sources (one per fixed series, one per
    /// per-scrape source).
    pub fn len(&self) -> usize {
        self.sources.lock().expect("registry lock").len()
    }

    /// Whether no source has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One scalar series read at snapshot time.
#[derive(Clone, Debug)]
pub struct ScalarSample {
    /// Family name (e.g. `concord_ingested_total`).
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Label pairs identifying this series within the family.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: u64,
}

/// One histogram series read at snapshot time.
#[derive(Clone, Debug)]
pub struct HistSample {
    /// Family name (without the `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// Label pairs identifying this series within the family.
    pub labels: Vec<(String, String)>,
    /// Cumulative `(upper_bound, cumulative_count)` buckets.
    pub buckets: Vec<(u64, u64)>,
    /// Total recorded values (the `+Inf` bucket and `_count`).
    pub count: u64,
    /// Exact sum of recorded values (`_sum`).
    pub sum: u128,
}

/// A coherent point-in-time read of every registered source.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All scalar series, in registration order.
    pub scalars: Vec<ScalarSample>,
    /// All histogram series, in registration order.
    pub hists: Vec<HistSample>,
}

impl MetricsSnapshot {
    /// Appends one scalar series (for per-scrape sources).
    pub fn push_scalar(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: u64,
    ) {
        self.scalars.push(ScalarSample {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            labels: owned_labels(labels),
            value,
        });
    }

    /// Appends one histogram series (for per-scrape sources).
    pub fn push_hist(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.hists.push(HistSample {
            name: name.to_string(),
            help: help.to_string(),
            labels: owned_labels(labels),
            buckets: h.cumulative().collect(),
            count: h.len(),
            sum: h.sum(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn snapshot_reads_live_sources() {
        let reg = MetricsRegistry::new();
        let n = Arc::new(AtomicU64::new(0));
        let src = n.clone();
        reg.counter("c_total", "a counter", &[("shard", "0")], move || {
            src.load(Ordering::Relaxed)
        });
        assert_eq!(reg.snapshot().scalars[0].value, 0);
        n.store(42, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.scalars[0].value, 42);
        assert_eq!(snap.scalars[0].name, "c_total");
        assert_eq!(snap.scalars[0].labels, vec![("shard".into(), "0".into())]);
        assert_eq!(snap.scalars[0].kind, MetricKind::Counter);
    }

    #[test]
    fn histogram_sources_expose_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        reg.per_scrape(|snap| {
            let mut h = Histogram::new(3);
            for v in [10u64, 20, 30] {
                h.record(v);
            }
            snap.push_hist("lat_ns", "latency", &[], &h);
        });
        let snap = reg.snapshot();
        let h = &snap.hists[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 60);
        assert_eq!(h.buckets.last().expect("non-empty").1, 3);
        for pair in h.buckets.windows(2) {
            assert!(pair[1].0 > pair[0].0);
            assert!(pair[1].1 >= pair[0].1);
        }
    }

    #[test]
    fn per_scrape_sources_append_after_fixed_series() {
        let reg = MetricsRegistry::new();
        reg.counter("fixed_total", "", &[], || 1);
        let n = Arc::new(AtomicU64::new(0));
        let src = n.clone();
        reg.per_scrape(move |snap| {
            for class in 0..src.load(Ordering::Relaxed) {
                let c = class.to_string();
                snap.push_scalar("class_total", "", MetricKind::Counter, &[("class", &c)], 7);
                snap.push_hist("class_ns", "", &[("class", &c)], &Histogram::new(3));
            }
        });
        assert_eq!(reg.snapshot().scalars.len(), 1);
        n.store(2, Ordering::Relaxed);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.scalars.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["fixed_total", "class_total", "class_total"]);
        assert_eq!(snap.scalars[2].labels, vec![("class".into(), "1".into())]);
        assert_eq!(snap.hists.len(), 2);
    }

    #[test]
    fn registration_order_is_preserved() {
        let reg = MetricsRegistry::new();
        reg.gauge("b", "", &[], || 1);
        reg.gauge("a", "", &[], || 2);
        assert_eq!(reg.len(), 2);
        let names: Vec<String> = reg.snapshot().scalars.into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["b", "a"]);
    }
}
