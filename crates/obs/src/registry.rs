//! Named metrics: counters and gauges.
//!
//! All updates are relaxed atomic integer operations, so concurrent
//! increments commute exactly and every snapshot total is bit-stable
//! across thread pools — the property the registry inherits from the
//! engine's integer pair counters and that the service-mode roadmap
//! item (qps/latency metrics) needs.
//!
//! A disabled registry hands out one shared sink per metric kind, so
//! hot-path `counter("x").add(1)` calls cost a mutex-free branch and an
//! atomic add into a value nobody reads. Gate per-item work on
//! [`Registry::is_enabled`] when even that is too much.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    pub fn add(&self, v: u64) {
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins integer metric (e.g. resident set, queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    pub(crate) const fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A snapshot value, for exports and assertions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
}

#[derive(Debug, Default)]
struct Metrics {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
}

/// Get-or-create registry of named metrics.
///
/// Registration takes a mutex; updates through the returned `Arc`s are
/// lock-free. Callers on hot paths should register once and hold the
/// `Arc`.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    metrics: Mutex<Metrics>,
    // Shared sinks handed out by a disabled registry so counter("x")
    // never allocates or locks.
    sink_counter: Arc<Counter>,
    sink_gauge: Arc<Gauge>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self::with_enabled(true)
    }

    pub(crate) fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Registry {
            enabled,
            metrics: Mutex::new(Metrics::default()),
            sink_counter: Arc::new(Counter::new()),
            sink_gauge: Arc::new(Gauge::new()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get or create a counter by name.
    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        if !self.enabled {
            return Arc::clone(&self.sink_counter);
        }
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        Arc::clone(
            m.counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or create a gauge by name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if !self.enabled {
            return Arc::clone(&self.sink_gauge);
        }
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        Arc::clone(
            m.gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Convenience: bump a counter by name.
    pub fn add(&self, name: &str, v: u64) {
        if self.enabled {
            self.counter(name).add(v);
        }
    }

    /// Counter value by name (0 when absent or disabled).
    // lint:allow(W-DEADPUB): oracle for recorded counters, read by core/tests/{supervised,observability}.rs
    pub fn counter_value(&self, name: &str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let m = self.metrics.lock().expect("obs registry poisoned");
        m.counters.get(name).map_or(0, |c| c.get())
    }

    /// Deterministic snapshot: all metrics sorted by kind then name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let m = self.metrics.lock().expect("obs registry poisoned");
        let mut out = Vec::new();
        for (name, c) in &m.counters {
            out.push((name.clone(), MetricValue::Counter(c.get())));
        }
        for (name, g) in &m.gauges {
            out.push((name.clone(), MetricValue::Gauge(g.get())));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").add(1);
        r.counter("b.second").add(1);
        r.gauge("depth").set(7);
        assert_eq!(r.counter_value("b.second"), 3);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "b.second", "depth"]);
        assert_eq!(snap[2].1, MetricValue::Gauge(7));
    }

    #[test]
    fn concurrent_adds_commute_exactly() {
        let r = Registry::new();
        let c = r.counter("hits");
        thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn disabled_registry_swallows_everything() {
        let r = Registry::disabled();
        r.counter("x").add(5);
        r.add("y", 9);
        assert_eq!(r.counter_value("x"), 0);
        assert!(r.snapshot().is_empty());
    }
}
