//! Named atomic counters and log-bucketed histograms, snapshotable at any
//! instant while the engine keeps recording.
//!
//! Handles (`Arc<Counter>` / `Arc<Histogram>`) are resolved once — at
//! recorder construction for the engine's hot metrics — so the hot path is
//! a single relaxed atomic add; the registry lock is only taken to register
//! or to snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const N_BUCKETS: usize = 65;

/// A histogram over `u64` values with power-of-two bucket boundaries.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_upper(i), n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// `(inclusive upper bound, count)` for every non-empty bucket, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 <= q <= 1`);
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for &(ub, n) in &self.buckets {
            cum += n;
            if cum >= target {
                return ub;
            }
        }
        self.buckets.last().map_or(0, |&(ub, _)| ub)
    }
}

/// A registry of named counters and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

fn read_map<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_map<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some(c) = read_map(&self.counters).get(name) {
            return Arc::clone(c);
        }
        Arc::clone(write_map(&self.counters).entry(name).or_default())
    }

    /// Returns the histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = read_map(&self.histograms).get(name) {
            return Arc::clone(h);
        }
        Arc::clone(write_map(&self.histograms).entry(name).or_default())
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read_map(&self.counters)
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: read_map(&self.histograms)
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Writes the `"counters": {...}, "histograms": {...}` JSON fields
    /// (without surrounding braces) into `out`.
    pub(crate) fn write_json_fields(&self, out: &mut String) {
        out.push_str("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            tsjson::write_escaped(name, out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            tsjson::write_escaped(name, out);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
            );
            for (j, &(ub, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{ub},{n}]");
            }
            out.push_str("]}");
        }
        out.push('}');
    }

    /// The snapshot as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        self.write_json_fields(&mut s);
        s.push('}');
        s
    }

    /// The snapshot in the Prometheus text exposition format: every
    /// counter as a `counter`, every histogram as a `histogram` with
    /// cumulative `_bucket{le="..."}` series (one per non-empty bucket
    /// plus the mandatory `+Inf`), `_sum` and `_count`. Deterministic:
    /// metrics in name order, buckets ascending.
    pub fn to_prometheus_text(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(s, "# TYPE {name} counter");
            let _ = writeln!(s, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(s, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for &(ub, n) in &h.buckets {
                cum += n;
                let _ = writeln!(s, "{name}_bucket{{le=\"{ub}\"}} {cum}");
            }
            let _ = writeln!(s, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(s, "{name}_sum {}", h.sum);
            let _ = writeln!(s, "{name}_count {}", h.count);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_snapshot_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1206);
        assert!((s.mean() - 1206.0 / 7.0).abs() < 1e-9);
        // p50 falls in the bucket holding 2..=3 (cumulative 4 of 7).
        assert_eq!(s.quantile(0.5), 3);
        // p99 falls in the last bucket (512..=1023).
        assert_eq!(s.quantile(0.99), 1023);
        assert_eq!(s.quantile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.99), 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn registry_returns_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.inc();
        assert_eq!(r.snapshot().counter("x"), 1);
        assert_eq!(r.snapshot().counter("never"), 0);
    }

    #[test]
    fn prometheus_text_round_trips_the_snapshot() {
        let r = MetricsRegistry::new();
        r.counter("jobs_done").add(3);
        let h = r.histogram("latency_ns");
        for v in [0u64, 1, 2, 3, 100] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let text = snap.to_prometheus_text();

        // Shape: TYPE lines, cumulative buckets ending in +Inf, sum/count.
        assert!(
            text.contains("# TYPE jobs_done counter\njobs_done 3\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE latency_ns histogram"), "{text}");
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("latency_ns_sum 106"), "{text}");
        assert!(text.contains("latency_ns_count 5"), "{text}");

        // Round trip: parse the text back and recover every value.
        let mut counters = BTreeMap::new();
        let mut series: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (key, val) = line.rsplit_once(' ').expect("sample line");
            let val: u64 = val.parse().expect("integer sample");
            match key.split_once('{') {
                Some((name, labels)) => series
                    .entry(name.to_string())
                    .or_default()
                    .push((labels.trim_end_matches('}').to_string(), val)),
                None => {
                    counters.insert(key.to_string(), val);
                }
            }
        }
        assert_eq!(counters.get("jobs_done"), Some(&3));
        assert_eq!(
            counters.get("latency_ns_sum"),
            Some(&snap.histogram("latency_ns").unwrap().sum)
        );
        assert_eq!(counters.get("latency_ns_count"), Some(&5));
        let buckets = &series["latency_ns_bucket"];
        // Cumulative counts de-cumulate back to the snapshot's buckets.
        let snap_h = snap.histogram("latency_ns").unwrap();
        let mut prev = 0u64;
        for (i, &(ub, n)) in snap_h.buckets.iter().enumerate() {
            let (le, cum) = &buckets[i];
            assert_eq!(le, &format!("le=\"{ub}\""));
            assert_eq!(cum - prev, n);
            prev = *cum;
        }
        assert_eq!(buckets.last().unwrap(), &("le=\"+Inf\"".to_string(), 5));
    }

    #[test]
    fn snapshot_json_shape() {
        let r = MetricsRegistry::new();
        r.counter("a").add(2);
        r.histogram("h").observe(5);
        let j = r.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"a\":2"), "{j}");
        assert!(j.contains("\"count\":1"), "{j}");
        assert!(j.contains("\"buckets\":[[7,1]]"), "{j}");
    }
}
