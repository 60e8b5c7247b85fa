//! Serving-tier metrics, in the `ServeStats` mould: a private
//! [`MetricsRegistry`] with pre-resolved counter/histogram handles, plus
//! the rolling request-latency [`LatencyFeed`] the adaptive batch sizer
//! reads.

use std::sync::Arc;
use ts_obs::{Counter, Histogram, LatencyFeed, MetricsRegistry, MetricsSnapshot};

/// Counters, histograms and the request-latency feed for one front server.
#[derive(Debug)]
pub struct FrontStats {
    registry: MetricsRegistry,
    /// Every request offered to admission.
    pub requests: Arc<Counter>,
    /// Requests admitted to the batching queue.
    pub admitted: Arc<Counter>,
    /// Sheds because the bounded queue was full.
    pub shed_queue_full: Arc<Counter>,
    /// Sheds because the latency budget could not be met (backpressure).
    pub shed_backpressure: Arc<Counter>,
    /// Micro-batches dispatched to the engine.
    pub batches: Arc<Counter>,
    /// Batches cut by the deadline trigger.
    pub deadline_flushes: Arc<Counter>,
    /// Batches cut by the size trigger.
    pub full_flushes: Arc<Counter>,
    /// Model hot swaps applied.
    pub swaps: Arc<Counter>,
    /// Rows per dispatched batch.
    pub batch_rows: Arc<Histogram>,
    /// Queue depth observed at each admission.
    pub queue_depth: Arc<Histogram>,
    /// Admission-to-completion request latency, µs.
    pub latency_us: Arc<Histogram>,
    /// Rolling request-latency window; the adaptive sizer reads its p95.
    pub feed: LatencyFeed,
}

impl FrontStats {
    /// Fresh zeroed stats.
    pub fn new() -> FrontStats {
        let registry = MetricsRegistry::new();
        FrontStats {
            requests: registry.counter("front_requests"),
            admitted: registry.counter("front_admitted"),
            shed_queue_full: registry.counter("front_shed_queue_full"),
            shed_backpressure: registry.counter("front_shed_backpressure"),
            batches: registry.counter("front_batches"),
            deadline_flushes: registry.counter("front_deadline_flushes"),
            full_flushes: registry.counter("front_full_flushes"),
            swaps: registry.counter("front_swaps"),
            batch_rows: registry.histogram("front_batch_rows"),
            queue_depth: registry.histogram("front_queue_depth"),
            latency_us: registry.histogram("front_latency_us"),
            feed: LatencyFeed::default(),
            registry,
        }
    }

    /// The underlying registry (for export alongside other planes).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Point-in-time snapshot of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

impl Default for FrontStats {
    fn default() -> Self {
        FrontStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_snapshot() {
        let s = FrontStats::new();
        s.requests.add(3);
        s.admitted.inc();
        s.batch_rows.observe(16);
        s.feed.record_request(1_000);
        let snap = s.snapshot();
        assert_eq!(snap.counter("front_requests"), 3);
        assert_eq!(snap.counter("front_admitted"), 1);
        assert_eq!(snap.counter("front_shed_queue_full"), 0);
        assert_eq!(snap.histogram("front_batch_rows").unwrap().count, 1);
        assert_eq!(s.feed.request().count, 1);
    }
}
