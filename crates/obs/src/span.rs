//! Span identity and causal context propagation.
//!
//! A *span* is one unit of causally-connected work: a job, one `Bplan`
//! entry, one column task (all its shards share the span) or one subtree
//! task. Span ids are allocated by the master — the only machine that
//! creates work — from a single counter, so an id is unique cluster-wide
//! and `0` can serve as "no span". A [`TraceCtx`] (trace id + current span)
//! rides every engine frame as a plain field, which is how a worker's
//! events end up causally parented to the master's delegation across
//! machines: the worker copies the context out of the plan message into
//! its `SpanRecv` / `SpanActive` records and echoes it on results, and the
//! fabric stamps retransmissions and duplicate drops with the span of the
//! payload they carry.
//!
//! The types live in `ts-obs` (a zero-dependency crate) precisely so that
//! `treeserver`'s message structs can embed them unconditionally — context
//! propagation is part of the wire protocol, not of the optional
//! instrumentation (see `docs/PROTOCOL.md`).

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Identifies one span. `0` is reserved for "none".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the null id.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

/// The causal context a frame carries: which trace (= job) it belongs to
/// and which span originated it. [`TraceCtx::NONE`] marks control traffic
/// outside any trace (shutdown, replication).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// The trace id — the span id of the job at the root of the DAG.
    pub trace: u64,
    /// The originating span.
    pub span: SpanId,
}

impl TraceCtx {
    /// No context: control traffic outside any trace.
    pub const NONE: TraceCtx = TraceCtx {
        trace: 0,
        span: SpanId::NONE,
    };

    /// A context for `span` inside `trace`.
    pub fn new(trace: u64, span: SpanId) -> TraceCtx {
        TraceCtx { trace, span }
    }

    /// Whether this is the null context.
    pub fn is_none(&self) -> bool {
        self.trace == 0 && self.span.is_none()
    }
}

/// What kind of work a span covers. Scalar and `Copy` so it can ride in a
/// ring [`Event`](crate::Event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// A whole training job (trace root).
    Job,
    /// One `Bplan` entry, from enqueue to dispatch.
    Plan,
    /// One column task (all shards share the span).
    ColumnTask,
    /// One subtree task.
    SubtreeTask,
    /// One serving-tier request, from admission to response (ts-front).
    Request,
}

impl SpanKind {
    /// A stable lowercase name, used in exported JSON.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Plan => "plan",
            SpanKind::ColumnTask => "column_task",
            SpanKind::SubtreeTask => "subtree_task",
            SpanKind::Request => "request",
        }
    }
}

/// How many completed spans a [`LatencyFeed`] window retains.
const FEED_WINDOW: usize = 512;

/// Rolling serving-request latency quantiles, fed from completed request
/// spans: the front tier's adaptive batcher reads p50/p95 of recent
/// request durations after every batch (`docs/SERVING.md`).
#[derive(Debug, Default)]
pub struct LatencyFeed {
    request_ns: Mutex<VecDeque<u64>>,
}

/// Quantiles of a rolling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindLatency {
    /// Spans currently in the window.
    pub count: u64,
    /// Median duration (ns; 0 when empty).
    pub p50_ns: u64,
    /// 95th-percentile duration (ns; 0 when empty).
    pub p95_ns: u64,
}

/// Index of the `q`-quantile among `len >= 1` sorted samples.
fn quantile_index(q: f64, len: usize) -> usize {
    ((q * (len - 1) as f64).round() as usize).min(len - 1)
}

impl LatencyFeed {
    fn window(&self) -> MutexGuard<'_, VecDeque<u64>> {
        self.request_ns.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Feeds one completed serving-request span duration
    /// (ts-front admission → response).
    pub fn record_request(&self, latency_ns: u64) {
        let mut w = self.window();
        if w.len() == FEED_WINDOW {
            w.pop_front();
        }
        w.push_back(latency_ns);
    }

    /// Rolling p50 and p95 of the serving-request spans right now — the
    /// values a full sort would put at [`quantile_index`] — found by
    /// selection: p95 first, then p50 inside the part selection left below
    /// it. The lock is held only for the copy.
    pub fn request(&self) -> KindLatency {
        let mut samples: Vec<u64> = self.window().iter().copied().collect();
        if samples.is_empty() {
            return KindLatency::default();
        }
        let (i50, i95) = (
            quantile_index(0.5, samples.len()),
            quantile_index(0.95, samples.len()),
        );
        let (below, &mut p95_ns, _) = samples.select_nth_unstable(i95);
        let p50_ns = if i50 == i95 {
            p95_ns
        } else {
            *below.select_nth_unstable(i50).1
        };
        KindLatency {
            count: samples.len() as u64,
            p50_ns,
            p95_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_ctx_and_ids() {
        assert!(SpanId::NONE.is_none());
        assert!(!SpanId(3).is_none());
        assert!(TraceCtx::NONE.is_none());
        let ctx = TraceCtx::new(1, SpanId(2));
        assert!(!ctx.is_none());
        assert_eq!(ctx.trace, 1);
        assert_eq!(ctx.span, SpanId(2));
        assert_eq!(TraceCtx::default(), TraceCtx::NONE);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(SpanKind::Job.name(), "job");
        assert_eq!(SpanKind::Plan.name(), "plan");
        assert_eq!(SpanKind::ColumnTask.name(), "column_task");
        assert_eq!(SpanKind::SubtreeTask.name(), "subtree_task");
        assert_eq!(SpanKind::Request.name(), "request");
    }

    #[test]
    fn feed_rolls_and_quantiles() {
        let feed = LatencyFeed::default();
        assert_eq!(feed.request(), KindLatency::default());
        feed.record_request(42);
        let one = feed.request();
        assert_eq!(one.count, 1);
        assert_eq!(one.p50_ns, 42);
        assert_eq!(one.p95_ns, 42);
        let feed = LatencyFeed::default();
        for v in 1..=100u64 {
            feed.record_request(v * 10);
        }
        let snap = feed.request();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50_ns, 510);
        assert_eq!(snap.p95_ns, 950);
    }

    #[test]
    fn feed_window_is_bounded() {
        let feed = LatencyFeed::default();
        for _ in 0..600 {
            feed.record_request(1);
        }
        // The window holds the newest 512; old samples rolled out.
        feed.record_request(1_000_000);
        let snap = feed.request();
        assert_eq!(snap.count, 512);
        assert_eq!(snap.p50_ns, 1);
        assert_eq!(snap.p95_ns, 1);
    }
}
