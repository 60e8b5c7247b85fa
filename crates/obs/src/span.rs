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
use std::sync::Mutex;

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
/// outside any trace (heartbeats, shutdown, replication).
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

/// How many completed spans a [`LatencyFeed`] window retains per kind.
const FEED_WINDOW: usize = 512;

/// Rolling task-latency quantiles, fed from completed column-task and
/// subtree-task spans. This is the observation half of adaptive
/// τ_D / τ_dfs: the master reads p50/p95 of recent task durations at any
/// instant, and the control half (`treeserver::sched::TauController`,
/// enabled by `ClusterConfig::adaptive_tau`) folds these snapshots into
/// the hybrid-scheduling thresholds; see `docs/SCHEDULING.md`.
#[derive(Debug, Default)]
pub struct LatencyFeed {
    column_ns: Mutex<VecDeque<u64>>,
    subtree_ns: Mutex<VecDeque<u64>>,
    request_ns: Mutex<VecDeque<u64>>,
}

/// Quantiles of one kind's rolling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindLatency {
    /// Spans currently in the window.
    pub count: u64,
    /// Median duration (ns; 0 when empty).
    pub p50_ns: u64,
    /// 95th-percentile duration (ns; 0 when empty).
    pub p95_ns: u64,
}

/// A point-in-time read of the feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyFeedSnapshot {
    /// Column-task span durations.
    pub column: KindLatency,
    /// Subtree-task span durations.
    pub subtree: KindLatency,
    /// Serving-request span durations (ts-front admission → response).
    pub request: KindLatency,
}

fn push_window(win: &Mutex<VecDeque<u64>>, v: u64) {
    let mut w = win.lock().unwrap_or_else(|e| e.into_inner());
    if w.len() == FEED_WINDOW {
        w.pop_front();
    }
    w.push_back(v);
}

/// Index of the `q`-quantile among `len >= 1` sorted samples.
fn quantile_index(q: f64, len: usize) -> usize {
    ((q * (len - 1) as f64).round() as usize).min(len - 1)
}

/// The window's p50 and p95 — the values a full sort would put at
/// [`quantile_index`] — found by selection: p95 first, then p50 inside the
/// part selection left below it. The lock is held only for the copy.
fn window_quantiles(win: &Mutex<VecDeque<u64>>) -> KindLatency {
    let mut samples: Vec<u64> = {
        let w = win.lock().unwrap_or_else(|e| e.into_inner());
        w.iter().copied().collect()
    };
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

impl LatencyFeed {
    /// Feeds one completed column-task span duration.
    pub fn record_column(&self, latency_ns: u64) {
        push_window(&self.column_ns, latency_ns);
    }

    /// Feeds one completed subtree-task span duration.
    pub fn record_subtree(&self, latency_ns: u64) {
        push_window(&self.subtree_ns, latency_ns);
    }

    /// Feeds one completed serving-request span duration.
    pub fn record_request(&self, latency_ns: u64) {
        push_window(&self.request_ns, latency_ns);
    }

    /// Rolling p50/p95 of serving-request spans alone: what the front
    /// tier's batcher reads after every batch, without touching the two
    /// training windows.
    pub fn request(&self) -> KindLatency {
        window_quantiles(&self.request_ns)
    }

    /// Rolling p50/p95 of every kind right now.
    pub fn snapshot(&self) -> LatencyFeedSnapshot {
        LatencyFeedSnapshot {
            column: window_quantiles(&self.column_ns),
            subtree: window_quantiles(&self.subtree_ns),
            request: self.request(),
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
        assert_eq!(feed.snapshot(), LatencyFeedSnapshot::default());
        for v in 1..=100u64 {
            feed.record_column(v * 10);
        }
        feed.record_subtree(7);
        feed.record_request(42);
        let snap = feed.snapshot();
        assert_eq!(snap.column.count, 100);
        assert_eq!(snap.column.p50_ns, 510);
        assert_eq!(snap.column.p95_ns, 950);
        assert_eq!(snap.subtree.count, 1);
        assert_eq!(snap.subtree.p50_ns, 7);
        assert_eq!(snap.subtree.p95_ns, 7);
        assert_eq!(snap.request.count, 1);
        assert_eq!(snap.request.p50_ns, 42);
        assert_eq!(snap.request.p95_ns, 42);
    }

    #[test]
    fn feed_window_is_bounded() {
        let feed = LatencyFeed::default();
        for _ in 0..600 {
            feed.record_column(1);
        }
        // The window holds the newest 512; old samples rolled out.
        feed.record_column(1_000_000);
        let snap = feed.snapshot();
        assert_eq!(snap.column.count, 512);
        assert_eq!(snap.column.p50_ns, 1);
        assert_eq!(snap.column.p95_ns, 1);
    }
}
