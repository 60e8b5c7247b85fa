//! `ts-obs` — task-lifecycle tracing, metrics and Chrome-trace export for
//! the simulated TreeServer cluster.
//!
//! The crate is deliberately dependency-free (std only). The engine records
//! typed [`Event`]s into per-machine lock-free rings via a shared
//! [`Recorder`]; a [`MetricsRegistry`] of atomic counters and log-bucketed
//! histograms is updated inline from the same events. Both are snapshotable
//! at any instant, and exportable as a Chrome trace-event JSON document
//! (Perfetto-loadable) and a JSON metrics dump. See `docs/OBSERVABILITY.md`.
//!
//! Cost model: when disabled (`ObsConfig::enabled == false`), the engine
//! never constructs a `Recorder`, so the per-event cost is one `OnceLock`
//! load and a `None` branch. When enabled, a record is a monotonic-clock
//! read, a handful of relaxed atomic ops on pre-resolved metric handles,
//! and one lock-free ring push.

mod chrome;
mod event;
mod json;
mod metrics;
mod ring;
mod span;
pub mod trace;

pub use event::{DequeEnd, Event, TimedEvent};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, N_BUCKETS,
};
pub use span::{KindLatency, LatencyFeed, SpanId, SpanKind, TraceCtx};
pub use trace::{Phase, Segment, SpanDag, SpanInfo, TraceReport};

use ring::Ring;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Runtime observability configuration, carried in `ClusterConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when false the cluster builds no [`Recorder`] and
    /// every record call is a load-and-branch.
    pub enabled: bool,
    /// Per-machine event-ring capacity (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Record one `NetSend` ring event per this many fabric sends *per
    /// directed edge* — the first send on an edge is always recorded, so
    /// flow arrows in the Chrome trace never orphan (the `net_sends`
    /// counter and `net_send_bytes` histogram still see every send).
    /// 0 disables per-send ring events entirely.
    pub net_sample_every: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: 1 << 16,
            net_sample_every: 64,
        }
    }
}

impl ObsConfig {
    /// A config with recording switched on and default sizing.
    pub fn enabled() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }
}

/// Pre-resolved handles for the engine's hot metrics, so recording never
/// takes the registry lock.
struct Hot {
    jobs_submitted: Arc<Counter>,
    jobs_finished: Arc<Counter>,
    column_tasks_dispatched: Arc<Counter>,
    column_tasks_completed: Arc<Counter>,
    subtree_tasks_delegated: Arc<Counter>,
    subtree_tasks_built: Arc<Counter>,
    bplan_push_head: Arc<Counter>,
    bplan_push_tail: Arc<Counter>,
    splits_chosen: Arc<Counter>,
    workers_crashed: Arc<Counter>,
    workers_recovered: Arc<Counter>,
    messages_dropped: Arc<Counter>,
    messages_delayed: Arc<Counter>,
    retries_sent: Arc<Counter>,
    dups_dropped: Arc<Counter>,
    heartbeats_missed: Arc<Counter>,
    workers_suspected: Arc<Counter>,
    crashes_injected: Arc<Counter>,
    net_sends: Arc<Counter>,
    gbt_rounds: Arc<Counter>,
    steals_requested: Arc<Counter>,
    plans_stolen: Arc<Counter>,
    workers_joined: Arc<Counter>,
    workers_draining: Arc<Counter>,
    workers_departed: Arc<Counter>,
    columns_migrated: Arc<Counter>,
    spans_opened: Arc<Counter>,
    spans_closed: Arc<Counter>,
    column_task_latency_ns: Arc<Histogram>,
    subtree_task_latency_ns: Arc<Histogram>,
    subtree_handoff_rows: Arc<Histogram>,
    bplan_depth: Arc<Histogram>,
    net_send_bytes: Arc<Histogram>,
    comper_busy_ns: Arc<Histogram>,
}

impl Hot {
    fn new(reg: &MetricsRegistry) -> Hot {
        Hot {
            jobs_submitted: reg.counter("jobs_submitted"),
            jobs_finished: reg.counter("jobs_finished"),
            column_tasks_dispatched: reg.counter("column_tasks_dispatched"),
            column_tasks_completed: reg.counter("column_tasks_completed"),
            subtree_tasks_delegated: reg.counter("subtree_tasks_delegated"),
            subtree_tasks_built: reg.counter("subtree_tasks_built"),
            bplan_push_head: reg.counter("bplan_push_head"),
            bplan_push_tail: reg.counter("bplan_push_tail"),
            splits_chosen: reg.counter("splits_chosen"),
            workers_crashed: reg.counter("workers_crashed"),
            workers_recovered: reg.counter("workers_recovered"),
            messages_dropped: reg.counter("messages_dropped"),
            messages_delayed: reg.counter("messages_delayed"),
            retries_sent: reg.counter("retries_sent"),
            dups_dropped: reg.counter("dups_dropped"),
            heartbeats_missed: reg.counter("heartbeats_missed"),
            workers_suspected: reg.counter("workers_suspected"),
            crashes_injected: reg.counter("crashes_injected"),
            net_sends: reg.counter("net_sends"),
            gbt_rounds: reg.counter("gbt_rounds"),
            steals_requested: reg.counter("steals_requested"),
            plans_stolen: reg.counter("plans_stolen"),
            workers_joined: reg.counter("workers_joined"),
            workers_draining: reg.counter("workers_draining"),
            workers_departed: reg.counter("workers_departed"),
            columns_migrated: reg.counter("columns_migrated"),
            spans_opened: reg.counter("spans_opened"),
            spans_closed: reg.counter("spans_closed"),
            column_task_latency_ns: reg.histogram("column_task_latency_ns"),
            subtree_task_latency_ns: reg.histogram("subtree_task_latency_ns"),
            subtree_handoff_rows: reg.histogram("subtree_handoff_rows"),
            bplan_depth: reg.histogram("bplan_depth"),
            net_send_bytes: reg.histogram("net_send_bytes"),
            comper_busy_ns: reg.histogram("comper_busy_ns"),
        }
    }
}

/// The cluster-wide event recorder: one ring per simulated machine plus a
/// shared metrics registry. Cheap to share (`Arc`) and safe to record into
/// from every engine thread concurrently.
pub struct Recorder {
    start: Instant,
    /// When set, `now_ns` reads this counter instead of the wall clock —
    /// the simulation's virtual time source (`ts_netsim::SimClock`).
    time_source: Option<Arc<AtomicU64>>,
    rings: Vec<Ring>,
    registry: MetricsRegistry,
    hot: Hot,
    /// One send counter per directed edge (`from * n + to`), plus a
    /// trailing fallback slot for out-of-range endpoints, so the first
    /// send on every edge lands a ring event (sampling is per edge).
    net_seq: Vec<AtomicU64>,
    net_sample_every: u64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("nodes", &self.rings.len())
            .field("events_total", &self.events_total())
            .field("events_lost", &self.events_lost())
            .finish()
    }
}

impl Recorder {
    /// Creates a recorder for `n_nodes` machines (machine 0 is the master).
    pub fn new(n_nodes: usize, cfg: &ObsConfig) -> Recorder {
        let registry = MetricsRegistry::new();
        let hot = Hot::new(&registry);
        let n = n_nodes.max(1);
        Recorder {
            start: Instant::now(),
            time_source: None,
            rings: (0..n).map(|_| Ring::new(cfg.ring_capacity)).collect(),
            registry,
            hot,
            net_seq: (0..n * n + 1).map(|_| AtomicU64::new(0)).collect(),
            net_sample_every: cfg.net_sample_every,
        }
    }

    /// A recorder stamping events from a shared virtual-nanosecond counter
    /// instead of the wall clock. With a single recording thread this makes
    /// the event timeline a pure function of the recorded sequence.
    pub fn with_time_source(n_nodes: usize, cfg: &ObsConfig, source: Arc<AtomicU64>) -> Recorder {
        let mut rec = Recorder::new(n_nodes, cfg);
        rec.time_source = Some(source);
        rec
    }

    /// Nanoseconds since the recorder was created (or the virtual time
    /// source's current value).
    pub fn now_ns(&self) -> u64 {
        match &self.time_source {
            Some(src) => src.load(Ordering::Relaxed),
            None => self.start.elapsed().as_nanos() as u64,
        }
    }

    /// Records `event` on machine `node`'s ring and folds it into the
    /// metrics registry.
    pub fn record(&self, node: u32, event: Event) {
        self.observe_metrics(&event);
        self.push(node, event);
    }

    fn push(&self, node: u32, event: Event) {
        let ring = self.rings.get(node as usize).unwrap_or(&self.rings[0]);
        ring.push(TimedEvent {
            ts_ns: self.now_ns(),
            node,
            event,
        });
    }

    fn observe_metrics(&self, event: &Event) {
        let h = &self.hot;
        match *event {
            Event::SpanOpen { .. } => h.spans_opened.inc(),
            Event::SpanClose { .. } => h.spans_closed.inc(),
            Event::SpanRecv { .. } | Event::SpanReady { .. } | Event::SpanActive { .. } => {}
            Event::JobSubmitted { .. } => h.jobs_submitted.inc(),
            Event::JobFinished { .. } => h.jobs_finished.inc(),
            Event::ColumnTaskDispatched { .. } => h.column_tasks_dispatched.inc(),
            Event::ColumnTaskCompleted { latency_ns, .. } => {
                h.column_tasks_completed.inc();
                h.column_task_latency_ns.observe(latency_ns);
            }
            Event::SubtreeTaskDelegated { rows, .. } => {
                h.subtree_tasks_delegated.inc();
                h.subtree_handoff_rows.observe(rows);
            }
            Event::SubtreeTaskBuilt { latency_ns, .. } => {
                h.subtree_tasks_built.inc();
                h.subtree_task_latency_ns.observe(latency_ns);
            }
            Event::BplanPush { end, depth, .. } => {
                match end {
                    DequeEnd::Head => h.bplan_push_head.inc(),
                    DequeEnd::Tail => h.bplan_push_tail.inc(),
                }
                h.bplan_depth.observe(depth as u64);
            }
            Event::SplitChosen { .. } => h.splits_chosen.inc(),
            Event::TaskComputed { busy_ns, .. } => h.comper_busy_ns.observe(busy_ns),
            Event::WorkerCrashed { .. } => h.workers_crashed.inc(),
            Event::WorkerRecovered { .. } => h.workers_recovered.inc(),
            Event::MessageDropped { .. } => h.messages_dropped.inc(),
            Event::MessageDelayed { .. } => h.messages_delayed.inc(),
            Event::RetrySent { .. } => h.retries_sent.inc(),
            Event::DupDropped { .. } => h.dups_dropped.inc(),
            Event::HeartbeatMissed { .. } => h.heartbeats_missed.inc(),
            Event::WorkerSuspected { .. } => h.workers_suspected.inc(),
            Event::CrashInjected { .. } => h.crashes_injected.inc(),
            Event::NetSend { .. } => {} // accounted in on_net_send
            Event::GbtRound { .. } => h.gbt_rounds.inc(),
            Event::StealRequested { .. } => h.steals_requested.inc(),
            Event::PlanStolen { .. } => h.plans_stolen.inc(),
            Event::WorkerJoined { .. } => h.workers_joined.inc(),
            Event::WorkerDraining { .. } => h.workers_draining.inc(),
            Event::WorkerDeparted { .. } => h.workers_departed.inc(),
            Event::ColumnMigrated { .. } => h.columns_migrated.inc(),
        }
    }

    /// Fabric send hook: every send hits the counter and byte histogram;
    /// one in `net_sample_every` sends *per directed edge* also lands a
    /// ring event on the sender. Sequence counters are per edge so the
    /// first send on an edge is always recorded — a globally-shared
    /// counter would let a busy edge sample out another edge's first
    /// send, orphaning its flow arrows in the Chrome trace.
    pub fn on_net_send(&self, from: u32, to: u32, bytes: u64) {
        self.hot.net_sends.inc();
        self.hot.net_send_bytes.observe(bytes);
        if self.net_sample_every == 0 {
            return;
        }
        let n = self.rings.len();
        let edge = (from as usize)
            .checked_mul(n)
            .and_then(|e| e.checked_add(to as usize))
            .filter(|_| (from as usize) < n && (to as usize) < n)
            .unwrap_or(n * n);
        let seq = self.net_seq[edge].fetch_add(1, Ordering::Relaxed);
        if seq.is_multiple_of(self.net_sample_every) {
            self.push(from, Event::NetSend { from, to, bytes });
        }
    }

    /// The metrics registry (for ad-hoc counters outside the hot set).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The span DAG reconstructed from the currently-readable events.
    pub fn span_dag(&self) -> SpanDag {
        SpanDag::from_events(&self.events())
    }

    /// The critical-path report for the slowest-finishing job, if any job
    /// span has closed.
    pub fn trace_report(&self) -> Option<TraceReport> {
        TraceReport::build(&self.span_dag())
    }

    /// Every currently-readable event across all rings, in timestamp order.
    pub fn events(&self) -> Vec<TimedEvent> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.collect(&mut out);
        }
        out.sort_by_key(|e| e.ts_ns);
        out
    }

    /// Total events ever recorded (including lost ones).
    pub fn events_total(&self) -> u64 {
        self.rings.iter().map(|r| r.total()).sum()
    }

    /// Events no longer readable (ring overwrite or writer collision).
    pub fn events_lost(&self) -> u64 {
        self.rings.iter().map(|r| r.lost()).sum()
    }

    /// A point-in-time copy of all metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The collected events as a Chrome trace-event JSON document.
    pub fn chrome_trace_json(&self) -> String {
        chrome::export(self.events())
    }

    /// The metrics (plus event accounting) as a JSON object string.
    pub fn metrics_json(&self) -> String {
        let mut s = String::from("{");
        self.metrics().write_json_fields(&mut s);
        s.push_str(&format!(
            ",\"events_total\":{},\"events_lost\":{}}}",
            self.events_total(),
            self.events_lost()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        let cfg = ObsConfig::default();
        assert!(!cfg.enabled);
        assert!(ObsConfig::enabled().enabled);
    }

    #[test]
    fn record_lands_in_ring_and_metrics() {
        let rec = Recorder::new(3, &ObsConfig::enabled());
        rec.record(0, Event::JobSubmitted { job: 1 });
        rec.record(
            1,
            Event::ColumnTaskCompleted {
                task: 9,
                node: 1,
                latency_ns: 500,
            },
        );
        rec.record(0, Event::JobFinished { job: 1 });
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let m = rec.metrics();
        assert_eq!(m.counter("jobs_submitted"), 1);
        assert_eq!(m.counter("jobs_finished"), 1);
        assert_eq!(m.counter("column_tasks_completed"), 1);
        assert_eq!(m.histogram("column_task_latency_ns").unwrap().count, 1);
        assert_eq!(rec.events_lost(), 0);
    }

    #[test]
    fn out_of_range_node_falls_back_to_master_ring() {
        let rec = Recorder::new(2, &ObsConfig::enabled());
        rec.record(99, Event::WorkerCrashed { node: 99 });
        assert_eq!(rec.events().len(), 1);
    }

    #[test]
    fn net_send_sampling() {
        let cfg = ObsConfig {
            net_sample_every: 10,
            ..ObsConfig::enabled()
        };
        let rec = Recorder::new(2, &cfg);
        for _ in 0..100 {
            rec.on_net_send(0, 1, 64);
        }
        let m = rec.metrics();
        assert_eq!(m.counter("net_sends"), 100);
        assert_eq!(m.histogram("net_send_bytes").unwrap().count, 100);
        let ring_events = rec
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::NetSend { .. }))
            .count();
        assert_eq!(ring_events, 10);
    }

    #[test]
    fn net_send_sampling_is_per_edge() {
        // A busy edge must not sample out another edge's *first* send:
        // interleave 30 sends on 0->1 with a single 1->0 send late in the
        // stream, and that one send must still land a ring event.
        let cfg = ObsConfig {
            net_sample_every: 10,
            ..ObsConfig::enabled()
        };
        let rec = Recorder::new(2, &cfg);
        for _ in 0..25 {
            rec.on_net_send(0, 1, 64);
        }
        rec.on_net_send(1, 0, 128);
        for _ in 0..5 {
            rec.on_net_send(0, 1, 64);
        }
        let events = rec.events();
        let edge = |from: u32, to: u32| {
            events
                .iter()
                .filter(
                    |e| matches!(e.event, Event::NetSend { from: f, to: t, .. } if f == from && t == to),
                )
                .count()
        };
        assert_eq!(edge(0, 1), 3, "seq 0, 10, 20 of the busy edge");
        assert_eq!(edge(1, 0), 1, "first send on a fresh edge always lands");
    }

    #[test]
    fn net_send_out_of_range_endpoint_uses_fallback_slot() {
        let cfg = ObsConfig {
            net_sample_every: 10,
            ..ObsConfig::enabled()
        };
        let rec = Recorder::new(2, &cfg);
        rec.on_net_send(7, 9, 64); // out of range: must not panic
        assert_eq!(rec.metrics().counter("net_sends"), 1);
    }

    #[test]
    fn net_send_sampling_disabled_at_zero() {
        let cfg = ObsConfig {
            net_sample_every: 0,
            ..ObsConfig::enabled()
        };
        let rec = Recorder::new(2, &cfg);
        rec.on_net_send(0, 1, 64);
        assert_eq!(rec.metrics().counter("net_sends"), 1);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn recorder_builds_a_trace_report_from_span_events() {
        let rec = Recorder::new(2, &ObsConfig::enabled());
        rec.record(
            0,
            Event::SpanOpen {
                trace: 1,
                span: 1,
                parent: 0,
                kind: SpanKind::Job,
                subject: 0,
            },
        );
        assert!(rec.trace_report().is_none(), "job still open");
        rec.record(0, Event::SpanClose { span: 1 });
        let report = rec.trace_report().expect("job closed");
        assert_eq!(report.root_span, 1);
        assert_eq!(report.phase_sum_ns(), report.wall_ns);
        let m = rec.metrics();
        assert_eq!(m.counter("spans_opened"), 1);
        assert_eq!(m.counter("spans_closed"), 1);
    }

    #[test]
    fn json_exports_are_well_formed() {
        let rec = Recorder::new(2, &ObsConfig::enabled());
        rec.record(0, Event::JobSubmitted { job: 0 });
        rec.record(0, Event::JobFinished { job: 0 });
        let trace = rec.chrome_trace_json();
        assert!(trace.contains("\"traceEvents\":["), "{trace}");
        let metrics = rec.metrics_json();
        assert!(
            metrics.starts_with('{') && metrics.ends_with('}'),
            "{metrics}"
        );
        assert!(metrics.contains("\"events_total\":2"), "{metrics}");
        assert!(metrics.contains("\"events_lost\":0"), "{metrics}");
    }
}
