//! Span-DAG reconstruction and critical-path analysis over recorded events.
//!
//! The engine records five span lifecycle marks ([`Event::SpanOpen`] /
//! [`Event::SpanRecv`] / [`Event::SpanReady`] / [`Event::SpanActive`] /
//! [`Event::SpanClose`]) plus per-task [`Event::TaskComputed`] compute marks. This module folds
//! them back into a [`SpanDag`] — every span's begin/end and its
//! queue/network intervals — and derives a [`TraceReport`]:
//!
//! - the **critical path** of the slowest-finishing job: the chain of
//!   spans from the job root down to its latest-closing descendant,
//!   decomposed into contiguous phase segments;
//! - **phase totals** (scheduling / network / queueing / split compute /
//!   gather) that sum *exactly* to the job's wall clock — the segment
//!   boundaries telescope by construction, so nothing is lost or double
//!   counted;
//! - per-span-kind **latency summaries** (exact p50/p95 over the trace's
//!   closed spans, not histogram-bucket approximations).
//!
//! Everything is built from `BTreeMap`s and explicitly ordered vectors:
//! given the same event log (same-seed virtual-clock replay), the report
//! JSON is byte-identical.

use crate::event::{Event, TimedEvent};
use crate::span::SpanKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where critical-path time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Master-side work: queue wait in `Bplan`, result folding, job
    /// bookkeeping.
    Scheduling,
    /// Frames in flight (plan dispatch, result return), including pacing
    /// and fault-injected delay.
    Network,
    /// A task sat in a worker's ready queue waiting for a comper.
    Queueing,
    /// Split kernels / subtree training on a comper.
    Compute,
    /// A subtree task assembling its dataset (`ReqCols`/`ReqIx` fan-in).
    Gather,
}

/// Fixed export order of the phases.
pub const PHASES: [Phase; 5] = [
    Phase::Scheduling,
    Phase::Network,
    Phase::Queueing,
    Phase::Compute,
    Phase::Gather,
];

impl Phase {
    /// A stable lowercase name, used in exported JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Scheduling => "scheduling",
            Phase::Network => "network",
            Phase::Queueing => "queueing",
            Phase::Compute => "compute",
            Phase::Gather => "gather",
        }
    }
}

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInfo {
    /// The span id.
    pub span: u64,
    /// The trace (root job span) it belongs to.
    pub trace: u64,
    /// The parent span (0 for trace roots).
    pub parent: u64,
    /// What work it covers.
    pub kind: SpanKind,
    /// Job id / `TaskId.0` of the subject.
    pub subject: u64,
    /// When the master opened it.
    pub open_ns: u64,
    /// When the master closed it (`None` if it never closed — crash,
    /// revocation, or ring loss).
    pub close_ns: Option<u64>,
    /// Earliest `SpanRecv` (first machine to receive the work).
    pub recv_ns: Option<u64>,
    /// Earliest `SpanReady` (work fully provisioned, queued for a comper).
    pub ready_ns: Option<u64>,
    /// Earliest `SpanActive` (work started executing).
    pub active_ns: Option<u64>,
    /// Latest `TaskComputed` for the subject task (compute finished).
    pub computed_ns: Option<u64>,
    /// Machines that recorded a `SpanRecv`, ascending and deduplicated.
    pub recv_nodes: Vec<u32>,
    /// Child spans, ascending.
    pub children: Vec<u64>,
}

impl SpanInfo {
    /// Close-to-open duration, if closed.
    pub fn duration_ns(&self) -> Option<u64> {
        self.close_ns.map(|c| c.saturating_sub(self.open_ns))
    }
}

/// The reconstructed span DAG of a whole run (all traces).
#[derive(Debug, Clone, Default)]
pub struct SpanDag {
    spans: BTreeMap<u64, SpanInfo>,
}

impl SpanDag {
    /// Rebuilds the DAG from a recorded event log (any order).
    pub fn from_events(events: &[TimedEvent]) -> SpanDag {
        let mut spans: BTreeMap<u64, SpanInfo> = BTreeMap::new();
        for te in events {
            if let Event::SpanOpen {
                trace,
                span,
                parent,
                kind,
                subject,
            } = te.event
            {
                spans.entry(span).or_insert(SpanInfo {
                    span,
                    trace,
                    parent,
                    kind,
                    subject,
                    open_ns: te.ts_ns,
                    close_ns: None,
                    recv_ns: None,
                    ready_ns: None,
                    active_ns: None,
                    computed_ns: None,
                    recv_nodes: Vec::new(),
                    children: Vec::new(),
                });
            }
        }
        // Task subject -> span, for correlating `TaskComputed` marks.
        let mut by_task: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.values() {
            if matches!(s.kind, SpanKind::ColumnTask | SpanKind::SubtreeTask) {
                by_task.insert(s.subject, s.span);
            }
        }
        for te in events {
            match te.event {
                Event::SpanRecv { span, node } => {
                    if let Some(s) = spans.get_mut(&span) {
                        s.recv_ns = Some(s.recv_ns.map_or(te.ts_ns, |r| r.min(te.ts_ns)));
                        if let Err(at) = s.recv_nodes.binary_search(&node) {
                            s.recv_nodes.insert(at, node);
                        }
                    }
                }
                Event::SpanReady { span, .. } => {
                    if let Some(s) = spans.get_mut(&span) {
                        s.ready_ns = Some(s.ready_ns.map_or(te.ts_ns, |r| r.min(te.ts_ns)));
                    }
                }
                Event::SpanActive { span, .. } => {
                    if let Some(s) = spans.get_mut(&span) {
                        s.active_ns = Some(s.active_ns.map_or(te.ts_ns, |a| a.min(te.ts_ns)));
                    }
                }
                Event::SpanClose { span } => {
                    if let Some(s) = spans.get_mut(&span) {
                        s.close_ns = Some(s.close_ns.map_or(te.ts_ns, |c| c.max(te.ts_ns)));
                    }
                }
                Event::TaskComputed { task, .. } => {
                    if let Some(&span) = by_task.get(&task) {
                        if let Some(s) = spans.get_mut(&span) {
                            s.computed_ns =
                                Some(s.computed_ns.map_or(te.ts_ns, |c| c.max(te.ts_ns)));
                        }
                    }
                }
                _ => {}
            }
        }
        let edges: Vec<(u64, u64)> = spans
            .values()
            .filter(|s| s.parent != 0)
            .map(|s| (s.parent, s.span))
            .collect();
        for (parent, child) in edges {
            if let Some(p) = spans.get_mut(&parent) {
                p.children.push(child); // BTreeMap scan order => ascending
            }
        }
        SpanDag { spans }
    }

    /// A span by id.
    pub fn span(&self, id: u64) -> Option<&SpanInfo> {
        self.spans.get(&id)
    }

    /// Every span, ascending by id.
    pub fn spans(&self) -> impl Iterator<Item = &SpanInfo> {
        self.spans.values()
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The root (job) span that closed last, if any closed at all.
    pub fn last_finished_root(&self) -> Option<&SpanInfo> {
        self.spans
            .values()
            .filter(|s| s.kind == SpanKind::Job && s.close_ns.is_some())
            .max_by_key(|s| (s.close_ns, s.span))
    }

    /// All spans of `trace`, ascending by id.
    pub fn trace_spans(&self, trace: u64) -> impl Iterator<Item = &SpanInfo> {
        self.spans.values().filter(move |s| s.trace == trace)
    }
}

/// One critical-path segment: a contiguous time slice attributed to a span
/// and a phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The span the slice belongs to.
    pub span: u64,
    /// That span's kind.
    pub kind: SpanKind,
    /// That span's subject id.
    pub subject: u64,
    /// The phase charged for the slice.
    pub phase: Phase,
    /// Slice start (ns since recorder start).
    pub start_ns: u64,
    /// Slice end (exclusive).
    pub end_ns: u64,
}

impl Segment {
    /// Slice length.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Exact summary of one span kind's closed-span durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindSummary {
    /// Closed spans of this kind in the trace.
    pub count: u64,
    /// Mean duration (ns).
    pub mean_ns: u64,
    /// Exact median duration (ns).
    pub p50_ns: u64,
    /// Exact 95th-percentile duration (ns).
    pub p95_ns: u64,
}

/// The analysis result for the slowest-finishing job of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// The analyzed trace (its root job span id).
    pub trace: u64,
    /// The root job span.
    pub root_span: u64,
    /// The root job's subject id.
    pub job: u64,
    /// Root close − root open: the wall clock the phases decompose.
    pub wall_ns: u64,
    /// The critical path, in time order; segment boundaries telescope, so
    /// the durations sum to exactly `wall_ns`.
    pub critical_path: Vec<Segment>,
    /// Total ns per phase over the critical path, in [`PHASES`] order.
    pub phase_totals_ns: [u64; 5],
    /// Per-kind latency summaries over the trace's closed spans, in
    /// [`SpanKind`] declaration order (job, plan, column, subtree).
    pub kind_summaries: [KindSummary; 5],
    /// Spans reconstructed for this trace.
    pub spans_total: u64,
}

/// Appends phase slices of `span` covering exactly `[lo, hi)` to `out`.
/// Marks outside the window are clamped; missing marks collapse their
/// segment to zero length (and are skipped).
fn decompose(span: &SpanInfo, lo: u64, hi: u64, out: &mut Vec<Segment>) {
    if hi <= lo {
        return;
    }
    let phases: &[(Option<u64>, Phase)] = match span.kind {
        // A job's own (non-child) time is master bookkeeping.
        SpanKind::Job => &[(Some(u64::MAX), Phase::Scheduling)],
        // enqueue -> popped for assignment = queue wait; popped -> closed
        // (the plan's frames queued for the sending thread) = outbound
        // network. Their transmission falls in the task's open -> recv.
        SpanKind::Plan => &[
            (span.active_ns, Phase::Scheduling),
            (Some(u64::MAX), Phase::Network),
        ],
        SpanKind::ColumnTask => &[
            (span.recv_ns, Phase::Network),
            (span.active_ns, Phase::Queueing),
            (span.computed_ns, Phase::Compute),
            (Some(u64::MAX), Phase::Network),
        ],
        // recv -> ready is the ReqCols/ReqIx dataset assembly; ready ->
        // active is the wait for a comper behind the worker's other tasks.
        // Without a ready mark the whole stretch counts as queueing.
        SpanKind::SubtreeTask => &[
            (span.recv_ns, Phase::Network),
            (span.ready_ns, Phase::Gather),
            (span.active_ns, Phase::Queueing),
            (span.computed_ns, Phase::Compute),
            (Some(u64::MAX), Phase::Network),
        ],
        // admission -> batch dispatch = queueing; dispatch -> response
        // = engine compute (ts-front micro-batch service).
        SpanKind::Request => &[
            (span.active_ns, Phase::Queueing),
            (Some(u64::MAX), Phase::Compute),
        ],
    };
    let mut cursor = lo;
    for &(mark, phase) in phases {
        let bound = match mark {
            Some(m) => m.clamp(cursor, hi),
            None => cursor,
        };
        if bound > cursor {
            out.push(Segment {
                span: span.span,
                kind: span.kind,
                subject: span.subject,
                phase,
                start_ns: cursor,
                end_ns: bound,
            });
            cursor = bound;
        }
    }
    if cursor < hi {
        // Trailing slack (all marks short of `hi`): charge the span's
        // final phase so coverage stays exact.
        let phase = phases.last().expect("every kind has phases").1;
        match out.last_mut() {
            Some(seg) if seg.span == span.span && seg.phase == phase && seg.end_ns == cursor => {
                seg.end_ns = hi;
            }
            _ => out.push(Segment {
                span: span.span,
                kind: span.kind,
                subject: span.subject,
                phase,
                start_ns: cursor,
                end_ns: hi,
            }),
        }
    }
}

impl TraceReport {
    /// Builds the report for the slowest-finishing job in `dag`. `None`
    /// when no job span closed.
    pub fn build(dag: &SpanDag) -> Option<TraceReport> {
        let root = dag.last_finished_root()?;
        let root_close = root.close_ns.expect("root is closed");

        // Latest-closing strict descendant of the root (the root itself
        // always closes last, so it can't anchor the walk); when nothing
        // below it closed, the root is its own anchor.
        let mut deepest: Option<&SpanInfo> = None;
        let mut stack: Vec<u64> = root.children.clone();
        let mut visited: std::collections::BTreeSet<u64> = [root.span].into();
        while let Some(id) = stack.pop() {
            if !visited.insert(id) {
                continue;
            }
            let Some(s) = dag.span(id) else { continue };
            if let Some(close) = s.close_ns {
                let close = close.min(root_close);
                let beats = deepest.is_none_or(|d| {
                    (close, s.span) > (d.close_ns.expect("closed").min(root_close), d.span)
                });
                if beats {
                    deepest = Some(s);
                }
            }
            stack.extend(&s.children);
        }
        let deepest = deepest.unwrap_or(root);

        // Parent chain root -> ... -> deepest.
        let mut chain: Vec<&SpanInfo> = Vec::new();
        let mut cur = deepest;
        loop {
            chain.push(cur);
            if cur.span == root.span {
                break;
            }
            match dag.span(cur.parent) {
                Some(p) if !chain.iter().any(|c| c.span == p.span) => cur = p,
                // Broken chain (lost events): degrade to root-only.
                _ => {
                    chain.clear();
                    chain.push(root);
                    break;
                }
            }
        }
        chain.reverse();
        let deepest = *chain.last().expect("chain is non-empty");

        // Decompose: each chain span owns [its open, next span's open);
        // the deepest owns its full interval; the root absorbs the
        // fold-in tail [deepest close, root close). Boundaries are forced
        // monotone, so the segments tile [root open, root close) exactly.
        let mut path = Vec::new();
        let mut cursor = root.open_ns;
        for w in chain.windows(2) {
            let next_open = w[1].open_ns.clamp(cursor, root_close);
            decompose(w[0], cursor, next_open, &mut path);
            cursor = next_open;
        }
        let deep_close = deepest
            .close_ns
            .unwrap_or(root_close)
            .clamp(cursor, root_close);
        decompose(deepest, cursor, deep_close, &mut path);
        if deep_close < root_close {
            decompose(root, deep_close, root_close, &mut path);
        }

        let mut phase_totals_ns = [0u64; 5];
        for seg in &path {
            let at = PHASES
                .iter()
                .position(|p| *p == seg.phase)
                .expect("phase is listed");
            phase_totals_ns[at] += seg.dur_ns();
        }

        let kinds = [
            SpanKind::Job,
            SpanKind::Plan,
            SpanKind::ColumnTask,
            SpanKind::SubtreeTask,
            SpanKind::Request,
        ];
        let mut kind_summaries = [KindSummary::default(); 5];
        for (at, kind) in kinds.iter().enumerate() {
            let mut durs: Vec<u64> = dag
                .trace_spans(root.trace)
                .filter(|s| s.kind == *kind)
                .filter_map(|s| s.duration_ns())
                .collect();
            durs.sort_unstable();
            if durs.is_empty() {
                continue;
            }
            let exact = |q: f64| {
                let idx = ((q * (durs.len() - 1) as f64).round() as usize).min(durs.len() - 1);
                durs[idx]
            };
            kind_summaries[at] = KindSummary {
                count: durs.len() as u64,
                mean_ns: durs.iter().sum::<u64>() / durs.len() as u64,
                p50_ns: exact(0.5),
                p95_ns: exact(0.95),
            };
        }

        Some(TraceReport {
            trace: root.trace,
            root_span: root.span,
            job: root.subject,
            wall_ns: root_close - root.open_ns,
            critical_path: path,
            phase_totals_ns,
            kind_summaries,
            spans_total: dag.trace_spans(root.trace).count() as u64,
        })
    }

    /// [`SpanDag::from_events`] + [`TraceReport::build`] in one call.
    pub fn from_events(events: &[TimedEvent]) -> Option<TraceReport> {
        TraceReport::build(&SpanDag::from_events(events))
    }

    /// Sum of the phase totals (equals `wall_ns` by construction).
    pub fn phase_sum_ns(&self) -> u64 {
        self.phase_totals_ns.iter().sum()
    }

    /// Total ns charged to `phase` on the critical path.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        let at = PHASES
            .iter()
            .position(|p| *p == phase)
            .expect("phase is listed");
        self.phase_totals_ns[at]
    }

    /// The report as a JSON object string (deterministic field order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"trace\":{},\"root_span\":{},\"job\":{},\"wall_ns\":{},\"spans_total\":{}",
            self.trace, self.root_span, self.job, self.wall_ns, self.spans_total
        );
        s.push_str(",\"phase_totals_ns\":{");
        for (i, phase) in PHASES.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", phase.name(), self.phase_totals_ns[i]);
        }
        s.push_str("},\"critical_path\":[");
        for (i, seg) in self.critical_path.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"span\":{},\"kind\":\"{}\",\"subject\":{},\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                seg.span,
                seg.kind.name(),
                seg.subject,
                seg.phase.name(),
                seg.start_ns,
                seg.end_ns
            );
        }
        s.push_str("],\"span_kind_latency\":{");
        let kinds = [
            SpanKind::Job,
            SpanKind::Plan,
            SpanKind::ColumnTask,
            SpanKind::SubtreeTask,
            SpanKind::Request,
        ];
        for (i, kind) in kinds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let k = &self.kind_summaries[i];
            let _ = write!(
                s,
                "\"{}\":{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{}}}",
                kind.name(),
                k.count,
                k.mean_ns,
                k.p50_ns,
                k.p95_ns
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    fn te(ts_ns: u64, node: u32, event: Event) -> TimedEvent {
        TimedEvent { ts_ns, node, event }
    }

    fn open(
        ts: u64,
        trace: u64,
        span: u64,
        parent: u64,
        kind: SpanKind,
        subject: u64,
    ) -> TimedEvent {
        te(
            ts,
            0,
            Event::SpanOpen {
                trace,
                span,
                parent,
                kind,
                subject,
            },
        )
    }

    /// job(1) -> plan(2) -> column task(3) on worker 2, one level.
    fn small_trace() -> Vec<TimedEvent> {
        vec![
            open(0, 1, 1, 0, SpanKind::Job, 7),
            open(100, 1, 2, 1, SpanKind::Plan, 40),
            te(150, 0, Event::SpanActive { span: 2, node: 0 }),
            open(160, 1, 3, 2, SpanKind::ColumnTask, 40),
            te(200, 0, Event::SpanClose { span: 2 }),
            te(300, 2, Event::SpanRecv { span: 3, node: 2 }),
            te(400, 2, Event::SpanActive { span: 3, node: 2 }),
            te(
                900,
                2,
                Event::TaskComputed {
                    task: 40,
                    node: 2,
                    busy_ns: 500,
                },
            ),
            te(1_000, 0, Event::SpanClose { span: 3 }),
            te(1_200, 0, Event::SpanClose { span: 1 }),
        ]
    }

    #[test]
    fn dag_reconstructs_parents_and_marks() {
        let dag = SpanDag::from_events(&small_trace());
        assert_eq!(dag.len(), 3);
        let task = dag.span(3).unwrap();
        assert_eq!(task.parent, 2);
        assert_eq!(task.kind, SpanKind::ColumnTask);
        assert_eq!(task.recv_ns, Some(300));
        assert_eq!(task.active_ns, Some(400));
        assert_eq!(task.computed_ns, Some(900));
        assert_eq!(task.close_ns, Some(1_000));
        assert_eq!(task.recv_nodes, vec![2]);
        assert_eq!(dag.span(2).unwrap().children, vec![3]);
        assert_eq!(dag.span(1).unwrap().children, vec![2]);
        assert_eq!(dag.last_finished_root().unwrap().span, 1);
    }

    #[test]
    fn critical_path_phases_tile_the_wall_clock() {
        let report = TraceReport::from_events(&small_trace()).expect("job closed");
        assert_eq!(report.trace, 1);
        assert_eq!(report.job, 7);
        assert_eq!(report.wall_ns, 1_200);
        assert!(!report.critical_path.is_empty());
        // Exact tiling: contiguous, ordered, summing to the wall clock.
        assert_eq!(report.phase_sum_ns(), report.wall_ns);
        assert_eq!(report.critical_path.first().unwrap().start_ns, 0);
        assert_eq!(report.critical_path.last().unwrap().end_ns, 1_200);
        for w in report.critical_path.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "segments must be contiguous");
        }
        // job [0,100) scheduling; plan [100,150) scheduling, [150,160)
        // network; task [160,300) network, [300,400) queueing, [400,900)
        // compute, [900,1000) network; fold tail [1000,1200) scheduling.
        assert_eq!(report.phase_ns(Phase::Scheduling), 100 + 50 + 200);
        assert_eq!(report.phase_ns(Phase::Network), 10 + 140 + 100);
        assert_eq!(report.phase_ns(Phase::Queueing), 100);
        assert_eq!(report.phase_ns(Phase::Compute), 500);
        assert_eq!(report.phase_ns(Phase::Gather), 0);
    }

    #[test]
    fn subtree_ready_mark_separates_gather_from_queueing() {
        // job(1) -> plan(2) -> subtree task(3): received at 300, dataset
        // assembled at 350, picked up by a comper only at 800.
        let mut events = vec![
            open(0, 1, 1, 0, SpanKind::Job, 7),
            open(100, 1, 2, 1, SpanKind::Plan, 40),
            te(150, 0, Event::SpanActive { span: 2, node: 0 }),
            open(160, 1, 3, 2, SpanKind::SubtreeTask, 40),
            te(200, 0, Event::SpanClose { span: 2 }),
            te(300, 2, Event::SpanRecv { span: 3, node: 2 }),
            te(350, 2, Event::SpanReady { span: 3, node: 2 }),
            te(800, 2, Event::SpanActive { span: 3, node: 2 }),
            te(
                900,
                2,
                Event::TaskComputed {
                    task: 40,
                    node: 2,
                    busy_ns: 100,
                },
            ),
            te(1_000, 0, Event::SpanClose { span: 3 }),
            te(1_200, 0, Event::SpanClose { span: 1 }),
        ];
        let report = TraceReport::from_events(&events).unwrap();
        assert_eq!(
            SpanDag::from_events(&events).span(3).unwrap().ready_ns,
            Some(350)
        );
        assert_eq!(report.phase_ns(Phase::Gather), 50);
        assert_eq!(report.phase_ns(Phase::Queueing), 450);
        assert_eq!(report.phase_ns(Phase::Compute), 100);
        assert_eq!(report.phase_sum_ns(), report.wall_ns);
        for w in report.critical_path.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "segments must be contiguous");
        }

        // A log without the ready mark still tiles; the unexplained stretch
        // is queueing, never gather.
        events.retain(|e| !matches!(e.event, Event::SpanReady { .. }));
        let report = TraceReport::from_events(&events).unwrap();
        assert_eq!(report.phase_ns(Phase::Gather), 0);
        assert_eq!(report.phase_ns(Phase::Queueing), 500);
        assert_eq!(report.phase_sum_ns(), report.wall_ns);
    }

    #[test]
    fn report_json_is_wellformed_and_deterministic() {
        let a = TraceReport::from_events(&small_trace()).unwrap().to_json();
        let b = TraceReport::from_events(&small_trace()).unwrap().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'), "{a}");
        assert!(a.contains("\"phase_totals_ns\""), "{a}");
        assert!(a.contains("\"critical_path\""), "{a}");
        assert!(a.contains("\"kind\":\"column_task\""), "{a}");
    }

    #[test]
    fn unclosed_job_yields_no_report() {
        let events = vec![open(0, 1, 1, 0, SpanKind::Job, 0)];
        assert!(TraceReport::from_events(&events).is_none());
        let dag = SpanDag::from_events(&events);
        assert!(dag.last_finished_root().is_none());
    }

    #[test]
    fn missing_marks_degrade_gracefully() {
        // A task span with no recv/active/computed marks (crashed worker):
        // its whole interval is charged to network, and the totals still
        // tile the wall clock.
        let events = vec![
            open(0, 1, 1, 0, SpanKind::Job, 0),
            open(10, 1, 2, 1, SpanKind::Plan, 5),
            open(20, 1, 3, 2, SpanKind::SubtreeTask, 5),
            te(500, 0, Event::SpanClose { span: 3 }),
            te(600, 0, Event::SpanClose { span: 1 }),
        ];
        let report = TraceReport::from_events(&events).unwrap();
        assert_eq!(report.phase_sum_ns(), report.wall_ns);
        assert_eq!(report.wall_ns, 600);
        // Plan [10,20) with no active mark + task [20,500) with no marks
        // both fall through to their final (network) phase.
        assert_eq!(report.phase_ns(Phase::Network), 10 + 480);
    }

    #[test]
    fn deepest_descendant_wins_over_shallow_late_closer() {
        // Two plans; the second's task closes latest and must anchor the
        // path even though the first plan closes after the second opens.
        let events = vec![
            open(0, 1, 1, 0, SpanKind::Job, 0),
            open(10, 1, 2, 1, SpanKind::Plan, 5),
            te(40, 0, Event::SpanClose { span: 2 }),
            open(50, 1, 4, 1, SpanKind::Plan, 6),
            open(60, 1, 5, 4, SpanKind::ColumnTask, 6),
            te(70, 1, Event::SpanRecv { span: 5, node: 1 }),
            te(300, 0, Event::SpanClose { span: 5 }),
            te(400, 0, Event::SpanClose { span: 4 }),
            te(500, 0, Event::SpanClose { span: 1 }),
        ];
        let report = TraceReport::from_events(&events).unwrap();
        // Chain is job -> plan(4): plan 4 closes at 400, after task 5.
        let on_path: Vec<u64> = report.critical_path.iter().map(|s| s.span).collect();
        assert!(on_path.contains(&4), "{on_path:?}");
        assert_eq!(report.phase_sum_ns(), report.wall_ns);
    }
}
