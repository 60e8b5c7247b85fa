//! Chrome trace-event JSON export (loadable in Perfetto / `chrome://tracing`).
//!
//! Mapping:
//!
//! - paired lifecycle events become complete spans (`"ph":"X"`): a
//!   `ColumnTaskDispatched`/`ColumnTaskCompleted` pair is a `column_task`
//!   span on the worker's process track, `SubtreeTaskDelegated`/
//!   `SubtreeTaskBuilt` a `subtree_task` span, `JobSubmitted`/`JobFinished`
//!   a `job` span on the master's track;
//! - `TaskComputed` becomes a retroactive `compute` span (the comper only
//!   knows its busy time once it finishes);
//! - span lifecycle events become *flow* records: a task-kind `SpanOpen`
//!   emits a flow start (`"ph":"s"`) on the master and the matching
//!   `SpanRecv` a flow finish (`"ph":"f"`, `"bp":"e"`) on the receiving
//!   machine, so Perfetto draws the causal arrow of every cross-machine
//!   handoff; a plan span's `SpanOpen`/`SpanClose` pair is a `plan`
//!   complete span on the master's track;
//! - `BplanPush` becomes a `bplan_len` counter sample (`"ph":"C"`);
//! - everything else becomes an instant (`"ph":"i"`);
//! - every process id gets a `process_name` metadata record (`"ph":"M"`).
//!
//! Timestamps are microseconds since recorder start. One pid per simulated
//! machine: pid 0 is the master, pid `n` is worker `n`.

use crate::event::{DequeEnd, Event, TimedEvent};
use crate::span::SpanKind;
use std::collections::BTreeSet;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

const MASTER_PID: u32 = 0;

fn us(ts_ns: u64) -> String {
    format!("{:.3}", ts_ns as f64 / 1_000.0)
}

struct Emitter {
    out: String,
    first: bool,
    pids: BTreeSet<u32>,
}

impl Emitter {
    fn new() -> Emitter {
        Emitter {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            first: true,
            pids: BTreeSet::new(),
        }
    }

    /// Emits one trace record. `body` is everything after the common
    /// `name`/`ph`/`ts`/`pid` fields (leading comma included by the caller
    /// convention: pass `",..."` or `""`).
    fn emit(&mut self, name: &str, ph: char, ts_ns: u64, pid: u32, body: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.pids.insert(pid);
        self.out.push_str("{\"name\":");
        tsjson::write_escaped(name, &mut self.out);
        let _ = write!(
            self.out,
            ",\"ph\":\"{}\",\"ts\":{},\"pid\":{}{}}}",
            ph,
            us(ts_ns),
            pid,
            body,
        );
    }

    fn span(&mut self, name: &str, start_ns: u64, end_ns: u64, pid: u32, tid: u64, args: &str) {
        let dur = end_ns.saturating_sub(start_ns);
        let body = format!(",\"tid\":{},\"dur\":{},\"args\":{{{}}}", tid, us(dur), args);
        self.emit(name, 'X', start_ns, pid, &body);
    }

    fn instant(&mut self, name: &str, ts_ns: u64, pid: u32, args: &str) {
        let body = format!(",\"tid\":0,\"s\":\"p\",\"args\":{{{}}}", args);
        self.emit(name, 'i', ts_ns, pid, &body);
    }

    fn counter(&mut self, name: &str, ts_ns: u64, pid: u32, args: &str) {
        let body = format!(",\"tid\":0,\"args\":{{{}}}", args);
        self.emit(name, 'C', ts_ns, pid, &body);
    }

    /// A flow record (`ph` is `'s'` start or `'f'` finish); `id` ties the
    /// two ends of the arrow together (we use the span id). Finishes bind
    /// to the enclosing slice's end (`"bp":"e"`).
    fn flow(&mut self, ph: char, ts_ns: u64, pid: u32, tid: u64, id: u64) {
        let bp = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
        let body = format!(",\"tid\":{tid},\"cat\":\"span\",\"id\":{id}{bp}");
        self.emit("handoff", ph, ts_ns, pid, &body);
    }

    fn finish(mut self) -> String {
        // Metadata records carry no ts; pid 0 is the master, the rest are
        // the simulated worker machines.
        for pid in self.pids.clone() {
            let name = if pid == MASTER_PID {
                "master".to_string()
            } else {
                format!("worker{pid}")
            };
            let body = format!(",\"args\":{{\"name\":\"{name}\"}}");
            self.emit("process_name", 'M', 0, pid, &body);
        }
        self.out.push_str("]}");
        self.out
    }
}

/// Renders `events` (any order) as a Chrome trace-event JSON document.
pub(crate) fn export(mut events: Vec<TimedEvent>) -> String {
    events.sort_by_key(|e| e.ts_ns);
    let mut e = Emitter::new();

    // Open ends of not-yet-paired spans, keyed by (kind, id[, node]).
    let mut open_cols: HashMap<(u64, u32), TimedEvent> = HashMap::new();
    let mut open_subs: HashMap<u64, TimedEvent> = HashMap::new();
    let mut open_jobs: HashMap<u64, TimedEvent> = HashMap::new();
    // Plan spans awaiting their close, and span -> subject for flow tids.
    let mut open_plans: HashMap<u64, TimedEvent> = HashMap::new();
    let mut span_subjects: HashMap<u64, u64> = HashMap::new();

    for ev in &events {
        match ev.event {
            Event::SpanOpen {
                span,
                kind,
                subject,
                ..
            } => {
                span_subjects.insert(span, subject);
                match kind {
                    SpanKind::Plan => {
                        open_plans.insert(span, *ev);
                    }
                    // A task span opens at the master and is received on a
                    // worker: the flow start half of the causal arrow.
                    SpanKind::ColumnTask | SpanKind::SubtreeTask => {
                        e.flow('s', ev.ts_ns, MASTER_PID, subject + 1, span);
                    }
                    // Job spans root the trace; Request spans live entirely
                    // on the front node — neither crosses a machine edge.
                    SpanKind::Job | SpanKind::Request => {}
                }
            }
            Event::SpanRecv { span, node } => {
                let tid = span_subjects.get(&span).copied().unwrap_or(0) + 1;
                e.flow('f', ev.ts_ns, node, tid, span);
            }
            Event::SpanReady { .. } | Event::SpanActive { .. } => {}
            Event::SpanClose { span } => {
                if let Some(start) = open_plans.remove(&span) {
                    let subject = match start.event {
                        Event::SpanOpen { subject, .. } => subject,
                        _ => 0,
                    };
                    e.span(
                        "plan",
                        start.ts_ns,
                        ev.ts_ns,
                        MASTER_PID,
                        subject + 1,
                        &format!("\"span\":{span},\"task\":{subject}"),
                    );
                }
            }
            Event::JobSubmitted { job } => {
                open_jobs.insert(job, *ev);
            }
            Event::JobFinished { job } => match open_jobs.remove(&job) {
                Some(start) => e.span(
                    "job",
                    start.ts_ns,
                    ev.ts_ns,
                    MASTER_PID,
                    job + 1,
                    &format!("\"job\":{job}"),
                ),
                None => e.instant(
                    "job_finished",
                    ev.ts_ns,
                    MASTER_PID,
                    &format!("\"job\":{job}"),
                ),
            },
            Event::ColumnTaskDispatched { task, node, .. } => {
                open_cols.insert((task, node), *ev);
            }
            Event::ColumnTaskCompleted {
                task,
                node,
                latency_ns,
            } => match open_cols.remove(&(task, node)) {
                Some(start) => {
                    let (cols, bytes) = match start.event {
                        Event::ColumnTaskDispatched { cols, bytes, .. } => (cols, bytes),
                        _ => (0, 0),
                    };
                    e.span(
                        "column_task",
                        start.ts_ns,
                        ev.ts_ns,
                        node,
                        task + 1,
                        &format!("\"task\":{task},\"cols\":{cols},\"bytes\":{bytes}"),
                    );
                }
                None => e.instant(
                    "column_task_completed",
                    ev.ts_ns,
                    node,
                    &format!("\"task\":{task},\"latency_ns\":{latency_ns}"),
                ),
            },
            Event::SubtreeTaskDelegated { task, .. } => {
                open_subs.insert(task, *ev);
            }
            Event::SubtreeTaskBuilt {
                task,
                node,
                nodes,
                latency_ns,
            } => match open_subs.remove(&task) {
                Some(start) => {
                    let rows = match start.event {
                        Event::SubtreeTaskDelegated { rows, .. } => rows,
                        _ => 0,
                    };
                    e.span(
                        "subtree_task",
                        start.ts_ns,
                        ev.ts_ns,
                        node,
                        task + 1,
                        &format!("\"task\":{task},\"rows\":{rows},\"nodes\":{nodes}"),
                    );
                }
                None => e.instant(
                    "subtree_task_built",
                    ev.ts_ns,
                    node,
                    &format!("\"task\":{task},\"latency_ns\":{latency_ns}"),
                ),
            },
            Event::TaskComputed {
                task,
                node,
                busy_ns,
            } => {
                // The comper records at completion; draw the span backwards.
                e.span(
                    "compute",
                    ev.ts_ns.saturating_sub(busy_ns),
                    ev.ts_ns,
                    node,
                    task + 1,
                    &format!("\"task\":{task}"),
                );
            }
            Event::BplanPush {
                end,
                depth,
                rows,
                qlen,
            } => {
                e.counter(
                    "bplan_len",
                    ev.ts_ns,
                    MASTER_PID,
                    &format!("\"len\":{qlen}"),
                );
                let end = match end {
                    DequeEnd::Head => "head",
                    DequeEnd::Tail => "tail",
                };
                e.instant(
                    "bplan_push",
                    ev.ts_ns,
                    MASTER_PID,
                    &format!("\"end\":\"{end}\",\"depth\":{depth},\"rows\":{rows}"),
                );
            }
            Event::SplitChosen {
                task,
                node,
                attr,
                gain,
            } => e.instant(
                "split_chosen",
                ev.ts_ns,
                node,
                // JSON has no NaN or infinity.
                &format!(
                    "\"task\":{task},\"attr\":{attr},\"gain\":{}",
                    if gain.is_finite() { gain } else { 0.0 }
                ),
            ),
            Event::WorkerCrashed { node } => e.instant(
                "worker_crashed",
                ev.ts_ns,
                node,
                &format!("\"node\":{node}"),
            ),
            Event::WorkerRecovered { node } => e.instant(
                "worker_recovered",
                ev.ts_ns,
                node,
                &format!("\"node\":{node}"),
            ),
            Event::MessageDropped { from, to, seq } => e.instant(
                "message_dropped",
                ev.ts_ns,
                from,
                &format!("\"to\":{to},\"seq\":{seq}"),
            ),
            Event::MessageDelayed {
                from,
                to,
                seq,
                delay_ns,
            } => e.instant(
                "message_delayed",
                ev.ts_ns,
                from,
                &format!("\"to\":{to},\"seq\":{seq},\"delay_ns\":{delay_ns}"),
            ),
            Event::RetrySent {
                from,
                to,
                seq,
                attempt,
                span,
            } => e.instant(
                "retry_sent",
                ev.ts_ns,
                from,
                &format!("\"to\":{to},\"seq\":{seq},\"attempt\":{attempt},\"span\":{span}"),
            ),
            Event::DupDropped {
                node,
                from,
                seq,
                span,
            } => e.instant(
                "dup_dropped",
                ev.ts_ns,
                node,
                &format!("\"from\":{from},\"seq\":{seq},\"span\":{span}"),
            ),
            Event::HeartbeatMissed { worker, missed } => e.instant(
                "heartbeat_missed",
                ev.ts_ns,
                MASTER_PID,
                &format!("\"worker\":{worker},\"missed\":{missed}"),
            ),
            Event::WorkerSuspected { worker } => e.instant(
                "worker_suspected",
                ev.ts_ns,
                MASTER_PID,
                &format!("\"worker\":{worker}"),
            ),
            Event::CrashInjected {
                node,
                at_delegation,
            } => e.instant(
                "crash_injected",
                ev.ts_ns,
                node,
                &format!("\"node\":{node},\"at_delegation\":{at_delegation}"),
            ),
            Event::NetSend { from, to, bytes } => e.instant(
                "net_send",
                ev.ts_ns,
                from,
                &format!("\"to\":{to},\"bytes\":{bytes}"),
            ),
            Event::GbtRound { round } => e.instant(
                "gbt_round",
                ev.ts_ns,
                MASTER_PID,
                &format!("\"round\":{round}"),
            ),
            Event::StealRequested { worker } => e.instant(
                "steal_requested",
                ev.ts_ns,
                worker,
                &format!("\"worker\":{worker}"),
            ),
            Event::PlanStolen {
                task,
                victim,
                thief,
            } => e.instant(
                "plan_stolen",
                ev.ts_ns,
                MASTER_PID,
                &format!("\"task\":{task},\"victim\":{victim},\"thief\":{thief}"),
            ),
            Event::WorkerJoined { node } => {
                e.instant("worker_joined", ev.ts_ns, node, &format!("\"node\":{node}"))
            }
            Event::WorkerDraining { node } => e.instant(
                "worker_draining",
                ev.ts_ns,
                node,
                &format!("\"node\":{node}"),
            ),
            Event::WorkerDeparted { node } => e.instant(
                "worker_departed",
                ev.ts_ns,
                node,
                &format!("\"node\":{node}"),
            ),
            Event::ColumnMigrated { attr, from, to } => e.instant(
                "column_migrated",
                ev.ts_ns,
                to,
                &format!("\"attr\":{attr},\"from\":{from},\"to\":{to}"),
            ),
        }
    }

    // Unpaired opens (job still running at export, or the completion event
    // was lost to ring overwrite) degrade to instants rather than vanish.
    // Sorted maps: the export must be byte-stable for a given event log.
    for (job, ev) in open_jobs.into_iter().collect::<BTreeMap<_, _>>() {
        e.instant(
            "job_submitted",
            ev.ts_ns,
            MASTER_PID,
            &format!("\"job\":{job}"),
        );
    }
    for ((task, node), ev) in open_cols.into_iter().collect::<BTreeMap<_, _>>() {
        e.instant(
            "column_task_dispatched",
            ev.ts_ns,
            node,
            &format!("\"task\":{task}"),
        );
    }
    for (task, ev) in open_subs.into_iter().collect::<BTreeMap<_, _>>() {
        let key_worker = match ev.event {
            Event::SubtreeTaskDelegated { key_worker, .. } => key_worker,
            _ => MASTER_PID,
        };
        e.instant(
            "subtree_task_delegated",
            ev.ts_ns,
            key_worker,
            &format!("\"task\":{task}"),
        );
    }
    for (span, ev) in open_plans.into_iter().collect::<BTreeMap<_, _>>() {
        let subject = match ev.event {
            Event::SpanOpen { subject, .. } => subject,
            _ => 0,
        };
        e.instant(
            "plan_open",
            ev.ts_ns,
            MASTER_PID,
            &format!("\"span\":{span},\"task\":{subject}"),
        );
    }

    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn te(ts_ns: u64, node: u32, event: Event) -> TimedEvent {
        TimedEvent { ts_ns, node, event }
    }

    #[test]
    fn pairs_become_spans() {
        let trace = export(vec![
            te(1_000, 0, Event::JobSubmitted { job: 7 }),
            te(
                2_000,
                0,
                Event::ColumnTaskDispatched {
                    task: 3,
                    node: 1,
                    cols: 4,
                    bytes: 256,
                },
            ),
            te(
                9_000,
                0,
                Event::ColumnTaskCompleted {
                    task: 3,
                    node: 1,
                    latency_ns: 7_000,
                },
            ),
            te(20_000, 0, Event::JobFinished { job: 7 }),
        ]);
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\""), "{trace}");
        assert!(trace.ends_with("]}"), "{trace}");
        assert!(
            trace.contains("\"name\":\"column_task\",\"ph\":\"X\",\"ts\":2.000,\"pid\":1"),
            "{trace}"
        );
        assert!(trace.contains("\"dur\":7.000"), "{trace}");
        assert!(
            trace.contains("\"name\":\"job\",\"ph\":\"X\",\"ts\":1.000,\"pid\":0"),
            "{trace}"
        );
        assert!(
            trace.contains("\"name\":\"process_name\",\"ph\":\"M\""),
            "{trace}"
        );
        assert!(trace.contains("\"name\":\"worker1\""), "{trace}");
    }

    #[test]
    fn unpaired_open_degrades_to_instant() {
        let trace = export(vec![te(
            5_000,
            0,
            Event::ColumnTaskDispatched {
                task: 1,
                node: 2,
                cols: 1,
                bytes: 10,
            },
        )]);
        assert!(
            trace.contains("\"name\":\"column_task_dispatched\",\"ph\":\"i\""),
            "{trace}"
        );
    }

    #[test]
    fn bplan_push_emits_counter_sample() {
        let trace = export(vec![te(
            100,
            0,
            Event::BplanPush {
                end: DequeEnd::Head,
                depth: 3,
                rows: 40,
                qlen: 2,
            },
        )]);
        assert!(
            trace.contains("\"name\":\"bplan_len\",\"ph\":\"C\""),
            "{trace}"
        );
        assert!(trace.contains("\"len\":2"), "{trace}");
        assert!(trace.contains("\"end\":\"head\""), "{trace}");
    }

    #[test]
    fn task_spans_become_flow_arrows() {
        let trace = export(vec![
            te(
                1_000,
                0,
                Event::SpanOpen {
                    trace: 1,
                    span: 9,
                    parent: 4,
                    kind: SpanKind::ColumnTask,
                    subject: 3,
                },
            ),
            te(5_000, 2, Event::SpanRecv { span: 9, node: 2 }),
        ]);
        assert!(
            trace.contains("\"name\":\"handoff\",\"ph\":\"s\",\"ts\":1.000,\"pid\":0,\"tid\":4,\"cat\":\"span\",\"id\":9"),
            "{trace}"
        );
        assert!(
            trace.contains("\"name\":\"handoff\",\"ph\":\"f\",\"ts\":5.000,\"pid\":2,\"tid\":4,\"cat\":\"span\",\"id\":9,\"bp\":\"e\""),
            "{trace}"
        );
    }

    #[test]
    fn plan_spans_pair_into_complete_spans() {
        let trace = export(vec![
            te(
                100,
                0,
                Event::SpanOpen {
                    trace: 1,
                    span: 2,
                    parent: 1,
                    kind: SpanKind::Plan,
                    subject: 7,
                },
            ),
            te(400, 0, Event::SpanActive { span: 2, node: 0 }),
            te(900, 0, Event::SpanClose { span: 2 }),
        ]);
        assert!(
            trace.contains("\"name\":\"plan\",\"ph\":\"X\",\"ts\":0.100,\"pid\":0"),
            "{trace}"
        );
        assert!(trace.contains("\"dur\":0.800"), "{trace}");
        assert!(trace.contains("\"span\":2,\"task\":7"), "{trace}");
    }

    #[test]
    fn unpaired_plan_open_degrades_to_instant() {
        let trace = export(vec![te(
            100,
            0,
            Event::SpanOpen {
                trace: 1,
                span: 2,
                parent: 1,
                kind: SpanKind::Plan,
                subject: 7,
            },
        )]);
        assert!(
            trace.contains("\"name\":\"plan_open\",\"ph\":\"i\""),
            "{trace}"
        );
    }

    #[test]
    fn compute_span_is_drawn_backwards() {
        let trace = export(vec![te(
            10_000,
            2,
            Event::TaskComputed {
                task: 5,
                node: 2,
                busy_ns: 4_000,
            },
        )]);
        assert!(
            trace.contains("\"name\":\"compute\",\"ph\":\"X\",\"ts\":6.000,\"pid\":2"),
            "{trace}"
        );
        assert!(trace.contains("\"dur\":4.000"), "{trace}");
    }

    #[test]
    fn a_gain_json_cannot_hold_is_written_as_zero() {
        let split = |gain: f64| Event::SplitChosen {
            task: 1,
            node: 2,
            attr: 3,
            gain,
        };
        let trace = export(vec![
            te(1_000, 0, split(1.5)),
            te(2_000, 0, split(f64::NAN)),
        ]);
        assert!(trace.contains("\"gain\":1.5"), "{trace}");
        assert!(trace.contains("\"gain\":0}"), "{trace}");
        let inf = export(vec![te(1_000, 0, split(f64::INFINITY))]);
        assert!(inf.contains("\"gain\":0}"), "{inf}");
    }
}
