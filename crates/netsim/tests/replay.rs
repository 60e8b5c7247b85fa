//! Replayability acceptance: with a virtual clock and a fault plan, the obs
//! event stream of a message sequence is a *pure function of the seed* —
//! two runs produce byte-identical event logs, so any injected failure can
//! be reproduced from the seed alone.

use std::sync::Arc;
use std::time::Duration;
use ts_netsim::{Fabric, FaultPlan, NetModel, NetStats, SimClock, WireSized};

#[derive(Clone)]
struct Msg(usize);

impl WireSized for Msg {
    fn wire_bytes(&self) -> usize {
        self.0
    }
}

/// Pushes a fixed traffic pattern through a faulty fabric on a virtual
/// clock and returns the serialized obs event log.
fn run(seed: u64) -> String {
    let n = 4;
    let clock = SimClock::virtual_at(0);
    let stats = NetStats::new(n);
    let rec = Arc::new(ts_obs::Recorder::with_time_source(
        n,
        &ts_obs::ObsConfig::enabled(),
        clock
            .time_source()
            .expect("virtual clock exposes its counter"),
    ));
    stats.set_recorder(Arc::clone(&rec));
    let plan = FaultPlan::new(seed)
        .with_message_drops(0.15)
        .with_message_delays(0.25, Duration::from_millis(5));
    let (fabric, _rxs) =
        Fabric::<Msg>::new_faulty(n, NetModel::gige(), Arc::clone(&stats), Some(plan), clock);
    for i in 0..400usize {
        // (from, to) never coincide for n = 4: from and i*7+1 differ in parity.
        let _ = fabric.send(i % n, (i * 7 + 1) % n, Msg(64 + (i * 13) % 512));
    }
    format!("{:?}", rec.events())
}

/// A frame that carries a trace context, like the engine's real messages.
#[derive(Clone)]
struct SpanMsg {
    bytes: usize,
    ctx: ts_obs::TraceCtx,
}

impl WireSized for SpanMsg {
    fn wire_bytes(&self) -> usize {
        self.bytes
    }
    fn trace_ctx(&self) -> ts_obs::TraceCtx {
        self.ctx
    }
}

/// Runs a synthetic traced job — master span, one plan span, a fan-out of
/// task spans whose frames cross a faulty fabric — entirely on the virtual
/// clock, and returns the reconstructed span DAG (debug form) plus the
/// `TraceReport` JSON.
fn run_spans(seed: u64) -> (String, String) {
    use ts_obs::{Event, SpanKind, TraceCtx};
    let n = 4;
    let clock = SimClock::virtual_at(0);
    let stats = NetStats::new(n);
    let rec = Arc::new(ts_obs::Recorder::with_time_source(
        n,
        &ts_obs::ObsConfig::enabled(),
        clock
            .time_source()
            .expect("virtual clock exposes its counter"),
    ));
    stats.set_recorder(Arc::clone(&rec));
    let plan = FaultPlan::new(seed)
        .with_message_drops(0.10)
        .with_message_delays(0.25, Duration::from_millis(5))
        .with_message_duplicates(0.10);
    let (fabric, _rxs) =
        Fabric::<SpanMsg>::new_faulty(n, NetModel::gige(), Arc::clone(&stats), Some(plan), clock);

    let trace = 1u64;
    rec.record(
        0,
        Event::SpanOpen {
            trace,
            span: 1,
            parent: 0,
            kind: SpanKind::Job,
            subject: 0,
        },
    );
    rec.record(
        0,
        Event::SpanOpen {
            trace,
            span: 2,
            parent: 1,
            kind: SpanKind::Plan,
            subject: 0,
        },
    );
    rec.record(0, Event::SpanActive { span: 2, node: 0 });
    for t in 0..12u64 {
        let span = 3 + t;
        let mut worker = (t as usize % (n - 1)) + 1;
        rec.record(
            0,
            Event::SpanOpen {
                trace,
                span,
                parent: 2,
                kind: SpanKind::ColumnTask,
                subject: t,
            },
        );
        let ctx = TraceCtx::new(trace, ts_obs::SpanId(span));
        // Every third task is stolen, like the engine's `ts-sched` path:
        // the hungry thief's request, the master's verdict, and a
        // header-only Donate frame carrying the stolen task's span — all
        // of it rides the same faulty fabric and must replay identically.
        if t % 3 == 2 {
            let victim = worker;
            let thief = (victim % (n - 1)) + 1;
            rec.record(
                thief as u32,
                Event::StealRequested {
                    worker: thief as u32,
                },
            );
            let _ = fabric.send(
                thief,
                0,
                SpanMsg {
                    bytes: 24,
                    ctx: TraceCtx::NONE,
                },
            );
            rec.record(
                0,
                Event::PlanStolen {
                    task: t,
                    victim: victim as u32,
                    thief: thief as u32,
                },
            );
            let _ = fabric.send(0, thief, SpanMsg { bytes: 24, ctx });
            worker = thief;
        }
        // The plan frame carries the span across the (faulty) fabric; the
        // result frame carries it back.
        let _ = fabric.send(0, worker, SpanMsg { bytes: 256, ctx });
        rec.record(
            worker as u32,
            Event::SpanRecv {
                span,
                node: worker as u32,
            },
        );
        rec.record(
            worker as u32,
            Event::SpanActive {
                span,
                node: worker as u32,
            },
        );
        rec.record(
            worker as u32,
            Event::TaskComputed {
                task: t,
                node: worker as u32,
                busy_ns: 1_000,
            },
        );
        let _ = fabric.send(worker, 0, SpanMsg { bytes: 64, ctx });
        rec.record(0, Event::SpanClose { span });
    }
    rec.record(0, Event::SpanClose { span: 2 });
    rec.record(0, Event::SpanClose { span: 1 });

    let events = rec.events();
    let dag = ts_obs::SpanDag::from_events(&events);
    let report = ts_obs::TraceReport::build(&dag).expect("job span closed");
    (format!("{dag:?}"), report.to_json())
}

/// Drives a synthetic membership-churn run — a scripted mid-run join, a
/// scripted preemption with a grace window, per-machine work/bandwidth
/// heterogeneity, and a lossy fabric — entirely on the virtual clock, and
/// returns the serialized obs event log. The membership schedule comes out
/// of the [`FaultPlan`] accessors, so this exercises exactly the state the
/// engine's master turns into membership timers.
fn run_membership(seed: u64) -> String {
    use ts_obs::Event;
    let n = 5; // master + 3 initial workers + 1 pre-provisioned join slot
    let clock = SimClock::virtual_at(0);
    let stats = NetStats::new(n);
    let rec = Arc::new(ts_obs::Recorder::with_time_source(
        n,
        &ts_obs::ObsConfig::enabled(),
        clock
            .time_source()
            .expect("virtual clock exposes its counter"),
    ));
    stats.set_recorder(Arc::clone(&rec));
    let plan = FaultPlan::new(seed)
        .with_message_drops(0.10)
        .with_message_delays(0.20, Duration::from_millis(3))
        .with_worker_join(Duration::from_millis(2), 1)
        .with_preemption(Duration::from_millis(6), 2, Duration::from_millis(20))
        .with_bandwidth_scale(4, 2.0);
    let (join_at, joiners) = plan.worker_join().expect("join scripted");
    let (preempt_at, victim, _grace) = plan.preemption().expect("preemption scripted");
    let (fabric, _rxs) =
        Fabric::<Msg>::new_faulty(n, NetModel::gige(), Arc::clone(&stats), Some(plan), clock);

    let joiner = n - 1; // the pre-provisioned slot
    let mut joined = false;
    let mut draining = false;
    for i in 0..300usize {
        let now = i as u64 * 40_000; // 40 µs per tick of synthetic traffic
        if !joined && now >= join_at {
            for j in 0..joiners {
                let w = (joiner + j) as u32;
                rec.record(0, Event::WorkerJoined { node: w });
                // Join top-up: the new holder pulls a replica per column.
                let _ = fabric.send(1, joiner + j, Msg(4096));
                rec.record(
                    0,
                    Event::ColumnMigrated {
                        attr: j as u32,
                        from: 1,
                        to: w,
                    },
                );
            }
            joined = true;
        }
        if !draining && now >= preempt_at {
            rec.record(
                0,
                Event::WorkerDraining {
                    node: victim as u32,
                },
            );
            // Pre-departure handoff: the leaver serves its own columns out.
            let _ = fabric.send(victim, joiner, Msg(4096));
            rec.record(
                0,
                Event::ColumnMigrated {
                    attr: 9,
                    from: victim as u32,
                    to: joiner as u32,
                },
            );
            rec.record(
                0,
                Event::WorkerDeparted {
                    node: victim as u32,
                },
            );
            draining = true;
        }
        let from = i % n;
        let mut to = (i * 7 + 1) % n;
        if draining && (from == victim || to == victim) {
            continue; // departed workers send and receive nothing
        }
        if to == from {
            to = (to + 1) % n;
        }
        let _ = fabric.send(from, to, Msg(64 + (i * 13) % 512));
    }
    format!("{:?}", rec.events())
}

#[test]
fn same_fault_seed_replays_byte_identically() {
    let a = run(0xD5);
    let b = run(0xD5);
    assert_eq!(a, b, "same seed must reproduce the exact event log");
    assert!(
        a.contains("MessageDropped"),
        "the plan should have dropped something"
    );
    assert!(
        a.contains("MessageDelayed"),
        "the plan should have delayed something"
    );
    let c = run(0xBEEF);
    assert_ne!(a, c, "a different seed must pick different faults");
}

#[test]
fn membership_churn_replays_byte_identically() {
    let a = run_membership(0xE1A5);
    let b = run_membership(0xE1A5);
    assert_eq!(
        a, b,
        "same seed must reproduce the exact membership-churn event log"
    );
    for ev in [
        "WorkerJoined",
        "WorkerDraining",
        "WorkerDeparted",
        "ColumnMigrated",
    ] {
        assert!(a.contains(ev), "log should contain {ev}");
    }
    assert!(
        a.contains("MessageDropped"),
        "the lossy plan should have dropped something"
    );
    let c = run_membership(0x5EED);
    assert_ne!(
        a, c,
        "a different seed must pick different faults around the same schedule"
    );
}

#[test]
fn span_dag_and_critical_path_replay_byte_identically_under_faults() {
    let (dag_a, report_a) = run_spans(0xC0FFEE);
    let (dag_b, report_b) = run_spans(0xC0FFEE);
    assert_eq!(dag_a, dag_b, "same seed must rebuild the same span DAG");
    assert_eq!(
        report_a, report_b,
        "same seed must produce a byte-identical trace report"
    );
    // The report is non-trivial: a real critical path with phase totals
    // that tile the root span's wall clock exactly.
    assert!(report_a.contains("\"critical_path\""));
    assert!(report_a.contains("column_task"));
    let (_, report_c) = run_spans(0xDECAF);
    assert_ne!(
        report_a, report_c,
        "different fault seeds change delivery timing, hence the report"
    );
}
