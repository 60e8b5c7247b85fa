//! ts-trace acceptance: a seeded *faulty* training run yields a
//! `TraceReport` whose phase totals tile the critical path's wall clock
//! exactly (well within the 1% criterion), with spans correctly parented
//! across machines — the task span opened on the master is received on a
//! worker and still chains task → plan → job inside one trace.

use std::time::Duration;

use treeserver::obs::{ObsConfig, Phase, SpanKind};
use treeserver::{Cluster, ClusterConfig, JobSpec};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::DataTable;
use ts_netsim::FaultPlan;

fn table(rows: usize, seed: u64) -> DataTable {
    generate(&SynthSpec {
        rows,
        numeric: 4,
        categorical: 2,
        cat_cardinality: 5,
        noise: 0.05,
        concept_depth: 4,
        seed,
        ..Default::default()
    })
}

/// A faulty, traced cluster: messages drop and stall, so the reliable
/// fabric's retries are in play while spans ride the frames.
fn faulty_traced_forest(workers: usize, trees: usize) -> Cluster {
    let t = table(2_000, 11);
    let cfg = ClusterConfig {
        n_workers: workers,
        compers_per_worker: 2,
        replication: 2.min(workers),
        tau_d: 150,
        tau_dfs: 600,
        faults: Some(
            FaultPlan::new(0x7A11)
                .with_message_drops(0.03)
                .with_message_delays(0.15, Duration::from_millis(2)),
        ),
        obs: ObsConfig::enabled(),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, &t);
    let spec = JobSpec::random_forest(t.schema().task, trees).with_seed(5);
    let _ = cluster.train(spec);
    cluster
}

#[test]
fn faulty_run_report_phases_tile_wall_clock_and_spans_parent_across_machines() {
    let cluster = faulty_traced_forest(3, 4);
    let rec = cluster
        .obs()
        .expect("recorder attached when obs enabled")
        .clone();

    // --- TraceReport: non-empty critical path, exact phase tiling. ---
    let report = cluster
        .trace_report()
        .expect("a finished job must leave a closed job span");
    assert!(
        !report.critical_path.is_empty(),
        "critical path must have at least the job span"
    );
    assert!(report.wall_ns > 0, "the job took real time");
    // The acceptance bar is "within 1% of wall clock"; the decomposition
    // telescopes, so it holds exactly.
    assert_eq!(
        report.phase_sum_ns(),
        report.wall_ns,
        "phase totals must tile the critical-path wall clock exactly"
    );
    let drift = report.wall_ns / 100;
    assert!(
        report.phase_sum_ns().abs_diff(report.wall_ns) <= drift,
        "phase totals within 1% of wall clock"
    );
    // The path is a contiguous tiling in time order.
    for w in report.critical_path.windows(2) {
        assert_eq!(w[0].end_ns, w[1].start_ns, "segments must be contiguous");
    }

    // --- Cross-machine parenting through the fabric. ---
    let dag = rec.span_dag();
    assert!(!dag.is_empty(), "a traced run reconstructs spans");
    let remote_task = dag
        .spans()
        .find(|s| {
            matches!(s.kind, SpanKind::ColumnTask | SpanKind::SubtreeTask)
                && s.recv_nodes.iter().any(|&n| n >= 1)
        })
        .expect("some task span must have been received on a worker");
    let plan = dag
        .span(remote_task.parent)
        .expect("task spans are parented under a plan span");
    assert_eq!(plan.kind, SpanKind::Plan, "task parent is the plan span");
    assert_eq!(
        plan.trace, remote_task.trace,
        "parent and child share the trace"
    );
    // Walk plan -> ... -> job root: child plans hang off task spans, so
    // follow parents until the job span.
    let mut cur = plan;
    let mut hops = 0;
    while cur.kind != SpanKind::Job {
        cur = dag
            .span(cur.parent)
            .expect("parent chain must stay inside the DAG");
        assert_eq!(cur.trace, remote_task.trace, "chain stays in one trace");
        hops += 1;
        assert!(hops < 10_000, "parent chain must terminate at the job span");
    }
    assert_eq!(
        cur.span, remote_task.trace,
        "the trace id is the root job span id"
    );

    // --- The report summarises the column-task spans the master closed. ---
    let [_, _, column, _, _] = report.kind_summaries;
    assert!(
        column.count > 0,
        "column-task completions must reach the report"
    );
    assert!(
        column.p50_ns > 0 && column.p95_ns >= column.p50_ns,
        "quantiles are ordered and non-zero: {column:?}"
    );

    cluster.shutdown();
}

#[test]
fn trace_report_survives_multiple_jobs_and_names_the_latest() {
    let t = table(1_200, 3);
    let cfg = ClusterConfig {
        n_workers: 2,
        compers_per_worker: 2,
        replication: 2,
        tau_d: 150,
        tau_dfs: 600,
        obs: ObsConfig::enabled(),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, &t);
    let first = cluster.train(JobSpec::decision_tree(t.schema().task));
    let second = cluster.train(JobSpec::decision_tree(t.schema().task).with_seed(9));
    assert!(first.failure().is_none() && second.failure().is_none());

    let report = cluster.trace_report().expect("two jobs finished");
    // The report analyzes the slowest-*finishing* job — with sequential
    // train() calls that is the second one.
    assert_eq!(report.job, 1, "job ids are 0-based and sequential");
    assert_eq!(report.phase_sum_ns(), report.wall_ns);
    assert!(report.spans_total > 1, "a tree run opens plan + task spans");
    cluster.shutdown();
}

/// A traced forest on one worker with one comper. tau_d >= rows makes
/// every tree one subtree-task; the single worker holds every column, so
/// each dataset is assembled the moment the plan arrives and the trees then
/// wait in line for the one comper.
fn one_comper_forest(trees: usize) -> Cluster {
    let t = table(3_000, 21);
    let cfg = ClusterConfig {
        n_workers: 1,
        compers_per_worker: 1,
        replication: 1,
        tau_d: 3_000,
        tau_dfs: 12_000,
        obs: ObsConfig::enabled(),
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, &t);
    let result = cluster.train(JobSpec::random_forest(t.schema().task, trees).with_seed(3));
    assert!(result.failure().is_none());
    cluster
}

#[test]
fn subtree_tasks_behind_one_comper_are_queueing_not_gathering() {
    let cluster = one_comper_forest(8);

    let dag = cluster.obs().expect("obs enabled").span_dag();
    let subtrees: Vec<_> = dag
        .spans()
        .filter(|s| s.kind == SpanKind::SubtreeTask)
        .collect();
    assert_eq!(subtrees.len(), 8, "one subtree-task per tree");
    for s in &subtrees {
        let (recv, ready, active) = (
            s.recv_ns.unwrap(),
            s.ready_ns.unwrap(),
            s.active_ns.unwrap(),
        );
        assert!(
            recv <= ready && ready <= active,
            "marks out of order: {s:?}"
        );
    }

    // The critical path ends in the tree trained last: it waited for the
    // seven before it, and that wait must not be booked as data assembly.
    let report = cluster.trace_report().expect("the job finished");
    assert_eq!(report.phase_sum_ns(), report.wall_ns);
    let (gather, queueing, compute) = (
        report.phase_ns(Phase::Gather),
        report.phase_ns(Phase::Queueing),
        report.phase_ns(Phase::Compute),
    );
    assert!(
        queueing > 10 * gather && queueing > compute,
        "gather {gather} ns, queueing {queueing} ns, compute {compute} ns"
    );
    cluster.shutdown();
}

#[test]
fn backlog_past_the_dispatch_window_is_scheduling_not_queueing() {
    // One comper means 2·1 + 2 = 4 plans in flight: of 24 trees the one
    // trained last spends most of the job in the master's deque (its plan
    // span's open → active stretch, Scheduling) and only its last three
    // places in line in the worker's ready queue (Queueing).
    let cluster = one_comper_forest(24);
    let report = cluster.trace_report().expect("the job finished");
    assert_eq!(
        report.phase_sum_ns(),
        report.wall_ns,
        "the five phases must still tile the wall clock exactly"
    );
    let (scheduling, queueing) = (
        report.phase_ns(Phase::Scheduling),
        report.phase_ns(Phase::Queueing),
    );
    assert!(
        queueing > 0 && scheduling > queueing,
        "scheduling {scheduling} ns, queueing {queueing} ns"
    );
    cluster.shutdown();
}
