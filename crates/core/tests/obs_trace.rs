//! Observability integration tests (tentpole acceptance): train a small
//! forest with tracing enabled and check that the recorded task lifecycle
//! is internally consistent and that both exporters emit valid JSON.

use std::collections::HashSet;

use treeserver::obs::{Event, ObsConfig};
use treeserver::{Cluster, ClusterConfig, JobSpec};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::DataTable;

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

fn traced_cfg(workers: usize) -> ClusterConfig {
    ClusterConfig {
        n_workers: workers,
        compers_per_worker: 2,
        replication: 2.min(workers),
        tau_d: 150,
        tau_dfs: 600,
        obs: ObsConfig::enabled(),
        ..Default::default()
    }
}

/// Train a small forest with the recorder attached and return the cluster.
fn traced_forest(workers: usize, trees: usize) -> Cluster {
    let t = table(2_000, 7);
    let cluster = Cluster::launch(traced_cfg(workers), &t);
    let spec = JobSpec::random_forest(t.schema().task, trees).with_seed(3);
    let _ = cluster.train(spec);
    cluster
}

#[test]
fn lifecycle_events_pair_up_for_a_traced_forest() {
    let cluster = traced_forest(3, 6);
    let rec = cluster
        .obs()
        .expect("recorder attached when obs enabled")
        .clone();

    let events = rec.events();
    assert!(
        !events.is_empty(),
        "a traced training run must record events"
    );
    assert_eq!(
        rec.events_lost(),
        0,
        "ring sized for this run — no drops expected"
    );

    let mut dispatched = 0u64;
    let mut completed = 0u64;
    let mut submitted = HashSet::new();
    let mut finished = HashSet::new();
    for te in &events {
        match te.event {
            Event::ColumnTaskDispatched { .. } => dispatched += 1,
            Event::ColumnTaskCompleted { .. } => completed += 1,
            Event::JobSubmitted { job } => {
                assert!(submitted.insert(job), "job {job} submitted twice");
            }
            Event::JobFinished { job } => {
                assert!(finished.insert(job), "job {job} finished twice");
            }
            _ => {}
        }
    }
    assert!(dispatched > 0, "a column-task run must dispatch shards");
    assert_eq!(
        dispatched, completed,
        "every dispatched column shard must come back in a crash-free run"
    );
    assert_eq!(submitted, finished, "every submitted job must finish");

    // The metrics registry must agree with the ring (counters never drop).
    let snap = rec.metrics();
    assert_eq!(snap.counter("column_tasks_dispatched"), dispatched);
    assert_eq!(snap.counter("column_tasks_completed"), completed);
    assert_eq!(snap.counter("jobs_submitted"), submitted.len() as u64);
    assert_eq!(snap.counter("jobs_finished"), finished.len() as u64);

    cluster.shutdown();
}

#[test]
fn chrome_trace_is_valid_json_with_required_fields() {
    let cluster = traced_forest(2, 4);
    let rec = cluster.obs().expect("recorder attached").clone();

    let trace = rec.chrome_trace_json();
    let parsed: tsjson::Value = tsjson::from_str(&trace).expect("chrome trace must be valid JSON");
    let events = parsed["traceEvents"]
        .as_array()
        .expect("traceEvents must be an array");
    assert!(!events.is_empty(), "trace must contain events");
    for ev in events {
        let ph = ev["ph"].as_str().expect("every event needs a ph");
        assert!(
            ["X", "i", "C", "M", "s", "f"].contains(&ph),
            "unexpected phase {ph:?} in {ev}"
        );
        if ph == "s" || ph == "f" {
            assert!(
                ev["id"].as_u64().is_some(),
                "flow events need a span id: {ev}"
            );
        }
        assert!(ev.get("pid").is_some(), "every event needs a pid: {ev}");
        if ph != "M" {
            assert!(
                ev.get("ts").is_some(),
                "every non-metadata event needs ts: {ev}"
            );
        }
        if ph == "X" {
            assert!(
                ev["dur"].as_f64().unwrap_or(-1.0) >= 0.0,
                "span needs dur: {ev}"
            );
        }
    }
    // One process-name metadata record per machine that emitted events.
    let pids: HashSet<u64> = events
        .iter()
        .filter(|e| e["ph"] == "M")
        .map(|e| e["pid"].as_u64().unwrap())
        .collect();
    assert!(pids.contains(&0), "the master must be named in the trace");

    cluster.shutdown();
}

#[test]
fn metrics_json_parses_and_carries_histograms() {
    let cluster = traced_forest(2, 3);
    let rec = cluster.obs().expect("recorder attached").clone();

    let json = rec.metrics_json();
    let parsed: tsjson::Value = tsjson::from_str(&json).expect("metrics dump must be valid JSON");
    let counters = parsed["counters"].as_object().expect("counters object");
    assert!(counters.get("column_tasks_dispatched").is_some());
    assert!(parsed["histograms"]["column_task_latency_ns"]["count"]
        .as_u64()
        .is_some_and(|c| c > 0));
    assert!(parsed["events_total"].as_u64().is_some_and(|t| t > 0));

    cluster.shutdown();
}

#[test]
fn recorder_absent_when_runtime_disabled() {
    let t = table(500, 1);
    let cfg = ClusterConfig {
        n_workers: 2,
        compers_per_worker: 1,
        replication: 2,
        tau_d: 100,
        tau_dfs: 400,
        ..Default::default()
    };
    let cluster = Cluster::launch(cfg, &t);
    let _ = cluster.train(JobSpec::decision_tree(t.schema().task));
    assert!(
        cluster.obs().is_none(),
        "obs must stay off unless requested"
    );
    cluster.shutdown();
}

#[test]
fn kernel_counters_surface_in_metrics() {
    // The sorted-column split engine ticks process-global counters; obs()
    // folds the delta since launch into the recorder's registry. A forest
    // over a 2k-row table must run exact numeric kernels, and calling obs()
    // twice must not double-count (the sync is monotone).
    let cluster = traced_forest(2, 4);
    let rec = cluster.obs().expect("recorder attached").clone();
    let snap = rec.metrics();
    let scans = snap.counter("split_kernel_sorted_scans");
    assert!(scans > 0, "exact training must run numeric split kernels");
    let hits_then = snap.counter("split_scratch_pool_hits");
    let again = cluster.obs().expect("recorder attached").metrics();
    assert!(
        again.counter("split_scratch_pool_hits") >= hits_then,
        "counters are monotone"
    );
    cluster.shutdown();
}
