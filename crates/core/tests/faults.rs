//! Seeded fault injection through `ClusterConfig::faults`: a `FaultPlan`
//! crash trigger kills a key worker right after the n-th subtree delegation
//! cluster-wide, and the engine's recovery (re-replication + tree restart)
//! must still produce *exactly* the fault-free model. Message-level plans
//! (drops, delays, duplicates) exercise the acked/retried fabric instead:
//! training must terminate with the byte-identical fault-free model under
//! any fault seed. See `docs/TESTING.md` and `docs/PROTOCOL.md`.

use std::time::Duration;
use treeserver::{Cluster, ClusterConfig, JobResult, JobSpec, RecoveryError};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::DataTable;
use ts_netsim::FaultPlan;
use ts_tree::{train_tree, TrainParams};
use tscheck::prelude::*;

fn table(seed: u64) -> DataTable {
    generate(&SynthSpec {
        rows: 3_000,
        numeric: 6,
        categorical: 0,
        noise: 0.05,
        concept_depth: 5,
        seed,
        ..Default::default()
    })
}

/// Subtree-heavy shape so delegations happen early and often; replication 2
/// so a crashed worker's columns survive on a replica.
fn faulty_cfg(faults: Option<FaultPlan>) -> ClusterConfig {
    ClusterConfig {
        n_workers: 4,
        compers_per_worker: 2,
        replication: 2,
        tau_d: 100,
        tau_dfs: 400,
        faults,
        ..Default::default()
    }
}

#[test]
fn injected_crash_recovers_and_matches_reference() {
    let t = table(17);
    let params = TrainParams {
        dmax: 10,
        ..TrainParams::for_task(t.schema().task)
    };
    let reference = train_tree(&t, &(0..t.n_attrs()).collect::<Vec<_>>(), &params, 0);

    let plan = FaultPlan::new(0xFA11).with_crash_at_delegation(3);
    let cluster = Cluster::launch(faulty_cfg(Some(plan)), &t);
    let model = cluster
        .train(JobSpec::decision_tree(t.schema().task))
        .into_tree();
    cluster.shutdown();
    assert_eq!(
        model.canonicalize(),
        reference.canonicalize(),
        "crash-recovered tree diverged from the exact trainer"
    );
}

#[test]
fn forest_with_injected_crash_matches_fault_free_forest() {
    let t = table(23);
    let spec = || JobSpec::random_forest(t.schema().task, 6).with_seed(21);
    let run = |faults: Option<FaultPlan>| {
        let cluster = Cluster::launch(faulty_cfg(faults), &t);
        let f = cluster.train(spec()).into_forest();
        cluster.shutdown();
        f.trees.iter().map(|m| m.canonicalize()).collect::<Vec<_>>()
    };
    let clean = run(None);
    let crashed = run(Some(FaultPlan::new(7).with_crash_at_delegation(4)));
    assert_eq!(clean.len(), 6);
    assert_eq!(
        clean, crashed,
        "restarted trees must reuse the same spec/seed and land on the same forest"
    );
}

/// The trigger is observable: exactly one `CrashInjected` and one
/// `WorkerCrashed`, and the recorded delegation index matches the plan.
#[test]
fn injected_crash_is_recorded_by_obs() {
    let t = table(29);
    let mut cfg = faulty_cfg(Some(FaultPlan::new(99).with_crash_at_delegation(2)));
    cfg.obs = ts_obs::ObsConfig::enabled();
    let cluster = Cluster::launch(cfg, &t);
    let _ = cluster.train(JobSpec::decision_tree(t.schema().task));
    let rec = std::sync::Arc::clone(cluster.obs().expect("obs enabled"));
    cluster.shutdown();

    let m = rec.metrics();
    assert_eq!(m.counter("crashes_injected"), 1);
    assert_eq!(m.counter("workers_crashed"), 1);
    let injected: Vec<_> = rec
        .events()
        .iter()
        .filter_map(|e| match e.event {
            ts_obs::Event::CrashInjected {
                node,
                at_delegation,
            } => Some((node, at_delegation)),
            _ => None,
        })
        .collect();
    assert_eq!(injected.len(), 1);
    let (node, at) = injected[0];
    assert!((1..=4).contains(&node), "killed a worker, not the master");
    assert_eq!(at, 2, "fired at the plan's delegation index");
}

/// A message-fault plan hitting every plane: 5% drops, 5% delays, 5%
/// duplicates, all derived purely from `(seed, edge, seq)`.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_message_drops(0.05)
        .with_message_delays(0.05, Duration::from_millis(2))
        .with_message_duplicates(0.05)
}

/// Serialized canonical form — "byte-identical" in the strictest sense.
fn tree_bytes(m: &ts_tree::DecisionTreeModel) -> String {
    m.canonicalize().to_json()
}

/// Fault-free golden run for the message-fault sweep, trained once.
fn golden_bytes() -> &'static str {
    static GOLDEN: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    GOLDEN.get_or_init(|| {
        let t = table(17);
        let cluster = Cluster::launch(faulty_cfg(None), &t);
        let model = cluster
            .train(JobSpec::decision_tree(t.schema().task))
            .into_tree();
        cluster.shutdown();
        tree_bytes(&model)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Sweep fault seeds: under drops + delays + duplicates the acked/
    /// retried fabric still delivers every message exactly once and in
    /// order, so training terminates and the model is byte-identical to
    /// the fault-free golden run.
    #[test]
    fn lossy_fabric_training_is_byte_identical(fault_seed in any::<u64>()) {
        let t = table(17);
        let cluster = Cluster::launch(faulty_cfg(Some(lossy_plan(fault_seed))), &t);
        let model = cluster
            .train(JobSpec::decision_tree(t.schema().task))
            .into_tree();
        cluster.shutdown();
        prop_assert_eq!(tree_bytes(&model), golden_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Scheduler-invariant property (`ts-sched`): across fault seeds and
    /// worker counts, under a lossy message plan,
    /// every planned task is executed **exactly once** — the multiset of
    /// dispatch events equals the multiset of worker-side executions
    /// equals the multiset of folded results, per `(task, node)` — and
    /// the model stays byte-identical to the fault-free golden run.
    #[test]
    fn stealing_executes_every_planned_task_exactly_once(
        fault_seed in any::<u64>(),
        n_workers in 2usize..=5,
    ) {
        let t = table(17);
        let mut cfg = faulty_cfg(Some(lossy_plan(fault_seed)));
        cfg.n_workers = n_workers;
        cfg.replication = 2.min(n_workers);
        cfg.obs = ts_obs::ObsConfig::enabled();
        let cluster = Cluster::launch(cfg, &t);
        let model = cluster
            .train(JobSpec::decision_tree(t.schema().task))
            .into_tree();
        let rec = std::sync::Arc::clone(cluster.obs().expect("obs enabled"));
        cluster.shutdown();

        prop_assert_eq!(tree_bytes(&model), golden_bytes());
        prop_assert_eq!(rec.events_lost(), 0, "ring overflow would blind the count");

        // (task, node) multisets of the three lifecycle stages.
        let mut dispatched: Vec<(u64, u32)> = Vec::new();
        let mut computed: Vec<(u64, u32)> = Vec::new();
        let mut folded: Vec<(u64, u32)> = Vec::new();
        for e in rec.events().iter() {
            match e.event {
                ts_obs::Event::ColumnTaskDispatched { task, node, .. } => {
                    dispatched.push((task, node));
                }
                ts_obs::Event::SubtreeTaskDelegated { task, key_worker, .. } => {
                    dispatched.push((task, key_worker));
                }
                ts_obs::Event::TaskComputed { task, node, .. } => computed.push((task, node)),
                ts_obs::Event::ColumnTaskCompleted { task, node, .. } => {
                    folded.push((task, node));
                }
                ts_obs::Event::SubtreeTaskBuilt { task, node, .. } => folded.push((task, node)),
                _ => {}
            }
        }
        dispatched.sort_unstable();
        computed.sort_unstable();
        folded.sort_unstable();
        prop_assert!(!dispatched.is_empty(), "training dispatched no tasks?");
        prop_assert_eq!(
            &dispatched, &computed,
            "a dispatched task shard was executed zero or multiple times"
        );
        prop_assert_eq!(
            &dispatched, &folded,
            "a dispatched task shard was folded zero or multiple times"
        );
    }
}

/// The same guarantee holds for boosting, where label broadcasts between
/// rounds ride the data plane too. Mirrors the cluster shape of
/// `gbt_survives_worker_crash_between_rounds` (3 workers, τ_D = 300,
/// τ_dfs = 1 200, regression view).
#[test]
fn gbt_under_message_faults_matches_clean_run() {
    let t = generate(&SynthSpec {
        rows: 1_200,
        numeric: 4,
        task: ts_datatable::Task::Regression,
        seed: 23,
        ..Default::default()
    });
    let cfg = |faults: Option<FaultPlan>| ClusterConfig {
        n_workers: 3,
        compers_per_worker: 2,
        tau_d: 300,
        tau_dfs: 1_200,
        faults,
        ..Default::default()
    };
    let run = |faults: Option<FaultPlan>| {
        let view = treeserver::gbt::regression_view(&t, vec![0.0; t.n_rows()]);
        let cluster = Cluster::launch(cfg(faults), &view);
        let model = treeserver::train_gbt_on(
            &cluster,
            &t,
            treeserver::GbtConfig::for_task(ts_datatable::Task::Regression).with_rounds(3),
        );
        cluster.shutdown();
        model
    };
    let clean = run(None);
    for fault_seed in [0xA1u64, 0xB2, 0xC3] {
        assert_eq!(
            run(Some(lossy_plan(fault_seed))),
            clean,
            "gbt under fault seed {fault_seed:#x} diverged from the clean run"
        );
    }
}

/// Losing the last replica of a column is unrecoverable, and must fail the
/// job cleanly — a structured `JobResult::Failed`, not a panic.
#[test]
fn losing_the_last_replica_fails_the_job_cleanly() {
    let t = table(41);
    let cluster = Cluster::launch(
        ClusterConfig {
            n_workers: 2,
            compers_per_worker: 1,
            replication: 1, // no replica to fall back on
            tau_d: 100,
            tau_dfs: 400,
            ..Default::default()
        },
        &t,
    );
    cluster.kill_worker(1);
    let result = cluster.train(JobSpec::decision_tree(t.schema().task));
    assert!(
        matches!(result, JobResult::Failed(RecoveryError::ColumnLost { .. })),
        "expected a ColumnLost failure, got {:?}",
        result.failure()
    );
    // The degradation is sticky: later submissions fail immediately too.
    let again = cluster.train(JobSpec::decision_tree(t.schema().task));
    assert!(matches!(again, JobResult::Failed(_)));
    cluster.shutdown();
}

/// The acceptance scenario of the reliability layer: a worker crashes
/// mid-training *silently* (no announced `kill_worker` call — the injected
/// trigger just shuts the worker down). The master must *detect* the crash
/// via missed heartbeats, recover, and still produce the exact model — with
/// the detection and the fabric's retries visible in the obs event log.
#[test]
fn silent_crash_is_detected_by_heartbeats_and_recovered() {
    let t = table(37);
    let params = TrainParams {
        dmax: 10,
        ..TrainParams::for_task(t.schema().task)
    };
    let reference = train_tree(&t, &(0..t.n_attrs()).collect::<Vec<_>>(), &params, 0);

    // Message faults keep the reliable fabric on (so retries are possible
    // and observable); the crash trigger silences a worker mid-subtree.
    let plan = lossy_plan(0xDEAD_BEA7).with_crash_at_delegation(3);
    let mut cfg = faulty_cfg(Some(plan));
    cfg.heartbeat_interval = Duration::from_millis(5);
    // A 250 ms lease. 50 ms was short enough for a healthy worker starved
    // of CPU by a busy host to be suspected as well, after which "no live
    // worker can accept a new replica"; the crashed one is silent for good,
    // so the longer lease still detects it.
    cfg.heartbeat_miss_threshold = 50;
    cfg.obs = ts_obs::ObsConfig::enabled();
    let cluster = Cluster::launch(cfg, &t);
    let model = cluster
        .train(JobSpec::decision_tree(t.schema().task))
        .into_tree();
    let rec = std::sync::Arc::clone(cluster.obs().expect("obs enabled"));
    cluster.shutdown();

    assert_eq!(
        model.canonicalize(),
        reference.canonicalize(),
        "detected-crash recovery diverged from the exact trainer"
    );

    let m = rec.metrics();
    assert_eq!(m.counter("crashes_injected"), 1);
    assert!(
        m.counter("heartbeats_missed") >= 1,
        "the lease detector never noticed the silent worker"
    );
    assert!(
        m.counter("workers_suspected") >= 1,
        "the silent worker was never declared dead"
    );
    assert!(
        m.counter("retries_sent") >= 1,
        "a lossy plan must force at least one retransmission"
    );

    // The event log names the crashed worker in the suspicion.
    let crashed: Vec<u32> = rec
        .events()
        .iter()
        .filter_map(|e| match e.event {
            ts_obs::Event::CrashInjected { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    assert_eq!(crashed.len(), 1);
    let suspected = rec.events().iter().any(
        |e| matches!(e.event, ts_obs::Event::WorkerSuspected { worker } if worker == crashed[0]),
    );
    assert!(
        suspected,
        "WorkerSuspected {{ worker: {} }} not in the event log",
        crashed[0]
    );
    let retried = rec
        .events()
        .iter()
        .any(|e| matches!(e.event, ts_obs::Event::RetrySent { .. }));
    assert!(retried, "RetrySent not in the event log");
}

// ----------------------------------------------------------------------
// Elastic membership (`ts-elastic`, docs/ELASTICITY.md): mid-training
// join/leave, spot preemption with grace windows, incremental column
// rebalancing. The CI `elastic-matrix` job sweeps these tests under fixed
// `TS_SEED`s.
// ----------------------------------------------------------------------

/// Fault-plan seed for the elastic tests, overridable by the CI matrix.
fn env_seed(default: u64) -> u64 {
    std::env::var("TS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Satellite regression for the lease detector: an *announced* preemption
/// drains gracefully — `Goodbye`, not a missed-heartbeat suspicion — so the
/// run must finish with zero crash-recovery activity (no `WorkerSuspected`,
/// no `WorkerCrashed`, no `CrashInjected`, no tree revocation) and still
/// produce the fault-free model byte for byte.
#[test]
fn graceful_preemption_drains_without_crash_recovery() {
    let t = table(17);
    let mut cfg = faulty_cfg(None);
    // Stretch the run so the preemption lands mid-training.
    cfg.work_ns_per_unit = 1_000;
    cfg.obs = ts_obs::ObsConfig::enabled();
    let cluster = Cluster::launch(cfg, &t);
    let h = cluster.submit(JobSpec::decision_tree(t.schema().task));
    std::thread::sleep(Duration::from_millis(10));
    // Generous grace: the drain must complete without escalating.
    cluster.preempt_worker(3, Duration::from_secs(30));
    let model = cluster.wait(h).into_tree();
    let rec = std::sync::Arc::clone(cluster.obs().expect("obs enabled"));
    cluster.shutdown();

    assert_eq!(
        tree_bytes(&model),
        golden_bytes(),
        "a graceful drain must not perturb the model"
    );
    let m = rec.metrics();
    assert_eq!(m.counter("workers_draining"), 1, "drain was announced once");
    assert_eq!(
        m.counter("workers_departed"),
        1,
        "the leaver retired cleanly"
    );
    assert!(
        m.counter("columns_migrated") >= 1,
        "the leaver's columns were handed off"
    );
    // The satellite regression proper: zero crash-recovery activity.
    assert_eq!(
        m.counter("workers_suspected"),
        0,
        "lease detector fired on a drained worker"
    );
    assert_eq!(m.counter("workers_crashed"), 0);
    assert_eq!(m.counter("crashes_injected"), 0);
    assert_eq!(
        m.counter("workers_recovered"),
        0,
        "handoffs must not masquerade as recovery"
    );
}

/// A drain that blows its grace window escalates to crash recovery — and
/// the escalated worker is *alive*: it was only slow to leave. Recovery
/// fences it with a `Shutdown` at once, and `Cluster::shutdown`, which
/// stops every slot the launch spawned, on the roster or off it, must
/// still join all of its threads. The model must still be the exact
/// trainer's.
#[test]
fn blown_grace_window_escalates_and_the_cluster_still_shuts_down() {
    let t = table(17);
    let params = TrainParams {
        dmax: 10,
        ..TrainParams::for_task(t.schema().task)
    };
    let reference = train_tree(&t, &(0..t.n_attrs()).collect::<Vec<_>>(), &params, 0);

    let mut cfg = faulty_cfg(None);
    // Stretch the run so the preemption lands mid-training, and make the
    // victim slow: its shard of the root task takes over 100 ms, so 10 ms
    // in it is nowhere near `Goodbye` and many sweeps will see the blown
    // deadline first.
    cfg.work_ns_per_unit = 1_000;
    cfg.work_scale = vec![1.0, 1.0, 40.0, 1.0];
    {
        cfg.obs = ts_obs::ObsConfig::enabled();
    }
    let cluster = Cluster::launch(cfg, &t);
    let h = cluster.submit(JobSpec::decision_tree(t.schema().task));
    std::thread::sleep(Duration::from_millis(10));
    // No grace at all: the next sweep escalates.
    cluster.preempt_worker(3, Duration::ZERO);
    let model = cluster.wait(h).into_tree();
    assert_eq!(cluster.live_workers(), vec![1, 2, 4]);
    {
        let m = cluster.obs().expect("obs enabled").metrics();
        assert_eq!(m.counter("workers_departed"), 0, "the drain cannot finish");
        assert_eq!(m.counter("workers_crashed"), 1, "it escalates instead");
    }

    // `shutdown` joins every machine thread; a worker nobody told to stop
    // would hang it, so it runs under a watchdog.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        cluster.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(20)).is_ok(),
        "shutdown hung: the escalated worker was never told to stop"
    );
    watchdog.join().expect("shutdown returned");
    assert_eq!(
        model.canonicalize(),
        reference.canonicalize(),
        "escalated-drain recovery diverged from the exact trainer"
    );
}

/// The tentpole acceptance scenario: a 2-worker cluster doubles to 4 early
/// in a compute-bound run via scripted joins. The doubled run must beat the
/// static half-size run on wall clock AND produce the byte-identical model
/// (joins never revoke trees; randomness is scheduling-invariant).
#[test]
fn cluster_doubling_mid_run_beats_static_half_size() {
    let t = table(17);
    let base = || ClusterConfig {
        n_workers: 2,
        compers_per_worker: 2,
        replication: 2,
        tau_d: 100,
        tau_dfs: 400,
        // Compute-dominated: the modeled work makes capacity the
        // bottleneck, so extra machines translate into wall time.
        work_ns_per_unit: 4_000,
        ..Default::default()
    };
    let run = |faults: Option<FaultPlan>| {
        let cluster = Cluster::launch(ClusterConfig { faults, ..base() }, &t);
        let start = std::time::Instant::now();
        let model = cluster
            .train(JobSpec::decision_tree(t.schema().task))
            .into_tree();
        let wall = start.elapsed();
        cluster.shutdown();
        (wall, tree_bytes(&model))
    };
    let (static_wall, static_bytes) = run(None);
    // Two joiners 15 ms in: most of the run executes at double width.
    let join_plan = FaultPlan::new(env_seed(0xE1A5)).with_worker_join(Duration::from_millis(15), 2);
    let (elastic_wall, elastic_bytes) = run(Some(join_plan));

    assert_eq!(
        elastic_bytes, static_bytes,
        "mid-run joins must not change the trained model"
    );
    assert!(
        elastic_wall < static_wall,
        "doubling the cluster mid-run did not speed training up: \
         elastic {elastic_wall:?} vs static {static_wall:?}"
    );
}

// Membership churn under message faults: a scripted join AND a scripted
// preemption AND a lossy fabric, swept over fault seeds. Every planned
// task still executes exactly once (dispatch = execution = fold multisets
// per `(task, node)`), nothing is lost from the event rings, and the model
// matches the fault-free golden run.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn membership_churn_under_faults_is_exactly_once(fault_seed in any::<u64>()) {
        let t = table(17);
        let plan = FaultPlan::new(fault_seed ^ env_seed(0))
            .with_message_drops(0.03)
            .with_message_duplicates(0.03)
            .with_worker_join(Duration::from_millis(8), 1)
            .with_preemption(Duration::from_millis(20), 2, Duration::from_secs(30));
        let mut cfg = faulty_cfg(Some(plan));
        cfg.work_ns_per_unit = 500; // long enough for both events to land mid-run
        cfg.obs = ts_obs::ObsConfig::enabled();
        let cluster = Cluster::launch(cfg, &t);
        let model = cluster
            .train(JobSpec::decision_tree(t.schema().task))
            .into_tree();
        let rec = std::sync::Arc::clone(cluster.obs().expect("obs enabled"));
        cluster.shutdown();

        prop_assert_eq!(tree_bytes(&model), golden_bytes());
        prop_assert_eq!(rec.events_lost(), 0, "ring overflow would blind the count");

        let mut dispatched: Vec<(u64, u32)> = Vec::new();
        let mut computed: Vec<(u64, u32)> = Vec::new();
        let mut folded: Vec<(u64, u32)> = Vec::new();
        for e in rec.events().iter() {
            match e.event {
                ts_obs::Event::ColumnTaskDispatched { task, node, .. } => {
                    dispatched.push((task, node));
                }
                ts_obs::Event::SubtreeTaskDelegated { task, key_worker, .. } => {
                    dispatched.push((task, key_worker));
                }
                ts_obs::Event::TaskComputed { task, node, .. } => computed.push((task, node)),
                ts_obs::Event::ColumnTaskCompleted { task, node, .. } => {
                    folded.push((task, node));
                }
                ts_obs::Event::SubtreeTaskBuilt { task, node, .. } => folded.push((task, node)),
                _ => {}
            }
        }
        dispatched.sort_unstable();
        computed.sort_unstable();
        folded.sort_unstable();
        prop_assert!(!dispatched.is_empty(), "training dispatched no tasks?");
        prop_assert_eq!(
            &dispatched, &computed,
            "a task shard executed zero or multiple times under churn"
        );
        prop_assert_eq!(
            &dispatched, &folded,
            "a task shard folded zero or multiple times under churn"
        );
        // The churn actually happened: someone joined, and — unless the
        // run outpaced the 20 ms trigger — someone drained.
        let m = rec.metrics();
        prop_assert_eq!(m.counter("workers_joined"), 1);
        prop_assert_eq!(m.counter("workers_crashed"), 0, "graceful churn must not crash-recover");
    }
}

/// A plan pointing past the end of training never fires and never perturbs
/// the run.
#[test]
fn unfired_crash_trigger_is_inert() {
    let t = table(31);
    let run = |faults: Option<FaultPlan>| {
        let cluster = Cluster::launch(faulty_cfg(faults), &t);
        let m = cluster
            .train(JobSpec::decision_tree(t.schema().task))
            .into_tree();
        cluster.shutdown();
        m.canonicalize()
    };
    let clean = run(None);
    let inert = run(Some(FaultPlan::new(1).with_crash_at_delegation(1_000_000)));
    assert_eq!(clean, inert);
}

/// Runs `cluster.shutdown()` under a watchdog: whether it returned within
/// 20 s. `shutdown` joins every machine thread the launch spawned, so a
/// machine nobody told to stop hangs it.
fn shuts_down(cluster: Cluster) -> bool {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        cluster.shutdown();
        let _ = done_tx.send(());
    });
    let done = done_rx.recv_timeout(Duration::from_secs(20)).is_ok();
    if done {
        watchdog.join().expect("shutdown returned");
    }
    done
}

/// A scripted join that never comes leaves the model as it was, and its
/// spare slot, started at launch, stops with the cluster.
#[test]
fn an_unfired_join_is_inert() {
    let t = table(31);
    let run = |faults: Option<FaultPlan>| {
        let cluster = Cluster::launch(faulty_cfg(faults), &t);
        let m = cluster
            .train(JobSpec::decision_tree(t.schema().task))
            .into_tree();
        assert!(shuts_down(cluster), "shutdown hung");
        m.canonicalize()
    };
    let clean = run(None);
    let join = FaultPlan::new(1).with_worker_join(Duration::from_secs(3_600), 1);
    assert_eq!(clean, run(Some(join)));
}

/// A degraded cluster admits nobody. The spare its scripted join refused is
/// neither on the roster nor draining, and `shutdown` must stop it all the
/// same.
#[test]
fn a_join_refused_by_a_degraded_cluster_still_shuts_down() {
    let t = table(17);
    let join = FaultPlan::new(1).with_worker_join(Duration::from_millis(50), 1);
    let cfg = ClusterConfig {
        replication: 1,
        ..faulty_cfg(Some(join))
    };
    let cluster = Cluster::launch(cfg, &t);
    // Worker 1 held the last replica of its columns.
    cluster.kill_worker(1);
    // Past the join's time: a master step (one at least every 10 ms) has
    // refused it.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        cluster.live_workers(),
        vec![2, 3, 4],
        "the join was refused"
    );
    assert!(shuts_down(cluster), "shutdown hung on the refused joiner");
}

/// A worker thread that panics tells the master its machine is lost, and
/// the master recovers as from any crash. Labels outside the table's
/// classes make the compers of every worker panic on their first task, so
/// recovery runs out of workers: the job fails as a value, and the cluster
/// still shuts down.
#[test]
fn panicking_compers_fail_the_job_and_the_cluster_still_shuts_down() {
    let t = table(41);
    let task = t.schema().task;
    let cluster = Cluster::launch(faulty_cfg(None), &t);
    cluster.update_labels(&ts_datatable::Labels::Class(vec![250; t.n_rows()]));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let res = cluster.train(JobSpec::decision_tree(task));
        let _ = done_tx.send((res, cluster));
    });
    let (res, cluster) = (done_rx.recv_timeout(Duration::from_secs(20))).expect("train hung");
    assert!(matches!(res, JobResult::Failed(_)), "{res:?}");
    assert!(shuts_down(cluster), "shutdown hung");
}
