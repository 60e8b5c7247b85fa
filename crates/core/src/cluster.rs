//! The user-facing cluster handle: launch machines, submit jobs, collect
//! models, inject faults, and read statistics.

use crate::assign::ColumnMap;
use crate::config::ClusterConfig;
use crate::job::{JobHandle, JobResult, JobSpec};
use crate::master::Master;
use crate::messages::{DataMsg, TaskMsg};
use crate::worker::{residents, Worker};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ts_datatable::{DataTable, Task};
use ts_netsim::{Fabric, NetStats, NodeId};
use tschan::sync::Mutex;
use tschan::Receiver;

/// Summary statistics of a cluster run, in the units the paper reports.
#[derive(Debug, Clone, tsjson::Serialize)]
pub struct ClusterReport {
    /// Wall-clock since launch.
    pub elapsed: Duration,
    /// Average CPU percentage per worker (busy compute time / elapsed; >100
    /// with multiple compers), averaged over workers.
    pub avg_cpu_percent: f64,
    /// Average send throughput per worker in Mbit/s.
    pub avg_send_mbps: f64,
    /// Master outbound bytes (the §V bottleneck under scrutiny). A
    /// `Cluster::report` leaves the header-only `Donate` steal acks out:
    /// their number follows thread timing, and without them the figure
    /// repeats for a fixed job. `per_node[0].sent_bytes` counts every byte.
    pub master_sent_bytes: u64,
    /// Split-phase bytes that differ *by splitter mode*: full
    /// `ColumnResult` payloads received by the master in exact mode.
    pub split_bytes_sent: u64,
    /// Histogram-mode counterpart: nomination + fetch + elected-result
    /// bytes on the master↔worker split plane.
    pub hist_bytes_sent: u64,
    /// Peak tracked memory per worker in bytes, averaged over workers.
    pub avg_peak_mem_bytes: f64,
    /// Per-machine snapshots (index 0 = master).
    pub per_node: Vec<ts_netsim::NodeSnapshot>,
}

impl ClusterReport {
    /// Builds a report from raw statistics. Worker averages are over
    /// machines `1..n`; with no workers they are 0, not NaN. The split-plane
    /// fields are the master's counts, so only `Cluster::report` fills them.
    pub fn from_stats(stats: &NetStats, elapsed: Duration) -> ClusterReport {
        let per_node = stats.snapshot_all();
        let n_workers = per_node.len().saturating_sub(1);
        let avg = |f: &dyn Fn(usize) -> f64| {
            if n_workers == 0 {
                0.0
            } else {
                (1..per_node.len()).map(f).sum::<f64>() / n_workers as f64
            }
        };
        ClusterReport {
            elapsed,
            avg_cpu_percent: avg(&|w| stats.cpu_percent(w, elapsed)),
            avg_send_mbps: avg(&|w| stats.send_mbps(w, elapsed)),
            master_sent_bytes: per_node.first().map_or(0, |m| m.sent_bytes),
            split_bytes_sent: 0,
            hist_bytes_sent: 0,
            avg_peak_mem_bytes: avg(&|w| per_node[w].mem_peak as f64),
            per_node,
        }
    }
}

impl std::fmt::Display for ClusterReport {
    /// A human-readable table in the paper's units (Table VI columns:
    /// elapsed, CPU rate, send throughput, master outbound, peak memory).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cluster report ({} machines, master + {} workers)",
            self.per_node.len(),
            self.per_node.len().saturating_sub(1)
        )?;
        writeln!(f, "  elapsed          {:>10.2?}", self.elapsed)?;
        writeln!(f, "  avg worker CPU   {:>10.1} %", self.avg_cpu_percent)?;
        writeln!(f, "  avg worker send  {:>10.2} Mbps", self.avg_send_mbps)?;
        writeln!(
            f,
            "  master sent      {:>10.2} MB",
            self.master_sent_bytes as f64 / 1e6
        )?;
        writeln!(
            f,
            "  avg peak mem     {:>10.2} MB",
            self.avg_peak_mem_bytes / 1e6
        )?;
        if self.split_bytes_sent > 0 {
            writeln!(
                f,
                "  split results    {:>10.2} KB (exact ColumnResult payloads)",
                self.split_bytes_sent as f64 / 1e3
            )?;
        }
        if self.hist_bytes_sent > 0 {
            writeln!(
                f,
                "  hist votes+fetch {:>10.2} KB (nominations, fetches, elected results)",
                self.hist_bytes_sent as f64 / 1e3
            )?;
        }
        for (i, snap) in self.per_node.iter().enumerate() {
            let name = if i == 0 {
                "master ".to_string()
            } else {
                format!("worker{i}")
            };
            writeln!(f, "  {name}  {snap}")?;
        }
        Ok(())
    }
}

/// A running TreeServer cluster.
///
/// ```no_run
/// # use treeserver::{Cluster, ClusterConfig, JobSpec};
/// # use ts_datatable::synth::{generate, SynthSpec};
/// let table = generate(&SynthSpec::default());
/// let cluster = Cluster::launch(ClusterConfig::default(), &table);
/// let model = cluster.train(JobSpec::random_forest(table.schema().task, 20));
/// let report = cluster.shutdown();
/// # let _ = (model, report);
/// ```
pub struct Cluster {
    /// The master's whole state behind its one lock. Calls that can queue
    /// work go through [`Master::call`], so the master thread picks it up
    /// at once; the rest just take the lock.
    master: Arc<Mutex<Master>>,
    stats: Arc<NetStats>,
    fabric_task: Fabric<TaskMsg>,
    handles: Vec<std::thread::JoinHandle<()>>,
    pending: Mutex<HashMap<JobHandle, Receiver<JobResult>>>,
    task_kind: Task,
    n_rows: usize,
    launched: Instant,
    /// Split-kernel counter snapshot at launch: the engine's counters are
    /// process-global, so reports fold in the delta since this cluster came
    /// up (see [`ts_splits::sorted::kernel_counters`]).
    kernel_base: ts_splits::sorted::KernelCounters,
}

impl Cluster {
    /// Launches a cluster over an in-memory table: partitions the columns
    /// among workers (round-robin with replication `k`), replicates `Y`
    /// everywhere, and starts the master and worker threads. The spare
    /// slots a scripted join will admit start too, holding no column and
    /// off the roster until the master's join timer fires.
    pub fn launch(cfg: ClusterConfig, table: &DataTable) -> Cluster {
        cfg.validate();
        let n_nodes = cfg.total_worker_slots() + 1;
        let stats = NetStats::new(n_nodes);
        if cfg.obs.enabled {
            stats.set_recorder(Arc::new(ts_obs::Recorder::new(n_nodes, &cfg.obs)));
        }
        let (fabric_task, task_rxs) = Fabric::<TaskMsg>::new_faulty(
            n_nodes,
            cfg.net,
            Arc::clone(&stats),
            cfg.faults.clone(),
            ts_netsim::SimClock::wall(),
        );
        let (fabric_data, data_rxs) = Fabric::<DataMsg>::new_faulty(
            n_nodes,
            cfg.net,
            Arc::clone(&stats),
            cfg.faults.clone(),
            ts_netsim::SimClock::wall(),
        );

        let colmap = ColumnMap::round_robin(table.n_attrs(), cfg.n_workers, cfg.replication);
        // The workers hold the client's table by reference, not by copy.
        let labels = table.shared_labels();
        let attr_types = Arc::new(
            (0..table.n_attrs())
                .map(|a| table.schema().attr_type(a))
                .collect::<Vec<_>>(),
        );
        let residents = residents(table, &colmap, n_nodes - 1, cfg.splitter.hist_bins());

        let mut handles = Vec::new();
        let mut task_rxs = task_rxs.into_iter();
        let master_rx = task_rxs.next().expect("master receiver");
        // The master has no data-plane loop (§V: it never relays Ix);
        // dropping its receiver is deliberate.
        let mut data_rxs = data_rxs.into_iter().skip(1);
        for (w, held) in (1..).zip(residents) {
            handles.extend(Worker::spawn(
                w,
                cfg.worker_work_ns(w),
                held,
                Arc::clone(&labels),
                Arc::clone(&attr_types),
                table.schema().task,
                cfg.compers_per_worker,
                fabric_task.clone(),
                fabric_data.clone(),
                task_rxs.next().expect("a receiver per slot"),
                data_rxs.next().expect("a receiver per slot"),
                cfg.splitter.hist_bins(),
            ));
        }

        let master = Master::new(
            cfg.clone(),
            table.n_rows(),
            table.n_attrs(),
            table.schema().task,
            colmap,
            Arc::clone(&stats),
        );
        let master = Arc::new(Mutex::new(master));
        {
            let m = Arc::clone(&master);
            let fabric = fabric_task.clone();
            handles.push(
                std::thread::Builder::new()
                    .name("master".into())
                    .spawn(move || Master::run(&m, &fabric, master_rx))
                    .expect("spawn master"),
            );
        }

        Cluster {
            master,
            stats,
            fabric_task,
            handles,
            pending: Mutex::new(HashMap::new()),
            task_kind: table.schema().task,
            n_rows: table.n_rows(),
            launched: Instant::now(),
            kernel_base: ts_splits::sorted::kernel_counters(),
        }
    }

    /// Announces a spot preemption of `worker` with a grace window
    /// (`ts-elastic`): the master drains it — no new plans, queued plans
    /// reclaimed, columns handed off — and retires it cleanly once its
    /// in-flight work finishes. A drain that outlives `grace` escalates to
    /// ordinary crash recovery. Compare [`Cluster::kill_worker`], the
    /// unannounced variant.
    pub fn preempt_worker(&self, worker: NodeId, grace: Duration) {
        assert!(worker >= 1, "cannot preempt the master");
        let now = self.fabric_task.clock().now_ns();
        Master::call(&self.master, &self.fabric_task, |m| {
            m.begin_drain(now, worker, grace)
        });
    }

    /// Whether `worker` is currently mid-drain.
    pub fn is_draining(&self, worker: NodeId) -> bool {
        self.master.lock().is_draining(worker)
    }

    /// The currently live workers (roster order).
    pub fn live_workers(&self) -> Vec<NodeId> {
        self.master.lock().live_workers().to_vec()
    }

    /// Launches a cluster whose workers load their columns from a dataset in
    /// the simulated DFS (the paper's normal deployment: "loads data in
    /// parallel from HDFS"). The per-file connection cost of the DFS applies.
    pub fn launch_from_dfs(
        cfg: ClusterConfig,
        dfs: &ts_dfs::Dfs,
        dataset: &str,
    ) -> Result<Cluster, ts_dfs::DfsError> {
        let table = dfs.open(dataset)?.load_all()?;
        Ok(Cluster::launch(cfg, &table))
    }

    /// Submits a job without blocking.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let (handle, rx) = Master::call(&self.master, &self.fabric_task, |m| m.submit(spec));
        self.pending.lock().insert(handle, rx);
        handle
    }

    /// Blocks until a submitted job completes and returns its model.
    ///
    /// # Panics
    /// Panics if the handle is unknown or was already waited on.
    pub fn wait(&self, handle: JobHandle) -> JobResult {
        let rx = self
            .pending
            .lock()
            .remove(&handle)
            .expect("unknown or already-waited job handle");
        rx.recv().expect("master dropped the job notifier")
    }

    /// Convenience: submit + wait.
    pub fn train(&self, spec: JobSpec) -> JobResult {
        let h = self.submit(spec);
        self.wait(h)
    }

    /// The prediction task of the loaded table.
    pub fn task(&self) -> Task {
        self.task_kind
    }

    /// Replaces the replicated target column `Y` on every worker — the
    /// re-labelling step between boosting rounds (see [`crate::gbt`]).
    ///
    /// The master thread sends the new column, accounted and paced like any
    /// other transfer, ahead of every plan of a job submitted after this
    /// returns. Callers must quiesce first (wait for all submitted jobs):
    /// in-flight tasks of an old round would otherwise mix label versions.
    ///
    /// # Panics
    /// Panics if the length differs from the table's row count or jobs are
    /// still pending.
    pub fn update_labels(&self, labels: &ts_datatable::Labels) {
        assert!(
            self.pending.lock().is_empty(),
            "update_labels while jobs are pending — wait() on them first"
        );
        assert_eq!(
            labels.len(),
            self.n_rows,
            "label column length must match the table's row count"
        );
        let task = match labels {
            ts_datatable::Labels::Real(_) => Task::Regression,
            ts_datatable::Labels::Class(_) => self.task_kind,
        };
        let labels = Arc::new(labels.clone());
        Master::call(&self.master, &self.fabric_task, |m| m.relabel(task, labels));
    }

    /// Simulates an *announced* worker crash: the worker stops processing
    /// and the master immediately re-replicates its columns and restarts
    /// all in-flight trees. (A crash injected with
    /// `FaultPlan::with_crash_at_delegation` is the silent variant: the
    /// worker just goes dark, and the master declares it dead when the
    /// suspicion timer the injection armed fires.)
    ///
    /// If recovery is impossible (e.g. the worker held the last replica of
    /// a column), all pending jobs fail with a `JobResult::Failed` carrying
    /// the structured reason.
    pub fn kill_worker(&self, worker: NodeId) {
        assert!(worker >= 1, "cannot kill the master");
        Master::call(&self.master, &self.fabric_task, |m| m.kill(worker));
    }

    /// Live statistics handle.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// The attached event recorder, when `ClusterConfig::obs.enabled` was
    /// set at launch. Split-kernel and split-plane counters are synced into
    /// the registry on every call, so `metrics_json()` always reflects the
    /// current counts.
    pub fn obs(&self) -> Option<&Arc<ts_obs::Recorder>> {
        self.sync_counters();
        self.stats.recorder()
    }

    /// Reconstructs the span DAG from the rings and builds a `TraceReport`
    /// for the most recently finished job (critical path + phase breakdown).
    /// `None` without a recorder or before any job span closed.
    pub fn trace_report(&self) -> Option<ts_obs::TraceReport> {
        self.stats.recorder().and_then(|r| r.trace_report())
    }

    /// Folds the process-global split-kernel counters (delta since launch)
    /// and the master's split-plane byte counts into the recorder's metrics
    /// registry. Monotone: only the missing remainder is added, so repeated
    /// calls never double-count.
    fn sync_counters(&self) {
        let Some(rec) = self.stats.recorder() else {
            return;
        };
        let cur = ts_splits::sorted::kernel_counters();
        let (split_bytes, hist_bytes) = self.master.lock().split_plane_bytes();
        let reg = rec.registry();
        let sync = |name: &'static str, base: u64, now: u64| {
            let target = now.saturating_sub(base);
            let c = reg.counter(name);
            let have = c.get();
            if target > have {
                c.add(target - have);
            }
        };
        sync(
            "split_kernel_sorted_scans",
            self.kernel_base.numeric_sorted_scans,
            cur.numeric_sorted_scans,
        );
        sync(
            "split_scratch_pool_hits",
            self.kernel_base.pool_hits,
            cur.pool_hits,
        );
        sync(
            "split_scratch_pool_misses",
            self.kernel_base.pool_misses,
            cur.pool_misses,
        );
        sync("split_bytes_sent", 0, split_bytes);
        sync("hist_bytes_sent", 0, hist_bytes);
    }

    /// A point-in-time report in the paper's units.
    pub fn report(&self) -> ClusterReport {
        self.sync_counters();
        let mut report = ClusterReport::from_stats(&self.stats, self.launched.elapsed());
        let (steal_acks, (split_bytes, hist_bytes)) = {
            let m = self.master.lock();
            (m.steal_ack_bytes(), m.split_plane_bytes())
        };
        report.master_sent_bytes = report.master_sent_bytes.saturating_sub(steal_acks);
        report.split_bytes_sent = split_bytes;
        report.hist_bytes_sent = hist_bytes;
        report
    }

    /// Stops every machine and returns the final report. All submitted jobs
    /// must have been waited on first.
    pub fn shutdown(self) -> ClusterReport {
        assert!(
            self.pending.lock().is_empty(),
            "shutdown with jobs still pending — wait() on them first"
        );
        let report = self.report();
        Master::call(&self.master, &self.fabric_task, Master::shutdown);
        for h in self.handles {
            let _ = h.join();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_with_zero_workers_is_finite() {
        // Regression: the worker averages used to divide by per_node.len()-1
        // and return NaN for a master-only stats set.
        let stats = NetStats::new(1);
        let r = ClusterReport::from_stats(&stats, Duration::ZERO);
        assert_eq!(r.avg_cpu_percent, 0.0);
        assert_eq!(r.avg_send_mbps, 0.0);
        assert_eq!(r.avg_peak_mem_bytes, 0.0);
        assert!(r.avg_cpu_percent.is_finite());
        assert_eq!(r.per_node.len(), 1);

        let empty = ClusterReport::from_stats(&NetStats::new(0), Duration::ZERO);
        assert_eq!(empty.master_sent_bytes, 0);
        assert!(empty.avg_peak_mem_bytes.is_finite());
    }

    #[test]
    fn master_sent_bytes_repeats_whatever_the_steal_count() {
        // Replication 1 pins every column to one holder, so the frames the
        // job makes the master send are a function of the job. What differs
        // between two runs of this skewed cluster is how many steals — and
        // header-only `Donate` acks — thread timing produces (7 to 58 seen).
        let t = ts_datatable::synth::generate(&ts_datatable::synth::SynthSpec {
            rows: 4_000,
            numeric: 4,
            categorical: 1,
            seed: 5,
            ..Default::default()
        });
        let run = || {
            let cfg = ClusterConfig {
                n_workers: 2,
                compers_per_worker: 1,
                replication: 1,
                tau_d: 500,
                work_ns_per_unit: 5,
                work_scale: vec![4.0, 1.0],
                ..ClusterConfig::default()
            };
            let cluster = Cluster::launch(cfg, &t);
            let spec = JobSpec::random_forest(t.schema().task, 6).with_dmax(6);
            cluster.train(spec.with_seed(9));
            let r = cluster.shutdown();
            assert!(r.master_sent_bytes <= r.per_node[0].sent_bytes);
            r.master_sent_bytes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_finished_tree_leaves_the_master_in_canonical_order() {
        // Column-task results fold in arrival order, and subtree-tasks graft
        // whole arenas; the master still hands back depth-first pre-order.
        let t = ts_datatable::synth::generate(&ts_datatable::synth::SynthSpec {
            rows: 2_000,
            numeric: 3,
            categorical: 1,
            seed: 4,
            ..Default::default()
        });
        let cfg = ClusterConfig {
            n_workers: 2,
            compers_per_worker: 1,
            tau_d: 500,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::launch(cfg, &t);
        let model = cluster
            .train(JobSpec::decision_tree(t.schema().task).with_dmax(6))
            .into_tree();
        cluster.shutdown();
        assert!(model.nodes.len() > 7, "too small a tree to test the order");
        assert_eq!(model.to_json(), model.canonicalize().to_json());
    }

    #[test]
    fn each_holder_is_charged_its_columns_bins_and_labels_at_launch() {
        // Three workers at replication 2 hold attributes {0, 2, 3}, {0, 1,
        // 3} and {1, 2}. Each is charged, in full, what it holds: 8 B a row
        // per numeric column (attributes 0–2), 4 B per categorical one (3),
        // a numeric column's bin ids (1 B a row at 16 bins) and its fifteen
        // 8 B cuts, and 4 B a row of labels — though all of it is one shared
        // copy. Worker 1: 8 000 + 8 000 + 4 000 + 2 × 1 120 + 4 000. These
        // are the numbers of a launch that copied every column per holder.
        let t = ts_datatable::synth::generate(&ts_datatable::synth::SynthSpec {
            rows: 1_000,
            numeric: 3,
            categorical: 1,
            seed: 3,
            ..Default::default()
        });
        let cfg = ClusterConfig {
            n_workers: 3,
            compers_per_worker: 1,
            replication: 2,
            splitter: crate::config::Splitter::Histogram {
                bins: 16,
                vote_k: 2,
            },
            ..ClusterConfig::default()
        };
        let cluster = Cluster::launch(cfg, &t);
        let peaks: Vec<u64> = (1..=3)
            .map(|w| cluster.stats().snapshot(w).mem_peak)
            .collect();
        cluster.shutdown();
        assert_eq!(peaks, [26_240, 26_240, 22_240]);
    }

    #[test]
    fn a_worker_whose_compers_panic_is_recovered_as_a_crash() {
        // Labels outside the table's classes, sent to worker 2 alone, make
        // its compers panic on their first task. Each says so on its way
        // out; the master fences worker 2 and restarts the tree on the
        // other three, which hold a replica of every column.
        let t = ts_datatable::synth::generate(&ts_datatable::synth::SynthSpec {
            rows: 3_000,
            numeric: 6,
            categorical: 0,
            seed: 41,
            ..Default::default()
        });
        let cfg = ClusterConfig {
            n_workers: 4,
            compers_per_worker: 2,
            replication: 2,
            tau_d: 100,
            ..ClusterConfig::default()
        };
        let train = |cluster: &Cluster| {
            let spec = JobSpec::decision_tree(cluster.task());
            cluster.train(spec).into_tree().canonicalize()
        };
        let cluster = Cluster::launch(cfg.clone(), &t);
        let clean = train(&cluster);
        cluster.shutdown();

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cluster = Cluster::launch(cfg, &t);
            let labels = Arc::new(ts_datatable::Labels::Class(vec![250; t.n_rows()]));
            let _ = (cluster.fabric_task).send(0, 2, TaskMsg::LoadLabels { labels });
            let model = train(&cluster);
            cluster.shutdown();
            let _ = done_tx.send(model);
        });
        let model = done_rx.recv_timeout(Duration::from_secs(20));
        assert_eq!(model.expect("train or shutdown hung"), clean);
    }

    #[test]
    fn report_serializes_and_displays() {
        let stats = NetStats::new(3);
        stats.record_send(0, 1, 1_000);
        stats.add_busy(1, Duration::from_millis(5));
        let r = ClusterReport::from_stats(&stats, Duration::from_secs(1));
        let json = tsjson::to_string(&r).expect("report serializes");
        assert!(json.contains("\"per_node\""), "{json}");
        assert!(json.contains("\"master_sent_bytes\":1000"), "{json}");
        let text = r.to_string();
        assert!(text.contains("master"), "{text}");
        assert!(text.contains("worker2"), "{text}");
        assert!(text.contains("Mbps"), "{text}");
    }
}
