//! The master machine: tree/task scheduling, result folding, load-balanced
//! assignment, and fault recovery.
//!
//! Two threads, as in the paper (§IV, Fig. 14(a)):
//!
//! - `θ_main` ([`Master::main_loop`]): admits trees into the active pool
//!   (at most `n_pool` at a time), pops plans from the head of the deque
//!   `Bplan`, runs the §VI greedy assignment against `M_work`, and ships
//!   plans (plus delegate serve-quotas) to workers.
//! - `θ_recv` ([`Master::recv_loop`]): folds column-task results into the
//!   task table `Ttask`, picks the overall best split, confirms the winner
//!   (making it the delegate worker), types the child tasks from the
//!   returned `|Ixl|`/`|Ixr|` counters, grafts completed subtrees, and
//!   tracks per-tree progress (Appendix C's `T_prog`) to flush finished
//!   trees and complete jobs.
//!
//! Hybrid scheduling (§III, Fig. 4/5): a new task goes to the **head** of
//! `Bplan` when `|Dx| <= τ_dfs` (depth-first — reaches CPU-bound
//! subtree-tasks quickly) and to the **tail** otherwise (breadth-first —
//! generates parallelism early).

use crate::assign::{assign_column_task, assign_subtree, ColumnMap, LoadMatrix, COMP};
use crate::config::ClusterConfig;
use crate::ids::{ParentRef, Side, TaskId, TreeId};
use crate::job::{JobHandle, JobKind, JobResult, JobSpec, TreeSpec};
use crate::messages::{ColumnPlan, ColumnTaskBest, SubtreePlan, TaskMsg};
use crate::recovery::RecoveryError;
use crate::sched::{PlanQueue, StealInfo, TauController};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ts_datatable::Task;
use ts_netsim::{Fabric, FabricReceiver, NodeId, WireSized};
use ts_obs::{SpanId, TraceCtx};
use ts_splits::exact::ColumnSplit;
use ts_splits::impurity::NodeStats;
use ts_tree::{
    graft_nodes, trainer::prediction_from_stats, DecisionTreeModel, Node, Prediction, SplitInfo,
};
use tschan::sync::Mutex;
use tschan::{Receiver, Sender};
use tsrand::rngs::StdRng;
use tsrand::{Rng, SeedableRng};

/// A task descriptor waiting in `Bplan` for worker assignment.
#[derive(Debug, Clone)]
struct PlanDesc {
    task: TaskId,
    tree: TreeId,
    node: usize,
    parent: ParentRef,
    n_rows: u64,
    depth: u32,
    /// Root-path identifier: 1 for the root, `p<<1` / `p<<1|1` for left /
    /// right children. Stable across scheduling interleavings, so all
    /// randomness (extra-trees sampling, subtree seeds) derives from it
    /// rather than from racy task ids.
    path: u64,
    /// The trace (job span id) this plan belongs to.
    trace: u64,
    /// The plan's own span, opened when the plan is created; `SpanActive`
    /// when `θ_main` pops it, closed when its dispatch sends are done.
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    span: u64,
}

/// SplitMix64 finaliser: decorrelates path-derived seeds.
fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The master's record of an in-flight task (`Ttask`).
struct MasterTask {
    tree: TreeId,
    node: usize,
    n_rows: u64,
    depth: u32,
    path: u64,
    charges: Vec<(NodeId, [u64; 3])>,
    /// Every worker this task involves on either plane: shards / key
    /// worker / column sources / `Ix` parent. A draining worker cannot
    /// depart while any in-flight task touches it (`ts-elastic`).
    touches: Vec<NodeId>,
    kind: TaskKind,
    /// The trace (job span id) the task belongs to.
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    trace: u64,
    /// The task's span (the one its plan/result frames carry).
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    span: u64,
    /// Dispatch clock reading (`Fabric::clock`), for the master-side
    /// task-latency histograms; virtual time under `SimClock::virtual_at`,
    /// so seeded replays measure identical latencies.
    #[cfg(feature = "obs")]
    started_ns: u64,
}

#[allow(clippy::large_enum_variant)] // Column is the hot variant; boxing it costs more
enum TaskKind {
    Column {
        pending: usize,
        involved: Vec<NodeId>,
        best: Option<(NodeId, ColumnTaskBest)>,
        node_stats: Option<NodeStats>,
    },
    /// Histogram-mode column task (`docs/HISTOGRAM.md`): shards nominate
    /// bare `(attr, gain)` candidates; once all have voted the master
    /// elects a winner and fetches the one full split it needs.
    Hist {
        pending: usize,
        involved: Vec<NodeId>,
        /// Accumulated nominations as `(gain, attr, worker)` triples.
        cands: Vec<(f64, usize, NodeId)>,
        /// Node statistics from the designated stats shard.
        node_stats: Option<NodeStats>,
        /// The elected full split, filled by `HistBest`.
        best: Option<(NodeId, ColumnTaskBest)>,
        /// The worker a `HistFetch` is outstanding to.
        fetched: Option<NodeId>,
    },
    Subtree,
}

/// A tree being built.
struct ActiveTree {
    job: u64,
    /// Index of this tree within its job.
    index: usize,
    /// The owning job's trace id (= its root span).
    trace: u64,
    spec: TreeSpec,
    nodes: Vec<Node>,
    /// Outstanding tasks (Appendix C's per-tree progress counter).
    pending: u64,
}

/// One submitted job.
struct JobState {
    total: usize,
    done: usize,
    models: Vec<Option<DecisionTreeModel>>,
    kind: JobKind,
    notify: Sender<JobResult>,
    /// The job's root span; doubles as the trace id for every span the job
    /// produces (plans, tasks, child plans, ...).
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    span: u64,
}

/// Trees waiting for pool admission.
struct QueuedTree {
    job: u64,
    index: usize,
    spec: TreeSpec,
    /// The owning job's trace id (= its root span).
    trace: u64,
}

struct Registry {
    jobs: HashMap<u64, JobState>,
    queue: VecDeque<QueuedTree>,
    active: HashMap<TreeId, ActiveTree>,
    next_tree: u64,
    next_job: u64,
}

/// Master-side state of one draining worker (announced preemption,
/// `ts-elastic`; see `docs/ELASTICITY.md` for the state machine).
struct DrainState {
    /// Clock deadline (`begin_drain` time + grace window); a drain still
    /// incomplete past it escalates to ordinary crash recovery.
    deadline_ns: u64,
    /// Columns the leaver is still the holder of record for, pending
    /// handoff to another worker (`ReplicateDone` retires them one by one).
    migrating: BTreeSet<usize>,
    /// The leaver reported its task queue idle (`Goodbye` received).
    goodbye: bool,
}

/// One worker's liveness lease.
struct HbLease {
    /// Clock reading of the most recent heartbeat (or lease creation).
    last_ns: u64,
    /// Missed-interval count already reported via `HeartbeatMissed`, so each
    /// detector pass emits at most one event per worker.
    reported: u64,
}

/// Shared master state; the two master threads and the `Cluster` handle all
/// hold an `Arc<Master>`.
pub struct Master {
    cfg: ClusterConfig,
    n_rows: usize,
    n_attrs: usize,
    data_task: Mutex<Task>,
    workers: Mutex<Vec<NodeId>>,
    colmap: Mutex<ColumnMap>,
    /// The plan queue `Bplan` (`ts-sched`): per-worker affinity deques plus
    /// a global one, bounded in-flight dispatch, stealing for idle workers.
    /// Condvar-signalled — pushes, completions and steal requests wake
    /// `θ_main` immediately.
    plans: PlanQueue<PlanDesc>,
    /// Adaptive `τ_D`/`τ_dfs` (`cfg.adaptive_tau`); holds the statics
    /// until the `LatencyFeed` has enough samples of both task kinds.
    tau: Mutex<TauController>,
    /// Clock reading of the last controller update (throttles feed
    /// snapshots to about twice per heartbeat interval).
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    last_tau_update: AtomicU64,
    ttask: Mutex<HashMap<TaskId, MasterTask>>,
    mwork: Mutex<LoadMatrix>,
    registry: Mutex<Registry>,
    next_task: AtomicU64,
    /// Span-id allocator for ts-trace. Master-allocated so ids are unique
    /// cluster-wide; starts at 1 because 0 means "no span".
    next_span: AtomicU64,
    /// Cluster-wide count of subtree delegations, driving the fault plan's
    /// `crash_at_delegation` trigger (global so the trigger is independent
    /// of which worker happens to be picked as key worker).
    delegations: AtomicU64,
    /// Bytes of `Donate` acks sent so far. How many steals a job sees
    /// follows thread timing, not the job, so `Cluster::report` keeps them
    /// out of `master_sent_bytes`, which then repeats for a fixed job.
    steal_ack_bytes: AtomicU64,
    shutdown: AtomicBool,
    fabric: Fabric<TaskMsg>,
    /// Liveness leases per worker, refreshed by `Heartbeat` messages and
    /// swept by `check_heartbeats` on the main loop.
    last_hb: Mutex<HashMap<NodeId, HbLease>>,
    /// Clock reading of the last detector sweep (throttles the sweep to
    /// roughly twice per heartbeat interval).
    last_hb_sweep: AtomicU64,
    /// Set once recovery proved impossible: every pending and future job
    /// fails with this reason instead of training.
    degraded: Mutex<Option<RecoveryError>>,
    /// Workers mid-drain, keyed by node id (`ts-elastic` preemption).
    draining: Mutex<HashMap<NodeId, DrainState>>,
    /// In-flight elastic migrations: `(attr, destination) → source`.
    /// Distinguishes join/drain migrations from crash re-replication when
    /// a `ReplicateDone` arrives.
    migrations: Mutex<HashMap<(usize, NodeId), NodeId>>,
    /// Held by `θ_recv` across one message and by the drain check: folding
    /// a result takes the task out of the task table before it queues the
    /// child plans, and a check in between would let the winner's worker
    /// depart with `Ix` still to serve.
    folding: Mutex<()>,
}

impl Master {
    /// Creates the master state.
    pub fn new(
        cfg: ClusterConfig,
        n_rows: usize,
        n_attrs: usize,
        data_task: Task,
        colmap: ColumnMap,
        fabric: Fabric<TaskMsg>,
    ) -> Arc<Master> {
        let workers: Vec<NodeId> = (1..=cfg.n_workers).collect();
        let now = fabric.clock().now_ns();
        let leases: HashMap<NodeId, HbLease> = workers
            .iter()
            .map(|&w| {
                (
                    w,
                    HbLease {
                        last_ns: now,
                        reported: 0,
                    },
                )
            })
            .collect();
        // Per-worker in-flight window: enough dispatched work to keep every
        // comper busy while the next tasks' column/`Ix` fetches are in
        // flight; the rest waits master-side, where it can be re-routed.
        let plans = PlanQueue::new(2 * cfg.compers_per_worker + 2);
        plans.set_workers(&workers);
        let tau = Mutex::new(TauController::new(cfg.tau_d, cfg.tau_dfs));
        Arc::new(Master {
            cfg,
            n_rows,
            n_attrs,
            data_task: Mutex::new(data_task),
            workers: Mutex::new(workers),
            colmap: Mutex::new(colmap),
            plans,
            tau,
            last_tau_update: AtomicU64::new(0),
            ttask: Mutex::new(HashMap::new()),
            mwork: Mutex::new(LoadMatrix::new(0)),
            registry: Mutex::new(Registry {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                active: HashMap::new(),
                next_tree: 0,
                next_job: 0,
            }),
            next_task: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            delegations: AtomicU64::new(0),
            steal_ack_bytes: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            fabric,
            last_hb: Mutex::new(leases),
            last_hb_sweep: AtomicU64::new(0),
            degraded: Mutex::new(None),
            draining: Mutex::new(HashMap::new()),
            migrations: Mutex::new(HashMap::new()),
            folding: Mutex::new(()),
        })
    }

    /// Initialises the load matrix once the cluster size is known.
    pub fn init_load_matrix(&self, n_nodes: usize) {
        *self.mwork.lock() = LoadMatrix::new(n_nodes);
    }

    /// Submits a job; returns the handle and the result channel.
    ///
    /// On a degraded cluster (recovery proved impossible) the job fails
    /// immediately with the stored reason.
    pub fn submit(&self, spec: JobSpec) -> (JobHandle, Receiver<JobResult>) {
        let trees = spec.expand(self.n_attrs);
        let (tx, rx) = tschan::bounded(1);
        if let Some(err) = self.degraded.lock().clone() {
            let mut reg = self.registry.lock();
            let job_id = reg.next_job;
            reg.next_job += 1;
            drop(reg);
            let _ = tx.send(JobResult::Failed(err));
            return (JobHandle(job_id), rx);
        }
        // The job's root span doubles as the trace id: every descendant
        // span (plans, tasks) carries it across the fabric.
        let job_span = self.new_span();
        let mut reg = self.registry.lock();
        let job_id = reg.next_job;
        reg.next_job += 1;
        reg.jobs.insert(
            job_id,
            JobState {
                total: trees.len(),
                done: 0,
                models: vec![None; trees.len()],
                kind: spec.kind.clone(),
                notify: tx,
                span: job_span,
            },
        );
        for (index, spec) in trees.into_iter().enumerate() {
            reg.queue.push_back(QueuedTree {
                job: job_id,
                index,
                spec,
                trace: job_span,
            });
        }
        drop(reg);
        // Wake θ_main so admission does not wait out a queue timeout.
        self.plans.notify();
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::JobSubmitted { job: job_id }
        );
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::SpanOpen {
                trace: job_span,
                span: job_span,
                parent: 0,
                kind: ts_obs::SpanKind::Job,
                subject: job_id,
            }
        );
        (JobHandle(job_id), rx)
    }

    /// The current prediction task (boosting rounds may retarget it).
    pub fn data_task(&self) -> Task {
        *self.data_task.lock()
    }

    /// Retargets the prediction task (see `Cluster::update_labels`).
    pub fn set_data_task(&self, task: Task) {
        *self.data_task.lock() = task;
    }

    /// The currently live workers.
    pub fn live_workers(&self) -> Vec<NodeId> {
        self.workers.lock().clone()
    }

    /// Bytes of steal acks (`Donate` frames) the master has sent.
    pub fn steal_ack_bytes(&self) -> u64 {
        self.steal_ack_bytes.load(Ordering::Relaxed)
    }

    /// Requests shutdown: `θ_main` notifies workers and both loops exit.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake θ_main if it is blocked on an empty plan queue.
        self.plans.notify();
    }

    fn new_task(&self) -> TaskId {
        TaskId(self.next_task.fetch_add(1, Ordering::Relaxed))
    }

    fn new_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn placeholder_pred(&self) -> Prediction {
        match self.data_task() {
            Task::Classification { n_classes } => Prediction::Class {
                label: 0,
                pmf: vec![0.0; n_classes as usize],
            },
            Task::Regression => Prediction::Real(0.0),
        }
    }

    /// The thresholds in force right now: the adaptive controller's when
    /// `cfg.adaptive_tau` is set, the static configuration otherwise.
    fn current_tau(&self) -> (u64, u64) {
        if self.cfg.adaptive_tau {
            let tau = self.tau.lock();
            (tau.tau_d(), tau.tau_dfs())
        } else {
            (self.cfg.tau_d, self.cfg.tau_dfs)
        }
    }

    /// Folds a fresh `LatencyFeed` snapshot into the τ controller, at most
    /// about twice per heartbeat interval. No-op unless `cfg.adaptive_tau`
    /// is set and a recorder is attached (the feed lives on the recorder).
    #[cfg(feature = "obs")]
    fn maybe_update_tau(&self) {
        if !self.cfg.adaptive_tau {
            return;
        }
        let Some(rec) = self.fabric.stats().recorder() else {
            return;
        };
        let interval = (self.cfg.heartbeat_interval.as_nanos() as u64).max(2);
        let now = self.fabric.clock().now_ns();
        let last = self.last_tau_update.load(Ordering::Relaxed);
        if now.saturating_sub(last) < interval / 2 {
            return;
        }
        self.last_tau_update.store(now, Ordering::Relaxed);
        self.tau.lock().update(&rec.latency_feed().snapshot());
    }

    #[cfg(not(feature = "obs"))]
    fn maybe_update_tau(&self) {}

    /// Inserts a plan into `Bplan` per the hybrid BFS/DFS rule. The plan
    /// lands on its parent worker's deque (§VI affinity); roots go to the
    /// shared global deque.
    fn enqueue_plan(&self, desc: PlanDesc) {
        let (_, tau_dfs) = self.current_tau();
        let head = desc.n_rows <= tau_dfs;
        let affinity = match desc.parent {
            ParentRef::Root => None,
            ParentRef::Node { worker, .. } => Some(worker),
        };
        #[cfg(feature = "obs")]
        let (depth, rows) = (desc.depth, desc.n_rows);
        let _qlen = self.plans.push(desc, affinity, head);
        #[cfg(feature = "obs")]
        {
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::BplanPush {
                    end: if head {
                        ts_obs::DequeEnd::Head
                    } else {
                        ts_obs::DequeEnd::Tail
                    },
                    depth,
                    rows,
                    qlen: _qlen as u32,
                }
            );
        }
    }

    // ------------------------------------------------------------------
    // θ_main: admission + assignment.
    // ------------------------------------------------------------------

    /// The master's main thread.
    pub fn main_loop(self: Arc<Self>) {
        // The §VI COMP column as of the current pop (reused; see below).
        let mut comp: Vec<u64> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                let mut workers = self.workers.lock().clone();
                // Draining workers left the roster but are still alive
                // (serving their data plane): they need the Shutdown too.
                workers.extend(self.draining.lock().keys().copied());
                for w in workers {
                    let _ = self.fabric.send(0, w, TaskMsg::Shutdown);
                }
                // Wake θ_recv so it can exit.
                let _ = self.fabric.send(0, 0, TaskMsg::Shutdown);
                return;
            }
            self.check_heartbeats();
            self.maybe_finish_drains();
            self.admit_trees();
            self.maybe_update_tau();
            // Bound the wait so the heartbeat detector and shutdown flag
            // keep being polled even while the queue is idle; any push,
            // completion or steal request wakes the condvar immediately.
            let timeout = (self.cfg.heartbeat_interval / 2)
                .clamp(Duration::from_millis(1), Duration::from_millis(50));
            // Steal victims of equal deque length are ranked by §VI COMP
            // load. The queue gets a copy taken before the pop, so its lock
            // and `mwork` are never held together.
            self.mwork.lock().copy_column(COMP, &mut comp);
            if let Some((d, steal)) = self.plans.next_timeout(timeout, &comp) {
                self.assign_plan(d, steal);
            }
        }
    }

    /// Lease-based failure detector (run on `θ_main`): a worker whose last
    /// heartbeat is older than `heartbeat_interval * heartbeat_miss_threshold`
    /// is declared dead and handed to the normal crash-recovery path. The
    /// sweep is throttled to about twice per heartbeat interval.
    ///
    /// A false positive (e.g. a heavily descheduled but healthy worker) is
    /// survivable: recovery revokes and restarts in-flight trees, which
    /// preserves the trained model; the declared-dead worker's late results
    /// refer to revoked trees and are silently dropped.
    fn check_heartbeats(&self) {
        let interval = (self.cfg.heartbeat_interval.as_nanos() as u64).max(1);
        let now = self.fabric.clock().now_ns();
        let last = self.last_hb_sweep.load(Ordering::Relaxed);
        if now.saturating_sub(last) < interval / 2 {
            return;
        }
        self.last_hb_sweep.store(now, Ordering::Relaxed);
        if self.degraded.lock().is_some() {
            return;
        }
        let threshold = u64::from(self.cfg.heartbeat_miss_threshold);
        let mut suspects: Vec<NodeId> = Vec::new();
        {
            let live = self.workers.lock().clone();
            let mut hb = self.last_hb.lock();
            for &w in &live {
                let lease = hb.entry(w).or_insert(HbLease {
                    last_ns: now,
                    reported: 0,
                });
                let missed = now.saturating_sub(lease.last_ns) / interval;
                if missed > lease.reported {
                    lease.reported = missed;
                    obs_event!(
                        self.fabric.stats(),
                        0,
                        ts_obs::Event::HeartbeatMissed {
                            worker: w as u32,
                            missed,
                        }
                    );
                }
                if missed >= threshold {
                    suspects.push(w);
                }
            }
        }
        for w in suspects {
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::WorkerSuspected { worker: w as u32 }
            );
            self.recover_or_degrade(w);
        }
        // Elastic drains piggyback on the same sweep: escalate leavers that
        // blew their grace window.
        self.escalate_expired_drains(now);
    }

    /// A drain that outlives its grace window stops being graceful: the
    /// leaver is re-listed and handed to ordinary crash recovery, exactly
    /// as if it had gone silent (spot preemption fired before the handoff
    /// finished).
    fn escalate_expired_drains(&self, now: u64) {
        let expired: Vec<NodeId> = {
            let draining = self.draining.lock();
            draining
                .iter()
                .filter(|&(_, st)| now >= st.deadline_ns)
                .map(|(&w, _)| w)
                .collect()
        };
        for w in expired {
            self.draining.lock().remove(&w);
            // Its outbound handoffs die with it; survivor-sourced
            // re-replications stay useful and complete normally.
            self.migrations.lock().retain(|_, &mut from| from != w);
            // Re-list the worker so the crash path's dedupe accepts it.
            {
                let mut workers = self.workers.lock();
                if !workers.contains(&w) {
                    workers.push(w);
                    workers.sort_unstable();
                }
            }
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::WorkerSuspected { worker: w as u32 }
            );
            self.recover_or_degrade(w);
        }
    }

    /// Refreshes a worker's liveness lease (`θ_recv`, on every heartbeat).
    /// Heartbeats from already-declared-dead workers carry no lease and are
    /// ignored.
    fn on_heartbeat(&self, worker: NodeId) {
        let now = self.fabric.clock().now_ns();
        if let Some(lease) = self.last_hb.lock().get_mut(&worker) {
            lease.last_ns = now;
            lease.reported = 0;
        }
    }

    /// Admits queued trees while the active pool has room (`n_pool`).
    fn admit_trees(&self) {
        loop {
            let root = {
                let mut reg = self.registry.lock();
                if reg.active.len() >= self.cfg.n_pool {
                    return;
                }
                let Some(q) = reg.queue.pop_front() else {
                    return;
                };
                let tree = TreeId(reg.next_tree);
                reg.next_tree += 1;
                let trace = q.trace;
                reg.active.insert(
                    tree,
                    ActiveTree {
                        job: q.job,
                        index: q.index,
                        trace,
                        spec: q.spec,
                        nodes: vec![Node::leaf(self.placeholder_pred(), 0, 0)],
                        pending: 1,
                    },
                );
                PlanDesc {
                    task: self.new_task(),
                    tree,
                    node: 0,
                    parent: ParentRef::Root,
                    n_rows: self.n_rows as u64,
                    depth: 0,
                    path: 1,
                    trace,
                    span: self.new_span(),
                }
            };
            // Root plans hang directly off the job span.
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::SpanOpen {
                    trace: root.trace,
                    span: root.span,
                    parent: root.trace,
                    kind: ts_obs::SpanKind::Plan,
                    subject: root.task.0,
                }
            );
            self.enqueue_plan(root);
        }
    }

    /// Assigns one plan to workers (§VI) and ships it. When the plan was
    /// stolen (`steal`), the thief is told first via a `Donate` frame so
    /// its pending steal request is acknowledged before (or with) the
    /// plan traffic it produced.
    fn assign_plan(&self, desc: PlanDesc, steal: Option<StealInfo>) {
        // Fetch the tree's spec; a missing tree was revoked by recovery.
        let (candidates, params, tree_seed) = {
            let reg = self.registry.lock();
            match reg.active.get(&desc.tree) {
                Some(t) => (t.spec.candidates.clone(), t.spec.params, t.spec.seed),
                None => return,
            }
        };
        let workers = self.workers.lock().clone();
        let (tau_d, _) = self.current_tau();
        let parent_worker = match desc.parent {
            ParentRef::Root => None,
            ParentRef::Node { worker, .. } => Some(worker),
        };
        // The plan span leaves the queue: open→active is queue wait,
        // active→close is assignment + dispatch sends.
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::SpanActive {
                span: desc.span,
                node: 0,
            }
        );
        // The task span: carried by every plan/result frame of this task,
        // closed by θ_recv when the folded result is final.
        let task_span = self.new_span();
        let ctx = TraceCtx::new(desc.trace, SpanId(task_span));
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::SpanOpen {
                trace: desc.trace,
                span: task_span,
                parent: desc.span,
                kind: if desc.n_rows <= tau_d {
                    ts_obs::SpanKind::SubtreeTask
                } else {
                    ts_obs::SpanKind::ColumnTask
                },
                subject: desc.task.0,
            }
        );
        #[cfg(feature = "obs")]
        let started_ns = self.fabric.clock().now_ns();

        // Acknowledge a stolen plan before any of its traffic: the Donate
        // frame clears the thief's outstanding steal request and carries the
        // task span, which draws the steal edge in the span DAG.
        if let Some(info) = steal {
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::PlanStolen {
                    task: desc.task.0,
                    victim: info.victim as u32,
                    thief: info.thief as u32,
                }
            );
            let ack = TaskMsg::Donate {
                task: desc.task,
                victim: info.victim,
                ctx,
            };
            self.steal_ack_bytes
                .fetch_add(ack.wire_bytes() as u64, Ordering::Relaxed);
            let _ = self.fabric.send(0, info.thief, ack);
        }

        // Each arm decides who computes what and returns: the task-table
        // kind, the §VI charges, the workers the task touches, the number of
        // `Ix` requesters the parent's delegate will serve, and the plan
        // frames. Recording and shipping them is the same for every arm.
        let (kind, charges, mut touches, quota, plans) = if desc.n_rows <= tau_d {
            // Subtree-task.
            let asg = {
                let mut mwork = self.mwork.lock();
                let colmap = self.colmap.lock();
                assign_subtree(
                    &mut mwork,
                    &colmap,
                    &workers,
                    &candidates,
                    desc.n_rows,
                    parent_worker,
                )
            };
            let mut touches: Vec<NodeId> = vec![asg.key_worker];
            touches.extend(asg.col_sources.iter().map(|&(_, w)| w));
            let plan = TaskMsg::SubtreePlan(SubtreePlan {
                task: desc.task,
                tree: desc.tree,
                col_sources: asg.col_sources,
                parent: desc.parent,
                n_rows: desc.n_rows,
                depth: desc.depth,
                params,
                seed: mix_seed(tree_seed, desc.path),
                ctx,
            });
            (
                TaskKind::Subtree,
                asg.charges,
                touches,
                asg.ix_requesters.len(),
                vec![(asg.key_worker, plan)],
            )
        } else {
            // Column-task: one shard per involved worker.
            let (shards, charges, random_seed, hist) = if params.extra_trees {
                // Extra-trees: one randomly chosen worker resamples among
                // the columns it holds (round-robin placement makes this
                // distributionally equivalent to uniform attribute sampling;
                // see DESIGN.md).
                let mut rng = StdRng::seed_from_u64(mix_seed(tree_seed, desc.path));
                // Only workers that actually hold columns can resample; with
                // more workers than attribute replicas, some hold none.
                let shard = {
                    let colmap = self.colmap.lock();
                    let eligible: Vec<NodeId> = workers
                        .iter()
                        .copied()
                        .filter(|&w| !colmap.columns_of(w).is_empty())
                        .collect();
                    assert!(!eligible.is_empty(), "no worker holds any column");
                    let w = eligible[rng.gen_range(0..eligible.len())];
                    (w, colmap.columns_of(w))
                };
                let charges = vec![(shard.0, [desc.n_rows, 0, 0])];
                self.mwork.lock().apply(&charges);
                (vec![shard], charges, Some(rng.gen()), None)
            } else {
                // Sharded over column holders. The shard layout is identical
                // for both splitters; only the scoring mode and the result
                // protocol differ (exact full results vs histogram
                // nominations, `docs/HISTOGRAM.md`).
                let mut mwork = self.mwork.lock();
                let colmap = self.colmap.lock();
                let asg = assign_column_task(
                    &mut mwork,
                    &colmap,
                    &candidates,
                    desc.n_rows,
                    parent_worker,
                );
                let hist = match self.cfg.splitter {
                    crate::config::Splitter::Exact => None,
                    crate::config::Splitter::Histogram { bins, vote_k } => {
                        Some(crate::messages::HistPlanConf {
                            bins: bins as u32,
                            vote_k: vote_k as u32,
                            want_stats: false,
                        })
                    }
                };
                (asg.shards, asg.charges, None, hist)
            };
            let involved: Vec<NodeId> = shards.iter().map(|&(w, _)| w).collect();
            let kind = match hist {
                None => TaskKind::Column {
                    pending: involved.len(),
                    involved: involved.clone(),
                    best: None,
                    node_stats: None,
                },
                Some(_) => TaskKind::Hist {
                    pending: involved.len(),
                    involved: involved.clone(),
                    cands: Vec::new(),
                    node_stats: None,
                    best: None,
                    fetched: None,
                },
            };
            let plans = (shards.into_iter().enumerate())
                .map(|(i, (w, cols))| {
                    let plan = TaskMsg::ColumnPlan(ColumnPlan {
                        task: desc.task,
                        tree: desc.tree,
                        cols,
                        parent: desc.parent,
                        n_rows: desc.n_rows,
                        depth: desc.depth,
                        params,
                        random_seed,
                        // In histogram mode exactly one shard (the first, in
                        // the assignment's deterministic order) carries node
                        // stats.
                        hist: hist.map(|h| crate::messages::HistPlanConf {
                            want_stats: i == 0,
                            ..h
                        }),
                        ctx,
                    });
                    (w, plan)
                })
                .collect();
            let quota = involved.len();
            (kind, charges, involved, quota, plans)
        };

        // One in-flight charge per worker that owes a result: the plan
        // frames' destinations. Charged before anything is sent, so a fast
        // result can never be released ahead of its charge.
        let dispatched: Vec<NodeId> = plans.iter().map(|&(w, _)| w).collect();
        self.plans.note_dispatched(&dispatched);
        touches.extend(parent_worker);
        touches.sort_unstable();
        touches.dedup();
        self.ttask.lock().insert(
            desc.task,
            MasterTask {
                tree: desc.tree,
                node: desc.node,
                n_rows: desc.n_rows,
                depth: desc.depth,
                path: desc.path,
                charges,
                touches,
                kind,
                trace: desc.trace,
                span: task_span,
                #[cfg(feature = "obs")]
                started_ns,
            },
        );
        // The parent's delegate learns how many `Ix` requests to serve
        // before the plans that will make them go out.
        let quota_frame = match desc.parent {
            ParentRef::Root => None,
            ParentRef::Node { worker, task, side } => Some((
                worker,
                TaskMsg::ServeQuota {
                    task,
                    side,
                    quota: quota as u32,
                },
            )),
        };
        let msgs = quota_frame.into_iter().chain(plans);
        for (to, msg) in msgs {
            let delegated_subtree = matches!(msg, TaskMsg::SubtreePlan(_));
            #[cfg(feature = "obs")]
            if let Some(rec) = self.fabric.stats().recorder() {
                match &msg {
                    TaskMsg::ColumnPlan(p) => rec.record(
                        0,
                        ts_obs::Event::ColumnTaskDispatched {
                            task: p.task.0,
                            node: to as u32,
                            cols: p.cols.len() as u32,
                            bytes: msg.wire_bytes() as u64,
                        },
                    ),
                    TaskMsg::SubtreePlan(p) => rec.record(
                        0,
                        ts_obs::Event::SubtreeTaskDelegated {
                            task: p.task.0,
                            key_worker: to as u32,
                            rows: p.n_rows,
                        },
                    ),
                    _ => {}
                }
            }
            let _ = self.fabric.send(0, to, msg);
            if delegated_subtree {
                self.note_delegation(to);
            }
        }
        // Dispatch done: the plan span ends here; the task span stays open
        // until θ_recv folds the final result.
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::SpanClose { span: desc.span }
        );
    }

    /// Counts cluster-wide subtree delegations and fires the fault plan's
    /// crash trigger on the n-th one: the key worker that just received the
    /// plan is silenced with a task-channel `Shutdown` (the worker cascades
    /// it into its own data loop and heartbeat thread — see
    /// `Worker::task_loop`). Nothing here announces the crash to the
    /// scheduler: the worker simply goes dark, and the heartbeat detector
    /// (`check_heartbeats`) must *discover* it and run recovery.
    /// `Cluster::kill_worker` remains the externally-announced variant.
    fn note_delegation(&self, key_worker: NodeId) {
        let nth = self.delegations.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(at) = self
            .cfg
            .faults
            .as_ref()
            .and_then(|p| p.crash_at_delegation())
        else {
            return;
        };
        if nth != at {
            return;
        }
        // Re-replication needs a surviving replica; with one worker left the
        // injection is skipped rather than aborting training.
        if self.workers.lock().len() <= 1 {
            return;
        }
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::CrashInjected {
                node: key_worker as u32,
                at_delegation: nth
            }
        );
        let _ = self.fabric.send(0, key_worker, TaskMsg::Shutdown);
    }

    // ------------------------------------------------------------------
    // θ_recv: results.
    // ------------------------------------------------------------------

    /// The master's receiving thread.
    pub fn recv_loop(self: Arc<Self>, rx: FabricReceiver<TaskMsg>) {
        while let Ok(msg) = rx.recv() {
            let _folding = self.folding.lock();
            #[cfg(feature = "obs")]
            self.count_split_plane_bytes(&msg);
            match msg {
                TaskMsg::Heartbeat { worker } => self.on_heartbeat(worker),
                TaskMsg::ColumnResult {
                    task,
                    worker,
                    best,
                    node_stats,
                    ..
                } => self.on_column_result(task, worker, best, node_stats),
                TaskMsg::HistNominate {
                    task,
                    worker,
                    cands,
                    node_stats,
                    ..
                } => self.on_hist_nominate(task, worker, cands, node_stats),
                TaskMsg::HistBest {
                    task, worker, best, ..
                } => self.on_hist_best(task, worker, best),
                TaskMsg::SubtreeResult {
                    task,
                    worker,
                    subtree,
                    ..
                } => self.on_subtree_result(task, worker, subtree),
                TaskMsg::ReplicateDone { attrs, worker, .. } => {
                    self.on_replicate_done(attrs, worker)
                }
                TaskMsg::Shutdown => return,
                TaskMsg::StealRequest { worker } => self.on_steal_request(worker),
                TaskMsg::Hello { worker } => self.on_hello(worker),
                TaskMsg::Goodbye { worker } => self.on_goodbye(worker),
                _ => unreachable!("worker-bound message delivered to the master"),
            }
        }
    }

    /// Folds split-phase result traffic into the per-kind byte counters
    /// (`split_bytes_sent` for exact full results, `hist_bytes_sent` for
    /// the nomination/fetch/best election). Frames common to both modes
    /// (plans, confirms, quotas) are deliberately excluded from both, so
    /// the two counters compare exactly the traffic the splitter choice
    /// changes (`docs/HISTOGRAM.md`).
    #[cfg(feature = "obs")]
    fn count_split_plane_bytes(&self, msg: &TaskMsg) {
        let Some(rec) = self.fabric.stats().recorder() else {
            return;
        };
        match msg {
            TaskMsg::ColumnResult { .. } => rec
                .registry()
                .counter("split_bytes_sent")
                .add(msg.wire_bytes() as u64),
            TaskMsg::HistNominate { .. } | TaskMsg::HistBest { .. } => rec
                .registry()
                .counter("hist_bytes_sent")
                .add(msg.wire_bytes() as u64),
            _ => {}
        }
    }

    /// A worker's compute pool ran dry: queue it for the stealing pop and
    /// wake `θ_main`. Requests are accelerators, not obligations — losing
    /// one costs latency, never progress (the next completion re-triggers).
    /// The `StealRequested` event is recorded at the origin (the worker),
    /// not here, so the counter sees each request exactly once.
    fn on_steal_request(&self, worker: NodeId) {
        self.plans.mark_hungry(worker);
    }

    // ------------------------------------------------------------------
    // Elastic membership (`ts-elastic`, see `docs/ELASTICITY.md`).
    // ------------------------------------------------------------------

    /// A pre-provisioned spare slot handshakes in: add it to the roster,
    /// arm its heartbeat lease, register its affinity deque, ack with
    /// `Welcome`, and start incremental column migration toward it. The
    /// joiner becomes a column holder only as each `ReplicateDone` lands,
    /// so column tasks never target data still in flight — but subtree
    /// tasks can pick it as key worker immediately (they fetch columns
    /// remotely anyway).
    fn on_hello(&self, worker: NodeId) {
        if self.degraded.lock().is_some() || self.draining.lock().contains_key(&worker) {
            return;
        }
        {
            let mut workers = self.workers.lock();
            if workers.contains(&worker) {
                return; // duplicate Hello
            }
            workers.push(worker);
            workers.sort_unstable();
        }
        let now = self.fabric.clock().now_ns();
        self.last_hb.lock().insert(
            worker,
            HbLease {
                last_ns: now,
                reported: 0,
            },
        );
        let live = self.workers.lock().clone();
        self.plans.set_workers(&live);
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::WorkerJoined {
                node: worker as u32
            }
        );
        let _ = self.fabric.send(0, worker, TaskMsg::Welcome { worker });

        // Plan the join top-up and route one ReplicateTo per source. The
        // migration span rides every frame of the handoff (ReplicateTo →
        // ReplicateCols → ReplicateDone), so retries and duplicate drops
        // attribute to it.
        let plan = self.colmap.lock().add_worker(worker, self.cfg.replication);
        let mut by_source: HashMap<NodeId, Vec<usize>> = HashMap::new();
        {
            let mut migs = self.migrations.lock();
            for &(attr, src) in &plan {
                migs.insert((attr, worker), src);
                by_source.entry(src).or_default().push(attr);
            }
        }
        let mut by_source: Vec<(NodeId, Vec<usize>)> = by_source.into_iter().collect();
        by_source.sort_unstable_by_key(|&(s, _)| s);
        for (src, attrs) in by_source {
            let span = self.new_span();
            let _ = self.fabric.send(
                0,
                src,
                TaskMsg::ReplicateTo {
                    attrs,
                    to: worker,
                    ctx: TraceCtx::new(span, SpanId(span)),
                },
            );
        }
    }

    /// Starts a graceful drain of `worker` ahead of an announced preemption
    /// with the given grace window. The leaver is removed from scheduling
    /// immediately (so the lease sweep and the assigner both skip it), its
    /// queued plans are reclaimed onto the global deque, its columns are
    /// handed off, and a `Drain` frame tells it to finish up and `Goodbye`.
    pub fn begin_drain(&self, worker: NodeId, grace: Duration) {
        if self.degraded.lock().is_some()
            || self.draining.lock().contains_key(&worker)
            || !self.workers.lock().contains(&worker)
        {
            return;
        }
        // Never drain the last worker: there is nowhere to hand off to.
        if self.workers.lock().len() <= 1 {
            return;
        }
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::WorkerDraining {
                node: worker as u32
            }
        );
        self.workers.lock().retain(|&w| w != worker);
        let live = self.workers.lock().clone();
        // The leaver's queued plans re-enter on the global deque (their
        // affinity points at a machine that is leaving), and any steal
        // request it already posted is forgotten.
        self.plans.retire_worker(worker, &live);

        // Column handoff. Two cases per held column:
        //  - another holder exists → the leaver stops being a holder now;
        //    if that leaves the column under-replicated, a survivor
        //    re-replicates it (exactly the crash-recovery move, minus the
        //    crash).
        //  - the leaver is the sole holder → it keeps serving the column
        //    and copies it to a live non-holder itself; the handoff
        //    completing is what retires it as holder (`migrating` set).
        let mut sends: Vec<(NodeId, Vec<usize>, NodeId)> = Vec::new(); // (src, attrs, to)
        let mut migrating: BTreeSet<usize> = BTreeSet::new();
        {
            let mut colmap = self.colmap.lock();
            let mut migs = self.migrations.lock();
            let mut load: HashMap<NodeId, usize> = live
                .iter()
                .map(|&w| (w, colmap.columns_of(w).len()))
                .collect();
            let mut by_pair: HashMap<(NodeId, NodeId), Vec<usize>> = HashMap::new();
            for attr in colmap.columns_of(worker) {
                if colmap.drop_holder(attr, worker) {
                    // Survivors still hold it; top the replication back up
                    // if the departure cut below k and a target exists.
                    if colmap.holders(attr).len() < self.cfg.replication {
                        let src = colmap.holders(attr)[0];
                        if let Some(&target) = live
                            .iter()
                            .filter(|&&w| !colmap.holders(attr).contains(&w))
                            .min_by_key(|&&w| (load[&w], w))
                        {
                            *load.get_mut(&target).expect("live") += 1;
                            migs.insert((attr, target), src);
                            by_pair.entry((src, target)).or_default().push(attr);
                        }
                    }
                } else {
                    // Sole holder: the leaver hands the column off itself.
                    let Some(&target) = live
                        .iter()
                        .filter(|&&w| !colmap.holders(attr).contains(&w))
                        .min_by_key(|&&w| (load[&w], w))
                    else {
                        continue; // no live target; escalation will decide
                    };
                    *load.get_mut(&target).expect("live") += 1;
                    migs.insert((attr, target), worker);
                    migrating.insert(attr);
                    by_pair.entry((worker, target)).or_default().push(attr);
                }
            }
            let mut pairs: Vec<((NodeId, NodeId), Vec<usize>)> = by_pair.into_iter().collect();
            pairs.sort_unstable_by_key(|&(k, _)| k);
            for ((src, to), attrs) in pairs {
                sends.push((src, attrs, to));
            }
        }
        for (src, attrs, to) in sends {
            let span = self.new_span();
            let _ = self.fabric.send(
                0,
                src,
                TaskMsg::ReplicateTo {
                    attrs,
                    to,
                    ctx: TraceCtx::new(span, SpanId(span)),
                },
            );
        }
        let deadline_ns = self
            .fabric
            .clock()
            .now_ns()
            .saturating_add(grace.as_nanos() as u64);
        self.draining.lock().insert(
            worker,
            DrainState {
                deadline_ns,
                migrating,
                goodbye: false,
            },
        );
        let _ = self.fabric.send(0, worker, TaskMsg::Drain);
    }

    /// The draining worker reports its task queue idle. Departure still
    /// waits on column handoffs and on in-flight tasks that reference the
    /// leaver on the data plane.
    fn on_goodbye(&self, worker: NodeId) {
        if let Some(st) = self.draining.lock().get_mut(&worker) {
            st.goodbye = true;
        }
        // Departure is decided on θ_main; wake it.
        self.plans.notify();
    }

    /// Replicated columns landed at `worker`. Join/drain migrations are
    /// recognised by the `(attr, destination)` key recorded when the
    /// `ReplicateTo` went out; anything else is crash re-replication and
    /// keeps the `WorkerRecovered` semantics.
    fn on_replicate_done(&self, attrs: Vec<usize>, worker: NodeId) {
        let mut any_recovery = false;
        {
            let mut colmap = self.colmap.lock();
            let mut migs = self.migrations.lock();
            let mut draining = self.draining.lock();
            for &a in &attrs {
                colmap.add_holder(a, worker);
                match migs.remove(&(a, worker)) {
                    Some(from) => {
                        obs_event!(
                            self.fabric.stats(),
                            0,
                            ts_obs::Event::ColumnMigrated {
                                attr: a as u32,
                                from: from as u32,
                                to: worker as u32,
                            }
                        );
                        if let Some(st) = draining.get_mut(&from) {
                            // Pre-departure handoff: the leaver stops being
                            // this column's holder the moment the copy is
                            // servable elsewhere.
                            colmap.drop_holder(a, from);
                            st.migrating.remove(&a);
                        }
                    }
                    None => any_recovery = true,
                }
            }
        }
        if any_recovery {
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::WorkerRecovered {
                    node: worker as u32
                }
            );
        }
        self.plans.notify();
    }

    /// Finalises every drain whose conditions are all met: `Goodbye`
    /// received, no column still migrating off the leaver, no in-flight
    /// task touching it, and no queued plan that would fetch `Ix` from it.
    /// Finalisation retires the lease and sends the final `Shutdown`; the
    /// leaver exits through the ordinary shutdown cascade — zero crash
    /// recovery, zero tree revocation.
    ///
    /// Runs on `θ_main` only, every loop turn, and between two messages of
    /// `θ_recv`: a plan is then in the queue or in the task table, never in
    /// either thread's hands.
    fn maybe_finish_drains(&self) {
        if self.draining.lock().is_empty() {
            return;
        }
        let _folding = self.folding.lock();
        let ready: Vec<NodeId> = {
            let draining = self.draining.lock();
            let ttask = self.ttask.lock();
            draining
                .iter()
                .filter(|&(_, st)| st.goodbye && st.migrating.is_empty())
                .filter(|&(w, _)| !ttask.values().any(|t| t.touches.contains(w)))
                .map(|(&w, _)| w)
                .collect()
        };
        for w in ready {
            let parented = self.plans.any_match(
                |d: &PlanDesc| matches!(d.parent, ParentRef::Node { worker, .. } if worker == w),
            );
            if parented {
                continue;
            }
            if self.draining.lock().remove(&w).is_none() {
                continue;
            }
            self.last_hb.lock().remove(&w);
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::WorkerDeparted { node: w as u32 }
            );
            // The leaver holds no columns by now (handoffs retired them),
            // so the reliable Shutdown is the last frame it will ever see;
            // it acks and exits through the normal cascade.
            let _ = self.fabric.send(0, w, TaskMsg::Shutdown);
        }
    }

    /// Whether a worker is currently mid-drain (test and cluster helper).
    pub fn is_draining(&self, worker: NodeId) -> bool {
        self.draining.lock().contains_key(&worker)
    }

    fn on_column_result(
        &self,
        task: TaskId,
        worker: NodeId,
        best: Option<ColumnTaskBest>,
        node_stats: NodeStats,
    ) {
        let finished = {
            let mut ttask = self.ttask.lock();
            let Some(entry) = ttask.get_mut(&task) else {
                return; // revoked
            };
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::ColumnTaskCompleted {
                    task: task.0,
                    node: worker as u32,
                    latency_ns: self
                        .fabric
                        .clock()
                        .now_ns()
                        .saturating_sub(entry.started_ns),
                }
            );
            let TaskKind::Column {
                pending,
                best: stored,
                node_stats: stats_slot,
                ..
            } = &mut entry.kind
            else {
                unreachable!("column result for a subtree task");
            };
            *pending -= 1;
            if let Some(b) = best {
                let replace = match stored {
                    None => true,
                    Some((_, incumbent)) => ColumnSplit::challenger_wins(
                        &b.split,
                        b.attr,
                        &incumbent.split,
                        incumbent.attr,
                    ),
                };
                if replace {
                    *stored = Some((worker, b));
                }
            }
            if stats_slot.is_none() {
                *stats_slot = Some(node_stats);
            }
            if *pending == 0 {
                ttask.remove(&task)
            } else {
                None
            }
        };
        // One shard of this worker's outstanding work came back (stale
        // results of revoked tasks returned above and never reach this —
        // the queue's accounting was reset when the tasks were revoked).
        self.plans.note_completed(worker);
        if let Some(entry) = finished {
            self.mwork.lock().deduct(&entry.charges);
            self.finalize_column_task(task, entry);
        }
    }

    /// One shard of a histogram-mode column task voted: fold its
    /// `(attr, gain)` nominations. When the last shard reports, either the
    /// node is a leaf (or nobody found a split) and the task finalizes
    /// immediately, or the master elects the globally best candidate by
    /// `(gain desc, attr asc, worker asc)` and fetches the single full
    /// split it needs from the nominating worker.
    fn on_hist_nominate(
        &self,
        task: TaskId,
        worker: NodeId,
        noms: Vec<(usize, f64)>,
        stats: Option<NodeStats>,
    ) {
        enum Outcome {
            Wait,
            Leaf(Box<MasterTask>),
            Fetch(NodeId, usize, TraceCtx),
        }
        let outcome = {
            let mut ttask = self.ttask.lock();
            let Some(entry) = ttask.get_mut(&task) else {
                return; // revoked
            };
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::ColumnTaskCompleted {
                    task: task.0,
                    node: worker as u32,
                    latency_ns: self
                        .fabric
                        .clock()
                        .now_ns()
                        .saturating_sub(entry.started_ns),
                }
            );
            let TaskKind::Hist {
                pending,
                cands,
                node_stats,
                fetched,
                ..
            } = &mut entry.kind
            else {
                unreachable!("hist nomination for a non-hist task");
            };
            *pending -= 1;
            cands.extend(noms.into_iter().map(|(attr, gain)| (gain, attr, worker)));
            if node_stats.is_none() {
                *node_stats = stats;
            }
            if *pending > 0 {
                Outcome::Wait
            } else {
                // All shards voted. Leaf conditions short-circuit the fetch
                // round-trip entirely; so does an empty candidate set.
                let params = {
                    let reg = self.registry.lock();
                    reg.active.get(&entry.tree).map(|t| t.spec.params)
                };
                let must_leaf = match (&params, &node_stats) {
                    (Some(p), Some(ns)) => {
                        entry.depth >= p.dmax || entry.n_rows <= p.tau_leaf || ns.is_pure()
                    }
                    _ => true, // revoked tree: finalize handles the drops
                };
                let elected = if must_leaf {
                    None
                } else {
                    // Election: total order over (gain desc, attr asc,
                    // worker asc) — deterministic whatever the nomination
                    // arrival order, which is what keeps same-seed replays
                    // byte-identical under stealing and elastic membership.
                    cands
                        .iter()
                        .copied()
                        .max_by(|&(ga, aa, wa), &(gb, ab, wb)| {
                            ga.total_cmp(&gb).then(ab.cmp(&aa)).then(wb.cmp(&wa))
                        })
                        .map(|(_, attr, w)| (w, attr))
                };
                match elected {
                    None => Outcome::Leaf(Box::new(ttask.remove(&task).expect("present"))),
                    Some((w, attr)) => {
                        *fetched = Some(w);
                        Outcome::Fetch(w, attr, TraceCtx::new(entry.trace, SpanId(entry.span)))
                    }
                }
            }
        };
        // One shard of this worker's outstanding work came back (mirrors
        // the exact path's per-shard queue accounting).
        self.plans.note_completed(worker);
        match outcome {
            Outcome::Wait => {}
            Outcome::Leaf(entry) => {
                self.mwork.lock().deduct(&entry.charges);
                self.finalize_column_task(task, *entry);
            }
            Outcome::Fetch(w, attr, ctx) => {
                let msg = TaskMsg::HistFetch { task, attr, ctx };
                #[cfg(feature = "obs")]
                if let Some(rec) = self.fabric.stats().recorder() {
                    rec.registry()
                        .counter("hist_bytes_sent")
                        .add(ts_netsim::WireSized::wire_bytes(&msg) as u64);
                }
                let _ = self.fabric.send(0, w, msg);
            }
        }
    }

    /// The elected worker answered the `HistFetch` with its full split:
    /// the task is complete — finalize exactly like an exact column task.
    fn on_hist_best(&self, task: TaskId, worker: NodeId, best: Option<ColumnTaskBest>) {
        let entry = {
            let mut ttask = self.ttask.lock();
            let Some(entry) = ttask.get_mut(&task) else {
                return; // revoked
            };
            let TaskKind::Hist {
                fetched,
                best: slot,
                ..
            } = &mut entry.kind
            else {
                unreachable!("hist best for a non-hist task");
            };
            assert_eq!(
                *fetched,
                Some(worker),
                "HistBest from a worker that was not fetched"
            );
            *slot = best.map(|b| (worker, b));
            ttask.remove(&task).expect("present")
        };
        self.mwork.lock().deduct(&entry.charges);
        self.finalize_column_task(task, entry);
    }

    /// All shards of a column-task have reported: pick the winner, update
    /// the tree, spawn child tasks (or leaves), and notify the workers.
    fn finalize_column_task(&self, task: TaskId, entry: MasterTask) {
        // The last shard has been folded: the task span is complete,
        // whatever the outcome (leaf, winner, or revoked tree).
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::SpanClose { span: entry.span }
        );
        let (involved, best, node_stats) = match entry.kind {
            TaskKind::Column {
                involved,
                best,
                node_stats,
                ..
            } => (involved, best, node_stats),
            // A finished hist election carries the fetched full split in
            // the same shape; the shared winner/leaf logic below is what
            // keeps both splitters' control flow (ConfirmBest first, then
            // drops and quotas) identical.
            TaskKind::Hist {
                involved,
                best,
                node_stats,
                ..
            } => (involved, best, node_stats),
            TaskKind::Subtree => unreachable!(),
        };
        let node_stats = node_stats.expect("at least one shard reported");
        let params = {
            let reg = self.registry.lock();
            reg.active.get(&entry.tree).map(|t| t.spec.params)
        };
        let Some(params) = params else {
            // Tree revoked while results were in flight: just tell the
            // workers to drop their task objects (outside any lock — sends
            // sleep under the link model).
            for w in involved {
                let _ = self.fabric.send(0, w, TaskMsg::DropTask { task });
            }
            return;
        };

        // Leaf conditions at this node itself (relevant for root tasks; for
        // child tasks the parent's finalize already filtered these).
        let must_leaf =
            entry.depth >= params.dmax || entry.n_rows <= params.tau_leaf || node_stats.is_pure();

        let Some((winner, best)) = (if must_leaf { None } else { best }) else {
            // Leaf: fill the node's prediction and drop all task objects.
            let pred = prediction_from_stats(&node_stats);
            let done_tree = {
                let mut reg = self.registry.lock();
                let Some(tree) = reg.active.get_mut(&entry.tree) else {
                    return;
                };
                tree.nodes[entry.node] = Node::leaf(pred, entry.n_rows, entry.depth);
                tree.pending -= 1;
                tree.pending == 0
            };
            for w in involved {
                let _ = self.fabric.send(0, w, TaskMsg::DropTask { task });
            }
            if done_tree {
                self.finish_tree(entry.tree);
            }
            return;
        };
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::SplitChosen {
                task: task.0,
                node: winner as u32,
                attr: best.attr as u32,
                gain: best.split.gain,
            }
        );

        // Winner path: update the tree, create children.
        let mut quota_zero_sides: Vec<Side> = Vec::new();
        let mut child_plans: Vec<PlanDesc> = Vec::new();
        let done_tree = {
            let mut reg = self.registry.lock();
            let Some(tree) = reg.active.get_mut(&entry.tree) else {
                // Revoked mid-flight: release the lock before the paced sends.
                drop(reg);
                for w in involved {
                    let _ = self.fabric.send(0, w, TaskMsg::DropTask { task });
                }
                return;
            };
            let node_pred = prediction_from_stats(&node_stats);
            let l_idx = tree.nodes.len();
            let r_idx = l_idx + 1;
            let child_depth = entry.depth + 1;
            tree.nodes.push(Node::leaf(
                prediction_from_stats(&best.split.left),
                best.split.n_left(),
                child_depth,
            ));
            tree.nodes.push(Node::leaf(
                prediction_from_stats(&best.split.right),
                best.split.n_right(),
                child_depth,
            ));
            tree.nodes[entry.node] = Node {
                split: Some((
                    SplitInfo {
                        attr: best.attr,
                        test: best.split.test.clone(),
                        gain: best.split.gain,
                        missing_left: best.split.missing_left,
                        seen: best.seen.clone(),
                    },
                    l_idx,
                    r_idx,
                )),
                prediction: node_pred,
                n_rows: entry.n_rows,
                depth: entry.depth,
            };

            let mut n_child_tasks = 0u64;
            for (side, stats, child_node) in [
                (Side::Left, &best.split.left, l_idx),
                (Side::Right, &best.split.right, r_idx),
            ] {
                let n_child = stats.n();
                let child_leaf =
                    child_depth >= params.dmax || n_child <= params.tau_leaf || stats.is_pure();
                if child_leaf {
                    quota_zero_sides.push(side);
                } else {
                    n_child_tasks += 1;
                    child_plans.push(PlanDesc {
                        task: self.new_task(),
                        tree: entry.tree,
                        node: child_node,
                        parent: ParentRef::Node {
                            worker: winner,
                            task,
                            side,
                        },
                        n_rows: n_child,
                        depth: child_depth,
                        path: match side {
                            Side::Left => entry.path.wrapping_shl(1),
                            Side::Right => entry.path.wrapping_shl(1) | 1,
                        },
                        trace: entry.trace,
                        span: self.new_span(),
                    });
                }
            }
            tree.pending = tree.pending - 1 + n_child_tasks;
            tree.pending == 0
        };

        // Notify workers. ConfirmBest must reach the winner before any
        // ServeQuota for this task does; both ride the same FIFO channel, so
        // sending ConfirmBest first (and only then enqueueing child plans
        // that trigger θ_main quotas) guarantees the order.
        let _ = self.fabric.send(0, winner, TaskMsg::ConfirmBest { task });
        for w in involved {
            if w != winner {
                let _ = self.fabric.send(0, w, TaskMsg::DropTask { task });
            }
        }
        for side in quota_zero_sides {
            let _ = self.fabric.send(
                0,
                winner,
                TaskMsg::ServeQuota {
                    task,
                    side,
                    quota: 0,
                },
            );
        }
        for plan in child_plans {
            // Child plans are causally parented to the column task whose
            // winning split spawned them — this is the job→plan→task→plan
            // chain the critical-path walk follows.
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::SpanOpen {
                    trace: plan.trace,
                    span: plan.span,
                    parent: entry.span,
                    kind: ts_obs::SpanKind::Plan,
                    subject: plan.task.0,
                }
            );
            self.enqueue_plan(plan);
        }
        if done_tree {
            self.finish_tree(entry.tree);
        }
    }

    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn on_subtree_result(&self, task: TaskId, worker: NodeId, subtree: DecisionTreeModel) {
        let Some(entry) = self.ttask.lock().remove(&task) else {
            return; // revoked
        };
        self.plans.note_completed(worker);
        self.mwork.lock().deduct(&entry.charges);
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::SubtreeTaskBuilt {
                task: task.0,
                node: worker as u32,
                nodes: subtree.n_nodes() as u32,
                latency_ns: self
                    .fabric
                    .clock()
                    .now_ns()
                    .saturating_sub(entry.started_ns),
            }
        );
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::SpanClose { span: entry.span }
        );
        let done_tree = {
            let mut reg = self.registry.lock();
            let Some(tree) = reg.active.get_mut(&entry.tree) else {
                return;
            };
            graft_nodes(&mut tree.nodes, entry.node, subtree);
            tree.pending -= 1;
            tree.pending == 0
        };
        if done_tree {
            self.finish_tree(entry.tree);
        }
    }

    /// Flushes a completed tree into its job; completes the job when its
    /// last tree lands.
    fn finish_tree(&self, tree_id: TreeId) {
        let mut reg = self.registry.lock();
        let tree = reg.active.remove(&tree_id).expect("tree just completed");
        debug_assert_eq!(tree.pending, 0);
        let model = DecisionTreeModel::new(tree.nodes, self.data_task());
        if let Some(dir) = &self.cfg.model_dir {
            // Flush the finished tree immediately (paper §III); failures are
            // reported but do not abort training.
            let path = dir.join(format!("tree_{}.json", tree_id.0));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, model.to_json()))
            {
                eprintln!("treeserver: failed to flush {}: {e}", path.display());
            }
        }
        let job = reg.jobs.get_mut(&tree.job).expect("job exists");
        job.models[tree.index] = Some(model);
        job.done += 1;
        if job.done == job.total {
            let job = reg.jobs.remove(&tree.job).expect("just present");
            let models: Vec<DecisionTreeModel> = job
                .models
                .into_iter()
                .map(|m| m.expect("all trees done"))
                .collect();
            let result = match job.kind {
                JobKind::DecisionTree => {
                    JobResult::Tree(models.into_iter().next().expect("one tree"))
                }
                JobKind::RandomForest { .. } | JobKind::ExtraTrees { .. } => {
                    JobResult::Forest(ts_tree::ForestModel::new(models, self.data_task()))
                }
            };
            // Record before notifying: `Cluster::wait` returns on the send,
            // and observers may snapshot the rings immediately after.
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::SpanClose { span: job.span }
            );
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::JobFinished { job: tree.job }
            );
            #[cfg(feature = "obs")]
            if let Some(rec) = self.fabric.stats().recorder() {
                if rec.log_latency_feed() {
                    let feed = rec.latency_feed().snapshot();
                    eprintln!(
                        "treeserver: job {} latency feed: column p50={}ns p95={}ns (n={}), \
                         subtree p50={}ns p95={}ns (n={})",
                        tree.job,
                        feed.column.p50_ns,
                        feed.column.p95_ns,
                        feed.column.count,
                        feed.subtree.p50_ns,
                        feed.subtree.p95_ns,
                        feed.subtree.count,
                    );
                }
            }
            let _ = job.notify.send(result);
        }
    }

    // ------------------------------------------------------------------
    // Fault recovery (paper §IV "Fault Tolerance" / Appendix E).
    // ------------------------------------------------------------------

    /// Runs crash recovery for `dead`; if recovery is impossible, fails
    /// every pending (and future) job with the structured reason instead of
    /// panicking. Safe to call from both the heartbeat detector and
    /// `Cluster::kill_worker` — duplicate declarations are ignored.
    pub fn recover_or_degrade(&self, dead: NodeId) {
        if let Err(e) = self.handle_worker_crash(dead) {
            self.fail_all_jobs(e);
        }
    }

    /// Handles a worker crash: re-replicates its columns from surviving
    /// replicas and restarts every in-flight tree (completed trees are
    /// unaffected). See DESIGN.md §7 for the tree-granularity note.
    ///
    /// Errors when no trainable cluster can be restored (last replica of a
    /// column died, no replication target, or no workers left); the caller
    /// should then fail all jobs — see [`Master::recover_or_degrade`].
    pub fn handle_worker_crash(&self, dead: NodeId) -> Result<(), RecoveryError> {
        // Deduplicate: the detector and an explicit kill may both declare
        // the same worker dead; a degraded cluster has nothing to recover.
        if self.degraded.lock().is_some() || !self.workers.lock().contains(&dead) {
            return Ok(());
        }
        obs_event!(
            self.fabric.stats(),
            0,
            ts_obs::Event::WorkerCrashed { node: dead as u32 }
        );
        // 1. Membership: drop the worker from scheduling, liveness tracking
        // and the reliable fabric's retransmission table.
        self.workers.lock().retain(|&w| w != dead);
        self.last_hb.lock().remove(&dead);
        self.fabric.forget_destination(dead);
        // Elastic migrations headed for the dead worker will never land.
        self.migrations.lock().retain(|&(_, to), _| to != dead);
        let live = self.workers.lock().clone();
        if live.is_empty() {
            return Err(RecoveryError::NoWorkersLeft { dead });
        }

        // 2. Column re-replication planning. Columns down to a single
        // surviving replica are scheduled first — another crash would lose
        // them for good.
        let mut transfer: HashMap<NodeId, (NodeId, Vec<usize>)> = HashMap::new();
        {
            let mut colmap = self.colmap.lock();
            let mut lost = colmap.remove_worker(dead)?;
            lost.sort_by_key(|&a| (colmap.holders(a).len(), a));
            let mut load: HashMap<NodeId, usize> = live
                .iter()
                .map(|&w| (w, colmap.columns_of(w).len()))
                .collect();
            for attr in lost {
                let source = colmap.holders(attr)[0];
                let Some(&target) = live
                    .iter()
                    .filter(|&&w| !colmap.holders(attr).contains(&w))
                    .min_by_key(|&&w| (load[&w], w))
                else {
                    return Err(RecoveryError::NoReplicationTarget { attr });
                };
                *load.get_mut(&target).expect("live") += 1;
                transfer
                    .entry(source)
                    .or_insert((target, Vec::new()))
                    .1
                    .push(attr);
                // The holder list is updated when ReplicateDone arrives.
            }
        }

        // 3. Revoke all in-flight trees and restart them under fresh ids.
        let mut revoked: Vec<TreeId> = Vec::new();
        let mut new_roots: Vec<PlanDesc> = Vec::new();
        {
            let mut reg = self.registry.lock();
            let old: Vec<TreeId> = reg.active.keys().copied().collect();
            for tid in old {
                let t = reg.active.remove(&tid).expect("present");
                revoked.push(tid);
                let new_id = TreeId(reg.next_tree);
                reg.next_tree += 1;
                let trace = t.trace;
                reg.active.insert(
                    new_id,
                    ActiveTree {
                        job: t.job,
                        index: t.index,
                        trace,
                        spec: t.spec,
                        nodes: vec![Node::leaf(self.placeholder_pred(), 0, 0)],
                        pending: 1,
                    },
                );
                new_roots.push(PlanDesc {
                    task: self.new_task(),
                    tree: new_id,
                    node: 0,
                    parent: ParentRef::Root,
                    n_rows: self.n_rows as u64,
                    depth: 0,
                    path: 1,
                    trace,
                    span: self.new_span(),
                });
            }
        }
        self.ttask.lock().clear();
        self.mwork.lock().clear();
        // Reset the queue wholesale — deques, hunger, and the per-worker
        // outstanding counts (results for revoked tasks must not undercount
        // the fresh dispatches) — and install the surviving roster.
        self.plans.clear();
        self.plans.set_workers(&live);
        for root in new_roots {
            // Restarted roots hang off the job span again, like the
            // originals; the revoked subtrees' spans simply never close.
            obs_event!(
                self.fabric.stats(),
                0,
                ts_obs::Event::SpanOpen {
                    trace: root.trace,
                    span: root.span,
                    parent: root.trace,
                    kind: ts_obs::SpanKind::Plan,
                    subject: root.task.0,
                }
            );
            self.enqueue_plan(root);
        }

        // 4. Notify workers.
        for &w in &live {
            for &tid in &revoked {
                let _ = self.fabric.send(0, w, TaskMsg::RevokeTree { tree: tid });
            }
        }
        for (source, (target, attrs)) in transfer {
            let _ = self.fabric.send(
                0,
                source,
                TaskMsg::ReplicateTo {
                    attrs,
                    to: target,
                    ctx: TraceCtx::NONE,
                },
            );
        }
        Ok(())
    }

    /// Graceful degradation: records the terminal reason, clears all
    /// scheduling state, and fails every pending job (active and queued)
    /// with a diagnosable report. Subsequent submits fail immediately.
    fn fail_all_jobs(&self, err: RecoveryError) {
        eprintln!("treeserver: cluster degraded, failing all jobs: {err}");
        *self.degraded.lock() = Some(err.clone());
        let jobs: Vec<JobState> = {
            let mut reg = self.registry.lock();
            reg.active.clear();
            reg.queue.clear();
            reg.jobs.drain().map(|(_, j)| j).collect()
        };
        self.ttask.lock().clear();
        self.mwork.lock().clear();
        self.plans.clear();
        for j in jobs {
            let _ = j.notify.send(JobResult::Failed(err.clone()));
        }
    }

    /// The degradation reason, if recovery has failed.
    pub fn degraded_reason(&self) -> Option<RecoveryError> {
        self.degraded.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_netsim::{Fabric, NetModel, NetStats};

    fn test_master(
        n_rows: usize,
        tau_dfs: u64,
    ) -> (Arc<Master>, Vec<ts_netsim::FabricReceiver<TaskMsg>>) {
        let stats = NetStats::new(3);
        let (fabric, rxs) = Fabric::new(3, NetModel::instant(), stats);
        let cfg = ClusterConfig {
            n_workers: 2,
            tau_dfs,
            ..ClusterConfig::default()
        };
        let colmap = crate::assign::ColumnMap::round_robin(4, 2, 2);
        let m = Master::new(
            cfg,
            n_rows,
            4,
            Task::Classification { n_classes: 2 },
            colmap,
            fabric,
        );
        m.init_load_matrix(3);
        (m, rxs)
    }

    #[test]
    fn enqueue_respects_hybrid_bfs_dfs_rule() {
        // Fig. 5: |Dx| > tau_dfs appends (breadth-first tail), smaller
        // pushes to the head (depth-first).
        let (m, _rxs) = test_master(1_000, 100);
        let mk = |task: u64, n_rows: u64| PlanDesc {
            task: TaskId(task),
            tree: TreeId(0),
            node: 0,
            parent: ParentRef::Root,
            n_rows,
            depth: 0,
            path: 1,
            trace: 0,
            span: 0,
        };
        m.enqueue_plan(mk(1, 500)); // big -> tail
        m.enqueue_plan(mk(2, 600)); // big -> tail (after 1)
        m.enqueue_plan(mk(3, 50)); // small -> head
        m.enqueue_plan(mk(4, 20)); // small -> head (before 3)
        let mut order: Vec<u64> = Vec::new();
        while let Some((p, steal)) = m.plans.try_next(&[]) {
            assert!(steal.is_none(), "nobody is hungry: no steal");
            order.push(p.task.0);
        }
        assert_eq!(order, vec![4, 3, 1, 2]);
    }

    #[test]
    fn submit_expands_trees_into_the_queue() {
        let (m, _rxs) = test_master(1_000, 100);
        let (h1, _rx1) = m.submit(JobSpec::random_forest(
            Task::Classification { n_classes: 2 },
            5,
        ));
        let (h2, _rx2) = m.submit(JobSpec::decision_tree(Task::Classification {
            n_classes: 2,
        }));
        assert_ne!(h1, h2);
        let reg = m.registry.lock();
        assert_eq!(reg.queue.len(), 6, "5 forest trees + 1 decision tree");
        assert_eq!(reg.jobs.len(), 2);
    }

    #[test]
    fn admit_respects_npool() {
        let (m, _rxs) = test_master(10, 1_000);
        {
            let mut reg = m.registry.lock();
            reg.jobs.insert(
                0,
                JobState {
                    total: 10,
                    done: 0,
                    models: vec![None; 10],
                    kind: JobKind::RandomForest {
                        n_trees: 10,
                        col_fraction: -1.0,
                    },
                    notify: tschan::bounded(1).0,
                    span: 0,
                },
            );
            for index in 0..10 {
                reg.queue.push_back(QueuedTree {
                    job: 0,
                    index,
                    spec: JobSpec::random_forest(Task::Classification { n_classes: 2 }, 10)
                        .expand(4)
                        .remove(index),
                    trace: 0,
                });
            }
        }
        // Shrink the pool and admit.
        let mut m2 = Arc::try_unwrap(m).ok().expect("sole owner");
        m2.cfg.n_pool = 3;
        let m = Arc::new(m2);
        m.admit_trees();
        let reg = m.registry.lock();
        assert_eq!(reg.active.len(), 3, "pool capped at 3");
        assert_eq!(reg.queue.len(), 7);
        drop(reg);
        assert_eq!(m.plans.len(), 3, "one root plan per admitted tree");
    }

    #[test]
    fn mix_seed_is_stable_and_spread() {
        let a = mix_seed(1, 1);
        let b = mix_seed(1, 2);
        let c = mix_seed(2, 1);
        assert_eq!(a, mix_seed(1, 1));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn placeholder_matches_task_kind() {
        let (m, _rxs) = test_master(10, 100);
        match m.placeholder_pred() {
            Prediction::Class { pmf, .. } => assert_eq!(pmf.len(), 2),
            Prediction::Real(_) => panic!("classification master"),
        }
    }

    #[test]
    fn heartbeat_refreshes_lease_and_fresh_workers_are_not_suspected() {
        let (m, _rxs) = test_master(10, 100);
        m.on_heartbeat(1);
        m.on_heartbeat(2);
        m.check_heartbeats();
        assert_eq!(m.live_workers(), vec![1, 2]);
        assert!(m.degraded.lock().is_none());
    }

    #[test]
    fn silent_worker_is_suspected_and_impossible_recovery_degrades_cleanly() {
        // Runs on a virtual clock: the 10 ms of silence is an `advance`,
        // not a real sleep, so the detector's verdict is deterministic no
        // matter how heavily the test host is loaded.
        let stats = NetStats::new(3);
        let (fabric, _rxs) = Fabric::new_faulty(
            3,
            NetModel::instant(),
            stats,
            None,
            ts_netsim::SimClock::virtual_at(0),
        );
        let cfg = ClusterConfig {
            n_workers: 2,
            heartbeat_interval: std::time::Duration::from_millis(1),
            heartbeat_miss_threshold: 3,
            ..ClusterConfig::default()
        };
        let colmap = crate::assign::ColumnMap::round_robin(4, 2, 2);
        let m = Master::new(
            cfg,
            1_000,
            4,
            Task::Classification { n_classes: 2 },
            colmap,
            fabric,
        );
        m.init_load_matrix(3);
        let (_h, rx) = m.submit(JobSpec::decision_tree(Task::Classification {
            n_classes: 2,
        }));
        // Worker 2 keeps beating; worker 1 goes silent past the 3 ms lease.
        m.fabric
            .clock()
            .advance(std::time::Duration::from_millis(10));
        m.on_heartbeat(2);
        m.check_heartbeats();
        // 2 workers at replication 2: every live worker already holds the
        // dead worker's columns, so no re-replication target exists and the
        // job must fail with the structured reason rather than panic.
        assert!(!m.live_workers().contains(&1), "worker 1 declared dead");
        let res = rx.recv().expect("failure notification");
        assert!(
            matches!(
                res,
                JobResult::Failed(RecoveryError::NoReplicationTarget { .. })
            ),
            "unexpected result: {res:?}"
        );
        assert!(m.degraded_reason().is_some());
        // Later submissions fail immediately with the same reason.
        let (_h2, rx2) = m.submit(JobSpec::decision_tree(Task::Classification {
            n_classes: 2,
        }));
        assert!(matches!(
            rx2.recv().expect("immediate failure"),
            JobResult::Failed(_)
        ));
    }

    #[test]
    fn stolen_plan_sends_donate_to_the_thief_before_any_plan_traffic() {
        // Three workers. A child plan parked on worker 1's deque is stolen
        // by hungry worker 2; the thief's first frame must be the Donate
        // carrying the stolen task.
        let stats = NetStats::new(4);
        let (fabric, rxs) = Fabric::new(4, NetModel::instant(), stats);
        let cfg = ClusterConfig {
            n_workers: 3,
            ..ClusterConfig::default()
        };
        let colmap = crate::assign::ColumnMap::round_robin(4, 3, 2);
        let m = Master::new(
            cfg,
            1_000,
            4,
            Task::Classification { n_classes: 2 },
            colmap,
            fabric,
        );
        m.init_load_matrix(4);
        let (_h, _rx) = m.submit(JobSpec::decision_tree(Task::Classification {
            n_classes: 2,
        }));
        m.admit_trees();
        // Drain the root from the global deque: nobody is hungry yet, so
        // this is a plain pop, not a steal.
        let (root, steal) = m.plans.try_next(&[]).expect("root plan queued");
        assert!(steal.is_none(), "global pop is not a steal");
        // Park a child on worker 1's deque, then let worker 2 go hungry.
        m.enqueue_plan(PlanDesc {
            task: TaskId(99),
            tree: root.tree,
            node: 0,
            parent: ParentRef::Node {
                worker: 1,
                task: root.task,
                side: Side::Left,
            },
            n_rows: 50,
            depth: 1,
            path: 2,
            trace: root.trace,
            span: 0,
        });
        m.on_steal_request(2);
        let (stolen, steal) = m.plans.try_next(&[]).expect("stolen child");
        assert_eq!(stolen.task, TaskId(99));
        assert_eq!(
            steal,
            Some(StealInfo {
                victim: 1,
                thief: 2
            })
        );
        m.assign_plan(stolen, steal);
        let first = rxs[2].try_recv().expect("thief was messaged");
        match first {
            TaskMsg::Donate { task, victim, .. } => {
                assert_eq!(task, TaskId(99));
                assert_eq!(victim, 1);
            }
            other => panic!("thief's first frame was {other:?}, not Donate"),
        }
    }

    #[test]
    fn dispatch_window_is_two_plans_per_comper_plus_two() {
        // Two plans per comper plus two in flight per worker; the next one
        // waits in the master's backlog.
        let (m, _rxs) = test_master(1_000, 100);
        let window = 2 * m.cfg.compers_per_worker as u64 + 2;
        let child = |task: u64| PlanDesc {
            task: TaskId(task),
            tree: TreeId(0),
            node: 0,
            parent: ParentRef::Node {
                worker: 1,
                task: TaskId(0),
                side: Side::Left,
            },
            n_rows: 50,
            depth: 1,
            path: 2,
            trace: 0,
            span: 0,
        };
        for t in 1..=window + 1 {
            m.enqueue_plan(child(t));
        }
        for _ in 0..window {
            assert!(m.plans.try_next(&[]).is_some(), "inside the window");
            m.plans.note_dispatched(&[1]);
        }
        assert!(m.plans.try_next(&[]).is_none(), "window full");
        m.plans.note_completed(1);
        assert!(m.plans.try_next(&[]).is_some(), "a result reopens it");
    }

    #[test]
    fn drain_gate_waits_for_a_fold_in_progress() {
        // θ_recv takes a finished task out of the table before it queues
        // the child plans; read in between, the gate would find nothing
        // that names the leaver. It waits for the message to end instead.
        let (m, _rxs) = test_master(1_000, 100);
        m.begin_drain(2, Duration::from_secs(30));
        m.on_goodbye(2);
        let fold = m.folding.lock(); // θ_recv is inside a message
        let gate = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || m.maybe_finish_drains())
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(m.is_draining(2), "the gate was read in mid-fold");
        drop(fold);
        gate.join().unwrap();
        assert!(!m.is_draining(2), "every condition holds: it departs");
    }

    #[test]
    fn duplicate_crash_declarations_are_ignored() {
        let (m, _rxs) = test_master(10, 100);
        // First declaration fails recovery (no replication target) and
        // degrades; the second must be a no-op, not a second degradation.
        m.recover_or_degrade(1);
        let first = m.degraded_reason();
        assert!(first.is_some());
        m.recover_or_degrade(1);
        m.recover_or_degrade(2);
        assert_eq!(m.degraded_reason(), first);
    }
}
