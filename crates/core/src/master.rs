//! The master machine: tree/task scheduling, result folding, load-balanced
//! assignment, and fault recovery.
//!
//! [`Master`] is a plain state machine, a function of (state, `now`,
//! message) to effects: it owns the roster, the column map, the plan queue
//! `Bplan`, the task table `Ttask`, the load matrix `M_work`, the job
//! registry, the timers and the drain/migration ledgers as ordinary fields,
//! every handler takes `&mut self` and the time it is given, and the frames
//! and job notifications it makes join one outbox of `Post`s in program
//! order. It holds no fabric and reads no clock. The cluster keeps it
//! behind one lock, and the `master` thread ([`Master::run`]) drives it in
//! the receive loop the workers' loops run too (`crate::post`): per message
//! or idle tick, one turn under the lock, then the outbox delivered with
//! the lock dropped. The paper's two master loops (§IV, Fig. 14(a)) are the
//! two phases of one turn:
//!
//! - `θ_recv` ([`Master::step`]): folds one message — a column-task result
//!   into the task table `Ttask` (picking the overall best split,
//!   confirming the winner as delegate worker, typing the child tasks from
//!   the returned `|Ixl|`/`|Ixr|` counters), a completed subtree into its
//!   tree, per-tree progress (Appendix C's `T_prog`) into finished trees
//!   and completed jobs — or counts an idle tick; then fires the timers
//!   that are due — the fault plan's scripted join and preemption, the
//!   suspicion of an injected crash, and drain deadlines.
//! - `θ_main` ([`Master::pump`]): retires drains whose conditions all hold,
//!   admits trees into the active pool (at most `n_pool` at a time), and
//!   pops plans from `Bplan`, running the §VI greedy assignment against
//!   `M_work` and shipping each plan (plus delegate serve-quotas), until
//!   nothing more is dispatchable.
//!
//! Every step ends with `pump`, so a plan is dispatched in the step that
//! made it dispatchable and nothing waits on a condition. Everyone else —
//! `Cluster::submit`, `update_labels`, `preempt_worker`, `kill_worker`,
//! `shutdown` — comes in through [`Master::call`]: the same lock, the
//! handler, and a loop-back frame that makes the master thread take its
//! next turn now. Dispatch stays on the master thread (see `call` for why),
//! and node 0 has no other sender. So the ordering rules of
//! `docs/PROTOCOL.md` ("Confirm before quota", "Donate before plan
//! traffic", "charge before send", "a task leaves the table in the step its
//! children enter the queue") are program order on one deliverer.
//!
//! Hybrid scheduling (§III, Fig. 4/5): a new task goes to the **head** of
//! `Bplan` when `|Dx| <= τ_dfs` (depth-first — reaches CPU-bound
//! subtree-tasks quickly) and to the **tail** otherwise (breadth-first —
//! generates parallelism early).

use crate::assign::{assign_column_task, assign_subtree, ColumnMap, LoadMatrix};
use crate::config::ClusterConfig;
use crate::ids::{ParentRef, Side, TaskId, TreeId};
use crate::job::{JobHandle, JobKind, JobResult, JobSpec, TreeSpec};
use crate::messages::{ColumnPlan, ColumnTaskBest, SubtreePlan, TaskMsg};
use crate::post::{Ends, Post};
use crate::recovery::RecoveryError;
use crate::sched::{PlanQueue, StealInfo};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;
use ts_datatable::{Labels, Task};
use ts_netsim::{Fabric, FabricReceiver, NetStats, NodeId, WireSized};
use ts_obs::{SpanId, TraceCtx};
use ts_splits::exact::ColumnSplit;
use ts_splits::impurity::{Impurity, NodeStats};
use ts_tree::{
    graft_nodes, trainer::prediction_from_stats, DecisionTreeModel, Node, Prediction, SplitInfo,
};
use tschan::sync::Mutex;
use tschan::{Receiver, Sender};
use tsrand::rngs::StdRng;
use tsrand::{Rng, SeedableRng};

/// The arena `nodes` put in depth-first pre-order (left before right),
/// the order `DecisionTreeModel::canonicalize` gives, by permuting it in
/// place: a finished tree keeps its arena and clones no node.
fn preorder(mut nodes: Vec<Node>) -> Vec<Node> {
    // `place[old]`: the node's index in pre-order.
    let mut place = vec![0; nodes.len()];
    let (mut next, mut stack) = (0, vec![0]);
    while let Some(old) = stack.pop() {
        place[old] = next;
        next += 1;
        if let Some((_, l, r)) = &nodes[old].split {
            stack.extend([*r, *l]);
        }
    }
    assert_eq!(next, nodes.len(), "every node hangs off the root");
    for n in &mut nodes {
        if let Some((_, l, r)) = &mut n.split {
            (*l, *r) = (place[*l], place[*r]);
        }
    }
    // Follow each cycle: the swap puts the node at `i` in its place.
    for i in 0..nodes.len() {
        while place[i] != i {
            let j = place[i];
            nodes.swap(i, j);
            place.swap(i, j);
        }
    }
    nodes
}

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
    /// when `pump` pops it, closed when its frames are in the outbox.
    span: u64,
}

impl PlanDesc {
    /// The worker holding the parent's `Ix` (`None` for a root).
    fn parent_worker(&self) -> Option<NodeId> {
        match self.parent {
            ParentRef::Root => None,
            ParentRef::Node { worker, .. } => Some(worker),
        }
    }
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
    trace: u64,
    /// The task's span (the one its plan/result frames carry).
    span: u64,
    /// The `now` of the step that dispatched it, for the master-side
    /// task-latency histograms; virtual time under `SimClock::virtual_at`,
    /// so seeded replays measure identical latencies.
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

/// The master's whole state. One owner: the cluster shares it behind one
/// `Mutex`, and every method here runs with that lock held.
pub struct Master {
    cfg: ClusterConfig,
    n_rows: usize,
    n_attrs: usize,
    /// The current prediction task (boosting rounds may retarget it).
    data_task: Task,
    /// The live roster, sorted.
    workers: Vec<NodeId>,
    colmap: ColumnMap,
    /// The plan queue `Bplan` (`ts-sched`): per-worker affinity deques plus
    /// a global one, bounded in-flight dispatch, stealing for idle workers.
    plans: PlanQueue<PlanDesc>,
    ttask: HashMap<TaskId, MasterTask>,
    mwork: LoadMatrix,
    registry: Registry,
    next_task: u64,
    /// Span-id allocator for ts-trace. Master-allocated so ids are unique
    /// cluster-wide; starts at 1 because 0 means "no span".
    next_span: u64,
    /// Cluster-wide count of subtree delegations, driving the fault plan's
    /// `crash_at_delegation` trigger (global so the trigger is independent
    /// of which worker happens to be picked as key worker).
    delegations: u64,
    /// Bytes of `Donate` acks sent so far. How many steals a job sees
    /// follows worker timing, not the job, so `Cluster::report` keeps them
    /// out of `master_sent_bytes`, which then repeats for a fixed job.
    steal_ack_bytes: u64,
    /// Split-plane bytes by splitter mode (`count_split_plane_bytes`):
    /// exact full results, and histogram nominations, fetches and elected
    /// results. Counted whether or not a recorder is attached.
    split_bytes_sent: u64,
    hist_bytes_sent: u64,
    /// Where obs events are recorded, in place (the recorder lives on the
    /// cluster's shared statistics).
    stats: Arc<NetStats>,
    /// Frames and job notifications in the order the handlers made them;
    /// only the master thread delivers them ([`Master::run`]).
    out: Vec<Post>,
    /// Set once recovery proved impossible: every pending and future job
    /// fails with this reason instead of training.
    degraded: Option<RecoveryError>,
    /// Workers mid-drain, keyed by node id (`ts-elastic` preemption).
    draining: HashMap<NodeId, DrainState>,
    /// In-flight elastic migrations: `(attr, destination) → source`.
    /// Distinguishes join/drain migrations from crash re-replication when
    /// a `ReplicateDone` arrives.
    migrations: HashMap<(usize, NodeId), NodeId>,
    /// The fault plan's scripted join `(at_ns, n)` and preemption
    /// `(at_ns, victim, grace_ns)`, and the suspicion `(at_ns, worker)` of
    /// a crash it injected, until `step` fires them.
    join: Option<(u64, usize)>,
    preempt: Option<(u64, NodeId, u64)>,
    suspicion: Option<(u64, NodeId)>,
}

impl Master {
    /// Creates the master state, recording obs events to `stats`'
    /// recorder.
    pub fn new(
        cfg: ClusterConfig,
        n_rows: usize,
        n_attrs: usize,
        data_task: Task,
        colmap: ColumnMap,
        stats: Arc<NetStats>,
    ) -> Master {
        let workers: Vec<NodeId> = (1..=cfg.n_workers).collect();
        // Per-worker in-flight window: enough dispatched work to keep every
        // comper busy while the next tasks' column/`Ix` fetches are in
        // flight; the rest waits master-side, where it can be re-routed.
        let mut plans = PlanQueue::new(2 * cfg.compers_per_worker + 2);
        plans.set_workers(&workers);
        let faults = cfg.faults.as_ref();
        Master {
            n_rows,
            n_attrs,
            data_task,
            workers,
            colmap,
            plans,
            ttask: HashMap::new(),
            // One row per machine the fabric provisions: master, launch
            // roster, spare slots.
            mwork: LoadMatrix::new(cfg.total_worker_slots() + 1),
            registry: Registry {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                active: HashMap::new(),
                next_tree: 0,
                next_job: 0,
            },
            next_task: 0,
            next_span: 1,
            delegations: 0,
            steal_ack_bytes: 0,
            split_bytes_sent: 0,
            hist_bytes_sent: 0,
            stats,
            out: Vec::new(),
            degraded: None,
            draining: HashMap::new(),
            migrations: HashMap::new(),
            join: faults.and_then(|p| p.worker_join()),
            preempt: faults.and_then(|p| p.preemption()),
            suspicion: None,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // The driver: one lock, one thread, one step.
    // ------------------------------------------------------------------

    /// A call from outside the master thread: runs the handler `f` on the
    /// locked master and posts a loop-back `Wake`, so the master thread's
    /// next turn starts now and delivers what `f` left in the outbox ahead
    /// of whatever the turn adds, the order one lock held across both would
    /// give.
    ///
    /// The caller never `pump`s: `pump` admits trees, and a tree's arena
    /// would then be born in the *caller's* malloc arena — for a client,
    /// the main heap — where the model's buffers, freed once the client has
    /// its copy, leave holes under everything allocated since: +5 % peak
    /// RSS on the ledger's serving set-up (measured; see CHANGES.md).
    pub fn call<R>(
        shared: &Mutex<Master>,
        fabric: &Fabric<TaskMsg>,
        f: impl FnOnce(&mut Master) -> R,
    ) -> R {
        let out = f(&mut shared.lock());
        let _ = fabric.send(0, 0, TaskMsg::Wake);
        out
    }

    /// The master thread: one turn per message or idle tick, until the
    /// loop-back `Shutdown` that [`Master::shutdown`] leaves arrives. The
    /// tick is half a heartbeat interval, so the timers fire on a silent
    /// cluster too.
    pub fn run(shared: &Mutex<Master>, fabric: &Fabric<TaskMsg>, rx: FabricReceiver<TaskMsg>) {
        let half_beat = shared.lock().cfg.heartbeat_interval / 2;
        let tick = half_beat.clamp(Duration::from_millis(1), Duration::from_millis(50));
        let ends = Ends {
            me: 0,
            task: fabric.clone(),
            worker: None,
        };
        ends.serve(&rx, Some(tick), |msg| match msg {
            Some(TaskMsg::Shutdown) => None,
            msg => Some(Master::turn(shared, fabric.clock().now_ns(), msg)),
        });
    }

    /// One turn of the master thread: a step and its pump at one clock
    /// reading, under the lock, and the whole outbox taken for delivery,
    /// beginning with whatever `call`s left in it.
    fn turn(shared: &Mutex<Master>, now: u64, msg: Option<TaskMsg>) -> Vec<Post> {
        let mut m = shared.lock();
        m.step(now, msg);
        m.pump(now);
        std::mem::take(&mut m.out)
    }

    /// `θ_recv`: folds one message (`None`: the tick brought none), then
    /// fires the timers that are due.
    pub fn step(&mut self, now: u64, msg: Option<TaskMsg>) {
        match msg {
            Some(msg) => self.handle(now, msg),
            None => self.plans.note_idle_tick(),
        }
        self.fire_timers(now);
    }

    /// `θ_main`: retires ready drains, admits trees, and assigns plans
    /// until nothing more is dispatchable.
    pub fn pump(&mut self, now: u64) {
        self.retire_ready_drains();
        self.admit_trees();
        while let Some((plan, steal)) = self.plans.try_next(&self.mwork) {
            self.assign_plan(now, plan, steal);
        }
    }

    /// Tells every machine the launch spawned to stop — the roster, the
    /// draining and fenced workers, the spares never admitted — and, by
    /// loop-back, the master thread itself. A machine that has stopped
    /// already fails the send, which the master thread ignores. Made
    /// through [`Master::call`].
    pub fn shutdown(&mut self) {
        let stops = (1..=self.cfg.total_worker_slots())
            .chain([0])
            .map(|w| Post::Task(w, TaskMsg::Shutdown));
        self.out.extend(stops);
    }

    /// Leaves a frame to `to` in the outbox.
    fn send(&mut self, to: NodeId, msg: TaskMsg) {
        self.out.push(Post::Task(to, msg));
    }

    // ------------------------------------------------------------------
    // Client calls (`Cluster` makes them under the lock; the ones that can
    // queue work or send, through `Master::call`).
    // ------------------------------------------------------------------

    /// Submits a job; returns the handle and the result channel.
    ///
    /// On a degraded cluster (recovery proved impossible) the job fails
    /// immediately with the stored reason, and so does a job no worker can
    /// compute (`ImpurityMismatch`) or one with no trees (`NoTrees`).
    pub fn submit(&mut self, spec: JobSpec) -> (JobHandle, Receiver<JobResult>) {
        let trees = spec.expand(self.n_attrs);
        let (tx, rx) = tschan::bounded(1);
        let job_id = self.registry.next_job;
        self.registry.next_job += 1;
        // Regression kernels score by variance whatever the spec says, but
        // class counts have no variance: a comper would panic on the first
        // task and the job would never complete.
        let (impurity, task) = (spec.impurity, self.data_task);
        let mismatch =
            impurity == Impurity::Variance && matches!(task, Task::Classification { .. });
        let refused = (self.degraded.clone())
            .or_else(|| mismatch.then_some(RecoveryError::ImpurityMismatch { impurity, task }))
            .or_else(|| trees.is_empty().then_some(RecoveryError::NoTrees));
        if let Some(err) = refused {
            self.out.push(Post::Notify(tx, JobResult::Failed(err)));
            return (JobHandle(job_id), rx);
        }
        // The job's root span doubles as the trace id: every descendant
        // span (plans, tasks) carries it across the fabric.
        let job_span = self.new_span();
        self.registry.jobs.insert(
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
            self.registry.queue.push_back(QueuedTree {
                job: job_id,
                index,
                spec,
                trace: job_span,
            });
        }
        obs_event!(self.stats, 0, ts_obs::Event::JobSubmitted { job: job_id });
        obs_event!(
            self.stats,
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

    /// Retargets the prediction task and leaves one `LoadLabels` of the
    /// new label column for each of the [`Master::label_targets`] (see
    /// `Cluster::update_labels`). Made through [`Master::call`].
    pub(crate) fn relabel(&mut self, task: Task, labels: Arc<Labels>) {
        self.data_task = task;
        for w in self.label_targets() {
            let labels = Arc::clone(&labels);
            self.send(w, TaskMsg::LoadLabels { labels });
        }
    }

    /// The currently live workers.
    pub fn live_workers(&self) -> &[NodeId] {
        &self.workers
    }

    /// Who needs the next label column (`Cluster::update_labels`): the
    /// roster, and the spares a join not yet fired will admit.
    pub fn label_targets(&self) -> Vec<NodeId> {
        let spares = self.join.map_or(0, |(_, n)| n);
        let spares = self.cfg.n_workers + 1..=self.cfg.n_workers + spares;
        self.workers.iter().copied().chain(spares).collect()
    }

    /// Bytes of steal acks (`Donate` frames) the master has sent.
    pub fn steal_ack_bytes(&self) -> u64 {
        self.steal_ack_bytes
    }

    /// Split-plane bytes so far: `(exact full results, histogram
    /// nominations + fetches + elected results)`.
    pub fn split_plane_bytes(&self) -> (u64, u64) {
        (self.split_bytes_sent, self.hist_bytes_sent)
    }

    /// Whether a worker is currently mid-drain.
    pub fn is_draining(&self, worker: NodeId) -> bool {
        self.draining.contains_key(&worker)
    }

    /// The degradation reason, if recovery has failed.
    pub fn degraded_reason(&self) -> Option<RecoveryError> {
        self.degraded.clone()
    }

    fn new_task(&mut self) -> TaskId {
        self.next_task += 1;
        TaskId(self.next_task - 1)
    }

    fn new_span(&mut self) -> u64 {
        self.next_span += 1;
        self.next_span - 1
    }

    fn placeholder_pred(&self) -> Prediction {
        match self.data_task {
            Task::Classification { n_classes } => Prediction::Class {
                label: 0,
                pmf: vec![0.0; n_classes as usize],
            },
            Task::Regression => Prediction::Real(0.0),
        }
    }

    /// Inserts a plan into `Bplan` per the hybrid BFS/DFS rule. The plan
    /// lands on its parent worker's deque (§VI affinity); roots go to the
    /// shared global deque.
    fn enqueue_plan(&mut self, desc: PlanDesc) {
        let head = desc.n_rows <= self.cfg.tau_dfs;
        let affinity = desc.parent_worker();
        let (depth, rows) = (desc.depth, desc.n_rows);
        let qlen = self.plans.push(desc, affinity, head);
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::BplanPush {
                end: if head {
                    ts_obs::DequeEnd::Head
                } else {
                    ts_obs::DequeEnd::Tail
                },
                depth,
                rows,
                qlen: qlen as u32,
            }
        );
    }

    /// Starts (or, after a revocation, restarts) a tree: a fresh id, one
    /// placeholder root node, and the root plan — hanging directly off the
    /// job span — on the global deque.
    fn start_tree(&mut self, job: u64, index: usize, trace: u64, spec: TreeSpec) {
        let tree = TreeId(self.registry.next_tree);
        self.registry.next_tree += 1;
        let root = PlanDesc {
            task: self.new_task(),
            tree,
            node: 0,
            parent: ParentRef::Root,
            n_rows: self.n_rows as u64,
            depth: 0,
            path: 1,
            trace,
            span: self.new_span(),
        };
        self.registry.active.insert(
            tree,
            ActiveTree {
                job,
                index,
                trace,
                spec,
                nodes: vec![Node::leaf(self.placeholder_pred(), 0, 0)],
                pending: 1,
            },
        );
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::SpanOpen {
                trace,
                span: root.span,
                parent: trace,
                kind: ts_obs::SpanKind::Plan,
                subject: root.task.0,
            }
        );
        self.enqueue_plan(root);
    }

    // ------------------------------------------------------------------
    // θ_main: admission + assignment.
    // ------------------------------------------------------------------

    /// Declares `w` dead and runs crash recovery for it.
    fn suspect(&mut self, w: NodeId) {
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::WorkerSuspected { worker: w as u32 }
        );
        self.recover_or_degrade(w);
    }

    /// Admits queued trees while the active pool has room (`n_pool`).
    fn admit_trees(&mut self) {
        while self.registry.active.len() < self.cfg.n_pool {
            let Some(q) = self.registry.queue.pop_front() else {
                return;
            };
            self.start_tree(q.job, q.index, q.trace, q.spec);
        }
    }

    /// Assigns one plan to workers (§VI) and ships it. When the plan was
    /// stolen (`steal`), the thief is told first via a `Donate` frame so
    /// its pending steal request is acknowledged before (or with) the
    /// plan traffic it produced.
    fn assign_plan(&mut self, now: u64, desc: PlanDesc, steal: Option<StealInfo>) {
        // Fetch the tree's spec; a missing tree was revoked by recovery.
        let Some(t) = self.registry.active.get(&desc.tree) else {
            return;
        };
        let (candidates, params, tree_seed) =
            (t.spec.candidates.clone(), t.spec.params, t.spec.seed);
        let tau_d = self.cfg.tau_d;
        let parent_worker = desc.parent_worker();
        // The plan span leaves the queue: open→active is queue wait,
        // active→close is assignment; the frames go out after the step.
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::SpanActive {
                span: desc.span,
                node: 0,
            }
        );
        // The task span: carried by every plan/result frame of this task,
        // closed when the folded result is final.
        let task_span = self.new_span();
        let ctx = TraceCtx::new(desc.trace, SpanId(task_span));
        obs_event!(
            self.stats,
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

        // Acknowledge a stolen plan before any of its traffic: the Donate
        // frame clears the thief's outstanding steal request and carries the
        // task span, which draws the steal edge in the span DAG.
        if let Some(info) = steal {
            obs_event!(
                self.stats,
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
            self.steal_ack_bytes += ack.wire_bytes() as u64;
            self.send(info.thief, ack);
        }

        // Each arm decides who computes what and returns: the task-table
        // kind, the §VI charges, the workers the task touches, the number of
        // `Ix` requesters the parent's delegate will serve, and the plan
        // frames. Recording and shipping them is the same for every arm.
        let (kind, charges, mut touches, quota, plans) = if desc.n_rows <= tau_d {
            // Subtree-task.
            let asg = assign_subtree(
                &mut self.mwork,
                &self.colmap,
                &self.workers,
                &candidates,
                desc.n_rows,
                parent_worker,
            );
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
                let eligible: Vec<NodeId> = (self.workers.iter().copied())
                    .filter(|&w| !self.colmap.columns_of(w).is_empty())
                    .collect();
                assert!(!eligible.is_empty(), "no worker holds any column");
                let w = eligible[rng.gen_range(0..eligible.len())];
                let charges = vec![(w, [desc.n_rows, 0, 0])];
                self.mwork.apply(&charges);
                let shard = (w, self.colmap.columns_of(w));
                (vec![shard], charges, Some(rng.gen()), None)
            } else {
                // Sharded over column holders. The shard layout is identical
                // for both splitters; only the scoring mode and the result
                // protocol differ (exact full results vs histogram
                // nominations, `docs/HISTOGRAM.md`).
                let asg = assign_column_task(
                    &mut self.mwork,
                    &self.colmap,
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
        self.ttask.insert(
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
                started_ns: now,
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
            if let Some(rec) = self.stats.recorder() {
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
            self.send(to, msg);
            if delegated_subtree {
                self.note_delegation(now, to);
            }
        }
        // Dispatch done: the plan span ends here; the task span stays open
        // until the final result is folded.
        obs_event!(self.stats, 0, ts_obs::Event::SpanClose { span: desc.span });
    }

    /// Counts cluster-wide subtree delegations and fires the fault plan's
    /// crash trigger on the n-th one: the key worker that just received the
    /// plan is silenced with a task-channel `Shutdown` (the worker cascades
    /// it into its own data loop and compers — see `Machine::task_loop` in
    /// `worker.rs`). Nothing announces the crash to the scheduler: the
    /// worker simply goes dark, and a suspicion timer armed for
    /// `heartbeat_interval × heartbeat_miss_threshold` from now declares it
    /// dead when it fires. `Cluster::kill_worker` remains the announced
    /// variant.
    fn note_delegation(&mut self, now: u64, key_worker: NodeId) {
        self.delegations += 1;
        let nth = self.delegations;
        let at = (self.cfg.faults.as_ref()).and_then(|p| p.crash_at_delegation());
        // Re-replication needs a surviving replica; with one worker left the
        // injection is skipped rather than aborting training.
        if at != Some(nth) || self.workers.len() <= 1 {
            return;
        }
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::CrashInjected {
                node: key_worker as u32,
                at_delegation: nth
            }
        );
        self.send(key_worker, TaskMsg::Shutdown);
        let silence = (self.cfg.heartbeat_interval)
            .saturating_mul(self.cfg.heartbeat_miss_threshold)
            .as_nanos();
        let at = now.saturating_add(u64::try_from(silence).unwrap_or(u64::MAX));
        self.suspicion = Some((at, key_worker));
    }

    // ------------------------------------------------------------------
    // θ_recv: results.
    // ------------------------------------------------------------------

    /// Folds one worker message into the master's state.
    fn handle(&mut self, now: u64, msg: TaskMsg) {
        self.count_split_plane_bytes(&msg);
        match msg {
            TaskMsg::Wake => {}
            // One of the worker's threads died mid-task: what it owed is
            // lost, so it is a crash like any other — a draining worker's
            // too, whose grace window there is no point waiting out.
            TaskMsg::WorkerLost { worker }
                if self.draining.contains_key(&worker) && self.degraded.is_none() =>
            {
                self.escalate_drain(worker)
            }
            TaskMsg::WorkerLost { worker } => self.recover_or_degrade(worker),
            TaskMsg::ColumnResult {
                task,
                worker,
                best,
                node_stats,
                ..
            } => self.on_column_result(now, task, worker, best, node_stats),
            TaskMsg::HistNominate {
                task,
                worker,
                cands,
                node_stats,
                ..
            } => self.on_hist_nominate(now, task, worker, cands, node_stats),
            TaskMsg::HistBest {
                task, worker, best, ..
            } => self.on_hist_best(task, worker, best),
            TaskMsg::SubtreeResult {
                task,
                worker,
                subtree,
                ..
            } => self.on_subtree_result(now, task, worker, subtree),
            TaskMsg::ReplicateDone { attrs, worker, .. } => self.on_replicate_done(attrs, worker),
            // A worker's compute pool ran dry: queue it for the stealing
            // pop. Requests are accelerators, not obligations — losing one
            // costs latency, never progress (the next completion
            // re-triggers). The `StealRequested` event is recorded at the
            // origin (the worker), so the counter sees each request once.
            TaskMsg::StealRequest { worker } => self.plans.mark_hungry(worker),
            // The draining worker reports its task queue idle. Departure
            // still waits on column handoffs and on in-flight tasks that
            // reference the leaver on the data plane (`retire_ready_drains`).
            TaskMsg::Goodbye { worker } => {
                if let Some(st) = self.draining.get_mut(&worker) {
                    st.goodbye = true;
                }
            }
            _ => unreachable!("worker-bound message delivered to the master"),
        }
    }

    /// Folds split-phase result traffic into the per-kind byte counters
    /// (`split_bytes_sent` for exact full results, `hist_bytes_sent` for
    /// the nomination/fetch/best election). Frames common to both modes
    /// (plans, confirms, quotas) are deliberately excluded from both, so
    /// the two counters compare exactly the traffic the splitter choice
    /// changes (`docs/HISTOGRAM.md`).
    fn count_split_plane_bytes(&mut self, msg: &TaskMsg) {
        match msg {
            TaskMsg::ColumnResult { .. } => self.split_bytes_sent += msg.wire_bytes() as u64,
            TaskMsg::HistNominate { .. } | TaskMsg::HistBest { .. } => {
                self.hist_bytes_sent += msg.wire_bytes() as u64
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Elastic membership (`ts-elastic`, see `docs/ELASTICITY.md`).
    // ------------------------------------------------------------------

    /// Sends one `ReplicateTo` per `(source, destination)` pair, in pair
    /// order. Each handoff gets its own migration span, which rides every
    /// frame of it (ReplicateTo → ReplicateCols → ReplicateDone), so
    /// retries and duplicate drops attribute to it.
    fn send_migrations(&mut self, by_pair: BTreeMap<(NodeId, NodeId), Vec<usize>>) {
        for ((src, to), attrs) in by_pair {
            let span = self.new_span();
            let ctx = TraceCtx::new(span, SpanId(span));
            self.send(src, TaskMsg::ReplicateTo { attrs, to, ctx });
        }
    }

    /// Fires every timer whose time `now` has reached, each once. A join
    /// admits the spare slots `n_workers+1 ..= n_workers+n` in id order; a
    /// preemption starts the victim's drain; the suspicion of an injected
    /// crash declares its worker dead, if it is still on the roster; and a
    /// drain that outlived its grace window stops being graceful.
    fn fire_timers(&mut self, now: u64) {
        if let Some((_, n)) = self.join.filter(|&(at, _)| now >= at) {
            self.join = None;
            for w in self.cfg.n_workers + 1..=self.cfg.n_workers + n {
                self.admit(w);
            }
        }
        if let Some((_, victim, grace_ns)) = self.preempt.filter(|&(at, ..)| now >= at) {
            self.preempt = None;
            self.begin_drain(now, victim, Duration::from_nanos(grace_ns));
        }
        if self.degraded.is_some() {
            return; // there is nothing left to recover
        }
        if let Some((_, w)) = self.suspicion.filter(|&(at, _)| now >= at) {
            self.suspicion = None;
            if self.workers.contains(&w) {
                let missed = u64::from(self.cfg.heartbeat_miss_threshold);
                let worker = w as u32;
                obs_event!(
                    self.stats,
                    0,
                    ts_obs::Event::HeartbeatMissed { worker, missed }
                );
                self.suspect(w);
            }
        }
        // A drain whose grace window ran out before its handoff finished
        // (spot preemption) ends as a crash.
        let expired: Vec<NodeId> = (self.draining.iter())
            .filter(|&(_, st)| now >= st.deadline_ns)
            .map(|(&w, _)| w)
            .collect();
        for w in expired {
            self.escalate_drain(w);
        }
    }

    /// Ends `w`'s drain as a crash: its outbound handoffs die with it
    /// (survivor-sourced re-replications stay useful and complete
    /// normally), and the leaver is re-listed so the crash path accepts it
    /// — exactly as if it had gone silent. Run when the grace window
    /// expires, and at once when one of the leaver's threads dies.
    fn escalate_drain(&mut self, w: NodeId) {
        self.draining.remove(&w);
        self.migrations.retain(|_, &mut from| from != w);
        self.workers.push(w);
        self.workers.sort_unstable();
        self.suspect(w);
    }

    /// Admits a spare slot, running since launch with no columns: add it to
    /// the roster, register its affinity deque, and start incremental
    /// column migration toward it. The joiner becomes a column holder only
    /// as each `ReplicateDone` lands, so column tasks never target data
    /// still in flight — but subtree tasks can pick it as key worker
    /// immediately (they fetch columns remotely anyway).
    fn admit(&mut self, worker: NodeId) {
        // A degraded cluster admits nobody; a draining node is on its way
        // out; a roster member is admitted already.
        if self.degraded.is_some()
            || self.draining.contains_key(&worker)
            || self.workers.contains(&worker)
        {
            return;
        }
        self.workers.push(worker);
        self.workers.sort_unstable();
        self.plans.set_workers(&self.workers);
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::WorkerJoined {
                node: worker as u32
            }
        );

        // Plan the join top-up and route one ReplicateTo per source.
        let mut by_pair: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        for (attr, src) in self.colmap.add_worker(worker, self.cfg.replication) {
            self.migrations.insert((attr, worker), src);
            by_pair.entry((src, worker)).or_default().push(attr);
        }
        self.send_migrations(by_pair);
    }

    /// Starts a graceful drain of `worker` ahead of an announced preemption
    /// with the given grace window, counted from `now`. The leaver is removed from scheduling
    /// immediately (so the suspicion timer and the assigner both skip it), its
    /// queued plans are reclaimed onto the global deque, its columns are
    /// handed off, and a `Drain` frame tells it to finish up and `Goodbye`.
    pub fn begin_drain(&mut self, now: u64, worker: NodeId, grace: Duration) {
        // Never drain the last worker: there is nowhere to hand off to.
        if self.degraded.is_some()
            || self.draining.contains_key(&worker)
            || !self.workers.contains(&worker)
            || self.workers.len() <= 1
        {
            return;
        }
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::WorkerDraining {
                node: worker as u32
            }
        );
        self.workers.retain(|&w| w != worker);
        // The leaver's queued plans re-enter on the global deque (their
        // affinity points at a machine that is leaving), and any steal
        // request it already posted is forgotten.
        self.plans.retire_worker(worker, &self.workers);

        // Column handoff. Two cases per held column:
        //  - another holder exists → the leaver stops being a holder now;
        //    if that leaves the column under-replicated, a survivor
        //    re-replicates it (exactly the crash-recovery move, minus the
        //    crash).
        //  - the leaver is the sole holder → it keeps serving the column
        //    and copies it to a live non-holder itself; the handoff
        //    completing is what retires it as holder (`migrating` set).
        let mut migrating: BTreeSet<usize> = BTreeSet::new();
        let mut by_pair: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        let mut load = self.column_loads();
        for attr in self.colmap.columns_of(worker) {
            let handed_over = self.colmap.drop_holder(attr, worker);
            let holders = self.colmap.holders(attr);
            // Survivors hold it: top the replication back up only if the
            // departure cut below k.
            if handed_over && holders.len() >= self.cfg.replication {
                continue;
            }
            let Some(target) = self.replica_target(&mut load, holders) else {
                continue; // no live target; escalation will decide
            };
            let src = if handed_over { holders[0] } else { worker };
            if !handed_over {
                migrating.insert(attr);
            }
            self.migrations.insert((attr, target), src);
            by_pair.entry((src, target)).or_default().push(attr);
        }
        self.send_migrations(by_pair);
        self.draining.insert(
            worker,
            DrainState {
                deadline_ns: now
                    .saturating_add(u64::try_from(grace.as_nanos()).unwrap_or(u64::MAX)),
                migrating,
                goodbye: false,
            },
        );
        self.send(worker, TaskMsg::Drain);
    }

    /// How many columns each live worker holds: the load a re-replication
    /// target is chosen by.
    fn column_loads(&self) -> HashMap<NodeId, usize> {
        (self.workers.iter())
            .map(|&w| (w, self.colmap.columns_of(w).len()))
            .collect()
    }

    /// The one re-replication target rule, for a crash and for a drain:
    /// the live non-holder that holds the fewest columns (ties to the
    /// lowest id), charged the copy it is about to receive.
    fn replica_target(
        &self,
        load: &mut HashMap<NodeId, usize>,
        holders: &[NodeId],
    ) -> Option<NodeId> {
        let target = (self.workers.iter().copied())
            .filter(|w| !holders.contains(w))
            .min_by_key(|w| (load[w], *w))?;
        *load.get_mut(&target).expect("live") += 1;
        Some(target)
    }

    /// Replicated columns landed at `worker`. Join/drain migrations are
    /// recognised by the `(attr, destination)` key recorded when the
    /// `ReplicateTo` went out; anything else is crash re-replication and
    /// keeps the `WorkerRecovered` semantics.
    fn on_replicate_done(&mut self, attrs: Vec<usize>, worker: NodeId) {
        let mut any_recovery = false;
        for a in attrs {
            self.colmap.add_holder(a, worker);
            let Some(from) = self.migrations.remove(&(a, worker)) else {
                any_recovery = true;
                continue;
            };
            obs_event!(
                self.stats,
                0,
                ts_obs::Event::ColumnMigrated {
                    attr: a as u32,
                    from: from as u32,
                    to: worker as u32,
                }
            );
            if let Some(st) = self.draining.get_mut(&from) {
                // Pre-departure handoff: the leaver stops being this
                // column's holder the moment the copy is servable
                // elsewhere.
                self.colmap.drop_holder(a, from);
                st.migrating.remove(&a);
            }
        }
        if any_recovery {
            obs_event!(
                self.stats,
                0,
                ts_obs::Event::WorkerRecovered {
                    node: worker as u32
                }
            );
        }
    }

    /// Finalises every drain whose conditions are all met: `Goodbye`
    /// received, no column still migrating off the leaver, no in-flight
    /// task touching it, and no queued plan that would fetch `Ix` from it.
    /// Finalisation sends the final `Shutdown`; the
    /// leaver exits through the ordinary shutdown cascade — zero crash
    /// recovery, zero tree revocation.
    ///
    /// Runs at the head of every `pump`, i.e. between two steps: a handler
    /// that takes a task out of the table has queued its child plans by
    /// then, so a plan is always in the queue or in the table when the
    /// gate reads them.
    fn retire_ready_drains(&mut self) {
        let ready: Vec<NodeId> = (self.draining.iter())
            .filter(|&(_, st)| st.goodbye && st.migrating.is_empty())
            .map(|(&w, _)| w)
            .filter(|w| !self.ttask.values().any(|t| t.touches.contains(w)))
            .filter(|&w| !self.plans.any_match(|d| d.parent_worker() == Some(w)))
            .collect();
        for w in ready {
            self.draining.remove(&w);
            obs_event!(
                self.stats,
                0,
                ts_obs::Event::WorkerDeparted { node: w as u32 }
            );
            // The leaver holds no columns by now (handoffs retired them),
            // so the Shutdown is the last frame it will ever see; it exits
            // through the normal cascade.
            self.send(w, TaskMsg::Shutdown);
        }
    }

    fn on_column_result(
        &mut self,
        now: u64,
        task: TaskId,
        worker: NodeId,
        best: Option<ColumnTaskBest>,
        node_stats: NodeStats,
    ) {
        let Some(entry) = self.ttask.get_mut(&task) else {
            return; // revoked
        };
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::ColumnTaskCompleted {
                task: task.0,
                node: worker as u32,
                latency_ns: now.saturating_sub(entry.started_ns),
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
                Some((_, incumbent)) => {
                    ColumnSplit::challenger_wins(&b.split, b.attr, &incumbent.split, incumbent.attr)
                }
            };
            if replace {
                *stored = Some((worker, b));
            }
        }
        if stats_slot.is_none() {
            *stats_slot = Some(node_stats);
        }
        let finished = *pending == 0;
        // One shard of this worker's outstanding work came back (stale
        // results of revoked tasks returned above and never reach this —
        // the queue's accounting was reset when the tasks were revoked).
        self.plans.note_completed(worker);
        if finished {
            self.finalize_column_task(task);
        }
    }

    /// One shard of a histogram-mode column task voted: fold its
    /// `(attr, gain)` nominations. When the last shard reports, either the
    /// node is a leaf (or nobody found a split) and the task finalizes
    /// immediately, or the master elects the globally best candidate by
    /// `(gain desc, attr asc, worker asc)` and fetches the single full
    /// split it needs from the nominating worker.
    fn on_hist_nominate(
        &mut self,
        now: u64,
        task: TaskId,
        worker: NodeId,
        noms: Vec<(usize, f64)>,
        stats: Option<NodeStats>,
    ) {
        let Some(entry) = self.ttask.get_mut(&task) else {
            return; // revoked
        };
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::ColumnTaskCompleted {
                task: task.0,
                node: worker as u32,
                latency_ns: now.saturating_sub(entry.started_ns),
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
        // One shard of this worker's outstanding work came back (mirrors
        // the exact path's per-shard queue accounting).
        self.plans.note_completed(worker);
        if *pending > 0 {
            return;
        }
        // All shards voted. Leaf conditions short-circuit the fetch
        // round-trip entirely; so does an empty candidate set.
        let params = self.registry.active.get(&entry.tree).map(|t| t.spec.params);
        let must_leaf = match (&params, &node_stats) {
            (Some(p), Some(ns)) => {
                entry.depth >= p.dmax || entry.n_rows <= p.tau_leaf || ns.is_pure()
            }
            _ => true, // revoked tree: finalize handles the drops
        };
        // Election: total order over (gain desc, attr asc, worker asc) —
        // deterministic whatever the nomination arrival order, which is
        // what keeps same-seed replays byte-identical under stealing and
        // elastic membership.
        let elected = (cands.iter().copied())
            .max_by(|&(ga, aa, wa), &(gb, ab, wb)| {
                ga.total_cmp(&gb).then(ab.cmp(&aa)).then(wb.cmp(&wa))
            })
            .filter(|_| !must_leaf);
        let Some((_, attr, w)) = elected else {
            return self.finalize_column_task(task);
        };
        *fetched = Some(w);
        let ctx = TraceCtx::new(entry.trace, SpanId(entry.span));
        let msg = TaskMsg::HistFetch { task, attr, ctx };
        self.hist_bytes_sent += msg.wire_bytes() as u64;
        self.send(w, msg);
    }

    /// The elected worker answered the `HistFetch` with its full split:
    /// the task is complete — finalize exactly like an exact column task.
    fn on_hist_best(&mut self, task: TaskId, worker: NodeId, best: Option<ColumnTaskBest>) {
        let Some(entry) = self.ttask.get_mut(&task) else {
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
        self.finalize_column_task(task);
    }

    /// All shards of a column-task have reported: take it out of the task
    /// table, pick the winner, update the tree, spawn child tasks (or
    /// leaves), and notify the workers.
    fn finalize_column_task(&mut self, task: TaskId) {
        let entry = self
            .ttask
            .remove(&task)
            .expect("finalized task is in the table");
        self.mwork.deduct(&entry.charges);
        // The last shard has been folded: the task span is complete,
        // whatever the outcome (leaf, winner, or revoked tree).
        obs_event!(self.stats, 0, ts_obs::Event::SpanClose { span: entry.span });
        // A finished hist election carries the fetched full split in the
        // same shape as an exact task; the shared winner/leaf logic below
        // is what keeps both splitters' control flow (ConfirmBest first,
        // then drops and quotas) identical.
        let (TaskKind::Column {
            involved,
            best,
            node_stats,
            ..
        }
        | TaskKind::Hist {
            involved,
            best,
            node_stats,
            ..
        }) = entry.kind
        else {
            unreachable!("subtree tasks are not finalized here");
        };
        let node_stats = node_stats.expect("at least one shard reported");
        // Every shard but the winner's (if any) drops its task object.
        let drop_all_but = |out: &mut Vec<Post>, winner: Option<NodeId>| {
            let losers = involved.iter().filter(|&&w| Some(w) != winner);
            out.extend(losers.map(|&w| Post::Task(w, TaskMsg::DropTask { task })));
        };
        let Some(tree) = self.registry.active.get_mut(&entry.tree) else {
            // Tree revoked while results were in flight: just tell the
            // workers to drop their task objects.
            return drop_all_but(&mut self.out, None);
        };
        let params = tree.spec.params;

        // Leaf conditions at this node itself (relevant for root tasks; for
        // child tasks the parent's finalize already filtered these).
        let must_leaf =
            entry.depth >= params.dmax || entry.n_rows <= params.tau_leaf || node_stats.is_pure();
        let node_pred = prediction_from_stats(&node_stats);
        let Some((winner, best)) = best.filter(|_| !must_leaf) else {
            // Leaf: fill the node's prediction and drop all task objects.
            tree.nodes[entry.node] = Node::leaf(node_pred, entry.n_rows, entry.depth);
            tree.pending -= 1;
            let done_tree = tree.pending == 0;
            drop_all_but(&mut self.out, None);
            if done_tree {
                self.finish_tree(entry.tree);
            }
            return;
        };
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::SplitChosen {
                task: task.0,
                node: winner as u32,
                attr: best.attr as u32,
                gain: best.split.gain,
            }
        );

        // Winner path: update the tree, type the children.
        let l_idx = tree.nodes.len();
        let r_idx = l_idx + 1;
        let child_depth = entry.depth + 1;
        let sides = [
            (Side::Left, &best.split.left, l_idx),
            (Side::Right, &best.split.right, r_idx),
        ];
        for (_, stats, _) in sides {
            let leaf = Node::leaf(prediction_from_stats(stats), stats.n(), child_depth);
            tree.nodes.push(leaf);
        }
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
        // A side that is already a leaf needs no task; the rest become
        // child plans.
        let (leaves, children): (Vec<_>, Vec<_>) = sides.into_iter().partition(|&(_, stats, _)| {
            child_depth >= params.dmax || stats.n() <= params.tau_leaf || stats.is_pure()
        });
        tree.pending = tree.pending - 1 + children.len() as u64;
        let done_tree = tree.pending == 0;

        // Notify workers. ConfirmBest must reach the winner before any
        // ServeQuota for this task does; both ride the same FIFO channel,
        // and the quotas go out when `pump` assigns the child plans queued
        // below — later in this same step.
        self.send(winner, TaskMsg::ConfirmBest { task });
        drop_all_but(&mut self.out, Some(winner));
        for (side, _, _) in leaves {
            let quota = 0;
            self.send(winner, TaskMsg::ServeQuota { task, side, quota });
        }
        for (side, stats, node) in children {
            let plan = PlanDesc {
                task: self.new_task(),
                tree: entry.tree,
                node,
                parent: ParentRef::Node {
                    worker: winner,
                    task,
                    side,
                },
                n_rows: stats.n(),
                depth: child_depth,
                path: match side {
                    Side::Left => entry.path.wrapping_shl(1),
                    Side::Right => entry.path.wrapping_shl(1) | 1,
                },
                trace: entry.trace,
                span: self.new_span(),
            };
            // Child plans are causally parented to the column task whose
            // winning split spawned them — this is the job→plan→task→plan
            // chain the critical-path walk follows.
            obs_event!(
                self.stats,
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

    fn on_subtree_result(&mut self, now: u64, task: TaskId, w: NodeId, subtree: DecisionTreeModel) {
        let Some(entry) = self.ttask.remove(&task) else {
            return; // revoked
        };
        self.plans.note_completed(w);
        self.mwork.deduct(&entry.charges);
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::SubtreeTaskBuilt {
                task: task.0,
                node: w as u32,
                nodes: subtree.n_nodes() as u32,
                latency_ns: now.saturating_sub(entry.started_ns),
            }
        );
        obs_event!(self.stats, 0, ts_obs::Event::SpanClose { span: entry.span });
        let Some(tree) = self.registry.active.get_mut(&entry.tree) else {
            return;
        };
        graft_nodes(&mut tree.nodes, entry.node, subtree);
        tree.pending -= 1;
        if tree.pending == 0 {
            self.finish_tree(entry.tree);
        }
    }

    /// Flushes a completed tree into its job; completes the job when its
    /// last tree lands.
    fn finish_tree(&mut self, tree_id: TreeId) {
        let reg = &mut self.registry;
        let tree = reg.active.remove(&tree_id).expect("tree just completed");
        debug_assert_eq!(tree.pending, 0);
        // Results arrive in scheduling order; the tree leaves in depth-first
        // pre-order, so the same seed gives the same bytes.
        let model = DecisionTreeModel::new(preorder(tree.nodes), self.data_task);
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
        if job.done < job.total {
            return;
        }
        let job = reg.jobs.remove(&tree.job).expect("just present");
        let models: Vec<DecisionTreeModel> = job
            .models
            .into_iter()
            .map(|m| m.expect("all trees done"))
            .collect();
        let result = match job.kind {
            JobKind::DecisionTree => JobResult::Tree(models.into_iter().next().expect("one tree")),
            JobKind::RandomForest { .. } | JobKind::ExtraTrees { .. } => {
                JobResult::Forest(ts_tree::ForestModel::new(models, self.data_task))
            }
        };
        // Record before notifying: `Cluster::wait` returns on the send,
        // and observers may snapshot the rings immediately after.
        obs_event!(self.stats, 0, ts_obs::Event::SpanClose { span: job.span });
        obs_event!(self.stats, 0, ts_obs::Event::JobFinished { job: tree.job });
        // Behind every frame of the job in the outbox.
        self.out.push(Post::Notify(job.notify, result));
    }

    // ------------------------------------------------------------------
    // Fault recovery (paper §IV "Fault Tolerance" / Appendix E).
    // ------------------------------------------------------------------

    /// Runs crash recovery for `dead`; if recovery is impossible, fails
    /// every pending (and future) job with the structured reason instead of
    /// panicking. Called for a fired suspicion timer, an expired drain, a
    /// `WorkerLost` frame and `Cluster::kill_worker` — duplicate
    /// declarations are ignored.
    pub fn recover_or_degrade(&mut self, dead: NodeId) {
        if let Err(e) = self.handle_worker_crash(dead) {
            self.fail_all_jobs(e);
        }
    }

    /// An announced crash (`Cluster::kill_worker`): stops `worker`, then
    /// runs crash recovery for it. Made through [`Master::call`]. Recovery
    /// fences a worker on the roster with its first frame; a victim it
    /// would pass over — declared dead before, or of a degraded cluster —
    /// gets its one `Shutdown` here.
    pub(crate) fn kill(&mut self, worker: NodeId) {
        if self.degraded.is_some() || !self.workers.contains(&worker) {
            self.send(worker, TaskMsg::Shutdown);
        }
        self.recover_or_degrade(worker);
    }

    /// Handles a worker crash: re-replicates its columns from surviving
    /// replicas and restarts every in-flight tree (completed trees are
    /// unaffected). See DESIGN.md §7 for the tree-granularity note.
    ///
    /// Errors when no trainable cluster can be restored (last replica of a
    /// column died, no replication target, or no workers left); the caller
    /// should then fail all jobs — see [`Master::recover_or_degrade`].
    pub fn handle_worker_crash(&mut self, dead: NodeId) -> Result<(), RecoveryError> {
        // Deduplicate: several of a worker's threads, a timer and an
        // explicit kill may all declare the same worker dead; a degraded
        // cluster has nothing to recover.
        if self.degraded.is_some() || !self.workers.contains(&dead) {
            return Ok(());
        }
        obs_event!(
            self.stats,
            0,
            ts_obs::Event::WorkerCrashed { node: dead as u32 }
        );
        // 1. Membership: drop the worker from scheduling — then fence it.
        // "Dead" is a verdict, not a fact: a worker that blew its grace
        // window, or whose comper alone died, is still running, and nothing
        // else would tell it to stop before `Cluster::shutdown`. Every earlier frame to it was pushed before
        // its send returned, so a live worker gets the fence behind them; to
        // a truly dead node the send fails.
        self.workers.retain(|&w| w != dead);
        self.send(dead, TaskMsg::Shutdown);
        // Elastic migrations headed for the dead worker will never land.
        self.migrations.retain(|&(_, to), _| to != dead);
        if self.workers.is_empty() {
            return Err(RecoveryError::NoWorkersLeft { dead });
        }

        // 2. Column re-replication planning. Columns down to a single
        // surviving replica are scheduled first — another crash would lose
        // them for good. The holder list is updated when ReplicateDone
        // arrives. One `ReplicateTo` per `(source, target)` pair.
        let mut transfer: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        let mut lost = self.colmap.remove_worker(dead)?;
        lost.sort_by_key(|&a| (self.colmap.holders(a).len(), a));
        let mut load = self.column_loads();
        for attr in lost {
            let holders = self.colmap.holders(attr);
            let Some(target) = self.replica_target(&mut load, holders) else {
                return Err(RecoveryError::NoReplicationTarget { attr });
            };
            transfer.entry((holders[0], target)).or_default().push(attr);
        }

        // 3. Revoke all in-flight trees and restart them under fresh ids.
        // The queue is reset wholesale — deques, hunger, and the per-worker
        // outstanding counts (results for revoked tasks must not undercount
        // the fresh dispatches) — and the surviving roster installed. The
        // restarted roots hang off the job span again, like the originals;
        // the revoked subtrees' spans simply never close.
        let revoked: Vec<(TreeId, ActiveTree)> = self.registry.active.drain().collect();
        self.ttask.clear();
        self.mwork.clear();
        self.plans.clear();
        self.plans.set_workers(&self.workers);
        let mut revoked_ids: Vec<TreeId> = Vec::new();
        for (tid, t) in revoked {
            revoked_ids.push(tid);
            self.start_tree(t.job, t.index, t.trace, t.spec);
        }

        // 4. Notify workers: revocations, then the transfers in pair order.
        for &w in &self.workers {
            for &tree in &revoked_ids {
                self.out.push(Post::Task(w, TaskMsg::RevokeTree { tree }));
            }
        }
        for ((source, to), attrs) in transfer {
            let ctx = TraceCtx::NONE;
            self.send(source, TaskMsg::ReplicateTo { attrs, to, ctx });
        }
        Ok(())
    }

    /// Graceful degradation: records the terminal reason, clears all
    /// scheduling state, and fails every pending job (active and queued)
    /// with a diagnosable report. Subsequent submits fail immediately.
    fn fail_all_jobs(&mut self, err: RecoveryError) {
        eprintln!("treeserver: cluster degraded, failing all jobs: {err}");
        self.registry.active.clear();
        self.registry.queue.clear();
        self.ttask.clear();
        self.mwork.clear();
        self.plans.clear();
        for (_, j) in self.registry.jobs.drain() {
            let failed = JobResult::Failed(err.clone());
            self.out.push(Post::Notify(j.notify, failed));
        }
        self.degraded = Some(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_netsim::{FaultPlan, NetModel, SimClock};
    use ts_splits::condition::SplitTest;
    use ts_splits::impurity::ClassCounts;

    const TASK: Task = Task::Classification { n_classes: 2 };

    /// A master at time 0 over `n_cols` columns placed round-robin. It has
    /// no fabric and spawns no thread: tests call handlers, `step` and
    /// `pump` at explicit times and read the outbox back ([`inboxes`]).
    fn master_of(cfg: ClusterConfig, n_rows: usize, n_cols: usize) -> Master {
        let stats = NetStats::new(cfg.total_worker_slots() + 1);
        let colmap = ColumnMap::round_robin(n_cols, cfg.n_workers, cfg.replication);
        Master::new(cfg, n_rows, n_cols, TASK, colmap, stats)
    }

    fn test_master(n_rows: usize, tau_dfs: u64) -> Master {
        let cfg = ClusterConfig {
            n_workers: 2,
            tau_dfs,
            ..ClusterConfig::default()
        };
        master_of(cfg, n_rows, 4)
    }

    /// Three workers, `τ_D = 100`: with 150 rows the root is a column task
    /// and children of at most 100 rows are subtree tasks.
    fn three_workers() -> ClusterConfig {
        ClusterConfig {
            n_workers: 3,
            tau_d: 100,
            ..ClusterConfig::default()
        }
    }

    /// Takes the outbox as the machines would see it: one inbox per machine
    /// (index = node id), and each job result handed to its client.
    fn inboxes(m: &mut Master) -> Vec<Vec<TaskMsg>> {
        let mut boxes = vec![Vec::new(); m.cfg.total_worker_slots() + 1];
        for effect in std::mem::take(&mut m.out) {
            match effect {
                Post::Task(to, msg) => boxes[to].push(msg),
                Post::Notify(client, result) => {
                    let _ = client.send(result);
                }
                _ => unreachable!("the master posts task frames and results only"),
            }
        }
        boxes
    }

    /// A fabric on instant links and a virtual clock for `m`'s machines,
    /// with every machine's receiver: what `Master::call` and
    /// `Master::turn` take.
    fn fabric_for(m: &Master) -> (Fabric<TaskMsg>, Vec<FabricReceiver<TaskMsg>>) {
        let n = m.cfg.total_worker_slots() + 1;
        let clock = SimClock::virtual_at(0);
        Fabric::new_faulty(n, NetModel::instant(), NetStats::new(n), None, clock)
    }

    /// One master-thread turn at the fabric clock's time, delivered on
    /// `fabric`, as [`Master::run`] takes it.
    fn turn(shared: &Mutex<Master>, fabric: &Fabric<TaskMsg>, msg: Option<TaskMsg>) {
        let posts = Master::turn(shared, fabric.clock().now_ns(), msg);
        let ends = Ends {
            me: 0,
            task: fabric.clone(),
            worker: None,
        };
        ends.deliver(posts);
    }

    /// Everything a machine has been delivered since the last look.
    fn inbox(rx: &FabricReceiver<TaskMsg>) -> Vec<TaskMsg> {
        rx.try_iter().collect()
    }

    /// The job result a client holds, if one was delivered.
    fn result_of(client: &Receiver<JobResult>) -> Option<JobResult> {
        client.try_iter().next()
    }

    /// The `(worker, task)` pairs of the plan frames in `frames[w]`.
    fn plans_in(frames: &[Vec<TaskMsg>]) -> Vec<(NodeId, TaskId)> {
        let mut out = Vec::new();
        for (w, msgs) in frames.iter().enumerate() {
            for m in msgs {
                match m {
                    TaskMsg::ColumnPlan(p) => out.push((w, p.task)),
                    TaskMsg::SubtreePlan(p) => out.push((w, p.task)),
                    _ => {}
                }
            }
        }
        out
    }

    /// One master step and its pump at time 0, as `Master::turn` takes
    /// them.
    fn deliver(m: &mut Master, msg: TaskMsg) {
        m.step(0, Some(msg));
        m.pump(0);
    }

    /// Label statistics of `zeros` class-0 and `ones` class-1 rows.
    fn stats(zeros: u64, ones: u64) -> NodeStats {
        let mut c = ClassCounts::new(2);
        (0..zeros).for_each(|_| c.add(0));
        (0..ones).for_each(|_| c.add(1));
        NodeStats::Class(c)
    }

    fn split(attr: usize, gain: f64, left: NodeStats, right: NodeStats) -> Option<ColumnTaskBest> {
        Some(ColumnTaskBest {
            attr,
            split: ColumnSplit {
                test: SplitTest::NumericLe(0.5),
                gain,
                missing_left: false,
                left,
                right,
            },
            seen: None,
        })
    }

    fn column_result(
        task: TaskId,
        worker: NodeId,
        best: Option<ColumnTaskBest>,
        node_stats: NodeStats,
    ) -> TaskMsg {
        let ctx = TraceCtx::NONE;
        TaskMsg::ColumnResult {
            task,
            worker,
            best,
            node_stats,
            ctx,
        }
    }

    fn subtree_result(task: TaskId, worker: NodeId) -> TaskMsg {
        let leaf = Node::leaf(prediction_from_stats(&stats(1, 0)), 1, 0);
        TaskMsg::SubtreeResult {
            task,
            worker,
            subtree: DecisionTreeModel::new(vec![leaf], TASK),
            ctx: TraceCtx::NONE,
        }
    }

    #[test]
    fn enqueue_respects_hybrid_bfs_dfs_rule() {
        // Fig. 5: |Dx| > tau_dfs appends (breadth-first tail), smaller
        // pushes to the head (depth-first).
        let mut m = test_master(1_000, 100);
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
        while let Some((p, steal)) = m.plans.try_next(&m.mwork) {
            assert!(steal.is_none(), "nobody is hungry: no steal");
            order.push(p.task.0);
        }
        assert_eq!(order, vec![4, 3, 1, 2]);
    }

    #[test]
    fn submit_expands_trees_into_the_queue() {
        let mut m = test_master(1_000, 100);
        let (h1, _rx1) = m.submit(JobSpec::random_forest(TASK, 5));
        let (h2, _rx2) = m.submit(JobSpec::decision_tree(TASK));
        assert_ne!(h1, h2);
        assert_eq!(
            m.registry.queue.len(),
            6,
            "5 forest trees + 1 decision tree"
        );
        assert_eq!(m.registry.jobs.len(), 2);
    }

    #[test]
    fn admit_respects_npool() {
        let mut m = test_master(10, 1_000);
        m.cfg.n_pool = 3;
        let (_h, _rx) = m.submit(JobSpec::random_forest(TASK, 10));
        m.admit_trees();
        assert_eq!(m.registry.active.len(), 3, "pool capped at 3");
        assert_eq!(m.registry.queue.len(), 7);
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
        let m = test_master(10, 100);
        match m.placeholder_pred() {
            Prediction::Class { pmf, .. } => assert_eq!(pmf.len(), 2),
            Prediction::Real(_) => panic!("classification master"),
        }
    }

    /// A 1 ms heartbeat interval, a threshold of 3 and a crash injected at
    /// the first delegation: the crash is suspected 3 ms after it. Times
    /// are `now` arguments, not sleeps, so the verdict is deterministic no
    /// matter how loaded the test host is.
    fn short_silence(n_workers: usize) -> ClusterConfig {
        ClusterConfig {
            n_workers,
            heartbeat_interval: Duration::from_millis(1),
            heartbeat_miss_threshold: 3,
            faults: Some(FaultPlan::new(0).with_crash_at_delegation(1)),
            ..ClusterConfig::default()
        }
    }

    /// 10 ms: well past a `short_silence`.
    const LATER: u64 = 10_000_000;

    #[test]
    fn without_an_injected_crash_nobody_is_suspected() {
        let cfg = ClusterConfig {
            faults: None,
            ..short_silence(2)
        };
        let mut m = master_of(cfg, 10, 4);
        m.note_delegation(0, 1);
        m.step(LATER, None);
        assert_eq!(m.live_workers(), [1, 2]);
        assert!(m.degraded.is_none());
        assert!(m.out.is_empty());
    }

    #[test]
    fn silent_worker_is_suspected_and_impossible_recovery_degrades_cleanly() {
        let mut m = master_of(short_silence(2), 1_000, 4);
        let (_h, rx) = m.submit(JobSpec::decision_tree(TASK));
        // The crash trigger silences worker 1; its suspicion is due at 3 ms.
        m.note_delegation(0, 1);
        m.step(LATER, None);
        // 2 workers at replication 2: every live worker already holds the
        // dead worker's columns, so no re-replication target exists and the
        // job must fail with the structured reason rather than panic.
        assert!(!m.live_workers().contains(&1), "worker 1 declared dead");
        inboxes(&mut m);
        let res = result_of(&rx).expect("failure notification");
        assert!(
            matches!(
                res,
                JobResult::Failed(RecoveryError::NoReplicationTarget { .. })
            ),
            "unexpected result: {res:?}"
        );
        assert!(m.degraded_reason().is_some());
        // Later submissions fail at once with the same reason.
        let (_h2, rx2) = m.submit(JobSpec::decision_tree(TASK));
        inboxes(&mut m);
        assert!(matches!(result_of(&rx2), Some(JobResult::Failed(_))));
    }

    /// A job that expands to no trees has nothing that could complete it:
    /// up to commit 1a63857 it was registered with `total: 0` and its
    /// client waited forever. It is refused at submit, and the master goes
    /// on to dispatch the next job.
    #[test]
    fn a_job_of_no_trees_is_refused_at_submit() {
        let mut m = master_of(three_workers(), 150, 4);
        let (_h, rx) = m.submit(JobSpec::random_forest(TASK, 0));
        inboxes(&mut m);
        let res = result_of(&rx).expect("the job is answered at once");
        assert!(
            matches!(res, JobResult::Failed(RecoveryError::NoTrees)),
            "unexpected result: {res:?}"
        );
        assert!(m.degraded_reason().is_none(), "the cluster stays healthy");
        let (_h, _rx) = m.submit(JobSpec::decision_tree(TASK));
        m.pump(0);
        assert!(!plans_in(&inboxes(&mut m)).is_empty(), "the next job runs");
    }

    #[test]
    fn suspected_worker_is_fenced_with_a_shutdown() {
        // "Dead" is a verdict: the master cannot tell a silenced worker
        // from a slow one, so the suspect must be told to stop, or it runs
        // on past `Cluster::shutdown` — which notifies the roster it is no
        // longer on — and is joined forever.
        let mut m = master_of(short_silence(3), 1_000, 4);
        m.note_delegation(0, 3);
        inboxes(&mut m); // the injection's own `Shutdown`
        m.step(LATER, None); // an idle tick fires the timer
        assert_eq!(m.live_workers(), [1, 2], "worker 3 declared dead");
        assert!(m.degraded_reason().is_none(), "its columns had replicas");
        assert!(matches!(inboxes(&mut m)[3].last(), Some(TaskMsg::Shutdown)));
    }

    #[test]
    fn the_suspicion_timer_fires_at_its_time_and_not_before() {
        let t0 = 1_000;
        let at = t0 + 3_000_000;
        let mut m = master_of(short_silence(3), 1_000, 4);
        m.note_delegation(t0, 3);
        inboxes(&mut m);
        m.step(at - 1, None);
        assert_eq!(m.live_workers(), [1, 2, 3]);
        assert!(m.out.is_empty(), "nobody suspected before the timer's time");

        m.step(at, None);
        assert_eq!(m.live_workers(), [1, 2]);
        assert!(matches!(inboxes(&mut m)[3][..], [TaskMsg::Shutdown]));

        // It fires once: the next step has nothing to declare.
        m.step(at + 1, None);
        assert!(m.out.is_empty());
    }

    #[test]
    fn a_suspicion_past_the_end_of_time_saturates() {
        let cfg = ClusterConfig {
            heartbeat_interval: Duration::MAX / 2,
            heartbeat_miss_threshold: u32::MAX,
            ..short_silence(3)
        };
        let mut m = master_of(cfg, 1_000, 4);
        m.note_delegation(LATER, 3);
        assert_eq!(m.suspicion, Some((u64::MAX, 3)));
        m.step(u64::MAX - 1, None);
        assert_eq!(m.live_workers(), [1, 2, 3]);
    }

    #[test]
    fn a_slow_delivery_suspects_nobody() {
        // Every frame costs its sender 10 ms on the wire, more than a
        // `short_silence`: the turn that sends the root shards reads no
        // frame meanwhile, and the next turn still suspects nobody.
        let cfg = ClusterConfig {
            faults: None,
            ..short_silence(3)
        };
        let m = master_of(cfg, 1_000, 4);
        let n = m.cfg.total_worker_slots() + 1;
        let link = NetModel::slow(f64::INFINITY, Duration::from_millis(10));
        let clock = SimClock::virtual_at(0);
        let (fabric, rxs) = Fabric::new_faulty(n, link, NetStats::new(n), None, clock);
        let shared = Mutex::new(m);
        let job = JobSpec::decision_tree(TASK);
        let (_h, _done) = Master::call(&shared, &fabric, |m| m.submit(job));
        let loop_back = inbox(&rxs[0]).into_iter().next();
        turn(&shared, &fabric, loop_back);
        let took = fabric.clock().now_ns();
        assert!(took >= 10_000_000, "the shards took {took} ns");
        turn(&shared, &fabric, None);
        assert_eq!(shared.lock().live_workers(), [1, 2, 3]);
    }

    #[test]
    fn stolen_plan_sends_donate_to_the_thief_before_any_plan_traffic() {
        // Three workers. A child plan parked on worker 1's deque is stolen
        // by hungry worker 2; the thief's first frame must be the Donate
        // carrying the stolen task.
        let cfg = ClusterConfig {
            n_workers: 3,
            ..ClusterConfig::default()
        };
        let mut m = master_of(cfg, 1_000, 4);
        let (_h, _rx) = m.submit(JobSpec::decision_tree(TASK));
        m.admit_trees();
        // Drain the root from the global deque: nobody is hungry yet, so
        // this is a plain pop, not a steal.
        let (root, steal) = m.plans.try_next(&m.mwork).expect("root plan queued");
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
        m.step(0, Some(TaskMsg::StealRequest { worker: 2 }));
        let (stolen, steal) = m.plans.try_next(&m.mwork).expect("stolen child");
        assert_eq!(stolen.task, TaskId(99));
        assert_eq!(
            steal,
            Some(StealInfo {
                victim: 1,
                thief: 2
            })
        );
        m.assign_plan(0, stolen, steal);
        match inboxes(&mut m)[2].first() {
            Some(TaskMsg::Donate { task, victim, .. }) => {
                assert_eq!(*task, TaskId(99));
                assert_eq!(*victim, 1);
            }
            other => panic!("thief's first frame was {other:?}, not Donate"),
        }
    }

    #[test]
    fn dispatch_window_is_two_plans_per_comper_plus_two() {
        // Two plans per comper plus two in flight per worker; the next one
        // waits in the master's backlog.
        let mut m = test_master(1_000, 100);
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
            assert!(m.plans.try_next(&m.mwork).is_some(), "inside the window");
            m.plans.note_dispatched(&[1]);
        }
        assert!(m.plans.try_next(&m.mwork).is_none(), "window full");
        m.plans.note_completed(1);
        assert!(m.plans.try_next(&m.mwork).is_some(), "a result reopens it");
    }

    /// One worker with one comper (a window of 4 plans), and a six-tree
    /// forest of one-shard column tasks to submit to it.
    fn one_narrow_worker() -> (Master, JobSpec) {
        let cfg = ClusterConfig {
            n_workers: 1,
            compers_per_worker: 1,
            replication: 1,
            tau_d: 100,
            ..ClusterConfig::default()
        };
        (master_of(cfg, 1_000, 4), JobSpec::random_forest(TASK, 6))
    }

    #[test]
    fn a_submit_call_is_dispatched_by_the_step_it_posts() {
        // Nothing waits on the queue, so nothing is signalled: the call
        // leaves a frame in the master's own mailbox, and the turn that
        // frame starts dispatches the root plans, up to the window.
        let (m, forest) = one_narrow_worker();
        let (fabric, rxs) = fabric_for(&m);
        let shared = Mutex::new(m);
        let (_h, _rx) = Master::call(&shared, &fabric, |m| m.submit(forest));
        let mut posted = inbox(&rxs[0]);
        assert!(matches!(posted[..], [TaskMsg::Wake]));
        turn(&shared, &fabric, Some(posted.remove(0)));
        let sent = plans_in(&[Vec::new(), inbox(&rxs[1])]);
        assert_eq!(sent.len(), 4, "a full window of root plans went out");
        assert_eq!(shared.lock().plans.len(), 2, "the rest is backlog");
    }

    #[test]
    fn a_calls_frames_go_out_ahead_of_those_of_the_step_its_loop_back_starts() {
        // A submit and a drain of worker 3, each through `call`. Neither
        // delivers anything: the drain's handoffs and its `Drain` wait in
        // the outbox, and the first turn sends them ahead of the root
        // shards its pump dispatches — to worker 1 and 2 both, since each
        // is the source of one handoff and holds one shard.
        let m = master_of(three_workers(), 150, 4);
        let (fabric, rxs) = fabric_for(&m);
        let shared = Mutex::new(m);
        let job = JobSpec::decision_tree(TASK);
        let (_h, _done) = Master::call(&shared, &fabric, |m| m.submit(job));
        let grace = Duration::from_secs(30);
        Master::call(&shared, &fabric, |m| m.begin_drain(0, 3, grace));
        assert!(rxs[1..].iter().all(|rx| inbox(rx).is_empty()));
        let loop_back = inbox(&rxs[0]).into_iter().next();
        assert!(matches!(loop_back, Some(TaskMsg::Wake)));
        turn(&shared, &fabric, loop_back);
        let frames: Vec<_> = rxs.iter().map(inbox).collect();
        assert!(matches!(frames[3][..], [TaskMsg::Drain]), "{:?}", frames[3]);
        for w in [1, 2] {
            assert!(
                matches!(
                    frames[w][..],
                    [TaskMsg::ReplicateTo { .. }, TaskMsg::ColumnPlan(_)]
                ),
                "worker {w} got {:?}",
                frames[w]
            );
        }
    }

    #[test]
    fn a_result_that_frees_a_full_window_dispatches_the_backlog_in_the_same_step() {
        let (mut m, forest) = one_narrow_worker();
        let (_h, _rx) = m.submit(forest);
        m.pump(0);
        let sent = plans_in(&inboxes(&mut m));
        let leaf = column_result(sent[0].1, 1, None, stats(500, 500));
        deliver(&mut m, leaf);
        let frames = inboxes(&mut m).remove(1);
        assert!(matches!(frames[0], TaskMsg::DropTask { task } if task == sent[0].1));
        assert_eq!(
            plans_in(&[Vec::new(), frames]).len(),
            1,
            "one slot, one plan"
        );
        assert_eq!(m.plans.len(), 1);
    }

    #[test]
    fn a_jobs_result_follows_the_frames_of_the_step_that_finished_it() {
        // The last shard of the root reports a split into two pure children:
        // the tree and the job finish in that step. The client's result
        // comes out after the step's ConfirmBest, DropTasks and quotas, so a
        // client back from `wait` finds every frame of its job sent.
        let mut m = master_of(three_workers(), 150, 4);
        let (_h, _done) = m.submit(JobSpec::decision_tree(TASK));
        m.pump(0);
        let shards = plans_in(&inboxes(&mut m));
        let (winner, root) = shards[0];
        for &(w, _) in &shards[1..] {
            deliver(&mut m, column_result(root, w, None, stats(75, 75)));
        }
        assert!(m.out.is_empty(), "nothing goes out before the last shard");
        let best = split(0, 0.5, stats(75, 0), stats(0, 75));
        deliver(&mut m, column_result(root, winner, best, stats(75, 75)));
        let order: Vec<&str> = (m.out.iter())
            .map(|e| match e {
                Post::Task(_, TaskMsg::ConfirmBest { .. }) => "confirm",
                Post::Task(_, TaskMsg::DropTask { .. }) => "drop",
                Post::Task(_, TaskMsg::ServeQuota { .. }) => "quota",
                Post::Task(..) => "other",
                Post::Notify(_, JobResult::Tree(_)) => "tree",
                Post::Notify(..) => "other result",
                _ => unreachable!("the master posts task frames and results only"),
            })
            .collect();
        let drops = vec!["drop"; shards.len() - 1];
        let expect = [&["confirm"][..], &drops, &["quota", "quota", "tree"]].concat();
        assert_eq!(order, expect);
    }

    #[test]
    fn duplicate_crash_declarations_are_ignored() {
        let mut m = test_master(10, 100);
        // First declaration fails recovery (no replication target) and
        // degrades; the second must be a no-op, not a second degradation.
        m.recover_or_degrade(1);
        let first = m.degraded_reason();
        assert!(first.is_some());
        m.recover_or_degrade(1);
        m.recover_or_degrade(2);
        assert_eq!(m.degraded_reason(), first);
    }

    #[test]
    fn crash_re_replication_sends_each_column_to_the_target_chosen_for_it() {
        // Eight workers, replication 2, sixteen columns round-robin: worker
        // 3 holds columns 1 and 9 (with worker 2) and 2 and 10 (with
        // worker 4). Every survivor holds four columns, so the planner
        // tops up the least loaded non-holder each time — workers 1, 2, 4
        // and 5 — and each pair gets its own `ReplicateTo`, in pair order.
        // Keyed by source alone, 9 and 10 would follow 1 and 2 to workers
        // 1 and 2 (six columns each, workers 4 and 5 still four).
        let cfg = ClusterConfig {
            n_workers: 8,
            replication: 2,
            ..ClusterConfig::default()
        };
        let mut m = master_of(cfg, 1_000, 16);
        m.recover_or_degrade(3);
        assert!(m.degraded_reason().is_none());
        let transfers: Vec<(NodeId, NodeId, Vec<usize>)> = (m.out.iter())
            .filter_map(|e| match e {
                Post::Task(src, TaskMsg::ReplicateTo { attrs, to, .. }) => {
                    Some((*src, *to, attrs.clone()))
                }
                _ => None,
            })
            .collect();
        let expect = [
            (2, 1, vec![1]),
            (2, 4, vec![9]),
            (4, 2, vec![2]),
            (4, 5, vec![10]),
        ];
        assert_eq!(transfers, expect);
    }

    #[test]
    fn a_drain_is_fenced_and_recovered_at_its_deadline_not_before() {
        // A drain of a worker that holds a root shard: its in-flight task
        // keeps it from departing, so only the grace window decides.
        let grace = Duration::from_millis(10);
        let deadline = grace.as_nanos() as u64;
        let drained_until = |at: u64| {
            let mut m = master_of(three_workers(), 150, 4);
            let (_h, _done) = m.submit(JobSpec::decision_tree(TASK));
            m.pump(0);
            let (leaver, _) = *plans_in(&inboxes(&mut m)).last().expect("root shards");
            m.begin_drain(0, leaver, grace);
            inboxes(&mut m);
            m.step(at, None);
            m.pump(at);
            (m, leaver)
        };

        let (m, leaver) = drained_until(deadline - 1);
        assert!(m.is_draining(leaver), "still inside its grace window");
        assert!(m.out.is_empty(), "nothing fenced, revoked or restarted");

        let (mut m, leaver) = drained_until(deadline);
        assert!(!m.is_draining(leaver));
        assert!(!m.live_workers().contains(&leaver));
        assert!(m.degraded_reason().is_none(), "every column had a survivor");
        let frames = inboxes(&mut m);
        assert!(matches!(frames[leaver][..], [TaskMsg::Shutdown]), "fenced");
        for &w in m.live_workers() {
            assert!(matches!(frames[w][0], TaskMsg::RevokeTree { .. }), "{w}");
        }
        let restarted = plans_in(&frames);
        assert!(!restarted.is_empty(), "the tree starts over");
        assert!(restarted.iter().all(|&(w, _)| w != leaver));
    }

    #[test]
    fn a_draining_worker_that_reports_worker_lost_is_escalated_before_its_deadline() {
        // As above, but one of the leaver's threads dies 1 ns into a 10 ms
        // grace window: it is recovered then, as the expired drain is.
        let mut m = master_of(three_workers(), 150, 4);
        let (_h, _done) = m.submit(JobSpec::decision_tree(TASK));
        m.pump(0);
        let (leaver, _) = *plans_in(&inboxes(&mut m)).last().expect("root shards");
        m.begin_drain(0, leaver, Duration::from_millis(10));
        inboxes(&mut m);
        let lost = TaskMsg::WorkerLost { worker: leaver };
        m.step(1, Some(lost));
        m.pump(1);
        assert!(!m.is_draining(leaver));
        assert!(!m.live_workers().contains(&leaver));
        assert!(m.degraded_reason().is_none(), "every column had a survivor");
        let frames = inboxes(&mut m);
        assert!(matches!(frames[leaver][..], [TaskMsg::Shutdown]), "fenced");
        for &w in m.live_workers() {
            assert!(matches!(frames[w][0], TaskMsg::RevokeTree { .. }), "{w}");
        }
        let restarted = plans_in(&frames);
        assert!(!restarted.is_empty(), "the tree starts over");
        assert!(restarted.iter().all(|&(w, _)| w != leaver));
    }

    // ------------------------------------------------------------------
    // Composed scenarios: several handlers in sequence, no threads.
    // ------------------------------------------------------------------

    #[test]
    fn a_draining_winner_cannot_depart_while_its_children_need_ix() {
        let mut m = master_of(three_workers(), 150, 4);
        let (_h, done) = m.submit(JobSpec::decision_tree(TASK));
        m.pump(0);
        let shards = plans_in(&inboxes(&mut m));
        let (leaver, root) = *shards.last().expect("the root went out as a column task");
        m.begin_drain(0, leaver, Duration::from_secs(30));

        // The leaver's shard reports last and wins. The handler takes the
        // root out of the task table and queues both children, parented to
        // the leaver, before it returns: there is no moment when neither
        // the table nor the queue names it.
        for &(w, _) in shards.iter().filter(|&&(w, _)| w != leaver) {
            deliver(&mut m, column_result(root, w, None, stats(75, 75)));
        }
        let best = split(0, 0.3, stats(50, 40), stats(25, 35));
        m.step(0, Some(column_result(root, leaver, best, stats(75, 75))));
        m.step(0, Some(TaskMsg::Goodbye { worker: leaver }));
        assert!(m.ttask.is_empty());
        assert_eq!(m.plans.len(), 2);
        m.pump(0); // the gate reads the queue, then the children dispatch
        assert!(m.is_draining(leaver), "its children still need Ix from it");
        let frames = inboxes(&mut m);
        assert!(
            matches!(
                frames[leaver][..],
                [
                    TaskMsg::Drain,
                    TaskMsg::ConfirmBest { .. },
                    TaskMsg::ServeQuota { .. },
                    TaskMsg::ServeQuota { .. }
                ]
            ),
            "Drain, then Confirm before quota; got {:?}",
            frames[leaver]
        );

        // Both children fold; only then is the leaver released.
        let children = plans_in(&frames);
        assert_eq!(children.len(), 2);
        deliver(&mut m, subtree_result(children[0].1, children[0].0));
        assert!(m.is_draining(leaver), "one child is still in flight");
        deliver(&mut m, subtree_result(children[1].1, children[1].0));
        assert!(!m.is_draining(leaver));
        assert!(matches!(inboxes(&mut m)[leaver][..], [TaskMsg::Shutdown]));
        assert!(matches!(result_of(&done), Some(JobResult::Tree(_))));
    }

    #[test]
    fn draining_the_elected_worker_waits_for_its_hist_best() {
        let cfg = ClusterConfig {
            splitter: crate::config::Splitter::Histogram {
                bins: 32,
                vote_k: 2,
            },
            ..three_workers()
        };
        let mut m = master_of(cfg, 150, 4);
        let (_h, done) = m.submit(JobSpec::decision_tree(TASK));
        m.pump(0);
        let shards = plans_in(&inboxes(&mut m));
        let (elected, root) = *shards.last().expect("the root went out as a column task");
        for &(worker, task) in &shards {
            let gain = if worker == elected { 0.4 } else { 0.1 };
            let msg = TaskMsg::HistNominate {
                task,
                worker,
                cands: vec![(worker, gain)],
                node_stats: Some(stats(75, 75)),
                ctx: TraceCtx::NONE,
            };
            deliver(&mut m, msg);
        }
        let fetch = inboxes(&mut m).remove(elected);
        assert!(matches!(fetch[..], [TaskMsg::HistFetch { attr, .. }] if attr == elected));

        // The preemption lands between the fetch and its answer. The task
        // is still in the table and touches the leaver: the gate holds.
        m.begin_drain(0, elected, Duration::from_secs(30));
        deliver(&mut m, TaskMsg::Goodbye { worker: elected });
        assert!(m.is_draining(elected), "a fetch is outstanding to it");

        // The answer folds (both children pure: the tree is done) and the
        // same step's pump releases the leaver.
        let msg = TaskMsg::HistBest {
            task: root,
            worker: elected,
            best: split(elected, 0.4, stats(75, 0), stats(0, 75)),
            ctx: TraceCtx::NONE,
        };
        deliver(&mut m, msg);
        assert!(!m.is_draining(elected));
        assert!(matches!(
            inboxes(&mut m)[elected].last(),
            Some(TaskMsg::Shutdown)
        ));
        assert!(matches!(result_of(&done), Some(JobResult::Tree(_))));
    }

    #[test]
    fn stale_results_of_a_revoked_task_change_nothing() {
        let mut m = master_of(three_workers(), 150, 4);
        let (_h, _done) = m.submit(JobSpec::decision_tree(TASK));
        m.pump(0);
        let (_, stale) = plans_in(&inboxes(&mut m))[0];
        // Worker 3 crashes: the tree is revoked and restarted under fresh
        // ids, and the queue's in-flight counts start over.
        m.recover_or_degrade(3);
        m.pump(0);
        let in_flight = |m: &Master| [1, 2].map(|w| m.plans.outstanding_of(w));
        let before = (in_flight(&m), m.ttask.len(), m.plans.len());
        assert_eq!(
            before.0.iter().sum::<u64>(),
            2,
            "the restarted root: 2 shards"
        );
        inboxes(&mut m);

        let best = split(0, 0.3, stats(50, 40), stats(25, 35));
        deliver(&mut m, column_result(stale, 1, best.clone(), stats(75, 75)));
        let msg = TaskMsg::HistBest {
            task: stale,
            worker: 2,
            best,
            ctx: TraceCtx::NONE,
        };
        deliver(&mut m, msg);
        assert_eq!((in_flight(&m), m.ttask.len(), m.plans.len()), before);
        assert!(!m.ttask.contains_key(&stale));
        assert!(m.out.is_empty(), "and sends nothing");
    }

    const HOUR: u64 = 3_600_000_000_000;

    /// `three_workers`, and a fault plan that scripts a join of `n` spares
    /// `at` ns into the run.
    fn joining(n: usize, at: u64) -> ClusterConfig {
        let plan = FaultPlan::new(0).with_worker_join(Duration::from_nanos(at), n);
        ClusterConfig {
            faults: Some(plan),
            ..three_workers()
        }
    }

    #[test]
    fn admitting_a_member_or_a_draining_node_is_a_no_op() {
        let mut m = master_of(joining(1, HOUR), 150, 4);
        m.admit(4);
        assert_eq!(m.live_workers(), [1, 2, 3, 4]);
        let migrations = m.migrations.len();
        assert!(migrations > 0, "the joiner is owed its share of columns");
        inboxes(&mut m);

        // A second admission: no second migration.
        m.admit(4);
        assert_eq!(m.live_workers(), [1, 2, 3, 4]);
        assert_eq!(m.migrations.len(), migrations);
        assert!(m.out.is_empty());

        // A leaver cannot be admitted back onto the roster.
        m.begin_drain(0, 2, Duration::from_secs(30));
        inboxes(&mut m);
        m.admit(2);
        assert_eq!(m.live_workers(), [1, 3, 4]);
        assert!(m.is_draining(2));
        assert!(m.out.is_empty());
    }

    #[test]
    fn a_scripted_join_admits_its_spares_at_its_time_and_once() {
        let at = 5_000_000;
        let mut m = master_of(joining(2, at), 150, 12);
        m.step(at - 1, None);
        assert_eq!(m.live_workers(), [1, 2, 3]);
        assert!(m.out.is_empty(), "nobody admitted before the join's time");
        assert_eq!(m.label_targets(), [1, 2, 3, 4, 5], "spares get labels");

        m.step(at, None);
        assert_eq!(m.live_workers(), [1, 2, 3, 4, 5]);
        let mut joiners: Vec<NodeId> = (m.out.iter())
            .filter_map(|e| match e {
                Post::Task(_, TaskMsg::ReplicateTo { to, .. }) => Some(*to),
                _ => None,
            })
            .collect();
        joiners.dedup();
        assert_eq!(joiners, [4, 5], "both migrations started, in id order");

        // Spare 5 is declared dead. A join that fired again would admit it
        // back.
        m.recover_or_degrade(5);
        inboxes(&mut m);
        m.step(at + 1, None);
        assert_eq!(m.live_workers(), [1, 2, 3, 4]);
        assert!(m.out.is_empty());
        assert_eq!(m.label_targets(), [1, 2, 3, 4]);
    }

    #[test]
    fn a_scripted_preemption_drains_its_victim_at_its_time_not_before() {
        let at = 5_000_000;
        let plan =
            FaultPlan::new(0).with_preemption(Duration::from_nanos(at), 2, Duration::from_secs(30));
        let cfg = ClusterConfig {
            faults: Some(plan),
            ..three_workers()
        };
        let mut m = master_of(cfg, 150, 4);
        m.step(at - 1, None);
        assert!(!m.is_draining(2));
        assert!(m.out.is_empty());

        m.step(at, None);
        assert!(m.is_draining(2));
        assert_eq!(m.live_workers(), [1, 3]);
        assert!(matches!(inboxes(&mut m)[2].last(), Some(TaskMsg::Drain)));
    }

    #[test]
    fn shutdown_stops_every_slot_the_launch_spawned() {
        // Replication 1: losing worker 1 loses its columns for good, and the
        // degraded cluster refuses the join of spare 4 when it fires.
        let cfg = ClusterConfig {
            replication: 1,
            ..joining(1, 5)
        };
        let mut m = master_of(cfg, 150, 4);
        m.recover_or_degrade(1);
        assert!(m.degraded_reason().is_some());
        m.step(5, None);
        assert_eq!(m.live_workers(), [2, 3], "the join was refused");
        inboxes(&mut m);

        // Fenced worker 1, roster 2 and 3, spare 4, and the master itself.
        m.shutdown();
        for (w, frames) in inboxes(&mut m).iter().enumerate() {
            assert!(matches!(frames[..], [TaskMsg::Shutdown]), "{w}: {frames:?}");
        }
    }

    #[test]
    fn a_grace_window_past_the_end_of_time_saturates() {
        // 18 446 744 074 s is 2^64 ns + 290 448 384 ns: truncated, the
        // deadline would fall 0.29 s after the drain began.
        let mut m = master_of(three_workers(), 150, 4);
        m.begin_drain(0, 3, Duration::from_secs(18_446_744_074));
        inboxes(&mut m);
        m.step(1_000_000_000, None);
        assert!(m.is_draining(3), "still inside its grace window");
        assert!(m.out.is_empty(), "fenced by nothing");
    }

    #[test]
    fn kill_fences_the_victim_once() {
        let shutdowns = |frames: &[TaskMsg]| {
            (frames.iter())
                .filter(|f| matches!(f, TaskMsg::Shutdown))
                .count()
        };
        // On the roster: recovery's fence is the one.
        let mut m = master_of(three_workers(), 150, 4);
        inboxes(&mut m);
        m.kill(2);
        assert!(!m.live_workers().contains(&2));
        assert_eq!(shutdowns(&inboxes(&mut m)[2]), 1);
        // Declared dead before, and fenced then: the kill stops it again,
        // once, and recovery does not run a second time.
        m.kill(2);
        let frames = inboxes(&mut m);
        assert_eq!(shutdowns(&frames[2]), 1);
        assert!(frames
            .iter()
            .enumerate()
            .all(|(w, f)| w == 2 || f.is_empty()));
        // A degraded cluster recovers nobody: the kill's own `Shutdown`.
        let cfg = ClusterConfig {
            replication: 1,
            ..three_workers()
        };
        let mut m = master_of(cfg, 150, 4);
        m.recover_or_degrade(1);
        assert!(m.degraded_reason().is_some());
        inboxes(&mut m);
        m.kill(3);
        assert_eq!(shutdowns(&inboxes(&mut m)[3]), 1);
    }

    #[test]
    fn relabel_and_kill_calls_leave_their_frames_in_call_order() {
        // A join not fired yet: its spares 4 and 5 get the labels too.
        let mut m = master_of(joining(2, HOUR), 150, 4);
        m.relabel(TASK, Arc::new(Labels::Class(vec![0; 150])));
        let (_h, _done) = m.submit(JobSpec::decision_tree(TASK));
        m.pump(0);
        // `(to, is a LoadLabels)` of every label and plan frame, in order.
        let kinds: Vec<(NodeId, bool)> = (m.out.iter())
            .filter_map(|post| match post {
                Post::Task(to, TaskMsg::LoadLabels { .. }) => Some((*to, true)),
                Post::Task(to, TaskMsg::ColumnPlan(_) | TaskMsg::SubtreePlan(_)) => {
                    Some((*to, false))
                }
                _ => None,
            })
            .collect();
        let loads: Vec<NodeId> = (kinds.iter())
            .take_while(|&&(_, load)| load)
            .map(|&(to, _)| to)
            .collect();
        assert_eq!(loads, [1, 2, 3, 4, 5], "one LoadLabels per target, first");
        assert!(kinds.len() > loads.len(), "the job was dispatched");
        assert!(kinds[loads.len()..].iter().all(|&(_, load)| !load));
        inboxes(&mut m);

        // The victim is stopped before recovery revokes and re-replicates.
        m.kill(2);
        assert!(!m.live_workers().contains(&2));
        assert!(matches!(m.out[0], Post::Task(2, TaskMsg::Shutdown)));
        let rest = &m.out[1..];
        assert!(rest
            .iter()
            .any(|p| matches!(p, Post::Task(_, TaskMsg::RevokeTree { .. }))));
        assert!(rest
            .iter()
            .any(|p| matches!(p, Post::Task(_, TaskMsg::ReplicateTo { .. }))));
    }
}
