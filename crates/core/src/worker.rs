//! The worker machine: task/data event loops, the comper pool, column
//! storage, and the §V delegate-worker machinery.
//!
//! Each worker runs (paper §IV, Fig. 7 / Fig. 14(b)):
//!
//! - a **task-loop** thread (the paper's worker `θ_main`) receiving plans
//!   and control messages from the master,
//! - a **data-loop** thread (`θ_recv`) receiving/serving worker↔worker data:
//!   `Ix` requests against its delegate table, column requests against its
//!   column store, and responses that complete its own pending tasks, and
//! - a pool of **compers** pulling ready tasks from `Btask` and sending
//!   results straight to the master.
//!
//! A column-task's row set `Ix` survives the result send in the *awaiting
//! verdict* table; when the master confirms this worker's split as the
//! overall best (`ConfirmBest`), the worker becomes the task's **delegate**:
//! it partitions `Ix` with its locally-held winning column and serves the
//! halves to the child tasks' workers, freeing them when the master-announced
//! quotas are met. `Ix` requests that race ahead of `ConfirmBest` are parked
//! and replayed.
//!
//! Lock discipline: the state mutex is never held across a fabric send
//! (sends sleep under the link model).

use crate::ids::{ParentRef, RowSet, Side, TaskId, TreeId};
use crate::messages::{ColumnPlan, ColumnTaskBest, DataMsg, HistPlanConf, SubtreePlan, TaskMsg};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ts_datatable::{AttrType, BinnedColumn, Column, Labels, SortedColumn, Task, ValuesBuf};
use ts_netsim::{BusyGuard, Fabric, FabricReceiver, NetStats, NodeId};
use ts_obs::TraceCtx;
use ts_splits::exact::{ColumnSplit, SplitCandidate};
use ts_splits::hist::{best_hist_split_at, top_k_candidates, HistCandidate, HistColumnRef};
use ts_splits::impurity::Impurity;
use ts_splits::impurity::{LabelView, NodeStats};
use ts_splits::random::random_split_for_column;
use ts_splits::sorted::{best_split_at, distinct_categories_at, ColumnRef, NodeRows};
use ts_splits::{partition_rows, SplitTest};
use ts_tree::{train_subtree, LocalDataset, TrainMode, TrainParams};
use tschan::sync::{Mutex, RwLock};
use tschan::{Receiver, Sender};
use tsrand::rngs::StdRng;
use tsrand::seq::SliceRandom;
use tsrand::SeedableRng;

/// Accounted bytes of a row set (the implicit root range costs nothing).
fn ix_bytes(ix: &RowSet) -> usize {
    match ix {
        RowSet::All => 0,
        RowSet::Ids(v) => v.len() * 4,
    }
}

/// A task whose data is complete, ready for a comper.
enum ReadyTask {
    Column {
        plan: ColumnPlan,
        ix: RowSet,
    },
    Subtree {
        plan: SubtreePlan,
        ix: RowSet,
        /// Buffers received from remote holders, keyed by attribute.
        remote_bufs: HashMap<usize, ValuesBuf>,
    },
    Stop,
}

/// A task parked in the worker's task table waiting for data.
enum PendingTask {
    /// Column-task waiting for `Ix`.
    Column { plan: ColumnPlan },
    /// Subtree-task (on its key worker) waiting for `Ix` and/or columns.
    Subtree {
        plan: SubtreePlan,
        ix: Option<RowSet>,
        remote_bufs: HashMap<usize, ValuesBuf>,
        remote_needed: usize,
    },
    /// A `ReqCols` we must serve once we learn `Ix`.
    Serve {
        tree: TreeId,
        attrs: Vec<usize>,
        key_worker: NodeId,
        /// Trace context of the subtree task being provisioned; echoed on
        /// the eventual `RespCols` so the transfer stays attributed.
        ctx: TraceCtx,
    },
}

impl PendingTask {
    fn tree(&self) -> TreeId {
        match self {
            PendingTask::Column { plan } => plan.tree,
            PendingTask::Subtree { plan, .. } => plan.tree,
            PendingTask::Serve { tree, .. } => *tree,
        }
    }
}

/// A computed column-task whose `Ix` (and winning condition) must survive
/// until the master's verdict.
struct AwaitingVerdict {
    tree: TreeId,
    ix: RowSet,
    /// The task's impurity criterion, kept so a histogram `HistFetch`
    /// recount after the plan is gone uses the same criterion bit for bit.
    imp: Impurity,
    winning: Option<(usize, SplitTest, bool)>,
}

/// Delegate-worker state for one confirmed task (paper §V).
struct DelegateEntry {
    tree: TreeId,
    sides: [Option<Vec<u32>>; 2],
    quota: [Option<u32>; 2],
    served: [u32; 2],
}

impl DelegateEntry {
    fn side_idx(side: Side) -> usize {
        match side {
            Side::Left => 0,
            Side::Right => 1,
        }
    }

    /// Drops side buffers whose quota is known and fully served; returns the
    /// freed byte count.
    fn release_satisfied(&mut self) -> usize {
        let mut freed = 0;
        for i in 0..2 {
            if let Some(q) = self.quota[i] {
                if self.served[i] >= q {
                    if let Some(v) = self.sides[i].take() {
                        freed += v.len() * 4;
                    }
                }
            }
        }
        freed
    }

    fn done(&self) -> bool {
        self.quota.iter().all(Option::is_some) && self.sides.iter().all(Option::is_none)
    }
}

/// One parked `Ix` request: everything needed to replay it after
/// `ConfirmBest`, including the `TraceCtx` that keeps the response
/// attributed to the requesting task's span.
type ParkedIxReq = (TreeId, Side, NodeId, TaskId, TraceCtx);

struct WorkerState {
    tasks: HashMap<TaskId, PendingTask>,
    awaiting: HashMap<TaskId, AwaitingVerdict>,
    delegates: HashMap<TaskId, DelegateEntry>,
    /// `Ix` requests that arrived before `ConfirmBest`, keyed by parent
    /// task.
    parked: HashMap<TaskId, Vec<ParkedIxReq>>,
    /// Trees revoked by fault recovery: results for them are suppressed.
    revoked: HashSet<TreeId>,
}

/// One worker machine.
pub struct Worker {
    id: NodeId,
    work_ns_per_unit: u64,
    n_rows: usize,
    task: Task,
    labels: RwLock<Arc<Labels>>,
    attr_types: Arc<Vec<AttrType>>,
    columns: RwLock<HashMap<usize, Arc<Column>>>,
    /// Presorted index per held column, built once when the column arrives
    /// (load or replication) and shared by every column-task over it.
    sorted: RwLock<HashMap<usize, Arc<SortedColumn>>>,
    /// Quantized bin index per held *numeric* column (`--splitter hist`),
    /// built alongside the sorted index; absent in exact mode.
    binned: RwLock<HashMap<usize, Arc<BinnedColumn>>>,
    /// Bin budget for histogram mode; `None` disables bin-index building.
    hist_bins: Option<usize>,
    state: Mutex<WorkerState>,
    ready_tx: Sender<ReadyTask>,
    fabric_task: Fabric<TaskMsg>,
    fabric_data: Fabric<DataMsg>,
    stats: Arc<NetStats>,
    /// Cleared on `Shutdown`; stops the heartbeat thread, so a silenced
    /// worker also goes silent on the liveness plane.
    alive: AtomicBool,
    /// Ready tasks enqueued for the comper pool minus tasks picked up —
    /// the signal for "my compute backlog ran dry". Signed because the
    /// comper-side decrement can observe the send before the increment.
    ready_backlog: AtomicI64,
    /// One outstanding `StealRequest` at a time; cleared when the master
    /// answers with any plan or an explicit `Donate`.
    steal_outstanding: AtomicBool,
    /// Set by the master's `Drain` frame (`ts-elastic`): stop advertising
    /// hunger, finish what is queued, and report `Goodbye` when the local
    /// compute pipeline runs dry. The worker stays fully alive — serving
    /// its data plane and heartbeating — until the master's final
    /// `Shutdown`.
    draining: AtomicBool,
    /// `Goodbye` is sent exactly once per drain.
    goodbye_sent: AtomicBool,
    /// Tasks currently on a comper (picked up but not yet resulted); the
    /// drain's "pipeline dry" check needs it alongside `ready_backlog`.
    computing: AtomicI64,
}

impl Worker {
    /// The worker's state, indexes built, and the receiving end of its ready
    /// queue — no thread yet, so a test can drive the handlers one by one.
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: NodeId,
        work_ns_per_unit: u64,
        columns: HashMap<usize, Arc<Column>>,
        labels: Arc<Labels>,
        attr_types: Arc<Vec<AttrType>>,
        task: Task,
        fabric_task: Fabric<TaskMsg>,
        fabric_data: Fabric<DataMsg>,
        hist_bins: Option<usize>,
    ) -> (Arc<Worker>, Receiver<ReadyTask>) {
        let (ready_tx, ready_rx) = tschan::unbounded();
        let stats = Arc::clone(fabric_task.stats());
        let sorted: HashMap<usize, Arc<SortedColumn>> = columns
            .iter()
            .map(|(&attr, col)| (attr, Arc::new(SortedColumn::build(col))))
            .collect();
        // A numeric column is binned off the presorted order it was just given.
        let binned: HashMap<usize, Arc<BinnedColumn>> = match hist_bins {
            Some(bins) => columns
                .iter()
                .filter_map(|(&attr, col)| {
                    let binned = BinnedColumn::from_order(
                        col.as_numeric()?,
                        sorted[&attr].numeric_order(),
                        bins,
                    );
                    Some((attr, Arc::new(binned)))
                })
                .collect(),
            None => HashMap::new(),
        };
        // The resident column data is the memory baseline of the machine
        // ("most memory is used to hold data columns", Table III discussion);
        // histogram mode adds its compact bin ids on top.
        let col_bytes: usize = columns.values().map(|c| c.payload_bytes()).sum();
        let bin_bytes: usize = binned.values().map(|b| b.payload_bytes()).sum();
        stats.mem_alloc(id, col_bytes + labels.payload_bytes() + bin_bytes);
        let worker = Arc::new(Worker {
            id,
            work_ns_per_unit,
            n_rows: labels.len(),
            task,
            labels: RwLock::new(labels),
            attr_types,
            columns: RwLock::new(columns),
            sorted: RwLock::new(sorted),
            binned: RwLock::new(binned),
            hist_bins,
            state: Mutex::new(WorkerState {
                tasks: HashMap::new(),
                awaiting: HashMap::new(),
                delegates: HashMap::new(),
                parked: HashMap::new(),
                revoked: HashSet::new(),
            }),
            ready_tx,
            fabric_task,
            fabric_data,
            stats,
            alive: AtomicBool::new(true),
            ready_backlog: AtomicI64::new(0),
            steal_outstanding: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            goodbye_sent: AtomicBool::new(false),
            computing: AtomicI64::new(0),
        });
        (worker, ready_rx)
    }

    /// Creates a worker holding `columns` (attr id → column) plus the full
    /// label column, and spawns its threads. Returns the join handles.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        id: NodeId,
        work_ns_per_unit: u64,
        columns: HashMap<usize, Arc<Column>>,
        labels: Arc<Labels>,
        attr_types: Arc<Vec<AttrType>>,
        task: Task,
        compers: usize,
        fabric_task: Fabric<TaskMsg>,
        fabric_data: Fabric<DataMsg>,
        task_rx: FabricReceiver<TaskMsg>,
        data_rx: FabricReceiver<DataMsg>,
        heartbeat_interval: Duration,
        hist_bins: Option<usize>,
    ) -> Vec<std::thread::JoinHandle<()>> {
        let (worker, ready_rx) = Worker::new(
            id,
            work_ns_per_unit,
            columns,
            labels,
            attr_types,
            task,
            fabric_task,
            fabric_data,
            hist_bins,
        );

        let mut handles = Vec::new();
        {
            let w = Arc::clone(&worker);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("worker{id}-task"))
                    .spawn(move || w.task_loop(task_rx, compers))
                    .expect("spawn task loop"),
            );
        }
        {
            let w = Arc::clone(&worker);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("worker{id}-data"))
                    .spawn(move || w.data_loop(data_rx))
                    .expect("spawn data loop"),
            );
        }
        for c in 0..compers {
            let w = Arc::clone(&worker);
            let rx = ready_rx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("worker{id}-comper{c}"))
                    .spawn(move || w.comper_loop(rx))
                    .expect("spawn comper"),
            );
        }
        {
            let w = Arc::clone(&worker);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("worker{id}-hb"))
                    .spawn(move || w.heartbeat_loop(heartbeat_interval))
                    .expect("spawn heartbeat"),
            );
        }
        handles
    }

    /// Liveness beacon: one unreliable `Heartbeat` to the master per
    /// interval until shutdown. Unreliable on purpose — a heartbeat that a
    /// fault plan drops must stay lost (that is the signal the detector
    /// reads), and beacons must not queue behind the ordered-delivery
    /// buffer of the reliable protocol.
    fn heartbeat_loop(self: Arc<Self>, interval: Duration) {
        // Sleep in small chunks so shutdown never waits a full interval.
        let chunk = interval
            .min(Duration::from_millis(2))
            .max(Duration::from_micros(100));
        let mut elapsed = Duration::ZERO;
        while self.alive.load(Ordering::Acquire) {
            std::thread::sleep(chunk);
            elapsed += chunk;
            if elapsed >= interval {
                elapsed = Duration::ZERO;
                if !self.alive.load(Ordering::Acquire) {
                    break;
                }
                let _ = self.fabric_task.send_unreliable(
                    self.id,
                    0,
                    TaskMsg::Heartbeat { worker: self.id },
                );
            }
        }
    }

    /// Hands a provisioned task to the comper pool, keeping the ready
    /// backlog counter in step (the hunger signal for work stealing). A
    /// subtree-task's trace span gets its "ready" mark here: its dataset is
    /// assembled, and what follows until a comper picks it up is queue wait.
    fn push_ready(&self, task: ReadyTask) {
        if !matches!(task, ReadyTask::Stop) {
            self.ready_backlog.fetch_add(1, Ordering::AcqRel);
        }
        #[cfg(feature = "obs")]
        if let ReadyTask::Subtree { plan, .. } = &task {
            obs_event!(
                self.stats,
                self.id,
                ts_obs::Event::SpanReady {
                    span: plan.ctx.span.0,
                    node: self.id as u32,
                }
            );
        }
        let _ = self.ready_tx.send(task);
    }

    /// Called by a comper that just finished a task: when the ready
    /// backlog is empty and no request is in flight, advertise hunger to
    /// the master. The request is an accelerator — if it (or its Donate)
    /// is lost, the flag is cleared by the next plan that arrives anyway.
    fn maybe_request_steal(&self) {
        if !self.alive.load(Ordering::Acquire) {
            return;
        }
        // A draining worker must wind down, not attract more work (the
        // master forgot its deque anyway).
        if self.draining.load(Ordering::Acquire) {
            return;
        }
        if self.ready_backlog.load(Ordering::Acquire) > 0 {
            return;
        }
        if self
            .steal_outstanding
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            obs_event!(
                self.stats,
                self.id,
                ts_obs::Event::StealRequested {
                    worker: self.id as u32
                }
            );
            let _ = self
                .fabric_task
                .send(self.id, 0, TaskMsg::StealRequest { worker: self.id });
        }
    }

    /// Drain progress check: once the ready queue and the comper pipeline
    /// are both empty, report `Goodbye` to the master (exactly once). This
    /// is deliberately only a "my compute ran dry" signal — tasks still
    /// parked for `Ix`/columns and the delegate table are in-flight state
    /// the *master* tracks (`touches`), and the worker keeps serving its
    /// data plane until the final `Shutdown` arrives.
    fn maybe_goodbye(&self) {
        if !self.draining.load(Ordering::Acquire)
            || !self.alive.load(Ordering::Acquire)
            || self.ready_backlog.load(Ordering::Acquire) > 0
            || self.computing.load(Ordering::Acquire) > 0
        {
            return;
        }
        if self
            .goodbye_sent
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let _ = self
                .fabric_task
                .send(self.id, 0, TaskMsg::Goodbye { worker: self.id });
        }
    }

    fn n_classes(&self) -> u32 {
        self.task.n_classes().unwrap_or(0)
    }

    /// The effective prediction task: boosting rounds swap in real-valued
    /// pseudo-targets, turning every tree into a regression tree regardless
    /// of the table's original task.
    fn current_task(&self) -> Task {
        match &**self.labels.read() {
            Labels::Real(_) => Task::Regression,
            Labels::Class(_) => self.task,
        }
    }

    // ------------------------------------------------------------------
    /// Installs freshly-received columns (initial load or replication):
    /// accounts their memory and builds the presorted index — plus, in
    /// histogram mode, the bin index for numeric columns — alongside, so
    /// column-tasks always find all of them under the same attr id. Lock
    /// order is columns-then-sorted-then-binned everywhere.
    fn install_columns(&self, columns: Vec<(usize, Column)>) {
        let mut store = self.columns.write();
        let mut sorted = self.sorted.write();
        let mut binned = self.binned.write();
        for (attr, col) in columns {
            self.stats.mem_alloc(self.id, col.payload_bytes());
            let index = SortedColumn::build(&col);
            if let (Some(bins), Some(v)) = (self.hist_bins, col.as_numeric()) {
                let b = BinnedColumn::from_order(v, index.numeric_order(), bins);
                self.stats.mem_alloc(self.id, b.payload_bytes());
                binned.insert(attr, Arc::new(b));
            }
            sorted.insert(attr, Arc::new(index));
            store.insert(attr, Arc::new(col));
        }
    }

    // Task loop (worker θ_main): plans and control messages from master.
    // ------------------------------------------------------------------
    fn task_loop(self: Arc<Self>, rx: FabricReceiver<TaskMsg>, compers: usize) {
        while let Ok(msg) = rx.recv() {
            match msg {
                TaskMsg::ColumnPlan(plan) => self.on_column_plan(plan),
                TaskMsg::SubtreePlan(plan) => self.on_subtree_plan(plan),
                TaskMsg::ConfirmBest { task } => self.on_confirm_best(task),
                TaskMsg::HistFetch { task, attr, ctx } => self.on_hist_fetch(task, attr, ctx),
                TaskMsg::DropTask { task } => self.on_drop_task(task),
                TaskMsg::ServeQuota { task, side, quota } => self.on_serve_quota(task, side, quota),
                TaskMsg::RevokeTree { tree } => self.on_revoke_tree(tree),
                TaskMsg::LoadColumns { columns } => self.install_columns(columns),
                TaskMsg::LoadLabels { labels } => {
                    // Boosting support: the client distributes a fresh target
                    // column between rounds (the cluster is quiesced — the
                    // caller waits for the previous round's job first).
                    assert_eq!(labels.len(), self.n_rows, "label column length");
                    *self.labels.write() = Arc::new(labels);
                }
                TaskMsg::ReplicateTo { attrs, to, ctx } => {
                    let columns: Vec<(usize, Column)> = {
                        let store = self.columns.read();
                        attrs
                            .iter()
                            .map(|a| {
                                (
                                    *a,
                                    (**store.get(a).expect("replica source holds column")).clone(),
                                )
                            })
                            .collect()
                    };
                    // The migration span rides the bulk transfer and its
                    // eventual ReplicateDone, so retries stay attributed.
                    let _ =
                        self.fabric_data
                            .send(self.id, to, DataMsg::ReplicateCols { columns, ctx });
                }
                TaskMsg::Welcome { .. } => {
                    // Join handshake ack. Nothing to set up here: columns
                    // arrive via `ReplicateCols` on the data plane, and the
                    // heartbeat thread has been beating since spawn.
                }
                TaskMsg::Drain => {
                    self.draining.store(true, Ordering::Release);
                    // Maybe the pipeline is already dry.
                    self.maybe_goodbye();
                }
                TaskMsg::Shutdown => {
                    // Silence the heartbeat first: from the master's point
                    // of view this machine is now dark.
                    self.alive.store(false, Ordering::Release);
                    for _ in 0..compers {
                        let _ = self.ready_tx.send(ReadyTask::Stop);
                    }
                    // Stop the data loop too (self-send is free and FIFO,
                    // so queued data messages drain first).
                    let _ = self.fabric_data.send(self.id, self.id, DataMsg::Shutdown);
                    break;
                }
                TaskMsg::Donate { ctx: _ctx, .. } => {
                    // The master answered our steal request: the stolen
                    // task's plan follows on this same FIFO channel. The
                    // SpanRecv here is the steal edge in the span DAG.
                    obs_event!(
                        self.stats,
                        self.id,
                        ts_obs::Event::SpanRecv {
                            span: _ctx.span.0,
                            node: self.id as u32,
                        }
                    );
                    self.steal_outstanding.store(false, Ordering::Release);
                }
                // Master-only messages never reach workers.
                TaskMsg::ColumnResult { .. }
                | TaskMsg::HistNominate { .. }
                | TaskMsg::HistBest { .. }
                | TaskMsg::SubtreeResult { .. }
                | TaskMsg::ReplicateDone { .. }
                | TaskMsg::StealRequest { .. }
                | TaskMsg::Hello { .. }
                | TaskMsg::Goodbye { .. }
                | TaskMsg::Heartbeat { .. } => {
                    unreachable!("master-bound message delivered to a worker")
                }
            }
        }
    }

    fn on_column_plan(&self, plan: ColumnPlan) {
        // Any plan arriving means the master is feeding us again — a lost
        // steal request (or Donate) must not wedge the hunger signal.
        self.steal_outstanding.store(false, Ordering::Release);
        // Cross-machine causality: the master's task span is now live here.
        obs_event!(
            self.stats,
            self.id,
            ts_obs::Event::SpanRecv {
                span: plan.ctx.span.0,
                node: self.id as u32,
            }
        );
        match plan.parent {
            ParentRef::Root => {
                self.push_ready(ReadyTask::Column {
                    plan,
                    ix: RowSet::All,
                });
            }
            ParentRef::Node {
                worker,
                task: ptask,
                side,
            } => {
                let task = plan.task;
                let tree = plan.tree;
                let ctx = plan.ctx;
                self.state
                    .lock()
                    .tasks
                    .insert(task, PendingTask::Column { plan });
                self.request_ix(worker, ptask, side, task, tree, ctx);
            }
        }
    }

    fn on_subtree_plan(&self, plan: SubtreePlan) {
        self.steal_outstanding.store(false, Ordering::Release);
        obs_event!(
            self.stats,
            self.id,
            ts_obs::Event::SpanRecv {
                span: plan.ctx.span.0,
                node: self.id as u32,
            }
        );
        let task = plan.task;
        let me = self.id;
        let ctx = plan.ctx;
        // Group remote column requests by holder.
        let mut by_holder: HashMap<NodeId, Vec<usize>> = HashMap::new();
        let mut remote_needed = 0usize;
        for &(attr, holder) in &plan.col_sources {
            if holder != me {
                by_holder.entry(holder).or_default().push(attr);
                remote_needed += 1;
            }
        }
        let parent = plan.parent;
        let tree = plan.tree;
        let ix = match parent {
            ParentRef::Root => Some(RowSet::All),
            ParentRef::Node { .. } => None,
        };
        if ix.is_some() && remote_needed == 0 {
            self.push_ready(ReadyTask::Subtree {
                plan,
                ix: RowSet::All,
                remote_bufs: HashMap::new(),
            });
        } else {
            self.state.lock().tasks.insert(
                task,
                PendingTask::Subtree {
                    plan,
                    ix,
                    remote_bufs: HashMap::new(),
                    remote_needed,
                },
            );
        }
        // Fire the data requests after registering the entry.
        let mut holders: Vec<(NodeId, Vec<usize>)> = by_holder.into_iter().collect();
        holders.sort_unstable_by_key(|&(h, _)| h);
        for (holder, attrs) in holders {
            let _ = self.fabric_data.send(
                me,
                holder,
                DataMsg::ReqCols {
                    for_task: task,
                    attrs,
                    key_worker: me,
                    parent,
                    tree,
                    ctx,
                },
            );
        }
        if let ParentRef::Node {
            worker,
            task: ptask,
            side,
        } = parent
        {
            self.request_ix(worker, ptask, side, task, tree, ctx);
        }
    }

    fn request_ix(
        &self,
        parent_worker: NodeId,
        ptask: TaskId,
        side: Side,
        for_task: TaskId,
        tree: TreeId,
        ctx: TraceCtx,
    ) {
        let _ = self.fabric_data.send(
            self.id,
            parent_worker,
            DataMsg::ReqIx {
                parent_task: ptask,
                side,
                requester: self.id,
                for_task,
                tree,
                ctx,
            },
        );
    }

    /// The master confirmed this worker's condition as the node's best:
    /// become the node's delegate. The verdict is taken out and the delegate
    /// entry put in under the state lock, but `Ix` — up to the whole table's
    /// rows — is partitioned between the two with the lock free, so the data
    /// loop and the compers do not wait on the one hop between a node and
    /// its children.
    fn on_confirm_best(&self, task: TaskId) {
        let Some(av) = self.state.lock().awaiting.remove(&task) else {
            return; // revoked while the verdict was in flight
        };
        let sides = self.partition_ix(&av);
        self.install_delegate(task, av, sides);
    }

    /// Splits a confirmed task's `Ix` by its winning condition.
    fn partition_ix(&self, av: &AwaitingVerdict) -> (Vec<u32>, Vec<u32>) {
        let (attr, test, missing_left) = av
            .winning
            .as_ref()
            .expect("master confirmed a worker that reported no split");
        let col = Arc::clone(
            self.columns
                .read()
                .get(attr)
                .expect("delegate must hold its winning column"),
        );
        partition_rows(&col, &av.ix.to_ids(self.n_rows), test, *missing_left)
    }

    /// Registers the delegate entry of `task` and answers the `Ix` requests
    /// that arrived before it: while the verdict was on its way or while
    /// `Ix` was being partitioned, a request finds no entry and parks.
    fn install_delegate(&self, task: TaskId, av: AwaitingVerdict, (l, r): (Vec<u32>, Vec<u32>)) {
        self.stats.mem_free(self.id, ix_bytes(&av.ix));
        let mut responses: Vec<(NodeId, DataMsg)> = Vec::new();
        {
            let mut st = self.state.lock();
            if st.revoked.contains(&av.tree) {
                // Revoked since the verdict was taken out: the revocation
                // dropped the tree's parked requests and saw no entry to
                // drop, so none may appear now.
                return;
            }
            self.stats.mem_alloc(self.id, (l.len() + r.len()) * 4);
            st.delegates.insert(
                task,
                DelegateEntry {
                    tree: av.tree,
                    sides: [Some(l), Some(r)],
                    quota: [None, None],
                    served: [0, 0],
                },
            );
            if let Some(parked) = st.parked.remove(&task) {
                for (_tree, side, requester, for_task, ctx) in parked {
                    if let Some(resp) = self.serve_ix(&mut st, task, side, for_task, ctx) {
                        responses.push((requester, resp));
                    }
                }
            }
        }
        for (to, msg) in responses {
            let _ = self.fabric_data.send(self.id, to, msg);
        }
    }

    fn on_drop_task(&self, task: TaskId) {
        let mut st = self.state.lock();
        if let Some(av) = st.awaiting.remove(&task) {
            self.stats.mem_free(self.id, ix_bytes(&av.ix));
        }
    }

    fn on_serve_quota(&self, task: TaskId, side: Side, quota: u32) {
        let mut st = self.state.lock();
        if let Some(entry) = st.delegates.get_mut(&task) {
            entry.quota[DelegateEntry::side_idx(side)] = Some(quota);
            let freed = entry.release_satisfied();
            self.stats.mem_free(self.id, freed);
            if entry.done() {
                st.delegates.remove(&task);
            }
        }
        // A quota for an unknown task means the tree was revoked meanwhile.
    }

    fn on_revoke_tree(&self, tree: TreeId) {
        let mut st = self.state.lock();
        st.revoked.insert(tree);
        st.tasks.retain(|_, t| t.tree() != tree);
        let mut freed = 0usize;
        st.awaiting.retain(|_, a| {
            if a.tree == tree {
                freed += ix_bytes(&a.ix);
                false
            } else {
                true
            }
        });
        st.delegates.retain(|_, d| {
            if d.tree == tree {
                freed += d.sides.iter().flatten().map(|s| s.len() * 4).sum::<usize>();
                false
            } else {
                true
            }
        });
        for reqs in st.parked.values_mut() {
            reqs.retain(|&(t, _, _, _, _)| t != tree);
        }
        st.parked.retain(|_, reqs| !reqs.is_empty());
        self.stats.mem_free(self.id, freed);
    }

    // ------------------------------------------------------------------
    // Data loop (worker θ_recv): worker↔worker data plane.
    // ------------------------------------------------------------------
    fn data_loop(self: Arc<Self>, rx: FabricReceiver<DataMsg>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                DataMsg::ReqIx {
                    parent_task,
                    side,
                    requester,
                    for_task,
                    tree,
                    ctx,
                } => self.on_req_ix(parent_task, (tree, side, requester, for_task, ctx)),
                DataMsg::RespIx { for_task, rows, .. } => self.on_resp_ix(for_task, rows),
                DataMsg::ReqCols {
                    for_task,
                    attrs,
                    key_worker,
                    parent,
                    tree,
                    ctx,
                } => self.on_req_cols(for_task, attrs, key_worker, parent, tree, ctx),
                DataMsg::RespCols {
                    for_task,
                    attrs,
                    bufs,
                    ..
                } => self.on_resp_cols(for_task, attrs, bufs),
                DataMsg::Shutdown => break,
                DataMsg::ReplicateCols { columns, ctx } => {
                    let attrs: Vec<usize> = columns.iter().map(|&(a, _)| a).collect();
                    self.install_columns(columns);
                    let _ = self.fabric_task.send(
                        self.id,
                        0,
                        TaskMsg::ReplicateDone {
                            attrs,
                            worker: self.id,
                            ctx,
                        },
                    );
                }
            }
        }
    }

    /// Serves one side of a delegate's `Ix`, or parks the request until the
    /// delegate entry exists.
    fn on_req_ix(&self, parent_task: TaskId, req: ParkedIxReq) {
        let (tree, side, requester, for_task, ctx) = req;
        let response = {
            let mut st = self.state.lock();
            if st.delegates.contains_key(&parent_task) {
                self.serve_ix(&mut st, parent_task, side, for_task, ctx)
            } else if st.revoked.contains(&tree) {
                None // requester's task was revoked too
            } else {
                st.parked.entry(parent_task).or_default().push(req);
                None
            }
        };
        if let Some(resp) = response {
            let _ = self.fabric_data.send(self.id, requester, resp);
        }
    }

    /// Builds the `RespIx` for one request against the delegate table and
    /// updates serve counters. Caller sends the message after unlocking.
    fn serve_ix(
        &self,
        st: &mut WorkerState,
        parent_task: TaskId,
        side: Side,
        for_task: TaskId,
        ctx: TraceCtx,
    ) -> Option<DataMsg> {
        let idx = DelegateEntry::side_idx(side);
        let (rows, done, freed) = {
            let entry = st.delegates.get_mut(&parent_task)?;
            let rows = entry.sides[idx]
                .as_ref()
                .expect("side requested after release — master quota was wrong")
                .clone();
            entry.served[idx] += 1;
            let freed = entry.release_satisfied();
            (rows, entry.done(), freed)
        };
        self.stats.mem_free(self.id, freed);
        if done {
            st.delegates.remove(&parent_task);
        }
        Some(DataMsg::RespIx {
            for_task,
            rows,
            ctx,
        })
    }

    fn on_resp_ix(&self, for_task: TaskId, rows: Vec<u32>) {
        let ix = RowSet::Ids(Arc::new(rows));
        enum Next {
            Nothing,
            Serve {
                attrs: Vec<usize>,
                key: NodeId,
                ctx: TraceCtx,
            },
        }
        let next = {
            let mut st = self.state.lock();
            match st.tasks.get(&for_task) {
                None => return, // revoked
                Some(PendingTask::Column { .. }) => {
                    let Some(PendingTask::Column { plan }) = st.tasks.remove(&for_task) else {
                        unreachable!()
                    };
                    self.stats.mem_alloc(self.id, ix_bytes(&ix));
                    self.push_ready(ReadyTask::Column {
                        plan,
                        ix: ix.clone(),
                    });
                    Next::Nothing
                }
                Some(PendingTask::Subtree { .. }) => {
                    self.stats.mem_alloc(self.id, ix_bytes(&ix));
                    let complete = {
                        let Some(PendingTask::Subtree {
                            ix: slot,
                            remote_bufs,
                            remote_needed,
                            ..
                        }) = st.tasks.get_mut(&for_task)
                        else {
                            unreachable!()
                        };
                        *slot = Some(ix.clone());
                        remote_bufs.len() == *remote_needed
                    };
                    if complete {
                        self.promote_subtree(&mut st, for_task);
                    }
                    Next::Nothing
                }
                Some(PendingTask::Serve { .. }) => {
                    let Some(PendingTask::Serve {
                        attrs,
                        key_worker,
                        ctx,
                        ..
                    }) = st.tasks.remove(&for_task)
                    else {
                        unreachable!()
                    };
                    Next::Serve {
                        attrs,
                        key: key_worker,
                        ctx,
                    }
                }
            }
        };
        if let Next::Serve { attrs, key, ctx } = next {
            self.send_cols(for_task, &attrs, key, &ix, ctx);
        }
    }

    fn on_req_cols(
        &self,
        for_task: TaskId,
        attrs: Vec<usize>,
        key_worker: NodeId,
        parent: ParentRef,
        tree: TreeId,
        ctx: TraceCtx,
    ) {
        match parent {
            ParentRef::Root => self.send_cols(for_task, &attrs, key_worker, &RowSet::All, ctx),
            ParentRef::Node {
                worker,
                task: ptask,
                side,
            } => {
                {
                    let mut st = self.state.lock();
                    if st.revoked.contains(&tree) {
                        return;
                    }
                    st.tasks.insert(
                        for_task,
                        PendingTask::Serve {
                            tree,
                            attrs,
                            key_worker,
                            ctx,
                        },
                    );
                }
                self.request_ix(worker, ptask, side, for_task, tree, ctx);
            }
        }
    }

    fn send_cols(
        &self,
        for_task: TaskId,
        attrs: &[usize],
        key_worker: NodeId,
        ix: &RowSet,
        ctx: TraceCtx,
    ) {
        let bufs: Vec<ValuesBuf> = {
            let store = self.columns.read();
            attrs
                .iter()
                .map(|a| {
                    let col = store.get(a).expect("holder must have its column");
                    ix.gather(col, self.n_rows)
                })
                .collect()
        };
        let _ = self.fabric_data.send(
            self.id,
            key_worker,
            DataMsg::RespCols {
                for_task,
                attrs: attrs.to_vec(),
                bufs,
                ctx,
            },
        );
    }

    fn on_resp_cols(&self, for_task: TaskId, attrs: Vec<usize>, bufs: Vec<ValuesBuf>) {
        let mut st = self.state.lock();
        let complete = {
            let Some(PendingTask::Subtree {
                remote_bufs,
                remote_needed,
                ix,
                ..
            }) = st.tasks.get_mut(&for_task)
            else {
                return; // revoked
            };
            let bytes: usize = bufs.iter().map(ValuesBuf::payload_bytes).sum();
            self.stats.mem_alloc(self.id, bytes);
            for (a, b) in attrs.into_iter().zip(bufs) {
                remote_bufs.insert(a, b);
            }
            ix.is_some() && remote_bufs.len() == *remote_needed
        };
        if complete {
            self.promote_subtree(&mut st, for_task);
        }
    }

    /// Moves a fully-provisioned subtree task from the task table to `Btask`.
    fn promote_subtree(&self, st: &mut WorkerState, task: TaskId) {
        let Some(PendingTask::Subtree {
            plan,
            ix,
            remote_bufs,
            ..
        }) = st.tasks.remove(&task)
        else {
            unreachable!("promote_subtree on a non-subtree task");
        };
        self.push_ready(ReadyTask::Subtree {
            plan,
            ix: ix.expect("ix present when promoting"),
            remote_bufs,
        });
    }

    // ------------------------------------------------------------------
    // Compers.
    // ------------------------------------------------------------------
    fn comper_loop(self: Arc<Self>, rx: Receiver<ReadyTask>) {
        while let Ok(task) = rx.recv() {
            if !matches!(task, ReadyTask::Stop) {
                self.ready_backlog.fetch_sub(1, Ordering::AcqRel);
                self.computing.fetch_add(1, Ordering::AcqRel);
            }
            match task {
                ReadyTask::Stop => break,
                ReadyTask::Column { plan, ix } => {
                    // A comper picked the task up: queue wait ends here.
                    obs_event!(
                        self.stats,
                        self.id,
                        ts_obs::Event::SpanActive {
                            span: plan.ctx.span.0,
                            node: self.id as u32,
                        }
                    );
                    #[cfg(feature = "obs")]
                    let (task_id, t0) = (plan.task.0, std::time::Instant::now());
                    let msg = {
                        let _busy = BusyGuard::start(&self.stats, self.id);
                        self.compute_column_task(plan, ix)
                    };
                    obs_event!(
                        self.stats,
                        self.id,
                        ts_obs::Event::TaskComputed {
                            task: task_id,
                            node: self.id as u32,
                            busy_ns: t0.elapsed().as_nanos() as u64,
                        }
                    );
                    if let Some(msg) = msg {
                        let _ = self.fabric_task.send(self.id, 0, msg);
                    }
                    self.computing.fetch_sub(1, Ordering::AcqRel);
                    self.maybe_request_steal();
                    self.maybe_goodbye();
                }
                ReadyTask::Subtree {
                    plan,
                    ix,
                    remote_bufs,
                } => {
                    obs_event!(
                        self.stats,
                        self.id,
                        ts_obs::Event::SpanActive {
                            span: plan.ctx.span.0,
                            node: self.id as u32,
                        }
                    );
                    #[cfg(feature = "obs")]
                    let (task_id, t0) = (plan.task.0, std::time::Instant::now());
                    let msg = {
                        let _busy = BusyGuard::start(&self.stats, self.id);
                        self.compute_subtree_task(plan, ix, remote_bufs)
                    };
                    obs_event!(
                        self.stats,
                        self.id,
                        ts_obs::Event::TaskComputed {
                            task: task_id,
                            node: self.id as u32,
                            busy_ns: t0.elapsed().as_nanos() as u64,
                        }
                    );
                    if let Some(msg) = msg {
                        let _ = self.fabric_task.send(self.id, 0, msg);
                    }
                    self.computing.fetch_sub(1, Ordering::AcqRel);
                    self.maybe_request_steal();
                    self.maybe_goodbye();
                }
            }
        }
    }

    /// Sleeps for the modeled compute cost of `units` row-attribute touches
    /// (no-op when the work model is off). See `ClusterConfig::work_ns_per_unit`.
    fn model_work(&self, units: u64) {
        if self.work_ns_per_unit > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(
                units.saturating_mul(self.work_ns_per_unit),
            ));
        }
    }

    /// Runs the exact-split engine over each assigned column for one node,
    /// folding the winners with the canonical tie-break (challenger order is
    /// `plan.cols` order).
    #[allow(clippy::too_many_arguments)]
    fn best_exact_split(
        &self,
        store: &HashMap<usize, Arc<Column>>,
        sorted_store: &HashMap<usize, Arc<SortedColumn>>,
        cols: &[usize],
        node: NodeRows<'_>,
        stats: &NodeStats,
        view: LabelView<'_>,
        imp: Impurity,
    ) -> Option<(usize, ColumnSplit)> {
        let cref = |attr: usize| {
            let col = store.get(&attr).expect("assigned column must be held");
            let index = sorted_store.get(&attr).expect("sorted index must be held");
            ColumnRef::of_column(col, index, self.attr_types[attr])
        };
        let mut best: Option<(usize, SplitCandidate)> = None;
        for &attr in cols {
            if let Some(s) = best_split_at(cref(attr), node, stats, view, imp) {
                let wins = match &best {
                    None => true,
                    Some((battr, bs)) => SplitCandidate::challenger_wins(&s, attr, bs, *battr),
                };
                if wins {
                    best = Some((attr, s));
                }
            }
        }
        // Regression children are summed here, once, for the winner.
        best.map(|(attr, s)| (attr, s.finish(cref(attr), node, view)))
    }

    fn compute_column_task(&self, plan: ColumnPlan, ix: RowSet) -> Option<TaskMsg> {
        // Both split engines touch every (row, column) pair of the task once,
        // so the modeled compute charge is identical — the histogram path's
        // savings are wire bytes and the extra tree level of candidates the
        // master never has to rank, not scan work.
        self.model_work(ix.len(self.n_rows) as u64 * plan.cols.len() as u64);
        if plan.random_seed.is_none() {
            if let Some(conf) = plan.hist {
                return self.compute_hist_column_task(plan, ix, conf);
            }
        }
        let y = self.labels.read().clone();
        let view = LabelView::of(&y, self.n_classes());
        // Counted once per task: the master's leaf checks read it, and so
        // does the scan of every assigned column.
        let node_stats = ix.as_node_rows(self.n_rows).stats(view);

        let store = self.columns.read();
        let sorted_store = self.sorted.read();
        let mut best: Option<(usize, ColumnSplit)> = None;
        if let Some(seed) = plan.random_seed {
            // Extra-trees: try this worker's columns in seeded random order,
            // accepting the first random split that separates anything.
            // Random splits draw from the gathered node buffer, so this arm
            // keeps the gather path (and a gathered label view to match).
            let labels = ix.gather_labels(&y, self.n_rows);
            let gathered_view = LabelView::of(&labels, self.n_classes());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order = plan.cols.clone();
            order.shuffle(&mut rng);
            for attr in order {
                let col = store.get(&attr).expect("assigned column must be held");
                let buf = ix.gather(col, self.n_rows);
                if let Some(s) = random_split_for_column(&buf, gathered_view, &mut rng) {
                    best = Some((attr, s));
                    break;
                }
            }
        } else {
            // Exact splits: run the sorted-column engine over the full
            // resident columns — no per-task gather. `Ix` is always strictly
            // ascending, so the engine's scans visit rows in the same order
            // a gather-then-scan would (see `ts_splits::sorted`).
            let node = ix.as_node_rows(self.n_rows);
            let imp = plan.params.impurity;
            best = self.best_exact_split(
                &store,
                &sorted_store,
                &plan.cols,
                node,
                &node_stats,
                view,
                imp,
            );
        }

        let best_full = best.map(|(attr, split)| {
            let seen = match self.attr_types[attr] {
                AttrType::Categorical { n_values } => match &ix {
                    // The whole-column category set is precomputed on the
                    // sorted index; subsets scan the node's rows only.
                    RowSet::All => Some(
                        sorted_store
                            .get(&attr)
                            .expect("sorted index must be held")
                            .distinct()
                            .to_vec(),
                    ),
                    RowSet::Ids(v) => {
                        let codes = store
                            .get(&attr)
                            .expect("held")
                            .as_categorical()
                            .expect("categorical winner must be a categorical column");
                        Some(distinct_categories_at(codes, NodeRows::Subset(v), n_values))
                    }
                },
                AttrType::Numeric => None,
            };
            (attr, split, seen)
        });
        drop(sorted_store);
        drop(store);

        // Keep Ix (and the winning condition) until the master's verdict —
        // *before* sending the result, so ConfirmBest can never miss it.
        {
            let mut st = self.state.lock();
            if st.revoked.contains(&plan.tree) {
                self.stats.mem_free(self.id, ix_bytes(&ix));
                return None;
            }
            st.awaiting.insert(
                plan.task,
                AwaitingVerdict {
                    tree: plan.tree,
                    ix,
                    imp: plan.params.impurity,
                    winning: best_full
                        .as_ref()
                        .map(|(a, s, _)| (*a, s.test.clone(), s.missing_left)),
                },
            );
        }
        let best = best_full.map(|(attr, split, seen)| ColumnTaskBest { attr, split, seen });
        Some(TaskMsg::ColumnResult {
            task: plan.task,
            worker: self.id,
            best,
            node_stats,
            ctx: plan.ctx,
        })
    }

    /// One column through the histogram engine over a node's rows: its best
    /// split as a candidate, whose gain is all a nomination reads.
    fn hist_candidate_for(
        &self,
        store: &HashMap<usize, Arc<Column>>,
        binned_store: &HashMap<usize, Arc<BinnedColumn>>,
        attr: usize,
        node: NodeRows<'_>,
        view: LabelView<'_>,
        imp: Impurity,
    ) -> Option<SplitCandidate> {
        let col = store.get(&attr).expect("assigned column must be held");
        let cref = HistColumnRef::of_column(
            col,
            binned_store.get(&attr).map(|b| &**b),
            self.attr_types[attr],
        );
        best_hist_split_at(cref, node, view, imp)
    }

    /// Histogram-mode column task (`--splitter hist`): score every assigned
    /// column with the quantized kernel, nominate the local top `vote_k`
    /// candidate gains, and park `Ix` awaiting the master's election. The
    /// full split of the elected attribute is shipped only on `HistFetch`.
    fn compute_hist_column_task(
        &self,
        plan: ColumnPlan,
        ix: RowSet,
        conf: HistPlanConf,
    ) -> Option<TaskMsg> {
        let y = self.labels.read().clone();
        let view = LabelView::of(&y, self.n_classes());
        // Only the designated stats shard ships node stats: one copy per
        // task is enough for the master's leaf checks.
        let node_stats = conf
            .want_stats
            .then(|| ix.as_node_rows(self.n_rows).stats(view));
        let cands = {
            let store = self.columns.read();
            let binned_store = self.binned.read();
            let (node, imp) = (ix.as_node_rows(self.n_rows), plan.params.impurity);
            let gain_of = |attr: usize| {
                let best = self.hist_candidate_for(&store, &binned_store, attr, node, view, imp)?;
                Some(HistCandidate {
                    attr,
                    gain: best.gain(),
                })
            };
            plan.cols.iter().filter_map(|&attr| gain_of(attr)).collect()
        };
        let cands = top_k_candidates(cands, conf.vote_k as usize);
        // Keep Ix until the verdict — before sending, so HistFetch (or
        // DropTask) can never miss it. The winning condition is unknown
        // until the master elects an attribute.
        {
            let mut st = self.state.lock();
            if st.revoked.contains(&plan.tree) {
                self.stats.mem_free(self.id, ix_bytes(&ix));
                return None;
            }
            st.awaiting.insert(
                plan.task,
                AwaitingVerdict {
                    tree: plan.tree,
                    ix,
                    imp: plan.params.impurity,
                    winning: None,
                },
            );
        }
        Some(TaskMsg::HistNominate {
            task: plan.task,
            worker: self.id,
            cands: cands.into_iter().map(|c| (c.attr, c.gain)).collect(),
            node_stats,
            ctx: plan.ctx,
        })
    }

    /// The master elected one of our nominated attributes: recompute its
    /// full split over the retained `Ix` (same kernel, same rows, same
    /// criterion — the gain is bit-identical to the nominated one), remember
    /// the winning condition for the `ConfirmBest` that follows on this same
    /// FIFO edge, and ship the full result.
    fn on_hist_fetch(&self, task: TaskId, attr: usize, ctx: TraceCtx) {
        let (ix, imp) = {
            let st = self.state.lock();
            match st.awaiting.get(&task) {
                Some(av) => (av.ix.clone(), av.imp),
                None => return, // tree revoked while the election was in flight
            }
        };
        let best_full = {
            let _busy = BusyGuard::start(&self.stats, self.id);
            // The recount is real extra compute the histogram path pays:
            // one column's share of the task's modeled work, a second time.
            self.model_work(ix.len(self.n_rows) as u64);
            let y = self.labels.read().clone();
            let view = LabelView::of(&y, self.n_classes());
            let store = self.columns.read();
            let sorted_store = self.sorted.read();
            let node = ix.as_node_rows(self.n_rows);
            let best = self.hist_candidate_for(&store, &self.binned.read(), attr, node, view, imp);
            best.map(|best| {
                // The one pass over the node's rows a regression split's
                // children cost, for the elected column alone. The condition
                // tests `v <= cuts[b]`, so routing by value is routing by bin.
                let col = store.get(&attr).expect("elected column must be held");
                let index = sorted_store.get(&attr).expect("sorted index must be held");
                let cref = ColumnRef::of_column(col, index, self.attr_types[attr]);
                let split = best.finish(cref, node, view);
                let seen = match self.attr_types[attr] {
                    AttrType::Categorical { n_values } => match &ix {
                        RowSet::All => Some(index.distinct().to_vec()),
                        RowSet::Ids(v) => {
                            let codes = store
                                .get(&attr)
                                .expect("held")
                                .as_categorical()
                                .expect("categorical winner must be a categorical column");
                            Some(distinct_categories_at(codes, NodeRows::Subset(v), n_values))
                        }
                    },
                    AttrType::Numeric => None,
                };
                (split, seen)
            })
        };
        {
            let mut st = self.state.lock();
            let Some(av) = st.awaiting.get_mut(&task) else {
                return; // revoked during the recount: the master forgot us too
            };
            av.winning = best_full
                .as_ref()
                .map(|(s, _)| (attr, s.test.clone(), s.missing_left));
        }
        let best = best_full.map(|(split, seen)| ColumnTaskBest { attr, split, seen });
        let _ = self.fabric_task.send(
            self.id,
            0,
            TaskMsg::HistBest {
                task,
                worker: self.id,
                best,
                ctx,
            },
        );
    }

    fn compute_subtree_task(
        &self,
        plan: SubtreePlan,
        ix: RowSet,
        mut remote_bufs: HashMap<usize, ValuesBuf>,
    ) -> Option<TaskMsg> {
        let remote_bytes: usize = remote_bufs.values().map(ValuesBuf::payload_bytes).sum();
        if self.state.lock().revoked.contains(&plan.tree) {
            self.stats.mem_free(self.id, ix_bytes(&ix) + remote_bytes);
            return None;
        }
        let n_ix = ix.len(self.n_rows) as u64;
        let log = 64 - n_ix.max(2).leading_zeros() as u64;
        self.model_work(n_ix * plan.col_sources.len() as u64 * log);
        // Assemble Dx: columns in plan order (sorted by attr id), gathering
        // locally-held columns now. Over `RowSet::All` a local column's copy
        // is the resident column, so its resident presorted index is the
        // copy's index too and is shared instead of sorted again.
        let store = self.columns.read();
        let sorted_store = self.sorted.read();
        let mut attrs = Vec::with_capacity(plan.col_sources.len());
        let mut types = Vec::with_capacity(plan.col_sources.len());
        let mut columns = Vec::with_capacity(plan.col_sources.len());
        let mut sorted = Vec::with_capacity(plan.col_sources.len());
        let mut local_bytes = 0usize;
        let mut index_bytes = 0usize;
        for &(attr, holder) in &plan.col_sources {
            let local = holder == self.id;
            let buf = if local {
                let col = store.get(&attr).expect("local column must be held");
                let b = ix.gather(col, self.n_rows);
                local_bytes += b.payload_bytes();
                b
            } else {
                remote_bufs.remove(&attr).expect("remote column buffered")
            };
            sorted.push(if local && matches!(ix, RowSet::All) {
                Arc::clone(sorted_store.get(&attr).expect("sorted index must be held"))
            } else {
                let index = SortedColumn::build_buf(&buf);
                index_bytes += index.payload_bytes();
                Arc::new(index)
            });
            attrs.push(attr);
            types.push(self.attr_types[attr]);
            columns.push(buf);
        }
        drop(sorted_store);
        drop(store);
        let labels = {
            let y = self.labels.read().clone();
            ix.gather_labels(&y, self.n_rows)
        };
        let task = self.current_task();
        let data = LocalDataset::with_indexes(attrs, types, columns, sorted, labels, task);

        let params = TrainParams {
            impurity: plan.params.impurity,
            dmax: plan.params.dmax,
            tau_leaf: plan.params.tau_leaf,
            mode: if plan.params.extra_trees {
                TrainMode::ExtraTrees
            } else {
                TrainMode::Exact
            },
            // Subtree-tasks stay single-threaded: parallelism in the
            // simulated cluster comes from the comper pool, and the column
            // loop must not oversubscribe it.
            threads: 1,
        };
        // On top of the gathered buffers the task holds the indexes it built
        // and, for exact training, the trainer's copy of the numeric orders.
        let order_bytes = match params.mode {
            TrainMode::Exact => data.order_bytes(),
            TrainMode::ExtraTrees => 0,
        };
        let task_bytes = local_bytes + index_bytes + order_bytes;
        self.stats.mem_alloc(self.id, task_bytes);
        let subtree = train_subtree(&data, &params, plan.depth, plan.seed);
        drop(data);
        self.stats
            .mem_free(self.id, task_bytes + remote_bytes + ix_bytes(&ix));

        Some(TaskMsg::SubtreeResult {
            task: plan.task,
            worker: self.id,
            subtree,
            ctx: plan.ctx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(l: usize, r: usize) -> DelegateEntry {
        DelegateEntry {
            tree: TreeId(1),
            sides: [Some(vec![0; l]), Some(vec![0; r])],
            quota: [None, None],
            served: [0, 0],
        }
    }

    const ME: NodeId = 1;
    const REQUESTER: NodeId = 2;
    const TREE: TreeId = TreeId(1);
    const TASK: TaskId = TaskId(10);

    /// A worker of no threads — its handlers are called here, one by one —
    /// that holds column 0 of a six-row table and has reported `x <= 2.5`
    /// for `TASK` over all rows; with it, the data-plane inbox of the
    /// machine that asks for the children's rows.
    fn worker_awaiting_a_verdict() -> (Arc<Worker>, FabricReceiver<DataMsg>) {
        let stats = ts_netsim::NetStats::new(3);
        let net = ts_netsim::NetModel::instant();
        let (fabric_task, _task_rxs) = Fabric::<TaskMsg>::new(3, net, Arc::clone(&stats));
        let (fabric_data, mut data_rxs) = Fabric::<DataMsg>::new(3, net, stats);
        let column = Column::Numeric(vec![1.0, 4.0, 2.0, 5.0, f64::NAN, 3.0]);
        let (worker, _ready) = Worker::new(
            ME,
            0,
            HashMap::from([(0, Arc::new(column))]),
            Arc::new(Labels::Class(vec![0, 1, 0, 1, 0, 1])),
            Arc::new(vec![AttrType::Numeric]),
            Task::Classification { n_classes: 2 },
            fabric_task,
            fabric_data,
            None,
        );
        worker.state.lock().awaiting.insert(
            TASK,
            AwaitingVerdict {
                tree: TREE,
                ix: RowSet::All,
                imp: Impurity::Gini,
                winning: Some((0, SplitTest::NumericLe(2.5), true)),
            },
        );
        (worker, data_rxs.swap_remove(REQUESTER))
    }

    /// `ConfirmBest` as `on_confirm_best` runs it, stopped between taking
    /// the verdict out and registering the delegate entry — where `Ix` is
    /// partitioned with the state lock free — to let `in_the_gap` happen.
    fn confirm_best_with(worker: &Worker, in_the_gap: impl FnOnce()) {
        let av = worker.state.lock().awaiting.remove(&TASK).expect("verdict");
        let sides = worker.partition_ix(&av);
        in_the_gap();
        worker.install_delegate(TASK, av, sides);
    }

    fn ask_for_the_left_rows(worker: &Worker) {
        let req = (TREE, Side::Left, REQUESTER, TaskId(11), TraceCtx::NONE);
        worker.on_req_ix(TASK, req);
    }

    #[test]
    fn ix_request_in_the_partition_gap_parks_and_is_replayed() {
        let (worker, requester_rx) = worker_awaiting_a_verdict();
        confirm_best_with(&worker, || {
            ask_for_the_left_rows(&worker);
            assert!(requester_rx.try_recv().is_none(), "no entry yet: parked");
            assert_eq!(worker.state.lock().parked[&TASK].len(), 1);
        });
        match requester_rx.try_recv() {
            // Rows 0 and 2 pass the test; row 4 is missing and goes left.
            Some(DataMsg::RespIx { for_task, rows, .. }) => {
                assert_eq!((for_task, rows), (TaskId(11), vec![0, 2, 4]));
            }
            other => panic!("expected the parked request's answer, got {other:?}"),
        }
        let st = worker.state.lock();
        assert!(st.parked.is_empty() && st.awaiting.is_empty());
        assert_eq!(st.delegates[&TASK].served, [1, 0]);
    }

    #[test]
    fn revoke_in_the_partition_gap_leaves_no_delegate_entry() {
        let (worker, requester_rx) = worker_awaiting_a_verdict();
        confirm_best_with(&worker, || {
            ask_for_the_left_rows(&worker);
            worker.on_revoke_tree(TREE);
        });
        let st = worker.state.lock();
        assert!(
            st.delegates.is_empty(),
            "a revoked tree got a delegate entry"
        );
        assert!(st.parked.is_empty() && st.awaiting.is_empty());
        assert!(requester_rx.try_recv().is_none());
        // A later request for the dead tree is dropped, not parked for ever.
        drop(st);
        ask_for_the_left_rows(&worker);
        assert!(worker.state.lock().parked.is_empty());
    }

    #[test]
    fn delegate_releases_only_when_quota_known_and_served() {
        let mut e = entry(3, 2);
        assert_eq!(e.release_satisfied(), 0, "no quota yet");
        e.quota[0] = Some(2);
        e.served[0] = 1;
        assert_eq!(e.release_satisfied(), 0, "left not fully served");
        e.served[0] = 2;
        assert_eq!(e.release_satisfied(), 12, "left freed (3 rows x 4 bytes)");
        assert!(e.sides[0].is_none());
        assert!(!e.done(), "right quota unknown");
        e.quota[1] = Some(0);
        assert_eq!(
            e.release_satisfied(),
            8,
            "right freed immediately at quota 0"
        );
        assert!(e.done());
    }

    #[test]
    fn delegate_release_is_idempotent() {
        let mut e = entry(1, 1);
        e.quota = [Some(0), Some(0)];
        assert_eq!(e.release_satisfied(), 8);
        assert_eq!(e.release_satisfied(), 0, "second call frees nothing");
    }

    #[test]
    fn ix_bytes_counts_only_materialised_sets() {
        assert_eq!(ix_bytes(&RowSet::All), 0);
        assert_eq!(ix_bytes(&RowSet::Ids(Arc::new(vec![1, 2, 3]))), 12);
    }

    #[test]
    fn pending_task_reports_its_tree() {
        let serve = PendingTask::Serve {
            tree: TreeId(7),
            attrs: vec![0],
            key_worker: 1,
            ctx: TraceCtx::NONE,
        };
        assert_eq!(serve.tree(), TreeId(7));
    }
}
