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
//! A thread that panics tells the master so on its way out: a guard in
//! each loop sends `WorkerLost`, and the master runs crash recovery for
//! the machine and fences it with a `Shutdown`. A task loop that panics
//! also stops its data loop and compers, since no `Shutdown` can reach
//! them through it any more.
//!
//! A column-task's row set `Ix` survives the result send in the *awaiting
//! verdict* table; when the master confirms this worker's split as the
//! overall best (`ConfirmBest`), the worker becomes the task's **delegate**:
//! it partitions `Ix` with its locally-held winning column and serves the
//! halves to the child tasks' workers, freeing them when the master-announced
//! quotas are met. `Ix` requests that race ahead of `ConfirmBest` are parked
//! and replayed.
//!
//! One owner, one lock: `Worker` holds every table, the pipeline counters,
//! the resident columns and the labels as plain fields, and every handler
//! takes `&mut self` and pushes what it wants done — frames to send, tasks
//! made ready — onto its outbox of `Post`s, as the master's handlers do;
//! the handler the lock was taken for returns the outbox. The threads
//! (`Machine`) share the worker behind one mutex; the task and data loops
//! are the master's receive loop (`crate::post`), and they and the compers
//! deliver through the one deliverer with the lock dropped, so no frame is
//! sent with the lock held (sends sleep under the link model). A
//! computation — a comper's task, `ConfirmBest`'s partition, `HistFetch`'s
//! recount — takes a `Snapshot` of `Arc` handles under the lock and runs
//! with the lock free.

use crate::assign::ColumnMap;
use crate::ids::{ParentRef, RowSet, Side, TaskId, TreeId};
use crate::messages::{ColumnPlan, ColumnTaskBest, DataMsg, HistPlanConf, SubtreePlan, TaskMsg};
use crate::post::{Ends, Post};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use ts_datatable::{
    AttrType, BinnedColumn, Column, DataTable, Labels, SharedColumn, SortedColumn, Task, ValuesBuf,
};
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
use tschan::sync::Mutex;
use tschan::Receiver;
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

/// Accounted bytes of gathered column buffers.
fn bufs_bytes<'a>(bufs: impl IntoIterator<Item = &'a ValuesBuf>) -> usize {
    bufs.into_iter().map(ValuesBuf::payload_bytes).sum()
}

/// A task whose data is complete, ready for a comper.
pub(crate) enum ReadyTask {
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
    Subtree(Provisioning),
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

/// A subtree-task's dataset as it arrives on its key worker.
struct Provisioning {
    plan: SubtreePlan,
    ix: Option<RowSet>,
    /// Buffers received from remote holders, keyed by attribute.
    remote_bufs: HashMap<usize, ValuesBuf>,
    remote_needed: usize,
}

impl PendingTask {
    fn tree(&self) -> TreeId {
        match self {
            PendingTask::Column { plan } => plan.tree,
            PendingTask::Subtree(p) => p.plan.tree,
            PendingTask::Serve { tree, .. } => *tree,
        }
    }

    /// Bytes charged to the machine for what has arrived so far: a
    /// subtree-task's `Ix` and remote buffers (a column-task's `Ix` is
    /// charged when it arrives, which also makes the task ready).
    fn charged_bytes(&self) -> usize {
        match self {
            PendingTask::Subtree(p) => {
                p.ix.as_ref().map_or(0, ix_bytes) + bufs_bytes(p.remote_bufs.values())
            }
            PendingTask::Column { .. } | PendingTask::Serve { .. } => 0,
        }
    }
}

/// The condition a delegate partitions `Ix` by: attribute, test, and the
/// side missing values take.
type Winning = (usize, SplitTest, bool);

/// A computed column-task whose `Ix` (and winning condition) must survive
/// until the master's verdict.
struct AwaitingVerdict {
    tree: TreeId,
    ix: RowSet,
    /// The task's impurity criterion, kept so a histogram `HistFetch`
    /// recount after the plan is gone uses the same criterion bit for bit.
    imp: Impurity,
    /// Unknown for a histogram nomination until the master elects an
    /// attribute and `HistFetch` recounts it.
    winning: Option<Winning>,
}

fn winning(best: &ColumnTaskBest) -> Winning {
    (best.attr, best.split.test.clone(), best.split.missing_left)
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

/// One held column with the indexes built over it when it arrived (launch
/// or replication), shared by every task over it — and, from launch, by
/// every holder of the column: a clone shares all three parts.
#[derive(Clone)]
pub(crate) struct Held {
    column: SharedColumn,
    sorted: Arc<SortedColumn>,
    /// Quantized bin index of a numeric column in histogram mode.
    binned: Option<Arc<BinnedColumn>>,
}

impl Held {
    /// Presorts the column — and, in histogram mode, bins a numeric column
    /// off the same sort — on this thread: the serial reference for
    /// [`index`].
    #[cfg(test)]
    fn build(column: SharedColumn, hist_bins: Option<usize>) -> Held {
        let (sorted, binned) = match (hist_bins, column.as_numeric()) {
            (Some(bins), Some(v)) => {
                let (sorted, binned) = SortedColumn::from_numeric_binned(v, bins);
                (sorted, Some(binned))
            }
            _ => (SortedColumn::build(&column), None),
        };
        Held::of(column, sorted, binned)
    }

    fn of(column: SharedColumn, sorted: SortedColumn, binned: Option<BinnedColumn>) -> Held {
        Held {
            column,
            sorted: Arc::new(sorted),
            binned: binned.map(Arc::new),
        }
    }

    /// Accounted bytes: the column, plus its compact bin ids in histogram
    /// mode ("most memory is used to hold data columns", Table III). Every
    /// holder is charged in full, whoever else shares the storage: the
    /// model is of machines that each hold their own copy.
    fn bytes(&self) -> usize {
        self.column.payload_bytes() + self.binned.as_ref().map_or(0, |b| b.payload_bytes())
    }
}

/// One column's index build in [`index`]: the buffers the calling thread
/// allocated for it, which a loader fills.
struct Load {
    column: SharedColumn,
    /// Becomes a numeric column's rank.
    rank: Vec<u32>,
    /// Becomes a binned column's `u8` bin ids.
    ids: Vec<u8>,
    /// The sort records of a numeric column, or a categorical column's
    /// codes when they must be sorted; freed once the index is built.
    records: Vec<u64>,
    built: Option<(SortedColumn, Option<BinnedColumn>)>,
}

/// How many elements the buffers of `column`'s index build hold: the rank
/// and the `u8` bin ids, which the index keeps, and the sort records, which
/// it frees.
fn room(column: &Column, hist_bins: Option<usize>) -> [usize; 3] {
    let n = column.len();
    match column {
        Column::Numeric(_) => [
            n,
            hist_bins.map_or(0, |b| BinnedColumn::u8_ids_len(n, b)),
            n,
        ],
        Column::Categorical(c) => [0, 0, SortedColumn::categorical_scratch_len(c)],
    }
}

impl Load {
    /// Builds the index into the buffers, allocating nothing that grows
    /// with the rows (bin budgets of 256 and more aside: their id width is
    /// known only once the cuts are).
    fn fill(&mut self, hist_bins: Option<usize>) {
        let rank = std::mem::take(&mut self.rank);
        let ids = std::mem::take(&mut self.ids);
        let records = &mut self.records;
        self.built = Some(match (&*self.column, hist_bins) {
            (Column::Numeric(v), Some(bins)) => {
                let (sorted, binned) = SortedColumn::numeric_binned_in(v, bins, rank, ids, records);
                (sorted, Some(binned))
            }
            (Column::Numeric(v), None) => (SortedColumn::numeric_in(v, rank, records), None),
            (Column::Categorical(c), _) => (SortedColumn::categorical_in(c, records), None),
        });
    }
}

/// The `Held` of each of `columns`, in order: every column presorted — and,
/// in histogram mode, a numeric one binned off the same sort — on up to one
/// loader thread per available core, as the paper's machines each load
/// their own columns at the same time.
///
/// Every buffer that grows with the rows is allocated on the calling
/// thread, and the loaders only fill it. Memory a short-lived thread
/// allocates stays in that thread's allocator arena, which the client's
/// thread does not reuse once the cluster shuts down: a load whose loaders
/// allocated the indexes measured 4–6 % more peak RSS on a train-then-serve
/// process (CHANGES.md).
///
/// The columns go in rounds of at most one per loader, numeric before
/// categorical. Before a round this thread allocates what the round's
/// indexes keep, then their sort records, which it frees after the round —
/// kept buffers before dropped ones, as [`SortedColumn::numeric_in`] asks.
/// A round's sorts never reach further past what all the indexes keep than
/// one serial sort does, so the build leaves no more free heap above its
/// indexes than a serial build does. The last rounds therefore sort one
/// numeric column each, beside the categorical columns, which a bitmap
/// indexes with no sort. When every round sorted two columns, the build
/// left one more records buffer of free heap resident, and `peak_rss_mb`
/// @ `coltask_exact` read 1 MB higher (docs/PERF.md).
pub(crate) fn index(columns: Vec<SharedColumn>, hist_bins: Option<usize>) -> Vec<Held> {
    let loaders = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rooms: Vec<[usize; 3]> = columns.iter().map(|c| room(c, hist_bins)).collect();
    // In bytes: what a column's index keeps, and what its sort holds.
    let keep = |i: usize| 4 * rooms[i][0] + rooms[i][1];
    let sort = |i: usize| 8 * rooms[i][2];
    let kept_at_end: usize = (0..columns.len()).map(keep).sum();
    let one_sort = (0..columns.len()).map(sort).max().unwrap_or(0);
    let mut pending: Vec<usize> = (0..columns.len()).collect();
    pending.sort_by_key(|&i| columns[i].as_numeric().is_none());
    let mut held: Vec<Option<Held>> = vec![None; columns.len()];
    let mut kept = 0;
    while !pending.is_empty() {
        let mut round = Vec::new();
        let mut sorting = 0;
        pending.retain(|&i| {
            let joins = round.is_empty()
                || (round.len() < loaders
                    && kept + keep(i) + sorting + sort(i) <= kept_at_end + one_sort);
            if joins {
                round.push(i);
                kept += keep(i);
                sorting += sort(i);
            }
            !joins
        });
        let mut loads: Vec<Load> = (round.iter())
            .map(|&i| Load {
                column: columns[i].clone(),
                rank: Vec::with_capacity(rooms[i][0]),
                ids: Vec::with_capacity(rooms[i][1]),
                records: Vec::new(),
                built: None,
            })
            .collect();
        for (load, &i) in loads.iter_mut().zip(&round) {
            load.records = Vec::with_capacity(rooms[i][2]);
        }
        tspar::par_for_each_mut(&mut loads, round.len(), |_, load| load.fill(hist_bins));
        for (&i, load) in round.iter().zip(loads) {
            let (sorted, binned) = load.built.expect("every load is filled");
            held[i] = Some(Held::of(load.column, sorted, binned));
        }
    }
    held.into_iter()
        .map(|h| h.expect("every column is indexed"))
        .collect()
}

/// The resident columns of worker slots `1..=n_slots` (index `w - 1`), as
/// `colmap` places them: a spare slot, which it places nothing on, starts
/// empty. Each column of `table` is indexed once ([`index`]) and every
/// holder shares that `Held`: the table's own column storage and one
/// presorted (and binned) index.
pub(crate) fn residents(
    table: &DataTable,
    colmap: &ColumnMap,
    n_slots: usize,
    hist_bins: Option<usize>,
) -> Vec<HashMap<usize, Held>> {
    let columns = (0..table.n_attrs()).map(|a| table.shared_column(a));
    let built = index(columns.collect(), hist_bins);
    (1..=n_slots)
        .map(|w| {
            (colmap.columns_of(w).into_iter())
                .map(|a| (a, built[a].clone()))
                .collect()
        })
        .collect()
}

/// The held column `attr`: the master only assigns a worker columns it
/// holds, and a holder is only asked for columns it was listed for.
fn held(data: &HashMap<usize, Held>, attr: usize) -> &Held {
    data.get(&attr).expect("worker must hold the column")
}

/// What a worker is, fixed at spawn; the worker, its threads and every
/// snapshot carry a copy.
#[derive(Clone)]
struct Env {
    id: NodeId,
    n_rows: usize,
    work_ns_per_unit: u64,
    task: Task,
    attr_types: Arc<Vec<AttrType>>,
    /// Bin budget for histogram mode; `None` disables bin-index building.
    hist_bins: Option<usize>,
    stats: Arc<NetStats>,
}

impl Env {
    fn alloc(&self, bytes: usize) {
        self.stats.mem_alloc(self.id, bytes);
    }

    fn free(&self, bytes: usize) {
        self.stats.mem_free(self.id, bytes);
    }

    fn n_classes(&self) -> u32 {
        self.task.n_classes().unwrap_or(0)
    }

    /// Sleeps for the modeled compute cost of `units` row-attribute touches
    /// (no-op when the work model is off). See `ClusterConfig::work_ns_per_unit`.
    fn model_work(&self, units: u64) {
        if self.work_ns_per_unit > 0 {
            std::thread::sleep(Duration::from_nanos(
                units.saturating_mul(self.work_ns_per_unit),
            ));
        }
    }
}

/// One worker machine's state.
pub struct Worker {
    env: Env,
    labels: Arc<Labels>,
    /// Every held column by attribute. Copy-on-write, so a snapshot is one
    /// `Arc` clone and an install never waits for a comper.
    data: Arc<HashMap<usize, Held>>,
    tasks: HashMap<TaskId, PendingTask>,
    awaiting: HashMap<TaskId, AwaitingVerdict>,
    delegates: HashMap<TaskId, DelegateEntry>,
    /// `Ix` requests that arrived before `ConfirmBest`, keyed by parent
    /// task.
    parked: HashMap<TaskId, Vec<ParkedIxReq>>,
    /// Trees revoked by fault recovery: results for them are suppressed.
    revoked: HashSet<TreeId>,
    /// Tasks made ready for the comper pool and not yet picked up — the
    /// hunger signal for work stealing.
    ready_backlog: usize,
    /// Tasks on a comper, picked up and not yet resulted; the drain's
    /// "pipeline dry" check needs it alongside `ready_backlog`.
    computing: usize,
    /// One outstanding `StealRequest` at a time; cleared when the master
    /// answers with any plan or an explicit `Donate`.
    steal_outstanding: bool,
    /// Set by the master's `Drain` frame (`ts-elastic`): stop advertising
    /// hunger, finish what is queued, and report `Goodbye` when the local
    /// compute pipeline runs dry. The worker stays fully alive — serving
    /// its data plane — until the master's final `Shutdown`.
    draining: bool,
    /// `Goodbye` is sent exactly once per drain.
    goodbye_sent: bool,
    /// Cleared on `Shutdown`: a silenced machine neither asks for work nor
    /// says goodbye.
    alive: bool,
    /// Frames and ready tasks in the order the handlers made them; the
    /// handler the lock was taken for returns them, for its thread to
    /// deliver.
    out: Vec<Post>,
}

impl Worker {
    /// Creates a worker holding `residents` (attr id → column with its
    /// indexes, see [`residents`]) plus the full label column, and spawns
    /// its threads. Returns the join handles.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        id: NodeId,
        work_ns_per_unit: u64,
        residents: HashMap<usize, Held>,
        labels: Arc<Labels>,
        attr_types: Arc<Vec<AttrType>>,
        task: Task,
        compers: usize,
        fabric_task: Fabric<TaskMsg>,
        fabric_data: Fabric<DataMsg>,
        task_rx: FabricReceiver<TaskMsg>,
        data_rx: FabricReceiver<DataMsg>,
        hist_bins: Option<usize>,
    ) -> Vec<std::thread::JoinHandle<()>> {
        let env = Env {
            id,
            n_rows: labels.len(),
            work_ns_per_unit,
            task,
            attr_types,
            hist_bins,
            stats: Arc::clone(fabric_task.stats()),
        };
        let (machine, ready_rx) = Machine::new(env, residents, labels, fabric_task, fabric_data);
        fn thread(name: String, f: impl FnOnce() + Send + 'static) -> std::thread::JoinHandle<()> {
            (std::thread::Builder::new().name(name).spawn(f)).expect("spawn worker thread")
        }
        let m = machine.clone();
        let mut handles = vec![thread(format!("worker{id}-task"), move || {
            m.task_loop(task_rx, compers)
        })];
        let m = machine.clone();
        handles.push(thread(format!("worker{id}-data"), move || {
            m.data_loop(data_rx)
        }));
        for c in 0..compers {
            let (m, rx) = (machine.clone(), ready_rx.clone());
            handles.push(thread(format!("worker{id}-comper{c}"), move || {
                m.comper_loop(rx)
            }));
        }
        handles
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            env: self.env.clone(),
            labels: Arc::clone(&self.labels),
            data: Arc::clone(&self.data),
        }
    }

    /// Installs freshly-received columns with their indexes, so column-tasks
    /// always find a column and its indexes together under one attr id.
    fn install(&mut self, columns: Vec<(usize, Held)>) {
        let data = Arc::make_mut(&mut self.data);
        for (attr, h) in columns {
            self.env.alloc(h.bytes());
            data.insert(attr, h);
        }
    }

    /// Hands a provisioned task to the comper pool, keeping the ready
    /// backlog in step. A subtree-task's trace span gets its "ready" mark
    /// here: its dataset is assembled, and what follows until a comper picks
    /// it up is queue wait.
    fn make_ready(&mut self, task: ReadyTask) {
        self.ready_backlog += 1;
        if let ReadyTask::Subtree { plan, .. } = &task {
            obs_event!(
                self.env.stats,
                self.env.id,
                ts_obs::Event::SpanReady {
                    span: plan.ctx.span.0,
                    node: self.env.id as u32,
                }
            );
        }
        self.out.push(Post::Ready(task));
    }

    /// When the ready backlog is empty and no request is in flight,
    /// advertise hunger to the master. The request is an accelerator — if
    /// it (or its Donate) is lost, the latch is cleared by the next plan
    /// that arrives anyway.
    fn maybe_request_steal(&mut self) {
        // A draining worker must wind down, not attract more work (the
        // master forgot its deque anyway).
        if !self.alive || self.draining || self.ready_backlog > 0 || self.steal_outstanding {
            return;
        }
        self.steal_outstanding = true;
        obs_event!(
            self.env.stats,
            self.env.id,
            ts_obs::Event::StealRequested {
                worker: self.env.id as u32
            }
        );
        let worker = self.env.id;
        self.out
            .push(Post::Task(0, TaskMsg::StealRequest { worker }));
    }

    /// Drain progress check: once the ready queue and the comper pipeline
    /// are both empty, report `Goodbye` to the master (exactly once). This
    /// is deliberately only a "my compute ran dry" signal — tasks still
    /// parked for `Ix`/columns and the delegate table are in-flight state
    /// the *master* tracks (`touches`), and the worker keeps serving its
    /// data plane until the final `Shutdown` arrives.
    fn maybe_goodbye(&mut self) {
        if self.draining
            && self.alive
            && !self.goodbye_sent
            && self.ready_backlog == 0
            && self.computing == 0
        {
            self.goodbye_sent = true;
            let worker = self.env.id;
            self.out.push(Post::Task(0, TaskMsg::Goodbye { worker }));
        }
    }

    // ------------------------------------------------------------------
    // Task plane (worker θ_main): plans and control messages from master.
    // ------------------------------------------------------------------

    /// A task-plane frame. `ConfirmBest`, `HistFetch` and `LoadColumns`
    /// compute outside the lock and come in through their halves instead
    /// (`Machine::on_task`).
    fn on_task(&mut self, msg: TaskMsg) -> Vec<Post> {
        match msg {
            TaskMsg::ColumnPlan(plan) => self.on_column_plan(plan),
            TaskMsg::SubtreePlan(plan) => self.on_subtree_plan(plan),
            TaskMsg::DropTask { task } => {
                if let Some(av) = self.awaiting.remove(&task) {
                    self.env.free(ix_bytes(&av.ix));
                }
            }
            TaskMsg::ServeQuota { task, side, quota } => self.on_serve_quota(task, side, quota),
            TaskMsg::RevokeTree { tree } => self.on_revoke_tree(tree),
            TaskMsg::LoadLabels { labels } => {
                // Boosting: a fresh target column between rounds, sent once
                // the client has waited for the previous round's job.
                assert_eq!(labels.len(), self.env.n_rows, "label column length");
                self.labels = labels;
            }
            TaskMsg::ReplicateTo { attrs, to, ctx } => {
                let held: Vec<_> = (attrs.into_iter())
                    .map(|a| (a, held(&self.data, a).column.clone()))
                    .collect();
                // The migration span rides the bulk transfer and its
                // eventual ReplicateDone, so retries stay attributed.
                let copy = move || {
                    let columns = held.into_iter().map(|(a, c)| (a, Column::clone(&c)));
                    let columns = columns.collect();
                    DataMsg::ReplicateCols { columns, ctx }
                };
                self.out.push(Post::Copied(to, Box::new(copy)));
            }
            TaskMsg::Drain => {
                self.draining = true;
                // Maybe the pipeline is already dry.
                self.maybe_goodbye();
            }
            TaskMsg::Donate { ctx, .. } => {
                // The master answered our steal request: the stolen
                // task's plan follows on this same FIFO channel. The
                // SpanRecv here is the steal edge in the span DAG.
                obs_event!(
                    self.env.stats,
                    self.env.id,
                    ts_obs::Event::SpanRecv {
                        span: ctx.span.0,
                        node: self.env.id as u32,
                    }
                );
                self.steal_outstanding = false;
            }
            TaskMsg::ConfirmBest { .. }
            | TaskMsg::HistFetch { .. }
            | TaskMsg::LoadColumns { .. }
            | TaskMsg::Shutdown => {
                unreachable!("handled outside the lock by Machine::on_task and the task loop")
            }
            // Master-only messages never reach workers.
            TaskMsg::ColumnResult { .. }
            | TaskMsg::HistNominate { .. }
            | TaskMsg::HistBest { .. }
            | TaskMsg::SubtreeResult { .. }
            | TaskMsg::ReplicateDone { .. }
            | TaskMsg::StealRequest { .. }
            | TaskMsg::Goodbye { .. }
            | TaskMsg::WorkerLost { .. }
            | TaskMsg::Wake => {
                unreachable!("master-bound message delivered to a worker")
            }
        }
        std::mem::take(&mut self.out)
    }

    /// A plan arrived: the master is feeding us again — a lost steal request
    /// (or Donate) must not wedge the hunger signal — and the master's task
    /// span is now live here (cross-machine causality).
    fn plan_arrived(&mut self, ctx: TraceCtx) {
        self.steal_outstanding = false;
        obs_event!(
            self.env.stats,
            self.env.id,
            ts_obs::Event::SpanRecv {
                span: ctx.span.0,
                node: self.env.id as u32,
            }
        );
    }

    fn on_column_plan(&mut self, plan: ColumnPlan) {
        self.plan_arrived(plan.ctx);
        match plan.parent {
            ParentRef::Root => {
                let ready = ReadyTask::Column {
                    plan,
                    ix: RowSet::All,
                };
                self.make_ready(ready);
            }
            parent => {
                self.ask_for_ix(parent, plan.task, plan.tree, plan.ctx);
                self.tasks.insert(plan.task, PendingTask::Column { plan });
            }
        }
    }

    fn on_subtree_plan(&mut self, plan: SubtreePlan) {
        self.plan_arrived(plan.ctx);
        let (me, task, tree, parent, ctx) =
            (self.env.id, plan.task, plan.tree, plan.parent, plan.ctx);
        // One column request per remote holder, in holder order.
        let mut by_holder: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for &(attr, holder) in &plan.col_sources {
            if holder != me {
                by_holder.entry(holder).or_default().push(attr);
            }
        }
        let remote_needed = by_holder.values().map(Vec::len).sum();
        let ix = matches!(parent, ParentRef::Root).then_some(RowSet::All);
        let p = Provisioning {
            plan,
            ix,
            remote_bufs: HashMap::new(),
            remote_needed,
        };
        self.provision(task, p);
        for (holder, attrs) in by_holder {
            let req = DataMsg::ReqCols {
                for_task: task,
                attrs,
                key_worker: me,
                parent,
                tree,
                ctx,
            };
            self.out.push(Post::Data(holder, req));
        }
        self.ask_for_ix(parent, task, tree, ctx);
    }

    /// Asks the parent worker for `for_task`'s half of its parent's rows; a
    /// root task's rows are implicit.
    fn ask_for_ix(&mut self, parent: ParentRef, for_task: TaskId, tree: TreeId, ctx: TraceCtx) {
        if let ParentRef::Node { worker, task, side } = parent {
            let req = DataMsg::ReqIx {
                parent_task: task,
                side,
                requester: self.env.id,
                for_task,
                tree,
                ctx,
            };
            self.out.push(Post::Data(worker, req));
        }
    }

    /// `ConfirmBest`, first half: the master confirmed this worker's
    /// condition as the node's best, so the verdict leaves the table, with a
    /// snapshot to partition `Ix` on — up to the whole table's rows, with the
    /// lock free, so the data loop and the compers do not wait on the one
    /// hop between a node and its children. `None`: revoked while the
    /// verdict was in flight.
    fn take_verdict(&mut self, task: TaskId) -> Option<(AwaitingVerdict, Snapshot)> {
        let av = self.awaiting.remove(&task)?;
        Some((av, self.snapshot()))
    }

    /// `ConfirmBest`, second half: registers the delegate entry of `task`
    /// and answers the `Ix` requests that arrived before it — while the
    /// verdict was on its way or while `Ix` was being partitioned, a request
    /// finds no entry and parks.
    fn install_delegate(
        &mut self,
        task: TaskId,
        av: AwaitingVerdict,
        (l, r): (Vec<u32>, Vec<u32>),
    ) -> Vec<Post> {
        self.env.free(ix_bytes(&av.ix));
        if self.revoked.contains(&av.tree) {
            // Revoked since the verdict was taken out: the revocation
            // dropped the tree's parked requests and saw no entry to
            // drop, so none may appear now.
            return Vec::new();
        }
        self.env.alloc((l.len() + r.len()) * 4);
        let entry = DelegateEntry {
            tree: av.tree,
            sides: [Some(l), Some(r)],
            quota: [None, None],
            served: [0, 0],
        };
        self.delegates.insert(task, entry);
        for (_tree, side, requester, for_task, ctx) in self.parked.remove(&task).unwrap_or_default()
        {
            if let Some(resp) = self.serve_ix(task, side, for_task, ctx) {
                self.out.push(Post::Data(requester, resp));
            }
        }
        std::mem::take(&mut self.out)
    }

    /// `HistFetch`, first half: the master elected one of our nominated
    /// attributes; the retained `Ix` and criterion, with a snapshot to
    /// recount on. `None`: revoked while the election was in flight.
    fn fetch_inputs(&self, task: TaskId) -> Option<(RowSet, Impurity, Snapshot)> {
        let av = self.awaiting.get(&task)?;
        Some((av.ix.clone(), av.imp, self.snapshot()))
    }

    /// `HistFetch`, second half: remember the recounted winning condition
    /// for the `ConfirmBest` that follows on this same FIFO edge, and ship
    /// the full result.
    fn set_hist_winner(
        &mut self,
        task: TaskId,
        best: Option<ColumnTaskBest>,
        ctx: TraceCtx,
    ) -> Vec<Post> {
        let Some(av) = self.awaiting.get_mut(&task) else {
            return Vec::new(); // revoked during the recount: the master forgot us too
        };
        av.winning = best.as_ref().map(winning);
        let worker = self.env.id;
        let best = TaskMsg::HistBest {
            task,
            worker,
            best,
            ctx,
        };
        vec![Post::Task(0, best)]
    }

    fn on_serve_quota(&mut self, task: TaskId, side: Side, quota: u32) {
        if let Some(entry) = self.delegates.get_mut(&task) {
            entry.quota[DelegateEntry::side_idx(side)] = Some(quota);
            let freed = entry.release_satisfied();
            let done = entry.done();
            self.env.free(freed);
            if done {
                self.delegates.remove(&task);
            }
        }
        // A quota for an unknown task means the tree was revoked meanwhile.
    }

    fn on_revoke_tree(&mut self, tree: TreeId) {
        self.revoked.insert(tree);
        let mut freed = 0usize;
        self.tasks.retain(|_, t| {
            if t.tree() == tree {
                freed += t.charged_bytes();
                false
            } else {
                true
            }
        });
        self.awaiting.retain(|_, a| {
            if a.tree == tree {
                freed += ix_bytes(&a.ix);
                false
            } else {
                true
            }
        });
        self.delegates.retain(|_, d| {
            if d.tree == tree {
                freed += d.sides.iter().flatten().map(|s| s.len() * 4).sum::<usize>();
                false
            } else {
                true
            }
        });
        for reqs in self.parked.values_mut() {
            reqs.retain(|&(t, _, _, _, _)| t != tree);
        }
        self.parked.retain(|_, reqs| !reqs.is_empty());
        self.env.free(freed);
    }

    // ------------------------------------------------------------------
    // Data plane (worker θ_recv): worker↔worker data.
    // ------------------------------------------------------------------

    /// A data-plane frame. `ReplicateCols` builds its indexes outside the
    /// lock and comes in through `on_replicated` (`Machine::on_data`).
    fn on_data(&mut self, msg: DataMsg) -> Vec<Post> {
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
                parent: ParentRef::Root,
                ctx,
                ..
            } => self.send_cols(for_task, attrs, key_worker, RowSet::All, ctx),
            DataMsg::ReqCols {
                for_task,
                attrs,
                key_worker,
                parent,
                tree,
                ctx,
            } => {
                if !self.revoked.contains(&tree) {
                    let serve = PendingTask::Serve {
                        tree,
                        attrs,
                        key_worker,
                        ctx,
                    };
                    self.tasks.insert(for_task, serve);
                    self.ask_for_ix(parent, for_task, tree, ctx);
                }
            }
            DataMsg::RespCols {
                for_task,
                attrs,
                bufs,
                ..
            } => self.on_resp_cols(for_task, attrs, bufs),
            DataMsg::ReplicateCols { .. } | DataMsg::Shutdown => {
                unreachable!("handled by Machine::on_data and the data loop")
            }
        }
        std::mem::take(&mut self.out)
    }

    /// The replicated columns are installed: the master may now list this
    /// worker as their holder.
    fn on_replicated(&mut self, columns: Vec<(usize, Held)>, ctx: TraceCtx) -> Vec<Post> {
        let attrs = columns.iter().map(|&(a, _)| a).collect();
        self.install(columns);
        let worker = self.env.id;
        vec![Post::Task(0, TaskMsg::ReplicateDone { attrs, worker, ctx })]
    }

    /// Serves one side of a delegate's `Ix`, or parks the request until the
    /// delegate entry exists.
    fn on_req_ix(&mut self, parent_task: TaskId, req: ParkedIxReq) {
        let (tree, side, requester, for_task, ctx) = req;
        if self.delegates.contains_key(&parent_task) {
            if let Some(resp) = self.serve_ix(parent_task, side, for_task, ctx) {
                self.out.push(Post::Data(requester, resp));
            }
        } else if !self.revoked.contains(&tree) {
            // (A revoked tree's requester was revoked too.)
            self.parked.entry(parent_task).or_default().push(req);
        }
    }

    /// Builds the `RespIx` for one request against the delegate table and
    /// updates serve counters.
    fn serve_ix(
        &mut self,
        parent_task: TaskId,
        side: Side,
        for_task: TaskId,
        ctx: TraceCtx,
    ) -> Option<DataMsg> {
        let idx = DelegateEntry::side_idx(side);
        let entry = self.delegates.get_mut(&parent_task)?;
        let rows = entry.sides[idx]
            .as_ref()
            .expect("side requested after release — master quota was wrong")
            .clone();
        entry.served[idx] += 1;
        let freed = entry.release_satisfied();
        let done = entry.done();
        self.env.free(freed);
        if done {
            self.delegates.remove(&parent_task);
        }
        Some(DataMsg::RespIx {
            for_task,
            rows,
            ctx,
        })
    }

    fn on_resp_ix(&mut self, for_task: TaskId, rows: Vec<u32>) {
        let ix = RowSet::Ids(Arc::new(rows));
        match self.tasks.remove(&for_task) {
            None => {} // revoked
            Some(PendingTask::Column { plan }) => {
                self.env.alloc(ix_bytes(&ix));
                self.make_ready(ReadyTask::Column { plan, ix });
            }
            Some(PendingTask::Subtree(mut p)) => {
                self.env.alloc(ix_bytes(&ix));
                p.ix = Some(ix);
                self.provision(for_task, p);
            }
            Some(PendingTask::Serve {
                attrs,
                key_worker,
                ctx,
                ..
            }) => self.send_cols(for_task, attrs, key_worker, ix, ctx),
        }
    }

    /// Answers a `ReqCols` over `ix`; the columns are gathered once the lock
    /// is dropped.
    fn send_cols(
        &mut self,
        for_task: TaskId,
        attrs: Vec<usize>,
        to: NodeId,
        ix: RowSet,
        ctx: TraceCtx,
    ) {
        let cols: Vec<_> = (attrs.iter())
            .map(|&a| held(&self.data, a).column.clone())
            .collect();
        let n = self.env.n_rows;
        let gather = move || {
            let bufs = cols.iter().map(|c| ix.gather(c, n)).collect();
            DataMsg::RespCols {
                for_task,
                attrs,
                bufs,
                ctx,
            }
        };
        self.out.push(Post::Copied(to, Box::new(gather)));
    }

    fn on_resp_cols(&mut self, for_task: TaskId, attrs: Vec<usize>, bufs: Vec<ValuesBuf>) {
        let Some(PendingTask::Subtree(mut p)) = self.tasks.remove(&for_task) else {
            return; // revoked
        };
        self.env.alloc(bufs_bytes(&bufs));
        p.remote_bufs.extend(attrs.into_iter().zip(bufs));
        self.provision(for_task, p);
    }

    /// Keeps a subtree-task in the task table until `Ix` and every remote
    /// column are in, then hands it to the compers.
    fn provision(&mut self, task: TaskId, p: Provisioning) {
        match p {
            Provisioning {
                plan,
                ix: Some(ix),
                remote_bufs,
                remote_needed,
            } if remote_bufs.len() == remote_needed => {
                let ready = ReadyTask::Subtree {
                    plan,
                    ix,
                    remote_bufs,
                };
                self.make_ready(ready);
            }
            p => {
                self.tasks.insert(task, PendingTask::Subtree(p));
            }
        }
    }

    // ------------------------------------------------------------------
    // Compers.
    // ------------------------------------------------------------------

    /// A comper picked a task up: it leaves the backlog for the pipeline,
    /// and the comper gets the snapshot it computes on.
    fn start(&mut self) -> Snapshot {
        self.ready_backlog -= 1;
        self.computing += 1;
        self.snapshot()
    }

    /// Whether a subtree-task a comper picked up is still wanted; a revoked
    /// tree's buffers are freed instead.
    fn wants_subtree(
        &self,
        tree: TreeId,
        ix: &RowSet,
        remote_bufs: &HashMap<usize, ValuesBuf>,
    ) -> bool {
        if !self.revoked.contains(&tree) {
            return true;
        }
        self.env
            .free(ix_bytes(ix) + bufs_bytes(remote_bufs.values()));
        false
    }

    /// Keeps `Ix` (and the reported winning condition) of a computed
    /// column-task until the master's verdict — before its result goes out,
    /// so `ConfirmBest`, `HistFetch` and `DropTask` can never miss it.
    fn finish_column(&mut self, plan: &ColumnPlan, ix: RowSet, msg: TaskMsg) -> Vec<Post> {
        if self.revoked.contains(&plan.tree) {
            self.env.free(ix_bytes(&ix));
            return Vec::new();
        }
        // A histogram nomination wins no condition until `HistFetch`.
        let winning = match &msg {
            TaskMsg::ColumnResult { best, .. } => best.as_ref().map(winning),
            _ => None,
        };
        let av = AwaitingVerdict {
            tree: plan.tree,
            ix,
            imp: plan.params.impurity,
            winning,
        };
        self.awaiting.insert(plan.task, av);
        vec![Post::Task(0, msg)]
    }

    /// A comper sent its result: the pipeline shrinks, and if that left
    /// the worker idle it asks for work — or, draining, says goodbye.
    fn idle(&mut self) -> Vec<Post> {
        self.computing -= 1;
        self.maybe_request_steal();
        self.maybe_goodbye();
        std::mem::take(&mut self.out)
    }
}

/// The part of a worker a computation reads, taken under the lock as `Arc`
/// handles, so the computation itself runs with the lock free.
struct Snapshot {
    env: Env,
    labels: Arc<Labels>,
    data: Arc<HashMap<usize, Held>>,
}

impl Snapshot {
    fn held(&self, attr: usize) -> &Held {
        held(&self.data, attr)
    }

    fn column_ref(&self, attr: usize) -> ColumnRef<'_> {
        let h = self.held(attr);
        ColumnRef::of_column(&h.column, &h.sorted, self.env.attr_types[attr])
    }

    fn view(&self) -> LabelView<'_> {
        LabelView::of(&self.labels, self.env.n_classes())
    }

    /// The effective prediction task: boosting rounds swap in real-valued
    /// pseudo-targets, turning every tree into a regression tree regardless
    /// of the table's original task.
    fn current_task(&self) -> Task {
        match &*self.labels {
            Labels::Real(_) => Task::Regression,
            Labels::Class(_) => self.env.task,
        }
    }

    /// Runs a comper's computation as this machine's busy time, traced from
    /// pick-up (queue wait ends here) to result.
    fn timed<R>(&self, task: TaskId, ctx: TraceCtx, f: impl FnOnce() -> R) -> R {
        obs_event!(
            self.env.stats,
            self.env.id,
            ts_obs::Event::SpanActive {
                span: ctx.span.0,
                node: self.env.id as u32,
            }
        );
        let t0 = std::time::Instant::now();
        let r = {
            let _busy = BusyGuard::start(&self.env.stats, self.env.id);
            f()
        };
        obs_event!(
            self.env.stats,
            self.env.id,
            ts_obs::Event::TaskComputed {
                task: task.0,
                node: self.env.id as u32,
                busy_ns: t0.elapsed().as_nanos() as u64,
            }
        );
        r
    }

    /// Splits a confirmed task's `Ix` by its winning condition.
    fn partition_ix(&self, av: &AwaitingVerdict) -> (Vec<u32>, Vec<u32>) {
        let (attr, test, missing_left) = av
            .winning
            .as_ref()
            .expect("master confirmed a worker that reported no split");
        let col = &self.held(*attr).column;
        partition_rows(col, &av.ix.to_ids(self.env.n_rows), test, *missing_left)
    }

    /// The category codes a categorical split attribute takes in the node:
    /// the whole-column set is precomputed on the sorted index; subsets scan
    /// the node's rows only.
    fn seen(&self, attr: usize, ix: &RowSet) -> Option<Vec<u32>> {
        let AttrType::Categorical { n_values } = self.env.attr_types[attr] else {
            return None;
        };
        let h = self.held(attr);
        Some(match ix {
            RowSet::All => h.sorted.distinct().to_vec(),
            RowSet::Ids(v) => {
                let codes = (h.column.as_categorical())
                    .expect("categorical winner must be a categorical column");
                distinct_categories_at(codes, NodeRows::Subset(v), n_values)
            }
        })
    }

    /// Runs the exact-split engine over each assigned column for one node,
    /// folding the winners with the canonical tie-break (challenger order is
    /// `plan.cols` order).
    fn best_exact_split(
        &self,
        cols: &[usize],
        node: NodeRows<'_>,
        stats: &NodeStats,
        view: LabelView<'_>,
        imp: Impurity,
    ) -> Option<(usize, ColumnSplit)> {
        let mut best: Option<(usize, SplitCandidate)> = None;
        for &attr in cols {
            if let Some(s) = best_split_at(self.column_ref(attr), node, stats, view, imp) {
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
        best.map(|(attr, s)| (attr, s.finish(self.column_ref(attr), node, view)))
    }

    /// A column-task's result frame for the master.
    fn column_task(&self, plan: &ColumnPlan, ix: &RowSet) -> TaskMsg {
        let n = self.env.n_rows;
        // Both split engines touch every (row, column) pair of the task once,
        // so the modeled compute charge is identical — the histogram path's
        // savings are wire bytes and the extra tree level of candidates the
        // master never has to rank, not scan work.
        self.env
            .model_work(ix.len(n) as u64 * plan.cols.len() as u64);
        if plan.random_seed.is_none() {
            if let Some(conf) = plan.hist {
                return self.hist_column_task(plan, ix, conf);
            }
        }
        let view = self.view();
        let node = ix.as_node_rows(n);
        // Counted once per task: the master's leaf checks read it, and so
        // does the scan of every assigned column.
        let node_stats = node.stats(view);
        let best = match plan.random_seed {
            Some(seed) => {
                // Extra-trees: try this worker's columns in seeded random
                // order, accepting the first random split that separates
                // anything. Random splits draw from the gathered node
                // buffer, so this arm keeps the gather path (and a gathered
                // label view to match).
                let labels = ix.gather_labels(&self.labels, n);
                let gathered_view = LabelView::of(&labels, self.env.n_classes());
                let mut rng = StdRng::seed_from_u64(seed);
                let mut order = plan.cols.clone();
                order.shuffle(&mut rng);
                order.into_iter().find_map(|attr| {
                    let buf = ix.gather(&self.held(attr).column, n);
                    random_split_for_column(&buf, gathered_view, &mut rng).map(|s| (attr, s))
                })
            }
            // Exact splits: run the sorted-column engine over the full
            // resident columns — no per-task gather. `Ix` is always strictly
            // ascending, so the engine's scans visit rows in the same order
            // a gather-then-scan would (see `ts_splits::sorted`).
            None => {
                self.best_exact_split(&plan.cols, node, &node_stats, view, plan.params.impurity)
            }
        };
        let best = best.map(|(attr, split)| ColumnTaskBest {
            attr,
            split,
            seen: self.seen(attr, ix),
        });
        TaskMsg::ColumnResult {
            task: plan.task,
            worker: self.env.id,
            best,
            node_stats,
            ctx: plan.ctx,
        }
    }

    /// One column through the histogram engine over a node's rows: its best
    /// split as a candidate, whose gain is all a nomination reads.
    fn hist_candidate(
        &self,
        attr: usize,
        node: NodeRows<'_>,
        view: LabelView<'_>,
        imp: Impurity,
    ) -> Option<SplitCandidate> {
        let h = self.held(attr);
        let cref =
            HistColumnRef::of_column(&h.column, h.binned.as_deref(), self.env.attr_types[attr]);
        best_hist_split_at(cref, node, view, imp)
    }

    /// Histogram-mode column task (`--splitter hist`): score every assigned
    /// column with the quantized kernel and nominate the local top `vote_k`
    /// candidate gains. The full split of the elected attribute is shipped
    /// only on `HistFetch`.
    fn hist_column_task(&self, plan: &ColumnPlan, ix: &RowSet, conf: HistPlanConf) -> TaskMsg {
        let view = self.view();
        let (node, imp) = (ix.as_node_rows(self.env.n_rows), plan.params.impurity);
        // Only the designated stats shard ships node stats: one copy per
        // task is enough for the master's leaf checks.
        let node_stats = conf.want_stats.then(|| node.stats(view));
        let cands = (plan.cols.iter())
            .filter_map(|&attr| {
                let gain = self.hist_candidate(attr, node, view, imp)?.gain();
                Some(HistCandidate { attr, gain })
            })
            .collect();
        let cands = top_k_candidates(cands, conf.vote_k as usize);
        TaskMsg::HistNominate {
            task: plan.task,
            worker: self.env.id,
            cands: cands.into_iter().map(|c| (c.attr, c.gain)).collect(),
            node_stats,
            ctx: plan.ctx,
        }
    }

    /// Recomputes the elected attribute's full split over the retained `Ix`
    /// — same kernel, same rows, same criterion: the gain is bit-identical
    /// to the nominated one.
    fn hist_recount(&self, ix: &RowSet, imp: Impurity, attr: usize) -> Option<ColumnTaskBest> {
        let _busy = BusyGuard::start(&self.env.stats, self.env.id);
        // The recount is real extra compute the histogram path pays: one
        // column's share of the task's modeled work, a second time.
        self.env.model_work(ix.len(self.env.n_rows) as u64);
        let (view, node) = (self.view(), ix.as_node_rows(self.env.n_rows));
        let best = self.hist_candidate(attr, node, view, imp)?;
        // The one pass over the node's rows a regression split's children
        // cost, for the elected column alone. The condition tests
        // `v <= cuts[b]`, so routing by value is routing by bin.
        let split = best.finish(self.column_ref(attr), node, view);
        Some(ColumnTaskBest {
            attr,
            split,
            seen: self.seen(attr, ix),
        })
    }

    /// A subtree-task's result frame for the master.
    fn subtree_task(
        &self,
        plan: SubtreePlan,
        ix: RowSet,
        mut remote_bufs: HashMap<usize, ValuesBuf>,
    ) -> TaskMsg {
        let n = self.env.n_rows;
        let remote_bytes = bufs_bytes(remote_bufs.values());
        let n_ix = ix.len(n) as u64;
        let log = 64 - n_ix.max(2).leading_zeros() as u64;
        self.env
            .model_work(n_ix * plan.col_sources.len() as u64 * log);
        // Assemble Dx: columns in plan order (sorted by attr id), gathering
        // locally-held columns now. Over `RowSet::All` a local column's copy
        // is the resident column, so its resident presorted index is the
        // copy's index too and is shared instead of sorted again.
        let mut attrs = Vec::with_capacity(plan.col_sources.len());
        let mut types = Vec::with_capacity(plan.col_sources.len());
        let mut columns = Vec::with_capacity(plan.col_sources.len());
        let mut sorted = Vec::with_capacity(plan.col_sources.len());
        let mut local_bytes = 0usize;
        let mut index_bytes = 0usize;
        for &(attr, holder) in &plan.col_sources {
            let local = holder == self.env.id;
            let buf = if local {
                let b = ix.gather(&self.held(attr).column, n);
                local_bytes += b.payload_bytes();
                b
            } else {
                remote_bufs.remove(&attr).expect("remote column buffered")
            };
            sorted.push(if local && matches!(ix, RowSet::All) {
                Arc::clone(&self.held(attr).sorted)
            } else {
                let index = SortedColumn::build_buf(&buf);
                index_bytes += index.payload_bytes();
                Arc::new(index)
            });
            attrs.push(attr);
            types.push(self.env.attr_types[attr]);
            columns.push(buf);
        }
        let labels = ix.gather_labels(&self.labels, n);
        let data =
            LocalDataset::with_indexes(attrs, types, columns, sorted, labels, self.current_task());

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
        // and, for exact training, the trainer's numeric orders.
        let order_bytes = match params.mode {
            TrainMode::Exact => data.order_bytes(),
            TrainMode::ExtraTrees => 0,
        };
        let task_bytes = local_bytes + index_bytes + order_bytes;
        self.env.alloc(task_bytes);
        let subtree = train_subtree(&data, &params, plan.depth, plan.seed);
        drop(data);
        self.env.free(task_bytes + remote_bytes + ix_bytes(&ix));

        TaskMsg::SubtreeResult {
            task: plan.task,
            worker: self.env.id,
            subtree,
            ctx: plan.ctx,
        }
    }
}

/// What a worker's threads share — the worker behind its one lock — and
/// the ends they send on. Handlers return their posts; only a `Machine`
/// delivers them, and only with the lock dropped.
#[derive(Clone)]
struct Machine {
    worker: Arc<Mutex<Worker>>,
    env: Env,
    ends: Ends,
}

impl Machine {
    /// The worker over its built residents, and the receiving end of its
    /// ready queue — no thread yet, so a test can drive the handlers one by
    /// one.
    fn new(
        env: Env,
        data: HashMap<usize, Held>,
        labels: Arc<Labels>,
        fabric_task: Fabric<TaskMsg>,
        fabric_data: Fabric<DataMsg>,
    ) -> (Machine, Receiver<ReadyTask>) {
        // The resident data is the memory baseline of the machine.
        env.alloc(data.values().map(Held::bytes).sum::<usize>() + labels.payload_bytes());
        let worker = Worker {
            env: env.clone(),
            labels,
            data: Arc::new(data),
            tasks: HashMap::new(),
            awaiting: HashMap::new(),
            delegates: HashMap::new(),
            parked: HashMap::new(),
            revoked: HashSet::new(),
            ready_backlog: 0,
            computing: 0,
            steal_outstanding: false,
            draining: false,
            goodbye_sent: false,
            alive: true,
            out: Vec::new(),
        };
        let (ready_tx, ready_rx) = tschan::unbounded();
        let ends = Ends {
            me: env.id,
            task: fabric_task,
            worker: Some((fabric_data, ready_tx)),
        };
        let machine = Machine {
            worker: Arc::new(Mutex::new(worker)),
            env,
            ends,
        };
        (machine, ready_rx)
    }

    /// Indexes columns that arrived ([`index`]) on every core.
    fn build(&self, columns: Vec<(usize, Column)>) -> Vec<(usize, Held)> {
        let (attrs, columns): (Vec<usize>, Vec<SharedColumn>) = (columns.into_iter())
            .map(|(attr, col)| (attr, SharedColumn::owned(col)))
            .unzip();
        attrs
            .into_iter()
            .zip(index(columns, self.env.hist_bins))
            .collect()
    }

    /// One task-plane frame, as the task loop handles it. `ConfirmBest` and
    /// `HistFetch` take what they compute on, compute with the lock free and
    /// install the result; `LoadColumns` builds its indexes before it locks.
    fn on_task(&self, msg: TaskMsg) -> Vec<Post> {
        match msg {
            TaskMsg::ConfirmBest { task } => {
                let Some((av, snap)) = self.worker.lock().take_verdict(task) else {
                    return Vec::new();
                };
                let sides = snap.partition_ix(&av);
                self.worker.lock().install_delegate(task, av, sides)
            }
            TaskMsg::HistFetch { task, attr, ctx } => {
                let Some((ix, imp, snap)) = self.worker.lock().fetch_inputs(task) else {
                    return Vec::new();
                };
                let best = snap.hist_recount(&ix, imp, attr);
                self.worker.lock().set_hist_winner(task, best, ctx)
            }
            TaskMsg::LoadColumns { columns } => {
                let columns = self.build(columns);
                self.worker.lock().install(columns);
                Vec::new()
            }
            msg => self.worker.lock().on_task(msg),
        }
    }

    /// One data-plane frame, as the data loop handles it.
    fn on_data(&self, msg: DataMsg) -> Vec<Post> {
        match msg {
            DataMsg::ReplicateCols { columns, ctx } => {
                let columns = self.build(columns);
                self.worker.lock().on_replicated(columns, ctx)
            }
            msg => self.worker.lock().on_data(msg),
        }
    }

    /// One comper computation: pick-up, compute with the lock free, and —
    /// for a column-task — keep `Ix` for the verdict. The result frame is
    /// returned, not sent.
    fn compute(&self, task: ReadyTask) -> Vec<Post> {
        match task {
            ReadyTask::Column { plan, ix } => {
                let snap = self.worker.lock().start();
                let msg = snap.timed(plan.task, plan.ctx, || snap.column_task(&plan, &ix));
                self.worker.lock().finish_column(&plan, ix, msg)
            }
            ReadyTask::Subtree {
                plan,
                ix,
                remote_bufs,
            } => {
                let (snap, wanted) = {
                    let mut w = self.worker.lock();
                    (w.start(), w.wants_subtree(plan.tree, &ix, &remote_bufs))
                };
                let (task, ctx) = (plan.task, plan.ctx);
                let msg = snap.timed(task, ctx, || {
                    wanted.then(|| snap.subtree_task(plan, ix, remote_bufs))
                });
                msg.map_or_else(Vec::new, |msg| vec![Post::Task(0, msg)])
            }
            ReadyTask::Stop => unreachable!("the comper loop stops on Stop"),
        }
    }

    /// Worker `θ_main`: plans and control messages from the master. When
    /// it ends — at `Shutdown`, or in a panic — its guard stops the compers
    /// and the data loop too.
    fn task_loop(self, rx: FabricReceiver<TaskMsg>, compers: usize) {
        let _exit = Exit {
            machine: &self,
            compers: Some(compers),
        };
        self.ends.serve(&rx, None, |msg| match msg? {
            // Silenced: the compers still running ask for no work and say
            // no goodbye.
            TaskMsg::Shutdown => {
                self.worker.lock().alive = false;
                None
            }
            msg => Some(self.on_task(msg)),
        });
    }

    /// Worker `θ_recv`: the worker↔worker data plane.
    fn data_loop(self, rx: FabricReceiver<DataMsg>) {
        let _exit = Exit::of(&self);
        self.ends.serve(&rx, None, |msg| match msg? {
            DataMsg::Shutdown => None,
            msg => Some(self.on_data(msg)),
        });
    }

    /// A comper: the result goes out before the pipeline shrinks, so a
    /// drain's `Goodbye` always follows every result.
    fn comper_loop(self, rx: Receiver<ReadyTask>) {
        let _exit = Exit::of(&self);
        while let Ok(task) = rx.recv() {
            if matches!(task, ReadyTask::Stop) {
                return;
            }
            self.ends.deliver(self.compute(task));
            let out = self.worker.lock().idle();
            self.ends.deliver(out);
        }
    }
}

/// Held by a worker loop while it runs. Dropped as its thread unwinds
/// from a panic, it sends the master one `WorkerLost`: whatever the thread
/// was doing is lost, and only the master can restart it elsewhere. The
/// task loop's guard also stops the `compers` and the data loop, whichever
/// way the loop ends (self-sends are free and FIFO, so queued data
/// messages drain first).
struct Exit<'a> {
    machine: &'a Machine,
    compers: Option<usize>,
}

impl<'a> Exit<'a> {
    fn of(machine: &'a Machine) -> Exit<'a> {
        Exit {
            machine,
            compers: None,
        }
    }
}

impl Drop for Exit<'_> {
    fn drop(&mut self) {
        let (ends, me) = (&self.machine.ends, self.machine.env.id);
        let (fabric_data, ready_tx) = ends.worker.as_ref().expect("a worker's ends");
        if std::thread::panicking() {
            let _ = (ends.task).send(me, 0, TaskMsg::WorkerLost { worker: me });
        }
        if let Some(compers) = self.compers {
            for _ in 0..compers {
                let _ = ready_tx.send(ReadyTask::Stop);
            }
            let _ = fabric_data.send(me, me, DataMsg::Shutdown);
        }
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
    const PEER: NodeId = 3;
    const TREE: TreeId = TreeId(1);
    const TASK: TaskId = TaskId(10);
    const PARAMS: crate::messages::TreeParams = crate::messages::TreeParams {
        impurity: Impurity::Gini,
        dmax: 4,
        tau_leaf: 1,
        extra_trees: false,
    };

    /// A worker of no threads — its handlers are called here, one by one,
    /// and what they return is read back — holding `columns` as attributes
    /// 0, 1, … of a two-class table labelled `labels`; the table has three
    /// numeric attributes, those it does not hold are held by peers.
    fn worker_of(columns: Vec<Column>, labels: Vec<u32>, hist_bins: Option<usize>) -> Machine {
        let data = (columns.into_iter().enumerate())
            .map(|(attr, c)| (attr, Held::build(SharedColumn::owned(c), hist_bins)))
            .collect();
        machine_of(data, Arc::new(Labels::Class(labels)), hist_bins)
    }

    /// A worker of no threads over built residents of a two-class table
    /// with three numeric attributes.
    fn machine_of(
        data: HashMap<usize, Held>,
        labels: Arc<Labels>,
        hist_bins: Option<usize>,
    ) -> Machine {
        let stats = ts_netsim::NetStats::new(4);
        let net = ts_netsim::NetModel::instant();
        let (fabric_task, _) = Fabric::<TaskMsg>::new(4, net, Arc::clone(&stats));
        let (fabric_data, _) = Fabric::<DataMsg>::new(4, net, Arc::clone(&stats));
        let env = Env {
            id: ME,
            n_rows: labels.len(),
            work_ns_per_unit: 0,
            task: Task::Classification { n_classes: 2 },
            attr_types: Arc::new(vec![AttrType::Numeric; 3]),
            hist_bins,
            stats,
        };
        Machine::new(env, data, labels, fabric_task, fabric_data).0
    }

    /// The address of a column's values.
    fn values_ptr(column: &Column) -> *const u8 {
        match column {
            Column::Numeric(v) => v.as_ptr().cast(),
            Column::Categorical(c) => c.as_ptr().cast(),
        }
    }

    /// A two-class table of eight rows and three numeric attributes, laid
    /// out as a launch lays it out on three workers at replication 2.
    fn launched_residents() -> (DataTable, ColumnMap, Vec<HashMap<usize, Held>>) {
        let schema = ts_datatable::Schema::new(
            (0..3)
                .map(|a| ts_datatable::AttrMeta::numeric(format!("x{a}")))
                .collect(),
            Task::Classification { n_classes: 2 },
        );
        let columns = (0..3)
            .map(|a| Column::Numeric((0..8).map(|r| f64::from((r * (a + 3)) % 8)).collect()))
            .collect();
        let labels = Labels::Class(vec![0, 1, 0, 1, 1, 0, 1, 0]);
        let table = DataTable::new(schema, columns, labels);
        let colmap = ColumnMap::round_robin(3, 3, 2);
        let held = residents(&table, &colmap, 3, Some(4));
        (table, colmap, held)
    }

    #[test]
    fn launched_workers_hold_the_clients_column_storage() {
        let (table, colmap, held) = launched_residents();
        for (w, data) in (1..).zip(&held) {
            let mut attrs: Vec<usize> = data.keys().copied().collect();
            attrs.sort_unstable();
            assert_eq!(attrs, colmap.columns_of(w));
            for (&a, h) in data {
                assert_eq!(
                    values_ptr(&h.column),
                    values_ptr(table.column(a)),
                    "worker {w} holds a copy of column {a}"
                );
            }
        }
        // A worker made of them holds them as they are, labels included.
        let m = machine_of(held[0].clone(), table.shared_labels(), Some(4));
        let w = m.worker.lock();
        for (&a, h) in w.data.iter() {
            assert_eq!(values_ptr(&h.column), values_ptr(table.column(a)));
        }
        assert!(Arc::ptr_eq(&w.labels, &table.shared_labels()));
    }

    #[test]
    fn both_holders_of_a_column_share_one_index() {
        let (table, colmap, held) = launched_residents();
        for a in 0..table.n_attrs() {
            let [first, second] = colmap.holders(a) else {
                panic!("replication 2");
            };
            let (x, y) = (&held[first - 1][&a], &held[second - 1][&a]);
            assert!(
                Arc::ptr_eq(&x.sorted, &y.sorted),
                "column {a} is presorted twice"
            );
            // The rank alone: 4 B a row, no order beside it.
            assert_eq!(x.sorted.payload_bytes(), 4 * table.n_rows(), "column {a}");
            let (bx, by) = (x.binned.as_ref(), y.binned.as_ref());
            assert!(
                Arc::ptr_eq(bx.expect("binned"), by.expect("binned")),
                "column {a} is binned twice"
            );
        }
    }

    #[test]
    fn the_parallel_build_gives_every_holder_the_serial_index() {
        // Numeric and categorical columns interleaved, more of them than
        // loaders: missing values, a constant column, coarse ties, and
        // codes at and above the row count (the sorted categorical path).
        let n = 3_000;
        let num = |f: &dyn Fn(usize) -> f64| Column::Numeric((0..n).map(f).collect());
        let cat = |f: &dyn Fn(usize) -> u32| Column::Categorical((0..n).map(f).collect());
        let columns = vec![
            num(&|r| ((r * 7919) % 1000) as f64 / 8.0),
            cat(&|r| [3, 0, ts_datatable::MISSING_CAT, 5][r % 4]),
            num(&|r| {
                if r % 5 == 0 {
                    f64::NAN
                } else {
                    (r % 13) as f64
                }
            }),
            num(&|_| 4.25),
            cat(&|r| {
                if r % 3 == 0 {
                    7_000 + (r % 2) as u32
                } else {
                    (r % 9) as u32
                }
            }),
            num(&|r| ((r * 31) % 2_999) as f64 * -1e-3),
            num(&|r| {
                if r % 2 == 0 {
                    f64::NAN
                } else {
                    (r / 100) as f64
                }
            }),
        ];
        let schema = ts_datatable::Schema::new(
            (columns.iter().enumerate())
                .map(|(a, c)| match c {
                    Column::Numeric(_) => ts_datatable::AttrMeta::numeric(format!("x{a}")),
                    Column::Categorical(_) => {
                        ts_datatable::AttrMeta::categorical(format!("x{a}"), 7_002)
                    }
                })
                .collect(),
            Task::Classification { n_classes: 2 },
        );
        let labels = Labels::Class((0..n).map(|r| (r % 2) as u32).collect());
        let table = DataTable::new(schema, columns, labels);
        for bins in [None, Some(16), Some(300)] {
            for replication in [1, 2] {
                let colmap = ColumnMap::round_robin(table.n_attrs(), 3, replication);
                let held = residents(&table, &colmap, 3, bins);
                for (w, data) in (1..).zip(&held) {
                    assert_eq!(data.len(), colmap.columns_of(w).len());
                    for (&a, h) in data {
                        let serial = Held::build(table.shared_column(a), bins);
                        let at = format!("column {a} on worker {w}, bins {bins:?}");
                        assert_eq!(values_ptr(&h.column), values_ptr(table.column(a)), "{at}");
                        assert_eq!(*h.sorted, *serial.sorted, "{at}");
                        assert_eq!(h.binned, serial.binned, "{at}");
                    }
                }
            }
        }
    }

    /// Eight rows: attribute 0 separates the classes at 4.5; attribute 1
    /// separates them less well, and differently.
    fn eight_row_worker(hist_bins: Option<usize>) -> Machine {
        let x0 = Column::Numeric((1..=8).map(f64::from).collect());
        let x1 = Column::Numeric(vec![1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 8.0, 4.0]);
        worker_of(vec![x0, x1], vec![0, 0, 0, 0, 1, 1, 1, 1], hist_bins)
    }

    fn root_column_plan(task: u64, hist: Option<HistPlanConf>) -> TaskMsg {
        column_plan(task, ParentRef::Root, hist)
    }

    fn column_plan(task: u64, parent: ParentRef, hist: Option<HistPlanConf>) -> TaskMsg {
        TaskMsg::ColumnPlan(ColumnPlan {
            task: TaskId(task),
            tree: TREE,
            cols: vec![0, 1],
            parent,
            n_rows: 8,
            depth: 0,
            params: PARAMS,
            random_seed: None,
            hist,
            ctx: TraceCtx::NONE,
        })
    }

    /// A subtree-task keyed on `ME` that needs attribute 1 from `REQUESTER`,
    /// attribute 2 from `PEER`, and its rows from a parent worker.
    fn child_subtree_plan(task: u64, tree: TreeId) -> TaskMsg {
        TaskMsg::SubtreePlan(SubtreePlan {
            task: TaskId(task),
            tree,
            col_sources: vec![(0, ME), (1, REQUESTER), (2, PEER)],
            parent: ParentRef::Node {
                worker: PEER,
                task: TASK,
                side: Side::Left,
            },
            n_rows: 4,
            depth: 1,
            params: PARAMS,
            seed: 0,
            ctx: TraceCtx::NONE,
        })
    }

    fn rows_arrive(m: &Machine, task: u64, rows: Vec<u32>) -> Vec<Post> {
        m.on_data(DataMsg::RespIx {
            for_task: TaskId(task),
            rows,
            ctx: TraceCtx::NONE,
        })
    }

    fn column_arrives(m: &Machine, task: u64, attr: usize, values: Vec<f64>) -> Vec<Post> {
        m.on_data(DataMsg::RespCols {
            for_task: TaskId(task),
            attrs: vec![attr],
            bufs: vec![ValuesBuf::Numeric(values)],
            ctx: TraceCtx::NONE,
        })
    }

    /// The comper tasks of `out`, in order.
    fn ready_in(out: Vec<Post>) -> Vec<ReadyTask> {
        (out.into_iter())
            .filter_map(|p| match p {
                Post::Ready(task) => Some(task),
                _ => None,
            })
            .collect()
    }

    /// The task-plane frames of `out`, in order.
    fn to_master(out: Vec<Post>) -> Vec<TaskMsg> {
        (out.into_iter())
            .map(|f| match f {
                Post::Task(0, msg) => msg,
                _ => panic!("expected only task-plane frames"),
            })
            .collect()
    }

    /// The `RespIx` rows `out` sends to `REQUESTER`, if any.
    fn rows_for_requester(out: &[Post]) -> Option<&[u32]> {
        match out {
            [] => None,
            [Post::Data(REQUESTER, DataMsg::RespIx { rows, .. })] => Some(rows),
            _ => panic!("expected one RespIx to the requester"),
        }
    }

    fn ask_for_the_left_rows(m: &Machine) -> Vec<Post> {
        m.on_data(DataMsg::ReqIx {
            parent_task: TASK,
            side: Side::Left,
            requester: REQUESTER,
            for_task: TaskId(11),
            tree: TREE,
            ctx: TraceCtx::NONE,
        })
    }

    /// A worker that holds column 0 of a six-row table and has reported
    /// `x <= 2.5` for `TASK` over all rows.
    fn worker_awaiting_a_verdict() -> Machine {
        let column = Column::Numeric(vec![1.0, 4.0, 2.0, 5.0, f64::NAN, 3.0]);
        let m = worker_of(vec![column], vec![0, 1, 0, 1, 0, 1], None);
        m.worker.lock().awaiting.insert(
            TASK,
            AwaitingVerdict {
                tree: TREE,
                ix: RowSet::All,
                imp: Impurity::Gini,
                winning: Some((0, SplitTest::NumericLe(2.5), true)),
            },
        );
        m
    }

    /// `ConfirmBest` as `Machine::on_task` runs it, stopped between taking
    /// the verdict out and registering the delegate entry — where `Ix` is
    /// partitioned with the lock free — to let `in_the_gap` happen.
    fn confirm_best_with(m: &Machine, in_the_gap: impl FnOnce()) -> Vec<Post> {
        let (av, snap) = m.worker.lock().take_verdict(TASK).expect("verdict");
        let sides = snap.partition_ix(&av);
        in_the_gap();
        m.worker.lock().install_delegate(TASK, av, sides)
    }

    #[test]
    fn ix_request_in_the_partition_gap_parks_and_is_replayed() {
        let m = worker_awaiting_a_verdict();
        let out = confirm_best_with(&m, || {
            let out = ask_for_the_left_rows(&m);
            assert!(rows_for_requester(&out).is_none(), "no entry yet: parked");
            assert_eq!(m.worker.lock().parked[&TASK].len(), 1);
        });
        // Rows 0 and 2 pass the test; row 4 is missing and goes left.
        assert_eq!(rows_for_requester(&out), Some(&[0, 2, 4][..]));
        let w = m.worker.lock();
        assert!(w.parked.is_empty() && w.awaiting.is_empty());
        assert_eq!(w.delegates[&TASK].served, [1, 0]);
    }

    #[test]
    fn revoke_in_the_partition_gap_leaves_no_delegate_entry() {
        let m = worker_awaiting_a_verdict();
        let out = confirm_best_with(&m, || {
            ask_for_the_left_rows(&m);
            m.on_task(TaskMsg::RevokeTree { tree: TREE });
        });
        assert!(out.is_empty());
        {
            let w = m.worker.lock();
            assert!(
                w.delegates.is_empty(),
                "a revoked tree got a delegate entry"
            );
            assert!(w.parked.is_empty() && w.awaiting.is_empty());
        }
        // A later request for the dead tree is dropped, not parked for ever.
        assert!(ask_for_the_left_rows(&m).is_empty());
        assert!(m.worker.lock().parked.is_empty());
    }

    #[test]
    fn one_steal_request_until_a_plan_or_a_donate_clears_the_latch() {
        let m = eight_row_worker(None);
        let is_steal = |out: Vec<Post>| match &to_master(out)[..] {
            [] => false,
            [TaskMsg::StealRequest { worker: ME }] => true,
            other => panic!("expected a StealRequest or nothing, got {other:?}"),
        };
        // Four compers pick up four tasks and compute them: the backlog is
        // empty, the pipeline is four deep.
        let ready: Vec<ReadyTask> = (1..=4)
            .flat_map(|t| ready_in(m.on_task(root_column_plan(t, None))))
            .collect();
        for task in ready {
            assert!(matches!(
                to_master(m.compute(task))[..],
                [TaskMsg::ColumnResult { .. }]
            ));
        }
        assert!(
            is_steal(m.worker.lock().idle()),
            "the first idle comper asks"
        );
        assert!(!is_steal(m.worker.lock().idle()), "one request outstanding");
        let donate = TaskMsg::Donate {
            task: TaskId(9),
            victim: PEER,
            ctx: TraceCtx::NONE,
        };
        assert!(m.on_task(donate).is_empty());
        assert!(
            is_steal(m.worker.lock().idle()),
            "the Donate cleared the latch"
        );
        for task in ready_in(m.on_task(root_column_plan(5, None))) {
            m.compute(task);
        }
        assert!(
            is_steal(m.worker.lock().idle()),
            "the plan cleared the latch"
        );
        assert!(!is_steal(m.worker.lock().idle()), "one request outstanding");
    }

    #[test]
    fn drain_sends_exactly_one_goodbye() {
        let is_goodbye = |msgs: Vec<TaskMsg>| match &msgs[..] {
            [] => false,
            [TaskMsg::Goodbye { worker: ME }] => true,
            other => panic!("expected a Goodbye or nothing, got {other:?}"),
        };
        // The pipeline is already dry when the Drain arrives.
        let m = eight_row_worker(None);
        assert!(is_goodbye(to_master(m.on_task(TaskMsg::Drain))));
        assert!(!is_goodbye(to_master(m.on_task(TaskMsg::Drain))));

        // Two tasks are queued: the Goodbye follows the last result.
        let m = eight_row_worker(None);
        let mut ready: Vec<ReadyTask> = (1..=2)
            .flat_map(|t| ready_in(m.on_task(root_column_plan(t, None))))
            .collect();
        assert!(!is_goodbye(to_master(m.on_task(TaskMsg::Drain))));
        let second = ready.pop().expect("two ready tasks");
        assert!(matches!(
            to_master(m.compute(ready.remove(0)))[..],
            [TaskMsg::ColumnResult { .. }]
        ));
        assert!(
            !is_goodbye(to_master(m.worker.lock().idle())),
            "one task still queued"
        );
        assert!(matches!(
            to_master(m.compute(second))[..],
            [TaskMsg::ColumnResult { .. }]
        ));
        assert!(is_goodbye(to_master(m.worker.lock().idle())));
        assert!(!is_goodbye(to_master(m.on_task(TaskMsg::Drain))));
    }

    #[test]
    fn hist_fetch_then_confirm_best_partitions_by_the_recounted_winner() {
        let m = eight_row_worker(Some(4));
        let conf = HistPlanConf {
            bins: 4,
            vote_k: 2,
            want_stats: true,
        };
        let task = ready_in(m.on_task(root_column_plan(TASK.0, Some(conf))))
            .into_iter()
            .next()
            .expect("a root plan is ready at once");
        match &to_master(m.compute(task))[..] {
            [TaskMsg::HistNominate { cands, .. }] => assert_eq!(cands.len(), 2),
            other => panic!("expected a nomination, got {other:?}"),
        }
        assert!(m.worker.lock().awaiting[&TASK].winning.is_none());
        // The master elects attribute 1 — not the one that splits best.
        let fetch = TaskMsg::HistFetch {
            task: TASK,
            attr: 1,
            ctx: TraceCtx::NONE,
        };
        let best = match to_master(m.on_task(fetch)).pop() {
            Some(TaskMsg::HistBest {
                best: Some(best), ..
            }) => best,
            other => panic!("expected the elected split, got {other:?}"),
        };
        assert_eq!(best.attr, 1);
        assert!(m.on_task(TaskMsg::ConfirmBest { task: TASK }).is_empty());
        let all: Vec<u32> = (0..8).collect();
        let x = |attr: usize| m.worker.lock().data[&attr].column.clone();
        let (left, _) = partition_rows(&x(1), &all, &best.split.test, best.split.missing_left);
        let (left_by_0, _) = partition_rows(&x(0), &all, &best.split.test, best.split.missing_left);
        assert_ne!(
            left, left_by_0,
            "the attributes must disagree for the test to mean anything"
        );
        assert_eq!(
            rows_for_requester(&ask_for_the_left_rows(&m)),
            Some(&left[..])
        );
    }

    #[test]
    fn ix_and_columns_arriving_after_a_revoke_promote_nothing() {
        let m = eight_row_worker(None);
        let parent = ParentRef::Node {
            worker: PEER,
            task: TASK,
            side: Side::Right,
        };
        assert!(ready_in(m.on_task(column_plan(21, parent, None))).is_empty());
        assert!(ready_in(m.on_task(child_subtree_plan(20, TREE))).is_empty());
        m.on_task(TaskMsg::RevokeTree { tree: TREE });
        for out in [
            rows_arrive(&m, 20, vec![0, 1, 2, 3]),
            rows_arrive(&m, 21, vec![4, 5, 6, 7]),
            column_arrives(&m, 20, 1, vec![1.0, 5.0, 2.0, 6.0]),
            column_arrives(&m, 20, 2, vec![0.0; 4]),
        ] {
            assert!(out.is_empty());
        }
        let w = m.worker.lock();
        assert!(w.tasks.is_empty());
        assert_eq!(w.ready_backlog, 0);
    }

    #[test]
    fn revoking_a_half_provisioned_subtree_task_frees_its_buffers() {
        let m = eight_row_worker(None);
        let peak = || m.env.stats.snapshot(ME).mem_peak;
        // `Ix` and one of the two remote columns arrive; the task waits on.
        let provision = |task: u64, tree: TreeId| {
            m.on_task(child_subtree_plan(task, tree));
            assert!(ready_in(rows_arrive(&m, task, vec![0, 1, 2, 3])).is_empty());
            assert!(ready_in(column_arrives(&m, task, 1, vec![1.0, 5.0, 2.0, 6.0])).is_empty());
        };
        provision(20, TreeId(1));
        let first = peak();
        m.on_task(TaskMsg::RevokeTree { tree: TreeId(1) });
        provision(21, TreeId(2));
        assert_eq!(
            peak(),
            first,
            "the revoked task's Ix and column stayed charged"
        );
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
