//! The task-lifecycle event taxonomy.
//!
//! Every variant is `Copy` and contains only scalars: records are written
//! into the lock-free ring with a plain memory copy and read back with a
//! seqlock validation, so they must be trivially movable and must not own
//! heap data. Identifiers are the engine's `TaskId.0` / `TreeId.0` / job
//! counters widened or narrowed to plain integers.

/// Which end of the `Bplan` deque a plan was pushed to (paper §III: head =
/// depth-first, tail = breadth-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeEnd {
    /// `push_front` — the task's `|Dx| <= τ_dfs`.
    Head,
    /// `push_back` — breadth-first.
    Tail,
}

use crate::span::SpanKind;

/// One task-lifecycle event. See `docs/OBSERVABILITY.md` for the taxonomy
/// and how each variant maps onto the Chrome-trace export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A span was allocated at the master. `parent == 0` marks a trace
    /// root (a job span, whose id doubles as the trace id).
    SpanOpen {
        /// The trace (root job span id) this span belongs to.
        trace: u64,
        /// The new span's id.
        span: u64,
        /// The causally-parenting span (0 for trace roots).
        parent: u64,
        /// What work the span covers.
        kind: SpanKind,
        /// The engine id of the subject: the job id for jobs, `TaskId.0`
        /// for plans and tasks.
        subject: u64,
    },
    /// A machine received the frame that carries this span's work — the
    /// cross-machine handoff edge of the DAG.
    SpanRecv {
        /// The span.
        span: u64,
        /// The receiving machine.
        node: u32,
    },
    /// The span's work has everything it needs and entered its machine's
    /// ready queue: a subtree-task's dataset is assembled (all `ReqCols` /
    /// `ReqIx` answered). Separates data assembly from waiting for a comper.
    SpanReady {
        /// The span.
        span: u64,
        /// The machine holding the ready work.
        node: u32,
    },
    /// Work on the span left its queue and started executing (a comper
    /// picked the task up; the master popped the plan for assignment).
    SpanActive {
        /// The span.
        span: u64,
        /// The executing machine.
        node: u32,
    },
    /// The span's work is complete and folded at the master.
    SpanClose {
        /// The span.
        span: u64,
    },
    /// A job entered the master's registry.
    JobSubmitted {
        /// The job id (`JobHandle.0`).
        job: u64,
    },
    /// The job's last tree landed and the client was notified.
    JobFinished {
        /// The job id.
        job: u64,
    },
    /// A column-task shard was shipped to a worker (one event per shard).
    ColumnTaskDispatched {
        /// The task id.
        task: u64,
        /// The worker the shard goes to.
        node: u32,
        /// Number of columns in the shard.
        cols: u32,
        /// Wire bytes of the plan message.
        bytes: u64,
    },
    /// A column-task shard result arrived back at the master.
    ColumnTaskCompleted {
        /// The task id.
        task: u64,
        /// The reporting worker.
        node: u32,
        /// Master-side dispatch-to-result latency.
        latency_ns: u64,
    },
    /// A subtree-task was delegated to its key worker.
    SubtreeTaskDelegated {
        /// The task id.
        task: u64,
        /// The chosen key worker.
        key_worker: u32,
        /// `|Dx|` at handoff.
        rows: u64,
    },
    /// A completed subtree arrived back at the master.
    SubtreeTaskBuilt {
        /// The task id.
        task: u64,
        /// The key worker that built it.
        node: u32,
        /// Node count of the returned subtree.
        nodes: u32,
        /// Master-side delegation-to-result latency.
        latency_ns: u64,
    },
    /// A plan entered `Bplan` (head = DFS, tail = BFS, Fig. 5).
    BplanPush {
        /// Which end of the deque.
        end: DequeEnd,
        /// Node depth of the pushed plan.
        depth: u32,
        /// `|Dx|` of the pushed plan.
        rows: u64,
        /// Deque length right after the push.
        qlen: u32,
    },
    /// The master confirmed a task's overall best split.
    SplitChosen {
        /// The task id.
        task: u64,
        /// The winning (delegate) worker.
        node: u32,
        /// The winning attribute.
        attr: u32,
        /// The winning split's gain.
        gain: f64,
    },
    /// A comper finished the compute phase of a task (column or subtree).
    TaskComputed {
        /// The task id.
        task: u64,
        /// The computing worker.
        node: u32,
        /// Busy time of the computation.
        busy_ns: u64,
    },
    /// A worker was declared dead (fault injection / send failure).
    WorkerCrashed {
        /// The dead worker.
        node: u32,
    },
    /// A re-replication target finished loading a crashed worker's columns.
    WorkerRecovered {
        /// The worker now holding the columns.
        node: u32,
    },
    /// A fault plan dropped a transmission in transit (the receiver never
    /// sees this copy; a `RetrySent` follows). Replayable: the same plan seed drops the same
    /// `(from, to, seq)`.
    MessageDropped {
        /// Sender machine.
        from: u32,
        /// Intended receiver.
        to: u32,
        /// The transmission's sequence number on the `(from, to)` edge.
        seq: u64,
    },
    /// A fault plan delayed a message before delivery.
    MessageDelayed {
        /// Sender machine.
        from: u32,
        /// Receiver machine.
        to: u32,
        /// The transmission's sequence number on the `(from, to)` edge.
        seq: u64,
        /// The injected extra delay.
        delay_ns: u64,
    },
    /// A sender waited one retransmission timeout after a dropped
    /// transmission and is sending the message again.
    RetrySent {
        /// Sender machine.
        from: u32,
        /// Receiver machine.
        to: u32,
        /// The dropped transmission's sequence number on the `(from, to)`
        /// edge (the `seq` of the `MessageDropped` it answers).
        seq: u64,
        /// Retransmission attempt (1 = first retry).
        attempt: u32,
        /// The span of the payload being retransmitted (0 for spanless
        /// frames); a retry stays attributed to the originating span.
        span: u64,
    },
    /// A fault plan duplicated a transmission: both copies were charged and
    /// paced, the receiver got one.
    DupDropped {
        /// The receiver the second copy was meant for.
        node: u32,
        /// The frame's sender.
        from: u32,
        /// The transmission's sequence number on the `(from, node)` edge.
        seq: u64,
        /// The span of the discarded payload (0 for spanless frames).
        span: u64,
    },
    /// The suspicion timer of a crash the fault plan injected fired: the
    /// worker has been silent for `heartbeat_miss_threshold` intervals.
    /// Recorded once per injected crash, just before `WorkerSuspected`.
    HeartbeatMissed {
        /// The silent worker.
        worker: u32,
        /// The intervals it was silent for: the threshold.
        missed: u64,
    },
    /// The master declares a worker dead — its suspicion timer fired or its
    /// drain outlived the grace window — and starts crash recovery.
    WorkerSuspected {
        /// The suspected worker.
        worker: u32,
    },
    /// A fault plan triggered a worker crash (followed by the engine's
    /// `WorkerCrashed` / recovery events).
    CrashInjected {
        /// The worker being killed.
        node: u32,
        /// The global subtree-delegation count at which the plan fired.
        at_delegation: u64,
    },
    /// A sampled fabric send (one event per `net_sample_every` sends).
    NetSend {
        /// Sender machine.
        from: u32,
        /// Receiver machine.
        to: u32,
        /// Payload bytes of this message.
        bytes: u64,
    },
    /// A boosting round started (client-side, see `treeserver::gbt`).
    GbtRound {
        /// The round index.
        round: u32,
    },
    /// A worker's ready queue ran dry and it asked the scheduler to steal
    /// on its behalf (`ts-sched` stealing mode, see `docs/SCHEDULING.md`).
    StealRequested {
        /// The idle worker.
        worker: u32,
    },
    /// The scheduler stole a queued plan from `victim`'s affinity deque
    /// and dispatched it on `thief`'s behalf.
    PlanStolen {
        /// The stolen task (`TaskId.0`).
        task: u64,
        /// The worker whose deque lost the plan.
        victim: u32,
        /// The idle worker that requested the steal.
        thief: u32,
    },
    /// The master admitted a spare slot at its scripted join: it is now in
    /// the roster and its column migration is under way (`ts-elastic` membership, see `docs/ELASTICITY.md`).
    WorkerJoined {
        /// The joining worker.
        node: u32,
    },
    /// The master told a worker to drain ahead of a scripted preemption:
    /// no new plans flow to it, its queued plans were reclaimed, and its
    /// columns are being handed off within the grace window.
    WorkerDraining {
        /// The draining worker.
        node: u32,
    },
    /// A draining worker finished handing off and was retired gracefully —
    /// after its `Goodbye`, without invoking crash recovery.
    WorkerDeparted {
        /// The departed worker.
        node: u32,
    },
    /// One column finished migrating between holders as part of a join
    /// top-up or a pre-departure handoff (not crash re-replication).
    ColumnMigrated {
        /// The migrated attribute.
        attr: u32,
        /// The holder that served the copy.
        from: u32,
        /// The new holder.
        to: u32,
    },
}

/// An [`Event`] stamped with its monotonic record time and the machine whose
/// ring it was written to (the *observing* machine; subject machines are in
/// the event fields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// The ring (machine) the event was recorded on.
    pub node: u32,
    /// The event.
    pub event: Event,
}
