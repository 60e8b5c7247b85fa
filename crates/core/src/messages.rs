//! The wire protocol: task-channel and data-channel messages.
//!
//! Two planes, as in the paper's Fig. 6:
//!
//! - **Task channel** (master ↔ workers): plans out, results back, plus the
//!   §V control messages (`ConfirmBest`, `DropTask`, `ServeQuota`).
//! - **Data channel** (worker ↔ worker): `Ix` requests served by parent
//!   workers and column-data requests served by column holders. The master
//!   never appears on this plane — that is the whole point of §V.
//!
//! Every message reports an approximate serialized size so the fabric can
//! account and pace it.
//!
//! Task- and data-plane frames that belong to a training job also carry a
//! [`TraceCtx`] — the id of the master-allocated span that originated the
//! work — as a plain (never feature-gated) field: context propagation is
//! part of the wire protocol, so a worker can causally parent its events
//! to the master's delegation across machines, and the fabric can
//! attribute retransmissions and duplicates to the same span
//! (see `docs/PROTOCOL.md` and `docs/OBSERVABILITY.md`). The context is
//! carried out in plans, copied by workers into their data-plane requests,
//! and echoed back on results. It does not count toward `wire_bytes`: two
//! u64s ride inside the 24-byte frame header the sizes already charge.

use crate::ids::{ParentRef, Side, TaskId, TreeId};
use ts_datatable::Column;
use ts_netsim::{NodeId, WireSized};
use ts_obs::TraceCtx;
use ts_splits::exact::ColumnSplit;
use ts_splits::impurity::NodeStats;
use ts_splits::{Impurity, SplitTest};
use ts_tree::{DecisionTreeModel, Prediction};

/// Per-tree training parameters carried inside plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Impurity function for split scoring.
    pub impurity: Impurity,
    /// Maximum node depth (`u32::MAX` = unbounded).
    pub dmax: u32,
    /// Leaf threshold `τ_leaf`.
    pub tau_leaf: u64,
    /// `true` for completely-random (extra-trees) splits.
    pub extra_trees: bool,
}

/// Histogram-mode parameters of a column-task shard (`--splitter hist`,
/// see `docs/HISTOGRAM.md`). Present on a `ColumnPlan` only when the
/// cluster runs the quantized histogram splitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistPlanConf {
    /// Bin budget the worker's load-time `BinnedColumn` indices were built
    /// with (workers assert it matches; cuts are never shipped per task).
    pub bins: u32,
    /// How many top `(attr, gain)` candidates to nominate.
    pub vote_k: u32,
    /// Exactly one shard per task is designated to carry the node's label
    /// statistics in its nomination — the others omit them, which is where
    /// most of the byte saving over the exact path comes from.
    pub want_stats: bool,
}

/// A plan for a column-task shard: "evaluate these columns of node `x`".
#[derive(Debug, Clone)]
pub struct ColumnPlan {
    /// The task this shard belongs to.
    pub task: TaskId,
    /// The tree under construction.
    pub tree: TreeId,
    /// Attribute ids this worker must evaluate (it holds all of them).
    pub cols: Vec<usize>,
    /// Where to fetch `Ix`.
    pub parent: ParentRef,
    /// `|Dx|` (known from the parent's split counters, §V).
    pub n_rows: u64,
    /// Node depth.
    pub depth: u32,
    /// Training parameters of the tree.
    pub params: TreeParams,
    /// Extra-trees only: the seed for the random split draw.
    pub random_seed: Option<u64>,
    /// Histogram-mode parameters (`None`: exact sorted-scan scoring).
    pub hist: Option<HistPlanConf>,
    /// The column-task span this plan shard carries (all shards of a task
    /// share it).
    pub ctx: TraceCtx,
}

/// A plan for a subtree-task: "collect `Dx` and build `∆x`".
#[derive(Debug, Clone)]
pub struct SubtreePlan {
    /// The task id.
    pub task: TaskId,
    /// The tree under construction.
    pub tree: TreeId,
    /// For every candidate column, the worker to request it from (computed
    /// by the master's §VI assignment; sorted by attribute id).
    pub col_sources: Vec<(usize, NodeId)>,
    /// Where to fetch `Ix`.
    pub parent: ParentRef,
    /// `|Dx|`.
    pub n_rows: u64,
    /// Node depth (the local trainer's base depth).
    pub depth: u32,
    /// Training parameters of the tree.
    pub params: TreeParams,
    /// Seed for extra-trees randomness inside the subtree.
    pub seed: u64,
    /// The subtree-task span this delegation carries.
    pub ctx: TraceCtx,
}

/// The best split one worker found among its assigned columns, with the
/// `|Ixl|`/`|Ixr|` counters and child statistics the paper sends back so the
/// master can type the child tasks without ever seeing `Ix` (§V).
#[derive(Debug, Clone)]
pub struct ColumnTaskBest {
    /// The winning attribute (among this worker's assigned columns).
    pub attr: usize,
    /// The split and its exact child statistics.
    pub split: ColumnSplit,
    /// Categorical split-attributes: the category codes seen in `Dx`.
    pub seen: Option<Vec<u32>>,
}

/// Messages on the task channel.
#[derive(Debug, Clone)]
pub enum TaskMsg {
    /// Master → worker: evaluate columns of a node.
    ColumnPlan(ColumnPlan),
    /// Master → worker (the key worker): build a subtree.
    SubtreePlan(SubtreePlan),
    /// Worker → master: result of a column-task shard.
    ColumnResult {
        /// The task.
        task: TaskId,
        /// Reporting worker.
        worker: NodeId,
        /// Best split among the worker's columns (`None`: no column splits).
        best: Option<ColumnTaskBest>,
        /// The node's own label statistics over `Dx` (for the node's stored
        /// prediction and the leaf decision).
        node_stats: NodeStats,
        /// The task span, echoed from the plan.
        ctx: TraceCtx,
    },
    /// Worker → master: a completed subtree.
    SubtreeResult {
        /// The task.
        task: TaskId,
        /// Reporting worker.
        worker: NodeId,
        /// The built subtree (depths relative to the subtree root).
        subtree: DecisionTreeModel,
        /// The task span, echoed from the plan.
        ctx: TraceCtx,
    },
    /// Worker → master: histogram-mode shard result — the shard's top
    /// `vote_k` candidate columns as bare `(attr, gain)` summaries instead
    /// of full splits (PV-Tree-style voting, `docs/HISTOGRAM.md`). Node
    /// statistics ride along only on the task's designated stats shard.
    HistNominate {
        /// The task.
        task: TaskId,
        /// Reporting worker.
        worker: NodeId,
        /// Top candidates, best first: `(attr, gain)`. Empty when none of
        /// the shard's columns yields a positive-gain split.
        cands: Vec<(usize, f64)>,
        /// The node's label statistics over `Dx`; `Some` only on the
        /// designated stats shard (`HistPlanConf::want_stats`).
        node_stats: Option<NodeStats>,
        /// The task span, echoed from the plan.
        ctx: TraceCtx,
    },
    /// Master → elected worker: the vote elected your attribute `attr` —
    /// send the full split (test, child stats, seen categories) for it.
    HistFetch {
        /// The task.
        task: TaskId,
        /// The elected attribute.
        attr: usize,
        /// The task span (carried so the worker can echo it on `HistBest`).
        ctx: TraceCtx,
    },
    /// Worker → master: the full split answering a `HistFetch`.
    HistBest {
        /// The task.
        task: TaskId,
        /// Reporting worker.
        worker: NodeId,
        /// The elected attribute's full split (`None` only if the recount
        /// over the retained rows finds no positive-gain split after all).
        best: Option<ColumnTaskBest>,
        /// The task span, echoed from the fetch.
        ctx: TraceCtx,
    },
    /// Master → winner worker: your split is the overall best — partition
    /// `Ix` and serve the child tasks (you are now a delegate worker).
    ConfirmBest {
        /// The confirmed task.
        task: TaskId,
    },
    /// Master → loser workers: free your task object for `task`.
    DropTask {
        /// The dropped task.
        task: TaskId,
    },
    /// Master → delegate worker: exactly `quota` workers will request the
    /// `side` half of `task`'s rows; free the buffer after serving them all
    /// (quota 0 means the child became a leaf — free immediately).
    ServeQuota {
        /// The delegate's task.
        task: TaskId,
        /// Which half.
        side: Side,
        /// Number of distinct requesters to expect.
        quota: u32,
    },
    /// Master → worker: revoke every task belonging to a tree (fault
    /// recovery).
    RevokeTree {
        /// The revoked tree.
        tree: TreeId,
    },
    /// Master → worker: store these columns (crash re-replication target).
    LoadColumns {
        /// `(attr id, column)` pairs.
        columns: Vec<(usize, Column)>,
    },
    /// Master → holder: copy your columns `attrs` to worker `to` over the
    /// data channel. Used by crash re-replication (source is a surviving
    /// replica), join top-up and pre-departure handoff (`ts-elastic`
    /// migrations). Carries the migration span so cross-machine column
    /// movement shows up in the trace DAG.
    ReplicateTo {
        /// Columns to copy.
        attrs: Vec<usize>,
        /// The new holder.
        to: NodeId,
        /// The migration span (NONE for crash re-replication).
        ctx: TraceCtx,
    },
    /// Worker → master: the replicated columns have arrived and are
    /// servable; the master may now list this worker as a holder.
    ReplicateDone {
        /// Columns now held.
        attrs: Vec<usize>,
        /// The reporting worker.
        worker: NodeId,
        /// The migration span, echoed from `ReplicateTo`.
        ctx: TraceCtx,
    },
    /// Client → worker: replace the full target column (boosting rounds
    /// re-label between trees; `Y` is replicated on every machine, so the
    /// update is a broadcast). Every worker installs the one shared column
    /// as it is; each frame is still priced as a full copy on the wire.
    LoadLabels {
        /// The new target values (must match the table's row count).
        labels: std::sync::Arc<ts_datatable::Labels>,
    },
    /// Worker → master: one of the worker's threads is unwinding from a
    /// panic, so the machine can no longer be trusted to finish its tasks.
    /// The master runs crash recovery for it, as for any other dead worker.
    WorkerLost {
        /// The failing worker.
        worker: NodeId,
    },
    /// Master → master: a `Master::call` left work in the outbox; the frame
    /// only makes the master thread take a step now.
    Wake,
    /// Worker → master: the worker's ready queue ran dry (`ts-sched`).
    /// The scheduler serves this worker next — from its own deque if
    /// non-empty, then the global deque, otherwise by stealing from the
    /// tail of the most-loaded peer's deque. Rate-limited worker-side: at
    /// most one outstanding request, acked by `Donate` or implicitly by any
    /// new plan. Purely an accelerator — a lost request costs latency,
    /// never progress (capacity-based dispatch feeds idle workers anyway).
    StealRequest {
        /// The idle worker.
        worker: NodeId,
    },
    /// Master → thief worker: acks a `StealRequest` — a plan stolen from
    /// `victim`'s deque has been dispatched on the thief's behalf. Carries
    /// the stolen task's span so the steal is visible in the span DAG
    /// (`SpanRecv` on the thief under the stolen task's trace).
    Donate {
        /// The stolen task.
        task: TaskId,
        /// The worker whose deque gave the plan up.
        victim: NodeId,
        /// The stolen task's span context.
        ctx: TraceCtx,
    },
    /// Master → worker: a scripted preemption was announced — stop taking
    /// new work, finish or return what is in flight, hand your columns off
    /// and leave with `Goodbye` before the grace window expires.
    Drain,
    /// Draining worker → master: all in-flight work is done and flushed;
    /// retire me without invoking crash recovery. The worker keeps
    /// serving its data plane until the master sends the final `Shutdown`.
    Goodbye {
        /// The departing worker.
        worker: NodeId,
    },
    /// Master → worker: stop all threads.
    Shutdown,
}

impl WireSized for TaskMsg {
    fn wire_bytes(&self) -> usize {
        const HDR: usize = 24;
        match self {
            TaskMsg::ColumnPlan(p) => HDR + 8 * p.cols.len() + 32,
            TaskMsg::SubtreePlan(p) => HDR + 12 * p.col_sources.len() + 40,
            TaskMsg::ColumnResult {
                best, node_stats, ..
            } => {
                HDR + stats_bytes(node_stats)
                    + best.as_ref().map_or(1, |b| {
                        8 + b.split.test.wire_bytes()
                            + stats_bytes(&b.split.left)
                            + stats_bytes(&b.split.right)
                            + b.seen.as_ref().map_or(0, |s| 4 * s.len())
                    })
            }
            TaskMsg::SubtreeResult { subtree, .. } => HDR + tree_bytes(subtree),
            // Histogram voting: a nomination is `vote_k` (attr, gain) pairs
            // (8 + 4 bytes each — attrs fit u32 on the wire) plus node
            // stats on the one designated shard; the fetch is one attr id;
            // the elected worker's reply prices exactly like the exact
            // path's best payload.
            TaskMsg::HistNominate {
                cands, node_stats, ..
            } => HDR + 12 * cands.len() + node_stats.as_ref().map_or(1, stats_bytes),
            TaskMsg::HistFetch { .. } => HDR + 8,
            TaskMsg::HistBest { best, .. } => {
                HDR + best.as_ref().map_or(1, |b| {
                    8 + b.split.test.wire_bytes()
                        + stats_bytes(&b.split.left)
                        + stats_bytes(&b.split.right)
                        + b.seen.as_ref().map_or(0, |s| 4 * s.len())
                })
            }
            TaskMsg::ConfirmBest { .. }
            | TaskMsg::DropTask { .. }
            | TaskMsg::ServeQuota { .. }
            | TaskMsg::RevokeTree { .. }
            | TaskMsg::WorkerLost { .. }
            | TaskMsg::Wake
            | TaskMsg::StealRequest { .. }
            | TaskMsg::Donate { .. }
            | TaskMsg::Drain
            | TaskMsg::Goodbye { .. }
            | TaskMsg::Shutdown => HDR,
            TaskMsg::ReplicateTo { attrs, .. } | TaskMsg::ReplicateDone { attrs, .. } => {
                HDR + 8 * attrs.len()
            }
            TaskMsg::LoadLabels { labels } => HDR + labels.payload_bytes(),
            TaskMsg::LoadColumns { columns } => {
                HDR + columns
                    .iter()
                    .map(|(_, c)| 8 + c.payload_bytes())
                    .sum::<usize>()
            }
        }
    }

    fn trace_ctx(&self) -> TraceCtx {
        match self {
            TaskMsg::ColumnPlan(p) => p.ctx,
            TaskMsg::SubtreePlan(p) => p.ctx,
            TaskMsg::ColumnResult { ctx, .. }
            | TaskMsg::SubtreeResult { ctx, .. }
            // The histogram election rides the task span end to end:
            // nominate → fetch → best.
            | TaskMsg::HistNominate { ctx, .. }
            | TaskMsg::HistFetch { ctx, .. }
            | TaskMsg::HistBest { ctx, .. }
            // A donation belongs to the stolen task's trace: the thief's
            // `SpanRecv` is the steal edge in the span DAG.
            | TaskMsg::Donate { ctx, .. }
            // Elastic column migrations carry their own span end to end.
            | TaskMsg::ReplicateTo { ctx, .. }
            | TaskMsg::ReplicateDone { ctx, .. } => *ctx,
            // Control traffic is outside any trace.
            _ => TraceCtx::NONE,
        }
    }
}

/// Messages on the data channel.
#[derive(Debug, Clone)]
pub enum DataMsg {
    /// Request the `side` half of `parent_task`'s row split, to be applied
    /// to the requester's task `for_task`.
    ReqIx {
        /// The parent task whose delegate is addressed.
        parent_task: TaskId,
        /// Which half.
        side: Side,
        /// Who asks (the response goes back there).
        requester: NodeId,
        /// The requester-side task waiting for the rows.
        for_task: TaskId,
        /// The tree both tasks belong to (fault-recovery bookkeeping).
        tree: TreeId,
        /// The requesting task's span (copied from its plan).
        ctx: TraceCtx,
    },
    /// The requested row ids.
    RespIx {
        /// The requester-side task.
        for_task: TaskId,
        /// The rows `Ix` (sorted).
        rows: Vec<u32>,
        /// The requesting task's span, echoed from the request.
        ctx: TraceCtx,
    },
    /// Key worker → holder: send me these columns gathered over `for_task`'s
    /// rows (the holder fetches `Ix` from the parent worker itself).
    ReqCols {
        /// The subtree task.
        for_task: TaskId,
        /// Attribute ids to gather (the holder has them all).
        attrs: Vec<usize>,
        /// Where the response goes.
        key_worker: NodeId,
        /// Where the holder can fetch `Ix`.
        parent: ParentRef,
        /// The tree the task belongs to (fault-recovery bookkeeping).
        tree: TreeId,
        /// The subtree task's span (copied from its plan).
        ctx: TraceCtx,
    },
    /// Holder → key worker: gathered column data.
    RespCols {
        /// The subtree task.
        for_task: TaskId,
        /// Attribute ids, aligned with `bufs`.
        attrs: Vec<usize>,
        /// Each column gathered over the task's `Ix`, in its order.
        bufs: Vec<Column>,
        /// The subtree task's span, echoed from the request.
        ctx: TraceCtx,
    },
    /// Master-directed replication: the column payload a holder copies to a
    /// new holder (crash recovery, join top-up or pre-departure handoff).
    ReplicateCols {
        /// `(attr id, column)` pairs copied from the source holder.
        columns: Vec<(usize, Column)>,
        /// The migration span, forwarded from `ReplicateTo`.
        ctx: TraceCtx,
    },
    /// Stop the data loop (sent by the worker to itself during shutdown).
    Shutdown,
}

impl WireSized for DataMsg {
    fn wire_bytes(&self) -> usize {
        const HDR: usize = 24;
        match self {
            DataMsg::ReqIx { .. } => HDR,
            DataMsg::RespIx { rows, .. } => HDR + 4 * rows.len(),
            DataMsg::ReqCols { attrs, .. } => HDR + 8 * attrs.len(),
            DataMsg::RespCols { bufs, .. } => {
                HDR + bufs.iter().map(|b| 8 + b.payload_bytes()).sum::<usize>()
            }
            DataMsg::ReplicateCols { columns, .. } => {
                HDR + columns
                    .iter()
                    .map(|(_, c)| 8 + c.payload_bytes())
                    .sum::<usize>()
            }
            DataMsg::Shutdown => HDR,
        }
    }

    fn trace_ctx(&self) -> TraceCtx {
        match self {
            DataMsg::ReqIx { ctx, .. }
            | DataMsg::RespIx { ctx, .. }
            | DataMsg::ReqCols { ctx, .. }
            | DataMsg::RespCols { ctx, .. }
            | DataMsg::ReplicateCols { ctx, .. } => *ctx,
            DataMsg::Shutdown => TraceCtx::NONE,
        }
    }
}

fn stats_bytes(s: &NodeStats) -> usize {
    match s {
        NodeStats::Class(c) => 8 + 8 * c.counts().len(),
        NodeStats::Reg(_) => 24,
    }
}

fn tree_bytes(t: &DecisionTreeModel) -> usize {
    t.nodes
        .iter()
        .map(|n| {
            let pred = match &n.prediction {
                Prediction::Class { pmf, .. } => 4 + 4 * pmf.len(),
                Prediction::Real(_) => 8,
            };
            let split = n.split.as_ref().map_or(0, |(info, _, _)| {
                info.test.wire_bytes() + info.seen.as_ref().map_or(0, |s| 4 * s.len()) + 16
            });
            16 + pred + split
        })
        .sum()
}

/// Wire size of a split test plus child stats (used by assignment cost
/// estimates).
pub fn split_wire_bytes(test: &SplitTest) -> usize {
    test.wire_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_splits::impurity::{LabelView, NodeStats};

    #[test]
    fn respix_scales_with_rows() {
        let small = DataMsg::RespIx {
            for_task: TaskId(1),
            rows: vec![1, 2],
            ctx: TraceCtx::NONE,
        };
        let big = DataMsg::RespIx {
            for_task: TaskId(1),
            rows: vec![0; 1000],
            ctx: TraceCtx::NONE,
        };
        assert!(big.wire_bytes() > small.wire_bytes() + 3900);
    }

    #[test]
    fn trace_ctx_rides_frames_without_wire_cost() {
        // Builds in every feature combination: TraceCtx is a plain field,
        // not gated behind `obs`.
        use ts_obs::SpanId;
        let ctx = TraceCtx::new(3, SpanId(41));
        let m = DataMsg::ReqIx {
            parent_task: TaskId(5),
            side: Side::Left,
            requester: 2,
            for_task: TaskId(6),
            tree: TreeId(1),
            ctx,
        };
        assert_eq!(m.trace_ctx(), ctx);
        // The context rides inside the accounted frame header.
        assert_eq!(m.wire_bytes(), 24);
        assert_eq!(TaskMsg::Shutdown.trace_ctx(), TraceCtx::NONE);
        assert_eq!(DataMsg::Shutdown.trace_ctx(), TraceCtx::NONE);
    }

    #[test]
    fn respcols_counts_payload() {
        let m = DataMsg::RespCols {
            for_task: TaskId(1),
            attrs: vec![0],
            bufs: vec![Column::Numeric(vec![0.0; 100])],
            ctx: TraceCtx::NONE,
        };
        assert!(m.wire_bytes() >= 800);
    }

    #[test]
    fn column_result_size_includes_stats() {
        let stats = NodeStats::from_view(LabelView::Class(&[0, 1, 1], 2));
        let m = TaskMsg::ColumnResult {
            task: TaskId(0),
            worker: 1,
            best: None,
            node_stats: stats,
            ctx: TraceCtx::NONE,
        };
        assert!(m.wire_bytes() >= 24 + 24);
    }

    #[test]
    fn hist_nomination_is_cheaper_than_a_full_column_result() {
        // The byte economy the histogram path is built on: for a non-binary
        // task, vote_k bare (attr, gain) summaries cost less than one full
        // split with two per-class child stats — and the k-1 losing shards
        // skip even the node stats.
        let k = 7u32; // Covtype-like multi-class
        let labels: Vec<u32> = (0..21).map(|i| i % k).collect();
        let stats = NodeStats::from_view(LabelView::Class(&labels, k));
        let split = ColumnSplit {
            test: SplitTest::NumericLe(1.5),
            gain: 0.25,
            missing_left: false,
            left: stats.clone(),
            right: stats.clone(),
        };
        let exact = TaskMsg::ColumnResult {
            task: TaskId(0),
            worker: 1,
            best: Some(ColumnTaskBest {
                attr: 3,
                split: split.clone(),
                seen: None,
            }),
            node_stats: stats.clone(),
            ctx: TraceCtx::NONE,
        };
        let losing_nomination = TaskMsg::HistNominate {
            task: TaskId(0),
            worker: 1,
            cands: vec![(3, 0.25), (5, 0.20)],
            node_stats: None,
            ctx: TraceCtx::NONE,
        };
        let stats_nomination = TaskMsg::HistNominate {
            task: TaskId(0),
            worker: 2,
            cands: vec![(3, 0.25), (5, 0.20)],
            node_stats: Some(stats.clone()),
            ctx: TraceCtx::NONE,
        };
        assert_eq!(losing_nomination.wire_bytes(), 24 + 24 + 1);
        assert!(losing_nomination.wire_bytes() * 2 < exact.wire_bytes());
        assert!(stats_nomination.wire_bytes() < exact.wire_bytes());
        // The single fetched full answer prices like the exact best payload.
        let fetch = TaskMsg::HistFetch {
            task: TaskId(0),
            attr: 3,
            ctx: TraceCtx::NONE,
        };
        assert_eq!(fetch.wire_bytes(), 24 + 8);
        let best = TaskMsg::HistBest {
            task: TaskId(0),
            worker: 1,
            best: Some(ColumnTaskBest {
                attr: 3,
                split,
                seen: None,
            }),
            ctx: TraceCtx::NONE,
        };
        let exact_best_payload = exact.wire_bytes() - stats_bytes(&stats);
        assert_eq!(best.wire_bytes(), exact_best_payload);
    }

    #[test]
    fn hist_frames_carry_the_task_span() {
        use ts_obs::SpanId;
        let ctx = TraceCtx::new(9, SpanId(123));
        let nom = TaskMsg::HistNominate {
            task: TaskId(1),
            worker: 2,
            cands: vec![],
            node_stats: None,
            ctx,
        };
        let fetch = TaskMsg::HistFetch {
            task: TaskId(1),
            attr: 0,
            ctx,
        };
        let best = TaskMsg::HistBest {
            task: TaskId(1),
            worker: 2,
            best: None,
            ctx,
        };
        assert_eq!(nom.trace_ctx(), ctx);
        assert_eq!(fetch.trace_ctx(), ctx);
        assert_eq!(best.trace_ctx(), ctx);
        assert_eq!(best.wire_bytes(), 25, "no-split reply is one flag byte");
    }

    #[test]
    fn control_messages_are_small() {
        assert_eq!(TaskMsg::Shutdown.wire_bytes(), 24);
        assert_eq!(
            TaskMsg::ServeQuota {
                task: TaskId(1),
                side: Side::Left,
                quota: 3
            }
            .wire_bytes(),
            24
        );
    }

    #[test]
    fn membership_frames_are_header_only_and_migrations_carry_spans() {
        use ts_obs::SpanId;
        for m in [TaskMsg::Drain, TaskMsg::Goodbye { worker: 3 }] {
            assert_eq!(m.wire_bytes(), 24, "membership frames are pure control");
            assert_eq!(m.trace_ctx(), TraceCtx::NONE);
        }
        // A migration's span rides the already-charged header end to end:
        // ReplicateTo → ReplicateCols → ReplicateDone.
        let ctx = TraceCtx::new(5, SpanId(77));
        let to = TaskMsg::ReplicateTo {
            attrs: vec![1, 2],
            to: 4,
            ctx,
        };
        assert_eq!(to.wire_bytes(), 24 + 16);
        assert_eq!(to.trace_ctx(), ctx);
        let done = TaskMsg::ReplicateDone {
            attrs: vec![1, 2],
            worker: 4,
            ctx,
        };
        assert_eq!(done.trace_ctx(), ctx);
        let cols = DataMsg::ReplicateCols {
            columns: vec![],
            ctx,
        };
        assert_eq!(cols.trace_ctx(), ctx);
    }

    #[test]
    fn steal_frames_are_header_only_and_donate_carries_the_stolen_span() {
        use ts_obs::SpanId;
        let req = TaskMsg::StealRequest { worker: 3 };
        assert_eq!(req.wire_bytes(), 24, "steal request is pure control");
        assert_eq!(req.trace_ctx(), TraceCtx::NONE);
        let ctx = TraceCtx::new(7, SpanId(99));
        let don = TaskMsg::Donate {
            task: TaskId(12),
            victim: 1,
            ctx,
        };
        // The stolen task's context rides the already-charged header, so
        // stealing shows up in the span DAG at zero wire cost.
        assert_eq!(don.wire_bytes(), 24);
        assert_eq!(don.trace_ctx(), ctx);
    }
}
