//! Yggdrasil-style trainer: column-partitioned **exact** splits, but
//! level-synchronous with a master-broadcast row→child bitvector.
//!
//! Yggdrasil (Abuzaid et al., NIPS 2016) shares TreeServer's column
//! partitioning and exactness, but (paper §II) it "still adopts a top-down
//! level-by-level node construction order" and "uses a master to broadcast a
//! bitvector of row-to-child-node assignment to all machines, causing a
//! single point of transmission bottleneck". This module reproduces exactly
//! that communication pattern so the `ablation_delegate` bench can compare
//! the master's outbound traffic against TreeServer's delegate-worker
//! design, where row sets travel worker-to-worker.
//!
//! Because the split kernels are the shared exact ones, the produced model
//! is bit-identical to the local exact trainer — asserted in tests.

use std::sync::Arc;
use ts_datatable::{AttrType, DataTable, SortedColumn};
use ts_netsim::{NetModel, NetStats};
use ts_splits::exact::SplitCandidate;
use ts_splits::impurity::{Impurity, LabelView, NodeStats};
use ts_splits::partition_rows;
use ts_splits::sorted::{
    best_split_in, distinct_categories_at, ColumnRef, NodeOrders, NodeRows, Segments,
};
use ts_tree::trainer::prediction_from_stats;
use ts_tree::{DecisionTreeModel, Node, SplitInfo};

/// Configuration of the Yggdrasil baseline.
#[derive(Debug, Clone)]
pub struct YggdrasilConfig {
    /// Number of column-partition machines.
    pub n_machines: usize,
    /// Maximum depth.
    pub dmax: u32,
    /// Leaf threshold.
    pub tau_leaf: u64,
    /// Impurity function.
    pub impurity: Impurity,
    /// Link model (applied to the bitvector broadcast pacing).
    pub net: NetModel,
}

impl Default for YggdrasilConfig {
    fn default() -> Self {
        YggdrasilConfig {
            n_machines: 4,
            dmax: 10,
            tau_leaf: 1,
            impurity: Impurity::Gini,
            net: NetModel::instant(),
        }
    }
}

/// Communication counters of one run.
#[derive(Debug, Clone, Default)]
pub struct YggdrasilStats {
    /// Levels executed.
    pub levels: u64,
    /// Bitvector bytes the master broadcast (the §V bottleneck).
    pub master_broadcast_bytes: u64,
    /// Split-condition bytes workers sent to the master.
    pub condition_bytes: u64,
}

/// The Yggdrasil-style trainer.
pub struct YggdrasilTrainer {
    cfg: YggdrasilConfig,
    stats: Arc<NetStats>,
}

impl YggdrasilTrainer {
    /// Creates a trainer (machine 0 is the master).
    pub fn new(cfg: YggdrasilConfig) -> YggdrasilTrainer {
        let stats = NetStats::new(cfg.n_machines + 1);
        YggdrasilTrainer { cfg, stats }
    }

    /// The shared network statistics.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Trains one exact tree; returns the model and the run's counters.
    pub fn train_tree(
        &self,
        table: &DataTable,
        candidates: &[usize],
    ) -> (DecisionTreeModel, YggdrasilStats) {
        let mut run = YggdrasilStats::default();
        let n = table.n_rows();
        let n_classes = table.schema().task.n_classes().unwrap_or(0);
        // Column -> machine (round-robin, no replication in Yggdrasil).
        let machine_of_col = |attr: usize| 1 + attr % self.cfg.n_machines;

        // Each machine presorts its columns once per tree (`sorted[i]`
        // indexes `candidates[i]`) and keeps the orders, inverted from the
        // ranks, partitioned by open node, as the local exact trainer does:
        // every node of a level scans its own segments with the shared
        // engine (`ts_splits::sorted`), so the model stays bit-identical to
        // that trainer.
        let sorted: Vec<SortedColumn> = candidates
            .iter()
            .map(|&a| SortedColumn::build(table.column(a)))
            .collect();
        let mut orders = NodeOrders::new(&sorted, n);
        let view = LabelView::of(table.labels(), n_classes);

        let root_rows: Vec<u32> = (0..n as u32).collect();
        let root_stats = NodeStats::from_view(view);
        let mut nodes = vec![Node::leaf(prediction_from_stats(&root_stats), n as u64, 0)];
        // Frontier: (arena node, rows, segments of the orders, stats).
        let mut frontier: Vec<(usize, Vec<u32>, Segments, NodeStats)> =
            vec![(0, root_rows, orders.root(), root_stats)];
        let mut depth = 0u32;

        while !frontier.is_empty() && depth < self.cfg.dmax {
            run.levels += 1;
            let mut next = Vec::new();
            let mut level_bitvector_bytes = 0u64;
            for (node, rows, segs, stats) in frontier {
                if stats.n() <= self.cfg.tau_leaf || stats.is_pure() {
                    continue;
                }
                // Every machine evaluates its own columns exactly and sends
                // its best condition to the master. Node rows are strictly
                // ascending (the root is 0..n and partitions preserve
                // order), as the engine requires.
                let whole = rows.len() == n;
                let node_rows = if whole {
                    NodeRows::All(n)
                } else {
                    NodeRows::Subset(&rows)
                };
                let cref = |i: usize| {
                    let attr = candidates[i];
                    ColumnRef::of_column(
                        table.column(attr),
                        &sorted[i],
                        table.schema().attr_type(attr),
                    )
                };
                let mut best: Option<(usize, SplitCandidate)> = None;
                for (i, &attr) in candidates.iter().enumerate() {
                    let segment = orders.segment(i, &segs);
                    let imp = self.cfg.impurity;
                    if let Some(s) = best_split_in(cref(i), segment, node_rows, &stats, view, imp) {
                        let wins = match &best {
                            None => true,
                            Some((bi, bs)) => {
                                SplitCandidate::challenger_wins(&s, attr, bs, candidates[*bi])
                            }
                        };
                        if wins {
                            best = Some((i, s));
                        }
                    }
                }
                // Regression children are summed once, for the node's winner.
                let best = best.map(|(i, s)| (i, s.finish(cref(i), node_rows, view)));
                // Condition messages: one per machine holding candidates.
                let senders: std::collections::HashSet<usize> =
                    candidates.iter().map(|&a| machine_of_col(a)).collect();
                for &m in &senders {
                    self.stats.record_send(m, 0, 32);
                    run.condition_bytes += 32;
                }
                let Some((col, split)) = best else { continue };
                let attr = candidates[col];

                // The winning machine computes the row→child bits for this
                // node; the MASTER then broadcasts them to every machine
                // (this is the bottleneck TreeServer §V removes).
                let bits = rows.len().div_ceil(8) as u64;
                let winner_machine = machine_of_col(attr);
                self.stats.record_send(winner_machine, 0, bits as usize);
                for m in 1..=self.cfg.n_machines {
                    self.stats.record_send(0, m, bits as usize);
                    level_bitvector_bytes += bits;
                }

                // Grow the tree (identical structure to the exact trainer).
                let (l_rows, r_rows) =
                    partition_rows(table.column(attr), &rows, &split.test, split.missing_left);
                let (l_segs, r_segs) = orders.split(&segs, &l_rows);
                let seen = match table.schema().attr_type(attr) {
                    AttrType::Categorical { n_values } => Some(if whole {
                        sorted[col].distinct().to_vec()
                    } else {
                        let codes = table
                            .column(attr)
                            .as_categorical()
                            .expect("categorical winner must be a categorical column");
                        distinct_categories_at(codes, NodeRows::Subset(&rows), n_values)
                    }),
                    AttrType::Numeric => None,
                };
                let l_idx = nodes.len();
                let r_idx = l_idx + 1;
                nodes.push(Node::leaf(
                    prediction_from_stats(&split.left),
                    split.n_left(),
                    depth + 1,
                ));
                nodes.push(Node::leaf(
                    prediction_from_stats(&split.right),
                    split.n_right(),
                    depth + 1,
                ));
                nodes[node].split = Some((
                    SplitInfo {
                        attr,
                        test: split.test.clone(),
                        gain: split.gain,
                        missing_left: split.missing_left,
                        seen,
                    },
                    l_idx,
                    r_idx,
                ));
                next.push((l_idx, l_rows, l_segs, split.left.clone()));
                next.push((r_idx, r_rows, r_segs, split.right.clone()));
            }
            run.master_broadcast_bytes += level_bitvector_bytes;
            let delay = self.cfg.net.delay_for(level_bitvector_bytes as usize);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            frontier = next;
            depth += 1;
        }
        (DecisionTreeModel::new(nodes, table.schema().task), run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_datatable::synth::{generate, SynthSpec};
    use ts_tree::{train_tree, TrainParams};

    fn sample(rows: usize, seed: u64) -> DataTable {
        generate(&SynthSpec {
            rows,
            numeric: 4,
            categorical: 2,
            noise: 0.05,
            concept_depth: 5,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn yggdrasil_is_exact() {
        // Same kernels, same tie-breaks: the model must equal the local
        // exact trainer's bit for bit (after canonical node ordering — both
        // build in different orders).
        let t = sample(2_000, 1);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let (model, _) = YggdrasilTrainer::new(YggdrasilConfig::default()).train_tree(&t, &all);
        let reference = train_tree(&t, &all, &TrainParams::for_task(t.schema().task), 0);
        assert_eq!(model.canonicalize(), reference.canonicalize());
    }

    #[test]
    fn broadcast_bytes_scale_with_rows_and_machines() {
        let t = sample(4_000, 2);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let (_, small) = YggdrasilTrainer::new(YggdrasilConfig {
            n_machines: 2,
            ..Default::default()
        })
        .train_tree(&t, &all);
        let (_, big) = YggdrasilTrainer::new(YggdrasilConfig {
            n_machines: 8,
            ..Default::default()
        })
        .train_tree(&t, &all);
        assert!(
            big.master_broadcast_bytes >= small.master_broadcast_bytes * 3,
            "8 machines {} vs 2 machines {}",
            big.master_broadcast_bytes,
            small.master_broadcast_bytes
        );
        // The root level alone broadcasts ~n/8 bytes per machine.
        assert!(small.master_broadcast_bytes as usize >= 2 * (4_000 / 8));
    }

    #[test]
    fn master_is_the_hot_sender() {
        let t = sample(3_000, 3);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let trainer = YggdrasilTrainer::new(YggdrasilConfig::default());
        let _ = trainer.train_tree(&t, &all);
        let snaps = trainer.stats().snapshot_all();
        let master_sent = snaps[0].sent_bytes;
        let max_worker_sent = snaps[1..].iter().map(|s| s.sent_bytes).max().unwrap();
        assert!(
            master_sent > max_worker_sent,
            "master {master_sent} should out-send every worker ({max_worker_sent})"
        );
    }

    #[test]
    fn respects_dmax() {
        let t = sample(1_500, 4);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let (model, stats) = YggdrasilTrainer::new(YggdrasilConfig {
            dmax: 3,
            ..Default::default()
        })
        .train_tree(&t, &all);
        assert!(model.max_depth() <= 3);
        assert!(stats.levels <= 3);
    }
}
