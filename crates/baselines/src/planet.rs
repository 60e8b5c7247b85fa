//! PLANET / Spark-MLlib-style trainer: row partitioning, level-synchronous
//! histogram aggregation, approximate splits.
//!
//! The algorithm (paper §II, *Related Systems*; Panda et al. 2009; MLlib's
//! `RandomForest.run`):
//!
//! 1. Rows are partitioned among machines. Candidate thresholds per numeric
//!    attribute come from an up-front equi-depth binning with `max_bins`
//!    buckets (MLlib's `findSplits`, default `maxBins = 32`) — **one
//!    candidate per bucket**, which is why splits are approximate.
//! 2. Nodes are built **level by level**; each level is one "job": every
//!    machine scans its rows once, building a histogram per (active node,
//!    attribute); histograms are sent to the master and merged; the master
//!    picks each node's best bucket boundary and broadcasts the split
//!    decisions; machines update their row→node assignment.
//! 3. A fixed `stage_overhead` is charged per level-job, modelling Spark's
//!    job-launch/scheduling cost — a first-order reason MLlib keeps CPUs
//!    idle between levels.
//!
//! The level barrier is the paper's central criticism: until the level's
//! slowest histogram pass and its aggregation complete, nothing else runs —
//! there are no CPU-bound subtree-tasks to overlap with the IO.

use std::sync::Arc;
use std::time::Duration;
use ts_datatable::{AttrType, Column, DataTable, Labels, MISSING_CAT};
use ts_netsim::{NetModel, NetStats};
use ts_splits::exact::ColumnSplit;
use ts_splits::histogram::{
    best_cat_from_class_stats, best_cat_from_reg_stats, BinCuts, NumericHistogram,
};
use ts_splits::impurity::{ClassCounts, Impurity, LabelAgg, LabelView, NodeStats, RegAgg};
use ts_splits::SplitTest;
use ts_tree::trainer::prediction_from_stats;
use ts_tree::{DecisionTreeModel, Node, SplitInfo};

/// Configuration of the PLANET/MLlib baseline.
#[derive(Debug, Clone)]
pub struct PlanetConfig {
    /// Number of row-partition machines.
    pub n_machines: usize,
    /// Worker threads per machine (1 = the paper's "MLlib (Single Thread)").
    pub threads_per_machine: usize,
    /// Histogram bucket budget (MLlib's `maxBins`).
    pub max_bins: usize,
    /// Maximum tree depth.
    pub dmax: u32,
    /// Leaf threshold.
    pub tau_leaf: u64,
    /// Impurity function.
    pub impurity: Impurity,
    /// Per-level job-launch overhead (Spark stage scheduling).
    pub stage_overhead: Duration,
    /// Link model for histogram aggregation / split broadcast pacing.
    pub net: NetModel,
    /// Modeled compute nanoseconds per row-attribute touch (see
    /// `treeserver::ClusterConfig::work_ns_per_unit`); each machine's level
    /// scan sleeps `rows * candidates * ns / threads_per_machine`.
    pub work_ns_per_unit: u64,
}

impl Default for PlanetConfig {
    fn default() -> Self {
        PlanetConfig {
            n_machines: 4,
            threads_per_machine: 2,
            max_bins: 32,
            dmax: 10,
            tau_leaf: 1,
            impurity: Impurity::Gini,
            stage_overhead: Duration::ZERO,
            net: NetModel::instant(),
            work_ns_per_unit: 0,
        }
    }
}

/// Communication/work counters of one training run.
#[derive(Debug, Clone, Default)]
pub struct PlanetStats {
    /// Levels executed (= synchronous jobs launched).
    pub levels: u64,
    /// Histogram bytes aggregated at the master.
    pub histogram_bytes: u64,
    /// Bytes broadcast back (split decisions).
    pub broadcast_bytes: u64,
}

/// The PLANET/MLlib-style trainer.
pub struct PlanetTrainer {
    cfg: PlanetConfig,
    stats: Arc<NetStats>,
    pool: tspar::ThreadPool,
}

/// A node being grown; its position in the frontier vector is the dense
/// slot id rows are tagged with.
struct Frontier {
    /// Arena index of the node.
    node: usize,
}

impl PlanetTrainer {
    /// Creates a trainer; its thread pool holds
    /// `n_machines * threads_per_machine` threads (the cluster's total
    /// cores).
    pub fn new(cfg: PlanetConfig) -> PlanetTrainer {
        let threads = (cfg.n_machines * cfg.threads_per_machine).max(1);
        let pool = tspar::ThreadPool::new(threads);
        // Node 0 plays the Spark driver; 1..=n the executors.
        let stats = NetStats::new(cfg.n_machines + 1);
        PlanetTrainer { cfg, stats, pool }
    }

    /// Statistics of all runs so far.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Trains one tree over `candidates`, returning the model and run stats.
    pub fn train_tree(
        &self,
        table: &DataTable,
        candidates: &[usize],
    ) -> (DecisionTreeModel, PlanetStats) {
        let n_classes = table.schema().task.n_classes().unwrap_or(0);
        match table.labels() {
            Labels::Class(ys) => {
                let empty = ClassCounts::new(n_classes);
                self.grow(table, candidates, ys, empty, best_cat_from_class_stats)
            }
            Labels::Real(ys) => self.grow(table, candidates, ys, RegAgg::default(), |pv, m, _| {
                best_cat_from_reg_stats(pv, m)
            }),
        }
    }

    /// [`PlanetTrainer::train_tree`] over one label type: `empty` is the
    /// zero aggregate every histogram slot starts from, `best_cat` the
    /// merged-stats categorical selector of that label type.
    fn grow<A>(
        &self,
        table: &DataTable,
        candidates: &[usize],
        ys: &[A::Label],
        empty: A,
        best_cat: impl Fn(&[A], &A, Impurity) -> Option<ColumnSplit>,
    ) -> (DecisionTreeModel, PlanetStats)
    where
        A: LabelAgg + Send + Sync,
        A::Label: Sync,
    {
        let mut run = PlanetStats::default();
        let n = table.n_rows();
        let task = table.schema().task;
        let n_classes = task.n_classes().unwrap_or(0);

        // Up-front candidate thresholds per numeric attribute (findSplits).
        let cuts: Vec<Option<BinCuts>> = candidates
            .iter()
            .map(|&a| match table.schema().attr_type(a) {
                AttrType::Numeric => {
                    let Column::Numeric(v) = table.column(a) else {
                        unreachable!()
                    };
                    // MLlib samples; we bin over all values (same candidates
                    // at our scale).
                    Some(BinCuts::equi_depth(v, self.cfg.max_bins))
                }
                AttrType::Categorical { .. } => None,
            })
            .collect();

        // Row partitions: contiguous chunks per machine.
        let chunk = n.div_ceil(self.cfg.n_machines);
        let ranges: Vec<std::ops::Range<usize>> = (0..self.cfg.n_machines)
            .map(|m| (m * chunk).min(n)..((m + 1) * chunk).min(n))
            .filter(|r| !r.is_empty())
            .collect();

        let mut node_of_row: Vec<u32> = vec![0; n];
        let root_stats = NodeStats::from_view(LabelView::of(table.labels(), n_classes));
        let mut nodes: Vec<Node> =
            vec![Node::leaf(prediction_from_stats(&root_stats), n as u64, 0)];
        let mut frontier: Vec<Frontier> = vec![Frontier { node: 0 }];
        let mut frontier_stats: Vec<NodeStats> = vec![root_stats];
        let mut depth = 0u32;

        while !frontier.is_empty() && depth < self.cfg.dmax {
            run.levels += 1;
            if !self.cfg.stage_overhead.is_zero() {
                std::thread::sleep(self.cfg.stage_overhead);
            }
            // Which frontier nodes may split at all.
            let splittable: Vec<bool> = frontier
                .iter()
                .zip(&frontier_stats)
                .map(|(_, s)| s.n() > self.cfg.tau_leaf && !s.is_pure())
                .collect();

            // --- Map phase: per machine, histograms for (node, attr). ---
            let per_machine: Vec<LevelHistograms<A>> = self.pool.map(&ranges, |m, range| {
                if self.cfg.work_ns_per_unit > 0 {
                    let units = range.len() as u64 * candidates.len() as u64
                        / self.cfg.threads_per_machine.max(1) as u64;
                    std::thread::sleep(Duration::from_nanos(units * self.cfg.work_ns_per_unit));
                }
                let h = build_level_histograms(
                    table,
                    candidates,
                    &cuts,
                    &node_of_row,
                    range.clone(),
                    &splittable,
                    ys,
                    &empty,
                );
                // Executor m ships its histograms to the driver.
                let bytes = h.wire_bytes();
                self.stats.record_send(m + 1, 0, bytes);
                let delay = self.cfg.net.delay_for(bytes);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                h
            });
            run.histogram_bytes += per_machine
                .iter()
                .map(|h| h.wire_bytes() as u64)
                .sum::<u64>();

            // --- Reduce phase at the driver: merge + pick best per node. ---
            let merged = per_machine
                .into_iter()
                .reduce(|mut a, b| {
                    a.merge(b);
                    a
                })
                .expect("at least one machine");

            let mut decisions: Vec<Option<(usize, ColumnSplit)>> = vec![None; frontier.len()];
            for (f_idx, dec) in decisions.iter_mut().enumerate() {
                if !splittable[f_idx] {
                    continue;
                }
                let mut best: Option<(usize, ColumnSplit)> = None;
                for (c_idx, &attr) in candidates.iter().enumerate() {
                    let split =
                        merged.best_split(f_idx, c_idx, &cuts, self.cfg.impurity, &best_cat);
                    if let Some(s) = split {
                        let wins = match &best {
                            None => true,
                            Some((battr, bs)) => ColumnSplit::challenger_wins(&s, attr, bs, *battr),
                        };
                        if wins {
                            best = Some((attr, s));
                        }
                    }
                }
                *dec = best;
            }

            // --- Broadcast split decisions to every machine. ---
            let bcast_bytes: usize = decisions
                .iter()
                .flatten()
                .map(|(_, s)| s.test.wire_bytes() + 16)
                .sum::<usize>()
                .max(8);
            for m in 1..=ranges.len() {
                self.stats.record_send(0, m, bcast_bytes);
            }
            let delay = self.cfg.net.delay_for(bcast_bytes * ranges.len());
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            run.broadcast_bytes += (bcast_bytes * ranges.len()) as u64;

            // --- Apply splits: grow children, reassign rows. ---
            let mut next_frontier = Vec::new();
            let mut next_stats = Vec::new();
            let mut slot_children: Vec<Option<SlotDecision>> = vec![None; frontier.len()];
            for (f_idx, dec) in decisions.into_iter().enumerate() {
                let Some((attr, split)) = dec else { continue };
                let f = &frontier[f_idx];
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
                // MLlib tracks per-node category presence through its stats;
                // we recover it from the merged histogram.
                let seen = merged.seen_categories(f_idx, attr, candidates);
                nodes[f.node].split = Some((
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
                let l_slot = next_frontier.len();
                next_frontier.push(Frontier { node: l_idx });
                next_stats.push(split.left.clone());
                let r_slot = next_frontier.len();
                next_frontier.push(Frontier { node: r_idx });
                next_stats.push(split.right.clone());
                slot_children[f_idx] = Some((l_slot, r_slot, split.test, split.missing_left, attr));
            }

            // Row reassignment (each machine over its rows; the bitvector
            // stays local — PLANET ships the model, not row ids).
            self.pool.for_each_mut(&mut node_of_row, |row, slot| {
                let cur = *slot as usize;
                if cur == u32::MAX as usize {
                    return;
                }
                match &slot_children[cur] {
                    None => *slot = u32::MAX, // settled in a leaf
                    Some((l, r, test, missing_left, attr)) => {
                        let v = table.value(row, *attr);
                        let left = test.goes_left(v).unwrap_or(*missing_left);
                        *slot = if left { *l as u32 } else { *r as u32 };
                    }
                }
            });

            frontier = next_frontier;
            frontier_stats = next_stats;
            depth += 1;
        }

        (DecisionTreeModel::new(nodes, task), run)
    }

    /// Trains a bagged forest: trees sequentially (each tree is a full
    /// level-synchronous pass, as MLlib effectively serialises tree groups),
    /// per-tree column subsets of `sqrt(m)` like the paper's forests.
    pub fn train_forest(
        &self,
        table: &DataTable,
        n_trees: usize,
        seed: u64,
    ) -> (ts_tree::ForestModel, PlanetStats) {
        use tsrand::seq::SliceRandom;
        use tsrand::SeedableRng;
        // MLlib grows the trees of a forest through a shared node queue, so
        // Spark stages are amortised across the group rather than paid per
        // tree per level; model that by dividing the per-level overhead.
        let amortised = PlanetTrainer {
            cfg: PlanetConfig {
                stage_overhead: self.cfg.stage_overhead / n_trees.max(1) as u32,
                ..self.cfg.clone()
            },
            stats: Arc::clone(&self.stats),
            pool: tspar::ThreadPool::new(
                (self.cfg.n_machines * self.cfg.threads_per_machine).max(1),
            ),
        };
        let this = &amortised;
        let mut rng = tsrand::rngs::StdRng::seed_from_u64(seed);
        let m = table.n_attrs();
        let count = ((m as f64).sqrt().round() as usize).clamp(1, m);
        let mut total = PlanetStats::default();
        let trees: Vec<DecisionTreeModel> = (0..n_trees)
            .map(|_| {
                let mut cols: Vec<usize> = (0..m).collect();
                cols.shuffle(&mut rng);
                let mut c: Vec<usize> = cols[..count].to_vec();
                c.sort_unstable();
                let (t, s) = this.train_tree(table, &c);
                total.levels += s.levels;
                total.histogram_bytes += s.histogram_bytes;
                total.broadcast_bytes += s.broadcast_bytes;
                t
            })
            .collect();
        (ts_tree::ForestModel::new(trees, table.schema().task), total)
    }
}

/// Per-category stats of one label type: aggregates per category + missing
/// rows.
type CatStats<A> = (Vec<A>, A);
/// A split decision applied to a frontier slot: `(left slot, right slot,
/// test, missing_left, attr)`.
type SlotDecision = (usize, usize, SplitTest, bool, usize);
/// One statistics object per `[f_idx][c_idx]`, `None` until a row lands.
type Table<T> = Vec<Vec<Option<T>>>;

/// One machine's histograms for every (frontier node, candidate attr).
struct LevelHistograms<A> {
    /// Histograms of the numeric candidates.
    numeric: Table<NumericHistogram<A>>,
    /// Per-category stats of the categorical candidates.
    cat: Table<CatStats<A>>,
}

/// Folds `from` into `into` slot by slot with `merge`; a slot only one side
/// filled is kept as is.
fn merge_table<T>(into: &mut Table<T>, from: Table<T>, merge: impl Fn(&mut T, &T)) {
    for (a, b) in into.iter_mut().zip(from) {
        for (x, y) in a.iter_mut().zip(b) {
            match (x, y) {
                (Some(x), Some(y)) => merge(x, &y),
                (x @ None, y @ Some(_)) => *x = y,
                _ => {}
            }
        }
    }
}

impl<A: LabelAgg> LevelHistograms<A> {
    fn wire_bytes(&self) -> usize {
        let numeric = self.numeric.iter().flatten().flatten();
        let cat = self.cat.iter().flatten().flatten();
        let numeric = numeric.map(NumericHistogram::wire_bytes);
        let cat = cat.map(|(pv, missing)| (pv.len() + 1) * missing.wire_bytes());
        numeric.chain(cat).sum::<usize>() + 16
    }

    fn merge(&mut self, other: Self) {
        merge_table(&mut self.numeric, other.numeric, NumericHistogram::merge);
        merge_table(&mut self.cat, other.cat, |(xp, xm), (yp, ym)| {
            for (p, q) in xp.iter_mut().zip(yp) {
                p.merge(q);
            }
            xm.merge(ym);
        });
    }

    fn best_split(
        &self,
        f_idx: usize,
        c_idx: usize,
        cuts: &[Option<BinCuts>],
        imp: Impurity,
        best_cat: impl Fn(&[A], &A, Impurity) -> Option<ColumnSplit>,
    ) -> Option<ColumnSplit> {
        if let Some(h) = &self.numeric[f_idx][c_idx] {
            return h.best_split(cuts[c_idx].as_ref()?, imp);
        }
        let (pv, missing) = self.cat[f_idx][c_idx].as_ref()?;
        best_cat(pv, missing, imp)
    }

    /// Categories with at least one row in the node (`None` for a numeric
    /// attribute).
    fn seen_categories(&self, f_idx: usize, attr: usize, candidates: &[usize]) -> Option<Vec<u32>> {
        let c_idx = candidates
            .iter()
            .position(|&a| a == attr)
            .expect("attr in candidates");
        let (pv, _) = self.cat[f_idx][c_idx].as_ref()?;
        let seen = pv.iter().enumerate().filter(|(_, a)| a.n() > 0);
        Some(seen.map(|(i, _)| i as u32).collect())
    }
}

/// Builds one machine's histograms: one scan over its row range.
#[allow(clippy::too_many_arguments)]
fn build_level_histograms<A: LabelAgg>(
    table: &DataTable,
    candidates: &[usize],
    cuts: &[Option<BinCuts>],
    node_of_row: &[u32],
    range: std::ops::Range<usize>,
    splittable: &[bool],
    ys: &[A::Label],
    empty: &A,
) -> LevelHistograms<A> {
    let mut h = LevelHistograms {
        numeric: vec![vec![None; candidates.len()]; splittable.len()],
        cat: vec![vec![None; candidates.len()]; splittable.len()],
    };
    // Initialise slots lazily per (node, attr) to keep memory tight.
    for row in range {
        let slot = node_of_row[row];
        if slot == u32::MAX {
            continue;
        }
        let f_idx = slot as usize;
        if !splittable[f_idx] {
            continue;
        }
        for (c_idx, &attr) in candidates.iter().enumerate() {
            match table.column(attr) {
                Column::Numeric(v) => {
                    let cut = cuts[c_idx].as_ref().expect("numeric attr has cuts");
                    h.numeric[f_idx][c_idx]
                        .get_or_insert_with(|| NumericHistogram::new(cut.n_bins(), empty.clone()))
                        .add(cut, v[row], ys[row]);
                }
                Column::Categorical(codes) => {
                    let (pv, missing) = h.cat[f_idx][c_idx].get_or_insert_with(|| {
                        let AttrType::Categorical { n_values } = table.schema().attr_type(attr)
                        else {
                            unreachable!()
                        };
                        (vec![empty.clone(); n_values as usize], empty.clone())
                    });
                    match codes[row] {
                        MISSING_CAT => missing.add(ys[row]),
                        c => pv[c as usize].add(ys[row]),
                    }
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_datatable::metrics::{accuracy, rmse};
    use ts_datatable::synth::{generate, SynthSpec};
    use ts_datatable::Task;
    use ts_tree::{train_tree, TrainParams};

    fn class_table(rows: usize, seed: u64) -> DataTable {
        generate(&SynthSpec {
            rows,
            numeric: 5,
            categorical: 2,
            cat_cardinality: 6,
            noise: 0.05,
            concept_depth: 5,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn planet_tree_learns_the_concept() {
        let t = class_table(4_000, 1);
        let (tr, te) = t.train_test_split(0.8, 1);
        let trainer = PlanetTrainer::new(PlanetConfig::default());
        let all: Vec<usize> = (0..tr.n_attrs()).collect();
        let (model, stats) = trainer.train_tree(&tr, &all);
        let acc = accuracy(&model.predict_labels(&te), te.labels().as_class().unwrap());
        assert!(acc > 0.75, "planet accuracy {acc}");
        assert!(stats.levels >= 3);
        assert!(stats.histogram_bytes > 0);
        assert!(stats.broadcast_bytes > 0);
    }

    #[test]
    fn planet_is_at_most_as_good_as_exact_on_train() {
        // Binned candidates are a subset of exact candidates, so training
        // impurity reduction can't beat the exact tree of the same depth.
        let t = class_table(3_000, 2);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let trainer = PlanetTrainer::new(PlanetConfig {
            max_bins: 8,
            ..Default::default()
        });
        let (approx, _) = trainer.train_tree(&t, &all);
        let exact = train_tree(&t, &all, &TrainParams::for_task(t.schema().task), 0);
        let acc_a = accuracy(&approx.predict_labels(&t), t.labels().as_class().unwrap());
        let acc_e = accuracy(&exact.predict_labels(&t), t.labels().as_class().unwrap());
        assert!(
            acc_a <= acc_e + 0.02,
            "approx train acc {acc_a} should not beat exact {acc_e}"
        );
    }

    #[test]
    fn planet_respects_dmax_and_tau_leaf() {
        let t = class_table(2_000, 3);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let trainer = PlanetTrainer::new(PlanetConfig {
            dmax: 4,
            tau_leaf: 100,
            ..Default::default()
        });
        let (model, stats) = trainer.train_tree(&t, &all);
        assert!(model.max_depth() <= 4);
        assert!(stats.levels <= 4);
        for n in &model.nodes {
            if !n.is_leaf() {
                assert!(n.n_rows > 100);
            }
        }
    }

    #[test]
    fn planet_regression_reduces_rmse() {
        let t = generate(&SynthSpec {
            rows: 3_000,
            numeric: 5,
            categorical: 1,
            task: Task::Regression,
            seed: 4,
            ..Default::default()
        });
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let trainer = PlanetTrainer::new(PlanetConfig {
            impurity: Impurity::Variance,
            ..Default::default()
        });
        let (model, _) = trainer.train_tree(&t, &all);
        let truth = t.labels().as_real().unwrap();
        let pred = model.predict_values(&t);
        let mean = truth.iter().sum::<f64>() / truth.len() as f64;
        let base = rmse(&vec![mean; truth.len()], truth);
        assert!(rmse(&pred, truth) < base * 0.7);
    }

    #[test]
    fn planet_histogram_bytes_scale_with_machines() {
        let t = class_table(2_000, 5);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let small = PlanetTrainer::new(PlanetConfig {
            n_machines: 2,
            ..Default::default()
        });
        let big = PlanetTrainer::new(PlanetConfig {
            n_machines: 8,
            ..Default::default()
        });
        let (_, s2) = small.train_tree(&t, &all);
        let (_, s8) = big.train_tree(&t, &all);
        assert!(
            s8.histogram_bytes > s2.histogram_bytes * 2,
            "8 machines {} vs 2 machines {}",
            s8.histogram_bytes,
            s2.histogram_bytes
        );
    }

    #[test]
    fn planet_forest_trains_n_trees() {
        let t = class_table(1_500, 6);
        let trainer = PlanetTrainer::new(PlanetConfig::default());
        let (forest, stats) = trainer.train_forest(&t, 5, 9);
        assert_eq!(forest.n_trees(), 5);
        assert!(stats.levels >= 5);
        let acc = accuracy(&forest.predict_labels(&t), t.labels().as_class().unwrap());
        assert!(acc > 0.7, "forest accuracy {acc}");
    }

    #[test]
    fn stage_overhead_slows_training() {
        let t = class_table(800, 7);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let fast = PlanetTrainer::new(PlanetConfig {
            dmax: 5,
            ..Default::default()
        });
        let slow = PlanetTrainer::new(PlanetConfig {
            dmax: 5,
            stage_overhead: Duration::from_millis(30),
            ..Default::default()
        });
        let t0 = std::time::Instant::now();
        let _ = fast.train_tree(&t, &all);
        let fast_time = t0.elapsed();
        let t0 = std::time::Instant::now();
        let _ = slow.train_tree(&t, &all);
        let slow_time = t0.elapsed();
        assert!(
            slow_time > fast_time + Duration::from_millis(100),
            "fast {fast_time:?} slow {slow_time:?}"
        );
    }
}
