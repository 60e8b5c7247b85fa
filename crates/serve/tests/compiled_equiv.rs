//! Differential property suite: the compiled batched engine is bit-for-bit
//! identical to the per-row reference traversal.
//!
//! Random trees, forests, and boosted models are trained (or hand-built) on
//! one random table, then evaluated on a *different* random table drawn with
//! a higher categorical cardinality and a positive missing rate — so the
//! evaluation rows exercise every Appendix-D stopping rule: depth caps,
//! missing numeric values (NaN), missing categorical codes, and categorical
//! codes never seen during training. Equality is asserted on the raw bits
//! (`to_bits`), not within a tolerance, across block sizes and thread
//! counts. Replay a failing case with `TS_SEED=<seed>`.

use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{DataTable, Task};
use ts_serve::{CompiledModel, ServeOptions};
use ts_tree::{train_tree, DecisionTreeModel, ForestModel, TrainParams};
use tscheck::prelude::*;

/// Categorical cardinalities `(training, evaluation)` of [`table_pair`]'s
/// two tables. Two seeds in three draw small codes, which the engine's
/// one-hot image cells express; every third draws codes past 64, which
/// they cannot: left-sets, seen-sets and rows then hold codes the
/// traversal step resolves against the pool, missing cells among them
/// ([`big_code_seeds_reach_the_pool_path`] checks that they do).
fn cardinalities(seed: u64) -> (u32, u32) {
    if seed.is_multiple_of(3) {
        (80, 96) // codes 80..96 are unseen by the trained model
    } else {
        (4, 9) // codes 4..9 are unseen by the trained model
    }
}

/// Training table + a shifted evaluation table over the same schema. The
/// evaluation table's categorical columns run over a larger code range
/// (unseen values) and both carry missing entries.
fn table_pair(seed: u64, numeric: usize, categorical: usize, task: Task) -> (DataTable, DataTable) {
    let (train_cardinality, eval_cardinality) = cardinalities(seed);
    let train = generate(&SynthSpec {
        rows: 400,
        numeric,
        categorical,
        cat_cardinality: train_cardinality,
        task,
        missing_rate: 0.05,
        noise: 0.1,
        concept_depth: 4,
        seed,
        ..Default::default()
    });
    let eval = generate(&SynthSpec {
        rows: 257, // deliberately not a multiple of any block size below
        numeric,
        categorical,
        cat_cardinality: eval_cardinality,
        task,
        missing_rate: 0.2,
        noise: 0.1,
        concept_depth: 4,
        seed: seed ^ 0x5EED,
        ..Default::default()
    });
    (train, eval)
}

/// The block/thread grid every equivalence assertion runs over: block
/// boundaries inside the table, a 1-row degenerate block, and both the
/// sequential and fully parallel fan-out.
const GRID: &[(usize, usize)] = &[(4096, 1), (64, 1), (1, 1), (97, 0)];

fn opts(block_rows: usize, threads: usize) -> ServeOptions {
    ServeOptions::default()
        .with_block_rows(block_rows)
        .with_threads(threads)
}

fn assert_bits_f32(fast: &[f32], slow: &[f32], what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length");
    for (i, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: row-entry {i}: {a} vs {b}"
        );
    }
}

fn assert_bits_f64(fast: &[f64], slow: &[f64], what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length");
    for (i, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: row {i}: {a} vs {b}");
    }
}

fn shape() -> impl Strategy<Value = (u64, usize, usize)> {
    (0u64..5_000, 1usize..4, 0usize..3)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Single classification tree: labels and PMFs match per row, at every
    /// depth cap, for every block/thread combination.
    #[test]
    fn tree_classification_matches_reference((seed, numeric, categorical) in shape()) {
        let task = Task::Classification { n_classes: 3 };
        let (train, eval) = table_pair(seed, numeric, categorical, task);
        let model = train_tree(
            &train,
            &(0..train.n_attrs()).collect::<Vec<_>>(),
            &TrainParams { dmax: 6, ..TrainParams::for_task(task) },
            seed,
        );
        for cap in [0, 1, 3, u32::MAX] {
            let ref_labels: Vec<u32> = (0..eval.n_rows())
                .map(|r| model.predict_row(&eval, r, cap).label())
                .collect();
            let ref_pmf: Vec<f32> = (0..eval.n_rows())
                .flat_map(|r| model.predict_row(&eval, r, cap).pmf().to_vec())
                .collect();
            for &(block, threads) in GRID {
                let compiled = CompiledModel::from_tree(&model)
                    .with_options(opts(block, threads).with_max_depth(cap));
                prop_assert_eq!(&compiled.predict_labels(&eval), &ref_labels);
                assert_bits_f32(
                    &compiled.predict_pmf_flat(&eval),
                    &ref_pmf,
                    &format!("tree pmf cap={cap} block={block} threads={threads}"),
                );
            }
        }
    }

    /// Single regression tree: values match bitwise.
    #[test]
    fn tree_regression_matches_reference((seed, numeric, categorical) in shape()) {
        let (train, eval) = table_pair(seed, numeric, categorical, Task::Regression);
        let model = train_tree(
            &train,
            &(0..train.n_attrs()).collect::<Vec<_>>(),
            &TrainParams { dmax: 6, ..TrainParams::for_task(Task::Regression) },
            seed,
        );
        let reference = model.predict_values_reference(&eval);
        for &(block, threads) in GRID {
            let compiled = CompiledModel::from_tree(&model).with_options(opts(block, threads));
            assert_bits_f64(
                &compiled.predict_values(&eval),
                &reference,
                &format!("tree values block={block} threads={threads}"),
            );
        }
    }

    /// Bagged classification forest: averaged PMFs and argmax labels match
    /// the reference fold (same tree order, same f32 accumulation).
    #[test]
    fn forest_classification_matches_reference((seed, numeric, categorical) in shape()) {
        let task = Task::Classification { n_classes: 3 };
        let (train, eval) = table_pair(seed, numeric, categorical, task);
        let n_attrs = train.n_attrs();
        let trees: Vec<DecisionTreeModel> = (0..5)
            .map(|i| {
                let cands: Vec<usize> = (0..n_attrs).filter(|a| (a + i) % 2 == 0 || n_attrs == 1).collect();
                let cands = if cands.is_empty() { vec![i % n_attrs] } else { cands };
                train_tree(
                    &train,
                    &cands,
                    &TrainParams { dmax: 5, ..TrainParams::for_task(task) },
                    seed ^ i as u64,
                )
            })
            .collect();
        let forest = ForestModel::new(trees, task);
        let ref_pmf: Vec<f32> = forest
            .predict_pmf_reference(&eval)
            .into_iter()
            .flatten()
            .collect();
        let ref_labels = forest.predict_labels_reference(&eval);
        for &(block, threads) in GRID {
            let compiled = CompiledModel::from_forest(&forest).with_options(opts(block, threads));
            assert_bits_f32(
                &compiled.predict_pmf_flat(&eval),
                &ref_pmf,
                &format!("forest pmf block={block} threads={threads}"),
            );
            prop_assert_eq!(&compiled.predict_labels(&eval), &ref_labels);
        }
        // The ForestModel methods themselves ride the compiled path; they
        // must agree with their own reference variants too.
        prop_assert_eq!(forest.predict_labels(&eval), ref_labels);
    }

    /// Bagged regression forest: averaged values match bitwise.
    #[test]
    fn forest_regression_matches_reference((seed, numeric, categorical) in shape()) {
        let (train, eval) = table_pair(seed, numeric, categorical, Task::Regression);
        let trees: Vec<DecisionTreeModel> = (0..4)
            .map(|i| {
                train_tree(
                    &train,
                    &(0..train.n_attrs()).collect::<Vec<_>>(),
                    &TrainParams { dmax: 5, ..TrainParams::for_task(Task::Regression) },
                    seed ^ (i as u64) << 4,
                )
            })
            .collect();
        let forest = ForestModel::new(trees, Task::Regression);
        let reference = forest.predict_values_reference(&eval);
        for &(block, threads) in GRID {
            let compiled = CompiledModel::from_forest(&forest).with_options(opts(block, threads));
            assert_bits_f64(
                &compiled.predict_values(&eval),
                &reference,
                &format!("forest values block={block} threads={threads}"),
            );
        }
        assert_bits_f64(&forest.predict_values(&eval), &reference, "ForestModel::predict_values");
    }

    /// Boosted additive model: margins (base + η·Σ tree) match bitwise —
    /// the per-row addition sequence is the reference's tree order.
    #[test]
    fn gbt_margins_match_reference((seed, numeric, categorical) in shape()) {
        let (train, eval) = table_pair(seed, numeric, categorical, Task::Regression);
        let trees: Vec<DecisionTreeModel> = (0..5)
            .map(|i| {
                train_tree(
                    &train,
                    &(0..train.n_attrs()).collect::<Vec<_>>(),
                    &TrainParams { dmax: 4, ..TrainParams::for_task(Task::Regression) },
                    seed.wrapping_mul(31) ^ i as u64,
                )
            })
            .collect();
        let gbt = treeserver::GbtModel {
            trees,
            base: 0.125 + seed as f64 * 1e-6,
            eta: 0.3,
            objective: treeserver::GbtObjective::SquaredError,
        };
        let reference = gbt.predict_margins_reference(&eval);
        for &(block, threads) in GRID {
            let compiled = CompiledModel::from_gbt(&gbt).with_options(opts(block, threads));
            assert_bits_f64(
                &compiled.predict_margins(&eval),
                &reference,
                &format!("gbt margins block={block} threads={threads}"),
            );
        }
        assert_bits_f64(&gbt.predict_margins(&eval), &reference, "GbtModel::predict_margins");
    }

    /// A dmax=0 training run yields a single-node tree; the compiled engine
    /// must serve it (every row stops at the root).
    #[test]
    fn single_node_tree_matches_reference(seed in 0u64..2_000) {
        let task = Task::Classification { n_classes: 3 };
        let (train, eval) = table_pair(seed, 2, 1, task);
        let model = train_tree(
            &train,
            &(0..train.n_attrs()).collect::<Vec<_>>(),
            &TrainParams { dmax: 0, ..TrainParams::for_task(task) },
            seed,
        );
        prop_assert_eq!(model.n_nodes(), 1);
        let compiled = CompiledModel::from_tree(&model).with_options(opts(7, 1));
        prop_assert_eq!(
            compiled.predict_labels(&eval),
            model.predict_labels_reference(&eval)
        );
    }
}

/// The big-code seeds of [`cardinalities`] do what they are there for: on
/// each, walking the evaluation rows through a trained tree the reference
/// way meets every case the one-hot image leaves to the pool — a code
/// ≥ 64 routed by a left-set that holds codes ≥ 64, a code ≥ 64 the node
/// never saw, and a missing categorical cell — and the engine agrees with
/// the reference on all of them.
#[test]
fn big_code_seeds_reach_the_pool_path() {
    use ts_datatable::Value;
    use ts_splits::SplitTest;
    let task = Task::Classification { n_classes: 3 };
    for seed in [0u64, 3, 6, 9] {
        assert_eq!(cardinalities(seed), (80, 96));
        let (train, eval) = table_pair(seed, 1, 2, task);
        let model = train_tree(
            &train,
            &(0..train.n_attrs()).collect::<Vec<_>>(),
            &TrainParams {
                dmax: 6,
                ..TrainParams::for_task(task)
            },
            seed,
        );
        let (mut routed, mut unseen, mut missing) = (0, 0, 0);
        for r in 0..eval.n_rows() {
            let mut i = 0;
            while let Some((split, l, right)) = &model.nodes[i].split {
                let SplitTest::CatIn(set) = &split.test else {
                    match split.test.goes_left(eval.value(r, split.attr)) {
                        None => break,
                        Some(left) => i = if left { *l } else { *right },
                    }
                    continue;
                };
                let big_set = set.iter().any(|&c| c >= 64);
                match eval.value(r, split.attr) {
                    Value::Cat(c)
                        if split
                            .seen
                            .as_ref()
                            .is_some_and(|s| s.binary_search(&c).is_err()) =>
                    {
                        unseen += usize::from(c >= 64);
                        break;
                    }
                    Value::Cat(c) => {
                        routed += usize::from(c >= 64 && big_set);
                        i = if set.binary_search(&c).is_ok() {
                            *l
                        } else {
                            *right
                        };
                    }
                    _ => {
                        missing += 1;
                        break;
                    }
                }
            }
        }
        assert!(
            routed > 0 && unseen > 0 && missing > 0,
            "seed {seed}: {routed} big codes routed, {unseen} unseen, {missing} missing"
        );
        let compiled = CompiledModel::from_tree(&model).with_options(opts(64, 1));
        assert_eq!(
            compiled.predict_labels(&eval),
            model.predict_labels_reference(&eval),
            "seed {seed}"
        );
    }
}

/// The row-id entry (`predict_*_rows(table, Rows::Ids(ids))`, what the
/// request tier calls) against the copy it replaced: scoring the listed
/// rows where they lie equals scoring `table.select_rows(ids)`, bit for
/// bit, for every output kind — whatever the list looks like (repeats,
/// descending, out of block order, empty, one row, a lockstep chunk and a
/// remainder, several blocks) and however the blocks fan out.
mod row_ids {
    use super::*;
    use ts_serve::Rows;

    /// Id lists over a 257-row table: lengths 0, 1, 17 and past several
    /// 16-row blocks, drawn with repeats in no order, plus the same list
    /// sorted descending.
    fn id_lists() -> impl Strategy<Value = Vec<Vec<u32>>> {
        tscheck::collection::vec(0u32..257, 40..120).prop_map(|ids| {
            let mut descending = ids.clone();
            descending.sort_unstable_by(|a, b| b.cmp(a));
            vec![
                Vec::new(),
                ids[..1].to_vec(),
                ids[..17].to_vec(),
                descending,
                ids,
            ]
        })
    }

    /// Blocks shorter than most lists, at one thread and at three.
    const GRID: &[(usize, usize)] = &[(16, 1), (16, 3), (4096, 1)];

    fn members(train: &DataTable, task: Task, seed: u64) -> Vec<DecisionTreeModel> {
        (0..4)
            .map(|i| {
                train_tree(
                    train,
                    &(0..train.n_attrs()).collect::<Vec<_>>(),
                    &TrainParams {
                        dmax: 5,
                        ..TrainParams::for_task(task)
                    },
                    seed ^ i,
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Labels and PMFs: a single tree (also under a depth cap, the
        /// per-row walk) and a bagged forest.
        #[test]
        fn labels_and_pmfs_of_listed_rows(
            (seed, numeric, categorical) in shape(),
            lists in id_lists(),
        ) {
            let task = Task::Classification { n_classes: 3 };
            let (train, eval) = table_pair(seed, numeric, categorical, task);
            let trees = members(&train, task, seed);
            let forest = ForestModel::new(trees.clone(), task);
            for &(block, threads) in GRID {
                let models = [
                    CompiledModel::from_tree(&trees[0]).with_options(opts(block, threads)),
                    CompiledModel::from_tree(&trees[0])
                        .with_options(opts(block, threads).with_max_depth(2)),
                    CompiledModel::from_forest(&forest).with_options(opts(block, threads)),
                ];
                for (m, model) in models.iter().enumerate() {
                    for ids in &lists {
                        let copied = eval.select_rows(ids);
                        let what = format!(
                            "model {m} block={block} threads={threads} {} ids",
                            ids.len()
                        );
                        prop_assert_eq!(
                            model.predict_labels_rows(&eval, Rows::Ids(ids)),
                            model.predict_labels(&copied),
                            "{}", what
                        );
                        assert_bits_f32(
                            &model.predict_pmf_flat_rows(&eval, Rows::Ids(ids)),
                            &model.predict_pmf_flat(&copied),
                            &what,
                        );
                    }
                }
            }
        }

        /// Values and margins: a single regression tree, a bagged forest
        /// and a boosted ensemble.
        #[test]
        fn values_and_margins_of_listed_rows(
            (seed, numeric, categorical) in shape(),
            lists in id_lists(),
        ) {
            let (train, eval) = table_pair(seed, numeric, categorical, Task::Regression);
            let trees = members(&train, Task::Regression, seed);
            let forest = ForestModel::new(trees.clone(), Task::Regression);
            let gbt = treeserver::GbtModel {
                trees: trees.clone(),
                base: 0.125,
                eta: 0.3,
                objective: treeserver::GbtObjective::SquaredError,
            };
            for &(block, threads) in GRID {
                let models = [
                    CompiledModel::from_tree(&trees[0]).with_options(opts(block, threads)),
                    CompiledModel::from_forest(&forest).with_options(opts(block, threads)),
                    CompiledModel::from_gbt(&gbt).with_options(opts(block, threads)),
                ];
                for (m, model) in models.iter().enumerate() {
                    for ids in &lists {
                        let copied = eval.select_rows(ids);
                        let what = format!(
                            "model {m} block={block} threads={threads} {} ids",
                            ids.len()
                        );
                        assert_bits_f64(
                            &model.predict_values_rows(&eval, Rows::Ids(ids)),
                            &model.predict_values(&copied),
                            &what,
                        );
                    }
                }
                let boosted = &models[2];
                for ids in &lists {
                    assert_bits_f64(
                        &boosted.predict_margins_rows(&eval, Rows::Ids(ids)),
                        &boosted.predict_margins(&eval.select_rows(ids)),
                        &format!("margins block={block} threads={threads} {} ids", ids.len()),
                    );
                }
            }
        }
    }

    /// A listed row past the table's end is a panic, not a wild read.
    #[test]
    #[should_panic]
    fn a_row_id_past_the_table_panics() {
        let task = Task::Classification { n_classes: 3 };
        let (train, eval) = table_pair(5, 2, 1, task);
        let model = train_tree(&train, &[0, 1, 2], &TrainParams::for_task(task), 5);
        CompiledModel::from_tree(&model).predict_labels_rows(&eval, Rows::Ids(&[3, 257]));
    }
}

/// Thresholds adjacent to the stored split value: rows exactly at, just
/// below, and just above a threshold must route identically (the compiled
/// comparison is the same `x <= thr` on the same f64 bits), and NaN stops.
#[test]
fn nan_adjacent_thresholds_route_identically() {
    let task = Task::Classification { n_classes: 2 };
    let train = generate(&SynthSpec {
        rows: 300,
        numeric: 2,
        task,
        seed: 77,
        concept_depth: 3,
        ..Default::default()
    });
    let model = train_tree(
        &train,
        &[0, 1],
        &TrainParams {
            dmax: 4,
            ..TrainParams::for_task(task)
        },
        7,
    );
    // Collect every numeric threshold in the tree and build probe rows at
    // thr, nextafter-style neighbours, and NaN.
    let mut probes: Vec<f64> = vec![f64::NAN, 0.0, -0.0];
    for node in &model.nodes {
        if let Some((info, _, _)) = &node.split {
            if let ts_splits::SplitTest::NumericLe(v) = info.test {
                probes.push(v);
                probes.push(f64::from_bits(v.to_bits().wrapping_add(1)));
                probes.push(f64::from_bits(v.to_bits().wrapping_sub(1)));
            }
        }
    }
    let n = probes.len();
    let eval = DataTable::new(
        train.schema().clone(),
        vec![
            ts_datatable::Column::Numeric(probes.clone()),
            ts_datatable::Column::Numeric(probes.iter().rev().copied().collect()),
        ],
        ts_datatable::Labels::Class(vec![0; n]),
    );
    let compiled = CompiledModel::from_tree(&model).with_options(opts(3, 1));
    assert_eq!(
        compiled.predict_labels(&eval),
        model.predict_labels_reference(&eval)
    );
    let fast = compiled.predict_pmf_flat(&eval);
    let slow: Vec<f32> = (0..n)
        .flat_map(|r| model.predict_row(&eval, r, u32::MAX).pmf().to_vec())
        .collect();
    assert_bits_f32(&fast, &slow, "nan-adjacent pmf");
}

/// A regression forest averages from the additive identity: two trees of
/// one `-0.0` leaf each average to `-0.0` on the reference, whose `sum`
/// starts from `-0.0`; an average started from `0.0` gives `+0.0`.
#[test]
fn forest_of_negative_zero_leaves_averages_to_negative_zero() {
    let (_, eval) = table_pair(3, 2, 1, Task::Regression);
    let leaf = DecisionTreeModel::new(
        vec![ts_tree::Node::leaf(ts_tree::Prediction::Real(-0.0), 1, 0)],
        Task::Regression,
    );
    let forest = ForestModel::new(vec![leaf.clone(), leaf], Task::Regression);
    let reference = forest.predict_values_reference(&eval);
    assert!(reference.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
    for &(block, threads) in GRID {
        let compiled = CompiledModel::from_forest(&forest).with_options(opts(block, threads));
        assert_bits_f64(
            &compiled.predict_values(&eval),
            &reference,
            &format!("-0.0 forest block={block} threads={threads}"),
        );
    }
    assert_bits_f64(
        &forest.predict_values(&eval),
        &reference,
        "ForestModel::predict_values",
    );
}

/// The serving stats sink observes every predict call.
#[test]
fn stats_count_batches_and_rows() {
    let task = Task::Classification { n_classes: 3 };
    let (train, eval) = table_pair(5, 2, 1, task);
    let model = train_tree(&train, &[0, 1, 2], &TrainParams::for_task(task), 5);
    let stats = std::sync::Arc::new(ts_serve::ServeStats::new());
    let compiled = CompiledModel::from_tree(&model).with_stats(std::sync::Arc::clone(&stats));
    compiled.predict_labels(&eval);
    compiled.predict_pmf_flat(&eval);
    assert_eq!(stats.batches(), 2);
    assert_eq!(stats.rows(), 2 * eval.n_rows() as u64);
    assert!(stats.to_json().contains("serve_batches"));
}

/// Regression: 0-row and 1-row tables through the instrumented engine.
/// Both must score cleanly (empty/singleton outputs), be recorded as
/// batches, and keep every derived stats ratio finite — the serving-tier
/// front cuts 1-row batches on deadline flushes, so this path is hot.
#[test]
fn stats_survive_zero_and_one_row_batches() {
    let task = Task::Classification { n_classes: 3 };
    let (train, eval) = table_pair(11, 2, 1, task);
    let model = train_tree(&train, &[0, 1, 2], &TrainParams::for_task(task), 11);
    let stats = std::sync::Arc::new(ts_serve::ServeStats::new());
    let compiled = CompiledModel::from_tree(&model).with_stats(std::sync::Arc::clone(&stats));

    let empty = eval.select_rows(&[]);
    assert_eq!(empty.n_rows(), 0);
    assert!(compiled.predict_labels(&empty).is_empty());
    assert!(compiled.predict_pmf_flat(&empty).is_empty());

    let one = eval.select_rows(&[7]);
    let lone = compiled.predict_labels(&one);
    assert_eq!(lone.len(), 1);
    assert_eq!(lone[0], model.predict_labels_reference(&eval)[7]);

    assert_eq!(stats.batches(), 3);
    assert_eq!(stats.rows(), 1);
    let sum = stats.summary();
    assert!(sum.mean_batch_rows.is_finite());
    assert!(sum.mean_latency_us.is_finite());
    assert!(sum.rows_per_sec.is_finite());
    assert!((sum.mean_batch_rows - 1.0 / 3.0).abs() < 1e-12);
}

/// Serving a table whose schema drifted from the training schema: columns
/// permuted, dropped, re-typed or appended. Each member tree decides for
/// itself — from its feature signature — whether the table lets it take
/// the lockstep walk; whatever it decides, the engine must do what the
/// reference traversal does: the same bits for a row that never reaches a
/// split the table cannot answer, the same panic for a row that does.
mod schema_drift {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use ts_datatable::{AttrMeta, AttrType, Column, Schema};
    use ts_tree::{Node, Prediction, SplitInfo};

    /// One edit of the served table's columns; indices wrap.
    #[derive(Debug, Clone, Copy)]
    enum Drift {
        Swap(usize, usize),
        DropLast(usize),
        Retype(usize),
        Append,
    }

    fn drift() -> impl Strategy<Value = Drift> {
        prop_oneof![
            (0usize..8, 0usize..8).prop_map(|(i, j)| Drift::Swap(i, j)),
            (0usize..8).prop_map(Drift::DropLast),
            (0usize..8).prop_map(Drift::Retype),
            Just(Drift::Append),
        ]
    }

    fn is_numeric(meta: &AttrMeta) -> bool {
        meta.ty == AttrType::Numeric
    }

    /// `eval` with `drifts` applied to its columns, in order. A re-typed
    /// or appended column is synthetic and has no missing values.
    fn drifted(eval: &DataTable, drifts: &[Drift]) -> DataTable {
        let n_rows = eval.n_rows();
        let mut cols: Vec<(AttrMeta, Column)> = eval
            .schema()
            .attrs
            .iter()
            .cloned()
            .zip(eval.columns().iter().cloned())
            .collect();
        let synthetic = |numeric: bool, name: String| {
            if numeric {
                let values = (0..n_rows).map(|r| (r % 7) as f64 * 0.37 - 1.0).collect();
                (AttrMeta::numeric(name), Column::Numeric(values))
            } else {
                let codes = (0..n_rows).map(|r| (r % 3) as u32).collect();
                (AttrMeta::categorical(name, 3), Column::Categorical(codes))
            }
        };
        for &d in drifts {
            let n = cols.len();
            match d {
                Drift::Append => cols.push(synthetic(true, format!("extra{n}"))),
                _ if n == 0 => {}
                Drift::Swap(i, j) => cols.swap(i % n, j % n),
                Drift::DropLast(k) => cols.truncate(n - 1 - k % n),
                Drift::Retype(i) => {
                    let (meta, _) = &cols[i % n];
                    cols[i % n] = synthetic(!is_numeric(meta), format!("{}_retyped", meta.name));
                }
            }
        }
        let (attrs, columns) = cols.into_iter().unzip();
        DataTable::new(
            Schema::new(attrs, eval.schema().task),
            columns,
            eval.labels().clone(),
        )
    }

    /// What scoring did: the output bits, or the panic's message.
    fn outcome(score: impl FnOnce() -> Vec<u64>) -> Result<Vec<u64>, String> {
        catch_unwind(AssertUnwindSafe(score)).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("a panic with a message")
        })
    }

    /// The differential check for one model on one served table:
    /// `reference` and `fast` both map a table to its output bits.
    ///
    /// Row by row (one-row tables), both sides must agree on the outcome,
    /// message included. The rows the reference can score are then scored
    /// together — 1 row, a block remainder either side of the 16-row
    /// lockstep chunk, and all of them across several 64-row blocks — and
    /// must come out bit-equal. Returns `(rows scored, rows that panicked)`.
    fn assert_same_outcomes(
        served: &DataTable,
        reference: impl Fn(&DataTable) -> Vec<u64>,
        fast: impl Fn(&DataTable) -> Vec<u64>,
    ) -> (usize, usize) {
        let mut scored_rows: Vec<u32> = Vec::new();
        let mut scored_bits: Vec<Vec<u64>> = Vec::new();
        for r in 0..served.n_rows() as u32 {
            let one = served.select_rows(&[r]);
            let expected = outcome(|| reference(&one));
            assert_eq!(outcome(|| fast(&one)), expected, "row {r} alone");
            if let Ok(bits) = expected {
                scored_rows.push(r);
                scored_bits.push(bits);
            }
        }
        for n in [1, 15, 16, 17, scored_rows.len()] {
            let n = n.min(scored_rows.len());
            let expected: Vec<u64> = scored_bits[..n].concat();
            assert_eq!(
                fast(&served.select_rows(&scored_rows[..n])),
                expected,
                "the first {n} scorable rows together"
            );
        }
        (scored_rows.len(), served.n_rows() - scored_rows.len())
    }

    fn f64_bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    /// Row-major output bits of a classification forest: each row's PMF,
    /// then its label.
    fn pmf_and_label_bits(pmf: Vec<f32>, labels: Vec<u32>) -> Vec<u64> {
        let k = pmf.len() / labels.len().max(1);
        let mut bits = Vec::with_capacity(pmf.len() + labels.len());
        for (r, &label) in labels.iter().enumerate() {
            bits.extend(
                pmf[r * k..(r + 1) * k]
                    .iter()
                    .map(|x| u64::from(x.to_bits())),
            );
            bits.push(u64::from(label));
        }
        bits
    }

    /// Forest PMFs and labels, reference and compiled (64-row blocks, so
    /// the 257-row table spans five).
    fn forest_outcomes(forest: &ForestModel, served: &DataTable) -> (usize, usize) {
        let compiled = CompiledModel::from_forest(forest).with_options(opts(64, 1));
        assert_same_outcomes(
            served,
            |t| {
                pmf_and_label_bits(
                    forest
                        .predict_pmf_reference(t)
                        .into_iter()
                        .flatten()
                        .collect(),
                    forest.predict_labels_reference(t),
                )
            },
            |t| pmf_and_label_bits(compiled.predict_pmf_flat(t), compiled.predict_labels(t)),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// A bagged forest whose members saw different column subsets, so
        /// a drift can leave some members consistent and others not.
        #[test]
        fn forest_on_a_drifted_table_does_what_the_reference_does(
            (seed, numeric, categorical) in shape(),
            drifts in tscheck::collection::vec(drift(), 0..3),
        ) {
            let task = Task::Classification { n_classes: 3 };
            let (train, eval) = table_pair(seed, numeric, categorical, task);
            let m = train.n_attrs();
            let trees: Vec<DecisionTreeModel> = (0..4usize)
                .map(|i| {
                    let candidates: Vec<usize> = (0..m).filter(|a| (a + i) % 3 != 0 || m == 1).collect();
                    train_tree(
                        &train,
                        &candidates,
                        &TrainParams { dmax: 5, ..TrainParams::for_task(task) },
                        seed ^ i as u64,
                    )
                })
                .collect();
            let forest = ForestModel::new(trees, task);
            let served = drifted(&eval, &drifts);
            let (scored, panicked) = forest_outcomes(&forest, &served);
            if drifts.is_empty() {
                prop_assert_eq!((scored, panicked), (eval.n_rows(), 0));
            }
        }

        /// A boosted ensemble: margins.
        #[test]
        fn gbt_on_a_drifted_table_does_what_the_reference_does(
            (seed, numeric, categorical) in shape(),
            drifts in tscheck::collection::vec(drift(), 0..3),
        ) {
            let (train, eval) = table_pair(seed, numeric, categorical, Task::Regression);
            let trees: Vec<DecisionTreeModel> = (0..4)
                .map(|i| {
                    train_tree(
                        &train,
                        &(0..train.n_attrs()).collect::<Vec<_>>(),
                        &TrainParams { dmax: 4, ..TrainParams::for_task(Task::Regression) },
                        seed.wrapping_mul(31) ^ i as u64,
                    )
                })
                .collect();
            let gbt = treeserver::GbtModel {
                trees,
                base: 0.125,
                eta: 0.3,
                objective: treeserver::GbtObjective::SquaredError,
            };
            let compiled = CompiledModel::from_gbt(&gbt).with_options(opts(64, 1));
            assert_same_outcomes(
                &drifted(&eval, &drifts),
                |t| f64_bits(gbt.predict_margins_reference(t)),
                |t| f64_bits(compiled.predict_margins(t)),
            );
        }
    }

    fn leaf(label: u32, depth: u32) -> Node {
        let mut pmf = vec![0.0; 3];
        pmf[label as usize] = 1.0;
        Node::leaf(Prediction::Class { label, pmf }, 1, depth)
    }

    fn split(attr: usize, test: ts_splits::SplitTest, left: usize, depth: u32) -> Node {
        Node {
            split: Some((
                SplitInfo {
                    attr,
                    test,
                    gain: 1.0,
                    missing_left: true,
                    seen: None,
                },
                left,
                left + 1,
            )),
            ..leaf(0, depth)
        }
    }

    /// The case the per-tree verdict exists for: a forest in which *one*
    /// member is inconsistent with the table. That member alone takes the
    /// per-row walk; rows it routes away from its offending split score
    /// exactly as the reference scores them, and the first row routed into
    /// it panics with the reference's message.
    #[test]
    fn one_inconsistent_member_panics_only_for_the_rows_that_reach_it() {
        let task = Task::Classification { n_classes: 3 };
        let (_, eval) = table_pair(41, 2, 1, task);
        // Reads columns 0 and 1 only: consistent whatever column 2 is.
        let steady = DecisionTreeModel::new(
            vec![
                split(0, ts_splits::SplitTest::NumericLe(0.0), 1, 0),
                leaf(1, 1),
                split(1, ts_splits::SplitTest::NumericLe(0.5), 3, 1),
                leaf(2, 2),
                leaf(0, 2),
            ],
            task,
        );
        // x0 <= 0.2 is a leaf; only the other rows reach the split on the
        // categorical column 2.
        let drifting = DecisionTreeModel::new(
            vec![
                split(0, ts_splits::SplitTest::NumericLe(0.2), 1, 0),
                leaf(2, 1),
                split(2, ts_splits::SplitTest::cat_in(vec![0, 2]), 3, 1),
                leaf(0, 2),
                leaf(1, 2),
            ],
            task,
        );
        let forest = ForestModel::new(vec![steady.clone(), drifting, steady], task);

        assert_eq!(
            forest_outcomes(&forest, &eval),
            (eval.n_rows(), 0),
            "as trained"
        );

        let served = drifted(&eval, &[Drift::Retype(2)]);
        let (scored, panicked) = forest_outcomes(&forest, &served);
        assert!(
            scored >= 17 && panicked >= 17,
            "{scored} rows scored, {panicked} panicked"
        );
        let first_bad = (0..served.n_rows() as u32)
            .find(|&r| {
                let x0 = served.value(r as usize, 0);
                matches!(x0, ts_datatable::Value::Num(x) if x > 0.2)
            })
            .expect("a row routed to the drifting split");
        let compiled = CompiledModel::from_forest(&forest);
        assert_eq!(
            outcome(|| compiled
                .predict_labels(&served.select_rows(&[first_bad]))
                .into_iter()
                .map(u64::from)
                .collect()),
            Err("categorical split applied to numeric value".to_string())
        );
    }
}
