//! Differential suite for the exact subtree trainer.
//!
//! `train_subtree` hands every node a segment of a node-partitioned
//! presorted order. The reference below shares none of that: it gathers each
//! node's values and labels into fresh buffers and asks the *gathered*
//! kernels (`exact::best_split_for_column`, which sort the buffer) for the
//! split. Both must produce the same model, node for node and bit for bit.
//! Three model fingerprints produced by the commit before the partitioned
//! order existed pin the bytes across history as well.

use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{AttrMeta, AttrType, Column, DataTable, Labels, Schema, Task, MISSING_CAT};
use ts_splits::exact::{best_split_for_column, distinct_categories, ColumnSplit};
use ts_splits::impurity::{Impurity, LabelView, NodeStats};
use ts_tree::trainer::prediction_from_stats;
use ts_tree::{
    train_subtree, train_tree, DecisionTreeModel, LocalDataset, Node, SplitInfo, TrainParams,
};
use tscheck::prelude::*;
use tscheck::{Rng, SeedableRng, StdRng};

/// The reference trainer: gather, sort, scan — per node, per column.
fn reference(data: &LocalDataset, p: &TrainParams, base_depth: u32) -> DecisionTreeModel {
    let mut nodes = Vec::new();
    let all: Vec<u32> = (0..data.n_rows() as u32).collect();
    grow(data, p, base_depth, &all, 0, &mut nodes);
    DecisionTreeModel::new(nodes, data.task)
}

fn grow(
    data: &LocalDataset,
    p: &TrainParams,
    base_depth: u32,
    rows: &[u32],
    depth: u32,
    nodes: &mut Vec<Node>,
) -> usize {
    let labels = data.labels.gather(rows);
    let view = LabelView::of(&labels, data.task.n_classes().unwrap_or(0));
    let stats = NodeStats::from_view(view);
    let id = nodes.len();
    nodes.push(Node::leaf(
        prediction_from_stats(&stats),
        rows.len() as u64,
        depth,
    ));
    if base_depth + depth >= p.dmax || rows.len() as u64 <= p.tau_leaf || stats.is_pure() {
        return id;
    }
    let mut best: Option<(usize, ColumnSplit)> = None;
    for i in 0..data.n_cols() {
        let gathered = data.columns[i].gather_positions(rows);
        let Some(s) = best_split_for_column(&gathered, data.types[i], view, p.impurity) else {
            continue;
        };
        let wins = best.as_ref().is_none_or(|(bi, bs)| {
            ColumnSplit::challenger_wins(&s, data.attrs[i], bs, data.attrs[*bi])
        });
        if wins {
            best = Some((i, s));
        }
    }
    let Some((i, s)) = best else { return id };
    let goes_left = |&r: &u32| {
        let v = data.columns[i].value(r as usize);
        s.test.goes_left(v).unwrap_or(s.missing_left)
    };
    let (left, right): (Vec<u32>, Vec<u32>) = rows.iter().partition(|r| goes_left(r));
    let seen = data.columns[i]
        .gather_positions(rows)
        .as_categorical()
        .map(distinct_categories);
    let info = SplitInfo {
        attr: data.attrs[i],
        test: s.test,
        gain: s.gain,
        missing_left: s.missing_left,
        seen,
    };
    let l = grow(data, p, base_depth, &left, depth + 1, nodes);
    let r = grow(data, p, base_depth, &right, depth + 1, nodes);
    nodes[id].split = Some((info, l, r));
    id
}

/// What one generated case trains on.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    rows: usize,
    missing_rate: f64,
    regression: bool,
    base_depth: u32,
    tau_leaf: u64,
    threads: usize,
}

fn any_case() -> impl Strategy<Value = Case> {
    (
        any::<u64>(),
        // Mostly small tables; some past the trainer's parallel-column
        // threshold (2 048 rows) so `threads = 2` takes the tspar path.
        prop_oneof![3 => 20usize..400, 1 => 2_100usize..2_600],
        prop_oneof![Just(0.0f64), Just(0.1f64), Just(0.3f64)],
        any::<bool>(),
        0u32..3,
        prop_oneof![Just(1u64), Just(4u64), Just(25u64)],
        prop_oneof![Just(1usize), Just(2usize)],
    )
        .prop_map(
            |(seed, rows, missing_rate, regression, base_depth, tau_leaf, threads)| Case {
                seed,
                rows,
                missing_rate,
                regression,
                base_depth,
                tau_leaf,
                threads,
            },
        )
}

/// Four informative numeric columns quantised to a handful of levels (so
/// equal values and equal gains are the rule, not the exception), a constant
/// column, an all-missing column and two categorical ones; the label follows
/// a small planted rule plus noise.
fn table_of(case: &Case) -> DataTable {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let n = case.rows;
    let missing = |rng: &mut StdRng| rng.gen_bool(case.missing_rate);
    let mut columns = Vec::new();
    let mut attrs = Vec::new();
    for (i, levels) in [3u32, 7, 16, 50].into_iter().enumerate() {
        let col = (0..n)
            .map(|_| {
                let v = f64::from(rng.gen_range(0..levels)) * 0.5 - 1.0;
                if missing(&mut rng) {
                    f64::NAN
                } else {
                    v
                }
            })
            .collect();
        columns.push(Column::Numeric(col));
        attrs.push(AttrMeta::numeric(format!("n{i}")));
    }
    columns.push(Column::Numeric(vec![2.5; n]));
    attrs.push(AttrMeta::numeric("constant"));
    columns.push(Column::Numeric(vec![f64::NAN; n]));
    attrs.push(AttrMeta::numeric("all_missing"));
    for (i, card) in [2u32, 5].into_iter().enumerate() {
        let col = (0..n)
            .map(|_| {
                let c = rng.gen_range(0..card);
                if missing(&mut rng) {
                    MISSING_CAT
                } else {
                    c
                }
            })
            .collect();
        columns.push(Column::Categorical(col));
        attrs.push(AttrMeta::categorical(format!("c{i}"), card));
    }
    let score = |row: usize| {
        let num = |a: usize| match &columns[a] {
            Column::Numeric(v) if !v[row].is_nan() => v[row],
            _ => 0.0,
        };
        let cat = match &columns[7] {
            Column::Categorical(c) if c[row] != MISSING_CAT => f64::from(c[row]),
            _ => 0.0,
        };
        num(1) + if num(2) > 2.0 { 2.0 } else { 0.0 } + cat * 0.5
    };
    let (task, labels) = if case.regression {
        let ys = (0..n)
            .map(|r| score(r) + rng.gen_range(-0.25..0.25))
            .collect();
        (Task::Regression, Labels::Real(ys))
    } else {
        let ys = (0..n)
            .map(|r| {
                if rng.gen_bool(0.1) {
                    rng.gen_range(0..3u32)
                } else {
                    (score(r).max(0.0) as u32) % 3
                }
            })
            .collect();
        (Task::Classification { n_classes: 3 }, Labels::Class(ys))
    };
    DataTable::new(Schema::new(attrs, task), columns, labels)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The partitioned-order trainer and the gather-and-sort reference grow
    /// the same tree.
    #[test]
    fn trainer_matches_gathering_reference(case in any_case()) {
        let t = table_of(&case);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        let data = LocalDataset::from_table(&t, &all);
        let params = TrainParams {
            dmax: 9,
            tau_leaf: case.tau_leaf,
            threads: case.threads,
            ..TrainParams::for_task(t.schema().task)
        };
        let model = train_subtree(&data, &params, case.base_depth, 0);
        prop_assert_eq!(model, reference(&data, &params, case.base_depth));
    }

    /// Same on a row subset and a column subset of a table — the shape of a
    /// subtree-task's `Dx` below the root.
    #[test]
    fn subtree_over_a_row_subset_matches_reference(case in any_case(), stride in 2usize..5) {
        let t = table_of(&case);
        let rows: Vec<u32> = (0..t.n_rows() as u32).step_by(stride).collect();
        let data = LocalDataset::from_table_rows(&t, &[0, 2, 3, 5, 7], &rows);
        let params = TrainParams {
            impurity: if case.regression { Impurity::Variance } else { Impurity::Entropy },
            dmax: 7,
            tau_leaf: case.tau_leaf,
            threads: case.threads,
            ..TrainParams::default()
        };
        let model = train_subtree(&data, &params, case.base_depth, 0);
        prop_assert_eq!(model, reference(&data, &params, case.base_depth));
    }
}

#[test]
fn generated_tables_have_the_awkward_columns() {
    let t = table_of(&Case {
        seed: 3,
        rows: 200,
        missing_rate: 0.3,
        regression: false,
        base_depth: 0,
        tau_leaf: 1,
        threads: 1,
    });
    assert_eq!(t.schema().attr_type(4), AttrType::Numeric);
    assert_eq!(t.column(4).n_missing(), 0);
    assert_eq!(t.column(5).n_missing(), 200);
    let missing = t.column(2).n_missing();
    assert!((30..=90).contains(&missing), "{missing} of 200 missing");
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fingerprint(model: &DecisionTreeModel) -> u64 {
    fnv1a64(model.to_json().as_bytes())
}

// The three values below were printed by this file's tests run against
// commit 8c931fd — the last one whose trainer filtered or re-sorted per
// node. They are not to be regenerated from the code under test.
const CLASS_MISSING_FINGERPRINT: u64 = 1_023_540_159_586_525_664;
const REGRESSION_FINGERPRINT: u64 = 3_691_586_138_888_238_095;
const SUBTREE_FINGERPRINT: u64 = 12_792_779_721_881_313_937;

#[test]
fn classification_with_missing_values_fingerprint_is_pinned() {
    let t = generate(&SynthSpec {
        rows: 3_000,
        numeric: 6,
        categorical: 2,
        cat_cardinality: 6,
        task: Task::Classification { n_classes: 4 },
        missing_rate: 0.1,
        noise: 0.1,
        concept_depth: 5,
        seed: 41,
        ..Default::default()
    });
    let all: Vec<usize> = (0..t.n_attrs()).collect();
    let model = train_tree(&t, &all, &TrainParams::for_task(t.schema().task), 0);
    assert!(model.n_nodes() > 100, "{} nodes", model.n_nodes());
    assert_eq!(fingerprint(&model), CLASS_MISSING_FINGERPRINT);
}

#[test]
fn regression_fingerprint_is_pinned() {
    let t = generate(&SynthSpec {
        rows: 2_500,
        numeric: 5,
        categorical: 3,
        cat_cardinality: 9,
        task: Task::Regression,
        missing_rate: 0.3,
        noise: 0.05,
        concept_depth: 4,
        seed: 42,
        ..Default::default()
    });
    let all: Vec<usize> = (0..t.n_attrs()).collect();
    let params = TrainParams {
        dmax: 8,
        tau_leaf: 3,
        threads: 2,
        ..TrainParams::for_task(Task::Regression)
    };
    let model = train_tree(&t, &all, &params, 0);
    assert!(model.n_nodes() > 100, "{} nodes", model.n_nodes());
    assert_eq!(fingerprint(&model), REGRESSION_FINGERPRINT);
}

#[test]
fn subtree_below_the_root_fingerprint_is_pinned() {
    let t = generate(&SynthSpec {
        rows: 4_000,
        numeric: 8,
        categorical: 2,
        task: Task::Classification { n_classes: 3 },
        noise: 0.15,
        seed: 43,
        ..Default::default()
    });
    let rows: Vec<u32> = (0..t.n_rows() as u32).filter(|r| r % 3 != 1).collect();
    let data = LocalDataset::from_table_rows(&t, &[0, 1, 3, 4, 6, 8, 9], &rows);
    let params = TrainParams {
        impurity: Impurity::Entropy,
        dmax: 12,
        tau_leaf: 5,
        ..Default::default()
    };
    let model = train_subtree(&data, &params, 2, 0);
    assert!(model.n_nodes() > 100, "{} nodes", model.n_nodes());
    assert_eq!(fingerprint(&model), SUBTREE_FINGERPRINT);
}

/// Fingerprints of the trees `node_step_trees` grows, one row per
/// `(mode, labels)` and one column per `(dmax, tau_leaf)`, then of the two
/// noise-free trees. Printed by this file's tests run against commit cc275d2
/// — the last one whose trainer counted every node's labels itself,
/// partitioned the rows of every split and recounted each column's winner.
/// They are not to be regenerated from the code under test.
const NODE_STEP_FINGERPRINTS: [[u64; 8]; 4] = [
    [
        8_214_485_207_617_723_460,
        8_214_485_207_617_723_460,
        5_443_626_246_183_438_701,
        5_443_626_246_183_438_701,
        15_109_318_736_675_208_370,
        8_254_546_151_378_453_587,
        2_581_105_586_835_278_219,
        1_515_197_271_968_465_822,
    ],
    [
        8_908_733_097_032_172_843,
        8_908_733_097_032_172_843,
        16_939_614_413_099_360_275,
        16_939_614_413_099_360_275,
        16_710_179_167_699_445_287,
        17_856_593_061_052_721_436,
        2_263_291_425_349_563_071,
        7_943_304_357_870_970_721,
    ],
    [
        11_299_616_949_678_918_335,
        11_299_616_949_678_918_335,
        5_757_448_991_396_646_625,
        10_166_358_554_423_610_027,
        7_800_129_934_338_291_738,
        11_737_504_013_474_445_274,
        11_237_234_048_582_752_649,
        9_991_835_823_261_250_759,
    ],
    [
        9_608_519_382_544_154_325,
        9_608_519_382_544_154_325,
        14_398_956_460_538_769_178,
        4_868_690_749_394_233_791,
        14_287_098_745_641_545_393,
        6_615_037_121_430_461_413,
        7_060_754_054_174_328_023,
        17_600_204_290_492_521_298,
    ],
];
const PURE_LEAVES_FINGERPRINTS: [u64; 2] = [5_006_497_861_724_039_161, 8_511_758_343_945_726_758];

fn node_step_table(task: Task, noise: f64) -> DataTable {
    generate(&SynthSpec {
        rows: 400,
        numeric: 5,
        categorical: 2,
        cat_cardinality: 5,
        task,
        missing_rate: 0.05,
        noise,
        concept_depth: 4,
        seed: 44,
        ..Default::default()
    })
}

/// Shallow trees over a table with 5 % missing cells: `dmax` 1–4 cuts the
/// tree where both children of a split are leaves by depth, `tau_leaf` 50
/// where they are by size, and every child that is a leaf takes its
/// prediction from the statistics its parent's split came with — class
/// counts read off the scan, regression sums routed in row order, and the
/// random splits' of extra-trees.
#[test]
fn node_step_fingerprints_are_pinned() {
    use ts_tree::TrainMode;
    let mut got = [[0u64; 8]; 4];
    let cases = [
        (TrainMode::Exact, Task::Classification { n_classes: 3 }),
        (TrainMode::Exact, Task::Regression),
        (TrainMode::ExtraTrees, Task::Classification { n_classes: 3 }),
        (TrainMode::ExtraTrees, Task::Regression),
    ];
    for (row, (mode, task)) in cases.into_iter().enumerate() {
        let t = node_step_table(task, 0.1);
        let all: Vec<usize> = (0..t.n_attrs()).collect();
        for dmax in 1..=4u32 {
            for (j, tau_leaf) in [1u64, 50].into_iter().enumerate() {
                let params = TrainParams {
                    dmax,
                    tau_leaf,
                    mode,
                    ..TrainParams::for_task(task)
                };
                let model = train_tree(&t, &all, &params, 7);
                assert!(model.max_depth() <= dmax);
                got[row][(dmax as usize - 1) * 2 + j] = fingerprint(&model);
            }
        }
    }
    assert_eq!(got, NODE_STEP_FINGERPRINTS);
}

/// A noise-free concept grown to purity: splits whose children are both
/// pure sit at every depth, so purity — not `dmax`, not `tau_leaf` — is what
/// makes the pair of leaves.
#[test]
fn pure_leaves_fingerprints_are_pinned() {
    use ts_tree::TrainMode;
    let t = node_step_table(Task::Classification { n_classes: 3 }, 0.0);
    let all: Vec<usize> = (0..t.n_attrs()).collect();
    let got = [TrainMode::Exact, TrainMode::ExtraTrees].map(|mode| {
        let params = TrainParams {
            dmax: 30,
            mode,
            ..TrainParams::default()
        };
        let model = train_tree(&t, &all, &params, 7);
        let pure_pairs = model
            .nodes
            .iter()
            .filter_map(|n| n.split.as_ref())
            .filter(|(_, l, r)| {
                let leaf = |i: &usize| model.nodes[*i].is_leaf() && model.nodes[*i].n_rows > 1;
                leaf(l) && leaf(r)
            })
            .count();
        assert!(pure_pairs >= 1, "{mode:?}: no split into two pure leaves");
        assert!(model.max_depth() < 30);
        fingerprint(&model)
    });
    assert_eq!(got, PURE_LEAVES_FINGERPRINTS);
}
