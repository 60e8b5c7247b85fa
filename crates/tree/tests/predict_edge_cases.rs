//! Batch-prediction edge cases: degenerate tables and degenerate models
//! must be well-defined on both the compiled and the reference paths.

use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{AttrMeta, Column, DataTable, Labels, Schema, Task, MISSING_CAT};
use ts_tree::{train_tree, CompiledTree, ForestModel, Rows, TableView, TrainParams};

fn trained_classifier() -> (ts_tree::DecisionTreeModel, DataTable) {
    let t = generate(&SynthSpec {
        rows: 500,
        numeric: 2,
        categorical: 1,
        cat_cardinality: 4,
        seed: 42,
        concept_depth: 3,
        ..Default::default()
    });
    let m = train_tree(
        &t,
        &(0..t.n_attrs()).collect::<Vec<_>>(),
        &TrainParams::for_task(t.schema().task),
        0,
    );
    (m, t)
}

/// A table over `schema_of`'s schema with the given columns.
fn table_like(src: &DataTable, cols: Vec<Column>, n: usize) -> DataTable {
    DataTable::new(
        src.schema().clone(),
        cols,
        match src.schema().task {
            Task::Classification { .. } => Labels::Class(vec![0; n]),
            Task::Regression => Labels::Real(vec![0.0; n]),
        },
    )
}

#[test]
fn empty_batch_predicts_empty() {
    let (m, t) = trained_classifier();
    let empty = table_like(
        &t,
        vec![
            Column::Numeric(vec![]),
            Column::Numeric(vec![]),
            Column::Categorical(vec![]),
        ],
        0,
    );
    assert_eq!(m.predict_labels(&empty), Vec::<u32>::new());
    assert_eq!(m.predict_labels_reference(&empty), Vec::<u32>::new());
    let f = ForestModel::new(vec![m], t.schema().task);
    assert_eq!(f.predict_labels(&empty), Vec::<u32>::new());
    assert!(f.predict_pmf(&empty).is_empty());
}

#[test]
fn single_row_batch_matches_per_row_walk() {
    let (m, t) = trained_classifier();
    let one = table_like(
        &t,
        vec![
            Column::Numeric(vec![0.3]),
            Column::Numeric(vec![-1.2]),
            Column::Categorical(vec![2]),
        ],
        1,
    );
    let batch = m.predict_labels(&one);
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0], m.predict_row(&one, 0, u32::MAX).label());
}

#[test]
fn all_missing_column_stops_at_first_test_on_it() {
    let (m, t) = trained_classifier();
    let n = 9;
    // Every value of every column missing: each row stops at the first
    // split it reaches — i.e. the root — on both paths.
    let all_missing = table_like(
        &t,
        vec![
            Column::Numeric(vec![f64::NAN; n]),
            Column::Numeric(vec![f64::NAN; n]),
            Column::Categorical(vec![MISSING_CAT; n]),
        ],
        n,
    );
    let compiled = CompiledTree::compile(&m);
    let view = TableView::of(&all_missing);
    let mut img = view.image();
    img.fill(Rows::all(&all_missing));
    let mut nodes = vec![0u32; n];
    compiled.terminal_nodes_into(&img, u32::MAX, &mut nodes);
    assert!(nodes.iter().all(|&id| id == 0), "all rows stop at the root");
    let reference = m.predict_labels_reference(&all_missing);
    assert_eq!(m.predict_labels(&all_missing), reference);
    assert_eq!(
        reference,
        vec![m.predict_row(&all_missing, 0, 0).label(); n]
    );
}

#[test]
fn zero_tree_forest_predictions_are_defined() {
    let schema = Schema::new(
        vec![AttrMeta::numeric("x")],
        Task::Classification { n_classes: 4 },
    );
    let t = DataTable::new(
        schema,
        vec![Column::Numeric(vec![1.0, 2.0, 3.0])],
        Labels::Class(vec![0; 3]),
    );
    let f = ForestModel::new(vec![], Task::Classification { n_classes: 4 });
    assert_eq!(f.predict_labels(&t), vec![0, 0, 0]);
    for pmf in f.predict_pmf(&t) {
        assert_eq!(pmf, vec![0.25; 4]);
    }
    let reg = ForestModel::new(vec![], Task::Regression);
    let rt = DataTable::new(
        Schema::new(vec![AttrMeta::numeric("x")], Task::Regression),
        vec![Column::Numeric(vec![1.0, 2.0])],
        Labels::Real(vec![0.0; 2]),
    );
    assert_eq!(reg.predict_values(&rt), vec![0.0, 0.0]);
    assert_eq!(reg.predict_values_reference(&rt), vec![0.0, 0.0]);
}
