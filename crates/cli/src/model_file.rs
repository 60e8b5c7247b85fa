//! The CLI's on-disk model envelope: a tagged JSON union over the three
//! model kinds the engine produces.

use treeserver::GbtModel;
use ts_datatable::DataTable;
use ts_tree::{DecisionTreeModel, ForestModel};
use tsjson::json;

/// A persisted model of any kind.
pub enum ModelFile {
    /// A single decision tree.
    Tree(DecisionTreeModel),
    /// A bagged forest (random forest / extra-trees).
    Forest(ForestModel),
    /// A gradient-boosted ensemble.
    Gbt(GbtModel),
}

impl ModelFile {
    /// Serialises with a `kind` tag.
    pub fn to_json(&self) -> String {
        let v = match self {
            ModelFile::Tree(m) => json!({"kind": "tree", "model": m}),
            ModelFile::Forest(m) => json!({"kind": "forest", "model": m}),
            ModelFile::Gbt(m) => json!({"kind": "gbt", "model": m}),
        };
        tsjson::to_string(&v).expect("model serialisation cannot fail")
    }

    /// Parses the tagged envelope.
    pub fn from_json(s: &str) -> Result<ModelFile, String> {
        let v: tsjson::Value = tsjson::from_str(s).map_err(|e| e.to_string())?;
        let kind = v
            .get("kind")
            .and_then(|k| k.as_str())
            .ok_or("missing \"kind\" tag")?;
        let model = v.get("model").ok_or("missing \"model\" body")?.clone();
        let parsed = match kind {
            "tree" => tsjson::from_value(model).map(ModelFile::Tree),
            "forest" => tsjson::from_value(model).map(ModelFile::Forest),
            "gbt" => tsjson::from_value(model).map(ModelFile::Gbt),
            other => return Err(format!("unknown model kind {other:?}")),
        };
        parsed.map_err(|e| e.to_string())
    }

    /// Compiles the model for batched serving (see `ts-serve`).
    pub fn compile(&self) -> ts_serve::CompiledModel {
        match self {
            ModelFile::Tree(m) => ts_serve::CompiledModel::from_tree(m),
            ModelFile::Forest(m) => ts_serve::CompiledModel::from_forest(m),
            ModelFile::Gbt(m) => ts_serve::CompiledModel::from_gbt(m),
        }
    }

    /// Class predictions on the per-row reference traversal (`--reference`).
    pub fn predict_labels_reference(&self, table: &DataTable) -> Vec<u32> {
        match self {
            ModelFile::Tree(m) => m.predict_labels_reference(table),
            ModelFile::Forest(m) => m.predict_labels_reference(table),
            ModelFile::Gbt(m) => (m.predict_margins_reference(table).into_iter())
                .map(|v| u32::from(v > 0.0))
                .collect(),
        }
    }

    /// Value predictions on the per-row reference traversal (`--reference`).
    pub fn predict_values_reference(&self, table: &DataTable) -> Vec<f64> {
        match self {
            ModelFile::Tree(m) => m.predict_values_reference(table),
            ModelFile::Forest(m) => m.predict_values_reference(table),
            ModelFile::Gbt(m) => m.predict_margins_reference(table),
        }
    }

    /// Gain-based importance, sized to the largest attribute id seen.
    pub fn feature_importance(&self) -> Vec<f64> {
        let n = self.max_attr() + 1;
        match self {
            ModelFile::Tree(m) => m.feature_importance(n),
            ModelFile::Forest(m) => m.feature_importance(n),
            ModelFile::Gbt(m) => {
                let forest = ForestModel::new(m.trees.clone(), ts_datatable::Task::Regression);
                forest.feature_importance(n)
            }
        }
    }

    /// The `index`-th tree of the model, if any.
    pub fn tree_at(&self, index: usize) -> Option<&DecisionTreeModel> {
        self.trees().get(index)
    }

    fn trees(&self) -> &[DecisionTreeModel] {
        match self {
            ModelFile::Tree(m) => std::slice::from_ref(m),
            ModelFile::Forest(m) => &m.trees,
            ModelFile::Gbt(m) => &m.trees,
        }
    }

    fn max_attr(&self) -> usize {
        (self.trees().iter())
            .flat_map(|t| t.nodes.iter())
            .filter_map(|n| n.split.as_ref().map(|(i, _, _)| i.attr))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_datatable::synth::{generate, SynthSpec};
    use ts_tree::{train_tree, TrainParams};

    fn sample_tree() -> (DecisionTreeModel, DataTable) {
        let t = generate(&SynthSpec {
            rows: 500,
            numeric: 3,
            seed: 1,
            ..Default::default()
        });
        let m = train_tree(&t, &[0, 1, 2], &TrainParams::for_task(t.schema().task), 0);
        (m, t)
    }

    fn sample_gbt() -> (treeserver::GbtModel, DataTable) {
        let t = generate(&SynthSpec {
            rows: 500,
            numeric: 3,
            task: ts_datatable::Task::Regression,
            seed: 5,
            ..Default::default()
        });
        let params = TrainParams::for_task(ts_datatable::Task::Regression);
        let trees: Vec<_> = (0..3)
            .map(|i| train_tree(&t, &[0, 1, 2], &params, i as u64))
            .collect();
        let gbt = treeserver::GbtModel {
            trees,
            base: 0.25,
            eta: 0.1,
            objective: treeserver::GbtObjective::SquaredError,
        };
        (gbt, t)
    }

    #[test]
    fn envelope_roundtrips_every_kind() {
        let (tree, table) = sample_tree();
        let forest = ForestModel::new(vec![tree.clone()], table.schema().task);
        for mf in [ModelFile::Tree(tree.clone()), ModelFile::Forest(forest)] {
            let parsed = ModelFile::from_json(&mf.to_json()).unwrap();
            assert_eq!(
                parsed.compile().predict_labels(&table),
                mf.compile().predict_labels(&table)
            );
        }
        let (gbt, reg_table) = sample_gbt();
        let mf = ModelFile::Gbt(gbt);
        let parsed = ModelFile::from_json(&mf.to_json()).unwrap();
        assert_eq!(
            parsed.compile().predict_values(&reg_table),
            mf.compile().predict_values(&reg_table)
        );
    }

    /// Train → save → load → compile must reproduce the in-memory model's
    /// predictions bit-for-bit: the envelope may not drop or round any
    /// payload field the evaluator reads.
    #[test]
    fn saved_model_compiles_to_identical_predictions() {
        let (tree, table) = sample_tree();
        let forest = ForestModel::new(vec![tree.clone(), tree.clone()], table.schema().task);
        for mf in [ModelFile::Tree(tree), ModelFile::Forest(forest)] {
            let in_memory = mf.compile().predict_labels(&table);
            let reloaded = ModelFile::from_json(&mf.to_json()).unwrap();
            assert_eq!(reloaded.compile().predict_labels(&table), in_memory);
            assert_eq!(reloaded.predict_labels_reference(&table), in_memory);
        }
        let (gbt, reg_table) = sample_gbt();
        let mf = ModelFile::Gbt(gbt);
        let in_memory = mf.compile().predict_values(&reg_table);
        let reloaded = ModelFile::from_json(&mf.to_json()).unwrap();
        let after: Vec<f64> = reloaded.compile().predict_values(&reg_table);
        assert_eq!(after.len(), in_memory.len());
        for (a, b) in after.iter().zip(&in_memory) {
            assert_eq!(a.to_bits(), b.to_bits(), "round-trip changed a margin");
        }
        let reference = reloaded.predict_values_reference(&reg_table);
        for (a, b) in after.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "compiled deviates from reference");
        }
    }

    #[test]
    fn bad_envelopes_error() {
        assert!(ModelFile::from_json("{}").is_err());
        assert!(ModelFile::from_json("{\"kind\": \"alien\", \"model\": {}}").is_err());
        assert!(ModelFile::from_json("not json").is_err());
    }

    #[test]
    fn importance_is_normalised() {
        let (tree, _) = sample_tree();
        let mf = ModelFile::Tree(tree);
        let imp = mf.feature_importance();
        let sum: f64 = imp.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "importance sums to {sum}");
    }
}
