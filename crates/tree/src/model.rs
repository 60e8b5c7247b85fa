//! The decision-tree model: arena nodes, prediction, and subtree grafting.

use crate::compiled::{CompiledEnsemble, Rows, ServeOptions};
use ts_datatable::{DataTable, Task, Value};
use ts_splits::SplitTest;
use tsjson::{Deserialize, Serialize};

/// The split stored at an internal node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitInfo {
    /// Global attribute id of the split-attribute.
    pub attr: usize,
    /// The split test (`Ai <= v` or `Ai ∈ Sl`).
    pub test: SplitTest,
    /// Weighted impurity decrease of the split (identical from the engine
    /// and the local trainer — same kernels). Feeds feature importance.
    pub gain: f64,
    /// Where rows with a missing value were routed during training.
    pub missing_left: bool,
    /// For categorical split-attributes: the category codes seen in `Dx`
    /// during training (sorted). A test value outside this set is "unseen"
    /// and prediction stops at this node (Appendix D). `None` for numeric.
    pub seen: Option<Vec<u32>>,
}

/// The prediction a node carries.
///
/// TreeServer materialises predictions at **internal** nodes too (Appendix
/// D): they are a byproduct of training (every node observes `Dx`), and they
/// let prediction stop early — at a depth cap, at a missing value, or at an
/// unseen categorical value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Prediction {
    /// Majority label and PMF over classes.
    Class {
        /// Majority label (ties toward the smaller id).
        label: u32,
        /// Probability mass function over all classes.
        pmf: Vec<f32>,
    },
    /// Mean target value.
    Real(f64),
}

impl Prediction {
    /// The class label; panics on regression predictions.
    pub fn label(&self) -> u32 {
        match self {
            Prediction::Class { label, .. } => *label,
            Prediction::Real(_) => panic!("label() on a regression prediction"),
        }
    }

    /// The regression value; panics on classification predictions.
    pub fn value(&self) -> f64 {
        match self {
            Prediction::Real(v) => *v,
            Prediction::Class { .. } => panic!("value() on a classification prediction"),
        }
    }

    /// The PMF; panics on regression predictions.
    pub fn pmf(&self) -> &[f32] {
        match self {
            Prediction::Class { pmf, .. } => pmf,
            Prediction::Real(_) => panic!("pmf() on a regression prediction"),
        }
    }
}

/// One node of the arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// `Some((split, left_child, right_child))` for internal nodes.
    pub split: Option<(SplitInfo, usize, usize)>,
    /// This node's prediction over its training rows `Dx`.
    pub prediction: Prediction,
    /// `|Dx|` during training.
    pub n_rows: u64,
    /// Depth (root = 0).
    pub depth: u32,
}

impl Node {
    /// Creates a leaf node.
    pub fn leaf(prediction: Prediction, n_rows: u64, depth: u32) -> Node {
        Node {
            split: None,
            prediction,
            n_rows,
            depth,
        }
    }

    /// Whether the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.split.is_none()
    }
}

/// A trained decision tree. Node 0 is the root; children always have larger
/// indices than their parent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeModel {
    /// The node arena.
    pub nodes: Vec<Node>,
    /// The prediction task this tree was trained for.
    pub task: Task,
}

impl DecisionTreeModel {
    /// Creates a model from a node arena.
    ///
    /// # Panics
    /// Panics if the arena is empty or child indices are out of range /
    /// not strictly larger than their parents.
    pub fn new(nodes: Vec<Node>, task: Task) -> Self {
        assert!(!nodes.is_empty(), "tree must have a root");
        for (i, n) in nodes.iter().enumerate() {
            if let Some((_, l, r)) = &n.split {
                assert!(*l > i && *r > i, "children must follow their parent");
                assert!(
                    *l < nodes.len() && *r < nodes.len(),
                    "child index out of range"
                );
            }
        }
        DecisionTreeModel { nodes, task }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum node depth.
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Gain-based feature importance: per attribute, the summed weighted
    /// impurity decrease of every split on it, normalised to sum to 1
    /// (all-zero for a single-leaf tree).
    pub fn feature_importance(&self, n_attrs: usize) -> Vec<f64> {
        let mut imp = vec![0.0; n_attrs];
        for n in &self.nodes {
            if let Some((info, _, _)) = &n.split {
                imp[info.attr] += info.gain.max(0.0);
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Predicts one row, reading attribute values through `get`, descending
    /// at most `max_depth` levels (`u32::MAX` for no cap).
    ///
    /// Appendix D semantics: a missing value or an unseen categorical value
    /// at a split node stops the walk and reports that node's prediction.
    pub fn predict_with(&self, get: impl Fn(usize) -> Value, max_depth: u32) -> &Prediction {
        let mut i = 0usize;
        loop {
            let node = &self.nodes[i];
            let Some((split, l, r)) = &node.split else {
                return &node.prediction;
            };
            if node.depth >= max_depth {
                return &node.prediction;
            }
            let v = get(split.attr);
            if let (Value::Cat(c), Some(seen)) = (&v, &split.seen) {
                if seen.binary_search(c).is_err() {
                    // Unseen during training: stop here (Appendix D).
                    return &node.prediction;
                }
            }
            match split.test.goes_left(v) {
                None => return &node.prediction, // missing value
                Some(true) => i = *l,
                Some(false) => i = *r,
            }
        }
    }

    /// Predicts one table row.
    pub fn predict_row(&self, table: &DataTable, row: usize, max_depth: u32) -> &Prediction {
        self.predict_with(|attr| table.value(row, attr), max_depth)
    }

    /// Predicts class labels for every row (classification trees) on the
    /// compiled batched path — bit-identical to
    /// [`predict_labels_reference`](Self::predict_labels_reference).
    pub fn predict_labels(&self, table: &DataTable) -> Vec<u32> {
        CompiledEnsemble::single(self).labels(table, Rows::all(table), &ServeOptions::default())
    }

    /// Predicts values for every row (regression trees) on the compiled
    /// batched path — bit-identical to
    /// [`predict_values_reference`](Self::predict_values_reference).
    pub fn predict_values(&self, table: &DataTable) -> Vec<f64> {
        CompiledEnsemble::single(self).values(table, Rows::all(table), &ServeOptions::default())
    }

    /// Reference traversal for [`predict_labels`](Self::predict_labels):
    /// one [`predict_row`](Self::predict_row) walk per row.
    pub fn predict_labels_reference(&self, table: &DataTable) -> Vec<u32> {
        (0..table.n_rows())
            .map(|r| self.predict_row(table, r, u32::MAX).label())
            .collect()
    }

    /// Reference traversal for [`predict_values`](Self::predict_values).
    pub fn predict_values_reference(&self, table: &DataTable) -> Vec<f64> {
        (0..table.n_rows())
            .map(|r| self.predict_row(table, r, u32::MAX).value())
            .collect()
    }

    /// Grafts `subtree` in place of the leaf at `at`, re-basing child indices
    /// and depths. This is how the master hooks a subtree-task's result onto
    /// the tree under construction (paper §III, Fig. 3(b)).
    ///
    /// # Panics
    /// Panics if `at` is not a leaf.
    pub fn graft(&mut self, at: usize, subtree: DecisionTreeModel) {
        graft_nodes(&mut self.nodes, at, subtree);
    }

    /// Rebuilds the arena in depth-first pre-order (left before right).
    ///
    /// Two trees with the same structure compare equal after
    /// canonicalisation even if their nodes were appended in different
    /// orders — the distributed engine completes subtrees asynchronously, so
    /// its arena layout differs from the recursive trainer's while the tree
    /// itself is identical.
    pub fn canonicalize(&self) -> DecisionTreeModel {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        self.canon_visit(0, &mut nodes);
        DecisionTreeModel::new(nodes, self.task)
    }

    fn canon_visit(&self, old: usize, out: &mut Vec<Node>) -> usize {
        let id = out.len();
        out.push(self.nodes[old].clone());
        if let Some((info, l, r)) = self.nodes[old].split.clone() {
            let nl = self.canon_visit(l, out);
            let nr = self.canon_visit(r, out);
            out[id].split = Some((info, nl, nr));
        }
        id
    }

    /// Renders the tree as indented ASCII, one node per line. `attr_name`
    /// maps attribute ids to display names (fall back to `a<i>`).
    pub fn render(&self, attr_name: impl Fn(usize) -> String) -> String {
        let mut out = String::new();
        self.render_node(0, 0, &attr_name, &mut out);
        out
    }

    fn render_node(
        &self,
        i: usize,
        indent: usize,
        attr_name: &impl Fn(usize) -> String,
        out: &mut String,
    ) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(indent);
        let n = &self.nodes[i];
        match &n.split {
            None => {
                let pred = match &n.prediction {
                    Prediction::Class { label, pmf } => {
                        format!(
                            "class {label} (p={:.2})",
                            pmf.get(*label as usize).copied().unwrap_or(0.0)
                        )
                    }
                    Prediction::Real(v) => format!("{v:.4}"),
                };
                let _ = writeln!(out, "{pad}leaf: {pred}  [{} rows]", n.n_rows);
            }
            Some((info, l, r)) => {
                let test = match &info.test {
                    ts_splits::SplitTest::NumericLe(v) => {
                        format!("{} <= {v:.4}", attr_name(info.attr))
                    }
                    ts_splits::SplitTest::CatIn(set) => {
                        format!("{} in {set:?}", attr_name(info.attr))
                    }
                };
                let _ = writeln!(
                    out,
                    "{pad}{test}  [{} rows, gain {:.3}]",
                    n.n_rows, info.gain
                );
                self.render_node(*l, indent + 1, attr_name, out);
                self.render_node(*r, indent + 1, attr_name, out);
            }
        }
    }

    /// Serialises to JSON (the master "flushes trees to disk" as JSON files).
    pub fn to_json(&self) -> String {
        tsjson::to_string(self).expect("tree serialisation cannot fail")
    }

    /// Deserialises from JSON.
    pub fn from_json(s: &str) -> Result<Self, tsjson::Error> {
        tsjson::from_str(s)
    }
}

/// Grafts `subtree` onto a node arena under construction, replacing the leaf
/// at `at` (see [`DecisionTreeModel::graft`]). Exposed separately because the
/// master assembles trees as bare arenas before sealing them into models.
///
/// # Panics
/// Panics if `at` is not a leaf of `nodes`.
pub fn graft_nodes(nodes: &mut Vec<Node>, at: usize, subtree: DecisionTreeModel) {
    assert!(nodes[at].is_leaf(), "graft target must be a leaf");
    let base_depth = nodes[at].depth;
    let offset = nodes.len();
    // The subtree root replaces the leaf; its children move to the arena
    // tail with indices shifted by `offset - 1` (subtree index 1 becomes
    // arena index `offset`, etc.).
    let rebase = |child: usize| -> usize {
        debug_assert!(child >= 1);
        offset + child - 1
    };
    let mut it = subtree.nodes.into_iter();
    let mut root = it.next().expect("subtree must have a root");
    root.depth = base_depth;
    if let Some((_, l, r)) = &mut root.split {
        *l = rebase(*l);
        *r = rebase(*r);
    }
    nodes[at] = root;
    for mut n in it {
        n.depth += base_depth;
        if let Some((_, l, r)) = &mut n.split {
            *l = rebase(*l);
            *r = rebase(*r);
        }
        nodes.push(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_datatable::{AttrMeta, Column, Labels, Schema};

    fn two_level_tree() -> DecisionTreeModel {
        // root: A0 <= 40 ? leaf(no=0) : node(A1 in {2,3,4} ? yes : no)
        let nodes = vec![
            Node {
                split: Some((
                    SplitInfo {
                        attr: 0,
                        test: SplitTest::NumericLe(40.0),
                        gain: 1.0,
                        missing_left: true,
                        seen: None,
                    },
                    1,
                    2,
                )),
                prediction: Prediction::Class {
                    label: 0,
                    pmf: vec![0.7, 0.3],
                },
                n_rows: 10,
                depth: 0,
            },
            Node::leaf(
                Prediction::Class {
                    label: 1,
                    pmf: vec![0.2, 0.8],
                },
                5,
                1,
            ),
            Node {
                split: Some((
                    SplitInfo {
                        attr: 1,
                        test: SplitTest::cat_in(vec![2, 3, 4]),
                        gain: 0.5,
                        missing_left: false,
                        seen: Some(vec![1, 2, 3, 4]),
                    },
                    3,
                    4,
                )),
                prediction: Prediction::Class {
                    label: 0,
                    pmf: vec![0.9, 0.1],
                },
                n_rows: 5,
                depth: 1,
            },
            Node::leaf(
                Prediction::Class {
                    label: 0,
                    pmf: vec![1.0, 0.0],
                },
                3,
                2,
            ),
            Node::leaf(
                Prediction::Class {
                    label: 1,
                    pmf: vec![0.0, 1.0],
                },
                2,
                2,
            ),
        ];
        DecisionTreeModel::new(nodes, Task::Classification { n_classes: 2 })
    }

    #[test]
    fn predict_descends_both_sides() {
        let t = two_level_tree();
        let p = t.predict_with(
            |a| {
                if a == 0 {
                    Value::Num(30.0)
                } else {
                    Value::Cat(2)
                }
            },
            u32::MAX,
        );
        assert_eq!(p.label(), 1);
        let p = t.predict_with(
            |a| {
                if a == 0 {
                    Value::Num(50.0)
                } else {
                    Value::Cat(2)
                }
            },
            u32::MAX,
        );
        assert_eq!(p.label(), 0);
        let p = t.predict_with(
            |a| {
                if a == 0 {
                    Value::Num(50.0)
                } else {
                    Value::Cat(1)
                }
            },
            u32::MAX,
        );
        assert_eq!(p.label(), 1);
    }

    #[test]
    fn predict_stops_at_depth_cap() {
        let t = two_level_tree();
        // Depth cap 0: report root prediction regardless of values.
        let p = t.predict_with(|_| Value::Num(30.0), 0);
        assert_eq!(p.label(), 0);
        assert_eq!(p.pmf(), &[0.7, 0.3]);
        // Depth cap 1: may descend once.
        let p = t.predict_with(
            |a| {
                if a == 0 {
                    Value::Num(50.0)
                } else {
                    Value::Cat(2)
                }
            },
            1,
        );
        assert_eq!(p.label(), 0, "stops at node 2's own prediction");
    }

    #[test]
    fn predict_stops_on_missing_value() {
        let t = two_level_tree();
        let p = t.predict_with(|_| Value::Missing, u32::MAX);
        assert_eq!(p.label(), 0, "root prediction on missing root attribute");
        let p = t.predict_with(
            |a| {
                if a == 0 {
                    Value::Num(50.0)
                } else {
                    Value::Missing
                }
            },
            u32::MAX,
        );
        assert_eq!(p.label(), 0, "node 2's prediction on missing A1");
    }

    #[test]
    fn predict_stops_on_unseen_categorical_value() {
        let t = two_level_tree();
        // Code 0 was never seen at node 2 during training (seen = {1,2,3,4}).
        let p = t.predict_with(
            |a| {
                if a == 0 {
                    Value::Num(50.0)
                } else {
                    Value::Cat(0)
                }
            },
            u32::MAX,
        );
        assert_eq!(p.label(), 0, "unseen category stops at node 2");
    }

    #[test]
    fn graft_replaces_leaf_and_rebases() {
        let mut t = two_level_tree();
        let sub = DecisionTreeModel::new(
            vec![
                Node {
                    split: Some((
                        SplitInfo {
                            attr: 2,
                            test: SplitTest::NumericLe(1.0),
                            gain: 0.4,
                            missing_left: true,
                            seen: None,
                        },
                        1,
                        2,
                    )),
                    prediction: Prediction::Class {
                        label: 1,
                        pmf: vec![0.5, 0.5],
                    },
                    n_rows: 5,
                    depth: 0,
                },
                Node::leaf(
                    Prediction::Class {
                        label: 0,
                        pmf: vec![1.0, 0.0],
                    },
                    2,
                    1,
                ),
                Node::leaf(
                    Prediction::Class {
                        label: 1,
                        pmf: vec![0.0, 1.0],
                    },
                    3,
                    1,
                ),
            ],
            Task::Classification { n_classes: 2 },
        );
        t.graft(1, sub);
        assert_eq!(t.n_nodes(), 7);
        // The graft target keeps depth 1, its children get depth 2.
        assert_eq!(t.nodes[1].depth, 1);
        let (_, l, r) = t.nodes[1].split.clone().unwrap();
        assert_eq!((t.nodes[l].depth, t.nodes[r].depth), (2, 2));
        // Walking left at root then A2 <= 1.0 reaches the grafted leaf.
        let p = t.predict_with(
            |a| match a {
                0 => Value::Num(30.0),
                2 => Value::Num(0.5),
                _ => Value::Cat(2),
            },
            u32::MAX,
        );
        assert_eq!(p.label(), 0);
        // Arena invariants still hold.
        let rebuilt = DecisionTreeModel::new(t.nodes.clone(), t.task);
        assert_eq!(rebuilt.n_nodes(), 7);
    }

    #[test]
    #[should_panic(expected = "graft target must be a leaf")]
    fn graft_on_internal_node_panics() {
        let mut t = two_level_tree();
        let sub = DecisionTreeModel::new(
            vec![Node::leaf(
                Prediction::Class {
                    label: 0,
                    pmf: vec![1.0, 0.0],
                },
                1,
                0,
            )],
            Task::Classification { n_classes: 2 },
        );
        t.graft(0, sub);
    }

    #[test]
    fn render_shows_structure() {
        let t = two_level_tree();
        let text = t.render(|a| format!("A{a}"));
        assert!(text.contains("A0 <= 40.0000"), "{text}");
        assert!(text.contains("A1 in [2, 3, 4]"), "{text}");
        assert_eq!(text.lines().count(), 5, "one line per node:\n{text}");
        // Leaves are indented under their parents.
        assert!(text.lines().any(|l| l.starts_with("    leaf:")), "{text}");
    }

    #[test]
    fn json_roundtrip() {
        let t = two_level_tree();
        let j = t.to_json();
        let back = DecisionTreeModel::from_json(&j).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn predict_table_helpers() {
        let t = two_level_tree();
        let table = DataTable::new(
            Schema::new(
                vec![AttrMeta::numeric("age"), AttrMeta::categorical("edu", 5)],
                Task::Classification { n_classes: 2 },
            ),
            vec![
                Column::Numeric(vec![30.0, 50.0]),
                Column::Categorical(vec![2, 1]),
            ],
            Labels::Class(vec![1, 1]),
        );
        assert_eq!(t.predict_labels(&table), vec![1, 1]);
    }

    #[test]
    fn counts_and_depth() {
        let t = two_level_tree();
        assert_eq!(t.n_nodes(), 5);
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    #[should_panic(expected = "children must follow")]
    fn bad_child_order_panics() {
        let nodes = vec![
            Node {
                split: Some((
                    SplitInfo {
                        attr: 0,
                        test: SplitTest::NumericLe(0.0),
                        gain: 0.0,
                        missing_left: true,
                        seen: None,
                    },
                    0,
                    1,
                )),
                prediction: Prediction::Real(0.0),
                n_rows: 1,
                depth: 0,
            },
            Node::leaf(Prediction::Real(0.0), 1, 1),
        ];
        DecisionTreeModel::new(nodes, Task::Regression);
    }
}
