//! A scoring call costs what its rows cost, not what the model weighs.
//!
//! Two forests of equal depth — so a row takes the same number of
//! traversal steps through either — whose node counts differ fifty-fold
//! must answer a one-row call in about the same time. Before the feature
//! signature, a call began by visiting every node of every tree to check
//! the table's schema, and the ratio of the two medians was about the
//! ratio of the node counts. Both medians come from the same interleaved
//! loop on the same host, so a noisy phase hits them alike: the guard is
//! their ratio, never a time.

use std::hint::black_box;
use std::time::Instant;

use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::Task;
use ts_serve::CompiledModel;
use ts_splits::SplitTest;
use ts_tree::{DecisionTreeModel, ForestModel, Node, Prediction, SplitInfo};
use tsrand::{Rng, SeedableRng, StdRng};

const N_COLS: usize = 6;
const DEPTH: u32 = 9;
const TREES: u64 = 40;
const TASK: Task = Task::Classification { n_classes: 2 };

/// Appends a subtree rooted at `depth` and returns its arena index. A
/// bushy tree splits every node above `DEPTH`; a slim one only the nodes
/// of its left spine, so it reaches the same depth with `2·DEPTH + 1`
/// nodes instead of `2^(DEPTH+1) − 1`.
fn grow(nodes: &mut Vec<Node>, depth: u32, bushy: bool, on_spine: bool, rng: &mut StdRng) -> usize {
    let id = nodes.len();
    let label = rng.gen_range(0..2u32);
    let mut pmf = vec![0.25; 2];
    pmf[label as usize] = 0.75;
    nodes.push(Node::leaf(Prediction::Class { label, pmf }, 1, depth));
    if depth < DEPTH && (bushy || on_spine) {
        let info = SplitInfo {
            attr: rng.gen_range(0..N_COLS),
            test: SplitTest::NumericLe(rng.gen_range(-1.0..1.0)),
            gain: 1.0,
            missing_left: true,
            seen: None,
        };
        let left = grow(nodes, depth + 1, bushy, on_spine, rng);
        let right = grow(nodes, depth + 1, bushy, false, rng);
        nodes[id].split = Some((info, left, right));
    }
    id
}

fn forest(bushy: bool) -> ForestModel {
    let trees = (0..TREES)
        .map(|t| {
            let mut nodes = Vec::new();
            grow(&mut nodes, 0, bushy, true, &mut StdRng::seed_from_u64(t));
            DecisionTreeModel::new(nodes, TASK)
        })
        .collect();
    ForestModel::new(trees, TASK)
}

fn median(mut ns: Vec<u128>) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64
}

#[test]
fn per_call_cost_does_not_scale_with_node_count() {
    let (slim, bushy) = (forest(false), forest(true));
    for f in [&slim, &bushy] {
        let deepest = |t: &DecisionTreeModel| t.nodes.iter().map(|n| n.depth).max();
        assert!(f.trees.iter().all(|t| deepest(t) == Some(DEPTH)));
    }
    let (slim_c, bushy_c) = (
        CompiledModel::from_forest(&slim),
        CompiledModel::from_forest(&bushy),
    );
    assert!(
        bushy_c.n_nodes() >= 16 * slim_c.n_nodes(),
        "{} vs {} nodes",
        bushy_c.n_nodes(),
        slim_c.n_nodes()
    );

    let rows = generate(&SynthSpec {
        rows: 64,
        numeric: N_COLS,
        categorical: 0,
        task: TASK,
        seed: 7,
        ..Default::default()
    });
    assert_eq!(
        slim_c.predict_labels(&rows),
        slim.predict_labels_reference(&rows)
    );
    assert_eq!(
        bushy_c.predict_labels(&rows),
        bushy.predict_labels_reference(&rows)
    );

    // The same one-row tables go to both models, turn and turn about.
    let ones: Vec<_> = (0..rows.n_rows() as u32)
        .map(|r| rows.select_rows(&[r]))
        .collect();
    let time = |model: &CompiledModel, i: usize| {
        let t0 = Instant::now();
        black_box(model.predict_labels(black_box(&ones[i % ones.len()])));
        t0.elapsed().as_nanos()
    };
    let (mut slim_ns, mut bushy_ns) = (Vec::new(), Vec::new());
    for i in 0..64 + 400 {
        let (s, b) = (time(&slim_c, i), time(&bushy_c, i));
        if i >= 64 {
            // The first pass over the rows is warm-up.
            slim_ns.push(s);
            bushy_ns.push(b);
        }
    }
    let (slim_med, bushy_med) = (median(slim_ns), median(bushy_ns));
    assert!(
        bushy_med < 4.0 * slim_med,
        "a one-row call costs {bushy_med} ns on {} nodes and {slim_med} ns on {}: \
         the call's cost follows the model's size",
        bushy_c.n_nodes(),
        slim_c.n_nodes()
    );
}
