//! Micro-benchmark of the serving paths: the per-row reference traversal
//! vs the compiled batched engine (`ts-serve`), single-threaded and with
//! the block fan-out across all cores.
//!
//! Timings are recorded into `BENCH_predict.json` (see
//! `ts_bench::BenchReport`), which CI uploads next to `BENCH_splits.json`.
//! The headline metric is `aggregate/speedup_1t`: single-thread
//! throughput serving all three model archetypes (deep tree, forest,
//! boosted ensemble) back-to-back, compiled over reference — the number
//! the serving layer exists to improve. Per-case `*/speedup_1t` ratios
//! and the worst case are recorded alongside; the deep single tree is
//! the adversarial case (longest serial chains, no fill amortisation
//! across trees) and runs well below the ensemble cases.
//!
//! The `forest40/*` rows are the engine's *service line*: the cost of one
//! scoring call as a function of its batch, on a 40-tree forest —
//! `forest40/batch{1,32,1024}` are measured calls, `forest40/overhead_us`
//! and `forest40/per_row_ns` the least-squares line through the calls of
//! 1, 2, 4 … 1024 rows. The front tier's `ServiceModel` assumes such a
//! line (docs/SERVING.md, "The cost of a call").
//!
//! `forest40` has 8 + 2 columns and offers every column to every tree, so
//! it says nothing about trees that mix split kinds, and its 2 % missing
//! cells cannot be told from its clean ones. The `ledger40_m{0,2}/*` rows
//! are the ledger's serving forest (`ledger/src/workloads.rs`: 24 numeric
//! and 6 categorical columns of cardinality 12, 40 trees of depth 10 on √m
//! columns each — most of them mixing numeric and categorical splits) on
//! a clean table and on one with 2 % missing cells, where stopped rows
//! re-take the traversal step's stop path at every remaining level.
//! `requests32` scores 32 scattered rows through the row-id entry the
//! request tier uses, so it times the image's gather fill as well, and
//! `{fill,walk,fold}_ns_per_row` split a bulk pass into its three layers.

use std::hint::black_box;
use std::time::Instant;
use treeserver::{GbtModel, GbtObjective, JobSpec};
use ts_bench::{env_scale, print_header, BenchReport};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{DataTable, Task};
use ts_serve::{CompiledModel, ServeOptions};
use ts_tree::compiled::{add_pmf_rows, DEFAULT_BLOCK_ROWS};
use ts_tree::{
    train_tree, CompiledTree, DecisionTreeModel, ForestModel, Rows, TableView, TrainParams,
};

fn time_us(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed().as_millis() >= 50 || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }
    best
}

/// Intercept and slope of the least-squares line through `(xs, ys)`.
fn least_squares(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

/// Where a bulk pass spends its time, in ns per row: the engine's block
/// loop rebuilt from its three public pieces — image fill, the 40 lockstep
/// walks, the 40 PMF folds — with a timer around each.
fn phase_split_ns_per_row(trees: &[CompiledTree], t: &DataTable) -> [f64; 3] {
    let view = TableView::of(t);
    let mut img = view.image();
    let block = DEFAULT_BLOCK_ROWS;
    let mut nodes = vec![0u32; block];
    let k = trees[0].pmf_rows().0;
    let mut acc = vec![0f32; block * k];
    let mut best = [f64::INFINITY; 3];
    for _ in 0..5 {
        let mut secs = [0f64; 3];
        let mut first = 0;
        while first < t.n_rows() {
            let len = block.min(t.n_rows() - first);
            let t0 = Instant::now();
            img.fill(Rows::Span { first, len });
            secs[0] += t0.elapsed().as_secs_f64();
            for tree in trees {
                let t0 = Instant::now();
                tree.terminal_nodes_into(&img, u32::MAX, &mut nodes[..len]);
                let t1 = Instant::now();
                let (k, pmf) = tree.pmf_rows();
                add_pmf_rows(k, pmf, &nodes[..len], &mut acc[..len * k]);
                secs[1] += (t1 - t0).as_secs_f64();
                secs[2] += t1.elapsed().as_secs_f64();
            }
            black_box(&mut acc);
            first += len;
        }
        for (b, s) in best.iter_mut().zip(secs) {
            *b = b.min(s * 1e9 / t.n_rows() as f64);
        }
    }
    best
}

fn report(name: &str, per_iter_us: f64) {
    println!("{name:<48} {per_iter_us:>12.1} us/iter");
}

/// Reports reference vs compiled (1 thread and all threads) and records
/// all three plus the per-case single-thread speedup.
#[allow(clippy::too_many_arguments)]
fn report_trio(
    out: &mut BenchReport,
    base: &str,
    rows: usize,
    trees: usize,
    reference_us: f64,
    compiled_1t_us: f64,
    compiled_mt_us: f64,
) -> f64 {
    let speedup = reference_us / compiled_1t_us;
    report(&format!("{base}/reference"), reference_us);
    report(&format!("{base}/compiled_1t"), compiled_1t_us);
    report(&format!("{base}/compiled_mt"), compiled_mt_us);
    println!("{:<48} {speedup:>11.2}x", format!("{base}/speedup_1t"));
    out.push(
        &format!("{base}/reference"),
        reference_us * 1e-6,
        rows,
        trees,
        None,
    );
    out.push(
        &format!("{base}/compiled_1t"),
        compiled_1t_us * 1e-6,
        rows,
        trees,
        None,
    );
    out.push(
        &format!("{base}/compiled_mt"),
        compiled_mt_us * 1e-6,
        rows,
        trees,
        None,
    );
    out.push(
        &format!("{base}/speedup_1t"),
        0.0,
        rows,
        trees,
        Some(speedup),
    );
    speedup
}

fn class_table(rows: usize, seed: u64) -> DataTable {
    generate(&SynthSpec {
        rows,
        numeric: 8,
        categorical: 2,
        cat_cardinality: 6,
        task: Task::Classification { n_classes: 3 },
        missing_rate: 0.02,
        noise: 0.1,
        concept_depth: 6,
        seed,
        ..Default::default()
    })
}

fn reg_table(rows: usize, seed: u64) -> DataTable {
    generate(&SynthSpec {
        rows,
        numeric: 8,
        categorical: 2,
        cat_cardinality: 6,
        task: Task::Regression,
        missing_rate: 0.02,
        noise: 0.1,
        concept_depth: 6,
        seed,
        ..Default::default()
    })
}

fn main() {
    print_header(
        "Micro: batched prediction",
        "per-row reference traversal vs the ts-serve compiled engine",
    );
    let mut out = BenchReport::new("predict");
    let rows = ((20_000.0 * env_scale()) as usize).max(2_000);
    let one_t = ServeOptions::default().with_threads(1);
    let all_t = ServeOptions::default().with_threads(0);
    let mut worst = f64::INFINITY;
    let (mut ref_total_us, mut c1_total_us) = (0.0, 0.0);

    // Single deep classification tree.
    {
        let t = class_table(rows, 1);
        let model = train_tree(
            &t,
            &(0..t.n_attrs()).collect::<Vec<_>>(),
            &TrainParams {
                dmax: 12,
                ..TrainParams::for_task(t.schema().task)
            },
            1,
        );
        let compiled_1t = CompiledModel::from_tree(&model).with_options(one_t);
        let compiled_mt = CompiledModel::from_tree(&model).with_options(all_t);
        let reference_us = time_us(|| {
            black_box(model.predict_labels_reference(black_box(&t)));
        });
        let c1_us = time_us(|| {
            black_box(compiled_1t.predict_labels(black_box(&t)));
        });
        let cm_us = time_us(|| {
            black_box(compiled_mt.predict_labels(black_box(&t)));
        });
        ref_total_us += reference_us;
        c1_total_us += c1_us;
        worst = worst.min(report_trio(
            &mut out,
            &format!("tree_labels/{rows}"),
            rows,
            1,
            reference_us,
            c1_us,
            cm_us,
        ));
    }

    // 10-tree classification forest (PMF averaging).
    {
        let t = class_table(rows, 2);
        let n_trees = 10;
        let trees: Vec<DecisionTreeModel> = (0..n_trees)
            .map(|i| {
                train_tree(
                    &t,
                    &(0..t.n_attrs()).collect::<Vec<_>>(),
                    &TrainParams {
                        dmax: 8,
                        ..TrainParams::for_task(t.schema().task)
                    },
                    i as u64,
                )
            })
            .collect();
        let forest = ForestModel::new(trees, t.schema().task);
        let compiled_1t = CompiledModel::from_forest(&forest).with_options(one_t);
        let compiled_mt = CompiledModel::from_forest(&forest).with_options(all_t);
        let reference_us = time_us(|| {
            black_box(forest.predict_labels_reference(black_box(&t)));
        });
        let c1_us = time_us(|| {
            black_box(compiled_1t.predict_labels(black_box(&t)));
        });
        let cm_us = time_us(|| {
            black_box(compiled_mt.predict_labels(black_box(&t)));
        });
        ref_total_us += reference_us;
        c1_total_us += c1_us;
        worst = worst.min(report_trio(
            &mut out,
            &format!("forest{n_trees}_labels/{rows}"),
            rows,
            n_trees,
            reference_us,
            c1_us,
            cm_us,
        ));
    }

    // 30-tree boosted regression model (margin accumulation).
    {
        let t = reg_table(rows, 3);
        let n_trees = 30;
        let trees: Vec<DecisionTreeModel> = (0..n_trees)
            .map(|i| {
                train_tree(
                    &t,
                    &(0..t.n_attrs()).collect::<Vec<_>>(),
                    &TrainParams {
                        dmax: 5,
                        ..TrainParams::for_task(Task::Regression)
                    },
                    i as u64,
                )
            })
            .collect();
        let gbt = GbtModel {
            trees,
            base: 0.5,
            eta: 0.1,
            objective: GbtObjective::SquaredError,
        };
        let compiled_1t = CompiledModel::from_gbt(&gbt).with_options(one_t);
        let compiled_mt = CompiledModel::from_gbt(&gbt).with_options(all_t);
        let reference_us = time_us(|| {
            black_box(gbt.predict_margins_reference(black_box(&t)));
        });
        let c1_us = time_us(|| {
            black_box(compiled_1t.predict_margins(black_box(&t)));
        });
        let cm_us = time_us(|| {
            black_box(compiled_mt.predict_margins(black_box(&t)));
        });
        ref_total_us += reference_us;
        c1_total_us += c1_us;
        worst = worst.min(report_trio(
            &mut out,
            &format!("gbt{n_trees}_margins/{rows}"),
            rows,
            n_trees,
            reference_us,
            c1_us,
            cm_us,
        ));
    }

    // The service line: one call's cost against its batch size, for the
    // forest the request tier would put behind a `ServiceModel`.
    {
        let t = class_table(rows, 4);
        let n_trees = 40;
        let trees: Vec<DecisionTreeModel> = (0..n_trees)
            .map(|i| {
                train_tree(
                    &t,
                    &(0..t.n_attrs()).collect::<Vec<_>>(),
                    &TrainParams {
                        dmax: 8,
                        ..TrainParams::for_task(t.schema().task)
                    },
                    i as u64,
                )
            })
            .collect();
        let compiled = CompiledModel::from_forest(&ForestModel::new(trees, t.schema().task))
            .with_options(one_t);
        let (mut batch_rows, mut call_us) = (Vec::new(), Vec::new());
        for batch in (0..=10).map(|p| 1usize << p) {
            let sub = t.select_rows(&(0..batch as u32).collect::<Vec<_>>());
            let us = time_us(|| {
                black_box(compiled.predict_labels(black_box(&sub)));
            });
            if matches!(batch, 1 | 32 | 1024) {
                report(&format!("forest{n_trees}/batch{batch}"), us);
                out.push(
                    &format!("forest{n_trees}/batch{batch}"),
                    us * 1e-6,
                    batch,
                    n_trees,
                    None,
                );
            }
            batch_rows.push(batch as f64);
            call_us.push(us);
        }
        let (overhead_us, per_row_us) = least_squares(&batch_rows, &call_us);
        println!(
            "forest{n_trees} service line: {overhead_us:.2} us per call + {:.0} ns per row",
            per_row_us * 1e3
        );
        out.push(
            &format!("forest{n_trees}/overhead_us"),
            0.0,
            0,
            n_trees,
            Some(overhead_us),
        );
        out.push(
            &format!("forest{n_trees}/per_row_ns"),
            0.0,
            0,
            n_trees,
            Some(per_row_us * 1e3),
        );
    }

    // The ledger's serving forest, without and with missing cells.
    for (tag, missing_rate) in [("m0", 0.0), ("m2", 0.02)] {
        let task = Task::Classification { n_classes: 3 };
        let t = generate(&SynthSpec {
            rows,
            numeric: 24,
            categorical: 6,
            cat_cardinality: 12,
            task,
            missing_rate,
            noise: 0.05,
            concept_depth: 6,
            latent: 5,
            seed: 16,
        });
        let specs = JobSpec::random_forest(task, 40)
            .with_seed(16)
            .expand(t.n_attrs());
        let trees: Vec<DecisionTreeModel> = specs
            .iter()
            .map(|spec| {
                train_tree(
                    &t,
                    &spec.candidates,
                    &TrainParams {
                        dmax: 10,
                        ..TrainParams::for_task(task)
                    },
                    spec.seed,
                )
            })
            .collect();
        let n_trees = trees.len();
        let base = format!("ledger{n_trees}_{tag}");
        let members: Vec<CompiledTree> = trees.iter().map(CompiledTree::compile).collect();
        let phases = phase_split_ns_per_row(&members, &t);
        for (phase, ns) in ["fill", "walk", "fold"].iter().zip(phases) {
            println!(
                "{:<48} {ns:>12.1} ns/row",
                format!("{base}/{phase}_ns_per_row")
            );
            out.push(
                &format!("{base}/{phase}_ns_per_row"),
                0.0,
                rows,
                n_trees,
                Some(ns),
            );
        }
        let compiled =
            CompiledModel::from_forest(&ForestModel::new(trees, task)).with_options(one_t);
        let mut row = |name: &str, batch: usize, us: f64| {
            report(&format!("{base}/{name}"), us);
            out.push(&format!("{base}/{name}"), us * 1e-6, batch, n_trees, None);
        };
        for batch in [1usize, 32, 1024] {
            let sub = t.select_rows(&(0..batch as u32).collect::<Vec<_>>());
            let us = time_us(|| {
                black_box(compiled.predict_labels(black_box(&sub)));
            });
            row(&format!("batch{batch}"), batch, us);
        }
        let scattered: Vec<u32> = (0..32).map(|i| (i * 7919 + 13) % rows as u32).collect();
        let us = time_us(|| {
            black_box(compiled.predict_labels_rows(&t, Rows::Ids(black_box(&scattered))));
        });
        row("requests32", 32, us);
    }

    // Headline: the three archetypes served back-to-back. The aggregate
    // is what total serving throughput improves by; the worst case keeps
    // the adversarial deep-tree number visible rather than hidden in an
    // average.
    let aggregate = ref_total_us / c1_total_us;
    println!("aggregate single-thread speedup (all cases back-to-back): {aggregate:.2}x");
    println!("worst per-case single-thread speedup: {worst:.2}x");
    out.push("aggregate/speedup_1t", 0.0, rows, 41, Some(aggregate));
    out.push(
        "aggregate/worst_case_speedup_1t",
        0.0,
        rows,
        41,
        Some(worst),
    );
    out.write();
}
