//! Micro-benchmarks of the split kernels: the inner loops whose cost model
//! (`|Ix| * |C| * log|Ix|`) drives the §VI worker assignment.
//!
//! Plain timed loops (median of repeated runs) like the table benches, so
//! the workspace needs no external benchmark harness.
//!
//! The exact kernels are timed against their reference — the gather+sort
//! kernels of `ts_splits::exact` beside the sorted-column engine's
//! presorted-index kernels (`ts_splits::sorted`) — and the per-size speedup
//! is printed alongside.
//! All timings are also recorded into `BENCH_splits.json` (see
//! `ts_bench::BenchReport`), which CI uploads as an artifact.

use std::hint::black_box;
use std::time::Instant;
use treeserver::{Cluster, JobSpec, Splitter};
use ts_bench::{print_header, ts_config, BenchReport};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{Column, SortedColumn, Task};
use ts_splits::condition::{partition_rows, SplitTest};
use ts_splits::exact::{
    best_cat_split_classification, best_cat_split_regression, best_numeric_split,
};
use ts_splits::histogram::{BinCuts, NumericHistogram};
use ts_splits::impurity::{Impurity, LabelView};
use ts_splits::sketch::QuantileSketch;
use ts_splits::sorted::{
    best_cat_split_classification_at, best_cat_split_regression_at, best_numeric_split_at, NodeRows,
};
use ts_tree::{train_subtree, LocalDataset, TrainParams};
use tsrand::prelude::*;

fn data(n: usize, seed: u64) -> (Vec<f64>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
    let ys: Vec<u32> = values.iter().map(|&v| u32::from(v > 3.0)).collect();
    (values, ys)
}

fn cat_data(n: usize, n_values: u32, seed: u64) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n_values)).collect();
    let ys: Vec<u32> = codes.iter().map(|&c| u32::from(c % 3 == 0)).collect();
    let reals: Vec<f64> = codes
        .iter()
        .map(|&c| c as f64 * 0.5 + rng.gen_range(-1.0..1.0))
        .collect();
    (codes, ys, reals)
}

/// Times `f` over enough iterations to pass ~50ms, five rounds, and
/// reports the best round's per-iteration time (best-of-N because the
/// shared host's noise is one-sided: interference only ever slows a round).
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

fn report(name: &str, per_iter_us: f64) {
    println!("{name:<48} {per_iter_us:>12.1} us/iter");
}

/// Reports a legacy/sorted pair plus the speedup, and records both.
fn report_pair(out: &mut BenchReport, base: &str, n: usize, legacy_us: f64, sorted_us: f64) {
    report(&format!("{base}/legacy"), legacy_us);
    report(&format!("{base}/sorted"), sorted_us);
    println!(
        "{:<48} {:>11.2}x",
        format!("{base}/speedup"),
        legacy_us / sorted_us
    );
    out.push(&format!("{base}/legacy"), legacy_us * 1e-6, n, 0, None);
    out.push(&format!("{base}/sorted"), sorted_us * 1e-6, n, 0, None);
}

fn main() {
    print_header(
        "Micro: split kernels",
        "per-call cost of the §VI work model's unit operations",
    );
    let mut out = BenchReport::new("splits");

    // Exact numeric splits, classification: reference gather+sort vs the
    // sorted-column engine's rank selection over a prebuilt index.
    for n in [1_000usize, 10_000, 100_000] {
        let (values, ys) = data(n, 1);
        let index = SortedColumn::from_numeric(&values);
        let legacy_us = time_us(|| {
            black_box(best_numeric_split(
                black_box(&values),
                LabelView::Class(&ys, 2),
                Impurity::Gini,
            ));
        });
        let sorted_us = time_us(|| {
            black_box(best_numeric_split_at(
                black_box(&values),
                &index,
                NodeRows::All(n),
                None,
                LabelView::Class(&ys, 2),
                Impurity::Gini,
            ));
        });
        report_pair(
            &mut out,
            &format!("exact_numeric_split/{n}"),
            n,
            legacy_us,
            sorted_us,
        );
    }

    // Exact numeric splits, regression (variance impurity).
    for n in [10_000usize, 100_000] {
        let (values, raw) = data(n, 5);
        let ys: Vec<f64> = raw
            .iter()
            .zip(&values)
            .map(|(&y, &v)| y as f64 + v * 0.01)
            .collect();
        let index = SortedColumn::from_numeric(&values);
        let legacy_us = time_us(|| {
            black_box(best_numeric_split(
                black_box(&values),
                LabelView::Real(&ys),
                Impurity::Variance,
            ));
        });
        let sorted_us = time_us(|| {
            black_box(best_numeric_split_at(
                black_box(&values),
                &index,
                NodeRows::All(n),
                None,
                LabelView::Real(&ys),
                Impurity::Variance,
            ));
        });
        report_pair(
            &mut out,
            &format!("exact_numeric_reg_split/{n}"),
            n,
            legacy_us,
            sorted_us,
        );
    }

    // Exact categorical splits: one-vs-rest classification and Breiman
    // regression, legacy per-call allocation vs pooled engine aggregates.
    {
        let n = 100_000;
        let (codes, ys, reals) = cat_data(n, 32, 3);
        let legacy_us = time_us(|| {
            black_box(best_cat_split_classification(
                black_box(&codes),
                32,
                &ys,
                2,
                Impurity::Gini,
            ));
        });
        let sorted_us = time_us(|| {
            black_box(best_cat_split_classification_at(
                black_box(&codes),
                32,
                NodeRows::All(n),
                &ys,
                2,
                Impurity::Gini,
            ));
        });
        report_pair(
            &mut out,
            &format!("exact_categorical_split/{n}_32vals"),
            n,
            legacy_us,
            sorted_us,
        );

        let legacy_us = time_us(|| {
            black_box(best_cat_split_regression(black_box(&codes), 32, &reals));
        });
        let sorted_us = time_us(|| {
            black_box(best_cat_split_regression_at(
                black_box(&codes),
                32,
                NodeRows::All(n),
                &reals,
            ));
        });
        report_pair(
            &mut out,
            &format!("exact_breiman_split/{n}_32vals"),
            n,
            legacy_us,
            sorted_us,
        );
    }

    for n in [10_000usize, 100_000] {
        let (values, ys) = data(n, 2);
        let cuts = BinCuts::equi_depth(&values, 32);
        let us = time_us(|| {
            let mut h = NumericHistogram::new_class(cuts.n_bins(), 2);
            for (&v, &y) in values.iter().zip(&ys) {
                h.add_class(&cuts, v, y);
            }
            black_box(h.best_split(&cuts, Impurity::Gini));
        });
        report(&format!("histogram_pass/{n}"), us);
        out.push(&format!("histogram_pass/{n}"), us * 1e-6, n, 0, None);
    }

    {
        let (values, _) = data(100_000, 4);
        let us = time_us(|| {
            let mut s = QuantileSketch::new(128);
            for &v in &values {
                s.push(v, 1.0);
            }
            black_box(s.cut_points(32));
        });
        report("quantile_sketch_build_100k", us);
        out.push("quantile_sketch_build_100k", us * 1e-6, 100_000, 0, None);
    }

    // The node step besides the scan (docs/PERF.md, "What a node costs
    // besides its scan"): the row partition a chosen split costs, over the
    // whole column and over every eighth row of it, ns per row in `metric`.
    {
        let n = 100_000usize;
        let (values, _) = data(n, 6);
        let (codes, _, _) = cat_data(n, 12, 7);
        let dense: Vec<u32> = (0..n as u32).collect();
        let sparse: Vec<u32> = (0..n as u32).step_by(8).collect();
        let cases = [
            (
                "numeric",
                Column::Numeric(values),
                SplitTest::NumericLe(3.0),
            ),
            (
                "categorical",
                Column::Categorical(codes),
                SplitTest::cat_in(vec![1, 4, 6, 7, 9, 10]),
            ),
        ];
        for (kind, col, test) in &cases {
            for (shape, ix) in [("dense", &dense), ("sparse", &sparse)] {
                let us = time_us(|| {
                    black_box(partition_rows(col, black_box(ix), test, true));
                });
                let name = format!("partition/{kind}/{shape}");
                let ns_per_row = us * 1e3 / ix.len() as f64;
                println!("{name:<48} {us:>12.1} us/iter {ns_per_row:>8.2} ns/row");
                out.push(&name, us * 1e-6, ix.len(), 0, Some(ns_per_row));
            }
        }
    }

    // One tree of the ledger's `subtree_forest` shape through the exact
    // trainer: scan, fill, row partition, segment partition and leaves — the
    // whole of a subtree-task but its column gather.
    {
        let table = generate(&SynthSpec {
            rows: 20_000,
            numeric: 24,
            categorical: 6,
            cat_cardinality: 12,
            task: Task::Classification { n_classes: 3 },
            noise: 0.05,
            concept_depth: 6,
            latent: 5,
            seed: 16,
            ..Default::default()
        });
        let job = JobSpec::random_forest(table.schema().task, 40)
            .with_dmax(10)
            .with_seed(16);
        let tree = &job.expand(table.n_attrs())[0];
        let data = LocalDataset::from_table(&table, &tree.candidates);
        let params = TrainParams {
            dmax: 10,
            ..TrainParams::for_task(table.schema().task)
        };
        let us = time_us(|| {
            black_box(train_subtree(&data, &params, 0, tree.seed));
        });
        report("train_subtree/ledger_forest", us);
        out.push(
            "train_subtree/ledger_forest",
            us * 1e-6,
            table.n_rows(),
            1,
            None,
        );
    }

    // Cluster-level split plane: the exact engine ships a full per-column
    // `ColumnResult` (with per-shard `NodeStats`) for every column-task,
    // while `Splitter::Histogram` ships top-k nominations plus one elected
    // result (docs/HISTOGRAM.md). Multi-class data is the regime the vote
    // plane wins in — the stats payloads grow with the class count — so
    // this uses a Covtype-shaped 7-class table. The `metric` field of the
    // two records carries the split-plane bytes each mode moved.
    {
        let rows = ((24_000.0 * ts_bench::env_scale()) as usize).max(4_000);
        let table = generate(&SynthSpec {
            rows,
            numeric: 8,
            categorical: 2,
            cat_cardinality: 6,
            task: Task::Classification { n_classes: 7 },
            noise: 0.05,
            concept_depth: 6,
            seed: 5,
            ..Default::default()
        });
        let run = |splitter: Splitter| {
            let mut cfg = ts_config(rows, 8, 4);
            cfg.splitter = splitter;
            // Keep the upper tree on the distributed column path: the
            // splitter modes only differ there.
            cfg.tau_d = (rows as u64 / 40).max(400);
            cfg.obs = treeserver::obs::ObsConfig::enabled();
            let cluster = Cluster::launch(cfg, &table);
            let t0 = Instant::now();
            let _ = cluster.train(JobSpec::decision_tree(table.schema().task).with_dmax(8));
            let secs = t0.elapsed().as_secs_f64();
            (secs, cluster.shutdown())
        };
        let (exact_secs, exact_rep) = run(Splitter::Exact);
        let (hist_secs, hist_rep) = run(Splitter::Histogram {
            bins: 64,
            vote_k: 2,
        });
        let (exact_b, hist_b) = (exact_rep.split_bytes_sent, hist_rep.hist_bytes_sent);
        println!(
            "{:<48} {:>9.3} s {:>10.1} KB",
            format!("cluster_split_plane/exact/{rows}"),
            exact_secs,
            exact_b as f64 / 1024.0
        );
        println!(
            "{:<48} {:>9.3} s {:>10.1} KB",
            format!("cluster_split_plane/hist/{rows}"),
            hist_secs,
            hist_b as f64 / 1024.0
        );
        println!(
            "{:<48} {:>11.2}x bytes, {:.2}x time",
            "cluster_split_plane/reduction",
            exact_b as f64 / hist_b.max(1) as f64,
            exact_secs / hist_secs
        );
        out.push(
            &format!("cluster_split_plane/exact/{rows}"),
            exact_secs,
            rows,
            1,
            Some(exact_b as f64),
        );
        out.push(
            &format!("cluster_split_plane/hist/{rows}"),
            hist_secs,
            rows,
            1,
            Some(hist_b as f64),
        );
    }

    out.write();
}
