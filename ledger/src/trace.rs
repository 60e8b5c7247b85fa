//! The traced run (`run --trace 1`): the layers a workload uses, probed
//! from outside with a span around every call. A training workload gets
//! its split kernels, one job with the cluster's own tracing on, and what
//! the cluster counted meanwhile; a serving workload gets compile, batch
//! scoring and (for `serve_requests`) the request stream. A metric of
//! [`spec::PER_LAYER`](crate::spec::PER_LAYER) whose layer the workload
//! does not use reads [`spec::NOT_PROBED`]. End-to-end metrics never come
//! from this mode.

use std::sync::Arc;
use std::time::Instant;

use treeserver::Cluster;
use ts_datatable::{AttrType, BinnedColumn, Column, DataTable, SortedColumn};
use ts_front::FrontReport;
use ts_obs::{ObsConfig, TraceReport};
use ts_serve::ServeStats;
use ts_splits::sorted::{best_cat_split_classification_at, best_numeric_split_at, with_node_mask};
use ts_splits::{
    best_hist_split_at, kernel_counters, HistColumnRef, Impurity, KernelCounters, LabelView,
    NodeRows,
};
use ts_tree::ForestModel;
use tsjson::Value;

use crate::spans::Spans;
use crate::spec::{self, Reading};
use crate::stats;
use crate::workloads::{self, Checker, Output, Sizes, Workload, HIST_BINS};

/// Event-ring slots per machine: enough that one job loses nothing.
const RING_CAPACITY: usize = 1 << 21;
/// A probed node holds every `NODE_STRIDE`-th row.
const NODE_STRIDE: usize = 64;
/// Repetitions of a kernel or `update_labels` probe; the best counts.
const PROBE_REPS: usize = 20;
/// Untraced jobs the traced one is compared with.
const UNTRACED_OPS: usize = 3;
/// Scoring calls per reported batch size at scale 1.
const BATCH_CALLS: usize = 2_000;

/// What the cluster's own instruments say about one traced job.
struct JobTrace {
    wall_s: f64,
    report: TraceReport,
    busy_share: f64,
    job_bytes: u64,
    job_msgs: u64,
    master_sent_bytes: u64,
    split_plane_bytes: u64,
    events: u64,
    events_lost: u64,
    kernels: KernelCounters,
}

impl JobTrace {
    /// Runs `job` on a cluster launched with tracing on and reads the
    /// deltas it caused.
    fn around<R>(cluster: &Cluster, job: impl FnOnce() -> (R, f64)) -> (R, JobTrace) {
        let recorder = Arc::clone(cluster.obs().expect("the traced cluster has a recorder"));
        let before = cluster.report();
        let kernels_before = kernel_counters();
        let (out, wall_s) = job();
        let kernels_after = kernel_counters();
        let after = cluster.report();

        let workers = 1..after.per_node.len();
        let sent = |pick: fn(&treeserver::ClusterReport, usize) -> u64| -> u64 {
            (0..after.per_node.len())
                .map(|n| pick(&after, n) - pick(&before, n))
                .sum()
        };
        let busy_ns: u64 = workers
            .clone()
            .map(|n| after.per_node[n].busy_ns - before.per_node[n].busy_ns)
            .sum();
        let trace = JobTrace {
            wall_s,
            report: cluster
                .trace_report()
                .expect("the traced job closed its span"),
            busy_share: busy_ns as f64 / 1e9 / (workers.len() as f64 * wall_s),
            job_bytes: sent(|r, n| r.per_node[n].sent_bytes),
            job_msgs: sent(|r, n| r.per_node[n].sent_msgs),
            master_sent_bytes: after.master_sent_bytes - before.master_sent_bytes,
            split_plane_bytes: (after.split_bytes_sent + after.hist_bytes_sent)
                - (before.split_bytes_sent + before.hist_bytes_sent),
            events: recorder.events_total(),
            events_lost: recorder.events_lost(),
            kernels: KernelCounters {
                numeric_sorted_scans: kernels_after.numeric_sorted_scans
                    - kernels_before.numeric_sorted_scans,
                numeric_gather_scans: kernels_after.numeric_gather_scans
                    - kernels_before.numeric_gather_scans,
                pool_hits: kernels_after.pool_hits - kernels_before.pool_hits,
                pool_misses: kernels_after.pool_misses - kernels_before.pool_misses,
            },
        };
        (out, trace)
    }
}

/// Everything a traced run produced.
pub struct Traced {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    pub correct: bool,
    pub check: Result<String, String>,
    pub readings: Vec<Reading>,
    spans: Spans,
}

impl Traced {
    /// The last line of standard output the driver reads: one traced
    /// walk attempted.
    pub fn contract_line(&self) -> String {
        spec::contract_line(self.correct, 1, u64::from(!self.correct), &self.readings)
    }

    /// The span file: host, seed, sizes, the per-layer table and the spans.
    pub fn to_json(&self) -> Value {
        tsjson::json!({
            "host": crate::host::fingerprint(),
            "workload": self.workload.name(),
            "seed": self.seed,
            "sizes": self.sizes,
            "correct": self.correct,
            "check": match &self.check { Ok(s) | Err(s) => s.clone() },
            "metrics": spec::described(&self.readings),
            "spans": self.spans.to_json(self.seed)
        })
    }

    /// The readings of the layers this workload uses.
    fn probed(&self) -> impl Iterator<Item = &Reading> {
        self.readings.iter().filter(|r| r.value != spec::NOT_PROBED)
    }

    pub fn print(&self) {
        println!(
            "trace of {}  seed {}  scale {}",
            self.workload.name(),
            self.seed,
            self.sizes.scale
        );
        for r in self.probed() {
            println!(
                "  {:<32} {:>16.4} {:<6} ({}, {})",
                r.def.name,
                r.value,
                r.def.unit,
                r.def.stat,
                r.def.clock.name()
            );
        }
        let skipped = self.readings.len() - self.probed().count();
        println!("  {skipped} metrics of layers this workload does not use are not probed");
        match &self.check {
            Ok(s) => println!("  check passed: {s}"),
            Err(s) => println!("  check FAILED: {s}"),
        }
    }
}

/// Best wall seconds of `reps` calls of `f`, each under a span `name`.
fn best_of<R>(spans: &mut Spans, name: &str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| spans.time(name, |_| std::hint::black_box(f())).1)
        .collect();
    stats::best(&secs)
}

/// The datatable and splits layers, probed on the training table: the
/// kernels the workload's job runs, under its own labels.
fn probe_kernels(
    w: Workload,
    train: &DataTable,
    sizes: &Sizes,
    spans: &mut Spans,
    out: &mut Vec<(&str, f64)>,
) {
    let n = train.n_rows();
    let numeric: Vec<&[f64]> = train
        .columns()
        .iter()
        .filter_map(|c| match c {
            Column::Numeric(v) => Some(v.as_slice()),
            Column::Categorical(_) => None,
        })
        .collect();
    let values = numeric[0];
    let index = SortedColumn::from_numeric(values);
    let node: Vec<u32> = (0..n as u32).step_by(NODE_STRIDE).collect();
    let per_row = |secs: f64, rows: usize| secs * 1e9 / rows as f64;
    let root = NodeRows::All(n);

    // Workers presort their columns at launch; on the 200 000-row table
    // that is most of the set-up.
    if matches!(w, Workload::ColtaskExact | Workload::ColtaskHist) {
        let presort_s = best_of(spans, "datatable.presort", 3, || {
            train
                .columns()
                .iter()
                .map(SortedColumn::build)
                .collect::<Vec<_>>()
        });
        out.push(("datatable.presort_s", presort_s));
    }
    match w {
        Workload::ColtaskExact | Workload::SubtreeForest => {
            let class = train.labels().as_class().expect("classification table");
            let by_class = LabelView::Class(class, sizes.classes);
            let (codes, n_values) = (0..train.n_attrs())
                .find_map(|a| match (train.column(a), train.schema().attr_type(a)) {
                    (Column::Categorical(c), AttrType::Categorical { n_values }) => {
                        Some((c, n_values))
                    }
                    _ => None,
                })
                .expect("the table has a categorical column");
            let num_root = best_of(spans, "splits.exact_num_root", PROBE_REPS, || {
                best_numeric_split_at(values, &index, root, None, by_class, Impurity::Gini)
            });
            out.push(("splits.exact_num_root_ns_row", per_row(num_root, n)));
            let num_node = with_node_mask(n, &node, |mask| {
                best_of(spans, "splits.exact_num_node", PROBE_REPS, || {
                    let rows = NodeRows::Subset(&node);
                    best_numeric_split_at(
                        values,
                        &index,
                        rows,
                        Some(mask),
                        by_class,
                        Impurity::Gini,
                    )
                })
            });
            out.push((
                "splits.exact_num_node_ns_row",
                per_row(num_node, node.len()),
            ));
            let cat_root = best_of(spans, "splits.exact_cat_root", PROBE_REPS, || {
                let k = sizes.classes;
                best_cat_split_classification_at(codes, n_values, root, class, k, Impurity::Gini)
            });
            out.push(("splits.exact_cat_root_ns_row", per_row(cat_root, n)));
        }
        Workload::ColtaskHist => {
            let class = train.labels().as_class().expect("classification table");
            let by_class = LabelView::Class(class, sizes.classes);
            let bin_s = best_of(spans, "datatable.bin", 3, || {
                numeric
                    .iter()
                    .map(|v| BinnedColumn::build(v, HIST_BINS))
                    .collect::<Vec<_>>()
            });
            out.push(("datatable.bin_s", bin_s));
            let binned = BinnedColumn::build(values, HIST_BINS);
            let hist = HistColumnRef::Numeric { binned: &binned };
            let hist_root = best_of(spans, "splits.hist_num_root", PROBE_REPS, || {
                best_hist_split_at(hist, root, by_class, Impurity::Gini)
            });
            out.push(("splits.hist_num_root_ns_row", per_row(hist_root, n)));
            let hist_node = best_of(spans, "splits.hist_num_node", PROBE_REPS, || {
                best_hist_split_at(hist, NodeRows::Subset(&node), by_class, Impurity::Gini)
            });
            out.push((
                "splits.hist_num_node_ns_row",
                per_row(hist_node, node.len()),
            ));
        }
        Workload::BoostRounds => {
            let by_real = LabelView::Real(train.labels().as_real().expect("regression table"));
            let reg_root = best_of(spans, "splits.exact_reg_root", PROBE_REPS, || {
                best_numeric_split_at(values, &index, root, None, by_real, Impurity::Variance)
            });
            out.push(("splits.exact_reg_root_ns_row", per_row(reg_root, n)));
        }
        Workload::ServeBulk | Workload::ServeRequests => {}
    }
}

/// The serve layer: compile time, batch-size latencies and the fitted
/// `overhead + per_row * rows` line — the measured counterpart of the
/// front tier's `ServiceModel`.
fn probe_serving(
    forest: &ForestModel,
    table: &DataTable,
    scale: f64,
    spans: &mut Spans,
    out: &mut Vec<(&str, f64)>,
) {
    let compile_s = best_of(spans, "serve.compile", 5, || {
        workloads::compile(forest, None)
    });
    out.push(("serve.compile_ms", compile_s * 1e3));
    let compiled = workloads::compile(forest, None);
    out.push(("serve.nodes", compiled.n_nodes() as f64));

    let n = table.n_rows();
    // Smoke runs (`--scale` below 1) make fewer calls.
    let reported = ((BATCH_CALLS as f64 * scale) as usize).max(50);
    let (mut sizes_x, mut p50_y) = (Vec::new(), Vec::new());
    let mut rows = 1usize;
    while rows <= 1024.min(n) {
        // Distinct sub-tables per size, so calls do not all hit one row set.
        let batches: Vec<DataTable> = (0..(n / rows).min(16))
            .map(|i| {
                table.select_rows(
                    &(i * rows..(i + 1) * rows)
                        .map(|r| r as u32)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        // The reported sizes get every call; the sizes that only feed the
        // fit get fewer as they grow.
        let calls = match rows {
            1 | 32 | 1024 => reported,
            _ => (reported * 32 / rows).clamp(50, reported),
        };
        let (secs, _) = spans.time(&format!("serve.batch{rows}"), |_| {
            (0..calls)
                .map(|i| {
                    let start = Instant::now();
                    std::hint::black_box(compiled.predict_labels(&batches[i % batches.len()]));
                    start.elapsed().as_secs_f64()
                })
                .collect::<Vec<f64>>()
        });
        let p50_us = stats::median(&secs) * 1e6;
        match rows {
            1 => out.push(("serve.batch1_us", p50_us)),
            32 => {
                out.push(("serve.batch32_us", p50_us));
                out.push(("serve.batch32_p99_us", stats::quantile(&secs, 0.99) * 1e6));
            }
            1024 => out.push(("serve.batch1024_us", p50_us)),
            _ => {}
        }
        sizes_x.push(rows as f64);
        p50_y.push(p50_us);
        rows *= 2;
    }
    let (overhead_us, per_row_us) = stats::least_squares(&sizes_x, &p50_y);
    out.push(("serve.fit_overhead_us", overhead_us));
    out.push(("serve.fit_per_row_ns", per_row_us * 1e3));
}

/// The front layer: what one request stream of `run_s` wall seconds
/// reported, and the engine's batch timings under it, so the loop's self
/// time shows.
fn front_metrics(
    report: &FrontReport,
    run_s: f64,
    engine: &ServeStats,
    sizes: &Sizes,
    out: &mut Vec<(&str, f64)>,
) {
    let requests = sizes.requests as f64;
    let batches = report.batches as f64;
    let q = report.latency_quantiles().unwrap_or_default();
    // ServeStats sums whole microseconds per batch.
    let engine = engine.summary();
    let engine_s = engine.mean_latency_us * engine.batches as f64 / 1e6;
    out.extend([
        ("front.batches", batches),
        (
            "front.mean_batch_rows",
            report.responses.len() as f64 / batches.max(1.0),
        ),
        (
            "front.deadline_flush_share",
            report.deadline_flushes as f64 / batches.max(1.0),
        ),
        ("front.shed_ratio", report.sheds.len() as f64 / requests),
        ("front.virtual_p50_us", q.p50_ns as f64 / 1e3),
        ("front.virtual_p99_us", q.p99_ns as f64 / 1e3),
        ("front.engine_share", engine_s / run_s),
        (
            "front.loop_ns_per_request",
            (run_s - engine_s) * 1e9 / requests,
        ),
    ]);
}

/// Wall seconds of the most recent span called `name`.
fn last(spans: &Spans, name: &str) -> f64 {
    spans.last_secs(name).expect("the span was recorded")
}

/// A training workload: its kernels, then its job untraced (the base of
/// the tracing overhead) and once on a fresh cluster with the engine's
/// tracing on. Returns whether every output was right and the model check.
fn trace_training(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    spans: &mut Spans,
    out: &mut Vec<(&str, f64)>,
) -> (bool, Result<String, String>) {
    let (train, holdout) = workloads::input(sizes, seed, spans);
    out.push(("datatable.generate_s", last(spans, "datatable.generate")));
    probe_kernels(w, &train, sizes, spans, out);
    if w == Workload::SubtreeForest {
        let (_, tree_s) = spans.time("tree.train_tree", |_| {
            workloads::reference_tree(w, sizes, &train)
        });
        out.push(("tree.train_tree_s", tree_s));
    }

    let cluster = workloads::launch(w, sizes, &train, ObsConfig::default(), spans);
    out.push(("core.launch_s", last(spans, "core.launch")));
    let mut checker = Checker::new(w, sizes, None);
    let mut ok = true;
    let untraced: Vec<f64> = (0..=UNTRACED_OPS)
        .map(|_| {
            let (output, secs) = workloads::train_op(w, sizes, &cluster, &train, spans);
            ok &= checker.op_ok(output);
            secs
        })
        .skip(1) // the first is the warm-up
        .collect();
    let untraced_s = stats::best(&untraced);
    if w == Workload::BoostRounds {
        let labels = train.labels().clone();
        let update_s = best_of(spans, "core.update_labels", PROBE_REPS, || {
            cluster.update_labels(&labels)
        });
        out.push(("core.update_labels_ms", update_s * 1e3));
        out.push(("core.round_ms", untraced_s * 1e3 / sizes.trees as f64));
    }
    cluster.shutdown();

    let obs = ObsConfig {
        enabled: true,
        ring_capacity: RING_CAPACITY,
        ..ObsConfig::default()
    };
    let cluster = workloads::launch(w, sizes, &train, obs, spans);
    let (output, job) = JobTrace::around(&cluster, || {
        workloads::train_op(w, sizes, &cluster, &train, spans)
    });
    cluster.shutdown();
    ok &= checker.op_ok(output);

    let [scheduling, network, queueing, compute, gather] = job.report.phase_totals_ns;
    let [_, plans, column, subtree, _] = job.report.kind_summaries;
    let pool = job.kernels.pool_hits + job.kernels.pool_misses;
    out.extend([
        (
            "splits.sorted_scans",
            job.kernels.numeric_sorted_scans as f64,
        ),
        (
            "splits.gather_scans",
            job.kernels.numeric_gather_scans as f64,
        ),
        (
            "splits.pool_miss_ratio",
            job.kernels.pool_misses as f64 / pool.max(1) as f64,
        ),
        ("core.cp_scheduling_s", scheduling as f64 / 1e9),
        ("core.cp_network_s", network as f64 / 1e9),
        ("core.cp_queueing_s", queueing as f64 / 1e9),
        ("core.cp_compute_s", compute as f64 / 1e9),
        ("core.cp_gather_s", gather as f64 / 1e9),
        ("core.column_tasks", column.count as f64),
        ("core.subtree_tasks", subtree.count as f64),
        ("core.plans", plans.count as f64),
        ("core.column_task_p50_us", column.p50_ns as f64 / 1e3),
        ("core.column_task_p95_us", column.p95_ns as f64 / 1e3),
        ("core.subtree_task_p50_us", subtree.p50_ns as f64 / 1e3),
        ("core.subtree_task_p95_us", subtree.p95_ns as f64 / 1e3),
        ("core.worker_busy_share", job.busy_share),
        ("netsim.job_bytes", job.job_bytes as f64),
        ("netsim.job_msgs", job.job_msgs as f64),
        ("netsim.master_sent_bytes", job.master_sent_bytes as f64),
        ("netsim.split_plane_bytes", job.split_plane_bytes as f64),
        ("obs.trace_overhead_ratio", job.wall_s / untraced_s),
        ("obs.events", job.events as f64),
        ("obs.events_lost", job.events_lost as f64),
    ]);
    ok &= job.events_lost == 0 && job.report.phase_sum_ns() == job.report.wall_ns;
    let (check, _) = spans.time("verify", |_| checker.model_ok(sizes, &train, &holdout));
    (ok, check)
}

/// A serving workload: its set-up (which trains and publishes the forest),
/// the scoring engine by batch size, and one operation — for
/// `serve_requests` with the engine's batch timings attached.
fn trace_serving(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    spans: &mut Spans,
    out: &mut Vec<(&str, f64)>,
) -> (bool, Result<String, String>) {
    let engine = Arc::new(ServeStats::new());
    let attached = (w == Workload::ServeRequests).then(|| Arc::clone(&engine));
    let (ready, _) = spans.time("setup", |s| workloads::setup(w, sizes, seed, attached, s));
    out.push(("datatable.generate_s", last(spans, "datatable.generate")));
    out.push(("core.launch_s", last(spans, "core.launch")));
    let (forest, table) = ready.published().expect("a serving workload publishes");
    probe_serving(forest, table, sizes.scale, spans, out);

    let mut checker = Checker::new(w, sizes, ready.published());
    let (output, secs) = workloads::op(w, sizes, &ready, spans);
    if let Output::Responses(report) = &output {
        front_metrics(report, secs, &engine, sizes, out);
    }
    let ok = checker.op_ok(output);
    let (check, _) = spans.time("verify", |_| {
        checker.model_ok(sizes, &ready.train, &ready.holdout)
    });
    (ok, check)
}

/// Runs the traced walk of `w`.
pub fn trace(w: Workload, seed: u64, scale: f64) -> Traced {
    let sizes = Sizes::of(w, scale);
    let mut spans = Spans::on();
    let mut out: Vec<(&str, f64)> = Vec::new();
    let (ok, check) = if w.serves() {
        trace_serving(w, &sizes, seed, &mut spans, &mut out)
    } else {
        trace_training(w, &sizes, seed, &mut spans, &mut out)
    };
    assert!(
        out.iter()
            .all(|(name, _)| spec::PER_LAYER.iter().any(|def| def.name == *name)),
        "every probed name is a per-layer metric"
    );
    let readings = spec::PER_LAYER
        .iter()
        .map(|def| Reading {
            def,
            value: out
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(spec::NOT_PROBED, |(_, value)| *value),
        })
        .collect();
    Traced {
        workload: w,
        seed,
        sizes,
        correct: ok && check.is_ok(),
        check,
        readings,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Clock;

    /// Traced smoke runs lose no event, every per-layer metric is probed on
    /// some workload, a layer a workload does not use is left alone, and
    /// counts repeat for one seed.
    #[test]
    fn traced_smoke_runs_cover_every_metric_and_counts_repeat() {
        let mut probed: Vec<&str> = Vec::new();
        let mut boost = None;
        for w in Workload::ALL {
            let traced = trace(w, 7, 0.05);
            assert!(traced.correct, "{}: {:?}", w.name(), traced.check);
            assert_eq!(traced.readings.len(), spec::PER_LAYER.len());
            assert!(traced
                .probed()
                .all(|r| r.value.is_finite() && r.value >= 0.0));
            assert!(!traced
                .spans
                .to_json(7)
                .as_array()
                .expect("span array")
                .is_empty());
            let has = |name: &str| traced.probed().any(|r| r.def.name == name);
            assert_eq!(has("front.batches"), w == Workload::ServeRequests);
            assert_eq!(has("core.cp_compute_s"), !w.serves());
            probed.extend(traced.probed().map(|r| r.def.name));
            if w == Workload::BoostRounds {
                boost = Some(traced);
            }
        }
        probed.sort_unstable();
        probed.dedup();
        assert_eq!(probed.len(), spec::PER_LAYER.len());

        let first = boost.expect("boost_rounds is a workload");
        let second = trace(Workload::BoostRounds, 7, 0.05);
        for (a, b) in first.readings.iter().zip(&second.readings) {
            // The kernel counters are process-wide, and other tests of this
            // process train trees meanwhile.
            if a.def.clock != Clock::Measured && !a.def.name.starts_with("splits.") {
                assert_eq!(a.value, b.value, "{}", a.def.name);
            }
        }
    }
}
