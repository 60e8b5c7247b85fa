//! `treeserver` — command-line front-end for the TreeServer reproduction.
//!
//! ```text
//! treeserver train   --csv data.csv --target label --task class \
//!                    [--model dt|rf|etc|gbt] [--trees N] [--dmax D]
//!                    [--workers W] [--compers C] [--out model.json]
//! treeserver predict --model model.json --csv data.csv --target label --task class
//! treeserver importance --model model.json [--top K]
//! ```
//!
//! Argument parsing is deliberately dependency-free.

use std::collections::HashMap;
use std::process::ExitCode;
use treeserver::{train_gbt_on, Cluster, ClusterConfig, GbtConfig, JobResult, JobSpec};
use ts_datatable::csv::{parse_csv, TaskKind};
use ts_datatable::metrics::{accuracy, rmse};
use ts_datatable::{DataTable, Task};
use ts_serve::ServeOptions;

mod model_file;
use model_file::ModelFile;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "train" => cmd_train(&opts),
        "predict" => cmd_predict(&opts),
        "serve" => cmd_serve(&opts),
        "importance" => cmd_importance(&opts),
        "show" => cmd_show(&opts),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  treeserver train      --csv FILE --target COL --task class|reg
                        [--model dt|rf|etc|gbt] [--trees N] [--dmax D]
                        [--workers W] [--compers C] [--seed S] [--out FILE]
                        [--splitter exact|hist] [--hist-bins N] [--vote-k K]
                        [--fault-seed S] [--drop-prob P] [--delay-prob P]
                        [--dup-prob P] [--join-at MS] [--join-count N]
                        [--preempt-at MS] [--preempt-grace-ms MS]
                        [--work-scale F1,F2,...]
                        [--trace-out FILE] [--trace-report FILE]
                        [--metrics-json FILE] [--metrics-prom FILE]
                        [--quiet] [--verbose]
  treeserver predict    --model FILE --csv FILE --target COL --task class|reg
                        [--out FILE] [--threads N] [--block-rows N]
                        [--reference] [--serve-metrics FILE]
  treeserver serve      --model FILE --csv FILE --target COL --task class|reg
                        [--requests N] [--qps Q] [--arrival poisson|bursty]
                        [--burst-on-qps Q] [--burst-off-qps Q]
                        [--burst-on-us US] [--burst-off-us US]
                        [--latency-budget-us US] [--max-batch N]
                        [--queue-cap N] [--fixed-batch] [--conns N]
                        [--swap-at US[,US...]] [--seed S] [--report FILE]
  treeserver importance --model FILE [--top K]
  treeserver show       --model FILE [--tree N]

split engine (train, see docs/HISTOGRAM.md):
  --splitter exact|hist exact sorted-scan splits (default) or quantized
                        histogram splits with top-k column voting: workers
                        nominate candidate gains and the master fetches the
                        full split of the elected column only — a far leaner
                        master<->worker split plane for a bounded accuracy
                        loss (the final cluster report breaks the traffic out)
  --hist-bins N         bin budget per numeric column (default 64; lossless
                        when a column has at most N distinct values)
  --vote-k K            candidates each worker nominates per task (default 2)

reliability (train):
  --drop-prob P         drop each transmission with probability P, P < 1
                        (seeded; the sender waits 10 ms and sends again, so
                        every message still arrives once, in order)
  --delay-prob P        delay each message with probability P (up to 5 ms)
  --dup-prob P          duplicate each message with probability P (both
                        copies are charged and paced; one is delivered)
  --fault-seed S        seed of the fault plan (default: --seed)

elasticity (train, see docs/ELASTICITY.md):
  --join-at MS          script N fresh workers (see --join-count) joining the
                        cluster MS milliseconds into training; the master
                        admits them and they receive column replicas
                        incrementally while training continues
  --join-count N        how many workers join at --join-at (default 1)
  --preempt-at MS       script a spot preemption of the highest-numbered
                        initial worker MS milliseconds in: it drains (finishes
                        in-flight work, hands its columns off) and departs
                        gracefully instead of crashing
  --preempt-grace-ms MS grace window for the drain (default 500); a drain
                        that blows the window escalates to crash recovery
  --work-scale F1,...   per-worker compute-speed multipliers (one per initial
                        worker; > 1 slows a worker down) modelling
                        heterogeneous machines

observability (train):
  --trace-out FILE      write a Chrome trace-event JSON (open in Perfetto or
                        chrome://tracing) of the run's task lifecycle,
                        including span flow arrows across machines
  --trace-report FILE   write a TraceReport JSON for the last finished job:
                        critical-path segments, phase totals (scheduling/
                        network/queueing/compute/gather), span latencies
  --metrics-json FILE   write the metrics registry (counters + histograms)
                        as JSON alongside the cluster report
  --metrics-prom FILE   write the same registry in Prometheus text format
  --quiet               suppress all non-error output
  --verbose             also print event totals and the last job's column- and
                        subtree-task count, p50 and p95 from its trace report

serving (predict):
  --threads N           threads for the compiled batch evaluator (0 = all
                        cores; default 0)
  --block-rows N        rows per evaluation block (default {block_rows})
  --reference           score with the per-row reference traversal instead
                        of the compiled engine (bit-identical, much slower)
  --serve-metrics FILE  write serving counters/latency histograms as JSON

request tier (serve, see docs/SERVING.md):
  --requests N          simulated single-row requests to stream (default 5000)
  --qps Q               mean arrival rate (default 100000)
  --arrival KIND        poisson (default) or bursty ON/OFF arrivals; the
                        stream runs on the deterministic virtual clock, so
                        the same seed replays byte-identically
  --burst-on-qps Q      bursty: rate inside a burst (default 3x --qps)
  --burst-off-qps Q     bursty: rate between bursts (default --qps / 10)
  --burst-on-us US      bursty: burst duration (default 1000)
  --burst-off-us US     bursty: gap duration (default 2000)
  --latency-budget-us US  per-request completion budget enforced by
                        admission control (default 2000)
  --max-batch N         micro-batch row cap (default 64)
  --queue-cap N         admission queue bound; beyond it requests shed with
                        a structured reject (default 256)
  --fixed-batch         disable adaptive batch sizing (p95-feedback)
  --conns N             simulated client connections (default 8)
  --swap-at US[,US...]  hot-swap the model at these virtual times: each swap
                        retrains a replacement on a background thread and
                        publishes it at a batch boundary, zero downtime
  --report FILE         write the serving report (quantiles, QPS, sheds,
                        swaps) as JSON";

/// [`USAGE`] with the library's serving defaults filled in.
fn usage() -> String {
    USAGE.replace(
        "{block_rows}",
        &ServeOptions::default().block_rows.to_string(),
    )
}

/// Every option the CLI accepts, with whether it takes a value; `Opts::parse`
/// rejects any other name. A unit test keeps this list and the `--name`
/// tokens of [`USAGE`] the same set.
const OPTIONS: &[(&str, bool)] = &[
    ("arrival", true),
    ("block-rows", true),
    ("burst-off-qps", true),
    ("burst-off-us", true),
    ("burst-on-qps", true),
    ("burst-on-us", true),
    ("compers", true),
    ("conns", true),
    ("csv", true),
    ("delay-prob", true),
    ("dmax", true),
    ("drop-prob", true),
    ("dup-prob", true),
    ("fault-seed", true),
    ("fixed-batch", false),
    ("hist-bins", true),
    ("join-at", true),
    ("join-count", true),
    ("latency-budget-us", true),
    ("max-batch", true),
    ("metrics-json", true),
    ("metrics-prom", true),
    ("model", true),
    ("out", true),
    ("preempt-at", true),
    ("preempt-grace-ms", true),
    ("qps", true),
    ("queue-cap", true),
    ("quiet", false),
    ("reference", false),
    ("report", true),
    ("requests", true),
    ("seed", true),
    ("serve-metrics", true),
    ("splitter", true),
    ("swap-at", true),
    ("target", true),
    ("task", true),
    ("threads", true),
    ("top", true),
    ("trace-out", true),
    ("trace-report", true),
    ("tree", true),
    ("trees", true),
    ("verbose", false),
    ("vote-k", true),
    ("work-scale", true),
    ("workers", true),
];

/// Parsed `--key value` options (plus valueless flags).
struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --option, got {key:?}"));
            };
            let Some(&(_, takes_value)) = OPTIONS.iter().find(|(known, _)| *known == name) else {
                return Err(format!("unknown option --{name}"));
            };
            let value = if takes_value {
                it.next().ok_or_else(|| format!("--{name} needs a value"))?
            } else {
                "true"
            };
            map.insert(name.to_string(), value.to_string());
        }
        Ok(Opts(map))
    }

    fn flag(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v:?} is not a valid number")),
        }
    }
}

fn load_table(opts: &Opts) -> Result<DataTable, String> {
    let path = opts.required("csv")?;
    let target = opts.required("target")?;
    let task = match opts.required("task")? {
        "class" | "classification" => TaskKind::Classification,
        "reg" | "regression" => TaskKind::Regression,
        other => return Err(format!("--task must be class or reg, got {other:?}")),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_csv(&text, target, task).map_err(|e| format!("parsing {path}: {e}"))
}

fn cluster_config(opts: &Opts, n_rows: usize) -> Result<ClusterConfig, String> {
    let workers = opts.num("workers", 4usize)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let compers = opts.num("compers", 2usize)?;
    if compers == 0 {
        return Err("--compers must be at least 1".into());
    }
    let work_scale = match opts.get("work-scale") {
        None => Vec::new(),
        Some(list) => {
            let factors: Vec<f64> = list
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .map_err(|_| format!("--work-scale factor {t:?} is not a valid number"))
                })
                .collect::<Result<_, String>>()?;
            if factors.len() != workers {
                return Err(format!(
                    "--work-scale names {} factors but --workers is {workers}",
                    factors.len()
                ));
            }
            if factors.iter().any(|&f| f <= 0.0 || !f.is_finite()) {
                return Err("--work-scale factors must be positive and finite".into());
            }
            factors
        }
    };
    let splitter = match opts.get("splitter").unwrap_or("exact") {
        "exact" => {
            if opts.get("hist-bins").is_some() || opts.get("vote-k").is_some() {
                return Err("--hist-bins/--vote-k need --splitter hist".into());
            }
            treeserver::Splitter::Exact
        }
        "hist" | "histogram" => {
            let bins = opts.num("hist-bins", 64usize)?;
            if !(2..=65_535).contains(&bins) {
                return Err(format!("--hist-bins must be in 2..=65535, got {bins}"));
            }
            let vote_k = opts.num("vote-k", 2usize)?;
            if vote_k == 0 {
                return Err("--vote-k must be at least 1".into());
            }
            treeserver::Splitter::Histogram { bins, vote_k }
        }
        other => return Err(format!("--splitter must be exact or hist, got {other:?}")),
    };
    Ok(ClusterConfig {
        n_workers: workers,
        compers_per_worker: compers,
        splitter,
        replication: 2.min(workers),
        tau_d: (n_rows as u64 / 20).max(256),
        tau_dfs: (n_rows as u64 / 5).max(1_024),
        work_scale,
        faults: fault_plan(opts, workers)?,
        ..Default::default()
    })
}

/// Builds a seeded fault plan from the reliability knobs (`--drop-prob` /
/// `--delay-prob` / `--dup-prob`) and the elasticity knobs (`--join-at` /
/// `--preempt-at`). Returns `None` when no knob is set; a membership knob
/// alone is enough to produce a plan (with zero message-fault
/// probabilities).
fn fault_plan(opts: &Opts, workers: usize) -> Result<Option<treeserver::FaultPlan>, String> {
    use std::time::Duration;
    let drop = opts.num("drop-prob", 0.0f64)?;
    let delay = opts.num("delay-prob", 0.0f64)?;
    let dup = opts.num("dup-prob", 0.0f64)?;
    // A dropped message is sent again, so a certain drop is a partition on
    // which training never finishes.
    if !(0.0..1.0).contains(&drop) {
        return Err(format!("--drop-prob must be in [0, 1), got {drop}"));
    }
    for (name, p) in [("delay-prob", delay), ("dup-prob", dup)] {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--{name} must be in 0..=1, got {p}"));
        }
    }
    let join = opts.get("join-at").is_some();
    let preempt = opts.get("preempt-at").is_some();
    if !join && opts.get("join-count").is_some() {
        return Err("--join-count needs --join-at".into());
    }
    if !preempt && opts.get("preempt-grace-ms").is_some() {
        return Err("--preempt-grace-ms needs --preempt-at".into());
    }
    if drop == 0.0 && delay == 0.0 && dup == 0.0 && !join && !preempt {
        return Ok(None);
    }
    let seed = match opts.get("fault-seed") {
        Some(_) => opts.num("fault-seed", 0u64)?,
        None => opts.num("seed", 0u64)?,
    };
    let mut plan = treeserver::FaultPlan::new(seed);
    if drop > 0.0 {
        plan = plan.with_message_drops(drop);
    }
    if delay > 0.0 {
        plan = plan.with_message_delays(delay, Duration::from_millis(5));
    }
    if dup > 0.0 {
        plan = plan.with_message_duplicates(dup);
    }
    if join {
        let at = opts.num("join-at", 0u64)?;
        let count = opts.num("join-count", 1usize)?;
        if count == 0 {
            return Err("--join-count must be at least 1".into());
        }
        plan = plan.with_worker_join(Duration::from_millis(at), count);
    }
    if preempt {
        if workers < 2 {
            return Err("--preempt-at needs at least 2 workers (the last one cannot leave)".into());
        }
        let at = opts.num("preempt-at", 0u64)?;
        let grace = opts.num("preempt-grace-ms", 500u64)?;
        if grace == 0 {
            return Err("--preempt-grace-ms must be at least 1".into());
        }
        // The highest-numbered initial worker plays the preempted spot
        // instance; joiners (if any) occupy ids above it.
        plan = plan.with_preemption(
            Duration::from_millis(at),
            workers,
            Duration::from_millis(grace),
        );
    }
    Ok(Some(plan))
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let kind = opts.get("model").unwrap_or("dt");
    if !["dt", "rf", "etc", "gbt"].contains(&kind) {
        return Err(format!("--model must be dt|rf|etc|gbt, got {kind:?}"));
    }
    let quiet = opts.flag("quiet");
    let verbose = opts.flag("verbose");
    if quiet && verbose {
        return Err("--quiet and --verbose are mutually exclusive".into());
    }
    let trace_out = opts.get("trace-out").map(str::to_string);
    let trace_report = opts.get("trace-report").map(str::to_string);
    let metrics_out = opts.get("metrics-json").map(str::to_string);
    let metrics_prom = opts.get("metrics-prom").map(str::to_string);

    let table = load_table(opts)?;
    let task = table.schema().task;
    if let Task::Classification { n_classes } = task {
        if kind == "gbt" && n_classes != 2 {
            return Err(format!(
                "--model gbt needs a 2-class or regression table, got {n_classes} classes"
            ));
        }
    }
    let trees = opts.num("trees", 20usize)?;
    let dmax = opts.num("dmax", 10u32)?;
    let seed = opts.num("seed", 0u64)?;
    let mut cfg = cluster_config(opts, table.n_rows())?;
    if trace_out.is_some()
        || trace_report.is_some()
        || metrics_out.is_some()
        || metrics_prom.is_some()
        || verbose
    {
        cfg.obs = treeserver::obs::ObsConfig::enabled();
    }
    if !quiet {
        eprintln!(
            "training {kind} on {} rows x {} attrs ({} workers x {} compers)",
            table.n_rows(),
            table.n_attrs(),
            cfg.n_workers,
            cfg.compers_per_worker
        );
    }
    let start = std::time::Instant::now();
    // GBT retrains on residual views each round, so the cluster is launched
    // over a regression view of the table; everything else trains in place.
    let cluster = if kind == "gbt" {
        let view = treeserver::gbt::regression_view(&table, vec![0.0; table.n_rows()]);
        Cluster::launch(cfg, &view)
    } else {
        Cluster::launch(cfg, &table)
    };
    let model = match kind {
        "dt" => {
            let m = cluster.train(JobSpec::decision_tree(task).with_dmax(dmax).with_seed(seed));
            match m {
                JobResult::Tree(t) => ModelFile::Tree(t),
                JobResult::Forest(_) => unreachable!("decision tree job"),
                JobResult::Failed(e) => return Err(format!("training failed: {e}")),
            }
        }
        "rf" | "etc" => {
            let spec = if kind == "rf" {
                JobSpec::random_forest(task, trees)
            } else {
                JobSpec::extra_trees(task, trees)
            };
            match cluster.train(spec.with_dmax(dmax).with_seed(seed)) {
                JobResult::Failed(e) => return Err(format!("training failed: {e}")),
                m => ModelFile::Forest(m.into_forest()),
            }
        }
        "gbt" => {
            let gbt_cfg = GbtConfig::for_task(task)
                .with_rounds(trees)
                .with_dmax(dmax.min(8));
            ModelFile::Gbt(train_gbt_on(&cluster, &table, gbt_cfg))
        }
        other => return Err(format!("--model must be dt|rf|etc|gbt, got {other:?}")),
    };
    let elapsed = start.elapsed();

    // Export observability artifacts before tearing the cluster down.
    if let Some(rec) = cluster.obs() {
        if let Some(path) = &trace_out {
            std::fs::write(path, rec.chrome_trace_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            if !quiet {
                eprintln!("trace written to {path} (load in Perfetto or chrome://tracing)");
            }
        }
        let report = (trace_report.is_some() || verbose)
            .then(|| rec.trace_report())
            .flatten();
        if let Some(path) = &trace_report {
            match &report {
                Some(report) => {
                    std::fs::write(path, report.to_json())
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    if !quiet {
                        eprintln!("trace report written to {path}");
                    }
                }
                None => eprintln!("warning: no finished job span — trace report not written"),
            }
        }
        if let Some(path) = &metrics_out {
            std::fs::write(path, rec.metrics_json()).map_err(|e| format!("writing {path}: {e}"))?;
            if !quiet {
                eprintln!("metrics written to {path}");
            }
        }
        if let Some(path) = &metrics_prom {
            std::fs::write(path, rec.metrics().to_prometheus_text())
                .map_err(|e| format!("writing {path}: {e}"))?;
            if !quiet {
                eprintln!("prometheus metrics written to {path}");
            }
        }
        if verbose {
            eprintln!(
                "observed {} events ({} lost to ring overflow)",
                rec.events_total(),
                rec.events_lost()
            );
            if let Some(report) = &report {
                let [_, _, column, subtree, _] = report.kind_summaries;
                for (name, k) in [("column", column), ("subtree", subtree)] {
                    eprintln!(
                        "{name} tasks: n={} p50={}ns p95={}ns",
                        k.count, k.p50_ns, k.p95_ns
                    );
                }
            }
        }
    }
    let report = cluster.shutdown();
    if !quiet {
        eprintln!("trained in {elapsed:.2?}");
        eprint!("{report}");
    }

    // Training-set fit as a quick sanity line.
    let compiled = model.compile();
    match task {
        Task::Classification { .. } => {
            let acc = accuracy(
                &compiled.predict_labels(&table),
                table.labels().as_class().unwrap(),
            );
            if !quiet {
                eprintln!("training accuracy: {:.2}%", acc * 100.0);
            }
        }
        Task::Regression => {
            let r = rmse(
                &compiled.predict_values(&table),
                table.labels().as_real().unwrap(),
            );
            if !quiet {
                eprintln!("training RMSE: {r:.4}");
            }
        }
    }

    let out = opts.get("out").unwrap_or("model.json");
    std::fs::write(out, model.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    if !quiet {
        eprintln!("model written to {out}");
    }
    Ok(())
}

fn cmd_predict(opts: &Opts) -> Result<(), String> {
    let model_path = opts.required("model")?;
    let model = ModelFile::from_json(
        &std::fs::read_to_string(model_path).map_err(|e| format!("reading {model_path}: {e}"))?,
    )
    .map_err(|e| format!("parsing {model_path}: {e}"))?;
    let table = load_table(opts)?;
    let reference = opts.flag("reference");

    let stats = std::sync::Arc::new(ts_serve::ServeStats::new());
    let defaults = ServeOptions::default();
    let serve_opts = defaults
        .with_threads(opts.num("threads", 0usize)?)
        .with_block_rows(opts.num("block-rows", defaults.block_rows)?.max(1));
    let compiled = model
        .compile()
        .with_options(serve_opts)
        .with_stats(std::sync::Arc::clone(&stats));

    let start = std::time::Instant::now();
    let lines: Vec<String> = match table.schema().task {
        Task::Classification { .. } => {
            let pred = if reference {
                model.predict_labels_reference(&table)?
            } else {
                compiled.predict_labels(&table)
            };
            let acc = accuracy(&pred, table.labels().as_class().unwrap());
            eprintln!(
                "accuracy against the CSV's target column: {:.2}%",
                acc * 100.0
            );
            pred.into_iter().map(|p| p.to_string()).collect()
        }
        Task::Regression => {
            let pred = if reference {
                model.predict_values_reference(&table)?
            } else {
                compiled.predict_values(&table)
            };
            let r = rmse(&pred, table.labels().as_real().unwrap());
            eprintln!("RMSE against the CSV's target column: {r:.4}");
            pred.into_iter().map(|p| p.to_string()).collect()
        }
    };
    let elapsed = start.elapsed();
    let rows = table.n_rows();
    let path_name = if reference { "reference" } else { "compiled" };
    eprintln!(
        "{rows} rows scored in {elapsed:.2?} on the {path_name} path ({:.0} rows/s)",
        rows as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    if let Some(path) = opts.get("serve-metrics") {
        std::fs::write(path, stats.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("serving metrics written to {path}");
    }
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, format!("prediction\n{}\n", lines.join("\n")))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("{} predictions written to {path}", lines.len());
        }
        None => {
            println!("prediction");
            for l in lines {
                println!("{l}");
            }
        }
    }
    Ok(())
}

/// The online request tier: stream a simulated arrival plan through the
/// micro-batching front (virtual clock, so runs are deterministic and
/// seed-replayable) and report latency quantiles, sustained QPS, sheds
/// and hot swaps. See docs/SERVING.md, "The request tier".
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::Duration;
    use ts_front::{ArrivalPlan, FrontConfig, FrontServer, ModelRegistry};

    let model_path = opts.required("model")?;
    let model = ModelFile::from_json(
        &std::fs::read_to_string(model_path).map_err(|e| format!("reading {model_path}: {e}"))?,
    )
    .map_err(|e| format!("parsing {model_path}: {e}"))?;
    let table = Arc::new(load_table(opts)?);
    if table.n_rows() == 0 {
        return Err("the request table has no rows".into());
    }

    let requests = opts.num("requests", 5_000usize)?;
    if requests == 0 {
        return Err("--requests must be at least 1".into());
    }
    let conns = opts.num("conns", 8u32)?;
    if conns == 0 {
        return Err("--conns must be at least 1".into());
    }
    let seed = opts.num("seed", 0u64)?;
    let qps = opts.num("qps", 100_000.0f64)?;
    if !(qps > 0.0 && qps.is_finite()) {
        return Err(format!("--qps must be positive and finite, got {qps}"));
    }
    let plan = match opts.get("arrival").unwrap_or("poisson") {
        "poisson" => {
            for k in [
                "burst-on-qps",
                "burst-off-qps",
                "burst-on-us",
                "burst-off-us",
            ] {
                if opts.get(k).is_some() {
                    return Err(format!("--{k} needs --arrival bursty"));
                }
            }
            ArrivalPlan::Poisson { qps }
        }
        "bursty" => {
            let on_qps = opts.num("burst-on-qps", qps * 3.0)?;
            let off_qps = opts.num("burst-off-qps", qps / 10.0)?;
            for (name, q) in [("burst-on-qps", on_qps), ("burst-off-qps", off_qps)] {
                if !(q > 0.0 && q.is_finite()) {
                    return Err(format!("--{name} must be positive and finite, got {q}"));
                }
            }
            let on_us = opts.num("burst-on-us", 1_000u64)?;
            let off_us = opts.num("burst-off-us", 2_000u64)?;
            if on_us == 0 || off_us == 0 {
                return Err("--burst-on-us/--burst-off-us must be at least 1".into());
            }
            ArrivalPlan::Bursty {
                on_qps,
                off_qps,
                on: Duration::from_micros(on_us),
                off: Duration::from_micros(off_us),
            }
        }
        other => {
            return Err(format!(
                "--arrival must be poisson or bursty, got {other:?}"
            ))
        }
    };
    let cfg = FrontConfig {
        latency_budget: Duration::from_micros(opts.num("latency-budget-us", 2_000u64)?),
        max_batch: opts.num("max-batch", 64usize)?,
        queue_cap: opts.num("queue-cap", 256usize)?,
        adaptive_batch: !opts.flag("fixed-batch"),
        ..FrontConfig::default()
    };

    let registry = Arc::new(ModelRegistry::new(model.compile()));
    let mut server = FrontServer::new(cfg, Arc::clone(&registry), Arc::clone(&table));
    let mut n_swaps = 0usize;
    if let Some(list) = opts.get("swap-at") {
        for (i, tok) in list.split(',').enumerate() {
            let at_us: u64 = tok
                .trim()
                .parse()
                .map_err(|_| format!("--swap-at time {tok:?} is not a valid number"))?;
            // The replacement trains off the virtual clock on a real
            // thread; the swap closure joins it at the scheduled virtual
            // time, so trainer wall time never skews response latencies.
            let t = Arc::clone(&table);
            let s = seed ^ (0xF507_A881 + i as u64);
            let trainer = std::thread::spawn(move || {
                let attrs: Vec<usize> = (0..t.n_attrs()).collect();
                let params = ts_tree::TrainParams::for_task(t.schema().task);
                let tree = ts_tree::train_tree(&t, &attrs, &params, s);
                ts_serve::CompiledModel::from_tree(&tree)
            });
            server.schedule_swap(Duration::from_micros(at_us), move || {
                trainer.join().expect("replacement trainer panicked")
            });
            n_swaps += 1;
        }
    }

    let arrivals = plan.generate(requests, table.n_rows() as u32, conns, seed);
    eprintln!(
        "streaming {requests} requests ({} arrivals, {conns} conns, seed {seed}) \
         against {} rows x {} attrs",
        plan.name(),
        table.n_rows(),
        table.n_attrs()
    );
    let report = server.run(&arrivals);

    if report.swaps.len() != n_swaps {
        return Err(format!(
            "only {} of {n_swaps} scheduled swaps fired — the stream ended at \
             {:.3} ms; move --swap-at earlier",
            report.swaps.len(),
            arrivals.last().map_or(0, |a| a.at_ns) as f64 / 1e6,
        ));
    }
    eprintln!(
        "served {} / {} ({} shed: {} queue-full, {} backpressure)",
        report.responses.len(),
        requests,
        report.sheds.len(),
        report
            .sheds
            .iter()
            .filter(|s| s.reason == ts_front::RejectReason::QueueFull)
            .count(),
        report
            .sheds
            .iter()
            .filter(|s| s.reason == ts_front::RejectReason::Backpressure)
            .count(),
    );
    eprintln!(
        "{} batches ({} deadline flushes, {} full flushes), {} hot swaps",
        report.batches,
        report.deadline_flushes,
        report.full_flushes,
        report.swaps.len()
    );
    let q = report.latency_quantiles().unwrap_or_default();
    println!(
        "latency p50 {:.1} us | p99 {:.1} us | p999 {:.1} us | sustained {:.0} qps",
        q.p50_ns as f64 / 1e3,
        q.p99_ns as f64 / 1e3,
        q.p999_ns as f64 / 1e3,
        report.sustained_qps()
    );
    if let Some(path) = opts.get("report") {
        let json = serve_report_json(&plan, seed, &report);
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("serving report written to {path}");
    }
    Ok(())
}

/// Hand-rolled JSON for the serving report — small and flat enough that
/// the tsjson derive would be heavier than the literal.
fn serve_report_json(plan: &ts_front::ArrivalPlan, seed: u64, r: &ts_front::FrontReport) -> String {
    let q = r.latency_quantiles().unwrap_or_default();
    format!(
        "{{\n  \"arrival\": \"{}\",\n  \"seed\": {seed},\n  \"responses\": {},\n  \
         \"sheds\": {},\n  \"batches\": {},\n  \"deadline_flushes\": {},\n  \
         \"full_flushes\": {},\n  \"swaps\": {},\n  \"p50_us\": {:.3},\n  \
         \"p99_us\": {:.3},\n  \"p999_us\": {:.3},\n  \"sustained_qps\": {:.1}\n}}\n",
        plan.name(),
        r.responses.len(),
        r.sheds.len(),
        r.batches,
        r.deadline_flushes,
        r.full_flushes,
        r.swaps.len(),
        q.p50_ns as f64 / 1e3,
        q.p99_ns as f64 / 1e3,
        q.p999_ns as f64 / 1e3,
        r.sustained_qps(),
    )
}

fn cmd_show(opts: &Opts) -> Result<(), String> {
    let model_path = opts.required("model")?;
    let model = ModelFile::from_json(
        &std::fs::read_to_string(model_path).map_err(|e| format!("reading {model_path}: {e}"))?,
    )
    .map_err(|e| format!("parsing {model_path}: {e}"))?;
    let index = opts.num("tree", 0usize)?;
    let tree = model
        .tree_at(index)
        .ok_or_else(|| format!("model has no tree {index}"))?;
    print!("{}", tree.render(|a| format!("a{a}")));
    Ok(())
}

fn cmd_importance(opts: &Opts) -> Result<(), String> {
    let model_path = opts.required("model")?;
    let model = ModelFile::from_json(
        &std::fs::read_to_string(model_path).map_err(|e| format!("reading {model_path}: {e}"))?,
    )
    .map_err(|e| format!("parsing {model_path}: {e}"))?;
    let top = opts.num("top", 10usize)?;
    let imp = model.feature_importance();
    let mut ranked: Vec<(usize, f64)> = imp.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("{:<8} {:>10}", "attr", "importance");
    for (attr, v) in ranked.into_iter().take(top) {
        if v > 0.0 {
            println!("{attr:<8} {v:>10.4}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn options_table_and_usage_name_the_same_options() {
        let table: BTreeSet<&str> = OPTIONS.iter().map(|&(name, _)| name).collect();
        assert_eq!(table.len(), OPTIONS.len(), "duplicate entry in OPTIONS");
        let is_name_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-';
        let usage: BTreeSet<&str> = USAGE
            .split("--")
            .skip(1)
            .map(|rest| rest.split(|c| !is_name_char(c)).next().unwrap_or(""))
            .filter(|name| !name.is_empty())
            .collect();
        assert_eq!(table, usage);
    }
}
