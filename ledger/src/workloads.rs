//! The six workloads: their sizes, set-up, one operation each, and the
//! checks every operation's output must pass. Everything here goes through
//! the crates' public functions; every cluster runs with
//! `work_ns_per_unit = 0` and `NetModel::instant()`, so no timed region
//! contains a slept or modeled cost.

use std::sync::Arc;
use std::time::Duration;

use treeserver::{
    train_gbt_on, Cluster, ClusterConfig, GbtConfig, GbtModel, JobResult, JobSpec, NetModel,
    Splitter,
};
use ts_datatable::metrics::{accuracy, rmse};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{DataTable, Task};
use ts_front::{
    Arrival, ArrivalPlan, FrontConfig, FrontReport, FrontServer, ModelRegistry, Score, ServiceModel,
};
use ts_obs::ObsConfig;
use ts_serve::{CompiledModel, ServeOptions, ServeStats};
use ts_tree::{train_tree, DecisionTreeModel, ForestModel, TrainParams};

use crate::spans::Spans;

/// A benchmark workload. Why each exists is recorded in `/BENCHMARK.json`
/// and README.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColtaskExact,
    ColtaskHist,
    SubtreeForest,
    BoostRounds,
    ServeBulk,
    ServeRequests,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ColtaskExact,
        Workload::ColtaskHist,
        Workload::SubtreeForest,
        Workload::BoostRounds,
        Workload::ServeBulk,
        Workload::ServeRequests,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColtaskExact => "coltask_exact",
            Workload::ColtaskHist => "coltask_hist",
            Workload::SubtreeForest => "subtree_forest",
            Workload::BoostRounds => "boost_rounds",
            Workload::ServeBulk => "serve_bulk",
            Workload::ServeRequests => "serve_requests",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether operations score with a published model (no training).
    pub fn serves(self) -> bool {
        matches!(self, Workload::ServeBulk | Workload::ServeRequests)
    }
}

/// Histogram bins of `coltask_hist` (and of the `datatable.bin_s` probe).
pub const HIST_BINS: usize = 64;

/// Held-out quality floors. The equality checks against the
/// single-threaded trainer carry the weight; the floors catch a model that
/// learned nothing, and are set to hold at every `--scale` (at 1.0 the
/// forests reach 0.66-0.74 accuracy where the majority class has 0.39, and
/// boosting leaves 0.63-0.64 of the mean predictor's RMSE; at 0.05 the
/// forest's lead shrinks to 0.11 and boosting leaves 0.71). A forest must
/// beat always answering the most common class by this much accuracy.
const FOREST_LIFT_FLOOR: f64 = 0.08;
/// Boosting must cut the mean predictor's held-out RMSE to this share of it.
const BOOST_RMSE_SHARE_CEILING: f64 = 0.80;
/// Every `ORACLE_STRIDE`-th tree of a forest is retrained single-threaded
/// and compared (all of them would double the run).
const ORACLE_STRIDE: usize = 5;
/// How far below the exact tree's held-out accuracy the histogram tree may
/// fall (the bound of `core/tests/hist_equiv.rs`).
const HIST_ACCURACY_SLACK: f64 = 0.05;

/// The sizes a workload runs at. `scale` 1.0 is the gated size; smaller
/// scales shrink row and request counts (the smoke tests use 0.05).
#[derive(Debug, Clone, PartialEq, tsjson::Serialize)]
pub struct Sizes {
    pub scale: f64,
    /// Seed of the fixed population table (and of the job). `--seed` only
    /// draws which of its rows are trained on: the planted concept decides
    /// the trees' shape and so their cost, and a concept that changed with
    /// the seed moved `op_s` by up to 40 % between seeds (README, "Sizing
    /// study").
    pub population_seed: u64,
    /// Training rows.
    pub rows: usize,
    /// Held-out rows: quality checks on every workload, the scored and
    /// requested table of the serving ones.
    pub holdout_rows: usize,
    pub numeric: usize,
    pub categorical: usize,
    pub cat_cardinality: u32,
    /// Depth of the planted concept tree.
    pub concept_depth: u32,
    /// Hidden factors the columns are noisy proxies of (0 = the concept
    /// reads the columns themselves). The forest tables use them: with
    /// sqrt(m) columns per tree, a forest needs redundant features.
    pub latent: usize,
    /// 0 = regression.
    pub classes: u32,
    pub dmax: u32,
    /// Trees of the forest, boosting rounds, or 1.
    pub trees: usize,
    pub tau_d: u64,
    pub tau_dfs: u64,
    pub replication: usize,
    /// Bulk scoring passes per `serve_bulk` operation.
    pub bulk_passes: usize,
    /// Requests per `serve_requests` operation.
    pub requests: usize,
}

impl Sizes {
    pub fn of(w: Workload, scale: f64) -> Sizes {
        // The floor keeps a 1024-row batch in every held-out table.
        let rows = |n: usize| ((n as f64 * scale) as usize).max(1_024);
        let base = Sizes {
            scale,
            population_seed: 1,
            rows: 0,
            holdout_rows: 0,
            numeric: 0,
            categorical: 0,
            cat_cardinality: 12,
            concept_depth: 8,
            latent: 0,
            classes: 0,
            dmax: 0,
            trees: 1,
            tau_d: 0,
            tau_dfs: 0,
            replication: 1,
            bulk_passes: 4,
            requests: rows(100_000),
        };
        match w {
            Workload::ColtaskExact | Workload::ColtaskHist => Sizes {
                rows: rows(200_000),
                holdout_rows: rows(20_000),
                numeric: 16,
                categorical: 4,
                classes: 4,
                dmax: 8,
                tau_d: (1_000.0 * scale).max(20.0) as u64,
                tau_dfs: (16_000.0 * scale).max(320.0) as u64,
                ..base
            },
            Workload::SubtreeForest | Workload::ServeBulk | Workload::ServeRequests => {
                let train = rows(20_000);
                Sizes {
                    population_seed: 16,
                    rows: train,
                    holdout_rows: if w.serves() {
                        rows(100_000)
                    } else {
                        rows(5_000)
                    },
                    numeric: 24,
                    categorical: 6,
                    concept_depth: 6,
                    latent: 5,
                    classes: 3,
                    dmax: 10,
                    trees: 40,
                    // Every tree is one subtree-task from its root.
                    tau_d: train as u64,
                    tau_dfs: train as u64,
                    replication: 2,
                    ..base
                }
            }
            Workload::BoostRounds => Sizes {
                population_seed: 13,
                rows: rows(30_000),
                holdout_rows: rows(5_000),
                numeric: 12,
                categorical: 2,
                classes: 0,
                dmax: 5,
                trees: 30,
                tau_d: (2_000.0 * scale).max(40.0) as u64,
                tau_dfs: (16_000.0 * scale).max(320.0) as u64,
                ..base
            },
        }
    }

    fn task(&self) -> Task {
        match self.classes {
            0 => Task::Regression,
            n_classes => Task::Classification { n_classes },
        }
    }

    fn synth(&self) -> SynthSpec {
        SynthSpec {
            rows: self.rows + self.holdout_rows,
            numeric: self.numeric,
            categorical: self.categorical,
            cat_cardinality: self.cat_cardinality,
            task: self.task(),
            missing_rate: 0.0,
            noise: 0.05,
            concept_depth: self.concept_depth,
            latent: self.latent,
            seed: self.population_seed,
        }
    }
}

/// The cluster shape of every workload: two workers with one comper each
/// (two compute threads = the sandbox's `nproc`), instant link, no modeled
/// compute. No fault is injected, so no worker may be declared dead: with
/// the default 500 ms lease a starved heartbeat thread got a healthy worker
/// suspected once in some 2 000 jobs on the sandbox, which fails the job at
/// replication 1 and re-replicates inside the timed region at 2.
fn cluster_config(w: Workload, sizes: &Sizes, obs: ObsConfig) -> ClusterConfig {
    ClusterConfig {
        n_workers: 2,
        compers_per_worker: 1,
        replication: sizes.replication,
        tau_d: sizes.tau_d,
        tau_dfs: sizes.tau_dfs,
        net: NetModel::instant(),
        work_ns_per_unit: 0,
        heartbeat_miss_threshold: u32::MAX,
        obs,
        splitter: match w {
            Workload::ColtaskHist => Splitter::Histogram {
                bins: HIST_BINS,
                vote_k: 2,
            },
            _ => Splitter::Exact,
        },
        ..ClusterConfig::default()
    }
}

fn job_spec(w: Workload, sizes: &Sizes) -> JobSpec {
    let spec = match w {
        Workload::ColtaskExact | Workload::ColtaskHist => JobSpec::decision_tree(sizes.task()),
        _ => JobSpec::random_forest(sizes.task(), sizes.trees),
    };
    spec.with_dmax(sizes.dmax).with_seed(sizes.population_seed)
}

fn gbt_config(sizes: &Sizes) -> GbtConfig {
    GbtConfig::for_task(Task::Regression)
        .with_rounds(sizes.trees)
        .with_dmax(sizes.dmax)
}

/// The request tier's settings: 100 k qps Poisson on the virtual clock
/// against the default `ServiceModel`, so nothing is shed. The stream is
/// a closed loop in wall time — the simulation advances as fast as the
/// engine scores.
const ARRIVALS: ArrivalPlan = ArrivalPlan::Poisson { qps: 100_000.0 };

fn front_config() -> FrontConfig {
    FrontConfig {
        latency_budget: Duration::from_micros(1_500),
        min_batch: 1,
        max_batch: 32,
        queue_cap: 128,
        adaptive_batch: true,
        service: ServiceModel::default(),
    }
}

/// The seeded input of a workload: `seed` draws the training rows from the
/// workload's fixed population; the rest are held out.
pub fn input(sizes: &Sizes, seed: u64, spans: &mut Spans) -> (DataTable, DataTable) {
    let (population, _) = spans.time("datatable.generate", |_| generate(&sizes.synth()));
    // `train_test_split` takes ceil(fraction * rows) rows.
    let fraction = (sizes.rows as f64 - 0.5) / population.n_rows() as f64;
    spans
        .time("datatable.split", |_| {
            population.train_test_split(fraction, seed)
        })
        .0
}

/// Compiles the served forest for single-threaded scoring.
pub fn compile(forest: &ForestModel, stats: Option<Arc<ServeStats>>) -> CompiledModel {
    let compiled =
        CompiledModel::from_forest(forest).with_options(ServeOptions::default().with_threads(1));
    match stats {
        Some(s) => compiled.with_stats(s),
        None => compiled,
    }
}

/// A trained model of any workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Model {
    Tree(DecisionTreeModel),
    Forest(ForestModel),
    Gbt(GbtModel),
}

impl Model {
    /// Node order inside a tree depends on result arrival; the canonical
    /// order does not, so models are compared in it.
    fn from_job(result: JobResult) -> Result<Model, String> {
        match result {
            JobResult::Tree(t) => Ok(Model::Tree(t.canonicalize())),
            JobResult::Forest(f) => Ok(Model::Forest(ForestModel::new(
                f.trees
                    .iter()
                    .map(DecisionTreeModel::canonicalize)
                    .collect(),
                f.task,
            ))),
            JobResult::Failed(e) => Err(format!("job failed: {e}")),
        }
    }
}

/// What serving needs once a model is trained and published.
pub struct Serving {
    pub forest: ForestModel,
    pub registry: Arc<ModelRegistry>,
    pub arrivals: Vec<Arrival>,
}

/// What the operations of a workload run on.
pub enum System {
    Training(Box<Cluster>),
    Serving(Serving),
}

/// A system brought to "ready for the first operation".
pub struct Ready {
    pub train: DataTable,
    pub holdout: Arc<DataTable>,
    pub system: System,
}

impl Ready {
    /// The published model and the table it scores, on a serving workload.
    pub fn published(&self) -> Option<(&ForestModel, &DataTable)> {
        match &self.system {
            System::Training(_) => None,
            System::Serving(serving) => Some((&serving.forest, &self.holdout)),
        }
    }

    /// Stops the cluster's threads, if one is still up.
    pub fn teardown(self) {
        if let System::Training(cluster) = self.system {
            cluster.shutdown();
        }
    }
}

/// Compiles and publishes `forest` and generates the arrival stream over
/// `table`.
fn publish(
    forest: ForestModel,
    table: &DataTable,
    sizes: &Sizes,
    seed: u64,
    stats: Option<Arc<ServeStats>>,
    spans: &mut Spans,
) -> Serving {
    let (compiled, _) = spans.time("serve.compile", |_| compile(&forest, stats));
    Serving {
        forest,
        registry: Arc::new(ModelRegistry::new(compiled)),
        arrivals: ARRIVALS.generate(sizes.requests, table.n_rows() as u32, 16, seed),
    }
}

/// Launches the workload's cluster over its training table. With `obs`
/// enabled the cluster records its task-lifecycle events (only the traced
/// run does that).
pub fn launch(
    w: Workload,
    sizes: &Sizes,
    train: &DataTable,
    obs: ObsConfig,
    spans: &mut Spans,
) -> Cluster {
    let cfg = cluster_config(w, sizes, obs);
    spans.time("core.launch", |_| Cluster::launch(cfg, train)).0
}

/// Generates the input and brings the system to "ready for the first
/// operation": a launched cluster, or for the serving workloads a trained,
/// compiled and published forest with its arrival stream. `stats` collects
/// the scoring engine's batch timings (only the traced run attaches them).
pub fn setup(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    stats: Option<Arc<ServeStats>>,
    spans: &mut Spans,
) -> Ready {
    let (train, holdout) = input(sizes, seed, spans);
    let cluster = launch(w, sizes, &train, ObsConfig::default(), spans);
    let system = if w.serves() {
        let (output, _) = train_op(w, sizes, &cluster, &train, spans);
        cluster.shutdown();
        let Output::Model(Model::Forest(forest)) = output else {
            panic!("the set-up's forest job failed");
        };
        System::Serving(publish(forest, &holdout, sizes, seed, stats, spans))
    } else {
        System::Training(Box::new(cluster))
    };
    Ready {
        train,
        holdout: Arc::new(holdout),
        system,
    }
}

/// What one operation produced, for the checker.
pub enum Output {
    Model(Model),
    JobFailed(String),
    /// The labels of each bulk pass.
    Labels(Vec<Vec<u32>>),
    Responses(FrontReport),
}

/// One training job of the workload (for the serving workloads: the forest
/// job of their set-up). Returns the model and the job's wall seconds.
pub fn train_op(
    w: Workload,
    sizes: &Sizes,
    cluster: &Cluster,
    train: &DataTable,
    spans: &mut Spans,
) -> (Output, f64) {
    if w == Workload::BoostRounds {
        let (model, secs) = spans.time("core.train_gbt_on", |_| {
            train_gbt_on(cluster, train, gbt_config(sizes))
        });
        return (Output::Model(Model::Gbt(model)), secs);
    }
    let spec = job_spec(w, sizes);
    let (result, secs) = spans.time("core.train", |_| cluster.train(spec));
    let output = match Model::from_job(result) {
        Ok(model) => Output::Model(model),
        Err(e) => Output::JobFailed(e),
    };
    (output, secs)
}

/// One operation. Returns its output and the wall seconds of the timed
/// calls alone (output handling between them is outside the timers).
pub fn op(w: Workload, sizes: &Sizes, ready: &Ready, spans: &mut Spans) -> (Output, f64) {
    match &ready.system {
        System::Training(cluster) => train_op(w, sizes, cluster, &ready.train, spans),
        System::Serving(serving) if w == Workload::ServeBulk => {
            let (_, model) = serving.registry.active();
            let mut total = 0.0;
            let labels = (0..sizes.bulk_passes)
                .map(|_| {
                    let (labels, secs) = spans.time("serve.predict_labels", |_| {
                        model.predict_labels(&ready.holdout)
                    });
                    total += secs;
                    labels
                })
                .collect();
            (Output::Labels(labels), total)
        }
        System::Serving(serving) => {
            let (report, secs) = request_stream(serving, &ready.holdout, spans);
            (Output::Responses(report), secs)
        }
    }
}

/// Runs the arrival stream through a fresh front server (one server
/// supports one run).
pub fn request_stream(
    serving: &Serving,
    table: &Arc<DataTable>,
    spans: &mut Spans,
) -> (FrontReport, f64) {
    let mut server = FrontServer::new(
        front_config(),
        Arc::clone(&serving.registry),
        Arc::clone(table),
    );
    spans.time("front.run", |_| server.run(&serving.arrivals))
}

/// Checks every operation's output and, at the end, the model itself.
pub struct Checker {
    workload: Workload,
    /// The first operation's model; later ones must equal it.
    first: Option<Model>,
    /// Per-row reference traversal of the held-out table (serving).
    reference: Vec<u32>,
    requests: usize,
}

impl Checker {
    /// `published` is the forest the serving operations score with and the
    /// table they score: their outputs are checked against its per-row
    /// reference traversal.
    pub fn new(
        w: Workload,
        sizes: &Sizes,
        published: Option<(&ForestModel, &DataTable)>,
    ) -> Checker {
        Checker {
            workload: w,
            first: published.map(|(forest, _)| Model::Forest(forest.clone())),
            reference: published
                .map(|(forest, table)| forest.predict_labels_reference(table))
                .unwrap_or_default(),
            requests: sizes.requests,
        }
    }

    /// Whether this operation's output is right. A failed operation is
    /// reported on stderr with its reason.
    pub fn op_ok(&mut self, output: Output) -> bool {
        let verdict = match output {
            Output::JobFailed(e) => Err(e),
            Output::Model(model) => match &self.first {
                None => {
                    self.first = Some(model);
                    Ok(())
                }
                Some(first) if *first == model => Ok(()),
                Some(_) => Err("model differs from the first operation's".to_string()),
            },
            Output::Labels(passes) => match passes.iter().position(|p| *p != self.reference) {
                None => Ok(()),
                Some(i) => Err(format!(
                    "bulk pass {i} differs from the reference traversal"
                )),
            },
            Output::Responses(report) => self.responses_ok(&report),
        };
        if let Err(e) = &verdict {
            eprintln!("ledger: {}: operation failed: {e}", self.workload.name());
        }
        verdict.is_ok()
    }

    /// Every request answered, none shed, each response equal to scoring
    /// its row alone under the epoch it is tagged with (one epoch here:
    /// nothing is swapped).
    fn responses_ok(&self, report: &FrontReport) -> Result<(), String> {
        if !report.sheds.is_empty() || report.responses.len() != self.requests {
            return Err(format!(
                "{} answered and {} shed of {} requests",
                report.responses.len(),
                report.sheds.len(),
                self.requests
            ));
        }
        let epoch = report.responses[0].epoch;
        match report
            .responses
            .iter()
            .find(|r| r.epoch != epoch || r.score != Score::Label(self.reference[r.row as usize]))
        {
            None => Ok(()),
            Some(r) => Err(format!("response {} differs from solo scoring", r.id)),
        }
    }

    /// The model-level checks, once per run: trees equal the
    /// single-threaded trainer's, and the model reaches its held-out floor.
    pub fn model_ok(
        &self,
        sizes: &Sizes,
        train: &DataTable,
        holdout: &DataTable,
    ) -> Result<String, String> {
        let Some(model) = &self.first else {
            return Err("no operation produced a model".to_string());
        };
        let class_truth = || holdout.labels().as_class().expect("classification table");
        match model {
            Model::Tree(tree) => {
                let spec = &job_spec(self.workload, sizes).expand(train.n_attrs())[0];
                let oracle = local_tree(train, spec);
                let acc = accuracy(&tree.predict_labels(holdout), class_truth());
                if self.workload == Workload::ColtaskExact {
                    return if *tree == oracle {
                        Ok(format!(
                            "equals ts_tree::train_tree; held-out accuracy {acc:.4}"
                        ))
                    } else {
                        Err("cluster tree differs from ts_tree::train_tree".to_string())
                    };
                }
                let exact = accuracy(&oracle.predict_labels(holdout), class_truth());
                if acc >= exact - HIST_ACCURACY_SLACK {
                    Ok(format!("held-out accuracy {acc:.4} vs exact {exact:.4}"))
                } else {
                    Err(format!("held-out accuracy {acc:.4} is below exact {exact:.4} - {HIST_ACCURACY_SLACK}"))
                }
            }
            Model::Forest(forest) => {
                let specs = job_spec(Workload::SubtreeForest, sizes).expand(train.n_attrs());
                for (i, spec) in specs.iter().enumerate().step_by(ORACLE_STRIDE) {
                    if forest.trees[i] != local_tree(train, spec) {
                        return Err(format!("tree {i} differs from ts_tree::train_tree"));
                    }
                }
                let truth = class_truth();
                let mut counts = vec![0usize; sizes.classes as usize];
                truth.iter().for_each(|&y| counts[y as usize] += 1);
                let majority = counts.into_iter().max().unwrap_or(0) as f64 / truth.len() as f64;
                let acc = accuracy(&forest.predict_labels(holdout), truth);
                if acc >= majority + FOREST_LIFT_FLOOR {
                    Ok(format!("every {ORACLE_STRIDE}th tree equals ts_tree::train_tree; held-out accuracy {acc:.4} vs majority class {majority:.4} (floor +{FOREST_LIFT_FLOOR})"))
                } else {
                    Err(format!("held-out accuracy {acc:.4} is below majority class {majority:.4} + {FOREST_LIFT_FLOOR}"))
                }
            }
            Model::Gbt(gbt) => {
                // Round 0 fits the residuals of the base margin; its tree
                // has a single-threaded oracle.
                let labels = train.labels().as_real().expect("regression table");
                let residuals = labels.iter().map(|y| y - gbt.base).collect();
                let view = treeserver::gbt::regression_view(train, residuals);
                if gbt.trees[0] != boosted_tree(sizes, &view) {
                    return Err("round 0's tree differs from ts_tree::train_tree".to_string());
                }
                let truth = holdout.labels().as_real().expect("regression table");
                let mean = truth.iter().sum::<f64>() / truth.len() as f64;
                let share = rmse(&gbt.predict_values(holdout), truth)
                    / rmse(&vec![mean; truth.len()], truth);
                if share <= BOOST_RMSE_SHARE_CEILING {
                    Ok(format!("round 0 equals ts_tree::train_tree; held-out RMSE {share:.4} of the mean predictor's (ceiling {BOOST_RMSE_SHARE_CEILING})"))
                } else {
                    Err(format!("held-out RMSE is {share:.4} of the mean predictor's, above {BOOST_RMSE_SHARE_CEILING}"))
                }
            }
        }
    }
}

/// One tree of a job trained by the single-threaded exact trainer on the
/// same table, columns and parameters: the oracle the cluster's trees must
/// equal (the guarantee of `core/tests/golden.rs`).
fn local_tree(train: &DataTable, spec: &treeserver::job::TreeSpec) -> DecisionTreeModel {
    let params = TrainParams {
        impurity: spec.params.impurity,
        dmax: spec.params.dmax,
        tau_leaf: spec.params.tau_leaf,
        ..TrainParams::default()
    };
    train_tree(train, &spec.candidates, &params, spec.seed).canonicalize()
}

/// One boosting round's regression tree over `view`, trained locally.
fn boosted_tree(sizes: &Sizes, view: &DataTable) -> DecisionTreeModel {
    let cfg = gbt_config(sizes);
    let params = TrainParams {
        dmax: cfg.dmax,
        tau_leaf: cfg.tau_leaf,
        ..TrainParams::for_task(Task::Regression)
    };
    let all: Vec<usize> = (0..view.n_attrs()).collect();
    train_tree(view, &all, &params, cfg.seed).canonicalize()
}

/// `ts_tree::train_tree` on the first tree of the workload's job, with
/// that tree's columns (sqrt(m) of them for the forest): the tree layer's
/// probe.
pub fn reference_tree(w: Workload, sizes: &Sizes, train: &DataTable) -> DecisionTreeModel {
    local_tree(train, &job_spec(w, sizes).expand(train.n_attrs())[0])
}
