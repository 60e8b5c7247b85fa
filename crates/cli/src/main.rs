//! `treeserver` — command-line front-end for the TreeServer reproduction.
//!
//! Five commands: `train` a model from a CSV file on a simulated cluster,
//! `predict` with it on the compiled engine, `serve` it a simulated request
//! stream, and inspect it with `importance` and `show`. Each option is one
//! row of [`OPTIONS`] — the commands it applies to, its kind and range, its
//! default, what it needs and its help — and [`Opts::parse`], the defaults
//! the commands read and the usage printed on an error all come from there.
//!
//! Argument parsing is deliberately dependency-free.

use std::collections::HashMap;
use std::ops::Bound::{self, Excluded, Included};
use std::ops::RangeBounds;
use std::process::ExitCode;
use std::str::FromStr;
use treeserver::{train_gbt_on, Cluster, ClusterConfig, GbtConfig, JobResult, JobSpec};
use ts_datatable::csv::{parse_csv, TaskKind};
use ts_datatable::metrics::{accuracy, rmse};
use ts_datatable::{DataTable, Labels, Task};
use ts_serve::ServeOptions;
use Kind::{Choice, Flag, Float, Int, List, Text};

mod model_file;
use model_file::ModelFile;

/// A command's body.
type Body = fn(&Opts) -> Result<(), String>;

/// The commands, each with its body.
const COMMANDS: [(&str, Body); 5] = [
    ("train", cmd_train),
    ("predict", cmd_predict),
    ("serve", cmd_serve),
    ("importance", cmd_importance),
    ("show", cmd_show),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args
        .first()
        .and_then(|c| COMMANDS.iter().find(|(name, _)| name == c));
    let Some(&(cmd, body)) = command else {
        if let Some(other) = args.first() {
            eprintln!("error: unknown command {other:?}\n");
        }
        eprintln!("{}", usage(None));
        return ExitCode::FAILURE;
    };
    let result = match Opts::parse(cmd, &args[1..]) {
        Ok(opts) => body(&opts),
        Err(e) => Err(format!("{e}\n\n{}", usage(Some(cmd)))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What an option's value must be. A metavariable names the value in the
/// usage text.
enum Kind {
    /// Present or not; takes no value.
    Flag,
    /// Any text — a file or a column name.
    Text(&'static str),
    /// One of the choices; `a|b` spells one choice two ways, and the
    /// commands read the first.
    Choice(&'static [&'static str]),
    /// An integer in the inclusive range.
    Int(&'static str, u64, u64),
    /// A number in the range.
    Float(&'static str, Bound<f64>, Bound<f64>),
    /// A comma-separated list of values of the inner kind.
    List(&'static Kind),
}

/// What a command reads when an option is not given.
enum Or {
    /// Nothing: the command cannot run without the option.
    Required,
    /// Nothing: the option is off.
    Absent,
    /// A value the command works out from other options, as described.
    Derived(&'static str),
    /// A number; integer options read it as their integer type.
    Num(f64),
    Text(&'static str),
}

/// One row of [`OPTIONS`]: an option's meaning on the commands it lists.
/// `needs` is `(option, value)`: this option is taken only when that option
/// is given — with that value, unless the value is empty.
struct Opt {
    cmds: Cmds,
    name: &'static str,
    kind: Kind,
    or: Or,
    needs: Option<(&'static str, &'static str)>,
    help: &'static str,
}

/// A row with no prerequisite.
const fn opt(cmds: Cmds, name: &'static str, kind: Kind, or: Or, help: &'static str) -> Opt {
    Opt {
        cmds,
        name,
        kind,
        or,
        needs: None,
        help,
    }
}

impl Opt {
    /// The row, taken only when `--{option}` is given, and with `value`
    /// unless that is empty.
    const fn needs(self, option: &'static str, value: &'static str) -> Opt {
        Opt {
            needs: Some((option, value)),
            ..self
        }
    }
}

type Cmds = &'static [&'static str];
const DATA: Cmds = &["train", "predict", "serve"];
const TRAIN: Cmds = &["train"];
const PREDICT: Cmds = &["predict"];
const SERVE: Cmds = &["serve"];
const ANY: u64 = usize::MAX as u64;
const U32: u64 = u32::MAX as u64;
const INF: Bound<f64> = Excluded(f64::INFINITY);

/// Every option of every command: the commands, the name, the kind, the
/// default and the help. A name whose meaning differs by command has one
/// row per meaning.
#[rustfmt::skip]
const OPTIONS: &[Opt] = &[
    opt(DATA, "csv", Text("FILE"), Or::Required, "the CSV file: a header row, then one row per example"),
    opt(DATA, "target", Text("COL"), Or::Required, "the column to predict"),
    opt(DATA, "task", Choice(&["class|classification", "reg|regression"]), Or::Required,
        "classification or regression"),
    opt(TRAIN, "model", Choice(&["dt", "rf", "etc", "gbt"]), Or::Text("dt"),
        "a decision tree, random forest, extra-trees or gradient-boosted trees (2-class or regression)"),
    opt(&["predict", "serve", "importance", "show"], "model", Text("FILE"), Or::Required,
        "a model file that train wrote"),
    opt(TRAIN, "trees", Int("N", 1, ANY), Or::Num(20.0), "trees of a forest, or rounds of gbt"),
    opt(TRAIN, "dmax", Int("D", 0, U32), Or::Num(10.0), "maximum tree depth (gbt caps it at 8)"),
    opt(TRAIN, "workers", Int("W", 1, ANY), Or::Num(4.0), "workers of the simulated cluster"),
    opt(TRAIN, "compers", Int("C", 1, ANY), Or::Num(2.0), "compers (task threads) per worker"),
    opt(&["train", "serve"], "seed", Int("S", 0, u64::MAX), Or::Num(0.0),
        "seed of the job (train) or of the request stream and its swaps (serve)"),
    opt(TRAIN, "out", Text("FILE"), Or::Text("model.json"), "where the model is written"),
    opt(PREDICT, "out", Text("FILE"), Or::Derived("stdout"), "where the predictions are written"),
    opt(TRAIN, "splitter", Choice(&["exact", "hist|histogram"]), Or::Text("exact"),
        "exact sorted-scan splits, or histogram splits with top-k column voting: a far leaner \
         master-worker split plane for a bounded accuracy loss (docs/HISTOGRAM.md)"),
    opt(TRAIN, "hist-bins", Int("N", 2, 65_535), Or::Num(64.0),
        "bins per numeric column; lossless when a column has at most N distinct values")
        .needs("splitter", "hist"),
    opt(TRAIN, "vote-k", Int("K", 1, ANY), Or::Num(2.0), "candidates each worker nominates per task")
        .needs("splitter", "hist"),
    opt(TRAIN, "drop-prob", Float("P", Included(0.0), Excluded(1.0)), Or::Num(0.0),
        "drop each transmission with probability P; the sender sends it again 10 ms later"),
    opt(TRAIN, "delay-prob", Float("P", Included(0.0), Included(1.0)), Or::Num(0.0),
        "delay each message with probability P, by up to 5 ms"),
    opt(TRAIN, "dup-prob", Float("P", Included(0.0), Included(1.0)), Or::Num(0.0),
        "duplicate each message with probability P; both copies are charged, one is delivered"),
    opt(TRAIN, "fault-seed", Int("S", 0, u64::MAX), Or::Derived("--seed"), "seed of the fault plan"),
    opt(TRAIN, "join-at", Int("MS", 0, u64::MAX), Or::Absent,
        "script workers joining MS milliseconds into training (docs/ELASTICITY.md)"),
    opt(TRAIN, "join-count", Int("N", 1, ANY), Or::Num(1.0), "how many workers join")
        .needs("join-at", ""),
    opt(TRAIN, "preempt-at", Int("MS", 0, u64::MAX), Or::Absent,
        "script a spot preemption of the highest-numbered initial worker MS milliseconds in: \
         it drains and departs instead of crashing"),
    opt(TRAIN, "preempt-grace-ms", Int("MS", 1, u64::MAX), Or::Num(500.0),
        "grace window of the drain; a drain that overruns it escalates to crash recovery")
        .needs("preempt-at", ""),
    opt(TRAIN, "work-scale", List(&Float("F", Excluded(0.0), INF)), Or::Absent,
        "compute-speed multiplier of each initial worker (> 1 slows it down)"),
    opt(TRAIN, "trace-out", Text("FILE"), Or::Absent,
        "write a Chrome trace-event JSON of the task lifecycle (Perfetto, chrome://tracing)"),
    opt(TRAIN, "trace-report", Text("FILE"), Or::Absent,
        "write the last job's TraceReport JSON: critical path, phase totals, span latencies"),
    opt(TRAIN, "metrics-json", Text("FILE"), Or::Absent, "write the metrics registry as JSON"),
    opt(TRAIN, "metrics-prom", Text("FILE"), Or::Absent, "write the metrics registry in Prometheus text"),
    opt(TRAIN, "quiet", Flag, Or::Absent, "print errors only"),
    opt(TRAIN, "verbose", Flag, Or::Absent,
        "also print event totals and the last job's column- and subtree-task latencies"),
    opt(PREDICT, "threads", Int("N", 0, ANY), Or::Num(0.0), "threads of the batch evaluator (0: all cores)"),
    opt(PREDICT, "block-rows", Int("N", 1, ANY), Or::Num(ts_tree::compiled::DEFAULT_BLOCK_ROWS as f64),
        "rows per evaluation block"),
    opt(PREDICT, "reference", Flag, Or::Absent,
        "score on the per-row reference traversal (bit-identical, much slower)"),
    opt(PREDICT, "serve-metrics", Text("FILE"), Or::Absent, "write the serving counters as JSON"),
    opt(SERVE, "requests", Int("N", 1, ANY), Or::Num(5_000.0), "simulated single-row requests"),
    opt(SERVE, "qps", Float("Q", Excluded(0.0), INF), Or::Num(100_000.0), "mean arrival rate"),
    opt(SERVE, "arrival", Choice(&["poisson", "bursty"]), Or::Text("poisson"),
        "Poisson or ON/OFF arrivals on a virtual clock: a seed replays byte for byte (docs/SERVING.md)"),
    opt(SERVE, "burst-on-qps", Float("Q", Excluded(0.0), INF), Or::Derived("3x --qps"),
        "rate inside a burst").needs("arrival", "bursty"),
    opt(SERVE, "burst-off-qps", Float("Q", Excluded(0.0), INF), Or::Derived("--qps / 10"),
        "rate between bursts").needs("arrival", "bursty"),
    opt(SERVE, "burst-on-us", Int("US", 1, u64::MAX), Or::Num(1_000.0), "length of a burst")
        .needs("arrival", "bursty"),
    opt(SERVE, "burst-off-us", Int("US", 1, u64::MAX), Or::Num(2_000.0), "gap between bursts")
        .needs("arrival", "bursty"),
    opt(SERVE, "latency-budget-us", Int("US", 1, u64::MAX), Or::Num(2_000.0),
        "completion budget per request, enforced by admission control"),
    opt(SERVE, "max-batch", Int("N", 1, ANY), Or::Num(64.0), "micro-batch row cap"),
    opt(SERVE, "queue-cap", Int("N", 1, ANY), Or::Num(256.0), "admission queue bound; beyond it requests shed"),
    opt(SERVE, "fixed-batch", Flag, Or::Absent, "turn adaptive batch sizing off"),
    opt(SERVE, "conns", Int("N", 1, U32), Or::Num(8.0), "simulated client connections"),
    opt(SERVE, "swap-at", List(&Int("US", 0, u64::MAX)), Or::Absent,
        "hot-swap the model at these virtual times to one retrained in the background"),
    opt(SERVE, "report", Text("FILE"), Or::Absent, "write the serving report as JSON"),
    opt(&["importance"], "top", Int("K", 0, ANY), Or::Num(10.0), "how many attributes to list"),
    opt(&["show"], "tree", Int("N", 0, ANY), Or::Num(0.0), "index of the tree to print"),
];

/// `cmd`'s row for `--name`.
fn row(cmd: &str, name: &str) -> Option<&'static Opt> {
    OPTIONS
        .iter()
        .find(|o| o.name == name && o.cmds.contains(&cmd))
}

impl Kind {
    /// `raw` as the commands read it — a choice in its first spelling — if
    /// it is a value of this kind.
    fn read<'a>(&self, raw: &'a str) -> Option<&'a str> {
        let fits = match *self {
            Flag => false,
            Text(_) => true,
            Choice(choices) => {
                let choice = choices.iter().find(|c| c.split('|').any(|s| s == raw));
                return choice.map(|c| first(c));
            }
            Int(_, lo, hi) => within(raw, lo..=hi).is_some(),
            Float(_, lo, hi) => within(raw, (lo, hi)).is_some(),
            List(item) => raw.split(',').all(|t| item.read(t.trim()).is_some()),
        };
        fits.then_some(raw)
    }

    /// The value's name in the usage text.
    fn arg(&self) -> String {
        match *self {
            Flag => String::new(),
            Choice(choices) => {
                let firsts: Vec<&str> = choices.iter().map(|c| first(c)).collect();
                firsts.join("|")
            }
            Text(meta) | Int(meta, ..) | Float(meta, ..) => meta.to_string(),
            List(item) => format!("{0}[,{0}...]", item.arg()),
        }
    }

    /// What a value must be, for errors and the usage text.
    fn domain(&self) -> String {
        match *self {
            Flag | Text(_) | Choice(_) => self.arg(),
            Int(_, lo, u64::MAX) => format!("an integer in [{lo}, inf)"),
            Int(_, lo, hi) => format!("an integer in [{lo}, {hi}]"),
            Float(_, lo, hi) => match (lo, hi) {
                (Included(lo), Excluded(hi)) => format!("in [{lo}, {hi})"),
                (Included(lo), Included(hi)) => format!("in [{lo}, {hi}]"),
                (Excluded(lo), Excluded(hi)) => format!("in ({lo}, {hi})"),
                (lo, hi) => format!("in {lo:?}..{hi:?}"),
            },
            List(item) => format!("a comma-separated list, each {}", item.domain()),
        }
    }
}

/// The first spelling of a choice.
fn first(choice: &'static str) -> &'static str {
    choice.split('|').next().unwrap_or(choice)
}

/// The number `raw` spells, if it is in `range`.
fn within<T: FromStr + PartialOrd>(raw: &str, range: impl RangeBounds<T>) -> Option<T> {
    raw.parse().ok().filter(|v| range.contains(v))
}

/// The options given to one command, checked against its rows of
/// [`OPTIONS`]. The accessors read a row's default when the option is not
/// given; asking for an option the command has no row for is a bug.
struct Opts<'a> {
    cmd: &'static str,
    /// The value of each option given, as [`Kind::read`] keeps it; `""` for
    /// a flag.
    given: HashMap<&'static str, &'a str>,
}

impl<'a> Opts<'a> {
    /// Parses `args` for `cmd`, rejecting an option the command does not
    /// take, a value of the wrong kind or out of range, a missing required
    /// option and an option given without its prerequisite.
    fn parse(cmd: &'static str, args: &'a [String]) -> Result<Self, String> {
        let mut given = HashMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("expected --option, got {arg:?}"));
            };
            let opt =
                row(cmd, name).ok_or_else(|| match OPTIONS.iter().any(|o| o.name == name) {
                    true => format!("{cmd} takes no --{name}"),
                    false => format!("unknown option --{name}"),
                })?;
            let value = match opt.kind {
                Flag => "",
                ref kind => {
                    let raw = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    let domain = kind.domain();
                    kind.read(raw)
                        .ok_or_else(|| format!("--{name} must be {domain}, got {raw:?}"))?
                }
            };
            given.insert(opt.name, value);
        }
        let opts = Opts { cmd, given };
        for opt in OPTIONS.iter().filter(|o| o.cmds.contains(&cmd)) {
            let name = opt.name;
            if matches!(opt.or, Or::Required) && !opts.has(name) {
                return Err(format!("--{name} is required"));
            }
            if let (true, Some((other, value))) = (opts.has(name), opt.needs) {
                let met = match value {
                    "" => opts.has(other),
                    _ => opts.path(other) == Some(value),
                };
                if !met {
                    return Err(format!("--{name} needs --{other} {value}")
                        .trim_end()
                        .into());
                }
            }
        }
        Ok(opts)
    }

    /// Whether the option was given (for a flag: whether it is on).
    fn has(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// What the command reads when the option is not given.
    fn default(&self, name: &str) -> &'static Or {
        let opt = row(self.cmd, name).unwrap_or_else(|| panic!("{} has no --{name}", self.cmd));
        &opt.or
    }

    /// A text or choice option: the value given, else the default.
    fn path(&self, name: &str) -> Option<&'a str> {
        let default = match *self.default(name) {
            Or::Text(s) => Some(s),
            _ => None,
        };
        self.given.get(name).copied().or(default)
    }

    /// A text or choice option that is required or has a default.
    fn text(&self, name: &str) -> &'a str {
        self.path(name)
            .unwrap_or_else(|| panic!("--{name} has no value"))
    }

    /// A number option that is given or has a default, as `T` (a type its
    /// range fits).
    fn num<T: FromStr>(&self, name: &str) -> T {
        let default = match *self.default(name) {
            Or::Num(v) => Some(v.to_string()),
            _ => None,
        };
        let raw = self.given.get(name).map(|v| v.to_string()).or(default);
        (raw.and_then(|raw| raw.parse().ok())).unwrap_or_else(|| panic!("--{name} has no value"))
    }

    /// A number option whose default the command works out: `derived`.
    fn num_or<T: FromStr>(&self, name: &str, derived: T) -> T {
        if self.has(name) {
            self.num(name)
        } else {
            derived
        }
    }

    /// The items of a list option; none when it is not given.
    fn items<T: FromStr>(&self, name: &str) -> Vec<T> {
        let list = self.given.get(name).copied().unwrap_or_default();
        list.split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect()
    }
}

/// The usage text, generated from [`OPTIONS`]: `cmd`'s when it is known,
/// every command's otherwise.
fn usage(cmd: Option<&str>) -> String {
    let cmds = match cmd {
        Some(cmd) => vec![cmd],
        None => COMMANDS.map(|(c, _)| c).to_vec(),
    };
    let mut out = String::from("usage:\n");
    for c in &cmds {
        out += &format!("  treeserver {c}");
        for o in OPTIONS.iter().filter(|o| o.cmds.contains(c)) {
            if let Or::Required = o.or {
                out += &format!(" --{} {}", o.name, o.kind.arg());
            }
        }
        out += " [options]\n";
    }
    out += "\noptions:\n";
    for o in OPTIONS
        .iter()
        .filter(|o| cmds.iter().any(|c| o.cmds.contains(c)))
    {
        let mut facts = Vec::new();
        if cmd.is_none() {
            facts.push(o.cmds.join(", "));
        }
        if matches!(o.kind, Kind::Int(..) | Kind::Float(..) | Kind::List(_)) {
            facts.push(o.kind.domain());
        }
        match o.or {
            Or::Required => facts.push("required".into()),
            Or::Absent => {}
            Or::Derived(s) | Or::Text(s) => facts.push(format!("default {s}")),
            Or::Num(v) => facts.push(format!("default {v}")),
        }
        if let Some((other, value)) = o.needs {
            facts.push(format!("needs --{other} {value}").trim_end().into());
        }
        let head = format!("--{} {}", o.name, o.kind.arg());
        out += &format!(
            "  {:26}  {}\n      {}\n",
            head.trim_end(),
            facts.join("; "),
            o.help
        );
    }
    out
}

/// Reads the file that `--{name}` names.
fn read(opts: &Opts, name: &str) -> Result<String, String> {
    let path = opts.text(name);
    std::fs::read_to_string(path).map_err(|e| format!("--{name} {path}: {e}"))
}

fn load_model(opts: &Opts) -> Result<ModelFile, String> {
    ModelFile::from_json(&read(opts, "model")?)
        .map_err(|e| format!("--model {}: {e}", opts.text("model")))
}

fn load_table(opts: &Opts) -> Result<DataTable, String> {
    let task = match opts.text("task") {
        "class" => TaskKind::Classification,
        _ => TaskKind::Regression,
    };
    parse_csv(&read(opts, "csv")?, opts.text("target"), task)
        .map_err(|e| format!("--csv {}: {e}", opts.text("csv")))
}

fn cluster_config(opts: &Opts, n_rows: usize) -> ClusterConfig {
    let workers = opts.num("workers");
    let splitter = match opts.text("splitter") {
        "hist" => treeserver::Splitter::Histogram {
            bins: opts.num("hist-bins"),
            vote_k: opts.num("vote-k"),
        },
        _ => treeserver::Splitter::Exact,
    };
    ClusterConfig {
        n_workers: workers,
        compers_per_worker: opts.num("compers"),
        splitter,
        replication: 2.min(workers),
        tau_d: (n_rows as u64 / 20).max(256),
        tau_dfs: (n_rows as u64 / 5).max(1_024),
        work_scale: opts.items("work-scale"),
        faults: fault_plan(opts, workers),
        ..Default::default()
    }
}

/// The seeded fault plan of the message-fault and membership options;
/// `None` when none is set.
fn fault_plan(opts: &Opts, workers: usize) -> Option<treeserver::FaultPlan> {
    use std::time::Duration;
    let [drop, delay, dup]: [f64; 3] = ["drop-prob", "delay-prob", "dup-prob"].map(|p| opts.num(p));
    let (join, preempt) = (opts.has("join-at"), opts.has("preempt-at"));
    if drop == 0.0 && delay == 0.0 && dup == 0.0 && !join && !preempt {
        return None;
    }
    let mut plan = treeserver::FaultPlan::new(opts.num_or("fault-seed", opts.num("seed")));
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
        let at = Duration::from_millis(opts.num("join-at"));
        plan = plan.with_worker_join(at, opts.num("join-count"));
    }
    if preempt {
        // The highest-numbered initial worker plays the preempted spot
        // instance; joiners (if any) occupy ids above it.
        plan = plan.with_preemption(
            Duration::from_millis(opts.num("preempt-at")),
            workers,
            Duration::from_millis(opts.num("preempt-grace-ms")),
        );
    }
    Some(plan)
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let (quiet, verbose) = (opts.has("quiet"), opts.has("verbose"));
    if quiet && verbose {
        return Err("--quiet and --verbose are mutually exclusive".into());
    }
    let workers: usize = opts.num("workers");
    let scales = opts.items::<f64>("work-scale").len();
    if scales > 0 && scales != workers {
        return Err(format!(
            "--work-scale names {scales} factors but --workers is {workers}"
        ));
    }
    if opts.has("preempt-at") && workers < 2 {
        return Err("--preempt-at needs at least 2 workers (the last one cannot leave)".into());
    }
    let kind = opts.text("model");
    let exports = ["trace-out", "trace-report", "metrics-json", "metrics-prom"];
    let [trace_out, trace_report, metrics_json, metrics_prom] = exports.map(|o| opts.path(o));

    let table = load_table(opts)?;
    let task = table.schema().task;
    let classes = match task {
        Task::Classification { n_classes } if kind == "gbt" => n_classes,
        _ => 2,
    };
    if classes != 2 {
        let what = "a 2-class or regression table";
        return Err(format!("--model gbt needs {what}, got {classes} classes"));
    }
    let (trees, dmax, seed): (_, u32, _) = (opts.num("trees"), opts.num("dmax"), opts.num("seed"));
    let mut cfg = cluster_config(opts, table.n_rows());
    if verbose || exports.iter().any(|o| opts.has(o)) {
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
        "gbt" => {
            let gbt_cfg = GbtConfig::for_task(task)
                .with_rounds(trees)
                .with_dmax(dmax.min(8));
            ModelFile::Gbt(train_gbt_on(&cluster, &table, gbt_cfg))
        }
        _ => {
            let spec = match kind {
                "dt" => JobSpec::decision_tree(task),
                "rf" => JobSpec::random_forest(task, trees),
                _ => JobSpec::extra_trees(task, trees),
            };
            match cluster.train(spec.with_dmax(dmax).with_seed(seed)) {
                JobResult::Tree(t) => ModelFile::Tree(t),
                JobResult::Forest(f) => ModelFile::Forest(f),
                JobResult::Failed(e) => return Err(format!("training failed: {e}")),
            }
        }
    };
    let elapsed = start.elapsed();

    // Export observability artifacts before tearing the cluster down.
    if let Some(rec) = cluster.obs() {
        if let Some(path) = trace_out {
            write_out(path, rec.chrome_trace_json(), "trace", quiet)?;
        }
        let report = (trace_report.is_some() || verbose)
            .then(|| rec.trace_report())
            .flatten();
        match (trace_report, &report) {
            (Some(path), Some(r)) => write_out(path, r.to_json(), "trace report", quiet)?,
            (Some(_), None) => {
                eprintln!("warning: no finished job span — trace report not written")
            }
            (None, _) => {}
        }
        if let Some(path) = metrics_json {
            write_out(path, rec.metrics_json(), "metrics", quiet)?;
        }
        if let Some(path) = metrics_prom {
            let text = rec.metrics().to_prometheus_text();
            write_out(path, text, "prometheus metrics", quiet)?;
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
        // Training-set fit as a quick sanity line.
        let compiled = model.compile();
        match table.labels() {
            Labels::Class(ys) => {
                let acc = accuracy(&compiled.predict_labels(&table), ys);
                eprintln!("training accuracy: {:.2}%", acc * 100.0);
            }
            Labels::Real(ys) => {
                let r = rmse(&compiled.predict_values(&table), ys);
                eprintln!("training RMSE: {r:.4}");
            }
        }
    }
    write_out(opts.text("out"), model.to_json(), "model", quiet)
}

/// Writes `text` to `path` and, unless `quiet`, says that `what` went there.
fn write_out(path: &str, text: impl AsRef<[u8]>, what: &str, quiet: bool) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    if !quiet {
        eprintln!("{what} written to {path}");
    }
    Ok(())
}

fn cmd_predict(opts: &Opts) -> Result<(), String> {
    let model = load_model(opts)?;
    let table = load_table(opts)?;
    let reference = opts.has("reference");

    let stats = std::sync::Arc::new(ts_serve::ServeStats::new());
    let serve_opts = ServeOptions::default()
        .with_threads(opts.num("threads"))
        .with_block_rows(opts.num("block-rows"));
    let compiled = model
        .compile()
        .with_options(serve_opts)
        .with_stats(std::sync::Arc::clone(&stats));

    let start = std::time::Instant::now();
    let lines: Vec<String> = match table.labels() {
        Labels::Class(ys) => {
            let pred = match reference {
                true => model.predict_labels_reference(&table),
                false => compiled.predict_labels(&table),
            };
            let acc = accuracy(&pred, ys) * 100.0;
            eprintln!("accuracy against the CSV's target column: {acc:.2}%");
            pred.iter().map(u32::to_string).collect()
        }
        Labels::Real(ys) => {
            let pred = match reference {
                true => model.predict_values_reference(&table),
                false => compiled.predict_values(&table),
            };
            eprintln!(
                "RMSE against the CSV's target column: {:.4}",
                rmse(&pred, ys)
            );
            pred.iter().map(f64::to_string).collect()
        }
    };
    let elapsed = start.elapsed();
    let rows = table.n_rows();
    let path_name = if reference { "reference" } else { "compiled" };
    eprintln!(
        "{rows} rows scored in {elapsed:.2?} on the {path_name} path ({:.0} rows/s)",
        rows as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    if let Some(path) = opts.path("serve-metrics") {
        write_out(path, stats.to_json(), "serving metrics", false)?;
    }
    let text: String = ["prediction"]
        .into_iter()
        .chain(lines.iter().map(String::as_str))
        .map(|l| format!("{l}\n"))
        .collect();
    match opts.path("out") {
        Some(path) => write_out(path, text, &format!("{} predictions", lines.len()), false),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// The online request tier: stream a simulated arrival plan through the
/// micro-batching front (virtual clock, so runs are deterministic and
/// seed-replayable) and report latency quantiles, sustained QPS, sheds
/// and hot swaps. See docs/SERVING.md, "The request tier".
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::Duration;
    use ts_front::{ArrivalPlan, FrontConfig, FrontServer, ModelRegistry};

    let model = load_model(opts)?;
    let table = Arc::new(load_table(opts)?);
    if table.n_rows() == 0 {
        return Err("the request table has no rows".into());
    }

    let requests = opts.num("requests");
    let conns = opts.num("conns");
    let seed = opts.num("seed");
    let qps = opts.num("qps");
    let plan = match opts.text("arrival") {
        "bursty" => ArrivalPlan::Bursty {
            on_qps: opts.num_or("burst-on-qps", qps * 3.0),
            off_qps: opts.num_or("burst-off-qps", qps / 10.0),
            on: Duration::from_micros(opts.num("burst-on-us")),
            off: Duration::from_micros(opts.num("burst-off-us")),
        },
        _ => ArrivalPlan::Poisson { qps },
    };
    let cfg = FrontConfig {
        latency_budget: Duration::from_micros(opts.num("latency-budget-us")),
        max_batch: opts.num("max-batch"),
        queue_cap: opts.num("queue-cap"),
        adaptive_batch: !opts.has("fixed-batch"),
        ..FrontConfig::default()
    };

    let registry = Arc::new(ModelRegistry::new(model.compile()));
    let mut server = FrontServer::new(cfg, Arc::clone(&registry), Arc::clone(&table));
    let swap_at: Vec<u64> = opts.items("swap-at");
    for (i, &at_us) in swap_at.iter().enumerate() {
        // The replacement trains off the virtual clock on a real thread;
        // the swap closure joins it at the scheduled virtual time, so
        // trainer wall time never skews response latencies.
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

    let n_swaps = swap_at.len();
    if report.swaps.len() != n_swaps {
        return Err(format!(
            "only {} of {n_swaps} scheduled swaps fired — the stream ended at \
             {:.3} ms; move --swap-at earlier",
            report.swaps.len(),
            arrivals.last().map_or(0, |a| a.at_ns) as f64 / 1e6,
        ));
    }
    let sheds = report.sheds.len();
    let queue_full = (report.sheds.iter())
        .filter(|s| s.reason == ts_front::RejectReason::QueueFull)
        .count();
    eprintln!(
        "served {} / {requests} ({sheds} shed: {queue_full} queue-full, {} backpressure)",
        report.responses.len(),
        sheds - queue_full,
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
    match opts.path("report") {
        Some(path) => write_out(
            path,
            serve_report_json(&plan, seed, &report),
            "serving report",
            false,
        ),
        None => Ok(()),
    }
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
    let model = load_model(opts)?;
    let index = opts.num("tree");
    let tree = model
        .tree_at(index)
        .ok_or_else(|| format!("model has no tree {index}"))?;
    print!("{}", tree.render(|a| format!("a{a}")));
    Ok(())
}

fn cmd_importance(opts: &Opts) -> Result<(), String> {
    let model = load_model(opts)?;
    let imp = model.feature_importance();
    let mut ranked: Vec<(usize, f64)> = imp.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("{:<8} {:>10}", "attr", "importance");
    for (attr, v) in ranked.into_iter().take(opts.num("top")) {
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

    /// The table is the only description of an option, so it must be
    /// consistent with itself: rows name real commands, one meaning per
    /// command and name, defaults of the row's kind and in its range, and
    /// prerequisites that the same command can satisfy.
    #[test]
    fn every_row_is_consistent() {
        let commands = COMMANDS.map(|(c, _)| c);
        let mut seen = BTreeSet::new();
        for o in OPTIONS {
            assert!(!o.cmds.is_empty(), "--{} applies to no command", o.name);
            for cmd in o.cmds {
                assert!(
                    commands.contains(cmd),
                    "--{}: unknown command {cmd}",
                    o.name
                );
                assert!(
                    seen.insert((*cmd, o.name)),
                    "{cmd} has two --{} rows",
                    o.name
                );
                if let Some((other, value)) = o.needs {
                    let needed =
                        row(cmd, other).unwrap_or_else(|| panic!("{cmd} has no --{other}"));
                    assert!(value.is_empty() || needed.kind.read(value) == Some(value));
                }
            }
            let default_fits = match o.or {
                Or::Text(v) => matches!(o.kind, Text(_) | Choice(_)) && o.kind.read(v) == Some(v),
                Or::Num(v) => {
                    matches!(o.kind, Int(..) | Float(..)) && o.kind.read(&v.to_string()).is_some()
                }
                Or::Required | Or::Derived(_) => !matches!(o.kind, Flag),
                Or::Absent => true,
            };
            assert!(default_fits, "--{}: a default not of its kind", o.name);
        }
        let names: BTreeSet<&str> = OPTIONS.iter().map(|o| o.name).collect();
        assert_eq!(names.len(), 48, "the CLI takes 48 option names");
    }

    #[test]
    fn parse_rejects_by_name_and_reads_defaults_from_the_table() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let err = |cmd, s: &str| Opts::parse(cmd, &args(s)).err().unwrap_or_default();
        assert_eq!(err("show", "--model m --trees 5"), "show takes no --trees");
        assert_eq!(err("train", "--tress 50"), "unknown option --tress");
        assert_eq!(
            err("predict", "--model m --csv c --target"),
            "--target needs a value"
        );
        assert_eq!(
            err("serve", "--queue-cap 0"),
            "--queue-cap must be an integer in [1, inf), got \"0\""
        );
        assert_eq!(
            err("train", "--csv c --target t --task reg --vote-k 3"),
            "--vote-k needs --splitter hist"
        );
        assert_eq!(
            err("train", "--csv c --target t --task reg --join-count 2"),
            "--join-count needs --join-at"
        );
        assert_eq!(
            err("train", "--csv c --target t --task reg --work-scale 1,0"),
            "--work-scale must be a comma-separated list, each in (0, inf), got \"1,0\""
        );

        let given = args("--csv c --target t --task regression --splitter histogram --hist-bins 8");
        let opts = Opts::parse("train", &given).expect("parses");
        assert_eq!((opts.text("task"), opts.text("splitter")), ("reg", "hist"));
        assert_eq!(opts.num::<usize>("hist-bins"), 8);
        assert_eq!(opts.num::<usize>("vote-k"), 2);
        assert_eq!(opts.num::<f64>("drop-prob"), 0.0);
        assert_eq!(opts.num_or("fault-seed", 7u64), 7);
        assert_eq!(opts.text("out"), "model.json");
        assert!(opts.items::<f64>("work-scale").is_empty());
        let given = args("--model m --csv c --target t --task class --swap-at 5,7");
        let opts = Opts::parse("serve", &given).expect("parses");
        assert_eq!(opts.items::<u64>("swap-at"), [5, 7]);
        assert_eq!(opts.path("report"), None);
    }

    /// Every `treeserver CMD …` or `cargo run -p treeserver-cli -- CMD …`
    /// line of the README, the docs and the verify skill parses against
    /// the table, line continuations joined and a trailing `...` skipped.
    #[test]
    fn documented_invocations_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![
            root.join("README.md"),
            root.join(".claude/skills/verify/SKILL.md"),
        ];
        for entry in std::fs::read_dir(root.join("docs")).expect("docs/") {
            let path = entry.expect("docs entry").path();
            if path.extension().is_some_and(|e| e == "md") {
                files.push(path);
            }
        }
        let mut parsed = 0;
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable doc");
            for line in text.replace("\\\n", " ").lines() {
                let words: Vec<&str> = line.split_whitespace().collect();
                let at = words.iter().position(|w| {
                    *w == "treeserver" || w.ends_with("/treeserver") || *w == "treeserver-cli"
                });
                let Some(mut at) = at else { continue };
                if words[at] == "treeserver-cli" {
                    if words.get(at + 1) != Some(&"--") {
                        continue;
                    }
                    at += 1;
                }
                let Some(&(cmd, _)) = COMMANDS.iter().find(|(c, _)| Some(c) == words.get(at + 1))
                else {
                    continue;
                };
                let args: Vec<String> = (words[at + 2..].iter())
                    .take_while(|w| **w != "...")
                    .map(|w| w.to_string())
                    .collect();
                if let Err(e) = Opts::parse(cmd, &args) {
                    panic!("{}: `{line}`: {e}", file.display());
                }
                parsed += 1;
            }
        }
        assert!(parsed >= 10, "found only {parsed} invocations");
    }
}
