//! The names the ledger reports under: every end-to-end and per-layer
//! metric with its unit, direction, statistic and clock kind. `/BENCHMARK.json`
//! restates the names, units and directions (a test holds the two together)
//! and alone carries the bounds.

use tsjson::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn from_name(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// What a value was read from. `Measured` is a real clock around real work
/// (or memory the kernel accounted); `Virtual` is the front tier's simulated
/// clock, a function of the arrival plan and the `ServiceModel`; `Count` is
/// a counter of the program. Virtual and count values of one seed repeat
/// exactly; a counter that timers or thread scheduling feed (heartbeat
/// frames, per-thread scratch pools) does not, and is labelled `Measured`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Measured,
    Virtual,
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Measured => "measured",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How the value was reduced from its samples: `best_of_n`, `p50`,
    /// `p95`, `p99`, `single`, `fit`, `ratio` or `count`.
    pub stat: &'static str,
    pub clock: Clock,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    stat: &'static str,
    clock: Clock,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        stat,
        clock,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Measured, Virtual};

/// `op_s` of the training workloads: the best of the run's operation
/// times. They keep both compute threads busy, noise only adds time to them,
/// and over ten runs their best was steadier than their median (quartile
/// spread 4.5-11 % against 7-14 %). README.md, "Sizing study".
pub const OP_S_BEST: MetricDef = m("op_s", "s", Lower, "best_of_n", Measured);
/// `op_s` of the serving workloads: the median of the run's operation
/// times. Their single-threaded operations have two modes on the sandbox —
/// the usual one and a faster one that comes and goes in stretches of
/// seconds (0.60 s and 0.47 s on `serve_bulk`) — so the best of a run is
/// whichever mode the run happened to see (24 % quartile spread over ten
/// runs) while the median is the usual one (9.5 %).
pub const OP_S_MEDIAN: MetricDef = m("op_s", "s", Lower, "p50", Measured);
pub const SETUP_S: MetricDef = m("setup_s", "s", Lower, "best_of_n", Measured);
pub const PEAK_RSS_MB: MetricDef = m("peak_rss_mb", "MB", Lower, "single", Measured);

/// What `run` reports, on every workload, as `/BENCHMARK.json` lists it.
#[cfg(test)]
pub const END_TO_END: [MetricDef; 3] = [OP_S_BEST, SETUP_S, PEAK_RSS_MB];

/// What a traced run reads for a metric whose layer the workload does not
/// use (the driver's contract wants every name on every traced run). No
/// probed value is negative.
pub const NOT_PROBED: f64 = -1.0;

/// What `run --trace 1` reports. Which workloads probe which names is in
/// README.md, "Per-layer metrics".
pub const PER_LAYER: [MetricDef; 52] = [
    m("datatable.generate_s", "s", Lower, "single", Measured),
    m("datatable.presort_s", "s", Lower, "best_of_n", Measured),
    m("datatable.bin_s", "s", Lower, "best_of_n", Measured),
    m(
        "splits.exact_num_root_ns_row",
        "ns/row",
        Lower,
        "best_of_n",
        Measured,
    ),
    m(
        "splits.exact_num_node_ns_row",
        "ns/row",
        Lower,
        "best_of_n",
        Measured,
    ),
    m(
        "splits.exact_cat_root_ns_row",
        "ns/row",
        Lower,
        "best_of_n",
        Measured,
    ),
    m(
        "splits.exact_reg_root_ns_row",
        "ns/row",
        Lower,
        "best_of_n",
        Measured,
    ),
    m(
        "splits.hist_num_root_ns_row",
        "ns/row",
        Lower,
        "best_of_n",
        Measured,
    ),
    m(
        "splits.hist_num_node_ns_row",
        "ns/row",
        Lower,
        "best_of_n",
        Measured,
    ),
    m("splits.sorted_scans", "count", Lower, "count", Count),
    m("splits.gather_scans", "count", Lower, "count", Count),
    m("splits.pool_miss_ratio", "ratio", Lower, "ratio", Measured),
    m("tree.train_tree_s", "s", Lower, "single", Measured),
    m("core.launch_s", "s", Lower, "single", Measured),
    m("core.cp_scheduling_s", "s", Lower, "single", Measured),
    m("core.cp_network_s", "s", Lower, "single", Measured),
    m("core.cp_queueing_s", "s", Lower, "single", Measured),
    m("core.cp_compute_s", "s", Lower, "single", Measured),
    m("core.cp_gather_s", "s", Lower, "single", Measured),
    m("core.column_tasks", "count", Lower, "count", Count),
    m("core.subtree_tasks", "count", Lower, "count", Count),
    m("core.plans", "count", Lower, "count", Count),
    m("core.column_task_p50_us", "us", Lower, "p50", Measured),
    m("core.column_task_p95_us", "us", Lower, "p95", Measured),
    m("core.subtree_task_p50_us", "us", Lower, "p50", Measured),
    m("core.subtree_task_p95_us", "us", Lower, "p95", Measured),
    m("core.worker_busy_share", "ratio", Higher, "ratio", Measured),
    m("core.round_ms", "ms", Lower, "best_of_n", Measured),
    m("core.update_labels_ms", "ms", Lower, "best_of_n", Measured),
    m("netsim.job_bytes", "bytes", Lower, "count", Measured),
    m("netsim.job_msgs", "count", Lower, "count", Measured),
    m("netsim.master_sent_bytes", "bytes", Lower, "count", Count),
    m("netsim.split_plane_bytes", "bytes", Lower, "count", Count),
    m(
        "obs.trace_overhead_ratio",
        "ratio",
        Lower,
        "ratio",
        Measured,
    ),
    m("obs.events", "count", Lower, "count", Measured),
    m("obs.events_lost", "count", Lower, "count", Count),
    m("serve.compile_ms", "ms", Lower, "best_of_n", Measured),
    m("serve.batch1_us", "us", Lower, "p50", Measured),
    m("serve.batch32_us", "us", Lower, "p50", Measured),
    m("serve.batch32_p99_us", "us", Lower, "p99", Measured),
    m("serve.batch1024_us", "us", Lower, "p50", Measured),
    m("serve.fit_overhead_us", "us", Lower, "fit", Measured),
    m("serve.fit_per_row_ns", "ns/row", Lower, "fit", Measured),
    m("serve.nodes", "count", Lower, "count", Count),
    m("front.batches", "count", Lower, "count", Count),
    m("front.mean_batch_rows", "rows", Higher, "ratio", Count),
    m("front.deadline_flush_share", "ratio", Lower, "ratio", Count),
    m("front.shed_ratio", "ratio", Lower, "ratio", Count),
    m("front.virtual_p50_us", "us", Lower, "p50", Virtual),
    m("front.virtual_p99_us", "us", Lower, "p99", Virtual),
    m("front.engine_share", "ratio", Higher, "ratio", Measured),
    m("front.loop_ns_per_request", "ns", Lower, "single", Measured),
];

/// One measured value under its definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub def: &'static MetricDef,
    pub value: f64,
}

/// The last line of standard output the driver reads: exactly these keys,
/// each metric as `{"value": .., "unit": ..}` with all its digits.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, readings: &[Reading]) -> String {
    let mut metrics = tsjson::Map::new();
    for r in readings {
        metrics.insert(
            r.def.name.to_string(),
            tsjson::json!({"value": r.value, "unit": r.def.unit}),
        );
    }
    let line = tsjson::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Obj(metrics)
    });
    tsjson::to_string(&line).expect("JSON values serialise")
}

/// The readings as a result file keeps them: each with its unit, direction,
/// statistic and clock kind.
pub fn described(readings: &[Reading]) -> Vec<Value> {
    readings
        .iter()
        .map(|r| {
            tsjson::json!({
                "name": r.def.name,
                "value": r.value,
                "unit": r.def.unit,
                "better": r.def.better.name(),
                "stat": r.def.stat,
                "clock": r.def.clock.name()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    /// `/BENCHMARK.json` and the tables above name the same workloads and
    /// metrics, with the same units and directions.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = crate::results::read_json(std::path::Path::new(path)).expect("BENCHMARK.json");

        assert_eq!(doc["run_seconds"].as_f64(), Some(crate::RUN_SECONDS));
        let listed: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads array")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|n| well_formed(n)));

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc[key].as_array().expect("metric array");
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert!(well_formed(def.name), "{}", def.name);
                assert_eq!(entry["name"].as_str(), Some(def.name));
                assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
                assert_eq!(
                    entry["better"].as_str(),
                    Some(def.better.name()),
                    "{}",
                    def.name
                );
            }
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are used once"
        );
    }
}
