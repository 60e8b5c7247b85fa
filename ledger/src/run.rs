//! The measured run: set-up, one untimed warm-up operation, operations
//! repeated over a fixed timed region, and the output checks — all with
//! the cluster's own tracing off.

use tsjson::Value;

use crate::host;
use crate::spans::Spans;
use crate::spec::{self, Reading};
use crate::stats;
use crate::workloads::{self, Checker, Sizes, Workload};

/// How long and how often one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    /// Seconds of timed operations (summed operation time, so the timed
    /// region is the same length on every commit).
    pub seconds: f64,
    /// Operations timed at the least.
    pub min_ops: usize,
    /// Set-up runs at least 3 and at most 50 times, until this many seconds
    /// have gone into it (a 0.02 s set-up needs many repetitions for a
    /// steady best).
    pub setup_seconds: f64,
}

impl Protocol {
    /// The gated protocol for a timed region of `seconds`.
    pub fn gated(seconds: f64) -> Protocol {
        Protocol {
            seconds,
            min_ops: 12,
            setup_seconds: seconds / 10.0,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    /// Timed operations.
    pub ops: u64,
    /// Timed operations whose output failed a check (all of them when the
    /// run's model-level check fails).
    pub failed_ops: u64,
    pub setup_reps: u64,
    /// Seconds of each timed operation, in order.
    pub op_secs: Vec<f64>,
    /// What the model-level check found.
    pub check: Result<String, String>,
    pub readings: Vec<Reading>,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed_ops == 0 && self.check.is_ok()
    }

    /// The last line of standard output the driver reads.
    pub fn contract_line(&self) -> String {
        spec::contract_line(self.correct(), self.ops, self.failed_ops, &self.readings)
    }

    /// The record a result file keeps: every reading described, plus seed,
    /// final sizes and the operation times.
    pub fn to_json(&self) -> Value {
        tsjson::json!({
            "workload": self.workload.name(),
            "seed": self.seed,
            "sizes": self.sizes,
            "ops": self.ops,
            "failed_ops": self.failed_ops,
            "correct": self.correct(),
            "check": match &self.check { Ok(s) | Err(s) => s.clone() },
            "setup_reps": self.setup_reps,
            "op_secs": self.op_secs,
            "metrics": spec::described(&self.readings)
        })
    }

    /// The human-readable report: every end-to-end metric by name with its
    /// unit, and best, median and maximum of the operation times.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  scale {}  ops {}  failed_ops {}  set-ups {}",
            self.workload.name(),
            self.seed,
            self.sizes.scale,
            self.ops,
            self.failed_ops,
            self.setup_reps
        );
        for r in &self.readings {
            println!(
                "  {:<12} {:>14.6} {:<3} ({}, {} is better)",
                r.def.name,
                r.value,
                r.def.unit,
                r.def.stat,
                r.def.better.name()
            );
        }
        println!(
            "  op_s best {:.6} s, median {:.6} s, max {:.6} s (for the reader)",
            stats::best(&self.op_secs),
            stats::median(&self.op_secs),
            stats::worst(&self.op_secs)
        );
        match &self.check {
            Ok(s) => println!("  check passed: {s}"),
            Err(s) => println!("  check FAILED: {s}"),
        }
    }
}

/// Runs one workload under `protocol` and returns what it measured.
pub fn run(w: Workload, seed: u64, scale: f64, protocol: Protocol) -> RunRecord {
    let sizes = Sizes::of(w, scale);
    let mut spans = Spans::off();

    // The first set-up serves the run. The later ones come after the run's
    // peak memory is read, so `peak_rss_mb` is one instance's, and some
    // twenty seconds after the first, so one slow phase of the sandbox
    // cannot cover them all.
    let mut setup_secs = Vec::new();
    let (ready, secs) = spans.time("setup", |s| workloads::setup(w, &sizes, seed, None, s));
    setup_secs.push(secs);

    let mut checker = Checker::new(w, &sizes, ready.published());
    // Warm-up: fills caches, scratch pools and the allocator; its output is
    // checked but it is neither timed nor counted.
    let (warm, _) = workloads::op(w, &sizes, &ready, &mut spans);
    let warm_ok = checker.op_ok(warm);

    let mut op_secs = Vec::new();
    let mut failed_ops = 0u64;
    while op_secs.len() < protocol.min_ops || op_secs.iter().sum::<f64>() < protocol.seconds {
        let (output, secs) = workloads::op(w, &sizes, &ready, &mut spans);
        op_secs.push(secs);
        if !checker.op_ok(output) {
            failed_ops += 1;
        }
    }

    // Read before the model-level check: that check trains the
    // single-threaded oracle on the whole table inside this process, which
    // on the 200 000-row workloads would set the peak (121 -> 195 MB) and
    // hide the cluster's own memory behind the verifier's.
    let peak_rss_mb = host::peak_rss_mb().expect("/proc/self/status reports VmHWM");
    let check = if warm_ok {
        checker.model_ok(&sizes, &ready.train, &ready.holdout)
    } else {
        Err("the warm-up operation failed".to_string())
    };
    ready.teardown();
    let ops = op_secs.len() as u64;
    if check.is_err() {
        failed_ops = ops;
    }

    while setup_secs.len() < 3
        || (setup_secs.len() < 50 && setup_secs.iter().sum::<f64>() < protocol.setup_seconds)
    {
        let (again, secs) = spans.time("setup", |s| workloads::setup(w, &sizes, seed, None, s));
        setup_secs.push(secs);
        again.teardown();
    }

    let op_s = if w.serves() {
        Reading {
            def: &spec::OP_S_MEDIAN,
            value: stats::median(&op_secs),
        }
    } else {
        Reading {
            def: &spec::OP_S_BEST,
            value: stats::best(&op_secs),
        }
    };
    let readings = vec![
        op_s,
        Reading {
            def: &spec::SETUP_S,
            value: stats::best(&setup_secs),
        },
        Reading {
            def: &spec::PEAK_RSS_MB,
            value: peak_rss_mb,
        },
    ];
    RunRecord {
        workload: w,
        seed,
        sizes,
        ops,
        failed_ops,
        setup_reps: setup_secs.len() as u64,
        op_secs,
        check,
        readings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results;

    /// Two timed operations at a twentieth of the rows, checks on.
    const SMOKE: Protocol = Protocol {
        seconds: 0.0,
        min_ops: 2,
        setup_seconds: 0.0,
    };

    #[test]
    fn every_workload_smoke_runs_checks_and_round_trips() {
        for w in Workload::ALL {
            let record = run(w, 7, 0.05, SMOKE);
            assert!(record.correct(), "{}: {:?}", w.name(), record.check);
            assert_eq!(
                (record.ops, record.failed_ops, record.setup_reps),
                (2, 0, 3)
            );

            // The driver's line: exactly these keys, every end-to-end metric.
            let line: Value = tsjson::from_str(&record.contract_line()).expect("one JSON object");
            let keys: Vec<&String> = line
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line["attempted"].as_u64(), Some(2));
            for def in &spec::END_TO_END {
                let m = &line["metrics"][def.name];
                assert!(m["value"].as_f64().is_some_and(|v| v > 0.0), "{}", def.name);
                assert_eq!(m["unit"].as_str(), Some(def.unit));
            }

            // A result file gives back what the run measured.
            let file = tsjson::json!({"host": host::fingerprint(), "runs": [record.to_json()]});
            let text = tsjson::to_string(&file).expect("serialises");
            let samples =
                results::samples(&tsjson::from_str(&text).expect("parses")).expect("well-formed");
            let expected: Vec<(&str, f64)> = record
                .readings
                .iter()
                .map(|r| (r.def.name, r.value))
                .collect();
            let got: Vec<(&str, f64)> = samples
                .iter()
                .map(|s| (s.metric.as_str(), s.value))
                .collect();
            assert_eq!(got, expected);
            assert!(samples.iter().all(|s| s.workload == w.name()));
        }
    }
}
