//! `compare`: two result files held against the bounds of
//! `/BENCHMARK.json`. `selfcheck`: the same binary measured as two
//! interleaved sets, which must agree.

use std::path::Path;
use std::process::{Command, Stdio};

use tsjson::Value;

use crate::results::{self, Sample};
use crate::spec::Better;
use crate::stats;
use crate::workloads::Workload;

/// Direction and bound of every gated metric, as `/BENCHMARK.json` fixes
/// them.
pub struct Bounds(Vec<(String, Better, f64)>);

impl Bounds {
    pub fn load(path: &Path) -> Result<Bounds, String> {
        Bounds::parse(&results::read_json(path)?)
            .ok_or_else(|| format!("{}: malformed end_to_end list", path.display()))
    }

    fn parse(doc: &Value) -> Option<Bounds> {
        doc["end_to_end"]
            .as_array()?
            .iter()
            .map(|m| {
                Some((
                    m["name"].as_str()?.to_string(),
                    Better::from_name(m["better"].as_str()?)?,
                    m["bound"].as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .map(Bounds)
    }
}

/// A set-up shorter than this is reported but not gated: the sandbox
/// resolves a 0.02-0.05 s set-up (`boost_rounds`, `subtree_forest`) no
/// better than 13-23 % from run to run (README, "Sizing study").
const SETUP_RESOLUTION_S: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the base set's own spread.
    Improved,
    WithinBound,
    /// `setup_s` with a base under [`SETUP_RESOLUTION_S`].
    NotGated,
    /// Worse by more than the bound.
    Worse,
    /// A set's own quartile spread exceeds the bound: no verdict.
    Unresolved,
    /// Set B has no run of this pair.
    Missing,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::NotGated => "not gated (< 0.1 s)",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Missing => "MISSING",
        }
    }

    /// Whether a comparison may pass with this row in it: a pair that is
    /// worse, unresolved or missing shows no absence of a regression.
    pub fn passes(self) -> bool {
        matches!(
            self,
            Verdict::Improved | Verdict::WithinBound | Verdict::NotGated
        )
    }
}

/// One workload × metric pair of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// Median of set A (the base of the ratio) and of set B. What comes
    /// from B is NaN when the pair is missing there.
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which B is worse (negative: better).
    pub worse_by: f64,
    /// Quartile spread of each set over its median (0 with one run).
    pub spread: (f64, f64),
    pub bound: f64,
    pub verdict: Verdict,
}

/// Every gated pair of set A, in A's order.
pub fn compare(a: &[Sample], b: &[Sample], bounds: &Bounds) -> Vec<Row> {
    let values = |set: &[Sample], workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter(|s| s.workload == workload && s.metric == metric)
            .map(|s| s.value)
            .collect()
    };
    let median = |xs: &[f64]| {
        if xs.is_empty() {
            f64::NAN
        } else {
            stats::median(xs)
        }
    };
    let spread = |xs: &[f64]| match xs.len() {
        0 => f64::NAN,
        1 => 0.0,
        _ => stats::spread(xs),
    };
    let mut rows: Vec<Row> = Vec::new();
    for s in a {
        if rows
            .iter()
            .any(|r| r.workload == s.workload && r.metric == s.metric)
        {
            continue;
        }
        let Some((_, better, bound)) = bounds.0.iter().find(|(name, _, _)| *name == s.metric)
        else {
            continue;
        };
        let (xa, xb) = (
            values(a, &s.workload, &s.metric),
            values(b, &s.workload, &s.metric),
        );
        let (base, new) = (median(&xa), median(&xb));
        let worse_by = match better {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        };
        let spread = (spread(&xa), spread(&xb));
        let verdict = if xb.is_empty() {
            Verdict::Missing
        } else if s.metric == "setup_s" && base < SETUP_RESOLUTION_S {
            Verdict::NotGated
        } else if spread.0 > *bound || spread.1 > *bound {
            Verdict::Unresolved
        } else if worse_by > *bound {
            Verdict::Worse
        } else if worse_by < -spread.0 && worse_by < 0.0 {
            Verdict::Improved
        } else {
            Verdict::WithinBound
        };
        rows.push(Row {
            workload: s.workload.clone(),
            metric: s.metric.clone(),
            base,
            new,
            worse_by,
            spread,
            bound: *bound,
            verdict,
        });
    }
    rows
}

/// The comparison as a markdown table (README.md carries one).
pub fn print(rows: &[Row], a: &str, b: &str) {
    println!("A = {a} (base), B = {b}; medians; spread = (q3 - q1) / median of each set");
    println!("| workload | metric | A | B | B worse by | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        println!(
            "| {} | {} | {:.4} | {:.4} | {:+.1} % | {:.1} % | {:.1} % | {:.0} % | {} |",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.spread.0 * 100.0,
            r.spread.1 * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
}

/// Runs every workload `runs` times into each of two sets, alternating
/// which set goes first (A B, B A, ...), each run in its own process so
/// `peak_rss_mb` is a run's own. Both sets use the same seeds (1, 2, ...),
/// so only the sandbox differs between them. Passes when every gated pair's
/// medians differ by at most half the pair's bound, no pair is unresolved
/// (a set's own spread beyond the bound) and no operation failed. Set-ups
/// under 0.1 s are reported, not gated.
pub fn selfcheck(runs: usize, bounds: &Bounds, out_dir: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let files = [
        out_dir.join("selfcheck-A.json"),
        out_dir.join("selfcheck-B.json"),
    ];
    for f in &files {
        match std::fs::remove_file(f) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", f.display()))
            }
            _ => {}
        }
    }
    for w in Workload::ALL {
        for i in 0..runs {
            for set in [i % 2, 1 - i % 2] {
                eprintln!(
                    "selfcheck: {} run {} set {}",
                    w.name(),
                    i + 1,
                    ["A", "B"][set]
                );
                let status = Command::new(&exe)
                    .args(["run", "--workload", w.name()])
                    .args(["--seed", &(i + 1).to_string()])
                    .arg("--out")
                    .arg(&files[set])
                    .stdout(Stdio::null())
                    .status()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!("{} run {} ended with {status}", w.name(), i + 1));
                }
            }
        }
    }
    let mut all_correct = true;
    let mut sets = Vec::new();
    for f in &files {
        let doc = results::read_json(f)?;
        let runs = doc["runs"].as_array().map_or(&[][..], Vec::as_slice);
        all_correct &= runs.iter().all(|r| r["correct"].as_bool() == Some(true));
        sets.push(
            results::samples(&doc)
                .ok_or_else(|| format!("{}: not a ledger result file", f.display()))?,
        );
    }
    let rows = compare(&sets[0], &sets[1], bounds);
    print(&rows, "selfcheck-A.json", "selfcheck-B.json");
    let agree = rows.iter().all(|r| {
        r.verdict == Verdict::NotGated || (r.verdict.passes() && r.worse_by.abs() <= r.bound / 2.0)
    });
    println!(
        "selfcheck: {} (every gated pair resolved and within half its bound: {agree}; every operation correct: {all_correct})",
        if agree && all_correct { "passed" } else { "FAILED" }
    );
    Ok(agree && all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, metric: &str, values: &[f64]) -> Vec<Sample> {
        values
            .iter()
            .map(|&value| Sample {
                workload: workload.to_string(),
                metric: metric.to_string(),
                value,
            })
            .collect()
    }

    fn bounds() -> Bounds {
        let doc = tsjson::json!({"end_to_end": [
            tsjson::json!({"name": "op_s", "unit": "s", "better": "lower", "bound": 0.1}),
            tsjson::json!({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}),
            tsjson::json!({"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1})
        ]});
        Bounds::parse(&doc).expect("well-formed")
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = set("w", "op_s", &[1.0, 1.01, 0.99, 1.0]);
        let verdict = |b: &[Sample]| compare(&base, b, &bounds())[0].verdict;
        assert_eq!(
            verdict(&set("w", "op_s", &[1.2, 1.21, 1.19, 1.2])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&set("w", "op_s", &[1.05, 1.04, 1.06, 1.05])),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&set("w", "op_s", &[0.8, 0.81, 0.79, 0.8])),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&set("w", "op_s", &[0.8, 1.4, 0.7, 1.2])),
            Verdict::Unresolved
        );

        // Higher is better: a lower B is worse, and the ratio's base is A.
        let rate = compare(
            &set("w", "rate", &[100.0, 101.0]),
            &set("w", "rate", &[80.0, 81.0]),
            &bounds(),
        );
        assert_eq!(rate[0].verdict, Verdict::Worse);
        assert!((rate[0].worse_by - 0.199).abs() < 1e-3);

        // Metrics without a bound are left out; a pair missing from B is a
        // row that cannot pass, like a worse or an unresolved one.
        assert!(compare(
            &set("w", "other", &[1.0]),
            &set("w", "other", &[2.0]),
            &bounds()
        )
        .is_empty());
        let missing = compare(&base, &set("v", "op_s", &[1.0]), &bounds());
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].verdict, Verdict::Missing);
        assert!(![Verdict::Missing, Verdict::Unresolved, Verdict::Worse]
            .iter()
            .any(|v| v.passes()));

        // A set-up under 0.1 s is reported but not gated; a longer one is.
        let setup = |a: f64, b: f64| {
            compare(
                &set("w", "setup_s", &[a, a]),
                &set("w", "setup_s", &[b, b]),
                &bounds(),
            )[0]
            .verdict
        };
        assert_eq!(setup(0.02, 0.04), Verdict::NotGated);
        assert_eq!(setup(0.2, 0.4), Verdict::Worse);
    }
}
