//! `ledger`: the repository's measured benchmark (train -> compile ->
//! serve). See README.md beside this package and `/BENCHMARK.json`.

mod compare;
mod host;
mod results;
mod run;
mod spans;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::Protocol;
use workloads::Workload;

/// Seconds of timed operations per run; `/BENCHMARK.json` passes the same
/// number as `--seconds`.
pub const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  ledger run --workload W --seed N [--seconds S] [--scale X] [--out FILE]
  ledger run --workload W --seed N --trace 1 [--scale X]
  ledger compare A.json B.json
  ledger selfcheck [--runs K]
run from the repository root; workloads: coltask_exact coltask_hist subtree_forest
boost_rounds serve_bulk serve_requests
--trace 1 probes the workload's layers once instead of measuring: it takes no
--out, and --seconds (which the driver always passes) does not apply to it";

/// `--key value` pairs after the sub-command, each key at most once.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut out: Vec<(String, String)> = Vec::new();
        for pair in args.chunks(2) {
            let [key, value] = pair else {
                return Err(format!("{} needs a value", pair[0]));
            };
            if !allowed.contains(&key.as_str()) || out.iter().any(|(k, _)| k == key) {
                return Err(format!("unexpected {key}"));
            }
            out.push((key.clone(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {key}: {v}")),
        }
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("{key} is required"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.required("--workload")?;
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))
    }

    /// Sizes shrink below 1.0 for smoke runs; they never grow.
    fn scale(&self) -> Result<f64, String> {
        let scale = self.get("--scale")?.unwrap_or(1.0);
        if scale > 0.0 && scale <= 1.0 {
            Ok(scale)
        } else {
            Err(format!("--scale must be in (0, 1], got {scale}"))
        }
    }
}

/// `run` ends with code 0 once its result line is printed: the line, not
/// the exit code, says whether the outputs were correct.
fn run_command(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--scale",
            "--out",
        ],
    )?;
    let (w, seed, scale) = (flags.workload()?, flags.required("--seed")?, flags.scale()?);
    let seconds = flags.get("--seconds")?.unwrap_or(RUN_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    match flags.get::<u8>("--trace")?.unwrap_or(0) {
        0 => {}
        // The traced walk is a fixed amount of work, so `--seconds` has
        // nothing to set there; it is let through because the driver passes
        // it on every command line.
        1 if flags.get::<PathBuf>("--out")?.is_some() => {
            return Err("--out does not go with --trace 1 (the traced run writes ledger/out/trace-<W>.json)".to_string());
        }
        1 => return trace_run(w, seed, scale),
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    }
    let record = run::run(w, seed, scale, Protocol::gated(seconds));
    record.print();
    if let Some(out) = flags.get::<PathBuf>("--out")? {
        results::append(&out, record.to_json())?;
    }
    println!("{}", record.contract_line());
    Ok(true)
}

fn trace_run(w: Workload, seed: u64, scale: f64) -> Result<bool, String> {
    let traced = trace::trace(w, seed, scale);
    traced.print();
    let path = Path::new("ledger/out").join(format!("trace-{}.json", w.name()));
    results::write(&path, &traced.to_json())?;
    println!("spans and per-layer table written to {}", path.display());
    println!("{}", traced.contract_line());
    Ok(true)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let bounds = compare::Bounds::load(Path::new("BENCHMARK.json"))?;
    let rows = compare::compare(
        &results::load(Path::new(a))?,
        &results::load(Path::new(b))?,
        &bounds,
    );
    compare::print(&rows, a, b);
    Ok(rows.iter().all(|r| r.verdict.passes()))
}

fn selfcheck_command(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--runs"])?;
    let runs: usize = flags.get("--runs")?.unwrap_or(5);
    if runs < 3 {
        return Err("--runs must be at least 3".to_string());
    }
    let bounds = compare::Bounds::load(Path::new("BENCHMARK.json"))?;
    compare::selfcheck(runs, &bounds, Path::new("ledger/out"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => run_command(rest),
            "compare" => compare_command(rest),
            "selfcheck" => selfcheck_command(rest),
            other => Err(format!("unknown sub-command {other}")),
        },
        None => Err("no sub-command".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
