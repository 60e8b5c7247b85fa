//! Where a result came from: the fields ROADMAP item 1 says the old
//! `BenchRecord` lacks.

use std::process::Command;
use tsjson::Value;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Commit, compiler, core count and CPU model; `unknown` where the host
/// does not say (the driver's checkout is not a git repository).
pub fn fingerprint() -> Value {
    let unknown = || "unknown".to_string();
    tsjson::json!({
        "commit": command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        "rustc": command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        "cpu": proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)
    })
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_has_every_field_and_rss_is_positive() {
        let f = fingerprint();
        for key in ["commit", "rustc", "cpu"] {
            assert!(f[key].as_str().is_some_and(|s| !s.is_empty()), "{key}");
        }
        assert!(f["nproc"].as_u64().is_some_and(|n| n >= 1));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
