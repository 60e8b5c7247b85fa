//! Result files: a host fingerprint and a list of run records. `run --out`
//! appends to one, `selfcheck` writes two, `compare` reads two.

use std::path::Path;

use tsjson::Value;

use crate::host;

/// Reads and parses a JSON file; errors name the file.
pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    tsjson::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `record` to the set in `path`, creating the file (with this
/// host's fingerprint) when it does not exist.
pub fn append(path: &Path, record: Value) -> Result<(), String> {
    let mut runs = if path.exists() {
        read_json(path)?["runs"]
            .as_array()
            .ok_or_else(|| format!("{}: no \"runs\" array", path.display()))?
            .clone()
    } else {
        Vec::new()
    };
    runs.push(record);
    write(
        path,
        &tsjson::json!({"host": host::fingerprint(), "runs": runs}),
    )
}

/// Writes `doc` pretty-printed, creating the parent directory.
pub fn write(path: &Path, doc: &Value) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut bytes = tsjson::to_vec_pretty(doc).expect("JSON values serialise");
    bytes.push(b'\n');
    std::fs::write(path, bytes).map_err(io)
}

/// One value of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub workload: String,
    pub metric: String,
    pub value: f64,
}

/// Every (workload, metric, value) of the result file at `path`.
pub fn load(path: &Path) -> Result<Vec<Sample>, String> {
    samples(&read_json(path)?)
        .ok_or_else(|| format!("{}: not a ledger result file", path.display()))
}

/// The samples of a parsed result document.
pub fn samples(doc: &Value) -> Option<Vec<Sample>> {
    let mut out = Vec::new();
    for run in doc["runs"].as_array()? {
        let workload = run["workload"].as_str()?;
        for metric in run["metrics"].as_array()? {
            out.push(Sample {
                workload: workload.to_string(),
                metric: metric["name"].as_str()?.to_string(),
                value: metric["value"].as_f64()?,
            });
        }
    }
    Some(out)
}
