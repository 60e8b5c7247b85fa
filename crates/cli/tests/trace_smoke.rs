//! End-to-end trace smoke test: drive the real `treeserver` binary with
//! `--trace-out` / `--trace-report` / `--metrics-prom` and check that every
//! artifact parses and carries the expected structure. CI runs this as its
//! trace-smoke gate.

use std::path::PathBuf;
use std::process::Command;

/// A small deterministic two-class CSV (no RNG needed: class follows f0).
fn write_csv(dir: &std::path::Path) -> PathBuf {
    let mut csv = String::from("f0,f1,f2,label\n");
    for i in 0..400u32 {
        let f0 = (i % 97) as f64 / 97.0;
        let f1 = ((i * 7) % 89) as f64 / 89.0;
        let f2 = ((i * 13) % 83) as f64 / 83.0;
        let label = if f0 > 0.5 { "pos" } else { "neg" };
        csv.push_str(&format!("{f0:.4},{f1:.4},{f2:.4},{label}\n"));
    }
    let path = dir.join("smoke.csv");
    std::fs::write(&path, csv).expect("write csv");
    path
}

#[test]
fn train_writes_parseable_trace_artifacts() {
    let dir = std::env::temp_dir().join(format!("ts-trace-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let csv = write_csv(&dir);
    let trace = dir.join("trace.json");
    let report = dir.join("report.json");
    let prom = dir.join("metrics.prom");
    let model = dir.join("model.json");

    let out = Command::new(env!("CARGO_BIN_EXE_treeserver"))
        .args([
            "train",
            "--csv",
            csv.to_str().unwrap(),
            "--target",
            "label",
            "--task",
            "class",
            "--model",
            "rf",
            "--trees",
            "4",
            "--workers",
            "2",
            "--out",
            model.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--trace-report",
            report.to_str().unwrap(),
            "--metrics-prom",
            prom.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("run treeserver");
    assert!(
        out.status.success(),
        "train failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // Chrome trace: valid JSON with a non-empty traceEvents array.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let trace_json = tsjson::from_str::<tsjson::Value>(&trace_text).expect("trace is valid JSON");
    let events = trace_json["traceEvents"]
        .as_array()
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");

    // TraceReport: valid JSON, non-empty critical path whose phase totals
    // sum to the wall clock.
    let report_text = std::fs::read_to_string(&report).expect("report written");
    let report_json =
        tsjson::from_str::<tsjson::Value>(&report_text).expect("report is valid JSON");
    let path = report_json["critical_path"]
        .as_array()
        .expect("critical_path array");
    assert!(!path.is_empty(), "critical path must be non-empty");
    let wall = report_json["wall_ns"].as_u64().expect("wall_ns");
    let phases = report_json["phase_totals_ns"]
        .as_object()
        .expect("phase_totals_ns object");
    let sum: u64 = phases.iter().map(|(_, v)| v.as_u64().expect("ns")).sum();
    assert_eq!(sum, wall, "phase totals must tile the wall clock");

    // Prometheus text: the training counters in exposition format.
    let prom_text = std::fs::read_to_string(&prom).expect("prom written");
    assert!(
        prom_text.contains("# TYPE jobs_finished counter"),
        "{prom_text}"
    );
    assert!(prom_text.contains("jobs_finished 1"), "{prom_text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_with_histogram_splitter_exports_its_byte_counter() {
    let dir = std::env::temp_dir().join(format!("ts-hist-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let csv = write_csv(&dir);
    let prom = dir.join("metrics.prom");
    let model = dir.join("model.json");

    // The final cluster report breaks the histogram split plane out,
    // whether or not the run is traced.
    let train = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_treeserver"))
            .args([
                "train",
                "--csv",
                csv.to_str().unwrap(),
                "--target",
                "label",
                "--task",
                "class",
                "--model",
                "dt",
                "--workers",
                "2",
                "--splitter",
                "hist",
                "--hist-bins",
                "16",
                "--vote-k",
                "2",
                "--out",
                model.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .expect("run treeserver");
        assert!(
            out.status.success(),
            "hist train failed:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("hist votes+fetch"),
            "report lacks the histogram traffic line ({extra:?}):\n{stderr}"
        );
    };
    train(&["--metrics-prom", prom.to_str().unwrap()]);
    train(&[]);

    let prom_text = std::fs::read_to_string(&prom).expect("prom written");
    assert!(
        prom_text.contains("# TYPE hist_bytes_sent counter"),
        "{prom_text}"
    );
    assert!(
        !prom_text.contains("split_bytes_sent 0\n") || !prom_text.contains("hist_bytes_sent 0"),
        "hist mode moved no split-plane bytes:\n{prom_text}"
    );
    assert!(model.exists(), "model not written");

    // Rejects histogram knobs without the mode.
    let bad = Command::new(env!("CARGO_BIN_EXE_treeserver"))
        .args([
            "train",
            "--csv",
            csv.to_str().unwrap(),
            "--target",
            "label",
            "--task",
            "class",
            "--hist-bins",
            "32",
        ])
        .output()
        .expect("run treeserver");
    assert!(
        !bad.status.success(),
        "--hist-bins without --splitter hist must fail"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_rejects_a_misspelt_option_by_name() {
    // `--tress 50` used to be stored and ignored: the run trained with the
    // default tree count and exited 0.
    let out = Command::new(env!("CARGO_BIN_EXE_treeserver"))
        .args(["train", "--csv", "unused.csv", "--tress", "50"])
        .output()
        .expect("run treeserver");
    assert!(!out.status.success(), "a misspelt option must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --tress"), "{stderr}");
}

#[test]
fn train_rejects_a_certain_drop_by_name() {
    // A dropped message is sent again, so `--drop-prob 1` would never
    // finish a send; it used to fail only once every heartbeat was lost.
    let dir = std::env::temp_dir().join(format!("ts-drop-one-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let csv = write_csv(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_treeserver"))
        .args(["train", "--csv", csv.to_str().unwrap()])
        .args(["--target", "label", "--task", "class", "--drop-prob", "1"])
        .output()
        .expect("run treeserver");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!out.status.success(), "a certain drop must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--drop-prob must be in [0, 1)"), "{stderr}");
}

#[test]
fn train_rejects_gbt_on_a_multi_class_table_by_name() {
    // GBT's objectives are squared error and 2-class logistic; a third
    // class used to panic after the cluster had launched.
    let dir = std::env::temp_dir().join(format!("ts-gbt-three-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let mut csv = String::from("f0,label\n");
    for i in 0..60u32 {
        csv.push_str(&format!("{i},{}\n", ["a", "b", "c"][i as usize % 3]));
    }
    let path = dir.join("three.csv");
    std::fs::write(&path, csv).expect("write csv");
    let out = Command::new(env!("CARGO_BIN_EXE_treeserver"))
        .args(["train", "--csv", path.to_str().unwrap()])
        .args(["--target", "label", "--task", "class", "--model", "gbt"])
        .output()
        .expect("run treeserver");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "a named error, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--model gbt needs a 2-class or regression table, got 3 classes"),
        "{stderr}"
    );
}

#[test]
fn train_out_repeats_byte_for_byte_under_one_seed() {
    // Results reach the master in scheduling order; the saved model must
    // not show it. `--verbose` reads the task summaries off the trace.
    let dir = std::env::temp_dir().join(format!("ts-same-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let csv = write_csv(&dir);
    let train = |model: &str, extra: &[&str], run: u32| {
        let out_path = dir.join(format!("{model}-{run}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_treeserver"))
            .args(["train", "--csv", csv.to_str().unwrap()])
            .args(["--target", "label", "--task", "class", "--model", model])
            .args(["--workers", "3", "--seed", "5", "--out"])
            .arg(&out_path)
            .args(extra)
            .output()
            .expect("run treeserver");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "train failed:\n{stderr}");
        (std::fs::read(&out_path).expect("model written"), stderr)
    };
    let (dt, stderr) = train("dt", &["--dmax", "12", "--verbose"], 0);
    assert!(stderr.contains("column tasks: n="), "{stderr}");
    assert_eq!(dt, train("dt", &["--dmax", "12"], 1).0);
    let etc = train("etc", &["--trees", "6", "--quiet"], 0).0;
    let again = train("etc", &["--trees", "6", "--quiet"], 1).0;
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(etc, again);
}
