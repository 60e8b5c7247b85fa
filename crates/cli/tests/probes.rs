//! Bad input through the real `treeserver` binary: every probe must exit 1
//! with an error that names the option at fault — never a panic (101),
//! never a hang, never a silent exit 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `treeserver args` with a watchdog; returns the exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_treeserver"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn treeserver");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("treeserver {args:?} hung");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts that `args` fail with exit code 1 and an error naming `needle`.
fn refused(args: &[&str], needle: &str) {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(1), "treeserver {args:?}:\n{stderr}");
    let error = stderr.lines().next().unwrap_or_default();
    assert!(
        error.starts_with("error: ") && error.contains(needle),
        "treeserver {args:?}: error does not name {needle}:\n{stderr}"
    );
}

/// A scratch directory with a learnable two-class CSV (`f.csv`), a
/// three-class one (`three.csv`), a ragged one and a JSON file that is no
/// model.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ts-probes-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let mut two = String::from("f0,f1,label\n");
    let mut three = two.clone();
    for i in 0..120u32 {
        let label = if i % 97 > 48 { "pos" } else { "neg" };
        two.push_str(&format!("{},{},{label}\n", i % 97, (i * 7) % 89));
        three.push_str(&format!(
            "{i},{},{}\n",
            i % 5,
            ["a", "b", "c"][i as usize % 3]
        ));
    }
    std::fs::write(dir.join("f.csv"), two).expect("write csv");
    std::fs::write(dir.join("three.csv"), three).expect("write csv");
    std::fs::write(dir.join("ragged.csv"), "f0,f1,label\n1,2,pos\n3,neg\n").expect("write csv");
    std::fs::write(dir.join("other.json"), "{\"rows\": 3}").expect("write json");
    dir
}

fn path(dir: &Path, file: &str) -> String {
    dir.join(file).to_str().expect("utf-8 path").to_string()
}

#[test]
fn the_verify_skill_probes_fail_by_name() {
    let dir = scratch("skill");
    let csv = path(&dir, "f.csv");
    let data = ["--csv", &csv, "--target", "label", "--task", "class"];
    let train = |extra: &[&'static str]| [&["train"], &data[..], extra].concat();

    refused(&["train", "--csv", &csv, "--task", "class"], "--target");
    refused(&train(&["--task", "banana"]), "--task");
    refused(&["train", "--csv", &csv, "--target"], "--target");
    refused(&train(&["--tress", "50"]), "--tress");
    let other = path(&dir, "other.json");
    refused(
        &[&["predict", "--model", &other], &data[..]].concat(),
        "--model",
    );
    let ragged = path(&dir, "ragged.csv");
    refused(
        &[
            "train", "--csv", &ragged, "--target", "label", "--task", "class",
        ],
        "--csv",
    );
    refused(&train(&["--model", "svm"]), "--model");
    refused(&train(&["--drop-prob", "1"]), "--drop-prob");
    let three = path(&dir, "three.csv");
    let gbt = [
        "train", "--csv", &three, "--target", "label", "--task", "class", "--model", "gbt",
    ];
    refused(&gbt, "--model gbt");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_knobs_of_zero_fail_by_name() {
    // Each of these panicked inside the request tier up to commit 1a63857.
    let data = [
        "--model", "m.json", "--csv", "f.csv", "--target", "label", "--task", "class",
    ];
    for knob in ["--max-batch", "--queue-cap", "--latency-budget-us"] {
        refused(&[&["serve"], &data[..], &[knob, "0"]].concat(), knob);
    }
}

#[test]
fn a_forest_of_no_trees_fails_by_name() {
    // `rf` and `etc` hung and `gbt` panicked up to commit 1a63857.
    let data = ["--csv", "f.csv", "--target", "label", "--task", "class"];
    for model in ["rf", "etc", "gbt"] {
        let args = [&["train"], &data[..], &["--model", model, "--trees", "0"]].concat();
        refused(&args, "--trees");
    }
}

#[test]
fn an_option_of_another_command_fails_by_name() {
    // Both exited 0 with the option ignored up to commit 1a63857.
    let data = [
        "--model", "m.json", "--csv", "f.csv", "--target", "label", "--task", "class",
    ];
    refused(
        &[&["predict"], &data[..], &["--workers", "2"]].concat(),
        "--workers",
    );
    refused(&["show", "--model", "m.json", "--trees", "5"], "--trees");
}
