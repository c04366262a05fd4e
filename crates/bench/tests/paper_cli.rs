//! Command-line contract of the `paper` binary: bad arguments and failed
//! JSON writes end the run with a non-zero status instead of being ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("paper binary runs")
}

/// A fresh, empty directory for this test under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paper_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn an_unknown_scale_is_rejected_with_exit_status_2() {
    let out = paper(&["tab3_1", "smok"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no table may be printed for a rejected scale");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scale"));
}

#[test]
fn json_without_a_directory_is_rejected() {
    let out = paper(&["tab3_1", "smoke", "--json"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn tables_are_written_as_json() {
    let dir = scratch_dir("ok");
    let out = paper(&["tab3_1", "smoke", "--json", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let body = std::fs::read_to_string(dir.join("tab3_1.json")).unwrap();
    assert!(body.contains("\"id\": \"tab3_1\""));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_json_write_is_reported_and_fails_the_run() {
    // A regular file where the output directory should be: creating the
    // directory fails.
    let dir = scratch_dir("fail");
    let blocker = dir.join("not_a_dir");
    std::fs::write(&blocker, b"").unwrap();
    let out = paper(&["tab3_1", "smoke", "--json", blocker.join("out").to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot write"));
    std::fs::remove_dir_all(&dir).unwrap();
}
