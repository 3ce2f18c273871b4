//! Process-level CLI contract: `--help` succeeds on stdout, and a
//! closed stdout ends a command quietly with exit 0 — never a panic.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_placesim-cli");

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("placesim-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn gen(dir: &Path, format: &str) -> String {
    let path = dir.join(format!("fft-{format}.trace"));
    let status = Command::new(BIN)
        .args(["gen", "fft"])
        .arg(&path)
        .args(["--scale", "0.002", "--seed", "3", "--format", format])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "gen {format} failed");
    path.to_str().unwrap().to_owned()
}

/// Runs the binary with the read end of its stdout pipe already closed,
/// so its first write fails with a broken pipe.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    Command::new(BIN)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
        .wait_with_output()
        .unwrap()
}

#[test]
fn help_prints_usage_to_stdout() {
    for flag in ["--help", "-h"] {
        let out = Command::new(BIN).arg(flag).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("usage:"), "{flag}: {stdout}");
        assert!(stdout.contains("exit codes:"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
    }
}

#[test]
fn closed_stdout_exits_quietly() {
    let dir = tmp_dir("closed-stdout");
    let v2 = gen(&dir, "v2");
    let v3 = gen(&dir, "v3");
    for args in [
        vec!["suite"],
        vec!["--help"],
        vec!["info", &v2],
        vec!["info", &v3],
        vec!["analyze", &v2],
        vec!["simulate", &v2, "LOAD-BAL", "2"],
    ] {
        let out = run_with_closed_stdout(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
