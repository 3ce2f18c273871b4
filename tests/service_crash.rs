//! Out-of-process crash proof for `placesim-cli serve`: SIGKILL the
//! daemon mid-job, restart it on the same directory, and require the
//! resumed job's result bytes to be identical to an uninterrupted
//! daemon's. The durable queue — jobs journaled before acknowledgment,
//! results journaled before exposure — is what makes this hold.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_placesim-cli");

/// A sweep big enough that a single-worker daemon is reliably still
/// mid-job when the kill lands (~12 cells at scale 0.01).
const SWEEP_JOB: &str = "{\"op\": \"sweep\", \"app\": \"water\", \"scale\": 0.01, \
                         \"seed\": 3, \
                         \"algorithms\": [\"RANDOM\", \"LOAD-BAL\", \"SHARE-REFS\", \"SHARE-ADDR\"], \
                         \"processors\": [2, 4, 8]}";

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "placesim-service-crash-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn spawn_daemon(dir: &Path) -> Child {
    Command::new(BIN)
        .args(["serve", "--dir"])
        .arg(dir)
        .args(["--workers", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon must spawn")
}

/// Polls until the daemon's socket accepts a connection.
fn connect(dir: &Path) -> UnixStream {
    let socket = dir.join("service.sock");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match UnixStream::connect(&socket) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("daemon never came up on {}: {e}", socket.display()),
        }
    }
}

/// One request, one response line.
fn roundtrip(stream: &mut UnixStream, request: &str) -> String {
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_owned()
}

/// Pulls a `"field": <number>` value out of a response line. The
/// responses are canonical JSON from our own writer, so the textual
/// probe is exact.
fn u64_field(resp: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\": ");
    let at = resp
        .find(&pat)
        .unwrap_or_else(|| panic!("no {field} in {resp}"));
    resp[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

fn submit(stream: &mut UnixStream, job: &str) -> u64 {
    let resp = roundtrip(
        stream,
        &format!("{{\"schema\": \"placesim-service-v1\", \"op\": \"submit\", \"job\": {job}}}"),
    );
    assert!(resp.contains("\"ok\": true"), "submit refused: {resp}");
    u64_field(&resp, "id")
}

/// Waits for a job and returns the full response line (which embeds
/// the result bytes as a JSON string field).
fn wait_done(stream: &mut UnixStream, id: u64) -> String {
    let resp = roundtrip(
        stream,
        &format!(
            "{{\"schema\": \"placesim-service-v1\", \"op\": \"wait\", \"id\": {id}, \
             \"timeout_ms\": 600000}}"
        ),
    );
    assert!(
        resp.contains("\"state\": \"done\""),
        "job {id} not done: {resp}"
    );
    resp
}

/// Polls the job's state over the wire until the worker has picked it
/// up, so a kill sent right after lands mid-job on any build profile.
fn wait_running(stream: &mut UnixStream, id: u64) {
    let request =
        format!("{{\"schema\": \"placesim-service-v1\", \"op\": \"result\", \"id\": {id}}}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = roundtrip(stream, &request);
        if resp.contains("\"state\": \"running\"") {
            return;
        }
        assert!(
            resp.contains("\"state\": \"queued\""),
            "job {id} left the queue without being seen running: {resp}"
        );
        assert!(Instant::now() < deadline, "job {id} never started: {resp}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn shutdown(dir: &Path, mut child: Child) {
    let mut stream = connect(dir);
    let resp = roundtrip(
        &mut stream,
        "{\"schema\": \"placesim-service-v1\", \"op\": \"shutdown\"}",
    );
    assert!(resp.contains("\"ok\": true"), "{resp}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match child.try_wait().unwrap() {
            Some(status) => {
                assert!(status.success(), "daemon exited {status}");
                return;
            }
            None if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            None => {
                child.kill().ok();
                panic!("daemon ignored shutdown for 60 s");
            }
        }
    }
}

/// Extracts the embedded result string (still escaped) from a wait
/// response: the bytes between `"result": "` and the closing quote of
/// that field. Comparing the escaped form compares the raw bytes.
fn result_bytes(resp: &str) -> String {
    let pat = "\"result\": \"";
    let start = resp.find(pat).expect("response carries a result") + pat.len();
    let tail = &resp[start..];
    let mut end = 0;
    let bytes = tail.as_bytes();
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => break,
            _ => end += 1,
        }
    }
    tail[..end].to_owned()
}

#[test]
fn sigkilled_daemon_resumes_to_byte_identical_results() {
    // Reference: an uninterrupted daemon runs the job to completion.
    let ref_dir = tmp_dir("ref");
    let ref_child = spawn_daemon(&ref_dir);
    let mut stream = connect(&ref_dir);
    let ref_id = submit(&mut stream, SWEEP_JOB);
    let expected = result_bytes(&wait_done(&mut stream, ref_id));
    assert!(expected.contains("sweep"), "implausible result: {expected}");
    drop(stream);
    shutdown(&ref_dir, ref_child);

    // Victim: same job, but SIGKILL lands while the worker is mid-sweep.
    // The submit was acknowledged, so the job is journaled; nothing else
    // about the in-flight attempt survives the kill.
    let dir = tmp_dir("victim");
    let mut child = spawn_daemon(&dir);
    let mut stream = connect(&dir);
    let id = submit(&mut stream, SWEEP_JOB);
    wait_running(&mut stream, id);
    child.kill().expect("SIGKILL");
    child.wait().unwrap();
    drop(stream);

    // The kill must not have left a completed result behind — the job
    // journal has the acceptance record only.
    let journal = std::fs::read_to_string(dir.join("service.journal")).unwrap();
    assert!(journal.contains("\"kind\": \"job\""), "job record missing");
    assert!(
        !journal.contains("\"kind\": \"done\""),
        "kill landed after the job finished"
    );

    // Restart on the same directory: the stale lockfile (dead PID) is
    // reclaimed, the journaled job re-enqueued and run to completion.
    let child = spawn_daemon(&dir);
    let mut stream = connect(&dir);
    let resumed = result_bytes(&wait_done(&mut stream, id));
    assert_eq!(
        resumed, expected,
        "resumed result must be byte-identical to the uninterrupted run"
    );
    drop(stream);
    shutdown(&dir, child);

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
