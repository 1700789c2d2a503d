//! End-to-end robustness tests driving the real `rms` binary: the
//! documented exit-code taxonomy, panic isolation via the fault-injection
//! registry, deadline behavior, crash-safe cache persistence across
//! `kill -9`, torn-journal-tail recovery, and (on Unix) the SIGTERM
//! graceful-shutdown path of the HTTP server.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn rms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rms"))
}

fn exit_code(out: &std::process::Output) -> i32 {
    out.status.code().expect("process terminated by signal")
}

// ---------------------------------------------------------------- exit codes

#[test]
fn usage_error_exits_2() {
    let out = rms().args(["run", "--nope"]).output().unwrap();
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let out = rms().arg("frobnicate").output().unwrap();
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let out = rms().output().unwrap();
    assert_eq!(exit_code(&out), 2, "no subcommand: {out:?}");
    // Removed engine and knob spellings are rejected, not ignored.
    for removed in [
        ["--engine", "from-scratch"],
        ["--engine", "rebuild"],
        ["--engine", "incremental"],
        ["--cut-cache", "64"],
        ["--par-threshold", "0"],
    ] {
        let out = rms()
            .args(["run", "--expr", "f = a & b", "--opt", "cut"])
            .args(removed)
            .output()
            .unwrap();
        assert_eq!(exit_code(&out), 2, "{removed:?}: {out:?}");
    }
    // The removed profile flags of `rms bench` are rejected too.
    for removed in [
        &["--profile"][..],
        &["--suite", "large"],
        &["--iters", "3"],
        &["--out", "x.json"],
    ] {
        let out = rms().arg("bench").args(removed).output().unwrap();
        assert_eq!(exit_code(&out), 2, "{removed:?}: {out:?}");
    }
}

#[test]
fn closed_stdout_exits_1_without_a_panic() {
    // `rms compile ... | head -c1`: the reader goes away before the
    // listing is written, which is an output I/O failure, not a crash.
    let mut child = rms()
        .args(["compile", "--bench", "apex1", "--listing"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 1, "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("rms: stdout:"), "{err}");
}

#[test]
fn parse_error_exits_3() {
    let out = rms().args(["run", "--expr", "f = ("]).output().unwrap();
    assert_eq!(exit_code(&out), 3, "{out:?}");
    let out = rms()
        .args(["run", "--input", "/nonexistent/not-here.blif"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 3, "{out:?}");
}

#[test]
fn verification_failure_exits_4() {
    // rd53 bit 0 vs bit 1: genuinely different functions.
    let out = rms()
        .args(["verify", "bench:rd53_f1", "bench:rd53_f2"])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 4, "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("NOT equivalent"), "{err}");
}

#[test]
fn expired_deadline_exits_5() {
    let out = rms()
        .args([
            "run",
            "--bench",
            "misex1",
            "--opt",
            "rram",
            "--timeout",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 5, "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cycles at the request deadline (re-run with best-effort"),
        "{err}"
    );
}

#[test]
fn expired_deadline_with_best_effort_succeeds() {
    let out = rms()
        .args([
            "run",
            "--bench",
            "rd53_f2",
            "--opt",
            "rram",
            "--timeout",
            "0",
            "--best-effort",
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"cancelled\":true"), "{text}");
}

#[test]
fn injected_panic_exits_6() {
    let out = rms()
        .args(["run", "--expr", "f = a & b"])
        .env("RMS_FAULTS", "cli-panic:1")
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 6, "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("internal error"), "{err}");
}

#[test]
fn clean_run_exits_0() {
    let out = rms()
        .args([
            "run", "--bench", "rd53_f2", "--opt", "rram", "--effort", "2",
        ])
        .output()
        .unwrap();
    assert_eq!(exit_code(&out), 0, "{out:?}");
}

// ------------------------------------------------------------- serve harness

struct ServeProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ServeProc {
    fn spawn(cache_dir: &std::path::Path) -> ServeProc {
        let mut child = rms()
            .arg("serve")
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rms serve");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        ServeProc {
            child,
            stdin,
            stdout,
        }
    }

    /// Sends one request line and reads one response line.
    fn round_trip(&mut self, request: &str) -> String {
        writeln!(self.stdin, "{request}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read response");
        assert!(!line.is_empty(), "serve closed the stream unexpectedly");
        line.trim_end().to_string()
    }

    fn kill_hard(mut self) {
        // SIGKILL: no destructors, no shutdown hook — the journal had
        // better already be durable.
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }
}

/// Extracts the `"report":{...}` object (brace-matched) from a response
/// line, so hits can be compared byte-for-byte without the request id
/// and cache-disposition fields that legitimately differ.
fn extract_report(line: &str) -> &str {
    let start = line.find("\"report\":").expect("response has a report") + "\"report\":".len();
    let bytes = line.as_bytes();
    assert_eq!(bytes[start], b'{', "report is an object");
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if escape {
            escape = false;
            continue;
        }
        match b {
            b'\\' if in_str => escape = true,
            b'"' => in_str = !in_str,
            b'{' if !in_str => depth += 1,
            b'}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return &line[start..=i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated report object in {line}");
}

const WARM_REQUEST: &str = r#"{"id":"r1","bench":"rd53_f2","effort":2}"#;

// ------------------------------------------------------- restart durability

#[test]
fn warm_hits_survive_kill_dash_nine_byte_identical() {
    let dir = std::env::temp_dir().join(format!("rms-robust-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold miss, then a warm hit whose bytes we keep.
    let mut serve = ServeProc::spawn(&dir);
    let miss = serve.round_trip(WARM_REQUEST);
    assert!(miss.contains("\"cache\":\"miss\""), "{miss}");
    let hit_before = serve.round_trip(r#"{"id":"warm","bench":"rd53_f2","effort":2}"#);
    assert!(hit_before.contains("\"cache\":\"hit\""), "{hit_before}");

    // kill -9: no clean shutdown, no compaction.
    serve.kill_hard();
    assert!(
        dir.join("journal.rms").exists(),
        "journal file written before the crash"
    );

    // A fresh process must replay the journal and serve the same bytes.
    let mut serve = ServeProc::spawn(&dir);
    let hit_after = serve.round_trip(r#"{"id":"warm","bench":"rd53_f2","effort":2}"#);
    assert!(hit_after.contains("\"cache\":\"hit\""), "{hit_after}");
    assert!(
        hit_after.contains("\"request_id\":\"r1\""),
        "provenance preserved across the crash: {hit_after}"
    );
    assert_eq!(
        extract_report(&hit_before),
        extract_report(&hit_after),
        "warm hit must be byte-identical across kill -9"
    );
    assert_eq!(hit_before, hit_after, "entire response line is identical");
    serve.kill_hard();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_recovered() {
    let dir = std::env::temp_dir().join(format!("rms-robust-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut serve = ServeProc::spawn(&dir);
    let first = serve.round_trip(WARM_REQUEST);
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    let second = serve.round_trip(r#"{"id":"r2","bench":"rd53_f1","effort":2}"#);
    assert!(second.contains("\"cache\":\"miss\""), "{second}");
    serve.kill_hard();

    // Tear the tail: chop bytes off the last record, as a crash mid-write
    // would.
    let journal = dir.join("journal.rms");
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 7]).unwrap();

    // The surviving prefix must still replay: first entry hits, the torn
    // second entry recomputes as a miss, and new appends keep working.
    let mut serve = ServeProc::spawn(&dir);
    let hit = serve.round_trip(r#"{"id":"again","bench":"rd53_f2","effort":2}"#);
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    assert!(hit.contains("\"request_id\":\"r1\""), "{hit}");
    let recomputed = serve.round_trip(r#"{"id":"again2","bench":"rd53_f1","effort":2}"#);
    assert!(
        recomputed.contains("\"cache\":\"miss\""),
        "torn entry was discarded: {recomputed}"
    );
    serve.kill_hard();
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------- panic isolation over the wire

#[test]
fn serve_isolates_injected_panic_and_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("rms-robust-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut child = rms()
        .arg("serve")
        .arg("--cache-dir")
        .arg(&dir)
        .env("RMS_FAULTS", "request-panic-gate")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rms serve");
    let stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let mut serve = ServeProc {
        child,
        stdin,
        stdout,
    };

    let miss = serve.round_trip(WARM_REQUEST);
    assert!(miss.contains("\"cache\":\"miss\""), "{miss}");

    let boom = serve.round_trip(r#"{"id":"boom","bench":"rd53_f2","fault":"panic"}"#);
    assert!(boom.contains("\"status\":\"error\""), "{boom}");
    assert!(boom.contains("\"kind\":\"internal_error\""), "{boom}");
    assert!(boom.contains("\"id\":\"boom\""), "{boom}");

    // The process survived and the cache still answers.
    let hit = serve.round_trip(r#"{"id":"after","bench":"rd53_f2","effort":2}"#);
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    serve.kill_hard();
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------- per-request deadlines

#[test]
fn serve_request_deadline_is_a_structured_timeout() {
    let dir = std::env::temp_dir().join(format!("rms-robust-deadline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut serve = ServeProc::spawn(&dir);

    let timed_out = serve.round_trip(r#"{"id":"slow","bench":"xl_ctrl10k","deadline_ms":1}"#);
    assert!(timed_out.contains("\"status\":\"error\""), "{timed_out}");
    assert!(timed_out.contains("\"kind\":\"timeout\""), "{timed_out}");

    // The same connection keeps serving: an untimed request completes.
    let ok = serve.round_trip(r#"{"id":"fast","bench":"rd53_f2","effort":2}"#);
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");

    // Best-effort on an expired deadline: verified truncated result,
    // never cached.
    let best =
        serve.round_trip(r#"{"id":"be","bench":"rd53_f1","deadline_ms":0,"best_effort":true}"#);
    assert!(best.contains("\"status\":\"ok\""), "{best}");
    assert!(best.contains("\"cache\":\"bypass\""), "{best}");
    let again = serve.round_trip(r#"{"id":"be2","bench":"rd53_f1","effort":2}"#);
    assert!(
        again.contains("\"cache\":\"miss\""),
        "truncated result was not cached: {again}"
    );
    serve.kill_hard();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- SIGTERM graceful shutdown

#[cfg(unix)]
#[test]
fn sigterm_drains_http_server_and_compacts_journal() {
    let dir = std::env::temp_dir().join(format!("rms-robust-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut child = rms()
        .args(["serve", "--http", "127.0.0.1:0", "--cache-dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rms serve --http");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    // The server prints its real bound address on stdout.
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .to_string();

    // One real request so there is something to journal and drain.
    let response = http_post(
        &addr,
        "/synth",
        r#"{"id":"h1","bench":"rd53_f2","effort":2}"#,
    );
    assert!(response.contains("\"cache\":\"miss\""), "{response}");

    // SIGTERM → accept loop stops, in-flight work drains, journal
    // compacts, process exits 0.
    let pid = child.id();
    let killed = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success());

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "server did not exit on SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");

    // The compacted journal replays in a fresh process: warm hit.
    let mut serve = ServeProc::spawn(&dir);
    let hit = serve.round_trip(r#"{"id":"h2","bench":"rd53_f2","effort":2}"#);
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    assert!(hit.contains("\"request_id\":\"h1\""), "{hit}");
    serve.kill_hard();
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
fn http_post(addr: &str, path: &str, body: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}
