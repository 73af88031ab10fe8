//! bb-telemetry integration: the daemon's Prometheus exposition (protocol
//! op, HTTP listener, `bbv metrics --lint`), the per-job flight recorder
//! (`bbv jobs dump`), the `stats` uptime/journal members, `bbv top --once`,
//! and — most importantly — proof that none of it moves a byte of any
//! verdict: served results with the full telemetry surface enabled are
//! byte-identical to direct runs at 1 and 4 workers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use bb_obs::json::{parse, JsonValue};

fn bbv() -> &'static str {
    env!("CARGO_BIN_EXE_bbv")
}

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bb-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A running daemon, killed and cleaned up on drop.
struct Daemon {
    child: Child,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, args: &[&str]) -> Daemon {
        let child = Command::new(bbv())
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn bbv serve");
        let addr_file = dir.join("serve.addr");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !addr_file.exists() {
            assert!(Instant::now() < deadline, "daemon never published serve.addr");
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon { child, dir: dir.to_path_buf() }
    }

    fn metrics_addr(&self) -> String {
        let file = self.dir.join("serve.metrics-addr");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !file.exists() {
            assert!(Instant::now() < deadline, "daemon never published serve.metrics-addr");
            std::thread::sleep(Duration::from_millis(20));
        }
        std::fs::read_to_string(&file).unwrap().trim().to_string()
    }

    fn drain(mut self) {
        let ok = Command::new(bbv())
            .args(["drain", "--dir"])
            .arg(&self.dir)
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false);
        if ok {
            let deadline = Instant::now() + Duration::from_secs(60);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(30));
            }
        }
        let _ = self.child.kill();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn run_bbv(args: &[&str]) -> Output {
    Command::new(bbv()).args(args).output().expect("run bbv")
}

fn stdout_of(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

// ------------------------------------------------------- metrics exposition

#[test]
fn metrics_exposition_lints_and_covers_daemon_and_obs_series() {
    let dir = tmp("metrics");
    let dir_s = dir.to_str().unwrap();
    let daemon = Daemon::start(&dir, &["--workers", "1", "--metrics-addr", "127.0.0.1:0"]);

    // One real job first, so the obs hot counters and the journal fsync
    // histogram have non-trivial values to export.
    let job = run_bbv(&["submit", "verify", "treiber", "--threads", "2", "--ops", "1",
                        "--dir", dir_s]);
    assert_eq!(job.status.code(), Some(0), "{}", String::from_utf8_lossy(&job.stderr));

    // `bbv metrics --lint` is the CI gate: exposition printed, format-checked.
    let out = run_bbv(&["metrics", "--lint", "--dir", dir_s]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "lint failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout_of(&out);
    bb_obs::prom::lint(&text).expect("exposition passes the strict linter");

    // Serve-layer series.
    for series in [
        "bb_serve_uptime_seconds",
        "bb_serve_queue_depth",
        "bb_serve_queue_cap",
        "bb_serve_workers",
        "bb_serve_retry_after_ms",
        "bb_serve_jobs{state=\"done\"} 1",
        "bb_serve_completed_total 1",
        "bb_serve_journal_replayed_records_total",
    ] {
        assert!(text.contains(series), "missing `{series}` in exposition:\n{text}");
    }
    // bb-obs instruments, mechanically renamed: a verify run refines
    // signatures, and every journal append timed an fsync.
    for series in [
        "bb_bisim_signature_recomputes",
        "bb_serve_journal_fsync_us_bucket",
        "bb_serve_journal_fsync_us_sum",
        "le=\"+Inf\"",
    ] {
        assert!(text.contains(series), "missing `{series}` in exposition:\n{text}");
    }
    // Every stage is serial, so no shard-imbalance series is exported.
    assert!(!text.contains("shard_imbalance_pct"), "{text}");
    let fsync_count = text
        .lines()
        .find(|l| l.starts_with("bb_serve_journal_fsync_us_count"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("fsync histogram has a _count series");
    assert!(fsync_count > 0, "journal appends must have been timed");

    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_listener_serves_the_exposition_and_404s_elsewhere() {
    let dir = tmp("http");
    let daemon = Daemon::start(&dir, &["--workers", "1", "--metrics-addr", "127.0.0.1:0"]);
    let addr = daemon.metrics_addr();

    let get = |path: &str| -> String {
        let mut s = TcpStream::connect(&addr).expect("connect to metrics listener");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("read HTTP response");
        resp
    };

    let ok = get("/metrics");
    assert!(ok.starts_with("HTTP/1.0 200"), "{ok}");
    assert!(ok.contains("text/plain"), "{ok}");
    let body = ok.split("\r\n\r\n").nth(1).expect("response has a body");
    bb_obs::prom::lint(body).expect("scraped document passes the linter");
    assert!(body.contains("bb_serve_uptime_seconds"));

    let missing = get("/nope");
    assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------- flight recorder

#[test]
fn cancelled_job_leaves_a_retrievable_flight_dump() {
    let dir = tmp("flight");
    let dir_s = dir.to_str().unwrap();
    let daemon = Daemon::start(&dir, &["--workers", "1"]);

    // Submit detached and cancel immediately: whether the cancel lands
    // while the job is still queued (synthetic header-only dump) or already
    // running (ring dump), a post-mortem must be persisted and retrievable.
    let submit = run_bbv(&["submit", "verify", "ms-queue", "--threads", "2", "--ops", "2",
                           "--dir", dir_s, "--detach"]);
    let reply = parse(stdout_of(&submit).trim()).expect("submit reply parses");
    let job = reply.get("job").and_then(JsonValue::as_u64).expect("job id");
    let cancel = run_bbv(&["cancel", &job.to_string(), "--dir", dir_s]);
    assert_eq!(cancel.status.code(), Some(0), "{}", String::from_utf8_lossy(&cancel.stderr));

    // The dump appears once the worker (or the cancel path) persists it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let dump = loop {
        let out = run_bbv(&["jobs", "dump", &job.to_string(), "--dir", dir_s]);
        if out.status.code() == Some(0) {
            break stdout_of(&out);
        }
        assert!(Instant::now() < deadline, "flight dump never became retrievable");
        std::thread::sleep(Duration::from_millis(50));
    };
    let header = parse(dump.lines().next().expect("dump has a header")).unwrap();
    assert_eq!(header.get("schema").and_then(JsonValue::as_str), Some("bb-flight/v1"));
    assert_eq!(header.get("job").and_then(JsonValue::as_u64), Some(job));
    let events = header.get("events").and_then(JsonValue::as_u64).unwrap();
    assert_eq!(dump.lines().count() as u64, 1 + events, "header counts the event lines");
    // Every event line carries the ring metadata plus the original event.
    for line in dump.lines().skip(1) {
        let ev = parse(line).unwrap_or_else(|e| panic!("bad dump line ({e}): {line}"));
        assert!(ev.get("seq").and_then(JsonValue::as_u64).is_some());
        assert!(ev.get("t_us").and_then(JsonValue::as_u64).is_some());
        assert!(ev.get("event").and_then(JsonValue::as_str).is_some());
    }
    // The post-mortem lives in the serve directory, atomically written.
    // (The `dump` op may have served the live ring above while the worker
    // was still unwinding — the file lands at the terminal transition.)
    let dump_file = dir.join("flight").join(format!("job-{job}.ndjson"));
    let deadline = Instant::now() + Duration::from_secs(30);
    while !dump_file.exists() {
        assert!(
            Instant::now() < deadline,
            "dump file missing from {}/flight",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // A job that ends conclusively leaves no dump — its story is the result.
    let done = run_bbv(&["submit", "verify", "treiber", "--threads", "2", "--ops", "1",
                         "--dir", dir_s]);
    assert_eq!(done.status.code(), Some(0));
    let conclusive_job = 1 + job; // sequential ids: the next submit
    let no_dump = run_bbv(&["jobs", "dump", &conclusive_job.to_string(), "--dir", dir_s]);
    assert_ne!(no_dump.status.code(), Some(0), "conclusive jobs must not leave dumps");

    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------- stats + bbv top

#[test]
fn stats_reports_uptime_journal_replay_and_active_jobs() {
    let dir = tmp("stats");
    let dir_s = dir.to_str().unwrap();
    let daemon = Daemon::start(&dir, &["--workers", "1"]);

    let out = run_bbv(&["stats", "--dir", dir_s]);
    assert_eq!(out.status.code(), Some(0));
    let v = parse(stdout_of(&out).trim()).expect("stats reply parses");
    assert!(v.get("uptime_ms").and_then(JsonValue::as_u64).is_some(), "{v:?}");
    assert_eq!(
        v.get("journal").and_then(|j| j.get("replayed_records")).and_then(JsonValue::as_u64),
        Some(0),
        "fresh daemon replays nothing"
    );
    assert!(v.get("jobs").and_then(JsonValue::as_array).is_some(), "jobs array present");

    // `bbv top --once` on a pipe degrades to one plain summary line.
    let top = run_bbv(&["top", "--once", "--dir", dir_s]);
    assert_eq!(top.status.code(), Some(0), "{}", String::from_utf8_lossy(&top.stderr));
    let line = stdout_of(&top);
    assert_eq!(line.lines().count(), 1, "non-TTY top prints one line per refresh: {line}");
    assert!(line.contains("queue 0/"), "summary line shape: {line}");
    assert!(line.contains("up "), "summary line shape: {line}");

    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------- neutrality

/// Served-vs-direct byte equality with the full telemetry surface enabled:
/// metrics listener up, flight recorder live, a watcher pulls of `stats`
/// mid-roster. Verdicts, exit codes and stdout must not move.
fn assert_telemetry_neutral(workers: &str) {
    let dir = tmp(&format!("neutral-{workers}"));
    let dir_s = dir.to_str().unwrap();
    let daemon = Daemon::start(
        &dir,
        &["--workers", workers, "--metrics-addr", "127.0.0.1:0"],
    );

    // Proved (exit 0) and refuted (exit 1) cases, both compared byte-for-byte.
    let cases: &[&[&str]] = &[
        &["verify", "treiber", "--threads", "2", "--ops", "1"],
        &["verify", "hw-queue", "--threads", "2", "--ops", "1"],
    ];
    for case in cases {
        let direct = run_bbv(case);
        let mut served_args: Vec<&str> = vec!["submit"];
        served_args.extend_from_slice(case);
        served_args.extend_from_slice(&["--dir", dir_s]);
        let served = run_bbv(&served_args);
        // Exercise the telemetry surface between jobs, as a scraper would.
        assert_eq!(run_bbv(&["metrics", "--lint", "--dir", dir_s]).status.code(), Some(0));
        assert_eq!(
            stdout_of(&served),
            stdout_of(&direct),
            "telemetry changed served stdout for {case:?} at {workers} workers"
        );
        assert_eq!(
            served.status.code(),
            direct.status.code(),
            "telemetry changed the exit code for {case:?} at {workers} workers"
        );
    }

    // Artifact bytes: a served quotient `.aut` equals the direct one.
    let direct_aut = dir.join("direct.aut");
    let served_aut = dir.join("served.aut");
    let direct = run_bbv(&["quotient", "treiber", "--threads", "2", "--ops", "1",
                           "--aut", direct_aut.to_str().unwrap()]);
    let served = run_bbv(&["submit", "quotient", "treiber", "--threads", "2", "--ops", "1",
                           "--aut", served_aut.to_str().unwrap(), "--dir", dir_s]);
    assert_eq!(direct.status.code(), Some(0));
    assert_eq!(served.status.code(), Some(0));
    assert_eq!(
        std::fs::read(&direct_aut).unwrap(),
        std::fs::read(&served_aut).unwrap(),
        ".aut bytes changed under telemetry at {workers} workers"
    );

    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_is_byte_neutral_at_one_worker() {
    assert_telemetry_neutral("1");
}

#[test]
fn telemetry_is_byte_neutral_at_four_workers() {
    assert_telemetry_neutral("4");
}
