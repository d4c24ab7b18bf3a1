//! End-to-end tests of the `dragon serve` daemon and its client: the full
//! request lifecycle, restart recovery, protocol robustness, and — under
//! `--features fault-injection` — deadline enforcement, admission control,
//! and panic containment with a *live* wedged worker.

mod serve_common;

use serve_common::*;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use support::json::Value;
use support::testdir::TestDir;

// ---------------------------------------------------------------------------
// Lifecycle and recovery

#[test]
fn serve_lifecycle_analyze_lint_query_stats_shutdown() {
    let dir = TestDir::new("serve-e2e");
    let cache = dir.join("cache");
    let mut d = Daemon::start(
        dir.join("d.sock"),
        &["--cache-dir", cache.to_str().expect("utf8"), "--workers", "2"],
        &[],
    );
    let o = copts(&d.socket);

    let r = call_ok(&o, &analyze_req(1, "analyze", "alpha", &sources_v1(), None));
    assert_eq!(result_u64(&r, "procedures"), 3, "{}", r.render());
    assert!(result_u64(&r, "rows") > 0, "{}", r.render());
    assert_eq!(r.get("degraded").and_then(Value::as_bool), Some(false));
    assert_eq!(r.get("deadline_expired").and_then(Value::as_bool), Some(false));

    // Reanalyze the edit: the warm session reuses the unchanged summaries.
    let r = call_ok(&o, &analyze_req(2, "reanalyze", "alpha", &sources_v2(), None));
    assert!(result_u64(&r, "summary_cache_hits") >= 1, "{}", r.render());

    let r = call_ok(&o, &plain_req(3, "lint", "alpha"));
    assert!(r.get("findings").and_then(Value::as_arr).is_some(), "{}", r.render());

    let r = call_ok(&o, &plain_req(4, "query-rgn", "alpha"));
    let rgn = r.get("rgn").and_then(Value::as_str).expect("rgn string");
    assert!(rgn.contains('a') && !rgn.is_empty());

    let r = call_ok(&o, &plain_req(5, "stats", "alpha"));
    assert!(result_u64(&r, "requests") >= 5, "{}", r.render());
    assert!(result_u64(&r, "sessions") >= 1, "{}", r.render());
    assert_eq!(result_u64(&r, "workers"), 2, "{}", r.render());
    assert_eq!(result_u64(&r, "panics"), 0, "{}", r.render());

    // Reanalyze of a project the daemon has never seen must not silently
    // cold-start a session.
    let resp = dragon::serve::client::call(
        &o,
        &analyze_req(6, "reanalyze", "typo", &sources_v1(), None),
    )
    .expect("call");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(error_kind(&resp), "bad-request");

    let r = call_ok(&o, &plain_req(7, "shutdown", "alpha"));
    assert_eq!(r.get("draining").and_then(Value::as_bool), Some(true));
    let status = d.wait_exit(Duration::from_secs(30));
    assert!(status.success(), "graceful shutdown exits cleanly: {status}");

    // The drain persisted the session and removed the socket.
    let pdir = cache.join(format!("p{:016x}", support::hash::fnv1a(b"alpha")));
    assert!(pdir.join("manifest.araa").exists(), "session persisted at drain");
    assert!(pdir.join("project.name").exists());
    assert!(!d.socket.exists(), "socket removed on clean exit");
}

/// `query-rgn` serves each analysis state's `.rgn` from memory: a read
/// after an edit sees the edited document, and a refused `reanalyze`
/// keeps the state, so the next read is the previous one byte for byte.
#[test]
fn reads_follow_every_write_and_nothing_else() {
    let dir = TestDir::new("serve-reads");
    let mut d = Daemon::start(dir.join("d.sock"), &[], &[]);
    let o = copts(&d.socket);
    let cold = |sources: &[(&str, &str)]| {
        let files = sources
            .iter()
            .map(|&(name, text)| frontend::SourceFile::new(name, text, whirl::Lang::Fortran));
        araa::Analysis::analyze(files, araa::AnalysisOptions::default())
            .expect("cold run")
            .rgn_document()
    };
    let read = |id| {
        let r = call_ok(&o, &plain_req(id, "query-rgn", "p"));
        r.get("rgn").and_then(Value::as_str).expect("rgn string").to_string()
    };

    call_ok(&o, &analyze_req(1, "analyze", "p", &sources_v1(), None));
    let first = read(2);
    assert_eq!(first, cold(&sources_v1()));
    assert_eq!(read(3), first);

    call_ok(&o, &analyze_req(4, "reanalyze", "p", &sources_v2(), None));
    let edited = read(5);
    assert_eq!(edited, cold(&sources_v2()));
    assert_ne!(edited, first);

    // A source set with no procedure fails in assembly, before the
    // previous state is touched.
    let empty = [("empty.f", "! no procedure here\n")];
    let resp = dragon::serve::client::call(&o, &analyze_req(6, "reanalyze", "p", &empty, None))
        .expect("call");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{}", resp.render());
    let message = resp.get("error").and_then(|e| e.get("message")).and_then(Value::as_str);
    assert!(message.is_some_and(|m| m.starts_with("analysis failed")), "{}", resp.render());
    assert_eq!(read(7), edited);

    call_ok(&o, &plain_req(8, "shutdown", "p"));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

#[test]
fn restart_recovers_sessions_and_serves_identical_bytes() {
    let dir = TestDir::new("serve-recover");
    let cache = dir.join("cache");
    let cache_str = cache.to_str().expect("utf8").to_string();
    let cache_args = ["--cache-dir", cache_str.as_str()];

    let rgn_before;
    {
        let mut d = Daemon::start(dir.join("d.sock"), &cache_args, &[]);
        let o = copts(&d.socket);
        call_ok(&o, &analyze_req(1, "analyze", "beta", &sources_v1(), None));
        let r = call_ok(&o, &plain_req(2, "query-rgn", "beta"));
        rgn_before = r.get("rgn").and_then(Value::as_str).expect("rgn").to_string();
        call_ok(&o, &plain_req(3, "shutdown", "beta"));
        assert!(d.wait_exit(Duration::from_secs(30)).success());
    }

    // A fresh daemon over the same cache root warms the session at startup:
    // the very first request is a query against recovered state, and the
    // answer is byte-identical to the pre-restart one.
    let mut d = Daemon::start(dir.join("d.sock"), &cache_args, &[]);
    let o = copts(&d.socket);
    let r = call_ok(&o, &plain_req(10, "query-rgn", "beta"));
    let rgn_after = r.get("rgn").and_then(Value::as_str).expect("rgn");
    assert_eq!(rgn_after, rgn_before, "recovered session must serve identical bytes");
    let r = call_ok(&o, &plain_req(11, "stats", "beta"));
    assert!(result_u64(&r, "sessions") >= 1, "{}", r.render());
    call_ok(&o, &plain_req(12, "shutdown", "beta"));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

// ---------------------------------------------------------------------------
// In-process embedding

/// Runs a one-worker daemon on a thread of this process, as perfbench and
/// the serve load bench embed it, and waits until it accepts.
fn start_in_process(socket: PathBuf) -> JoinHandle<()> {
    let opts = dragon::serve::ServeOptions {
        socket: socket.clone(),
        workers: 1,
        ..dragon::serve::ServeOptions::default()
    };
    let handle = std::thread::spawn(move || dragon::serve::run(opts).expect("daemon runs"));
    let start = Instant::now();
    while UnixStream::connect(&socket).is_err() {
        assert!(
            start.elapsed() < Duration::from_secs(30) && !handle.is_finished(),
            "in-process daemon did not come up on {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle
}

#[test]
fn shutting_down_one_in_process_daemon_leaves_another_serving() {
    let dir = TestDir::new("serve-two-daemons");
    let (sock_a, sock_b) = (dir.join("a.sock"), dir.join("b.sock"));
    let a = start_in_process(sock_a.clone());
    let b = start_in_process(sock_b.clone());

    // Each daemon owns its stop flag: draining `a` must not drain `b`.
    call_ok(&copts(&sock_a), &plain_req(1, "shutdown", "x"));
    a.join().expect("daemon a drains and returns");
    let h = call_ok(&copts(&sock_b), &plain_req(2, "health", "x"));
    assert!(h.get("uptime_ms").and_then(Value::as_u64).is_some(), "{}", h.render());

    call_ok(&copts(&sock_b), &plain_req(3, "shutdown", "x"));
    b.join().expect("daemon b drains and returns");
}

// ---------------------------------------------------------------------------
// Protocol robustness

#[test]
fn malformed_requests_get_responses_not_disconnects() {
    let dir = TestDir::new("serve-proto");
    let mut d = Daemon::start(dir.join("d.sock"), &[], &[]);
    let mut stream = UnixStream::connect(&d.socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");

    let resp = raw_roundtrip(&mut stream, "this is not json");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(error_kind(&resp), "bad-request");

    let resp = raw_roundtrip(&mut stream, r#"{"id":5,"op":"levitate"}"#);
    assert_eq!(resp.get("id").and_then(Value::as_u64), Some(5), "id echoed");
    assert_eq!(error_kind(&resp), "bad-request");

    let resp = raw_roundtrip(&mut stream, r#"{"id":6,"op":"analyze","sources":[]}"#);
    assert_eq!(error_kind(&resp), "bad-request");

    // Three bad requests later, the same connection still serves.
    let resp = raw_roundtrip(&mut stream, &plain_req(7, "stats", "x").render());
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));

    let o = copts(&d.socket);
    call_ok(&o, &plain_req(8, "shutdown", "x"));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

#[test]
fn stale_socket_is_reclaimed_and_live_socket_refused() {
    let dir = TestDir::new("serve-sock");
    let socket = dir.join("d.sock");
    // Litter from a crashed daemon: a path with no listener behind it.
    std::fs::write(&socket, b"stale").expect("write litter");
    let mut d = Daemon::start(socket.clone(), &[], &[]);

    // A second daemon against the *live* socket must refuse, fast.
    let out = dragon()
        .args(["serve", "--socket", socket.to_str().expect("utf8")])
        .output()
        .expect("run second daemon");
    assert!(!out.status.success(), "second daemon must refuse to start");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("live daemon"), "{stderr}");

    let o = copts(&d.socket);
    call_ok(&o, &plain_req(1, "shutdown", "x"));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

#[test]
fn client_subcommand_round_trips() {
    let dir = TestDir::new("serve-cli");
    let mut d = Daemon::start(dir.join("d.sock"), &[], &[]);
    let socket = d.socket.to_str().expect("utf8").to_string();
    let src = dir.join("small.f");
    std::fs::write(
        &src,
        "program main\n  real a(5)\n  common /g/ a\n  integer i\n  do i = 1, 5\n    a(i) = 0.0\n  end do\nend\n",
    )
    .expect("write source");
    let out = dragon()
        .args([
            "client",
            "--socket",
            &socket,
            "analyze",
            "--project",
            "cli-demo",
            src.to_str().expect("utf8"),
        ])
        .output()
        .expect("run client");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let resp = Value::parse(stdout.trim()).expect("client prints the response JSON");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{stdout}");

    let out = dragon()
        .args(["client", "--socket", &socket, "levitate"])
        .output()
        .expect("run client");
    assert!(!out.status.success(), "unknown op must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown op"));

    let out = dragon()
        .args(["client", "--socket", &socket, "shutdown"])
        .output()
        .expect("run client");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

#[test]
fn health_op_frame_cap_and_client_ping() {
    let dir = TestDir::new("serve-health");
    let mut d = Daemon::start(
        dir.join("d.sock"),
        &["--workers", "2", "--max-frame-bytes", "4096"],
        &[],
    );
    let o = copts(&d.socket);

    // Warm one session so health has something to report.
    call_ok(&o, &analyze_req(1, "analyze", "alpha", &sources_v1(), None));

    let h = call_ok(&o, &plain_req(2, "health", "alpha"));
    assert!(h.get("uptime_ms").and_then(Value::as_u64).is_some(), "{}", h.render());
    let workers = h.get("workers").and_then(Value::as_arr).expect("workers array");
    assert_eq!(workers.len(), 2, "{}", h.render());
    assert!(
        workers[0].get("heartbeat_age_ms").and_then(Value::as_u64).is_some(),
        "{}",
        h.render()
    );
    assert_eq!(
        h.get("open_circuits").and_then(Value::as_arr).map(<[Value]>::len),
        Some(0),
        "{}",
        h.render()
    );
    assert_eq!(h.get("worker_replacements").and_then(Value::as_u64), Some(0));
    // No server-wide budget configured: the field reports null.
    assert!(matches!(h.get("mem_budget_mb"), Some(Value::Null)), "{}", h.render());
    assert!(result_u64(&h, "sessions") >= 1, "{}", h.render());

    // An oversized frame gets a structured error, and the stream resyncs
    // at its newline: the next frame on the same connection still serves.
    let mut stream = UnixStream::connect(&d.socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let resp = raw_roundtrip(
        &mut stream,
        &format!(
            r#"{{"id":3,"op":"stats","project":"alpha","pad":"{}"}}"#,
            "x".repeat(8192)
        ),
    );
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{}", resp.render());
    assert_eq!(error_kind(&resp), "frame-too-large", "{}", resp.render());
    let resp = raw_roundtrip(&mut stream, &plain_req(4, "stats", "alpha").render());
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.render());
    assert!(
        result_u64(resp.get("result").expect("result"), "frame_too_large") >= 1,
        "{}",
        resp.render()
    );

    // `dragon client ping` renders the one-line human summary.
    let socket = d.socket.to_str().expect("utf8").to_string();
    let out = dragon()
        .args(["client", "--socket", &socket, "ping"])
        .output()
        .expect("run ping");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("daemon ok:"), "{stdout}");

    call_ok(&o, &plain_req(5, "shutdown", "alpha"));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

// ---------------------------------------------------------------------------
// Deadlines, admission control, and panic containment need a way to wedge
// a worker deterministically: the armable `stall::ipl` faultpoint.

#[cfg(feature = "fault-injection")]
mod faulty {
    use super::serve_common::*;
    use dragon::serve::{client, ClientOptions};
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};
    use support::json::Value;
    use support::testdir::TestDir;

    /// Two project names guaranteed to land on different workers of a
    /// two-worker daemon (sharding is by fnv1a of the project name).
    fn split_projects() -> (String, String) {
        let first = "wedge".to_string();
        let shard = support::hash::fnv1a(first.as_bytes()) % 2;
        for i in 0..64 {
            let cand = format!("steady-{i}");
            if support::hash::fnv1a(cand.as_bytes()) % 2 != shard {
                return (first, cand);
            }
        }
        unreachable!("some candidate hashes to the other shard");
    }

    #[test]
    fn wedged_request_degrades_within_deadline_and_peers_are_unaffected() {
        let dir = TestDir::new("serve-wedge");
        let mut d = Daemon::start(
            dir.join("d.sock"),
            &["--workers", "2"],
            &[("ARAA_FAULTPOINT", "stall::ipl:1".to_string())],
        );
        let (wedge, steady) = split_projects();
        let o = copts(&d.socket);

        // The wedge: its first summarize stalls in a budget-charging loop
        // (~8 s at the default budget). Its 1500 ms deadline must cut that
        // short with a *degraded answer*, never a hang or an error.
        let wo = ClientOptions { retries: 0, ..o.clone() };
        let wedge_req = analyze_req(1, "analyze", &wedge, &sources_v1(), Some(1500));
        let wedge_thread = std::thread::spawn(move || {
            let t0 = Instant::now();
            let resp = client::call(&wo, &wedge_req).expect("wedged call still answers");
            (resp, t0.elapsed())
        });

        // Meanwhile the other worker keeps serving at full speed.
        std::thread::sleep(Duration::from_millis(400));
        let t0 = Instant::now();
        let r = call_ok(&o, &analyze_req(2, "analyze", &steady, &sources_v1(), None));
        let steady_elapsed = t0.elapsed();
        assert_eq!(r.get("degraded").and_then(Value::as_bool), Some(false), "{}", r.render());
        assert_eq!(r.get("deadline_expired").and_then(Value::as_bool), Some(false));
        assert!(
            steady_elapsed < Duration::from_secs(5),
            "peer project must be unaffected by the wedge: {steady_elapsed:?}"
        );

        let (resp, wedge_elapsed) = wedge_thread.join().expect("wedge thread");
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "deadline expiry degrades, it does not error: {}",
            resp.render()
        );
        let result = resp.get("result").expect("result");
        assert_eq!(
            result.get("deadline_expired").and_then(Value::as_bool),
            Some(true),
            "{}",
            resp.render()
        );
        assert_eq!(result.get("degraded").and_then(Value::as_bool), Some(true));
        assert!(
            wedge_elapsed < Duration::from_secs(6),
            "deadline must cut the ~8 s stall short: {wedge_elapsed:?}"
        );

        let r = call_ok(&o, &plain_req(3, "stats", &steady));
        assert!(result_u64(&r, "deadline_expired") >= 1, "{}", r.render());
        call_ok(&o, &plain_req(4, "shutdown", &steady));
        assert!(d.wait_exit(Duration::from_secs(30)).success());
    }

    #[test]
    fn overload_sheds_with_structured_responses_never_drops() {
        let dir = TestDir::new("serve-shed");
        let mut d = Daemon::start(
            dir.join("d.sock"),
            &["--workers", "1", "--queue-depth", "1"],
            &[("ARAA_FAULTPOINT", "stall::ipl:1".to_string())],
        );
        let o = copts(&d.socket);

        // Occupy the only worker for ~2.5 s.
        let wo = ClientOptions { retries: 0, ..o.clone() };
        let wedge_req = analyze_req(1, "analyze", "busy", &sources_v1(), Some(2500));
        let wedge = std::thread::spawn(move || client::call(&wo, &wedge_req));

        // Fill the single queue slot with a request that will eventually
        // complete once the wedge clears.
        std::thread::sleep(Duration::from_millis(500));
        let qo = ClientOptions { retries: 0, ..o.clone() };
        let queued_req = analyze_req(2, "analyze", "busy", &sources_v1(), Some(30_000));
        let queued = std::thread::spawn(move || client::call(&qo, &queued_req));

        // Now the queue is full: the next request must get a structured
        // `overloaded` response with a retry hint — on a connection that
        // stays open and keeps serving control-plane ops.
        std::thread::sleep(Duration::from_millis(500));
        let mut stream = UnixStream::connect(&d.socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let resp = raw_roundtrip(
            &mut stream,
            &analyze_req(3, "analyze", "busy", &sources_v1(), None).render(),
        );
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{}", resp.render());
        assert_eq!(error_kind(&resp), "overloaded", "{}", resp.render());
        assert!(
            resp.get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Value::as_u64)
                .is_some(),
            "shed responses carry a retry hint: {}",
            resp.render()
        );
        let stats = raw_roundtrip(&mut stream, &plain_req(4, "stats", "busy").render());
        assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
        assert!(
            result_u64(stats.get("result").expect("result"), "shed") >= 1,
            "{}",
            stats.render()
        );

        // Both in-flight requests complete: shedding never cancels
        // accepted work.
        let wedged = wedge.join().expect("join").expect("wedge answered");
        assert_eq!(wedged.get("ok").and_then(Value::as_bool), Some(true));
        let queued = queued.join().expect("join").expect("queued answered");
        assert_eq!(queued.get("ok").and_then(Value::as_bool), Some(true), "{}", queued.render());

        call_ok(&o, &plain_req(5, "shutdown", "busy"));
        assert!(d.wait_exit(Duration::from_secs(30)).success());
    }

    #[test]
    fn persist_panic_is_contained_and_session_resets() {
        let dir = TestDir::new("serve-panic");
        let cache = dir.join("cache");
        let mut d = Daemon::start(
            dir.join("d.sock"),
            &["--cache-dir", cache.to_str().expect("utf8")],
            &[("ARAA_FAULTPOINT", "persist::pre_manifest:1".to_string())],
        );
        let o = copts(&d.socket);

        // The commit panics mid-flight; the response reports it and the
        // session is reset — and crucially the daemon is still up.
        let resp = client::call(&o, &analyze_req(1, "analyze", "gamma", &sources_v1(), None))
            .expect("call");
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{}", resp.render());
        assert_eq!(error_kind(&resp), "panic", "{}", resp.render());
        assert!(
            resp.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .is_some_and(|m| m.contains("session reset")),
            "{}",
            resp.render()
        );

        let r = call_ok(&o, &plain_req(2, "stats", "gamma"));
        assert_eq!(result_u64(&r, "panics"), 1, "{}", r.render());

        // The faultpoint fired once and disarmed: the retried request runs
        // on a rewarmed session and succeeds end to end.
        let r = call_ok(&o, &analyze_req(3, "analyze", "gamma", &sources_v1(), None));
        assert!(result_u64(&r, "rows") > 0, "{}", r.render());
        let r = call_ok(&o, &plain_req(4, "query-rgn", "gamma"));
        assert!(r.get("rgn").and_then(Value::as_str).is_some());

        call_ok(&o, &plain_req(5, "shutdown", "gamma"));
        assert!(d.wait_exit(Duration::from_secs(30)).success());
    }
}
