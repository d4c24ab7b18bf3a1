//! Resource-exhaustion resilience, end to end: hostile inputs (oversized
//! frames, pathological nesting, memory-hungry requests) and misbehaving
//! projects (sticky panics, wedged workers) must each produce *structured*
//! errors or degradations — while concurrent well-behaved clients complete
//! normally and the daemon's memory high-water stays bounded under the
//! CountingAllocator's accounting.

mod serve_common;

use serve_common::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;
use support::json::Value;
use support::testdir::TestDir;

/// Two project names guaranteed to land on different workers of a
/// two-worker daemon (sharding is by fnv1a of the project name).
fn split_projects() -> (String, String) {
    let first = "healthy-a".to_string();
    let shard = support::hash::fnv1a(first.as_bytes()) % 2;
    for i in 0..64 {
        let cand = format!("healthy-b{i}");
        if support::hash::fnv1a(cand.as_bytes()) % 2 != shard {
            return (first, cand);
        }
    }
    unreachable!("some candidate hashes to the other shard");
}

/// Attaches a per-request memory budget to a request built by the shared
/// helpers.
fn with_mem_budget(mut req: Value, mb: u64) -> Value {
    if let Value::Obj(map) = &mut req {
        map.insert("mem_budget_mb".to_string(), Value::int(mb));
    }
    req
}

#[test]
fn hostile_inputs_are_contained_while_healthy_traffic_flows() {
    let dir = TestDir::new("serve-resilience");
    let mut d = Daemon::start(
        dir.join("d.sock"),
        &[
            "--workers",
            "2",
            "--max-frame-bytes",
            "4096",
            "--circuit-threshold",
            "2",
        ],
        &[],
    );
    let o = copts(&d.socket);

    // Well-behaved clients on both shards, running for the whole test.
    let (pa, pb) = split_projects();
    let healthy: Vec<_> = [(pa, 100u64), (pb, 200u64)]
        .into_iter()
        .map(|(project, base_id)| {
            let socket = d.socket.clone();
            std::thread::spawn(move || {
                let o = copts(&socket);
                for round in 0..3u64 {
                    let r = call_ok(
                        &o,
                        &analyze_req(
                            base_id + 2 * round,
                            "analyze",
                            &project,
                            &sources_v1(),
                            None,
                        ),
                    );
                    assert_eq!(
                        r.get("degraded").and_then(Value::as_bool),
                        Some(false),
                        "healthy project degraded by hostile neighbors: {}",
                        r.render()
                    );
                    let r = call_ok(&o, &plain_req(base_id + 2 * round + 1, "query-rgn", &project));
                    assert!(r.get("rgn").and_then(Value::as_str).is_some(), "{}", r.render());
                }
            })
        })
        .collect();

    // Hostile input #1: an oversized frame. Structured `frame-too-large`,
    // and the same connection keeps serving.
    let mut stream = UnixStream::connect(&d.socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let resp = raw_roundtrip(
        &mut stream,
        &format!(r#"{{"id":1,"op":"stats","project":"evil","pad":"{}"}}"#, "x".repeat(8192)),
    );
    assert_eq!(error_kind(&resp), "frame-too-large", "{}", resp.render());

    // Hostile input #2: a deeply nested body. The parser's depth cap turns
    // it into `bad-request` instead of unbounded recursion.
    let nested = format!(
        r#"{{"id":2,"op":"stats","project":"evil","j":{}{}}}"#,
        "[".repeat(200),
        "]".repeat(200)
    );
    let resp = raw_roundtrip(&mut stream, &nested);
    assert_eq!(error_kind(&resp), "bad-request", "{}", resp.render());
    assert!(
        resp.get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("deep")),
        "{}",
        resp.render()
    );

    // Hostile input #3: a request whose memory budget cannot cover its own
    // analysis. It degrades — conservative answer, structured degradation —
    // rather than dying or lying.
    let r = call_ok(
        &o,
        &with_mem_budget(analyze_req(3, "analyze", "hungry", &sources_v1(), None), 0),
    );
    assert_eq!(r.get("mem_exhausted").and_then(Value::as_bool), Some(true), "{}", r.render());
    assert_eq!(r.get("degraded").and_then(Value::as_bool), Some(true), "{}", r.render());
    let degradations = r.get("degradations").and_then(Value::as_arr).expect("degradations");
    assert!(
        degradations
            .iter()
            .any(|v| v.as_str().is_some_and(|s| s.contains("memory"))),
        "memory exhaustion must be recorded as a degradation: {}",
        r.render()
    );

    // The same project with a real budget succeeds cleanly — exhaustion is
    // per-request state, and the success closes its failure streak.
    let r = call_ok(
        &o,
        &with_mem_budget(analyze_req(4, "analyze", "hungry", &sources_v1(), None), 512),
    );
    assert_eq!(r.get("mem_exhausted").and_then(Value::as_bool), Some(false), "{}", r.render());
    assert_eq!(r.get("degraded").and_then(Value::as_bool), Some(false), "{}", r.render());

    let () = healthy
        .into_iter()
        .for_each(|t| t.join().expect("healthy client thread panicked"));

    // The high-water mark moved (budgeted requests are accounted) and is
    // bounded: no request charged past the largest configured budget.
    let h = call_ok(&o, &plain_req(5, "health", "hungry"));
    let high_water = h
        .get("mem_high_water_bytes")
        .and_then(Value::as_u64)
        .expect("mem_high_water_bytes");
    assert!(high_water > 0, "{}", h.render());
    assert!(
        high_water <= 512 * 1024 * 1024,
        "high-water must stay bounded by the budget: {}",
        h.render()
    );
    assert_eq!(
        h.get("open_circuits").and_then(Value::as_arr).map(<[Value]>::len),
        Some(0),
        "one exhaustion then a success must not open the circuit: {}",
        h.render()
    );

    let s = call_ok(&o, &plain_req(6, "stats", "hungry"));
    assert!(result_u64(&s, "frame_too_large") >= 1, "{}", s.render());
    assert!(result_u64(&s, "mem_exhausted") >= 1, "{}", s.render());
    assert_eq!(result_u64(&s, "panics"), 0, "{}", s.render());

    call_ok(&o, &plain_req(7, "shutdown", "hungry"));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

/// Reads the one line a connection the daemon is closing must carry, and
/// checks that EOF follows it.
fn last_line(stream: UnixStream) -> Value {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("the daemon answers before closing");
    let mut rest = String::new();
    let n = reader.read_to_string(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "the connection must close after one line, got more: {rest:?}");
    Value::parse(line.trim()).unwrap_or_else(|e| panic!("{e}: {line:?}"))
}

#[test]
fn connections_beyond_the_cap_get_one_overloaded_line() {
    let dir = TestDir::new("serve-conn-cap");
    let mut d = Daemon::start(dir.join("d.sock"), &["--max-connections", "2"], &[]);

    // Two held connections, each past a full round trip, so both are
    // counted against the cap.
    let mut held: Vec<UnixStream> = (0..2u64)
        .map(|i| {
            let mut s = UnixStream::connect(&d.socket).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
            let resp = raw_roundtrip(&mut s, &plain_req(i, "health", "cap").render());
            assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.render());
            s
        })
        .collect();

    // The third is shed at accept: one `overloaded` line with a retry
    // hint, then EOF.
    let third = UnixStream::connect(&d.socket).expect("the kernel still queues the connect");
    third.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let resp = last_line(third);
    assert_eq!(error_kind(&resp), "overloaded", "{}", resp.render());
    assert!(
        resp.get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Value::as_u64)
            .is_some(),
        "{}",
        resp.render()
    );

    let stats = raw_roundtrip(&mut held[0], &plain_req(3, "stats", "cap").render());
    assert!(
        result_u64(stats.get("result").expect("result"), "conn_shed") >= 1,
        "{}",
        stats.render()
    );
    let resp = raw_roundtrip(&mut held[0], &plain_req(4, "shutdown", "cap").render());
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.render());
    drop(held);
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

#[test]
fn a_stalled_partial_frame_is_answered_and_closed() {
    let dir = TestDir::new("serve-stall");
    let mut d = Daemon::start(dir.join("d.sock"), &["--io-timeout-ms", "300"], &[]);

    // A request prefix with no newline, then silence: a slow-loris.
    let mut stream = UnixStream::connect(&d.socket).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(br#"{"id":1,"op":"hea"#).expect("send a partial frame");
    let resp = last_line(stream);
    assert_eq!(error_kind(&resp), "bad-request", "{}", resp.render());
    assert!(
        resp.get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("stalled")),
        "{}",
        resp.render()
    );

    // The daemon itself is unharmed.
    let o = copts(&d.socket);
    let h = call_ok(&o, &plain_req(2, "health", "stall"));
    assert!(h.get("uptime_ms").and_then(Value::as_u64).is_some(), "{}", h.render());
    call_ok(&o, &plain_req(3, "shutdown", "stall"));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

/// A client that pipelines requests and never reads the responses fills
/// the socket buffers, so the daemon's response write blocks. The write
/// timeout (10 s) drops that connection and frees the one slot
/// `--max-connections 1` allows; without it every later client is shed as
/// `overloaded` for good.
#[test]
fn a_client_that_never_reads_is_dropped_after_the_write_timeout() {
    let dir = TestDir::new("serve-write-timeout");
    let mut d = Daemon::start(dir.join("d.sock"), &["--max-connections", "1"], &[]);
    let probe = dragon::serve::ClientOptions {
        retries: 0,
        timeout: Duration::from_secs(5),
        ..copts(&d.socket)
    };
    let served = || {
        dragon::serve::client::call(&probe, &plain_req(2, "health", "probe"))
            .is_ok_and(|r| r.get("ok").and_then(Value::as_bool) == Some(true))
    };

    let hog = UnixStream::connect(&d.socket).expect("connect");
    hog.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    (&hog)
        .write_all(format!("{}\n", plain_req(0, "health", "hog").render()).as_bytes())
        .expect("the hog's request");
    let mut line = String::new();
    BufReader::new(&hog).read_line(&mut line).expect("the hog's response");
    assert!(line.contains(r#""ok":true"#), "the hog gets the slot: {line}");
    let mut pipe = hog.try_clone().expect("clone");
    let pump = std::thread::spawn(move || {
        let line = format!("{}\n", plain_req(1, "metrics", "hog").render());
        // Ends once the daemon drops the connection.
        while pipe.write_all(line.as_bytes()).is_ok() {}
    });
    assert!(!served(), "the hog holds the only connection slot");
    let start = std::time::Instant::now();
    while !served() {
        assert!(
            start.elapsed() < Duration::from_secs(40),
            "the hog's blocked connection was never dropped"
        );
        std::thread::sleep(Duration::from_millis(250));
    }
    pump.join().expect("the pump ends with the dropped connection");
    drop(hog);
    call_ok(&copts(&d.socket), &plain_req(3, "shutdown", "probe"));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

// ---------------------------------------------------------------------------
// The misbehaving-project scenarios need deterministic faults: a sticky
// per-project panic point and an off-checkpoint wedge loop.

#[cfg(feature = "fault-injection")]
mod faulty {
    use super::serve_common::*;
    use dragon::serve::{client, ClientOptions};
    use std::time::{Duration, Instant};
    use support::json::Value;
    use support::testdir::TestDir;

    #[test]
    fn toxic_project_opens_its_circuit_while_neighbors_serve() {
        let dir = TestDir::new("serve-toxic");
        // Long cool-down: the circuit must still be open when asserted.
        let mut d = Daemon::start(
            dir.join("d.sock"),
            &[
                "--workers",
                "2",
                "--circuit-threshold",
                "2",
                "--circuit-cooldown-ms",
                "60000",
            ],
            &[("ARAA_FAULTPOINT", "serve::project::toxic:always".to_string())],
        );
        let o = copts(&d.socket);
        // Retries would honor the 60 s circuit-open hint; these calls must
        // observe the raw responses instead.
        let no_retry = ClientOptions { retries: 0, ..o.clone() };

        let toxic_shard = support::hash::fnv1a(b"toxic") % 2;
        let neighbor = (0..64)
            .map(|i| format!("neighbor-{i}"))
            .find(|c| support::hash::fnv1a(c.as_bytes()) % 2 != toxic_shard)
            .expect("some candidate hashes to the other shard");

        // Every request to the toxic project panics; each panic is
        // contained and reported.
        for id in [1u64, 2] {
            let resp = client::call(
                &no_retry,
                &analyze_req(id, "analyze", "toxic", &sources_v1(), None),
            )
            .expect("contained panic still answers");
            assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{}", resp.render());
            assert_eq!(error_kind(&resp), "panic", "{}", resp.render());
        }

        // Two consecutive failures reach the threshold: the breaker now
        // sheds before the request ever touches a worker.
        let resp = client::call(
            &no_retry,
            &analyze_req(3, "analyze", "toxic", &sources_v1(), None),
        )
        .expect("rejected at admission");
        assert_eq!(error_kind(&resp), "circuit-open", "{}", resp.render());
        assert!(
            resp.get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Value::as_u64)
                .is_some_and(|ms| ms > 0),
            "circuit rejections carry the cool-down hint: {}",
            resp.render()
        );

        // A neighbor project is untouched by the breaker.
        let r = call_ok(&o, &analyze_req(4, "analyze", &neighbor, &sources_v1(), None));
        assert_eq!(r.get("degraded").and_then(Value::as_bool), Some(false), "{}", r.render());

        let h = call_ok(&o, &plain_req(5, "health", &neighbor));
        let circuits = h.get("open_circuits").and_then(Value::as_arr).expect("open_circuits");
        assert!(
            circuits.iter().any(|v| v.as_str() == Some("toxic")),
            "{}",
            h.render()
        );

        let s = call_ok(&o, &plain_req(6, "stats", &neighbor));
        assert!(result_u64(&s, "panics") >= 2, "{}", s.render());
        assert!(result_u64(&s, "circuit_open") >= 1, "{}", s.render());

        call_ok(&o, &plain_req(7, "shutdown", &neighbor));
        assert!(d.wait_exit(Duration::from_secs(30)).success());
    }

    #[test]
    fn wedged_worker_is_replaced_and_requests_fail_structurally() {
        let dir = TestDir::new("serve-wedge-replace");
        let mut d = Daemon::start(
            dir.join("d.sock"),
            &["--workers", "1", "--heartbeat-grace-ms", "400"],
            &[("ARAA_FAULTPOINT", "serve::wedge:1".to_string())],
        );
        let o = copts(&d.socket);
        let no_retry = ClientOptions { retries: 0, ..o.clone() };

        // The first request spins off-checkpoint forever: no deadline token
        // can save it. The dispatcher abandons it shortly after
        // deadline + grace and answers structurally.
        let t0 = Instant::now();
        let resp = client::call(
            &no_retry,
            &analyze_req(1, "analyze", "stuck", &sources_v1(), Some(800)),
        )
        .expect("abandoned request still answers");
        let elapsed = t0.elapsed();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{}", resp.render());
        assert_eq!(error_kind(&resp), "deadline-expired", "{}", resp.render());
        assert!(
            resp.get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Value::as_u64)
                .is_some(),
            "{}",
            resp.render()
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "abandonment must be prompt, not a hang: {elapsed:?}"
        );

        // The supervisor replaced the wedged thread: the (sole) worker slot
        // serves again, on a fresh generation.
        let r = call_ok(&o, &analyze_req(2, "analyze", "fresh", &sources_v1(), None));
        assert!(result_u64(&r, "rows") > 0, "{}", r.render());

        let h = call_ok(&o, &plain_req(3, "health", "fresh"));
        assert!(
            h.get("worker_replacements").and_then(Value::as_u64).is_some_and(|n| n >= 1),
            "{}",
            h.render()
        );
        let workers = h.get("workers").and_then(Value::as_arr).expect("workers");
        assert!(
            workers[0].get("generation").and_then(Value::as_u64).is_some_and(|g| g >= 1),
            "{}",
            h.render()
        );

        let s = call_ok(&o, &plain_req(4, "stats", "fresh"));
        assert!(result_u64(&s, "deadline_expired") >= 1, "{}", s.render());

        // The abandoned request is recorded once, by the connection thread
        // that answered it.
        let log = call_ok(&o, &plain_req(40, "query-log", "stuck"));
        let outcomes: Vec<&str> = log
            .get("entries")
            .and_then(Value::as_arr)
            .expect("entries")
            .iter()
            .filter_map(|e| e.get("outcome").and_then(Value::as_str))
            .collect();
        assert_eq!(outcomes, ["deadline-expired"], "{}", log.render());

        call_ok(&o, &plain_req(5, "shutdown", "fresh"));
        assert!(d.wait_exit(Duration::from_secs(30)).success());
    }
}
