//! End-to-end tests of the serve observability plane: request-scoped
//! trace ids across the wire, the `metrics` / `query-log` / `profile`
//! ops, byte-deterministic logical-clock snapshots, and the sealed
//! periodic snapshot file.

mod serve_common;

use dragon::serve::{client, ClientOptions};
use serve_common::*;
use std::os::unix::net::UnixStream;
use std::time::Duration;
use support::json::{obj, Value};
use support::testdir::TestDir;

fn traced_req(id: u64, op: &str, project: &str, trace: &str) -> Value {
    obj([
        ("id", Value::int(id)),
        ("op", Value::str(op)),
        ("project", Value::str(project)),
        ("trace", Value::str(trace)),
    ])
}

fn resp_trace(resp: &Value) -> String {
    resp.get("trace")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("response lacks trace: {}", resp.render()))
        .to_string()
}

#[test]
fn every_response_echoes_the_request_trace() {
    let dir = TestDir::new("serve-obs-trace");
    let mut _d = Daemon::start(
        dir.join("d.sock"),
        &["--cache-dir", dir.join("cache").to_str().expect("utf8")],
        &[],
    );
    let o = copts(&dir.join("d.sock"));

    // Client-supplied trace ids echo back on worker ops, control ops, and
    // error responses alike.
    let mut req = analyze_req(1, "analyze", "alpha", &sources_v1(), None);
    if let Value::Obj(map) = &mut req {
        map.insert("trace".to_string(), Value::str("trace-analyze-1"));
    }
    let resp = dragon::serve::client::call(&o, &req).expect("analyze");
    assert_eq!(resp_trace(&resp), "trace-analyze-1", "{}", resp.render());

    let resp = dragon::serve::client::call(&o, &traced_req(2, "stats", "alpha", "trace-stats"))
        .expect("stats");
    assert_eq!(resp_trace(&resp), "trace-stats");

    // A request rejected at parse time (reanalyze without sources) still
    // echoes the salvageable client trace.
    let resp = dragon::serve::client::call(
        &o,
        &traced_req(3, "reanalyze", "no-such-project", "trace-parse-err"),
    )
    .expect("reanalyze parse error");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(resp_trace(&resp), "trace-parse-err", "parse errors echo the trace too");

    // A worker-side error (unknown project with well-formed sources) does
    // the same.
    let mut req = analyze_req(4, "reanalyze", "no-such-project", &sources_v1(), None);
    if let Value::Obj(map) = &mut req {
        map.insert("trace".to_string(), Value::str("trace-worker-err"));
    }
    let resp = dragon::serve::client::call(&o, &req).expect("reanalyze worker error");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(resp_trace(&resp), "trace-worker-err", "worker errors echo the trace too");

    // Without a client trace the daemon mints one.
    let resp = dragon::serve::client::call(&o, &plain_req(4, "health", "alpha")).expect("health");
    let minted = resp_trace(&resp);
    assert!(minted.starts_with("t-"), "minted trace {minted:?}");
}

#[test]
fn concurrent_clients_never_observe_a_foreign_trace() {
    let dir = TestDir::new("serve-obs-concurrent");
    let socket = dir.join("d.sock");
    let mut _d = Daemon::start(
        socket.clone(),
        &["--cache-dir", dir.join("cache").to_str().expect("utf8"), "--workers", "2"],
        &[],
    );
    let o = copts(&socket);
    call_ok(&o, &analyze_req(1, "analyze", "shared", &sources_v1(), None));

    let handles: Vec<_> = (0..4)
        .map(|c| {
            let o = copts(&socket);
            std::thread::spawn(move || {
                for i in 0..10 {
                    let mine = format!("cli-{c}-{i}");
                    let resp = dragon::serve::client::call(
                        &o,
                        &traced_req(i, "query-rgn", "shared", &mine),
                    )
                    .expect("query-rgn");
                    assert_eq!(
                        resp_trace(&resp),
                        mine,
                        "interleaved client saw a foreign trace: {}",
                        resp.render()
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
}

#[test]
fn query_log_joins_server_records_with_client_traffic() {
    let dir = TestDir::new("serve-obs-log");
    let mut _d = Daemon::start(
        dir.join("d.sock"),
        &["--cache-dir", dir.join("cache").to_str().expect("utf8")],
        &[],
    );
    let o = copts(&dir.join("d.sock"));

    let mut req = analyze_req(1, "analyze", "alpha", &sources_v1(), None);
    if let Value::Obj(map) = &mut req {
        map.insert("trace".to_string(), Value::str("join-me"));
    }
    let t = std::time::Instant::now();
    let resp = dragon::serve::client::call(&o, &req).expect("analyze");
    let client_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    call_ok(&o, &plain_req(2, "query-rgn", "alpha"));

    let log = call_ok(&o, &plain_req(3, "query-log", "alpha"));
    let entries = log.get("entries").and_then(Value::as_arr).expect("entries");
    assert!(entries.len() >= 2, "{}", log.render());
    let joined = entries
        .iter()
        .find(|e| e.get("trace").and_then(Value::as_str) == Some("join-me"))
        .unwrap_or_else(|| panic!("log lacks trace join-me: {}", log.render()));
    assert_eq!(joined.get("op").and_then(Value::as_str), Some("analyze"));
    assert_eq!(joined.get("outcome").and_then(Value::as_str), Some("ok"));
    let server_ns = joined.get("latency_units").and_then(Value::as_u64).expect("latency");
    // The server-side latency includes queue wait but not client-side
    // connect/serialize time, so it must sit inside the client's window.
    assert!(server_ns > 0);
    assert!(
        server_ns <= client_ns,
        "server latency {server_ns} ns exceeds the client-observed {client_ns} ns"
    );
    assert!(joined.get("worker").and_then(Value::as_u64).is_some(), "{}", joined.render());
    assert!(joined.get("generation").and_then(Value::as_u64).is_some());

    // Project filtering: an unrelated project sees none of alpha's rows.
    let other = call_ok(&o, &plain_req(4, "query-log", "beta"));
    let none = other.get("entries").and_then(Value::as_arr).expect("entries");
    assert!(none.is_empty(), "{}", other.render());
}

#[test]
fn metrics_op_serves_json_and_prometheus() {
    let dir = TestDir::new("serve-obs-metrics");
    let mut _d = Daemon::start(
        dir.join("d.sock"),
        &["--cache-dir", dir.join("cache").to_str().expect("utf8")],
        &[],
    );
    let o = copts(&dir.join("d.sock"));
    call_ok(&o, &analyze_req(1, "analyze", "alpha", &sources_v1(), None));
    call_ok(&o, &analyze_req(2, "reanalyze", "alpha", &sources_v2(), None));
    call_ok(&o, &plain_req(3, "query-rgn", "alpha"));

    let m = call_ok(&o, &plain_req(4, "metrics", "alpha"));
    assert!(m.get("requests_total").and_then(Value::as_u64).unwrap_or(0) >= 3);
    let ops = m.get("ops").and_then(Value::as_obj).expect("ops");
    let analyze = ops.get("analyze").expect("analyze op");
    assert_eq!(analyze.get("count").and_then(Value::as_u64), Some(1));
    let lat = analyze.get("latency").expect("latency");
    let p50 = lat.get("p50_units").and_then(Value::as_u64).expect("p50");
    let p99 = lat.get("p99_units").and_then(Value::as_u64).expect("p99");
    assert!(p50 > 0 && p50 <= p99, "p50 {p50} p99 {p99}");
    let bounds = lat.get("bounds").and_then(Value::as_arr).expect("bounds");
    let counts = lat.get("counts").and_then(Value::as_arr).expect("counts");
    assert_eq!(bounds.len(), counts.len(), "bucket vectors stay aligned");
    let projects = m.get("projects").and_then(Value::as_arr).expect("projects");
    assert!(
        projects
            .iter()
            .any(|p| p.get("project").and_then(Value::as_str) == Some("alpha")),
        "{}",
        m.render()
    );

    let mut req = plain_req(5, "metrics", "alpha");
    if let Value::Obj(map) = &mut req {
        map.insert("format".to_string(), Value::str("prometheus"));
    }
    let p = call_ok(&o, &req);
    let body = p.get("body").and_then(Value::as_str).expect("prometheus body");
    assert!(body.contains("# TYPE araa_serve_requests_total counter"), "{body}");
    assert!(body.contains("araa_serve_requests_total{op=\"analyze\",outcome=\"ok\"} 1"), "{body}");
    assert!(body.contains("# TYPE araa_serve_latency_units histogram"), "{body}");
    assert!(body.contains("le=\"+Inf\""), "{body}");

    // An unknown format is a structured bad-request, not a hang or a drop.
    if let Value::Obj(map) = &mut req {
        map.insert("format".to_string(), Value::str("xml"));
    }
    let resp = dragon::serve::client::call(&o, &req).expect("call");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(error_kind(&resp), "bad-request");
}

#[test]
fn profile_op_ranks_hot_procedures() {
    let dir = TestDir::new("serve-obs-profile");
    let mut _d = Daemon::start(
        dir.join("d.sock"),
        &["--cache-dir", dir.join("cache").to_str().expect("utf8")],
        &[],
    );
    let o = copts(&dir.join("d.sock"));
    // The first request per project is always sampled.
    call_ok(&o, &analyze_req(1, "analyze", "alpha", &sources_v1(), None));

    let prof = call_ok(&o, &plain_req(2, "profile", "alpha"));
    let projects = prof.get("projects").and_then(Value::as_arr).expect("projects");
    let alpha = projects
        .iter()
        .find(|p| p.get("project").and_then(Value::as_str) == Some("alpha"))
        .unwrap_or_else(|| panic!("no alpha profile: {}", prof.render()));
    assert!(alpha.get("samples").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let procs = alpha.get("procs").and_then(Value::as_arr).expect("procs");
    assert!(!procs.is_empty(), "sampled analyze produced no procedure spans");
    // The fixture's procedures are main/mid/leaf; the ranking must name
    // real procedures with nonzero time.
    for p in procs {
        let name = p.get("proc").and_then(Value::as_str).expect("proc name");
        assert!(
            ["main", "mid", "leaf"].contains(&name),
            "unexpected procedure {name:?}"
        );
        assert!(p.get("total_units").and_then(Value::as_u64).unwrap_or(0) > 0);
    }
}

#[test]
fn stats_and_metrics_count_each_outcome_once() {
    let dir = TestDir::new("serve-obs-agree");
    // Threshold 1: the memory-exhausted request below opens its project's
    // circuit, so the request after it is rejected as `circuit-open`.
    let mut d = Daemon::start(
        dir.join("d.sock"),
        &[
            "--max-frame-bytes",
            "4096",
            "--circuit-threshold",
            "1",
            "--circuit-cooldown-ms",
            "60000",
        ],
        &[],
    );
    let o = copts(&d.socket);
    let no_retry = ClientOptions { retries: 0, ..o.clone() };

    // ok
    call_ok(&o, &analyze_req(1, "analyze", "alpha", &sources_v1(), None));
    // bad-request at parse time, then an oversized frame
    let mut stream = UnixStream::connect(&d.socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    assert_eq!(error_kind(&raw_roundtrip(&mut stream, "not json")), "bad-request");
    let oversized = format!(r#"{{"id":2,"op":"stats","pad":"{}"}}"#, "x".repeat(8192));
    assert_eq!(error_kind(&raw_roundtrip(&mut stream, &oversized)), "frame-too-large");
    // bad-request from a worker
    let resp = client::call(&no_retry, &plain_req(3, "lint", "never-analyzed")).expect("call");
    assert_eq!(error_kind(&resp), "bad-request", "{}", resp.render());
    // mem-exhausted
    let mut hungry = analyze_req(4, "analyze", "hungry", &sources_v1(), None);
    if let Value::Obj(map) = &mut hungry {
        map.insert("mem_budget_mb".to_string(), Value::int(0));
    }
    let r = call_ok(&o, &hungry);
    assert_eq!(r.get("mem_exhausted").and_then(Value::as_bool), Some(true), "{}", r.render());
    // circuit-open
    let resp = client::call(&no_retry, &analyze_req(5, "analyze", "hungry", &sources_v1(), None))
        .expect("call");
    assert_eq!(error_kind(&resp), "circuit-open", "{}", resp.render());

    let stats = call_ok(&o, &plain_req(6, "stats", "alpha"));
    let metrics = call_ok(&o, &plain_req(7, "metrics", "alpha"));
    let ops = metrics.get("ops").and_then(Value::as_obj).expect("ops");
    let outcome_sum = |outcome: &str| -> u64 {
        ops.values()
            .filter_map(|op| op.get("outcomes").and_then(|o| o.get(outcome)))
            .filter_map(Value::as_u64)
            .sum()
    };
    for (field, outcome) in [
        ("shed", "shed"),
        ("deadline_expired", "deadline-expired"),
        ("circuit_open", "circuit-open"),
        ("mem_exhausted", "mem-exhausted"),
        ("panics", "panic"),
    ] {
        assert_eq!(
            result_u64(&stats, field),
            outcome_sum(outcome),
            "stats `{field}` disagrees with the `{outcome}` outcomes in metrics:\n{}\n{}",
            stats.render(),
            metrics.render()
        );
    }
    assert_eq!(result_u64(&stats, "mem_exhausted"), 1, "{}", stats.render());
    assert_eq!(result_u64(&stats, "circuit_open"), 1, "{}", stats.render());
    assert_eq!(result_u64(&stats, "frame_too_large"), 1, "{}", stats.render());
    assert_eq!(outcome_sum("bad-request"), 1, "{}", metrics.render());
    assert_eq!(
        metrics.get("invalid_requests").and_then(Value::as_u64),
        Some(2),
        "the unparseable and the oversized frame: {}",
        metrics.render()
    );

    call_ok(&o, &plain_req(8, "shutdown", "alpha"));
    assert!(d.wait_exit(Duration::from_secs(30)).success());
}

/// Runs one fixed traffic script against a fresh logical-clock daemon and
/// returns the rendered `metrics` snapshot (with the per-run trace id of
/// the metrics request itself stripped).
fn logical_metrics_run(dir: &TestDir, name: &str) -> String {
    let socket = dir.join(&format!("{name}.sock"));
    let cache = dir.join(&format!("{name}-cache"));
    let mut _d = Daemon::start(
        socket.clone(),
        &[
            "--cache-dir",
            cache.to_str().expect("utf8"),
            "--workers",
            "2",
        ],
        &[("ARAA_OBS_CLOCK", "logical".to_string())],
    );
    let o = copts(&socket);
    call_ok(&o, &analyze_req(1, "analyze", "alpha", &sources_v1(), None));
    call_ok(&o, &analyze_req(2, "reanalyze", "alpha", &sources_v2(), None));
    call_ok(&o, &plain_req(3, "query-rgn", "alpha"));
    call_ok(&o, &analyze_req(4, "analyze", "beta", &sources_v1(), None));
    // An error is part of the script too: its outcome counter must land
    // in the same bucket both runs.
    let resp = dragon::serve::client::call(
        &o,
        &plain_req(5, "lint", "never-analyzed"),
    )
    .expect("lint error");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    call_ok(&o, &plain_req(6, "metrics", "alpha")).render()
}

#[test]
fn logical_clock_metrics_snapshots_are_byte_identical() {
    let dir = TestDir::new("serve-obs-determinism");
    let a = logical_metrics_run(&dir, "a");
    let b = logical_metrics_run(&dir, "b");
    assert!(a.contains("\"clock\":\"logical\""), "{a}");
    assert_eq!(a, b, "two identical logical-clock replays diverged");
    // Wall-clock and memory fields are zeroed under the logical clock.
    assert!(a.contains("\"uptime_ms\":0"), "{a}");
    assert!(a.contains("\"mem_high_water_bytes\":0"), "{a}");
}

#[test]
fn periodic_snapshot_file_is_checksum_sealed() {
    let dir = TestDir::new("serve-obs-snapshot");
    let snap = dir.join("metrics.snapshot");
    let mut d = Daemon::start(
        dir.join("d.sock"),
        &[
            "--cache-dir",
            dir.join("cache").to_str().expect("utf8"),
            "--metrics-interval-ms",
            "50",
            "--metrics-snapshot",
            snap.to_str().expect("utf8"),
        ],
        &[],
    );
    let o = copts(&dir.join("d.sock"));
    call_ok(&o, &analyze_req(1, "analyze", "alpha", &sources_v1(), None));
    // Let at least one periodic snapshot land, then drain (which writes a
    // final one).
    std::thread::sleep(Duration::from_millis(200));
    let resp = dragon::serve::client::call(&o, &plain_req(2, "shutdown", "alpha"))
        .expect("shutdown");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    d.wait_exit(Duration::from_secs(30));

    let text = std::fs::read_to_string(&snap).expect("snapshot file exists");
    // verify_text_checksum accepts trailer-less documents, so assert the
    // seal is actually present before verifying it.
    assert!(
        text.contains(support::persist::TEXT_CHECKSUM_PREFIX),
        "snapshot is not checksum-sealed:\n{text}"
    );
    support::persist::verify_text_checksum(&text)
        .unwrap_or_else(|e| panic!("snapshot checksum: {e}\n{text}"));
    let body = text.lines().next().expect("snapshot body line");
    let doc = Value::parse(body).expect("snapshot parses");
    assert!(doc.get("requests_total").and_then(Value::as_u64).unwrap_or(0) >= 1);
}
