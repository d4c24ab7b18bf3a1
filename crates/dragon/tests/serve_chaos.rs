//! Chaos matrix: kill the daemon at every persistence faultpoint, restart
//! it, and prove full recovery.
//!
//! With `ARAA_SERVE_CHAOS_ABORT=1` the daemon aborts the moment an armed
//! faultpoint fires — before unwinding, so no `Drop` runs: the `LOCK`
//! file, temp litter, and half-committed state survive exactly as in a
//! real crash (power loss, OOM-kill). The test then restarts the daemon
//! over the same cache root and asserts the three recovery invariants:
//!
//! 1. the restarted daemon serves, and its `.rgn` answer is byte-identical
//!    to a cold in-process oracle over the same sources;
//! 2. no temp litter and no stale lock survives a recovery + clean drain;
//! 3. nothing corrupt was left behind (`SessionStore::verify` is clean and
//!    the quarantine stays empty — crashes lose work, they never forge it).
//!
//! Run with `cargo test -p dragon --features fault-injection --test serve_chaos`.
#![cfg(feature = "fault-injection")]

mod serve_common;

use araa::{Analysis, AnalysisOptions, SessionStore};
use serve_common::*;
use std::path::Path;
use std::time::{Duration, Instant};
use support::json::Value;
use support::testdir::TestDir;
use workloads::GenSource;

/// Every faultpoint on the persistence write path: the four inside the
/// atomic-write primitive, and the four at the store's commit protocol.
const KILL_POINTS: &[&str] = &[
    "persist::torn_write",
    "persist::pre_sync",
    "persist::pre_rename",
    "persist::post_rename",
    "persist::entry_write",
    "persist::pre_manifest",
    "persist::post_manifest",
    "persist::gc",
];

const PROJECT: &str = "chaos";

fn gen_sources(files: &[(&str, &str)]) -> Vec<GenSource> {
    files.iter().map(|(n, t)| GenSource::fortran(*n, *t)).collect()
}

/// The ground truth: a cold, in-process analysis of the final sources.
fn oracle_rgn() -> String {
    let a = Analysis::analyze(&gen_sources(&sources_v2()), AnalysisOptions::default())
        .expect("cold oracle");
    araa::rgn::write_rgn(&a.rows)
}

/// Recursively collects files under `root` whose name contains `needle`.
fn files_containing(root: &Path, needle: &str) -> Vec<String> {
    let mut hits = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if entry.file_name().to_string_lossy().contains(needle) {
                hits.push(path.display().to_string());
            }
        }
    }
    hits
}

/// One cell of the matrix: arm `point`, drive the daemon until the abort
/// kills it, then restart and verify recovery.
fn kill_and_recover(point: &str, oracle: &str) {
    let dir = TestDir::new("serve-chaos");
    let cache = dir.join("cache");
    let cache_str = cache.to_str().expect("utf8").to_string();
    let cache_args = ["--cache-dir", cache_str.as_str(), "--workers", "1"];

    let mut d = Daemon::start(
        dir.join("d.sock"),
        &cache_args,
        &[
            ("ARAA_FAULTPOINT", format!("{point}:1")),
            ("ARAA_SERVE_CHAOS_ABORT", "1".to_string()),
        ],
    );
    let o = dragon::serve::ClientOptions {
        retries: 0,
        timeout: Duration::from_secs(30),
        ..copts(&d.socket)
    };

    // First analyze: its commit trips most points (the abort races the
    // response, so any outcome of the call itself is acceptable).
    let _ = dragon::serve::client::call(&o, &analyze_req(1, "analyze", PROJECT, &sources_v1(), None));
    // `persist::gc` only fires once a commit has entries to collect: if
    // the daemon survived the first commit, push an edit that supersedes
    // one entry.
    let start = Instant::now();
    while d.exited().is_none() && start.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(20));
    }
    if d.exited().is_none() {
        let _ = dragon::serve::client::call(
            &o,
            &analyze_req(2, "analyze", PROJECT, &sources_v2(), None),
        );
    }
    let status = d.wait_exit(Duration::from_secs(15));
    assert!(
        !status.success(),
        "daemon must die at {point}, got clean exit {status}"
    );
    drop(d);

    // The crash site may hold temp litter and a stale LOCK — that is the
    // point. Restart over the same root (and the same now-stale socket
    // file), bring the project to its final state, and compare bytes.
    let mut d = Daemon::start(dir.join("d.sock"), &cache_args, &[]);
    let o = copts(&d.socket);
    let r = call_ok(&o, &analyze_req(10, "analyze", PROJECT, &sources_v2(), None));
    assert!(result_u64(&r, "rows") > 0, "after {point}: {}", r.render());
    let r = call_ok(&o, &plain_req(11, "query-rgn", PROJECT));
    let rgn = r.get("rgn").and_then(Value::as_str).expect("rgn");
    assert_eq!(
        rgn, oracle,
        "post-crash results must be byte-identical to the cold oracle (killed at {point})"
    );
    call_ok(&o, &plain_req(12, "shutdown", PROJECT));
    assert!(
        d.wait_exit(Duration::from_secs(30)).success(),
        "recovered daemon must drain cleanly after {point}"
    );

    // Invariant 2: recovery + drain leaves no temp litter and no lock.
    let tmp = files_containing(&cache, ".araa-tmp");
    assert!(tmp.is_empty(), "temp litter after {point}: {tmp:?}");
    let locks = files_containing(&cache, support::persist::LOCK_FILE);
    assert!(locks.is_empty(), "stale lock after {point}: {locks:?}");

    // Invariant 3: nothing corrupt, nothing quarantined — the store
    // validates completely.
    let pdir = cache.join(format!("p{:016x}", support::hash::fnv1a(PROJECT.as_bytes())));
    let report = SessionStore::new(&pdir, &AnalysisOptions::default())
        .verify()
        .expect("verify runs");
    assert!(report.clean(), "corruption after {point}: {:?}", report.problems);
    let quarantined = files_containing(&pdir.join("quarantine"), "");
    assert!(quarantined.is_empty(), "crash must not forge corruption: {quarantined:?}");
}

#[test]
fn kill_at_every_persistence_faultpoint_then_recover_identically() {
    let oracle = oracle_rgn();
    for point in KILL_POINTS {
        kill_and_recover(point, &oracle);
    }
}
