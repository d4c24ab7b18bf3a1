//! End-to-end tests of the `dragon` binary (the tool a user actually runs).

use std::path::PathBuf;
use std::process::Command;

fn dragon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dragon"))
}

fn write_temp(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dragon_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn demo_matrix_prints_fig9_table() {
    let out = dragon().args(["demo", "matrix"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aarr"), "{stdout}");
    assert!(stdout.contains("55599870"), "{stdout}");
    assert!(stdout.contains("copyin(aarr[2:7])"), "{stdout}");
    assert!(stdout.contains("aarr[8]"), "{stdout}");
}

#[test]
fn demo_fig1_reports_parallel_pair() {
    let out = dragon().args(["demo", "fig1"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parallel: in `add`"), "{stdout}");
}

#[test]
fn analyze_writes_project_files() {
    let src = write_temp(
        "small.f",
        "program main\n  real a(5)\n  common /g/ a\n  integer i\n  do i = 1, 5\n    a(i) = 0.0\n  end do\nend\n",
    );
    let out_dir = std::env::temp_dir().join("dragon_cli_out");
    std::fs::create_dir_all(&out_dir).unwrap();
    let out = dragon()
        .args([
            "analyze",
            src.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--stem",
            "small",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for ext in ["rgn", "dgn", "cfg"] {
        assert!(out_dir.join(format!("small.{ext}")).exists());
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn callgraph_emits_dot() {
    let src = write_temp(
        "cg.f",
        "program main\n  call leaf\nend\nsubroutine leaf\n  return\nend\n",
    );
    let out = dragon().args(["callgraph", src.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph callgraph {"), "{stdout}");
    assert!(stdout.contains("->"), "{stdout}");
}

#[test]
fn view_scope_with_find() {
    let src = write_temp(
        "v.f",
        "program main\n  real xs(9)\n  common /g/ xs\n  integer i\n  do i = 1, 9\n    xs(i) = 1.0\n  end do\nend\n",
    );
    let out = dragon()
        .args(["view", "@", src.to_str().unwrap(), "--find", "xs"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("xs"), "{stdout}");
    assert!(stdout.contains("\u{1b}[32m"), "find matches render green: {stdout:?}");
}

#[test]
fn dynamic_subcommand_reports_regions() {
    let src = write_temp(
        "d.f",
        "program main\n  real a(9)\n  common /g/ a\n  integer i\n  do i = 1, 9\n    a(i) = 1.0\n  end do\nend\n",
    );
    let out = dragon()
        .args(["dynamic", "main", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("WRITE"), "{stdout}");
    assert!(stdout.contains("violations: 0"), "{stdout}");
}

#[test]
fn bad_source_fails_cleanly() {
    let src = write_temp("bad.f", "subroutine\n");
    let out = dragon().args(["advise", src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("dragon:"), "{stderr}");
}

/// One broken procedure next to a healthy one: the analysis degrades rather
/// than failing, the report lands on stderr, and the exit code is 1.
const DEGRADED_SRC: &str = "program main\n  real a(5)\n  common /g/ a\n  integer i\n  do i = 1, 5\n    a(i) = 0.0\n  end do\nend\nsubroutine broken\n  integer i\n  i = = 1\nend\n";

#[test]
fn degraded_analysis_exits_one_with_report() {
    let src = write_temp("degraded.f", DEGRADED_SRC);
    let out = dragon().args(["callgraph", src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("analysis degraded"), "{stderr}");
    assert!(stderr.contains("[parse]"), "{stderr}");
    // The healthy procedure still made it into the call graph.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MAIN__"), "{stdout}");
}

#[test]
fn strict_promotes_degradation_to_failure() {
    let src = write_temp("degraded_strict.f", DEGRADED_SRC);
    let out = dragon()
        .args(["--strict", "callgraph", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--strict"), "{stderr}");
}

/// End-to-end fault injection: a forced panic inside one procedure's IPL
/// summary must leave the run degraded (exit 1) with rows for everyone
/// else. Needs the binary built with the faultpoint registry:
/// `cargo test -p dragon --features fault-injection`.
#[cfg(feature = "fault-injection")]
#[test]
fn injected_panic_degrades_to_exit_one() {
    let out = dragon()
        .args(["demo", "lu"])
        .env("ARAA_FAULTPOINT", "ipl::summarize:3")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("analysis degraded"), "{stderr}");
    assert!(stderr.contains("[ipl]"), "{stderr}");
    assert!(stderr.contains("fault injected"), "{stderr}");
    // The other 23 mini-LU procedures still render.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("blts"), "{stdout}");
    assert!(stdout.contains("rhs"), "{stdout}");
}

#[test]
fn clean_analysis_exits_zero() {
    let src = write_temp(
        "clean_exit.f",
        "program main\n  real a(5)\n  common /g/ a\n  integer i\n  do i = 1, 5\n    a(i) = 0.0\n  end do\nend\n",
    );
    let out = dragon().args(["callgraph", src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

// ---------------------------------------------------------------------------
// Persistent cache (--cache-dir / --no-cache / cache subcommand)
// ---------------------------------------------------------------------------

const CACHE_SRC: &str = "program main\n  real a(8)\n  common /g/ a\n  integer i\n  do i = 1, 8\n    a(i) = 0.0\n  end do\n  call leaf\nend\nsubroutine leaf\n  real a(8)\n  common /g/ a\n  a(3) = 1.0\nend\n";

#[test]
fn warm_cache_run_matches_cold_output() {
    let src = write_temp("cache_warm.f", CACHE_SRC);
    let dir = support::testdir::TestDir::new("dragon-cli-cache");
    let cache = dir.path().to_str().unwrap();
    let cold = dragon()
        .args(["--cache-dir", cache, "callgraph", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(cold.status.code(), Some(0), "{}", String::from_utf8_lossy(&cold.stderr));
    assert!(dir.join("manifest.araa").exists(), "persist must write a manifest");
    let warm = dragon()
        .args(["--cache-dir", cache, "callgraph", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(warm.status.code(), Some(0), "{}", String::from_utf8_lossy(&warm.stderr));
    assert_eq!(cold.stdout, warm.stdout, "warm-from-disk output must be identical");
}

#[test]
fn no_cache_skips_the_cache_dir() {
    let src = write_temp("cache_skip.f", CACHE_SRC);
    let dir = support::testdir::TestDir::new("dragon-cli-nocache");
    let cache = dir.path().to_str().unwrap();
    let out = dragon()
        .args(["--cache-dir", cache, "--no-cache", "callgraph", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!dir.join("manifest.araa").exists(), "--no-cache must not write");
}

#[test]
fn corrupt_cache_quarantines_and_exits_one() {
    let src = write_temp("cache_corrupt.f", CACHE_SRC);
    let dir = support::testdir::TestDir::new("dragon-cli-corrupt");
    let cache = dir.path().to_str().unwrap();
    let cold = dragon()
        .args(["--cache-dir", cache, "callgraph", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(cold.status.code(), Some(0), "{}", String::from_utf8_lossy(&cold.stderr));
    // Flip one payload byte in the manifest.
    let mpath = dir.join("manifest.araa");
    let mut bytes = std::fs::read(&mpath).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&mpath, &bytes).unwrap();
    let warm = dragon()
        .args(["--cache-dir", cache, "callgraph", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(warm.status.code(), Some(1), "{}", String::from_utf8_lossy(&warm.stderr));
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("cache incident"), "{stderr}");
    assert!(stderr.contains("quarantine"), "{stderr}");
    // Rows are unaffected by the cache damage.
    assert_eq!(cold.stdout, warm.stdout);
    // Strict promotes the incident to failure.
    let mut bytes = std::fs::read(&mpath).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&mpath, &bytes).unwrap();
    let strict = dragon()
        .args(["--strict", "--cache-dir", cache, "callgraph", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(strict.status.code(), Some(2), "{}", String::from_utf8_lossy(&strict.stderr));
}

#[test]
fn cache_stats_verify_and_clear_subcommands() {
    let src = write_temp("cache_sub.f", CACHE_SRC);
    let dir = support::testdir::TestDir::new("dragon-cli-sub");
    let cache = dir.path().to_str().unwrap();
    let out = dragon()
        .args(["--cache-dir", cache, "callgraph", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    let stats = dragon().args(["--cache-dir", cache, "cache", "stats"]).output().unwrap();
    assert_eq!(stats.status.code(), Some(0), "{}", String::from_utf8_lossy(&stats.stderr));
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(stdout.contains("manifest:        present"), "{stdout}");
    assert!(stdout.contains("procedures:      2"), "{stdout}");

    let verify = dragon().args(["--cache-dir", cache, "cache", "verify"]).output().unwrap();
    assert_eq!(verify.status.code(), Some(0), "{}", String::from_utf8_lossy(&verify.stderr));
    assert!(String::from_utf8_lossy(&verify.stdout).contains("valid"), "{verify:?}");

    // Damage an entry file: verify reports it and exits 1.
    let entry = std::fs::read_dir(dir.path())
        .unwrap()
        .flatten()
        .find(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy();
            n.starts_with('e') && n.ends_with(".araa")
        })
        .expect("an entry file");
    let mut bytes = std::fs::read(entry.path()).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(entry.path(), &bytes).unwrap();
    let verify = dragon().args(["--cache-dir", cache, "cache", "verify"]).output().unwrap();
    assert_eq!(verify.status.code(), Some(1), "{}", String::from_utf8_lossy(&verify.stderr));
    assert!(String::from_utf8_lossy(&verify.stderr).contains("problem"), "{verify:?}");

    let clear = dragon().args(["--cache-dir", cache, "cache", "clear"]).output().unwrap();
    assert_eq!(clear.status.code(), Some(0), "{}", String::from_utf8_lossy(&clear.stderr));
    assert!(String::from_utf8_lossy(&clear.stdout).contains("removed"), "{clear:?}");
    assert!(!dir.join("manifest.araa").exists());
}

#[test]
fn cache_subcommand_requires_cache_dir() {
    let out = dragon().args(["cache", "stats"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("requires --cache-dir"), "{stderr}");
}

#[test]
fn no_args_prints_usage() {
    let out = dragon().output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_or_malformed_flag_values_are_usage_errors() {
    let src = write_temp("flag_values.f", LINT_CLEAN_SRC);
    let src = src.to_str().unwrap();
    // The client parses its flags before it connects, so a socket nobody
    // listens on must never be reached.
    let socket = std::env::temp_dir().join("dragon_cli_tests/nobody-listens.sock");
    let socket = socket.to_str().unwrap();
    for args in [
        vec!["lint", src, "--sarif"],
        vec!["view", "@", src, "--find"],
        vec!["client", "--socket", socket, "stats", "--limit", "abc"],
        vec!["client", "--socket", socket, "profile", "--top", "abc"],
        vec!["client", "--socket", socket, "stats", "--deadline-ms", "soon"],
    ] {
        let out = dragon().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

// ---------------------------------------------------------------------------
// Observability (--trace-out / --metrics / profile)
// ---------------------------------------------------------------------------

/// Pulls a `counter`/`gauge` value out of the metrics JSONL document.
fn metric_value(doc: &str, kind: &str, name: &str) -> Option<u64> {
    let prefix = format!("{{\"type\":\"{kind}\",\"name\":\"{name}\",\"value\":");
    doc.lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l[prefix.len()..].trim_end_matches('}').parse().ok())
}

#[test]
fn trace_out_writes_valid_artifacts_with_invariants() {
    let dir = support::testdir::TestDir::new("dragon-cli-trace");
    let trace_dir = dir.join("obs");
    let out = dragon()
        .args(["--trace-out", trace_dir.to_str().unwrap(), "demo", "lu"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    let trace = std::fs::read_to_string(trace_dir.join("trace.json")).unwrap();
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    assert!(trace.contains("\"name\":\"session.update\""), "{trace}");
    assert!(trace.contains("\"name\":\"ipa.ipl\""), "{trace}");
    support::persist::verify_text_checksum(&trace).expect("trace trailer verifies");

    let metrics = std::fs::read_to_string(trace_dir.join("metrics.jsonl")).unwrap();
    support::persist::verify_text_checksum(&metrics).expect("metrics trailer verifies");
    let hits = metric_value(&metrics, "counter", "cache.hits").unwrap();
    let recomputes = metric_value(&metrics, "counter", "cache.recomputes").unwrap();
    let procs = metric_value(&metrics, "gauge", "session.procedures").unwrap();
    assert!(procs > 0, "{metrics}");
    assert_eq!(hits + recomputes, procs, "cache accounting covers every procedure");
    assert!(metrics.contains("\"type\":\"proc\""), "{metrics}");
}

#[test]
fn metrics_file_records_structured_diagnostics() {
    let src = write_temp("obs_degraded.f", DEGRADED_SRC);
    let dir = support::testdir::TestDir::new("dragon-cli-metrics");
    let mfile = dir.join("m.jsonl");
    let out = dragon()
        .args(["--metrics", mfile.to_str().unwrap(), "callgraph", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let metrics = std::fs::read_to_string(&mfile).unwrap();
    support::persist::verify_text_checksum(&metrics).expect("metrics trailer verifies");
    // The degradation reported on stderr appears as a structured diag line
    // and in the counters — same sink, no drift.
    assert!(metrics.contains("\"type\":\"diag\",\"severity\":\"degraded\""), "{metrics}");
    assert!(metrics.contains("\"code\":\"analysis.degraded\""), "{metrics}");
    let degrades = metric_value(&metrics, "counter", "degrade.events").unwrap();
    assert!(degrades > 0, "{metrics}");
}

#[test]
fn logical_clock_cli_runs_are_byte_deterministic() {
    let dir = support::testdir::TestDir::new("dragon-cli-logical");
    let run = |n: u32| {
        let tdir = dir.join(&format!("t{n}"));
        let out = dragon()
            .args(["--trace-out", tdir.to_str().unwrap(), "demo", "fig1"])
            .env("ARAA_OBS_CLOCK", "logical")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        (
            std::fs::read(tdir.join("trace.json")).unwrap(),
            std::fs::read(tdir.join("metrics.jsonl")).unwrap(),
        )
    };
    let (trace1, metrics1) = run(1);
    let (trace2, metrics2) = run(2);
    assert_eq!(trace1, trace2, "logical-clock trace must be byte-identical");
    assert_eq!(metrics1, metrics2, "logical-clock metrics must be byte-identical");
}

#[test]
fn profile_ranks_procedures_and_shows_cache_source() {
    let src = write_temp("obs_profile.f", CACHE_SRC);
    let dir = support::testdir::TestDir::new("dragon-cli-profile");
    let cache = dir.path().to_str().unwrap();
    let cold = dragon()
        .args(["--cache-dir", cache, "profile", src.to_str().unwrap(), "--top", "5"])
        .output()
        .unwrap();
    assert_eq!(cold.status.code(), Some(0), "{}", String::from_utf8_lossy(&cold.stderr));
    let stdout = String::from_utf8_lossy(&cold.stdout);
    assert!(stdout.contains("== hot procedures =="), "{stdout}");
    assert!(stdout.contains("== counters =="), "{stdout}");
    assert!(stdout.contains("== phase totals =="), "{stdout}");
    assert!(stdout.contains("session.update"), "{stdout}");
    assert!(stdout.contains("recomputed"), "{stdout}");

    // Warm from disk: the same report now attributes procedures to the
    // cache instead of recomputation.
    let warm = dragon()
        .args(["--cache-dir", cache, "profile", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(warm.status.code(), Some(0), "{}", String::from_utf8_lossy(&warm.stderr));
    let stdout = String::from_utf8_lossy(&warm.stdout);
    assert!(stdout.contains("| primed"), "{stdout}");
    assert!(!stdout.contains("| recomputed"), "warm run must not recompute: {stdout}");
}

// ---------------------------------------------------------------------------
// `dragon lint` (findings, exit codes, SARIF artifact, fault containment)

/// A dead store (`buf` written, never read) next to a clean procedure.
const LINT_DEFECT_SRC: &str = "\
program main
  real buf(16)
  integer i
  do i = 1, 16
    buf(i) = 0.0
  end do
end
";

const LINT_CLEAN_SRC: &str = "\
program main
  real a(5)
  common /g/ a
  integer i
  do i = 1, 5
    a(i) = 0.0
  end do
end
";

#[test]
fn lint_definite_finding_exits_one() {
    let src = write_temp("lint_defect.f", LINT_DEFECT_SRC);
    let out = dragon().args(["lint", src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DST-03"), "{stdout}");
    assert!(stdout.contains("buf"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("definite finding"), "{stderr}");
}

#[test]
fn lint_strict_promotes_findings_to_exit_two() {
    let src = write_temp("lint_defect_strict.f", LINT_DEFECT_SRC);
    let out = dragon().args(["--strict", "lint", src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn lint_clean_source_exits_zero() {
    let src = write_temp("lint_clean.f", LINT_CLEAN_SRC);
    let out = dragon().args(["lint", src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn lint_writes_sealed_sarif() {
    let src = write_temp("lint_sarif.f", LINT_DEFECT_SRC);
    let dir = support::testdir::TestDir::new("dragon-cli-lint-sarif");
    let sarif = dir.join("findings.sarif");
    let out = dragon()
        .args(["lint", src.to_str().unwrap(), "--sarif", sarif.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = std::fs::read_to_string(&sarif).expect("SARIF artifact written");
    assert!(doc.contains("\"ruleId\": \"DST-03\""), "{doc}");
    support::persist::verify_text_checksum(&doc).expect("artifact is sealed");
}

/// `--cache-dir` caches the analysis session, never the lint: two runs
/// through one cache directory print and write exactly what a cacheless
/// `dragon lint` does, and the directory holds no lint artifact.
#[test]
fn lint_with_cache_dir_matches_cacheless_lint() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../workloads/lint_corpus/oob_basic.f");
    let src = src.to_str().unwrap();
    let dir = support::testdir::TestDir::new("dragon-cli-lint-cache");
    let cache = dir.join("cache");
    // One SARIF path for every run: stdout names it.
    let sarif = dir.join("findings.sarif");
    let lint = |cache: Option<&std::path::Path>| {
        let _ = std::fs::remove_file(&sarif);
        let mut cmd = dragon();
        if let Some(c) = cache {
            cmd.args(["--cache-dir", c.to_str().unwrap()]);
        }
        let out = cmd.args(["lint", src, "--sarif", sarif.to_str().unwrap()]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
        (out.stdout, std::fs::read(&sarif).expect("SARIF artifact written"))
    };
    let (plain_out, plain_sarif) = lint(None);
    for run in ["first", "second"] {
        let (out, sarif) = lint(Some(&cache));
        assert_eq!(
            String::from_utf8_lossy(&out),
            String::from_utf8_lossy(&plain_out),
            "{run} run's stdout differs from a cacheless lint"
        );
        assert!(sarif == plain_sarif, "{run} run's SARIF differs from a cacheless lint");
    }
    assert!(cache.join("manifest.araa").exists(), "the analysis session is cached");
    assert!(!cache.join("lint.araa").exists(), "the lint is not");
}

/// A panic while linting one procedure must not silence the others: run
/// the two-defect program with `lint::contain` armed on the second hit
/// (procedures lint in program order) and expect the other overrun to
/// still print alongside the degradation notice.
#[cfg(feature = "fault-injection")]
#[test]
fn lint_contain_fault_degrades_one_procedure_end_to_end() {
    let src = write_temp(
        "lint_fault.f",
        "program main\n  call one\n  call two\nend\n\
         subroutine one\n  real a(10)\n  integer i\n  do i = 1, 12\n    a(i) = a(i) + 1.0\n  end do\nend\n\
         subroutine two\n  real b(10)\n  integer i\n  do i = 1, 12\n    b(i) = b(i) + 1.0\n  end do\nend\n",
    );
    let out = dragon()
        .args(["lint", src.to_str().unwrap()])
        .env("ARAA_FAULTPOINT", "lint::contain:2")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OOB-01"), "{stdout}");
    assert!(stdout.contains("`b`"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lint degraded"), "{stderr}");
    assert!(stderr.contains("fault injected"), "{stderr}");
}

/// A panic during SARIF emission loses the artifact, never the findings.
#[cfg(feature = "fault-injection")]
#[test]
fn lint_sarif_fault_keeps_findings_end_to_end() {
    let src = write_temp("lint_sarif_fault.f", LINT_DEFECT_SRC);
    let dir = support::testdir::TestDir::new("dragon-cli-lint-sarif-fault");
    let sarif = dir.join("findings.sarif");
    let out = dragon()
        .args(["lint", src.to_str().unwrap(), "--sarif", sarif.to_str().unwrap()])
        .env("ARAA_FAULTPOINT", "lint::sarif")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DST-03"), "findings must survive: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SARIF emission failed"), "{stderr}");
    assert!(!sarif.exists(), "no partial artifact may land");
}

// ---------------------------------------------------------------------------
// Global `--timeout` (wall-clock deadline for any command)

#[test]
fn timeout_far_in_the_future_changes_nothing() {
    let out = dragon().args(["--timeout", "300", "demo", "matrix"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("aarr"));
}

#[test]
fn timeout_rejects_nonpositive_values() {
    let out = dragon().args(["--timeout", "0", "demo", "matrix"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "zero timeout is a usage error");
    let out = dragon().args(["--timeout", "nope", "demo", "matrix"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// The headline `--timeout` contract: a wedged analysis (the `stall::ipl`
/// faultpoint spins ~8 s inside one summarize) degrades to exit 1 within
/// the deadline instead of hanging — and says why on stderr.
#[cfg(feature = "fault-injection")]
#[test]
fn timeout_degrades_wedged_analysis_instead_of_hanging() {
    let src = write_temp(
        "stall.f",
        "program main\n  real a(6)\n  common /g/ a\n  integer i\n  do i = 1, 6\n    a(i) = 0.0\n  end do\nend\n",
    );
    let dir = support::testdir::TestDir::new("dragon-cli-timeout");
    let t0 = std::time::Instant::now();
    let out = dragon()
        .env("ARAA_FAULTPOINT", "stall::ipl:1")
        .args([
            "--timeout",
            "1",
            "analyze",
            src.to_str().unwrap(),
            "--out",
            dir.path().to_str().unwrap(),
            "--stem",
            "stall",
        ])
        .output()
        .unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(6),
        "--timeout 1 must cut the ~8 s stall short, took {elapsed:?}"
    );
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--timeout: deadline expired"), "{stderr}");
    // Degraded, not dead: the artifacts still land.
    assert!(dir.join("stall.rgn").exists(), "degraded run still writes artifacts");
}
