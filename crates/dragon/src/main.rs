//! The `dragon` command-line tool.
//!
//! ```text
//! dragon analyze <src...> --out DIR --stem NAME   compile + write .rgn/.dgn/.cfg
//! dragon view <scope> [--find ARRAY] <src...>     render the array analysis graph
//! dragon callgraph <src...>                       DOT call graph (Fig. 11)
//! dragon advise <src...>                          optimization advice
//! dragon demo <fig1|matrix|lu>                    run a built-in paper workload
//! dragon dynamic <entry> <src...>                 execute + dynamic region report
//! dragon hotspots <src...> [--top N]              highest access densities
//! dragon lint <src...> [--sarif FILE] [--threads N]  array-safety findings
//! dragon cache <stats|verify|clear> --cache-dir D inspect/scrub a cache dir
//! ```
//!
//! Source language is inferred from the extension (`.c` → C, else Fortran).
//!
//! `--cache-dir DIR` attaches a persistent analysis cache to any analyzing
//! command: results are loaded from `DIR` when valid (per-procedure, each
//! entry checksummed and fingerprinted) and saved back after the run.
//! Corrupt or stale cache files are quarantined and reported, never trusted;
//! `--no-cache` ignores the cache entirely for one run.
//!
//! Exit codes: `0` — clean analysis; `1` — the analysis completed but some
//! procedures degraded to conservative approximations, or a cache file had
//! to be quarantined (a report goes to stderr); `2` — the analysis failed
//! outright or the invocation was bad. With `--strict`, degradation is
//! promoted to failure (exit `2`). `dragon lint` additionally exits `1`
//! when it reports any *definite* finding (possible-only findings exit
//! `0`), and `2` for definite findings under `--strict`.

use araa::{Analysis, AnalysisOptions, AnalysisSession, SessionStore};
use dragon::sink::{self, Severity};
use dragon::view::ViewOptions;
use dragon::{advisor, render_procedure_list, render_scope, Project};
use frontend::SourceFile;
use std::path::Path;
use support::obs::{self, ClockKind, Collector};
use whirl::Lang;

/// Every allocation the binary makes is counted, so spans in `--trace-out`
/// traces carry real allocation estimates instead of zeros.
#[global_allocator]
static ALLOC: obs::alloc::CountingAllocator<std::alloc::System> =
    obs::alloc::CountingAllocator::new(std::alloc::System);

fn usage() -> ! {
    eprintln!(
        "usage: dragon [--strict] [--cache-dir DIR] [--no-cache]\n\
         \x20             [--trace-out DIR] [--metrics FILE] <command> [options] [sources...]\n\
         \x20 analyze <src...> [--out DIR] [--stem NAME]\n\
         \x20 view <scope> <src...> [--find ARRAY] [--expand-dims]\n\
         \x20 callgraph <src...>\n\
         \x20 advise <src...>\n\
         \x20 demo <fig1|matrix|lu>\n\
         \x20 dynamic <entry> <src...>\n\
         \x20 hotspots <src...> [--top N]\n\
         \x20 lint <src...> [--sarif FILE] [--threads N]\n\
         \x20 profile <src...> [--top N]\n\
         \x20 cache <stats|verify|clear>   (requires --cache-dir)\n\
         \x20 serve --socket PATH [--cache-root DIR] [--workers N]\n\
         \x20       [--queue-depth N] [--deadline-ms N] [--persist-debounce-ms N]\n\
         \x20       [--max-connections N] [--max-frame-bytes N] [--io-timeout-ms N]\n\
         \x20       [--heartbeat-grace-ms N] [--circuit-threshold N]\n\
         \x20       [--circuit-cooldown-ms N] [--slow-threshold-ms N]\n\
         \x20       [--log-capacity N]\n\
         \x20       [--metrics-interval-ms N --metrics-snapshot FILE]\n\
         \x20 client --socket PATH <op|ping> [--project NAME] [--deadline-ms N]\n\
         \x20        [--retries N] [--timeout-ms N] [--trace ID] [--format F]\n\
         \x20        [--limit N] [--top N] [sources...]\n\
         \x20        (ping = health probe with a one-line summary;\n\
         \x20         ops: analyze reanalyze lint query-rgn stats health\n\
         \x20         shutdown metrics query-log profile)\n\
         \x20 top --socket PATH [--interval-ms N] [--iterations N|--once]\n\
         \x20     [--top N]   (live daemon dashboard: rps, per-op p50/p95/p99,\n\
         \x20     worker heartbeats, hottest procedures)\n\
         \x20 --strict: treat degraded analysis as failure (exit 2)\n\
         \x20 --cache-dir DIR: load/save a persistent analysis cache\n\
         \x20 --no-cache: ignore --cache-dir for this run\n\
         \x20 --timeout SECS: wall-clock deadline; analysis degrades (exit 1)\n\
         \x20                 instead of running past it\n\
         \x20 --mem-budget-mb MB: allocation-churn budget; analysis degrades\n\
         \x20                 (exit 1) instead of allocating past it; for\n\
         \x20                 serve/client it sets the per-request default\n\
         \x20 --trace-out DIR: write trace.json (Chrome trace) + metrics.jsonl\n\
         \x20 --metrics FILE: write the JSONL metrics stream to FILE"
    );
    std::process::exit(2);
}

fn read_sources(paths: &[String]) -> Vec<(SourceFile, workloads::GenSource)> {
    let mut out = Vec::new();
    for p in paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => sink::fatal("io.read", format!("cannot read {p}: {e}")),
        };
        let lang = if p.ends_with(".c") { Lang::C } else { Lang::Fortran };
        let name = std::path::Path::new(p)
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.clone());
        out.push((
            SourceFile::new(&name, &text, lang),
            workloads::GenSource {
                name,
                text,
                fortran: lang == Lang::Fortran,
            },
        ));
    }
    out
}

/// Runs the pipeline, through a persistent cache when one is attached.
/// Returns the analysis plus any cache incidents (quarantined files, lock
/// timeouts) — the analysis itself is never affected by cache trouble, only
/// how much of it had to be recomputed.
fn run_analysis(
    gens: &[workloads::GenSource],
    cache_dir: Option<&str>,
) -> support::Result<(Analysis, Vec<araa::Degradation>)> {
    match cache_dir {
        Some(dir) => {
            let mut session = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
            session.load();
            session.update(gens)?;
            session.persist();
            let incidents = session.cache_incidents().to_vec();
            let analysis = session.into_analysis().ok_or_else(|| {
                support::Error::Analysis("analysis session kept no result".to_string())
            })?;
            Ok((analysis, incidents))
        }
        None => Ok((Analysis::analyze(gens, AnalysisOptions::default())?, Vec::new())),
    }
}

fn analyze(
    gens: &[workloads::GenSource],
    strict: bool,
    cache_dir: Option<&str>,
) -> (Analysis, Project) {
    match run_analysis(gens, cache_dir) {
        Ok((a, cache_incidents)) => {
            if !cache_incidents.is_empty() {
                let mut msg = format!(
                    "{} cache incident(s) (results are unaffected; \
                     the affected procedures were recomputed):",
                    cache_incidents.len()
                );
                for d in &cache_incidents {
                    msg.push_str(&format!("\n  {d}"));
                }
                sink::emit(Severity::Degraded, "cache.incident", msg);
            }
            if a.degraded() {
                let mut msg =
                    format!("analysis degraded ({} issue(s)):", a.degradations.len());
                for d in &a.degradations {
                    msg.push_str(&format!("\n  {d}"));
                }
                sink::emit(Severity::Degraded, "analysis.degraded", msg);
            }
            if sink::degraded() && strict {
                sink::fatal("strict", "--strict: treating degraded analysis as failure");
            }
            let project = Project::from_generated(&a, gens);
            (a, project)
        }
        Err(e) => {
            // Point at the offending source line when the error carries a
            // position (we do not know which file; show the first match).
            if let Some(pos) = frontend::diag::error_pos(&e) {
                for g in gens {
                    if g.text.lines().nth(pos.line.saturating_sub(1) as usize).is_some() {
                        sink::fatal(
                            "analysis.error",
                            frontend::diag::render(&g.name, &g.text, &e),
                        );
                    }
                }
            }
            sink::fatal("analysis.error", format!("{e}"));
        }
    }
}

/// Renders and writes the SARIF artifact (checksummed, atomic). Emission
/// failure — including an armed `lint::sarif` faultpoint — degrades the
/// run; the findings already printed are unaffected.
fn write_sarif(report: &lint::LintReport, path: &str) {
    let rendered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lint::sarif::to_sarif(report, env!("CARGO_PKG_VERSION"))
    }));
    match rendered {
        Ok(mut doc) => {
            support::persist::append_text_checksum(&mut doc);
            if let Err(e) = support::persist::atomic_write(
                std::path::Path::new(path),
                doc.as_bytes(),
            ) {
                sink::emit(
                    Severity::Degraded,
                    "lint.sarif",
                    format!("cannot write {path}: {e}"),
                );
            } else {
                println!("wrote SARIF to {path}");
            }
        }
        Err(_) => sink::emit(
            Severity::Degraded,
            "lint.sarif",
            "SARIF emission failed; the findings above are unaffected".to_string(),
        ),
    }
}

fn demo_sources(which: &str) -> Vec<workloads::GenSource> {
    match which {
        "fig1" => vec![workloads::fig1::source()],
        "matrix" => vec![workloads::fig10::source()],
        "lu" => workloads::mini_lu::sources(),
        other => sink::fatal("cli.demo", format!("unknown demo `{other}` (try fig1, matrix, lu)")),
    }
}

/// Renders the self-profiling report: per-procedure ranking (heaviest
/// first) plus per-phase totals, from the collector's [`obs::Snapshot`].
fn render_profile(snap: &obs::Snapshot, top: usize) -> String {
    let fmt_units = |v: u64| match snap.clock {
        ClockKind::Monotonic => format!("{:.3} ms", v as f64 / 1e6),
        ClockKind::Logical => format!("{v} ticks"),
    };
    let fmt_bytes = |v: u64| {
        if v >= 1 << 20 {
            format!("{:.1} MB", v as f64 / (1u64 << 20) as f64)
        } else if v >= 1 << 10 {
            format!("{:.1} KB", v as f64 / 1024.0)
        } else {
            format!("{v} B")
        }
    };
    let mut out = String::new();
    out.push_str("== hot procedures ==\n");
    if snap.procs.is_empty() {
        out.push_str("(no per-procedure spans recorded)\n");
    } else {
        let mut t = support::table::Table::new(["procedure", "time", "alloc", "spans", "source"]);
        for p in snap.procs.iter().take(top) {
            let source = match (p.primed, p.recomputed) {
                (true, true) => "primed+recomputed",
                (true, false) => "primed",
                (false, true) => "recomputed",
                (false, false) => "-",
            };
            t.add_row([
                p.proc.clone(),
                fmt_units(p.total),
                fmt_bytes(p.alloc),
                format!("{}", p.spans),
                source.to_string(),
            ]);
        }
        out.push_str(&t.render(false));
    }
    out.push_str("\n== counters ==\n");
    let nonzero: Vec<_> = snap.counters.iter().filter(|(_, v)| *v > 0).collect();
    if nonzero.is_empty() {
        out.push_str("(no counters incremented)\n");
    } else {
        let mut t = support::table::Table::new(["counter", "value"]);
        for (name, v) in nonzero {
            t.add_row([name.to_string(), format!("{v}")]);
        }
        out.push_str(&t.render(false));
    }
    out.push_str("\n== phase totals ==\n");
    let mut spans: Vec<&obs::SpanAgg> = snap.spans.iter().collect();
    spans.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(b.name)));
    let mut t = support::table::Table::new(["span", "count", "time", "alloc"]);
    for s in spans {
        t.add_row([
            s.name.to_string(),
            format!("{}", s.count),
            fmt_units(s.total),
            fmt_bytes(s.alloc),
        ]);
    }
    out.push_str(&t.render(false));
    out
}

/// The metrics JSONL document: collector body + structured diagnostics,
/// sealed with the `#checksum` trailer.
fn metrics_document(collector: &Collector) -> String {
    let mut doc = collector.metrics_jsonl_body();
    doc.push_str(&sink::records_jsonl());
    support::persist::append_text_checksum(&mut doc);
    doc
}

/// Writes the observability artifacts at the end of an observed run. A
/// write failure degrades the run (exit 1) rather than failing it — the
/// analysis itself succeeded.
fn write_obs_artifacts(
    collector: &Collector,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) {
    let mut targets: Vec<(std::path::PathBuf, String)> = Vec::new();
    if let Some(dir) = trace_out {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            sink::emit(
                Severity::Degraded,
                "obs.write",
                format!("cannot create trace dir {}: {e}", dir.display()),
            );
            return;
        }
        targets.push((dir.join("trace.json"), collector.chrome_trace_json()));
        targets.push((dir.join("metrics.jsonl"), metrics_document(collector)));
    }
    if let Some(file) = metrics_out {
        targets.push((std::path::PathBuf::from(file), metrics_document(collector)));
    }
    for (path, doc) in targets {
        if let Err(e) = support::persist::atomic_write(&path, doc.as_bytes()) {
            sink::emit(
                Severity::Degraded,
                "obs.write",
                format!("cannot write {}: {e}", path.display()),
            );
        }
    }
}

/// One-line daemon liveness summary from a `health` result, for
/// `dragon client ping`.
fn render_ping(result: &support::json::Value) -> String {
    use support::json::Value;
    let u64_of = |k: &str| result.get(k).and_then(Value::as_u64).unwrap_or(0);
    let workers = result.get("workers").and_then(Value::as_arr).map_or(0, <[Value]>::len);
    let max_beat = result
        .get("workers")
        .and_then(Value::as_arr)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| w.get("heartbeat_age_ms").and_then(Value::as_u64))
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    let circuits = result
        .get("open_circuits")
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len);
    let budget = match result.get("mem_budget_mb").and_then(Value::as_u64) {
        Some(mb) => format!("{mb} MiB"),
        None => "unlimited".to_string(),
    };
    format!(
        "daemon ok: uptime {} ms, {} worker(s) (max heartbeat age {} ms, \
         {} replacement(s)), {} open circuit(s), {} session(s), \
         mem high-water {} bytes (budget {})",
        u64_of("uptime_ms"),
        workers,
        max_beat,
        u64_of("worker_replacements"),
        circuits,
        u64_of("sessions"),
        u64_of("mem_high_water_bytes"),
        budget,
    )
}

/// Formats a latency in clock units: milliseconds under the monotonic
/// clock (units are nanoseconds), raw ticks under the logical clock.
fn fmt_units(units: u64, logical: bool) -> String {
    if logical {
        format!("{units}t")
    } else if units >= 1_000_000 {
        format!("{}.{}ms", units / 1_000_000, (units % 1_000_000) / 100_000)
    } else {
        format!("{}us", units / 1_000)
    }
}

/// One refresh of the `dragon top` dashboard: daemon summary line, per-op
/// latency table, worker heartbeats, and hottest procedures.
fn render_top(
    metrics: &support::json::Value,
    health: &support::json::Value,
    profile: &support::json::Value,
    rps: Option<f64>,
) -> String {
    use support::json::Value;
    use support::table::Table;
    let u64_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let logical = metrics.get("clock").and_then(Value::as_str) == Some("logical");
    let mut out = format!(
        "dragon top — uptime {} ms | rps {} | workers {} | sessions {} | \
         queue {} | open circuits {} | mem high-water {} B | invalid {}\n",
        u64_of(metrics, "uptime_ms"),
        match rps {
            Some(r) => format!("{r:.1}"),
            None => "-".to_string(),
        },
        u64_of(metrics, "workers"),
        u64_of(metrics, "sessions"),
        u64_of(metrics, "queue_depth"),
        u64_of(metrics, "open_circuits"),
        u64_of(metrics, "mem_high_water_bytes"),
        u64_of(metrics, "invalid_requests"),
    );
    let mut ops_table =
        Table::new(["op", "count", "ok", "degr", "shed", "deadl", "err", "p50", "p95", "p99"]);
    if let Some(ops) = metrics.get("ops").and_then(Value::as_obj) {
        for (name, op) in ops {
            let count = u64_of(op, "count");
            if count == 0 {
                continue;
            }
            let oc = |k: &str| {
                op.get("outcomes").and_then(|o| o.get(k)).and_then(Value::as_u64).unwrap_or(0)
            };
            let (ok, degr, shed, deadl) =
                (oc("ok"), oc("degraded"), oc("shed"), oc("deadline-expired"));
            let err = count.saturating_sub(ok + degr + shed + deadl);
            let lat = |k: &str| {
                let units =
                    op.get("latency").and_then(|l| l.get(k)).and_then(Value::as_u64).unwrap_or(0);
                fmt_units(units, logical)
            };
            ops_table.add_row([
                name.clone(),
                count.to_string(),
                ok.to_string(),
                degr.to_string(),
                shed.to_string(),
                deadl.to_string(),
                err.to_string(),
                lat("p50_units"),
                lat("p95_units"),
                lat("p99_units"),
            ]);
        }
    }
    if ops_table.row_count() > 0 {
        out.push('\n');
        out.push_str(&ops_table.render(false));
    }
    if let Some(workers) = health.get("workers").and_then(Value::as_arr) {
        let beats: Vec<String> = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "w{i} gen {} beat {} ms{}",
                    u64_of(w, "generation"),
                    u64_of(w, "heartbeat_age_ms"),
                    if w.get("busy").and_then(Value::as_bool) == Some(true) {
                        " busy"
                    } else {
                        ""
                    }
                )
            })
            .collect();
        out.push_str(&format!("\nworkers: {}\n", beats.join(" | ")));
    }
    // Hottest procedures across projects, ranked by aggregated span time.
    let mut hot: Vec<(String, String, u64, u64)> = Vec::new();
    if let Some(projects) = profile.get("projects").and_then(Value::as_arr) {
        for p in projects {
            let project =
                p.get("project").and_then(Value::as_str).unwrap_or("?").to_string();
            if let Some(procs) = p.get("procs").and_then(Value::as_arr) {
                for pr in procs {
                    hot.push((
                        project.clone(),
                        pr.get("proc").and_then(Value::as_str).unwrap_or("?").to_string(),
                        u64_of(pr, "total_units"),
                        u64_of(pr, "spans"),
                    ));
                }
            }
        }
    }
    hot.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (&a.0, &a.1).cmp(&(&b.0, &b.1))));
    if !hot.is_empty() {
        let mut t = Table::new(["project", "proc", "time", "spans"]);
        for (project, proc_name, units, spans) in hot.into_iter().take(10) {
            t.add_row([
                project,
                proc_name,
                fmt_units(units, logical),
                spans.to_string(),
            ]);
        }
        out.push('\n');
        out.push_str("hottest procedures (sampled spans)\n");
        out.push_str(&t.render(false));
    }
    out
}

/// `dragon top`: a refreshing dashboard over the daemon's `metrics`,
/// `health`, and `profile` ops. Exits after `--iterations N` refreshes
/// (`--once` = 1); runs until interrupted otherwise.
fn run_top(
    copts: &dragon::serve::ClientOptions,
    interval_ms: u64,
    iterations: Option<u64>,
    top_n: u64,
) {
    use std::io::IsTerminal;
    use support::json::Value;
    let call_op = |op: &'static str, extra: Vec<(&'static str, Value)>| -> Option<Value> {
        let mut fields = vec![("id", Value::int(1)), ("op", Value::str(op))];
        fields.extend(extra);
        match dragon::serve::call(copts, &support::json::obj(fields)) {
            Ok(resp) if resp.get("ok").and_then(Value::as_bool) == Some(true) => {
                resp.get("result").cloned()
            }
            Ok(resp) => {
                let msg = resp
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Value::as_str)
                    .unwrap_or("request failed");
                eprintln!("dragon top: {op}: {msg}");
                None
            }
            Err(e) => {
                eprintln!("dragon top: {op}: {e}");
                None
            }
        }
    };
    let clear = std::io::stdout().is_terminal() && iterations != Some(1);
    let mut prev: Option<(u64, std::time::Instant)> = None;
    let mut done = 0u64;
    loop {
        let Some(metrics) = call_op("metrics", vec![]) else {
            std::process::exit(1);
        };
        let health = call_op("health", vec![]).unwrap_or(Value::Null);
        let profile =
            call_op("profile", vec![("top", Value::int(top_n))]).unwrap_or(Value::Null);
        let total = metrics.get("requests_total").and_then(Value::as_u64).unwrap_or(0);
        let now = std::time::Instant::now();
        let rps = prev.map(|(t0, at)| {
            let dt = now.duration_since(at).as_secs_f64().max(1e-9);
            (total.saturating_sub(t0)) as f64 / dt
        });
        prev = Some((total, now));
        if clear {
            // ANSI clear + home keeps the dashboard in place across refreshes.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(&metrics, &health, &profile, rps));
        use std::io::Write;
        let _ = std::io::stdout().flush();
        done += 1;
        if iterations.is_some_and(|n| done >= n) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut strict = false;
    let mut no_cache = false;
    let mut cache_dir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut timeout_secs: Option<f64> = None;
    let mut mem_budget_mb: Option<u64> = None;
    let mut args: Vec<String> = Vec::with_capacity(raw.len());
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strict" => strict = true,
            "--no-cache" => no_cache = true,
            "--cache-dir" => cache_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--trace-out" => trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics" => metrics_out = Some(it.next().unwrap_or_else(|| usage())),
            "--timeout" => {
                timeout_secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| *s > 0.0)
                    .or_else(|| usage())
            }
            "--mem-budget-mb" => {
                mem_budget_mb =
                    it.next().and_then(|v| v.parse().ok()).or_else(|| usage())
            }
            _ => args.push(a),
        }
    }
    let store_dir = cache_dir.clone();
    if no_cache {
        cache_dir = None;
    }
    let cache_dir = cache_dir.as_deref();
    let Some(cmd) = args.first() else { usage() };

    // Observation is on when any export was requested or the command is
    // itself a profiling report. ARAA_OBS_CLOCK=logical swaps in the
    // deterministic clock (tests compare artifact bytes across runs).
    let collector = if trace_out.is_some() || metrics_out.is_some() || cmd == "profile" {
        let clock = match std::env::var("ARAA_OBS_CLOCK").ok().as_deref() {
            Some("logical") => ClockKind::Logical,
            _ => ClockKind::Monotonic,
        };
        let c = Collector::new(clock);
        obs::install_global(c.clone());
        Some(c)
    } else {
        None
    };

    // `--timeout` installs a wall-clock deadline for the whole command.
    // Budget checkpoints observe it (worker threads inherit it), so a
    // stuck solve degrades conservatively instead of hanging; the expiry
    // itself is reported as a degradation below (exit 1, never a hang).
    let deadline_token = timeout_secs.map(|s| {
        support::deadline::DeadlineToken::after(std::time::Duration::from_secs_f64(s))
    });
    let _deadline_scope = deadline_token.clone().map(support::deadline::enter);

    // `--mem-budget-mb` bounds the whole command's allocation churn the
    // same way (budget checkpoints observe the scope; workers inherit it).
    // For `serve` the flag is a per-request default instead — a daemon-
    // lifetime scope would conflate every request's charges.
    let cli_mem_budget = if cmd == "serve" {
        None
    } else {
        mem_budget_mb.map(support::memory::MemoryBudget::mb)
    };
    let _mem_scope = cli_mem_budget.clone().map(support::memory::enter);

    match cmd.as_str() {
        "analyze" => {
            let mut out_dir = ".".to_string();
            let mut stem = "project".to_string();
            let mut srcs = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => out_dir = it.next().cloned().unwrap_or_else(|| usage()),
                    "--stem" => stem = it.next().cloned().unwrap_or_else(|| usage()),
                    other => srcs.push(other.to_string()),
                }
            }
            if srcs.is_empty() {
                usage();
            }
            let pairs = read_sources(&srcs);
            let gens: Vec<_> = pairs.into_iter().map(|(_, g)| g).collect();
            let (analysis, _) = analyze(&gens, strict, cache_dir);
            if let Err(e) =
                analysis.write_project(std::path::Path::new(&out_dir), &stem)
            {
                sink::fatal("io.write", format!("{e}"));
            }
            println!(
                "wrote {out_dir}/{stem}.rgn, .dgn, .cfg ({} rows, {} procedures)",
                analysis.rows.len(),
                analysis.program.procedure_count()
            );
        }
        "view" => {
            let Some(scope) = args.get(1) else { usage() };
            let mut find = None;
            let mut expand = false;
            let mut srcs = Vec::new();
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--find" => find = Some(it.next().cloned().unwrap_or_else(|| usage())),
                    "--expand-dims" => expand = true,
                    other => srcs.push(other.to_string()),
                }
            }
            let gens: Vec<_> =
                read_sources(&srcs).into_iter().map(|(_, g)| g).collect();
            let (_, project) = analyze(&gens, strict, cache_dir);
            print!("{}", render_procedure_list(&project));
            let opts = ViewOptions { find, expand_dims: expand, color: true };
            print!("{}", render_scope(&project, scope, &opts));
        }
        "callgraph" => {
            let gens: Vec<_> =
                read_sources(&args[1..]).into_iter().map(|(_, g)| g).collect();
            let (analysis, _) = analyze(&gens, strict, cache_dir);
            print!("{}", analysis.callgraph.to_dot(&analysis.program));
        }
        "advise" => {
            let gens: Vec<_> =
                read_sources(&args[1..]).into_iter().map(|(_, g)| g).collect();
            let (analysis, project) = analyze(&gens, strict, cache_dir);
            print!("{}", advisor::render(&advisor::advise(&analysis, &project)));
        }
        "demo" => {
            let Some(which) = args.get(1) else { usage() };
            let gens = demo_sources(which);
            let (analysis, project) = analyze(&gens, strict, cache_dir);
            println!("== procedures ==");
            print!("{}", render_procedure_list(&project));
            println!("\n== array analysis graph (@ scope) ==");
            print!("{}", render_scope(&project, "@", &ViewOptions::default()));
            println!("\n== advice ==");
            print!("{}", advisor::render(&advisor::advise(&analysis, &project)));
        }
        "hotspots" => {
            let mut top = 10usize;
            let mut srcs = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--top" => {
                        top = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    other => srcs.push(other.to_string()),
                }
            }
            let gens: Vec<_> =
                read_sources(&srcs).into_iter().map(|(_, g)| g).collect();
            let (_, project) = analyze(&gens, strict, cache_dir);
            print!("{}", dragon::view::render_hotspots(&project, top));
        }
        "lint" => {
            let mut sarif_out: Option<String> = None;
            let mut threads = 1usize;
            let mut srcs = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--sarif" => {
                        sarif_out = Some(it.next().cloned().unwrap_or_else(|| usage()))
                    }
                    "--threads" => {
                        threads = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    other => srcs.push(other.to_string()),
                }
            }
            if srcs.is_empty() {
                usage();
            }
            let gens: Vec<_> =
                read_sources(&srcs).into_iter().map(|(_, g)| g).collect();
            let (analysis, _) = analyze(&gens, strict, cache_dir);
            let report = lint::run(&analysis, &lint::LintOptions { threads });
            print!("{}", report.render());
            for d in &report.degradations {
                sink::emit(
                    Severity::Degraded,
                    "lint.degraded",
                    format!("lint degraded for `{}`: {}", d.proc, d.detail),
                );
            }
            if let Some(path) = sarif_out.as_deref() {
                write_sarif(&report, path);
            }
            if report.definite_count() > 0 {
                sink::emit(
                    Severity::Degraded,
                    "lint.findings",
                    format!(
                        "{} definite finding(s) — see report above",
                        report.definite_count()
                    ),
                );
            } else if !report.findings.is_empty() {
                sink::emit(
                    Severity::Note,
                    "lint.findings",
                    format!("{} possible finding(s)", report.findings.len()),
                );
            }
        }
        "dynamic" => {
            let Some(entry) = args.get(1) else { usage() };
            let gens: Vec<_> =
                read_sources(&args[2..]).into_iter().map(|(_, g)| g).collect();
            let (analysis, _) = analyze(&gens, strict, cache_dir);
            match araa::dynamic::run_dynamic(
                &analysis.program,
                entry,
                whirl::interp::Limits::default(),
            ) {
                Ok(dynamic) => {
                    print!("{}", araa::dynamic::render_report(&analysis.program, &dynamic));
                    let violations = araa::dynamic::validate_against_static(
                        &analysis.program,
                        &analysis.ipa,
                        &dynamic,
                    );
                    println!(
                        "\n{} element accesses; static-covers-dynamic violations: {}",
                        dynamic.total_accesses,
                        violations.len()
                    );
                    for v in violations {
                        println!("  VIOLATION: {}", v.detail);
                    }
                }
                Err(e) => sink::fatal("dynamic.failed", format!("execution failed: {e}")),
            }
        }
        "profile" => {
            let mut top = 10usize;
            let mut srcs = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--top" => {
                        top = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    other => srcs.push(other.to_string()),
                }
            }
            if srcs.is_empty() {
                usage();
            }
            let gens: Vec<_> =
                read_sources(&srcs).into_iter().map(|(_, g)| g).collect();
            let _ = analyze(&gens, strict, cache_dir);
            let Some(c) = &collector else { usage() };
            print!("{}", render_profile(&c.snapshot(), top));
        }
        "serve" => {
            let mut opts = dragon::serve::ServeOptions::default();
            let mut socket: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => socket = it.next().cloned(),
                    "--cache-root" => {
                        opts.cache_root =
                            Some(it.next().cloned().unwrap_or_else(|| usage()).into())
                    }
                    "--workers" => {
                        opts.workers = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--queue-depth" => {
                        opts.queue_depth = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--deadline-ms" => {
                        opts.default_deadline_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    // 0 = write-through (persist inline on every analyze).
                    "--persist-debounce-ms" => {
                        opts.persist_debounce_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--max-connections" => {
                        opts.max_connections = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--max-frame-bytes" => {
                        opts.max_frame_bytes = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--io-timeout-ms" => {
                        opts.io_timeout_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--heartbeat-grace-ms" => {
                        opts.heartbeat_grace_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--circuit-threshold" => {
                        opts.circuit_threshold = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--circuit-cooldown-ms" => {
                        opts.circuit_cooldown_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--metrics-interval-ms" => {
                        opts.metrics_interval_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--metrics-snapshot" => {
                        opts.metrics_snapshot =
                            Some(it.next().cloned().unwrap_or_else(|| usage()).into())
                    }
                    "--slow-threshold-ms" => {
                        opts.slow_threshold_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--log-capacity" => {
                        opts.log_capacity = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    _ => usage(),
                }
            }
            opts.socket = socket.unwrap_or_else(|| usage()).into();
            opts.mem_budget_mb = mem_budget_mb;
            if (opts.metrics_interval_ms > 0) != opts.metrics_snapshot.is_some() {
                sink::fatal(
                    "serve.usage",
                    "--metrics-interval-ms and --metrics-snapshot FILE go together"
                        .to_string(),
                );
            }
            eprintln!(
                "dragon serve: listening on {} ({} worker(s), queue depth {}, \
                 default deadline {} ms, default memory budget {})",
                opts.socket.display(),
                opts.workers,
                opts.queue_depth,
                opts.default_deadline_ms,
                match opts.mem_budget_mb {
                    Some(mb) => format!("{mb} MiB"),
                    None => "unlimited".to_string(),
                }
            );
            if let Err(e) = dragon::serve::run(opts) {
                sink::fatal("serve", format!("{e}"));
            }
            eprintln!("dragon serve: drained and persisted; exiting");
        }
        "client" => {
            let mut copts = dragon::serve::ClientOptions::default();
            let mut socket: Option<String> = None;
            let mut op: Option<String> = None;
            let mut project: Option<String> = None;
            let mut deadline_ms: Option<u64> = None;
            let mut trace_id: Option<String> = None;
            let mut format: Option<String> = None;
            let mut limit: Option<u64> = None;
            let mut top: Option<u64> = None;
            let mut srcs = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => socket = it.next().cloned(),
                    "--project" => {
                        project = Some(it.next().cloned().unwrap_or_else(|| usage()))
                    }
                    "--deadline-ms" => {
                        deadline_ms = Some(
                            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
                        )
                    }
                    "--trace" => {
                        trace_id = Some(it.next().cloned().unwrap_or_else(|| usage()))
                    }
                    "--format" => {
                        format = Some(it.next().cloned().unwrap_or_else(|| usage()))
                    }
                    "--limit" => {
                        limit = Some(
                            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
                        )
                    }
                    "--top" => {
                        top = Some(
                            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
                        )
                    }
                    "--retries" => {
                        copts.retries = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--timeout-ms" => {
                        copts.timeout = std::time::Duration::from_millis(
                            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
                        )
                    }
                    other if op.is_none() => op = Some(other.to_string()),
                    other => srcs.push(other.to_string()),
                }
            }
            copts.socket = socket.unwrap_or_else(|| usage()).into();
            let op = op.unwrap_or_else(|| usage());
            // `ping` is a liveness alias: a `health` request whose response
            // prints as a one-line summary instead of raw JSON.
            let ping = op == "ping";
            let wire_op = if ping { "health".to_string() } else { op };
            if dragon::serve::proto::Op::parse(&wire_op).is_none() {
                sink::fatal("client.usage", format!("unknown op `{wire_op}`"));
            }
            use support::json::Value;
            let mut fields = vec![
                ("id", Value::int(1)),
                ("op", Value::str(wire_op.as_str())),
            ];
            // Omitted --project stays omitted on the wire: `query-log` and
            // `profile` treat an absent project as "all projects".
            if let Some(p) = project {
                fields.push(("project", Value::str(p)));
            }
            if let Some(t) = trace_id {
                fields.push(("trace", Value::str(t)));
            }
            if let Some(f) = format {
                fields.push(("format", Value::str(f)));
            }
            if let Some(n) = limit {
                fields.push(("limit", Value::int(n)));
            }
            if let Some(n) = top {
                fields.push(("top", Value::int(n)));
            }
            if let Some(ms) = deadline_ms {
                fields.push(("deadline_ms", Value::int(ms)));
            }
            if let Some(mb) = mem_budget_mb {
                fields.push(("mem_budget_mb", Value::int(mb)));
            }
            if !srcs.is_empty() {
                let sources: Vec<Value> = read_sources(&srcs)
                    .into_iter()
                    .map(|(_, g)| {
                        support::json::obj([
                            ("name", Value::str(g.name)),
                            ("text", Value::str(g.text)),
                            ("fortran", Value::Bool(g.fortran)),
                        ])
                    })
                    .collect();
                fields.push(("sources", Value::Arr(sources)));
            }
            let request = support::json::obj(fields);
            match dragon::serve::call(&copts, &request) {
                Ok(resp) => {
                    let healthy = resp.get("ok").and_then(Value::as_bool) == Some(true);
                    match (ping, healthy, resp.get("result")) {
                        (true, true, Some(result)) => {
                            println!("{}", render_ping(result))
                        }
                        // Text formats (`metrics --format prometheus`,
                        // `profile --format collapsed`) print their body
                        // verbatim instead of JSON-escaped.
                        (false, true, Some(result))
                            if result.get("format").is_some()
                                && result.get("body").and_then(Value::as_str).is_some() =>
                        {
                            let body = result
                                .get("body")
                                .and_then(Value::as_str)
                                .unwrap_or_default();
                            print!("{body}");
                            if !body.ends_with('\n') {
                                println!();
                            }
                        }
                        _ => println!("{}", resp.render()),
                    }
                    if !healthy {
                        let msg = resp
                            .get("error")
                            .and_then(|e| e.get("message"))
                            .and_then(Value::as_str)
                            .unwrap_or("request failed");
                        sink::fatal("client.request", msg.to_string());
                    }
                    let degraded = resp
                        .get("result")
                        .and_then(|r| r.get("degraded"))
                        .and_then(Value::as_bool)
                        == Some(true);
                    let expired = resp
                        .get("result")
                        .and_then(|r| r.get("deadline_expired"))
                        .and_then(Value::as_bool)
                        == Some(true);
                    if degraded || expired {
                        sink::emit(
                            Severity::Degraded,
                            "client.degraded",
                            format!(
                                "response degraded (deadline_expired={expired}); \
                                 results are conservative"
                            ),
                        );
                    }
                }
                Err(e) => sink::fatal("client.io", format!("{e}")),
            }
        }
        "top" => {
            let mut copts = dragon::serve::ClientOptions::default();
            let mut socket: Option<String> = None;
            let mut interval_ms = 1000u64;
            let mut iterations: Option<u64> = None;
            let mut top_n = 5u64;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => socket = it.next().cloned(),
                    "--interval-ms" => {
                        interval_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage())
                    }
                    "--iterations" => {
                        iterations = Some(
                            it.next()
                                .and_then(|v| v.parse().ok())
                                .filter(|&n| n > 0)
                                .unwrap_or_else(|| usage()),
                        )
                    }
                    "--once" => iterations = Some(1),
                    "--top" => {
                        top_n = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
                    }
                    _ => usage(),
                }
            }
            copts.socket = socket.unwrap_or_else(|| usage()).into();
            run_top(&copts, interval_ms, iterations, top_n);
        }
        "cache" => {
            let Some(op) = args.get(1) else { usage() };
            let Some(dir) = store_dir.as_deref() else {
                sink::fatal("cache.usage", format!("cache {op} requires --cache-dir DIR"));
            };
            let store = SessionStore::new(dir, &AnalysisOptions::default());
            match op.as_str() {
                "stats" => match store.stats() {
                    Ok(s) => {
                        println!("cache directory: {dir}");
                        println!("manifest:        {}", if s.manifest { "present" } else { "absent" });
                        println!("procedures:      {}", s.procedures);
                        println!("sources:         {}", s.sources);
                        println!("entry files:     {}", s.entry_files);
                        println!("total bytes:     {}", s.bytes);
                        println!("quarantined:     {}", s.quarantined);
                        let (qcount, qbytes) =
                            support::persist::quarantine_usage(Path::new(dir));
                        println!(
                            "quarantine dir:  {qcount} file(s), {qbytes} byte(s) \
                             (cap {} files / {} bytes, oldest evicted first)",
                            support::persist::QUARANTINE_MAX_FILES,
                            support::persist::QUARANTINE_MAX_BYTES,
                        );
                    }
                    Err(e) => sink::fatal("cache.stats", format!("cache stats: {e}")),
                },
                "verify" => match store.verify() {
                    Ok(r) => {
                        println!(
                            "{} file(s) valid, {} orphan entr{} (unreferenced, swept on next save)",
                            r.ok,
                            r.orphans,
                            if r.orphans == 1 { "y" } else { "ies" }
                        );
                        if !r.clean() {
                            let mut msg = format!("{} problem(s):", r.problems.len());
                            for p in &r.problems {
                                msg.push_str(&format!("\n  {p}"));
                            }
                            sink::emit(Severity::Degraded, "cache.verify", msg);
                        }
                    }
                    Err(e) => sink::fatal("cache.verify", format!("cache verify: {e}")),
                },
                "clear" => match store.clear() {
                    Ok(n) => println!("removed {n} file(s) from {dir}"),
                    Err(e) => sink::fatal("cache.clear", format!("cache clear: {e}")),
                },
                _ => usage(),
            }
        }
        _ => usage(),
    }
    if let Some(token) = &deadline_token {
        if token.expired_now() {
            sink::emit(
                Severity::Degraded,
                "cli.timeout",
                "--timeout: deadline expired; affected results were widened \
                 conservatively"
                    .to_string(),
            );
        }
    }
    if let Some(budget) = &cli_mem_budget {
        if budget.exhausted() {
            sink::emit(
                Severity::Degraded,
                "cli.mem-budget",
                format!(
                    "--mem-budget-mb: {} MiB budget exhausted ({} bytes charged); \
                     affected results were widened conservatively",
                    budget.limit_bytes() >> 20,
                    budget.charged_bytes()
                ),
            );
        }
    }
    // Exporters run last so the artifacts cover the whole run, including
    // any structured diagnostics reported above.
    if let Some(c) = &collector {
        write_obs_artifacts(c, trace_out.as_deref(), metrics_out.as_deref());
    }
    std::process::exit(sink::exit_code(strict));
}
