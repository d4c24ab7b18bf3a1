//! `serve_load`: latency and shedding behavior of the `dragon serve`
//! daemon under concurrent load, recorded into `BENCH_serve.json`.
//!
//! The daemon runs *in-process* (on a thread, via [`dragon::serve::run`])
//! so the bench needs no binary path plumbing; clients still go through
//! the real Unix socket, the real wire protocol, and the real
//! [`dragon::serve::client`] code, one fresh connection per request —
//! exactly what a fleet of short-lived CLI clients looks like.
//!
//! Three phases:
//!
//! 1. **load** — N client threads hammer M warm projects with reanalyze
//!    and query-rgn requests; every request's latency and outcome
//!    (ok / shed / deadline_expired / error) is recorded, and p50/p95/p99
//!    of the successful requests goes into the report.
//! 2. **warm** — sequential steady-state medians for one warm reanalyze
//!    (one-file edit, includes the persist) and one query-rgn read of the
//!    mini-LU project's `.rgn`, analyzed once beforehand.
//!    `scripts/check_bench_serve.py` holds `reanalyze_p50_ns` to within
//!    2x of the in-process session baselines from `BENCH_session.json`.
//! 3. **overload** — a deliberately tiny daemon (one worker, queue depth
//!    one) under a burst; sheds are counted to prove admission control
//!    engages and that every shed is a structured response, not a drop.
//!
//! Manual mode (`ARAA_BENCH_JSON=BENCH_serve.json`) writes the JSON
//! report; without it a small Criterion group benches the warm roundtrip.

use criterion::{criterion_group, Criterion};
use dragon::serve::{self, ClientOptions, ServeOptions};
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use support::json::{obj, Value};
use support::testdir::TestDir;
use workloads::GenSource;

// The daemon binary installs the counting allocator; the in-process bench
// daemon must too, or per-request memory accounting would never move and
// the reported high-water mark would be a meaningless zero.
#[global_allocator]
static ALLOC: support::obs::alloc::CountingAllocator<std::alloc::System> =
    support::obs::alloc::CountingAllocator::new(std::alloc::System);

/// Per-request memory budget the load daemon runs with; the report's
/// `mem_high_water_bytes` is validated against it by the checker.
const MEM_BUDGET_MB: u64 = 256;

// ---------------------------------------------------------------------
// Fixture: the three-procedure program the session tests use, in two
// variants differing in one loop bound of `leaf`, so alternating
// reanalyze requests always dirty exactly one procedure.

const MAIN_F: &str = "\
program main
  real a(20)
  common /g/ a
  integer i
  do i = 1, 10
    a(i) = 0.0
  end do
  call mid
end
";
const MID_F: &str = "\
subroutine mid
  real a(20)
  common /g/ a
  a(11) = 1.0
  call leaf
end
";
const LEAF_V1: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 20
    a(i) = 2.0
  end do
end
";
const LEAF_V2: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 18
    a(i) = 2.0
  end do
end
";

fn sources(variant: usize) -> Vec<GenSource> {
    let leaf = if variant % 2 == 0 { LEAF_V1 } else { LEAF_V2 };
    vec![
        GenSource::fortran("main.f", MAIN_F),
        GenSource::fortran("mid.f", MID_F),
        GenSource::fortran("leaf.f", leaf),
    ]
}

fn analyze_req(id: u64, op: &str, project: &str, variant: usize) -> Value {
    sources_req(id, op, project, &sources(variant))
}

fn sources_req(id: u64, op: &str, project: &str, sources: &[GenSource]) -> Value {
    let srcs: Vec<Value> = sources
        .iter()
        .map(|s| {
            obj([
                ("name", Value::str(&s.name)),
                ("text", Value::str(&s.text)),
                ("fortran", Value::Bool(s.fortran)),
            ])
        })
        .collect();
    obj([
        ("id", Value::int(id)),
        ("op", Value::str(op)),
        ("project", Value::str(project)),
        ("sources", Value::Arr(srcs)),
    ])
}

fn plain_req(id: u64, op: &str, project: &str) -> Value {
    obj([
        ("id", Value::int(id)),
        ("op", Value::str(op)),
        ("project", Value::str(project)),
    ])
}

// ---------------------------------------------------------------------
// In-process daemon harness.

struct Daemon {
    socket: PathBuf,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(opts: ServeOptions) -> Daemon {
        let socket = opts.socket.clone();
        let thread = std::thread::spawn(move || {
            if let Err(e) = serve::run(opts) {
                eprintln!("serve_load: daemon failed: {e}");
            }
        });
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            if UnixStream::connect(&socket).is_ok() {
                return Daemon { socket, thread: Some(thread) };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("daemon did not become ready on {}", socket.display());
    }

    /// One-shot client options: no retries, so every shed is observed by
    /// the load loop instead of being absorbed by backoff.
    fn copts(&self) -> ClientOptions {
        ClientOptions {
            socket: self.socket.clone(),
            timeout: Duration::from_secs(60),
            retries: 0,
            ..ClientOptions::default()
        }
    }

    /// Drains the daemon via the wire protocol and joins its thread.
    fn shutdown(mut self) {
        let o = ClientOptions { retries: 2, ..self.copts() };
        let _ = serve::client::call(&o, &plain_req(u64::MAX, "shutdown", "bench"));
        if let Some(t) = self.thread.take() {
            t.join().expect("daemon thread");
        }
    }
}

// ---------------------------------------------------------------------
// Outcome bookkeeping for the concurrent phases.

#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    errors: AtomicU64,
}

impl Outcomes {
    /// Classifies one response and returns whether it counts as a clean
    /// success (and thus into the latency distribution).
    fn record(&self, resp: &support::Result<Value>) -> bool {
        match resp {
            Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => {
                let expired = v
                    .get("result")
                    .and_then(|r| r.get("deadline_expired"))
                    .and_then(Value::as_bool)
                    == Some(true);
                if expired {
                    self.deadline_expired.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.ok.fetch_add(1, Ordering::Relaxed);
                }
                !expired
            }
            Ok(v) => {
                let kind = v
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Value::as_str)
                    .unwrap_or("");
                if kind == "overloaded" {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
                false
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn median(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    percentile(&v, 0.5)
}

/// Per-op latency histogram over the same log-linear buckets the daemon's
/// metrics registry uses, plus the exact sampled latencies for the
/// checker's histogram-vs-sample p50 cross-check.
struct OpHist {
    hist: support::obs::hist::Histogram,
    sampled: Vec<u128>,
}

impl OpHist {
    fn new() -> OpHist {
        OpHist { hist: support::obs::hist::Histogram::new(), sampled: Vec::new() }
    }

    fn record(&mut self, ns: u128) {
        self.hist.record(u64::try_from(ns).unwrap_or(u64::MAX).max(1));
        self.sampled.push(ns);
    }

    /// `{"count": .., "sampled_p50_ns": .., "hist_p50_ns": .., "bounds":
    /// [..], "counts": [..]}` with the bucket vectors trimmed to the last
    /// occupied bucket (bounds stay aligned with counts).
    fn json(&mut self) -> String {
        use support::obs::hist;
        let counts = self.hist.counts();
        let bounds = hist::bucket_bounds();
        let last = counts.iter().rposition(|&c| c > 0).map(|p| p + 1).unwrap_or(0);
        self.sampled.sort_unstable();
        let join = |v: &[u64]| {
            v.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ")
        };
        format!(
            r#"{{"count": {}, "sampled_p50_ns": {}, "hist_p50_ns": {}, "bounds": [{}], "counts": [{}]}}"#,
            self.hist.count(),
            percentile(&self.sampled, 0.50),
            hist::percentile_from_counts(&counts, 0.50),
            join(&bounds[..last]),
            join(&counts[..last]),
        )
    }
}

// ---------------------------------------------------------------------
// Phase 1+2: load against a realistically sized daemon, then sequential
// steady-state medians on the same warm daemon.

const LOAD_CLIENTS: usize = 8;
const LOAD_REQS_PER_CLIENT: usize = 40;
const LOAD_PROJECTS: usize = 4;
const WARM_ITERS: usize = 30;

struct LoadReport {
    requests: u64,
    outcomes: Outcomes,
    latencies: Vec<u128>,
    /// Per-op histograms over the successful load-phase requests.
    reanalyze_hist: OpHist,
    query_hist: OpHist,
    warm_reanalyze_p50: u128,
    warm_query_p50: u128,
    workers: usize,
    queue_depth: usize,
    mem_high_water_bytes: u64,
}

fn run_load_phase(dir: &Path) -> LoadReport {
    let opts = ServeOptions {
        socket: dir.join("load.sock"),
        cache_root: Some(dir.join("cache")),
        mem_budget_mb: Some(MEM_BUDGET_MB),
        ..ServeOptions::default()
    };
    let (workers, queue_depth) = (opts.workers, opts.queue_depth);
    let d = Daemon::start(opts);

    // Seed every project warm before the clocks start.
    let o = d.copts();
    for p in 0..LOAD_PROJECTS {
        let resp = serve::client::call(&o, &analyze_req(1, "analyze", &format!("load-{p}"), 0))
            .expect("seed analyze");
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.render());
    }

    let outcomes = Arc::new(Outcomes::default());
    let mut handles = Vec::new();
    let mut all_latencies = Vec::new();
    let mut reanalyze_hist = OpHist::new();
    let mut query_hist = OpHist::new();
    for c in 0..LOAD_CLIENTS {
        let o = d.copts();
        let outcomes = Arc::clone(&outcomes);
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(LOAD_REQS_PER_CLIENT);
            for i in 0..LOAD_REQS_PER_CLIENT {
                let project = format!("load-{}", (c + i) % LOAD_PROJECTS);
                // Two in three requests are cheap reads; the third forces a
                // one-procedure reanalyze (and its persist) on the shard.
                let reanalyze = i % 3 == 2;
                let req = if reanalyze {
                    analyze_req(i as u64, "reanalyze", &project, c + i)
                } else {
                    plain_req(i as u64, "query-rgn", &project)
                };
                let t = Instant::now();
                let resp = serve::client::call(&o, &req);
                let ns = t.elapsed().as_nanos();
                if outcomes.record(&resp) {
                    latencies.push((reanalyze, ns));
                }
            }
            latencies
        }));
    }
    for h in handles {
        for (reanalyze, ns) in h.join().expect("client thread") {
            if reanalyze {
                reanalyze_hist.record(ns);
            } else {
                query_hist.record(ns);
            }
            all_latencies.push(ns);
        }
    }
    all_latencies.sort_unstable();

    // Sequential steady state on the still-warm daemon: this is the number
    // the checker holds against the in-process session baselines.
    let warm_project = "load-0";
    let mut rean = Vec::with_capacity(WARM_ITERS);
    for i in 0..WARM_ITERS {
        let req = analyze_req(i as u64, "reanalyze", warm_project, i);
        let t = Instant::now();
        let resp = serve::client::call(&o, &req).expect("warm reanalyze");
        rean.push(t.elapsed().as_nanos());
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.render());
    }
    // Reads time a real document, the mini-LU project's `.rgn` (about
    // 69 KB): the fixture's three-procedure `.rgn` is so small that its
    // read would time little but the connection round trip.
    let lu = sources_req(0, "analyze", "mini-lu", &workloads::mini_lu::sources());
    let resp = serve::client::call(&o, &lu).expect("analyze mini-lu");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.render());
    let mut query = Vec::with_capacity(WARM_ITERS);
    for i in 0..WARM_ITERS {
        let req = plain_req(i as u64, "query-rgn", "mini-lu");
        let t = Instant::now();
        let resp = serve::client::call(&o, &req).expect("warm query-rgn");
        query.push(t.elapsed().as_nanos());
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.render());
    }

    // The supervisor tracked every budgeted request's allocation bill; the
    // health op reports the maximum — the number the checker holds against
    // the configured budget.
    let health = serve::client::call(&o, &plain_req(0, "health", "load-0")).expect("health");
    let mem_high_water_bytes = health
        .get("result")
        .and_then(|r| r.get("mem_high_water_bytes"))
        .and_then(Value::as_u64)
        .expect("health reports mem_high_water_bytes");

    d.shutdown();
    LoadReport {
        requests: (LOAD_CLIENTS * LOAD_REQS_PER_CLIENT) as u64,
        outcomes: Arc::try_unwrap(outcomes).unwrap_or_default(),
        latencies: all_latencies,
        reanalyze_hist,
        query_hist,
        warm_reanalyze_p50: median(rean),
        warm_query_p50: median(query),
        workers,
        queue_depth,
        mem_high_water_bytes,
    }
}

// ---------------------------------------------------------------------
// Phase 3: overload burst against a one-worker, depth-one daemon.

const BURST_CLIENTS: usize = 12;
const BURST_REQS_PER_CLIENT: usize = 10;

struct OverloadReport {
    requests: u64,
    outcomes: Outcomes,
}

fn run_overload_phase(dir: &Path) -> OverloadReport {
    let d = Daemon::start(ServeOptions {
        socket: dir.join("burst.sock"),
        cache_root: None, // memory-only: the burst probes admission, not disk
        workers: 1,
        queue_depth: 1,
        ..ServeOptions::default()
    });
    let o = d.copts();
    let resp = serve::client::call(&o, &analyze_req(1, "analyze", "burst", 0)).expect("seed");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.render());

    let outcomes = Arc::new(Outcomes::default());
    let handles: Vec<_> = (0..BURST_CLIENTS)
        .map(|c| {
            let o = d.copts();
            let outcomes = Arc::clone(&outcomes);
            std::thread::spawn(move || {
                for i in 0..BURST_REQS_PER_CLIENT {
                    let resp =
                        serve::client::call(&o, &analyze_req(i as u64, "reanalyze", "burst", c + i));
                    // A connection-level failure here would be a dropped
                    // request — the daemon's contract forbids that.
                    assert!(resp.is_ok(), "overload must shed, not drop: {resp:?}");
                    outcomes.record(&resp);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("burst thread");
    }
    d.shutdown();
    OverloadReport {
        requests: (BURST_CLIENTS * BURST_REQS_PER_CLIENT) as u64,
        outcomes: Arc::try_unwrap(outcomes).unwrap_or_default(),
    }
}

// ---------------------------------------------------------------------
// Report writer. `BENCH_serve.json` has its own shape (percentiles and
// shed counts, not median/min pairs), so it does not share
// `bench::report::merge_section`; commit/date stamping follows the same
// `ARAA_BENCH_COMMIT` / `ARAA_BENCH_DATE` contract.

fn manual_report(path: &Path) {
    let dir = TestDir::new("serve-load");
    let mut load = run_load_phase(dir.path());
    let over = run_overload_phase(dir.path());

    let commit = std::env::var("ARAA_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let date = std::env::var("ARAA_BENCH_DATE").unwrap_or_else(|_| "unknown".to_string());
    let lat = &load.latencies;
    let out = format!(
        r#"{{
  "schema": 3,
  "commit": "{commit}",
  "date": "{date}",
  "workers": {workers},
  "queue_depth": {queue_depth},
  "mem_budget_mb": {mem_budget},
  "mem_high_water_bytes": {mem_high},
  "load": {{
    "requests": {l_req},
    "clients": {clients},
    "ok": {l_ok},
    "shed": {l_shed},
    "deadline_expired": {l_dead},
    "errors": {l_err},
    "latency_ns": {{"p50": {p50}, "p95": {p95}, "p99": {p99}, "max": {max}}},
    "ops": {{
      "query-rgn": {query_hist},
      "reanalyze": {rean_hist}
    }}
  }},
  "warm": {{
    "iters": {warm_iters},
    "reanalyze_p50_ns": {warm_rean},
    "query_rgn_p50_ns": {warm_query}
  }},
  "overload": {{
    "workers": 1,
    "queue_depth": 1,
    "requests": {o_req},
    "ok": {o_ok},
    "shed": {o_shed},
    "errors": {o_err}
  }}
}}
"#,
        commit = support::obs::json_escape(&commit),
        date = support::obs::json_escape(&date),
        workers = load.workers,
        queue_depth = load.queue_depth,
        mem_budget = MEM_BUDGET_MB,
        mem_high = load.mem_high_water_bytes,
        l_req = load.requests,
        clients = LOAD_CLIENTS,
        l_ok = load.outcomes.ok.load(Ordering::Relaxed),
        l_shed = load.outcomes.shed.load(Ordering::Relaxed),
        l_dead = load.outcomes.deadline_expired.load(Ordering::Relaxed),
        l_err = load.outcomes.errors.load(Ordering::Relaxed),
        p50 = percentile(lat, 0.50),
        p95 = percentile(lat, 0.95),
        p99 = percentile(lat, 0.99),
        max = lat.last().copied().unwrap_or(0),
        query_hist = load.query_hist.json(),
        rean_hist = load.reanalyze_hist.json(),
        warm_iters = WARM_ITERS,
        warm_rean = load.warm_reanalyze_p50,
        warm_query = load.warm_query_p50,
        o_req = over.requests,
        o_ok = over.outcomes.ok.load(Ordering::Relaxed),
        o_shed = over.outcomes.shed.load(Ordering::Relaxed),
        o_err = over.outcomes.errors.load(Ordering::Relaxed),
    );
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("serve_load: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "wrote {} (load: {} req, {} shed; warm reanalyze p50 {} ns; overload: {} shed)",
        path.display(),
        load.requests,
        load.outcomes.shed.load(Ordering::Relaxed),
        load.warm_reanalyze_p50,
        over.outcomes.shed.load(Ordering::Relaxed),
    );
}

// ---------------------------------------------------------------------
// Criterion fallback: the warm roundtrip, client included.

fn bench_roundtrip(c: &mut Criterion) {
    let dir = TestDir::new("serve-load-criterion");
    let d = Daemon::start(ServeOptions {
        socket: dir.join("crit.sock"),
        cache_root: Some(dir.join("cache")),
        ..ServeOptions::default()
    });
    let o = d.copts();
    serve::client::call(&o, &analyze_req(1, "analyze", "crit", 0)).expect("seed");

    let mut group = c.benchmark_group("serve/roundtrip");
    group.bench_function("query_rgn", |b| {
        b.iter(|| black_box(serve::client::call(&o, &plain_req(2, "query-rgn", "crit")).unwrap()))
    });
    group.bench_function("reanalyze_one_proc_edit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            black_box(serve::client::call(&o, &analyze_req(3, "reanalyze", "crit", i)).unwrap())
        })
    });
    group.finish();
    d.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_roundtrip
}

fn main() {
    match bench::report::manual_mode() {
        Some(path) => manual_report(&path),
        None => benches(),
    }
}
