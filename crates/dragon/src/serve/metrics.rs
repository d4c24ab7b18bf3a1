//! The serve-side metrics registry: sharded per-op counters and
//! log-linear latency histograms, the daemon tallies no outcome carries, a
//! ring-buffer request log, slow-request trace capture, and a sampling
//! profiler — everything the `stats`, `metrics`, `query-log`, and
//! `profile` ops serve. It is the daemon's only counter registry.
//!
//! # Sharding
//!
//! Hot-path recording touches only relaxed atomics in one of
//! [`NUM_SHARDS`] shards (picked by a per-thread ordinal), so concurrent
//! workers never contend on a lock for counters or histograms. Snapshots
//! merge shards by elementwise addition — an order-independent sum, which
//! is why counter totals are invariant under thread count and schedule.
//!
//! # Determinism
//!
//! The registry reads the same clock kind as `support::obs`
//! (`ARAA_OBS_CLOCK=logical` selects logical ticks). Under the logical
//! clock every latency is a tick difference, wall-clock and
//! memory-derived fields are forced to zero at render time, and all maps
//! are `BTreeMap`s — so two identical sequential traffic replays render
//! byte-identical snapshots in both exposition formats.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use support::json::{obj, Value};
use support::obs::{self, hist, ClockKind, SpanEvent};

use super::proto::Op;

/// Shards in the registry. More than typical worker counts, few enough
/// that merging stays trivial.
pub const NUM_SHARDS: usize = 8;

/// Slow-request span trees retained (newest win).
pub const SLOW_TRACE_CAP: usize = 32;

/// Profile sampling period: every Nth request per project is sampled
/// (the first always is), plus every slow request.
pub const SAMPLE_EVERY: u64 = 8;

/// Terminal outcome of one request, as counted per op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed cleanly.
    Ok,
    /// Completed but degraded (widened results, partial analysis).
    Degraded,
    /// Deadline expired (degraded response or abandoned request).
    Deadline,
    /// Per-request memory budget exhausted.
    MemExhausted,
    /// Shed by admission control.
    Shed,
    /// Rejected by an open per-project circuit.
    CircuitOpen,
    /// Malformed or semantically invalid.
    BadRequest,
    /// Handler panicked; session reset.
    Panic,
    /// Daemon draining.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl Outcome {
    /// Every outcome in export order.
    pub const ALL: &'static [Outcome] = &[
        Outcome::Ok,
        Outcome::Degraded,
        Outcome::Deadline,
        Outcome::MemExhausted,
        Outcome::Shed,
        Outcome::CircuitOpen,
        Outcome::BadRequest,
        Outcome::Panic,
        Outcome::ShuttingDown,
        Outcome::Internal,
    ];

    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Deadline => "deadline-expired",
            Outcome::MemExhausted => "mem-exhausted",
            Outcome::Shed => "shed",
            Outcome::CircuitOpen => "circuit-open",
            Outcome::BadRequest => "bad-request",
            Outcome::Panic => "panic",
            Outcome::ShuttingDown => "shutting-down",
            Outcome::Internal => "internal",
        }
    }

    /// Stable index into [`Outcome::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Daemon events no request outcome carries, counted beside the
/// `op × outcome` matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tally {
    /// Frames too malformed to attribute to an op (unparseable JSON,
    /// oversized frames).
    Invalid,
    /// Requests that parsed and reached dispatch, counted on arrival.
    Accepted,
    /// Connections shed at the concurrent-connection cap.
    ConnShed,
    /// Frames discarded for exceeding the frame-size cap.
    FrameTooLarge,
    /// Panics contained in an idle or drain flush (no request to answer).
    FlushPanics,
    /// Warm sessions resident (a level: sessions added minus evicted).
    Sessions,
    /// Requests queued across workers (a level).
    Queued,
}

impl Tally {
    const COUNT: usize = Tally::Queued as usize + 1;
}

/// One record in the structured request log.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Monotone sequence number assigned at push (survives ring drops).
    pub seq: u64,
    /// Trace id echoed in the response.
    pub trace: String,
    /// Op wire name (`"?"` for unparseable frames).
    pub op: &'static str,
    /// Project the request targeted (empty for unparseable frames).
    pub project: String,
    /// Worker index and generation that served it; `None` for requests
    /// answered or rejected at the dispatch layer.
    pub worker: Option<(usize, u64)>,
    /// Latency in clock units (ns, or ticks under the logical clock).
    pub latency_units: u64,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Degradation kinds attached to the result (deduplicated, capped).
    pub degradations: Vec<String>,
    /// Allocation churn attributed to the request, bytes (0 under the
    /// logical clock).
    pub mem_bytes: u64,
    /// Completion timestamp, clock units.
    pub end_units: u64,
}

/// One retained slow-request span tree.
#[derive(Debug, Clone)]
struct SlowTrace {
    trace: String,
    op: &'static str,
    project: String,
    latency_units: u64,
    events: Vec<SpanEvent>,
}

/// Per-project aggregates feeding the snapshot's project table and the
/// profile sampling decision.
#[derive(Debug, Default, Clone)]
struct ProjectStats {
    requests: u64,
    cache_hits: u64,
    cache_recomputes: u64,
    mem_high_water: u64,
    sample_counter: u64,
}

impl ProjectStats {
    /// Summary-cache hit rate, in permille (0 before any analysis).
    fn cache_hit_permille(&self) -> u64 {
        (self.cache_hits * 1000)
            .checked_div(self.cache_hits + self.cache_recomputes)
            .unwrap_or(0)
    }
}

/// Per-procedure profile aggregate from sampled span trees.
#[derive(Debug, Default, Clone)]
struct ProcAgg {
    total_units: u64,
    spans: u64,
}

struct Shard {
    /// `op × outcome` counters, row-major by [`Op::ALL`].
    outcomes: Box<[AtomicU64]>,
    /// One latency histogram per op.
    hists: Vec<hist::Histogram>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            outcomes: (0..Op::ALL.len() * Outcome::ALL.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            hists: (0..Op::ALL.len()).map(|_| hist::Histogram::new()).collect(),
        }
    }
}

struct RingLog {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    entries: VecDeque<LogEntry>,
}

struct ProfileState {
    /// project → proc → aggregate.
    procs: BTreeMap<String, BTreeMap<String, ProcAgg>>,
    /// project → sampled span trees count.
    samples: BTreeMap<String, u64>,
}

/// The registry. One per daemon, shared by the connection threads (which
/// record every request), the workers (which keep the session level) and
/// the periodic snapshot thread.
pub struct ServeMetrics {
    clock: ClockKind,
    origin: Instant,
    tick: AtomicU64,
    trace_seq: AtomicU64,
    /// One cell per [`Tally`].
    tallies: [AtomicU64; Tally::COUNT],
    shard_seq: AtomicUsize,
    shards: Vec<Shard>,
    /// Slow-request threshold in clock units (0 disables capture).
    slow_threshold_units: u64,
    log: Mutex<RingLog>,
    slow: Mutex<VecDeque<SlowTrace>>,
    projects: Mutex<BTreeMap<String, ProjectStats>>,
    profile: Mutex<ProfileState>,
}

thread_local! {
    /// This thread's shard ordinal (assigned round-robin on first use).
    static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl ServeMetrics {
    /// A fresh registry. `slow_threshold_ms` of 0 disables slow-trace
    /// capture; under the logical clock the threshold is interpreted in
    /// raw ticks (documented determinism-mode behavior).
    pub fn new(clock: ClockKind, log_capacity: usize, slow_threshold_ms: u64) -> Self {
        let slow_threshold_units = match clock {
            ClockKind::Monotonic => slow_threshold_ms.saturating_mul(1_000_000),
            ClockKind::Logical => slow_threshold_ms,
        };
        ServeMetrics {
            clock,
            origin: Instant::now(),
            tick: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            tallies: Default::default(),
            shard_seq: AtomicUsize::new(0),
            shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
            slow_threshold_units,
            log: Mutex::new(RingLog {
                cap: log_capacity.max(1),
                next_seq: 0,
                dropped: 0,
                entries: VecDeque::new(),
            }),
            slow: Mutex::new(VecDeque::new()),
            projects: Mutex::new(BTreeMap::new()),
            profile: Mutex::new(ProfileState {
                procs: BTreeMap::new(),
                samples: BTreeMap::new(),
            }),
        }
    }

    /// The clock kind latencies are measured in.
    pub fn clock(&self) -> ClockKind {
        self.clock
    }

    /// Current timestamp in clock units (a tick under the logical clock).
    pub fn now_units(&self) -> u64 {
        match self.clock {
            ClockKind::Monotonic => {
                let d = self.origin.elapsed();
                d.as_secs().saturating_mul(1_000_000_000).saturating_add(u64::from(d.subsec_nanos()))
            }
            ClockKind::Logical => self.tick.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The request's trace id: the client's own (validated upstream) or a
    /// freshly minted `t-NNNNNN`. The mint sequence is an atomic counter,
    /// so sequential replays mint identical ids.
    pub fn mint_trace(&self, client: Option<&str>) -> String {
        match client {
            Some(t) => t.to_string(),
            None => format!("t-{:06}", self.trace_seq.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Whether slow-trace capture is enabled and `latency_units` crosses
    /// the threshold.
    pub fn is_slow(&self, latency_units: u64) -> bool {
        self.slow_threshold_units > 0 && latency_units >= self.slow_threshold_units
    }

    fn shard(&self) -> &Shard {
        let idx = SHARD.with(|s| {
            let mut idx = s.get();
            if idx == usize::MAX {
                idx = self.shard_seq.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
                s.set(idx);
            }
            idx
        });
        &self.shards[idx % NUM_SHARDS]
    }

    /// Counts one terminal outcome and records the request latency.
    pub fn record_outcome(&self, op: Op, outcome: Outcome, latency_units: u64) {
        let shard = self.shard();
        let cell = op.index() * Outcome::ALL.len() + outcome.index();
        shard.outcomes[cell].fetch_add(1, Ordering::Relaxed);
        shard.hists[op.index()].record(latency_units.max(1));
    }

    /// Counts one event no outcome carries (or raises a level).
    pub fn incr(&self, t: Tally) {
        self.tallies[t as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers a level ([`Tally::Sessions`], [`Tally::Queued`]).
    pub fn decr(&self, t: Tally) {
        self.tallies[t as usize].fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value of one tally.
    pub fn tally(&self, t: Tally) -> u64 {
        self.tallies[t as usize].load(Ordering::Relaxed)
    }

    /// Appends one entry to the ring log (oldest entries drop at
    /// capacity). Returns the assigned sequence number. Under the logical
    /// clock the entry's `mem_bytes` is forced to 0 to keep `query-log`
    /// output deterministic.
    pub fn push_log(&self, mut entry: LogEntry) -> u64 {
        if self.clock == ClockKind::Logical {
            entry.mem_bytes = 0;
        }
        let mut log = lock(&self.log);
        entry.seq = log.next_seq;
        log.next_seq += 1;
        if log.entries.len() == log.cap {
            log.entries.pop_front();
            log.dropped += 1;
        }
        log.entries.push_back(entry);
        log.next_seq - 1
    }

    /// Folds an analyze/reanalyze result's cache traffic and memory churn
    /// into the project table.
    pub fn note_analysis(&self, project: &str, hits: u64, recomputes: u64, mem_bytes: u64) {
        let mut projects = lock(&self.projects);
        let p = projects.entry(project.to_string()).or_default();
        p.cache_hits += hits;
        p.cache_recomputes += recomputes;
        p.mem_high_water = p.mem_high_water.max(mem_bytes);
    }

    /// Counts one request against the project and decides whether its
    /// span tree should feed the profiler (deterministic per-project
    /// period, first request always sampled).
    pub fn should_sample(&self, project: &str) -> bool {
        let mut projects = lock(&self.projects);
        let p = projects.entry(project.to_string()).or_default();
        p.requests += 1;
        let sample = p.sample_counter.is_multiple_of(SAMPLE_EVERY);
        p.sample_counter += 1;
        sample
    }

    /// Aggregates a sampled span tree into the per-project hot-procedure
    /// ranking. Only genuinely per-procedure spans count (mirrors
    /// `Collector::snapshot`).
    pub fn record_profile(&self, project: &str, events: &[SpanEvent]) {
        let mut prof = lock(&self.profile);
        *prof.samples.entry(project.to_string()).or_insert(0) += 1;
        let by_proc = prof.procs.entry(project.to_string()).or_default();
        for e in events {
            let per_proc = matches!(e.name, "ipa.ipl" | "store.prime" | "extract.rows");
            if let (Some(arg), true) = (&e.arg, per_proc) {
                let agg = by_proc.entry(arg.clone()).or_default();
                agg.total_units += e.dur;
                agg.spans += 1;
            }
        }
    }

    /// Retains a slow request's full span tree (newest
    /// [`SLOW_TRACE_CAP`] win).
    pub fn record_slow(
        &self,
        trace: &str,
        op: Op,
        project: &str,
        latency_units: u64,
        events: Vec<SpanEvent>,
    ) {
        let mut slow = lock(&self.slow);
        if slow.len() == SLOW_TRACE_CAP {
            slow.pop_front();
        }
        slow.push_back(SlowTrace {
            trace: trace.to_string(),
            op: op.name(),
            project: project.to_string(),
            latency_units,
            events,
        });
    }

    /// Merged `op × outcome` counters and per-op histogram counts across
    /// all shards.
    fn merged(&self) -> (Vec<u64>, Vec<Vec<u64>>, Vec<u64>) {
        let mut outcomes = vec![0u64; Op::ALL.len() * Outcome::ALL.len()];
        let mut hists = vec![vec![0u64; hist::NUM_BUCKETS]; Op::ALL.len()];
        let mut sums = vec![0u64; Op::ALL.len()];
        for shard in &self.shards {
            for (i, c) in shard.outcomes.iter().enumerate() {
                outcomes[i] += c.load(Ordering::Relaxed);
            }
            for (i, h) in shard.hists.iter().enumerate() {
                hist::merge_counts(&mut hists[i], &h.counts());
                sums[i] += h.sum();
            }
        }
        (outcomes, hists, sums)
    }

    /// `v`, or 0 under the logical clock — wall-clock and memory-derived
    /// fields are zeroed there so snapshots stay byte-deterministic.
    fn det(&self, v: u64) -> u64 {
        match self.clock {
            ClockKind::Monotonic => v,
            ClockKind::Logical => 0,
        }
    }

    /// The JSON metrics snapshot served by the `metrics` op and written
    /// by the periodic snapshot thread.
    pub fn snapshot_json(&self, ctx: &SnapshotCtx) -> Value {
        let (outcomes, hists, sums) = self.merged();
        let bounds = hist::bucket_bounds();
        let mut ops: Vec<(String, Value)> = Vec::new();
        let mut requests_total = 0u64;
        for op in Op::ALL {
            let i = op.index();
            let counts = &hists[i];
            let n: u64 = counts.iter().sum();
            requests_total += n;
            let last_nonzero = counts.iter().rposition(|&c| c > 0).map(|p| p + 1).unwrap_or(0);
            let mut outcome_pairs: Vec<(&'static str, Value)> = Vec::new();
            for (j, o) in Outcome::ALL.iter().enumerate() {
                let v = outcomes[i * Outcome::ALL.len() + j];
                if v > 0 {
                    outcome_pairs.push((o.name(), num(v)));
                }
            }
            ops.push((
                op.name().to_string(),
                obj([
                    ("count", num(n)),
                    ("outcomes", obj(outcome_pairs)),
                    (
                        "latency",
                        obj([
                            ("sum_units", num(sums[i])),
                            ("p50_units", num(hist::percentile_from_counts(counts, 0.50))),
                            ("p95_units", num(hist::percentile_from_counts(counts, 0.95))),
                            ("p99_units", num(hist::percentile_from_counts(counts, 0.99))),
                            ("p100_units", num(hist::percentile_from_counts(counts, 1.0))),
                            (
                                "bounds",
                                Value::Arr(
                                    bounds[..last_nonzero].iter().map(|&b| num(b)).collect(),
                                ),
                            ),
                            (
                                "counts",
                                Value::Arr(
                                    counts[..last_nonzero].iter().map(|&c| num(c)).collect(),
                                ),
                            ),
                        ]),
                    ),
                ]),
            ));
        }
        let projects = lock(&self.projects);
        let prof = lock(&self.profile);
        let project_entries: Vec<Value> = projects
            .iter()
            .map(|(name, p)| {
                Value::Obj(
                    [
                        ("project".to_string(), Value::str(name.as_str())),
                        ("requests".to_string(), num(p.requests)),
                        ("cache_hits".to_string(), num(p.cache_hits)),
                        ("cache_recomputes".to_string(), num(p.cache_recomputes)),
                        ("cache_hit_permille".to_string(), num(p.cache_hit_permille())),
                        (
                            "mem_high_water_bytes".to_string(),
                            num(self.det(p.mem_high_water)),
                        ),
                        (
                            "profile_samples".to_string(),
                            num(prof.samples.get(name).copied().unwrap_or(0)),
                        ),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect();
        let log = lock(&self.log);
        obj([
            ("schema", num(1)),
            ("clock", Value::str(self.clock.name())),
            ("uptime_ms", num(self.det(ctx.uptime_ms))),
            ("workers", num(ctx.workers)),
            ("sessions", num(self.tally(Tally::Sessions))),
            ("queue_depth", num(self.tally(Tally::Queued))),
            ("open_circuits", num(ctx.open_circuits)),
            ("mem_high_water_bytes", num(self.det(ctx.mem_high_water_bytes))),
            ("requests_total", num(requests_total)),
            ("invalid_requests", num(self.tally(Tally::Invalid))),
            ("log_entries", num(log.entries.len() as u64)),
            ("log_dropped", num(log.dropped)),
            ("slow_traces", num(lock(&self.slow).len() as u64)),
            (
                "ops",
                Value::Obj(ops.into_iter().collect()),
            ),
            ("projects", Value::Arr(project_entries)),
        ])
    }

    /// The `stats` op's result. Sheds, expiries, circuit rejections,
    /// memory exhaustions and request panics are outcome sums over every
    /// op, so a request counts under exactly one of them, as in
    /// [`snapshot_json`](Self::snapshot_json).
    pub fn stats_json(&self, workers: u64, queue_depth: u64) -> Value {
        let (outcomes, _, _) = self.merged();
        let total = |o: Outcome| -> u64 {
            outcomes.iter().skip(o.index()).step_by(Outcome::ALL.len()).sum()
        };
        obj([
            ("requests", num(self.tally(Tally::Accepted))),
            ("shed", num(total(Outcome::Shed))),
            ("deadline_expired", num(total(Outcome::Deadline))),
            ("panics", num(total(Outcome::Panic) + self.tally(Tally::FlushPanics))),
            ("sessions", num(self.tally(Tally::Sessions))),
            ("queued", num(self.tally(Tally::Queued))),
            ("frame_too_large", num(self.tally(Tally::FrameTooLarge))),
            ("conn_shed", num(self.tally(Tally::ConnShed))),
            ("circuit_open", num(total(Outcome::CircuitOpen))),
            ("mem_exhausted", num(total(Outcome::MemExhausted))),
            ("workers", num(workers)),
            ("queue_depth", num(queue_depth)),
        ])
    }

    /// Prometheus text exposition of the same registry state (series with
    /// zero observations are omitted; ordering is deterministic).
    pub fn prometheus(&self, ctx: &SnapshotCtx) -> String {
        let (outcomes, hists, sums) = self.merged();
        let bounds = hist::bucket_bounds();
        let mut out = String::with_capacity(4096);
        for (name, help, v) in [
            ("araa_serve_uptime_ms", "Daemon uptime in milliseconds.", self.det(ctx.uptime_ms)),
            ("araa_serve_workers", "Configured worker threads.", ctx.workers),
            ("araa_serve_sessions", "Warm sessions resident.", self.tally(Tally::Sessions)),
            (
                "araa_serve_queue_depth",
                "Requests queued across workers.",
                self.tally(Tally::Queued),
            ),
            ("araa_serve_open_circuits", "Open per-project circuits.", ctx.open_circuits),
            (
                "araa_serve_mem_high_water_bytes",
                "Highest per-request memory charge seen.",
                self.det(ctx.mem_high_water_bytes),
            ),
            (
                "araa_serve_invalid_requests_total",
                "Frames too malformed to attribute to an op.",
                self.tally(Tally::Invalid),
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n"));
            let kind = if name.ends_with("_total") { "counter" } else { "gauge" };
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
        }
        out.push_str("# HELP araa_serve_requests_total Requests by op and terminal outcome.\n");
        out.push_str("# TYPE araa_serve_requests_total counter\n");
        for op in Op::ALL {
            for (j, o) in Outcome::ALL.iter().enumerate() {
                let v = outcomes[op.index() * Outcome::ALL.len() + j];
                if v > 0 {
                    out.push_str(&format!(
                        "araa_serve_requests_total{{op=\"{}\",outcome=\"{}\"}} {v}\n",
                        op.name(),
                        o.name()
                    ));
                }
            }
        }
        out.push_str(
            "# HELP araa_serve_latency_units Request latency in clock units \
             (ns, or ticks under the logical clock).\n",
        );
        out.push_str("# TYPE araa_serve_latency_units histogram\n");
        for op in Op::ALL {
            let counts = &hists[op.index()];
            let n: u64 = counts.iter().sum();
            if n == 0 {
                continue;
            }
            let last_nonzero = counts.iter().rposition(|&c| c > 0).map(|p| p + 1).unwrap_or(0);
            let mut cum = 0u64;
            for (i, &c) in counts[..last_nonzero].iter().enumerate() {
                cum += c;
                if c > 0 || i + 1 == last_nonzero {
                    out.push_str(&format!(
                        "araa_serve_latency_units_bucket{{op=\"{}\",le=\"{}\"}} {cum}\n",
                        op.name(),
                        bounds[i]
                    ));
                }
            }
            out.push_str(&format!(
                "araa_serve_latency_units_bucket{{op=\"{}\",le=\"+Inf\"}} {n}\n",
                op.name()
            ));
            out.push_str(&format!(
                "araa_serve_latency_units_sum{{op=\"{}\"}} {}\n",
                op.name(),
                sums[op.index()]
            ));
            out.push_str(&format!(
                "araa_serve_latency_units_count{{op=\"{}\"}} {n}\n",
                op.name()
            ));
        }
        let projects = lock(&self.projects);
        if !projects.is_empty() {
            out.push_str(
                "# HELP araa_serve_project_cache_hit_permille Summary-cache hit rate \
                 per project, in permille.\n",
            );
            out.push_str("# TYPE araa_serve_project_cache_hit_permille gauge\n");
            for (name, p) in projects.iter() {
                out.push_str(&format!(
                    "araa_serve_project_cache_hit_permille{{project=\"{}\"}} {}\n",
                    obs::json_escape(name),
                    p.cache_hit_permille()
                ));
            }
        }
        out
    }

    /// The `query-log` result: ring entries oldest→newest, optionally
    /// filtered by project, capped at `limit` newest entries.
    pub fn query_log(&self, project: Option<&str>, limit: u64) -> Value {
        let log = lock(&self.log);
        let filtered: Vec<&LogEntry> = log
            .entries
            .iter()
            .filter(|e| project.is_none_or(|p| e.project == p))
            .collect();
        let keep = filtered.len().saturating_sub(limit.min(usize::MAX as u64) as usize);
        let entries: Vec<Value> = filtered[keep..]
            .iter()
            .map(|e| {
                let mut pairs = vec![
                    ("seq", num(e.seq)),
                    ("trace", Value::str(e.trace.as_str())),
                    ("op", Value::str(e.op)),
                    ("project", Value::str(e.project.as_str())),
                    ("latency_units", num(e.latency_units)),
                    ("outcome", Value::str(e.outcome.name())),
                    (
                        "degradations",
                        Value::Arr(
                            e.degradations.iter().map(|d| Value::str(d.as_str())).collect(),
                        ),
                    ),
                    ("mem_bytes", num(e.mem_bytes)),
                    ("end_units", num(e.end_units)),
                ];
                if let Some((w, g)) = e.worker {
                    pairs.push(("worker", num(w as u64)));
                    pairs.push(("generation", num(g)));
                }
                obj(pairs)
            })
            .collect();
        obj([
            ("entries", Value::Arr(entries)),
            ("dropped", num(log.dropped)),
            ("capacity", num(log.cap as u64)),
        ])
    }

    /// The `profile` op's JSON result: per-project hot-procedure
    /// rankings (heaviest first, name-tiebroken), `top` procs per
    /// project.
    pub fn profile_json(&self, project: Option<&str>, top: u64) -> Value {
        let prof = lock(&self.profile);
        let projects: Vec<Value> = prof
            .procs
            .iter()
            .filter(|(name, _)| project.is_none_or(|p| name.as_str() == p))
            .map(|(name, by_proc)| {
                let mut ranked: Vec<(&String, &ProcAgg)> = by_proc.iter().collect();
                ranked.sort_by(|a, b| {
                    b.1.total_units.cmp(&a.1.total_units).then_with(|| a.0.cmp(b.0))
                });
                ranked.truncate(top.min(usize::MAX as u64) as usize);
                let procs: Vec<Value> = ranked
                    .into_iter()
                    .map(|(proc_name, agg)| {
                        obj([
                            ("proc", Value::str(proc_name.as_str())),
                            ("total_units", num(agg.total_units)),
                            ("spans", num(agg.spans)),
                        ])
                    })
                    .collect();
                obj([
                    ("project", Value::str(name.as_str())),
                    ("samples", num(prof.samples.get(name).copied().unwrap_or(0))),
                    ("procs", Value::Arr(procs)),
                ])
            })
            .collect();
        obj([
            ("projects", Value::Arr(projects)),
            ("slow_traces", num(lock(&self.slow).len() as u64)),
        ])
    }

    /// Collapsed-stack flamegraph lines folded from every retained
    /// slow-request span tree, prefixed with `op;project` frames.
    pub fn collapsed_stacks(&self) -> String {
        let slow = lock(&self.slow);
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for t in slow.iter() {
            for (stack, units) in obs::collapsed_stacks(&t.events) {
                let project: String = t
                    .project
                    .chars()
                    .map(|c| if c == ';' || c == ' ' { '_' } else { c })
                    .collect();
                *folded.entry(format!("{};{};{}", t.op, project, stack)).or_insert(0) +=
                    units;
            }
        }
        let mut out = String::new();
        for (stack, units) in folded {
            out.push_str(&format!("{stack} {units}\n"));
        }
        out
    }

    /// Slow traces as JSON (for `query-log` consumers wanting outlier
    /// detail): newest last.
    pub fn slow_traces_json(&self) -> Value {
        let slow = lock(&self.slow);
        Value::Arr(
            slow.iter()
                .map(|t| {
                    obj([
                        ("trace", Value::str(t.trace.as_str())),
                        ("op", Value::str(t.op)),
                        ("project", Value::str(t.project.as_str())),
                        ("latency_units", num(t.latency_units)),
                        ("spans", num(t.events.len() as u64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Daemon-level context rendered into snapshots; the caller (dispatch or
/// the snapshot thread) reads these from the options and the supervisor.
#[derive(Debug, Default, Clone)]
pub struct SnapshotCtx {
    pub uptime_ms: u64,
    pub workers: u64,
    pub open_circuits: u64,
    pub mem_high_water_bytes: u64,
}

/// JSON numbers ride an `f64`; clamp so exports stay exact-integer.
fn num(v: u64) -> Value {
    Value::int(v.min(1 << 53))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ctx() -> SnapshotCtx {
        SnapshotCtx { workers: 2, ..Default::default() }
    }

    #[test]
    fn outcome_counters_are_thread_count_invariant() {
        let record = |m: &ServeMetrics| {
            m.record_outcome(Op::Analyze, Outcome::Ok, 10);
            m.record_outcome(Op::Analyze, Outcome::Shed, 20);
            m.record_outcome(Op::QueryRgn, Outcome::Ok, 30);
        };
        let seq = ServeMetrics::new(ClockKind::Logical, 16, 0);
        for _ in 0..8 {
            record(&seq);
        }
        let par = Arc::new(ServeMetrics::new(ClockKind::Logical, 16, 0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let par = Arc::clone(&par);
                std::thread::spawn(move || record(&par))
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        let a = seq.snapshot_json(&ctx()).render();
        let b = par.snapshot_json(&ctx()).render();
        assert_eq!(a, b, "merged counters must not depend on thread count");
    }

    #[test]
    fn stats_sums_outcomes_over_every_op() {
        let m = ServeMetrics::new(ClockKind::Logical, 16, 0);
        m.record_outcome(Op::Analyze, Outcome::Shed, 1);
        m.record_outcome(Op::Lint, Outcome::Shed, 1);
        m.record_outcome(Op::Analyze, Outcome::Panic, 1);
        m.incr(Tally::FlushPanics);
        m.incr(Tally::Sessions);
        m.incr(Tally::Sessions);
        m.decr(Tally::Sessions);
        let s = m.stats_json(2, 64);
        let field = |k: &str| s.get(k).and_then(Value::as_u64);
        assert_eq!(field("shed"), Some(2));
        assert_eq!(field("panics"), Some(2), "request and flush panics");
        assert_eq!(field("deadline_expired"), Some(0));
        assert_eq!(field("sessions"), Some(1));
        assert_eq!(field("workers"), Some(2));
    }

    #[test]
    fn logical_snapshots_are_byte_deterministic() {
        let run = || {
            let m = ServeMetrics::new(ClockKind::Logical, 16, 0);
            for i in 0..5u64 {
                let t = m.mint_trace(None);
                let start = m.now_units();
                m.record_outcome(Op::Analyze, Outcome::Ok, 3 + i % 2);
                let end = m.now_units();
                m.push_log(LogEntry {
                    seq: 0,
                    trace: t,
                    op: "analyze",
                    project: "demo".into(),
                    worker: Some((0, 1)),
                    latency_units: end - start,
                    outcome: Outcome::Ok,
                    degradations: vec![],
                    mem_bytes: 12345, // forced to 0 under the logical clock
                    end_units: end,
                });
                m.note_analysis("demo", i, 1, 999);
            }
            (
                m.snapshot_json(&ctx()).render(),
                m.prometheus(&ctx()),
                m.query_log(None, 100).render(),
            )
        };
        let (s1, p1, l1) = run();
        let (s2, p2, l2) = run();
        assert_eq!(s1, s2);
        assert_eq!(p1, p2);
        assert_eq!(l1, l2);
        assert!(l1.contains("\"mem_bytes\":0"), "logical clock zeroes mem churn");
        assert!(s1.contains("\"mem_high_water_bytes\":0"));
    }

    #[test]
    fn ring_log_caps_and_counts_drops() {
        let m = ServeMetrics::new(ClockKind::Logical, 4, 0);
        for i in 0..10u64 {
            m.push_log(LogEntry {
                seq: 0,
                trace: format!("t{i}"),
                op: "stats",
                project: "p".into(),
                worker: None,
                latency_units: 1,
                outcome: Outcome::Ok,
                degradations: vec![],
                mem_bytes: 0,
                end_units: i,
            });
        }
        let v = m.query_log(None, 100);
        let entries = v.get("entries").and_then(Value::as_arr).map(<[Value]>::len);
        assert_eq!(entries, Some(4));
        assert_eq!(v.get("dropped").and_then(Value::as_u64), Some(6));
        let limited = m.query_log(None, 2);
        let e = limited.get("entries").and_then(Value::as_arr).map(<[Value]>::to_vec);
        let e = e.unwrap_or_default();
        assert_eq!(e.len(), 2);
        // Newest entries win the limit cut.
        assert_eq!(e[1].get("trace").and_then(Value::as_str), Some("t9"));
    }

    #[test]
    fn query_log_filters_by_project() {
        let m = ServeMetrics::new(ClockKind::Logical, 16, 0);
        for (i, p) in ["a", "b", "a"].iter().enumerate() {
            m.push_log(LogEntry {
                seq: 0,
                trace: format!("t{i}"),
                op: "lint",
                project: (*p).into(),
                worker: Some((i, 1)),
                latency_units: 1,
                outcome: Outcome::Ok,
                degradations: vec![],
                mem_bytes: 0,
                end_units: i as u64,
            });
        }
        let v = m.query_log(Some("a"), 100);
        let entries = v.get("entries").and_then(Value::as_arr).map(<[Value]>::len);
        assert_eq!(entries, Some(2));
    }

    #[test]
    fn sampling_is_periodic_and_profile_ranks() {
        let m = ServeMetrics::new(ClockKind::Logical, 16, 0);
        let sampled: Vec<bool> = (0..SAMPLE_EVERY * 2).map(|_| m.should_sample("p")).collect();
        assert!(sampled[0], "first request always sampled");
        assert_eq!(sampled.iter().filter(|s| **s).count() as u64, 2);
        let mk = |name: &str, dur: u64, seq: u64| SpanEvent {
            name: "ipa.ipl",
            arg: Some(name.to_string()),
            tid: 0,
            start: seq * 100,
            dur,
            alloc: 0,
            seq,
        };
        m.record_profile("p", &[mk("cheap", 5, 0), mk("hot", 50, 1)]);
        m.record_profile("p", &[mk("hot", 25, 2)]);
        let v = m.profile_json(Some("p"), 10);
        let projects = v.get("projects").and_then(Value::as_arr).map(<[Value]>::to_vec);
        let projects = projects.unwrap_or_default();
        assert_eq!(projects.len(), 1);
        let procs = projects[0].get("procs").and_then(Value::as_arr).map(<[Value]>::to_vec);
        let procs = procs.unwrap_or_default();
        assert_eq!(procs[0].get("proc").and_then(Value::as_str), Some("hot"));
        assert_eq!(procs[0].get("total_units").and_then(Value::as_u64), Some(75));
        assert_eq!(projects[0].get("samples").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn slow_traces_fold_into_collapsed_stacks() {
        let m = ServeMetrics::new(ClockKind::Logical, 16, 1);
        assert!(m.is_slow(1));
        let events = vec![
            SpanEvent {
                name: "serve.request",
                arg: None,
                tid: 0,
                start: 0,
                dur: 10,
                alloc: 0,
                seq: 2,
            },
            SpanEvent {
                name: "ipa.ipl",
                arg: Some("hot".into()),
                tid: 0,
                start: 2,
                dur: 4,
                alloc: 0,
                seq: 1,
            },
        ];
        m.record_slow("t-1", Op::Reanalyze, "demo", 10, events);
        let collapsed = m.collapsed_stacks();
        assert!(
            collapsed.contains("reanalyze;demo;serve.request;ipa.ipl:hot 4\n"),
            "got: {collapsed}"
        );
        assert!(collapsed.contains("reanalyze;demo;serve.request 6\n"));
        let slow = m.slow_traces_json();
        assert_eq!(slow.as_arr().map(<[Value]>::len), Some(1));
    }

    #[test]
    fn prometheus_exposition_is_structurally_sound() {
        let m = ServeMetrics::new(ClockKind::Logical, 16, 0);
        m.record_outcome(Op::Analyze, Outcome::Ok, 7);
        m.record_outcome(Op::Analyze, Outcome::Degraded, 900);
        m.note_analysis("demo", 3, 1, 0);
        let text = m.prometheus(&ctx());
        assert!(text.contains("# TYPE araa_serve_requests_total counter"));
        assert!(text.contains("araa_serve_requests_total{op=\"analyze\",outcome=\"ok\"} 1"));
        assert!(text.contains("araa_serve_latency_units_bucket{op=\"analyze\",le=\"+Inf\"} 2"));
        assert!(text.contains("araa_serve_latency_units_count{op=\"analyze\"} 2"));
        assert!(text.contains("araa_serve_project_cache_hit_permille{project=\"demo\"} 750"));
        // Bucket counts are cumulative and end at the total.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("araa_serve_latency_units_bucket{op=\"analyze\"") {
                let v = rest.rsplit(' ').next().and_then(|s| s.parse::<u64>().ok());
                let v = v.unwrap_or(0);
                assert!(v >= last, "cumulative buckets must not decrease");
                last = v;
            }
        }
        assert_eq!(last, 2);
    }
}
