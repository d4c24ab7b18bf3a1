//! Observability: hierarchical spans, typed counters/gauges, and two
//! deterministic exporters (Chrome `trace_event` JSON and line-oriented
//! JSONL metrics).
//!
//! The analysis pipeline accumulated a lot of internal state — cache
//! hits, rebases, budget consumption, degradations, quarantines,
//! faultpoint trips — with no way to observe any of it beyond exit codes.
//! This module is the pipeline's own Dragon: it makes those internals
//! visible, cheaply and deterministically, without adding a dependency.
//!
//! # Model
//!
//! A [`Collector`] owns everything one observed run records: a fixed
//! catalog of [`Counter`]s (monotonic sums), [`Gauge`]s (last-write-wins
//! levels), and a buffer of completed [span events](SpanEvent). Call sites
//! never hold a collector; they call the free functions ([`span`],
//! [`add`], [`incr`], [`set_gauge`]), which resolve the *current*
//! collector:
//!
//! the innermost collector [`attach`]ed to this thread, or none — then
//! every call is a no-op costing one relaxed atomic load.
//!
//! There is no process-global collector: the `dragon` binary attaches its
//! one to the main thread for the whole run. Thread-scoped attachment
//! keeps parallel test binaries honest: each test observes only its own
//! session. Worker pools must re-attach the spawning thread's collector
//! inside each worker (as [`crate::par::map`] does), mirroring how budget
//! scopes are thread-local.
//!
//! # Determinism
//!
//! Timestamps come from an injectable [`ClockKind`]: `Monotonic` (real
//! wall time) by default, `Logical` (an atomic tick per read) in tests.
//! Under the logical clock a single-threaded run produces byte-identical
//! exports on every execution, so the determinism contract of
//! `tests/determinism.rs` extends to trace and metrics artifacts. Counter
//! values are order-independent sums, so they are deterministic across
//! thread counts as well. Observability never feeds back into analysis
//! results: enabling it changes no `.rgn`/`.dgn`/`.cfg` byte (tested).
//!
//! # Allocation estimates
//!
//! Spans record an *allocation estimate*: the change in
//! [`alloc::allocated_bytes`] between span entry and exit. The counter
//! only moves when the embedding binary installs
//! [`alloc::CountingAllocator`] as its global allocator (the `dragon`
//! binary does); otherwise every estimate is 0. It counts bytes
//! *requested* process-wide while the span was open — a cheap attribution
//! heuristic, not a heap profiler.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counter / gauge catalogs
// ---------------------------------------------------------------------------

macro_rules! catalog {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($(#[$vmeta:meta])* $variant:ident => $str:expr,)+ }) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every member, in catalog (= export) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The stable dotted name used in exports.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $str,)+
                }
            }
        }
    };
}

catalog! {
    /// Monotonic event counters. The catalog is closed (an enum, not
    /// strings) so exports always emit every counter — including zeros —
    /// in a stable order, and so invariants over them can be typed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Counter {
        /// Summary cache hits: a fingerprint match that survived full
        /// structural verification and rebasing.
        CacheHits => "cache.hits",
        /// Procedures summarized from scratch with no cache candidate.
        CacheRecomputes => "cache.recomputes",
        /// Fingerprint matches rejected by structural verification or a
        /// failed rebase (counted as recomputed, too — see the invariant
        /// `hits + recomputes = procedures`).
        CacheRejects => "cache.rejects",
        /// Cached summaries rebased onto new symbol tables (the
        /// non-identity reuse path).
        CacheRebases => "cache.rebases",
        /// Source files re-parsed because their text changed.
        FilesReparsed => "parse.files_reparsed",
        /// Source files served from the parse cache.
        FilesCached => "parse.files_cached",
        /// Source files whose lowered unit an update moved over from the
        /// previous program. Each update counts every file once:
        /// `units.reused + units.lowered` equals its files.
        UnitsReused => "units.reused",
        /// Source files an update lowered afresh (sema, AST→VH, VH→H).
        UnitsLowered => "units.lowered",
        /// `.rgn` rows carried over verbatim from the previous update: the
        /// rows of reused procedures, and of a re-propagated caller its
        /// local rows and the rows of its kept call-site slices.
        RowsReused => "rows.reused",
        /// `.rgn` rows rebuilt by re-running extraction.
        RowsRecomputed => "rows.recomputed",
        /// Propagation-invalidation fan-out: procedures whose propagated
        /// summary was invalidated per update (dirty set + ancestors).
        PropagateInvalidated => "propagate.invalidated",
        /// Fourier–Motzkin work steps consumed against budget scopes.
        BudgetFmSteps => "budget.fm_steps",
        /// Interprocedural record translations consumed against budget
        /// scopes.
        BudgetTranslations => "budget.translations",
        /// Budget scopes that ended exhausted (some result was widened).
        BudgetExhausted => "budget.exhausted",
        /// Bytes charged against memory budgets ([`crate::memory`]).
        MemBytesCharged => "memory.bytes_charged",
        /// Degradations recorded into analysis results.
        DegradeEvents => "degrade.events",
        /// Procedures primed from a validated on-disk cache entry.
        StorePrimed => "store.primed",
        /// On-disk cache entries rejected during load (stale, missing,
        /// corrupt — each leaves the procedure cold).
        StoreRejected => "store.rejected",
        /// Per-procedure entries a save serialized and hashed (new or
        /// changed since the entry on disk, or with no entry on disk).
        StoreEncoded => "store.encoded",
        /// Per-procedure entries a save referenced by their carried
        /// address without serializing them. Each save counts every
        /// procedure once: `encoded + carried == procedures`.
        StoreCarried => "store.carried",
        /// Files moved into `quarantine/`.
        QuarantineEvents => "quarantine.events",
        /// Quarantined files evicted by the oldest-first cap GC.
        QuarantineEvicted => "quarantine.evicted",
        /// Stale `.araa-tmp` files swept (lock acquire, stale takeover).
        TmpSwept => "persist.tmp_swept",
        /// Armed faultpoints that fired (only under `fault-injection`).
        FaultpointTrips => "faultpoint.trips",
        /// Fourier–Motzkin variable eliminations performed.
        FmEliminations => "fm.eliminations",
        /// Eliminations that ran out of budget and dropped constraints
        /// (a sound widening).
        FmWidenings => "fm.widenings",
        /// Approximate region unions (`union_hull` folds).
        RegionUnions => "region.unions",
        /// Lint findings emitted, all rules and severities.
        LintFindings => "lint.findings",
        /// Lint findings of definite severity (the violation is proved).
        LintFindingsDefinite => "lint.findings.definite",
        /// Lint findings of possible severity (Fourier–Motzkin failed to
        /// refute the violation but could not prove it).
        LintFindingsPossible => "lint.findings.possible",
        /// Candidate violations suppressed because the Fourier–Motzkin
        /// system refuted them (proved the access safe).
        LintSuppressed => "lint.suppressed",
        /// Procedures the per-procedure lint rules ran on without
        /// degrading.
        LintRelinted => "lint.relinted",
        /// Procedures whose findings a lint run reused from its cache.
        /// Each run counts every procedure once: `lint.relinted +
        /// lint.reused` plus its lint degradations equals its procedures.
        LintReused => "lint.reused",
        /// Fourier–Motzkin give-up events: a projection or summary bailed
        /// out with a typed `ImpreciseReason` (budget, non-affine,
        /// symbolic) instead of an exact answer.
        RegionsFmBailouts => "regions.fm_bailouts",
        /// Non-affine access dimensions whose bounds the interval
        /// abstract-interpretation fallback recovered.
        RegionsIntervalRecovered => "regions.interval_recovered",
        /// Index-array facts (range / injectivity / monotonicity) derived
        /// from defining loops during local summarization.
        IpaIndexFacts => "ipa.index_facts",
    }
}

catalog! {
    /// Last-write-wins levels describing the most recent update.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Gauge {
        /// Procedures in the current program.
        SessionProcedures => "session.procedures",
        /// Rows in the current `.rgn` table.
        SessionRows => "session.rows",
        /// Degradations attached to the current analysis result
        /// (equals `Analysis::degradations.len()` — tested invariant).
        SessionDegradations => "session.degradations",
        /// Entry files referenced by the manifest at the last save.
        StoreEntries => "store.entries",
    }
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Where timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockKind {
    /// Real monotonic time (nanoseconds since the collector was created).
    #[default]
    Monotonic,
    /// A logical tick: every read returns the next integer. Deterministic
    /// — byte-identical exports across runs for single-threaded work.
    Logical,
}

impl ClockKind {
    /// The stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            ClockKind::Monotonic => "monotonic",
            ClockKind::Logical => "logical",
        }
    }
}

/// A clock of one [`ClockKind`], read in its units: nanoseconds since the
/// clock was made, or the next tick under the logical clock. Collectors
/// and `dragon serve`'s metrics registry both stamp with one.
#[derive(Debug)]
pub struct Clock {
    kind: ClockKind,
    origin: Instant,
    tick: AtomicU64,
}

impl Clock {
    /// A clock of `kind`, starting now (or at tick 0).
    pub fn new(kind: ClockKind) -> Clock {
        Clock { kind, origin: Instant::now(), tick: AtomicU64::new(0) }
    }

    /// The kind of this clock.
    pub fn kind(&self) -> ClockKind {
        self.kind
    }

    /// The current reading, in clock units.
    pub fn now(&self) -> u64 {
        match self.kind {
            ClockKind::Monotonic => {
                let d = self.origin.elapsed();
                d.as_secs().saturating_mul(1_000_000_000).saturating_add(u64::from(d.subsec_nanos()))
            }
            ClockKind::Logical => self.tick.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// The spans that carry a procedure's name as their argument: IPL, a
/// cache entry's priming and row extraction. Only these feed a profile's
/// per-procedure rows; other arg-carrying spans (per-file parses) would
/// collide with procedure names and muddle the ranking.
pub const PROC_SPANS: [&str; 3] = ["ipa.ipl", "store.prime", "extract.rows"];

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// One completed span, as recorded: a named interval on one thread with an
/// optional detail argument (for per-procedure spans, the procedure name).
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name from the fixed taxonomy (e.g. `ipa.ipl`).
    pub name: &'static str,
    /// Optional detail — per-procedure spans carry the procedure name.
    pub arg: Option<String>,
    /// Small per-collector thread ordinal (Chrome-trace `tid`).
    pub tid: u32,
    /// Start timestamp (clock units: ns or ticks).
    pub start: u64,
    /// Duration (clock units). At least 1 so viewers render the slice.
    pub dur: u64,
    /// Allocation estimate: bytes requested process-wide while open.
    pub alloc: u64,
    /// Global record sequence number (stable tiebreaker for sorting).
    pub seq: u64,
}

struct CollectorState {
    events: Vec<SpanEvent>,
    gauges: BTreeMap<&'static str, u64>,
}

/// Sink for one observed run. Create one, [`attach`] it, run the work,
/// then export via
/// [`chrome_trace_json`](Collector::chrome_trace_json) /
/// [`metrics_jsonl`](Collector::metrics_jsonl) /
/// [`snapshot`](Collector::snapshot).
pub struct Collector {
    id: u64,
    clock: Clock,
    seq: AtomicU64,
    next_tid: AtomicU32,
    counters: [AtomicU64; Counter::ALL.len()],
    state: Mutex<CollectorState>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").field("id", &self.id).field("clock", &self.clock.kind).finish()
    }
}

static COLLECTOR_IDS: AtomicU64 = AtomicU64::new(1);

/// Fast gate: true while any collector is attached anywhere. Lets the
/// disabled path cost one relaxed load.
static ANY_ACTIVE: AtomicBool = AtomicBool::new(false);
static ATTACH_COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Innermost-wins stack of collectors attached to this thread.
    static CURRENT: std::cell::RefCell<Vec<Arc<Collector>>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Cache of (collector id → tid) for this thread, avoiding a lock per
    /// span end.
    static TID_CACHE: std::cell::Cell<(u64, u32)> = const { std::cell::Cell::new((0, 0)) };
}

fn lock_state(c: &Collector) -> std::sync::MutexGuard<'_, CollectorState> {
    c.state.lock().unwrap_or_else(|p| p.into_inner())
}

impl Collector {
    /// A fresh collector reading the given clock.
    pub fn new(clock: ClockKind) -> Arc<Collector> {
        Arc::new(Collector {
            id: COLLECTOR_IDS.fetch_add(1, Ordering::Relaxed),
            clock: Clock::new(clock),
            seq: AtomicU64::new(0),
            next_tid: AtomicU32::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            state: Mutex::new(CollectorState {
                events: Vec::new(),
                gauges: BTreeMap::new(),
            }),
        })
    }

    /// The clock this collector stamps events with.
    pub fn clock(&self) -> ClockKind {
        self.clock.kind
    }

    fn tid(self: &Arc<Self>) -> u32 {
        TID_CACHE.with(|c| {
            let (id, tid) = c.get();
            if id == self.id {
                return tid;
            }
            let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
            c.set((self.id, tid));
            tid
        })
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Current value of one gauge (0 when never set).
    pub fn gauge(&self, g: Gauge) -> u64 {
        lock_state(self).gauges.get(g.name()).copied().unwrap_or(0)
    }

    /// Completed span events recorded so far, in deterministic order
    /// (start timestamp, then sequence number).
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut events = lock_state(self).events.clone();
        events.sort_by_key(|e| (e.start, e.seq));
        events
    }

    /// An aggregated, export-ready view of everything recorded.
    pub fn snapshot(&self) -> Snapshot {
        let events = self.events();
        let mut spans: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
        let mut procs: BTreeMap<String, ProcProfile> = BTreeMap::new();
        for e in &events {
            let agg = spans.entry(e.name).or_insert_with(|| SpanAgg {
                name: e.name,
                count: 0,
                total: 0,
                alloc: 0,
            });
            agg.count += 1;
            agg.total += e.dur;
            agg.alloc += e.alloc;
            if let (Some(arg), true) = (&e.arg, PROC_SPANS.contains(&e.name)) {
                let p = procs.entry(arg.clone()).or_insert_with(|| ProcProfile {
                    proc: arg.clone(),
                    total: 0,
                    alloc: 0,
                    spans: 0,
                    primed: false,
                    recomputed: false,
                });
                p.total += e.dur;
                p.alloc += e.alloc;
                p.spans += 1;
                match e.name {
                    "store.prime" => p.primed = true,
                    "ipa.ipl" => p.recomputed = true,
                    _ => {}
                }
            }
        }
        let mut procs: Vec<ProcProfile> = procs.into_values().collect();
        // Ranked by time, heaviest first; name breaks ties deterministically.
        procs.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.proc.cmp(&b.proc)));
        Snapshot {
            clock: self.clock.kind,
            counters: Counter::ALL.iter().map(|&c| (c.name(), self.counter(c))).collect(),
            gauges: lock_state(self).gauges.iter().map(|(k, v)| (*k, *v)).collect(),
            spans: spans.into_values().collect(),
            procs,
        }
    }

    /// The Chrome `trace_event` JSON document (object format, `X` complete
    /// events), finished with the canonical `#checksum` trailer. Load it
    /// in Perfetto or `chrome://tracing`; both ignore the trailing
    /// non-JSON line (strip it for strict parsers).
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"araa\"}}",
        );
        for e in self.events() {
            out.push_str(",\n");
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\",\"cat\":\"araa\"",
                e.tid,
                clock_units_to_us(self.clock.kind, e.start),
                clock_units_to_us(self.clock.kind, e.dur).max(1),
                json_escape(e.name),
            ));
            out.push_str(",\"args\":{");
            if let Some(arg) = &e.arg {
                out.push_str(&format!("\"proc\":\"{}\",", json_escape(arg)));
            }
            out.push_str(&format!("\"alloc_bytes\":{}}}}}", e.alloc));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        out.push_str(&format!(
            "\"tool\":\"araa\",\"schema\":1,\"clock\":\"{}\"}}}}\n",
            self.clock.kind.name()
        ));
        crate::persist::append_text_checksum(&mut out);
        out
    }

    /// The line-oriented JSONL metrics stream: one `meta` line, every
    /// counter (zeros included) and gauge, per-span-name aggregates, and
    /// per-procedure profile lines — finished with the canonical
    /// `#checksum` trailer. Line order is stable, so under the logical
    /// clock the document is byte-deterministic.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = self.metrics_jsonl_body();
        crate::persist::append_text_checksum(&mut out);
        out
    }

    /// [`metrics_jsonl`](Collector::metrics_jsonl) without the trailer —
    /// for callers that append extra lines (e.g. structured diagnostics)
    /// before sealing the document with
    /// [`persist::append_text_checksum`](crate::persist::append_text_checksum).
    pub fn metrics_jsonl_body(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"tool\":\"araa\",\"schema\":1,\"clock\":\"{}\"}}\n",
            snap.clock.name()
        ));
        for (name, value) in &snap.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}\n"
            ));
        }
        for (name, value) in &snap.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{name}\",\"value\":{value}}}\n"
            ));
        }
        for s in &snap.spans {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"name\":\"{}\",\"count\":{},\"total_units\":{},\
                 \"alloc_bytes\":{}}}\n",
                s.name, s.count, s.total, s.alloc
            ));
        }
        for p in &snap.procs {
            out.push_str(&format!(
                "{{\"type\":\"proc\",\"name\":\"{}\",\"total_units\":{},\
                 \"alloc_bytes\":{},\"spans\":{},\"primed\":{},\"recomputed\":{}}}\n",
                json_escape(&p.proc),
                p.total,
                p.alloc,
                p.spans,
                p.primed,
                p.recomputed
            ));
        }
        out
    }
}

impl Collector {
    /// Folds this collector's counters into `parent` (order-independent
    /// sums) and overlays its gauges (last-write-wins). Used by the serve
    /// worker loop: each request records into a fresh child collector so
    /// its span tree can be sampled in isolation, then the totals flow
    /// back into the worker's long-lived collector.
    pub fn fold_into(&self, parent: &Collector) {
        for &c in Counter::ALL {
            let v = self.counter(c);
            if v > 0 {
                parent.counters[c as usize].fetch_add(v, Ordering::Relaxed);
            }
        }
        let gauges: Vec<(&'static str, u64)> =
            lock_state(self).gauges.iter().map(|(k, v)| (*k, *v)).collect();
        if !gauges.is_empty() {
            let mut ps = lock_state(parent);
            for (k, v) in gauges {
                ps.gauges.insert(k, v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Log-linear latency histograms
// ---------------------------------------------------------------------------

/// Fixed-bound log-linear histograms: each power-of-two octave is split
/// into [`hist::SUB_BUCKETS`] linear sub-buckets, giving ≤ 25% relative bucket
/// error across the full `u64` range with a small constant bucket count.
/// Bounds are process-invariant constants, so bucket-count vectors from
/// different shards, runs, or machines merge by plain elementwise
/// addition — the property the serve metrics registry's determinism
/// contract rests on.
pub mod hist {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// Values `1..=LINEAR_HEAD` get one bucket each.
    pub const LINEAR_HEAD: u64 = 8;
    /// Linear sub-buckets per power-of-two octave above the head.
    pub const SUB_BUCKETS: usize = 4;
    /// Total bucket count (head + 61 octaves × sub-buckets).
    pub const NUM_BUCKETS: usize = LINEAR_HEAD as usize + 61 * SUB_BUCKETS;

    /// Bucket index for a recorded value (0 maps with 1).
    pub fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            return 0;
        }
        if v <= LINEAR_HEAD {
            return (v - 1) as usize;
        }
        // Classify v-1 so exact bounds land in the bucket they close.
        let vm = v - 1;
        let msb = 63 - vm.leading_zeros() as usize; // >= 3 since vm >= 8
        let base = 1u64 << msb;
        let sub = ((vm - base) >> (msb - 2)) as usize; // (vm-base)*SUB/base
        LINEAR_HEAD as usize + (msb - 3) * SUB_BUCKETS + sub
    }

    /// Inclusive upper bounds, one per bucket, strictly increasing; the
    /// final bound saturates at `u64::MAX`.
    pub fn bucket_bounds() -> &'static [u64] {
        static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
        BOUNDS.get_or_init(|| {
            let mut b = Vec::with_capacity(NUM_BUCKETS);
            for v in 1..=LINEAR_HEAD {
                b.push(v);
            }
            for msb in 3..64usize {
                let base = 1u64 << msb;
                let step = base >> 2;
                for s in 1..=SUB_BUCKETS as u64 {
                    b.push(base.saturating_add(step.saturating_mul(s)));
                }
            }
            debug_assert_eq!(b.len(), NUM_BUCKETS);
            b
        })
    }

    /// A concurrent histogram: relaxed atomic bucket counts plus a total
    /// sum, recordable from any thread without locks.
    pub struct Histogram {
        counts: Box<[AtomicU64]>,
        sum: AtomicU64,
    }

    impl Default for Histogram {
        fn default() -> Self {
            Histogram::new()
        }
    }

    impl Histogram {
        /// An empty histogram.
        pub fn new() -> Histogram {
            Histogram {
                counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
            }
        }

        /// Records one observation.
        pub fn record(&self, v: u64) {
            self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }

        /// Bucket counts, index-aligned with [`bucket_bounds`].
        pub fn counts(&self) -> Vec<u64> {
            self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        }

        /// Total observations recorded.
        pub fn count(&self) -> u64 {
            self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
        }

        /// Sum of recorded values.
        pub fn sum(&self) -> u64 {
            self.sum.load(Ordering::Relaxed)
        }
    }

    /// Adds `src` into `dst` elementwise (shard merging).
    pub fn merge_counts(dst: &mut [u64], src: &[u64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
    }

    /// The `p`-quantile (`0.0..=1.0`) estimated from bucket counts: the
    /// inclusive upper bound of the bucket holding the rank-`⌈p·n⌉`
    /// observation. Exact to within one bucket's width by construction.
    pub fn percentile_from_counts(counts: &[u64], p: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let bounds = bucket_bounds();
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

// ---------------------------------------------------------------------------
// Span-tree folding
// ---------------------------------------------------------------------------

/// Folds completed span events into collapsed-stack (flamegraph) lines:
/// `frame;frame;frame self_units`, frames nested by interval containment
/// per thread. Works on any event slice — per-request collectors are
/// single-threaded so containment reconstructs the exact call tree.
/// Output is sorted by stack string, so under the logical clock it is
/// byte-deterministic.
pub fn collapsed_stacks(events: &[SpanEvent]) -> Vec<(String, u64)> {
    fn frame(e: &SpanEvent) -> String {
        let mut f = String::from(e.name);
        if let Some(arg) = &e.arg {
            f.push(':');
            // Collapsed-stack format reserves ';' (frame separator) and
            // ' ' (count separator).
            f.extend(arg.chars().map(|c| if c == ';' || c == ' ' { '_' } else { c }));
        }
        f
    }

    let mut by_tid: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
    for e in events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for evs in by_tid.values_mut() {
        // Parents start no later than children and end no earlier; sorting
        // by (start, seq) yields parents before their children because a
        // parent's start tick precedes every child's.
        evs.sort_by_key(|e| (e.start, e.seq));
        // Stack of (event, accumulated child time).
        let mut stack: Vec<(&SpanEvent, u64)> = Vec::new();
        let pop_into =
            |stack: &mut Vec<(&SpanEvent, u64)>, folded: &mut BTreeMap<String, u64>| {
                if let Some((done, child_time)) = stack.pop() {
                    let self_time = done.dur.saturating_sub(child_time);
                    let mut path: Vec<String> =
                        stack.iter().map(|(e, _)| frame(e)).collect();
                    path.push(frame(done));
                    *folded.entry(path.join(";")).or_insert(0) += self_time;
                    if let Some(top) = stack.last_mut() {
                        top.1 = top.1.saturating_add(done.dur);
                    }
                }
            };
        for e in evs.iter() {
            while let Some((top, _)) = stack.last() {
                let contained = e.start >= top.start
                    && e.start.saturating_add(e.dur) <= top.start.saturating_add(top.dur);
                if contained {
                    break;
                }
                pop_into(&mut stack, &mut folded);
            }
            stack.push((e, 0));
        }
        while !stack.is_empty() {
            pop_into(&mut stack, &mut folded);
        }
    }
    folded.into_iter().collect()
}

/// `start`/`dur` in microseconds for the Chrome exporter. Logical ticks
/// pass through unscaled (they already are arbitrary units).
fn clock_units_to_us(clock: ClockKind, v: u64) -> u64 {
    match clock {
        ClockKind::Monotonic => v / 1_000,
        ClockKind::Logical => v,
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes): the
/// allocating form of [`crate::json::escape_into`].
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    crate::json::escape_into(s, &mut out);
    out
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Span name.
    pub name: &'static str,
    /// Completed spans under this name.
    pub count: u64,
    /// Summed duration, clock units.
    pub total: u64,
    /// Summed allocation estimate, bytes.
    pub alloc: u64,
}

/// Per-procedure profile aggregated from `arg`-carrying spans.
#[derive(Debug, Clone)]
pub struct ProcProfile {
    /// Procedure name.
    pub proc: String,
    /// Summed duration across this procedure's spans, clock units.
    pub total: u64,
    /// Summed allocation estimate, bytes.
    pub alloc: u64,
    /// Number of spans attributed to the procedure.
    pub spans: u64,
    /// The procedure was primed from a validated on-disk cache entry.
    pub primed: bool,
    /// The procedure's IPL summary was (re)computed this run.
    pub recomputed: bool,
}

/// Everything a collector recorded, aggregated for reporting.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The clock events were stamped with.
    pub clock: ClockKind,
    /// Every counter in catalog order (zeros included).
    pub counters: Vec<(&'static str, u64)>,
    /// Every gauge that was set, name-sorted.
    pub gauges: Vec<(&'static str, u64)>,
    /// Per-span-name aggregates, name-sorted.
    pub spans: Vec<SpanAgg>,
    /// Per-procedure profile, ranked by total time (heaviest first).
    pub procs: Vec<ProcProfile>,
}

impl Snapshot {
    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == c.name())
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Attachment & recording entry points
// ---------------------------------------------------------------------------

/// RAII handle detaching the collector from this thread on drop.
#[derive(Debug)]
pub struct AttachGuard {
    _private: (),
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
        if ATTACH_COUNT.fetch_sub(1, Ordering::Relaxed) == 1 {
            ANY_ACTIVE.store(false, Ordering::Relaxed);
        }
    }
}

/// Attaches `collector` to the current thread until the guard drops
/// (innermost attachment wins). Worker pools must call this inside each
/// worker with the spawning thread's [`current`] collector.
pub fn attach(collector: Arc<Collector>) -> AttachGuard {
    CURRENT.with(|c| c.borrow_mut().push(collector));
    ATTACH_COUNT.fetch_add(1, Ordering::Relaxed);
    ANY_ACTIVE.store(true, Ordering::Relaxed);
    AttachGuard { _private: () }
}

/// The collector observation on this thread resolves to, if any.
pub fn current() -> Option<Arc<Collector>> {
    if !ANY_ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Adds `n` to a counter on the current collector (no-op when none).
#[inline]
pub fn add(c: Counter, n: u64) {
    if !ANY_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(col) = current() {
        col.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Adds 1 to a counter on the current collector.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Sets a gauge on the current collector (no-op when none).
pub fn set_gauge(g: Gauge, v: u64) {
    if !ANY_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(col) = current() {
        lock_state(&col).gauges.insert(g.name(), v);
    }
}

/// An open span; records a [`SpanEvent`] on drop. Obtain via [`span`] /
/// [`span_arg`]. When no collector is current, the guard is inert.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Option<OpenSpan>,
}

impl SpanGuard {
    /// Discards the span: nothing is recorded when the guard drops. For
    /// call sites that only know at the *end* whether the interval
    /// deserves its name (e.g. a cache prime that turned out to be a
    /// reject).
    pub fn cancel(&mut self) {
        self.rec = None;
    }
}

#[derive(Debug)]
struct OpenSpan {
    collector: Arc<Collector>,
    name: &'static str,
    arg: Option<String>,
    start: u64,
    alloc_start: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.rec.take() else { return };
        let end = open.collector.clock.now();
        // Under the logical clock, exports promise byte-determinism;
        // allocation totals depend on the ambient process (other threads,
        // allocator internals), so they are forced to zero there.
        let alloc = match open.collector.clock.kind {
            ClockKind::Logical => 0,
            ClockKind::Monotonic => {
                alloc::allocated_bytes().saturating_sub(open.alloc_start)
            }
        };
        let tid = open.collector.tid();
        let seq = open.collector.seq.fetch_add(1, Ordering::Relaxed);
        let event = SpanEvent {
            name: open.name,
            arg: open.arg,
            tid,
            start: open.start,
            dur: end.saturating_sub(open.start).max(1),
            alloc,
            seq,
        };
        lock_state(&open.collector).events.push(event);
    }
}

/// Opens a span named `name` on the current collector. Hierarchy is
/// implicit: spans nested on the same thread render nested in the trace.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !ANY_ACTIVE.load(Ordering::Relaxed) {
        return SpanGuard { rec: None };
    }
    open_span(name, None)
}

/// Opens a span carrying a detail argument (per-procedure spans pass the
/// procedure name). The argument closure runs only when a collector is
/// actually current, so disabled call sites pay nothing for it.
#[inline]
pub fn span_arg(name: &'static str, arg: impl FnOnce() -> String) -> SpanGuard {
    if !ANY_ACTIVE.load(Ordering::Relaxed) {
        return SpanGuard { rec: None };
    }
    if current().is_some() {
        open_span(name, Some(arg()))
    } else {
        SpanGuard { rec: None }
    }
}

fn open_span(name: &'static str, arg: Option<String>) -> SpanGuard {
    let Some(collector) = current() else {
        return SpanGuard { rec: None };
    };
    let start = collector.clock.now();
    let alloc_start = alloc::allocated_bytes();
    SpanGuard {
        rec: Some(OpenSpan { collector, name, arg, start, alloc_start }),
    }
}

/// Verifies an exported artifact's `#checksum` trailer and returns its
/// body — a convenience re-export so consumers need not know which module
/// owns the trailer format.
pub fn verify_artifact(doc: &str) -> crate::error::Result<&str> {
    crate::persist::verify_text_checksum(doc)
}

// ---------------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------------

/// Byte-counting wrapper around any [`std::alloc::GlobalAlloc`].
///
/// Installing it as the binary's global allocator makes
/// [`allocated_bytes`](alloc::allocated_bytes) move, which turns every
/// span's allocation estimate from 0 into a real number:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: support::obs::alloc::CountingAllocator<std::alloc::System> =
///     support::obs::alloc::CountingAllocator::new(std::alloc::System);
/// ```
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATED: AtomicU64 = AtomicU64::new(0);

    /// Total bytes *requested* from the global allocator so far (frees are
    /// not subtracted — this measures churn, not residency). Always 0
    /// unless a [`CountingAllocator`] is installed.
    pub fn allocated_bytes() -> u64 {
        ALLOCATED.load(Ordering::Relaxed)
    }

    /// See the module docs; wraps an allocator and counts request bytes.
    pub struct CountingAllocator<A>(A);

    impl<A> CountingAllocator<A> {
        /// Wraps `inner`.
        pub const fn new(inner: A) -> Self {
            CountingAllocator(inner)
        }
    }

    // SAFETY: delegates allocation verbatim to the wrapped allocator; the
    // only extra work is a relaxed atomic add, which cannot violate any
    // GlobalAlloc contract.
    unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAllocator<A> {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            self.0.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            self.0.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATED
                .fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
            self.0.realloc(ptr, layout, new_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_are_inert() {
        // No collector anywhere on this thread: everything is a no-op.
        let _s = span("tests.noop");
        add(Counter::CacheHits, 5);
        set_gauge(Gauge::SessionRows, 9);
        assert!(current().is_none());
    }

    #[test]
    fn counters_and_gauges_record() {
        let c = Collector::new(ClockKind::Logical);
        let _g = attach(c.clone());
        incr(Counter::CacheHits);
        add(Counter::CacheHits, 2);
        set_gauge(Gauge::SessionRows, 42);
        set_gauge(Gauge::SessionRows, 43);
        assert_eq!(c.counter(Counter::CacheHits), 3);
        assert_eq!(c.gauge(Gauge::SessionRows), 43);
        assert_eq!(c.counter(Counter::CacheRejects), 0);
    }

    #[test]
    fn spans_nest_and_record_in_order() {
        let c = Collector::new(ClockKind::Logical);
        let _g = attach(c.clone());
        {
            let _outer = span("tests.outer");
            let _inner = span_arg("tests.inner", || "leaf".to_string());
        }
        let events = c.events();
        assert_eq!(events.len(), 2);
        // Outer opened first (earlier start tick), closed last.
        assert_eq!(events[0].name, "tests.outer");
        assert_eq!(events[1].name, "tests.inner");
        assert_eq!(events[1].arg.as_deref(), Some("leaf"));
        assert!(events[0].start < events[1].start);
        assert!(events[0].start + events[0].dur > events[1].start + events[1].dur);
    }

    #[test]
    fn innermost_attachment_wins() {
        let a = Collector::new(ClockKind::Logical);
        let b = Collector::new(ClockKind::Logical);
        let _ga = attach(a.clone());
        {
            let _gb = attach(b.clone());
            incr(Counter::CacheHits);
        }
        incr(Counter::CacheRejects);
        assert_eq!(b.counter(Counter::CacheHits), 1);
        assert_eq!(a.counter(Counter::CacheHits), 0);
        assert_eq!(a.counter(Counter::CacheRejects), 1);
    }

    #[test]
    fn logical_clock_exports_are_deterministic() {
        let run = || {
            let c = Collector::new(ClockKind::Logical);
            let _g = attach(c.clone());
            {
                let _s = span("tests.phase");
                incr(Counter::FmEliminations);
                let _p = span_arg("ipa.ipl", || "proc_a".to_string());
            }
            set_gauge(Gauge::SessionRows, 7);
            (c.chrome_trace_json(), c.metrics_jsonl())
        };
        let (t1, m1) = run();
        let (t2, m2) = run();
        assert_eq!(t1, t2, "trace export must be byte-deterministic");
        assert_eq!(m1, m2, "metrics export must be byte-deterministic");
    }

    #[test]
    fn exports_carry_valid_checksum_trailers() {
        let c = Collector::new(ClockKind::Logical);
        let _g = attach(c.clone());
        {
            let _s = span("tests.phase");
        }
        for doc in [c.chrome_trace_json(), c.metrics_jsonl()] {
            let body = verify_artifact(&doc).expect("trailer verifies");
            assert!(body.len() < doc.len());
        }
    }

    #[test]
    fn metrics_emit_every_counter_including_zeros() {
        let c = Collector::new(ClockKind::Logical);
        let m = c.metrics_jsonl();
        for counter in Counter::ALL {
            assert!(
                m.contains(&format!("\"name\":\"{}\"", counter.name())),
                "{} missing from metrics",
                counter.name()
            );
        }
    }

    #[test]
    fn snapshot_ranks_procs_by_time() {
        let c = Collector::new(ClockKind::Logical);
        let _g = attach(c.clone());
        {
            let _a = span_arg("ipa.ipl", || "cheap".to_string());
        }
        {
            let _b = span_arg("ipa.ipl", || "expensive".to_string());
            let _pad = span("tests.pad");
            let _pad2 = span("tests.pad2");
        }
        let snap = c.snapshot();
        assert_eq!(snap.procs.len(), 2);
        assert_eq!(snap.procs[0].proc, "expensive");
        assert!(snap.procs[0].total >= snap.procs[1].total);
        assert!(snap.procs.iter().all(|p| p.recomputed && !p.primed));
    }

    #[test]
    fn span_arg_closure_skipped_when_disabled() {
        let ran = std::cell::Cell::new(false);
        {
            let _s = span_arg("tests.lazy", || {
                ran.set(true);
                String::new()
            });
        }
        // With no collector on this thread the closure must not run.
        assert!(!ran.get());
    }

    #[test]
    fn hist_bounds_strictly_increase_and_cover() {
        let bounds = hist::bucket_bounds();
        assert_eq!(bounds.len(), hist::NUM_BUCKETS);
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bounds must strictly increase: {} !< {}", w[0], w[1]);
        }
        assert_eq!(bounds[0], 1);
        assert_eq!(*bounds.last().unwrap(), u64::MAX);
    }

    #[test]
    fn hist_bucket_index_matches_bounds() {
        let bounds = hist::bucket_bounds();
        // Every value lands in the first bucket whose bound is >= value.
        for v in [0u64, 1, 2, 7, 8, 9, 10, 11, 15, 16, 17, 100, 1000, 1 << 20, u64::MAX] {
            let i = hist::bucket_index(v);
            assert!(v <= bounds[i], "v={v} above bound {}", bounds[i]);
            if i > 0 {
                assert!(v > bounds[i - 1], "v={v} not above lower bound {}", bounds[i - 1]);
            }
        }
    }

    #[test]
    fn hist_percentiles_within_one_bucket() {
        let h = hist::Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let counts = h.counts();
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let bounds = hist::bucket_bounds();
        for (p, exact) in [(0.5, 500u64), (0.95, 950), (0.99, 990)] {
            let est = hist::percentile_from_counts(&counts, p);
            let i = hist::bucket_index(exact);
            let lower = if i == 0 { 0 } else { bounds[i - 1] };
            assert!(
                est >= lower && est <= bounds[i.min(bounds.len() - 1)],
                "p{p}: est {est} outside bucket [{lower}, {}]",
                bounds[i]
            );
        }
    }

    #[test]
    fn hist_merge_is_order_independent() {
        let a = hist::Histogram::new();
        let b = hist::Histogram::new();
        for v in [3u64, 17, 400, 9001] {
            a.record(v);
            b.record(v * 2);
        }
        let mut ab = a.counts();
        hist::merge_counts(&mut ab, &b.counts());
        let mut ba = b.counts();
        hist::merge_counts(&mut ba, &a.counts());
        assert_eq!(ab, ba);
        assert_eq!(ab.iter().sum::<u64>(), 8);
    }

    #[test]
    fn collapsed_stacks_fold_self_time() {
        let c = Collector::new(ClockKind::Logical);
        let _g = attach(c.clone());
        {
            let _root = span("serve.request");
            {
                let _child = span_arg("ipa.ipl", || "proc_a".to_string());
            }
            {
                let _child = span("extract.rows");
            }
        }
        let folded = collapsed_stacks(&c.events());
        let stacks: Vec<&str> = folded.iter().map(|(s, _)| s.as_str()).collect();
        assert!(stacks.contains(&"serve.request"));
        assert!(stacks.contains(&"serve.request;ipa.ipl:proc_a"));
        assert!(stacks.contains(&"serve.request;extract.rows"));
        // Self times sum to the root's total duration.
        let root_total = c.events().iter().find(|e| e.name == "serve.request").map(|e| e.dur);
        let sum: u64 = folded.iter().map(|(_, v)| *v).sum();
        assert_eq!(Some(sum), root_total);
    }

    #[test]
    fn fold_into_sums_counters_and_overlays_gauges() {
        let parent = Collector::new(ClockKind::Logical);
        let child = Collector::new(ClockKind::Logical);
        parent.counters[Counter::CacheHits as usize].store(2, Ordering::Relaxed);
        {
            let _g = attach(child.clone());
            add(Counter::CacheHits, 3);
            set_gauge(Gauge::SessionRows, 11);
        }
        child.fold_into(&parent);
        assert_eq!(parent.counter(Counter::CacheHits), 5);
        assert_eq!(parent.gauge(Gauge::SessionRows), 11);
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_is_structurally_sound() {
        let c = Collector::new(ClockKind::Logical);
        let _g = attach(c.clone());
        {
            let _s = span_arg("tests.span", || "with \"quotes\"".to_string());
        }
        let doc = c.chrome_trace_json();
        let body = verify_artifact(&doc).expect("trailer ok");
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.contains("\"ph\":\"X\""));
        assert!(body.contains("\\\"quotes\\\""));
        assert!(body.trim_end().ends_with('}'));
        // Balanced braces/brackets outside strings — cheap structural check.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for ch in body.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON structure");
        assert!(!in_str, "unterminated string");
    }
}
