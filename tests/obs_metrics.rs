//! Observability contract: the metrics the collector reports must agree
//! with what the analysis actually did, and observation must never change
//! what the analysis produces.
//!
//! - cache accounting covers every procedure: `cache.hits +
//!   cache.recomputes == session.procedures` on every update (rejects are
//!   a subset of recomputes — a hash hit whose validation failed), and row
//!   accounting every row: `rows.reused + rows.recomputed == session.rows`;
//! - the degradation gauge equals `Analysis::degradations.len()`;
//! - tracing on vs off yields byte-identical `.rgn`/`.dgn`/`.cfg`;
//! - under the logical clock, both exporters are byte-deterministic and
//!   carry valid `#checksum` trailers;
//! - a warm-from-disk run profiles every procedure as primed, none as
//!   recomputed;
//! - every save counts each procedure once, encoded or carried:
//!   `store.encoded + store.carried == session.procedures`;
//! - every update counts each source file's unit once, reused or lowered:
//!   `units.reused + units.lowered == parse.files_reparsed +
//!   parse.files_cached`, the same at one and at eight threads;
//! - every lint run counts each procedure once, relinted, reused or
//!   degraded: `lint.relinted + lint.reused` plus its degradations equals
//!   the procedures, the same at one and at eight threads, and spans
//!   `lint.rules` and `lint.dead_stores` sit under `lint.run`.

use araa::{Analysis, AnalysisOptions, AnalysisSession, SessionStore};
use lint::{LintCache, LintOptions};
use support::budget::BudgetConfig;
use support::obs::{self, ClockKind, Collector, Counter, Gauge};
use support::testdir::TestDir;

fn opts_serial() -> AnalysisOptions {
    // Single-threaded: the byte-determinism assertions below need a
    // deterministic event interleaving, which worker pools cannot promise.
    AnalysisOptions::builder().threads(1).build()
}

fn corpus_source(name: &str) -> workloads::GenSource {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../workloads/irregular_corpus")
        .join(name);
    let text = std::fs::read_to_string(&path).expect("corpus file");
    workloads::GenSource { name: name.into(), text, fortran: true }
}

fn edit_rhs(sources: &mut [workloads::GenSource]) {
    let rhs = sources.iter_mut().find(|s| s.name == "rhs.f").expect("rhs.f");
    rhs.text = rhs.text.replace("do k = 1, 10", "do k = 1, 7");
}

#[test]
fn cache_counters_cover_every_procedure() {
    let mut sources = workloads::mini_lu::sources();
    let mut session = AnalysisSession::new(opts_serial());

    // Cold: everything recomputes.
    let cold = Collector::new(ClockKind::Logical);
    {
        let _g = obs::attach(cold.clone());
        session.update(sources.clone()).expect("cold update");
    }
    let procs = cold.gauge(Gauge::SessionProcedures);
    assert!(procs > 0, "mini_lu has procedures");
    assert_eq!(cold.counter(Counter::CacheHits), 0, "cold run cannot hit");
    assert_eq!(cold.counter(Counter::CacheRecomputes), procs);

    // Warm after one edit: hits + recomputes still covers every procedure,
    // and rejects never exceed recomputes (a reject IS a recompute whose
    // cached candidate failed validation).
    edit_rhs(&mut sources);
    let warm = Collector::new(ClockKind::Logical);
    {
        let _g = obs::attach(warm.clone());
        session.update(sources).expect("warm update");
    }
    let procs = warm.gauge(Gauge::SessionProcedures);
    let hits = warm.counter(Counter::CacheHits);
    let recomputes = warm.counter(Counter::CacheRecomputes);
    assert_eq!(hits + recomputes, procs, "every procedure is hit or recomputed");
    assert!(hits > 0, "an edit of one file must not evict every summary");
    assert!(recomputes > 0, "the edited file's procedures must recompute");
    assert!(
        warm.counter(Counter::CacheRejects) <= recomputes,
        "rejects are a subset of recomputes"
    );
    // Every row of the update moved over or was extracted afresh.
    assert_eq!(
        warm.counter(Counter::RowsReused) + warm.counter(Counter::RowsRecomputed),
        warm.gauge(Gauge::SessionRows),
        "every row is reused or recomputed"
    );
    // The edit re-translates only the call sites of what it changed.
    assert!(
        warm.counter(Counter::BudgetTranslations) < cold.counter(Counter::BudgetTranslations),
        "an edit translates fewer records than a cold run"
    );
}

#[test]
fn degradation_gauge_matches_analysis() {
    // A starvation budget forces degradations; the gauge and counter must
    // agree with the analysis' own report exactly.
    let starved = AnalysisOptions::builder()
        .threads(1)
        .budget(BudgetConfig { fm_steps: 1, translations: 1, ..BudgetConfig::default() })
        .build();
    let c = Collector::new(ClockKind::Logical);
    let a = {
        let _g = obs::attach(c.clone());
        Analysis::analyze(&workloads::mini_lu::sources(), starved).expect("degrades, not fails")
    };
    assert!(a.degraded(), "starvation budget must degrade mini_lu");
    let n = a.degradations.len() as u64;
    assert_eq!(c.gauge(Gauge::SessionDegradations), n);
    assert_eq!(c.counter(Counter::DegradeEvents), n);
    assert!(c.counter(Counter::BudgetExhausted) > 0, "exhaustion must be counted");
}

#[test]
fn tracing_changes_no_artifact_bytes() {
    let sources = workloads::mini_lu::sources();
    let plain = Analysis::analyze(&sources, opts_serial()).expect("untraced analysis");
    let c = Collector::new(ClockKind::Logical);
    let traced = {
        let _g = obs::attach(c.clone());
        Analysis::analyze(&sources, opts_serial()).expect("traced analysis")
    };
    assert!(!c.events().is_empty(), "the traced run must actually record spans");
    assert_eq!(plain.rgn_document(), traced.rgn_document(), ".rgn changed under tracing");
    assert_eq!(plain.dgn_document(), traced.dgn_document(), ".dgn changed under tracing");
    assert_eq!(plain.cfg_document(), traced.cfg_document(), ".cfg changed under tracing");
}

#[test]
fn logical_clock_exports_are_byte_deterministic() {
    let run = || {
        let c = Collector::new(ClockKind::Logical);
        {
            let _g = obs::attach(c.clone());
            Analysis::analyze(&workloads::mini_lu::sources(), opts_serial())
                .expect("analysis succeeds");
        }
        (c.chrome_trace_json(), c.metrics_jsonl())
    };
    let (trace1, metrics1) = run();
    let (trace2, metrics2) = run();
    assert_eq!(trace1, trace2, "chrome trace is not byte-deterministic");
    assert_eq!(metrics1, metrics2, "metrics stream is not byte-deterministic");
    obs::verify_artifact(&trace1).expect("trace trailer verifies");
    obs::verify_artifact(&metrics1).expect("metrics trailer verifies");
}

#[test]
fn warm_from_disk_profiles_primed_procedures() {
    let dir = TestDir::new("obs-warm-disk");
    let sources = workloads::mini_lu::sources();

    // Cold run populates the cache directory.
    {
        let mut session = AnalysisSession::with_cache_dir(opts_serial(), dir.path());
        session.load();
        session.update(sources.clone()).expect("cold update");
        session.persist();
    }

    // Warm-from-disk run under a fresh collector: every procedure must
    // show as primed, none as recomputed, and the counters must agree.
    let c = Collector::new(ClockKind::Logical);
    {
        let _g = obs::attach(c.clone());
        let mut session = AnalysisSession::with_cache_dir(opts_serial(), dir.path());
        session.load();
        session.update(sources).expect("warm update");
    }
    let snap = c.snapshot();
    let procs = c.gauge(Gauge::SessionProcedures);
    assert_eq!(c.counter(Counter::StorePrimed), procs, "all procedures prime from disk");
    assert_eq!(c.counter(Counter::StoreRejected), 0);
    assert_eq!(c.counter(Counter::CacheHits), procs);
    assert_eq!(snap.procs.len() as u64, procs, "one profile row per procedure");
    for p in &snap.procs {
        assert!(p.primed, "{} must be primed from disk", p.proc);
        assert!(!p.recomputed, "{} must not recompute on a warm disk run", p.proc);
    }
}

#[test]
fn saves_count_every_procedure_encoded_or_carried() {
    let dir = TestDir::new("obs-store-carried");
    let mut sources = workloads::mini_lu::sources();
    let mut session = AnalysisSession::with_cache_dir(opts_serial(), dir.path());
    session.update(sources.clone()).expect("cold update");
    let procs = session.analysis().expect("analysis").program.procedure_count() as u64;
    let save = |session: &mut AnalysisSession| {
        let c = Collector::new(ClockKind::Logical);
        {
            let _g = obs::attach(c.clone());
            assert!(session.persist(), "{:?}", session.cache_incidents());
        }
        let counts = (c.counter(Counter::StoreEncoded), c.counter(Counter::StoreCarried));
        assert_eq!(counts.0 + counts.1, procs, "each procedure is encoded or carried");
        counts
    };
    assert_eq!(save(&mut session), (procs, 0), "a first save encodes every entry");
    assert_eq!(save(&mut session), (0, procs), "an unchanged state is carried whole");

    // A one-procedure leaf edit: only the re-propagated chain is encoded.
    edit_rhs(&mut sources);
    let delta = session.update(sources).expect("leaf edit");
    assert_eq!(delta.summaries_recomputed, vec!["rhs".to_string()], "{delta:?}");
    let (encoded, carried) = save(&mut session);
    assert!(
        encoded <= delta.propagation_recomputed.len() as u64,
        "encoded {encoded} entries for {:?}",
        delta.propagation_recomputed
    );
    assert!(carried > 0);
}

#[test]
fn updates_count_every_unit_reused_or_lowered() {
    // Cold, one-file edit, unchanged: each update counts every file's unit
    // once, and the counts do not depend on the worker count.
    let run = |threads: usize| {
        let mut sources = workloads::mini_lu::sources();
        let files = sources.len() as u64;
        let mut session = AnalysisSession::new(AnalysisOptions::builder().threads(threads).build());
        let mut counts = Vec::new();
        for step in 0..3 {
            if step == 1 {
                edit_rhs(&mut sources);
            }
            let c = Collector::new(ClockKind::Logical);
            {
                let _g = obs::attach(c.clone());
                session.update(sources.clone()).expect("update");
            }
            let (reused, lowered) = (c.counter(Counter::UnitsReused), c.counter(Counter::UnitsLowered));
            let parsed = c.counter(Counter::FilesReparsed) + c.counter(Counter::FilesCached);
            assert_eq!(reused + lowered, parsed, "step {step}: every unit counted once");
            assert_eq!(parsed, files, "step {step}");
            counts.push((reused, lowered));
        }
        counts
    };
    let serial = run(1);
    let files = workloads::mini_lu::sources().len() as u64;
    assert_eq!(serial, [(0, files), (files - 1, 1), (files, 0)], "cold, one edit, unchanged");
    assert_eq!(serial, run(8), "unit counters must not depend on thread count");
}

#[test]
fn interval_pass_counters_are_thread_count_invariant() {
    // The non-affine counters describe *what the analysis concluded*, not
    // how the work was scheduled: analyzing the same irregular program at
    // 1 and 8 threads must count the same FM bail-outs, the same interval
    // recoveries, and the same index-array facts.
    let sources = vec![corpus_source("ss_inj_ok.f")];
    let run = |threads: usize| {
        let c = Collector::new(ClockKind::Logical);
        {
            let _g = obs::attach(c.clone());
            Analysis::analyze(&sources, AnalysisOptions::builder().threads(threads).build())
                .expect("analysis succeeds");
        }
        (
            c.counter(Counter::RegionsFmBailouts),
            c.counter(Counter::RegionsIntervalRecovered),
            c.counter(Counter::IpaIndexFacts),
        )
    };
    let serial = run(1);
    let parallel = run(8);
    assert!(serial.0 > 0, "the gather must make FM bail out");
    assert!(serial.1 > 0, "the interval pass must recover bounds");
    assert!(serial.2 > 0, "the defining loop must yield index-array facts");
    assert_eq!(serial, parallel, "counters must not depend on thread count");
}

#[test]
fn interval_fixpoint_spans_only_where_fm_gave_up() {
    // The fixpoint is the fallback's expensive part: affine mini-LU must
    // never enter it, while the subscripted-subscript gather must.
    let interval_spans = |sources: Vec<workloads::GenSource>| {
        let c = Collector::new(ClockKind::Logical);
        {
            let _g = obs::attach(c.clone());
            Analysis::analyze(&sources, opts_serial()).expect("analysis succeeds");
        }
        c.events().iter().filter(|e| e.name == "ipa.interval").count()
    };
    assert_eq!(interval_spans(workloads::mini_lu::sources()), 0);
    assert!(interval_spans(vec![corpus_source("ss_gather.f")]) >= 1);
}

#[test]
fn cache_stats_reconciles_store_gauge() {
    let dir = TestDir::new("obs-stats-gauge");

    // Populate and persist a cache.
    {
        let mut session = AnalysisSession::with_cache_dir(opts_serial(), dir.path());
        session.load();
        session.update(workloads::mini_lu::sources()).expect("cold update");
        session.persist();
    }

    // A fresh process that never saved: its StoreEntries gauge can hold
    // anything (here: deliberately poisoned). `stats()` must reconcile the
    // live gauge with the directory scan it reports.
    let c = Collector::new(ClockKind::Logical);
    let _g = obs::attach(c.clone());
    obs::set_gauge(Gauge::StoreEntries, 999);
    let store = SessionStore::new(dir.path(), &opts_serial());
    let stats = store.stats().expect("stats");
    assert!(stats.entry_files > 0, "populated cache has entry files");
    assert_eq!(
        c.gauge(Gauge::StoreEntries),
        stats.entry_files as u64,
        "stats() must reconcile the live gauge with the reported entry count"
    );

    // Every read reconciles it again.
    obs::set_gauge(Gauge::StoreEntries, 999);
    let stats = store.stats().expect("stats");
    assert_eq!(c.gauge(Gauge::StoreEntries), stats.entry_files as u64);
}

#[test]
fn lint_counts_every_procedure_relinted_reused_or_degraded() {
    // A cold lint, then an edit of `rhs.f` linted through the same cache.
    let counts = |threads: usize| -> Vec<(u64, u64)> {
        let mut sources = workloads::mini_lu::sources();
        let mut session = AnalysisSession::new(AnalysisOptions::builder().threads(threads).build());
        let mut cache = LintCache::empty();
        let mut out = Vec::new();
        for edit in [false, true] {
            if edit {
                edit_rhs(&mut sources);
            }
            session.update(sources.clone()).expect("update");
            let a = session.analysis().expect("analysis");
            let c = Collector::new(ClockKind::Logical);
            let report = {
                let _g = obs::attach(c.clone());
                lint::run_with_cache(a, &LintOptions { threads }, &mut cache)
            };
            let (relinted, reused) = (c.counter(Counter::LintRelinted), c.counter(Counter::LintReused));
            assert_eq!(
                relinted + reused + report.degradations.len() as u64,
                a.program.procedure_count() as u64,
                "threads {threads}, edit {edit}"
            );
            let spans: Vec<&str> = c.events().iter().map(|e| e.name).collect();
            for name in ["lint.run", "lint.rules", "lint.dead_stores"] {
                assert_eq!(spans.iter().filter(|&&s| s == name).count(), 1, "{name}: {spans:?}");
            }
            out.push((relinted, reused));
        }
        out
    };
    let serial = counts(1);
    assert_eq!(serial[0].1, 0, "a cold lint reuses nothing");
    assert!(serial[1].1 > 0, "the edit reuses the procedures it does not reach: {serial:?}");
    assert_eq!(serial, counts(8));
}
