//! End-to-end tests of the on-disk session cache: round-trips, warm-from-disk
//! equivalence with cold runs, corruption quarantine, the lock protocol, and
//! crash consistency at every registered persistence faultpoint.

use araa::{Analysis, AnalysisOptions, AnalysisSession, SessionStore};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use support::budget::BudgetConfig;
use support::deadline::{self, DeadlineToken};
use support::obs::{self, ClockKind, Collector, Counter};
use support::persist::{ByteWriter, Persist};
use support::testdir::TestDir;
use workloads::GenSource;

/// The faultpoint registry is process-global: under `fault-injection`, a
/// test loading or saving a cache on another thread could consume a fault
/// the `crashes` tests armed, so the tests take turns on this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

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
const LEAF_F: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 20
    a(i) = 2.0
  end do
end
";
const LEAF_F_EDITED: &str = "\
subroutine leaf
  real a(20)
  common /g/ a
  integer i
  do i = 12, 18
    a(i) = 2.0
  end do
end
";

fn files(leaf: &str) -> Vec<GenSource> {
    vec![
        GenSource::fortran("main.f", MAIN_F),
        GenSource::fortran("mid.f", MID_F),
        GenSource::fortran("leaf.f", leaf),
    ]
}

fn cold(sources: &[GenSource]) -> Analysis {
    Analysis::analyze(sources, AnalysisOptions::default()).expect("cold run")
}

/// Every propagated summary of `a`, encoded (summaries have no `PartialEq`;
/// their cache encoding is exact).
fn encoded_summaries(a: &Analysis) -> Vec<Vec<u8>> {
    a.ipa
        .summaries
        .iter()
        .map(|summary| {
            let mut w = ByteWriter::new();
            summary.save(&mut w);
            w.into_bytes()
        })
        .collect()
}

/// Asserts that `a` equals the cold oracle in summaries, rows and
/// degradations.
fn assert_equals_cold(a: &Analysis, oracle: &Analysis) {
    assert!(encoded_summaries(a) == encoded_summaries(oracle), "summaries differ from cold");
    assert_eq!(a.rows, oracle.rows);
    assert_eq!(a.degradations, oracle.degradations);
}

/// Paths of the content-addressed entry files currently in `dir`.
fn entry_paths(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .flatten()
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy();
            n.starts_with('e') && n.ends_with(".araa") && n.len() == 22
        })
        .map(|e| e.path())
        .collect();
    out.sort();
    out
}

fn flip_byte(path: &std::path::Path, offset_from_mid: i64) {
    let mut bytes = std::fs::read(path).expect("readable");
    let at = (bytes.len() as i64 / 2 + offset_from_mid)
        .clamp(0, bytes.len() as i64 - 1) as usize;
    bytes[at] ^= 0x20;
    std::fs::write(path, bytes).expect("writable");
}

/// Loads a fresh session over `dir` under a collector. Returns the session,
/// what `load` returned, and the procedures whose IPL the load recomputed
/// and whose rows it extracted, read from its `ipa.ipl` and `extract.rows`
/// spans, each sorted.
fn load_traced(dir: &std::path::Path) -> (AnalysisSession, bool, Vec<String>, Vec<String>) {
    let c = Collector::new(ClockKind::Logical);
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
    let loaded = {
        let _g = obs::attach(c.clone());
        s.load()
    };
    let procs = |span: &str| {
        let mut names: Vec<String> =
            c.events().into_iter().filter(|e| e.name == span).filter_map(|e| e.arg).collect();
        names.sort();
        names
    };
    (s, loaded, procs("ipa.ipl"), procs("extract.rows"))
}

/// The procedure a single rejected-entry incident names.
fn rejected_proc(incidents: &[araa::Degradation]) -> String {
    let named: Vec<&str> = incidents
        .iter()
        .filter_map(|d| d.detail.strip_prefix("cache entry for `"))
        .filter_map(|rest| rest.split_once("` rejected"))
        .map(|(proc, _)| proc)
        .collect();
    assert_eq!(named.len(), 1, "one rejected entry: {incidents:?}");
    named[0].to_string()
}

fn seed(dir: &std::path::Path, sources: &[GenSource]) -> Analysis {
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
    s.update(sources).expect("seed update");
    assert!(s.persist(), "seed persist: {:?}", s.cache_incidents());
    assert!(s.cache_incidents().is_empty(), "{:?}", s.cache_incidents());
    s.into_analysis().expect("seeded analysis")
}

#[test]
fn persist_and_reload_round_trip() {
    let _serial = serial();
    let dir = TestDir::new("persist-roundtrip");
    let sources = files(LEAF_F);
    let seeded = seed(dir.path(), &sources);

    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(warm.load(), "manifest present, load must succeed");
    assert!(warm.cache_incidents().is_empty(), "{:?}", warm.cache_incidents());
    let delta = warm.update(&sources).expect("warm update");
    assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
    assert!(delta.summaries_recomputed.is_empty(), "{delta:?}");
    assert_eq!(delta.rows_recomputed, 0, "{delta:?}");
    let a = warm.analysis().expect("analysis");
    assert_eq!(a.rows, seeded.rows);
    assert_eq!(a.degradations, seeded.degradations);
    let oracle = cold(&sources);
    assert_eq!(a.rows, oracle.rows, "warm-from-disk must be byte-identical to cold");
    assert_eq!(a.degradations, oracle.degradations);
}

#[test]
fn warm_from_disk_matches_cold_after_edit() {
    let _serial = serial();
    let dir = TestDir::new("persist-edit");
    seed(dir.path(), &files(LEAF_F));

    let edited = files(LEAF_F_EDITED);
    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(warm.load());
    let delta = warm.update(&edited).expect("warm update");
    assert_eq!(delta.summaries_recomputed, vec!["leaf".to_string()], "{delta:?}");
    assert_eq!(delta.summary_cache_hits, 2, "{delta:?}");
    let oracle = cold(&edited);
    let a = warm.analysis().expect("analysis");
    assert_eq!(a.rows, oracle.rows);
    assert_eq!(a.degradations, oracle.degradations);
    // And the refreshed state persists over the old one.
    assert!(warm.persist());
    let mut again = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(again.load());
    let d2 = again.update(&edited).expect("second warm update");
    assert_eq!(d2.summary_cache_misses, 0, "{d2:?}");
    assert_eq!(again.analysis().expect("analysis").rows, oracle.rows);
}

/// `main` calls `a` and `b`. `a.f` declares the COMMON array `x` with
/// `extent` elements; `b.f` names `x` through `common /g/ x` alone, so
/// `b`'s IR takes its shape from another file.
fn common_shape_sources(extent: u32) -> Vec<GenSource> {
    vec![
        GenSource::fortran("main.f", "program main\n  call a\n  call b\nend\n"),
        GenSource::fortran(
            "a.f",
            format!("subroutine a\n  real x({extent})\n  common /g/ x\n  integer i\n  do i = 1, 5\n    x(i) = 1.0\n  end do\nend\n"),
        ),
        GenSource::fortran("b.f", "subroutine b\n  common /g/ x\n  x(2) = 3.0\nend\n"),
    ]
}

#[test]
fn a_reshaped_common_array_saves_fresh_fingerprints() {
    // `b.f` is a parse-cache hit when `a.f` reshapes `x`, yet `b`'s
    // fingerprint hashes `x`'s type: the saved manifest must carry the new
    // fingerprint, or the next load finds `b`'s entry stale.
    let _serial = serial();
    let dir = TestDir::new("persist-reshape");
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    s.update(common_shape_sources(10)).expect("first update");
    assert!(s.persist(), "{:?}", s.cache_incidents());
    let reshaped = common_shape_sources(20);
    s.update(&reshaped).expect("reshaping update");
    assert!(s.persist(), "{:?}", s.cache_incidents());
    assert!(s.cache_incidents().is_empty(), "{:?}", s.cache_incidents());

    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    let c = Collector::new(ClockKind::Logical);
    {
        let _g = obs::attach(c.clone());
        assert!(warm.load());
    }
    assert!(warm.cache_incidents().is_empty(), "{:?}", warm.cache_incidents());
    assert_eq!(c.counter(Counter::StorePrimed), 3, "every procedure primes");
    assert_eq!(c.counter(Counter::StoreRejected), 0);
    let delta = warm.update(&reshaped).expect("update after load");
    assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
    assert_equals_cold(warm.analysis().expect("analysis"), &cold(&reshaped));
}

#[test]
fn warm_from_disk_mini_lu_identical() {
    let _serial = serial();
    let dir = TestDir::new("persist-minilu");
    let sources = workloads::mini_lu::sources();
    seed(dir.path(), &sources);

    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(warm.load());
    let delta = warm.update(&sources).expect("warm update");
    assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
    let oracle = cold(&sources);
    let a = warm.analysis().expect("analysis");
    assert_eq!(a.rows, oracle.rows);
    assert_eq!(a.degradations, oracle.degradations);
}

#[test]
fn sessions_without_cache_dir_are_unaffected() {
    let _serial = serial();
    let mut s = AnalysisSession::new(AnalysisOptions::default());
    assert!(!s.load());
    s.update(&files(LEAF_F)).expect("update");
    assert!(!s.persist());
    assert!(s.store().is_none());
    assert!(s.cache_incidents().is_empty());
}

#[test]
fn empty_cache_dir_loads_cold_without_incident() {
    let _serial = serial();
    let dir = TestDir::new("persist-empty");
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(!s.load(), "nothing to load");
    assert!(s.cache_incidents().is_empty(), "{:?}", s.cache_incidents());
}

#[test]
fn corrupt_entry_is_quarantined_and_recomputed() {
    let _serial = serial();
    let dir = TestDir::new("persist-badentry");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    let entries = entry_paths(dir.path());
    assert_eq!(entries.len(), 3, "one entry per procedure");
    flip_byte(&entries[1], 0);

    let (mut warm, loaded, ipl, _) = load_traced(dir.path());
    assert!(loaded, "partial load still succeeds");
    assert!(
        !warm.cache_incidents().is_empty(),
        "corruption must be reported"
    );
    assert!(
        warm.cache_incidents().iter().any(|d| d.stage == "cache"
            && d.detail.contains("rejected")
            && d.detail.contains("quarantine")),
        "{:?}",
        warm.cache_incidents()
    );
    assert!(!entries[1].exists(), "rejected entry must be moved aside, not left");
    let quarantined: Vec<_> = std::fs::read_dir(dir.path().join("quarantine"))
        .expect("quarantine dir exists")
        .flatten()
        .collect();
    assert_eq!(quarantined.len(), 1, "the evidence is preserved");
    assert_eq!(ipl, [rejected_proc(warm.cache_incidents())], "exactly the corrupt procedure");

    // The load itself is the cold run; the next update recomputes nothing.
    let oracle = cold(&sources);
    assert_equals_cold(warm.analysis().expect("loaded"), &oracle);
    let delta = warm.update(&sources).expect("warm update");
    assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
    assert_equals_cold(warm.analysis().expect("analysis"), &oracle);
}

#[test]
fn corrupt_manifest_quarantines_and_starts_cold() {
    let _serial = serial();
    let dir = TestDir::new("persist-badmanifest");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    let mpath = dir.path().join("manifest.araa");
    flip_byte(&mpath, 3);

    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(!s.load(), "rejected manifest means cold start");
    assert!(!mpath.exists(), "rejected manifest must be moved aside");
    assert!(
        s.cache_incidents().iter().any(|d| d.detail.contains("manifest rejected")),
        "{:?}",
        s.cache_incidents()
    );
    let a = s.update(&sources).expect("cold update still works");
    assert!(a.summary_cache_misses > 0);
    let oracle = cold(&sources);
    assert_eq!(s.analysis().expect("analysis").rows, oracle.rows);
    // Re-persisting over the quarantined wreck works.
    assert!(s.persist());
    let mut again = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(again.load());
}

#[test]
fn truncated_manifest_is_rejected_cleanly() {
    let _serial = serial();
    let dir = TestDir::new("persist-truncmanifest");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    let mpath = dir.path().join("manifest.araa");
    let bytes = std::fs::read(&mpath).expect("readable");
    std::fs::write(&mpath, &bytes[..bytes.len() / 3]).expect("writable");

    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(!s.load());
    assert!(!mpath.exists());
    let oracle = cold(&sources);
    s.update(&sources).expect("cold update");
    assert_eq!(s.analysis().expect("analysis").rows, oracle.rows);
}

#[test]
fn different_options_quarantine_the_manifest() {
    let _serial = serial();
    let dir = TestDir::new("persist-fingerprint");
    seed(dir.path(), &files(LEAF_F));

    let opts = AnalysisOptions::builder().include_propagated(false).build();
    let mut s = AnalysisSession::with_cache_dir(opts, dir.path());
    assert!(!s.load(), "other options' cache must not be reused");
    assert!(
        s.cache_incidents().iter().any(|d| d.detail.contains("fingerprint")),
        "{:?}",
        s.cache_incidents()
    );
}

#[test]
fn stale_lock_is_taken_over() {
    let _serial = serial();
    let dir = TestDir::new("persist-stalelock");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    // A lock left behind by a crashed process (a pid far beyond pid_max).
    std::fs::write(dir.path().join("LOCK"), "4000000000\n").expect("plant stale lock");

    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(s.load(), "stale lock must be broken, not waited on");
    assert!(s.cache_incidents().is_empty(), "{:?}", s.cache_incidents());
    let delta = s.update(&sources).expect("warm update");
    assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
}

#[test]
fn two_sessions_share_a_cache_dir_without_cross_talk() {
    let _serial = serial();
    let dir = TestDir::new("persist-shared");
    let v1 = files(LEAF_F);
    let v2 = files(LEAF_F_EDITED);

    // Session A seeds the cache with v1.
    let mut a = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    a.update(&v1).expect("A update");
    assert!(a.persist());

    // Session B (a different session, same dir) warms from A's state and
    // moves the cache to v2.
    let mut b = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(b.load());
    let db = b.update(&v2).expect("B update");
    assert_eq!(db.summaries_recomputed, vec!["leaf".to_string()], "{db:?}");
    assert!(b.persist());

    // A new session now sees exactly B's state; nothing was quarantined.
    let mut c = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(c.load());
    assert!(c.cache_incidents().is_empty(), "{:?}", c.cache_incidents());
    let dc = c.update(&v2).expect("C update");
    assert_eq!(dc.summary_cache_misses, 0, "{dc:?}");
    assert_eq!(c.analysis().expect("analysis").rows, cold(&v2).rows);
    assert!(!dir.path().join("quarantine").exists(), "no file was ever rejected");
}

#[test]
fn store_stats_verify_and_clear() {
    let _serial = serial();
    let dir = TestDir::new("persist-store-ops");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    let store = SessionStore::new(dir.path(), &AnalysisOptions::default());

    let stats = store.stats().expect("stats");
    assert!(stats.manifest);
    assert_eq!(stats.procedures, 3);
    assert_eq!(stats.sources, 3);
    assert_eq!(stats.entry_files, 3);
    assert!(stats.bytes > 0);
    assert_eq!(stats.quarantined, 0);

    let report = store.verify().expect("verify");
    assert!(report.clean(), "{:?}", report.problems);
    assert_eq!(report.ok, 4, "manifest + 3 entries");
    assert_eq!(report.orphans, 0);

    // Corruption shows up in verify without destroying anything.
    flip_byte(&entry_paths(dir.path())[0], 1);
    let report = store.verify().expect("verify");
    assert!(!report.clean());
    assert_eq!(entry_paths(dir.path()).len(), 3, "verify is read-only");

    let removed = store.clear().expect("clear");
    assert_eq!(removed, 4, "manifest + 3 entries");
    let stats = store.stats().expect("stats");
    assert!(!stats.manifest);
    assert_eq!(stats.entry_files, 0);
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(!s.load(), "cleared cache is a clean cold start");
    assert!(s.cache_incidents().is_empty(), "{:?}", s.cache_incidents());
}

#[test]
fn cache_stats_after_a_quarantining_load_scan_live() {
    let _serial = serial();
    let dir = TestDir::new("persist-stats-quarantine");
    let sources = workloads::mini_lu::sources();
    seed(dir.path(), &sources);
    let store = SessionStore::new(dir.path(), &AnalysisOptions::default());
    let before = store.stats().expect("stats");
    assert_eq!(before.quarantined, 0);
    let victim = &entry_paths(dir.path())[0];
    let victim_len = std::fs::metadata(victim).expect("entry").len();
    flip_byte(victim, 0);

    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(warm.load());
    assert!(
        warm.cache_incidents().iter().any(|d| d.detail.contains("quarantine")),
        "{:?}",
        warm.cache_incidents()
    );
    // The manifest did not change, but the directory did: the stats must
    // not describe the pre-quarantine cache.
    let after = store.stats().expect("stats");
    assert_eq!(after.entry_files, before.entry_files - 1);
    assert_eq!(after.bytes, before.bytes - victim_len);
    assert_eq!(after.quarantined, 1);
}

#[test]
fn gc_drops_entries_the_new_manifest_does_not_reference() {
    let _serial = serial();
    let dir = TestDir::new("persist-gc");
    let v1 = files(LEAF_F);
    let v2 = files(LEAF_F_EDITED);
    seed(dir.path(), &v1);
    let before = entry_paths(dir.path());
    assert_eq!(before.len(), 3);

    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(s.load());
    s.update(&v2).expect("update");
    assert!(s.persist());
    let after = entry_paths(dir.path());
    assert_eq!(after.len(), 3, "old leaf entry collected, new one written");
    assert_ne!(before, after);
    let store = SessionStore::new(dir.path(), &AnalysisOptions::default());
    let report = store.verify().expect("verify");
    assert!(report.clean(), "{:?}", report.problems);
    assert_eq!(report.orphans, 0);
}

#[test]
fn a_deadline_widened_update_is_served_once_never_persisted() {
    let _serial = serial();
    let dir = TestDir::new("persist-deadline");
    seed(dir.path(), &files(LEAF_F));
    let manifest = dir.path().join("manifest.araa");
    let saved = std::fs::read(&manifest).expect("manifest");

    // The edit is analyzed after its deadline: every budgeted phase widens.
    let edited = files(LEAF_F_EDITED);
    let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(s.load());
    {
        let _deadline = deadline::enter(DeadlineToken::after(Duration::ZERO));
        s.update(&edited).expect("an expired deadline degrades, never fails");
    }
    let degradations = &s.analysis().expect("analysis").degradations;
    assert!(degradations.iter().any(|d| d.detail.contains("deadline")), "{degradations:?}");
    assert!(!s.persist(), "a deadline-widened state must not be saved");
    assert_eq!(std::fs::read(&manifest).expect("manifest"), saved, "the previous save stays");

    // The next identical update, without a deadline, recomputes cold.
    s.update(&edited).expect("update without a deadline");
    assert_equals_cold(s.analysis().expect("analysis"), &cold(&edited));
}

#[test]
fn a_budget_widened_cache_round_trips_to_the_cold_run() {
    let _serial = serial();
    let dir = TestDir::new("persist-tiny-budget");
    let opts = AnalysisOptions::builder().budget(BudgetConfig::tiny()).build();
    let sources = workloads::mini_lu::sources();
    let oracle = Analysis::analyze(&sources, opts).expect("cold run");
    assert!(
        oracle.degradations.iter().any(|d| d.proc == "(propagation)"),
        "the tiny budget must widen propagation: {:?}",
        oracle.degradations
    );
    let mut s = AnalysisSession::with_cache_dir(opts, dir.path());
    s.update(&sources).expect("cold");
    assert!(s.persist(), "{:?}", s.cache_incidents());

    let mut warm = AnalysisSession::with_cache_dir(opts, dir.path());
    assert!(warm.load());
    assert!(warm.cache_incidents().is_empty(), "{:?}", warm.cache_incidents());
    let delta = warm.update(&sources).expect("warm update");
    assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
    assert_equals_cold(warm.analysis().expect("analysis"), &oracle);
}

#[test]
fn a_rejected_entry_re_propagates_its_ancestor_chain() {
    let _serial = serial();
    let dir = TestDir::new("persist-partial");
    let sources = files(LEAF_F);
    seed(dir.path(), &sources);
    // `leaf` has the fewest records and rows, so the smallest entry.
    let leaf_entry = entry_paths(dir.path())
        .into_iter()
        .min_by_key(|p| std::fs::metadata(p).expect("entry").len())
        .expect("entries");
    flip_byte(&leaf_entry, 0);

    let (mut warm, loaded, ipl, extracted) = load_traced(dir.path());
    assert!(loaded, "partial load still succeeds");
    assert!(
        warm.cache_incidents().iter().any(|d| d.detail.contains("`leaf` rejected")),
        "{:?}",
        warm.cache_incidents()
    );
    // The load recomputes `leaf` and re-extracts its ancestor chain's rows.
    assert_eq!(ipl, ["leaf"]);
    assert_eq!(extracted, ["leaf", "main", "mid"]);
    let oracle = cold(&sources);
    assert_equals_cold(warm.analysis().expect("loaded"), &oracle);
    let delta = warm.update(&sources).expect("warm update");
    assert!(delta.summaries_recomputed.is_empty(), "{delta:?}");
    assert!(delta.propagation_recomputed.is_empty(), "{delta:?}");
    assert_equals_cold(warm.analysis().expect("analysis"), &oracle);
}

#[test]
fn a_loaded_state_splices() {
    let _serial = serial();
    let dir = TestDir::new("persist-splice");
    let mut seeding = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    seeding.update(files(LEAF_F)).expect("seed update");
    assert!(seeding.persist(), "{:?}", seeding.cache_incidents());
    let edited = files(LEAF_F_EDITED);
    let in_memory = seeding.update(&edited).expect("edit in the seeding session");

    let mut warm = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(warm.load());
    let delta = warm.update(&edited).expect("edit after load");
    assert_equals_cold(warm.analysis().expect("analysis"), &cold(&edited));
    // The load's propagation left the slice lengths an edit splices with.
    assert_eq!(delta.rows_recomputed, in_memory.rows_recomputed, "{delta:?}");
    assert_eq!(delta.rows_reused, in_memory.rows_reused, "{delta:?}");
}

#[test]
fn a_rejected_entry_unsplices_its_ancestors() {
    // `main` calls `leaf`, `other`, `leaf`. With `leaf`'s entry rejected,
    // the load recomputes `leaf`, so `main`'s saved rows are not known to
    // be this propagation's: they are extracted again, while `other`, which
    // reaches no recomputed procedure, keeps the rows of its entry.
    let _serial = serial();
    let dir = TestDir::new("persist-unsplice");
    let shared = "  real a(20)\n  real b(30)\n  common /g/ a, b\n";
    let sources = vec![
        GenSource::fortran(
            "main.f",
            format!("program main\n{shared}  a(20) = 0.0\n  b(30) = a(1)\n  call leaf\n  call other\n  call leaf\nend\n"),
        ),
        GenSource::fortran(
            "leaf.f",
            format!("subroutine leaf\n{shared}  a(1) = 1.0\nend\n"),
        ),
        GenSource::fortran(
            "other.f",
            format!("subroutine other\n{shared}  integer i\n  do i = 1, 30\n    b(i) = a(i - 1) + 2.0\n  end do\nend\n"),
        ),
    ];
    seed(dir.path(), &sources);
    // `leaf` has the fewest records and rows, so the smallest entry.
    let leaf_entry = entry_paths(dir.path())
        .into_iter()
        .min_by_key(|p| std::fs::metadata(p).expect("entry").len())
        .expect("entries");
    flip_byte(&leaf_entry, 0);

    let (mut warm, loaded, ipl, extracted) = load_traced(dir.path());
    assert!(loaded, "partial load still succeeds");
    assert!(
        warm.cache_incidents().iter().any(|d| d.detail.contains("`leaf` rejected")),
        "{:?}",
        warm.cache_incidents()
    );
    assert_eq!(ipl, ["leaf"]);
    assert_eq!(extracted, ["leaf", "main"]);
    let oracle = cold(&sources);
    assert_equals_cold(warm.analysis().expect("loaded"), &oracle);
    let delta = warm.update(&sources).expect("warm update");
    assert_eq!(delta.rows_recomputed, 0, "{delta:?}");
    assert_equals_cold(warm.analysis().expect("analysis"), &oracle);
}

// ---------------------------------------------------------------------------
// Fault injection (crash consistency). These arm the process-global
// faultpoint registry, so they serialize on a mutex.
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod crashes {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use support::faultpoint;
    use support::persist::{READ_FAULTPOINTS, WRITE_FAULTPOINTS};

    /// Every faultpoint a save can crash at: the four inside
    /// `atomic_write` plus the four in `SessionStore`'s commit protocol.
    const SAVE_FAULTPOINTS: &[&str] = &[
        "persist::torn_write",
        "persist::pre_sync",
        "persist::pre_rename",
        "persist::post_rename",
        "persist::entry_write",
        "persist::pre_manifest",
        "persist::post_manifest",
        "persist::gc",
    ];

    /// The program with only the caller `main` edited: `mid` and `leaf`
    /// keep their entries.
    fn caller_edited() -> Vec<GenSource> {
        let mut v = files(LEAF_F);
        v[0] = GenSource::fortran("main.f", MAIN_F.replace("do i = 1, 10", "do i = 1, 9"));
        v
    }

    #[test]
    fn save_faultpoint_list_matches_the_registered_ones() {
        for fp in WRITE_FAULTPOINTS {
            assert!(SAVE_FAULTPOINTS.contains(fp), "untested write faultpoint {fp}");
        }
    }

    /// Loads the cache in `dir`, updates to `v2` and kills the save at
    /// `point` (the `nth` hit). Returns the session whose save crashed.
    fn crash_save(
        dir: &std::path::Path,
        point: &str,
        nth: u64,
        v2: &[GenSource],
    ) -> AnalysisSession {
        let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
        s.load();
        s.update(v2).expect("update");
        faultpoint::arm(point, nth);
        let crashed = catch_unwind(AssertUnwindSafe(|| s.persist()));
        faultpoint::disarm_all();
        assert!(crashed.is_err(), "{point}:{nth} must fire during persist");
        s
    }

    /// Kills a save at `point` (the `nth` hit) and asserts the cache is
    /// afterwards *fully old or fully new*: a fresh session loads without
    /// quarantining anything and reproduces the cold analysis of whichever
    /// source set survives.
    fn crash_save_then_recover(dir: &std::path::Path, point: &str, nth: u64, v2: &[GenSource]) {
        drop(crash_save(dir, point, nth, v2));

        // Nothing on disk may be corrupt: old-or-new, never torn.
        let store = SessionStore::new(dir, &AnalysisOptions::default());
        let report = store.verify().expect("verify");
        let torn: Vec<_> = report
            .problems
            .iter()
            .filter(|p| !p.contains("no manifest"))
            .collect();
        assert!(torn.is_empty(), "{point}:{nth} left a torn cache: {torn:?}");

        let mut r = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
        r.load();
        assert!(
            !r.cache_incidents().iter().any(|d| d.detail.contains("quarantine")),
            "{point}:{nth} forced a quarantine: {:?}",
            r.cache_incidents()
        );
        let oracle = cold(v2);
        r.update(v2).expect("recovery update");
        assert_eq!(
            r.analysis().expect("analysis").rows,
            oracle.rows,
            "{point}:{nth} corrupted the recovered analysis"
        );
        // The wreck fully recovers: the next persist leaves a clean cache.
        assert!(r.persist(), "{:?}", r.cache_incidents());
        let report = store.verify().expect("verify");
        assert!(report.clean(), "{point}:{nth}: {:?}", report.problems);
    }

    /// Kills a save at `point`, then saves again from the same session:
    /// the retry must leave a complete cache (clean, no orphans) from which
    /// a fresh session primes every procedure.
    fn crash_save_then_persist_again(dir: &std::path::Path, point: &str, v2: &[GenSource]) {
        let mut s = crash_save(dir, point, 1, v2);
        assert!(s.persist(), "{point}: retry failed: {:?}", s.cache_incidents());
        let store = SessionStore::new(dir, &AnalysisOptions::default());
        let report = store.verify().expect("verify");
        assert!(report.clean(), "{point}: {:?}", report.problems);
        assert_eq!(report.orphans, 0, "{point}: the retry's GC left orphans");
        let mut r = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir);
        assert!(r.load());
        assert!(r.cache_incidents().is_empty(), "{point}: {:?}", r.cache_incidents());
        let delta = r.update(v2).expect("warm update");
        assert_eq!(delta.summary_cache_misses, 0, "{point}: {delta:?}");
        assert_eq!(r.analysis().expect("analysis").rows, cold(v2).rows, "{point}");
    }

    #[test]
    fn crash_at_every_write_faultpoint_leaves_old_or_new_cache() {
        let _serial = serial();
        let leaf_edit = files(LEAF_F_EDITED);
        for point in SAVE_FAULTPOINTS {
            // First hit, over a seeded (old) cache.
            let dir = TestDir::new("crash-seeded");
            seed(dir.path(), &files(LEAF_F));
            crash_save_then_recover(dir.path(), point, 1, &leaf_edit);

            // First hit, into an empty cache dir (no old state to fall
            // back to: recovery must be a clean cold start).
            let dir = TestDir::new("crash-cold");
            crash_save_then_recover(dir.path(), point, 1, &leaf_edit);

            // A later hit, so earlier stages complete first (e.g. the
            // manifest's write, not an entry's). Only meaningful for
            // points that fire more than once per save — the manifest
            // stages fire exactly once.
            if !point.contains("manifest") && *point != "persist::gc" {
                let dir = TestDir::new("crash-later");
                seed(dir.path(), &files(LEAF_F));
                crash_save_then_recover(dir.path(), point, 2, &leaf_edit);
            }

            // A caller-only edit: the loaded entries of `mid` and `leaf`
            // are carried by address, so the crash hits a steady-state
            // save that encodes only `main`.
            let dir = TestDir::new("crash-carried");
            seed(dir.path(), &files(LEAF_F));
            crash_save_then_recover(dir.path(), point, 1, &caller_edited());

            // The same session saves again after its save crashed.
            let dir = TestDir::new("crash-retry");
            seed(dir.path(), &files(LEAF_F));
            crash_save_then_persist_again(dir.path(), point, &caller_edited());
        }
    }

    #[test]
    fn a_failed_propagation_is_persisted_as_held_in_memory() {
        let _serial = serial();
        let dir = TestDir::new("persist-prop-panic");
        // `side` calls `tip`, so its propagated summary differs from its
        // local one, and a leaf edit leaves both unaffected.
        let main = MAIN_F.replace("call mid", "call mid\n  call side");
        let side = "subroutine side\n  real a(20)\n  common /g/ a\n  call tip\nend\n";
        let tip = "subroutine tip\n  real a(20)\n  common /g/ a\n  a(1) = 3.0\nend\n";
        let with_leaf = |leaf: &str| {
            let mut v = files(leaf);
            v[0] = GenSource::fortran("main.f", main.as_str());
            v.push(GenSource::fortran("side.f", side));
            v.push(GenSource::fortran("tip.f", tip));
            v
        };
        let mut s = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
        s.update(with_leaf(LEAF_F)).expect("cold");
        assert!(s.persist());

        // The propagation the leaf edit triggers panics, so every summary
        // falls back to its local one, `side`'s included.
        faultpoint::arm("ipa::translate", 1);
        let updated = s.update(with_leaf(LEAF_F_EDITED));
        faultpoint::disarm_all();
        updated.expect("a propagation panic degrades, never fails");
        let degradations = &s.analysis().expect("analysis").degradations;
        assert!(degradations.iter().any(|d| d.proc == "(propagation)"), "{degradations:?}");
        assert!(s.persist(), "{:?}", s.cache_incidents());

        // The cache holds the edited program's entries, not the ones saved
        // before, so every procedure primes. The degradation does not
        // outlive itself: the load re-propagates from the cached local
        // summaries, re-extracts every row, and equals a cold run.
        let c = Collector::new(ClockKind::Logical);
        let mut r = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
        {
            let _g = obs::attach(c.clone());
            assert!(r.load());
        }
        assert_eq!(c.counter(Counter::StoreRejected), 0, "{:?}", r.cache_incidents());
        let sources = with_leaf(LEAF_F_EDITED);
        let oracle = cold(&sources);
        assert_equals_cold(r.analysis().expect("loaded"), &oracle);
        let delta = r.update(&sources).expect("update after the load");
        assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
        assert_equals_cold(r.analysis().expect("analysis"), &oracle);
    }

    #[test]
    fn a_propagation_panic_during_load_is_healed_by_the_next_update() {
        let _serial = serial();
        let dir = TestDir::new("persist-load-panic");
        let sources = files(LEAF_F);
        seed(dir.path(), &sources);

        // The load's own propagation panics: it holds the local summaries
        // and leaves the re-propagation to the next update.
        let mut r = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
        faultpoint::arm("ipa::translate", 1);
        let loaded = r.load();
        faultpoint::disarm_all();
        assert!(loaded, "a propagation panic never sinks the load");
        assert!(r.cache_incidents().is_empty(), "{:?}", r.cache_incidents());
        let delta = r.update(&sources).expect("update after the load");
        assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
        assert_equals_cold(r.analysis().expect("analysis"), &cold(&sources));
    }

    #[test]
    fn a_load_reports_its_own_failed_propagation() {
        let _serial = serial();
        let dir = TestDir::new("persist-load-reports");
        let sources = workloads::mini_lu::sources();
        seed(dir.path(), &sources);

        let mut r = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
        faultpoint::arm("ipa::translate", 1);
        let loaded = r.load();
        faultpoint::disarm_all();
        assert!(loaded, "a propagation panic never sinks the load");
        let is_panic = |d: &araa::Degradation| d.proc == "(propagation)" && d.stage == "ipa";
        let degradations = &r.analysis().expect("loaded").degradations;
        assert!(degradations.iter().any(is_panic), "{degradations:?}");

        // Saved as loaded, the panic does not survive into the next
        // session: its load primes every procedure, propagates afresh and
        // equals a cold run.
        assert!(r.persist(), "{:?}", r.cache_incidents());
        let c = Collector::new(ClockKind::Logical);
        let mut again = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
        {
            let _g = obs::attach(c.clone());
            assert!(again.load());
        }
        assert_eq!(c.counter(Counter::StoreRejected), 0, "{:?}", again.cache_incidents());
        let oracle = cold(&sources);
        assert_equals_cold(again.analysis().expect("loaded"), &oracle);

        // Either session's next update equals a cold run.
        for s in [&mut r, &mut again] {
            let delta = s.update(&sources).expect("update after the load");
            assert_eq!(delta.summary_cache_misses, 0, "{delta:?}");
            assert_equals_cold(s.analysis().expect("analysis"), &oracle);
        }
    }

    #[test]
    fn short_read_and_bit_flip_quarantine_and_recompute() {
        let _serial = serial();
        for &point in READ_FAULTPOINTS {
            // Fault the manifest read: cold start, nothing breaks.
            let sources = files(LEAF_F);
            let oracle = cold(&sources);
            let dir = TestDir::new("readfault-manifest");
            seed(dir.path(), &sources);
            faultpoint::arm(point, 1);
            let mut s =
                AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
            let loaded = s.load();
            faultpoint::disarm_all();
            assert!(!loaded, "{point}: mangled manifest must not load");
            assert!(!s.cache_incidents().is_empty(), "{point}");
            s.update(&sources).expect("cold update");
            assert_eq!(s.analysis().expect("analysis").rows, oracle.rows, "{point}");

            // Fault an entry read: the load recomputes that procedure and
            // primes the rest.
            let dir = TestDir::new("readfault-entry");
            seed(dir.path(), &sources);
            faultpoint::arm(point, 2);
            let (mut s, loaded, ipl, _) = load_traced(dir.path());
            faultpoint::disarm_all();
            assert!(loaded, "{point}: one bad entry must not sink the load");
            assert!(
                s.cache_incidents().iter().any(|d| d.detail.contains("recomputing")),
                "{point}: {:?}",
                s.cache_incidents()
            );
            assert_eq!(ipl, [rejected_proc(s.cache_incidents())], "{point}");
            assert_equals_cold(s.analysis().expect("loaded"), &oracle);
            let delta = s.update(&sources).expect("warm update");
            assert_eq!(delta.summary_cache_misses, 0, "{point}: {delta:?}");
            assert_eq!(s.analysis().expect("analysis").rows, oracle.rows, "{point}");
        }
    }
}
