//! Lint through a carried [`LintCache`] against a cold lint of a cold
//! analysis, over scripted session edits: after every step the findings,
//! the `suppressed` count and the degradations are equal, and every
//! procedure counts once, relinted, reused or degraded.

use araa::{Analysis, AnalysisOptions, AnalysisSession};
use lint::{LintCache, LintOptions, LintReport, Rule};
use support::testdir::TestDir;
use workloads::GenSource;

/// A session and the lint cache carried next to it.
struct Editor {
    session: AnalysisSession,
    cache: LintCache,
}

impl Editor {
    fn new(session: AnalysisSession) -> Self {
        Editor {
            session,
            cache: LintCache::empty(),
        }
    }

    /// Updates to `sources` and lints through the cache; the report must
    /// equal a cold lint of a cold analysis.
    fn step(&mut self, sources: &[GenSource], at: &str) -> LintReport {
        self.session
            .update(sources)
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        self.lint(sources, at)
    }

    fn lint(&mut self, sources: &[GenSource], at: &str) -> LintReport {
        let warm = self.session.analysis().expect("analysis");
        let cold = Analysis::analyze(sources, AnalysisOptions::default()).expect("cold run");
        assert_same_lint(warm, &mut self.cache, &cold, at)
    }
}

/// Lints `warm` through `cache`, checks it against a cold lint of `cold`
/// and returns the cached report.
fn assert_same_lint(
    warm: &Analysis,
    cache: &mut LintCache,
    cold: &Analysis,
    at: &str,
) -> LintReport {
    let opts = LintOptions::default();
    let report = lint::run_with_cache(warm, &opts, cache);
    let oracle = lint::run(cold, &opts);
    assert_eq!(report.findings, oracle.findings, "{at}: findings");
    assert_eq!(report.suppressed, oracle.suppressed, "{at}: suppressed");
    assert_eq!(
        report.degradations, oracle.degradations,
        "{at}: degradations"
    );
    let procs = warm.program.procedure_count();
    assert_eq!(
        report.procs_linted + report.procs_cached + report.degradations.len(),
        procs,
        "{at}: every procedure counts once"
    );
    report
}

/// `main` calls `mid`, which calls `leaf`; `other` is called by `main`
/// alone. `leaf` writes `g(hi)` of the 20-element COMMON array `g`, so an
/// `hi` past 20 is an out-of-bounds store that `mid` and `main` report
/// too, each through its own callee.
fn chain(hi: u32) -> Vec<GenSource> {
    let g = "  real g(20)\n  common /cg/ g\n";
    vec![
        GenSource::fortran("main.f", format!("program main\n{g}  g(1) = 0.0\n  call mid\n  call other\nend\n")),
        GenSource::fortran("mid.f", format!("subroutine mid\n{g}  g(2) = 1.0\n  call leaf\nend\n")),
        GenSource::fortran("leaf.f", format!("subroutine leaf\n{g}  g({hi}) = 2.0\nend\n")),
        GenSource::fortran(
            "other.f",
            "subroutine other\n  real t(5)\n  integer i\n  do i = 1, 6\n    t(i) = 1.0\n  end do\nend\n",
        ),
    ]
}

#[test]
fn a_defect_two_calls_down_reaches_main_through_the_cache() {
    let mut ed = Editor::new(AnalysisSession::new(AnalysisOptions::default()));
    let cold = ed.step(&chain(3), "cold start");
    assert_eq!(cold.procs_cached, 0, "a cold start has nothing to reuse");
    // `main` hears of the store through `mid`, whose summary it reads: the
    // propagation that rewrites `mid`'s and `main`'s summaries must give
    // both new revisions, or `main` would keep its clean findings.
    let broken = ed.step(&chain(25), "defect in leaf");
    let via: Vec<&str> = broken
        .findings
        .iter()
        .filter(|f| f.message.contains("via call to"))
        .map(|f| f.proc.as_str())
        .collect();
    assert!(
        via.contains(&"MAIN__") && via.contains(&"mid"),
        "{}",
        broken.render()
    );
    assert_eq!(broken.procs_cached, 1, "`other` alone is unchanged");
    let fixed = ed.step(&chain(3), "defect removed");
    assert!(
        fixed.findings.iter().all(|f| f.proc == "other"),
        "{}",
        fixed.render()
    );
    ed.step(&chain(3), "same sources");
}

#[test]
fn a_renamed_file_relints_with_its_new_name() {
    let mut ed = Editor::new(AnalysisSession::new(AnalysisOptions::default()));
    let sources = chain(25);
    ed.step(&sources, "cold start");
    let mut renamed = sources.clone();
    renamed[2].name = "leaf.F".to_string();
    let report = ed.step(&renamed, "leaf.f renamed to leaf.F");
    assert!(
        report.findings.iter().any(|f| f.file == "leaf.F"),
        "{}",
        report.render()
    );
}

#[test]
fn a_reshaped_common_array_relints_its_readers() {
    // `owner` declares `r`; `reader` names it through `common` alone and
    // reads `r(30)`, out of bounds until `r` grows.
    let sources = |extent: u32| {
        vec![
            GenSource::fortran("main.f", "program main\n  call owner\n  call reader\nend\n"),
            GenSource::fortran(
                "owner.f",
                format!("subroutine owner\n  real r({extent})\n  common /cr/ r\n  r(1) = 0.0\nend\n"),
            ),
            GenSource::fortran(
                "reader.f",
                "subroutine reader\n  common /cr/ r\n  real s(5)\n  common /cs/ s\n  s(1) = r(30)\nend\n",
            ),
        ]
    };
    let mut ed = Editor::new(AnalysisSession::new(AnalysisOptions::default()));
    let oob_on_r = |r: &LintReport| {
        r.findings
            .iter()
            .any(|f| f.rule == Rule::Oob01 && f.array == "r")
    };
    let small = ed.step(&sources(20), "cold start");
    assert!(oob_on_r(&small), "{}", small.render());
    let grown = ed.step(&sources(40), "r reshaped");
    assert!(!oob_on_r(&grown), "{}", grown.render());
    ed.step(&sources(20), "r reshaped back");
}

#[test]
fn deleting_and_inserting_procedures_shifts_ids_without_stale_reuse() {
    let mut ed = Editor::new(AnalysisSession::new(AnalysisOptions::default()));
    let base = chain(25);
    ed.step(&base, "cold start");
    // `other` and its call go: every later procedure keeps its name.
    let mut deleted = base.clone();
    deleted.pop();
    deleted[0].text = deleted[0].text.replace("  call other\n", "");
    ed.step(&deleted, "other deleted");
    // A defective procedure inserted ahead of the others shifts every
    // `ProcId` after it.
    let mut inserted = deleted.clone();
    inserted.insert(
        0,
        GenSource::fortran(
            "first.f",
            "subroutine first\n  real q(3)\n  q(4) = 1.0\nend\n",
        ),
    );
    inserted[1].text = inserted[1]
        .text
        .replace("  call mid\n", "  call first\n  call mid\n");
    let report = ed.step(&inserted, "first inserted ahead");
    assert!(
        report.findings.iter().any(|f| f.proc == "first"),
        "{}",
        report.render()
    );
    ed.step(&base, "back to the start");
}

#[test]
fn a_reloaded_session_relints_everything_once() {
    let dir = TestDir::new("lint-incremental-reload");
    let sources = chain(25);
    let mut ed = Editor::new(AnalysisSession::with_cache_dir(
        AnalysisOptions::default(),
        dir.path(),
    ));
    ed.step(&sources, "cold start");
    assert!(ed.session.persist(), "{:?}", ed.session.cache_incidents());
    // A fresh session loaded from disk: revisions are never persisted, so
    // the carried cache holds nothing the loaded summaries match.
    let mut fresh = AnalysisSession::with_cache_dir(AnalysisOptions::default(), dir.path());
    assert!(fresh.load(), "{:?}", fresh.cache_incidents());
    ed.session = fresh;
    let reloaded = ed.step(&sources, "reloaded");
    assert_eq!(reloaded.procs_cached, 0, "{}", reloaded.render());
    let again = ed.step(&sources, "same sources after the reload");
    assert_eq!(again.procs_linted, 0, "{}", again.render());
}

#[test]
fn a_callee_with_a_new_revision_relints_its_callers() {
    // `main` passes the 10-element `v` to `fill`, which writes 12 elements
    // through its formal: SHP-04 fires at the call, read from `fill`'s
    // summary. Emptying that summary under a new revision must relint
    // `main` even though `main`'s own revision is unchanged.
    let src = "\
program main
  real v(10)
  call fill(v)
  call idle
end
subroutine fill(x)
  real x(12)
  integer i
  do i = 1, 12
    x(i) = 0.0
  end do
end
subroutine idle
end
";
    let mut a = Analysis::analyze(
        &[GenSource::fortran("shp.f", src)],
        AnalysisOptions::default(),
    )
    .expect("analysis");
    let mut cache = LintCache::empty();
    let first = lint::run_with_cache(&a, &LintOptions::default(), &mut cache);
    assert!(
        first.findings.iter().any(|f| f.rule == Rule::Shp04),
        "{}",
        first.render()
    );
    let fill = a.program.find_procedure("fill").expect("fill");
    let summary = &mut a.ipa.summaries[support::idx::Idx::as_usize(fill)];
    summary.accesses.clear();
    summary.remint();
    let report = lint::run_with_cache(&a, &LintOptions::default(), &mut cache);
    assert!(
        report.findings.iter().all(|f| f.rule != Rule::Shp04),
        "{}",
        report.render()
    );
    assert_eq!(
        (report.procs_linted, report.procs_cached),
        (2, 1),
        "`main` and `fill` relint"
    );
    assert_eq!(
        report.findings,
        lint::run(&a, &LintOptions::default()).findings
    );
}
