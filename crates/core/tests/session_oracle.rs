//! Oracle test for the incremental [`AnalysisSession`]: after every
//! scripted edit the warm session must produce artifacts byte-identical to
//! a cold run over the same sources, while recomputing summaries only for
//! the edited procedures and re-propagating only within their call-graph
//! ancestor chains.

use araa::{Analysis, AnalysisOptions, AnalysisSession};
use support::budget::BudgetConfig;
use support::idx::Idx;
use workloads::GenSource;

fn edit(sources: &mut [GenSource], file: &str, from: &str, to: &str) {
    let s = sources.iter_mut().find(|s| s.name == file).expect("file exists");
    assert!(s.text.contains(from), "{file} must contain {from:?}");
    s.text = s.text.replace(from, to);
}

fn cold(sources: &[GenSource]) -> Analysis {
    Analysis::analyze(sources, AnalysisOptions::default()).expect("cold run")
}

/// Names of `procs` plus every transitive caller, per `a`'s call graph.
fn ancestor_names(a: &Analysis, procs: &[&str]) -> Vec<String> {
    let seeds: Vec<_> = procs
        .iter()
        .map(|p| a.program.find_procedure(p).expect("edited procedure exists"))
        .collect();
    let mask = a.callgraph.ancestor_closure(seeds);
    a.program
        .procedures
        .iter_enumerated()
        .filter(|(id, _)| mask[id.as_usize()])
        .map(|(_, p)| a.program.name_of(p.name).to_string())
        .collect()
}

#[test]
fn scripted_edits_match_cold_runs_and_bound_the_recompute_set() {
    let mut sources = workloads::mini_lu::sources();
    let n_files = sources.len();
    let mut session = AnalysisSession::new(AnalysisOptions::default());

    let first = session.update(sources.clone()).expect("cold update");
    assert_eq!(first.summary_cache_hits, 0, "nothing to hit on a cold start");
    assert!(first.summary_cache_misses > 0);
    {
        let warm = session.analysis().expect("session keeps its analysis");
        let oracle = cold(&sources);
        assert_eq!(warm.rows, oracle.rows, "cold-start session must equal a cold run");
    }

    // Each step edits exactly one procedure's body: a deep leaf of the ssor
    // iteration (blts), the Case-2 host (rhs), a mid-chain callee (jacld),
    // and finally a revert of the first edit (whose original summary was
    // evicted, so it must recompute — not resurrect stale state).
    let script = [
        ("blts.f", "blts", "do i = 2, 32", "do i = 2, 30"),
        ("rhs.f", "rhs", "do k = 1, 10", "do k = 1, 8"),
        ("jacld.f", "jacld", "d(i, j, 2, 2) = u(i, j, k, 2)", "d(i, j, 2, 2) = u(i, j, k, 5)"),
        ("blts.f", "blts", "do i = 2, 30", "do i = 2, 32"),
    ];
    for (file, proc, from, to) in script {
        edit(&mut sources, file, from, to);
        let delta = session.update(sources.clone()).expect("warm update");
        let oracle = cold(&sources);
        let warm = session.analysis().expect("session keeps its analysis");

        // The oracle property: a warm update is indistinguishable from a
        // cold run in every exported artifact.
        assert_eq!(warm.rows, oracle.rows, "rows diverge after editing {file}");
        let rgn = oracle.rgn_document();
        assert_eq!(warm.rgn_document(), rgn, "{file}: .rgn diverges");
        for read in 1..=2 {
            let memo = session.rgn_document();
            assert_eq!(memo, Some(rgn.as_str()), "{file}: session .rgn, read {read}");
        }
        assert_eq!(warm.dgn_document(), oracle.dgn_document(), "{file}: .dgn diverges");
        assert_eq!(warm.cfg_document(), oracle.cfg_document(), "{file}: .cfg diverges");
        assert!(warm.degradations.is_empty(), "{:?}", warm.degradations);

        // Only the edited procedure's summary recomputes; everything else
        // is a verified cache hit.
        assert_eq!(
            delta.summaries_recomputed,
            vec![proc.to_string()],
            "editing {file} must dirty exactly `{proc}`"
        );
        assert_eq!(delta.summary_cache_hits, workloads::mini_lu::PROC_NAMES.len() - 1);
        assert_eq!(delta.summary_cache_misses, 1);

        // Propagation re-runs only inside the edited proc's ancestor chain.
        let allowed = ancestor_names(warm, &[proc]);
        assert!(!delta.propagation_recomputed.is_empty());
        for p in &delta.propagation_recomputed {
            assert!(
                allowed.contains(p),
                "`{p}` re-propagated but is not `{proc}` or one of its callers ({allowed:?})"
            );
        }

        // Only the edited file re-parses; row extraction reuses the rest.
        assert_eq!(delta.files_reparsed, 1, "{file} alone changed");
        assert_eq!(delta.files_cached, n_files - 1);
        assert!(delta.rows_reused > 0, "untouched procedures' rows are reused");
    }
}

#[test]
fn update_with_new_procedure_recomputes_its_callers_only() {
    let mut sources = workloads::mini_lu::sources();
    let mut session = AnalysisSession::new(AnalysisOptions::default());
    session.update(sources.clone()).expect("cold update");

    // Grow `pintgr` a callee it never had; the new procedure has no cached
    // summary and `pintgr` itself changes, but the ssor chain is untouched.
    edit(
        &mut sources,
        "pintgr.f",
        "end subroutine pintgr",
        "  call pextra\nend subroutine pintgr",
    );
    sources.push(GenSource::fortran(
        "pextra.f",
        "subroutine pextra\n  double precision w(8)\n  common /cpex/ w\n  w(1) = 0.0\nend subroutine pextra\n",
    ));
    let delta = session.update(sources.clone()).expect("warm update");
    let warm = session.analysis().expect("analysis");
    let oracle = cold(&sources);
    assert_eq!(warm.rows, oracle.rows);

    let mut recomputed = delta.summaries_recomputed.clone();
    recomputed.sort();
    assert_eq!(recomputed, ["pextra", "pintgr"]);
    assert!(!delta.propagation_recomputed.contains(&"ssor".to_string()));
    assert!(!delta.propagation_recomputed.contains(&"rhs".to_string()));
}

/// `main` calls `leaf`, `other`, then `leaf` again, each from its own file.
fn two_site_sources(leaf_hi: u32) -> Vec<GenSource> {
    let shared = "  real a(20)\n  real b(30)\n  common /g/ a, b\n";
    vec![
        GenSource::fortran(
            "main.f",
            format!("program main\n{shared}  a(20) = 0.0\n  call leaf\n  call other\n  call leaf\nend\n"),
        ),
        GenSource::fortran(
            "leaf.f",
            format!("subroutine leaf\n{shared}  integer i\n  do i = 1, {leaf_hi}\n    a(i) = 1.0\n  end do\nend\n"),
        ),
        GenSource::fortran(
            "other.f",
            format!("subroutine other\n{shared}  integer i\n  do i = 1, 30\n    b(i) = 2.0\n  end do\nend\n"),
        ),
    ]
}

#[test]
fn a_callee_called_at_two_sites_recomputes_only_its_slices() {
    // With propagated rows, the edit recomputes `leaf`'s own row and its
    // two slices in `main`, whose rows total `refs` over both sites;
    // without them, `leaf`'s row alone.
    for (include_propagated, recomputed) in [(true, 3), (false, 1)] {
        let opts = AnalysisOptions::builder().include_propagated(include_propagated).build();
        let mut session = AnalysisSession::new(opts);
        session.update(two_site_sources(10)).expect("cold update");
        let edited = two_site_sources(8);
        let delta = session.update(edited.clone()).expect("warm update");
        let warm = session.analysis().expect("analysis");
        let oracle = Analysis::analyze(&edited, opts).expect("cold run");
        assert_eq!(warm.rows, oracle.rows, "propagated rows {include_propagated}");
        assert_eq!(warm.rgn_document(), oracle.rgn_document());
        assert_eq!(warm.dgn_document(), oracle.dgn_document());
        assert_eq!(warm.cfg_document(), oracle.cfg_document());
        assert_eq!(delta.rows_recomputed, recomputed, "{delta:?}");
        assert_eq!(delta.rows_reused + delta.rows_recomputed, warm.rows.len(), "{delta:?}");
    }
}

/// `n` blank lines.
fn pad(n: usize) -> String {
    "\n".repeat(n)
}

/// `main` calls `a`, `b` and `c`, one file each, all over COMMON `g`.
/// Recovery attributes a semantic error to the procedure whose header
/// line is closest at or before the error's line in the file that holds
/// it. The headers sit on distinct lines, `main` and `c` on 1, `a` on 10,
/// `b` on 20, so an error attributed across files would show.
fn recovery_base() -> Vec<GenSource> {
    let g = "  real g(20)\n  common /cg/ g\n";
    vec![
        GenSource::fortran(
            "main.f",
            format!("program main\n{g}  g(1) = 0.0\n  call a\n  call b\n  call c\nend\n"),
        ),
        GenSource::fortran(
            "a.f",
            format!("{}subroutine a\n{g}  integer i\n  do i = 1, 20\n    g(i) = 1.0\n  end do\nend\n", pad(9)),
        ),
        GenSource::fortran("b.f", format!("{}subroutine b\n{g}  g(2) = 2.0\nend\n", pad(19))),
        GenSource::fortran("c.f", format!("subroutine c\n{g}  g(3) = 3.0\nend\n")),
    ]
}

/// Asserts the session equals a cold run in rows, documents,
/// degradations and assembled program.
fn assert_session_matches_cold(session: &AnalysisSession, sources: &[GenSource], at: &str) {
    assert_session_matches(session, &cold(sources), at);
}

/// Asserts the session equals `oracle`, a cold run of its sources, in
/// rows, documents, degradations and assembled program. The session's own
/// `.rgn` is read twice, so the second read comes from its memo.
fn assert_session_matches(session: &AnalysisSession, oracle: &Analysis, at: &str) {
    let warm = session.analysis().expect("analysis");
    assert_eq!(warm.rows, oracle.rows, "{at}: rows");
    let rgn = oracle.rgn_document();
    assert_eq!(warm.rgn_document(), rgn, "{at}: .rgn");
    for read in 1..=2 {
        let memo = session.rgn_document();
        assert_eq!(memo, Some(rgn.as_str()), "{at}: session .rgn, read {read}");
    }
    assert_eq!(warm.dgn_document(), oracle.dgn_document(), "{at}: .dgn");
    assert_eq!(warm.cfg_document(), oracle.cfg_document(), "{at}: .cfg");
    assert_eq!(warm.degradations, oracle.degradations, "{at}: degradations");
    assert!(warm.program == oracle.program, "{at}: program differs from a cold assembly");
}

#[test]
fn recovery_rewrites_are_lowered_and_match_cold_runs() {
    // Each edit makes recovery rewrite the module of a file whose text did
    // not change: that unit must be lowered, not reused, both when the
    // rewrite appears and when the edit is undone.
    enum Edit {
        Text(&'static str, &'static str, &'static str),
        AddFile(&'static str, String),
    }
    let script = [
        // `main` calls `c`, which is renamed away: `main.f` gets a stub.
        (Edit::Text("c.f", "subroutine c\n", "subroutine cc\n"), "main.f", "empty stub"),
        // `main.f` reshapes `g`: `a.f`'s declaration of it now conflicts,
        // which empties `a`.
        (Edit::Text("main.f", "  real g(20)\n", "  real g(4, 5)\n"), "a.f", "procedure emptied"),
        // A second `a`, in a file ahead of `a.f` and at the very position
        // of `a.f`'s: recovery drops the later definition, `a.f`'s.
        (Edit::AddFile("d.f", format!("{}subroutine a\n  return\nend\n", pad(9))), "a.f", "duplicate definition"),
        // `c.f` redeclares `g` with another shape.
        (Edit::Text("c.f", "  real g(20)\n", "  real g(30)\n"), "c.f", "conflicting redeclaration"),
    ];
    let base = recovery_base();
    let mut session = AnalysisSession::new(AnalysisOptions::default());
    session.update(&base).expect("cold update");
    assert_session_matches_cold(&session, &base, "clean start");
    for (change, rewritten, what) in script {
        let mut broken = base.clone();
        match change {
            Edit::Text(file, from, to) => edit(&mut broken, file, from, to),
            Edit::AddFile(name, text) => broken.insert(0, GenSource::fortran(name, text)),
        }
        let degraded = &cold(&broken).degradations;
        assert!(degraded.iter().any(|d| d.detail.contains(what)), "{what}: {degraded:?}");
        for (sources, at) in [(&broken, what.to_string()), (&base, format!("{what} undone"))] {
            let delta = session.update(sources).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_session_matches_cold(&session, sources, &at);
            let file = sources.iter().position(|s| s.name == rewritten).expect("rewritten file");
            assert!(!delta.units_reused[file], "{at}: the rewritten {rewritten} must be lowered");
            assert_eq!(delta.units_reused.len(), sources.len(), "{at}");
        }
    }
    // Nothing is rewritten any more: an edit lowers the edited file alone.
    let mut edited = base.clone();
    edit(&mut edited, "c.f", "g(3) = 3.0", "g(4) = 3.0");
    let delta = session.update(&edited).expect("one-line edit");
    assert_eq!(delta.units_reused, [true, true, true, false], "{delta:?}");
    assert_session_matches_cold(&session, &edited, "one-line edit");
}

#[test]
fn a_renamed_local_relowers_every_later_file() {
    // `b` names a local `foo` that `a.f` interned first. Renaming `a`'s
    // local keeps every table's length, so `b.f`'s run still starts where
    // it did, but `foo` is no longer ahead of it: `b.f` must be lowered
    // again, minting `foo` itself.
    let sources = |local: &str| {
        vec![
            GenSource::fortran("main.f", "program main\n  call a\n  call b\nend\n"),
            GenSource::fortran(
                "a.f",
                format!("subroutine a\n  real {local}(5)\n  {local}(1) = 1.0\nend\n"),
            ),
            GenSource::fortran("b.f", "subroutine b\n  real foo(5)\n  foo(2) = 2.0\nend\n"),
        ]
    };
    let mut session = AnalysisSession::new(AnalysisOptions::default());
    session.update(sources("foo")).expect("cold update");
    let renamed = sources("bar");
    let delta = session.update(&renamed).expect("rename update");
    assert_session_matches_cold(&session, &renamed, "renamed local");
    assert_eq!(delta.units_reused, [true, false, false], "{delta:?}");
}

#[test]
fn a_sema_error_empties_only_the_procedure_of_its_own_file() {
    // `c.f`'s error sits on line 25, past the headers of `a` (line 10 of
    // `a.f`), `b` (line 20 of `b.f`) and `main`: only `c` is emptied.
    let sources = vec![
        GenSource::fortran(
            "main.f",
            "program main\n  real w(5)\n  w(1) = 0.0\n  call a\n  call b\n  call c\nend\n",
        ),
        GenSource::fortran("a.f", format!("{}subroutine a\n  real x(10)\n  x(1) = 1.0\nend\n", pad(9))),
        GenSource::fortran("b.f", format!("{}subroutine b\n  real y(10)\n  y(2) = 2.0\nend\n", pad(19))),
        GenSource::fortran(
            "c.f",
            format!("subroutine c\n  real z(10)\n{}  z(1, 2) = 3.0\nend\n", pad(22)),
        ),
    ];
    let a = cold(&sources);
    let emptied: Vec<&str> = a.degradations.iter().map(|d| d.proc.as_str()).collect();
    assert_eq!(emptied, ["c"], "{:?}", a.degradations);
    assert!(a.degradations[0].detail.contains("25:3"), "{:?}", a.degradations);
    for (proc, array) in [("MAIN__", "w"), ("a", "x"), ("b", "y")] {
        let rows = a.rows_for_proc(proc);
        assert!(rows.iter().any(|r| r.array == array), "{proc} keeps its rows: {rows:?}");
    }
}

#[test]
fn a_duplicate_definition_drops_the_later_files() {
    // `d.f` repeats `a.f` line for line, so both definitions of `a` sit at
    // the same position: the later file's goes.
    let a_text = format!("{}subroutine a\n  real x(10)\n  x(1) = 1.0\nend\n", pad(9));
    let sources = vec![
        GenSource::fortran("main.f", "program main\n  call a\nend\n"),
        GenSource::fortran("a.f", a_text.clone()),
        GenSource::fortran("d.f", a_text),
    ];
    let a = cold(&sources);
    assert_eq!(a.degradations.len(), 1, "{:?}", a.degradations);
    assert!(a.degradations[0].detail.contains("duplicate definition"), "{:?}", a.degradations);
    let kept = a.program.find_procedure("a").expect("one `a` stays");
    assert_eq!(a.program.name_of(a.program.procedure(kept).file), "a.f");
    let rows = a.rows_for_proc("a");
    assert!(!rows.is_empty() && rows.iter().all(|r| r.file == "a.o"), "{rows:?}");
}

#[test]
fn revisions_outlive_an_update_only_in_an_unchanged_environment() {
    // `q` writes `b`, laid out after `p`'s `a`: growing `a` moves `b`
    // without touching `q`, which stays clean and outside every ancestor
    // chain of the edit.
    let sources = |a_len: u32, hi: u32| {
        vec![
            GenSource::fortran("main.f", "program main\n  call p\n  call q\nend\n"),
            GenSource::fortran(
                "p.f",
                format!(
                    "subroutine p\n  real a({a_len})\n  common /ca/ a\n  integer i\n  do i = 1, {hi}\n    a(i) = 1.0\n  end do\nend\n"
                ),
            ),
            GenSource::fortran("q.f", "subroutine q\n  real b(10)\n  common /cb/ b\n  b(1) = 2.0\nend\n"),
        ]
    };
    let revisions = |s: &AnalysisSession| -> Vec<ipa::Revision> {
        s.analysis().expect("analysis").ipa.summaries.iter().map(|s| s.revision()).collect()
    };
    let mem_loc = |s: &AnalysisSession| s.analysis().expect("analysis").rows_for_proc("q")[0].mem_loc.clone();
    let mut session = AnalysisSession::new(AnalysisOptions::default());
    session.update(sources(10, 5)).expect("cold update");
    let q = session.analysis().expect("analysis").program.find_procedure("q").expect("q").as_usize();
    let (before, loc) = (revisions(&session), mem_loc(&session));

    // A bound edit in `p`: the environment stays, so `q` keeps its
    // revision while `p` and `main` get new ones.
    session.update(sources(10, 6)).expect("bound edit");
    let bound = revisions(&session);
    for (i, r) in bound.iter().enumerate() {
        assert_eq!(before.contains(r), i == q, "procedure {i}: {before:?} -> {bound:?}");
    }
    assert_eq!(mem_loc(&session), loc);

    // Growing `a` moves `b`: `q` is as clean as before, yet every
    // revision is new.
    let delta = session.update(sources(20, 6)).expect("reshape");
    assert!(mem_loc(&session) != loc, "`b` must move");
    let touched = |name: &str| {
        delta.summaries_recomputed.iter().chain(&delta.propagation_recomputed).any(|n| n == name)
    };
    assert!(!touched("q"), "{delta:?}");
    let reshaped = revisions(&session);
    assert!(reshaped.iter().all(|r| !bound.contains(r)), "{bound:?} -> {reshaped:?}");
    assert_session_matches_cold(&session, &sources(20, 6), "reshape");
}

#[test]
fn a_state_whose_propagation_degraded_is_never_reused() {
    // Both budgets run out during mini-LU's propagation, so every state
    // below holds widened propagated summaries: an update that built on
    // them, or carried their degradation, would differ from a cold run.
    let budgets = [BudgetConfig { translations: 64, ..Default::default() }, BudgetConfig::tiny()];
    for budget in budgets {
        let opts = AnalysisOptions::builder().budget(budget).build();
        let mut sources = workloads::mini_lu::sources();
        let mut session = AnalysisSession::new(opts);
        let steps = [("cold", None), ("edit", Some(("do k = 1, 10", "do k = 1, 7"))), ("again", None)];
        for (step, change) in steps {
            if let Some((from, to)) = change {
                edit(&mut sources, "rhs.f", from, to);
            }
            session.update(sources.clone()).expect("update");
            let oracle = Analysis::analyze(&sources, opts).expect("cold run");
            assert!(
                oracle.degradations.iter().any(|d| d.proc == "(propagation)"),
                "{budget:?}: the budget must run out in propagation: {:?}",
                oracle.degradations
            );
            assert_session_matches(&session, &oracle, &format!("{budget:?}, {step}"));
        }
    }
}
