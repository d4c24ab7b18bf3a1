//! Oracle test for the incremental [`AnalysisSession`]: after every
//! scripted edit the warm session must produce artifacts byte-identical to
//! a cold run over the same sources, while recomputing summaries only for
//! the edited procedures and re-propagating only within their call-graph
//! ancestor chains.

use araa::{Analysis, AnalysisOptions, AnalysisSession};
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
        assert_eq!(warm.rgn_document(), oracle.rgn_document(), "{file}: .rgn diverges");
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
