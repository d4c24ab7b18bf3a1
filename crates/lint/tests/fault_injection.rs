//! Fault-injection tests of the lint engine's per-procedure isolation.
//!
//! Arms the `lint::contain` and `lint::sarif` faultpoints (see
//! `support::faultpoint`) and asserts the containment contract: a panic
//! while linting one procedure degrades exactly that procedure — every
//! other procedure's findings survive.
//!
//! Run with `cargo test -p lint --features fault-injection`.
#![cfg(feature = "fault-injection")]

use araa::{Analysis, AnalysisOptions};
use lint::{LintCache, LintOptions, LintReport, Rule};
use std::sync::Mutex;
use support::faultpoint;

/// The faultpoint registry is process-global and cargo runs tests on
/// multiple threads, so each test holds this lock while a point is armed.
static ARMED: Mutex<()> = Mutex::new(());

/// Two defective procedures behind a trivial driver. Procedures lint in
/// program order (`main`, `one`, `two`), so arming `lint::contain` on its
/// second hit faults `one` while `two` still reports.
const TWO_DEFECTS: &str = "\
program main
  call one
  call two
end
subroutine one
  real a(10)
  integer i
  do i = 1, 12
    a(i) = a(i) + 1.0
  end do
end
subroutine two
  real b(10)
  integer i
  do i = 1, 12
    b(i) = b(i) + 1.0
  end do
end
";

fn analyze() -> Analysis {
    let srcs = vec![workloads::GenSource {
        name: "two_defects.f".into(),
        text: TWO_DEFECTS.into(),
        fortran: true,
    }];
    Analysis::analyze(&srcs, AnalysisOptions::default()).expect("analysis")
}

fn lint_with_fault(a: &Analysis, point: &str, nth: u64) -> LintReport {
    faultpoint::arm(point, nth);
    let report = lint::run(a, &LintOptions::default());
    faultpoint::disarm_all();
    report
}

#[test]
fn panic_in_one_procedures_lint_spares_the_others() {
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    let a = analyze();
    let clean = lint::run(&a, &LintOptions::default());
    assert_eq!(clean.findings.len(), 4, "{}", clean.render());

    let report = lint_with_fault(&a, "lint::contain", 2);
    assert_eq!(report.degradations.len(), 1, "{:?}", report.degradations);
    let d = &report.degradations[0];
    assert_eq!(d.stage, "lint");
    assert!(d.proc.contains("one"), "faulted procedure: {:?}", d);
    assert!(d.detail.contains("fault injected"), "{:?}", d);
    // `two`'s overruns still report — both sides of `b(i) = b(i) + 1.0`.
    assert_eq!(report.findings.len(), 2, "{}", report.render());
    assert!(report.findings.iter().all(|f| f.rule == Rule::Oob01 && f.array == "b"));
}

#[test]
fn parallel_lint_contains_the_fault_too() {
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    let a = analyze();
    faultpoint::arm("lint::contain", 2);
    let report = lint::run(&a, &LintOptions { threads: 4 });
    faultpoint::disarm_all();
    // Under threads the second hit lands on *some* procedure; whichever it
    // was, exactly one degrades and the rest still report.
    assert_eq!(report.degradations.len(), 1, "{:?}", report.degradations);
    assert_eq!(report.degradations[0].stage, "lint");
    assert!(report.findings.len() >= 2, "{}", report.render());
}

#[test]
fn sarif_fault_loses_the_artifact_not_the_findings() {
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    let a = analyze();
    let report = lint::run(&a, &LintOptions::default());
    assert_eq!(report.findings.len(), 4);

    faultpoint::arm("lint::sarif", 1);
    let rendered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lint::sarif::to_sarif(&report, "test")
    }));
    faultpoint::disarm_all();
    assert!(rendered.is_err(), "armed lint::sarif must abort emission");

    // The report itself is untouched and a retry emits a complete document.
    assert_eq!(report.findings.len(), 4);
    let doc = lint::sarif::to_sarif(&report, "test");
    assert_eq!(doc.matches("\"ruleId\": \"OOB-01\"").count(), 4, "{doc}");
}

#[test]
fn unarmed_faultpoints_change_nothing() {
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    let a = analyze();
    let report = lint::run(&a, &LintOptions::default());
    assert!(report.degradations.is_empty());
    assert_eq!(report.findings.len(), 4);
}

#[test]
fn a_contained_panic_is_reported_again_and_never_cached() {
    let _guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    let a = analyze();
    let opts = LintOptions::default();
    let mut cache = LintCache::empty();
    let first = {
        faultpoint::arm("lint::contain", 2);
        let r = lint::run_with_cache(&a, &opts, &mut cache);
        faultpoint::disarm_all();
        r
    };
    assert_eq!(first.degradations.len(), 1, "{:?}", first.degradations);
    assert!(first.degradations[0].proc.contains("one"), "{:?}", first.degradations);
    // `one` failed, so it relints first on the next run, alone: the same
    // fault lands on it again and is reported again, as a cold lint under
    // the same fault reports it.
    faultpoint::arm("lint::contain", 1);
    let second = lint::run_with_cache(&a, &opts, &mut cache);
    faultpoint::disarm_all();
    assert_eq!(second.degradations, first.degradations);
    assert_eq!((second.procs_linted, second.procs_cached), (0, 2));
    assert_eq!(second.findings, lint_with_fault(&a, "lint::contain", 2).findings);
    // Unarmed, `one` relints clean and the run equals a cold lint.
    let third = lint::run_with_cache(&a, &opts, &mut cache);
    assert!(third.degradations.is_empty(), "{:?}", third.degradations);
    assert_eq!((third.procs_linted, third.procs_cached), (1, 2));
    assert_eq!(third.findings, lint::run(&a, &opts).findings);
}
