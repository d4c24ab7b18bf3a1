//! The lint engine against every pre-existing workload: zero false
//! positives on the clean programs, exactly the paper's own dead store on
//! Fig. 10, and byte-identical output at any thread count.

use araa::{Analysis, AnalysisOptions};
use lint::{LintOptions, Rule, Severity};

fn analyze(srcs: &[workloads::GenSource]) -> Analysis {
    Analysis::analyze(srcs, AnalysisOptions::default()).expect("analysis succeeds")
}

#[test]
fn pre_existing_clean_workloads_are_finding_free() {
    let clean: Vec<(&str, Vec<workloads::GenSource>)> = vec![
        ("fig1", vec![workloads::fig1::source()]),
        ("mini_lu", workloads::mini_lu::sources()),
        ("stencil", vec![workloads::stencil::source()]),
        ("caf", vec![workloads::caf::source()]),
        ("synthetic", vec![workloads::synthetic::generate(&Default::default())]),
    ];
    for (name, srcs) in clean {
        let a = analyze(&srcs);
        let report = lint::run(&a, &LintOptions::default());
        assert!(
            report.findings.is_empty(),
            "{name} must be finding-free, got:\n{}",
            report.render()
        );
        assert!(report.degradations.is_empty(), "{name} must not degrade");
    }
}

#[test]
fn fig10_reports_exactly_the_papers_dead_store() {
    // The paper's Fig. 10 evidence: `aarr` is declared `aarr[20]`, written
    // at `aarr[1..8]`, read only at `aarr[0..7]` — the store to index 8 is
    // dead, which is why the tool shrinks the declaration to `aarr[8]`.
    let a = analyze(&[workloads::fig10::source()]);
    let report = lint::run(&a, &LintOptions::default());
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.rule, Rule::Dst03);
    assert_eq!(f.severity, Severity::Definite);
    assert_eq!(f.file, "matrix.c");
    assert_eq!(f.array, "aarr");
    assert!(f.line > 0, "finding carries a source anchor");
    assert!(f.message.contains("element 8"), "{}", f.message);
}

#[test]
fn editing_one_file_relints_only_affected_procedures() {
    let mut srcs = workloads::mini_lu::sources();
    // Shrink one loop in rhs.f: the edited program lints as clean as the
    // original.
    let rhs = srcs.iter_mut().find(|s| s.name == "rhs.f").expect("rhs.f");
    rhs.text = rhs.text.replace("do k = 1, 10", "do k = 1, 7");
    let edited = analyze(&srcs);
    let report = lint::run(&edited, &LintOptions::default());
    assert!(report.findings.is_empty(), "the edit introduces no defect");
}

#[test]
fn thread_count_does_not_change_a_single_byte() {
    let mut srcs = workloads::mini_lu::sources();
    srcs.push(workloads::fig10::source());
    let a = analyze(&srcs);
    let serial = lint::run(&a, &LintOptions { threads: 1 });
    let threaded = lint::run(&a, &LintOptions { threads: 8 });
    assert_eq!(serial.render(), threaded.render());
    assert_eq!(
        lint::sarif::to_sarif(&serial, "test"),
        lint::sarif::to_sarif(&threaded, "test")
    );
}
