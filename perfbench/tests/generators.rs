//! Self-tests of the benchmark's input generators.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use araa::{Analysis, AnalysisOptions};
use perfbench::checks;
use perfbench::gen::{self, EditRotation};
use workloads::GenSource;

fn analyze(sources: &[GenSource]) -> Analysis {
    Analysis::analyze(sources, AnalysisOptions::default()).expect("generated program analyzes")
}

#[test]
fn same_seed_same_inputs() {
    assert_eq!(gen::synth_1k(7), gen::synth_1k(7));
    assert_eq!(gen::irregular_600(7), gen::irregular_600(7));
    assert_ne!(gen::irregular_600(7).0, gen::irregular_600(8).0);
    let base = gen::lu_paper();
    let (mut a, mut b) = (EditRotation::new(&base, 3), EditRotation::new(&base, 3));
    for _ in 0..40 {
        assert_eq!(a.step(), b.step());
    }
    assert_eq!(a.sources(), b.sources());
}

#[test]
fn split_keeps_the_procedure_count() {
    let files = gen::synth_1k(1);
    assert_eq!(
        files.len(),
        gen::SYNTH_WORKERS + 1,
        "one file per program unit"
    );
    let joined: String = files.iter().map(|f| f.text.as_str()).collect();
    assert_eq!(
        joined.matches("end subroutine work").count(),
        gen::SYNTH_WORKERS
    );
    let a = analyze(&files);
    assert_eq!(a.program.procedure_count(), gen::SYNTH_WORKERS + 1);
    checks::clean_analysis(&a).unwrap();
}

#[test]
fn edited_programs_assemble_without_degradations() {
    let (irregular, _) = gen::irregular_600(2);
    for (name, base) in [("lu_paper", gen::lu_paper()), ("irregular_600", irregular)] {
        let mut rot = EditRotation::new(&base, 11);
        let rounds = 2 * rot.editable_files().min(40);
        for _ in 0..rounds {
            rot.step();
            let files: Vec<frontend::SourceFile> = rot.sources().iter().map(Into::into).collect();
            let (_, diags) =
                frontend::compile_to_h_with_recovery(&files, frontend::DEFAULT_LAYOUT_BASE)
                    .unwrap_or_else(|e| panic!("{name}: edited program fails: {e}"));
            assert!(diags.is_empty(), "{name}: {diags:?}");
        }
    }
}

#[test]
fn lu_edits_reach_every_file_with_a_loop() {
    let base = gen::lu_paper();
    let mut rot = EditRotation::new(&base, 5);
    let n = rot.editable_files();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..n {
        seen.insert(rot.step());
    }
    assert_eq!(seen.len(), n, "one pass visits every editable file once");
}

#[test]
fn every_shape_and_size_finds_exactly_its_defect() {
    for shape in 0..gen::SHAPE_COUNT {
        for size in 0..gen::SIZE_CHOICES {
            let (src, defect) = gen::irregular_replica(shape, 0, size);
            let main =
                GenSource::fortran("main.f", "program main\n  call irr0\nend program main\n");
            let a = analyze(&[main, src]);
            checks::clean_analysis(&a).unwrap();
            let mut defects: Vec<_> = defect.into_iter().collect();
            if let Some(d) = defects.first().filter(|d| d.rule == "OOB-01").cloned() {
                defects.push(gen::Defect {
                    file: "main.f".to_string(),
                    line: 2,
                    ..d
                });
            }
            let report = lint::run(&a, &lint::LintOptions::default());
            checks::seeded_defects(&report, &defects).unwrap_or_else(|e| {
                panic!(
                    "{} at size {size}: {e}\n{}",
                    gen::shape_name(shape),
                    report.render()
                )
            });
        }
    }
}

#[test]
fn irregular_600_reports_every_seeded_defect() {
    let (sources, defects) = gen::irregular_600(4);
    assert_eq!(
        sources.len(),
        1 + gen::SHAPE_COUNT * gen::IRREGULAR_REPLICAS
    );
    let a = analyze(&sources);
    checks::clean_analysis(&a).unwrap();
    let report = lint::run(&a, &lint::LintOptions::default());
    checks::seeded_defects(&report, &defects).unwrap();
}
