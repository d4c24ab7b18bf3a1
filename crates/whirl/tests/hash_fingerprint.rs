//! Fingerprint stability and correspondence checks over compiled programs.

use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
use whirl::hash::{proc_fingerprint, procs_correspond};
use whirl::{Lang, Program};

fn compile(srcs: &[(&str, &str)]) -> Program {
    let files: Vec<SourceFile> = srcs
        .iter()
        .map(|(name, text)| SourceFile::new(*name, *text, Lang::Fortran))
        .collect();
    compile_to_h(&files, DEFAULT_LAYOUT_BASE).unwrap()
}

const WORK: &str = "\
subroutine work
  real a(16)
  common /c/ a
  integer i
  do i = 1, 16
    a(i) = 0.0
  end do
end
";

const OTHER: &str = "\
subroutine other
  real b(4)
  common /d/ b
  b(1) = 1.0
end
";

const OTHER_V2: &str = "\
subroutine other
  real b(4), extra(8)
  common /d/ b
  common /e/ extra
  b(2) = 2.0
  extra(1) = 0.0
end
";

#[test]
fn identical_sources_identical_fingerprints() {
    let p1 = compile(&[("w.f", WORK)]);
    let p2 = compile(&[("w.f", WORK)]);
    let id1 = p1.find_procedure("work").unwrap();
    let id2 = p2.find_procedure("work").unwrap();
    assert_eq!(proc_fingerprint(&p1, id1, 0), proc_fingerprint(&p2, id2, 0));
}

#[test]
fn salt_changes_fingerprint() {
    let p = compile(&[("w.f", WORK)]);
    let id = p.find_procedure("work").unwrap();
    assert_ne!(proc_fingerprint(&p, id, 0), proc_fingerprint(&p, id, 1));
}

#[test]
fn unrelated_file_edit_keeps_fingerprint_despite_index_shift() {
    let p1 = compile(&[("o.f", OTHER), ("w.f", WORK)]);
    let p2 = compile(&[("o.f", OTHER_V2), ("w.f", WORK)]);
    let w1 = p1.find_procedure("work").unwrap();
    let w2 = p2.find_procedure("work").unwrap();
    // `other` gained symbols, shifting work's StIdx values — the
    // identity-based fingerprint must not care.
    assert_eq!(proc_fingerprint(&p1, w1, 7), proc_fingerprint(&p2, w2, 7));
    // And the edited procedure's fingerprint must change.
    let o1 = p1.find_procedure("other").unwrap();
    let o2 = p2.find_procedure("other").unwrap();
    assert_ne!(proc_fingerprint(&p1, o1, 7), proc_fingerprint(&p2, o2, 7));
}

#[test]
fn body_edit_changes_fingerprint() {
    let p1 = compile(&[("w.f", WORK)]);
    let edited = WORK.replace("do i = 1, 16", "do i = 1, 8");
    let p2 = compile(&[("w.f", &edited)]);
    let id1 = p1.find_procedure("work").unwrap();
    let id2 = p2.find_procedure("work").unwrap();
    assert_ne!(proc_fingerprint(&p1, id1, 0), proc_fingerprint(&p2, id2, 0));
}

#[test]
fn correspondence_maps_shifted_indices() {
    let p1 = compile(&[("o.f", OTHER), ("w.f", WORK)]);
    let p2 = compile(&[("o.f", OTHER_V2), ("w.f", WORK)]);
    let w1 = p1.find_procedure("work").unwrap();
    let w2 = p2.find_procedure("work").unwrap();
    let maps = procs_correspond(&p1, w1, &p2, w2).expect("work is unchanged");
    // Every mapped pair denotes the same-named symbol.
    for (&os, &ns) in &maps.st {
        assert_eq!(
            p1.name_of(p1.symbols.get(os).name),
            p2.name_of(p2.symbols.get(ns).name)
        );
    }
    // The array `a` must be among the mapped symbols.
    let a1 = p1.symbols.find(p1.interner.get("a").unwrap()).unwrap();
    assert!(maps.st.contains_key(&a1));
}

#[test]
fn correspondence_rejects_changed_body() {
    let p1 = compile(&[("w.f", WORK)]);
    let edited = WORK.replace("a(i) = 0.0", "a(i) = 1.0");
    let p2 = compile(&[("w.f", &edited)]);
    let w1 = p1.find_procedure("work").unwrap();
    let w2 = p2.find_procedure("work").unwrap();
    assert!(procs_correspond(&p1, w1, &p2, w2).is_none());
}

#[test]
fn correspondence_rejects_changed_declared_bounds() {
    let p1 = compile(&[("w.f", WORK)]);
    let edited = WORK.replace("real a(16)", "real a(32)");
    let p2 = compile(&[("w.f", &edited)]);
    let w1 = p1.find_procedure("work").unwrap();
    let w2 = p2.find_procedure("work").unwrap();
    assert!(procs_correspond(&p1, w1, &p2, w2).is_none());
}

#[test]
fn mini_lu_fingerprints_stable_across_recompiles() {
    let srcs: Vec<SourceFile> =
        workloads::mini_lu::sources().iter().map(SourceFile::from).collect();
    let p1 = compile_to_h(&srcs, DEFAULT_LAYOUT_BASE).unwrap();
    let p2 = compile_to_h(&srcs, DEFAULT_LAYOUT_BASE).unwrap();
    assert_eq!(p1.procedure_count(), p2.procedure_count());
    for (id1, _) in p1.procedures.iter_enumerated() {
        let name = p1.name_of(p1.procedure(id1).name).to_string();
        let id2 = p2.find_procedure(&name).unwrap();
        assert_eq!(
            proc_fingerprint(&p1, id1, 3),
            proc_fingerprint(&p2, id2, 3),
            "procedure `{name}` fingerprint must be reproducible"
        );
        assert!(procs_correspond(&p1, id1, &p2, id2).is_some(), "{name}");
    }
}

#[test]
fn global_symbol_map_binds_globals_and_names_across_programs() {
    use whirl::hash::global_symbol_map;
    let p1 = compile(&[("o.f", OTHER), ("w.f", WORK)]);
    let p2 = compile(&[("o.f", OTHER_V2), ("w.f", WORK)]);
    let maps = global_symbol_map(&p1, &p2);
    // The shared global `a` maps across the index shift `OTHER_V2` causes.
    let a1 = p1.symbols.find(p1.interner.get("a").unwrap()).unwrap();
    let a2 = p2.symbols.find(p2.interner.get("a").unwrap()).unwrap();
    assert_eq!(maps.st.get(&a1), Some(&a2));
    // Every interned name that survives maps by string — including `work`'s
    // loop variable, which no correspondence walk of `other` would visit.
    let i1 = p1.interner.get("i").unwrap();
    let i2 = p2.interner.get("i").unwrap();
    assert_eq!(maps.sym.get(&i1), Some(&i2));
    for (&os, &ns) in &maps.sym {
        assert_eq!(p1.interner.resolve(os), p2.interner.resolve(ns));
    }
}

#[test]
fn global_symbol_map_skips_retyped_globals() {
    use whirl::hash::global_symbol_map;
    let p1 = compile(&[("w.f", WORK)]);
    let edited = WORK.replace("real a(16)", "real a(32)");
    let p2 = compile(&[("w.f", &edited)]);
    let maps = global_symbol_map(&p1, &p2);
    // Same name, different declared bounds: the identity check refuses the
    // binding, so a stale cached summary cannot silently rebase onto it.
    let a1 = p1.symbols.find(p1.interner.get("a").unwrap()).unwrap();
    assert!(!maps.st.contains_key(&a1));
}

/// Every procedure of mini-LU, of a 1 000-procedure synthetic program and
/// of every corpus file has a fingerprint of its own.
#[test]
fn fingerprints_are_pairwise_distinct_across_the_workloads() {
    let synth = workloads::synthetic::SynthConfig {
        procedures: 999,
        ..workloads::synthetic::SynthConfig::default()
    };
    let synth = SourceFile::from(&workloads::synthetic::generate(&synth));
    let mut programs: Vec<(String, Vec<SourceFile>)> = vec![
        ("mini_lu".into(), workloads::mini_lu::sources().iter().map(SourceFile::from).collect()),
        ("synthetic_1000".into(), vec![synth]),
    ];
    let workloads = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads");
    for dir in ["lint_corpus", "irregular_corpus"] {
        let mut names: Vec<String> = std::fs::read_dir(workloads.join(dir))
            .expect("corpus dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            let text = std::fs::read_to_string(workloads.join(dir).join(&name)).expect("corpus file");
            let lang = if name.ends_with(".c") { Lang::C } else { Lang::Fortran };
            programs.push((format!("{dir}/{name}"), vec![SourceFile::new(name, text, lang)]));
        }
    }
    let mut seen: std::collections::BTreeMap<u64, String> = std::collections::BTreeMap::new();
    for (label, files) in &programs {
        let (program, _) = frontend::compile_to_h_with_recovery(files, DEFAULT_LAYOUT_BASE)
            .unwrap_or_else(|e| panic!("{label} must compile: {e}"));
        for (id, proc) in program.procedures.iter_enumerated() {
            let who = format!("{label}:{}", program.name_of(proc.name));
            let fp = proc_fingerprint(&program, id, 0);
            if let Some(first) = seen.insert(fp, who.clone()) {
                panic!("`{who}` and `{first}` share the fingerprint {fp:016x}");
            }
        }
    }
    // 24 mini-LU procedures, 1 000 synthetic ones, one or more per file.
    assert!(seen.len() >= 1024 + programs.len() - 2, "{} procedures", seen.len());
}
