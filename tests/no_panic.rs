//! Robustness corpus: no input, however malformed, may panic the pipeline.
//!
//! Every source below goes through the full `Analysis::analyze`
//! pipeline. The contract is graceful: either a clean result, a degraded
//! result (with structured [`araa::Degradation`] entries), or a typed
//! error — never a panic, never a stack-overflow abort.

use araa::{Analysis, AnalysisOptions};
use support::budget::BudgetConfig;

fn fortran(name: &str, text: &str) -> workloads::GenSource {
    workloads::GenSource { name: name.to_string(), text: text.to_string(), fortran: true }
}

fn c(name: &str, text: &str) -> workloads::GenSource {
    workloads::GenSource { name: name.to_string(), text: text.to_string(), fortran: false }
}

/// The malformed corpus. Each entry must run to completion without panicking;
/// whether it yields `Ok` (possibly degraded) or `Err` is input-dependent.
fn corpus() -> Vec<(&'static str, workloads::GenSource)> {
    vec![
        ("empty file", fortran("empty.f", "")),
        ("whitespace only", fortran("blank.f", "\n\n   \n")),
        ("lone keyword", fortran("lone.f", "subroutine\n")),
        ("lex garbage", fortran("garbage.f", "@#$%^&*\n")),
        (
            "unterminated do",
            fortran("undone.f", "program main\n  integer i\n  do i = 1, 5\n    i = i\nend\n"),
        ),
        (
            "double equals",
            fortran("deq.f", "program main\n  integer i\n  i = = 1\nend\n"),
        ),
        (
            "duplicate procedure",
            fortran(
                "dup.f",
                "subroutine f\n  return\nend\nsubroutine f\n  return\nend\nprogram main\n  call f\nend\n",
            ),
        ),
        (
            "call to nothing",
            fortran("ghost.f", "program main\n  call ghost(1)\nend\n"),
        ),
        (
            "deep parens",
            fortran(
                "deep.f",
                &format!(
                    "program main\n  integer i\n  i = {}1{}\nend\n",
                    "(".repeat(4000),
                    ")".repeat(4000)
                ),
            ),
        ),
        ("c garbage", c("garbage.c", "@#$ not a program\n")),
        ("c unbalanced braces", c("brace.c", "void f() { int i; i = 0;\n")),
        (
            "c missing semicolons",
            c("semi.c", "void f() { int i\n i = 0\n }\nvoid g() { int j; j = 1; }\n"),
        ),
        (
            "c deep unary",
            c(
                "deepc.c",
                &format!("void f() {{ int i; i = {}1; }}\n", "!".repeat(4000)),
            ),
        ),
        (
            "c type soup",
            c("soup.c", "int int int; void; { } ; ; void g() { int j; j = 2; }\n"),
        ),
    ]
}

/// Every real workload source in `crates/workloads`.
fn workload_sources() -> Vec<workloads::GenSource> {
    let mut all = vec![
        workloads::fig1::source(),
        workloads::fig10::source(),
        workloads::caf::source(),
        workloads::stencil::source(),
    ];
    all.extend(workloads::mini_lu::sources());
    all
}

/// Deterministic single-character mutations at positions spread over the
/// source (drop a char, double it, or swap it for a hostile token).
fn mutations(src: &workloads::GenSource) -> Vec<workloads::GenSource> {
    let chars: Vec<char> = src.text.chars().collect();
    let mut out = Vec::new();
    for frac in [1usize, 3, 5, 7, 9] {
        let at = (chars.len() * frac / 10).min(chars.len().saturating_sub(1));
        let dropped: String = {
            let mut v = chars.clone();
            v.remove(at);
            v.into_iter().collect()
        };
        let doubled: String = {
            let mut v = chars.clone();
            let c = v[at];
            v.insert(at, c);
            v.into_iter().collect()
        };
        let hostile: String = {
            let mut v = chars.clone();
            v[at] = '(';
            v.into_iter().collect()
        };
        for (tag, variant) in [("drop", dropped), ("dup", doubled), ("hostile", hostile)] {
            out.push(workloads::GenSource {
                name: format!("{}-{tag}{frac}", src.name),
                text: variant,
                fortran: src.fortran,
            });
        }
    }
    // Truncations at the same spread of positions.
    for frac in [1usize, 3, 5, 7, 9] {
        let at = chars.len() * frac / 10;
        out.push(workloads::GenSource {
            name: format!("{}-trunc{frac}", src.name),
            text: chars[..at].iter().collect(),
            fortran: src.fortran,
        });
    }
    out
}

#[test]
fn mutated_workloads_never_panic() {
    for src in workload_sources() {
        for variant in mutations(&src) {
            let name = variant.name.clone();
            let result = std::panic::catch_unwind(|| {
                Analysis::analyze(&[variant], AnalysisOptions::default())
            });
            assert!(result.is_ok(), "pipeline panicked on mutated workload: {name}");
        }
    }
}

#[test]
fn malformed_corpus_never_panics() {
    for (label, src) in corpus() {
        // A panic here fails the test with the corpus label in the backtrace.
        let result = std::panic::catch_unwind(|| {
            Analysis::analyze(&[src.clone()], AnalysisOptions::default())
        });
        assert!(result.is_ok(), "pipeline panicked on corpus entry: {label}");
    }
}

#[test]
fn each_corpus_entry_paired_with_a_healthy_unit_keeps_the_healthy_rows() {
    let healthy = fortran(
        "healthy.f",
        "subroutine fill(n)\n  integer n\n  real a(100)\n  common /g/ a\n  integer i\n  do i = 1, n\n    a(i) = 1.0\n  end do\nend\nprogram main\n  call fill(100)\nend\n",
    );
    for (label, src) in corpus() {
        if !src.fortran {
            // Mixing languages is fine, but keep the pairing simple: the
            // healthy Fortran unit rides along with every Fortran breakage.
            continue;
        }
        let srcs = vec![src, healthy.clone()];
        match Analysis::analyze(&srcs, AnalysisOptions::default()) {
            Ok(a) => {
                assert!(
                    a.rows.iter().any(|r| r.proc == "fill"),
                    "healthy procedure lost its rows next to: {label}"
                );
            }
            Err(e) => panic!("healthy unit dragged down by {label}: {e}"),
        }
    }
}

#[test]
fn tiny_budget_degrades_every_workload_without_failing() {
    let opts = AnalysisOptions::builder().budget(BudgetConfig::tiny()).build();
    for (label, srcs) in [
        ("fig1", vec![workloads::fig1::source()]),
        ("matrix", vec![workloads::fig10::source()]),
        ("mini_lu", workloads::mini_lu::sources()),
    ] {
        let a = Analysis::analyze(&srcs, opts)
            .unwrap_or_else(|e| panic!("{label} failed under tiny budget: {e}"));
        assert!(
            !a.rows.is_empty(),
            "{label}: budget exhaustion must still yield conservative rows"
        );
    }
}

#[test]
fn degradations_render_one_line_each() {
    let srcs = vec![
        fortran("bad.f", "program main\n  integer i\n  i = = 1\n  i = 2\nend\n"),
    ];
    let a = Analysis::analyze(&srcs, AnalysisOptions::default()).expect("degrades, not fails");
    assert!(a.degraded());
    let report = a.degradation_report();
    assert_eq!(report.lines().count(), a.degradations.len());
    for line in report.lines() {
        assert!(line.starts_with('['), "report line format: {line}");
    }
}

/// Every executed subscript below is 7, but `3037000501*i` overflows
/// `i64` inside the region kernel: a debug build panics there and
/// contains it with a conservative summary, a release build wraps. Either
/// way the local array `a` keeps a `DEF` row covering element 7.
#[test]
fn an_overflowing_subscript_keeps_its_local_array_row() {
    let text = "\
      program main
      integer a(100)
      integer i, j
      do i = 1, 10
        do j = 3037000501*i, 3037000501*i
          a(j - 3037000501*i + 7) = 0
        end do
      end do
      end
";
    let a = Analysis::analyze(&[fortran("ovf.f", text)], AnalysisOptions::default())
        .expect("a contained failure degrades, never fails");
    let covers_7 = |r: &&araa::RgnRow| {
        let bound = |b: &str| b.parse::<i64>().ok();
        matches!((bound(&r.lb), bound(&r.ub)), (Some(lo), Some(hi)) if lo <= 7 && 7 <= hi)
    };
    let defs: Vec<_> =
        a.rows.iter().filter(|r| r.array == "a" && r.mode == regions::access::AccessMode::Def).collect();
    assert!(defs.iter().any(covers_7), "{defs:?}\n{}", a.degradation_report());
}
