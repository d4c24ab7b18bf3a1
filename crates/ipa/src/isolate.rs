//! Per-procedure fault isolation for the IPL phase.
//!
//! IPL summaries are mutually independent, so one procedure's failure never
//! needs to take the analysis down: each summarization runs under its own
//! [`budget`] scope and `catch_unwind`. A panicking procedure is replaced
//! by a conservative summary (whole-array `DEF`+`USE` over every array it
//! could possibly touch — globals, its array formals and the local arrays
//! its tree names), a budget-exhausted procedure keeps its already-widened
//! summary, and either way the incident is reported as an [`IplFailure`]
//! so drivers can emit a degradation report instead of dying.

use crate::local::{summarize_procedure, whole_array_record, ProcSummary};
use regions::access::{AccessMode, Precision};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use support::budget::{self, BudgetConfig};
use whirl::{ProcId, Program, StClass, StIdx, TyKind};

/// One contained per-procedure failure.
#[derive(Debug)]
pub struct IplFailure {
    /// The procedure whose summary degraded.
    pub proc: ProcId,
    /// `"ipl"` for a contained panic, `"budget"` for budget exhaustion.
    pub stage: &'static str,
    /// Human-readable cause (panic message or exhausted budget name).
    pub detail: String,
}

/// All summaries plus the failures contained while computing them.
#[derive(Debug)]
pub struct IplOutcome {
    /// One summary per procedure (indexable by `ProcId`), every entry
    /// usable — failed procedures hold conservative fallbacks.
    pub summaries: Vec<ProcSummary>,
    /// Contained failures, in procedure order.
    pub failures: Vec<IplFailure>,
}

/// Renders a `catch_unwind` payload as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Summarizes one procedure under a budget scope and panic isolation.
pub fn summarize_proc_guarded(
    program: &Program,
    id: ProcId,
    config: BudgetConfig,
) -> (ProcSummary, Option<IplFailure>) {
    // Raw (undecorated) name, matching `store.prime` and `extract.rows`,
    // so one procedure aggregates to one profile row.
    let _span = support::obs::span_arg("ipa.ipl", || {
        program.name_of(program.procedure(id).name).to_string()
    });
    let scope = budget::enter(config);
    let result = catch_unwind(AssertUnwindSafe(|| summarize_procedure(program, id)));
    let exhausted = budget::exhaustion();
    drop(scope);
    match result {
        Ok(summary) => {
            let failure = exhausted.map(|label| IplFailure {
                proc: id,
                stage: "budget",
                detail: format!("{label} budget exhausted; regions widened"),
            });
            (summary, failure)
        }
        Err(payload) => {
            let detail = panic_message(payload.as_ref());
            let failure = IplFailure { proc: id, stage: "ipl", detail };
            (conservative_summary(program, id), Some(failure))
        }
    }
}

/// The fallback summary for a procedure whose analysis panicked: it may
/// define and use *every element* of every array visible to it (globals,
/// its own array formals and the local arrays its tree names). Grossly
/// imprecise, but sound — and it keeps the procedure's rows in the `.rgn`
/// output.
pub fn conservative_summary(program: &Program, id: ProcId) -> ProcSummary {
    let proc = program.procedure(id);
    let named: BTreeSet<StIdx> =
        proc.tree.iter().filter_map(|wn| proc.tree.node(wn).st_idx).collect();
    let mut accesses = Vec::new();
    for (st, entry) in program.symbols.iter() {
        if !matches!(program.types.get(entry.ty).kind, TyKind::Array { .. }) {
            continue;
        }
        let is_formal = proc.formals.contains(&st);
        let local = entry.class == StClass::Local && named.contains(&st);
        if entry.class != StClass::Global && !is_formal && !local {
            continue;
        }
        if is_formal {
            let mut f = whole_array_record(
                program,
                proc,
                st,
                entry.ty,
                AccessMode::Formal,
                proc.linenum,
            );
            f.approx = true;
            f.precision = f.precision.worst(Precision::AffineApprox);
            accesses.push(f);
        }
        for mode in [AccessMode::Def, AccessMode::Use] {
            let mut rec =
                whole_array_record(program, proc, st, entry.ty, mode, proc.linenum);
            rec.approx = true;
            rec.precision = rec.precision.worst(Precision::AffineApprox);
            accesses.push(rec);
        }
    }
    ProcSummary::new(accesses, Default::default())
}

/// Serial isolated IPL over every procedure.
pub fn summarize_all_isolated(program: &Program, config: BudgetConfig) -> IplOutcome {
    let mut summaries = Vec::with_capacity(program.procedure_count());
    let mut failures = Vec::new();
    for id in program.procedures.indices() {
        let (s, f) = summarize_proc_guarded(program, id, config);
        summaries.push(s);
        failures.extend(f);
    }
    IplOutcome { summaries, failures }
}

/// Isolated IPL over an arbitrary subset of procedures — the incremental
/// session's dirty set — fanned out over up to `threads` workers
/// ([`support::par::map`]). Results come back in `ids` order, one entry per
/// requested procedure.
pub fn summarize_subset_isolated(
    program: &Program,
    ids: &[ProcId],
    threads: usize,
    config: BudgetConfig,
) -> Vec<(ProcId, ProcSummary, Option<IplFailure>)> {
    support::par::map(ids, threads, |&id| {
        let (s, f) = summarize_proc_guarded(program, id, config);
        (id, s, f)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    use whirl::Lang;

    fn program() -> Program {
        let src = "\
program main
  real a(8)
  common /g/ a
  integer i
  do i = 1, 8
    a(i) = 0.0
  end do
  call q
end
subroutine q
  real a(8)
  common /g/ a
  a(1) = 1.0
end
";
        compile_to_h(&[SourceFile::new("t.f", src, Lang::Fortran)], DEFAULT_LAYOUT_BASE)
            .unwrap()
    }

    #[test]
    fn clean_program_has_no_failures() {
        let p = program();
        let out = summarize_all_isolated(&p, BudgetConfig::default());
        assert_eq!(out.summaries.len(), p.procedure_count());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.summaries.iter().all(|s| s.accesses.iter().all(|r| !r.approx)));
    }

    #[test]
    fn tiny_budget_reports_budget_failures_not_errors() {
        let p = program();
        let out = summarize_all_isolated(
            &p,
            BudgetConfig { fm_steps: 0, ..BudgetConfig::default() },
        );
        assert_eq!(out.summaries.len(), p.procedure_count());
        // Summaries still exist for every procedure; any failure is a
        // budget report, not a loss of coverage.
        assert!(out.failures.iter().all(|f| f.stage == "budget"));
    }

    #[test]
    fn parallel_isolated_matches_serial() {
        let p = program();
        let serial = summarize_all_isolated(&p, BudgetConfig::default());
        let ids: Vec<ProcId> = p.procedures.indices().collect();
        let par = summarize_subset_isolated(&p, &ids, 4, BudgetConfig::default());
        assert_eq!(serial.summaries.len(), par.len());
        for ((a, id), (par_id, b, f)) in serial.summaries.iter().zip(&ids).zip(&par) {
            assert_eq!(id, par_id);
            assert_eq!(a.accesses.len(), b.accesses.len());
            assert!(f.is_none());
        }
        assert!(serial.failures.is_empty());
    }

    #[test]
    fn conservative_summary_claims_visible_arrays() {
        let p = program();
        let q = p.find_procedure("q").unwrap();
        let s = conservative_summary(&p, q);
        assert!(!s.accesses.is_empty(), "global `a` must be claimed");
        assert!(s.accesses.iter().all(|r| r.approx));
        assert!(s.accesses.iter().any(|r| r.mode == AccessMode::Def));
        assert!(s.accesses.iter().any(|r| r.mode == AccessMode::Use));
    }

    #[test]
    fn conservative_summary_claims_the_local_arrays_its_tree_names() {
        let src = "\
program main
  real t(4)
  real u(6)
  integer i
  do i = 1, 4
    t(i) = 0.0
  end do
end
";
        let p = compile_to_h(&[SourceFile::new("t.f", src, Lang::Fortran)], DEFAULT_LAYOUT_BASE)
            .unwrap();
        let main = p.find_procedure("main").unwrap();
        let s = conservative_summary(&p, main);
        let name = |r: &crate::AccessRecord| p.name_of(p.symbols.get(r.array).name).to_string();
        let claimed: Vec<(String, AccessMode)> =
            s.accesses.iter().map(|r| (name(r), r.mode)).collect();
        assert_eq!(
            claimed,
            [("t".to_string(), AccessMode::Def), ("t".to_string(), AccessMode::Use)],
            "the named local `t`, not the unused `u`"
        );
        assert!(s.accesses.iter().all(|r| r.approx));
    }

    #[test]
    fn panic_message_renders_both_payload_kinds() {
        let e = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(e.as_ref()), "boom 7");
        let e = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(e.as_ref()), "static");
    }
}
