//! The lint driver: per-procedure evaluation, optional parallelism, panic
//! containment, and deterministic merging.

use crate::rules;
use crate::LintReport;
use araa::{Analysis, Degradation};
use ipa::callgraph::display_name;
use std::panic::{catch_unwind, AssertUnwindSafe};
use support::idx::Idx;
use support::obs::{self, Counter};
use whirl::ProcId;

/// Options for one lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Worker threads for the per-procedure phase (1 = serial). The merge
    /// is index-ordered, so the findings are identical at any thread count.
    pub threads: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions { threads: 1 }
    }
}

/// Lints `analysis`: the per-procedure rules for every procedure, then
/// the whole-program dead-store pass.
pub fn run(analysis: &Analysis, opts: &LintOptions) -> LintReport {
    let _span = obs::span("lint.run");
    let program = &analysis.program;
    let ids: Vec<ProcId> = (0..program.procedure_count()).map(ProcId::from_usize).collect();
    // Each procedure runs behind `catch_unwind`, so one malformed
    // procedure degrades alone.
    let results = support::par::map(&ids, opts.threads, |&id| lint_procedure(analysis, id));
    let mut report = LintReport::default();
    for (&id, res) in ids.iter().zip(results) {
        match res {
            Ok(lint) => {
                report.procs_linted += 1;
                report.findings.extend(lint.findings);
                report.suppressed += lint.suppressed;
            }
            Err(detail) => report.degradations.push(Degradation {
                proc: display_name(program, program.procedure(id)),
                stage: "lint".to_string(),
                detail,
            }),
        }
    }
    // DST-03 needs cross-procedure USE hulls, so it runs once over the
    // rows instead of per procedure.
    let dead = rules::dead_stores(analysis);
    report.findings.extend(dead.findings);
    report.suppressed += dead.suppressed;
    report.finish();

    obs::add(Counter::LintFindings, report.findings.len() as u64);
    obs::add(Counter::LintFindingsDefinite, report.definite_count() as u64);
    obs::add(Counter::LintFindingsPossible, report.possible_count() as u64);
    obs::add(Counter::LintSuppressed, report.suppressed);
    obs::add(Counter::LintRelinted, report.procs_linted as u64);
    report
}

/// The former per-procedure lint cache, kept as a unit so the repository
/// benchmark (`perfbench/`), its only caller, still compiles. It holds
/// nothing.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct LintCache;

impl LintCache {
    /// The empty cache.
    pub fn empty() -> Self {
        LintCache
    }
}

/// [`run`] under the former cache signature; `perfbench/` is its only
/// caller.
#[doc(hidden)]
pub fn run_with_cache(
    analysis: &Analysis,
    opts: &LintOptions,
    _cache: &mut LintCache,
) -> LintReport {
    run(analysis, opts)
}

/// One contained per-procedure evaluation.
fn lint_procedure(analysis: &Analysis, id: ProcId) -> Result<rules::ProcLint, String> {
    catch_unwind(AssertUnwindSafe(|| rules::lint_proc(analysis, id))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "unknown panic".to_string());
        format!("lint rules panicked: {msg}")
    })
}
