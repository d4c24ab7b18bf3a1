//! The lint driver: per-procedure evaluation with reuse, optional
//! parallelism, panic containment, and deterministic merging.

use crate::inputs::ProcInputs;
use crate::rules::{self, ProcLint};
use crate::LintReport;
use araa::{Analysis, Degradation};
use ipa::Revision;
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

/// Each procedure's findings from the last run, keyed by the revisions
/// they were computed from: the procedure's summary and, per call site,
/// its callee's summary. Hold one next to the analysis it lints (an
/// [`AnalysisSession`](araa::AnalysisSession) carries revisions across
/// updates) and pass it to every [`run_with_cache`]. Nothing is persisted.
#[derive(Debug, Default)]
pub struct LintCache {
    /// Per `ProcId` of the last run; an entry is only reused when the
    /// revisions match, wherever the procedure sits now.
    procs: Vec<Option<Entry>>,
}

#[derive(Debug)]
struct Entry {
    revision: Revision,
    callees: Vec<Revision>,
    lint: ProcLint,
}

impl LintCache {
    /// The empty cache: the next run lints every procedure.
    pub fn empty() -> Self {
        LintCache::default()
    }
}

/// Lints `analysis` from an empty cache: the per-procedure rules for
/// every procedure, then the whole-program dead-store pass.
pub fn run(analysis: &Analysis, opts: &LintOptions) -> LintReport {
    run_with_cache(analysis, opts, &mut LintCache::empty())
}

/// Lints `analysis`, reusing from `cache` the findings of every procedure
/// whose revision and callee revisions are unchanged since the run that
/// filled it, and re-running the per-procedure rules on the others. The
/// dead-store pass runs over the whole row table every time. Equals
/// [`run`] on the same analysis, except for `procs_cached`.
pub fn run_with_cache(
    analysis: &Analysis,
    opts: &LintOptions,
    cache: &mut LintCache,
) -> LintReport {
    let _span = obs::span("lint.run");
    let program = &analysis.program;
    let n = program.procedure_count();
    let inputs: Vec<ProcInputs<'_>> =
        (0..n).map(|i| ProcInputs::new(analysis, ProcId::from_usize(i))).collect();
    // Take every entry that is still valid; the rest are dropped, so the
    // cache never holds more than the current analysis' procedures.
    let mut old = std::mem::take(&mut cache.procs);
    let mut entries: Vec<Option<Entry>> = inputs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            old.get_mut(i).and_then(Option::take).filter(|e| {
                e.revision == p.summary().revision()
                    && e.callees.iter().copied().eq(p.callee_revisions())
            })
        })
        .collect();
    drop(old);
    let stale: Vec<usize> = (0..n).filter(|&i| entries[i].is_none()).collect();
    let mut report = LintReport { procs_cached: n - stale.len(), ..LintReport::default() };
    {
        let _span = obs::span("lint.rules");
        // Each procedure runs behind `catch_unwind`, so one malformed
        // procedure degrades alone; its result is never cached.
        let results = support::par::map(&stale, opts.threads, |&i| lint_procedure(&inputs[i]));
        for (&i, res) in stale.iter().zip(results) {
            match res {
                Ok(lint) => {
                    report.procs_linted += 1;
                    let p = &inputs[i];
                    entries[i] = Some(Entry {
                        revision: p.summary().revision(),
                        callees: p.callee_revisions().collect(),
                        lint,
                    });
                }
                Err(detail) => report.degradations.push(Degradation {
                    proc: inputs[i].name().to_string(),
                    stage: "lint".to_string(),
                    detail,
                }),
            }
        }
    }
    for entry in entries.iter().flatten() {
        report.findings.extend(entry.lint.findings.iter().cloned());
        report.suppressed += entry.lint.suppressed;
    }
    cache.procs = entries;
    // DST-03 needs cross-procedure USE hulls, so it runs once over the
    // rows instead of per procedure.
    let dead = {
        let _span = obs::span("lint.dead_stores");
        rules::dead_stores(analysis)
    };
    report.findings.extend(dead.findings);
    report.suppressed += dead.suppressed;
    report.finish();

    obs::add(Counter::LintFindings, report.findings.len() as u64);
    obs::add(Counter::LintFindingsDefinite, report.definite_count() as u64);
    obs::add(Counter::LintFindingsPossible, report.possible_count() as u64);
    obs::add(Counter::LintSuppressed, report.suppressed);
    obs::add(Counter::LintRelinted, report.procs_linted as u64);
    obs::add(Counter::LintReused, report.procs_cached as u64);
    report
}

/// One contained per-procedure evaluation.
fn lint_procedure(inputs: &ProcInputs<'_>) -> Result<ProcLint, String> {
    catch_unwind(AssertUnwindSafe(|| rules::lint_proc(inputs))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "unknown panic".to_string());
        format!("lint rules panicked: {msg}")
    })
}
