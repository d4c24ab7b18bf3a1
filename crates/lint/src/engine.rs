//! The lint driver: per-procedure evaluation with content-hash caching,
//! optional parallelism, panic containment, and deterministic merging.

use crate::cache::LintCache;
use crate::rules::{self, ProcLint};
use crate::LintReport;
use araa::{Analysis, Degradation};
use ipa::callgraph::display_name;
use std::panic::{catch_unwind, AssertUnwindSafe};
use support::hash::StableHasher;
use support::idx::Idx;
use support::obs::{self, Counter};
use whirl::{ProcId, StIdx};

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

/// Lints `analysis` without a persistent cache.
pub fn run(analysis: &Analysis, opts: &LintOptions) -> LintReport {
    let mut cache = LintCache::empty();
    run_with_cache(analysis, opts, &mut cache)
}

/// Lints `analysis` through `cache`: procedures whose lint-relevant hash
/// is unchanged reuse their cached findings; only the rest re-lint. The
/// caller decides where the cache lives (see [`LintCache::load`]/
/// [`LintCache::save`]).
pub fn run_with_cache(
    analysis: &Analysis,
    opts: &LintOptions,
    cache: &mut LintCache,
) -> LintReport {
    let _span = obs::span("lint.run");
    let n = analysis.program.procedure_count();
    let names: Vec<String> = (0..n)
        .map(|i| {
            let id = ProcId::from_usize(i);
            display_name(&analysis.program, analysis.program.procedure(id))
        })
        .collect();
    let hashes: Vec<u64> =
        (0..n).map(|i| proc_lint_hash(analysis, ProcId::from_usize(i))).collect();

    let mut per_proc: Vec<Option<ProcLint>> = vec![None; n];
    let mut to_run: Vec<usize> = Vec::new();
    let mut cached = 0usize;
    for i in 0..n {
        match cache.lookup(&names[i], hashes[i]) {
            Some(hit) => {
                per_proc[i] = Some(hit);
                cached += 1;
            }
            None => to_run.push(i),
        }
    }

    let mut degradations: Vec<Degradation> = Vec::new();
    // Each procedure runs behind `catch_unwind`, so one malformed
    // procedure degrades alone.
    let results = support::par::map(&to_run, opts.threads, |&i| {
        (i, lint_procedure(analysis, ProcId::from_usize(i)))
    });
    for (i, res) in results {
        match res {
            Ok(lint) => {
                cache.insert(&names[i], hashes[i], lint.clone());
                per_proc[i] = Some(lint);
            }
            Err(detail) => degradations.push(Degradation {
                proc: names[i].clone(),
                stage: "lint".to_string(),
                detail,
            }),
        }
    }

    let mut report = LintReport {
        procs_linted: to_run.len() - degradations.len(),
        procs_cached: cached,
        ..Default::default()
    };
    for lint in per_proc.into_iter().flatten() {
        report.findings.extend(lint.findings);
        report.suppressed += lint.suppressed;
    }
    // DST-03 needs cross-procedure USE hulls, so it re-runs over the rows
    // each time (cheap) instead of going through the per-procedure cache.
    let dead = rules::dead_stores(analysis);
    report.findings.extend(dead.findings);
    report.suppressed += dead.suppressed;
    report.degradations = degradations;
    report.finish();

    obs::add(Counter::LintFindings, report.findings.len() as u64);
    obs::add(Counter::LintFindingsDefinite, report.definite_count() as u64);
    obs::add(Counter::LintFindingsPossible, report.possible_count() as u64);
    obs::add(Counter::LintSuppressed, report.suppressed);
    obs::add(Counter::LintCached, report.procs_cached as u64);
    obs::add(Counter::LintRelinted, report.procs_linted as u64);
    report
}

/// One contained per-procedure evaluation.
fn lint_procedure(analysis: &Analysis, id: ProcId) -> Result<ProcLint, String> {
    catch_unwind(AssertUnwindSafe(|| rules::lint_proc(analysis, id))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "unknown panic".to_string());
        format!("lint rules panicked: {msg}")
    })
}

/// Content hash of everything the per-procedure rules read: the
/// procedure's identity, its post-IPA summary (regions, lines, modes,
/// provenance), its call sites with their actuals, and the declared types
/// of every symbol involved. Hash-equal procedures lint identically, so
/// the cache can serve them; collisions cost a wrong *reuse*, which is
/// why the cache also stores and compares the procedure name.
pub fn proc_lint_hash(analysis: &Analysis, id: ProcId) -> u64 {
    let program = &analysis.program;
    let proc = program.procedure(id);
    let mut h = StableHasher::new();
    h.write_str(&display_name(program, proc));
    h.write_str(program.name_of(proc.file));
    h.write_u8(matches!(proc.lang, whirl::Lang::C) as u8);
    h.write_usize(proc.formals.len());
    for &f in &proc.formals {
        hash_symbol(&mut h, analysis, f);
    }
    for rec in &analysis.ipa.summary(id).accesses {
        h.write_u8(match rec.mode {
            regions::access::AccessMode::Use => 0,
            regions::access::AccessMode::Def => 1,
            regions::access::AccessMode::Formal => 2,
            regions::access::AccessMode::Passed => 3,
        });
        hash_symbol(&mut h, analysis, rec.array);
        h.write_str(&rec.region.render(&|v| rec.space.name(v, &program.interner)));
        h.write_u32(rec.line);
        h.write_u8(rec.remote as u8);
        h.write_u8(rec.approx as u8);
        h.write_str(rec.precision.as_str());
        match rec.from_call {
            Some(c) => {
                h.write_u8(1);
                h.write_str(&display_name(program, program.procedure(c)));
            }
            None => h.write_u8(0),
        }
    }
    for site in analysis.callgraph.calls(id) {
        let callee = program.procedure(site.callee);
        h.write_str(&display_name(program, callee));
        h.write_u32(site.line);
        h.write_usize(site.array_actuals.len());
        for (pos, act) in site.array_actuals.iter().enumerate() {
            match act {
                Some(st) => {
                    h.write_u8(1);
                    hash_symbol(&mut h, analysis, *st);
                    // SHP/ALI also read the callee's formal declaration.
                    if let Some(&f) = callee.formals.get(pos) {
                        hash_symbol(&mut h, analysis, f);
                    }
                }
                None => h.write_u8(0),
            }
        }
    }
    h.finish()
}

fn hash_symbol(h: &mut StableHasher, analysis: &Analysis, st: StIdx) {
    let program = &analysis.program;
    let e = program.symbols.get(st);
    h.write_str(program.name_of(e.name));
    h.write_u8(match e.class {
        whirl::StClass::Global => 0,
        whirl::StClass::Local => 1,
        whirl::StClass::Formal => 2,
        whirl::StClass::Proc => 3,
    });
    h.write_i64(program.types.element_size(e.ty));
    let bounds = program.types.dim_bounds(e.ty);
    h.write_usize(bounds.len());
    for b in bounds {
        match b {
            whirl::DimBound::Const { lb, ub } => {
                h.write_u8(1);
                h.write_i64(lb);
                h.write_i64(ub);
            }
            whirl::DimBound::Runtime => h.write_u8(0),
        }
    }
}
