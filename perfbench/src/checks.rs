//! Output checks: the paper's Table II/III facts on `lu_paper`, the
//! seeded defects on `irregular_600`, and a clean report on `synth_1k`.

use crate::gen::Defect;
use araa::Analysis;
use lint::{LintReport, Severity};
use regions::access::{AccessMode, Precision};

/// Table II (`xcr` USE in `verify`: refs 4, region 1:5, AD 10) and
/// Table III (`u` USE in `rhs`: 110 rows of refs 110 over `64|65|65|5`).
pub fn lu_tables(a: &Analysis) -> Result<(), String> {
    let xcr: Vec<_> = a
        .rows_for_proc("verify")
        .into_iter()
        .filter(|r| r.array == "xcr" && r.mode == AccessMode::Use)
        .collect();
    let xcr_ok = xcr.len() == workloads::mini_lu::XCR_USE_REFS
        && xcr.iter().all(|r| {
            r.refs == 4 && (r.lb.as_str(), r.ub.as_str()) == ("1", "5") && r.acc_density == 10
        });
    if !xcr_ok {
        return Err(format!("Table II: xcr USE rows differ: {xcr:?}"));
    }
    let u: Vec<_> = a
        .rows_for_proc("rhs")
        .into_iter()
        .filter(|r| r.array == "u" && r.mode == AccessMode::Use)
        .collect();
    let u_ok = u.len() == workloads::mini_lu::U_USE_REFS
        && u.iter()
            .all(|r| r.refs == 110 && r.dim_size == "64|65|65|5");
    if !u_ok {
        return Err(format!(
            "Table III: {} u USE rows, expected 110 of refs 110",
            u.len()
        ));
    }
    Ok(())
}

/// Exactly the seeded defects, each at its seeded line, and no `definite`
/// finding resting on interval (or unbounded) evidence.
pub fn seeded_defects(report: &LintReport, defects: &[Defect]) -> Result<(), String> {
    let mut found: Vec<(String, String, u32, String)> = report
        .findings
        .iter()
        .map(|f| {
            (
                f.rule.id().to_string(),
                f.file.clone(),
                f.line,
                f.array.clone(),
            )
        })
        .collect();
    let mut want: Vec<(String, String, u32, String)> = defects
        .iter()
        .map(|d| (d.rule.to_string(), d.file.clone(), d.line, d.array.clone()))
        .collect();
    found.sort();
    want.sort();
    if found != want {
        let missing: Vec<_> = want.iter().filter(|w| !found.contains(w)).take(3).collect();
        let extra: Vec<_> = found.iter().filter(|f| !want.contains(f)).take(3).collect();
        return Err(format!(
            "{} findings for {} seeded defects; missing {missing:?}, extra {extra:?}",
            found.len(),
            want.len()
        ));
    }
    if let Some(f) = report
        .findings
        .iter()
        .find(|f| f.severity == Severity::Definite && f.precision >= Precision::Interval)
    {
        return Err(format!("definite finding on interval evidence: {f}"));
    }
    clean_lint(report)
}

/// No lint degradation.
pub fn clean_lint(report: &LintReport) -> Result<(), String> {
    match report.degradations.first() {
        Some(d) => Err(format!("lint degraded: {d}")),
        None => Ok(()),
    }
}

/// No analysis degradation.
pub fn clean_analysis(a: &Analysis) -> Result<(), String> {
    match a.degradations.first() {
        Some(d) => Err(format!("analysis degraded: {d}")),
        None => Ok(()),
    }
}
