//! DST-03 against a reference: the one-pass dead-store rule must report
//! exactly the findings and `suppressed` count of the straightforward
//! grouping it replaced (kept below as `reference`), over seeded row
//! tables. The tables mix locals, formals, 1-D and 2-D globals, global
//! groups whose rows disagree on rank, remote and `via` rows, symbolic
//! bounds, and two procedures sharing the display name `MAIN__`.
//!
//! The case count defaults to a fraction of a second's worth; set
//! `PROPTEST_CASES` to run more.

use araa::{Analysis, AnalysisOptions, RgnRow};
use ipa::callgraph::display_name;
use lint::{rules, Finding, Rule, Severity};
use proptest::prelude::*;
use regions::access::{AccessMode, Precision};
use regions::triplet::Triplet;
use std::collections::BTreeMap;
use workloads::GenSource;

/// The dead-store rule as it stood before the one-pass version: group every
/// row by an owned `(scope, array)` key after a PGAS pre-pass, then judge
/// each group.
fn reference(a: &Analysis) -> rules::ProcLint {
    let mut out = rules::ProcLint::default();
    let mut groups: BTreeMap<(String, String), Vec<&RgnRow>> = BTreeMap::new();
    let pgas_procs: std::collections::BTreeSet<&str> = a
        .rows
        .iter()
        .filter(|r| r.remote)
        .map(|r| r.proc.as_str())
        .collect();
    for row in &a.rows {
        if row.remote || pgas_procs.contains(row.proc.as_str()) {
            continue;
        }
        let scope = if row.is_global {
            "@".to_string()
        } else {
            row.proc.clone()
        };
        groups
            .entry((scope, row.array.clone()))
            .or_default()
            .push(row);
    }
    for ((scope, array), rows) in groups {
        let is_global = scope == "@";
        let is_formal_scope = rows.iter().any(|r| r.mode == AccessMode::Formal);
        let uses: Vec<&&RgnRow> = rows.iter().filter(|r| r.mode == AccessMode::Use).collect();
        let defs: Vec<&&RgnRow> = rows
            .iter()
            .filter(|r| r.mode == AccessMode::Def && r.via.is_none())
            .collect();
        if !is_global && !is_formal_scope && uses.is_empty() {
            let all_defs: Vec<&&RgnRow> =
                rows.iter().filter(|r| r.mode == AccessMode::Def).collect();
            if let Some(first) = all_defs.iter().min_by_key(|r| r.line) {
                out.findings.push(Finding {
                    rule: Rule::Dst03,
                    severity: Severity::Definite,
                    file: source_file_of(a, &first.proc),
                    line: first.line,
                    proc: first.proc.clone(),
                    array: array.clone(),
                    precision: first.precision,
                    message: format!("local array `{array}` is written but never read"),
                });
            }
            continue;
        }
        if is_formal_scope || uses.is_empty() {
            continue;
        }
        let use_trips: Option<Vec<Triplet>> = uses.iter().map(|r| row_triplet_1d(r)).collect();
        let Some(use_trips) = use_trips else { continue };
        for def in defs {
            let Some(dt) = row_triplet_1d(def) else {
                continue;
            };
            let Some(count) = dt.count() else { continue };
            if count == 0 || count > 65_536 {
                continue;
            }
            let Some(elems) = dt.iter() else { continue };
            let dead: Vec<i64> = elems
                .filter(|&e| !use_trips.iter().any(|u| u.contains(e) == Some(true)))
                .collect();
            if dead.is_empty() {
                continue;
            }
            let span = if dead.len() == 1 {
                format!("element {}", dead[0])
            } else {
                format!("elements {}..{}", dead[0], dead[dead.len() - 1])
            };
            let (severity, verb) = if def.precision >= Precision::Interval {
                (Severity::Possible, "may be")
            } else if dead.len() == 1 {
                (Severity::Definite, "is")
            } else {
                (Severity::Definite, "are")
            };
            out.findings.push(Finding {
                rule: Rule::Dst03,
                severity,
                file: source_file_of(a, &def.proc),
                line: def.line,
                proc: def.proc.clone(),
                array: array.clone(),
                precision: def.precision,
                message: format!("{span} of `{array}` {verb} written here but never read anywhere"),
            });
        }
    }
    out
}

fn row_triplet_1d(row: &RgnRow) -> Option<Triplet> {
    if row.dims != 1 {
        return None;
    }
    let lb = lint::facts::parse_bounds(&row.lb)?;
    let ub = lint::facts::parse_bounds(&row.ub)?;
    let stride = lint::facts::parse_bounds(&row.stride)?;
    if lb.len() != 1 || ub.len() != 1 || stride.len() != 1 {
        return None;
    }
    Some(Triplet::constant(lb[0], ub[0], stride[0].max(1)))
}

fn source_file_of(a: &Analysis, proc: &str) -> String {
    for p in a.program.procedures.iter() {
        if display_name(&a.program, p) == proc {
            return a.program.name_of(p.file).to_string();
        }
    }
    proc.to_string()
}

/// SplitMix64: every choice of one case derives from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// A program whose procedures give the rows their source files: `main` and
/// `applu` both display as `MAIN__`, in different files. Rows may also name
/// `ghost`, which no procedure has.
fn program() -> Analysis {
    let srcs = [
        GenSource::fortran("m.f", "program main\n  call p\n  call q\nend\n"),
        GenSource::fortran("x.f", "subroutine applu\nend\n"),
        GenSource::fortran("p.f", "subroutine p\nend\n"),
        GenSource::fortran("q.f", "subroutine q\nend\n"),
    ];
    Analysis::analyze(&srcs, AnalysisOptions::default()).expect("analysis")
}

/// One bound column: mostly small constants, sometimes symbolic.
fn bound(rng: &mut Rng, dims: u8, lo: bool) -> String {
    let one = |rng: &mut Rng| match rng.below(8) {
        0 => "MESSY".to_string(),
        1 => "$n".to_string(),
        _ if lo => (1 + rng.below(6)).to_string(),
        _ => (3 + rng.below(8)).to_string(),
    };
    let parts: Vec<String> = (0..dims).map(|_| one(rng)).collect();
    parts.join("|")
}

fn row(rng: &mut Rng) -> RgnRow {
    let is_global = rng.below(2) == 0;
    let array = if is_global {
        rng.pick(&["g1", "g2", "x"])
    } else {
        rng.pick(&["x", "t", "u"])
    };
    // 2-D rows are rarer, so a global group mixes ranks now and then.
    let dims = if rng.below(4) == 0 { 2 } else { 1 };
    let mode = [
        AccessMode::Use,
        AccessMode::Def,
        AccessMode::Def,
        AccessMode::Formal,
        AccessMode::Passed,
    ][rng.below(5)];
    let stride = match rng.below(6) {
        0 => "2".to_string(),
        1 => "$s".to_string(),
        _ => vec!["1"; dims as usize].join("|"),
    };
    RgnRow {
        proc: rng.pick(&["MAIN__", "p", "q", "ghost"]).to_string(),
        array: array.to_string(),
        mode,
        dims,
        lb: bound(rng, dims, true),
        ub: bound(rng, dims, false),
        stride,
        via: (rng.below(4) == 0).then(|| rng.pick(&["p", "q"]).to_string()),
        line: 1 + rng.below(30) as u32,
        is_global,
        remote: rng.below(12) == 0,
        precision: [
            Precision::Exact,
            Precision::AffineApprox,
            Precision::Interval,
            Precision::Unbounded,
        ][rng.below(4)],
        ..RgnRow::default()
    }
}

fn sorted(mut f: Vec<Finding>) -> Vec<Finding> {
    f.sort();
    f
}

fn check(seed: u64, a: &mut Analysis) {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(40);
    a.rows = (0..n).map(|_| row(&mut rng)).collect();
    let want = reference(a);
    let got = rules::dead_stores(a);
    assert_eq!(
        sorted(got.findings),
        sorted(want.findings),
        "seed {seed}: {:#?}",
        a.rows
    );
    assert_eq!(got.suppressed, want.suppressed, "seed {seed}");
}

#[test]
fn the_tables_exercise_every_verdict() {
    // Over a fixed run of seeds the reference fires both cases, so the
    // comparison below is not vacuous.
    let mut a = program();
    let (mut unread, mut partial) = (0, 0);
    for seed in 0..200 {
        let mut rng = Rng(seed);
        let n = 1 + rng.below(40);
        a.rows = (0..n).map(|_| row(&mut rng)).collect();
        for f in reference(&a).findings {
            if f.message.contains("never read anywhere") {
                partial += 1;
            } else {
                unread += 1;
            }
        }
        check(seed, &mut a);
    }
    assert!(
        unread > 0 && partial > 0,
        "{unread} written-never-read, {partial} partly dead"
    );
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A seeded row table: the one-pass rule equals the reference.
    #[test]
    fn dead_stores_match_the_reference(seed in 0u64..u64::MAX) {
        check(seed, &mut program());
    }
}
