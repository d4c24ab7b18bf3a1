//! The five lint rules.
//!
//! `OOB-01`, `UBD-02` (local part), `SHP-04` and `ALI-05` evaluate per
//! procedure over the post-IPA summaries — so every propagated
//! formal→actual record participates and interprocedural-only violations
//! surface at the call line. `DST-03` needs cross-procedure USE hulls (a
//! global defined here may be read anywhere), so it runs as one global
//! pass over the extracted [`RgnRow`]s.
//!
//! Severity discipline, applied uniformly:
//!
//! - **Definite** — constant region arithmetic proves the violation
//!   (normalized triplet bounds, exact stride-aware containment), or
//!   Fourier–Motzkin proves it on the convex companion;
//! - **Possible** — the access was *bounded* (FM gave a finite bound, or
//!   the shapes are declared) but the violation could not be refuted;
//! - **silent** — the region is symbolic and unbounded; reporting would
//!   be guesswork, so nothing fires (zero false positives beats recall);
//! - refuted candidates increment the `suppressed` count instead.

use crate::inputs::ProcInputs;
use crate::{Finding, Rule, Severity};
use araa::{Analysis, RgnRow};
use ipa::callgraph::display_name;
use ipa::{AccessRecord, ProcSummary};
use regions::access::{AccessMode, Precision};
use regions::triplet::Triplet;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use whirl::lower::source_dim;
use whirl::{DimBound, Lang, ProcId, StClass, StIdx};

/// The per-procedure lint result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcLint {
    /// Findings anchored in (or at call sites of) this procedure.
    pub findings: Vec<Finding>,
    /// Candidates refuted by FM or exact footprint arithmetic.
    pub suppressed: u64,
}

/// Upper bound on per-region element enumeration in the exact coverage
/// checks; larger constant regions fall back to hull reasoning.
const ELEMENT_CAP: u64 = 65_536;

/// Runs the per-procedure rules on one procedure's inputs. May panic on
/// malformed input — callers contain it (see `engine::lint_procedure`).
pub fn lint_proc(p: &ProcInputs<'_>) -> ProcLint {
    support::faultpoint::hit("lint::contain");
    let mut out = ProcLint::default();
    oob(p, &mut out);
    ubd(p, &mut out);
    shp(p, &mut out);
    ali(p, &mut out);
    naf(p, &mut out);
    out
}

/// True when a record's region is only an interval (or worse) over-
/// approximation: such a region may *refute* a violation (everything the
/// access touches lies inside it) but can never *prove* one, so every
/// finding it feeds is capped at [`Severity::Possible`].
fn interval_or_worse(rec: &AccessRecord) -> bool {
    rec.precision >= Precision::Interval
}

/// A finding of `rule` anchored in the procedure `p` reads.
fn finding(
    p: &ProcInputs<'_>,
    rule: Rule,
    severity: Severity,
    line: u32,
    array: &str,
    precision: Precision,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity,
        file: p.file().to_string(),
        line,
        proc: p.name().to_string(),
        array: array.to_string(),
        precision,
        message,
    }
}

/// The last element a normalized `lo..=hi` step-`step` range accesses.
fn last_accessed(lo: i64, hi: i64, step: i64) -> i64 {
    if step > 1 && hi > lo {
        lo + ((hi - lo) / step) * step
    } else {
        hi
    }
}

/// Whether a declaration fits an `n`-dimensional region: same rank, at
/// least one dimension, and no runtime-sized dimension.
fn const_rank(declared: &[DimBound], n: usize) -> bool {
    n > 0 && declared.len() == n && declared.iter().all(|d| matches!(d, DimBound::Const { .. }))
}

/// The declared extent of H (row-major) dimension `hd` of an
/// `n`-dimensional region, for a declaration [`const_rank`] admits.
fn h_extent(declared: &[DimBound], lang: Lang, n: usize, hd: usize) -> i64 {
    match declared[source_dim(lang, n, hd)] {
        DimBound::Const { lb, ub } => (ub - lb + 1).max(0),
        DimBound::Runtime => 0,
    }
}

/// The ` via call to `callee`` suffix of a propagated record's message.
struct Via<'a>(Option<&'a str>);

impl fmt::Display for Via<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(callee) => write!(f, " via call to `{callee}`"),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// OOB-01: accessed region exceeds the declared extents
// ---------------------------------------------------------------------------

fn oob(p: &ProcInputs<'_>, out: &mut ProcLint) {
    for rec in &p.summary().accesses {
        if !rec.mode.moves_data() || rec.remote || rec.approx {
            continue;
        }
        let n = rec.region.ndims();
        let declared = p.types().dim_bounds(p.ty(rec.array));
        if !const_rank(declared, n) {
            continue;
        }
        // The region follows the dimension order of the procedure that
        // built it: the callee, for a propagated record.
        let lang = p.lang(rec.from_call);
        let via = || Via(rec.from_call.map(|c| p.proc_name(c)));
        let verb = if rec.mode == AccessMode::Def { "written" } else { "read" };
        for (hd, trip) in rec.region.dims.iter().enumerate() {
            let ext = h_extent(declared, lang, n, hd);
            if ext <= 0 {
                continue;
            }
            match trip.as_const() {
                Some((lo, hi, step)) => {
                    let last = last_accessed(lo, hi, step.max(1));
                    if lo < 0 || last > ext - 1 {
                        // An interval-recovered region over-approximates:
                        // exceeding the extents is suspicion, not proof.
                        let (severity, hedge) = if interval_or_worse(rec) {
                            (Severity::Possible, "may be")
                        } else {
                            (Severity::Definite, "is")
                        };
                        let array = p.array_name(rec.array);
                        let message = format!(
                            "`{array}` {hedge} {verb} at [{lo}:{last}] (zero-based) but \
                             dimension {hd} declares only [0:{}]{}",
                            ext - 1,
                            via()
                        );
                        out.findings.push(finding(
                            p,
                            Rule::Oob01,
                            severity,
                            rec.line,
                            array,
                            rec.precision,
                            message,
                        ));
                    } else if interval_or_worse(rec) {
                        // The over-approximation fits the declaration, so
                        // the real accesses do too: candidate refuted.
                        out.suppressed += 1;
                    }
                }
                None => {
                    // Symbolic bound: ask the convex companion for a proof
                    // either way. No bound ⇒ silent.
                    let Some(cx) = &rec.convex else { continue };
                    let Some((lo_b, hi_b)) = cx.dim_bounds(hd as u8) else { continue };
                    let lo_ok = lo_b.is_some_and(|lo| lo >= 0);
                    let hi_ok = hi_b.is_some_and(|hi| hi < ext);
                    if lo_ok && hi_ok {
                        out.suppressed += 1; // FM refuted the candidate
                    } else if hi_b.is_some_and(|hi| hi > ext - 1)
                        || lo_b.is_some_and(|lo| lo < 0)
                    {
                        let array = p.array_name(rec.array);
                        let message = format!(
                            "`{array}` may be {verb} outside dimension {hd}'s declared \
                             [0:{}] (FM bounds the access to [{}:{}]){}",
                            ext - 1,
                            lo_b.map_or("-inf".into(), |v| v.to_string()),
                            hi_b.map_or("+inf".into(), |v| v.to_string()),
                            via()
                        );
                        out.findings.push(finding(
                            p,
                            Rule::Oob01,
                            Severity::Possible,
                            rec.line,
                            array,
                            rec.precision,
                            message,
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// UBD-02: a USE of a local array no DEF reaches
// ---------------------------------------------------------------------------

fn ubd(p: &ProcInputs<'_>, out: &mut ProcLint) {
    let proc = p.name();
    let mut per: BTreeMap<StIdx, (Vec<&AccessRecord>, Vec<&AccessRecord>, bool)> =
        BTreeMap::new();
    // Arrays with coindexed (PGAS) accesses: a sibling image's symmetric
    // copy of this code may write our local memory remotely, so "no local
    // DEF" is not evidence of an uninitialized read.
    let mut pgas: BTreeSet<StIdx> = Default::default();
    for rec in &p.summary().accesses {
        if rec.remote {
            pgas.insert(rec.array);
            continue;
        }
        // Only procedure-locals: a global's definitions can live anywhere
        // in the program, and a formal's reach is the caller's business.
        if p.class(rec.array) != StClass::Local {
            continue;
        }
        let slot = per.entry(rec.array).or_default();
        match rec.mode {
            AccessMode::Use => slot.0.push(rec),
            AccessMode::Def => slot.1.push(rec),
            _ => {}
        }
        slot.2 |= rec.approx;
    }
    for (st, (uses, defs, approx)) in per {
        if uses.is_empty() || approx || pgas.contains(&st) {
            continue;
        }
        let array = p.array_name(st);
        if defs.is_empty() {
            // Nothing — not even a callee reached through this procedure —
            // ever writes the array, yet it is read.
            let line = uses.iter().map(|u| u.line).min().unwrap_or(0);
            let severity = if uses.iter().any(|u| u.region.is_const() && !interval_or_worse(u))
            {
                Severity::Definite
            } else {
                Severity::Possible
            };
            let worst =
                uses.iter().map(|u| u.precision).fold(Precision::Exact, Precision::worst);
            let message = format!(
                "local array `{array}` is read but never written \
                 (no DEF in `{proc}` or any procedure it calls)"
            );
            out.findings.push(finding(p, Rule::Ubd02, severity, line, array, worst, message));
            continue;
        }
        // Interval-recovered DEF regions over-approximate what is actually
        // written: they can neither grant coverage credit nor be proven
        // disjoint-from, so they are excluded from the exact check and
        // their presence caps every verdict at Possible.
        let exact_defs: Vec<&AccessRecord> =
            defs.iter().copied().filter(|d| !interval_or_worse(d)).collect();
        let has_interval_def = exact_defs.len() != defs.len();
        for u in &uses {
            let capped = has_interval_def || interval_or_worse(u);
            let worst = defs.iter().map(|d| d.precision).fold(u.precision, Precision::worst);
            match uncovered_element(u, &exact_defs) {
                CoverVerdict::Uncovered(e) => {
                    let (severity, message) = if capped {
                        (
                            Severity::Possible,
                            format!(
                                "element {e} (zero-based) of local array `{array}` may \
                                 be read before any DEF writes it (only interval-\
                                 approximate regions reach it)"
                            ),
                        )
                    } else {
                        (
                            Severity::Definite,
                            format!(
                                "element {e} (zero-based) of local array `{array}` is read \
                                 but no DEF ever writes it"
                            ),
                        )
                    };
                    let f = finding(p, Rule::Ubd02, severity, u.line, array, worst, message);
                    out.findings.push(f);
                }
                CoverVerdict::DisjointFromAllDefs => {
                    let (severity, adverb) = if capped {
                        (Severity::Possible, "possibly")
                    } else {
                        (Severity::Definite, "provably")
                    };
                    let message = format!(
                        "the region of local array `{array}` read here is {adverb} \
                         disjoint from every DEF of the array"
                    );
                    let f = finding(p, Rule::Ubd02, severity, u.line, array, worst, message);
                    out.findings.push(f);
                }
                CoverVerdict::Covered => out.suppressed += 1,
                CoverVerdict::Unknown => {}
            }
        }
    }
}

enum CoverVerdict {
    /// A specific element is read and provably never defined.
    Uncovered(i64),
    /// The whole use region is provably disjoint from every def.
    DisjointFromAllDefs,
    /// Every read element is provably defined (candidate refuted).
    Covered,
    /// Could not decide.
    Unknown,
}

/// Exact, stride-aware coverage of one USE against a set of DEFs.
fn uncovered_element(u: &AccessRecord, defs: &[&AccessRecord]) -> CoverVerdict {
    // 1-D constant regions: enumerate the read elements (capped) and check
    // each against every def triplet.
    if u.region.ndims() == 1 && u.region.is_const() {
        let trip = &u.region.dims[0];
        if let Some(count) = trip.count() {
            if count > 0 && count <= ELEMENT_CAP {
                let const_defs: Vec<&Triplet> = defs
                    .iter()
                    .filter(|d| d.region.ndims() == 1 && d.region.is_const())
                    .map(|d| &d.region.dims[0])
                    .collect();
                if const_defs.len() == defs.len() {
                    if let Some(elems) = trip.iter() {
                        for e in elems {
                            let covered = const_defs
                                .iter()
                                .any(|d| d.contains(e) == Some(true));
                            if !covered {
                                return CoverVerdict::Uncovered(e);
                            }
                        }
                        return CoverVerdict::Covered;
                    }
                }
            }
        }
    }
    // Constant multi-dim (or oversized 1-D): disjointness is still exact.
    if u.region.is_const() {
        let all_disjoint = defs
            .iter()
            .all(|d| u.region.disjoint_from(&d.region) == Some(true));
        if all_disjoint && !defs.is_empty() {
            return CoverVerdict::DisjointFromAllDefs;
        }
        return CoverVerdict::Unknown;
    }
    // Symbolic: only an FM proof either way counts.
    if let Some(ucx) = &u.convex {
        if defs
            .iter()
            .any(|d| d.convex.as_ref().is_some_and(|dcx| dcx.contains_region(ucx)))
        {
            return CoverVerdict::Covered;
        }
        let proven_disjoint = !defs.is_empty()
            && defs.iter().all(|d| {
                d.convex.as_ref().is_some_and(|dcx| dcx.disjoint_from(ucx))
            });
        if proven_disjoint {
            return CoverVerdict::DisjointFromAllDefs;
        }
    }
    CoverVerdict::Unknown
}

// ---------------------------------------------------------------------------
// SHP-04: a call-site actual smaller than the callee's footprint
// ---------------------------------------------------------------------------

fn shp(p: &ProcInputs<'_>, out: &mut ProcLint) {
    let types = p.types();
    for site in p.sites() {
        for (pos, act) in site.array_actuals.iter().enumerate() {
            let Some(actual) = *act else { continue };
            let Some(&formal) = site.callee_formals.get(pos) else { continue };
            let fty = p.ty(formal);
            if types.num_dims(fty) == 0 {
                continue;
            }
            let actual_bytes = types.size_bytes(p.ty(actual));
            if actual_bytes <= 0 {
                continue; // runtime-sized actual: nothing to compare against
            }
            let elem = types.element_size(fty).abs();
            if elem == 0 {
                continue;
            }
            // The callee's post-IPA footprint through this formal (its own
            // accesses plus everything its descendants do to it).
            let mut max_linear: Option<i64> = Some(-1);
            let mut touched = false;
            let mut worst = Precision::Exact;
            for rec in site.callee_summary.for_array(formal) {
                if !rec.mode.moves_data() || rec.remote {
                    continue;
                }
                touched = true;
                worst = worst.worst(rec.precision);
                if rec.approx {
                    max_linear = None;
                    break;
                }
                match (linear_extent(p, site.callee, rec), &mut max_linear) {
                    (Some(m), Some(acc)) => *acc = (*acc).max(m),
                    _ => {
                        max_linear = None;
                        break;
                    }
                }
            }
            if !touched {
                continue;
            }
            let aname = p.array_name(actual);
            let fname = p.array_name(formal);
            let cname = p.proc_name(site.callee);
            match max_linear {
                Some(m) => {
                    let need = (m + 1) * elem;
                    if need > actual_bytes {
                        // An interval-precision footprint over-states what
                        // the callee touches: exceeding is only suspicion.
                        let (severity, verb) = if worst >= Precision::Interval {
                            (Severity::Possible, "may access up to")
                        } else {
                            (Severity::Definite, "accesses")
                        };
                        let message = format!(
                            "call to `{cname}` passes `{aname}` ({actual_bytes} \
                             bytes) but the callee {verb} {need} bytes through \
                             formal `{fname}`"
                        );
                        out.findings.push(finding(
                            p,
                            Rule::Shp04,
                            severity,
                            site.line,
                            aname,
                            worst,
                            message,
                        ));
                    } else if types.size_bytes(fty) > actual_bytes {
                        // Declared shapes mismatch, but the footprint proof
                        // shows every access fits: refuted. (Sound even for
                        // interval footprints — over-approximations that fit
                        // imply the real accesses fit.)
                        out.suppressed += 1;
                    }
                }
                None => {
                    let fbytes = types.size_bytes(fty);
                    if fbytes > actual_bytes {
                        let message = format!(
                            "call to `{cname}` passes `{aname}` ({actual_bytes} \
                             bytes) where formal `{fname}` declares {fbytes} bytes \
                             and the accessed footprint could not be bounded"
                        );
                        out.findings.push(finding(
                            p,
                            Rule::Shp04,
                            Severity::Possible,
                            site.line,
                            aname,
                            worst,
                            message,
                        ));
                    }
                }
            }
        }
    }
}

/// Largest zero-based linear element index a constant record reaches,
/// linearized through the accessed array's own declared extents. `None`
/// when the region is symbolic or the declaration is runtime-sized.
fn linear_extent(p: &ProcInputs<'_>, owner: ProcId, rec: &AccessRecord) -> Option<i64> {
    let n = rec.region.ndims();
    let lang = p.lang(Some(rec.from_call.unwrap_or(owner)));
    let declared = p.types().dim_bounds(p.ty(rec.array));
    if !const_rank(declared, n) {
        return None;
    }
    let mut max = 0i64;
    for (hd, trip) in rec.region.dims.iter().enumerate() {
        let (lo, hi, step) = trip.as_const()?;
        let last = last_accessed(lo, hi, step.max(1));
        // Row-major: the product of the later dimensions' extents.
        let stride = ((hd + 1)..n)
            .rev()
            .fold(1i64, |s, k| s.saturating_mul(h_extent(declared, lang, n, k).max(1)));
        max += last.max(lo) * stride;
    }
    Some(max)
}

// ---------------------------------------------------------------------------
// ALI-05: the same memory reaches a callee under two names
// ---------------------------------------------------------------------------

fn ali(p: &ProcInputs<'_>, out: &mut ProcLint) {
    for site in p.sites() {
        let callee_sum = site.callee_summary;
        let cname = p.proc_name(site.callee);
        // (a) the same actual bound to two different array formals.
        for i in 0..site.array_actuals.len() {
            let Some(act_i) = site.array_actuals[i] else { continue };
            for j in (i + 1)..site.array_actuals.len() {
                if site.array_actuals[j] != Some(act_i) {
                    continue;
                }
                let (Some(&fi), Some(&fj)) =
                    (site.callee_formals.get(i), site.callee_formals.get(j))
                else {
                    continue;
                };
                let recs_i: Vec<&AccessRecord> = moving(callee_sum, fi).collect();
                let recs_j: Vec<&AccessRecord> = moving(callee_sum, fj).collect();
                let detail = format!(
                    "call to `{cname}` passes `{}` as both argument {} (formal \
                     `{}`) and argument {} (formal `{}`)",
                    p.array_name(act_i),
                    i + 1,
                    p.array_name(fi),
                    j + 1,
                    p.array_name(fj),
                );
                report_alias(p, &recs_i, &recs_j, &detail, (site.line, p.array_name(act_i)), out);
            }
        }
        // (b) a global passed as an actual while the callee also touches
        // that global directly.
        for (pos, act) in site.array_actuals.iter().enumerate() {
            let Some(actual) = *act else { continue };
            if p.class(actual) != StClass::Global {
                continue;
            }
            let Some(&formal) = site.callee_formals.get(pos) else { continue };
            if moving(callee_sum, formal).next().is_none()
                || moving(callee_sum, actual).next().is_none()
            {
                continue;
            }
            let via_formal: Vec<&AccessRecord> = moving(callee_sum, formal).collect();
            let direct: Vec<&AccessRecord> = moving(callee_sum, actual).collect();
            let detail = format!(
                "call to `{cname}` passes global `{}` as argument {} (formal `{}`) \
                 while the callee also accesses `{}` directly",
                p.array_name(actual),
                pos + 1,
                p.array_name(formal),
                p.array_name(actual),
            );
            report_alias(p, &via_formal, &direct, &detail, (site.line, p.array_name(actual)), out);
        }
    }
}

/// The records of `sum` that move data of `array` on this image.
fn moving(sum: &ProcSummary, array: StIdx) -> impl Iterator<Item = &AccessRecord> {
    sum.for_array(array).filter(|r| r.mode.moves_data() && !r.remote)
}

/// Decides whether two record sets over the *same memory* conflict: a
/// pair with at least one DEF side that provably overlaps is Definite;
/// one that cannot be refuted is Possible; all pairs refuted increments
/// `suppressed`.
fn report_alias(
    p: &ProcInputs<'_>,
    left: &[&AccessRecord],
    right: &[&AccessRecord],
    detail: &str,
    (line, array): (u32, &str),
    out: &mut ProcLint,
) {
    let mut any_pair = false;
    let mut unknown = false;
    let worst = |l: &AccessRecord, r: &AccessRecord| l.precision.worst(r.precision);
    let mut worst_seen = Precision::Exact;
    for l in left {
        for r in right {
            if l.mode != AccessMode::Def && r.mode != AccessMode::Def {
                continue; // read/read aliasing is harmless
            }
            any_pair = true;
            worst_seen = worst_seen.worst(worst(l, r));
            match alias_overlap(p, l, r) {
                Some(true) => {
                    let message = format!(
                        "{detail}; the two names' accessed regions overlap and \
                         one is written"
                    );
                    out.findings.push(finding(
                        p,
                        Rule::Ali05,
                        Severity::Definite,
                        line,
                        array,
                        worst(l, r),
                        message,
                    ));
                    return;
                }
                Some(false) => {}
                None => unknown = true,
            }
        }
    }
    if !any_pair {
        return;
    }
    if unknown {
        let message = format!(
            "{detail}; a write through one name may overlap accesses through \
             the other"
        );
        let f = finding(p, Rule::Ali05, Severity::Possible, line, array, worst_seen, message);
        out.findings.push(f);
    } else {
        out.suppressed += 1; // every def-involving pair proven disjoint
    }
}

/// Do two records over the same base memory overlap? `Some(true)` /
/// `Some(false)` are proofs; `None` is unknown.
fn alias_overlap(p: &ProcInputs<'_>, l: &AccessRecord, r: &AccessRecord) -> Option<bool> {
    if l.approx || r.approx {
        return None;
    }
    // Same rank and both exact: element-space comparison is exact (our
    // formals alias whole arrays, so element i is element i).
    let le = p.types().element_size(p.ty(l.array)).abs();
    let re = p.types().element_size(p.ty(r.array)).abs();
    if l.region.ndims() == r.region.ndims() && le == re {
        if let Some(d) = l.region.disjoint_from(&r.region) {
            if d {
                // Disjoint over-approximations prove real disjointness
                // regardless of precision.
                return Some(false);
            }
            // Overlap is a proof only for exact/affine regions: interval
            // regions over-approximate, so their overlap may be spurious.
            if !interval_or_worse(l) && !interval_or_worse(r) {
                return Some(true);
            }
            return None;
        }
        if let (Some(lc), Some(rc)) = (&l.convex, &r.convex) {
            if lc.disjoint_from(rc) {
                return Some(false);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// NAF-06: accesses still unbounded after the interval fallback
// ---------------------------------------------------------------------------

/// Flags local accesses whose region neither the affine summarizer nor the
/// interval fallback could bound: the access is invisible to every other
/// rule (they all stay silent on `unbounded` regions), so the user should
/// know the tool is blind there. Always [`Severity::Possible`] — the rule
/// reports a *gap in the analysis*, not a proven defect. Propagated
/// (`from_call`) copies are skipped: the callee's own anchored finding
/// already covers the access. Budget-exhaustion fallbacks (`approx`) are
/// skipped too — they are a resource artifact, not an analysis limit, and
/// would make findings depend on the budget configuration.
fn naf(p: &ProcInputs<'_>, out: &mut ProcLint) {
    for rec in &p.summary().accesses {
        if rec.precision != Precision::Unbounded
            || rec.from_call.is_some()
            || !rec.mode.moves_data()
            || rec.remote
            || rec.approx
        {
            continue;
        }
        let verb = if rec.mode == AccessMode::Def { "written" } else { "read" };
        let array = p.array_name(rec.array);
        let message = format!(
            "`{array}` is {verb} through a subscript neither the affine analysis \
             nor the interval fallback could bound; bounds checks are blind \
             to this access"
        );
        out.findings.push(finding(
            p,
            Rule::Naf06,
            Severity::Possible,
            rec.line,
            array,
            rec.precision,
            message,
        ));
    }
}

// ---------------------------------------------------------------------------
// DST-03: stores no use ever reads (global pass over the extracted rows)
// ---------------------------------------------------------------------------

/// Runs the dead-store rule over the extracted rows, in one pass.
///
/// Globals group program-wide by name (any procedure may read what
/// another wrote); locals and formals group per scope. Only the rows that
/// can change a verdict are grouped: a global group can fire only through
/// a 1-D DEF row that is not a `via` restatement, so its other rows are
/// kept (USE and FORMAL rows, which can veto one) only once such a row
/// is on hand, and PASSED rows decide nothing anywhere.
pub fn dead_stores(a: &Analysis) -> ProcLint {
    let mut out = ProcLint::default();
    // Procedures performing coindexed (PGAS) communication: sibling images
    // run the same code and may consume this image's stores through the
    // symmetric remote accesses, so one image's rows cannot witness that a
    // store is dead. Every row of such a procedure is set aside.
    let mut pgas: BTreeSet<&str> = BTreeSet::new();
    let mut scoped: BTreeMap<(&str, &str), Group<'_>> = BTreeMap::new();
    let mut global_defs: Vec<&RgnRow> = Vec::new();
    let mut global_refs: Vec<&RgnRow> = Vec::new();
    for row in &a.rows {
        if row.remote {
            pgas.insert(&row.proc);
        } else if row.is_global {
            match row.mode {
                AccessMode::Def if row.via.is_none() && row.dims == 1 => global_defs.push(row),
                AccessMode::Use | AccessMode::Formal => global_refs.push(row),
                AccessMode::Def | AccessMode::Passed => {}
            }
        } else if row.mode != AccessMode::Passed {
            scoped.entry((&row.proc, &row.array)).or_default().add(row);
        }
    }
    let mut files = SourceFiles { a, by_name: None };
    for ((scope, array), g) in &scoped {
        if pgas.contains(scope) {
            continue;
        }
        // Case A: a local array written (by this procedure or a callee it
        // passes the array to) and never read anywhere.
        if !g.formal && g.uses.is_empty() {
            if let Some(first) = g.first_def {
                out.findings.push(Finding {
                    rule: Rule::Dst03,
                    severity: Severity::Definite,
                    file: files.of(&first.proc),
                    line: first.line,
                    proc: first.proc.clone(),
                    array: array.to_string(),
                    precision: first.precision,
                    message: format!("local array `{array}` is written but never read"),
                });
            }
            continue;
        }
        unread_stores(array, g, &mut files, &mut out);
    }
    let mut globals: BTreeMap<&str, Group<'_>> = BTreeMap::new();
    for row in global_defs.into_iter().filter(|r| !pgas.contains(r.proc.as_str())) {
        globals.entry(&row.array).or_default().defs.push(row);
    }
    if !globals.is_empty() {
        for row in global_refs {
            if let Some(g) = globals.get_mut(row.array.as_str()) {
                if !pgas.contains(row.proc.as_str()) {
                    g.add(row);
                }
            }
        }
        for (array, g) in &globals {
            unread_stores(array, g, &mut files, &mut out);
        }
    }
    out
}

/// The rows of one dead-store group that can change its verdict.
#[derive(Default)]
struct Group<'r> {
    /// A FORMAL row: the array's remaining elements belong to the caller.
    formal: bool,
    uses: Vec<&'r RgnRow>,
    /// DEF rows that are not `via` restatements: a `via` row restates a
    /// callee's store at the call line, and the store itself is judged in
    /// the scope that owns it.
    defs: Vec<&'r RgnRow>,
    /// The first DEF row of smallest line, `via` rows included.
    first_def: Option<&'r RgnRow>,
}

impl<'r> Group<'r> {
    fn add(&mut self, row: &'r RgnRow) {
        match row.mode {
            AccessMode::Formal => self.formal = true,
            AccessMode::Use => self.uses.push(row),
            AccessMode::Def => {
                if self.first_def.is_none_or(|f| row.line < f.line) {
                    self.first_def = Some(row);
                }
                if row.via.is_none() {
                    self.defs.push(row);
                }
            }
            AccessMode::Passed => {}
        }
    }
}

/// Case B: 1-D arrays with fully constant USE rows — any DEF element
/// outside every USE region is a dead store. (fig10: `DEF aarr (1:8)`
/// against uses hulled at (0:7) ⇒ the store to index 8 is dead, which is
/// why the paper shrinks to `aarr[8]`.)
fn unread_stores(array: &str, g: &Group<'_>, files: &mut SourceFiles<'_>, out: &mut ProcLint) {
    if g.formal || g.uses.is_empty() {
        return;
    }
    let use_trips: Option<Vec<Triplet>> = g.uses.iter().map(|r| row_triplet_1d(r)).collect();
    let Some(use_trips) = use_trips else { return };
    for def in &g.defs {
        let Some(dt) = row_triplet_1d(def) else { continue };
        let Some(count) = dt.count() else { continue };
        if count == 0 || count > ELEMENT_CAP {
            continue;
        }
        let Some(elems) = dt.iter() else { continue };
        // The unread elements: how many, the first and the last.
        let mut dead: Option<(usize, i64, i64)> = None;
        for e in elems.filter(|&e| !use_trips.iter().any(|u| u.contains(e) == Some(true))) {
            dead = Some(match dead {
                None => (1, e, e),
                Some((n, first, _)) => (n + 1, first, e),
            });
        }
        let Some((n, first, last)) = dead else { continue };
        let span = if n == 1 {
            format!("element {first}")
        } else {
            format!("elements {first}..{last}")
        };
        // An interval-precision DEF row over-approximates the store: the
        // "dead" elements may never be written at all, so the violation is
        // only possible. (Interval USE rows need no such cap —
        // over-approximated reads only *shrink* the dead set.)
        let (severity, verb) = if def.precision >= Precision::Interval {
            (Severity::Possible, "may be")
        } else if n == 1 {
            (Severity::Definite, "is")
        } else {
            (Severity::Definite, "are")
        };
        out.findings.push(Finding {
            rule: Rule::Dst03,
            severity,
            file: files.of(&def.proc),
            line: def.line,
            proc: def.proc.clone(),
            array: array.to_string(),
            precision: def.precision,
            message: format!("{span} of `{array}` {verb} written here but never read anywhere"),
        });
    }
}

/// The 1-D constant triplet of a row (source bounds), `None` when the row
/// is multi-dimensional or symbolic.
fn row_triplet_1d(row: &RgnRow) -> Option<Triplet> {
    if row.dims != 1 {
        return None;
    }
    // One `|`-free integer per column.
    let one = |col: &str| if col.contains('|') { None } else { col.trim().parse::<i64>().ok() };
    Some(Triplet::constant(one(&row.lb)?, one(&row.ub)?, one(&row.stride)?.max(1)))
}

/// Maps a row's procedure display name back to its source file (rows carry
/// object files): the first procedure of that name, else the name itself.
/// The map is built on the first lookup, once per run.
struct SourceFiles<'a> {
    a: &'a Analysis,
    by_name: Option<BTreeMap<&'a str, &'a str>>,
}

impl SourceFiles<'_> {
    fn of(&mut self, proc: &str) -> String {
        let program = &self.a.program;
        let by_name = self.by_name.get_or_insert_with(|| {
            let mut map = BTreeMap::new();
            for p in program.procedures.iter() {
                map.entry(display_name(program, p)).or_insert(program.name_of(p.file));
            }
            map
        });
        by_name.get(proc).copied().unwrap_or(proc).to_string()
    }
}
