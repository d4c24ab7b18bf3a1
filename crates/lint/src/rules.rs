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

use crate::{Finding, Rule, Severity};
use araa::{Analysis, RgnRow};
use ipa::callgraph::display_name;
use ipa::AccessRecord;
use regions::access::{AccessMode, Precision};
use regions::triplet::Triplet;
use std::collections::BTreeMap;
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

/// Runs the per-procedure rules for `id`. May panic on malformed input —
/// callers contain it (see `engine::lint_procedure`).
pub fn lint_proc(a: &Analysis, id: ProcId) -> ProcLint {
    support::faultpoint::hit("lint::contain");
    let mut out = ProcLint::default();
    oob(a, id, &mut out);
    ubd(a, id, &mut out);
    shp(a, id, &mut out);
    ali(a, id, &mut out);
    naf(a, id, &mut out);
    out
}

/// True when a record's region is only an interval (or worse) over-
/// approximation: such a region may *refute* a violation (everything the
/// access touches lies inside it) but can never *prove* one, so every
/// finding it feeds is capped at [`Severity::Possible`].
fn interval_or_worse(rec: &AccessRecord) -> bool {
    rec.precision >= Precision::Interval
}

fn proc_name(a: &Analysis, id: ProcId) -> String {
    display_name(&a.program, a.program.procedure(id))
}

fn proc_file(a: &Analysis, id: ProcId) -> String {
    a.program.name_of(a.program.procedure(id).file).to_string()
}

fn array_name(a: &Analysis, st: StIdx) -> String {
    a.program.name_of(a.program.symbols.get(st).name).to_string()
}

/// The last element a normalized `lo..=hi` step-`step` range accesses.
fn last_accessed(lo: i64, hi: i64, step: i64) -> i64 {
    if step > 1 && hi > lo {
        lo + ((hi - lo) / step) * step
    } else {
        hi
    }
}

/// Declared extents mapped to H (row-major) dimension order, `None` when
/// the rank disagrees with the region or any dimension is runtime-sized.
fn h_extents(a: &Analysis, st: StIdx, ndims: usize, lang: Lang) -> Option<Vec<i64>> {
    let ty = a.program.symbols.get(st).ty;
    let declared = a.program.types.dim_bounds(ty);
    if declared.len() != ndims || ndims == 0 {
        return None;
    }
    let mut exts = vec![0i64; ndims];
    for hd in 0..ndims {
        match declared[source_dim(lang, ndims, hd)] {
            DimBound::Const { lb, ub } => exts[hd] = (ub - lb + 1).max(0),
            DimBound::Runtime => return None,
        }
    }
    Some(exts)
}

/// The language whose dimension order a record's region follows: the
/// procedure that *built* the region (the callee for propagated records).
fn record_lang(a: &Analysis, id: ProcId, rec: &AccessRecord) -> Lang {
    match rec.from_call {
        Some(callee) => a.program.procedure(callee).lang,
        None => a.program.procedure(id).lang,
    }
}

// ---------------------------------------------------------------------------
// OOB-01: accessed region exceeds the declared extents
// ---------------------------------------------------------------------------

fn oob(a: &Analysis, id: ProcId, out: &mut ProcLint) {
    let proc = proc_name(a, id);
    let file = proc_file(a, id);
    for rec in &a.ipa.summary(id).accesses {
        if !rec.mode.moves_data() || rec.remote || rec.approx {
            continue;
        }
        let n = rec.region.ndims();
        let lang = record_lang(a, id, rec);
        let Some(exts) = h_extents(a, rec.array, n, lang) else { continue };
        for (hd, trip) in rec.region.dims.iter().enumerate() {
            let ext = exts[hd];
            if ext <= 0 {
                continue;
            }
            let via = rec
                .from_call
                .map(|c| format!(" via call to `{}`", proc_name(a, c)))
                .unwrap_or_default();
            let verb = if rec.mode == AccessMode::Def { "written" } else { "read" };
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
                        out.findings.push(Finding {
                            rule: Rule::Oob01,
                            severity,
                            file: file.clone(),
                            line: rec.line,
                            proc: proc.clone(),
                            array: array_name(a, rec.array),
                            precision: rec.precision,
                            message: format!(
                                "`{}` {hedge} {verb} at [{lo}:{last}] (zero-based) but \
                                 dimension {hd} declares only [0:{}]{via}",
                                array_name(a, rec.array),
                                ext - 1
                            ),
                        });
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
                    let hi_ok = hi_b.is_some_and(|hi| hi <= ext - 1);
                    if lo_ok && hi_ok {
                        out.suppressed += 1; // FM refuted the candidate
                    } else if hi_b.is_some_and(|hi| hi > ext - 1)
                        || lo_b.is_some_and(|lo| lo < 0)
                    {
                        out.findings.push(Finding {
                            rule: Rule::Oob01,
                            severity: Severity::Possible,
                            file: file.clone(),
                            line: rec.line,
                            proc: proc.clone(),
                            array: array_name(a, rec.array),
                            precision: rec.precision,
                            message: format!(
                                "`{}` may be {verb} outside dimension {hd}'s declared \
                                 [0:{}] (FM bounds the access to [{}:{}]){via}",
                                array_name(a, rec.array),
                                ext - 1,
                                lo_b.map_or("-inf".into(), |v| v.to_string()),
                                hi_b.map_or("+inf".into(), |v| v.to_string()),
                            ),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// UBD-02: a USE of a local array no DEF reaches
// ---------------------------------------------------------------------------

fn ubd(a: &Analysis, id: ProcId, out: &mut ProcLint) {
    let proc = proc_name(a, id);
    let file = proc_file(a, id);
    let mut per: BTreeMap<StIdx, (Vec<&AccessRecord>, Vec<&AccessRecord>, bool)> =
        BTreeMap::new();
    // Arrays with coindexed (PGAS) accesses: a sibling image's symmetric
    // copy of this code may write our local memory remotely, so "no local
    // DEF" is not evidence of an uninitialized read.
    let mut pgas: std::collections::BTreeSet<StIdx> = Default::default();
    for rec in &a.ipa.summary(id).accesses {
        if rec.remote {
            pgas.insert(rec.array);
            continue;
        }
        // Only procedure-locals: a global's definitions can live anywhere
        // in the program, and a formal's reach is the caller's business.
        if a.program.symbols.get(rec.array).class != StClass::Local {
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
        let array = array_name(a, st);
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
            out.findings.push(Finding {
                rule: Rule::Ubd02,
                severity,
                file: file.clone(),
                line,
                proc: proc.clone(),
                array: array.clone(),
                precision: worst,
                message: format!(
                    "local array `{array}` is read but never written \
                     (no DEF in `{proc}` or any procedure it calls)"
                ),
            });
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
                    let finding = if capped {
                        Finding {
                            rule: Rule::Ubd02,
                            severity: Severity::Possible,
                            file: file.clone(),
                            line: u.line,
                            proc: proc.clone(),
                            array: array.clone(),
                            precision: worst,
                            message: format!(
                                "element {e} (zero-based) of local array `{array}` may \
                                 be read before any DEF writes it (only interval-\
                                 approximate regions reach it)"
                            ),
                        }
                    } else {
                        Finding {
                            rule: Rule::Ubd02,
                            severity: Severity::Definite,
                            file: file.clone(),
                            line: u.line,
                            proc: proc.clone(),
                            array: array.clone(),
                            precision: worst,
                            message: format!(
                                "element {e} (zero-based) of local array `{array}` is read \
                                 but no DEF ever writes it"
                            ),
                        }
                    };
                    out.findings.push(finding);
                }
                CoverVerdict::DisjointFromAllDefs => {
                    let (severity, adverb) = if capped {
                        (Severity::Possible, "possibly")
                    } else {
                        (Severity::Definite, "provably")
                    };
                    out.findings.push(Finding {
                        rule: Rule::Ubd02,
                        severity,
                        file: file.clone(),
                        line: u.line,
                        proc: proc.clone(),
                        array: array.clone(),
                        precision: worst,
                        message: format!(
                            "the region of local array `{array}` read here is {adverb} \
                             disjoint from every DEF of the array"
                        ),
                    });
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

fn shp(a: &Analysis, id: ProcId, out: &mut ProcLint) {
    let proc = proc_name(a, id);
    let file = proc_file(a, id);
    for site in a.callgraph.calls(id) {
        let callee = a.program.procedure(site.callee);
        for (pos, act) in site.array_actuals.iter().enumerate() {
            let Some(actual) = *act else { continue };
            let Some(&formal) = callee.formals.get(pos) else { continue };
            let fty = a.program.symbols.get(formal).ty;
            if a.program.types.num_dims(fty) == 0 {
                continue;
            }
            let actual_bytes =
                a.program.types.size_bytes(a.program.symbols.get(actual).ty);
            if actual_bytes <= 0 {
                continue; // runtime-sized actual: nothing to compare against
            }
            let elem = a.program.types.element_size(fty).abs();
            if elem == 0 {
                continue;
            }
            // The callee's post-IPA footprint through this formal (its own
            // accesses plus everything its descendants do to it).
            let mut max_linear: Option<i64> = Some(-1);
            let mut touched = false;
            let mut worst = Precision::Exact;
            for rec in a.ipa.summary(site.callee).for_array(formal) {
                if !rec.mode.moves_data() || rec.remote {
                    continue;
                }
                touched = true;
                worst = worst.worst(rec.precision);
                if rec.approx {
                    max_linear = None;
                    break;
                }
                match (linear_extent(a, site.callee, rec), &mut max_linear) {
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
            let aname = array_name(a, actual);
            let fname = array_name(a, formal);
            let cname = proc_name(a, site.callee);
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
                        out.findings.push(Finding {
                            rule: Rule::Shp04,
                            severity,
                            file: file.clone(),
                            line: site.line,
                            proc: proc.clone(),
                            array: aname.clone(),
                            precision: worst,
                            message: format!(
                                "call to `{cname}` passes `{aname}` ({actual_bytes} \
                                 bytes) but the callee {verb} {need} bytes through \
                                 formal `{fname}`"
                            ),
                        });
                    } else if a.program.types.size_bytes(fty) > actual_bytes {
                        // Declared shapes mismatch, but the footprint proof
                        // shows every access fits: refuted. (Sound even for
                        // interval footprints — over-approximations that fit
                        // imply the real accesses fit.)
                        out.suppressed += 1;
                    }
                }
                None => {
                    let fbytes = a.program.types.size_bytes(fty);
                    if fbytes > actual_bytes {
                        out.findings.push(Finding {
                            rule: Rule::Shp04,
                            severity: Severity::Possible,
                            file: file.clone(),
                            line: site.line,
                            proc: proc.clone(),
                            array: aname.clone(),
                            precision: worst,
                            message: format!(
                                "call to `{cname}` passes `{aname}` ({actual_bytes} \
                                 bytes) where formal `{fname}` declares {fbytes} bytes \
                                 and the accessed footprint could not be bounded"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Largest zero-based linear element index a constant record reaches,
/// linearized through the accessed array's own declared extents. `None`
/// when the region is symbolic or the declaration is runtime-sized.
fn linear_extent(a: &Analysis, owner: ProcId, rec: &AccessRecord) -> Option<i64> {
    let n = rec.region.ndims();
    let lang = record_lang(a, owner, rec);
    let exts = h_extents(a, rec.array, n, lang)?;
    let mut stride = 1i64;
    let mut strides = vec![1i64; n];
    for hd in (0..n).rev() {
        strides[hd] = stride;
        stride = stride.saturating_mul(exts[hd].max(1));
    }
    let mut max = 0i64;
    for (hd, trip) in rec.region.dims.iter().enumerate() {
        let (lo, hi, step) = trip.as_const()?;
        let last = last_accessed(lo, hi, step.max(1));
        max += last.max(lo) * strides[hd];
    }
    Some(max)
}

// ---------------------------------------------------------------------------
// ALI-05: the same memory reaches a callee under two names
// ---------------------------------------------------------------------------

fn ali(a: &Analysis, id: ProcId, out: &mut ProcLint) {
    let proc = proc_name(a, id);
    let file = proc_file(a, id);
    for site in a.callgraph.calls(id) {
        let callee = a.program.procedure(site.callee);
        let callee_sum = a.ipa.summary(site.callee);
        let cname = proc_name(a, site.callee);
        // (a) the same actual bound to two different array formals.
        for i in 0..site.array_actuals.len() {
            let Some(act_i) = site.array_actuals[i] else { continue };
            for j in (i + 1)..site.array_actuals.len() {
                if site.array_actuals[j] != Some(act_i) {
                    continue;
                }
                let (Some(&fi), Some(&fj)) =
                    (callee.formals.get(i), callee.formals.get(j))
                else {
                    continue;
                };
                let recs_i: Vec<&AccessRecord> = moves(callee_sum.for_array(fi));
                let recs_j: Vec<&AccessRecord> = moves(callee_sum.for_array(fj));
                let detail = format!(
                    "call to `{cname}` passes `{}` as both argument {} (formal \
                     `{}`) and argument {} (formal `{}`)",
                    array_name(a, act_i),
                    i + 1,
                    array_name(a, fi),
                    j + 1,
                    array_name(a, fj),
                );
                report_alias(
                    a,
                    &recs_i,
                    &recs_j,
                    &detail,
                    (site.line, &proc, &file, &array_name(a, act_i)),
                    out,
                );
            }
        }
        // (b) a global passed as an actual while the callee also touches
        // that global directly.
        for (pos, act) in site.array_actuals.iter().enumerate() {
            let Some(actual) = *act else { continue };
            if a.program.symbols.get(actual).class != StClass::Global {
                continue;
            }
            let Some(&formal) = callee.formals.get(pos) else { continue };
            let via_formal: Vec<&AccessRecord> = moves(callee_sum.for_array(formal));
            let direct: Vec<&AccessRecord> = moves(callee_sum.for_array(actual));
            if via_formal.is_empty() || direct.is_empty() {
                continue;
            }
            let detail = format!(
                "call to `{cname}` passes global `{}` as argument {} (formal `{}`) \
                 while the callee also accesses `{}` directly",
                array_name(a, actual),
                pos + 1,
                array_name(a, formal),
                array_name(a, actual),
            );
            report_alias(
                a,
                &via_formal,
                &direct,
                &detail,
                (site.line, &proc, &file, &array_name(a, actual)),
                out,
            );
        }
    }
}

fn moves<'s>(it: impl Iterator<Item = &'s AccessRecord>) -> Vec<&'s AccessRecord> {
    it.filter(|r| r.mode.moves_data() && !r.remote).collect()
}

/// Decides whether two record sets over the *same memory* conflict: a
/// pair with at least one DEF side that provably overlaps is Definite;
/// one that cannot be refuted is Possible; all pairs refuted increments
/// `suppressed`.
fn report_alias(
    a: &Analysis,
    left: &[&AccessRecord],
    right: &[&AccessRecord],
    detail: &str,
    (line, proc, file, array): (u32, &str, &str, &str),
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
            match alias_overlap(a, l, r) {
                Some(true) => {
                    out.findings.push(Finding {
                        rule: Rule::Ali05,
                        severity: Severity::Definite,
                        file: file.to_string(),
                        line,
                        proc: proc.to_string(),
                        array: array.to_string(),
                        precision: worst(l, r),
                        message: format!(
                            "{detail}; the two names' accessed regions overlap and \
                             one is written"
                        ),
                    });
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
        out.findings.push(Finding {
            rule: Rule::Ali05,
            severity: Severity::Possible,
            file: file.to_string(),
            line,
            proc: proc.to_string(),
            array: array.to_string(),
            precision: worst_seen,
            message: format!(
                "{detail}; a write through one name may overlap accesses through \
                 the other"
            ),
        });
    } else {
        out.suppressed += 1; // every def-involving pair proven disjoint
    }
}

/// Do two records over the same base memory overlap? `Some(true)` /
/// `Some(false)` are proofs; `None` is unknown.
fn alias_overlap(a: &Analysis, l: &AccessRecord, r: &AccessRecord) -> Option<bool> {
    if l.approx || r.approx {
        return None;
    }
    // Same rank and both exact: element-space comparison is exact (our
    // formals alias whole arrays, so element i is element i).
    let le = a.program.types.element_size(a.program.symbols.get(l.array).ty).abs();
    let re = a.program.types.element_size(a.program.symbols.get(r.array).ty).abs();
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
fn naf(a: &Analysis, id: ProcId, out: &mut ProcLint) {
    let proc = proc_name(a, id);
    let file = proc_file(a, id);
    for rec in &a.ipa.summary(id).accesses {
        if rec.precision != Precision::Unbounded
            || rec.from_call.is_some()
            || !rec.mode.moves_data()
            || rec.remote
            || rec.approx
        {
            continue;
        }
        let verb = if rec.mode == AccessMode::Def { "written" } else { "read" };
        out.findings.push(Finding {
            rule: Rule::Naf06,
            severity: Severity::Possible,
            file: file.clone(),
            line: rec.line,
            proc: proc.clone(),
            array: array_name(a, rec.array),
            precision: rec.precision,
            message: format!(
                "`{}` is {verb} through a subscript neither the affine analysis \
                 nor the interval fallback could bound; bounds checks are blind \
                 to this access",
                array_name(a, rec.array)
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// DST-03: stores no use ever reads (global pass over the extracted rows)
// ---------------------------------------------------------------------------

/// Runs the dead-store rule over the extracted rows. `file_of` maps a
/// procedure display name to its source file (rows carry object files).
pub fn dead_stores(a: &Analysis) -> ProcLint {
    let mut out = ProcLint::default();
    // Globals group program-wide by name (any procedure may read what
    // another wrote); locals and formals group per scope.
    let mut groups: BTreeMap<(String, String), Vec<&RgnRow>> = BTreeMap::new();
    // Procedures performing coindexed (PGAS) communication: sibling images
    // run the same code and may consume this image's stores through the
    // symmetric remote accesses, so one image's rows cannot witness that a
    // store is dead. Skip every array such a procedure touches.
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
        let scope = if row.is_global { "@".to_string() } else { row.proc.clone() };
        groups.entry((scope, row.array.clone())).or_default().push(row);
    }
    for ((scope, array), rows) in groups {
        let is_global = scope == "@";
        let is_formal_scope =
            rows.iter().any(|r| r.mode == AccessMode::Formal);
        let uses: Vec<&&RgnRow> =
            rows.iter().filter(|r| r.mode == AccessMode::Use).collect();
        // `via` def rows restate a callee's store at the call line; the
        // store itself is judged in the scope that owns it.
        let defs: Vec<&&RgnRow> = rows
            .iter()
            .filter(|r| r.mode == AccessMode::Def && r.via.is_none())
            .collect();

        // Case A: a local array written (by this procedure or a callee it
        // passes the array to) and never read anywhere.
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
                    message: format!(
                        "local array `{array}` is written but never read"
                    ),
                });
            }
            continue;
        }

        // Case B: 1-D arrays with fully constant USE rows — any DEF
        // element outside every USE region is a dead store. (fig10:
        // `DEF aarr (1:8)` against uses hulled at (0:7) ⇒ the store to
        // index 8 is dead, which is why the paper shrinks to `aarr[8]`.)
        if is_formal_scope || uses.is_empty() {
            continue; // a formal's remaining elements belong to the caller
        }
        let use_trips: Option<Vec<Triplet>> = uses.iter().map(|r| row_triplet_1d(r)).collect();
        let Some(use_trips) = use_trips else { continue };
        for def in defs {
            let Some(dt) = row_triplet_1d(def) else { continue };
            let Some(count) = dt.count() else { continue };
            if count == 0 || count > ELEMENT_CAP {
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
            // An interval-precision DEF row over-approximates the store:
            // the "dead" elements may never be written at all, so the
            // violation is only possible. (Interval USE rows need no such
            // cap — over-approximated reads only *shrink* the dead set.)
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
                message: format!(
                    "{span} of `{array}` {verb} written here but never read anywhere"
                ),
            });
        }
    }
    out
}

/// The 1-D constant triplet of a row (source bounds), `None` when the row
/// is multi-dimensional or symbolic.
fn row_triplet_1d(row: &RgnRow) -> Option<Triplet> {
    if row.dims != 1 {
        return None;
    }
    let lb = crate::facts::parse_bounds(&row.lb)?;
    let ub = crate::facts::parse_bounds(&row.ub)?;
    let stride = crate::facts::parse_bounds(&row.stride)?;
    if lb.len() != 1 || ub.len() != 1 || stride.len() != 1 {
        return None;
    }
    Some(Triplet::constant(lb[0], ub[0], stride[0].max(1)))
}

/// Maps a row's procedure display name back to its source file.
fn source_file_of(a: &Analysis, proc: &str) -> String {
    for (id, p) in a.program.procedures.iter_enumerated() {
        if display_name(&a.program, p) == proc {
            let _ = id;
            return a.program.name_of(p.file).to_string();
        }
    }
    proc.to_string()
}
