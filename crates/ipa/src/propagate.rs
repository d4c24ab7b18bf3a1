//! IPA: the main interprocedural propagation phase.
//!
//! "Then, the main IPA module gathers all the IPL summary files to perform
//! interprocedural analysis." We walk the call graph bottom-up; at every
//! call site the callee's summary is *translated* into the caller:
//!
//! - records on **global** arrays copy through unchanged;
//! - records on **formal** arrays map to the caller's actual array (the
//!   Creusillet-style formal→actual mapping — our formals alias whole
//!   arrays, so the element mapping is the identity and only the array's
//!   identity and the symbolic parameters change);
//! - symbolic bounds naming the callee's scalar formals are substituted with
//!   the caller's actual argument expression when it is a constant,
//!   otherwise the bound degrades to `MESSY` (the same conservative fallback
//!   the paper documents for non-linearizable bounds).
//!
//! Translated records keep their original mode but carry `from_call`, which
//! Dragon renders as the interprocedural `IDEF`/`IUSE` annotations of Fig. 1.

use crate::callgraph::{CallGraph, CallSite};
use crate::index_facts::IndexArrayFact;
use crate::local::{AccessRecord, ProcSummary};
use regions::access::Precision;
use regions::space::{Space, VarKind};
use regions::triplet::{Bound, Triplet, TripletRegion};
use std::collections::BTreeMap;
use support::idx::Idx;
use whirl::{Opr, ProcId, Program, StClass, StIdx};

/// The result of IPA: per-procedure summaries including propagated effects.
#[derive(Debug)]
pub struct IpaResult {
    /// One summary per procedure (indexable by `ProcId`).
    pub summaries: Vec<ProcSummary>,
    /// True when the program was recursive and propagation stopped at one
    /// level (records from recursive cycles are not fix-pointed).
    pub recursion_cut: bool,
    /// Index-array facts that survive *global* validation: the fact's
    /// owning procedure is the only one that writes the array, so
    /// injectivity/value-range reasoning is safe program-wide.
    pub index_facts: BTreeMap<StIdx, IndexArrayFact>,
}

impl IpaResult {
    /// The summary for `id`.
    pub fn summary(&self, id: ProcId) -> &ProcSummary {
        &self.summaries[id.as_usize()]
    }
}

/// Keeps only index-array facts whose owning procedure is the array's sole
/// writer: one procedure carries the fact, and no *other* procedure has a
/// direct `DEF` or `PASSED` record on the array. Cheap (one scan of the
/// summaries) and derived fresh, so incremental re-propagation can simply
/// recompute it.
pub fn validated_index_facts(summaries: &[ProcSummary]) -> BTreeMap<StIdx, IndexArrayFact> {
    let mut owner: BTreeMap<StIdx, Vec<usize>> = BTreeMap::new();
    for (i, s) in summaries.iter().enumerate() {
        for st in s.index_facts.keys() {
            owner.entry(*st).or_default().push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (st, owners) in owner {
        let [only] = owners[..] else { continue };
        let foreign_writer = summaries.iter().enumerate().any(|(i, s)| {
            i != only
                && s.accesses.iter().any(|r| {
                    r.array == st
                        && r.from_call.is_none()
                        && matches!(
                            r.mode,
                            regions::access::AccessMode::Def
                                | regions::access::AccessMode::Passed
                        )
                })
        });
        if !foreign_writer {
            out.insert(st, summaries[only].index_facts[&st].clone());
        }
    }
    out
}

/// Runs propagation over already-computed local summaries.
pub fn propagate(
    program: &Program,
    cg: &CallGraph,
    local: Vec<ProcSummary>,
) -> IpaResult {
    let mut summaries = local;
    let affected = vec![true; cg.size()];
    let recursion_cut = propagate_subset(program, cg, &mut summaries, &affected);
    let index_facts = validated_index_facts(&summaries);
    IpaResult { summaries, recursion_cut, index_facts }
}

/// Propagates callee effects into exactly the procedures marked in
/// `affected` (a mask indexable by `ProcId`, typically from
/// [`CallGraph::ancestor_closure`]), translating every call site afresh:
/// [`propagate_spliced`] with nothing kept.
///
/// On entry, every *affected* slot of `summaries` must hold that
/// procedure's local-only summary, and every *unaffected* slot its full
/// already-propagated summary. This is exactly the incremental contract:
/// a clean procedure's propagated summary depends only on its descendants'
/// summaries, which the ancestor closure guarantees are also clean.
/// With an all-`true` mask this is a full cold propagation.
///
/// Returns the recursion-cut flag.
pub fn propagate_subset(
    program: &Program,
    cg: &CallGraph,
    summaries: &mut [ProcSummary],
    affected: &[bool],
) -> bool {
    propagate_spliced(program, cg, summaries, affected, &[]).0
}

/// A per-call-site entry that holds no slice length: on input to
/// [`propagate_spliced`], the site is translated afresh; in the lengths it
/// returns, the site was not propagated.
pub const NO_SLICE: u32 = u32::MAX;

/// Propagates callee effects into exactly the procedures marked in
/// `affected`, keeping the call-site slices a previous propagation left.
///
/// A procedure's propagated summary is its local summary followed by one
/// *slice* per call site, in [`CallGraph::calls`] order: the callee
/// records translated at that site (none for a self-call). `kept` is
/// either empty (nothing kept) or has one entry per call site, numbered
/// by [`CallGraph::site_range`]: the length of the slice kept for that
/// site, or [`NO_SLICE`] to translate it. On entry every affected slot
/// holds the procedure's local summary followed by its kept slices in
/// site order, and every unaffected slot its full propagated summary, as
/// for [`propagate_subset`]. Keep a slice only where re-translating it
/// would reproduce it: its callee is unaffected, and the call site, the
/// callee and the symbols they name are unchanged since it was made.
///
/// Every affected slot gets a new [`Revision`](crate::Revision); the others
/// keep theirs.
///
/// Returns the recursion-cut flag and, per call site, its slice length
/// (every site of an affected procedure; [`NO_SLICE`] elsewhere).
pub fn propagate_spliced(
    program: &Program,
    cg: &CallGraph,
    summaries: &mut [ProcSummary],
    affected: &[bool],
    kept: &[u32],
) -> (bool, Vec<u32>) {
    let _span = support::obs::span("ipa.propagate");
    support::obs::add(
        support::obs::Counter::PropagateInvalidated,
        affected.iter().filter(|&&a| a).count() as u64,
    );
    let recursion_cut = cg.is_recursive();
    let mut lengths = vec![NO_SLICE; cg.site_count()];
    for id in cg.bottom_up() {
        if !affected[id.as_usize()] {
            continue; // clean: its propagated summary is already in place
        }
        let sites = cg.site_range(id);
        let kept = kept.get(sites.clone()).unwrap_or_default();
        let kept_len: usize =
            kept.iter().filter(|&&n| n != NO_SLICE).map(|&n| n as usize).sum();
        // Collect the slices in site order, each kept or translated afresh
        // (the callee summaries are complete because of the bottom-up
        // order, recursion aside), then append them to the local part.
        let mut accesses = std::mem::take(&mut summaries[id.as_usize()].accesses);
        let local_len = accesses.len() - kept_len;
        let mut kept_recs = accesses.drain(local_len..);
        let mut slices: Vec<AccessRecord> = Vec::new();
        for (k, site) in cg.calls(id).iter().enumerate() {
            let start = slices.len();
            match kept.get(k) {
                Some(&n) if n != NO_SLICE => slices.extend(kept_recs.by_ref().take(n as usize)),
                _ if site.callee == id => {} // self-recursion: cut
                _ => {
                    let callee_sum = &summaries[site.callee.as_usize()];
                    let callee_proc = program.procedure(site.callee);
                    for rec in &callee_sum.accesses {
                        if !rec.mode.moves_data() {
                            continue; // FORMAL/PASSED are per-procedure bookkeeping
                        }
                        if let Some(t) =
                            translate_record(program, rec, site, &callee_proc.formals)
                        {
                            slices.push(t);
                        }
                    }
                }
            }
            lengths[sites.start + k] = (slices.len() - start) as u32;
        }
        drop(kept_recs);
        accesses.extend(slices);
        let slot = &mut summaries[id.as_usize()];
        slot.accesses = accesses;
        slot.remint();
    }
    (recursion_cut, lengths)
}

/// Translates one callee record to the caller's view at `site`.
/// Returns `None` when the record concerns a callee-local array (invisible
/// to the caller).
fn translate_record(
    program: &Program,
    rec: &AccessRecord,
    site: &CallSite,
    callee_formals: &[StIdx],
) -> Option<AccessRecord> {
    support::faultpoint::hit("ipa::translate");
    let entry = program.symbols.get(rec.array);
    let (target_array, set_from_call) = match entry.class {
        StClass::Global => (rec.array, true),
        StClass::Formal => {
            // Which formal position?
            let pos = callee_formals.iter().position(|&f| f == rec.array)?;
            let actual = *site.array_actuals.get(pos)?;
            (actual?, true)
        }
        _ => return None, // callee-local array: no caller-visible effect
    };

    // Once the translation budget is dry, keep the record (soundness needs
    // the callee's effect to stay visible) but degrade every bound to MESSY
    // instead of doing substitution work.
    if !support::budget::charge_translation() {
        let dims = rec.region.dims.iter().map(|_| Triplet::messy()).collect();
        return Some(AccessRecord {
            array: target_array,
            mode: rec.mode,
            region: TripletRegion::new(dims),
            convex: None,
            space: rec.space.clone(),
            line: site.line,
            from_call: set_from_call.then_some(site.callee),
            remote: rec.remote,
            approx: true,
            precision: Precision::Unbounded,
            via_index: rec.via_index.clone(),
        });
    }

    // Substitute symbolic formal scalars with the caller's actual constants.
    let subst = build_scalar_substitution(program, site, callee_formals);
    let region = translate_region(&rec.region, &rec.space, &subst);
    let convex = if region.is_const() {
        let bounds: Option<Vec<(i64, i64)>> = region
            .dims
            .iter()
            .map(|t| t.as_const().map(|(lo, hi, _)| (lo, hi)))
            .collect();
        bounds.map(|b| regions::convex::box_region(&b))
    } else {
        rec.convex.clone().filter(|_| subst.is_empty())
    };

    // Translation may degrade symbolic bounds to MESSY: reflect that in the
    // precision so downstream consumers never over-trust the copy.
    let has_unknown = region
        .dims
        .iter()
        .any(|t| {
            [&t.lb, &t.ub]
                .iter()
                .any(|b| matches!(b, Bound::Messy | Bound::Unprojected))
        });
    let precision = if has_unknown {
        rec.precision.worst(Precision::Unbounded)
    } else {
        rec.precision
    };
    Some(AccessRecord {
        array: target_array,
        mode: rec.mode,
        region,
        convex,
        space: rec.space.clone(),
        line: site.line,
        from_call: set_from_call.then_some(site.callee),
        remote: rec.remote,
        approx: rec.approx,
        precision,
        via_index: rec.via_index.clone(),
    })
}

/// Maps callee scalar-formal *names* to constant actual values at `site`.
fn build_scalar_substitution(
    program: &Program,
    site: &CallSite,
    callee_formals: &[StIdx],
) -> BTreeMap<support::Symbol, i64> {
    let caller_proc = program.procedure(site.caller);
    let call_node = caller_proc.tree.node(site.wn);
    debug_assert_eq!(call_node.operator, Opr::Call);
    let mut map = BTreeMap::new();
    for (pos, &formal) in callee_formals.iter().enumerate() {
        let Some(&parm) = call_node.kids.get(pos) else { continue };
        let value = caller_proc.tree.node(parm).kids[0];
        if let Some(c) = caller_proc.tree.eval_const(value) {
            let name = program.symbols.get(formal).name;
            map.insert(name, c);
        }
    }
    map
}

/// Rewrites a region's symbolic bounds under a name→constant substitution;
/// bounds that still mention unknown symbols become `MESSY`.
fn translate_region(
    region: &TripletRegion,
    space: &Space,
    subst: &BTreeMap<support::Symbol, i64>,
) -> TripletRegion {
    let translate_bound = |b: &Bound| -> Bound {
        match b {
            Bound::Const(c) => Bound::Const(*c),
            Bound::Messy => Bound::Messy,
            Bound::Unprojected => Bound::Unprojected,
            Bound::Expr(e) => {
                let mut acc = e.constant_term();
                for (v, coeff) in e.terms() {
                    match space.kind(v) {
                        VarKind::Sym(name) => match subst.get(&name) {
                            Some(&val) => acc += coeff * val,
                            None => return Bound::Messy,
                        },
                        _ => return Bound::Messy,
                    }
                }
                Bound::Const(acc)
            }
        }
    };
    TripletRegion::new(
        region
            .dims
            .iter()
            .map(|t| {
                Triplet::new(
                    translate_bound(&t.lb),
                    translate_bound(&t.ub),
                    translate_bound(&t.stride),
                )
            })
            .collect(),
    )
}

/// Convenience: IPL + IPA in one call (serial).
pub fn analyze(program: &Program) -> (CallGraph, IpaResult) {
    let cg = CallGraph::build(program);
    let local = crate::local::summarize_all(program);
    let result = propagate(program, &cg, local);
    (cg, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    use regions::access::AccessMode;
    use whirl::Lang;

    fn build(src: &str) -> (Program, CallGraph, IpaResult) {
        let p = compile_to_h(&[SourceFile::new("t.f", src, Lang::Fortran)], DEFAULT_LAYOUT_BASE)
            .unwrap();
        let (cg, r) = analyze(&p);
        (p, cg, r)
    }

    /// The paper's Fig. 1 program.
    const FIG1: &str = "\
subroutine add(m)
  integer, dimension(1:200, 1:200) :: a
  common /g/ a
  integer :: m, j
  do j = 1, m
    call p1(a, j)
    call p2(a, j)
  end do
end
subroutine p1(x, k)
  integer, dimension(1:200, 1:200) :: x
  integer :: k, i, j
  do i = 1, 100
    do j = 1, 100
      x(i, j) = 0
    end do
  end do
end
subroutine p2(x, k)
  integer, dimension(1:200, 1:200) :: x
  integer :: k, i, j, t
  do i = 101, 200
    do j = 101, 200
      t = x(i, j)
    end do
  end do
end
";

    #[test]
    fn fig1_regions_propagate_to_caller() {
        let (p, _cg, r) = build(FIG1);
        let add = p.find_procedure("add").unwrap();
        let sum = r.summary(add);
        let a_sym = p.interner.get("a").unwrap();
        let a_st = p.symbols.find(a_sym).unwrap();
        let p1 = p.find_procedure("p1").unwrap();
        let p2 = p.find_procedure("p2").unwrap();

        let idef: Vec<_> = sum
            .for_array(a_st)
            .filter(|rec| rec.mode == AccessMode::Def && rec.from_call == Some(p1))
            .collect();
        assert_eq!(idef.len(), 1, "one propagated DEF from p1");
        // Zero-based: (1:100,1:100) → (0:99,0:99) in both (row-major) dims.
        assert_eq!(idef[0].region.to_string(), "(0:99:1, 0:99:1)");

        let iuse: Vec<_> = sum
            .for_array(a_st)
            .filter(|rec| rec.mode == AccessMode::Use && rec.from_call == Some(p2))
            .collect();
        assert_eq!(iuse.len(), 1);
        assert_eq!(iuse[0].region.to_string(), "(100:199:1, 100:199:1)");
    }

    #[test]
    fn fig1_propagated_regions_are_independent() {
        let (p, _cg, r) = build(FIG1);
        let add = p.find_procedure("add").unwrap();
        let sum = r.summary(add);
        let recs: Vec<_> = sum
            .accesses
            .iter()
            .filter(|rec| rec.from_call.is_some())
            .collect();
        assert_eq!(recs.len(), 2);
        let d = &recs[0];
        let u = &recs[1];
        assert_eq!(d.region.disjoint_from(&u.region), Some(true));
    }

    #[test]
    fn callee_local_arrays_do_not_propagate() {
        let (p, _cg, r) = build(
            "\
program main
  call work
end
subroutine work
  real tmp(10)
  integer i
  do i = 1, 10
    tmp(i) = 0.0
  end do
end
",
        );
        let main = p.find_procedure("main").unwrap();
        assert!(
            r.summary(main).accesses.iter().all(|rec| rec.from_call.is_none()),
            "local tmp must stay inside work"
        );
    }

    #[test]
    fn constant_actual_substitutes_into_symbolic_bound() {
        let (p, _cg, r) = build(
            "\
program main
  real a(50)
  common /g/ a
  call fill(a, 7)
end
subroutine fill(x, n)
  real x(50)
  integer n, i
  do i = 1, n
    x(i) = 0.0
  end do
end
",
        );
        let main = p.find_procedure("main").unwrap();
        let sum = r.summary(main);
        let a_st = p.symbols.find(p.interner.get("a").unwrap()).unwrap();
        let def = sum
            .for_array(a_st)
            .find(|rec| rec.mode == AccessMode::Def && rec.from_call.is_some())
            .expect("propagated DEF");
        // x(1:n) with n=7 → zero-based 0:6.
        assert_eq!(def.region.to_string(), "(0:6:1)");
    }

    #[test]
    fn unknown_actual_degrades_to_messy() {
        let (p, _cg, r) = build(
            "\
program main
  real a(50)
  common /g/ a
  integer k
  call fill(a, k)
end
subroutine fill(x, n)
  real x(50)
  integer n, i
  do i = 1, n
    x(i) = 0.0
  end do
end
",
        );
        let main = p.find_procedure("main").unwrap();
        let a_st = p.symbols.find(p.interner.get("a").unwrap()).unwrap();
        let def = r
            .summary(main)
            .for_array(a_st)
            .find(|rec| rec.mode == AccessMode::Def && rec.from_call.is_some())
            .unwrap();
        assert_eq!(def.region.dims[0].ub, Bound::Messy);
        assert_eq!(def.region.dims[0].lb.as_const(), Some(0));
    }

    #[test]
    fn transitive_propagation_two_levels() {
        let (p, _cg, r) = build(
            "\
program main
  call mid
end
subroutine mid
  call leaf
end
subroutine leaf
  real g(9)
  common /c/ g
  integer i
  do i = 1, 9
    g(i) = 1.0
  end do
end
",
        );
        let main = p.find_procedure("main").unwrap();
        let g_st = p.symbols.find(p.interner.get("g").unwrap()).unwrap();
        let defs: Vec<_> = r
            .summary(main)
            .for_array(g_st)
            .filter(|rec| rec.mode == AccessMode::Def)
            .collect();
        assert_eq!(defs.len(), 1, "leaf's DEF reaches main through mid");
        assert_eq!(defs[0].region.to_string(), "(0:8:1)");
    }

    #[test]
    fn subset_propagation_matches_full_when_clean_slots_are_reused() {
        let src = "\
program main
  call mid
end
subroutine mid
  call leaf
end
subroutine leaf
  real g(9)
  common /c/ g
  integer i
  do i = 1, 9
    g(i) = 1.0
  end do
end
";
        let p = compile_to_h(&[SourceFile::new("t.f", src, Lang::Fortran)], DEFAULT_LAYOUT_BASE)
            .unwrap();
        let cg = CallGraph::build(&p);
        let local = crate::local::summarize_all(&p);
        let cold = propagate(&p, &cg, local.clone());

        // Warm path: pretend only `main` needs re-propagation. Its slot is
        // reset to the local summary; mid/leaf keep their cold propagated
        // summaries, as the session would reuse them from the cache.
        let main = p.find_procedure("main").unwrap();
        let mut warm: Vec<ProcSummary> = cold.summaries.clone();
        warm[main.as_usize()] = local[main.as_usize()].clone();
        let mut mask = vec![false; cg.size()];
        mask[main.as_usize()] = true;
        propagate_subset(&p, &cg, &mut warm, &mask);

        for (a, b) in cold.summaries.iter().zip(&warm) {
            assert_eq!(a.accesses.len(), b.accesses.len());
            for (x, y) in a.accesses.iter().zip(&b.accesses) {
                assert_eq!(x.array, y.array);
                assert_eq!(x.mode, y.mode);
                assert_eq!(x.region.to_string(), y.region.to_string());
                assert_eq!(x.from_call, y.from_call);
                assert_eq!(x.line, y.line);
            }
        }
    }

    #[test]
    fn kept_slices_splice_into_the_full_propagation() {
        let src = "\
program main
  real a(9)
  real b(9)
  common /c/ a, b
  a(1) = 0.0
  call leaf
  call other
  call leaf
end
subroutine leaf
  real a(9)
  real b(9)
  common /c/ a, b
  integer i
  do i = 2, 9
    a(i) = b(i - 1)
  end do
end
subroutine other
  real a(9)
  real b(9)
  common /c/ a, b
  b(9) = 1.0
end
";
        let p = compile_to_h(&[SourceFile::new("t.f", src, Lang::Fortran)], DEFAULT_LAYOUT_BASE)
            .unwrap();
        let cg = CallGraph::build(&p);
        let local = crate::local::summarize_all(&p);
        let mut cold = local.clone();
        let (_, lens) = propagate_spliced(&p, &cg, &mut cold, &vec![true; cg.size()], &[]);
        let main = p.find_procedure("main").unwrap();
        let sites = cg.site_range(main);
        assert_eq!(sites.len(), 3);
        assert_eq!(cg.site_count(), 3);
        let local_len = local[main.as_usize()].accesses.len();
        let slice_len: Vec<usize> = lens[sites.clone()].iter().map(|&n| n as usize).collect();
        assert_eq!(
            cold[main.as_usize()].accesses.len(),
            local_len + slice_len.iter().sum::<usize>()
        );

        // Re-propagate `main` keeping `other`'s slice: its slot holds the
        // local records and that slice; both `leaf` sites translate again.
        let mut kept = vec![NO_SLICE; cg.site_count()];
        kept[sites.start + 1] = lens[sites.start + 1];
        let other_at = local_len + slice_len[0];
        let mut warm = cold.clone();
        let mut slot = local[main.as_usize()].clone();
        slot.accesses
            .extend_from_slice(&cold[main.as_usize()].accesses[other_at..other_at + slice_len[1]]);
        warm[main.as_usize()] = slot;
        let mut mask = vec![false; cg.size()];
        mask[main.as_usize()] = true;
        let (_, warm_lens) = propagate_spliced(&p, &cg, &mut warm, &mask, &kept);
        assert_eq!(warm_lens[sites.clone()], lens[sites]);
        let render = |s: &ProcSummary| -> Vec<String> {
            s.accesses
                .iter()
                .map(|r| {
                    format!("{:?} {:?} {} {:?} {}", r.array, r.mode, r.region, r.from_call, r.line)
                })
                .collect()
        };
        assert_eq!(render(&warm[main.as_usize()]), render(&cold[main.as_usize()]));
    }

    #[test]
    fn recursion_is_cut_not_hung() {
        let (_p, _cg, r) = build(
            "\
subroutine r(n)
  integer n
  real a(5)
  common /c/ a
  a(1) = 0.0
  call r(n)
end
",
        );
        assert!(r.recursion_cut);
    }
}
