//! Rebasing cached summaries onto a freshly compiled program.
//!
//! A [`ProcSummary`] is full of indices minted by the program it was
//! computed for: `StIdx` of the accessed array, interned `Symbol`s inside
//! the region [`Space`]s, and `ProcId` in `from_call`. After a re-parse all
//! of those may shift even for procedures whose content is unchanged (an
//! unrelated file adding one symbol renumbers every later entry). Rebasing
//! rewrites a cached summary onto the new program's tables using the
//! [`SymbolMaps`] produced by a verified correspondence
//! ([`whirl::hash::procs_correspond`]) plus a name-keyed `ProcId` map.
//!
//! Rebasing is all-or-nothing per summary: any record that mentions a
//! symbol outside the maps makes the whole rebase fail (`None`), and the
//! caller must recompute the summary from scratch. Failure is always the
//! sound direction — a rebased summary is only returned when every index
//! was positively re-identified.

use crate::local::{AccessRecord, ProcSummary};
use regions::space::{Space, VarKind};
use regions::ConvexRegion;
use std::collections::BTreeMap;
use support::intern::Symbol;
use whirl::hash::SymbolMaps;
use whirl::ProcId;

/// Rewrites `sum` onto the program described by `maps` (old→new symbol
/// bindings) and `proc_map` (old→new `ProcId`, keyed by procedure name
/// equality). Returns `None` when any referenced symbol or procedure has no
/// mapping — the caller must then treat the procedure as dirty.
pub fn rebase_summary(
    sum: &ProcSummary,
    maps: &SymbolMaps,
    proc_map: &BTreeMap<ProcId, ProcId>,
) -> Option<ProcSummary> {
    let accesses = sum
        .accesses
        .iter()
        .map(|r| rebase_record(r, maps, proc_map))
        .collect::<Option<Vec<_>>>()?;
    let index_facts = sum
        .index_facts
        .iter()
        .map(|(st, f)| Some((*maps.st.get(st)?, f.clone())))
        .collect::<Option<BTreeMap<_, _>>>()?;
    Some(ProcSummary::new(accesses, index_facts))
}

fn rebase_record(
    rec: &AccessRecord,
    maps: &SymbolMaps,
    proc_map: &BTreeMap<ProcId, ProcId>,
) -> Option<AccessRecord> {
    let array = *maps.st.get(&rec.array)?;
    let space = rebase_space(&rec.space, &maps.sym)?;
    let convex = match &rec.convex {
        Some(c) => Some(ConvexRegion::new(
            rebase_space(c.space(), &maps.sym)?,
            c.system().clone(),
        )),
        None => None,
    };
    let from_call = match rec.from_call {
        Some(p) => Some(*proc_map.get(&p)?),
        None => None,
    };
    // The domain of an indirect index is constant, so only the index
    // array's symbol needs translating.
    let via_index = match &rec.via_index {
        Some(v) => Some(crate::local::IndirectIndex {
            index_array: *maps.st.get(&v.index_array)?,
            domain: v.domain.clone(),
            offset: v.offset,
        }),
        None => None,
    };
    Some(AccessRecord {
        array,
        mode: rec.mode,
        region: rec.region.clone(),
        convex,
        space,
        line: rec.line,
        from_call,
        remote: rec.remote,
        approx: rec.approx,
        precision: rec.precision,
        via_index,
    })
}

/// Rebuilds a [`Space`] with every named variable's `Symbol` translated.
/// Variables keep their positions, so the `VarId`s inside regions and
/// constraint systems remain valid unchanged.
fn rebase_space(space: &Space, sym: &BTreeMap<Symbol, Symbol>) -> Option<Space> {
    let mut out = Space::new();
    for (_, kind) in space.iter() {
        let k = match kind {
            VarKind::Dim(d) => VarKind::Dim(d),
            VarKind::Loop(s) => VarKind::Loop(*sym.get(&s)?),
            VarKind::Sym(s) => VarKind::Sym(*sym.get(&s)?),
        };
        out.add(k);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    use support::idx::Idx;
    use whirl::hash::procs_correspond;
    use whirl::Lang;

    const WORK: &str = "\
subroutine work(m)
  real a(16)
  common /c/ a
  integer m, i
  do i = 1, m
    a(i) = 0.0
  end do
end
";

    const PAD: &str = "\
subroutine pad
  real q(4)
  common /qq/ q
  q(1) = 1.0
end
";

    const PAD_V2: &str = "\
subroutine pad
  real q(4), r(4)
  common /qq/ q
  common /rr/ r
  q(2) = 1.0
  r(1) = 2.0
end
";

    #[test]
    fn rebase_survives_index_shift_and_preserves_regions() {
        let compile = |pad: &str| {
            compile_to_h(
                &[
                    SourceFile::new("p.f", pad, Lang::Fortran),
                    SourceFile::new("w.f", WORK, Lang::Fortran),
                ],
                DEFAULT_LAYOUT_BASE,
            )
            .unwrap()
        };
        let p1 = compile(PAD);
        let p2 = compile(PAD_V2);
        let w1 = p1.find_procedure("work").unwrap();
        let w2 = p2.find_procedure("work").unwrap();
        let maps = procs_correspond(&p1, w1, &p2, w2).expect("work unchanged");
        let proc_map = BTreeMap::from([(w1, w2)]);

        let old_sum = &crate::local::summarize_all(&p1)[w1.as_usize()];
        let rebased = rebase_summary(old_sum, &maps, &proc_map).expect("rebase");
        let fresh = &crate::local::summarize_all(&p2)[w2.as_usize()];

        assert_eq!(rebased.accesses.len(), fresh.accesses.len());
        for (a, b) in rebased.accesses.iter().zip(&fresh.accesses) {
            assert_eq!(a.array, b.array, "array StIdx must be the new program's");
            assert_eq!(a.mode, b.mode);
            assert_eq!(a.region.to_string(), b.region.to_string());
            assert_eq!(a.line, b.line);
            // Space symbols must resolve in the *new* interner to the same
            // names as the fresh computation.
            for ((_, ka), (_, kb)) in a.space.iter().zip(b.space.iter()) {
                match (ka, kb) {
                    (VarKind::Loop(x), VarKind::Loop(y))
                    | (VarKind::Sym(x), VarKind::Sym(y)) => {
                        assert_eq!(p2.name_of(x), p2.name_of(y));
                    }
                    (VarKind::Dim(x), VarKind::Dim(y)) => assert_eq!(x, y),
                    other => panic!("kind mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rebase_fails_on_unmapped_symbol() {
        let p = compile_to_h(
            &[SourceFile::new("w.f", WORK, Lang::Fortran)],
            DEFAULT_LAYOUT_BASE,
        )
        .unwrap();
        let w = p.find_procedure("work").unwrap();
        let sum = &crate::local::summarize_all(&p)[w.as_usize()];
        assert!(!sum.accesses.is_empty());
        // Empty maps: nothing resolves, rebase must refuse.
        let empty = SymbolMaps::default();
        assert!(rebase_summary(sum, &empty, &BTreeMap::new()).is_none());
    }
}
