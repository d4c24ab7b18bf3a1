//! Subscripted-subscript facts: per-procedure properties of index arrays.
//!
//! When a subscript is itself an array read — `A(idx(i))` — the affine
//! machinery bails. But the *defining loop* of `idx` often proves useful
//! properties: the stored values fall in a known range, the mapping is
//! injective, monotone, or constant after its initialization. This module
//! derives those facts per procedure by pattern-matching `ISTORE`s into
//! small integer arrays under constant-bound loop nests; the interval
//! interpreter ([`crate::interval_ai`]) and the side-effect/loop-parallel
//! tests consume them.
//!
//! Everything here is an over-approximation of the stored values and is
//! only trusted where the consumer's own guards hold (e.g. injectivity is
//! used only after global validation shows a single defining procedure).

use crate::local::{whirl_to_affine, AffExpr};
use regions::triplet::{Triplet, TripletRegion};
use std::collections::BTreeMap;
use support::obs::{self, Counter};
use whirl::{DataType, Opr, ProcId, Program, StIdx, TyKind, WhirlTree, WnId};

/// What the defining loops of one index array prove about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexArrayFact {
    /// Every store to the array sits in a qualifying init nest and the
    /// array's address never escapes (no `LDA` outside its own stores), so
    /// the values are fixed once initialization completes.
    pub constant_after_init: bool,
    /// The stored value is a non-decreasing function of the element index
    /// (single defining store `idx(c1·i+c0) = a·i+b` with `a·c1 ≥ 0`).
    pub monotone_nondecreasing: bool,
    /// Distinct elements hold distinct values (single defining store with
    /// `c1 ≠ 0` and `a ≠ 0`).
    pub injective: bool,
    /// Raw stored-value range over all qualifying stores (inclusive).
    pub value_range: Option<(i64, i64)>,
    /// Zero-based element indices covered by the qualifying stores — the
    /// part of the array that is actually initialized.
    pub init_region: Option<TripletRegion>,
    /// Pre-order position (in the defining procedure's tree) of the last
    /// node of the outermost statement enclosing any qualifying store:
    /// initialization is complete only once execution passes this point.
    /// Same-procedure consumers must not apply the fact at sites at or
    /// before this position (the values have not been stored yet); the
    /// position is meaningless in any other procedure's tree.
    pub init_end_pos: u32,
}

impl IndexArrayFact {
    /// True when the fact carries anything a consumer can use.
    pub fn is_useful(&self) -> bool {
        self.value_range.is_some() || self.injective || self.monotone_nondecreasing
    }
}

/// One enclosing loop with constant bounds, normalized ascending.
#[derive(Debug, Clone, Copy)]
struct ConstLoop {
    ivar: StIdx,
    lo: i64,
    hi: i64,
    step: i64,
}

/// One `ISTORE` into a candidate index array.
#[derive(Debug, Clone)]
struct StoreSite {
    /// Zero-based element subscript expression.
    index: AffExpr,
    /// Stored value expression.
    value: AffExpr,
    /// The constant-bound loops enclosing the store, outermost first; a
    /// `None` entry marks an enclosing loop whose bounds are not constant.
    nest: Vec<Option<ConstLoop>>,
    /// The outermost statement enclosing the store (the outermost loop of
    /// its nest, or the `ISTORE` itself): the values exist only after this
    /// subtree finishes executing.
    container: WnId,
}

#[derive(Debug, Default)]
struct Candidate {
    sites: Vec<StoreSite>,
    /// `LDA` of the array seen outside its own store addresses (passed to a
    /// call, address taken): the values can change behind our back.
    escapes: bool,
    /// A store whose address we could not resolve into this scheme.
    opaque_store: bool,
}

/// Evaluates an affine expression over a box of constant loop ranges;
/// `None` when the expression mentions a symbol that is not one of the
/// constant-bound loop variables.
fn affine_extent(e: &AffExpr, nest: &[Option<ConstLoop>]) -> Option<(i64, i64)> {
    let AffExpr::Lin { constant, terms } = e else { return None };
    let (mut lo, mut hi) = (i128::from(*constant), i128::from(*constant));
    for &(st, c) in terms {
        let l = nest
            .iter()
            .flatten()
            .find(|f| f.ivar == st)
            .map(|f| (f.lo, f.hi))?;
        let (a, b) = (i128::from(c) * i128::from(l.0), i128::from(c) * i128::from(l.1));
        lo += a.min(b);
        hi += a.max(b);
    }
    Some((i64::try_from(lo).ok()?, i64::try_from(hi).ok()?))
}

/// The single `(ivar, coeff)` of a one-variable affine expression.
fn single_term(e: &AffExpr) -> Option<(StIdx, i64, i64)> {
    let AffExpr::Lin { constant, terms } = e else { return None };
    match terms[..] {
        [(st, c)] => Some((st, c, *constant)),
        _ => None,
    }
}

/// Derives index-array facts for one procedure.
///
/// Candidates are 1-dimensional integer arrays written through constant
/// subscript patterns; anything else never produces a fact, so the map is
/// sparse. Facts are derived for every storage class — callers gate use on
/// locality ([`crate::local`]) or global validation ([`crate::propagate`]).
pub fn derive(program: &Program, proc_id: ProcId) -> BTreeMap<StIdx, IndexArrayFact> {
    let proc = program.procedure(proc_id);
    let tree = &proc.tree;
    let mut cands: BTreeMap<StIdx, Candidate> = BTreeMap::new();
    let mut nest: Vec<Option<ConstLoop>> = Vec::new();
    let mut loops: Vec<WnId> = Vec::new();
    let Some(root) = tree.root() else { return BTreeMap::new() };
    let Some(&body) = tree.node(root).kids.last() else { return BTreeMap::new() };
    scan_block(program, proc_id, body, &mut nest, &mut loops, &mut cands);

    let pos = if cands.values().any(|c| !c.sites.is_empty()) {
        preorder_positions(tree)
    } else {
        BTreeMap::new()
    };
    let mut out = BTreeMap::new();
    for (st, cand) in cands {
        if cand.opaque_store || cand.sites.is_empty() {
            continue;
        }
        let fact = summarize_candidate(&cand, tree, &pos);
        if fact.is_useful() {
            obs::incr(Counter::IpaIndexFacts);
            out.insert(st, fact);
        }
    }
    out
}

/// Pre-order position of every node in `tree`, counted from the root.
/// A subtree occupies a contiguous position range starting at its root,
/// so "after statement S has finished" is "position > max position in
/// S's subtree".
pub(crate) fn preorder_positions(tree: &WhirlTree) -> BTreeMap<WnId, u32> {
    let mut out = BTreeMap::new();
    if let Some(root) = tree.root() {
        for (i, n) in tree.pre_order(root).enumerate() {
            out.insert(n, i as u32);
        }
    }
    out
}

fn summarize_candidate(
    cand: &Candidate,
    tree: &WhirlTree,
    pos: &BTreeMap<WnId, u32>,
) -> IndexArrayFact {
    // Initialization is complete once the outermost statement enclosing
    // the *last* (in program order) qualifying store has finished.
    let init_end_pos = cand
        .sites
        .iter()
        .map(|s| {
            tree.pre_order(s.container)
                .filter_map(|n| pos.get(&n).copied())
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0);
    let mut value_range: Option<(i64, i64)> = None;
    let mut init_region: Option<TripletRegion> = None;
    let mut all_qualify = true;
    for site in &cand.sites {
        let (Some(vr), Some(ir)) = (
            affine_extent(&site.value, &site.nest),
            affine_extent(&site.index, &site.nest),
        ) else {
            all_qualify = false;
            break;
        };
        // Element stride: a single-ivar subscript steps by |c1·step|.
        // Checked: a pathological coefficient/step pair from source must
        // degrade to "no fact", not wrap or panic.
        let stride = match single_term(&site.index) {
            Some((ivar, c1, _)) => {
                match site.nest.iter().flatten().find(|f| f.ivar == ivar) {
                    Some(f) => match c1.checked_mul(f.step).and_then(i64::checked_abs) {
                        Some(p) => p.max(1),
                        None => {
                            all_qualify = false;
                            break;
                        }
                    },
                    None => 1,
                }
            }
            None => 1,
        };
        let t = TripletRegion::new(vec![Triplet::constant(ir.0, ir.1, stride)]);
        value_range = Some(match value_range {
            Some((lo, hi)) => (lo.min(vr.0), hi.max(vr.1)),
            None => vr,
        });
        init_region = Some(match init_region {
            Some(prev) => prev.hull(&t),
            None => t,
        });
    }
    if !all_qualify {
        return IndexArrayFact {
            constant_after_init: false,
            monotone_nondecreasing: false,
            injective: false,
            value_range: None,
            init_region: None,
            init_end_pos,
        };
    }

    // Injectivity / monotonicity need a single defining store
    // `idx(c1·i + c0) = a·i + b` over one constant-trip loop variable.
    let (mut injective, mut monotone) = (false, false);
    if cand.sites.len() == 1 && !cand.escapes {
        let site = &cand.sites[0];
        if let Some((iv_g, c1, _)) = single_term(&site.index) {
            let covering = site.nest.iter().flatten().any(|f| f.ivar == iv_g);
            // Value slope `a` per loop iteration: a constant store has a = 0.
            let a = if site.value.as_const().is_some() {
                Some(0)
            } else {
                single_term(&site.value)
                    .and_then(|(iv_h, a, _)| (iv_h == iv_g).then_some(a))
            };
            if let (Some(a), true, true) = (a, covering, c1 != 0) {
                injective = a != 0;
                // Value as a function of element position has slope sign
                // `sign(a·c1)` regardless of iteration direction.
                monotone = a.checked_mul(c1).is_some_and(|p| p >= 0);
            }
        }
    }
    IndexArrayFact {
        constant_after_init: all_qualify && !cand.escapes,
        monotone_nondecreasing: monotone,
        injective,
        value_range,
        init_region,
        init_end_pos,
    }
}

/// True for a 1-D integer-element array symbol.
pub(crate) fn is_index_array(program: &Program, st: StIdx) -> bool {
    match &program.types.get(program.symbols.get(st).ty).kind {
        TyKind::Array { elem, dims, .. } => {
            dims.len() == 1 && matches!(elem, DataType::I4 | DataType::I8 | DataType::Char)
        }
        _ => false,
    }
}

fn scan_block(
    program: &Program,
    proc_id: ProcId,
    block: WnId,
    nest: &mut Vec<Option<ConstLoop>>,
    loops: &mut Vec<WnId>,
    cands: &mut BTreeMap<StIdx, Candidate>,
) {
    let tree = &program.procedure(proc_id).tree;
    let kids = tree.node(block).kids.clone();
    for id in kids {
        let node = tree.node(id);
        match node.operator {
            Opr::Istore => {
                let addr = node.kids[1];
                let an = tree.node(addr);
                if an.operator == Opr::Array {
                    let base = tree.node(an.array_base_kid());
                    if let Some(st) = base.st_idx {
                        if is_index_array(program, st) {
                            let cand = cands.entry(st).or_default();
                            if an.num_dim() == 1 {
                                cand.sites.push(StoreSite {
                                    index: whirl_to_affine(tree, an.array_index_kid(0)),
                                    value: whirl_to_affine(tree, node.kids[0]),
                                    nest: nest.clone(),
                                    container: loops.first().copied().unwrap_or(id),
                                });
                            } else {
                                cand.opaque_store = true;
                            }
                        }
                    } else {
                        // Unresolvable base: could alias anything.
                        for c in cands.values_mut() {
                            c.opaque_store = true;
                        }
                    }
                }
                scan_escapes(program, proc_id, node.kids[0], cands);
                // Subscript expressions may take addresses too.
                if an.operator == Opr::Array {
                    for d in 0..an.num_dim() {
                        scan_escapes(program, proc_id, an.array_index_kid(d), cands);
                    }
                }
            }
            Opr::DoLoop => {
                let frame = node.st_idx.and_then(|ivar| {
                    let init = tree.node(node.kids[0]).kids[0];
                    let bound = tree.node(node.kids[1]).kids[1];
                    let (lo, hi) = (tree.eval_const(init)?, tree.eval_const(bound)?);
                    let step = node.const_val;
                    if step == 0 {
                        return None;
                    }
                    let (lo, hi) = if step < 0 { (hi, lo) } else { (lo, hi) };
                    Some(ConstLoop { ivar, lo, hi, step: step.abs() })
                });
                // A constant loop whose normalized range is empty never
                // runs its body: stores under it contribute neither values
                // nor init coverage, so scanning them would overclaim
                // value_range and init_region.
                if frame.is_some_and(|f| f.lo > f.hi) {
                    continue;
                }
                loops.push(id);
                nest.push(frame);
                scan_block(program, proc_id, node.kids[3], nest, loops, cands);
                nest.pop();
                loops.pop();
            }
            Opr::If => {
                scan_escapes(program, proc_id, node.kids[0], cands);
                scan_block(program, proc_id, node.kids[1], nest, loops, cands);
                scan_block(program, proc_id, node.kids[2], nest, loops, cands);
            }
            Opr::Stid | Opr::Return => {
                for &k in &tree.node(id).kids.clone() {
                    scan_escapes(program, proc_id, k, cands);
                }
            }
            Opr::Call => {
                // A candidate passed to a call escapes: the callee may
                // rewrite it.
                for &parm in &node.kids.clone() {
                    scan_escapes(program, proc_id, parm, cands);
                }
            }
            _ => {}
        }
    }
}

/// Marks candidates whose address (`LDA`) appears inside `id`.
fn scan_escapes(
    program: &Program,
    proc_id: ProcId,
    id: WnId,
    cands: &mut BTreeMap<StIdx, Candidate>,
) {
    let tree = &program.procedure(proc_id).tree;
    for n in tree.pre_order(id) {
        let node = tree.node(n);
        // `LDA` under an `ARRAY` base is the normal subscripted read path;
        // only a bare address handed to a call (`PARM(LDA x)`) escapes.
        if node.operator == Opr::Parm {
            let v = tree.node(node.kids[0]);
            if v.operator == Opr::Lda {
                if let Some(st) = v.st_idx {
                    if let Some(c) = cands.get_mut(&st) {
                        c.escapes = true;
                        c.opaque_store = true;
                    } else if is_index_array(program, st) {
                        cands.entry(st).or_default().escapes = true;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    use whirl::Lang;

    fn program_f(src: &str) -> Program {
        compile_to_h(&[SourceFile::new("t.f", src, Lang::Fortran)], DEFAULT_LAYOUT_BASE)
            .unwrap()
    }

    fn st_of(p: &Program, name: &str) -> StIdx {
        p.symbols.find(p.interner.get(name).unwrap()).unwrap()
    }

    fn facts_of(p: &Program, proc_name: &str) -> BTreeMap<StIdx, IndexArrayFact> {
        derive(p, p.find_procedure(proc_name).unwrap())
    }

    #[test]
    fn identity_permutation_is_injective_and_monotone() {
        let p = program_f(
            "\
subroutine s
  integer idx(10)
  integer i
  do i = 1, 10
    idx(i) = i
  end do
end
",
        );
        let facts = facts_of(&p, "s");
        let f = facts.get(&st_of(&p, "idx")).expect("fact for idx");
        assert!(f.injective);
        assert!(f.monotone_nondecreasing);
        assert!(f.constant_after_init);
        assert_eq!(f.value_range, Some((1, 10)));
        assert_eq!(f.init_region.as_ref().unwrap().to_string(), "(0:9:1)");
    }

    #[test]
    fn reversed_mapping_is_injective_not_monotone() {
        let p = program_f(
            "\
subroutine s
  integer idx(10)
  integer i
  do i = 1, 10
    idx(i) = 11 - i
  end do
end
",
        );
        let facts = facts_of(&p, "s");
        let f = facts.get(&st_of(&p, "idx")).unwrap();
        assert!(f.injective);
        assert!(!f.monotone_nondecreasing);
        assert_eq!(f.value_range, Some((1, 10)));
    }

    #[test]
    fn constant_store_is_not_injective_but_has_range() {
        let p = program_f(
            "\
subroutine s
  integer idx(10)
  integer i
  do i = 1, 10
    idx(i) = 3
  end do
end
",
        );
        let facts = facts_of(&p, "s");
        let f = facts.get(&st_of(&p, "idx")).unwrap();
        assert!(!f.injective);
        // Constant is (vacuously) non-decreasing: a = 0.
        assert!(f.monotone_nondecreasing);
        assert_eq!(f.value_range, Some((3, 3)));
    }

    #[test]
    fn two_store_sites_join_ranges_and_drop_injectivity() {
        let p = program_f(
            "\
subroutine s
  integer idx(20)
  integer i
  do i = 1, 10
    idx(i) = i
  end do
  do i = 11, 20
    idx(i) = i - 10
  end do
end
",
        );
        let facts = facts_of(&p, "s");
        let f = facts.get(&st_of(&p, "idx")).unwrap();
        assert!(!f.injective, "two sites: duplicates possible");
        assert_eq!(f.value_range, Some((1, 10)));
        assert_eq!(f.init_region.as_ref().unwrap().to_string(), "(0:19:1)");
    }

    #[test]
    fn symbolic_bound_store_yields_no_fact() {
        let p = program_f(
            "\
subroutine s(n)
  integer idx(10)
  integer n, i
  do i = 1, n
    idx(i) = i
  end do
end
",
        );
        let facts = facts_of(&p, "s");
        assert!(facts.get(&st_of(&p, "idx")).is_none(), "symbolic trip count");
    }

    #[test]
    fn escaped_array_loses_constancy_and_injectivity() {
        let p = program_f(
            "\
subroutine s
  integer idx(10)
  integer i
  do i = 1, 10
    idx(i) = i
  end do
  call mutate(idx)
end
subroutine mutate(v)
  integer v(10)
  v(1) = 7
end
",
        );
        let facts = facts_of(&p, "s");
        // Escape poisons the candidate entirely: the callee may rewrite it.
        assert!(facts.get(&st_of(&p, "idx")).is_none());
    }

    #[test]
    fn zero_trip_loop_stores_contribute_nothing() {
        // `do i = 10, 1` (step +1) never executes: its store must not
        // widen value_range, overclaim init_region, or break injectivity.
        let p = program_f(
            "\
subroutine s
  integer idx(10)
  integer i
  do i = 1, 10
    idx(i) = i
  end do
  do i = 10, 1
    idx(i) = 1000
  end do
end
",
        );
        let facts = facts_of(&p, "s");
        let f = facts.get(&st_of(&p, "idx")).expect("fact for idx");
        assert!(f.injective, "dead store must not count as a second site");
        assert_eq!(f.value_range, Some((1, 10)));
        assert_eq!(f.init_region.as_ref().unwrap().to_string(), "(0:9:1)");
    }

    #[test]
    fn stride_overflow_is_non_qualifying() {
        // |c1 · step| overflows i64 while both affine extents stay in
        // range: the site must disqualify instead of wrapping/panicking.
        let cand = Candidate {
            sites: vec![StoreSite {
                index: AffExpr::Lin {
                    constant: 0,
                    terms: vec![(StIdx(7), 5_000_000_000_i64)],
                },
                value: AffExpr::constant(1),
                nest: vec![Some(ConstLoop {
                    ivar: StIdx(7),
                    lo: -1_000_000_000,
                    hi: 1_000_000_000,
                    step: 2_000_000_000,
                })],
                container: WnId(0),
            }],
            escapes: false,
            opaque_store: false,
        };
        let p = program_f("subroutine s\nend\n");
        let tree = &p.procedure(p.find_procedure("s").unwrap()).tree;
        let f = summarize_candidate(&cand, tree, &BTreeMap::new());
        assert!(!f.is_useful(), "overflowing stride must yield no fact: {f:?}");
        assert_eq!(f.value_range, None);
    }

    #[test]
    fn init_end_pos_marks_the_defining_loop_exit() {
        let p = program_f(
            "\
subroutine s
  integer idx(10)
  integer i
  do i = 1, 10
    idx(i) = i
  end do
end
",
        );
        let id = p.find_procedure("s").unwrap();
        let f = facts_of(&p, "s")[&st_of(&p, "idx")].clone();
        let tree = &p.procedure(id).tree;
        let pos = preorder_positions(tree);
        // Every node of the defining loop's subtree is at or before the
        // completion position — only code after the loop may use the fact.
        let store = tree
            .iter()
            .find(|&n| tree.node(n).operator == Opr::Istore)
            .expect("the init store");
        assert!(pos[&store] <= f.init_end_pos);
        assert!(f.init_end_pos > 0);
    }

    #[test]
    fn real_array_is_not_a_candidate() {
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer i
  do i = 1, 10
    a(i) = 1.0
  end do
end
",
        );
        assert!(facts_of(&p, "s").is_empty());
    }
}
