//! Loop-level auto-parallelization analysis.
//!
//! The paper's third functionality pillar: "We provide an approach to detect
//! and exploit parallelism in Fortran 77/90, C, and C++ programs ...
//! [OpenUH's APO] can be invoked ... to discover and exploit parallelism"
//! — and the Case 1 payoff inserts "one `!$omp parallel do`" before the
//! fused loop. This module decides whether a counted loop carries a
//! cross-iteration dependence, using the same Fourier–Motzkin machinery the
//! Regions method relies on:
//!
//! for every pair of references to one array with at least one `DEF`, build
//! the system { bounds(i₁), bounds(i₂), i₁ < i₂, subsA(i₁) = subsB(i₂) }
//! (inner loop variables get independent copies per instance) and test
//! satisfiability — satisfiable ⇒ two different iterations touch the same
//! element ⇒ loop-carried dependence.
//!
//! Scalars assigned inside the body are classified as *reductions*
//! (`s = s ⊕ expr`) or *privatizable* temporaries; neither blocks
//! parallelization, but both are reported so the advisor can emit the right
//! OpenMP clauses.

use crate::index_facts::{self, IndexArrayFact};
use crate::local::{peel_const_offset, whirl_to_affine, AffExpr};
use crate::sideeffect::const_subset;
use regions::constraint::{Constraint, ConstraintSystem};
use regions::fourier_motzkin::is_satisfiable;
use regions::linexpr::LinExpr;
use regions::space::{Space, VarId};
use regions::triplet::Triplet;
use std::collections::{BTreeMap, BTreeSet};
use whirl::{Opr, ProcId, Program, StClass, StIdx, TyKind, WhirlTree, WnId};

/// Variable-allocation callback used while building a dependence system:
/// `(symbol, instance, per_instance, space, interner, shared, per-instance
/// maps) → space variable`.
type VarAllocFn<'a> = dyn FnMut(
        StIdx,
        usize,
        bool,
        &mut Space,
        &mut support::Interner,
        &mut BTreeMap<StIdx, VarId>,
        &mut [BTreeMap<StIdx, VarId>; 2],
    ) -> VarId
    + 'a;

/// One array reference collected from a loop body.
#[derive(Debug, Clone)]
struct BodyRef {
    array: StIdx,
    is_def: bool,
    subs: Vec<AffExpr>,
    /// Inner loops enclosing this reference (inside the tested loop),
    /// outermost first: (ivar, lo, hi).
    inner: Vec<(StIdx, AffExpr, AffExpr)>,
    /// For 1-D references of the shape `a(idx(g) + offset)`: the index
    /// array, the inner subscript `g`, and the constant offset.
    indirect: Option<IndirectRef>,
}

/// An indirect subscript `idx(g) + offset` discovered in a loop body.
#[derive(Debug, Clone)]
struct IndirectRef {
    array: StIdx,
    g: AffExpr,
    offset: i64,
}

/// Scalar behaviour inside the loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarUse {
    /// `s = s ⊕ expr` — parallelizable with a `reduction` clause.
    Reduction,
    /// Assigned but never self-referencing — parallelizable with `private`.
    Privatizable,
}

/// Why a loop was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopConflict {
    /// The array carrying the dependence.
    pub array: StIdx,
    /// Human-readable reason.
    pub reason: String,
}

/// The verdict for one loop.
#[derive(Debug, Clone)]
pub struct LoopVerdict {
    /// The loop's induction variable.
    pub ivar: StIdx,
    /// Source line of the loop header.
    pub line: u32,
    /// True when no loop-carried array dependence was found.
    pub parallelizable: bool,
    /// Scalars needing OpenMP clauses, with their classification.
    pub scalars: Vec<(StIdx, ScalarUse)>,
    /// The first conflicts found (empty when parallelizable).
    pub conflicts: Vec<LoopConflict>,
}

/// Analyzes every outermost-in-procedure counted loop of `proc_id`.
///
/// ```
/// use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
///
/// let src = "\
/// subroutine s
///   real a(101)
///   integer i
///   do i = 1, 100
///     a(i + 1) = a(i)
///   end do
/// end
/// ";
/// let p = compile_to_h(&[SourceFile::new("s.f", src, whirl::Lang::Fortran)],
///                      DEFAULT_LAYOUT_BASE).unwrap();
/// let verdicts = ipa::analyze_proc_loops(&p, p.find_procedure("s").unwrap());
/// assert!(!verdicts[0].parallelizable, "a(i+1) = a(i) carries a dependence");
/// ```
pub fn analyze_proc_loops(program: &Program, proc_id: ProcId) -> Vec<LoopVerdict> {
    analyze_proc_loops_with_facts(program, proc_id, &BTreeMap::new())
}

/// [`analyze_proc_loops`] with globally-validated index-array facts (from
/// [`crate::propagate::IpaResult::index_facts`]). Facts let `a(idx(g))`
/// subscripts through an injective, write-once index array be tested for
/// dependence on `g` instead of being rejected as messy. Locally-derived
/// facts for `Local`-class index arrays are merged in — those cannot be
/// written by any other procedure, so per-procedure derivation is already
/// globally sound for them.
pub fn analyze_proc_loops_with_facts(
    program: &Program,
    proc_id: ProcId,
    global_facts: &BTreeMap<StIdx, IndexArrayFact>,
) -> Vec<LoopVerdict> {
    let mut facts = global_facts.clone();
    // Completion positions for every index array this procedure itself
    // defines (any storage class): the injective escape must not fire for
    // a loop that runs before — or inside — the defining nest.
    let mut local_init_end: BTreeMap<StIdx, u32> = BTreeMap::new();
    for (st, f) in index_facts::derive(program, proc_id) {
        local_init_end.insert(st, f.init_end_pos);
        if program.symbols.get(st).class == StClass::Local {
            facts.entry(st).or_insert(f);
        }
    }
    let proc = program.procedure(proc_id);
    let mut out = Vec::new();
    let Some(root) = proc.tree.root() else { return out };
    let Some(&body) = proc.tree.node(root).kids.last() else { return out };
    let pos = index_facts::preorder_positions(&proc.tree);
    collect_top_loops(&proc.tree, body, &mut |loop_wn| {
        out.push(analyze_loop_with_facts(
            program,
            proc_id,
            loop_wn,
            &facts,
            &local_init_end,
            pos.get(&loop_wn).copied(),
        ));
    });
    out
}

/// Finds the outermost `DoLoop`s under a block (not descending into loops).
fn collect_top_loops(tree: &WhirlTree, block: WnId, f: &mut impl FnMut(WnId)) {
    for &stmt in &tree.node(block).kids {
        match tree.node(stmt).operator {
            Opr::DoLoop => f(stmt),
            Opr::If => {
                collect_top_loops(tree, tree.node(stmt).kids[1], f);
                collect_top_loops(tree, tree.node(stmt).kids[2], f);
            }
            _ => {}
        }
    }
}

/// Analyzes one `DoLoop` node.
pub fn analyze_loop(program: &Program, proc_id: ProcId, loop_wn: WnId) -> LoopVerdict {
    analyze_loop_with_facts(program, proc_id, loop_wn, &BTreeMap::new(), &BTreeMap::new(), None)
}

/// Conditions under which the injective-index escape may fire for a loop.
struct EscapeCtx<'a> {
    facts: &'a BTreeMap<StIdx, IndexArrayFact>,
    /// Arrays the loop body (or a call inside it) may define.
    body_defs: BTreeSet<StIdx>,
    /// A call anywhere in the body could mutate a global index array
    /// without appearing in `body_defs`; disable the escape entirely.
    saw_call: bool,
    /// Per-array position after which a locally-defined index array's
    /// initialization completes (pre-order, this procedure's tree).
    local_init_end: &'a BTreeMap<StIdx, u32>,
    /// Pre-order position of the tested loop; `None` when unknown.
    loop_pos: Option<u32>,
}

/// [`analyze_loop`] with index-array facts available.
fn analyze_loop_with_facts(
    program: &Program,
    proc_id: ProcId,
    loop_wn: WnId,
    facts: &BTreeMap<StIdx, IndexArrayFact>,
    local_init_end: &BTreeMap<StIdx, u32>,
    loop_pos: Option<u32>,
) -> LoopVerdict {
    let proc = program.procedure(proc_id);
    let tree = &proc.tree;
    let node = tree.node(loop_wn);
    debug_assert_eq!(node.operator, Opr::DoLoop);
    let Some(ivar) = node.st_idx else {
        // Malformed loop: no induction variable to reason about. Reject
        // conservatively instead of panicking.
        return LoopVerdict {
            ivar: StIdx(0),
            line: node.linenum,
            parallelizable: false,
            scalars: Vec::new(),
            conflicts: vec![LoopConflict {
                array: StIdx(0),
                reason: "malformed loop: missing induction variable".to_string(),
            }],
        };
    };
    let line = node.linenum;
    let lo = whirl_to_affine(tree, tree.node(node.kids[0]).kids[0]);
    let hi = whirl_to_affine(tree, tree.node(node.kids[1]).kids[1]);
    let body = node.kids[3];

    // Collect references and scalar writes.
    let mut refs: Vec<BodyRef> = Vec::new();
    let mut scalars: BTreeMap<StIdx, ScalarUse> = BTreeMap::new();
    let mut inner: Vec<(StIdx, AffExpr, AffExpr)> = Vec::new();
    let mut saw_call = false;
    walk_body(program, tree, body, &mut inner, &mut refs, &mut scalars, &mut saw_call);

    let ctx = EscapeCtx {
        facts,
        body_defs: refs.iter().filter(|r| r.is_def).map(|r| r.array).collect(),
        saw_call,
        local_init_end,
        loop_pos,
    };

    // Pairwise array dependence tests.
    let mut conflicts = Vec::new();
    'pairs: for a in 0..refs.len() {
        for b in a..refs.len() {
            let (ra, rb) = (&refs[a], &refs[b]);
            if ra.array != rb.array || (!ra.is_def && !rb.is_def) {
                continue;
            }
            match carried_dependence(ivar, &lo, &hi, ra, rb, &ctx) {
                Some(true) | None => {
                    conflicts.push(LoopConflict {
                        array: ra.array,
                        reason: describe(program, ra, rb),
                    });
                    if conflicts.len() >= 4 {
                        break 'pairs;
                    }
                }
                Some(false) => {}
            }
        }
    }

    LoopVerdict {
        ivar,
        line,
        parallelizable: conflicts.is_empty(),
        scalars: scalars.into_iter().collect(),
        conflicts,
    }
}

fn describe(program: &Program, a: &BodyRef, b: &BodyRef) -> String {
    let name = program.name_of(program.symbols.get(a.array).name);
    let kind = match (a.is_def, b.is_def) {
        (true, true) => "write/write",
        (true, false) => "write/read",
        (false, true) => "read/write",
        (false, false) => unreachable!("USE/USE pairs never conflict"),
    };
    format!("loop-carried {kind} dependence on `{name}`")
}

/// Walks a loop body collecting array references (with their inner-loop
/// context) and scalar assignment classifications. `DoLoop` init/increment
/// stores are structural, not body scalars.
fn walk_body(
    program: &Program,
    tree: &WhirlTree,
    block: WnId,
    inner: &mut Vec<(StIdx, AffExpr, AffExpr)>,
    refs: &mut Vec<BodyRef>,
    scalars: &mut BTreeMap<StIdx, ScalarUse>,
    saw_call: &mut bool,
) {
    for &stmt in &tree.node(block).kids {
        let node = tree.node(stmt);
        match node.operator {
            Opr::Stid => {
                let Some(st) = node.st_idx else {
                    collect_expr_refs(program, tree, node.kids[0], inner, refs);
                    continue;
                };
                let rhs = node.kids[0];
                collect_expr_refs(program, tree, rhs, inner, refs);
                let self_ref = mentions_scalar(tree, rhs, st);
                let class =
                    if self_ref { ScalarUse::Reduction } else { ScalarUse::Privatizable };
                // A later self-referencing write upgrades the class.
                scalars
                    .entry(st)
                    .and_modify(|c| {
                        if class == ScalarUse::Reduction {
                            *c = ScalarUse::Reduction;
                        }
                    })
                    .or_insert(class);
            }
            Opr::Istore => {
                collect_expr_refs(program, tree, node.kids[0], inner, refs);
                record_address(program, tree, node.kids[1], true, inner, refs);
            }
            Opr::Call => {
                // Calls inside candidate loops are the APO limitation the
                // paper's tool works around; conservatively reject by
                // treating every array argument as a messy DEF.
                *saw_call = true;
                for &parm in &node.kids {
                    let v = tree.node(parm).kids[0];
                    let vn = tree.node(v);
                    if vn.operator == Opr::Lda {
                        if let Some(st) = vn.st_idx {
                            if matches!(
                                program.types.get(program.symbols.get(st).ty).kind,
                                TyKind::Array { .. }
                            ) {
                                refs.push(BodyRef {
                                    array: st,
                                    is_def: true,
                                    subs: vec![AffExpr::Messy],
                                    inner: inner.clone(),
                                    indirect: None,
                                });
                            }
                        }
                    } else {
                        collect_expr_refs(program, tree, v, inner, refs);
                    }
                }
            }
            Opr::DoLoop => {
                let Some(iv) = node.st_idx else {
                    // No induction variable: walk the body without an inner
                    // frame; its subscripts degrade to shared symbols.
                    walk_body(program, tree, node.kids[3], inner, refs, scalars, saw_call);
                    continue;
                };
                let lo = whirl_to_affine(tree, tree.node(node.kids[0]).kids[0]);
                let hi = whirl_to_affine(tree, tree.node(node.kids[1]).kids[1]);
                inner.push((iv, lo, hi));
                walk_body(program, tree, node.kids[3], inner, refs, scalars, saw_call);
                inner.pop();
            }
            Opr::If => {
                collect_expr_refs(program, tree, node.kids[0], inner, refs);
                walk_body(program, tree, node.kids[1], inner, refs, scalars, saw_call);
                walk_body(program, tree, node.kids[2], inner, refs, scalars, saw_call);
            }
            _ => {}
        }
    }
}

fn collect_expr_refs(
    program: &Program,
    tree: &WhirlTree,
    id: WnId,
    inner: &[(StIdx, AffExpr, AffExpr)],
    refs: &mut Vec<BodyRef>,
) {
    let node = tree.node(id);
    if node.operator == Opr::Iload {
        let mut addr = node.kids[0];
        if tree.node(addr).operator == Opr::RemoteArray {
            collect_expr_refs(program, tree, tree.node(addr).kids[1], inner, refs);
            addr = tree.node(addr).kids[0];
        }
        if tree.node(addr).operator == Opr::Array {
            record_address(program, tree, addr, false, &mut inner.to_vec(), refs);
            let n = tree.node(addr).num_dim();
            for d in 0..n {
                collect_expr_refs(program, tree, tree.node(addr).array_index_kid(d), inner, refs);
            }
            return;
        }
    }
    for &k in &node.kids {
        collect_expr_refs(program, tree, k, inner, refs);
    }
}

fn record_address(
    program: &Program,
    tree: &WhirlTree,
    mut addr: WnId,
    is_def: bool,
    inner: &mut [(StIdx, AffExpr, AffExpr)],
    refs: &mut Vec<BodyRef>,
) {
    if tree.node(addr).operator == Opr::RemoteArray {
        addr = tree.node(addr).kids[0];
    }
    let node = tree.node(addr);
    if node.operator != Opr::Array {
        return;
    }
    let Some(array) = tree.node(node.array_base_kid()).st_idx else { return };
    let n = node.num_dim();
    let subs: Vec<AffExpr> = (0..n)
        .map(|d| whirl_to_affine(tree, node.array_index_kid(d)))
        .collect();
    let indirect = (n == 1)
        .then(|| match_indirect(program, tree, addr))
        .flatten();
    refs.push(BodyRef { array, is_def, subs, inner: inner.to_vec(), indirect });
}

/// Recognizes `idx(g) + offset` as the (only) subscript of a 1-D array
/// reference, where `idx` is a 1-D integer array.
fn match_indirect(program: &Program, tree: &WhirlTree, array_wn: WnId) -> Option<IndirectRef> {
    let node = tree.node(array_wn);
    let (iload, offset) = peel_const_offset(tree, node.array_index_kid(0))?;
    let n = tree.node(iload);
    if n.operator != Opr::Iload {
        return None;
    }
    let inner = tree.node(n.kids[0]);
    if inner.operator != Opr::Array || inner.num_dim() != 1 {
        return None;
    }
    let idx_st = tree.node(inner.array_base_kid()).st_idx?;
    if !index_facts::is_index_array(program, idx_st) {
        return None;
    }
    let g = whirl_to_affine(tree, inner.array_index_kid(0));
    matches!(g, AffExpr::Lin { .. }).then(|| IndirectRef { array: idx_st, g, offset })
}

fn mentions_scalar(tree: &WhirlTree, id: WnId, st: StIdx) -> bool {
    let node = tree.node(id);
    if node.operator == Opr::Ldid && node.st_idx == Some(st) {
        return true;
    }
    node.kids.iter().any(|&k| mentions_scalar(tree, k, st))
}

/// Decides whether accesses `a` (at iteration i₁) and `b` (at iteration
/// i₂ ≠ i₁) can touch the same element. `Some(false)` = provably
/// independent; `Some(true)` = dependence witnessed; `None` = unknown
/// (messy subscripts) — callers must treat as dependent.
fn carried_dependence(
    ivar: StIdx,
    lo: &AffExpr,
    hi: &AffExpr,
    a: &BodyRef,
    b: &BodyRef,
    ctx: &EscapeCtx<'_>,
) -> Option<bool> {
    if a.subs.len() != b.subs.len() {
        return None;
    }
    if a.subs.iter().chain(&b.subs).any(|s| matches!(s, AffExpr::Messy)) {
        // Injective-index escape: both subscripts read through the same
        // write-once injective index array, so element equality is
        // equivalent to inner-subscript equality — retest on `g`.
        if let Some((ga, gb)) = injective_escape(ivar, lo, hi, a, b, ctx) {
            let strip = |r: &BodyRef, g: AffExpr| BodyRef {
                array: r.array,
                is_def: r.is_def,
                subs: vec![g],
                inner: r.inner.clone(),
                indirect: None,
            };
            return carried_dependence(ivar, lo, hi, &strip(a, ga), &strip(b, gb), ctx);
        }
        return None;
    }
    if matches!(lo, AffExpr::Messy) || matches!(hi, AffExpr::Messy) {
        return None;
    }
    // Two directional checks: A@i₁ meets B@i₂ with i₁ < i₂, and vice versa.
    for flip in [false, true] {
        let (first, second) = if flip { (b, a) } else { (a, b) };
        if dependence_system_satisfiable(ivar, lo, hi, first, second)? {
            return Some(true);
        }
    }
    Some(false)
}

/// Checks the preconditions of the injective-index escape for a reference
/// pair; returns the two inner subscripts when element equality on the
/// outer array is equivalent to equality of those subscripts.
fn injective_escape(
    ivar: StIdx,
    lo: &AffExpr,
    hi: &AffExpr,
    a: &BodyRef,
    b: &BodyRef,
    ctx: &EscapeCtx<'_>,
) -> Option<(AffExpr, AffExpr)> {
    if ctx.saw_call {
        return None;
    }
    let (ia, ib) = (a.indirect.as_ref()?, b.indirect.as_ref()?);
    if ia.array != ib.array || ia.offset != ib.offset || ctx.body_defs.contains(&ia.array) {
        return None;
    }
    let fact = ctx.facts.get(&ia.array)?;
    if !fact.injective || !fact.constant_after_init {
        return None;
    }
    // Flow gate: when this procedure itself defines the index array, the
    // tested loop must start after the defining nest has completed — a
    // gather loop placed ahead of the init loop reads values the array
    // has not been given yet.
    if let Some(&end) = ctx.local_init_end.get(&ia.array) {
        if ctx.loop_pos.is_none_or(|p| p <= end) {
            return None;
        }
    }
    let init = fact.init_region.as_ref()?;
    let [init_dim] = &init.dims[..] else { return None };
    // Injectivity only holds over the initialized domain: both inner
    // subscripts must stay inside it for every tested iteration.
    let (lo_c, hi_c) = (lo.as_const()?, hi.as_const()?);
    for g in [&ia.g, &ib.g] {
        if !const_subset(&g_range(g, ivar, lo_c, hi_c)?, init_dim) {
            return None;
        }
    }
    Some((ia.g.clone(), ib.g.clone()))
}

/// The constant triplet `g` covers as `ivar` sweeps `[lo, hi]`; `None` when
/// `g` mentions anything besides `ivar` or overflows.
fn g_range(g: &AffExpr, ivar: StIdx, lo: i64, hi: i64) -> Option<Triplet> {
    let AffExpr::Lin { constant, terms } = g else { return None };
    let c = match terms[..] {
        [] => 0,
        [(st, c)] if st == ivar => c,
        _ => return None,
    };
    let at = |i: i64| c.checked_mul(i)?.checked_add(*constant);
    let (x, y) = (at(lo)?, at(hi)?);
    Some(Triplet::constant(x.min(y), x.max(y), c.abs().max(1)))
}

/// Builds and tests the dependence system for `first@i₁`, `second@i₂`,
/// `i₁ < i₂`.
fn dependence_system_satisfiable(
    ivar: StIdx,
    lo: &AffExpr,
    hi: &AffExpr,
    first: &BodyRef,
    second: &BodyRef,
) -> Option<bool> {
    let mut space = Space::new();
    let mut interner = support::Interner::new();
    // Variable maps per instance: the tested ivar and every inner loop var
    // get per-instance copies; everything else is shared (loop-invariant).
    let mut shared: BTreeMap<StIdx, VarId> = BTreeMap::new();
    let mut inst: [BTreeMap<StIdx, VarId>; 2] = [BTreeMap::new(), BTreeMap::new()];

    let mut var_for = |st: StIdx,
                       instance: usize,
                       per_instance: bool,
                       space: &mut Space,
                       interner: &mut support::Interner,
                       shared: &mut BTreeMap<StIdx, VarId>,
                       inst: &mut [BTreeMap<StIdx, VarId>; 2]|
     -> VarId {
        if per_instance {
            *inst[instance].entry(st).or_insert_with(|| {
                let name = interner.intern(&format!("v{}_{}", st.0, instance));
                space.add_loop(name)
            })
        } else {
            *shared.entry(st).or_insert_with(|| {
                let name = interner.intern(&format!("s{}", st.0));
                space.add_sym(name)
            })
        }
    };

    // Per-instance variables: the tested ivar plus that instance's inner
    // loop variables.
    let instance_vars = |r: &BodyRef| -> Vec<StIdx> {
        let mut v: Vec<StIdx> = vec![ivar];
        v.extend(r.inner.iter().map(|(st, _, _)| *st));
        v
    };
    let inst_vars = [instance_vars(first), instance_vars(second)];

    let to_lin = |e: &AffExpr,
                  instance: usize,
                  space: &mut Space,
                  interner: &mut support::Interner,
                  shared: &mut BTreeMap<StIdx, VarId>,
                  inst: &mut [BTreeMap<StIdx, VarId>; 2],
                  var_for: &mut VarAllocFn,
                  inst_vars: &[Vec<StIdx>; 2]|
     -> Option<LinExpr> {
        match e {
            AffExpr::Lin { constant, terms } => {
                let mut out = LinExpr::constant(*constant);
                for &(st, c) in terms {
                    let per_instance = inst_vars[instance].contains(&st);
                    let v = var_for(st, instance, per_instance, space, interner, shared, inst);
                    out.add_term(v, c);
                }
                Some(out)
            }
            AffExpr::Messy => None,
        }
    };

    let mut cs = ConstraintSystem::new();
    // Loop bounds for both instances of the tested variable.
    for instance in 0..2 {
        let iv = var_for(ivar, instance, true, &mut space, &mut interner, &mut shared, &mut inst);
        let lo_l = to_lin(lo, instance, &mut space, &mut interner, &mut shared, &mut inst, &mut var_for, &inst_vars)?;
        let hi_l = to_lin(hi, instance, &mut space, &mut interner, &mut shared, &mut inst, &mut var_for, &inst_vars)?;
        cs.push(Constraint::ge(LinExpr::var(iv), lo_l));
        cs.push(Constraint::le(LinExpr::var(iv), hi_l));
    }
    // Distinct iterations: i₁ ≤ i₂ - 1.
    let i1 = inst[0][&ivar];
    let i2 = inst[1][&ivar];
    cs.push(Constraint::le(
        LinExpr::var(i1),
        LinExpr::var(i2).add(&LinExpr::constant(-1)),
    ));
    // Inner loop bounds per instance.
    for (instance, r) in [(0usize, first), (1usize, second)] {
        for (st, ilo, ihi) in &r.inner {
            let v = var_for(*st, instance, true, &mut space, &mut interner, &mut shared, &mut inst);
            let lo_l = to_lin(ilo, instance, &mut space, &mut interner, &mut shared, &mut inst, &mut var_for, &inst_vars)?;
            let hi_l = to_lin(ihi, instance, &mut space, &mut interner, &mut shared, &mut inst, &mut var_for, &inst_vars)?;
            cs.push(Constraint::ge(LinExpr::var(v), lo_l));
            cs.push(Constraint::le(LinExpr::var(v), hi_l));
        }
    }
    // Element equality per dimension.
    for (sa, sb) in first.subs.iter().zip(&second.subs) {
        let la = to_lin(sa, 0, &mut space, &mut interner, &mut shared, &mut inst, &mut var_for, &inst_vars)?;
        let lb = to_lin(sb, 1, &mut space, &mut interner, &mut shared, &mut inst, &mut var_for, &inst_vars)?;
        cs.push(Constraint::eq(la, lb));
    }
    Some(is_satisfiable(&cs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    use whirl::Lang;

    fn verdicts(src: &str, proc: &str) -> Vec<LoopVerdict> {
        let p = compile_to_h(
            &[SourceFile::new("t.f", src, Lang::Fortran)],
            DEFAULT_LAYOUT_BASE,
        )
        .unwrap();
        let id = p.find_procedure(proc).unwrap();
        analyze_proc_loops(&p, id)
    }

    #[test]
    fn disjoint_writes_are_parallel() {
        let v = verdicts(
            "subroutine s\n  real a(100)\n  integer i\n  do i = 1, 100\n    a(i) = 1.0\n  end do\nend\n",
            "s",
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].parallelizable, "{v:?}");
    }

    #[test]
    fn read_same_write_same_iteration_is_parallel() {
        // a(i) = a(i) + 1: intra-iteration only.
        let v = verdicts(
            "subroutine s\n  real a(100)\n  integer i\n  do i = 1, 100\n    a(i) = a(i) + 1.0\n  end do\nend\n",
            "s",
        );
        assert!(v[0].parallelizable, "{v:?}");
    }

    #[test]
    fn shifted_write_read_is_carried() {
        // a(i+1) = a(i): classic flow dependence.
        let v = verdicts(
            "subroutine s\n  real a(101)\n  integer i\n  do i = 1, 100\n    a(i + 1) = a(i)\n  end do\nend\n",
            "s",
        );
        assert!(!v[0].parallelizable);
        assert!(v[0].conflicts[0].reason.contains("dependence on `a`"), "{v:?}");
    }

    #[test]
    fn stride_two_shift_is_still_carried() {
        let v = verdicts(
            "subroutine s\n  real a(102)\n  integer i\n  do i = 1, 100\n    a(i + 2) = a(i)\n  end do\nend\n",
            "s",
        );
        assert!(!v[0].parallelizable);
    }

    #[test]
    fn disjoint_halves_are_parallel() {
        // a(i) reads a(i + 50) over i = 1..50: read/write regions at
        // distance 50 with only 49 iterations of separation — wait, i₂ can
        // be i₁ + 50? i ranges 1..50, write a(i), read a(i+50) ∈ 51..100:
        // never equal.
        let v = verdicts(
            "subroutine s\n  real a(100)\n  integer i\n  do i = 1, 50\n    a(i) = a(i + 50)\n  end do\nend\n",
            "s",
        );
        assert!(v[0].parallelizable, "{v:?}");
    }

    #[test]
    fn reduction_detected_and_does_not_block() {
        let v = verdicts(
            "subroutine s\n  real a(100)\n  real total\n  integer i\n  do i = 1, 100\n    total = total + a(i)\n  end do\nend\n",
            "s",
        );
        assert!(v[0].parallelizable);
        assert_eq!(v[0].scalars.len(), 1);
        assert_eq!(v[0].scalars[0].1, ScalarUse::Reduction);
    }

    #[test]
    fn private_temporary_detected() {
        let v = verdicts(
            "subroutine s\n  real a(100)\n  real t\n  integer i\n  do i = 1, 100\n    t = 2.0\n    a(i) = t\n  end do\nend\n",
            "s",
        );
        assert!(v[0].parallelizable);
        assert_eq!(v[0].scalars[0].1, ScalarUse::Privatizable);
    }

    #[test]
    fn nested_loop_outer_parallel() {
        // a(i, j) = b(i, j): outer loop has no carried dependence.
        let v = verdicts(
            "\
subroutine s
  real a(50, 50), b(50, 50)
  integer i, j
  do i = 1, 50
    do j = 1, 50
      a(i, j) = b(i, j)
    end do
  end do
end
",
            "s",
        );
        assert_eq!(v.len(), 1, "only the outer loop is a top-level candidate");
        assert!(v[0].parallelizable, "{v:?}");
    }

    #[test]
    fn wavefront_is_not_parallel() {
        // a(i, j) = a(i - 1, j): carried on the outer loop.
        let v = verdicts(
            "\
subroutine s
  real a(50, 50)
  integer i, j
  do i = 2, 50
    do j = 1, 50
      a(i, j) = a(i - 1, j)
    end do
  end do
end
",
            "s",
        );
        assert!(!v[0].parallelizable);
    }

    #[test]
    fn indirect_subscript_is_conservative() {
        let v = verdicts(
            "\
subroutine s
  real a(100)
  integer idx(100)
  integer i
  do i = 1, 100
    a(idx(i)) = 1.0
  end do
end
",
            "s",
        );
        assert!(!v[0].parallelizable, "messy subscripts must be conservative");
    }

    #[test]
    fn injective_gather_write_is_parallel() {
        // idx is a local permutation initialized before the loop: the
        // derived fact proves the gather writes hit distinct elements.
        let v = verdicts(
            "\
subroutine s
  real a(100)
  integer idx(100)
  integer i
  do i = 1, 100
    idx(i) = 101 - i
  end do
  do i = 1, 100
    a(idx(i)) = 1.0
  end do
end
",
            "s",
        );
        assert_eq!(v.len(), 2);
        assert!(v[0].parallelizable, "init loop: {v:?}");
        assert!(v[1].parallelizable, "gather through injective idx: {v:?}");
    }

    #[test]
    fn injective_gather_update_same_iteration_is_parallel() {
        // a(idx(i)) = a(idx(i)) + 1: read and write agree per iteration.
        let v = verdicts(
            "\
subroutine s
  real a(100)
  integer idx(100)
  integer i
  do i = 1, 100
    idx(i) = 101 - i
  end do
  do i = 1, 100
    a(idx(i)) = a(idx(i)) + 1.0
  end do
end
",
            "s",
        );
        assert!(v[1].parallelizable, "{v:?}");
    }

    #[test]
    fn injective_gather_shifted_read_is_carried() {
        // a(idx(i)) = a(idx(i - 1)): injectivity maps the collision back to
        // i₂ = i₁ + 1, which the affine test finds.
        let v = verdicts(
            "\
subroutine s
  real a(100)
  integer idx(100)
  integer i
  do i = 1, 100
    idx(i) = 101 - i
  end do
  do i = 2, 100
    a(idx(i)) = a(idx(i - 1))
  end do
end
",
            "s",
        );
        assert!(!v[1].parallelizable, "{v:?}");
    }

    #[test]
    fn gather_before_init_loop_stays_conservative() {
        // The gather loop runs before idx is initialized: the injectivity
        // fact describes values the array has not been given yet, so the
        // escape must not fire.
        let v = verdicts(
            "\
subroutine s
  real a(100)
  integer idx(100)
  integer i
  do i = 1, 100
    a(idx(i)) = 1.0
  end do
  do i = 1, 100
    idx(i) = 101 - i
  end do
end
",
            "s",
        );
        assert!(!v[0].parallelizable, "idx is uninitialized when the gather runs: {v:?}");
    }

    #[test]
    fn non_injective_index_stays_conservative() {
        // idx(i) = 1 + i / 2 repeats values; no injectivity, no escape.
        let v = verdicts(
            "\
subroutine s
  real a(100)
  integer idx(100)
  integer i
  do i = 1, 100
    idx(i) = 7
  end do
  do i = 1, 100
    a(idx(i)) = 1.0
  end do
end
",
            "s",
        );
        assert!(!v[1].parallelizable, "constant idx repeats: {v:?}");
    }

    #[test]
    fn index_written_in_body_stays_conservative() {
        let v = verdicts(
            "\
subroutine s
  real a(100)
  integer idx(100)
  integer i
  do i = 1, 100
    idx(i) = 101 - i
  end do
  do i = 1, 100
    idx(i) = i
    a(idx(i)) = 1.0
  end do
end
",
            "s",
        );
        assert!(!v[1].parallelizable, "idx mutates inside the loop: {v:?}");
    }

    #[test]
    fn call_in_loop_is_conservative() {
        // The APO limitation the paper cites: "function calls inside loops
        // can not be handled by this module".
        let v = verdicts(
            "\
subroutine s
  real a(100)
  common /g/ a
  integer i
  do i = 1, 100
    call leaf(a)
  end do
end
subroutine leaf(x)
  real x(100)
  x(1) = 0.0
end
",
            "s",
        );
        assert!(!v[0].parallelizable);
    }

    #[test]
    fn write_write_same_element_conflicts() {
        // a(1) = i: every iteration writes element 1.
        let v = verdicts(
            "subroutine s\n  real a(10)\n  integer i\n  do i = 1, 10\n    a(1) = i\n  end do\nend\n",
            "s",
        );
        assert!(!v[0].parallelizable);
        assert!(v[0].conflicts[0].reason.contains("write/write"), "{v:?}");
    }

    #[test]
    fn lu_rhs_loop_is_parallelizable() {
        let srcs: Vec<SourceFile> = workloads::mini_lu::sources()
            .iter()
            .map(|g| SourceFile::new(&g.name, &g.text, Lang::Fortran))
            .collect();
        let p = compile_to_h(&srcs, DEFAULT_LAYOUT_BASE).unwrap();
        let rhs = p.find_procedure("rhs").unwrap();
        let v = analyze_proc_loops(&p, rhs);
        assert_eq!(v.len(), 1);
        assert!(v[0].parallelizable, "{:?}", v[0].conflicts);
    }

    #[test]
    fn lu_blts_loop_is_not_parallelizable() {
        let srcs: Vec<SourceFile> = workloads::mini_lu::sources()
            .iter()
            .map(|g| SourceFile::new(&g.name, &g.text, Lang::Fortran))
            .collect();
        let p = compile_to_h(&srcs, DEFAULT_LAYOUT_BASE).unwrap();
        let blts = p.find_procedure("blts").unwrap();
        let v = analyze_proc_loops(&p, blts);
        assert!(!v[0].parallelizable, "rsd(i-1) is a sweep dependence");
    }
}
