//! IPL: the local, per-procedure information-gathering phase.
//!
//! "IPL (the local interprocedural analysis part) first gathers data flow
//! analysis and procedure summary information from each compilation unit,
//! and the information is summarized for each procedure." For every
//! procedure we walk the H-level WHIRL tree once, tracking the enclosing
//! `DO_LOOP` nest, and record one [`AccessRecord`] per array reference:
//! `DEF` for `ISTORE` targets, `USE` for `ILOAD`s, `FORMAL` for array
//! formals, and `PASSED` for whole-array call arguments.

use crate::index_facts::{self, IndexArrayFact};
use crate::interval_ai;
use regions::access::{AccessMode, Precision};
use regions::linexpr::{merge_terms, LinExpr};
use regions::space::{Space, VarId};
use regions::summarize::{summarize_reference_detailed, LoopInfo, LoopNest, Subscript};
use regions::triplet::{Bound, Triplet, TripletRegion};
use regions::ConvexRegion;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use support::obs::{self, Counter};
use whirl::{Opr, ProcId, Procedure, Program, StIdx, TyKind, WhirlTree, WnId};

/// A subscript that reads through an index array: `A(idx(g) + offset)`.
///
/// Carried on the outer access so the side-effect and loop-parallel tests
/// can apply injectivity reasoning: if `idx` is injective and two accesses
/// go through disjoint `domain`s with equal `offset`, their images are
/// disjoint.
#[derive(Debug, Clone, PartialEq)]
pub struct IndirectIndex {
    /// The index array being read.
    pub index_array: StIdx,
    /// Zero-based elements of `index_array` the inner subscript covers
    /// (constant bounds only — symbolic domains never qualify).
    pub domain: TripletRegion,
    /// Constant added to the loaded value before indexing the outer array.
    pub offset: i64,
}

/// One summarized array reference.
#[derive(Debug, Clone)]
pub struct AccessRecord {
    /// The accessed array's symbol.
    pub array: StIdx,
    /// Access mode.
    pub mode: AccessMode,
    /// The accessed region in H order (row-major dimensions, zero-based).
    pub region: TripletRegion,
    /// Convex companion for comparisons, when linearizable.
    pub convex: Option<ConvexRegion>,
    /// The variable space `region`'s symbolic bounds refer to.
    pub space: Space,
    /// Source line of the reference.
    pub line: u32,
    /// Set when this record was propagated from a callee by the IPA phase.
    pub from_call: Option<ProcId>,
    /// True for coindexed (remote, PGAS) accesses — `x(i)[p]`.
    pub remote: bool,
    /// True when the region is a budget-exhaustion fallback (whole declared
    /// array or all-messy) rather than a computed summary. Still sound —
    /// approximate records only over-state what is accessed.
    pub approx: bool,
    /// How trustworthy the region is — the `.rgn` `precision` column.
    pub precision: Precision,
    /// Set when the (1-D) subscript reads through an index array.
    pub via_index: Option<IndirectIndex>,
}

/// Names one summary as built: equal revisions mean the same records,
/// read against the same symbol and type tables. Every summary built,
/// copied or rewritten gets a fresh one from a process-wide counter, so a
/// revision outlives an update only where the summary itself was moved
/// over. Never persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Revision(u64);

impl Revision {
    fn mint() -> Revision {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Revision(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// The summary of one procedure. Cloning mints a new [`Revision`].
#[derive(Debug)]
pub struct ProcSummary {
    /// All records, in visit order.
    pub accesses: Vec<AccessRecord>,
    /// Facts derived for this procedure's index arrays (sparse; only
    /// populated when the interval fallback ran).
    pub index_facts: BTreeMap<StIdx, IndexArrayFact>,
    revision: Revision,
}

impl Default for ProcSummary {
    fn default() -> Self {
        ProcSummary::new(Vec::new(), BTreeMap::new())
    }
}

impl Clone for ProcSummary {
    fn clone(&self) -> Self {
        ProcSummary::new(self.accesses.clone(), self.index_facts.clone())
    }
}

impl ProcSummary {
    /// A summary of `accesses` and `index_facts` under a new revision.
    pub fn new(
        accesses: Vec<AccessRecord>,
        index_facts: BTreeMap<StIdx, IndexArrayFact>,
    ) -> Self {
        ProcSummary { accesses, index_facts, revision: Revision::mint() }
    }

    /// This summary's revision.
    pub fn revision(&self) -> Revision {
        self.revision
    }

    /// Gives this summary a new revision: its records were rewritten in
    /// place, or what they are read against changed.
    pub fn remint(&mut self) {
        self.revision = Revision::mint();
    }

    /// Records touching `array`.
    pub fn for_array(&self, array: StIdx) -> impl Iterator<Item = &AccessRecord> {
        self.accesses.iter().filter(move |a| a.array == array)
    }

    /// Total references for `(array, mode)` — the Dragon `References`
    /// column ("The number of region accesses for the selected array based
    /// on the access mode").
    pub fn ref_count(&self, array: StIdx, mode: AccessMode) -> u64 {
        self.accesses
            .iter()
            .filter(|a| a.array == array && a.mode == mode)
            .count() as u64
    }
}

/// An affine expression over symbol-table entries — the bridge between
/// WHIRL expression trees and the region machinery's [`LinExpr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AffExpr {
    /// `constant + Σ coeff·st`.
    Lin {
        /// Constant term.
        constant: i64,
        /// Per-symbol coefficients, strictly ascending by symbol (no zero
        /// entries).
        terms: Vec<(StIdx, i64)>,
    },
    /// Not affine (indirect loads, products of variables, division, ...).
    Messy,
}

impl AffExpr {
    /// The constant expression.
    pub fn constant(c: i64) -> Self {
        AffExpr::Lin { constant: c, terms: Vec::new() }
    }

    /// The single-variable expression.
    pub fn var(st: StIdx) -> Self {
        AffExpr::Lin { constant: 0, terms: vec![(st, 1)] }
    }

    /// `self + k·other`.
    fn add_scaled(&self, other: &AffExpr, k: i64) -> AffExpr {
        match (self, other) {
            (
                AffExpr::Lin { constant: c1, terms: t1 },
                AffExpr::Lin { constant: c2, terms: t2 },
            ) => {
                let mut terms = Vec::new();
                merge_terms(t1, None, t2, k, &mut terms);
                AffExpr::Lin { constant: c1 + c2 * k, terms }
            }
            _ => AffExpr::Messy,
        }
    }

    fn scale(&self, k: i64) -> AffExpr {
        match self {
            AffExpr::Lin { constant, terms } => {
                if k == 0 {
                    return AffExpr::constant(0);
                }
                AffExpr::Lin {
                    constant: constant * k,
                    terms: terms
                        .iter()
                        .map(|&(st, c)| (st, c * k))
                        .filter(|&(_, c)| c != 0)
                        .collect(),
                }
            }
            AffExpr::Messy => AffExpr::Messy,
        }
    }

    /// `Some(c)` when the expression is the constant `c`.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            AffExpr::Lin { constant, terms } if terms.is_empty() => Some(*constant),
            _ => None,
        }
    }

    /// Symbols mentioned, ascending.
    pub fn symbols(&self) -> impl Iterator<Item = StIdx> + '_ {
        let terms: &[(StIdx, i64)] = match self {
            AffExpr::Lin { terms, .. } => terms,
            AffExpr::Messy => &[],
        };
        terms.iter().map(|&(st, _)| st)
    }
}

/// Converts a WHIRL expression subtree to an [`AffExpr`].
pub fn whirl_to_affine(tree: &WhirlTree, id: WnId) -> AffExpr {
    let n = tree.node(id);
    match n.operator {
        Opr::Intconst => AffExpr::constant(n.const_val),
        Opr::Ldid => match n.st_idx {
            Some(st) => AffExpr::var(st),
            None => AffExpr::Messy,
        },
        Opr::Add => {
            whirl_to_affine(tree, n.kids[0]).add_scaled(&whirl_to_affine(tree, n.kids[1]), 1)
        }
        Opr::Sub => {
            whirl_to_affine(tree, n.kids[0]).add_scaled(&whirl_to_affine(tree, n.kids[1]), -1)
        }
        Opr::Neg => whirl_to_affine(tree, n.kids[0]).scale(-1),
        Opr::Mpy => {
            let a = whirl_to_affine(tree, n.kids[0]);
            let b = whirl_to_affine(tree, n.kids[1]);
            match (a.as_const(), b.as_const()) {
                (Some(k), _) => b.scale(k),
                (_, Some(k)) => a.scale(k),
                _ => AffExpr::Messy,
            }
        }
        _ => AffExpr::Messy,
    }
}

/// One enclosing loop while walking.
#[derive(Debug, Clone)]
struct LoopFrame {
    ivar: StIdx,
    lo: AffExpr,
    hi: AffExpr,
    step: i64,
}

struct Walker<'a> {
    program: &'a Program,
    proc: &'a Procedure,
    nest: Vec<LoopFrame>,
    out: Vec<AccessRecord>,
    /// Records whose affine summary left `Messy`/`Unprojected` dimensions:
    /// `(index into out, ARRAY node, bad dims)` — the interval fallback's
    /// work list.
    pending: Vec<(usize, WnId, Vec<usize>)>,
    /// The procedure stores into a candidate index array — facts must be
    /// derived here even when every access is affine, because *other*
    /// procedures may read through the array it defines.
    defines_index_array: bool,
    /// Per enclosing loop (parallel to `nest`): scalars assigned anywhere
    /// in that loop's body, including call-clobbered by-reference actuals.
    /// A subscript mentioning one of these is *not* loop-invariant — the
    /// affine "symbolic single element" summary would be unsound, so the
    /// dimension is demoted to messy and queued for interval recovery.
    variant: Vec<std::collections::BTreeSet<StIdx>>,
}

/// Summarizes one procedure (must be at H level).
pub fn summarize_procedure(program: &Program, proc_id: ProcId) -> ProcSummary {
    support::faultpoint::hit("ipl::summarize");
    // A *stall* fault: simulates a wedged solve by spinning until the
    // budget (or an expired deadline, which denies every charge) cuts it
    // off — exercising the "stuck work degrades within its deadline"
    // guarantee end-to-end. Bounded even without a deadline: each spin
    // charges real FM steps, so the default budget stops it too.
    if support::faultpoint::fires("stall::ipl") {
        // ~8 s at the default 2M-step budget; a shorter deadline cuts it
        // off proportionally earlier.
        while support::budget::charge_steps(256) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let proc = program.procedure(proc_id);
    debug_assert_eq!(proc.level, whirl::Level::High, "IPL runs on H WHIRL");
    let mut w = Walker {
        program,
        proc,
        nest: Vec::new(),
        out: Vec::new(),
        pending: Vec::new(),
        defines_index_array: false,
        variant: Vec::new(),
    };

    // FORMAL records first: the array as found in the definition.
    for &formal in &proc.formals {
        let entry = program.symbols.get(formal);
        if matches!(program.types.get(entry.ty).kind, TyKind::Array { .. }) {
            w.record_whole_array(formal, AccessMode::Formal, proc.linenum);
        }
    }

    if let Some(root) = proc.tree.root() {
        if let Some(&body) = proc.tree.node(root).kids.last() {
            w.walk_block(body);
        }
    }

    // Fact derivation is a cheap single tree scan; it runs when this
    // procedure could either *consume* facts (unbounded dimensions pending)
    // or *produce* them for other procedures (it writes an index-array
    // candidate). The interval fixpoint — the expensive part — runs only
    // for consumers, so affine-only procedures pay nothing there.
    let mut facts = BTreeMap::new();
    if (!w.pending.is_empty() || w.defines_index_array) && !support::budget::exhausted() {
        facts = {
            let _span = obs::span("ipa.index_facts");
            index_facts::derive(program, proc_id)
        };
        if !w.pending.is_empty() {
            let recovered = {
                let _span = obs::span("ipa.interval");
                interval_ai::analyze_proc(program, proc_id, &facts)
            };
            let pending = std::mem::take(&mut w.pending);
            for (idx, wn, bad_dims) in pending {
                patch_record(&mut w.out[idx], wn, &bad_dims, &recovered);
            }
        }
    }
    ProcSummary::new(w.out, facts)
}

/// Fills `Messy`/`Unprojected` sides of `rec`'s bad dimensions from the
/// interval interpreter's result; upgrades precision to `Interval` when
/// every bad dimension came back fully bounded.
fn patch_record(
    rec: &mut AccessRecord,
    wn: WnId,
    bad_dims: &[usize],
    recovered: &interval_ai::RecoveredBounds,
) {
    let mut all_bounded = !bad_dims.is_empty();
    for &d in bad_dims {
        let interval = recovered.dims.get(&(wn, d));
        let t = &rec.region.dims[d];
        let (ilb, iub) = interval.map_or((Bound::Messy, Bound::Messy), |iv| iv.to_bounds());
        let unknown = |b: &Bound| matches!(b, Bound::Messy | Bound::Unprojected);
        let lb = if unknown(&t.lb) { ilb } else { t.lb.clone() };
        let ub = if unknown(&t.ub) { iub } else { t.ub.clone() };
        if lb == t.lb && ub == t.ub {
            all_bounded = false;
            continue;
        }
        let dim_bounded = !unknown(&lb) && !unknown(&ub);
        // Any stride information died with the affine summary: the sound
        // patched dim is the dense interval.
        rec.region.dims[d] = Triplet::new(lb, ub, Bound::Const(1));
        if dim_bounded {
            obs::incr(Counter::RegionsIntervalRecovered);
        } else {
            all_bounded = false;
        }
    }
    if all_bounded {
        rec.precision = rec.precision.min(Precision::Interval);
    }
}

/// Collects every scalar symbol assigned in `root`'s subtree: direct
/// `STID` targets plus anything a `CALL` may clobber through a
/// by-reference argument (Fortran passes scalars as `PARM(LDID)`, arrays
/// as `PARM(LDA)`). Inner loops contribute their induction variables via
/// their start/step `STID`s.
fn stored_symbols(
    tree: &WhirlTree,
    root: WnId,
    out: &mut std::collections::BTreeSet<StIdx>,
) {
    let node = tree.node(root);
    match node.operator {
        Opr::Stid => {
            if let Some(st) = node.st_idx {
                out.insert(st);
            }
        }
        Opr::Call => {
            for &p in &node.kids {
                let parm = tree.node(p);
                let Some(&v) = parm.kids.first() else { continue };
                let vn = tree.node(v);
                if matches!(vn.operator, Opr::Lda | Opr::Ldid) {
                    if let Some(st) = vn.st_idx {
                        out.insert(st);
                    }
                }
            }
        }
        _ => {}
    }
    for &k in &node.kids {
        stored_symbols(tree, k, out);
    }
}

/// Summarizes every procedure serially.
pub fn summarize_all(program: &Program) -> Vec<ProcSummary> {
    program
        .procedures
        .indices()
        .map(|id| summarize_procedure(program, id))
        .collect()
}

impl<'a> Walker<'a> {
    fn walk_block(&mut self, block: WnId) {
        debug_assert_eq!(self.proc.tree.node(block).operator, Opr::Block);
        for &k in &self.proc.tree.node(block).kids {
            self.walk_stmt(k);
        }
    }

    fn walk_stmt(&mut self, id: WnId) {
        let tree = &self.proc.tree;
        let node = tree.node(id);
        match node.operator {
            Opr::Stid => self.walk_expr_uses(node.kids[0]),
            Opr::Istore => {
                let value = node.kids[0];
                let mut addr = node.kids[1];
                self.walk_expr_uses(value);
                let mut remote = false;
                if tree.node(addr).operator == Opr::RemoteArray {
                    remote = true;
                    self.walk_expr_uses(tree.node(addr).kids[1]);
                    addr = tree.node(addr).kids[0];
                }
                if tree.node(addr).operator == Opr::Array {
                    // Subscript expressions are themselves uses.
                    let n = tree.node(addr).num_dim();
                    for d in 0..n {
                        self.walk_expr_uses(tree.node(addr).array_index_kid(d));
                    }
                    self.record_array_ref(addr, AccessMode::Def, remote);
                } else {
                    self.walk_expr_uses(addr);
                }
            }
            Opr::Call => {
                let line = node.linenum;
                for &parm in &node.kids {
                    let v = tree.node(parm).kids[0];
                    let vn = tree.node(v);
                    if vn.operator == Opr::Lda {
                        if let Some(st) = vn.st_idx {
                            let is_array = matches!(
                                self.program.types.get(self.program.symbols.get(st).ty).kind,
                                TyKind::Array { .. }
                            );
                            if is_array {
                                self.record_whole_array(st, AccessMode::Passed, line);
                                continue;
                            }
                        }
                    }
                    self.walk_expr_uses(v);
                }
            }
            Opr::DoLoop => {
                let Some(ivar) = node.st_idx else {
                    // Malformed loop (no induction variable): walk the body
                    // without a loop frame — subscripts that mention the
                    // missing variable degrade to symbolic/messy regions.
                    self.walk_block(node.kids[3]);
                    return;
                };
                let init = tree.node(node.kids[0]).kids[0];
                let bound = tree.node(node.kids[1]).kids[1];
                let step = node.const_val;
                // Loop bound expressions are scalar uses too, but of scalars
                // — arrays inside bounds are walked for ILOADs.
                self.walk_expr_uses(init);
                self.walk_expr_uses(bound);
                let lo_e = whirl_to_affine(tree, init);
                let hi_e = whirl_to_affine(tree, bound);
                // Normalize descending loops: iterate lo..hi regardless.
                let (lo, hi) = if step < 0 { (hi_e, lo_e) } else { (lo_e, hi_e) };
                self.nest.push(LoopFrame { ivar, lo, hi, step: step.abs().max(1) });
                let mut stored = std::collections::BTreeSet::new();
                stored_symbols(tree, node.kids[3], &mut stored);
                self.variant.push(stored);
                self.walk_block(node.kids[3]);
                self.variant.pop();
                self.nest.pop();
            }
            Opr::If => {
                self.walk_expr_uses(node.kids[0]);
                self.walk_block(node.kids[1]);
                self.walk_block(node.kids[2]);
            }
            Opr::Return => {
                if let Some(&v) = node.kids.first() {
                    self.walk_expr_uses(v);
                }
            }
            _ => {}
        }
    }

    /// Recursively records USE for every `ILOAD(ARRAY)` in an expression.
    fn walk_expr_uses(&mut self, id: WnId) {
        let tree = &self.proc.tree;
        let node = tree.node(id);
        if node.operator == Opr::Iload {
            let mut addr = node.kids[0];
            let mut remote = false;
            if tree.node(addr).operator == Opr::RemoteArray {
                remote = true;
                self.walk_expr_uses(tree.node(addr).kids[1]);
                addr = tree.node(addr).kids[0];
            }
            if tree.node(addr).operator == Opr::Array {
                let n = tree.node(addr).num_dim();
                for d in 0..n {
                    self.walk_expr_uses(tree.node(addr).array_index_kid(d));
                }
                self.record_array_ref(addr, AccessMode::Use, remote);
                return;
            }
        }
        for &k in &node.kids {
            self.walk_expr_uses(k);
        }
    }

    /// Builds the region for an `ARRAY` node under the current nest.
    fn record_array_ref(&mut self, array_wn: WnId, mode: AccessMode, remote: bool) {
        let tree = &self.proc.tree;
        let node = tree.node(array_wn);
        let base = tree.node(node.array_base_kid());
        let Some(array_st) = base.st_idx else { return };
        let ndims = node.num_dim();
        let line = node.linenum;
        if mode == AccessMode::Def && index_facts::is_index_array(self.program, array_st) {
            self.defines_index_array = true;
        }

        // Once the analysis budget is dry, stop summarizing subscripts and
        // record the whole declared array instead — conservative and cheap.
        if support::budget::exhausted() {
            let ty = self.program.symbols.get(array_st).ty;
            let mut record =
                whole_array_record(self.program, self.proc, array_st, ty, mode, line);
            record.remote = remote;
            record.approx = true;
            record.precision = record.precision.worst(Precision::AffineApprox);
            self.out.push(record);
            return;
        }

        // Collect subscripts as AffExprs first.
        let subs_aff: Vec<AffExpr> = (0..ndims)
            .map(|d| whirl_to_affine(tree, node.array_index_kid(d)))
            .collect();

        // Build the space: dims, then loop vars (outermost first), then the
        // remaining symbols as symbolic parameters.
        let mut space = Space::with_dims(ndims as u8);
        // Symbol → space variable; a handful of entries, so a list.
        let mut var_of: Vec<(StIdx, VarId)> = Vec::new();
        // A loop frame participates only when both bounds are affine.
        let mut frames: Vec<(usize, VarId)> = Vec::new();
        for (i, f) in self.nest.iter().enumerate() {
            if matches!(f.lo, AffExpr::Messy) || matches!(f.hi, AffExpr::Messy) {
                continue;
            }
            let name = self.program.symbols.get(f.ivar).name;
            let v = space.add_loop(name);
            var_of.push((f.ivar, v));
            frames.push((i, v));
        }
        // Symbols from subscripts and loop bounds that are not loop vars.
        let lookup = |var_of: &[(StIdx, VarId)], st: StIdx| {
            var_of.iter().find(|&&(s, _)| s == st).map(|&(_, v)| v)
        };
        let add_syms = |e: &AffExpr, space: &mut Space, var_of: &mut Vec<(StIdx, VarId)>| {
            for st in e.symbols() {
                if lookup(var_of, st).is_none() {
                    let name = self.program.symbols.get(st).name;
                    var_of.push((st, space.add_sym(name)));
                }
            }
        };
        for e in &subs_aff {
            add_syms(e, &mut space, &mut var_of);
        }
        for &(i, _) in &frames {
            let f = &self.nest[i];
            add_syms(&f.lo, &mut space, &mut var_of);
            add_syms(&f.hi, &mut space, &mut var_of);
        }

        let to_lin = |e: &AffExpr, var_of: &[(StIdx, VarId)]| -> Option<LinExpr> {
            match e {
                AffExpr::Lin { constant, terms } => {
                    let mut out = LinExpr::constant(*constant);
                    for &(st, c) in terms {
                        out.add_term(lookup(var_of, st)?, c);
                    }
                    Some(out)
                }
                AffExpr::Messy => None,
            }
        };

        let mut nest = LoopNest::new();
        for &(i, v) in &frames {
            let f = &self.nest[i];
            let (Some(lb), Some(ub)) = (to_lin(&f.lo, &var_of), to_lin(&f.hi, &var_of))
            else {
                continue;
            };
            nest.push(LoopInfo { var: v, lb, ub, step: f.step });
        }

        let subs: Vec<Subscript> = subs_aff
            .iter()
            .map(|e| match to_lin(e, &var_of) {
                Some(l) => Subscript::Lin(l),
                None => Subscript::Messy,
            })
            .collect();

        let (mut region, mut convex, detail) = summarize_reference_detailed(&space, &nest, &subs);
        let mut bad_dims: Vec<usize> =
            detail.messy_dims.iter().chain(&detail.unprojected_dims).copied().collect();
        // A dimension whose summary leans on a scalar some enclosing loop
        // reassigns (an accumulating pointer, a call-clobbered index) is
        // not the single symbolic element it claims: the scalar takes a
        // different value each iteration. Demote it to messy — dropping
        // the convex companion, which would otherwise let FM treat the
        // stale symbol as one fixed value — and queue it for the interval
        // pass, whose widening/narrowing on the loop body re-bounds it.
        for (d, e) in subs_aff.iter().enumerate() {
            if bad_dims.contains(&d) {
                continue;
            }
            let loop_variant = e.symbols().any(|st| {
                self.variant.iter().any(|s| s.contains(&st))
                    && !self.nest.iter().any(|f| {
                        f.ivar == st
                            && !matches!(f.lo, AffExpr::Messy)
                            && !matches!(f.hi, AffExpr::Messy)
                    })
            });
            if loop_variant {
                region.dims[d] = Triplet::messy();
                convex = None;
                bad_dims.push(d);
            }
        }
        bad_dims.sort_unstable();
        bad_dims.dedup();
        let precision = if !bad_dims.is_empty() {
            // Provisional: the post-walk interval pass may upgrade this.
            Precision::Unbounded
        } else if detail.is_exact() {
            Precision::Exact
        } else {
            Precision::AffineApprox
        };
        let via_index = (ndims == 1).then(|| self.match_via_index(array_wn)).flatten();
        self.out.push(AccessRecord {
            array: array_st,
            mode,
            region,
            convex,
            space,
            line,
            from_call: None,
            remote,
            approx: false,
            precision,
            via_index,
        });
        if !bad_dims.is_empty() {
            self.pending.push((self.out.len() - 1, array_wn, bad_dims));
        }
    }

    /// Recognizes `A(idx(g) + offset)` for a 1-D reference: the subscript
    /// is a single `ILOAD` of a 1-D index array plus a constant, and the
    /// inner subscript `g` is affine over constant-bound enclosing loops.
    fn match_via_index(&self, array_wn: WnId) -> Option<IndirectIndex> {
        let tree = &self.proc.tree;
        let sub = tree.node(array_wn).array_index_kid(0);
        let (iload, offset) = peel_const_offset(tree, sub)?;
        let n = tree.node(iload);
        if n.operator != Opr::Iload {
            return None;
        }
        let addr = tree.node(n.kids[0]);
        if addr.operator != Opr::Array || addr.num_dim() != 1 {
            return None;
        }
        let idx_st = tree.node(addr.array_base_kid()).st_idx?;
        if !matches!(
            &self.program.types.get(self.program.symbols.get(idx_st).ty).kind,
            TyKind::Array { elem: whirl::DataType::I4 | whirl::DataType::I8, dims, .. }
                if dims.len() == 1
        ) {
            return None;
        }
        let g = whirl_to_affine(tree, addr.array_index_kid(0));
        let domain = self.const_domain(&g)?;
        Some(IndirectIndex { index_array: idx_st, domain, offset })
    }

    /// The constant triplet an affine expression covers over the current
    /// constant-bound loop nest; `None` when any mentioned symbol is not a
    /// constant-bound loop variable.
    fn const_domain(&self, e: &AffExpr) -> Option<TripletRegion> {
        let AffExpr::Lin { constant, terms } = e else { return None };
        let (mut lo, mut hi) = (i128::from(*constant), i128::from(*constant));
        let mut stride: i64 = 1;
        for &(st, c) in terms {
            let f = self.nest.iter().find(|f| f.ivar == st)?;
            let (flo, fhi) = (f.lo.as_const()?, f.hi.as_const()?);
            let (a, b) = (i128::from(c) * i128::from(flo), i128::from(c) * i128::from(fhi));
            lo += a.min(b);
            hi += a.max(b);
            // Checked: a pathological coefficient/step pair degrades the
            // whole domain to "unknown" instead of wrapping or panicking.
            stride = if terms.len() == 1 {
                c.checked_mul(f.step).and_then(i64::checked_abs)?.max(1)
            } else {
                1
            };
        }
        let (lo, hi) = (i64::try_from(lo).ok()?, i64::try_from(hi).ok()?);
        Some(TripletRegion::new(vec![Triplet::constant(lo, hi, stride)]))
    }

    /// Records a whole-declared-array region (FORMAL / PASSED), expressed in
    /// H order: zero-based extents, dimension order reversed for Fortran.
    fn record_whole_array(&mut self, array_st: StIdx, mode: AccessMode, line: u32) {
        let ty = self.program.symbols.get(array_st).ty;
        let record = whole_array_record(self.program, self.proc, array_st, ty, mode, line);
        self.out.push(record);
    }
}

/// Strips constant addends around a subscript expression, returning the
/// remaining core node and the accumulated offset: `x + 3` → `(x, 3)`,
/// `x - 1` → `(x, -1)`, `x` → `(x, 0)`.
pub(crate) fn peel_const_offset(tree: &WhirlTree, id: WnId) -> Option<(WnId, i64)> {
    let n = tree.node(id);
    match n.operator {
        Opr::Add => {
            if let Some(c) = tree.eval_const(n.kids[1]) {
                let (core, o) = peel_const_offset(tree, n.kids[0])?;
                Some((core, o + c))
            } else if let Some(c) = tree.eval_const(n.kids[0]) {
                let (core, o) = peel_const_offset(tree, n.kids[1])?;
                Some((core, o + c))
            } else {
                None
            }
        }
        Opr::Sub => {
            let c = tree.eval_const(n.kids[1])?;
            let (core, o) = peel_const_offset(tree, n.kids[0])?;
            Some((core, o - c))
        }
        _ => Some((id, 0)),
    }
}

/// Builds the whole-array record used for FORMAL/PASSED modes.
pub fn whole_array_record(
    program: &Program,
    proc: &Procedure,
    array_st: StIdx,
    ty: whirl::TyIdx,
    mode: AccessMode,
    line: u32,
) -> AccessRecord {
    let mut extents = program.types.dim_sizes(ty);
    if proc.lang == whirl::Lang::Fortran {
        extents.reverse(); // H order is row-major
    }
    let dims: Vec<regions::Triplet> = extents
        .iter()
        .map(|&e| {
            if e > 0 {
                regions::Triplet::constant(0, e - 1, 1)
            } else {
                regions::Triplet::messy() // runtime extent
            }
        })
        .collect();
    let bounds: Option<Vec<(i64, i64)>> =
        extents.iter().map(|&e| (e > 0).then_some((0, e - 1))).collect();
    let convex = bounds.map(|b| regions::convex::box_region(&b));
    let ndims = extents.len() as u8;
    let precision = if extents.iter().all(|&e| e > 0) {
        Precision::Exact
    } else {
        Precision::Unbounded // runtime extents: bounds unknown
    };
    AccessRecord {
        array: array_st,
        mode,
        region: TripletRegion::new(dims),
        convex,
        space: Space::with_dims(ndims),
        line,
        from_call: None,
        remote: false,
        approx: false,
        precision,
        via_index: None,
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

    fn program_c(src: &str) -> Program {
        compile_to_h(&[SourceFile::new("t.c", src, Lang::C)], DEFAULT_LAYOUT_BASE)
            .unwrap()
    }

    fn summary_of(p: &Program, name: &str) -> ProcSummary {
        summarize_procedure(p, p.find_procedure(name).unwrap())
    }

    fn st_of(p: &Program, name: &str) -> StIdx {
        p.symbols.find(p.interner.get(name).unwrap()).unwrap()
    }

    #[test]
    fn def_in_unit_stride_loop() {
        let p = program_f(
            "subroutine s\n  real a(10)\n  integer i\n  do i = 1, 10\n    a(i) = 0.0\n  end do\nend\n",
        );
        let s = summary_of(&p, "s");
        let a = st_of(&p, "a");
        let defs: Vec<_> = s
            .for_array(a)
            .filter(|r| r.mode == AccessMode::Def)
            .collect();
        assert_eq!(defs.len(), 1);
        // Zero-based: a(1..10) → 0:9:1.
        assert_eq!(defs[0].region.to_string(), "(0:9:1)");
        assert_eq!(s.ref_count(a, AccessMode::Def), 1);
    }

    #[test]
    fn fig9_matrix_c_records() {
        let p = program_c(
            "\
int aarr[20];
void main() {
    int i, sum;
    for (i = 0; i <= 7; i++)
        aarr[i] = i;
    for (i = 0; i < 8; i++)
        aarr[i + 1] = aarr[i] + aarr[i];
    sum = 0;
    for (i = 2; i <= 6; i += 2)
        sum = sum + aarr[i];
}
",
        );
        let s = summary_of(&p, "main");
        let a = st_of(&p, "aarr");
        // Paper: "array aarr has been defined twice and used three times".
        assert_eq!(s.ref_count(a, AccessMode::Def), 2);
        assert_eq!(s.ref_count(a, AccessMode::Use), 3);
        let regions: Vec<String> = s
            .for_array(a)
            .map(|r| format!("{} {}", r.mode, r.region))
            .collect();
        assert!(regions.contains(&"DEF (0:7:1)".to_string()), "{regions:?}");
        assert!(regions.contains(&"DEF (1:8:1)".to_string()), "{regions:?}");
        assert!(regions.contains(&"USE (0:7:1)".to_string()), "{regions:?}");
        assert!(regions.contains(&"USE (2:6:2)".to_string()), "{regions:?}");
        let use07 = regions.iter().filter(|r| *r == "USE (0:7:1)").count();
        assert_eq!(use07, 2, "a[i] read twice in the second loop");
    }

    #[test]
    fn fortran_two_dim_region_is_row_major() {
        // A(1:10, 1:20), A(i, j) with i=1..10, j=1..20:
        // H order reverses dims ⇒ (j-region, i-region) = (0:19, 0:9).
        let p = program_f(
            "\
subroutine s
  real a(10, 20)
  integer i, j
  do i = 1, 10
    do j = 1, 20
      a(i, j) = 0.0
    end do
  end do
end
",
        );
        let s = summary_of(&p, "s");
        let a = st_of(&p, "a");
        let def = s.for_array(a).find(|r| r.mode == AccessMode::Def).unwrap();
        assert_eq!(def.region.to_string(), "(0:19:1, 0:9:1)");
    }

    #[test]
    fn strided_loop_stride_preserved() {
        let p = program_f(
            "subroutine s\n  real a(10)\n  integer i\n  do i = 2, 6, 2\n    a(i) = 1.0\n  end do\nend\n",
        );
        let s = summary_of(&p, "s");
        let a = st_of(&p, "a");
        let def = s.for_array(a).find(|r| r.mode == AccessMode::Def).unwrap();
        // a(2:6:2) zero-based → 1:5:2.
        assert_eq!(def.region.to_string(), "(1:5:2)");
    }

    #[test]
    fn descending_loop_normalizes_bounds() {
        let p = program_f(
            "subroutine s\n  real a(10)\n  integer i\n  do i = 10, 1, -1\n    a(i) = 1.0\n  end do\nend\n",
        );
        let s = summary_of(&p, "s");
        let a = st_of(&p, "a");
        let def = s.for_array(a).find(|r| r.mode == AccessMode::Def).unwrap();
        assert_eq!(def.region.to_string(), "(0:9:1)");
    }

    #[test]
    fn formal_array_gets_formal_record() {
        let p = program_f(
            "\
program main
  real z(5)
  common /g/ z
  call q(z)
end
subroutine q(x)
  real x(5)
  x(1) = 0.0
end
",
        );
        let s = summary_of(&p, "q");
        let x = s
            .accesses
            .iter()
            .find(|r| r.mode == AccessMode::Formal)
            .expect("formal record");
        assert_eq!(x.region.to_string(), "(0:4:1)");
    }

    #[test]
    fn passed_array_recorded_at_call_site() {
        let p = program_f(
            "\
program main
  real z(5)
  common /g/ z
  call q(z)
end
subroutine q(x)
  real x(5)
  x(1) = 0.0
end
",
        );
        let s = summary_of(&p, "main");
        let z = st_of(&p, "z");
        let passed: Vec<_> = s
            .for_array(z)
            .filter(|r| r.mode == AccessMode::Passed)
            .collect();
        assert_eq!(passed.len(), 1);
        assert_eq!(passed[0].region.to_string(), "(0:4:1)");
    }

    #[test]
    fn subscript_uses_inside_store_are_counted() {
        // a(b(i)) = 0: b is USEd, a is DEFed with a messy region.
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer b(10)
  integer i
  do i = 1, 10
    a(b(i)) = 0.0
  end do
end
",
        );
        let s = summary_of(&p, "s");
        let a = st_of(&p, "a");
        let b = st_of(&p, "b");
        assert_eq!(s.ref_count(b, AccessMode::Use), 1);
        let def = s.for_array(a).find(|r| r.mode == AccessMode::Def).unwrap();
        assert!(!def.region.is_const(), "indirect subscript must be messy");
    }

    #[test]
    fn symbolic_bound_region() {
        let p = program_f(
            "\
subroutine s(n)
  real a(100)
  common /g/ a
  integer n, i
  do i = 1, n
    a(i) = 0.0
  end do
end
",
        );
        let s = summary_of(&p, "s");
        let a = st_of(&p, "a");
        let def = s.for_array(a).find(|r| r.mode == AccessMode::Def).unwrap();
        assert!(!def.region.is_const());
        assert_eq!(def.region.dims[0].lb.as_const(), Some(0));
        // Upper bound is `n - 1` (zero-based): an IVAR-class bound.
        use regions::triplet::BoundClass;
        assert_eq!(def.region.dims[0].ub.classify(&def.space), BoundClass::IVar);
    }

    #[test]
    fn triangular_nest_summarized() {
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer i, j
  do i = 1, 10
    do j = 1, i
      a(j) = 0.0
    end do
  end do
end
",
        );
        let s = summary_of(&p, "s");
        let a = st_of(&p, "a");
        let def = s.for_array(a).find(|r| r.mode == AccessMode::Def).unwrap();
        assert_eq!(def.region.to_string(), "(0:9:1)");
    }

    #[test]
    fn if_branches_both_walked() {
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer i
  if (i .le. 5) then
    a(1) = 0.0
  else
    a(2) = 0.0
  end if
end
",
        );
        let s = summary_of(&p, "s");
        let a = st_of(&p, "a");
        assert_eq!(s.ref_count(a, AccessMode::Def), 2);
    }

    #[test]
    fn affine_conversion_cases() {
        let p = program_f("subroutine s\n  integer i\n  i = 1\nend\n");
        let proc = p.procedure(p.find_procedure("s").unwrap());
        // Find the Stid's rhs (Intconst 1).
        let stid = proc
            .tree
            .iter()
            .find(|&n| proc.tree.node(n).operator == Opr::Stid)
            .unwrap();
        let rhs = proc.tree.node(stid).kids[0];
        assert_eq!(whirl_to_affine(&proc.tree, rhs).as_const(), Some(1));
    }
}
