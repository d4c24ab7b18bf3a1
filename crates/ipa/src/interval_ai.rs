//! Interval abstract interpretation over WHIRL loop nests.
//!
//! Runs wherever the Fourier–Motzkin machinery bails: a classic
//! per-variable `[lo, hi]` analysis ([`regions::Interval`]) evaluated over
//! a procedure body, with delayed widening at loop back-edges, a bounded
//! narrowing pass, and a trip-count clamp for self-increment recurrences
//! (`k = k + c` inside a constant-trip loop stays `[k₀, k₀ + c·(T-1)]`
//! instead of shooting to `+∞`).
//!
//! The result maps `(ARRAY node, dimension)` to the interval its subscript
//! expression can take — consulted by IPL only for dimensions the affine
//! path left `Messy`/`Unprojected`, so affine-only procedures never pay
//! for a fixpoint (the pass is invoked lazily, see [`crate::local`]).
//!
//! Soundness discipline: every recovered interval over-approximates the
//! concrete subscript values, so it may *refute* overlap or bound a region,
//! but never proves coverage; consumers must keep interval-derived verdicts
//! at `possible` severity.

use crate::index_facts::IndexArrayFact;
use regions::{Interval, Triplet};
use std::collections::BTreeMap;
use whirl::{Opr, ProcId, Program, StClass, StIdx, TyKind, WhirlTree, WnId};

/// Subscript intervals recovered for array reference dimensions.
#[derive(Debug, Default)]
pub struct RecoveredBounds {
    /// `(ARRAY node, dim) → interval` of the dim's subscript expression.
    pub dims: BTreeMap<(WnId, usize), Interval>,
}

/// The abstract store: scalars with a known interval. A missing entry is ⊤.
type Env = BTreeMap<StIdx, Interval>;

/// Rounds of plain join before the back-edge switches to widening.
const WIDEN_DELAY: u32 = 2;
/// Hard cap on ascending iterations (the widening lattice has height 2 per
/// variable, so this is never reached; it bounds the loop defensively).
const MAX_ROUNDS: u32 = 64;

/// Runs the interpreter over one procedure.
pub fn analyze_proc(
    program: &Program,
    proc_id: ProcId,
    facts: &BTreeMap<StIdx, IndexArrayFact>,
) -> RecoveredBounds {
    let proc = program.procedure(proc_id);
    let mut out = RecoveredBounds::default();
    let Some(root) = proc.tree.root() else { return out };
    let Some(&body) = proc.tree.node(root).kids.last() else { return out };
    let pos = crate::index_facts::preorder_positions(&proc.tree);
    let mut interp =
        Interp { program, tree: &proc.tree, facts, pos: &pos, out: &mut out.dims };
    let mut env = Env::new();
    interp.exec_block(body, &mut env, true);
    out
}

struct Interp<'a> {
    program: &'a Program,
    tree: &'a WhirlTree,
    facts: &'a BTreeMap<StIdx, IndexArrayFact>,
    /// Pre-order node positions — used to gate index-array facts to read
    /// sites that execute after the defining nest has completed.
    pos: &'a BTreeMap<WnId, u32>,
    out: &'a mut BTreeMap<(WnId, usize), Interval>,
}

fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (st, va) in a {
        if let Some(vb) = b.get(st) {
            let j = va.join(vb);
            if !j.is_top() {
                out.insert(*st, j);
            }
        }
    }
    out
}

fn widen_env(prev: &Env, next: &Env) -> Env {
    let mut out = Env::new();
    for (st, vp) in prev {
        if let Some(vn) = next.get(st) {
            let w = vp.widen(vn);
            if !w.is_top() {
                out.insert(*st, w);
            }
        }
    }
    out
}

impl<'a> Interp<'a> {
    fn is_scalar(&self, st: StIdx) -> bool {
        matches!(
            self.program.types.get(self.program.symbols.get(st).ty).kind,
            TyKind::Scalar(_)
        )
    }

    fn eval(&self, id: WnId, env: &Env) -> Interval {
        let n = self.tree.node(id);
        match n.operator {
            Opr::Intconst => Interval::constant(n.const_val),
            Opr::Ldid => n
                .st_idx
                .and_then(|st| env.get(&st).copied())
                .unwrap_or_else(Interval::top),
            Opr::Add => self.eval(n.kids[0], env).add(&self.eval(n.kids[1], env)),
            Opr::Sub => self.eval(n.kids[0], env).sub(&self.eval(n.kids[1], env)),
            Opr::Neg => self.eval(n.kids[0], env).neg(),
            Opr::Mpy => self.eval(n.kids[0], env).mul(&self.eval(n.kids[1], env)),
            Opr::Iload => self
                .index_value_range(id, n.kids[0], env)
                .unwrap_or_else(Interval::top),
            _ => Interval::top(),
        }
    }

    /// A read of a known index array evaluates to its stored value range —
    /// the subscripted-subscript recovery. Guarded four ways, each of which
    /// keeps a fact from describing values the load can actually see:
    /// the array must be write-once (`constant_after_init`), procedure-local
    /// (a COMMON/global array can be rewritten by a callee with no visible
    /// escape, and a formal aliases the caller's array), the read site must
    /// execute after the defining nest has completed (the fact is
    /// flow-insensitive), and the inner subscript must stay inside the
    /// initialized region (outside it the load returns garbage).
    fn index_value_range(&self, iload: WnId, addr: WnId, env: &Env) -> Option<Interval> {
        let a = self.tree.node(addr);
        if a.operator != Opr::Array || a.num_dim() != 1 {
            return None;
        }
        let st = self.tree.node(a.array_base_kid()).st_idx?;
        let fact = self.facts.get(&st)?;
        let (lo, hi) = fact.value_range?;
        if !fact.constant_after_init
            || self.program.symbols.get(st).class != StClass::Local
            || self.pos.get(&iload).copied().unwrap_or(0) <= fact.init_end_pos
        {
            return None;
        }
        let inner = self.eval(a.array_index_kid(0), env);
        let (ilo, ihi) = (inner.lo?, inner.hi?);
        let init = fact.init_region.as_ref()?;
        let [init_dim] = &init.dims[..] else { return None };
        crate::sideeffect::const_subset(&Triplet::constant(ilo, ihi, 1), init_dim)
            .then(|| Interval::range(lo, hi))
    }

    /// Records subscript intervals for every `ARRAY` node inside `id`.
    fn record_expr(&mut self, id: WnId, env: &Env) {
        let tree = self.tree;
        for a in tree.pre_order(id).filter(|&n| tree.node(n).operator == Opr::Array) {
            let ndims = tree.node(a).num_dim();
            for d in 0..ndims {
                let v = self.eval(tree.node(a).array_index_kid(d), env);
                self.out
                    .entry((a, d))
                    .and_modify(|cur| *cur = cur.join(&v))
                    .or_insert(v);
            }
        }
    }

    /// Executes a statement; mutates `env`. When `record` is set, subscript
    /// intervals are folded into the output map (the final stable pass).
    fn exec_stmt(&mut self, id: WnId, env: &mut Env, record: bool) {
        let node = self.tree.node(id);
        match node.operator {
            Opr::Stid => {
                if record {
                    self.record_expr(node.kids[0], env);
                }
                let v = self.eval(node.kids[0], env);
                if let Some(st) = node.st_idx {
                    if v.is_top() {
                        env.remove(&st);
                    } else {
                        env.insert(st, v);
                    }
                }
            }
            Opr::Istore if record => {
                self.record_expr(node.kids[0], env);
                self.record_expr(node.kids[1], env);
            }
            Opr::Call => {
                if record {
                    for &parm in &node.kids {
                        self.record_expr(parm, env);
                    }
                }
                // Havoc anything the callee can reach: argument scalars
                // (Fortran passes by reference, so a bare `LDID` argument
                // is writable too) and every global scalar.
                for &parm in &node.kids {
                    let v = self.tree.node(self.tree.node(parm).kids[0]);
                    if matches!(v.operator, Opr::Lda | Opr::Ldid) {
                        if let Some(st) = v.st_idx {
                            env.remove(&st);
                        }
                    }
                }
                env.retain(|st, _| {
                    self.program.symbols.get(*st).class != StClass::Global
                });
            }
            Opr::If => {
                if record {
                    self.record_expr(node.kids[0], env);
                }
                let mut then_env = env.clone();
                self.exec_block(node.kids[1], &mut then_env, record);
                self.exec_block(node.kids[2], env, record);
                *env = join_env(&then_env, env);
            }
            Opr::Return if record => {
                for &k in &node.kids {
                    self.record_expr(k, env);
                }
            }
            Opr::DoLoop => self.exec_loop(id, env, record),
            _ => {}
        }
    }

    fn exec_block(&mut self, block: WnId, env: &mut Env, record: bool) {
        for &k in &self.tree.node(block).kids {
            self.exec_stmt(k, env, record);
        }
    }

    fn exec_loop(&mut self, id: WnId, env: &mut Env, record: bool) {
        let node = self.tree.node(id);
        let init = self.tree.node(node.kids[0]).kids[0];
        let bound = self.tree.node(node.kids[1]).kids[1];
        let body = node.kids[3];
        if record {
            self.record_expr(init, env);
            self.record_expr(bound, env);
        }
        let ivar_int = self.eval(init, env).join(&self.eval(bound, env));
        let entry = env.clone();

        // Trip-count clamp: `v = v + c` recurrences inside a constant-trip
        // loop get the closed form instead of a widened `∞`.
        let trips = self.const_trips(init, bound, node.const_val);
        let clamps = match trips {
            Some(t) => self.self_increment_clamps(body, &entry, t),
            None => BTreeMap::new(),
        };

        let seed = |head: &mut Env| {
            match node.st_idx {
                Some(iv) if !ivar_int.is_top() => {
                    head.insert(iv, ivar_int);
                }
                Some(iv) => {
                    head.remove(&iv);
                }
                None => {}
            }
            for (st, v) in &clamps {
                if v.is_top() {
                    head.remove(st);
                } else {
                    head.insert(*st, *v);
                }
            }
        };

        let mut head = entry.clone();
        seed(&mut head);
        for round in 0..MAX_ROUNDS {
            let mut out = head.clone();
            self.exec_block(body, &mut out, false);
            let mut next = join_env(&head, &out);
            seed(&mut next);
            if next == head {
                break;
            }
            head = if round < WIDEN_DELAY { next } else { widen_env(&head, &next) };
        }
        // One bounded narrowing pass: re-run the body from the stable head
        // and pull unbounded sides back where the descending step permits.
        let mut out = head.clone();
        self.exec_block(body, &mut out, false);
        let mut cand = join_env(&entry, &out);
        seed(&mut cand);
        let mut narrowed = Env::new();
        for (st, v) in &head {
            let n = match cand.get(st) {
                Some(c) => v.narrow(c),
                None => *v,
            };
            narrowed.insert(*st, n);
        }
        head = narrowed;
        seed(&mut head);

        // Final recording pass with the stable loop-head store.
        let mut out = head.clone();
        self.exec_block(body, &mut out, record);
        // After the loop: either it never ran (entry) or it ran (out).
        *env = join_env(&entry, &out);
        // The exit value of the induction variable overshoots its in-loop
        // range by one step — drop it rather than model the overshoot.
        if let Some(iv) = node.st_idx {
            env.remove(&iv);
        }
        // The clamp bounds the *post* value tighter than the joined head.
        if let Some(t) = trips {
            for (st, delta) in self.increment_deltas(body) {
                if clamps.contains_key(&st) {
                    if let Some(v0) = entry.get(&st) {
                        let post = v0.add(&delta.scale(t));
                        let cur = env.get(&st).copied().unwrap_or_else(Interval::top);
                        if let Some(m) = cur.meet(&post) {
                            env.insert(st, m);
                        }
                    }
                }
            }
        }
    }

    fn const_trips(&self, init: WnId, bound: WnId, step: i64) -> Option<i64> {
        if step == 0 {
            return None;
        }
        let lo = self.tree.eval_const(init)?;
        let hi = self.tree.eval_const(bound)?;
        let (lo, hi) = if step < 0 { (hi, lo) } else { (lo, hi) };
        if hi < lo {
            return Some(0);
        }
        Some((hi - lo) / step.abs() + 1)
    }

    /// Per-outer-iteration increment interval for every scalar whose only
    /// assignments in `body` are `v = v + const` (each site weighted by the
    /// constant trip product of intervening loops); scalars with any other
    /// assignment are absent.
    fn increment_deltas(&self, body: WnId) -> BTreeMap<StIdx, Interval> {
        let mut acc: BTreeMap<StIdx, IncAcc> = BTreeMap::new();
        self.collect_increments(body, Some(1), &mut acc);
        acc.into_iter()
            .filter(|(_, a)| !a.broken)
            .map(|(st, a)| (st, Interval::range(a.lo, a.hi)))
            .collect()
    }

    fn collect_increments(
        &self,
        block: WnId,
        mult: Option<i64>,
        acc: &mut BTreeMap<StIdx, IncAcc>,
    ) {
        for &id in &self.tree.node(block).kids {
            let node = self.tree.node(id);
            match node.operator {
                Opr::Stid => {
                    let Some(st) = node.st_idx else { continue };
                    if !self.is_scalar(st) {
                        continue;
                    }
                    let a = acc.entry(st).or_default();
                    let inc = self.as_self_increment(id, st);
                    match (inc, mult) {
                        (Some(c), Some(m)) => {
                            let (Some(w), true) = (c.checked_mul(m), !a.broken) else {
                                a.broken = true;
                                continue;
                            };
                            // Each site may execute 0..m times per outer
                            // iteration (it can sit under an `If`).
                            a.lo = a.lo.saturating_add(w.min(0));
                            a.hi = a.hi.saturating_add(w.max(0));
                        }
                        _ => a.broken = true,
                    }
                }
                Opr::DoLoop => {
                    let init = self.tree.node(node.kids[0]).kids[0];
                    let bound = self.tree.node(node.kids[1]).kids[1];
                    let inner = self.const_trips(init, bound, node.const_val);
                    let m = match (mult, inner) {
                        (Some(a), Some(b)) => a.checked_mul(b),
                        _ => None,
                    };
                    // The loop's own induction variable is reassigned.
                    if let Some(iv) = node.st_idx {
                        acc.entry(iv).or_default().broken = true;
                    }
                    self.collect_increments(node.kids[3], m, acc);
                }
                Opr::If => {
                    self.collect_increments(node.kids[1], mult, acc);
                    self.collect_increments(node.kids[2], mult, acc);
                }
                Opr::Call => {
                    // Havocked scalars cannot be clamped.
                    for &parm in &node.kids {
                        let v = self.tree.node(self.tree.node(parm).kids[0]);
                        if matches!(v.operator, Opr::Lda | Opr::Ldid) {
                            if let Some(st) = v.st_idx {
                                acc.entry(st).or_default().broken = true;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// `Some(c)` when statement `id` is `st = st + c`.
    fn as_self_increment(&self, id: WnId, st: StIdx) -> Option<i64> {
        let rhs = self.tree.node(id).kids[0];
        match crate::local::whirl_to_affine(self.tree, rhs) {
            crate::local::AffExpr::Lin { constant, terms } => {
                (terms[..] == [(st, 1)]).then_some(constant)
            }
            crate::local::AffExpr::Messy => None,
        }
    }

    /// Loop-head clamp values: `v ∈ v₀ ⊔ (v₀ + δ·(T-1))` for every
    /// self-increment recurrence, where `δ` is the per-iteration delta.
    fn self_increment_clamps(
        &self,
        body: WnId,
        entry: &Env,
        trips: i64,
    ) -> BTreeMap<StIdx, Interval> {
        let mut out = BTreeMap::new();
        if trips <= 0 {
            return out;
        }
        for (st, delta) in self.increment_deltas(body) {
            let Some(v0) = entry.get(&st) else { continue };
            let head = v0.join(&v0.add(&delta.scale(trips - 1)));
            out.insert(st, head);
        }
        out
    }
}

/// Per-variable accumulator for `collect_increments`.
#[derive(Default)]
struct IncAcc {
    lo: i64,
    hi: i64,
    broken: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_facts;
    use frontend::{compile_to_h, SourceFile, DEFAULT_LAYOUT_BASE};
    use whirl::Lang;

    fn program_f(src: &str) -> Program {
        compile_to_h(&[SourceFile::new("t.f", src, Lang::Fortran)], DEFAULT_LAYOUT_BASE)
            .unwrap()
    }

    /// All recovered intervals for references to `array` in `proc`.
    fn recovered_for(p: &Program, proc: &str, array: &str) -> Vec<Interval> {
        let id = p.find_procedure(proc).unwrap();
        let facts = index_facts::derive(p, id);
        let rec = analyze_proc(p, id, &facts);
        let pr = p.procedure(id);
        let st = p.symbols.find(p.interner.get(array).unwrap()).unwrap();
        let mut out = Vec::new();
        for n in pr.tree.iter() {
            let node = pr.tree.node(n);
            if node.operator == Opr::Array
                && pr.tree.node(node.array_base_kid()).st_idx == Some(st)
            {
                for d in 0..node.num_dim() {
                    if let Some(iv) = rec.dims.get(&(n, d)) {
                        out.push(*iv);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn subscripted_subscript_gets_value_range() {
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer idx(10)
  integer i
  do i = 1, 10
    idx(i) = i
  end do
  do i = 1, 10
    a(idx(i)) = 0.0
  end do
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        // a(idx(i)): zero-based subscript = idx(i) - 1 ∈ [0, 9].
        assert!(
            ivs.contains(&Interval::range(0, 9)),
            "expected [0, 9] in {ivs:?}"
        );
    }

    #[test]
    fn common_index_array_is_never_trusted() {
        // idx lives in a COMMON block: a callee can rewrite it directly
        // through the block with no visible escape (no PARM(LDA)), so its
        // value_range must never refute anything. Before the storage-class
        // gate this recovered [0, 9] and silenced the OOB write via
        // idx(5) = 1000.
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer idx(10)
  common /g/ idx
  integer i, t
  do i = 1, 10
    idx(i) = i
  end do
  call clobber(t)
  do i = 1, 10
    a(idx(i)) = 0.0
  end do
end
subroutine clobber(v)
  integer idx(10)
  common /g/ idx
  integer v
  idx(5) = 1000
  v = 0
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        assert_eq!(ivs.len(), 1);
        assert!(
            ivs[0].is_top(),
            "COMMON idx can be clobbered behind our back: {:?}",
            ivs[0]
        );
    }

    #[test]
    fn read_before_init_loop_is_not_trusted() {
        // The gather loop runs before idx is initialized: the values read
        // are garbage, not the init loop's range.
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer idx(10)
  integer i
  do i = 1, 10
    a(idx(i)) = 0.0
  end do
  do i = 1, 10
    idx(i) = i
  end do
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        assert_eq!(ivs.len(), 1);
        assert!(ivs[0].is_top(), "read precedes init: {:?}", ivs[0]);
    }

    #[test]
    fn read_outside_init_region_is_not_trusted() {
        // Only idx(1..5) is initialized but the read sweeps idx(1..10):
        // elements 6..10 hold garbage, so the value range must not apply.
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer idx(10)
  integer i
  do i = 1, 5
    idx(i) = i
  end do
  do i = 1, 10
    a(idx(i)) = 0.0
  end do
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        assert_eq!(ivs.len(), 1);
        assert!(ivs[0].is_top(), "read escapes the initialized region: {:?}", ivs[0]);
    }

    #[test]
    fn escaped_then_reinitialized_index_is_not_trusted() {
        // idx escapes to a callee before (re)initialization completes:
        // constant_after_init is false and value_range must not be used.
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer idx(10)
  integer i
  call fill(idx)
  do i = 1, 5
    idx(i) = i
  end do
  do i = 1, 10
    a(idx(i)) = 0.0
  end do
end
subroutine fill(v)
  integer v(10)
  integer i
  do i = 1, 10
    v(i) = 1000
  end do
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        assert_eq!(ivs.len(), 1);
        assert!(ivs[0].is_top(), "escaped idx is not write-once: {:?}", ivs[0]);
    }

    #[test]
    fn self_increment_is_clamped_by_trip_count() {
        let p = program_f(
            "\
subroutine s
  real a(40)
  integer i, k
  k = 0
  do i = 1, 10
    a(k + 1) = 0.0
    k = k + 2
  end do
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        // k at the head of iteration t is 2(t-1) ∈ [0, 18]; subscript k+1-1.
        assert_eq!(ivs, vec![Interval::range(0, 18)]);
    }

    #[test]
    fn conditional_increment_still_bounded() {
        let p = program_f(
            "\
subroutine s
  real a(40)
  integer i, k
  k = 0
  do i = 1, 10
    if (i .le. 5) then
      k = k + 3
    end if
    a(k) = 0.0
  end do
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        // Head k ∈ [0, 27]; after at most one more +3 then a(k): zero-based
        // k-1 ∈ [-1, 29].
        assert_eq!(ivs, vec![Interval::range(-1, 29)]);
    }

    #[test]
    fn unknown_increment_widens_to_unbounded_side() {
        let p = program_f(
            "\
subroutine s(n)
  real a(40)
  integer i, k, n
  k = 0
  do i = 1, 10
    k = k + n
    a(k) = 0.0
  end do
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        assert_eq!(ivs.len(), 1);
        assert!(ivs[0].is_top(), "symbolic step must stay unbounded: {:?}", ivs[0]);
    }

    #[test]
    fn call_havocs_tracked_scalars() {
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer k
  k = 3
  call bump(k)
  a(k) = 0.0
end
subroutine bump(v)
  integer v
  v = 99
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        assert_eq!(ivs.len(), 1);
        assert!(ivs[0].is_top(), "k passed by reference must be havocked");
    }

    #[test]
    fn straightline_constant_propagates() {
        let p = program_f(
            "\
subroutine s
  real a(10)
  integer k
  k = 4
  a(k) = 0.0
end
",
        );
        let ivs = recovered_for(&p, "s", "a");
        assert_eq!(ivs, vec![Interval::constant(3)]);
    }
}
