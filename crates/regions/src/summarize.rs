//! Building regions from subscripted array references inside loop nests.
//!
//! This is where "each region is determined by simplifying linear equations
//! obtained from the bounds information of the array elements" happens: given
//! the enclosing loop nest (induction variable, bounds, step — *not*
//! normalized, so exact strides survive) and the affine subscript expression
//! of each dimension, we produce both the displayed [`TripletRegion`] and the
//! comparable [`ConvexRegion`].

use crate::constraint::{Constraint, ConstraintSystem};
use crate::convex::{self, ConvexRegion};
use crate::fourier_motzkin::{FmStats, ImpreciseReason};
use crate::linexpr::{gcd, LinExpr};
use crate::space::{Space, VarId};
use crate::triplet::{Bound, Triplet, TripletRegion};
use support::obs::{self, Counter};

/// One loop of the enclosing nest, outermost first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// The induction variable (a `VarKind::Loop` member of the shared space).
    pub var: VarId,
    /// Lower bound expression (inclusive), affine over outer loop variables
    /// and symbolic parameters.
    pub lb: LinExpr,
    /// Upper bound expression (inclusive).
    pub ub: LinExpr,
    /// Constant step; the paper's strides come straight from here.
    pub step: i64,
}

/// A full loop nest context.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopNest {
    loops: Vec<LoopInfo>,
}

impl LoopNest {
    /// The empty nest (straight-line code).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes an inner loop.
    pub fn push(&mut self, info: LoopInfo) {
        self.loops.push(info);
    }

    /// Pops the innermost loop.
    pub fn pop(&mut self) -> Option<LoopInfo> {
        self.loops.pop()
    }

    /// The loops, outermost first.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// Nest depth.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Looks up the nest entry for a loop variable.
    pub fn find(&self, v: VarId) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.var == v)
    }

    /// True when `e` mentions any induction variable of this nest.
    pub fn mentions_any(&self, e: &LinExpr) -> bool {
        e.vars().any(|v| self.find(v).is_some())
    }
}

/// One dimension's subscript expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subscript {
    /// Affine over loop and symbolic variables.
    Lin(LinExpr),
    /// Not linearizable (indirect indexing, nonlinear arithmetic, ...).
    Messy,
}

impl Subscript {
    /// Convenience: constant subscript.
    pub fn constant(c: i64) -> Self {
        Subscript::Lin(LinExpr::constant(c))
    }

    /// Convenience: single-variable subscript.
    pub fn var(v: VarId) -> Self {
        Subscript::Lin(LinExpr::var(v))
    }
}

/// Substitutes nest loop variables out of `expr`, replacing each variable by
/// its lower or upper bound so as to *minimize* (`want_min = true`) or
/// *maximize* the expression. Processes innermost loops first so triangular
/// bounds (inner bound mentioning an outer variable) resolve correctly.
/// Returns `None` if variables remain after `depth + 1` rounds (malformed
/// nest).
fn extreme(expr: &LinExpr, nest: &LoopNest, want_min: bool) -> Option<LinExpr> {
    let mut e = expr.clone();
    for _round in 0..=nest.depth() {
        let mut changed = false;
        // Innermost first: iterate the nest in reverse.
        for info in nest.loops().iter().rev() {
            let c = e.coeff(info.var);
            if c == 0 {
                continue;
            }
            let take_lb = (c > 0) == want_min;
            let bound = if take_lb { &info.lb } else { &info.ub };
            e = e.substitute(info.var, bound);
            changed = true;
        }
        if !changed {
            break;
        }
    }
    if nest.mentions_any(&e) {
        None
    } else {
        Some(e)
    }
}

/// Summarizes one dimension's subscript into a triplet.
fn dim_triplet(sub: &Subscript, nest: &LoopNest) -> Triplet {
    let expr = match sub {
        Subscript::Lin(e) => e,
        Subscript::Messy => return Triplet::messy(),
    };
    if let Some(c) = expr.as_constant() {
        return Triplet::point(c);
    }
    if !nest.mentions_any(expr) {
        // Purely symbolic single element: lb = ub = expr.
        return Triplet::new(
            Bound::Expr(expr.clone()),
            Bound::Expr(expr.clone()),
            Bound::Const(1),
        );
    }
    // Stride: gcd of |coeff · step| over all mentioned loop variables. The
    // accessed offsets from the minimum are non-negative combinations of the
    // per-loop strides, so the gcd triplet is a superset.
    let mut stride = 0i64;
    for (v, c) in expr.terms() {
        if let Some(info) = nest.find(v) {
            stride = gcd(stride, (c * info.step).abs());
        }
    }
    if stride == 0 {
        stride = 1;
    }
    let lo = extreme(expr, nest, true);
    let hi = extreme(expr, nest, false);
    match (lo, hi) {
        (Some(lo), Some(hi)) => match (lo.as_constant(), hi.as_constant()) {
            (Some(l), Some(h)) => Triplet::constant_with_stride(l, h, stride),
            _ => Triplet::new(
                lin_bound(lo),
                lin_bound(hi),
                Bound::Const(stride),
            ),
        },
        _ => Triplet::new(Bound::Unprojected, Bound::Unprojected, Bound::Const(stride)),
    }
}

fn lin_bound(e: LinExpr) -> Bound {
    match e.as_constant() {
        Some(c) => Bound::Const(c),
        None => Bound::Expr(e),
    }
}

impl Triplet {
    /// Like [`Triplet::constant`] but preserves a caller-computed stride
    /// (still snapping `ub` onto the progression).
    pub fn constant_with_stride(lb: i64, ub: i64, stride: i64) -> Triplet {
        let (mut lb, mut ub) = (lb, ub);
        let stride = stride.abs().max(1);
        if lb > ub {
            std::mem::swap(&mut lb, &mut ub);
        }
        let ub = lb + ((ub - lb) / stride) * stride;
        Triplet {
            lb: Bound::Const(lb),
            ub: Bound::Const(ub),
            stride: Bound::Const(if lb == ub { 1 } else { stride }),
        }
    }
}

/// Builds the convex region for a reference: `x_d = subscript_d` for every
/// linearizable dimension plus the nest's bound constraints, then projects
/// the loop variables away.
pub fn convex_for_reference(
    space: &Space,
    nest: &LoopNest,
    subs: &[Subscript],
) -> Option<ConvexRegion> {
    let mut stats = FmStats::default();
    convex_with_stats(space, nest, subs, &mut stats)
}

/// Like [`convex_for_reference`], but every give-up path records a typed
/// [`ImpreciseReason`] in `stats` (and counts a `regions.fm_bailouts`
/// event) instead of returning a bare `None` — the interval fallback keys
/// off the distinction between "budget truncated an affine answer" and
/// "this was never affine".
pub fn convex_with_stats(
    space: &Space,
    nest: &LoopNest,
    subs: &[Subscript],
    stats: &mut FmStats,
) -> Option<ConvexRegion> {
    // With the analysis budget already dry there is no point building a
    // system whose projection would only drop constraints again; skip the
    // convex companion entirely (triplets still summarize the reference).
    if support::budget::exhausted() {
        obs::incr(Counter::RegionsFmBailouts);
        stats.mark_imprecise(ImpreciseReason::Budget);
        return None;
    }
    let mut system = ConstraintSystem::new();
    let mut any_messy = false;
    for (d, sub) in subs.iter().enumerate() {
        let x = space.dim_var(d as u8)?;
        match sub {
            Subscript::Lin(e) => {
                system.push(Constraint::eq(LinExpr::var(x), e.clone()));
            }
            Subscript::Messy => any_messy = true,
        }
    }
    for info in nest.loops() {
        system.push(Constraint::ge(LinExpr::var(info.var), info.lb.clone()));
        system.push(Constraint::le(LinExpr::var(info.var), info.ub.clone()));
    }
    if any_messy {
        // A non-affine dimension is a bail-out even when the remaining
        // affine dimensions still project: the reference as a whole has no
        // exact system.
        obs::incr(Counter::RegionsFmBailouts);
        stats.mark_imprecise(ImpreciseReason::NonAffine);
        if subs.iter().all(|s| matches!(s, Subscript::Messy)) {
            return None;
        }
    }
    let projected = convex::project_loops_of(space, &system, stats);
    Some(ConvexRegion::new(space.clone(), projected))
}

/// Per-reference imprecision report accompanying a summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SummaryDetail {
    /// FM statistics from building the convex companion, including the
    /// typed give-up reason when any path bailed.
    pub stats: FmStats,
    /// Dimensions whose subscript was non-affine (triplet came out Messy).
    pub messy_dims: Vec<usize>,
    /// Dimensions whose bound substitution failed (Unprojected bounds —
    /// affine but symbolically unresolvable in this nest).
    pub unprojected_dims: Vec<usize>,
}

impl SummaryDetail {
    /// True when every dimension was summarized without any loss.
    pub fn is_exact(&self) -> bool {
        self.messy_dims.is_empty()
            && self.unprojected_dims.is_empty()
            && self.stats.widened == 0
            && self.stats.imprecise.is_none()
    }
}

/// Summarizes a whole reference: one triplet per dimension plus the convex
/// companion region.
pub fn summarize_reference(
    space: &Space,
    nest: &LoopNest,
    subs: &[Subscript],
) -> (TripletRegion, Option<ConvexRegion>) {
    let (region, convex, _) = summarize_reference_detailed(space, nest, subs);
    (region, convex)
}

/// [`summarize_reference`] plus the [`SummaryDetail`] describing exactly
/// which dimensions (and why) are imprecise.
pub fn summarize_reference_detailed(
    space: &Space,
    nest: &LoopNest,
    subs: &[Subscript],
) -> (TripletRegion, Option<ConvexRegion>, SummaryDetail) {
    let mut detail = SummaryDetail::default();
    let mut dims = Vec::with_capacity(subs.len());
    for (d, sub) in subs.iter().enumerate() {
        let t = dim_triplet(sub, nest);
        if matches!(sub, Subscript::Messy) {
            detail.messy_dims.push(d);
            detail.stats.mark_imprecise(ImpreciseReason::NonAffine);
        } else if t.lb == Bound::Unprojected || t.ub == Bound::Unprojected {
            detail.unprojected_dims.push(d);
            detail.stats.mark_imprecise(ImpreciseReason::Symbolic);
        }
        dims.push(t);
    }
    let convex = convex_with_stats(space, nest, subs, &mut detail.stats);
    (TripletRegion::new(dims), convex, detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use support::Interner;

    fn setup(ndims: u8) -> (Interner, Space) {
        (Interner::new(), Space::with_dims(ndims))
    }

    fn const_loop(var: VarId, lb: i64, ub: i64, step: i64) -> LoopInfo {
        LoopInfo {
            var,
            lb: LinExpr::constant(lb),
            ub: LinExpr::constant(ub),
            step,
        }
    }

    #[test]
    fn straight_line_constant_subscript() {
        let (_, space) = setup(1);
        let nest = LoopNest::new();
        let (t, cx) = summarize_reference(&space, &nest, &[Subscript::constant(5)]);
        assert_eq!(t.dims[0].as_const(), Some((5, 5, 1)));
        let cx = cx.unwrap();
        assert_eq!(cx.dim_bounds(0), Some((Some(5), Some(5))));
    }

    #[test]
    fn unit_stride_loop() {
        // for i in 0..=7: a[i]  →  0:7:1 (Fig. 10's first loops over aarr).
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 0, 7, 1));
        let (t, cx) = summarize_reference(&space, &nest, &[Subscript::var(i)]);
        assert_eq!(t.dims[0].as_const(), Some((0, 7, 1)));
        assert_eq!(cx.unwrap().dim_bounds(0), Some((Some(0), Some(7))));
    }

    #[test]
    fn offset_subscript() {
        // for i in 0..=7: a[i+1]  →  1:8:1 (Fig. 9's second DEF row).
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 0, 7, 1));
        let sub = Subscript::Lin(LinExpr::var(i).add(&LinExpr::constant(1)));
        let (t, _) = summarize_reference(&space, &nest, &[sub]);
        assert_eq!(t.dims[0].as_const(), Some((1, 8, 1)));
    }

    #[test]
    fn strided_loop_preserves_stride() {
        // for i in 2..=6 step 2: a[i]  →  2:6:2 (Fig. 9's strided USE row) —
        // the old Dragon normalized this away; ours must not.
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 2, 6, 2));
        let (t, _) = summarize_reference(&space, &nest, &[Subscript::var(i)]);
        assert_eq!(t.dims[0].as_const(), Some((2, 6, 2)));
    }

    #[test]
    fn coefficient_scales_stride() {
        // for i in 0..=4: a[2*i+1]  →  1:9:2.
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 0, 4, 1));
        let sub = Subscript::Lin(LinExpr::term(i, 2).add(&LinExpr::constant(1)));
        let (t, _) = summarize_reference(&space, &nest, &[sub]);
        assert_eq!(t.dims[0].as_const(), Some((1, 9, 2)));
    }

    #[test]
    fn negative_coefficient_descending_access() {
        // for i in 1..=5: a[10-i]  →  5:9:1.
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 1, 5, 1));
        let sub = Subscript::Lin(LinExpr::constant(10).sub(&LinExpr::var(i)));
        let (t, _) = summarize_reference(&space, &nest, &[sub]);
        assert_eq!(t.dims[0].as_const(), Some((5, 9, 1)));
    }

    #[test]
    fn two_dimensional_reference() {
        // do i = 1,100; do j = 1,100: A(i, j)  →  (1:100:1, 1:100:1).
        let (mut it, mut space) = setup(2);
        let i = space.add_loop(it.intern("i"));
        let j = space.add_loop(it.intern("j"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 1, 100, 1));
        nest.push(const_loop(j, 1, 100, 1));
        let (t, cx) =
            summarize_reference(&space, &nest, &[Subscript::var(i), Subscript::var(j)]);
        assert_eq!(t.to_string(), "(1:100:1, 1:100:1)");
        let cx = cx.unwrap();
        assert_eq!(cx.dim_bounds(0), Some((Some(1), Some(100))));
        assert_eq!(cx.dim_bounds(1), Some((Some(1), Some(100))));
    }

    #[test]
    fn coupled_subscript_conservative_stride() {
        // for i in 0..=3, j in 0..=3: a[2i + 4j] → offsets multiples of 2.
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let j = space.add_loop(it.intern("j"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 0, 3, 1));
        nest.push(const_loop(j, 0, 3, 1));
        let sub = Subscript::Lin(LinExpr::term(i, 2).add(&LinExpr::term(j, 4)));
        let (t, _) = summarize_reference(&space, &nest, &[sub]);
        assert_eq!(t.dims[0].as_const(), Some((0, 18, 2)));
    }

    #[test]
    fn triangular_nest_resolves_inner_bound() {
        // do i = 1,10; do j = 1,i: a[j]  →  1:10:1.
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let j = space.add_loop(it.intern("j"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 1, 10, 1));
        nest.push(LoopInfo {
            var: j,
            lb: LinExpr::constant(1),
            ub: LinExpr::var(i),
            step: 1,
        });
        let (t, _) = summarize_reference(&space, &nest, &[Subscript::var(j)]);
        assert_eq!(t.dims[0].as_const(), Some((1, 10, 1)));
    }

    #[test]
    fn symbolic_loop_bound_yields_expr_bound() {
        // do i = 1,m: a[i]  →  1:$m:1 with an IVAR upper bound.
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let m = space.add_sym(it.intern("m"));
        let mut nest = LoopNest::new();
        nest.push(LoopInfo {
            var: i,
            lb: LinExpr::constant(1),
            ub: LinExpr::var(m),
            step: 1,
        });
        let (t, _) = summarize_reference(&space, &nest, &[Subscript::var(i)]);
        assert_eq!(t.dims[0].lb.as_const(), Some(1));
        assert_eq!(t.dims[0].ub, Bound::Expr(LinExpr::var(m)));
        use crate::triplet::BoundClass;
        assert_eq!(t.dims[0].ub.classify(&space), BoundClass::IVar);
    }

    #[test]
    fn messy_subscript_is_messy() {
        let (_, space) = setup(1);
        let nest = LoopNest::new();
        let (t, cx, detail) = summarize_reference_detailed(&space, &nest, &[Subscript::Messy]);
        assert_eq!(t.dims[0], Triplet::messy());
        assert!(cx.is_none());
        assert_eq!(detail.messy_dims, vec![0]);
        assert_eq!(detail.stats.imprecise, Some(ImpreciseReason::NonAffine));
        assert!(!detail.is_exact());
    }

    #[test]
    fn exact_reference_reports_exact_detail() {
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 0, 7, 1));
        let (_, _, detail) = summarize_reference_detailed(&space, &nest, &[Subscript::var(i)]);
        assert!(detail.is_exact(), "{detail:?}");
    }

    #[test]
    fn partial_messy_reference_keeps_affine_dims_but_is_marked() {
        // a[i, idx(j)]: dim 0 summarizes exactly, dim 1 is non-affine.
        let (mut it, mut space) = setup(2);
        let i = space.add_loop(it.intern("i"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 1, 10, 1));
        let (t, cx, detail) =
            summarize_reference_detailed(&space, &nest, &[Subscript::var(i), Subscript::Messy]);
        assert_eq!(t.dims[0].as_const(), Some((1, 10, 1)));
        assert_eq!(t.dims[1], Triplet::messy());
        assert!(cx.is_some(), "affine dims still get a convex companion");
        assert_eq!(detail.messy_dims, vec![1]);
        assert_eq!(detail.stats.imprecise, Some(ImpreciseReason::NonAffine));
    }

    #[test]
    fn dry_budget_detail_is_typed_budget() {
        use support::budget::{self, BudgetConfig};
        let (mut it, mut space) = setup(1);
        let i = space.add_loop(it.intern("i"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 0, 7, 1));
        let scope = budget::enter(BudgetConfig { fm_steps: 0, ..Default::default() });
        assert!(!budget::charge_steps(1), "drain the scope");
        let (_, cx, detail) = summarize_reference_detailed(&space, &nest, &[Subscript::var(i)]);
        drop(scope);
        assert!(cx.is_none(), "dry budget skips the convex companion");
        assert_eq!(detail.stats.imprecise, Some(ImpreciseReason::Budget));
    }

    #[test]
    fn symbolic_point_access() {
        // a[m] with m a formal parameter: lb = ub = $m.
        let (mut it, mut space) = setup(1);
        let m = space.add_sym(it.intern("m"));
        let nest = LoopNest::new();
        let (t, _) = summarize_reference(&space, &nest, &[Subscript::var(m)]);
        assert_eq!(t.dims[0].lb, Bound::Expr(LinExpr::var(m)));
        assert_eq!(t.dims[0].ub, Bound::Expr(LinExpr::var(m)));
    }

    #[test]
    fn nest_push_pop() {
        let (mut it, mut space) = setup(0);
        let i = space.add_loop(it.intern("i"));
        let mut nest = LoopNest::new();
        nest.push(const_loop(i, 1, 2, 1));
        assert_eq!(nest.depth(), 1);
        assert!(nest.find(i).is_some());
        nest.pop();
        assert_eq!(nest.depth(), 0);
    }
}
