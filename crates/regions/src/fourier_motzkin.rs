//! Fourier–Motzkin variable elimination.
//!
//! The paper notes the Regions method's first drawback: "Fourier-Motzkin
//! linear system solver, which has worst case exponential time, is needed to
//! compare Regions". We implement exactly that solver: projecting a variable
//! out of a conjunction of affine constraints by pairing every lower bound
//! with every upper bound, plus Gaussian substitution for equalities (which
//! avoids the quadratic blow-up whenever a subscript ties a dimension
//! variable to a loop variable — the common case).
//!
//! Over the integers FM projection is an *over-approximation* (dark-shadow
//! effects are ignored), which is exactly the conservative behaviour a region
//! summary needs: the projected region contains every truly-accessed element.

use crate::constraint::{lcm, Constraint, ConstraintSystem, Rel};
use crate::space::VarId;
use std::borrow::Cow;
use support::obs::{self, Counter};
use support::{budget, faultpoint};

/// Default constraint budget per elimination step. Classic FM is doubly
/// exponential on dense systems; beyond this many inequalities the
/// *simplest* ones (fewest terms, smallest coefficients) are kept and the
/// rest dropped. Dropping an inequality only enlarges the solution set, so
/// every consumer stays sound: projections over-approximate the shadow,
/// emptiness/disjointness are claimed less often (conservative for the
/// paper's parallelization test), and `bounds_of` can only widen.
///
/// An active [`budget`] scope overrides this cap (and additionally bounds
/// the total elimination work via its step budget).
pub const STEP_BUDGET: usize = budget::DEFAULT_MAX_CONSTRAINTS;

/// Why an FM-based summary is not exact. Every give-up site in this module
/// and in [`crate::summarize`] reports one of these instead of silently
/// returning a widened or absent result — the interval fallback pass keys
/// off the distinction (only `NonAffine` accesses are worth re-analyzing;
/// `Budget` means the affine answer exists but was truncated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ImpreciseReason {
    /// The step or constraint budget ran dry and a sound widening was
    /// applied (constraints dropped, bounds enlarged).
    Budget,
    /// A subscript or loop bound could not be linearized at all (indirect
    /// index, product of variables) — the affine machinery never saw it.
    NonAffine,
    /// The system stayed affine but a projection left residual symbolic
    /// terms no bound could be extracted from.
    Symbolic,
}

impl std::fmt::Display for ImpreciseReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ImpreciseReason::Budget => "budget",
            ImpreciseReason::NonAffine => "non-affine",
            ImpreciseReason::Symbolic => "symbolic",
        })
    }
}

/// Statistics from one elimination run, used by the ablation bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FmStats {
    /// Variables eliminated.
    pub eliminated: usize,
    /// Constraint pairs combined across all eliminations.
    pub pairs_combined: usize,
    /// Equalities removed by substitution instead of pairing.
    pub substitutions: usize,
    /// Peak constraint count observed.
    pub peak_constraints: usize,
    /// Inequalities dropped by the [`STEP_BUDGET`] widening.
    pub widened: usize,
    /// Why the run is imprecise, when it is; `NonAffine` outranks `Budget`
    /// outranks `Symbolic` is *not* implied — the first recorded reason
    /// sticks unless a later one is strictly more fundamental (see
    /// [`FmStats::mark_imprecise`]).
    pub imprecise: Option<ImpreciseReason>,
}

impl FmStats {
    /// Records a give-up reason. `Budget` never overwrites `NonAffine`
    /// (a non-affine input is imprecise no matter how much budget is
    /// spent); otherwise the first reason wins.
    pub fn mark_imprecise(&mut self, reason: ImpreciseReason) {
        self.imprecise = Some(match self.imprecise {
            Some(ImpreciseReason::NonAffine) => ImpreciseReason::NonAffine,
            Some(cur) if reason != ImpreciseReason::NonAffine => cur,
            _ => reason,
        });
    }
}

/// Outcome of an elimination: the projected system or a proof of emptiness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// The variable was eliminated; the remaining system over-approximates
    /// the shadow of the original polyhedron.
    Feasible(ConstraintSystem),
    /// A contradiction surfaced: the original system has no solution.
    Empty,
}

impl Projection {
    /// Unwraps the feasible system, panicking on `Empty`.
    pub fn expect_feasible(self) -> ConstraintSystem {
        match self {
            Projection::Feasible(cs) => cs,
            Projection::Empty => panic!("projection of an empty system"),
        }
    }

    /// True when the projection proved emptiness.
    pub fn is_empty(&self) -> bool {
        matches!(self, Projection::Empty)
    }
}

/// Eliminates `v` from `system`.
///
/// Preference order: (1) if an equality mentions `v` with coefficient ±1,
/// substitute it exactly; (2) if an equality mentions `v` with another
/// coefficient, scale-and-substitute (still exact for the rational shadow,
/// conservative over ℤ); (3) otherwise pair lower × upper bounds.
pub fn eliminate(system: &ConstraintSystem, v: VarId, stats: &mut FmStats) -> Projection {
    eliminate_step(system, v, stats).unwrap_or_else(|| Projection::Feasible(system.clone()))
}

/// [`eliminate`], but `None` when `system` is unchanged because `v` does
/// not occur in it, so callers that own the system need not copy it.
fn eliminate_step(system: &ConstraintSystem, v: VarId, stats: &mut FmStats) -> Option<Projection> {
    faultpoint::hit("fm::eliminate");
    if system.has_contradiction() {
        return Some(Projection::Empty);
    }
    if !system.mentions(v) {
        return None;
    }
    obs::incr(Counter::FmEliminations);
    Some(eliminate_mentioned(system, v, stats))
}

/// Eliminates `v`, which occurs in the contradiction-free `system`.
fn eliminate_mentioned(system: &ConstraintSystem, v: VarId, stats: &mut FmStats) -> Projection {
    let (lower, upper, eqs, rest) = system.partition_on(v);

    // Charge the work this elimination is about to do against the active
    // budget scope. Once the budget is dry, fall back to the coarsest sound
    // projection: drop every constraint mentioning `v` (the solution set
    // only grows, so consumers stay conservative).
    let cost = if eqs.is_empty() {
        1 + (lower.len() * upper.len()) as u64
    } else {
        system.len() as u64
    };
    if !budget::charge_steps(cost) {
        obs::incr(Counter::FmWidenings);
        obs::incr(Counter::RegionsFmBailouts);
        stats.mark_imprecise(ImpreciseReason::Budget);
        return Projection::Feasible(drop_mentions(system, v, stats));
    }

    // Case 1 & 2: substitution through an equality.
    if let Some(eq) = eqs.iter().min_by_key(|c| c.expr.coeff(v).abs()) {
        stats.substitutions += 1;
        stats.eliminated += 1;
        let a = eq.expr.coeff(v);
        let mut out = ConstraintSystem::new();
        if a.abs() == 1 {
            // v = -(expr - a·v)/a : solve exactly.
            let mut rhs = eq.expr.clone();
            rhs.add_term(v, -a);
            // a·v + rhs' = 0  ⇒  v = -rhs'/a; with |a| = 1, v = -a·rhs'.
            let solved = rhs.scale(-a);
            for c in system.constraints() {
                if std::ptr::eq(*eq, c) {
                    continue;
                }
                let e = c.expr.substitute(v, &solved);
                let nc = Constraint { expr: e, rel: c.rel }.normalized();
                if nc.is_trivially_false() {
                    return Projection::Empty;
                }
                out.push(nc);
            }
        } else {
            // Scale each other constraint by |a| so the substitution stays
            // integral: from a·v = -r, replace a·v inside k·v-terms.
            for c in system.constraints() {
                if std::ptr::eq(*eq, c) {
                    continue;
                }
                let k = c.expr.coeff(v);
                if k == 0 {
                    out.push(c.clone());
                    continue;
                }
                // a·(c.expr) - k·(eq.expr) removes v. Keep direction: need
                // positive multiplier on the Ge side, so multiply by |a| and
                // sign-correct.
                let mult = if a > 0 { a } else { -a };
                let eq_mult = if a > 0 { k } else { -k };
                let mut e = c.expr.scale(mult);
                e = e.sub(&eq.expr.scale(eq_mult));
                debug_assert_eq!(e.coeff(v), 0);
                let nc = Constraint { expr: e, rel: c.rel }.normalized();
                if nc.is_trivially_false() {
                    return Projection::Empty;
                }
                out.push(nc);
            }
        }
        out.prune();
        stats.peak_constraints = stats.peak_constraints.max(out.len());
        return Projection::Feasible(out);
    }

    // Case 3: classic FM pairing.
    stats.eliminated += 1;
    let mut out = ConstraintSystem::new();
    for c in rest {
        out.push(c.clone());
    }
    for lo in &lower {
        for up in &upper {
            stats.pairs_combined += 1;
            let a = lo.expr.coeff(v); // a > 0
            let b = -up.expr.coeff(v); // b > 0
            let m = lcm(a, b);
            // m/a · lo + m/b · up eliminates v, preserving ≥.
            let combined = lo.expr.scale(m / a).add_scaled(&up.expr, m / b);
            debug_assert_eq!(combined.coeff(v), 0);
            let nc = Constraint::ge0(combined);
            if nc.is_trivially_false() {
                return Projection::Empty;
            }
            out.push(nc);
        }
    }
    out.prune();
    widen_to_budget(&mut out, stats);
    stats.peak_constraints = stats.peak_constraints.max(out.len());
    Projection::Feasible(out)
}

/// Widening used once the step budget is exhausted: drops every constraint
/// mentioning `v`, the coarsest sound projection (`v` becomes unbounded).
fn drop_mentions(system: &ConstraintSystem, v: VarId, stats: &mut FmStats) -> ConstraintSystem {
    let mut out = ConstraintSystem::new();
    for c in system.constraints() {
        if c.expr.coeff(v) == 0 {
            out.push(c.clone());
        }
    }
    stats.widened += system.len() - out.len();
    stats.eliminated += 1;
    out
}

/// Enforces the constraint cap ([`STEP_BUDGET`] by default, the active
/// budget scope's `max_constraints` otherwise) by dropping the most complex
/// inequalities (a sound widening — see the constant's documentation).
/// Equalities are always kept: they never multiply and carry exact
/// information.
fn widen_to_budget(cs: &mut ConstraintSystem, stats: &mut FmStats) {
    let cap = budget::constraint_cap();
    if cs.len() <= cap {
        return;
    }
    obs::incr(Counter::FmWidenings);
    obs::incr(Counter::RegionsFmBailouts);
    stats.mark_imprecise(ImpreciseReason::Budget);
    let mut constraints: Vec<Constraint> = cs.constraints().to_vec();
    // Simplicity key: equalities first, then by term count, then by the
    // largest absolute coefficient (big coefficients breed overflow and
    // weak cuts).
    constraints.sort_by_key(|c| {
        let is_eq = c.rel == Rel::Eq;
        let terms = c.expr.terms().count();
        let max_coeff = c.expr.terms().map(|(_, k)| k.abs()).max().unwrap_or(0);
        (!is_eq, terms, max_coeff)
    });
    stats.widened += constraints.len() - cap;
    constraints.truncate(cap);
    *cs = constraints.into_iter().collect();
}

/// Eliminates every variable in `vars`, choosing the cheapest variable each
/// round (Fourier's heuristic: minimize the lower×upper pairing product;
/// variables bound by an equality are free).
pub fn eliminate_all(
    system: &ConstraintSystem,
    vars: &[VarId],
    stats: &mut FmStats,
) -> Projection {
    let mut current = Cow::Borrowed(system);
    let mut remaining: Vec<VarId> = vars.to_vec();
    while let Some((pos, _)) = remaining
        .iter()
        .enumerate()
        .map(|(i, &v)| (i, elimination_cost(&current, v)))
        .min_by_key(|&(_, cost)| cost)
    {
        let v = remaining.swap_remove(pos);
        match eliminate_step(&current, v, stats) {
            Some(Projection::Feasible(next)) => current = Cow::Owned(next),
            Some(Projection::Empty) => return Projection::Empty,
            None => {}
        }
    }
    Projection::Feasible(current.into_owned())
}

/// The pairing cost of eliminating `v` now: 0 when an equality can
/// substitute it away, else `|lower| * |upper|`.
fn elimination_cost(system: &ConstraintSystem, v: VarId) -> usize {
    let (mut lower, mut upper) = (0, 0);
    for c in system.constraints() {
        match c.expr.coeff(v) {
            0 => {}
            _ if c.rel == Rel::Eq => return 0,
            k if k > 0 => lower += 1,
            _ => upper += 1,
        }
    }
    lower * upper
}

/// Decides whether the system has any rational solution by eliminating every
/// variable; the residue is a set of constant constraints.
pub fn is_satisfiable(system: &ConstraintSystem) -> bool {
    let mut stats = FmStats::default();
    let vars = system.vars();
    match eliminate_all(system, &vars, &mut stats) {
        Projection::Feasible(residue) => !residue.has_contradiction(),
        Projection::Empty => false,
    }
}

/// Computes integer bounds `[min, max]` for `v` under `system` by projecting
/// all other variables away; `None` on the respective side when unbounded,
/// and `None` overall when the system is empty.
///
/// ```
/// use regions::constraint::{Constraint, ConstraintSystem};
/// use regions::fourier_motzkin::bounds_of;
/// use regions::linexpr::LinExpr;
/// use regions::space::VarId;
///
/// // x = i + 100 with 1 ≤ i ≤ 100  ⇒  x ∈ [101, 200] (Fig. 1's P2 region).
/// let (x, i) = (VarId(0), VarId(1));
/// let mut cs = ConstraintSystem::new();
/// cs.push(Constraint::eq(LinExpr::var(x), LinExpr::var(i).add(&LinExpr::constant(100))));
/// cs.push(Constraint::ge(LinExpr::var(i), LinExpr::constant(1)));
/// cs.push(Constraint::le(LinExpr::var(i), LinExpr::constant(100)));
/// assert_eq!(bounds_of(&cs, x), Some((Some(101), Some(200))));
/// ```
pub fn bounds_of(
    system: &ConstraintSystem,
    v: VarId,
) -> Option<(Option<i64>, Option<i64>)> {
    let mut stats = FmStats::default();
    let others: Vec<VarId> =
        system.vars().into_iter().filter(|&u| u != v).collect();
    let projected = match eliminate_all(system, &others, &mut stats) {
        Projection::Feasible(cs) => cs,
        Projection::Empty => return None,
    };
    if projected.has_contradiction() {
        return None;
    }
    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    for c in projected.constraints() {
        let a = c.expr.coeff(v);
        let k = c.expr.constant_term();
        if a == 0 {
            continue;
        }
        match c.rel {
            Rel::Ge => {
                if a > 0 {
                    // a·v + k ≥ 0 ⇒ v ≥ ⌈-k/a⌉
                    let bound = (-k).div_euclid(a) + if (-k).rem_euclid(a) != 0 { 1 } else { 0 };
                    lo = Some(lo.map_or(bound, |cur| cur.max(bound)));
                } else {
                    // a·v + k ≥ 0, a < 0 ⇒ v ≤ ⌊k/(-a)⌋
                    let bound = k.div_euclid(-a);
                    hi = Some(hi.map_or(bound, |cur| cur.min(bound)));
                }
            }
            Rel::Eq => {
                if k % a == 0 {
                    let val = -k / a;
                    lo = Some(lo.map_or(val, |cur| cur.max(val)));
                    hi = Some(hi.map_or(val, |cur| cur.min(val)));
                } else {
                    return None; // integer-infeasible equality
                }
            }
        }
    }
    if let (Some(l), Some(h)) = (lo, hi) {
        if l > h {
            return None;
        }
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::linexpr::LinExpr;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn between(var: VarId, lo: i64, hi: i64) -> [Constraint; 2] {
        [
            Constraint::ge(LinExpr::var(var), LinExpr::constant(lo)),
            Constraint::le(LinExpr::var(var), LinExpr::constant(hi)),
        ]
    }

    #[test]
    fn eliminate_via_pairing() {
        // 1 ≤ t ≤ 10, x ≥ t, x ≤ t + 2  →  after eliminating t: bounds on x.
        let mut cs = ConstraintSystem::new();
        for c in between(v(1), 1, 10) {
            cs.push(c);
        }
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::var(v(1))));
        cs.push(Constraint::le(
            LinExpr::var(v(0)),
            LinExpr::var(v(1)).add(&LinExpr::constant(2)),
        ));
        let mut stats = FmStats::default();
        let out = eliminate(&cs, v(1), &mut stats).expect_feasible();
        assert!(stats.pairs_combined > 0);
        // x must satisfy 1 ≤ x (from t ≥ 1, x ≥ t... actually x ≥ t gives x
        // ≥ 1 only combined with t ≥ 1 — FM produces it) and x ≤ 12.
        let b = bounds_of(&out, v(0)).unwrap();
        assert_eq!(b, (Some(1), Some(12)));
    }

    #[test]
    fn eliminate_via_equality_substitution() {
        // x = 2t + 1, 0 ≤ t ≤ 4  →  x ∈ {1..9}; rational shadow is [1, 9].
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::eq(
            LinExpr::var(v(0)),
            LinExpr::term(v(1), 2).add(&LinExpr::constant(1)),
        ));
        for c in between(v(1), 0, 4) {
            cs.push(c);
        }
        let mut stats = FmStats::default();
        let out = eliminate(&cs, v(1), &mut stats).expect_feasible();
        assert_eq!(stats.substitutions, 1);
        assert_eq!(bounds_of(&out, v(0)).unwrap(), (Some(1), Some(9)));
    }

    #[test]
    fn detects_empty_system() {
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(5)));
        cs.push(Constraint::le(LinExpr::var(v(0)), LinExpr::constant(2)));
        assert!(!is_satisfiable(&cs));
    }

    #[test]
    fn satisfiable_system() {
        let mut cs = ConstraintSystem::new();
        for c in between(v(0), 1, 100) {
            cs.push(c);
        }
        for c in between(v(1), 1, 100) {
            cs.push(c);
        }
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::var(v(1))));
        assert!(is_satisfiable(&cs));
    }

    #[test]
    fn bounds_of_simple_box() {
        let mut cs = ConstraintSystem::new();
        for c in between(v(0), -3, 7) {
            cs.push(c);
        }
        assert_eq!(bounds_of(&cs, v(0)).unwrap(), (Some(-3), Some(7)));
    }

    #[test]
    fn bounds_of_unbounded_side() {
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(2)));
        assert_eq!(bounds_of(&cs, v(0)).unwrap(), (Some(2), None));
    }

    #[test]
    fn bounds_of_through_equality_chain() {
        // Fig. 1 shape: x0 = i, 1 ≤ i ≤ 100  →  x0 ∈ [1, 100].
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::eq(LinExpr::var(v(0)), LinExpr::var(v(1))));
        for c in between(v(1), 1, 100) {
            cs.push(c);
        }
        assert_eq!(bounds_of(&cs, v(0)).unwrap(), (Some(1), Some(100)));
    }

    #[test]
    fn bounds_with_offset_equality() {
        // x0 = i + 100, 1 ≤ i ≤ 100  →  x0 ∈ [101, 200] (Fig. 1's P2 region).
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::eq(
            LinExpr::var(v(0)),
            LinExpr::var(v(1)).add(&LinExpr::constant(100)),
        ));
        for c in between(v(1), 1, 100) {
            cs.push(c);
        }
        assert_eq!(bounds_of(&cs, v(0)).unwrap(), (Some(101), Some(200)));
    }

    #[test]
    fn negative_bounds_survive_projection() {
        // The old Dragon lost negative bounds; ours must not.
        // x0 = i - 10, 1 ≤ i ≤ 5  →  x0 ∈ [-9, -5].
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::eq(
            LinExpr::var(v(0)),
            LinExpr::var(v(1)).add(&LinExpr::constant(-10)),
        ));
        for c in between(v(1), 1, 5) {
            cs.push(c);
        }
        assert_eq!(bounds_of(&cs, v(0)).unwrap(), (Some(-9), Some(-5)));
    }

    #[test]
    fn scaled_equality_substitution() {
        // 3x = y, 0 ≤ y ≤ 9  →  x ∈ [0, 3].
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::eq(LinExpr::term(v(0), 3), LinExpr::var(v(1))));
        for c in between(v(1), 0, 9) {
            cs.push(c);
        }
        assert_eq!(bounds_of(&cs, v(0)).unwrap(), (Some(0), Some(3)));
    }

    #[test]
    fn empty_system_bounds_none() {
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(5)));
        cs.push(Constraint::le(LinExpr::var(v(0)), LinExpr::constant(2)));
        assert!(bounds_of(&cs, v(0)).is_none());
    }

    #[test]
    fn exhausted_budget_widens_to_unbounded() {
        use support::budget::{self, BudgetConfig};
        // Same system as `eliminate_via_pairing`, but with a dead budget:
        // instead of pairing, every constraint on t is dropped, leaving x
        // unbounded — a sound over-approximation, not an error.
        let mut cs = ConstraintSystem::new();
        for c in between(v(1), 1, 10) {
            cs.push(c);
        }
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::var(v(1))));
        cs.push(Constraint::le(
            LinExpr::var(v(0)),
            LinExpr::var(v(1)).add(&LinExpr::constant(2)),
        ));
        let _scope = budget::enter(BudgetConfig { fm_steps: 0, ..Default::default() });
        let mut stats = FmStats::default();
        let out = eliminate(&cs, v(1), &mut stats).expect_feasible();
        assert!(stats.widened > 0);
        assert_eq!(stats.imprecise, Some(ImpreciseReason::Budget), "give-up must be typed");
        assert!(budget::exhausted());
        assert_eq!(bounds_of(&out, v(0)).unwrap(), (None, None));
    }

    #[test]
    fn imprecise_reason_precedence() {
        let mut s = FmStats::default();
        s.mark_imprecise(ImpreciseReason::Symbolic);
        assert_eq!(s.imprecise, Some(ImpreciseReason::Symbolic));
        s.mark_imprecise(ImpreciseReason::Budget);
        assert_eq!(s.imprecise, Some(ImpreciseReason::Symbolic), "first reason sticks");
        s.mark_imprecise(ImpreciseReason::NonAffine);
        assert_eq!(s.imprecise, Some(ImpreciseReason::NonAffine), "non-affine overrides");
        assert_eq!(ImpreciseReason::Budget.to_string(), "budget");
    }

    #[test]
    fn eliminate_untouched_variable_is_identity() {
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(1)));
        let mut stats = FmStats::default();
        let out = eliminate(&cs, v(9), &mut stats).expect_feasible();
        assert_eq!(out, cs);
        assert_eq!(stats.eliminated, 0);
    }
}
