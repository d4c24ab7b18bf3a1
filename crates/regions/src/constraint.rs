//! Affine constraint systems.
//!
//! A [`Constraint`] is either `expr ≥ 0` or `expr = 0` over a shared
//! [`Space`](crate::Space). A [`ConstraintSystem`] is their conjunction —
//! exactly how the Regions method describes "the set of array accesses as a
//! convex region in a geometrical space". Equalities are kept explicit (not
//! split into two inequalities) so substitution-based elimination stays exact
//! and cheap; Fourier–Motzkin is reserved for genuine inequality projection.

use crate::linexpr::{gcd, LinExpr};
use crate::space::VarId;

/// Relation of a constraint's expression to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `expr ≥ 0`.
    Ge,
    /// `expr = 0`.
    Eq,
}

/// One affine constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Left-hand expression, compared against zero via `rel`.
    pub expr: LinExpr,
    /// The relation.
    pub rel: Rel,
}

impl Constraint {
    /// `expr ≥ 0`.
    pub fn ge0(expr: LinExpr) -> Self {
        Constraint { expr, rel: Rel::Ge }.normalized()
    }

    /// `expr = 0`.
    pub fn eq0(expr: LinExpr) -> Self {
        Constraint { expr, rel: Rel::Eq }.normalized()
    }

    /// `lhs ≥ rhs`.
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Self {
        Self::ge0(lhs.sub(&rhs))
    }

    /// `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Self {
        Self::ge0(rhs.sub(&lhs))
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Self {
        Self::eq0(lhs.sub(&rhs))
    }

    /// Divides through by the positive gcd of the coefficients, tightening
    /// the constant for inequalities (integer semantics: `2x - 3 ≥ 0` becomes
    /// `x - 2 ≥ 0` because `x ≥ 3/2` means `x ≥ 2` over ℤ).
    pub fn normalized(mut self) -> Self {
        let g = self.expr.coeff_gcd();
        if g > 1 {
            let c = self.expr.constant_term();
            match self.rel {
                Rel::Ge => self.expr.divide_coeffs(g, c.div_euclid(g)),
                // Only exact when g divides the constant; otherwise the
                // equality is unsatisfiable over ℤ — keep it as-is and let
                // feasibility checks handle it.
                Rel::Eq if c % g == 0 => self.expr.divide_coeffs(g, c / g),
                Rel::Eq => {}
            }
        }
        self
    }

    /// True when the constraint holds for every assignment (`c ≥ 0` / `0 = 0`).
    pub fn is_trivially_true(&self) -> bool {
        match self.expr.as_constant() {
            Some(c) => match self.rel {
                Rel::Ge => c >= 0,
                Rel::Eq => c == 0,
            },
            None => false,
        }
    }

    /// True when the constraint holds for no assignment (`c < 0` / `c ≠ 0`
    /// with constant expr, or an integer-infeasible equality like `2x = 1`).
    pub fn is_trivially_false(&self) -> bool {
        if let Some(c) = self.expr.as_constant() {
            return match self.rel {
                Rel::Ge => c < 0,
                Rel::Eq => c != 0,
            };
        }
        if self.rel == Rel::Eq {
            let g = self.expr.coeff_gcd();
            if g > 1 && self.expr.constant_term() % g != 0 {
                return true;
            }
        }
        false
    }

    /// Evaluates the constraint under a total assignment.
    pub fn holds(&self, assign: &dyn Fn(VarId) -> Option<i64>) -> Option<bool> {
        let val = self.expr.eval(assign)?;
        Some(match self.rel {
            Rel::Ge => val >= 0,
            Rel::Eq => val == 0,
        })
    }

    /// Renders like `x0 - 2*i + 1 >= 0`.
    pub fn render(&self, name: &dyn Fn(VarId) -> String) -> String {
        let op = match self.rel {
            Rel::Ge => ">=",
            Rel::Eq => "=",
        };
        format!("{} {op} 0", self.expr.render(name))
    }
}

/// A conjunction of constraints over one space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintSystem {
    constraints: Vec<Constraint>,
}

impl ConstraintSystem {
    /// Creates an empty (universally true) system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint, skipping trivially-true ones and deduplicating.
    pub fn push(&mut self, c: Constraint) {
        if c.is_trivially_true() {
            return;
        }
        if !self.constraints.contains(&c) {
            self.constraints.push(c);
        }
    }

    /// Adds every constraint of `other`.
    pub fn extend_from(&mut self, other: &ConstraintSystem) {
        for c in &other.constraints {
            self.push(c.clone());
        }
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True when no constraints are present (the universe).
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// True when any member constraint is trivially false.
    pub fn has_contradiction(&self) -> bool {
        self.constraints.iter().any(Constraint::is_trivially_false)
    }

    /// Variables mentioned anywhere in the system, deduplicated ascending.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> =
            self.constraints.iter().flat_map(|c| c.expr.vars()).collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// True when `v` occurs in any constraint.
    pub fn mentions(&self, v: VarId) -> bool {
        self.constraints.iter().any(|c| c.expr.mentions(v))
    }

    /// Splits constraints on `v` into (lower bounds: coeff>0 in `expr≥0` form,
    /// upper bounds: coeff<0, equalities mentioning `v`, rest).
    #[allow(clippy::type_complexity)]
    pub fn partition_on(
        &self,
        v: VarId,
    ) -> (Vec<&Constraint>, Vec<&Constraint>, Vec<&Constraint>, Vec<&Constraint>) {
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        let mut eqs = Vec::new();
        let mut rest = Vec::new();
        for c in &self.constraints {
            let coeff = c.expr.coeff(v);
            if coeff == 0 {
                rest.push(c);
            } else if c.rel == Rel::Eq {
                eqs.push(c);
            } else if coeff > 0 {
                lower.push(c);
            } else {
                upper.push(c);
            }
        }
        (lower, upper, eqs, rest)
    }

    /// Checks the whole system under a total assignment.
    pub fn holds(&self, assign: &dyn Fn(VarId) -> Option<i64>) -> Option<bool> {
        for c in &self.constraints {
            if !c.holds(assign)? {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Removes syntactic duplicates and inequalities implied by one with the
    /// same variable part and a tighter constant (cheap dominance pruning).
    pub fn prune(&mut self) {
        // Drop a (`e + ka ≥ 0`) if some b (`e + kb ≥ 0`) has the same
        // variable part, both are inequalities, and kb ≤ ka: b implies a.
        // Of two equal ones the earlier survives.
        let mut keep = vec![true; self.constraints.len()];
        for i in 0..self.constraints.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.constraints.len() {
                if i == j || !keep[j] {
                    continue;
                }
                let (a, b) = (&self.constraints[i], &self.constraints[j]);
                if a.rel != Rel::Ge || b.rel != Rel::Ge {
                    continue;
                }
                if same_linear_part(&a.expr, &b.expr)
                    && b.expr.constant_term() <= a.expr.constant_term()
                    && (b.expr.constant_term() < a.expr.constant_term() || j < i)
                {
                    // b is tighter (or an earlier duplicate): drop a.
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut idx = 0;
        self.constraints.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    /// Renders one constraint per line.
    pub fn render(&self, name: &dyn Fn(VarId) -> String) -> String {
        self.constraints
            .iter()
            .map(|c| c.render(name))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl FromIterator<Constraint> for ConstraintSystem {
    fn from_iter<I: IntoIterator<Item = Constraint>>(iter: I) -> Self {
        let mut cs = ConstraintSystem::new();
        for c in iter {
            cs.push(c);
        }
        cs
    }
}

fn same_linear_part(a: &LinExpr, b: &LinExpr) -> bool {
    a.terms().eq(b.terms())
}

/// Convenience: gcd re-export for FM (kept here to avoid a util module).
pub(crate) fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        0
    } else {
        (a / gcd(a, b)).abs() * b.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn ge_le_eq_constructors() {
        // x ≥ 3  →  x - 3 ≥ 0
        let c = Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(3));
        assert_eq!(c.expr.coeff(v(0)), 1);
        assert_eq!(c.expr.constant_term(), -3);
        assert_eq!(c.rel, Rel::Ge);
        // x ≤ 3  →  3 - x ≥ 0
        let c = Constraint::le(LinExpr::var(v(0)), LinExpr::constant(3));
        assert_eq!(c.expr.coeff(v(0)), -1);
        assert_eq!(c.expr.constant_term(), 3);
        // x = y
        let c = Constraint::eq(LinExpr::var(v(0)), LinExpr::var(v(1)));
        assert_eq!(c.rel, Rel::Eq);
    }

    #[test]
    fn normalization_tightens_integer_bounds() {
        // 2x - 3 ≥ 0 ⇒ x ≥ 1.5 ⇒ x ≥ 2 ⇒ x - 2 ≥ 0 over ℤ.
        let c = Constraint::ge0(
            LinExpr::term(v(0), 2).add(&LinExpr::constant(-3)),
        );
        assert_eq!(c.expr.coeff(v(0)), 1);
        assert_eq!(c.expr.constant_term(), -2);
    }

    #[test]
    fn infeasible_integer_equality_detected() {
        // 2x = 1 has no integer solution.
        let c = Constraint::eq0(LinExpr::term(v(0), 2).add(&LinExpr::constant(-1)));
        assert!(c.is_trivially_false());
    }

    #[test]
    fn trivial_truth_detection() {
        assert!(Constraint::ge0(LinExpr::constant(0)).is_trivially_true());
        assert!(Constraint::ge0(LinExpr::constant(5)).is_trivially_true());
        assert!(Constraint::ge0(LinExpr::constant(-1)).is_trivially_false());
        assert!(Constraint::eq0(LinExpr::constant(0)).is_trivially_true());
        assert!(Constraint::eq0(LinExpr::constant(2)).is_trivially_false());
    }

    #[test]
    fn system_skips_trivial_and_duplicate_constraints() {
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::ge0(LinExpr::constant(1)));
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(1)));
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(1)));
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn partition_on_variable() {
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(1))); // lower
        cs.push(Constraint::le(LinExpr::var(v(0)), LinExpr::constant(9))); // upper
        cs.push(Constraint::eq(LinExpr::var(v(0)), LinExpr::var(v(1)))); // eq
        cs.push(Constraint::ge(LinExpr::var(v(2)), LinExpr::constant(0))); // rest
        let (lo, up, eqs, rest) = cs.partition_on(v(0));
        assert_eq!((lo.len(), up.len(), eqs.len(), rest.len()), (1, 1, 1, 1));
    }

    #[test]
    fn holds_checks_all_constraints() {
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(1)));
        cs.push(Constraint::le(LinExpr::var(v(0)), LinExpr::constant(5)));
        let at = |x: i64| move |var: VarId| (var == v(0)).then_some(x);
        assert_eq!(cs.holds(&at(3)), Some(true));
        assert_eq!(cs.holds(&at(0)), Some(false));
        assert_eq!(cs.holds(&at(6)), Some(false));
    }

    #[test]
    fn prune_drops_dominated_bounds() {
        let mut cs = ConstraintSystem::new();
        // x - 1 ≥ 0 (x ≥ 1) is dominated by x - 5 ≥ 0 (x ≥ 5)? No: tighter
        // means smaller constant. x - 5 ≥ 0 implies x - 1 ≥ 0, so the latter
        // is redundant.
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(1)));
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(5)));
        cs.prune();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.constraints()[0].expr.constant_term(), -5);
    }

    #[test]
    fn lcm_helper() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 3), 0);
        assert_eq!(lcm(-4, 6), 12);
    }

    #[test]
    fn render_system() {
        let mut cs = ConstraintSystem::new();
        cs.push(Constraint::ge(LinExpr::var(v(0)), LinExpr::constant(1)));
        let s = cs.render(&|var| format!("v{}", var.0));
        assert_eq!(s, "v0 - 1 >= 0");
    }
}
