//! Linear (affine) expressions `c₀ + Σ cᵢ·vᵢ` over a [`Space`](crate::Space).
//!
//! Subscript expressions, loop bounds, and region constraints are all affine
//! in practice for the programs the paper analyzes; anything non-affine is
//! classified `MESSY` upstream and never reaches this module. Coefficients
//! are `i64`: debug builds trap on overflow, release builds wrap.
//!
//! An expression keeps its coefficients in one vector, sorted by variable
//! with no zero entries. Every region of a cold analysis is built from
//! these, so `add`, `sub` and `substitute` are single merge passes that
//! allocate only their result, and iteration order — ascending by
//! variable — is the order rendered and persisted.

use crate::space::VarId;
use std::cmp::Ordering;
use std::fmt::Write as _;
use support::idx::Idx;

/// An affine expression: constant term plus sparse coefficients.
/// Zero coefficients are never stored, so `==` is a semantic equality test.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    constant: i64,
    /// Nonzero coefficients, strictly ascending by variable.
    coeffs: Vec<(VarId, i64)>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        LinExpr { constant: c, coeffs: Vec::new() }
    }

    /// The expression `1·v`.
    pub fn var(v: VarId) -> Self {
        Self::term(v, 1)
    }

    /// The expression `coeff·v`.
    pub fn term(v: VarId, coeff: i64) -> Self {
        let coeffs = if coeff != 0 { vec![(v, coeff)] } else { Vec::new() };
        LinExpr { constant: 0, coeffs }
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    fn position(&self, v: VarId) -> Result<usize, usize> {
        self.coeffs.binary_search_by_key(&v, |&(u, _)| u)
    }

    /// The coefficient of `v` (0 when absent).
    pub fn coeff(&self, v: VarId) -> i64 {
        self.position(v).map_or(0, |i| self.coeffs[i].1)
    }

    /// True when the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// `Some(c)` when the expression is the constant `c`.
    pub fn as_constant(&self) -> Option<i64> {
        self.is_constant().then_some(self.constant)
    }

    /// True when the expression is exactly `1·v + 0`.
    pub fn as_single_var(&self) -> Option<VarId> {
        match self.coeffs[..] {
            [(v, 1)] if self.constant == 0 => Some(v),
            _ => None,
        }
    }

    /// `Some((v, a, b))` when the expression is `a·v + b` with `a ≠ 0`.
    pub fn as_affine_in_one_var(&self) -> Option<(VarId, i64, i64)> {
        match self.coeffs[..] {
            [(v, a)] => Some((v, a, self.constant)),
            _ => None,
        }
    }

    /// Variables with nonzero coefficients, ascending.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.coeffs.iter().map(|&(v, _)| v)
    }

    /// `(var, coeff)` pairs with nonzero coefficients, ascending by var.
    pub fn terms(&self) -> impl ExactSizeIterator<Item = (VarId, i64)> + '_ {
        self.coeffs.iter().copied()
    }

    /// True when `v` occurs with a nonzero coefficient.
    pub fn mentions(&self, v: VarId) -> bool {
        self.position(v).is_ok()
    }

    /// Adds `delta` to the coefficient of `v`, dropping it if it cancels.
    pub fn add_term(&mut self, v: VarId, delta: i64) {
        match self.position(v) {
            Ok(i) => {
                self.coeffs[i].1 += delta;
                if self.coeffs[i].1 == 0 {
                    self.coeffs.remove(i);
                }
            }
            Err(i) if delta != 0 => self.coeffs.insert(i, (v, delta)),
            Err(_) => {}
        }
    }

    /// Adds `delta` to the constant term.
    pub fn add_constant(&mut self, delta: i64) {
        self.constant += delta;
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, 1)
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add_scaled(other, -1)
    }

    /// Returns `self + k·other` in one merge pass.
    pub fn add_scaled(&self, other: &LinExpr, k: i64) -> LinExpr {
        if k == 0 {
            return self.clone();
        }
        let mut out = LinExpr::constant(self.constant + other.constant * k);
        merge_terms(&self.coeffs, None, &other.coeffs, k, &mut out.coeffs);
        out
    }

    /// Returns `k·self`.
    pub fn scale(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        LinExpr {
            constant: self.constant * k,
            coeffs: self
                .coeffs
                .iter()
                .map(|&(v, c)| (v, c * k))
                .filter(|&(_, c)| c != 0)
                .collect(),
        }
    }

    /// Returns `self` with every occurrence of `v` replaced by `repl`.
    pub fn substitute(&self, v: VarId, repl: &LinExpr) -> LinExpr {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let mut out = LinExpr::constant(self.constant + repl.constant * c);
        merge_terms(&self.coeffs, Some(v), &repl.coeffs, c, &mut out.coeffs);
        out
    }

    /// Divides every coefficient by `g`, which must divide them all, and
    /// replaces the constant term with `constant`.
    pub(crate) fn divide_coeffs(&mut self, g: i64, constant: i64) {
        self.constant = constant;
        for (_, c) in &mut self.coeffs {
            *c /= g;
        }
    }

    /// Evaluates under an assignment; `None` if a variable is unassigned.
    pub fn eval(&self, assign: &dyn Fn(VarId) -> Option<i64>) -> Option<i64> {
        let mut total = self.constant;
        for &(v, c) in &self.coeffs {
            total += c * assign(v)?;
        }
        Some(total)
    }

    /// Greatest common divisor of all variable coefficients (0 for constants).
    pub fn coeff_gcd(&self) -> i64 {
        self.coeffs.iter().fold(0i64, |g, &(_, c)| gcd(g, c.abs()))
    }

    /// Renders against a name resolver, e.g. `2*i + j - 3`.
    pub fn render(&self, name: &dyn Fn(VarId) -> String) -> String {
        let mut out = String::new();
        for &(v, c) in &self.coeffs {
            if out.is_empty() {
                match c {
                    1 => {}
                    -1 => out.push('-'),
                    _ => {
                        let _ = write!(out, "{c}*");
                    }
                }
            } else if c > 0 {
                out.push_str(" + ");
                if c != 1 {
                    let _ = write!(out, "{c}*");
                }
            } else {
                out.push_str(" - ");
                if c != -1 {
                    let _ = write!(out, "{}*", -c);
                }
            }
            out.push_str(&name(v));
        }
        if out.is_empty() {
            return self.constant.to_string();
        }
        match self.constant.cmp(&0) {
            Ordering::Greater => {
                let _ = write!(out, " + {}", self.constant);
            }
            Ordering::Less => {
                let _ = write!(out, " - {}", -self.constant);
            }
            Ordering::Equal => {}
        }
        out
    }

    /// Renders with `v0, v1, …` variable names (debugging helper).
    pub fn render_default(&self) -> String {
        self.render(&|v: VarId| format!("v{}", v.as_usize()))
    }
}

/// Appends to `out` the merge `a + k·b` of two coefficient lists sorted
/// strictly ascending by key, leaving out `a`'s term for `skip` and every
/// sum that cancels to zero. The result is sorted the same way.
pub fn merge_terms<K: Ord + Copy>(
    a: &[(K, i64)],
    skip: Option<K>,
    b: &[(K, i64)],
    k: i64,
    out: &mut Vec<(K, i64)>,
) {
    out.reserve(a.len() + b.len());
    let own = |v: K, c: i64| if Some(v) == skip { 0 } else { c };
    let (mut i, mut j) = (0, 0);
    loop {
        let (v, c) = match (a.get(i), b.get(j)) {
            (Some(&(va, ca)), Some(&(vb, cb))) => match va.cmp(&vb) {
                Ordering::Less => {
                    i += 1;
                    (va, own(va, ca))
                }
                Ordering::Greater => {
                    j += 1;
                    (vb, cb * k)
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (va, own(va, ca) + cb * k)
                }
            },
            (Some(&(va, ca)), None) => {
                i += 1;
                (va, own(va, ca))
            }
            (None, Some(&(vb, cb))) => {
                j += 1;
                (vb, cb * k)
            }
            (None, None) => return,
        };
        if c != 0 {
            out.push((v, c));
        }
    }
}

/// Euclid's gcd on non-negative inputs; `gcd(0, x) = x`.
pub fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn constructors_and_accessors() {
        let e = LinExpr::term(v(0), 3);
        assert_eq!(e.coeff(v(0)), 3);
        assert_eq!(e.coeff(v(1)), 0);
        assert_eq!(e.constant_term(), 0);
        assert!(LinExpr::constant(5).is_constant());
        assert_eq!(LinExpr::constant(5).as_constant(), Some(5));
        assert_eq!(LinExpr::var(v(2)).as_single_var(), Some(v(2)));
    }

    #[test]
    fn zero_coefficients_are_normalized_away() {
        let mut e = LinExpr::term(v(0), 3);
        e.add_term(v(0), -3);
        assert_eq!(e, LinExpr::zero());
        assert_eq!(LinExpr::term(v(1), 0), LinExpr::zero());
    }

    #[test]
    fn add_sub_scale() {
        let a = LinExpr::term(v(0), 2).add(&LinExpr::constant(1)); // 2x + 1
        let b = LinExpr::var(v(1)).add(&LinExpr::constant(4)); // y + 4
        let sum = a.add(&b);
        assert_eq!(sum.coeff(v(0)), 2);
        assert_eq!(sum.coeff(v(1)), 1);
        assert_eq!(sum.constant_term(), 5);
        let diff = sum.sub(&b);
        assert_eq!(diff, a);
        let scaled = a.scale(-3);
        assert_eq!(scaled.coeff(v(0)), -6);
        assert_eq!(scaled.constant_term(), -3);
        assert_eq!(a.scale(0), LinExpr::zero());
    }

    #[test]
    fn substitute_replaces_variable() {
        // e = 2x + y + 1; x := 3z - 2  →  6z + y - 3
        let e = LinExpr::term(v(0), 2)
            .add(&LinExpr::var(v(1)))
            .add(&LinExpr::constant(1));
        let repl = LinExpr::term(v(2), 3).add(&LinExpr::constant(-2));
        let out = e.substitute(v(0), &repl);
        assert_eq!(out.coeff(v(0)), 0);
        assert_eq!(out.coeff(v(1)), 1);
        assert_eq!(out.coeff(v(2)), 6);
        assert_eq!(out.constant_term(), -3);
    }

    #[test]
    fn eval_under_assignment() {
        let e = LinExpr::term(v(0), 2).add(&LinExpr::constant(1));
        assert_eq!(e.eval(&|var| (var == v(0)).then_some(10)), Some(21));
        assert_eq!(e.eval(&|_| None), None);
        assert_eq!(LinExpr::constant(9).eval(&|_| None), Some(9));
    }

    #[test]
    fn affine_in_one_var() {
        let e = LinExpr::term(v(3), -2).add(&LinExpr::constant(7));
        assert_eq!(e.as_affine_in_one_var(), Some((v(3), -2, 7)));
        assert!(LinExpr::constant(7).as_affine_in_one_var().is_none());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(-12, 18), 6);
        let e = LinExpr::term(v(0), 4).add(&LinExpr::term(v(1), 6));
        assert_eq!(e.coeff_gcd(), 2);
    }

    #[test]
    fn render_is_human_readable() {
        let e = LinExpr::term(v(0), 2)
            .add(&LinExpr::term(v(1), -1))
            .add(&LinExpr::constant(-3));
        assert_eq!(e.render_default(), "2*v0 - v1 - 3");
        assert_eq!(LinExpr::zero().render_default(), "0");
        assert_eq!(LinExpr::var(v(1)).render_default(), "v1");
        let neg = LinExpr::term(v(0), -1);
        assert_eq!(neg.render_default(), "-v0");
    }
}
