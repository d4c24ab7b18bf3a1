//! Model test for [`LinExpr`]: random sequences of `add_term`, `add`,
//! `sub`, `add_scaled`, `scale` and `substitute` over a few variables,
//! each step checked against a reference that stores the coefficients in
//! a `BTreeMap` (the representation `LinExpr` had before it became one
//! sorted vector). After every step the two agree on the terms, constant,
//! gcd, the one-variable views, the rendering, the persisted bytes, and
//! on `Constraint::normalized` for both relations.

use proptest::prelude::*;
use regions::constraint::{Constraint, Rel};
use regions::linexpr::{gcd, LinExpr};
use regions::space::VarId;
use std::collections::BTreeMap;
use support::persist::{ByteWriter, Persist};

/// The reference: constant plus a sparse map with no zero entries.
#[derive(Debug, Clone, Default, PartialEq)]
struct Reference {
    constant: i64,
    coeffs: BTreeMap<VarId, i64>,
}

impl Reference {
    fn add_term(&mut self, v: VarId, delta: i64) {
        let entry = self.coeffs.entry(v).or_insert(0);
        *entry += delta;
        if *entry == 0 {
            self.coeffs.remove(&v);
        }
    }

    fn add(&self, other: &Reference) -> Reference {
        let mut out = self.clone();
        out.constant += other.constant;
        for (&v, &c) in &other.coeffs {
            out.add_term(v, c);
        }
        out
    }

    fn sub(&self, other: &Reference) -> Reference {
        self.add(&other.scale(-1))
    }

    fn scale(&self, k: i64) -> Reference {
        if k == 0 {
            return Reference::default();
        }
        Reference {
            constant: self.constant * k,
            coeffs: self.coeffs.iter().map(|(&v, &c)| (v, c * k)).collect(),
        }
    }

    fn substitute(&self, v: VarId, repl: &Reference) -> Reference {
        let c = self.coeffs.get(&v).copied().unwrap_or(0);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.coeffs.remove(&v);
        out.add(&repl.scale(c))
    }

    fn coeff_gcd(&self) -> i64 {
        self.coeffs.values().fold(0, |g, &c| gcd(g, c.abs()))
    }

    fn as_single_var(&self) -> Option<VarId> {
        if self.constant != 0 {
            return None;
        }
        match self.coeffs.iter().next() {
            Some((&v, &c)) if self.coeffs.len() == 1 && c == 1 => Some(v),
            _ => None,
        }
    }

    fn as_affine_in_one_var(&self) -> Option<(VarId, i64, i64)> {
        match self.coeffs.iter().next() {
            Some((&v, &a)) if self.coeffs.len() == 1 => Some((v, a, self.constant)),
            _ => None,
        }
    }

    fn render_default(&self) -> String {
        let name = |v: VarId| format!("v{}", v.0);
        let mut out = String::new();
        for (&v, &c) in &self.coeffs {
            if out.is_empty() {
                if c == 1 {
                    out.push_str(&name(v));
                } else if c == -1 {
                    out.push('-');
                    out.push_str(&name(v));
                } else {
                    out.push_str(&format!("{c}*{}", name(v)));
                }
            } else if c > 0 {
                if c == 1 {
                    out.push_str(&format!(" + {}", name(v)));
                } else {
                    out.push_str(&format!(" + {c}*{}", name(v)));
                }
            } else if c == -1 {
                out.push_str(&format!(" - {}", name(v)));
            } else {
                out.push_str(&format!(" - {}*{}", -c, name(v)));
            }
        }
        if out.is_empty() {
            return self.constant.to_string();
        }
        match self.constant.cmp(&0) {
            std::cmp::Ordering::Greater => out.push_str(&format!(" + {}", self.constant)),
            std::cmp::Ordering::Less => out.push_str(&format!(" - {}", -self.constant)),
            std::cmp::Ordering::Equal => {}
        }
        out
    }

    fn persisted(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.i64(self.constant);
        w.usize(self.coeffs.len());
        for (&v, &c) in &self.coeffs {
            w.u32(v.0);
            w.i64(c);
        }
        w.into_bytes()
    }

    /// `Constraint::normalized` as it reads over the map.
    fn normalized(&self, rel: Rel) -> Reference {
        let g = self.coeff_gcd();
        if g <= 1 || (rel == Rel::Eq && self.constant % g != 0) {
            return self.clone();
        }
        let constant =
            if rel == Rel::Ge { self.constant.div_euclid(g) } else { self.constant / g };
        let mut out = Reference { constant, coeffs: BTreeMap::new() };
        for (&v, &k) in &self.coeffs {
            out.add_term(v, k / g);
        }
        out
    }

    /// Keeps the operands small enough that no step can overflow.
    fn is_small(&self) -> bool {
        const LIMIT: i64 = 1_000_000;
        self.constant.abs() <= LIMIT && self.coeffs.values().all(|c| c.abs() <= LIMIT)
    }
}

fn persisted(e: &LinExpr) -> Vec<u8> {
    let mut w = ByteWriter::new();
    e.save(&mut w);
    w.into_bytes()
}

fn assert_agree(step: usize, got: &LinExpr, want: &Reference) {
    let want_terms: Vec<(VarId, i64)> = want.coeffs.iter().map(|(&v, &c)| (v, c)).collect();
    let got_terms: Vec<(VarId, i64)> = got.terms().collect();
    assert_eq!(&got_terms, &want_terms, "step {}: terms", step);
    assert_eq!(got.constant_term(), want.constant, "step {}: constant", step);
    assert_eq!(got.coeff_gcd(), want.coeff_gcd(), "step {}: gcd", step);
    assert_eq!(got.as_single_var(), want.as_single_var(), "step {}", step);
    assert_eq!(got.as_affine_in_one_var(), want.as_affine_in_one_var(), "step {}", step);
    assert_eq!(got.render_default(), want.render_default(), "step {}: render", step);
    assert_eq!(persisted(got), want.persisted(), "step {}: persisted bytes", step);
    for v in 0..VARS {
        let v = VarId(v);
        assert_eq!(got.coeff(v), want.coeffs.get(&v).copied().unwrap_or(0));
        assert_eq!(got.mentions(v), want.coeffs.contains_key(&v));
    }
    for rel in [Rel::Ge, Rel::Eq] {
        let norm = Constraint { expr: got.clone(), rel }.normalized().expr;
        let want_norm = want.normalized(rel);
        let want_norm_terms: Vec<(VarId, i64)> =
            want_norm.coeffs.iter().map(|(&v, &c)| (v, c)).collect();
        assert_eq!(norm.terms().collect::<Vec<_>>(), want_norm_terms, "step {}", step);
        assert_eq!(norm.constant_term(), want_norm.constant, "step {}: {:?}", step, rel);
    }
}

/// Variables the sequences range over.
const VARS: u32 = 8;
/// Expressions each sequence juggles; operations read one and write one.
const POOL: usize = 4;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// `(operation, variable, coefficient, destination, source)`.
type Op = (u8, u32, i64, usize, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..7, 0..VARS, -4i64..=4, 0..POOL, 0..POOL), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every step of a random sequence agrees with the reference.
    #[test]
    fn linexpr_matches_the_btreemap_reference(ops in ops()) {
        let mut pool: Vec<LinExpr> = vec![LinExpr::zero(); POOL];
        let mut model: Vec<Reference> = vec![Reference::default(); POOL];
        for (step, (op, v, k, dst, src)) in ops.into_iter().enumerate() {
            let v = VarId(v);
            let (got, want) = match op {
                0 => {
                    let mut e = pool[dst].clone();
                    e.add_term(v, k);
                    let mut r = model[dst].clone();
                    r.add_term(v, k);
                    (e, r)
                }
                // Cancels `v` exactly: the entry must disappear.
                1 => {
                    let c = pool[dst].coeff(v);
                    let mut e = pool[dst].clone();
                    e.add_term(v, -c);
                    e.add_constant(k);
                    let mut r = model[dst].clone();
                    r.add_term(v, -c);
                    r.constant += k;
                    (e, r)
                }
                2 => (pool[dst].add(&pool[src]), model[dst].add(&model[src])),
                // With `dst == src` this cancels everything.
                3 => (pool[dst].sub(&pool[src]), model[dst].sub(&model[src])),
                4 => (pool[dst].scale(k), model[dst].scale(k)),
                5 => (
                    pool[dst].substitute(v, &pool[src]),
                    model[dst].substitute(v, &model[src]),
                ),
                _ => (
                    pool[dst].add_scaled(&pool[src], k),
                    model[dst].add(&model[src].scale(k)),
                ),
            };
            assert_agree(step, &got, &want);
            if want.is_small() {
                pool[dst] = got;
                model[dst] = want;
            } else {
                pool[dst] = LinExpr::constant(k);
                model[dst] = Reference { constant: k, coeffs: BTreeMap::new() };
            }
        }
    }
}

/// Fixed cases the random sequences may miss: cancellation to zero,
/// negative coefficients, a substitution that re-introduces its variable.
#[test]
fn edge_cases_match_the_reference() {
    let (x, y, z) = (VarId(0), VarId(1), VarId(7));
    let mut e = LinExpr::term(y, -3);
    e.add_term(x, 2);
    e.add_term(z, -1);
    e.add_constant(-5);
    let mut r = Reference::default();
    r.add_term(y, -3);
    r.add_term(x, 2);
    r.add_term(z, -1);
    r.constant = -5;
    assert_agree(0, &e, &r);
    assert_agree(1, &e.sub(&e), &r.sub(&r));
    // x := x + y - 1 keeps x in the result.
    let mut repl = LinExpr::var(x);
    repl.add_term(y, 1);
    repl.add_constant(-1);
    let mut rrepl = Reference::default();
    rrepl.add_term(x, 1);
    rrepl.add_term(y, 1);
    rrepl.constant = -1;
    assert_agree(2, &e.substitute(x, &repl), &r.substitute(x, &rrepl));
    assert_agree(3, &e.scale(-2), &r.scale(-2));
    assert_agree(4, &e.scale(0), &r.scale(0));
    assert_agree(5, &e.add_scaled(&repl, 3), &r.add(&rrepl.scale(3)));
}
