//! The interval abstract domain `[lo, hi]` used where Fourier–Motzkin
//! gives up.
//!
//! The affine Regions machinery is exact on linear subscripts but silent on
//! everything else: `a(i*i)`, `a(idx(i))`, accumulator subscripts. This
//! domain recovers *bounded* (if approximate) regions for those accesses: a
//! per-variable lattice of integer intervals with the classic widening /
//! narrowing pair, so loop fixpoints terminate in a bounded number of steps
//! and a bounded descending pass claws back bounds widening threw away.
//!
//! `None` on a side means that side is unbounded (−∞ / +∞). Every operation
//! is an over-approximation: the result interval contains every value the
//! concrete operation can produce from values in the operands — the
//! property the proptests at the bottom pin against concrete loop
//! execution.

use crate::triplet::Bound;

/// An integer interval `[lo, hi]`; `None` means unbounded on that side.
///
/// Invariant: when both sides are finite, `lo <= hi`. The domain has no
/// bottom element — analyses that need unreachability track it outside
/// (e.g. with `Option<Interval>` per variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Greatest lower bound, `None` = −∞.
    pub lo: Option<i64>,
    /// Least upper bound, `None` = +∞.
    pub hi: Option<i64>,
}

/// Clamps an exact 128-bit result back to a bound: values outside the
/// `i64` range degrade to "unbounded" rather than silently saturating —
/// a saturated bound could exclude concrete values and break soundness.
fn clamp(v: i128) -> Option<i64> {
    i64::try_from(v).ok()
}

impl Interval {
    /// The unknown interval `(-inf, +inf)`.
    pub fn top() -> Self {
        Interval { lo: None, hi: None }
    }

    /// The singleton `[c, c]`.
    pub fn constant(c: i64) -> Self {
        Interval { lo: Some(c), hi: Some(c) }
    }

    /// `[lo, hi]`, normalized so the invariant holds.
    pub fn range(lo: i64, hi: i64) -> Self {
        Interval { lo: Some(lo.min(hi)), hi: Some(lo.max(hi)) }
    }

    /// Builds from optional bounds, normalizing an inverted finite pair.
    pub fn from_bounds(lo: Option<i64>, hi: Option<i64>) -> Self {
        match (lo, hi) {
            (Some(a), Some(b)) => Interval::range(a, b),
            _ => Interval { lo, hi },
        }
    }

    /// True when neither side is known.
    pub fn is_top(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// The single value, when `lo == hi`.
    pub fn as_const(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// True when `v` lies inside.
    pub fn contains(&self, v: i64) -> bool {
        self.lo.is_none_or(|lo| lo <= v) && self.hi.is_none_or(|hi| v <= hi)
    }

    /// True when every value of `other` lies inside `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        let lo_ok = match (self.lo, other.lo) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => a <= b,
        };
        let hi_ok = match (self.hi, other.hi) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => b <= a,
        };
        lo_ok && hi_ok
    }

    /// Least upper bound: the smallest interval containing both.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Greatest lower bound; `None` when the intersection is empty.
    pub fn meet(&self, other: &Interval) -> Option<Interval> {
        let lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match (lo, hi) {
            (Some(a), Some(b)) if a > b => None,
            _ => Some(Interval { lo, hi }),
        }
    }

    /// Classic interval widening: a side that grew jumps straight to
    /// unbounded. Each side can widen at most once, so any ascending chain
    /// `x := x.widen(&next)` stabilizes within two strict increases.
    pub fn widen(&self, next: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, next.lo) {
                (Some(a), Some(b)) if b >= a => Some(a),
                _ => None,
            },
            hi: match (self.hi, next.hi) {
                (Some(a), Some(b)) if b <= a => Some(a),
                _ => None,
            },
        }
    }

    /// Classic narrowing: recovers a bound only where `self` is unbounded,
    /// so the descending pass refines what widening lost without ever
    /// oscillating. `self ⊇ next` is preserved downward: the result still
    /// contains `next`.
    pub fn narrow(&self, next: &Interval) -> Interval {
        Interval {
            lo: if self.lo.is_none() { next.lo } else { self.lo },
            hi: if self.hi.is_none() { next.hi } else { self.hi },
        }
    }

    /// Interval sum.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => clamp(a as i128 + b as i128),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => clamp(a as i128 + b as i128),
                _ => None,
            },
        }
    }

    /// Interval difference.
    pub fn sub(&self, other: &Interval) -> Interval {
        self.add(&other.neg())
    }

    /// Interval negation.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: self.hi.and_then(|h| clamp(-(h as i128))),
            hi: self.lo.and_then(|l| clamp(-(l as i128))),
        }
    }

    /// Interval product. Exact min/max over the corner products when both
    /// operands are fully bounded; any unbounded side degrades to top
    /// (sign reasoning on half-open operands buys nothing for subscripts).
    pub fn mul(&self, other: &Interval) -> Interval {
        let (Some(al), Some(ah), Some(bl), Some(bh)) = (self.lo, self.hi, other.lo, other.hi)
        else {
            return Interval::top();
        };
        let corners = [
            al as i128 * bl as i128,
            al as i128 * bh as i128,
            ah as i128 * bl as i128,
            ah as i128 * bh as i128,
        ];
        let lo = corners.into_iter().fold(i128::MAX, i128::min);
        let hi = corners.into_iter().fold(i128::MIN, i128::max);
        Interval { lo: clamp(lo), hi: clamp(hi) }
    }

    /// Multiplication by a constant.
    pub fn scale(&self, k: i64) -> Interval {
        self.mul(&Interval::constant(k))
    }

    /// Converts to a pair of triplet bounds: finite sides become `Const`,
    /// unbounded sides stay `Messy` (the display lattice has no infinity).
    pub fn to_bounds(&self) -> (Bound, Bound) {
        let side = |b: Option<i64>| match b {
            Some(c) => Bound::Const(c),
            None => Bound::Messy,
        };
        (side(self.lo), side(self.hi))
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.lo {
            Some(l) => write!(f, "[{l}, ")?,
            None => write!(f, "(-inf, ")?,
        }
        match self.hi {
            Some(h) => write!(f, "{h}]"),
            None => write!(f, "+inf)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_queries() {
        let t = Interval::top();
        assert!(t.is_top());
        assert!(t.contains(i64::MIN) && t.contains(i64::MAX));
        let c = Interval::constant(7);
        assert_eq!(c.as_const(), Some(7));
        let r = Interval::range(9, 2);
        assert_eq!((r.lo, r.hi), (Some(2), Some(9)));
        assert!(r.contains(2) && r.contains(9) && !r.contains(10));
        assert_eq!(Interval::from_bounds(None, Some(5)).lo, None);
    }

    #[test]
    fn join_and_meet() {
        let a = Interval::range(0, 10);
        let b = Interval::range(5, 20);
        assert_eq!(a.join(&b), Interval::range(0, 20));
        assert_eq!(a.meet(&b), Some(Interval::range(5, 10)));
        let c = Interval::range(30, 40);
        assert_eq!(a.meet(&c), None);
        let half = Interval::from_bounds(Some(3), None);
        assert_eq!(a.join(&half).hi, None);
        assert_eq!(a.meet(&half), Some(Interval::range(3, 10)));
    }

    #[test]
    fn widen_jumps_to_unbounded_and_narrow_recovers() {
        let a = Interval::range(0, 10);
        let grown = Interval::range(0, 11);
        let w = a.widen(&grown);
        assert_eq!(w, Interval::from_bounds(Some(0), None));
        // Stable input: widening is the identity.
        assert_eq!(w.widen(&Interval::range(0, 99)), w);
        // Narrowing refines only the unbounded side.
        let n = w.narrow(&Interval::range(0, 42));
        assert_eq!(n, Interval::range(0, 42));
        assert_eq!(n.narrow(&Interval::range(5, 6)), n);
    }

    #[test]
    fn arithmetic() {
        let a = Interval::range(2, 3);
        let b = Interval::range(-1, 4);
        assert_eq!(a.add(&b), Interval::range(1, 7));
        assert_eq!(a.sub(&b), Interval::range(-2, 4));
        assert_eq!(a.neg(), Interval::range(-3, -2));
        assert_eq!(a.mul(&b), Interval::range(-3, 12));
        assert_eq!(b.scale(-2), Interval::range(-8, 2));
        assert!(a.add(&Interval::top()).is_top());
        assert!(a.mul(&Interval::from_bounds(Some(0), None)).is_top());
    }

    #[test]
    fn overflow_degrades_to_unbounded_not_saturation() {
        let big = Interval::constant(i64::MAX);
        let sum = big.add(&Interval::constant(1));
        assert_eq!(sum.hi, None, "overflowed bound must become +inf");
        assert_eq!(sum.lo, None);
        let prod = big.mul(&Interval::constant(2));
        assert_eq!(prod.hi, None);
    }

    #[test]
    fn to_bounds_maps_infinities_to_messy() {
        let (lb, ub) = Interval::range(1, 5).to_bounds();
        assert_eq!(lb, Bound::Const(1));
        assert_eq!(ub, Bound::Const(5));
        let (lb, ub) = Interval::from_bounds(Some(0), None).to_bounds();
        assert_eq!(lb, Bound::Const(0));
        assert_eq!(ub, Bound::Messy);
    }

    #[test]
    fn display() {
        assert_eq!(Interval::range(1, 5).to_string(), "[1, 5]");
        assert_eq!(Interval::top().to_string(), "(-inf, +inf)");
        assert_eq!(Interval::from_bounds(None, Some(3)).to_string(), "(-inf, 3]");
    }

    fn arb_interval() -> impl Strategy<Value = Interval> {
        // `tag` picks which sides are unbounded (1-in-4 each side).
        (0u8..16, -1000i64..1000, -1000i64..1000).prop_map(|(tag, a, b)| {
            let lo = if tag & 3 == 0 { None } else { Some(a) };
            let hi = if tag & 12 == 0 { None } else { Some(b) };
            match (lo, hi) {
                (Some(x), Some(y)) => Interval::range(x, y),
                (lo, hi) => Interval { lo, hi },
            }
        })
    }

    proptest! {
        /// Widening terminates within the configured bound: each side can
        /// only move once (to unbounded), so any chain of widenings changes
        /// the interval at most twice, no matter the input sequence.
        #[test]
        fn widening_terminates_within_bound(seq in proptest::collection::vec(arb_interval(), 1..40)) {
            let mut x = seq[0];
            let mut changes = 0;
            for next in &seq[1..] {
                let grown = x.join(next);
                let w = x.widen(&grown);
                if w != x {
                    changes += 1;
                }
                prop_assert!(w.contains_interval(&x), "widening must not shrink");
                prop_assert!(w.contains_interval(&grown), "widening must cover the join");
                x = w;
            }
            prop_assert!(changes <= 2, "widening changed {changes} times");
        }

        /// Join is an upper bound: any member of either operand is a member
        /// of the join.
        #[test]
        fn join_is_sound(a in arb_interval(), b in arb_interval(), v in -2000i64..2000) {
            if a.contains(v) || b.contains(v) {
                prop_assert!(a.join(&b).contains(v));
            }
        }

        /// Meet soundness both ways: a member of both operands is a member
        /// of the meet; an empty meet means no common member exists.
        #[test]
        fn meet_is_sound(a in arb_interval(), b in arb_interval(), v in -2000i64..2000) {
            match a.meet(&b) {
                Some(m) => {
                    if a.contains(v) && b.contains(v) {
                        prop_assert!(m.contains(v));
                    }
                }
                None => prop_assert!(!(a.contains(v) && b.contains(v))),
            }
        }

        /// Abstract arithmetic over-approximates concrete arithmetic.
        #[test]
        fn arithmetic_is_sound(
            a in arb_interval(),
            b in arb_interval(),
            x in -1000i64..1000,
            y in -1000i64..1000,
        ) {
            if !a.contains(x) || !b.contains(y) {
                return;
            }
            prop_assert!(a.add(&b).contains(x + y));
            prop_assert!(a.sub(&b).contains(x - y));
            prop_assert!(a.neg().contains(-x));
            prop_assert!(a.mul(&b).contains(x * y));
        }

        /// Narrowing never loses members of the refining operand.
        #[test]
        fn narrow_keeps_refinement_members(a in arb_interval(), b in arb_interval(), v in -2000i64..2000) {
            if b.contains(v) {
                prop_assert!(a.narrow(&b).contains(v) || !a.contains(v));
            }
        }

        /// The widening/narrowing fixpoint loop — run exactly the way the
        /// abstract interpreter runs it — covers concrete execution of a
        /// random small counted loop `k = k0; do trips times { use k; k = k
        /// + delta }`, including a conditional increment (`taken` decides
        /// per iteration whether the add executes).
        #[test]
        fn loop_fixpoint_covers_concrete_execution(
            k0 in -50i64..50,
            delta in -7i64..7,
            trips in 1usize..40,
            taken in proptest::collection::vec((0u8..2).prop_map(|b| b == 1), 40..41),
        ) {
            // Concrete: every value k holds at the loop head.
            let mut k = k0;
            let mut seen = vec![k];
            for t in 0..trips {
                if taken[t] {
                    k += delta;
                }
                seen.push(k);
            }
            // Abstract: ascending iteration with widening after a short
            // delay, then one bounded narrowing pass. The body transfer is
            // `join(k, k + [min(0,delta), max(0,delta)])` — the conditional
            // add's abstraction.
            let step = Interval::range(0.min(delta), 0.max(delta));
            let body = |k: &Interval| k.join(&k.add(&step));
            let mut abs = Interval::constant(k0);
            for round in 0..64 {
                let next = body(&abs);
                if next == abs {
                    break;
                }
                abs = if round < 2 { next } else { abs.widen(&next) };
            }
            prop_assert_eq!(body(&abs).join(&abs), abs, "must reach a post-fixpoint");
            let narrowed = abs.narrow(&body(&abs));
            for &v in &seen {
                prop_assert!(abs.contains(v), "{} missing from {}", v, abs);
                prop_assert!(narrowed.contains(v), "{} missing after narrowing", v);
            }
        }
    }
}
