//! Property tests for the region machinery: Fourier–Motzkin soundness,
//! triplet algebra laws, and convex-region lattice properties.

use proptest::prelude::*;
use regions::constraint::{Constraint, ConstraintSystem};
use regions::convex::box_region;
use regions::fourier_motzkin::{bounds_of, eliminate, is_satisfiable, FmStats};
use regions::linexpr::LinExpr;
use regions::space::VarId;
use regions::triplet::{Triplet, TripletRegion};

// ---------------------------------------------------------------- triplets

fn triplet_strategy() -> impl Strategy<Value = Triplet> {
    (-50i64..50, 0i64..60, 1i64..6)
        .prop_map(|(lb, span, stride)| Triplet::constant(lb, lb + span, stride))
}

proptest! {
    /// The normalized triplet's ub is the last element actually hit.
    #[test]
    fn triplet_ub_is_attained(t in triplet_strategy()) {
        let (lb, ub, stride) = t.as_const().unwrap();
        prop_assert_eq!((ub - lb) % stride, 0);
        prop_assert_eq!(t.contains(ub), Some(true));
        prop_assert_eq!(t.contains(lb), Some(true));
    }

    /// count() equals the number of iterated elements.
    #[test]
    fn triplet_count_matches_iteration(t in triplet_strategy()) {
        let n = t.iter().unwrap().count() as u64;
        prop_assert_eq!(t.count(), Some(n));
    }

    /// contains() agrees with explicit enumeration.
    #[test]
    fn triplet_contains_agrees_with_iter(t in triplet_strategy(), probe in -60i64..120) {
        let by_iter = t.iter().unwrap().any(|i| i == probe);
        prop_assert_eq!(t.contains(probe), Some(by_iter));
    }

    /// Hull contains every element of both operands.
    #[test]
    fn hull_is_an_upper_bound(a in triplet_strategy(), b in triplet_strategy()) {
        let h = a.hull(&b);
        for i in a.iter().unwrap().chain(b.iter().unwrap()) {
            prop_assert_eq!(h.contains(i), Some(true), "{} not in hull {}", i, h);
        }
    }

    /// Hull is commutative.
    #[test]
    fn hull_commutes(a in triplet_strategy(), b in triplet_strategy()) {
        prop_assert_eq!(a.hull(&b), b.hull(&a));
    }

    /// disjoint_from is symmetric and agrees with set intersection.
    #[test]
    fn disjoint_matches_set_semantics(a in triplet_strategy(), b in triplet_strategy()) {
        let d1 = a.disjoint_from(&b).unwrap();
        let d2 = b.disjoint_from(&a).unwrap();
        prop_assert_eq!(d1, d2);
        let sa: std::collections::BTreeSet<i64> = a.iter().unwrap().collect();
        let really_disjoint = !b.iter().unwrap().any(|i| sa.contains(&i));
        prop_assert_eq!(d1, really_disjoint);
    }
}

// ------------------------------------------------------------- 2-D regions

fn region2_strategy() -> impl Strategy<Value = TripletRegion> {
    (triplet_strategy(), triplet_strategy())
        .prop_map(|(a, b)| TripletRegion::new(vec![a, b]))
}

proptest! {
    /// Region disjointness is sound: if reported disjoint, no shared point.
    #[test]
    fn region_disjointness_sound(a in region2_strategy(), b in region2_strategy()) {
        if a.disjoint_from(&b) == Some(true) {
            // Sample the smaller region's points and check none is in b.
            let pts_a: Vec<Vec<i64>> = {
                let mut v = Vec::new();
                regions::methods::enumerate_region(&a, &mut |p| v.push(p.to_vec()));
                v
            };
            for p in pts_a.iter().take(500) {
                prop_assert_ne!(b.contains(p), Some(true), "shared point {:?}", p);
            }
        }
    }

    /// element_count multiplies per-dimension counts.
    #[test]
    fn region_count_is_product(r in region2_strategy()) {
        let expect = r.dims[0].count().unwrap() * r.dims[1].count().unwrap();
        prop_assert_eq!(r.element_count(), Some(expect));
    }

    /// The hull of a region with itself is itself.
    #[test]
    fn hull_idempotent(r in region2_strategy()) {
        prop_assert_eq!(r.hull(&r), r);
    }
}

// --------------------------------------------------------- Fourier–Motzkin

/// A random small constraint system over 3 variables with a guaranteed box,
/// so satisfiability is decidable by brute force over the box.
fn small_system() -> impl Strategy<Value = (ConstraintSystem, i64)> {
    let coeffs = proptest::collection::vec((-3i64..=3, -3i64..=3, -3i64..=3, -10i64..=10), 0..5);
    (coeffs, 3i64..8).prop_map(|(rows, box_hi)| {
        let mut cs = ConstraintSystem::new();
        for v in 0..3u32 {
            cs.push(Constraint::ge(LinExpr::var(VarId(v)), LinExpr::constant(0)));
            cs.push(Constraint::le(LinExpr::var(VarId(v)), LinExpr::constant(box_hi)));
        }
        for (a, b, c, k) in rows {
            let mut e = LinExpr::constant(k);
            e.add_term(VarId(0), a);
            e.add_term(VarId(1), b);
            e.add_term(VarId(2), c);
            cs.push(Constraint::ge0(e));
        }
        (cs, box_hi)
    })
}

fn brute_force_solutions(cs: &ConstraintSystem, hi: i64) -> Vec<[i64; 3]> {
    let mut out = Vec::new();
    for x in 0..=hi {
        for y in 0..=hi {
            for z in 0..=hi {
                let assign = |v: VarId| -> Option<i64> {
                    Some(match v.0 {
                        0 => x,
                        1 => y,
                        _ => z,
                    })
                };
                if cs.holds(&assign) == Some(true) {
                    out.push([x, y, z]);
                }
            }
        }
    }
    out
}

/// FM cases per property: 64 unless `PROPTEST_CASES` asks for more (CI).
fn fm_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fm_cases()))]

    /// FM elimination is an over-approximation: every integer solution of
    /// the original system satisfies the projected system.
    #[test]
    fn fm_projection_is_sound((cs, hi) in small_system()) {
        let sols = brute_force_solutions(&cs, hi);
        let mut stats = FmStats::default();
        if let regions::fourier_motzkin::Projection::Feasible(projected) =
            eliminate(&cs, VarId(2), &mut stats)
        {
            for s in &sols {
                let assign = |v: VarId| -> Option<i64> {
                    Some(match v.0 {
                        0 => s[0],
                        1 => s[1],
                        _ => s[2],
                    })
                };
                prop_assert_eq!(
                    projected.holds(&assign), Some(true),
                    "solution {:?} lost by projection", s
                );
            }
        } else {
            // Projection proved emptiness: there must be no solutions.
            prop_assert!(sols.is_empty(), "Empty projection but solutions exist");
        }
    }

    /// If brute force finds a solution, is_satisfiable must agree (it may
    /// also report rational-only solutions, so only this direction holds).
    #[test]
    fn satisfiability_never_misses_solutions((cs, hi) in small_system()) {
        if !brute_force_solutions(&cs, hi).is_empty() {
            prop_assert!(is_satisfiable(&cs));
        }
    }

    /// bounds_of returns bounds that every solution respects, and that are
    /// attained in the rational relaxation (lower ≤ min, max ≤ upper).
    #[test]
    fn bounds_of_is_sound((cs, hi) in small_system()) {
        let sols = brute_force_solutions(&cs, hi);
        if let Some((lo, up)) = bounds_of(&cs, VarId(0)) {
            for s in &sols {
                if let Some(lo) = lo {
                    prop_assert!(s[0] >= lo, "{:?} below reported lower {}", s, lo);
                }
                if let Some(up) = up {
                    prop_assert!(s[0] <= up, "{:?} above reported upper {}", s, up);
                }
            }
        } else {
            prop_assert!(sols.is_empty(), "bounds_of reported empty but solutions exist");
        }
    }
}

// ------------------------------------------------------------------ convex

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Boxes: containment, intersection and union respect set semantics.
    #[test]
    fn convex_box_laws(
        a_lo in -10i64..10, a_span in 0i64..15,
        b_lo in -10i64..10, b_span in 0i64..15,
        probe in -20i64..30,
    ) {
        let a = box_region(&[(a_lo, a_lo + a_span)]);
        let b = box_region(&[(b_lo, b_lo + b_span)]);
        let in_a = probe >= a_lo && probe <= a_lo + a_span;
        let in_b = probe >= b_lo && probe <= b_lo + b_span;

        prop_assert_eq!(a.may_contain_point(&[probe]), in_a);
        prop_assert_eq!(a.intersect(&b).may_contain_point(&[probe]), in_a && in_b);
        // Union over-approximates: contains everything either side had.
        if in_a || in_b {
            prop_assert!(a.union_hull(&b).may_contain_point(&[probe]));
        }
        // Disjointness is exact for boxes.
        let really_disjoint = a_lo + a_span < b_lo || b_lo + b_span < a_lo;
        prop_assert_eq!(a.disjoint_from(&b), really_disjoint);
    }

    /// contains_region is a partial order consistent with interval inclusion.
    #[test]
    fn convex_containment(
        lo in -5i64..5, span in 0i64..10, shrink in 0i64..5,
    ) {
        let big = box_region(&[(lo, lo + span)]);
        let small_hi = (lo + span - shrink).max(lo);
        let small = box_region(&[(lo, small_hi)]);
        prop_assert!(big.contains_region(&small));
        if small_hi < lo + span {
            prop_assert!(!small.contains_region(&big));
        }
    }
}

proptest! {
    /// Intersection agrees with explicit set intersection, including the
    /// stride/phase arithmetic.
    #[test]
    fn intersection_matches_set_semantics(a in triplet_strategy(), b in triplet_strategy()) {
        let sa: std::collections::BTreeSet<i64> = a.iter().unwrap().collect();
        let sb: std::collections::BTreeSet<i64> = b.iter().unwrap().collect();
        let expected: Vec<i64> = sa.intersection(&sb).copied().collect();
        match a.intersect(&b).unwrap() {
            None => prop_assert!(expected.is_empty(), "claimed empty, set has {expected:?}"),
            Some(t) => {
                let got: Vec<i64> = t.iter().unwrap().collect();
                prop_assert_eq!(got, expected);
            }
        }
    }

    /// Intersection is commutative.
    #[test]
    fn intersection_commutes(a in triplet_strategy(), b in triplet_strategy()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    /// A triplet intersected with itself is itself.
    #[test]
    fn intersection_idempotent(a in triplet_strategy()) {
        prop_assert_eq!(a.intersect(&a).unwrap(), Some(a));
    }
}
