//! Convex regions: the linear-constraint-based Regions method.
//!
//! "Linear-constraint-based methods group array elements into a region using
//! linear constraints determined by the subscripts of arrays ... It expresses
//! the set of array accesses as a convex region in a geometrical space."
//! A [`ConvexRegion`] pairs a variable [`Space`] (dimension variables plus
//! loop/symbolic variables) with a [`ConstraintSystem`]; loop variables are
//! eliminated by Fourier–Motzkin projection, and the two documented drawbacks
//! are faithfully present: comparison needs the FM solver (worst-case
//! exponential) and union is approximated because the exact union of two
//! convex sets is generally not convex.

use crate::constraint::{Constraint, ConstraintSystem, Rel};
use crate::fourier_motzkin::{self, FmStats, Projection};
use crate::linexpr::LinExpr;
use crate::space::{Space, VarId};
use crate::triplet::{Bound, Triplet, TripletRegion};

/// A convex polyhedral region over a typed variable space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvexRegion {
    space: Space,
    system: ConstraintSystem,
}

impl ConvexRegion {
    /// The universe region over `space` (no constraints).
    pub fn universe(space: Space) -> Self {
        ConvexRegion { space, system: ConstraintSystem::new() }
    }

    /// Builds from parts.
    pub fn new(space: Space, system: ConstraintSystem) -> Self {
        ConvexRegion { space, system }
    }

    /// The variable space.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The constraint system.
    pub fn system(&self) -> &ConstraintSystem {
        &self.system
    }

    /// True when the region provably contains no rational point.
    pub fn is_empty(&self) -> bool {
        !fourier_motzkin::is_satisfiable(&self.system)
    }

    /// Eliminates every loop variable, leaving a region over dimension and
    /// symbolic variables only — the "projection" step of the Regions method.
    pub fn project_loops(&self, stats: &mut FmStats) -> ConvexRegion {
        let system = project_loops_of(&self.space, &self.system, stats);
        ConvexRegion { space: self.space.clone(), system }
    }

    /// Intersection: concatenate constraint systems (exact for convex sets).
    pub fn intersect(&self, other: &ConvexRegion) -> ConvexRegion {
        let mut system = self.system.clone();
        system.extend_from(&other.system);
        ConvexRegion { space: self.space.clone(), system }
    }

    /// True when the two regions have no common point — the side-effect
    /// independence test behind Fig. 1's "both procedures can concurrently
    /// and safely be parallelized".
    pub fn disjoint_from(&self, other: &ConvexRegion) -> bool {
        self.intersect(other).is_empty()
    }

    /// True when `self ⊆ other`, decided constraint-by-constraint: `self` is
    /// inside `other` iff for every constraint `e ≥ 0` of `other`,
    /// `self ∧ (e ≤ -1)` is unsatisfiable (integer negation).
    pub fn contains_region(&self, other: &ConvexRegion) -> bool {
        // NB: argument order — returns true when `other ⊆ self`.
        for c in self.system.constraints() {
            match c.rel {
                Rel::Ge => {
                    let neg = Constraint::ge0(
                        c.expr.scale(-1).add(&LinExpr::constant(-1)),
                    );
                    let mut probe = other.system.clone();
                    probe.push(neg);
                    if fourier_motzkin::is_satisfiable(&probe) {
                        return false;
                    }
                }
                Rel::Eq => {
                    for dir in [1, -1] {
                        let neg = Constraint::ge0(
                            c.expr.scale(dir).add(&LinExpr::constant(-1)),
                        );
                        let mut probe = other.system.clone();
                        probe.push(neg);
                        if fourier_motzkin::is_satisfiable(&probe) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Approximate union: keeps each constraint of one operand that is valid
    /// over the other operand (so the result contains both). This is the
    /// classic convex-hull over-approximation the paper mentions: "the union
    /// of regions is approximated since in some cases, it does not form a
    /// convex hull".
    pub fn union_hull(&self, other: &ConvexRegion) -> ConvexRegion {
        support::obs::incr(support::obs::Counter::RegionUnions);
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut system = ConstraintSystem::new();
        for (own, peer) in
            [(&self.system, other), (&other.system, self)]
        {
            for c in own.constraints() {
                if constraint_valid_over(c, peer) {
                    system.push(c.clone());
                }
            }
        }
        system.prune();
        ConvexRegion { space: self.space.clone(), system }
    }

    /// Integer bounds of dimension `dim` after projecting everything else.
    pub fn dim_bounds(&self, dim: u8) -> Option<(Option<i64>, Option<i64>)> {
        let v = self.space.dim_var(dim)?;
        fourier_motzkin::bounds_of(&self.system, v)
    }

    /// Extracts a triplet region over the dimension variables. Convex regions
    /// carry no stride information (the paper pairs the convex machinery with
    /// explicit stride tracking — see `summarize`), so stride is 1; a
    /// dimension whose bounds cannot be projected becomes `Unprojected`.
    pub fn to_triplets(&self) -> TripletRegion {
        let n = self.space.ndims();
        let mut dims = Vec::with_capacity(n as usize);
        for d in 0..n {
            match self.dim_bounds(d) {
                Some((Some(lo), Some(hi))) => dims.push(Triplet::constant(lo, hi, 1)),
                Some((lo, hi)) => dims.push(Triplet::new(
                    lo.map_or(Bound::Unprojected, Bound::Const),
                    hi.map_or(Bound::Unprojected, Bound::Const),
                    Bound::Const(1),
                )),
                None => dims.push(Triplet::new(
                    Bound::Unprojected,
                    Bound::Unprojected,
                    Bound::Const(1),
                )),
            }
        }
        TripletRegion::new(dims)
    }

    /// True when the given integer point (over dimension variables, other
    /// variables existentially quantified) may lie in the region. Exact when
    /// the region has no symbolic/loop variables left.
    pub fn may_contain_point(&self, point: &[i64]) -> bool {
        let mut probe = self.system.clone();
        for (d, &val) in point.iter().enumerate() {
            if let Some(v) = self.space.dim_var(d as u8) {
                probe.push(Constraint::eq(LinExpr::var(v), LinExpr::constant(val)));
            }
        }
        fourier_motzkin::is_satisfiable(&probe)
    }

    /// Renders the constraint system with readable variable names.
    pub fn render(&self, interner: &support::Interner) -> String {
        let space = self.space.clone();
        self.system.render(&move |v: VarId| space.name(v, interner))
    }
}

/// `system` with every loop variable of `space` projected out; an empty
/// projection is represented as `0 ≥ 1`.
pub(crate) fn project_loops_of(
    space: &Space,
    system: &ConstraintSystem,
    stats: &mut FmStats,
) -> ConstraintSystem {
    match fourier_motzkin::eliminate_all(system, &space.loop_vars(), stats) {
        Projection::Feasible(system) => system,
        Projection::Empty => {
            let mut system = ConstraintSystem::new();
            system.push(Constraint::ge0(LinExpr::constant(-1)));
            system
        }
    }
}

fn constraint_valid_over(c: &Constraint, region: &ConvexRegion) -> bool {
    match c.rel {
        Rel::Ge => {
            let neg = Constraint::ge0(c.expr.scale(-1).add(&LinExpr::constant(-1)));
            let mut probe = region.system.clone();
            probe.push(neg);
            !fourier_motzkin::is_satisfiable(&probe)
        }
        Rel::Eq => {
            for dir in [1, -1] {
                let neg =
                    Constraint::ge0(c.expr.scale(dir).add(&LinExpr::constant(-1)));
                let mut probe = region.system.clone();
                probe.push(neg);
                if fourier_motzkin::is_satisfiable(&probe) {
                    return false;
                }
            }
            true
        }
    }
}

/// Builds the box region `lb[d] ≤ x_d ≤ ub[d]` over a fresh space.
pub fn box_region(bounds: &[(i64, i64)]) -> ConvexRegion {
    let space = Space::with_dims(bounds.len() as u8);
    let mut system = ConstraintSystem::new();
    for (d, &(lo, hi)) in bounds.iter().enumerate() {
        let Some(v) = space.dim_var(d as u8) else {
            continue; // space was built from bounds.len(), so always present
        };
        system.push(Constraint::ge(LinExpr::var(v), LinExpr::constant(lo)));
        system.push(Constraint::le(LinExpr::var(v), LinExpr::constant(hi)));
    }
    ConvexRegion::new(space, system)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_region_bounds() {
        let r = box_region(&[(1, 100), (1, 100)]);
        assert_eq!(r.dim_bounds(0), Some((Some(1), Some(100))));
        assert_eq!(r.dim_bounds(1), Some((Some(1), Some(100))));
        assert!(!r.is_empty());
    }

    #[test]
    fn fig1_disjointness() {
        // DEF A(1:100,1:100) vs USE A(101:200,101:200): disjoint.
        let def = box_region(&[(1, 100), (1, 100)]);
        let user = box_region(&[(101, 200), (101, 200)]);
        assert!(def.disjoint_from(&user));
        // An overlapping pair is not disjoint.
        let mid = box_region(&[(50, 150), (50, 150)]);
        assert!(!def.disjoint_from(&mid));
    }

    #[test]
    fn containment() {
        let big = box_region(&[(0, 100)]);
        let small = box_region(&[(10, 20)]);
        assert!(big.contains_region(&small));
        assert!(!small.contains_region(&big));
        assert!(big.contains_region(&big));
    }

    #[test]
    fn union_hull_contains_both() {
        let a = box_region(&[(0, 10)]);
        let b = box_region(&[(20, 30)]);
        let u = a.union_hull(&b);
        assert!(u.contains_region(&a));
        assert!(u.contains_region(&b));
        // The hull is the interval [0, 30] — over-approximate by design.
        assert_eq!(u.dim_bounds(0), Some((Some(0), Some(30))));
        assert!(u.may_contain_point(&[15]));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = box_region(&[(0, 10)]);
        let empty = box_region(&[(5, 1)]); // lb > ub ⇒ empty
        assert!(empty.is_empty());
        let u = a.union_hull(&empty);
        assert_eq!(u.dim_bounds(0), Some((Some(0), Some(10))));
        let u2 = empty.union_hull(&a);
        assert_eq!(u2.dim_bounds(0), Some((Some(0), Some(10))));
    }

    #[test]
    fn project_loops_produces_dim_region() {
        // x0 = i, 1 ≤ i ≤ 100 over space {x0, i}.
        let mut it = support::Interner::new();
        let mut space = Space::with_dims(1);
        let i = space.add_loop(it.intern("i"));
        let x0 = space.dim_var(0).unwrap();
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::eq(LinExpr::var(x0), LinExpr::var(i)));
        sys.push(Constraint::ge(LinExpr::var(i), LinExpr::constant(1)));
        sys.push(Constraint::le(LinExpr::var(i), LinExpr::constant(100)));
        let r = ConvexRegion::new(space, sys);
        let mut stats = FmStats::default();
        let p = r.project_loops(&mut stats);
        assert_eq!(p.dim_bounds(0), Some((Some(1), Some(100))));
        assert_eq!(stats.eliminated, 1);
    }

    #[test]
    fn to_triplets_extracts_bounds() {
        let r = box_region(&[(1, 5), (0, 7)]);
        let t = r.to_triplets();
        assert_eq!(t.dims[0].as_const(), Some((1, 5, 1)));
        assert_eq!(t.dims[1].as_const(), Some((0, 7, 1)));
    }

    #[test]
    fn triangular_region_containment_beats_boxes() {
        // Triangle: 0 ≤ x0, 0 ≤ x1, x0 + x1 ≤ 10. Point (8, 8) is outside
        // the triangle but inside its bounding box — the precision the
        // paper claims for linear constraints over triplets.
        let space = Space::with_dims(2);
        let x0 = space.dim_var(0).unwrap();
        let x1 = space.dim_var(1).unwrap();
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(x0), LinExpr::constant(0)));
        sys.push(Constraint::ge(LinExpr::var(x1), LinExpr::constant(0)));
        sys.push(Constraint::le(
            LinExpr::var(x0).add(&LinExpr::var(x1)),
            LinExpr::constant(10),
        ));
        let tri = ConvexRegion::new(space, sys);
        assert!(!tri.may_contain_point(&[8, 8]));
        assert!(tri.may_contain_point(&[2, 3]));
        // The triplet extraction over-approximates to the box.
        let t = tri.to_triplets();
        assert_eq!(t.dims[0].as_const(), Some((0, 10, 1)));
        assert_eq!(t.contains(&[8, 8]), Some(true));
    }

    #[test]
    fn empty_projection_renders_empty_region() {
        let mut it = support::Interner::new();
        let mut space = Space::with_dims(1);
        let i = space.add_loop(it.intern("i"));
        let mut sys = ConstraintSystem::new();
        sys.push(Constraint::ge(LinExpr::var(i), LinExpr::constant(5)));
        sys.push(Constraint::le(LinExpr::var(i), LinExpr::constant(1)));
        let r = ConvexRegion::new(space, sys);
        let mut stats = FmStats::default();
        let p = r.project_loops(&mut stats);
        assert!(p.is_empty());
    }

    #[test]
    fn render_uses_variable_names() {
        let it = support::Interner::new();
        let r = box_region(&[(1, 2)]);
        let s = r.render(&it);
        assert!(s.contains("x0"), "{s}");
    }
}
